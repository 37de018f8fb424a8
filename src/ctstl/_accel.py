"""Environment stamp for the benchmark harness; no ctstl module imports it.

Every engine is plain numpy, so there is one backend, ``python``.
``HAVE_NUMBA`` records whether numba is installed, without importing it.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend() -> str:
    return "python"
