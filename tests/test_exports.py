"""The package's export list."""

import ctstl


def test_every_export_resolves_once():
    names = ctstl.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(ctstl, n)]
    assert not missing
