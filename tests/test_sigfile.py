"""CSV signal ingestion and the line-delimited event record."""

import io
import math

import numpy as np
import pytest

from ctstl import (MonitorEvent, Signal, open_signal_stream, read_signal_csv,
                   write_signal_csv)
from ctstl.errors import SignalFormatError


def test_round_trip_without_time_column():
    sig = Signal(("x", "y"), np.array([[1.0, 2.5], [3.0, -4.0]]), 0.5)
    buf = io.StringIO()
    write_signal_csv(buf, sig)
    back = read_signal_csv(io.StringIO(buf.getvalue()), delta=0.5)
    assert back.names == ("x", "y")
    assert np.array_equal(back.values, sig.values)
    assert back.delta == 0.5


def test_time_column_sets_the_step():
    text = "t,x\n0,1\n0.5,2\n1.0,3\n"
    sig = read_signal_csv(io.StringIO(text))
    assert sig.delta == 0.5
    assert sig.names == ("x",)
    assert sig.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_time_column_written_back(tmp_path):
    sig = Signal(("x",), np.array([[7.0], [8.0]]), 2.0)
    path = tmp_path / "s.csv"
    write_signal_csv(str(path), sig, time_column=True)
    assert path.read_text().splitlines()[0] == "t,x"
    back = read_signal_csv(str(path))
    assert back.delta == 2.0
    assert np.array_equal(back.values, sig.values)


def test_nonuniform_spacing_reports_line():
    for text, line in [("t,x\n0,1\n1,2\n2.5,3\n", 4),
                       ("t,x\n1,0\n0,1\n", 3),        # decreasing
                       ("t,x\n0,1\n1,2\n1,3\n", 4)]:  # repeated
        with pytest.raises(SignalFormatError) as e:
            read_signal_csv(io.StringIO(text))
        assert f"line {line}" in str(e.value)


def test_explicit_step_must_agree_with_inferred():
    text = "t,x\n0,1\n1,2\n"
    with pytest.raises(SignalFormatError):
        read_signal_csv(io.StringIO(text), delta=0.5)
    sig = read_signal_csv(io.StringIO(text), delta=1.0)
    assert sig.delta == 1.0


def test_bad_cell_reports_line():
    for cell in ("foo", "nan", "inf", "-inf"):
        with pytest.raises(SignalFormatError) as e:
            read_signal_csv(io.StringIO(f"x\n1\n{cell}\n"))
        assert "line 3" in str(e.value)


def test_wrong_arity_reports_line():
    text = "x,y\n1,2\n3\n"
    with pytest.raises(SignalFormatError) as e:
        read_signal_csv(io.StringIO(text))
    assert "line 3" in str(e.value)


def test_stream_reader_is_lazy():
    text = "x\n1\nbad\n"
    names, has_time, rows = open_signal_stream(io.StringIO(text))
    assert names == ("x",) and has_time is False
    line, vals = next(rows)
    assert (line, vals) == (2, [1.0])
    with pytest.raises(SignalFormatError):
        next(rows)


def test_event_json_round_trip():
    ev = MonitorEvent(4, -math.inf, 7.0, None, False)
    back = MonitorEvent.from_json(ev.to_json())
    assert back == ev
    ev = MonitorEvent(6, 7.0, 7.0, True, True)
    assert MonitorEvent.from_json(ev.to_json()) == ev
    assert '"decided": true' in ev.to_json()
