"""CSV signal ingestion and the line-delimited event record."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctstl import (MonitorEvent, Signal, open_signal_stream, read_signal_csv,
                   write_signal_csv)
from ctstl import sigfile
from ctstl.errors import SignalFormatError, UndecodableLine
from ctstl.sigfile import samples_at_step


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_signal_csv(fh, sig, time_column=True)
    assert path.read_text().splitlines()[0] == "t,x"
    with open(path, encoding="utf-8", newline="") as fh:
        back = read_signal_csv(fh)
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


def test_a_row_is_numbered_by_its_records_last_line():
    # blank lines count, and the record "2\n" spans lines 4 and 5
    text = 'x\n1\n\n"2\n"\n3\n'
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        _, _, rows = open_signal_stream(source)
        assert list(rows) == [(2, [1.0]), (5, [2.0]), (6, [3.0])]


def test_event_json_round_trip():
    ev = MonitorEvent(4, -math.inf, 7.0, None, False)
    assert json.loads(ev.to_json()) == {"i": 4, "lb": -math.inf, "ub": 7.0,
                                        "verdict": None, "decided": False}
    ev = MonitorEvent(6, 7.0, 7.0, True, True)
    assert MonitorEvent(**json.loads(ev.to_json())) == ev
    assert '"decided": true' in ev.to_json()


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1e16, 0.1])


@given(i=st.integers(0, 2**53 - 1) | st.integers(2**53, 2**70),
       lb=st.floats() | _EDGE_FLOATS, ub=st.floats() | _EDGE_FLOATS,
       verdict=st.sampled_from([None, True, False]), decided=st.booleans())
@settings(max_examples=300, deadline=None)
def test_event_line_is_what_json_dumps_writes(i, lb, ub, verdict, decided):
    # the encoder writes the line itself; it must keep json's bytes
    ev = MonitorEvent(i, lb, ub, verdict, decided)
    line = ev.to_json()
    assert line == json.dumps({"i": i, "lb": lb, "ub": ub,
                               "verdict": verdict, "decided": decided})
    back = json.loads(line)
    assert MonitorEvent(**back).to_json() == line
    assert (back["i"], back["verdict"], back["decided"]) == \
        (i, verdict, decided)


# cells the bulk conversion must treat exactly as float() does: quoted,
# space-padded, underscored, non-finite, overflowing, subnormal, malformed
_GOOD_CELLS = st.sampled_from([
    "1", "-2.5", "0", "-0", " 3 ", '"4"', '" 5 "', "1_0", "5e-324",
    "\u0661",
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_CELLS = st.sampled_from([
    "1__0", "nan", "inf", "-inf", "1e400", "-1e400", "1e", "x", "", '"1,5"',
    "0x10",
])
_CELLS = st.integers(0, 29).flatmap(
    lambda k: _BAD_CELLS if k == 0 else _GOOD_CELLS)
_STEPS = st.sampled_from([None] * 6 + [1.0, 0.5, 0.25, 0.1]
                         + [0.0, -1.0, math.inf, math.nan])


@st.composite
def _csv_files(draw):
    """CSV text with an optional t column, and the step to read it at.

    Timestamps follow a grid of step 1, 0.5, 0.25 or 0.1, some with jitter
    inside the reader's tolerance and some outside it; rows may be blank
    or ragged.
    """
    has_time = draw(st.booleans())
    variables = ["x", "y"][:draw(st.integers(1, 2))]
    names = ["t"] * has_time + variables
    grid = draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
    lines = [",".join(names)]
    for j in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        row = draw(st.lists(_CELLS, min_size=len(variables),
                            max_size=len(variables)))
        if has_time:
            jitter = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-13, -1e-13,
                                           1e-6, 0.3]))
            row.insert(0, repr(j * grid + jitter * grid))
        ragged = draw(st.integers(0, 19))
        if ragged == 0:
            row.append("1")
        elif ragged == 1:
            row.pop()
        lines.append(",".join(row))
    return "\n".join(lines) + "\n" * draw(st.booleans()), draw(_STEPS)


def _outcome(read):
    try:
        return read()
    except SignalFormatError as exc:
        return (type(exc), str(exc), exc.line)


def _source(text):
    return io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)


def _via_stream(text, step):
    names, has_time, rows = open_signal_stream(_source(text))
    step, samples = samples_at_step(has_time, rows, step)
    values = np.array(list(samples), dtype=np.float64)
    return names, step, values.reshape(-1, len(names)).tobytes()


def _via_file(text, step):
    sig = read_signal_csv(_source(text), delta=step)
    return sig.names, sig.delta, np.ascontiguousarray(sig.values).tobytes()


@st.composite
def _as_bytes(draw, text):
    """The UTF-8 bytes of `text`, as the CLI reads a file: some with CRLF
    line ends, some with a byte that is not UTF-8 (a stray 0xff, or a 0xc3
    whose character is cut off) anywhere in the header or a row."""
    data = text.encode()
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    bad = draw(st.sampled_from([None, None, b"\xff", b"\xc3"]))
    if bad is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bad + data[at:]
    return data


@given(_csv_files(), st.data())
@settings(max_examples=500, deadline=None)
def test_whole_file_reader_matches_the_stream_bit_for_bit(case, data):
    # same names, step and value bits, or the same error at the same line,
    # over text and over the bytes that the CLI passes
    text, step = case
    want = _outcome(lambda: _via_stream(text, step))
    assert _outcome(lambda: _via_file(text, step)) == want
    if not isinstance(want[0], type):
        # a valid file takes the bulk conversion, never the row replay
        rd, names = sigfile._read_header(io.StringIO(text))
        cells = [cell for row in rd for cell in row]
        assert sigfile._convert(names, cells, step) is not None
    raw = data.draw(_as_bytes(text))
    assert _outcome(lambda: _via_file(raw, step)) == \
        _outcome(lambda: _via_stream(raw, step))


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_whole_file_reader_matches_the_stream_across_chunks(rows,
                                                            monkeypatch):
    # the reader converts every _CHUNK_ROWS rows apart: with chunks of a
    # few rows, every boundary falls inside the drawn files
    monkeypatch.setattr(sigfile, "_CHUNK_ROWS", rows)
    test_whole_file_reader_matches_the_stream_bit_for_bit()


def test_csv_error_comes_after_the_errors_of_earlier_rows():
    # a field over csv's size limit stops the reader; rows before it are
    # still checked first, as the stream checks them
    huge = "1" * (csv.field_size_limit() + 1)
    for text, line in ((f"x\n1\nnan\n{huge}\n", 3),
                       (f"t,x\n0,1\n1,1\n5,1\n1,{huge}\n", 4)):
        with pytest.raises(SignalFormatError) as e:
            read_signal_csv(io.StringIO(text))
        assert e.value.line == line
        with pytest.raises(SignalFormatError) as s:
            _via_stream(text, None)
        assert str(e.value) == str(s.value)
    # the over-long field itself is a format error at its line, in the
    # header and in the rows, for both readers
    for text, line in ((f"x\n1\n{huge}\n", 3), (f"{huge}\n1\n", 1)):
        with pytest.raises(SignalFormatError) as e:
            read_signal_csv(io.StringIO(text))
        assert e.value.line == line
        assert "field larger than field limit" in str(e.value)
        with pytest.raises(SignalFormatError) as s:
            _via_stream(text, None)
        assert str(e.value) == str(s.value)


class _Chunked(io.BytesIO):
    """Bytes that arrive a few at a time, as a pipe may deliver them."""

    def __init__(self, data: bytes, size: int):
        super().__init__(data)
        self.size = size

    def read1(self, n=-1):
        return super().read1(self.size)


@pytest.mark.parametrize("size", [1, 2, 3, 64])
def test_binary_lines_end_as_text_mode_ends_them(size):
    data = "é,x\r\n1,2\r3,4\n\n5,6\r".encode()
    got = list(sigfile.Utf8Lines(_Chunked(data, size)))
    assert got == list(io.StringIO(data.decode(), newline=""))
    sig = read_signal_csv(_Chunked(data, size))
    assert sig.names == ("é", "x")
    assert sig.values.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_a_bad_byte_already_read_is_refused_at_its_line():
    # "x\n1\xc3" arrives first: the line "1" may end in a character not
    # fully read yet, which is no error
    lines = sigfile.Utf8Lines(_Chunked(b"x\n1\xc3\xa9\n", 4))
    assert next(lines) == "x\n"
    lines.check_read()
    lines = sigfile.Utf8Lines(_Chunked(b"x\n1\n2\xff\n3\n", 64))
    assert next(lines) == "x\n"
    with pytest.raises(UndecodableLine, match="at line 3 "):
        lines.check_read()
    # read line by line, the lines before it come first
    lines = sigfile.Utf8Lines(_Chunked(b"x\n1\n2\xff\n3\n", 64))
    assert [next(lines), next(lines)] == ["x\n", "1\n"]
    with pytest.raises(UndecodableLine, match="at line 3 "):
        next(lines)
