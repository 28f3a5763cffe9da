import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stratopt import tables
from stratopt.optim import TrajectoryRecord
from stratopt.tables import AGG_FIELDS, TRAJ_FIELDS, SchemaError, read_columns, read_csv, write_csv

# NUL is left out: the stdlib csv reader rejects it on Python 3.10.
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
               | st.sampled_from([",", '"', "\n", "\r"]))
CELL = st.floats(allow_subnormal=True) | st.integers() | TEXT


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(st.lists(st.lists(CELL, min_size=2, max_size=5), max_size=4))
def test_write_read_round_trip(tmp_path_factory, rows):
    path = write_csv(tmp_path_factory.mktemp("rt") / "t.csv", ["a", "b"], rows)
    header, back = read_csv(path)
    assert header == ["a", "b"]
    assert len(back) == len(rows)
    for row, cells in zip(rows, back):
        assert len(cells) == len(row)
        for value, cell in zip(row, cells):
            if isinstance(value, float):
                if math.isnan(value):
                    assert math.isnan(float(cell))
                else:
                    assert _bits(float(cell)) == _bits(value)
            else:
                assert cell == str(value)


def _per_cell_line(row) -> str:
    """The generic writer line: %.17g for any float, str() quoted per RFC 4180."""
    out = []
    for v in row:
        if isinstance(v, float):
            out.append("%.17g" % v)
        else:
            s = str(v)
            if any(c in s for c in ',"\r\n'):
                s = '"' + s.replace('"', '""') + '"'
            out.append(s)
    return ",".join(out)


MIXED_CELL = (st.floats(allow_subnormal=True) | st.integers() | st.booleans()
              | st.floats().map(np.float64) | TEXT)


@given(st.lists(st.lists(MIXED_CELL, max_size=6) | st.tuples(st.integers(), st.floats()),
                max_size=6))
def test_write_csv_matches_per_cell_lines(tmp_path_factory, rows):
    path = write_csv(tmp_path_factory.mktemp("mix") / "t.csv", ["a", "b"], rows)
    expected = "\n".join(["a,b", *map(_per_cell_line, rows), ""])
    assert path.read_bytes().decode("utf-8") == expected


def test_write_csv_one_table_of_mixed_row_types(tmp_path):
    rows = [
        TrajectoryRecord(3, 0.1, -0.0, 5e-324, 1e308, -2.5, math.inf, math.nan),
        (7, 0.30000000000000004, 2),
        [True, 1.5, 2],
        [np.float64(0.1), 4, "x"],
        ["a,b", 'q"t', 1.0],
        [2 ** 70, -3],
        [],
    ]
    path = write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[1:-1] == [_per_cell_line(r) for r in rows]
    assert lines[1] == "3,0.10000000000000001,-0,4.9406564584124654e-324,1e+308,-2.5,inf,nan"
    assert lines[3] == "True,1.5,2"


@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                          st.floats(allow_nan=False, allow_infinity=False,
                                    allow_subnormal=True),
                          st.floats(allow_nan=False, allow_infinity=False,
                                    allow_subnormal=True)),
                min_size=1, max_size=8))
def test_read_columns_bit_exact_with_float(tmp_path_factory, rows):
    path = write_csv(tmp_path_factory.mktemp("num") / "t.csv", AGG_FIELDS, rows)
    _, cells = read_csv(path)
    step, median = read_columns(path, AGG_FIELDS, ("step", "median_loss"))
    assert step.dtype == median.dtype == np.float64
    assert [_bits(v) for v in step.tolist()] == [_bits(float(r[0])) for r in cells]
    assert [_bits(v) for v in median.tolist()] == [_bits(float(r[2])) for r in cells]


def test_read_columns_subnormals_and_extremes(tmp_path):
    values = [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1e-310, 1.7976931348623157e308, -0.0, 0.1, 1 / 3]
    path = write_csv(tmp_path / "t.csv", AGG_FIELDS, [(k, v, -v) for k, v in enumerate(values)])
    mean, median = read_columns(path, AGG_FIELDS, ("mean_loss", "median_loss"))
    assert [_bits(v) for v in mean.tolist()] == [_bits(v) for v in values]
    assert [_bits(v) for v in median.tolist()] == [_bits(-v) for v in values]


def test_read_columns_header_only_is_empty_without_warning(tmp_path):
    path = write_csv(tmp_path / "t.csv", TRAJ_FIELDS, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, loss = read_columns(path, TRAJ_FIELDS, ("step", "loss"))
    assert step.size == loss.size == 0


@pytest.mark.parametrize("body, message", [
    ("0,1,2\n1,2\n", "line 3: 2 cells where the header has 3"),
    ("0,1,2\n1,2,3,4\n", "line 3: 4 cells where the header has 3"),
    ("0,1,2\n\n1,abc,3\n", "line 4: mean_loss = 'abc' is not a number"),
    ("0,1,\n", "line 2: median_loss = '' is not a number"),
    ("0,1,2\n   \n", "line 3: 1 cells where the header has 3"),
    ('0,1,"2"\n1,2,3,4\n', "line 3: 4 cells where the header has 3"),
    ('0,1,"2\n"\n\n1,"a,b",2\n', "line 5: mean_loss = 'a,b' is not a number"),
])
def test_read_columns_names_the_bad_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + body, encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}, {message}")):
        read_columns(path, AGG_FIELDS, ("step", "mean_loss"))


def test_read_columns_checks_the_header(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["step", "mean_loss"], [(0, 1.0)])
    with pytest.raises(SchemaError, match="expected header"):
        read_columns(path, AGG_FIELDS, ("step",))


def test_read_columns_rejects_a_header_that_ends_in_a_lone_cr(tmp_path):
    # rows would read it, but the binary body read would take the file as one line
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,mean_loss,median_loss\r0,1,2\r\n")
    assert [c for _, c in tables.rows(path, AGG_FIELDS)] == [["0", "1", "2"]]
    with pytest.raises(SchemaError, match=re.escape(f"{path}, line 1: ends in a lone CR")):
        read_columns(path, AGG_FIELDS, ("step",))


@pytest.mark.parametrize("body, line", [
    (b"0,1,2\r3,4,5\r\n", 2),
    (b"0,1,2\n\n3,4,5\r\n6,7,8\r9,10,11\n", 5),
    (b"0,1,2\r\r\n", 2),
], ids=["after-crlf", "after-lf-and-a-blank-line", "before-crlf"])
def test_read_columns_names_the_line_of_a_lone_cr_in_the_body(tmp_path, body, line):
    # np.loadtxt cannot read a lone CR, and rows splits there as text mode does
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,mean_loss,median_loss\r\n" + body)
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}, line {line}: ends in a lone CR, not LF or CRLF")):
        read_columns(path, AGG_FIELDS, ("step", "mean_loss"))


def test_read_columns_reads_a_crlf_split_across_reads(tmp_path):
    # a first row of leading zeros puts its CR last in the first read, its LF first in the next
    body = b"0" * (tables.READ_BYTES - 10) + b",0.5,0.25\r\n" + b"1,0.5,0.25\r\n" * 3
    assert body[tables.READ_BYTES - 1:tables.READ_BYTES + 1] == b"\r\n"
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,mean_loss,median_loss\r\n" + body)
    step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert step.tolist() == [0, 1, 1, 1] and mean.tolist() == [0.5] * 4


def test_rows_skip_blank_lines_and_count_quoted_breaks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n1,2\n\n"x\ny",3\n4,5\n', encoding="utf-8")
    assert list(tables.rows(path, ["a", "b"])) == [
        (2, ["1", "2"]), (4, ["x\ny", "3"]), (6, ["4", "5"])]


def test_rows_split_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1,2\r3,4\n")
    assert list(tables.rows(path, ["a", "b"])) == [(2, ["1", "2"]), (3, ["3", "4"])]


@pytest.mark.parametrize("read", [lambda path: list(tables.rows(path, ["a", "b"])), read_csv],
                         ids=["rows", "read_csv"])
@pytest.mark.parametrize("body, line, byte", [
    (b"a,\xffb\n1,2\n", 1, "0xff in position 2"),
    (b'a,b\n"x\n\xe9",2\n', 3, "0xe9 in position 0"),
], ids=["header", "row-after-quoted-break"])
def test_a_non_utf8_byte_names_its_line(tmp_path, read, body, line, byte):
    path = tmp_path / "t.csv"
    path.write_bytes(body)
    with pytest.raises(SchemaError, match=re.escape(f"{path}, line {line}: 'utf-8' codec "
                                                    f"can't decode byte {byte}")):
        read(path)


@pytest.mark.parametrize("read", [lambda path: list(tables.rows(path, ["a", "b"])), read_csv],
                         ids=["rows", "read_csv"])
@pytest.mark.parametrize("body, line", [
    ("a,b\n1,2\n3," + "x" * 200_000 + "\n", 3),
    ('a,b\n"1\n2",3\n\n"' + "x" * 200_000 + '",4\n', 5),
], ids=["row", "after-a-quoted-break-and-a-blank-line"])
def test_an_oversized_cell_names_its_line(tmp_path, read, body, line):
    path = tmp_path / "t.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}, line {line}: field larger than field limit (131072)")):
        read(path)


def test_read_columns_reads_the_cells_rows_reads(tmp_path):
    # a quoted number is a number; a quoted comma in a cell not read is no delimiter
    path = tmp_path / "t.csv"
    path.write_text(",".join(TRAJ_FIELDS) + '\n"6",1,3,1,-1,0.5,"0.1",1\n'
                    '1,"1,5",3,1,-1,0.5,"-0",1\n', encoding="utf-8")
    step, loss = read_columns(path, TRAJ_FIELDS, ("step", "loss"))
    cells = [c for _, c in tables.rows(path, TRAJ_FIELDS)]
    assert [_bits(v) for v in step.tolist()] == [_bits(float(c[0])) for c in cells]
    assert [_bits(v) for v in loss.tolist()] == [_bits(float(c[6])) for c in cells]
    assert cells[0][0] == "6" and cells[1][1] == "1,5"
    with path.open("a", encoding="utf-8") as fh:
        fh.write("2,1,3,1,-1,0.5,0.5,1,9\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}, line 4: 9 cells where")):
        read_columns(path, TRAJ_FIELDS, ("step", "loss"))


@pytest.mark.parametrize("split", [False, True], ids=["one-read", "short-row-across-reads"])
def test_read_columns_names_a_short_row_that_a_long_row_makes_up_for(tmp_path, split):
    # the body holds two commas a row in all; loadtxt reads neither row's last cell
    first = "0,0.5,0.25\n"
    if split:  # the short row's comma ends the first read
        first = "0" * (tables.READ_BYTES - 2 - len(first)) + first
        assert len(first) + 2 == tables.READ_BYTES
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + first + "1,2\n3,4,5,6\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}, line 3: 2 cells where the header has 3")):
        read_columns(path, AGG_FIELDS, ("step", "mean_loss"))


def test_read_columns_carries_a_row_across_reads_without_walking_the_rows(tmp_path, monkeypatch):
    # leading zeros make the first read end inside the second row, after its first comma
    body = "0" * (tables.READ_BYTES - 15) + "0,0.5,0.25\n1,0.5,0.25\n2,0.5,0.25"
    assert body[:tables.READ_BYTES].endswith("\n1,0.")
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + body, encoding="utf-8")
    monkeypatch.setattr(tables, "rows", None)  # a fault found would walk the rows
    step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert step.tolist() == [0, 1, 2] and mean.tolist() == [0.5] * 3


def _good_rows(n: int) -> str:
    """``n`` valid AGG_FIELDS lines, more bytes than one ``READ_BYTES`` read."""
    body = "".join(f"{k},0.5,0.25\n" for k in range(n))
    assert len(body) > tables.READ_BYTES
    return body


@pytest.mark.parametrize("bad, message", [
    ("1,2\n", "2 cells where the header has 3"),
    ("1,2,3,4\n", "4 cells where the header has 3"),
    ("1,abc,3\n", "mean_loss = 'abc' is not a number"),
])
def test_read_columns_names_a_bad_line_past_the_first_read(tmp_path, bad, message):
    n = 8000
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + _good_rows(n) + bad + _good_rows(n),
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}, line {n + 2}: {message}")):
        read_columns(path, AGG_FIELDS, ("step", "mean_loss"))


@pytest.mark.parametrize("body", ["\n", "  \r\n\n", "\n" * (tables.READ_BYTES + 7) + " \t\n"],
                         ids=["newline", "spaces", "longer-than-one-read"])
def test_read_columns_blank_body_is_empty_without_warning(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + body, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert step.size == mean.size == 0


def test_read_columns_rows_before_a_blank_read(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("step,mean_loss,median_loss\n" + _good_rows(8000)
                    + "\n" * (tables.READ_BYTES + 7), encoding="utf-8")
    step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert step.tolist() == list(range(8000))
    assert set(mean.tolist()) == {0.5}


def test_read_columns_parses_a_valid_file_once(tmp_path, monkeypatch):
    # CRLF line ends, blank lines, a quoted number and a quoted comma in a cell not
    # read, over more than one READ_BYTES read: one np.loadtxt pass takes it all
    body = "".join(f'{k},"{k / 7!r}","a,{k}"\r\n\r\n' if k % 2 else f"{k},{k / 7!r},0.25\r\n"
                   for k in range(4000))
    assert len(body) > tables.READ_BYTES
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,mean_loss,median_loss\r\n" + body.encode("utf-8"))
    cells = [c for _, c in tables.rows(path, AGG_FIELDS)]
    assert cells[1] == ["1", repr(1 / 7), "a,1"]

    def fault_path(*args):
        raise AssertionError("a valid file took the fault path")

    monkeypatch.setattr(tables, "rows", fault_path)
    monkeypatch.setattr(tables, "_blank_body", fault_path)
    step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert [_bits(v) for v in step.tolist()] == [_bits(float(c[0])) for c in cells]
    assert [_bits(v) for v in mean.tolist()] == [_bits(float(c[1])) for c in cells]


FAULTS = ["short", "long", "short-then-long", "empty-last", "quoted-empty-last",
          "not-a-number", "whitespace-line", "lone-cr"]


@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.floats(allow_nan=False),
                          st.floats(allow_nan=False)), min_size=1, max_size=40),
       st.sampled_from([None, *FAULTS]),
       st.sampled_from([("step", "mean_loss"), ("median_loss", "step"), ("mean_loss",)]),
       st.data())
def test_read_columns_names_a_fault_as_the_walk_does(tmp_path_factory, rows, fault, columns, data):
    path = write_csv(tmp_path_factory.mktemp("fault") / "t.csv", AGG_FIELDS, rows)
    header, *body = path.read_text(encoding="utf-8").split("\n")[:-1]
    ends = ["\n"] * len(body)
    k = data.draw(st.integers(0, len(body) - 1))  # the row at fault, on line k + 2
    if fault in ("short-then-long", "lone-cr"):
        assume(k < len(body) - 1)  # a later row to pad, or a byte after the CR
    if fault in ("short", "short-then-long"):
        body[k] = body[k].rsplit(",", 1)[0]
        message = "2 cells where the header has 3"
        if fault == "short-then-long":
            body[data.draw(st.integers(k + 1, len(body) - 1))] += ",1"
    elif fault == "long":
        body[k] += ",1"
        message = "4 cells where the header has 3"
    elif fault in ("empty-last", "quoted-empty-last"):
        body[k] = body[k].rsplit(",", 1)[0] + ("," if fault == "empty-last" else ',""')
        message = "median_loss = '' is not a number"
    elif fault == "not-a-number":
        name = data.draw(st.sampled_from(columns))
        cells = body[k].split(",")
        cells[AGG_FIELDS.index(name)] = "abc"
        body[k] = ",".join(cells)
        message = f"{name} = 'abc' is not a number"
    elif fault == "whitespace-line":
        body.insert(k, data.draw(st.sampled_from([" ", "\t", " \t "])))
        ends.insert(k, "\n")
        message = "1 cells where the header has 3"
    elif fault == "lone-cr":
        ends[k] = "\r"
        message = "ends in a lone CR, not LF or CRLF"
    path.write_bytes((header + "\n" + "".join(map(str.__add__, body, ends))).encode("utf-8"))
    if fault is not None:
        with pytest.raises(SchemaError, match=re.escape(f"{path}, line {k + 2}: {message}")):
            read_columns(path, AGG_FIELDS, columns)
        return
    got = read_columns(path, AGG_FIELDS, columns)
    cells = [c for _, c in tables.rows(path, AGG_FIELDS)]
    for name, column in zip(columns, got):
        j = AGG_FIELDS.index(name)
        assert [_bits(v) for v in column.tolist()] == [_bits(float(c[j])) for c in cells]


def test_read_columns_names_a_quoted_empty_last_cell(tmp_path):
    # rows reads "" as an empty cell; it used to read as a row unless another fault was named
    path = tmp_path / "t.csv"
    path.write_text('step,mean_loss,median_loss\n0,1,""\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}, line 2: median_loss = '' is not a number")):
        read_columns(path, AGG_FIELDS, ("step", "mean_loss"))


def test_read_columns_reads_a_cr_inside_a_quoted_cell_not_read(tmp_path):
    # a quoted CR is no line end; it used to raise "ends in a lone CR"
    path = tmp_path / "t.csv"
    path.write_bytes(b'step,mean_loss,median_loss\n0,1,"2\r5"\n')
    assert [c for _, c in tables.rows(path, AGG_FIELDS)] == [["0", "1", "2\r5"]]
    step, mean = read_columns(path, AGG_FIELDS, ("step", "mean_loss"))
    assert step.tolist() == [0.0] and mean.tolist() == [1.0]


def test_read_columns_names_a_short_row_whose_quoted_comma_fills_the_count(tmp_path):
    # two commas, but two cells; it used to read as a row when its first cell was not read
    path = tmp_path / "t.csv"
    path.write_text('step,mean_loss,median_loss\n"0,1",2\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}, line 2: 2 cells where the header has 3")):
        read_columns(path, AGG_FIELDS, ("mean_loss",))


def test_write_csv_bytes_across_chunks(tmp_path):
    n = 2 * tables.WRITE_ROWS + 3
    rows = [(k, k / 7) for k in range(n)]
    for k in (tables.WRITE_ROWS - 1, tables.WRITE_ROWS, 2 * tables.WRITE_ROWS):
        rows[k] = ("x,y", k)  # per-cell rows at either side of a chunk boundary
    want = "a,b\n" + "".join('"x,y",%d\n' % b if a == "x,y" else "%d,%.17g\n" % (a, b)
                             for a, b in rows)
    path = write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert path.read_bytes() == want.encode("utf-8")


def hexes(row):
    return [v.hex() if isinstance(v, float) else v for v in row]


def test_a_packed_table_writes_the_bytes_of_its_rows(tmp_path):
    rows = [(3, 0.1, -0.0, 5e-324, 1e308, -2.5, math.inf, math.nan),
            (-2 ** 63, 0.30000000000000004, 1.0, 2.0, -1e-300, 0.5, 0.25, 7.0)]
    rows += [(k, k / 7, -k / 3, 1.0, 2.0, 3.0, k * 0.1, 1.5) for k in range(tables.WRITE_ROWS)]
    packed = tables.TrajectoryTable(rows)
    assert len(packed) == len(rows) and len(packed.buf) == 64 * len(rows)
    got = write_csv(tmp_path / "packed.csv", TRAJ_FIELDS, packed).read_bytes()
    assert got == write_csv(tmp_path / "rows.csv", TRAJ_FIELDS, rows).read_bytes()
    # an index gives a record, iteration plain tuples, and a column a copy
    assert type(packed[0]) is TrajectoryRecord and packed[-1].step == tables.WRITE_ROWS - 1
    assert hexes(packed[1]) == hexes(rows[1]) and hexes(packed[-len(rows)]) == hexes(rows[0])
    assert [hexes(r) for r in packed] == [hexes(r) for r in rows]
    theta = packed.column("theta")
    assert theta.flags.owndata and [v.hex() for v in theta] == [r[2].hex() for r in rows]
    packed.buf += tables.TRAJ_ROW.pack(*rows[1])  # no array holds the buffer
    for index in (len(rows) + 1, -len(rows) - 2):
        with pytest.raises(IndexError):
            packed[index]


def test_an_aggregate_table_packs_24_bytes_a_row(tmp_path):
    rows = [(k, k / 7, -k / 3) for k in range(5)]
    packed = tables.AggregateTable(rows)
    assert tables.AGG_ROW.size == tables.AGG_DTYPE.itemsize == len(packed.buf) // 5 == 24
    assert packed[2] == rows[2] and packed.column("median_loss").tolist() == [r[2] for r in rows]
    got = write_csv(tmp_path / "packed.csv", AGG_FIELDS, packed).read_bytes()
    assert got == write_csv(tmp_path / "rows.csv", AGG_FIELDS, rows).read_bytes()
    empty = tables.AggregateTable()
    assert len(empty) == 0 and list(empty) == [] and empty.column("step").size == 0


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_trajectory(tmp_path_factory):
    """100k trajectory rows (15 MB of CSV) and the file ``write_csv`` makes of them."""
    table = np.random.default_rng(3).uniform(-1.0, 1.0, size=(100_000, 7)).tolist()
    rows = [TrajectoryRecord(k, *cells) for k, cells in enumerate(table)]
    return rows, write_csv(tmp_path_factory.mktemp("long") / "t.csv", TRAJ_FIELDS, rows)


def test_write_csv_memory_does_not_grow_with_the_table(long_trajectory, tmp_path):
    rows, path = long_trajectory
    peak = _traced_peak(lambda: write_csv(tmp_path / "t.csv", TRAJ_FIELDS, rows))
    assert (tmp_path / "t.csv").read_bytes() == path.read_bytes()
    assert peak < 2_000_000  # the whole text would be 15 MB


def test_read_columns_memory_does_not_grow_with_the_body(long_trajectory):
    rows, path = long_trajectory
    got = []
    peak = _traced_peak(lambda: got.extend(read_columns(path, TRAJ_FIELDS, ("step", "loss"))))
    assert got[1].tolist() == [r.loss for r in rows]
    assert peak < 4_000_000  # 2.4 MB of parsed columns; the body is 15 MB
