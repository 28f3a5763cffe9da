import math
import struct

from hypothesis import given, strategies as st

from stratopt.tables import read_csv, write_csv

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
