from __future__ import annotations

import pytest

from cayley.core import cyclic_group, symmetric_group
from cayley.errors import ParseError
from cayley.fileformat import read_group, read_group_text, write_group, write_group_text


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_cyclic_round_trip(n):
    g = cyclic_group(n)
    text = write_group_text(g)
    assert text.endswith("\n")
    back = read_group_text(text)
    assert back == g


def test_file_round_trip(tmp_path, s3):
    path = tmp_path / "s3.cayley"
    write_group(s3, path, ["a comment", "# raw comment"])
    assert read_group(path) == s3
    # Round-trip of the written bytes is exact.
    text = path.read_text(encoding="ascii")
    assert write_group_text(read_group_text(text)) in text


def test_comments_anywhere():
    text = "# leading\n3\n# between\n0 1 2\n1 2 0\n# again\n2 0 1\n# trailing\n"
    g = read_group_text(text)
    assert g == cyclic_group(3)


def test_missing_trailing_newline():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("1\n0")
    assert excinfo.value.line == 2


def test_bad_order_line():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("x\n")
    assert excinfo.value.line == 1


def test_wrong_entry_count():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("2\n0 1\n1\n")
    assert excinfo.value.line == 3


def test_double_space_rejected():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("2\n0  1\n1 0\n")
    assert excinfo.value.line == 2


def test_entry_out_of_range():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("2\n0 1\n1 2\n")
    assert excinfo.value.line == 3


def test_first_faulty_entry_reported():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("3\n0 1 2\n1 5 x\n2 0 1\n")
    assert str(excinfo.value) == "line 3: entry 5 out of range 0..2"
    with pytest.raises(ParseError) as excinfo:
        read_group_text("3\n0 1 2\n1 x 5\n2 0 1\n")
    assert str(excinfo.value) == "line 3: invalid entry 'x'"


def test_negative_entry_rejected():
    with pytest.raises(ParseError):
        read_group_text("2\n0 1\n1 -1\n")


def test_extra_content():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("1\n0\n0\n")
    assert excinfo.value.line == 3


def test_missing_rows():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("2\n0 1\n")
    assert excinfo.value.line == 3


def test_blank_line_rejected():
    with pytest.raises(ParseError):
        read_group_text("2\n\n0 1\n1 0\n")


def test_identity_row_checked():
    with pytest.raises(ParseError) as excinfo:
        read_group_text("2\n1 0\n0 1\n")
    assert excinfo.value.line == 2


def test_identity_column_checked():
    # Row 0 fine, but row 1 does not start with 1.
    with pytest.raises(ParseError) as excinfo:
        read_group_text("3\n0 1 2\n2 0 1\n1 2 0\n")
    assert excinfo.value.line == 3


def test_non_ascii_rejected(tmp_path):
    with pytest.raises(ParseError):
        read_group_text("2²\n0 1\n1 0\n")
    path = tmp_path / "latin.cayley"
    path.write_bytes(b"1\n\xff\n")
    with pytest.raises(ParseError, match="^line 1: file is not ASCII$"):
        read_group(path)


def test_symmetric_group_round_trip(tmp_path):
    g = symmetric_group(4)
    path = tmp_path / "s4.cayley"
    write_group(g, path)
    assert read_group(path) == g
