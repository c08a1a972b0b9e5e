from __future__ import annotations

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cayley
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


@pytest.mark.parametrize(
    "text,line",
    [
        ("2\n0 1\x0c1 0\n", 2),  # one table line: form feed is no line break
        ("2\n0 1\n1 0\x0c\n", 3),
        ("2\n0 1\x0b1 0\n", 2),
        ("2\n0 1\x1c1 0\n", 2),
        ("2\r0 1\r1 0\n", 1),
        # Separators inside a comment line shift no later line number.
        ("#\x0c#\x0c#\n2\n0 1\n1 x\n", 4),
        ("#\x1c#\x1d#\n1\n1\n", 3),
    ],
)
def test_only_newline_ends_a_line(text, line):
    with pytest.raises(ParseError) as excinfo:
        read_group_text(text)
    assert excinfo.value.line == line <= text.count("\n") + 1


def test_crlf_file_parses(s3):
    text = write_group_text(s3, ["crlf"]).replace("\n", "\r\n")
    assert read_group_text(text) == s3


def test_order_above_the_cap_is_rejected_at_its_line():
    with pytest.raises(ParseError, match="^line 2: order 4097 exceeds the cap of 4096$"):
        read_group_text("# big\n4097\n0 1\n")


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


def test_write_group_streams_a_row_at_a_time(tmp_path):
    g = cyclic_group(1024)
    path = tmp_path / "c1024.cayley"
    tracemalloc.start()
    try:
        write_group(g, path, ["streamed"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    text = write_group_text(g, ["streamed"])
    assert path.read_text(encoding="ascii") == text
    stream = io.StringIO()
    write_group(g, stream, ["streamed"])
    assert stream.getvalue() == text


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"), reason="at the 4096 cap; set CAYLEY_STRESS=1 to run"
)
def test_read_at_the_cap_parses_into_one_table(tmp_path):
    # The child reports its own peak resident set (VmHWM), which a forked
    # child's ru_maxrss cannot: that starts from the parent's resident pages.
    path = tmp_path / "c4096.cayley"
    write_group(cyclic_group(4096), path)
    child = (
        "import sys\n"
        "from cayley.fileformat import read_group\n"
        "assert read_group(sys.argv[1]).order == 4096\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(cayley.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout.split("VmHWM:")[1].split()[0])
    assert peak_kb < 400 * 1024
