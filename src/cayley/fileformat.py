"""The Cayley-table text format.

Layout: optional comment lines starting with '#' anywhere; the first
non-comment line holds the decimal order n; the next n non-comment lines
each hold exactly n space-separated decimal indices; a trailing newline is
mandatory. Element 0 must be the identity. Any deviation raises ParseError
with the offending line number.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable

from .core import FiniteGroup, from_table
from .errors import ParseError


def _parse_row(line: str, lineno: int, n: int) -> list[int]:
    tokens = line.split(" ")
    if len(tokens) != n:
        raise ParseError(lineno, f"expected {n} entries, found {len(tokens)}")
    # Convert the tokens up to the first one that is not a decimal number;
    # the first faulty token, whether malformed or out of range, is reported.
    valid = tokens
    if not all(map(str.isdigit, tokens)):
        valid = tokens[: next(i for i, tok in enumerate(tokens) if not tok.isdigit())]
    row = list(map(int, valid))
    if max(row, default=0) >= n:
        value = next(v for v in row if v >= n)
        raise ParseError(lineno, f"entry {value} out of range 0..{n - 1}")
    if len(row) < n:
        raise ParseError(lineno, f"invalid entry {tokens[len(row)]!r}")
    return row


def read_group_text(text: str) -> FiniteGroup:
    """Parse the text of a Cayley-table file into a validated group."""
    if not text.isascii():
        raise ParseError(1, "file is not ASCII")
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing trailing newline")
    order: int | None = None
    rows: list[list[int]] = []
    row_lines: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        if order is None:
            if not line.isdigit():
                raise ParseError(lineno, f"invalid order line {line!r}")
            order = int(line)
            if order < 1:
                raise ParseError(lineno, "order must be at least 1")
            continue
        if len(rows) == order:
            raise ParseError(lineno, "unexpected content after the table")
        rows.append(_parse_row(line, lineno, order))
        row_lines.append(lineno)
    last = text.count("\n")
    if order is None:
        raise ParseError(last + 1, "missing order line")
    if len(rows) < order:
        raise ParseError(last + 1, f"expected {order} rows, found {len(rows)}")
    if rows[0] != list(range(order)):
        raise ParseError(row_lines[0], "element 0 is not a left identity")
    for i in range(order):
        if rows[i][0] != i:
            raise ParseError(row_lines[i], "element 0 is not a right identity")
    return from_table(order, rows)


def read_group(source: str | Path | IO[str]) -> FiniteGroup:
    """Read a group from a path or an open text stream."""
    if isinstance(source, (str, Path)):
        # Latin-1 decodes every byte, so a non-ASCII file reaches the
        # ParseError of read_group_text rather than a UnicodeDecodeError.
        text = Path(source).read_text(encoding="latin-1")
    else:
        text = source.read()
    return read_group_text(text)


def write_group_text(group: FiniteGroup, comments: Iterable[str] = ()) -> str:
    """Render a group in the Cayley-table text format."""
    out = io.StringIO()
    for comment in comments:
        line = comment if comment.startswith("#") else f"# {comment}"
        out.write(line + "\n")
    out.write(f"{group.order}\n")
    # Indexing a list of the decimal names is several times faster than
    # formatting every entry with str().
    names = [str(i) for i in range(group.order)]
    for row in group.table.tolist():
        out.write(" ".join([names[v] for v in row]) + "\n")
    return out.getvalue()


def write_group(
    group: FiniteGroup,
    target: str | Path | IO[str],
    comments: Iterable[str] = (),
) -> None:
    """Write a group to a path or an open text stream."""
    text = write_group_text(group, comments)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="ascii")
    else:
        target.write(text)
