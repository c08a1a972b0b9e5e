"""The Cayley-table text format.

Layout: optional comment lines starting with '#' anywhere; the first
non-comment line holds the decimal order n; the next n non-comment lines
each hold exactly n space-separated decimal indices; a trailing newline is
mandatory. Element 0 must be the identity, and n may not exceed MAX_ORDER.
Any deviation raises ParseError with the offending line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .core import MAX_ORDER, FiniteGroup, from_table
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


def _text_lines(text: str) -> Iterator[str]:
    """The lines of text, which ends with "\n", one at a time and without
    their "\n" and one "\r" before it, so that CRLF files parse. Unlike
    str.splitlines, no other character ends a line."""
    start = 0
    while start < len(text):
        end = text.index("\n", start)
        yield text[start:end].removesuffix("\r")
        start = end + 1


def read_group_text(text: str) -> FiniteGroup:
    """Parse the text of a Cayley-table file into a validated group, each
    row straight into a preallocated int32 table."""
    if not text.isascii():
        raise ParseError(1, "file is not ASCII")
    if not text.endswith("\n"):
        raise ParseError(max(1, text.count("\n") + 1), "missing trailing newline")
    order: int | None = None
    table: np.ndarray | None = None
    row_lines: list[int] = []
    for lineno, line in enumerate(_text_lines(text), start=1):
        if line.startswith("#"):
            continue
        if order is None:
            if not line.isdigit():
                raise ParseError(lineno, f"invalid order line {line!r}")
            order = int(line)
            if order < 1:
                raise ParseError(lineno, "order must be at least 1")
            if order > MAX_ORDER:
                raise ParseError(lineno, f"order {order} exceeds the cap of {MAX_ORDER}")
            table = np.empty((order, order), dtype=np.int32)
            continue
        if len(row_lines) == order:
            raise ParseError(lineno, "unexpected content after the table")
        table[len(row_lines)] = _parse_row(line, lineno, order)
        row_lines.append(lineno)
    last = text.count("\n")
    if order is None:
        raise ParseError(last + 1, "missing order line")
    if len(row_lines) < order:
        raise ParseError(last + 1, f"expected {order} rows, found {len(row_lines)}")
    identity = np.arange(order)
    if (table[0] != identity).any():
        raise ParseError(row_lines[0], "element 0 is not a left identity")
    not_right = np.flatnonzero(table[:, 0] != identity)
    if not_right.size:
        raise ParseError(row_lines[not_right[0]], "element 0 is not a right identity")
    return from_table(order, table)


def read_group(source: str | Path | IO[str]) -> FiniteGroup:
    """Read a group from a path or an open text stream."""
    if isinstance(source, (str, Path)):
        # Latin-1 decodes every byte, so a non-ASCII file reaches the
        # ParseError of read_group_text rather than a UnicodeDecodeError.
        text = Path(source).read_text(encoding="latin-1")
    else:
        text = source.read()
    return read_group_text(text)


def _lines(group: FiniteGroup, comments: Iterable[str]) -> Iterator[str]:
    """The lines of the Cayley-table text format, one table row at a time."""
    for comment in comments:
        yield (comment if comment.startswith("#") else f"# {comment}") + "\n"
    yield f"{group.order}\n"
    # Indexing a list of the decimal names is several times faster than
    # formatting every entry with str().
    names = [str(i) for i in range(group.order)]
    for row in group.table:
        yield " ".join([names[v] for v in row.tolist()]) + "\n"


def write_group_text(group: FiniteGroup, comments: Iterable[str] = ()) -> str:
    """Render a group in the Cayley-table text format."""
    return "".join(_lines(group, comments))


def write_group(
    group: FiniteGroup,
    target: str | Path | IO[str],
    comments: Iterable[str] = (),
) -> None:
    """Write a group to a path or an open text stream, a row at a time, so
    memory stays O(order) rather than the size of the text."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as out:
            out.writelines(_lines(group, comments))
    else:
        target.writelines(_lines(group, comments))
