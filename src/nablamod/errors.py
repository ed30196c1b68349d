"""Exception types shared across the package, the line tokenizer that the
three file parsers share to place their parse errors, and the table file
format itself.

The split mirrors the three failure modes the command line distinguishes:
unusable input (:class:`InputError` and its parse subclass), a broken internal
contract (:class:`ContractError`), and a deliberately enforced size limit
(:class:`ResourceBoundError`).

Space and category files are one format, a table of pairs: a header line,
``point <id>`` lines and one entry line per pair.  :func:`_read_table` reads
it and :func:`_write_table` writes it; the header decides which entry
directives a file may use and how their values are read.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Optional


class NablamodError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NablamodError):
    """An argument or input object violates a documented precondition."""


class ParseError(InputError):
    """A textual input (space, category, or lattice file) is malformed.

    Carries a 1-based line and column so the CLI can point at the offending
    token.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.args[0]}"


class ContractError(NablamodError):
    """An operation was applied outside its stated domain.

    Example: transposing a category back into a left-continuous space when some
    hom value is not left-continuous.
    """


class ResourceBoundError(NablamodError):
    """A configured size bound (point count, carrier size) was exceeded."""


# ---------------------------------------------------------------------------
# The line format shared by space, category and lattice files.

_WORD = re.compile(r"\S+")

_Token = tuple[str, int]


def _lines(text: str) -> Iterator[tuple[int, str, list[_Token]]]:
    """Yield ``(lineno, body, tokens)`` for every line of ``text`` that has a
    token: ``body`` is the line with its ``#`` comment cut off and
    ``tokens`` its words, each with its 1-based column."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _WORD.finditer(body)]
        if tokens:
            yield lineno, body, tokens


def _known(
    names: dict[str, None], token: _Token, lineno: int, noun: str = "point"
) -> str:
    """The declared name ``token`` stands for."""
    name, col = token
    if name not in names:
        raise ParseError(f"unknown {noun} {name!r}", lineno, col)
    return name


# An entry directive: the message for a line with too few words, whether it
# needs exactly four, and the reader of its value from (body, tokens, lineno).
# A directive of the other kind of file has no reader and its message is the
# whole error.
_Entry = tuple[str, bool, Optional[Callable[[str, list[_Token], int], object]]]


def _read_table(
    text: str,
    family: str,
    header: Callable[[list[_Token], int], tuple[object, dict[str, _Entry]]],
) -> tuple[object, dict[str, None], dict[tuple[str, str], object]]:
    """``(kind, points, table)`` of a space or category file.  ``family`` is
    the header word; ``header`` checks the first line and returns the file's
    kind and its entry directives.  An entry line ``<directive> <a> <b>
    <value>`` has its word count checked before its pair."""
    kind: object = None
    lines: Optional[dict[str, _Entry]] = None
    points: dict[str, None] = {}
    table: dict[tuple[str, str], object] = {}
    for lineno, body, tokens in _lines(text):
        head, head_col = tokens[0]
        if lines is None:
            kind, lines = header(tokens, lineno)
        elif head == family:
            raise ParseError("duplicate header", lineno, head_col)
        elif head == "point":
            if len(tokens) != 2:
                raise ParseError("'point' takes one name", lineno, head_col)
            name, col = tokens[1]
            if name in points:
                raise ParseError(f"duplicate point {name!r}", lineno, col)
            points[name] = None
        elif head in lines:
            message, exact, read = lines[head]
            if read is None or len(tokens) < 4 or exact and len(tokens) != 4:
                raise ParseError(message, lineno, head_col)
            key = (_known(points, tokens[1], lineno), _known(points, tokens[2], lineno))
            if key in table:
                raise ParseError("duplicate entry for (%s, %s)" % key, lineno, head_col)
            table[key] = read(body, tokens, lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, head_col)
    if lines is None:
        raise ParseError(f"empty file: expected a {family!r} header", 1, 1)
    return kind, points, table


def _write_table(header: str, word: str, table, show: Callable[[object], str]) -> str:
    """The file :func:`_read_table` reads back as ``table``."""
    pts = table.points
    lines = [header, *(f"point {p}" for p in pts)]
    lines += [f"{word} {a} {b} {show(table._table[(a, b)])}" for a in pts for b in pts]
    return "\n".join(lines) + "\n"
