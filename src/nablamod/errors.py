"""Exception types shared across the package, and the line tokenizer that
the three file parsers share to place their parse errors.

The split mirrors the three failure modes the command line distinguishes:
unusable input (:class:`InputError` and its parse subclass), a broken internal
contract (:class:`ContractError`), and a deliberately enforced size limit
(:class:`ResourceBoundError`).
"""

from __future__ import annotations

import re
from typing import Iterator


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


def _point(names: dict[str, None], tokens: list[_Token], lineno: int) -> None:
    """Declare the point of a ``point <id>`` line."""
    if len(tokens) != 2:
        raise ParseError("'point' takes one name", lineno, tokens[0][1])
    name, col = tokens[1]
    if name in names:
        raise ParseError(f"duplicate point {name!r}", lineno, col)
    names[name] = None


def _pair(
    table: dict, names: dict[str, None], tokens: list[_Token], lineno: int
) -> tuple[str, str]:
    """The pair ``<a> <b>`` after the directive: both declared points, and
    not given before."""
    a = _known(names, tokens[1], lineno)
    b = _known(names, tokens[2], lineno)
    if (a, b) in table:
        raise ParseError(f"duplicate entry for ({a}, {b})", lineno, tokens[0][1])
    return a, b
