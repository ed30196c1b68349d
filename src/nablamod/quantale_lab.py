"""Finite ordered structures: preorders, lattices, quantales, and the laws
that sort the interesting ones from the rest.

Everything here is exhaustive and exact.  Orders are stored as bit rows, so
closure and join computations stay cheap up to a few dozen elements.  The law
checks are polynomial (distributivity is read off the binary joins); only the
quantifier-over-families oracle :func:`well_below_by_definition` is
exponential, and it is gated behind an explicit resource bound instead of
silently sampling.

The well-below relation implemented here is the strong one: ``a`` is well
below ``b`` when every family whose join dominates ``b`` already contains a
single member dominating ``a``.  It is decided by a closed form valid in any
complete lattice, and the test suite replays the quantifier-over-families
definition verbatim on small carriers to pin the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .errors import ContractError, InputError, ParseError, ResourceBoundError
from .errors import _known, _lines

__all__ = [
    "FinitePreorder",
    "FinitePoset",
    "FiniteQuantale",
    "QuantaleLawReport",
    "well_below",
    "well_below_by_definition",
    "raney_check",
    "vdl_check",
    "check_quantale_laws",
    "meet_quantale",
    "make_example",
    "is_isotone",
    "LatticeFile",
    "parse_lattice",
]


def _closure(rows: list[int]) -> list[int]:
    """The reflexive-transitive closure of the relation whose bit rows are
    ``rows`` (bit j of ``rows[i]`` for i related to j): the diagonal added,
    then one Warshall pass, which lets paths run through element k at
    step k (Warshall, "A theorem on Boolean matrices", JACM 1962)."""
    up = [row | 1 << i for i, row in enumerate(rows)]
    for k, row_k in enumerate(up):
        bit = 1 << k
        for i, row in enumerate(up):
            if row & bit:
                up[i] = row | row_k
    return up


class FinitePreorder:
    """A reflexive, transitive relation on named elements.

    The constructor takes generating pairs and closes them under
    reflexivity and transitivity.  Use :class:`FinitePoset` when
    antisymmetry is part of the contract.
    """

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise InputError("duplicate element names")
        idx = {e: i for i, e in enumerate(elems)}
        up = [0] * len(elems)
        for a, b in pairs:
            if a not in idx:
                raise InputError(f"unknown element {a!r}")
            if b not in idx:
                raise InputError(f"unknown element {b!r}")
            up[idx[a]] |= 1 << idx[b]
        self.elements: tuple[str, ...] = elems
        self._idx = idx
        self._up = _closure(up)  # up[i] = bit row of everything above element i

    def _i(self, a: str) -> int:
        try:
            return self._idx[a]
        except KeyError:
            raise InputError(f"unknown element {a!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self._i(a)] >> self._i(b) & 1)

    def pairs(self) -> frozenset[tuple[str, str]]:
        out = set()
        for i, a in enumerate(self.elements):
            row = self._up[i]
            for j, b in enumerate(self.elements):
                if row >> j & 1:
                    out.add((a, b))
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePreorder):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._up)))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {len(self.elements)} elements>"


class FinitePoset(FinitePreorder):
    """A finite partial order, with joins and meets where they exist."""

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        super().__init__(elements, pairs)
        n = len(self.elements)
        up = self._up
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    raise InputError(
                        f"not antisymmetric: {self.elements[i]} and {self.elements[j]}"
                    )
        down = [0] * n
        for i in range(n):
            row = up[i]
            j = 0
            while row:
                if row & 1:
                    down[j] |= 1 << i
                row >>= 1
                j += 1
        self._down = down  # down[j] = bit row of everything below element j
        self._jt: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        self._mt: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self._jt[i][j] = _extremum(up[i] & up[j], up)
                self._mt[i][j] = _extremum(down[i] & down[j], down)

    def join(self, a: str, b: str) -> Optional[str]:
        k = self._jt[self._i(a)][self._i(b)]
        return None if k is None else self.elements[k]

    def meet(self, a: str, b: str) -> Optional[str]:
        k = self._mt[self._i(a)][self._i(b)]
        return None if k is None else self.elements[k]

    def is_lattice(self) -> bool:
        n = len(self.elements)
        if n == 0:
            return False
        return all(
            self._jt[i][j] is not None and self._mt[i][j] is not None
            for i in range(n)
            for j in range(n)
        )

    def bottom(self) -> Optional[str]:
        k = _extremum((1 << len(self.elements)) - 1, self._up)
        return None if k is None else self.elements[k]

    def top(self) -> Optional[str]:
        k = _extremum((1 << len(self.elements)) - 1, self._down)
        return None if k is None else self.elements[k]

    def join_all(self, items: Iterable[str]) -> Optional[str]:
        """Join of an arbitrary finite family; the empty join is the bottom."""
        acc = self.bottom()
        for x in items:
            if acc is None:
                return None
            acc = self.join(acc, x)
        return acc


def _extremum(candidates: int, rows: list[int]) -> Optional[int]:
    # The member of the candidate set lying under all candidates (w.r.t. the
    # relation whose bit rows are given).  With `rows = up` this is the least
    # candidate; with `rows = down` the greatest.
    m = candidates
    while m:
        k = (m & -m).bit_length() - 1
        m &= m - 1
        if rows[k] & candidates == candidates:
            return k
    return None


def _poset_of(x: Union[FinitePoset, "FiniteQuantale"]) -> FinitePoset:
    return x.poset if isinstance(x, FiniteQuantale) else x


class FiniteQuantale:
    """A finite complete lattice carrying a binary operation.

    Construction checks structure only: the order must be a lattice and the
    operation total with in-carrier results.  Whether the operation actually
    satisfies associativity or distributivity is decided separately by
    :func:`check_quantale_laws`, so deliberately broken examples remain
    constructible.
    """

    def __init__(
        self,
        poset: FinitePoset,
        op: Mapping[tuple[str, str], str],
        unit: Optional[str] = None,
    ):
        if not poset.is_lattice():
            raise InputError("order is not a lattice")
        elems = set(poset.elements)
        table = {}
        for a in poset.elements:
            for b in poset.elements:
                try:
                    c = op[(a, b)]
                except KeyError:
                    raise InputError(f"operation table missing pair ({a}, {b})") from None
                if c not in elems:
                    raise InputError(f"operation result {c!r} is not an element")
                table[(a, b)] = c
        if unit is not None and unit not in elems:
            raise InputError(f"unit {unit!r} is not an element")
        self.poset = poset
        self.unit = unit
        self._mul = table

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def mul(self, a: str, b: str) -> str:
        try:
            return self._mul[(a, b)]
        except KeyError:
            raise InputError(f"unknown pair ({a}, {b})") from None

    def __repr__(self) -> str:
        return f"<FiniteQuantale on {len(self.elements)} elements>"


# ---------------------------------------------------------------------------
# The well-below relation.


def well_below(lattice: Union[FinitePoset, FiniteQuantale], a: str, b: str) -> bool:
    """Whether every family whose join dominates ``b`` contains a member
    dominating ``a``.

    Closed form: join everything that fails to dominate ``a`` and check that
    ``b`` escapes the result.  If ``b`` is under that join, that very family
    is a counterexample; if not, any family avoiding members above ``a``
    has its join under it, so cannot reach ``b``.
    """
    p = _poset_of(lattice)
    return not p.leq(b, _blocker_join(p, a))


def _blocker_join(p: FinitePoset, a: str) -> str:
    """The join of the elements that do not dominate ``a``: the ``b`` that
    ``a`` is well below are those that escape it (:func:`well_below`)."""
    j = p.join_all([s for s in p.elements if not p.leq(a, s)])
    if j is None:
        raise InputError("order is not a lattice")
    return j


def well_below_by_definition(
    lattice: Union[FinitePoset, FiniteQuantale], a: str, b: str
) -> bool:
    """The quantifier-over-all-families reading, verbatim.  Exponential in
    the carrier, so only available on small lattices; exists to validate
    :func:`well_below`."""
    p = _poset_of(lattice)
    n = len(p.elements)
    if n > 8:
        raise ResourceBoundError(
            f"all-families oracle needs 2^{n} joins; carrier limit is 8"
        )
    bot = p.bottom()
    if bot is None:
        raise InputError("order is not a lattice")
    joins = [bot] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        j = p.join(joins[mask ^ (1 << low)], p.elements[low])
        if j is None:
            raise InputError("order is not a lattice")
        joins[mask] = j
    for mask in range(1 << n):
        if not p.leq(b, joins[mask]):
            continue
        if not any(
            mask >> i & 1 and p.leq(a, p.elements[i]) for i in range(n)
        ):
            return False
    return True


def raney_check(lattice: Union[FinitePoset, FiniteQuantale]) -> bool:
    """Every element must be the join of the elements well below it.

    Quadratic: each element's blocker join (:func:`well_below`) is built
    once, and ``a`` is well below ``b`` iff ``b`` escapes it."""
    p = _poset_of(lattice)
    blocks = [(a, _blocker_join(p, a)) for a in p.elements]
    return all(p.join_all([a for a, j in blocks if not p.leq(b, j)]) == b for b in p.elements)


def vdl_check(lattice: Union[FinitePoset, FiniteQuantale]) -> dict[str, bool]:
    """The three lattice-side conditions a value carrier must satisfy:
    the approximation property, a nontrivial top, and join stability of the
    elements well below the top."""
    p = _poset_of(lattice)
    top = p.top()
    bot = p.bottom()
    if top is None or bot is None:
        raise InputError("order is not a lattice")
    vdl1 = well_below(p, bot, top)
    if vdl1 != (len(p.elements) >= 2):
        # bottom is well below top exactly when they differ; anything else
        # means the closed form is broken
        raise ContractError("nontriviality check disagrees with carrier size")
    near_top = {i for i, a in enumerate(p.elements) if well_below(p, a, top)}
    vdl2 = all(p._jt[x][y] in near_top for x in near_top for y in near_top)
    return {"raney": raney_check(p), "vdl1": vdl1, "vdl2": vdl2}


# ---------------------------------------------------------------------------
# Quantale laws.


@dataclass(frozen=True)
class QuantaleLawReport:
    semigroup: bool
    left_dist: bool
    right_dist: bool
    commutative: bool
    unital: bool
    integral: bool
    value_quantale: bool
    unit: Optional[str] = None


def check_quantale_laws(q: FiniteQuantale) -> QuantaleLawReport:
    """Exhaustive law check: associativity on all triples, distributivity,
    unit search, and the value classification.

    Distributivity asks each row ``a * -`` (left) and each column ``- * a``
    (right) to preserve every join, the empty one included.  On a finite
    lattice every join is an iterated binary join, so that holds exactly
    when the map sends the bottom to the bottom and keeps each binary join
    (Davey and Priestley, *Introduction to Lattices and Order*, 2002, §2);
    the check is cubic in the carrier.
    """
    p = q.poset
    n = len(p.elements)
    idx = {e: i for i, e in enumerate(p.elements)}
    mul = [[idx[q.mul(a, b)] for b in p.elements] for a in p.elements]
    jt = p._jt
    bot = idx[p.bottom()]

    semigroup = all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    commutative = all(mul[a][b] == mul[b][a] for a in range(n) for b in range(n))

    def keeps_joins(f: list[int]) -> bool:
        return f[bot] == bot and all(
            f[jt[x][y]] == jt[f[x]][f[y]] for x in range(n) for y in range(n)
        )

    left_dist = all(keeps_joins(mul[a]) for a in range(n))
    right_dist = all(keeps_joins([row[a] for row in mul]) for a in range(n))

    unit = None
    for u in [idx[q.unit]] if q.unit is not None else range(n):
        if all(mul[u][a] == a == mul[a][u] for a in range(n)):
            unit = p.elements[u]
            break
    unital = unit is not None
    integral = unital and unit == p.top()

    if unital and integral and left_dist and right_dist:
        # distributivity makes the operation monotone, and with a top unit
        # every product must sit under both factors; failure here would mean
        # the checks above contradict each other
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                if not (p._up[ab] >> a & 1 and p._up[ab] >> b & 1):
                    raise ContractError(
                        "product escapes its factors in an integral quantale"
                    )

    v = vdl_check(p)
    value_quantale = (
        semigroup
        and left_dist
        and right_dist
        and v["raney"]
        and v["vdl1"]
        and v["vdl2"]
    )
    return QuantaleLawReport(
        semigroup=semigroup,
        left_dist=left_dist,
        right_dist=right_dist,
        commutative=commutative,
        unital=unital,
        integral=integral,
        value_quantale=value_quantale,
        unit=unit,
    )


# ---------------------------------------------------------------------------
# Ready-made examples.


def meet_quantale(poset: FinitePoset) -> FiniteQuantale:
    """The lattice itself as a quantale: multiplication is the meet, the
    unit is the top."""
    if not poset.is_lattice():
        raise InputError("order is not a lattice")
    op = {
        (a, b): poset.meet(a, b) for a in poset.elements for b in poset.elements
    }
    return FiniteQuantale(poset, op, unit=poset.top())


def _chain_poset(n: int) -> FinitePoset:
    elems = [str(i) for i in range(n)]
    pairs = [(str(i), str(i + 1)) for i in range(n - 1)]
    return FinitePoset(elems, pairs)


def _powerset_poset(n: int) -> FinitePoset:
    def name(bits: int) -> str:
        members = [str(i + 1) for i in range(n) if bits >> i & 1]
        return "{" + ",".join(members) + "}"

    masks = list(range(1 << n))
    elems = [name(m) for m in masks]
    pairs = [
        (name(a), name(b)) for a in masks for b in masks if a & b == a
    ]
    return FinitePoset(elems, pairs)


def make_example(kind: str, n: Optional[int] = None) -> FiniteQuantale:
    """Stock meet quantales: ``two``, ``chain`` (needs n <= 64), ``powerset``
    (needs n <= 5), and ``diamond`` (the five-element non-distributive
    lattice with three incomparable middles)."""
    if kind == "two":
        return meet_quantale(_chain_poset(2))
    if kind == "chain":
        if n is None or not 1 <= n <= 64:
            raise InputError("chain needs a length n with 1 <= n <= 64")
        return meet_quantale(_chain_poset(n))
    if kind == "powerset":
        if n is None or not 0 <= n <= 5:
            raise InputError("powerset needs a ground size n with 0 <= n <= 5")
        return meet_quantale(_powerset_poset(n))
    if kind == "diamond":
        poset = FinitePoset(
            ["bot", "a", "b", "c", "top"],
            [
                ("bot", "a"),
                ("bot", "b"),
                ("bot", "c"),
                ("a", "top"),
                ("b", "top"),
                ("c", "top"),
            ],
        )
        return meet_quantale(poset)
    raise InputError(f"unknown example kind {kind!r}")


def is_isotone(
    src: FinitePreorder, dst: FinitePreorder, f: Mapping[str, str]
) -> bool:
    """Whether ``f`` preserves the order from ``src`` to ``dst``."""
    for x in src.elements:
        if x not in f:
            raise InputError(f"map is missing element {x!r}")
        if f[x] not in dst._idx:
            raise InputError(f"map target {f[x]!r} is not an element")
    return all(dst.leq(f[a], f[b]) for a, b in src.pairs())


# ---------------------------------------------------------------------------
# The lattice file format.

@dataclass(frozen=True)
class LatticeFile:
    """Parsed contents of a lattice description file."""

    poset: FinitePoset
    op: Optional[dict[tuple[str, str], str]]
    unit: Optional[str]

    def quantale(self) -> FiniteQuantale:
        if self.op is None:
            raise InputError("file has no operation table")
        return FiniteQuantale(self.poset, self.op, unit=self.unit)


def parse_lattice(text: str) -> LatticeFile:
    """Parse the line-oriented lattice format.

    Directives: ``elem <id>``, ``leq <a> <b>``, ``op <a> <b> <result>``,
    ``unit <id>``.  ``#`` starts a comment.  Elements must be declared
    before use; the order is closed reflexively and transitively, and a
    cycle between distinct elements is a parse error.
    """
    elements: dict[str, None] = {}
    pairs: list[tuple[str, str]] = []
    op: dict[tuple[str, str], str] = {}
    unit: Optional[str] = None
    last_leq_line = 1

    for lineno, _body, tokens in _lines(text):
        head, head_col = tokens[0]
        args = tokens[1:]

        def need(count: int):
            if len(args) != count:
                raise ParseError(
                    f"'{head}' takes {count} argument(s), got {len(args)}",
                    lineno,
                    head_col,
                )

        def known(token: tuple[str, int]) -> str:
            return _known(elements, token, lineno, "element")

        if head == "elem":
            need(1)
            name, col = args[0]
            if name in elements:
                raise ParseError(f"duplicate element {name!r}", lineno, col)
            elements[name] = None
        elif head == "leq":
            need(2)
            a = known(args[0])
            b = known(args[1])
            pairs.append((a, b))
            last_leq_line = lineno
        elif head == "op":
            need(3)
            a = known(args[0])
            b = known(args[1])
            c = known(args[2])
            if (a, b) in op:
                raise ParseError(f"duplicate op entry for ({a}, {b})", lineno, head_col)
            op[(a, b)] = c
        elif head == "unit":
            need(1)
            if unit is not None:
                raise ParseError("duplicate unit directive", lineno, head_col)
            unit = known(args[0])
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, head_col)

    try:
        poset = FinitePoset(elements, pairs)
    except InputError as exc:
        raise ParseError(str(exc), last_leq_line, 1) from None
    return LatticeFile(poset=poset, op=op or None, unit=unit)
