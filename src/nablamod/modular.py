"""Finite parameterized distance spaces over the step-function carrier.

A space here is a finite point set with a distance function w(x, y) valued
in non-increasing step functions of the parameter.  The axioms (vanishing
diagonal, split triangle inequality, separation, symmetry) are checked
exactly; the entourage base is checked on a finite candidate grid of
parameters that provably suffices for step-valued distances, and the induced
topology and the continuity grades are read off its finest member.

Two carriers are supported: :class:`StepModularSpace` with explicit step
functions, and :class:`ScaledModularSpace` where w(t, x, y) = d(x, y) / t
for a plain rational distance d, kept symbolic so its checks stay exact.

Both carriers, and the category classes of :mod:`nablamod.qcat`, are thin
subclasses of one table core, :class:`_Table`.  Its constructor validates
structure only (totality, value sanity), never the axioms: deliberately
broken spaces must remain constructible so the checkers have something to
report on.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product
from math import isqrt
from operator import lt
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ContractError, InputError, ParseError, ResourceBoundError
from .errors import _read_table, _write_table
from .quantale_lab import _closure
from .stepfn import (
    BOTTOM,
    ZERO,
    _atoms,
    _below_conv,
    _finite_values,
    _from_ints,
    _int_table,
    _le,
    _left_regular,
    _probe,
    _sweep,
    _to_ints,
    ExtRational,
    RationalLike,
    StepFunction,
    as_fraction,
    eval_at,
    ext,
    format_step_literal,
    oplus,  # not called here; bench/test_bench.py checks its tracer wraps this binding
    parse_step_literal,
    random_step,
    scale_values,
    time_rescale,
)

__all__ = [
    "StepModularSpace",
    "ScaledModularSpace",
    "standard_modular",
    "from_gauge",
    "AxiomReport",
    "check_axioms",
    "chistyakov_example",
    "regularize",
    "triangle_closure",
    "random_closed_space",
    "random_scaled_space",
    "random_point_map",
    "candidate_parameters",
    "neighborhood",
    "entourage",
    "FiniteTopology",
    "topology",
    "metric_ball_topology",
    "isolated_points",
    "induced_distance",
    "scaled_induced_distance",
    "QuasiUniformityReport",
    "check_quasi_uniformity_base",
    "PointMap",
    "is_nonexpansive",
    "nonexpansive_violation",
    "is_lipschitz",
    "is_strongly_uniformly_continuous",
    "is_uniformly_continuous",
    "scaled_lipschitz_classic",
    "scaled_lipschitz_modular",
    "scaled_strongly_uniformly_continuous",
    "parse_space",
    "format_space",
]


class _Table:
    """A finite point set with one validated entry per ordered pair.

    A space and its enriched category are the same data, a table indexed by
    pairs of points, so every table class shares this core: point checks,
    totality, the diagonal default and the unknown-pair lookup.  A subclass
    names its entries (``_noun``), sets the diagonal default
    (``_diagonal``), checks each given value (``_value``) and binds its
    accessor (``w``, ``d`` or ``hom``) to :meth:`_entry`.
    """

    _noun = "distance"
    _members = "points"
    _diagonal: object = ZERO

    def __init__(self, points: Iterable[str], table: Mapping[tuple[str, str], object]):
        pts = tuple(points)
        known = set(pts)
        if not pts:
            raise InputError("a space needs at least one point")
        if len(known) != len(pts):
            raise InputError("duplicate point names")
        checked: dict[tuple[str, str], object] = {}
        for (a, b), v in table.items():
            if a not in known or b not in known:
                raise InputError(f"{self._noun} given for unknown pair ({a}, {b})")
            checked[(a, b)] = self._value(a, b, v)
        for a in pts:
            checked.setdefault((a, a), self._diagonal)
            for b in pts:
                if (a, b) not in checked:
                    raise InputError(f"missing {self._noun} for pair ({a}, {b})")
        self.points = pts
        self._table = checked

    def _value(self, a: str, b: str, v: object) -> object:
        """The entry kept for ``(a, b)``: a step function unless overridden."""
        if not isinstance(v, StepFunction):
            raise InputError(f"{self._noun} for ({a}, {b}) is not a step function")
        return v

    def _entry(self, x: str, y: str):
        try:
            return self._table[(x, y)]
        except KeyError:
            raise InputError(f"unknown pair ({x}, {y})") from None

    _ints: Optional[tuple[int, int, list[list]]] = None
    _form: Optional["_SlotForm"] = None

    # Both forms are kept for the object's lifetime and never go stale: _Table
    # has no mutator, step functions are immutable and callers never mutate
    # the lists.  A space and its e_mod are one table (:meth:`_as`), and a
    # table derived by a kernel is kept in integer form (:meth:`_of_form`).

    def _as(self, cls: type) -> "_Table":
        """This table as a ``cls`` with the same :meth:`_value`: the same
        points, entry dict and forms built so far, not copied or validated."""
        other = object.__new__(cls)
        vars(other).update(vars(self))
        return other

    @classmethod
    def _of_form(cls, points: tuple[str, ...], form: tuple[int, int, list[list]]) -> "_Table":
        """The step table of kernel output in integer form, canonical so not
        validated; its step functions are built on first use (:attr:`_table`)."""
        table = object.__new__(cls)
        vars(table).update(points=points, _ints=form)
        return table

    @cached_property
    def _table(self) -> dict[tuple[str, str], object]:
        """The entries of a table made by :meth:`_of_form`, from its integer
        form by one :func:`stepfn._from_ints`; ``__init__`` sets its own."""
        p_scale, v_scale, tbl = self._ints
        back = _from_ints([f for row in tbl for f in row], p_scale, v_scale)
        return dict(zip(product(self.points, self.points), back))

    def _int_form(self) -> tuple[int, int, list[list]]:
        """The table on one pair of integer scales: :func:`_int_table`, built
        on first use, or the kernel output a derived table (:func:`regularize`,
        :func:`triangle_closure`, on its input's scales) was made from."""
        if self._ints is None:
            self._ints = _int_table(self.points, self._entry)
        return self._ints

    def _slot_form(self) -> "_SlotForm":
        """The :class:`_SlotForm` of a step table, built on first use from
        its integer form."""
        if self._form is None:
            self._form = _build_slot_form(*self._int_form())
        return self._form

    def all_homs(self) -> Iterable:
        return self._table.values()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.points == other.points and self._table == other._table

    def __hash__(self) -> int:
        return hash((self.points, frozenset(self._table.items())))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {len(self.points)} {self._members}>"


class StepModularSpace(_Table):
    """A finite point set with step-function distances.

    The table must cover every ordered pair of distinct points; diagonal
    entries default to the zero function but may be overridden (including
    with nonzero values, which the axiom checker will then flag).
    """

    w = _Table._entry


class ScaledModularSpace(_Table):
    """Distances of the shape w(t, x, y) = d(x, y) / t, held symbolically.

    ``d`` is a plain nonnegative rational per ordered pair.  Nothing about
    ``d`` being a quasi-pseudometric is enforced here; use
    :func:`standard_modular` for the validating constructor.
    """

    _diagonal = Fraction(0)
    d = _Table._entry

    def _value(self, a: str, b: str, v: RationalLike) -> Fraction:
        val = as_fraction(v)
        if val < 0:
            raise InputError(f"negative distance for ({a}, {b})")
        return val

    def w_at(self, t: RationalLike, x: str, y: str) -> ExtRational:
        t_f = as_fraction(t)
        if t_f <= 0:
            raise InputError(f"parameter must be positive, got {t_f}")
        return ExtRational(self.d(x, y) / t_f)


Space = Union[StepModularSpace, ScaledModularSpace]


def standard_modular(
    points: Iterable[str], d: Mapping[tuple[str, str], RationalLike]
) -> ScaledModularSpace:
    """Build the w = d/t space from a quasi-pseudometric, rejecting input
    that is not one (nonzero diagonal or a broken triangle inequality)."""
    space = ScaledModularSpace(points, d)
    for x in space.points:
        if space.d(x, x) != 0:
            raise InputError(f"nonzero self-distance at {x}")
    for x in space.points:
        for y in space.points:
            for z in space.points:
                if space.d(x, z) > space.d(x, y) + space.d(y, z):
                    raise InputError(
                        f"triangle inequality fails on ({x}, {y}, {z})"
                    )
    return space


def from_gauge(
    points: Iterable[str],
    d: Mapping[tuple[str, str], RationalLike],
    gauge: StepFunction,
) -> StepModularSpace:
    """The space w(x, y) = d(x, y) * gauge, for a quasi-pseudometric d.

    Since the gauge is non-increasing, the split triangle inequality is
    inherited from the plain triangle inequality of d, which is validated
    here.  The 0 * inf convention makes the diagonal collapse to zero even
    when the gauge starts at infinity.
    """
    base = standard_modular(points, d)
    table = {
        (x, y): scale_values(gauge, base.d(x, y))
        for x in base.points
        for y in base.points
    }
    return StepModularSpace(base.points, table)


# ---------------------------------------------------------------------------
# Axioms.


@dataclass(frozen=True)
class AxiomReport:
    m1: bool
    m2: bool
    m3: bool
    m4: bool
    left_continuous: bool


def _table_axioms(table: _Table) -> tuple[bool, bool, bool, bool, bool]:
    """Vanishing diagonal, split triangle inequality (``w(x, z)`` pointwise
    at most ``oplus_interior(w(x, y), w(y, z))``), separation, symmetry and
    left continuity of a step table; read as a category, the first four are
    qc1, qc2, separated and symmetric.

    All five read the table's integer form (:meth:`_Table._int_form`).  Its
    entries are canonical, so m1, m3 and m4 compare them with ``(0, ())``
    (``ZERO`` on every scale) and with their transposes, and an entry is
    left-continuous when it is its own :func:`stepfn._left_regular`.

    The quantale is integral (its unit, the zero function, is its top), so
    ``a * b <= a * top = a`` in its order: a convolution is pointwise at
    least either leg.  A triple whose target lies pointwise under a leg holds
    without convolving; that decides every triple with x == y or y == z.
    Every other triple is tested against the convolution of its legs without
    building it (:func:`stepfn._below_conv`), from each entry's atoms and
    probe, both built once per table; no convolution is built here."""
    tbl = table._int_form()[2]
    n = len(tbl)
    atoms = [[_atoms(f, False) for f in row] for row in tbl]
    probes = [[_probe(f) for f in row] for row in tbl]
    m1 = all(tbl[i][i] == (0, ()) for i in range(n))
    m2 = all(
        _le(a, c) or _le(b, c) or _below_conv(probes[i][k], atoms[i][j], atoms[j][k])
        for i, row in enumerate(tbl)
        for j, a in enumerate(row)
        if j != i
        for k, (b, c) in enumerate(zip(tbl[j], row))
        if k != j
    )
    m3 = not any(tbl[i][j] == (0, ()) == tbl[j][i] for i in range(n) for j in range(i))
    m4 = all(tbl[i][j] == tbl[j][i] for i in range(n) for j in range(i))
    lc = all(f == _left_regular(f) for row in tbl for f in row)
    return m1, m2, m3, m4, lc


def _is_symmetric(pts: tuple[str, ...], w) -> bool:
    """Whether the table ``w`` on ``pts`` has ``w(x, y) == w(y, x)`` throughout."""
    return all(w(x, y) == w(y, x) for x in pts for y in pts)


def _scaled_axioms(space: ScaledModularSpace) -> AxiomReport:
    pts, d = space.points, space.d
    m1 = all(d(x, x) == 0 for x in pts)

    def split(x: str, y: str, z: str) -> bool:
        # The best split of t between the two legs yields the bound
        # (sqrt(d1) + sqrt(d2))^2; comparing against it without radicals:
        # gap <= 0 outright, or gap^2 <= 4 d1 d2.
        d1, d2 = d(x, y), d(y, z)
        gap = d(x, z) - d1 - d2
        return gap <= 0 or gap * gap <= 4 * d1 * d2

    m2 = all(split(x, y, z) for x in pts for y in pts for z in pts)
    m3 = all(d(x, y) > 0 or d(y, x) > 0 for x in pts for y in pts if x != y)
    m4 = _is_symmetric(pts, d)
    return AxiomReport(m1=m1, m2=m2, m3=m3, m4=m4, left_continuous=True)


def check_axioms(space: Space) -> AxiomReport:
    """Check the distance axioms exactly.

    The split triangle inequality is the strict-split one: w(x, z) at t + s
    must stay under w(x, y) at t plus w(y, z) at s for strictly positive
    t and s.  That form tolerates left jumps at cut points, which the
    classical examples rely on.
    """
    if isinstance(space, ScaledModularSpace):
        return _scaled_axioms(space)
    return AxiomReport(*_table_axioms(space))


# ---------------------------------------------------------------------------
# Stock examples and constructions.


def chistyakov_example(n: int) -> StepModularSpace:
    """The classical two-plus-family space showing the split triangle
    inequality can hold while left continuity fails.

    Points x, y, z1..zn.  All distances are 1-ish on (0, 1) and drop to 0
    from 1 on, except w(x, zk), which keeps the value 1 at the parameter 1
    itself; that left jump is the whole point of the example.
    """
    if not 1 <= n <= 200:
        raise InputError("family size must be between 1 and 200")
    drop_at_one = StepFunction(1, [(1, 0, 0)])
    keep_at_one = StepFunction(1, [(1, 1, 0)])
    pts = ["x", "y"] + [f"z{k}" for k in range(1, n + 1)]
    w: dict[tuple[str, str], StepFunction] = {}
    w[("x", "y")] = w[("y", "x")] = drop_at_one
    for k in range(1, n + 1):
        zk = f"z{k}"
        w[("x", zk)] = w[(zk, "x")] = keep_at_one
        small = StepFunction(Fraction(1, k), [(1, 0, 0)])
        w[("y", zk)] = w[(zk, "y")] = small
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j != k:
                v = StepFunction(Fraction(1, min(j, k)), [(1, 0, 0)])
                w[(f"z{j}", f"z{k}")] = v
    return StepModularSpace(pts, w)


def regularize(space: Space) -> Space:
    """Left-regularize every entry of a step table into a new table of its
    class, in integer form, by one :func:`stepfn._left_regular` pass.  Scaled
    spaces are already continuous in the parameter, so they pass through;
    any other table (a finite category, an extended metric) is refused."""
    if isinstance(space, ScaledModularSpace):
        return space
    if not all(isinstance(f, StepFunction) for f in space.all_homs()):
        raise InputError(f"{type(space).__name__} has no step entries to regularize")
    p_scale, v_scale, tbl = space._int_form()
    regular = [[_left_regular(f) for f in row] for row in tbl]
    return type(space)._of_form(space.points, (p_scale, v_scale, regular))


def triangle_closure(space: StepModularSpace) -> StepModularSpace:
    """Close the table under path composition with the boundary-inclusive
    convolution :func:`oplus`, by all-pairs relaxation: wherever
    ``oplus(w(i, k), w(k, j))`` is somewhere smaller than ``w(i, j)``,
    replace ``w(i, j)`` by their pointwise minimum.

    The result is pointwise at most the given table and satisfies the split
    triangle inequality (pointwise, ``oplus`` never exceeds
    ``oplus_interior``).  It is not always the pointwise largest such table:
    closing under ``oplus_interior`` instead keeps larger ``at`` values at
    left jumps.  The whole relaxation runs on the table's integer form, with
    each entry's atoms built once and rebuilt only when the entry is relaxed.
    Each relaxation is one sweep with the entry's own atoms as its floor
    (:func:`stepfn._sweep`): it builds the pointwise minimum of the entry and
    the convolution directly, in canonical form, so the entry is relaxed
    exactly when that minimum differs from it.
    The result is kept as the relaxed table, on the input's scales
    (:meth:`_Table._of_form`), which the axiom check reads.

    Requires a vanishing diagonal; with it, the relaxed table keeps the
    diagonal at zero and dominates no entry it started with.

    By integrality (see :func:`_table_axioms`), no convolution runs for an
    entry already pointwise under ``w(i, k)`` or ``w(k, j)``, nor for the
    diagonal, which is the top.
    """
    pts = space.points
    p_scale, v_scale, given = space._int_form()
    for i, x in enumerate(pts):
        if given[i][i] != (0, ()):  # ZERO
            raise InputError(f"nonzero self-distance at {x}; closure undefined")
    n = len(pts)
    tbl = [row[:] for row in given]
    atoms = [[_atoms(f, True) for f in row] for row in tbl]
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            left, left_atoms = tbl[i][k], atoms[i][k]
            for j in range(n):
                if j == k or j == i:
                    continue
                right, cur = tbl[k][j], tbl[i][j]
                if _le(left, cur) or _le(right, cur):
                    continue
                new = _sweep(left_atoms, atoms[k][j], atoms[i][j])
                if new != cur:
                    tbl[i][j] = new
                    atoms[i][j] = _atoms(new, True)
    return StepModularSpace._of_form(pts, (p_scale, v_scale, tbl))


def random_closed_space(rng: random.Random, n_points: int) -> StepModularSpace:
    """A random space with vanishing diagonal, closed under the triangle
    relaxation (so its axiom checks m1 and m2 always pass)."""
    if not 1 <= n_points <= 12:
        raise InputError("point count must be between 1 and 12")
    pts = [f"p{i}" for i in range(n_points)]
    w = {
        (a, b): random_step(rng) for a in pts for b in pts if a != b
    }
    return triangle_closure(StepModularSpace(pts, w))


def random_scaled_space(rng: random.Random, n_points: int) -> ScaledModularSpace:
    """A random quasi-pseudometric on the quarter grid, completed to satisfy
    the triangle inequality by min-plus relaxation."""
    if not 1 <= n_points <= 12:
        raise InputError("point count must be between 1 and 12")
    pts = [f"p{i}" for i in range(n_points)]
    d = {
        (a, b): Fraction(rng.randint(0, 16), 4)
        for a in pts
        for b in pts
        if a != b
    }
    for a in pts:
        d[(a, a)] = Fraction(0)
    for k in pts:
        for i in pts:
            for j in pts:
                via = d[(i, k)] + d[(k, j)]
                if via < d[(i, j)]:
                    d[(i, j)] = via
    return standard_modular(pts, d)


# ---------------------------------------------------------------------------
# Parameter candidates, neighborhoods, topologies.


def _midpoints(sorted_vals: list[Fraction]) -> list[Fraction]:
    return [
        (a + b) / 2 for a, b in zip(sorted_vals, sorted_vals[1:])
    ]


def _eps_candidates(pool: set[Fraction]) -> tuple[Fraction, ...]:
    """Midpoints between the consecutive values of ``pool`` (which holds 0)
    plus one value above them all."""
    sv = sorted(pool)
    return tuple(_midpoints(sv) + [sv[-1] + 1])


def candidate_parameters(space: Space) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The finite grid of (t, eps) pairs on which the entourages are read.

    Step tables (spaces, and categories with step homs): t runs over the
    pooled cut positions, the midpoints of the gaps between them (the gap
    below the first cut included, which is what captures behavior near
    parameter zero), and one value beyond the last cut.  eps runs over
    midpoints between consecutive attained finite values (zero included)
    plus one value above them all.  Between those probes no entourage can
    change, so the grid is exhaustive, not a sample.  Both lists come from
    the table's slot form (:class:`_SlotForm`), built once per table and
    kept, so the cut and value scans run once per table; the candidate t
    number s lies in slot s.

    Scaled spaces: t = 1 suffices (only the product t * eps matters), with
    eps probing between the attained plain distances.

    The least t lies below every cut and the least eps below every positive
    attained value, so the grid's finest entourage is the zero-head relation
    of :func:`_vanishes`.  The uniformity check and ``ball_topology`` read
    the whole grid, as one list of first eps indices per entry that covers
    every candidate t (:func:`_first_grids`); the topology and the
    continuity grades need only that finest member.
    """
    if isinstance(space, ScaledModularSpace):
        pool = {Fraction(0)}
        pool.update(space.d(x, y) for x in space.points for y in space.points)
        return (Fraction(1),), _eps_candidates(pool)
    return space._slot_form().candidates


class _SlotForm(NamedTuple):
    """A step table read on its candidate grid (:func:`candidate_parameters`).

    The pooled cut positions of all entries cut the parameters into slots:
    slot 0 is the open interval before the first cut, slot ``2c - 1`` is cut
    number c itself and slot ``2c`` the open interval after it, so every entry
    is constant on every slot, and candidate t number s lies in slot s.  The
    pool is 0 and the finite values the entries attain, ascending; candidate
    eps number k lies above pool[k] and below pool[k + 1], so a value's index
    in the pool is the index of the first candidate eps above it.

    ``first[i][j][s]`` is that index for entry (i, j)'s value on slot s, and
    the pool's length for infinity: (x_i, x_j) lies in U(t_s, eps_k) exactly
    when ``k >= first[i][j][s]``.  ``half_slot[s]`` is the slot of t_s / 2,
    and ``half_first[k]``, for a value with first index k, is the index of
    the first candidate eps whose half lies above it.  The form is read off
    the table's integer form (:meth:`_Table._int_form`), on its scales, and
    no verdict on the grid evaluates a step function.
    """

    first: list[list[list[int]]]
    half_slot: list[int]
    half_first: list[int]
    candidates: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _build_slot_form(p_scale: int, v_scale: int, tbl: list[list]) -> _SlotForm:
    """The slot form of a step table given in integer form (rows of
    :func:`_int_table` entries on the scales ``p_scale`` and ``v_scale``):
    each entry's cuts are merged into the pooled slots in one pass, and the
    halved grid is placed by integer bisections."""
    ints = [fi for row in tbl for fi in row]
    pos = sorted({p for _, cuts in ints for p, _, _ in cuts})
    pool = sorted(_finite_values(ints) | {0})
    slot_of = {p: 2 * c + 1 for c, p in enumerate(pos)}
    rank = {v: r for r, v in enumerate(pool)}
    rank[math.inf] = len(pool)
    width = 2 * len(pos) + 1

    def merge(fi) -> list[int]:
        head, cuts = fi
        out, cur = [], rank[head]
        for p, at, after in cuts:
            out += [cur] * (slot_of[p] - len(out))
            out.append(rank[at])
            cur = rank[after]
        out += [cur] * (width - len(out))
        return out

    # Twice each candidate on its scale: the midpoint of each gap is the sum
    # of its walls, then the cut closing it, then one beyond the last cut.
    if pos:
        t2 = [x for a, b in zip([0, *pos], pos) for x in (a + b, 2 * b)] + [2 * (pos[-1] + p_scale)]
    else:
        t2 = [2 * p_scale]
    eps2 = [a + b for a, b in zip(pool, pool[1:])] + [2 * (pool[-1] + v_scale)]
    # t / 2 against the cuts, both on 4 * p_scale: slot 2c, or 2c + 1 on cut c
    quad = [4 * p for p in pos]
    half_slot = []
    for x in t2:
        c = bisect_left(quad, x)
        half_slot.append(2 * c + (c < len(quad) and quad[c] == x))
    # v < eps / 2 exactly when 4 v < 2 eps, both on v_scale
    half_first = [bisect_right(eps2, 4 * v) for v in pool] + [len(pool)]
    return _SlotForm(
        [[merge(fi) for fi in row] for row in tbl],
        half_slot,
        half_first,
        (
            tuple(Fraction(x, 2 * p_scale) for x in t2),
            tuple(Fraction(e, 2 * v_scale) for e in eps2),
        ),
    )


def neighborhood(
    space: Space, x: str, t: RationalLike, eps: Union[RationalLike, ExtRational]
) -> frozenset[str]:
    """All points strictly within eps of x at parameter t."""
    t_f = as_fraction(t)
    if t_f <= 0:
        raise InputError(f"parameter must be positive, got {t_f}")
    e = ext(eps)
    if x not in space.points:
        raise InputError(f"unknown point {x!r}")
    if isinstance(space, ScaledModularSpace):
        return frozenset(y for y in space.points if space.w_at(t_f, x, y) < e)
    return frozenset(y for y in space.points if eval_at(space.w(x, y), t_f) < e)


def entourage(
    space: Space, t: RationalLike, eps: Union[RationalLike, ExtRational]
) -> frozenset[tuple[str, str]]:
    """The pair-set version of :func:`neighborhood`, built from every
    point's neighborhood."""
    return frozenset((x, y) for x in space.points for y in neighborhood(space, x, t, eps))


@dataclass(frozen=True)
class FiniteTopology:
    """An explicit family of open subsets of a finite point set.

    :func:`topology` always returns a topology.  :func:`metric_ball_topology`
    and :func:`nablamod.qcat.ball_topology` return the unions of their
    generators, which may fail :meth:`validate`: the first is a topology
    when the table has m1 and m2, the second when the table is also
    left-continuous.  So the family is kept explicitly."""

    points: tuple[str, ...]
    opens: frozenset[frozenset[str]]

    def validate(self) -> bool:
        """Whether the family really is a topology (empty set, full set,
        unions, intersections)."""
        full = frozenset(self.points)
        if frozenset() not in self.opens or full not in self.opens:
            return False
        for a in self.opens:
            for b in self.opens:
                if a | b not in self.opens or a & b not in self.opens:
                    return False
        return True

    def is_open(self, subset: Iterable[str]) -> bool:
        return frozenset(subset) in self.opens

    def is_discrete(self) -> bool:
        return all(frozenset([p]) in self.opens for p in self.points)


def _first_grids(space: Space) -> tuple[tuple, list, list]:
    """The candidate grid of a table (:func:`candidate_parameters`) and its
    entourages, as two lists per entry (i, j) over every candidate t at
    once: ``f[i][j][s]`` is the index of the first candidate eps e with
    w(t_s, x_i, x_j) < e, and ``h[i][j][s]`` the index of the first with
    w(t_s / 2, x_i, x_j) < e / 2, each the number of candidate eps if there
    is none.  U(t, e) grows in e, so (x_i, x_j) lies in U(t_s, eps_k)
    exactly when ``k >= f[i][j][s]``.

    A step table reads ``f`` off its slot form as it stands and maps ``h``
    through the form's halved slots and first indices; a scaled table places
    each d / t by one bisection per t."""
    t_cands, eps_cands = candidate_parameters(space)
    if isinstance(space, ScaledModularSpace):
        pts = space.points
        half_t, half_eps = [t / 2 for t in t_cands], [e / 2 for e in eps_cands]
        d = [[space.d(a, b) for b in pts] for a in pts]
        f, h = [
            [[[bisect_right(es, v / t) for t in ts] for v in row] for row in d]
            for ts, es in ((t_cands, eps_cands), (half_t, half_eps))
        ]
        return (t_cands, eps_cands), f, h
    form = space._slot_form()
    at_half, hf = form.half_slot, form.half_first.__getitem__
    h = [[list(map(hf, map(r.__getitem__, at_half))) for r in row] for row in form.first]
    return form.candidates, form.first, h


def _vanishes(space: Space, x: str, y: str) -> bool:
    """Whether (x, y) lies in the finest grid entourage U(min t, min eps):
    the head of w(x, y) is 0 (for a scaled table, d(x, y) = 0).

    Every step function is non-increasing, and so is d / t, so U(t, eps)
    grows in t and in eps and every grid entourage contains this one.  The
    least candidate t lies below every cut, where each entry takes its head,
    and the least candidate eps lies below every positive attained value, so
    only a zero head is below it."""
    if isinstance(space, ScaledModularSpace):
        return space.d(x, y) == 0
    return space.w(x, y).head == ZERO.head


def _neighborhood_masks(space: Space) -> list[int]:
    """For each point (by index), its inclusion-minimal candidate
    neighborhood as a bit mask.  There is exactly one: the point's row of
    the finest grid entourage (:func:`_vanishes`), which every candidate
    neighborhood contains.  O(n^2), no grid."""
    pts = space.points
    return [sum(1 << j for j, y in enumerate(pts) if _vanishes(space, x, y)) for x in pts]


def _gate(space: Space, max_points: int) -> None:
    if len(space.points) > max_points:
        raise ResourceBoundError(
            f"topology enumeration over {len(space.points)} points exceeds the "
            f"limit of {max_points}"
        )


def _unions(points: tuple[str, ...], gens: Iterable[int]) -> FiniteTopology:
    """All unions of the generator bit masks, the empty union included.

    Generators are taken smallest first; one already in the family is a
    union of earlier ones and adds nothing, so it is skipped."""
    fam = {0}
    for g in sorted(gens, key=int.bit_count):
        if g not in fam:
            fam |= {f | g for f in fam}
    n = len(points)
    opens = frozenset(
        frozenset(points[j] for j in range(n) if g >> j & 1) for g in fam
    )
    return FiniteTopology(points=points, opens=opens)


def _specialization(space: Space) -> list[int]:
    """The up-rows of the specialization preorder, as bit masks: the
    reflexive-transitive closure of the zero-head rows
    (:func:`_neighborhood_masks`), which on a table without m1 or m2 need
    not be reflexive or transitive."""
    return _closure(_neighborhood_masks(space))


def _presents(up: list[int], gens: Iterable[int]) -> bool:
    """Whether the unions of the generator masks are exactly the up-sets of
    the preorder with up-rows ``up``, without building either family.

    They are iff every generator is an up-set and every up-row a generator:
    then unions of generators are up-sets and up-sets unions of up-rows.
    Conversely each generator is a union, so an up-set, and up[i] is a union,
    so some generator holds i inside up[i], and that up-set contains up[i].
    Whether the unions form a topology does not matter."""
    fam, bits = set(gens), range(len(up))
    return set(up) <= fam and all(up[i] | g == g for g in fam for i in bits if g >> i & 1)


def topology(space: Space, *, max_points: int = 12) -> FiniteTopology:
    """The parameter topology: a set is open when every member has some
    candidate neighborhood (centered at itself) inside the set.

    Each point's zero-head row (:func:`_vanishes`) is its minimal candidate
    neighborhood, so the open sets are the up-sets of the specialization
    preorder (:func:`_specialization`): the unions of its up-rows."""
    _gate(space, max_points)
    return _unions(space.points, _specialization(space))


def metric_ball_topology(space: Space, *, max_points: int = 12) -> FiniteTopology:
    """The unions of the points' zero-head rows (:func:`_neighborhood_masks`,
    each point's minimal candidate neighborhood), the empty union included:
    a set is open when every member lies in some zero-head row (any center)
    contained in the set.  Other candidate neighborhoods are not used.  The
    family is a topology when the table has m1 and m2; otherwise it may fail
    :meth:`FiniteTopology.validate`."""
    _gate(space, max_points)
    return _unions(space.points, _neighborhood_masks(space))


def isolated_points(space: Space) -> frozenset[str]:
    """Points whose singleton is a candidate neighborhood of themselves.
    If all points qualify, both topologies are discrete; this builds no
    open set, so it scales to large families."""
    nb = _neighborhood_masks(space)
    return frozenset(p for i, p in enumerate(space.points) if 1 << i == nb[i])


# ---------------------------------------------------------------------------
# Induced plain distances.


def induced_distance(space: StepModularSpace) -> dict[tuple[str, str], ExtRational]:
    """The least parameter at which each distance has dropped to the
    parameter itself: inf of {t > 0 : w(t, x, y) <= t}.

    Computed exactly by one walk over the pieces of w(x, y), which stops at
    the first piece that meets the set.  Infinity when no parameter ever
    qualifies.
    """
    pts = space.points
    return {(x, y): _least_fixed_parameter(space.w(x, y)) for x in pts for y in pts}


def _least_fixed_parameter(f: StepFunction) -> ExtRational:
    # f is non-increasing, so {t : f(t) <= t} is an up-set: its infimum is
    # max(a, v) for the first open piece (a, b) of value v with v < b.  A cut
    # at b in the set needs no test of its own, since the piece after it
    # then meets the set too, with infimum b.
    a, v = ZERO.head, f.head
    for c in f.cuts:
        b = ExtRational(c.pos)
        if v < b:
            return max(a, v)
        a, v = b, c.after
    return max(a, v)  # the last piece (a, inf), never met when v is inf


def scaled_induced_distance(
    space: ScaledModularSpace, *, width: Fraction = Fraction(1, 2**30)
) -> dict[tuple[str, str], tuple[Fraction, Fraction]]:
    """The same least-parameter distance for scaled spaces, which is the
    square root of d.  Returned as an exact enclosure [lo, hi]: a point
    interval when the root is rational, otherwise bisected down to the
    requested width."""
    out = {}
    for x in space.points:
        for y in space.points:
            out[(x, y)] = _sqrt_enclosure(space.d(x, y), width)
    return out


def _sqrt_enclosure(d: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    if d == 0:
        return (Fraction(0), Fraction(0))
    p, q = d.numerator, d.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        r = Fraction(rp, rq)
        return (r, r)
    lo = Fraction(0)
    hi = max(d, Fraction(1))
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= d:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


# ---------------------------------------------------------------------------
# The entourage base.


@dataclass(frozen=True)
class QuasiUniformityReport:
    diagonal: bool
    refinement: bool
    composition: bool
    countable: bool
    symmetric: Optional[bool]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.diagonal and self.refinement and self.composition and self.countable


def check_quasi_uniformity_base(space: Space) -> QuasiUniformityReport:
    """Check that candidate entourages behave as a base for a quasi
    uniformity: they contain the diagonal, refine pairwise, compose into
    their doubles, and admit a countable cofinal chain; symmetry is
    reported when the space is symmetric and skipped otherwise.

    Only the diagonal and composition are swept over the grid.  The other
    three hold for every table the constructors admit, since every step
    function is non-increasing, and so is d / t:

    - refinement: U(t, eps) grows in t and in eps, so the grid member
      U(min t, min eps) lies inside any two grid entourages;
    - countable: for n0 with 1/n0 < min(t, eps), a pair of
      U(1/n0, 1/n0) has w(t) <= w(1/n0) < 1/n0 < eps, so it lies in
      U(t, eps);
    - symmetry: on a symmetric table every U(t, eps) = {(x, y) :
      w(t, x, y) < eps} is symmetric by definition.

    The diagonal and composition are read off the first index grids
    (:func:`_first_grids`), one list over the candidate t per entry: ``f``
    at t over the candidate eps, and ``h`` at t/2 over the halved eps, so
    that (i, j) lies in U(t_s, eps_k) exactly when ``k >= f[i][j][s]``, and
    in U(t_s/2, eps_k/2) exactly when ``k >= h[i][j][s]``.  The diagonal
    fails at (t_s, eps_k) exactly when ``k < f[i][i][s]``.  The squared half
    entourage holds (i, z) exactly when some j has both ``k >= h[i][j][s]``
    and ``k >= h[j][z][s]``, that is when ``k >= B(i, z)[s]`` for the
    bottleneck product ``B(i, z) = min_j max(h[i][j], h[j][z])``, taken
    elementwise over s; so composition fails at (t_s, eps_k) exactly when
    some (i, z) has ``B(i, z)[s] <= k < f[i][z][s]``.  The product runs over
    every t at once, with the lists of each row laid end to end across z,
    and the failing ranges are only collected where ``B < f`` somewhere.
    """
    (t_cands, eps_cands), f, h = _first_grids(space)
    pts = space.points
    n, nt = len(pts), len(t_cands)
    diagonal = []
    if any(any(f[i][i]) for i in range(n)):
        diagonal = [
            f"diagonal: ({x}, {x}) escapes U(t={t}, eps={eps})"
            for s, t in enumerate(t_cands)
            for k, eps in enumerate(eps_cands)
            for i, x in enumerate(pts)
            if k < f[i][i][s]
        ]
    # entry (j, z) at t_s sits at z * nt + s of row j
    h_rows = [list(chain.from_iterable(row)) for row in h]
    failing: dict[int, set[int]] = {}
    for h_i, f_i in zip(h, f):
        legs = [map(max, h_ij * n, h_j) for h_ij, h_j in zip(h_i, h_rows)]
        b = list(map(min, *legs) if n > 1 else legs[0])
        f_row = list(chain.from_iterable(f_i))
        for at in compress(range(n * nt), map(lt, b, f_row)):
            failing.setdefault(at % nt, set()).update(range(b[at], f_row[at]))
    composition = [
        f"composition: U(t={t_cands[s] / 2}, eps={eps_cands[k] / 2}) squared "
        f"escapes U(t={t_cands[s]}, eps={eps_cands[k]})"
        for s in sorted(failing)
        for k in sorted(failing[s])
    ]

    return QuasiUniformityReport(
        diagonal=not diagonal,
        refinement=True,
        composition=not composition,
        countable=True,
        symmetric=True if _is_symmetric(pts, space._entry) else None,
        violations=tuple(diagonal + composition),
    )


# ---------------------------------------------------------------------------
# Point maps and their continuity grades.


class PointMap:
    """A function between the point sets of two spaces."""

    def __init__(self, source, target, mapping: Mapping[str, str]):
        tgt = set(target.points)
        for x in source.points:
            if x not in mapping:
                raise InputError(f"map is missing point {x!r}")
            if mapping[x] not in tgt:
                raise InputError(f"map target {mapping[x]!r} is not a point")
        self.source = source
        self.target = target
        self.mapping = {x: mapping[x] for x in source.points}

    def __call__(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise InputError(f"unknown point {x!r}") from None

    def __repr__(self) -> str:
        return f"<PointMap {self.mapping}>"


def random_point_map(rng: random.Random, source, target) -> PointMap:
    return PointMap(
        source, target, {x: rng.choice(target.points) for x in source.points}
    )


def _step_pairs(m: PointMap):
    for x in m.source.points:
        for y in m.source.points:
            yield x, y, m.source.w(x, y), m.target.w(m(x), m(y))


def _all_le(pairs: Iterable[tuple[StepFunction, StepFunction]]) -> bool:
    """Whether ``le_op(f, g)`` holds for every pair, with all the pairs put
    on one integer scale by a single conversion."""
    ints = _to_ints(h for pair in pairs for h in pair)[2]
    return all(_le(ints[k], ints[k + 1]) for k in range(0, len(ints), 2))


def is_nonexpansive(m: PointMap) -> bool:
    """Distances may only shrink: w2(t, fx, fy) <= w1(t, x, y) throughout."""
    return _all_le((w1, w2) for _x, _y, w1, w2 in _step_pairs(m))


def nonexpansive_violation(
    m: PointMap,
) -> Optional[tuple[str, str, Fraction]]:
    """A concrete witness (x, y, t) where the image distance exceeds the
    source distance, or None.  The pairs are put on one integer scale by a
    single conversion, as in :func:`_all_le`."""
    pairs = list(_step_pairs(m))
    ints = _to_ints(h for pair in pairs for h in pair[2:])[2]
    for k, (x, y, w1, w2) in enumerate(pairs):
        if _le(ints[2 * k], ints[2 * k + 1]):
            continue
        merged = sorted({c.pos for c in w1.cuts} | {c.pos for c in w2.cuts})
        probes: list[Fraction] = []
        probes.append(merged[0] / 2 if merged else Fraction(1))
        for i, p in enumerate(merged):
            probes.append(p)
            nxt = merged[i + 1] if i + 1 < len(merged) else p + 2
            probes.append((p + nxt) / 2)
        for t in probes:
            if eval_at(w2, t) > eval_at(w1, t):
                return (x, y, t)
        raise ContractError("violation vanished between probes")
    return None


def is_lipschitz(m: PointMap) -> tuple[bool, Optional[Fraction]]:
    """Whether some parameter rescaling k makes the map nonexpansive:
    w2(k t, fx, fy) <= w1(t, x, y).

    Feasibility is upward closed in k and can only switch where a target
    cut aligns with a source cut, so the candidate ks are the cut ratios,
    the gaps between them, and a value beyond them all; the reported k is
    re-verified exactly.
    """
    pairs = list(_step_pairs(m))
    ratios: set[Fraction] = set()
    for _x, _y, w1, w2 in pairs:
        for c1 in w1.cuts:
            for c2 in w2.cuts:
                ratios.add(c2.pos / c1.pos)
    cands = {Fraction(1)}
    if ratios:
        sr = sorted(ratios)
        cands.update(sr)
        cands.update(_midpoints(sr))
        cands.add(sr[0] / 2)
        cands.add(sr[-1] + 1)
    else:
        cands.add(Fraction(2))
    ordered = sorted(cands)

    def feasible(k: Fraction) -> bool:
        return _all_le((w1, time_rescale(w2, k)) for _x, _y, w1, w2 in pairs)

    if not feasible(ordered[-1]):
        return (False, None)
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return (True, ordered[lo])


def is_strongly_uniformly_continuous(m: PointMap) -> bool:
    """Image distances at any parameter must stay under the source distance
    near parameter zero.  Both sides are largest on their initial piece, so
    this is head(w2(m(x), m(y))) <= head(w1(x, y)) for every pair."""
    return all(w2.head <= w1.head for _x, _y, w1, w2 in _step_pairs(m))


def is_uniformly_continuous(m: PointMap) -> bool:
    """For every target entourage there is a source entourage whose pairs
    all land inside it.  Each base has a finest member on its candidate grid
    (:func:`_vanishes`) that every other member contains, so this holds
    exactly when the finest source entourage maps into the finest target
    entourage."""
    return all(
        _vanishes(m.target, m(x), m(y))
        for x in m.source.points
        for y in m.source.points
        if _vanishes(m.source, x, y)
    )


def _scaled_pairs(m: PointMap):
    for x in m.source.points:
        for y in m.source.points:
            yield m.source.d(x, y), m.target.d(m(x), m(y))


def scaled_lipschitz_classic(m: PointMap) -> tuple[bool, Optional[Fraction]]:
    """Plain Lipschitz bound between the underlying distances:
    d2(fx, fy) <= k d1(x, y) for some k."""
    best = Fraction(1)
    for d1, d2 in _scaled_pairs(m):
        if d1 == 0:
            if d2 != 0:
                return (False, None)
        else:
            best = max(best, d2 / d1)
    return (True, best)


def scaled_lipschitz_modular(m: PointMap) -> tuple[bool, Optional[Fraction]]:
    """The parameter-rescaling condition w2(k t) <= w1(t), worked out
    symbolically for w = d / t: it collapses to d2 <= k d1 pointwise, but
    is derived here from the scaled shape rather than assumed."""
    # w2(k t) = d2 / (k t) and w1(t) = d1 / t, so the requirement for all t
    # is d2 / k <= d1.
    candidates = [
        d2 / d1 for d1, d2 in _scaled_pairs(m) if d1 != 0 and d2 != 0
    ]
    k = max(candidates, default=Fraction(1))
    if k < 1:
        k = Fraction(1)
    for d1, d2 in _scaled_pairs(m):
        if d2 > k * d1:
            return (False, None)
    return (True, k)


def scaled_strongly_uniformly_continuous(m: PointMap) -> bool:
    """Near parameter zero a scaled distance blows up unless d = 0, so the
    strong continuity condition reduces to: vanishing source distance
    forces vanishing image distance."""
    return all(d2 == 0 for d1, d2 in _scaled_pairs(m) if d1 == 0)


# ---------------------------------------------------------------------------
# The space file format.

def _step_entry(body: str, tokens: list, lineno: int) -> StepFunction:
    """The step literal that ends an entry line."""
    col = tokens[3][1]
    return parse_step_literal(body[col - 1 :], line=lineno, col_offset=col - 1)


def _value_entry(body: str, tokens: list, lineno: int) -> Fraction:
    """The nonnegative fraction that ends a ``d`` line."""
    v, col = tokens[3]
    try:
        val = Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad value {v!r}", lineno, col) from None
    if val < 0:
        raise ParseError(f"negative value {v!r}", lineno, col)
    return val


# The entry directives of each kind of space file (see errors._read_table).
_SPACE_LINES = {
    "step": {
        "w": ("'w' needs two points and a step literal", False, _step_entry),
        "d": ("'d' lines belong to scaled spaces", False, None),
    },
    "scaled": {
        "w": ("'w' lines belong to step spaces", False, None),
        "d": ("'d' needs two points and a value", True, _value_entry),
    },
}


def _space_header(tokens: list, lineno: int):
    kind = tokens[1][0] if len(tokens) == 2 and tokens[0][0] == "space" else None
    if kind not in _SPACE_LINES:
        raise ParseError("expected header 'space step' or 'space scaled'", lineno, tokens[0][1])
    return kind, _SPACE_LINES[kind]


def parse_space(text: str, *, close: bool = False) -> Space:
    """Parse the line-oriented space format.

    The header is ``space step`` or ``space scaled``.  ``point <id>``
    declares points; ``w <a> <b> <step literal>`` and ``d <a> <b> <value>``
    give distances.  Diagonal entries default to zero.  Missing off
    diagonal entries are an error unless ``close`` is set, in which case a
    step space is completed by treating them as infinite and taking the
    triangle closure (scaled spaces cannot be closed this way).
    """
    kind, points, table = _read_table(text, "space", _space_header)
    if not points:
        raise InputError("space file declares no points")

    if kind == "scaled":
        if close:
            raise InputError("scaled spaces cannot be completed with --close")
        return ScaledModularSpace(points, table)
    if close:
        for a in points:
            table.setdefault((a, a), ZERO)
            for b in points:
                table.setdefault((a, b), BOTTOM)
        return triangle_closure(StepModularSpace(points, table))
    return StepModularSpace(points, table)


def format_space(space: Space) -> str:
    """Serialize a space so that parsing the output reproduces it exactly."""
    if isinstance(space, ScaledModularSpace):
        return _write_table("space scaled", "d", space, str)
    return _write_table("space step", "w", space, format_step_literal)
