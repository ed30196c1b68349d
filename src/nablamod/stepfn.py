"""Non-increasing step functions with exact rational arithmetic.

This module is the value side of the whole package: distances are not numbers
but functions of a positive parameter, non-increasing, with values in the
nonnegative rationals extended by infinity.  The carrier implemented here is
the set of such functions that are piecewise constant with finitely many
rational cut points, where the value *at* a cut is distinguished from the
value on the open interval after it.  That distinction is load-bearing: the
interesting counterexamples live exactly in functions that jump at a cut.

Ordering is the opposite pointwise order (``le_op(f, g)`` means ``g <= f``
pointwise in the usual sense), so the constant-zero function is the top
element and the constant-infinity function is the bottom.  Under that order
the carrier is a complete lattice, and ``oplus`` (infimal convolution) makes
it a commutative quantale whose unit is the top.

All computations are exact; there is no floating point in any result.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import InputError, ParseError, _WORD

__all__ = [
    "ExtRational",
    "INF",
    "ext",
    "as_fraction",
    "Cut",
    "StepFunction",
    "ZERO",
    "BOTTOM",
    "eval_at",
    "value_after",
    "le_op",
    "join_op",
    "meet_op",
    "oplus",
    "oplus_interior",
    "f_step",
    "left_regularize",
    "is_left_continuous",
    "well_below_top",
    "well_below_fstep",
    "time_rescale",
    "scale_values",
    "parse_step_literal",
    "format_step_literal",
    "random_step",
    "POSITION_GRID",
    "VALUE_GRID",
]

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, ``p/q`` string, or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"not a rational value: {value!r}")


class ExtRational:
    """A nonnegative rational or infinity, with absorbing arithmetic.

    Addition treats infinity as absorbing; multiplication uses the convention
    ``0 * inf == 0`` (needed so that scaling a gauge function by a zero
    distance yields the zero function).  The order is total, with every
    finite value below infinity.
    """

    __slots__ = ("_num",)

    def __init__(self, value: Union[RationalLike, "ExtRational", None]) -> None:
        if value is None:
            self._num: Fraction | None = None
            return
        if isinstance(value, ExtRational):
            self._num = value._num
            return
        if isinstance(value, str) and value.strip() == "inf":
            self._num = None
            return
        num = as_fraction(value)
        if num < 0:
            raise InputError(f"negative value not allowed: {num}")
        self._num = num

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    def as_fraction(self) -> Fraction:
        if self._num is None:
            raise InputError("infinite value has no fraction form")
        return self._num

    def __add__(self, other: "ExtRational") -> "ExtRational":
        if self._num is None or other._num is None:
            return INF
        return ExtRational(self._num + other._num)

    def __mul__(self, other: "ExtRational") -> "ExtRational":
        if self._num == 0 or other._num == 0:
            return ExtRational(0)
        if self._num is None or other._num is None:
            return INF
        return ExtRational(self._num * other._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtRational):
            return NotImplemented
        return self._num == other._num

    def __lt__(self, other: "ExtRational") -> bool:
        # Cross-multiplied: Fraction's own comparison pays for an ABC check.
        a, b = self._num, other._num
        if a is None:
            return False
        if b is None:
            return True
        return a.numerator * b.denominator < b.numerator * a.denominator

    def __le__(self, other: "ExtRational") -> bool:
        return not other < self

    def __gt__(self, other: "ExtRational") -> bool:
        return other < self

    def __ge__(self, other: "ExtRational") -> bool:
        return other <= self

    def __hash__(self) -> int:
        return hash(self._num)

    def __str__(self) -> str:
        return "inf" if self._num is None else str(self._num)

    def __repr__(self) -> str:
        return f"ExtRational({self})"


INF = ExtRational(None)


def ext(value: Union[RationalLike, ExtRational, None]) -> ExtRational:
    """Shorthand constructor for :class:`ExtRational`."""
    return value if isinstance(value, ExtRational) else ExtRational(value)


class Cut(NamedTuple):
    """One cut of a step function: the position, the value exactly there,
    and the value on the open interval that follows."""

    pos: Fraction
    at: ExtRational
    after: ExtRational


class StepFunction:
    """A non-increasing piecewise-constant map from (0, inf) to [0, inf].

    ``head`` is the value on the initial open interval before the first cut
    (or everywhere, if there are no cuts).  Instances are immutable and kept
    in canonical form (cuts that change nothing are merged away), so
    structural equality coincides with pointwise equality and no tolerance is
    ever needed in tests.
    """

    __slots__ = ("head", "cuts")

    head: ExtRational
    cuts: tuple[Cut, ...]

    def __init__(
        self,
        head: Union[RationalLike, ExtRational],
        cuts: Iterable[tuple] = (),
    ) -> None:
        head_v = ext(head)
        normalized: list[Cut] = []
        prev_pos: Fraction | None = None
        prev_val = head_v
        for raw in cuts:
            pos, at, after = raw
            pos_f = as_fraction(pos)
            at_v = ext(at)
            after_v = ext(after)
            if pos_f <= 0:
                raise InputError(f"cut position must be positive, got {pos_f}")
            if prev_pos is not None and pos_f <= prev_pos:
                raise InputError(
                    f"cut positions must be strictly increasing, got {pos_f} after {prev_pos}"
                )
            if at_v > prev_val or after_v > at_v:
                raise InputError(
                    f"values must be non-increasing, got {prev_val} -> {at_v} -> {after_v} at cut {pos_f}"
                )
            prev_pos = pos_f
            if at_v == prev_val and after_v == prev_val:
                continue  # redundant cut
            normalized.append(Cut(pos_f, at_v, after_v))
            prev_val = after_v
        object.__setattr__(self, "head", head_v)
        object.__setattr__(self, "cuts", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StepFunction is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.head == other.head and self.cuts == other.cuts

    def __hash__(self) -> int:
        return hash((self.head, self.cuts))

    def __repr__(self) -> str:
        return f"<{format_step_literal(self)}>"

    def __str__(self) -> str:
        return format_step_literal(self)

    def __call__(self, t: RationalLike) -> ExtRational:
        return eval_at(self, t)

    @property
    def positions(self) -> tuple[Fraction, ...]:
        return tuple(c.pos for c in self.cuts)

    def final_value(self) -> ExtRational:
        """The eventual value (on the unbounded last interval)."""
        return self.cuts[-1].after if self.cuts else self.head

    def attained_values(self) -> set[ExtRational]:
        vals = {self.head}
        for c in self.cuts:
            vals.add(c.at)
            vals.add(c.after)
        return vals


ZERO = StepFunction(0)
BOTTOM = StepFunction(INF)


def eval_at(f: StepFunction, t: RationalLike) -> ExtRational:
    """The value of ``f`` at parameter ``t > 0``, honoring at/after cuts."""
    t_f = as_fraction(t)
    n, d = t_f.numerator, t_f.denominator
    if n <= 0:
        raise InputError(f"parameter must be positive, got {t_f}")
    # bisect_right over the cut positions, cross-multiplied as in ExtRational
    cuts = f.cuts
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        p = cuts[mid].pos
        if n * p.denominator < p.numerator * d:
            hi = mid
        else:
            lo = mid + 1
    if lo == 0:
        return f.head
    cut = cuts[lo - 1]
    return cut.at if cut.pos == t_f else cut.after


def value_after(f: StepFunction, t: RationalLike) -> ExtRational:
    """The constant value of ``f`` on the open interval just right of ``t >= 0``."""
    t_f = as_fraction(t)
    positions = [c.pos for c in f.cuts]
    i = bisect_right(positions, t_f)
    return f.head if i == 0 else f.cuts[i - 1].after


# ---------------------------------------------------------------------------
# Integer form and the one kernel per operation.
#
# Order, join, meet and convolution all run on an integer image of a step
# function, ``(head, ((pos, at, after), ...))``: positions are multiplied by
# one position scale and finite values by one value scale (each the lcm of
# the denominators involved), and infinity is ``math.inf``, which mixes
# exactly with Python ints under ``+`` and ``min``.  Sums of positions and
# sums and minima of values stay on the same scales, so a whole table is
# converted once, combined any number of times, and converted back once.

_IFn = tuple[object, tuple[tuple[int, object, object], ...]]


def _scaled(num: Fraction | None, scale: int):
    return math.inf if num is None else num.numerator * (scale // num.denominator)


def _to_ints(fns: Iterable[StepFunction]) -> tuple[int, int, list[_IFn]]:
    """The common position and value scales of ``fns`` and their integer forms."""
    fns = list(fns)
    p_scale = lcm(1, *{c.pos.denominator for f in fns for c in f.cuts})
    vals = {v._num for f in fns for v in (f.head, *(x for c in f.cuts for x in c[1:]))}
    v_scale = lcm(1, *{v.denominator for v in vals if v is not None})

    def ints(f: StepFunction) -> _IFn:
        return _scaled(f.head._num, v_scale), tuple(
            (_scaled(p, p_scale), _scaled(a._num, v_scale), _scaled(b._num, v_scale))
            for p, a, b in f.cuts
        )

    return p_scale, v_scale, [ints(f) for f in fns]


def _int_table(pts: Sequence[str], w) -> tuple[int, int, list[list[_IFn]]]:
    """The table ``w`` on ``pts`` in integer form, on one pair of scales."""
    n = len(pts)
    p_scale, v_scale, flat = _to_ints(w(a, b) for a in pts for b in pts)
    return p_scale, v_scale, [flat[i * n : (i + 1) * n] for i in range(n)]


def _from_ints(fis: list[_IFn], p_scale: int, v_scale: int) -> list[StepFunction]:
    """Kernel output, which is canonical, to step functions without the
    constructor's checks; each distinct position and value converted once."""
    pos = {p: Fraction(p, p_scale) for p in {c[0] for _, cuts in fis for c in cuts}}
    val = {v: ExtRational(Fraction(v, v_scale)) for v in _finite_values(fis)}
    val[math.inf] = INF
    out = [object.__new__(StepFunction) for _ in fis]
    for f, (head, cuts) in zip(out, fis):
        object.__setattr__(f, "head", val[head])
        object.__setattr__(f, "cuts", tuple(Cut(pos[p], val[a], val[b]) for p, a, b in cuts))
    return out


def _from_int(fi: _IFn, p_scale: int, v_scale: int) -> StepFunction:
    return _from_ints([fi], p_scale, v_scale)[0]


def _finite_values(fis: Iterable[_IFn]) -> set:
    vals = {v for head, cuts in fis for v in (head, *(x for c in cuts for x in c[1:]))}
    return vals - {math.inf}


def _le(f: _IFn, g: _IFn) -> bool:
    """``g <= f`` pointwise, by one merge of the two cut lists."""
    fv, fc = f
    gv, gc = g
    if gv > fv:
        return False
    i = j = 0
    while i < len(fc) and j < len(gc):
        p, f_at, f_after = fc[i]
        q, g_at, g_after = gc[j]
        if p <= q:
            i += 1
            fv = f_after
        else:
            f_at = fv
        if q <= p:
            j += 1
            gv = g_after
        else:
            g_at = gv
        if g_at > f_at or gv > fv:
            return False
    # Left over: cuts of f only (g is constant gv from here), or cuts of g
    # only, which never rise above the gv <= fv checked last.
    return i == len(fc) or gv <= fc[-1][2]


def _pointwise_int(fns: list[_IFn], pick) -> _IFn:
    """Pointwise ``pick`` (min or max) of non-increasing integer forms."""
    moves: dict[int, list] = {}
    for k, (_, cuts) in enumerate(fns):
        for pos, at, after in cuts:
            moves.setdefault(pos, []).append((k, at, after))
    cur = [head for head, _ in fns]
    prev = head = pick(cur)
    out = []
    for pos in sorted(moves):
        ats = cur[:]
        for k, at, after in moves[pos]:
            ats[k] = at
            cur[k] = after
        at, after = pick(ats), pick(cur)
        if at != prev or after != prev:
            out.append((pos, at, after))
            prev = after
    return head, tuple(out)


def _atoms(fn: _IFn, with_boundary: bool) -> tuple[list, list]:
    """The finite atoms of ``fn`` for :func:`_sweep`: points ``(pos, value)``,
    with ``(0, head)`` if ``with_boundary``, and open pieces ``(left end, value)``."""
    head, cuts = fn
    pts = ([(0, head)] if with_boundary else []) + [(p, at) for p, at, _ in cuts]
    ops = [(0, head)] + [(p, after) for p, _, after in cuts]
    return [a for a in pts if a[1] != math.inf], [a for a in ops if a[1] != math.inf]


def _least_sums(fa: list, ga: list, floor: Iterable) -> dict:
    """For each start ``p + q`` of a pair of atoms, the least value ``u + v``,
    seeded with the ``(start, value)`` atoms of ``floor`` (distinct starts)."""
    best = dict(floor)
    for p, u in fa:
        for q, v in ga:
            s, w = p + q, u + v
            if w < best.get(s, math.inf):
                best[s] = w
    return best


def _sweep(fa: tuple[list, list], ga: tuple[list, list], floor=((), ())) -> _IFn:
    """The convolution of two functions given by their :func:`_atoms`, or
    its pointwise minimum with ``floor``, given by its atoms too.

    A point plus an open piece is never below the open piece starting at the
    same cut plus that open piece, so only point + point sums (closed) and
    open + open sums (open) are kept.  A non-increasing function is, at each
    ``t``, the least of its own atoms starting at or before ``t`` (strictly
    before, if open), so the floor's atoms join the sums as they are and the
    result is the minimum, in canonical form, from the one running minimum.
    Only the closure and the public convolutions build a convolution; the
    axiom checks compare against one with :func:`_below_conv` instead.
    """
    inf = math.inf
    closed = _least_sums(fa[0], ga[0], floor[0])
    opened = _least_sums(fa[1], ga[1], floor[1])
    head = cur = min(closed.pop(0, inf), opened.pop(0, inf))
    cuts = []
    for s in sorted(closed.keys() | opened.keys()):
        at = min(cur, closed.get(s, inf))
        after = min(at, opened.get(s, inf))
        if after < cur:
            cuts.append((s, at, after))
            cur = after
    return head, tuple(cuts)


def _probe(c: _IFn) -> tuple[list, list, list]:
    """The cut positions, the ``at`` values and the piece values (head
    first) of ``c``, as :func:`_below_conv` reads them."""
    head, cuts = c
    return [p for p, _, _ in cuts], [a for _, a, _ in cuts], [head, *(b for _, _, b in cuts)]


def _below_conv(probe: tuple[list, list, list], fa: tuple[list, list], ga: tuple[list, list]) -> bool:
    """``_le(_sweep(fa, ga), c)`` for the ``c`` of ``probe``
    (:func:`_probe`), without building the convolution.

    The convolution at ``t`` is the least ``u + v`` over the atom pairs
    starting at or before ``t`` (strictly before, for open pairs), and ``c``
    is non-increasing.  So ``c`` lies under it iff ``c(s) <= u + v`` for
    every closed pair starting at ``s`` (``c(0)`` read as the head) and
    ``c(s+) <= u + v`` for every open one: one bisection per pair, stopping
    at the first pair that fails.
    """
    pos, ats, vals = probe
    for p, u in fa[0]:
        for q, v in ga[0]:
            s = p + q
            i = bisect_right(pos, s)
            if (ats[i - 1] if i and pos[i - 1] == s else vals[i]) > u + v:
                return False
    for p, u in fa[1]:
        for q, v in ga[1]:
            if vals[bisect_right(pos, p + q)] > u + v:
                return False
    return True


def _conv(f: _IFn, g: _IFn, with_boundary: bool) -> _IFn:
    """The convolution of two integer forms on common scales."""
    return _sweep(_atoms(f, with_boundary), _atoms(g, with_boundary))


def le_op(f: StepFunction, g: StepFunction) -> bool:
    """True iff ``f`` is below ``g`` in the opposite pointwise order.

    Concretely: ``eval_at(g, t) <= eval_at(f, t)`` for every ``t > 0``,
    decided exactly by one merge of the two cut lists (each cut point plus
    the open interval after it).
    """
    _, _, (fi, gi) = _to_ints((f, g))
    return _le(fi, gi)


def _pointwise(fs: Iterable[StepFunction], pick) -> StepFunction:
    p_scale, v_scale, ints = _to_ints(fs)
    if not ints:
        raise InputError("empty family; use the ZERO/BOTTOM constants instead")
    return _from_int(_pointwise_int(ints, pick), p_scale, v_scale)


def join_op(fs: Iterable[StepFunction]) -> StepFunction:
    """Join in the opposite order = pointwise minimum in the usual order."""
    return _pointwise(fs, min)


def meet_op(fs: Iterable[StepFunction]) -> StepFunction:
    """Meet in the opposite order = pointwise maximum in the usual order."""
    return _pointwise(fs, max)


def _oplus(f: StepFunction, g: StepFunction, with_boundary: bool) -> StepFunction:
    p_scale, v_scale, (fi, gi) = _to_ints((f, g))
    return _from_int(_conv(fi, gi, with_boundary), p_scale, v_scale)


def oplus(f: StepFunction, g: StepFunction) -> StepFunction:
    """Infimal convolution: the quantale multiplication of the step carrier.

    ``oplus(f, g)(t)`` is the infimum of ``f(r) + g(s)`` over splits
    ``r + s = t`` with ``r, s >= 0``, where the value at 0 is read as the
    function's head (its limit from the right at 0).  Including the
    degenerate splits is what makes the zero function a strict unit and the
    operation associative on non-left-continuous inputs.  Axiom checking for
    spaces uses :func:`oplus_interior` instead, which keeps the classic split
    triangle inequality.

    Computed by a sweep over atom sums.  Each input splits into its cut
    points, the open pieces before, between and after them, and (here) the
    point 0 with the head value.  Every split ``r + s = t`` lies in one pair
    of atoms, and the result at ``t`` is the least value over the pairs whose
    sum starts at or before ``t`` (strictly before, if the sum is open).
    That is exact because both inputs are non-increasing: a split landing
    before ``t`` can move right onto ``t`` without raising either value.
    One running minimum over the sorted starts gives the canonical result.
    """
    return _oplus(f, g, with_boundary=True)


def oplus_interior(f: StepFunction, g: StepFunction) -> StepFunction:
    """Infimal convolution over strictly positive splits only.

    ``oplus_interior(f, g)(t)`` is the infimum of ``f(r) + g(s)`` over
    ``r + s = t`` with ``r, s > 0``.  On left-continuous inputs this agrees
    with :func:`oplus`; in general it is larger at left-jump points (its
    convolution with the zero function is the left regularization).  It is
    the form matching the split triangle axiom of modular spaces.  Computed
    by the same atom sweep as :func:`oplus`, without the point 0.
    """
    return _oplus(f, g, with_boundary=False)


def f_step(t: RationalLike, eps: Union[RationalLike, ExtRational]) -> StepFunction:
    """The step radius: infinity before ``t``, value ``eps`` at and after.

    These functions are exactly the radii used for open balls; with
    ``eps = inf`` the cut merges away and the result is the bottom element.
    """
    t_f = as_fraction(t)
    eps_v = ext(eps)
    if t_f <= 0:
        raise InputError(f"threshold must be positive, got {t_f}")
    if not eps_v.is_infinite and eps_v.as_fraction() == 0:
        raise InputError("radius value must be positive")
    return StepFunction(INF, [(t_f, eps_v, eps_v)])


def _left_regular(fi: _IFn) -> _IFn:
    """Each cut's ``at`` becomes the value before it.  Canonical in,
    canonical out: a canonical cut ends below the value before it."""
    head, cuts = fi
    before = (head, *(c[2] for c in cuts))
    return head, tuple((p, prev, after) for (p, _, after), prev in zip(cuts, before))


def left_regularize(f: StepFunction) -> StepFunction:
    """Replace the value at each cut by the limit from the left.

    The result is the largest left-continuous function below ``f`` in the
    opposite order (equivalently: ``t -> inf of f on (0, t)``).
    """
    p_scale, v_scale, (fi,) = _to_ints((f,))
    return _from_int(_left_regular(fi), p_scale, v_scale)


def is_left_continuous(f: StepFunction) -> bool:
    """True iff ``f`` has no left jump at any cut: ``f == left_regularize(f)``."""
    return f == left_regularize(f)


def well_below_top(f: StepFunction) -> bool:
    """Decide whether ``f`` is well below the top (zero) element.

    Characterization: ``f`` must be infinite on some initial interval and its
    infimum (the eventual value) must be strictly positive.  The constant
    infinity (bottom) satisfies both.  Validated in the test suite against
    explicit refuting families for each failed condition.
    """
    return f.head.is_infinite and final_positive(f)


def final_positive(f: StepFunction) -> bool:
    v = f.final_value()
    return v.is_infinite or v.as_fraction() > 0


def well_below_fstep(
    t: RationalLike, eps: Union[RationalLike, ExtRational], g: StepFunction
) -> bool:
    """Decide whether the step radius at ``(t, eps)`` is well below ``g``.

    For finite ``eps`` this reduces to ``g(t) < eps``: the join of everything
    not above the radius is the function with value ``eps`` on ``(0, t]`` and
    0 after, and ``g`` escapes it exactly when ``g(t) < eps``.  For
    ``eps = inf`` the radius is the bottom element, and bottom is well below
    precisely the non-bottom elements, which the plain evaluation test would
    get wrong.
    """
    t_f = as_fraction(t)
    eps_v = ext(eps)
    if t_f.numerator <= 0:
        raise InputError(f"threshold must be positive, got {t_f}")
    if not eps_v.is_infinite and eps_v.as_fraction() == 0:
        raise InputError("radius value must be positive")
    if eps_v.is_infinite:
        return g != BOTTOM
    return eval_at(g, t_f) < eps_v


def time_rescale(f: StepFunction, k: RationalLike) -> StepFunction:
    """The function ``t -> f(k * t)`` (cuts move to pos / k)."""
    k_f = as_fraction(k)
    if k_f <= 0:
        raise InputError(f"rescale factor must be positive, got {k_f}")
    return StepFunction(f.head, [(c.pos / k_f, c.at, c.after) for c in f.cuts])


def scale_values(f: StepFunction, c: Union[RationalLike, ExtRational]) -> StepFunction:
    """Pointwise multiply all values by ``c`` (with 0 * inf = 0)."""
    c_v = ext(c)
    return StepFunction(
        f.head * c_v, [(cut.pos, cut.at * c_v, cut.after * c_v) for cut in f.cuts]
    )


# ---------------------------------------------------------------------------
# Textual literal.


def format_step_literal(f: StepFunction) -> str:
    parts = [f"step head={f.head}"]
    for c in f.cuts:
        parts.append(f"cut={c.pos} at={c.at} after={c.after}")
    return " ".join(parts)


def _parse_value(text: str, line: int, col: int) -> ExtRational:
    if text == "inf":
        return INF
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad value {text!r}", line, col) from None
    if frac < 0:
        raise ParseError(f"negative value {text!r}", line, col)
    return ExtRational(frac)


def parse_step_literal(text: str, *, line: int = 1, col_offset: int = 0) -> StepFunction:
    """Parse the bit-exact literal ``step head=<v> [cut=<t> at=<v> after=<v>]*``.

    ``line``/``col_offset`` locate the literal inside a larger file so parse
    errors point at the right token.
    """
    tokens = [(m.group(0), col_offset + m.start() + 1) for m in _WORD.finditer(text)]

    def fail(msg: str, col: int):
        raise ParseError(msg, line, col)

    if not tokens or tokens[0][0] != "step":
        fail("expected 'step'", tokens[0][1] if tokens else col_offset + 1)
    if len(tokens) < 2 or not tokens[1][0].startswith("head="):
        fail("expected 'head=<value>'", tokens[1][1] if len(tokens) > 1 else tokens[0][1])
    head = _parse_value(tokens[1][0][5:], line, tokens[1][1])
    rest = tokens[2:]
    if len(rest) % 3 != 0:
        fail("incomplete cut group (need cut=, at=, after=)", rest[-1][1])
    cuts = []
    for i in range(0, len(rest), 3):
        (t_cut, c_cut), (t_at, c_at), (t_after, c_after) = rest[i : i + 3]
        if not t_cut.startswith("cut="):
            fail("expected 'cut=<t>'", c_cut)
        if not t_at.startswith("at="):
            fail("expected 'at=<value>'", c_at)
        if not t_after.startswith("after="):
            fail("expected 'after=<value>'", c_after)
        try:
            pos = Fraction(t_cut[4:])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad cut position {t_cut[4:]!r}", line, c_cut) from None
        at = _parse_value(t_at[3:], line, c_at)
        after = _parse_value(t_after[6:], line, c_after)
        cuts.append((pos, at, after))
    try:
        return StepFunction(head, cuts)
    except InputError as exc:
        raise ParseError(str(exc), line, tokens[0][1]) from None


# ---------------------------------------------------------------------------
# Random generation (the generator grid shared by the verification suites).

POSITION_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 4) for i in range(1, 33))
VALUE_GRID: tuple[ExtRational, ...] = (INF,) + tuple(
    ExtRational(Fraction(i, 4)) for i in range(16, -1, -1)
)


def random_step(rng: random.Random, max_cuts: int = 6) -> StepFunction:
    """A random step function: up to ``max_cuts`` cuts on the quarter grid
    in (0, 8], values drawn from {0, 1/4, ..., 4, inf}."""
    k = rng.randint(0, max_cuts)
    positions = sorted(rng.sample(POSITION_GRID, k))
    values = sorted((rng.choice(VALUE_GRID) for _ in range(2 * k + 1)), reverse=True)
    head = values[0]
    cuts = []
    for i, pos in enumerate(positions):
        cuts.append((pos, values[2 * i + 1], values[2 * i + 2]))
    return StepFunction(head, cuts)
