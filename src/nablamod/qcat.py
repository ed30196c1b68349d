"""Categories enriched in a quantale of distances.

A space with step-function distances is the same data as a small category
enriched in the step-function quantale: points become objects and each
ordered pair carries a hom given by its distance profile.  The category
classes here therefore share the spaces' table core
(:class:`nablamod.modular._Table`), and converting between the two views
presents one table as the other class, copying and validating nothing
again.  This module provides that
categorical presentation (:class:`NablaCategory`), its
counterpart over an explicit finite quantale (:class:`FiniteQCategory`),
the conversions between spaces and categories, the open-ball topology,
and two bridge constructions: preorders as categories over the
two-element quantale, and extended quasi-pseudometrics as categories
over a truncated-addition chain.

Everything here is exact and instance-level: the conversions are checked
by running them, not by appeal to a general theorem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product
from operator import or_
from typing import Iterable, Mapping, Optional, Union

from .errors import ContractError, InputError, ParseError, _read_table, _write_table
from .modular import (
    FiniteTopology,
    PointMap,
    StepModularSpace,
    _Table,
    _all_le,
    _gate,
    _presents,
    _specialization,
    _step_entry,
    _table_axioms,
    _unions,
    regularize,
)
from .quantale_lab import (
    FinitePoset,
    FinitePreorder,
    FiniteQuantale,
    make_example,
    parse_lattice,
)
from .stepfn import (
    ExtRational,
    RationalLike,
    _left_regular,
    as_fraction,
    ext,
    format_step_literal,
    le_op,  # not called here; bench/test_bench.py checks its tracer wraps this binding
    well_below_fstep,
)

__all__ = [
    "NablaCategory",
    "FiniteQCategory",
    "QCategoryReport",
    "check_qcategory",
    "e_mod",
    "e_nabla",
    "e_nabla_L",
    "u_regularize",
    "verify_diagram",
    "is_q_functor",
    "ball",
    "ball_topology",
    "verify_topology_theorem",
    "to_preorder",
    "from_preorder",
    "ExtendedQPMetric",
    "lawvere_truncated_quantale",
    "to_eqpm",
    "from_eqpm",
    "parse_qcat",
    "format_qcat",
]


class NablaCategory(_Table):
    """Objects with step-function homs.

    The same table as a step space: the hom table must cover every ordered
    pair of distinct objects, and diagonal homs default to the zero
    function.  Whether the composition and identity axioms hold is a
    separate question answered by :func:`check_qcategory`.
    """

    _noun = "hom"
    _members = "objects"
    hom = _Table._entry


class FiniteQCategory(_Table):
    """Objects with homs drawn from an explicit finite quantale.

    The quantale must carry a unit; enrichment without one is out of
    scope.  Diagonal homs default to the unit element.
    """

    _noun = "hom"
    hom = _Table._entry

    def __init__(
        self,
        quantale: FiniteQuantale,
        points: Iterable[str],
        hom: Mapping[tuple[str, str], str],
    ):
        if quantale.unit is None:
            raise InputError("enrichment needs a quantale with a unit")
        self.quantale = quantale
        self._diagonal = quantale.unit
        self._carrier = set(quantale.elements)
        super().__init__(points, hom)

    def _value(self, a: str, b: str, v: str) -> str:
        if v not in self._carrier:
            raise InputError(f"hom value {v!r} is not a quantale element")
        return v

    def __eq__(self, other: object) -> bool:
        same = super().__eq__(other)
        if same is not True:
            return same
        q1, q2 = self.quantale, other.quantale
        # FinitePreorder.__eq__ compares the elements and the closed rows
        return q1 is q2 or (q1.poset, q1.unit, q1._mul) == (q2.poset, q2.unit, q2._mul)

    # Equal categories have equal points and hom tables, so the table hash
    # is consistent with the quantale-aware equality above.
    __hash__ = _Table.__hash__

    def __repr__(self) -> str:
        return (
            f"<FiniteQCategory on {len(self.points)} objects over "
            f"{len(self.quantale.elements)} quantale elements>"
        )


Category = Union[NablaCategory, FiniteQCategory]


@dataclass(frozen=True)
class QCategoryReport:
    """Outcome of the enriched-category axiom checks."""

    qc1: bool
    qc2: bool
    separated: bool
    symmetric: bool


def check_qcategory(cat: Category) -> QCategoryReport:
    """Check identity (qc1) and composition (qc2) along with the optional
    separation and symmetry properties.

    For step-function homs, composition uses the strict-split convolution,
    mirroring the split triangle check on spaces; "the hom is as large as
    possible" means equal to the zero function, which is the top of the
    reversed order.  For finite quantales the same reading uses the
    lattice top and the quantale multiplication.
    """
    if isinstance(cat, NablaCategory):
        return QCategoryReport(*_table_axioms(cat)[:4])
    return _check_finite(cat)


def _check_finite(cat: FiniteQCategory) -> QCategoryReport:
    q = cat.quantale
    top = q.poset.top()
    if top is None:
        raise InputError("quantale order has no top element")
    leq = q.poset.leq
    pts = cat.points
    qc1 = all(leq(top, cat.hom(x, x)) for x in pts)
    qc2 = all(
        leq(q.mul(cat.hom(x, z), cat.hom(z, y)), cat.hom(x, y))
        for x in pts
        for z in pts
        for y in pts
    )
    separated = all(
        not (leq(top, cat.hom(x, y)) and leq(top, cat.hom(y, x)))
        for x in pts
        for y in pts
        if x != y
    )
    symmetric = all(cat.hom(x, y) == cat.hom(y, x) for x in pts for y in pts)
    return QCategoryReport(qc1=qc1, qc2=qc2, separated=separated, symmetric=symmetric)


# ---------------------------------------------------------------------------
# Space <-> category conversions.


def e_mod(space: StepModularSpace) -> NablaCategory:
    """View a step space as an enriched category.

    The distance table already assigns each ordered pair a step function,
    so the category is the same table as its other class: the same entry
    dict and any form built so far (:meth:`nablamod.modular._Table._as`).
    The split triangle axiom becomes the
    composition axiom and the zero diagonal becomes the identity axiom.
    """
    if not isinstance(space, StepModularSpace):
        raise InputError("only step spaces have a categorical presentation")
    return space._as(NablaCategory)


def e_nabla(cat: NablaCategory) -> StepModularSpace:
    """Inverse of :func:`e_mod`: read the hom table as a distance table."""
    if not isinstance(cat, NablaCategory):
        raise InputError("only step-function categories convert to spaces")
    return cat._as(StepModularSpace)


def e_nabla_L(cat: NablaCategory) -> StepModularSpace:
    """Like :func:`e_nabla`, but restricted to categories all of whose homs
    are left continuous (each its own :func:`nablamod.stepfn._left_regular`
    in integer form); anything else breaks the restriction's contract."""
    pairs = product(cat.points, cat.points)
    for (a, b), f in zip(pairs, chain.from_iterable(cat._int_form()[2])):
        if f != _left_regular(f):
            raise ContractError(f"hom ({a}, {b}) is not left continuous")
    return e_nabla(cat)


def u_regularize(cat: NablaCategory) -> NablaCategory:
    """Left-regularize every hom: :func:`nablamod.modular.regularize`, which
    keeps the table's class, on the category's hom table."""
    return regularize(cat)


def verify_diagram(space: StepModularSpace) -> bool:
    """Regularizing the space and regularizing its categorical presentation
    must land on the same space: compare
    e_nabla_L(u_regularize(e_mod(S))) with regularize(S) structurally."""
    via_category = e_nabla_L(u_regularize(e_mod(space)))
    return via_category == regularize(space)


# ---------------------------------------------------------------------------
# Functors.


def is_q_functor(m: PointMap) -> bool:
    """Whether a point map respects the enrichment: each source hom must
    stay below the hom between the image objects.

    Between step-function categories this is the order on step functions;
    between finite enriched categories (over the same quantale carrier)
    the quantale order.  Mixed inputs make no sense.
    """
    src, dst = m.source, m.target
    if isinstance(src, NablaCategory) and isinstance(dst, NablaCategory):
        return _all_le(
            (src.hom(x, y), dst.hom(m(x), m(y))) for x in src.points for y in src.points
        )
    if isinstance(src, FiniteQCategory) and isinstance(dst, FiniteQCategory):
        if src.quantale.elements != dst.quantale.elements:
            raise InputError("functor check needs a shared quantale carrier")
        leq = dst.quantale.poset.leq
        return all(
            leq(src.hom(x, y), dst.hom(m(x), m(y)))
            for x in src.points
            for y in src.points
        )
    raise InputError("functor check needs two categories of the same kind")


# ---------------------------------------------------------------------------
# Open balls.


def ball(
    cat: NablaCategory,
    x: str,
    t: RationalLike,
    eps: Union[RationalLike, ExtRational],
) -> frozenset[str]:
    """The open ball around ``x`` with the step radius given by ``t`` and
    ``eps``: all objects whose hom from ``x`` lies strictly inside the
    radius in the well-below sense."""
    if x not in cat.points:
        raise InputError(f"unknown object {x!r}")
    t_f = as_fraction(t)
    if t_f <= 0:
        raise InputError(f"parameter must be positive, got {t_f}")
    e = ext(eps)
    return frozenset(
        y for y in cat.points if well_below_fstep(t_f, e, cat.hom(x, y))
    )


def ball_topology(cat: NablaCategory, *, max_points: int = 12) -> FiniteTopology:
    """The unions of the open balls, the empty union included: a set is
    open when every member lies in some ball (around any center) inside it.
    The family is a topology when the table has m1 and m2 and is
    left-continuous; otherwise it may fail :meth:`FiniteTopology.validate`.

    Only step radii over the finite candidate grid are used: any other
    radius sits between two grid radii, and its ball is then squeezed
    between theirs, so the unions are the same.  At a finite radius the ball
    around a center is its row of the entourage U(t, eps) of the
    category's table, read off its slot form one entry at a time over
    every candidate t (:func:`_balls`).
    """
    _gate(cat, max_points)
    return _unions(cat.points, _balls(cat))


def _balls(cat: NablaCategory) -> set[int]:
    """Every ball of the candidate grid, around every center, as a bit mask.

    Every candidate eps is finite, and for a finite eps a hom g is well
    below f_step(t, eps) exactly when g(t) < eps.  So the ball around z at
    (t_s, eps_k) is row z of the entourage U(t_s, eps_k) of the category's
    table: the y with ``first[z][y][s] <= k`` in its slot form (the one
    its space built, if :func:`e_mod` made it).  Each distinct row of first
    indices, over every center and t, gives its balls by one sort: the
    objects up to each index below the number of candidate eps, and the
    empty ball when the least index is above 0."""
    form = cat._slot_form()
    m = len(form.candidates[1])
    bits = range(len(cat.points))
    balls = set()
    for row in {row for by_y in form.first for row in zip(*by_y)}:
        ks, ys = zip(*sorted(zip(row, bits)))
        # the last mask at each index holds every y up to it
        upto = dict(zip(ks, accumulate((1 << y for y in ys), or_)))
        balls.update(mask for k, mask in upto.items() if k < m)
        if ks[0] > 0:
            balls.add(0)
    return balls


def verify_topology_theorem(space: StepModularSpace) -> bool:
    """Whether the parameter topology of a space coincides with the
    open-ball topology of its categorical presentation, decided from
    generators (:func:`nablamod.modular._presents`): the balls must generate
    exactly the up-sets of the space's specialization preorder.  It builds
    no family of open sets, so unlike ``topology`` and :func:`ball_topology`
    it is not gated on the point count.  The category shares the space's
    slot form (:func:`e_mod`), yet this stays a cross-check: the balls come
    from the form's first indices, the preorder from the step functions'
    heads (:func:`nablamod.modular._vanishes`)."""
    return _presents(_specialization(space), _balls(e_mod(space)))


# ---------------------------------------------------------------------------
# Preorders as categories over the two-element quantale.


def _is_two_quantale(q: FiniteQuantale) -> bool:
    return set(q.elements) == {"0", "1"}


def to_preorder(cat: FiniteQCategory) -> FinitePreorder:
    """Read a category over the two-element quantale as a preorder:
    x precedes y exactly when the hom is the top element \"1\"."""
    if not _is_two_quantale(cat.quantale):
        raise InputError("preorder bridge needs the two-element quantale")
    pairs = [
        (x, y)
        for x in cat.points
        for y in cat.points
        if cat.hom(x, y) == "1"
    ]
    return FinitePreorder(cat.points, pairs)


def from_preorder(pre: FinitePreorder) -> FiniteQCategory:
    """Present a preorder as a category over the two-element quantale."""
    q = make_example("two")
    hom = {
        (x, y): "1" if pre.leq(x, y) else "0"
        for x in pre.elements
        for y in pre.elements
    }
    return FiniteQCategory(q, pre.elements, hom)


# ---------------------------------------------------------------------------
# Extended quasi-pseudometrics as categories over a truncated-addition chain.


class ExtendedQPMetric(_Table):
    """A finite point set with a single extended distance per ordered pair.

    No axioms are imposed here; they are checked through the categorical
    presentation.  Diagonal entries default to zero.
    """

    _diagonal = ext(0)
    d = _Table._entry

    def _value(
        self, a: str, b: str, v: Union[RationalLike, ExtRational]
    ) -> ExtRational:
        return ext(v)  # which refuses negative values itself


# FinitePoset fills its join and meet tables eagerly, so a carrier costs about
# the cube of its size to build; at this cap it takes about a second
_CARRIER_CAP = 200


def lawvere_truncated_quantale(
    values: Iterable[Union[RationalLike, ExtRational]],
) -> FiniteQuantale:
    """The smallest chain quantale of extended numbers containing the given
    values, zero, and infinity, closed under addition saturated past twice
    the largest finite value.

    Saturation keeps the carrier finite without disturbing any sum that a
    binary composition check can see: two carrier values never add to more
    than the threshold, so only longer iterated sums collapse to infinity.
    The order is reversed (smaller numbers sit higher), making 0 both the
    top and the unit.
    """
    finite: set[Fraction] = {Fraction(0)}
    for v in values:
        e = ext(v)  # which refuses negative values itself
        if not e.is_infinite:
            finite.add(e.as_fraction())
    threshold = 2 * max(finite)
    positives = [f for f in finite if f > 0]
    if positives:
        # every multiple of the smallest value up to the threshold lands in
        # the closure, so this rejects hopeless inputs before any real work
        if threshold / min(positives) > _CARRIER_CAP:
            raise InputError("value set does not close to a manageable carrier")
    frontier = set(finite)
    while frontier:
        new: set[Fraction] = set()
        for a in frontier:
            for b in finite:
                s = a + b
                if s <= threshold and s not in finite and s not in new:
                    new.add(s)
                    if len(finite) + len(new) > _CARRIER_CAP:
                        raise InputError(
                            "value set does not close to a manageable carrier"
                        )
        finite.update(new)
        frontier = new

    ordered = sorted(finite)
    ids = [str(ext(f)) for f in ordered] + ["inf"]
    numeric: dict[str, Optional[Fraction]] = {str(ext(f)): f for f in ordered}
    numeric["inf"] = None
    # reversed chain: numerically larger means lower in the order
    pairs = []
    chain = list(reversed(ids))  # from bottom (inf) upward to 0
    for lo, hi in zip(chain, chain[1:]):
        pairs.append((lo, hi))
    poset = FinitePoset(ids, pairs)

    def add(a: str, b: str) -> str:
        fa, fb = numeric[a], numeric[b]
        if fa is None or fb is None:
            return "inf"
        s = fa + fb
        return str(ext(s)) if s <= threshold else "inf"

    op = {(a, b): add(a, b) for a in ids for b in ids}
    return FiniteQuantale(poset, op, unit="0")


def from_eqpm(metric: ExtendedQPMetric) -> FiniteQCategory:
    """Present an extended distance table as a category over the truncated
    addition chain generated by its values."""
    q = lawvere_truncated_quantale(
        metric.d(x, y) for x in metric.points for y in metric.points
    )
    hom = {
        (x, y): str(metric.d(x, y))
        for x in metric.points
        for y in metric.points
    }
    return FiniteQCategory(q, metric.points, hom)


def to_eqpm(cat: FiniteQCategory) -> ExtendedQPMetric:
    """Read a category whose hom labels are extended numbers back as a
    distance table."""
    table: dict[tuple[str, str], ExtRational] = {}
    for x in cat.points:
        for y in cat.points:
            v = cat.hom(x, y)
            try:
                table[(x, y)] = ext(v)
            except (ValueError, ZeroDivisionError, InputError):
                raise InputError(
                    f"hom value {v!r} is not an extended number"
                ) from None
    return ExtendedQPMetric(cat.points, table)


# ---------------------------------------------------------------------------
# File format.


_HOM = "'hom' needs two points and a value"


def parse_qcat(text: str, *, base_path: Optional[str] = None) -> Category:
    """Parse the line-oriented category format.

    The header is ``qcat nabla`` or ``qcat finite <lattice-file>`` (path
    taken relative to ``base_path``).  ``point <id>`` declares objects and
    ``hom <a> <b> ...`` gives hom values: a step literal in the nabla
    case, a quantale element id in the finite case.  Diagonal homs default
    to zero respectively the unit.
    """

    def header(tokens: list, lineno: int):
        head_col = tokens[0][1]
        kind = tokens[1][0] if len(tokens) >= 2 and tokens[0][0] == "qcat" else None
        if kind == "nabla":
            if len(tokens) != 2:
                raise ParseError("'qcat nabla' takes no arguments", lineno, head_col)
            return None, {"hom": (_HOM, False, _step_entry)}
        if kind != "finite":
            raise ParseError(
                "expected header 'qcat nabla' or 'qcat finite <lattice-file>'",
                lineno,
                head_col,
            )
        if len(tokens) != 3:
            raise ParseError("'qcat finite' needs a lattice file path", lineno, head_col)
        quantale = _load_quantale(tokens[2][0], base_path)
        elements = set(quantale.elements)

        def element(body: str, tokens: list, lineno: int) -> str:
            if len(tokens) != 4:
                raise ParseError("'hom' takes a single element id here", lineno, tokens[0][1])
            v, col_v = tokens[3]
            if v not in elements:
                raise ParseError(f"{v!r} is not an element of the quantale", lineno, col_v)
            return v

        return quantale, {"hom": (_HOM, False, element)}

    quantale, points, hom = _read_table(text, "qcat", header)
    if not points:
        raise InputError("category file declares no points")
    if quantale is None:
        return NablaCategory(points, hom)
    return FiniteQCategory(quantale, points, hom)


def _load_quantale(path: str, base_path: Optional[str]) -> FiniteQuantale:
    full = path if base_path is None else os.path.join(base_path, path)
    try:
        with open(full, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read lattice file {path!r}: {err}") from err
    try:
        lat = parse_lattice(text)
    except ParseError as err:
        raise InputError(f"in lattice file {path!r}: {err}") from err
    return lat.quantale()


def format_qcat(cat: NablaCategory) -> str:
    """Serialize a step-function category; parsing the output reproduces
    it exactly.  Finite categories are not serialized because their
    quantale lives in a separate file this function cannot invent."""
    if not isinstance(cat, NablaCategory):
        raise InputError("only step-function categories can be serialized")
    return _write_table("qcat nabla", "hom", cat, format_step_literal)
