"""The three topology builders against a literal scan of all 2^n subsets.

``topology``, ``metric_ball_topology`` and ``ball_topology`` each hand
their generators to one union-closure.  The oracles here are the
definitions, read by scanning every subset:

- ``topology``: a set is open when every member has a candidate
  neighborhood (``neighborhood()`` at some grid cell, centered at itself)
  inside it;
- ``metric_ball_topology``: a set is open when every member lies in a
  zero-head row (``neighborhood()`` at the least grid cell, any center)
  inside it;
- ``ball_topology``: a set is open when every member lies in a ball
  (``ball()`` at some grid cell, any center) inside it.

The last two families need not be topologies: ``metric_ball_topology``
gives one when the table has m1 and m2, ``ball_topology`` when the table
is also left-continuous.  ``validate()`` must fail on the built family
exactly when it fails on the literal one.
"""

import random
from fractions import Fraction as F

import pytest

from nablamod import (
    BOTTOM,
    ZERO,
    FiniteTopology,
    NablaCategory,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    ball,
    ball_topology,
    candidate_parameters,
    check_axioms,
    chistyakov_example,
    e_mod,
    e_nabla,
    metric_ball_topology,
    neighborhood,
    random_step,
    regularize,
    topology,
    triangle_closure,
)


def mask(members, pts):
    return sum(1 << i for i, p in enumerate(pts) if p in members)


def scan(pts, member_ok):
    """Every subset g whose members i all pass ``member_ok(i, g)``."""
    return frozenset(
        frozenset(p for i, p in enumerate(pts) if g >> i & 1)
        for g in range(1 << len(pts))
        if all(member_ok(i, g) for i in range(len(pts)) if g >> i & 1)
    )


def literal_topology(space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    nbhds = [
        {mask(neighborhood(space, x, t, e), pts) for t in t_cands for e in eps_cands}
        for x in pts
    ]
    return scan(pts, lambda i, g: any(m & ~g == 0 for m in nbhds[i]))


def literal_base_family(pts, base):
    return scan(pts, lambda i, g: any(b >> i & 1 and b & ~g == 0 for b in base))


def literal_metric_ball_topology(space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    base = {mask(neighborhood(space, x, min(t_cands), min(eps_cands)), pts) for x in pts}
    return literal_base_family(pts, base)


def literal_ball_topology(cat):
    pts = cat.points
    t_cands, eps_cands = candidate_parameters(cat)
    base = {
        mask(ball(cat, z, t, e), pts) for t in t_cands for e in eps_cands for z in pts
    }
    return literal_base_family(pts, base)


def zero_rich(rng, n, p_zero, p_bottom, broken_diagonal):
    pts = [f"p{i}" for i in range(n)]

    def entry():
        r = rng.random()
        if r < p_zero:
            return ZERO
        if r < p_zero + p_bottom:
            return BOTTOM
        return random_step(rng, max_cuts=2)

    w = {(a, b): entry() for a in pts for b in pts if a != b}
    if broken_diagonal:
        for a in pts:
            w[(a, a)] = rng.choice([ZERO, BOTTOM, StepFunction(1, [(1, 1, 0)]), entry()])
    return StepModularSpace(pts, w)


def scaled_with_diagonal(rng, n):
    pts = [f"p{i}" for i in range(n)]
    d = {
        (a, b): F(rng.randint(0, 6), 2) if rng.random() < 0.6 else 0
        for a in pts
        for b in pts
        if a != b
    }
    d[(pts[0], pts[0])] = F(1, 3)
    return ScaledModularSpace(pts, d)


def spaces():
    rng = random.Random(8113)
    out = []
    for n in range(1, 7):
        closed = triangle_closure(zero_rich(rng, n, 0.4, 0.1, False))
        out.append((f"closed{n}", closed))
        out.append((f"regular{n}", regularize(closed)))
        out.append((f"unclosed{n}", zero_rich(rng, n, 0.4, 0.15, True)))
        out.append((f"unclosed_sparse{n}", zero_rich(rng, n, 0.25, 0.3, True)))
    for n in range(2, 7):
        out.append((f"scaled_diagonal{n}", scaled_with_diagonal(rng, n)))
    out.append(("chistyakov10", chistyakov_example(10)))
    return out


SPACES = spaces()
STEP_SPACES = [(name, s) for name, s in SPACES if isinstance(s, StepModularSpace)]


def check_family(built, pts, literal):
    assert built.points == pts
    assert built.opens == literal
    if len(pts) <= 6:  # validate() is quadratic in the family: 4096 opens at 12 points
        assert built.validate() == FiniteTopology(points=pts, opens=literal).validate()


def validates(built):
    return len(built.points) > 6 or built.validate()


@pytest.mark.parametrize("name,space", SPACES)
def test_topology_matches_literal_scan(name, space):
    built = topology(space)
    check_family(built, space.points, literal_topology(space))
    assert validates(built)


@pytest.mark.parametrize("name,space", SPACES)
def test_metric_ball_topology_matches_literal_scan(name, space):
    built = metric_ball_topology(space)
    check_family(built, space.points, literal_metric_ball_topology(space))
    report = check_axioms(space)
    if report.m1 and report.m2:
        assert validates(built)


@pytest.mark.parametrize("name,space", STEP_SPACES)
def test_ball_topology_matches_literal_scan(name, space):
    cat = e_mod(space)
    built = ball_topology(cat)
    check_family(built, cat.points, literal_ball_topology(cat))
    report = check_axioms(space)
    if report.m1 and report.m2 and report.left_continuous:
        assert validates(built)


def test_corpus_reaches_the_non_topology_families():
    assert not all(metric_ball_topology(s).validate() for _, s in SPACES)
    assert not all(ball_topology(e_mod(s)).validate() for _, s in STEP_SPACES)
    big = topology(chistyakov_example(10))
    assert big.is_discrete() and len(big.opens) == 1 << 12


def test_point_in_two_incomparable_minimal_balls():
    # b lies in the ball around a and in the ball around c, and never in a
    # ball without a or c, since hom(b, b) = 1 while b reaches a and c at 0
    far = StepFunction(2, [])
    cat = NablaCategory(
        ["a", "b", "c"],
        {
            ("b", "b"): StepFunction(1, []),
            ("a", "b"): ZERO,
            ("c", "b"): ZERO,
            ("b", "a"): ZERO,
            ("b", "c"): ZERO,
            ("a", "c"): far,
            ("c", "a"): far,
        },
    )
    pts = cat.points
    literal = literal_ball_topology(cat)
    built = ball_topology(cat)
    check_family(built, pts, literal)
    assert frozenset("ab") in built.opens and frozenset("bc") in built.opens
    assert frozenset("b") not in built.opens
    assert not built.validate()
    space = e_nabla(cat)
    check_family(metric_ball_topology(space), pts, literal_metric_ball_topology(space))
    assert not metric_ball_topology(space).validate()
    check_family(topology(space), pts, literal_topology(space))


def test_ball_family_needs_left_continuity():
    # m1 and m2 hold, but w(a, x) drops to 0 exactly at its cut t = 1, so x
    # enters the ball around a at t = 1 while y, in x's zero-head row, does
    # not: {a, x} and {x, y} are open, {x} is not
    space = StepModularSpace(
        ["a", "x", "y"],
        {
            ("a", "x"): StepFunction(2, [(1, 0, 0)]),
            ("a", "y"): StepFunction(2, [(1, 2, 0)]),
            ("x", "y"): ZERO,
            ("y", "x"): ZERO,
            ("x", "a"): BOTTOM,
            ("y", "a"): BOTTOM,
        },
    )
    report = check_axioms(space)
    assert report.m1 and report.m2 and not report.left_continuous
    cat = e_mod(space)
    built = ball_topology(cat)
    check_family(built, cat.points, literal_ball_topology(cat))
    assert frozenset("ax") in built.opens and frozenset("xy") in built.opens
    assert not built.validate()
    assert metric_ball_topology(space).validate()
    assert ball_topology(e_mod(regularize(space))).validate()
