"""``verify`` decides its topology lines from generators, not open sets.

``modular._presents(up, gens)`` answers "are the unions of ``gens`` exactly
the up-sets of the preorder with up-rows ``up``?" without building either
family: it holds iff every generator is an up-set and every up-row is a
generator.  The oracle is the union-closure ``modular._unions``, which
builds both families, so the lemma is checked here on random preorders and
generator sets, and the two verify lines against the family comparisons
they replace.
"""

import random
from fractions import Fraction as F
from functools import reduce
from operator import or_

from nablamod import (
    BOTTOM,
    ZERO,
    FinitePreorder,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    ball_topology,
    check_axioms,
    chistyakov_example,
    e_mod,
    metric_ball_topology,
    random_step,
    regularize,
    topology,
    triangle_closure,
    verify_topology_theorem,
)
from nablamod.modular import _neighborhood_masks, _presents, _specialization, _unions


def random_preorder(rng, n):
    pts = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for a in pts for b in pts if rng.random() < 0.2]
    return tuple(pts), FinitePreorder(pts, pairs)._up


def random_generators(rng, up):
    gens = [row for row in up if rng.random() < 0.85]
    # unions of up-rows are up-sets; an arbitrary mask usually is not
    for _ in range(rng.randint(0, 3)):
        gens.append(reduce(or_, (r for r in up if rng.random() < 0.4), 0))
    if rng.random() < 0.3:
        gens.append(rng.randrange(1 << len(up)))
    rng.shuffle(gens)
    return gens


def test_presents_matches_union_closure():
    rng = random.Random(4409)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        pts, up = random_preorder(rng, rng.randint(1, 6))
        gens = random_generators(rng, up)
        expected = _unions(pts, gens) == _unions(pts, up)
        assert _presents(up, gens) == expected, (up, gens)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 500, outcomes


def zero_rich(rng, n, broken_diagonal):
    pts = [f"p{i}" for i in range(n)]

    def entry():
        r = rng.random()
        return ZERO if r < 0.35 else BOTTOM if r < 0.45 else random_step(rng, max_cuts=2)

    w = {(a, b): entry() for a in pts for b in pts if a != b}
    if broken_diagonal:
        for a in pts:
            w[(a, a)] = rng.choice([ZERO, BOTTOM, StepFunction(1, [(1, 1, 0)]), entry()])
    return StepModularSpace(pts, w)


def random_scaled(rng, n):
    pts = [f"p{i}" for i in range(n)]
    d = {(a, b): F(rng.randint(0, 4), 2) for a in pts for b in pts if a != b}
    return ScaledModularSpace(pts, d)


def zero_head_line(space):
    return _presents(_specialization(space), _neighborhood_masks(space))


def test_verify_lines_match_the_family_comparisons():
    rng = random.Random(4421)
    ball_outcomes = {True: 0, False: 0}
    metric_outcomes = {True: 0, False: 0}
    spaces = []
    for _ in range(40):
        n = rng.randint(1, 5)
        closed = triangle_closure(zero_rich(rng, n, False))
        spaces += [closed, regularize(closed), zero_rich(rng, n, True), random_scaled(rng, n)]
    for space in spaces:
        expected = topology(space) == metric_ball_topology(space)
        assert zero_head_line(space) == expected
        metric_outcomes[expected] += 1
        if isinstance(space, StepModularSpace):
            expected = topology(space) == ball_topology(e_mod(space))
            assert verify_topology_theorem(space) == expected
            ball_outcomes[expected] += 1
    assert min(ball_outcomes.values()) >= 10, ball_outcomes
    assert min(metric_outcomes.values()) >= 10, metric_outcomes


def test_theorem_is_not_gated_on_points():
    # 52 points: topology() and ball_topology() refuse it, the theorem does not
    assert verify_topology_theorem(chistyakov_example(50))


def test_theorem_fails_without_left_continuity():
    # m1 and m2 hold, but w(a, x) drops to 0 at its cut, so the ball around
    # a at t = 1 takes x without y: the balls do not generate a topology
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
    assert not verify_topology_theorem(space)
    assert verify_topology_theorem(regularize(space))
