"""``is_strongly_uniformly_continuous`` against its definition.

The grade asks that image distances at any parameter stay under the source
distance near parameter zero.  The oracle below is the literal check: the
source distance evaluated at half its first cut (below every source cut),
the image distance evaluated at every candidate t of the target, and no
image value above the source value.  The grader compares heads instead,
since both sides are largest on their initial piece.
"""

import random
from fractions import Fraction as F

from nablamod import (
    BOTTOM,
    ZERO,
    PointMap,
    StepFunction,
    StepModularSpace,
    candidate_parameters,
    chistyakov_example,
    eval_at,
    is_strongly_uniformly_continuous,
    random_closed_space,
    random_point_map,
    random_step,
    triangle_closure,
)


def literal_source_probe(space):
    cuts = [c.pos for f in space.all_homs() for c in f.cuts]
    return min(cuts) / 2 if cuts else F(1)


def literal_strongly_uniformly_continuous(m):
    s0 = literal_source_probe(m.source)
    t_cands, _ = candidate_parameters(m.target)
    for x in m.source.points:
        for y in m.source.points:
            bound = eval_at(m.source.w(x, y), s0)
            w2 = m.target.w(m(x), m(y))
            if any(eval_at(w2, t) > bound for t in t_cands):
                return False
    return True


SHAPES = [
    ZERO,
    BOTTOM,
    StepFunction(1),
    StepFunction(2, [(1, 1, 0)]),
    StepFunction(BOTTOM.head, [(F(1, 2), 3, 1)]),
]


def unclosed_table(rng, n):
    """Entries drawn from ``SHAPES`` and ``random_step``, diagonal included,
    so zero, bottom and broken diagonals all occur."""
    pts = [f"p{i}" for i in range(n)]
    return StepModularSpace(
        pts,
        {
            (a, b): rng.choice(SHAPES) if rng.random() < 0.5 else random_step(rng, max_cuts=2)
            for a in pts
            for b in pts
        },
    )


def shape_table(rng, n):
    """Off-diagonal entries drawn from ``SHAPES``, diagonal zero."""
    pts = [f"p{i}" for i in range(n)]
    return StepModularSpace(
        pts, {(a, b): rng.choice(SHAPES) for a in pts for b in pts if a != b}
    )


def two_point(ab, ba):
    return StepModularSpace(["a", "b"], {("a", "b"): ab, ("b", "a"): ba})


def test_strong_uniform_continuity_matches_the_literal_definition():
    rng = random.Random(9173)
    spaces = []
    for n in range(1, 5):
        spaces.append(random_closed_space(rng, n))
        spaces.append(unclosed_table(rng, n))
        spaces.append(triangle_closure(shape_table(rng, n)))
    spaces += [chistyakov_example(k) for k in (1, 2, 3)]
    verdicts = []
    for _ in range(400):
        m = random_point_map(rng, rng.choice(spaces), rng.choice(spaces))
        verdict = is_strongly_uniformly_continuous(m)
        assert verdict == literal_strongly_uniformly_continuous(m), m
        verdicts.append(verdict)
    for s in spaces:
        m = PointMap(s, s, {p: p for p in s.points})
        assert is_strongly_uniformly_continuous(m) is literal_strongly_uniformly_continuous(m)
        verdicts.append(is_strongly_uniformly_continuous(m))
    assert True in verdicts and False in verdicts


def test_a_target_cut_below_the_first_source_cut_is_still_seen():
    # The source's first cut is at 4, so its probe is 2.  The target drops
    # at 1/2: at the source probe it is already under the source, but near
    # zero it is not, and the verdict follows the values near zero.
    src = two_point(StepFunction(2, [(4, 1, 1)]), ZERO)
    high = two_point(StepFunction(3, [(F(1, 2), 3, 1)]), ZERO)
    low = two_point(StepFunction(2, [(F(1, 2), 1, 0)]), ZERO)
    ident = {"a": "a", "b": "b"}
    over = PointMap(src, high, ident)
    under = PointMap(src, low, ident)
    assert literal_source_probe(src) == 2
    assert eval_at(high.w("a", "b"), 2) < eval_at(src.w("a", "b"), 2)
    assert is_strongly_uniformly_continuous(over) is literal_strongly_uniformly_continuous(over)
    assert is_strongly_uniformly_continuous(over) is False
    assert is_strongly_uniformly_continuous(under) is literal_strongly_uniformly_continuous(under)
    assert is_strongly_uniformly_continuous(under) is True
