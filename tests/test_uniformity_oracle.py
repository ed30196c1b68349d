"""The refinement verdict of ``check_quasi_uniformity_base`` against the
literal two-entourage definition.

The checker reports refinement from its proof: the entourages grow in t
and in eps, so U(min t, min e) refines any two.  The definition it stands for
asks, for every two grid parameters (t1, e1) and (t2, e2), that
U(min t, min e) lie inside both U(t1, e1) and U(t2, e2).  The oracle below
replays that definition on every pair of grid parameters.
"""

import random
from itertools import combinations_with_replacement

import pytest

from nablamod import (
    StepModularSpace,
    candidate_parameters,
    check_quasi_uniformity_base,
    chistyakov_example,
    entourage,
    random_scaled_space,
    random_step,
    triangle_closure,
)


def literal_refinement(space):
    t_cands, eps_cands = candidate_parameters(space)
    cands = [(t, e) for t in t_cands for e in eps_cands]
    pairs = [(x, y) for x in space.points for y in space.points]
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    # each entourage as a bit mask over the ordered pairs; both minima are
    # grid candidates, so every U below is one lookup
    ents = {c: sum(bit[p] for p in entourage(space, *c)) for c in cands}
    # the condition is symmetric in the two parameters, so unordered pairs
    return all(
        ents[(min(t1, t2), min(e1, e2))] & ~(ents[(t1, e1)] & ents[(t2, e2)]) == 0
        for (t1, e1), (t2, e2) in combinations_with_replacement(cands, 2)
    )


def step_table(rng, n, diagonal):
    pts = [f"p{i}" for i in range(n)]
    w = {
        (a, b): random_step(rng, max_cuts=1)
        for a in pts
        for b in pts
        if diagonal or a != b
    }
    return StepModularSpace(pts, w)


def spaces():
    rng = random.Random(2024)
    out = []
    for n in range(2, 6):
        out.append((f"closed{n}", triangle_closure(step_table(rng, n, False))))
        out.append((f"unclosed{n}", step_table(rng, n, True)))
        out.append((f"scaled{n}", random_scaled_space(rng, n)))
    for k in (1, 2, 3):
        out.append((f"chistyakov{k}", chistyakov_example(k)))
    return out


@pytest.mark.parametrize("name,space", spaces())
def test_refinement_matches_the_two_entourage_definition(name, space):
    report = check_quasi_uniformity_base(space)
    assert report.refinement == literal_refinement(space)
