"""The finest grid entourage, which the topology and the continuity grades
read instead of the whole candidate grid.

Every step function is non-increasing, and so is d / t, so the entourage
U(t, eps) grows in t and in eps.  The least candidate t lies below every
cut and the least candidate eps below every positive attained value, so the
finest grid entourage U(min t, min eps) is the zero-head relation
{(x, y) : head(w(x, y)) = 0} (for scaled spaces, d(x, y) = 0).  The oracles
here are the literal ``neighborhood`` at the least grid cell and
``entourage`` at every grid cell.
"""

from fractions import Fraction as F

import pytest

from nablamod import (
    BOTTOM,
    ZERO,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    candidate_parameters,
    entourage,
    isolated_points,
    neighborhood,
    topology,
)
from nablamod.modular import _neighborhood_masks
from test_grid_rows import SPACES, mask, minimal

EXTRA = [
    (
        "bottom_and_diagonals",
        StepModularSpace(
            ["a", "b", "c"],
            {
                ("a", "a"): StepFunction(1, [(F(1, 3), 1, 0)]),
                ("b", "b"): BOTTOM,
                ("a", "b"): BOTTOM,
                ("b", "a"): ZERO,
                ("a", "c"): StepFunction(BOTTOM.head, [(2, 5, 0)]),
                ("c", "a"): StepFunction(2, [(F(1, 8), 1, 1)]),
                ("b", "c"): ZERO,
                ("c", "b"): BOTTOM,
            },
        ),
    ),
    (
        "all_bottom",
        StepModularSpace(["a", "b"], {("a", "b"): BOTTOM, ("b", "a"): BOTTOM}),
    ),
    ("one_point_bottom", StepModularSpace(["a"], {("a", "a"): BOTTOM})),
    (
        "scaled_diagonal",
        ScaledModularSpace(
            ["a", "b", "c"],
            {
                ("a", "a"): F(1, 2),
                ("a", "b"): 0,
                ("b", "a"): 3,
                ("a", "c"): 1,
                ("c", "a"): 0,
                ("b", "c"): 2,
                ("c", "b"): F(5, 4),
            },
        ),
    ),
]
CASES = SPACES + EXTRA


def zero_pairs(space):
    """The zero-head relation, from its definition."""
    pts = space.points
    if isinstance(space, ScaledModularSpace):
        return {(x, y) for x in pts for y in pts if space.d(x, y) == 0}
    return {(x, y) for x in pts for y in pts if space.w(x, y).head == ZERO.head}


@pytest.mark.parametrize("name,space", CASES)
def test_zero_head_row_is_the_least_grid_neighborhood(name, space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    zero = zero_pairs(space)
    rows = [mask({y for y in pts if (x, y) in zero}, pts) for x in pts]
    least = [mask(neighborhood(space, x, min(t_cands), min(eps_cands)), pts) for x in pts]
    assert rows == least
    assert _neighborhood_masks(space) == rows


@pytest.mark.parametrize("name,space", CASES)
def test_zero_head_relation_lies_in_every_grid_entourage(name, space):
    zero = zero_pairs(space)
    t_cands, eps_cands = candidate_parameters(space)
    for t in t_cands:
        for eps in eps_cands:
            assert zero <= entourage(space, t, eps), (t, eps)


@pytest.mark.parametrize("name,space", EXTRA)
def test_topology_of_the_extra_tables_matches_every_grid_neighborhood(name, space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    literal = [
        minimal({mask(neighborhood(space, x, t, e), pts) for t in t_cands for e in eps_cands})
        for x in pts
    ]
    opens = frozenset(
        frozenset(p for i, p in enumerate(pts) if g >> i & 1)
        for g in range(1 << len(pts))
        if all(any(m & ~g == 0 for m in literal[i]) for i in range(len(pts)) if g >> i & 1)
    )
    assert topology(space).opens == opens
    assert isolated_points(space) == {p for i, p in enumerate(pts) if 1 << i in literal[i]}
