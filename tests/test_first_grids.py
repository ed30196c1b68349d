"""The entourage grid read one entry at a time, over every candidate t.

``modular._first_grids`` gives, for each entry, one list of first eps
indices over all candidate t (``f``) and one at t/2 over the halved eps
(``h``); ``check_quasi_uniformity_base`` reads its diagonal and its
bottleneck product off them, and ``qcat._balls`` the distinct rows of
``f``.  The references are the per-t first index tables those lists replace
(``_first_tables`` and ``_nested_rows`` of ``test_grid_rows``), the uniformity
check and the ball set as they were built from them, one table per t, and
the per-cell uniformity check of ``test_grid_rows``.  The cases are the
shapes where the lists are shortest or degenerate: one point (one j, so no
min over several legs), no cuts (t = 1 alone), BOTTOM entries and nonzero
diagonals, left jumps, Chistyakov's family and scaled spaces, plus seeded
failing tables.
"""

import random
from fractions import Fraction as F

import pytest

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    candidate_parameters,
    check_quasi_uniformity_base,
    chistyakov_example,
    e_mod,
    is_left_continuous,
    random_scaled_space,
    random_step,
    triangle_closure,
)
from nablamod.modular import QuasiUniformityReport, _first_grids
from nablamod.qcat import _balls
from test_grid_rows import _first_tables, _nested_rows, broken_scaled, cellwise_quasi_uniformity

JUMP = StepFunction(3, [(1, 0, 0)])  # drops at the cut itself: a left jump
LATE = StepFunction(INF, [(2, INF, F(1, 3))])


def table(pts, w):
    return StepModularSpace(list(pts), w)


NAMED = [
    ("one_point", table("a", {})),
    ("one_point_diagonal", table("a", {("a", "a"): StepFunction(1, [(1, 1, 0)])})),
    ("one_point_bottom", table("a", {("a", "a"): BOTTOM})),
    ("one_point_scaled", ScaledModularSpace(["a"], {("a", "a"): F(1, 2)})),
    ("no_cuts", table("ab", {("a", "b"): StepFunction(2), ("b", "a"): BOTTOM})),
    (
        "no_cuts_diagonal",
        table("abc", {(x, y): StepFunction(1) if x == y else ZERO for x in "abc" for y in "abc"}),
    ),
    # the diagonal fails and the composition holds
    (
        "diagonal_only",
        table("ab", {("a", "a"): StepFunction(1, [(1, 1, 0)]), ("a", "b"): BOTTOM, ("b", "a"): BOTTOM}),
    ),
    (
        "left_jumps",
        table(
            "abc",
            {
                ("a", "b"): JUMP,
                ("b", "a"): StepFunction(2, [(F(1, 2), 2, 1), (2, 0, 0)]),
                ("a", "c"): LATE,
                ("c", "a"): ZERO,
                ("b", "c"): JUMP,
                ("c", "b"): BOTTOM,
                ("c", "c"): StepFunction(INF, [(1, 1, 1)]),
            },
        ),
    ),
    ("scaled_zero", ScaledModularSpace(["a", "b"], {("a", "b"): F(0), ("b", "a"): F(0)})),
]
NAMED += [(f"chistyakov{k}", chistyakov_example(k)) for k in range(1, 11)]
NAMED += [(f"scaled{n}", random_scaled_space(random.Random(n), n)) for n in (2, 3, 5)]
NAMED += broken_scaled()


def failing_tables():
    """Seeded step tables of 1 to 6 points with BOTTOM and ZERO entries,
    left jumps and nonzero diagonals (some left out, so they default to
    ZERO), some closed under the triangle inequality."""
    rng = random.Random(31337)
    out = []
    for k in range(240):
        n = rng.randint(1, 6)
        pts = [f"p{i}" for i in range(n)]
        w = {}
        for a in pts:
            for b in pts:
                if a == b and rng.random() < 0.5:
                    continue
                r = rng.random()
                if r < 0.1:
                    w[(a, b)] = BOTTOM
                elif r < 0.2:
                    w[(a, b)] = ZERO
                elif r < 0.3:
                    w[(a, b)] = JUMP
                else:
                    w[(a, b)] = random_step(rng, max_cuts=rng.choice([0, 1, 2, 4]))
        if k % 5 == 4:
            w = {(a, b): f for (a, b), f in w.items() if a != b}
            out.append((f"closed{k}", triangle_closure(StepModularSpace(pts, w))))
        else:
            out.append((f"table{k}", StepModularSpace(pts, w)))
    return out


SEEDED = failing_tables()
CASES = NAMED + SEEDED
STEP_CASES = [(name, s) for name, s in CASES if isinstance(s, StepModularSpace)]


def per_t_quasi_uniformity(space):
    """The uniformity check as it was built from one first index table per
    candidate t: ``f`` at t, ``h`` at t/2, and one bottleneck product per t."""
    t_cands, eps_cands = candidate_parameters(space)
    pts = space.points
    half_eps = [eps / 2 for eps in eps_cands]
    halves = _first_tables(space, [t / 2 for t in t_cands], half_eps)
    diagonal, composition = [], []
    for t, f, h in zip(t_cands, _first_tables(space, t_cands, eps_cands), halves):
        diagonal += [
            f"diagonal: ({x}, {x}) escapes U(t={t}, eps={eps})"
            for k, eps in enumerate(eps_cands)
            for i, x in enumerate(pts)
            if k < f[i][i]
        ]
        cols = list(zip(*h))
        failing = set()
        for h_i, f_i in zip(h, f):
            for col, f_iz in zip(cols, f_i):
                failing.update(range(min(map(max, h_i, col)), f_iz))
        composition += [
            f"composition: U(t={t / 2}, eps={half_eps[k]}) squared "
            f"escapes U(t={t}, eps={eps_cands[k]})"
            for k in sorted(failing)
        ]
    entry = space.d if isinstance(space, ScaledModularSpace) else space.w
    symmetric = all(entry(x, y) == entry(y, x) for x in pts for y in pts)
    return QuasiUniformityReport(
        diagonal=not diagonal,
        refinement=True,
        composition=not composition,
        countable=True,
        symmetric=True if symmetric else None,
        violations=tuple(diagonal + composition),
    )


def per_t_balls(cat):
    """Every ball of the candidate grid: the nested rows of one first index
    table per candidate t."""
    t_cands, eps_cands = candidate_parameters(cat)
    m = len(eps_cands)
    return {
        row
        for first in _first_tables(cat, t_cands, eps_cands)
        for rows in _nested_rows(first, m)
        for row in rows
    }


@pytest.mark.parametrize("name,space", CASES)
def test_grids_are_the_per_t_tables_laid_along_t(name, space):
    (t_cands, eps_cands), f, h = _first_grids(space)
    assert (t_cands, eps_cands) == candidate_parameters(space)
    at_t = list(_first_tables(space, t_cands, eps_cands))
    at_half = list(_first_tables(space, [t / 2 for t in t_cands], [e / 2 for e in eps_cands]))
    n = len(space.points)
    for grid, tables in ((f, at_t), (h, at_half)):
        assert len(grid) == n and all(len(row) == n for row in grid)
        assert [[list(entry) for entry in row] for row in grid] == [
            [[tables[s][i][j] for s in range(len(t_cands))] for j in range(n)] for i in range(n)
        ]


@pytest.mark.parametrize("name,space", CASES)
def test_report_matches_the_per_t_check(name, space):
    assert check_quasi_uniformity_base(space) == per_t_quasi_uniformity(space)


@pytest.mark.parametrize("name,space", NAMED)
def test_report_matches_the_cellwise_check(name, space):
    assert check_quasi_uniformity_base(space) == cellwise_quasi_uniformity(space)


@pytest.mark.parametrize("name,space", STEP_CASES)
def test_balls_match_the_per_t_rows(name, space):
    cat = e_mod(space)
    assert _balls(cat) == per_t_balls(cat)


def test_the_cases_reach_every_branch():
    reports = {name: check_quasi_uniformity_base(s) for name, s in CASES}
    named = dict(NAMED)
    assert reports["diagonal_only"].composition and not reports["diagonal_only"].diagonal
    assert not reports["one_point_diagonal"].diagonal
    assert candidate_parameters(named["no_cuts"])[0] == (F(1),)
    assert any(not is_left_continuous(f) for f in named["left_jumps"].all_homs())
    seeded = [reports[name] for name, _ in SEEDED]
    assert sum(not r.diagonal for r in seeded) >= 100
    assert sum(not r.composition for r in seeded) >= 100
    assert sum(r.diagonal and not r.composition for r in seeded) >= 10
    assert sum(r.ok for r in seeded) >= 50
    # an empty ball (every least index above 0) and a full one both occur
    balls = [_balls(e_mod(s)) for _, s in STEP_CASES]
    assert any(0 in b for b in balls) and any(0 not in b for b in balls)
