"""The grid verdicts against per-t and per-cell oracles.

``check_quasi_uniformity_base`` and ``ball_topology`` read one list of first
eps indices per entry that covers every candidate t
(``modular._first_grids``), off each table's slot form: the uniformity
check by a bottleneck product over all t at once, the ball side as the rows
of the entourages.  ``topology`` and ``is_uniformly_continuous`` read the
finest grid entourage, the zero-head relation.  The oracles below are the
per-t first index tables those grids replaced (``_first_tables``, with
their rows ``_nested_rows`` and the one-t bisection ``slot``), and the
literal per-cell computations: ``neighborhood()`` and ``ball()`` at every
grid cell, ``well_below_fstep`` at every radius, and the per-(t, eps)
versions of the uniformity check (all five sweeps) and of the uniform
continuity test.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import accumulate
from operator import or_

import pytest

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    InputError,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    ball,
    ball_topology,
    candidate_parameters,
    check_quasi_uniformity_base,
    chistyakov_example,
    e_mod,
    e_nabla,
    eval_at,
    ext,
    is_uniformly_continuous,
    neighborhood,
    random_closed_space,
    random_point_map,
    random_scaled_space,
    random_step,
    topology,
    triangle_closure,
    well_below_fstep,
)
from nablamod.modular import QuasiUniformityReport, _neighborhood_masks


def pos_and_pool(space):
    """The pooled cut positions of a step table and its pool (0 and the
    finite values its entries attain), both ascending, read off its homs."""
    homs = list(space.all_homs())
    pos = sorted({c.pos for f in homs for c in f.cuts})
    attained = {v.as_fraction() for f in homs for v in f.attained_values() if not v.is_infinite}
    return pos, sorted(attained | {F(0)})


def slot(pos, t):
    """The slot holding the parameter ``t > 0`` among the cut positions
    ``pos``: 2c before cut c (counting from 0) or after cut c - 1, 2c + 1 on
    cut c itself, by one bisection."""
    t = F(t)
    c = bisect_left(pos, t)
    return 2 * c + 1 if c < len(pos) and pos[c] == t else 2 * c


def _nested_rows(first, m):
    """The rows, as bit masks ``rows[k][i]``, of ``m`` nested relations on
    n points, where entry (i, j) belongs to relation k exactly when
    ``k >= first[i][j]``: each entry is placed once, at its first index, and
    every row is a prefix OR over k of what was placed."""
    by_point = []
    for row in first:
        placed = [0] * (m + 1)
        for j, k in enumerate(row):
            placed[k] |= 1 << j
        by_point.append(accumulate(placed[:m], or_))
    return [list(rows) for rows in zip(*by_point)]


def _first_tables(space, ts, eps):
    """For each parameter of ``ts``, ``first[i][j]``: the index of the first
    ``e`` of the ascending ``eps`` with w(t, x_i, x_j) < e, or ``len(eps)``
    if there is none (:func:`_nested_rows` gives its rows).  A step table
    locates t by one bisection over its cuts and maps each entry's pool
    index on that slot of its slot form through one bisection per pool
    value; a scaled table places each w(t) by one bisection."""
    es = [ext(e) for e in eps]
    if isinstance(space, ScaledModularSpace):
        pts = space.points
        for t in ts:
            yield [[bisect_right(es, space.w_at(t, a, b)) for b in pts] for a in pts]
        return
    form = space._slot_form()
    pos, pool = pos_and_pool(space)
    # infinity, the last index, lies below no e
    th = [bisect_right(es, ext(v)) for v in pool] + [len(es)]
    for t in ts:
        s = slot(pos, t)
        yield [[th[r[s]] for r in row] for row in form.first]


def _entourage_grid(space, t, eps):
    """The rows of U(t, e) for every ``e`` of the ascending ``eps``, as
    ``rows[k][i]``: the nested rows of the one-t first index table."""
    return _nested_rows(next(_first_tables(space, [F(t)], eps)), len(eps))


def first_well_below(t, eps, g):
    """The first index ``k`` with ``well_below_fstep(t, eps[k], g)``, or
    ``len(eps)``, for radius values ``eps`` in ascending order (infinity
    last).  The test is monotone in ``eps``, so one evaluation of ``g`` at
    ``t`` and one bisection decide it for the whole list; at ``eps = inf``
    the bottom element is still the one function that is not well below.
    The per-radius reference for the ball side, which reads its category's
    slot form instead."""
    t_f = F(t)
    if t_f.numerator <= 0:
        raise InputError(f"threshold must be positive, got {t_f}")
    if eps and eps[0] == ext(0):
        raise InputError("radius value must be positive")
    v = eval_at(g, t_f)
    if not v.is_infinite:
        return bisect_right(eps, v)
    return len(eps) if g == BOTTOM else bisect_left(eps, INF)


def step_table(rng, n, diagonal, max_cuts=2):
    pts = [f"p{i}" for i in range(n)]
    w = {
        (a, b): random_step(rng, max_cuts=max_cuts)
        for a in pts
        for b in pts
        if diagonal or a != b
    }
    return StepModularSpace(pts, w)


def spaces():
    rng = random.Random(4051)
    out = []
    for n in range(1, 6):
        out.append((f"closed{n}", triangle_closure(step_table(rng, n, False))))
        out.append((f"unclosed{n}", step_table(rng, n, True)))
        out.append((f"scaled{n}", random_scaled_space(rng, n)))
    sym = {}
    for a, b in [("a", "b"), ("a", "c"), ("b", "c")]:
        sym[(a, b)] = sym[(b, a)] = random_step(rng, max_cuts=2)
    out.append(("symmetric3", StepModularSpace(["a", "b", "c"], sym)))
    # symmetric except on one pair away from the first point
    near = {(a, b): StepFunction(1, [(1, 0, 0)]) for a in "abcd" for b in "abcd" if a != b}
    near[("c", "d")] = StepFunction(2, [(1, 1, 0)])
    out.append(("nearly_symmetric4", StepModularSpace(list("abcd"), near)))
    for k in (1, 2, 3):
        out.append((f"chistyakov{k}", chistyakov_example(k)))
    return out


def broken_scaled():
    """Seeded scaled tables with zeros and far-apart distances, so the
    triangle inequality breaks and U(t/2, eps/2) squared escapes U(t, eps)
    somewhere, and one with a nonzero self-distance as well: the scaled
    branch of the composition check.  Kept out of ``SPACES`` so that the
    cases built on it keep their ids."""
    rng = random.Random(9173)
    out = []
    for n in (3, 4, 5):
        pts = [f"p{i}" for i in range(n)]
        off = [(a, b) for a in pts for b in pts if a != b]
        d = {pair: F(rng.choice([0, 0, 1, 3, 9]), rng.randint(1, 3)) for pair in off}
        out.append((f"scaled_broken{n}", ScaledModularSpace(pts, d)))
    d = {(a, b): F(rng.choice([0, 1, 5]), 2) for a in "abc" for b in "abc"}
    out.append(("scaled_self_distance3", ScaledModularSpace(list("abc"), d)))
    return out


SPACES = spaces()
STEP_SPACES = [(name, s) for name, s in SPACES if isinstance(s, StepModularSpace)]
UNIFORMITY_CASES = SPACES + broken_scaled()


def mask(members, pts):
    return sum(1 << i for i, p in enumerate(pts) if p in members)


@pytest.mark.parametrize("name,space", UNIFORMITY_CASES)
def test_rows_match_neighborhood_at_every_cell(name, space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    for t in t_cands:
        rows = _entourage_grid(space, t, eps_cands)
        assert len(rows) == len(eps_cands)
        for eps, by_point in zip(eps_cands, rows):
            assert by_point == [
                mask(neighborhood(space, x, t, eps), pts) for x in pts
            ], (t, eps)


@pytest.mark.parametrize("name,space", SPACES)
def test_rows_match_neighborhood_at_attained_radii(name, space):
    # radii equal to the values the table takes at t: no value is below itself
    pts = space.points
    for t in candidate_parameters(space)[0] + (F(1, 3), 7):
        at_t = {w_at(space, x, y, t) for x in pts for y in pts}
        eps = sorted({v.as_fraction() for v in at_t if not v.is_infinite} - {0} | {F(1, 4), 5})
        rows = _entourage_grid(space, t, eps)
        for e, by_point in zip(eps, rows):
            assert by_point == [mask(neighborhood(space, x, t, e), pts) for x in pts], (t, e)


def minimal(masks):
    return sorted(m for m in masks if not any(o != m and o & m == o for o in masks))


@pytest.mark.parametrize("name,space", SPACES)
def test_neighborhood_masks_and_topology_match_neighborhood(name, space):
    pts = space.points
    t_cands, eps_cands = candidate_parameters(space)
    literal = [
        minimal({mask(neighborhood(space, x, t, e), pts) for t in t_cands for e in eps_cands})
        for x in pts
    ]
    assert [[m] for m in _neighborhood_masks(space)] == literal
    opens = frozenset(
        frozenset(p for i, p in enumerate(pts) if g >> i & 1)
        for g in range(1 << len(pts))
        if all(any(m & ~g == 0 for m in literal[i]) for i in range(len(pts)) if g >> i & 1)
    )
    assert topology(space).opens == opens


def literal_ball_topology(cat):
    """The open-ball base from ``ball()`` at every grid cell and center, and
    the open sets by the definition: every member lies in a base member
    inside the set."""
    pts = cat.points
    t_cands, eps_cands = candidate_parameters(e_nabla(cat))
    base = {
        mask(ball(cat, z, t, eps), pts)
        for t in t_cands
        for eps in eps_cands
        for z in pts
    }
    opens = set()
    for g in range(1 << len(pts)):
        if all(
            any(b >> i & 1 and b & ~g == 0 for b in base)
            for i in range(len(pts))
            if g >> i & 1
        ):
            opens.add(frozenset(p for i, p in enumerate(pts) if g >> i & 1))
    return base, frozenset(opens)


@pytest.mark.parametrize("name,space", STEP_SPACES)
def test_ball_topology_matches_literal_balls(name, space):
    cat = e_mod(space)
    pts = cat.points
    base, opens = literal_ball_topology(cat)
    assert ball_topology(cat).opens == opens
    # the per-t rows the ball side builds are exactly the literal balls
    t_cands, eps_cands = candidate_parameters(space)
    eps = [ext(e) for e in eps_cands]
    rows_base = set()
    for t in t_cands:
        first = [[first_well_below(t, eps, cat.hom(z, y)) for y in pts] for z in pts]
        rows = _nested_rows(first, len(eps))
        for e, by_center in zip(eps_cands, rows):
            assert by_center == [mask(ball(cat, z, t, e), pts) for z in pts], (t, e)
            rows_base.update(by_center)
    assert rows_base == base


def test_first_well_below_matches_well_below_fstep_at_every_index():
    rng = random.Random(811)
    funcs = [ZERO, BOTTOM, StepFunction(INF, [(1, 2, 0)]), StepFunction(INF, [(2, INF, 1)])]
    funcs += [random_step(rng, max_cuts=4) for _ in range(60)]
    radii = [ext(F(k, 4)) for k in range(1, 21)]
    ts = [F(1, 8), F(1, 4), F(1, 2), 1, F(3, 2), 2, F(17, 4), 8, 9]
    for g in funcs:
        for t in ts:
            for eps in (
                radii,
                radii + [INF],
                [INF],
                [],
                sorted(rng.sample(radii, 5)),
                sorted(rng.sample(radii, 3)) + [INF],
            ):
                k = first_well_below(t, eps, g)
                assert 0 <= k <= len(eps)
                for j, e in enumerate(eps):
                    assert well_below_fstep(t, e, g) == (j >= k), (g, t, eps, j, k)


def test_first_well_below_keeps_the_infinite_radius_cases():
    # bottom is not well below the bottom radius; anything else is, even
    # when it is still infinite at t
    late = StepFunction(INF, [(5, 3, 3)])
    assert first_well_below(1, [ext(1), INF], BOTTOM) == 2
    assert first_well_below(1, [ext(1), INF], late) == 1
    assert first_well_below(6, [ext(1), INF], late) == 1
    assert first_well_below(6, [ext(1), ext(4), INF], late) == 1
    assert first_well_below(1, [INF], ZERO) == 0
    assert first_well_below(1, [ext(F(1, 2))], ZERO) == 0
    assert first_well_below(1, [], ZERO) == 0


def test_first_well_below_refuses_what_well_below_fstep_refuses():
    with pytest.raises(InputError, match="threshold must be positive"):
        first_well_below(0, [ext(1)], ZERO)
    with pytest.raises(InputError, match="radius value must be positive"):
        first_well_below(1, [ext(0), ext(1)], ZERO)


# ---------------------------------------------------------------------------
# The per-(t, eps) uniformity check, as it was before the row kernel.


def w_at(space, a, b, t):
    if isinstance(space, ScaledModularSpace):
        return space.w_at(t, a, b)
    return eval_at(space.w(a, b), t)


def cell_rows(space, t, eps, cache):
    key = (t, eps)
    rows = cache.get(key)
    if rows is not None:
        return rows
    pts = space.points
    n = len(pts)
    evals = cache.get(("evals", t))
    if evals is None:
        evals = [[w_at(space, a, b, t) for b in pts] for a in pts]
        cache[("evals", t)] = evals
    e = ext(eps)
    rows = []
    for i in range(n):
        row = evals[i]
        m = 0
        for j in range(n):
            if row[j] < e:
                m |= 1 << j
        rows.append(m)
    cache[key] = rows
    return rows


def cellwise_quasi_uniformity(space):
    t_cands, eps_cands = candidate_parameters(space)
    pts = space.points
    n = len(pts)
    cache = {}
    violations = []

    diagonal = True
    for t in t_cands:
        for eps in eps_cands:
            rows = cell_rows(space, t, eps, cache)
            for i in range(n):
                if not rows[i] >> i & 1:
                    diagonal = False
                    violations.append(
                        f"diagonal: ({pts[i]}, {pts[i]}) escapes U(t={t}, eps={eps})"
                    )

    refinement = True
    for eps in eps_cands:
        prev = None
        for t in t_cands:
            rows = cell_rows(space, t, eps, cache)
            if prev is not None and any(p & ~r for p, r in zip(prev, rows)):
                refinement = False
                violations.append(f"refinement: not monotone in t at eps={eps}")
            prev = rows
    for t in t_cands:
        prev = None
        for eps in eps_cands:
            rows = cell_rows(space, t, eps, cache)
            if prev is not None and any(p & ~r for p, r in zip(prev, rows)):
                refinement = False
                violations.append(f"refinement: not monotone in eps at t={t}")
            prev = rows

    composition = True
    for t in t_cands:
        for eps in eps_cands:
            full = cell_rows(space, t, eps, cache)
            half = cell_rows(space, t / 2, eps / 2, cache)
            for i in range(n):
                acc = 0
                m = half[i]
                while m:
                    j = (m & -m).bit_length() - 1
                    m &= m - 1
                    acc |= half[j]
                if acc & ~full[i]:
                    composition = False
                    violations.append(
                        f"composition: U(t={t / 2}, eps={eps / 2}) squared "
                        f"escapes U(t={t}, eps={eps})"
                    )
                    break

    countable = True
    for t in t_cands:
        for eps in eps_cands:
            bound = min(t, eps)
            n0 = (1 / bound).__ceil__() + 1
            small = cell_rows(space, F(1, n0), F(1, n0), cache)
            full = cell_rows(space, t, eps, cache)
            if any(s & ~f for s, f in zip(small, full)):
                countable = False
                violations.append(
                    f"countable: U(1/{n0}, 1/{n0}) escapes U(t={t}, eps={eps})"
                )

    symmetric = None
    entry = space.d if isinstance(space, ScaledModularSpace) else space.w
    if all(entry(x, y) == entry(y, x) for x in pts for y in pts):
        symmetric = True
        for t in t_cands:
            for eps in eps_cands:
                rows = cell_rows(space, t, eps, cache)
                for i in range(n):
                    for j in range(n):
                        if bool(rows[i] >> j & 1) != bool(rows[j] >> i & 1):
                            symmetric = False
                            violations.append(
                                f"symmetry: U(t={t}, eps={eps}) is asymmetric "
                                f"on ({pts[i]}, {pts[j]})"
                            )

    return QuasiUniformityReport(
        diagonal=diagonal,
        refinement=refinement,
        composition=composition,
        countable=countable,
        symmetric=symmetric,
        violations=tuple(violations),
    )


@pytest.mark.parametrize("name,space", UNIFORMITY_CASES)
def test_uniformity_report_matches_the_cellwise_check(name, space):
    assert check_quasi_uniformity_base(space) == cellwise_quasi_uniformity(space)


def test_the_uniformity_cases_include_failures_and_symmetric_spaces():
    reports = [check_quasi_uniformity_base(s) for _, s in UNIFORMITY_CASES]
    assert any(r.violations for r in reports)
    assert any(not r.diagonal for r in reports)
    # composition fails on both branches: a step table and a scaled one
    kinds = {type(s) for (_, s), r in zip(UNIFORMITY_CASES, reports) if not r.composition}
    assert kinds == {StepModularSpace, ScaledModularSpace}
    assert any(r.symmetric is True for r in reports)
    assert any(r.symmetric is None for r in reports)


# ---------------------------------------------------------------------------
# Uniform continuity, as it was before the row kernel.


def cellwise_uniformly_continuous(m):
    s_t, s_e = candidate_parameters(m.source)
    t_t, t_e = candidate_parameters(m.target)
    spts = m.source.points
    n = len(spts)
    finest = cell_rows(m.source, min(s_t), min(s_e), {})
    for t2 in t_t:
        evals = [[eval_at(m.target.w(m(a), m(b)), t2) for b in spts] for a in spts]
        for e2 in t_e:
            e = ext(e2)
            for i in range(n):
                pre = 0
                for j in range(n):
                    if evals[i][j] < e:
                        pre |= 1 << j
                if finest[i] & ~pre:
                    return False
    return True


def test_uniform_continuity_matches_the_cellwise_test():
    rng = random.Random(613)
    sources = [s for _, s in SPACES]
    verdicts = []
    for source in sources:
        for _ in range(3):
            target = rng.choice(
                [
                    random_closed_space(rng, rng.randint(1, 4)),
                    step_table(rng, rng.randint(1, 4), True),
                    chistyakov_example(rng.randint(1, 2)),
                ]
            )
            m = random_point_map(rng, source, target)
            verdict = is_uniformly_continuous(m)
            assert verdict == cellwise_uniformly_continuous(m), (source, target, m)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
