"""The slot form of a step table against ``eval_at``, its cache, and the
morphism graders that put their table pairs on one integer scale.

Every grid verdict of a step table reads its entries off one kept slot
form (``modular._SlotForm``): each entry's index in the pool (0 and the
attained finite values) on every slot between the pooled cut positions,
which is also its first candidate eps index, and where t / 2 and eps / 2
fall.  The oracles here are
the literal evaluations the form replaces: ``eval_at`` at every parameter
the grid verdicts locate, ``ball()`` at every radius for the ball side, and
the ``le_op`` loops the graders ran before.
"""

import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    NablaCategory,
    PointMap,
    StepFunction,
    StepModularSpace,
    ball,
    ball_topology,
    candidate_parameters,
    chistyakov_example,
    e_mod,
    e_nabla,
    eval_at,
    ext,
    is_lipschitz,
    is_nonexpansive,
    is_q_functor,
    is_uniformly_continuous,
    le_op,
    nonexpansive_violation,
    random_closed_space,
    random_point_map,
    regularize,
    time_rescale,
)
from nablamod.modular import _build_slot_form, _midpoints
from nablamod.stepfn import _int_table
from test_grid_rows import (
    STEP_SPACES,
    _first_tables,
    _nested_rows,
    cellwise_uniformly_continuous,
    literal_ball_topology,
    mask,
    pos_and_pool,
    slot,
)

EDGE_TABLES = [
    ("all_zero", StepModularSpace(["a", "b"], {("a", "b"): ZERO, ("b", "a"): ZERO})),
    ("no_cuts", StepModularSpace(["a", "b"], {("a", "b"): StepFunction(2), ("b", "a"): BOTTOM})),
    (
        "with_bottom",
        StepModularSpace(
            ["a", "b", "c"],
            {
                ("a", "b"): BOTTOM,
                ("b", "a"): StepFunction(INF, [(F(1, 2), 3, 1)]),
                ("a", "c"): StepFunction(INF, [(2, INF, F(1, 3))]),
                ("c", "a"): ZERO,
                ("b", "c"): StepFunction(5, [(1, 1, 0)]),
                ("c", "b"): BOTTOM,
            },
        ),
    ),
    ("one_point", StepModularSpace(["a"], {})),
]
TABLES = STEP_SPACES + EDGE_TABLES


def slot_value(form, pool, i, j, s):
    r = form.first[i][j][s]
    return INF if r == len(pool) else ext(pool[r])


def located_parameters(space):
    """Every parameter a grid verdict locates in the slot form, plus three
    off-grid points."""
    t_cands, eps_cands = candidate_parameters(space)
    chain = {
        -(-min(t, e).denominator // min(t, e).numerator) + 1
        for t in t_cands
        for e in eps_cands
    }
    pos = pos_and_pool(space)[0]
    past = (pos[-1] if pos else F(1)) + F(1, 7)
    return (
        list(t_cands)
        + [t / 2 for t in t_cands]
        + [F(1, n0) for n0 in sorted(chain)]
        + [F(1, 3), F(7), past]
    )


@pytest.mark.parametrize("name,space", TABLES)
def test_slot_values_match_eval_at(name, space):
    form = space._slot_form()
    pos, pool = pos_and_pool(space)
    pts = space.points
    assert len(form.first) == len(pts)
    for t in located_parameters(space):
        s = slot(pos, t)
        assert 0 <= s <= 2 * len(pos)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert slot_value(form, pool, i, j, s) == eval_at(space.w(a, b), t), (t, a, b)


@pytest.mark.parametrize("name,space", TABLES)
def test_candidates_come_from_the_form(name, space):
    form = space._slot_form()
    pos, pool = pos_and_pool(space)
    t_cands, eps_cands = candidate_parameters(space)
    # candidate t number s lies in slot s, and t / 2 in the form's half slot
    assert [slot(pos, t) for t in t_cands] == list(range(2 * len(pos) + 1))
    assert [slot(pos, t / 2) for t in t_cands] == form.half_slot
    # the literal definition: cuts, gap midpoints from 0, one past the last cut
    cuts = sorted({c.pos for f in space.all_homs() for c in f.cuts})
    expect_t = sorted(set(cuts) | set(_midpoints([F(0), *cuts])) | {cuts[-1] + 1}) if cuts else [1]
    assert list(t_cands) == expect_t
    homs = list(space.all_homs())
    attained = {v.as_fraction() for f in homs for v in f.attained_values() if not v.is_infinite}
    assert pool == sorted(attained | {F(0)})
    expect_e = _midpoints(pool) + [pool[-1] + 1] if len(pool) > 1 else [1]
    assert list(eps_cands) == expect_e
    # a pool value's index is its first candidate eps, and half_first is
    # the first candidate eps whose half lies above it
    assert [bisect_right(eps_cands, v) for v in pool] == list(range(len(pool)))
    half = [e / 2 for e in eps_cands]
    assert form.half_first == [bisect_right(half, v) for v in pool] + [len(pool)]


def test_ball_rows_at_finite_radii_and_ball_topology_match_ball():
    cat = e_mod(dict(EDGE_TABLES)["with_bottom"])
    pts = cat.points
    # through ball_topology: the literal open-ball topology, bottom included
    assert ball_topology(cat).opens == literal_ball_topology(cat)[1]
    # and per t at finite radii, where each ball is its center's row of the
    # entourage; the grid reads no infinite radius (ball() itself and the
    # first_well_below oracle of test_grid_rows keep that case)
    ts = [F(1, 4), F(1, 2), 1, 2, 3]
    eps = [F(1, 2), 2, 4]
    for t, first in zip(ts, _first_tables(cat, ts, eps)):
        for e, rows in zip(eps, _nested_rows(first, len(eps))):
            assert rows == [mask(ball(cat, z, t, e), pts) for z in pts], (t, e)


def test_uniform_continuity_reads_the_pullback_in_the_map_direction():
    # the pullback re-indexes the target's ranks through the map; reading a
    # target entry backwards flips both verdicts here
    src = StepModularSpace(["a", "b"], {("a", "b"): ZERO, ("b", "a"): StepFunction(1)})
    dst = StepModularSpace(["x", "y"], {("x", "y"): ZERO, ("y", "x"): BOTTOM})
    forward = PointMap(src, dst, {"a": "x", "b": "y"})
    backward = PointMap(src, dst, {"a": "y", "b": "x"})
    assert is_uniformly_continuous(forward) is cellwise_uniformly_continuous(forward) is True
    assert is_uniformly_continuous(backward) is cellwise_uniformly_continuous(backward) is False


def test_uniform_continuity_matches_the_cellwise_test_on_asymmetric_tables():
    rng = random.Random(2718)
    shapes = [ZERO, BOTTOM, StepFunction(1), StepFunction(2, [(1, 1, 0)])]

    def table(n):
        pts = [f"p{i}" for i in range(n)]
        return StepModularSpace(
            pts, {(a, b): rng.choice(shapes) for a in pts for b in pts if a != b}
        )

    verdicts = []
    for _ in range(60):
        m = random_point_map(rng, table(rng.randint(2, 4)), table(rng.randint(2, 4)))
        verdict = is_uniformly_continuous(m)
        assert verdict == cellwise_uniformly_continuous(m), m
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# The cache.


@pytest.mark.parametrize("name,space", TABLES)
def test_presentations_share_candidates_but_not_forms(name, space):
    # views made before any form is built: the same dict underneath, and
    # each view builds its own form later, with equal content
    space = StepModularSpace(space.points, dict(space._table))
    cat = e_mod(space)
    back = e_nabla(cat)
    assert cat._table is space._table is back._table
    assert candidate_parameters(space) == candidate_parameters(cat) == candidate_parameters(back)
    assert space._slot_form() is space._slot_form()
    forms = [space._slot_form(), cat._slot_form(), back._slot_form()]
    assert forms[0] is not forms[1] and forms[1] is not forms[2]
    assert forms[0] == forms[1] == forms[2]


@pytest.mark.parametrize("name,space", TABLES)
def test_presentations_share_one_table(name, space):
    # the space's slot form built first: both views return it by identity
    form = space._slot_form()
    cat = e_mod(space)
    back = e_nabla(cat)
    assert cat._slot_form() is form and back._slot_form() is form
    assert cat._int_form() is space._int_form() is back._int_form()
    assert cat._table is space._table is back._table
    assert candidate_parameters(space) == candidate_parameters(cat) == candidate_parameters(back)


def test_distinct_tables_never_see_each_others_form():
    s = chistyakov_example(3)
    r = regularize(s)
    other = random_closed_space(random.Random(5), 4)
    # build in one order, then compare each with a fresh build of its own
    for table in (s, r, other, s, e_mod(r)):
        assert table._slot_form() == _build_slot_form(*_int_table(table.points, table._entry))
    assert s._slot_form() != r._slot_form()  # r moved the at values of the jumps
    assert candidate_parameters(other) != candidate_parameters(s)


# ---------------------------------------------------------------------------
# The morphism graders against the literal le_op loops.


def literal_nonexpansive(m):
    return all(
        le_op(m.source.w(x, y), m.target.w(m(x), m(y)))
        for x in m.source.points
        for y in m.source.points
    )


def literal_functor(m):
    return all(
        le_op(m.source.hom(x, y), m.target.hom(m(x), m(y)))
        for x in m.source.points
        for y in m.source.points
    )


def literal_lipschitz(m):
    pairs = [
        (m.source.w(x, y), m.target.w(m(x), m(y)))
        for x in m.source.points
        for y in m.source.points
    ]
    ratios = {c2.pos / c1.pos for w1, w2 in pairs for c1 in w1.cuts for c2 in w2.cuts}
    cands = {F(1)}
    if ratios:
        sr = sorted(ratios)
        cands.update(sr)
        cands.update(_midpoints(sr))
        cands.add(sr[0] / 2)
        cands.add(sr[-1] + 1)
    else:
        cands.add(F(2))
    feasible = [
        k for k in sorted(cands) if all(le_op(w1, time_rescale(w2, k)) for w1, w2 in pairs)
    ]
    return (True, feasible[0]) if feasible else (False, None)


def point_maps():
    rng = random.Random(1609)
    out = []
    for _ in range(40):
        source = rng.choice(
            [
                random_closed_space(rng, rng.randint(1, 4)),
                chistyakov_example(rng.randint(1, 3)),
            ]
        )
        target = rng.choice(
            [
                random_closed_space(rng, rng.randint(1, 4)),
                regularize(source),
                source,
            ]
        )
        out.append(random_point_map(rng, source, target))
    for _ in range(10):
        s = random_closed_space(rng, 3)
        out.append(PointMap(s, s, {p: p for p in s.points}))
    return out


MAPS = point_maps()


def test_graders_match_the_literal_le_op_loops():
    nonexp, functor, lip = [], [], []
    for m in MAPS:
        verdict = is_nonexpansive(m)
        assert verdict == literal_nonexpansive(m), m
        assert (nonexpansive_violation(m) is None) == verdict, m
        nonexp.append(verdict)
        cm = PointMap(e_mod(m.source), e_mod(m.target), m.mapping)
        verdict = is_q_functor(cm)
        assert verdict == literal_functor(cm), m
        functor.append(verdict)
        verdict = is_lipschitz(m)
        assert verdict == literal_lipschitz(m), m
        lip.append(verdict[0])
    for verdicts in (nonexp, functor, lip):
        assert True in verdicts and False in verdicts


def test_graders_handle_infinite_and_mixed_scales():
    thirds = StepFunction(INF, [(F(1, 3), 5, F(2, 7))])
    fifths = StepFunction(INF, [(F(2, 5), INF, F(1, 5))])
    src = NablaCategory(["a", "b"], {("a", "b"): thirds, ("b", "a"): BOTTOM})
    dst = NablaCategory(["a", "b"], {("a", "b"): fifths, ("b", "a"): ZERO})
    for mapping in ({"a": "a", "b": "b"}, {"a": "b", "b": "a"}, {"a": "a", "b": "a"}):
        m = PointMap(src, dst, mapping)
        assert is_q_functor(m) == literal_functor(m)
        sm = PointMap(e_nabla(src), e_nabla(dst), mapping)
        assert is_nonexpansive(sm) == literal_nonexpansive(sm)
        assert is_lipschitz(sm) == literal_lipschitz(sm)
