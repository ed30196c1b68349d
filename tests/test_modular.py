"""Tests for finite modular spaces: axioms, topologies, induced distances,
the entourage base, morphism grades, and the file format."""

import random
from fractions import Fraction as F

import pytest

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    ContractError,
    InputError,
    ParseError,
    PointMap,
    ResourceBoundError,
    ScaledModularSpace,
    StepFunction,
    StepModularSpace,
    candidate_parameters,
    check_axioms,
    check_quasi_uniformity_base,
    chistyakov_example,
    entourage,
    eval_at,
    ext,
    f_step,
    format_space,
    from_gauge,
    induced_distance,
    is_lipschitz,
    is_nonexpansive,
    is_strongly_uniformly_continuous,
    is_uniformly_continuous,
    isolated_points,
    le_op,
    metric_ball_topology,
    neighborhood,
    nonexpansive_violation,
    parse_space,
    random_closed_space,
    random_point_map,
    random_scaled_space,
    regularize,
    scaled_induced_distance,
    scaled_lipschitz_classic,
    scaled_lipschitz_modular,
    scaled_strongly_uniformly_continuous,
    standard_modular,
    topology,
    triangle_closure,
)
from nablamod.modular import FiniteTopology

DROP = StepFunction(1, [(1, 0, 0)])  # 1 on (0,1), 0 from 1 on
KEEP = StepFunction(1, [(1, 1, 0)])  # 1 on (0,1], 0 after


def two_point(wab, wba=None):
    wba = wab if wba is None else wba
    return StepModularSpace(["a", "b"], {("a", "b"): wab, ("b", "a"): wba})


# ---------------------------------------------------------------------------
# Construction.


def test_diagonal_defaults_to_zero():
    s = two_point(f_step(1, 1))
    assert s.w("a", "a") == ZERO
    assert s.w("b", "b") == ZERO


def test_missing_pair_is_rejected():
    with pytest.raises(InputError):
        StepModularSpace(["a", "b"], {("a", "b"): ZERO})
    with pytest.raises(InputError):
        ScaledModularSpace(["a", "b"], {("a", "b"): 1})


def test_unknown_point_in_table():
    with pytest.raises(InputError):
        StepModularSpace(["a"], {("a", "q"): ZERO})


def test_corrupted_spaces_are_constructible():
    # nonzero diagonal and asymmetry must get past the constructor so the
    # checker has something to report
    s = StepModularSpace(
        ["a", "b"],
        {("a", "a"): f_step(1, 1), ("a", "b"): ZERO, ("b", "a"): BOTTOM},
    )
    rep = check_axioms(s)
    assert not rep.m1
    assert not rep.m4


# ---------------------------------------------------------------------------
# Axioms.


def test_chistyakov_axiom_profile():
    rep = check_axioms(chistyakov_example(3))
    assert rep.m1 and rep.m2 and rep.m3 and rep.m4
    assert not rep.left_continuous


def test_chistyakov_table_spot_values():
    s = chistyakov_example(3)
    assert eval_at(s.w("x", "y"), 1) == ext(0)
    assert eval_at(s.w("x", "z1"), 1) == ext(1)
    assert eval_at(s.w("x", "z1"), F(3, 2)) == ext(0)
    assert eval_at(s.w("y", "z3"), F(1, 2)) == ext(F(1, 3))
    assert s.w("z2", "z3").head == ext(F(1, 2))
    assert s.w("z2", "z3") == s.w("z3", "z2")
    assert s.w("x", "x") == ZERO


def test_chistyakov_size_gate():
    with pytest.raises(InputError):
        chistyakov_example(0)
    with pytest.raises(InputError):
        chistyakov_example(201)


def test_separation_and_symmetry_failures_detected():
    both_zero = two_point(ZERO, ZERO)
    assert not check_axioms(both_zero).m3
    asym = two_point(f_step(1, 1), ZERO)
    rep = check_axioms(asym)
    assert rep.m3
    assert not rep.m4


def test_split_triangle_violation_detected():
    # going through b would cost nothing, but the direct distance is 1
    s = StepModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): ZERO,
            ("b", "c"): ZERO,
            ("a", "c"): StepFunction(1),
            ("b", "a"): ZERO,
            ("c", "b"): ZERO,
            ("c", "a"): StepFunction(1),
        },
    )
    assert not check_axioms(s).m2


def test_scaled_axioms_exact_boundary():
    # the split triangle bound for d/t distances is (sqrt(d1)+sqrt(d2))^2;
    # with d1=1, d2=4 the bound is exactly 9
    def space(d13):
        return ScaledModularSpace(
            ["x", "y", "z"],
            {
                ("x", "y"): 1,
                ("y", "x"): 1,
                ("y", "z"): 4,
                ("z", "y"): 4,
                ("x", "z"): d13,
                ("z", "x"): d13,
            },
        )

    assert check_axioms(space(7)).m2  # above plain triangle, below the bound
    assert check_axioms(space(9)).m2  # exactly on the bound
    assert not check_axioms(space(F(37, 4))).m2  # just above it


def test_standard_modular_validates_quasi_pseudometric():
    with pytest.raises(InputError):
        standard_modular(
            ["x", "y", "z"],
            {
                ("x", "y"): 1,
                ("y", "x"): 1,
                ("y", "z"): 1,
                ("z", "y"): 1,
                ("x", "z"): 5,
                ("z", "x"): 5,
            },
        )
    s = standard_modular(["x", "y"], {("x", "y"): 3, ("y", "x"): 1})
    rep = check_axioms(s)
    assert rep.m1 and rep.m2 and rep.m3 and rep.left_continuous
    assert not rep.m4
    assert s.w_at(2, "x", "y") == ext(F(3, 2))


def test_random_scaled_spaces_satisfy_the_axioms():
    rng = random.Random(3)
    for _ in range(20):
        s = random_scaled_space(rng, rng.randint(2, 5))
        rep = check_axioms(s)
        assert rep.m1 and rep.m2 and rep.left_continuous


# ---------------------------------------------------------------------------
# Regularization and closure.


def test_regularize_chistyakov():
    s = chistyakov_example(2)
    r = regularize(s)
    assert s.w("x", "y") == DROP
    assert r.w("x", "y") == KEEP  # the at-value rises to the left limit
    assert r.w("x", "z1") == s.w("x", "z1") == KEEP  # already left-continuous
    rep = check_axioms(r)
    assert rep.m1 and rep.m2 and rep.left_continuous


def test_triangle_closure_frozen_example():
    s = StepModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): f_step(1, 1),
            ("b", "a"): f_step(1, 1),
            ("b", "c"): f_step(1, 1),
            ("c", "b"): f_step(1, 1),
            ("a", "c"): BOTTOM,
            ("c", "a"): BOTTOM,
        },
    )
    cl = triangle_closure(s)
    assert cl.w("a", "c") == f_step(2, 2)
    assert check_axioms(cl).m2


def test_triangle_closure_is_decreasing_and_idempotent():
    rng = random.Random(17)
    pts = ["a", "b", "c", "d"]
    w = {(x, y): StepFunction(INF, []) for x in pts for y in pts if x != y}
    from nablamod import random_step

    w = {(x, y): random_step(rng) for x in pts for y in pts if x != y}
    s = StepModularSpace(pts, w)
    cl = triangle_closure(s)
    for x in pts:
        for y in pts:
            assert le_op(s.w(x, y), cl.w(x, y))  # closure only lowers values
    assert triangle_closure(cl) == cl


def test_triangle_closure_rejects_nonzero_diagonal():
    s = StepModularSpace(
        ["a", "b"],
        {("a", "a"): f_step(1, 1), ("a", "b"): ZERO, ("b", "a"): ZERO},
    )
    with pytest.raises(InputError):
        triangle_closure(s)


def test_chistyakov_is_not_a_closure_fixpoint():
    # the boundary-inclusive path through y undercuts w(x, z2) at the cut
    # itself, while the strict-split axiom never sees that point
    s = chistyakov_example(2)
    cl = triangle_closure(s)
    assert eval_at(s.w("x", "z2"), 1) == ext(1)
    assert eval_at(cl.w("x", "z2"), 1) == ext(F(1, 2))
    assert cl != s


def test_random_closed_spaces_satisfy_m1_m2():
    rng = random.Random(29)
    for _ in range(15):
        s = random_closed_space(rng, rng.randint(2, 5))
        rep = check_axioms(s)
        assert rep.m1 and rep.m2


# ---------------------------------------------------------------------------
# Candidates, neighborhoods, topologies.


def test_candidate_parameters_step_shape():
    s = two_point(f_step(2, 1))
    t_cands, eps_cands = candidate_parameters(s)
    assert F(1) in t_cands  # midpoint of the gap below the first cut
    assert F(2) in t_cands
    assert F(3) in t_cands
    assert eps_cands == (F(1, 2), F(2))


def test_candidate_parameters_scaled_shape():
    s = standard_modular(["x", "y"], {("x", "y"): 4, ("y", "x"): 1})
    t_cands, eps_cands = candidate_parameters(s)
    assert t_cands == (F(1),)
    assert eps_cands == (F(1, 2), F(5, 2), F(5))


def test_neighborhood_frozen_values():
    s = chistyakov_example(3)
    assert neighborhood(s, "x", F(1, 2), F(1, 2)) == {"x"}
    assert neighborhood(s, "y", F(1, 2), F(1, 6)) == {"y"}
    assert neighborhood(s, "x", 2, F(1, 2)) == frozenset(s.points)
    ent = entourage(s, F(1, 2), F(1, 2))
    assert all((p, p) in ent for p in s.points)
    assert ("x", "y") not in ent


def test_neighborhood_probes_beyond_candidates_change_nothing():
    # the candidate grid is supposed to be exhaustive: any (t, eps) yields
    # a neighborhood already realized on the grid
    rng = random.Random(31)
    for _ in range(8):
        s = random_closed_space(rng, rng.randint(2, 4))
        t_cands, eps_cands = candidate_parameters(s)
        realized = {
            x: {neighborhood(s, x, t, e) for t in t_cands for e in eps_cands}
            for x in s.points
        }
        for _ in range(60):
            t = F(rng.randint(1, 160), 8)
            e = F(rng.randint(1, 80), 16)
            for x in s.points:
                assert neighborhood(s, x, t, e) in realized[x]


def test_topology_validates_and_sierpinski_shape():
    s = two_point(f_step(1, 1), ZERO)
    t = topology(s)
    assert t.validate()
    assert t.opens == frozenset(
        [frozenset(), frozenset(["a"]), frozenset(["a", "b"])]
    )
    assert metric_ball_topology(s) == t


def test_finite_topology_validate_rejects_junk():
    bad = FiniteTopology(
        points=("a", "b", "c"),
        opens=frozenset(
            [
                frozenset(),
                frozenset(["a"]),
                frozenset(["b"]),
                frozenset(["a", "b", "c"]),
            ]
        ),
    )
    assert not bad.validate()  # {a} | {b} is missing


def test_topologies_agree_on_closed_spaces():
    rng = random.Random(37)
    for _ in range(10):
        s = random_closed_space(rng, rng.randint(2, 5))
        t = topology(s)
        b = metric_ball_topology(s)
        assert t.validate() and b.validate()
        assert t == b


def test_topologies_agree_on_scaled_spaces():
    rng = random.Random(41)
    for _ in range(10):
        s = random_scaled_space(rng, rng.randint(2, 5))
        assert topology(s) == metric_ball_topology(s)


def test_chistyakov_topologies_discrete_and_equal():
    for n in (2, 3, 4):
        s = chistyakov_example(n)
        t = topology(s)
        b = metric_ball_topology(s)
        assert t.is_discrete() and b.is_discrete()
        assert t == b


def test_isolated_points_scales_to_large_families():
    s = chistyakov_example(50)
    assert isolated_points(s) == frozenset(s.points)


def test_topology_point_gate():
    pts = [f"q{i}" for i in range(13)]
    s = StepModularSpace(pts, {(a, b): ZERO for a in pts for b in pts if a != b})
    with pytest.raises(ResourceBoundError):
        topology(s)
    assert topology(s, max_points=13).opens == frozenset(
        [frozenset(), frozenset(pts)]
    )


# ---------------------------------------------------------------------------
# Induced distances.


def test_induced_distance_frozen_values():
    cases = [
        (ZERO, ext(0)),
        (BOTTOM, INF),
        (f_step(2, 1), ext(2)),  # infinite until 2, then 1 <= 2
        (StepFunction(F(1, 2)), ext(F(1, 2))),
        (StepFunction(2, [(1, 1, 1)]), ext(1)),  # qualifies exactly at the cut
        (StepFunction(3, [(1, 3, F(1, 2))]), ext(1)),  # infimum not attained
    ]
    for fn, expected in cases:
        s = two_point(fn)
        assert induced_distance(s)[("a", "b")] == expected


def test_induced_distance_is_the_exact_threshold():
    rng = random.Random(43)
    probes = [F(k, 8) for k in range(1, 140)]
    for _ in range(40):
        from nablamod import random_step

        fn = random_step(rng)
        d = induced_distance(two_point(fn))[("a", "b")]
        for t in probes:
            v = eval_at(fn, t)
            if not v.is_infinite and v.as_fraction() <= t:
                assert d <= ext(t)
            else:
                assert d >= ext(t)


def test_induced_distance_triangle_on_closed_spaces():
    rng = random.Random(47)
    for _ in range(10):
        s = random_closed_space(rng, rng.randint(2, 5))
        d = induced_distance(s)
        for x in s.points:
            assert d[(x, x)] == ext(0)
            for y in s.points:
                for z in s.points:
                    assert d[(x, z)] <= d[(x, y)] + d[(y, z)]


def test_scaled_induced_distance_enclosures():
    s = ScaledModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): 4,
            ("b", "a"): 2,
            ("a", "c"): F(9, 4),
            ("c", "a"): 0,
            ("b", "c"): 4,
            ("c", "b"): 4,
        },
    )
    enc = scaled_induced_distance(s)
    assert enc[("a", "b")] == (F(2), F(2))
    assert enc[("a", "c")] == (F(3, 2), F(3, 2))
    assert enc[("c", "a")] == (F(0), F(0))
    lo, hi = enc[("b", "a")]
    assert hi - lo <= F(1, 2**30)
    assert lo * lo <= 2 <= hi * hi


# ---------------------------------------------------------------------------
# Entourage base.


def test_uniformity_base_on_closed_space():
    rng = random.Random(53)
    s = random_closed_space(rng, 4)
    rep = check_quasi_uniformity_base(s)
    assert rep.ok
    assert rep.violations == ()


def test_uniformity_base_symmetry_reporting():
    sym = chistyakov_example(2)
    rep = check_quasi_uniformity_base(sym)
    assert rep.ok and rep.symmetric is True
    asym = two_point(f_step(1, 1), ZERO)
    rep2 = check_quasi_uniformity_base(asym)
    assert rep2.symmetric is None  # not a symmetric space, nothing to report


def test_uniformity_base_catches_broken_composition():
    s = StepModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): ZERO,
            ("b", "c"): ZERO,
            ("a", "c"): StepFunction(1),
            ("b", "a"): ZERO,
            ("c", "b"): ZERO,
            ("c", "a"): StepFunction(1),
        },
    )
    rep = check_quasi_uniformity_base(s)
    assert not rep.composition
    assert not rep.ok
    assert any("composition" in v for v in rep.violations)


# ---------------------------------------------------------------------------
# Morphism grades.


def test_identity_is_nonexpansive():
    s = chistyakov_example(2)
    m = PointMap(s, s, {p: p for p in s.points})
    assert is_nonexpansive(m)
    assert nonexpansive_violation(m) is None
    ok, k = is_lipschitz(m)
    assert ok and k == 1
    assert is_strongly_uniformly_continuous(m)
    assert is_uniformly_continuous(m)


def test_nonexpansive_violation_reports_a_broken_contract(monkeypatch):
    # If the integer order test claims a violation that no probe can find,
    # the witness search ends in the package's own error type, not a bare
    # AssertionError.
    import nablamod.modular as modular

    s = chistyakov_example(2)
    m = PointMap(s, s, {p: p for p in s.points})
    monkeypatch.setattr(modular, "_le", lambda f, g: False)
    with pytest.raises(ContractError):
        nonexpansive_violation(m)


def test_regularization_direction_matters():
    s = two_point(DROP)
    r = regularize(s)
    ident = {p: p for p in s.points}
    # into the regularized space: the value at the cut rises, so the map
    # is not nonexpansive, witnessed exactly at the cut parameter
    into = PointMap(s, r, ident)
    assert not is_nonexpansive(into)
    x, y, t = nonexpansive_violation(into)
    assert t == 1
    assert {x, y} == {"a", "b"}
    # out of the regularized space: fine
    back = PointMap(r, s, ident)
    assert is_nonexpansive(back)
    assert nonexpansive_violation(back) is None


def test_lipschitz_via_parameter_rescaling():
    src = two_point(f_step(1, 1))
    dst = two_point(f_step(2, 1))
    m = PointMap(src, dst, {"a": "a", "b": "b"})
    assert not is_nonexpansive(m)
    ok, k = is_lipschitz(m)
    assert ok and k == 2
    assert is_strongly_uniformly_continuous(m)
    assert is_uniformly_continuous(m)


def test_strong_uniform_continuity_failure():
    src = two_point(ZERO, ZERO)
    dst = two_point(f_step(1, 1))
    m = PointMap(src, dst, {"a": "a", "b": "b"})
    assert not is_strongly_uniformly_continuous(m)
    assert not is_uniformly_continuous(m)
    assert not is_lipschitz(m)[0]


def test_continuity_grades_form_a_chain():
    rng = random.Random(59)
    spaces = [random_closed_space(rng, rng.randint(2, 4)) for _ in range(8)]
    maps = []
    for _ in range(30):
        src = rng.choice(spaces)
        dst = rng.choice(spaces)
        maps.append(random_point_map(rng, src, dst))
    for s in spaces:
        maps.append(PointMap(s, s, {p: p for p in s.points}))
    for m in maps:
        ne = is_nonexpansive(m)
        lip = is_lipschitz(m)[0]
        suc = is_strongly_uniformly_continuous(m)
        uc = is_uniformly_continuous(m)
        assert not ne or lip
        assert not lip or suc
        assert not suc or uc
        # the violation finder must agree with the boolean
        assert (nonexpansive_violation(m) is None) == ne


def test_scaled_morphism_conditions_agree():
    rng = random.Random(61)
    spaces = [random_scaled_space(rng, rng.randint(2, 4)) for _ in range(6)]
    for _ in range(40):
        src = rng.choice(spaces)
        dst = rng.choice(spaces)
        m = random_point_map(rng, src, dst)
        classic = scaled_lipschitz_classic(m)
        modular = scaled_lipschitz_modular(m)
        suc = scaled_strongly_uniformly_continuous(m)
        assert classic[0] == modular[0] == suc
        if classic[0]:
            assert classic[1] is not None and modular[1] is not None


def test_scaled_morphism_frozen_cases():
    src = standard_modular(["a", "b"], {("a", "b"): 1, ("b", "a"): 1})
    dst = standard_modular(["a", "b"], {("a", "b"): 4, ("b", "a"): 4})
    m = PointMap(src, dst, {"a": "a", "b": "b"})
    assert scaled_lipschitz_classic(m) == (True, F(4))
    assert scaled_lipschitz_modular(m) == (True, F(4))
    assert scaled_strongly_uniformly_continuous(m)

    degenerate = standard_modular(["a", "b"], {("a", "b"): 0, ("b", "a"): 0})
    m2 = PointMap(degenerate, dst, {"a": "a", "b": "b"})
    assert scaled_lipschitz_classic(m2) == (False, None)
    assert scaled_lipschitz_modular(m2) == (False, None)
    assert not scaled_strongly_uniformly_continuous(m2)


# ---------------------------------------------------------------------------
# Gauge construction.


def test_from_gauge_scales_a_profile():
    gauge = StepFunction(INF, [(1, 1, 1)])
    s = from_gauge(
        ["x", "y"], {("x", "y"): 2, ("y", "x"): F(1, 2)}, gauge
    )
    assert s.w("x", "y") == StepFunction(INF, [(1, 2, 2)])
    assert s.w("y", "x") == StepFunction(INF, [(1, F(1, 2), F(1, 2))])
    assert s.w("x", "x") == ZERO  # 0 * inf collapses the diagonal
    rep = check_axioms(s)
    assert rep.m1 and rep.m2


def test_from_gauge_rejects_broken_triangle():
    with pytest.raises(InputError):
        from_gauge(
            ["x", "y", "z"],
            {
                ("x", "y"): 1,
                ("y", "x"): 1,
                ("y", "z"): 1,
                ("z", "y"): 1,
                ("x", "z"): 3,
                ("z", "x"): 3,
            },
            StepFunction(1),
        )


# ---------------------------------------------------------------------------
# File format.


def test_format_parse_roundtrip_step():
    rng = random.Random(67)
    for _ in range(5):
        s = random_closed_space(rng, rng.randint(2, 4))
        assert parse_space(format_space(s)) == s
    c = chistyakov_example(3)
    assert parse_space(format_space(c)) == c


def test_format_parse_roundtrip_scaled():
    rng = random.Random(71)
    for _ in range(5):
        s = random_scaled_space(rng, rng.randint(2, 4))
        assert parse_space(format_space(s)) == s


def test_parse_space_minimal_step_file():
    text = """\
space step
point a
point b
# diagonal entries are implicit
w a b step head=inf cut=1 at=1 after=1
w b a step head=0
"""
    s = parse_space(text)
    assert s.w("a", "b") == f_step(1, 1)
    assert s.w("b", "a") == ZERO
    assert s.w("a", "a") == ZERO


def test_parse_space_close_completes_missing_pairs():
    text = "space step\npoint a\npoint b\nw a b step head=inf cut=1 at=1 after=1\n"
    with pytest.raises(InputError):
        parse_space(text)
    s = parse_space(text, close=True)
    assert s.w("b", "a") == BOTTOM
    assert s.w("a", "b") == f_step(1, 1)


def test_parse_space_scaled_cannot_close():
    text = "space scaled\npoint a\npoint b\nd a b 1\n"
    with pytest.raises(InputError):
        parse_space(text, close=True)


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("point a\n", 1, 1),  # missing header
        ("space step\nspace step\n", 2, 1),
        ("space step\npoint a\npoint a\n", 3, 7),
        ("space step\npoint a\nw a q step head=0\n", 3, 5),
        ("space step\npoint a\nd a a 1\n", 3, 1),
        ("space scaled\npoint a\nd a a -1\n", 3, 7),
        ("space step\npoint a\nw a a step head=oops\n", 3, 12),
        ("space step\npoint a\nmystery\n", 3, 1),
    ],
)
def test_parse_space_errors_carry_position(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert (exc.value.line, exc.value.column) == (line, col)


def test_parse_space_duplicate_entry():
    text = "space step\npoint a\npoint b\nw a b step head=0\nw a b step head=1\nw b a step head=0\n"
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert exc.value.line == 5
