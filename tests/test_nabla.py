"""Tests for the step-function carrier and its quantale operations.

The convolution tests check against a brute-force oracle that minimizes over
a dense rational grid.  Generator functions have cuts on the quarter grid in
(0, 8], so every breakpoint of r -> f(r) + g(t - r) lies on the eighth grid
when t does; a sixteenth grid therefore hits the interior of every constant
piece and the minimum over it (plus the endpoints) is exact, not an
approximation.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    ExtRational,
    InputError,
    ParseError,
    StepFunction,
    eval_at,
    ext,
    f_step,
    format_step_literal,
    is_left_continuous,
    join_op,
    le_op,
    left_regularize,
    meet_op,
    oplus,
    oplus_interior,
    parse_step_literal,
    random_step,
    scale_values,
    time_rescale,
    value_after,
    well_below_fstep,
    well_below_top,
)

F = Fraction


def steps(seed):
    return random_step(random.Random(seed))


step_seeds = st.integers(min_value=0, max_value=2**31)


# ---------------------------------------------------------------------------
# Oracles (independent implementations used to validate the real ones).


def grid_points(limit=F(17), step=F(1, 8)):
    t = step
    out = []
    while t <= limit:
        out.append(t)
        t += step
    return out


def eval_with_zero(f, r):
    # f extended to r = 0 by its head (the limit from the right)
    return f.head if r == 0 else eval_at(f, r)


def conv_oracle(f, g, t, include_boundary, step=F(1, 16)):
    """min of f(r) + g(t - r) over the ``step`` grid in [0, t] or (0, t)."""
    best = None
    r = F(0)
    while r <= t:
        if include_boundary or (0 < r < t):
            v = eval_with_zero(f, r) + eval_with_zero(g, t - r)
            if best is None or v < best:
                best = v
        r += step
    assert best is not None
    return best


def le_oracle(f, g, ts=None):
    return all(eval_at(g, t) <= eval_at(f, t) for t in ts or grid_points())


# ---------------------------------------------------------------------------
# ExtRational.


def test_ext_rational_arithmetic():
    assert ext(2) + ext(F(1, 2)) == ext(F(5, 2))
    assert ext(3) + INF == INF
    assert INF + INF == INF
    assert ext(0) * INF == ext(0)
    assert INF * ext(0) == ext(0)
    assert ext(2) * INF == INF
    assert ext(F(2, 3)) * ext(3) == ext(2)


def test_ext_rational_order_is_total():
    vals = [INF, ext(0), ext(F(7, 2)), ext(1), INF, ext(F(1, 3))]
    assert sorted(vals) == [ext(0), ext(F(1, 3)), ext(1), ext(F(7, 2)), INF, INF]
    assert ext(5) < INF
    assert not INF < INF
    assert INF <= INF


def test_ext_rational_parse_and_str():
    assert str(ext("3/4")) == "3/4"
    assert str(INF) == "inf"
    assert ext("inf") == INF
    assert str(ext(2)) == "2"
    with pytest.raises(InputError):
        ext("-1/2")


# ---------------------------------------------------------------------------
# Construction and canonical form.


def test_redundant_cut_is_dropped():
    f = StepFunction(1, [(1, 1, 1), (2, 0, 0)])
    assert f == StepFunction(1, [(2, 0, 0)])
    assert len(f.cuts) == 1


def test_fstep_with_infinite_radius_collapses_to_bottom():
    assert f_step(1, INF) == BOTTOM
    assert f_step(1, INF).cuts == ()


def test_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        StepFunction(1, [(0, 1, 1)])  # position not positive
    with pytest.raises(InputError):
        StepFunction(1, [(2, 1, 1), (1, 0, 0)])  # positions not increasing
    with pytest.raises(InputError):
        StepFunction(1, [(1, 2, 2)])  # increases past the head
    with pytest.raises(InputError):
        StepFunction(1, [(1, 0, 1)])  # after above at


def test_fstep_rejects_degenerate_parameters():
    with pytest.raises(InputError):
        f_step(0, 1)
    with pytest.raises(InputError):
        f_step(1, 0)


# ---------------------------------------------------------------------------
# Evaluation.


def test_eval_basic_shape():
    f = StepFunction(INF, [(1, 2, 2), (2, 1, F(1, 2))])
    assert eval_at(f, F(1, 2)) == INF
    assert eval_at(f, 1) == ext(2)
    assert eval_at(f, F(3, 2)) == ext(2)
    assert eval_at(f, 2) == ext(1)
    assert eval_at(f, 3) == ext(F(1, 2))
    assert f(100) == ext(F(1, 2))


def test_eval_distinguishes_at_from_after():
    f = StepFunction(1, [(1, 1, 0)])  # left-continuous drop at 1
    assert eval_at(f, 1) == ext(1)
    assert eval_at(f, F(9, 8)) == ext(0)
    assert value_after(f, 1) == ext(0)
    assert value_after(f, 0) == ext(1)


def test_eval_rejects_nonpositive_parameter():
    with pytest.raises(InputError):
        eval_at(ZERO, 0)
    with pytest.raises(InputError):
        eval_at(ZERO, F(-1, 2))


def test_eval_and_order_match_their_literal_definitions():
    # eval_at bisects and ExtRational compares by cross-multiplication; the
    # literal forms are a scan for the last cut at or before t and the order
    # of Fraction with infinity on top.
    def literal_eval(f, t):
        value = f.head
        for c in f.cuts:
            if c.pos < t:
                value = c.after
            elif c.pos == t:
                value = c.at
        return value

    def key(v):
        return (1, 0) if v.is_infinite else (0, v.as_fraction())

    rng = random.Random(59)
    for _ in range(300):
        f = odd_step(rng, max_cuts=6) if rng.random() < 0.5 else random_step(rng, 12)
        probes = [*f.positions, *(p + F(1, 105) for p in f.positions)]
        probes.append(F(rng.randint(1, 400), 105))
        for t in probes:
            assert eval_at(f, t) == literal_eval(f, t)
        a, b = eval_at(f, probes[-1]), rng.choice([INF, ext(F(rng.randint(0, 30), 7))])
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            assert op(a, b) == op(key(a), key(b))


# ---------------------------------------------------------------------------
# Order, join, meet.


def test_zero_is_top_and_bottom_is_bottom():
    for seed in range(40):
        f = steps(seed)
        assert le_op(f, ZERO)
        assert le_op(BOTTOM, f)


def test_le_op_on_step_radii():
    # smaller radius value means larger in the opposite order
    assert le_op(f_step(1, 2), f_step(1, 1))
    assert not le_op(f_step(1, 1), f_step(1, 2))
    # a longer infinite stretch is pointwise larger, hence lower
    assert le_op(f_step(2, 1), f_step(1, 1))
    assert not le_op(f_step(1, 1), f_step(2, 1))


def test_le_op_matches_grid_oracle():
    rng = random.Random(7)
    for _ in range(300):
        f = random_step(rng)
        g = random_step(rng)
        assert le_op(f, g) == le_oracle(f, g)


def test_join_frozen_example():
    j = join_op([f_step(1, 2), f_step(2, 1)])
    assert j == StepFunction(INF, [(1, 2, 2), (2, 1, 1)])


def test_join_meet_match_pointwise_oracle():
    rng = random.Random(11)
    for _ in range(150):
        fam = [random_step(rng) for _ in range(rng.randint(1, 4))]
        j = join_op(fam)
        m = meet_op(fam)
        for t in grid_points():
            assert eval_at(j, t) == min(eval_at(f, t) for f in fam)
            assert eval_at(m, t) == max(eval_at(f, t) for f in fam)


def test_join_of_empty_family_is_rejected():
    with pytest.raises(InputError):
        join_op([])
    with pytest.raises(InputError):
        meet_op([])


@given(step_seeds, step_seeds)
def test_join_is_least_upper_bound(a, b):
    f, g = steps(a), steps(b)
    j = join_op([f, g])
    assert le_op(f, j) and le_op(g, j)
    m = meet_op([f, g])
    assert le_op(m, f) and le_op(m, g)


# ---------------------------------------------------------------------------
# Convolution.


def test_oplus_frozen_example():
    assert oplus(f_step(1, 2), f_step(2, 3)) == f_step(3, 5)


def test_oplus_absorbs_bottom():
    for seed in range(20):
        f = steps(seed)
        assert oplus(f, BOTTOM) == BOTTOM
        assert oplus(BOTTOM, f) == BOTTOM


@given(step_seeds)
@settings(max_examples=60)
def test_oplus_unit_law_is_exact(seed):
    f = steps(seed)
    assert oplus(f, ZERO) == f
    assert oplus(ZERO, f) == f


def test_oplus_matches_grid_oracle():
    rng = random.Random(23)
    for _ in range(40):
        f = random_step(rng)
        g = random_step(rng)
        h = oplus(f, g)
        hi = oplus_interior(f, g)
        for t in grid_points():
            assert eval_at(h, t) == conv_oracle(f, g, t, include_boundary=True)
            assert eval_at(hi, t) == conv_oracle(f, g, t, include_boundary=False)


def odd_step(rng, max_cuts=3):
    """A random step function with cuts in (0, 2] on the 1/d grid, d drawn
    from {3, 5, 7} per function, and values with denominators 3, 5 and 7
    mixed (infinity included, heads too)."""
    d = rng.choice((3, 5, 7))
    grid = [F(i, d) for i in range(1, 2 * d + 1)]
    positions = sorted(rng.sample(grid, rng.randint(0, max_cuts)))
    pool = [INF] * 4 + [ext(F(i, rng.choice((3, 5, 7)))) for i in range(0, 15)]
    values = sorted((rng.choice(pool) for _ in range(2 * len(positions) + 1)), reverse=True)
    cuts = [(p, values[2 * i + 1], values[2 * i + 2]) for i, p in enumerate(positions)]
    return StepFunction(values[0], cuts)


def test_operations_match_oracles_off_the_quarter_grid():
    """oplus, oplus_interior, le_op, join_op and meet_op against the oracles
    above, on thirds, fifths and sevenths, infinite heads and values, and
    BOTTOM/ZERO.  With cuts on the 1/D grid (D the lcm of the two
    denominators) every cut of a convolution is a sum of input cuts, so the
    results are checked at those sums and between them; there t lies on the
    1/(2D) grid, every breakpoint of r -> f(r) + g(t - r) on the 1/(2D)
    grid, and the 1/(4D) oracle grid hits every constant piece."""
    rng = random.Random(53)
    pairs = [(odd_step(rng, max_cuts=4), odd_step(rng, max_cuts=4)) for _ in range(80)]
    pairs += [(f, c) for f, _ in pairs[:4] for c in (ZERO, BOTTOM)]
    pairs += [(ZERO, BOTTOM), (BOTTOM, ZERO), (ZERO, ZERO)]
    seen = {"inf head": 0, "inf value": 0, "left jump": 0}
    for f, g in pairs:
        denoms = [c.pos.denominator for c in f.cuts + g.cuts]
        D = math.lcm(1, *denoms)
        sums = sorted({p + q for p in (0, *f.positions) for q in (0, *g.positions)} - {0})
        walls = [F(0), *sums, (sums[-1] if sums else F(0)) + 1]
        ts = sorted(set(sums) | {(a + b) / 2 for a, b in zip(walls, walls[1:])})
        for h, boundary in ((oplus(f, g), True), (oplus_interior(f, g), False)):
            assert set(h.positions) <= set(sums)
            for t in ts:
                assert eval_at(h, t) == conv_oracle(f, g, t, boundary, step=F(1, 4 * D))
        grid = grid_points(max(sums, default=F(0)) + 1, step=F(1, 2 * D))
        assert le_op(f, g) == le_oracle(f, g, grid)
        assert le_op(g, f) == le_oracle(g, f, grid)
        j, m = join_op([f, g]), meet_op([f, g])
        assert all(eval_at(j, t) == min(eval_at(f, t), eval_at(g, t)) for t in grid)
        assert all(eval_at(m, t) == max(eval_at(f, t), eval_at(g, t)) for t in grid)
        seen["inf head"] += f.head.is_infinite
        seen["inf value"] += any(c.at.is_infinite for c in f.cuts)
        seen["left jump"] += not is_left_continuous(f)
    assert all(seen.values()), seen


@given(step_seeds, step_seeds)
@settings(max_examples=60)
def test_oplus_commutes(a, b):
    f, g = steps(a), steps(b)
    assert oplus(f, g) == oplus(g, f)
    assert oplus_interior(f, g) == oplus_interior(g, f)


def test_oplus_associative():
    rng = random.Random(31)
    for _ in range(60):
        f, g, h = (random_step(rng) for _ in range(3))
        assert oplus(oplus(f, g), h) == oplus(f, oplus(g, h))


def test_oplus_distributes_over_join():
    rng = random.Random(37)
    for _ in range(60):
        f, g, h = (random_step(rng) for _ in range(3))
        assert oplus(f, join_op([g, h])) == join_op([oplus(f, g), oplus(f, h)])


@given(step_seeds, step_seeds)
@settings(max_examples=60)
def test_oplus_is_integral(a, b):
    f, g = steps(a), steps(b)
    h = oplus(f, g)
    assert le_op(h, f)
    assert le_op(h, g)


def test_interior_convolution_with_unit_regularizes():
    # The strictly-interior form does not have ZERO as a unit: convolving
    # with it erases left jumps instead.
    f = StepFunction(1, [(1, 0, 0)])
    assert oplus_interior(f, ZERO) == left_regularize(f)
    assert oplus_interior(f, ZERO) != f


def test_forms_agree_on_left_continuous_inputs():
    rng = random.Random(41)
    for _ in range(60):
        f = left_regularize(random_step(rng))
        g = left_regularize(random_step(rng))
        assert oplus(f, g) == oplus_interior(f, g)


def test_oplus_preserves_left_continuity():
    rng = random.Random(43)
    for _ in range(60):
        f = left_regularize(random_step(rng))
        g = left_regularize(random_step(rng))
        assert is_left_continuous(oplus(f, g))


# ---------------------------------------------------------------------------
# Regularization.


def test_left_regularize_lifts_value_at_cut():
    w = StepFunction(1, [(1, 0, 0)])
    wr = left_regularize(w)
    assert wr == StepFunction(1, [(1, 1, 0)])
    assert eval_at(wr, 1) == ext(1)
    assert eval_at(wr, F(3, 2)) == ext(0)


def test_left_regularize_is_idempotent_and_detects_continuity():
    rng = random.Random(47)
    for _ in range(100):
        f = random_step(rng)
        fr = left_regularize(f)
        assert left_regularize(fr) == fr
        assert is_left_continuous(fr)
        assert is_left_continuous(f) == (f == fr)
        assert le_op(fr, f)  # regularization raises values, so it moves down


# ---------------------------------------------------------------------------
# Well-below relations.


def test_well_below_top_frozen_cases():
    assert not well_below_top(ZERO)
    assert well_below_top(BOTTOM)
    assert well_below_top(f_step(1, 1))
    assert well_below_top(f_step(1, F(1, 4)))
    assert not well_below_top(StepFunction(INF, [(1, 0, 0)]))  # drops to 0
    assert not well_below_top(StepFunction(2))  # finite head


def test_well_below_top_is_down_closed():
    rng = random.Random(53)
    for _ in range(200):
        f = random_step(rng)
        g = random_step(rng)
        if well_below_top(f) and le_op(g, f):
            assert well_below_top(g)


def test_well_below_fstep_frozen_cases():
    g = f_step(1, 1)
    assert well_below_fstep(1, 2, g)  # g(1) = 1 < 2
    assert not well_below_fstep(1, 1, g)
    assert well_below_fstep(2, F(1, 2), ZERO)
    assert not well_below_fstep(2, F(1, 2), f_step(2, F(1, 2)))


def test_well_below_fstep_infinite_radius_special_case():
    # radius inf means the step collapses to bottom, and bottom is well
    # below exactly the non-bottom elements
    assert well_below_fstep(1, INF, ZERO)
    assert well_below_fstep(1, INF, f_step(3, F(1, 4)))
    assert not well_below_fstep(1, INF, BOTTOM)


def test_well_below_fstep_implies_order():
    rng = random.Random(59)
    for _ in range(200):
        g = random_step(rng)
        t = rng.choice([F(1, 2), 1, 2, F(7, 2)])
        eps = rng.choice([F(1, 4), 1, 3, INF])
        if well_below_fstep(t, eps, g):
            assert le_op(f_step(t, eps), g)


# ---------------------------------------------------------------------------
# Rescaling helpers.


def test_time_rescale_moves_cuts():
    f = f_step(2, 1)
    assert time_rescale(f, 2) == f_step(1, 1)
    assert time_rescale(f, F(1, 2)) == f_step(4, 1)
    for t in grid_points(F(8)):
        assert eval_at(time_rescale(f, F(1, 2)), t) == eval_at(f, t / 2)


def test_scale_values_pointwise():
    f = StepFunction(2, [(1, 1, F(1, 2))])
    assert scale_values(f, 2) == StepFunction(4, [(1, 2, 1)])
    assert scale_values(f, 0) == ZERO
    assert scale_values(BOTTOM, 0) == ZERO  # the 0 * inf convention
    assert scale_values(f, INF) == BOTTOM


# ---------------------------------------------------------------------------
# Literals.


def test_literal_format_frozen():
    assert format_step_literal(ZERO) == "step head=0"
    assert format_step_literal(f_step(1, F(1, 2))) == "step head=inf cut=1 at=1/2 after=1/2"


def test_literal_parse_examples():
    f = parse_step_literal("step head=inf cut=3/2 at=2 after=1")
    assert f == StepFunction(INF, [(F(3, 2), 2, 1)])
    assert parse_step_literal("step head=2/1") == StepFunction(2)


@given(step_seeds)
@settings(max_examples=80)
def test_literal_roundtrip(seed):
    f = steps(seed)
    assert parse_step_literal(format_step_literal(f)) == f


def test_literal_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_step_literal("step head=wat", line=4)
    assert exc.value.line == 4
    assert "wat" in str(exc.value)
    with pytest.raises(ParseError):
        parse_step_literal("step head=1 cut=1 at=1")  # incomplete group
    with pytest.raises(ParseError):
        parse_step_literal("head=1")


# ---------------------------------------------------------------------------
# Generator sanity.


def test_random_step_respects_the_grid():
    rng = random.Random(61)
    for _ in range(200):
        f = random_step(rng)
        assert len(f.cuts) <= 6
        prev = f.head
        for c in f.cuts:
            assert 0 < c.pos <= 8 and (c.pos * 4).denominator == 1
            assert c.at <= prev and c.after <= c.at
            prev = c.after
