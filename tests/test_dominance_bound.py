"""The integral-quantale bound that lets the table loops skip convolutions.

The quantale of step functions is integral: its unit, the zero function, is
also its top, so ``a * b <= a * top = a`` in the quantale's order.  Read in
the usual pointwise order, ``oplus(a, b)`` and ``oplus_interior(a, b)`` are
at least ``max(a, b)`` everywhere.  ``triangle_closure`` and the m2/qc2
check use it to decide a triple without a convolution whenever its target
lies pointwise under either leg.

The bound is checked here pointwise with ``eval_at``, and the pruned loops
against the unpruned integer loops they replaced, copied below.
"""

import random
from fractions import Fraction as F

from nablamod import (
    BOTTOM,
    ZERO,
    StepFunction,
    StepModularSpace,
    check_axioms,
    check_qcategory,
    chistyakov_example,
    e_mod,
    eval_at,
    oplus,
    oplus_interior,
    random_step,
    triangle_closure,
)
from nablamod import modular, stepfn
from nablamod.modular import _int_table
from nablamod.stepfn import _from_int, _le, _pointwise_int

JUMP = StepFunction(1, [(1, 1, 0)])  # keeps 1 at t = 1, a left jump


def probes(*fns):
    """Every cut of ``fns``, every midpoint between neighbouring cuts (and
    between 0 and the first), and one point past the last cut."""
    cuts = sorted({c.pos for f in fns for c in f.cuts})
    edges = [F(0)] + cuts
    mids = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]
    return cuts + mids + [edges[-1] + 1]


def draw(rng, max_cuts):
    roll = rng.random()
    if roll < 0.1:
        return BOTTOM
    if roll < 0.2:
        return ZERO
    if roll < 0.3:
        return JUMP
    return random_step(rng, max_cuts)


def test_convolution_is_pointwise_at_least_either_leg():
    rng = random.Random(101)
    pairs = [(a, b) for a in (BOTTOM, ZERO, JUMP) for b in (BOTTOM, ZERO, JUMP)]
    pairs += [(draw(rng, 6), draw(rng, 6)) for _ in range(300)]
    left_jumps = 0
    for a, b in pairs:
        left_jumps += any(c.at != c.after for c in (*a.cuts, *b.cuts))
        for conv in (oplus, oplus_interior):
            c = conv(a, b)
            for t in probes(a, b, c):
                assert max(eval_at(a, t), eval_at(b, t)) <= eval_at(c, t), (a, b, t)
    assert left_jumps > 0


# ---------------------------------------------------------------------------
# The unpruned integer loops, as they stood before the bound: one
# convolution for every triple.  They call ``stepfn._conv`` through the
# module so the counter below sees them.


def unpruned_closure(space):
    pts = space.points
    n = len(pts)
    p_scale, v_scale, tbl = _int_table(pts, space.w)
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            left = tbl[i][k]
            for j in range(n):
                if j == k:
                    continue
                via = stepfn._conv(left, tbl[k][j], True)
                if not _le(via, tbl[i][j]):
                    tbl[i][j] = _pointwise_int([tbl[i][j], via], min)
    back = [[_from_int(fi, p_scale, v_scale) for fi in row] for row in tbl]
    return StepModularSpace(
        pts, {(a, b): back[i][j] for i, a in enumerate(pts) for j, b in enumerate(pts)}
    )


def unpruned_m2(pts, w):
    n = len(pts)
    tbl = _int_table(pts, w)[2]
    return all(
        _le(stepfn._conv(tbl[i][j], tbl[j][k], False), tbl[i][k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def half_empty(rng, n, max_cuts):
    """A zero diagonal and half of the other entries missing (BOTTOM), as
    ``check --close`` reads the benchmark's partial files."""
    pts = [f"p{i}" for i in range(n)]
    off = [(a, b) for a in pts for b in pts if a != b]
    missing = set(rng.sample(off, len(off) // 2))
    return StepModularSpace(
        pts, {pair: BOTTOM if pair in missing else random_step(rng, max_cuts) for pair in off}
    )


def with_bottoms(rng, n, max_cuts):
    """Every off-diagonal entry drawn, a fifth of them BOTTOM, some ZERO."""
    pts = [f"p{i}" for i in range(n)]
    return StepModularSpace(
        pts,
        {
            (a, b): BOTTOM if rng.random() < 0.2 else draw(rng, max_cuts)
            for a in pts
            for b in pts
            if a != b
        },
    )


def with_diagonal(rng, space):
    """``space`` with every self-distance replaced by a drawn function, so
    the triples x == z compare a diagonal entry against a round trip."""
    w = {(a, b): space.w(a, b) for a in space.points for b in space.points}
    for x in space.points:
        w[(x, x)] = random_step(rng, 3) if rng.random() < 0.7 else ZERO
    return StepModularSpace(space.points, w)


def tables():
    """Seeded tables of 1-8 points with up to 12 cuts, each with its kind:
    ``closable`` (zero diagonal), ``diagonal`` (a closed table with a drawn
    diagonal) or ``open`` (unclosed, with a drawn diagonal)."""
    rng = random.Random(103)
    out = []
    for n in range(1, 9):
        for max_cuts in (1, 2, 6, 12):
            if n >= 7 and max_cuts > 2:
                continue  # keeps the unpruned loops to a few seconds
            closed = triangle_closure(half_empty(rng, n, max_cuts))
            out.append((closed, "closable"))
            out.append((with_bottoms(rng, n, max_cuts), "closable"))
            out.append((half_empty(rng, n, max_cuts), "closable"))
            out.append((with_diagonal(rng, closed), "diagonal"))
            out.append((with_diagonal(rng, with_bottoms(rng, n, max_cuts)), "open"))
    out += [(chistyakov_example(k), "closable") for k in (1, 2, 3, 4)]
    return out


def test_pruned_loops_match_the_unpruned_ones():
    verdicts = set()
    diagonal_failures = 0
    for space, kind in tables():
        pts = space.points
        m2 = unpruned_m2(pts, space.w)
        verdicts.add(m2)
        assert check_axioms(space).m2 == m2
        assert check_qcategory(e_mod(space)).qc2 == m2
        if kind == "closable":
            closed = triangle_closure(space)
            assert closed == unpruned_closure(space)
            assert check_axioms(closed).m2 and unpruned_m2(pts, closed.w)
        elif kind == "diagonal":
            # Only a triple x == z can fail here: a self-distance above a
            # round trip x -> y -> x.
            diagonal_failures += not m2
    assert verdicts == {True, False}
    assert diagonal_failures > 0


def test_the_bound_saves_convolutions(monkeypatch):
    # the pruned closure convolves prebuilt atoms with ``modular._sweep``;
    # the pruned m2 loop builds no convolution (``_below_conv`` tests each
    # undecided triple), so ``pruned`` counts the closure's sweeps alone.  The
    # reference loops call ``stepfn._conv``, which reaches ``stepfn._sweep``
    # and so is not counted twice
    calls = {"pruned": 0, "unpruned": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(modular, "_sweep", "pruned")
    counted(stepfn, "_conv", "unpruned")
    space = half_empty(random.Random(107), 8, 6)

    closed = triangle_closure(space)
    m2 = check_axioms(closed).m2
    reference = unpruned_closure(space)
    assert closed == reference
    assert m2 == unpruned_m2(reference.points, reference.w)

    assert calls["unpruned"] == 8 * 7 * 7 + 8**3
    assert 0 < calls["pruned"] < calls["unpruned"]
    # without the bound the pruned loops would still skip the triples their
    # index tests decide, and sweep the other 8*7*6 (closure) + 8*7*7 (m2)
    assert calls["pruned"] < 8 * 7 * 6 + 8 * 7 * 7
