"""The integer form a step table keeps, and the verdicts read off it.

``_Table._int_form`` holds a table on one pair of integer scales.  The axiom
checks read m1, m3, m4 and left continuity off it by comparing integer
forms, which is sound because the forms on one scale are canonical.
``triangle_closure`` hands its relaxed table over as the result's integer
form and builds the result's step functions with ``_from_ints``, which skips
the constructor's checks.  Each of these is checked here against the literal
``StepFunction`` definition it replaces, and the closure's output against
the unpruned m2 loop of ``test_dominance_bound``.  The two kernels that
stand in for a convolution followed by a comparison, ``_below_conv`` (the
m2 loop) and the floored ``_sweep`` (the closure), are checked against that
convolution and comparison.
"""

import math
import random
from fractions import Fraction as F

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    StepFunction,
    StepModularSpace,
    check_axioms,
    check_qcategory,
    chistyakov_example,
    e_mod,
    is_left_continuous,
    join_op,
    le_op,
    left_regularize,
    oplus,
    random_step,
    regularize,
    triangle_closure,
)
from nablamod import modular
from nablamod.modular import _int_table
from nablamod.stepfn import (
    _atoms,
    _below_conv,
    _conv,
    _from_ints,
    _le,
    _pointwise_int,
    _probe,
    _sweep,
    _to_ints,
)
from test_dominance_bound import JUMP, half_empty, unpruned_m2
from test_nabla import odd_step


def draw(rng, max_cuts):
    """BOTTOM, ZERO, ``JUMP`` (which keeps its value at its cut), a step on
    thirds, fifths or sevenths, or a step on the quarter grid."""
    roll = rng.random()
    if roll < 0.1:
        return BOTTOM
    if roll < 0.2:
        return ZERO
    if roll < 0.3:
        return JUMP
    if roll < 0.55:
        return odd_step(rng, max_cuts)
    return random_step(rng, max_cuts)


def table(rng, n, max_cuts, missing_share, diagonal=False):
    """A table on ``n`` points with a share of its off-diagonal entries
    missing (BOTTOM); the diagonal is ZERO unless ``diagonal`` draws it."""
    pts = [f"p{i}" for i in range(n)]
    w = {}
    for a in pts:
        for b in pts:
            if a == b:
                w[(a, b)] = draw(rng, 2) if diagonal and rng.random() < 0.5 else ZERO
            else:
                w[(a, b)] = BOTTOM if rng.random() < missing_share else draw(rng, max_cuts)
    return StepModularSpace(pts, w)


def closable_tables():
    """Seeded half-empty and full tables of 1 to 8 points."""
    rng = random.Random(211)
    out = []
    for n in range(1, 9):
        for max_cuts in (1, 2, 6):
            if n >= 7 and max_cuts > 2:
                continue  # keeps the unpruned loop to a few seconds
            out.append(table(rng, n, max_cuts, 0.5))
            out.append(table(rng, n, max_cuts, 0.0))
    return out


def test_closure_output_passes_the_unpruned_m2_loop():
    """m2 holds on the closure by the Floyd-Warshall argument over a closed
    semiring; the unpruned loop convolves every triple to confirm it."""
    jumps = odd = 0
    for space in closable_tables():
        closed = triangle_closure(space)
        assert unpruned_m2(closed.points, closed.w), space
        assert check_axioms(closed).m2
        homs = list(closed.all_homs())
        jumps += not all(is_left_continuous(f) for f in homs)
        odd += any(c.pos.denominator in (3, 5, 7) for f in homs for c in f.cuts)
    assert jumps > 0 and odd > 0


# ---------------------------------------------------------------------------
# The integer verdicts against the StepFunction definitions.


def literal_verdicts(space):
    pts, w = space.points, space.w
    m1 = all(w(x, x) == ZERO for x in pts)
    m3 = all(not (w(x, y) == ZERO and w(y, x) == ZERO) for x in pts for y in pts if x != y)
    m4 = all(w(x, y) == w(y, x) for x in pts for y in pts)
    lc = True
    for f in space.all_homs():
        prev = f.head
        for c in f.cuts:
            lc = lc and c.at == prev
            prev = c.after
    return m1, m3, m4, lc


def verdict_tables():
    rng = random.Random(223)
    out = [chistyakov_example(k) for k in (1, 2, 3)]
    for n in range(1, 6):
        for _ in range(6):
            out.append(table(rng, n, 3, 0.3, diagonal=True))
            out.append(table(rng, n, 3, 0.3))
            # left-continuous throughout, with several cuts per entry
            out.append(regularize(table(rng, n, 4, 0.3)))
            # one drawn function beside its left regularization, so that
            # the function's own verdict decides the table's
            f = draw(rng, 4)
            out.append(StepModularSpace("ab", {("a", "b"): f, ("b", "a"): left_regularize(f)}))
        # symmetric, with mutual ZERO pairs now and then
        pts = [f"p{i}" for i in range(n)]
        w = {}
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                w[(a, b)] = w[(b, a)] = ZERO if rng.random() < 0.3 else draw(rng, 3)
        out.append(StepModularSpace(pts, w))
        # symmetric but for one entry, which keeps its transpose's values on
        # a different scale
        if n >= 2:
            w = dict(w)
            w[("p0", "p1")] = StepFunction(F(1, 3), [(F(2, 7), F(1, 5), 0)])
            out.append(StepModularSpace(pts, w))
    return out


def test_integer_verdicts_match_the_step_function_definitions():
    seen = set()
    for space in verdict_tables():
        m1, m3, m4, lc = literal_verdicts(space)
        rep = check_axioms(space)
        assert (rep.m1, rep.m3, rep.m4, rep.left_continuous) == (m1, m3, m4, lc), space
        cat = check_qcategory(e_mod(space))
        assert (cat.qc1, cat.separated, cat.symmetric) == (m1, m3, m4), space
        seen.add((m1, m3, m4, lc))
    # every verdict is seen both ways
    for k in range(4):
        assert {v[k] for v in seen} == {True, False}


def test_integer_verdicts_on_the_closure_form():
    # the closure's handed-over form gives the same verdicts as the table
    # rebuilt from its step functions
    for space in closable_tables()[::3]:
        closed = triangle_closure(space)
        rebuilt = StepModularSpace(closed.points, dict(closed._table))
        assert rebuilt._ints is None
        assert check_axioms(closed) == check_axioms(rebuilt)
        rep = check_axioms(closed)
        assert (rep.m1, rep.m3, rep.m4, rep.left_continuous) == literal_verdicts(closed)


# ---------------------------------------------------------------------------
# The form the closure hands over, and the step functions it builds.


def on_scales(form, p_to, v_to):
    """An integer form moved onto the scales ``p_to`` and ``v_to``, which
    its own scales divide."""
    p_scale, v_scale, tbl = form
    assert p_to % p_scale == 0 and v_to % v_scale == 0
    dp, dv = p_to // p_scale, v_to // v_scale

    def val(v):
        return v if v == math.inf else v * dv

    return (
        p_to,
        v_to,
        [[(val(h), tuple((p * dp, val(a), val(b)) for p, a, b in cuts)) for h, cuts in row] for row in tbl],
    )


def test_closure_form_is_the_int_table_of_its_result():
    # on the input's scales, which the result's own scales divide
    for space in closable_tables():
        closed = triangle_closure(space)
        pts = closed.points
        p_scale, v_scale, tbl = form = closed._int_form()
        assert (p_scale, v_scale) == space._int_form()[:2]
        assert form == on_scales(_int_table(pts, closed.w), p_scale, v_scale)
        back = _from_ints([f for row in tbl for f in row], p_scale, v_scale)
        assert back == [closed.w(a, b) for a in pts for b in pts]


def test_closure_form_keeps_the_input_scales():
    # the only thirds sit in an entry the closure replaces by ZERO: the
    # result's own scales are 1 and 1, its form stays on thirds, and the
    # verdicts do not depend on which
    thirds = StepFunction(INF, [(F(1, 3), F(5, 3), F(2, 3))])
    space = StepModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): thirds,
            ("a", "c"): ZERO,
            ("c", "b"): ZERO,
            ("b", "a"): StepFunction(2, [(1, 1, 0)]),
            ("b", "c"): BOTTOM,
            ("c", "a"): BOTTOM,
        },
    )
    assert space._int_form()[:2] == (3, 3)
    closed = triangle_closure(space)
    assert closed.w("a", "b") == ZERO
    own = _int_table(closed.points, closed.w)
    assert own[:2] == (1, 1)
    assert closed._int_form() == on_scales(own, 3, 3)
    rebuilt = StepModularSpace(closed.points, dict(closed._table))
    assert check_axioms(closed) == check_axioms(rebuilt)
    assert check_qcategory(e_mod(closed)) == check_qcategory(e_mod(rebuilt))


def kernel_outputs():
    """Integer forms from the convolution and the pointwise kernels, each
    with its scales."""
    rng = random.Random(227)
    out = []
    for _ in range(150):
        fs = [draw(rng, 5) for _ in range(3)]
        p_scale, v_scale, (a, b, c) = _to_ints(fs)
        out += [
            (_conv(a, b, True), p_scale, v_scale),
            (_conv(a, b, False), p_scale, v_scale),
            (_pointwise_int([a, b, c], min), p_scale, v_scale),
            (_pointwise_int([a, b, c], max), p_scale, v_scale),
        ]
    return out


def test_from_ints_matches_the_validating_constructor():
    outputs = kernel_outputs()
    cuts = 0
    for fi, p_scale, v_scale in outputs:
        (fast,) = _from_ints([fi], p_scale, v_scale)
        head, raw = fi

        def val(v):
            return INF if v == math.inf else F(v, v_scale)

        slow = StepFunction(val(head), [(F(p, p_scale), val(a), val(b)) for p, a, b in raw])
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.head == slow.head and fast.cuts == slow.cuts
        assert [type(c) for c in fast.cuts] == [type(c) for c in slow.cuts]
        assert len(fast.cuts) == len(raw)  # kernel output was already canonical
        cuts += len(raw)
    assert cuts > 0
    # one call over a whole table, sharing each conversion, gives back its entries
    space = table(random.Random(231), 6, 4, 0.3)
    pts = space.points
    p_scale, v_scale, tbl = _int_table(pts, space.w)
    back = _from_ints([f for row in tbl for f in row], p_scale, v_scale)
    assert back == [space.w(a, b) for a in pts for b in pts]


# ---------------------------------------------------------------------------
# The kernels that stand in for a convolution and a comparison.


def kernel_triples():
    """Seeded ``(f, g, c)`` on common scales, from :func:`draw` (so with
    BOTTOM, ZERO, infinite heads and cuts on thirds, fifths and sevenths),
    in both boundary modes.  ``c`` is a drawn function, the convolution of
    ``f`` and ``g`` itself, its pointwise minimum or maximum with a drawn
    function, or the convolution one step too high: its cuts moved one
    position unit right, or its finite values raised by one value unit.
    All but the first put cuts of ``c`` on the starts of atom pairs."""
    rng = random.Random(233)
    out = []
    for _ in range(2400):
        wb = rng.random() < 0.5
        _, _, (f, g, d) = _to_ints([draw(rng, 4) for _ in range(3)])
        conv = head, cuts = _conv(f, g, wb)
        c = rng.choice(
            (
                d,
                conv,
                _pointwise_int([conv, d], min),
                _pointwise_int([conv, d], max),
                (head, tuple((p + 1, a, b) for p, a, b in cuts)),
                (head + 1, tuple((p, a + 1, b + 1) for p, a, b in cuts)),
            )
        )
        out.append((f, g, c, wb))
    return out


def test_below_conv_is_the_comparison_with_the_convolution():
    seen = {True: 0, False: 0}
    for f, g, c, wb in kernel_triples():
        fa, ga = _atoms(f, wb), _atoms(g, wb)
        expected = _le(_sweep(fa, ga), c)
        assert _below_conv(_probe(c), fa, ga) == expected, (f, g, c, wb)
        seen[expected] += 1
    assert seen[False] * 3 >= sum(seen.values()) and seen[True] * 3 >= sum(seen.values())


def test_floored_sweep_is_the_minimum_with_the_floor():
    # ``c`` is the entry the closure relaxes: the floored sweep is its
    # pointwise minimum with the convolution, and it differs from ``c``
    # exactly when the convolution is somewhere smaller
    relaxed = 0
    triples = kernel_triples()
    for f, g, c, wb in triples:
        fa, ga = _atoms(f, wb), _atoms(g, wb)
        conv = _sweep(fa, ga)
        new = _sweep(fa, ga, _atoms(c, wb))
        assert new == _pointwise_int([c, conv], min), (f, g, c, wb)
        assert (new != c) == (not _le(conv, c))
        relaxed += new != c
    assert 3 * relaxed >= len(triples) and 3 * relaxed <= 2 * len(triples)


# ---------------------------------------------------------------------------
# The m2 loop still tests the triples the integral bound leaves open.


def test_m2_sweeps_exactly_the_undecided_triples(monkeypatch):
    # each undecided triple reaches ``_below_conv``, which builds no
    # convolution, so the check on a closed table makes no ``_sweep`` call
    calls = {"_below_conv": 0, "_sweep": 0}

    def counted(name):
        fn = getattr(modular, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(modular, name, wrapper)

    counted("_below_conv")
    counted("_sweep")
    rng = random.Random(229)
    total = 0
    for n in (3, 5, 8):
        closed = triangle_closure(table(rng, n, 2, 0.5))
        pts, w = closed.points, closed.w
        undecided = sum(
            not le_op(w(x, y), w(x, z)) and not le_op(w(y, z), w(x, z))
            for x in pts
            for y in pts
            if y != x
            for z in pts
            if z != y
        )
        calls.update(_below_conv=0, _sweep=0)
        assert check_axioms(closed).m2
        assert calls == {"_below_conv": undecided, "_sweep": 0}
        total += undecided
    assert total > 0


def undecided_closure_triples(space):
    """Replays the relaxation on step functions, in the closure's order, and
    counts the (k, i, j) with i, j and k distinct whose current entry lies
    pointwise under neither leg; returns the count and the relaxed table."""
    pts = space.points
    w = {(a, b): space.w(a, b) for a in pts for b in pts}
    count = 0
    for k in pts:
        for i in pts:
            for j in pts:
                if k in (i, j) or i == j:
                    continue
                left, right, cur = w[(i, k)], w[(k, j)], w[(i, j)]
                if le_op(left, cur) or le_op(right, cur):
                    continue
                count += 1
                w[(i, j)] = join_op([cur, oplus(left, right)])
    return count, w


def test_closure_sweeps_exactly_the_undecided_triples(monkeypatch):
    calls = [0]
    sweep = modular._sweep

    def counted(*args):
        calls[0] += 1
        return sweep(*args)

    space = half_empty(random.Random(107), 8, 6)
    undecided, relaxed = undecided_closure_triples(space)
    monkeypatch.setattr(modular, "_sweep", counted)
    closed = triangle_closure(space)
    assert {pair: closed.w(*pair) for pair in relaxed} == relaxed
    assert calls[0] == undecided
    # the unpruned loop convolves all 8 * 7 * 7 triples with i, j != k
    assert 0 < undecided < 8 * 7 * 7
