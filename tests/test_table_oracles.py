"""The table-level fast paths against the literal definitions they replace.

``triangle_closure``, the m2 check of ``check_axioms`` and the qc2 check of
``check_qcategory`` put a whole table on one integer scale and run the
convolution kernel on it directly.  The oracles below are the plain loops
over the public step-function operations (``oplus`` -> ``le_op`` ->
``join_op`` for the closure, ``oplus_interior`` -> ``le_op`` for m2/qc2),
which are themselves checked against grid oracles in ``test_nabla.py``.
"""

import random

from nablamod import (
    BOTTOM,
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
    oplus,
    oplus_interior,
    random_step,
    triangle_closure,
)
from test_nabla import odd_step


def closure_oracle(space, conv=oplus):
    """All-pairs relaxation of the table under ``conv``, one StepFunction
    operation at a time."""
    pts = space.points
    n = len(pts)
    tbl = [[space.w(a, b) for b in pts] for a in pts]
    for k in range(n):
        for i in range(n):
            if i == k or tbl[i][k] == BOTTOM:
                continue
            for j in range(n):
                if j == k:
                    continue
                via = conv(tbl[i][k], tbl[k][j])
                if not le_op(via, tbl[i][j]):
                    tbl[i][j] = join_op([tbl[i][j], via])
    return StepModularSpace(
        pts, {(a, b): tbl[i][j] for i, a in enumerate(pts) for j, b in enumerate(pts)}
    )


def m2_oracle(space):
    pts = space.points
    return all(
        le_op(oplus_interior(space.w(x, y), space.w(y, z)), space.w(x, z))
        for x in pts
        for y in pts
        for z in pts
    )


def qc2_oracle(cat):
    pts = cat.points
    return all(
        le_op(oplus_interior(cat.hom(x, z), cat.hom(z, y)), cat.hom(x, y))
        for x in pts
        for z in pts
        for y in pts
    )


def partial_table(rng, n, max_cuts, draw=random_step):
    """A table with a zero diagonal and about half of the other entries
    missing (BOTTOM), as ``check --close`` reads a partial file."""
    pts = [f"p{i}" for i in range(n)]
    w = {
        (a, b): draw(rng, max_cuts) if rng.random() < 0.5 else BOTTOM
        for a in pts
        for b in pts
        if a != b
    }
    return StepModularSpace(pts, w)


def full_table(rng, n, max_cuts):
    """A table with every entry drawn; the diagonal is ZERO except now and
    then, so m1 and m2 fail on most of them."""
    pts = [f"p{i}" for i in range(n)]
    w = {
        (a, b): ZERO if a == b and rng.random() < 0.8 else random_step(rng, max_cuts)
        for a in pts
        for b in pts
    }
    return StepModularSpace(pts, w)


def assert_matches(space):
    """Closure (when defined), m2 and qc2 agree with their oracles."""
    if all(space.w(x, x) == ZERO for x in space.points):
        closed = triangle_closure(space)
        assert closed == closure_oracle(space)
        assert check_axioms(closed).m2 and m2_oracle(closed)
    m2 = m2_oracle(space)
    assert check_axioms(space).m2 == m2
    assert check_qcategory(e_mod(space)).qc2 == qc2_oracle(e_mod(space)) == m2
    return m2


def test_table_fast_paths_match_the_literal_loops():
    rng = random.Random(71)
    m2_false = left_jumps = 0
    for max_cuts in (1, 2, 6, 12):
        for n in range(2, 7):
            for _ in range(5 if max_cuts <= 2 else 2):
                for space in (partial_table(rng, n, max_cuts), full_table(rng, n, max_cuts)):
                    m2_false += not assert_matches(space)
                    left_jumps += not all(is_left_continuous(f) for f in space.all_homs())
    assert m2_false > 0 and left_jumps > 0


def test_table_fast_paths_on_chistyakov_examples():
    for n in (1, 3, 10):
        space = chistyakov_example(n)
        assert assert_matches(space)
        assert not check_axioms(space).left_continuous


def test_closure_with_mixed_denominators_bottom_and_zero():
    # Entries with thirds, fifths and sevenths in one table, plus explicit
    # ZERO and BOTTOM off the diagonal: one common scale must serve them all.
    rng = random.Random(73)
    for n in (3, 4, 5):
        for _ in range(4):
            space = partial_table(rng, n, 3, draw=odd_step)
            w = {(a, b): space.w(a, b) for a in space.points for b in space.points}
            w[("p0", "p1")] = ZERO
            w[("p1", "p2")] = BOTTOM
            assert_matches(StepModularSpace(space.points, w))


def test_closure_is_not_the_largest_split_triangle_table():
    # triangle_closure closes under the boundary-inclusive oplus.  Closing
    # under oplus_interior gives a table that is also pointwise at most the
    # input and also satisfies m2, yet is larger at a left jump: at t = 1 the
    # split 1 + 0 reaches w(a, b)(1) + head(w(b, c)) = 1, which no split into
    # two positive parts can.
    jump = StepFunction(1, [(1, 0, 0)])  # 1 on (0, 1), 0 from 1 on
    space = StepModularSpace(
        ["a", "b", "c"],
        {
            ("a", "b"): jump,
            ("b", "c"): jump,
            ("a", "c"): BOTTOM,
            ("b", "a"): BOTTOM,
            ("c", "a"): BOTTOM,
            ("c", "b"): BOTTOM,
        },
    )
    closed = triangle_closure(space)
    assert closed == closure_oracle(space)
    assert closed.w("a", "c") == StepFunction(2, [(1, 1, 1), (2, 0, 0)])
    interior = closure_oracle(space, conv=oplus_interior)
    assert interior.w("a", "c") == StepFunction(2, [(1, 2, 1), (2, 0, 0)])
    assert check_axioms(closed).m2 and check_axioms(interior).m2
    for a in space.points:
        for b in space.points:
            assert le_op(space.w(a, b), interior.w(a, b))
            assert le_op(interior.w(a, b), closed.w(a, b))
    assert interior != closed
