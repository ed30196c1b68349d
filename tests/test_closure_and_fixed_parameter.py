"""The one Warshall closure and the one piece walk against what they replace.

``quantale_lab._closure`` is the reflexive-transitive closure behind both
``FinitePreorder`` and ``modular._specialization``; its oracle is literal
breadth-first reachability.  ``modular._least_fixed_parameter`` walks the
pieces of a step function once; its oracle is the walk it replaced, which
asked each piece for its infimum separately (``_piece_infimum``), kept here
verbatim.  The carrier gate of ``lawvere_truncated_quantale`` is checked
without building any carrier over the cap.
"""

import random
from fractions import Fraction as F
from typing import Optional

import pytest

from nablamod import (
    BOTTOM,
    INF,
    ZERO,
    FinitePreorder,
    InputError,
    StepFunction,
    StepModularSpace,
    ext,
    induced_distance,
    lawvere_truncated_quantale,
    random_closed_space,
    random_scaled_space,
    random_step,
)
from nablamod import qcat
from nablamod.modular import _least_fixed_parameter, _neighborhood_masks, _specialization
from nablamod.quantale_lab import _closure


def bfs_closure(rows):
    """Up-rows of the reflexive-transitive closure, by breadth-first search
    from each element over the relation's bit rows."""
    n = len(rows)
    out = []
    for i in range(n):
        seen, queue = {i}, [i]
        while queue:
            k = queue.pop()
            for j in range(n):
                if rows[k] >> j & 1 and j not in seen:
                    seen.add(j)
                    queue.append(j)
        out.append(sum(1 << j for j in seen))
    return out


def random_relation(rng, n):
    density = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9])
    rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        # a cycle through a random subset, so closures have to cross it
        cyc = rng.sample(range(n), rng.randint(2, n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            rows[a] |= 1 << b
    return rows


def test_closure_is_bfs_reachability():
    rng = random.Random(1962)
    for _ in range(4000):
        rows = random_relation(rng, rng.randint(1, 14))
        before = list(rows)
        assert _closure(rows) == bfs_closure(rows), rows
        assert rows == before  # the input is left as it was


def test_closure_covers_the_edge_shapes():
    assert _closure([]) == []
    assert _closure([0]) == [1]
    # a non-reflexive path and a two-cycle
    assert _closure([0b010, 0b100, 0]) == [0b111, 0b110, 0b100]
    assert _closure([0b10, 0b01]) == [0b11, 0b11]
    # a chain listed against the index order needs every pivot
    n = 14
    rows = [1 << (i - 1) if i else 0 for i in range(n)]
    assert _closure(rows) == [(1 << (i + 1)) - 1 for i in range(n)]


def test_finite_preorder_rows_are_bfs_reachability():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 14)
        rows = random_relation(rng, n)
        names = [f"e{i}" for i in range(n)]
        pairs = [(names[i], names[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1]
        pre, want = FinitePreorder(names, pairs), bfs_closure(rows)
        assert pre._up == want
        assert all(
            pre.leq(names[i], names[j]) == bool(want[i] >> j & 1)
            for i in range(n)
            for j in range(n)
        )


def zero_head_rows(space):
    pts = space.points
    if hasattr(space, "d"):
        return [sum(1 << j for j, y in enumerate(pts) if space.d(x, y) == 0) for x in pts]
    return [sum(1 << j for j, y in enumerate(pts) if space.w(x, y).head == ZERO.head) for x in pts]


def random_table(rng, n):
    """A step table that need not have m1 or m2: nonzero diagonals, ZERO and
    BOTTOM entries and random steps anywhere."""
    shapes = [ZERO, ZERO, BOTTOM, StepFunction(1), StepFunction(2, [(1, 0, 0)])]
    pts = [f"p{i}" for i in range(n)]
    table = {}
    for a in pts:
        for b in pts:
            if a == b and rng.random() < 0.7:
                continue  # the ZERO default
            table[(a, b)] = rng.choice(shapes) if rng.random() < 0.6 else random_step(rng, 3)
    return StepModularSpace(pts, table)


def test_specialization_is_bfs_over_the_zero_head_relation():
    rng = random.Random(4242)
    seen_nonreflexive = seen_nontransitive = False
    for k in range(600):
        n = rng.randint(1, 14)
        if k % 5 == 0:
            space = random_closed_space(rng, min(n, 6))
        elif k % 5 == 1:
            space = random_scaled_space(rng, min(n, 12))
        else:
            space = random_table(rng, n)
        rows = zero_head_rows(space)
        assert _neighborhood_masks(space) == rows
        assert _specialization(space) == bfs_closure(rows)
        seen_nonreflexive |= any(not rows[i] >> i & 1 for i in range(len(rows)))
        seen_nontransitive |= bfs_closure(rows) != [r | 1 << i for i, r in enumerate(rows)]
    # tables without m1, and without m2, both occurred
    assert seen_nonreflexive and seen_nontransitive


# ---------------------------------------------------------------------------
# The induced distance: the walk that asked each piece for its infimum.


def old_least_fixed_parameter(f: StepFunction):
    prev = F(0)
    for i, c in enumerate(f.cuts):
        v = f.head if i == 0 else f.cuts[i - 1].after
        hit = old_piece_infimum(prev, c.pos, v, last=False)
        if hit is not None:
            return ext(hit)
        if not c.at.is_infinite and c.at.as_fraction() <= c.pos:
            return ext(c.pos)
        prev = c.pos
    v = f.final_value() if f.cuts else f.head
    hit = old_piece_infimum(prev, None, v, last=True)
    return ext(hit) if hit is not None else ext("inf")


def old_piece_infimum(a: F, b: Optional[F], v, last: bool) -> Optional[F]:
    # least t in the open interval (a, b) with v <= t, if any
    if v.is_infinite:
        return None
    vf = v.as_fraction()
    if last:
        return max(a, vf)
    if vf >= b:
        return None
    return a if vf <= a else vf


def near_cut_step(rng):
    """A step function whose values sit on, just below or just above its own
    cut positions, with infinity (an INF head included) mixed in."""
    k = rng.randint(0, 5)
    positions = sorted(rng.sample([F(i, 6) for i in range(1, 37)], k))
    tiny = F(1, rng.choice([7, 60, 1000]))
    pool = [INF, ext(0)]
    for p in positions:
        pool += [ext(p), ext(p - tiny) if p > tiny else ext(0), ext(p + tiny)]
    if rng.random() < 0.3:
        pool += [INF] * 3
    values = sorted((rng.choice(pool) for _ in range(2 * k + 1)), reverse=True)
    if rng.random() < 0.15:
        values[0] = INF
    cuts = [(p, values[2 * i + 1], values[2 * i + 2]) for i, p in enumerate(positions)]
    return StepFunction(values[0], cuts)


def test_least_fixed_parameter_matches_the_piece_walk():
    rng = random.Random(2026)
    inf_heads = hits_at_cut = hits_in_piece = never = 0
    for k in range(25_000):
        f = near_cut_step(rng) if k % 2 else random_step(rng, 8)
        got, want = _least_fixed_parameter(f), old_least_fixed_parameter(f)
        assert got == want, f
        at_cut = want in [ext(c.pos) for c in f.cuts]
        inf_heads += f.head.is_infinite
        never += want.is_infinite
        hits_at_cut += at_cut
        hits_in_piece += not (want.is_infinite or at_cut)
    assert min(inf_heads, hits_at_cut, hits_in_piece, never) > 500


def test_least_fixed_parameter_on_hand_cases():
    cases = [
        (ZERO, 0),
        (BOTTOM, "inf"),
        (StepFunction(3), 3),
        # the value 2 on (0, 1) never meets t; the cut at 1 has value 1
        (StepFunction(2, [(1, 1, 1)]), 1),
        # the cut at 1 keeps 2, the piece after it takes 1/2, so inf at 1
        (StepFunction(2, [(1, 2, F(1, 2))]), 1),
        # the piece (1, 3) of value 2 meets t at 2
        (StepFunction(5, [(1, 2, 2), (3, 1, 1)]), 2),
        (StepFunction(INF, [(2, INF, 1)]), 2),
        (StepFunction(INF, [(2, 1, 1)]), 2),
    ]
    for f, want in cases:
        assert _least_fixed_parameter(f) == ext(want), f
    space = StepModularSpace(["a", "b"], {("a", "b"): StepFunction(2, [(1, 1, 1)]), ("b", "a"): BOTTOM})
    assert induced_distance(space) == {
        ("a", "a"): ext(0),
        ("a", "b"): ext(1),
        ("b", "a"): INF,
        ("b", "b"): ext(0),
    }


# ---------------------------------------------------------------------------
# The carrier gate: refused before any poset is built.


def test_carrier_just_above_the_cap_is_refused_without_a_build(monkeypatch):
    cap = qcat._CARRIER_CAP
    # a carrier at the cap builds in about a second; far above it the closure
    # loop alone would run for minutes before refusing
    assert cap <= 256

    def no_build(*args, **kwargs):
        raise AssertionError("FinitePoset built for a refused carrier")

    monkeypatch.setattr(qcat, "FinitePoset", no_build)
    # {1, m} closes to 0, 1, ..., 2m: the ratio gate lets 2m = cap through,
    # and the closure's 2m + 1 finite values are one above the cap
    m = cap // 2
    with pytest.raises(InputError, match="value set does not close to a manageable carrier"):
        lawvere_truncated_quantale([1, m])
    # one step further the ratio gate refuses before closing anything
    with pytest.raises(InputError, match="value set does not close to a manageable carrier"):
        lawvere_truncated_quantale([1, m + 1])


def test_carrier_at_the_cap_reaches_the_build(monkeypatch):
    sizes = []

    class Reached(Exception):
        pass

    def record(elements, pairs):
        sizes.append(len(elements))
        raise Reached

    monkeypatch.setattr(qcat, "FinitePoset", record)
    m = (qcat._CARRIER_CAP - 1) // 2
    with pytest.raises(Reached):
        lawvere_truncated_quantale([1, m])
    # 0, 1, ..., 2m and inf
    assert sizes == [2 * m + 2]
