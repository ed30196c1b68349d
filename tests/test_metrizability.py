"""The paper's last claim on finite sets: the topologies induced by
quasi-pseudometric modulars are exactly the quasi-pseudometrizable ones.

On a finite set every topology is the up-set (Alexandrov) topology of its
specialization preorder (Alexandroff, "Diskrete Räume", 1937), and that
topology is induced by the quasi-pseudometric d(x, y) = 0 when x <= y and 1
otherwise (Kopperman, "All topologies come from generalized metrics",
1988).  So every finite topology is quasi-pseudometrizable, and the claim
says each one comes from a modular.  Here each preorder on 1 to 4 points is
realized under three gauges through ``from_gauge``.  The space must satisfy
m1 and m2, pass the uniformity check, induce the preorder's up-set topology
and agree with the ball topology of its category.
"""

from fractions import Fraction as F
from itertools import product

import pytest

from nablamod import (
    INF,
    StepFunction,
    check_axioms,
    check_quasi_uniformity_base,
    from_gauge,
    topology,
    verify_topology_theorem,
)

GAUGES = [
    StepFunction(1, []),
    StepFunction(INF, [(1, 2, 0)]),
    StepFunction(3, [(F(1, 2), 2, 1), (2, 1, F(1, 4))]),
]


def preorders(n):
    """Every reflexive, transitive relation on range(n), as a set of pairs."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product((False, True), repeat=len(off)):
        rel = {(i, i) for i in range(n)} | {p for p, b in zip(off, bits) if b}
        if all((i, k) in rel for i, j in rel for j2, k in rel if j == j2):
            yield rel


PREORDERS = [(n, rel) for n in range(1, 5) for rel in preorders(n)]


def up_sets(pts, rel):
    """The open sets of the Alexandrov topology: every upward-closed subset."""
    n = len(pts)
    return frozenset(
        frozenset(pts[i] for i in range(n) if g >> i & 1)
        for g in range(1 << n)
        if all(g >> j & 1 for i, j in rel if g >> i & 1)
    )


def test_preorder_count():
    # 1 + 4 + 29 + 355 labelled preorders on 1 to 4 points
    assert len(PREORDERS) == 389


@pytest.mark.parametrize("gauge", GAUGES, ids=["constant", "drop_to_zero", "two_cuts"])
def test_every_finite_preorder_is_realized(gauge):
    for n, rel in PREORDERS:
        pts = [f"p{i}" for i in range(n)]
        d = {
            (pts[i], pts[j]): 0 if (i, j) in rel else 1
            for i in range(n)
            for j in range(n)
        }
        space = from_gauge(pts, d, gauge)
        report = check_axioms(space)
        assert report.m1 and report.m2, rel
        assert check_quasi_uniformity_base(space).ok, rel
        assert topology(space).opens == up_sets(pts, rel), rel
        assert verify_topology_theorem(space), rel
