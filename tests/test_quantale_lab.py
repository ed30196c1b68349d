"""Tests for finite preorders, lattices, quantales, and the well-below
machinery.  The closed-form well-below decision is pinned to the literal
all-families definition on every carrier small enough to enumerate."""

import random

import pytest

from nablamod import ContractError, InputError, ParseError, ResourceBoundError
from nablamod.quantale_lab import (
    FinitePoset,
    FinitePreorder,
    FiniteQuantale,
    QuantaleLawReport,
    check_quantale_laws,
    is_isotone,
    make_example,
    meet_quantale,
    parse_lattice,
    raney_check,
    vdl_check,
    well_below,
    well_below_by_definition,
)


def powerset_members(name):
    return frozenset() if name == "{}" else frozenset(name[1:-1].split(","))


# ---------------------------------------------------------------------------
# Order structure.


def test_preorder_closure():
    p = FinitePreorder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")  # transitivity
    assert p.leq("b", "b")  # reflexivity
    assert not p.leq("c", "a")


def test_preorder_allows_cycles_poset_does_not():
    cyc = [("a", "b"), ("b", "a")]
    p = FinitePreorder(["a", "b"], cyc)
    assert p.leq("a", "b") and p.leq("b", "a")
    with pytest.raises(InputError):
        FinitePoset(["a", "b"], cyc)


def test_chain_joins_are_max():
    q = make_example("chain", 5)
    p = q.poset
    assert p.join("1", "3") == "3"
    assert p.meet("1", "3") == "1"
    assert p.top() == "4"
    assert p.bottom() == "0"
    assert p.join_all([]) == "0"
    assert p.join_all(["1", "4", "2"]) == "4"


def test_powerset_joins_are_unions():
    p = make_example("powerset", 3).poset
    assert p.join("{1}", "{2,3}") == "{1,2,3}"
    assert p.meet("{1,2}", "{2,3}") == "{2}"
    assert p.bottom() == "{}"
    assert p.top() == "{1,2,3}"


def test_vee_shape_is_not_a_lattice():
    p = FinitePoset(["a", "b", "top"], [("a", "top"), ("b", "top")])
    assert p.join("a", "b") == "top"
    assert p.meet("a", "b") is None
    assert not p.is_lattice()
    with pytest.raises(InputError):
        meet_quantale(p)


# ---------------------------------------------------------------------------
# Well below.


def test_well_below_frozen_powerset_cases():
    q = make_example("powerset", 2)
    assert well_below(q, "{}", "{1}")
    assert well_below(q, "{1}", "{1,2}")
    assert not well_below(q, "{1,2}", "{1,2}")
    assert not well_below(q, "{}", "{}")  # the empty family refutes bottom


def test_well_below_powerset_characterization():
    # an element is well below B exactly when it is empty (and B is not) or
    # a singleton whose member lies in B
    for n in range(4):
        p = make_example("powerset", n).poset
        for a in p.elements:
            for b in p.elements:
                sa, sb = powerset_members(a), powerset_members(b)
                expected = (not sa and bool(sb)) or (len(sa) == 1 and sa <= sb)
                assert well_below(p, a, b) == expected, (n, a, b)


def test_well_below_matches_literal_definition():
    carriers = [
        make_example("chain", 1),
        make_example("chain", 2),
        make_example("chain", 5),
        make_example("powerset", 0),
        make_example("powerset", 2),
        make_example("powerset", 3),
        make_example("diamond"),
    ]
    for q in carriers:
        for a in q.elements:
            for b in q.elements:
                assert well_below(q, a, b) == well_below_by_definition(q, a, b)


def test_well_below_on_chains_is_not_strict_order():
    # on a finite chain every element is well below itself except bottom;
    # the strict-inequality shortcut familiar from the unit interval is a
    # property of density, not of chains in general
    p = make_example("chain", 4).poset
    assert not well_below(p, "0", "0")
    for e in ["1", "2", "3"]:
        assert well_below(p, e, e)


def test_well_below_oracle_is_gated():
    with pytest.raises(ResourceBoundError):
        well_below_by_definition(make_example("powerset", 4), "{}", "{1}")


def test_raney_frozen_cases():
    assert raney_check(make_example("chain", 6))
    assert raney_check(make_example("powerset", 3))
    assert not raney_check(make_example("diamond"))


def raney_by_pairs(p, below):
    """Every element is the join of the elements ``below`` it, asking
    ``below`` once per pair."""
    return all(p.join_all([a for a in p.elements if below(p, a, b)]) == b for b in p.elements)


def test_raney_check_matches_the_per_pair_reading():
    # raney_check builds each element's blocker join once; here well_below
    # is asked per pair, and so is the all-families oracle where it runs
    pentagon = FinitePoset(
        ["bot", "a", "c", "b", "top"],
        [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")],
    )
    stock = [make_example("two").poset, make_example("diamond").poset, pentagon]
    stock += [make_example("chain", n).poset for n in (1, 2, 5, 8, 17)]
    stock += [make_example("powerset", n).poset for n in range(6)]
    seen = set()
    for p in stock:
        expected = raney_by_pairs(p, well_below)
        assert raney_check(p) == expected, p.elements
        if len(p.elements) <= 8:
            assert raney_by_pairs(p, well_below_by_definition) == expected, p.elements
        seen.add(expected)
    assert seen == {True, False}


def test_vdl_frozen_cases():
    assert vdl_check(make_example("two")) == {"raney": True, "vdl1": True, "vdl2": True}
    assert vdl_check(make_example("powerset", 2)) == {
        "raney": True,
        "vdl1": True,
        "vdl2": False,
    }
    assert vdl_check(make_example("chain", 3)) == {
        "raney": True,
        "vdl1": True,
        "vdl2": True,
    }


def test_vdl2_matches_the_list_membership_reading():
    # vdl_check tests join stability against a set of element indices; the
    # reference asks for each join by name in a list of the elements well
    # below the top, as the check did before
    def vdl2_by_list(p):
        top = p.top()
        near_top = [a for a in p.elements if well_below(p, a, top)]
        return all(p.join(x, y) in near_top for x in near_top for y in near_top)

    pentagon = FinitePoset(
        ["bot", "a", "c", "b", "top"],
        [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")],
    )
    stock = [make_example("chain", n).poset for n in (1, 2, 3, 8, 33)]
    stock += [make_example("powerset", n).poset for n in range(6)]
    stock += [make_example("diamond").poset, pentagon]
    verdicts = set()
    for p in stock:
        expected = vdl2_by_list(p)
        assert vdl_check(p)["vdl2"] == expected, p.elements
        verdicts.add(expected)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Quantale laws.


def test_two_with_meet_is_a_value_quantale():
    report = check_quantale_laws(make_example("two"))
    assert report.semigroup
    assert report.left_dist and report.right_dist
    assert report.commutative
    assert report.unital and report.unit == "1"
    assert report.integral
    assert report.value_quantale


def test_powerset_meet_quantale_is_not_a_value_quantale():
    report = check_quantale_laws(make_example("powerset", 2))
    assert report.semigroup and report.left_dist and report.right_dist
    assert report.unital and report.integral
    assert not report.value_quantale  # join stability near the top fails


def test_chain_meet_quantale_is_a_frame_and_value_quantale():
    report = check_quantale_laws(make_example("chain", 4))
    assert report.left_dist and report.right_dist  # frame: meet over joins
    assert report.value_quantale


def test_diamond_meet_fails_distributivity():
    report = check_quantale_laws(make_example("diamond"))
    assert report.semigroup and report.commutative
    assert not report.left_dist and not report.right_dist
    assert not report.value_quantale


def test_non_associative_operation_is_reported():
    p = make_example("two").poset
    op = {("0", "0"): "1", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "0"}
    report = check_quantale_laws(FiniteQuantale(p, op))
    assert not report.semigroup
    assert not report.unital


def test_quantale_construction_requires_total_table():
    p = make_example("two").poset
    with pytest.raises(InputError):
        FiniteQuantale(p, {("0", "0"): "0"})
    with pytest.raises(InputError):
        FiniteQuantale(p, {(a, b): "2" for a in "01" for b in "01"})


def subset_distributivity(q):
    """``(left_dist, right_dist)`` by the definition: each row ``a * -`` and
    each column ``- * a`` maps the join of every one of the 2^n subsets (the
    empty one included) to the join of its images."""
    p = q.poset
    n = len(p.elements)
    idx = {e: i for i, e in enumerate(p.elements)}
    mul = [[idx[q.mul(a, b)] for b in p.elements] for a in p.elements]
    jt = p._jt
    bot = idx[p.bottom()]
    size = 1 << n
    join_of = [bot] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        join_of[mask] = jt[join_of[mask ^ (1 << low)]][low]
    left_dist = right_dist = True
    for a in range(n):
        row = mul[a]
        col = [mul[b][a] for b in range(n)]
        lrow = [bot] * size
        rrow = [bot] * size
        for mask in range(1, size):
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            lrow[mask] = jt[lrow[rest]][row[low]]
            rrow[mask] = jt[rrow[rest]][col[low]]
        left_dist = left_dist and all(row[join_of[m]] == lrow[m] for m in range(size))
        right_dist = right_dist and all(col[join_of[m]] == rrow[m] for m in range(size))
    return left_dist, right_dist


def pentagon():
    """N5: bot < a < c < top and bot < b < top, the smallest lattice that is
    not modular."""
    pairs = [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")]
    return FinitePoset(["bot", "a", "b", "c", "top"], pairs)


def random_op(rng, p):
    """An operation table whose rows mix maps that keep all joins (the meet
    with the row's element, a constant on everything but the bottom, the
    identity, the constant bottom) with noise, transposed half the time, so
    that both verdicts of both laws occur."""
    elems = p.elements
    bot = p.bottom()
    noise = rng.choice([0.0, 0.05, 0.2, 0.6])
    rows = {}
    for a in elems:
        kind = rng.randrange(4)
        c = rng.choice(elems)
        for x in elems:
            if rng.random() < noise:
                rows[(a, x)] = rng.choice(elems)
            elif kind == 0:
                rows[(a, x)] = p.meet(a, x)
            elif kind == 1:
                rows[(a, x)] = bot if x == bot else c
            elif kind == 2:
                rows[(a, x)] = x
            else:
                rows[(a, x)] = bot
    if rng.random() < 0.5:
        rows = {(x, a): v for (a, x), v in rows.items()}
    return rows


STOCK = [make_example("two").poset, make_example("diamond").poset, pentagon()]
STOCK += [make_example("chain", n).poset for n in range(1, 9)]
STOCK += [make_example("powerset", n).poset for n in range(4)]


def test_distributivity_matches_the_subset_definition():
    rng = random.Random("binary joins")
    seen = set()
    for trial in range(2400):
        p = STOCK[trial % len(STOCK)]
        q = FiniteQuantale(p, random_op(rng, p))
        report = check_quantale_laws(q)
        expected = subset_distributivity(q)
        assert (report.left_dist, report.right_dist) == expected, (p.elements, q._mul)
        seen.add(expected)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_law_check_has_no_gate():
    # the 2^n subset scan is gone, so carriers past 16 elements get a report
    for n in (17, 64):
        report = check_quantale_laws(make_example("chain", n))
        assert report == QuantaleLawReport(
            semigroup=True,
            left_dist=True,
            right_dist=True,
            commutative=True,
            unital=True,
            integral=True,
            value_quantale=True,
            unit=str(n - 1),
        )


def test_make_example_validates_arguments():
    with pytest.raises(InputError):
        make_example("chain")
    with pytest.raises(InputError):
        make_example("powerset", 6)
    with pytest.raises(InputError):
        make_example("mystery")


# ---------------------------------------------------------------------------
# Isotone maps.


def test_is_isotone():
    src = FinitePreorder(["a", "b"], [("a", "b")])
    dst = make_example("chain", 3).poset
    assert is_isotone(src, dst, {"a": "0", "b": "2"})
    assert is_isotone(src, dst, {"a": "1", "b": "1"})
    assert not is_isotone(src, dst, {"a": "2", "b": "0"})
    with pytest.raises(InputError):
        is_isotone(src, dst, {"a": "0"})


# ---------------------------------------------------------------------------
# Lattice files.


TWO_FILE = """\
# the two-element chain with its meet
elem 0
elem 1
leq 0 1
op 0 0 0
op 0 1 0
op 1 0 0
op 1 1 1
unit 1
"""


def test_parse_lattice_roundtrip():
    lf = parse_lattice(TWO_FILE)
    assert lf.poset.elements == ("0", "1")
    assert lf.poset.leq("0", "1")
    assert lf.unit == "1"
    q = lf.quantale()
    assert check_quantale_laws(q).value_quantale


def test_parse_lattice_without_op():
    lf = parse_lattice("elem x\nelem y\nleq x y\n")
    assert lf.op is None
    assert lf.poset.is_lattice()
    with pytest.raises(InputError):
        lf.quantale()


@pytest.mark.parametrize(
    "text,line",
    [
        ("elem a\nleq a b\n", 2),
        ("elem a\nelem a\n", 2),
        ("elem a\nwat a\n", 2),
        ("elem a\nleq a\n", 2),
        ("elem a\nelem b\nleq a b\nleq b a\n", 4),
    ],
)
def test_parse_lattice_errors_carry_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_lattice(text)
    assert exc.value.line == line


def test_parse_lattice_comments_and_blank_lines():
    lf = parse_lattice("\n# nothing here\nelem only  # trailing\n")
    assert lf.poset.elements == ("only",)
