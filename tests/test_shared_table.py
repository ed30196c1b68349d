"""One table behind a space and its category, and derived tables kept in
integer form.

``e_mod`` and ``e_nabla`` present one ``_Table`` as the other class
(``_Table._as``): the same entry dict and the forms built so far.
``regularize`` and ``triangle_closure`` return tables made from kernel
output in integer form (``_Table._of_form``), whose step functions are
built on first use.  ``stepfn._left_regular`` is the one left
regularization kernel behind ``left_regularize``, ``regularize``, the
left-continuity verdict and ``e_nabla_L``.  Each is checked here against
the ``StepFunction`` loop it replaces, kept below as the oracle.
"""

import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from nablamod import (
    INF,
    ContractError,
    FiniteQCategory,
    InputError,
    NablaCategory,
    ScaledModularSpace,
    StepFunction,
    chistyakov_example,
    check_axioms,
    e_mod,
    e_nabla,
    e_nabla_L,
    format_qcat,
    format_space,
    from_preorder,
    is_left_continuous,
    left_regularize,
    parse_space,
    random_closed_space,
    random_scaled_space,
    regularize,
    triangle_closure,
    u_regularize,
)
from nablamod import cli, modular
from nablamod.quantale_lab import (
    FinitePoset,
    FinitePreorder,
    FiniteQuantale,
    check_quantale_laws,
    make_example,
)
from nablamod.stepfn import _from_int, _left_regular, _to_ints
from test_int_form import draw, kernel_outputs, table

DATA = Path(__file__).parent / "data"


def oracle_left_regularize(f):
    """The StepFunction loop ``left_regularize`` ran before the kernel."""
    cuts = []
    prev = f.head
    for c in f.cuts:
        cuts.append((c.pos, prev, c.after))
        prev = c.after
    return StepFunction(f.head, cuts)


def oracle_regularize(space):
    """``regularize`` as it was: every entry through the oracle above and the
    validating constructor of the table's class."""
    if isinstance(space, ScaledModularSpace):
        return space
    if not all(isinstance(f, StepFunction) for f in space.all_homs()):
        raise InputError(f"{type(space).__name__} has no step entries to regularize")
    return type(space)(space.points, {k: oracle_left_regularize(f) for k, f in space._table.items()})


def validated(fi, p_scale, v_scale):
    """The integer form ``fi`` through the validating ``StepFunction``
    constructor."""

    def val(v):
        return INF if v == math.inf else F(v, v_scale)

    head, cuts = fi
    return StepFunction(val(head), [(F(p, p_scale), val(a), val(b)) for p, a, b in cuts])


def step_tables():
    """Seeded tables with BOTTOM, ZERO, left jumps, cuts and values on
    thirds, fifths and sevenths and nonzero diagonals, the Chistyakov
    examples and closed tables, each as a space and as a category."""
    rng = random.Random(307)
    spaces = [chistyakov_example(k) for k in (1, 2, 5)]
    for n in range(1, 7):
        for _ in range(8):
            spaces.append(table(rng, n, 4, 0.3, diagonal=True))
            spaces.append(table(rng, n, 3, 0.0))
        spaces.append(triangle_closure(table(rng, n, 3, 0.5)))
        spaces.append(random_closed_space(rng, n))
    return spaces + [e_mod(s) for s in spaces]


def write(table):
    return format_qcat(table) if isinstance(table, NablaCategory) else format_space(table)


def test_regularize_matches_the_step_function_loop():
    jumps = 0
    for t in step_tables():
        fast, slow = regularize(t), oracle_regularize(t)
        assert type(fast) is type(slow) is type(t)
        assert fast == slow and hash(fast) == hash(slow), t
        assert write(fast) == write(slow)
        cat = t if isinstance(t, NablaCategory) else e_mod(t)
        assert u_regularize(cat)._table == slow._table
        jumps += not all(is_left_continuous(f) for f in t.all_homs())
    assert jumps > 50


def test_regularized_tables_are_kept_in_integer_form():
    for t in step_tables()[::7]:
        fast = regularize(t)
        assert "_table" not in vars(fast)
        assert fast._int_form()[:2] == t._int_form()[:2]
        assert check_axioms(fast).left_continuous
        assert regularize(fast) == fast
        assert fast.points == t.points


def test_left_regularize_matches_the_step_function_loop():
    rng = random.Random(311)
    for _ in range(2000):
        f = draw(rng, 6)
        fast, slow = left_regularize(f), oracle_left_regularize(f)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.head == slow.head and fast.cuts == slow.cuts
        assert is_left_continuous(f) == (f == slow)


def test_left_regular_kernel_matches_the_validating_constructor():
    # kernel inputs: drawn functions and convolution / pointwise outputs
    rng = random.Random(313)
    inputs = list(kernel_outputs())
    for _ in range(300):
        p_scale, v_scale, (fi,) = _to_ints([draw(rng, 6)])
        inputs.append((fi, p_scale, v_scale))
    assert len(inputs) >= 500
    moved = 0
    for fi, p_scale, v_scale in inputs:
        out = _left_regular(fi)
        slow = validated(out, p_scale, v_scale)
        fast = _from_int(out, p_scale, v_scale)
        assert fast == slow and hash(fast) == hash(slow)
        assert len(slow.cuts) == len(out[1])  # canonical out: no cut merged away
        assert fast == oracle_left_regularize(_from_int(fi, p_scale, v_scale))
        assert _left_regular(out) == out
        moved += out != fi
    assert moved > 100


def test_scaled_spaces_pass_through_and_finite_categories_are_refused(capsys):
    rng = random.Random(317)
    for n in range(1, 5):
        s = random_scaled_space(rng, n)
        assert regularize(s) is s
    cat = from_preorder(FinitePreorder(["x", "y"], [("x", "y")]))
    with pytest.raises(InputError, match="^FiniteQCategory has no step entries to regularize$"):
        regularize(cat)
    assert cli.main(["regularize", str(DATA / "pre.qcat")]) == 2
    assert capsys.readouterr().err == "error: finite enriched categories have nothing to regularize\n"


def test_e_nabla_L_names_the_first_jump_in_row_order():
    seen = 0
    for t in step_tables():
        cat = t if isinstance(t, NablaCategory) else e_mod(t)
        pts = cat.points
        bad = [(a, b) for a in pts for b in pts if oracle_left_regularize(cat.hom(a, b)) != cat.hom(a, b)]
        if not bad:
            assert e_nabla_L(cat) == e_nabla(cat)
            continue
        with pytest.raises(ContractError) as err:
            e_nabla_L(cat)
        assert str(err.value) == "hom (%s, %s) is not left continuous" % bad[0]
        seen += 1
    assert seen > 20


# ---------------------------------------------------------------------------
# Lazy step entries and the forms a verb builds.


def half_empty_text(rng, n, max_cuts):
    t = table(rng, n, max_cuts, 0.0, diagonal=False)
    pts = t.points
    off = [(a, b) for a in pts for b in pts if a != b]
    keep = set(rng.sample(off, len(off) // 2))
    lines = ["space step", *(f"point {p}" for p in pts)]
    lines += [f"w {a} {b} {t.w(a, b)}" for a, b in off if (a, b) in keep]
    return "\n".join(lines) + "\n"


def counting(monkeypatch, name):
    """The calls ``modular`` makes to its binding ``name`` from now on."""
    calls = []
    real = getattr(modular, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modular, name, wrapped)
    return calls


def test_check_close_builds_no_step_entries(monkeypatch):
    calls = counting(monkeypatch, "_from_ints")
    rng = random.Random(337)
    for n in range(1, 8):
        text = half_empty_text(rng, n, 3)
        closed = parse_space(text, close=True)
        rep = check_axioms(closed)
        assert rep.m1 and rep.m2
        assert calls == [] and "_table" not in vars(closed)
        # the entries built later equal the eager build of the same form
        p_scale, v_scale, tbl = closed._int_form()
        for i, x in enumerate(closed.points):
            for j, y in enumerate(closed.points):
                assert closed.w(x, y) == validated(tbl[i][j], p_scale, v_scale)
        assert len(calls) == 1 and "_table" in vars(closed)
        calls.clear()


@pytest.mark.parametrize(
    "name", ["chistyakov3.space", "jump_pair.space", "broken_triangle.space", "sierpinski.qcat"]
)
def test_verify_builds_one_integer_and_one_slot_form(monkeypatch, capsys, name):
    # the space's forms serve the uniformity check, the regularization
    # diagram and the ball side of the topology theorem
    ints = counting(monkeypatch, "_int_table")
    slots = counting(monkeypatch, "_build_slot_form")
    assert cli.main(["verify", str(DATA / name)]) in (0, 1)
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(ints) == 1 and len(slots) == 1


# ---------------------------------------------------------------------------
# Equality of finite categories, and the one unit search.


def two_chain(op, unit, reverse=False):
    lo, hi = ("1", "0") if reverse else ("0", "1")
    return FiniteQuantale(FinitePoset(["0", "1"], [(lo, hi)]), op, unit=unit)


MEET = {(a, b): min(a, b) for a in "01" for b in "01"}
JOIN = {(a, b): max(a, b) for a in "01" for b in "01"}
HOMS = {("x", "x"): "1", ("y", "y"): "1", ("x", "y"): "0", ("y", "x"): "1"}


def test_finite_categories_compare_their_quantales():
    base = FiniteQCategory(two_chain(MEET, "1"), ["x", "y"], HOMS)
    same = FiniteQCategory(two_chain(dict(MEET), "1"), ["x", "y"], dict(HOMS))
    assert base.quantale is not same.quantale
    assert base == same and hash(base) == hash(same)
    assert base == FiniteQCategory(base.quantale, ["x", "y"], HOMS)
    others = [
        two_chain(JOIN, "1"),  # the operation only
        two_chain(MEET, "0"),  # the unit only
        two_chain(MEET, "1", reverse=True),  # the order only
    ]
    for q in others:
        other = FiniteQCategory(q, ["x", "y"], HOMS)
        assert other._table == base._table
        assert base != other and other != base
    assert base != FiniteQCategory(base.quantale, ["x", "y"], {**HOMS, ("x", "y"): "1"})
    assert base != e_mod(chistyakov_example(1))


def oracle_unit(q):
    """The two unit searches ``check_quantale_laws`` ran before."""
    p = q.poset
    n = len(p.elements)
    idx = {e: i for i, e in enumerate(p.elements)}
    mul = [[idx[q.mul(a, b)] for b in p.elements] for a in p.elements]
    if q.unit is not None:
        u = idx[q.unit]
        return q.unit if all(mul[u][a] == a == mul[a][u] for a in range(n)) else None
    for u in range(n):
        if all(mul[u][a] == a == mul[a][u] for a in range(n)):
            return p.elements[u]
    return None


def test_one_unit_search_matches_the_two_branches():
    rng = random.Random(347)
    quantales = [make_example("two"), make_example("chain", 5), make_example("powerset", 2)]
    quantales.append(make_example("diamond"))
    for _ in range(200):
        q = rng.choice(quantales)
        els = q.elements
        op = dict(q._mul)
        for _ in range(rng.randint(0, 3)):
            op[(rng.choice(els), rng.choice(els))] = rng.choice(els)
        unit = rng.choice([None, None, rng.choice(els)])
        quantales.append(FiniteQuantale(q.poset, op, unit=unit))
    outcomes = set()
    for q in quantales:
        rep = check_quantale_laws(q)
        assert rep.unit == oracle_unit(q)
        assert rep.unital == (rep.unit is not None)
        assert rep.integral == (rep.unital and rep.unit == q.poset.top())
        outcomes.add((q.unit is None, rep.unital))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
