"""The table classes and the three file parsers: exact error texts, reprs,
diagonal defaults, equality and hashing.

Other tests check that these errors are raised and where; these pin the
words too, so that a change to the shared table and tokenizer code cannot
alter what a user reads.
"""

from pathlib import Path

import pytest

from nablamod import (
    ZERO,
    ExtendedQPMetric,
    FinitePreorder,
    FiniteQCategory,
    InputError,
    NablaCategory,
    ParseError,
    ScaledModularSpace,
    StepModularSpace,
    chistyakov_example,
    e_mod,
    e_nabla,
    from_preorder,
    make_example,
    parse_lattice,
    parse_qcat,
    parse_space,
    regularize,
    u_regularize,
)

STEP = StepModularSpace
SCALED = ScaledModularSpace
NABLA = NablaCategory
EQPM = ExtendedQPMetric


def finite(points, hom):
    return FiniteQCategory(make_example("two"), points, hom)


@pytest.mark.parametrize(
    "build,message",
    [
        # duplicate or empty points (shared by every table class)
        (lambda: STEP([], {}), "a space needs at least one point"),
        (lambda: STEP(["a", "a"], {}), "duplicate point names"),
        (lambda: SCALED(["a", "a"], {}), "duplicate point names"),
        (lambda: NABLA([], {}), "a space needs at least one point"),
        (lambda: finite(["x", "x"], {}), "duplicate point names"),
        (lambda: EQPM([], {}), "a space needs at least one point"),
        # unknown pair in the given table
        (lambda: STEP(["a"], {("a", "q"): ZERO}), "distance given for unknown pair (a, q)"),
        (lambda: SCALED(["a"], {("q", "a"): 1}), "distance given for unknown pair (q, a)"),
        (lambda: NABLA(["a"], {("a", "q"): ZERO}), "hom given for unknown pair (a, q)"),
        (lambda: finite(["x"], {("x", "q"): "1"}), "hom given for unknown pair (x, q)"),
        (lambda: EQPM(["a"], {("a", "q"): 1}), "distance given for unknown pair (a, q)"),
        # wrong value type
        (lambda: STEP(["a", "b"], {("a", "b"): 1}), "distance for (a, b) is not a step function"),
        (lambda: NABLA(["a", "b"], {("a", "b"): 1}), "hom for (a, b) is not a step function"),
        (lambda: SCALED(["a", "b"], {("a", "b"): 1.5}), "not a rational value: 1.5"),
        # negative value
        (lambda: SCALED(["a", "b"], {("a", "b"): -1}), "negative distance for (a, b)"),
        (lambda: EQPM(["a", "b"], {("b", "a"): "-1/2"}), "negative value not allowed: -1/2"),
        # missing pair
        (lambda: STEP(["a", "b"], {("a", "b"): ZERO}), "missing distance for pair (b, a)"),
        (lambda: SCALED(["a", "b"], {("b", "a"): 1}), "missing distance for pair (a, b)"),
        (lambda: NABLA(["a", "b"], {("a", "b"): ZERO}), "missing hom for pair (b, a)"),
        (lambda: finite(["x", "y"], {("x", "y"): "1"}), "missing hom for pair (y, x)"),
        (lambda: EQPM(["a", "b"], {("a", "b"): "inf"}), "missing distance for pair (b, a)"),
        # hom that is not a quantale element
        (lambda: finite(["x"], {("x", "x"): "9"}), "hom value '9' is not a quantale element"),
        # unknown pair through the accessor
        (lambda: STEP(["a"], {}).w("a", "q"), "unknown pair (a, q)"),
        (lambda: SCALED(["a"], {}).d("q", "a"), "unknown pair (q, a)"),
        (lambda: NABLA(["a"], {}).hom("a", "q"), "unknown pair (a, q)"),
        (lambda: finite(["x"], {}).hom("x", "q"), "unknown pair (x, q)"),
        (lambda: EQPM(["a"], {}).d("a", "q"), "unknown pair (a, q)"),
    ],
)
def test_table_error_texts(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert type(exc.value) is InputError
    assert str(exc.value) == message


def test_finite_category_without_unit_text():
    q = make_example("two")
    q.unit = None
    with pytest.raises(InputError) as exc:
        FiniteQCategory(q, ["x"], {})
    assert str(exc.value) == "enrichment needs a quantale with a unit"


def test_table_reprs_and_defaults():
    assert repr(STEP(["a", "b"], {("a", "b"): ZERO, ("b", "a"): ZERO})) == (
        "<StepModularSpace on 2 points>"
    )
    assert repr(SCALED(["a"], {})) == "<ScaledModularSpace on 1 points>"
    assert repr(NABLA(["a"], {})) == "<NablaCategory on 1 objects>"
    assert repr(EQPM(["a"], {})) == "<ExtendedQPMetric on 1 points>"
    assert repr(finite(["x"], {})) == (
        "<FiniteQCategory on 1 objects over 2 quantale elements>"
    )
    assert SCALED(["a"], {}).d("a", "a") == 0
    assert str(EQPM(["a"], {}).d("a", "a")) == "0"
    assert finite(["x"], {}).hom("x", "x") == "1"


def test_equality_and_hash_across_table_classes():
    s = chistyakov_example(2)
    c = e_mod(s)
    assert e_nabla(c) == s and hash(e_nabla(c)) == hash(s)
    assert c != s and s != c
    assert EQPM(["a"], {}) != SCALED(["a"], {})
    # two separately built but equal quantales: equal categories, equal hashes
    pre = FinitePreorder(["x", "y"], [("x", "y")])
    c1, c2 = from_preorder(pre), from_preorder(pre)
    assert c1.quantale is not c2.quantale
    assert c1 == c2 and hash(c1) == hash(c2)
    assert len({c1, c2}) == 1


DATA = Path(__file__).parent / "data"


def parse_qcat_in_data(text):
    """parse_qcat with lattice file paths taken relative to tests/data."""
    return parse_qcat(text, base_path=str(DATA))


LAT = (
    "elem 0\nelem 1\nleq 0 1\n"
    "op 0 0 0\nop 0 1 0\nop 1 0 0\nop 1 1 1\nunit 1\n"
)


@pytest.mark.parametrize(
    "parse,text,expected",
    [
        # duplicate point or element
        (parse_space, "space step\npoint a\npoint a\n", "3:7: duplicate point 'a'"),
        (parse_qcat, "qcat nabla\npoint x\n point  x\n", "3:9: duplicate point 'x'"),
        (parse_lattice, "elem a\nelem b\n\telem a\n", "3:7: duplicate element 'a'"),
        # unknown point or element
        (parse_space, "space step\npoint a\nw a q step head=0\n", "3:5: unknown point 'q'"),
        (parse_space, "space scaled\npoint a\nd q a 1\n", "3:3: unknown point 'q'"),
        (parse_qcat, "qcat nabla\npoint x\nhom x y step head=0\n", "3:7: unknown point 'y'"),
        (parse_lattice, "elem a\nleq a b\n", "2:7: unknown element 'b'"),
        (parse_lattice, "elem a\nop a a c\n", "2:8: unknown element 'c'"),
        (parse_lattice, "elem a\nunit z\n", "2:6: unknown element 'z'"),
        # duplicate entry
        (
            parse_space,
            "space step\npoint a\npoint b\nw a b step head=0\n  w a b step head=1\n",
            "5:3: duplicate entry for (a, b)",
        ),
        (
            parse_space,
            "space scaled\npoint a\nd a a 0\nd a a 1\n",
            "4:1: duplicate entry for (a, a)",
        ),
        (
            parse_qcat,
            "qcat nabla\npoint x\nhom x x step head=0\nhom x x step head=0\n",
            "4:1: duplicate entry for (x, x)",
        ),
        (parse_lattice, "elem a\nop a a a\nop a a a\n", "3:1: duplicate op entry for (a, a)"),
        # unknown directive
        (parse_space, "space step\npoint a\nmystery\n", "3:1: unknown directive 'mystery'"),
        (parse_qcat, "qcat nabla\n  w x\n", "2:3: unknown directive 'w'"),
        (parse_lattice, "elem a\nwat a\n", "2:1: unknown directive 'wat'"),
        # comment stripping: text after '#' is ignored, columns stay 1-based
        (
            parse_space,
            "# header next\nspace step # step kind\npoint a#x\n\n  point a # again\n",
            "5:9: duplicate point 'a'",
        ),
        (parse_space, "space step\npoint a\n  # mystery\n   mystery #\n", "4:4: unknown directive 'mystery'"),
        (parse_qcat, "qcat nabla # head\npoint x#y\npoint x\n", "3:7: duplicate point 'x'"),
        (parse_lattice, "# c\nelem a#b\nelem b # a\nleq a c#\n", "4:7: unknown element 'c'"),
        # headers and arities
        (parse_space, "point a\n", "1:1: expected header 'space step' or 'space scaled'"),
        (parse_space, "space step\nspace step\n", "2:1: duplicate header"),
        (parse_space, "space step\npoint\n", "2:1: 'point' takes one name"),
        (parse_space, "# only a comment\n", "1:1: empty file: expected a 'space' header"),
        (parse_qcat, "qcat nabla\npoint x y\n", "2:1: 'point' takes one name"),
        (parse_qcat, "qcat finite\n", "1:1: 'qcat finite' needs a lattice file path"),
        (parse_lattice, "elem\n", "1:1: 'elem' takes 1 argument(s), got 0"),
        (parse_lattice, "elem a\nop a a\n", "2:1: 'op' takes 3 argument(s), got 2"),
        (parse_space, "space step extra\n", "1:1: expected header 'space step' or 'space scaled'"),
        (parse_qcat, "qcat\n", "1:1: expected header 'qcat nabla' or 'qcat finite <lattice-file>'"),
        (parse_qcat, "point x\n", "1:1: expected header 'qcat nabla' or 'qcat finite <lattice-file>'"),
        (parse_qcat, "qcat nabla x\n", "1:1: 'qcat nabla' takes no arguments"),
        (parse_qcat, "qcat nabla\n  qcat nabla\n", "2:3: duplicate header"),
        (parse_qcat, "\n# only a comment\n", "1:1: empty file: expected a 'qcat' header"),
        # entry directives of the other kind of space
        (parse_space, "space scaled\npoint a\nw a a step head=0\n", "3:1: 'w' lines belong to step spaces"),
        (parse_space, "space step\npoint a\n d a a 0\n", "3:2: 'd' lines belong to scaled spaces"),
        (parse_space, "space scaled\npoint a\nw a\n", "3:1: 'w' lines belong to step spaces"),
        # entry arities: the word count is checked before the pair
        (parse_space, "space step\npoint a\nw a a\n", "3:1: 'w' needs two points and a step literal"),
        (parse_space, "space step\npoint a\nw a q\n", "3:1: 'w' needs two points and a step literal"),
        (parse_space, "space scaled\npoint a\nd a a\n", "3:1: 'd' needs two points and a value"),
        (parse_space, "space scaled\npoint a\nd a q 1 2\n", "3:1: 'd' needs two points and a value"),
        (parse_qcat, "qcat nabla\npoint x\nhom x x\n", "3:1: 'hom' needs two points and a value"),
        (parse_qcat, "qcat nabla\npoint x\nhom q\n", "3:1: 'hom' needs two points and a value"),
        # values
        (parse_space, "space scaled\npoint a\nd a a 1/0\n", "3:7: bad value '1/0'"),
        (parse_space, "space scaled\npoint a\nd a a x\n", "3:7: bad value 'x'"),
        (parse_space, "space scaled\npoint a\nd a a -1\n", "3:7: negative value '-1'"),
        # a finite category: the element check comes after the pair check
        (parse_qcat_in_data, "qcat finite two.lat\npoint x\nhom x x\n", "3:1: 'hom' needs two points and a value"),
        (parse_qcat_in_data, "qcat finite two.lat\npoint x\nhom x q 1 0\n", "3:7: unknown point 'q'"),
        (parse_qcat_in_data, "qcat finite two.lat\npoint x\nhom x x 1 0\n", "3:1: 'hom' takes a single element id here"),
        (parse_qcat_in_data, "qcat finite two.lat\nqcat nabla\n", "2:1: duplicate header"),
    ],
)
def test_parse_error_texts(parse, text, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == expected


def test_finite_qcat_element_error_text(tmp_path):
    (tmp_path / "two.lat").write_text(LAT)
    text = "qcat finite two.lat\npoint x\nhom x x 9  # not an element\n"
    with pytest.raises(ParseError) as exc:
        parse_qcat(text, base_path=str(tmp_path))
    assert str(exc.value) == "3:9: '9' is not an element of the quantale"
    dup = "qcat finite two.lat\npoint x\nhom x x 1\nhom x x 0\n"
    with pytest.raises(ParseError) as exc:
        parse_qcat(dup, base_path=str(tmp_path))
    assert str(exc.value) == "4:1: duplicate entry for (x, x)"


@pytest.mark.parametrize(
    "parse,expected",
    [
        (lambda: parse_space("space step\n"), "space file declares no points"),
        (lambda: parse_space("space scaled # none\n"), "space file declares no points"),
        (lambda: parse_qcat("qcat nabla\n"), "category file declares no points"),
        (lambda: parse_qcat_in_data("qcat finite two.lat\n"), "category file declares no points"),
        (
            lambda: parse_space("space scaled\npoint a\n", close=True),
            "scaled spaces cannot be completed with --close",
        ),
    ],
)
def test_table_file_input_error_texts(parse, expected):
    with pytest.raises(InputError) as exc:
        parse()
    assert type(exc.value) is InputError
    assert str(exc.value) == expected


def test_lattice_file_is_loaded_at_the_header_line():
    # a missing lattice file is reported before any later line is read
    with pytest.raises(InputError) as exc:
        parse_qcat_in_data("qcat finite nowhere.lat\nmystery\n")
    assert type(exc.value) is InputError
    assert str(exc.value).startswith("cannot read lattice file 'nowhere.lat': ")


@pytest.mark.parametrize(
    "table",
    [
        from_preorder(FinitePreorder(["x", "y"], [("x", "y")])),
        EQPM(["a", "b"], {("a", "b"): 1, ("b", "a"): "inf"}),
    ],
    ids=["finite_category", "extended_metric"],
)
def test_regularize_refuses_tables_without_step_entries(table):
    name = type(table).__name__
    for regular in (regularize, u_regularize):
        with pytest.raises(InputError) as exc:
            regular(table)
        assert type(exc.value) is InputError
        assert str(exc.value) == f"{name} has no step entries to regularize"


def test_regularize_passes_scaled_spaces_through():
    space = SCALED(["a", "b"], {("a", "b"): 1, ("b", "a"): 2})
    assert regularize(space) is space
