"""End-to-end tests of the command line tool, run through subprocesses so
argument parsing, exit codes, and byte-exact output are all covered."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("NABLA_MAX_POINTS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nablamod", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# Golden outputs.


@pytest.mark.parametrize(
    "verb,data,golden",
    [
        ("check", "jump_pair.space", "check_jump_pair.txt"),
        ("topology", "jump_pair.space", "topology_jump_pair.txt"),
        ("verify", "jump_pair.space", "verify_jump_pair.txt"),
        ("check", "chistyakov3.space", "check_chistyakov3.txt"),
        ("topology", "chistyakov3.space", "topology_chistyakov3.txt"),
        ("verify", "chistyakov3.space", "verify_chistyakov3.txt"),
    ],
)
def test_golden_outputs_are_stable(verb, data, golden):
    expected = (GOLDEN / golden).read_text()
    first = run(verb, DATA / data)
    second = run(verb, DATA / data)
    assert first.returncode == 0, first.stderr
    assert first.stdout == expected
    assert second.stdout == first.stdout


def test_check_reports_the_regularized_flip():
    before = run("check", DATA / "jump_pair.space")
    assert "left_continuous false" in before.stdout
    reg = run("regularize", DATA / "jump_pair.space")
    assert reg.returncode == 0
    fixed = DATA / ".." / "_tmp_reg.space"
    try:
        fixed.write_text(reg.stdout)
        after = run("check", fixed)
        assert "left_continuous true" in after.stdout
        assert after.returncode == 0
    finally:
        fixed.unlink()


# ---------------------------------------------------------------------------
# check.


def test_check_failing_space_exits_one():
    r = run("check", DATA / "broken_triangle.space")
    assert r.returncode == 1
    assert "m2 false" in r.stdout


def test_check_scaled():
    r = run("check", DATA / "rails.scaled")
    assert r.returncode == 0
    assert "m4 false" in r.stdout
    assert "left_continuous true" in r.stdout


def test_check_close_completes_the_table(tmp_path):
    partial = tmp_path / "partial.space"
    partial.write_text(
        "space step\npoint a\npoint b\npoint c\n"
        "w a b step head=inf cut=1 at=1 after=1\n"
        "w b a step head=inf cut=1 at=1 after=1\n"
        "w b c step head=inf cut=1 at=1 after=1\n"
        "w c b step head=inf cut=1 at=1 after=1\n"
    )
    bare = run("check", partial)
    assert bare.returncode == 2
    closed = run("check", "--close", partial)
    assert closed.returncode == 0, closed.stderr
    assert "m2 true" in closed.stdout


def test_check_qcat_files():
    r = run("check", DATA / "sierpinski.qcat")
    assert r.returncode == 0
    assert "qc2 true" in r.stdout
    assert "symmetric false" in r.stdout
    r2 = run("check", DATA / "pre.qcat")
    assert r2.returncode == 0, r2.stderr
    assert "qc1 true" in r2.stdout


# ---------------------------------------------------------------------------
# topology.


def test_topology_one_point(tmp_path):
    f = tmp_path / "one.space"
    f.write_text("space step\npoint p\n")
    r = run("topology", f)
    assert r.returncode == 0
    assert r.stdout == "{}\n{p}\n"


def test_topology_qcat_matches_space_topology():
    via_cat = run("topology", DATA / "sierpinski.qcat")
    assert via_cat.returncode == 0
    assert via_cat.stdout == "{}\n{x}\n{x,y}\n"


def test_topology_rejects_finite_category():
    r = run("topology", DATA / "pre.qcat")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# entourage and dw.


def test_entourage_output():
    r = run("entourage", DATA / "rails.scaled", "--t", "1", "--eps", "3")
    assert r.returncode == 0
    assert r.stdout == "(p,p)\n(p,q)\n(q,p)\n(q,q)\n(r,q)\n(r,r)\n"


def test_entourage_bad_parameter():
    r = run("entourage", DATA / "rails.scaled", "--t", "zero", "--eps", "1")
    assert r.returncode == 2
    r2 = run("entourage", DATA / "rails.scaled", "--t", "-1", "--eps", "1")
    assert r2.returncode == 2


def test_dw_step_matrix():
    r = run("dw", DATA / "jump_pair.space")
    assert r.returncode == 0
    assert r.stdout == "a a 0\na b 1\nb a 1\nb b 0\n"


def test_dw_scaled_enclosures():
    r = run("dw", DATA / "rails.scaled")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "p q 1 1" in lines  # sqrt(1) exactly
    assert "p r 2 2" in lines  # sqrt(4) exactly
    qp = next(line for line in lines if line.startswith("q p "))
    _, _, lo, hi = qp.split()
    from fractions import Fraction

    lo_f, hi_f = Fraction(lo), Fraction(hi)
    assert lo_f * lo_f <= 2 <= hi_f * hi_f
    assert hi_f - lo_f <= Fraction(1, 2**30)


# ---------------------------------------------------------------------------
# regularize and convert.


def test_regularize_is_idempotent(tmp_path):
    first = run("regularize", DATA / "chistyakov3.space")
    assert first.returncode == 0
    once = tmp_path / "once.space"
    once.write_text(first.stdout)
    second = run("regularize", once)
    assert second.stdout == first.stdout


def test_regularize_qcat_file():
    r = run("regularize", DATA / "sierpinski.qcat")
    assert r.returncode == 0
    assert r.stdout.startswith("qcat nabla\n")
    assert "cut=1 at=inf after=1" in r.stdout  # at-value lifted to the left limit


def test_convert_roundtrip(tmp_path):
    to_cat = run("convert", DATA / "jump_pair.space", "--to", "qcat")
    assert to_cat.returncode == 0
    cat_file = tmp_path / "jump_pair.qcat"
    cat_file.write_text(to_cat.stdout)
    back = run("convert", cat_file, "--to", "space")
    assert back.returncode == 0
    assert back.stdout == (DATA / "jump_pair.space").read_text()


def test_convert_rejects_scaled_to_qcat():
    r = run("convert", DATA / "rails.scaled", "--to", "qcat")
    assert r.returncode == 2


def test_convert_rejects_finite_to_space():
    r = run("convert", DATA / "pre.qcat", "--to", "space")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# verify.


def test_verify_scaled():
    r = run("verify", DATA / "rails.scaled")
    assert r.returncode == 0
    assert r.stdout == (
        "quasi_uniformity_base PASS\nmetric_ball_topology_equality PASS\n"
    )


def test_verify_broken_space_fails():
    r = run("verify", DATA / "broken_triangle.space")
    assert r.returncode == 1
    assert "quasi_uniformity_base FAIL" in r.stdout


def test_verify_random_is_reproducible():
    a = run("verify", "--random", "4", "--seed", "11")
    b = run("verify", "--random", "4", "--seed", "11")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    assert a.stdout.count("PASS") == 4


def test_verify_needs_some_input():
    r = run("verify")
    assert r.returncode == 2


def test_verify_ball_topology_fails_without_left_continuity(tmp_path):
    # m1 and m2 hold, but w(a, x) drops to 0 at its cut, so the ball around a
    # at t = 1 takes x without y and the balls generate no topology
    f = tmp_path / "drop.space"
    f.write_text(
        "space step\npoint a\npoint x\npoint y\n"
        "w a x step head=2 cut=1 at=0 after=0\n"
        "w a y step head=2 cut=1 at=2 after=0\n"
        "w x y step head=0\nw y x step head=0\n"
        "w x a step head=inf\nw y a step head=inf\n"
    )
    r = run("verify", f)
    assert (r.returncode, r.stderr) == (1, "")
    assert r.stdout == (
        "quasi_uniformity_base PASS\nregularization_diagram PASS\n"
        "ball_topology_equality FAIL\n"
    )


def test_verify_scaled_without_triangle_fails(tmp_path):
    # d(a, b) = d(b, c) = 0 but d(a, c) = 1: the zero rows are not up-sets
    f = tmp_path / "bent.scaled"
    f.write_text(
        "space scaled\npoint a\npoint b\npoint c\n"
        "d a b 0\nd b c 0\nd a c 1\nd b a 1\nd c a 1\nd c b 1\n"
    )
    r = run("verify", f)
    assert (r.returncode, r.stderr) == (1, "")
    assert r.stdout == "quasi_uniformity_base FAIL\nmetric_ball_topology_equality FAIL\n"


def test_verify_point_gate(tmp_path):
    pts = [f"q{i}" for i in range(13)]
    lines = ["space step"] + [f"point {p}" for p in pts]
    lines += [f"w {a} {b} step head=0" for a in pts for b in pts if a != b]
    f = tmp_path / "big.space"
    f.write_text("\n".join(lines) + "\n")
    r = run("verify", f)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == "error: topology enumeration over 13 points exceeds the limit of 12\n"
    lifted = run("verify", f, env_extra={"NABLA_MAX_POINTS": "13"})
    assert (lifted.returncode, lifted.stderr) == (0, "")
    assert lifted.stdout == (
        "quasi_uniformity_base PASS\nregularization_diagram PASS\n"
        "ball_topology_equality PASS\n"
    )


# ---------------------------------------------------------------------------
# lattice.


def test_lattice_report():
    r = run("lattice", DATA / "two.lat")
    assert r.returncode == 0
    assert r.stdout == (
        "lattice true\nsemigroup true\nleft_dist true\nright_dist true\n"
        "commutative true\nunital true\nunit 1\nintegral true\n"
        "value_quantale true\n"
    )


def test_lattice_non_lattice():
    r = run("lattice", DATA / "vee.lat")
    assert r.returncode == 1
    assert r.stdout == "lattice false\n"


# ---------------------------------------------------------------------------
# Errors, exit codes, environment.


def test_parse_error_position_on_stderr(tmp_path):
    f = tmp_path / "bad.space"
    f.write_text("space step\npoint a\nw a q step head=0\n")
    r = run("check", f)
    assert r.returncode == 2
    assert r.stderr.startswith("error: 3:5:")
    assert r.stdout == ""


def test_missing_file():
    r = run("check", "definitely_not_there.space")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_resource_bound_exit_code(tmp_path):
    pts = [f"q{i}" for i in range(13)]
    lines = ["space step"] + [f"point {p}" for p in pts]
    lines += [f"w {a} {b} step head=0" for a in pts for b in pts if a != b]
    f = tmp_path / "big.space"
    f.write_text("\n".join(lines) + "\n")
    r = run("topology", f)
    assert r.returncode == 3
    lifted = run("topology", f, env_extra={"NABLA_MAX_POINTS": "13"})
    assert lifted.returncode == 0
    junk = run("topology", f, env_extra={"NABLA_MAX_POINTS": "soon"})
    assert junk.returncode == 2


def test_unknown_verb():
    r = run("frobnicate", "x")
    assert r.returncode == 2
