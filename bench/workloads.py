"""Seeded inputs, request sequences and response checks for each workload.

Request ``i`` of a workload is a pure function of (workload, seed, i): its
file is generated from ``random.Random(f"{workload}/{seed}/{i}")`` (string
seeds hash the same on every interpreter), so the same seed gives the same
inputs however fast the program runs.  Each request carries the check its
response must pass, chosen from how the input was built, and the input
properties the run reports.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from nablamod import (
    StepModularSpace,
    candidate_parameters,
    chistyakov_example,
    e_mod,
    format_qcat,
    format_space,
    is_left_continuous,
    parse_qcat,
    parse_space,
    random_closed_space,
    random_scaled_space,
    random_step,
)

WORKLOADS = ("verify-random", "check-close", "light-verbs")

# verify-random and check-close each cycle through a fixed deck of input
# kinds and sizes; only the contents are seeded.  A timed run ends at the
# end of a deck, so every run has the same mix whatever its length.  Most
# of each deck is one stratum with a narrow cost spread (closed 4-point
# spaces; 8-point tables with up to 2 cuts), and the few heavier entries
# are spaced out, so that the median and the 11th largest latency both fall
# inside that stratum rather than in a gap between sizes.

# verify-random: closed step spaces of 3 to 7 points, the same kind of space
# as qcat files, a scaled space, and Chistyakov's family.  ("heavy", 0) is
# a closed space of 5, 6 or 7 points, in turn from deck to deck;
# ("chistyakov", 0) is the family of size 1 to 10 (3 to 12 points), in turn
# from deck to deck.  Neither turn depends on the seed.  Two light requests
# per deck, a lattice check on a chain of 4 to 8 elements and a convert of
# a closed 3-point space to qcat, keep the lattice lab and the writers in
# the traced run; they take a few milliseconds each.
VERIFY_DECK: tuple[tuple[str, int], ...] = (
    ("heavy", 0),
    ("closed", 4),
    ("scaled", 5),
    ("closed", 4),
    ("closed", 3),
    ("closed", 4),
    ("qcat", 4),
    ("closed", 4),
    ("lattice", 0),
    ("closed", 4),
    ("chistyakov", 0),
    ("closed", 4),
    ("closed", 4),
    ("closed", 4),
    ("qcat", 4),
    ("closed", 4),
    ("closed", 4),
    ("convert", 3),
    ("closed", 4),
    ("closed", 4),
    ("closed", 4),
    ("closed", 3),
)
HEAVY_POINTS = (5, 6, 7)

# verify's time on a closed space follows its candidate grid, |T|·|E| cells
# (correlation 0.9 over 30 random 4-point spaces).  Closed spaces are drawn
# until their grid lies between the quartiles of its size over 40 draws of
# random_closed_space with that point count, which halves the spread of
# per-file times without moving their median.
GRID_BAND = {
    3: (553, 777),
    4: (1090, 1596),
    5: (1761, 2506),
    6: (2472, 3312),
    7: (2323, 3483),
}

# check-close: (points, max_cuts) of tables with half the off-diagonal
# entries missing.  Tables with more cuts cost more and vary more (a 6-point
# table with up to 6 cuts takes 0.5 to 1.5 s, an 8-point one with up to 12
# cuts 2 to 5 s), so they appear only at 5 points.
CLOSE_DECK: tuple[tuple[int, int], ...] = (
    (8, 2),
    (5, 6),
    (8, 2),
    (7, 2),
    (8, 2),
    (5, 12),
    (8, 2),
    (6, 2),
    (8, 2),
    (8, 2),
    (5, 6),
    (8, 2),
    (8, 2),
)

VERIFY_STEP_LINES = (
    "quasi_uniformity_base PASS",
    "regularization_diagram PASS",
    "ball_topology_equality PASS",
)
VERIFY_SCALED_LINES = (
    "quasi_uniformity_base PASS",
    "metric_ball_topology_equality PASS",
)
LATTICE_LAW_LINES = ("lattice true", "semigroup true", "left_dist true", "right_dist true")

# tests/data files used by light-verbs, with what each can be given to.
DATA_SPACES = (
    "jump_pair.space",
    "chistyakov3.space",
    "chistyakov4.space",
    "broken_triangle.space",
    "rails.scaled",
)
DATA_QCATS = ("sierpinski.qcat",)
DATA_LATTICES = ("two.lat",)
# (verb, file) pairs that have a golden output in tests/golden.
GOLDEN = (
    ("check", "chistyakov3.space"),
    ("check", "jump_pair.space"),
    ("topology", "chistyakov3.space"),
    ("topology", "jump_pair.space"),
    ("verify", "chistyakov3.space"),
    ("verify", "jump_pair.space"),
)
ENTOURAGE_PARAMS = ("1/2", "1", "3/2", "2", "3")


@dataclass
class Request:
    argv: list[str]
    check: str  # key into CHECKS
    path: str
    props: dict = field(default_factory=dict)  # input properties of the file
    expect: object = None  # check-specific data (expected lines, golden text)


def space_props(space) -> dict:
    """Input properties of one space or category: points, and for step
    functions the cuts per function and the share with a left jump (over
    the off-diagonal entries)."""
    pts = space.points
    props = {"points": len(pts)}
    hom = getattr(space, "w", None) or getattr(space, "hom", None)
    if hom is not None and len(pts) > 1:
        homs = [hom(a, b) for a in pts for b in pts if a != b]
        props["cuts"] = sum(len(f.cuts) for f in homs) / len(homs)
        props["left_jump"] = sum(not is_left_continuous(f) for f in homs) / len(homs)
    return props


class Generator:
    """Writes the inputs of one workload and seed into ``workdir`` on demand."""

    def __init__(self, workload: str, seed: int, workdir: Path, root: Path) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self._made: dict[int, Request] = {}
        if workload == "light-verbs":
            self._menu = self._light_menu()
            self.deck_size = len(self._menu)
        else:
            self.deck_size = len(VERIFY_DECK if workload == "verify-random" else CLOSE_DECK)

    def request(self, i: int) -> Request:
        """Request ``i``; a timed run ends on a multiple of ``deck_size``."""
        if i not in self._made:
            if self.workload == "light-verbs":
                # Each deck is the whole menu in a seeded order.
                deck, k = divmod(i, self.deck_size)
                order = list(range(self.deck_size))
                random.Random(f"{self.workload}/{self.seed}/deck{deck}").shuffle(order)
                self._made[i] = self._menu[order[k]]
            else:
                make = self._verify if self.workload == "verify-random" else self._close
                self._made[i] = make(i, random.Random(f"{self.workload}/{self.seed}/{i}"))
        return self._made[i]

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _verify(self, i: int, rng: random.Random) -> Request:
        kind, n = VERIFY_DECK[i % len(VERIFY_DECK)]
        deck = i // len(VERIFY_DECK)
        if kind == "heavy":
            kind, n = "closed", HEAVY_POINTS[deck % len(HEAVY_POINTS)]
        if kind == "lattice":
            chain = [str(k) for k in range(rng.randint(4, 8))]
            path = self._write(f"v{i}.lat", _lattice_text(chain, lambda a, b: a <= b, min))
            return Request(["lattice", path], "lattice", path, {})
        if kind == "convert":
            space = random_closed_space(rng, n)
            path = self._write(f"v{i}.space", format_space(space))
            return Request(["convert", path, "--to", "qcat"], "convert", path, space_props(space))
        if kind in ("closed", "qcat"):
            space = _banded_closed_space(rng, n)
            text = format_qcat(e_mod(space)) if kind == "qcat" else format_space(space)
            path = self._write(f"v{i}.{'qcat' if kind == 'qcat' else 'space'}", text)
        elif kind == "scaled":
            space = random_scaled_space(rng, n)
            path = self._write(f"v{i}.space", format_space(space))
        else:
            space = chistyakov_example(1 + deck % 10)
            path = self._write(f"v{i}.space", format_space(space))
        lines = VERIFY_SCALED_LINES if kind == "scaled" else VERIFY_STEP_LINES
        return Request(["verify", path], "verify", path, space_props(space), lines)

    def _close(self, i: int, rng: random.Random) -> Request:
        n, max_cuts = CLOSE_DECK[i % len(CLOSE_DECK)]
        pts = [f"p{k}" for k in range(n)]
        off = [(a, b) for a in pts for b in pts if a != b]
        missing = set(rng.sample(off, len(off) // 2))
        table = {pair: random_step(rng, max_cuts) for pair in off if pair not in missing}
        lines = ["space step", *(f"point {p}" for p in pts)]
        for a, b in off:
            if (a, b) in table:
                lines.append(f"w {a} {b} {table[(a, b)]}")
        path = self._write(f"c{i}.space", "\n".join(lines) + "\n")
        props = {
            "points": n,
            "cuts": sum(len(f.cuts) for f in table.values()) / len(table),
            "missing": len(missing) / len(off),
            "left_jump": sum(not is_left_continuous(f) for f in table.values()) / len(table),
        }
        return Request(["check", "--close", path], "close", path, props)

    def _light_menu(self) -> list[Request]:
        rng = random.Random(f"{self.workload}/{self.seed}/files")
        data = self.root / "tests" / "data"
        spaces: list[tuple[str, dict, bool]] = []  # (path, props, is_step)
        for name in DATA_SPACES:
            path = data / name
            space = parse_space(path.read_text(encoding="utf-8"))
            spaces.append((str(path), space_props(space), isinstance(space, StepModularSpace)))
        for n in (8, 10, 12):
            space = _random_table(rng, n)
            path = self._write(f"g{n}.space", format_space(space))
            spaces.append((path, space_props(space), True))
        qcats: list[tuple[str, dict]] = []
        for name in DATA_QCATS:
            path = data / name
            qcats.append((str(path), space_props(parse_qcat(path.read_text(encoding="utf-8")))))
        cat = e_mod(_random_table(rng, 9))
        qcats.append((self._write("g9.qcat", format_qcat(cat)), space_props(cat)))
        lattices = [str(data / name) for name in DATA_LATTICES]
        for k, text in enumerate(_lattices()):
            lattices.append(self._write(f"l{k}.lat", text))

        menu: list[Request] = []
        for path, props, is_step in spaces:
            menu.append(Request(["dw", path], "dw", path, props))
            menu.append(Request(["regularize", path], "regularize", path, props))
            if is_step:
                menu.append(Request(["convert", path, "--to", "qcat"], "convert", path, props))
            menu.append(Request(["convert", path, "--to", "space"], "convert", path, props))
            t, eps = rng.choice(ENTOURAGE_PARAMS), rng.choice(ENTOURAGE_PARAMS)
            menu.append(
                Request(["entourage", path, "--t", t, "--eps", eps], "entourage", path, props)
            )
        for path, props in qcats:
            menu.append(Request(["regularize", path], "regularize", path, props))
            menu.append(Request(["convert", path, "--to", "qcat"], "convert", path, props))
            menu.append(Request(["convert", path, "--to", "space"], "convert", path, props))
        for path in lattices:
            menu.append(Request(["lattice", path], "lattice", path, {}))
        golden = self.root / "tests" / "golden"
        for verb, name in GOLDEN:
            path = data / name
            text = (golden / f"{verb}_{Path(name).stem}.txt").read_text(encoding="utf-8")
            props = space_props(parse_space(path.read_text(encoding="utf-8")))
            menu.append(Request([verb, str(path)], "golden", str(path), props, text))
        return menu


def _banded_closed_space(rng: random.Random, n: int) -> StepModularSpace:
    """random_closed_space(rng, n), drawn again until its candidate grid
    lies in GRID_BAND[n]."""
    lo, hi = GRID_BAND[n]
    while True:
        space = random_closed_space(rng, n)
        t_cands, e_cands = candidate_parameters(space)
        if lo <= len(t_cands) * len(e_cands) <= hi:
            return space


def _random_table(rng: random.Random, n: int) -> StepModularSpace:
    """A full table of random step functions with up to 12 cuts each and a
    zero diagonal; not triangle-closed (the light verbs do not need it)."""
    pts = [f"q{k}" for k in range(n)]
    return StepModularSpace(
        pts, {(a, b): random_step(rng, 12) for a in pts for b in pts if a != b}
    )


def _lattices() -> list[str]:
    """Two distributive lattices of 8 elements, a chain and the subsets of a
    3-element set, each with meet as the operation and the top as unit, so
    every quantale law holds."""
    chain = [str(k) for k in range(8)]
    cube = [format(m, "03b") for m in range(8)]
    return [
        _lattice_text(chain, lambda a, b: a <= b, min),
        _lattice_text(
            cube,
            lambda a, b: int(a, 2) & ~int(b, 2) == 0,
            lambda a, b: format(int(a, 2) & int(b, 2), "03b"),
        ),
    ]


def _lattice_text(elems: list[str], leq, meet) -> str:
    lines = [f"elem e{a}" for a in elems]
    lines += [f"leq e{a} e{b}" for a in elems for b in elems if a != b and leq(a, b)]
    lines += [f"op e{a} e{b} e{meet(a, b)}" for a in elems for b in elems]
    lines.append(f"unit e{max(elems, key=lambda e: sum(leq(x, e) for x in elems))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Response checks.  Each returns None when the response is right, else the
# reason.  ``rerun(argv)`` runs the CLI once more, in the checking process,
# for checks that need the program's own answer on its output.

Rerun = Callable[[list[str]], tuple[int, str]]


def _check_verify(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    got = tuple(out.splitlines())
    return None if got == req.expect else f"expected {list(req.expect)}, got {list(got)}"


def _check_lattice(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    got = tuple(out.splitlines()[: len(LATTICE_LAW_LINES)])
    return None if got == LATTICE_LAW_LINES else f"quantale laws fail: {list(got)}"


def _check_close(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    got = out.splitlines()
    if got[:2] != ["m1 true", "m2 true"] or len(got) != 5:
        return f"closed table fails m1/m2: {got}"
    return None


def _check_golden(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    return None if out == req.expect else "differs from the golden output"


def _check_dw(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    lines = out.splitlines()
    n = req.props["points"]
    if len(lines) != n * n:
        return f"expected {n * n} distance lines, got {len(lines)}"
    pairs = [tuple(line.split()[:2]) for line in lines]
    if pairs != sorted(pairs) or len(set(pairs)) != n * n:
        return "distance lines are not one per ordered pair in sorted order"
    return None


def _check_entourage(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    lines = out.splitlines()
    pairs = [tuple(line.strip("()").split(",")) for line in lines]
    if pairs != sorted(set(pairs)):
        return "entourage pairs are not sorted and distinct"
    if sum(a == b for a, b in pairs) != req.props["points"]:
        return "entourage misses a diagonal pair"
    return None


def _check_regularize(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    path = _save(workdir, out)
    code, again = rerun(["regularize", path])
    if code != 0 or again != out:
        return "regularize output is not a fixed point of regularize"
    return None


def _check_convert(req: Request, out: str, rerun: Rerun, workdir: Path) -> Optional[str]:
    path = _save(workdir, out)
    if out.startswith("space scaled"):
        code, again = rerun(["convert", path, "--to", "space"])
    else:
        there = "space" if out.startswith("qcat") else "qcat"
        back = "qcat" if there == "space" else "space"
        code, mid = rerun(["convert", path, "--to", there])
        if code != 0:
            return f"convert --to {there} of the output exited {code}"
        code, again = rerun(["convert", _save(workdir, mid), "--to", back])
    if code != 0 or again != out:
        return "convert output does not round-trip to the same bytes"
    return None


def _save(workdir: Path, text: str) -> str:
    path = workdir / f"check-{hashlib.sha1(text.encode()).hexdigest()[:16]}.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


CHECKS = {
    "verify": _check_verify,
    "lattice": _check_lattice,
    "close": _check_close,
    "golden": _check_golden,
    "dw": _check_dw,
    "entourage": _check_entourage,
    "regularize": _check_regularize,
    "convert": _check_convert,
}


def check_response(
    req: Request, code: Optional[int], out: str, rerun: Rerun, workdir: Path
) -> Optional[str]:
    """None when the response is right for how the input was built."""
    if code != 0:
        return f"exit code {code}, expected 0"
    return CHECKS[req.check](req, out, rerun, workdir)
