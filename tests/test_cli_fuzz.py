"""Seeded mutation fuzz of the command line verbs over ``tests/data``.

Each mutant of a data file goes through every verb in-process.  Whatever
the input, a verb must end in one of the documented exit codes, never in an
exception, and a malformed-input exit (2) must say ``error: `` on stderr.
"""

import contextlib
import io
import random
import shutil
from pathlib import Path

import pytest

from nablamod.cli import main

DATA = Path(__file__).parent / "data"
FILES = sorted(p.name for p in DATA.iterdir() if p.is_file())
MUTANTS_PER_FILE = 30

VERBS = [
    ["check"],
    ["check", "--close"],
    ["topology"],
    ["regularize"],
    ["convert", "--to", "qcat"],
    ["convert", "--to", "space"],
    ["dw"],
    ["entourage", "--t", "1", "--eps", "1/2"],
    ["lattice"],
]

# Tokens worth splicing in: keywords of all three formats, literal pieces,
# odd numbers and names.
EXTRA_TOKENS = [
    "space", "step", "scaled", "qcat", "nabla", "finite", "two.lat", "vee.lat",
    "point", "w", "d", "hom", "elem", "leq", "op", "unit", "head=0", "head=inf",
    "cut=1", "at=0", "after=0", "cut=1/2", "at=inf", "x", "y", "z9", "#", "=",
]
NUMBERS = ["0", "1", "2", "1/2", "3/4", "1/3", "inf", "-1", "1/0", "0.5", "q"]


def tweak(rng, words):
    """Replace one number (a digit-led word or the value after an ``=``)."""
    spots = [k for k, w in enumerate(words) if "=" in w or w[0].isdigit()]
    k = rng.choice(spots or range(len(words)))
    key, eq, _value = words[k].rpartition("=")
    words[k] = key + eq + rng.choice(NUMBERS)


def mutate(rng, lines, pool):
    lines = list(lines)
    for _ in range(1 if rng.random() < 0.7 else 2):
        op = rng.randrange(8)
        i = rng.randrange(len(lines)) if lines else 0
        words = lines[i].split() if lines else []
        if op == 0 and lines:  # drop a line
            del lines[i]
        elif op == 1 and lines:  # repeat a line
            lines.insert(i, lines[i])
        elif op == 2 and len(lines) > 1:  # swap two lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:  # a line of random tokens
            lines.insert(i, " ".join(rng.choice(pool) for _ in range(rng.randint(1, 5))))
        elif op == 4 and words:  # replace one token
            words[rng.randrange(len(words))] = rng.choice(pool)
            lines[i] = " ".join(words)
        elif op == 5 and words:  # drop one token
            del words[rng.randrange(len(words))]
            lines[i] = " ".join(words)
        elif words:  # change one number
            tweak(rng, words)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", FILES)
def test_mutated_files_end_in_a_documented_exit(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NABLA_MAX_POINTS", raising=False)
    for lat in DATA.glob("*.lat"):
        shutil.copy(lat, tmp_path / lat.name)
    pool = EXTRA_TOKENS + sorted(
        {tok for f in FILES for tok in (DATA / f).read_text().split()}
    )
    lines = (DATA / name).read_text().splitlines()
    rng = random.Random(f"fuzz {name}")
    target = tmp_path / ("mutant" + Path(name).suffix)
    for _ in range(MUTANTS_PER_FILE):
        text = mutate(rng, lines, pool)
        target.write_text(text)
        for verb in VERBS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([verb[0], str(target), *verb[1:]])
            context = f"{verb} on\n{text}"
            assert code in (0, 1, 2, 3), context
            if code == 2:
                assert err.getvalue().startswith("error: "), context
