"""``cli.main`` builds its argument parser once per process and reuses it.

A process that calls ``main`` many times (a test run, an embedding program)
must see the same output as a fresh interpreter per call, also after a call
that ended in a usage error.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from nablamod import cli

SPACE = str(Path(__file__).parent / "data" / "jump_pair.space")


def fresh(argv):
    env = dict(os.environ)
    env.pop("NABLA_MAX_POINTS", None)
    done = subprocess.run(
        [sys.executable, "-m", "nablamod", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_reused_parser_answers_like_a_fresh_interpreter(monkeypatch):
    monkeypatch.delenv("NABLA_MAX_POINTS", raising=False)
    usage = in_process(["check"])
    report = in_process(["check", SPACE])
    assert usage[0] == 2 and "required" in usage[2]
    assert report[0] == 0 and report[1].startswith("m1 true\n")
    assert usage == fresh(["check"])
    assert report == fresh(["check", SPACE])
