"""Tests of the benchmark itself.  Run from the repository root with

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, Generator

# Small request counts keep each traced run to a few seconds.
COUNTS = {"verify-random": 3, "check-close": 4, "light-verbs": 60}


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name in tracing.BINDING_MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if callable(value):
                out[(name, attr)] = value
    return out


def test_wrappers_reach_every_binding_and_are_removed():
    import nablamod
    import nablamod.cli
    import nablamod.modular
    import nablamod.qcat
    import nablamod.stepfn

    before = _bindings()
    original = nablamod.stepfn.oplus
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        # Names bound by "from .stepfn import ..." are wrapped too.
        for module in (nablamod.stepfn, nablamod.modular, nablamod):
            assert module.oplus is not original
        assert nablamod.qcat.le_op is not before[("nablamod.stepfn", "le_op")]
        assert nablamod.cli.check_axioms is not before[("nablamod.modular", "check_axioms")]
        data = run.ROOT / "tests" / "data" / "chistyakov3.space"
        with contextlib.redirect_stdout(io.StringIO()):
            assert nablamod.cli.main(["verify", str(data)]) == 0
    finally:
        tracing.remove(replaced)
    assert len(tracer.spans["name"]) > 0
    assert tracer.stack == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    workload = request.param
    workdir = tmp_path_factory.mktemp(workload)
    gen = Generator(workload, 7, workdir, run.ROOT)
    count = COUNTS[workload]
    plain = run.drive(gen, workdir, mode="count", count=count)
    traced = [
        run.drive(
            gen, workdir, mode="count", count=count, trace=True, spans=workdir / f"spans{k}.bin"
        )
        for k in range(2)
    ]
    metrics = [tracing.layer_metrics(tracing.read_spans(workdir / f"spans{k}.bin")) for k in range(2)]
    return workload, workdir, plain, traced, metrics


def test_traced_and_untraced_responses_are_identical(runs):
    workload, workdir, plain, traced, _ = runs
    for results in (plain, *traced):
        assert all(v is None for v in run.check_responses(results, workdir)), workload
        assert results["codes"] == plain["codes"]
        assert results["digests"] == plain["digests"]


def test_counts_and_ratios_repeat_exactly(runs):
    workload, _, _, _, metrics = runs
    names = tracing.exact_metric_names()
    first = {name: metrics[0][name][0] for name in names}
    second = {name: metrics[1][name][0] for name in names}
    assert first == second, workload
    assert first["cli.main.calls"] == COUNTS[workload]


def test_refuses_to_run_without_the_program(tmp_path):
    # Only the benchmark's own files, as in a checkout without the program.
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "light-verbs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(k) for k in range(1, 41)]
    value, pct = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert pct == 75.0


def test_timed_run_ends_on_a_whole_deck(tmp_path):
    gen = Generator("light-verbs", 7, tmp_path, run.ROOT)
    results = run.drive(gen, tmp_path, mode="window", seconds=0.01)
    assert len(results["latencies"]) == gen.deck_size
    # Each light-verbs deck sends every request of the menu once.
    assert sorted(map(tuple, (r.argv for r in results["requests"]))) == sorted(
        tuple(r.argv) for r in gen._menu
    )


def test_closed_spaces_lie_in_their_grid_band():
    import random

    from workloads import GRID_BAND, _banded_closed_space

    from nablamod import candidate_parameters

    for n, (lo, hi) in GRID_BAND.items():
        if n > 5:
            continue  # larger spaces take a second or more to draw
        t_cands, e_cands = candidate_parameters(_banded_closed_space(random.Random(n), n))
        assert lo <= len(t_cands) * len(e_cands) <= hi
