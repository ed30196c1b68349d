"""Run one workload of the nablamod benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload verify-random --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: a fresh worker
interpreter sends seeded requests through ``nablamod.cli.main`` for
``--seconds`` seconds of busy time, and separate fresh interpreters time
``import nablamod`` for ``setup_s``; the requests end with the first whole
deck of the workload's input mix after that time.  With ``--trace 1`` it
runs a fixed number of requests twice, each time in a fresh worker:
untraced, then with spans around the calls into every layer, and prints the
per-layer metrics (the fixed count makes every call count repeat exactly
for a seed).

Every response is checked against a property known from how its input was
built.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any check failed and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "nablamod" / "__init__.py", ROOT / "tests" / "data", ROOT / "tests" / "golden")
WORK = ROOT / ".bench_work"  # generated inputs, removed after each run
OUT = ROOT / ".bench_out"  # span files of traced runs

# Fresh interpreters timed for setup_s.  They are spread over the timed run,
# one whenever another 1/16 of --seconds has passed, while the worker waits
# for its next request; the median then spans the run's slow and fast spells
# of a shared machine.  Any missing at the end are taken after the run.
SETUP_SAMPLES = 16
# Requests per traced run: one deck of verify-random, two of check-close;
# 10 to 15 s untraced at the seed commit.
TRACE_COUNT = {"verify-random": 22, "check-close": 26, "light-verbs": 1512}
WORKER_TIMEOUT_S = 150


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # Fixed string hashing, so set iteration order and with it every call
    # count is the same on each run.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds a fresh interpreter spends in ``import nablamod``, per sample."""
    code = (
        "import time; t = time.perf_counter(); import nablamod; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=_worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout))
    return times


def drive(gen, workdir: Path, *, mode: str, seconds: float = 0.0, count: int = 0,
          trace: bool = False, spans: Optional[Path] = None,
          between: Optional[Callable[[], None]] = None) -> dict:
    """Run one worker to completion, serving it requests from ``gen``.
    ``between`` is called each time the worker asks for a request."""
    tag = f"{mode}-{'traced' if trace else 'plain'}"
    job = {
        "mode": mode,
        "seconds": seconds,
        "count": count,
        "deck": gen.deck_size,
        "trace": trace,
        "results": str(workdir / f"results-{tag}.json"),
        "spans": str(spans) if spans else None,
    }
    job_path = workdir / f"job-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    served = []
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
    )
    try:
        for line in proc.stdout:
            if line == "next\n":
                if between is not None:
                    between()
                req = gen.request(len(served))
                served.append(req)
                proc.stdin.write(json.dumps(req.argv) + "\n")
                proc.stdin.flush()
            elif line == "done\n":
                break
        proc.stdin.close()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(job["results"], encoding="utf-8") as fh:
        results = json.load(fh)
    results["requests"] = served
    return results


def _rerun(argv: list[str]) -> tuple[object, str]:
    import nablamod.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = nablamod.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_responses(results: dict, workdir: Path) -> list[Optional[str]]:
    """One verdict per request: None when right, else the reason.

    Identical requests must get identical responses; the first of them is
    checked against the property of its input.
    """
    from workloads import check_response

    first: dict[tuple, tuple] = {}
    verdicts: list[Optional[str]] = []
    for i, req in enumerate(results["requests"]):
        code, digest = results["codes"][i], results["digests"][i]
        key = tuple(req.argv)
        if key in first:
            code0, digest0, verdict0 = first[key]
            same = (code, digest) == (code0, digest0)
            verdict = verdict0 if same else "response differs from an identical earlier request"
        else:
            verdict = check_response(req, code, results["outputs"][digest], _rerun, workdir)
            first[key] = (code, digest, verdict)
        error = results["errors"].get(str(i))
        if verdict and error:
            verdict += f" ({error.strip().splitlines()[-1]})"
        verdicts.append(verdict)
    return verdicts


def input_properties(requests: list) -> dict[str, float]:
    """Means over the requests of the properties of their input files."""
    props: dict[str, float] = {}
    for key in ("points", "cuts", "missing", "left_jump"):
        values = [r.props.get(key, 0.0) for r in requests if "points" in r.props]
        props[key] = statistics.fmean(values) if values else 0.0
    seen: set[str] = set()
    repeated = 0
    for r in requests:
        repeated += r.path in seen
        seen.add(r.path)
    props["repeated"] = repeated / len(requests)
    return props


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it: the 11th largest sample.  With 10 samples or fewer, the max."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    lat = results["latencies"]
    tail_s, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (len(lat) / results["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (results["peak_rss_mb"], "MB"),
    }


def _print_failures(verdicts: list[Optional[str]], requests: list) -> None:
    bad = [(r, v) for r, v in zip(requests, verdicts) if v is not None]
    for req, verdict in bad[:5]:
        print(f"FAILED {' '.join(req.argv)}: {verdict}", file=sys.stderr)
    if len(bad) > 5:
        print(f"... and {len(bad) - 5} more failures", file=sys.stderr)


def run_untraced(gen, workdir: Path, seconds: float) -> tuple[dict, list, list]:
    setup: list[float] = []
    start = time.monotonic()

    def sample_setup() -> None:
        due = start + len(setup) * seconds / SETUP_SAMPLES
        if len(setup) < SETUP_SAMPLES and time.monotonic() >= due:
            setup.extend(measure_setup(1))

    results = drive(gen, workdir, mode="window", seconds=seconds, between=sample_setup)
    setup += measure_setup(SETUP_SAMPLES - len(setup))
    metrics = end_to_end(results, setup)
    n = len(results["latencies"])
    _, pct = tail(results["latencies"])
    print(f"{n} requests in {results['busy_s']:.2f} s busy, closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        note = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "latency_p50_ms": f"{n} samples",
            "latency_tail_ms": f"p{pct:.1f}, {n} samples",
            "requests_per_s": f"{n} requests",
        }.get(name, "worker process")
        print(f"  {name:<18} {value:12.4f} {unit:<5} ({note})")
    return metrics, check_responses(results, workdir), results["requests"]


def run_traced(gen, workdir: Path, workload: str, count: int) -> tuple[dict, list, list]:
    import tracing

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.bin"
    plain = drive(gen, workdir, mode="count", count=count)
    traced = drive(gen, workdir, mode="count", count=count, trace=True, spans=spans_path)
    verdicts = []
    for i, (a, b) in enumerate(zip(check_responses(plain, workdir), check_responses(traced, workdir))):
        same = (plain["codes"][i], plain["digests"][i]) == (traced["codes"][i], traced["digests"][i])
        verdicts.append(a or b or (None if same else "traced response differs from the untraced one"))
    metrics = tracing.layer_metrics(tracing.read_spans(spans_path))
    metrics["trace_overhead_ratio"] = (traced["busy_s"] / plain["busy_s"], "ratio")
    print(f"{count} requests, untraced {plain['busy_s']:.2f} s, traced {traced['busy_s']:.2f} s")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.6g} {unit}")
    return metrics, verdicts, traced["requests"]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Generator

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        gen = Generator(args.workload, args.seed, workdir, ROOT)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            count = TRACE_COUNT[args.workload]
            metrics, verdicts, requests = run_traced(gen, workdir, args.workload, count)
        else:
            metrics, verdicts, requests = run_untraced(gen, workdir, args.seconds)
        attempted, failed = len(verdicts), sum(v is not None for v in verdicts)
        print(f"  failure_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} failed)")
        _print_failures(verdicts, requests)
        props = input_properties(requests)
        print(
            "inputs: "
            + ", ".join(
                f"{label} {props[key]:.3f}"
                for key, label in (
                    ("points", "points"),
                    ("cuts", "cuts/function"),
                    ("missing", "missing share"),
                    ("left_jump", "left-jump share"),
                    ("repeated", "repeated-file share"),
                )
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
