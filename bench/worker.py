"""The benchmark's client: one fresh interpreter per workload run.

Usage: ``python bench/worker.py JOB.json`` with ``src`` on ``PYTHONPATH``.
The worker sends requests to ``nablamod.cli.main(argv)`` in-process, one at
a time with no pause (a closed loop with a single client).  It asks its
parent for each request by writing ``next`` on stdout and reading the
request back as one JSON line on stdin, so inputs are generated outside the
worker and outside the timed region.  The run ends when the busy time
reaches ``seconds`` and the request count is a multiple of ``deck``
(mode ``window``), or after ``count`` requests (mode ``count``).  The worker then writes its results, and its spans when
``trace`` is set, and says ``done``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def _call(main, argv: list[str]) -> tuple[float, object, str, str, str]:
    """Run one request; return (seconds, exit code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    tb = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            tb = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue(), tb


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    proto_in, proto_out = sys.stdin, sys.stdout

    import nablamod.cli

    tracer = replaced = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        replaced = tracing.install(tracer)

    latencies: list[float] = []
    codes: list[object] = []
    digests: list[str] = []
    outputs: dict[str, str] = {}
    errors: dict[int, str] = {}
    busy = 0.0
    i = 0
    while (job["mode"] == "window" and (busy < job["seconds"] or i % job["deck"])) or (
        job["mode"] == "count" and i < job["count"]
    ):
        proto_out.write("next\n")
        proto_out.flush()
        line = proto_in.readline()
        if not line:
            return 2
        argv = json.loads(line)
        if tracer is not None:
            tracer.request = i
        # cli.main is looked up on every call, so a traced run reaches the wrapper.
        elapsed, code, out, err, tb = _call(nablamod.cli.main, argv)
        busy += elapsed
        latencies.append(elapsed)
        codes.append(code)
        digest = hashlib.sha256(out.encode()).hexdigest()
        digests.append(digest)
        outputs.setdefault(digest, out)
        if tb or err:
            errors[i] = tb or err
        i += 1

    if tracer is not None:
        tracing.remove(replaced)
        tracer.write(job["spans"])
    result = {
        "latencies": latencies,
        "codes": codes,
        "digests": digests,
        "outputs": outputs,
        "errors": errors,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(job["results"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    proto_out.write("done\n")
    proto_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
