"""Spans around the calls into each layer of nablamod, recorded from outside.

``install`` replaces each traced function by a wrapper in every module that
bound it (the defining module, the modules that did ``from .x import name``,
and the package itself); ``remove`` puts the originals back.  A span is
(name, start, end, parent, request id) plus two integer notes that some
wrappers take from the call's arguments or result.  Spans stay in flat
arrays in memory and are written out once, when the run ends.

``layer_metrics`` turns a span file into the per-layer metrics: calls and
self time per traced function (self time is the span minus its direct child
spans) and a few ratios measured at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path

# Traced functions per layer (module of nablamod), in report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "stepfn": (
        "oplus",
        "oplus_interior",
        "le_op",
        "join_op",
        "eval_at",
        "well_below_fstep",
        "parse_step_literal",
        "format_step_literal",
    ),
    "modular": (
        "triangle_closure",
        "check_axioms",
        "candidate_parameters",
        "topology",
        "metric_ball_topology",
        "check_quasi_uniformity_base",
        "parse_space",
        "format_space",
        "regularize",
        "induced_distance",
        "entourage",
    ),
    "qcat": ("ball", "ball_topology", "verify_diagram", "parse_qcat", "format_qcat"),
    "quantale_lab": ("parse_lattice", "check_quantale_laws"),
    "cli": ("main",),
}

# Every module that may hold a reference to a traced function.
BINDING_MODULES = (
    "nablamod.stepfn",
    "nablamod.modular",
    "nablamod.qcat",
    "nablamod.quantale_lab",
    "nablamod.cli",
    "nablamod",
)

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns
)


def _note_oplus(args, result):
    f, g = args[0], args[1]
    return len(f.cuts) + len(g.cuts), 0


def _note_grid(args, result):
    t_cands, eps_cands = result
    return len(t_cands), len(eps_cands)


def _note_points(args, result):
    return len(args[0].points), 0


# Integer notes kept per span, for the ratios below.
NOTES = {
    "stepfn.oplus": _note_oplus,
    "modular.candidate_parameters": _note_grid,
    "modular.topology": _note_points,
    "qcat.ball_topology": _note_points,
}


# The fields of a span, with their array type codes, in file order.
FIELDS = (
    ("name", "i"),
    ("start", "q"),
    ("end", "q"),
    ("parent", "i"),
    ("request", "i"),
    ("note_a", "q"),
    ("note_b", "q"),
)


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.spans = {key: array(code) for key, code in FIELDS}
        self.stack: list[int] = []
        self.request = -1

    def wrap(self, fn, span_id: int, note):
        spans, stack, tracer = self.spans, self.stack, self
        names, starts, ends = spans["name"], spans["start"], spans["end"]
        parents, requests = spans["parent"], spans["request"]
        note_a, note_b = spans["note_a"], spans["note_b"]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request)
            ends.append(0)
            note_a.append(0)
            note_b.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note_a[idx], note_b[idx] = note(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as a JSON header line followed by the raw arrays."""
        header = {"names": list(SPAN_NAMES), "count": len(self.spans["name"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in FIELDS:
                self.spans[key].tofile(fh)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever it is bound; return what to undo."""
    modules = [importlib.import_module(m) for m in BINDING_MODULES]
    replaced: list[tuple[object, str, object]] = []
    for span_id, full in enumerate(SPAN_NAMES):
        mod_name, fn_name = full.split(".")
        original = getattr(importlib.import_module(f"nablamod.{mod_name}"), fn_name)
        wrapper = tracer.wrap(original, span_id, NOTES.get(full))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    return replaced


def remove(replaced: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)


def read_spans(path: Path) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {"names": header["names"]}
        for key, code in FIELDS:
            spans[key] = array(code)
            spans[key].fromfile(fh, header["count"])
    return spans


def layer_metrics(spans: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    names = spans["names"]
    sid = {full: i for i, full in enumerate(names)}
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    note_a, note_b = spans["note_a"], spans["note_b"]
    oplus, join, eval_at = sid["stepfn.oplus"], sid["stepfn.join_op"], sid["stepfn.eval_at"]
    closure, axioms = sid["modular.triangle_closure"], sid["modular.check_axioms"]
    grid, topo = sid["modular.candidate_parameters"], sid["modular.topology"]
    qub, balls = sid["modular.check_quasi_uniformity_base"], sid["qcat.ball_topology"]

    n = len(name)
    calls = [0] * len(names)
    child_ns = [0] * n
    # Index of the nearest enclosing span of three kinds, or -1.  Spans are
    # stored in start order, so a parent is always seen before its children.
    in_closure = array("i", [-1]) * n
    in_balls = array("i", [-1]) * n
    in_qub = array("i", [-1]) * n
    cuts_in = closure_oplus = closure_join = grid_cells = subsets = ball_evals = 0
    qub_ns = qub_axioms_ns = 0
    t_of_ball: dict[int, int] = {}  # ball_topology span -> |T| of its grid
    for i in range(n):
        s, p = name[i], parent[i]
        dur = end[i] - start[i]
        calls[s] += 1
        if p >= 0:
            child_ns[p] += dur
            in_closure[i] = p if name[p] == closure else in_closure[p]
            in_balls[i] = p if name[p] == balls else in_balls[p]
            in_qub[i] = p if name[p] == qub else in_qub[p]
        if s == oplus:
            cuts_in += note_a[i]
            closure_oplus += in_closure[i] >= 0
        elif s == join:
            closure_join += in_closure[i] >= 0
        elif s == eval_at:
            ball_evals += in_balls[i] >= 0
        elif s == grid:
            grid_cells += note_a[i] * note_b[i]
            if in_balls[i] >= 0:
                t_of_ball.setdefault(in_balls[i], note_a[i])
        elif s == topo:
            subsets += 1 << note_a[i]
        elif s == axioms and in_qub[i] >= 0:
            qub_axioms_ns += dur
        elif s == qub and in_qub[i] < 0:
            qub_ns += dur
    self_ns = [0] * len(names)
    for i in range(n):
        self_ns[name[i]] += end[i] - start[i] - child_ns[i]
    # Sum of |T| * n^2 over ball_topology calls.
    t_cells = sum(t * note_a[i] ** 2 for i, t in t_of_ball.items())

    out: dict[str, tuple[float, str]] = {}
    for s, full in enumerate(names):
        out[f"{full}.calls"] = (calls[s], "count")
        out[f"{full}.self_s"] = (self_ns[s] / 1e9, "s")
    out["stepfn.oplus.cuts_in_mean"] = (_ratio(cuts_in, 2 * calls[oplus]), "cuts")
    out["modular.triangle_closure.relax_useful_ratio"] = (
        _ratio(closure_join, closure_oplus),
        "ratio",
    )
    out["modular.candidate_parameters.grid_cells"] = (grid_cells, "count")
    out["modular.topology.subsets_scanned"] = (subsets, "count")
    out["qcat.ball_topology.evals_per_t_cell"] = (_ratio(ball_evals, t_cells), "ratio")
    out["modular.check_quasi_uniformity_base.axiom_share"] = (
        _ratio(qub_axioms_ns, qub_ns),
        "ratio",
    )
    return out


# Count-based metrics: these repeat exactly for a fixed seed.
def exact_metric_names() -> list[str]:
    return [f"{full}.calls" for full in SPAN_NAMES] + [
        "stepfn.oplus.cuts_in_mean",
        "modular.triangle_closure.relax_useful_ratio",
        "modular.candidate_parameters.grid_cells",
        "modular.topology.subsets_scanned",
        "qcat.ball_topology.evals_per_t_cell",
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
