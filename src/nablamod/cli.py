"""Command line front end.

Every verb reads one input file, prints a deterministic plain-text report
(one fact per line, identifiers sorted, fractions reduced), and signals
its verdict through the exit status:

0   everything requested passed
1   a check failed
2   unreadable or malformed input
3   a resource bound was exceeded

The only environment variable consulted is ``NABLA_MAX_POINTS``, the
point bound (default 12) of ``topology``, which enumerates open sets, and
of ``verify``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import random
import sys
from typing import Optional, Union

from .errors import ContractError, InputError, ParseError, ResourceBoundError, _lines
from .modular import (
    ScaledModularSpace,
    StepModularSpace,
    _gate,
    _neighborhood_masks,
    _presents,
    _specialization,
    check_axioms,
    check_quasi_uniformity_base,
    entourage,
    format_space,
    induced_distance,
    parse_space,
    random_closed_space,
    regularize,
    scaled_induced_distance,
    topology,
)
from .qcat import (
    FiniteQCategory,
    NablaCategory,
    ball_topology,
    check_qcategory,
    e_mod,
    e_nabla,
    format_qcat,
    parse_qcat,
    verify_diagram,
    verify_topology_theorem,
)
from .quantale_lab import check_quantale_laws, parse_lattice
from .stepfn import as_fraction

Loaded = Union[StepModularSpace, ScaledModularSpace, NablaCategory, FiniteQCategory]


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _passfail(b: bool) -> str:
    return "PASS" if b else "FAIL"


def _max_points() -> int:
    raw = os.environ.get("NABLA_MAX_POINTS")
    if raw is None:
        return 12
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"NABLA_MAX_POINTS must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError("NABLA_MAX_POINTS must be positive")
    return value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path!r}: {err}") from None


def _load(path: str, *, close: bool = False) -> Loaded:
    text = _read(path)
    for _lineno, _body, tokens in _lines(text):
        head = tokens[0][0]
        if head == "space":
            return parse_space(text, close=close)
        if head == "qcat":
            if close:
                raise InputError("--close applies to space files only")
            return parse_qcat(text, base_path=os.path.dirname(path) or ".")
        break
    raise ParseError("expected a 'space' or 'qcat' header", 1, 1)


# ---------------------------------------------------------------------------
# Verbs.


def _cmd_check(args: argparse.Namespace) -> int:
    obj = _load(args.file, close=args.close)
    if isinstance(obj, (StepModularSpace, ScaledModularSpace)):
        rep = check_axioms(obj)
    else:
        rep = check_qcategory(obj)
    values = dataclasses.astuple(rep)
    for field, value in zip(dataclasses.fields(rep), values):
        print(f"{field.name} {_bool(value)}")
    return 0 if all(values[:2]) else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    bound = _max_points()
    if isinstance(obj, NablaCategory):
        topo = ball_topology(obj, max_points=bound)
    elif isinstance(obj, FiniteQCategory):
        raise InputError("finite enriched categories carry no ball topology here")
    else:
        topo = topology(obj, max_points=bound)
    for members in sorted(tuple(sorted(o)) for o in topo.opens):
        print("{" + ",".join(members) + "}")
    return 0


def _cmd_entourage(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    if not isinstance(obj, (StepModularSpace, ScaledModularSpace)):
        raise InputError("entourages are defined for space files")
    try:
        t = as_fraction(args.t)
        eps = as_fraction(args.eps)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad parameter: {err}") from None
    pairs = entourage(obj, t, eps)
    for a, b in sorted(pairs):
        print(f"({a},{b})")
    return 0


def _cmd_dw(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    if isinstance(obj, StepModularSpace):
        d = induced_distance(obj)
        for x in sorted(obj.points):
            for y in sorted(obj.points):
                print(f"{x} {y} {d[(x, y)]}")
        return 0
    if isinstance(obj, ScaledModularSpace):
        enc = scaled_induced_distance(obj)
        for x in sorted(obj.points):
            for y in sorted(obj.points):
                lo, hi = enc[(x, y)]
                print(f"{x} {y} {lo} {hi}")
        return 0
    raise InputError("induced distances are defined for space files")


def _cmd_regularize(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    if isinstance(obj, FiniteQCategory):
        raise InputError("finite enriched categories have nothing to regularize")
    write = format_qcat if isinstance(obj, NablaCategory) else format_space
    sys.stdout.write(write(regularize(obj)))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    if args.to == "qcat":
        if isinstance(obj, StepModularSpace):
            sys.stdout.write(format_qcat(e_mod(obj)))
        elif isinstance(obj, NablaCategory):
            sys.stdout.write(format_qcat(obj))
        else:
            raise InputError("only step spaces convert to category files")
    else:
        if isinstance(obj, NablaCategory):
            sys.stdout.write(format_space(e_nabla(obj)))
        elif isinstance(obj, (StepModularSpace, ScaledModularSpace)):
            sys.stdout.write(format_space(obj))
        else:
            raise InputError("finite enriched categories do not convert to spaces")
    return 0


def _verify_space(space: Union[StepModularSpace, ScaledModularSpace]) -> list[tuple[str, bool]]:
    _gate(space, _max_points())
    results = [("quasi_uniformity_base", check_quasi_uniformity_base(space).ok)]
    if isinstance(space, StepModularSpace):
        results.append(("regularization_diagram", verify_diagram(space)))
        results.append(("ball_topology_equality", verify_topology_theorem(space)))
    else:
        same = _presents(_specialization(space), _neighborhood_masks(space))
        results.append(("metric_ball_topology_equality", same))
    return results


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.file is None and args.random is None:
        raise InputError("verify needs a file, --random N, or both")
    ok = True
    if args.file is not None:
        obj = _load(args.file)
        if isinstance(obj, NablaCategory):
            space: Union[StepModularSpace, ScaledModularSpace] = e_nabla(obj)
        elif isinstance(obj, FiniteQCategory):
            raise InputError("finite enriched categories cannot be verified here")
        else:
            space = obj
        for name, result in _verify_space(space):
            print(f"{name} {_passfail(result)}")
            ok = ok and result
    if args.random is not None:
        if args.random < 1:
            raise InputError("--random needs a positive count")
        rng = random.Random(args.seed)
        for i in range(args.random):
            inst = random_closed_space(rng, 2 + i % 4)
            good = all(result for _, result in _verify_space(inst))
            print(f"instance {i} {_passfail(good)}")
            ok = ok and good
    return 0 if ok else 1


def _cmd_lattice(args: argparse.Namespace) -> int:
    lat = parse_lattice(_read(args.file))
    is_lat = lat.poset.is_lattice()
    print(f"lattice {_bool(is_lat)}")
    if lat.op is None:
        return 0 if is_lat else 1
    if not is_lat:
        return 1
    rep = check_quantale_laws(lat.quantale())
    print(f"semigroup {_bool(rep.semigroup)}")
    print(f"left_dist {_bool(rep.left_dist)}")
    print(f"right_dist {_bool(rep.right_dist)}")
    print(f"commutative {_bool(rep.commutative)}")
    print(f"unital {_bool(rep.unital)}")
    if rep.unit is not None:
        print(f"unit {rep.unit}")
    print(f"integral {_bool(rep.integral)}")
    print(f"value_quantale {_bool(rep.value_quantale)}")
    return 0 if rep.semigroup and rep.left_dist and rep.right_dist else 1


# ---------------------------------------------------------------------------
# Entry point.


# Built on the first call and reused: building the tree costs far more than
# one parse, and a process may call ``main`` many times.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nablamod",
        description="Exact checks for step-function distance spaces, "
        "their topologies, and their enriched-category presentation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="print the axiom record of a space or category")
    p.add_argument("file")
    p.add_argument(
        "--close",
        action="store_true",
        help="complete missing distances by triangle closure before checking",
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("topology", help="print all open sets")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_topology)

    p = sub.add_parser("entourage", help="print one entourage as a pair set")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="parameter, a positive fraction")
    p.add_argument("--eps", required=True, help="radius, a positive fraction")
    p.set_defaults(fn=_cmd_entourage)

    p = sub.add_parser("dw", help="print the induced plain distances")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dw)

    p = sub.add_parser("regularize", help="print the left-regularized file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_regularize)

    p = sub.add_parser("convert", help="convert between space and category files")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=["qcat", "space"])
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "verify",
        help="run the uniformity, regularization, and topology verifiers",
    )
    p.add_argument("file", nargs="?")
    p.add_argument("--random", type=int, metavar="N", help="also verify N generated spaces")
    p.add_argument("--seed", type=int, default=0, help="generator seed for --random")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("lattice", help="report lattice and quantale laws of a lattice file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_lattice)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceBoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (InputError, ContractError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
