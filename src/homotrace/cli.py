"""Command-line surface: generate instances, verify every identity, compute traces.

Exit codes: 0 success, 1 check failure, 2 input error.  All randomness
flows from --seed; reports are byte-identical across runs for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from functools import cache

import numpy as np

from homotrace.dgcore import build_splitting_hodge, build_splitting_projector
from homotrace.errors import HomotraceError, InputError, QuadratureBudgetError
from homotrace.glinalg import AMBIGUITY_BAND, max_abs
from homotrace.hochschild import HochschildChain, chain_map_defect
from homotrace.instances import (
    MAX_ARITY,
    Instance,
    matrix_instance,
    random_instance,
    t1_instance,
    to_float_instance,
    torus_instance,
)
from homotrace.quadrature import DEFAULT_BUDGET
from homotrace.scalars import (EXACT, FLOAT, encode_value, rational_float,
                               session_tol)
from homotrace.serialize import load_chains, load_instance, save_instance
from homotrace.traces import (
    supertrace_on_cohomology,
    trace_defect,
    transferred_cyclic_trace,
    transferred_trace,
)
from homotrace.transfer import ainfinity_defect, transfer_closed, \
    transfer_quadrature, transferred_morphism


def _parse_dims(text: str) -> dict[int, int]:
    try:
        parts = [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"bad --dims value {text!r}") from exc
    return {d: n for d, n in enumerate(parts) if n > 0}


def _parse_tau(text: str) -> complex:
    """re,im as rationals, rounded to a complex double."""
    try:
        re_s, im_s = text.split(",")
        return complex(rational_float(re_s), rational_float(im_s))
    except ValueError as exc:
        raise InputError(f"bad --tau value {text!r} (want re,im)") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"--tau value {text!r} has a zero "
                         "denominator") from exc
    except OverflowError as exc:
        raise InputError(f"--tau value {text!r} is outside the double "
                         "range") from exc


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}")
    return value


def _int_from(low: int, high: int | None = None):
    """An argparse type: an integer >= low, and <= high if one is given."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be an integer <= {high}, got {text!r}")
        return value
    return parse


def cmd_gen(args) -> int:
    if args.kind == "torus" and args.mode == EXACT:
        raise InputError("torus instances are float; --mode exact is refused")
    if args.kind == "matrix":
        if args.preset == "T1" or (args.preset is None and args.dims is None):
            inst = t1_instance()
        elif args.preset is not None:
            raise InputError(f"unknown preset {args.preset!r}")
        else:
            inst = matrix_instance(_parse_dims(args.dims))
    elif args.kind == "torus":
        inst = torus_instance(args.N, _parse_tau(args.tau),
                              order_cap=args.order_cap, tol=args.tolerance)
    elif args.kind == "random":
        if args.dims is None:
            raise InputError("random instances need --dims")
        inst = random_instance(args.seed, _parse_dims(args.dims))
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    if args.mode == FLOAT:     # a torus is float already, the rest exact
        inst = to_float_instance(inst, args.tolerance)
    save_instance(inst, args.out)
    if args.output == "json":
        print(json.dumps({"written": args.out, "kind": args.kind,
                          "meta": inst.meta}, sort_keys=True))
    else:
        print(f"wrote {args.kind} instance to {args.out}")
    return 0


def _within(value, bound) -> bool:
    """The pass rule of every sampled check: exactly zero in exact mode
    (``bound`` None), else a magnitude at most ``bound``, so NaN fails."""
    return not value if bound is None else abs(complex(value)) <= bound


def _quadrature_error(inst: Instance, tup: tuple[int, ...], band: float,
                      budget: int) -> float:
    """The distance of the quadrature component of ``tup`` from its closed
    form, relative to 1 + the closed form's largest entry."""
    closed = transfer_closed(tup, inst.splitting, inst.bundle)
    quad, _ = transfer_quadrature(tup, inst.splitting, inst.bundle,
                                  rel_tol=band, budget=budget)
    return (quad - closed).max_abs() / (1.0 + closed.max_abs())


def _verify_checks(inst: Instance, args) -> list[dict]:
    """The load's validation, then checks on words drawn from one ``rng``:
    lists keep every draw and evaluation whatever an earlier sample gave."""
    tol = session_tol(inst.mode, args.tolerance)
    band = None if tol is None else AMBIGUITY_BAND * tol
    rng = random.Random(args.seed)
    rep, srep = inst.validation
    checks = [{"name": f"dg/{c.name}", "passed": c.passed,
               "detail": c.witness or ""} for c in rep.checks]
    checks += [{"name": f"splitting/{c.name}", "passed": c.passed,
                "detail": ""} for c in srep.checks]

    f = transferred_morphism(inst.bundle, inst.splitting)
    alg = inst.bundle.algebra
    n = alg.n_basis

    def word(k: int) -> tuple[int, ...]:
        return tuple(rng.randrange(n) for _ in range(k))

    defects = [ainfinity_defect(f, word(k))
               for k in range(1, args.max_arity + 1)
               for _ in range(min(25, n ** k))]
    if tol is None:
        ok, detail = all(d.is_zero() for d in defects), ""
    else:
        worst = max_abs(np.array([d.max_abs() for d in defects]))
        ok, detail = _within(worst, band), f"max {worst:.3e}"
    checks.append({"name": f"ainfinity/defects-k<= {args.max_arity}",
                   "passed": ok, "detail": detail})

    max_len = 4 if inst.mode == EXACT else 3
    chains = [HochschildChain.of(alg, word(rng.randint(1, max_len)))
              for _ in range(12)]
    ok = all([chain_map_defect(z, f, tol).passed for z in chains])
    checks.append({"name": "hochschild/chain-map", "passed": ok, "detail": ""})

    boundaries = []
    for _ in range(4000):
        k = rng.randint(2, 4)
        w = word(k)
        if sum(alg.basis_degree(b) for b in w) == k - 2:
            boundaries.append(w)
            if len(boundaries) == 50:
                break
    ok = all([_within(trace_defect(HochschildChain.of(alg, w), f), band)
              for w in boundaries])
    checks.append({"name": "traces/boundary-vanishing", "passed": ok,
                   "detail": f"{len(boundaries)} samples"})

    # the oracle reads cohomology through a splitting of its own
    space, q = inst.bundle.space, inst.bundle.q
    other = (build_splitting_projector(space, q, shear_seed=1) if tol is None
             else build_splitting_hodge(space, q, {d: np.diag(np.arange(
                 1.0, dim + 1)) for d, dim in space.dims}, tol))
    ok = all([_within(transferred_trace(HochschildChain.of(alg, (k,)), f)
                      - supertrace_on_cohomology(inst.bundle.rho[k], other),
                      band)
              for k in range(n)
              if alg.basis_degree(k) == 0 and not alg.differential_terms[k]])
    checks.append({"name": "traces/cohomology-oracle", "passed": ok,
                   "detail": ""})

    if inst.mode == FLOAT:
        try:
            failures = [f"relative error {rel:.3e}" for rel in [
                _quadrature_error(inst, word(k), band, args.quad_budget)
                for k in (2, 2, 3, 3)] if not _within(rel, band)]
        except QuadratureBudgetError as exc:
            failures = [str(exc)]
        checks.append({"name": "quadrature/agrees-with-closed-form",
                       "passed": not failures,
                       "detail": failures[-1] if failures else ""})
    return checks


def cmd_verify(args) -> int:
    inst = load_instance(args.instance, args.tolerance)
    checks = _verify_checks(inst, args)
    ok = all(c["passed"] for c in checks)
    if args.output == "json":
        print(json.dumps({"format": "homotrace-report/1",
                          "instance": inst.meta, "ok": ok,
                          "seed": args.seed, "checks": checks},
                         sort_keys=True))
    else:
        for c in checks:
            mark = "pass" if c["passed"] else "FAIL"
            tail = f"  [{c['detail']}]" if c["detail"] else ""
            print(f"{mark}  {c['name']}{tail}")
        print("ok" if ok else "FAILED")
    return 0 if ok else 1


def cmd_trace(args) -> int:
    inst = load_instance(args.instance, args.tolerance)
    chains = load_chains(args.chain, inst)
    method = args.method
    if method == "quadrature" and inst.mode == EXACT:
        raise InputError("quadrature evaluation needs a float instance")
    f = transferred_morphism(inst.bundle, inst.splitting, method=method,
                             rel_tol=AMBIGUITY_BAND * session_tol(
                                 FLOAT, args.tolerance),
                             budget=args.quad_budget)
    results = []
    for name, chain in chains:
        f.reads.clear()
        # a float value that overflows is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            value = transferred_trace(chain, f)
            written = [value]
            entry = {"chain": name, "value": encode_value(value),
                     "provenance": "closed-form" if method == "closed"
                     else "quadrature"}
            if inst.mode == FLOAT and method == "quadrature":
                entry["error"] = f.error_of(f.reads)
                written.append(entry["error"])
            if args.cyclic is not None:
                cy = transferred_cyclic_trace(chain, f, args.cyclic)
                entry["cyclic_level"] = args.cyclic
                entry["cyclic_value"] = encode_value(cy)
                written.append(cy)
        if inst.mode == FLOAT and not all(map(cmath.isfinite, written)):
            raise InputError(f"chain {name!r} has a trace that is not finite "
                             "in double precision")
        results.append(entry)
    if args.output == "json":
        print(json.dumps({"format": "homotrace-trace-report/1",
                          "results": results}, sort_keys=True))
    else:
        for entry in results:
            line = f"{entry['chain']}: {entry['value']} ({entry['provenance']})"
            if "error" in entry:
                line += f" +- {entry['error']:.2e}"
            if "cyclic_value" in entry:
                line += (f"; cyclic level {entry['cyclic_level']}: "
                         f"{entry['cyclic_value']}")
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homotrace",
        description="homotopy transfer, Hochschild chains, and supertraces")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True,
                   choices=["matrix", "torus", "random"])
    g.add_argument("--preset", default=None)
    g.add_argument("--dims", default=None,
                   help="per-degree dimensions from degree 0, e.g. 2,2")
    g.add_argument("--N", type=int, default=1, help="torus truncation")
    g.add_argument("--tau", default="0,1", help="torus modulus re,im (rationals)")
    g.add_argument("--order-cap", type=int, default=2)
    g.add_argument("--mode", choices=[EXACT, FLOAT], default=None,
                   help="scalars (default: float for torus, else exact)")
    g.add_argument("--tolerance", type=_positive_float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", "-o", required=True)
    g.add_argument("--output", choices=["text", "json"], default="text")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="run every identity check on an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--tolerance", type=_positive_float, default=None)
    v.add_argument("--max-arity", type=_int_from(1, MAX_ARITY), default=4)
    v.add_argument("--quad-budget", type=_int_from(1), default=DEFAULT_BUDGET)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("trace", help="evaluate transferred traces on chains")
    t.add_argument("--instance", required=True)
    t.add_argument("--chain", required=True)
    t.add_argument("--cyclic", type=_int_from(0), default=None,
                   metavar="LEVEL")
    t.add_argument("--method", choices=["closed", "quadrature"],
                   default="closed")
    t.add_argument("--tolerance", type=_positive_float, default=None)
    t.add_argument("--quad-budget", type=_int_from(1), default=DEFAULT_BUDGET)
    t.add_argument("--output", choices=["text", "json"], default="text")
    t.set_defaults(func=cmd_trace)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in a process, built on the first:
    parsing leaves a parser as it was, an error included, so in-process
    callers need not pay ``build_parser`` per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HomotraceError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
