"""Command-line surface: generate instances, verify every identity, compute traces.

Exit codes: 0 success, 1 check failure, 2 input error.  All randomness
flows from --seed; reports are byte-identical across runs for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from homotrace.dgcore import cohomology
from homotrace.errors import HomotraceError, InputError, QuadratureBudgetError
from homotrace.glinalg import AMBIGUITY_BAND
from homotrace.hochschild import HochschildChain, chain_map_defect
from homotrace.instances import (
    Instance,
    matrix_instance,
    random_instance,
    t1_instance,
    to_float_instance,
    torus_instance,
)
from homotrace.scalars import DEFAULT_TOL, EXACT, FLOAT, encode_value
from homotrace.serialize import load_chains, load_instance, save_instance
from homotrace.traces import (
    supertrace_on_cohomology,
    trace_defect,
    trace_functional,
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


def _parse_tau(text: str) -> tuple[Fraction, Fraction]:
    try:
        re_s, im_s = text.split(",")
        return Fraction(re_s), Fraction(im_s)
    except ValueError as exc:
        raise InputError(f"bad --tau value {text!r} (want re,im)") from exc


def cmd_gen(args) -> int:
    if args.kind == "matrix":
        if args.preset == "T1" or (args.preset is None and args.dims is None):
            inst = t1_instance()
        elif args.preset is not None:
            raise InputError(f"unknown preset {args.preset!r}")
        else:
            inst = matrix_instance(_parse_dims(args.dims))
        if args.mode == FLOAT:
            inst = to_float_instance(inst, args.tolerance)
    elif args.kind == "torus":
        inst = torus_instance(args.N, _parse_tau(args.tau),
                              order_cap=args.order_cap, tol=args.tolerance)
    elif args.kind == "random":
        if args.dims is None:
            raise InputError("random instances need --dims")
        inst = random_instance(args.seed, _parse_dims(args.dims))
        if args.mode == FLOAT:
            inst = to_float_instance(inst, args.tolerance)
    else:
        raise InputError(f"unknown kind {args.kind!r}")
    save_instance(inst, args.out)
    if args.output == "json":
        print(json.dumps({"written": args.out, "kind": args.kind,
                          "meta": inst.meta}, sort_keys=True))
    else:
        print(f"wrote {args.kind} instance to {args.out}")
    return 0


def _verify_checks(inst: Instance, args) -> list[dict]:
    tol = None if inst.mode == EXACT else args.tolerance
    rng = random.Random(args.seed)
    checks: list[dict] = []

    rep, srep = inst.validation
    for c in rep.checks:
        checks.append({"name": f"dg/{c.name}", "passed": c.passed,
                       "detail": c.witness or ""})
    for c in srep.checks:
        checks.append({"name": f"splitting/{c.name}", "passed": c.passed,
                       "detail": ""})

    f = transferred_morphism(inst.bundle, inst.splitting)
    alg = inst.bundle.algebra
    n = alg.n_basis
    worst = 0.0
    ok = True
    for k in range(1, args.max_arity + 1):
        count = min(25, n ** k)
        for _ in range(count):
            tup = [rng.randrange(n) for _ in range(k)]
            defect = ainfinity_defect(f, tup)
            if tol is None:
                ok = ok and defect.is_zero()
            else:
                worst = max(worst, defect.max_abs())
    if tol is not None:
        ok = worst <= AMBIGUITY_BAND * tol
    checks.append({"name": f"ainfinity/defects-k<= {args.max_arity}",
                   "passed": ok,
                   "detail": "" if tol is None else f"max {worst:.3e}"})

    ok = True
    max_len = 4 if inst.mode == EXACT else 3
    for _ in range(12):
        k = rng.randint(1, max_len)
        flats = tuple(rng.randrange(n) for _ in range(k))
        repc = chain_map_defect(HochschildChain.of(alg, flats), f, tol)
        ok = ok and repc.passed
    checks.append({"name": "hochschild/chain-map", "passed": ok, "detail": ""})

    func = trace_functional(f)
    ok = True
    tested = 0
    for _ in range(4000):
        k = rng.randint(2, 4)
        flats = tuple(rng.randrange(n) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 2:
            continue
        val = trace_defect(HochschildChain.of(alg, flats), func)
        if tol is None:
            ok = ok and not val
        else:
            ok = ok and abs(complex(val)) <= AMBIGUITY_BAND * tol
        tested += 1
        if tested >= 50:
            break
    checks.append({"name": "traces/boundary-vanishing", "passed": ok,
                   "detail": f"{tested} samples"})

    coh = cohomology(inst.bundle.space, inst.bundle.q,
                     None if inst.mode == EXACT else args.tolerance)
    ok = True
    for k in range(n):
        if alg.basis_degree(k) != 0:
            continue
        dv = alg.diff_flat(k)
        if any(bool(x) for x in dv):
            continue
        ups = transferred_trace(HochschildChain.of(alg, (k,)), f)
        ind = supertrace_on_cohomology(inst.bundle.rho_flat(k), coh)
        if tol is None:
            ok = ok and ups == ind
        else:
            ok = ok and abs(complex(ups) - complex(ind)) <= AMBIGUITY_BAND * tol
    checks.append({"name": "traces/cohomology-oracle", "passed": ok,
                   "detail": ""})

    if inst.mode == FLOAT:
        ok = True
        detail = ""
        rel_tol = AMBIGUITY_BAND * tol
        try:
            for k in (2, 3):
                for _ in range(2):
                    tup = [rng.randrange(n) for _ in range(k)]
                    closed = transfer_closed(tup, inst.splitting, inst.bundle)
                    quad, est = transfer_quadrature(
                        tup, inst.splitting, inst.bundle,
                        rel_tol=rel_tol, budget=args.quad_budget)
                    rel = (quad - closed).max_abs() / (1.0 + closed.max_abs())
                    if rel > AMBIGUITY_BAND * rel_tol:
                        ok = False
                        detail = f"relative error {rel:.3e}"
        except QuadratureBudgetError as exc:
            ok = False
            detail = str(exc)
        checks.append({"name": "quadrature/agrees-with-closed-form",
                       "passed": ok, "detail": detail})
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
                             budget=args.quad_budget)
    results = []
    for name, chain in chains:
        before = f.quad_error
        value = transferred_trace(chain, f)
        entry = {"chain": name, "value": encode_value(value),
                 "provenance": "closed-form" if method == "closed"
                 else "quadrature"}
        if inst.mode == FLOAT and method == "quadrature":
            entry["error"] = f.quad_error - before
        if args.cyclic is not None:
            cy = transferred_cyclic_trace(chain, f, args.cyclic)
            entry["cyclic_level"] = args.cyclic
            entry["cyclic_value"] = encode_value(cy)
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
    g.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    g.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", "-o", required=True)
    g.add_argument("--output", choices=["text", "json"], default="text")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="run every identity check on an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    v.add_argument("--max-arity", type=int, default=4)
    v.add_argument("--quad-budget", type=int, default=10 ** 6)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("trace", help="evaluate transferred traces on chains")
    t.add_argument("--instance", required=True)
    t.add_argument("--chain", required=True)
    t.add_argument("--cyclic", type=int, default=None, metavar="LEVEL")
    t.add_argument("--method", choices=["closed", "quadrature"],
                   default="closed")
    t.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    t.add_argument("--quad-budget", type=int, default=10 ** 6)
    t.add_argument("--output", choices=["text", "json"], default="text")
    t.set_defaults(func=cmd_trace)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
