#!/usr/bin/env python3
"""Convergence experiments for the integrated transfer components.

Prints three tables:
  1. quadrature vs closed form across quadrature orders and arities,
  2. boundary-stratum restriction error as the gap approaches 0 / infinity,
  3. finite-difference closedness residual versus step size.

Deterministic; takes about 2 min 20 s on a 2-vCPU machine.
"""

import math
import sys

sys.path.insert(0, "src")

from homotrace.instances import random_instance, t1_instance, to_float_instance
from homotrace.glinalg import compose
from homotrace.transfer import (
    ConfigurationPoint,
    Slot,
    almost_closed_check,
    operator_form,
    transfer_closed,
    transfer_quadrature,
)


def pick_nonzero_tuples(inst, arity, want=3):
    alg = inst.bundle.algebra
    import itertools

    out = []
    for tup in itertools.product(range(alg.n_basis), repeat=arity):
        closed = transfer_closed(list(tup), inst.splitting, inst.bundle)
        if closed.max_abs() > 1e-9:
            out.append((tup, closed))
            if len(out) >= want:
                break
    return out


def main():
    inst = to_float_instance(random_instance(7, {0: 2, 1: 2}))
    print("== quadrature vs closed form (random float instance, dim 4) ==")
    print(f"{'arity':>6} {'order':>6} {'rel error':>12} {'estimate':>12}")
    from homotrace.errors import QuadratureBudgetError

    for arity in (2, 3):
        tuples = pick_nonzero_tuples(inst, arity)
        for order in (4, 8, 16):
            worst = 0.0
            est_max = 0.0
            for tup, closed in tuples:
                try:
                    quad, est = transfer_quadrature(
                        list(tup), inst.splitting, inst.bundle,
                        rel_tol=1e-9, order=order, budget=120_000)
                except QuadratureBudgetError as exc:
                    quad, est = exc.best, exc.estimate
                rel = (quad - closed).max_abs() / (1.0 + closed.max_abs())
                worst = max(worst, rel)
                est_max = max(est_max, est)
            print(f"{arity:>6} {order:>6} {worst:>12.3e} {est_max:>12.3e}")

    t1f = to_float_instance(t1_instance())
    alg = t1f.bundle.algebra
    a1 = alg.flat_by_name("E[f<-e2]")
    a2 = alg.flat_by_name("E[e2<-f]")
    print("\n== boundary strata (T1 float, arity 2) ==")
    print(f"{'eps':>10} {'merge diff':>12} {'split diff':>12}")
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        form = operator_form([a1, a2], ConfigurationPoint((eps,)),
                             t1f.splitting, t1f.bundle)
        merged = operator_form(
            [Slot(alg.basis_degree(a1) + alg.basis_degree(a2),
                  alg.mul_flat(a2, a1))],
            ConfigurationPoint(()), t1f.splitting, t1f.bundle)
        d_merge = (form.component(()) - merged.component(())).max_abs()
        form_inf = operator_form([a1, a2], ConfigurationPoint((1.0 / eps,)),
                                 t1f.splitting, t1f.bundle)
        fa = operator_form([a1], ConfigurationPoint(()), t1f.splitting,
                           t1f.bundle).component(())
        fb = operator_form([a2], ConfigurationPoint(()), t1f.splitting,
                           t1f.bundle).component(())
        d_split = (form_inf.component(()) - compose(fb, fa)).max_abs()
        print(f"{eps:>10.0e} {d_merge:>12.3e} {d_split:>12.3e}")

    print("\n== closedness residual vs step (second-order central differences) ==")
    print(f"{'step':>10} {'residual':>12}")
    pt = ConfigurationPoint((0.8,))
    for step in (1e-2, 1e-3, 1e-4):
        r = almost_closed_check([a1, a2], pt, t1f.splitting, t1f.bundle, step)
        print(f"{step:>10.0e} {r:>12.3e}")


if __name__ == "__main__":
    main()
