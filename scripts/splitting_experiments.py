#!/usr/bin/env python3
"""Homotopy-independence experiment.

Builds several distinct splittings of the canonical 3-dimensional instance,
pushes random chains through each transferred morphism, and tabulates the
resulting traces.  Closed chains agree across splittings; non-closed chains
are expected to (and do) disagree.
"""

import random
import sys

sys.path.insert(0, "src")

from homotrace.dgcore import build_splitting_projector
from homotrace.hochschild import HochschildChain, cycle_basis, trace_words
from homotrace.instances import t1_instance
from homotrace.traces import transferred_trace
from homotrace.transfer import transferred_morphism


def main():
    inst = t1_instance()
    v, q = inst.bundle.space, inst.bundle.q
    alg = inst.bundle.algebra
    splittings = [("canonical", inst.splitting)]
    for seed in (1, 2, 3):
        splittings.append((f"shear-{seed}",
                           build_splitting_projector(v, q, shear_seed=seed)))
    morphisms = [(name, transferred_morphism(inst.bundle, s))
                 for name, s in splittings]

    basis = cycle_basis(alg, 3)
    print(f"closed-chain space: dimension {len(basis)} "
          f"inside {len(trace_words(alg, 3))} degree-0 tuples "
          "(lengths <= 3)\n")

    rng = random.Random(0)
    header = f"{'chain':>10} " + " ".join(f"{name:>10}" for name, _ in morphisms)
    print("traces of random CLOSED chains (must agree):")
    print(header)
    for trial in range(5):
        chain = sum((z.scale(rng.randint(-2, 2)) for z in basis),
                    HochschildChain.zero(alg))
        vals = [transferred_trace(chain, f) for _, f in morphisms]
        print(f"{f'closed-{trial}':>10} " + " ".join(f"{str(x):>10}" for x in vals))
        assert all(x == vals[0] for x in vals)

    print("\ntraces of random OPEN chains (splitting-dependent, as expected):")
    print(header)
    shown = 0
    for trial in range(200):
        k = rng.randint(2, 3)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        if sum(alg.basis_degree(x) for x in flats) != k - 1:
            continue
        chain = HochschildChain.of(alg, flats)
        vals = [transferred_trace(chain, f) for _, f in morphisms]
        if len({str(x) for x in vals}) > 1:
            names = ",".join(alg.basis_name(x) for x in flats)
            print(f"{f'open-{shown}':>10} " + " ".join(f"{str(x):>10}" for x in vals)
                  + f"   ({names})")
            shown += 1
            if shown >= 4:
                break


if __name__ == "__main__":
    main()
