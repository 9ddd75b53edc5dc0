"""Acceptance suite: one test per criterion, each printing its verdict.

Criteria 8a (boundary vanishing of the level-1 cyclic trace over the
nontrivially graded 2x2 matrix algebra) and 8c (the literal value 6 on the
identity triple) are strict expected failures: for any functional of the
required shape (supertraces of permuted slot products), vanishing on the
boundaries of the graded algebra forces the even-slot weights to sum to
zero, while the value on the identity triple equals that same weight sum
times the Euler characteristic.  Both cannot hold at once; the frozen
normalization keeps the boundary property on evenly graded spaces and the
consistency identity 8b, and evaluates the identity triple to 3 (the
cyclic-orbit count) times the Euler characteristic.  See
/root/notes/decisions.md for the full analysis.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from homotrace.cli import main as cli_main
from homotrace.dgcore import (
    build_splitting_projector,
    cohomology,
    endomorphism_algebra,
)
from homotrace.glinalg import GradedVectorSpace, compose, exact_nullspace, \
    zeros_matrix
from homotrace.hochschild import (
    HochschildChain,
    chain_map_defect,
    hochschild_boundary,
)
from homotrace.instances import (
    random_instance,
    t1_instance,
    to_float_instance,
    torus_instance,
)
from homotrace.scalars import EXACT
from homotrace.traces import (
    antisymmetrized_supertrace,
    cyclic_trace,
    projected_supertrace,
    supertrace_on_cohomology,
    trace_defect,
    trace_functional,
    transferred_cyclic_trace,
    transferred_trace,
)
from homotrace.transfer import (
    ConfigurationPoint,
    Slot,
    ainfinity_defect,
    operator_form,
    transfer_closed,
    transfer_quadrature,
    transferred_morphism,
)

RANDOM_DIMS = [{0: 2, 1: 2}, {0: 1, 1: 2, 2: 1}, {0: 2, 1: 1, 2: 1},
               {-1: 1, 0: 2, 1: 1}, {0: 3, 1: 1}]


def _report(name, detail=""):
    print(f"{name} PASS {detail}".rstrip())


def test_criterion_1_ainfinity_relations_exact():
    """T1 plus 20 seeded random exact instances: coherence defect exactly
    zero for all arities <= 4, >= 200 sampled tuples each, under 60 s."""
    start = time.time()
    instances = [t1_instance()]
    for seed in range(1, 21):
        instances.append(random_instance(seed, RANDOM_DIMS[(seed - 1) % 5]))
    assert len(instances) == 21
    total = 0
    for idx, inst in enumerate(instances):
        f = transferred_morphism(inst.bundle, inst.splitting)
        rng = random.Random(idx)
        n = inst.bundle.algebra.n_basis
        count = 0
        for k in (1, 2, 3, 4):
            for _ in range(50):
                tup = [rng.randrange(n) for _ in range(k)]
                assert ainfinity_defect(f, tup).is_zero(), \
                    f"instance {idx}, tuple {tup}"
                count += 1
        assert count >= 200
        total += count
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    _report("AC1", f"({total} tuples over 21 instances in {elapsed:.1f}s)")


def test_criterion_2_quadrature_agrees_with_closed_form():
    """Float instances (module dimension <= 6): relative disagreement
    <= 1e-6 for arities 2 and 3 within the evaluation budget."""
    insts = [to_float_instance(t1_instance()),
             to_float_instance(random_instance(7, {0: 2, 1: 2})),
             to_float_instance(random_instance(13, {0: 1, 1: 2, 2: 1}))]
    worst = 0.0
    checked = 0
    for inst in insts:
        assert inst.bundle.space.total_dim <= 6
        alg = inst.bundle.algebra
        rng = random.Random(0)
        for k in (2, 3):
            seen = 0
            for _ in range(200):
                tup = [rng.randrange(alg.n_basis) for _ in range(k)]
                closed = transfer_closed(tup, inst.splitting, inst.bundle)
                if closed.max_abs() < 1e-9 and seen >= 2:
                    continue
                quad, _ = transfer_quadrature(tup, inst.splitting, inst.bundle,
                                              rel_tol=1e-8, budget=10 ** 6)
                rel = (quad - closed).max_abs() / (1.0 + closed.max_abs())
                assert rel <= 1e-6, f"rel {rel:.2e} on {tup}"
                worst = max(worst, rel)
                checked += 1
                seen += 1
                if seen >= 4:
                    break
    assert checked >= 12
    _report("AC2", f"(worst relative error {worst:.2e} over {checked} tuples)")


def test_criterion_3_trace_property():
    """Trace defect zero (exact) / <= 1e-8 (float) on >= 100 homogeneous
    chains per instance, tensor lengths <= 4."""
    cases = [("T1", t1_instance(), None),
             ("random", random_instance(4, {0: 2, 1: 2}), None),
             ("torus", torus_instance(1), 1e-8)]
    for name, inst, tol in cases:
        f = transferred_morphism(inst.bundle, inst.splitting)
        func = trace_functional(f)
        alg = inst.bundle.algebra
        rng = random.Random(17)
        tested = 0
        for _ in range(40000):
            k = rng.randint(2, 4)
            flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
            if sum(alg.basis_degree(x) for x in flats) != k - 2:
                continue
            val = trace_defect(HochschildChain.of(alg, flats), func)
            if tol is None:
                assert val == 0, f"{name}: defect {val} on {flats}"
            else:
                assert abs(complex(val)) <= tol
            tested += 1
            if tested >= 100:
                break
        assert tested >= 100, f"{name}: only {tested} chains sampled"
    _report("AC3", "(100 chains on each of T1, random, torus)")


def test_criterion_4_oracle_equivalence():
    """Transferred trace of every closed degree-0 basis operator equals the
    cohomological supertrace; the identity traces to the Euler number."""
    cases = [("T1", t1_instance(), None, 1),
             ("random", random_instance(9, {0: 2, 1: 2}), None, None),
             ("torus", torus_instance(1), 1e-8, 0)]
    for name, inst, tol, chi in cases:
        f = transferred_morphism(inst.bundle, inst.splitting)
        alg = inst.bundle.algebra
        coh = cohomology(inst.bundle.space, inst.bundle.q,
                         None if tol is None else 1e-10)
        checked = 0
        for k in range(alg.n_basis):
            if alg.basis_degree(k) != 0:
                continue
            if any(bool(x) for x in alg.diff_flat(k)):
                continue
            ups = transferred_trace(HochschildChain.of(alg, (k,)), f)
            ind = supertrace_on_cohomology(inst.bundle.rho_flat(k), coh)
            if tol is None:
                assert ups == ind
            else:
                assert abs(complex(ups) - complex(ind)) <= tol
            checked += 1
        assert checked >= 1
        ident = HochschildChain.zero(alg)
        for i, c in enumerate(alg.unit):
            ident.add_term((i,), c)
        ups_id = transferred_trace(ident, f)
        theta1 = projected_supertrace(inst.bundle.unit_map(), inst.splitting)
        if tol is None:
            assert ups_id == theta1 == coh.euler
        else:
            assert abs(complex(ups_id) - coh.euler) <= tol
            assert abs(complex(theta1) - coh.euler) <= tol
        if chi is not None:
            assert coh.euler == chi
    _report("AC4", "(T1: chi=1; torus: chi=0 exercised)")


def test_criterion_5_chain_map_property():
    """Push-forward commutes with the total differentials: lengths <= 4 on T1
    exactly, lengths <= 3 on the torus within 1e-8."""
    t1 = t1_instance()
    f1 = transferred_morphism(t1.bundle, t1.splitting)
    alg = t1.bundle.algebra
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 4)
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(k))
        rep = chain_map_defect(HochschildChain.of(alg, flats), f1)
        assert rep.passed, rep.defect.describe()
    tor = torus_instance(1)
    ft = transferred_morphism(tor.bundle, tor.splitting)
    talg = tor.bundle.algebra
    for _ in range(15):
        k = rng.randint(1, 3)
        flats = tuple(rng.randrange(talg.n_basis) for _ in range(k))
        rep = chain_map_defect(HochschildChain.of(talg, flats), ft, tol=1e-8)
        assert rep.passed
    _report("AC5", "(T1 exact length<=4; torus length<=3 at 1e-8)")


def test_criterion_6_homotopy_independence():
    """Four distinct valid splittings of T1 give identical transferred traces
    on >= 50 closed chains of length <= 3, exactly."""
    t1 = t1_instance()
    v, q = t1.bundle.space, t1.bundle.q
    alg = t1.bundle.algebra
    splittings = [t1.splitting] + [
        build_splitting_projector(v, q, shear_seed=i) for i in (1, 2, 3)]
    keys = set()
    for s in splittings:
        keys.add(str([s.pi0.block(0).tolist(), s.kappa.block(1).tolist()]))
    assert len(keys) >= 3, "need at least three distinct splittings"
    morphisms = [transferred_morphism(t1.bundle, s) for s in splittings]

    basis_tuples = [
        flats for k in (1, 2, 3) for flats in
        itertools.product(range(alg.n_basis), repeat=k)
        if sum(alg.basis_degree(x) for x in flats) == k - 1]
    rows, cols = {}, []
    for t in basis_tuples:
        img = hochschild_boundary(HochschildChain.of(alg, t))
        cols.append(img)
        for tt in img.terms:
            rows.setdefault(tt, len(rows))
    m = zeros_matrix(len(rows), len(basis_tuples), EXACT)
    for j, img in enumerate(cols):
        for tt, val in img.terms.items():
            m[rows[tt], j] = val
    null = exact_nullspace(m)
    rng = random.Random(29)
    agreed = 0
    for _ in range(50):
        chain = HochschildChain.zero(alg)
        for j in range(null.shape[1]):
            cj = Fraction(rng.randint(-2, 2))
            if not cj:
                continue
            for i, t in enumerate(basis_tuples):
                if null[i, j]:
                    chain.add_term(t, cj * null[i, j])
        vals = [transferred_trace(chain, f) for f in morphisms]
        assert all(x == vals[0] for x in vals)
        agreed += 1
    assert agreed == 50
    _report("AC6", f"(4 splittings, 50 closed chains, "
                   f"closed space dim {null.shape[1]})")


def test_criterion_7_boundary_stratum_limits():
    """Connection-form restrictions at gap eps and 1/eps match the merged and
    factorized forms within 1e-3 at eps = 1e-4, improving at first order."""
    inst = to_float_instance(t1_instance())
    alg = inst.bundle.algebra
    a1 = alg.flat_by_name("E[f<-e2]")
    a2 = alg.flat_by_name("E[e2<-f]")

    def diffs(eps):
        form = operator_form([a1, a2], ConfigurationPoint((eps,)),
                             inst.splitting, inst.bundle)
        merged = operator_form(
            [Slot(alg.basis_degree(a1) + alg.basis_degree(a2),
                  alg.mul_flat(a2, a1))],
            ConfigurationPoint(()), inst.splitting, inst.bundle)
        d_merge = (form.component(()) - merged.component(())).max_abs()
        form_inf = operator_form([a1, a2], ConfigurationPoint((1.0 / eps,)),
                                 inst.splitting, inst.bundle)
        fa = operator_form([a1], ConfigurationPoint(()), inst.splitting,
                           inst.bundle).component(())
        fb = operator_form([a2], ConfigurationPoint(()), inst.splitting,
                           inst.bundle).component(())
        d_split = (form_inf.component(()) - compose(fb, fa)).max_abs()
        return d_merge, d_split

    m3, s3 = diffs(1e-3)
    m4, s4 = diffs(1e-4)
    assert m4 <= 1e-3 and s4 <= 1e-3
    assert 5 <= m3 / m4 <= 20
    # arity three, merge stratum with a genuinely nonzero coefficient
    tup = (alg.flat_by_name("E[e1<-e2]"), alg.flat_by_name("E[f<-e1]"),
           alg.flat_by_name("E[e2<-e1]"))
    t2 = 0.9
    prev = None
    for eps in (1e-3, 1e-4):
        form = operator_form(list(tup), ConfigurationPoint((eps, t2)),
                             inst.splitting, inst.bundle)
        merged_slot = Slot(alg.basis_degree(tup[0]) + alg.basis_degree(tup[1]),
                           alg.mul_flat(tup[1], tup[0]))
        mform = operator_form([merged_slot, tup[2]], ConfigurationPoint((t2,)),
                              inst.splitting, inst.bundle)
        d = (form.component({1}) - mform.component({0})).max_abs()
        if eps == 1e-4:
            assert d <= 1e-3
            assert 5 <= prev / d <= 20
        prev = d
    _report("AC7", f"(arity 2: merge {m4:.1e}, split {s4:.1e} at eps=1e-4)")


def _graded_2x2():
    v = GradedVectorSpace.make({0: 1, 1: 1})
    return endomorphism_algebra(v, None, EXACT)


def _boundary_samples(endo, count, seed):
    alg = endo.algebra
    rng = random.Random(seed)
    out = []
    for _ in range(count * 60):
        flats = tuple(rng.randrange(alg.n_basis) for _ in range(4))
        if sum(alg.basis_degree(x) for x in flats) != 0:
            continue
        b = hochschild_boundary(HochschildChain.of(alg, flats))
        three = HochschildChain(
            alg, {t: v for t, v in b.terms.items() if len(t) == 3})
        out.append(three)
        if len(out) >= count:
            break
    return out


def test_criterion_8_cyclic_trace_on_even_boundaries():
    """The level-1 trace kills boundaries over the evenly graded 2x2 matrix
    algebra, brute force."""
    v = GradedVectorSpace.make({0: 2})
    endo = endomorphism_algebra(v, None, EXACT)
    for three in _boundary_samples(endo, 120, 31):
        assert cyclic_trace(three, endo, 1) == 0
    _report("AC8a-even", "(120 boundaries over End of a 2-dim even space)")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: over the (1|1)-graded 2x2 matrix algebra no "
    "supertrace-of-permuted-products functional with nonzero even-slot "
    "weight sum kills all boundaries (exact counterexamples below); the "
    "frozen normalization keeps the nonzero pairing required by the other "
    "half of this criterion")
def test_criterion_8_cyclic_trace_on_graded_boundaries():
    endo = _graded_2x2()
    for three in _boundary_samples(endo, 120, 31):
        assert cyclic_trace(three, endo, 1) == 0


def test_criterion_8_cyclic_pullback_consistency():
    """The level-1 pulled-back trace on the identity triple equals the
    cyclic-signed cohomological supertrace, exactly."""
    t1 = t1_instance()
    f = transferred_morphism(t1.bundle, t1.splitting)
    alg = t1.bundle.algebra
    coh = cohomology(t1.bundle.space, t1.bundle.q)
    ident = alg.unit
    ch3 = HochschildChain.zero(alg)
    nz = [i for i in range(alg.n_basis) if ident[i]]
    for i in nz:
        for j in nz:
            for k in nz:
                ch3.add_term((i, j, k), ident[i] * ident[j] * ident[k])
    lhs = transferred_cyclic_trace(ch3, f, 1)
    rhs = antisymmetrized_supertrace([t1.bundle.unit_map()] * 3, coh,
                                     q=t1.bundle.q)
    assert lhs == rhs == 3 * coh.euler
    _report("AC8b", f"(both sides equal {lhs} = 3*chi)")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the stated value 6 = 3! * chi requires even-slot "
    "weight sum 6, which is incompatible with boundary vanishing (see the "
    "module docstring); the frozen cyclic-orbit normalization gives 3 * chi")
def test_criterion_8_identity_triple_value_six():
    t1 = t1_instance()
    f = transferred_morphism(t1.bundle, t1.splitting)
    alg = t1.bundle.algebra
    ident = alg.unit
    ch3 = HochschildChain.zero(alg)
    nz = [i for i in range(alg.n_basis) if ident[i]]
    for i in nz:
        for j in nz:
            for k in nz:
                ch3.add_term((i, j, k), ident[i] * ident[j] * ident[k])
    assert transferred_cyclic_trace(ch3, f, 1) == 6


def test_criterion_9_reproducibility(tmp_path, capsys):
    """gen -> verify -> trace with a fixed seed produces byte-identical
    structured reports across two consecutive runs."""
    outputs = []
    for run_idx in (1, 2):
        workdir = tmp_path / f"run{run_idx}"
        workdir.mkdir()
        ipath = str(workdir / "instance.json")
        assert cli_main(["gen", "--kind", "random", "--seed", "11",
                         "--dims", "2,2", "-o", ipath, "--output",
                         "json"]) == 0
        gen_out = capsys.readouterr().out.replace(str(workdir), "WORK")
        assert cli_main(["verify", "--instance", ipath, "--seed", "7",
                         "--max-arity", "3", "--output", "json"]) == 0
        verify_out = capsys.readouterr().out
        cpath = workdir / "chains.json"
        cpath.write_text(json.dumps({
            "format": "homotrace-chains/1",
            "chains": [{"name": "identity",
                        "terms": [{"coeff": "1", "slots": ["Id"]}]}],
        }))
        assert cli_main(["trace", "--instance", ipath, "--chain", str(cpath),
                         "--cyclic", "1", "--output", "json"]) == 0
        trace_out = capsys.readouterr().out
        instance_bytes = (workdir / "instance.json").read_text()
        outputs.append((gen_out, instance_bytes, verify_out, trace_out))
    assert outputs[0] == outputs[1]
    _report("AC9", "(gen, verify, trace reports byte-identical)")
