"""Workloads of the homotrace benchmark: seeded inputs, timed operations and
the checks on every output.

Instance specs are fixed per workload; the seed drives ``verify --seed``,
chain generation and the quadrature tuple sample.  The seed does not pick
random instances, because their build time swings by more than 100x between
seeds of the same dimensions.

Everything in the package is called through its module attribute
(``instances.random_instance``, ``cli.main``...), so the per-layer tracer can
wrap it where callers look it up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from homotrace import cli, instances, serialize, traces, transfer
from homotrace.errors import HomotraceError
from homotrace.scalars import DEFAULT_TOL, EXACT, GaussianRational, decode_value

VERIFY_ARGS = ("--max-arity", "4", "--output", "json")
TRACE_ARGS = ("--cyclic", "1", "--output", "json")
CYCLIC_LEVEL = 1
QUAD_REL_TOL = 1e-9       # asked of transfer_quadrature
QUAD_CHECK_TOL = 1e-8     # allowed distance from transfer_closed, relative
NONZERO = 1e-6            # closed-form size that is clear of float round-off
RANDOM_SAMPLE = 4         # seeded tuples per arity from the random instance
CHAINS = 3                # chains per file
TERMS_PER_LENGTH = 2      # terms of each length 1-3 with degree = slots - 1
CYCLIC_TERMS = 2          # length-3 terms of degree 0 per chain


@dataclass
class Op:
    """One timed operation of a pass, with its checked outcome."""

    kind: str             # "verify" | "trace" | "quad"
    label: str
    start: float          # time.perf_counter() around the call
    end: float
    failed: bool
    wrong: bool = False   # an output that disagrees with its reference
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Inputs:
    """What one set-up writes and keeps: files on disk and the references."""

    files: list = field(default_factory=list)    # CliFile
    sample: list = field(default_factory=list)   # QuadTuple
    counts: dict = field(default_factory=dict)   # deterministic counts


@dataclass
class CliFile:
    label: str
    instance_path: str
    chain_path: str
    instance: object
    references: list = field(default_factory=list)  # (name, value, cyclic)


@dataclass
class QuadTuple:
    label: str
    instance: object
    flats: tuple
    closed: object


# ---------------------------------------------------------------------------
# Instance specs (fixed) and deterministic counts


def _t1():
    return instances.t1_instance()


def _r11():
    return instances.random_instance(11, {0: 2, 1: 3, 2: 2})


def _m32():
    # `gen --dims` can only give Q = 0, where every higher component vanishes
    return instances.matrix_instance({0: 3, 1: 2},
                                     q_entries=[("d0_0", "d1_0", 1)])


def _r7():
    return instances.random_instance(7, {0: 2, 1: 2})


def _torus2():
    # `gen --kind torus --N 2`; the dim-64 module cap allows no N = 3
    return instances.torus_instance(2, (Fraction(0), Fraction(1)))


def _coeff_bits(x) -> int:
    if isinstance(x, GaussianRational):
        return max(_coeff_bits(x.re), _coeff_bits(x.im))
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


def max_coeff_bits(inst) -> int:
    """Largest numerator/denominator size among the structure constants."""
    a = inst.bundle.algebra
    return max((_coeff_bits(x) for row in a.mul for vec in row for x in vec),
               default=0)


def _add_counts(counts: dict, inst, exact_source=None) -> None:
    src = exact_source if exact_source is not None else inst
    counts["instances.max_coeff_bits"] = max(
        counts.get("instances.max_coeff_bits", 0), max_coeff_bits(src))
    counts["instances.algebra_dim"] = (counts.get("instances.algebra_dim", 0)
                                       + inst.bundle.algebra.n_basis)
    counts["instances.h_dim"] = (counts.get("instances.h_dim", 0)
                                 + inst.splitting.m0.total_dim)


# ---------------------------------------------------------------------------
# Seeded chain files


def _tuples_of_degree(alg, length: int, degree: int) -> list[tuple]:
    degs = [alg.basis_degree(k) for k in range(alg.n_basis)]
    return [t for t in itertools.product(range(alg.n_basis), repeat=length)
            if sum(degs[k] for k in t) == degree]


def make_chains(inst, rng: random.Random) -> list:
    """Chains whose terms have internal degree = slots - 1, the only terms
    ``transferred_trace`` keeps, plus length-3 terms of degree 0 that the
    level-1 cyclic trace evaluates."""
    alg = inst.bundle.algebra
    pools = [_tuples_of_degree(alg, length, length - 1) for length in (1, 2, 3)]
    pools.append(_tuples_of_degree(alg, 3, 0))
    chains = []
    for c in range(CHAINS):
        terms = []
        for pool, count in zip(pools, (TERMS_PER_LENGTH,) * 3
                               + (CYCLIC_TERMS,)):
            for flats in (rng.sample(pool, count) if len(pool) >= count
                          else pool):
                coeff = Fraction(rng.choice((-2, -1, 1, 2, 3)))
                terms.append((coeff, [alg.basis_name(k) for k in flats]))
        chains.append((f"chain{c}", terms))
    return chains


def _cli_setup(specs, seed: int, workdir: str) -> Inputs:
    out = Inputs()
    for label, build, as_float in specs:
        inst = build()
        source = None
        if as_float:
            source, inst = inst, instances.to_float_instance(inst)
        _add_counts(out.counts, inst, source)
        ipath = os.path.join(workdir, f"{label}.json")
        cpath = os.path.join(workdir, f"{label}.chains.json")
        serialize.save_instance(inst, ipath)
        chains = make_chains(inst, random.Random(f"{seed}:{label}"))
        with open(cpath, "w", encoding="utf-8") as fh:
            json.dump(serialize.chains_to_dict(chains), fh, sort_keys=True)
        out.files.append(CliFile(label, ipath, cpath, inst))
    return out


def _cli_references(inputs: Inputs) -> None:
    """Trace values from the in-memory instances, for the file-based runs."""
    for fi in inputs.files:
        f = transfer.transferred_morphism(fi.instance.bundle,
                                          fi.instance.splitting)
        for name, chain in serialize.load_chains(fi.chain_path, fi.instance):
            fi.references.append(
                (name, traces.transferred_trace(chain, f),
                 traces.transferred_cyclic_trace(chain, f, CYCLIC_LEVEL)))


# ---------------------------------------------------------------------------
# Quadrature tuple sample


def _nonzero_tuples(inst, arity: int) -> list:
    out = []
    n = inst.bundle.algebra.n_basis
    for flats in itertools.product(range(n), repeat=arity):
        closed = transfer.transfer_closed(list(flats), inst.splitting,
                                          inst.bundle)
        if closed.max_abs() > NONZERO:
            out.append((flats, closed))
    return out


def _quad_setup(seed: int, workdir: str) -> Inputs:
    out = Inputs()
    t1 = _t1()
    t1f = instances.to_float_instance(t1)
    r7 = _r7()
    r7f = instances.to_float_instance(r7)
    _add_counts(out.counts, t1f, t1)
    _add_counts(out.counts, r7f, r7)
    # every nonzero arity-3 tuple of T1: the deep-refinement case
    for flats, closed in _nonzero_tuples(t1f, 3):
        out.sample.append(QuadTuple("t1f", t1f, flats, closed))
    rng = random.Random(seed)
    for arity in (2, 3):
        pool = _nonzero_tuples(r7f, arity)
        for flats, closed in rng.sample(pool, min(RANDOM_SAMPLE, len(pool))):
            out.sample.append(QuadTuple("r7f", r7f, flats, closed))
    with open(os.path.join(workdir, "sample.json"), "w",
              encoding="utf-8") as fh:
        json.dump([[q.label, list(q.flats)] for q in out.sample], fh)
    return out


# ---------------------------------------------------------------------------
# Timed operations and their checks


def _run_cli(argv: list[str]) -> tuple[float, float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
    return start, end, rc, out.getvalue(), err.getvalue()


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def verify_op(fi: CliFile, seed: int) -> Op:
    start, end, rc, out, err = _run_cli(
        ["verify", "--instance", fi.instance_path, "--seed", str(seed),
         *VERIFY_ARGS])
    op = Op("verify", fi.label, start, end, failed=rc != 0)
    try:
        report = _last_json(out)
    except json.JSONDecodeError:
        report = None
    if report is None:
        op.failed = True
        op.detail = f"exit {rc}: {err.strip()[:200]}"
        return op
    bad = [c["name"] for c in report["checks"] if c["passed"] is False]
    if bad:
        op.failed = True
        op.detail = "FAIL " + ", ".join(bad)
    return op


def _same(value, ref, mode: str) -> bool:
    if mode == EXACT:
        return value == ref
    return abs(complex(value) - complex(ref)) <= DEFAULT_TOL * (
        1.0 + abs(complex(ref)))


def trace_op(fi: CliFile) -> Op:
    start, end, rc, out, err = _run_cli(
        ["trace", "--instance", fi.instance_path, "--chain", fi.chain_path,
         *TRACE_ARGS])
    op = Op("trace", fi.label, start, end, failed=rc != 0)
    try:
        report = _last_json(out)
    except json.JSONDecodeError:
        report = None
    if rc != 0 or report is None:
        op.failed = True
        op.detail = f"exit {rc}: {err.strip()[:200]}"
        return op
    mode = fi.instance.mode
    got = {r["chain"]: r for r in report["results"]}
    for name, ref, ref_cyclic in fi.references:
        r = got.get(name)
        if r is None or not (
                _same(decode_value(r["value"], mode), ref, mode)
                and _same(decode_value(r["cyclic_value"], mode), ref_cyclic,
                          mode)):
            op.failed = op.wrong = True
            op.detail = f"{name}: value differs from the reference"
    return op


def quad_op(q: QuadTuple) -> Op:
    inst = q.instance
    label = f"{q.label}{q.flats}"
    start = time.perf_counter()
    try:
        value, _ = transfer.transfer_quadrature(
            list(q.flats), inst.splitting, inst.bundle, rel_tol=QUAD_REL_TOL)
    except HomotraceError as exc:
        return Op("quad", label, start, time.perf_counter(), failed=True,
                  detail=f"{type(exc).__name__}: {exc}")
    op = Op("quad", label, start, time.perf_counter(), failed=False)
    rel = (value - q.closed).max_abs() / q.closed.max_abs()
    if rel > QUAD_CHECK_TOL:
        op.failed = op.wrong = True
        op.detail = f"relative distance {rel:.3e} from the closed form"
    return op


# ---------------------------------------------------------------------------
# The workloads


@dataclass(frozen=True)
class Workload:
    """A named set of inputs: CLI files from ``specs``, or the quadrature
    tuple sample.  Why each was chosen is in BENCHMARK.json."""

    name: str
    specs: tuple = ()     # (file label, instance factory, to float?)
    quadrature: bool = False

    def setup(self, seed: int, workdir: str) -> Inputs:
        if self.quadrature:
            return _quad_setup(seed, workdir)
        return _cli_setup(self.specs, seed, workdir)

    def references(self, inputs: Inputs) -> None:
        if not self.quadrature:
            _cli_references(inputs)

    def operations(self, inputs: Inputs, seed: int) -> list:
        """One pass over the inputs, as (kind, label, call) triples; each
        call runs one operation and returns its checked ``Op``."""
        if self.quadrature:
            return [("quad", f"{q.label}{q.flats}", lambda q=q: quad_op(q))
                    for q in inputs.sample]
        return ([("verify", fi.label, lambda fi=fi: verify_op(fi, seed))
                 for fi in inputs.files]
                + [("trace", fi.label, lambda fi=fi: trace_op(fi))
                   for fi in inputs.files])


WORKLOADS = {w.name: w for w in (
    # exact elimination, Fraction validation, closed-form transfer and the
    # push-forward do the work; quadrature is idle
    Workload("exact-cli", specs=(("t1", _t1, False), ("r11", _r11, False),
                                 ("m32", _m32, False))),
    # the same CLI path in complex doubles: lstsq re-expansion on load, float
    # validation and the quadrature check carry the load
    Workload("float-cli", specs=(("torus2", _torus2, False),
                                 ("t1f", _t1, True), ("r7f", _r7, True))),
    # quadrature and the propagator do nearly all the work; exact elimination
    # is idle
    Workload("float-quadrature", quadrature=True),
)}
