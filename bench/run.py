"""The homotrace benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact-cli --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and writes its inputs under ``.bench_work/``.  One process, one thread,
closed loop with one caller: each operation starts when the previous one
has returned.  The run sets up the workload's inputs several times (the
median is ``setup_s``), computes reference values from the in-memory
instances, then repeats passes over the inputs until ``--seconds`` have
been measured (``pass_s`` is the median pass).  Every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run sets up once and makes
one untraced and two traced passes, and reports the per-layer metrics
(set-up plus the first traced pass), the tracing overhead, and whether the
deterministic counts repeated between the two traced passes.

End-to-end timings are normalised to a fixed machine speed (see
``speed.py``); the human-readable lines also give the raw wall times.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

MIN_SETUPS = 3
MAX_SETUPS = 10
SETUP_SECONDS = 2.0   # keep setting up until this much set-up time is seen
TRACED_PASSES = 2


def summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(values)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f}"
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        text += f"  p{p} {xs[max(0, math.ceil(p * n / 100) - 1)]:.4f}"
    else:
        text += "  (no percentile has 10 samples beyond it)"
    return text + f"  n={n}"


def check_against_spec(spec: dict, metrics: dict, traced: bool) -> None:
    """The metrics printed must be exactly those BENCHMARK.json lists."""
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {k: v["unit"] for k, v in metrics.items()}
    if listed != printed:
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(listed) - set(printed))}, not listed "
            f"{sorted(set(printed) - set(listed))}, or units differ")


def import_package(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homotrace", "__init__.py")):
        raise SystemExit("error: no src/homotrace here; run the benchmark "
                         "from the root of a homotrace checkout")
    sys.path.insert(0, src)
    import homotrace
    if os.path.dirname(os.path.dirname(os.path.abspath(homotrace.__file__))) \
            != src:
        raise SystemExit(f"error: homotrace imported from {homotrace.__file__}"
                         f", not from {src}")


def measure(w, seed: int, seconds: float, tracer, workdir: str) -> dict:
    """Set up, compute references and run passes; returns what was seen.

    ``setups`` holds (start, end) of each set-up, ``passes`` the checked
    operations of each pass and, when traced, ``snapshots`` the tracer's
    (table, counts, span count) after each pass.
    """
    traced = tracer is not None
    got = {"setups": [], "passes": [], "snapshots": [], "problems": []}
    setups = got["setups"]

    def enough_setups():
        if traced:
            return len(setups) >= 1
        return len(setups) >= MIN_SETUPS and (
            sum(end - start for start, end in setups) >= SETUP_SECONDS
            or len(setups) >= MAX_SETUPS)

    if traced:
        tracer.enabled = True
    inputs = None
    while not enough_setups():
        d = os.path.join(workdir, f"setup{len(setups)}")
        os.makedirs(d)
        start = time.perf_counter()
        new = w.setup(seed, d)
        setups.append((start, time.perf_counter()))
        if inputs is not None and new.counts != inputs.counts:
            got["problems"].append(f"set-up counts differ: {inputs.counts} "
                                   f"vs {new.counts}")
        inputs = new
    got["inputs"] = inputs
    if traced:
        tracer.enabled = False
    w.references(inputs)

    min_passes = 1 + TRACED_PASSES if traced else 1
    measure_start = time.perf_counter()
    while (len(got["passes"]) < min_passes
           or time.perf_counter() - measure_start < seconds):
        i = len(got["passes"])
        if traced:
            tracer.enabled = i >= 1
        ops = []
        for kind, label, call in w.operations(inputs, seed):
            if traced:
                tracer.op = f"pass{i}:{kind}:{label}"
            ops.append(call())
        got["passes"].append(ops)
        if traced:
            tracer.enabled = False
            got["snapshots"].append((tracer.table(), dict(tracer.counts),
                                     len(tracer.spans)))
    return got


def traced_metrics(tracer, got: dict, pass_s: list[float]) -> tuple:
    """Per-layer metrics of set-up plus the first traced pass, and the
    problems found when the second traced pass repeats its counts."""
    from tracing import layer_metrics, per_layer_spec, sub_table

    (table0, counts0, _), (table1, counts1, n_spans), (table2, counts2, _) = \
        got["snapshots"][:3]
    problems = []
    calls1 = {k: v[0] for k, v in sub_table(table1, table0).items() if v[0]}
    calls2 = {k: v[0] for k, v in sub_table(table2, table1).items() if v[0]}
    c1 = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
    c2 = {k: v - counts1.get(k, 0) for k, v in counts2.items()}
    if calls1 != calls2 or c1 != c2:
        problems.append("deterministic counts differ between the two "
                        "traced passes")
    overhead = statistics.mean(pass_s[1:1 + TRACED_PASSES]) - pass_s[0]
    values = layer_metrics(tracer, table1, counts1, got["inputs"].counts,
                           overhead, pass_s[0], n_spans)
    units = {name: unit for name, unit, _ in per_layer_spec()}
    print(f"tracing overhead {overhead:.3f} s on an untraced pass of "
          f"{pass_s[0]:.3f} s; {n_spans} spans in set-up and pass 1")
    return ({k: {"value": v, "unit": units[k]} for k, v in values.items()},
            problems)


def run(args) -> dict:
    root = os.getcwd()
    import_package(root)
    from speed import SpeedClock
    from tracing import Tracer
    from workloads import WORKLOADS

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    traced = args.trace == 1
    run_id = f"{w.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    base = os.path.join(root, ".bench_work")
    workdir = os.path.join(base, run_id)
    os.makedirs(workdir)
    tracer = Tracer(run_id) if traced else None
    with SpeedClock() as clock:
        try:
            if traced:
                tracer.install()
            got = measure(w, args.seed, args.seconds, tracer, workdir)
        finally:
            if traced:
                tracer.enabled = False
                tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)

    passes = got["passes"]
    all_ops = [op for ops in passes for op in ops]
    failed = [op for op in all_ops if op.failed]
    norm = {id(op): clock.normalised(op.start, op.end) for op in all_ops}
    setup_s = [clock.normalised(start, end) for start, end in got["setups"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def per_pass(seconds_of, kind=None):
        return [sum(seconds_of(op) for op in ops
                    if kind is None or op.kind == kind) for ops in passes]

    pass_s = per_pass(lambda op: norm[id(op)])
    why = {x["name"]: x["why"] for x in spec["workloads"]}.get(w.name, "")
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(setup_s)} set-ups  {len(passes)} passes")
    print(f"why: {why}")
    print("timings in normalised seconds (raw wall seconds in brackets)")
    rows = [("setup_s", setup_s,
             [end - start for start, end in got["setups"]])]
    for kind in sorted({op.kind for op in passes[0]}):
        rows.append((f"{kind}_s", per_pass(lambda op: norm[id(op)], kind),
                     per_pass(lambda op: op.seconds, kind)))
    rows.append(("pass_s", pass_s, per_pass(lambda op: op.seconds)))
    for name, values, raw in rows:
        print(f"{name:12s}{summary(values)} s  "
              f"[median {statistics.median(raw):.4f}]")
    if traced:
        print("  (pass 0 untraced, the rest traced)")
    print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"failed_ops  {len(failed)} / ops {len(all_ops)}")
    for detail in sorted({f"{op.kind} {op.label}: {op.detail}"
                          for op in failed}):
        print(f"  failed {detail}")

    problems = got["problems"]
    if traced:
        metrics, more = traced_metrics(tracer, got, pass_s)
        problems += more
        spans_path = os.path.join(base, f"spans-{w.name}.jsonl")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, root)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}")
    check_against_spec(spec, metrics, traced)
    return {"correct": not problems and not any(op.wrong for op in all_ops),
            "attempted": len(all_ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    print(json.dumps(run(p.parse_args(argv)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
