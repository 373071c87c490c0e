#!/usr/bin/env python3
"""Benchmark of orlicz-lab, with timings corrected for host speed.

    python3 perfbench/run.py --workload exhibit|kernels|cli --seed N \\
        --seconds S --trace 0|1

Run from a checkout: the library is imported from ``src/`` next to this
directory, and the run fails when it is missing.  Each workload is a
closed loop with one client in one process (BLAS and OpenMP pinned to
one thread; ``cli`` runs one child at a time).  It sets up, runs whole
rounds of operations until ``--seconds`` have passed, checks every
output against :mod:`oracles`, and prints the raw figures and then, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  A record of
the run (every raw time and reference sample; the spans when traced) is
written under ``perfbench/runs/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
#: Fresh processes timed from spawn to the end of set-up, for ``setup_s``.
SETUP_PROBES = 5
#: Repeats of each interpreter start-up measurement in a traced run.
STARTUP_PROBES = 3

END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s",
              "latency_p50_ms": "ms", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "orlicz_functions.delta2_witnesses.calls": "count",
    "orlicz_functions.delta2_witnesses.ms": "ms",
    "orlicz_functions.conjugate.ms": "ms",
    "block_sequences.build_disjoint_sequence.ms": "ms",
    "counterexample.build_instance.ms": "ms",
    "counterexample.instance_from_json.ms": "ms",
    "counterexample.t_operator.calls": "count",
    "counterexample.t_operator.ms": "ms",
    "counterexample.membership.calls": "count",
    "counterexample.membership.ms": "ms",
    "counterexample.membership.nonmembers": "count",
    "counterexample.rho_c.calls": "count",
    "counterexample.rho_c.ms": "ms",
    "counterexample.rho_c.membership_calls": "count",
    "counterexample.weak_approx_select.ms": "ms",
    "counterexample.gap_exhibit.linprog_calls": "count",
    "finite_model.pairing.calls": "count",
    "finite_model.pairing.ms": "ms",
    **{f"{site}.linprog.{what}": unit
       for site in ("counterexample", "closure_lab", "duality")
       for what, unit in (("calls", "count"), ("ms", "ms"), ("rows", "count"),
                          ("cols", "count"))},
    "norms.luxemburg_norm.calls": "count",
    "norms.luxemburg_norm.ms": "ms",
    "norms.orlicz_norm.calls": "count",
    "norms.orlicz_norm.ms": "ms",
    "norms.modular.calls": "count",
    "closure_lab.split_with_budget.ms": "ms",
    "closure_lab.mazur_min_norm.ms": "ms",
    "closure_lab.mazur_min_norm.luxemburg_calls": "count",
    "closure_lab.mazur_min_norm.qp_excess": "ratio",
    "closure_lab.order_dominator.ms": "ms",
    "risk_measures.avar_scenarios.ms": "ms",
    "risk_measures.avar_scenarios.vertices": "count",
    "risk_measures.scenario_eval.ms": "ms",
    "duality.conjugate_rho.calls": "count",
    "duality.conjugate_rho.ms": "ms",
    "cli.interpreter.ms": "ms",
    "cli.import.ms": "ms",
    "cli.import_scipy_optimize.ms": "ms",
    "cli.run.ms": "ms",
    "trace.overhead_pct": "%",
}
#: Counts given per call (an LP's size); the others are per operation.
PER_CALL = ("rows", "cols")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exhibit", "kernels", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="DIR",
                        help="set up in DIR, print 'ready' and exit (for setup_s)")
    return parser.parse_args(argv)


def attempt(op):
    """Run one operation; returns ``(seconds, output, error)``."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # the benchmark keeps running and reports the failure
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


def verdict(op, out, error, tally):
    """Check one output; updates ``tally`` and returns the check's extras."""
    extras = None
    if error is None:
        try:
            extras = op.check(out)
        except Exception:
            error = traceback.format_exc()
    tally["attempted"] += 1
    if error is not None:
        tally["failed"] += 1
        if not op.known_fault:
            tally["correct"] = False
            print(f"{op.label}: {error.strip().splitlines()[-1]}", file=sys.stderr)
        tally.setdefault("faults", {}).setdefault(op.label, error.strip().splitlines()[-1])
    return extras or {}


def measure_setup(workload, seed, workdir, ref):
    """Median host-corrected time from spawning a fresh interpreter to the
    end of the workload's set-up (import and input generation)."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--probe", str(probe_dir)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        ref.sample()
        times.append((t1 - t0, t1))
    return times


def timed_run(workload, seconds, ref, tally):
    records = []
    ref.sample()
    begin = time.perf_counter()
    k = 0
    while True:
        for op in workload.operations(k, workload.POOL):
            raw, out, error = attempt(op)
            t_end = time.perf_counter()
            ref.sample()
            verdict(op, out, error, tally)
            records.append({"label": op.label, "raw_s": raw, "t_end": t_end})
        k += 1
        if time.perf_counter() - begin >= seconds:
            return records


def traced_run(workload, seconds, ref, tally, tracer):
    """Whole rounds of the trace pool; every operation runs untraced and
    then traced, so the two can be compared for the tracing overhead."""
    records, extras = [], []
    ref.sample()
    begin = time.perf_counter()
    k = 0
    while True:
        for op in workload.operations(k, workload.TRACE_POOL):
            for traced in (False, True):
                op_id = len(records)
                with (tracer.installed(op_id) if traced else contextlib.nullcontext()):
                    raw, out, error = attempt(op)
                t_end = time.perf_counter()
                ref.sample()
                extra = verdict(op, out, error, tally)
                if traced:
                    extras.append(extra)
                records.append({"label": op.label, "raw_s": raw, "t_end": t_end,
                                "traced": traced})
        k += 1
        if k % workload.TRACE_POOL == 0 and time.perf_counter() - begin >= seconds:
            return records, extras


def startup_probes(ref):
    """Interpreter start, ``import orlicz_lab`` and its ``scipy.optimize``
    share (from ``-X importtime``), each the median of fresh processes."""
    from workloads import child_env

    env = child_env(SRC)
    timer = "import time; t = time.perf_counter(); import orlicz_lab; " \
            "print(time.perf_counter() - t)"
    found = {"cli.interpreter.ms": [], "cli.import.ms": [],
             "cli.import_scipy_optimize.ms": []}
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        t1 = time.perf_counter()
        ref.sample()
        found["cli.interpreter.ms"].append(1e3 * (t1 - t0) * ref.factor(t1))
        out = subprocess.run([sys.executable, "-c", timer], env=env, check=True,
                             capture_output=True, text=True)
        t1 = time.perf_counter()
        ref.sample()
        found["cli.import.ms"].append(1e3 * float(out.stdout) * ref.factor(t1))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import orlicz_lab"], env=env, check=True,
                             capture_output=True, text=True)
        t1 = time.perf_counter()
        ref.sample()
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+scipy\.optimize$",
                          out.stderr, re.M)
        found["cli.import_scipy_optimize.ms"].append(
            1e-3 * int(match.group(1)) * ref.factor(t1))
    return {name: statistics.median(v) for name, v in found.items()}


def layer_metrics(records, extras, tracer, ref):
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    scale = {i: ref.factor(r["t_end"]) for i, r in enumerate(records)}
    totals = tracer.layer_totals(scale)
    out = {}
    for name in PER_LAYER:
        key, what = name.rsplit(".", 1)
        if what in PER_CALL:
            calls = totals.get(f"{key}.calls", 0)
            out[name] = totals.get(name, 0) / calls if calls else 0.0
        else:
            out[name] = totals.get(name, 0) / n
    for name in {k for e in extras for k in e}:
        out[name] = statistics.fmean(e[name] for e in extras if name in e)

    def corrected_p50(flag):
        return statistics.median(r["raw_s"] * scale[i] for i, r in enumerate(records)
                                 if r["traced"] == flag)

    out["trace.overhead_pct"] = 100.0 * (corrected_p50(True) / corrected_p50(False) - 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orlicz_lab" / "__init__.py").is_file():
        print(f"run.py: no orlicz_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.probe:
        cls(args.seed, Path(args.probe))
        print("ready", flush=True)
        return 0
    # imported after the probe's exit, so that set-up time never includes
    # the reference's own scipy.optimize import
    from hostref import HostReference
    from tracing import Tracer

    # one core for the run and its children, so that the reference samples
    # the core the operations ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    tally = {"correct": True, "attempted": 0, "failed": 0}
    ref = HostReference()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    try:
        workload = cls(args.seed, workdir, in_process=bool(args.trace))
        if args.trace:
            tracer = Tracer()
            records, extras = traced_run(workload, args.seconds, ref, tally, tracer)
            metrics = layer_metrics(records, extras, tracer, ref)
            metrics.update(startup_probes(ref))
            units = PER_LAYER
            stem = f"{args.workload}-seed{args.seed}-trace"
            with open(RUNS / f"{stem}.spans.jsonl", "w") as fh:
                tracer.dump(fh)
        else:
            setup = measure_setup(args.workload, args.seed, workdir, ref)
            records = timed_run(workload, args.seconds, ref, tally)
            corrected = [r["raw_s"] * ref.factor(r["t_end"]) for r in records]
            metrics = {
                "setup_s": statistics.median(s * ref.factor(t) for s, t in setup),
                "throughput_ops_s": len(records) / sum(corrected),
                "latency_p50_ms": 1e3 * statistics.median(corrected),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            raw = [r["raw_s"] for r in records]
            record["raw"] = {
                "setup_s": statistics.median(s for s, _ in setup),
                "throughput_ops_s": len(raw) / sum(raw),
                "latency_p50_ms": 1e3 * statistics.median(raw),
            }
            if len(raw) >= 100:
                record["raw"]["latency_p90_ms"] = \
                    1e3 * statistics.quantiles(raw, n=10)[-1]
                record["latency_p90_ms"] = \
                    1e3 * statistics.quantiles(corrected, n=10)[-1]
            record["setup_probes"] = setup
            units = END_TO_END
            stem = f"{args.workload}-seed{args.seed}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(tally, metrics=metrics, ops=records,
                  reference_ms=ref.median_ms(), reference_ends=ref.ends,
                  reference_samples=ref.seconds)
    with open(RUNS / f"{stem}.json", "w") as fh:
        json.dump(record, fh)
    if "raw" in record:
        print("raw (uncorrected): " + ", ".join(
            f"{k}={v:.6g}" for k, v in record["raw"].items()))
    print(f"reference median {ref.median_ms():.3f} ms over {len(ref.seconds)} samples; "
          f"{len(records)} operations; faults: {tally.get('faults', {})}")
    print(json.dumps({
        "correct": tally["correct"], "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
