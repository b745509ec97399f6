#!/usr/bin/env python3
"""prunekv benchmark: long decode, eval sweep and mask training.

Run from the repository root:

    python3 benchmarks/run.py --workload decode_long --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another, each in a
process of its own, so each workload's `peak_rss_mb` is its own. Each run
sets its workload up several times (`setup_s` is the median), does the
workload's untimed warm-up, then makes rounds of a fixed amount of work for
about `--seconds` (at least the workload's `min_rounds`), then checks the
outputs outside the timed region. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` one round runs
untraced, the rest traced, and the metrics are the per-layer ones plus the
tracing overhead: the cost of one recorded span, measured on a wrapped
no-op, times the spans of a round, as a share of the untraced round. (One
traced round against one untraced round mostly measures the machine's
swings in speed; that ratio is printed as `trace.overhead_frac.direct`.)
The lines above the JSON object name every measured figure with its unit
and record the machine, with the BLAS thread count, which the benchmark
leaves at the library's default. `--tiny` shrinks every workload for the
smoke test.

End-to-end metrics, measured per workload:
  round_s      median wall time of one round of the workload's fixed work
  op_ms        median over the run's rounds of the round's mean time of the
               workload's unit of work: one decode step (decode_long), one
               request, i.e. greedy_decode of one sample in one mode
               (eval_sweep), one pretraining step (train_mask). A median of
               single steps would not do: a shared machine switches between
               speeds for seconds at a time, and such a median jumps with
               whichever speed held the larger share of a run.
  peak_rss_mb  peak resident memory of the workload's process up to the end
               of the timed rounds (set-ups included, checks not)
  setup_s      median time to build the workload's inputs and files
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("decode_long", "eval_sweep", "train_mask")
SETUPS = 15

# Span names: `<span>_ms` is mean self time per call, `<span>_calls` is calls
# per traced round.
SPAN_METRICS = [
    "cache.decode_step", "cache.np_forward", "cache.partition",
    "analysis.static_norm_mask", "analysis.dynamic_norm_mask", "analysis.high_freq_ratio",
    "storage.load", "storage.save", "tasks.generate", "model.forward",
    "autodiff.backward", "autodiff.adam", "masking.top_s_r",
]
KEEP_TAGS = ("k100", "k050", "k025")


def per_layer_units():
    units = {}
    for span in SPAN_METRICS:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_calls"] = "count"
    for tag in KEEP_TAGS:
        units[f"cache.decode_step_ms.{tag}"] = "ms"
        units[f"cache.kv_bytes_per_token.{tag}"] = "B/token"
    units["cache.migrate_ms"] = "ms"
    units["cache.migrations"] = "count"
    for tag in KEEP_TAGS[1:]:
        units[f"cache.k_reduction_fraction.{tag}"] = "fraction"
        units[f"cache.streaming_heads.{tag}"] = "count"
    units["masking.tokens_per_step"] = "count"
    units["trace.overhead_frac"] = "fraction"
    units["trace.spans_per_round"] = "count"
    return units


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "processes": 1}


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, tracer, seconds, min_rounds):
    """Round times; as many rounds as the first round's time fits into `seconds`."""
    times = []
    while True:
        t0 = time.perf_counter()
        workload.run_round(tracer)
        times.append(time.perf_counter() - t0)
        if len(times) >= max(min_rounds, int(seconds // times[0])):
            return times


def layer_metrics(workload, tracer, since, traced_rounds, untraced_times):
    import spans
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    selfs = tracer.self_times(since)
    for span in SPAN_METRICS:
        calls, total = selfs.get(span, (0, 0.0))
        values[f"{span}_ms"] = total / calls * 1e3 if calls else 0.0
        values[f"{span}_calls"] = calls / traced_rounds
    for tag in KEEP_TAGS:
        calls, total = tracer.self_times(since, request_prefix=tag).get("cache.decode_step", (0, 0.0))
        values[f"cache.decode_step_ms.{tag}"] = total / calls * 1e3 if calls else 0.0
    counters = workload.counters()
    values.update(counters)
    migrations = counters.get("cache.migrations", 0) * traced_rounds
    # idle calls (nothing to move yet) are recorded under another name
    migrate_self = selfs.get("cache.migrate_window", (0, 0.0))[1]
    values["cache.migrate_ms"] = migrate_self / migrations * 1e3 if migrations else 0.0
    values["trace.spans_per_round"] = (len(tracer) - since) / traced_rounds
    values["trace.overhead_frac"] = (spans.span_cost() * values["trace.spans_per_round"]
                                     / statistics.median(untraced_times))
    return {name: (values[name], units[name]) for name in units}


def run_workload(name, seed, seconds, trace, tiny, workdir):
    import spans
    from workloads import WORKLOADS

    setup_times = []
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, tiny, workdir)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    workload.warm_up()

    tracer = spans.Tracer()
    tracer.install(spans.REQUEST_TARGETS)
    try:
        if trace:
            untraced = run_rounds(workload, tracer, 0, 1)
            since = len(tracer)
            tracer.install(spans.LAYER_TARGETS)
            traced = run_rounds(workload, tracer, max(0.0, seconds - sum(untraced)),
                                max(1, workload.min_rounds - 1))
        else:
            untraced = run_rounds(workload, tracer, seconds, workload.min_rounds)
    finally:
        tracer.uninstall()
    rss = peak_rss_mb()

    t0 = time.perf_counter()
    try:
        checks = workload.check()
    except Exception as e:  # a malformed output fails the run's checks, not the run
        traceback.print_exc()
        checks = [("outputs checkable", False, repr(e))]
    check_s = time.perf_counter() - t0
    failed = [c for c in checks if not c[1]]
    result = {"attempted": len(checks), "failed": len(failed), "checks": checks,
              "lengths": workload.lengths}
    op_means, named = workload.summary(tracer, untraced)
    op_ms = statistics.median(op_means)
    named.update({"peak_rss_mb": (rss, "MB"), "setup_s": (statistics.median(setup_times), "s"),
                  "error_rate": (len(failed) / len(checks), "ratio"), "checks_s": (check_s, "s")})
    result["named"] = named
    if trace:
        result["metrics"] = layer_metrics(workload, tracer, since, len(traced), untraced)
        named["trace.overhead_frac.direct"] = (statistics.median(traced)
                                               / statistics.median(untraced) - 1.0, "fraction")
    else:
        result["metrics"] = {"round_s": (statistics.median(untraced), "s"),
                             "op_ms": (op_ms, "ms"),
                             "peak_rss_mb": (rss, "MB"),
                             "setup_s": (statistics.median(setup_times), "s")}
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args):
    """Each workload in a child process, one after another; their results merged."""
    totals = {"attempted": 0, "failed": 0}
    metrics = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd + ["--tiny"] * args.tiny, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0:
            return out.returncode
        res = json.loads(lines[-1])
        for metric, value in res["metrics"].items():
            metrics[f"{name}/{metric}"] = value
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
    print(json.dumps({"correct": totals["failed"] == 0, **totals, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "prunekv" / "__init__.py").is_file():
        print(f"error: no prunekv package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    name = args.workload
    workdir = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    try:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for check, ok, detail in res["checks"]:
        if not ok:
            print(f"FAILED {name}: {check}: {detail}")
    print(f"lengths {name} " + json.dumps(res["lengths"], sort_keys=True))
    for metric, (value, unit) in {**res["named"], **res["metrics"]}.items():
        print(f"{name:<12} {metric:<34} {value:>14.6g} {unit}")
    metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit) in res["metrics"].items()}
    print(json.dumps({"correct": not res["failed"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
