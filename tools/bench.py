#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

Runs `benchmarks/run.py` of two trees in alternating pairs: pair 1 runs the
parent tree first, pair 2 this checkout (the change) first, and so on. Each
tree runs its own `benchmarks/run.py` against its own `src/`. Both trees run
from one temporary directory, as `<tmp>/parent` and `<tmp>/change`, since
peak RSS moves with the length of the path a tree runs from. The parent is
a commit, exported with `git archive`; the change is a copy of the
checkout's working-tree files, tracked and untracked but not ignored, so
uncommitted edits are measured too. The protocol is fixed: seed 1 and 20 s a run (1 s at `--tiny`, which is for the
smoke test). For every workload and end-to-end metric, and every figure
run.py prints by name, it records every run's value, each tree's median
and interquartile range, the change/parent ratio of the medians and the
number of pairs the change won (for metrics whose direction BENCHMARK.json
declares). Per workload it records the checks attempted and failed by each
tree, and for decode_long the width cut, tpot_ms.k025 / tpot_ms.k100. The
`machine` line of the first run is recorded too. Run from the repository
root, with nothing else busy on the machine:

    python3 tools/bench.py --parent HEAD~1 --tag mychange --pairs 10

This writes BENCH_mychange.json. With `--parent HEAD` and a clean checkout
the two trees hold the same files, a null comparison whose spread is the
noise floor.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("parent", "change")
SEED = 1


def git(*args):
    """The stdout bytes of a git command run in the checkout."""
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export_trees(parent, tmp):
    """{tree: path} of commit `parent`, exported into `<tmp>/parent`, and of
    this checkout's working-tree files, copied into `<tmp>/change`."""
    trees = {tree: Path(tmp) / tree for tree in TREES}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", parent))) as archive:
        archive.extractall(trees["parent"], filter="data")
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in files.split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the working tree is left out
            dest = trees["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest)
    return trees


def run_once(tree, workload, args):
    """(machine, {metric: (value, unit)}, attempted, failed) of one run.py run;
    a run that ends without its result line counts as one failed check."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds(args))] + ["--tiny"] * args.tiny
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run failed ({tree}, {workload}): exit {out.returncode}", file=sys.stderr)
        return None, {}, 1, 1
    machine, values = None, {}
    for line in lines[:-1]:
        fields = line.split()
        if line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
        elif len(fields) == 4 and fields[0] == workload:  # "<workload> <metric> <value> <unit>"
            values[fields[1]] = (float(fields[2]), fields[3])
    for name, m in result["metrics"].items():  # full precision, where the line has 6 digits
        values[name] = (m["value"], m["unit"])
    return machine, values, result["attempted"], result["failed"]


def seconds(args):
    """The length of one run."""
    return 1.0 if args.tiny else 20.0


def spread(values):
    """(median, interquartile range) of `values`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summarise(runs, better):
    """Per metric: every value, each tree's median and IQR, the ratio and the pairs won."""
    metrics = {}
    for name in sorted(set(runs["parent"][0]) & set(runs["change"][0])):
        row = {"unit": runs["parent"][0][name][1], "better": better.get(name)}
        for tree in TREES:
            row[tree] = [run[name][0] for run in runs[tree]]
            row[f"{tree}_median"], row[f"{tree}_iqr"] = spread(row[tree])
        row["ratio"] = row["change_median"] / row["parent_median"] if row["parent_median"] else None
        sign = {"lower": 1, "higher": -1}.get(row["better"])
        row["pairs_won"] = None if sign is None else sum(
            sign * (c - p) < 0 for p, c in zip(row["parent"], row["change"]))
        metrics[name] = row
    return metrics


def bench(args):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]] if args.workload == "all" else [args.workload]
    report = {"tag": args.tag, "parent": args.parent,
              "protocol": {"pairs": args.pairs, "seed": SEED, "seconds": seconds(args),
                           "tiny": args.tiny,
                           "order": "parent first in odd pairs, change first in even pairs"},
              "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = export_trees(args.parent, tmp)
        for workload in workloads:
            runs = {tree: [] for tree in TREES}
            entry = {"attempted": dict.fromkeys(TREES, 0), "failed": dict.fromkeys(TREES, 0)}
            for pair in range(1, args.pairs + 1):
                for tree in TREES if pair % 2 else TREES[::-1]:
                    machine, values, attempted, failed = run_once(trees[tree], workload, args)
                    report["machine"] = report["machine"] or machine
                    runs[tree].append(values)
                    entry["attempted"][tree] += attempted
                    entry["failed"][tree] += failed
                    print(f"pair {pair} {workload} {tree}: "
                          + " ".join(f"{k}={values[k][0]:.6g}" for k in sorted(values)
                                     if k in better), file=sys.stderr)
            if all(all(runs[tree]) for tree in TREES):  # a failed run has no values
                entry["metrics"] = summarise(runs, better)
                if "tpot_ms.k025" in entry["metrics"]:
                    entry["width_cut"] = {
                        tree: entry["metrics"]["tpot_ms.k025"][f"{tree}_median"]
                        / entry["metrics"]["tpot_ms.k100"][f"{tree}_median"] for tree in TREES}
            report["workloads"][workload] = entry
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--workload", default="all", help="one workload of BENCHMARK.json, or all")
    p.add_argument("--tiny", action="store_true", help="run.py's tiny sizes, for the smoke test")
    p.add_argument("--out", help="output path instead of BENCH_<tag>.json at the repository root")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def main(argv=None):
    report = bench(parse_args(argv))
    failed = sum(w["failed"][t] for w in report["workloads"].values() for t in TREES)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
