"""Tests of tools/bench.py, the paired benchmark runner."""
import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_KEYS = {"unit", "better", "parent", "change", "parent_median", "parent_iqr",
               "change_median", "change_iqr", "ratio", "pairs_won"}


def load_bench(root):
    spec = importlib.util.spec_from_file_location("bench_tool", root / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_bench(ROOT)


def committed_copy(dest):
    """A copy of this tree committed as the one commit of a new repository at
    `dest`, by a fixed author."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    env = {**os.environ, "GIT_AUTHOR_NAME": "bench test", "GIT_AUTHOR_EMAIL": "bench@test",
           "GIT_COMMITTER_NAME": "bench test", "GIT_COMMITTER_EMAIL": "bench@test"}
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "commit.gpgsign=false", "commit", "-q", "-m", "tree under test"]):
        subprocess.run(["git", "-C", str(dest), *args], check=True, env=env)
    return dest


def test_tiny_pair_of_the_same_tree(bench, tmp_path):
    """A null comparison of HEAD against itself. A tree that is not a git
    checkout (a `git archive` export) has no HEAD, so the tool of a committed
    copy of it runs instead."""
    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        bench = load_bench(committed_copy(tmp_path / "tree"))
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--tag", "smoke", "--pairs", "1", "--workload",
                       "decode_long", "--tiny", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"tag", "parent", "protocol", "machine", "workloads"}
    assert report["protocol"]["seed"] == 1 and report["protocol"]["seconds"] == 1.0
    assert report["machine"]["nproc"] >= 1
    entry = report["workloads"]["decode_long"]
    assert set(entry) == {"attempted", "failed", "metrics", "width_cut"}
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert min(entry["attempted"].values()) >= 1
    for m in BENCH["end_to_end"]:
        row = entry["metrics"][m["name"]]
        assert set(row) == METRIC_KEYS
        assert row["unit"] == m["unit"] and row["better"] == m["better"]
        assert len(row["parent"]) == len(row["change"]) == 1
        assert row["pairs_won"] in (0, 1)
    assert entry["metrics"]["tpot_ms.k100"]["better"] is None  # a named figure
    assert set(entry["width_cut"]) == {"parent", "change"}


def test_pairs_alternate_and_summaries(bench, monkeypatch, tmp_path):
    # change's op_ms is 10 ms in every run; parent's is 9, 11, 12
    order = []
    parent_ms = iter([9.0, 11.0, 12.0])

    def fake_run(tree, workload, args):
        side = tree.name
        order.append(side)
        value = next(parent_ms) if side == "parent" else 10.0
        return {"nproc": 2}, {"op_ms": (value, "ms"), "eval_samples_s": (1.0, "1/s")}, 2, 0

    monkeypatch.setattr(bench, "export_trees",
                        lambda parent, tmp: {tree: tmp_path / tree for tree in bench.TREES})
    monkeypatch.setattr(bench, "run_once", fake_run)
    report = bench.bench(bench.parse_args(["--parent", "HEAD", "--tag", "t", "--pairs", "3",
                                           "--workload", "eval_sweep",
                                           "--out", str(tmp_path / "b.json")]))
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    entry = report["workloads"]["eval_sweep"]
    assert entry["attempted"] == {"parent": 6, "change": 6}
    row = entry["metrics"]["op_ms"]
    assert row["parent"] == [9.0, 11.0, 12.0] and row["change"] == [10.0] * 3
    assert row["parent_median"] == 11.0 and row["parent_iqr"] == 1.5
    assert row["change_iqr"] == 0.0 and row["ratio"] == 10.0 / 11.0
    assert row["pairs_won"] == 2
    assert entry["metrics"]["eval_samples_s"]["pairs_won"] is None
    assert "width_cut" not in entry
