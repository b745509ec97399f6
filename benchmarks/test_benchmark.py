"""Tests of the benchmark itself: a smoke run of every workload, the one-pass
decode reference against the stateless oracle, and refusal to run without
the package.

Run from the repository root:  python3 -m pytest benchmarks
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", ROOT / "tests", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import helpers  # noqa: E402
from prunekv import masking  # noqa: E402
from prunekv.model import ModelConfig, ToyTransformer  # noqa: E402
from reference import region_logits  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# figures each workload prints by name above the result line
NAMED = {
    "decode_long": ["ttft_ms", "tpot_ms.k100", "tpot_ms.k050", "tpot_ms.k025", "tpot_ms.p99",
                    "decode_tok_s"],
    "eval_sweep": ["eval_samples_s"],
    "train_mask": ["pretrain_step_ms", "stage1_step_ms", "stage2_step_ms"],
}
COMMON = ["peak_rss_mb", "setup_s", "error_rate"]


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--tiny"],
                         capture_output=True, text=True, cwd=cwd, timeout=300)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    printed = {line.split()[1]: line.split()[3] for line in lines[:-1]
               if line.startswith(workload) and len(line.split()) == 4}
    for name in NAMED[workload] + COMMON:
        assert printed.get(name), f"{name} not printed with a unit"
    assert any(line.startswith("machine ") and '"blas"' in line for line in lines)


def test_all_runs_each_workload_in_a_process_of_its_own():
    out = run_bench("all", 0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    names = [w["name"] for w in BENCH["workloads"]]
    assert result["correct"] and result["attempted"] >= len(names)
    assert set(result["metrics"]) == {f"{w}/{m['name']}" for w in names for m in BENCH["end_to_end"]}
    assert sum(line.startswith("machine ") for line in lines) == len(names)


def test_region_reference_matches_stateless_oracle():
    cfg = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                      vocab_size=64, max_pos=128)
    weights = ToyTransformer.create(cfg, seed=5).weights_numpy()
    rng = np.random.default_rng(5)
    prompt = rng.integers(0, cfg.vocab_size, size=14)
    for keep in (0.25, 0.5, 0.75):
        bits = masking.select_mask(rng.normal(size=cfg.factor_shape), keep, 2).bits.copy()
        bits[1, 0] = 0  # a streaming head
        tokens, trace = helpers.reference_greedy_decode(weights, cfg, prompt, 9, bits,
                                                        sink=2, window=4)
        seq = np.concatenate([prompt, tokens])
        got = region_logits(weights, cfg, seq, len(prompt), bits, sink=2, window=4, block=5)
        want = np.concatenate([helpers.reference_forward(weights, cfg, prompt)[-1:],
                               np.stack(trace)])
        np.testing.assert_allclose(got[len(prompt) - 1:], want, atol=1e-10)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("decode_long", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
