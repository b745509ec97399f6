#!/usr/bin/env python3
"""Margin of pipeline acceptance criteria 7 and 8 at other pretraining seeds.

Runs `run_pipeline`, the one body of the `pipeline` fixture of
tests/test_acceptance.py, with the model initialised and pretrained from
each given seed: pretraining, stage 1, stage 2 and a learned-mask
evaluation at every ratio of PRUNE_GRID, then the full, stage-1-only,
static-norm and dynamic-norm evaluations at the chosen ratio. Per seed it
prints the quantities criteria 7 and 8 compare and PASS or FAIL for each.
The steps, `pipeline_config` and `PRUNE_GRID` all come from the test file,
so the tool measures whatever the fixture runs. The output is evidence of
how much margin the criteria have, never a gate: the committed test keeps
its own seed. Run from the repository root:

    PYTHONPATH=src python tools/margin.py 0 1 2 3 4

Each seed takes about five minutes on 2 vCPUs; `--tiny` cuts the training
and evaluation down to seconds. BLAS thread counts change float sums, so
record `OPENBLAS_NUM_THREADS` with the results.
"""
import argparse
import importlib.util
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

# unused here: a patch on `margin.experiment` made before `main()` loads the
# acceptance module reaches `run_pipeline`, which binds experiment's names then
from prunekv import experiment  # noqa: F401

TESTS = Path(__file__).resolve().parents[1] / "tests"


def load_acceptance():
    sys.path.insert(0, str(TESTS))  # the test module imports its helpers by name
    spec = importlib.util.spec_from_file_location("acceptance", TESTS / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def margin(acceptance, seed, tiny):
    """One result line for pretraining seed `seed`."""
    cfg = replace(acceptance.pipeline_config(acceptance.PRUNE_GRID[0]), seed=seed)
    if tiny:
        cfg = replace(cfg, pretrain_repeat_steps=4, pretrain_steps=2, eval_samples=4,
                      calib_samples=2, train={**cfg.train, "steps_stage1": 2, "steps_stage2": 1})
    with tempfile.TemporaryDirectory() as out:
        res = acceptance.run_pipeline(cfg, out)
    full, learned, chosen = res["full_acc"], res["learned_acc"], res["chosen"]
    if chosen is None:
        return (f"seed {seed}: full {full:.3f}; no prune ratio in {acceptance.PRUNE_GRID} keeps "
                f"learned >= 0.85 ({learned}); criterion 7 FAIL, criterion 8 FAIL")
    refined, stage1 = learned[chosen], res["stage1_acc"]
    static, dynamic = res["static_acc"], res["dynamic_acc"]
    c7 = full >= 0.9 and refined >= static >= dynamic
    c8 = refined >= stage1
    verdict = {True: "PASS", False: "FAIL"}
    return (f"seed {seed}: full {full:.3f}; at prune ratio {chosen}: learned {refined:.3f} >= "
            f"static {static:.3f} >= dynamic {dynamic:.3f}, criterion 7 {verdict[c7]}; "
            f"stage-2 {refined:.3f} >= stage-1 {stage1:.3f}, criterion 8 {verdict[c8]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="pretraining seeds")
    parser.add_argument("--tiny", action="store_true", help="a few steps and samples only")
    args = parser.parse_args(argv)
    acceptance = load_acceptance()
    for seed in args.seeds:
        print(margin(acceptance, seed, args.tiny), flush=True)


if __name__ == "__main__":
    main()
