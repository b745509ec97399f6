#!/usr/bin/env python3
"""Margin of pipeline acceptance criteria 7 and 8 at other pretraining seeds.

Reruns the steps of the `pipeline` fixture of tests/test_acceptance.py with
the model initialised and pretrained from each given seed: pretraining,
stage 1, stage 2 and a learned-mask evaluation at every ratio of
PRUNE_GRID, then the full, stage-1-only, static-norm and dynamic-norm
evaluations at the chosen ratio. Per seed it prints the quantities criteria
7 and 8 compare and PASS or FAIL for each. `pipeline_config` and
`PRUNE_GRID` are read from the test file, so the tool follows any change
there. The output is evidence of how much margin the criteria have, never a
gate: the committed test keeps its own seed. Run from the repository root:

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

from prunekv import experiment, masking, storage

TESTS = Path(__file__).resolve().parents[1] / "tests"


def load_acceptance():
    sys.path.insert(0, str(TESTS))  # the test module imports its helpers by name
    spec = importlib.util.spec_from_file_location("acceptance", TESTS / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def margin(acceptance, seed, tiny):
    """One result line for pretraining seed `seed`."""
    def config(prune_ratio):
        cfg = replace(acceptance.pipeline_config(prune_ratio), seed=seed)
        if tiny:
            cfg = replace(cfg, pretrain_repeat_steps=4, pretrain_steps=2, eval_samples=4,
                          calib_samples=2, train={**cfg.train, "steps_stage1": 2, "steps_stage2": 1})
        return cfg

    grid = acceptance.PRUNE_GRID
    cfg0 = config(grid[0])
    with tempfile.TemporaryDirectory() as out:
        toy = storage.load_checkpoint(experiment.cmd_pretrain(cfg0, out_dir=out))
    samples = experiment.eval_samples(cfg0)
    full, _ = experiment.evaluate_mode(cfg0, toy, "full", samples)
    alpha, _ = masking.stage1_train(toy, experiment.make_mask_stream(cfg0), cfg0.train_spec())
    learned = {}
    for pr in grid:
        cfg = config(pr)
        beta, _, _ = masking.stage2_train(toy, experiment.make_mask_stream(cfg), alpha,
                                          cfg.keep_ratio, cfg.align, cfg.train_spec())
        learned[pr], _ = experiment.evaluate_mode(cfg, toy, "learned", samples, beta=beta)
    retained = [pr for pr in grid if learned[pr] >= 0.85]
    if not retained:
        return (f"seed {seed}: full {full:.3f}; no prune ratio in {grid} keeps learned >= 0.85 "
                f"({learned}); criterion 7 FAIL, criterion 8 FAIL")
    chosen = max(retained)
    cfg = config(chosen)
    beta1 = masking.top_s_r(alpha, cfg.keep_ratio, cfg.align)
    stage1, _ = experiment.evaluate_mode(cfg, toy, "learned", samples, beta=beta1)
    static, _ = experiment.evaluate_mode(cfg, toy, "static_norm", samples)
    dynamic, _ = experiment.evaluate_mode(cfg, toy, "dynamic_norm", samples)
    refined = learned[chosen]
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
