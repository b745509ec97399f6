"""Command-line entry points for the pruning pipeline.

Subcommands: pretrain, learn-mask, eval, analyze, decode, memory-report.
All outputs land under the config's out_dir (optionally rooted at the
PRUNEKV_OUT environment variable) and are byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, cache, experiment, storage, tasks
from .masking import BinaryChannelMask

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_ARGS = 2


def _load_config(args):
    if not args.config:
        return experiment.ExperimentConfig()
    try:
        d = storage.load_json(args.config)
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"config {args.config} is not JSON: {e}") from None
    if not isinstance(d, dict):
        raise ValueError(f"config {args.config} must be a JSON object, got {d!r}")
    return experiment.ExperimentConfig.from_dict(d)


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="override output directory")


def cmd_pretrain(args):
    cfg = _load_config(args)
    ckpt = experiment.cmd_pretrain(cfg, out_dir=args.out)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_learn_mask(args):
    cfg = _load_config(args)
    alpha_path, beta_path = experiment.cmd_learn_mask(cfg, args.checkpoint, out_dir=args.out)
    print(f"alpha written to {alpha_path}")
    print(f"beta written to {beta_path}")
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
    report = experiment.cmd_eval(cfg, args.checkpoint, args.mode,
                                 mask_path=args.mask, out_dir=args.out)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _staticity_samples(cfg):
    """calib_samples samples of every task kind, or ValueError naming a kind
    whose samples are shorter than the query window of the norm ratios."""
    by_kind = {k: experiment.eval_samples(cfg, n=cfg.calib_samples, seed=cfg.eval_seed + 1000 * i,
                                          kind=k) for i, k in enumerate(tasks.KINDS)}
    for kind, samples in by_kind.items():
        experiment.check_window(cfg, f"{kind} samples", [len(s.tokens) for s in samples],
                                analysis.DEFAULT_OBS_WINDOW, "staticity")
    return by_kind


def cmd_analyze(args):
    cfg = _load_config(args)
    out = args.out or cfg.resolve_out()
    toy = storage.load_checkpoint(args.checkpoint)
    if args.what == "freq-profile":
        if not args.mask:
            print("freq-profile needs --mask", file=sys.stderr)
            return EXIT_BAD_ARGS
        beta, _ = storage.load_beta(args.mask, toy.config)
    else:  # the others draw samples from the config
        experiment.check_model(cfg, toy)
    by_kind = _staticity_samples(cfg) if args.what == "staticity" else None
    os.makedirs(out, exist_ok=True)  # after the checks, before the forward passes
    if args.what == "staticity":
        labels, mat, _ = analysis.staticity_matrix(toy, by_kind)
        rows = [[labels[i], labels[j], float(mat[i, j])]
                for i in range(len(labels)) for j in range(len(labels))]
        path = os.path.join(out, "staticity.csv")
        storage.save_csv(path, ["label_a", "label_b", "pearson"], rows)
    elif args.what == "freq-profile":
        prof = analysis.freq_profile(beta)
        path = os.path.join(out, "freq_profile.csv")
        storage.save_csv(path, ["pair_index", "mean_retained"],
                         [[i, float(v)] for i, v in enumerate(prof)])
    else:  # whf; argparse rejects other values
        sample = experiment.calib_samples(cfg)[0]
        w_hf = analysis.high_freq_ratio(toy, sample)
        rows = [[i, j, float(w_hf[i, j])]
                for i in range(w_hf.shape[0]) for j in range(w_hf.shape[1])]
        path = os.path.join(out, "whf.csv")
        storage.save_csv(path, ["layer", "head", "w_hf"], rows)
    print(f"analysis written to {path}")
    return EXIT_OK


def _parse_tokens(text):
    try:
        return np.array([int(x) for x in text.split(",")], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(f"--tokens must be comma-separated integer token ids, "
                         f"got {text!r}") from None


def cmd_decode(args):
    cfg = _load_config(args)
    toy = storage.load_checkpoint(args.checkpoint)
    if args.mask:
        beta, _ = storage.load_beta(args.mask, toy.config)
    else:
        beta = BinaryChannelMask.all_ones(toy.config.factor_shape)
    if args.tokens:
        prompt = _parse_tokens(args.tokens)
        n_new = args.n_new
    else:
        experiment.check_model(cfg, toy)
        sample = experiment.eval_samples(cfg, n=1, seed=args.seed)[0]
        prompt = sample.ctx_tokens
        n_new = args.n_new or len(sample.ans_tokens)
    spec = cfg.train_spec()
    out_tokens, _, _ = cache.greedy_decode(toy, prompt, n_new, beta,
                                           spec.sink, spec.window, cfg.migrate_every)
    print("tokens: " + " ".join(map(str, out_tokens.tolist())))
    mem = cache.memory_report(beta, toy.config, len(prompt) + n_new, spec.sink, spec.window)
    print(json.dumps(mem.as_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_memory_report(args):
    cfg = _load_config(args)
    report = experiment.cmd_memory_report(cfg, args.mask, args.seq_len,
                                          bytes_per_element=args.bytes_per_element)
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="prunekv",
                                     description="learned static channel pruning of the key cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the toy model on retrieval tasks")
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("learn-mask", help="run both mask-learning stages")
    _add_common(p)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_learn_mask)

    p = sub.add_parser("eval", help="greedy-decode accuracy of one cache policy")
    _add_common(p)
    p.add_argument("checkpoint")
    p.add_argument("--mode", choices=experiment.EVAL_MODES, default=experiment.MODE_LEARNED)
    p.add_argument("--mask", help="binary mask file (learned mode)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="channel/head importance measurements")
    _add_common(p)
    p.add_argument("checkpoint")
    p.add_argument("what", choices=["staticity", "freq-profile", "whf"])
    p.add_argument("--mask")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decode", help="decode through the partitioned cache")
    _add_common(p)
    p.add_argument("checkpoint")
    p.add_argument("--mask")
    p.add_argument("--tokens", help="comma-separated prompt token ids")
    p.add_argument("--n-new", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("memory-report", help="cache footprint of a saved mask")
    _add_common(p)
    p.add_argument("mask")
    p.add_argument("--seq-len", type=int, default=2048)
    p.add_argument("--bytes-per-element", type=int, default=cache.DEFAULT_BYTES_PER_ELEMENT)
    p.set_defaults(func=cmd_memory_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (storage.StorageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
