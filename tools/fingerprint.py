#!/usr/bin/env python3
"""Bit-identity fingerprint of pretraining, mask learning and inference.

Pretrains the toy model for 12 copying and 4 retrieval steps, runs 4
stage-1 and 2 stage-2 mask-learning steps, and prints every loss as its
`repr` plus the sha256 of the trained parameters and of both stages' alpha.
Then, on the trained model, it prints the sha256 of the logits of a greedy
decode through the partitioned cache, with the all-ones mask and with the
stage-2 mask with head (0, 0) streaming, of each `cmd_eval` report file of
a 4-sample eval in every mode, and of the model, mask and alpha container
files as `cmd_learn_mask` and `save_checkpoint` write them. Two trees that
print the same bytes train the same weights and factors and decode, report
and store the same, bit for bit.
Its first line is one sha256 over the samples of every task generator on a
grid of kinds, vocabularies, lengths up to 2048 and seeds, so two trees that
print the same line generate the same tasks. Run from the repository root,
before and after a change:

    PYTHONPATH=src python tools/fingerprint.py > before.txt

`--tiny` runs a two-layer model; the whole run takes about 1.5 s.
"""
import argparse
import hashlib
import itertools
import os
import tempfile
from dataclasses import replace

import numpy as np

from prunekv import cache, experiment, masking, model, storage, tasks

PROMPT_LEN, N_NEW = 96, 40  # the decode crosses one migration batch of 32

TINY = dict(model=dict(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                       vocab_size=512, max_pos=256),
            train={"sink": 2, "window": 8, "seq_len_range": (32, 48)},
            pretrain_seq_lens=(16, 24), repeat_len_range=(8, 16), pretrain_batch=2)

TASK_VOCABS, TASK_SEEDS = (64, 256, 512), (0, 1)
TASK_SEQ_LENS = (*range(8, 64), *range(64, 2048, 63), 2048)  # every length to 64, then sparser


def tasks_sha256():
    """sha256 of every field of the samples of each kind, vocabulary, length and seed."""
    h = hashlib.sha256()
    for kind, vocab, seq_len, seed in itertools.product(tasks.KINDS, TASK_VOCABS, TASK_SEQ_LENS,
                                                        TASK_SEEDS):
        s = tasks.generate(tasks.TaskSpec(kind=kind, seq_len=seq_len, seed=seed, vocab_size=vocab))
        for field in (s.ctx_tokens, s.ans_tokens, [s.query_key], s.gold_values):
            field = np.asarray(field, dtype=np.int64)
            h.update(np.int64(field.size).tobytes() + field.tobytes())
    return h.hexdigest()


def sha256(named):
    h = hashlib.sha256()
    for name, array in sorted(named.items()):
        h.update(name.encode() + np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="a two-layer model")
    parser.add_argument("--seed", type=int, default=0, help="initial weights")
    args = parser.parse_args(argv)
    print(f"tasks sha256: {tasks_sha256()}")
    cfg = experiment.ExperimentConfig(seed=args.seed, pretrain_repeat_steps=12, pretrain_steps=4,
                                      **(TINY if args.tiny else {}))
    spec = replace(cfg.train_spec(), steps_stage1=4, steps_stage2=2)
    toy = model.ToyTransformer.create(cfg.model_config(), seed=cfg.seed)
    _, pretrain = model.pretrain(toy, experiment.make_pretrain_stream(cfg), 16, cfg.pretrain_lr,
                                 seed=cfg.seed)
    stream = experiment.make_mask_stream(cfg)  # one stream for both stages, as cmd_learn_mask
    alpha1, stage1 = masking.stage1_train(toy, stream, spec)
    beta, alpha2, stage2 = masking.stage2_train(toy, stream, alpha1, cfg.keep_ratio, cfg.align,
                                                spec)
    for name, losses in [("pretrain", pretrain), ("stage1", stage1), ("stage2", stage2)]:
        print(f"{name} losses: {' '.join(map(repr, losses))}")
    print(f"params sha256: {sha256(toy.weights_numpy())}")
    print(f"alpha sha256: stage1 {sha256({'alpha': alpha1})} stage2 {sha256({'alpha': alpha2})}")

    bits = beta.bits.copy()
    bits[0, 0] = 0
    masks = {"ones": masking.BinaryChannelMask.all_ones(bits.shape),
             "streaming": masking.BinaryChannelMask(bits=bits, r=beta.r, keep_ratio=beta.keep_ratio)}
    prompt = experiment.eval_samples(cfg, n=1)[0].tokens[:PROMPT_LEN]
    hashes = []
    for name, mask in masks.items():
        _, logits, _ = cache.greedy_decode(toy, prompt, N_NEW, mask, spec.sink, spec.window,
                                           cfg.migrate_every, collect_logits=True)
        hashes.append(f"{name} {sha256({'logits': np.stack(logits)})}")
    print(f"decode logits sha256: {' '.join(hashes)}")
    eval_cfg = replace(cfg, eval_samples=4)  # out_dir, part of the reports' config hash, stays
    with tempfile.TemporaryDirectory() as out:
        ckpt, mask_path = os.path.join(out, "model.pkv"), os.path.join(out, "beta.pkv")
        storage.save_checkpoint(ckpt, toy)
        storage.save_beta(mask_path, beta, toy.config)
        storage.save_alpha(os.path.join(out, "alpha.pkv"), alpha2, toy.config,
                           extra={"config_hash": cfg.hash()})  # as cmd_learn_mask writes it
        for mode in experiment.EVAL_MODES:
            experiment.cmd_eval(eval_cfg, ckpt, mode, mask_path=mask_path, out_dir=out)
        reports = [f"report_{mode}.json" for mode in experiment.EVAL_MODES]
        for name in reports + ["model.pkv", "beta.pkv", "alpha.pkv"]:
            with open(os.path.join(out, name), "rb") as f:
                print(f"{name} sha256: {hashlib.sha256(f.read()).hexdigest()}")


if __name__ == "__main__":
    main()
