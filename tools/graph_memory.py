#!/usr/bin/env python3
"""Traced memory of one pretraining graph, one pretraining step and one
prefill: the default model's answer loss on its longest default batch, 8
dense_retrieval samples of 127 tokens, and `cache.np_forward` over max_pos
tokens.

Prints four lines, in MiB as `tracemalloc` counts them from just before
each pass: what the graph holds once `answer_loss` returns, the peak of
`answer_loss` plus `backward`, the peak of one `pretrain` step on that
batch with Adam's moment buffers, and the peak of one prefill at T =
max_pos with every row's logits (rows=None). The parameters are made before
tracing starts, so no figure counts them. Run from the repository root:

    PYTHONPATH=src python tools/graph_memory.py

`--tiny` runs a two-layer model on 2 samples of 31 tokens and a prefill of
its max_pos = 256 tokens, in well under a second.
"""
import argparse
import tracemalloc

import numpy as np

from prunekv import cache, model, tasks

TINY = model.ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                         vocab_size=512, max_pos=256)


def traced(fn):
    """(fn(), the peak MiB that tracemalloc counts while fn runs)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2 ** 20


def measure(config, batch):
    """(MiB held after the forward pass, peak MiB of forward plus backward)."""
    toy = model.ToyTransformer.create(config, seed=0)
    toy.set_trainable(True)

    def forward_backward():
        loss = model.answer_loss(toy, batch)
        graph = tracemalloc.get_traced_memory()[0]
        loss.backward()
        return graph / 2 ** 20

    return traced(forward_backward)


def step_peak(config, batch):
    """Peak MiB of one `pretrain` step on `batch`, Adam's moment buffers included."""
    toy = model.ToyTransformer.create(config, seed=0)
    return traced(lambda: model.pretrain(toy, lambda rng: batch, steps=1, lr=1e-3))[1]


def prefill_peak(config):
    """Peak MiB of one `np_forward` over max_pos random tokens, every row's logits."""
    weights = model.ToyTransformer.create(config, seed=0).weights_numpy()
    tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=config.max_pos)
    return traced(lambda: cache.np_forward(weights, config, tokens))[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="a two-layer model, 2 samples")
    args = parser.parse_args(argv)
    config, n, seq_len = (TINY, 2, 32) if args.tiny else (model.ModelConfig(), 8, 128)
    batch = [tasks.generate(tasks.TaskSpec(kind=tasks.DENSE_RETRIEVAL, seq_len=seq_len, seed=i,
                                           vocab_size=config.vocab_size)) for i in range(n)]
    graph, peak = measure(config, batch)
    t = len(batch[0].tokens)
    print(f"graph after forward ({n} x {t}): {graph:.1f} MiB")
    print(f"peak of answer_loss + backward ({n} x {t}): {peak:.1f} MiB")
    print(f"peak of one pretraining step with Adam ({n} x {t}): {step_peak(config, batch):.1f} MiB")
    print(f"peak of np_forward (T = {config.max_pos}): {prefill_peak(config):.1f} MiB")


if __name__ == "__main__":
    main()
