"""The benchmark's span tracer wraps package attributes by name; each must exist."""
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from prunekv import masking, model, tasks

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_benchmark_span_targets_exist():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.REQUEST_TARGETS + spans.LAYER_TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert targets and not missing


def test_pretraining_and_stage_two_call_the_traced_names(monkeypatch):
    # the tracer counts model.forward and masking.top_s_r by replacing these
    # module attributes, so the package must call them through the module
    calls = Counter()
    for owner, attr in [(model, "_forward"), (masking, "top_s_r")]:
        def counted(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    cfg = model.ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=2, head_dim=8, d_ff=16,
                            vocab_size=64, max_pos=128)
    toy = model.ToyTransformer.create(cfg, seed=0)
    base = tasks.TaskSpec(seq_len=32, vocab_size=64)
    model.answer_loss(toy, [tasks.generate(base)])
    assert calls == {"_forward": 1}
    spec = masking.TrainSpec(steps_stage2=1, sink=4, window=8, seq_len_range=(32, 32))
    masking.stage2_train(toy, lambda rng, seq_len: [tasks.generate(replace(base, seq_len=seq_len))],
                         np.ones(cfg.factor_shape), 0.5, 2, spec)
    assert calls == {"_forward": 1, "top_s_r": 2}  # the step's mask and the final one
