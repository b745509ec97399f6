"""Experiment configuration and end-to-end pipeline commands.

Everything here is deterministic given the config: reports embed a hash of
the exact config that produced them and contain no wall-clock data.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import analysis, cache, masking, model as model_mod, storage, tasks

MODE_FULL = "full"
MODE_LEARNED = "learned"
MODE_STATIC_NORM = "static_norm"
MODE_DYNAMIC_NORM = "dynamic_norm"
MODE_WHF_STREAMING = "whf_streaming"
EVAL_MODES = (MODE_FULL, MODE_LEARNED, MODE_STATIC_NORM, MODE_DYNAMIC_NORM, MODE_WHF_STREAMING)

OUT_ROOT_ENV = "PRUNEKV_OUT"


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    train: dict = field(default_factory=dict)  # TrainSpec overrides
    prune_ratio: float = 0.5
    align: int = 4
    migrate_every: int = cache.DEFAULT_MIGRATE_EVERY
    seed: int = 0
    out_dir: str = "runs/default"
    # pretraining: a copying phase that induces content-based lookup, then
    # fine-tuning on the retrieval tasks themselves
    pretrain_repeat_steps: int = 5000
    pretrain_steps: int = 1500
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 8
    repeat_len_range: tuple = (24, 96)
    pretrain_seq_lens: tuple = (48, 64, 96, 128)
    # evaluation
    eval_kind: str = tasks.DENSE_RETRIEVAL
    eval_seq_len: int = 256
    eval_samples: int = 200
    eval_seed: int = 10_000
    calib_samples: int = 12
    q_window: int = 16
    whf_fraction: float = 0.25

    def __post_init__(self):
        if not (model_mod.is_real(self.prune_ratio) and 0.0 <= self.prune_ratio < 1.0):
            raise ValueError(f"prune_ratio must be a number in [0, 1), got {self.prune_ratio!r}")
        for name in ("eval_samples", "calib_samples", "pretrain_batch", "migrate_every", "q_window",
                     "align"):
            model_mod.check_int(name, getattr(self, name))
        for name in ("pretrain_steps", "pretrain_repeat_steps", "seed", "eval_seed"):
            model_mod.check_int(name, getattr(self, name), low=0)
        model_mod.check_int("eval_seq_len", self.eval_seq_len, low=8)
        if not (model_mod.is_real(self.pretrain_lr) and 0 < self.pretrain_lr < float("inf")):
            raise ValueError(f"pretrain_lr must be a positive finite number, "
                             f"got {self.pretrain_lr!r}")
        if not (model_mod.is_real(self.whf_fraction) and 0 <= self.whf_fraction <= 1):
            raise ValueError(f"whf_fraction must be in [0, 1], got {self.whf_fraction!r}")
        if self.eval_kind not in tasks.KINDS:
            raise ValueError(f"eval_kind must be one of {list(tasks.KINDS)}, "
                             f"got {self.eval_kind!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        c = self.model_config()  # rejects bad model settings on load
        if self.align > c.head_dim:
            raise ValueError(f"align must be at most head_dim {c.head_dim}, got {self.align}")
        if self.eval_seq_len > c.max_pos:
            raise ValueError(f"eval_seq_len must be at most max_pos {c.max_pos}, "
                             f"got {self.eval_seq_len}")
        object.__setattr__(self, "pretrain_seq_lens",
                           _seq_lens("pretrain_seq_lens", self.pretrain_seq_lens, c.max_pos))
        lens = _seq_lens("repeat_len_range", self.repeat_len_range, c.max_pos, n=2)
        if lens[0] > lens[1]:
            raise ValueError(f"repeat_len_range must be (lo, hi) with lo <= hi, got {lens}")
        object.__setattr__(self, "repeat_len_range", lens)
        spec = self.train_spec()  # rejects bad train settings on load
        if "seq_len_range" in self.train:
            object.__setattr__(self, "train", {**self.train, "seq_len_range": spec.seq_len_range})

    @property
    def keep_ratio(self):
        return 1.0 - self.prune_ratio

    def model_config(self):
        return model_mod.ModelConfig(**_known_keys("model", self.model, model_mod.ModelConfig))

    def train_spec(self):
        return masking.TrainSpec(**_known_keys("train", self.train, masking.TrainSpec))

    def resolve_out(self):
        root = os.environ.get(OUT_ROOT_ENV, "")
        return os.path.join(root, self.out_dir) if root else self.out_dir

    def to_dict(self):
        d = asdict(self)
        d["pretrain_seq_lens"] = list(self.pretrain_seq_lens)
        d["repeat_len_range"] = list(self.repeat_len_range)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**_known_keys("config", d, cls))

    def hash(self):
        return storage.config_hash(self.to_dict())


def _seq_lens(name, value, max_pos, n=None):
    """`value` as a tuple, or ValueError unless it is a non-empty list of
    ints in [8, max_pos] (exactly `n` of them if given)."""
    if not isinstance(value, (list, tuple)) or not value or n not in (None, len(value)):
        size = "a non-empty list" if n is None else f"a list of {n}"
        raise ValueError(f"{name} must be {size} of sequence lengths, got {value!r}")
    for v in value:
        model_mod.check_int(name, v, low=8)
        if v > max_pos:
            raise ValueError(f"{name} must be at most max_pos {max_pos}, got {v}")
    return tuple(value)


def _known_keys(what, d, cls):
    """`d` as a dict, or ValueError if it is not a dict or naming the valid
    keys if one of its keys is not a field of `cls`."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    d = dict(d)
    valid = sorted(f.name for f in fields(cls))
    unknown = sorted(set(d) - set(valid))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; valid keys are {valid}")
    return d


def _task_spec(cfg, kind, seq_len, seed):
    return tasks.TaskSpec(kind=kind, seq_len=seq_len, seed=seed,
                          vocab_size=cfg.model_config().vocab_size)


def make_pretrain_stream(cfg):
    """Two-phase stream: copying batches first, then mixed retrieval tasks."""
    lens = list(cfg.pretrain_seq_lens)
    kinds = [tasks.DENSE_RETRIEVAL, tasks.DENSE_RETRIEVAL, tasks.MULTI_VALUE]
    counter = {"i": 0}

    def stream(rng):
        step = counter["i"]
        counter["i"] += 1
        if step < cfg.pretrain_repeat_steps:
            lo, hi = cfg.repeat_len_range
            seq_len = 2 * int(rng.integers(lo // 2, hi // 2 + 1))
            kind = tasks.COPY_REPEAT
        else:
            seq_len = lens[int(rng.integers(len(lens)))]
            kind = kinds[step % len(kinds)]
        return [tasks.generate(_task_spec(cfg, kind, seq_len, int(rng.integers(2 ** 31))))
                for _ in range(cfg.pretrain_batch)]

    return stream


def make_mask_stream(cfg):
    """task_stream(rng, seq_len) for the two mask-learning stages."""
    kinds = [tasks.DENSE_RETRIEVAL, tasks.MULTI_VALUE]
    spec = cfg.train_spec()
    counter = {"i": 0}

    def stream(rng, seq_len):
        kind = kinds[counter["i"] % len(kinds)]
        counter["i"] += 1
        return [tasks.generate(_task_spec(cfg, kind, seq_len, int(rng.integers(2 ** 31))))
                for _ in range(spec.batch)]

    return stream


def eval_samples(cfg, n=None, seed=None, kind=None):
    n = cfg.eval_samples if n is None else n
    seed = cfg.eval_seed if seed is None else seed
    kind = kind or cfg.eval_kind
    return [tasks.generate(_task_spec(cfg, kind, cfg.eval_seq_len, seed + i)) for i in range(n)]


def calib_samples(cfg):
    return eval_samples(cfg, n=cfg.calib_samples, seed=cfg.eval_seed + 500_000)


def check_model(cfg, toy):
    """ValueError naming the fields in which the checkpoint model `toy`
    differs from `cfg`'s model, for which the config draws samples."""
    have, want = asdict(toy.config), asdict(cfg.model_config())
    diff = [f"{k} {have[k]!r} (config {want[k]!r})" for k in want if have[k] != want[k]]
    if diff:
        raise ValueError(f"the checkpoint's model differs from the config's in {', '.join(diff)}; "
                         f"pass the --config it was trained with")


def cmd_pretrain(cfg, out_dir=None):
    """Pretrain the toy model; writes checkpoint + a seed/loss log."""
    out = out_dir or cfg.resolve_out()
    os.makedirs(out, exist_ok=True)
    toy = model_mod.ToyTransformer.create(cfg.model_config(), seed=cfg.seed)
    total_steps = cfg.pretrain_repeat_steps + cfg.pretrain_steps
    toy, losses = model_mod.pretrain(toy, make_pretrain_stream(cfg), total_steps,
                                     cfg.pretrain_lr, seed=cfg.seed)
    ckpt = os.path.join(out, "model.pkv")
    storage.save_checkpoint(ckpt, toy)
    probe = eval_samples(cfg, n=16, seed=cfg.eval_seed + 900_000)
    final_eval_loss = probe_loss(toy, probe)
    storage.save_json(os.path.join(out, "pretrain.json"), {
        "config_hash": cfg.hash(), "seed": cfg.seed, "steps": total_steps,
        "final_train_loss": losses[-1] if losses else None,
        "probe_seed": cfg.eval_seed + 900_000, "probe_n": 16,
        "final_eval_loss": final_eval_loss,
    })
    storage.save_csv(os.path.join(out, "pretrain_curve.csv"), ["step", "loss"],
                     enumerate(losses))
    return ckpt


def probe_loss(toy, samples):
    """Mean answer-token cross-entropy on a fixed probe set."""
    return sum(float(model_mod.answer_loss(toy, [s]).data) for s in samples) / len(samples)


def cmd_learn_mask(cfg, checkpoint, out_dir=None):
    """Run both training stages; persists alpha, beta, and loss curves."""
    out = out_dir or cfg.resolve_out()
    toy = storage.load_checkpoint(checkpoint)
    check_model(cfg, toy)  # both stages draw their batches from the config
    spec = cfg.train_spec()
    if spec.seq_len_range[1] > toy.config.max_pos:
        raise ValueError(f"train seq_len_range {spec.seq_len_range} reaches past "
                         f"max_pos {toy.config.max_pos}")
    os.makedirs(out, exist_ok=True)  # after the checks, before minutes of training
    stream = make_mask_stream(cfg)
    alpha, losses1 = masking.stage1_train(toy, stream, spec)
    curves = [("stage1", i, l) for i, l in enumerate(losses1)]
    beta, alpha2, losses2 = masking.stage2_train(toy, stream, alpha, cfg.keep_ratio,
                                                 cfg.align, spec)
    curves += [("stage2", i, l) for i, l in enumerate(losses2)]
    alpha_path = os.path.join(out, "alpha.pkv")
    beta_path = os.path.join(out, "beta.pkv")
    storage.save_alpha(alpha_path, alpha2, toy.config, extra={"config_hash": cfg.hash()})
    storage.save_beta(beta_path, beta, toy.config)
    storage.save_csv(os.path.join(out, "mask_curves.csv"), ["stage", "step", "loss"], curves)
    return alpha_path, beta_path


QUESTION_LEN = 2  # the [SEP, probe-key] suffix decoded through the cache


def _decode_accuracy(toy, sample, beta, cfg, spec):
    # cache the body first, then decode the probe so the answer is produced
    # through the pruned cache rather than from full-attention prefill logits
    body = sample.ctx_tokens[:-QUESTION_LEN]
    question = sample.ctx_tokens[-QUESTION_LEN:]
    pred, _, _ = cache.greedy_decode(toy, body, len(sample.ans_tokens), beta,
                                     spec.sink, spec.window, cfg.migrate_every,
                                     question=question)
    return tasks.score(pred, sample)


def evaluate_mode(cfg, toy, mode, samples, beta=None):
    """Greedy-decode accuracy of one cache policy over a sample list."""
    c = toy.config
    spec = cfg.train_spec()
    per_sample_mask = report_beta = None
    if mode == MODE_FULL:
        beta = masking.BinaryChannelMask.all_ones(c.factor_shape)
    elif mode == MODE_LEARNED:
        if beta is None:
            raise ValueError("learned mode needs a mask")
    elif mode == MODE_STATIC_NORM:
        beta = analysis.static_norm_mask(toy, calib_samples(cfg), cfg.keep_ratio, cfg.align)
    elif mode == MODE_DYNAMIC_NORM:
        def per_sample_mask(s):
            # score on the context only; the answer is never visible
            ctx_only = replace(s, ans_tokens=np.empty(0, dtype=np.int64))
            return analysis.dynamic_norm_mask(toy, ctx_only, cfg.keep_ratio, cfg.q_window)
        beta = None
    elif mode == MODE_WHF_STREAMING:
        w_hf = analysis.high_freq_ratio(toy, calib_samples(cfg)[0])
        chosen = analysis.convert_streaming_by_whf(w_hf, cfg.whf_fraction)
        bits = np.ones(c.factor_shape, dtype=np.uint8)
        bits[tuple(np.array(chosen, dtype=np.int64).reshape(-1, 2).T)] = 0  # they stream
        beta = masking.BinaryChannelMask(bits=bits, r=1, keep_ratio=float(bits.mean()))
        # the report keeps the all-ones mask, as EvalSweep.check asserts (ROADMAP K)
        report_beta = masking.BinaryChannelMask.all_ones(c.factor_shape)
    else:
        raise ValueError(f"unknown eval mode {mode!r}")
    scores = []
    for s in samples:
        b = per_sample_mask(s) if per_sample_mask else beta
        scores.append(_decode_accuracy(toy, s, b, cfg, spec))
    return float(np.mean(scores)), beta if report_beta is None else report_beta


def check_window(cfg, what, lengths, window, owner):
    """ValueError naming eval_seq_len if the shortest of `what`, of token
    `lengths`, is shorter than `owner`'s `window`-row query window."""
    if min(lengths) < window:
        raise ValueError(f"{what} are {min(lengths)} tokens at eval_seq_len {cfg.eval_seq_len} "
                         f"and vocab_size {cfg.model_config().vocab_size}, shorter than "
                         f"{owner}'s {window}-row query window")


def cmd_eval(cfg, checkpoint, mode, mask_path=None, out_dir=None):
    """Evaluate one cache policy and write a RunReport."""
    if mode not in EVAL_MODES:  # both checks come before the --out directory is made
        raise ValueError(f"unknown eval mode {mode!r}")
    if mode == MODE_LEARNED and not mask_path:
        raise ValueError("learned mode needs a mask")
    out = out_dir or cfg.resolve_out()
    toy = storage.load_checkpoint(checkpoint)
    check_model(cfg, toy)  # samples, calibration and report all come from the config
    beta = storage.load_beta(mask_path, toy.config)[0] if mask_path else None
    samples = eval_samples(cfg)
    if mode == MODE_STATIC_NORM:  # a norm baseline's query window must fit its rows
        check_window(cfg, "calibration samples", [len(s.tokens) for s in calib_samples(cfg)],
                     analysis.DEFAULT_OBS_WINDOW, mode)
    elif mode == MODE_DYNAMIC_NORM:
        check_window(cfg, "contexts", [len(s.ctx_tokens) for s in samples], cfg.q_window, mode)
    os.makedirs(out, exist_ok=True)
    accuracy, eff_beta = evaluate_mode(cfg, toy, mode, samples, beta)
    spec = cfg.train_spec()
    report = {"mode": mode, "accuracy": accuracy, "n_samples": len(samples),
              "config_hash": cfg.hash(), "eval_kind": cfg.eval_kind,
              "eval_seq_len": cfg.eval_seq_len}
    if eff_beta is not None:
        mem = cache.memory_report(eff_beta, toy.config, cfg.eval_seq_len,
                                  spec.sink, spec.window)
        report["mask"] = {"keep_fraction": eff_beta.keep_fraction(),
                          "streaming_heads": eff_beta.streaming_heads(),
                          "kept_counts": eff_beta.kept_counts().tolist()}
        report["memory"] = mem.as_dict()
    path = os.path.join(out, f"report_{mode}.json")
    storage.save_json(path, report)
    return report


def cmd_memory_report(cfg, mask_path, seq_len, bytes_per_element):
    beta, meta = storage.load_beta(mask_path)
    c = model_mod.ModelConfig(n_layers=meta["n_layers"], n_kv_heads=meta["n_kv_heads"],
                              n_q_heads=meta["n_kv_heads"], head_dim=meta["head_dim"])
    spec = cfg.train_spec()
    return cache.memory_report(beta, c, seq_len, spec.sink, spec.window, bytes_per_element)
