"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, does one fixed
amount of work per `run_round`, checks its outputs in `check` (never inside
a timed region) and summarises what it timed. The model is the default
`ModelConfig` with seeded random weights: wall time does not depend on
training, and a random model scores 0 accuracy, so correctness comes from
equivalence checks, not from accuracy.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from prunekv import analysis, cache, experiment, masking, model, storage, tasks
from prunekv.autodiff import Tensor
from prunekv.masking import BinaryChannelMask
from prunekv.model import ModelConfig, ToyTransformer

from reference import region_logits

KEEPS = (1.0, 0.5, 0.25)
ALIGN = 4
# The pruned masks come from fixed scores, so the cache layout (and the bytes
# it stores per token) is the same on every run; the seed varies weights and
# prompts.
MASK_SEED = 2508
BYTES_PER_ELEMENT = 2
LOGIT_ATOL = 1e-8
# A small model for the smoke test (`--tiny`); vocab 512 keeps the tasks'
# key/value ranges and the analysis observation window usable.
TINY_MODEL = dict(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                  vocab_size=512, max_pos=256)


def keep_tag(keep):
    return f"k{round(keep * 100):03d}"


def seeded_masks(config):
    scores = np.random.default_rng(MASK_SEED).random(config.factor_shape)
    return {keep: BinaryChannelMask.all_ones(config.factor_shape) if keep == 1.0
            else masking.select_mask(scores, keep, ALIGN) for keep in KEEPS}


def ms(seconds):
    return seconds * 1e3


class Workload:
    name = ""
    min_rounds = 1  # rounds a run makes even when they outlast --seconds

    def __init__(self, seed, tiny, workdir):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.lengths = {}  # phase -> sorted token lengths served

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        """Untimed work before the first timed round."""

    def run_round(self, tracer):
        raise NotImplementedError

    def check(self):
        """[(name, ok, detail)] for every check made."""
        raise NotImplementedError

    def summary(self, tracer, round_times):
        """([op_ms per round], {named metric: (value, unit)}) over the first
        len(round_times) rounds, the untraced ones. op_ms is the round's mean
        time of the workload's unit of work."""
        raise NotImplementedError

    def counters(self):
        """Per-layer counters this workload computes itself: {name: value}."""
        return {}


@dataclass
class Request:
    keep: float
    prompt: np.ndarray
    ttft: float
    kv: object  # the request's cache; dropped after the first round
    logits: list  # prefill logits then one row per step; first round only
    mid_after_prefill: int
    tokens: list = field(default_factory=list)
    gaps: list = field(default_factory=list)  # seconds per decode step, argmax included

    @property
    def migrations(self):
        return (self.kv.mid_tokens - self.mid_after_prefill) // self.kv.migrate_every


class DecodeLong(Workload):
    """Long prompts greedy-decoded to max_pos, once per keep ratio."""

    name = "decode_long"
    # A round takes 15-20 s, longer than --seconds. Three rounds make the
    # run's medians reject one round caught in a slow spell of a shared
    # machine.
    min_rounds = 3

    def setup(self):
        if self.tiny:
            self.config = ModelConfig(**TINY_MODEL)
            self.prompt_len, self.n_new, self.sink, self.window, self.migrate_every = 64, 40, 4, 8, 4
        else:
            self.config = ModelConfig()
            # decode up to the last position max_pos allows
            self.prompt_len = 1024
            self.n_new = self.config.max_pos - 1 - self.prompt_len
            self.sink, self.window, self.migrate_every = 16, 64, 32
        self.toy = ToyTransformer.create(self.config, seed=self.seed)
        self.masks = seeded_masks(self.config)
        # niah_eval is the only generator whose samples fill seq_len exactly
        self.prompts = [tasks.generate(tasks.TaskSpec(
            kind=tasks.NIAH_EVAL, seq_len=self.prompt_len, seed=self.seed * len(KEEPS) + i,
            vocab_size=self.config.vocab_size)).tokens for i in range(len(KEEPS))]
        self.lengths = {"prefill": [self.prompt_len], "final": [self.prompt_len + self.n_new]}
        self.rounds = []

    def warm_up(self):
        """One short request through the engine before the timed rounds."""
        kv, logits = cache.prefill_and_partition(self.toy, self.masks[KEEPS[-1]], self.prompts[0],
                                                 self.sink, self.window, self.migrate_every)
        for _ in range(2 * self.migrate_every):
            logits = cache.decode_step(self.toy, kv, int(np.argmax(logits)))

    def run_round(self, tracer):
        first = not self.rounds
        ids = [f"{keep_tag(keep)}#{len(self.rounds)}" for keep in KEEPS]
        requests = []
        for keep, prompt, rid in zip(KEEPS, self.prompts, ids):
            tracer.request = rid
            start = time.perf_counter()
            kv, logits = cache.prefill_and_partition(self.toy, self.masks[keep], prompt,
                                                     self.sink, self.window, self.migrate_every)
            requests.append(Request(keep, prompt, time.perf_counter() - start, kv, [logits],
                                    kv.mid_tokens))
        # The requests take turns of one migration period each, so every keep
        # ratio sees the same spells of a shared machine's speed while its own
        # cache stays warm within a turn.
        for lo in range(0, self.n_new, self.migrate_every):
            for req, rid in zip(requests, ids):
                tracer.request = rid
                for _ in range(min(self.migrate_every, self.n_new - lo)):
                    start = time.perf_counter()
                    nxt = int(np.argmax(req.logits[-1]))
                    req.logits.append(cache.decode_step(self.toy, req.kv, nxt))
                    req.gaps.append(time.perf_counter() - start)
                    req.tokens.append(nxt)
                    if not first:
                        del req.logits[0]
        tracer.request = None
        self.migrations = sum(req.migrations for req in requests)
        if not first:
            for req in requests:
                req.kv, req.logits = None, None
        self.rounds.append(requests)

    def _stored_bytes(self, kv):
        return (kv.stored_k_elements() * BYTES_PER_ELEMENT,
                kv.stored_v_elements() * BYTES_PER_ELEMENT)

    def check(self):
        results = []
        weights = self.toy.weights_numpy()
        c = self.config
        for req in self.rounds[0]:
            tag = keep_tag(req.keep)
            seq = np.concatenate([req.prompt, req.tokens])
            if req.keep == 1.0:
                _, ref = cache.np_forward(weights, c, seq)
            else:
                ref = region_logits(weights, c, seq, len(req.prompt), self.masks[req.keep].bits,
                                    self.sink, self.window)
            err = float(np.max(np.abs(np.stack(req.logits) - ref[len(req.prompt) - 1:])))
            results.append((f"{tag} logits match one-pass reference", err <= LOGIT_ATOL,
                            f"max |diff| {err:.2e}"))
            # tokens still in the window store past the logical window are
            # full width; memory_report describes the other seq_len - pending
            kv = req.kv
            full_token = c.n_layers * c.n_kv_heads * c.head_dim * BYTES_PER_ELEMENT
            rep = cache.memory_report(self.masks[req.keep], c, kv.seq_len - kv.pending,
                                      self.sink, self.window, BYTES_PER_ELEMENT)
            want = (rep.bytes_k_pruned + kv.pending * full_token,
                    rep.bytes_v_pruned + kv.pending * full_token)
            got = self._stored_bytes(kv)
            results.append((f"{tag} stored K/V bytes match memory_report", got == want,
                            f"stored {got}, expected {want} at length {kv.seq_len}"))
        for r, later in enumerate(self.rounds[1:], start=1):
            for first, req in zip(self.rounds[0], later):
                results.append((f"{keep_tag(req.keep)} round {r} repeats round 0",
                                req.tokens == first.tokens, ""))
        return results

    def summary(self, tracer, round_times):
        gaps = {keep: [] for keep in KEEPS}
        ttfts = []
        for requests in self.rounds[:len(round_times)]:
            for req in requests:
                gaps[req.keep] += req.gaps
                ttfts.append(req.ttft)
        pooled = [g for keep in KEEPS for g in gaps[keep]]
        text = {"ttft_ms": (ms(statistics.median(ttfts)), "ms")}
        for keep in KEEPS:
            text[f"tpot_ms.{keep_tag(keep)}"] = (ms(statistics.median(gaps[keep])), "ms")
        text["tpot_ms.p99"] = (ms(float(np.percentile(pooled, 99))), "ms")
        text["decode_tok_s"] = (len(pooled) / sum(pooled), "1/s")
        text["tpot_samples"] = (len(pooled), "count")
        per_round = [ms(statistics.mean([g for req in requests for g in req.gaps]))
                     for requests in self.rounds[:len(round_times)]]
        return per_round, text

    def counters(self):
        c = self.config
        out = {"cache.migrations": self.migrations}
        for req in self.rounds[0]:
            k_bytes, v_bytes = self._stored_bytes(req.kv)
            out[f"cache.kv_bytes_per_token.{keep_tag(req.keep)}"] = (k_bytes + v_bytes) / req.kv.seq_len
        final = self.prompt_len + self.n_new
        for keep in KEEPS[1:]:
            beta = self.masks[keep]
            rep = cache.memory_report(beta, c, final, self.sink, self.window, BYTES_PER_ELEMENT)
            out[f"cache.k_reduction_fraction.{keep_tag(keep)}"] = rep.k_reduction_fraction
            out[f"cache.streaming_heads.{keep_tag(keep)}"] = len(beta.streaming_heads())
        return out


class EvalSweep(Workload):
    """`cmd_eval` in every mode over one fixed set of dense_retrieval samples."""

    name = "eval_sweep"

    def setup(self):
        self.out = os.path.join(self.workdir, "eval")
        n = 2 if self.tiny else 6
        extra = (dict(model=TINY_MODEL, train={"sink": 4, "window": 8}, eval_seq_len=80,
                      calib_samples=2, q_window=4) if self.tiny else {})
        self.cfg = experiment.ExperimentConfig(seed=self.seed, eval_samples=n,
                                               eval_seed=10_000 + 1_000 * self.seed,
                                               out_dir=self.out, **extra)
        config = self.cfg.model_config()
        self.toy = ToyTransformer.create(config, seed=self.seed)
        self.ckpt = os.path.join(self.out, "model.pkv")
        storage.save_checkpoint(self.ckpt, self.toy)
        self.beta = seeded_masks(config)[self.cfg.keep_ratio]
        self.mask_path = os.path.join(self.out, "beta.pkv")
        storage.save_beta(self.mask_path, self.beta, config)
        self.lengths = {
            "eval": sorted({len(s.tokens) for s in experiment.eval_samples(self.cfg)}),
            "calibration": sorted({len(s.tokens) for s in experiment.calib_samples(self.cfg)})}
        self.rounds = []

    def run_round(self, tracer):
        reports = {}
        for mode in experiment.EVAL_MODES:
            tracer.request = mode
            reports[mode] = experiment.cmd_eval(self.cfg, self.ckpt, mode,
                                                mask_path=self.mask_path, out_dir=self.out)
        tracer.request = None
        self.rounds.append(reports)

    def check(self):
        config = self.cfg.model_config()
        spec = self.cfg.train_spec()
        ones = BinaryChannelMask.all_ones(config.factor_shape)
        fixed_masks = {
            experiment.MODE_FULL: ones,
            experiment.MODE_LEARNED: self.beta,
            experiment.MODE_STATIC_NORM: analysis.static_norm_mask(
                self.toy, experiment.calib_samples(self.cfg), self.cfg.keep_ratio, self.cfg.align),
            experiment.MODE_WHF_STREAMING: ones,
        }
        results = []
        for r, reports in enumerate(self.rounds):
            for mode, rep in reports.items():
                problems = []
                beta = fixed_masks.get(mode)
                if beta is not None:
                    want = cache.memory_report(beta, config, self.cfg.eval_seq_len,
                                               spec.sink, spec.window).as_dict()
                    if rep.get("memory") != want:
                        problems.append(f"memory {rep.get('memory')} != {want}")
                    if rep.get("mask", {}).get("kept_counts") != beta.kept_counts().tolist():
                        problems.append("kept counts differ from the mode's mask")
                if rep["n_samples"] != self.cfg.eval_samples or not 0.0 <= rep["accuracy"] <= 1.0:
                    problems.append(f"n_samples {rep['n_samples']}, accuracy {rep['accuracy']}")
                on_disk = storage.load_json(os.path.join(self.out, f"report_{mode}.json"))
                if on_disk != json.loads(json.dumps(rep)):
                    problems.append("report file differs from the returned report")
                if r and rep != self.rounds[0][mode]:
                    problems.append("differs from round 0")
                results.append((f"{mode} report round {r}", not problems, "; ".join(problems)))
        return results

    def summary(self, tracer, round_times):
        evaluated = len(round_times) * len(experiment.EVAL_MODES) * self.cfg.eval_samples
        requests = tracer.durations("cache.greedy_decode")[:evaluated]
        text = {"eval_samples_s": (evaluated / sum(round_times), "1/s"),
                "request_p50_ms": (ms(statistics.median(requests)), "ms"),
                "requests": (len(requests), "count")}
        per_round = len(experiment.EVAL_MODES) * self.cfg.eval_samples
        return [ms(statistics.mean(requests[i:i + per_round]))
                for i in range(0, len(requests), per_round)], text


class TrainMask(Workload):
    """Pretraining steps, then stage-1 and stage-2 mask-learning steps."""

    name = "train_mask"
    # Losses must repeat exactly across rounds; three make the run's medians
    # reject one round caught in a slow spell of a shared machine.
    min_rounds = 3

    def setup(self):
        if self.tiny:
            extra = dict(model=TINY_MODEL, train={"sink": 2, "window": 8, "seq_len_range": (32, 48)},
                         pretrain_seq_lens=(16, 24), repeat_len_range=(8, 16), pretrain_batch=2)
            self.pretrain_steps = 4
        else:
            extra = {}
            self.pretrain_steps = 16
        # The steps keep the defaults' mix. Pretraining splits its steps
        # between the copying and the retrieval phase of the two-phase stream
        # as the default 5000:1500 does (12:4). Stage 1 to stage 2 is 200:40
        # by default; here it is 4:1. Stage 1 needs an even step count: its
        # steps alternate dense_retrieval and multi_value batches, whose
        # lengths (343 against up to 872 tokens) make their steps cost
        # different amounts, and 200 steps are half of each kind. The
        # streams keep their default seeds, so every run trains on batches of
        # the same lengths; the workload seed sets the initial weights.
        defaults = experiment.ExperimentConfig()
        copy_share = defaults.pretrain_repeat_steps / (defaults.pretrain_repeat_steps
                                                       + defaults.pretrain_steps)
        self.cfg = experiment.ExperimentConfig(
            pretrain_repeat_steps=round(self.pretrain_steps * copy_share), **extra)
        self.spec = replace(self.cfg.train_spec(), steps_stage1=4, steps_stage2=1)
        self.init_weights = ToyTransformer.create(self.cfg.model_config(), seed=self.seed).weights_numpy()
        self.rounds = []

    def run_round(self, tracer):
        cfg = self.cfg
        toy = ToyTransformer(cfg.model_config(), {k: Tensor(v.copy(), requires_grad=True)
                                                  for k, v in self.init_weights.items()})
        steps = {"pretrain": [], "stage1": [], "stage2": []}
        tokens = {"pretrain": [], "stage1": [], "stage2": []}
        phase, clock = "pretrain", time.perf_counter()

        def log(step, loss):
            nonlocal clock
            now = time.perf_counter()
            steps[phase].append((now - clock, loss))
            clock = now

        pretrain_stream = experiment.make_pretrain_stream(cfg)
        mask_stream = experiment.make_mask_stream(cfg)  # one stream for both stages, as cmd_learn_mask

        def pretrain_batches(rng):
            batch = pretrain_stream(rng)
            tokens["pretrain"].append(len(batch[0].tokens))
            return batch

        def mask_batches(rng, seq_len):
            batch = mask_stream(rng, seq_len)
            tokens[phase].append(sum(len(s.tokens) for s in batch))
            return batch

        model.pretrain(toy, pretrain_batches, self.pretrain_steps, cfg.pretrain_lr, seed=cfg.seed,
                       log=log)
        phase, clock = "stage1", time.perf_counter()
        alpha, _ = masking.stage1_train(toy, mask_batches, self.spec, log=log)
        phase, clock = "stage2", time.perf_counter()
        masking.stage2_train(toy, mask_batches, alpha, cfg.keep_ratio, cfg.align, self.spec, log=log)
        self.rounds.append({"steps": steps, "tokens": tokens})
        self.lengths = {p: sorted(set(v)) for p, v in tokens.items()}

    def check(self):
        results = []
        first = {p: [loss for _, loss in s] for p, s in self.rounds[0]["steps"].items()}
        for r, rnd in enumerate(self.rounds):
            losses = {p: [loss for _, loss in s] for p, s in rnd["steps"].items()}
            finite = all(np.isfinite(v).all() and len(v) for v in losses.values())
            results.append((f"round {r} losses finite", bool(finite), ""))
            if r:
                results.append((f"round {r} losses repeat round 0 exactly", losses == first, ""))
        return results

    def summary(self, tracer, round_times):
        per_phase = {p: [dt for rnd in self.rounds[:len(round_times)] for dt, _ in rnd["steps"][p]]
                     for p in ("pretrain", "stage1", "stage2")}
        text = {"pretrain_step_ms": (ms(statistics.median(per_phase["pretrain"])), "ms"),
                # stage steps alternate between task kinds of different length,
                # so the mean over whole rounds is the stable figure
                "stage1_step_ms": (ms(statistics.mean(per_phase["stage1"])), "ms"),
                "stage2_step_ms": (ms(statistics.mean(per_phase["stage2"])), "ms"),
                "train_steps": (sum(len(v) for v in per_phase.values()), "count")}
        per_round = [ms(statistics.mean([dt for dt, _ in rnd["steps"]["pretrain"]]))
                     for rnd in self.rounds[:len(round_times)]]
        return per_round, text

    def counters(self):
        stage_tokens = self.rounds[0]["tokens"]["stage1"] + self.rounds[0]["tokens"]["stage2"]
        return {"masking.tokens_per_step": statistics.mean(stage_tokens)}


WORKLOADS = {w.name: w for w in (DecodeLong, EvalSweep, TrainMask)}
