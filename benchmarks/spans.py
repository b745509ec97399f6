"""Span recorder for the benchmark's traced runs.

The benchmark never edits the package: it replaces module and class
attributes of `prunekv` (for example `prunekv.cache.migrate_window`) with
wrappers that record one span per call, then puts the originals back.
Package code looks those names up at call time, so calls made inside the
package are recorded too. A span is (name, start, end, parent, request);
spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

from prunekv import analysis, autodiff, cache, masking, model, storage, tasks

# One request of eval_sweep is one greedy_decode call; its span is recorded
# in untraced runs too, as the request-latency clock.
REQUEST_TARGETS = [(cache, "greedy_decode", "cache.greedy_decode")]

LAYER_TARGETS = [
    (cache, "prefill_and_partition", "cache.partition"),
    (cache, "np_forward", "cache.np_forward"),
    (analysis, "np_forward", "cache.np_forward"),  # analysis imported it by name
    (cache, "decode_step", "cache.decode_step"),
    (cache, "migrate_window", lambda kv: "cache.migrate_window" if kv.pending >= kv.migrate_every
     else "cache.migrate_window.idle"),  # idle: returns at once, nothing to move
    (analysis, "static_norm_mask", "analysis.static_norm_mask"),
    (analysis, "dynamic_norm_mask", "analysis.dynamic_norm_mask"),
    (analysis, "high_freq_ratio", "analysis.high_freq_ratio"),
    (storage, "load_checkpoint", "storage.load"),
    (storage, "load_beta", "storage.load"),
    (storage, "save_json", "storage.save"),
    (storage, "save_checkpoint", "storage.save"),
    (storage, "save_beta", "storage.save"),
    (tasks, "generate", "tasks.generate"),
    (model, "_forward", "model.forward"),  # forward_full, forward_scaled and pretrain all call it
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff.Adam, "step", "autodiff.adam"),
    (masking, "top_s_r", "masking.top_s_r"),
]


class Tracer:
    """In-memory span recorder; `install` wraps targets, `uninstall` restores."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.requests = [], [], [], [], []
        self.request = None  # id shared by the spans of one request
        self._stack = []
        self._originals = []

    def install(self, targets):
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name):
        """`name` is the span name, or a function of the call's arguments that gives it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name(*args, **kwargs) if callable(name) else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.ends.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
        return traced

    def __len__(self):
        return len(self.names)

    def durations(self, name):
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self, since=0, request_prefix=None):
        """{name: (calls, total self seconds)} over spans recorded from `since`."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(since, n):
            p = self.parents[i]
            if p >= since:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0, 0.0])
        for i in range(since, n):
            req = self.requests[i]
            if request_prefix is not None and not (req or "").startswith(request_prefix):
                continue
            entry = out[self.names[i]]
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}


def span_cost(calls=20_000, repeats=5):
    """Seconds one recorded span adds to a call: the median over `repeats`
    batches of a wrapped no-op, less the same no-op unwrapped."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(costs)[repeats // 2]
