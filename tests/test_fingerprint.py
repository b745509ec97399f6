"""Smoke test of the bit-identity fingerprint script on its tiny model."""
import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def test_fingerprint_is_deterministic_and_complete(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    outputs = []
    for _ in range(2):
        fingerprint.main(["--tiny"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = dict(line.split(": ", 1) for line in outputs[0].splitlines())
    reports = [f"report_{mode}.json sha256" for mode in
               ["full", "learned", "static_norm", "dynamic_norm", "whf_streaming"]]
    containers = [f"{name}.pkv sha256" for name in ["model", "beta", "alpha"]]
    head = ["tasks sha256", "pretrain losses", "stage1 losses", "stage2 losses", "params sha256",
            "alpha sha256", "decode logits sha256"]
    assert list(lines) == head + reports + containers
    counts = {"pretrain losses": 16, "stage1 losses": 4, "stage2 losses": 2}
    for name, n in counts.items():
        losses = [float(x) for x in lines[name].split()]
        assert len(losses) == n and np.isfinite(losses).all()
    for name in ["tasks sha256", "params sha256"] + reports + containers:
        assert len(lines[name]) == 64
    decode = lines["decode logits sha256"].split()
    assert decode[::2] == ["ones", "streaming"] and all(len(h) == 64 for h in decode[1::2])
    assert decode[1] != decode[3]  # the streaming head changes the logits
