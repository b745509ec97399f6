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
    assert list(lines) == ["pretrain losses", "stage1 losses", "stage2 losses", "params sha256",
                           "alpha sha256"]
    counts = {"pretrain losses": 16, "stage1 losses": 4, "stage2 losses": 2}
    for name, n in counts.items():
        losses = [float(x) for x in lines[name].split()]
        assert len(losses) == n and np.isfinite(losses).all()
    assert len(lines["params sha256"]) == 64
