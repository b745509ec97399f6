"""Smoke test of tools/margin.py, the seed-margin report for criteria 7 and 8."""
import importlib.util
from pathlib import Path

import pytest

MARGIN = Path(__file__).resolve().parents[1] / "tools" / "margin.py"


@pytest.fixture(scope="module")
def margin():
    spec = importlib.util.spec_from_file_location("margin_tool", MARGIN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_prints_one_verdict_line_per_seed(margin, capsys):
    margin.main(["0", "1", "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 0", "seed 1"]
    assert all("criterion 7 " in line and "criterion 8 " in line for line in lines)


def test_a_chosen_ratio_reports_both_comparisons(margin, monkeypatch, capsys):
    # every evaluation scores 1.0, so the largest ratio is chosen and both criteria hold
    monkeypatch.setattr(margin.experiment, "evaluate_mode", lambda *args, **kwargs: (1.0, None))
    margin.main(["0", "--tiny"])
    assert capsys.readouterr().out == (
        "seed 0: full 1.000; at prune ratio 0.625: learned 1.000 >= static 1.000 >= "
        "dynamic 1.000, criterion 7 PASS; stage-2 1.000 >= stage-1 1.000, criterion 8 PASS\n")
