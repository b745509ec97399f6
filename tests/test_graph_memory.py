"""Smoke test of the graph memory script on its tiny model."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "graph_memory.py"


def test_graph_memory_prints_the_graph_and_its_peak(capsys):
    spec = importlib.util.spec_from_file_location("graph_memory", SCRIPT)
    graph_memory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(graph_memory)
    graph_memory.main(["--tiny"])
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert list(lines) == ["graph after forward (2 x 31)",
                           "peak of answer_loss + backward (2 x 31)",
                           "peak of one pretraining step with Adam (2 x 31)",
                           "peak of np_forward (T = 256)"]
    graph, peak, step, prefill = (float(v.removesuffix(" MiB")) for v in lines.values())
    assert 0 < graph <= peak <= step and prefill > 0
