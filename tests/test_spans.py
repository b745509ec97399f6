"""The benchmark's span tracer wraps package attributes by name; each must exist."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_benchmark_span_targets_exist():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.REQUEST_TARGETS + spans.LAYER_TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert targets and not missing
