"""The benchmark's tracer wraps package names that nothing else in the package
may need; this keeps them from being tidied away while the tracer uses them."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists():
    tracing = load_tracing()
    assert tracing.BOUNDARIES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.BOUNDARIES
        if attr not in vars(owner)
    ]
    assert missing == []
