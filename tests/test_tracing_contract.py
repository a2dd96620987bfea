"""The benchmark's tracing contract. bench/tracing.py wraps helmfd functions
by module and name, and refuses to trace (LookupError) when one is gone, so
every name in its TARGETS must stay callable. bench/tests checks this too,
but the package's own suite does not collect bench/tests."""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_is_found(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    from helmfd import helm
    original = helm.run_ensemble
    with tracing.Tracer().installed():
        assert helm.run_ensemble is not original
    assert helm.run_ensemble is original
