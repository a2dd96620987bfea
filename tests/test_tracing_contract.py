"""The benchmark's tracing contract. bench/tracing.py wraps helmfd functions
by module and name, and refuses to trace (LookupError) when one is gone, so
every name in its TARGETS must stay callable. bench/tests checks this too,
but the package's own suite does not collect bench/tests. Some of those
names stay in their modules for the benchmark alone, and the package does
not export them."""
import importlib.util
import sys
from pathlib import Path

import helmfd

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# helm's and baselines' single-member trainers and run_ensemble wrappers,
# and detector.labels_of: only bench/ calls them outside the tests
BENCH_ONLY = {"helm_train", "helm_run", "one_class_train", "one_class_run",
              "pca_elm_train", "pca_elm_run", "labels_of"}


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


def test_the_package_exports_what_it_defines_and_no_bench_only_name():
    assert [n for n in helmfd.__all__ if not hasattr(helmfd, n)] == []
    assert sorted(BENCH_ONLY & {*helmfd.__all__, *vars(helmfd)}) == []
