"""The benchmark's tracing contract. bench/tracing.py wraps helmfd functions
by module and name, and refuses to trace (LookupError) when one is gone, so
every name in its TARGETS must stay callable. bench/tests checks this too,
but the package's own suite does not collect bench/tests. Some of those
names stay in their modules for the benchmark alone, and the package does
not export them. A span whose function the product never calls reads 0 on
every traced run, so the sweep's spans are checked for calls too."""
import importlib.util
import sys
from pathlib import Path

import pytest

import helmfd
from helmfd import metrics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# helm's and baselines' trainer aliases, which bind the old single-member
# trainer names to each family's one trainer so that the tracer's spans time
# it; their run_ensemble wrappers; and detector.labels_of: only bench/ calls
# them outside the tests
BENCH_ONLY = {"helm_train", "helm_run", "one_class_train", "one_class_run",
              "pca_elm_train", "pca_elm_run", "labels_of"}

# the spans of the file, model-file, decision and CLI paths, which a
# benchmark repetition does not take
OFF_SWEEP = {"helm.save", "helm.load", "data.write_csv", "data.read_csv",
             "detector.decide", "detector.write_csv", "cli.generate",
             "cli.train", "cli.calibrate", "cli.detect"}

# the run_ensemble wrappers: the product scores through run_ensemble itself
DARK = {"helm.run", "baselines.one_class_run", "baselines.pca_elm_run"}


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_found(tracing):
    from helmfd import helm
    original = helm.run_ensemble
    with tracing.Tracer().installed():
        assert helm.run_ensemble is not original
    assert helm.run_ensemble is original


def test_the_package_exports_what_it_defines_and_no_bench_only_name():
    assert [n for n in helmfd.__all__ if not hasattr(helmfd, n)] == []
    assert sorted(BENCH_ONLY & {*helmfd.__all__, *vars(helmfd)}) == []


def test_a_benchmark_repetition_lights_every_sweep_span(tracing):
    plan = metrics.BenchmarkPlan(reps=1, gammas=(1.5,), L1=(4,), L2=(10,),
                                 width=(10,), l_pca=(3,), ensemble_size=2)
    tracer = tracing.Tracer()
    with tracer.installed():
        metrics.benchmark_rep(plan, 0)
    tracer.fold()
    dark = {name for name in tracing.TARGETS.values()
            if tracer.totals.get(name, {}).get("calls", 0) == 0}
    # helm.train and the baselines' two train spans are among the lit ones
    assert dark == OFF_SWEEP | DARK
