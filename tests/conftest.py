import multiprocessing
import time

import pytest

from helmfd import helm, metrics, synth
from helmfd.data import RngStream

BENCH_SEED = 42


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"worker processes outlived the test: {left}")


@pytest.fixture(scope="session")
def dataset0():
    """Repetition 0 of the shipped benchmark stream."""
    spec = synth.GeneratorSpec(n=5, reading="identity", seed=BENCH_SEED)
    return synth.generate(spec, RngStream(BENCH_SEED, (0, 0)))


@pytest.fixture(scope="session")
def helm_ensemble0(dataset0):
    """The shipped-configuration ensemble for repetition 0, drawn from the
    same substreams the benchmark engine uses."""
    tr = slice(*synth.SEGMENTS["train"])
    return helm.train_ensemble(dataset0.X[tr], helm.HelmConfig(),
                               RngStream(BENCH_SEED, (1, 0)))


@pytest.fixture(scope="session")
def bench20():
    """The full 20-repetition benchmark, run once per session; returns
    (report, wall seconds)."""
    t0 = time.perf_counter()
    report = metrics.run_benchmark(metrics.BenchmarkPlan())
    return report, time.perf_counter() - t0
