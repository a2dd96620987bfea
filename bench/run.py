"""helmfd benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload {sweep,pipeline,stream} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a helmfd checkout; the package is imported from its
``src`` directory, with BLAS on one thread.
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates traced and untraced units and reports the per-layer
metrics (see tracing.py). Every run checks the program's outputs; an
operation whose check fails counts in ``failed`` and is not timed.

Before the last line the run prints one ``metric`` line per figure with its
unit and sample count, and a ``report`` JSON line holding the environment and
every metric. The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--workload all`` runs the three workloads one after another, each in its
own interpreter, and prints the workload-specific end-to-end metrics of all
three.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pickle
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
PR_SET_PDEATHSIG = 1

# Metrics every workload reports (BENCHMARK.json lists the same names).
END_TO_END = ("setup_s", "op_ms", "rows_per_s", "peak_rss_mb")
# The workload-specific names each workload also prints.
NAMED = {
    "sweep": ("setup_s", "rep_s", "helm_set_accuracy_pct", "elm_set_accuracy_pct",
              "pca_elm_set_accuracy_pct", "peak_rss_mb", "error_rate", "host_speed"),
    "pipeline": ("setup_s", "cycle_s", "train_s", "peak_rss_mb", "error_rate", "host_speed"),
    "stream": ("setup_s", "sample_ms.p50", "sample_ms.p99", "score_rows_per_s",
               "peak_rss_mb", "error_rate", "host_speed"),
}


def pin_blas_threads() -> None:
    """One BLAS thread for the one caller: the other cores stay free for the
    machine's background work, which otherwise stalls a spinning BLAS worker
    and makes timings jump between runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import helmfd from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "helmfd" / "__init__.py").is_file():
        raise SystemExit(f"error: no helmfd package under {src}")
    sys.path.insert(0, str(src))
    import helmfd
    if Path(helmfd.__file__).resolve().parent != (src / "helmfd").resolve():
        raise SystemExit(f"error: helmfd imported from {helmfd.__file__}")


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        fn = next((getattr(handle, n) for n in names if hasattr(handle, n)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out[Path(lib).name] = fn()
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_free_memory() -> None:
    """Collect garbage and return the C heap's free pages to the system
    (glibc only). Otherwise the resident set a forked child starts from
    depends on how much freed memory the set-ups happened to leave in the
    heap: about 40 MB more or less from one run to the next."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def in_child(fn):
    """Run fn in a forked child process and return what it returns.

    A forked child's peak resident set starts from the memory it inherits,
    so ``peak_rss_mb`` read in the child covers the operations and the state
    they hold, not the transient peaks of the set-ups before them."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            prctl = getattr(ctypes.CDLL(None), "prctl", None)
            if prctl is not None:           # end with the parent (Linux)
                prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
            os.close(r)
            data = pickle.dumps(fn())
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the measuring process failed (wait status {status})")
    return pickle.loads(data)


def run_workload(wl, seconds: float, trace: bool, min_units: int | None = None) -> dict:
    """Set up `wl.setup_reps` times in all, then, in a forked child, run
    units until `seconds` have passed and at least `min_units` are done.
    Returns the run's figures."""
    from workloads import pooled

    setup_s, refs, setups = [], [], []

    def set_up():
        refs.append(wl.train_ref())
        t0 = time.perf_counter()
        setups.append(wl.setup())
        setup_s.append(time.perf_counter() - t0)
        refs.append(wl.train_ref())

    # Half the set-ups run after the operations, so that they sample the
    # whole run's span of host speeds, like the operations.
    after = wl.setup_reps // 2
    for _ in range(wl.setup_reps - after):
        set_up()
    min_units = wl.min_units if min_units is None else min_units
    release_free_memory()
    result = in_child(lambda: measure(wl, seconds, trace, min_units, setups))
    for _ in range(after):
        set_up()
    result["figures"]["setup_s"] = (pooled(setup_s, refs, "training"), "s",
                                    len(setup_s))
    result["setup_samples"] = setup_s
    return result


def measure(wl, seconds: float, trace: bool, min_units: int, setups: list) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import median

    tracer = Tracer() if trace else None
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < min_units or time.perf_counter() < deadline:
        traced = tracer is not None and len(units) % 2 == 0
        with tracer.installed() if traced else nullcontext():
            samples = wl.unit(len(units))
        if traced:
            tracer.fold()
        units.append((traced, samples))

    samples = [s for _, unit in units for s in unit]
    failed = sum(not s.ok for s in samples)
    figures = dict(wl.summary(units, setups))
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    figures["error_rate"] = (failed / len(samples), "ratio", len(samples))
    result = {"attempted": len(samples), "failed": failed, "figures": figures}

    if tracer is not None:
        def unit_s(flag):
            return [sum(s.seconds for s in unit) for t, unit in units if t == flag]
        traced_s, plain_s = unit_s(True), unit_s(False)
        overhead = ((median(traced_s) - median(plain_s)) / wl.ops_per_unit
                    if plain_s else float("nan"))
        ops = len(traced_s) * wl.ops_per_unit
        result["layers"] = layer_metrics(tracer.totals, ops, overhead)
        result["spans"] = {name: {k: v / ops for k, v in tot.items()}
                           for name, tot in sorted(tracer.totals.items())}
        result["missing_layers"] = sorted(set(wl.layers) - tracer.layers_seen())
    return result


def run_all(args) -> int:
    import subprocess
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMED:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
        for metric in NAMED[name]:
            fig = report["figures"][metric]
            print(f"metric {name}.{metric} = {fig['value']} {fig['unit']} "
                  f"(n={fig['samples']})")
            if fig["value"] is not None:
                metrics[f"{name}.{metric}"] = {"value": fig["value"], "unit": fig["unit"]}
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMED, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas_threads()
    import_package()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        result = run_workload(wl, args.seconds, bool(args.trace))
    finally:
        wl.close()

    if args.trace and result["missing_layers"]:
        print(f"error: traced run recorded no spans for layers "
              f"{result['missing_layers']}", file=sys.stderr)
        return 1
    figures = {name: {"value": v, "unit": u, "samples": n}
               for name, (v, u, n) in result["figures"].items()}
    for name in NAMED[args.workload]:
        f = figures[name]
        print(f"metric {name} = {f['value']} {f['unit']} (n={f['samples']})")
    chosen = result["layers"] if args.trace else {
        name: (figures[name]["value"], figures[name]["unit"]) for name in END_TO_END}
    if args.trace:
        for name, (v, u) in chosen.items():
            print(f"layer {name} = {v} {u}")
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "figures": figures,
        "setup_samples_s": result["setup_samples"],
        "spans_per_op": result.get("spans")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
