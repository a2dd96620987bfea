"""Command-line surface: generate / train / calibrate / detect / benchmark.

Every command echoes its fully resolved configuration (defaults, config-file
values, flags) as JSON into its output directory, so any result can be
reproduced from the artifacts alone. The helmfd command (console) runs on
one BLAS thread (data.one_blas_thread), so its models and reports are the
same on any core count; main, called in-process, keeps the caller's
setting. Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numerical
error, 130 interrupted.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import detector, helm, metrics, synth
from .data import (RngStream, one_blas_thread, read_csv_matrix,
                   replaced_when_done)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_INTERRUPT = 130

OUT_ENV = "HELMFD_OUT"


class UsageError(Exception):
    pass


def _load_config_file(path) -> dict:
    """Plain key = value lines in UTF-8, a leading byte-order mark dropped;
    '#' starts a comment. Values stay strings and are coerced by argparse
    types when applied as defaults."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Config-file values act as defaults; explicit flags override them.
    Values are installed with set_defaults on the chosen subcommand, so
    argparse's own precedence (flag > default) does the rest. Namespace
    pre-seeding would not work here: subcommands parse into a fresh namespace
    and copy it over the outer one, clobbering anything seeded."""
    # the first pass finds only the command and --config: the full parser
    # would stop at a missing required option before the file is read. Any
    # error of its own is left to the full parser, which reports it with the
    # subcommand's usage.
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False,
                                  exit_on_error=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config")
    try:
        found, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return parser.parse_args(argv)
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices.get(found.command)
    if found.config and sub is not None:
        raw = _load_config_file(found.config)
        types = {a.dest: a.type for a in sub._actions
                 if a.dest not in ("help", "config")}
        flags = {a.dest for a in sub._actions
                 if isinstance(a, (argparse._StoreTrueAction, argparse._StoreFalseAction))}
        required = {a.dest: a.option_strings[0] for a in sub._actions
                    if a.required}
        for key, val in raw.items():
            if key not in types:
                raise UsageError(f"unknown config key: {key}")
            if key in required:
                raise UsageError(f"config key {key}: pass {required[key]} "
                                 "on the command line")
            conv = _parse_bool if key in flags else types[key] or str
            try:
                sub.set_defaults(**{key: conv(val)})
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"bad value for {key}: {val}") from exc
    return parser.parse_args(argv)


def _echo_config(outdir: Path, command: str, args: argparse.Namespace,
                 extra: dict | None = None) -> None:
    doc = {"command": command}
    doc.update({k: v for k, v in sorted(vars(args).items()) if k != "func"})
    if extra:
        doc.update(extra)
    with replaced_when_done(outdir / f"{command}_config.json") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def _outdir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV)
    if not out:
        raise UsageError(f"--out is required (or set {OUT_ENV})")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_matrix(path):
    """read_csv_matrix, a file that does not parse being an I/O error; its
    message already names the file."""
    try:
        return read_csv_matrix(path)
    except ValueError as exc:
        raise OSError(str(exc)) from exc


def _settings(cls, **values):
    """cls(**values), a ValueError being a usage error: a command checks its
    settings before it reads any file."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_list(kind, what: str):
    """The argparse type of a comma list of `kind` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",") if v.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from exc
    return parse


_parse_floats = _parse_list(float, "a float list")
_parse_ints = _parse_list(int, "an int list")


def _parse_bool(text: str) -> bool:
    """A config-file value for an on/off flag."""
    spellings = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}
    try:
        return spellings[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"not a boolean: {text!r}") from None


# --- generate ---------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        spec = synth.GeneratorSpec(n=args.n, reading=args.reading,
                                   seed=args.seed, allow_any_n=args.allow_any_n)
    except ValueError as exc:
        hint = ("" if args.allow_any_n or args.n in synth.N_CHOICES
                else " (pass --allow-any-n to override)")
        raise UsageError(f"{exc}{hint}") from exc
    outdir = _outdir(args)
    csv_path = outdir / synth.DATA_FILE
    if csv_path.exists() and not args.force:
        raise OSError(f"{csv_path} exists; pass --force to overwrite")
    ds = synth.generate(spec, RngStream(args.seed,
                                         (metrics.DATA_STREAM, args.rep)))
    synth.write_dataset(ds, outdir)
    _echo_config(outdir, "generate", args)
    print(f"wrote {csv_path} ({ds.X.shape[0]}x{ds.X.shape[1]}) and split files")
    return EXIT_OK


# --- train ------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _settings(helm.HelmConfig, layer_sizes=args.layers, lam=args.lam,
                    C=args.C, ensemble_size=args.ensemble, seed=args.seed)
    _, X = _read_matrix(args.data)
    if len(X) < 2:
        # normalization needs a spread over at least two rows
        raise UsageError(f"{args.data} has {len(X)} row; train needs at "
                         "least 2")
    stream = RngStream(args.seed, (metrics.FAMILIES["helm"].stream, args.rep))
    members = helm.train_ensemble(X, cfg, stream)
    model_path = Path(args.model)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    helm.save_ensemble(model_path, members)
    _echo_config(model_path.parent, "train", args)
    print(f"trained {cfg.ensemble_size}-member ensemble on "
          f"{X.shape[0]}x{X.shape[1]} -> {model_path}")
    return EXIT_OK


# --- calibrate --------------------------------------------------------------

def cmd_calibrate(args) -> int:
    settings = _settings(detector.DetectorConfig, gamma=args.gamma, p=args.p)
    members, _, outdir, Y = _score(args, detect=False)
    if len(Y) < 2:
        # a percentile of one residual is no calibration
        raise UsageError(f"{args.data} has {len(Y)} row; calibrate needs "
                         "at least 2")
    cfg = detector.calibrate(Y, gamma=settings.gamma, p=settings.p)
    helm.save_ensemble(args.model, members, detector=cfg)
    _echo_config(outdir, "calibrate", args, extra={"threshold": cfg.threshold})
    print(f"threshold = {cfg.threshold!r} (gamma={cfg.gamma:g}, p={cfg.p:g}) "
          f"-> {args.model}")
    return EXIT_OK


# --- detect -----------------------------------------------------------------

def cmd_detect(args) -> int:
    _, cfg, outdir, Y = _score(args, detect=True)
    dets = detector.decide(Y, cfg)
    detector.write_detections_csv(outdir / "detections.csv", dets)
    _echo_config(outdir, "detect", args, extra={"threshold": cfg.threshold})
    flagged = [d for d in dets if d.label == -1]
    line = (f"{len(dets)} points, {len(flagged)} flagged "
            f"({100.0 * len(flagged) / len(dets):.2f}%)")
    if flagged:
        mag = float(np.mean([d.magnification for d in flagged]))
        line += f", mean magnification over flagged {mag:.3f}"
    print(line)
    return EXIT_OK


def _score(args, detect: bool) -> tuple:
    """(model, detector settings, output directory, Y) of args.model on
    args.data, checked in this order before scoring: model, calibration
    (detect), data, width, then --out (detect; calibrate writes by the
    model)."""
    try:
        members, cfg = helm.load_ensemble(args.model)
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"{args.model}: not a readable model file ({exc})") from exc
    if detect and cfg is None:
        raise UsageError(f"uncalibrated model: {args.model} "
                         "(run the calibrate command first)")
    _, X = _read_matrix(args.data)
    want = len(members.norm.mean)
    if X.shape[1] != want:
        raise UsageError(f"schema mismatch: model expects {want} columns, "
                         f"{args.data} has {X.shape[1]}")
    outdir = _outdir(args) if detect else Path(args.model).parent
    return members, cfg, outdir, helm.run_ensemble(members, X)


# --- benchmark ----------------------------------------------------------------

def cmd_benchmark(args) -> int:
    plan = _settings(
        metrics.BenchmarkPlan, n=args.n, reading=args.reading,
        seed=args.seed, reps=args.reps, gammas=args.gammas, p=args.p,
        models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
        ensemble_size=args.ensemble,
        **{axis: getattr(args, axis) for axis in metrics.AXES})
    outdir = _outdir(args)

    def progress(rep):
        print(f"rep {rep + 1}/{plan.reps} done", file=sys.stderr, flush=True)

    stop = None   # an interrupt, or an OSError from a worker that died
    try:
        report = metrics.run_benchmark(plan, jobs=args.jobs, progress=progress)
    except (KeyboardInterrupt, OSError) as exc:
        report = getattr(exc, "partial_report", metrics.ExperimentReport())
        stop = exc

    rows = report.rows()
    metrics.report_csv(outdir / "report.csv", rows)
    metrics.sweep_csv(outdir / "sweep.csv", rows)
    report.timings_csv(outdir / "timings.csv")
    report.to_json(outdir / "records.json")
    _echo_config(outdir, "benchmark", args, extra={"partial": stop is not None})
    if rows:
        print(metrics.accuracy_table(rows))
        for model in plan.models:
            pick = metrics.winning_cells(rows, model)
            print(f"best mean cell [{model}]: gamma={pick['gamma']:g} "
                  f"{pick['params']} (accuracy {100 * pick['accuracy']:.1f})")
    if isinstance(stop, OSError):
        raise stop
    if stop is not None:
        print("interrupted; partial results flushed", file=sys.stderr)
        return EXIT_INTERRUPT
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helmfd",
        description="Hierarchical ELM fault detection: synthetic benchmark "
                    "generation, training, calibration, detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file; flags override it")

    g = sub.add_parser("generate", help="write a synthetic dataset + splits")
    common(g)
    spec = synth.GeneratorSpec
    g.add_argument("--seed", type=int, default=spec.seed)
    g.add_argument("--out", help=f"output directory (default ${OUT_ENV})")
    g.add_argument("--n", type=int, default=spec.n,
                   help="number of base signals")
    g.add_argument("--reading", default=spec.reading, choices=synth.READINGS)
    g.add_argument("--rep", type=int, default=0,
                   help="repetition index (selects the data substream)")
    g.add_argument("--force", action="store_true")
    g.add_argument("--allow-any-n", action="store_true")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a HELM ensemble on healthy data")
    common(t)
    cfg = helm.HelmConfig
    t.add_argument("--seed", type=int, default=cfg.seed)
    t.add_argument("--data", required=True, help="healthy CSV (training split)")
    t.add_argument("--model", required=True, help="output model JSON path")
    t.add_argument("--layers", type=_parse_ints, default=cfg.layer_sizes,
                   help="autoencoder widths + head width, e.g. 20,100")
    t.add_argument("--lam", type=float, default=cfg.lam)
    t.add_argument("--C", type=float, default=cfg.C)
    t.add_argument("--ensemble", type=int, default=cfg.ensemble_size)
    t.add_argument("--rep", type=int, default=0,
                   help="repetition index (selects the training substream)")
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("calibrate", help="set the detection threshold")
    common(c)
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True, help="disjoint healthy CSV")
    det = detector.DetectorConfig
    c.add_argument("--gamma", type=float, default=det.gamma)
    c.add_argument("--p", type=float, default=det.p)
    c.set_defaults(func=cmd_calibrate)

    d = sub.add_parser("detect", help="score a CSV with a calibrated model")
    common(d)
    d.add_argument("--model", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--out", help=f"output directory (default ${OUT_ENV})")
    d.set_defaults(func=cmd_detect)

    b = sub.add_parser("benchmark", help="repeated synthetic experiment")
    common(b)
    plan = metrics.BenchmarkPlan
    b.add_argument("--seed", type=int, default=plan.seed)
    b.add_argument("--out", help=f"output directory (default ${OUT_ENV})")
    b.add_argument("--reps", type=int, default=plan.reps)
    b.add_argument("--n", type=int, default=plan.n)
    b.add_argument("--reading", default=plan.reading, choices=synth.READINGS)
    b.add_argument("--models", default=",".join(plan.models))
    b.add_argument("--gammas", type=_parse_floats, default=plan.gammas)
    b.add_argument("--p", type=float, default=plan.p)
    for axis in metrics.AXES:
        default = getattr(plan, axis)
        parse = _parse_ints if isinstance(default[0], int) else _parse_floats
        b.add_argument(f"--{axis.replace('_', '-')}", type=parse,
                       default=default, help=metrics.AXIS_HELP[axis])
    b.add_argument("--ensemble", type=int, default=plan.ensemble_size)
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_defaults(parser, list(sys.argv[1:] if argv is None else argv))
        # seeds and repetitions key numpy's SeedSequence, which takes no
        # negative entropy; --jobs counts worker processes
        for dest, least in {"seed": 0, "rep": 0, "jobs": 1}.items():
            if getattr(args, dest, least) < least:
                raise UsageError(f"--{dest} must be >= {least}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console() -> int:
    """The helmfd command: main on sys.argv, in a process of its own, so it
    sets the process's BLAS to one thread first."""
    one_blas_thread()
    return main()


if __name__ == "__main__":
    sys.exit(console())
