"""Command-line entry point.

Subcommands: ``trial``, ``sweep``, ``crossval``, ``codec encode``,
``codec decode``.  stdout carries machine-readable output only; human
diagnostics go to stderr.  Exit codes: 0 success, 1 config or input error,
2 decode failure at runtime, 3 a trial's risk above its l_dec + l_enc
bound (a numerical fault).

Matrix files use a plain text format: a header line ``dims R C`` followed
by R whitespace-separated rows of C decimal floats.

Notes (not part of ``--help``): an ``--out`` that exists and is not a
directory, or lies under a file, is refused before the first trial, and an
OSError from creating ``--out`` or writing a report or matrix file exits 1
with one ``error: cannot write PATH: ...`` line, as does a non-finite number
bound for a file.  ``main`` parses with one argparse tree per process
(``build_parser`` is cached, and parsing never changes the tree), so
repeated in-process calls pay for their work only.
A non-finite result (a trial's risk, a number bound for stdout or a file)
exits 1 with one ``error:`` line, no stdout payload and no file; numpy's
overflow and invalid-value warnings are off, as each such result is refused
explicitly, and a library warning prints as one ``warning: ...`` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import MISSING, fields

import numpy as np

from . import experiments
from .coding import DecodeFailure, Dataset, decode, encode
from .experiments import (
    CrossvalConfig,
    DEFAULT_LAMBDA_GRID,
    StragglerSweepConfig,
    SweepConfig,
    SweepReport,
    crossval_lambda,
    report_to_dict,
    straggler_sweep,
    sweep_n,
    write_csv,
    write_json,
    write_svg,
)
from .points import chebyshev_grid
from .sim import (
    NoiseModel,
    RiskBoundViolation,
    SCHEMES,
    StragglerModel,
    TrialSetup,
    WORKER_FUNCTIONS,
    WorkerReturns,
    run_trial,
    worker_for,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DECODE = 2
EXIT_RISK_BOUND = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


class ConfigError(ValueError):
    pass


def _read_config(path) -> dict:
    """Read a JSON config file holding one object."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def _check_config(raw: dict, allowed) -> dict:
    """Strict config check: unknown keys are rejected, values converted.

    A null value counts as not given, as an unset flag does.
    """
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    out = {}
    for key, value in raw.items():
        if value is None:
            continue
        try:
            out[key] = _CONVERTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def _int(value) -> int:
    """int() of an integral JSON number: booleans, strings and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """float() of a JSON number only: booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list(convert):
    """Converter of a JSON array to a tuple, each item through ``convert``."""
    def converter(value):
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(convert(x) for x in value)
    return converter


# Every config key of every command, with its converter.
_CONVERTERS = {
    "kind": _str, "scheme": _str, "schemes": _list(_str), "f": _str, "data": _str,
    "lambda_d_rule": _str, "k": _int, "n": _int, "s": _int, "d": _int, "m": _int,
    "f_degree": _int, "trials": _int, "seed": _int, "n_values": _list(_int),
    "s_values": _list(_int), "sigma0": _float, "s_ratio": _float, "lambda_e": _float,
    "lambda_d": _float, "lambda_d_scale": _float, "lambda_e_grid": _list(_float),
    "lambda_d_grid": _list(_float),
}

# Config dataclass fields whose config key is named otherwise.
_CONFIG_KEYS = {"func": "f", "master_seed": "seed", "data_rule": "data",
                "func_d": "d", "func_m": "m"}


def cmd_trial(args) -> int:
    # the trial's config keys are its flags; a given flag overrides the file
    flags = {key: value for key, value in vars(args).items() if key in _CONVERTERS}
    cfg = _check_config(_read_config(args.config), flags) if args.config else {}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    for required in ("scheme", "f", "k", "n", "s"):
        if required not in cfg:
            raise ConfigError(f"missing required option --{required}")

    setup = TrialSetup(
        scheme=cfg["scheme"],
        func=worker_for(cfg["f"], cfg.get("d", 4), cfg.get("m", 3)),
        grid=chebyshev_grid(cfg["k"], cfg["n"]),
        stragglers=StragglerModel(cfg["n"], cfg["s"]),
        noise=NoiseModel(cfg.get("sigma0", 0.0)),
        lambda_e=cfg.get("lambda_e", 0.0),
        lambda_d=cfg.get("lambda_d", 0.0),
        f_degree=cfg.get("f_degree"),
        data_rule=cfg.get("data", "uniform"),
    )
    metrics = run_trial(setup, cfg.get("seed", 0))
    sys.stdout.write(experiments._dump_json(metrics) + "\n")
    return EXIT_OK


def _output(write, path, *args, **kwargs) -> None:
    """``write(path, ...)``; an OSError or ValueError becomes a ConfigError naming ``path``."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_outdir(path) -> None:
    """Refuse an ``--out`` that cannot be made a directory, creating nothing."""
    head = path
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(f"cannot write {path}: {head} is not a directory")


def _outdir(args) -> str:
    _output(os.makedirs, args.out, exist_ok=True)
    return args.out


def _formats(args) -> set:
    choices = {"csv", "json", "svg"}
    fmts = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = fmts - choices
    if bad:
        raise ConfigError(f"unknown formats {sorted(bad)}; choices: {sorted(choices)}")
    return fmts


def _write_reports(args, stem: str, report) -> str:
    """Write the ``--format`` files of ``report`` into ``--out``; return it."""
    out = _outdir(args)
    fmts = _formats(args)
    if "csv" in fmts:
        _output(write_csv, os.path.join(out, f"{stem}.csv"), report.rows)
    if "json" in fmts:
        _output(write_json, os.path.join(out, f"{stem}.json"), report_to_dict(report))
    if "svg" in fmts and isinstance(report, SweepReport):
        _output(write_svg, os.path.join(out, f"{stem}.svg"), report)
    return out


def cmd_sweep(args) -> int:
    raw = _read_config(args.config)
    # checked first, as the kind decides which other keys are allowed; a
    # null kind counts as not given
    kind = _check_config({"kind": raw.get("kind")}, ("kind",)).get("kind", "n_sweep")
    return _run_kind(kind, raw, args)


def cmd_crossval(args) -> int:
    return _run_kind("crossval", _read_config(args.config), args)


def _run_kind(kind: str, raw: dict, args) -> int:
    """Build the kind's config dataclass from ``raw`` and run it.

    The allowed keys, the defaults and the required keys (fields without a
    default) all come from the dataclass fields; ``extra`` lists the keys
    that configure the run but are no field.  Every check, ``--out`` and
    ``--format`` included, happens before the first trial.
    """
    if kind not in _SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}; "
                          f"choices: {list(_SWEEP_KINDS)}")
    config_class, extra, run = _SWEEP_KINDS[kind]
    by_key = {_CONFIG_KEYS.get(f.name, f.name): f for f in fields(config_class)}
    cfg = _check_config(raw, {"kind", *by_key, *extra})
    if args.seed is not None:
        cfg["seed"] = args.seed
    for key, field in by_key.items():
        if key not in cfg and field.default is MISSING:
            raise ConfigError(f"config key {key!r} is required")
    _formats(args)  # reject a bad --format before running anything
    config = config_class(**{field.name: cfg[key] for key, field in by_key.items()
                             if key in cfg})
    if kind != "crossval" and not args.out:
        raise ConfigError("--out directory is required")
    if args.out:
        _check_outdir(args.out)
    return run(config, args, **{key: cfg.get(key, default)
                                for key, default in extra.items()})


def _run_n_sweep(config: SweepConfig, args) -> int:
    report = sweep_n(config)
    out = _write_reports(args, "sweep", report)
    sys.stderr.write(f"sweep: {len(report.rows)} rows written to {out}\n")
    return EXIT_OK


def _run_straggler(config: StragglerSweepConfig, args) -> int:
    report = straggler_sweep(config)
    out = _write_reports(args, "straggler", report)
    sys.stderr.write(f"straggler sweep: {len(report.table)} rows written to {out}\n")
    return EXIT_OK


def _run_crossval(config: CrossvalConfig, args, lambda_e_grid, lambda_d_grid) -> int:
    result = crossval_lambda(lambda_e_grid, lambda_d_grid, config)
    payload = report_to_dict(result)
    if args.out:
        out = _outdir(args)
        _output(write_json, os.path.join(out, "crossval.json"), payload)
        sys.stderr.write(f"crossval: table written to {out}\n")
    sys.stdout.write(experiments._dump_json(payload) + "\n")
    return EXIT_OK


# kind -> (config dataclass, runner's extra keys with their defaults, runner)
_SWEEP_KINDS = {
    "n_sweep": (SweepConfig, {}, _run_n_sweep),
    "straggler": (StragglerSweepConfig, {}, _run_straggler),
    "crossval": (CrossvalConfig, {"lambda_e_grid": (0.0,),
                                  "lambda_d_grid": DEFAULT_LAMBDA_GRID}, _run_crossval),
}


# ---------------------------------------------------------------------------
# Matrix files: "dims R C" header then R rows of C floats.

def read_matrix(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].strip():
        raise ConfigError(f"{path}:1: expected header 'dims R C' in empty file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "dims":
        raise ConfigError(f"{path}:1: expected header 'dims R C', got {lines[0]!r}")
    try:
        rows, cols = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ConfigError(f"{path}:1: non-integer dimensions in header") from exc
    if rows < 1 or cols < 1:
        raise ConfigError(f"{path}:1: dimensions must be positive")
    data = np.empty((rows, cols))
    body = lines[1:]
    filled = 0
    for offset, line in enumerate(body, start=2):
        if not line.strip():
            continue
        if filled >= rows:
            raise ConfigError(f"{path}:{offset}: more than {rows} data rows")
        parts = line.split()
        if len(parts) != cols:
            raise ConfigError(f"{path}:{offset}: expected {cols} values, got {len(parts)}")
        try:
            data[filled] = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{offset}: non-numeric value") from exc
        filled += 1
    if filled != rows:
        raise ConfigError(f"{path}:{len(lines) + 1}: expected {rows} data rows, got {filled}")
    return data


def write_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"dims {matrix.shape[0]} {matrix.shape[1]}"]
    for row in matrix:
        lines.append(" ".join(map(experiments._dump_json, row)))
    experiments._write(path, "\n".join(lines) + "\n")


def cmd_codec_encode(args) -> int:
    inputs = read_matrix(args.input)
    grid = chebyshev_grid(inputs.shape[0], args.n)
    batch = encode(Dataset(inputs), grid, args.lambda_e)
    _output(write_matrix, args.out, batch.coded)
    sys.stderr.write(f"encoded {inputs.shape[0]} inputs to {batch.n} coded rows\n")
    return EXIT_OK


def cmd_codec_decode(args) -> int:
    outputs = read_matrix(args.input)
    grid = chebyshev_grid(args.k, args.n)
    if args.survivors:
        try:
            indices = [int(i) for i in args.survivors.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--survivors must be comma-separated integers") from exc
    else:
        if outputs.shape[0] != args.n:
            raise ConfigError(
                f"{outputs.shape[0]} output rows for N={args.n} workers: "
                "pass --survivors with the beta indices of the surviving rows")
        indices = list(range(args.n))
    result = decode(WorkerReturns(indices, outputs), grid, args.lambda_d)
    _output(write_matrix, args.out, result.estimates)
    sys.stderr.write(f"decoded {result.survivor_count} survivor rows to "
                     f"{result.estimates.shape[0]} estimates\n")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process and never changed by parsing."""
    parser = _Parser(prog="letcc", description=(__doc__ or "").partition("\n\nNotes")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect "
                            "(trials always run in order on one thread)")

    def add_reports(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default="csv,json,svg",
                       help="comma list of csv,json,svg (svg applies to n_sweep only)")

    t = sub.add_parser("trial", help="run one pipeline trial, JSON metrics on stdout")
    t.add_argument("--config", default=None, help="JSON config file (flags override)")
    t.add_argument("--scheme", choices=SCHEMES, default=None)
    t.add_argument("--f", default=None, help=f"worker function: {sorted(WORKER_FUNCTIONS)}")
    t.add_argument("--k", type=int, default=None, help="number of inputs")
    t.add_argument("--n", type=int, default=None, help="number of workers")
    t.add_argument("--s", type=int, default=None, help="straggler count")
    t.add_argument("--sigma0", type=float, default=None, help="worker noise std")
    t.add_argument("--lambda-e", dest="lambda_e", type=float, default=None)
    t.add_argument("--lambda-d", dest="lambda_d", type=float, default=None)
    t.add_argument("--f-degree", dest="f_degree", type=int, default=None)
    t.add_argument("--data", choices=("uniform", "identity"), default=None)
    t.add_argument("--d", type=int, default=None, help="tanh_net input dim")
    t.add_argument("--m", type=int, default=None, help="tanh_net output dim")
    add_common(t)
    t.set_defaults(func=cmd_trial)

    s = sub.add_parser("sweep", help="run a sweep config; writes report files")
    s.add_argument("config", help="JSON sweep config (kind: n_sweep|straggler|crossval)")
    add_common(s)
    add_reports(s)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("crossval", help="grid-search smoothing weights")
    c.add_argument("config", help="JSON crossval config")
    add_common(c)
    add_reports(c)
    c.set_defaults(func=cmd_crossval)

    codec = sub.add_parser("codec", help="stand-alone encode/decode on matrix files")
    csub = codec.add_subparsers(dest="codec_command", required=True)

    ce = csub.add_parser("encode", help="encode a data matrix to coded rows")
    ce.add_argument("input", help="matrix file of K rows x d columns")
    ce.add_argument("--n", type=int, required=True, help="number of workers")
    ce.add_argument("--lambda-e", dest="lambda_e", type=float, default=0.0)
    ce.add_argument("--out", required=True, help="output matrix file")
    ce.set_defaults(func=cmd_codec_encode)

    cd = csub.add_parser("decode", help="decode survivor outputs to estimates")
    cd.add_argument("input", help="matrix file of survivor rows x m columns")
    cd.add_argument("--k", type=int, required=True, help="number of inputs")
    cd.add_argument("--n", type=int, required=True, help="number of workers")
    cd.add_argument("--survivors", default=None,
                    help="comma-separated beta indices of surviving rows")
    cd.add_argument("--lambda-d", dest="lambda_d", type=float, default=0.0)
    cd.add_argument("--out", required=True, help="output matrix file")
    cd.set_defaults(func=cmd_codec_decode)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one ``warning:`` line on stderr."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.showwarning = _show_warning
            return args.func(args)
    except DecodeFailure as exc:
        sys.stderr.write(f"decode failure: {exc}\n")
        return EXIT_DECODE
    except RiskBoundViolation as exc:
        sys.stderr.write(f"risk bound failure: {exc}\n")
        return EXIT_RISK_BOUND
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
