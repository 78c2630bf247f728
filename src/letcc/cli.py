"""Command-line entry point.

Subcommands: ``trial``, ``sweep``, ``crossval``, ``codec encode``,
``codec decode``.  stdout carries machine-readable output only; human
diagnostics go to stderr.  Exit codes: 0 success, 1 config or input error,
2 decode failure at runtime.

Matrix files use a plain text format: a header line ``dims R C`` followed
by R whitespace-separated rows of C decimal floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

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
    SCHEMES,
    StragglerModel,
    TrialSetup,
    WORKER_FUNCTIONS,
    run_trial,
    worker_for,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DECODE = 2


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


def _check_config(raw: dict, allowed: dict) -> dict:
    """Strict config check: unknown keys are rejected, values converted."""
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    out = {}
    for key, value in raw.items():
        try:
            out[key] = allowed[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return out


def _int_list(v):
    return tuple(int(x) for x in v)


def _float_list(v):
    return tuple(float(x) for x in v)


def _str_list(v):
    return tuple(str(x) for x in v)


def _opt_float(v):
    return None if v is None else float(v)


def _opt_int(v):
    return None if v is None else int(v)


_TRIAL_KEYS = {
    "scheme": str, "f": str, "k": int, "n": int, "s": int,
    "sigma0": float, "lambda_e": float, "lambda_d": float,
    "f_degree": _opt_int, "data": str, "d": int, "m": int, "seed": int,
}

_SCHEME_SWEEP_KEYS = {
    "kind": str, "schemes": _str_list, "f": str, "k": int, "sigma0": float,
    "lambda_e": float, "lambda_d_rule": str, "lambda_d_scale": float,
    "f_degree": _opt_int, "trials": int, "seed": int, "data": str, "d": int,
    "m": int,
}
_NSWEEP_KEYS = {**_SCHEME_SWEEP_KEYS, "n_values": _int_list, "s": _opt_int,
                "s_ratio": _opt_float}
_STRAGGLER_KEYS = {**_SCHEME_SWEEP_KEYS, "n": int, "s_values": _int_list}

_CROSSVAL_KEYS = {
    "kind": str, "f": str, "k": int, "n": int, "s": int, "sigma0": float,
    "trials": int, "seed": int, "data": str, "d": int, "m": int,
    "lambda_e_grid": _float_list, "lambda_d_grid": _float_list,
}


def _merge_flags(config: dict, args, names) -> dict:
    """Command-line flags override config-file values."""
    merged = dict(config)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def cmd_trial(args) -> int:
    cfg = {}
    if args.config:
        cfg = _check_config(_read_config(args.config), _TRIAL_KEYS)
    cfg = _merge_flags(cfg, args, ["scheme", "f", "k", "n", "s", "sigma0",
                                   "lambda_e", "lambda_d", "f_degree", "data",
                                   "d", "m", "seed"])
    for required in ("scheme", "f", "k", "n", "s"):
        if cfg.get(required) is None:
            raise ConfigError(f"missing required option --{required.replace('_', '-')}")
    if cfg["scheme"] not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}; choices: {SCHEMES}")
    if cfg["f"] not in WORKER_FUNCTIONS:
        raise ConfigError(f"unknown worker function {cfg['f']!r}; "
                          f"choices: {sorted(WORKER_FUNCTIONS)}")

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
    payload = asdict(metrics)
    payload["seed"] = list(metrics.seed)
    sys.stdout.write(experiments._dump_json(payload) + "\n")
    return EXIT_OK


def _outdir(args) -> str:
    if not args.out:
        raise ConfigError("--out directory is required")
    os.makedirs(args.out, exist_ok=True)
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
        write_csv(os.path.join(out, f"{stem}.csv"), report.rows)
    if "json" in fmts:
        write_json(os.path.join(out, f"{stem}.json"), report_to_dict(report))
    if "svg" in fmts and isinstance(report, SweepReport):
        write_svg(os.path.join(out, f"{stem}.svg"), report)
    return out


def cmd_sweep(args) -> int:
    raw = _read_config(args.config)
    return _run_kind(raw.get("kind", "n_sweep"), raw, args)


def cmd_crossval(args) -> int:
    return _run_kind("crossval", _read_config(args.config), args)


def _run_kind(kind: str, raw: dict, args) -> int:
    if kind not in _SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}; "
                          f"choices: {list(_SWEEP_KINDS)}")
    keys, run = _SWEEP_KINDS[kind]
    cfg = _check_config(raw, keys)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return run(cfg, args)


def _common_kwargs(cfg, args):
    return dict(
        func=cfg["f"],
        k=cfg["k"],
        sigma0=cfg.get("sigma0", 0.0),
        lambda_e=cfg.get("lambda_e", 0.0),
        lambda_d_rule=cfg.get("lambda_d_rule", "n**-4"),
        lambda_d_scale=cfg.get("lambda_d_scale", 1.0),
        f_degree=cfg.get("f_degree"),
        trials=cfg.get("trials", 20),
        master_seed=cfg.get("seed", 0),
        data_rule=cfg.get("data", "identity"),
        func_d=cfg.get("d", 1),
        func_m=cfg.get("m", 1),
        threads=args.threads,
    )


def _run_n_sweep(cfg: dict, args) -> int:
    for required in ("schemes", "f", "k", "n_values"):
        if not cfg.get(required):
            raise ConfigError(f"config key {required!r} is required and nonempty")
    config = SweepConfig(schemes=cfg["schemes"], n_values=cfg["n_values"],
                         s=cfg.get("s"), s_ratio=cfg.get("s_ratio"),
                         **_common_kwargs(cfg, args))
    report = sweep_n(config)
    out = _write_reports(args, "sweep", report)
    sys.stderr.write(f"sweep: {len(report.rows)} rows written to {out}\n")
    return EXIT_OK


def _run_straggler(cfg: dict, args) -> int:
    for required in ("schemes", "f", "k", "n", "s_values"):
        if not cfg.get(required):
            raise ConfigError(f"config key {required!r} is required and nonempty")
    config = StragglerSweepConfig(schemes=cfg["schemes"], n=cfg["n"],
                                  s_values=cfg["s_values"],
                                  **_common_kwargs(cfg, args))
    report = straggler_sweep(config)
    out = _write_reports(args, "straggler", report)
    sys.stderr.write(f"straggler sweep: {len(report.table)} rows written to {out}\n")
    return EXIT_OK


def _run_crossval(cfg: dict, args) -> int:
    for required in ("f", "k", "n"):
        if cfg.get(required) is None:
            raise ConfigError(f"config key {required!r} is required")
    _formats(args)  # crossval always writes JSON; reject a bad --format all the same
    config = CrossvalConfig(
        func=cfg["f"], k=cfg["k"], n=cfg["n"], s=cfg.get("s", 0),
        sigma0=cfg.get("sigma0", 0.0), trials=cfg.get("trials", 20),
        master_seed=cfg.get("seed", 0), data_rule=cfg.get("data", "identity"),
        func_d=cfg.get("d", 1), func_m=cfg.get("m", 1), threads=args.threads,
    )
    result = crossval_lambda(cfg.get("lambda_e_grid", (0.0,)),
                             cfg.get("lambda_d_grid", DEFAULT_LAMBDA_GRID),
                             config)
    payload = report_to_dict(result)
    if args.out:
        out = _outdir(args)
        write_json(os.path.join(out, "crossval.json"), payload)
        sys.stderr.write(f"crossval: table written to {out}\n")
    sys.stdout.write(experiments._dump_json(payload) + "\n")
    return EXIT_OK


_SWEEP_KINDS = {
    "n_sweep": (_NSWEEP_KEYS, _run_n_sweep),
    "straggler": (_STRAGGLER_KEYS, _run_straggler),
    "crossval": (_CROSSVAL_KEYS, _run_crossval),
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
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_codec_encode(args) -> int:
    inputs = read_matrix(args.input)
    grid = chebyshev_grid(inputs.shape[0], args.n)
    batch = encode(Dataset(inputs), grid, args.lambda_e)
    write_matrix(args.out, batch.coded)
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
    if len(indices) != outputs.shape[0]:
        raise ConfigError(f"{len(indices)} survivor indices for "
                          f"{outputs.shape[0]} output rows")
    result = decode(list(zip(indices, outputs)), grid, args.lambda_d)
    write_matrix(args.out, result.estimates)
    sys.stderr.write(f"decoded {result.survivor_count} survivor rows to "
                     f"{result.estimates.shape[0]} estimates\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="letcc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="trial worker threads (0 = auto)")
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
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("crossval", help="grid-search smoothing weights")
    c.add_argument("config", help="JSON crossval config")
    add_common(c)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodeFailure as exc:
        sys.stderr.write(f"decode failure: {exc}\n")
        return EXIT_DECODE
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
