"""Sweeps, cross-validation, slope fitting, and report emission.

Everything here is a pure function of (config, master seed): reruns produce
byte-identical CSV/JSON/SVG artifacts.  Per-point trial seeds derive from
(master_seed, point key, trial index), so schemes sharing a seed see the
same data draws, straggler sets, and noise.  The sweeps make one
:func:`letcc.sim.monte_carlo` call per scheme and point, the
cross-validation one :func:`letcc.sim.monte_carlo_lambdas` per lambda_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial

import numpy as np

from .points import _check_points, _integer, _items, _real, _seed, _string, chebyshev_grid
from .sim import (
    NoiseModel,
    StragglerModel,
    TrialSetup,
    _data_rule,
    _scheme,
    _worker_name,
    make_worker,
    monte_carlo,
    monte_carlo_lambdas,
)

__all__ = [
    "LAMBDA_RULES",
    "DEFAULT_LAMBDA_GRID",
    "MSE_FLOOR",
    "SweepConfig",
    "SlopeFit",
    "SweepReport",
    "StragglerSweepConfig",
    "StragglerSweepReport",
    "CrossvalConfig",
    "CrossvalResult",
    "fit_loglog_slope",
    "sweep_n",
    "straggler_sweep",
    "crossval_lambda",
    "CSV_HEADER",
    "write_csv",
    "write_json",
    "write_svg",
    "report_to_dict",
]

# Decoder smoothing rules: lambda_d as a function of (N, S), times a scale.
# "survivors**-0.8" follows the rate-optimal order for noisy computation;
# its scale carries the problem-dependent constant the rate theory leaves
# free.
LAMBDA_RULES = {
    "fixed": lambda n, s: 1.0,
    "n**-4": lambda n, s: float(n) ** -4,
    "survivors**-0.8": lambda n, s: float(n - s) ** -0.8,
}

# Default cross-validation grid: one value per decade over the observed
# useful range.
DEFAULT_LAMBDA_GRID = tuple(10.0 ** -e for e in range(13, -1, -1))

# Mean MSEs below this are numerical floor, not statistical decay, and are
# excluded from log-log slope fits.
MSE_FLOOR = 1e-18


def _lambda_rule(name, what: str) -> str:
    """``name`` if it is one of ``LAMBDA_RULES``, a string named ``what`` in errors."""
    if _string(name, what) not in LAMBDA_RULES:
        raise ValueError(f"unknown lambda_d rule {name!r}; choices: {sorted(LAMBDA_RULES)}")
    return name


# Config fields whose config key is named otherwise.
_CONFIG_KEYS = {"func": "f", "master_seed": "seed", "data_rule": "data",
                "func_d": "d", "func_m": "m"}

# The rule of each config field, naming it by its config key: a count, real
# or seed rule, the rule of a name's choices (the one that refuses it where
# the name is used), or the list rule with its items' rule.  s_values, whose
# items lie below the checked n, is checked by its config.
_FIELD_RULES = {name: partial(rule, what=_CONFIG_KEYS.get(name, name)) for rule, names in (
    (_integer, ("k", "n", "s", "f_degree", "trials", "func_d", "func_m")),
    (_real, ("sigma0", "s_ratio", "lambda_e", "lambda_d_scale")),
    (_seed, ("master_seed",)),
    (_worker_name, ("func",)),
    (_lambda_rule, ("lambda_d_rule",)),
    (_data_rule, ("data_rule",)),
    (partial(_items, rule=_scheme), ("schemes",)),
    (partial(_items, rule=_integer), ("n_values",))) for name in names}


def _check_fields(config) -> None:
    """Put ``config``'s fields through their rules (a None default stays); trials >= 1."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in _FIELD_RULES and not (value is None and f.default is None):
            object.__setattr__(config, f.name, _FIELD_RULES[f.name](value))
    if config.trials < 1:
        raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    """Mean-error-versus-N sweep over one or more schemes."""

    schemes: tuple[str, ...]
    func: str
    k: int
    n_values: tuple[int, ...]
    s: int | None = None
    s_ratio: float | None = None
    sigma0: float = 0.0
    lambda_e: float = 0.0
    lambda_d_rule: str = "n**-4"
    lambda_d_scale: float = 1.0
    f_degree: int | None = None
    trials: int = 20
    master_seed: int = 0
    data_rule: str = "identity"
    func_d: int = 1
    func_m: int = 1

    def __post_init__(self):
        _check_fields(self)
        _check_points("n_values", np.array(self.n_values))
        if not self.schemes:
            raise ValueError("at least one scheme required")
        if (self.s is None) == (self.s_ratio is None):
            raise ValueError("give exactly one of s or s_ratio")
        for n in self.n_values:
            if self.s_for(n) >= n:
                raise ValueError(f"S must stay below N (N={n}, S={self.s_for(n)})")

    def s_for(self, n: int) -> int:
        return self.s if self.s is not None else round(self.s_ratio * n)


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(mse) against log(N)."""

    slope: float
    intercept: float
    r2: float
    points_used: int


def fit_loglog_slope(points) -> SlopeFit:
    """OLS slope of ln(mse) vs ln(N) for ``points`` = [(n, mse), ...]."""
    pts = [(float(n), float(m)) for n, m in points]
    if len(pts) < 2:
        raise ValueError("slope fit needs at least two points")
    if any(m <= 0 for _, m in pts):
        raise ValueError("slope fit requires strictly positive mse values")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # flat to rounding at the scale of ln(mse): nothing to explain, an exact fit
    if ss_tot <= len(y) * (1e-12 * float(np.abs(y).max())) ** 2:
        r2 = 1.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(float(coef[0]), float(coef[1]), r2, len(pts))


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple[dict, ...]
    slopes: dict
    excluded: dict

    def points(self, scheme: str):
        return [(r["N"], r["mean_mse"]) for r in self.rows if r["scheme"] == scheme]


def _row(scheme, config, n, s, lambda_d, agg, seed):
    return {
        "scheme": scheme,
        "f": config.func,
        "K": config.k,
        "N": n,
        "S": s,
        "sigma0": config.sigma0,
        "lambda_e": config.lambda_e,
        "lambda_d": lambda_d,
        "trials": agg.trials,
        "mean_mse": agg.mean_mse,
        "std_mse": agg.std_mse,
        "ci95_lo": agg.ci95_lo,
        "ci95_hi": agg.ci95_hi,
        "mean_rmse": agg.mean_rmse,
        "mean_relacc": agg.mean_relacc,
        "seed": seed,
    }


def _run_points(config, points):
    """Rows and aggregates of every scheme at each (seed key, N, S) point.

    Yields one (rows, aggregates) pair per point, each a list in the order
    of ``config.schemes``.  A point's schemes share one grid and one
    lambda_d, and all their setups are built before any trial runs; points
    of one N share one grid, and the encoders cached on it.
    Trial t of a point uses seed (master, key, t) for every scheme.
    """
    func = make_worker(config.func, config.func_d, config.func_m)
    grid_for = cache(partial(chebyshev_grid, config.k))
    for key, n, s in points:
        lambda_d = config.lambda_d_scale * LAMBDA_RULES[config.lambda_d_rule](n, s)
        grid = grid_for(n)
        setups = [TrialSetup(scheme=scheme, func=func, grid=grid,
                             stragglers=StragglerModel(n, s),
                             noise=NoiseModel(config.sigma0), lambda_e=config.lambda_e,
                             lambda_d=lambda_d, f_degree=config.f_degree,
                             data_rule=config.data_rule)
                  for scheme in config.schemes]
        aggs = [monte_carlo(setup, config.trials, (config.master_seed, key))
                for setup in setups]
        yield ([_row(setup.scheme, config, n, s, lambda_d, agg, config.master_seed)
                for setup, agg in zip(setups, aggs)], aggs)


def sweep_n(config: SweepConfig) -> SweepReport:
    """One Monte-Carlo aggregate per (scheme, N), plus log-log slopes.

    Rows run scheme by scheme, each in ascending N.  Points whose mean MSE
    sits at the numerical floor are excluded from the slope fit and listed
    under ``excluded`` with an ``at_floor`` marker.
    """
    by_point = [rows for rows, _ in _run_points(
        config, [(n, n, config.s_for(n)) for n in config.n_values])]
    rows = tuple(row for column in zip(*by_point) for row in column)
    excluded = {scheme: [] for scheme in config.schemes}
    usable = {scheme: [] for scheme in config.schemes}
    for row in rows:
        if row["mean_mse"] < MSE_FLOOR:
            excluded[row["scheme"]].append({"N": row["N"], "reason": "at_floor"})
        else:
            usable[row["scheme"]].append((row["N"], row["mean_mse"]))
    slopes = {scheme: fit_loglog_slope(usable[scheme]) if len(usable[scheme]) >= 2
              else None for scheme in config.schemes}
    return SweepReport(config=config, rows=rows, slopes=slopes, excluded=excluded)


@dataclass(frozen=True)
class StragglerSweepConfig:
    """Paired comparison of schemes across straggler counts at fixed N."""

    schemes: tuple[str, ...]
    func: str
    k: int
    n: int
    s_values: tuple[int, ...]
    sigma0: float = 0.0
    lambda_e: float = 0.0
    lambda_d_rule: str = "n**-4"
    lambda_d_scale: float = 1.0
    f_degree: int | None = None
    trials: int = 20
    master_seed: int = 0
    data_rule: str = "identity"
    func_d: int = 1
    func_m: int = 1

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "s_values", _items(self.s_values, "s_values",
                                                    partial(_integer, n=self.n)))
        if not self.schemes:
            raise ValueError("at least one scheme required")
        if not self.s_values:
            raise ValueError("s_values must be nonempty")


@dataclass(frozen=True)
class StragglerSweepReport:
    config: StragglerSweepConfig
    rows: tuple[dict, ...]
    table: tuple[dict, ...]


def straggler_sweep(config: StragglerSweepConfig) -> StragglerSweepReport:
    """Run paired trials per S; one comparison row per straggler count.

    Trial t at straggler count S uses seed (master, S, t) for every scheme,
    so all schemes face identical data, straggler sets, and noise.  The
    comparison table carries per-scheme means plus the fraction of paired
    trials the first scheme wins (RMSE <=) against each other scheme.
    """
    table = []
    rows = []
    base = config.schemes[0]
    for s, (point_rows, aggs) in zip(config.s_values, _run_points(
            config, [(s, config.n, s) for s in config.s_values])):
        entry = {"S": s}
        for scheme, agg in zip(config.schemes, aggs):
            entry[f"{scheme}_mean_rmse"] = agg.mean_rmse
            entry[f"{scheme}_mean_relacc"] = agg.mean_relacc
            if scheme != base:
                wins = np.less_equal(aggs[0].columns.rmse, agg.columns.rmse)
                entry[f"{base}_wins_vs_{scheme}"] = float(np.mean(wins))
        table.append(entry)
        rows.extend(point_rows)
    return StragglerSweepReport(config=config, rows=tuple(rows), table=tuple(table))


@dataclass(frozen=True)
class CrossvalConfig:
    """Grid search over smoothing weights at one (K, N, S) operating point."""

    func: str
    k: int
    n: int
    s: int = 0
    sigma0: float = 0.0
    trials: int = 20
    master_seed: int = 0
    data_rule: str = "identity"
    func_d: int = 1
    func_m: int = 1

    __post_init__ = _check_fields


@dataclass(frozen=True)
class CrossvalResult:
    best_lambda_e: float
    best_lambda_d: float
    best_rmse: float
    table: tuple[dict, ...]


def crossval_lambda(lambda_e_grid, lambda_d_grid, config: CrossvalConfig) -> CrossvalResult:
    """Pick the (lambda_e, lambda_d) pair minimizing mean RMSE over trials.

    Every pair is scored on the same seeded trials (identical stragglers,
    noise, data), so the comparison is paired.  Both grids are checked
    (lists by :func:`letcc.points._items`, nonempty, every weight by
    :func:`letcc.points._real`) before any trial runs; then each lambda_e
    makes one :func:`letcc.sim.monte_carlo_lambdas` call at the whole
    lambda_d grid.  Near-ties (within a small relative
    epsilon of the minimum, which happens when the problem is solved exactly
    for many pairs) break toward the most regularized pair: largest lambda_d,
    then largest lambda_e.
    """
    e_grid = _items(lambda_e_grid, "lambda_e_grid", _real)
    d_grid = _items(lambda_d_grid, "lambda_d_grid", _real)
    if not e_grid or not d_grid:
        raise ValueError("lambda grids must be nonempty")
    func = make_worker(config.func, config.func_d, config.func_m)
    grid = chebyshev_grid(config.k, config.n)
    table = []
    for lam_e in e_grid:
        setup = TrialSetup(
            scheme="letcc",
            func=func,
            grid=grid,
            stragglers=StragglerModel(config.n, config.s),
            noise=NoiseModel(config.sigma0),
            lambda_e=lam_e,
            data_rule=config.data_rule,
        )
        aggs = monte_carlo_lambdas(setup, config.trials, config.master_seed, d_grid)
        table.extend({"lambda_e": lam_e, "lambda_d": lam_d, "mean_rmse": agg.mean_rmse}
                     for lam_d, agg in zip(d_grid, aggs))

    best_rmse = min(row["mean_rmse"] for row in table)
    tie_eps = 1e-12 + 1e-9 * best_rmse
    tied = [row for row in table if row["mean_rmse"] <= best_rmse + tie_eps]
    best = max(tied, key=lambda row: (row["lambda_d"], row["lambda_e"]))
    return CrossvalResult(
        best_lambda_e=best["lambda_e"],
        best_lambda_d=best["lambda_d"],
        best_rmse=best["mean_rmse"],
        table=tuple(table),
    )


# ---------------------------------------------------------------------------
# Report emission.  Floats carry 17 significant digits everywhere (_dump_json);
# NaN and inf, which JSON cannot hold, are refused before any file is opened.
# A dataclass at any depth is written as its report_to_dict.

CSV_HEADER = ("scheme,f,K,N,S,sigma0,lambda_e,lambda_d,trials,"
              "mean_mse,std_mse,ci95_lo,ci95_hi,mean_rmse,mean_relacc,seed")

_CSV_FIELDS = CSV_HEADER.split(",")


def _fmt(value) -> str:
    """A CSV cell: None is empty, a string bare, anything else as in JSON."""
    if value is None:
        return ""
    return value if isinstance(value, str) else _dump_json(value)


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` as it is: no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, rows) -> None:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row.get(f)) for f in _CSV_FIELDS))
    _write(path, "\n".join(lines) + "\n")


def _dump_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number {float(obj)}")
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _dump_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": ' + _dump_json(v, indent + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if is_dataclass(obj):
        return _dump_json(report_to_dict(obj), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    _write(path, _dump_json(obj) + "\n")


def report_to_dict(report) -> dict:
    """The fields of ``report`` in order, uncopied: the keys of its JSON."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


# ---------------------------------------------------------------------------
# Static SVG rendering of a log-log sweep (no plotting dependency; output is
# a pure function of the report).

_SVG_COLORS = {"letcc": "#1f77b4", "bacc": "#d62728", "lcc": "#2ca02c"}
_VIEW_W, _VIEW_H = 640, 480
_MARGIN = 60


def write_svg(path, report: SweepReport) -> None:
    _write(path, render_svg(report))


def render_svg(report: SweepReport) -> str:
    pts = {scheme: [(n, m) for n, m in report.points(scheme) if m > 0]
           for scheme in report.config.schemes}
    all_pts = [p for ps in pts.values() for p in ps]
    if not all_pts:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480">'
                "<text x=\"20\" y=\"40\">no positive points</text></svg>\n")

    lx = [math.log10(p[0]) for p in all_pts]
    ly = [math.log10(p[1]) for p in all_pts]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_pad = 0.05 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return _MARGIN + (v - x_lo) / (x_hi - x_lo) * (_VIEW_W - 2 * _MARGIN)

    def sy(v):
        return _VIEW_H - _MARGIN - (v - y_lo) / (y_hi - y_lo) * (_VIEW_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_VIEW_W - 2 * _MARGIN}" '
        f'height="{_VIEW_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{_VIEW_W / 2:.1f}" y="{_VIEW_H - 15}" text-anchor="middle" '
        f'font-size="13">N (log scale)</text>',
        f'<text x="15" y="{_VIEW_H / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 15 {_VIEW_H / 2:.1f})">mean MSE (log scale)</text>',
    ]

    for n in sorted({p[0] for p in all_pts}):
        x = sx(math.log10(n))
        parts.append(f'<line x1="{x:.2f}" y1="{_VIEW_H - _MARGIN}" x2="{x:.2f}" '
                     f'y2="{_VIEW_H - _MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_VIEW_H - _MARGIN + 18}" '
                     f'text-anchor="middle" font-size="11">{int(n)}</text>')
    for d in range(math.floor(y_lo), math.ceil(y_hi) + 1):
        if y_lo <= d <= y_hi:
            y = sy(d)
            parts.append(f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" '
                         f'y2="{y:.2f}" stroke="black"/>')
            parts.append(f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" text-anchor="end" '
                         f'font-size="11">1e{d}</text>')

    legend_y = _MARGIN + 15
    for scheme in report.config.schemes:
        color = _SVG_COLORS.get(scheme, "#555555")
        for n, m in pts[scheme]:
            parts.append(f'<circle cx="{sx(math.log10(n)):.2f}" '
                         f'cy="{sy(math.log10(m)):.2f}" r="3.5" fill="{color}"/>')
        sf = report.slopes.get(scheme)
        label = scheme
        if sf is not None:
            # slope/intercept are natural-log OLS; convert for the log10 frame
            x0, x1 = x_lo + x_pad, x_hi - x_pad
            y0 = (sf.slope * (x0 * math.log(10)) + sf.intercept) / math.log(10)
            y1 = (sf.slope * (x1 * math.log(10)) + sf.intercept) / math.log(10)
            parts.append(f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" '
                         f'x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" stroke="{color}" '
                         f'stroke-dasharray="5,3"/>')
            label = f"{scheme} (slope {sf.slope:.2f})"
        parts.append(f'<circle cx="{_VIEW_W - _MARGIN - 150}" cy="{legend_y - 4}" '
                     f'r="3.5" fill="{color}"/>')
        parts.append(f'<text x="{_VIEW_W - _MARGIN - 140}" y="{legend_y}" '
                     f'font-size="12">{label}</text>')
        legend_y += 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
