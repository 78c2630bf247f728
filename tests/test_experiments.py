import json
from dataclasses import fields

import numpy as np
import pytest

from letcc import sim
from letcc.experiments import (
    CSV_HEADER,
    CrossvalConfig,
    DEFAULT_LAMBDA_GRID,
    StragglerSweepConfig,
    SweepConfig,
    SweepReport,
    _dump_json,
    _resolve_lambda_d,
    _row,
    crossval_lambda,
    fit_loglog_slope,
    render_svg,
    report_to_dict,
    straggler_sweep,
    sweep_n,
    write_csv,
    write_json,
    write_svg,
)
from letcc.points import chebyshev_grid


class TestSlopeFit:
    def test_exact_power_law(self):
        points = [(n, 5.0 * n**-3.0) for n in (16, 32, 64, 128, 256)]
        sf = fit_loglog_slope(points)
        assert sf.slope == pytest.approx(-3.0, abs=1e-12)
        assert sf.r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_points_exact_line(self):
        sf = fit_loglog_slope([(10, 1.0), (100, 0.01)])
        assert sf.slope == pytest.approx(-2.0, abs=1e-12)
        assert sf.points_used == 2

    def test_perturbed_power_law_recovered(self, rng):
        ns = (10, 16, 25, 40, 63, 100)
        points = [(n, 2.0 * n**-3.0 * (1 + 0.01 * rng.uniform(-1, 1))) for n in ns]
        sf = fit_loglog_slope(points)
        assert abs(sf.slope + 3.0) < 0.05

    def test_scale_invariance(self):
        points = [(n, n**-2.0 * (1 + 0.1 * np.sin(n))) for n in (8, 16, 32, 64)]
        a = fit_loglog_slope(points)
        b = fit_loglog_slope([(n, 1e6 * m) for n, m in points])
        assert a.slope == pytest.approx(b.slope, abs=1e-12)
        assert a.r2 == pytest.approx(b.r2, abs=1e-12)

    def test_nonpositive_mse_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (20, 0.0)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0)])

    def test_every_point_equal_fits_exactly(self):
        # ln(mse) has no variance to explain: r2 is 1 for the exact fit
        sf = fit_loglog_slope([(16, 0.25), (16, 0.25)])
        assert sf.r2 == 1.0 and sf.points_used == 2


def _monte_carlo_row(config, scheme, key, n, s):
    """The report row of ``scheme`` at one point, straight from monte_carlo."""
    lambda_d = _resolve_lambda_d(config.lambda_d_rule, config.lambda_d_scale, n, s)
    setup = sim.TrialSetup(
        scheme=scheme,
        func=sim.worker_for(config.func, config.func_d, config.func_m),
        grid=chebyshev_grid(config.k, n),
        stragglers=sim.StragglerModel(n, s),
        noise=sim.NoiseModel(config.sigma0),
        lambda_e=config.lambda_e,
        lambda_d=lambda_d,
        f_degree=config.f_degree,
        data_rule=config.data_rule,
    )
    agg = sim.monte_carlo(setup, config.trials, (config.master_seed, key))
    return _row(scheme, config, n, s, lambda_d, agg, config.master_seed)


def _sweep_config(**overrides):
    base = dict(schemes=("letcc",), func="sin_pi", k=8,
                n_values=(16, 24, 32, 48), s=2, trials=4, master_seed=42,
                data_rule="identity")
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepN:
    def test_one_row_per_scheme_per_n(self):
        report = sweep_n(_sweep_config(schemes=("letcc", "bacc")))
        assert len(report.rows) == 8
        assert report.slopes["letcc"] is not None
        assert report.slopes["letcc"].slope < report.slopes["bacc"].slope

    def test_rows_are_monte_carlo_aggregates_scheme_major(self):
        config = _sweep_config(schemes=("letcc", "bacc", "lcc"), func="cubic", k=4,
                               n_values=(16, 24, 32), sigma0=0.05, lambda_e=1e-4,
                               data_rule="uniform")
        report = sweep_n(config)
        expected = [_monte_carlo_row(config, scheme, n, n, config.s_for(n))
                    for scheme in config.schemes for n in config.n_values]
        assert list(report.rows) == expected

    def test_rows_carry_resolved_lambda(self):
        report = sweep_n(_sweep_config())
        for row in report.rows:
            assert row["lambda_d"] == pytest.approx(float(row["N"]) ** -4)

    def test_exact_scheme_lands_at_floor(self):
        # affine target: the pipeline is exact, every point sits at the
        # numerical floor, and the slope fit is skipped
        config = _sweep_config(func="affine", n_values=(16, 24, 32))
        report = sweep_n(config)
        assert all(row["mean_mse"] <= 1e-20 for row in report.rows)
        assert report.slopes["letcc"] is None
        assert [e["reason"] for e in report.excluded["letcc"]] == ["at_floor"] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            _sweep_config(n_values=())
        with pytest.raises(ValueError):
            _sweep_config(n_values=(32, 16))
        with pytest.raises(ValueError):
            _sweep_config(s=None)
        with pytest.raises(ValueError):
            _sweep_config(s=16, n_values=(8, 16))

    def test_s_ratio_mode(self):
        config = _sweep_config(s=None, s_ratio=0.25)
        assert config.s_for(16) == 4
        assert config.s_for(48) == 12


class TestStragglerSweep:
    def test_table_has_one_row_per_s(self):
        config = StragglerSweepConfig(schemes=("letcc", "bacc"), func="sin_pi",
                                      k=8, n=24, s_values=(2, 4, 8), trials=5,
                                      master_seed=3, data_rule="identity")
        report = straggler_sweep(config)
        assert len(report.table) == 3
        assert len(report.rows) == 6
        for entry in report.table:
            assert 0.0 <= entry["letcc_wins_vs_bacc"] <= 1.0

    def test_zero_stragglers_near_floor_for_exactly_codable_function(self):
        config = StragglerSweepConfig(schemes=("letcc", "lcc"), func="cubic",
                                      k=3, n=12, s_values=(0,), trials=3,
                                      master_seed=1, f_degree=3)
        report = straggler_sweep(config)
        assert report.table[0]["lcc_mean_rmse"] < 1e-8

    def _paired_config(self, **overrides):
        base = dict(schemes=("letcc", "bacc"), func="tanh_net", func_d=2, func_m=3,
                    k=4, n=16, s_values=(1, 4), sigma0=0.1, trials=3,
                    master_seed=5, data_rule="uniform")
        base.update(overrides)
        return StragglerSweepConfig(**base)

    def test_rows_are_monte_carlo_aggregates(self):
        config = self._paired_config()
        report = straggler_sweep(config)
        expected = [_monte_carlo_row(config, scheme, s, config.n, s)
                    for s in config.s_values for scheme in config.schemes]
        assert list(report.rows) == expected
        assert all(row["mean_relacc"] is not None for row in report.rows)


class TestCrossval:
    def test_affine_problem_ties_break_to_most_regularized(self):
        # identity data + affine worker: every lambda pair is exact, so all
        # scores tie near zero and the most regularized pair wins
        cfg = CrossvalConfig(func="affine", k=4, n=12, s=2, sigma0=0.0,
                             trials=3, master_seed=0, data_rule="identity")
        e_grid = (0.0, 1e-6, 1e-3)
        d_grid = (1e-8, 1e-5)
        result = crossval_lambda(e_grid, d_grid, cfg)
        assert result.best_rmse < 1e-10
        assert result.best_lambda_e == 1e-3
        assert result.best_lambda_d == 1e-5

    def test_best_pair_always_from_supplied_grids(self):
        cfg = CrossvalConfig(func="sin_pi", k=4, n=12, s=0, sigma0=0.0,
                             trials=3, master_seed=0, data_rule="identity")
        e_grid = (0.0, 1e-6, 1e-3)
        d_grid = (1e-8, 1e-5)
        result = crossval_lambda(e_grid, d_grid, cfg)
        assert result.best_lambda_e in e_grid
        assert result.best_lambda_d in d_grid

    def test_table_entries_are_monte_carlo_means(self):
        cfg = CrossvalConfig(func="sin_pi", k=6, n=20, s=3, sigma0=0.1,
                             trials=4, master_seed=13, data_rule="uniform")
        e_grid = (0.0, 1e-3)
        d_grid = (1e-6, 1e-4, 1e-2)
        result = crossval_lambda(e_grid, d_grid, cfg)
        expected = []
        for lam_e in e_grid:
            for lam_d in d_grid:
                setup = sim.TrialSetup(
                    scheme="letcc", func=sim.make_worker(cfg.func),
                    grid=chebyshev_grid(cfg.k, cfg.n),
                    stragglers=sim.StragglerModel(cfg.n, cfg.s),
                    noise=sim.NoiseModel(cfg.sigma0), lambda_e=lam_e,
                    lambda_d=lam_d, data_rule=cfg.data_rule)
                agg = sim.monte_carlo(setup, cfg.trials, (cfg.master_seed,))
                expected.append({"lambda_e": lam_e, "lambda_d": lam_d,
                                 "mean_rmse": agg.mean_rmse})
        assert list(result.table) == expected

    def test_ties_pick_largest_lambda(self, monkeypatch):
        class FakeAgg:
            mean_rmse = 0.0

        monkeypatch.setattr(sim, "aggregate", lambda metrics: FakeAgg())
        cfg = CrossvalConfig(func="sin_pi", k=4, n=12, s=0, trials=1, master_seed=0)
        result = crossval_lambda((0.0, 1e-3), (1e-8, 1e-2), cfg)
        assert result.best_lambda_d == 1e-2
        assert result.best_lambda_e == 1e-3

    def test_optimum_no_worse_than_ten_times_lambda(self):
        cfg = CrossvalConfig(func="sin_pi", k=16, n=64, s=4, sigma0=0.1,
                             trials=5, master_seed=11, data_rule="identity")
        result = crossval_lambda((0.0,), DEFAULT_LAMBDA_GRID, cfg)
        by_lambda = {row["lambda_d"]: row["mean_rmse"] for row in result.table}
        ten_x = result.best_lambda_d * 10
        if ten_x in by_lambda:
            assert result.best_rmse <= by_lambda[ten_x] + 1e-15

    def test_empty_grid_rejected(self):
        cfg = CrossvalConfig(func="sin_pi", k=4, n=12, s=0)
        with pytest.raises(ValueError):
            crossval_lambda((), (1e-3,), cfg)

    @pytest.mark.parametrize("e_grid, d_grid", [((0.0, -1.0), (1e-3,)),
                                                ((0.0,), (1e-3, np.nan)),
                                                ((0.0,), (np.inf, 1e-3)),
                                                ((0.0, 1e-3), ())])
    def test_bad_grid_rejected_before_any_trial(self, monkeypatch, e_grid, d_grid):
        prepared, prepare = [], sim._prepare
        monkeypatch.setattr(sim, "_prepare", lambda *a: prepared.append(a) or prepare(*a))
        cfg = CrossvalConfig(func="sin_pi", k=4, n=12, s=0, trials=2)
        with pytest.raises(ValueError, match="finite nonnegative|nonempty"):
            crossval_lambda(e_grid, d_grid, cfg)
        assert prepared == []


class TestReportEmission:
    def test_csv_header_and_digits(self, tmp_path):
        report = sweep_n(_sweep_config(n_values=(16, 24)))
        path = tmp_path / "r.csv"
        write_csv(path, report.rows)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        mse_field = lines[1].split(",")[9]
        assert float(mse_field) == report.rows[0]["mean_mse"]

    def test_relacc_serializes_empty_when_absent(self, tmp_path):
        report = sweep_n(_sweep_config(n_values=(16, 24)))
        path = tmp_path / "r.csv"
        write_csv(path, report.rows)
        row = path.read_text().splitlines()[1].split(",")
        assert row[14] == ""

    def test_json_round_trips_through_stdlib(self, tmp_path):
        report = sweep_n(_sweep_config(n_values=(16, 24)))
        path = tmp_path / "r.json"
        write_json(path, report_to_dict(report))
        data = json.loads(path.read_text())
        assert data["rows"][0]["mean_mse"] == report.rows[0]["mean_mse"]
        assert "slope" in data["slopes"]["letcc"]
        assert set(data["slopes"]["letcc"]) == {"slope", "intercept", "r2",
                                                "points_used"}

    def test_json_keys_are_report_fields_in_order(self, tmp_path):
        sweep = sweep_n(_sweep_config(n_values=(16, 24)))
        straggler = straggler_sweep(StragglerSweepConfig(
            schemes=("letcc", "bacc"), func="sin_pi", k=4, n=12, s_values=(1,), trials=2))
        crossval = crossval_lambda((0.0,), (1e-6, 1e-4),
                                   CrossvalConfig(func="sin_pi", k=4, n=12, s=1, trials=2))
        path = tmp_path / "r.json"
        for report, keys in ((sweep, ["config", "rows", "slopes", "excluded"]),
                             (straggler, ["config", "rows", "table"]),
                             (crossval, ["best_lambda_e", "best_lambda_d", "best_rmse",
                                         "table"])):
            payload = report_to_dict(report)
            assert list(payload) == keys == [f.name for f in fields(report)]
            assert all(payload[key] is getattr(report, key) for key in keys)
            write_json(path, payload)
            assert list(json.loads(path.read_text())) == keys
        # nested dataclasses are written by the same rule
        write_json(path, report_to_dict(sweep))
        data = json.loads(path.read_text())
        assert list(data["config"]) == [f.name for f in fields(SweepConfig)]
        assert list(data["slopes"]["letcc"]) == ["slope", "intercept", "r2", "points_used"]
        with pytest.raises(TypeError):
            report_to_dict(sweep.rows)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_non_finite_numbers_are_refused_before_any_file(self, tmp_path, bad):
        # NaN and inf are not JSON: a report holding one fails, and no file is made
        row = dict(_monte_carlo_row(_sweep_config(trials=2), "letcc", 16, 16, 2),
                   mean_mse=bad)
        for write, path, payload in ((write_json, tmp_path / "r.json", {"rows": [row]}),
                                     (write_csv, tmp_path / "r.csv", [row])):
            with pytest.raises(ValueError, match="non-finite number"):
                write(path, payload)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_byte_identical(self, tmp_path):
        config = _sweep_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, sweep_n(config).rows)
        write_csv(b, sweep_n(config).rows)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_without_a_positive_point_says_so(self):
        rows = tuple({"scheme": "letcc", "N": n, "mean_mse": 0.0} for n in (16, 32))
        report = SweepReport(_sweep_config(), rows, slopes={}, excluded={})
        svg = render_svg(report)
        assert svg.startswith("<svg") and "no positive points" in svg
        assert "<circle" not in svg

    def test_dump_json_of_an_empty_dict_and_an_unsupported_object(self):
        assert _dump_json({}) == "{}"
        with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
            _dump_json({"x": object()})

    def test_svg_renders_points_and_slopes(self, tmp_path):
        report = sweep_n(_sweep_config(schemes=("letcc", "bacc")))
        svg = render_svg(report)
        assert svg.startswith("<svg")
        assert svg.count("<circle") >= 8
        assert "slope" in svg
        path = tmp_path / "r.svg"
        write_svg(path, report)
        assert path.read_text() == svg
