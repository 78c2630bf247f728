import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from letcc import cli, sim
from letcc.coding import DecodeFailure
from letcc.sim import RiskBoundViolation


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIAL_ARGS = ["trial", "--scheme", "letcc", "--f", "sin_pi", "--k", "16",
              "--n", "64", "--s", "4", "--seed", "7"]


class TestTrial:
    def test_emits_full_metrics_json(self, capsys):
        code, out, _ = run_cli(capsys, *TRIAL_ARGS)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"scheme", "empirical_risk", "l_dec", "l_enc",
                                "rmse", "relacc", "survivor_count", "degraded",
                                "seed"}
        assert payload["scheme"] == "letcc"
        assert payload["survivor_count"] == 60

    def test_rerun_identical_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, *TRIAL_ARGS)
        _, out2, _ = run_cli(capsys, *TRIAL_ARGS)
        assert out1 == out2

    def test_golden_metrics(self, capsys):
        # frozen on first implementation; guards the seeded pipeline
        _, out, _ = run_cli(capsys, *TRIAL_ARGS)
        payload = json.loads(out)
        assert payload["empirical_risk"] == pytest.approx(
            0.00030200002652614177, rel=1e-12)
        assert payload["rmse"] == pytest.approx(0.017378147960186718, rel=1e-12)
        assert payload["l_enc"] == 0
        assert payload["survivor_count"] == 60
        assert payload["degraded"] is False

    def test_missing_n_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "trial", "--scheme", "letcc",
                                 "--f", "sin_pi", "--k", "16", "--s", "4")
        assert code == 1
        assert out == ""
        assert "--n" in err

    @pytest.mark.parametrize("flag", [["--format", "bogus"], ["--out", "results"]])
    def test_report_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(TRIAL_ARGS + flag)
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    def test_negative_seed_exits_one_naming_the_seed(self, capsys):
        code, out, err = run_cli(capsys, *TRIAL_ARGS[:-1], "-3")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a nonnegative integer, got -3\n"

    def test_s_equal_n_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "trial", "--scheme", "letcc",
                               "--f", "sin_pi", "--k", "16", "--n", "8", "--s", "8")
        assert code == 1
        assert err == "error: StragglerModel s 8 outside [0, 8)\n"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"scheme": "letcc", "f": "sin_pi", "k": 16,
                                   "n": 64, "s": 4, "seed": 7}))
        _, from_file, _ = run_cli(capsys, "trial", "--config", str(cfg))
        _, from_flags, _ = run_cli(capsys, *TRIAL_ARGS)
        assert from_file == from_flags
        _, overridden, _ = run_cli(capsys, "trial", "--config", str(cfg),
                                   "--s", "8")
        assert json.loads(overridden)["survivor_count"] == 56

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"scheme": "letcc", "f": "sin_pi", "k": 16,
                                   "n": 64, "s": 4, "bogus": 1}))
        code, _, err = run_cli(capsys, "trial", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_lcc_at_degree_45_writes_nothing_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "trial", "--scheme", "lcc", "--f", "cubic",
                                 "--k", "16", "--n", "64", "--s", "4")
        assert code == 0
        assert json.loads(out)["empirical_risk"] <= 1e-20
        assert err == ""

    @pytest.mark.parametrize("key, value, shown", [("sigma0", True, "True"),
                                                   ("lambda_d", "1e-6", "'1e-6'"),
                                                   ("lambda_e", 0, None)])
    def test_float_keys_take_numbers_only(self, capsys, tmp_path, key, value, shown):
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"scheme": "letcc", "f": "sin_pi", "k": 16,
                                   "n": 64, "s": 4, "seed": 7, key: value}))
        code, out, err = run_cli(capsys, "trial", "--config", str(cfg))
        if shown is None:  # an integer is a number
            assert code == 0
            return
        assert (code, out) == (1, "")
        assert err == (f"error: config key {key!r}: value must be a finite nonnegative "
                       f"real, got {shown}\n")

    @pytest.mark.parametrize("key, value, message", [
        ("k", 16.7, "value 16.7 is not an integer"),
        ("seed", True, "value must be an integer, got bool"),
        ("n", 64.0, None),
        ("n", "64", "value must be an integer, got str"),
    ])
    def test_integer_keys_must_be_integral(self, capsys, tmp_path, key, value, message):
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"scheme": "letcc", "f": "sin_pi", "k": 16,
                                   "n": 64, "s": 4, "seed": 7, key: value}))
        code, out, err = run_cli(capsys, "trial", "--config", str(cfg))
        if message is None:  # integral values convert as before
            assert code == 0
            return
        assert (code, out) == (1, "")
        assert err == f"error: config key {key!r}: {message}\n"

    def test_decode_failure_exits_two(self, capsys, monkeypatch):
        def boom(setup, seed):
            raise DecodeFailure("no survivors")
        monkeypatch.setattr(cli, "run_trial", boom)
        code, out, err = run_cli(capsys, *TRIAL_ARGS)
        assert code == 2
        assert out == ""
        assert "decode failure" in err

    def test_risk_bound_violation_exits_three(self, capsys, monkeypatch):
        def violated(setup, seed):
            raise RiskBoundViolation("risk decomposition violated: 2.0 > 0.5 + 0.5")
        monkeypatch.setattr(cli, "run_trial", violated)
        code, out, err = run_cli(capsys, *TRIAL_ARGS)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("risk bound failure: risk decomposition violated")

    def test_risk_bound_violation_of_a_real_trial_exits_three(self, capsys,
                                                              understated_l_enc):
        code, out, err = run_cli(capsys, *TRIAL_ARGS, "--lambda-e", "1e-2")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("risk bound failure: risk decomposition violated: ")


def _sweep_config(tmp_path, **overrides):
    cfg = {"kind": "n_sweep", "schemes": ["letcc", "bacc"], "f": "sin_pi",
           "k": 8, "n_values": [16, 24, 32], "s": 2, "trials": 3, "seed": 5,
           "data": "identity"}
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSweep:
    def test_produces_csv_json_svg(self, capsys, tmp_path):
        cfg = _sweep_config(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(capsys, "sweep", str(cfg), "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.json").exists()
        assert (out / "sweep.svg").exists()
        report = json.loads((out / "sweep.json").read_text())
        assert report["slopes"]["letcc"]["slope"] < report["slopes"]["bacc"]["slope"]

    def test_rerun_and_threads_byte_identical(self, capsys, tmp_path):
        cfg = _sweep_config(tmp_path)
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            run_cli(capsys, "sweep", str(cfg), "--out", str(out),
                    "--threads", threads)
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1] == outs[2]

    def test_empty_n_values_exits_one(self, capsys, tmp_path):
        cfg = _sweep_config(tmp_path, n_values=[])
        code, _, err = run_cli(capsys, "sweep", str(cfg), "--out",
                               str(tmp_path / "o"))
        assert code == 1
        assert "n_values" in err

    def test_straggler_kind(self, capsys, tmp_path):
        cfg = {"kind": "straggler", "schemes": ["letcc", "bacc"], "f": "sin_pi",
               "k": 8, "n": 24, "s_values": [2, 4], "trials": 3, "seed": 5,
               "data": "identity"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", str(path), "--out", str(out))
        assert code == 0
        report = json.loads((out / "straggler.json").read_text())
        assert len(report["table"]) == 2

    def test_format_selection(self, capsys, tmp_path):
        cfg = _sweep_config(tmp_path)
        out = tmp_path / "csvonly"
        run_cli(capsys, "sweep", str(cfg), "--out", str(out), "--format", "csv")
        assert (out / "sweep.csv").exists()
        assert not (out / "sweep.json").exists()

    def test_null_kind_runs_an_n_sweep(self, capsys, tmp_path):
        outs = []
        for kind in ("n_sweep", None):
            out = tmp_path / f"out_{kind}"
            code, stdout, _ = run_cli(capsys, "sweep", str(_sweep_config(tmp_path, kind=kind)),
                                      "--out", str(out))
            assert (code, stdout) == (0, "")
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]
        assert sorted(outs[1]) == ["sweep.csv", "sweep.json", "sweep.svg"]

    def test_unknown_kind_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"kind": "wat"}))
        code, _, err = run_cli(capsys, "sweep", str(path), "--out",
                               str(tmp_path / "o"))
        assert code == 1
        assert "kind" in err


_KIND_CONFIGS = {
    "n_sweep": {"kind": "n_sweep", "schemes": ["letcc"], "f": "sin_pi", "k": 8,
                "n_values": [16, 24], "s": 2, "trials": 2},
    "straggler": {"kind": "straggler", "schemes": ["letcc"], "f": "sin_pi", "k": 8,
                  "n": 24, "s_values": [2], "trials": 2},
    "crossval": {"kind": "crossval", "f": "sin_pi", "k": 8, "n": 24, "s": 2,
                 "trials": 2, "lambda_d_grid": [1e-4]},
}

# the owner's message for a real, after the key
_REAL = "value must be a finite nonnegative real, got"

_MALFORMED = [
    ("missing required key", "n_sweep", {"n_values": None}, "'n_values' is required"),
    ("null required key", "n_sweep", {"schemes": None}, "'schemes' is required"),
    ("wrong type", "n_sweep", {"n_values": ["x"]}, "config key 'n_values'"),
    ("fractional integer", "n_sweep", {"s": 2.5}, "'s': value 2.5 is not an integer"),
    ("boolean integer", "n_sweep", {"trials": True},
     "'trials': value must be an integer, got bool"),
    ("k zero", "n_sweep", {"k": 0}, "k=0"),
    ("boolean float", "n_sweep", {"sigma0": True}, f"'sigma0': {_REAL} True"),
    ("string float", "n_sweep", {"lambda_e": "1e-3"},
     f"'lambda_e': {_REAL} '1e-3'"),
    ("string float", "n_sweep", {"s": None, "s_ratio": "0.1"},
     f"'s_ratio': {_REAL} '0.1'"),
    ("boolean float", "n_sweep", {"lambda_d_scale": False},
     f"'lambda_d_scale': {_REAL} False"),
    ("tanh_net without m", "n_sweep", {"f": "tanh_net", "data": "uniform"}, "m >= 2"),
    ("missing required key", "straggler", {"s_values": None}, "'s_values' is required"),
    ("null required key", "straggler", {"n": None}, "'n' is required"),
    ("wrong type", "straggler", {"n": [24]}, "config key 'n'"),
    ("k zero", "straggler", {"k": 0}, "k=0"),
    ("boolean float", "straggler", {"sigma0": True}, f"'sigma0': {_REAL} True"),
    ("string float", "straggler", {"lambda_e": "1e-6"},
     f"'lambda_e': {_REAL} '1e-6'"),
    ("missing required key", "crossval", {"n": None}, "'n' is required"),
    ("null required key", "crossval", {"f": None}, "'f' is required"),
    ("wrong type", "crossval", {"lambda_d_grid": 1e-4}, "config key 'lambda_d_grid'"),
    ("fractional integer", "crossval", {"k": 16.7}, "'k': value 16.7 is not an integer"),
    ("k zero", "crossval", {"k": 0}, "k=0"),
    ("string float", "crossval", {"sigma0": "0.1"}, f"'sigma0': {_REAL} '0.1'"),
    ("string in float grid", "crossval", {"lambda_d_grid": [1e-4, "1e-3"]},
     f"'lambda_d_grid': {_REAL} '1e-3'"),
    ("boolean in float grid", "crossval", {"lambda_e_grid": [True]},
     f"'lambda_e_grid': {_REAL} True"),
    ("empty schemes", "n_sweep", {"schemes": []}, "at least one scheme required"),
    ("S not below N", "n_sweep", {"s": 16}, "S must stay below N (N=16, S=16)"),
    ("no trials", "n_sweep", {"trials": 0}, "trials must be >= 1"),
    ("unknown lambda_d rule", "n_sweep", {"lambda_d_rule": "n**-2"},
     "unknown lambda_d rule 'n**-2'; choices: ['fixed', 'n**-4', 'survivors**-0.8']"),
    ("empty schemes", "straggler", {"schemes": []}, "at least one scheme required"),
    ("empty s_values", "straggler", {"s_values": []}, "s_values must be nonempty"),
    ("S not below N", "straggler", {"s_values": [2, 24]}, "s_values 24 outside [0, 24)"),
    ("no trials", "straggler", {"trials": 0}, "trials must be >= 1"),
    ("unknown lambda_d rule", "straggler", {"lambda_d_rule": "n**-2"},
     "unknown lambda_d rule 'n**-2'"),
]


class TestMalformedConfigs:
    @pytest.mark.parametrize("case, kind, change, message", _MALFORMED,
                             ids=[f"{kind}-{case}" for case, kind, *_ in _MALFORMED])
    def test_exits_one_with_one_error_line(self, capsys, tmp_path, case, kind, change,
                                           message):
        # "missing" cases drop the key; the "null" ones write it as null
        cfg = dict(_KIND_CONFIGS[kind], **change)
        if case == "missing required key":
            cfg = {k: v for k, v in cfg.items() if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        command = "crossval" if kind == "crossval" else "sweep"
        code, out, err = run_cli(capsys, command, str(path), "--out",
                                 str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# (case, kind, change to the config, whether --out is given, error text)
_EARLY_FAILURES = [
    ("no out", "n_sweep", {}, False, "error: --out directory is required"),
    ("no out", "straggler", {}, False, "error: --out directory is required"),
    ("string as list", "n_sweep", {"schemes": "letcc"}, True,
     "error: config key 'schemes': expected a list, got 'letcc'"),
    ("string as list", "n_sweep", {"n_values": "128"}, True,
     "error: config key 'n_values': expected a list, got '128'"),
    ("string as list", "straggler", {"s_values": "2"}, True,
     "error: config key 's_values': expected a list, got '2'"),
    ("number as string", "n_sweep", {"f": 16}, True,
     "error: config key 'f': expected a string, got 16"),
    ("number in string list", "n_sweep", {"schemes": ["letcc", 5]}, True,
     "error: config key 'schemes': expected a string, got 5"),
    ("number as kind", "n_sweep", {"kind": 5}, True,
     "error: config key 'kind': expected a string, got 5"),
    ("bad second scheme", "n_sweep", {"schemes": ["letcc", "nope"]}, True,
     "error: unknown scheme 'nope'"),
    ("bad second scheme", "straggler", {"schemes": ["letcc", "nope"]}, True,
     "error: unknown scheme 'nope'"),
    ("lcc without degree", "n_sweep", {"schemes": ["letcc", "lcc"]}, True,
     "error: lcc needs a declared polynomial degree"),
    ("lcc without degree", "straggler", {"schemes": ["letcc", "lcc"]}, True,
     "error: lcc needs a declared polynomial degree"),
    ("tanh_net without inputs", "n_sweep", {"f": "tanh_net", "data": "uniform", "d": 0,
                                            "m": 3}, True,
     "error: tanh_net needs d >= 1 inputs, got d=0"),
    ("tanh_net without inputs", "crossval", {"f": "tanh_net", "data": "uniform", "d": -1,
                                             "m": 3}, False,
     "error: tanh_net needs d >= 1 inputs, got d=-1"),
]


class TestFailsBeforeFirstTrial:
    @pytest.mark.parametrize("case, kind, change, with_out, message", _EARLY_FAILURES,
                             ids=[f"{kind}-{case}" for case, kind, *_ in _EARLY_FAILURES])
    def test_exits_one_without_running_a_trial(self, capsys, tmp_path, monkeypatch, case,
                                               kind, change, with_out, message):
        calls = []
        monte_carlo = cli.experiments.monte_carlo
        monkeypatch.setattr(cli.experiments, "monte_carlo",
                            lambda *a: calls.append(a) or monte_carlo(*a))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(_KIND_CONFIGS[kind], **change)))
        argv = ["sweep", str(path)] + (["--out", str(tmp_path / "out")] if with_out else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, calls) == (1, "", [])
        assert err.startswith(message) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestConfigFile:
    @pytest.mark.parametrize("command", ["trial", "sweep", "crossval"])
    @pytest.mark.parametrize("text, message", [
        (None, "error: cannot read config {path}: "),
        ('{"kind": "n_sweep",', "error: config {path} is not valid JSON: "),
        ('["n_sweep"]', "error: config {path} must be a JSON object\n"),
    ], ids=["unreadable", "not JSON", "not an object"])
    def test_bad_file_exits_one_and_writes_nothing(self, capsys, tmp_path, command, text,
                                                   message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        argv = ([command, "--config", str(path)] if command == "trial"
                else [command, str(path), "--out", str(tmp_path / "out")])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(message.format(path=path)) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ([] if text is None else ["cfg.json"])

    def test_seed_flag_overrides_the_config_seed(self, capsys, tmp_path):
        outs = []
        for seed, flag in ((5, ["--seed", "9"]), (9, []), (5, [])):
            out = tmp_path / f"out{len(outs)}"
            path = tmp_path / f"cfg{len(outs)}.json"
            path.write_text(json.dumps(dict(_KIND_CONFIGS["n_sweep"], seed=seed,
                                            sigma0=0.1)))
            code, _, _ = run_cli(capsys, "sweep", str(path), "--out", str(out), *flag)
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1] != outs[2]


class TestReportConfigBlock:
    # the key order of "config" is the field order of the config dataclass
    def test_sweep_json_key_order(self, capsys, tmp_path):
        out = tmp_path / "out"
        run_cli(capsys, "sweep", str(_sweep_config(tmp_path)), "--out", str(out))
        config = json.loads((out / "sweep.json").read_text())["config"]
        assert list(config) == ["schemes", "func", "k", "n_values", "s", "s_ratio",
                                "sigma0", "lambda_e", "lambda_d_rule",
                                "lambda_d_scale", "f_degree", "trials",
                                "master_seed", "data_rule", "func_d", "func_m"]
        assert config["master_seed"] == 5 and config["func_m"] == 1

    def test_straggler_json_key_order(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_KIND_CONFIGS["straggler"]))
        out = tmp_path / "out"
        run_cli(capsys, "sweep", str(path), "--out", str(out))
        config = json.loads((out / "straggler.json").read_text())["config"]
        assert list(config) == ["schemes", "func", "k", "n", "s_values", "sigma0",
                                "lambda_e", "lambda_d_rule", "lambda_d_scale",
                                "f_degree", "trials", "master_seed", "data_rule",
                                "func_d", "func_m"]
        assert config["trials"] == 2 and config["data_rule"] == "identity"


class TestCrossvalCommand:
    def test_prints_best_pair(self, capsys, tmp_path):
        cfg = {"kind": "crossval", "f": "sin_pi", "k": 8, "n": 24, "s": 2,
               "sigma0": 0.1, "trials": 3, "seed": 9, "data": "identity",
               "lambda_d_grid": [1e-6, 1e-4, 1e-2]}
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "crossval", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["best_lambda_d"] in cfg["lambda_d_grid"]
        assert len(payload["table"]) == 3

    def test_out_writes_the_printed_table(self, capsys, tmp_path):
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(_KIND_CONFIGS["crossval"]))
        out = tmp_path / "o"
        code, stdout, err = run_cli(capsys, "crossval", str(path), "--out", str(out))
        assert code == 0
        assert err == f"crossval: table written to {out}\n"
        assert [p.name for p in out.iterdir()] == ["crossval.json"]
        assert (out / "crossval.json").read_text() == stdout
        assert json.loads(stdout)["best_lambda_d"] == 1e-4

    def test_unknown_format_exits_one_and_writes_nothing(self, capsys, tmp_path):
        cfg = {"kind": "crossval", "f": "sin_pi", "k": 8, "n": 24, "s": 2,
               "trials": 1, "lambda_d_grid": [1e-4]}
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code, stdout, err = run_cli(capsys, "crossval", str(path), "--out", str(out),
                                    "--format", "bogus")
        assert code == 1
        assert stdout == ""
        assert "bogus" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["n_sweep", "straggler", "bogus"])
    def test_other_kind_exits_one_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                   kind):
        prepared, prepare = [], sim._prepare
        monkeypatch.setattr(sim, "_prepare", lambda *a: prepared.append(a) or prepare(*a))
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(dict(_KIND_CONFIGS["crossval"], kind=kind)))
        code, out, err = run_cli(capsys, "crossval", str(path), "--out", str(tmp_path / "o"))
        assert (code, out, prepared) == (1, "", [])
        assert err == f"error: crossval runs kind 'crossval' configs, got kind {kind!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cv.json"]

    def test_null_kind_runs_a_crossval(self, capsys, tmp_path):
        path = tmp_path / "cv.json"
        path.write_text(json.dumps(dict(_KIND_CONFIGS["crossval"], kind=None)))
        code, out, _ = run_cli(capsys, "crossval", str(path))
        assert code == 0
        assert json.loads(out)["best_lambda_d"] == 1e-4

    # a bad second entry of either grid, a negative lambda_d rule scale or
    # lambda_e in a sweep, or a negative --lambda-d: no trial is prepared,
    # not even at the first lambda_e or the first point
    @pytest.mark.parametrize("change", [{"lambda_d_grid": [1e-4, -1.0]},
                                        {"lambda_e_grid": [0.0, -1.0]},
                                        {"kind": "n_sweep", "lambda_d_scale": -1},
                                        {"kind": "straggler", "lambda_e": -1},
                                        {"kind": "trial"}])
    def test_negative_weight_exits_one_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                        change):
        prepared, prepare = [], sim._prepare
        monkeypatch.setattr(sim, "_prepare", lambda *a: prepared.append(a) or prepare(*a))
        kind = change.get("kind", "crossval")
        if kind == "trial":
            argv = ["trial", "--scheme", "letcc", "--f", "sin_pi", "--k", "8", "--n", "24",
                    "--s", "2", "--lambda-d", "-1"]
        else:
            path = tmp_path / "cv.json"
            path.write_text(json.dumps(dict(_KIND_CONFIGS[kind], **change)))
            argv = ["crossval" if kind == "crossval" else "sweep", str(path),
                    "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, prepared) == (1, "", [])
        if kind == "trial":  # a flag reaches the trial setup, which names its field
            want = "lambda_d must be a finite nonnegative real, got -1.0"
        else:  # a config value is refused as it is read, naming its key
            key, = set(change) - {"kind"}
            bad = change[key][-1] if isinstance(change[key], list) else change[key]
            want = f"config key {key!r}: value must be a finite nonnegative real, got {bad!r}"
        assert err == f"error: {want}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if kind == "trial" else ["cv.json"])


def write_matrix_file(path, matrix):
    matrix = np.atleast_2d(matrix)
    lines = [f"dims {matrix.shape[0]} {matrix.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


class TestCodec:
    def test_encode_row_count(self, capsys, tmp_path):
        data = tmp_path / "d.mat"
        write_matrix_file(data, np.array([[-0.8], [0.0], [0.8]]))
        out = tmp_path / "c.mat"
        code, _, _ = run_cli(capsys, "codec", "encode", str(data),
                             "--n", "5", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "dims 5 1"

    def test_roundtrip_matches_in_process_pipeline(self, capsys, tmp_path):
        from letcc.coding import Dataset, decode, encode
        from letcc.points import chebyshev_grid

        rng = np.random.default_rng(21)
        inputs = rng.uniform(-1, 1, (4, 2))
        k, n = 4, 9
        survivors = [0, 2, 3, 5, 6, 8]

        data = tmp_path / "d.mat"
        write_matrix_file(data, inputs)
        coded_path = tmp_path / "c.mat"
        run_cli(capsys, "codec", "encode", str(data), "--n", str(n),
                "--lambda-e", "0", "--out", str(coded_path))
        coded = np.loadtxt(coded_path, skiprows=1)

        outputs = np.sin(np.pi * coded[survivors])
        outs_path = tmp_path / "o.mat"
        write_matrix_file(outs_path, outputs)
        dec_path = tmp_path / "e.mat"
        code, _, _ = run_cli(capsys, "codec", "decode", str(outs_path),
                             "--k", str(k), "--n", str(n),
                             "--survivors", ",".join(map(str, survivors)),
                             "--lambda-d", "1e-6", "--out", str(dec_path))
        assert code == 0
        via_cli = np.loadtxt(dec_path, skiprows=1)

        grid = chebyshev_grid(k, n)
        batch = encode(Dataset(inputs), grid, 0.0)
        pairs = list(zip(survivors, np.sin(np.pi * batch.coded[survivors])))
        via_lib = decode(pairs, grid, 1e-6).estimates
        assert np.abs(via_cli - via_lib).max() < 1e-12

    def test_empty_data_file_exits_one(self, capsys, tmp_path):
        data = tmp_path / "d.mat"
        data.write_text("")
        code, _, err = run_cli(capsys, "codec", "encode", str(data),
                               "--n", "5", "--out", str(tmp_path / "c.mat"))
        assert code == 1
        assert ":1:" in err

    def test_malformed_row_reports_line_number(self, capsys, tmp_path):
        data = tmp_path / "d.mat"
        data.write_text("dims 2 1\n1.0\nnope\n")
        code, _, err = run_cli(capsys, "codec", "encode", str(data),
                               "--n", "5", "--out", str(tmp_path / "c.mat"))
        assert code == 1
        assert ":3:" in err

    def test_matrix_cells_carry_17_significant_digits(self, tmp_path):
        matrix = np.array([[0.1, -0.0, 1e-300], [np.pi, -2.5, 123456789.0]])
        path = tmp_path / "m.mat"
        cli.write_matrix(path, matrix)
        rows = ["dims 2 3"] + [" ".join(f"{v:.17g}" for v in row) for row in matrix.tolist()]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
        assert np.array_equal(cli.read_matrix(path), matrix)

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {path}: "),
        ("dims 2\n1\n2\n", "{path}:1: expected header 'dims R C', got 'dims 2'\n"),
        ("dims 2 x\n1\n2\n", "{path}:1: non-integer dimensions in header\n"),
        ("dims 0 1\n", "{path}:1: dimensions must be positive\n"),
        ("dims 2 1\n1\n2\n3\n", "{path}:4: more than 2 data rows\n"),
        ("dims 2 1\n1\n2 3\n", "{path}:3: expected 1 values, got 2\n"),
        ("dims 3 1\n1\n\n2\n", "{path}:5: expected 3 data rows, got 2\n"),
        ("dims 2 1\n1\n0x1\n", "{path}:3: non-numeric value\n"),
    ], ids=["unreadable", "header", "dimensions", "positive", "too many rows",
            "columns", "too few rows", "non-numeric"])
    def test_bad_matrix_exits_one_and_writes_nothing(self, capsys, tmp_path, text, message):
        data = tmp_path / "d.mat"
        if text is not None:
            data.write_text(text)
        code, out, err = run_cli(capsys, "codec", "encode", str(data),
                                 "--n", "5", "--out", str(tmp_path / "c.mat"))
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(path=data)) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ([] if text is None else ["d.mat"])

    @pytest.mark.parametrize("flags, message", [
        (["--survivors", "0,x,2"], "error: --survivors must be comma-separated integers\n"),
        ([], "error: 3 output rows for N=9 workers: pass --survivors with the beta "
             "indices of the surviving rows\n"),
        (["--survivors", "0,1,9"], "error: survivor index 9 outside [0, 9)\n"),
        (["--survivors", "0,1"], "error: 2 survivor indices for 3 output rows\n"),
        (["--survivors", "0,1,2,3"], "error: 4 survivor indices for 3 output rows\n"),
    ], ids=["not integers", "short without survivors", "outside workers", "fewer indices",
            "more indices"])
    def test_bad_survivors_exit_one_and_write_nothing(self, capsys, tmp_path, flags,
                                                      message):
        outs = tmp_path / "o.mat"
        write_matrix_file(outs, np.zeros((3, 1)))
        code, out, err = run_cli(capsys, "codec", "decode", str(outs), "--k", "2",
                                 "--n", "9", *flags, "--out", str(tmp_path / "e.mat"))
        assert (code, out, err) == (1, "", message)
        assert [p.name for p in tmp_path.iterdir()] == ["o.mat"]

    def test_duplicate_survivor_is_one_warning_line(self, capsys, tmp_path):
        outs = tmp_path / "o.mat"
        write_matrix_file(outs, np.array([[1.0], [2.0], [3.0]]))
        code, _, err = run_cli(capsys, "codec", "decode", str(outs), "--k", "2", "--n", "9",
                               "--survivors", "3,1,3", "--out", str(tmp_path / "dup.mat"))
        assert (code, err) == (0, "warning: duplicate survivor index 3; keeping first report\n"
                                  "decoded 2 survivor rows to 2 estimates\n")
        # the first report of each index, in index order
        write_matrix_file(outs, np.array([[2.0], [1.0]]))
        run_cli(capsys, "codec", "decode", str(outs), "--k", "2", "--n", "9",
                "--survivors", "1,3", "--out", str(tmp_path / "one.mat"))
        assert (tmp_path / "dup.mat").read_bytes() == (tmp_path / "one.mat").read_bytes()

    def test_decode_survivor_count_mismatch_exits_one(self, capsys, tmp_path):
        outs = tmp_path / "o.mat"
        write_matrix_file(outs, np.zeros((3, 1)))
        code, _, err = run_cli(capsys, "codec", "decode", str(outs),
                               "--k", "2", "--n", "9",
                               "--survivors", "0,1",
                               "--out", str(tmp_path / "e.mat"))
        assert code == 1
        assert "survivor" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteResults:
    # stdout and report files are JSON, which holds no NaN or inf; each
    # failure is one stderr line, with no numpy RuntimeWarning before it

    @pytest.mark.parametrize("scheme, f", [("letcc", "sin_pi"), ("bacc", "sin_pi"),
                                           ("lcc", "cubic")])
    @pytest.mark.parametrize("sigma0", ["1e200", "1e308"])
    def test_trial_exits_one_without_a_payload(self, capsys, scheme, f, sigma0):
        code, out, err = run_cli(capsys, "trial", "--scheme", scheme, "--f", f, "--k", "4",
                                 "--n", "16", "--s", "2", "--sigma0", sigma0,
                                 "--lambda-d", "1e-6")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {scheme} trial with seed (0,) has non-finite risk ")
        assert err.count("\n") == 1

    def test_sweep_exits_one_and_writes_no_report(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "sweep", str(_sweep_config(tmp_path, sigma0=1e200)),
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: letcc trial with seed (5, 16, 0) has non-finite risk ")
        assert not out.exists()

    def test_overflowing_decode_exits_one_and_writes_no_file(self, capsys, tmp_path):
        data = tmp_path / "o.mat"
        write_matrix_file(data, np.array([[1e307], [-1e307], [1e307], [-1e307]]))
        out = tmp_path / "e.mat"
        code, stdout, err = run_cli(capsys, "codec", "decode", str(data), "--k", "3",
                                    "--n", "4", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: non-finite number ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_encode_exits_one_and_writes_no_file(self, capsys, tmp_path):
        data = tmp_path / "d.mat"
        write_matrix_file(data, np.array([[1e308, 1e308], [1e308, -1e308], [1e308, 1e308]]))
        out = tmp_path / "c.mat"
        code, stdout, err = run_cli(capsys, "codec", "encode", str(data), "--n", "9",
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: non-finite number ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflow_raises_no_runtime_warning(self, capsys, tmp_path):
        data = tmp_path / "o.mat"
        write_matrix_file(data, np.array([[1e307], [-1e307], [1e307], [-1e307]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trial = run_cli(capsys, "trial", "--scheme", "letcc", "--f", "sin_pi", "--k", "4",
                            "--n", "16", "--s", "2", "--sigma0", "1e200")
            decoded = run_cli(capsys, "codec", "decode", str(data), "--k", "3", "--n", "4",
                              "--out", str(tmp_path / "e.mat"))
        for code, stdout, err in (trial, decoded):
            assert (code, stdout, err.count("\n")) == (1, "", 1)
            assert err.startswith("error: ")

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_tanh_net_without_inputs_exits_one(self, capsys, d):
        code, out, err = run_cli(capsys, "trial", "--scheme", "letcc", "--f", "tanh_net",
                                 "--d", d, "--k", "4", "--n", "16", "--s", "2")
        assert (code, out) == (1, "")
        assert err == f"error: tanh_net needs d >= 1 inputs, got d={d}\n"


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["sweep", "crossval"])
    @pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
    def test_file_as_out_exits_one_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                   command, under):
        calls = []
        monte_carlo = cli.experiments.monte_carlo
        monkeypatch.setattr(cli.experiments, "monte_carlo",
                            lambda *a: calls.append(a) or monte_carlo(*a))
        kind = "crossval" if command == "crossval" else "n_sweep"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_KIND_CONFIGS[kind]))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        code, stdout, err = run_cli(capsys, command, str(cfg), "--out", str(out))
        assert (code, stdout, calls) == (1, "", [])
        assert err == f"error: cannot write {out}: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]

    def test_unwritable_report_exits_one(self, capsys, tmp_path):
        out = tmp_path / "out"
        (out / "sweep.json").mkdir(parents=True)
        code, stdout, err = run_cli(capsys, "sweep", str(_sweep_config(tmp_path)),
                                    "--out", str(out), "--format", "json")
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out / 'sweep.json'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_codec_out_in_a_missing_directory_exits_one(self, capsys, tmp_path, command):
        data = tmp_path / "d.mat"
        write_matrix_file(data, np.array([[-0.8], [0.0], [0.8]]))
        flags = ["--n", "3"] + (["--k", "3"] if command == "decode" else [])
        out = tmp_path / "missing" / "x.mat"
        code, stdout, err = run_cli(capsys, "codec", command, str(data), *flags,
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["d.mat"]


class TestParserOncePerProcess:
    def _parsers_built(self, capsys, monkeypatch, argvs):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        cli.build_parser.cache_clear()
        for argv in argvs:
            assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.undo()
        cli.build_parser.cache_clear()
        return len(built)

    def test_three_calls_build_no_more_parsers_than_one(self, capsys, tmp_path,
                                                        monkeypatch):
        data = tmp_path / "d.mat"
        write_matrix_file(data, np.array([[-0.8], [0.0], [0.8]]))
        one = self._parsers_built(capsys, monkeypatch, [TRIAL_ARGS])
        three = self._parsers_built(capsys, monkeypatch, [
            TRIAL_ARGS,
            ["sweep", str(_sweep_config(tmp_path)), "--out", str(tmp_path / "out")],
            ["codec", "encode", str(data), "--n", "5", "--out", str(tmp_path / "c.mat")],
        ])
        assert 0 < three <= one

    def test_usage_error_leaves_later_calls_unchanged(self, capsys):
        cli.build_parser.cache_clear()
        first = run_cli(capsys, *TRIAL_ARGS)
        cli.build_parser.cache_clear()
        # options parsed before the bad one must not leak into the next call
        with pytest.raises(SystemExit) as exc:
            cli.main(["trial", "--sigma0", "0.5", "--lambda-d", "1e-3", "--k", "x"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith("error: argument --k: invalid int value: 'x'\n")
        assert run_cli(capsys, *TRIAL_ARGS) == first

    def test_help_twice_is_identical(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        # the module docstring up to its notes
        assert texts[0].startswith("usage: letcc") and "Matrix files use" in texts[0]
        assert "Notes" not in texts[0]


class TestModuleEntry:
    def _run(self, *argv, cwd):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "letcc.cli", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)

    def test_exit_code_and_one_stderr_line_per_outcome(self, tmp_path):
        # python -m letcc.cli exits with main's code; a library warning and
        # an overflow each print one line, as in a console-script process
        help_run = self._run("--help", cwd=tmp_path)
        assert help_run.returncode == 0 and help_run.stdout.startswith("usage: letcc")
        write_matrix_file(tmp_path / "o.mat", np.array([[1.0], [2.0], [3.0]]))
        dup = self._run("codec", "decode", "o.mat", "--k", "2", "--n", "9",
                        "--survivors", "3,1,3", "--out", "e.mat", cwd=tmp_path)
        assert (dup.returncode, dup.stdout) == (0, "")
        assert dup.stderr == ("warning: duplicate survivor index 3; keeping first report\n"
                              "decoded 2 survivor rows to 2 estimates\n")
        trial = self._run("trial", "--scheme", "letcc", "--f", "sin_pi", "--k", "4",
                          "--n", "16", "--s", "2", "--sigma0", "1e200", cwd=tmp_path)
        assert (trial.returncode, trial.stdout) == (1, "")
        assert trial.stderr == "error: letcc trial with seed (0,) has non-finite risk inf\n"
