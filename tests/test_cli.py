import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from gbcal import cli, datasets, evaluation, ssm
from gbcal.cli import EXIT_CONFIG, EXIT_OK, main
from gbcal.datasets import SsmTruth, read_modular_csv, read_ssm_csv


def test_simulate_mixture(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path), "--seed", "3"])
    assert rc == EXIT_OK
    data = read_modular_csv(tmp_path / "mixture.csv")
    assert data.x1.n == 30 and data.x2.n == 60
    cfg = json.loads((tmp_path / "simulate_config.json").read_text())
    assert cfg["seed"] == 3 and cfg["command"] == "simulate"


def test_simulate_ssm(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ssm", "n_blocks": 5, "d_x": 4}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    data = read_ssm_csv(tmp_path / "ssm.csv")
    assert data.n_blocks == 5 and data.d_x == 4


def test_simulate_conjugate_reads_back_as_one_module(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "conjugate", "mu_star": 1.5, "n": 7}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "4"]) == EXIT_OK
    data = read_modular_csv(tmp_path / "conjugate.csv")
    want = datasets.simulate_conjugate_normal(1.5, 7, 4).points
    assert np.array_equal(data.x1.points, want)
    assert data.x2.n == 0
    assert not (tmp_path / "conjugate.csv.meta").exists()


def test_simulate_deterministic_in_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--out", str(a), "--seed", "11"])
    main(["simulate", "--out", str(b), "--seed", "11"])
    da, db = read_modular_csv(a / "mixture.csv"), read_modular_csv(b / "mixture.csv")
    assert np.array_equal(da.x1.points, db.x1.points)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "mixture", "typo_key": 1}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("command,cfg", [
    # keys of another kind of the same command
    ("calibrate", {"kind": "ssm", "family": "gamma", "J": 5}),
    ("simulate", {"kind": "mixture", "n_total_blocks": 7,
                  "risk_method": "exact"}),
    ("simulate", {"kind": "ssm", "n_total_blocks": 7}),
    # keys of another command, or of another study kind
    ("study", {"kind": "ssm", "J_ladder": [10, 20]}),
    ("risk-ratio", {"grid_points": 9}),
    ("oracle-check", {"suite": "conjugate", "table_n_rep": 10}),
    # keys nothing reads
    ("calibrate", {"kind": "ssm", "b_upper": 2.0}),
    ("calibrate", {"kind": "mixture", "prior": "flat"}),
    # keys of another study kind, and test sets exact risk never draws
    ("study", {"kind": "nested-check", "n1": 5}),
    ("study", {"kind": "mixture-concentration", "n_outer": 250}),
    ("study", {"risk_method": "exact", "n_test_sets": 99}),
])
def test_config_key_not_read_by_command_and_kind_rejected(tmp_path, command,
                                                           cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["bogus", ["ssm"]])
def test_unknown_calibrate_kind_rejected(tmp_path, kind):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind}))
    rc = main(["calibrate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "posterior.csv").exists()


def test_every_key_a_branch_reads_is_accepted(tmp_path, capsys):
    """Each command and kind accepts every key its branch reads (checked by
    --dry-run, which validates the config and runs nothing)."""
    cases = [
        ("simulate", {"kind": "mixture", "lambda_star": 0.8, "n1": 5, "n2": 6}),
        ("simulate", {"kind": "ssm", "phi_M_star": 0.5, "n_blocks": 3,
                      "d_x": 5}),
        ("simulate", {"kind": "conjugate", "mu_star": 1.0, "n": 4}),
        ("calibrate", {"kind": "ssm", "loss": "pooled", "phi_M_star": 0.5,
                       "n_total_blocks": 15, "n_train_blocks": 5, "d_x": 6,
                       "eta_upper": 2.0, "grid_points": 9}),
        ("calibrate", {"kind": "mixture", "family": "gamma", "loss": "product",
                       "n1": 30, "n2": 60, "J": 1000, "grid_points": 41,
                       "lambda_star": 0.9, "eta_upper": 1.0}),
        ("study", {"kind": "ssm", "phi_M_star": 0.5, "n_total_blocks": 20,
                   "n_train_blocks": 5, "d_x": 6, "n_replicates": 2,
                   "n_test_sets": 2, "test_blocks": 20, "eta_upper": 1.0,
                   "grid_points": 9, "loss": "product",
                   "risk_method": "simulate"}),
        # exact risk draws no test set, so it neither reads nor records
        # n_test_sets
        ("study", {"kind": "ssm", "phi_M_star": 0.5, "n_total_blocks": 20,
                   "n_train_blocks": 5, "d_x": 6, "n_replicates": 2,
                   "test_blocks": 20, "eta_upper": 1.0, "grid_points": 9,
                   "loss": "product", "risk_method": "exact"}),
        ("study", {"kind": "mixture-concentration", "n1": 20, "n2": 500,
                   "lambda_star": 0.8, "J_ladder": [50, 200],
                   "grid_points": 21}),
        ("study", {"kind": "nested-check", "n_train_blocks": 5, "d_x": 4,
                   "phi_M_star": 0.5, "J_ladder": [5, 10],
                   "eta_bounds": [0.1, 2.0], "b_bounds": [0.5, 1.5],
                   "grid_points": 5, "n_outer": 300, "inner_len": 3}),
        ("risk-ratio", {"phi_M_star": 0.5, "n_total_blocks": 10, "d_x": 6,
                        "test_blocks": 20, "n_test_sets": 3, "eta1": 0.5,
                        "eta2": 1.0}),
        ("oracle-check", {"suite": "table-f1", "table_n_rep": 10}),
    ]
    path = tmp_path / "cfg.json"
    for command, cfg in cases:
        path.write_text(json.dumps(dict(cfg, seed=3)))
        assert main([command, "--config", str(path), "--dry-run"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == dict(cfg, seed=3)


@pytest.mark.parametrize("argv", [
    ["calibrate", "--jobs", "7", "--fast"],
    ["calibrate", "--fast"],
    ["simulate", "--jobs", "2"],
    ["risk-ratio", "--fast"],
    ["oracle-check", "mixture", "--jobs", "2"],
])
def test_flag_not_read_by_command_rejected(tmp_path, argv):
    """--jobs is read only by study, --fast only by study and oracle-check;
    any other command exits 2 on them before writing anything."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,cfg,flag", [
    (["oracle-check", "conjugate", "--fast"], {}, "--fast"),
    (["oracle-check", "mixture", "--fast"], {}, "--fast"),
    (["oracle-check", "laplace-aghq", "--fast"], {}, "--fast"),
    (["study", "--fast"], {"kind": "mixture-concentration"}, "--fast"),
    (["study", "--jobs", "2"], {"kind": "nested-check"}, "--jobs"),
    (["study", "--jobs", "1"], {"kind": "mixture-concentration"}, "--jobs"),
])
def test_flag_that_changes_nothing_rejected(tmp_path, capsys, argv, cfg, flag):
    """--fast exits 2 for a kind or suite without a (full, fast) pair, and
    --jobs for a study kind that runs no replicates; nothing is written,
    and --dry-run exits 2 too."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--dry-run"]) == EXIT_CONFIG


@pytest.mark.parametrize("command,cfg,flags", [
    ("calibrate", {"grid_points": 2.5}, []),
    ("calibrate", {"n_total_blocks": "ten"}, []),
    ("calibrate", {"seed": 1.5}, []),
    ("calibrate", {"kind": "mixture", "J": True}, []),
    ("calibrate", {"kind": "mixture", "lambda_star": "0.9"}, []),
    ("study", {"n_replicates": 2.5}, []),
    ("risk-ratio", {"eta1": None}, []),
    ("simulate", {"seed": -1}, []),
    ("simulate", {}, ["--seed", "-1"]),
    # NaN and infinity pass the type check and fail where they are used
    ("calibrate", {"eta_upper": float("nan")}, []),
    ("calibrate", {"kind": "mixture", "eta_upper": float("inf")}, []),
    ("risk-ratio", {"eta1": float("nan")}, []),
    ("risk-ratio", {"eta2": float("inf")}, []),
    # zero counts, and no training or calibration data
    ("study", {"n_replicates": 0}, []),
    ("study", {"n_test_sets": 0}, []),
    ("risk-ratio", {"n_test_sets": 0}, []),
    ("oracle-check", {"suite": "table-f1", "table_n_rep": 0}, []),
    ("calibrate", {"n_train_blocks": 0}, []),
    ("calibrate", {"n_train_blocks": 60}, []),
    ("calibrate", {"kind": "mixture", "J": 0}, []),
    ("study", {"n_train_blocks": 0}, []),
    # test-set sizes below one, under either risk method, and --jobs below one
    ("study", {"risk_method": "exact", "test_blocks": -5, "n_replicates": 1}, []),
    ("study", {"risk_method": "exact", "test_blocks": 0, "n_replicates": 1}, []),
    ("study", {"risk_method": "exact", "n_test_sets": 0, "n_replicates": 1}, []),
    ("study", {"test_blocks": 0, "n_replicates": 1, "n_test_sets": 1}, []),
    ("study", {"n_replicates": 1, "n_test_sets": 1}, ["--jobs", "0"]),
    ("study", {"n_replicates": 1, "n_test_sets": 1}, ["--jobs", "-4"]),
    # J ladders: distinct ints >= 1, two or more for the concentration slope
    ("study", {"kind": "mixture-concentration", "J_ladder": [-5, 100]}, []),
    ("study", {"kind": "mixture-concentration", "J_ladder": ["a", 100]}, []),
    ("study", {"kind": "mixture-concentration", "J_ladder": []}, []),
    ("study", {"kind": "mixture-concentration", "J_ladder": [100]}, []),
    ("study", {"kind": "mixture-concentration", "J_ladder": [100, 100]}, []),
    ("study", {"kind": "mixture-concentration", "J_ladder": [True, 100]}, []),
    ("study", {"kind": "nested-check", "J_ladder": []}, []),
    ("study", {"kind": "nested-check", "J_ladder": [0]}, []),
    # (eta, b) bounds: two finite numbers lo < hi, eta >= 0 and b > 0
    ("study", {"kind": "nested-check", "eta_bounds": [1.0]}, []),
    ("study", {"kind": "nested-check", "eta_bounds": [-0.5, 1.0]}, []),
    ("study", {"kind": "nested-check", "b_bounds": [0.0, 1.0]}, []),
    ("study", {"kind": "nested-check", "b_bounds": [1.0, 0.5]}, []),
    ("study", {"kind": "nested-check", "eta_bounds": [0.1, float("inf")]},
     []),
    ("study", {"kind": "nested-check", "b_bounds": [0.5, "1"]}, []),
    # non-finite truth values, rejected before any draw or lattice
    ("simulate", {"kind": "ssm", "phi_M_star": float("nan")}, []),
    ("simulate", {"kind": "conjugate", "mu_star": float("nan")}, []),
    ("simulate", {"kind": "conjugate", "mu_star": float("-inf")}, []),
    ("risk-ratio", {"phi_M_star": float("nan")}, []),
    ("calibrate", {"phi_M_star": float("nan")}, []),
    ("calibrate", {"phi_M_star": float("inf")}, []),
    ("study", {"phi_M_star": float("nan"), "n_replicates": 1,
               "n_test_sets": 1}, []),
    # data under which the calibrated weight changes nothing: no interior
    # emission for eta to temper, no module-2 point for the mixture weight
    ("calibrate", {"d_x": 2}, []),
    ("calibrate", {"d_x": 1}, []),
    ("study", {"d_x": 2, "n_replicates": 1, "n_test_sets": 1}, []),
    ("study", {"d_x": 2, "risk_method": "exact", "n_replicates": 1}, []),
    ("risk-ratio", {"d_x": 2}, []),
    ("study", {"kind": "nested-check", "d_x": 2}, ["--fast"]),
    ("calibrate", {"kind": "mixture", "n2": 0}, []),
    ("study", {"kind": "mixture-concentration", "n2": 0}, []),
    # a value outside its key's fixed set
    ("calibrate", {"loss": "bogus"}, []),
    ("calibrate", {"kind": "mixture", "loss": "bogus"}, []),
    ("calibrate", {"kind": "mixture", "family": "bogus"}, []),
    ("study", {"loss": "bogus", "n_replicates": 1, "n_test_sets": 1}, []),
    ("study", {"risk_method": "bogus", "n_replicates": 1}, []),
    # nested-check budgets: an outer chain within the burn-in, no side steps
    ("study", {"kind": "nested-check", "n_outer": 10}, []),
    ("study", {"kind": "nested-check", "inner_len": 0}, ["--fast"]),
    # lattices of fewer than four points, an empty eta range, a weight
    # outside [0, 1], and negative or zero sample sizes
    ("calibrate", {"grid_points": 2}, []),
    ("study", {"kind": "mixture-concentration", "grid_points": 3}, []),
    ("calibrate", {"eta_upper": -1.0}, []),
    ("study", {"eta_upper": 0.0, "n_replicates": 1, "n_test_sets": 1}, []),
    ("simulate", {"lambda_star": 2.0}, []),
    ("calibrate", {"kind": "mixture", "lambda_star": 1.5}, []),
    ("calibrate", {"kind": "mixture", "lambda_star": -0.5}, []),
    ("study", {"kind": "mixture-concentration", "lambda_star": 1.01}, []),
    ("simulate", {"kind": "mixture", "n1": -1}, []),
    ("simulate", {"kind": "ssm", "n_blocks": 0}, []),
    ("risk-ratio", {"n_total_blocks": 0}, []),
    # a noise scale that is not positive, a negative learning rate, a block
    # without its two anchors, and a weight grid beyond [0, 1]
    ("calibrate", {"phi_M_star": -1.0}, []),
    ("study", {"kind": "nested-check", "phi_M_star": 0.0}, ["--fast"]),
    ("risk-ratio", {"eta1": -0.5}, []),
    ("simulate", {"kind": "ssm", "d_x": 1}, []),
    ("calibrate", {"kind": "mixture", "family": "gamma", "eta_upper": 2.0},
     []),
])
def test_bad_config_value_rejected(tmp_path, command, cfg, flags):
    """A value must fit the type of its key's default (an int is a float, a
    bool is not a number), seed must be non-negative, a hyperparameter
    finite, a count positive, a lattice at least four points, a weight in
    [0, 1], a learning rate non-negative, a noise scale positive and the
    data non-empty; nothing is coerced.  Every value is
    checked as the config is resolved: it exits 2 under --dry-run too, and
    nothing is written."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    for dry in (["--dry-run"], []):
        assert main([command, "--config", str(path), "--out", str(out)]
                    + flags + dry) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_truth_named_before_any_warning(tmp_path, capsys, value):
    """The error names the key, and no warning comes first: any warning
    would end the run with exit 3."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"phi_M_star": value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["calibrate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: phi_M_star must be finite, "
                                       f"got {value}\n")


@pytest.mark.parametrize("command, cfg", [
    ("calibrate", {"d_x": 2}),
    ("risk-ratio", {"d_x": 1}),
    ("study", {"kind": "nested-check", "d_x": 2}),
    ("calibrate", {"kind": "mixture", "n2": 0}),
    ("study", {"kind": "mixture-concentration", "n2": 0}),
    ("calibrate", {"d_x": 1}),
])
def test_data_the_weight_cannot_act_on_named_before_any_draw(
        tmp_path, capsys, monkeypatch, command, cfg):
    """d_x < 3 leaves eta no interior emission, n2 = 0 leaves the mixture
    weight no module-2 point: exit 2 naming the key and the bound the
    weight needs (not simulate's looser d_x >= 2), before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    for name in ("simulate_ssm", "simulate_mixture"):
        monkeypatch.setattr(datasets, name, no_draw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    key, least = next(kl for kl in (("d_x", 3), ("n2", 1)) if kl[0] in cfg)
    assert capsys.readouterr().err.startswith(
        f"error: {key} must be >= {least} for the calibrated weight")


@pytest.mark.parametrize("command, cfg, choices", [
    ("calibrate", {"loss": "bogus"}, "'product' or 'pooled'"),
    ("calibrate", {"kind": "mixture", "loss": "pooled "},
     "'product' or 'pooled'"),
    ("calibrate", {"kind": "mixture", "family": "Gamma"}, "'gamma' or 'eta'"),
    ("study", {"loss": "bogus"}, "'product' or 'pooled'"),
    ("study", {"risk_method": "simulated"}, "'simulate' or 'exact'"),
])
def test_value_outside_its_choices_named_before_anything_is_written(
        tmp_path, capsys, monkeypatch, command, cfg, choices):
    """loss, family and risk_method take fixed sets of values: another
    value exits 2 naming its key, under --dry-run too, and a real run
    neither draws data nor writes the resolved config."""
    def no_draw(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    for name in ("simulate_ssm", "simulate_mixture"):
        monkeypatch.setattr(datasets, name, no_draw)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    (key, value), = ((k, v) for k, v in cfg.items() if k != "kind")
    for flags in (["--dry-run"], []):
        assert main([command, "--config", str(path), "--out", str(out)]
                    + flags) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {key} must be {choices}, "
                                f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_that_cannot_be_a_directory_rejected(tmp_path, capsys, out):
    """--out naming a file, or a path under one, is a config error that
    names the path, and the file is left as it was."""
    (tmp_path / "taken").write_text("kept")
    assert main(["simulate", "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert repr(str(tmp_path / out)) in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "kept"


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    for text in ("{not json", "[1, 2]"):
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG


def test_unknown_simulate_kind(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "bogus"}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_dry_run_prints_config_without_outputs(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "sub"), "--dry-run"])
    assert rc == EXIT_OK
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["seed"] == 0
    assert not (tmp_path / "sub" / "mixture.csv").exists()


def _echo_and_exit(argv, capsys):
    """(exit code, stdout, stderr) of one call; an argparse error exits
    through SystemExit."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("first,second", [
    (["study", "--fast", "--dry-run"], ["study", "--dry-run"]),
    (["calibrate", "--seed", "5", "--dry-run"], ["calibrate", "--dry-run"]),
    (["calibrate", "--jobs", "2"], ["calibrate", "--dry-run"]),
])
def test_parser_built_once_and_keeps_no_state_between_calls(capsys, first,
                                                           second):
    """Every call in a process shares one parser, and each call echoes and
    exits exactly as it does alone, on a freshly built parser."""
    alone = []
    for argv in (first, second):
        cli._parser.cache_clear()
        alone.append(_echo_and_exit(argv, capsys))
    cli._parser.cache_clear()
    together = [_echo_and_exit(argv, capsys) for argv in (first, second)]
    assert together == alone
    assert cli._parser.cache_info().misses == 1
    assert [rc for rc, _, _ in alone] == [
        EXIT_CONFIG if "--jobs" in first else EXIT_OK, EXIT_OK]


def test_config_seed_used_unless_flag_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    for sub, flags, want in (("a", [], 5), ("b", ["--seed", "7"], 7),
                             ("c", ["--seed", "5"], 5)):
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / sub)] + flags)
        assert rc == EXIT_OK
        resolved = json.loads((tmp_path / sub / "simulate_config.json").read_text())
        assert resolved["seed"] == want
    a = read_modular_csv(tmp_path / "a" / "mixture.csv")
    b = read_modular_csv(tmp_path / "b" / "mixture.csv")
    c = read_modular_csv(tmp_path / "c" / "mixture.csv")
    assert np.array_equal(a.x1.points, c.x1.points)
    assert not np.array_equal(a.x1.points, b.x1.points)


def test_method_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--method", "nested", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "posterior.csv").exists()


def test_config_of_another_command_rejected(tmp_path):
    assert main(["simulate", "--out", str(tmp_path)]) == EXIT_OK
    rc = main(["calibrate", "--config", str(tmp_path / "simulate_config.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_calibrate_mixture(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "mixture", "family": "gamma",
                               "J": 200, "grid_points": 21}))
    rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path),
               "--seed", "5"])
    assert rc == EXIT_OK
    est = json.loads((tmp_path / "estimators.json").read_text())
    assert 0.0 <= est["mean"]["gamma"] <= 1.0
    lines = (tmp_path / "posterior.csv").read_text().splitlines()
    assert lines[0] == "s_axis0,log_pred,log_prior,log_post_norm"
    assert len(lines) == 22


def test_calibrate_ssm(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ssm", "n_total_blocks": 15,
                               "n_train_blocks": 5, "grid_points": 9,
                               "phi_M_star": 0.5}))
    rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    est = json.loads((tmp_path / "estimators.json").read_text())
    assert 0.0 <= est["mean"]["eta"] <= 1.0


def test_study_fast(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_total_blocks": 20, "n_train_blocks": 5,
                               "n_replicates": 2, "n_test_sets": 2,
                               "test_blocks": 20, "grid_points": 9}))
    rc = main(["study", "--config", str(cfg), "--out", str(tmp_path),
               "--fast"])
    assert rc == EXIT_OK
    recs = [json.loads(l) for l in (tmp_path / "study.jsonl").read_text().splitlines()]
    assert len(recs) == 2
    assert {"mean_vs_bayes", "mean_vs_cut"} <= set(recs[0]["risk_ratios"])
    for rec in recs:
        logs = rec["mean_log_ratios"]
        assert set(logs) == set(rec["risk_ratios"])
        assert all(np.isfinite(v) for v in logs.values())
    summary = (tmp_path / "study_summary.csv").read_text().splitlines()
    assert summary[0] == "comparison,min,q25,median,q75,max,mean"
    assert len(summary) == 1 + 2                # vs plain Bayes and vs cut


def test_study_fast_dry_run_resolves_sizes(tmp_path, capsys):
    """--fast picks the fast member of each (full, fast) pair of the kind:
    the replicate and test-set counts of ssm (exact risk resolves no
    test-set count), and the J ladder, outer chain and side-chain length
    of nested-check."""
    ssm_sizes = {"seed": 0, "kind": "ssm", "n_replicates": 20,
                 "phi_M_star": 1.0, "n_total_blocks": 60, "d_x": 6,
                 "n_train_blocks": 10, "test_blocks": 100, "eta_upper": 1.0,
                 "grid_points": 41, "loss": "product"}
    assert main(["study", "--fast", "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == dict(
        ssm_sizes, n_test_sets=10, risk_method="simulate")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"risk_method": "exact"}))
    assert main(["study", "--config", str(path), "--fast",
                 "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == dict(
        ssm_sizes, risk_method="exact")
    path.write_text(json.dumps({"kind": "nested-check"}))
    assert main(["study", "--config", str(path), "--fast",
                 "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "seed": 0, "kind": "nested-check", "n_train_blocks": 10, "d_x": 6,
        "phi_M_star": 0.7, "J_ladder": [10], "eta_bounds": [0.05, 1.0],
        "b_bounds": [0.25, 1.0], "grid_points": 9, "n_outer": 250,
        "inner_len": 5}


def test_study_replays_from_resolved_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_total_blocks": 20, "n_train_blocks": 5,
                               "test_blocks": 20, "grid_points": 9,
                               "seed": 4}))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["study", "--config", str(cfg), "--out", str(first),
                 "--fast"]) == EXIT_OK
    resolved = json.loads((first / "study_config.json").read_text())
    assert resolved["n_replicates"] == 20 and resolved["n_test_sets"] == 10
    assert resolved["seed"] == 4
    assert main(["study", "--config", str(first / "study_config.json"),
                 "--out", str(replay)]) == EXIT_OK
    assert ((first / "study.jsonl").read_bytes()
            == (replay / "study.jsonl").read_bytes())


def test_study_config_without_kind_replays(tmp_path):
    """A resolved simulated-risk config written before study had kinds (no
    kind key) still runs as kind ssm, and writes the study.jsonl that the
    library writes for the same SsmStudyConfig; its re-resolved config,
    which gains kind ssm, replays it byte for byte."""
    old = {"command": "study", "seed": 2, "phi_M_star": 0.7,
           "n_total_blocks": 20, "d_x": 6, "n_train_blocks": 5,
           "n_replicates": 2, "n_test_sets": 2, "test_blocks": 20,
           "eta_upper": 1.0, "grid_points": 9, "loss": "product",
           "risk_method": "simulate"}
    path = tmp_path / "study_config.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["study", "--config", str(path), "--out", str(first)]) == EXIT_OK
    resolved = first / "study_config.json"
    assert json.loads(resolved.read_text()) == dict(old, kind="ssm")
    assert main(["study", "--config", str(resolved), "--out",
                 str(replay)]) == EXIT_OK
    evaluation.ssm_replicate_study(evaluation.SsmStudyConfig(
        truth=SsmTruth(phi_M_star=0.7), n_total_blocks=20, n_train_blocks=5,
        n_replicates=2, n_test_sets=2, test_blocks=20, grid_points=9,
        seed=2)).write_jsonl(tmp_path / "library.jsonl")
    want = (tmp_path / "library.jsonl").read_bytes()
    assert (first / "study.jsonl").read_bytes() == want
    assert (replay / "study.jsonl").read_bytes() == want


def _replays_byte_for_byte(first, replay):
    """Rerun the study resolved in first from its config alone, into
    replay, and compare every file."""
    assert main(["study", "--config", str(first / "study_config.json"),
                 "--out", str(replay)]) == EXIT_OK
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in replay.iterdir()) == names
    for name in names:
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_study_mixture_concentration(tmp_path, capsys):
    """The printed slope is the least-squares slope of the product loss's
    log sd on log J, as written to mixture.csv."""
    path, first = tmp_path / "cfg.json", tmp_path / "first"
    path.write_text(json.dumps({"kind": "mixture-concentration",
                                "J_ladder": [100, 1000]}))
    assert main(["study", "--config", str(path), "--out", str(first)]) == EXIT_OK
    lines = (first / "mixture.csv").read_text().splitlines()
    assert lines[0] == "loss,J,mean,mode,sd"
    assert len(lines) == 1 + 2 * 2              # both losses at both J
    printed = capsys.readouterr().out
    assert "sd slope in log J" in printed
    product = [row.split(",") for row in lines[1:] if row.startswith("product")]
    Js = np.array([float(row[1]) for row in product])
    sds = np.array([float(row[4]) for row in product])
    fitted = np.polyfit(np.log(Js), np.log(sds), 1)[0]
    slope = float(printed.split("sd slope in log J:")[1].split()[0])
    # 4 printed decimals; the 6 significant digits of each sd move the
    # fitted slope by under 1e-5
    assert slope == pytest.approx(fitted, abs=5e-5 + 1e-5)
    _replays_byte_for_byte(first, tmp_path / "replay")
    assert capsys.readouterr().out == printed


def test_study_nested_check(tmp_path, capsys):
    """The fast budget (J = 10, 250 outer steps, side chains of 5) is
    recorded, so the replay needs no --fast."""
    path, first = tmp_path / "cfg.json", tmp_path / "first"
    path.write_text(json.dumps({"kind": "nested-check"}))
    assert main(["study", "--config", str(path), "--out", str(first),
                 "--fast"]) == EXIT_OK
    assert sorted(p.name for p in first.iterdir()) == [
        "grid_J10.csv", "nested_J10.csv", "study_config.json"]
    draws = (first / "nested_J10.csv").read_text().splitlines()
    assert draws[0] == "eta,b"
    assert len(draws) > 1
    printed = capsys.readouterr().out
    assert "KS distance" in printed
    _replays_byte_for_byte(first, tmp_path / "replay")
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("budget", [{"n_outer": 0}, {"n_outer": 200},
                                    {"inner_len": 0}])
def test_study_nested_check_budget_rejected_before_lattice(tmp_path,
                                                          monkeypatch, budget):
    """An outer chain no longer than the sampler's burn-in, or side chains
    of no steps, exit 2 before the first (eta, b) lattice is built and
    before anything is written."""
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice ran")

    monkeypatch.setattr(ssm, "ssm_eta_b_grid_posterior", no_lattice)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps({"kind": "nested-check", "J_ladder": [3],
                                **budget}))
    assert main(["study", "--config", str(path), "--out",
                 str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_risk_ratio_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_total_blocks": 10, "test_blocks": 20,
                               "n_test_sets": 3, "eta1": 0.5, "eta2": 1.0}))
    rc = main(["risk-ratio", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "risk_ratio.json").read_text())
    assert rep["n_test_sets"] == 3 and np.isfinite(rep["value"])
    # Jensen: the mean log ratio never exceeds the log of the mean ratio
    assert np.isfinite(rep["mean_log_ratio"])
    assert rep["mean_log_ratio"] <= np.log(rep["value"]) + 1e-12


def test_risk_ratio_matches_one_lattice_per_eta(tmp_path):
    """The two etas share one lattice; risk_ratio.json is byte-identical to
    scoring with a separately built one-row lattice per eta."""
    cfg = {"phi_M_star": 0.5, "n_total_blocks": 12, "test_blocks": 20,
           "n_test_sets": 4, "eta1": 0.3, "eta2": 1.0, "seed": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["risk-ratio", "--config", str(path), "--out",
                 str(tmp_path)]) == EXIT_OK
    truth = SsmTruth(phi_M_star=0.5)
    full = datasets.simulate_ssm(truth, 12, 6, 2)
    posts = {eta: ssm.build_ssm_phi_posterior(full, truth, eta)
             for eta in (0.3, 1.0)}
    # fresh anchor residuals r = 2 phi_A*^2 u, u ~ Exp(1), one row per set
    r = 2.0 * truth.phi_A_star ** 2 * np.random.default_rng(
        2 + 7000).standard_exponential((4, 20))
    scores = {eta: np.array([post.scores(z) for z in r])
              for eta, post in posts.items()}
    rep = evaluation.risk_ratio_product(0.3, 1.0, scores[0.3], scores[1.0])
    want = json.dumps({"s1": rep.s1, "s2": rep.s2, "value": rep.value,
                       "mean_log_ratio": rep.mean_log_ratio,
                       "mc_se": rep.mc_se, "n_test_sets": rep.n_test_sets},
                      indent=2)
    assert (tmp_path / "risk_ratio.json").read_text() == want


_SSM_DATA = {"phi_M_star": 1.0, "n_total_blocks": 60, "d_x": 6}


@pytest.mark.parametrize("command,given,resolved,outputs", [
    ("simulate", {"kind": "mixture", "n2": 8},
     {"kind": "mixture", "lambda_star": 0.9, "n1": 30, "n2": 8},
     ["mixture.csv"]),
    ("simulate", {"kind": "ssm", "n_blocks": 4},
     {"kind": "ssm", "phi_M_star": 1.0, "n_blocks": 4, "d_x": 6},
     ["ssm.csv"]),
    ("simulate", {"kind": "conjugate"},
     {"kind": "conjugate", "mu_star": 0.0, "n": 10}, ["conjugate.csv"]),
    ("calibrate", {"n_total_blocks": 15, "n_train_blocks": 5,
                   "grid_points": 9},
     {**_SSM_DATA, "kind": "ssm", "n_total_blocks": 15, "n_train_blocks": 5,
      "grid_points": 9, "loss": "product", "eta_upper": 1.0},
     ["posterior.csv", "estimators.json"]),
    ("calibrate", {"kind": "mixture", "J": 200},
     {"kind": "mixture", "loss": "product", "lambda_star": 0.9, "n1": 30,
      "n2": 60, "J": 200, "family": "gamma", "eta_upper": 1.0,
      "grid_points": 41},
     ["posterior.csv", "estimators.json"]),
    ("study", {"n_total_blocks": 20, "n_train_blocks": 5, "n_replicates": 2,
               "n_test_sets": 2, "test_blocks": 20, "grid_points": 9},
     {**_SSM_DATA, "kind": "ssm", "n_total_blocks": 20, "n_train_blocks": 5,
      "n_replicates": 2, "n_test_sets": 2, "test_blocks": 20,
      "eta_upper": 1.0, "grid_points": 9, "loss": "product",
      "risk_method": "simulate"},
     ["study.jsonl", "study_summary.csv"]),
    ("risk-ratio", {"n_total_blocks": 10, "test_blocks": 20,
                    "n_test_sets": 3},
     {**_SSM_DATA, "n_total_blocks": 10, "test_blocks": 20, "n_test_sets": 3,
      "eta1": 0.5, "eta2": 1.0},
     ["risk_ratio.json"]),
])
def test_resolved_config_records_defaults_and_replays(tmp_path, command, given,
                                                       resolved, outputs):
    """The resolved config holds every key the command and kind read, the
    defaults included, so it replays the run without them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(given, seed=3)))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main([command, "--config", str(path), "--out", str(first)]) == EXIT_OK
    name = command.replace("-", "_")
    written = first / f"{name}_config.json"
    assert json.loads(written.read_text()) == dict(resolved, seed=3,
                                                   command=name)
    assert main([command, "--config", str(written), "--out",
                 str(replay)]) == EXIT_OK
    assert (replay / written.name).read_bytes() == written.read_bytes()
    for out in outputs:
        assert (replay / out).read_bytes() == (first / out).read_bytes()


def test_cli_runs_without_scipy_stats(tmp_path):
    """Importing the CLI, calibrating (ssm and mixture), fast studies with
    both risk methods, a tiny nested-check study, risk-ratio and simulating
    (every kind) load none of scipy.stats, scipy.interpolate,
    scipy.optimize and scipy.linalg: the 1-d and 2-d splines and the KS
    distance are in-house, and the scipy modules are imported only where
    the conjugate oracle, the minimum-KL smoothing and the AGHQ mode search
    need them.  The laplace-aghq suite still loads no scipy.stats.
    Run in a fresh interpreter: other test modules import scipy."""
    code = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        from gbcal.cli import main
        unused = ("scipy.stats", "scipy.interpolate", "scipy.optimize",
                  "scipy.linalg")

        def check(when):
            loaded = [m for m in unused if m in sys.modules]
            assert not loaded, f"{{when}} loaded {{loaded}}"

        check("import gbcal.cli")
        out = Path({str(tmp_path)!r})
        study = {{"n_total_blocks": 20, "n_train_blocks": 5,
                  "n_replicates": 1, "n_test_sets": 2, "test_blocks": 10,
                  "grid_points": 9}}
        exact = dict(study, risk_method="exact")
        del exact["n_test_sets"]                # exact risk draws no test set
        runs = [("calibrate", {{"kind": "ssm", "n_total_blocks": 15,
                                "n_train_blocks": 5, "grid_points": 9}}),
                ("calibrate", {{"kind": "mixture", "J": 100}}),
                ("study", study),
                ("study", exact),
                ("study", {{"kind": "nested-check", "J_ladder": [3]}}),
                ("risk-ratio", {{"n_total_blocks": 20, "test_blocks": 10,
                                 "n_test_sets": 2}}),
                ("simulate", {{"kind": "mixture"}}),
                ("simulate", {{"kind": "ssm", "n_blocks": 10}}),
                ("simulate", {{"kind": "conjugate"}})]
        for i, (command, cfg) in enumerate(runs):
            path = out / f"cfg{{i}}.json"
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--out", str(out / str(i))]
            assert main(argv + (["--fast"] if command == "study" else [])) == 0
            check(f"{{command}} {{cfg}}")
        assert main(["oracle-check", "laplace-aghq"]) == 0
        assert "scipy.stats" not in sys.modules, "oracle-check laplace-aghq"
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_ks_distance_matches_scipy_ks_2samp():
    """nested-check's KS distance is scipy's ks_2samp statistic: with ties
    within and across the samples, unequal sizes, one sample inside the
    other, nested-check's own sizes (rounded to a multiple of
    1 / lcm(n1, n2)) and a sample above 10,000 (not rounded)."""
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(23)
    sizes = [(1, 1), (1, 7), (13, 5), (50, 6000), (3800, 6000), (10001, 40)]
    sizes += [tuple(rng.integers(1, 400, 2)) for _ in range(40)]
    for k, (n1, n2) in enumerate(sizes):
        a = rng.normal(size=n1)
        b = rng.normal(0.2, 1.3, size=n2)
        if k % 2:                                       # ties
            a, b = np.round(a, 1), np.round(b, 1)
        if k % 5 == 4:                                  # b inside a
            b = a[: max(1, n1 // 3)].copy()
        want = ks_2samp(a, b).statistic
        assert cli._ks_distance(a, b) == pytest.approx(want, rel=1e-12,
                                                       abs=1e-12)


@pytest.mark.parametrize("suite", ["conjugate", "mixture", "laplace-aghq"])
def test_oracle_check_suites_pass(suite):
    assert main(["oracle-check", suite]) == EXIT_OK


def test_oracle_check_table_fast():
    assert main(["oracle-check", "table-f1", "--fast"]) == EXIT_OK


def test_oracle_check_dry_run_and_replay(tmp_path, capsys, monkeypatch):
    """--dry-run echoes the resolved config and runs nothing; --out records
    it, with the table budget that --fast chose, so the run replays from the
    file alone, without --fast, with the same checks, tolerance and exit
    code; without --out nothing is written."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "table-f1", "table_n_rep": 10}))
    assert main(["oracle-check", "--config", str(path), "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "suite": "table-f1", "table_n_rep": 10, "seed": 0}
    assert main(["oracle-check", "mixture"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    capsys.readouterr()
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["oracle-check", "table-f1", "--fast", "--seed", "2",
                 "--out", str(first)]) == EXIT_OK
    checks = capsys.readouterr().err
    resolved = json.loads((first / "oracle_check_config.json").read_text())
    assert resolved == {"command": "oracle_check", "suite": "table-f1",
                        "table_n_rep": 2000, "seed": 2}
    assert main(["oracle-check", "--config",
                 str(first / "oracle_check_config.json"),
                 "--out", str(replay)]) == EXIT_OK
    assert capsys.readouterr().err == checks
    table = (first / "interior_table.csv").read_bytes()
    assert table.startswith(b"mu_sigma2,var_sigma2,a,b,")
    assert len(table.splitlines()) == 1 + 5     # one row per prior setting
    assert (replay / "interior_table.csv").read_bytes() == table


def test_oracle_check_unknown_suite(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "nope"}))
    rc = main(["oracle-check", "--config", str(cfg)])
    assert rc == EXIT_CONFIG
