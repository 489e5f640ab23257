import json

import numpy as np
import pytest

from gbcal.cli import EXIT_CONFIG, EXIT_OK, main
from gbcal.datasets import read_modular_csv, read_ssm_csv


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
    # keys of another command
    ("study", {"kind": "ssm"}),
    ("risk-ratio", {"grid_points": 9}),
    ("oracle-check", {"suite": "conjugate", "table_n_rep": 10}),
    # keys nothing reads
    ("calibrate", {"kind": "ssm", "b_upper": 2.0}),
    ("calibrate", {"kind": "mixture", "prior": "flat"}),
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
        ("study", {"phi_M_star": 0.5, "n_total_blocks": 20,
                   "n_train_blocks": 5, "d_x": 6, "n_replicates": 2,
                   "n_test_sets": 2, "test_blocks": 20, "eta_upper": 1.0,
                   "grid_points": 9, "loss": "product",
                   "risk_method": "exact"}),
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


def test_study_fast_dry_run_resolves_sizes(capsys):
    assert main(["study", "--fast", "--dry-run"]) == EXIT_OK
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == {"seed": 0, "n_replicates": 20, "n_test_sets": 10}


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


@pytest.mark.parametrize("suite", ["conjugate", "mixture", "laplace-aghq"])
def test_oracle_check_suites_pass(suite):
    assert main(["oracle-check", suite]) == EXIT_OK


def test_oracle_check_table_fast():
    assert main(["oracle-check", "table-f1", "--fast"]) == EXIT_OK


def test_oracle_check_dry_run_and_replay(tmp_path, capsys, monkeypatch):
    """--dry-run echoes the resolved config and runs nothing; --out records
    it, with the table budget that --fast chose, so the run replays; without
    --out nothing is written."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "table-f1", "table_n_rep": 10}))
    assert main(["oracle-check", "--config", str(path), "--dry-run"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "suite": "table-f1", "table_n_rep": 10, "seed": 0}
    assert main(["oracle-check", "mixture"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["oracle-check", "table-f1", "--fast", "--seed", "2",
                 "--out", str(first)]) == EXIT_OK
    resolved = json.loads((first / "oracle_check_config.json").read_text())
    assert resolved == {"command": "oracle_check", "suite": "table-f1",
                        "table_n_rep": 2000, "seed": 2}
    assert main(["oracle-check", "--config",
                 str(first / "oracle_check_config.json"), "--fast",
                 "--out", str(replay)]) == EXIT_OK
    assert ((first / "interior_table.csv").read_bytes()
            == (replay / "interior_table.csv").read_bytes())


def test_oracle_check_unknown_suite(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "nope"}))
    rc = main(["oracle-check", "--config", str(cfg)])
    assert rc == EXIT_CONFIG
