import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gbcal import datasets, evaluation, ssm
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
])
def test_bad_config_value_rejected(tmp_path, command, cfg, flags):
    """A value must fit the type of its key's default (an int is a float, a
    bool is not a number), seed must be non-negative, a hyperparameter
    finite, a count positive and the data non-empty; nothing is coerced
    and nothing but the resolved config is written."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]
                + flags) == EXIT_CONFIG
    assert {p.suffix for p in out.glob("*")} <= {".json"}


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
    assert len(summary) == 1 + 2                # vs plain Bayes and vs cut


def test_study_fast_dry_run_resolves_sizes(capsys):
    assert main(["study", "--fast", "--dry-run"]) == EXIT_OK
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == {"seed": 0, "n_replicates": 20, "n_test_sets": 10,
                      "phi_M_star": 1.0, "n_total_blocks": 60, "d_x": 6,
                      "n_train_blocks": 10, "test_blocks": 100,
                      "eta_upper": 1.0, "grid_points": 41,
                      "loss": "product", "risk_method": "simulate"}


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
    tests = [datasets.simulate_ssm(truth, 20, 6, 2 + 7000 + k)
             for k in range(4)]
    scores = {eta: np.array([post.block_log_predictive(z) for z in tests])
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
     {**_SSM_DATA, "n_total_blocks": 20, "n_train_blocks": 5,
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
    """Importing the CLI, calibrating (ssm and mixture), a small fast study
    and the laplace-aghq oracle suite never load scipy.stats; only the
    conjugate oracle imports it.
    Run in a fresh interpreter: other test modules import scipy.stats."""
    code = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        from gbcal.cli import main
        assert "scipy.stats" not in sys.modules, "on import"
        out = Path({str(tmp_path)!r})
        runs = [("calibrate", {{"kind": "ssm", "n_total_blocks": 15,
                                "n_train_blocks": 5, "grid_points": 9}}),
                ("calibrate", {{"kind": "mixture", "J": 100}}),
                ("study", {{"n_total_blocks": 20, "n_train_blocks": 5,
                            "n_replicates": 1, "n_test_sets": 2,
                            "test_blocks": 10, "grid_points": 9}})]
        for i, (command, cfg) in enumerate(runs):
            path = out / f"cfg{{i}}.json"
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--out", str(out / str(i))]
            assert main(argv + (["--fast"] if command == "study" else [])) == 0
            assert "scipy.stats" not in sys.modules, command
        assert main(["oracle-check", "laplace-aghq"]) == 0
        assert "scipy.stats" not in sys.modules, "oracle-check laplace-aghq"
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


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
