"""Smoke runs of the experiment scripts at small budgets: each exits 0 and
writes its files.  The scripts are the only callers of quantile_rows,
concentration_diagnostics and write_interior_table_csv."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _files(path: Path):
    return sorted(p.name for p in path.iterdir())


def test_interior_probability_table_script(tmp_path):
    out = tmp_path / "interior_table.csv"
    assert _main("run_interior_probability_table")(
        ["--n-rep", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mu_sigma2,var_sigma2,a,b,")
    assert len(lines) == 1 + 5                  # one row per prior setting


def test_mixture_concentration_script(tmp_path, capsys):
    out = tmp_path / "mixture.csv"
    assert _main("run_mixture_concentration")(
        ["--J-ladder", "100", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "loss,J,mean,mode,sd"
    assert len(lines) == 1 + 2 * 2              # both losses at both J
    assert "sd slope in log J" in capsys.readouterr().out


def test_ssm_risk_study_script(tmp_path):
    assert _main("run_ssm_risk_study")(
        ["--levels", "1.0", "--replicates", "2", "--test-sets", "3",
         "--out", str(tmp_path)]) == 0
    assert _files(tmp_path) == ["study_level1.jsonl", "summary_level1.csv"]
    assert len((tmp_path / "study_level1.jsonl").read_text().splitlines()) == 2
    summary = (tmp_path / "summary_level1.csv").read_text().splitlines()
    assert summary[0] == "comparison,min,q25,median,q75,max,mean"
    assert len(summary) == 1 + 2                # vs plain Bayes and vs cut


def test_nested_mcmc_check_script(tmp_path):
    assert _main("run_nested_mcmc_check")(
        ["--J-ladder", "10", "--n-outer", "250", "--inner-len", "5",
         "--out", str(tmp_path)]) == 0
    assert _files(tmp_path) == ["grid_J10.csv", "nested_J10.csv"]
    draws = (tmp_path / "nested_J10.csv").read_text().splitlines()
    assert draws[0] == "eta,b"
    assert len(draws) > 1
