"""Smoke runs of the experiment scripts at small budgets: each exits 0 and
writes its files.  The SSM risk study and the finite-optimum table run from
the CLI (write_summary_csv, write_interior_table_csv) and test_cli.py."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_mixture_concentration_script(tmp_path, capsys):
    out = tmp_path / "mixture.csv"
    assert _main("run_mixture_concentration")(
        ["--J-ladder", "100", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "loss,J,mean,mode,sd"
    assert len(lines) == 1 + 2 * 2              # both losses at both J
    assert "sd slope in log J" in capsys.readouterr().out


def test_nested_mcmc_check_script(tmp_path):
    assert _main("run_nested_mcmc_check")(
        ["--J-ladder", "10", "--n-outer", "250", "--inner-len", "5",
         "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid_J10.csv",
                                                          "nested_J10.csv"]
    draws = (tmp_path / "nested_J10.csv").read_text().splitlines()
    assert draws[0] == "eta,b"
    assert len(draws) > 1
