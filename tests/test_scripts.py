import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def oracle_audit():
    return _load_script("run_oracle_audit")


def test_oracle_audit_passes(oracle_audit, capsys):
    assert oracle_audit.main(["--n-max", "3", "--mu-points", "4"]) == 0
    assert "overall: " in capsys.readouterr().out


def test_oracle_audit_refuses_an_empty_mu_grid(oracle_audit, capsys):
    assert oracle_audit.main(["--n-max", "3", "--mu-points", "0"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: the mu grid is empty\n"
    assert "overall" not in out


@pytest.mark.parametrize("n_max", ["1", "0", "-3"])
def test_oracle_audit_refuses_n_max_below_two(oracle_audit, capsys, n_max):
    assert oracle_audit.main(["--n-max", n_max, "--mu-points", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: --n-max must be >= 2 (the audit starts at N = 2), got {n_max}\n"
    assert "overall" not in out


@pytest.mark.parametrize(
    "argv,code", [(["--n-max", "x"], 1), (["--mu-points", "-2"], 1), (["--help"], 0)]
)
def test_oracle_audit_maps_usage_errors_to_one_and_help_to_zero(oracle_audit, capsys, argv, code):
    assert oracle_audit.main(argv) == code
    assert "overall" not in capsys.readouterr().out


def test_oracle_audit_counts_nan_discrepancy_as_failure(oracle_audit, capsys, monkeypatch):
    from spinsqueeze import exact_oracle

    exact = exact_oracle.squeeze_trace

    def nan_mean(spec, mu):
        return dataclasses.replace(exact(spec, mu), perp_expectation=math.nan)

    monkeypatch.setattr(exact_oracle, "squeeze_trace", nan_mean)
    assert oracle_audit.main(["--n-max", "2", "--mu-points", "2"]) == 2
    assert "overall: nan" in capsys.readouterr().out


def test_weight_scan_writes_one_csv_per_multiblock_class(tmp_path, capsys):
    script = _load_script("run_weight_scan")
    assert script.main(["--n", "1000", "--points", "5", "--outdir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("scan_*_n1000.csv"))
    assert [p.name for p in paths] == [
        "scan_1-0_n1000.csv",
        "scan_1o2-0-0_n1000.csv",
        "scan_1o2-1o2_n1000.csv",
    ]
    for path in paths:
        lines = path.read_text().splitlines()
        assert lines[0] == "zeta1_sq,xi2_min,mu_min,status"
        assert len(lines) == 6
    assert capsys.readouterr().out.count("wrote") == 3


def test_scaling_fit_writes_both_datasets(tmp_path, capsys):
    script = _load_script("run_scaling_fit")
    argv = ["--n-lo", "1e3", "--n-hi", "1e4", "--points", "5", "--outdir", str(tmp_path)]
    assert script.main(argv) == 0
    for name in ("irreducible.csv", "pair_at_maximum.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "n,xi2_min,mu_min,status"
        assert len(lines) == 6
        assert all(line.endswith(",ok") for line in lines[1:])
    out = capsys.readouterr().out
    assert "irreducible: xi2_min ~" in out
    assert "pair @ |zeta1|^2=1-pi/4" in out
