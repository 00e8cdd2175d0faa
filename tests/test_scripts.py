import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--points", "3"], "need at least 4 points to fit, got 3"),
        (["--n-lo", "0.2"], "particle count must be >= 1, got 0"),
    ],
)
def test_scaling_fit_reports_a_refused_argument(tmp_path, capsys, argv, message):
    script = _load_script("run_scaling_fit")
    assert script.main([*argv, "--n-hi", "1e4", "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert "pair @" not in out
    assert not list(tmp_path.rglob("*.csv"))  # nothing is written before every fit passes

