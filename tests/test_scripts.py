import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def oracle_audit():
    spec = importlib.util.spec_from_file_location("run_oracle_audit", SCRIPTS / "run_oracle_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_audit_passes(oracle_audit, capsys):
    assert oracle_audit.main(["--n-max", "3", "--mu-points", "4"]) == 0
    assert "overall: " in capsys.readouterr().out


def test_oracle_audit_counts_nan_discrepancy_as_failure(oracle_audit, capsys, monkeypatch):
    from spinsqueeze import exact_oracle

    exact = exact_oracle.squeeze_trace

    def nan_mean(spec, mu):
        return dataclasses.replace(exact(spec, mu), perp_expectation=math.nan)

    monkeypatch.setattr(exact_oracle, "squeeze_trace", nan_mean)
    assert oracle_audit.main(["--n-max", "2", "--mu-points", "2"]) == 2
    assert "overall: nan" in capsys.readouterr().out
