import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinsqueeze
from spinsqueeze import IrrepDecomposition, ScanConfig, SpinQuantum, fit_power_law, n_scan, zeta_scan
from spinsqueeze.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_spin32(capsys):
    code, out, _ = run_cli(capsys, "classify", "--j", "3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    classes = payload["classes"]
    assert len(classes) == 4
    assert [c["subspins"] for c in classes] == [
        ["3/2"],
        ["0", "1"],
        ["1/2", "1/2"],
        ["0", "0", "1/2"],
    ]
    fs = [c["f"] for c in classes]
    assert fs == pytest.approx([1.0, math.sqrt(2.5), math.sqrt(5.0), math.sqrt(10.0)], abs=1e-12)
    assert classes[0]["example_subset"] == [1, 2, 3]


def test_classify_emit_matrices(capsys):
    code, out, _ = run_cli(capsys, "classify", "--j", "1", "--emit-matrices")
    assert code == 0
    payload = json.loads(out)
    entry = payload["classes"][0]
    assert "o3_re" in entry and "o1_im" in entry
    o3 = np.array(entry["o3_re"]) + 1j * np.array(entry["o3_im"])
    assert np.allclose(o3, np.diag([1.0, 0.0, -1.0]))


def test_generators_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "generators", "--j", "3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["j"] == "3/2"
    gens = payload["generators"]
    assert [g["name"] for g in gens][:3] == ["Jx", "Jy", "Jz"]
    assert len(gens) == 15
    jz = np.array(gens[2]["re"]) + 1j * np.array(gens[2]["im"])
    assert np.allclose(jz, np.diag([1.5, 0.5, -0.5, -1.5]), atol=1e-16)
    # 17-significant-digit float text survives the round trip exactly
    y = np.array(gens[7]["re"])
    assert y[0][0] == math.sqrt(5.0) / 2.0


def test_roots_output(capsys):
    code, out, _ = run_cli(capsys, "roots", "--j", "3/2")
    assert code == 0
    payload = json.loads(out)
    roots = payload["roots"]
    assert len(roots) == 12
    tops = {tuple(np.round(r["root"], 6)) for r in roots}
    assert (1.0, round(math.sqrt(5.0), 6), 2.0) in tops
    first = roots[0]
    ladder = np.array(first["ladder_re"]) + 1j * np.array(first["ladder_im"])
    assert ladder.shape == (4, 4)


def test_limits_type_i(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1,2,3", "--n", "100000", "--zeta", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert abs(payload["xi2_min"] / 2.354e-4 - 1) < 0.05
    assert abs(payload["mu_min"] / 5.36e-4 - 1) < 0.05


def test_limits_no_squeezing_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--j", "1/2", "--class", "1", "--n", "1", "--zeta", "1"
    )
    assert code == 2
    assert json.loads(out)["status"] == "no_squeezing"


def test_oat_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "oat-sweep", "--j", "3/2", "--class", "1,3", "--n", "6",
        "--zeta", "0.70710678118654752,0.70710678118654752",
        "--mu-max", "1.0", "--mu-points", "5", "--no-banner",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,perp,var_min,var_max,nu_min,xi2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(1.0, abs=1e-10)


def test_oat_sweep_banner_and_determinism(capsys):
    args = (
        "oat-sweep", "--j", "3/2", "--class", "1,2,3", "--n", "4",
        "--zeta", "1", "--mu-max", "0.5", "--mu-points", "3",
    )
    code, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines()[0].startswith("# spinsqueeze ")


def test_class_selector_by_subspins(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1/2+1/2", "--n", "1000",
        "--zeta", "0.70710678118654752,0.70710678118654752",
    )
    assert code == 0
    code2, out2, _ = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1,3", "--n", "1000",
        "--zeta", "0.70710678118654752,0.70710678118654752",
    )
    assert json.loads(out)["xi2_min"] == json.loads(out2)["xi2_min"]


def test_zeta_parsing_strict_and_renormalize(capsys):
    code, _, err = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1,2,3", "--n", "100",
        "--zeta", "0.5", "--strict",
    )
    assert code == 1
    assert "strict" in err
    code, out, err = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1,2,3", "--n", "100", "--zeta", "0.5"
    )
    assert code == 0
    assert "renormalizing" in err


LIMITS_ARGS = ("limits", "--j", "3/2", "--class", "1,2,3", "--n", "100")


# the "i" of "inf" is no imaginary unit, and 1e400 overflows to inf: both
# reach the library's finiteness check as typed, not rescaled to (nan+nanj)
@pytest.mark.parametrize("text", ["inf", "-inf", "infinity", "1e400"])
def test_infinite_zeta_reaches_the_finiteness_check(capsys, text):
    code, out, err = run_cli(capsys, *LIMITS_ARGS, f"--zeta={text}")
    assert code == 1
    assert out == ""
    assert err == (
        "error: limits: coherent-state parameters must be finite, got theta = "
        f"1.5707963267948966, phi = 0.0, zeta = (({float(text)}+0j),)\n"
    )


ZETA_ARGS = ("limits", "--j", "3/2", "--class", "1,3", "--n", "10")


@pytest.mark.parametrize(
    "text, scale",
    [
        ("1e200,1e200", "1e+200"),
        ("1e-200,1e-200", "1e-200"),
        ("1e-160,1e-160", "1e-160"),  # squares subnormal, their sum inexact
        ("1e154,1e154", "1e+154"),
        ("1e200i,1e200", "1e+200"),
    ],
)
def test_zeta_too_large_or_small_to_square_parses_like_unit_weights(capsys, text, scale):
    code, expected, expected_err = run_cli(capsys, *ZETA_ARGS, "--zeta=1,1")
    assert code == 0
    assert expected_err == "warning: renormalizing zeta (sum |zeta|^2 was 2.0)\n"
    code, out, err = run_cli(capsys, *ZETA_ARGS, f"--zeta={text}")
    assert code == 0
    assert out == expected
    assert err == f"warning: renormalizing zeta (sum |zeta|^2 was 2.0 x ({scale})^2)\n"
    code, out, err = run_cli(capsys, *ZETA_ARGS, f"--zeta={text}", "--strict")
    assert code == 1
    assert out == ""
    assert err == f"error: limits: --zeta: sum |zeta|^2 = 2.0 x ({scale})^2 != 1 (strict mode)\n"


def test_zeta_with_one_vanishing_square_keeps_the_plain_sum(capsys):
    code, expected, _ = run_cli(capsys, *ZETA_ARGS, "--zeta=0,1")
    assert code == 0
    code, out, err = run_cli(capsys, *ZETA_ARGS, "--zeta=1e-200,1")
    assert code == 0
    assert out == expected
    assert err == ""


def test_zeta_with_a_subnormal_square_parses_like_a_unit_weight(capsys):
    code, expected, expected_err = run_cli(capsys, *LIMITS_ARGS, "--zeta=1")
    assert code == 0
    assert expected_err == ""
    code, out, err = run_cli(capsys, *LIMITS_ARGS, "--zeta=1e-155")
    assert code == 0
    assert out == expected
    assert err == "warning: renormalizing zeta (sum |zeta|^2 was 1.0 x (1e-155)^2)\n"


def test_imaginary_zeta_suffix_still_parses(capsys):
    code, out, err = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "1,3", "--n", "100", "--zeta=0.6,0.8i"
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    assert err == ""


ENSEMBLE_ARGS = ("--j", "3/2", "--class", "1,3", "--n", "100", "--zeta", "0.6,0.8")


@pytest.mark.parametrize(
    "argv",
    [
        ("coherent", *ENSEMBLE_ARGS),
        ("oat-sweep", *ENSEMBLE_ARGS, "--mu-max", "0.5", "--mu-points", "5"),
        ("limits", *ENSEMBLE_ARGS),
        ("zeta-scan", "--j", "3/2", "--class", "1,3", "--n", "100", "--grid-points", "5"),
        ("n-scan", "--j", "3/2", "--class", "1,3", "--zeta1-sq", "0.5", "--n-hi", "1e4", "--points", "3"),
    ],
)
def test_class_only_commands_build_no_matrices(capsys, monkeypatch, argv):
    import spinsqueeze.cli as cli

    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0

    def refuse(subset):
        raise AssertionError("built an su(2) matrix triple")

    monkeypatch.setattr(cli, "build_su2_triple", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "limits", "--j", "nonsense", "--class", "1", "--n", "5", "--zeta", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "unknown-command")
    assert code == 1
    code, _, err = run_cli(
        capsys, "limits", "--j", "3/2", "--class", "9", "--n", "5", "--zeta", "1"
    )
    assert code == 1


def test_build_parser_returns_one_parser():
    assert build_parser() is build_parser()


def _fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(spinsqueeze.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "spinsqueeze.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_fitting_leaves_scipy_optimize_unimported(tmp_path):
    """fit_power_law and the CLI `fit` solve with numpy alone: scipy.optimize stays out of the process."""
    target = tmp_path / "scan.csv"
    target.write_text("n,xi2_min\n" + "".join(f"{n},{0.1 + 0.6 * n ** -0.5}\n" for n in (10, 100, 1000, 10000, 100000)))
    code = (
        "import sys\n"
        "from spinsqueeze import cli, fit_power_law\n"
        "fit_power_law([(10, 0.3), (100, 0.1), (1000, 0.04), (10000, 0.01)])\n"
        f"assert cli.main(['fit', '--input', {str(target)!r}, '--model', 'offset-power']) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spinsqueeze.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["params"]["c"]["value"] == pytest.approx(0.1, rel=1e-9)


def test_consecutive_calls_print_what_a_fresh_process_prints(capsys):
    """One process, one parser: each call prints what the command alone prints, a refusal too."""
    calls = [
        ["zeta-scan", "--j", "3/2", "--class", "1,3", "--n", "1000", "--grid-points", "5", "--no-banner"],
        ["limits", "--j", "3/2", "--class", "1,3", "--n", "1000", "--zeta", "0.6,0.8"],
        ["limits", "--j", "3/2", "--class", "1,3"],
        ["classify", "--j", "3/2"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 1, 0]
    assert in_process == [_fresh_process(argv) for argv in calls]


@pytest.mark.parametrize(
    "argv, code",
    [(["--version"], 0), (["--help"], 0), (["limits", "--help"], 0), (["limits", "--j", "3/2"], 1),
     (["unknown-command"], 1)],
)
def test_parser_exits_keep_their_codes_on_every_call(capsys, argv, code):
    for _ in range(2):
        assert main(argv) == code
    capsys.readouterr()


def test_coherent_report(capsys):
    code, out, _ = run_cli(
        capsys, "coherent", "--j", "3/2", "--class", "1,2,3", "--n", "4", "--zeta", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["perp_expectation"] == pytest.approx(6.0, abs=1e-12)
    assert payload["fluctuation"] == pytest.approx(3.0, abs=1e-12)
    assert payload["xi2"] == 1.0
    # minimum-uncertainty identity encoded in the report
    assert payload["uncertainty_product"] == pytest.approx(
        payload["min_uncertainty_bound"], rel=1e-12
    )


@pytest.mark.parametrize(
    "zeta, xi2",
    [("1,0,0", "1"), ("1e-150,1,0", "1"), ("0.6,0,0.8", "1"), ("0,1,0", "Infinity")],
)
def test_coherent_xi2_follows_the_collapsed_mean_rule(capsys, zeta, xi2):
    """xi^2 is exactly 1 wherever the mean is nonzero, and inf, as in oat-sweep and limits, where
    all the weight sits on singlets.  squeeze_trace at mu = 0 reads 0.9999999999999999 for "1,0,0"."""
    argv = ("coherent", "--j", "3/2", "--class", "1/2+0+0", "--n", "10", "--zeta", zeta)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f'"xi2": {xi2}\n' in out
    payload = json.loads(out)
    assert (payload["perp_expectation"] == 0) == (xi2 == "Infinity")


def test_oracle_check_passes(capsys):
    code, out, err = run_cli(
        capsys,
        "oracle-check", "--j", "3/2", "--class", "1,3", "--n", "8",
        "--zeta", "0.70710678118654752,0.70710678118654752",
        "--mu-points", "12", "--no-banner",
    )
    assert code == 0
    assert "max discrepancy" in err
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["mu", "perp_analytic", "perp_oracle"]
    assert len(lines) == 13


ORACLE_ARGS = ("oracle-check", "--j", "3/2", "--class", "1,3", "--zeta", "0.6,0.8")


@pytest.mark.parametrize(
    "extra",
    [
        ("--n", "0"),
        ("--n", "4", "--mu-max", "-1"),
        ("--n", "4", "--mu-max", "nan"),
        ("--n", "4", "--mu-points", "0"),
    ],
)
def test_oracle_check_rejects_bad_ranges(capsys, extra):
    code, out, err = run_cli(capsys, *ORACLE_ARGS, *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_oracle_check_rejects_nan_zeta(capsys):
    code, out, err = run_cli(
        capsys, "oracle-check", "--j", "3/2", "--class", "1,2,3", "--n", "4", "--zeta=nan"
    )
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_oracle_check_counts_nan_discrepancy_as_failure(capsys, monkeypatch):
    from spinsqueeze import exact_oracle

    exact = exact_oracle.squeeze_trace

    def nan_variance(spec, mu):
        return dataclasses.replace(exact(spec, mu), var_max=math.nan)

    monkeypatch.setattr(exact_oracle, "squeeze_trace", nan_variance)
    code, _, err = run_cli(capsys, *ORACLE_ARGS, "--n", "4", "--mu-points", "3", "--no-banner")
    assert code == 2
    assert "max discrepancy: nan" in err


SWEEP_ARGS = ("oat-sweep", "--j", "3/2", "--class", "1,3", "--n", "4", "--zeta", "0.6,0.8", "--mu-max", "1")
# input files named in argv as "{name}", written to a temporary directory first
INPUT_FILES = {
    "few.csv": "n,xi2_min,status\n10,0.1,ok\n100,0.05,ok\n1000,0.02,ok\n10000,0.01,no_squeezing\n",
    "text.csv": "n,xi2_min\n10,0.1\n100,abc\n1000,0.02\n10000,0.01\n",
    "repeated.csv": "n,xi2_min\n10,0.1\n10,0.05\n1000,0.02\n10000,0.01\n",
    "neg.csv": "n,xi2_min\n10,0.1\n100,0.05\n1000,0.02\n10000,-0.01\n",
    "inf.csv": "n,xi2_min\n10,0.1\n100,inf\n1000,0.02\n10000,0.01\n",
    "short.csv": "n,xi2_min\n10,0.1\n100,0.05\n1000\n10000,0.01\n",
    "broken.json": '{"j": "3/2", "class": ',
    "list.json": '["3/2", "1,3", 100]',
    "fields.json": '{"j": "3/2", "class": 13, "n": [100], "zeta1_sq_grid": ["x"]}',
    "n_float.json": '{"j": "3/2", "class": "1,3", "n": 100.5, "zeta1_sq_grid": [0.5]}',
    "n_text.json": '{"j": "3/2", "class": "1,3", "n": "100", "zeta1_sq_grid": [0.5]}',
    "n_bool.json": '{"j": "3/2", "class": "1,3", "n": true, "zeta1_sq_grid": [0.5]}',
    "grid_text.json": '{"j": "3/2", "class": "1,3", "n": 100, "zeta1_sq_grid": "01"}',
}


@pytest.mark.parametrize(
    "argv",
    [
        (*SWEEP_ARGS, "--mu-min", "-1"),
        (*SWEEP_ARGS, "--mu-points", "0"),
        ("zeta-scan", "--j", "3/2", "--class", "1,2,3", "--n", "100"),
        ("zeta-scan", "--j", "3/2", "--class", "1,3", "--n", "100", "--grid-points", "0"),
        ("zeta-scan", "--j", "3/2", "--class", "1,3", "--n", "0", "--grid-points", "3"),
        ("fit", "--input", "{few.csv}"),
        ("fit", "--input", "{text.csv}"),
        ("fit", "--input", "{repeated.csv}"),
        ("zeta-scan", "--config", "{broken.json}"),
        ("zeta-scan", "--config", "{list.json}"),
        ("zeta-scan", "--config", "{fields.json}"),
        ("zeta-scan", "--config", "{fields.json}", "--class", "1,3"),
        ("zeta-scan", "--config", "{fields.json}", "--class", "1,3", "--grid-points", "3"),
        ("fit", "--input", "{neg.csv}"),
        ("fit", "--input", "{inf.csv}"),
        ("fit", "--input", "{short.csv}"),
        ("zeta-scan", "--config", "{n_float.json}"),
        ("zeta-scan", "--config", "{n_text.json}"),
        ("zeta-scan", "--config", "{n_bool.json}"),
        ("zeta-scan", "--config", "{grid_text.json}"),
    ],
)
def test_bad_inputs_are_usage_errors(capsys, tmp_path, argv):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:-1]) if a[1:-1] in INPUT_FILES else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {argv[0]}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*SWEEP_ARGS[:-1], "inf", "--mu-points", "3"), "oat-sweep: --mu-max must be finite, got inf"),
        ((*SWEEP_ARGS, "--mu-min=-inf"), "oat-sweep: --mu-min must be finite, got -inf"),
        ((*SWEEP_ARGS, "--mu-min", "nan"), "oat-sweep: --mu-min must be finite, got nan"),
        ((*ORACLE_ARGS, "--n", "4", "--mu-max", "inf"), "oracle-check: --mu-max must be finite, got inf"),
    ],
)
def test_non_finite_mu_ends_are_refused_as_typed(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_mu_ends_too_far_apart_are_refused_as_typed(capsys):
    """The span overflows before the grid is made: no numpy warning, no NaN point."""
    argv = (*SWEEP_ARGS[:-2], "--mu-min=-1.7e308", "--mu-max", "1.7e308", "--mu-points", "3")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert caught == []
    assert code == 1
    assert out == ""
    assert err == "error: oat-sweep: --mu-min -1.7e+308 and --mu-max 1.7e+308 are too far apart to grid\n"


def test_fit_short_row_names_row_and_cell_counts(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(INPUT_FILES["short.csv"])
    code, _, err = run_cli(capsys, "fit", "--input", str(path))
    assert code == 1
    assert "row 3 has 1 cells, header has 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("generators", "--j", "3/2", "--no-banner"),
        ("fit", "--input", "points.csv", "--j", "3/2"),
        ("coherent", "--j", "3/2", "--class", "1,3", "--n", "4", "--zeta", "0.6,0.8", "--theta", "1"),
    ],
)
def test_removed_options_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("limits", "--j", "3/2", "--class", "1,3", "--n", "5", "--zeta", "0.5"),
        ("limits", "--j", "3/2", "--class", "1,2,3", "--n", "0", "--zeta", "0.5"),
        ("oat-sweep", "--j", "3/2", "--class", "1,2,3", "--n", "4", "--zeta", "0.5", "--mu-max", "nan"),
    ],
)
def test_no_renormalizing_warning_before_a_refusal(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "renormalizing" not in err
    assert err.startswith(f"error: {argv[0]}: ")


def test_zeta_scan_cli_and_config(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(
        json.dumps({"j": "3/2", "class": "1,3", "n": 1000, "zeta1_sq_grid": [0.3, 0.5, 0.7]})
    )
    code, out, _ = run_cli(capsys, "zeta-scan", "--config", str(cfg), "--no-banner")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta1_sq,xi2_min,mu_min,status"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.3, 0.5, 0.7]
    # the weight-scan CSV, written to a file, with the undefined row at zeta_1^2 = 0
    target = tmp_path / "scan.csv"
    argv = ("--j", "3/2", "--class", "1+0", "--n", "1000", "--grid-points", "5", "--no-banner")
    assert run_cli(capsys, "zeta-scan", *argv, "-o", str(target)) == (0, "", "")
    dec = IrrepDecomposition(SpinQuantum(3), (2, 0))
    rows = zeta_scan(ScanConfig(dec, 1000, tuple(np.linspace(0.0, 1.0, 5))))
    assert rows[0].status == "undefined" and math.isnan(rows[0].xi2_min)
    assert target.read_text().splitlines() == ["zeta1_sq,xi2_min,mu_min,status"] + [
        f"{r.zeta1_sq:.17g},{r.xi2_min:.17g},{r.mu_min:.17g},{r.status}" for r in rows
    ]


def test_zeta_scan_empty_config_grid_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"j": "3/2", "class": "1,3", "n": 1000, "zeta1_sq_grid": []}))
    code, out, err = run_cli(capsys, "zeta-scan", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_fit_cli(tmp_path, capsys):
    path = tmp_path / "points.csv"
    rows = ["n,xi2_min"]
    for n in np.geomspace(100, 1e5, 8):
        rows.append(f"{n},{2.5 * n ** -0.6}")
    path.write_text("\n".join(rows))
    code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--model", "power")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["a"]["value"] == pytest.approx(2.5, rel=1e-6)
    assert payload["params"]["p"]["value"] == pytest.approx(0.6, rel=1e-6)


def test_table_subcommands_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "oat-sweep", "--j", "3/2", "--class", "1,2,3", "--n", "4",
        "--zeta", "1", "--mu-max", "0.4", "--mu-points", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["rows"][0]["xi2"] == 1
    code, out, _ = run_cli(
        capsys, "zeta-scan", "--j", "3/2", "--class", "1,3", "--n", "200",
        "--grid-points", "3", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["zeta1_sq"] for r in rows] == [0.0, 0.5, 1.0]


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, out, _ = run_cli(capsys, "classify", "--j", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["classes"]) == 2


def test_n_scan_writes_both_datasets(tmp_path, capsys):
    """The irreducible class, and the half-spin pair at its scan maximum |zeta_1|^2 = 1 - pi/4."""
    for cls, zeta1_sq in (("3/2", "1"), ("1/2+1/2", repr(1 - math.pi / 4))):
        target = tmp_path / "scan.csv"
        argv = ("n-scan", "--j", "3/2", "--class", cls, "--zeta1-sq", zeta1_sq,
                "--n-lo", "1e3", "--n-hi", "1e4", "--points", "5", "--no-banner", "-o", str(target))
        assert run_cli(capsys, *argv) == (0, "", "")
        lines = target.read_text().splitlines()
        assert lines[0] == "n,xi2_min,mu_min,status"
        assert len(lines) == 6
        assert all(line.endswith(",ok") for line in lines[1:])


def test_n_scan_rows_and_fit_match_the_library(tmp_path, capsys):
    """17 significant digits round-trip: the CSV holds n_scan's floats and fit reads back fit_power_law's."""
    w = 1 - math.pi / 4
    target = tmp_path / "pair.csv"
    argv = ("n-scan", "--j", "3/2", "--class", "1/2+1/2", "--zeta1-sq", repr(w),
            "--n-lo", "1e3", "--n-hi", "1e4", "--points", "5", "-o", str(target))
    assert run_cli(capsys, *argv) == (0, "", "")
    banner, header, *lines = target.read_text().splitlines()
    assert banner == f"# spinsqueeze {spinsqueeze.__version__}"
    assert header == "n,xi2_min,mu_min,status"
    ns = [1000, 1778, 3162, 5623, 10000]
    rows = n_scan(IrrepDecomposition(SpinQuantum(3), (1, 1)), w, ns)
    parsed = [line.split(",") for line in lines]
    assert [(int(n), float(xi), float(mu), status) for n, xi, mu, status in parsed] == rows
    for model, y in (("power", "xi2_min"), ("offset-power", "xi2_min"), ("power", "mu_min")):
        code, out, _ = run_cli(capsys, "fit", "--input", str(target), "--model", model, "--y-col", y)
        assert code == 0
        k = header.split(",").index(y)
        res = fit_power_law([(row[0], row[k]) for row in rows], model=model)
        params = json.loads(out)["params"]
        assert [params[name]["value"] for name in res.names] == list(res.values)
        assert [params[name]["stderr"] for name in res.names] == list(res.stderr)


N_SCAN_ARGS = ("n-scan", "--j", "3/2", "--class", "3/2", "--zeta1-sq", "1")


def test_n_scan_refuses_a_count_that_rounds_to_zero(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, *N_SCAN_ARGS, "--n-lo", "0.2", "--n-hi", "1e4", "-o", str(target))
    assert (code, out) == (1, "")
    assert err == "error: n-scan: particle count must be >= 1, got 0\n"
    assert not target.exists()


def test_fit_of_a_three_row_n_scan_is_refused(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    assert run_cli(capsys, *N_SCAN_ARGS, "--n-hi", "1e4", "--points", "3", "-o", str(target)) == (0, "", "")
    assert len(target.read_text().splitlines()) == 5  # banner, header, three rows
    code, out, err = run_cli(capsys, "fit", "--input", str(target))
    assert (code, out) == (1, "")
    assert err == "error: fit: need at least 4 points to fit, got 3\n"


@pytest.mark.parametrize(
    "flag, value",
    [("--points", "0"), ("--points", "-1"), ("--n-lo", "0"), ("--n-lo", "-5"), ("--n-lo", "nan"),
     ("--n-hi", "inf")],
)
def test_n_scan_refuses_a_bad_range_at_the_flag(tmp_path, capsys, flag, value):
    target = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, *N_SCAN_ARGS, f"{flag}={value}", "-o", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: n-scan: {flag} ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_n_scan_keeps_counts_beyond_int64_exact(capsys):
    """An off-locus {1/2, 1/2} split, whose limit plateaus near 0.0645 and stays resolved at N = 1e30."""
    code, out, _ = run_cli(
        capsys, "n-scan", "--j", "3/2", "--class", "1/2+1/2", "--zeta1-sq", "0.35",
        "--n-hi", "1e30", "--points", "4", "--no-banner",
    )
    assert code == 0
    ns = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert ns == [1000, 10**12, 10**21, int(1e30)]


@pytest.mark.parametrize(
    "argv, message",
    [
        # the {3/2} limit falls below what the float kernel resolves: it printed -3.75e-16 at N = 1e30
        ((*N_SCAN_ARGS, "--n-hi", "1e30", "--points", "4"), "xi^2_min reads "),
        # J_l |zeta_l|^2 N overflows: the log grid's log(mu_hi / mu_lo) divided by zero
        ((*N_SCAN_ARGS, "--n-lo", "1.7e308", "--n-hi", "1.7e308", "--points", "1"), "J_l |zeta_l|^2 N overflows"),
        # that scan's middle row, N = 1.3e155, already has a mean whose square is inf
        ((*N_SCAN_ARGS, "--n-hi", "1.7e308", "--points", "3"), "the mean spin "),
        # the mean's square underflows: xi^2 divided by zero
        (("limits", "--j", "3/2", "--class", "1/2+0+0", "--n", "10", "--zeta", "1e-150,1,0"), "the mean spin "),
        (("oat-sweep", "--j", "3/2", "--class", "1/2+0+0", "--n", "10", "--zeta", "1e-150,1,0", "--mu-max", "1"),
         "the mean spin "),
    ],
)
def test_out_of_range_limits_are_refused_without_output(tmp_path, capsys, argv, message):
    target = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {argv[0]}: {message}"), err
    assert len(err.splitlines()) == 1
    assert not target.exists()
