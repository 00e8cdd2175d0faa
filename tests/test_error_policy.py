"""Input refusals have one home: the library raises InvalidInput, the CLI maps it."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze import (
    CartanChoice,
    HermitianOperator,
    IrrepDecomposition,
    OracleWorkspace,
    ScanConfig,
    SpinQuantum,
    VertexSubset,
    asymptotic_limit_r1,
    build_basis,
    build_su2_triple,
    canonical_subset,
    cli,
    compare_with_oracle,
    errors,
    expand_observable,
    multipole_basis,
    n_scan,
    oat_spec,
    squeeze_trace,
    structure_factor,
)
from spinsqueeze.classification import Su2Triple

SRC = Path(cli.__file__).resolve().parent


def test_library_raises_no_bare_value_error():
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"raise\s+ValueError\(", line)
    ]
    assert offenders == []


def test_every_invalid_input_is_a_value_error():
    subclasses = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.InvalidInput)
    ]
    names = {cls.__name__ for cls in subclasses}
    assert {"DimensionMismatch", "NormalizationError", "NonFiniteInput",
            "AllTrivialSubspins", "NotOatStart"} < names
    for cls in subclasses:
        assert issubclass(cls, ValueError)
        assert issubclass(cls, errors.SpinSqueezeError)


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidInput("bad argument"), 1),
        (errors.NonFiniteInput("bad argument"), 1),
        (errors.SizeLimit("too large"), 2),
        (errors.VanishingMeanSpin("mean vanished"), 2),
    ],
)
def test_dispatch_maps_library_errors_to_exit_codes(monkeypatch, capsys, exc, code):
    def refuse(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", refuse)
    assert cli.main(["classify", "--j", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: classify: ")
    assert str(exc) in captured.err


J32 = SpinQuantum(3)
PAIR = IrrepDecomposition(J32, (1, 1))
FULL = IrrepDecomposition(J32, (3,))


@pytest.mark.parametrize("bad", [100.5, 10.0, True, "10", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: SpinQuantum(v),
        lambda v: oat_spec(FULL, v, (1,)),
        lambda v: build_basis(v, J32),
        lambda v: OracleWorkspace(build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3}))), v),
        lambda v: n_scan(PAIR, 0.5, [100, v]),
        lambda v: ScanConfig(PAIR, v, (0.5,)),
        lambda v: asymptotic_limit_r1(3, v),
        lambda v: asymptotic_limit_r1(v, 100),
        lambda v: IrrepDecomposition(J32, (v, 1)),
        lambda v: structure_factor((v, 1), J32),
        lambda v: VertexSubset(J32, frozenset({3, v})),
        lambda v: CartanChoice(J32, (2, 7, v)),
    ],
    ids=["twice_j", "ensemble_n", "basis_n", "workspace_n", "n_scan", "scan_config_n", "asymptotic_n",
         "asymptotic_2j", "subspin", "structure_factor", "vertex", "cartan_index"],
)
def test_counts_and_indices_must_be_integers(call, bad):
    """A float is never truncated or interpolated, and a bool is not a count."""
    with pytest.raises(errors.InvalidInput, match="must be an integer"):
        call(bad)


@pytest.mark.parametrize("bad", ["0.5", None, 0.5j])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: squeeze_trace(oat_spec(PAIR, 10, (0.6, 0.8)), v),
        lambda v: _workspace().squeezing(oat_spec(PAIR, 4, (0.6, 0.8)).coherent, v),
        lambda v: compare_with_oracle(_workspace(), oat_spec(PAIR, 4, (0.6, 0.8)).coherent, [0.1, v]),
        lambda v: n_scan(PAIR, v, [10]),
    ],
    ids=["squeeze_trace", "oracle_squeezing", "compare_with_oracle", "n_scan_weight"],
)
def test_mu_and_weights_must_be_real_numbers(call, bad):
    """A string is not parsed, and None or a complex is not a time or a weight."""
    with pytest.raises(errors.InvalidInput, match="must be a real number"):
        call(bad)


def _workspace():
    return OracleWorkspace(build_su2_triple(canonical_subset(PAIR)), 4)


def test_numpy_integers_are_counts():
    i64 = np.int64
    assert type(SpinQuantum(np.int32(3)).twice_j) is int
    assert type(oat_spec(FULL, i64(10), (1,)).n) is int
    assert type(ScanConfig(PAIR, i64(10), (0.5,)).n) is int
    assert IrrepDecomposition(J32, (i64(1), i64(1))) == PAIR
    assert VertexSubset(J32, frozenset({i64(1), i64(3)})).chosen == {1, 3}
    assert CartanChoice(J32, (i64(2), i64(7), i64(10))).indices == (2, 7, 10)
    assert [type(row[0]) for row in n_scan(PAIR, 0.5, np.array([100, 200]))] == [int, int]


@pytest.mark.parametrize(
    "matrix",
    [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.array([[0.0, np.inf], [np.inf, 0.0]])],
    ids=["all_nan", "inf_on_diagonal", "inf_off_diagonal"],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_non_finite_matrix_refused(matrix):
    """A NaN or an infinity makes the Hermiticity deviation NaN or inf, never 'small'.
    inf - inf warns on the way; the refusal is what counts."""
    with pytest.raises(errors.NonFiniteInput, match="non-finite"):
        HermitianOperator(matrix)


def test_all_nan_triple_refused():
    """Operators that reach Su2Triple with NaN entries fail its residual tests:
    every comparison with NaN is false, so each test is written `not resid <= tol`."""
    nan = object.__new__(HermitianOperator)
    object.__setattr__(nan, "matrix", np.full((4, 4), np.nan, dtype=complex))
    with pytest.raises(errors.NotAnSu2Triple):
        Su2Triple(nan, nan, nan, FULL, ((0, 3),))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficient_refused(bad):
    basis = multipole_basis(J32)
    coeffs = np.zeros(len(basis))
    coeffs[0] = bad
    with pytest.raises(errors.NonFiniteInput, match="finite"):
        expand_observable(basis, coeffs)
