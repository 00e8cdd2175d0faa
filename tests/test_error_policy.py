"""Input refusals have one home: the library raises InvalidInput, the CLI maps it."""

import inspect
import re
import warnings
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
    fit_power_law,
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


GOOD_SAMPLES = [(10, 0.1), (100, 0.05), (1000, 0.02), (10000, 0.01)]


@pytest.mark.parametrize(
    "points, match",
    [
        (GOOD_SAMPLES[:3] + [(10000, None)], "must be a real number"),
        (GOOD_SAMPLES[:3] + [(10000, 0.01j)], "must be a real number"),
        ([(None, 0.1)] + GOOD_SAMPLES[1:], "must be a real number"),
        (GOOD_SAMPLES[:3] + [(10000, "0.01")], "must be a real number"),
        (5, "must be a sequence"),
        (None, "must be a sequence"),
        ([10, 100, 1000, 10000], "must be a sequence"),
        ([(1,), (2,), (3,), (4,)], "must be a pair"),
        (GOOD_SAMPLES[:3] + [(10000, 0.01, 0.0)], "must be a pair"),
    ],
    ids=["none_y", "complex_y", "none_n", "string_y", "number", "none", "bare_numbers", "one_tuples", "triple"],
)
def test_fit_refuses_malformed_samples(points, match):
    """A sample is a pair of real numbers; anything else is InvalidInput, not a bare error."""
    with pytest.raises(errors.InvalidInput, match=match):
        fit_power_law(points)


def _workspace():
    return OracleWorkspace(build_su2_triple(canonical_subset(PAIR)), 4)


def _full_with_blocks(blocks):
    """The {3/2} triple with its blocks replaced; its matrices pass every other check."""
    t = build_su2_triple(canonical_subset(FULL))
    return Su2Triple(t.o1, t.o2, t.o3, t.decomposition, blocks)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: IrrepDecomposition(J32, b"\x01\x01"), "must be a sequence"),
        (lambda: IrrepDecomposition(J32, 3), "must be a sequence"),
        (lambda: VertexSubset(J32, b"\x01\x03"), "must be a sequence"),
        (lambda: VertexSubset(J32, 3), "must be a sequence"),
        (lambda: structure_factor(b"\x01\x01", J32), "must be a sequence"),
        (lambda: structure_factor(3, J32), "must be a sequence"),
        (lambda: CartanChoice(J32, b"\x02\x07\x0a"), "must be a sequence"),
        (lambda: CartanChoice(J32, 2), "must be a sequence"),
        (lambda: _full_with_blocks((b"\x00\x03",)), "must be a sequence"),
        (lambda: _full_with_blocks(b"\x00\x03"), "must be a sequence"),
        (lambda: _full_with_blocks(3), "must be a sequence"),
        (lambda: _full_with_blocks((0, 3)), "must be a sequence"),
        (lambda: _full_with_blocks(((0,),)), "must be a pair"),
        (lambda: _full_with_blocks(((0, 3, 1),)), "must be a pair"),
        (lambda: n_scan(PAIR, 1.0, b"\x05\x06"), "must be a sequence"),
        (lambda: n_scan(PAIR, 1.0, bytearray(b"\x05\x06")), "must be a sequence"),
        (lambda: compare_with_oracle(_workspace(), oat_spec(PAIR, 4, (0.6, 0.8)).coherent, b"\x00\x01"),
         "must be a sequence"),
        (lambda: fit_power_law(GOOD_SAMPLES[:3] + [b"\xc8\x01"]), "must be a sequence"),
    ],
    ids=["subspins_bytes", "subspins_number", "vertices_bytes", "vertices_number", "structure_factor_bytes",
         "structure_factor_number", "cartan_bytes", "cartan_number", "block_bytes", "blocks_bytes",
         "blocks_number", "block_number", "block_one_entry", "block_three_entries", "n_scan_bytes",
         "n_scan_bytearray", "mu_grid_bytes", "sample_bytes"],
)
def test_bytes_and_numbers_are_not_sequences(call, match):
    """One sequence rule: bytes iterate to byte values and a number to nothing, so both are
    refused, never read as the byte values or raised as a bare TypeError.  A block that is
    not a pair is refused by the one pair rule, not a bare ValueError.  A bare number as
    the N list, the mu grid or the samples has tests of its own."""
    with pytest.raises(errors.InvalidInput, match=match):
        call()


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
def test_non_finite_matrix_refused(matrix):
    """A NaN or an infinity is refused before the Hermiticity deviation, where inf - inf would warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
