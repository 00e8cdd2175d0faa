"""Input refusals have one home: the library raises InvalidInput, the CLI maps it."""

import functools
import inspect
import math
import pickle
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spinsqueeze import (
    CartanChoice,
    CoherentSpec,
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
        (lambda: n_scan(PAIR, 1.0, b"\x05\x06"), "must be a sequence"),
        (lambda: n_scan(PAIR, 1.0, bytearray(b"\x05\x06")), "must be a sequence"),
        (lambda: compare_with_oracle(_workspace(), oat_spec(PAIR, 4, (0.6, 0.8)).coherent, b"\x00\x01"),
         "must be a sequence"),
        (lambda: fit_power_law(GOOD_SAMPLES[:3] + [b"\xc8\x01"]), "must be a sequence"),
        # read as zeta = (0, 1), the set's order: find_limit gave 0.011950 in place of 0.005515
        (lambda: oat_spec(IrrepDecomposition(SpinQuantum(5), (3, 1)), 1000, {1.0, 0.0}), "must be a sequence"),
        (lambda: n_scan(PAIR, 1.0, memoryview(b"\x05\x06")), "must be a sequence"),  # scanned N = 5, 6
        (lambda: IrrepDecomposition(J32, memoryview(b"\x01\x01")), "must be a sequence"),
        (lambda: n_scan(PAIR, 1.0, {100, 200}), "must be a sequence"),
        (lambda: CartanChoice(J32, frozenset({2, 7, 10})), "must be a sequence"),
        (lambda: compare_with_oracle(_workspace(), oat_spec(PAIR, 4, (0.6, 0.8)).coherent, {0.1: 0.2}),
         "must be a sequence"),
        (lambda: n_scan(PAIR, 1.0, (n for n in (100, 200))), "must be a sequence"),
        (lambda: fit_power_law(iter(GOOD_SAMPLES)), "must be a sequence"),
        (lambda: expand_observable(multipole_basis(SpinQuantum(2)), b"\x01" * 8), "must be a sequence"),
        (lambda: expand_observable(multipole_basis(SpinQuantum(2)), "abc"), "must be a sequence"),
        (lambda: expand_observable(multipole_basis(SpinQuantum(2)), ["1"] + ["0"] * 7), "must be a real number"),
    ],
    ids=["subspins_bytes", "subspins_number", "vertices_bytes", "vertices_number", "structure_factor_bytes",
         "structure_factor_number", "cartan_bytes", "cartan_number", "n_scan_bytes",
         "n_scan_bytearray", "mu_grid_bytes", "sample_bytes", "zeta_set", "n_scan_memoryview",
         "subspins_memoryview", "n_scan_set", "cartan_frozenset", "mu_grid_dict", "n_scan_generator",
         "samples_iterator", "coefficients_bytes", "coefficients_text", "coefficients_numeric_text"],
)
def test_bytes_and_numbers_are_not_sequences(call, match):
    """One sequence rule: bytes and a memoryview iterate to byte values, a set or a dict in
    no order the caller chose, a generator or an iterator only once, and a number to
    nothing, so all are refused, never read or raised as a bare TypeError.  A bare number
    as the N list, the mu grid or the samples has tests of its own."""
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
    "call",
    [
        lambda v: SpinQuantum(v).twice_j,
        lambda v: oat_spec(FULL, v, (1.0,)).n,
        lambda v: build_basis(v, J32).n,
        lambda v: IrrepDecomposition(J32, (v,)).twice_subspins[0],
        lambda v: max(VertexSubset(J32, [v]).chosen),
    ],
    ids=["twice_j", "ensemble_n", "basis_n", "subspin", "vertex"],
)
def test_zero_d_integer_arrays_are_counts(call):
    """A 0-d integer array is read as its scalar, as the number rule reads a 0-d float array;
    a 0-d float or bool array is still no count."""
    assert call(np.array(3)) == call(3) == 3
    assert type(call(np.array(3))) is int
    for bad in (np.array(3.0), np.array(True)):
        with pytest.raises(errors.InvalidInput, match="must be an integer"):
            call(bad)


@pytest.mark.parametrize(
    "matrix, error",
    [
        ([["1"]], errors.InvalidInput),
        ([[True]], errors.InvalidInput),
        ([[True, 0.0], [0.0, 1.0]], errors.InvalidInput),  # numpy would read the row as floats
        (np.eye(2, dtype=bool), errors.InvalidInput),
        ("abc", errors.InvalidInput),
        (b"\x01\x02", errors.InvalidInput),
        ([[1.0, 0.0], [0.0]], errors.InvalidInput),
        ({1}, errors.InvalidInput),
        ([[None]], errors.InvalidInput),
        ([[10**400]], errors.NonFiniteInput),
    ],
    ids=["text_entry", "bool_entry", "bool_in_a_float_row", "bool_array", "text", "bytes", "ragged", "set",
         "none_entry", "huge_int"],
)
def test_hostile_matrices_raise_a_library_error(matrix, error):
    """Only numbers are matrix entries: text is not parsed, a bool is not 1, and a ragged
    list, a set or a value past the float range is refused, never a bare exception.
    Anything but a numeric array is read row by row, so numpy's promotion of a bool
    beside a float never turns it into 1.0."""
    with pytest.raises(error):
        HermitianOperator(matrix)


def test_numeric_matrices_read_as_their_complex_array():
    """Integer, float, complex and Python-object numbers give the same operator."""
    expected = HermitianOperator(np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)).matrix
    fractions = [[Fraction(1), Fraction(1, 2)], [0.5, -1]]
    for matrix in ([[1, 0.5], [0.5, -1]], np.array([[2, 1], [1, -2]]) / 2, fractions):
        assert np.array_equal(HermitianOperator(matrix).matrix, expected)


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
        Su2Triple(nan, nan, nan, FULL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficient_refused(bad):
    basis = multipole_basis(J32)
    coeffs = np.zeros(len(basis))
    coeffs[0] = bad
    with pytest.raises(errors.NonFiniteInput, match="finite"):
        expand_observable(basis, coeffs)


# The hostile-value table: every public entry that reads a real, a complex or a sequence
# argument, with that argument left open.  A slot's kind says which rule reads it.
SPEC = oat_spec(PAIR, 10, (0.6, 0.8))
BASIS_2 = multipole_basis(SpinQuantum(2))
REST = math.sqrt(1.0 - 0.25**2)  # the second entry of a unit vector whose first is 0.25


@functools.cache
def _oracle():
    """A workspace for the oracle slots, built on first use."""
    return _workspace()


SLOTS = {
    "squeeze_trace_mu": ("real", lambda v: squeeze_trace(SPEC, v)),
    "oracle_squeezing_mu": ("real", lambda v: _oracle().squeezing(SPEC.coherent, v)),
    "compare_mu": ("real", lambda v: compare_with_oracle(_oracle(), SPEC.coherent, [0.1, v])),
    "theta": ("real", lambda v: CoherentSpec(v, 0.0, (0.6, 0.8))),
    "phi": ("real", lambda v: CoherentSpec(math.pi / 2, v, (0.6, 0.8))),
    "n_scan_weight": ("real", lambda v: n_scan(PAIR, v, [10])),
    "scan_grid_entry": ("real", lambda v: ScanConfig(PAIR, 10, (0.1, v))),
    "fit_sample_n": ("real", lambda v: fit_power_law([(v, 0.2)] + GOOD_SAMPLES)),
    "fit_sample_y": ("real", lambda v: fit_power_law([(1, v)] + GOOD_SAMPLES)),
    "coefficient": ("real", lambda v: expand_observable(BASIS_2, [v, REST] + [0.0] * 6)),
    "zeta_entry": ("complex", lambda v: oat_spec(PAIR, 10, (v, REST))),
    "subspins": ("sequence", lambda v: IrrepDecomposition(J32, v)),
    "structure_factor": ("sequence", lambda v: structure_factor(v, J32)),
    "cartan_indices": ("sequence", lambda v: CartanChoice(J32, v)),
    "zeta": ("sequence", lambda v: CoherentSpec(math.pi / 2, 0.0, v)),
    "n_values": ("sequence", lambda v: n_scan(PAIR, 0.5, v)),
    "mu_grid": ("sequence", lambda v: compare_with_oracle(_oracle(), SPEC.coherent, v)),
    "scan_grid": ("sequence", lambda v: ScanConfig(PAIR, 10, v)),
    "samples": ("sequence", fit_power_law),
    "coefficients": ("sequence", lambda v: expand_observable(BASIS_2, v)),
    "vertices": ("vertices", lambda v: VertexSubset(J32, v)),
}
# Values that no slot reads, each made fresh (a generator is used up once read).  The two
# complex values are numbers to a complex slot, and a set is what a vertex choice is.
HOSTILE = {
    "str": lambda: "0.5",
    "bytes": lambda: b"\x01\x02",
    "bytearray": lambda: bytearray(b"\x01\x02"),
    "memoryview": lambda: memoryview(b"\x01\x02"),
    "set": lambda: {1, 2},
    "dict": lambda: {1: 2},
    "generator": lambda: (k for k in (1, 2)),
    "true": lambda: True,
    "np_true": lambda: np.True_,
    "complex": lambda: 0.5j,
    "np_complex": lambda: np.complex128(0.5j),
    "none": lambda: None,
    "nan": lambda: math.nan,
    "inf": lambda: math.inf,
    "-inf": lambda: -math.inf,
    "huge_int": lambda: 10**400,
    "nested_list": lambda: [[1, 2]],
}
NOT_HOSTILE = {"complex": {"complex", "np_complex"}, "vertices": {"set"}}


@pytest.mark.parametrize(
    "slot, value",
    [(slot, value) for slot, (kind, _) in SLOTS.items() for value in HOSTILE if value not in NOT_HOSTILE.get(kind, ())],
)
def test_hostile_values_raise_a_library_error(slot, value):
    """Each is refused with a SpinSqueezeError: never a bare exception, a warning or a result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.SpinSqueezeError):
            SLOTS[slot][1](HOSTILE[value]())


# Each value against its canonical form: the float 0.25 for a number, the tuple for a sequence.
CANONICAL = {
    "subspins": (3,),
    "structure_factor": (3,),
    "cartan_indices": (2, 7, 10),
    "zeta": (1.0, 0.0),
    "n_values": (10, 11),
    "mu_grid": (0.0, 1.0),
    "scan_grid": (0.0, 1.0),
    "samples": tuple(GOOD_SAMPLES),
    "coefficients": (0.25, REST) + (0.0,) * 6,
    "vertices": (1, 3),
}
NUMBERS = {"float32": np.float32, "decimal": Decimal, "fraction": Fraction, "0d_array": np.array}


def _as_range(t):
    """t as a range of step 1, or None where it is none."""
    try:
        r = range(int(t[0]), int(t[-1]) + 1)
    except TypeError:
        return None
    return r if tuple(r) == t else None


SEQUENCES = {"list": list, "range": _as_range, "array": np.array, "set": set, "frozenset": frozenset}


def _equivalents():
    for slot, (kind, _) in SLOTS.items():
        if kind in ("real", "complex"):
            yield from ((slot, name) for name in NUMBERS)
        else:
            yield from (
                (slot, name) for name in SEQUENCES
                if (name not in ("set", "frozenset") or kind == "vertices")
                and (name != "range" or _as_range(CANONICAL[slot]) is not None)
            )


@pytest.mark.parametrize("slot, form", list(_equivalents()))
def test_number_types_and_sequences_read_as_their_canonical_form(slot, form):
    """A numpy scalar, a Decimal, a Fraction or a 0-d array gives exactly the result of its
    float, and a list, a range or an array exactly that of its tuple: the pickled results
    agree byte for byte, so every float field is a Python float."""
    call = SLOTS[slot][1]
    if form in NUMBERS:
        canonical, value = 0.25, NUMBERS[form](0.25)
    else:
        canonical = CANONICAL[slot]
        value = SEQUENCES[form](canonical)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pickle.dumps(call(value)) == pickle.dumps(call(canonical))
