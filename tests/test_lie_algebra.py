import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import (
    HermitianOperator,
    SpinQuantum,
    commutator,
    expand_observable,
    expansion_coefficients,
    multipole_basis,
    norm_squared,
    spin_matrices,
)
from spinsqueeze.errors import DimensionMismatch, NormalizationError, NotTraceless
from spinsqueeze.lie_algebra import _general_multipoles, _multipole_basis_cached, _off_diagonal

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)


def test_spin_quantum_parsing():
    assert SpinQuantum.from_string("3/2").twice_j == 3
    assert SpinQuantum.from_string("1").twice_j == 2
    assert SpinQuantum.from_string("1/2").dim == 2
    assert str(SpinQuantum(3)) == "3/2"
    assert str(SpinQuantum(4)) == "2"
    with pytest.raises(ValueError):
        SpinQuantum.from_string("2/3")
    with pytest.raises(ValueError):
        SpinQuantum(-1)


def test_spin_half_matrices_are_half_paulis():
    jx, jy, jz = spin_matrices(SpinQuantum(1))
    assert np.allclose(jx.matrix, [[0, 0.5], [0.5, 0]])
    assert np.allclose(jy.matrix, [[0, -0.5j], [0.5j, 0]])
    assert np.allclose(jz.matrix, [[0.5, 0], [0, -0.5]])


def test_spin_32_matrices_and_norm():
    jx, jy, jz = spin_matrices(SpinQuantum(3))
    assert np.allclose(jz.matrix, np.diag([1.5, 0.5, -0.5, -1.5]), atol=1e-15)
    expected_jx = 0.5 * np.array(
        [[0, SQ3, 0, 0], [SQ3, 0, 2, 0], [0, 2, 0, SQ3], [0, 0, SQ3, 0]]
    )
    assert np.allclose(jx.matrix, expected_jx, atol=1e-15)
    comm = commutator(jx, jy)
    assert np.allclose(comm.matrix, jz.matrix, atol=1e-12)
    # trace norm: 9/4 + 1/4 + 1/4 + 9/4 = 5
    assert np.trace(jz.matrix @ jz.matrix).real == pytest.approx(5.0, abs=1e-12)
    assert norm_squared(SpinQuantum(3)) == pytest.approx(5.0, abs=1e-15)


def test_golden_spin32_matches_symmetrized_products():
    """The hard-coded spin-3/2 set must equal its defining polynomial forms."""
    basis = multipole_basis(SpinQuantum(3))
    g = dict(zip(basis.names, basis.matrices()))
    jx, jy, jz = g["Jx"], g["Jy"], g["Jz"]

    def anti(a, b):
        return a @ b + b @ a

    def bar2(a, b):  # a b^2 symmetrized: a b b + b a b + b b a
        return a @ b @ b + b @ a @ b + b @ b @ a

    def bar3(a, b, c):
        return (
            a @ b @ c + b @ c @ a + c @ a @ b + b @ a @ c + c @ b @ a + a @ c @ b
        )

    s15 = math.sqrt(15.0)
    checks = {
        "Qxy": (s15 / 6) * anti(jx, jy),
        "Qyz": (s15 / 6) * anti(jy, jz),
        "Qzx": (s15 / 6) * anti(jz, jx),
        "Dxy": (s15 / 6) * (jx @ jx - jy @ jy),
        "Y": (SQ5 / 6) * (-jx @ jx - jy @ jy + 2 * jz @ jz),
        "Tax": (2 * np.linalg.matrix_power(jx, 3) - bar2(jx, jy) - bar2(jx, jz)) / 3,
        "Tay": (2 * np.linalg.matrix_power(jy, 3) - bar2(jy, jz) - bar2(jy, jx)) / 3,
        "Taz": (2 * np.linalg.matrix_power(jz, 3) - bar2(jz, jx) - bar2(jz, jy)) / 3,
        "Tbx": (s15 / 9) * (bar2(jx, jy) - bar2(jx, jz)),
        "Tby": (s15 / 9) * (bar2(jy, jz) - bar2(jy, jx)),
        "Tbz": (s15 / 9) * (bar2(jz, jx) - bar2(jz, jy)),
        "Txyz": (s15 / 9) * bar3(jx, jy, jz),
    }
    for name, expected in checks.items():
        assert np.max(np.abs(g[name] - expected)) < 1e-12, name


def test_golden_spin32_exact_entries():
    basis = multipole_basis(SpinQuantum(3))
    g = dict(zip(basis.names, basis.matrices()))
    assert np.allclose(g["Y"], (SQ5 / 2) * np.diag([1, -1, -1, 1]), atol=1e-15)
    assert np.allclose(g["Taz"], 0.5 * np.diag([1, -3, 3, -1]), atol=1e-15)
    assert basis.names[:3] == ("Jx", "Jy", "Jz")
    assert len(basis) == 15


def test_general_constructor_spans_golden_ranks():
    """For J=3/2 the generic tensor construction spans the same rank subspaces."""
    j = SpinQuantum(3)
    golden = multipole_basis(j).matrices()
    general, _ = _general_multipoles(j)
    k2 = norm_squared(j)

    def projector(mats):
        v = np.array([m.ravel() for m in mats])
        return v.conj().T @ v / k2

    for lo, hi in [(0, 3), (3, 8), (8, 15)]:
        dev = np.max(np.abs(projector(golden[lo:hi]) - projector(general[lo:hi])))
        assert dev < 1e-12


def test_spin_one_gram_matrix():
    basis = multipole_basis(SpinQuantum(2))
    mats = basis.matrices()
    assert len(mats) == 8
    gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
    assert np.max(np.abs(gram - 2.0 * np.eye(8))) < 1e-10


def test_spin_half_has_no_multipoles():
    basis = multipole_basis(SpinQuantum(1))
    assert len(basis) == 3
    assert basis.names == ("Jx", "Jy", "Jz")


def test_cold_basis_validates_the_generators_and_one_spin_vector(monkeypatch):
    """At 2J = 5: the 35 generators and the three spin_matrices; no per-rank spin matrices."""
    validate = HermitianOperator.__post_init__
    calls = []

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(HermitianOperator, "__post_init__", counting)
    _multipole_basis_cached.cache_clear()
    basis = multipole_basis(SpinQuantum(5))
    assert len(basis) == 35
    assert len(calls) == 38


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 5, 6, 7, 8])
def test_generator_properties_sweep(twice_j):
    """Hermitian, traceless, common norm, orthogonal: all J up to 4."""
    j = SpinQuantum(twice_j)
    basis = multipole_basis(j)
    mats = basis.matrices()
    assert len(mats) == j.dim**2 - 1
    k2 = norm_squared(j)
    for m in mats:
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m)) < 1e-12
    gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
    assert np.max(np.abs(gram - k2 * np.eye(len(mats)))) < 1e-10


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4])
def test_commutator_closure(twice_j):
    """-i[g_a, g_b] expands exactly in the generator basis for J <= 2."""
    basis = multipole_basis(SpinQuantum(twice_j))
    mats = basis.matrices()
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = commutator(basis.generators[a], basis.generators[b])
            coeffs = expansion_coefficients(basis, comm)
            rebuilt = sum(c * m for c, m in zip(coeffs, mats))
            worst = max(worst, np.max(np.abs(rebuilt - comm.matrix)))
    assert worst < 1e-10


def test_expand_observable_basis_selection():
    basis = multipole_basis(SpinQuantum(3))
    coeffs = np.zeros(15)
    coeffs[2] = 1.0
    assert np.allclose(expand_observable(basis, coeffs).matrix, basis.matrices()[2])


def test_expand_observable_type_ii_diagonal():
    """The (Jz, Y, Taz) combination that realizes a diagonal block observable."""
    basis = multipole_basis(SpinQuantum(3))
    coeffs = np.zeros(15)
    coeffs[2] = 2.0 / math.sqrt(10.0)
    coeffs[7] = 1.0 / math.sqrt(2.0)
    coeffs[10] = -1.0 / math.sqrt(10.0)
    op = expand_observable(basis, coeffs)
    root = math.sqrt(2.5)
    assert np.allclose(op.matrix, np.diag([root, 0.0, -root, 0.0]), atol=1e-12)


def test_expand_observable_rejects_unnormalized():
    basis = multipole_basis(SpinQuantum(3))
    coeffs = np.zeros(15)
    coeffs[0] = math.sqrt(0.5)
    with pytest.raises(NormalizationError):
        expand_observable(basis, coeffs)


def test_commutator_errors_and_selfcancel():
    jx, jy, jz = spin_matrices(SpinQuantum(3))
    assert np.max(np.abs(commutator(jz, jz).matrix)) == 0.0
    other = spin_matrices(SpinQuantum(1))[0]
    with pytest.raises(DimensionMismatch):
        commutator(jx, other)


def test_quadrupole_commutator_has_spin_and_octupole_parts():
    basis = multipole_basis(SpinQuantum(3))
    g = dict(zip(basis.names, basis.generators))
    comm = commutator(g["Qzx"], g["Qyz"])
    coeffs = expansion_coefficients(basis, comm)
    by_name = dict(zip(basis.names, coeffs))
    assert abs(by_name["Jz"]) > 0.1
    assert abs(by_name["Taz"]) > 0.1
    rebuilt = sum(c * m for c, m in zip(coeffs, basis.matrices()))
    assert np.max(np.abs(rebuilt - comm.matrix)) < 1e-10


def test_expansion_coefficients_jx_and_errors():
    basis = multipole_basis(SpinQuantum(3))
    coeffs = expansion_coefficients(basis, basis.generators[0])
    expected = np.zeros(15)
    expected[0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)
    with pytest.raises(NotTraceless):
        expansion_coefficients(basis, HermitianOperator(np.eye(4)))
    with pytest.raises(DimensionMismatch):
        expansion_coefficients(basis, HermitianOperator(np.zeros((2, 2))))


def test_expansion_coefficients_diagonal_combination():
    """A diagonal two-block observable decomposes over (Jz, Y, Taz) only."""
    basis = multipole_basis(SpinQuantum(3))
    root = math.sqrt(10.0)
    op = HermitianOperator(np.diag([root / 2, -root / 2, 0.0, 0.0]))
    coeffs = dict(zip(basis.names, expansion_coefficients(basis, op)))
    assert coeffs["Jz"] == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-12)
    assert coeffs["Y"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert coeffs["Taz"] == pytest.approx(math.sqrt(0.4), abs=1e-12)
    others = [v for k, v in coeffs.items() if k not in ("Jz", "Y", "Taz")]
    assert np.max(np.abs(others)) < 1e-12


def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=30, deadline=None)
@given(
    twice_j=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_expansion_roundtrip(twice_j, seed):
    """expansion_coefficients inverts expand_observable on unit vectors."""
    basis = multipole_basis(SpinQuantum(twice_j))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=len(basis))
    v /= np.linalg.norm(v)
    op = expand_observable(basis, v)
    assert np.max(np.abs(expansion_coefficients(basis, op) - v)) < 1e-10
    k2 = norm_squared(basis.j)
    assert np.trace(op.matrix @ op.matrix).real == pytest.approx(k2, abs=1e-10)


def test_off_diagonal_of_a_stack_is_one_maximum_per_matrix():
    """A stack gives each matrix's own maximum; a transposed layout reads the same."""
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    stack[2] = np.diag(rng.normal(size=4))
    each = [np.max(np.abs(m - np.diag(np.diag(m)))) for m in stack]
    assert _off_diagonal(stack).tolist() == each
    assert [_off_diagonal(m) for m in stack] == each
    assert [_off_diagonal(m.T) for m in stack] == each
    assert _off_diagonal(stack.transpose(0, 2, 1)).tolist() == each
    assert _off_diagonal(stack[2]) == 0.0
