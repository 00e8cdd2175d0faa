import math

import numpy as np
import pytest

from spinsqueeze import (
    CartanChoice,
    SpinQuantum,
    compute_roots,
    default_cartan,
    multipole_basis,
)
from spinsqueeze.errors import DimensionMismatch, NonDiagonalCartan

from observables import simple_root_ladders

SQ5 = math.sqrt(5.0)

SU4_POSITIVE_ROOTS = [
    (1.0, SQ5, 2.0),
    (2.0, SQ5, -1.0),
    (3.0, 0.0, 1.0),
    (1.0, 0.0, -3.0),
    (2.0, -SQ5, -1.0),
    (1.0, -SQ5, 2.0),
]


def _unit_matrix(dim, row, col, value):
    m = np.zeros((dim, dim), dtype=complex)
    m[row, col] = value
    return m


def test_default_cartan_is_the_diagonal_set(basis32):
    cartan = default_cartan(basis32)
    assert cartan.indices == (2, 7, 10)
    assert [basis32.names[i] for i in cartan.indices] == ["Jz", "Y", "Taz"]


def test_cartan_choice_validation(basis32):
    with pytest.raises(DimensionMismatch):
        CartanChoice(basis32.j, (2, 7))
    with pytest.raises(ValueError):
        CartanChoice(basis32.j, (0, 7, 10))  # misses Jz
    with pytest.raises(ValueError):
        CartanChoice(basis32.j, (2, 2, 7))  # repeats Jz
    with pytest.raises(ValueError):
        CartanChoice(basis32.j, (2, 7, 99))  # past the 15 generators
    with pytest.raises(ValueError):
        CartanChoice(basis32.j, (2, 7, -5))  # would pick Taz by negative indexing
    bad = CartanChoice(basis32.j, (2, 7, 0))  # Jx is not diagonal
    with pytest.raises(NonDiagonalCartan):
        compute_roots(basis32, bad)


@pytest.mark.parametrize(
    "indices,name",
    [((2, 7, 0), "Jx"), ((2, 3, 0), "Qxy"), ((0, 2, 7), "Jx"), ((6, 2, 4), "Dxy")],
)
def test_non_diagonal_cartan_names_its_first_offender(basis32, indices, name):
    """The off-diagonal maxima are read for all chosen generators at once; the
    refusal names the first one, in the choice's order, that is not diagonal."""
    with pytest.raises(NonDiagonalCartan, match=rf"generator {name} is not diagonal"):
        compute_roots(basis32, CartanChoice(basis32.j, indices))


def test_su2_adjoint_of_jz():
    from spinsqueeze.lie_algebra import commutator, expansion_coefficients

    basis = multipole_basis(SpinQuantum(1))
    (c,) = default_cartan(basis).indices
    gens = basis.generators
    # structure constants f_{cm}^n of Jz over the non-Cartan generators (Jx, Jy)
    ad = np.array([expansion_coefficients(basis, commutator(gens[c], gens[m]))[:2] for m in (0, 1)])
    # [Jz, Jx] = i Jy, [Jz, Jy] = -i Jx: the rotation generator in the xy plane
    assert np.allclose(ad, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    eig = np.linalg.eigvals(1j * ad.T)
    assert sorted(np.real(eig)) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_su2_roots_are_ladders():
    basis = multipole_basis(SpinQuantum(1))
    roots = compute_roots(basis, default_cartan(basis))
    assert len(roots) == 2
    vals = sorted(r.root[0] for r in roots)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    jx, jy = basis.matrices()[0], basis.matrices()[1]
    jplus = jx + 1j * jy
    raising = next(r for r in roots if r.root[0] > 0)
    # ladder normalized to tr(L+ L) = 1/2 -> equals J+ / sqrt(2... ) up to phase
    scale = np.linalg.norm(raising.ladder) / np.linalg.norm(jplus)
    assert np.max(np.abs(raising.ladder - scale * jplus)) < 1e-12


def test_adjoint_structure_constants_antisymmetric(basis32):
    """f_{cm}^n = -f_{mc}^n checked directly from commutators."""
    from spinsqueeze.lie_algebra import commutator, expansion_coefficients

    mats = basis32.generators
    k2 = 5.0
    for c in (2, 7, 10):
        for m in (0, 4, 9, 13):
            f_cm = expansion_coefficients(basis32, commutator(mats[c], mats[m]))
            f_mc = expansion_coefficients(basis32, commutator(mats[m], mats[c]))
            assert np.max(np.abs(f_cm + f_mc)) < 1e-10


@pytest.mark.parametrize("twice_j", range(1, 10))
def test_root_order_ignores_round_off(twice_j):
    """Roots come sorted descending on the rounding scale, not by float noise."""
    from spinsqueeze.root_system import ROOT_KEY_TOL

    basis = multipole_basis(SpinQuantum(twice_j))
    keys = [
        tuple(round(x / ROOT_KEY_TOL) for x in rd.root)
        for rd in compute_roots(basis, default_cartan(basis))
    ]
    assert keys == sorted(keys, reverse=True)


def test_su4_root_count_and_pairing(basis32):
    roots = compute_roots(basis32, default_cartan(basis32))
    assert len(roots) == 12
    for rd in roots:
        partners = [
            o for o in roots
            if max(abs(a + b) for a, b in zip(o.root, rd.root)) < 1e-9
        ]
        assert len(partners) == 1
        assert np.max(np.abs(partners[0].ladder - rd.ladder.conj().T)) < 1e-10


def test_su4_positive_roots_match_expected(basis32):
    roots = compute_roots(basis32, default_cartan(basis32))
    for expected in SU4_POSITIVE_ROOTS:
        best = min(roots, key=lambda r: max(abs(a - b) for a, b in zip(r.root, expected)))
        assert max(abs(a - b) for a, b in zip(best.root, expected)) < 1e-9


def test_su4_ladders_are_elementary_matrices(basis32):
    """Each root ladder is sqrt(5) E_mn for the six raising transitions."""
    roots = compute_roots(basis32, default_cartan(basis32))
    expected_entries = {
        (1.0, SQ5, 2.0): (0, 1),
        (2.0, SQ5, -1.0): (0, 2),
        (3.0, 0.0, 1.0): (0, 3),
        (1.0, 0.0, -3.0): (1, 2),
        (2.0, -SQ5, -1.0): (1, 3),
        (1.0, -SQ5, 2.0): (2, 3),
    }
    for root, (row, col) in expected_entries.items():
        rd = min(roots, key=lambda r: max(abs(a - b) for a, b in zip(r.root, root)))
        assert np.max(np.abs(rd.ladder - _unit_matrix(4, row, col, SQ5))) < 1e-9


def test_first_simple_root_operator_expansion(basis32):
    """The (1, sqrt5, 2) ladder equals its known multipole combination."""
    roots = compute_roots(basis32, default_cartan(basis32))
    rd = min(roots, key=lambda r: max(abs(a - b) for a, b in zip(r.root, (1.0, SQ5, 2.0))))
    g = dict(zip(basis32.names, basis32.matrices()))
    jplus = g["Jx"] + 1j * g["Jy"]
    qplus = g["Qzx"] + 1j * g["Qyz"]
    taplus = g["Tax"] + 1j * g["Tay"]
    tbminus = g["Tbx"] - 1j * g["Tby"]
    combo = (
        math.sqrt(15.0) / 10.0 * jplus
        + 0.5 * qplus
        - math.sqrt(15.0) / 20.0 * taplus
        - 0.25 * tbminus
    )
    # equality up to a unit phase; the chosen phase convention makes it exact
    assert np.max(np.abs(rd.ladder - combo)) < 1e-9


def test_second_simple_root_operator_expansion(basis32):
    """sqrt5 E_23 decomposes over (J+, Ta+, Tb-) with the known weights."""
    g = dict(zip(basis32.names, basis32.matrices()))
    jplus = g["Jx"] + 1j * g["Jy"]
    taplus = g["Tax"] + 1j * g["Tay"]
    tbminus = g["Tbx"] - 1j * g["Tby"]
    combo = jplus / math.sqrt(5.0) + 3.0 / (4.0 * math.sqrt(5.0)) * taplus + math.sqrt(3.0) / 4.0 * tbminus
    assert np.max(np.abs(combo - _unit_matrix(4, 1, 2, SQ5))) < 1e-12


def test_simple_root_matrices_values():
    """The roots raising level k to k - 1 are sqrt(norm^2) E_{k-1,k}, k = 1..2J."""
    mats = simple_root_ladders(multipole_basis(SpinQuantum(3)))
    assert len(mats) == 3
    assert np.max(np.abs(mats[0] - _unit_matrix(4, 0, 1, SQ5))) == 0.0
    assert np.max(np.abs(mats[1] - _unit_matrix(4, 1, 2, SQ5))) == 0.0
    assert np.max(np.abs(mats[2] - _unit_matrix(4, 2, 3, SQ5))) == 0.0
    half = simple_root_ladders(multipole_basis(SpinQuantum(1)))
    assert len(half) == 1
    assert np.max(np.abs(half[0] - _unit_matrix(2, 0, 1, math.sqrt(0.5)))) == 0.0
    assert half[0][0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_simple_roots_recovered_by_root_computation(basis32):
    roots = compute_roots(basis32, default_cartan(basis32))
    for ladder in simple_root_ladders(basis32):
        assert any(np.max(np.abs(rd.ladder - ladder)) < 1e-9 for rd in roots)


@pytest.mark.parametrize("twice_j", range(1, 10))
def test_roots_sweep(twice_j):
    """Count, norms, eigen-residuals and negation closure for 2J = 1..9."""
    basis = multipole_basis(SpinQuantum(twice_j))
    cartan = default_cartan(basis)
    roots = compute_roots(basis, cartan)
    dim = twice_j + 1
    assert len(roots) == dim * dim - 1 - twice_j
    k2 = np.trace(basis.matrices()[2] @ basis.matrices()[2]).real
    keys = {tuple(np.round(rd.root, 8)) for rd in roots}
    for rd in roots:
        assert np.trace(rd.ladder.conj().T @ rd.ladder).real == pytest.approx(k2, rel=1e-12)
        for val, c in zip(rd.root, cartan.indices):
            h = basis.matrices()[c]
            assert np.max(np.abs(h @ rd.ladder - rd.ladder @ h - val * rd.ladder)) < 1e-9
        assert tuple(np.round(np.negative(rd.root), 8)) in keys
        for val, c in zip(rd.root, cartan.indices):
            h = basis.matrices()[c]
            resid = np.max(np.abs(h @ rd.ladder - rd.ladder @ h - val * rd.ladder))
            assert resid < 1e-9
