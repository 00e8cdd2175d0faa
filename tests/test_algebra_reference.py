"""The constructed algebra layer against the searches it replaced.

The reference functions below are the vertex-mask search over all 2^(2J)
Dynkin subsets, the generator-pair loop over structure constants, the
simultaneous diagonalization of the adjoint Cartan action, and the
Gram-Schmidt loop over every earlier generator.  They are kept here so that
the partition construction in `spinsqueeze.classification`, the closed-form
roots in `spinsqueeze.root_system`, and the
band-wise Gram-Schmidt in `spinsqueeze.lie_algebra` are compared with them:
classes, factors, example subsets and generators exactly, structure
constants to 1e-12, roots and ladders to 1e-13.  The Gram-Schmidt loop takes
tr(A^dagger B) as `np.vdot`, as the library does; the same loop with the
inner product as a matrix product and a trace, the library's earlier
arithmetic, pins the generators to 1e-14.
"""

import dataclasses
import math

import numpy as np
import pytest

from spinsqueeze import (
    SpinQuantum,
    VertexSubset,
    class_representatives,
    compute_roots,
    decompose_subset,
    default_cartan,
    multipole_basis,
)
from spinsqueeze.classification import IrrepDecomposition
from spinsqueeze.errors import DegenerateRootSpace
from spinsqueeze.lie_algebra import (
    _general_multipoles,
    _tensor_components,
    commutator,
    expansion_coefficients,
    norm_squared,
    spin_matrices,
)

ADJOINT_TOL = 1e-12
ROOT_TOL = 1e-13
CLUSTER_TOL = 1e-8


def reference_class_representatives(j: SpinQuantum):
    """Every class paired with the first vertex mask that produces it."""
    seen = {}
    for mask in range(1, 1 << j.twice_j):
        subset = VertexSubset(j, frozenset(k + 1 for k in range(j.twice_j) if mask >> k & 1))
        seen.setdefault(decompose_subset(subset).twice_subspins, subset)
    pairs = [(IrrepDecomposition(j, key), sub) for key, sub in seen.items()]
    pairs.sort(key=lambda p: (p[0].r, tuple(-t for t in p[0].twice_subspins)))
    return pairs


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_class_representatives_match_mask_search(twice_j):
    j = SpinQuantum(twice_j)
    got = [(dec.twice_subspins, dec.f, sub.chosen) for dec, sub in class_representatives(j)]
    want = [(dec.twice_subspins, dec.f, sub.chosen) for dec, sub in reference_class_representatives(j)]
    assert got == want


def reference_adjoint(basis, cartan):
    """Adjoint matrices f_{cm}^n of each Cartan generator over the non-Cartan basis.

    Structure constants follow [g_c, g_m] = i sum_n f_{cm}^n g_n; each matrix
    is real and indexed by the non-Cartan generators in basis order.
    """
    gens = np.array(basis.matrices())
    gc = gens[list(cartan.indices)][:, None]
    gm = np.delete(gens, cartan.indices, axis=0)
    comm = -1j * (gc @ gm - gm @ gc)  # -i[g_c, g_m], shape (cartan, rest, d, d)
    # tr(A B) = sum_ij A_ij B_ji: one product against the transposed non-Cartan stack
    traces = comm.reshape(*comm.shape[:2], -1) @ gm.transpose(0, 2, 1).reshape(len(gm), -1).T
    return list(traces.real / norm_squared(basis.j))


@pytest.mark.parametrize("twice_j", [3, 5, 7])
def test_adjoint_matches_commutator_expansion(twice_j):
    basis = multipole_basis(SpinQuantum(twice_j))
    cartan = default_cartan(basis)
    rest = [i for i in range(len(basis)) if i not in cartan.indices]
    for c, got in zip(cartan.indices, reference_adjoint(basis, cartan)):
        want = np.array(
            [
                expansion_coefficients(basis, commutator(basis.generators[c], basis.generators[m]))[rest]
                for m in rest
            ]
        )
        assert np.max(np.abs(got - want)) <= ADJOINT_TOL


def reference_roots(basis, cartan):
    """(root, ladder) pairs from refining the eigenspaces of i f_c^T, Cartan
    generator by Cartan generator, with Rayleigh-quotient roots."""
    dim_ad = len(basis) - len(cartan.indices)
    spaces = [([], np.eye(dim_ad, dtype=complex))]
    for f in reference_adjoint(basis, cartan):
        refined = []
        for prefix, block in spaces:
            vals, vecs = np.linalg.eigh(block.conj().T @ (1j * f.T) @ block)
            start = 0
            while start < len(vals):
                stop = start + 1
                while stop < len(vals) and vals[stop] - vals[start] < CLUSTER_TOL:
                    stop += 1
                refined.append((prefix + [float(np.mean(vals[start:stop]))], block @ vecs[:, start:stop]))
                start = stop
        spaces = refined
    for prefix, block in spaces:
        if block.shape[1] != 1:
            raise DegenerateRootSpace(f"root tuple {tuple(prefix)} has multiplicity {block.shape[1]}")

    gen_mats = np.delete(np.array(basis.matrices()), cartan.indices, axis=0)
    cartan_mats = [basis.generators[i].matrix for i in cartan.indices]
    scale = math.sqrt(norm_squared(basis.j))
    coeffs = np.array([block[:, 0] for _, block in spaces])
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    out = []
    for ladder in np.tensordot(coeffs, gen_mats, axes=1):
        phase = ladder.flat[np.abs(ladder).argmax()]  # largest entry real positive
        ladder = ladder * (abs(phase) / phase)
        ladder *= scale / np.linalg.norm(ladder)
        root = tuple(
            float(np.trace(ladder.conj().T @ (h @ ladder - ladder @ h)).real / (scale * scale))
            for h in cartan_mats
        )
        out.append((root, ladder))
    out.sort(key=lambda p: tuple(round(x / CLUSTER_TOL) for x in p[0]), reverse=True)
    return out


def reference_general_multipoles(j: SpinQuantum, inner=np.vdot):
    """Rank-by-rank multipoles, each projected against every earlier generator.

    `inner(A, B)` is tr(A^dagger B).
    """
    scale = math.sqrt(norm_squared(j))
    mats = [m.matrix.copy() for m in spin_matrices(j)]
    for rank, comps in _tensor_components(j):
        block = []
        for q in range(1, rank + 1):
            t = comps[rank - q]
            sign = (-1.0) ** q
            block.append(sign * (t + t.conj().T) / math.sqrt(2))
            block.append(sign * (t - t.conj().T) / (1j * math.sqrt(2)))
        block.append(comps[rank])
        for m in block:
            for prev in mats:
                m -= (inner(prev, m) / inner(prev, prev)) * prev
            m *= scale / np.linalg.norm(m)
            mats.append(m)
    return mats


@pytest.mark.parametrize("twice_j", range(1, 10))
def test_roots_match_simultaneous_diagonalization(twice_j):
    basis = multipole_basis(SpinQuantum(twice_j))
    cartan = default_cartan(basis)
    got = compute_roots(basis, cartan)
    want = reference_roots(basis, cartan)
    assert len(got) == len(want)
    for rd, (root, ladder) in zip(got, want):
        assert np.max(np.abs(np.subtract(rd.root, root))) <= ROOT_TOL
        assert np.max(np.abs(rd.ladder - ladder)) <= ROOT_TOL


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_multipoles_match_all_pairs_gram_schmidt(twice_j):
    j = SpinQuantum(twice_j)
    got, _ = _general_multipoles(j)
    assert np.array_equal(np.array(got), np.array(reference_general_multipoles(j)))


def _trace_inner(a, b):
    return np.trace(a.conj().T @ b)


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_multipoles_match_matrix_product_gram_schmidt(twice_j):
    """The inner product by vdot moves the generators by round-off only (3.6e-15 measured)."""
    j = SpinQuantum(twice_j)
    got, _ = _general_multipoles(j)
    want = reference_general_multipoles(j, inner=_trace_inner)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_multipole_basis_is_orthonormal(twice_j):
    """tr(g_a g_b) / norm^2 is the identity to 2e-15 (6.7e-16 measured)."""
    j = SpinQuantum(twice_j)
    basis = multipole_basis(j)
    flat = np.array(basis.matrices()).reshape(len(basis), -1)
    gram = (flat.conj() @ flat.T).real / norm_squared(j)
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 2e-15


def test_cartan_without_y_is_degenerate(basis32):
    """With Y replaced by a copy of Jz, E_12 and E_34 share one root tuple: two equal
    adjacent rows of the sort, and the refusal names that tuple."""
    jz = basis32.generators[basis32.names.index("Jz")]
    gens = tuple(jz if name == "Y" else g for name, g in zip(basis32.names, basis32.generators))
    broken = dataclasses.replace(basis32, generators=gens)
    with pytest.raises(DegenerateRootSpace, match=r"root tuple \(2\.0, 2\.0, -1\.0\) has multiplicity"):
        compute_roots(broken, default_cartan(broken))
