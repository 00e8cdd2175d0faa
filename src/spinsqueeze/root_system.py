"""Root system of su(2J+1) over the diagonal Cartan subalgebra.

The 2J diagonal generators (Jz plus one diagonal multipole per rank) span the
Cartan subalgebra.  Their adjoint actions on the remaining generators commute
and are diagonalized simultaneously; the joint eigenvalue tuples are the
roots and the eigen-operators are the ladder matrices.  With the quantization
axis along z, the simple roots are realized as single-entry raising matrices
connecting adjacent magnetic sublevels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRootSpace, DimensionMismatch, NonDiagonalCartan
from .lie_algebra import GeneratorSet, SpinQuantum, norm_squared

ROOT_RESIDUAL_TOL = 1e-9
EIGENVALUE_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class CartanChoice:
    """Indices (0-based) of the diagonal generators used as the Cartan set."""

    j: SpinQuantum
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != self.j.twice_j:
            raise DimensionMismatch(
                f"Cartan rank of su({self.j.dim}) is {self.j.twice_j}, got {len(self.indices)} indices"
            )
        if 2 not in self.indices:
            raise ValueError("the Cartan choice must contain Jz (index 2)")


@dataclass(frozen=True)
class RootDatum:
    """One root: its eigenvalue tuple and the (non-Hermitian) ladder matrix."""

    root: tuple[float, ...]
    ladder: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.ladder, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "ladder", m)
        object.__setattr__(self, "root", tuple(float(x) for x in self.root))


@dataclass(frozen=True)
class SimpleRootMatrix:
    """Raising matrix for the k-th Dynkin vertex: m_z = J-k -> J-k+1."""

    k: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def default_cartan(basis: GeneratorSet) -> CartanChoice:
    """Cartan choice made of every diagonal generator in the basis (2J of them)."""
    idx = tuple(
        i
        for i, g in enumerate(basis.generators)
        if np.max(np.abs(g.matrix - np.diag(np.diagonal(g.matrix)))) <= 1e-14
    )
    return CartanChoice(basis.j, idx)


def _check_cartan(basis: GeneratorSet, cartan: CartanChoice) -> None:
    if cartan.j != basis.j:
        raise DimensionMismatch("Cartan choice belongs to a different spin")
    for i in cartan.indices:
        g = basis.generators[i].matrix
        off = np.max(np.abs(g - np.diag(np.diagonal(g))))
        if off > 1e-12:
            raise NonDiagonalCartan(f"generator {basis.names[i]} is not diagonal (off-diag {off:.3e})")


def adjoint_representation(basis: GeneratorSet, cartan: CartanChoice) -> list[np.ndarray]:
    """Adjoint matrices f_{cm}^n of each Cartan generator over the non-Cartan basis.

    Structure constants follow [g_c, g_m] = i sum_n f_{cm}^n g_n; each returned
    matrix is real and indexed by the non-Cartan generators in basis order.
    """
    _check_cartan(basis, cartan)
    gens = np.array(basis.matrices())
    gc = gens[list(cartan.indices)][:, None]
    gm = np.delete(gens, cartan.indices, axis=0)
    comm = -1j * (gc @ gm - gm @ gc)  # -i[g_c, g_m], shape (cartan, rest, d, d)
    # tr(A B) = sum_ij A_ij B_ji: one product against the transposed non-Cartan stack
    traces = comm.reshape(*comm.shape[:2], -1) @ gm.transpose(0, 2, 1).reshape(len(gm), -1).T
    return list(traces.real / norm_squared(basis.j))


def compute_roots(basis: GeneratorSet, cartan: CartanChoice) -> list[RootDatum]:
    """All (2J+1)^2 - 1 - 2J roots with their normalized ladder operators.

    The Hermitian matrices i f_c^T commute; they are diagonalized sequentially,
    refining degenerate eigenspaces Cartan generator by Cartan generator.  Each
    one-dimensional joint eigenspace yields a root tuple and a ladder matrix
    normalized to the common generator trace norm, with the largest entry made
    real and positive.
    """
    adj = adjoint_representation(basis, cartan)
    dim_ad = len(basis) - len(cartan.indices)
    hermitians = [1j * f.T for f in adj]

    # Each entry is (eigenvalue-prefix, orthonormal column block).
    spaces: list[tuple[list[float], np.ndarray]] = [([], np.eye(dim_ad, dtype=complex))]
    for h in hermitians:
        refined: list[tuple[list[float], np.ndarray]] = []
        for prefix, block in spaces:
            sub = block.conj().T @ h @ block
            vals, vecs = np.linalg.eigh(sub)
            start = 0
            while start < len(vals):
                stop = start + 1
                while stop < len(vals) and vals[stop] - vals[start] < EIGENVALUE_CLUSTER_TOL:
                    stop += 1
                mean = float(np.mean(vals[start:stop]))
                refined.append((prefix + [mean], block @ vecs[:, start:stop]))
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
        # fix the global phase: largest-magnitude entry real positive
        phase = ladder.flat[np.abs(ladder).argmax()]
        ladder = ladder * (abs(phase) / phase)
        # the coefficient normalization already gives tr(L^dag L) = norm^2;
        # renormalize defensively against round-off
        ladder *= scale / np.linalg.norm(ladder)
        # Rayleigh quotients sharpen the eigenvalues to machine precision
        root = tuple(
            float(np.trace(ladder.conj().T @ (h @ ladder - ladder @ h)).real / (scale * scale))
            for h in cartan_mats
        )
        out.append(RootDatum(root, ladder))

    # components equal in exact arithmetic must compare equal, not by round-off
    out.sort(key=lambda rd: tuple(round(x / EIGENVALUE_CLUSTER_TOL) for x in rd.root), reverse=True)
    _validate_roots(basis, cartan, out)
    return out


def _validate_roots(basis: GeneratorSet, cartan: CartanChoice, roots: list[RootDatum]) -> None:
    for rd in roots:
        for val, c in zip(rd.root, cartan.indices):
            h = basis.generators[c].matrix
            resid = np.max(np.abs(h @ rd.ladder - rd.ladder @ h - val * rd.ladder))
            if resid > ROOT_RESIDUAL_TOL:
                raise DegenerateRootSpace(
                    f"ladder for root {rd.root} fails its eigen-equation (residual {resid:.3e})"
                )


def simple_root_matrices(j: SpinQuantum) -> list[SimpleRootMatrix]:
    """Single-entry raising matrices A_k, k = 1..2J, in the m_z = J..-J basis.

    A_k maps the sublevel m_z = J-k to m_z = J-k+1 with amplitude equal to the
    common generator trace norm.
    """
    if j.twice_j < 1:
        raise ValueError("simple roots need 2J >= 1")
    value = math.sqrt(norm_squared(j))
    out = []
    for k in range(1, j.twice_j + 1):
        m = np.zeros((j.dim, j.dim), dtype=complex)
        m[k - 1, k] = value
        out.append(SimpleRootMatrix(k, m))
    return out
