"""Root system of su(2J+1) over the diagonal Cartan subalgebra.

The 2J diagonal generators (Jz plus one diagonal multipole per rank) span the
Cartan subalgebra.  Because they are diagonal in the m_z basis, every
single-entry matrix E_ab (a != b) is a joint eigen-operator of their adjoint
action, with eigenvalue h[a] - h[b] for each Cartan generator h: the roots
and their ladder matrices are read off the Cartan diagonals, with no
eigensolver.  The simple roots are the ladders sqrt(norm^2) E_{k-1,k}
connecting adjacent magnetic sublevels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRootSpace, DimensionMismatch, InvalidInput, NonDiagonalCartan
from .lie_algebra import GeneratorSet, SpinQuantum, _exact_int, _off_diagonal, norm_squared

ROOT_KEY_TOL = 1e-8


@dataclass(frozen=True)
class CartanChoice:
    """Indices (0-based) of the diagonal generators used as the Cartan set."""

    j: SpinQuantum
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(_exact_int(i, "Cartan index") for i in self.indices))
        if len(self.indices) != self.j.twice_j:
            raise DimensionMismatch(
                f"Cartan rank of su({self.j.dim}) is {self.j.twice_j}, got {len(self.indices)} indices"
            )
        if 2 not in self.indices:
            raise InvalidInput(f"the Cartan choice must contain Jz (index 2), got {self.indices}")
        if len(set(self.indices)) != len(self.indices):
            raise InvalidInput(f"the Cartan choice repeats an index: {self.indices}")
        top = self.j.dim * self.j.dim - 2
        if any(not 0 <= i <= top for i in self.indices):
            raise InvalidInput(f"Cartan indices must lie in 0..{top}, got {self.indices}")


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


def default_cartan(basis: GeneratorSet) -> CartanChoice:
    """Cartan choice made of every diagonal generator in the basis (2J of them)."""
    idx = tuple(i for i, g in enumerate(basis.generators) if _off_diagonal(g.matrix) <= 1e-14)
    return CartanChoice(basis.j, idx)


def _check_cartan(basis: GeneratorSet, cartan: CartanChoice) -> None:
    if cartan.j != basis.j:
        raise DimensionMismatch("Cartan choice belongs to a different spin")
    for i in cartan.indices:
        off = _off_diagonal(basis.generators[i].matrix)
        if off > 1e-12:
            raise NonDiagonalCartan(f"generator {basis.names[i]} is not diagonal (off-diag {off:.3e})")


def compute_roots(basis: GeneratorSet, cartan: CartanChoice) -> list[RootDatum]:
    """All (2J+1)^2 - 1 - 2J roots with their ladder operators, in closed form.

    For diagonal Cartan generators h_c, [h_c, E_ab] = (h_c[a] - h_c[b]) E_ab,
    so each ordered pair a != b of sublevels gives the root tuple
    (h_c[a] - h_c[b])_c with the ladder sqrt(norm^2) E_ab, normalized to the
    common generator trace norm.  The identity is exact for the diagonal h_c
    that `_check_cartan` enforces, so no residual is re-checked here.  A
    Cartan set that gives two pairs the same root tuple raises
    DegenerateRootSpace.
    """
    _check_cartan(basis, cartan)
    diag = np.array([np.diagonal(basis.generators[c].matrix).real for c in cartan.indices])
    scale = math.sqrt(norm_squared(basis.j))
    dim = basis.j.dim
    out = [
        RootDatum(diag[:, a] - diag[:, b], _elementary(dim, a, b, scale))
        for a in range(dim)
        for b in range(dim)
        if a != b
    ]
    keyed = sorted(((_root_key(rd), rd) for rd in out), key=lambda kr: kr[0], reverse=True)
    for (prev, _), (key, rd) in zip(keyed, keyed[1:]):
        if prev == key:
            raise DegenerateRootSpace(f"root tuple {rd.root} has multiplicity > 1")
    return [rd for _, rd in keyed]


def _root_key(rd: RootDatum) -> tuple[int, ...]:
    # components equal in exact arithmetic must compare equal, not by round-off
    return tuple(round(x / ROOT_KEY_TOL) for x in rd.root)


def _elementary(dim: int, row: int, col: int, value: float) -> np.ndarray:
    """value * E_{row,col}, the single-entry matrix."""
    m = np.zeros((dim, dim), dtype=complex)
    m[row, col] = value
    return m
