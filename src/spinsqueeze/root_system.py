"""Root system of su(2J+1) over the diagonal Cartan subalgebra.

The 2J diagonal generators (Jz plus one diagonal multipole per rank) span the
Cartan subalgebra.  Because they are diagonal in the m_z basis, every
single-entry matrix E_ab (a != b) is a joint eigen-operator of their adjoint
action, with eigenvalue h[a] - h[b] for each Cartan generator h: the roots
and their ladder matrices are read off the Cartan diagonals, with no
eigensolver.  The simple roots are the ladders sqrt(norm^2) E_{k-1,k}
connecting adjacent magnetic sublevels.

The Cartan set is read in one pass as well: the off-diagonal maxima of all
generators come from one stacked array.  All d(d-1) root tuples form one
(d(d-1), 2J) array, sorted descending by their components rounded to
ROOT_KEY_TOL (np.rint, ties to even, as Python's round) with one lexsort; a
repeated root is two equal adjacent rows of that sort.  The ladders are one
(d(d-1), d, d) stack written by one fancy-index assignment, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRootSpace, DimensionMismatch, InvalidInput, NonDiagonalCartan
from .lie_algebra import DIAGONAL_TOL, GeneratorSet, SpinQuantum, _exact_int, _off_diagonal, _sequence, norm_squared

ROOT_KEY_TOL = 1e-8


@dataclass(frozen=True)
class CartanChoice:
    """Indices (0-based) of the diagonal generators used as the Cartan set."""

    j: SpinQuantum
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(_exact_int(i, "Cartan index") for i in _sequence(self.indices, "Cartan indices"))
        object.__setattr__(self, "indices", indices)
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
        object.__setattr__(self, "root", tuple(map(float, self.root)))


def default_cartan(basis: GeneratorSet) -> CartanChoice:
    """Cartan choice made of every diagonal generator in the basis (2J of them)."""
    off = _off_diagonal(np.array(basis.matrices()))
    return CartanChoice(basis.j, tuple(np.flatnonzero(off <= DIAGONAL_TOL).tolist()))


def _check_cartan(basis: GeneratorSet, cartan: CartanChoice) -> None:
    if cartan.j != basis.j:
        raise DimensionMismatch("Cartan choice belongs to a different spin")
    off = _off_diagonal(np.array([basis.generators[i].matrix for i in cartan.indices]))
    bad = np.flatnonzero(off > DIAGONAL_TOL)
    if bad.size:
        i = cartan.indices[bad[0]]
        raise NonDiagonalCartan(f"generator {basis.names[i]} is not diagonal (off-diag {off[bad[0]]:.3e})")


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
    a, b = np.nonzero(~np.eye(dim, dtype=bool))  # the ordered pairs a != b, row by row
    roots = (diag[:, a] - diag[:, b]).T
    # Descending by the rounded components: equal in exact arithmetic must compare equal,
    # not by round-off.  lexsort's last key is the primary one, and it is stable.
    keys = np.rint(roots / ROOT_KEY_TOL)
    order = np.lexsort(-keys[:, ::-1].T)
    keys, roots, a, b = keys[order], roots[order], a[order], b[order]
    repeated = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
    if repeated.size:
        raise DegenerateRootSpace(f"root tuple {tuple(roots[repeated[0] + 1].tolist())} has multiplicity > 1")
    ladders = np.zeros((a.size, dim, dim), dtype=complex)
    ladders[np.arange(a.size), a, b] = scale  # sqrt(norm^2) E_ab, one per root, in root order
    return [RootDatum(r, m) for r, m in zip(roots.tolist(), ladders)]
