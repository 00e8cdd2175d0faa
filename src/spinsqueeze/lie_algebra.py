"""Spin and multipole generator matrices of su(2J+1).

A single spin-J particle carries (2J+1)^2 - 1 = 4J(J+1) independent traceless
Hermitian observables: the three spin-vector components (rank 1), the five
quadrupole components (rank 2), the seven octupole components (rank 3), and so
on up to rank 2J.  All generators here are normalized to a common trace norm

    tr(g @ g) = J(J+1)(2J+1)/3,

which is exactly the norm of the bare angular-momentum matrices, so the rank-1
generators are the standard Jx, Jy, Jz.

For J = 3/2 the fifteen generators are hard-coded in the conventional
symmetrized-product form (spin, quadrupole Qxy Qyz Qzx Dxy Y, octupole
Ta/Tb/Txyz).  For any other J they are built from normalized irreducible
tensor operators combined into Hermitian "cosine/sine" components; the order
within each rank (c1, s1, c2, s2, ..., diagonal last) is a convention of this
library, fixed so that rank 1 comes out as (Jx, Jy, Jz).  Each component of
rank d and magnetic band |q| is made orthogonal to the lower-rank components
of the same band; components of different bands are orthogonal by support.
The inner product tr(A^dagger B) is `np.vdot(A, B)`: one pass over the
entries, with no matrix product.

A spin-J multiplet (m = J ... -J and its raising ladder) is written once, in
`_multiplet`, and its three components once, in `_su2_components`:
`spin_matrices` and the class triples read them, and the tensor operators
build J+ from the multiplet's ladder.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonFiniteInput, NormalizationError, NotTraceless

HERMITIAN_TOL = 1e-12
TRACELESS_TOL = 1e-12


def _exact_int(value, what: str) -> int:
    """`value` as a Python int; a bool, a float or any other type is refused.

    Counts and indices are never truncated or rounded: N = 100.5 is not a
    particle number, and True is not 1.
    """
    if type(value) is int:  # the common case, first: class enumeration makes ~10^4 calls
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise InvalidInput(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """`value` as a float; a string, None, a complex or other non-number is refused, a NaN is not."""
    if type(value) is not float:  # a float, the common case, needs no check
        try:
            math.isfinite(value)  # takes what float() takes, strings aside
        except (TypeError, OverflowError) as exc:
            raise InvalidInput(f"{what} must be a real number, got {value!r}") from exc
    return float(value)


def _sequence(values, what: str) -> tuple:
    """`values` as a tuple: the one sequence rule of the library's inputs.

    Text and bytes (or a bytearray) are refused: they iterate to characters or to byte
    values, never to the numbers meant.  So is a number or any other non-iterable.
    """
    if type(values) is tuple:  # the common case, first: every class build reads its tuples here
        return values
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise InvalidInput(f"{what} must be a sequence, got {values!r}")


def _pair(values, what: str) -> tuple:
    """`values` as a tuple of length two, under the sequence rule."""
    pair = _sequence(values, what)
    if len(pair) != 2:
        raise InvalidInput(f"{what} must be a pair, got {values!r}")
    return pair


def _particle_count(n) -> int:
    """`n` as an exact int >= 1: the one refusal of a bad particle count N."""
    n = _exact_int(n, "particle count")
    if n < 1:
        raise InvalidInput(f"particle count must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class SpinQuantum:
    """Spin quantum number stored as 2J so half-integers stay exact."""

    twice_j: int

    def __post_init__(self) -> None:
        twice_j = _exact_int(self.twice_j, "twice_j")
        if twice_j < 0:
            raise InvalidInput(f"twice_j must be a non-negative integer, got {self.twice_j!r}")
        object.__setattr__(self, "twice_j", twice_j)

    @property
    def dim(self) -> int:
        """Dimension 2J+1 of the single-particle Hilbert space."""
        return self.twice_j + 1

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @classmethod
    def from_string(cls, text: str) -> "SpinQuantum":
        """Parse "3/2", "1", "1/2", ... into a SpinQuantum."""
        num, slash, den = text.strip().partition("/")
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            q = 0
        if q not in (1, 2):
            raise InvalidInput(f"spin must be a half-integer, got {text!r}")
        return cls(2 * p // q)

    def __str__(self) -> str:
        return half_integer_str(self.twice_j)


def half_integer_str(twice_value: int) -> str:
    """Render 2x as "x" for integers and "p/2" otherwise."""
    if twice_value % 2 == 0:
        return str(twice_value // 2)
    return f"{twice_value}/2"


def norm_squared(j: SpinQuantum) -> float:
    """Common squared trace norm J(J+1)(2J+1)/3 of every generator."""
    return _norm_squared(j.twice_j)


def _norm_squared(twice_j: int) -> float:
    """`norm_squared` of the spin twice_j / 2, from the bare int: no SpinQuantum is built."""
    return twice_j * (twice_j + 2) * (twice_j + 1) / 12.0


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix; the workhorse value type.

    The entries are validated against Hermiticity at construction and the
    array is frozen, so instances can be shared freely.  A NaN or infinite
    entry is refused as NonFiniteInput before the deviation is formed, where
    inf - inf would make numpy warn.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if np.count_nonzero(np.isfinite(m)) != m.size:  # half the cost of .all() on small matrices
            raise NonFiniteInput("matrix has a non-finite entry")
        dev = abs(m - m.conj().T).max() if m.size else 0.0
        if not dev <= HERMITIAN_TOL:
            raise InvalidInput(f"matrix is not Hermitian (deviation {dev:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered basis of the 4J(J+1) traceless generators for one J."""

    j: SpinQuantum
    generators: tuple[HermitianOperator, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        expected = self.j.dim**2 - 1
        if len(self.generators) != expected:
            raise DimensionMismatch(
                f"expected {expected} generators for 2J={self.j.twice_j}, got {len(self.generators)}"
            )
        if len(self.names) != len(self.generators):
            raise DimensionMismatch("one name per generator required")
        for name, g in zip(self.names, self.generators):
            if g.dim != self.j.dim:
                raise DimensionMismatch(f"generator {name} has dim {g.dim} != {self.j.dim}")
            if abs(np.trace(g.matrix)) > TRACELESS_TOL:
                raise NotTraceless(f"generator {name} has trace {np.trace(g.matrix):.3e}")

    def __len__(self) -> int:
        return len(self.generators)

    def matrices(self) -> list[np.ndarray]:
        return [g.matrix for g in self.generators]


# A matrix is diagonal when `_off_diagonal` reads at most this: the one rule of Su2Triple's
# frame (the oracle's NotDiagonal reads `framed`) and of the Cartan set.  Every basis
# generator reads 0 or >= 0.5.
DIAGONAL_TOL = 1e-12


def _off_diagonal(m: np.ndarray) -> float | np.ndarray:
    """Largest modulus off the main diagonal, read against DIAGONAL_TOL.

    `m` may be a stack of square matrices (..., d, d): then one maximum per matrix.
    """
    d = m.shape[-1]
    a = abs(m).reshape(*m.shape[:-2], d * d)  # a view, or a copy if abs kept a transposed layout
    a[..., :: d + 1] = 0.0
    return a.max(axis=-1)


@lru_cache(maxsize=None)
def _multiplet(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin-J multiplet m = J ... -J and its raising ladder, read-only.

    ladder[i] = <m+1|J+|m> = sqrt(J(J+1) - m(m+1)) for m = m[i+1], the lower
    level of each adjacent pair.  Cached: every class triple reads its
    blocks' multiplets twice, once to build and once to check.
    """
    jj = twice_j / 2.0
    m = jj - np.arange(twice_j + 1)
    ladder = np.sqrt(jj * (jj + 1) - m[1:] * (m[1:] + 1))
    m.setflags(write=False)
    ladder.setflags(write=False)
    return m, ladder


def _su2_components(m: np.ndarray, ladder: np.ndarray, f: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f times (the Hermitian half of J+, its anti-Hermitian half, diag m), J+ = diag(ladder, 1).

    Written straight onto the three diagonals, bit for bit the entries of
    f * ((J+ + J-) / 2), f * ((J+ - J-) / 2i) and f * diag(m), signed zeros included.
    """
    d = len(m)
    o1, o2, o3 = (np.zeros(d * d, dtype=complex) for _ in range(3))  # flat: entry (r, c) at r * d + c
    up, down = slice(1, None, d + 1), slice(d, None, d + 1)  # the superdiagonal and the subdiagonal
    half = f * (ladder / 2)
    o1[up] = o1[down] = half
    o2.imag[up], o2.imag[down] = 0.0 - half, half  # 0.0 - half, not -half: +0.0 where the ladder is zero
    o3[:: d + 1] = f * m
    return o1.reshape(d, d), o2.reshape(d, d), o3.reshape(d, d)


def spin_matrices(j: SpinQuantum) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Standard angular-momentum matrices (Jx, Jy, Jz) in the |J, m_z> basis.

    Basis states are ordered m_z = J, J-1, ..., -J, so Jz is diagonal with
    entries J ... -J and [Jx, Jy] = i Jz.
    """
    if j.twice_j < 1:
        raise InvalidInput(f"spin matrices need 2J >= 1, got 2J = {j.twice_j}")
    jx, jy, jz = _su2_components(*_multiplet(j.twice_j), 1.0)
    return HermitianOperator(jx), HermitianOperator(jy), HermitianOperator(jz)


def _tensor_components(j: SpinQuantum) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Yield (rank, normalized irreducible tensor operators T_{rank,q} for q = rank..0), rank = 2..2J.

    T_{rank,rank} is (-1)^rank (J+)^rank scaled to unit trace norm, with
    J+ = diag(ladder, 1) built once and its power carried from rank to rank;
    lower q follow from the ladder recursion
        T_{d,q-1} = [J-, T_{d,q}] / sqrt((d+q)(d-q+1)),
    which keeps the family orthonormal under tr(A^dagger B).
    """
    jp = np.diag(_multiplet(j.twice_j)[1].astype(complex), 1)
    jm = jp.conj().T
    power = jp
    for rank in range(2, j.twice_j + 1):
        power = power @ jp
        t = power * (-1.0) ** rank
        t = t / np.linalg.norm(t)
        comps = [t]
        for q in range(rank, 0, -1):
            t = (jm @ t - t @ jm) / math.sqrt((rank + q) * (rank - q + 1))
            comps.append(t)
        yield rank, comps  # comps[i] holds q = rank - i


def _general_multipoles(j: SpinQuantum) -> tuple[list[np.ndarray], list[str]]:
    """Construct the full generator list for arbitrary J.

    Rank 1 is the spin vector verbatim.  Each higher rank d contributes the
    Hermitian combinations c_q, s_q (q = 1..d) and the diagonal q = 0
    component, ordered (c1, s1, ..., cd, sd, diagonal).  Every matrix is
    projected against the lower-rank matrices of its magnetic band |q| and
    rescaled to the common trace norm.  In exact arithmetic the tensor
    operators are already orthogonal, but not in floats: without the
    projection the generators move by up to 3.8e-13 at 2J = 14.  Matrices
    of different bands live on different diagonals, so they are orthogonal
    by support and need no projection.
    """
    scale = math.sqrt(norm_squared(j))
    jx, jy, jz = spin_matrices(j)
    mats = [jx.matrix.copy(), jy.matrix.copy(), jz.matrix.copy()]
    names = ["Jx", "Jy", "Jz"]
    bands: dict[int, list[np.ndarray]] = {1: mats[:2], 0: mats[2:]}
    for rank, comps in _tensor_components(j):
        block: list[tuple[int, np.ndarray]] = []
        for q in range(1, rank + 1):
            t = comps[rank - q]
            sign = (-1.0) ** q
            block.append((q, sign * (t + t.conj().T) / math.sqrt(2)))
            block.append((q, sign * (t - t.conj().T) / (1j * math.sqrt(2))))
            names.extend([f"T{rank}c{q}", f"T{rank}s{q}"])
        block.append((0, comps[rank]))  # q = 0, diagonal
        names.append(f"T{rank}z")
        for q, m in block:
            # Gram-Schmidt against the band's accepted matrices, tr(A^dagger B) = vdot(A, B),
            # then renormalize.
            band = bands.setdefault(q, [])
            for prev in band:
                m -= (np.vdot(prev, m) / np.vdot(prev, prev)) * prev
            m *= scale / np.linalg.norm(m)
            band.append(m)
            mats.append(m)
    return mats, names


_SQ3 = math.sqrt(3.0)
_SQ5 = math.sqrt(5.0)


def _golden_spin32() -> tuple[list[np.ndarray], list[str]]:
    """The fifteen spin-3/2 generators in their conventional printed form."""
    jx = 0.5 * np.array(
        [[0, _SQ3, 0, 0], [_SQ3, 0, 2, 0], [0, 2, 0, _SQ3], [0, 0, _SQ3, 0]], dtype=complex
    )
    jy = 0.5j * np.array(
        [[0, -_SQ3, 0, 0], [_SQ3, 0, -2, 0], [0, 2, 0, -_SQ3], [0, 0, _SQ3, 0]], dtype=complex
    )
    jz = 0.5 * np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex)
    qxy = 0.5j * _SQ5 * np.array(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    qyz = 0.5j * _SQ5 * np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    qzx = 0.5 * _SQ5 * np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], dtype=complex
    )
    dxy = 0.5 * _SQ5 * np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    y = 0.5 * _SQ5 * np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    tax = 0.25 * np.array(
        [[0, -_SQ3, 0, 5], [-_SQ3, 0, 3, 0], [0, 3, 0, -_SQ3], [5, 0, -_SQ3, 0]], dtype=complex
    )
    tay = 0.25j * np.array(
        [[0, _SQ3, 0, 5], [-_SQ3, 0, -3, 0], [0, 3, 0, _SQ3], [-5, 0, -_SQ3, 0]], dtype=complex
    )
    taz = 0.5 * np.diag([1.0, -3.0, 3.0, -1.0]).astype(complex)
    tbx = 0.25 * _SQ5 * np.array(
        [[0, -1, 0, -_SQ3], [-1, 0, _SQ3, 0], [0, _SQ3, 0, -1], [-_SQ3, 0, -1, 0]], dtype=complex
    )
    tby = 0.25j * _SQ5 * np.array(
        [[0, -1, 0, _SQ3], [1, 0, _SQ3, 0], [0, -_SQ3, 0, -1], [-_SQ3, 0, 1, 0]], dtype=complex
    )
    tbz = 0.5 * _SQ5 * np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    txyz = 0.5j * _SQ5 * np.array(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    mats = [jx, jy, jz, qxy, qyz, qzx, dxy, y, tax, tay, taz, tbx, tby, tbz, txyz]
    names = ["Jx", "Jy", "Jz", "Qxy", "Qyz", "Qzx", "Dxy", "Y", "Tax", "Tay", "Taz", "Tbx", "Tby", "Tbz", "Txyz"]
    return mats, names


@lru_cache(maxsize=None)
def _multipole_basis_cached(twice_j: int) -> GeneratorSet:
    j = SpinQuantum(twice_j)
    if twice_j == 3:
        mats, names = _golden_spin32()
    else:
        mats, names = _general_multipoles(j)
    return GeneratorSet(j, tuple(HermitianOperator(m) for m in mats), tuple(names))


def multipole_basis(j: SpinQuantum) -> GeneratorSet:
    """Complete ordered generator set for spin J.

    The first three generators are always (Jx, Jy, Jz); the remaining ones
    follow rank by rank (quadrupole, octupole, ...).  For J = 3/2 the exact
    conventional matrices are returned.
    """
    if j.twice_j < 1:
        raise InvalidInput(f"generator sets need 2J >= 1, got 2J = {j.twice_j}")
    return _multipole_basis_cached(j.twice_j)


def expand_observable(basis: GeneratorSet, coeffs) -> HermitianOperator:
    """Build sum_k v_k g_k from a unit-norm real coefficient vector."""
    v = np.asarray(coeffs, dtype=float)
    if v.shape != (len(basis),):
        raise DimensionMismatch(f"expected {len(basis)} coefficients, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("coefficients must be finite, got a NaN or an infinity")
    total = float(np.sum(v * v))
    if abs(total - 1.0) > 1e-12:
        raise NormalizationError(f"coefficients have squared norm {total!r}, expected 1")
    acc = np.zeros((basis.j.dim, basis.j.dim), dtype=complex)
    for vk, g in zip(v, basis.generators):
        if vk != 0.0:
            acc += vk * g.matrix
    return HermitianOperator(acc)


def expansion_coefficients(basis: GeneratorSet, op: HermitianOperator) -> np.ndarray:
    """Coefficients v_k = tr(op g_k) / ||g||^2; inverse of expand_observable."""
    if op.dim != basis.j.dim:
        raise DimensionMismatch(f"operator dim {op.dim} != basis dim {basis.j.dim}")
    tr = complex(np.trace(op.matrix))
    if abs(tr) > 1e-9:
        raise NotTraceless(f"operator has trace {tr:.3e}")
    k2 = norm_squared(basis.j)
    return np.array([np.trace(op.matrix @ g.matrix).real / k2 for g in basis.generators])


def commutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Hermitian commutator -i[a, b]."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")
    m = a.matrix @ b.matrix - b.matrix @ a.matrix
    return HermitianOperator(-1j * m)
