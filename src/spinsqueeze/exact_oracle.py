"""Exact symmetric-subspace simulation of N spin-J particles.

Ground truth for the closed-form dynamics: states live in the
(2J+1)-mode bosonic Fock space at fixed particle number N (dimension
C(N+2J, 2J)), single-particle observables are second-quantized to sparse
collective operators, and one-axis twisting is a diagonal phase evolution.
There is one twisting generator, `sector_twist_diagonal`: each irreducible
block is twisted by the square of its own collective O3, as in the closed
form.  The transverse extrema and xi^2 come from the same helpers as the
closed form, and `compare_with_oracle` holds the one analytic-vs-oracle rule.
Every call takes each fact once: N from the basis (or workspace), the class
from the triple, and only the weights and angles from a `CoherentSpec`.

All of it is array code; no Python loop runs over basis states.

- The basis is a (size, modes) integer occupation array in lexicographic
  order, generated by stars and bars.
- `second_quantize` loops over the nonzero mode pairs (a, b) of the
  single-particle matrix, reading each hop off the holder lists (the rows
  with a particle in each mode, taken once).  Moving one boson b -> a sends
  the k-th holder of mode b to the k-th holder of mode a: adding the fixed
  vector e_a - e_b keeps lexicographic order, and it maps the rows with
  n_b >= 1 one to one onto the rows with n_a >= 1.  `_hops` lists these
  runs of (rows, cols, values) once, for `second_quantize` and the
  workspace alike.
- Coherent amplitudes are exp(log multinomial / 2 + occ @ log|psi|) with
  phase occ @ arg(psi); the multinomial term is computed once per basis and
  each block's rotated state is the closed-form binomial vector.
- `OracleWorkspace` reads the triple as one su(2) ladder.  It assembles
  one (2 size x size) CSR matrix [Lambda+; Lambda-] from the hops of
  Lambda+ = O1 + i O2 (Lambda- = Lambda+^dagger is the same hops swapped
  and conjugated), and Lambda3 is the vector occ @ diag(O3).  A point costs
  one sparse matrix-vector product, over the nonzeros of one collective O1,
  and three inner products of the ladder images.  The twisting phases come
  from a table of the distinct twist values.  Coherent states are cached
  per `CoherentSpec` with their `EnsembleSpec` and their O3 mean and
  variance, which twisting leaves unchanged, at most COHERENT_CACHE_SIZE
  of them per workspace (least recently used evicted), because twisting
  only multiplies the cached state by a diagonal phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .classification import Su2Triple
from .coherent_dynamics import CoherentSpec, EnsembleSpec, SqueezeTrace, _check_weight_count, _trace, squeeze_trace
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NormalizationError,
    NotDiagonal,
    SizeLimit,
)
from .lie_algebra import HermitianOperator, SpinQuantum, _particle_count, _real, _sequence

if TYPE_CHECKING:
    import scipy.sparse as sp

BASIS_SIZE_LIMIT = 5_000_000
NORM_TOL = 1e-10
# Coherent states kept per OracleWorkspace; a zeta sweep beyond this evicts
# the least recently used spec instead of growing the workspace.
COHERENT_CACHE_SIZE = 8


def _lex_compositions(total: int, slots: int) -> np.ndarray:
    """All occupation rows of length `slots` summing to `total`, lex order.

    Stars and bars, one bin at a time: a prefix with r stars left expands to
    r + 1 consecutive children holding 0..r in the next bin, which keeps the
    rows lexicographic; the last bin takes the remainder.  Each level keeps
    only its values and parent links, and the columns are read back from the
    leaves, so no prefix row is copied.
    """
    levels = []
    left = np.array([total], dtype=np.int64)
    for _ in range(slots - 1):
        counts = left + 1
        parent = np.repeat(np.arange(left.size), counts)
        value = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        levels.append((parent, value))
        left = left[parent] - value
    states = np.empty((left.size, slots), dtype=np.int64)
    states[:, -1] = left
    row = np.arange(left.size)
    for k in range(slots - 2, -1, -1):
        parent, value = levels[k]
        states[:, k] = value[row]
        row = parent[row]
    return states


@dataclass(frozen=True)
class FockBasis:
    """Ordered occupation-number basis of the N-particle symmetric subspace.

    `states` holds one occupation row per basis state in lexicographic
    order, so moving one particle b -> a (adding e_a - e_b, which keeps that
    order) sends the k-th row holding mode b to the k-th row holding mode a.
    """

    n: int
    modes: int
    states: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @cached_property
    def float_states(self) -> np.ndarray:
        """`states` as float64, for products with single-particle vectors."""
        occ = self.states.astype(float)
        occ.setflags(write=False)
        return occ

    @cached_property
    def half_log_multinomial(self) -> np.ndarray:
        """log sqrt(N! / prod_k occ_k!) per state."""
        from scipy.special import gammaln

        log_fact = gammaln(np.arange(self.n + 1) + 1.0)
        return 0.5 * (log_fact[self.n] - log_fact[self.states].sum(axis=1))


def build_basis(n: int, j: SpinQuantum) -> FockBasis:
    """Complete occupation basis for N particles with 2J+1 sublevels each."""
    n = _particle_count(n)
    modes = j.dim
    size = math.comb(n + modes - 1, modes - 1)
    if size > BASIS_SIZE_LIMIT:
        raise SizeLimit(f"basis would hold {size} states (limit {BASIS_SIZE_LIMIT})")
    states = _lex_compositions(n, modes)
    states.setflags(write=False)
    return FockBasis(n, modes, states)


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitude vector over a Fock basis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise DimensionMismatch(f"amplitudes shape {amps.shape} != basis size {self.basis.size}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"state norm^2 = {norm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _hops(m: np.ndarray, basis: FockBasis) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzeros of sum_{ab} m_ab c+_a c_b as runs of (rows, cols, values).

    The first run is the diagonal occ @ diag(m) where it is nonzero; each
    nonzero off-diagonal pair (a, b) adds one run that moves a particle
    b -> a with weight m_ab sqrt(n_b (n_a + 1)).  The k-th row holding mode b
    lands on the k-th row holding mode a: adding e_a - e_b keeps
    lexicographic order and maps the one set of rows onto the other.  No run
    repeats a row or a column.
    """
    occ = basis.float_states
    diag = occ @ np.diagonal(m)
    keep = np.flatnonzero(diag)
    runs = [(keep, keep, diag[keep])]
    holders = [np.flatnonzero(basis.states[:, k]) for k in range(basis.modes)]
    for a, b in zip(*np.nonzero(m)):
        if a == b:
            continue
        src, dst = holders[b], holders[a]
        runs.append((dst, src, m[a, b] * np.sqrt(occ[src, b] * (occ[src, a] + 1.0))))
    return runs


def _quantize(m: np.ndarray, basis: FockBasis) -> sp.csr_matrix:
    """CSR matrix of sum_{ab} m_ab c+_a c_b for any single-particle matrix m, from its `_hops`."""
    # scipy is imported where the oracle uses it: at module level, scipy.sparse
    # and .special add 28 MB of resident memory to every import.
    import scipy.sparse as sp

    rows, cols, vals = (np.concatenate(part) for part in zip(*_hops(m, basis)))
    return sp.coo_matrix((vals, (rows, cols)), shape=(basis.size, basis.size)).tocsr()


def _stacked_ladder(m: np.ndarray, basis: FockBasis) -> sp.csr_matrix:
    """The (2 size x size) CSR matrix [L; L^dagger] of L = sum_{ab} m_ab c+_a c_b.

    L^dagger's runs are L's `_hops` with rows and columns swapped and values
    conjugated, its rows offset by the basis size.  No run repeats a row, so
    each run fills its own slot of every row it reaches, in a table of one
    row per matrix row and one slot per run; no hop value is zero, so
    dropping the zeros of the unfilled slots leaves the CSR matrix, with
    each row's entries in run order.
    """
    import scipy.sparse as sp

    size = basis.size
    runs = [run for run in _hops(m, basis) if run[0].size]
    width = len(runs)
    index = np.int32 if 2 * size * width <= np.iinfo(np.int32).max else np.int64
    data = np.zeros((2, size, width), dtype=complex)
    indices = np.zeros((2, size, width), dtype=index)
    for slot, (rows, cols, vals) in enumerate(runs):
        data[0, rows, slot] = vals
        indices[0, rows, slot] = cols
        data[1, cols, slot] = vals
        indices[1, cols, slot] = rows
    np.conjugate(data[1], out=data[1])
    indptr = np.arange(0, 2 * size * width + 1, width, dtype=index)
    ladder = sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(2 * size, size))
    ladder.eliminate_zeros()
    return ladder


def second_quantize(op: HermitianOperator, basis: FockBasis) -> sp.csr_matrix:
    """Collective operator sum_{mn} op_mn c+_m c_n as a CSR matrix on the occupation basis."""
    if op.dim != basis.modes:
        raise DimensionMismatch(f"operator dim {op.dim} != mode count {basis.modes}")
    return _quantize(op.matrix, basis)


def _check_frame(triple: Su2Triple, basis: FockBasis) -> None:
    """The oracle's one entry check: a basis of the triple's 2J, then a triple whose O3 is diagonal.

    The oracle reads O3's diagonal alone and writes each block's state on its own levels,
    so a triple `Su2Triple` did not find framed (a rotated one, say) is refused, not read.
    """
    if triple.j.dim != basis.modes:
        raise DimensionMismatch(f"triple dim {triple.j.dim} != mode count {basis.modes}")
    if not triple.framed:
        raise NotDiagonal("O3 has off-diagonal weight; the oracle's states and twisting phases are undefined")


def _single_particle_vector(triple: Su2Triple, coherent: CoherentSpec) -> np.ndarray:
    """zeta-weighted direct sum of rotated highest-weight block states.

    Each block holds exp(theta/2 (e^(i phi) J- - e^(-i phi) J+)) |s, s> in
    closed form: sqrt(C(2s, k)) cos(theta/2)^(2s-k) sin(theta/2)^k e^(i k phi)
    at m = s - k, k = 0..2s.
    """
    cos, sin = math.cos(coherent.theta / 2.0), math.sin(coherent.theta / 2.0)
    psi = np.zeros(triple.j.dim, dtype=complex)
    for (off, twice_sub), zeta in zip(triple.blocks, coherent.zeta):
        k = np.arange(twice_sub + 1)
        root_binom = np.sqrt([math.comb(twice_sub, i) for i in range(twice_sub + 1)])
        rotated = root_binom * cos ** (twice_sub - k) * sin**k * np.exp(1j * coherent.phi * k)
        psi[off : off + twice_sub + 1] = zeta * rotated
    return psi


def coherent_state(triple: Su2Triple, basis: FockBasis, coherent: CoherentSpec) -> SymmetricState:
    """Symmetric product state psi^(x)N, with N from the basis and the class from the triple.

    The single-particle state is the block direct sum of rotated
    highest-weight states weighted by zeta_l (one weight per subspace);
    N-particle amplitudes carry the multinomial square roots.  Magnitudes are
    accumulated in the log domain so large N stays finite; states that occupy
    a mode where psi vanishes get amplitude zero.  Each block's state is
    written on its levels of the m_z basis, so a triple whose O3 is not
    diagonal (not `framed`) is refused with NotDiagonal, as is a basis of
    another 2J with DimensionMismatch: a rotated triple's state would be the
    unrotated one, with a plausible wrong mean spin.
    """
    _check_frame(triple, basis)
    _check_weight_count(triple.decomposition, coherent)
    psi = _single_particle_vector(triple, coherent)
    live = psi != 0
    log_mag = np.zeros(basis.modes)
    log_mag[live] = np.log(np.abs(psi[live]))
    occ = basis.float_states
    amps = np.exp(basis.half_log_multinomial + occ @ log_mag + 1j * (occ @ np.angle(psi)))
    if not live.all():
        amps[occ[:, ~live].any(axis=1)] = 0.0
    return SymmetricState(basis, amps)


def expectation(state: SymmetricState, op: sp.csr_matrix) -> float:
    """<psi|A|psi> for Hermitian A (real part taken as the symmetrization guard)."""
    if op.shape != (state.basis.size,) * 2:
        raise DimensionMismatch(f"operator shape {op.shape} != basis size {state.basis.size}")
    return float(np.real(np.vdot(state.amplitudes, op @ state.amplitudes)))


def variance(state: SymmetricState, op: sp.csr_matrix) -> float:
    """<A^2> - <A>^2 computed as |A psi|^2 - <psi|A psi>^2 (exact for Hermitian A)."""
    if op.shape != (state.basis.size,) * 2:
        raise DimensionMismatch(f"operator shape {op.shape} != basis size {state.basis.size}")
    w = op @ state.amplitudes
    second = float(np.real(np.vdot(w, w)))
    first = float(np.real(np.vdot(state.amplitudes, w)))
    return second - first * first


def sector_twist_diagonal(triple: Su2Triple, basis: FockBasis) -> np.ndarray:
    """Diagonal of sum_l (Lambda_{l,3})^2, the per-subspace twisting generator.

    Squaring the total collective O3 would add cross-subspace terms
    2 Lambda_{l,3} Lambda_{l',3}; the closed-form dynamics twist each
    irreducible block by the square of its own collective component, so the
    oracle does the same.  Both generators coincide whenever at most one
    subspace has J_l > 0.  Only the diagonal of O3 is read, so a triple that
    `Su2Triple` did not find framed is refused with NotDiagonal, and a basis of
    another 2J with DimensionMismatch, by the check `coherent_state` makes.
    """
    _check_frame(triple, basis)
    diag3 = np.real(np.diagonal(triple.o3.matrix))
    occ = basis.float_states
    total = np.zeros(basis.size)
    for off, twice_sub in triple.blocks:
        if twice_sub == 0:
            continue
        block = slice(off, off + twice_sub + 1)
        total += (occ[:, block] @ diag3[block]) ** 2
    return total


# A workspace's cache entry per spec: (coherent state, ensemble, <O3>, Var(O3)).
_Entry = tuple[SymmetricState, EnsembleSpec, float, float]


class OracleWorkspace:
    """Cached operators for repeated oracle evaluations of one (class, N) pair.

    The triple is read as one su(2) ladder: the workspace second-quantizes
    Lambda+ = O1 + i O2 once, stacked over its conjugate transpose Lambda-
    as one (2 size x size) CSR matrix, takes Lambda3 as the vector
    occ @ diag(O3), and tabulates the distinct values of the twisting
    diagonal.  A (zeta, mu) point then costs one exp per distinct twist
    value, one sparse matrix-vector product over the nonzeros of O1 and
    three inner products.  The coherent state of each spec, the ensemble
    `_trace` reads, and the state's O3 mean and variance (twisting, diagonal
    in Lambda3's basis, leaves both unchanged) are computed once and kept
    until COHERENT_CACHE_SIZE other specs have been used after it.
    """

    def __init__(self, triple: Su2Triple, n: int):
        self.triple = triple
        self.basis = build_basis(n, triple.j)
        self.n = self.basis.n
        twist_sq = sector_twist_diagonal(triple, self.basis)
        self._twist_values, self._twist_index = np.unique(twist_sq, return_inverse=True)
        self._ladder = _stacked_ladder(triple.o1.matrix + 1j * triple.o2.matrix, self.basis)
        self._lam3 = self.basis.float_states @ np.real(np.diagonal(triple.o3.matrix))
        self._f = triple.decomposition.f
        self._coherent: dict[CoherentSpec, _Entry] = {}

    def _cached(self, coherent_spec: CoherentSpec) -> _Entry:
        """The spec's cache entry, built once while the spec stays cached.

        The ensemble is built first, and refuses a weight count off r.
        """
        entry = self._coherent.pop(coherent_spec, None)
        if entry is None:
            ensemble = EnsembleSpec(self.n, self.triple.decomposition, coherent_spec)
            state = coherent_state(self.triple, self.basis, coherent_spec)
            w3 = self._lam3 * state.amplitudes
            mean3 = float(np.vdot(state.amplitudes, w3).real)
            entry = (state, ensemble, mean3, float(np.vdot(w3, w3).real) - mean3 * mean3)
            if len(self._coherent) >= COHERENT_CACHE_SIZE:
                del self._coherent[next(iter(self._coherent))]
        self._coherent[coherent_spec] = entry  # most recently used last
        return entry

    def coherent(self, coherent_spec: CoherentSpec) -> SymmetricState:
        return self._cached(coherent_spec)[0]

    def _twisted_amplitudes(self, coherent_spec: CoherentSpec, mu) -> tuple[np.ndarray, _Entry, float]:
        """Coherent amplitudes twisted to mu, with the spec's cache entry and mu as a float.

        Any finite real mu, negative included, is valid; mu is read before the
        coherent state is looked up or built.
        """
        mu = _real(mu, "mu")
        phases = np.exp(-1j * mu / (2.0 * self._f * self._f) * self._twist_values)
        entry = self._cached(coherent_spec)
        return entry[0].amplitudes * phases.take(self._twist_index), entry, mu

    def squeezing(self, coherent_spec: CoherentSpec, mu: float) -> SqueezeTrace:
        """Transverse moments of the twisted state, minimized over nu exactly.

        The variance of O_2 cos(nu) - O_3 sin(nu) is
        v33 + P (1 + cos 2 nu) - Q sin 2 nu, with v33 the O_3 variance, P half
        the difference of the O_2 and O_3 variances and Q their covariance;
        the closed form's `_trace` finishes the record.
        One product with the stacked ladder gives u = Lambda+ psi and
        d = Lambda- psi, and e = u - d = 2i O_2 psi.  With the cached O_3
        moments, three inner products give the rest:
        <Lambda+> = <psi|u> = <O1> + i <O2>, Var(O2) = |e|^2 / 4 - <O2>^2,
        and Cov(O2, O3) = Re <O2 psi|O3 psi> - <O2><O3>
        = -Im <e|Lambda3 psi> / 2 - <O2><O3>.
        """
        amps, (_, spec, mean3, v33), mu = self._twisted_amplitudes(coherent_spec, mu)
        ud = self._ladder @ amps
        u, d = ud[: amps.size], ud[amps.size :]
        e = u - d
        plus = complex(np.vdot(amps, u))
        mean1, mean2 = plus.real, plus.imag
        v22 = float(np.vdot(e, e).real) / 4.0 - mean2 * mean2
        c23 = -float(np.vdot(e, self._lam3 * amps).imag) / 2.0 - mean2 * mean3
        return _trace(spec, mu, mean1, v33, 0.5 * (v22 - v33), c23)


@dataclass(frozen=True)
class OracleComparison:
    """The (analytic, oracle) trace at every mu and the worst discrepancy of each quantity.

    Absolute in the mean spin and both extremal variances, relative to
    max(1, |oracle xi^2|) in xi^2.  xi^2 is left out, and counted in
    `guarded`, where either side reads inf, the closed form's rule for a
    collapsed mean.  A NaN discrepancy anywhere makes its worst NaN.
    """

    pairs: tuple[tuple[SqueezeTrace, SqueezeTrace], ...] = field(repr=False)
    perp_expectation: float
    var_min: float
    var_max: float
    xi2: float
    guarded: int

    @property
    def worst(self) -> float:
        return float(np.max([self.perp_expectation, self.var_min, self.var_max, self.xi2]))  # NaN propagates


def compare_with_oracle(workspace: OracleWorkspace, coherent: CoherentSpec, mus) -> OracleComparison:
    """Closed form at the workspace's N and class against its oracle; an empty grid is refused."""
    spec = EnsembleSpec(workspace.n, workspace.triple.decomposition, coherent)
    mus = [_real(mu, "mu") for mu in _sequence(mus, "the mu grid")]
    if not mus:
        raise InvalidInput("the mu grid is empty")
    pairs = tuple((squeeze_trace(spec, mu), workspace.squeezing(coherent, mu)) for mu in mus)
    xi2 = [
        abs(a.xi2 - o.xi2) / max(1.0, abs(o.xi2))
        for a, o in pairs
        if not (math.isinf(a.xi2) or math.isinf(o.xi2))
    ]
    # np.max propagates NaN, unlike the builtin max
    diffs = [(a.perp_expectation - o.perp_expectation, a.var_min - o.var_min, a.var_max - o.var_max)
             for a, o in pairs]
    perp, var_min, var_max = np.max(np.abs(diffs), axis=0).tolist()
    worst_xi2 = float(np.max(xi2, initial=0.0))
    return OracleComparison(pairs, perp, var_min, var_max, worst_xi2, len(pairs) - len(xi2))
