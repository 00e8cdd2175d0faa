"""The array oracle against the implementations it replaced.

The reference functions below are the loop versions of the basis
enumeration, second quantization and coherent-state expansion, the matrix
exponential that rotated each block's highest-weight state, and the
three-operator moments that second-quantized O1, O2 and O3 separately.
The code in `spinsqueeze.exact_oracle` is compared with them: basis rows
and ranks exactly, operator entries to 1e-12 of the largest entry,
amplitudes to 1e-12, single-particle vectors to 1e-14, twisted amplitudes
exactly, and moments to 1e-12.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinsqueeze import (
    CoherentSpec,
    OracleWorkspace,
    SpinQuantum,
    VertexSubset,
    build_basis,
    build_su2_triple,
    canonical_subset,
    enumerate_classes,
)
from spinsqueeze.coherent_dynamics import EnsembleSpec, _extrema, _xi2
from spinsqueeze.exact_oracle import (
    COHERENT_CACHE_SIZE,
    _quantize,
    _single_particle_vector,
    _stacked_ladder,
    coherent_state,
    second_quantize,
    sector_twist_diagonal,
)
from spinsqueeze.lie_algebra import HermitianOperator, spin_matrices

from observables import twisted

OP_TOL = 1e-12
AMP_TOL = 1e-12
VECTOR_TOL = 1e-14
MOMENT_TOL = 1e-12
XI2_REL_TOL = 1e-9


def reference_compositions(total: int, slots: int):
    """All occupation tuples of length `slots` summing to `total`, lex order."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in reference_compositions(total - head, slots - 1):
            yield (head,) + tail


def reference_column(m: np.ndarray, occ: tuple[int, ...], index: dict) -> dict[int, complex]:
    """Column of sum_{ab} m_ab c+_a c_b at one occupation state, as {row: value}."""
    modes = len(occ)
    column = {}
    d = float(np.dot(np.real(np.diagonal(m)), occ))
    if d != 0.0:
        column[index[occ]] = d
    for a in range(modes):
        for b in range(modes):
            if a == b or m[a, b] == 0 or occ[b] == 0:
                continue
            target = list(occ)
            target[b] -= 1
            target[a] += 1
            column[index[tuple(target)]] = m[a, b] * math.sqrt(occ[b] * (occ[a] + 1))
    return column


def reference_amplitude(psi: np.ndarray, n: int, occ: tuple[int, ...]) -> complex:
    """<occ| psi^(x)N> with the multinomial square root, in the log domain."""
    log_amp = 0.5 * (math.lgamma(n + 1) - sum(math.lgamma(k + 1) for k in occ))
    arg = 0.0
    for value, k in zip(psi, occ):
        if k == 0:
            continue
        if value == 0:
            return 0j
        log_amp += k * math.log(abs(value))
        arg += k * np.angle(value)
    return math.exp(log_amp) * complex(math.cos(arg), math.sin(arg))


def reference_single_particle_vector(triple, coherent: CoherentSpec) -> np.ndarray:
    """Each block's highest-weight column of exp(theta/2 (e^(i phi) J- - e^(-i phi) J+)), times zeta."""
    psi = np.zeros(triple.j.dim, dtype=complex)
    for (off, twice_sub), zeta in zip(triple.blocks, coherent.zeta):
        if twice_sub == 0:
            psi[off] = zeta
            continue
        jx, jy, _ = spin_matrices(SpinQuantum(twice_sub))
        plus = jx.matrix + 1j * jy.matrix
        gen = -(coherent.theta / 2.0) * (
            np.exp(-1j * coherent.phi) * plus - np.exp(1j * coherent.phi) * plus.conj().T
        )
        psi[off : off + twice_sub + 1] = zeta * expm(gen)[:, 0]
    return psi


def reference_squeezing(ws, coherent: CoherentSpec, mu: float):
    """Twisted amplitudes and (mean, var_min, var_max, xi^2) from O1, O2 and O3 quantized separately."""
    triple = ws.triple
    f = triple.decomposition.f
    phases = np.exp(-1j * mu / (2.0 * f * f) * sector_twist_diagonal(triple, ws.basis))
    amps = ws.coherent(coherent).amplitudes * phases
    w1, w2, w3 = (second_quantize(op, ws.basis) @ amps for op in (triple.o1, triple.o2, triple.o3))
    mean1, mean2, mean3 = (float(np.real(np.vdot(amps, w))) for w in (w1, w2, w3))
    v22 = float(np.real(np.vdot(w2, w2))) - mean2 * mean2
    v33 = float(np.real(np.vdot(w3, w3))) - mean3 * mean3
    c23 = float(np.real(np.vdot(w2, w3))) - mean2 * mean3
    var_min, var_max, _ = _extrema(v33, 0.5 * (v22 - v33), c23)
    spec = EnsembleSpec(ws.n, triple.decomposition, coherent)
    return amps, (mean1, var_min, var_max, _xi2(spec, mean1, var_min))


def random_hermitian(dim: int, rng, pairs: int | None = None) -> np.ndarray:
    """Complex Hermitian matrix; dense, or with `pairs` random off-diagonal couplings."""
    if pairs is None:
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    else:
        m = np.diag(rng.normal(size=dim)).astype(complex)
        m[0, dim - 1] = 0.7 - 0.4j  # the farthest pair
        for _ in range(pairs):
            a, b = rng.choice(dim, 2, replace=False)
            m[a, b] = complex(*rng.normal(size=2))
    return 0.5 * (m + m.conj().T)


def check_operator(m: np.ndarray, basis, ref_rows, index, columns) -> None:
    action = second_quantize(HermitianOperator(m), basis).tocsc()
    scale = np.max(np.abs(action.data))
    for col in columns:
        want = reference_column(m, ref_rows[col], index)
        span = slice(action.indptr[col], action.indptr[col + 1])
        got = dict(zip(action.indices[span].tolist(), action.data[span]))
        assert sorted(got) == sorted(want)
        assert all(abs(got[row] - value) <= OP_TOL * scale for row, value in want.items())


def check_amplitudes(triple, n: int, coherent: CoherentSpec, basis, ref_rows, rows) -> None:
    spec = EnsembleSpec(n, triple.decomposition, coherent)
    amps = coherent_state(triple, basis, spec.coherent).amplitudes
    psi = _single_particle_vector(triple, coherent)
    dev = max(abs(amps[i] - reference_amplitude(psi, n, ref_rows[i])) for i in rows)
    assert dev <= AMP_TOL


# (2J, N, Dynkin vertex subset); the subsets give r = 1, 2 and 3 blocks.
CASES = [
    (1, 9, {1}),
    (3, 2, {1, 2, 3}),
    (3, 7, {1, 3}),
    (3, 6, {1}),
    (5, 5, {1, 2, 4}),
    (5, 3, {2, 5}),
    (7, 3, {1, 2, 3, 5, 6}),
    (7, 4, {1, 7}),
]


def weights_for(r: int, rng) -> tuple[complex, ...]:
    """Unit zeta with complex phases and, for r > 1, one dead (zero) weight."""
    w = rng.uniform(0.2, 1.0, r)
    if r > 1:
        w[r // 2] = 0.0
    w /= np.linalg.norm(w)
    return tuple(w * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, r)))


@pytest.mark.parametrize("twice_j,n,subset", CASES)
def test_array_oracle_matches_loop_reference(twice_j, n, subset):
    j = SpinQuantum(twice_j)
    rng = np.random.default_rng(100 * twice_j + n)
    basis = build_basis(n, j)
    ref_rows = list(reference_compositions(n, j.dim))
    assert basis.states.tolist() == [list(occ) for occ in ref_rows]
    assert tuple(map(tuple, basis.states.tolist())) == tuple(ref_rows)
    assert basis.states.tolist().index(list(ref_rows[-1])) == len(ref_rows) - 1

    triple = build_su2_triple(VertexSubset(j, frozenset(subset)))
    index = {occ: i for i, occ in enumerate(ref_rows)}
    columns = range(basis.size)
    for m in (triple.o1.matrix, triple.o2.matrix, triple.o3.matrix, random_hermitian(j.dim, rng)):
        check_operator(m, basis, ref_rows, index, columns)

    r = triple.decomposition.r
    for theta, phi in ((math.pi / 2, 0.0), (0.7, 2.1)):
        coherent = CoherentSpec(theta, phi, weights_for(r, rng))
        check_amplitudes(triple, n, coherent, basis, ref_rows, columns)


def test_array_oracle_matches_loop_reference_past_int64_radix():
    """2J = 24, N = 5: 118 755 states, where sum_k occ_k 6^k would overflow int64."""
    j, n = SpinQuantum(24), 5
    assert (n + 1) ** j.dim > 2**63
    rng = np.random.default_rng(24)
    basis = build_basis(n, j)
    ref_rows = list(reference_compositions(n, j.dim))
    ref = np.array(ref_rows)
    assert np.array_equal(basis.states, ref)

    sample = rng.choice(basis.size, 300, replace=False)
    triple = build_su2_triple(VertexSubset(j, frozenset({1, 2, 3, 5, 6, 7, 8})))
    index = {occ: i for i, occ in enumerate(ref_rows)}
    for m in (triple.o1.matrix, random_hermitian(j.dim, rng, pairs=6)):
        check_operator(m, basis, ref_rows, index, sample)
    coherent = CoherentSpec(1.1, 0.4, weights_for(triple.decomposition.r, rng))
    check_amplitudes(triple, n, coherent, basis, ref_rows, sample)


def random_coherent(r: int, rng) -> CoherentSpec:
    """Off-axis (theta, phi) and random weights with random phases."""
    w = rng.dirichlet(np.ones(r))
    zeta = tuple(np.sqrt(w) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, r)))
    return CoherentSpec(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2.0 * math.pi), zeta)


def test_closed_form_vector_matches_expm_reference():
    """Every class with 2J <= 9, three random rotations each."""
    rng = np.random.default_rng(9)
    for twice_j in range(1, 10):
        for dec in enumerate_classes(SpinQuantum(twice_j)):
            triple = build_su2_triple(canonical_subset(dec))
            for _ in range(3):
                coherent = random_coherent(dec.r, rng)
                want = reference_single_particle_vector(triple, coherent)
                assert np.max(np.abs(_single_particle_vector(triple, coherent) - want)) <= VECTOR_TOL


# Every class with 2J in {3, 5} and one with 2J = 7, as (2J, twice_subspins, N).
LADDER_CASES = [
    (twice_j, dec.twice_subspins, n)
    for twice_j, n in ((3, 5), (5, 4))
    for dec in enumerate_classes(SpinQuantum(twice_j))
] + [(7, (4, 2), 3)]


@pytest.mark.parametrize(
    "twice_j,twice_subspins,n", LADDER_CASES, ids=[f"2J{t}-{'_'.join(map(str, s))}-N{n}" for t, s, n in LADDER_CASES]
)
def test_ladder_moments_match_three_operator_reference(twice_j, twice_subspins, n):
    (dec,) = [d for d in enumerate_classes(SpinQuantum(twice_j)) if d.twice_subspins == twice_subspins]
    ws = OracleWorkspace(build_su2_triple(canonical_subset(dec)), n)
    rng = np.random.default_rng(twice_j * 1000 + n)
    for _ in range(3):
        coherent = random_coherent(dec.r, rng)
        for mu in rng.uniform(0.0, math.pi, 3):
            amps, (mean, var_min, var_max, xi2) = reference_squeezing(ws, coherent, mu)
            assert np.array_equal(twisted(ws, coherent, mu).amplitudes, amps)
            got = ws.squeezing(coherent, mu)
            assert abs(got.perp_expectation - mean) <= MOMENT_TOL
            assert abs(got.var_min - var_min) <= MOMENT_TOL
            assert abs(got.var_max - var_max) <= MOMENT_TOL
            if math.isfinite(xi2):
                assert got.xi2 == pytest.approx(xi2, rel=XI2_REL_TOL)


# Every class with 2J <= 7, each at a random N whose basis holds at most 330 states.
PROPERTY_CLASSES = [dec for twice_j in range(1, 8) for dec in enumerate_classes(SpinQuantum(twice_j))]


def test_one_product_point_matches_three_operator_reference_on_random_draws():
    """Seeded draws: every class with 2J <= 7, random N, phased zeta, mu in [0, 4 pi).

    Mean and extremal variances agree to MOMENT_TOL relative to
    max(1, |value|), xi^2 to XI2_REL_TOL wherever the reference reads it
    finite, and the workspace reads it inf exactly where the reference does.
    """
    rng = np.random.default_rng(29)
    compared = 0
    for dec in PROPERTY_CLASSES:
        twice_j = dec.j.twice_j
        n_max = max(n for n in range(1, 40) if math.comb(n + twice_j, twice_j) <= 330)
        ws = OracleWorkspace(build_su2_triple(canonical_subset(dec)), int(rng.integers(1, n_max + 1)))
        for _ in range(2):
            coherent = random_coherent(dec.r, rng)
            for mu in rng.uniform(0.0, 4.0 * math.pi, 3):
                _, want = reference_squeezing(ws, coherent, mu)
                got = ws.squeezing(coherent, mu)
                for value, ref in zip((got.perp_expectation, got.var_min, got.var_max), want[:3]):
                    assert abs(value - ref) <= MOMENT_TOL * max(1.0, abs(ref)), (dec, ws.n, mu, got, want)
                assert math.isinf(got.xi2) == math.isinf(want[3]), (dec, ws.n, mu, got, want)
                if math.isfinite(want[3]):
                    assert got.xi2 == pytest.approx(want[3], rel=XI2_REL_TOL), (dec, ws.n, mu, got, want)
                    compared += 1
    assert compared >= len(PROPERTY_CLASSES) * 3


def test_rebuilt_spec_gives_bit_identical_traces():
    """A spec evicted from the coherent cache and built again reads the same traces, bit for bit."""
    (dec,) = [d for d in enumerate_classes(SpinQuantum(5)) if d.twice_subspins == (3, 1)]
    ws = OracleWorkspace(build_su2_triple(canonical_subset(dec)), 6)
    rng = np.random.default_rng(30)
    specs = [random_coherent(dec.r, rng) for _ in range(COHERENT_CACHE_SIZE + 1)]
    mus = rng.uniform(0.0, 4.0 * math.pi, 4)
    first = [repr(ws.squeezing(specs[0], mu)) for mu in mus]
    for spec in specs[1:]:
        ws.squeezing(spec, 0.5)
    assert specs[0] not in ws._coherent  # evicted, so the next call rebuilds it
    assert [repr(ws.squeezing(specs[0], mu)) for mu in mus] == first  # float repr round-trips


@pytest.mark.parametrize("twice_j,n,subset", CASES)
def test_stacked_ladder_is_the_quantized_operator_over_its_adjoint(twice_j, n, subset):
    """[L; L^dagger] holds exactly the entries of second_quantize's L and of its conjugate transpose.

    L is the class's Lambda+ and a random matrix with a diagonal; the
    stacked matrix keeps no explicit zeros.
    """
    import scipy.sparse as sp

    j = SpinQuantum(twice_j)
    basis = build_basis(n, j)
    triple = build_su2_triple(VertexSubset(j, frozenset(subset)))
    for m in (triple.o1.matrix + 1j * triple.o2.matrix, random_hermitian(j.dim, np.random.default_rng(n), pairs=3)):
        ladder = _stacked_ladder(m, basis)
        single = _quantize(m, basis)
        assert ladder.shape == (2 * basis.size, basis.size)
        assert ladder.nnz == 2 * single.nnz and np.all(ladder.data != 0)
        assert abs(ladder - sp.vstack([single, single.conj().T])).max() == 0.0
