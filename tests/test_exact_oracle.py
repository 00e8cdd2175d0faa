import dataclasses
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinsqueeze import (
    CoherentSpec,
    IrrepDecomposition,
    OracleWorkspace,
    SpinQuantum,
    Su2Triple,
    VertexSubset,
    build_basis,
    build_su2_triple,
    canonical_subset,
    coherent_state,
    commutator,
    compare_with_oracle,
    css_expectation_perp,
    css_fluctuation,
    enumerate_classes,
    expectation,
    find_limit,
    multipole_basis,
    oat_spec,
    second_quantize,
    squeeze_trace,
    variance,
)
from spinsqueeze.coherent_dynamics import XI2_MEAN_GUARD, EnsembleSpec
from spinsqueeze.errors import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteInput,
    NotDiagonal,
    NotOatStart,
    SizeLimit,
)
from spinsqueeze.exact_oracle import sector_twist_diagonal
from spinsqueeze.lie_algebra import HermitianOperator

from observables import oat_transverse_observable, perp_observable, transverse_observable, twisted

J32 = SpinQuantum(3)


def oracle_squeezing(spec: EnsembleSpec, mu: float, triple: Su2Triple | None = None):
    """One-shot exact squeezing record for an ensemble at rescaled time mu."""
    if triple is None:
        triple = build_su2_triple(canonical_subset(spec.decomposition))
    return OracleWorkspace(triple, spec.n).squeezing(spec.coherent, mu)


def _row(basis, occ):
    """Index of the occupation `occ` among the rows of `basis.states`."""
    return basis.states.tolist().index(list(occ))


def test_basis_counts():
    assert build_basis(2, J32).size == 10
    assert build_basis(1, SpinQuantum(1)).size == 2
    assert build_basis(12, J32).size == 455


def test_basis_ordering_and_occupancy():
    basis = build_basis(3, SpinQuantum(1))
    rows = [tuple(occ) for occ in basis.states.tolist()]
    assert all(sum(occ) == 3 for occ in rows)
    assert rows == sorted(rows)
    assert len(set(rows)) == basis.size


def test_basis_size_limit():
    with pytest.raises(SizeLimit):
        build_basis(400, J32)


def test_second_quantize_identity_counts_particles():
    basis = build_basis(3, J32)
    number = second_quantize(HermitianOperator(np.eye(4)), basis)
    assert np.max(np.abs(number.toarray() - 3.0 * np.eye(basis.size))) < 1e-15


def test_second_quantize_jz_eigenvalue():
    basis = build_basis(2, J32)
    jz = multipole_basis(J32).generators[2]
    lam = second_quantize(jz, basis)
    idx = _row(basis, (2, 0, 0, 0))
    assert lam[idx, idx] == pytest.approx(3.0, abs=1e-14)


def test_second_quantize_hermitian_and_dim_check():
    basis = build_basis(2, J32)
    lam = second_quantize(multipole_basis(J32).generators[0], basis)
    dev = np.max(np.abs((lam - lam.getH()).toarray()))
    assert dev < 1e-13
    with pytest.raises(DimensionMismatch):
        second_quantize(HermitianOperator(np.eye(2)), basis)


@pytest.mark.parametrize("twice_j,n", [(1, 4), (2, 3), (3, 2), (3, 6)])
def test_second_quantization_is_a_homomorphism(twice_j, n):
    """[Lam_a, Lam_b] agrees with the lift of -i[a, b] (times i)."""
    j = SpinQuantum(twice_j)
    basis_ops = multipole_basis(j)
    fock = build_basis(n, j)
    rng = np.random.default_rng(twice_j * 10 + n)
    count = len(basis_ops)
    pairs = {(0, 1), (0, 2), (1, 2)}
    while len(pairs) < min(10, count * (count - 1) // 2):
        a, b = rng.integers(0, count, 2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    for a, b in sorted(pairs):
        lam_a = second_quantize(basis_ops.generators[a], fock)
        lam_b = second_quantize(basis_ops.generators[b], fock)
        lifted = second_quantize(commutator(basis_ops.generators[a], basis_ops.generators[b]), fock)
        resid = (lam_a @ lam_b - lam_b @ lam_a) - 1j * lifted
        assert np.max(np.abs(resid.toarray())) < 1e-9


def test_coherent_state_highest_weight():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    basis = build_basis(4, J32)
    spec = EnsembleSpec(4, triple.decomposition, CoherentSpec(0.0, 0.0, (1.0,)))
    state = coherent_state(triple, basis, spec.coherent)
    idx = _row(basis, (4, 0, 0, 0))
    assert abs(state.amplitudes[idx] - 1.0) < 1e-12
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_binomial_amplitudes():
    j12 = SpinQuantum(1)
    dec = IrrepDecomposition(j12, (1,))
    triple = build_su2_triple(VertexSubset(j12, frozenset({1})))
    basis = build_basis(2, j12)
    spec = oat_spec(dec, 2, (1.0,))
    state = coherent_state(triple, basis, spec.coherent)
    expected = {(2, 0): 0.5, (1, 1): 1 / math.sqrt(2), (0, 2): 0.5}
    for occ, amp in expected.items():
        assert abs(state.amplitudes[_row(basis, occ)] - amp) < 1e-12


def test_coherent_state_single_particle_reduction():
    """Collective one-body expectations equal N times the single-spin values."""
    rng = np.random.default_rng(11)
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2})))
    n = 5
    ws = OracleWorkspace(triple, n)
    from spinsqueeze.exact_oracle import _single_particle_vector

    for _ in range(3):
        w = rng.dirichlet(np.ones(2))
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        coherent = CoherentSpec(theta, phi, tuple(np.sqrt(w) * np.exp(1j * rng.uniform(0, 6.28, 2))))
        state = ws.coherent(coherent)
        psi = _single_particle_vector(triple, coherent)
        for op in (triple.o1, triple.o2, triple.o3):
            single = np.vdot(psi, op.matrix @ psi).real
            assert expectation(state, second_quantize(op, ws.basis)) == pytest.approx(n * single, abs=1e-10)


def test_evolve_identity_at_zero():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    ws = OracleWorkspace(triple, 3)
    spec = oat_spec(triple.decomposition, 3, (1.0,))
    evolved = twisted(ws, spec.coherent, 0.0)
    assert np.max(np.abs(evolved.amplitudes - ws.coherent(spec.coherent).amplitudes)) == 0.0


def test_evolve_requires_diagonal():
    """A rotated triple is a valid su(2) triple, but its O3 is not diagonal.

    Every oracle entry refuses it.  The rotation about O2 is the one that shows why:
    read in the m_z basis, {3/2} at N = 3 gave <Lambda_1> = 4.5 cos 0.4 = 4.1448, not
    the class's 4.5.  About O1 the coherent state only gains a phase.
    """
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    f = triple.decomposition.f
    basis = build_basis(3, J32)
    coherent = oat_spec(triple.decomposition, 3, (1.0,)).coherent
    state = coherent_state(triple, basis, coherent)
    assert expectation(state, second_quantize(triple.o1, basis)) == pytest.approx(4.5, abs=1e-12)
    for axis in (triple.o1, triple.o2):
        u = expm(-0.4j * axis.matrix / f)
        o1, o2, o3 = (HermitianOperator(u @ op.matrix @ u.conj().T) for op in (triple.o1, triple.o2, triple.o3))
        rotated = Su2Triple(o1, o2, o3, triple.decomposition, triple.blocks)
        assert not rotated.framed
        with pytest.raises(NotDiagonal):
            OracleWorkspace(rotated, 2)
        with pytest.raises(NotDiagonal):
            coherent_state(rotated, basis, coherent)
        with pytest.raises(NotDiagonal):
            sector_twist_diagonal(rotated, basis)
        with pytest.raises(DimensionMismatch):  # the basis size is read first
            coherent_state(rotated, build_basis(3, SpinQuantum(2)), coherent)


@pytest.mark.parametrize("eps,framed", [(1e-13, True), (1e-11, False)])
def test_frame_boundary_is_one_rule_for_triple_and_oracle(eps, framed, monkeypatch):
    """DIAGONAL_TOL sets both Su2Triple's frame and the oracle's NotDiagonal: an O3 the
    triple matches level by level is twisted by the oracle, one matched by its sorted
    spectrum is refused there."""
    good = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    o3 = good.o3.matrix.copy()
    o3[0, 1] = o3[1, 0] = eps
    o3 = HermitianOperator(o3)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counting(m):
        calls.append(m)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    near = Su2Triple(good.o1, good.o2, o3, good.decomposition, good.blocks)
    assert len(calls) == (0 if framed else 1)
    assert near.framed is framed
    frame = {fld.name: fld for fld in dataclasses.fields(Su2Triple)}["framed"]
    assert not frame.init and not frame.compare  # derived from O3, never passed or compared
    if framed:
        assert OracleWorkspace(near, 2).triple is near
    else:
        with pytest.raises(NotDiagonal):
            OracleWorkspace(near, 2)


@pytest.mark.parametrize("subset,zeta", [({1, 2, 3}, (1.0,)), ({1}, (0.8, 0.6j, 0.0))])
def test_evolve_phase_recurrence(subset, zeta):
    """The twisting phases recur after 4 pi f^2 / g, with g the gcd granularity
    of the squared diagonal values (computed from the actual diagonal)."""
    triple = build_su2_triple(VertexSubset(J32, frozenset(subset)))
    f = triple.decomposition.f
    ws = OracleWorkspace(triple, 3)
    d2 = np.real(second_quantize(triple.o3, ws.basis).diagonal()) ** 2
    # d = f * (half-integer) so 4 d^2 / f^2 is a non-negative integer
    ints = np.round(4.0 * d2 / (f * f)).astype(int)
    assert np.max(np.abs(4.0 * d2 / (f * f) - ints)) < 1e-9
    g_int = 0
    for v in ints:
        g_int = gcd(g_int, int(v))
    granularity = g_int * f * f / 4.0
    period = 4 * math.pi * f * f / granularity
    spec = oat_spec(triple.decomposition, 3, zeta)
    a = twisted(ws, spec.coherent, 0.7)
    b = twisted(ws, spec.coherent, 0.7 + period)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-9


def test_evolve_preserves_norm():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    ws = OracleWorkspace(triple, 6)
    spec = oat_spec(triple.decomposition, 6, (0.6, 0.8))
    evolved = twisted(ws, spec.coherent, 1.37)
    assert abs(np.sum(np.abs(evolved.amplitudes) ** 2) - 1.0) < 1e-12


def test_variance_on_eigenstate_is_zero():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    basis = build_basis(2, J32)
    lam3 = second_quantize(triple.o3, basis)
    amps = np.zeros(basis.size, dtype=complex)
    amps[_row(basis, (2, 0, 0, 0))] = 1.0
    from spinsqueeze.exact_oracle import SymmetricState

    state = SymmetricState(basis, amps)
    assert variance(state, lam3) == pytest.approx(0.0, abs=1e-12)


def test_css_transverse_variance_constant_over_nu():
    """At mu = 0 the transverse variance is nu-independent (12-point sweep)."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2})))
    n = 4
    ws = OracleWorkspace(triple, n)
    theta, phi = 1.1, 0.7
    coherent = CoherentSpec(theta, phi, (0.8, 0.6))
    state = ws.coherent(coherent)
    spec = EnsembleSpec(n, triple.decomposition, coherent)
    expected = css_fluctuation(spec)
    for nu in np.linspace(0, 2 * math.pi, 12, endpoint=False):
        op = second_quantize(transverse_observable(triple, theta, phi, nu), ws.basis)
        assert variance(state, op) == pytest.approx(expected, abs=1e-10)


def test_css_minimum_uncertainty_relation_oracle():
    """Orthogonal-quadrature variances multiply to (f^2/4) <O_perp>^2."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1})))
    n = 3
    ws = OracleWorkspace(triple, n)
    theta, phi = 0.9, 2.3
    coherent = CoherentSpec(theta, phi, (math.sqrt(0.7), math.sqrt(0.3), 0.0))
    state = ws.coherent(coherent)
    f = triple.decomposition.f
    perp = expectation(state, second_quantize(perp_observable(triple, theta, phi), ws.basis))
    spec = EnsembleSpec(n, triple.decomposition, coherent)
    assert perp == pytest.approx(css_expectation_perp(spec), abs=1e-10)
    for nu in (0.0, 0.5, 1.9):
        va = variance(state, second_quantize(transverse_observable(triple, theta, phi, nu), ws.basis))
        vb = variance(
            state, second_quantize(transverse_observable(triple, theta, phi, nu + math.pi / 2), ws.basis)
        )
        assert va * vb == pytest.approx(0.25 * f * f * perp * perp, rel=1e-10)


def test_twisted_mean_matches_closed_form():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    spec = oat_spec(triple.decomposition, 3, (1.0,))
    ws = OracleWorkspace(triple, 3)
    state = twisted(ws, spec.coherent, 0.5)
    lam1 = second_quantize(triple.o1, ws.basis)
    assert expectation(state, lam1) == pytest.approx(squeeze_trace(spec, 0.5).perp_expectation, abs=1e-12)


@pytest.mark.parametrize(
    "theta,phi,field,oracle_value,closed_form_value",
    [
        (0.3, 0.0, "xi2", 0.8515140537285713, 0.15064221547460624),
        (math.pi / 2, 0.5, "perp_expectation", 11.384168334142908, 12.972190684396258),
    ],
)
def test_closed_form_refuses_a_start_off_the_twisting_axis(theta, phi, field, oracle_value, closed_form_value):
    """Irreducible J = 3/2, N = 10, mu = 0.2: the closed forms assume theta = pi/2,
    phi = 0 and used to return the on-axis number (closed_form_value) here."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    ws = OracleWorkspace(triple, 10)
    spec = EnsembleSpec(10, triple.decomposition, CoherentSpec(theta, phi, (1.0,)))
    assert getattr(ws.squeezing(spec.coherent, 0.2), field) == pytest.approx(oracle_value, abs=1e-9)
    assert getattr(squeeze_trace(oat_spec(triple.decomposition, 10, (1.0,)), 0.2), field) == pytest.approx(
        closed_form_value, abs=1e-9
    )
    for call in (
        lambda: squeeze_trace(spec, 0.2),
        lambda: find_limit(spec),
        lambda: compare_with_oracle(ws, spec.coherent, [0.2]),
    ):
        with pytest.raises(NotOatStart):
            call()
    assert css_expectation_perp(spec) == pytest.approx(15.0, abs=1e-12)  # valid at any angle
    spec_iii = EnsembleSpec(10, IrrepDecomposition(J32, (1, 1)), CoherentSpec(theta, phi, (0.6, 0.8)))
    with pytest.raises(NotOatStart):
        squeeze_trace(spec_iii, 0.2)
    assert css_fluctuation(spec_iii) > 0.0


def test_oracle_squeezing_unity_at_zero():
    spec = oat_spec(IrrepDecomposition(J32, (1, 1)), 5, (0.6, 0.8))
    rec = oracle_squeezing(spec, 0.0)
    assert rec.xi2 == pytest.approx(1.0, abs=1e-10)


def test_oracle_variance_nu_minimum_vs_grid():
    """The 2x2 second-moment minimization lower-bounds a dense nu grid."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    n = 5
    ws = OracleWorkspace(triple, n)
    coherent = CoherentSpec(math.pi / 2, 0.0, (0.6, 0.8))
    mu = 0.9
    rec = ws.squeezing(coherent, mu)
    state = twisted(ws, coherent, mu)
    grid = []
    for nu in np.linspace(0, math.pi, 720, endpoint=False):
        op = second_quantize(oat_transverse_observable(triple, nu), ws.basis)
        grid.append(variance(state, op))
    assert rec.var_min <= min(grid) + 1e-10
    assert rec.var_max >= max(grid) - 1e-10
    assert min(grid) - rec.var_min < 1e-4  # dense grid touches the minimum


def test_oracle_agrees_for_equivalent_subsets():
    """Non-canonical realizations of the same class give identical records."""
    dec = IrrepDecomposition(J32, (1, 0, 0))
    spec = oat_spec(dec, 6, (0.75, math.sqrt(1 - 0.75**2), 0.0))
    rec_a = oracle_squeezing(spec, 0.7, build_su2_triple(VertexSubset(J32, frozenset({1}))))
    rec_b = oracle_squeezing(spec, 0.7, build_su2_triple(VertexSubset(J32, frozenset({2}))))
    assert rec_a.perp_expectation == pytest.approx(rec_b.perp_expectation, abs=1e-10)
    assert rec_a.var_min == pytest.approx(rec_b.var_min, abs=1e-10)
    assert rec_a.xi2 == pytest.approx(rec_b.xi2, abs=1e-10)


def test_oracle_confirms_limit_search():
    spec = oat_spec(IrrepDecomposition(J32, (3,)), 12, (1.0,))
    res = find_limit(spec)
    rec = oracle_squeezing(spec, res.mu_min)
    assert rec.xi2 < 1.0
    assert rec.xi2 == pytest.approx(res.xi2_min, rel=1e-9)


def test_analytic_equals_oracle_spot_checks():
    """Exact agreement of the closed forms with brute force at mixed settings."""
    cases = [
        ({1, 2, 3}, (1.0,), 3, 0.5),
        ({1, 2}, (0.8, 0.6), 8, 0.3),
        ({1, 3}, (1 / math.sqrt(2), 1 / math.sqrt(2)), 6, 1.1),
        ({1}, (math.sqrt(0.7), math.sqrt(0.2) * 1j, math.sqrt(0.1)), 7, 0.9),
    ]
    for subset, zeta, n, mu in cases:
        triple = build_su2_triple(VertexSubset(J32, frozenset(subset)))
        spec = oat_spec(triple.decomposition, n, zeta)
        analytic = squeeze_trace(spec, mu)
        rec = OracleWorkspace(triple, n).squeezing(spec.coherent, mu)
        assert rec.perp_expectation == pytest.approx(analytic.perp_expectation, abs=1e-10)
        assert rec.var_min == pytest.approx(analytic.var_min, abs=1e-10)
        assert rec.var_max == pytest.approx(analytic.var_max, abs=1e-10)
        assert rec.xi2 == pytest.approx(analytic.xi2, abs=1e-9)


def test_coherent_state_built_once_per_spec_and_cache_bounded(monkeypatch):
    from spinsqueeze import exact_oracle

    built, ensembles = [], []

    def counting(triple, basis, coherent):
        built.append(coherent)
        return coherent_state(triple, basis, coherent)

    def counting_ensemble(n, decomposition, coherent):
        ensembles.append(coherent)
        return EnsembleSpec(n, decomposition, coherent)

    monkeypatch.setattr(exact_oracle, "coherent_state", counting)
    monkeypatch.setattr(exact_oracle, "EnsembleSpec", counting_ensemble)
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    ws = OracleWorkspace(triple, 4)
    specs = [CoherentSpec(math.pi / 2, 0.0, (math.cos(t), math.sin(t))) for t in np.linspace(0.1, 1.4, 9)]
    for mu in (0.0, 0.3, 0.9):
        ws.squeezing(specs[0], mu)
    assert built == [specs[0]]
    # one ensemble per cache miss, the cache entry's; coherent_state checks the weight count alone
    assert ensembles == [specs[0]]
    assert twisted(ws, specs[0], 0.3).amplitudes.shape == (ws.basis.size,)
    assert len(built) == 1
    size = exact_oracle.COHERENT_CACHE_SIZE
    assert size < len(specs)
    for spec in specs[1 : size + 1]:
        ws.squeezing(spec, 0.2)
    assert len(built) == size + 1  # specs[0] was least recently used and is evicted
    ws.squeezing(specs[size], 0.5)
    assert len(built) == size + 1
    ws.squeezing(specs[0], 0.5)
    assert len(built) == size + 2
    assert len(ensembles) == len(built)  # none for a cached spec


def assert_oracle_agrees(workspace, zeta, mus):
    """Criterion-04 bound: every discrepancy `compare_with_oracle` reports is at most 1e-9."""
    comparison = compare_with_oracle(workspace, CoherentSpec(math.pi / 2, 0.0, zeta), mus)
    assert comparison.worst <= 1e-9, comparison  # NaN <= 1e-9 is False


def test_analytic_equals_oracle_at_n_100():
    """J = 3/2, N = 100: 176 851 states."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    assert_oracle_agrees(OracleWorkspace(triple, 100), (0.8, 0.6j), [0.02, 0.7])


@pytest.mark.parametrize(
    "twice_j,n,classes",
    [
        (5, 12, None),  # every class, 6188 states
        (7, 10, [(7,), (4, 2), (2, 2, 1), (1, 1, 0, 0, 0, 0)]),  # 19 448 states
    ],
)
def test_analytic_equals_oracle_at_larger_spin(twice_j, n, classes):
    checked = 0
    for dec in enumerate_classes(SpinQuantum(twice_j)):
        if classes is not None and dec.twice_subspins not in classes:
            continue
        rng = np.random.default_rng(checked)
        w = rng.uniform(0.2, 1.0, dec.r)
        zeta = tuple(w / np.linalg.norm(w) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, dec.r)))
        workspace = OracleWorkspace(build_su2_triple(canonical_subset(dec)), n)
        assert_oracle_agrees(workspace, zeta, [0.05, 0.4, 2.5])
        checked += 1
    assert checked == (10 if classes is None else len(classes))


def _all_classes(max_twice_j):
    return [
        (twice_j, tuple(sorted(canonical_subset(dec).chosen)))
        for twice_j in range(1, max_twice_j + 1)
        for dec in enumerate_classes(SpinQuantum(twice_j))
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(_all_classes(5)),
    n=st.integers(1, 12),
    levels=st.lists(st.integers(0, 4), min_size=5, max_size=5).filter(any),
    phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=5, max_size=5),
    mu=st.floats(0.0, math.pi),
)
def test_analytic_equals_oracle_property(cls, n, levels, phases, mu):
    """Random (class, N <= 12, zeta, mu) points, dead weights included."""
    twice_j, subset = cls
    triple = build_su2_triple(VertexSubset(SpinQuantum(twice_j), frozenset(subset)))
    r = triple.decomposition.r
    w = np.sqrt(np.array(levels[:r], dtype=float))
    if not w.any():
        w[0] = 1.0
    zeta = tuple(w / np.linalg.norm(w) * np.exp(1j * np.array(phases[:r])))
    assert_oracle_agrees(OracleWorkspace(triple, n), zeta, [mu])


def test_vanishing_mean_guard_is_shared():
    """At a collapsed mean the closed form and the oracle both report xi^2 = inf."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    spec = oat_spec(triple.decomposition, 6, (1.0,))
    assert squeeze_trace(spec, math.pi).xi2 == math.inf
    assert OracleWorkspace(triple, 6).squeezing(spec.coherent, math.pi).xi2 == math.inf


def test_every_caller_reads_inf_near_a_collapsed_mean():
    """N = 2, all weight on one J_l = 1/2 block: the mean falls to ~1e-8 of its start near mu = pi.

    The float kernel reads xi^2 anywhere from 0 to 1/2 there (0.488, 0.533
    and 0.0 at these points, and the oracle 0.488, 0.355 and 0.0), so the
    per-mu record, the oracle and the comparison all read inf.
    """
    triple = build_su2_triple(canonical_subset(IrrepDecomposition(SpinQuantum(2), (1, 0))))
    spec = oat_spec(triple.decomposition, 2, (1, 0))
    ws = OracleWorkspace(triple, 2)
    mus = [math.pi - 1e-7, math.pi - 5e-8, math.pi - 1e-8]
    for mu in mus:
        assert squeeze_trace(spec, mu).xi2 == math.inf, mu
        assert ws.squeezing(spec.coherent, mu).xi2 == math.inf, mu
    assert compare_with_oracle(ws, spec.coherent, mus).guarded == 3


class _StandIn:
    """Workspace stand-in: the analytic trace with chosen fields replaced."""

    def __init__(self, spec, **changes):
        self.spec = spec
        self.n = spec.n
        self.triple = build_su2_triple(canonical_subset(spec.decomposition))
        self.changes = changes

    def squeezing(self, coherent, mu):
        trace = squeeze_trace(self.spec, mu)
        return dataclasses.replace(trace, **{k: f(trace) for k, f in self.changes.items()})


@pytest.mark.parametrize("field", ["perp_expectation", "var_min", "var_max", "xi2"])
def test_compare_with_oracle_propagates_nan(field):
    spec = oat_spec(IrrepDecomposition(J32, (1, 1)), 6, (0.6, 0.8))
    stand_in = _StandIn(spec, **{field: lambda t: math.nan if t.mu == 0.2 else getattr(t, field)})
    comparison = compare_with_oracle(stand_in, spec.coherent, [0.1, 0.2, 0.3])
    assert [a.mu for a, _ in comparison.pairs] == [0.1, 0.2, 0.3]
    nan = [q for q in ("perp_expectation", "var_min", "var_max", "xi2") if math.isnan(getattr(comparison, q))]
    assert nan == [field]
    assert math.isnan(comparison.worst)
    with pytest.raises(AssertionError):
        assert_oracle_agrees(stand_in, spec.coherent.zeta, [0.1, 0.2, 0.3])


def test_compare_with_oracle_refuses_an_empty_grid():
    spec = oat_spec(IrrepDecomposition(J32, (1, 1)), 4, (0.6, 0.8))
    with pytest.raises(InvalidInput, match="empty"):
        compare_with_oracle(_StandIn(spec), spec.coherent, np.linspace(0.0, 1.0, 0))


def test_compare_with_oracle_refuses_a_mu_where_the_grid_belongs():
    spec = oat_spec(IrrepDecomposition(J32, (1, 1)), 4, (0.6, 0.8))
    with pytest.raises(InvalidInput, match="^the mu grid must be a sequence, got 0.5$"):
        compare_with_oracle(_StandIn(spec), spec.coherent, 0.5)


def test_oracle_refuses_weights_of_another_class():
    """N and the class come from the workspace; a weight count off its r is refused, not zipped."""
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))  # {1/2, 1/2}, r = 2
    ws = OracleWorkspace(triple, 4)
    for zeta in [(1.0,), (0.6, 0.6, math.sqrt(0.28))]:  # the weights of {3/2} and of {1/2, 0, 0}
        coherent = CoherentSpec(math.pi / 2, 0.0, zeta)
        for call in (
            lambda: coherent_state(triple, ws.basis, coherent),
            lambda: compare_with_oracle(ws, coherent, [0.1, 0.5]),
            lambda: ws.squeezing(coherent, 0.1),
        ):
            with pytest.raises(DimensionMismatch, match=f"{len(zeta)} weights for r = 2"):
                call()


@pytest.mark.parametrize("twice_j", [1, 5])
def test_sector_twist_diagonal_refuses_a_basis_of_another_spin(twice_j):
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    with pytest.raises(DimensionMismatch, match=f"triple dim 4 != mode count {twice_j + 1}"):
        sector_twist_diagonal(triple, build_basis(3, SpinQuantum(twice_j)))


def test_expectation_and_variance_refuse_a_matrix_of_another_basis():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    state = OracleWorkspace(triple, 3).coherent(oat_spec(triple.decomposition, 3, (1.0,)).coherent)
    other = second_quantize(triple.o3, build_basis(4, J32))
    for call in (expectation, variance):
        with pytest.raises(DimensionMismatch, match="operator shape"):
            call(state, other)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_oracle_refuses_a_non_finite_mu(mu):
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 3})))
    ws = OracleWorkspace(triple, 4)
    coherent = oat_spec(triple.decomposition, 4, (0.6, 0.8)).coherent
    for call in (lambda *args: twisted(ws, *args), ws.squeezing):
        with pytest.raises(NonFiniteInput):
            call(coherent, mu)
    assert math.isfinite(ws.squeezing(coherent, -0.3).xi2)  # negative mu stays valid


def test_compare_with_oracle_skips_xi2_at_collapsed_mean():
    triple = build_su2_triple(VertexSubset(J32, frozenset({1, 2, 3})))
    spec = oat_spec(triple.decomposition, 6, (1.0,))
    collapsed = 2.0 * math.acos(0.4)  # mean 9 * 0.4^17: under the guard, so xi^2 reads inf
    assert 0.0 < squeeze_trace(spec, collapsed).perp_expectation < XI2_MEAN_GUARD * css_expectation_perp(spec)
    assert squeeze_trace(spec, collapsed).xi2 == math.inf
    shifted = _StandIn(spec, xi2=lambda t: t.xi2 + 0.5)
    at_collapse, kept = (compare_with_oracle(shifted, spec.coherent, [mu]) for mu in (collapsed, 0.1))
    assert (at_collapse.xi2, at_collapse.worst, at_collapse.guarded) == (0.0, 0.0, 1)
    assert kept.xi2 == kept.worst > 0.1 and kept.guarded == 0
    assert_oracle_agrees(OracleWorkspace(triple, 6), spec.coherent.zeta, [0.1, collapsed])
