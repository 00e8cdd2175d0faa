import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinsqueeze import (
    IrrepDecomposition,
    SpinQuantum,
    VertexSubset,
    build_su2_triple,
    canonical_subset,
    class_representatives,
    decompose_subset,
    enumerate_classes,
    equivalence_check,
    structure_factor,
)
from spinsqueeze.classification import Su2Triple
from spinsqueeze.errors import AllTrivialSubspins, DimensionMismatch, InvalidInput, NotAnSu2Triple
from spinsqueeze.lie_algebra import HermitianOperator

from observables import simple_root_ladders, su2_triple_reference


def _subset(twice_j, vertices):
    return VertexSubset(SpinQuantum(twice_j), frozenset(vertices))


def test_decompose_full_chain():
    dec = decompose_subset(_subset(3, {1, 2, 3}))
    assert dec.twice_subspins == (3,)
    assert dec.r == 1
    assert dec.f == pytest.approx(1.0, abs=1e-12)


def test_decompose_broken_chain():
    dec = decompose_subset(_subset(3, {1, 3}))
    assert dec.twice_subspins == (1, 1)
    assert dec.r == 2
    assert dec.f == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_decompose_interior_vertex():
    dec = decompose_subset(_subset(3, {2}))
    assert dec.twice_subspins == (1, 0, 0)
    assert dec.r == 3
    assert dec.f == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_structure_factor_values():
    j32 = SpinQuantum(3)
    assert structure_factor((2, 0), j32) == pytest.approx(math.sqrt(2.5), abs=1e-12)
    assert structure_factor((3,), j32) == pytest.approx(1.0, abs=1e-12)
    assert structure_factor((1, 1), j32) == pytest.approx(math.sqrt(5.0), abs=1e-12)
    with pytest.raises(DimensionMismatch):
        structure_factor((3, 3), j32)
    with pytest.raises(AllTrivialSubspins):
        structure_factor((0, 0, 0, 0), j32)
    with pytest.raises(InvalidInput, match="non-negative"):  # fills 3 + 0 + 1 = 4 levels
        IrrepDecomposition(j32, (2, -1, 0))


def test_enumerate_classes_smallest_spins():
    half = enumerate_classes(SpinQuantum(1))
    assert [d.twice_subspins for d in half] == [(1,)]
    assert half[0].f == pytest.approx(1.0)

    one = enumerate_classes(SpinQuantum(2))
    assert [d.twice_subspins for d in one] == [(2,), (1, 0)]
    assert [d.f for d in one] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_enumerate_classes_spin32_order_and_values():
    classes = enumerate_classes(SpinQuantum(3))
    assert [d.twice_subspins for d in classes] == [(3,), (2, 0), (1, 1), (1, 0, 0)]
    expected_f = [1.0, math.sqrt(2.5), math.sqrt(5.0), math.sqrt(10.0)]
    assert [d.f for d in classes] == pytest.approx(expected_f, abs=1e-12)


def test_class_counts_small_spins():
    assert len(enumerate_classes(SpinQuantum(1))) == 1
    assert len(enumerate_classes(SpinQuantum(2))) == 2
    assert len(enumerate_classes(SpinQuantum(3))) == 4
    # p(2J+1) - 1, beyond the reach of a search over all 2^(2J) vertex masks
    assert len(enumerate_classes(SpinQuantum(16))) == 296
    assert len(enumerate_classes(SpinQuantum(20))) == 791


def test_class_representative_subsets():
    reps = dict(
        (dec.twice_subspins, sorted(sub.chosen)) for dec, sub in class_representatives(SpinQuantum(3))
    )
    assert reps[(3,)] == [1, 2, 3]
    assert reps[(2, 0)] == [1, 2]
    assert reps[(1, 1)] == [1, 3]
    assert reps[(1, 0, 0)] == [1]


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 5, 6, 7, 8])
def test_class_properties_sweep(twice_j):
    j = SpinQuantum(twice_j)
    for dec in enumerate_classes(j):
        assert sum(t + 1 for t in dec.twice_subspins) == j.dim
        nontrivial = dec.twice_subspins != (twice_j,)
        assert (dec.f > 1.0) == nontrivial


@pytest.mark.parametrize("twice_j", [2, 3, 4, 5])
def test_reflection_symmetry(twice_j):
    """Subsets mirrored through the diagram midpoint give equal classes."""
    j = SpinQuantum(twice_j)
    for mask in range(1, 1 << twice_j):
        chosen = {k + 1 for k in range(twice_j) if mask >> k & 1}
        mirrored = {twice_j + 1 - k for k in chosen}
        a = decompose_subset(VertexSubset(j, frozenset(chosen)))
        b = decompose_subset(VertexSubset(j, frozenset(mirrored)))
        assert a.twice_subspins == b.twice_subspins


def test_canonical_subset_roundtrip():
    for twice_j in (1, 2, 3, 4, 5):
        for dec in enumerate_classes(SpinQuantum(twice_j)):
            again = decompose_subset(canonical_subset(dec))
            assert again.twice_subspins == dec.twice_subspins


def test_build_triple_type_i(basis32, triples):
    triple = triples["i"]
    assert np.max(np.abs(triple.o3.matrix - basis32.matrices()[2])) < 1e-12
    # normalized ladder coefficients over the simple-root matrices
    plus = triple.o1.matrix + 1j * triple.o2.matrix
    coeffs = np.array([np.trace(a.conj().T @ plus).real / 5.0 for a in simple_root_ladders(basis32)])
    coeffs /= np.linalg.norm(coeffs)
    expected = [math.sqrt(0.3), math.sqrt(0.4), math.sqrt(0.3)]
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_build_triple_type_ii_diagonal(triples):
    root = math.sqrt(2.5)
    assert np.allclose(
        np.diagonal(triples["ii"].o3.matrix), [root, 0.0, -root, 0.0], atol=1e-12
    )


def test_build_triple_type_iv_is_single_simple_root(triples, basis32):
    plus = triples["iv"].o1.matrix + 1j * triples["iv"].o2.matrix
    a1 = simple_root_ladders(basis32)[0]
    # O+ is parallel to the first simple-root matrix (sqrt2 factor from f)
    ratio = plus[0, 1] / a1[0, 1]
    assert abs(ratio - math.sqrt(2.0)) < 1e-12
    assert np.max(np.abs(plus - ratio * a1)) < 1e-12
    assert triples["iv"].decomposition.f == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_triple_commutation_invariant_all_spin32_subsets(j32):
    for mask in range(1, 1 << 3):
        chosen = frozenset(k + 1 for k in range(3) if mask >> k & 1)
        triple = build_su2_triple(VertexSubset(j32, chosen))  # validates internally
        f = triple.decomposition.f
        plus = triple.o1.matrix + 1j * triple.o2.matrix
        resid = np.max(np.abs(triple.o3.matrix @ plus - plus @ triple.o3.matrix - f * plus))
        assert resid < 1e-9


def test_triple_spectrum_matches_subspins(triples):
    for triple in triples.values():
        eig = np.sort(np.linalg.eigvalsh(triple.o3.matrix) / triple.decomposition.f)
        expected = np.sort(
            np.concatenate(
                [np.arange(-t, t + 1, 2) / 2.0 for t in triple.decomposition.twice_subspins]
            )
        )
        assert np.max(np.abs(eig - expected)) < 1e-9


def test_equivalence_same_class_different_subsets(j32):
    a = build_su2_triple(_subset(3, {1}))
    b = build_su2_triple(_subset(3, {2}))
    assert equivalence_check(a, b) is True


def test_equivalence_distinct_classes(triples):
    assert equivalence_check(triples["ii"], triples["iii"]) is False


def test_equivalence_is_equivalence_relation(j32):
    family = [
        build_su2_triple(VertexSubset(j32, frozenset(k + 1 for k in range(3) if mask >> k & 1)))
        for mask in range(1, 8)
    ]
    for a in family:
        assert equivalence_check(a, a) is True
    for a, b in itertools.combinations(family, 2):
        assert equivalence_check(a, b) == equivalence_check(b, a)
    for a, b, c in itertools.permutations(family, 3):
        if equivalence_check(a, b) and equivalence_check(b, c):
            assert equivalence_check(a, c)


def test_invalid_triple_rejected(triples):
    good = triples["iii"]
    with pytest.raises(NotAnSu2Triple):
        Su2Triple(
            good.o1,
            good.o2,
            HermitianOperator(np.diag([1.0, 2.0, 3.0, -6.0])),
            good.decomposition,
            good.blocks,
        )


@pytest.mark.parametrize("scale", [0.0, 2.0])
def test_triple_with_rescaled_transverse_pair_rejected(triples, scale):
    """[O3, O+-] = +-f O+- is linear in O+, so only [O+, O-] = 2f O3 catches these."""
    good = triples["iii"]
    o1, o2 = (HermitianOperator(scale * op.matrix) for op in (good.o1, good.o2))
    with pytest.raises(NotAnSu2Triple, match=r"\[O\+, O-\]"):
        Su2Triple(o1, o2, good.o3, good.decomposition, good.blocks)


@pytest.mark.parametrize("twice_j", range(1, 15))
def test_every_built_triple_closes_su2(twice_j):
    for dec in enumerate_classes(SpinQuantum(twice_j)):
        triple = build_su2_triple(canonical_subset(dec))
        o1, o2, o3 = triple.o1.matrix, triple.o2.matrix, triple.o3.matrix
        resid = np.max(np.abs(o1 @ o2 - o2 @ o1 - 1j * dec.f * o3))
        assert resid < 1e-12


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_triple_matches_the_per_block_reference_bit_for_bit(twice_j):
    """The ladder-diagonal build repeats the reference's floating-point operations.

    Bytes are compared, so signed zeros agree too: `classify --emit-matrices`
    prints -0 and 0 differently.
    """
    for dec in enumerate_classes(SpinQuantum(twice_j)):
        subset = canonical_subset(dec)
        built, reference = build_su2_triple(subset), su2_triple_reference(subset)
        assert built.blocks == reference.blocks
        assert built.decomposition == reference.decomposition
        for a, b in ((built.o1, reference.o1), (built.o2, reference.o2), (built.o3, reference.o3)):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.matrix.tobytes() == b.matrix.tobytes()


def test_triple_build_validates_only_its_three_operators(j32, monkeypatch):
    """No per-block spin matrices: one build constructs exactly O1, O2 and O3."""
    validate = HermitianOperator.__post_init__
    calls = []

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(HermitianOperator, "__post_init__", counting)
    for dec in enumerate_classes(j32):
        calls.clear()
        triple = build_su2_triple(canonical_subset(dec))
        assert [id(op) for op in calls] == [id(triple.o1), id(triple.o2), id(triple.o3)], dec.twice_subspins


def test_equivalence_rejects_mismatched_spins():
    a = build_su2_triple(_subset(3, {1}))
    b = build_su2_triple(_subset(2, {1}))
    with pytest.raises(DimensionMismatch):
        equivalence_check(a, b)


def test_vertex_subset_validation(j32):
    with pytest.raises(ValueError):
        VertexSubset(j32, frozenset())
    with pytest.raises(ValueError):
        VertexSubset(j32, frozenset({4}))


@settings(max_examples=40, deadline=None)
@given(
    twice_j=st.integers(min_value=1, max_value=8),
    mask=st.integers(min_value=1, max_value=255),
)
def test_random_subsets_build_valid_triples(twice_j, mask):
    mask &= (1 << twice_j) - 1
    if mask == 0:
        mask = 1
    subset = VertexSubset(
        SpinQuantum(twice_j), frozenset(k + 1 for k in range(twice_j) if mask >> k & 1)
    )
    triple = build_su2_triple(subset)
    dec = triple.decomposition
    assert sum(t + 1 for t in dec.twice_subspins) == twice_j + 1
    # unit coefficient norm for each O_k: tr(O^2) equals the generator norm
    k2 = twice_j * (twice_j + 1) * (twice_j + 2) / 12.0
    for op in (triple.o1, triple.o2, triple.o3):
        assert np.trace(op.matrix @ op.matrix).real == pytest.approx(k2, rel=1e-10)


def _relabelled(triple, decomposition, blocks):
    """`triple`'s matrices under another class label, block layout or spin."""
    return Su2Triple(triple.o1, triple.o2, triple.o3, decomposition, blocks)


def _rotated(triple):
    """The triple conjugated by expm(-0.4 i O1 / f): same class, O3 no longer diagonal."""
    u = expm(-0.4j * triple.o1.matrix / triple.decomposition.f)
    o1, o2, o3 = (HermitianOperator(u @ op.matrix @ u.conj().T) for op in (triple.o1, triple.o2, triple.o3))
    return Su2Triple(o1, o2, o3, triple.decomposition, triple.blocks)


def _canonical_triple(twice_j, twice_subspins):
    return build_su2_triple(canonical_subset(IrrepDecomposition(SpinQuantum(twice_j), twice_subspins)))


@pytest.mark.parametrize("layout", ["own", "labelled"])
def test_triple_under_another_class_with_equal_f_rejected(layout):
    """At 2J = 7 the {3/2, 3/2} and {2, 0, 0, 0} classes share f = sqrt(4.2), so the
    commutators cannot tell them apart; the O3 spectrum and the block layout can."""
    pair = _canonical_triple(7, (3, 3))
    single = _canonical_triple(7, (4, 0, 0, 0))
    assert pair.decomposition.f == pytest.approx(single.decomposition.f, abs=1e-12)
    blocks = pair.blocks if layout == "own" else single.blocks
    with pytest.raises(NotAnSu2Triple):
        _relabelled(pair, single.decomposition, blocks)


def test_triple_with_shifted_block_offsets_rejected(j32):
    """Vertices {2, 3} put the spin-1 block on levels 1..3; offsets claiming levels
    0..2 have the same sorted spectrum, but the oracle would read the wrong levels."""
    triple = build_su2_triple(_subset(3, {2, 3}))
    assert triple.blocks == ((1, 2), (0, 0))
    with pytest.raises(NotAnSu2Triple, match="multiplets"):
        _relabelled(triple, triple.decomposition, ((0, 2), (3, 0)))


@pytest.mark.parametrize(
    "blocks,message",
    [
        (((0, 1),), "subspins"),
        (((0, 1), (1, 1)), "tile"),
        (((0, 1), (0, 1)), "tile"),  # a duplicate: levels 0..1 twice, 2..3 left out
        (((0, 1), (3, 1)), "tile"),  # levels 3..4 run past 2J + 1 = 4
        (((1, 1), (2, 1)), "tile"),  # ends at level 3 as a tiling does, but level 0 is left out
    ],
)
def test_triple_with_blocks_off_its_class_rejected(triples, blocks, message):
    good = triples["iii"]  # vertices {1, 3}: blocks ((0, 1), (2, 1))
    with pytest.raises(NotAnSu2Triple, match=message):
        _relabelled(good, good.decomposition, blocks)


@pytest.mark.parametrize("twice_j", [5, 1])
def test_triple_matrices_of_another_dimension_rejected(triples, twice_j):
    """4x4 matrices labelled with 2J = 5 or 2J = 1 are refused at construction."""
    j = SpinQuantum(twice_j)
    with pytest.raises(DimensionMismatch, match="matrices"):
        _relabelled(triples["i"], IrrepDecomposition(j, (twice_j,)), ((0, twice_j),))


def test_triple_with_decomposition_of_another_spin_rejected(triples):
    other = IrrepDecomposition(SpinQuantum(5), (5,))  # f = 1, as for the {3/2} class
    with pytest.raises(DimensionMismatch, match="decomposition"):
        _relabelled(triples["i"], other, triples["i"].blocks)


def test_rotated_triples_keep_their_class(triples):
    for triple in triples.values():
        rotated = _rotated(triple)
        assert np.max(np.abs(rotated.o3.matrix - np.diag(rotated.o3.matrix.diagonal()))) > 0.1
        assert equivalence_check(rotated, triple) is True
    pair = _rotated(_canonical_triple(7, (3, 3)))
    assert equivalence_check(pair, _canonical_triple(7, (4, 0, 0, 0))) is False
