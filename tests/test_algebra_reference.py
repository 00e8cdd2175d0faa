"""The constructed algebra layer against the searches it replaced.

The reference functions below are the vertex-mask search over all 2^(2J)
Dynkin subsets and the generator-pair loop over structure constants, kept
here so that the partition construction in `spinsqueeze.classification`
and the stacked adjoint in `spinsqueeze.root_system` are compared with
them: classes, factors and example subsets exactly, structure constants to
1e-12.
"""

import numpy as np
import pytest

from spinsqueeze import (
    SpinQuantum,
    VertexSubset,
    adjoint_representation,
    class_representatives,
    decompose_subset,
    default_cartan,
    multipole_basis,
)
from spinsqueeze.classification import IrrepDecomposition
from spinsqueeze.lie_algebra import commutator, expansion_coefficients

ADJOINT_TOL = 1e-12


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


@pytest.mark.parametrize("twice_j", [3, 5, 7])
def test_adjoint_matches_commutator_expansion(twice_j):
    basis = multipole_basis(SpinQuantum(twice_j))
    cartan = default_cartan(basis)
    rest = [i for i in range(len(basis)) if i not in cartan.indices]
    for c, got in zip(cartan.indices, adjoint_representation(basis, cartan)):
        want = np.array(
            [
                expansion_coefficients(basis, commutator(basis.generators[c], basis.generators[m]))[rest]
                for m in rest
            ]
        )
        assert np.max(np.abs(got - want)) <= ADJOINT_TOL
