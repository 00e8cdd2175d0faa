"""Unitary equivalence classes of su(2) subalgebras inside su(2J+1).

A class is fixed by the multiset of "subspins" {J_l} in the block
decomposition O_k = f * direct_sum_l lambda_{J_l,k} with sum_l (2J_l+1) =
2J+1, so the classes are the partitions of 2J+1 with a part > 1.  Vertices
chosen on the A_{2J} Dynkin diagram realise a class: each maximal run of l
consecutive chosen vertices contributes a spin-l/2 block over its l+1
magnetic sublevels, and every untouched sublevel a one-dimensional (subspin
0) block; `canonical_subset` lays the blocks out largest first.  The
structure factor

    f = sqrt[ J(J+1)(2J+1) / sum_l J_l(J_l+1)(2J_l+1) ]

makes the direct sum satisfy [O_3, O_+-] = +-f O_+- and [O_+, O_-] = 2f O_3
with unit-norm coefficient vectors in the generator basis.  A triple's J is
its decomposition's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllTrivialSubspins, DimensionMismatch, InvalidInput, NotAnSu2Triple
from .lie_algebra import (
    DIAGONAL_TOL,
    HermitianOperator,
    SpinQuantum,
    _exact_int,
    _multiplet,
    _norm_squared,
    _off_diagonal,
    _pair,
    _sequence,
    _su2_components,
    half_integer_str,
    norm_squared,
)

COMMUTATION_TOL = 1e-9
SPECTRUM_TOL = 1e-7


@dataclass(frozen=True)
class VertexSubset:
    """Nonempty choice of Dynkin vertices, numbered 1..2J."""

    j: SpinQuantum
    chosen: frozenset[int]

    def __post_init__(self) -> None:
        chosen = frozenset(_exact_int(k, "vertex") for k in _sequence(self.chosen, "vertices"))
        object.__setattr__(self, "chosen", chosen)
        if not self.chosen:
            raise InvalidInput("at least one vertex must be chosen, got none")
        bad = [k for k in self.chosen if not 1 <= k <= self.j.twice_j]
        if bad:
            raise InvalidInput(f"vertices {bad} outside 1..{self.j.twice_j}")

    def runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive vertices as (first_vertex, length)."""
        # consecutive vertices share the same vertex - position in sorted order
        groups = itertools.groupby(enumerate(sorted(self.chosen)), key=lambda p: p[1] - p[0])
        return [(run[0][1], len(run)) for run in (list(g) for _, g in groups)]


def structure_factor(twice_subspins, j: SpinQuantum) -> float:
    """Structure constant f for a subspin multiset inside spin J."""
    twice = [_exact_int(t, "2J_l") for t in _sequence(twice_subspins, "2J_l")]
    if min(twice, default=0) < 0:
        raise InvalidInput(f"2J_l must be non-negative, got {twice}")
    if sum(t + 1 for t in twice) != j.dim:
        raise DimensionMismatch(
            f"subspins {twice} fill {sum(t + 1 for t in twice)} levels, need {j.dim}"
        )
    denom = sum(_norm_squared(t) for t in twice)
    if denom == 0.0:
        raise AllTrivialSubspins("every subspin is zero")
    return math.sqrt(norm_squared(j) / denom)


@dataclass(frozen=True)
class IrrepDecomposition:
    """One equivalence class: subspins (descending, stored as 2*J_l) and f."""

    j: SpinQuantum
    twice_subspins: tuple[int, ...]
    f: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted((_exact_int(t, "2J_l") for t in _sequence(self.twice_subspins, "2J_l")), reverse=True))
        object.__setattr__(self, "twice_subspins", ordered)
        # validates the dimension count and that some subspin is nonzero
        object.__setattr__(self, "f", structure_factor(ordered, self.j))

    @property
    def r(self) -> int:
        return len(self.twice_subspins)

    def subspin_strings(self, ascending: bool = False) -> list[str]:
        vals = sorted(self.twice_subspins) if ascending else list(self.twice_subspins)
        return [half_integer_str(t) for t in vals]


def _subset_blocks(subset: VertexSubset) -> list[tuple[int, int]]:
    """The run-length rule as (level offset, 2J_l) blocks in subspin order.

    Runs come longest first, then left to right; untouched levels follow as singlets.
    """
    runs = sorted(((start - 1, t) for start, t in subset.runs()), key=lambda b: (-b[1], b[0]))
    covered = {level for off, t in runs for level in range(off, off + t + 1)}
    singles = [(level, 0) for level in range(subset.j.dim) if level not in covered]
    return runs + singles


def decompose_subset(subset: VertexSubset) -> IrrepDecomposition:
    """Decomposition produced by a vertex subset via the run-length rule."""
    return IrrepDecomposition(subset.j, tuple(t for _, t in _subset_blocks(subset)))


def canonical_subset(decomposition: IrrepDecomposition) -> VertexSubset:
    """A representative vertex subset: blocks laid out left to right, largest first."""
    chosen = []
    level = 1
    for t in decomposition.twice_subspins:
        chosen.extend(range(level, level + t))
        level += t + 1
    if not chosen:
        raise AllTrivialSubspins("no vertices correspond to an all-trivial decomposition")
    return VertexSubset(decomposition.j, tuple(chosen))  # VertexSubset builds the one frozenset


def _partitions(total: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of total into parts of at most `largest`, each descending."""
    if total == 0:
        return [()]
    firsts = range(min(total, largest), 0, -1)
    return [(p,) + rest for p in firsts for rest in _partitions(total - p, p)]


def enumerate_classes(j: SpinQuantum) -> list[IrrepDecomposition]:
    """All distinct classes, sorted by (r, subspins descending-lexicographic).

    One class per partition of 2J+1 with a part > 1; part 2J_l+1 is one block.
    """
    if j.twice_j < 1:
        raise InvalidInput(f"classification needs 2J >= 1, got 2J = {j.twice_j}")
    parts = (p for p in _partitions(j.dim, j.dim) if p[0] > 1)
    classes = [IrrepDecomposition(j, tuple(t - 1 for t in p)) for p in parts]
    classes.sort(key=lambda dec: (dec.r, tuple(-t for t in dec.twice_subspins)))
    return classes


def class_representatives(j: SpinQuantum) -> list[tuple[IrrepDecomposition, VertexSubset]]:
    """Distinct classes paired with their canonical vertex subsets."""
    return [(dec, canonical_subset(dec)) for dec in enumerate_classes(j)]


@dataclass(frozen=True)
class Su2Triple:
    """Concrete matrices (O1, O2, O3) realizing one class, with block layout.

    blocks lists (row_offset, 2*J_l) in the order matching the decomposition's
    subspins, i.e. coherent-state weights zeta_l attach to blocks[l].  The
    constructor is where the class is checked, once: besides the su(2)
    commutators, O3/f must be the union of the blocks' multiplets
    m = J_l ... -J_l.  Every residual is compared as `not resid <= tol`, so a
    NaN fails.

    One switch picks the frame.  A triple is framed when O3 is diagonal: its
    nonzeros lie exactly on the diagonal (every triple `build_su2_triple`
    writes), or `_off_diagonal` reads at most DIAGONAL_TOL.  The answer is kept
    as `framed`, and the oracle reads it there: an unframed triple is refused
    with NotDiagonal, and O3 is tested nowhere else.  A framed O+ = O1 + i O2
    must lie within DIAGONAL_TOL of its first superdiagonal, O+ = diag(p, 1),
    or the triple is refused: an O+ that crosses blocks fits no block layout,
    yet the oracle would twist and rotate each listed block on its own levels.
    The commutators are then their per-level identities in O(d),

        (a_k - a_(k+1) - f) p_k = 0   and   |p_k|^2 - |p_(k-1)|^2 = 2f a_k,

    with O3 = diag(a) and p_-1 = p_(d-1) = 0, and O3 is matched level by
    level, which pins the offsets the oracle reads.  Any other triple, a
    rotated one say, is checked by the dense d x d products and O3 by its
    sorted spectrum, so it keeps its class.  `blocks` is read by the one
    sequence rule: each block is a pair of exact ints, never text or bytes.
    """

    o1: HermitianOperator
    o2: HermitianOperator
    o3: HermitianOperator
    decomposition: IrrepDecomposition
    blocks: tuple[tuple[int, int], ...]
    # derived once: True when O3 is diagonal, the frame the oracle twists in
    framed: bool = field(init=False, repr=False, compare=False)

    @property
    def j(self) -> SpinQuantum:
        """The decomposition's spin: a triple stores its J only there."""
        return self.decomposition.j

    def __post_init__(self) -> None:
        dim, dec = self.j.dim, self.decomposition
        dims = [op.dim for op in (self.o1, self.o2, self.o3)]
        if dims != [dim] * 3:
            raise DimensionMismatch(
                f"the decomposition's 2J = {self.j.twice_j} needs {dim}x{dim} matrices, got {dims}"
            )
        f = dec.f
        o1, o2, o3 = self.o1.matrix, self.o2.matrix, self.o3.matrix
        plus = o1 + 1j * o2
        levels, ladder = o3.diagonal(), plus.diagonal(1)
        # the exact count first, so a built triple never pays the off-diagonal reads
        framed = np.count_nonzero(o3) == np.count_nonzero(levels) or _off_diagonal(o3) <= DIAGONAL_TOL
        object.__setattr__(self, "framed", bool(framed))
        if framed:
            if np.count_nonzero(plus) != np.count_nonzero(ladder):
                stray = abs(plus - np.diag(ladder, 1)).max()
                if not stray <= DIAGONAL_TOL:
                    raise NotAnSu2Triple(f"O+ leaves its ladder, the first superdiagonal (by {stray:.3e})")
            raising = abs((levels[:-1] - levels[1:] - f) * ladder).max()
            pops = np.zeros(dim + 1)  # |p_k|^2 at k + 1, with p_-1 = p_(d-1) = 0
            pops[1:-1] = abs(ladder)
            pops **= 2
            closing = abs(pops[1:] - pops[:-1] - 2.0 * f * levels).max()
        else:
            minus = plus.conj().T
            raising = abs(o3 @ plus - plus @ o3 - f * plus).max()
            closing = abs(plus @ minus - minus @ plus - 2.0 * f * o3).max()
        if not raising <= COMMUTATION_TOL:
            raise NotAnSu2Triple(f"[O3, O+] != f O+ (residual {raising:.3e})")
        # [O3, O-] = -f O- is the adjoint of the check above (O3 is Hermitian).  Both
        # are linear in O+, so a rescaled or zero O1, O2 passes them; this one is not.
        if not closing <= COMMUTATION_TOL:
            raise NotAnSu2Triple(f"[O+, O-] != 2f O3 (residual {closing:.3e})")

        pairs = (_pair(block, "a block") for block in _sequence(self.blocks, "blocks"))
        blocks = tuple((_exact_int(off, "block offset"), _exact_int(t, "2J_l")) for off, t in pairs)
        object.__setattr__(self, "blocks", blocks)
        if tuple(t for _, t in blocks) != dec.twice_subspins:
            raise NotAnSu2Triple(f"blocks {blocks} do not list the subspins {dec.twice_subspins}")
        if sorted(lvl for off, t in blocks for lvl in range(off, off + t + 1)) != list(range(dim)):
            raise NotAnSu2Triple(f"blocks {blocks} do not tile the {dim} levels")
        expected = np.empty(dim)
        for off, t in blocks:
            expected[off : off + t + 1] = _multiplet(t)[0]
        if framed:
            observed = levels.real
        else:
            observed, expected = np.linalg.eigvalsh(o3), np.sort(expected)
        resid = abs(observed / f - expected).max()
        if not resid <= SPECTRUM_TOL:
            raise NotAnSu2Triple(f"O3/f is not the blocks' multiplets J_l ... -J_l (residual {resid:.3e})")


def build_su2_triple(subset: VertexSubset) -> Su2Triple:
    """Block direct-sum realization of the subset's class in the m_z basis.

    Each block writes its multiplet m = J_l ... -J_l and its raising ladder
    onto its own levels (a singlet: m = 0 and no ladder); the ladder entries
    between blocks stay zero.  The triple is f times the spin components of
    that one ladder, the same arithmetic as f times each block's
    `spin_matrices`.
    """
    blocks = tuple(_subset_blocks(subset))
    dec = IrrepDecomposition(subset.j, tuple(t for _, t in blocks))
    m = np.zeros(subset.j.dim)
    ladder = np.zeros(subset.j.dim - 1)
    for off, twice_sub in blocks:
        m[off : off + twice_sub + 1], ladder[off : off + twice_sub] = _multiplet(twice_sub)
    o1, o2, o3 = _su2_components(m, ladder, dec.f)
    return Su2Triple(HermitianOperator(o1), HermitianOperator(o2), HermitianOperator(o3), dec, blocks)


def equivalence_check(a: Su2Triple, b: Su2Triple) -> bool:
    """True iff both triples belong to the same class (the same subspin multiset).

    Each triple's matrices were matched to its class at construction, so
    comparing the decompositions compares the matrices.
    """
    if a.j != b.j:
        raise DimensionMismatch("triples live in different su(2J+1) algebras")
    return a.decomposition == b.decomposition
