"""Classification and dynamics of collective spin/multipole squeezing.

The library classifies su(2) subalgebras of su(2J+1) into unitary
equivalence classes via Dynkin vertex subsets, builds concrete observable
triples, evaluates exact one-axis-twisting squeezing dynamics in closed
form, locates squeezing limits and scaling laws, and validates everything
against a brute-force symmetric-subspace simulator.
"""

from .classification import (
    IrrepDecomposition,
    Su2Triple,
    VertexSubset,
    build_su2_triple,
    canonical_subset,
    class_representatives,
    decompose_subset,
    enumerate_classes,
    equivalence_check,
    structure_factor,
)
from .coherent_dynamics import (
    CoherentSpec,
    EnsembleSpec,
    LimitResult,
    SqueezeTrace,
    asymptotic_limit_r1,
    css_expectation_perp,
    css_fluctuation,
    find_limit,
    oat_spec,
    squeeze_trace,
)
from .exact_oracle import (
    FockBasis,
    OracleWorkspace,
    SymmetricState,
    build_basis,
    coherent_state,
    compare_with_oracle,
    expectation,
    second_quantize,
    variance,
)
from .lie_algebra import (
    GeneratorSet,
    HermitianOperator,
    SpinQuantum,
    commutator,
    expand_observable,
    expansion_coefficients,
    multipole_basis,
    norm_squared,
    spin_matrices,
)
from .root_system import (
    CartanChoice,
    RootDatum,
    compute_roots,
    default_cartan,
)
from .scan_fit import FitResult, ScanConfig, ScanRow, fit_power_law, n_scan, zeta_scan

__version__ = "0.1.0"

__all__ = [
    "CartanChoice",
    "CoherentSpec",
    "EnsembleSpec",
    "FitResult",
    "FockBasis",
    "GeneratorSet",
    "HermitianOperator",
    "IrrepDecomposition",
    "LimitResult",
    "OracleWorkspace",
    "RootDatum",
    "ScanConfig",
    "ScanRow",
    "SpinQuantum",
    "SqueezeTrace",
    "Su2Triple",
    "SymmetricState",
    "VertexSubset",
    "asymptotic_limit_r1",
    "build_basis",
    "build_su2_triple",
    "canonical_subset",
    "class_representatives",
    "coherent_state",
    "commutator",
    "compare_with_oracle",
    "compute_roots",
    "css_expectation_perp",
    "css_fluctuation",
    "decompose_subset",
    "default_cartan",
    "enumerate_classes",
    "equivalence_check",
    "expand_observable",
    "expansion_coefficients",
    "expectation",
    "find_limit",
    "fit_power_law",
    "multipole_basis",
    "n_scan",
    "norm_squared",
    "oat_spec",
    "second_quantize",
    "spin_matrices",
    "squeeze_trace",
    "structure_factor",
    "variance",
    "zeta_scan",
    "__version__",
]
