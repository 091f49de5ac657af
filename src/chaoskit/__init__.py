"""chaoskit: exact spectral calculus for diffusion Markov generators with
discrete spectrum, plus a Monte Carlo harness for fourth-moment limit theorems.

The building blocks are orthonormal polynomial eigenbases (Hermite, Laguerre,
Jacobi) combined into product spaces; functions are finite spectral expansions
on which the generator L, its pseudo-inverse, the carre du champ Gamma and all
moment functionals act exactly, so limit-theorem quantities can be checked
against closed forms at desk scale.
"""

from .basis import (
    Basis,
    BasisKind,
    gauss_quadrature,
    hermite,
    jacobi,
    laguerre,
    make_basis,
)
from .moments import (
    FmtReport,
    GaussianTarget,
    JointReport,
    a_coeff,
    fmt_report,
    gaussian_mixed,
    joint_report,
    mixed22,
    moment4,
    prop31_bound,
    remainder_r,
    thm33_sides,
    var_gamma,
)
from .montecarlo import SampleBatch, cf_gap, cf_gaps, evaluate, sample, sampled_cf_gaps
from .sequences import SequenceSpec, pair_mixed, spread
from .spectral import (
    ChaosCheck,
    MultiIndex,
    ProductSpace,
    SpectralFn,
    VectorChaosCheck,
    apply_L,
    apply_Linv,
    eigenfunction_eigenvalue,
    gamma,
    inner,
    is_chaotic,
    is_chaotic_vector,
    is_jointly_chaotic,
    multiply,
    product_space,
    project,
    spectrum,
)
from .wiener import SymTensor, contract, multiple_integral, product_formula_check, symmetrize

__version__ = "0.1.0"

__all__ = [
    "Basis", "BasisKind", "hermite", "laguerre", "jacobi", "make_basis",
    "gauss_quadrature",
    "ProductSpace", "product_space", "MultiIndex", "SpectralFn",
    "ChaosCheck", "VectorChaosCheck",
    "inner", "multiply", "apply_L", "apply_Linv", "gamma", "project",
    "spectrum", "eigenfunction_eigenvalue",
    "is_chaotic", "is_jointly_chaotic", "is_chaotic_vector",
    "GaussianTarget", "FmtReport", "JointReport",
    "moment4", "mixed22", "var_gamma", "gaussian_mixed", "a_coeff",
    "thm33_sides", "prop31_bound", "remainder_r", "fmt_report", "joint_report",
    "SymTensor", "symmetrize", "contract", "multiple_integral",
    "product_formula_check",
    "SequenceSpec", "spread", "pair_mixed",
    "SampleBatch", "sample", "evaluate", "cf_gap", "cf_gaps", "sampled_cf_gaps",
    "__version__",
]
