"""Feedback-capacity bounds for binary additive multiple-access channels.

Computes, characterizes and cross-verifies the rate regions of the two-user
binary additive noisy channel Y = X1 + X2 + N (N uniform binary) and the
binary erasure channel Y = X1 + X2 with noiseless feedback: the cut-set outer
bound, two dependence-balance outer bounds and their intersection, the
Cover-Leung achievable region, and the erasure feedback capacity region,
together with brute-force oracles that validate every closed form.
"""

__version__ = "0.1.0"

#: the kernels in ``macfb._kernels`` are numpy; there is no other backend
KERNEL_BACKEND = "numpy"

from .bounds import (
    RateConstraintSet,
    Region,
    RegionSpec,
    cover_leung_constraints,
    cover_leung_witness,
    cutset_region_noisy,
    db_pc1_constraints,
    db_pc2_constraints,
    erasure_fb_constraints,
    erasure_fb_constraints_at_triple,
    erasure_fb_witness,
    erasure_nofb_constraints,
    region_boundary,
)
from .channel import (
    Channel,
    InfoQuantities,
    JointInputDistribution,
    cutset_quantities,
    info_quantities,
    output_distribution,
    verify_half_entropy_identity,
)
from .feasible import UTriple, in_P, project_to_lower_face, u_triple_of
from .geometry import BoundaryCurve, RatePair, curve_gap, pareto_filter, support_value
from .infofn import binary_entropy, entropy_k, f2, g_fn, mu_fn, phi, phi_inv, xi
from .oracle import OracleConfig, oracle_max, verify_characterization
from .symrate import (
    SymmetricRateSolution,
    cutset_symmetric_argmax,
    solve_cl_symmetric,
    solve_cutset_symmetric,
    solve_db_symmetric,
)

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "BoundaryCurve",
    "Channel",
    "InfoQuantities",
    "JointInputDistribution",
    "OracleConfig",
    "RateConstraintSet",
    "RatePair",
    "Region",
    "RegionSpec",
    "SymmetricRateSolution",
    "UTriple",
    "binary_entropy",
    "cover_leung_constraints",
    "cover_leung_witness",
    "curve_gap",
    "cutset_quantities",
    "cutset_region_noisy",
    "cutset_symmetric_argmax",
    "db_pc1_constraints",
    "db_pc2_constraints",
    "entropy_k",
    "erasure_fb_constraints",
    "erasure_fb_constraints_at_triple",
    "erasure_fb_witness",
    "erasure_nofb_constraints",
    "f2",
    "g_fn",
    "in_P",
    "info_quantities",
    "mu_fn",
    "oracle_max",
    "output_distribution",
    "pareto_filter",
    "phi",
    "phi_inv",
    "project_to_lower_face",
    "region_boundary",
    "solve_cl_symmetric",
    "solve_cutset_symmetric",
    "solve_db_symmetric",
    "support_value",
    "u_triple_of",
    "verify_characterization",
    "verify_half_entropy_identity",
    "xi",
]
