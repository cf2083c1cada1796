"""pnkit: exact step-function algebra for probabilistic-normed spaces.

Distance distribution functions are finite jump lists, triangle
functions are computed exactly on them, concrete spaces over R^d are
checked against their axioms, and discontinuous interval self-maps get
a distribution-valued discontinuity measure together with searches for
the approximate fixed points it bounds.
"""

from .ddf import (Ddf, ddf_leq, ddf_leq_witness, left_limit_of_infimum,
                  make_epsilon, sibley_distance)
from .discont import (DiscontinuityEstimate, LimitSet, Piece, PiecewiseMap1D,
                      RouteComparison, SampledMap, compare_discontinuity_routes,
                      constant_map, convex_hull, discontinuity_estimate,
                      discontinuity_exact, discontinuity_measure, limit_set)
from .errors import InvalidArgumentError, PnkitError, TheoremViolationError
from .fixpoint import (FixPointReport, KakutaniResult, VerifyResult, find_approx_fixed_point,
                       kakutani_search, verify_approx_fixed_point, verify_batch)
from .neighborhoods import (ContinuityReport, PairwiseReport, PointSet,
                            check_pairwise_image_separation,
                            default_tprime_schedule, in_strong_neighborhood,
                            prob_diameter, strong_t_continuity_test)
from .pn_space import (AxiomReport, PnSpace, Vector, check_axioms, prob_norm,
                       random_vector_pairs)
from .tnorms import TNormAxiomReport, TNormKind, check_tnorm_axioms, tau_apply, tnorm_apply

__all__ = [
    "Ddf", "ddf_leq", "ddf_leq_witness", "left_limit_of_infimum",
    "make_epsilon", "sibley_distance",
    "TNormKind", "TNormAxiomReport", "tnorm_apply", "tau_apply",
    "check_tnorm_axioms",
    "PnSpace", "Vector", "AxiomReport", "prob_norm", "check_axioms",
    "random_vector_pairs",
    "PointSet", "ContinuityReport", "PairwiseReport", "in_strong_neighborhood",
    "prob_diameter", "strong_t_continuity_test", "default_tprime_schedule",
    "check_pairwise_image_separation",
    "Piece", "PiecewiseMap1D", "SampledMap", "LimitSet", "limit_set",
    "convex_hull", "constant_map", "discontinuity_exact",
    "discontinuity_estimate", "discontinuity_measure", "DiscontinuityEstimate",
    "RouteComparison",
    "compare_discontinuity_routes",
    "FixPointReport", "KakutaniResult", "find_approx_fixed_point",
    "kakutani_search", "verify_approx_fixed_point", "verify_batch", "VerifyResult",
    "PnkitError", "InvalidArgumentError", "TheoremViolationError",
]

__version__ = "0.1.0"
