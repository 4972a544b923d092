"""lpslice: exact low-dimensional affine reformulations of repeated LPs.

The package learns, from a stream of cost vectors, an affine slice
x0 + range(U) of an LP's feasible polytope that provably contains the full
optimal face for every cost seen so far, certifies how often that exactness
generalizes, calibrates a convex working prior from pilot costs when the
true cost distribution is unknown, and benchmarks the learned reformulation
against projection baselines.
"""

from .lp_core import (
    FeasibilityStatus,
    GeneralLP,
    InternalError,
    Polytope,
    RejectedInstance,
    SolveResult,
    SolveStatus,
    check_feasible_bounded,
    normalize_to_inequality_form,
    solve_lp,
)
from .compression import (
    CompressionModel,
    ContainmentResult,
    RankError,
    check_exact,
    contains_optimal_face,
    solve_via_compression,
)
from .learner import certificate_bound, learn, make_anchor
from .prior import (
    anchor_cost,
    binomial_cutoff,
    binomial_cutoff_size_bound,
    calibrate,
    composite_certificate,
    fit_score,
    retain_stream,
)
from .instances import CostMode, ParseError, UnsupportedFeature, gen_instance, load_instance, make_preset, sample_costs
from .oracle import dir_star, exact_check_bruteforce

__version__ = "0.1.0"
