"""lpslice: exact low-dimensional affine reformulations of repeated LPs.

The package learns, from a stream of cost vectors, an affine slice
x0 + range(U) of an LP's feasible polytope that provably contains the full
optimal face for every cost seen so far, certifies how often that exactness
generalizes, calibrates a convex working prior from pilot costs when the
true cost distribution is unknown, and benchmarks the learned reformulation
against projection baselines.
"""

from .lp_core import (
    DEFAULT_TOL,
    FeasibilityStatus,
    GeneralLP,
    InternalError,
    Polytope,
    RejectedInstance,
    SolveResult,
    SolveStatus,
    ToleranceSet,
    VariableMap,
    check_feasible_bounded,
    normalize_to_inequality_form,
    solve_lp,
)
from .compression import (
    CompressionModel,
    ContainmentResult,
    RankError,
    append_direction,
    build_reduced_lp,
    check_exact,
    contains_optimal_face,
    in_range,
    lift,
    solve_via_compression,
)
from .learner import Certificate, LearnTrace, certificate_bound, learn, make_anchor, replay_on_hard_subsequence
from .prior import (
    EstimatedPrior,
    Exhausted,
    ScoreParams,
    anchor_cost,
    binomial_cutoff,
    binomial_cutoff_size_bound,
    calibrate,
    composite_certificate,
    fit_score,
    member,
    retain_stream,
    score,
)
from .instances import (
    CostMode,
    CostModel,
    GenerationError,
    Instance,
    ParseError,
    UnsupportedFeature,
    cost_stream,
    gen_instance,
    load_instance,
    make_preset,
    parse_mps,
    sample_costs,
)
from .baselines import ProjectionModel, pca_projection, random_projection, solve_projected
from .oracle import PriorSpec, ScaleError, VertexSet, dir_star, enumerate_vertices, exact_check_bruteforce, reachable_vertices

__version__ = "0.1.0"
