"""combdim: metric entropy meets combinatorial dimension, at desk scale.

Exact packing and covering numbers of finite function families,
scale-sensitive shattering dimension, separating trees with certified
leaf counts, shattered-center enumeration, randomized separation-
preserving coordinate extraction, Monte-Carlo process suprema with
entropy integrals, and l1-subset extraction for polyhedral norms.
"""

from .constants import DEFAULT_CONSTANTS, ConstantsConfig
from .elton import EltonResult, RudelsonInstance, dual_body, elton_subset, rudelson_example
from .entropy import (
    covering_number,
    is_separated,
    lp_distance,
    packing_number,
    pairwise_distances,
)
from .errors import (
    BudgetError,
    ExtractionError,
    FamilyError,
    IterationCapError,
    NotSeparatedError,
    PipelineError,
    RationalizationError,
    SolverError,
)
from .extraction import (
    ExtractionOutcome,
    acceptance_curve,
    bernstein_bound,
    extract_coordinates,
)
from .family import (
    CoordinateSubset,
    FunctionFamily,
    ProbabilityMeasure,
    discretize,
    gen_random_family,
    load_family,
    save_family,
    uniformize,
)
from .gaussian import (
    SupEstimate,
    entropy_integral,
    gaussian_sup_mc,
    sudakov_ratio,
    vc_integral,
    weight_h,
)
from .geometry import (
    CubeWitness,
    PolyhedralNorm,
    VPolytope,
    convex_vc,
    cube_in_projection,
    ell1_lower_constant,
    point_in_hull,
)
from .septree import (
    Distribution,
    SeparatingTree,
    SplitCertificate,
    build_separating_tree,
    find_separating_coordinate,
    small_dev_split,
    validate_tree,
    variance,
)
from .shattering import (
    Center,
    ShatterWitness,
    enumerate_shattered_centers,
    shatter_witnesses,
    shattered_center_counts,
    shatters,
    vc_curve,
    vc_integer,
    vc_real,
)
from .simplex import LPProblem, LPResult, lp_solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
