"""furstlab: a desk-scale laboratory for Grassmannian metrics, Furstenberg
and Kakeya set bounds, box-counting dimension, point-hyperplane duality, and
exact finite-field incidence combinatorics."""

from .bounds import (
    BoundParams,
    BoundReport,
    FFBoundReport,
    InapplicableBound,
    alpha_affine_step,
    bound_hera,
    bound_spread_general,
    bound_spread_hyperplane,
    bound_spread_main,
    bound_survey,
    compute_k0,
    ff_bound_exponents,
)
from .dimension import (
    DimensionEstimate,
    GridSet,
    box_count,
    cantor_grid,
    estimate_dimension,
    family_dimension,
    flat_slice,
    grid_from_points,
    sharp_hyperplane_example,
    slicing_product_example,
)
from .duality import (
    GraphHyperplane,
    MapsToInfinityError,
    ProjectiveMap,
    SpreadifyReport,
    VerticalHyperplaneError,
    apply_projective,
    dualize_hyperplane,
    dualize_point,
    incident,
    marstrand_project,
    projective_to_infinity,
    spreadify,
)
from .finitefield import (
    FFSet,
    SearchBudgetExceeded,
    ff_coset_profile,
    ff_directions,
    ff_is_kakeya,
    ff_is_spread_furstenberg,
    ff_min_kakeya,
    ff_min_spread,
    ff_pigeonhole_verify,
    gaussian_binomial,
)
from .grassmann import (
    AffineFlat,
    Subspace,
    affine_distance,
    ball_measure_estimate,
    grass_distance,
    haar_sample,
    min_rotation,
    sample_subflat,
)
from .maximal import (
    MaximalField,
    TubeSpec,
    delta_scan,
    kakeya_maximal,
    maximal_lp_norm,
    tube_average,
)

__version__ = "0.1.0"
