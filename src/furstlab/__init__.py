"""furstlab: a desk-scale laboratory for Grassmannian metrics, Furstenberg
and Kakeya set bounds, box-counting dimension, point-hyperplane duality, and
exact finite-field incidence combinatorics.

The package namespace holds the names the acceptance suite calls as
`furstlab.*`; every other public name is imported from its module."""

from .bounds import (
    bound_hera,
    bound_spread_general,
    bound_spread_hyperplane,
    bound_spread_main,
    compute_k0,
)
from .dimension import (
    cantor_grid,
    estimate_dimension,
    family_dimension,
    grid_from_points,
    sharp_hyperplane_example,
)
from .duality import (
    GraphHyperplane,
    dualize_hyperplane,
    dualize_point,
    incident,
    marstrand_project,
    spreadify,
)
from .finitefield import (
    FFSet,
    ff_directions,
    ff_is_kakeya,
    ff_min_kakeya,
    ff_min_spread,
    ff_pigeonhole_verify,
)
from .grassmann import ball_measure_estimate, haar_sample
from .maximal import MaximalField, kakeya_maximal

__version__ = "0.1.0"
