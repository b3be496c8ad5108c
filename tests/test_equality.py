import numpy as np
import pytest

from furstlab.dimension import cantor_grid, sharp_hyperplane_example
from furstlab.duality import GraphHyperplane, ProjectiveMap, SpreadifyReport
from furstlab.finitefield import FFSet, ff_min_kakeya
from furstlab.grassmann import AffineFlat, Subspace
from furstlab.maximal import MaximalField

E1 = [[1.0], [0.0]]

# Each entry builds two objects with array fields; the pair holds equal
# arrays or two bases of one subspace, where field-wise == used to raise.
PAIRS = {
    "Subspace": lambda: (Subspace(2, 1, [[1], [0]]), Subspace(2, 1, [[-1], [0]])),
    "AffineFlat": lambda: tuple(AffineFlat(Subspace(2, 1, E1), [0.0, 0.5]) for _ in range(2)),
    "GridSet": lambda: (cantor_grid(1, 3, [0, 2], 3), cantor_grid(1, 3, [0, 2], 3)),
    "FFSet": lambda: tuple(FFSet(3, 2, [[0, 1], [2, 2]]) for _ in range(2)),
    "SearchResult": lambda: tuple(ff_min_kakeya(2, 2) for _ in range(2)),
    "MaximalField": lambda: tuple(MaximalField(1, 1, np.ones(4)) for _ in range(2)),
    "GraphHyperplane": lambda: tuple(GraphHyperplane([1.0, 2.0], 0.5) for _ in range(2)),
    "ProjectiveMap": lambda: tuple(ProjectiveMap(np.eye(3)) for _ in range(2)),
    "Construction": lambda: tuple(sharp_hyperplane_example(3, 1.5, 2) for _ in range(2)),
    "SpreadifyReport": lambda: tuple(
        SpreadifyReport(np.array([1.0, 0.0]), 0, (1.0,), None, 1.0, 1.0, 3, 3, False, 0)
        for _ in range(2)
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_equality_and_hash_do_not_raise(name):
    a, b = PAIRS[name]()
    assert type(a).__name__ == name
    assert (a == b) in (True, False)
    assert a == a
    assert hash(a) == hash(a)
