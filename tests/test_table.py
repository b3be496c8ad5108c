"""Every reader of the one CSV table format applies the same checks."""

import pytest

from furstlab.dimension import GridSet
from furstlab.duality import hyperplanes_from_csv, points_from_csv
from furstlab.finitefield import FFSet

# name -> (reader, the type its values must parse as)
READERS = {
    "points": (points_from_csv, float),
    "hyperplanes": (hyperplanes_from_csv, float),
    "grid": (lambda text: GridSet.from_csv(text, 8), int),
    "ffset": (lambda text: FFSet.from_csv(5, text), int),
}

# name -> (text, the value type it is malformed for; None for both)
MALFORMED = {
    "empty": ("", None),
    "blank_header": ("\n1,2\n", None),
    "ragged_row": ("x0,x1\n1,2\n3\n", None),
    "header_wider": ("x0,x1,x2\n1,2\n3,4\n", None),
    "not_a_number": ("x0,x1\n1,x\n", None),
    "nan": ("x0,x1\nnan,1\n", None),
    "inf": ("x0,x1\n1,-inf\n", None),
    "fraction": ("x0,x1\n1.5,1\n", int),
    "beyond_int64": (f"x0,x1\n{2**70},1\n", int),
}


@pytest.mark.parametrize(
    "reader, case",
    [(r, c) for r in READERS for c in MALFORMED if MALFORMED[c][1] in (None, READERS[r][1])],
)
def test_malformed_table_raises_value_error(reader, case):
    with pytest.raises(ValueError):
        READERS[reader][0](MALFORMED[case][0])


def test_header_only_table_is_empty_of_header_width():
    text = "x0,x1,x2\n"
    assert points_from_csv(text).shape == (0, 3)
    assert hyperplanes_from_csv(text) == []
    grid = GridSet.from_csv(text, 8)
    assert (grid.n, len(grid)) == (3, 0)
    fset = FFSet.from_csv(5, text)
    assert (fset.n, len(fset)) == (3, 0)
