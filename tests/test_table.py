"""Every reader of the one CSV table format applies the same checks, and
the writer's integer pass writes the bytes csv.writer writes."""

import numpy as np
import pytest
from reference import csv_table

from furstlab.duality import points_from_csv
from furstlab.finitefield import FFSet
from furstlab.table import from_csv, to_csv

# name -> (reader, the type its values must parse as)
READERS = {
    "points": (points_from_csv, float),
    # `duality spreadify` reads its plane table with the points reader.
    "hyperplanes": (points_from_csv, float),
    # The integer table of `GridSet.to_csv`.
    "grid": (lambda text: from_csv(text, int), int),
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
    assert from_csv(text, int).shape == (0, 3)
    fset = FFSet.from_csv(5, text)
    assert (fset.n, len(fset)) == (3, 0)


_RNG = np.random.default_rng(2024)
# name -> an integer table to_csv writes in its array pass
INT_TABLES = {
    "int64_full_range": _RNG.integers(-2**63, 2**63 - 1, (200, 3), endpoint=True),
    "small_with_negatives": _RNG.integers(-1000, 1000, (500, 2)),
    "int32_range_edges": np.array([[2**31 - 1, -(2**31 - 1)], [2**31, -2**31], [9, -10]]),
    "extremes": np.array([[0, -1, 2**63 - 1, -2**63]]),
    "one_column": _RNG.integers(-50, 50, (40, 1)),
    "zero_rows": np.zeros((0, 3), dtype=np.int64),
    "single_row": np.array([[7, 0, -3]]),
    "uint64_top": np.array([[2**64 - 1, 0], [10, 1]], dtype=np.uint64),
    "int8": _RNG.integers(-128, 128, (30, 4)).astype(np.int8),
}


@pytest.mark.parametrize("name", sorted(INT_TABLES))
def test_integer_table_matches_csv_writer(name):
    rows = INT_TABLES[name]
    header = [f"x{j}" for j in range(rows.shape[1])]
    assert to_csv(header, rows) == csv_table(header, rows)


def test_float_table_stays_on_csv_writer():
    rows = np.array([[0.1, -2.0], [1e-300, 3.0]])
    assert to_csv(["delta", "norm"], rows) == "delta,norm\n0.1,-2.0\n1e-300,3.0\n"


def test_ffset_to_csv_matches_csv_writer():
    f = FFSet(7, 3, _RNG.integers(-20, 20, (60, 3)))
    assert f.to_csv() == csv_table(["x0", "x1", "x2"], f.points)
    assert FFSet.from_csv(7, f.to_csv()).points.tolist() == f.points.tolist()
