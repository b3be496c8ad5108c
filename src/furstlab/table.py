"""The one CSV format of every furstlab table: a header row of column names,
then one row of numbers per record, every row as wide as the header."""

import csv
import io

import numpy as np


def to_csv(header, rows) -> str:
    """The header line, then one line per row of the 2-D array-like `rows`."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(np.asarray(rows).tolist())
    return buf.getvalue()


def from_csv(text: str, dtype) -> np.ndarray:
    """The rows under the header as an (m, width) array of `dtype`, int or
    float.  Raises ValueError unless the header exists, every row is as wide
    as it, and every value parses as `dtype`, is finite and fits in int64."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0]:
        raise ValueError("CSV needs a header row")
    width = len(rows[0])
    if any(len(r) != width for r in rows[1:]):
        raise ValueError(f"every CSV row must have {width} columns, as its header does")
    try:
        table = np.array([[dtype(v) for v in r] for r in rows[1:]], dtype=dtype)
    except OverflowError:
        raise ValueError("CSV integer outside the int64 range") from None
    if not np.isfinite(table).all():
        raise ValueError("CSV values must be finite")
    return table.reshape(-1, width)
