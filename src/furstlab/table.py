"""The one CSV format of every furstlab table: a header row of column names,
then one row of numbers per record, every row as wide as the header."""

import csv
import io
import itertools

import numpy as np

_ZERO, _MINUS, _COMMA, _NEWLINE = b"0-,\n"


def to_csv(header, rows) -> str:
    """The header line, then one line per row of the 2-D array-like `rows`.

    An integer table is formatted in one array pass (`_int_lines`).  Any
    other table goes through csv.writer, which writes a float as Python's
    shortest round-trip repr; numpy has no byte-identical form of that
    formatting, and that is the only reason the two paths exist.  Both
    write the same bytes for an integer table.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    table = np.asarray(rows)
    if table.dtype.kind in "iu" and table.ndim == 2 and table.shape[1] > 0:
        return buf.getvalue() + _int_lines(table)
    w.writerows(table.tolist())
    return buf.getvalue()


def _int_lines(table: np.ndarray) -> str:
    """The rows of a 2-D integer array as comma-separated decimal lines.

    Each value gets a fixed slot of a sign, d digits (d those of the
    largest magnitude) and a separator in one (m, c, d + 2) uint8 buffer,
    filled by d rounds of divmod by 10 on the magnitudes; a mask then drops
    the absent signs and the leading zeros.  The magnitudes are taken as
    uint64, so -2^63 does not overflow, and as int32 when all are below
    2^31, where the divisions run faster.
    """
    neg = table < 0
    mag = table.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # two's complement: |v| for every int64 v
    top = int(mag.max(initial=0))
    if top < 1 << 31:
        mag = mag.astype(np.int32)
    d = len(str(top))
    m, c = table.shape
    buf = np.empty((m, c, d + 2), dtype=np.uint8)
    keep = np.empty(buf.shape, dtype=bool)
    buf[:, :, 0], keep[:, :, 0] = _MINUS, neg
    for i in range(d):  # digit i from the right is kept if it is the last or |v| >= 10^i
        keep[:, :, d - i] = mag > 0 if i else True
        mag, digit = np.divmod(mag, 10)
        np.add(digit, _ZERO, out=buf[:, :, d - i], casting="unsafe")
    buf[:, :, -1], keep[:, :, -1] = _COMMA, True
    buf[:, -1, -1] = _NEWLINE
    return buf[keep].tobytes().decode("ascii")


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
    values = map(dtype, itertools.chain.from_iterable(rows[1:]))
    try:
        table = np.fromiter(values, dtype=dtype, count=(len(rows) - 1) * width)
    except OverflowError:
        raise ValueError("CSV integer outside the int64 range") from None
    if not np.isfinite(table).all():
        raise ValueError("CSV values must be finite")
    return table.reshape(-1, width)
