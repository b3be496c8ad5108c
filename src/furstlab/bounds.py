"""Closed-form dimension and cardinality bounds for Furstenberg-type sets.

All formulas are evaluated in exact rational arithmetic (fractions.Fraction)
so that sharpness identities such as "the bound equals n-k+s when the
direction family is full-dimensional" hold exactly, not merely to float
precision.  Formulas outside their hypotheses raise InapplicableBound; the
survey catches those and flags the entry instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, float, str, Fraction]

POSITIVE_MEASURE = "positive Lebesgue measure"

# Every surveyed value is at most quadratic in n, so n <= 2**500 keeps each
# one below 2**1024, within the float range its report prints it in.
MAX_N = 2**500


class InapplicableBound(ValueError):
    """A bound was evaluated outside the hypotheses of its theorem."""


def as_fraction(x: RationalLike) -> Fraction:
    """Exact conversion; floats are taken at their binary value."""
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    return Fraction(x)


@dataclass(frozen=True)
class BoundParams:
    """Parameter tuple (n, k, s, t) for an (s,t;k)-family problem in R^n."""

    n: int
    k: int
    s: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", as_fraction(self.s))
        object.__setattr__(self, "t", as_fraction(self.t))
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"need 2 <= n <= 2**500, got n={self.n}")
        if not (1 <= self.k <= self.n - 1):
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")
        if not (0 < self.s <= self.k):
            raise ValueError(f"need 0 < s <= k, got s={self.s}")
        if not (0 <= self.t <= (self.k + 1) * (self.n - self.k)):
            raise ValueError(f"need 0 <= t <= (k+1)(n-k), got t={self.t}")


@dataclass(frozen=True)
class BoundEntry:
    name: str
    applicable: bool
    value: Optional[Fraction] = None
    flag: Optional[str] = None  # e.g. POSITIVE_MEASURE

    def as_dict(self) -> dict:
        d = {"name": self.name, "applicable": self.applicable}
        if self.value is not None:
            d["value"] = float(self.value)
            d["value_exact"] = str(self.value)
        if self.flag is not None:
            d["flag"] = self.flag
        return d


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of every surveyed bound at one parameter tuple."""

    params: BoundParams
    entries: tuple
    best_name: Optional[str]
    best_value: Optional[Fraction]

    def as_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "k": self.params.k,
                "s": str(self.params.s),
                "t": str(self.params.t),
            },
            "entries": [e.as_dict() for e in self.entries],
            "best": None
            if self.best_name is None
            else {
                "name": self.best_name,
                "value": float(self.best_value),
                "value_exact": str(self.best_value),
            },
        }


@dataclass(frozen=True)
class FFBoundReport:
    """Cardinality exponents for spread Furstenberg sets over F_q^n."""

    polynomial_method: Fraction
    pair_counting: Fraction
    zhang_upper: Fraction
    ddl_lower: Fraction

    def as_dict(self) -> dict:
        return {
            name: {"value": float(v), "value_exact": str(v)}
            for name, v in (
                ("polynomial_method", self.polynomial_method),
                ("pair_counting", self.pair_counting),
                ("zhang_upper", self.zhang_upper),
                ("ddl_lower", self.ddl_lower),
            )
        }


def compute_k0(n: int) -> int:
    """Smallest positive integer k0 with (7/3) * 2^(k0-2) + k0 >= n."""
    if n < 2:
        raise ValueError("need n >= 2")
    k0 = 1
    while Fraction(7, 3) * Fraction(2) ** (k0 - 2) + k0 < n:
        k0 += 1
    return k0


def bound_spread_general(p: BoundParams, k0: int) -> Fraction:
    """n - k + s - (k(n-k) - t) / (ceil(s) - k0 + 1), for k >= k0+1, s > k0."""
    n, k, s, t = p.n, p.k, p.s, p.t
    if k < k0 + 1:
        raise InapplicableBound(f"need k >= k0+1 = {k0 + 1}, got k = {k}")
    if not s > k0:
        raise InapplicableBound(f"need s > k0 = {k0}, got s = {s}")
    if not (0 < t <= k * (n - k)):
        raise InapplicableBound(f"need 0 < t <= k(n-k) = {k * (n - k)}, got t = {t}")
    return n - k + s - Fraction(k * (n - k) - t, math.ceil(s) - k0 + 1)


def bound_spread_main(p: BoundParams) -> Fraction:
    """bound_spread_general at the Besicovitch-range threshold k0(n)."""
    return bound_spread_general(p, compute_k0(p.n))


def bound_spread_hyperplane(n: int, s: RationalLike, t: RationalLike) -> Fraction:
    """1 + s - (n-1-t)/ceil(s) for spread hyperplane families.

    Applicable for n >= 3, s in (1, n-1], t in (0, n-1].
    """
    s, t = as_fraction(s), as_fraction(t)
    if n < 3:
        raise InapplicableBound(f"need n >= 3, got n = {n}")
    if not (1 < s <= n - 1):
        raise InapplicableBound(f"need 1 < s <= n-1, got s = {s}")
    if not (0 < t <= n - 1):
        raise InapplicableBound(f"need 0 < t <= n-1, got t = {t}")
    return 1 + s - Fraction(n - 1 - t, math.ceil(s))


def bound_hera(p: BoundParams) -> Fraction:
    """s + (t - (k - ceil(s))(n-k)) / (ceil(s) + 1) for (s,t;k)-families."""
    n, k, s, t = p.n, p.k, p.s, p.t
    return s + Fraction(t - (k - math.ceil(s)) * (n - k), math.ceil(s) + 1)


def bound_hkm(p: BoundParams) -> Fraction:
    """2s + min(t, 1) - k."""
    return 2 * p.s + min(p.t, Fraction(1)) - p.k


def bound_oberlin_fm(p: BoundParams):
    """2k - k(n-k) + t, or the POSITIVE_MEASURE flag for large t.

    Oberlin's and Falconer-Mattila's bounds are for sets that contain whole
    k-planes, so they apply only at s = k.  For s < k a product C x
    [0,1]^(n-k) with a Cantor set C of dimension s is an (s, t; k) set for
    every t <= k(n-k), of dimension n - k + s, below 2k - k(n-k) + t at
    (2, 1, 1/2, 1) and of zero measure.
    """
    n, k, t = p.n, p.k, p.t
    if p.s != k:
        raise InapplicableBound(f"only for families of whole k-planes (s = k = {k}), got s = {p.s}")
    if t <= (k + 1) * (n - k) - k:
        return 2 * k - k * (n - k) + t
    return POSITIVE_MEASURE


def bound_dov(p: BoundParams) -> Fraction:
    """2s + 2 - n - (t-1)(n-1-s)/(n-1), hyperplane families with t in (1, n]."""
    n, k, s, t = p.n, p.k, p.s, p.t
    if k != n - 1:
        raise InapplicableBound("only for hyperplane families (k = n-1)")
    if not (1 < t <= n):
        raise InapplicableBound(f"need 1 < t <= n, got t = {t}")
    return 2 * s + 2 - n - Fraction((t - 1) * (n - 1 - s), n - 1)


def bound_ren_wang(p: BoundParams) -> Fraction:
    """min(s+t, (3s+t)/2, s+1) for line families in the plane."""
    if (p.n, p.k) != (2, 1):
        raise InapplicableBound("only for n = 2, k = 1")
    if not (0 < p.t <= 2):
        raise InapplicableBound(f"need 0 < t <= 2, got t = {p.t}")
    s, t = p.s, p.t
    return min(s + t, Fraction(3 * s + t, 2), s + 1)


def bound_corollary_hyperplane(p: BoundParams) -> Fraction:
    """bound_spread_hyperplane at min(t, n-1), for hyperplane families."""
    if p.k != p.n - 1:
        raise InapplicableBound("only for hyperplane families (k = n-1)")
    return bound_spread_hyperplane(p.n, p.s, min(p.t, Fraction(p.n - 1)))


# The surveyed bounds, in report order.
_SURVEY = (
    ("oberlin_falconer_mattila", bound_oberlin_fm),
    ("hera_keleti_mathe", bound_hkm),
    ("hera", bound_hera),
    ("dabrowski_orponen_villa", bound_dov),
    ("ren_wang", bound_ren_wang),
    ("spread_hyperplane_corollary", bound_corollary_hyperplane),
    ("spread_main", bound_spread_main),
)


def bound_survey(p: BoundParams) -> BoundReport:
    """Evaluate every surveyed bound at p, flagging inapplicable ones."""
    entries = []
    for name, fn in _SURVEY:
        try:
            value = fn(p)
        except InapplicableBound:
            entries.append(BoundEntry(name, False))
            continue
        flag = value if isinstance(value, str) else None
        entries.append(BoundEntry(name, True, None if flag else value, flag))

    numeric = [(e.name, e.value) for e in entries if e.value is not None]
    best_name, best_value = (None, None) if not numeric else max(numeric, key=lambda nv: nv[1])
    return BoundReport(p, tuple(entries), best_name, best_value)


def ff_bound_exponents(n: int, k: int, s: RationalLike) -> FFBoundReport:
    """The four finite-field cardinality exponents at (n, k, s)."""
    s = as_fraction(s)
    if n > MAX_N:
        raise ValueError(f"need n <= 2**500, got n={n}")
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if not (0 < s <= k):
        raise ValueError(f"need 0 < s <= k, got s={s}")
    return FFBoundReport(
        polynomial_method=n * s,
        pair_counting=s + Fraction(n - 1, 2),
        zhang_upper=Fraction((n + 1), 2) * s + Fraction(n - 1, 2),
        ddl_lower=n - k + s,
    )
