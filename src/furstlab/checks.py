"""Randomized property suites for the subspace-metric inequalities.

Each check draws seeded Monte Carlo samples in fixed-size chunks through an
array kernel and reports the violation count together with the measured
extremal constant, so the CLI can print both a verdict and how much slack
the inequality had.  The same seed gives the same report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grassmann import (
    _CHUNK,
    _ball_hits,
    _direct_rotation_batch,
    _grass_distance_batch,
    _matvec,
    _perp,
    _subflat_batch,
    haar_projector_batch,
    haar_sample,
)
from .tolerances import TOL_INEQ

# The transport constant C allowed in check_subflat_transport.
_SUBFLAT_ALLOWED = 10.0
# Relative window around 2^(k(n-k)) that check_ball_scaling accepts.
_BALL_REL_WINDOW = 0.3
# Expected draws within delta/2 of a line that a ball-scaling run must have:
# at 200 the window above is about 4.9 standard deviations of the ratio of
# nested hit counts, so fewer samples measure noise, not the scaling.
BALL_MIN_HITS = 200


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    violations: int
    measured_constant: float
    allowed_constant: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "violations": self.violations,
            "measured_constant": self.measured_constant,
            "allowed_constant": self.allowed_constant,
            "passed": self.passed,
        }


def _run(suites: dict, samples: int, kernel) -> list:
    """Count violations of lhs <= allowed * scale over `samples` draws, for
    each suite of `suites` (name -> allowed constant), in its order.

    kernel(m) draws m samples and returns a dict of each suite's (lhs,
    scale) arrays; a skipped draw has lhs = scale = 0.  Draws go through
    chunks of _CHUNK, and a suite's measured constant is its largest
    lhs / scale with scale > 1e-12.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    violations, worst = dict.fromkeys(suites, 0), dict.fromkeys(suites, 0.0)
    for start in range(0, samples, _CHUNK):
        for name, (lhs, scale) in kernel(min(_CHUNK, samples - start)).items():
            violations[name] += int(np.count_nonzero(lhs > suites[name] * scale + TOL_INEQ))
            pos = scale > 1e-12
            worst[name] = max(worst[name], float((lhs[pos] / scale[pos]).max(initial=0.0)))
    return [CheckResult(name, samples, violations[name], worst[name], allowed)
            for name, allowed in suites.items()]


def _pairs(n: int, k: int, m: int, rng):
    """m Haar pairs of (m, n, k) bases U, V and their distances d_G(U, V)."""
    u = haar_projector_batch(n, k, m, rng)
    v = haar_projector_batch(n, k, m, rng)
    return u, v, _grass_distance_batch(u, v)


def _perp_offsets(u: np.ndarray, rng, max_norm: float):
    """Offsets a in U-perp, uniform in direction with |a| uniform in
    [0, max_norm), and the mask of usable draws: a Gaussian that falls
    within 1e-12 of U (every draw when k = n) is skipped."""
    g = _perp(u, rng.standard_normal(u.shape[:-1]))
    norm = np.linalg.norm(g, axis=-1)
    a = g * (rng.uniform(0.0, max_norm, len(g)) / np.maximum(norm, 1e-12))[:, None]
    return a, norm >= 1e-12


# The suites of check_pair_suites, in report order: name -> allowed constant.
_PAIR_SUITES = {
    "translation_inequality": 1.0,
    "rotation_pointwise": 2.0,
    "min_rotation_norm": float(np.sqrt(2.0)),
}


def check_pair_suites(n: int, k: int, samples: int, seed=None) -> list:
    """The pair suites of _PAIR_SUITES on one stream of Haar pairs of
    k-subspaces of R^n, one CheckResult each, in that order.

    Each chunk draws its pairs (U, V) and d_G(U, V) once, from
    default_rng(seed), and forms the direct rotations R_{U,V} once for both
    rotation suites.  The translation and rotation-pointwise suites draw
    their offsets and vectors from two child streams spawned from that
    generator, which leaves its stream of pairs untouched.

    - translation_inequality: d_A(U+a, V+a) <= (|a|+1) d_G(U,V) for a in
      U-perp, |a| <= 10.  The translate of V is formed by
      re-orthogonalizing the offset (V + a = V + (a - proj_V a)).
    - rotation_pointwise: |(I - R_{U,V}) b| <= 2 |b| d_G(U,V) for b in U.
    - min_rotation_norm: ||I - R_{U,V}|| <= sqrt(2) d_G(U,V).
    """
    rng = np.random.default_rng(seed)
    offset_rng, vector_rng = rng.spawn(2)

    def kernel(m):
        u, v, d = _pairs(n, k, m, rng)
        a, keep = _perp_offsets(u, offset_rng, 10.0)
        lhs_a = d + np.linalg.norm(a - _perp(v, a), axis=-1)
        rot = _direct_rotation_batch(u, v)
        b = _matvec(u, vector_rng.standard_normal((m, k))) * vector_rng.uniform(0.1, 10.0, (m, 1))
        return {
            "translation_inequality": (lhs_a * keep, (np.linalg.norm(a, axis=-1) + 1.0) * d * keep),
            "rotation_pointwise": (np.linalg.norm(b - _matvec(rot, b), axis=-1), np.linalg.norm(b, axis=-1) * d),
            "min_rotation_norm": (np.linalg.norm(np.eye(n) - rot, 2, axis=(-2, -1)), d),
        }

    return _run(_PAIR_SUITES, samples, kernel)


def check_translation_inequality(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """d_A(U+a, V+a) <= (|a|+1) d_G(U,V) for a in U-perp, |a| <= 10: the
    translation_inequality entry of check_pair_suites."""
    return check_pair_suites(n, k, samples, seed)[0]


def check_rotation_pointwise(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """|(I - R_{U,V}) b| <= 2 |b| d_G(U,V) for b in U: the
    rotation_pointwise entry of check_pair_suites."""
    return check_pair_suites(n, k, samples, seed)[1]


def check_min_rotation_norm(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """||I - R_{U,V}|| <= sqrt(2) d_G(U,V): the min_rotation_norm entry of
    check_pair_suites."""
    return check_pair_suites(n, k, samples, seed)[2]


def check_subflat_transport(n: int, k: int, k2: int, samples: int, seed=None) -> CheckResult:
    """d_A(R X + a, X + a) <= C (r + |a| + 1) d_G(U,V) for subflats X of U
    meeting B(0, r); reports the measured C."""
    rng = np.random.default_rng(seed)

    def kernel(m):
        u, v, d = _pairs(n, k, m, rng)
        r_ball = rng.uniform(0.2, 3.0, m)
        x, x_off = _subflat_batch(u, np.zeros((m, n)), k2, r_ball, rng)
        a, keep = _perp_offsets(u, rng, 5.0)
        rot = _direct_rotation_batch(u, v)
        rx = rot @ x
        gap = _perp(rx, _matvec(rot, x_off) + a) - _perp(x, x_off + a)
        lhs = _grass_distance_batch(rx, x) + np.linalg.norm(gap, axis=-1)
        return {"subflat_transport": (lhs * keep, (r_ball + np.linalg.norm(a, axis=-1) + 1.0) * d * keep)}

    return _run({"subflat_transport": _SUBFLAT_ALLOWED}, samples, kernel)[0]


def check_ball_scaling(n: int, k: int, delta: float, samples: int, seed=None) -> CheckResult:
    """The Haar measure of B(U, delta) scales like delta^(k(n-k)):
    estimate(delta) / estimate(delta/2) should be within the relative
    window of 2^(k(n-k)).  delta must be in (0, 1): every subspace lies
    within distance 1 of U."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    u = haar_sample(n, k, seed=12345)
    big, small = (hits / samples for hits in _ball_hits(u, (delta, delta / 2), samples, seed))
    ratio = big / small if small > 0 else float("inf")
    expected = 2.0 ** (k * (n - k))
    ok = expected * (1 - _BALL_REL_WINDOW) <= ratio <= expected * (1 + _BALL_REL_WINDOW)
    return CheckResult("ball_scaling", samples, 0 if ok else 1, ratio, expected)
