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
    _direct_rotation_batch,
    _grass_distance_batch,
    _matvec,
    _perp,
    _subflat_batch,
    ball_measure_estimate,
    haar_projector_batch,
    haar_sample,
)
from .tolerances import TOL_INEQ

# The transport constant C allowed in check_subflat_transport.
_SUBFLAT_ALLOWED = 10.0
# Relative window around 2^(k(n-k)) that check_ball_scaling accepts.
_BALL_REL_WINDOW = 0.3


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


def _run(name: str, samples: int, seed, allowed: float, kernel) -> CheckResult:
    """Count violations of lhs <= allowed * scale over `samples` draws.

    kernel(rng, m) draws m samples and returns their (lhs, scale) arrays; a
    skipped draw has lhs = scale = 0.  Draws go through chunks of _CHUNK,
    and the measured constant is the largest lhs / scale with scale > 1e-12.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    violations, worst = 0, 0.0
    for start in range(0, samples, _CHUNK):
        lhs, scale = kernel(rng, min(_CHUNK, samples - start))
        violations += int(np.count_nonzero(lhs > allowed * scale + TOL_INEQ))
        pos = scale > 1e-12
        ratios = lhs[pos] / scale[pos]
        worst = max(worst, float(ratios.max(initial=0.0)))
    return CheckResult(name, samples, violations, worst, allowed)


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


def check_translation_inequality(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """d_A(U+a, V+a) <= (|a|+1) d_G(U,V) for a in U-perp, |a| <= 10.

    The translate of V is formed by re-orthogonalizing the offset
    (V + a = V + (a - proj_V a)).
    """

    def kernel(rng, m):
        u, v, d = _pairs(n, k, m, rng)
        a, keep = _perp_offsets(u, rng, 10.0)
        lhs = d + np.linalg.norm(a - _perp(v, a), axis=-1)
        return lhs * keep, (np.linalg.norm(a, axis=-1) + 1.0) * d * keep

    return _run("translation_inequality", samples, seed, 1.0, kernel)


def check_rotation_pointwise(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """|(I - R_{U,V}) b| <= 2 |b| d_G(U,V) for b in U."""

    def kernel(rng, m):
        u, v, d = _pairs(n, k, m, rng)
        b = _matvec(u, rng.standard_normal((m, k))) * rng.uniform(0.1, 10.0, (m, 1))
        lhs = np.linalg.norm(b - _matvec(_direct_rotation_batch(u, v), b), axis=-1)
        return lhs, np.linalg.norm(b, axis=-1) * d

    return _run("rotation_pointwise", samples, seed, 2.0, kernel)


def check_min_rotation_norm(n: int, k: int, samples: int, seed=None) -> CheckResult:
    """||I - R_{U,V}|| <= sqrt(2) d_G(U,V)."""

    def kernel(rng, m):
        u, v, d = _pairs(n, k, m, rng)
        return np.linalg.norm(np.eye(n) - _direct_rotation_batch(u, v), 2, axis=(-2, -1)), d

    return _run("min_rotation_norm", samples, seed, float(np.sqrt(2.0)), kernel)


def check_subflat_transport(n: int, k: int, k2: int, samples: int, seed=None) -> CheckResult:
    """d_A(R X + a, X + a) <= C (r + |a| + 1) d_G(U,V) for subflats X of U
    meeting B(0, r); reports the measured C."""

    def kernel(rng, m):
        u, v, d = _pairs(n, k, m, rng)
        r_ball = rng.uniform(0.2, 3.0, m)
        x, x_off = _subflat_batch(u, np.zeros((m, n)), k2, r_ball, rng)
        a, keep = _perp_offsets(u, rng, 5.0)
        rot = _direct_rotation_batch(u, v)
        rx = rot @ x
        gap = _perp(rx, _matvec(rot, x_off) + a) - _perp(x, x_off + a)
        lhs = _grass_distance_batch(rx, x) + np.linalg.norm(gap, axis=-1)
        return lhs * keep, (r_ball + np.linalg.norm(a, axis=-1) + 1.0) * d * keep

    return _run("subflat_transport", samples, seed, _SUBFLAT_ALLOWED, kernel)


def check_ball_scaling(n: int, k: int, delta: float, samples: int, seed=None) -> CheckResult:
    """The Haar measure of B(U, delta) scales like delta^(k(n-k)):
    estimate(delta) / estimate(delta/2) should be within the relative
    window of 2^(k(n-k))."""
    u = haar_sample(n, k, seed=12345)
    big = ball_measure_estimate(u, delta, samples, seed)
    small = ball_measure_estimate(u, delta / 2, samples, seed)
    ratio = big / small if small > 0 else float("inf")
    expected = 2.0 ** (k * (n - k))
    ok = expected * (1 - _BALL_REL_WINDOW) <= ratio <= expected * (1 + _BALL_REL_WINDOW)
    return CheckResult("ball_scaling", samples, 0 if ok else 1, ratio, expected)
