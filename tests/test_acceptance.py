"""Acceptance suite: the project's release gate, one printed pass/fail line
per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import furstlab as fl
from furstlab import checks
from furstlab.bounds import BoundParams, as_fraction

LOG32 = math.log(2) / math.log(3)


def report(ac: str, ok: bool, detail: str):
    print(f"{ac} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{ac}: {detail}"


def test_ac01_spread_main_exact_and_sharp_at_full_t():
    v = fl.bound_spread_main(BoundParams(7, 4, Fraction(7, 2), Fraction(12)))
    ok = v == Fraction(13, 2)
    rnd = random.Random(20240801)
    checked = 0
    while checked < 100:
        n = rnd.randint(4, 14)
        k0 = fl.compute_k0(n)
        k = rnd.randint(k0 + 1, n - 1)
        s = k0 + Fraction(rnd.randint(1, 60), 60) * (k - k0)
        t = Fraction(k * (n - k))
        got = fl.bound_spread_main(BoundParams(n, k, s, t))
        ok = ok and got == n - k + s
        checked += 1
    report("AC-1", ok, f"(7,4,7/2,12) -> {v}; 100 random full-t tuples equal n-k+s exactly")


def test_ac02_k0_table():
    table = {n: fl.compute_k0(n) for n in (2, 3, 4, 7, 8, 13, 14)}
    expected = {2: 1, 3: 2, 4: 2, 7: 3, 8: 4, 13: 4, 14: 5}
    report("AC-2", table == expected, f"k0 table {table}")


def test_ac03_hera_hyperplane_and_consistency():
    ok = fl.bound_hera(BoundParams(4, 2, Fraction(3, 2), Fraction(4))) == Fraction(17, 6)
    ok = ok and fl.bound_spread_hyperplane(3, Fraction(3, 2), 2) == Fraction(5, 2)
    rnd = random.Random(20240803)
    for _ in range(100):
        n = rnd.randint(3, 12)
        s = 1 + Fraction(rnd.randint(1, 60), 60) * (n - 2)
        t = Fraction(rnd.randint(1, 60), 60) * (n - 1)
        lhs = fl.bound_spread_hyperplane(n, s, t)
        rhs = fl.bound_spread_general(BoundParams(n, n - 1, s, t), 1)
        ok = ok and lhs == rhs
    report("AC-3", ok, "hera 17/6, hyperplane 5/2, 100 random tuples match k0=1 instantiation")


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_ac04_translation_inequality(n, k):
    res = checks.check_translation_inequality(n, k, 10_000, seed=41)
    report(
        "AC-4",
        res.violations == 0,
        f"(n={n},k={k}) 10^4 samples, violations={res.violations}, "
        f"max ratio={res.measured_constant:.6f}",
    )


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_ac05_rotation_pointwise(n, k):
    res = checks.check_rotation_pointwise(n, k, 10_000, seed=42)
    report(
        "AC-5",
        res.violations == 0,
        f"(n={n},k={k}) 10^4 samples, constant 2, violations={res.violations}, "
        f"measured max ratio={res.measured_constant:.6f}",
    )


@pytest.mark.parametrize("n,k,k2", [(4, 2, 1), (5, 3, 2), (6, 5, 3)])
def test_ac06_subflat_transport(n, k, k2):
    res = checks.check_subflat_transport(n, k, k2, 1000, seed=43)
    report(
        "AC-6",
        res.violations == 0 and res.measured_constant <= 10.0,
        f"(n={n},k={k},k'={k2}) 10^3 samples, measured C={res.measured_constant:.6f} <= 10",
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ac07_incidence_equivalence(n):
    rng = np.random.default_rng(500 + n)
    ok = True
    for _ in range(10_000):
        x = rng.uniform(-5, 5, n)
        plane = fl.GraphHyperplane(rng.uniform(-5, 5, n - 1), rng.uniform(-5, 5))
        if rng.random() < 0.5:
            x[-1] = plane.height(x[:-1])
        lhs = fl.incident(x, plane, 1e-9)
        rhs = fl.incident(fl.dualize_hyperplane(plane), fl.dualize_point(x), 1e-9)
        ok = ok and (lhs == rhs)
    report("AC-7", ok, f"n={n}: 10^4 random pairs, dual incidence matches at tol 1e-9")


def test_ac08_ball_measure_scaling():
    u = fl.haar_sample(3, 1, seed=12345)
    big = fl.ball_measure_estimate(u, 0.2, 10**6, seed=99)
    small = fl.ball_measure_estimate(u, 0.1, 10**6, seed=99)
    ratio = big / small
    ok = 4 * 0.7 <= ratio <= 4 * 1.3
    report("AC-8", ok, f"estimate(0.2)/estimate(0.1) = {ratio:.4f} in [2.8, 5.2], 10^6 samples")


def test_ac09_dimension_estimates():
    cantor = fl.cantor_grid(1, 3, [0, 2], 8)
    est = fl.estimate_dimension(cantor, 4, 8)
    ok = abs(est.slope - LOG32) <= 0.05
    square = fl.cantor_grid(2, 2, [0, 1], 8)
    est2 = fl.estimate_dimension(square, 2, 8)
    ok = ok and abs(est2.slope - 2.0) <= 1e-9
    report(
        "AC-9",
        ok,
        f"middle-thirds slope {est.slope:.4f} (target {LOG32:.4f} +-0.05); "
        f"square slope {est2.slope:.12f}",
    )


def test_ac10_sharp_hyperplane_example():
    ex = fl.sharp_hyperplane_example(4, 1.5, depth=3)
    centers = ex.grid.centers()
    containment = max(
        float(np.abs(centers @ f.direction.complement_basis()[:, 0]).max())
        for f in ex.flats
    )
    ok = containment <= 2.0**-3
    est = fl.family_dimension([f.direction for f in ex.flats], 2, 6)
    ok = ok and abs(est.slope - 1.0) <= 0.15
    s_star = as_fraction(ex.achieved_dimension)
    t = 4 - 1 - math.ceil(ex.achieved_dimension)
    ok = ok and fl.bound_spread_hyperplane(4, s_star, t) == s_star
    report(
        "AC-10",
        ok,
        f"containment {containment:.2e} <= 2^-3; family dim {est.slope:.3f} ~ 1; "
        f"bound at achieved s={float(s_star):.4f}, t={t} equals s exactly",
    )


def test_ac11_finite_field_suite():
    ok = len(fl.ff_directions(3, 2, 1)) == 4
    res = fl.ff_min_kakeya(2, 2)
    ok = ok and res.size == 3 and fl.ff_is_kakeya(res.witness)
    universe = list(itertools.product(range(3), repeat=2))
    subsets = list(itertools.combinations(universe, 6))
    ok = ok and len(subsets) == 84
    for sub in subsets:
        ok = ok and fl.ff_pigeonhole_verify(fl.FFSet(3, 2, frozenset(sub)), 1)
    ok = ok and fl.ff_min_spread(2, 2, 1, 2).size == 3
    report(
        "AC-11",
        ok,
        "4 directions in F_3^2; min kakeya(2,2)=3 with valid witness; "
        "pigeonhole on all 84 six-point subsets; min spread(2,2,1,2)=3",
    )


def test_ac12_marstrand_projections():
    dust = fl.cantor_grid(2, 3, [0, 2], 7)
    centers = dust.centers()
    rng = np.random.default_rng(7)
    good = 0
    for _ in range(100):
        u = fl.haar_sample(2, 1, rng)
        proj = fl.marstrand_project(centers, u)
        est = fl.estimate_dimension(fl.grid_from_points(proj, 10), 5, 10)
        good += abs(est.slope - 1.0) <= 0.12
    report(
        "AC-12",
        good >= 90,
        f"dust of dim {2 * LOG32:.3f}: {good}/100 Haar directions project "
        "within 0.12 of min(dim, 1) = 1",
    )


def test_ac13_spreadify_horizontal_lines():
    rng = np.random.default_rng(5)
    b = (np.arange(1000) + 0.05 + 0.9 * rng.random(1000)) / 1000
    planes = [fl.GraphHyperplane(np.array([0.0]), float(v)) for v in b]
    xs = rng.random((1000, 5))
    pts = np.stack([xs, np.repeat(b[:, None], 5, axis=1)], axis=2).reshape(-1, 2)
    _, _, rep = fl.spreadify(pts, planes, (2, 6), seed=11, ndirs=25)
    ok = (
        rep.initial_direction_dimension <= 0.1
        and rep.final_direction_dimension >= 0.85
        and rep.incidences_before == rep.incidences_after
    )
    report(
        "AC-13",
        ok,
        f"direction dim {rep.initial_direction_dimension:.3f} -> "
        f"{rep.final_direction_dimension:.3f}; incidences "
        f"{rep.incidences_before} == {rep.incidences_after}",
    )


def test_ac14_maximal_suite():
    f = fl.MaximalField.ball_indicator(2, 7)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        u = fl.haar_sample(2, 1, rng)
        worst = max(worst, abs(fl.kakeya_maximal(f, u, 0.05, 0.025) - 1.0))
    ok = worst <= 1e-12

    # monotonicity battery
    vals = rng.random((256, 256))
    small = fl.MaximalField(2, 7, vals)
    large = fl.MaximalField(2, 7, vals + rng.random((256, 256)))
    for seed in range(5):
        u = fl.haar_sample(2, 1, seed)
        ok = ok and fl.kakeya_maximal(small, u, 0.05, 0.025) <= (
            fl.kakeya_maximal(large, u, 0.05, 0.025) + 1e-12
        )

    # translation covariance battery
    c = np.array([0.2, -0.1])
    bump = fl.MaximalField.from_function(
        2, 6, lambda x: np.exp(-4 * np.linalg.norm(x - c, axis=1) ** 2)
    )
    u = fl.haar_sample(2, 1, 0)
    base = fl.kakeya_maximal(bump, u, 0.125, 0.0625)
    shifted = fl.kakeya_maximal(bump.translated([4, -6]), u, 0.125, 0.0625)
    ok = ok and abs(shifted - base) <= 2.0 ** (-6 + 2)

    report(
        "AC-14",
        ok,
        f"ball indicator maximal = 1 within {worst:.2e} over 20 directions at "
        "delta 0.05; monotonicity and translation covariance hold",
    )


def test_ac15_cli_determinism(tmp_path):
    bounds_cfg = tmp_path / "bounds.json"
    bounds_cfg.write_text(json.dumps({"tuples": [{"n": 7, "k": 4, "s": "7/2", "t": 12}]}))
    search_cfg = tmp_path / "search.json"
    search_cfg.write_text(json.dumps({"q": 2, "n": 2, "mode": "kakeya"}))
    blobs = {"bounds": [], "search": []}
    for run in ("r1", "r2"):
        for name, cfg, sub in (
            ("bounds", bounds_cfg, ["bounds", "eval"]),
            ("search", search_cfg, ["ff", "search"]),
        ):
            out = tmp_path / f"{name}_{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "furstlab.cli", *sub,
                 "--config", str(cfg), "--seed", "17", "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            files = sorted(p.name for p in out.iterdir())
            blobs[name].append([(f, (out / f).read_bytes()) for f in files])
    ok = blobs["bounds"][0] == blobs["bounds"][1] and blobs["search"][0] == blobs["search"][1]
    report("AC-15", ok, "bounds eval and ff search outputs byte-identical across reruns")
