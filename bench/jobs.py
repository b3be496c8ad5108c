"""Job streams of the four benchmark workloads, and the oracle of every job.

A workload is built once per process by `build(name, work_dir, seed)`: it
writes the seeded inputs (configs, CSVs, .rle grids, F_q point sets) under
`work_dir` and returns the job kinds.  Each kind has a list of seeded
variants and one small warm-up job that runs the same code path.  One cycle
runs one variant of every kind, in a fixed order; cycle c uses variant
c mod len(variants).

A job is either an in-process `furstlab.cli.main(argv)` call or a recipe
that calls the public library for a hot path the CLI cannot reach.  Oracles
look only at what a job left behind (its exit code and the files under its
output directory) and run after the job's timer has stopped.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import furstlab.dimension as dim
import furstlab.grassmann as gr
import furstlab.maximal as mx
from furstlab import cli
from furstlab.duality import GraphHyperplane, hyperplanes_to_csv, points_to_csv
from furstlab.finitefield import gaussian_binomial

LOG32 = math.log(2) / math.log(3)
# Acceptance window of the dimension estimates (AC-9).
WINDOW = 0.05
EXIT_OK = 0
EXIT_SCHEMA = 2
# Seeded variants of each kind whose inputs depend on the seed.
VARIANTS = 8


@dataclass
class Job:
    kind: str
    argv: Optional[list] = None
    recipe: Optional[Callable[[], dict]] = None
    check: Callable[[dict], Optional[str]] = lambda artifacts: None
    expect: int = EXIT_OK


@dataclass
class Kind:
    name: str
    variants: list
    warmup: Job


@dataclass
class Workload:
    kinds: list
    # job_tail_s percentile: the highest whole percentile with at least 10
    # jobs beyond it in a run of the benchmark's fixed length on the
    # reference host.
    tail_pct: int

    def cycle(self, c: int) -> list:
        return [k.variants[c % len(k.variants)] for k in self.kinds]


@dataclass
class Record:
    job: Job
    out: Path
    seconds: float
    code: Optional[int] = None
    error: Optional[str] = None
    result: Optional[dict] = None
    artifacts: dict = field(default_factory=dict)
    # Index of the last probe run before the job in the timed loop.
    probe: int = 0


# -- running and judging one job -------------------------------------------


def execute(job: Job, out: Path) -> Record:
    """Run one job, timed from outside; an exception out of the program is
    recorded, not raised.  Library names are looked up at call time, so a
    tracer installed later sees every call."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    code = result = error = None
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(job.argv + ["--out", str(out)])
        else:
            result = job.recipe()
            code = EXIT_OK
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the job's failure is what is measured
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Record(job, out, seconds, code, error, result)


def warmup_dir(work: Path, kind: str) -> Path:
    return work / "out" / f"warm-{kind}"


def collect(rec: Record) -> dict:
    """The files a job left under its output directory (plus a recipe's
    result), read after its timer stopped."""
    arts = {}
    if rec.out.is_dir():
        arts = {p.name: p.read_bytes() for p in sorted(rec.out.iterdir()) if p.is_file()}
    if rec.result is not None:
        arts["result.json"] = json.dumps(rec.result, sort_keys=True).encode()
    rec.artifacts = arts
    return arts


def verdict(rec: Record) -> Optional[str]:
    """None when the job met its documented outcome, else why it failed.

    A reason starting with "raised" is a failed operation; every other
    reason is a wrong output."""
    if rec.error is not None:
        return f"raised {rec.error}"
    if rec.code != rec.job.expect:
        return f"exit {rec.code}, expected {rec.job.expect}"
    try:
        msg = rec.job.check(rec.artifacts)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        msg = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if msg is None else f"oracle: {msg}"


# -- oracles ------------------------------------------------------------------


def _json(arts: dict, name: str):
    return json.loads(arts[name])


def check_estimate(expected: float):
    def check(arts):
        slope = _json(arts, "dimension_estimate.json")["estimate"]["slope"]
        if not abs(slope - expected) <= WINDOW:
            return f"slope {slope:.4f} outside {expected:.4f} +- {WINDOW}"
        return None

    return check


def check_construct(n: int, cells: int):
    def check(arts):
        meta = _json(arts, "dimension_construct.json")
        if meta["cells"] != cells or meta["n"] != n:
            return f"{meta['cells']} cells in R^{meta['n']}, expected {cells} in R^{n}"
        rows = arts["grid.csv"].count(b"\n") - 1
        if rows != cells:
            return f"grid.csv has {rows} rows, expected {cells}"
        if arts["grid.rle"][:5] != b"GRLE" + bytes([n]):
            return "grid.rle header does not match"
        return None

    return check


def directions(q: int, n: int):
    """Line directions of F_q^n, normalized to a leading 1."""
    for v in itertools.product(range(q), repeat=n):
        nz = [c for c in v if c]
        if nz and nz[0] == 1:
            yield np.array(v, dtype=np.int64)


def lines_meet(points, q: int, n: int, m: int) -> bool:
    """Every line direction of F_q^n has a line holding >= m of the points
    (m = q: the set is Kakeya)."""
    pts = np.unique(np.array(points, dtype=np.int64).reshape(-1, n) % q, axis=0)
    if len(pts) == 0:
        return False
    for d in directions(q, n):
        p = int(np.flatnonzero(d)[0])
        reps = (pts - pts[:, [p]] * d) % q
        _, counts = np.unique(reps, axis=0, return_counts=True)
        if counts.max() < m:
            return False
    return True


def check_search(q: int, n: int, m: int, size: int):
    def check(arts):
        rep = _json(arts, "ff_search.json")
        distinct = len({tuple(p) for p in rep["witness"]})
        if rep["size"] != size or distinct != size:
            return f"size {rep['size']} ({distinct} distinct points), pinned {size}"
        if not lines_meet(rep["witness"], q, n, m):
            return "witness misses a direction"
        return None

    return check


def check_ff_verify(spread: bool):
    def check(arts):
        rep = _json(arts, "ff_verify.json")
        keys = ["directions_match", "pigeonhole", "is_kakeya"]
        keys += ["is_spread_furstenberg"] if spread else []
        bad = [k for k in keys if rep.get(k) is not True]
        return f"not true: {bad}" if bad else None

    return check


def check_grassmann(arts):
    results = _json(arts, "grassmann_verify.json")["results"]
    bad = [r["name"] for r in results if not r["passed"]]
    if not results or bad:
        return f"suites failed: {bad}" if bad else "no suites ran"
    return None


def check_spreadify(arts):
    if not _json(arts, "spreadify_report.json")["incidences_preserved"]:
        return "incidences not preserved"
    return None


def _norms_in_unit(norms):
    bad = [v for v in norms if not 0.0 < v <= 1.0]
    if not norms or bad:
        return f"norms outside (0, 1]: {bad}" if bad else "no norms"
    return None


def check_scan(ndeltas: int):
    def check(arts):
        rows = _json(arts, "maximal_scan.json")["rows"]
        if len(rows) != ndeltas:
            return f"{len(rows)} rows, expected {ndeltas}"
        return _norms_in_unit([v for _, v in rows])

    return check


def check_maximal3d(arts):
    return _norms_in_unit([_json(arts, "result.json")["norm"]])


def check_slice(arts):
    # A 1-d grid at most doubles its box count per level, so each log-count
    # increment lies in [0, 1] and so does the least-squares slope.
    slopes = _json(arts, "result.json")["slopes"]
    bad = [s for s in slopes if not -1e-9 <= s <= 1 + 1e-9]
    if not slopes or bad:
        return f"slice slopes outside [0, 1]: {bad}" if bad else "every slice was empty"
    return None


def check_bounds(count: int, best: dict, ff: dict):
    """`best` maps a report index to its exact best value; `ff` maps an
    ff_exponents index to its exact ddl_lower = n - k + s."""

    def check(arts):
        rep = _json(arts, "bounds_eval.json")
        if len(rep["reports"]) != count:
            return f"{len(rep['reports'])} reports, expected {count}"
        for i, value in best.items():
            got = rep["reports"][i]["best"]["value_exact"]
            if Fraction(got) != value:
                return f"report {i}: best {got}, expected {value}"
        for i, value in ff.items():
            got = rep["ff_exponents"][i]["exponents"]["ddl_lower"]["value_exact"]
            if Fraction(got) != value:
                return f"ff_exponents {i}: ddl_lower {got}, expected {value}"
        return None

    return check


def check_untouched(arts):
    # A rejected config leaves no half-written artifacts.
    return f"left artifacts {sorted(arts)}" if arts else None


# -- inputs -------------------------------------------------------------------


class Inputs:
    """Writes a workload's input files under one directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = self.root / name
        if isinstance(data, (bytes, bytearray)):
            path.write_bytes(data)
        else:
            path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        return str(path)

    def cli(self, kind, argv, cfg, check, expect=EXIT_OK, name=None) -> Job:
        path = self.write(f"{name or kind}.json", cfg)
        return Job(kind, argv=list(argv) + ["--config", path], check=check, expect=expect)


def union_of_lines(q: int, n: int, rng, extra: int) -> str:
    """CSV of one full line per direction through a random base point, plus
    `extra` random points: a Kakeya set by construction."""
    pts = set()
    for d in directions(q, n):
        base = rng.integers(0, q, n)
        pts.update(tuple(int(v) for v in (base + t * d) % q) for t in range(q))
    pts.update(tuple(int(v) for v in p) for p in rng.integers(0, q, (extra, n)))
    lines = [",".join(f"x{j}" for j in range(n))]
    lines += [",".join(map(str, p)) for p in sorted(pts)]
    return "\n".join(lines) + "\n"


def spread_family(rng, npoints: int, nplanes: int):
    """Parallel planes in R^3 with well-separated intercepts (intercept
    spread, no direction spread), and points each lying on one of them."""
    cuts = (np.arange(nplanes) + 0.05 + 0.9 * rng.random(nplanes)) / nplanes
    slope = rng.uniform(-0.5, 0.5, 2)
    planes = [GraphHyperplane(slope, float(c)) for c in cuts]
    xy = rng.random((npoints, 2))
    z = xy @ slope + cuts[rng.integers(0, nplanes, npoints)]
    return points_to_csv(np.column_stack([xy, z])), hyperplanes_to_csv(planes)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


# -- fractal --------------------------------------------------------------------


def _estimate_jobs(inp, kind, rng, source: dict, ranges, expected):
    """Variants of one `dimension estimate` kind; each draws its level range
    from `ranges`, the equal-width ranges inside [2, 12] on which the
    estimate of that grid lies in the AC-9 window."""
    jobs = []
    for v in range(VARIANTS):
        lo, hi = ranges[int(rng.integers(len(ranges)))]
        jobs.append(
            inp.cli(kind, ["dimension", "estimate"], {**source, "levels": [lo, hi]},
                    check_estimate(expected), name=f"{kind}-{v}")
        )
    return jobs


def slice_recipe(grid, seed: int, translates: int = 22):
    """A Haar line direction, `translates` parallel line slices of the grid
    at rho = 2^-8, and the dimension of every slice with >= 8 cells."""

    def run():
        u = gr.haar_sample(2, 1, np.random.default_rng(seed))
        w = u.complement_basis()[:, 0]
        slopes = []
        for tau in np.linspace(-0.7, 1.4, translates):
            piece = dim.flat_slice(grid, gr.AffineFlat(u, w * tau), 2.0**-8)
            if len(piece) >= 8:
                slopes.append(dim.estimate_dimension(piece, 3, 8).slope)
        return {"slopes": slopes}

    return run


def fractal(work: Path, rng) -> Workload:
    inp = Inputs(work / "inputs")
    product = dim.slicing_product_example(2, 1, LOG32, 7).grid
    prod7 = inp.write("product7.rle", product.to_rle())
    prod6 = inp.write("product6.rle", dim.slicing_product_example(2, 1, LOG32, 6).grid.to_rle())
    pts, planes = spread_family(rng, 300, 1000)
    spread = {"points": inp.write("points.csv", pts), "hyperplanes": inp.write("planes.csv", planes)}
    small_pts, small_planes = spread_family(rng, 30, 60)
    small = {"points": inp.write("points_small.csv", small_pts),
             "hyperplanes": inp.write("planes_small.csv", small_planes)}
    cantor = {"kind": "cantor", "n": 2, "base": 3, "keep": [0, 2], "depth": 7}
    sharp = {"kind": "sharp_hyperplane", "n": 3, "s": 1.5, "depth": 5}
    prod_dim = 1 + LOG32

    def spreadify(kind, files, seed, name=None):
        cfg = {**files, "levels": [2, 7], "ndirs": 32, "seed": seed}
        return inp.cli(kind, ["duality", "spreadify"], cfg, check_spreadify, name=name)

    warm_est = inp.cli("warm-estimate", ["dimension", "estimate"],
                       {"grid": prod6, "levels": [2, 4]}, check_estimate(prod_dim))
    kinds = [
        Kind("estimate.product7",
             _estimate_jobs(inp, "estimate.product7", rng, {"grid": prod7},
                            [(2, 3), (4, 5), (8, 9)], prod_dim), warm_est),
        Kind("estimate.product6",
             _estimate_jobs(inp, "estimate.product6", rng, {"grid": prod6},
                            [(2, 5), (4, 7)], prod_dim), warm_est),
        Kind("spreadify",
             [spreadify("spreadify", spread, s, f"spreadify-{v}")
              for v, s in enumerate(_seeds(rng, VARIANTS))],
             spreadify("warm-spreadify", small, 0)),
        Kind("estimate.cantor",
             _estimate_jobs(inp, "estimate.cantor", rng, cantor, [(3, 8), (4, 9)], 2 * LOG32),
             inp.cli("warm-cantor", ["dimension", "estimate"], {**cantor, "depth": 4, "levels": [2, 5]},
                     check_estimate(2 * LOG32))),
        Kind("estimate.sharp",
             _estimate_jobs(inp, "estimate.sharp", rng, sharp, [(2, 6), (3, 7)], prod_dim),
             inp.cli("warm-sharp", ["dimension", "estimate"], {**sharp, "depth": 3, "levels": [1, 4]},
                     check_estimate(prod_dim))),
        Kind("slice",
             [Job("slice", recipe=slice_recipe(product, s), check=check_slice)
              for s in _seeds(rng, VARIANTS)],
             Job("slice", recipe=slice_recipe(product, 0, translates=2), check=check_slice)),
    ]
    return Workload(kinds, tail_pct=76)


# -- sampling -----------------------------------------------------------------


def maximal3d_recipe(seed: int, level: int = 4):
    """The codimension-2 maximal function of a random tube union in R^3: one
    tube_average per translate, which the CLI's planar scan never reaches."""

    def run():
        f = mx.random_tube_union_field(3, level, 1 / 4, 10, seed)
        return {"norm": mx.maximal_lp_norm(f, 1, 1 / 4, 2.0, 1, seed)}

    return run


def sampling(work: Path, rng) -> Workload:
    inp = Inputs(work / "inputs")
    kinds = []
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        name = f"grassmann.{n}.{k}"
        path = inp.write(f"{name}.json", {"pairs": [[n, k]], "samples": 200, "subflat_samples": 40})
        warm = inp.cli(f"warm-{name}", ["grassmann", "verify"],
                       {"pairs": [[n, k]], "samples": 20, "subflat_samples": 5}, check_grassmann)
        variants = [Job(name, argv=["grassmann", "verify", "--config", path, "--seed", str(s)],
                        check=check_grassmann) for s in _seeds(rng, VARIANTS)]
        kinds.append(Kind(name, variants, warm))
    for e in (4, 5, 6):
        name = f"scan.delta{e}"
        path = inp.write(f"{name}.json", {"deltas": [2.0**-e], "ntubes": 10, "ndirs": 20})
        warm = inp.cli(f"warm-{name}", ["maximal", "scan"],
                       {"deltas": [2.0**-e], "ntubes": 5, "ndirs": 1}, check_scan(1))
        variants = [Job(name, argv=["maximal", "scan", "--config", path, "--seed", str(s)],
                        check=check_scan(1)) for s in _seeds(rng, VARIANTS)]
        kinds.append(Kind(name, variants, warm))
    kinds.append(Kind(
        "maximal3d",
        [Job("maximal3d", recipe=maximal3d_recipe(s), check=check_maximal3d)
         for s in _seeds(rng, VARIANTS)],
        Job("maximal3d", recipe=maximal3d_recipe(0, level=3), check=check_maximal3d),
    ))
    return Workload(kinds, tail_pct=88)


# -- finite ---------------------------------------------------------------------

# (mode, q, n, m) -> pinned minimum.  Kakeya minima in the plane are the
# Blokhuis-Mazzocca values q(q+1)/2 + (q-1)/2 for odd q (7 and 17 for
# q = 3, 5); (2, 4) runs the exhaustive path, (5, 2) the branch and bound.
PINNED = {
    ("kakeya", 2, 2, 2): 3,
    ("kakeya", 2, 3, 2): 5,
    ("kakeya", 3, 2, 3): 7,
    ("kakeya", 5, 2, 5): 17,
    ("kakeya", 2, 4, 2): 6,
    ("spread", 3, 2, 2): 4,
    ("spread", 5, 2, 2): 4,
    ("spread", 2, 3, 2): 5,
}


def _search(inp, mode, q, n, m):
    cfg = {"q": q, "n": n, "mode": mode}
    if mode == "spread":
        cfg.update({"k": 1, "m": m})
    kind = f"search.{mode}.{q}.{n}"
    return inp.cli(kind, ["ff", "search"], cfg, check_search(q, n, m, PINNED[(mode, q, n, m)]))


def _ff_verify(inp, kind, q, n, k, rng, name):
    cfg = {"q": q, "n": n, "k": k,
           "set_csv": inp.write(f"{name}.csv", union_of_lines(q, n, rng, q ** n // 10))}
    if k == 2:
        # Every plane direction contains a line direction, so some coset
        # holds a full line: q points in all of them.
        cfg["spread"] = {"m": q, "M": gaussian_binomial(n, k, q)}
    return inp.cli(kind, ["ff", "verify"], cfg, check_ff_verify(k == 2), name=name)


BOUNDS_TUPLES = [
    {"n": 7, "k": 4, "s": "7/2", "t": 12},
    {"n": 4, "k": 2, "s": "3/2", "t": 4},
    {"n": 3, "k": 1, "s": "1/2", "t": 1},
    {"n": 5, "k": 3, "s": 2, "t": "5/2"},
]


def _bounds(inp, kind, tuples, name=None):
    ff = [{"n": t["n"], "k": t["k"], "s": t["s"]} for t in tuples]
    cfg = {"tuples": tuples, "ff_exponents": ff}
    best = {0: Fraction(13, 2)} if tuples[0] == BOUNDS_TUPLES[0] else {}
    ddl = {i: t["n"] - t["k"] + Fraction(t["s"]) for i, t in enumerate(tuples)}
    return inp.cli(kind, ["bounds", "eval"], cfg, check_bounds(len(tuples), best, ddl), name=name)


def finite(work: Path, rng) -> Workload:
    inp = Inputs(work / "inputs")
    kinds = []
    # The slow searches warm up on the fastest search of the same path.
    small = {("kakeya", 5, 2, 5): ("spread", 5, 2, 2), ("kakeya", 2, 4, 2): ("kakeya", 2, 3, 2)}
    for key in PINNED:
        if key == ("spread", 2, 3, 2):
            continue  # a sweep job
        job = _search(inp, *key)
        kinds.append(Kind(job.kind, [job], _search(inp, *small.get(key, key))))
    for q, n, k in [(5, 2, 1), (7, 2, 1), (11, 2, 1), (5, 3, 1), (7, 3, 1), (5, 3, 2), (7, 3, 2)]:
        kind = f"ffverify.{q}.{n}.{k}"
        variants = [_ff_verify(inp, kind, q, n, k, rng, f"{kind}-{v}") for v in range(VARIANTS)]
        kinds.append(Kind(kind, variants, _ff_verify(inp, f"warm-{kind}", 3, n, k, rng, f"warm-{kind}")))
    job = _bounds(inp, "bounds", BOUNDS_TUPLES)
    kinds.append(Kind("bounds", [job], job))
    return Workload(kinds, tail_pct=93)


# -- sweep ----------------------------------------------------------------------


def sweep(work: Path, rng) -> Workload:
    inp = Inputs(work / "inputs")
    kinds = []

    def add(*jobs):
        kinds.append(Kind(jobs[0].kind, list(jobs), jobs[0]))

    every_nk = [{"n": n, "k": k, "s": str(Fraction(k, 2)), "t": str(Fraction((k + 1) * (n - k), 2))}
                for n in range(2, 9) for k in range(1, n)]
    add(_bounds(inp, "bounds", every_nk))
    gv = inp.write("verify.json", {"samples": 100, "subflat_samples": 20, "ball_scaling": {}})
    add(*[Job("grassmann", argv=["grassmann", "verify", "--config", gv, "--seed", str(s)],
              check=check_grassmann) for s in _seeds(rng, VARIANTS)])
    add(inp.cli("construct.product", ["dimension", "construct"],
                {"kind": "product", "n": 2, "k": 1, "s": LOG32, "depth": 6},
                check_construct(2, 2**6 * 3**6)))
    cantor3 = inp.cli("construct.cantor", ["dimension", "construct"],
                      {"kind": "cantor", "n": 3, "base": 3, "keep": [0, 2], "depth": 5},
                      check_construct(3, 2**15))
    add(cantor3)
    add(inp.cli("construct.sharp", ["dimension", "construct"],
                {"kind": "sharp_hyperplane", "n": 4, "s": 1.5, "depth": 3},
                check_construct(4, 3**3 * 2**3)))
    # Reads the .rle that the construct.cantor warm-up wrote during set-up.
    written = warmup_dir(work, cantor3.kind) / "grid.rle"
    add(inp.cli("estimate.written", ["dimension", "estimate"],
                {"grid": str(written), "levels": [2, 7]}, check_estimate(3 * LOG32)))
    pts, planes = spread_family(rng, 40, 60)
    files = {"points": inp.write("points.csv", pts), "hyperplanes": inp.write("planes.csv", planes)}
    add(*[inp.cli("spreadify", ["duality", "spreadify"],
                  {**files, "levels": [2, 6], "ndirs": 16, "seed": s}, check_spreadify,
                  name=f"spreadify-{v}") for v, s in enumerate(_seeds(rng, VARIANTS))])
    for q, n in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        kind = f"ffverify.{q}.{n}"
        add(*[_ff_verify(inp, kind, q, n, 1, rng, f"{kind}-{v}") for v in range(VARIANTS)])
    add(_search(inp, "kakeya", 3, 2, 3))
    add(_search(inp, "spread", 2, 3, 2))
    scan = inp.write("scan.json", {"deltas": [1 / 16], "ntubes": 50, "ndirs": 5})
    add(*[Job("scan", argv=["maximal", "scan", "--config", scan, "--seed", str(s)],
              check=check_scan(1)) for s in _seeds(rng, VARIANTS)])
    # Malformed configs: the documented outcome of each is exit 2 with
    # nothing written.
    for kind, argv, cfg in [
        ("bad.unknown_key", ["bounds", "eval"], {"tuples": every_nk[:1], "bogus": 1}),
        ("bad.depth30", ["dimension", "construct"], {"kind": "cantor", "n": 2, "depth": 30}),
        ("bad.q4", ["ff", "verify"], {"q": 4, "n": 2}),
        ("bad.missing_csv", ["duality", "spreadify"],
         {"points": str(work / "inputs" / "absent.csv"), "hyperplanes": files["hyperplanes"]}),
        ("bad.ff_exponents_no_s", ["bounds", "eval"],
         {"tuples": every_nk[:1], "ff_exponents": [{"n": 3, "k": 1}]}),
    ]:
        add(inp.cli(kind, argv, cfg, check_untouched, expect=EXIT_SCHEMA))
    return Workload(kinds, tail_pct=96)


WORKLOADS = {"fractal": fractal, "sampling": sampling, "finite": finite, "sweep": sweep}


def build(name: str, work: Path, seed: int) -> Workload:
    return WORKLOADS[name](work, np.random.default_rng(seed))
