"""Batch experiment runner.

Every module is exposed as a subcommand driven by a JSON config file with
flag overrides.  Outputs are UTF-8 JSON (sorted keys) and CSV with a header
row, written only inside the configured output directory; identical config
and seed produce byte-identical files.  Wall-clock timings go to stderr so
they never perturb the deterministic artifacts.

Exit codes: 0 success, 2 config/schema violation, 3 runtime cap exceeded,
4 internal invariant breach (a verification suite failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import checks
from .bounds import BoundParams, as_fraction, bound_survey, ff_bound_exponents
from .dimension import (
    cantor_grid,
    estimate_dimension,
    GridSet,
    sharp_hyperplane_example,
    slicing_product_example,
)
from .duality import (
    hyperplanes_from_csv,
    hyperplanes_to_csv,
    GraphHyperplane,
    points_from_csv,
    points_to_csv,
    spreadify,
)
from .finitefield import (
    FFSet,
    SearchBudgetExceeded,
    ff_directions,
    ff_is_kakeya,
    ff_is_spread_furstenberg,
    ff_min_kakeya,
    ff_min_spread,
    ff_pigeonhole_verify,
    gaussian_binomial,
)
from .maximal import delta_scan

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class SchemaError(ValueError):
    pass


class InvariantBreach(RuntimeError):
    pass


# -- config plumbing -------------------------------------------------------


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    return cfg


def _validate(cfg: dict, schema: dict) -> dict:
    unknown = set(cfg) - set(schema)
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in schema.items():
        if key not in cfg:
            if default is _REQUIRED:
                raise SchemaError(f"missing required config key: {key}")
            out[key] = default
            continue
        try:
            out[key] = kind(cfg[key])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad value for {key!r}: {exc}")
    return out


_REQUIRED = object()


def _int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected integer, got {v!r}")
    return v


def _positive_int(v):
    if _int(v) < 1:
        raise ValueError(f"expected integer >= 1, got {v!r}")
    return v


def _num(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected number, got {v!r}")
    return float(v)


def _rational(v):
    return as_fraction(v if not isinstance(v, str) else Fraction(v))


def _str(v):
    if not isinstance(v, str):
        raise ValueError(f"expected string, got {v!r}")
    return v


def _object(v):
    if not isinstance(v, dict):
        raise ValueError(f"expected object, got {v!r}")
    return v


def _opt(base):
    return lambda v: None if v is None else base(v)


def _list_of(base):
    def conv(v):
        if not isinstance(v, list):
            raise ValueError(f"expected list, got {v!r}")
        return [base(x) for x in v]

    return conv


def _pair_of_ints(v):
    v = _list_of(_int)(v)
    if len(v) != 2:
        raise ValueError("expected a pair of integers")
    return v


def _read_input(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}")


def _write_json(out_dir: Path, name: str, obj) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


# -- subcommands ------------------------------------------------------------


def _tuple_entry(v):
    if not isinstance(v, dict) or set(v) != {"n", "k", "s", "t"}:
        raise ValueError(f"each tuple must be an object with exactly n, k, s, t; got {v!r}")
    return BoundParams(_int(v["n"]), _int(v["k"]), _rational(v["s"]), _rational(v["t"]))


def _ff_exponents_entry(v):
    return _validate(_object(v), {"n": (_int, _REQUIRED), "k": (_int, _REQUIRED),
                                  "s": (_rational, _REQUIRED)})


def cmd_bounds_eval(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "tuples": (_list_of(_tuple_entry), _REQUIRED),
            "ff_exponents": (_opt(_list_of(_ff_exponents_entry)), None),
        },
    )
    reports = [bound_survey(p) for p in opts["tuples"]]
    payload = {"reports": [r.as_dict() for r in reports]}
    if opts["ff_exponents"]:
        ff = []
        for item in opts["ff_exponents"]:
            rep = ff_bound_exponents(item["n"], item["k"], item["s"])
            ff.append({"n": item["n"], "k": item["k"], "s": str(item["s"]),
                       "exponents": rep.as_dict()})
        payload["ff_exponents"] = ff
    _write_json(out_dir, "bounds_eval.json", payload)

    for rep in reports:
        p = rep.params
        print(f"(n={p.n}, k={p.k}, s={p.s}, t={p.t})")
        for e in rep.entries:
            if not e.applicable:
                status = "inapplicable"
            elif e.flag:
                status = e.flag
            else:
                status = f"{float(e.value):.6g} (= {e.value})"
            print(f"  {e.name:30s} {status}")
        if rep.best_name:
            print(f"  {'best':30s} {rep.best_name} = {rep.best_value}")
    return EXIT_OK


def cmd_grassmann_verify(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "pairs": (_list_of(_pair_of_ints), [[3, 1], [4, 2], [5, 3]]),
            "samples": (_positive_int, 1000),
            "subflat_samples": (_positive_int, 200),
            "ball_scaling": (_opt(_object), None),
            "seed": (_int, 0),
        },
    )
    seed = opts["seed"] if seed is None else seed
    results = []
    for n, k in opts["pairs"]:
        for res in (
            checks.check_translation_inequality(n, k, opts["samples"], seed),
            checks.check_rotation_pointwise(n, k, opts["samples"], seed),
            checks.check_min_rotation_norm(n, k, opts["samples"], seed),
        ):
            results.append({"n": n, "k": k, **res.as_dict()})
        if k >= 2 and n <= 6:
            res = checks.check_subflat_transport(n, k, k - 1, opts["subflat_samples"], seed)
            results.append({"n": n, "k": k, **res.as_dict()})
    if opts["ball_scaling"] is not None:
        bs = _validate(
            opts["ball_scaling"],
            {
                "n": (_int, 3),
                "k": (_int, 1),
                "delta": (_num, 0.2),
                "samples": (_positive_int, 100000),
            },
        )
        res = checks.check_ball_scaling(bs["n"], bs["k"], bs["delta"], bs["samples"], seed)
        results.append({"n": bs["n"], "k": bs["k"], **res.as_dict()})
    payload = {"seed": seed, "results": results}
    _write_json(out_dir, "grassmann_verify.json", payload)
    for r in results:
        print(
            f"({r['n']},{r['k']}) {r['name']:24s} "
            f"{'pass' if r['passed'] else 'FAIL'}  measured={r['measured_constant']:.4f} "
            f"allowed={r['allowed_constant']:.4f}"
        )
    if any(not r["passed"] for r in results):
        raise InvariantBreach("a metric-lemma suite failed")
    return EXIT_OK


def cmd_duality_spreadify(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "points": (_str, _REQUIRED),
            "hyperplanes": (_str, _REQUIRED),
            "levels": (_pair_of_ints, [2, 6]),
            "ndirs": (_int, 32),
            "incidence_tol": (_num, 1e-6),
            "seed": (_int, 0),
        },
    )
    seed = opts["seed"] if seed is None else seed
    pts = points_from_csv(_read_input(opts["points"]).decode("utf-8"))
    planes = hyperplanes_from_csv(_read_input(opts["hyperplanes"]).decode("utf-8"))
    mapped_pts, mapped_flats, report = spreadify(
        pts, planes, tuple(opts["levels"]), seed, opts["ndirs"], opts["incidence_tol"]
    )
    _write_json(out_dir, "spreadify_report.json", report.as_dict())
    _write_text(out_dir, "spreadify_points.csv", points_to_csv(mapped_pts))
    mapped_planes = [GraphHyperplane.from_flat(f) for f in mapped_flats]
    _write_text(out_dir, "spreadify_hyperplanes.csv", hyperplanes_to_csv(mapped_planes))
    print(
        f"direction dimension {report.initial_direction_dimension:.3f} -> "
        f"{report.final_direction_dimension:.3f}; incidences "
        f"{report.incidences_before} -> {report.incidences_after}"
    )
    if report.incidences_before != report.incidences_after:
        raise InvariantBreach("incidence count not preserved")
    return EXIT_OK


def _construct_grid(opts):
    kind = opts["kind"]
    if kind == "cantor":
        grid = cantor_grid(opts["n"], opts["base"], opts["keep"], opts["depth"])
        return grid, {"kind": kind}
    if kind == "product":
        ex = slicing_product_example(opts["n"], opts["k"], opts["s"], opts["depth"])
        return ex.grid, {
            "kind": kind,
            "achieved_dimension": ex.achieved_dimension,
            "target_dimension": ex.target_dimension,
        }
    if kind == "sharp_hyperplane":
        ex = sharp_hyperplane_example(opts["n"], opts["s"], opts["depth"])
        return ex.grid, {
            "kind": kind,
            "achieved_dimension": ex.achieved_dimension,
            "target_dimension": ex.target_dimension,
            "family_size": len(ex.flats),
        }
    raise SchemaError(f"unknown construction kind: {kind}")


_CONSTRUCT_SCHEMA = {
    "kind": (_str, _REQUIRED),
    "n": (_int, _REQUIRED),
    "base": (_int, 3),
    "keep": (lambda v: v, [0, 2]),
    "depth": (_int, 6),
    "k": (_int, 1),
    "s": (_num, 0.6309297535714574),
}


def cmd_dimension_construct(cfg, out_dir, seed):
    opts = _validate(cfg, _CONSTRUCT_SCHEMA)
    grid, meta = _construct_grid(opts)
    (out_dir / "grid.rle").write_bytes(grid.to_rle())
    _write_text(out_dir, "grid.csv", grid.to_csv())
    meta.update({"cells": len(grid), "level": grid.level, "n": grid.n})
    _write_json(out_dir, "dimension_construct.json", meta)
    print(f"constructed {meta['cells']} cells at level {meta['level']}")
    return EXIT_OK


def cmd_dimension_estimate(cfg, out_dir, seed):
    schema = dict(_CONSTRUCT_SCHEMA)
    schema["grid"] = (_opt(_str), None)
    schema["kind"] = (_opt(_str), None)
    schema["n"] = (_opt(_int), None)
    schema["levels"] = (_pair_of_ints, _REQUIRED)
    opts = _validate(cfg, schema)
    if opts["grid"] is not None:
        grid = GridSet.from_rle(_read_input(opts["grid"]))
        meta = {"kind": "file"}
    elif opts["kind"] is not None:
        grid, meta = _construct_grid(opts)
    else:
        raise SchemaError("need either 'grid' (an .rle path) or construction keys")
    est = estimate_dimension(grid, *opts["levels"])
    payload = {"estimate": est.as_dict(), "cells": len(grid), "level": grid.level}
    payload.update(meta)
    _write_json(out_dir, "dimension_estimate.json", payload)
    print(f"slope {est.slope:.4f} (r2 {est.r2:.4f}) over levels {opts['levels']}")
    return EXIT_OK


def _points_list(v):
    if not isinstance(v, list):
        raise ValueError("expected a list of points")
    return [tuple(_int(c) for c in p) for p in v]


def cmd_ff_verify(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "q": (_int, _REQUIRED),
            "n": (_int, _REQUIRED),
            "k": (_int, 1),
            "points": (_opt(_points_list), None),
            "set_csv": (_opt(_str), None),
            "spread": (_opt(_object), None),
        },
    )
    q, n, k = opts["q"], opts["n"], opts["k"]
    dirs = ff_directions(q, n, k)
    expected = gaussian_binomial(n, k, q)
    payload = {
        "q": q,
        "n": n,
        "k": k,
        "directions": len(dirs),
        "gaussian_binomial": int(expected),
        "directions_match": len(dirs) == expected,
    }
    if opts["points"] is not None or opts["set_csv"] is not None:
        if opts["points"] is not None:
            fset = FFSet(q, n, frozenset(opts["points"]))
        else:
            fset = FFSet.from_csv(q, _read_input(opts["set_csv"]).decode("utf-8"))
        payload["set_size"] = len(fset)
        payload["pigeonhole"] = ff_pigeonhole_verify(fset, k)
        payload["is_kakeya"] = ff_is_kakeya(fset)
        if opts["spread"] is not None:
            sp = _validate(opts["spread"], {"m": (_int, _REQUIRED), "M": (_int, _REQUIRED)})
            payload["is_spread_furstenberg"] = ff_is_spread_furstenberg(
                fset, k, sp["m"], sp["M"]
            )
    _write_json(out_dir, "ff_verify.json", payload)
    for key, val in sorted(payload.items()):
        print(f"  {key}: {val}")
    if not payload["directions_match"] or payload.get("pigeonhole") is False:
        raise InvariantBreach("finite-field verification failed")
    return EXIT_OK


def cmd_ff_search(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "q": (_int, _REQUIRED),
            "n": (_int, _REQUIRED),
            "mode": (_str, "kakeya"),
            "k": (_int, 1),
            "m": (_opt(_int), None),
            "node_cap": (_opt(_int), None),
        },
    )
    if opts["mode"] == "kakeya":
        result = ff_min_kakeya(opts["q"], opts["n"], opts["node_cap"])
    elif opts["mode"] == "spread":
        if opts["m"] is None:
            raise SchemaError("spread mode needs 'm'")
        result = ff_min_spread(opts["q"], opts["n"], opts["k"], opts["m"], opts["node_cap"])
    else:
        raise SchemaError(f"unknown mode {opts['mode']!r}")
    payload = {"q": opts["q"], "n": opts["n"], "mode": opts["mode"], **result.as_dict()}
    if opts["mode"] == "spread":
        payload.update({"k": opts["k"], "m": opts["m"]})
    _write_json(out_dir, "ff_search.json", payload)
    print(f"minimal size {result.size} ({result.nodes_explored} nodes)", file=sys.stdout)
    return EXIT_OK


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the maximal-function scaling table written next to this script.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(sys.argv[1] if len(sys.argv) > 1 else "maximal_scan.csv")))
deltas = [float(r["delta"]) for r in rows]
norms = [float(r["norm"]) for r in rows]
plt.loglog(deltas, norms, "o-")
plt.xlabel("delta")
plt.ylabel("L^p norm of the maximal function")
plt.gca().invert_xaxis()
plt.tight_layout()
plt.savefig("maximal_scan.png", dpi=150)
"""


def cmd_maximal_scan(cfg, out_dir, seed):
    opts = _validate(
        cfg,
        {
            "deltas": (_list_of(_num), [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]),
            "ntubes": (_int, 50),
            "p": (_num, 2.0),
            "ndirs": (_int, 20),
            "seed": (_int, 0),
        },
    )
    seed = opts["seed"] if seed is None else seed
    rows = delta_scan(opts["deltas"], opts["ntubes"], opts["p"], opts["ndirs"], seed)
    lines = ["delta,norm"] + [f"{d!r},{v!r}" for d, v in rows]
    _write_text(out_dir, "maximal_scan.csv", "\n".join(lines) + "\n")
    _write_text(out_dir, "maximal_scan_plot.py", _PLOT_SCRIPT)
    _write_json(out_dir, "maximal_scan.json", {"seed": seed, "rows": [list(r) for r in rows]})
    for d, v in rows:
        print(f"  delta={d:.6g}  norm={v:.6g}")
    return EXIT_OK


_COMMANDS = {
    ("bounds", "eval"): cmd_bounds_eval,
    ("grassmann", "verify"): cmd_grassmann_verify,
    ("duality", "spreadify"): cmd_duality_spreadify,
    ("dimension", "construct"): cmd_dimension_construct,
    ("dimension", "estimate"): cmd_dimension_estimate,
    ("ff", "verify"): cmd_ff_verify,
    ("ff", "search"): cmd_ff_search,
    ("maximal", "scan"): cmd_maximal_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="furstlab",
        description="Batch experiments: bounds, subspace metrics, duality, "
        "box counting, finite fields, maximal functions.",
    )
    parser.add_argument("group", choices=sorted({g for g, _ in _COMMANDS}))
    parser.add_argument("action")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.group, args.action)
    if key not in _COMMANDS:
        print(f"unknown subcommand: {args.group} {args.action}", file=sys.stderr)
        return EXIT_SCHEMA
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        code = _COMMANDS[key](cfg, out_dir, args.seed)
        print(f"wall_time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        return code
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SearchBudgetExceeded as exc:
        print(f"runtime cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
