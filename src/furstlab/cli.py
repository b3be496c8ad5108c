"""Batch experiment runner.

Every module is exposed as a subcommand driven by a JSON config file with
flag overrides.  `_COMMANDS` maps each subcommand to its config schema and
its run function, which prints a stdout summary and returns (artifacts,
breach): the files to write, by name, as text or bytes, and None or the
message of a failed verification.  `main` alone validates the config,
applies `--seed`, writes the artifacts and picks the exit code.

Outputs are UTF-8 JSON (sorted keys) and CSV with a header row, written only
inside the configured output directory once the work has finished, each
under a temporary name and then renamed into place; a failed write leaves
none of them.  Identical config and seed produce byte-identical files.
Wall-clock timings go to stderr so they never perturb the artifacts.

Exit codes: 0 success, 2 config/schema violation or unusable output
directory, 3 runtime cap exceeded, 4 internal invariant breach (a
verification suite failed; its artifacts are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import checks
from .bounds import BoundParams, as_fraction, bound_survey, exact_value, ff_bound_exponents
from .dimension import (
    cantor_grid,
    estimate_dimension,
    GridSet,
    MAX_RLE_BYTES,
    sharp_hyperplane_example,
    slicing_product_example,
)
from .duality import (
    hyperplanes_to_csv,
    points_from_csv,
    points_to_csv,
    spreadify,
)
from .finitefield import FFSet, SearchBudgetExceeded, ff_min_kakeya, ff_min_spread, ff_verify
from .grassmann import check_dims, line_ball_measure
from .maximal import delta_scan

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class SchemaError(ValueError):
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
        except (TypeError, ValueError, OverflowError) as exc:
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
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


# Fraction builds 10**|exponent| for a decimal string, so a string's exponent
# is capped at Python's int digit limit, which already bounds its digits.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _rational(v):
    """An int, a finite float (at its binary value) or a "p/q" or decimal
    string whose exponent is at most _MAX_EXPONENT in magnitude."""
    if isinstance(v, str):
        exp = _EXPONENT.search(v)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent of {v!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected rational, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite rational, got {v!r}")
    return as_fraction(v)


def _open_unit(v):
    if not 0 < _num(v) < 1:
        raise ValueError(f"expected a number in (0, 1), got {v!r}")
    return float(v)


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


def _read_input(path: str, limit: int | None = None) -> bytes:
    """The bytes of an input file; a file of more than `limit` bytes is
    refused before it is read."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if limit is not None and size > limit:
                raise SchemaError(f"input {path} has {size} bytes, more than the cap of {limit}")
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_artifacts(out_dir: Path, artifacts: dict) -> None:
    """Write every artifact under a temporary name in out_dir, then rename
    each into place.  On an OSError, remove the temporary files and the
    artifacts already renamed, then re-raise."""
    temps, done = [], []
    try:
        for name, data in artifacts.items():
            tmp = out_dir / f".{name}.tmp"
            temps.append(tmp)
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp, name in zip(temps, artifacts):
            os.replace(tmp, out_dir / name)
            done.append(out_dir / name)
    except OSError:
        for path in temps + done:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise


# -- subcommands ------------------------------------------------------------


def _tuple_entry(v):
    if not isinstance(v, dict) or set(v) != {"n", "k", "s", "t"}:
        raise ValueError(f"each tuple must be an object with exactly n, k, s, t; got {v!r}")
    return BoundParams(_int(v["n"]), _int(v["k"]), _rational(v["s"]), _rational(v["t"]))


def _ff_exponents_entry(v):
    return _validate(_object(v), {"n": (_int, _REQUIRED), "k": (_int, _REQUIRED),
                                  "s": (_rational, _REQUIRED)})


def _ball_scaling_entry(v):
    """The sampler's dimension caps hold, and, for lines, the samples must
    expect checks.BALL_MIN_HITS draws within delta/2 under the exact Haar
    law, whose loop is linear in n; for k >= 2 any count >= 1 is taken."""
    e = _validate(_object(v), {"n": (_int, 3), "k": (_int, 1), "delta": (_open_unit, 0.2),
                               "samples": (_positive_int, 100000)})
    check_dims(e["n"], e["k"])
    if e["k"] == 1:
        expected = e["samples"] * line_ball_measure(e["n"], e["delta"] / 2)
        if expected < checks.BALL_MIN_HITS:
            raise ValueError(f"{e['samples']} samples expect {expected:.1f} draws within delta/2 "
                             f"of a line in R^{e['n']}; the check needs {checks.BALL_MIN_HITS}")
    return e


def _pairs(v):
    """Every (n, k) pair within the sampler's dimension caps, checked before
    the first pair's suites run."""
    pairs = _list_of(_pair_of_ints)(v)
    for n, k in pairs:
        check_dims(n, k)
    return pairs


def _spread_entry(v):
    return _validate(_object(v), {"m": (_positive_int, _REQUIRED), "M": (_positive_int, _REQUIRED)})


def cmd_bounds_eval(opts):
    reports = [bound_survey(p) for p in opts["tuples"]]
    payload = {"reports": [r.as_dict() for r in reports]}
    if opts["ff_exponents"]:
        ff = []
        for item in opts["ff_exponents"]:
            exponents = ff_bound_exponents(item["n"], item["k"], item["s"])
            ff.append({"n": item["n"], "k": item["k"], "s": str(item["s"]),
                       "exponents": {name: exact_value(v) for name, v in exponents.items()}})
        payload["ff_exponents"] = ff
    artifacts = {"bounds_eval.json": _json(payload)}

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
    return artifacts, None


def cmd_grassmann_verify(opts):
    seed = opts["seed"]
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
    bs = opts["ball_scaling"]
    if bs is not None:
        res = checks.check_ball_scaling(bs["n"], bs["k"], bs["delta"], bs["samples"], seed)
        results.append({"n": bs["n"], "k": bs["k"], **res.as_dict()})
    artifacts = {"grassmann_verify.json": _json({"seed": seed, "results": results})}
    for r in results:
        print(
            f"({r['n']},{r['k']}) {r['name']:24s} "
            f"{'pass' if r['passed'] else 'FAIL'}  measured={r['measured_constant']:.4f} "
            f"allowed={r['allowed_constant']:.4f}"
        )
    failed = any(not r["passed"] for r in results)
    return artifacts, "a metric-lemma suite failed" if failed else None


def cmd_duality_spreadify(opts):
    pts = points_from_csv(_read_input(opts["points"]).decode("utf-8"))
    # The plane table is read as it is laid out: one graph-form row (a, c)
    # per plane, the (m, n) array spreadify takes.
    planes = points_from_csv(_read_input(opts["hyperplanes"]).decode("utf-8"))
    mapped_pts, mapped_planes, report = spreadify(
        pts, planes, tuple(opts["levels"]), opts["seed"], opts["ndirs"])
    artifacts = {
        "spreadify_report.json": _json(report.as_dict()),
        "spreadify_points.csv": points_to_csv(mapped_pts),
        "spreadify_hyperplanes.csv": hyperplanes_to_csv(mapped_planes),
    }
    print(
        f"direction dimension {report.initial_direction_dimension:.3f} -> "
        f"{report.final_direction_dimension:.3f}; incidences "
        f"{report.incidences_before} -> {report.incidences_after}"
    )
    preserved = report.incidences_before == report.incidences_after
    return artifacts, None if preserved else "incidence count not preserved"


def _construct_grid(opts):
    kind = opts["kind"]
    if opts["n"] is None:
        raise SchemaError("construction keys need 'n'")
    if kind == "cantor":
        grid = cantor_grid(opts["n"], opts["base"], opts["keep"], opts["depth"])
        return grid, {"kind": kind}
    if kind == "product":
        ex = slicing_product_example(opts["n"], opts["k"], opts["s"], opts["depth"])
    elif kind == "sharp_hyperplane":
        ex = sharp_hyperplane_example(opts["n"], opts["s"], opts["depth"])
    else:
        raise SchemaError(f"unknown construction kind: {kind}")
    meta = {"kind": kind, "achieved_dimension": ex.achieved_dimension,
            "target_dimension": ex.target_dimension}
    if ex.bases is not None:
        meta["family_size"] = len(ex.bases)
    return ex.grid, meta


def _keep(v):
    """One list of digits, or one per axis."""
    if isinstance(v, list) and v and all(isinstance(p, list) for p in v):
        return [_list_of(_int)(p) for p in v]
    return _list_of(_int)(v)


_CONSTRUCT_SCHEMA = {
    "kind": (_str, _REQUIRED),
    "n": (_int, _REQUIRED),
    "base": (_int, 3),
    "keep": (_keep, [0, 2]),
    "depth": (_int, 6),
    "k": (_int, 1),
    "s": (_num, 0.6309297535714574),
}


def cmd_dimension_construct(opts):
    grid, meta = _construct_grid(opts)
    meta.update({"cells": len(grid), "level": grid.level, "n": grid.n})
    artifacts = {"grid.rle": grid.to_rle(), "grid.csv": grid.to_csv(),
                 "dimension_construct.json": _json(meta)}
    print(f"constructed {meta['cells']} cells at level {meta['level']}")
    return artifacts, None


def cmd_dimension_estimate(opts):
    if opts["grid"] is not None:
        grid = GridSet.from_rle(_read_input(opts["grid"], MAX_RLE_BYTES))
        meta = {"kind": "file"}
    elif opts["kind"] is not None:
        grid, meta = _construct_grid(opts)
    else:
        raise SchemaError("need either 'grid' (an .rle path) or construction keys")
    est = estimate_dimension(grid, *opts["levels"])
    payload = {"estimate": est.as_dict(), "cells": len(grid), "level": grid.level}
    payload.update(meta)
    artifacts = {"dimension_estimate.json": _json(payload)}
    print(f"slope {est.slope:.4f} (r2 {est.r2:.4f}) over levels {opts['levels']}")
    return artifacts, None


def cmd_ff_verify(opts):
    q, n, k = opts["q"], opts["n"], opts["k"]
    fset = None
    if opts["points"] is not None:
        fset = FFSet(q, n, opts["points"])
    elif opts["set_csv"] is not None:
        fset = FFSet.from_csv(q, _read_input(opts["set_csv"]).decode("utf-8"))
        if fset.n != n:
            raise SchemaError(f"set_csv has {fset.n} columns; points of F_q^{n} need {n}")
    payload = {"q": q, "n": n, "k": k, **ff_verify(q, n, k, fset, opts["spread"])}
    artifacts = {"ff_verify.json": _json(payload)}
    for key, val in sorted(payload.items()):
        print(f"  {key}: {val}")
    failed = not payload["directions_match"] or payload.get("pigeonhole") is False
    return artifacts, "finite-field verification failed" if failed else None


def cmd_ff_search(opts):
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
    artifacts = {"ff_search.json": _json(payload)}
    print(f"minimal size {result.size} ({result.nodes_explored} nodes)")
    if result.size < result.lower_bound:
        floor = f"{result.lower_bound_source} floor {result.lower_bound}"
        return artifacts, f"minimal size {result.size} is below the {floor}"
    return artifacts, None


def cmd_maximal_scan(opts):
    rows = delta_scan(opts["deltas"], opts["ntubes"], opts["p"], opts["ndirs"], opts["seed"])
    artifacts = {"maximal_scan.json": _json({"seed": opts["seed"], "rows": [list(r) for r in rows]})}
    for d, v in rows:
        print(f"  delta={d:.6g}  norm={v:.6g}")
    return artifacts, None


# (group, action) -> (config schema, run function).
_COMMANDS = {
    ("bounds", "eval"): ({
        "tuples": (_list_of(_tuple_entry), _REQUIRED),
        "ff_exponents": (_opt(_list_of(_ff_exponents_entry)), None),
    }, cmd_bounds_eval),
    ("grassmann", "verify"): ({
        "pairs": (_pairs, [[3, 1], [4, 2], [5, 3]]),
        "samples": (_positive_int, 1000), "subflat_samples": (_positive_int, 200),
        "ball_scaling": (_opt(_ball_scaling_entry), None), "seed": (_int, 0),
    }, cmd_grassmann_verify),
    ("duality", "spreadify"): ({
        "points": (_str, _REQUIRED), "hyperplanes": (_str, _REQUIRED),
        "levels": (_pair_of_ints, [2, 6]), "ndirs": (_positive_int, 32), "seed": (_int, 0),
    }, cmd_duality_spreadify),
    ("dimension", "construct"): (_CONSTRUCT_SCHEMA, cmd_dimension_construct),
    ("dimension", "estimate"): ({
        **_CONSTRUCT_SCHEMA, "grid": (_opt(_str), None), "kind": (_opt(_str), None),
        "n": (_opt(_int), None), "levels": (_pair_of_ints, _REQUIRED),
    }, cmd_dimension_estimate),
    ("ff", "verify"): ({
        "q": (_int, _REQUIRED), "n": (_int, _REQUIRED), "k": (_int, 1),
        "points": (_opt(_list_of(_list_of(_int))), None), "set_csv": (_opt(_str), None),
        "spread": (_opt(_spread_entry), None),
    }, cmd_ff_verify),
    ("ff", "search"): ({
        "q": (_int, _REQUIRED), "n": (_int, _REQUIRED), "mode": (_str, "kakeya"),
        "k": (_int, 1), "m": (_opt(_int), None), "node_cap": (_opt(_positive_int), None),
    }, cmd_ff_search),
    ("maximal", "scan"): ({
        "deltas": (_list_of(_num), [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]),
        "ntubes": (_positive_int, 50), "p": (_num, 2.0), "ndirs": (_positive_int, 20),
        "seed": (_int, 0),
    }, cmd_maximal_scan),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was."""
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
    args = _parser().parse_args(argv)
    key = (args.group, args.action)
    if key not in _COMMANDS:
        print(f"unknown subcommand: {args.group} {args.action}", file=sys.stderr)
        return EXIT_SCHEMA
    schema, run = _COMMANDS[key]
    out_dir = Path(args.out)
    try:
        cfg = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        opts = _validate(cfg, schema)
        if args.seed is not None and "seed" in schema:
            opts["seed"] = args.seed
        t0 = time.perf_counter()
        artifacts, breach = run(opts)
        _write_artifacts(out_dir, artifacts)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:  # inputs that cannot be read raise SchemaError
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SearchBudgetExceeded as exc:
        print(f"runtime cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if breach is not None:
        print(f"invariant breach: {breach}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"wall_time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
