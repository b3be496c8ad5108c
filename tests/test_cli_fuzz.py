"""Property tests: any config of any subcommand, any pair of `duality
spreadify` input CSVs and any `ff verify` set_csv, however malformed, ends in
a documented exit code with no traceback; a count below 1 (or a scan delta
outside [2^-8, 1/2]) is a schema error (exit 2), a schema error or an
exceeded search budget writes nothing, a successful spreadify writes only
finite numbers, and `ff verify` accepts exactly the int64 tables of width
n."""

import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from furstlab.cli import main  # noqa: E402

WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=False, allow_infinity=False), st.lists(st.integers(), max_size=2))
PAIRS = st.lists(st.integers(0, 18).flatmap(lambda n: st.tuples(st.just(n), st.integers(-1, n + 1)))
                 .map(list), max_size=3)
COUNT = st.integers(-3, 30)
BALL = st.fixed_dictionaries(
    {"samples": st.one_of(st.integers(-3, 200), WRONG)},
    optional={"n": st.one_of(st.integers(0, 6), WRONG), "k": st.one_of(st.integers(-1, 4), WRONG),
              "delta": st.one_of(st.floats(-1.0, 2.0), WRONG)},
)
CONFIG = st.fixed_dictionaries(
    {"samples": COUNT, "subflat_samples": COUNT},
    optional={"pairs": PAIRS, "ball_scaling": st.one_of(BALL, WRONG), "seed": st.integers(0, 5)},
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(cfg=CONFIG)
def test_grassmann_verify_config_fuzz(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        # An exception escaping main (a traceback at the command line) fails the test.
        code = main(["grassmann", "verify", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 4)
        if min(cfg["samples"], cfg["subflat_samples"]) < 1:
            assert code == 2
        if code == 2:
            assert not list(out.iterdir())
        else:
            assert (out / "grassmann_verify.json").exists()


DELTA = st.one_of(st.sampled_from([0.0, -0.1, 2.0**-9, 0.6, 2.0**-4, 2.0**-5]), WRONG)
SCAN = st.fixed_dictionaries(
    {"deltas": st.one_of(st.lists(DELTA, max_size=2), WRONG)},
    optional={"ntubes": st.one_of(st.integers(-2, 3), WRONG), "ndirs": st.one_of(st.integers(-2, 3), WRONG),
              "p": st.one_of(st.integers(-1, 3), WRONG), "seed": st.integers(0, 5)},
)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(cfg=SCAN)
def test_maximal_scan_config_fuzz(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["maximal", "scan", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        deltas = cfg["deltas"] if isinstance(cfg["deltas"], list) else []
        if any(type(v) is int and v < 1 for v in map(cfg.get, ("ntubes", "ndirs", "p"))) or any(
                type(d) is float and not 2.0**-8 <= d <= 0.5 for d in deltas):
            assert code == 2
        if code == 2:
            assert not list(out.iterdir())
        else:
            assert (out / "maximal_scan.json").exists()


# Small ints, floats (1e400 reads back from JSON as inf), "p/q" strings with q
# possibly 0, booleans and wrong types.
RATIONAL = st.one_of(
    st.integers(-2, 5), st.floats(-1.0, 6.0), st.sampled_from([1e400, -1e400, True, False]),
    st.tuples(st.integers(-3, 9), st.integers(0, 3)).map(lambda pq: f"{pq[0]}/{pq[1]}"), WRONG)
IN_RANGE = {"n": st.integers(2, 4), "k": st.integers(1, 2), "s": st.sampled_from([1, 0.75, "1/2"]),
            "t": st.integers(0, 3)}


def entry(*keys):
    """A bounds entry: in-range values with none, one or each of them drawn
    from RATIONAL instead."""
    in_range = st.fixed_dictionaries({key: IN_RANGE[key] for key in keys})
    one_off = st.tuples(in_range, st.sampled_from(keys), RATIONAL).map(
        lambda e: {**e[0], e[1]: e[2]})
    mixed = st.fixed_dictionaries({key: st.one_of(IN_RANGE[key], RATIONAL) for key in keys})
    return st.one_of(in_range, one_off, mixed)


BOUNDS = st.fixed_dictionaries(
    {"tuples": st.lists(entry("n", "k", "s", "t"), max_size=2)},
    optional={"ff_exponents": st.lists(entry("n", "k", "s"), max_size=2)},
)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(cfg=BOUNDS)
def test_bounds_eval_config_fuzz(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(["bounds", "eval", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not list(out.iterdir())
        else:
            assert (out / "bounds_eval.json").exists()


# One value in ten is nan, +-inf or +-1e300.
VALUE = st.integers(0, 9).flatmap(
    lambda i: st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]) if i == 0
    else st.floats(-4.0, 4.0))
WIDTH = st.sampled_from([2, 3, 4, 1])


def table(width):
    """(width, rows) of a CSV: up to 20 rows of `width` values."""
    rows = st.lists(st.lists(VALUE, min_size=width, max_size=width), max_size=20)
    return rows.map(lambda r: (width, r))


# Points and planes CSVs, of equal width at least half the time.
INPUTS = st.tuples(WIDTH, WIDTH, st.booleans()).flatmap(
    lambda t: st.tuples(table(t[0]), table(t[0] if t[2] else t[1])))


def _csv(table) -> str:
    width, rows = table
    lines = [",".join(f"v{j}" for j in range(width))] + [",".join(map(repr, r)) for r in rows]
    return "\n".join(lines) + "\n"


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(inputs=INPUTS, seed=st.integers(0, 3))
def test_duality_spreadify_input_fuzz(inputs, seed):
    points, planes = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "points.csv").write_text(_csv(points), encoding="utf-8")
        (tmp / "planes.csv").write_text(_csv(planes), encoding="utf-8")
        cfg = {"points": str(tmp / "points.csv"), "hyperplanes": str(tmp / "planes.csv"),
               "levels": [2, 4], "ndirs": 3, "seed": seed}
        (tmp / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp / "out"
        code = main(["duality", "spreadify", "--config", str(tmp / "cfg.json"), "--out", str(out)])
        assert code in (0, 2, 4)
        if code == 2:
            assert not list(out.iterdir())
        if code == 0:
            json.loads((out / "spreadify_report.json").read_text(), parse_constant=_reject)
            for name in ("spreadify_points.csv", "spreadify_hyperplanes.csv"):
                for line in (out / name).read_text().splitlines()[1:]:
                    assert all(math.isfinite(float(v)) for v in line.split(","))


def _reject(token):
    raise AssertionError(f"non-finite number {token} in the report")


INT_TOKEN = st.integers(-9, 9).map(str)
# Values past int64, a fraction, a word and an empty cell.
BAD_TOKEN = st.sampled_from([str(2**70), str(-2**70), "1.5", "x", ""])


@st.composite
def set_csv_case(draw):
    """(q, n, width, rows): a set_csv of `width` columns, all ints half the time."""
    q, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(2, 3))
    width = draw(st.one_of(st.just(n), st.integers(1, 4)))
    token = INT_TOKEN if draw(st.booleans()) else st.one_of(INT_TOKEN, BAD_TOKEN)
    rows = draw(st.lists(st.lists(token, min_size=width, max_size=width), max_size=12))
    return q, n, width, rows


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=set_csv_case())
def test_ff_verify_set_csv_fuzz(case):
    q, n, width, rows = case
    lines = [",".join(f"x{j}" for j in range(width))] + [",".join(r) for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "set.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = {"q": q, "n": n, "set_csv": str(tmp / "set.csv")}
        (tmp / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp / "out"
        code = main(["ff", "verify", "--config", str(tmp / "cfg.json"), "--out", str(out)])
        assert code in (0, 2)
        ints = all(v.lstrip("-").isdigit() and abs(int(v)) < 2**63 for r in rows for v in r)
        assert (code == 0) == (width == n and ints)
        if code == 2:
            assert not list(out.iterdir())
        else:
            payload = json.loads((out / "ff_verify.json").read_text())
            assert payload["n"] == width
            assert payload["set_size"] == len({tuple(int(v) % q for v in r) for r in rows})


def run_config(argv, cfg):
    """(exit code, {file name: bytes}) of one run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        code = main(argv + ["--config", str(path), "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in out.iterdir()}


def spoiled_configs(data, valid, bad):
    """A config drawn from `valid`, then one per key of `bad` with that key
    set to a draw from bad[key], so that every example spoils every key."""
    yield data.draw(valid)
    for key, values in bad.items():
        cfg, value = data.draw(st.tuples(valid, values))
        yield {**cfg, key: value}


def _int_at_least(v, low):
    return type(v) is int and v >= low


# Wrong values other than None, which an optional key reads as absent.
NOT_NONE = WRONG.filter(lambda v: v is not None)
HUGE = 10**400


@st.composite
def search_config(draw):
    """A search of F_q^n, q prime, n <= 3, under a node_cap that bounds it."""
    cfg = {"q": draw(st.sampled_from([2, 3, 5])), "n": draw(st.integers(2, 3)),
           "node_cap": draw(st.integers(-1, 500))}
    if draw(st.booleans()):
        cfg.update(mode="spread", k=draw(st.integers(1, cfg["n"] - 1)), m=draw(st.integers(1, 4)))
    return cfg


SEARCH_BAD = {
    "q": st.one_of(st.sampled_from([4, 2**61 - 1]), WRONG),
    "n": st.one_of(st.integers(-1, 1), st.just(HUGE), WRONG),
    "mode": st.one_of(st.just("lines"), WRONG), "k": st.one_of(st.integers(-1, 3), WRONG),
    "m": st.one_of(st.integers(-1, 5), WRONG), "node_cap": NOT_NONE}


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_ff_search_config_fuzz(data):
    for cfg in spoiled_configs(data, search_config(), SEARCH_BAD):
        code, files = run_config(["ff", "search"], cfg)
        assert code in (0, 2, 3)
        if cfg["q"] not in (2, 3, 5) or not (type(cfg["n"]) is int and 2 <= cfg["n"] <= 3) or \
                cfg.get("mode", "kakeya") not in ("kakeya", "spread"):
            assert code == 2
        if code == 0:
            payload = json.loads(files["ff_search.json"])
            assert payload["size"] == len(payload["witness"]) >= 1
            assert payload["nodes_explored"] <= cfg["node_cap"]
        else:
            assert not files


@st.composite
def ff_verify_config(draw):
    """F_q^n, q prime, n <= 3, with or without a set and a spread block."""
    q, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(2, 3))
    cfg = {"q": q, "n": n, "k": draw(st.integers(1, n - 1))}
    if draw(st.booleans()):
        cfg["points"] = draw(st.lists(st.lists(st.integers(-3, 7), min_size=n, max_size=n), max_size=6))
        if draw(st.booleans()):
            cfg["spread"] = {"m": draw(st.integers(1, 6)), "M": draw(st.integers(1, 30))}
    return cfg


# A huge n is left to tests/test_cli.py, which runs it in a child process.
FF_VERIFY_BAD = {
    "q": st.one_of(st.just(4), WRONG), "n": st.one_of(st.integers(-1, 1), WRONG),
    "k": st.one_of(st.integers(-1, 0), st.integers(3, 4), WRONG),
    "points": st.one_of(NOT_NONE, st.lists(st.one_of(st.lists(st.integers(0, 2), max_size=4), WRONG),
                                           min_size=1, max_size=3)),
    "spread": st.one_of(NOT_NONE, st.fixed_dictionaries(
        {"m": st.one_of(st.integers(-1, 0), WRONG), "M": st.integers(-1, 3)}))}


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_ff_verify_config_fuzz(data):
    for cfg in spoiled_configs(data, ff_verify_config(), FF_VERIFY_BAD):
        code, files = run_config(["ff", "verify"], cfg)
        # The pigeonhole guarantee is a theorem: exit 4 would be a bug.
        assert code in (0, 2)
        spread = cfg.get("spread")
        if spread is not None and not (isinstance(spread, dict) and _int_at_least(spread["m"], 1)
                                       and _int_at_least(spread["M"], 1)):
            assert code == 2
        if cfg["q"] not in (2, 3, 5) or not (type(cfg["n"]) is int and 2 <= cfg["n"] <= 3):
            assert code == 2
        if code == 0:
            payload = json.loads(files["ff_verify.json"])
            assert payload["directions_match"] and payload.get("pigeonhole", True) is True
            has_set = cfg.get("points") is not None
            assert ("is_spread_furstenberg" in payload) == (has_set and spread is not None)
        else:
            assert not files


@st.composite
def construct_config(draw):
    """A cantor, product or sharp_hyperplane construction of depth <= 4."""
    kind = draw(st.sampled_from(["cantor", "product", "sharp_hyperplane"]))
    cfg = {"kind": kind, "depth": draw(st.integers(1, 4))}
    if kind == "cantor":
        base = draw(st.integers(2, 4))
        digits = st.lists(st.integers(0, base - 1), min_size=1, max_size=base)
        cfg.update(n=draw(st.integers(1, 3)), base=base, keep=draw(digits))
    elif kind == "product":
        cfg["n"] = draw(st.integers(2, 3))
        cfg["k"] = draw(st.integers(1, cfg["n"] - 1))
        cfg["s"] = draw(st.floats(0.1, cfg["k"]))
    else:
        cfg["n"] = draw(st.integers(3, 4))
        cfg["s"] = draw(st.floats(1.1, cfg["n"] - 1))
    return cfg


CONSTRUCT_BAD = {
    "kind": st.one_of(st.just("dust"), WRONG), "n": st.one_of(st.integers(-1, 0), st.just(HUGE), WRONG),
    "depth": st.one_of(st.integers(-1, 0), WRONG), "base": st.one_of(st.integers(-1, 1), WRONG),
    "keep": st.one_of(st.just([]), st.just([[0], 1]), st.just([0, 9]), WRONG),
    "k": st.one_of(st.integers(-1, 4), WRONG),
    "s": st.one_of(st.sampled_from([math.nan, math.inf, 1e300, -1.0]), WRONG)}
# An estimate over levels [1, depth] of a grid of depth >= 2, whose level is
# at least its depth.
ESTIMATE = construct_config().map(
    lambda c: {**c, "depth": max(c["depth"], 2), "levels": [1, max(c["depth"], 2)]})
ESTIMATE_BAD = {**CONSTRUCT_BAD, "levels": st.one_of(st.just([2, 1]), st.just([0, 3]), WRONG)}


@hypothesis.settings(max_examples=6, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_dimension_config_fuzz(data):
    runs = [("construct", cfg) for cfg in spoiled_configs(data, construct_config(), CONSTRUCT_BAD)]
    runs += [("estimate", cfg) for cfg in spoiled_configs(data, ESTIMATE, ESTIMATE_BAD)]
    for action, cfg in runs:
        code, files = run_config(["dimension", action], cfg)
        assert code in (0, 2)
        s = cfg.get("s", 0.5)
        if cfg["kind"] not in ("cantor", "product", "sharp_hyperplane") or \
                not _int_at_least(cfg["n"], 1) or not _int_at_least(cfg["depth"], 1) or \
                (type(s) is float and not math.isfinite(s)):
            assert code == 2
        if code == 2:
            assert not files
        elif action == "estimate":
            payload = json.loads(files["dimension_estimate.json"])
            assert payload["kind"] == cfg["kind"] and payload["cells"] >= 1
        else:
            meta = json.loads(files["dimension_construct.json"])
            assert meta["cells"] == files["grid.csv"].count(b"\n") - 1 >= 1
