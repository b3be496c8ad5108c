"""Property tests: any `grassmann verify`, `maximal scan` or `bounds eval`
config, any pair of `duality spreadify` input CSVs and any `ff verify`
set_csv, however malformed, ends in a documented exit code with no
traceback; a count below 1 (or a scan delta outside [2^-8, 1/2]) is a schema
error (exit 2), a schema error writes nothing, a successful spreadify writes
only finite numbers, and `ff verify` accepts exactly the int64 tables of
width n."""

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
