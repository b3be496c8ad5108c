"""Property test: any `grassmann verify` config, however malformed, ends in a
documented exit code with no traceback; a sample count below 1 is a schema
error (exit 2), and a schema error writes nothing."""

import json
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
