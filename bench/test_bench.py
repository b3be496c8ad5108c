"""Tests of the benchmark itself: exact counters repeat, oracles bite.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import workload  # noqa: E402
from tracer import COUNTER_NAMES, Tracer  # noqa: E402


def traced_run(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_traced_counters_repeat(name):
    first, second = traced_run(name, 3), traced_run(name, 3)
    exact = [k for k in first["metrics"] if k.endswith(".calls") or k in COUNTER_NAMES]

    def values(r):
        return {k: r["metrics"][k]["value"] for k in exact}

    assert values(first) == values(second)
    assert sum(values(first).values()) > 0
    assert first["correct"] and second["correct"]
    # The traced functions' self times account for the traced job time.
    assert first["metrics"]["trace.coverage"]["value"] > 0.9


def test_spans_nest_within_jobs(tmp_path):
    wl = jobs.build("sweep", tmp_path, 5)
    for kind in wl.kinds:  # the warm-ups write what later jobs read
        jobs.execute(kind.warmup, jobs.warmup_dir(tmp_path, kind.name))
    tr = Tracer()
    tr.install()
    records = workload.run_jobs(wl.cycle(0), tmp_path / "out", "t-", tr)
    by_id = {span[0]: span for span in tr.spans}
    for _, parent, job, _, start, end in tr.spans:
        if parent is not None:
            _, _, pjob, _, pstart, pend = by_id[parent]
            assert pjob == job and pstart <= start <= end <= pend
    assert {span[2] for span in tr.spans} == set(range(len(records)))
    top = sum(end - start for _, parent, _, _, start, end in tr.spans if parent is None)
    assert sum(tr.self_s.values()) == pytest.approx(top)


def _edit_json(name, fn):
    def corrupt(arts):
        obj = json.loads(arts[name])
        fn(obj)
        return {**arts, name: json.dumps(obj).encode()}

    return corrupt


def _slope(obj):
    obj["estimate"]["slope"] += 0.1


def _result(obj):
    if "slopes" in obj:
        obj["slopes"][0] = 1.5
    else:
        obj["norm"] = 0.0


# Artifact name -> ways to corrupt it; every one must be rejected.
CORRUPTIONS = {
    "dimension_estimate.json": [_edit_json("dimension_estimate.json", _slope)],
    "dimension_construct.json": [
        _edit_json("dimension_construct.json", lambda o: o.update(cells=o["cells"] + 1)),
        lambda a: {**a, "grid.csv": a["grid.csv"] + b"0,0\n"},
    ],
    "ff_search.json": [
        _edit_json("ff_search.json", lambda o: o.update(size=o["size"] + 1)),
        _edit_json("ff_search.json", lambda o: o.update(witness=o["witness"][:-1] + [o["witness"][0]])),
    ],
    "ff_verify.json": [_edit_json("ff_verify.json", lambda o: o.update(is_kakeya=False))],
    "grassmann_verify.json": [
        _edit_json("grassmann_verify.json", lambda o: o["results"][0].update(passed=False))],
    "spreadify_report.json": [
        _edit_json("spreadify_report.json", lambda o: o.update(incidences_preserved=False))],
    "maximal_scan.json": [_edit_json("maximal_scan.json", lambda o: o["rows"][0].__setitem__(1, 1.5))],
    "bounds_eval.json": [
        _edit_json("bounds_eval.json", lambda o: o["reports"].pop()),
        _edit_json("bounds_eval.json",
                   lambda o: o["ff_exponents"][0]["exponents"]["ddl_lower"].update(value_exact="1/3")),
    ],
    "result.json": [_edit_json("result.json", _result)],
}


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_every_oracle_rejects_a_corrupted_output(name, tmp_path):
    wl = jobs.build(name, tmp_path, 5)
    checked = set()
    for kind in wl.kinds:
        rec = jobs.execute(kind.warmup, jobs.warmup_dir(tmp_path, kind.name))
        arts = jobs.collect(rec)
        if rec.error is not None:
            continue  # a malformed config that raises today
        assert jobs.verdict(rec) is None, kind.name
        corruptions = [c for name in arts for c in CORRUPTIONS.get(name, [])]
        if not arts:  # a rejected config must leave nothing behind
            corruptions = [lambda a: {"partial.json": b"{}"}]
        assert corruptions, kind.name
        for corrupt in corruptions:
            bad = copy.copy(rec)
            bad.artifacts = corrupt(arts)
            assert jobs.verdict(bad) is not None, kind.name
        bad = copy.copy(rec)
        bad.code = 4 if rec.code != 4 else 0
        assert jobs.verdict(bad) is not None, kind.name
        checked.add(kind.name)
    assert checked
