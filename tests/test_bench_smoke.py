"""Every benchmark workload builds, and one cycle of its jobs meets its oracles.

bench/run.py runs these workloads in a timed loop, where a library name or
signature that a job calls and that no longer exists would show only as a
lower pass_frac.  bench/jobs.py imports only furstlab, numpy and the
standard library, so it is loaded here by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", _JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_first_cycle_meets_every_oracle(tmp_path, name):
    wl = jobs.build(name, tmp_path, 1)
    # The warm-ups write what later jobs read.  They are run but not judged:
    # the maximal3d warm-up raises its resolution check (level 3 is too
    # coarse for delta 1/4), and its workload excuses it.
    for kind in wl.kinds:
        jobs.execute(kind.warmup, jobs.warmup_dir(tmp_path, kind.name))
    failures = {}
    for i, job in enumerate(wl.cycle(0)):
        rec = jobs.execute(job, tmp_path / "out" / f"c0-{i}")
        jobs.collect(rec)
        reason = jobs.verdict(rec)
        if reason is not None:
            failures[f"{i}:{job.kind}"] = reason
    assert failures == {}
