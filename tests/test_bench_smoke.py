"""Every benchmark workload builds, and one cycle of its jobs meets its oracles.

bench/run.py runs these workloads in a timed loop, where a library name or
signature that a job calls and that no longer exists would show only as a
lower pass_frac.  The finite-field artifacts of that cycle are also pinned
by sha256, so a change that alters their bytes shows here.  bench/jobs.py
imports only furstlab, numpy and the standard library, so it is loaded here
by path.
"""

import hashlib
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


# sha256 of each ff_*.json artifact of cycle 0 (seed 1), by job kind and
# file name.  Their values are exact integers, computed without floats or
# BLAS, so the digests hold on every platform.
FF_ARTIFACTS = {
    "finite": {
        "ffverify.11.2.1/ff_verify.json":
            "b0a162a19736bebf089c7bcb5a95cd929d8695ea2ddc973699d84bf6c0045976",
        "ffverify.5.2.1/ff_verify.json":
            "6dd325099fddceae0a071cf2cdb08ad5b065b722212db4e6a343f40f96f08c7c",
        "ffverify.5.3.1/ff_verify.json":
            "b2fbfa659d059408b81372549826749f9c3d4da91b79aa90a8d6a82f1d4728a9",
        "ffverify.5.3.2/ff_verify.json":
            "8a91e85fab5d41c2c8285e6155caeb7f5549f4321fc57a5dce53a2ba4d5348b6",
        "ffverify.7.2.1/ff_verify.json":
            "129ad1ff5dfcd682b6c47c5f3490619ed679340617b8d8b675f0c7174fe34535",
        "ffverify.7.3.1/ff_verify.json":
            "6f2fe12fb9e591a8a56a37740647c52d7226808e8af7ff4049053af9b08cb53c",
        "ffverify.7.3.2/ff_verify.json":
            "ae28416ce8ab6816af472742b47dbf22ebccec04fdf0887d0337d24f1f039b15",
        "search.kakeya.2.2/ff_search.json":
            "1cdd3dcc2ae82e03756efbf37416cd6a0dffbee8eee7ff60c241bf9a15b979cf",
        "search.kakeya.2.3/ff_search.json":
            "3851da1b43753a08958ed50a89596d56cdee7f6b0ded11f1580726af5c8e4fbd",
        "search.kakeya.2.4/ff_search.json":
            "38308e1d2feb513a26e5208c70e4e5effbf874c88f0bd0fad193244e9bdaf323",
        "search.kakeya.3.2/ff_search.json":
            "aeb58ce81a2bbf3e8b294a9b322a2bcc2dcba902ca758eb1a8db08bc956c1347",
        "search.kakeya.5.2/ff_search.json":
            "32c968efcd2ad7ecd56eb2b3819c2adc64b926e59e70ff95d9aec7eb1ce7537f",
        "search.spread.3.2/ff_search.json":
            "b21d292a1a69c280b1b35580647efdab14892d2fa622e1e837fe3ef76cc6845e",
        "search.spread.5.2/ff_search.json":
            "130397d8c751c7339931a4a330da8484e4ab8a25ce0203e89b6592557bc1232d",
    },
    "sweep": {
        "ffverify.3.2/ff_verify.json":
            "3029fd9cfe04269525173e2d350e1d6973e330e541595544f780058c4bc39a2f",
        "ffverify.3.3/ff_verify.json":
            "84d91ef07a81101e843e537a1ef6a1716bc786d61a7a53d4b850bc2e169b688d",
        "ffverify.5.2/ff_verify.json":
            "69bf76f4d71fc7f492ac9cf4aebec812f4130e032b3b5a5576c8fc9146d7e0f0",
        "ffverify.7.2/ff_verify.json":
            "c1512c4529ee390bab9fb3e2023daa3d5ca1d8d40a160b2aaf5a5b6685f8b4a3",
        "search.kakeya.3.2/ff_search.json":
            "aeb58ce81a2bbf3e8b294a9b322a2bcc2dcba902ca758eb1a8db08bc956c1347",
        "search.spread.2.3/ff_search.json":
            "1bd0d62d41d1a429e3a92f101fae24c0801c5768727c917e1806d82a530cae7a",
    },
}


@pytest.fixture(scope="module")
def first_cycle(tmp_path_factory):
    """Runs cycle 0 of a workload once per module: "index:kind" -> Record."""
    runs = {}

    def run(name):
        if name not in runs:
            work = tmp_path_factory.mktemp(name)
            wl = jobs.build(name, work, 1)
            # The warm-ups write what later jobs read.  They are run but not
            # judged: the maximal3d warm-up raises its resolution check (level
            # 3 is too coarse for delta 1/4), and its workload excuses it.
            for kind in wl.kinds:
                jobs.execute(kind.warmup, jobs.warmup_dir(work, kind.name))
            runs[name] = {}
            for i, job in enumerate(wl.cycle(0)):
                rec = jobs.execute(job, work / "out" / f"c0-{i}")
                jobs.collect(rec)
                runs[name][f"{i}:{job.kind}"] = rec
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_first_cycle_meets_every_oracle(first_cycle, name):
    verdicts = {key: jobs.verdict(rec) for key, rec in first_cycle(name).items()}
    assert {key: reason for key, reason in verdicts.items() if reason is not None} == {}


@pytest.mark.parametrize("name", sorted(FF_ARTIFACTS))
def test_first_cycle_ff_artifacts_pinned(first_cycle, name):
    digests = {
        f"{rec.job.kind}/{fn}": hashlib.sha256(blob).hexdigest()
        for rec in first_cycle(name).values()
        for fn, blob in rec.artifacts.items()
        if fn.startswith("ff_")
    }
    assert digests == FF_ARTIFACTS[name]
