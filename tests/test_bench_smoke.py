"""Every benchmark workload builds, and one cycle of its jobs meets its oracles.

bench/run.py runs these workloads in a timed loop, where a library name or
signature that a job calls and that no longer exists would show only as a
lower pass_frac.  The finite-field artifacts and the written grids of that
cycle are also pinned by sha256, so a change that alters their bytes shows
here.  bench/jobs.py imports only furstlab, numpy and the standard library,
so it is loaded here by path.

Run as a script (`PYTHONPATH=src python tests/test_bench_smoke.py`), this
file prints FF_ARTIFACTS and GRID_ARTIFACTS as the current code makes
them, for pasting in after a change that alters those bytes on purpose.
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
            "5fedba213e11dd167a7d1389bb0418a087f29059ea6b1ab8068dec6d741a71ac",
        "search.kakeya.2.3/ff_search.json":
            "0b5232baa071ce30b5f854c63ee0070528a8a40beac6270dd3e71fd77bb2a72a",
        "search.kakeya.2.4/ff_search.json":
            "819ea90df3a96d899a6c6f7d431f12a9c2760f8e0dd52ac57f8011b337c062e6",
        "search.kakeya.3.2/ff_search.json":
            "7512b29d5bf6611efd2e181d6333a57d210ecce4745cb639ef80a66af46b67da",
        "search.kakeya.5.2/ff_search.json":
            "32c968efcd2ad7ecd56eb2b3819c2adc64b926e59e70ff95d9aec7eb1ce7537f",
        "search.spread.3.2/ff_search.json":
            "bfe7d26a69aaa350d2ee8a6af81dafed3379e741da460a2d5fc30ea43c30496c",
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
            "7512b29d5bf6611efd2e181d6333a57d210ecce4745cb639ef80a66af46b67da",
        "search.spread.2.3/ff_search.json":
            "54b873fbe7e04bd2f529cec37cb51e4c9e09e68865e69a1979909eec7b01bdee",
    },
}


# sha256 of the grid.csv and grid.rle of each construct.* job of cycle 0
# (seed 1), by job kind and file name.  Both are integer-only, so the
# digests hold on every platform.
GRID_ARTIFACTS = {
    "sweep": {
        "construct.cantor/grid.csv":
            "2e81aabd9e3f761575351ec25476cfadf44bc15d627c43b98dc6bd388595370b",
        "construct.cantor/grid.rle":
            "6b762af1c75c7bd3b34c818e5bdada11146f1c2cb1cbc76a0797cf363f33d256",
        "construct.product/grid.csv":
            "e880eef969f3ecf39d70a3ac62c27fe0f28fb52d9a7f34d5bd626f676282c707",
        "construct.product/grid.rle":
            "fa33ba4704c061586d9111e49fe191e6e23ddd6a136bdb1d3284af89ae51a103",
        "construct.sharp/grid.csv":
            "bbd77cc0edc75d6697b1b73d23b2d66f35404c3f57c9b81df2481b6e3879d527",
        "construct.sharp/grid.rle":
            "a31c80e45abbe411faeb72696f76e8f4db46937995f86dfa229f055cb8e44865",
    },
}


def run_first_cycle(name: str, work: Path) -> dict:
    """Runs cycle 0 of a workload under `work`: "index:kind" -> Record."""
    wl = jobs.build(name, work, 1)
    # The warm-ups write what later jobs read.  They are run but not judged:
    # the maximal3d warm-up raises its resolution check (level 3 is too
    # coarse for delta 1/4), and its workload excuses it.
    for kind in wl.kinds:
        jobs.execute(kind.warmup, jobs.warmup_dir(work, kind.name))
    records = {}
    for i, job in enumerate(wl.cycle(0)):
        rec = jobs.execute(job, work / "out" / f"c0-{i}")
        jobs.collect(rec)
        records[f"{i}:{job.kind}"] = rec
    return records


def is_ff(kind: str, fn: str) -> bool:
    return fn.startswith("ff_")


def is_grid(kind: str, fn: str) -> bool:
    return kind.startswith("construct.") and fn in ("grid.csv", "grid.rle")


def digests(records: dict, pinned) -> dict:
    """sha256 of each artifact of the records that pinned(kind, file)
    selects, by "kind/file"."""
    return {
        f"{rec.job.kind}/{fn}": hashlib.sha256(blob).hexdigest()
        for rec in records.values()
        for fn, blob in rec.artifacts.items()
        if pinned(rec.job.kind, fn)
    }


@pytest.fixture(scope="module")
def first_cycle(tmp_path_factory):
    """Runs cycle 0 of a workload once per module: "index:kind" -> Record."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = run_first_cycle(name, tmp_path_factory.mktemp(name))
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_first_cycle_meets_every_oracle(first_cycle, name):
    verdicts = {key: jobs.verdict(rec) for key, rec in first_cycle(name).items()}
    assert {key: reason for key, reason in verdicts.items() if reason is not None} == {}


@pytest.mark.parametrize("name", sorted(FF_ARTIFACTS))
def test_first_cycle_ff_artifacts_pinned(first_cycle, name):
    assert digests(first_cycle(name), is_ff) == FF_ARTIFACTS[name]


@pytest.mark.parametrize("name", sorted(GRID_ARTIFACTS))
def test_first_cycle_grid_artifacts_pinned(first_cycle, name):
    assert digests(first_cycle(name), is_grid) == GRID_ARTIFACTS[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        for name in sorted(jobs.WORKLOADS):
            work = Path(tmp) / name
            work.mkdir()
            records[name] = run_first_cycle(name, work)
    for title, pinned in (("FF_ARTIFACTS", is_ff), ("GRID_ARTIFACTS", is_grid)):
        print(f"{title} = {{")
        for name, recs in records.items():
            found = digests(recs, pinned)
            if found:
                print(f'    "{name}": {{')
                for key, digest in sorted(found.items()):
                    print(f'        "{key}":\n            "{digest}",')
                print("    },")
        print("}")
