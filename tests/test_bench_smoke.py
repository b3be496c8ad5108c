"""Every benchmark workload builds, and one cycle of its jobs meets its oracles.

bench/run.py runs these workloads in a timed loop, where a library name or
signature that a job calls and that no longer exists would show only as a
lower pass_frac.  The finite-field artifacts, the written grids, the
maximal-function artifacts and the box-counting and spreadify artifacts of
that cycle, and its grassmann verify reports, are also pinned by sha256,
so a change that alters their bytes shows here.  bench/jobs.py imports only
furstlab, numpy and the standard library, so it is loaded here by path.

Run as a script (`PYTHONPATH=src python tests/test_bench_smoke.py`), this
file prints FF_ARTIFACTS, GRID_ARTIFACTS, MAXIMAL_ARTIFACTS,
FRACTAL_ARTIFACTS and GRASSMANN_ARTIFACTS as the current code makes them,
for pasting in after a change that alters those bytes on purpose.
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
            "d091eda23c04cd0803ed85ad646366b3462bb56ff2182608b862a16f35a2ecf8",
        "search.kakeya.2.3/ff_search.json":
            "165974c40db7eee36a18be1a60679af7ce4dd897d418475aacb1960655bde486",
        "search.kakeya.2.4/ff_search.json":
            "6419a8290b34c87b686bfbd190d604748c3acce0a374cd7b0b6f107b0d216752",
        "search.kakeya.3.2/ff_search.json":
            "f0e33728c4fc8fa7c5e497bac5b13168e49067376b53fedf0fec15fc845247ac",
        "search.kakeya.5.2/ff_search.json":
            "d466a850aebd2079a038e4ea03c9cf830a7e1d1f3e36f84906da22ebdd206ac5",
        "search.spread.3.2/ff_search.json":
            "aa5727f748eaba31808978d7ab61ff65f3aaf7bf189ef879590901a1d3930e25",
        "search.spread.5.2/ff_search.json":
            "98e6d5b512ef1387bd14aecf46e63fa8be403d3295420339ca046296201fdff9",
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
            "f0e33728c4fc8fa7c5e497bac5b13168e49067376b53fedf0fec15fc845247ac",
        "search.spread.2.3/ff_search.json":
            "69e4e457a655b584b799fe2bad0a35d3729661fae928331480663b3ea38768e2",
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


# sha256 of the maximal_scan.json of each scan job and
# the result.json of the maximal3d job of cycle 0 (seed 1), by job kind and
# file name.  Their norms are floats from Haar line draws (normalized
# Gaussians) and BLAS products, so, like the maximal_scan pins of test_cli,
# the digests hold for this numpy and BLAS.
MAXIMAL_ARTIFACTS = {
    "sampling": {
        "maximal3d/result.json":
            "4ea728e88f4bfc8a4d1611b1ff1b8cef871194406df36cbabe69e0ae23d8cfe8",
        "scan.delta4/maximal_scan.json":
            "cc03d9e43a3d7cc3254200c24e608032c30f0d349251e14d912d6c701b4fb9e8",
        "scan.delta5/maximal_scan.json":
            "bfe56ae7b783f65be2928e0707ee1d121b44ab432e1ea8cd7ce5a03c89445b87",
        "scan.delta6/maximal_scan.json":
            "3e6a365f10e7fb101c9788a1d4cf1bf889eb498c59933eb6b39408e2efe25636",
    },
    "sweep": {
        "scan/maximal_scan.json":
            "4f8992240ce0f50b8f1066102c142e93ba9dc019ddc997c9e8e568864401c7d1",
    },
}


# sha256 of each dimension estimate, dimension construct, spreadify and
# slice artifact of cycle 0 (seed 1), by job kind and file name.  Their
# slopes come from numpy's log2 and the closed-form least-squares fit, and
# the spreadify outputs from Haar draws of planes in R^3 (a LAPACK QR) and
# BLAS products, so, like MAXIMAL_ARTIFACTS, the digests hold for this
# numpy and BLAS.
FRACTAL_ARTIFACTS = {
    "fractal": {
        "estimate.cantor/dimension_estimate.json":
            "8dd23018595e0f9a3ad59ce2882f8714b6e02c79abf23ddcfa0a50348c35b4ba",
        "estimate.product6/dimension_estimate.json":
            "2cdbe43307687e4a86f1c79c103e32ab03db5bb168242f9ecdff9a2a8c8cf11e",
        "estimate.product7/dimension_estimate.json":
            "5ba22bd08a3a15f5aece8caaad67f195aa3c11e14fbbad1fa30e3045b463e1ff",
        "estimate.sharp/dimension_estimate.json":
            "1153a6794f0b01a632ef1eb01905ad0c7efdd16ee5ec678153c2446f933c550d",
        "slice/result.json":
            "c5fa1b83240ed681d65f5eb50bbbc71b72aa89da2d6e97b6f488769744bef0c5",
        "spreadify/spreadify_hyperplanes.csv":
            "779bb4264e62a8ab2485fb4957316d48000a3525872dba3d7f975614dce6671a",
        "spreadify/spreadify_points.csv":
            "cdf9f93518d70f76457cc9ffa22a2de40f86ae5fd498003ba70b2e7374912bd1",
        "spreadify/spreadify_report.json":
            "92a2c64506228ab2b65a1f88814405a3173ad21cd768d5b976fdd88a14bae3e3",
    },
    "sweep": {
        "construct.cantor/dimension_construct.json":
            "b94b761cc87d7de39b79107aba95df8b52e5fc746d0a423f0ed0d29545532fa5",
        "construct.product/dimension_construct.json":
            "92d17a06562a66098241155b3a05c7ba18a05e9b9da2971fc5733851f23fafe2",
        "construct.sharp/dimension_construct.json":
            "8ef1897254e6898627e1cc3430b12cd079cf977a91de50d0a8b7a7833fa0612e",
        "estimate.written/dimension_estimate.json":
            "c3dd68ed0ec00f5342fbbf114b872bf52ce80b89c7145b518ee84121481155c0",
        "spreadify/spreadify_hyperplanes.csv":
            "8aae38697d95a24c2ae5d4ec3c98739b546506759e5a4e1faa9861c381ea3cc6",
        "spreadify/spreadify_points.csv":
            "ba589333b07959725ccb0bbd1196c2ab37ceb6ae03b74ab00de1be5121cba4f2",
        "spreadify/spreadify_report.json":
            "16d34ab97bfdfe382a52d9b4e6a0faef78716ca2cafc8021adf2ed2c5bdc7a99",
    },
}


# sha256 of the grassmann_verify.json of each grassmann verify job of cycle 0
# (seed 1), by job kind and file name.  Their distances and norms are floats
# from Haar draws (normalized Gaussians for lines, a LAPACK QR otherwise),
# SVDs and BLAS products, so, like MAXIMAL_ARTIFACTS, the digests hold for
# this numpy and BLAS.
GRASSMANN_ARTIFACTS = {
    "sampling": {
        "grassmann.3.1/grassmann_verify.json":
            "34cf136ce79cb193cceecfbfbc3784e4dd1f2011c3f95e63f081201090a444e9",
        "grassmann.4.2/grassmann_verify.json":
            "4922c7c45a804d29d9aa130e3c882c98bbb92e278b52c7c76b93bd6f1031e380",
        "grassmann.5.3/grassmann_verify.json":
            "5640ba040ea990f3f72af4fdf42e01ddc25f666653dd6cc7651f488676eff0e9",
    },
    "sweep": {
        "grassmann/grassmann_verify.json":
            "fe7eee78fbb00678cae7ce5df285189daadb47c792c68b660e47cf9130eda4b6",
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


def is_maximal(kind: str, fn: str) -> bool:
    return fn == "maximal_scan.json" or (
        kind == "maximal3d" and fn == "result.json")


def is_fractal(kind: str, fn: str) -> bool:
    return (fn in ("dimension_estimate.json", "dimension_construct.json")
            or fn.startswith("spreadify_") or (kind == "slice" and fn == "result.json"))


def is_grassmann(kind: str, fn: str) -> bool:
    return fn == "grassmann_verify.json"


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


@pytest.mark.parametrize("name", sorted(MAXIMAL_ARTIFACTS))
def test_first_cycle_maximal_artifacts_pinned(first_cycle, name):
    assert digests(first_cycle(name), is_maximal) == MAXIMAL_ARTIFACTS[name]


@pytest.mark.parametrize("name", sorted(FRACTAL_ARTIFACTS))
def test_first_cycle_fractal_artifacts_pinned(first_cycle, name):
    assert digests(first_cycle(name), is_fractal) == FRACTAL_ARTIFACTS[name]


@pytest.mark.parametrize("name", sorted(GRASSMANN_ARTIFACTS))
def test_first_cycle_grassmann_artifacts_pinned(first_cycle, name):
    assert digests(first_cycle(name), is_grassmann) == GRASSMANN_ARTIFACTS[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        for name in sorted(jobs.WORKLOADS):
            work = Path(tmp) / name
            work.mkdir()
            records[name] = run_first_cycle(name, work)
    for title, pinned in (("FF_ARTIFACTS", is_ff), ("GRID_ARTIFACTS", is_grid),
                          ("MAXIMAL_ARTIFACTS", is_maximal),
                          ("FRACTAL_ARTIFACTS", is_fractal),
                          ("GRASSMANN_ARTIFACTS", is_grassmann)):
        print(f"{title} = {{")
        for name, recs in records.items():
            found = digests(recs, pinned)
            if found:
                print(f'    "{name}": {{')
                for key, digest in sorted(found.items()):
                    print(f'        "{key}":\n            "{digest}",')
                print("    },")
        print("}")
