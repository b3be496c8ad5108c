import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from furstlab.cli import main
from furstlab.duality import GraphHyperplane, hyperplanes_to_csv, points_to_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args):
    return main(args)


class TestBoundsEval:
    def test_best_value(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "b.json", {"tuples": [{"n": 7, "k": 4, "s": "7/2", "t": 12}]}
        )
        out = tmp_path / "out"
        assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "bounds_eval.json").read_text())
        best = payload["reports"][0]["best"]
        assert best["value"] == 6.5 and best["value_exact"] == "13/2"

    def test_byte_identical_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, "b.json", {"tuples": [{"n": 4, "k": 2, "s": 1.5, "t": 4}]}
        )
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "bounds_eval.json").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_key_exits_2_no_output(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"tuples": [], "bogus": 1})
        out = tmp_path / "never"
        assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())

    def test_bad_tuple_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad2.json", {"tuples": [{"n": 4, "k": 2}]})
        assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestGrassmannVerify:
    def test_small_suite_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "g.json",
            {"pairs": [[3, 1], [4, 2]], "samples": 200, "subflat_samples": 50, "seed": 3},
        )
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "grassmann_verify.json").read_text())
        assert all(r["passed"] for r in payload["results"])


class TestDualitySpreadify:
    def test_pipeline(self, tmp_path):
        rng = np.random.default_rng(0)
        b = (np.arange(200) + 0.05 + 0.9 * rng.random(200)) / 200
        planes = [GraphHyperplane(np.array([0.0]), float(v)) for v in b]
        pts = np.stack([np.full(200, 0.5), b], axis=1)
        (tmp_path / "pts.csv").write_text(points_to_csv(pts))
        (tmp_path / "pl.csv").write_text(hyperplanes_to_csv(planes))
        cfg = write_config(
            tmp_path,
            "d.json",
            {
                "points": str(tmp_path / "pts.csv"),
                "hyperplanes": str(tmp_path / "pl.csv"),
                "levels": [2, 6],
                "ndirs": 12,
                "seed": 5,
            },
        )
        out = tmp_path / "out"
        assert run_cli(["duality", "spreadify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "spreadify_report.json").read_text())
        assert report["incidences_preserved"]
        assert report["final_direction_dimension"] > report["initial_direction_dimension"]
        assert (out / "spreadify_points.csv").exists()
        assert (out / "spreadify_hyperplanes.csv").exists()


class TestDimension:
    def test_construct_then_estimate(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"kind": "cantor", "n": 1, "base": 3, "keep": [0, 2], "depth": 8},
        )
        out = tmp_path / "out"
        assert run_cli(["dimension", "construct", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "dimension_construct.json").read_text())
        assert meta["cells"] == 256

        cfg2 = write_config(
            tmp_path, "e.json", {"grid": str(out / "grid.rle"), "levels": [4, 8]}
        )
        out2 = tmp_path / "out2"
        assert run_cli(["dimension", "estimate", "--config", cfg2, "--out", str(out2)]) == 0
        est = json.loads((out2 / "dimension_estimate.json").read_text())
        assert abs(est["estimate"]["slope"] - 0.6309297535714574) <= 0.05

    def test_estimate_needs_source(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {"levels": [2, 4]})
        assert run_cli(["dimension", "estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestFF:
    def test_verify(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "v.json",
            {"q": 3, "n": 2, "k": 1, "points": [[0, 0], [1, 0], [2, 0]],
             "spread": {"m": 3, "M": 1}},
        )
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "ff_verify.json").read_text())
        assert payload["directions"] == 4
        assert payload["pigeonhole"] is True
        assert payload["is_kakeya"] is False
        assert payload["is_spread_furstenberg"] is True

    def test_search_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"q": 2, "n": 2, "mode": "kakeya"})
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(["ff", "search", "--config", cfg, "--out", str(out)]) == 0
            blobs.append((out / "ff_search.json").read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["size"] == 3

    def test_search_node_cap_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json", {"q": 3, "n": 2, "mode": "kakeya", "node_cap": 5}
        )
        assert run_cli(["ff", "search", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_verify_count_table_cap_exits_2_before_counting(self, tmp_path, monkeypatch):
        # q = 97, n = 3, k = 1 asks for 9507 directions x 9409 cosets.
        import furstlab.finitefield as ff

        def never(*args):
            raise AssertionError("count table allocated past its cap")

        monkeypatch.setattr(ff, "_coset_labels", never)
        monkeypatch.setattr(ff, "_coset_counts", never)
        cfg = write_config(tmp_path, "v.json", {"q": 97, "n": 3, "k": 1, "points": [[0, 0, 0]]})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 2
        assert not list(out.iterdir())

    def test_spread_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json", {"q": 2, "n": 2, "mode": "spread", "k": 1, "m": 2}
        )
        out = tmp_path / "o"
        assert run_cli(["ff", "search", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "ff_search.json").read_text())["size"] == 3


class TestMaximalScan:
    def test_csv_and_plot_script(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"deltas": [0.0625], "ntubes": 8, "p": 2.0, "ndirs": 3, "seed": 1},
        )
        out = tmp_path / "out"
        assert run_cli(["maximal", "scan", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "maximal_scan.csv").read_text().splitlines()
        assert lines[0] == "delta,norm"
        assert len(lines) == 2
        assert (out / "maximal_scan_plot.py").exists()


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["dimension", "construct"], {"kind": "cantor", "n": 2, "depth": 30}),
        (["ff", "verify"], {"q": 4, "n": 2}),
        (["duality", "spreadify"], {"points": "absent.csv", "hyperplanes": "absent.csv"}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1/2", "t": 1}],
                              "ff_exponents": [{"n": 3, "k": 1}]}),
        (["grassmann", "verify"], {"pairs": [[3, 1]], "samples": -5}),
        (["grassmann", "verify"], {"pairs": [[3, 1]], "subflat_samples": 0}),
        # A list of pairs is not an object, even though dict() accepts it.
        (["grassmann", "verify"], {"pairs": [], "ball_scaling": [[1, 2], ["x", 3]]}),
    ],
    ids=["depth30", "composite_q", "missing_csv", "ff_exponents_without_s",
         "negative_samples", "zero_subflat_samples", "ball_scaling_not_object"],
)
def test_malformed_config_exits_2_writes_nothing(tmp_path, monkeypatch, argv, cfg):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, "bad.json", cfg)
    assert run_cli(argv + ["--config", cfg_path, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "blob",
    [
        # One run of 2^40 cells: rejected before it is expanded.
        struct.pack("<4sBBQ", b"GRLE", 2, 24, 1) + struct.pack("<QQ", 0, 1 << 40),
        # Announces two runs, holds one and a half.
        struct.pack("<4sBBQ", b"GRLE", 2, 4, 2) + struct.pack("<QQ", 0, 3) + b"\x01" * 8,
    ],
    ids=["huge_run", "truncated"],
)
def test_bad_rle_exits_2_writes_nothing(tmp_path, blob):
    (tmp_path / "bad.rle").write_bytes(blob)
    cfg = write_config(tmp_path, "e.json", {"grid": str(tmp_path / "bad.rle"), "levels": [1, 2]})
    out = tmp_path / "out"
    assert run_cli(["dimension", "estimate", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.iterdir())


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path, "b.json", {"tuples": [{"n": 3, "k": 2, "s": "3/2", "t": 2}]}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "furstlab.cli", "bounds", "eval",
             "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "best" in proc.stdout
