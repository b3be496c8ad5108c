import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from furstlab import table
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

    def test_survey_and_ff_exponents_pinned(self, tmp_path):
        # The benchmark's four tuples plus (3, 1, 1, 4), whose Oberlin /
        # Falconer-Mattila entry is the positive-measure flag and four of
        # whose entries are inapplicable; ff_exponents for every tuple.
        tuples = [
            {"n": 7, "k": 4, "s": "7/2", "t": 12},
            {"n": 4, "k": 2, "s": "3/2", "t": 4},
            {"n": 3, "k": 1, "s": "1/2", "t": 1},
            {"n": 5, "k": 3, "s": 2, "t": "5/2"},
            {"n": 3, "k": 1, "s": 1, "t": 4},
        ]
        ff = [{"n": t["n"], "k": t["k"], "s": t["s"]} for t in tuples]
        cfg = write_config(tmp_path, "b.json", {"tuples": tuples, "ff_exponents": ff})
        out = tmp_path / "out"
        assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(out)]) == 0
        entries = json.loads((out / "bounds_eval.json").read_text())["reports"][4]["entries"]
        assert entries[0]["flag"] == "positive Lebesgue measure"
        assert sum(not e["applicable"] for e in entries) == 4
        assert hashlib.sha256((out / "bounds_eval.json").read_bytes()).hexdigest() == (
            "ac45520345798b42bbb7f9905f394f22039829f4b69f8952ba84c0dec31249be"
        )

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

    @pytest.fixture
    def no_suites(self, monkeypatch):
        import furstlab.checks as checks

        def never(*args):
            raise AssertionError("a pair suite ran before the config was validated")

        for name in ("check_translation_inequality", "check_rotation_pointwise",
                     "check_min_rotation_norm", "check_subflat_transport"):
            monkeypatch.setattr(checks, name, never)

    def test_ball_scaling_checked_before_any_suite(self, tmp_path, no_suites):
        cfg = write_config(tmp_path, "g.json", {"pairs": [[3, 1], [4, 2]], "ball_scaling": {"n": "x"}})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 2
        assert not list(out.iterdir())

    @pytest.mark.parametrize("bad", [[17, 1], [3, 0], [2, 3], [0, 0]])
    def test_pair_caps_checked_before_any_suite(self, tmp_path, no_suites, bad, capsys):
        cfg = write_config(tmp_path, "g.json", {"pairs": [[3, 1], bad], "samples": 200_000})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 2
        assert not list(out.iterdir())
        assert "need 1 <= k <= n <= 16" in capsys.readouterr().err

    def test_pairs_at_the_caps_run(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {"pairs": [[1, 1], [3, 3], [16, 1]], "samples": 20,
                                                "subflat_samples": 5})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "grassmann_verify.json").read_text())["results"]
        assert {(r["n"], r["k"]) for r in results} == {(1, 1), (3, 3), (16, 1)}

    def test_ball_scaling_too_few_samples_for_lines_rejected(self, tmp_path, capsys):
        # 500 samples expect 2.5 draws within 0.1 of a line in R^3; this run
        # once measured 14.0 against 4.0.  Under the floor it is a schema error.
        cfg = write_config(tmp_path, "g.json", {"pairs": [[3, 1], [4, 2]], "samples": 200,
                                                "subflat_samples": 50, "ball_scaling": {"samples": 500}})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--seed", "7", "--out", str(out)]) == 2
        assert not list(out.iterdir())
        assert "expect 2.5 draws" in capsys.readouterr().err

    def test_ball_scaling_default_meets_the_floor_and_passes(self, tmp_path):
        # n = 3, delta = 0.2, 100,000 samples: 501 expected draws within 0.1.
        cfg = write_config(tmp_path, "g.json", {"pairs": [], "ball_scaling": {}})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 0
        (res,) = json.loads((out / "grassmann_verify.json").read_text())["results"]
        assert (res["name"], res["samples"], res["passed"]) == ("ball_scaling", 100000, True)

    def test_ball_scaling_floor_is_for_lines_only(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {"pairs": [], "ball_scaling": {"n": 4, "k": 2, "samples": 50}})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) in (0, 4)
        assert (out / "grassmann_verify.json").exists()


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
        # Pinned bytes, which the CSV and JSON writers must reproduce exactly;
        # the report holds every candidate direction's dimension.
        for name, sha in [
            ("spreadify_points.csv", "39a8b138dc46ad6686df5f96f36423332cd86f1f04c36eb17c795e30467b95aa"),
            ("spreadify_hyperplanes.csv",
             "8ac235ec8605cb618934af0e575db191e313776b46d7fb7e70e698a2b0306701"),
            ("spreadify_report.json",
             "a5eda6189448b16f6ca1b6bdf3c8e8ca922cc8557d47f387e45b87def67378f0"),
        ]:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("seed", range(4))
    def test_near_incidences_the_map_contracts(self, tmp_path, seed):
        # A point off both lines by about its own size; the map contracts the
        # residuals from 6.1e-5 to about 5e-7, which an absolute tolerance of
        # 1e-6 counted as 2 incidences after and 0 before.
        (tmp_path / "pts.csv").write_text("x0,x1\n-1.1e-215,6.1e-5\n")
        (tmp_path / "pl.csv").write_text("a0,c\n-2.28,1.2e-38\n3.5,1e-9\n")
        cfg = write_config(tmp_path, "d.json", {
            "points": str(tmp_path / "pts.csv"), "hyperplanes": str(tmp_path / "pl.csv"),
            "levels": [2, 4], "ndirs": 3, "seed": seed})
        out = tmp_path / "out"
        assert run_cli(["duality", "spreadify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "spreadify_report.json").read_text())
        assert (report["incidences_before"], report["incidences_after"]) == (0, 0)


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

    @pytest.mark.parametrize("n, size", [(4, 256), (3, 1)])
    def test_sharp_hyperplane_family_size(self, tmp_path, n, size):
        # 256 hyperplanes through span{e1, e2} in R^4; in R^3 only the
        # coordinate plane contains it.
        cfg = write_config(tmp_path, "c.json",
                           {"kind": "sharp_hyperplane", "n": n, "s": 1.5, "depth": 3})
        out = tmp_path / "out"
        assert run_cli(["dimension", "construct", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "dimension_construct.json").read_text())["family_size"] == size

    @pytest.mark.parametrize("config", [
        {"kind": "cantor", "n": 1, "base": 3, "keep": [0, 2], "depth": 8},
        {"kind": "cantor", "n": 2, "base": 3, "keep": [[0, 2], [0, 1, 2]], "depth": 4},
        {"kind": "cantor", "n": 3, "base": 3, "keep": [0, 2], "depth": 5},
        {"kind": "product", "n": 2, "k": 1, "depth": 6},
        {"kind": "sharp_hyperplane", "n": 4, "s": 1.5, "depth": 3},
    ], ids=["cantor1", "cantor2", "cantor3", "product", "sharp"])
    def test_csv_rows_are_the_rle_cells(self, tmp_path, config):
        # The .rle decoded without GridSet: every run expanded and each
        # linear index split into its base-2^level digits, most significant
        # first, gives the .csv rows in order.
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "out"
        assert run_cli(["dimension", "construct", "--config", cfg, "--out", str(out)]) == 0
        blob = (out / "grid.rle").read_bytes()
        magic, n, level, nruns = struct.unpack_from("<4sBBQ", blob, 0)
        runs = list(struct.iter_unpack("<QQ", blob[struct.calcsize("<4sBBQ"):]))
        assert magic == b"GRLE" and len(runs) == nruns
        lin = [v for start, length in runs for v in range(start, start + length)]
        assert all(a < b for a, b in zip(lin, lin[1:]))
        cells = [[v >> (level * (n - 1 - j)) & ((1 << level) - 1) for j in range(n)] for v in lin]
        rows = table.from_csv((out / "grid.csv").read_text(), int)
        assert rows.shape == (len(cells), n) and rows.tolist() == cells
        assert json.loads((out / "dimension_construct.json").read_text())["cells"] == len(cells)

    def test_estimate_needs_source(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {"levels": [2, 4]})
        assert run_cli(["dimension", "estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_estimate_of_empty_grid_names_the_cause(self, tmp_path, capsys):
        # A well-formed .rle of 0 runs: no box count has a logarithm.
        (tmp_path / "empty.rle").write_bytes(struct.pack("<4sBBQ", b"GRLE", 2, 4, 0))
        cfg = write_config(tmp_path, "e.json", {"grid": str(tmp_path / "empty.rle"), "levels": [1, 2]})
        out = tmp_path / "out"
        assert run_cli(["dimension", "estimate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty grid: it has no cells" in err and "math domain error" not in err
        assert not out.exists() or not list(out.iterdir())


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

    def test_verify_large_direction_family(self, tmp_path):
        # 2^17 - 1 lines of F_2^17, enumerated as one stack.
        cfg = write_config(tmp_path, "v.json", {"q": 2, "n": 17})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "ff_verify.json").read_text())
        assert payload["directions"] == 131071
        assert payload["directions_match"] is True

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
        assert (payload["lower_bound"], payload["lower_bound_source"]) == (3, "pair_count")

    def test_search_node_cap_exits_3(self, tmp_path, capsys):
        # Exit 3 writes nothing and reports the proved bound and the
        # incumbent.  The bound is the larger of the closed-form floor and
        # the branch and bound's path bound.  F_3^2 (Blokhuis-Mazzocca
        # floor 7) and F_5^2 (floor 17) stop at nodes 5 and 7, on their
        # first minimal set.  F_3^3's floor 10 is below its minimum 13, so
        # the search runs all 35,147 nodes: it holds a 15-point set by node
        # 16, and on its last node the path bound proves 13.  F_5^3 proves
        # Bukh-Chao's 39 before its first node.
        cases = [
            (3, 2, 1, "minimal size >= 7, incumbent none"),
            (3, 2, 4, "minimal size >= 7, incumbent none"),  # one node short of the end
            (5, 2, 6, "minimal size >= 17, incumbent none"),  # one node short of the end
            (3, 3, 4, "minimal size >= 10, incumbent none"),
            (3, 3, 16, "minimal size >= 10, incumbent 15"),
            (3, 3, 35146, "minimal size >= 13, incumbent 13"),  # one node short of the end
            (5, 3, 1, "minimal size >= 39, incumbent none"),
        ]
        for q, n, cap, proved in cases:
            cfg = write_config(
                tmp_path, "s.json", {"q": q, "n": n, "mode": "kakeya", "node_cap": cap}
            )
            out = tmp_path / f"o{q}_{n}_{cap}"
            assert run_cli(["ff", "search", "--config", cfg, "--out", str(out)]) == 3
            assert f"node cap {cap} exceeded; {proved}" in capsys.readouterr().err
            assert not any(out.iterdir())

    def test_search_below_its_floor_exits_4(self, tmp_path, monkeypatch, capsys):
        # A floor of q^n + 1 is false: the search stops on its first set,
        # which is smaller, and the run reports the breach and still writes
        # its artifact.
        import furstlab.finitefield as ff

        monkeypatch.setattr(ff, "_search_floor", lambda q, n, k, m: (q ** n + 1, "false"))
        cfg = write_config(tmp_path, "s.json", {"q": 3, "n": 2, "mode": "kakeya"})
        out = tmp_path / "out"
        assert run_cli(["ff", "search", "--config", cfg, "--out", str(out)]) == 4
        assert "invariant breach: minimal size 7 is below the false floor 10" in capsys.readouterr().err
        payload = json.loads((out / "ff_search.json").read_text())
        assert (payload["size"], payload["lower_bound"], payload["lower_bound_source"]) == (7, 10, "false")

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

    def test_verify_lines_table_cap_exits_2_before_counting(self, tmp_path, monkeypatch):
        # q = 2, n = 13, k = 12: 8191 hyperplanes x 2 cosets fit the cap, but
        # the Kakeya pass's 8191 lines x 4096 cosets do not.
        import furstlab.finitefield as ff

        def never(*args):
            raise AssertionError("the set was labeled before every count table was checked")

        monkeypatch.setattr(ff, "_coset_labels", never)
        cfg = write_config(tmp_path, "v.json", {"q": 2, "n": 13, "k": 12, "points": [[0] * 13]})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 2
        assert not list(out.iterdir())

    @pytest.mark.parametrize("k, spread, passes", [
        (1, {"m": 3, "M": 13}, 1),
        (1, None, 1),
        (2, {"m": 3, "M": 13}, 2),
    ], ids=["k1_spread", "k1", "k2_spread"])
    def test_verify_labels_once_per_k(self, tmp_path, monkeypatch, k, spread, passes):
        # One direction stack and one labeling pass for the k-directions;
        # for k > 1, one more of each for the lines of the Kakeya check.
        import furstlab.finitefield as ff

        calls = {"ff_directions": 0, "_max_counts": 0}

        def counted(name):
            real = getattr(ff, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(ff, name, wrapper)

        for name in calls:
            counted(name)
        cfg = {"q": 3, "n": 3, "k": k, "points": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 2]]}
        if spread is not None:
            cfg["spread"] = spread
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", write_config(tmp_path, "v.json", cfg),
                        "--out", str(out)]) == 0
        assert calls == {"ff_directions": passes, "_max_counts": passes}
        payload = json.loads((out / "ff_verify.json").read_text())
        assert (payload["directions"], payload["pigeonhole"], payload["is_kakeya"]) == (13, True, False)

    def test_verify_compares_two_independent_counts(self, tmp_path, monkeypatch):
        # A closed form off by one must show as a mismatch: the stack holds
        # the enumeration's own count, so no all-zero row is labeled as a basis.
        import furstlab.finitefield as ff

        real_binomial, real_max_counts = ff.gaussian_binomial, ff._max_counts

        def max_counts(f, dirs):
            assert (dirs != 0).any(axis=(1, 2)).all(), "an all-zero basis was labeled"
            return real_max_counts(f, dirs)

        monkeypatch.setattr(ff, "gaussian_binomial", lambda n, k, q: real_binomial(n, k, q) + 1)
        monkeypatch.setattr(ff, "_max_counts", max_counts)
        cfg = write_config(tmp_path, "v.json", {"q": 3, "n": 3, "k": 2, "points": [[0, 0, 0], [1, 2, 0]]})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 4
        payload = json.loads((out / "ff_verify.json").read_text())
        assert (payload["directions"], payload["gaussian_binomial"]) == (13, 14)
        assert payload["directions_match"] is False

    def test_verify_set_past_points_cap_is_labeled_in_chunks(self, tmp_path):
        # 2801 lines x 7^4 cosets fits the count table cap, though 2801
        # directions x 8614 points does not: the set is labeled in chunks.
        rng = np.random.default_rng(5)
        codes = rng.choice(7 ** 5, 8614, replace=False)
        points = (codes[:, None] // 7 ** np.arange(4, -1, -1)) % 7
        cfg = write_config(tmp_path, "v.json", {"q": 7, "n": 5, "k": 1, "points": points.tolist()})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "ff_verify.json").read_text())
        assert (payload["directions"], payload["set_size"], payload["pigeonhole"]) == (2801, 8614, True)

    def test_spread_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json", {"q": 2, "n": 2, "mode": "spread", "k": 1, "m": 2}
        )
        out = tmp_path / "o"
        assert run_cli(["ff", "search", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "ff_search.json").read_text())["size"] == 3


class TestMaximalScan:
    def test_one_json_artifact(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "m.json",
            {"deltas": [0.0625], "ntubes": 8, "p": 2.0, "ndirs": 3, "seed": 1},
        )
        out = tmp_path / "out"
        assert run_cli(["maximal", "scan", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["maximal_scan.json"]
        assert json.loads((out / "maximal_scan.json").read_text())["rows"] == [
            [0.0625, 0.8342402862423705]
        ]
        # Pinned from the per-translate search; the slab sweep must reproduce it.
        assert hashlib.sha256((out / "maximal_scan.json").read_bytes()).hexdigest() == (
            "7c8c88aeb68f1043cd50935173404828fbc42f0cb512542d79bdc3b7ba0d0055"
        )

    def test_sampling_scan_pinned(self, tmp_path):
        # The benchmark's finest planar scan (delta 2^-6, a 512 x 512 grid),
        # pinned byte for byte.  Its tubes and its directions draw from two
        # child streams of seed 0.
        cfg = write_config(tmp_path, "m.json", {"deltas": [2.0**-6], "ntubes": 10, "ndirs": 20})
        out = tmp_path / "out"
        assert run_cli(["maximal", "scan", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "maximal_scan.json").read_bytes()).hexdigest() == (
            "937dbe121ad806569905837ace56c40ba2117c714c7e91e2d0bf3b328ad6edf6"
        )


# CSV inputs of the malformed cases, by file name.
CSV_INPUTS = {
    "points.csv": "x0,x1\n0.5,0.25\n",
    "planes.csv": "a0,c\n0.0,0.25\n0.5,0.1\n",
    "nan_plane.csv": "a0,c\n0.5,nan\n0.0,0.25\n",
    "inf_point.csv": "x0,x1\ninf,0.25\n",
    "huge_slope.csv": "a0,c\n1e300,0.1\n0.5,0.2\n",
    "huge_spread.csv": "a0,c\n1.5e308,0.1\n-1.5e308,0.2\n",
    "single_column.csv": "c\n0.25\n0.1\n",
    "no_planes.csv": "a0,c\n",
    "wide_planes.csv": "a0,a1,c\n0.5,0.5,0.1\n0.1,0.2,0.3\n",
    "ragged.csv": "x0,x1\n0.5,0.25\n0.1\n",
    "ff_narrow.csv": "x0,x1\n0,0\n1,1\n2,2\n",
    "ff_ragged.csv": "x0,x1,x2\n0,0\n1,1\n",
}
# A grid header with n = 0: no cell has a coordinate to key on.
RLE_INPUTS = {"zero_n.rle": struct.pack("<4sBBQ", b"GRLE", 0, 3, 0)}


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["dimension", "construct"], {"kind": "cantor", "n": 2, "depth": 30}),
        (["ff", "verify"], {"q": 4, "n": 2}),
        (["duality", "spreadify"], {"points": "absent.csv", "hyperplanes": "absent.csv"}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1/2", "t": 1}],
                              "ff_exponents": [{"n": 3, "k": 1}]}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1/0", "t": 1}]}),
        # 1e400 reads back from JSON as inf.
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": 1e400, "t": 1}]}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1/2", "t": 1}],
                              "ff_exponents": [{"n": 3, "k": 1, "s": "1/0"}]}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": True, "t": 1}]}),
        (["grassmann", "verify"], {"pairs": [[3, 1]], "samples": -5}),
        (["grassmann", "verify"], {"pairs": [[3, 1]], "subflat_samples": 0}),
        # A list of pairs is not an object, even though dict() accepts it.
        (["grassmann", "verify"], {"pairs": [], "ball_scaling": [[1, 2], ["x", 3]]}),
        (["maximal", "scan"], {"deltas": [0.0]}),
        # Rejected before the 4096 x 4096 field for delta = 2^-9 is built.
        (["maximal", "scan"], {"deltas": [2.0**-9], "ntubes": 0}),
        (["maximal", "scan"], {"deltas": [0.0625], "ntubes": -3}),
        (["maximal", "scan"], {"deltas": [0.0625, 0.6]}),
        (["maximal", "scan"], {"deltas": [0.0625], "ndirs": 0}),
        (["maximal", "scan"], {"deltas": [0.0625], "p": 0.5}),
        # x^inf is 0 or 1, so p = inf would report 1.0 for any field.
        (["maximal", "scan"], {"deltas": [0.0625], "ntubes": 3, "ndirs": 2, "p": math.inf}),
        # Every maximal value below 1 underflows to 0 in its p-th power.
        (["maximal", "scan"], {"deltas": [0.0625], "ntubes": 3, "ndirs": 2, "p": 1e308}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "nan_plane.csv"}),
        (["duality", "spreadify"], {"points": "inf_point.csv", "hyperplanes": "planes.csv"}),
        # Finite in the CSV, but its image under the spreading map overflows.
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "huge_slope.csv"}),
        # Finite slopes whose spread, and so the data's extent, overflows.
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "huge_spread.csv"}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "single_column.csv"}),
        (["duality", "spreadify"], {"points": "ragged.csv", "hyperplanes": "planes.csv"}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "no_planes.csv"}),
        # Planes of R^3 with points of R^2.
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "wide_planes.csv"}),
        # Points of F_3^2 under a config for F_3^3.
        (["ff", "verify"], {"q": 3, "n": 3, "set_csv": "ff_narrow.csv"}),
        (["ff", "verify"], {"q": 3, "n": 3, "set_csv": "ff_ragged.csv"}),
        # A coordinate past int64, which set_csv rejects too.
        (["ff", "verify"], {"q": 3, "n": 2, "points": [[2**70, 1], [0, 0]]}),
        # No surveyed value of n = 10^400 fits in a float.
        (["bounds", "eval"], {"tuples": [{"n": 10**400, "k": 1, "s": 1, "t": 1}]}),
        (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1/2", "t": 1}],
                              "ff_exponents": [{"n": 10**400, "k": 1, "s": 1}]}),
        # json.load reads NaN and Infinity.
        (["grassmann", "verify"], {"pairs": [], "ball_scaling": {"delta": math.nan, "samples": 100}}),
        (["grassmann", "verify"], {"pairs": [], "ball_scaling": {"delta": math.inf, "samples": 100}}),
        # The incidence rule is scale-free and takes no tolerance: the key is
        # unknown whatever its value, a once-valid one included.
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "incidence_tol": math.nan}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "incidence_tol": 0.0}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "incidence_tol": 1e-6}),
        # An integer past the float range.
        (["maximal", "scan"], {"deltas": [0.0625], "p": 10**400}),
        (["dimension", "construct"], {"kind": "cantor", "n": 1, "keep": 5, "depth": 2}),
        (["dimension", "construct"], {"kind": "cantor", "n": 2, "keep": [[0], 1], "depth": 2}),
        # Rejected before a per-axis pattern list of n - k entries is built.
        (["dimension", "construct"], {"kind": "product", "n": 10**400, "k": 1, "s": 0.5}),
        (["dimension", "construct"], {"kind": "sharp_hyperplane", "n": 10**400, "s": 1.5}),
        (["dimension", "estimate"], {"grid": "zero_n.rle", "levels": [1, 2]}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "ndirs": 0}),
        # Past level 62 a float cell index overflows int64.
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "levels": [2, 64]}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "levels": [2, 100]}),
        # Every subspace is within distance 1 of U, so no delta >= 1 scales.
        (["grassmann", "verify"], {"pairs": [], "ball_scaling": {"delta": 5, "samples": 10}}),
        (["grassmann", "verify"], {"pairs": [[3, 1]], "ball_scaling": {"delta": 1.0}}),
        (["maximal", "scan"], {"deltas": []}),
        (["ff", "search"], {"q": 2, "n": 2, "node_cap": 0}),
        (["ff", "search"], {"q": 2, "n": 2, "node_cap": -1}),
        # Haar draws past the entry cap, rejected before they are allocated.
        (["maximal", "scan"], {"deltas": [0.0625], "ntubes": 3, "ndirs": 10**12}),
        (["duality", "spreadify"], {"points": "points.csv", "hyperplanes": "planes.csv",
                                    "ndirs": 10**12}),
    ],
    ids=["depth30", "composite_q", "missing_csv", "ff_exponents_without_s",
         "bounds_zero_denominator", "bounds_infinite", "ff_exponents_zero_denominator",
         "bounds_bool",
         "negative_samples", "zero_subflat_samples", "ball_scaling_not_object",
         "scan_zero_delta", "scan_tiny_delta_no_tubes", "scan_negative_ntubes",
         "scan_delta_above_half", "scan_zero_ndirs", "scan_p_below_1",
         "scan_p_infinite", "scan_p_huge", "nan_plane", "inf_point", "huge_slope", "huge_spread",
         "single_column", "ragged", "no_planes", "plane_width_mismatch",
         "ff_verify_csv_narrow", "ff_verify_csv_ragged",
         "ff_points_beyond_int64",
         "bounds_huge_n", "ff_exponents_huge_n", "ball_scaling_delta_nan",
         "ball_scaling_delta_inf", "incidence_tol_nan", "incidence_tol_zero",
         "spreadify_incidence_tol_unknown", "scan_p_huge_int",
         "construct_keep_int", "construct_keep_mixed", "construct_product_huge_n",
         "construct_sharp_huge_n", "estimate_rle_zero_n", "spreadify_zero_ndirs",
         "spreadify_level_64", "spreadify_level_100",
         "ball_scaling_delta_above_1", "ball_scaling_delta_1", "scan_no_deltas",
         "search_zero_node_cap", "search_negative_node_cap", "scan_huge_ndirs",
         "spreadify_huge_ndirs"],
)
def test_malformed_config_exits_2_writes_nothing(tmp_path, monkeypatch, argv, cfg):
    monkeypatch.chdir(tmp_path)
    for name, text in CSV_INPUTS.items():
        (tmp_path / name).write_text(text)
    for name, blob in RLE_INPUTS.items():
        (tmp_path / name).write_bytes(blob)
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


def test_oversized_rle_exits_2_before_it_is_read(tmp_path, capsys, monkeypatch):
    # A sparse file one byte past a header and 2^24 runs, with a header
    # that from_rle would accept: only the size check refuses it.
    from furstlab.dimension import MAX_RLE_BYTES

    path = tmp_path / "big.rle"
    path.write_bytes(struct.pack("<4sBBQ", b"GRLE", 2, 12, 1 << 24))
    os.truncate(path, MAX_RLE_BYTES + 1)
    monkeypatch.setattr("furstlab.cli.GridSet.from_rle", lambda blob: pytest.fail("file was read"))
    cfg = write_config(tmp_path, "e.json", {"grid": str(path), "levels": [1, 2]})
    out = tmp_path / "out"
    assert run_cli(["dimension", "estimate", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.iterdir())
    assert f"more than the cap of {MAX_RLE_BYTES}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [{"q": 2, "n": 20}, {"q": 3, "n": 9}, {"q": 2, "n": 10**400},
     {"q": 3, "n": 7, "mode": "spread", "k": 2, "m": 2}],
    ids=["direction_cap", "count_table_cap", "huge_n", "spread_count_table_cap"],
)
def test_search_caps_exit_2_before_building_tables(tmp_path, monkeypatch, cfg):
    # 2^20 - 1 directions; 9841 x 3^9 and 99463 x 3^7 label tables; n past any cap.
    import furstlab.finitefield as ff

    def never(*args):
        raise AssertionError("search tables built past their caps")

    monkeypatch.setattr(ff, "ff_directions", never)
    monkeypatch.setattr(ff, "_coset_labels", never)
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert run_cli(["ff", "search", "--config", path, "--out", str(out)]) == 2
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "argv, cfg",
    [(["ff", "verify"], {"q": 2, "n": 10**400}),
     (["ff", "search"], {"q": 2, "n": 3, "mode": "spread", "k": 10**400, "m": 1}),
     (["ff", "verify"], {"q": 2**61 - 1, "n": 2}),
     (["ff", "search"], {"q": 2**61 - 1, "n": 2}),
     (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1", "t": "1e-99999999"}]}),
     (["bounds", "eval"], {"tuples": [{"n": 3, "k": 1, "s": "1e99999999", "t": 1}]}),
     (["grassmann", "verify"], {"pairs": [], "ball_scaling": {"n": 10**9}})],
    ids=["verify_huge_n", "spread_huge_k", "verify_huge_prime_q", "search_huge_prime_q",
         "bounds_tiny_t_exponent", "bounds_huge_s_exponent", "ball_scaling_huge_n"],
)
def test_huge_exponent_exits_2_within_a_second(tmp_path, argv, cfg):
    # In a child process, which the timeout stops if q**n is ever computed,
    # a prime q near 2^61 is tested by trial division, a decimal string's
    # 10**exponent is built or the exact line-ball law loops over n.
    child = ("import sys, time; from furstlab.cli import main; t = time.perf_counter(); "
             "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)")
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", child, *argv, "--config", path, "--out", str(out)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert float(proc.stdout) < 1.0
    assert not list(out.iterdir())


class TestPipeline:
    @pytest.mark.parametrize("target", [(os, "replace"), (Path, "write_bytes")],
                             ids=["rename", "write"])
    def test_failed_second_write_leaves_nothing(self, tmp_path, monkeypatch, target):
        owner, name = target
        real, calls = getattr(owner, name), []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return real(*args)

        cfg = write_config(tmp_path, "c.json", {"kind": "cantor", "n": 1, "depth": 4})
        out = tmp_path / "out"
        monkeypatch.setattr(owner, name, second_fails)
        assert run_cli(["dimension", "construct", "--config", cfg, "--out", str(out)]) == 2
        assert len(calls) == 2
        assert not list(out.iterdir())

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, sub):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        cfg = write_config(tmp_path, "b.json", {"tuples": [{"n": 3, "k": 1, "s": "1/2", "t": 1}]})
        assert run_cli(["bounds", "eval", "--config", cfg, "--out", str(taken / sub)]) == 2
        assert taken.read_text() == "kept"
        assert "cannot write output" in capsys.readouterr().err

    def test_spread_block_checked_before_any_pass(self, tmp_path, monkeypatch):
        import furstlab.finitefield as ff

        def never(*args):
            raise AssertionError("a verification pass ran before the spread block was validated")

        monkeypatch.setattr(ff, "_coset_labels", never)
        cfg = write_config(tmp_path, "v.json", {"q": 3, "n": 2, "points": [[0, 0]], "spread": {"m": "x"}})
        out = tmp_path / "out"
        assert run_cli(["ff", "verify", "--config", cfg, "--out", str(out)]) == 2
        assert not list(out.iterdir())

    def test_breach_exits_4_after_writing_report(self, tmp_path, monkeypatch):
        import furstlab.checks as checks

        monkeypatch.setattr(checks, "check_ball_scaling",
                            lambda *args: checks.CheckResult("ball_scaling", 10, 1, 2.0, 1.0))
        cfg = write_config(tmp_path, "g.json", {"pairs": [[3, 1]], "samples": 20, "ball_scaling": {}})
        out = tmp_path / "out"
        assert run_cli(["grassmann", "verify", "--config", cfg, "--out", str(out)]) == 4
        assert [p.name for p in out.iterdir()] == ["grassmann_verify.json"]
        results = json.loads((out / "grassmann_verify.json").read_text())["results"]
        assert [r["passed"] for r in results] == [True, True, True, False]


def test_cli_imports_no_private_name():
    # The CLI reaches the library only through public names, so each rule
    # it applies is owned by the module that defines it.
    import ast

    import furstlab.cli

    tree = ast.parse(Path(furstlab.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("furstlab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


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
