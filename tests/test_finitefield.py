import functools
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from reference import coset_of, ff_directions_loop, ff_full_space, subspace_points

from furstlab import finitefield as ff
from furstlab.finitefield import (
    FFSet,
    SearchBudgetExceeded,
    ff_coset_profile,
    ff_directions,
    ff_is_kakeya,
    ff_is_spread_furstenberg,
    ff_min_kakeya,
    ff_min_spread,
    ff_pigeonhole_verify,
    gaussian_binomial,
)


def rows(f: FFSet) -> list:
    """The set's points as tuples, in the array's (sorted) order."""
    return list(map(tuple, f.points.tolist()))


# One search per Kakeya shape for the whole module: the F_3^3 search
# takes about 0.25 s.
min_kakeya = functools.lru_cache(maxsize=None)(ff_min_kakeya)

search_floor = ff._search_floor


def trivial_floor(q, n, k, m):
    return m, "trivial"


@pytest.fixture
def exhaustive(monkeypatch):
    """Searches in this test use the trivial floor m, so they prove their
    minimum by exhausting the tree, independently of the closed-form
    floors."""
    monkeypatch.setattr(ff, "_search_floor", trivial_floor)


@functools.lru_cache(maxsize=None)
def exhaustive_min(q, n, k, m):
    """The exhaustive search's result for one shape, once per module: the
    F_3^3 and F_7^2 Kakeya searches take about 0.25 s each."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ff, "_search_floor", trivial_floor)
        return ff_min_spread(q, n, k, m)


class TestGaussianBinomial:
    def test_lines_count(self):
        for q in (2, 3, 5):
            for n in (2, 3, 4):
                assert gaussian_binomial(n, 1, q) == (q**n - 1) // (q - 1)

    def test_four_choose_two_base_two(self):
        assert gaussian_binomial(4, 2, 2) == 35

    def test_symmetry(self):
        for q in (2, 3):
            for n in range(1, 7):
                for k in range(n + 1):
                    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)

    def test_range_check(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)


class TestDirections:
    def test_counts(self):
        assert len(ff_directions(2, 2, 1)) == 3
        assert len(ff_directions(3, 2, 1)) == 4
        for q in (2, 3, 5):
            for n in (2, 3, 4):
                for k in range(1, n):
                    dirs = ff_directions(q, n, k)
                    assert len(dirs) == gaussian_binomial(n, k, q)

    def test_distinct_canonical(self):
        dirs = ff_directions(3, 3, 2)
        assert len(np.unique(dirs, axis=0)) == len(dirs)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_matches_loop(self, q, n):
        for k in range(1, n):
            dirs = ff_directions(q, n, k)
            assert dirs.shape == (gaussian_binomial(n, k, q), k, n)
            assert dirs.dtype == np.int64
            np.testing.assert_array_equal(dirs, ff_directions_loop(q, n, k))

    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            ff_directions(4, 2, 1)
        with pytest.raises(ValueError):
            FFSet(6, 2, [])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            ff_directions(31, 6, 3)


class TestCosetProfile:
    def test_full_coset(self):
        p = ff_directions(3, 2, 1)[0]
        offset = (1, 2)
        coset = [tuple((a + b) % 3 for a, b in zip(pt, offset)) for pt in subspace_points(3, p)]
        f = FFSet(3, 2, coset)
        best, count, hist = ff_coset_profile(f, p)
        assert count == 3
        assert hist[best] == 3

    def test_full_space_uniform(self):
        f = ff_full_space(3, 2)
        for p in ff_directions(3, 2, 1):
            _, count, hist = ff_coset_profile(f, p)
            assert count == 3
            assert all(v == 3 for v in hist.values())

    def test_histogram_partitions(self):
        f = FFSet(3, 3, [(0, 0, 0), (1, 2, 1), (2, 2, 2), (0, 1, 0)])
        for k in (1, 2):
            for p in ff_directions(3, 3, k):
                _, _, hist = ff_coset_profile(f, p)
                assert len(hist) == 3 ** (3 - k)
                assert sum(hist.values()) == len(f)

    @pytest.mark.parametrize("q, n, k", [(3, 3, 1), (3, 3, 2), (5, 2, 1)])
    def test_matches_scalar_coset_of(self, q, n, k):
        rng = np.random.default_rng(q * 100 + n * 10 + k)
        universe = list(itertools.product(range(q), repeat=n))
        for size in (0, 1, q ** n // 3, q ** n):
            pts = [universe[i] for i in rng.choice(len(universe), size, replace=False)]
            f = FFSet(q, n, pts)
            for p in ff_directions(q, n, k):
                _, count, hist = ff_coset_profile(f, p)
                scalar = Counter(coset_of(q, p, x) for x in pts)
                assert {r: c for r, c in hist.items() if c} == dict(scalar)
                assert count == max(scalar.values(), default=0)

    @pytest.mark.parametrize("q", [46337, 46349])
    def test_labels_either_side_of_int32_products(self, q):
        # Labels are int32 while q^2 < 2^31 (46337) and int64 past it
        # (46349), where a coefficient times a pivot coordinate near q
        # would wrap.
        rng = np.random.default_rng(q)
        pts = np.column_stack([rng.integers(q - 50, q, 200), rng.integers(0, q, 200)])
        pts[100:] = pts[:100] + [1, q - 2]  # pairs sharing the coset of (1, -2)
        f = FFSet(q, 2, pts)
        for basis in ([[1, q - 2]], [[1, q - 1]], [[0, 1]]):
            _, count, hist = ff_coset_profile(f, basis)
            scalar = Counter(coset_of(q, basis, x) for x in f.points.tolist())
            assert {r: c for r, c in hist.items() if c} == dict(scalar)
            assert count == max(scalar.values())

    @pytest.mark.parametrize("k", [1, 2])
    def test_chunked_counts_match_scalar(self, monkeypatch, k):
        # At the smallest cap the count table fits, a chunk is 3^(3-k)
        # points, so 20 points take 3 or 7 chunks.
        universe = list(itertools.product(range(3), repeat=3))
        f = FFSet(3, 3, [universe[i] for i in np.random.default_rng(k).choice(27, 20, replace=False)])
        dirs = ff_directions(3, 3, k)
        monkeypatch.setattr(ff, "_MAX_COUNT_TABLE", len(dirs) * 3 ** (3 - k))
        scalar = [max(Counter(coset_of(3, b, x) for x in f.points.tolist()).values()) for b in dirs]
        assert ff._max_counts(f, dirs).tolist() == scalar

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            ff_coset_profile(FFSet(3, 2, []), ff_directions(3, 3, 1)[0])

    def test_coset_count_capped_before_any_table(self, monkeypatch):
        # 4099^2 = 16,801,801 cosets of a line in F_4099^3, past 2^24.
        def never(*args):
            raise AssertionError("a coset table was built before the cap was checked")

        monkeypatch.setattr(ff, "_digits", never)
        monkeypatch.setattr(ff, "_coset_labels", never)
        f = FFSet(4099, 3, [(0, 0, 0), (1, 2, 3)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="16801801 cosets exceed the count table cap"):
                ff_coset_profile(f, [[1, 0, 0]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n, basis", [
        (2, [[2, 0]]),
        (3, [[1, 1, 0], [0, 1, 0]]),
        (3, [[1, 0, 0], [0, 0, 0]]),
        (3, [[1, 0]]),
    ], ids=["pivot_not_one", "nonzero_above_pivot", "zero_row", "width_not_n"])
    def test_rejects_non_canonical_basis(self, n, basis):
        f = FFSet(3, n, [(0,) * n])
        with pytest.raises(ValueError):
            ff_coset_profile(f, basis)

    def test_entries_reduced_mod_q(self):
        f = FFSet(3, 2, [(0, 1), (1, 1), (2, 0)])
        assert ff_coset_profile(f, [[1, 3]]) == ff_coset_profile(f, [[1, 0]])
        assert ff_coset_profile(f, [[4, -3]]) == ff_coset_profile(f, [[1, 0]])

    def test_coset_of_zeroes_pivots(self):
        basis = [[1, 2, 0]]
        x = (2, 2, 1)
        rep = coset_of(3, basis, x)
        assert rep[0] == 0
        # representative is in the same coset: difference lies in the span
        diff = tuple((a - b) % 3 for a, b in zip(x, rep))
        assert diff in set(subspace_points(3, basis))
        # idempotent
        assert coset_of(3, basis, rep) == rep


class TestIsKakeya:
    def test_full_space(self):
        assert ff_is_kakeya(ff_full_space(2, 2))
        assert ff_is_kakeya(ff_full_space(3, 2))

    def test_three_point_kakeya_in_f2(self):
        k = FFSet(2, 2, [(0, 0), (1, 0), (0, 1)])
        assert ff_is_kakeya(k)

    def test_removing_a_point_breaks_it(self):
        k = FFSet(2, 2, [(0, 0), (1, 0)])
        assert not ff_is_kakeya(k)


class TestIsSpreadFurstenberg:
    def test_full_space(self):
        f = ff_full_space(3, 2)
        assert ff_is_spread_furstenberg(f, 1, 3, 4)

    def test_single_point(self):
        f = FFSet(3, 2, [(1, 1)])
        assert ff_is_spread_furstenberg(f, 1, 1, 4)

    def test_one_line(self):
        line = FFSet(3, 2, [(0, 0), (1, 0), (2, 0)])
        assert ff_is_spread_furstenberg(line, 1, 3, 1)
        assert not ff_is_spread_furstenberg(line, 1, 3, 2)
        with pytest.raises(ValueError):
            ff_is_spread_furstenberg(line, 1, 0, 1)


def test_verify_refuses_a_set_of_another_space():
    with pytest.raises(ValueError, match=r"F_3\^2, not in F_3\^3"):
        ff.ff_verify(3, 3, 1, FFSet(3, 2, [(0, 0)]))


class TestPigeonhole:
    def test_six_point_subsets_of_f3_squared(self):
        universe = list(itertools.product(range(3), repeat=2))
        subsets = list(itertools.combinations(universe, 6))
        assert len(subsets) == 84
        for sub in subsets:
            assert ff_pigeonhole_verify(FFSet(3, 2, sub), 1)

    def test_multiple_of_cosets(self):
        # |F| = q^(n-k) * c forces max_count >= c
        f = FFSet(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
        need = -(-len(f) // 3)
        for p in ff_directions(3, 2, 1):
            _, count, _ = ff_coset_profile(f, p)
            assert count >= need


# The proven minimal size of every shape (q, n, k, m) with q^n <= 16.
SMALL_SPACE_MINIMA = {
    (2, 2, 1, 1): 1, (2, 2, 1, 2): 3,
    (2, 3, 1, 1): 1, (2, 3, 1, 2): 5,
    (2, 3, 2, 1): 1, (2, 3, 2, 2): 3, (2, 3, 2, 3): 5, (2, 3, 2, 4): 7,
    (2, 4, 1, 1): 1, (2, 4, 1, 2): 6,
    (2, 4, 2, 1): 1, (2, 4, 2, 2): 5, (2, 4, 2, 3): 9, (2, 4, 2, 4): 13,
    (2, 4, 3, 1): 1, (2, 4, 3, 2): 3, (2, 4, 3, 3): 5, (2, 4, 3, 4): 6,
    (2, 4, 3, 5): 9, (2, 4, 3, 6): 10, (2, 4, 3, 7): 13, (2, 4, 3, 8): 15,
    (3, 2, 1, 1): 1, (3, 2, 1, 2): 4, (3, 2, 1, 3): 7,
}

# (q, n, k, m) -> size, nodes_explored and witness (points as digit strings)
# of the exhaustive branch and bound in spaces of at most 16 points.
SMALL_SPACE_PINS = {
    (2, 2, 1, 2): (3, 4, "00 10 11"),
    (2, 3, 1, 2): (5, 18, "000 100 101 110 111"),
    (2, 3, 2, 3): (5, 17, "000 010 011 100 101"),
    (2, 3, 2, 4): (7, 6, "000 010 011 100 101 110 111"),
    (2, 4, 1, 2): (6, 178, "0000 0100 1000 1001 1010 1111"),
    (2, 4, 2, 2): (5, 122, "0000 0100 0101 0110 0111"),
    (2, 4, 2, 3): (9, 4641, "0000 0100 0101 0110 0111 1000 1001 1010 1011"),
    (2, 4, 2, 4): (13, 522, "0000 0001 0011 0100 0110 1000 1001 1010 1011 1100 1101 1110 1111"),
    (2, 4, 3, 5): (9, 3429, "0000 0010 0011 0100 0101 0110 0111 1000 1001"),
    (2, 4, 3, 8): (15, 10, "0000 0010 0011 0100 0101 0110 0111 1000 1001 1010 1011 1100 1101 1110 1111"),
    (3, 2, 1, 2): (4, 15, "00 10 11 12"),
    (3, 2, 1, 3): (7, 17, "00 01 02 10 11 20 22"),
}


# (q, n, k, m) -> size, nodes_explored, lower_bound and its source of the
# public search, which stops on a set at its closed-form floor.  Every
# shape of the benchmark's `finite` and `sweep` searches is here.
PUBLIC_PINS = {
    (2, 2, 1, 2): (3, 3, 3, "pair_count"),
    (2, 3, 1, 2): (5, 5, 5, "pair_count"),
    (2, 4, 1, 2): (6, 65, 6, "pair_count"),
    (3, 2, 1, 2): (4, 4, 4, "pair_count"),
    (3, 2, 1, 3): (7, 5, 7, "blokhuis_mazzocca"),
    (5, 2, 1, 2): (4, 51, 4, "pair_count"),
    (5, 2, 1, 3): (7, 50, 7, "pair_count"),
    (5, 2, 1, 5): (17, 7, 17, "blokhuis_mazzocca"),
    (7, 2, 1, 7): (31, 9, 31, "blokhuis_mazzocca"),
}


class TestMinSearch:
    def test_min_kakeya_2_2(self):
        res = ff_min_kakeya(2, 2)
        assert res.size == 3
        assert ff_is_kakeya(res.witness)
        assert rows(res.witness) == [(0, 0), (1, 0), (1, 1)]  # the branch and bound's witness

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_min_kakeya_plane_blokhuis_mazzocca(self, q):
        # minimum Kakeya set in F_q^2, q odd: q(q+1)/2 + (q-1)/2
        assert min_kakeya(q, 2).size == q * (q + 1) // 2 + (q - 1) // 2

    def test_branch_and_bound_witnesses(self):
        assert rows(ff_min_kakeya(5, 2).witness) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 2),
            (2, 3), (3, 0), (3, 2), (3, 3), (4, 0), (4, 1), (4, 3), (4, 4),
        ]
        assert rows(ff_min_spread(5, 2, 1, 2).witness) == [
            (0, 0), (1, 0), (1, 1), (2, 4),
        ]
        assert rows(ff_min_spread(5, 2, 1, 3).witness) == [
            (0, 0), (1, 0), (1, 1), (1, 3), (2, 0), (2, 2), (3, 4),
        ]

    # The exhaustive path: the trivial floor m.
    @pytest.mark.parametrize("search, args, size, nodes", [
        (ff_min_kakeya, (5, 2), 17, 762),
        (ff_min_spread, (5, 2, 1, 2), 4, 118),
        (ff_min_spread, (5, 2, 1, 3), 7, 937),
    ])
    def test_branch_and_bound_pins(self, exhaustive, search, args, size, nodes):
        res = search(*args)
        assert (res.size, res.nodes_explored) == (size, nodes)
        assert search(*args, node_cap=nodes).as_dict() == res.as_dict()
        with pytest.raises(SearchBudgetExceeded):
            search(*args, node_cap=nodes - 1)

    # The test keeps the name it had when these shapes took an exhaustive
    # scan; the sizes are the same, the nodes and witnesses are the branch
    # and bound's with the trivial floor.
    @pytest.mark.parametrize("case", sorted(SMALL_SPACE_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_exhaustive_pins(self, exhaustive, case):
        q, n, k, m = case
        size, nodes, witness = SMALL_SPACE_PINS[case]
        res = ff_min_spread(*case)
        assert (res.size, res.nodes_explored) == (size, nodes)
        assert rows(res.witness) == [tuple(map(int, p)) for p in witness.split()]
        for basis in ff_directions_loop(q, n, k).tolist():
            assert max(Counter(coset_of(q, basis, x) for x in rows(res.witness)).values()) >= m
        assert ff_min_spread(*case, node_cap=nodes).as_dict() == res.as_dict()
        with pytest.raises(SearchBudgetExceeded):
            ff_min_spread(*case, node_cap=nodes - 1)

    @pytest.mark.parametrize("case", sorted(PUBLIC_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_public_search_pins(self, case):
        # The closed-form floor ends the search on the node that completes
        # its first minimal set, which is the exhaustive search's witness.
        res = ff_min_spread(*case)
        assert (res.size, res.nodes_explored, res.lower_bound, res.lower_bound_source) == PUBLIC_PINS[case]
        assert res.as_dict()["witness"] == exhaustive_min(*case).as_dict()["witness"]
        assert ff_min_spread(*case, node_cap=res.nodes_explored).as_dict() == res.as_dict()
        with pytest.raises(SearchBudgetExceeded):
            ff_min_spread(*case, node_cap=res.nodes_explored - 1)

    @pytest.mark.parametrize("case", sorted(SMALL_SPACE_MINIMA), ids=lambda c: "-".join(map(str, c)))
    def test_small_space_minima(self, case):
        # The floor is sound: it is below the minimum the exhaustive search
        # proves.
        assert ff_min_spread(*case).size == exhaustive_min(*case).size == SMALL_SPACE_MINIMA[case]
        assert search_floor(*case)[0] <= SMALL_SPACE_MINIMA[case]

    def test_floor_is_tight_on_17_small_shapes(self):
        tight = [c for c in SMALL_SPACE_MINIMA if search_floor(*c)[0] == SMALL_SPACE_MINIMA[c]]
        assert len(tight) == 17

    @pytest.mark.parametrize("case, floor", [
        # (q, n, k, m): the trivial floor wins only at m = 1.
        ((2, 3, 2, 1), (1, "trivial")),
        # C(s, 2) * 1 >= 7 * C(2, 2) first holds at s = 5.
        ((2, 3, 1, 2), (5, "pair_count")),
        # k = 2: 35 planes, each line in 7 of them; C(s, 2) * 7 >= 35 * C(3, 2) at s = 6.
        ((2, 4, 2, 3), (6, "pair_count")),
        ((3, 3, 1, 3), (10, "pair_count")),  # ties Bukh-Chao's ceil(243 / 25) = 10
        ((5, 3, 1, 5), (39, "bukh_chao")),  # ceil(3125 / 81); pairs give 26
        ((7, 2, 1, 7), (31, "blokhuis_mazzocca")),
        ((2, 5, 1, 2), (9, "pair_count")),  # Bukh-Chao gives ceil(512 / 81) = 7
    ])
    def test_search_floor_values(self, case, floor):
        assert search_floor(*case) == floor

    @pytest.mark.parametrize("q", [2, 5])
    def test_nodes_explored_is_total(self, exhaustive, q):
        res = ff_min_kakeya(q, 2)
        assert ff_min_kakeya(q, 2, node_cap=res.nodes_explored).as_dict() == res.as_dict()
        with pytest.raises(SearchBudgetExceeded) as exc:
            ff_min_kakeya(q, 2, node_cap=res.nodes_explored - 1)
        # By its last node the branch and bound holds the minimal set, and
        # the one child left to build cannot be smaller.
        assert (exc.value.lower_bound, exc.value.incumbent) == (res.size, res.size)

    @pytest.mark.parametrize("case, step", [
        ((3, 2, 1, 3), 1), ((3, 2, 1, 2), 1), ((2, 4, 2, 2), 1), ((5, 2, 1, 5), 23),
        ((2, 4, 3, 4), 1), ((5, 2, 1, 2), 1),
    ], ids=["kakeya-3-2", "3-2-1-2", "2-4-2-2", "kakeya-5-2-sampled", "2-4-3-4", "5-2-1-2"])
    def test_exit_bound_brackets_the_minimum(self, case, step):
        # Past any cap, the proved bound lies between the floor (at least
        # m) and the minimum, and the incumbent, if any, is a set no
        # smaller than the minimum.
        # In the last two shapes the first incumbent is not minimal, so a
        # bound that claims too much shows there.
        # Both paths are checked: the exhaustive one, whose bound is the
        # path bound alone, and the public one, which adds the floor.
        for floor in (trivial_floor, search_floor):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ff, "_search_floor", floor)
                res = ff_min_spread(*case)
                caps = sorted({*range(1, res.nodes_explored, step), res.nodes_explored - 1})
                for cap in caps:
                    with pytest.raises(SearchBudgetExceeded) as exc:
                        ff_min_spread(*case, node_cap=cap)
                    assert floor(*case)[0] <= exc.value.lower_bound <= res.size, cap
                    assert exc.value.incumbent is None or exc.value.incumbent >= res.size, cap

    def test_kakeya_3_3_minimum(self):
        res = min_kakeya(3, 3)
        assert (res.size, res.nodes_explored) == (13, 35147)
        # Independent line check: for each of the 13 directions v (first
        # nonzero coordinate 1), some line {a + t v} lies in the witness.
        pts = set(rows(res.witness))
        dirs = [v for v in itertools.product(range(3), repeat=3)
                if any(v) and v[next(i for i in range(3) if v[i])] == 1]
        assert len(dirs) == 13
        for v in dirs:
            assert any(
                all(tuple((a[i] + t * v[i]) % 3 for i in range(3)) in pts for t in range(3))
                for a in pts
            )

    def test_kakeya_contains_line(self):
        for q, n in [(2, 2), (3, 2), (2, 3)]:
            assert ff_min_kakeya(q, n).size >= q

    def test_min_spread_single_point(self):
        res = ff_min_spread(3, 2, 1, 1)
        assert res.size == 1

    def test_min_spread_matches_kakeya_at_full_line(self):
        assert ff_min_spread(2, 2, 1, 2).size == ff_min_kakeya(2, 2).size == 3

    def test_size_bracketing(self):
        for q, n, k, m in [(2, 2, 1, 1), (2, 2, 1, 2), (2, 3, 1, 2), (3, 2, 1, 2)]:
            res = ff_min_spread(q, n, k, m)
            assert m <= res.size <= q ** (n - k) * m

    def test_m_validation(self):
        with pytest.raises(ValueError):
            ff_min_spread(2, 2, 1, 3)  # m > q^k

    def test_node_cap_budget(self):
        # F_3^2 Kakeya takes 5 nodes.
        with pytest.raises(SearchBudgetExceeded):
            ff_min_kakeya(3, 2, node_cap=4)

    def test_search_result_serialization(self):
        res = ff_min_kakeya(2, 2)
        d = res.as_dict()
        assert d["size"] == 3
        assert d["witness"] == [[0, 0], [1, 0], [1, 1]]  # the branch and bound's witness
        assert d["nodes_explored"] >= 1
        assert (d["lower_bound"], d["lower_bound_source"]) == (3, "pair_count")


# Minimal Kakeya sets in F_q^n, by (q, n), beside the published lower
# bounds below.  F_2^5 = 10 (878,434 nodes, about 13 s on a 2-CPU host)
# is left out.
KAKEYA_MINIMA = {(2, 2): 3, (2, 3): 5, (2, 4): 6, (3, 2): 7, (5, 2): 17, (7, 2): 31, (3, 3): 13}


@pytest.mark.parametrize("q, n", sorted(KAKEYA_MINIMA), ids=lambda v: str(v))
def test_kakeya_minima_beside_published_bounds(q, n):
    res = min_kakeya(q, n)
    assert res.size == len(res.witness) == KAKEYA_MINIMA[q, n]
    assert ff_is_kakeya(res.witness)
    # The closed-form floor is sound: it is below the minimum the
    # exhaustive search proves, and the public search reports it.
    assert search_floor(q, n, 1, q)[0] <= exhaustive_min(q, n, 1, q).size == res.size
    assert (res.lower_bound, res.lower_bound_source) == search_floor(q, n, 1, q)
    # Dvir (2009): |K| >= C(q + n - 1, n).
    assert res.size >= math.comb(q + n - 1, n)
    # Bukh-Chao (2021): |K| >= q^n / (2 - 1/q)^(n-1), in integers.
    assert res.size >= -(-q ** (2 * n - 1) // (2 * q - 1) ** (n - 1))
    if q == 2:
        # Pair counting: each of the 2^n - 1 lines through 0 is the
        # difference of some pair of points of K.
        assert math.comb(res.size, 2) >= 2 ** n - 1
    if n == 2 and q % 2:
        # Blokhuis-Mazzocca: the planar minimum for odd q.
        assert res.size == q * (q + 1) // 2 + (q - 1) // 2


def random_affine(q: int, n: int, rng) -> tuple:
    """(A, t) with A invertible mod q: x -> A x + t is a bijection of F_q^n."""
    while True:
        a = rng.integers(0, q, size=(n, n))
        if round(np.linalg.det(a)) % q:
            return a, rng.integers(0, q, size=n)


# The seed's premise: an affine bijection of F_q^n maps a set meeting every
# k-direction in >= m points of a coset to another one of the same size.
SEED_CASES = sorted(SMALL_SPACE_PINS) + [(5, 2, 1, 5), (3, 3, 1, 3)]


@pytest.mark.parametrize("q, n, k, m", SEED_CASES, ids=lambda v: str(v))
def test_seeded_witness_is_an_affine_image(q, n, k, m):
    res = min_kakeya(q, n) if (k, m) == (1, q) else ff_min_spread(q, n, k, m)
    points = res.witness.points
    # The root seed: V0 is the span of the first direction, b its second
    # point in lexicographic order; the witness holds 0 and b, and all of
    # V0 when m = q^k.
    v0 = sorted(subspace_points(q, ff_directions(q, n, k)[0].tolist()))
    found = set(map(tuple, points.tolist()))
    assert {v0[0], v0[1]} <= found and v0[0] == (0,) * n
    if m == q ** k:
        assert set(v0) <= found
    ndirs = gaussian_binomial(n, k, q)
    rng = np.random.default_rng(q * 100 + n * 10 + k)
    for _ in range(5):
        a, t = random_affine(q, n, rng)
        image = FFSet(q, n, points @ a.T + t)
        assert len(image) == res.size
        assert ff_is_spread_furstenberg(image, k, m, ndirs)
        if (k, m) == (1, q):
            assert ff_is_kakeya(image)


class TestFFSetCsv:
    def test_roundtrip(self):
        f = FFSet(3, 2, [(0, 1), (2, 2)])
        back = FFSet.from_csv(3, f.to_csv())
        np.testing.assert_array_equal(back.points, f.points)

    def test_text_pinned(self):
        f = FFSet(3, 2, [(1, 0), (0, 2), (4, -2), (-3, 5)])
        assert f.to_csv() == "x0,x1\n0,2\n1,0\n1,1\n"

    def test_empty_set_keeps_its_width(self):
        f = FFSet(3, 4, [])
        assert (f.points.shape, f.points.dtype, len(f)) == ((0, 4), np.int64, 0)
        assert f.to_csv() == "x0,x1,x2,x3\n"
        assert FFSet.from_csv(3, f.to_csv()).points.shape == (0, 4)

    def test_duplicate_and_negative_rows_reduce_to_one_array(self):
        plain = FFSet(5, 2, [(1, 2), (3, 0)])
        noisy = FFSet(5, 2, np.array([(3, 0), (-4, 7), (1, 2), (8, -5), (-2, 5)]))
        np.testing.assert_array_equal(noisy.points, plain.points)
        assert len(noisy) == 2

    @pytest.mark.parametrize("coord", [2**70, -2**70])
    def test_coordinate_past_int64_raises_value_error(self, coord):
        with pytest.raises(ValueError, match="int64"):
            FFSet(3, 2, [[coord, 1], [0, 0]])

    @pytest.mark.parametrize("points", [[(0, 1, 2)], [(0,)], [0, 1], [(0, 1), (2,)]],
                             ids=["wide", "narrow", "flat", "ragged"])
    def test_wrong_row_width_raises(self, points):
        with pytest.raises(ValueError):
            FFSet(3, 2, points)
