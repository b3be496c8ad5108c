import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

import furstlab.dimension as dimension
from furstlab import table
from furstlab.bounds import as_fraction, bound_spread_hyperplane
from furstlab.dimension import (
    GridSet,
    _bit_length,
    _fit,
    _point_cells,
    _sort_split,
    box_count,
    cantor_grid,
    estimate_dimension,
    family_dimension,
    flat_slice,
    grid_from_points,
    sharp_hyperplane_example,
    slicing_product_example,
)
from furstlab.grassmann import AffineFlat, Subspace, haar_sample
import reference

LOG32 = math.log(2) / math.log(3)
CANTOR3 = cantor_grid(3, 3, [[0, 2], [0, 1, 2], [0, 1, 2]], 3)
PRODUCT5 = slicing_product_example(2, 1, LOG32, 5).grid


def full_cube(n, level):
    return cantor_grid(n, 2, [0, 1], level)


class TestGridSet:
    def test_dedup_and_range(self):
        g = GridSet(2, 3, np.array([[1, 2], [1, 2], [0, 0]]))
        assert len(g) == 2
        with pytest.raises(ValueError):
            GridSet(2, 3, np.array([[8, 0]]))
        with pytest.raises(ValueError):
            GridSet(2, 3, np.array([[-1, 0]]))

    @pytest.mark.parametrize("n, level", [(0, 3), (-1, 3), (2, -1)])
    def test_rejects_empty_dimension_and_negative_level(self, n, level):
        with pytest.raises(ValueError, match="n >= 1 and level >= 0"):
            GridSet(n, level, np.zeros((0, max(n, 0)), dtype=np.int64))

    def test_downsample_parents_occupied(self):
        g = cantor_grid(2, 3, [0, 2], 4)
        coarse = unique_at(g.cells, 1)
        assert len(coarse) == box_count(g, g.level - 1)
        parents = {tuple(c) for c in coarse}
        for cell in g.cells:
            assert tuple(cell >> 1) in parents

    def test_downsample_count_bracket(self):
        g = cantor_grid(2, 3, [0, 2], 4)
        for lv in range(1, g.level):
            n_fine = box_count(g, lv + 1)
            n_coarse = box_count(g, lv)
            assert n_coarse <= n_fine <= (2**g.n) * n_coarse

    def test_csv_roundtrip(self):
        g = cantor_grid(2, 3, [0, 2], 3)
        cells = table.from_csv(g.to_csv(), int)
        g2 = GridSet(cells.shape[1], g.level, cells)
        assert np.array_equal(g.cells, g2.cells)

    def test_rle_roundtrip(self):
        for g in (cantor_grid(1, 3, [0, 2], 6), full_cube(2, 4),
                  GridSet(2, 4, np.zeros((0, 2), dtype=np.int64))):
            g2 = GridSet.from_rle(g.to_rle())
            assert (g2.n, g2.level) == (g.n, g.level)
            assert np.array_equal(g.cells, g2.cells)


def reference_flat_slice(g, w, rho):
    """flat_slice without the box cull: the exact test on every cell centre."""
    rel = reference.centers(g)
    rel -= w.offset
    near = np.linalg.norm(rel @ w.direction.complement_basis(), axis=1) <= rho
    if not near.any():
        return GridSet(w.k, g.level, np.zeros((0, w.k), dtype=np.int64))
    return grid_from_points(rel[near] @ w.direction.basis, g.level)


def unique_at(cells, shift):
    return np.unique(np.asarray(cells) >> shift, axis=0)


def random_grid_cells(n, level, m, seed):
    """Random cells, half of them clustered into coarse boxes, followed by
    repeats of the first 50 in reverse order."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 1 << level, (m, n))
    cells[: m // 2] &= ~np.int64(7)
    return np.vstack([cells, cells[:50][::-1]])


class TestAllLevelCounts:
    """The counts computed once at construction against a per-level
    np.unique oracle."""

    @pytest.mark.parametrize("n, level", [(2, 12), (9, 7), (16, 6)],
                             ids=["24bit", "63bit", "96bit"])
    def test_random_grids(self, n, level):
        cells = random_grid_cells(n, level, 3000, seed=n * level)
        g = GridSet(n, level, cells)
        assert len(g) == len(unique_at(cells, 0))
        for lv in range(level + 1):
            oracle = unique_at(cells, level - lv)
            assert box_count(g, lv) == len(oracle)
            # The box heads found from the split levels are the occupied boxes.
            heads = np.concatenate([[0], 1 + np.flatnonzero(g._split >= level - lv + 1)])
            coarse = g.cells[heads] >> (level - lv)
            assert set(map(tuple, coarse.tolist())) == set(map(tuple, oracle.tolist()))

    def test_empty_and_one_cell(self):
        empty = GridSet(3, 5, np.zeros((0, 3), dtype=np.int64))
        assert [box_count(empty, lv) for lv in range(6)] == [0] * 6
        one = GridSet(3, 5, np.array([[31, 0, 17]] * 4))
        assert len(one) == 1
        assert [box_count(one, lv) for lv in range(6)] == [1] * 6

    def test_unsorted_duplicates(self):
        cells = np.array([[7, 0], [0, 7], [7, 0], [3, 3], [0, 7], [4, 4], [0, 0]])
        g = GridSet(2, 3, cells)
        assert len(g) == 5
        for lv in range(4):
            assert box_count(g, lv) == len(unique_at(cells, 3 - lv))

    def test_z_order(self):
        # Every coarser box is a contiguous block of cells.
        g = GridSet(2, 4, random_grid_cells(2, 4, 200, seed=1))
        for lv in range(5):
            parents = g.cells >> (4 - lv)
            starts = np.flatnonzero(np.any(parents[1:] != parents[:-1], axis=1))
            assert len(starts) + 1 == box_count(g, lv)

    def test_level_validation(self):
        g = full_cube(2, 3)
        for lv in (-1, 4):
            with pytest.raises(ValueError):
                box_count(g, lv)


def reference_case_cells(n, level, seed):
    """Seeded cells mixing uniform draws, a tight cluster sharing all but its
    low bits, and repeats of both, in shuffled order."""
    rng = np.random.default_rng(seed)
    top = 1 << level
    spread = rng.integers(0, 1 << min(level, 5), (120, n))
    cluster = np.minimum(rng.integers(0, top, n) + spread, top - 1)
    cells = np.vstack([rng.integers(0, top, (120, n)), cluster])
    cells = np.vstack([cells, cells[rng.integers(0, len(cells), 160)]])
    return cells[rng.permutation(len(cells))]


def assert_matches_reference(n, level, cells):
    g = GridSet(n, level, cells)
    ref_cells, ref_counts, ref_split = reference.construct(cells, n, level)
    assert np.array_equal(g.cells, ref_cells)
    assert np.array_equal(g._counts, ref_counts)
    assert g._split.dtype == np.int8
    assert np.array_equal(g._split, ref_split)


class TestConstructionReference:
    """Cells, counts and split levels against the bit-at-a-time reference
    in tests/reference.py."""

    @pytest.mark.parametrize("level", [0, 1, 7, 31, 62])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 16])
    def test_random_grids(self, n, level):
        assert_matches_reference(n, level, reference_case_cells(n, level, seed=100 * n + level))

    @pytest.mark.parametrize("n, level", [(64, 3), (70, 5), (127, 2)])
    def test_more_coordinates_than_a_word_holds(self, n, level):
        assert_matches_reference(n, level, reference_case_cells(n, level, seed=n))

    @pytest.mark.parametrize("n, level", [(1, 0), (2, 12), (9, 7), (16, 62)])
    def test_empty_one_cell_and_heavy_duplication(self, n, level):
        rng = np.random.default_rng(level)
        assert_matches_reference(n, level, np.zeros((0, n), dtype=np.int64))
        assert_matches_reference(n, level, rng.integers(0, 1 << level, (1, n)))
        three = rng.integers(0, 1 << level, (3, n))
        assert_matches_reference(n, level, three[rng.integers(0, 3, 1000)])

    def test_row_major_construction(self):
        cells = PRODUCT5.cells[np.lexsort(PRODUCT5.cells.T[::-1])]
        assert_matches_reference(2, PRODUCT5.level, cells)
        assert_matches_reference(2, PRODUCT5.level, np.asfortranarray(cells))

    def test_bit_length(self):
        vals = [0, 1, 2**52 - 1, 2**53 + 1, 2**54 - 1, 2**62, 2**63 - 1]
        got = _bit_length(np.array(vals, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in vals]
        x = np.random.default_rng(0).integers(0, 2**63 - 1, 5000, dtype=np.int64, endpoint=True)
        x >>= np.arange(len(x)) % 63
        assert np.array_equal(_bit_length(x.view(np.uint64)), reference.bit_length(x))


def fuzz_grid(seed):
    """(n, level, cells) for a seeded fuzz case: n up to 70, levels that
    take one Morton word or several, and duplicate cells in shuffled order."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 4, 5, 8, 13, 21, 40, 63, 64, 70]))
    level = int(rng.integers(0, 8) if rng.random() < 0.5 else rng.integers(8, 63))
    cells = rng.integers(0, 1 << level, (int(rng.integers(0, 400)), n))
    cells[: len(cells) // 2] >>= int(rng.integers(0, level + 1))  # a crowded corner
    cells = np.vstack([cells, cells[rng.integers(0, max(len(cells), 1), len(cells) // 3)]])
    return n, level, cells[rng.permutation(len(cells))]


class TestConstructionFuzz:
    """GridSet's cells, counts and split levels against the bit-at-a-time
    construction and the word-at-a-time one that the batched kernel
    replaced, and from_rle against a broadcast decode of the runs."""

    @pytest.mark.parametrize("seed", range(40))
    def test_gridset_matches_both_constructions(self, seed):
        n, level, cells = fuzz_grid(seed)
        g = GridSet(n, level, cells)
        for ref_cells, ref_counts, ref_split in (reference.construct(cells, n, level),
                                                  reference.construct_words(cells, n, level)):
            assert np.array_equal(g.cells, ref_cells)
            assert np.array_equal(g._counts, ref_counts)
            assert g._split.dtype == np.int8 and np.array_equal(g._split, ref_split)

    @pytest.mark.parametrize("seed", range(20))
    def test_from_rle_matches_broadcast_decode(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.choice([1, 2, 3, 5, 9]))
        level = int(rng.integers(1, 63 // n + 1))
        top = 1 << (n * level)
        # Arbitrary runs: overlapping, empty and touching the grid's end.
        starts = rng.integers(0, top, 30, dtype=np.uint64)
        lengths = np.minimum(rng.integers(0, 40, 30, dtype=np.uint64), top - starts)
        lengths[0], starts[1], lengths[1] = 0, top - 1, 1
        runs = np.column_stack([starts, lengths]).astype("<u8")
        blob = struct.pack("<4sBBQ", b"GRLE", n, level, len(runs)) + runs.tobytes()
        g = GridSet.from_rle(blob)
        ref_n, ref_level, ref_cells = reference.rle_cells(blob)
        ref = GridSet(ref_n, ref_level, ref_cells)
        assert (g.n, g.level) == (n, level)
        assert np.array_equal(g.cells, ref.cells) and np.array_equal(g._counts, ref._counts)
        assert np.array_equal(g._split, ref._split)
        again = GridSet.from_rle(g.to_rle())
        assert np.array_equal(again.cells, g.cells)


def integer_widths(cells):
    """cells in every numpy integer dtype that holds them all."""
    kinds = (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64)
    fits = lambda t: not cells.size or (np.iinfo(t).min <= cells.min() and cells.max() <= np.iinfo(t).max)
    return [cells.astype(t) for t in kinds if fits(t)]


def batch_case(seed):
    """(level, cells) of a (B, m, n) batch, B >= 2: keys of one Morton word
    for even seeds and of several (n * level > 63) for odd ones, each grid
    with repeated cells in shuffled order."""
    rng = np.random.default_rng(500 + seed)
    n = int(rng.choice([1, 2, 3, 9, 21, 64]))
    w = min(63 // n, 16)
    level = int(rng.integers(63 // n + 1, 63) if seed % 2 else rng.integers(0, w + 1))
    nb, m = int(rng.integers(2, 6)), int(rng.choice([0, 1, 3, 40, 90]))
    cells = rng.integers(0, 1 << level, (nb, m, n))
    cells[:, m // 2 :] = cells[:, : m - m // 2]
    return level, cells[:, rng.permutation(m)]


class TestBlockedBuild:
    """The build's block loops (`dimension._BLOCK` rows), its cells of any
    integer width and its batches, against the one-grid construction and
    the bit-at-a-time reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_blocks_of_seven_rows_match_the_reference(self, monkeypatch, seed):
        # Seven-row blocks cut every loop: the Morton words, the settled
        # pairs, the gather and the run expansion of from_rle.
        monkeypatch.setattr(dimension, "_BLOCK", 7)
        n, level, cells = fuzz_grid(seed)
        assert_matches_reference(n, level, cells)
        if n * level <= 63:
            g = GridSet.from_rle(GridSet(n, level, cells).to_rle())
            assert np.array_equal(g.cells, reference.construct(cells, n, level)[0])

    @pytest.mark.parametrize("seed", range(12))
    def test_every_integer_width_builds_the_int64_grid(self, seed):
        n, level, cells = fuzz_grid(seed)
        want = GridSet(n, level, cells)
        for narrow in integer_widths(cells):
            g = GridSet(n, level, narrow)
            assert g.cells.dtype == np.int64 and np.array_equal(g.cells, want.cells)
            assert np.array_equal(g._counts, want._counts) and np.array_equal(g._split, want._split)

    @pytest.mark.parametrize("block", [7, 1 << 15])
    @pytest.mark.parametrize("seed", range(10))
    def test_batched_sort_split_matches_one_grid_calls(self, monkeypatch, block, seed):
        monkeypatch.setattr(dimension, "_BLOCK", block)
        level, cells = batch_case(seed)
        order, split, counts = _sort_split(cells, level)
        assert split.dtype == np.int8 and split.shape == (len(cells), max(cells.shape[1] - 1, 0))
        for b, grid in enumerate(cells):
            one = _sort_split(grid[None], level)
            assert np.array_equal(order[b], one[0][0])
            assert np.array_equal(split[b], one[1][0])
            assert np.array_equal(counts[b], one[2][0])
            assert np.array_equal(counts[b], reference.construct(grid, grid.shape[1], level)[1])


@pytest.fixture(scope="module")
def product7_blob():
    return slicing_product_example(2, 1, LOG32, 7).grid.to_rle()


def traced_from_rle(blob):
    """GridSet.from_rle(blob) and the (held, peak) bytes tracemalloc saw
    during the call; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        g = GridSet.from_rle(blob)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, held, peak


class TestBuildFootprint:
    """The memory that GridSet.from_rle of the 280k-cell product grid
    holds, as tracemalloc counts it.  Its peak is 1.84 times the cells'
    bytes with numpy 2.4.6, where the build that made a full-size array
    per pass reached 3.06."""

    def test_peak_is_under_two_cell_arrays(self, monkeypatch, product7_blob):
        # The kept cells of a grid this large live in a mapping that
        # tracemalloc does not see; on the heap they count like the rest.
        monkeypatch.setattr(dimension, "_mapped", lambda shape, dtype: np.zeros(shape, dtype))
        g, _, peak = traced_from_rle(product7_blob)
        assert len(g) == 2**7 * 3**7
        assert peak / g.cells.nbytes <= 1.9

    def test_large_grid_cells_are_kept_off_the_heap(self, product7_blob):
        g, held, _ = traced_from_rle(product7_blob)
        assert held < len(g) + 65536  # the int8 split levels and small arrays
        assert np.array_equal(g.cells, slicing_product_example(2, 1, LOG32, 7).grid.cells)


def serializer_case_cells(n, level, seed):
    """Random cells at (n, level) with n * level <= 63: scattered ones, runs
    of 6 consecutive linear indices (half of them from the last cell of a
    row into the next row, wrapping past the grid's last cell), the corner
    cell 2^level - 1 on every axis, and repeats, all shuffled."""
    rng = np.random.default_rng(seed)
    scattered = rng.integers(0, 1 << level, (int(rng.integers(1, 200)), n))
    starts = rng.integers(0, 1 << (n * level), 20, dtype=np.uint64)
    starts[:10] |= np.uint64((1 << level) - 1)
    lin = (starts[:, None] + np.arange(6, dtype=np.uint64)).ravel() % np.uint64(1 << (n * level))
    shifts = np.uint64(level) * np.arange(n - 1, -1, -1, dtype=np.uint64)
    runs = ((lin[:, None] >> shifts) & np.uint64((1 << level) - 1)).astype(np.int64)
    cells = np.vstack([scattered, runs, np.full((1, n), (1 << level) - 1)])
    cells = np.vstack([cells, cells[rng.integers(0, len(cells), 40)]])
    return cells[rng.permutation(len(cells))]


class TestRowMajorSerializers:
    """to_rle and to_csv, both read off one sorted row-major index, against
    the sum-and-sort encoder and the lexsort writer that they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_bytes_match_the_replaced_serializers(self, n):
        empty = np.zeros((0, n), dtype=np.int64)
        for level in range(63 // n + 1):
            for cells in (serializer_case_cells(n, level, seed=100 * n + level), empty):
                g = GridSet(n, level, cells)
                assert g.to_rle() == reference.rle_sum_sort(g)
                assert g.to_csv() == reference.csv_lexsort(g)

    @pytest.mark.parametrize("n, level", [(1, 9), (1, 63), (2, 6), (3, 21)])
    def test_serializing_leaves_the_grid_as_it_was(self, n, level):
        # At n = 1 the row-major index is the one column of the cells, so
        # it must be built and sorted in an array of its own.
        g = GridSet(n, level, serializer_case_cells(n, level, seed=level))
        before, writeable = g.cells.tobytes(), g.cells.flags.writeable
        assert not np.shares_memory(g._row_major(), g.cells)
        rle, text = g.to_rle(), g.to_csv()
        assert g.cells.tobytes() == before and g.cells.flags.writeable == writeable
        assert g.cells.dtype == np.int64 and g.cells.flags.c_contiguous
        g.cells.flags.writeable = False  # read-only cells serialize alike
        assert (g.to_rle(), g.to_csv()) == (rle, text)
        assert g.cells.tobytes() == before and not g.cells.flags.writeable

    @pytest.mark.parametrize("n, level", [(2, 40), (3, 22)])
    def test_both_serializers_share_one_domain(self, n, level):
        g = GridSet(n, level, np.full((1, n), (1 << level) - 1))
        for serialize in (g.to_rle, g.to_csv):
            with pytest.raises(ValueError, match="^linear index would overflow 64 bits$"):
                serialize()


# sha256 of to_rle() and to_csv(), pinned from the lexicographic-order
# implementation that preceded Z-ordered cells.
PINNED_FILES = {
    "cantor": ("11bdb153784090e50c23650e912ac9351af721e168d1ca7d3b57f52b72462a3a",
               "a69934f63214f225bf07ef3b76ef5f2cc5f469060bbcdd726d64fb0981486ff3"),
    "product": ("fa33ba4704c061586d9111e49fe191e6e23ddd6a136bdb1d3284af89ae51a103",
                "e880eef969f3ecf39d70a3ac62c27fe0f28fb52d9a7f34d5bd626f676282c707"),
    "sharp": ("a31c80e45abbe411faeb72696f76e8f4db46937995f86dfa229f055cb8e44865",
              "bbd77cc0edc75d6697b1b73d23b2d66f35404c3f57c9b81df2481b6e3879d527"),
}


class TestFileBoundary:
    @pytest.mark.parametrize("name", sorted(PINNED_FILES))
    def test_files_byte_identical(self, name):
        g = {
            "cantor": lambda: cantor_grid(2, 3, [0, 2], 6),
            "product": lambda: slicing_product_example(2, 1, LOG32, 6).grid,
            "sharp": lambda: sharp_hyperplane_example(4, 1.5, 3).grid,
        }[name]()
        rle_sha, csv_sha = PINNED_FILES[name]
        assert hashlib.sha256(g.to_rle()).hexdigest() == rle_sha
        assert hashlib.sha256(g.to_csv().encode()).hexdigest() == csv_sha

    @pytest.mark.parametrize("n, level", [(9, 7), (1, 63), (3, 21)])
    def test_rle_roundtrip_63_bits(self, n, level):
        cells = random_grid_cells(n, level, 500, seed=level)
        cells[0] = (1 << level) - 1
        g = GridSet(n, level, cells)
        g2 = GridSet.from_rle(g.to_rle())
        assert (g2.n, g2.level) == (n, level)
        assert np.array_equal(g.cells, g2.cells)
        assert [box_count(g2, lv) for lv in range(level + 1)] == [
            box_count(g, lv) for lv in range(level + 1)
        ]

    @pytest.mark.parametrize(
        "blob",
        [
            b"GRL",
            struct.pack("<4sBBQ", b"GRLX", 1, 3, 0),
            struct.pack("<4sBBQ", b"GRLE", 1, 3, 2) + struct.pack("<QQ", 0, 2),
            struct.pack("<4sBBQ", b"GRLE", 8, 8, 0),
            struct.pack("<4sBBQ", b"GRLE", 2, 20, 1) + struct.pack("<QQ", 0, (1 << 24) + 1),
            struct.pack("<4sBBQ", b"GRLE", 2, 20, 2)
            + struct.pack("<QQQQ", 0, 1 << 23, 1 << 24, (1 << 23) + 1),
            struct.pack("<4sBBQ", b"GRLE", 1, 3, 1) + struct.pack("<QQ", 6, 3),
            struct.pack("<4sBBQ", b"GRLE", 1, 3, 1) + struct.pack("<QQ", 1 << 63, 1),
            struct.pack("<4sBBQ", b"GRLE", 0, 3, 0),
        ],
        ids=["short_header", "magic", "truncated", "overflow", "huge_run", "huge_total",
             "run_past_end", "start_past_end", "zero_n"],
    )
    def test_from_rle_rejects(self, blob):
        with pytest.raises(ValueError):
            GridSet.from_rle(blob)

    def test_from_rle_caps_the_run_count_of_the_header(self):
        blob = struct.pack("<4sBBQ", b"GRLE", 2, 20, (1 << 24) + 1)
        with pytest.raises(ValueError, match=f"more than the cap of {dimension.MAX_CELLS}"):
            GridSet.from_rle(blob)


class TestBoxCount:
    def test_full_cube(self):
        g = full_cube(2, 5)
        for lv in (1, 3, 5):
            assert box_count(g, lv) == 2 ** (2 * lv)

    def test_single_point(self):
        g = GridSet(3, 6, np.array([[5, 9, 31]]))
        for lv in range(0, 7):
            assert box_count(g, lv) == 1

    def test_level_above_depth_raises(self):
        with pytest.raises(ValueError):
            box_count(full_cube(1, 3), 4)

    def test_cantor_count_law(self):
        # one marked cell per kept construction cell
        for depth in (3, 5, 8):
            g = cantor_grid(1, 3, [0, 2], depth)
            assert len(g) == 2**depth


class TestEstimateDimension:
    def test_full_square(self):
        est = estimate_dimension(full_cube(2, 8), 2, 8)
        assert (est.slope, est.r2) == (2.0, 1.0)

    def test_single_point(self):
        g = GridSet(2, 8, np.array([[3, 7]]))
        est = estimate_dimension(g, 2, 8)
        assert est.slope == 0.0

    def test_finite_set_past_its_separation_is_flat(self):
        # Three points 2^30 / 3 cells apart occupy three boxes at every
        # level from 2 on: a flat row, which a least-squares solve gave an
        # r^2 of -29 and a slope of 3e-17.
        g = GridSet(1, 30, np.arange(3)[:, None] * ((1 << 30) // 3))
        est = estimate_dimension(g, 4, 30)
        assert (est.slope, est.intercept, est.r2) == (0.0, float(np.log2(3.0)), 1.0)

    def test_middle_thirds(self):
        g = cantor_grid(1, 3, [0, 2], 8)
        est = estimate_dimension(g, 4, 8)
        assert abs(est.slope - LOG32) <= 0.05

    def test_level_validation(self):
        g = full_cube(1, 4)
        with pytest.raises(ValueError):
            estimate_dimension(g, 3, 3)
        with pytest.raises(ValueError):
            estimate_dimension(g, 1, 9)

    def test_empty_grid_rejected_before_any_logarithm(self):
        empty = GridSet(2, 4, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="empty grid: it has no cells"):
            estimate_dimension(empty, 1, 2)

    def test_slope_in_range(self):
        rng = np.random.default_rng(0)
        pts = rng.random((500, 2))
        est = estimate_dimension(grid_from_points(pts, 8), 2, 8)
        assert 0.0 <= est.slope <= 2.0

    def test_products_add(self):
        a = cantor_grid(1, 3, [0, 2], 6)
        b = cantor_grid(1, 3, [0, 1, 2], 6)
        prod = cantor_grid(2, 3, [[0, 2], [0, 1, 2]], 6)
        sa = estimate_dimension(a, 3, 8).slope
        sb = estimate_dimension(b, 3, 8).slope
        sp = estimate_dimension(prod, 3, 8).slope
        assert abs(sp - sa - sb) <= 0.1


# Level ranges of the fit's oracle checks, from two levels and from level 0
# up to MAX_POINT_LEVEL, the deepest float placement.
FIT_RANGES = [(1, 2), (2, 7), (0, 12), (3, 20), (1, 62)]


class TestFit:
    """The closed-form fit over a (rows, levels) count array against the
    per-row lstsq fit it replaced."""

    @pytest.mark.parametrize("l_min, l_max", FIT_RANGES)
    def test_matches_lstsq(self, l_min, l_max):
        rng = np.random.default_rng(l_max)
        counts = rng.integers(1, 1 << 24, (200, l_max + 1))
        counts[100:] = np.sort(counts[100:], axis=1)  # rising, as box counts are
        got = _fit(counts, l_min, l_max)
        assert got.shape == (3, 200)
        for row, fit in zip(counts, got.T):
            expected = reference.lstsq_fit(row[l_min : l_max + 1], l_min, l_max)
            assert np.abs(fit - expected).max() <= 1e-12

    @pytest.mark.parametrize("l_min, l_max", FIT_RANGES)
    def test_flat_rows_have_slope_zero_and_r2_one(self, l_min, l_max):
        counts = np.repeat([[1], [3], [7], [12345], [(1 << 24) - 1]], l_max + 1, axis=1)
        slope, intercept, r2 = _fit(counts, l_min, l_max)
        assert (slope == 0).all() and (r2 == 1).all()
        for row, b in zip(counts, intercept):
            assert abs(b - reference.lstsq_fit(row[l_min : l_max + 1], l_min, l_max)[1]) <= 1e-12

    @pytest.mark.parametrize("nlevels", [6, 9, 40])
    @pytest.mark.parametrize("batch", [7, 64])
    def test_row_alone_gets_the_bits_it_gets_in_a_batch(self, nlevels, batch):
        rng = np.random.default_rng(nlevels * batch)
        counts = np.sort(rng.integers(1, 1 << 24, (batch, nlevels + 2)), axis=1)
        got = _fit(counts, 1, nlevels)
        for i in range(batch):
            assert np.array_equal(_fit(counts[i : i + 1], 1, nlevels), got[:, i : i + 1])


class TestCantorGrid:
    def test_keep_all_base2_is_full_cube(self):
        g = cantor_grid(2, 2, [0, 1], 4)
        assert len(g) == 2 ** (2 * 4)

    def test_keep_all_base3_counts_full_at_fit_levels(self):
        g = cantor_grid(1, 3, [0, 1, 2], 6)
        for lv in range(1, 9):
            assert box_count(g, lv) == 2**lv
        assert estimate_dimension(g, 2, 8).slope == 1.0

    def test_product_dimension(self):
        g = cantor_grid(2, 3, [[0, 2], [0, 1, 2]], 7)
        est = estimate_dimension(g, 3, 9)
        assert abs(est.slope - (1 + LOG32)) <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            cantor_grid(1, 1, [0], 3)
        with pytest.raises(ValueError):
            cantor_grid(1, 3, [], 3)
        with pytest.raises(ValueError):
            cantor_grid(1, 3, [0, 3], 3)
        with pytest.raises(ValueError):
            cantor_grid(2, 3, [0, 2], 12)  # resolution overflow


class TestGridFromPoints:
    def test_unit_points(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        g = grid_from_points(pts, 4)
        assert len(g) == 2

    def test_scaling_invariance_of_slope(self):
        rng = np.random.default_rng(1)
        pts = rng.random((2000, 1))
        s1 = estimate_dimension(grid_from_points(pts, 8), 2, 7).slope
        s2 = estimate_dimension(grid_from_points(7.3 * pts + 11, 8), 2, 7).slope
        assert abs(s1 - s2) <= 0.1

    def test_deepest_level_keeps_the_far_corner(self):
        g = grid_from_points([[0, 0], [1, 1], [0.5, 0.25]], 62)
        top = (1 << 62) - 1
        assert sorted(map(tuple, g.cells.tolist())) == [(0, 0), (1 << 61, 1 << 60), (top, top)]

    @pytest.mark.parametrize("level", [63, 64])
    def test_level_past_62_rejected(self, level):
        with pytest.raises(ValueError, match="exceeds 62"):
            grid_from_points([[0, 0], [1, 1], [0.5, 0.25]], level)
        with pytest.raises(ValueError, match="exceeds 62"):
            _point_cells(np.zeros((2, 3, 2)), level)

    @pytest.mark.parametrize("level", [1, 7, 30, 62])
    def test_stack_places_each_cloud_on_its_own_scale(self, level):
        rng = np.random.default_rng(level)
        clouds = rng.uniform(-1, 1, (6, 50, 3)) * np.array([1e-3, 0.5, 1, 3, 1e6, 0])[:, None, None]
        clouds[2, :, 1] = 0.25  # a flat cloud
        clouds += rng.uniform(-5, 5, (6, 1, 3))
        got = _point_cells(clouds, level)
        assert got.shape == clouds.shape and got.dtype == np.int64
        for cloud, cells in zip(clouds, got):
            assert np.array_equal(cells, reference.point_cells(cloud, level))


    @pytest.mark.parametrize("j", [0, 4, 30, 1000])
    def test_span_just_above_a_power_of_two_is_covered(self, j):
        # A span of 2^j (1 + 2^-52) needs the scale 2^(j+1), so its top
        # point lands in the middle cell, not clipped into the last; a span
        # of exactly 2^j is its own scale.
        above = _point_cells(np.array([[0.0], [2.0**j * (1 + 2.0**-52)]]), 3)
        assert above.ravel().tolist() == [0, 4]
        assert _point_cells(np.array([[0.0], [2.0**j]]), 3).ravel().tolist() == [0, 7]
        stack = np.array([[[0.0], [2.0**j * (1 + 2.0**-52)]], [[0.0], [2.0**j]]])
        got = _point_cells(stack, 3)
        for cloud, cells in zip(stack, got):
            assert np.array_equal(cells, reference.point_cells(cloud, 3))


class TestPointCellsMinimum:
    """The placement takes each cloud's minimum along a contiguous axis; the
    oracle takes it over the middle axis."""

    @staticmethod
    def clouds(shape, seed):
        # Values on a coarse lattice, so that many coordinates tie, with
        # 0.0 and -0.0 mixed in: column 0 of every cloud is nonnegative
        # with both zeros, so its minimum is a tie of 0.0 and -0.0.
        rng = np.random.default_rng(seed)
        pts = rng.integers(-8, 9, shape) / 4.0
        pts[rng.random(shape) < 0.1] = -0.0
        col = pts[..., 0]
        col[...] = np.abs(col)
        col[..., ::7] = -0.0
        col[..., 3::7] = 0.0
        return pts

    @pytest.mark.parametrize("shape", [(32, 1000, 2), (1, 700, 9), (3, 40, 1), (4, 0, 2)],
                             ids=["spreadify", "nine_wide", "one_wide", "empty"])
    @pytest.mark.parametrize("level", [1, 7, 62])
    def test_stack_matches_middle_axis_minimum(self, shape, level):
        pts = self.clouds(shape, level)
        if shape[1]:
            pts[0] = -0.0  # a cloud of zeros, of span 0
        got = _point_cells(pts, level)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference.stack_point_cells(pts, level))

    @pytest.mark.parametrize("shape", [(1000, 2), (500, 3), (1, 4), (300, 9)])
    def test_single_cloud_matches_both_oracles(self, shape):
        pts = self.clouds(shape, shape[1])
        got = _point_cells(pts, 9)
        assert np.array_equal(got, reference.stack_point_cells(pts, 9))
        assert np.array_equal(got, reference.point_cells(pts, 9))


def plane_distances(bases, pts):
    """Distance ||x - B B^T x|| of each point to each hyperplane span(B),
    shape (count, m)."""
    coords = pts @ bases  # (count, m, n-1)
    return np.linalg.norm(pts - coords @ bases.transpose(0, 2, 1), axis=-1)


def projectors(bases):
    return bases @ bases.transpose(0, 2, 1)


class TestSharpHyperplaneExample:
    def test_containment(self):
        ex = sharp_hyperplane_example(4, 1.5, depth=3)
        assert ex.bases.shape == (256, 4, 3)
        assert plane_distances(ex.bases, reference.centers(ex.grid)).max() <= 2.0**-3

    def test_family_dimension_near_one(self):
        ex = sharp_hyperplane_example(4, 1.5, depth=3)
        est = family_dimension(projectors(ex.bases), 2, 6)
        assert abs(est.slope - 1.0) <= 0.15

    def test_sharpness_identity_exact(self):
        ex = sharp_hyperplane_example(4, 1.5, depth=3)
        s_star = as_fraction(ex.achieved_dimension)
        t = 4 - 1 - math.ceil(ex.achieved_dimension)
        assert bound_spread_hyperplane(4, s_star, t) == s_star

    def test_achieved_close_to_target(self):
        ex = sharp_hyperplane_example(4, 1.5, depth=3)
        assert ex.achieved_dimension == pytest.approx(1 + LOG32)

    def test_slice_dimension_is_the_set_dimension(self):
        # Every hyperplane of the family contains the whole set.
        ex = sharp_hyperplane_example(4, 1.5, depth=3)
        assert ex.achieved_slice_dimension == ex.achieved_dimension

    def test_validation(self):
        with pytest.raises(ValueError):
            sharp_hyperplane_example(2, 1.5, 3)
        with pytest.raises(ValueError):
            sharp_hyperplane_example(4, 1.0, 3)

    def test_ceil_s_equals_n_minus_one_single_plane(self):
        ex = sharp_hyperplane_example(3, 1.5, depth=3)
        assert ex.bases.shape == (1, 3, 2)
        assert plane_distances(ex.bases, reference.centers(ex.grid)).max() <= 2.0**-3


class TestSlicingProductExample:
    def test_no_witnessing_family(self):
        assert slicing_product_example(2, 1, LOG32, 4).bases is None

    def test_dimension_estimate(self):
        ex = slicing_product_example(2, 1, LOG32, 7)
        est = estimate_dimension(ex.grid, 3, 8)
        assert abs(est.slope - ex.achieved_dimension) <= 0.1

    def test_s_equals_k_full_cube(self):
        ex = slicing_product_example(2, 1, 1.0, 4)
        est = estimate_dimension(ex.grid, 2, 6)
        assert est.slope == 2.0

    def test_spread_slices(self):
        # Generic directions admit a translate whose slice carries the
        # Cantor factor's dimension.
        ex = slicing_product_example(2, 1, LOG32, 7)
        need = ex.achieved_slice_dimension - 0.15
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = haar_sample(2, 1, rng)
            w = u.complement_basis()[:, 0]
            best = -1.0
            for tau in np.linspace(-0.7, 1.4, 22):
                flat = AffineFlat(u, w * tau)
                sl = flat_slice(ex.grid, flat, rho=2.0**-8)
                if len(sl) < 8:
                    continue
                best = max(best, estimate_dimension(sl, 3, 8).slope)
            assert best >= need

    def test_validation(self):
        with pytest.raises(ValueError):
            slicing_product_example(2, 2, 1.0, 4)
        with pytest.raises(ValueError):
            slicing_product_example(3, 1, 1.5, 4)


class TestFlatSlice:
    def test_axis_slice_recovers_cantor_factor(self):
        ex = slicing_product_example(2, 1, LOG32, 7)
        e1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
        sl = flat_slice(ex.grid, AffineFlat(e1, np.array([0.0, 0.5])), rho=2.0**-8)
        est = estimate_dimension(sl, 3, 8)
        assert abs(est.slope - ex.achieved_slice_dimension) <= 0.1

    def test_missing_flat_empty(self):
        g = full_cube(2, 5)
        e1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
        far = AffineFlat(e1, np.array([0.0, 7.0]))
        assert len(flat_slice(g, far, rho=0.1)) == 0

    def test_monotone_in_rho(self):
        g = cantor_grid(2, 3, [0, 2], 5)
        u = haar_sample(2, 1, seed=3)
        flat = AffineFlat.through(u, np.array([0.4, 0.5]))
        counts = [len(flat_slice(g, flat, rho)) for rho in (0.05, 0.1, 0.2)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize(
        "grid, k, seed, rho, shift, hits",
        [(PRODUCT5, 1, 4, 2.0**-5, 0.0, 5),
         (CANTOR3, 1, 6, 0.15, 0.0, 5),
         (CANTOR3, 2, 7, 0.1, 0.0, 5),
         (cantor_grid(4, 3, [[0, 2]] + [[0, 1, 2]] * 3, 2), 1, 8, 0.2, 0.0, 5),
         (PRODUCT5, 1, 9, 2.0**-8, 0.0, 5),
         (CANTOR3, 1, 10, 1.5, 0.0, 5),
         (CANTOR3, 2, 11, 0.15, 3.0, 0),
         (GridSet(3, 5, np.zeros((0, 3), dtype=np.int64)), 1, 12, 0.1, 0.0, 0),
         (GridSet(3, 5, np.array([[31, 0, 17]])), 1, 13, 0.5, 0.0, 1)],
        ids=["line_in_R2", "line_in_R3", "plane_in_R3", "line_in_R4", "rho_one_cell",
             "rho_at_least_one", "offset_outside_cube", "empty_grid", "one_cell"],
    )
    def test_matches_projection_residual(self, grid, k, seed, rho, shift, hits):
        # Brute force: distance |rel - P_U rel| of every cell centre.  The
        # boxes culled by flat_slice must not change a single cell against
        # the reference that tests every centre.  `shift` moves the flat that
        # far along a normal, off the unit cube; `hits` counts the draws
        # with a nonempty slice.
        rng = np.random.default_rng(seed)
        nonempty = 0
        for _ in range(5):
            u = haar_sample(grid.n, k, rng)
            flat = AffineFlat.through(u, rng.random(grid.n) + shift * u.complement_basis()[:, 0])
            rel = reference.centers(grid) - flat.offset
            proj = u.projector()
            dist = np.array([np.linalg.norm(r - proj @ r) for r in rel])
            assert (np.abs(dist - rho) > 1e-9).all()  # no cell on the boundary
            near = dist <= rho
            got = flat_slice(grid, flat, rho)
            assert (got.n, got.level) == (k, grid.level)
            assert np.array_equal(got.cells, reference_flat_slice(grid, flat, rho).cells)
            if near.any():
                nonempty += 1
                expect = grid_from_points(rel[near] @ u.basis, grid.level)
                assert np.array_equal(got.cells, expect.cells)
            else:
                assert len(got) == 0
        assert nonempty == hits

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_translates_match_reference(self, seed):
        # The benchmark's slice loop: 22 parallel translates at rho = 2^-8
        # on the 280k-cell product grid.
        grid = slicing_product_example(2, 1, LOG32, 7).grid
        u = haar_sample(2, 1, np.random.default_rng(seed))
        w = u.complement_basis()[:, 0]
        nonempty = 0
        for tau in np.linspace(-0.7, 1.4, 22):
            flat = AffineFlat(u, w * tau)
            got = flat_slice(grid, flat, 2.0**-8)
            assert np.array_equal(got.cells, reference_flat_slice(grid, flat, 2.0**-8).cells)
            nonempty += len(got) > 0
        assert nonempty >= 10

    def test_rho_validation(self):
        g = full_cube(2, 5)
        e1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            flat_slice(g, AffineFlat(e1, np.zeros(2)), rho=2.0**-9)

    def test_nan_rho_rejected(self):
        g = full_cube(2, 5)
        e1 = Subspace(2, 1, np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="cell width"):
            flat_slice(g, AffineFlat(e1, np.array([0.0, 0.5])), rho=math.nan)

    def test_infinite_rho_projects_every_cell(self):
        g = cantor_grid(2, 3, [0, 2], 5)
        flat = AffineFlat.through(haar_sample(2, 1, seed=3), np.array([0.4, 0.5]))
        got = flat_slice(g, flat, math.inf)
        rel = reference.centers(g) - flat.offset
        every = grid_from_points(rel @ flat.direction.basis, g.level)
        assert np.array_equal(got.cells, every.cells)
        assert np.array_equal(got.cells, reference_flat_slice(g, flat, math.inf).cells)


class TestFlatSliceBoxTable:
    """flat_slice keeps the box table of its last cull level on the grid, in
    one slot.  Alternating grids and levels must not change a single cell
    against the reference that tests every cell centre."""

    @staticmethod
    def check_table(g, lv):
        # One table, of the last level: its boxes are g's cells at lv.
        held_lv, starts, lengths, box = g._boxes
        assert held_lv == lv
        assert len(box) == len(starts) == len(lengths) == box_count(g, lv)
        assert lengths.sum() == len(g)
        assert np.array_equal(starts, np.cumsum(lengths) - lengths)
        heads = np.take(g.cells, starts, axis=0) >> (g.level - lv)
        assert np.array_equal(box, (heads + 0.5) / (1 << lv))
        assert np.array_equal(unique_at(heads, 0), unique_at(g.cells, g.level - lv))
        assert not any(a.flags.writeable for a in (starts, lengths, box))

    def test_two_grids_alternately(self):
        grids = [PRODUCT5, cantor_grid(2, 3, [0, 2], 5)]
        rng = np.random.default_rng(5)
        for i in range(8):
            g = grids[i % 2]
            flat = AffineFlat.through(haar_sample(2, 1, rng), rng.random(2))
            got = flat_slice(g, flat, 2.0**-5)
            assert np.array_equal(got.cells, reference_flat_slice(g, flat, 2.0**-5).cells)
            self.check_table(g, 5)

    @pytest.mark.parametrize(
        "grid", [CANTOR3, GridSet(3, 5, np.zeros((0, 3), dtype=np.int64))],
        ids=["cantor", "empty"],
    )
    def test_two_levels_alternately(self, grid):
        # 0.15 and 2^-4 cull at levels 2 and 4; rho >= 1 keeps the one
        # level-0 box.
        rng = np.random.default_rng(6)
        for rho, lv in [(0.15, 2), (1.5, 0), (0.15, 2), (2.0**-4, 4), (1.5, 0), (2.0**-4, 4)]:
            flat = AffineFlat.through(haar_sample(3, 1 + lv % 3, rng), rng.random(3))
            got = flat_slice(grid, flat, rho)
            assert np.array_equal(got.cells, reference_flat_slice(grid, flat, rho).cells)
            self.check_table(grid, lv)

    def test_flat_of_full_dimension_keeps_every_cell(self):
        # A k = n flat has no normal: every cell is at distance 0.
        g = cantor_grid(2, 3, [0, 2], 4)
        flat = AffineFlat(Subspace(2, 2, np.eye(2)), np.zeros(2))
        got = flat_slice(g, flat, 2.0**-3)
        assert np.array_equal(got.cells, reference_flat_slice(g, flat, 2.0**-3).cells)
        assert len(got) == len(g)


class TestFamilyDimension:
    def test_single_subspace_zero(self):
        u = haar_sample(3, 1, seed=0)
        assert family_dimension(u.projector()[None], 2, 6).slope == 0.0

    def test_uniform_circle_of_lines(self):
        t = np.linspace(0, math.pi, 1000, endpoint=False)
        lines = np.stack([np.cos(t), np.sin(t)], axis=1)[:, :, None]
        est = family_dimension(projectors(lines), 2, 6)
        assert abs(est.slope - 1.0) <= 0.15

    @pytest.mark.parametrize("family", ["sharp", "circle", "single"])
    def test_matches_estimate_of_its_grid(self, family):
        if family == "sharp":
            p = projectors(sharp_hyperplane_example(4, 1.5, depth=3).bases)
        elif family == "circle":
            t = np.linspace(0, math.pi, 1000, endpoint=False)
            p = projectors(np.stack([np.cos(t), np.sin(t)], axis=1)[:, :, None])
        else:
            p = haar_sample(3, 1, seed=0).projector()[None]
        for l_min, l_max in [(2, 6), (1, 12), (3, 20)]:
            grid = grid_from_points(p.reshape(len(p), -1), l_max)
            expected = estimate_dimension(grid, l_min, l_max).as_dict()
            assert family_dimension(p, l_min, l_max).as_dict() == expected

    def test_member_cap_checked_before_placement(self, monkeypatch):
        def never(*args):
            raise AssertionError("family placed before its member count was checked")

        monkeypatch.setattr(dimension, "MAX_CELLS", 3)
        monkeypatch.setattr(dimension, "_point_cells", never)
        # Four equal members share one cell, but the cap counts members.
        with pytest.raises(ValueError, match="4 members exceeds cap 3"):
            family_dimension(np.tile(np.eye(2), (4, 1, 1)), 2, 6)

    @pytest.mark.parametrize("levels", [(0, 4), (3, 3), (5, 2)])
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="l_min < l_max"):
            family_dimension(np.eye(2)[None], *levels)

    def test_empty_family_rejected(self):
        for family in ([], np.zeros((0, 3, 3))):
            with pytest.raises(ValueError):
                family_dimension(family, 2, 6)

    def test_max_entry_norm_equivalence(self):
        # max-entry distance <= operator distance <= n * max-entry distance,
        # so the grid embedding preserves dimension.
        from furstlab.grassmann import grass_distance

        rng = np.random.default_rng(12)
        for _ in range(1000):
            u = haar_sample(4, 2, rng)
            v = haar_sample(4, 2, rng)
            entry = np.abs(u.projector() - v.projector()).max()
            op = grass_distance(u, v)
            assert entry <= op + 1e-9
            assert op <= 4 * entry + 1e-9
