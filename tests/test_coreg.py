import collections
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial.transform import Rotation

from pushproc import coreg, errors, raster
from pushproc.raster import BandId
from pushproc.georef.attitude import AttitudeSample, Quaternion
from pushproc.georef.camera import ImagerModel
from pushproc.georef.metadata import AcqMetadata
from pushproc.georef.orbits import CircularOrbit


def smooth_texture(seed, size=128, sigma=1.5):
    rng = np.random.default_rng(seed)
    return ndimage.gaussian_filter(rng.uniform(0, 200, (size, size)), sigma)


def whole_plane_magnitude(plane, sigma=1.4):
    """The gradient magnitude of the smoothed plane, unblocked, through ``scipy.ndimage``."""
    g = ndimage.gaussian_filter(np.asarray(plane, dtype=np.float64), sigma)
    return np.hypot(ndimage.sobel(g, 1), ndimage.sobel(g, 0))


def whole(plane):
    h, w = np.shape(plane)
    return slice(0, h), slice(0, w)


def assert_bits_equal(got, expected):
    assert got.shape == expected.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def patch_magnitude_lines(monkeypatch, lines, width, sigma):
    """Make ``_magnitude`` walk a window ``width`` wide in blocks of ``lines`` lines.

    Its blocks are ``block_lines`` of the window plus a halo of the Gaussian
    radius and one pixel for Sobel on each side.
    """
    halo = int(4.0 * sigma + 0.5) + 1
    monkeypatch.setattr(raster, "BLOCK_PIXELS", lines * (width + 2 * halo))


class TestSuppression:
    """``_magnitude``, the gradient magnitude that the tiles are matched on."""

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("window", [(40, 95, 37, 120), (60, 61, 70, 71), (0, 30, 0, 25),
                                        (125, 150, 101, 140), (0, 150, 60, 90),
                                        (70, 100, 0, 140)])
    def test_window_equals_crop_of_whole_plane(self, monkeypatch, window, sigma):
        plane = np.random.default_rng(23).uniform(0, 65535, (150, 140)).astype(np.uint16)
        r0, r1, c0, c1 = window
        # Blocks of 16 lines put block edges inside the windows too.
        patch_magnitude_lines(monkeypatch, 16, c1 - c0, sigma)
        expected = whole_plane_magnitude(plane, sigma)[r0:r1, c0:c1]
        assert_bits_equal(coreg._magnitude(plane, (slice(r0, r1), slice(c0, c1)), sigma=sigma),
                          expected)
        # Into a view of a larger array.
        out = np.full((r1 - r0 + 2, c1 - c0 + 1), np.nan)
        got = coreg._magnitude(plane, (slice(r0, r1), slice(c0, c1)), out[1:-1, 1:], sigma)
        assert got.base is out
        assert_bits_equal(got, expected)
        assert np.isnan(out[[0, -1]]).all() and np.isnan(out[:, 0]).all()

    def test_working_memory_of_a_whole_plane(self):
        # The float64 magnitude of the whole plane and the four flat buffers
        # of a block, in which the Gaussian works too, peak at 2.10 float64
        # planes (4.20 MiB).  Non-maximum suppression, with five buffers,
        # peaked at 2.54.
        plane = np.random.default_rng(25).integers(0, 65535, (512, 512),
                                                   endpoint=True).astype(np.uint16)
        tracemalloc.start()
        try:
            coreg._magnitude(plane, whole(plane))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20


class TestKernelsEqualScipy:
    """``_magnitude``'s Gaussian and Sobel give the bits of ``scipy.ndimage``.

    Over planes shorter than the Gaussian's radius too, where the mirror
    beyond the border repeats with period 2n.
    """

    @staticmethod
    def plane(data, dtype, lines, width):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if dtype is np.float64:
            return rng.uniform(-1e4, 1e4, (lines, width))
        return rng.integers(0, np.iinfo(dtype).max, (lines, width), endpoint=True).astype(dtype)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float64])
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.4, 2.5])
    def test_gaussian(self, sigma, dtype, data):
        # Planes of one to three lines or columns are shorter than every
        # radius here (3 to 10), so the mirror repeats with period 2n.
        lines = data.draw(st.one_of(st.integers(1, 3), st.integers(1, 40)))
        width = data.draw(st.one_of(st.integers(1, 3), st.integers(1, 40)))
        plane = self.plane(data, dtype, lines, width)
        expected = whole_plane_magnitude(plane, sigma)
        # Blocks of a few lines put block edges inside the plane.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "BLOCK_PIXELS", data.draw(st.sampled_from([1, 97, 1 << 16])))
            got = coreg._magnitude(plane, whole(plane), sigma=sigma)
        assert_bits_equal(got, expected)


class TestCanny:
    """The tile feature is the first stage of Canny's detector: the gradient
    magnitude of the Gaussian-smoothed plane."""

    def test_constant_plane_no_edges(self):
        magnitude = coreg._magnitude(np.full((32, 48), 60.0), (slice(0, 32), slice(0, 48)),
                                     sigma=1.0)
        assert magnitude.shape == (32, 48)
        assert not magnitude.any()

    def test_vertical_step_edge(self):
        plane = np.zeros((64, 64))
        plane[:, 32:] = 200.0
        magnitude = coreg._magnitude(plane, whole(plane), sigma=1.0)
        # Every line peaks on the step, and nothing moves farther than the
        # Gaussian's radius (4) and Sobel's pixel from it.
        assert set(np.argmax(magnitude, axis=1)) <= {31, 32}
        assert not magnitude[:, :27].any() and not magnitude[:, 37:].any()
        np.testing.assert_array_equal(magnitude, magnitude[:1].repeat(64, axis=0))

    def test_rich_texture_produces_edges(self):
        # A contrast-reversed band has the same feature, to rounding: |-g| = |g|.
        plane = (smooth_texture(3) * 20).astype(np.uint16)
        magnitude = coreg._magnitude(plane, whole(plane))
        assert (magnitude > 0).mean() > 0.99
        reversed_ = coreg._magnitude(65535 - plane, whole(plane))
        np.testing.assert_allclose(reversed_, magnitude, rtol=1e-9, atol=1e-9)

    # Lines per block in test_blocked_matches_whole_plane.
    BLOCK = 256

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("lines", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 77, 5])
    def test_blocked_matches_whole_plane(self, monkeypatch, lines, sigma):
        patch_magnitude_lines(monkeypatch, self.BLOCK, 67, sigma)
        rng = np.random.default_rng(lines)
        plane = ndimage.gaussian_filter(rng.uniform(0, 4000, (lines, 67)), 1.5)
        plane[:, 30:] += 500.0  # one edge that runs through every block boundary
        plane = plane.astype(np.uint16)
        assert_bits_equal(coreg._magnitude(plane, whole(plane), sigma=sigma),
                          whole_plane_magnitude(plane, sigma))
        flat = np.full((lines, 67), 900, dtype=np.uint16)
        assert not coreg._magnitude(flat, whole(flat), sigma=sigma).any()

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("block_lines", [1, 3])
    def test_tiny_blocks_match_whole_plane(self, monkeypatch, block_lines, sigma):
        # A halo one line short changes the last bits of the lines next to
        # a block edge, and white noise with many block edges shows it.
        patch_magnitude_lines(monkeypatch, block_lines, 200, sigma)
        plane = np.random.default_rng(7).uniform(0, 65535, (300, 200)).astype(np.uint16)
        assert_bits_equal(coreg._magnitude(plane, whole(plane), sigma=sigma),
                          whole_plane_magnitude(plane, sigma))

    def test_six_blocks_equal_whole_plane_magnitude(self):
        # 589 lines make six blocks of block_lines(589 + 14) = 108 at the
        # default block size: the blur and the Sobel gradients run across
        # every block boundary as over the whole plane.
        plane = (smooth_texture(4, 589) * 20).astype(np.uint16)
        assert raster.block_lines(589 + 14) == 108
        assert_bits_equal(coreg._magnitude(plane, whole(plane)), whole_plane_magnitude(plane))

    def test_working_memory_bounded(self):
        # Reading every tile of a dense grid's whole-width strip holds the
        # four planes' ``tile_size`` lines (0.5 float64 planes) and one
        # window's buffers, never a map of the strip: 0.79 planes.
        plane = (smooth_texture(5, 1024) * 300).astype(np.uint16)
        grid = coreg.TileGrid(plane.shape, 128, 8, 8)
        [block] = grid.blocks
        tracemalloc.start()
        try:
            read = coreg._gradient_tiles([plane] * 4, block, 128)
            for _, cx, cy, _ in grid.tiles:
                read(cy - 64, cx - 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * plane.size * 8


class TestFftXcorr:
    def test_autocorrelation(self):
        tile = smooth_texture(1)
        dx, dy, score = coreg.fft_xcorr(tile, tile)
        assert (dx, dy) == (0.0, 0.0)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_integer_circular_shift_exact(self):
        tile = smooth_texture(2)
        shifted = np.roll(tile, (-2, 3), axis=(0, 1))  # tgt(y,x) = ref(y+2, x-3)
        dx, dy, score = coreg.fft_xcorr(tile, shifted)
        assert round(dx) == 3 and round(dy) == -2
        assert dx == pytest.approx(3.0, abs=1e-6)
        assert dy == pytest.approx(-2.0, abs=1e-6)
        assert score >= 0.99

    def test_subpixel_shift(self):
        tile = smooth_texture(4)
        # bilinear-resample oracle: features move +2.5 px in x
        shifted = ndimage.shift(tile, (0.0, 2.5), order=1, mode="grid-wrap")
        dx, dy, _ = coreg.fft_xcorr(tile, shifted)
        assert 2.25 <= dx <= 2.75
        assert abs(dy) < 0.25

    def test_flat_tile(self):
        with pytest.raises(errors.FlatTile):
            coreg.fft_xcorr(np.zeros((32, 32)), smooth_texture(5, 32))

    def test_non_pow2_padding(self):
        tile = smooth_texture(6, size=100)
        dx, dy, score = coreg.fft_xcorr(tile, tile)
        assert (dx, dy) == (0.0, 0.0)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_score_in_zero_one(self):
        # A tile against itself peaks at 1.0000000000000002 before the
        # clamp; a tile against its negative, or against an unrelated tile,
        # still peaks at or above the correlation's mean, 0.
        for seed in range(4):
            tile = smooth_texture(seed, 64)
            assert coreg.fft_xcorr(tile, tile)[2] <= 1.0
            assert coreg.fft_xcorr(tile, -tile)[2] >= 0.0
            assert 0.0 <= coreg.fft_xcorr(tile, smooth_texture(seed + 50, 64))[2] <= 1.0

    def test_half_tile_shift_reported_positive(self):
        # Shifts lie in (-N/2, N/2]: a roll by exactly N/2 reports +N/2.
        tile = smooth_texture(3)
        assert coreg.fft_xcorr(tile, np.roll(tile, (64, 64), axis=(0, 1)))[:2] == (64.0, 64.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 200), sx=st.integers(-16, 16), sy=st.integers(-16, 16))
    def test_shift_equivariance(self, seed, sx, sy):
        tile = smooth_texture(seed, size=64)
        rolled = np.roll(tile, (sy, sx), axis=(0, 1))
        dx, dy, _ = coreg.fft_xcorr(tile, rolled)
        assert round(dx) == sx and round(dy) == sy

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200))
    def test_antisymmetry(self, seed):
        a = smooth_texture(seed, size=64)
        b = ndimage.shift(a, (1.3, -0.7), order=1, mode="grid-wrap")
        dx_ab, dy_ab, _ = coreg.fft_xcorr(a, b)
        dx_ba, dy_ba, _ = coreg.fft_xcorr(b, a)
        assert dx_ab == pytest.approx(-dx_ba, abs=0.05)
        assert dy_ab == pytest.approx(-dy_ba, abs=0.05)


class TestParabolaOffset:
    def test_flat_triple_keeps_the_integer_peak(self):
        # denom is exactly 0: no vertex, and no 0 / 0.
        assert coreg._parabola_offset(np.float64(1.0), np.float64(1.0), np.float64(1.0)) == 0.0

    def test_vertex_pushed_past_half_a_pixel_by_rounding_refused(self):
        # A neighbour that ties the peak puts the vertex at +0.5 exactly;
        # rounding c_minus - 2 c_zero moves it to 0.5625, which is refused.
        assert coreg._parabola_offset(1.0 - 9 * 2.0 ** -53, 1.0, 1.0) == 0.0


class TestCollectMatches:
    def test_identical_planes(self):
        plane = smooth_texture(7, size=300)
        matches = coreg.collect_matches(plane, plane, tile_size=64, grid_nx=3, grid_ny=3)
        assert len(matches) == 9
        for m in matches:
            assert (m.dx, m.dy) == (0.0, 0.0)
            assert m.score > 0.9
        assert [m.tile_id for m in matches] == sorted(m.tile_id for m in matches)

    def test_global_shift(self):
        plane = smooth_texture(8, size=400)
        target = np.roll(plane, 4, axis=1)  # features move +4 in x
        matches = coreg.collect_matches(plane, target, tile_size=64, grid_nx=4, grid_ny=4,
                                        margin=8)
        assert len(matches) >= 12
        for m in matches:
            assert m.dx == pytest.approx(4.0, abs=0.5)

    def test_featureless_planes(self):
        flat = np.full((256, 256), 40.0)
        with pytest.raises(errors.NoMatches):
            coreg.collect_matches(flat, flat, tile_size=64, grid_nx=2, grid_ny=2)

    def test_tile_too_small(self):
        plane = smooth_texture(9)
        with pytest.raises(errors.OutOfBounds):
            coreg.collect_matches(plane, plane, tile_size=16, grid_nx=2, grid_ny=2)

    def test_planes_of_other_shapes(self):
        # ``match_bands`` refuses a target that is not the grid's shape.
        plane = smooth_texture(9)
        with pytest.raises(errors.OutOfBounds, match="is not the grid's"):
            coreg.collect_matches(plane, plane[:, 1:], tile_size=64, grid_nx=2, grid_ny=2)


def per_band_matches(ref_plane, tgt_plane, grid, min_score):
    """One band's matches, tile by tile through ``fft_xcorr``, and why tiles dropped.

    The per-band path ``match_bands`` replaced: both planes' whole-plane
    gradient magnitude, through ``scipy.ndimage``, is computed first, and
    every tile pair is transformed afresh.
    """
    ref_map, tgt_map = whole_plane_magnitude(ref_plane), whole_plane_magnitude(tgt_plane)
    half = grid.tile_size // 2
    matches, dropped = [], collections.Counter()
    for tile_id, cx, cy, _ in grid.tiles:
        window = (slice(cy - half, cy - half + grid.tile_size),
                  slice(cx - half, cx - half + grid.tile_size))
        try:
            dx, dy, score = coreg.fft_xcorr(ref_map[window], tgt_map[window])
        except errors.FlatTile:
            dropped["flat reference" if np.ptp(ref_map[window]) == 0 else "flat target"] += 1
            continue
        if score < min_score:
            dropped["low score"] += 1
            continue
        matches.append(coreg.MatchPoint(tile_id, float(cx), float(cy), dx, dy, score))
    return matches, dropped


def matching_planes(size, grid, seed=40):
    """A reference with one flat tile and three targets: shifted, one more
    flat tile, and unrelated texture below the middle line."""
    ref = (smooth_texture(seed, size) * 20).astype(np.uint16)
    half = grid.tile_size // 2

    def flatten(plane, tile_id, value):
        _, cx, cy, _ = grid.tiles[tile_id]
        plane[max(cy - half - 16, 0) : cy + half + 16, max(cx - half - 16, 0) : cx + half + 16] = value

    flatten(ref, 1, 700)
    shifted = np.roll(ref, (2, -3), axis=(0, 1))
    flat_tile = ref.copy()
    flatten(flat_tile, 2, 900)
    other = (smooth_texture(seed + 1, size) * 20).astype(np.uint16)
    mixed = np.where(np.arange(size)[:, None] < size // 2, shifted, other)
    return ref, [shifted, flat_tile, mixed]


# A dense 512-pixel grid is one whole-width strip; a sparse one has a strip per
# column of tiles.
LAYOUTS = {"dense": ((512, 512), 128, 8, 8, 0), "sparse": ((600, 600), 64, 4, 4, 8)}


class TestMatchBands:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_equals_per_band_matching(self, layout):
        grid = coreg.TileGrid(*LAYOUTS[layout])
        assert len(grid.blocks) == (1 if layout == "dense" else grid.grid_nx)
        ref, targets = matching_planes(grid.shape[0], grid)
        together = coreg.match_bands(ref, grid, targets, min_score=0.15)
        assert len(together) == len(targets)
        dropped = collections.Counter()
        for tgt, got in zip(targets, together):
            want, why = per_band_matches(ref, tgt, grid, 0.15)
            assert got == want
            assert coreg.collect_matches(ref, tgt, grid.tile_size, grid.grid_nx, grid.grid_ny,
                                         0.15, grid.margin) == want
            dropped += why
        # Every way a tile can drop happened at least once.
        assert set(dropped) == {"flat reference", "flat target", "low score"}

    def test_residual_equals_per_band_matching(self):
        ref, [shifted, _, mixed] = matching_planes(600, coreg.TileGrid(*LAYOUTS["sparse"]))
        grid = coreg.residual_grid(ref.shape, 16)
        for tgt in (shifted, mixed):
            want, _ = per_band_matches(ref, tgt, grid, 0.1)
            mags = np.hypot([m.dx for m in want], [m.dy for m in want])
            assert coreg.coreg_residual(ref, tgt, n_points=16) == (
                float(mags.mean()), float(np.sqrt(np.mean(mags * mags))))

    def test_featureless_target_gives_empty_list(self):
        grid = coreg.TileGrid(*LAYOUTS["sparse"])
        ref, [shifted, *_] = matching_planes(600, grid)
        kept, none = coreg.match_bands(ref, grid, [shifted, np.full(ref.shape, 40, np.uint16)])
        assert kept and none == []
        with pytest.raises(errors.NoMatches):
            coreg.require_matches(none)

    def test_plane_of_other_shape_rejected(self):
        grid = coreg.TileGrid(*LAYOUTS["sparse"])
        with pytest.raises(errors.OutOfBounds):
            coreg.match_bands(np.zeros(grid.shape), grid, [np.zeros((600, 601))])
        with pytest.raises(errors.OutOfBounds):
            coreg.match_bands(np.zeros((600, 601)), grid, [np.zeros(grid.shape)])

    @staticmethod
    def computed(monkeypatch, ref_plane, grid, tgt_planes):
        """The matches of ``match_bands`` and every (plane, window, magnitude) it computed, in order."""
        calls, magnitude = [], coreg._magnitude

        def spy(plane, window, out):
            calls.append((plane, window, magnitude(plane, window, out).copy()))
            return out

        monkeypatch.setattr(coreg, "_magnitude", spy)
        matches = coreg.match_bands(ref_plane, grid, tgt_planes)
        monkeypatch.setattr(coreg, "_magnitude", magnitude)
        return matches, calls

    def test_whole_width_strip_equals_whole_plane_magnitude(self, monkeypatch):
        plane = (smooth_texture(24, 300) * 20).astype(np.uint16)
        grid = coreg.TileGrid(plane.shape, 64, 8, 8)
        assert len(grid.blocks) == 1
        [matches], calls = self.computed(monkeypatch, plane, grid, [plane])
        assert len(matches) == 64 and all((m.dx, m.dy) == (0.0, 0.0) for m in matches)
        # The strip is taller than a tile, so both planes, the reference
        # first, get their magnitude a line of tiles at a time, over the
        # strip's columns, down to the tiles' last line.
        expected = whole_plane_magnitude(plane)
        bottoms = sorted({cy - 32 + 64 for _, _, cy, _ in grid.tiles})
        spans = list(zip([0, *bottoms[:-1]], bottoms))
        assert [(r.start, r.stop) for _, (r, _), _ in calls] == [s for s in spans for _ in "rt"]
        for p, (rows, cols), lines in calls:
            assert p is plane and cols == slice(0, 300)
            assert_bits_equal(lines, expected[rows, cols])

    def test_block_maps_depend_only_on_their_block(self, monkeypatch):
        # Pixels farther than the halo from every tile's window do not move
        # any tile: not the columns between strips, nor the lines between a
        # strip's tiles.
        plane = (smooth_texture(26, 700) * 20).astype(np.uint16)
        grid = coreg.TileGrid(plane.shape, 64, 4, 4)
        reach = 8
        far = block_mask(plane.shape, [(slice(max(cy - 32 - reach, 0), cy + 32 + reach),
                                        slice(max(cx - 32 - reach, 0), cx + 32 + reach))
                                       for _, cx, cy, _ in grid.tiles]) == 0
        assert far[:, grid.blocks[0]].any() and far[:, grid.blocks[0].stop + 8].all()
        changed = plane.copy()
        changed[far] = 0
        a, a_calls = self.computed(monkeypatch, plane, grid, [changed])
        b, b_calls = self.computed(monkeypatch, changed, grid, [plane])
        # A sparse strip's tiles share no line, so each plane's magnitude
        # over a tile's lines is computed in one call.
        assert len(grid.blocks) == 4
        assert a == b and len(a_calls) == len(b_calls) == 2 * len(grid.tiles)
        for (_, _, x), (_, _, y) in zip(a_calls, b_calls):
            np.testing.assert_array_equal(x, y)

    def test_tiles_of_one_tile_wide_strips_are_strided(self, monkeypatch):
        # A C-contiguous tile's ``mean`` adds in another order than a
        # strided one's, which moves product bytes; so no tile is one, even
        # where its strip is exactly as wide as the tile.
        grid = coreg.TileGrid((600, 1200), 128, 4, 2)
        assert [cols.stop - cols.start for cols in grid.blocks] == [128] * 4
        plane = (smooth_texture(44, 1200) * 20).astype(np.uint16)[:600]
        contiguous, prepare_tile = [], coreg._prepare_tile

        def spy(tile):
            contiguous.append(tile.flags.c_contiguous)
            return prepare_tile(tile)

        monkeypatch.setattr(coreg, "_prepare_tile", spy)
        [matches] = coreg.match_bands(plane, grid, [plane])
        assert len(matches) == len(grid.tiles)
        assert contiguous == [False] * (2 * len(grid.tiles))


# Grids whose strips hold several tiles: tiles that overlap, columns of
# tiles 6 columns apart (three strips, each one tile wide, the columns
# between them in no tile), and columns that overlap while the lines of
# tiles lie apart.
MERGED = {"overlapping": ((300, 300), 64, 8, 8), "touching": ((204, 204), 64, 3, 3),
          "columns": ((600, 300), 64, 5, 3)}


class TestBandedBlur:
    @pytest.mark.parametrize("rows", [(0, 1), (0, 3), (0, 40), (1, 4), (17, 58), (60, 99),
                                      (96, 99), (98, 99), (0, 99), (30, 30)])
    @pytest.mark.parametrize("sigma", [1.0, 1.4])
    @pytest.mark.parametrize("pixels", [1, 97 * 11, 1 << 16])
    def test_lines_of_the_whole_plane_filter(self, monkeypatch, rows, sigma, pixels):
        # Ranges at the top, the middle and the bottom, some shorter than
        # the radius (4 and 6), walked in blocks of one line up to all; and
        # column windows: every column, at the left and the right border,
        # inside, and narrower than the radius.
        plane = np.random.default_rng(11).integers(0, 256, (99, 37)).astype(np.uint8)
        whole_magnitude = whole_plane_magnitude(plane, sigma)
        monkeypatch.setattr(raster, "BLOCK_PIXELS", pixels)
        for cols in [(0, 37), (0, 3), (0, 12), (30, 37), (35, 37), (10, 13), (17, 18), (5, 31)]:
            window = (slice(*rows), slice(*cols))
            expected = whole_magnitude[window]
            # Into a view of a larger array that holds NaN.
            lines, width = expected.shape
            out = np.full((lines + 3, width + 2), np.nan)
            got = coreg._magnitude(plane, window, out[2:-1, 1:-1], sigma)
            assert got.base is out
            assert_bits_equal(got, expected)
            assert np.isnan(out[:2]).all() and np.isnan(out[-1]).all()
            assert np.isnan(out[:, [0, -1]]).all()

    @pytest.mark.parametrize("layout", sorted(MERGED))
    @pytest.mark.parametrize("pixels", [1, 40 * 308, None])
    def test_match_bands_equals_whole_block_maps(self, monkeypatch, layout, pixels):
        grid = coreg.TileGrid(*MERGED[layout])
        assert len(grid.blocks) < len(grid.tiles)
        ref, targets = matching_planes(max(grid.shape), grid)
        ref, targets = ref[: grid.shape[0], : grid.shape[1]], [
            t[: grid.shape[0], : grid.shape[1]] for t in targets]
        want = [per_band_matches(ref, tgt, grid, 0.15)[0] for tgt in targets]
        assert any(want)
        if pixels is not None:
            # Blocks of one line, and of 40 lines of the widest block.
            monkeypatch.setattr(raster, "BLOCK_PIXELS", pixels)
        size = grid.tile_size
        computed, magnitude = collections.defaultdict(list), coreg._magnitude

        def spy(plane, window, out):
            # What is held of a plane: a tile's lines of its strip.
            rows, cols = window
            assert out.base.shape[1] == size
            assert 0 <= rows.start < rows.stop <= grid.shape[0]
            [k] = [k for k, c in enumerate(grid.blocks) if c == cols]
            computed[id(plane), k].append((rows.start, rows.stop))
            return magnitude(plane, window, out)

        monkeypatch.setattr(coreg, "_magnitude", spy)
        assert coreg.match_bands(ref, grid, targets, min_score=0.15) == want
        # Each plane's lines are computed down each strip, none twice, to
        # the last line of each line of tiles.
        assert len(computed) == 4 * len(grid.blocks)
        bottoms = {cy - size // 2 + size for _, _, cy, _ in grid.tiles}
        for spans in computed.values():
            assert all(a < b <= c for (a, b), (c, _) in zip(spans, spans[1:]))
            assert {b for _, b in spans} <= bottoms

    def test_dense_stage_memory_bound(self):
        from pushproc.pipeline import QualityReport, _coreg_grids, _stage_coreg

        # The default 8x8 grid of 128-pixel tiles is one strip of the whole
        # width on a 1024-pixel plane; the residual grid has seven strips.
        scene = stage_scene(36, 1024)
        grids = _coreg_grids((scene.lines, scene.width))
        assert [len(grid.blocks) for grid in grids] == [1, 7]
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, grids, QualityReport())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.83 float64 planes, while the strip's tiles are read: the four
        # planes' held lines of the magnitude (0.5) and the working buffers
        # of one window of it.  Canny byte maps, whose hysteresis needed a
        # map's float64 magnitude whole, measured 2.33, and holding four
        # blurred maps for the whole block 4.96.
        assert peak <= 1.0 * scene.width * scene.lines * 8


def raw_tiles(planes, cols, size):
    """A reader as ``_gradient_tiles`` returns, of the planes' own samples as float64."""

    def read(y0, x0):
        x = x0 - cols.start
        return np.stack([np.asarray(plane[y0 : y0 + size, cols], dtype=np.float64)[:, x : x + size]
                         for plane in planes])

    return read


class TestCannyTiles:
    """The seam between the tile feature and the tile loop of ``match_bands``."""

    @pytest.mark.parametrize("layout", [*LAYOUTS.values(), *MERGED.values()],
                             ids=[*LAYOUTS, *MERGED])
    def test_windows_are_crops_of_the_blurred_block_maps(self, layout):
        # The maps are the gradient magnitude of the Gaussian-blurred plane,
        # which is pointwise: a strip's map is a crop of the whole plane's.
        grid = coreg.TileGrid(*layout)
        h, w = grid.shape
        planes = [(smooth_texture(42, max(h, w)) * 20).astype(np.uint16)[:h, :w],
                  np.random.default_rng(43).integers(0, 256, (h, w)).astype(np.uint8)]
        maps = [whole_plane_magnitude(plane) for plane in planes]
        size, half = grid.tile_size, grid.tile_size // 2
        for k, cols in enumerate(grid.blocks):
            corners = [(cy - half, cx - half) for _, cx, cy, owner in grid.tiles if owner == k]
            # In tile order, and with tiles skipped: every third tile, and
            # the last alone.
            for read_at in (corners, corners[::3], corners[-1:]):
                read = coreg._gradient_tiles(planes, cols, size)
                for y0, x0 in read_at:
                    got = read(y0, x0)
                    assert got.shape == (len(planes), size, size)
                    for window, magnitude in zip(got, maps):
                        assert_bits_equal(window, magnitude[y0 : y0 + size, x0 : x0 + size])

    @pytest.mark.parametrize("layout", ["sparse", "overlapping"])
    def test_match_bands_knows_no_edges(self, monkeypatch, layout):
        # With the samples themselves as the feature, every match is the
        # per-tile ``fft_xcorr`` of the raw tiles.
        grid = coreg.TileGrid(*{**LAYOUTS, **MERGED}[layout])
        ref, targets = matching_planes(grid.shape[0], grid)
        monkeypatch.setattr(coreg, "_gradient_tiles", raw_tiles)
        half, size = grid.tile_size // 2, grid.tile_size
        got = coreg.match_bands(ref, grid, targets, min_score=0.15)
        for tgt, kept in zip(targets, got):
            want = []
            for tile_id, cx, cy, _ in grid.tiles:
                window = (slice(cy - half, cy - half + size), slice(cx - half, cx - half + size))
                try:
                    dx, dy, score = coreg.fft_xcorr(ref[window], tgt[window])
                except errors.FlatTile:
                    continue
                if score >= 0.15:
                    want.append(coreg.MatchPoint(tile_id, float(cx), float(cy), dx, dy, score))
            assert kept == want
        # The reference's flat tile is dropped from every target.
        assert all(got) and all(m.tile_id != 1 for kept in got for m in kept)


def urban_plane(seed, size):
    """A 16-bit ``urban-blocks`` texture, as the scene generator draws it."""
    from pushproc.synthscene import _TEXTURE_FN, SynthSpec

    spec = SynthSpec(seed=seed, width=size, lines=size, texture_base=2000.0,
                     texture_contrast=1500.0)
    return np.rint(_TEXTURE_FN["urban-blocks"](spec)).astype(np.uint16)


class TestMetamorphic:
    """How matching, rejection and the fit answer known changes of the target.

    Reference and target are cut from one texture, the target ``(k, l)``
    pixels left of and above the reference, so every feature of the
    reference lies ``(k, l)`` from it in the target.  The grid is the
    pipeline's kind: 128-pixel tiles, 4 x 4 of them on a 384-pixel plane.
    """

    SIZE, ROOM = 384, 8
    # Tiles shifted by up to 8 of their 128 pixels share less than all of
    # their content, and the parabola's subpixel peak leans with it: the
    # fitted field at the tile centres was at most 0.18 px from (k, l) over
    # 300 drawn cases (0.10 px on Canny edge maps).
    SHIFT_TOLERANCE = 0.25

    def matches(self, seed, k, l, transforms):
        big = urban_plane(seed, self.SIZE + 2 * self.ROOM)
        o, n = self.ROOM, self.SIZE
        target = big[o - l : o - l + n, o - k : o - k + n]
        grid = coreg.TileGrid((n, n), 128, 4, 4, 8)
        return grid, coreg.match_bands(big[o : o + n, o : o + n], grid,
                                       [transform(target) for transform in transforms])

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(-8, 8), l=st.integers(-8, 8))
    @example(seed=7, k=3, l=-5)
    def test_integer_translation_fits_a_constant_field(self, seed, k, l):
        grid, [matches] = self.matches(seed, k, l, [np.asarray])
        model = coreg.fit_distortion(coreg.remove_outliers(matches), 2, width=self.SIZE,
                                     height=self.SIZE)
        dx, dy = model.evaluate(np.array([t[1] for t in grid.tiles], dtype=np.float64),
                                np.array([t[2] for t in grid.tiles], dtype=np.float64))
        assert np.abs(dx - k).max() <= self.SHIFT_TOLERANCE
        assert np.abs(dy - l).max() <= self.SHIFT_TOLERANCE

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(-8, 8), l=st.integers(-8, 8),
           gain=st.floats(0.2, 5.0), offset=st.floats(-1000.0, 1000.0))
    @example(seed=7, k=3, l=-5, gain=0.37, offset=211.0)
    def test_gain_offset_and_contrast_reversal_keep_every_match(self, seed, k, l, gain, offset):
        # Matching keys on structure, not on radiometry: a target of
        # a DN + b (a > 0) or of max - DN matches where the target does.
        _, [plain, *changed] = self.matches(
            seed, k, l, [np.asarray, lambda t: gain * t.astype(np.float64) + offset,
                         lambda t: t.max() - t])
        assert round(np.median([m.dx for m in plain])) == k
        assert round(np.median([m.dy for m in plain])) == l
        for matches in changed:
            assert [m.tile_id for m in matches] == [m.tile_id for m in plain]
            for m, p in zip(matches, plain):
                assert abs(m.dx - p.dx) <= 0.05 and abs(m.dy - p.dy) <= 0.05

    # A texture seed, a plane size and the dx then dy terms of an order-2 warp.
    WARPED = dict(seed=st.integers(0, 2**16), size=st.integers(256, 512),
                  coeffs=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12))

    @staticmethod
    def warped_pair(seed, size, coeffs):
        """A ``size``-pixel reference and a target sampled from the same texture
        at the shift field whose dx and dy terms in 1, x, y, x^2, xy, y^2 (over
        normalized coordinates) are ``coeffs[:6]`` and ``coeffs[6:]`` pixels."""
        big = urban_plane(seed, size + 16).astype(np.float64)
        y, x = np.mgrid[0:size, 0:size] / (size - 1)
        terms = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
        rows, cols = np.mgrid[8 : size + 8, 8 : size + 8]
        target = ndimage.map_coordinates(big, [rows + terms @ coeffs[6:], cols + terms @ coeffs[:6]],
                                         order=1)
        return big[8:-8, 8:-8], target

    @staticmethod
    def fit(ref, tgt):
        """The model ``match_bands`` -> ``remove_outliers`` -> ``fit_distortion``
        fit to ``tgt`` against ``ref`` on the pipeline's match grid, and the
        grid's tile centres (columns, lines)."""
        size = len(ref)
        grid = coreg.TileGrid((size, size), coreg.TILE_SIZE, coreg.GRID_TILES, coreg.GRID_TILES)
        [matches] = coreg.match_bands(ref, grid, [tgt])
        model = coreg.fit_distortion(coreg.remove_outliers(matches), width=size, height=size)
        _, x, y, _ = np.array(grid.tiles, dtype=np.float64).T
        return model, x, y

    @settings(max_examples=4, deadline=None)
    @given(**WARPED)
    @example(seed=7, size=389, coeffs=[1.5, -2.0, 1.0, 0.5, -0.5, 0.3,
                                       -1.0, 1.5, -2.0, 0.3, 0.8, -0.5])
    def test_mirror_negates_dx_at_mirrored_points(self, seed, size, coeffs):
        # Both planes flipped left to right: the grid's columns are symmetric,
        # so every tile is the mirror of one, and the field at column
        # size - 1 - x is the field at x with dx negated.  A tile's centre is
        # reported at its window's column x0 + 64, half a pixel right of the
        # window's middle: over 100 drawn cases the two fields agreed to
        # 4e-14 px at size - x, and were at most 0.02 px apart at size - 1 - x.
        ref, tgt = self.warped_pair(seed, size, coeffs)
        model, x, y = self.fit(ref, tgt)
        mirrored, _, _ = self.fit(ref[:, ::-1], tgt[:, ::-1])
        dx, dy = model.evaluate(x, y)
        mirrored_dx, mirrored_dy = mirrored.evaluate(size - 1 - x, y)
        assert np.abs(mirrored_dx + dx).max() <= 0.05
        assert np.abs(mirrored_dy - dy).max() <= 0.05

    @settings(max_examples=4, deadline=None)
    @given(**WARPED)
    @example(seed=7, size=389, coeffs=[1.5, -2.0, 1.0, 0.5, -0.5, 0.3,
                                       -1.0, 1.5, -2.0, 0.3, 0.8, -0.5])
    def test_reference_swap_negates_the_field(self, seed, size, coeffs):
        # Matching B against A correlates the same two tile windows the other
        # way round, which reverses the correlation: over 100 drawn cases the
        # fields were at most 6e-15 px from negated.
        ref, tgt = self.warped_pair(seed, size, coeffs)
        model, x, y = self.fit(ref, tgt)
        swapped, _, _ = self.fit(tgt, ref)
        dx, dy = model.evaluate(x, y)
        swapped_dx, swapped_dy = swapped.evaluate(x, y)
        assert np.abs(swapped_dx + dx).max() <= 0.1
        assert np.abs(swapped_dy + dy).max() <= 0.1


def block_mask(shape, blocks):
    count = np.zeros(shape, dtype=int)
    for rows, cols in blocks:
        count[rows, cols] += 1
    return count


class TestTileGrid:
    def test_sparse_grid_one_strip_per_column_of_tiles(self):
        # Blocks are strips of columns: the tiles' lines lie apart too, and
        # they are never cut.
        grid = coreg.TileGrid((2000, 2000), 128, 8, 8)
        assert len(grid.blocks) == 8
        covered = np.zeros(2000, dtype=int)
        for cols in grid.blocks:
            covered[cols] += 1
        assert covered.max() == 1
        for tile_id, cx, cy, k in grid.tiles:
            assert k == tile_id % 8
            assert grid.blocks[k] == slice(cx - 64, cx + 64)
        assert [t[0] for t in grid.tiles] == list(range(64))

    def test_dense_grid_is_one_whole_plane_block(self):
        grid = coreg.TileGrid((512, 512), 128, 8, 8)
        assert grid.blocks == [slice(0, 512)]
        assert {t[3] for t in grid.tiles} == {0}

    def test_overlapping_tiles_share_a_block(self):
        # Columns overlap, lines do not: one strip holds every tile.
        grid = coreg.TileGrid((600, 300), 64, 5, 3)
        assert grid.blocks == [slice(0, 300)]
        assert {t[3] for t in grid.tiles} == {0}
        # Lines overlap, columns do not: one strip per column of tiles.
        grid = coreg.TileGrid((300, 600), 64, 3, 5)
        assert grid.blocks == [slice(0, 64), slice(268, 332), slice(536, 600)]
        for tile_id, cx, cy, k in grid.tiles:
            assert k == tile_id % 3

    @pytest.mark.parametrize("shape, margin", [((512, 512), 0), ((300, 200), 8)])
    def test_more_tiles_than_centres_rejected(self, shape, margin):
        h, w = shape
        nx, ny = w - 64 - 2 * margin + 1, h - 64 - 2 * margin + 1
        grid = coreg.TileGrid(shape, 64, nx, 2, margin)
        assert len({cx for _, cx, _, _ in grid.tiles}) == nx
        coreg.TileGrid(shape, 64, 2, ny, margin)
        for bad in ((nx + 1, 2), (2, ny + 1), (600, 600), (10**6, 10**6)):
            with pytest.raises(errors.OutOfBounds):
                coreg.TileGrid(shape, 64, *bad, margin)

    def test_residual_grid_inherits_the_bound(self):
        with pytest.raises(errors.OutOfBounds):
            coreg.residual_grid((512, 512), 10**12)

    @pytest.mark.parametrize("shape", [(512, 512), (200, 200), (64, 64)])
    def test_default_grids_build(self, shape):
        if min(shape) >= 128:
            assert len(coreg.TileGrid(shape, 128, 8, 8).tiles) == 64
        assert len(coreg.residual_grid(shape, 50).tiles) == 56


def stage_scene(seed, size, identical_bands=False):
    from pushproc.raster import RawScene
    from pushproc.synthscene import SynthSpec, generate

    raw, _ = generate(SynthSpec(seed=seed, width=size, lines=size, texture="urban-blocks",
                                band_warp={"nir": {"order": 1, "coeff_dx": [1.0, -1.0, 0.5],
                                                   "coeff_dy": [0.5, 0.5, -1.0]}}))
    planes = raw.planes.copy()
    if identical_bands:
        planes[:] = planes[int(BandId.RED)]
    return RawScene(planes, raw.line_times, raw.bit_depth)


def sparse_grids(shape):
    """A match grid and a residual grid sparser than the pipeline's.

    On a 512-pixel plane: four by four 64-pixel tiles, and a residual grid
    of three by four 128-pixel tiles whose columns miss the match tiles'.
    On a 1024-pixel plane the tiles of both grids lie apart in both
    directions.
    """
    return coreg.TileGrid(shape, 64, 4, 4), coreg.residual_grid(shape, 10)


class TestCoregStageEdges:
    def test_identical_bands_residual_exactly_zero(self, tmp_path, monkeypatch):
        from pushproc import pipeline
        from pushproc.raster import save_raw

        save_raw(stage_scene(31, 512, identical_bands=True), tmp_path / "scene.l3raw")
        monkeypatch.setattr(pipeline, "_coreg_grids", sparse_grids)
        report = pipeline.run_pipeline(pipeline.PipelineConfig(
            raw_path=str(tmp_path / "scene.l3raw"), out_dir=str(tmp_path / "out"),
            vignetting=False, georef=False))
        for band in ("blue", "green", "nir"):
            metrics = report.stages["coreg"]["bands"][band]
            assert metrics["residual_mean_px"] == 0.0
            assert metrics["residual_rms_px"] == 0.0
            assert metrics["masked_pixels"] == 0

    def test_each_plane_magnitude_computed_once_per_grid(self, monkeypatch):
        from pushproc.pipeline import QualityReport, _stage_coreg

        scene = stage_scene(32, 1024)
        shape = scene.planes[0].shape
        count = np.zeros(scene.planes.shape, dtype=int)
        original = coreg._magnitude

        def spy(plane, window, out):
            [band] = [b for b in range(len(count)) if np.shares_memory(plane, scene.planes[b])]
            count[band][window] += 1
            return original(plane, window, out)

        monkeypatch.setattr(coreg, "_magnitude", spy)
        _stage_coreg(scene, None, sparse_grids(shape), QualityReport())
        # Every plane, the reference included, gets its gradient magnitude
        # once per grid over the lines its tiles read, across their strips'
        # columns, and nowhere else.
        expected = np.zeros(shape, dtype=int)
        for grid in sparse_grids(shape):
            read = np.zeros(shape, dtype=bool)
            for _, _, cy, k in grid.tiles:
                read[cy - grid.tile_size // 2 : cy + grid.tile_size // 2, grid.blocks[k]] = True
            expected += read
        assert expected.max() == 2
        for band_count in count:
            np.testing.assert_array_equal(band_count, expected)

    def test_reference_tiles_prepared_once_per_grid(self, monkeypatch):
        from pushproc.pipeline import QualityReport, _stage_coreg

        scene = stage_scene(34, 512)
        ref = scene.planes[int(BandId.RED)]
        computed, prepared = [], collections.Counter()
        magnitude, prepare_tile = coreg._magnitude, coreg._prepare_tile

        # A reference tile is cut from the lines computed of the reference;
        # each is kept, so its memory is not reused.
        def magnitude_spy(plane, window, out):
            computed.append((np.shares_memory(plane, ref), window, magnitude(plane, window, out)))
            return out

        def prepare_spy(tile):
            is_ref = any(np.shares_memory(tile, m) for from_ref, _, m in computed if from_ref)
            prepared["reference" if is_ref else "target"] += 1
            return prepare_tile(tile)

        monkeypatch.setattr(coreg, "_magnitude", magnitude_spy)
        monkeypatch.setattr(coreg, "_prepare_tile", prepare_spy)
        _stage_coreg(scene, None, sparse_grids(ref.shape), QualityReport())
        # Each plane's lines of each strip were computed once, the
        # reference's in a quarter of the calls; no reference tile is flat.
        tiles = sum(len(grid.tiles) for grid in sparse_grids(ref.shape))
        windows = collections.Counter((from_ref, w[0].start, w[0].stop, w[1].start, w[1].stop)
                                      for from_ref, w, _ in computed)
        assert sum(from_ref for from_ref, _, _ in computed) * 4 == len(computed)
        assert {n for (from_ref, *_), n in windows.items() if from_ref} == {1}
        assert prepared == {"reference": tiles, "target": 3 * tiles}

    def test_match_grid_maps_released_before_resampling(self, monkeypatch):
        from pushproc.pipeline import QualityReport, _stage_coreg

        # Six by six 128-pixel tiles and a residual grid of four by four are
        # both sparse on a 1024-pixel plane: a strip per column of tiles.
        scene = stage_scene(35, 1024)
        shape = scene.planes[0].shape
        grids = coreg.TileGrid(shape, 128, 6, 6), coreg.residual_grid(shape, 16)
        assert [len(grid.blocks) for grid in grids] == [6, 4]
        # A yardstick: one byte a pixel of the match grid's tile windows.
        map_bytes = 128 * 128 * len(grids[0].tiles)

        held = []
        resample = coreg.resample

        def spy(plane, model, **kwargs):
            if not held:
                gc.collect()    # empties the interpreter's free lists of tuples and floats
                held.append(tracemalloc.get_traced_memory()[0])
            return resample(plane, model, **kwargs)

        monkeypatch.setattr(coreg, "resample", spy)
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, grids, QualityReport())
        finally:
            tracemalloc.stop()
        # At the first resample no tile feature is held: 0.06 of the
        # yardstick (mostly the matches).  Building the residual grid's
        # reference byte maps ahead, in one call with the match grid's,
        # measured 0.53.
        assert held[0] <= 0.1 * map_bytes

    def test_stage_memory_has_no_full_plane_magnitude(self, monkeypatch):
        from pushproc.pipeline import QualityReport, _stage_coreg

        # Small blocks keep resampling's and the magnitude's working arrays
        # small, so the peak shows what spans the plane: resampling takes 32
        # lines at a time.
        monkeypatch.setattr(raster, "BLOCK_PIXELS", 32 * 1024)
        scene = stage_scene(33, 1024)
        shape = (scene.lines, scene.width)
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, (coreg.TileGrid(shape, 128, 4, 4),
                                       coreg.residual_grid(shape, 16)), QualityReport())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.26 float64 planes here: the warp's blocks and the matching's
        # working arrays.  Holding the reference's byte maps of both grids
        # measured 0.35, float64 block maps and a second plane for each
        # aligned band 0.83, every suppressed block held with its copy
        # 1.27, full-plane edge maps 4.2.
        assert peak <= 0.4 * scene.width * scene.lines * 8


def nadir_metadata(row_offset_nir=0.0, line_period=None, altitude=510.0):
    orbit = CircularOrbit(altitude_km=altitude, inclination_deg=97.6,
                          arg_lat0_deg=-1.0, epoch_unix=1_525_487_400.0)
    imager = ImagerModel(focal_length_mm=238.0, pixel_pitch_um=7.0, columns=512,
                         band_row_offset={BandId.RED: 0.0, BandId.NIR: row_offset_nir})
    if line_period is None:
        line_period = altitude * imager.ifov_rad / orbit.ground_speed_kms
    t0 = orbit.epoch_unix
    samples = []
    for k in range(12):
        t = t0 + k * 2.0
        state = orbit.state_at(t)
        z = -state.r_eci / np.linalg.norm(state.r_eci)
        y = state.v_eci - (state.v_eci @ z) * z
        y /= np.linalg.norm(y)
        x = np.cross(y, z)
        samples.append(AttitudeSample(t, Quaternion.from_matrix(np.stack([x, y, z], axis=1))))
    return AcqMetadata(orbit=orbit, attitude=samples, line_period_s=line_period, imager=imager)


class TestShiftPrior:
    def test_zero_separation_zero_prior(self):
        meta = nadir_metadata(row_offset_nir=0.0)
        prior = coreg.predict_shift_prior(meta, (BandId.RED, BandId.NIR))
        assert prior.dx == 0.0
        assert prior.dy == pytest.approx(0.0, abs=1e-9)

    def test_row_separation_maps_to_lines(self):
        # a +8-row (forward-looking) band images features 8 lines earlier
        meta = nadir_metadata(row_offset_nir=8.0)
        prior = coreg.predict_shift_prior(meta, (BandId.RED, BandId.NIR))
        assert prior.dy == pytest.approx(-8.0, abs=0.1)
        assert abs(prior.dy) == pytest.approx(8.0, abs=0.1)

    def test_off_nadir_increases_prior(self):
        meta = nadir_metadata(row_offset_nir=8.0)
        nadir_prior = coreg.predict_shift_prior(meta, (BandId.RED, BandId.NIR))
        # tilt every attitude sample by a 10 degree roll about the along axis
        from pushproc.georef.camera import rpy_matrix

        tilted = [
            AttitudeSample(s.t, Quaternion.from_matrix(
                Rotation.from_quat([s.q.x, s.q.y, s.q.z, s.q.s]).as_matrix()
                @ rpy_matrix(10.0, 0, 0)))
            for s in meta.attitude
        ]
        meta_tilted = AcqMetadata(meta.orbit, tilted, meta.line_period_s, meta.imager)
        tilted_prior = coreg.predict_shift_prior(meta_tilted, (BandId.RED, BandId.NIR))
        assert abs(tilted_prior.dy) > abs(nadir_prior.dy)

    def test_far_off_nadir_divisor_floored_at_a_tenth(self):
        # 85 degrees off nadir, cos = 0.087 is floored to 0.1: ten times the
        # nadir prior, not 11.5.
        meta = nadir_metadata(row_offset_nir=8.0)
        nadir_prior = coreg.predict_shift_prior(meta, (BandId.RED, BandId.NIR))
        from pushproc.georef.camera import rpy_matrix

        tilted = [
            AttitudeSample(s.t, Quaternion.from_matrix(
                Rotation.from_quat([s.q.x, s.q.y, s.q.z, s.q.s]).as_matrix()
                @ rpy_matrix(85.0, 0, 0)))
            for s in meta.attitude
        ]
        meta_tilted = AcqMetadata(meta.orbit, tilted, meta.line_period_s, meta.imager)
        tilted_prior = coreg.predict_shift_prior(meta_tilted, (BandId.RED, BandId.NIR))
        assert tilted_prior.dy == pytest.approx(10.0 * nadir_prior.dy, rel=1e-9)

    def test_missing_attitude(self):
        meta = nadir_metadata()
        meta.attitude = []
        with pytest.raises(errors.MissingAttitude):
            coreg.predict_shift_prior(meta, (BandId.RED, BandId.NIR))


class TestRemoveOutliers:
    def make_matches(self, shifts, scores=None):
        return [
            coreg.MatchPoint(tile_id=i, x_ref=10.0 * i, y_ref=5.0 * i,
                             dx=float(dx), dy=float(dy),
                             score=1.0 if scores is None else scores[i])
            for i, (dx, dy) in enumerate(shifts)
        ]

    def test_all_on_prior_unchanged(self):
        matches = self.make_matches([(2.0, -1.0)] * 8)
        prior = coreg.ShiftPrior(2.0, -1.0)
        assert coreg.remove_outliers(matches, prior) == matches

    def test_injected_gross_outliers_removed(self, rng):
        inlier_shifts = [(2.0 + rng.normal(0, 0.1), 1.0 + rng.normal(0, 0.1)) for _ in range(40)]
        outlier_shifts = [(52.0, 1.0), (2.0, -49.0), (-48.0, 1.0), (2.0, 51.0),
                          (40.0, 40.0), (-30.0, 30.0), (60.0, 0.0), (0.0, 60.0),
                          (45.0, -45.0), (-50.0, -50.0)]
        matches = self.make_matches(inlier_shifts + outlier_shifts)
        prior = coreg.ShiftPrior(2.0, 1.0)
        kept = coreg.remove_outliers(matches, prior)
        kept_ids = {m.tile_id for m in kept}
        assert kept_ids == set(range(40))

    def test_all_far_from_prior(self):
        matches = self.make_matches([(100.0, 100.0)] * 5)
        with pytest.raises(errors.AllRejected):
            coreg.remove_outliers(matches, coreg.ShiftPrior(0.0, 0.0))

    def test_zero_deviation_never_removed(self):
        matches = self.make_matches([(0.0, 0.0)] * 6)
        kept = coreg.remove_outliers(matches, coreg.ShiftPrior(0.0, 0.0))
        assert kept == matches

    def test_median_fallback_without_prior(self):
        matches = self.make_matches([(1.0, 1.0)] * 10 + [(50.0, 50.0)])
        kept = coreg.remove_outliers(matches, None)
        assert all(m.dx == 1.0 for m in kept)
        assert len(kept) == 10

    def test_gate_keeps_its_radius_and_drops_beyond(self):
        # The MAD pass would keep all three groups (median 4.5, MAD 0.5), so
        # the gate alone keeps 5.0 px from the prior and drops 5.5 px.
        matches = self.make_matches([(4.0, 0.0)] * 3 + [(5.0, 0.0)] * 3 + [(5.5, 0.0)] * 2)
        kept = coreg.remove_outliers(matches, coreg.ShiftPrior(0.0, 0.0))
        assert [m.tile_id for m in kept] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("axis", ["dx", "dy"])
    def test_mad_clip_at_three_mads(self, axis):
        # Median 0 and MAD 1 px: 2.9 px is kept and 3.5 px dropped.
        shifts = [-1.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.9, 3.5]
        matches = self.make_matches([(s, 0.0) if axis == "dx" else (0.0, s) for s in shifts])
        kept = coreg.remove_outliers(matches, None)
        assert [m.tile_id for m in kept] == list(range(8))

    @pytest.mark.parametrize("axis", ["dx", "dy"])
    def test_mad_floored_at_half_a_pixel(self, axis):
        # MAD 0 is floored to 0.5 px, so 1.4 px is within three MADs.
        shifts = [0.0] * 7 + [1.4]
        matches = self.make_matches([(s, 0.0) if axis == "dx" else (0.0, s) for s in shifts])
        assert coreg.remove_outliers(matches, None) == matches

    def test_order_preserved(self):
        matches = self.make_matches([(1.0, 0.0), (1.1, 0.0), (0.9, 0.0), (1.0, 0.1)])
        kept = coreg.remove_outliers(matches, None)
        assert [m.tile_id for m in kept] == sorted(m.tile_id for m in kept)


class TestFitDistortion:
    def synth_matches(self, coeff_dx, coeff_dy, order, width=500, height=400, n=30):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, width - 1, n)
        ys = rng.uniform(0, height - 1, n)
        model = coreg.DistortionModel(order=order, coeff_dx=np.asarray(coeff_dx),
                                      coeff_dy=np.asarray(coeff_dy),
                                      width=width, height=height)
        dxs, dys = model.evaluate(xs, ys)
        return [
            coreg.MatchPoint(i, float(x), float(y), float(dx), float(dy), 1.0)
            for i, (x, y, dx, dy) in enumerate(zip(xs, ys, dxs, dys))
        ]

    def test_recovers_order2_field(self):
        coeff_dx = [1.0, -2.0, 0.5, 3.0, -1.0, 0.25]
        coeff_dy = [0.5, 1.0, -1.5, 0.0, 2.0, -0.75]
        matches = self.synth_matches(coeff_dx, coeff_dy, order=2)
        model = coreg.fit_distortion(matches, order=2, width=500, height=400)
        np.testing.assert_allclose(model.coeff_dx, coeff_dx, atol=1e-6)
        np.testing.assert_allclose(model.coeff_dy, coeff_dy, atol=1e-6)
        assert model.rms_fit < 1e-6

    def test_too_few_matches(self):
        matches = self.synth_matches([0.0], [0.0], order=0, n=5)
        with pytest.raises(errors.TooFewMatches):
            coreg.fit_distortion(matches, order=2, width=500, height=400)

    def test_twice_the_coefficients_required(self):
        # Order 2 has 6 coefficients per component: 11 matches are too few.
        matches = self.synth_matches([1.0], [2.0], order=0, n=12)
        with pytest.raises(errors.TooFewMatches):
            coreg.fit_distortion(matches[:11], order=2, width=500, height=400)
        model = coreg.fit_distortion(matches, order=2, width=500, height=400)
        assert model.coeff_dx[0] == pytest.approx(1.0, abs=1e-9)

    def test_pure_translation_with_order2(self):
        matches = self.synth_matches([3.0], [-2.0], order=0, n=20)
        model = coreg.fit_distortion(matches, order=2, width=500, height=400)
        assert model.coeff_dx[0] == pytest.approx(3.0, abs=1e-9)
        assert model.coeff_dy[0] == pytest.approx(-2.0, abs=1e-9)
        assert np.abs(model.coeff_dx[1:]).max() < 1e-9
        assert np.abs(model.coeff_dy[1:]).max() < 1e-9

    def test_singular_fit_collinear_points(self):
        # all matches on one column cannot constrain x-dependence
        matches = [
            coreg.MatchPoint(i, 100.0, float(10 * i), 1.0, 2.0, 1.0) for i in range(30)
        ]
        with pytest.raises(errors.SingularFit):
            coreg.fit_distortion(matches, order=2, width=500, height=400)

    def test_json_roundtrip(self):
        matches = self.synth_matches([1.0, 0.5, -0.5], [0.0, 1.0, 1.0], order=1)
        model = coreg.fit_distortion(matches, order=1, width=500, height=400)
        # The report's dict of the model, read back as scripts/run_demo.py does.
        clone = coreg.DistortionModel(**json.loads(json.dumps(model.to_dict())))
        np.testing.assert_allclose(clone.coeff_dx, model.coeff_dx)
        np.testing.assert_allclose(clone.coeff_dy, model.coeff_dy)
        assert (clone.order, clone.width, clone.height) == (1, 500, 400)


class TestResample:
    def test_zero_model_identity(self):
        plane = (smooth_texture(11, 96) * 10).astype(np.uint16)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([0.0]),
                                      coeff_dy=np.array([0.0]), width=96, height=96)
        out, masked = coreg.resample(plane, model)
        np.testing.assert_array_equal(out, plane)
        assert masked == 0

    def test_shift_unshift_roundtrip(self):
        plane = (smooth_texture(12, 128) * 10).astype(np.uint16)
        pre_shifted = np.roll(plane, -3, axis=1)  # features moved -3 in x
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([-3.0]),
                                      coeff_dy=np.array([0.0]), width=128, height=128)
        out, _ = coreg.resample(pre_shifted, model)
        interior = (slice(8, 120), slice(8, 120))
        diff = np.abs(out[interior].astype(int) - plane[interior].astype(int))
        assert diff.max() <= 1

    @staticmethod
    def whole_plane_resample(plane, model):
        """The unblocked warp: one coordinate grid and one sampling call."""
        h, w = plane.shape
        yy, xx = np.mgrid[0:h, 0:w]
        xn = xx.astype(np.float64) / (w - 1)
        yn = yy.astype(np.float64) / (h - 1)
        terms = coreg._poly_terms(model.order, xn, yn)
        src_x = xx + terms @ model.coeff_dx
        src_y = yy + terms @ model.coeff_dy
        valid = (src_x >= 0) & (src_x <= w - 1) & (src_y >= 0) & (src_y <= h - 1)
        sampled = ndimage.map_coordinates(
            plane.astype(np.float64), [src_y.ravel(), src_x.ravel()], order=1,
            mode="constant", cval=0.0,
        ).reshape(h, w)
        sampled[~valid] = 0.0
        out = np.floor(sampled + 0.5).astype(plane.dtype)
        out[~valid] = 0
        return out, valid

    def test_blocked_matches_whole_plane(self):
        h, w = raster.block_lines(90) + 77, 90
        plane = (ndimage.gaussian_filter(np.random.default_rng(18).uniform(0, 4000, (h, w)),
                                         1.5)).astype(np.uint16)
        model = coreg.DistortionModel(order=2,
                                      coeff_dx=np.array([2.5, -6.0, 1.5, 4.0, -2.0, 1.0]),
                                      coeff_dy=np.array([-1.5, 3.0, -5.0, 1.0, 2.5, -1.5]),
                                      width=w, height=h)
        out, masked = coreg.resample(plane, model)
        ref_out, ref_valid = self.whole_plane_resample(plane, model)
        assert 0 < masked < ref_valid.size // 4
        assert masked == ref_valid.size - np.count_nonzero(ref_valid)
        np.testing.assert_array_equal(out, ref_out)

        xs = np.arange(w, dtype=np.float64)
        ys = np.arange(h, dtype=np.float64)
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        dx_sep, dy_sep = model.evaluate(xs[None, :], ys[:, None])
        dx_full, dy_full = model.evaluate(xx, yy)
        np.testing.assert_array_equal(dx_sep, dx_full)
        np.testing.assert_array_equal(dy_sep, dy_full)
        # Summation order differs from the matrix product; where the field
        # crosses zero only an absolute bound (here 1e-12 px) is meaningful.
        terms = coreg._poly_terms(2, xx / (w - 1), yy / (h - 1))
        np.testing.assert_allclose(dx_sep, terms @ model.coeff_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dy_sep, terms @ model.coeff_dy, rtol=1e-12, atol=1e-12)

    def test_out_of_bounds_masked_zero(self):
        plane = np.full((64, 64), 100, dtype=np.uint16)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([10.0]),
                                      coeff_dy=np.array([0.0]), width=64, height=64)
        out, masked = coreg.resample(plane, model)
        assert masked == 64 * 10
        assert (out[:, -10:] == 0).all()
        assert (out[:, :54] == 100).all()

    @staticmethod
    def scipy_resample(plane, model):
        """The warp sampled by scipy: order-1 ``map_coordinates``, rounded half up.

        The source coordinates are those ``resample`` evaluates, on one grid.
        """
        h, w = plane.shape
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        dx, dy = model.evaluate(xx, yy)
        src_x, src_y = xx + dx, yy + dy
        valid = (src_x >= 0) & (src_x <= w - 1) & (src_y >= 0) & (src_y <= h - 1)
        sampled = ndimage.map_coordinates(plane, [src_y, src_x], order=1, mode="constant",
                                          cval=0.0, output=np.float64)
        return np.where(valid, np.floor(sampled + 0.5), 0).astype(plane.dtype), valid

    def assert_matches_scipy(self, plane, model):
        """``resample`` against the oracle; returns the oracle's validity mask."""
        out, masked = coreg.resample(plane, model)
        ref_out, ref_valid = self.scipy_resample(plane, model)
        assert out.dtype == plane.dtype
        assert masked == ref_valid.size - np.count_nonzero(ref_valid)
        np.testing.assert_array_equal(out, ref_out)
        return ref_valid

    @staticmethod
    def random_model(rng, order, shape, scale, pull=0.0):
        """Random coefficients, plus for ``pull`` > 0 a contraction towards the centre.

        The contraction maps a column x to (1 - 2 pull) x + pull (w - 1), and
        a line likewise, so most samples of a small plane stay inside.
        """
        h, w = shape
        n = coreg.n_coefficients(order)
        # A single line or column is sampled only where the shift across it
        # is exactly 0.
        coeff_dx = rng.normal(0.0, scale, n) if w > 1 else np.zeros(n)
        coeff_dy = rng.normal(0.0, scale, n) if h > 1 else np.zeros(n)
        if order > 0:
            coeff_dx[:2] += pull * (w - 1) * np.array([1.0, -2.0])
            coeff_dy[[0, 2]] += pull * (h - 1) * np.array([1.0, -2.0])
        return coreg.DistortionModel(order=order, coeff_dx=coeff_dx, coeff_dy=coeff_dy,
                                     width=w, height=h)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 2), (37, 53)])
    def test_kernel_matches_map_coordinates(self, shape, dtype, order):
        rng = np.random.default_rng([order, *shape])
        plane = rng.integers(0, np.iinfo(dtype).max, shape, endpoint=True).astype(dtype)
        scale = 0.05 * min(shape) if min(shape) > 1 else 0.7
        valid = self.assert_matches_scipy(plane,
                                          self.random_model(rng, order, shape, scale, 0.2))
        assert valid.any()

    @pytest.mark.parametrize("dy", [0.1, -0.3, 0.5, 0.7])
    @pytest.mark.parametrize("dx", [-0.1, 0.3, 0.7, 0.9])
    def test_halfway_samples_round_like_map_coordinates(self, dx, dy):
        # Small integers and shifts in tenths put many exact bilinear values on
        # k + 1/2, where one unit in the last place decides the rounding, so
        # the weights, the products and their sum must all be scipy's.
        plane = np.random.default_rng(37).integers(0, 41, (48, 48)).astype(np.uint8)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([dx]),
                                      coeff_dy=np.array([dy]), width=48, height=48)
        self.assert_matches_scipy(plane, model)
        yy, xx = np.mgrid[0:48, 0:48].astype(np.float64)
        sampled = ndimage.map_coordinates(plane, [yy + dy, xx + dx], order=1,
                                          output=np.float64)
        # The exact values are multiples of 1/100.
        assert (np.round(sampled * 100) % 100 == 50).sum() > 20

    @pytest.mark.parametrize("shift", [(0, 0), (1, 0), (0, 1), (-1, -1), (2, -3), (-3, 2)])
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (9, 11)])
    def test_integer_shifts_sample_last_line_and_column(self, shape, shift):
        h, w = shape
        dx, dy = (shift[0] if w > 1 else 0), (shift[1] if h > 1 else 0)
        plane = np.random.default_rng(31).integers(0, 65536, shape).astype(np.uint16)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([float(dx)]),
                                      coeff_dy=np.array([float(dy)]), width=w, height=h)
        valid = self.assert_matches_scipy(plane, model)
        # Every kept pixel is a sample of the plane, the last line and column
        # included.
        ys, xs = np.nonzero(valid)
        np.testing.assert_array_equal(coreg.resample(plane, model)[0][ys, xs],
                                      plane[ys + dy, xs + dx])
        assert valid.sum() == max(h - abs(dy), 0) * max(w - abs(dx), 0)

    @pytest.mark.parametrize("order", [0, 2])
    def test_every_pixel_pushed_out(self, order):
        plane = np.full((20, 30), 900, dtype=np.uint16)
        n = coreg.n_coefficients(order)
        model = coreg.DistortionModel(order=order, coeff_dx=np.full(n, 40.0),
                                      coeff_dy=np.full(n, -25.0), width=30, height=20)
        out, masked = coreg.resample(plane, model)
        assert masked == plane.size
        assert not out.any()
        self.assert_matches_scipy(plane, model)

    @pytest.mark.parametrize("block_pixels", [1, 53, 3 * 53 + 5, 7 * 53])
    @pytest.mark.parametrize("order", [1, 3])
    def test_small_blocks_match_map_coordinates(self, monkeypatch, block_pixels, order):
        # Blocks of 1, 1, 3 and 7 lines put many block edges inside the plane.
        monkeypatch.setattr(raster, "BLOCK_PIXELS", block_pixels)
        rng = np.random.default_rng(order)
        plane = rng.integers(0, 65536, (37, 53)).astype(np.uint16)
        valid = self.assert_matches_scipy(plane, self.random_model(rng, order, (37, 53), 4.0))
        assert 0 < valid.sum() < valid.size

    def test_integer_line_shift_across_blocks(self, monkeypatch):
        # In blocks of 4 lines, the last line of a block reads line y + 3 and,
        # with weight 0, its far neighbour y + 4: the block's window ends
        # past it only by the slack of ``_line_reach``.
        monkeypatch.setattr(raster, "BLOCK_PIXELS", 4 * 11)
        plane = np.random.default_rng(41).integers(0, 65536, (20, 11)).astype(np.uint16)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([0.0]),
                                      coeff_dy=np.array([3.0]), width=11, height=20)
        self.assert_matches_scipy(plane, model)

    def test_working_memory_bounded(self):
        n = 1024
        plane = (smooth_texture(19, n) * 300).astype(np.uint16)
        model = coreg.DistortionModel(order=2,
                                      coeff_dx=np.array([1.4, -4.2, 2.1, 1.4, -1.4, 0.7]),
                                      coeff_dy=np.array([-1.0, 2.1, -3.9, 0.7, 1.4, -1.0]),
                                      width=n, height=n)
        tracemalloc.start()
        try:
            out, _ = coreg.resample(plane, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the output, 0.37 of a float64 plane: about five 64-line
        # block arrays of float64, the four gathered corners and the uint16
        # blocks held until no later block reads their lines.  256-line
        # blocks with scipy's sampling measured 2.3.
        assert peak - out.nbytes < 0.375 * n * n * 8


class TestResampleInPlace:
    @staticmethod
    def field(data, n, extent, whole):
        """``n`` coefficients up to ``extent`` px, at times with c0 a shift of ``whole`` px."""
        coeffs = data.draw(st.lists(st.floats(-extent, extent), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            coeffs[0] = data.draw(st.sampled_from([-whole, whole]))
        return np.array(coeffs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("block_pixels", [1, 53, 371])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_in_place_equals_pure(self, order, block_pixels, data):
        h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        plane = rng.integers(0, np.iinfo(dtype).max, (h, w), endpoint=True).astype(dtype)
        n = coreg.n_coefficients(order)
        # The model's own size may differ from the plane's.
        model = coreg.DistortionModel(
            order=order, coeff_dx=self.field(data, n, 1.5 * w, w),
            coeff_dy=self.field(data, n, 1.5 * h, h),
            width=data.draw(st.sampled_from([w, data.draw(st.integers(1, 80))])),
            height=data.draw(st.sampled_from([h, data.draw(st.integers(1, 80))])))
        with pytest.MonkeyPatch.context() as patch:
            # One line at a time up to seven lines of 53 columns.
            patch.setattr(raster, "BLOCK_PIXELS", block_pixels)
            source = plane.copy()
            want, want_masked = coreg.resample(plane, model)
            np.testing.assert_array_equal(plane, source)
            warped, masked = coreg.resample(plane, model, out=plane)
        assert warped is plane
        assert warped.dtype == want.dtype
        np.testing.assert_array_equal(warped, want)
        assert masked == want_masked

    def test_overlapping_out_rejected(self):
        big = np.random.default_rng(43).integers(0, 256, (20, 12)).astype(np.uint8)
        plane = big[:10, :10]
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([0.5]),
                                      coeff_dy=np.array([-0.5]), width=10, height=10)
        for out in (big[1:11, :10], big[:10, 2:12], plane.T, big[::2, :10]):
            with pytest.raises(ValueError):
                coreg.resample(plane, model, out=out)
        for out in (np.empty((10, 10), np.uint16), np.empty((10, 11), np.uint8)):
            with pytest.raises(ValueError):
                coreg.resample(plane, model, out=out)
        np.testing.assert_array_equal(big, np.random.default_rng(43).integers(
            0, 256, (20, 12)).astype(np.uint8))

    def test_in_place_holds_mask_and_a_few_blocks(self):
        n = 1024
        plane = (smooth_texture(19, n) * 300).astype(np.uint16)
        # dy reaches 5.9 lines up, so each 64-line block is held until the
        # next one is warped.
        model = coreg.DistortionModel(order=2,
                                      coeff_dx=np.array([1.4, -4.2, 2.1, 1.4, -1.4, 0.7]),
                                      coeff_dy=np.array([-1.0, 2.1, -3.9, 0.7, 1.4, -1.0]),
                                      width=n, height=n)
        want, _ = coreg.resample(plane, model)
        tracemalloc.start()
        try:
            warped, _ = coreg.resample(plane, model, out=plane)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(warped, want)
        # 0.37 of a float64 plane: the block arrays of the warp and two
        # held uint16 blocks.  A second uint16 plane would add 0.25.
        assert peak < 0.4 * n * n * 8


class TestCoregResidual:
    def test_plane_vs_itself(self):
        plane = (smooth_texture(13, 300) * 10).astype(np.uint16)
        mean_px, rms_px = coreg.coreg_residual(plane, plane, n_points=16)
        assert mean_px == 0.0
        assert rms_px == 0.0

    def test_uncorrected_shift_measured(self):
        plane = (smooth_texture(14, 400) * 10).astype(np.uint16)
        shifted = np.roll(plane, 4, axis=1)
        mean_px, rms_px = coreg.coreg_residual(plane, shifted, n_points=16)
        assert mean_px == pytest.approx(4.0, abs=0.5)

    def test_small_plane_equals_pipeline_path(self):
        # On a 90-pixel plane residual_grid shrinks the tiles below 32
        # pixels; the check still runs the grid as the pipeline does.
        plane = (smooth_texture(16, 90) * 10).astype(np.uint16)
        shifted = np.roll(plane, 1, axis=1)
        grid = coreg.residual_grid(plane.shape, 10)
        assert grid.tile_size == 29
        [matches] = coreg.match_bands(plane, grid, [shifted])
        assert matches
        assert coreg.coreg_residual(plane, shifted, n_points=10) == \
            coreg.residual_stats(matches)

    def test_too_few_points(self):
        plane = (smooth_texture(15, 128) * 10).astype(np.uint16)
        with pytest.raises(errors.OutOfBounds):
            coreg.coreg_residual(plane, plane, n_points=5)
