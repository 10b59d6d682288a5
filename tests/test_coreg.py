import collections
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from pushproc import coreg, errors, raster
from pushproc.raster import BandId
from pushproc.georef.attitude import AttitudeSample, Quaternion
from pushproc.georef.camera import ImagerModel
from pushproc.georef.metadata import AcqMetadata
from pushproc.georef.orbits import CircularOrbit


def smooth_texture(seed, size=128, sigma=1.5):
    rng = np.random.default_rng(seed)
    return ndimage.gaussian_filter(rng.uniform(0, 200, (size, size)), sigma)


def whole_plane_nms(plane, sigma=1.4):
    """Gradient magnitude and its suppression, unblocked, with arctan2 sectors."""
    img = ndimage.gaussian_filter(np.asarray(plane, dtype=np.float64), sigma)
    gx = ndimage.sobel(img, axis=1)
    gy = ndimage.sobel(img, axis=0)
    mag = np.hypot(gx, gy)
    angle = np.rad2deg(np.arctan2(gy, gx)) % 180.0
    nms = np.zeros_like(mag)
    padded = np.pad(mag, 1, mode="constant")

    def shifted(dy, dx):
        return padded[1 + dy : 1 + dy + mag.shape[0], 1 + dx : 1 + dx + mag.shape[1]]

    sectors = [
        ((angle < 22.5) | (angle >= 157.5), (0, 1), (0, -1)),
        ((angle >= 22.5) & (angle < 67.5), (1, 1), (-1, -1)),
        ((angle >= 67.5) & (angle < 112.5), (1, 0), (-1, 0)),
        ((angle >= 112.5) & (angle < 157.5), (1, -1), (-1, 1)),
    ]
    for mask, (dy1, dx1), (dy2, dx2) in sectors:
        keep = mask & (mag >= shifted(dy1, dx1)) & (mag >= shifted(dy2, dx2))
        nms[keep] = mag[keep]
    return mag, nms


def whole(plane):
    h, w = np.shape(plane)
    return slice(0, h), slice(0, w)


def canny(plane, sigma=1.4, t_low=0.1, t_high=0.3):
    """Canny edges of a whole plane: the map ``match_bands`` builds for a one-block grid."""
    return coreg._hysteresis(coreg._suppress(plane, whole(plane), sigma), t_low, t_high)


def patch_suppress_lines(monkeypatch, lines, width, sigma):
    """Make ``_suppress`` walk a window ``width`` wide in blocks of ``lines`` lines.

    Its blocks are ``block_lines`` of the window plus a halo of the Gaussian
    radius, one pixel for Sobel and one for the neighbours on each side.
    """
    halo = int(4.0 * sigma + 0.5) + 2
    monkeypatch.setattr(raster, "BLOCK_PIXELS", lines * (width + 2 * halo))


def directional_plane(kind, size=96):
    """A plane that is a function of one of x, y, x + y or x - y alone.

    Away from the border its gradients lie exactly on an axis or a diagonal.
    """
    y, x = np.mgrid[0:size, 0:size]
    u = {"columns": x, "lines": y, "diagonal": x + y, "antidiagonal": x - y}[kind]
    return (1000 + 700 * np.sin(u / 5.0) + 300 * np.sin(u / 1.7)).astype(np.uint16)


class TestSuppression:
    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("kind", ["texture", "noise", "columns", "lines", "diagonal",
                                      "antidiagonal"])
    def test_sector_comparisons_match_arctan2(self, kind, sigma):
        if kind == "texture":
            plane = (smooth_texture(21, 150) * 20).astype(np.uint16)
        elif kind == "noise":
            plane = np.random.default_rng(22).uniform(0, 65535, (150, 140)).astype(np.uint16)
        else:
            plane = directional_plane(kind)
            img = ndimage.gaussian_filter(plane.astype(np.float64), sigma)
            gx, gy = ndimage.sobel(img, axis=1), ndimage.sobel(img, axis=0)
            exact = {"columns": gy == 0, "lines": gx == 0, "diagonal": gx == gy,
                     "antidiagonal": gx == -gy}[kind]
            assert (exact & (np.hypot(gx, gy) > 0)).mean() > 0.5
        _, expected = whole_plane_nms(plane, sigma)
        np.testing.assert_array_equal(coreg._suppress(plane, whole(plane), sigma), expected)

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("window", [(40, 95, 37, 120), (60, 61, 70, 71), (0, 30, 0, 25),
                                        (125, 150, 101, 140), (0, 150, 60, 90),
                                        (70, 100, 0, 140)])
    def test_window_equals_crop_of_whole_plane(self, monkeypatch, window, sigma):
        plane = np.random.default_rng(23).uniform(0, 65535, (150, 140)).astype(np.uint16)
        r0, r1, c0, c1 = window
        # Blocks of 16 lines put block edges inside the windows too.
        patch_suppress_lines(monkeypatch, 16, c1 - c0, sigma)
        _, expected = whole_plane_nms(plane, sigma)
        np.testing.assert_array_equal(
            coreg._suppress(plane, (slice(r0, r1), slice(c0, c1)), sigma),
            expected[r0:r1, c0:c1])

    def test_working_memory_of_a_whole_plane(self):
        # A dense grid's block is the whole plane: the float64 suppressed
        # plane and the five flat buffers of a block, in which the Gaussian
        # works too, peak at 2.54 float64 planes (5.08 MiB).  Three buffers
        # of the Gaussian's own raised it to 6.44 MiB.
        plane = np.random.default_rng(25).integers(0, 65535, (512, 512),
                                                   endpoint=True).astype(np.uint16)
        tracemalloc.start()
        try:
            coreg._suppress(plane, whole(plane))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.1 * 2**20


class TestKernelsEqualScipy:
    """The NumPy Gaussian and hysteresis give the bits of ``scipy.ndimage``.

    Sobel is checked through ``TestSuppression``, against ``whole_plane_nms``.
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
        expected = ndimage.gaussian_filter(plane, sigma, output=np.float64)
        # Blocks of a few lines put block edges inside the plane.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "BLOCK_PIXELS", data.draw(st.sampled_from([1, 97, 1 << 16])))
            got = coreg._gaussian(plane, sigma)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @staticmethod
    def label_hysteresis(nms, t_low=0.1, t_high=0.3):
        """Hysteresis through ``ndimage.label`` over 8-connected weak pixels."""
        peak = float(nms.max())
        if peak == 0.0:
            return np.zeros(nms.shape, dtype=np.uint8)
        labels, n = ndimage.label(nms >= t_low * peak, structure=np.ones((3, 3), dtype=int))
        strong = np.zeros(n + 1, dtype=np.uint8)
        strong[labels[nms >= t_high * peak]] = 1
        return strong[labels]

    def assert_hysteresis(self, nms, *thresholds):
        got = coreg._hysteresis(nms, *thresholds)
        assert got.dtype == np.uint8 and got.shape == nms.shape
        np.testing.assert_array_equal(got, self.label_hysteresis(nms, *thresholds))
        return got

    def test_hysteresis_empty_and_full(self):
        assert not self.assert_hysteresis(np.zeros((7, 9))).any()
        assert self.assert_hysteresis(np.full((7, 9), 3.0)).all()
        # One strong pixel holds a plane of weak ones.
        weak = np.full((7, 9), 0.2)
        weak[6, 8] = 1.0
        assert self.assert_hysteresis(weak).all()

    def test_hysteresis_diagonal_chains(self):
        n = 12
        nms = np.zeros((n, n))
        idx = np.arange(n)
        nms[idx, idx] = 0.2                 # touches only at corners
        nms[0, 0] = 1.0
        nms[idx[:-2], n - 1 - idx[:-2]] = 0.2     # anti-diagonal, no strong pixel
        nms[5, 0] = nms[4, n - 1] = 0.2     # end of one line, start of the next
        got = self.assert_hysteresis(nms)
        assert got[idx, idx].all()
        assert got[5, 0] == 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_hysteresis_random(self, data):
        lines, width = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        density = data.draw(st.sampled_from([0.05, 0.3, 0.6, 0.9]))
        values = rng.uniform(0, 1, (lines, width + 2)) * (rng.random((lines, width + 2)) < density)
        # A window of a wider map is not contiguous, as blocks cut from a
        # suppressed rectangle are not.
        nms = values[:, 1:-1] if data.draw(st.booleans()) else values[:, :width].copy()
        t_low = data.draw(st.sampled_from([0.05, 0.1, 0.3]))
        self.assert_hysteresis(nms, t_low, t_low + data.draw(st.sampled_from([0.05, 0.2, 0.5])))


class TestCanny:
    def test_constant_plane_no_edges(self):
        edges = canny(np.full((32, 48), 60.0), 1.0, 0.1, 0.3)
        assert edges.shape == (32, 48)
        assert edges.sum() == 0

    def test_vertical_step_edge(self):
        plane = np.zeros((64, 64))
        plane[:, 32:] = 200.0
        edges = canny(plane, 1.0, 0.1, 0.3)
        ys, xs = np.nonzero(edges)
        assert len(ys) >= 60  # a near-full-height line
        assert np.all(np.abs(xs - 31.5) <= 1.5)  # within ~1 px of the step
        # single connected component
        labels, count = ndimage.label(edges, structure=np.ones((3, 3), dtype=int))
        assert count == 1

    def test_rich_texture_produces_edges(self):
        edges = canny(smooth_texture(3), 1.4, 0.1, 0.3)
        assert 0.01 < edges.mean() < 0.5

    @staticmethod
    def whole_plane_canny(plane, sigma=1.4, t_low=0.1, t_high=0.3):
        """The unblocked Canny: every intermediate spans the whole plane."""
        mag, nms = whole_plane_nms(plane, sigma)
        peak = mag.max()
        if peak == 0.0:
            return np.zeros(plane.shape, dtype=np.uint8)
        labels, _ = ndimage.label(nms >= t_low * peak, structure=np.ones((3, 3), dtype=int))
        strong_labels = np.unique(labels[nms >= t_high * peak])
        strong_labels = strong_labels[strong_labels > 0]
        return np.isin(labels, strong_labels).astype(np.uint8)

    # Lines per suppression block in test_blocked_matches_whole_plane.
    BLOCK = 256

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("lines", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 77, 5])
    def test_blocked_matches_whole_plane(self, monkeypatch, lines, sigma):
        patch_suppress_lines(monkeypatch, self.BLOCK, 67, sigma)
        rng = np.random.default_rng(lines)
        plane = ndimage.gaussian_filter(rng.uniform(0, 4000, (lines, 67)), 1.5)
        plane[:, 30:] += 500.0  # one edge that runs through every block boundary
        plane = plane.astype(np.uint16)
        edges = canny(plane, sigma)
        assert edges.dtype == np.uint8 and edges.any()
        np.testing.assert_array_equal(edges, self.whole_plane_canny(plane, sigma))
        flat = np.full((lines, 67), 900, dtype=np.uint16)
        np.testing.assert_array_equal(canny(flat, sigma),
                                      self.whole_plane_canny(flat, sigma))

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("block_lines", [1, 3])
    def test_tiny_blocks_match_whole_plane(self, monkeypatch, block_lines, sigma):
        # A halo one line short changes the last bits of the rows next to a
        # block edge; white noise and many block edges turn that into
        # different edges.
        patch_suppress_lines(monkeypatch, block_lines, 200, sigma)
        plane = np.random.default_rng(7).uniform(0, 65535, (300, 200)).astype(np.uint16)
        np.testing.assert_array_equal(canny(plane, sigma),
                                      self.whole_plane_canny(plane, sigma))

    def test_edge_map_blurs_whole_plane_canny(self):
        # 589 lines make six suppression blocks of block_lines(589 + 16) = 108.
        plane = (smooth_texture(4, 589) * 20).astype(np.uint16)
        expected = ndimage.gaussian_filter(
            self.whole_plane_canny(plane).astype(np.float64), 1.0)
        np.testing.assert_array_equal(coreg._soften(canny(plane)), expected)

    def test_working_memory_bounded(self):
        plane = (smooth_texture(5, 1024) * 300).astype(np.uint16)
        tracemalloc.start()
        try:
            canny(plane)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The whole-plane version peaked near nine float64 planes.
        assert peak <= 5 * plane.size * 8


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


def per_band_matches(ref_plane, tgt_plane, grid, min_score):
    """One band's matches, tile by tile through ``fft_xcorr``, and why tiles dropped.

    The per-band path ``match_bands`` replaced: both planes get all their
    block maps, each blurred whole, first, and every tile pair is
    transformed afresh.
    """
    ref_maps, tgt_maps = ([coreg._soften(coreg._hysteresis(coreg._suppress(plane, block)))
                           for block in grid.blocks] for plane in (ref_plane, tgt_plane))
    half = grid.tile_size // 2
    matches, dropped = [], collections.Counter()
    for tile_id, cx, cy, k in grid.tiles:
        rows, cols = grid.blocks[k]
        y0, x0 = cy - half - rows.start, cx - half - cols.start
        window = (slice(y0, y0 + grid.tile_size), slice(x0, x0 + grid.tile_size))
        try:
            dx, dy, score = coreg.fft_xcorr(ref_maps[k][window], tgt_maps[k][window])
        except errors.FlatTile:
            dropped["flat reference" if np.ptp(ref_maps[k][window]) == 0 else "flat target"] += 1
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


# A dense 512-pixel grid is one whole-plane block; a sparse one has a block per tile.
LAYOUTS = {"dense": ((512, 512), 128, 8, 8, 0), "sparse": ((600, 600), 64, 4, 4, 8)}


class TestMatchBands:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_equals_per_band_matching(self, layout):
        grid = coreg.TileGrid(*LAYOUTS[layout])
        assert len(grid.blocks) == (1 if layout == "dense" else len(grid.tiles))
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
        grid = coreg.residual_grid(ref.shape, 16, 96)
        for tgt in (shifted, mixed):
            want, _ = per_band_matches(ref, tgt, grid, 0.1)
            mags = np.hypot([m.dx for m in want], [m.dy for m in want])
            assert coreg.coreg_residual(ref, tgt, n_points=16, tile_size=96) == (
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
    def softened(monkeypatch, ref_plane, grid, tgt_planes):
        """The matches of ``match_bands`` and every (map, lines, blur) it softened, in order."""
        calls, soften = [], coreg._soften

        def spy(edges, rows, out):
            calls.append((edges, rows, soften(edges, rows, out).copy()))
            return out

        monkeypatch.setattr(coreg, "_soften", spy)
        matches = coreg.match_bands(ref_plane, grid, tgt_planes)
        monkeypatch.setattr(coreg, "_soften", soften)
        return matches, calls

    def test_whole_plane_block_equals_edge_map(self, monkeypatch):
        plane = (smooth_texture(24, 300) * 20).astype(np.uint16)
        grid = coreg.TileGrid(plane.shape, 64, 8, 8)
        assert len(grid.blocks) == 1
        [matches], calls = self.softened(monkeypatch, plane, grid, [plane])
        assert len(matches) == 64 and all((m.dx, m.dy) == (0.0, 0.0) for m in matches)
        # The block is taller than a tile and a blur block of lines
        # (block_lines(300 + 8) = 212), so both maps, the reference's
        # first, are blurred a line of tiles at a time, down to its last line.
        edges = canny(plane)
        blurred = coreg._soften(edges)
        bottoms = sorted({cy - 32 + 64 for _, _, cy, _ in grid.tiles})
        spans = list(zip([0, *bottoms[:-1]], bottoms))
        assert [(r.start, r.stop) for _, r, _ in calls] == [span for span in spans for _ in "rt"]
        ref_maps = {id(m) for m, _, _ in calls[::2]}
        assert len(ref_maps) == 1 and ref_maps.isdisjoint(id(m) for m, _, _ in calls[1::2])
        for m, rows, lines in calls:
            assert m.dtype == np.uint8
            np.testing.assert_array_equal(m, edges)
            np.testing.assert_array_equal(lines, blurred[rows])

    def test_block_maps_depend_only_on_their_block(self, monkeypatch):
        # Pixels farther than the halo from every block do not move any map.
        plane = (smooth_texture(26, 700) * 20).astype(np.uint16)
        grid = coreg.TileGrid(plane.shape, 64, 4, 4)
        far = block_mask(plane.shape, [(slice(max(r.start - 8, 0), r.stop + 8),
                                        slice(max(c.start - 8, 0), c.stop + 8))
                                       for r, c in grid.blocks]) == 0
        assert far.any()
        changed = plane.copy()
        changed[far] = 0
        a, a_calls = self.softened(monkeypatch, plane, grid, [changed])
        b, b_calls = self.softened(monkeypatch, changed, grid, [plane])
        # A sparse block holds one tile, so each map is blurred in one call.
        assert a == b and len(a_calls) == len(b_calls) == 2 * len(grid.blocks)
        for (x, _, _), (y, _, _) in zip(a_calls, b_calls):
            np.testing.assert_array_equal(x, y)


# Grids whose blocks span several lines of tiles: tiles that overlap, tile
# lines that only touch once widened by the blur radius (so the 6 lines
# between them lie in no tile), and blocks merged along the columns alone.
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
        whole_filter = ndimage.gaussian_filter(plane, sigma, output=np.float64)
        monkeypatch.setattr(raster, "BLOCK_PIXELS", pixels)
        r = int(4.0 * sigma + 0.5)
        for cols in [(0, 37), (0, 3), (0, 12), (30, 37), (35, 37), (10, 13), (17, 18), (5, 31)]:
            window = (slice(*rows), slice(*cols))
            expected = whole_filter[window]
            got = coreg._gaussian(plane, sigma, window)
            assert got.shape == expected.shape and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            # Into a view of a larger array, with buffers of its own or
            # given ones, big enough for the whole window, that hold NaN.
            lines, width = expected.shape
            stride = width + 2 * r
            work = (np.full((lines + 2 * r) * stride, np.nan), np.full(lines * stride, np.nan),
                    np.full(lines * stride, np.nan))
            for buffers in (None, work):
                out = np.full((lines + 3, width + 2), np.nan)
                got = coreg._gaussian(plane, sigma, window, out=out[2:-1, 1:-1], work=buffers)
                assert got.base is out
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
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
            # Blur blocks of one line, and of 40 lines of the widest block.
            monkeypatch.setattr(raster, "BLOCK_PIXELS", pixels)
        size = grid.tile_size
        blurred, soften = {}, coreg._soften

        # Each map is kept with the lines blurred from it, so no id is reused.
        def spy(edges, rows, out):
            # What is held of a map: a tile's lines.
            assert out.base.shape[1] == size
            blurred.setdefault(id(edges), (edges, []))[1].append((rows.start, rows.stop))
            return soften(edges, rows, out)

        monkeypatch.setattr(coreg, "_soften", spy)
        assert coreg.match_bands(ref, grid, targets, min_score=0.15) == want
        # Each map's lines are blurred down the block, none twice, to the
        # last line of each line of tiles.
        assert len(blurred) == 4 * len(grid.blocks)
        bottoms = {cy - size // 2 + size - grid.blocks[k][0].start for _, _, cy, k in grid.tiles}
        for edges, spans in blurred.values():
            assert all(a < b <= c for (a, b), (c, _) in zip(spans, spans[1:]))
            assert {b for _, b in spans} <= bottoms

    def test_dense_stage_memory_bound(self):
        from pushproc.pipeline import PipelineConfig, QualityReport, _coreg_grids, _stage_coreg

        # The default 8x8 grid of 128-pixel tiles is one block on a
        # 1024-pixel plane; the residual grid's blocks are seven strips of
        # the plane's height.
        scene = stage_scene(36, 1024)
        config = PipelineConfig(raw_path="unused", out_dir="unused")
        grids = _coreg_grids((scene.lines, scene.width), config)
        assert [len(grid.blocks) for grid in grids] == [1, 7]
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, grids, config, QualityReport())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.33 float64 planes, in the hysteresis of the block's last map:
        # the map's float64 magnitude, which the thresholds need whole, the
        # byte maps built before it and the hysteresis's run arrays.
        # Holding the blurred maps of all four planes for the whole block
        # measured 4.96.
        assert peak <= 3.0 * scene.width * scene.lines * 8


def raw_tiles(planes, block, size):
    """A reader as ``_canny_tiles`` returns, of the planes' own samples as float64."""
    rows, cols = block

    def read(y0, x0):
        return np.stack([np.asarray(plane[rows, cols], dtype=np.float64)[y0 : y0 + size,
                                                                          x0 : x0 + size]
                         for plane in planes])

    return read


class TestCannyTiles:
    """The seam between the tile feature and the tile loop of ``match_bands``."""

    @pytest.mark.parametrize("layout", [*LAYOUTS.values(), *MERGED.values()],
                             ids=[*LAYOUTS, *MERGED])
    def test_windows_are_crops_of_the_blurred_block_maps(self, layout):
        grid = coreg.TileGrid(*layout)
        h, w = grid.shape
        planes = [(smooth_texture(42, max(h, w)) * 20).astype(np.uint16)[:h, :w],
                  np.random.default_rng(43).integers(0, 256, (h, w)).astype(np.uint8)]
        size, half = grid.tile_size, grid.tile_size // 2
        for k, block in enumerate(grid.blocks):
            maps = [coreg._soften(coreg._hysteresis(coreg._suppress(plane, block)))
                    for plane in planes]
            corners = [(cy - half - block[0].start, cx - half - block[1].start)
                       for _, cx, cy, owner in grid.tiles if owner == k]
            # In tile order, and with tiles skipped: every third tile, and
            # the last alone.
            for read_at in (corners, corners[::3], corners[-1:]):
                read = coreg._canny_tiles(planes, block, size)
                for y0, x0 in read_at:
                    got = read(y0, x0)
                    assert got.shape == (len(planes), size, size) and got.dtype == np.float64
                    for window, blurred in zip(got, maps):
                        np.testing.assert_array_equal(
                            window.view(np.int64),
                            blurred[y0 : y0 + size, x0 : x0 + size].view(np.int64))

    @pytest.mark.parametrize("layout", ["sparse", "overlapping"])
    def test_match_bands_knows_no_edges(self, monkeypatch, layout):
        # With the samples themselves as the feature, every match is the
        # per-tile ``fft_xcorr`` of the raw tiles.
        grid = coreg.TileGrid(*{**LAYOUTS, **MERGED}[layout])
        ref, targets = matching_planes(grid.shape[0], grid)
        monkeypatch.setattr(coreg, "_canny_tiles", raw_tiles)
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


def block_mask(shape, blocks):
    count = np.zeros(shape, dtype=int)
    for rows, cols in blocks:
        count[rows, cols] += 1
    return count


class TestTileGrid:
    def test_sparse_grid_one_block_per_tile(self):
        grid = coreg.TileGrid((2000, 2000), 128, 8, 8)
        assert len(grid.blocks) == 64
        assert block_mask((2000, 2000), grid.blocks).max() == 1
        r = coreg.BLUR_RADIUS
        for tile_id, cx, cy, k in grid.tiles:
            rows, cols = grid.blocks[k]
            x0, y0 = cx - 64, cy - 64
            assert rows.start == max(y0 - r, 0) and rows.stop == min(y0 + 128 + r, 2000)
            assert cols.start == max(x0 - r, 0) and cols.stop == min(x0 + 128 + r, 2000)
        assert [t[0] for t in grid.tiles] == list(range(64))

    def test_dense_grid_is_one_whole_plane_block(self):
        grid = coreg.TileGrid((512, 512), 128, 8, 8)
        assert grid.blocks == [whole(np.zeros((512, 512)))]
        assert {t[3] for t in grid.tiles} == {0}

    def test_overlapping_tiles_share_a_block(self):
        # Columns overlap, lines do not: one block per line of tiles.
        grid = coreg.TileGrid((600, 300), 64, 5, 3)
        assert len(grid.blocks) == 3
        assert all(cols == slice(0, 300) for _, cols in grid.blocks)
        for tile_id, cx, cy, k in grid.tiles:
            assert k == tile_id // 5

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


# Sparse on a 512-pixel plane: four by four 64-pixel tiles, and a residual
# grid of three by four 128-pixel tiles whose columns miss the match tiles'
# (its lines overlap, so its blocks are full-height strips).  On a 1024-pixel
# plane both grids are sparse in both directions.
SPARSE = {"tile_size": 64, "grid_nx": 4, "grid_ny": 4, "residual_points": 10}


class TestCoregStageEdges:
    def test_identical_bands_residual_exactly_zero(self, tmp_path):
        from pushproc.pipeline import PipelineConfig, run_pipeline
        from pushproc.raster import save_raw

        save_raw(stage_scene(31, 512, identical_bands=True), tmp_path / "scene.l3raw")
        report = run_pipeline(PipelineConfig(raw_path=str(tmp_path / "scene.l3raw"),
                                             out_dir=str(tmp_path / "out"), vignetting=False,
                                             georef=False, **SPARSE))
        for band in ("blue", "green", "nir"):
            metrics = report.stages["coreg"]["bands"][band]
            assert metrics["residual_mean_px"] == 0.0
            assert metrics["residual_rms_px"] == 0.0
            assert metrics["masked_pixels"] == 0

    def test_each_plane_suppressed_once_per_grid(self, monkeypatch):
        from pushproc.pipeline import PipelineConfig, QualityReport, _coreg_grids, _stage_coreg

        scene = stage_scene(32, 1024)
        shape = scene.planes[0].shape
        count = np.zeros(scene.planes.shape, dtype=int)
        original = coreg._suppress

        def spy(plane, window, *args, **kwargs):
            [band] = [b for b in range(len(count)) if np.shares_memory(plane, scene.planes[b])]
            count[band][window] += 1
            return original(plane, window, *args, **kwargs)

        monkeypatch.setattr(coreg, "_suppress", spy)
        config = PipelineConfig(raw_path="unused", out_dir="unused", **SPARSE)
        _stage_coreg(scene, None, _coreg_grids(shape, config), config, QualityReport())
        # Every plane, the reference included, is suppressed over each grid's
        # blocks once per grid, and nowhere else.
        grids = [coreg.TileGrid(shape, 64, 4, 4), coreg.residual_grid(shape, 10)]
        expected = block_mask(shape, grids[0].blocks) + block_mask(shape, grids[1].blocks)
        assert expected.max() == 2
        for band_count in count:
            np.testing.assert_array_equal(band_count, expected)

    def test_reference_tiles_prepared_once_per_grid(self, monkeypatch):
        from pushproc.pipeline import PipelineConfig, QualityReport, _coreg_grids, _stage_coreg

        scene = stage_scene(34, 512)
        ref = scene.planes[int(BandId.RED)]
        on_ref, maps, softened, prepared = [], [], [], collections.Counter()
        suppress, hysteresis = coreg._suppress, coreg._hysteresis
        soften, prepare_tile = coreg._soften, coreg._prepare_tile

        def suppress_spy(plane, window, *args, **kwargs):
            on_ref.append(np.shares_memory(plane, ref))
            return suppress(plane, window, *args, **kwargs)

        # The n-th map is that of the n-th suppression.  A reference tile
        # is cut from the blurred lines of a reference map.
        def hysteresis_spy(nms, *args):
            maps.append((on_ref[len(maps)], hysteresis(nms, *args)))
            return maps[-1][1]

        def soften_spy(edges, rows, out):
            [(k, from_ref)] = [(k, from_ref) for k, (from_ref, m) in enumerate(maps) if m is edges]
            softened.append((k, from_ref, soften(edges, rows, out)))
            return out

        def prepare_spy(tile):
            is_ref = any(np.shares_memory(tile, m) for _, from_ref, m in softened if from_ref)
            prepared["reference" if is_ref else "target"] += 1
            return prepare_tile(tile)

        monkeypatch.setattr(coreg, "_suppress", suppress_spy)
        monkeypatch.setattr(coreg, "_hysteresis", hysteresis_spy)
        monkeypatch.setattr(coreg, "_soften", soften_spy)
        monkeypatch.setattr(coreg, "_prepare_tile", prepare_spy)
        config = PipelineConfig(raw_path="unused", out_dir="unused", **SPARSE)
        _stage_coreg(scene, None, _coreg_grids(ref.shape, config), config, QualityReport())
        # Each plane was suppressed once per block of each grid, and every
        # map was blurred; no reference tile is flat.
        grids = [coreg.TileGrid(ref.shape, 64, 4, 4), coreg.residual_grid(ref.shape, 10)]
        tiles = sum(len(grid.tiles) for grid in grids)
        blocks = sum(len(grid.blocks) for grid in grids)
        assert len(maps) == len(on_ref) == 4 * blocks and sum(on_ref) == blocks
        assert {k for k, _, _ in softened} == set(range(len(maps)))
        assert prepared == {"reference": tiles, "target": 3 * tiles}

    def test_match_grid_maps_released_before_resampling(self, monkeypatch):
        from pushproc.pipeline import PipelineConfig, QualityReport, _coreg_grids, _stage_coreg

        # Six by six 128-pixel tiles and a residual grid of four by four are
        # both sparse on a 1024-pixel plane.
        scene = stage_scene(35, 1024)
        shape = scene.planes[0].shape
        match_grid = coreg.TileGrid(shape, 128, 6, 6)
        assert len(match_grid.blocks) == 36 and len(coreg.residual_grid(shape, 16).blocks) == 16
        # One byte a pixel: the reference's hysteresis maps of the match grid.
        map_bytes = sum((r.stop - r.start) * (c.stop - c.start) for r, c in match_grid.blocks)

        held = []
        resample = coreg.resample

        def spy(plane, model, **kwargs):
            if not held:
                gc.collect()    # empties the interpreter's free lists of tuples and floats
                held.append(tracemalloc.get_traced_memory()[0])
            return resample(plane, model, **kwargs)

        monkeypatch.setattr(coreg, "resample", spy)
        config = PipelineConfig(raw_path="unused", out_dir="unused", tile_size=128, grid_nx=6,
                                grid_ny=6, residual_points=16)
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, _coreg_grids(shape, config), config, QualityReport())
        finally:
            tracemalloc.stop()
        # At the first resample no edge map is held: 0.07 of the match grid's
        # reference maps (mostly the matches).  Building the residual grid's
        # reference maps ahead, in one call with the match grid's, measured
        # 0.53.
        assert held[0] <= 0.1 * map_bytes

    def test_stage_memory_has_no_full_plane_edge_map(self, monkeypatch):
        from pushproc.pipeline import PipelineConfig, QualityReport, _coreg_grids, _stage_coreg

        # Small blocks keep resampling's and suppression's working arrays
        # small, so the peak shows what spans the plane: resampling takes 32
        # lines at a time.
        monkeypatch.setattr(raster, "BLOCK_PIXELS", 32 * 1024)
        scene = stage_scene(33, 1024)
        config = PipelineConfig(raw_path="unused", out_dir="unused", grid_nx=4, grid_ny=4,
                                residual_points=16)
        tracemalloc.start()
        try:
            _stage_coreg(scene, None, _coreg_grids((scene.lines, scene.width), config), config,
                         QualityReport())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.29 float64 planes here: the warp's blocks and the matching's
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
            AttitudeSample(s.t, Quaternion.from_matrix(s.q.to_matrix() @ rpy_matrix(10.0, 0, 0)))
            for s in meta.attitude
        ]
        meta_tilted = AcqMetadata(meta.orbit, tilted, meta.line_period_s, meta.imager)
        tilted_prior = coreg.predict_shift_prior(meta_tilted, (BandId.RED, BandId.NIR))
        assert abs(tilted_prior.dy) > abs(nadir_prior.dy)

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
        prior = coreg.ShiftPrior(2.0, -1.0, gate_radius=5.0)
        assert coreg.remove_outliers(matches, prior) == matches

    def test_injected_gross_outliers_removed(self, rng):
        inlier_shifts = [(2.0 + rng.normal(0, 0.1), 1.0 + rng.normal(0, 0.1)) for _ in range(40)]
        outlier_shifts = [(52.0, 1.0), (2.0, -49.0), (-48.0, 1.0), (2.0, 51.0),
                          (40.0, 40.0), (-30.0, 30.0), (60.0, 0.0), (0.0, 60.0),
                          (45.0, -45.0), (-50.0, -50.0)]
        matches = self.make_matches(inlier_shifts + outlier_shifts)
        prior = coreg.ShiftPrior(2.0, 1.0, gate_radius=5.0)
        kept = coreg.remove_outliers(matches, prior)
        kept_ids = {m.tile_id for m in kept}
        assert kept_ids == set(range(40))

    def test_all_far_from_prior(self):
        matches = self.make_matches([(100.0, 100.0)] * 5)
        with pytest.raises(errors.AllRejected):
            coreg.remove_outliers(matches, coreg.ShiftPrior(0.0, 0.0, gate_radius=5.0))

    def test_zero_deviation_never_removed(self):
        matches = self.make_matches([(0.0, 0.0)] * 6)
        kept = coreg.remove_outliers(matches, coreg.ShiftPrior(0.0, 0.0))
        assert kept == matches

    def test_median_fallback_without_prior(self):
        matches = self.make_matches([(1.0, 1.0)] * 10 + [(50.0, 50.0)])
        kept = coreg.remove_outliers(matches, None)
        assert all(m.dx == 1.0 for m in kept)
        assert len(kept) == 10

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
        clone = coreg.DistortionModel.from_dict(json.loads(json.dumps(model.to_dict())))
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
        mean_px, rms_px = coreg.coreg_residual(plane, plane, n_points=16, tile_size=64,
                                               margin=4)
        assert mean_px == 0.0
        assert rms_px == 0.0

    def test_uncorrected_shift_measured(self):
        plane = (smooth_texture(14, 400) * 10).astype(np.uint16)
        shifted = np.roll(plane, 4, axis=1)
        mean_px, rms_px = coreg.coreg_residual(plane, shifted, n_points=16, tile_size=64,
                                               margin=8)
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
