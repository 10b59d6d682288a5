import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from pushproc import coreg, errors
from pushproc.raster import BandId
from pushproc.georef.attitude import AttitudeSample, Quaternion
from pushproc.georef.camera import ImagerModel
from pushproc.georef.metadata import AcqMetadata
from pushproc.georef.orbits import CircularOrbit


def smooth_texture(seed, size=128, sigma=1.5):
    rng = np.random.default_rng(seed)
    return ndimage.gaussian_filter(rng.uniform(0, 200, (size, size)), sigma)


class TestCanny:
    def test_constant_plane_no_edges(self):
        edges = coreg.canny_edges(np.full((32, 48), 60.0), 1.0, 0.1, 0.3)
        assert edges.shape == (32, 48)
        assert edges.sum() == 0

    def test_vertical_step_edge(self):
        plane = np.zeros((64, 64))
        plane[:, 32:] = 200.0
        edges = coreg.canny_edges(plane, 1.0, 0.1, 0.3)
        ys, xs = np.nonzero(edges)
        assert len(ys) >= 60  # a near-full-height line
        assert np.all(np.abs(xs - 31.5) <= 1.5)  # within ~1 px of the step
        # single connected component
        labels, count = ndimage.label(edges, structure=np.ones((3, 3), dtype=int))
        assert count == 1

    def test_bad_thresholds(self):
        with pytest.raises(errors.BadThresholds):
            coreg.canny_edges(np.zeros((8, 8)), 1.0, 0.3, 0.3)
        with pytest.raises(errors.BadThresholds):
            coreg.canny_edges(np.zeros((8, 8)), 1.0, 0.4, 0.2)

    def test_rich_texture_produces_edges(self):
        edges = coreg.canny_edges(smooth_texture(3), 1.4, 0.1, 0.3)
        assert 0.01 < edges.mean() < 0.5

    @staticmethod
    def whole_plane_canny(plane, sigma=1.4, t_low=0.1, t_high=0.3):
        """The unblocked Canny: every intermediate spans the whole plane."""
        img = ndimage.gaussian_filter(np.asarray(plane, dtype=np.float64), sigma)
        gx = ndimage.sobel(img, axis=1)
        gy = ndimage.sobel(img, axis=0)
        mag = np.hypot(gx, gy)
        peak = mag.max()
        if peak == 0.0:
            return np.zeros(plane.shape, dtype=np.uint8)
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
        labels, _ = ndimage.label(nms >= t_low * peak, structure=np.ones((3, 3), dtype=int))
        strong_labels = np.unique(labels[nms >= t_high * peak])
        strong_labels = strong_labels[strong_labels > 0]
        return np.isin(labels, strong_labels).astype(np.uint8)

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("lines", [coreg.BLOCK_LINES - 1, coreg.BLOCK_LINES,
                                       coreg.BLOCK_LINES + 1, 2 * coreg.BLOCK_LINES + 77, 5])
    def test_blocked_matches_whole_plane(self, lines, sigma):
        rng = np.random.default_rng(lines)
        plane = ndimage.gaussian_filter(rng.uniform(0, 4000, (lines, 67)), 1.5)
        plane[:, 30:] += 500.0  # one edge that runs through every block boundary
        plane = plane.astype(np.uint16)
        edges = coreg.canny_edges(plane, sigma)
        assert edges.dtype == np.uint8 and edges.any()
        np.testing.assert_array_equal(edges, self.whole_plane_canny(plane, sigma))
        flat = np.full((lines, 67), 900, dtype=np.uint16)
        np.testing.assert_array_equal(coreg.canny_edges(flat, sigma),
                                      self.whole_plane_canny(flat, sigma))

    @pytest.mark.parametrize("sigma", [0.7, 1.4, 2.5])
    @pytest.mark.parametrize("block_lines", [1, 3])
    def test_tiny_blocks_match_whole_plane(self, monkeypatch, block_lines, sigma):
        # A halo one line short changes the last bits of the rows next to a
        # block edge; white noise and many block edges turn that into
        # different edges.
        monkeypatch.setattr(coreg, "BLOCK_LINES", block_lines)
        plane = np.random.default_rng(7).uniform(0, 65535, (300, 200)).astype(np.uint16)
        np.testing.assert_array_equal(coreg.canny_edges(plane, sigma),
                                      self.whole_plane_canny(plane, sigma))

    def test_edge_map_blurs_whole_plane_canny(self):
        plane = (smooth_texture(4, 2 * coreg.BLOCK_LINES + 77) * 20).astype(np.uint16)
        expected = ndimage.gaussian_filter(
            self.whole_plane_canny(plane).astype(np.float64), 1.0)
        np.testing.assert_array_equal(coreg.edge_map(plane), expected)

    def test_working_memory_bounded(self):
        plane = (smooth_texture(5, 1024) * 300).astype(np.uint16)
        tracemalloc.start()
        try:
            coreg.canny_edges(plane)
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

    def test_worker_count_invariance(self):
        plane = smooth_texture(10, size=300)
        target = np.roll(plane, (2, -3), axis=(0, 1))
        m1 = coreg.collect_matches(plane, target, tile_size=64, grid_nx=3, grid_ny=3, workers=1)
        m4 = coreg.collect_matches(plane, target, tile_size=64, grid_nx=3, grid_ny=3, workers=4)
        assert [(m.tile_id, m.dx, m.dy, m.score) for m in m1] == [
            (m.tile_id, m.dx, m.dy, m.score) for m in m4
        ]

    def test_precomputed_ref_edges_same_matches(self):
        plane = smooth_texture(16, size=300)
        target = np.roll(plane, (1, 3), axis=(0, 1))
        fresh = coreg.collect_matches(plane, target, tile_size=64, grid_nx=3, grid_ny=3)
        reused = coreg.collect_matches(plane, target, tile_size=64, grid_nx=3, grid_ny=3,
                                       ref_edges=coreg.edge_map(plane))
        assert reused == fresh

    def test_ref_edges_shape_checked(self):
        plane = smooth_texture(17, size=200)
        with pytest.raises(errors.OutOfBounds):
            coreg.collect_matches(plane, plane, tile_size=64, grid_nx=2, grid_ny=2,
                                  ref_edges=np.zeros((100, 200)))


class TestEdgeMapReuse:
    def test_each_plane_edge_mapped_once_per_scene(self, tmp_path, monkeypatch):
        from pushproc.pipeline import PipelineConfig, run_pipeline
        from pushproc.raster import save_raw
        from pushproc.synthscene import SynthSpec, generate

        spec = SynthSpec(seed=31, width=256, lines=256, texture="urban-blocks",
                         band_warp={"nir": {"order": 1, "coeff_dx": [1.0, -1.0, 0.5],
                                            "coeff_dy": [0.5, 0.5, -1.0]}})
        raw, _ = generate(spec)
        save_raw(raw, tmp_path / "scene.l3raw")
        calls = []
        original = coreg.canny_edges

        def counting(plane, *args, **kwargs):
            calls.append(plane.shape)
            return original(plane, *args, **kwargs)

        monkeypatch.setattr(coreg, "canny_edges", counting)
        run_pipeline(PipelineConfig(raw_path=str(tmp_path / "scene.l3raw"),
                                    out_dir=str(tmp_path / "out"),
                                    vignetting=False, georef=False))
        # 1 reference + 3 target planes + 3 aligned planes
        assert len(calls) == 7


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
        clone = coreg.DistortionModel.from_json(model.to_json())
        np.testing.assert_allclose(clone.coeff_dx, model.coeff_dx)
        np.testing.assert_allclose(clone.coeff_dy, model.coeff_dy)
        assert (clone.order, clone.width, clone.height) == (1, 500, 400)


class TestResample:
    def test_zero_model_identity(self):
        plane = (smooth_texture(11, 96) * 10).astype(np.uint16)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([0.0]),
                                      coeff_dy=np.array([0.0]), width=96, height=96)
        out, valid = coreg.resample(plane, model)
        np.testing.assert_array_equal(out, plane)
        assert valid.all()

    def test_shift_unshift_roundtrip(self):
        plane = (smooth_texture(12, 128) * 10).astype(np.uint16)
        pre_shifted = np.roll(plane, -3, axis=1)  # features moved -3 in x
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([-3.0]),
                                      coeff_dy=np.array([0.0]), width=128, height=128)
        out, valid = coreg.resample(pre_shifted, model)
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
        h, w = coreg.BLOCK_LINES + 77, 90
        plane = (ndimage.gaussian_filter(np.random.default_rng(18).uniform(0, 4000, (h, w)),
                                         1.5)).astype(np.uint16)
        model = coreg.DistortionModel(order=2,
                                      coeff_dx=np.array([2.5, -6.0, 1.5, 4.0, -2.0, 1.0]),
                                      coeff_dy=np.array([-1.5, 3.0, -5.0, 1.0, 2.5, -1.5]),
                                      width=w, height=h)
        out, valid = coreg.resample(plane, model)
        ref_out, ref_valid = self.whole_plane_resample(plane, model)
        assert 0 < (~valid).sum() < valid.size // 4
        np.testing.assert_array_equal(valid, ref_valid)
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
        out, valid = coreg.resample(plane, model)
        assert not valid[:, -10:].any()
        assert (out[:, -10:] == 0).all()
        assert valid[:, :54].all()


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

    def test_too_few_points(self):
        plane = (smooth_texture(15, 128) * 10).astype(np.uint16)
        with pytest.raises(errors.OutOfBounds):
            coreg.coreg_residual(plane, plane, n_points=5)
