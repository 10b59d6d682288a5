import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushproc import errors, radiometry
from pushproc.raster import BLOCK_PIXELS, CalibrationTable, RawScene, block_lines

from conftest import make_scene


def identity_calib(width):
    return CalibrationTable(response=np.ones((4, width)), dark=np.zeros((4, width)))


def uniform_scene(value, width=8, lines=4, bit_depth=8):
    planes = np.full((4, lines, width), value, dtype=np.uint16)
    return RawScene(planes, np.arange(lines, dtype=float), bit_depth)


class TestCorrectVignetting:
    def test_hand_computed_case(self):
        # X=100, D=10, R=1.25 -> round-half-up(112.5) = 113
        scene = uniform_scene(100, width=4, lines=2)
        calib = CalibrationTable(
            response=np.full((4, 4), 1.25), dark=np.full((4, 4), 10.0)
        )
        out = radiometry.correct_vignetting(scene, calib)
        assert int(out.planes[0, 0, 0]) == 113

    def test_identity_calib_is_identity(self, small_scene):
        out = radiometry.correct_vignetting(small_scene, identity_calib(small_scene.width))
        np.testing.assert_array_equal(out.planes, small_scene.planes)

    def test_underflow_floors_at_zero(self):
        scene = uniform_scene(5)
        calib = CalibrationTable(response=np.full((4, 8), 2.0), dark=np.full((4, 8), 9.0))
        out = radiometry.correct_vignetting(scene, calib)
        assert out.planes.max() == 0

    def test_clamps_to_dn_range(self):
        scene = uniform_scene(200)
        calib = CalibrationTable(response=np.full((4, 8), 3.0), dark=np.zeros((4, 8)))
        out = radiometry.correct_vignetting(scene, calib)
        assert out.planes.max() == 255

    def test_width_mismatch(self, small_scene):
        with pytest.raises(errors.WidthMismatch):
            radiometry.correct_vignetting(small_scene, identity_calib(small_scene.width + 1))

    def test_nonpositive_response(self, small_scene):
        calib = identity_calib(small_scene.width)
        calib.response[2, 3] = 0.0
        with pytest.raises(errors.NonPositiveResponse):
            radiometry.correct_vignetting(small_scene, calib)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        lo = make_scene(seed=seed, width=12, lines=4)
        bump = rng.integers(0, 20, lo.planes.shape).astype(np.uint16)
        hi = RawScene(np.minimum(lo.planes.astype(int) + bump, 255).astype(np.uint16),
                      lo.line_times, lo.bit_depth)
        calib = CalibrationTable(
            response=0.5 + rng.uniform(0, 2, (4, 12)), dark=rng.uniform(0, 30, (4, 12))
        )
        out_lo = radiometry.correct_vignetting(lo, calib)
        out_hi = radiometry.correct_vignetting(hi, calib)
        assert np.all(out_hi.planes >= out_lo.planes)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_float_path_scaling(self, seed):
        rng = np.random.default_rng(seed)
        scene = make_scene(seed=seed, width=9, lines=3)
        resp = 0.5 + rng.uniform(0, 1, (4, 9))
        dark = rng.uniform(0, 20, (4, 9))
        y1 = radiometry.correct_vignetting_float(scene, CalibrationTable(resp, dark))
        y2 = radiometry.correct_vignetting_float(scene, CalibrationTable(2.0 * resp, dark))
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-12)

    def test_line_parallel_partition_identical(self, small_scene, rng):
        calib = CalibrationTable(
            response=0.5 + rng.uniform(0, 2, (4, small_scene.width)),
            dark=rng.uniform(0, 30, (4, small_scene.width)),
        )
        whole = radiometry.correct_vignetting(small_scene, calib)
        # correcting line blocks separately must give identical pixels
        top = RawScene(small_scene.planes[:, :8].copy(), small_scene.line_times[:8],
                       small_scene.bit_depth)
        bottom = RawScene(small_scene.planes[:, 8:].copy(), small_scene.line_times[8:],
                          small_scene.bit_depth)
        out_top = radiometry.correct_vignetting(top, calib)
        out_bottom = radiometry.correct_vignetting(bottom, calib)
        np.testing.assert_array_equal(
            whole.planes, np.concatenate([out_top.planes, out_bottom.planes], axis=1)
        )


    def test_line_blocks_equal_whole_plane_formula(self, rng):
        lines, width = 2 * block_lines(40) + 37, 40
        scene = RawScene(rng.integers(0, 4096, (4, lines, width)).astype(np.uint16),
                         np.arange(lines, dtype=float), 16)
        calib = CalibrationTable(response=0.5 + rng.uniform(0, 30, (4, width)),
                                 dark=rng.uniform(0, 30, (4, width)))
        expected = np.clip(radiometry.round_half_up(
            radiometry.correct_vignetting_float(scene, calib)), 0, scene.max_dn)
        np.testing.assert_array_equal(radiometry.correct_vignetting(scene, calib).planes,
                                      expected)

    def test_working_memory_bounded(self, rng):
        n = 1024
        scene = RawScene(rng.integers(0, 256, (4, n, n)).astype(np.uint16),
                         np.arange(n, dtype=float), 8)
        calib = CalibrationTable(response=np.full((4, n), 1.3), dark=np.full((4, n), 2.0))
        tracemalloc.start()
        try:
            out = radiometry.correct_vignetting(scene, calib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the output, 0.19 of a float64 plane in 64-line blocks (0.75
        # in 256-line blocks); whole planes at a time measured 3.0.
        assert peak <= out.planes.nbytes + n * n * 8


class TestCorrectInPlace:
    """``out=scene.planes`` corrects the scene's own planes; without ``out`` it stays pure."""

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_in_place_equals_pure(self, rng, bit_depth):
        # Block edges inside the plane: two whole blocks and 37 lines.
        lines, width = 2 * block_lines(40) + 37, 40
        planes = rng.integers(0, 1 << bit_depth, (4, lines, width)).astype(np.uint16)
        scene = RawScene(planes.copy(), np.arange(lines, dtype=float), bit_depth)
        calib = CalibrationTable(response=0.5 + rng.uniform(0, 3, (4, width)),
                                 dark=rng.uniform(0, 30, (4, width)))
        pure = radiometry.correct_vignetting(scene, calib)
        np.testing.assert_array_equal(scene.planes, planes)
        assert not np.shares_memory(pure.planes, scene.planes)
        in_place = radiometry.correct_vignetting(scene, calib, out=scene.planes)
        assert in_place.planes is scene.planes
        assert in_place.planes.tobytes() == pure.planes.tobytes()
        assert not np.array_equal(scene.planes, planes)

    def test_out_must_match_planes(self, small_scene):
        calib = identity_calib(small_scene.width)
        for out in (np.empty(small_scene.planes.shape, dtype=np.float64),
                    np.empty(small_scene.planes.shape, dtype=np.int16),
                    np.empty(small_scene.planes[:, 1:].shape, dtype=np.uint16)):
            with pytest.raises(ValueError):
                radiometry.correct_vignetting(small_scene, calib, out=out)

    def test_out_must_hold_the_dn_range(self, rng):
        scene = RawScene(rng.integers(0, 1 << 16, (4, 3, 5)).astype(np.uint16),
                         np.arange(3, dtype=float), 16)
        with pytest.raises(ValueError):
            radiometry.correct_vignetting(scene, identity_calib(5),
                                          out=np.empty(scene.planes.shape, dtype=np.uint8))

    def test_uint8_planes_corrected_in_place(self, rng):
        lines, width = block_lines(40) + 11, 40
        planes = rng.integers(0, 256, (4, lines, width)).astype(np.uint8)
        wide = RawScene(planes.astype(np.uint16), np.arange(lines, dtype=float), 8)
        scene = RawScene(planes, np.arange(lines, dtype=float), 8)
        calib = CalibrationTable(response=0.5 + rng.uniform(0, 3, (4, width)),
                                 dark=rng.uniform(0, 30, (4, width)))
        pure = radiometry.correct_vignetting(scene, calib)
        assert pure.planes.dtype == np.uint16
        in_place = radiometry.correct_vignetting(scene, calib, out=scene.planes)
        assert in_place.planes is scene.planes and scene.planes.dtype == np.uint8
        np.testing.assert_array_equal(in_place.planes, pure.planes)
        np.testing.assert_array_equal(pure.planes,
                                      radiometry.correct_vignetting(wide, calib).planes)

    def test_stage_peak_under_half_the_cube(self, rng):
        from pushproc.pipeline import QualityReport, _stage_vignetting

        n = 1024
        scene = RawScene(rng.integers(0, 256, (4, n, n)).astype(np.uint16),
                         np.arange(n, dtype=float), 8)
        calib = CalibrationTable(response=np.full((4, n), 1.3), dark=np.full((4, n), 2.0))
        planes = scene.planes
        want = radiometry.correct_vignetting(scene, calib).planes
        tracemalloc.start()
        try:
            _stage_vignetting(scene, calib, QualityReport(), scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scene.planes is planes
        np.testing.assert_array_equal(scene.planes, want)
        # Beyond the loaded scene, 0.19 of the uint16 cube: the correction's
        # float64 blocks.  The metrics' float64 centre region measured 0.25,
        # a corrected copy of the cube 1.50.
        assert peak < scene.planes.nbytes / 2


class TestEdgeCenterRatio:
    def test_flat_plane_zero(self):
        assert radiometry.edge_center_ratio(np.full((4, 64), 80.0), rows=[0, 1]) == 0.0

    def test_profile_construction_oracle(self):
        # columns follow 1 - 0.4 (2u-1)^2 scaled by 200: the metric must match
        # the same windows evaluated on the constructed profile directly
        width = 400
        u = np.arange(width) / (width - 1)
        profile = 200.0 * (1.0 - 0.4 * (2 * u - 1) ** 2)
        plane = np.tile(profile, (6, 1))
        measured = radiometry.edge_center_ratio(plane, rows=np.arange(6))
        n = round(width * 0.05)
        mid = width // 2 - n // 2
        expected = 100.0 * (1.0 - min(profile[:n].mean(), profile[-n:].mean())
                            / profile[mid:mid + n].mean())
        assert measured == pytest.approx(expected, abs=1e-9)
        assert 30.0 < measured < 40.0  # window averaging sits below the 40% endpoint value

    def test_edges_at_60pct_of_center(self):
        # step profile: outer 5% exactly 0.6x center -> 40% by construction
        width = 200
        plane = np.full((3, width), 100.0)
        n = round(width * 0.05)
        plane[:, :n] = 60.0
        plane[:, -n:] = 60.0
        measured = radiometry.edge_center_ratio(plane, rows=[0, 1, 2])
        assert measured == pytest.approx(40.0, abs=1e-9)

    def test_zero_center_mean(self):
        with pytest.raises(errors.ZeroCenterMean):
            radiometry.edge_center_ratio(np.zeros((2, 64)), rows=[0])


class TestFitProfilePoly2:
    def test_recovers_known_coefficients(self):
        width = 257
        u = np.arange(width) / (width - 1)
        a0, a1, a2 = 0.62, 1.5, -1.5  # peaks inside the span
        curve = a0 + a1 * u + a2 * u * u
        plane = np.tile(300.0 * curve, (5, 1))
        prof = radiometry.fit_profile_poly2(plane, rows=np.arange(5))
        peak = curve.max()
        np.testing.assert_allclose(prof.poly2, (a0 / peak, a1 / peak, a2 / peak), atol=1e-9)
        assert prof.rms_residual < 1e-9

    def test_constant_data(self):
        prof = radiometry.fit_profile_poly2(np.full((2, 64), 90.0), rows=[0, 1])
        np.testing.assert_allclose(prof.poly2, (1.0, 0.0, 0.0), atol=1e-12)

    def test_width_two_degenerate(self):
        with pytest.raises(errors.DegenerateFit):
            radiometry.fit_profile_poly2(np.ones((2, 2)), rows=[0])


class TestUniformityStd:
    def test_constant_region(self):
        assert radiometry.uniformity_std(np.full((4, 4), 77.0)) == 0.0

    def test_two_point_region(self):
        plane = np.array([[50.0, 150.0]])
        assert radiometry.uniformity_std(plane) == pytest.approx(50.0)

    def test_zero_mean(self):
        with pytest.raises(errors.ZeroMean):
            radiometry.uniformity_std(np.zeros((2, 2)))


def _assert_uniformity_exact(plane, region):
    """Block sums and result have the bits of squaring all of the region's float64 deviations."""
    sub = plane[region]
    mean = float(sub.mean(dtype=np.float64))
    squares = (sub.astype(np.float64) - mean) ** 2
    block = np.empty(BLOCK_PIXELS)
    assert radiometry._squares_sum(lambda a, b: np.ravel(sub)[a:b], mean, 0, sub.size, block) \
        == np.add.reduce(squares, axis=None)
    assert radiometry.uniformity_std(plane, region) \
        == 100.0 * math.sqrt(float(np.mean(squares))) / mean


class TestMetricsConvertWhatTheyRead:
    """The metrics convert only the rows or region they read to float64."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_equal_to_whole_plane_float64(self, rng, dtype):
        lines, width = 301, 517
        plane = rng.integers(1, np.iinfo(dtype).max, (lines, width)).astype(dtype)
        rows = np.unique(np.linspace(0, lines - 1, 16).astype(int))
        region = (slice(lines // 4, lines - lines // 4), slice(width // 4, width - width // 4))
        whole = plane.astype(np.float64)
        left, right, center = radiometry._edge_center_windows(width)
        sub = whole[rows]
        falloff = 100.0 * (1.0 - min(sub[:, left].mean(), sub[:, right].mean())
                           / sub[:, center].mean())
        assert radiometry.edge_center_ratio(plane, rows) == falloff
        inner = whole[region]
        assert radiometry.uniformity_std(plane, region) == 100.0 * inner.std() / inner.mean()
        assert radiometry.uniformity_std(plane) == 100.0 * whole.std() / whole.mean()

    def test_uniformity_memory_under_one_float64_plane(self, rng):
        n = 1024
        plane = rng.integers(0, 4096, (n, n)).astype(np.uint16)
        region = (slice(n // 4, n - n // 4), slice(n // 4, n - n // 4))
        tracemalloc.start()
        try:
            radiometry.uniformity_std(plane, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float64 block of the region's deviations is alive (0.06 of a
        # float64 plane).  The whole region's deviations measured 0.25, the
        # region and its deviations 0.50, converting the whole plane 1.26.
        assert peak < 0.3 * n * n * 8

    def test_uniformity_memory_one_float64_block(self, rng):
        n = 2000
        plane = rng.integers(0, 256, (n, n)).astype(np.uint8)
        region = (slice(n // 4, n - n // 4), slice(n // 4, n - n // 4))
        tracemalloc.start()
        try:
            radiometry.uniformity_std(plane, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 1000^2 region's deviations as float64 would be 8 MB.
        assert peak <= BLOCK_PIXELS * 8 + 128 * 1024

    def test_uniformity_holds_nothing_once_it_returns(self, rng):
        # A tree walk that recursed as a nested function kept its float64
        # block alive in a reference cycle until the next collection.
        plane = rng.integers(0, 4096, (512, 512)).astype(np.uint16)
        region = (slice(64, 448), slice(64, 448))   # over two blocks: the walk recurses
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            radiometry.uniformity_std(plane, region)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 8 * 1024

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (256, 256), (1, BLOCK_PIXELS + 1),
                                       (37, 7085), (1000, 1000)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_block_sums_equal_whole_region_sum(self, rng, shape, dtype):
        for _ in range(4):
            plane = rng.integers(1, np.iinfo(dtype).max, shape).astype(dtype)
            _assert_uniformity_exact(plane, (slice(None), slice(None)))
        h, w = shape
        _assert_uniformity_exact(plane, (slice(h // 4, h - h // 4), slice(w // 4, w - w // 4)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_block_sums_equal_whole_region_sum_property(self, data):
        dtype = data.draw(st.sampled_from([np.uint8, np.uint16]))
        lines = data.draw(st.integers(1, 700))
        width = data.draw(st.integers(1, 1500))
        plane = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
            1, np.iinfo(dtype).max, (lines, width)).astype(dtype)
        y0, x0 = data.draw(st.integers(0, lines - 1)), data.draw(st.integers(0, width - 1))
        region = (slice(y0, None, data.draw(st.integers(1, 3))),
                  slice(x0, None, data.draw(st.integers(1, 3))))
        _assert_uniformity_exact(plane, region)

    def test_float64_plane_read_not_written(self, rng):
        plane = rng.normal(100.0, 30.0, (301, 517))
        before = plane.copy()
        region = (slice(75, 226), slice(129, 388))
        inner = plane[region]
        assert radiometry.uniformity_std(plane, region) == 100.0 * inner.std() / inner.mean()
        np.testing.assert_array_equal(plane, before)
