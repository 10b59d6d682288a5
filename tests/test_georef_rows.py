"""The georef stage walks its grid one row of nodes at a time.

The oracles below are the whole-grid formulas that ``build_geogrid``,
``_mean_gsd_m``, ``fit_world_file`` and ``georef_error_stats`` used before
they walked rows; every result must equal them bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pushproc import errors
from pushproc.georef.accuracy import georef_error_stats
from pushproc.georef.camera import pixel_los
from pushproc.georef.frames import enu_basis, geodetic_to_ecef
from pushproc.georef.geolocate import (
    GeoGrid,
    _locate_line,
    _mean_gsd_m,
    _sample_indices,
    build_geogrid,
    fit_world_file,
)
from pushproc.raster import BAND_COUNT, BandId, RawScene
from pushproc.synthscene import SynthSpec, generate

SHAPES = [(1, 257), (257, 1), (65, 501)]


def oracle_error_stats(grid, truth_points, ground_track_dir):
    computed, truth = (np.reshape(np.stack([p.lat, p.lon, p.alt], axis=-1), (-1, 3))
                       for p in (grid, truth_points))
    te, tn = np.asarray(ground_track_dir, dtype=np.float64) / math.hypot(*ground_track_dir)
    diff = geodetic_to_ecef(*computed.T) - geodetic_to_ecef(*truth.T)
    east, north, _ = enu_basis(truth[:, 0], truth[:, 1])
    e = np.sum(diff * east, axis=-1)
    n = np.sum(diff * north, axis=-1)
    along = e * te + n * tn
    across = e * tn - n * te
    total = np.hypot(across, along)
    return {
        "mean_across_km": float(across.mean()),
        "mean_along_km": float(along.mean()),
        "std_across_km": float(across.std()),
        "std_along_km": float(along.std()),
        "rms_total_km": float(np.sqrt(np.mean(total * total))),
        "across_km": across,
        "along_km": along,
    }


def oracle_mean_gsd_m(grid):
    ecef = geodetic_to_ecef(grid.lat, grid.lon, grid.alt)
    across = np.linalg.norm(np.diff(ecef, axis=1), axis=2) * 1000.0 / np.diff(grid.columns)
    along = (np.linalg.norm(np.diff(ecef, axis=0), axis=2) * 1000.0
             / np.diff(grid.lines)[:, np.newaxis])
    return float(np.concatenate([across.ravel(), along.ravel()]).mean())


def oracle_grid_nodes(scene, metadata, step):
    imager = metadata.imager
    line_idx = _sample_indices(scene.lines, step)
    v_body = pixel_los(imager, BandId.RED, _sample_indices(scene.width, step))
    coords = [_locate_line(int(line), scene, metadata, imager, v_body) for line in line_idx]
    return tuple(np.array([getattr(c, k) for c in coords]) for k in ("lat", "lon", "alt"))


def oracle_fit_world_file(grid):
    cols, lins = np.meshgrid(grid.columns.astype(float), grid.lines.astype(float))
    design = np.stack([cols.ravel(), lins.ravel(), np.ones(cols.size)], axis=1)
    lon_coef, _, _, _ = np.linalg.lstsq(design, grid.lon.ravel(), rcond=None)
    lat_coef, _, _, _ = np.linalg.lstsq(design, grid.lat.ravel(), rcond=None)
    resid = np.concatenate(
        [design @ lon_coef - grid.lon.ravel(), design @ lat_coef - grid.lat.ravel()]
    )
    rms = float(np.sqrt(np.mean(resid * resid)))
    a, b, c = lon_coef
    d, e, f = lat_coef
    return (float(a), float(d), float(b), float(e), float(c), float(f)), rms


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_grid(rng, shape, step=(16, 16)):
    """A GeoGrid of ``shape`` nodes near 40N 100E with a kilometre of jitter."""
    rows, cols = shape
    lines = np.arange(rows) * step[0]
    columns = np.arange(cols) * step[1]
    lat = 40.0 + 1e-4 * lines[:, np.newaxis] + 1e-5 * rng.standard_normal(shape)
    lon = 100.0 + 1e-4 * columns + 1e-5 * rng.standard_normal(shape)
    alt = rng.uniform(-50.0, 50.0, shape)
    return GeoGrid(lines=lines, columns=columns, lat=lat, lon=lon, alt=alt)


def jittered(rng, grid):
    return GeoGrid(lines=grid.lines, columns=grid.columns,
                   lat=grid.lat + 0.01 * rng.standard_normal(grid.lat.shape),
                   lon=grid.lon + 0.01 * rng.standard_normal(grid.lat.shape),
                   alt=grid.alt + rng.uniform(-5.0, 5.0, grid.lat.shape))


def assert_stats_equal_oracle(computed, truth, track):
    stats = georef_error_stats(computed, truth, track)
    expected = oracle_error_stats(computed, truth, track)
    for name, value in expected.items():
        assert same_bits(getattr(stats, name), value), name


class TestErrorStatsRows:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_grids_equal_whole_grid_formula(self, rng, shape):
        truth = random_grid(rng, shape)
        assert_stats_equal_oracle(jittered(rng, truth), truth, (0.3, -0.9))

    def test_equal_counts_of_different_shapes_raise(self, rng):
        truth = random_grid(rng, (6, 10))
        for shape in ((10, 6), (1, 60), (60, 1)):
            computed = random_grid(rng, shape)
            with pytest.raises(errors.EmptyTruth, match=r"\(6, 10\)") as info:
                georef_error_stats(computed, truth, (0.0, 1.0))
            assert str(shape) in str(info.value)


class TestGridRows:
    @pytest.mark.parametrize("shape", SHAPES + [(2, 2), (2, 300), (300, 2)])
    def test_mean_gsd_equals_whole_grid_formula(self, rng, shape):
        grid = random_grid(rng, shape, step=(7, 13))
        grid.lines[-1] -= 3  # uneven last spacing, as _sample_indices gives
        grid.columns[-1] -= 5
        assert same_bits(_mean_gsd_m(grid), oracle_mean_gsd_m(grid))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fit_world_file_equals_whole_grid_formula(self, rng, shape):
        grid = random_grid(rng, shape)
        coeffs, rms = fit_world_file(grid)
        expected_coeffs, expected_rms = oracle_fit_world_file(grid)
        assert same_bits(coeffs, expected_coeffs) and same_bits(rms, expected_rms)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_build_geogrid_equals_whole_grid_formula(self, shape):
        _, truth = generate(SynthSpec(seed=3, width=512, lines=64, texture="flat",
                                      vignette_falloff=0.0))
        # The stage reads only the scene's shape and line times.
        times = truth.true_line_times[0] + np.arange(shape[0]) * truth.metadata.line_period_s
        scene = RawScene(np.zeros((BAND_COUNT,) + shape, dtype=np.uint16), times, 8)
        grid = build_geogrid(scene, truth.metadata, step=1)
        expected = oracle_grid_nodes(scene, truth.metadata, 1)
        for name, value in zip(("lat", "lon", "alt"), expected):
            assert same_bits(getattr(grid, name), value), name
        if min(shape) > 1:
            assert same_bits(grid.mean_gsd_m, oracle_mean_gsd_m(grid))


def test_georef_stage_memory_bound(tmp_path):
    from pushproc.pipeline import PipelineConfig, QualityReport, _stage_georef

    _, truth = generate(SynthSpec(seed=4, width=256, lines=64, texture="flat",
                                  vignette_falloff=0.0))
    lines, width = 400, 256
    times = truth.true_line_times[0] + np.arange(lines) * truth.metadata.line_period_s
    scene = RawScene(np.zeros((BAND_COUNT, lines, width), dtype=np.uint16), times, 8)
    config = PipelineConfig(raw_path="unused", out_dir=str(tmp_path), grid_step=1)
    truth_grid = build_geogrid(scene, truth.metadata, step=1)
    node_bytes = truth_grid.lat.nbytes
    assert truth_grid.lat.size >= 100_000
    report = QualityReport()
    tracemalloc.start()
    try:
        _stage_georef(scene, truth.metadata, (truth_grid, (0.2, 0.98)), config, tmp_path,
                      report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stages["georef"]["error_stats"]["rms_total_km"] == 0.0
    # 9.0 node arrays: the grid's three, and in the world-file fit its
    # (n, 3) design with the copy lstsq makes of it.  Alone, the fit peaks
    # at 6.0, the accuracy pass at 4.1 and the GSD at 2.0.  The whole-grid
    # formulas measured 29.0 (accuracy pass 26.0, grid with its GSD 19.2,
    # fit 9.0).
    assert peak <= 11 * node_bytes
