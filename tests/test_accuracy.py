import math

import numpy as np
import pytest

from pushproc import errors
from pushproc.georef.accuracy import (
    SceneErrorSample,
    estimate_bias,
    georef_error_stats,
)
from pushproc.georef.frames import enu_basis, geodetic_to_ecef, ecef_to_geodetic
from pushproc.georef.geolocate import GeoGrid, build_geogrid
from pushproc.synthscene import SynthSpec, generate, truth_georef_error


def row_grid(lat, lon, alt) -> GeoGrid:
    """A 1xN GeoGrid of the given node coordinates."""
    lat, lon, alt = (np.asarray(a, dtype=np.float64)[np.newaxis] for a in (lat, lon, alt))
    return GeoGrid(lines=np.zeros(1, dtype=int), columns=np.arange(lat.shape[1]),
                   lat=lat, lon=lon, alt=alt)


def displaced(grid: GeoGrid, de_km, dn_km) -> GeoGrid:
    """``grid`` with each node moved ``de_km`` east and ``dn_km`` north."""
    east, north, _ = enu_basis(grid.lat, grid.lon)
    p = (geodetic_to_ecef(grid.lat, grid.lon, grid.alt)
         + np.asarray(de_km)[..., np.newaxis] * east
         + np.asarray(dn_km)[..., np.newaxis] * north)
    return row_grid(*(a[0] for a in ecef_to_geodetic(p)))


class TestErrorStats:
    truth = row_grid([0.5 * k for k in range(6)], [100.0 + 0.01 * k for k in range(6)],
                     [0.0] * 6)

    def test_zero_error(self):
        stats = georef_error_stats(self.truth, self.truth, (0.0, 1.0))
        assert stats.mean_across_km == 0.0
        assert stats.mean_along_km == 0.0
        assert stats.rms_total_km == 0.0

    def test_known_displacement_decomposition(self):
        # 2 km east on a northward track: pure across (right of track)
        computed = displaced(self.truth, 2.0, 0.0)
        stats = georef_error_stats(computed, self.truth, (0.0, 1.0))
        assert stats.mean_across_km == pytest.approx(2.0, rel=1e-6)
        assert abs(stats.mean_along_km) < 1e-6
        # 3 km north on the same track: pure along
        computed = displaced(self.truth, 0.0, 3.0)
        stats = georef_error_stats(computed, self.truth, (0.0, 1.0))
        assert stats.mean_along_km == pytest.approx(3.0, rel=1e-6)
        assert abs(stats.mean_across_km) < 1e-6

    def test_orthogonal_decomposition(self, rng):
        de, dn = rng.uniform(-5, 5, (self.truth.lat.size, 2)).T
        computed = displaced(self.truth, de[np.newaxis], dn[np.newaxis])
        track = rng.normal(size=2)
        track /= np.linalg.norm(track)
        stats = georef_error_stats(computed, self.truth, tuple(track))
        totals = np.hypot(stats.across_km, stats.along_km)
        assert stats.rms_total_km == pytest.approx(
            float(np.sqrt(np.mean(totals ** 2))), rel=1e-12
        )
        # the decomposition must be independent of axis sign conventions
        flipped = georef_error_stats(computed, self.truth, tuple(-track))
        np.testing.assert_allclose(np.abs(flipped.across_km), np.abs(stats.across_km),
                                   atol=1e-9)

    def test_empty_truth(self):
        empty = row_grid([], [], [])
        with pytest.raises(errors.EmptyTruth):
            georef_error_stats(empty, empty, (0.0, 1.0))

    def test_length_mismatch(self):
        first3 = row_grid(self.truth.lat[0, :3], self.truth.lon[0, :3], self.truth.alt[0, :3])
        with pytest.raises(errors.EmptyTruth, match=r"\(1, 3\).*\(1, 6\)"):
            georef_error_stats(first3, self.truth, (0.0, 1.0))


def bias_scene(roll=0.0, pitch=0.0, time_s=0.0, drift=1.0, seed=0, arg_lat0=-1.0):
    spec = SynthSpec(
        seed=seed, width=256, lines=64, texture="flat", vignette_falloff=0.0,
        grid_step=64,
        orbit={"kind": "circular", "altitude_km": 510.0, "inclination_deg": 97.6,
               "raan_deg": 0.0, "arg_lat0_deg": arg_lat0, "epoch_unix": 1_525_487_400.0},
        injected_bias=(roll, pitch, time_s), time_drift=drift,
    )
    return generate(spec)


def scene_error_sample(raw, truth, imager=None):
    grid = build_geogrid(raw, truth.metadata, imager=imager, step=64)
    stats = truth_georef_error(truth, grid)
    return stats, SceneErrorSample(
        mean_across_km=stats.mean_across_km,
        mean_along_km=stats.mean_along_km,
        time_drift=truth.time_drift,
        ground_speed_kms=truth.ground_speed_kms,
    )


class TestBiasCorrespondence:
    def test_roll_bias_maps_to_across_error(self):
        raw, truth = bias_scene(roll=0.401)
        stats, _ = scene_error_sample(raw, truth)
        expected = 510.0 * math.tan(math.radians(0.401))
        assert abs(stats.mean_across_km) == pytest.approx(expected, rel=0.05)
        assert abs(stats.mean_along_km) < 0.1 * abs(stats.mean_across_km)

    def test_time_bias_maps_to_along_error(self):
        raw, truth = bias_scene(time_s=0.5)
        stats, _ = scene_error_sample(raw, truth)
        expected = truth.ground_speed_kms * 0.5
        assert abs(stats.mean_along_km) == pytest.approx(expected, rel=0.05)
        assert abs(stats.mean_across_km) < 0.1 * abs(stats.mean_along_km)


class TestEstimateBias:
    def test_zero_errors(self):
        samples = [SceneErrorSample(0.0, 0.0, float(k), 7.0) for k in range(6)]
        est = estimate_bias(samples, 510.0)
        assert est.roll_offset_deg == 0.0
        assert est.pitch_offset_deg == 0.0
        assert est.time_offset_s == 0.0

    def test_paper_correspondence_inversion(self):
        # a 3.57 km across-track mean at 510 km inverts to ~0.401 degrees
        samples = [SceneErrorSample(3.57, 0.0, float(k), 7.0) for k in range(6)]
        est = estimate_bias(samples, 510.0)
        assert est.roll_offset_deg == pytest.approx(0.401, abs=0.005)

    def test_insufficient_scenes(self):
        samples = [SceneErrorSample(0.0, 0.0, 0.0, 7.0)] * 4
        with pytest.raises(errors.InsufficientScenes):
            estimate_bias(samples, 510.0)

    def test_recovers_injected_bias_batch(self):
        roll, pitch, time_s = 0.2, 0.5, 0.3
        drifts = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]
        samples = []
        scenes = []
        for k, drift in enumerate(drifts):
            raw, truth = bias_scene(roll=roll, pitch=pitch, time_s=time_s,
                                    drift=drift, seed=k, arg_lat0=-1.0 + 0.2 * k)
            _, sample = scene_error_sample(raw, truth)
            samples.append(sample)
            scenes.append((raw, truth))
        est = estimate_bias(samples, 510.0)
        assert est.roll_offset_deg == pytest.approx(roll, abs=0.01)
        assert est.pitch_offset_deg == pytest.approx(pitch, abs=0.02)
        assert est.time_offset_s == pytest.approx(time_s, abs=0.05)

        # closing the loop: applying the estimates must collapse the means
        raw, truth = scenes[3]
        stats_before, _ = scene_error_sample(raw, truth)
        corrected = truth.metadata.imager.with_offsets(
            d_roll_deg=est.roll_offset_deg,
            d_pitch_deg=est.pitch_offset_deg,
            d_time_s=est.time_offset_s * truth.time_drift,
        )
        stats_after, _ = scene_error_sample(raw, truth, imager=corrected)
        assert abs(stats_after.mean_across_km) < 0.05 * abs(stats_before.mean_across_km)
        assert abs(stats_after.mean_along_km) < 0.05 * abs(stats_before.mean_along_km)
