import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from pushproc import coreg, errors, synthscene
from pushproc.raster import _MAX_DIM, BandId
from pushproc.synthscene import (
    SynthSpec,
    eval_warp,
    generate,
    truth_coreg_residual,
    truth_georef_error,
    vignette_profile,
)
from test_raster import malformed_json


def naive_reapply(truth, spec):
    """Independent straightforward re-application of the recorded truth.

    Pure-Python loops, same canonical bilinear weighting as documented by
    the generator; shares no code with it.
    """
    clean = truth.clean.planes[0].astype(np.float64)
    h, w = clean.shape
    planes = np.empty((4, h, w), dtype=np.uint16)
    max_dn = (1 << spec.bit_depth) - 1
    for band in BandId:
        warp = truth.warp_fields[band]
        out = np.empty((h, w))
        for y in range(h):
            for x in range(w):
                if warp is None:
                    val = clean[y, x]
                else:
                    wx, wy = eval_warp(warp, np.float64(x), np.float64(y), w, h)
                    sx = min(max(x + float(wx), 0.0), w - 1.0)
                    sy = min(max(y + float(wy), 0.0), h - 1.0)
                    x0 = min(int(math.floor(sx)), w - 2)
                    y0 = min(int(math.floor(sy)), h - 2)
                    fx, fy = sx - x0, sy - y0
                    val = (1.0 - fy) * ((1.0 - fx) * clean[y0, x0] + fx * clean[y0, x0 + 1]) \
                        + fy * ((1.0 - fx) * clean[y0 + 1, x0] + fx * clean[y0 + 1, x0 + 1])
                out[y, x] = val * truth.profile[x] + spec.dark_level
        planes[int(band)] = np.clip(np.floor(out + 0.5), 0, max_dn).astype(np.uint16)
    return planes


def through_json(spec):
    """The spec that a spec file of ``spec``'s fields reads back as."""
    return SynthSpec.from_dict(json.loads(json.dumps(dataclasses.asdict(spec))))


WARP = {"order": 2, "coeff_dx": [1.0, -2.0, 0.7, 0.5, -0.8, 0.4],
        "coeff_dy": [-0.5, 1.2, -1.5, 0.2, 0.6, -0.3]}


class TestGenerate:
    def test_deterministic_under_fixed_seed(self):
        spec = SynthSpec(seed=42, width=96, lines=64, texture="urban-blocks",
                         vignette_falloff=35.0, dark_level=4.0, noise_sigma=2.0,
                         band_warp={"nir": WARP})
        raw1, _ = generate(spec)
        raw2, _ = generate(through_json(spec))
        np.testing.assert_array_equal(raw1.planes, raw2.planes)
        np.testing.assert_array_equal(raw1.line_times, raw2.line_times)

    def test_identity_config_reproduces_clean(self):
        spec = SynthSpec(seed=1, width=64, lines=48, texture="urban-blocks",
                         vignette_falloff=0.0, dark_level=0.0, noise_sigma=0.0)
        raw, truth = generate(spec)
        np.testing.assert_array_equal(raw.planes, truth.clean.planes)
        np.testing.assert_array_equal(raw.line_times, truth.true_line_times)

    def test_truth_reapplication_bit_exact(self):
        # noise-free config with warp, vignetting, and dark: an independent
        # naive implementation of the recorded distortions must reproduce
        # the raw planes exactly
        spec = SynthSpec(seed=3, width=48, lines=40, texture="urban-blocks",
                         vignette_falloff=40.0, dark_level=6.0, noise_sigma=0.0,
                         band_warp={"green": WARP})
        raw, truth = generate(spec)
        np.testing.assert_array_equal(raw.planes, naive_reapply(truth, spec))

    def test_flat_field_matches_profile_construction(self):
        spec = SynthSpec(seed=4, width=400, lines=32, texture="flat",
                         texture_base=150.0, vignette_falloff=40.0, dark_level=8.0)
        raw, truth = generate(spec)
        expected = np.floor(150.0 * truth.profile + 8.0 + 0.5)
        np.testing.assert_array_equal(raw.planes[0, 0], expected.astype(np.uint16))

    def test_exact_calibration_inverts_distortion(self):
        from pushproc.radiometry import correct_vignetting

        spec = SynthSpec(seed=5, width=256, lines=32, texture="flat",
                         texture_base=150.0, vignette_falloff=40.0, dark_level=8.0)
        raw, truth = generate(spec)
        corrected = correct_vignetting(raw, truth.calib)
        diff = corrected.planes.astype(int) - truth.clean.planes.astype(int)
        assert np.abs(diff).max() <= 1

    def test_recorded_times_carry_time_bias(self):
        spec = SynthSpec(seed=6, width=64, lines=32, texture="flat",
                         injected_bias=(0.0, 0.0, 0.25), time_drift=2.0)
        raw, truth = generate(spec)
        np.testing.assert_allclose(truth.true_line_times - raw.line_times, 0.5)

    def test_urban_blocks_texture_is_matchable(self):
        # the co-registration acceptance setup needs nearly every tile usable
        spec = SynthSpec(seed=7, width=700, lines=700, texture="urban-blocks",
                         vignette_falloff=0.0)
        raw, _ = generate(spec)
        plane = raw.band(BandId.RED)
        matches = coreg.collect_matches(plane, plane, tile_size=128, grid_nx=4,
                                        grid_ny=4, min_score=0.2)
        assert len(matches) >= 0.9 * 16

    @pytest.mark.parametrize("texture", ["flat", "urban-blocks"])
    def test_textures_stay_in_dn_range(self, texture):
        spec = SynthSpec(seed=8, width=64, lines=64, texture=texture,
                         vignette_falloff=40.0, dark_level=10.0, noise_sigma=3.0)
        raw, _ = generate(spec)
        assert raw.planes.max() <= 255


class TestSpecValidation:
    def test_unknown_texture(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(texture="perlin").validate()

    def test_falloff_range(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(vignette_falloff=95.0).validate()

    def test_warp_magnitude_cap(self):
        huge = {"order": 0, "coeff_dx": [100.0], "coeff_dy": [0.0]}
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(width=256, band_warp={"nir": huge}).validate()

    def test_unknown_band(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec(band_warp={"uv": {"order": 0, "coeff_dx": [0], "coeff_dy": [0]}}).validate()

    def test_round_trip_dict(self):
        spec = SynthSpec(seed=9, band_warp={"nir": WARP}, injected_bias=(0.1, 0.2, 0.3))
        clone = through_json(spec)
        assert clone == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(errors.SpecInvalid):
            SynthSpec.from_dict({"widht": 64})

    # Checked by ``validate`` alone: ``generate`` would build such a scene.
    @pytest.mark.parametrize("size", [{"width": _MAX_DIM + 1}, {"lines": _MAX_DIM + 1}])
    def test_side_above_the_raw_file_bound(self, size):
        with pytest.raises(errors.SpecInvalid, match="outside"):
            SynthSpec(**size).validate()
        # At the default focal length, the edge columns of a scene 2^20 pixels
        # wide look past the horizon.
        SynthSpec(**{key: _MAX_DIM for key in size}, focal_length_mm=238.0 * 2 ** 11,
                  line_period_s=0.002).validate()

    @pytest.mark.parametrize("period", [-1.0, math.inf, math.nan])
    def test_line_period_negative_or_not_finite(self, period):
        with pytest.raises(errors.SpecInvalid, match="line_period_s"):
            SynthSpec(line_period_s=period).validate()

    # JSON gives lists; a spec built in Python may hold tuples instead.
    def test_spec_built_in_python_with_tuples_validates(self):
        SynthSpec(attitude_profile={"kind": "constant-offset", "rpy_deg": (1.0, 0.0, 0.0)},
                  band_warp={"nir": {"order": 1, "coeff_dx": (0.5, 0.0, 0.0),
                                     "coeff_dy": (0.0, -0.5, 0.0)}},
                  boresight_rpy_deg=(0.1, 0.0, 0.0), injected_bias=(0.0, 0.0, 0.5)).validate()


class TestVignetteProfile:
    def test_quadratic_endpoints(self):
        prof = vignette_profile("quadratic", falloff=40.0, width=101)
        assert prof[0] == pytest.approx(0.6)
        assert prof[-1] == pytest.approx(0.6)
        assert prof[50] == pytest.approx(1.0)

    def test_cos4_same_endpoint_falloff(self):
        prof = vignette_profile("cos4", falloff=40.0, width=101)
        assert prof[0] == pytest.approx(0.6, abs=1e-12)
        assert prof[50] == pytest.approx(1.0)
        quad = vignette_profile("quadratic", falloff=40.0, width=101)
        assert np.abs(prof - quad).max() > 0.01  # genuinely different curvature


class TestTruthCoregResidual:
    def test_zero_warp_zero_model(self):
        spec = SynthSpec(seed=10, width=64, lines=64, texture="flat")
        _, truth = generate(spec)
        assert truth_coreg_residual(truth, None, BandId.NIR) == 0.0

    def test_uncorrected_constant_warp(self):
        warp4 = {"order": 0, "coeff_dx": [4.0], "coeff_dy": [0.0]}
        spec = SynthSpec(seed=11, width=64, lines=64, texture="flat",
                         band_warp={"nir": warp4})
        _, truth = generate(spec)
        assert truth_coreg_residual(truth, None, BandId.NIR) == pytest.approx(4.0, abs=0.01)

    def test_exact_inverse_model_zeros_residual(self):
        warp4 = {"order": 0, "coeff_dx": [4.0], "coeff_dy": [-2.0]}
        spec = SynthSpec(seed=12, width=64, lines=64, texture="flat",
                         band_warp={"nir": warp4})
        _, truth = generate(spec)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([-4.0]),
                                      coeff_dy=np.array([2.0]), width=64, height=64)
        assert truth_coreg_residual(truth, model, BandId.NIR) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        spec = SynthSpec(seed=13, width=64, lines=64, texture="flat")
        _, truth = generate(spec)
        model = coreg.DistortionModel(order=0, coeff_dx=np.array([0.0]),
                                      coeff_dy=np.array([0.0]), width=32, height=64)
        with pytest.raises(errors.DimensionMismatch):
            truth_coreg_residual(truth, model, BandId.NIR)


class TestOrbitAndAttitudeModes:
    def test_tle_orbit_mode_consistent_with_pipeline(self):
        from test_tle_sgp4 import leo_elements
        from pushproc.georef.tle import format_tle
        from pushproc.georef.geolocate import build_geogrid

        line1, line2 = format_tle(leo_elements())
        spec = SynthSpec(seed=30, width=256, lines=64, texture="flat",
                         vignette_falloff=0.0, grid_step=64,
                         orbit={"kind": "tle", "lines": [line1, line2]})
        raw, truth = generate(spec)
        grid = build_geogrid(raw, truth.metadata, step=64)
        stats = truth_georef_error(truth, grid)
        worst_km = float(np.hypot(stats.across_km, stats.along_km).max())
        assert worst_km <= 0.030
        # the sidecar carries the element set verbatim
        assert truth.metadata.orbit.lines == (line1, line2)

    def test_nutation_profile_within_slerp_tolerance(self):
        from pushproc.georef.geolocate import build_geogrid

        # 0.28 deg / 73 s roll oscillation, 1 s attitude sampling: the
        # sampled sidecar must still track the continuous truth to tens of
        # meters at 510 km
        spec = SynthSpec(seed=31, width=256, lines=2048, texture="flat",
                         vignette_falloff=0.0, grid_step=256,
                         attitude_profile={"kind": "nutation", "amplitude_deg": 0.28,
                                           "period_s": 73.0},
                         attitude_sample_period_s=1.0)
        raw, truth = generate(spec)
        grid = build_geogrid(raw, truth.metadata, step=256)
        stats = truth_georef_error(truth, grid)
        worst_km = float(np.hypot(stats.across_km, stats.along_km).max())
        assert worst_km <= 0.030

    def test_constant_offset_profile_tilts_ground_track(self):
        from pushproc.georef.geolocate import build_geogrid

        nadir_spec = SynthSpec(seed=32, width=256, lines=64, texture="flat",
                               grid_step=64)
        off_spec = SynthSpec(seed=32, width=256, lines=64, texture="flat",
                             grid_step=64,
                             attitude_profile={"kind": "constant-offset",
                                               "rpy_deg": [10.0, 0.0, 0.0]})
        _, truth_nadir = generate(nadir_spec)
        _, truth_off = generate(off_spec)
        # a 10 degree roll swings the swath center by ~h tan(10) = 90 km
        from pushproc.georef.frames import geodetic_to_ecef

        c_nadir = truth_nadir.truth_grid
        c_off = truth_off.truth_grid
        mid = c_nadir.lat.shape[1] // 2
        p0 = geodetic_to_ecef(c_nadir.lat[0, mid], c_nadir.lon[0, mid], 0.0)
        p1 = geodetic_to_ecef(c_off.lat[0, mid], c_off.lon[0, mid], 0.0)
        assert np.linalg.norm(p1 - p0) == pytest.approx(
            510.0 * math.tan(math.radians(10.0)), rel=0.05
        )


class TestTruthGeorefError:
    def test_grid_equals_truth_gives_zeros(self):
        spec = SynthSpec(seed=14, width=128, lines=64, texture="flat", grid_step=32)
        _, truth = generate(spec)
        stats = truth_georef_error(truth, truth.truth_grid)
        assert stats.rms_total_km == 0.0

    def test_grid_mismatch(self):
        spec = SynthSpec(seed=15, width=128, lines=64, texture="flat", grid_step=32)
        _, truth = generate(spec)
        other_spec = SynthSpec(seed=15, width=128, lines=64, texture="flat", grid_step=64)
        _, other = generate(other_spec)
        with pytest.raises(errors.GridMismatch):
            truth_georef_error(truth, other.truth_grid)


class TestLoadTruthGrid:
    @pytest.fixture
    def truth_doc(self, tmp_path):
        _, truth = generate(SynthSpec(seed=16, width=128, lines=64, texture="flat",
                                      grid_step=32))
        path = tmp_path / "truth.json"
        synthscene.save_truth(truth, path)
        return path, json.loads(path.read_text())

    def test_round_trip(self, truth_doc):
        path, doc = truth_doc
        grid, track_dir = synthscene.load_truth_grid(path)
        assert grid.lat.tolist() == doc["truth_grid"]["lat"]
        assert list(track_dir) == doc["track_dir_en"]

    DOC = {"truth_grid": {"lines": [0, 63], "columns": [0, 64, 127],
                          "lat": [[10.0, 10.5, 11], [9.5, 10.0, 10.5]],
                          "lon": [[20.0, 20.25, 20.5], [20.0, 20.25, 20.5]],
                          "alt_m": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
           "track_dir_en": [0.2, 0.98]}

    def test_fuzz_base_document_loads(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(self.DOC))
        grid, track_dir = synthscene.load_truth_grid(path)
        assert grid.lat.shape == (2, 3) and track_dir == (0.2, 0.98)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=malformed_json(DOC, integer_lists=("lines", "columns")))
    def test_fuzz_malformed_document_is_truth_invalid(self, tmp_path, text):
        path = tmp_path / "truth.json"
        path.write_text(text)
        with pytest.raises(errors.TruthInvalid):
            synthscene.load_truth_grid(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lat", "lon", "alt_m", "track_dir_en"])
    def test_non_finite_value_rejected(self, truth_doc, key, value):
        # json reads NaN, Infinity and -Infinity; a truth sidecar must not.
        path, doc = truth_doc
        if key == "track_dir_en":
            doc[key][0] = value
        else:
            doc["truth_grid"][key][1][2] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.TruthInvalid, match=key):
            synthscene.load_truth_grid(path)
