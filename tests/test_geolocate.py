import json
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushproc import errors
from pushproc.georef.attitude import AttitudeSample, Quaternion
from pushproc.georef.camera import ImagerModel, pixel_los
from pushproc.georef.frames import (
    WGS84_A_KM,
    WGS84_B_KM,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from pushproc.georef.geolocate import (
    GeoGrid,
    build_geogrid,
    fit_world_file,
    georeference_line,
    intersect_ellipsoid,
    save_geogrid,
)
from pushproc.georef.metadata import AcqMetadata, metadata_from_dict, metadata_to_dict
from pushproc.georef.orbits import CircularOrbit, TleOrbit
from pushproc.georef.tle import format_tle
from pushproc.raster import BandId, read_json
from pushproc.synthscene import SynthSpec, generate, truth_georef_error
from test_raster import doc_paths
from test_tle_sgp4 import leo_elements


def default_imager(columns=8000):
    return ImagerModel(focal_length_mm=238.0, pixel_pitch_um=7.0, columns=columns)


class TestIntersectEllipsoid:
    def test_equatorial_nadir_exact(self):
        coord = intersect_ellipsoid(np.array([WGS84_A_KM + 510.0, 0.0, 0.0]),
                                    np.array([-1.0, 0.0, 0.0]))
        assert abs(coord.lat) < 1e-8
        assert abs(coord.lon) < 1e-8
        assert abs(coord.alt) < 1.0  # meters

    def test_pointing_away(self):
        with pytest.raises(errors.NoIntersection):
            intersect_ellipsoid(np.array([WGS84_A_KM + 510.0, 0.0, 0.0]),
                                np.array([1.0, 0.0, 0.0]))

    def test_sideways_miss(self):
        with pytest.raises(errors.NoIntersection):
            intersect_ellipsoid(np.array([WGS84_A_KM + 510.0, 0.0, 0.0]),
                                np.array([0.0, 1.0, 0.0]))

    def test_origin_on_the_ellipsoid_is_not_its_own_intersection(self):
        # The root at distance 0 is the origin itself; the nearest positive
        # root of a ray from the north pole straight down is the south pole.
        r = np.array([0.0, 0.0, WGS84_B_KM])
        coord = intersect_ellipsoid(r, np.array([0.0, 0.0, -1.0]))
        assert coord.lat == pytest.approx(-90.0)
        assert coord.alt == pytest.approx(0.0, abs=1e-6)

    def test_result_on_ellipsoid_and_ray(self, rng):
        for _ in range(20):
            r = np.array([WGS84_A_KM + 510.0, 0.0, 0.0])
            d = np.array([-1.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)])
            d /= np.linalg.norm(d)
            coord = intersect_ellipsoid(r, d)
            p = geodetic_to_ecef(coord.lat, coord.lon, coord.alt)
            ellipsoid_val = (p[0] ** 2 + p[1] ** 2) / WGS84_A_KM ** 2 + p[2] ** 2 / WGS84_B_KM ** 2
            assert ellipsoid_val == pytest.approx(1.0, rel=1e-9)
            along = p - r
            assert np.linalg.norm(np.cross(along / np.linalg.norm(along), d)) < 1e-9

    def test_matches_ray_marching_oracle(self, rng):
        # 1 m stepping plus bisection refinement, fully independent of the
        # closed-form quadratic
        def march(r, d):
            def inside(t):
                p = r + t * d
                return (p[0] ** 2 + p[1] ** 2) / WGS84_A_KM ** 2 \
                    + p[2] ** 2 / WGS84_B_KM ** 2 - 1.0 < 0.0

            ts = np.arange(0.0, 2000.0, 0.001)
            pts = r[np.newaxis, :] + ts[:, np.newaxis] * d[np.newaxis, :]
            vals = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / WGS84_A_KM ** 2 \
                + pts[:, 2] ** 2 / WGS84_B_KM ** 2 - 1.0
            first = int(np.argmax(vals < 0.0))
            assert vals[first] < 0.0
            lo, hi = ts[first - 1], ts[first]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if inside(mid):
                    hi = mid
                else:
                    lo = mid
            return r + 0.5 * (lo + hi) * d

        for _ in range(5):
            lat0 = rng.uniform(-60, 60)
            lon0 = rng.uniform(-180, 180)
            r = geodetic_to_ecef(lat0, lon0, 510_000.0)
            nadir = -r / np.linalg.norm(r)
            tilt = rng.uniform(-0.05, 0.05, 3)
            d = nadir + tilt
            d /= np.linalg.norm(d)
            coord = intersect_ellipsoid(r, d)
            p_quadratic = geodetic_to_ecef(coord.lat, coord.lon, coord.alt)
            p_march = march(r, d)
            assert np.linalg.norm(p_quadratic - p_march) < 0.001  # 1 m

    def test_batch_equals_single_calls(self, rng):
        r = geodetic_to_ecef(35.0, -20.0, 510_000.0)
        d = -r / np.linalg.norm(r) + rng.uniform(-0.05, 0.05, (3, 5, 3))
        batch = intersect_ellipsoid(r, d)
        assert batch.lat.shape == batch.lon.shape == batch.alt.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            single = intersect_ellipsoid(r, d[i, j])
            assert (batch.lat[i, j], batch.lon[i, j], batch.alt[i, j]) == \
                (single.lat, single.lon, single.alt)

    @pytest.mark.parametrize("miss", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    def test_one_missing_ray_fails_the_batch(self, rng, miss):
        r = np.array([WGS84_A_KM + 510.0, 0.0, 0.0])
        d = np.array([-1.0, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, (4, 3))
        d[2] = miss
        with pytest.raises(errors.NoIntersection):
            intersect_ellipsoid(r, d)


class TestPixelLos:
    def test_center_column_boresight(self):
        imager = default_imager(columns=8001)  # integer center at 4000
        v = pixel_los(imager, BandId.RED, 4000)
        np.testing.assert_allclose(v, [0.0, 0.0, 1.0], atol=1e-12)

    def test_edge_half_angle_matches_swath_geometry(self):
        # 120 km swath from 510 km: half angle atan(60/510) ~ 6.71 deg
        imager = default_imager(columns=8000)
        v = pixel_los(imager, BandId.RED, 0)
        half_angle = math.degrees(math.acos(v[2]))
        assert half_angle == pytest.approx(math.degrees(math.atan(60.0 / 510.0)), abs=0.02)

    def test_roll_offset_tilts_center_ray_exactly(self):
        delta = 0.87
        imager = ImagerModel(focal_length_mm=238.0, pixel_pitch_um=7.0, columns=8001,
                             boresight_rpy_deg=(delta, 0.0, 0.0))
        v = pixel_los(imager, BandId.RED, 4000)
        angle = math.degrees(math.acos(np.clip(v @ np.array([0.0, 0.0, 1.0]), -1, 1)))
        assert angle == pytest.approx(delta, abs=1e-9)

    def test_band_row_offset_moves_along_track(self):
        imager = ImagerModel(focal_length_mm=238.0, pixel_pitch_um=7.0, columns=8001,
                             band_row_offset={BandId.NIR: 10.0})
        v = pixel_los(imager, BandId.NIR, 4000)
        assert v[1] > 0.0
        assert v[1] == pytest.approx(10.0 * 7e-3 / 238.0, rel=1e-3)

    def test_column_out_of_range(self):
        with pytest.raises(errors.ColumnOutOfRange):
            pixel_los(default_imager(100), BandId.RED, 100)

    @pytest.mark.parametrize("bad", [-0.5, 100, math.nan])
    def test_one_column_out_of_range_fails_the_batch(self, bad):
        with pytest.raises(errors.ColumnOutOfRange):
            pixel_los(default_imager(100), BandId.RED, [0, 50.5, bad, 99])

    def test_column_array_equals_single_calls(self):
        imager = ImagerModel(focal_length_mm=238.0, pixel_pitch_um=7.0, columns=8001,
                             band_row_offset={BandId.NIR: 3.5},
                             boresight_rpy_deg=(0.3, -0.2, 0.1))
        columns = np.linspace(0.0, 8000.0, 24).reshape(4, 6)
        batch = pixel_los(imager, BandId.NIR, columns)
        assert batch.shape == (4, 6, 3)
        for i, j in np.ndindex(4, 6):
            np.testing.assert_array_equal(batch[i, j], pixel_los(imager, BandId.NIR, columns[i, j]))


def swath_spec(**kw):
    base = dict(seed=2, width=8000, lines=64, texture="flat", vignette_falloff=0.0,
                grid_step=64)
    base.update(kw)
    return SynthSpec(**base)


class TestGeoreferenceLine:
    def test_equatorial_nadir_subsatellite(self):
        # line 0 sits exactly at the ascending node (arg_lat0 = 0)
        spec = swath_spec(orbit={"kind": "circular", "altitude_km": 510.0,
                                 "inclination_deg": 97.6, "raan_deg": 10.0,
                                 "arg_lat0_deg": 0.0, "epoch_unix": 1_525_487_400.0})
        raw, truth = generate(spec)
        meta = truth.metadata
        center = (spec.width - 1) / 2.0
        coord = georeference_line(0, raw, meta, columns=[center])[0]
        state = meta.orbit.state_at(float(raw.line_times[0]))
        from pushproc.georef.frames import eci_to_ecef

        r_ecef = eci_to_ecef(state.r_eci, float(raw.line_times[0]))
        sub_lat, sub_lon, _ = ecef_to_geodetic(r_ecef)
        p_ground = geodetic_to_ecef(coord.lat, coord.lon, 0.0)
        p_sub = geodetic_to_ecef(sub_lat, sub_lon, 0.0)
        assert np.linalg.norm(p_ground - p_sub) < 0.001  # 1 m

    def test_swath_width_120km(self):
        raw, truth = generate(swath_spec())
        coords = georeference_line(32, raw, truth.metadata, columns=[0, 7999])
        p0 = geodetic_to_ecef(coords[0].lat, coords[0].lon, 0.0)
        p1 = geodetic_to_ecef(coords[1].lat, coords[1].lon, 0.0)
        swath = np.linalg.norm(p1 - p0)
        assert swath == pytest.approx(120.0, rel=0.02)

    def test_time_offset_displaces_along_track(self):
        raw, truth = generate(swath_spec(width=512))
        meta = truth.metadata
        cols = [255.5]
        base = georeference_line(10, raw, meta, columns=cols)[0]
        shifted = georeference_line(
            10, raw, meta, imager=meta.imager.with_offsets(d_time_s=1.0), columns=cols
        )[0]
        p0 = geodetic_to_ecef(base.lat, base.lon, 0.0)
        p1 = geodetic_to_ecef(shifted.lat, shifted.lon, 0.0)
        displacement = np.linalg.norm(p1 - p0)
        assert displacement == pytest.approx(truth.ground_speed_kms, rel=0.02)
        # direction follows the footprint track, which sits within the
        # Earth-rotation skew (a few degrees) of the along-track axis
        from pushproc.georef.frames import enu_basis

        east, north, _ = enu_basis(base.lat, base.lon)
        e, n = (p1 - p0) @ east, (p1 - p0) @ north
        te, tn = truth.track_dir_en
        cos_angle = (e * te + n * tn) / math.hypot(e, n)
        assert cos_angle > 0.99

    def test_line_out_of_range(self):
        raw, truth = generate(swath_spec(width=256, lines=16))
        with pytest.raises(errors.OutOfBounds):
            georeference_line(16, raw, truth.metadata, columns=[0])


class TestBuildGeogrid:
    def test_step_of_image_size_gives_corners_only(self):
        raw, truth = generate(swath_spec(width=256, lines=32))
        grid = build_geogrid(raw, truth.metadata, step=4096)
        assert grid.lat.shape == (2, 2)
        assert list(grid.lines) == [0, 31]
        assert list(grid.columns) == [0, 255]
        assert grid.corners["top_left"] == (grid.lat[0, 0], grid.lon[0, 0])
        assert grid.corners["bottom_right"] == (grid.lat[-1, -1], grid.lon[-1, -1])

    def test_matches_truth_grid_within_30m(self):
        spec = swath_spec(width=512, lines=128, grid_step=64)
        raw, truth = generate(spec)
        grid = build_geogrid(raw, truth.metadata, step=64)
        stats = truth_georef_error(truth, grid)
        worst_km = np.hypot(stats.across_km, stats.along_km).max()
        assert worst_km <= 0.030

    def test_gsd_near_15m(self):
        raw, truth = generate(swath_spec(width=2048, lines=128))
        grid = build_geogrid(raw, truth.metadata, step=128)
        assert grid.mean_gsd_m == pytest.approx(15.0, rel=0.05)

    def test_rows_equal_georeference_line(self):
        raw, truth = generate(swath_spec(width=300, lines=40))
        imager = truth.metadata.imager.with_offsets(d_roll_deg=0.1, d_time_s=0.2)
        grid = build_geogrid(raw, truth.metadata, imager=imager, step=16)
        for i, line in enumerate(grid.lines):
            coords = georeference_line(int(line), raw, truth.metadata, imager, grid.columns)
            assert [c.lat for c in coords] == grid.lat[i].tolist()
            assert [c.lon for c in coords] == grid.lon[i].tolist()
            assert [c.alt for c in coords] == grid.alt[i].tolist()

    def test_step_validation(self):
        raw, truth = generate(swath_spec(width=256, lines=16))
        with pytest.raises(errors.OutOfBounds):
            build_geogrid(raw, truth.metadata, step=0)


class TestWorldFile:
    def test_affine_fit_and_io(self, tmp_path):
        raw, truth = generate(swath_spec(width=512, lines=128))
        grid = build_geogrid(raw, truth.metadata, step=64)
        coeffs, rms = fit_world_file(grid)
        assert rms < 1e-4  # degrees; a 7 km scene is nearly affine
        json_path = tmp_path / "grid.json"
        wld_path = tmp_path / "grid.wld"
        save_geogrid(grid, json_path, wld_path)
        lines = wld_path.read_text().strip().splitlines()
        assert len(lines) == 6
        a, d, b, e, c, f = (float(v) for v in lines)
        # The world-file affine must reproduce every node's longitude and
        # latitude; column and line differ off the diagonal.
        column, line = grid.columns[np.newaxis, :], grid.lines[:, np.newaxis]
        tol = dict(rtol=0, atol=10 * rms + 1e-9)
        np.testing.assert_allclose(a * column + b * line + c, grid.lon, **tol)
        np.testing.assert_allclose(d * column + e * line + f, grid.lat, **tol)
        loaded = read_json(json_path, errors.HeaderInvalid)
        np.testing.assert_allclose(loaded["lat"], grid.lat)
        np.testing.assert_allclose(loaded["lon"], grid.lon)
        assert loaded["mean_gsd_m"] == pytest.approx(grid.mean_gsd_m)

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5), (6, 1)])
    def test_grid_json_is_the_whole_document_dumped(self, tmp_path, shape):
        # Floats that print in every form: negative zero, exponents, long repr.
        rng = np.random.default_rng(sum(shape))
        odd = np.array([-0.0, 1e-17, 1e22, 0.1 + 0.2, -123.456, 5e-324])
        lat, lon, alt = (np.where(rng.random(shape) < 0.3, rng.choice(odd, shape),
                                  rng.uniform(-90, 90, shape)) for _ in range(3))
        grid = GeoGrid(lines=np.arange(shape[0]) * 7, columns=np.arange(shape[1]) * 5, lat=lat,
                       lon=lon, alt=alt, corners={"ul": (1.5, 2.0), "lr": (-3.0, 4.25)},
                       mean_gsd_m=np.float64(9.75))
        coeffs, rms = save_geogrid(grid, tmp_path / "grid.json", tmp_path / "grid.wld")
        doc = {
            "schema": 1,
            "lines": [int(v) for v in grid.lines],
            "columns": [int(v) for v in grid.columns],
            "lat": grid.lat.tolist(),
            "lon": grid.lon.tolist(),
            "alt_m": grid.alt.tolist(),
            "corners": {k: list(v) for k, v in grid.corners.items()},
            "mean_gsd_m": grid.mean_gsd_m,
            "world_file": {"coefficients": list(coeffs), "rms_residual_deg": rms},
        }
        assert (tmp_path / "grid.json").read_text() == json.dumps(doc, sort_keys=True)


def sidecar(orbit) -> dict:
    """A valid metadata sidecar document with ``orbit``."""
    level = Quaternion(1.0, 0.0, 0.0, 0.0)
    return metadata_to_dict(AcqMetadata(
        orbit=orbit, attitude=[AttitudeSample(0.0, level), AttitudeSample(10.0, level)],
        line_period_s=0.002, imager=default_imager()))


SIDECARS = [sidecar(CircularOrbit(altitude_km=510.0, inclination_deg=97.6)),
            sidecar(TleOrbit(*format_tle(leo_elements())))]

# Any JSON value Python's reader can return, NaN, infinities and integers
# beyond float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=10)


# Every number of each sidecar, as (sidecar, path of keys and list indices).
NUMBER_FIELDS = [(doc, path) for doc in SIDECARS for path in doc_paths(doc)
                 if type(reduce(operator.getitem, path, doc)) in (int, float)]

# A string, bool, null, list, object, non-finite or out-of-range value where a
# number belongs.
NOT_A_NUMBER = (st.text(max_size=8) | st.booleans() | st.none()
                | st.lists(st.floats(), max_size=3)
                | st.dictionaries(st.text(max_size=4), st.floats(), max_size=2)
                | st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))


class TestMetadataSidecar:
    @pytest.mark.parametrize("doc", SIDECARS, ids=["circular", "tle"])
    def test_valid_sidecar_round_trips(self, doc):
        assert metadata_to_dict(metadata_from_dict(doc)) == doc

    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(SIDECARS),
           field=st.sampled_from(["tle", "circular_orbit", "attitude", "line_period_s", "imager",
                                  *(f"imager.{name}" for name in SIDECARS[0]["imager"])]),
           value=JSON_VALUES)
    def test_any_field_value_parses_or_raises_pushproc_error(self, base, field, value):
        doc = json.loads(json.dumps(base))
        *parent, name = field.split(".")
        (doc[parent[0]] if parent else doc)[name] = value
        try:
            metadata_from_dict(doc)
        except errors.PushprocError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(NUMBER_FIELDS), value=NOT_A_NUMBER)
    def test_number_field_without_a_number_is_field_parse(self, field, value):
        base, path = field
        doc = json.loads(json.dumps(base))
        reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
        with pytest.raises(errors.FieldParse):
            metadata_from_dict(doc)
