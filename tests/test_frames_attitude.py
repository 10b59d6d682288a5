import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from pushproc import errors
from pushproc.georef.attitude import (
    AttitudeSample,
    Quaternion,
    rot_x,
    rot_y,
    rot_z,
    slerp,
    slerp_attitude,
)
from pushproc.georef.frames import (
    WGS84_A_KM,
    WGS84_B_KM,
    WGS84_E2,
    ecef_to_geodetic,
    eci_to_ecef,
    enu_basis,
    geodetic_to_ecef,
    gmst,
    unix_to_jd,
)

SIDEREAL_DAY_S = 86164.0905


def utc(y, mo, d, h=0, mi=0, s=0.0):
    return datetime(y, mo, d, h, mi, tzinfo=timezone.utc).timestamp() + s


class TestGmst:
    def test_j2000_epoch_value(self):
        # standard value at 2000-01-01 12:00 UTC: 280.4606 degrees
        angle = math.degrees(gmst(utc(2000, 1, 1, 12)))
        assert angle == pytest.approx(280.4606, abs=1e-3)

    def test_periodicity_one_sidereal_day(self):
        t = utc(2018, 5, 5, 2, 30)
        a = gmst(t)
        b = gmst(t + SIDEREAL_DAY_S)
        assert abs((a - b + math.pi) % (2 * math.pi) - math.pi) < 1e-6

    def test_half_sidereal_day_is_pi(self):
        t = utc(2018, 5, 5, 2, 30)
        a = gmst(t)
        b = gmst(t + SIDEREAL_DAY_S / 2)
        assert abs(abs(b - a) - math.pi) < 1e-6

    def test_unix_to_jd(self):
        assert unix_to_jd(0.0) == pytest.approx(2440587.5)
        assert unix_to_jd(utc(2000, 1, 1, 12)) == pytest.approx(2451545.0)


class TestEciEcef:
    def test_identity_when_gmst_zero(self):
        # find a time where gmst ~ 0 by inverting the angle at a reference
        t0 = utc(2018, 1, 1)
        theta = gmst(t0)
        t_zero = t0 + (2 * math.pi - theta) / (2 * math.pi) * SIDEREAL_DAY_S
        assert abs(gmst(t_zero)) < 1e-4 or abs(gmst(t_zero) - 2 * math.pi) < 1e-4
        vec = np.array([7000.0, 0.0, 0.0])
        np.testing.assert_allclose(eci_to_ecef(vec, t_zero), vec, atol=1.0)

    def test_spin_axis_unchanged(self):
        vec = np.array([0.0, 0.0, 7000.0])
        for t in (0.0, 1e9, 1.6e9):
            np.testing.assert_allclose(eci_to_ecef(vec, t), vec, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0, 2e9), x=st.floats(-8000, 8000), y=st.floats(-8000, 8000),
           z=st.floats(-8000, 8000))
    def test_norm_preserved(self, t, x, y, z):
        vec = np.array([x, y, z])
        out = eci_to_ecef(vec, t)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(vec), rel=1e-12, abs=1e-12)


class TestGeodetic:
    def test_equator_prime_meridian(self):
        r = geodetic_to_ecef(0.0, 0.0, 0.0)
        np.testing.assert_allclose(r, [6378.137, 0.0, 0.0], atol=1e-9)

    def test_pole(self):
        r = geodetic_to_ecef(90.0, 0.0, 0.0)
        assert r[2] == pytest.approx(6356.752314245, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(lat=st.floats(-89.9, 89.9), lon=st.floats(-179.9, 179.9),
           alt=st.floats(-1000, 600_000))
    def test_roundtrip(self, lat, lon, alt):
        lat2, lon2, alt2 = ecef_to_geodetic(geodetic_to_ecef(lat, lon, alt))
        assert lat2 == pytest.approx(lat, abs=1e-6)
        assert abs((lon2 - lon + 180.0) % 360.0 - 180.0) < 1e-6
        assert alt2 == pytest.approx(alt, abs=1e-3)  # 1 mm


    def test_batch_equals_single_calls(self, rng):
        lat = rng.uniform(-89.0, 89.0, (3, 4))
        lon = rng.uniform(-180.0, 180.0, (3, 4))
        alt = rng.uniform(-500.0, 600_000.0, (3, 4))
        points = geodetic_to_ecef(lat, lon, alt)
        # on the spin axis, and off it by nanometres (|cos lat| <= 1e-6)
        points[0, 0] = [0.0, 0.0, 6400.0]
        points[0, 1] = [0.0, 0.0, -6370.0]
        points[1, 0] = [1e-9, 2e-9, 6357.0]
        batch = ecef_to_geodetic(points)
        assert all(part.shape == (3, 4) for part in batch)
        assert abs(math.cos(math.radians(batch[0][1, 0]))) <= 1e-6
        for i in range(3):
            for j in range(4):
                single = ecef_to_geodetic(points[i, j])
                assert tuple(part[i, j] for part in batch) == single
        assert (batch[0][0, 0], batch[2][0, 0]) == (90.0, (6400.0 - WGS84_B_KM) * 1000.0)
        assert batch[0][0, 1] == -90.0

    def test_batch_matches_scalar_loop_reference(self, rng):
        # The per-point loop this conversion replaced, in math-module scalars.
        def reference(x, y, z):
            lon = (math.degrees(math.atan2(y, x)) + 180.0) % 360.0 - 180.0
            p = math.hypot(x, y)
            if p < 1e-12:
                lat = math.degrees(math.copysign(math.pi / 2.0, z))
                return lat, lon, (abs(z) - WGS84_B_KM) * 1e3
            lat = math.atan2(z, p * (1.0 - WGS84_E2))
            for _ in range(50):
                n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
                new_lat = math.atan2(z + WGS84_E2 * n * math.sin(lat), p)
                done = abs(new_lat - lat) < 1e-12
                lat = new_lat
                if done:
                    break
            n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * math.sin(lat) ** 2)
            if abs(math.cos(lat)) > 1e-6:
                alt_km = p / math.cos(lat) - n
            else:
                alt_km = z / math.sin(lat) - n * (1.0 - WGS84_E2)
            return math.degrees(lat), lon, alt_km * 1e3

        points = rng.uniform(-8000.0, 8000.0, (200, 3))
        points[:3] = [[0.0, 0.0, 6400.0], [0.0, 0.0, -6370.0], [1e-9, 2e-9, 6357.0]]
        lat, lon, alt = ecef_to_geodetic(points)
        for k, point in enumerate(points):
            ref_lat, ref_lon, ref_alt = reference(*point)
            # a few units in the last place of 180 degrees and of 8000 km
            assert abs(lat[k] - ref_lat) <= 1e-12 and abs(lon[k] - ref_lon) <= 1e-12
            assert abs(alt[k] - ref_alt) <= 1e-6

    def test_forward_transforms_broadcast(self, rng):
        lat = rng.uniform(-89.0, 89.0, 5)
        lon = rng.uniform(-180.0, 180.0, 5)
        batch = geodetic_to_ecef(lat, lon, 250.0)
        basis = enu_basis(lat, lon)
        assert batch.shape == (5, 3) and all(v.shape == (5, 3) for v in basis)
        for k in range(5):
            np.testing.assert_array_equal(batch[k], geodetic_to_ecef(lat[k], lon[k], 250.0))
            for v, single in zip(basis, enu_basis(lat[k], lon[k])):
                np.testing.assert_array_equal(v[k], single)
        vecs = rng.normal(size=(2, 5, 3)) * 7000.0
        rotated = eci_to_ecef(vecs, 1.6e9)
        for i, j in np.ndindex(2, 5):
            np.testing.assert_array_equal(rotated[i, j], eci_to_ecef(vecs[i, j], 1.6e9))


def quaternion(rotation: Rotation) -> Quaternion:
    """The scalar-first Quaternion of a scipy rotation."""
    x, y, z, s = rotation.as_quat()
    return Quaternion(s, x, y, z)


def turn(axis, angle_rad: float) -> Quaternion:
    """The rotation by ``angle_rad`` about ``axis``."""
    return quaternion(Rotation.from_rotvec(angle_rad * np.asarray(axis, dtype=np.float64)
                                           / np.linalg.norm(axis)))


class TestQuaternion:
    def test_rotation_matches_matrix(self, rng):
        rotation = Rotation.from_rotvec(1.234 * rng.normal(size=3))
        v = rng.normal(size=3)
        np.testing.assert_allclose(quaternion(rotation).rotate(v), rotation.as_matrix() @ v,
                                   atol=1e-12)

    def test_norm_preserved_under_rotation(self, rng):
        for _ in range(20):
            q = Quaternion(*rng.normal(size=4)).normalized()
            v = rng.normal(size=3)
            assert np.linalg.norm(q.rotate(v)) == pytest.approx(
                np.linalg.norm(v), rel=1e-12
            )

    def test_matrix_roundtrip(self, rng):
        for _ in range(50):
            q = Quaternion(*rng.normal(size=4)).normalized()
            q2 = Quaternion.from_matrix(Rotation.from_quat([q.x, q.y, q.z, q.s]).as_matrix())
            assert min(np.linalg.norm(q.as_array() - q2.as_array()),
                       np.linalg.norm(q.as_array() + q2.as_array())) < 1e-9

    def test_rotation_helpers_orthonormal(self):
        for mat in (rot_x(0.7), rot_y(-1.1), rot_z(2.9)):
            np.testing.assert_allclose(mat @ mat.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(mat) == pytest.approx(1.0)


class TestSlerp:
    def test_exact_sample_returned(self):
        qa = turn([0, 0, 1], 0.0)
        qb = turn([0, 0, 1], 1.0)
        samples = [AttitudeSample(0.0, qa), AttitudeSample(10.0, qb)]
        assert slerp_attitude(samples, 0.0) == qa
        assert slerp_attitude(samples, 10.0) == qb

    def test_equal_endpoints_constant(self):
        q = turn([1, 2, 3], 0.4)
        samples = [AttitudeSample(0.0, q), AttitudeSample(5.0, q)]
        for t in (0.0, 1.7, 5.0):
            out = slerp_attitude(samples, t)
            assert abs(out.dot(q)) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_half_angle(self):
        qa = quaternion(Rotation.identity())
        qb = turn([0, 1, 0], math.pi / 2)
        mid = slerp(qa, qb, 0.5)
        expected = turn([0, 1, 0], math.pi / 4)
        np.testing.assert_allclose(mid.as_array(), expected.as_array(), atol=1e-9)

    def test_constant_angular_rate(self):
        ends = Rotation.from_rotvec([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        samples = [AttitudeSample(float(t), quaternion(r)) for t, r in zip((0, 1), ends)]
        for f in (0.25, 0.5, 0.75):
            q = slerp_attitude(samples, f)
            angle = 2.0 * math.acos(min(1.0, abs(q.s)))
            assert angle == pytest.approx(f * 1.0, abs=1e-9)
            np.testing.assert_allclose(q.as_array(), quaternion(Slerp([0, 1], ends)(f)).as_array(),
                                       atol=1e-12)

    def test_out_of_range(self):
        identity = quaternion(Rotation.identity())
        samples = [AttitudeSample(0.0, identity), AttitudeSample(1.0, identity)]
        with pytest.raises(errors.OutOfRange):
            slerp_attitude(samples, 2.0)

    def test_empty_samples(self):
        with pytest.raises(errors.EmptySamples):
            slerp_attitude([], 0.0)
