"""Time scales, Earth rotation, and geodetic coordinate conversions.

Conventions kept deliberately simple for a systematic (non-precision)
product: the propagator's TEME output is treated as ECI, and the ECI to
ECEF rotation is GMST about the spin axis only.  Polar motion and frame
precession/nutation are neglected; the combined effect is a few hundred
meters, well under the kilometer-scale error regime this toolkit measures.
"""

from __future__ import annotations

import math

import numpy as np

# WGS84 ellipsoid
WGS84_A_KM = 6378.137
WGS84_F = 1.0 / 298.257223563
WGS84_B_KM = WGS84_A_KM * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

_TWOPI = 2.0 * math.pi
_JD_UNIX_EPOCH = 2440587.5
_JD_J2000 = 2451545.0


def unix_to_jd(t_unix: float) -> float:
    """Unix UTC seconds to Julian date (UTC ~= UT1 here)."""
    return t_unix / 86400.0 + _JD_UNIX_EPOCH


def gmst(t_unix: float) -> float:
    """Greenwich Mean Sidereal Time in radians, reduced to [0, 2*pi).

    IAU-82 polynomial in Julian centuries from J2000:

        gmst_s = 67310.54841 + (876600h + 8640184.812866s) T
                 + 0.093104 T^2 - 6.2e-6 T^3
    """
    t = (unix_to_jd(t_unix) - _JD_J2000) / 36525.0
    seconds = (
        67310.54841
        + (876600.0 * 3600.0 + 8640184.812866) * t
        + 0.093104 * t * t
        - 6.2e-6 * t * t * t
    )
    angle = math.radians(seconds / 240.0) % _TWOPI
    return angle if angle >= 0.0 else angle + _TWOPI


def eci_to_ecef(vec: np.ndarray, t_unix: float) -> np.ndarray:
    """Rotate ECI (TEME) vectors, shape [..., 3], into the Earth-fixed frame at t.

    Pure rotation about the spin axis by gmst(t); applies equally to
    positions and directions.
    """
    theta = gmst(t_unix)
    c, s = math.cos(theta), math.sin(theta)
    v = np.asarray(vec, dtype=np.float64)
    x, y = v[..., 0], v[..., 1]
    return np.stack([c * x + s * y, -s * x + c * y, v[..., 2]], axis=-1)


def geodetic_to_ecef(lat_deg, lon_deg, alt_m) -> np.ndarray:
    """WGS84 geodetic coordinates to ECEF positions in km.

    The inputs broadcast against each other to shape [...]; the result has
    shape [..., 3].
    """
    lat, lon, alt_km = np.broadcast_arrays(np.radians(lat_deg), np.radians(lon_deg),
                                           np.divide(alt_m, 1000.0))
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    r_xy = (n + alt_km) * cos_lat
    return np.stack([r_xy * np.cos(lon), r_xy * np.sin(lon),
                     (n * (1.0 - WGS84_E2) + alt_km) * sin_lat], axis=-1)


def ecef_to_geodetic(r_km: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ECEF positions (km, shape [..., 3]) to geodetic (lat deg, lon deg in
    [-180, 180), alt m), each of shape [...].

    Iterative latitude refinement; each point stops at its own first
    iteration that moves it by less than 1e-12 rad, which takes a handful
    of iterations anywhere outside the geocenter.  Points on the spin axis
    get latitude +-90 by the sign of z.
    """
    r = np.asarray(r_km, dtype=np.float64)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    on_axis = p < 1e-12
    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    active = ~on_axis
    for _ in range(50):
        if not active.any():
            break
        sin_lat = np.sin(lat)
        n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        new_lat = np.arctan2(z + WGS84_E2 * n * sin_lat, p)
        converged = np.abs(new_lat - lat) < 1e-12
        lat = np.where(active, new_lat, lat)
        active &= ~converged
    lat = np.where(on_axis, np.copysign(math.pi / 2.0, z), lat)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = WGS84_A_KM / np.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    with np.errstate(divide="ignore", invalid="ignore"):
        alt_km = np.where(np.abs(cos_lat) > 1e-6, p / cos_lat - n,
                          z / sin_lat - n * (1.0 - WGS84_E2))
    alt_km = np.where(on_axis, np.abs(z) - WGS84_B_KM, alt_km)
    return np.degrees(lat), (np.degrees(lon) + 180.0) % 360.0 - 180.0, alt_km * 1000.0


def enu_basis(lat_deg, lon_deg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit East/North/Up vectors of the local tangent frame, in ECEF.

    The inputs broadcast against each other to shape [...]; each vector has
    shape [..., 3].
    """
    lat, lon = np.broadcast_arrays(np.radians(lat_deg), np.radians(lon_deg))
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    sin_lon, cos_lon = np.sin(lon), np.cos(lon)
    east = np.stack([-sin_lon, cos_lon, np.zeros_like(cos_lon)], axis=-1)
    north = np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat], axis=-1)
    up = np.stack([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat], axis=-1)
    return east, north, up
