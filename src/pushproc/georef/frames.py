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
    """Rotate an ECI (TEME) vector into the Earth-fixed frame at time t.

    Pure rotation about the spin axis by gmst(t); applies equally to
    positions and directions.
    """
    theta = gmst(t_unix)
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = float(vec[0]), float(vec[1]), float(vec[2])
    return np.array([c * x + s * y, -s * x + c * y, z])


def geodetic_to_ecef(lat_deg: float, lon_deg: float, alt_m: float) -> np.ndarray:
    """WGS84 geodetic coordinates to an ECEF position in km."""
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    alt_km = alt_m / 1000.0
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + alt_km) * cos_lat * math.cos(lon),
            (n + alt_km) * cos_lat * math.sin(lon),
            (n * (1.0 - WGS84_E2) + alt_km) * sin_lat,
        ]
    )


def ecef_to_geodetic(r_km: np.ndarray) -> tuple[float, float, float]:
    """ECEF position (km) to geodetic (lat deg, lon deg in [-180, 180), alt m).

    Iterative latitude refinement; converges below 1e-12 rad in a handful of
    iterations anywhere outside the geocenter.
    """
    x, y, z = float(r_km[0]), float(r_km[1]), float(r_km[2])
    lon = math.atan2(y, x)
    p = math.hypot(x, y)
    if p < 1e-12:
        # On the spin axis: latitude is +-90 by sign of z.
        lat = math.copysign(math.pi / 2.0, z)
        alt_km = abs(z) - WGS84_B_KM
        return math.degrees(lat), _wrap_lon_deg(math.degrees(lon)), alt_km * 1000.0
    lat = math.atan2(z, p * (1.0 - WGS84_E2))
    for _ in range(50):
        sin_lat = math.sin(lat)
        n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        new_lat = math.atan2(z + WGS84_E2 * n * sin_lat, p)
        if abs(new_lat - lat) < 1e-12:
            lat = new_lat
            break
        lat = new_lat
    sin_lat = math.sin(lat)
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    cos_lat = math.cos(lat)
    if abs(cos_lat) > 1e-6:
        alt_km = p / cos_lat - n
    else:
        alt_km = z / sin_lat - n * (1.0 - WGS84_E2)
    return math.degrees(lat), _wrap_lon_deg(math.degrees(lon)), alt_km * 1000.0


def _wrap_lon_deg(lon_deg: float) -> float:
    wrapped = (lon_deg + 180.0) % 360.0 - 180.0
    return wrapped


def enu_basis(lat_deg: float, lon_deg: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit East/North/Up vectors of the local tangent frame, in ECEF."""
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    east = np.array([-sin_lon, cos_lon, 0.0])
    north = np.array([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat])
    up = np.array([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat])
    return east, north, up
