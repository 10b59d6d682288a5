"""Orbit models behind a single ``state_at(t_unix)`` interface.

``TleOrbit`` wraps the SGP4 propagator.  ``CircularOrbit`` is a closed-form
two-body circular orbit so synthetic acquisitions can carry metadata whose
truth is independent of any analytic propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FieldParse
from ..raster import json_array
from .frames import WGS84_A_KM
from .sgp4 import DEEP_SPACE_PERIOD_MIN, Sgp4NearEarth, StateVector
from .tle import TleElements, parse_tle

MU_KM3_S2 = 398600.4418

# The radius of a circular orbit whose period is the TLE path's deep-space
# limit (about 5 876 km up).  A circular orbit is refused at or beyond it,
# before ``radius_km ** 3`` can overflow.
_DEEP_SPACE_RADIUS_KM = (MU_KM3_S2 * (DEEP_SPACE_PERIOD_MIN * 30.0 / math.pi) ** 2) ** (1 / 3)


class TleOrbit:
    """SGP4-propagated orbit from a two-line element set."""

    kind = "tle"

    def __init__(self, line1: str, line2: str):
        self.lines = (line1, line2)
        self.elements: TleElements = parse_tle(line1, line2)
        self._propagator = Sgp4NearEarth(self.elements)

    def state_at(self, t_unix: float) -> StateVector:
        return self._propagator.state_at(t_unix)

    def to_doc(self) -> dict:
        return {"tle": list(self.lines)}


@dataclass
class CircularOrbit:
    """Keplerian circular orbit: altitude above the equatorial radius.

    Position at time t is Rz(raan) Rx(incl) applied to an in-plane circle at
    argument of latitude u(t) = u0 + n (t - epoch).
    """

    altitude_km: float
    inclination_deg: float
    raan_deg: float = 0.0
    arg_lat0_deg: float = 0.0
    epoch_unix: float = 0.0

    kind = "circular"

    @property
    def radius_km(self) -> float:
        return WGS84_A_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(MU_KM3_S2 / self.radius_km ** 3)

    @property
    def speed_kms(self) -> float:
        return self.radius_km * self.mean_motion_rad_s

    @property
    def ground_speed_kms(self) -> float:
        """Subsatellite-point speed: orbital speed scaled to the surface."""
        return self.speed_kms * WGS84_A_KM / self.radius_km

    def _plane_basis(self) -> tuple[np.ndarray, np.ndarray]:
        raan = math.radians(self.raan_deg)
        incl = math.radians(self.inclination_deg)
        cos_o, sin_o = math.cos(raan), math.sin(raan)
        cos_i, sin_i = math.cos(incl), math.sin(incl)
        # Columns of Rz(raan) @ Rx(incl) acting on the in-plane x/y axes.
        p = np.array([cos_o, sin_o, 0.0])
        q = np.array([-sin_o * cos_i, cos_o * cos_i, sin_i])
        return p, q

    def state_at(self, t_unix: float) -> StateVector:
        u = math.radians(self.arg_lat0_deg) + self.mean_motion_rad_s * (t_unix - self.epoch_unix)
        p, q = self._plane_basis()
        r = self.radius_km * (math.cos(u) * p + math.sin(u) * q)
        v = self.speed_kms * (-math.sin(u) * p + math.cos(u) * q)
        return StateVector(t=t_unix, r_eci=r, v_eci=v)

    def to_doc(self) -> dict:
        return {
            "circular_orbit": {
                "altitude_km": self.altitude_km,
                "inclination_deg": self.inclination_deg,
                "raan_deg": self.raan_deg,
                "arg_lat0_deg": self.arg_lat0_deg,
                "epoch_unix": self.epoch_unix,
            }
        }


def orbit_from_spec(doc: dict):
    """The orbit model of a metadata document fragment; ``FieldParse`` when it
    is malformed, or a circular orbit's altitude is not above 0 or its period
    not under ``DEEP_SPACE_PERIOD_MIN``."""
    if "tle" in doc and doc["tle"]:
        lines = doc["tle"]
        if not (isinstance(lines, list) and len(lines) == 2
                and all(isinstance(line, str) for line in lines)):
            raise FieldParse(f"'tle' must be a list of two strings, got {lines!r:.80}")
        return TleOrbit(lines[0], lines[1])
    if "circular_orbit" in doc:
        try:
            orbit = CircularOrbit(**{
                key: json_array(value, 0, FieldParse, f"circular_orbit {key}").tolist()
                for key, value in {**doc["circular_orbit"]}.items()
                if key in CircularOrbit.__dataclass_fields__})
        # A circular_orbit that is not an object, or one missing a field.
        except TypeError as exc:
            raise FieldParse(f"malformed circular_orbit spec: {exc}") from exc
        if not (orbit.altitude_km > 0 and orbit.radius_km < _DEEP_SPACE_RADIUS_KM):
            raise FieldParse(f"circular_orbit altitude_km {orbit.altitude_km} is not above 0 and "
                             f"below {_DEEP_SPACE_RADIUS_KM - WGS84_A_KM:.0f} km, where the period "
                             f"reaches {DEEP_SPACE_PERIOD_MIN:g} min")
        return orbit
    raise FieldParse("metadata carries neither 'tle' nor 'circular_orbit'")
