"""Quaternion attitude representation and spherical interpolation.

Quaternions are scalar-first (s, x, y, z) and unit norm; they rotate body
frame vectors into the inertial frame:  v_eci = q * v_body * q'.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EmptySamples, OutOfRange


@dataclass(frozen=True)
class Quaternion:
    s: float
    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.s * self.s + self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Quaternion":
        n = self.norm
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero quaternion")
        return Quaternion(self.s / n, self.x / n, self.y / n, self.z / n)

    def dot(self, other: "Quaternion") -> float:
        return self.s * other.s + self.x * other.x + self.y * other.y + self.z * other.z

    def rotate(self, v: np.ndarray) -> np.ndarray:
        """Rotate a 3-vector: q * v * q' via the two-cross-product form."""
        u = np.array([self.x, self.y, self.z])
        v = np.asarray(v, dtype=np.float64)
        t = 2.0 * np.cross(u, v)
        return v + self.s * t + np.cross(u, t)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Quaternion":
        """Rotation matrix to quaternion via Shepperd's stable extraction."""
        m = np.asarray(m, dtype=np.float64)
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        d = [1.0 + tr,
             1.0 + 2.0 * m[0, 0] - tr,
             1.0 + 2.0 * m[1, 1] - tr,
             1.0 + 2.0 * m[2, 2] - tr]
        k = int(np.argmax(d))
        if k == 0:
            s = 0.5 * math.sqrt(d[0])
            f = 0.25 / s
            q = cls(s, (m[2, 1] - m[1, 2]) * f, (m[0, 2] - m[2, 0]) * f, (m[1, 0] - m[0, 1]) * f)
        elif k == 1:
            x = 0.5 * math.sqrt(d[1])
            f = 0.25 / x
            q = cls((m[2, 1] - m[1, 2]) * f, x, (m[0, 1] + m[1, 0]) * f, (m[0, 2] + m[2, 0]) * f)
        elif k == 2:
            y = 0.5 * math.sqrt(d[2])
            f = 0.25 / y
            q = cls((m[0, 2] - m[2, 0]) * f, (m[0, 1] + m[1, 0]) * f, y, (m[1, 2] + m[2, 1]) * f)
        else:
            z = 0.5 * math.sqrt(d[3])
            f = 0.25 / z
            q = cls((m[1, 0] - m[0, 1]) * f, (m[0, 2] + m[2, 0]) * f, (m[1, 2] + m[2, 1]) * f, z)
        return q.normalized()

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.x, self.y, self.z])


def slerp(qa: Quaternion, qb: Quaternion, f: float) -> Quaternion:
    """Spherical linear interpolation along the short arc, f in [0, 1]."""
    dot = qa.dot(qb)
    b = qb.as_array()
    if dot < 0.0:
        b = -b
        dot = -dot
    a = qa.as_array()
    if dot > 1.0 - 1e-12:
        # Nearly parallel: normalized linear interpolation is exact enough.
        out = a + f * (b - a)
        out /= np.linalg.norm(out)
        return Quaternion(*out)
    omega = math.acos(dot)
    sin_omega = math.sin(omega)
    out = (math.sin((1.0 - f) * omega) * a + math.sin(f * omega) * b) / sin_omega
    return Quaternion(*out).normalized()


@dataclass(frozen=True)
class AttitudeSample:
    t: float
    q: Quaternion


def slerp_attitude(samples: Sequence[AttitudeSample], t: float) -> Quaternion:
    """Interpolate the attitude at time t between bracketing samples.

    ``samples`` are sorted by time and may carry either sign: ``slerp`` takes
    the short arc.  Exact samples are returned untouched; t must lie inside
    the sample span.
    """
    if not samples:
        raise EmptySamples("no attitude samples")
    times = [s.t for s in samples]
    if t < times[0] or t > times[-1]:
        raise OutOfRange(f"t={t} outside attitude span [{times[0]}, {times[-1]}]")
    idx = bisect_right(times, t)
    if idx >= len(samples):
        return samples[-1].q
    lo, hi = samples[idx - 1], samples[idx]
    if t == lo.t:
        return lo.q
    return slerp(lo.q, hi.q, (t - lo.t) / (hi.t - lo.t))


def rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
