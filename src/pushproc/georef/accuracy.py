"""Georeferencing error statistics and systematic bias estimation.

Errors are measured as computed-minus-truth vectors in the local tangent
plane and decomposed onto track axes: *along* is the ground-track
direction, *across* is its right-hand perpendicular.  A constant boresight
roll shows up as a constant across-track mean, a constant pitch as a
constant along-track mean, and a clock error as an along-track error
proportional to ground speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..errors import EmptyTruth, InsufficientScenes
from .frames import enu_basis, geodetic_to_ecef
from .geolocate import GeoGrid


@dataclass
class GeorefErrorStats:
    """Per-axis normal summary plus the raw per-point decomposition (km)."""

    mean_across_km: float
    mean_along_km: float
    std_across_km: float
    std_along_km: float
    rms_total_km: float
    across_km: np.ndarray
    along_km: np.ndarray


def georef_error_stats(grid, truth_points, ground_track_dir) -> GeorefErrorStats:
    """Decompose computed-vs-truth errors onto along/across-track axes.

    Parameters
    ----------
    grid : GeoGrid or sequence of GeodeticCoord
        Computed geolocation, node for node against the truth.
    truth_points : GeoGrid or sequence of GeodeticCoord
    ground_track_dir : (east, north)
        Unit horizontal direction of the ground track; across-track is its
        right-hand perpendicular.
    """
    # [n, 3] arrays of (lat, lon, alt), node for node
    computed, truth = (
        np.reshape(np.stack([p.lat, p.lon, p.alt], axis=-1) if isinstance(p, GeoGrid)
                   else list(map(attrgetter("lat", "lon", "alt"), p)), (-1, 3))
        for p in (grid, truth_points)
    )
    if len(truth) == 0:
        raise EmptyTruth("no truth points")
    if len(computed) != len(truth):
        raise EmptyTruth(f"{len(computed)} computed points vs {len(truth)} truth points")
    te, tn = np.asarray(ground_track_dir, dtype=np.float64) / math.hypot(*ground_track_dir)

    diff = geodetic_to_ecef(*computed.T) - geodetic_to_ecef(*truth.T)
    east, north, _ = enu_basis(truth[:, 0], truth[:, 1])
    e = np.sum(diff * east, axis=-1)
    n = np.sum(diff * north, axis=-1)
    along = e * te + n * tn
    across = e * tn - n * te
    total = np.hypot(across, along)
    return GeorefErrorStats(
        mean_across_km=float(across.mean()),
        mean_along_km=float(along.mean()),
        std_across_km=float(across.std()),
        std_along_km=float(along.std()),
        rms_total_km=float(np.sqrt(np.mean(total * total))),
        across_km=across,
        along_km=along,
    )


@dataclass
class SceneErrorSample:
    """One scene's contribution to the bias fit.

    ``time_drift`` is the scene's clock-drift tag (for example days since
    the last time sync); the recovered time offset is per unit of this tag.
    """

    mean_across_km: float
    mean_along_km: float
    time_drift: float
    ground_speed_kms: float


@dataclass
class BiasEstimate:
    roll_offset_deg: float
    pitch_offset_deg: float
    time_offset_s: float


def estimate_bias(
    samples: Sequence[SceneErrorSample], altitude_km: float, min_scenes: int = 5
) -> BiasEstimate:
    """Invert systematic error means into boresight and clock offsets.

    Boresight offsets produce drift-independent error means while a clock
    offset scales with each scene's drift tag, so both axes are regressed
    against the tags: the across-track constant term gives the roll
    (atan(c_across / altitude)), the along-track constant term the pitch,
    and the along-track slope, divided by ground speed, the clock offset.
    With degenerate (equal) drift tags the regression falls back to plain
    means, i.e. roll = atan(mean_across / altitude), and the clock term is
    unobservable.  Applying the estimates through
    ``ImagerModel.with_offsets`` (time scaled by each scene's drift tag)
    cancels the injected biases.
    """
    if len(samples) < min_scenes:
        raise InsufficientScenes(f"{len(samples)} scenes < minimum {min_scenes}")
    across = np.array([s.mean_across_km for s in samples])
    along = np.array([s.mean_along_km for s in samples])
    drift = np.array([s.time_drift for s in samples])
    speed = np.array([s.ground_speed_kms for s in samples])

    design = np.stack([np.ones_like(drift), drift], axis=1)
    if np.ptp(drift) < 1e-12:
        across_const = float(across.mean())
        along_const, along_slope = float(along.mean()), 0.0
    else:
        across_coef, _, _, _ = np.linalg.lstsq(design, across, rcond=None)
        along_coef, _, _, _ = np.linalg.lstsq(design, along, rcond=None)
        across_const = float(across_coef[0])
        along_const, along_slope = float(along_coef[0]), float(along_coef[1])

    roll = math.degrees(math.atan2(across_const, altitude_km))
    pitch = math.degrees(math.atan2(along_const, altitude_km))
    time_offset = -along_slope / float(speed.mean())
    return BiasEstimate(roll_offset_deg=roll, pitch_offset_deg=pitch, time_offset_s=time_offset)
