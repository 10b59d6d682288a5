"""Pinhole imager model and per-pixel line-of-sight construction.

Body axes with identity attitude: +x across-track, +y along-track, +z
toward nadir.  Angle naming follows flight semantics rather than axis
order: roll rotates about the along-track axis (+y) and swings the
boresight across-track, pitch rotates about the across-track axis (+x) and
swings it along-track, yaw rotates about the nadir axis (+z).  The mounting
offset is applied as the fixed rotation Rz(yaw) Rx(pitch) Ry(roll), i.e.
roll first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ColumnOutOfRange, NoIntersection
from ..raster import BandId
from .attitude import rot_x, rot_y, rot_z


def rpy_matrix(roll_deg: float, pitch_deg: float, yaw_deg: float) -> np.ndarray:
    """Mounting rotation for (roll, pitch, yaw) in degrees, roll applied first."""
    return rot_z(math.radians(yaw_deg)) @ rot_x(math.radians(pitch_deg)) @ rot_y(math.radians(roll_deg))


@dataclass
class ImagerModel:
    """Geometry of the pushbroom imager plus systematic offsets.

    ``band_row_offset`` holds each band's detector row position relative to
    the reference band, in line periods; ``time_offset_s`` is added to the
    recorded line times before orbit/attitude lookup.
    """

    focal_length_mm: float
    pixel_pitch_um: float
    columns: int
    band_row_offset: dict = field(default_factory=lambda: {b: 0.0 for b in BandId})
    boresight_rpy_deg: tuple = (0.0, 0.0, 0.0)
    time_offset_s: float = 0.0

    def __post_init__(self):
        if self.focal_length_mm <= 0 or self.pixel_pitch_um <= 0:
            raise ValueError("focal length and pixel pitch must be positive")
        if self.columns <= 0:
            raise ValueError("columns must be positive")
        self.band_row_offset = {BandId(int(k)): float(v) for k, v in self.band_row_offset.items()}

    @property
    def ifov_rad(self) -> float:
        """Instantaneous field of view of one detector element."""
        return (self.pixel_pitch_um * 1e-6) / (self.focal_length_mm * 1e-3)

    def boresight_matrix(self) -> np.ndarray:
        return rpy_matrix(*self.boresight_rpy_deg)

    def with_offsets(self, d_roll_deg: float = 0.0, d_pitch_deg: float = 0.0,
                     d_time_s: float = 0.0) -> "ImagerModel":
        """Copy with adjusted boresight/time offsets (bias application)."""
        r, p, y = self.boresight_rpy_deg
        return dataclasses.replace(self, boresight_rpy_deg=(r + d_roll_deg, p + d_pitch_deg, y),
                                   time_offset_s=self.time_offset_s + d_time_s)


def pixel_los(imager: ImagerModel, band: BandId, column) -> np.ndarray:
    """Unit line-of-sight vectors of detector elements, in the body frame.

    ``column`` is a scalar or an array of shape [...]; the result has shape
    [..., 3].  The raw camera ray is

        ((column - (columns-1)/2) * pitch, band_row_offset * pitch, f)

    normalized, then rotated by the fixed boresight mounting offset.  A ray
    whose length is not finite meets no ground: ``NoIntersection``.
    """
    column = np.asarray(column, dtype=np.float64)
    outside = ~((column >= 0) & (column < imager.columns))
    if outside.any():
        raise ColumnOutOfRange(f"column {column[outside][0]} outside [0, {imager.columns})")
    pitch_mm = imager.pixel_pitch_um * 1e-3
    x = (column - (imager.columns - 1) / 2.0) * pitch_mm
    y = imager.band_row_offset.get(band, 0.0) * pitch_mm
    v = np.stack(np.broadcast_arrays(x, y, imager.focal_length_mm), axis=-1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if not np.isfinite(norm).all():
        raise NoIntersection("a line of sight is too long to be a finite direction")
    v /= norm
    # Elementwise products and a three-term sum, not matmul: BLAS may round
    # a batch differently from a single vector.
    return np.sum(imager.boresight_matrix() * v[..., np.newaxis, :], axis=-1)
