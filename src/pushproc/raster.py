"""Scene container, band access, and L3RAW file I/O.

A :class:`RawScene` holds the four band planes of a pushbroom acquisition
plus per-line timestamps.  Planes are stored planar (band major) as uint8
or uint16, as given: a loaded scene keeps its file's sample type, so an
8-bit scene costs one byte a sample.  Planes of any other type are
converted to uint16.  A uint16 plane is never narrowed to the nominal bit
depth; ``validate`` refuses a DN beyond it, and so does serialization.
Code that walks a plane in blocks of lines takes ``block_lines(width)``
lines at a time, so each block holds about ``BLOCK_PIXELS`` pixels
whatever the plane's width.

L3RAW container layout (little-endian throughout)::

    magic   "L3RW"        4 bytes
    version u16 = 1
    width   u32
    lines   u32
    bit_depth u8          8 or 16
    band_count u8 = 4
    reserved 4 bytes
    line_times f64 * lines
    planes  band-major, row-major, u8 or u16 per sample
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    HeaderInvalid,
    IoFailure,
    Truncated,
    WidthMismatch,
    NonPositiveResponse,
)

MAGIC = b"L3RW"
VERSION = 1
BAND_COUNT = 4
_HEADER = struct.Struct("<4sHIIBB4s")

# Pixels per block for plane walks that keep float64 working arrays to one
# block: vignetting correction, Canny suppression and resampling.  One
# float64 array of a block is 512 KiB, so a block's working set stays near
# the per-core cache instead of spanning megabytes of a wide plane.
BLOCK_PIXELS = 1 << 16


def block_lines(width: int) -> int:
    """Lines per block of a walk over lines ``width`` pixels wide (at least one)."""
    return max(1, BLOCK_PIXELS // width)


# Hard sanity bound on header dimensions: a desk-scale product never exceeds
# this, and it keeps a corrupt header from triggering a huge allocation.
_MAX_DIM = 1 << 20


class BandId(IntEnum):
    """Spectral band codes in file order."""

    BLUE = 0
    GREEN = 1
    RED = 2
    NIR = 3


BAND_NAMES = {BandId.BLUE: "blue", BandId.GREEN: "green", BandId.RED: "red", BandId.NIR: "nir"}
BAND_BY_NAME = {name: band for band, name in BAND_NAMES.items()}


@dataclass
class RawScene:
    """Multi-band pushbroom scene: planes[band, line, column] plus line times."""

    planes: np.ndarray
    line_times: np.ndarray
    bit_depth: int = 8

    def __post_init__(self):
        self.planes = np.asarray(self.planes)
        if self.planes.dtype not in (np.uint8, np.uint16):
            self.planes = self.planes.astype(np.uint16)
        self.line_times = np.asarray(self.line_times, dtype=np.float64)

    @property
    def width(self) -> int:
        return int(self.planes.shape[2])

    @property
    def lines(self) -> int:
        return int(self.planes.shape[1])

    @property
    def max_dn(self) -> int:
        return (1 << self.bit_depth) - 1

    def band(self, band: BandId) -> np.ndarray:
        return self.planes[int(band)]

    def validate(self) -> None:
        """Raise HeaderInvalid if any scene invariant is violated."""
        if self.planes.ndim != 3 or self.planes.shape[0] != BAND_COUNT:
            raise HeaderInvalid(f"planes must be [4, lines, width], got {self.planes.shape}")
        if self.bit_depth not in (8, 16):
            raise HeaderInvalid(f"bit_depth must be 8 or 16, got {self.bit_depth}")
        if self.width == 0 or self.lines == 0:
            raise HeaderInvalid("scene has zero width or zero lines")
        if self.line_times.shape != (self.lines,):
            raise HeaderInvalid(
                f"line_times length {self.line_times.shape} != lines {self.lines}"
            )
        if self.lines > 1 and not np.all(np.diff(self.line_times) > 0):
            raise HeaderInvalid("line_times must be strictly increasing")
        peak = int(self.planes.max()) if self.planes.size else 0
        if peak > self.max_dn:
            raise HeaderInvalid(f"DN {peak} exceeds {self.bit_depth}-bit range")

    def copy(self) -> "RawScene":
        return RawScene(self.planes.copy(), self.line_times.copy(), self.bit_depth)


def save_raw(scene: RawScene, path) -> None:
    """Write a scene as L3RAW, bit-exactly and deterministically.

    Bands are written one at a time, so at most one band is converted to
    the file's sample type at once.
    """
    scene.validate()
    sample = "<u1" if scene.bit_depth == 8 else "<u2"
    header = _HEADER.pack(
        MAGIC, VERSION, scene.width, scene.lines, scene.bit_depth, BAND_COUNT, b"\x00" * 4
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(scene.line_times.astype("<f8").tobytes())
            for plane in scene.planes:
                fh.write(np.ascontiguousarray(plane, dtype=sample))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_into(fh, array: np.ndarray, path) -> None:
    if fh.readinto(array) != array.nbytes:
        raise Truncated(f"{path}: ended before its samples")


def load_raw(path) -> RawScene:
    """Read an L3RAW container back into a RawScene.

    The samples are read with one ``readinto`` straight into the scene's
    own writable planes, of the file's sample type: uint8 or uint16.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise Truncated(f"{path}: shorter than the 20-byte header")
            magic, version, width, lines, bit_depth, band_count, _ = _HEADER.unpack(head)
            if magic != MAGIC:
                raise BadMagic(f"{path}: magic {magic!r} != {MAGIC!r}")
            if version != VERSION:
                raise HeaderInvalid(f"{path}: unsupported version {version}")
            if bit_depth not in (8, 16):
                raise HeaderInvalid(f"{path}: bit_depth {bit_depth} not in (8, 16)")
            if band_count != BAND_COUNT:
                raise HeaderInvalid(f"{path}: band_count {band_count} != {BAND_COUNT}")
            if not (0 < width <= _MAX_DIM) or not (0 < lines <= _MAX_DIM):
                raise HeaderInvalid(f"{path}: width={width} lines={lines} out of range")

            expected = _HEADER.size + 8 * lines + BAND_COUNT * lines * width * (bit_depth // 8)
            if size < expected:
                raise Truncated(f"{path}: {size} bytes, header promises {expected}")

            times = np.empty(lines, dtype="<f8")
            planes = np.empty((BAND_COUNT, lines, width), dtype=f"<u{bit_depth // 8}")
            _read_into(fh, times, path)
            _read_into(fh, planes, path)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    scene = RawScene(planes, times, bit_depth)
    scene.validate()
    return scene


# --------------------------------------------------------------- calibration

@dataclass
class CalibrationTable:
    """Per-band per-column relative response and dark level.

    response[band, column] is the dimensionless gain applied after dark
    subtraction; dark[band, column] is in DN.
    """

    response: np.ndarray
    dark: np.ndarray

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=np.float64)
        self.dark = np.asarray(self.dark, dtype=np.float64)

    @property
    def width(self) -> int:
        return int(self.response.shape[1])

    def validate(self, scene_width: int | None = None) -> None:
        if self.response.shape != self.dark.shape or self.response.ndim != 2 \
                or self.response.shape[0] != BAND_COUNT:
            raise HeaderInvalid(
                f"calibration arrays must be [4, width], got {self.response.shape} / {self.dark.shape}"
            )
        if not np.all(np.isfinite(self.response)):
            raise NonPositiveResponse("response contains non-finite values")
        if np.any(self.response <= 0):
            raise NonPositiveResponse(f"min response {self.response.min()} <= 0")
        if np.any(self.dark < 0) or not np.all(np.isfinite(self.dark)):
            raise HeaderInvalid("dark levels must be finite and >= 0")
        if scene_width is not None and self.width != scene_width:
            raise WidthMismatch(f"calibration width {self.width} != scene width {scene_width}")


def save_calibration(table: CalibrationTable, path) -> None:
    table.validate()
    doc = {
        "bands": {
            BAND_NAMES[band]: {
                "R": [float(v) for v in table.response[int(band)]],
                "D": [float(v) for v in table.dark[int(band)]],
            }
            for band in BandId
        }
    }
    try:
        Path(path).write_text(json.dumps(doc, sort_keys=True))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_calibration(path) -> CalibrationTable:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise HeaderInvalid(f"{path}: not valid JSON: {exc}") from exc
    try:
        bands = doc["bands"]
        response = np.array([bands[BAND_NAMES[b]]["R"] for b in BandId], dtype=np.float64)
        dark = np.array([bands[BAND_NAMES[b]]["D"] for b in BandId], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderInvalid(f"{path}: malformed calibration document: {exc}") from exc
    table = CalibrationTable(response, dark)
    table.validate()
    return table
