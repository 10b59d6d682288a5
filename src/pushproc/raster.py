"""Scene container, band access, and L3RAW file I/O.

A :class:`RawScene` holds the four band planes of a pushbroom acquisition
plus per-line timestamps.  Its planes are either an array in memory or a
:class:`ScenePlanes`, the planes of an L3RAW file that stay in the file:
``open_raw`` reads only a file's header and line times, and
``create_raw`` makes a new file to write a scene into.  ``ScenePlanes``
is the only code that reads or writes a file's samples: ``save_raw`` is
``create_raw`` plus ``copy_planes``, one block at a time, and
``load_raw`` is ``open_raw`` plus one read per band.  Both kinds answer
``planes[band]`` and ``plane[rows, cols]``, ``rows`` a slice of lines,
with arrays of the same values, so code that reads and writes a plane in
runs of lines (``plane[rows] = block``) takes one path for both; the
pipeline keeps its scene in files this way.  Every module rounds to DN
with ``round_half_up``.  In-memory planes are stored planar
(band major) as uint8 or uint16, as given: a loaded scene keeps its
file's sample type, so an 8-bit scene costs one byte a sample.  Planes of
any other type are converted to uint16.  A uint16 plane is never narrowed
to the nominal bit depth; ``validate`` refuses a DN beyond it, and so does
serialization.  Code that walks a plane in blocks of lines takes
``block_lines(width)`` lines at a time, so each block holds about
``BLOCK_PIXELS`` pixels whatever the plane's width.  Every other file
pushproc writes (JSON, the world file, the quicklook) goes through
``write_file``, as every JSON file it reads goes through ``read_json``.

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
import operator
import os
import struct
import typing
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    HeaderInvalid,
    IoFailure,
    PushprocError,
    Truncated,
    WidthMismatch,
    NonPositiveResponse,
)

MAGIC = b"L3RW"
VERSION = 1
BAND_COUNT = 4
_HEADER = struct.Struct("<4sHIIBB4s")

# Pixels per block for plane walks that keep float64 working arrays to one
# block: vignetting correction, the gradient magnitude and resampling.  One
# float64 array of a block is 512 KiB, so a block's working set stays near
# the per-core cache instead of spanning megabytes of a wide plane.
BLOCK_PIXELS = 1 << 16


def block_lines(width: int) -> int:
    """Lines per block of a walk over lines ``width`` pixels wide (at least one)."""
    return max(1, BLOCK_PIXELS // width)


def round_half_up(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer with ties going up (0.5 -> 1), as float64, into ``out`` when given."""
    return np.floor(np.add(x, 0.5, out=out, dtype=np.float64), out=out)


# Hard sanity bound on header dimensions: a desk-scale product never exceeds
# this, and it keeps a corrupt header from triggering a huge allocation.
_MAX_DIM = 1 << 20


class BandId(IntEnum):
    """Spectral band codes in file order."""

    BLUE = 0
    GREEN = 1
    RED = 2
    NIR = 3


# The band co-registration aligns the other bands to, and the band whose
# detector line georeferencing locates, so the product and its grid
# describe one geometry.
REF_BAND = BandId.RED

BAND_NAMES = {BandId.BLUE: "blue", BandId.GREEN: "green", BandId.RED: "red", BandId.NIR: "nir"}
BAND_BY_NAME = {name: band for band, name in BAND_NAMES.items()}


class ScenePlanes:
    """The band planes [4, lines, width] of an open L3RAW file, kept in the file.

    ``planes[band]`` is one band's plane, of shape (lines, width); the band
    is indexed as an ndarray's first axis, and ``planes[band, rows]`` is
    short for ``planes[band][rows]``.  A plane answers only runs of lines:
    a read, ``plane[rows]`` or ``plane[rows, cols]`` with ``rows`` a slice
    of step 1, comes back as a fresh array of the file's sample type, and a
    write, ``plane[rows] = lines``, stores whole lines in that type.  Any
    other line key raises ``TypeError``, so iterating a plane does too, and
    more than two plane indices raise ``IndexError``, as on an array.
    Each band's lines are contiguous in the file, so a run of lines is one
    ``os.preadv`` or ``os.pwrite`` (more only past the 2 GiB that Linux
    moves in one call).  ``np.asarray`` of the planes, and ``planes[()]``,
    raise ``TypeError``: they are read in windows, never whole.
    """

    def __init__(self, fh, lines: int, width: int, bit_depth: int, band: int | None = None):
        self.fh = fh
        self.bit_depth = bit_depth
        self.dtype = np.dtype(f"<u{bit_depth // 8}")
        self.band = band
        self.shape = (lines, width) if band is not None else (BAND_COUNT, lines, width)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __array__(self, *args, **kwargs):
        raise TypeError("scene planes in a file are read in windows: index them")

    def close(self) -> None:
        self.fh.close()

    def _offset(self, line: int) -> int:
        """Where ``line`` of this band starts: after the header, the line times and the lines
        of the bands before it.  Line ``lines`` of the last band is the end of the file."""
        lines, width = self.shape
        return _HEADER.size + 8 * lines + (self.band * lines + line) * width * self.dtype.itemsize

    def _split(self, key) -> tuple["ScenePlanes", tuple]:
        """The band plane a key indexes, and the rest of the key: at most two plane indices."""
        key = key if isinstance(key, tuple) else (key,)
        plane = self
        if self.band is None:
            if not key:
                raise TypeError("scene planes in a file are read in windows: index them")
            band, *key = key
            band = range(BAND_COUNT)[operator.index(band)]
            plane = ScenePlanes(self.fh, *self.shape[1:], self.bit_depth, band)
        if len(key) > 2:
            raise IndexError(f"too many indices for a plane: it is 2-dimensional, "
                             f"but {len(key)} were indexed")
        return plane, tuple(key)

    def _span(self, rows) -> tuple[int, int]:
        if not isinstance(rows, slice):
            raise TypeError("scene planes in a file take a slice of lines, "
                            f"not {type(rows).__name__}")
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise IndexError("scene planes in a file are read in runs of lines: step must be 1")
        return start, max(start, stop)

    def _read(self, out: np.ndarray, at: int) -> np.ndarray:
        """The contiguous ``out`` filled from byte ``at`` on, in as many reads as it takes.

        Linux reads at most about 2 GiB in one ``os.preadv``."""
        view = memoryview(out.reshape(-1).view(np.uint8))
        try:
            while view:
                done = os.preadv(self.fh.fileno(), [view], at)
                if not done:
                    raise Truncated(f"{self.fh.name}: ended before its samples")
                view, at = view[done:], at + done
        except OSError as exc:
            raise IoFailure(f"cannot read {self.fh.name}: {exc}") from exc
        return out

    def __getitem__(self, key):
        plane, key = self._split(key)
        if plane is not self and not key:
            return plane
        rows, cols = (*key, slice(None), slice(None))[:2]
        start, stop = plane._span(rows)
        lines = plane._read(np.empty((stop - start, plane.shape[1]), plane.dtype),
                            plane._offset(start))
        return lines[:, cols]

    def __setitem__(self, key, value) -> None:
        plane, key = self._split(key)
        if len(key) > 1 and not (isinstance(key[1], slice) and key[1] == slice(None)):
            raise IndexError("scene planes in a file are written in whole lines")
        start, stop = plane._span(key[0] if key else slice(None))
        data = np.ascontiguousarray(np.broadcast_to(value, (stop - start, plane.shape[1])),
                                    dtype=plane.dtype)
        view, at = memoryview(data.reshape(-1).view(np.uint8)), plane._offset(start)
        try:
            while view:
                done = os.pwrite(plane.fh.fileno(), view, at)
                if not done:
                    raise IoFailure(f"cannot write {plane.fh.name}: no byte written at {at}")
                view, at = view[done:], at + done
        except OSError as exc:
            raise IoFailure(f"cannot write {plane.fh.name}: {exc}") from exc


@dataclass
class RawScene:
    """Multi-band pushbroom scene: planes[band, line, column] plus line times.

    ``planes`` is an array, or the :class:`ScenePlanes` of a file.
    """

    planes: np.ndarray
    line_times: np.ndarray
    bit_depth: int = 8

    def __post_init__(self):
        if not isinstance(self.planes, ScenePlanes):
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
        # Only planes wider than the bit depth can hold a DN beyond it; a
        # file's samples never are, so its planes are not read here.
        if np.iinfo(self.planes.dtype).max > self.max_dn:
            peak = int(self.planes.max()) if self.planes.size else 0
            if peak > self.max_dn:
                raise HeaderInvalid(f"DN {peak} exceeds {self.bit_depth}-bit range")


def copy_planes(scene: RawScene, out) -> None:
    """Copy ``scene``'s samples into the planes ``out``, block by block."""
    step = block_lines(scene.width)
    for band in range(BAND_COUNT):
        for y0 in range(0, scene.lines, step):
            out[band, y0 : y0 + step] = scene.planes[band, y0 : y0 + step]


def save_raw(scene: RawScene, path) -> None:
    """Write a scene, in memory or another file's, as L3RAW, bit-exactly and deterministically.

    The samples are copied into ``create_raw``'s file one block at a time.
    """
    scene.validate()
    made = create_raw(path, scene)
    try:
        copy_planes(scene, made.planes)
    finally:
        made.planes.close()


def load_raw(path) -> RawScene:
    """Read an L3RAW container back into a RawScene.

    Each band is read straight into the scene's own writable planes, of
    the file's sample type: uint8 or uint16.
    """
    opened = open_raw(path)
    try:
        planes = np.empty(opened.planes.shape, opened.planes.dtype)
        for plane, stored in zip(planes, opened.planes):
            stored._read(plane, stored._offset(0))
    finally:
        opened.planes.close()
    return RawScene(planes, opened.line_times, opened.bit_depth)


def _read_head(fh, path) -> RawScene:
    """The L3RAW file open in ``fh`` as a RawScene over its :class:`ScenePlanes`.

    The header is checked, and so is that the file is long enough for the
    samples it promises; of the rest only the line times are read.
    """
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

    planes = ScenePlanes(fh, lines, width, bit_depth)
    size, expected = os.fstat(fh.fileno()).st_size, planes[-1]._offset(lines)
    if size < expected:
        raise Truncated(f"{path}: {size} bytes, header promises {expected}")
    times = planes._read(np.empty(lines, dtype="<f8"), _HEADER.size)
    return RawScene(planes, times, bit_depth)


def open_raw(path) -> RawScene:
    """The L3RAW file at ``path`` as a RawScene whose planes stay in the file.

    Only the header and the line times are read, and checked; the planes
    are a read-only :class:`ScenePlanes`, which the caller closes.
    """
    try:
        fh = open(path, "rb")
        try:
            scene = _read_head(fh, path)
            scene.validate()
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return scene


def create_raw(path, like: RawScene) -> RawScene:
    """A new L3RAW file at ``path`` with the size, bit depth and line times of ``like``.

    The header and line times are written and the samples start at 0.
    The file comes back as a RawScene over writable :class:`ScenePlanes`,
    which the caller closes.  ``path`` may not be the file ``like`` is
    read from, which this would empty.
    """
    try:
        if isinstance(like.planes, ScenePlanes) and os.path.exists(path) \
                and os.path.samestat(os.stat(path), os.fstat(like.planes.fh.fileno())):
            raise IoFailure(f"cannot write {path}: the scene to be written is read from it")
        fh = open(path, "w+b")
        try:
            planes = ScenePlanes(fh, like.lines, like.width, like.bit_depth)
            fh.write(_HEADER.pack(MAGIC, VERSION, like.width, like.lines, like.bit_depth,
                                  BAND_COUNT, b"\x00" * 4))
            fh.write(like.line_times.astype("<f8").tobytes())
            fh.truncate(planes[-1]._offset(like.lines))
            fh.flush()
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return RawScene(planes, like.line_times.copy(), like.bit_depth)


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
    write_file(path, [json.dumps(doc, sort_keys=True)])


def write_file(path, chunks) -> None:
    """Write ``chunks`` to ``path`` in order, a ``str`` as UTF-8 and anything else as its bytes.

    The counterpart of ``read_json``: a file that cannot be written raises
    ``IoFailure``.  A generator of chunks streams a file never whole in memory.
    """
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_json(path, error: type[PushprocError]):
    """The JSON document in ``path``.

    A file that cannot be read raises ``IoFailure``; bytes that are not
    UTF-8 JSON (or nest or hold digits past Python's limits) raise ``error``,
    the reader's own error for a bad document.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def json_array(value, ndim: int, error: type[PushprocError], what: str, dtype=np.float64):
    """``value``, lists (or tuples) nested ``ndim`` deep around finite JSON numbers
    (integers for an integer ``dtype``), as an array of ``dtype``: the one rule for
    a JSON number, a scalar at ``ndim`` 0.  ``error`` naming ``what`` for any other
    value, a ragged list, a non-finite number or one ``dtype`` cannot hold."""
    items = [value]
    for _ in range(ndim):
        if not all(type(v) in (list, tuple) for v in items):
            raise error(f"{what} must be lists nested {ndim} deep")
        items = list(chain.from_iterable(items))
    if not set(map(type, items)) <= ({int} if np.issubdtype(dtype, np.integer) else {int, float}):
        raise error(f"{what} holds a value that is not a JSON number of type {np.dtype(dtype)}")
    try:
        array = np.array(value, dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise error(f"{what}: {exc}") from exc
    if not np.isfinite(array).all():
        raise error(f"{what} holds a non-finite value")
    return array


def fields_from_json(cls, doc, error: type[PushprocError]):
    """``cls(**doc)`` for a dataclass ``cls``; ``error`` unless ``doc`` is a
    JSON object of its fields."""
    if not isinstance(doc, dict):
        raise error(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise error(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**doc)


def check_field_types(obj, error: type[PushprocError]) -> None:
    """``error`` for a field of the dataclass ``obj`` not of its declared type
    (or a member of its union).  A float or int field holds what ``json_array``
    takes at ``ndim`` 0; a float field also takes an int, as JSON writes whole floats."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value, expected = getattr(obj, f.name), hints[f.name]
        members = typing.get_args(expected) or (expected,)
        number = float if float in members else int if int in members else None
        if number and value is not None:
            json_array(value, 0, error, f.name, number)
        elif not isinstance(value, members):
            raise error(f"{f.name} must be {f.type}, got {value!r}")


def make_dir(path) -> Path:
    """``path`` as a directory, made with its parents if missing; ``IoFailure`` if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot make directory {path}: {exc}") from exc
    return path


def load_calibration(path) -> CalibrationTable:
    doc = read_json(path, HeaderInvalid)
    try:
        bands = [doc["bands"][BAND_NAMES[b]] for b in BandId]
        response = [band["R"] for band in bands]
        dark = [band["D"] for band in bands]
    except (KeyError, TypeError) as exc:
        raise HeaderInvalid(f"{path}: malformed calibration document: {exc}") from exc
    table = CalibrationTable(json_array(response, 2, HeaderInvalid, f"{path}: R"),
                             json_array(dark, 2, HeaderInvalid, f"{path}: D"))
    table.validate()
    return table
