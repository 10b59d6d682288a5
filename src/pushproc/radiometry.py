"""Vignetting correction and radiometric quality metrics.

The correction applies, per band and per detector column i,

    Y_i = R_i * max(X_i - D_i, 0)

where R is the relative response and D the dark level of the calibration
table.  Each image line is corrected independently, so ``correct_vignetting``
walks each band in blocks of ``block_lines(width)`` lines.  Called without
``out`` it is pure: it returns a new scene and leaves its input untouched.
Given ``out`` it writes each corrected block there: ``out=scene.planes``
corrects a scene's own planes in place, each block read before it is
written, and the pipeline passes the planes of its ``.partial`` output
file (``raster.ScenePlanes``), so the corrected scene goes from the raw
file to the product file one block at a time and an 8-bit scene stays
uint8.  Integer output uses round-half-up and clamps to the DN range; a
float-valued path is exposed so metric code and property tests are not
polluted by quantization.  The metrics read only runs of lines, as a plane
in a file answers, and convert only what they read to float64, so they
take a plane in memory or in a file alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    ZeroCenterMean,
    ZeroMean,
)
from .raster import (BAND_COUNT, BLOCK_PIXELS, CalibrationTable, RawScene, block_lines,
                     round_half_up)


def _correct_lines(lines: np.ndarray, calib: CalibrationTable, band: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """R * max(X - D, 0) of some lines of one band, as float64, into ``out`` when given."""
    found = np.subtract(lines, calib.dark[band], out=out, dtype=np.float64)
    np.maximum(found, 0.0, out=found)
    found *= calib.response[band]
    return found


def correct_vignetting_float(scene: RawScene, calib: CalibrationTable) -> np.ndarray:
    """Pre-rounding correction: R * max(X - D, 0) as float64 [4, lines, width].

    Negative dark-subtracted values floor at zero (sensor noise below the
    dark level carries no signal).  No rounding, no clamping.
    """
    calib.validate(scene.width)
    return np.stack([_correct_lines(scene.planes[band], calib, band)
                     for band in range(BAND_COUNT)])


def correct_vignetting(scene: RawScene, calib: CalibrationTable,
                       out: np.ndarray | None = None) -> RawScene:
    """Apply the vignetting correction, quantized back to the scene DN range.

    Each band is corrected ``block_lines(width)`` lines at a time, so the
    float64 intermediates never exceed one block.  The result is written
    into ``out``, an unsigned integer array of the planes' shape whose type
    holds ``scene.max_dn``, or into a new uint16 one when ``out`` is None,
    which leaves ``scene`` untouched.  ``out`` may be ``scene.planes``
    itself, uint8 planes of an 8-bit scene included: each block is read
    before it is written, so a caller that owns the scene corrects it in
    place without a second cube.  It may also be the planes of a file
    (``raster.ScenePlanes``), which each block is written to.
    """
    calib.validate(scene.width)
    if out is None:
        out = np.empty(scene.planes.shape, dtype=np.uint16)
    elif out.shape != scene.planes.shape or out.dtype.kind != "u" \
            or np.iinfo(out.dtype).max < scene.max_dn:
        raise ValueError(f"out must be unsigned, holding DN {scene.max_dn}, of shape "
                         f"{scene.planes.shape}; got {out.dtype} {out.shape}")
    step = block_lines(scene.width)
    # One block of float64, allocated once: allocated anew for every block,
    # it went back to the system and was faulted in again, block after block.
    work = np.empty((min(step, scene.lines), scene.width))
    for band in range(BAND_COUNT):
        for y0 in range(0, scene.lines, step):
            block = slice(y0, y0 + step)
            lines = scene.planes[band, block]
            found = _correct_lines(lines, calib, band, out=work[: len(lines)])
            round_half_up(found, out=found)
            out[band, block] = np.clip(found, 0, scene.max_dn, out=found)
    return RawScene(out, scene.line_times.copy(), scene.bit_depth)


def _edge_center_windows(width: int):
    n = max(1, int(round(width * 0.05)))
    mid = width // 2
    half = n // 2
    center = slice(max(0, mid - half), max(0, mid - half) + n)
    return slice(0, n), slice(width - n, width), center


def edge_center_ratio(plane: np.ndarray, rows) -> float:
    """Brightness falloff from image center to the darker edge, in percent.

    Averages the given rows, then compares the outer and middle windows of
    5% of the columns:

        falloff = 100 * (1 - min(mean_left, mean_right) / mean_center)
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ZeroCenterMean("no rows given")
    left, right, center = _edge_center_windows(plane.shape[1])
    lines = range(plane.shape[0])   # each row read as a run of one line
    sub = np.concatenate([plane[lines[y] : lines[y] + 1] for y in rows.tolist()], dtype=np.float64)
    center_mean = float(sub[:, center].mean())
    if center_mean == 0.0:
        raise ZeroCenterMean("center window mean is zero")
    edge_mean = min(float(sub[:, left].mean()), float(sub[:, right].mean()))
    return 100.0 * (1.0 - edge_mean / center_mean)


@dataclass
class LineProfile:
    """Quadratic approximation of a column profile relative to its maximum.

    ``poly2`` holds (a0, a1, a2) of a0 + a1*u + a2*u^2 over the normalized
    column u in [0, 1]; ``rms_residual`` is the fit residual in relative DN.
    """

    poly2: tuple[float, float, float]
    rms_residual: float

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        a0, a1, a2 = self.poly2
        u = np.asarray(u, dtype=np.float64)
        return a0 + a1 * u + a2 * u * u


def fit_profile_poly2(plane: np.ndarray, rows) -> LineProfile:
    """Fit a second-order polynomial to the relative column profile.

    The profile is the row-averaged DN per column divided by its maximum, so
    values stay in [0, 1] even when the peak is off center.
    """
    plane = np.asarray(plane, dtype=np.float64)
    width = plane.shape[1]
    if width < 3:
        raise DegenerateFit(f"width {width} < 3 cannot determine a quadratic")
    rows = np.asarray(rows, dtype=int)
    profile = plane[rows].mean(axis=0)
    peak = profile.max()
    if peak <= 0:
        raise DegenerateFit("profile is identically zero")
    rel = profile / peak
    u = np.arange(width, dtype=np.float64) / (width - 1)
    design = np.stack([np.ones_like(u), u, u * u], axis=1)
    coeffs, _, rank, _ = np.linalg.lstsq(design, rel, rcond=None)
    if rank < 3:
        raise DegenerateFit("normal matrix is singular")
    resid = design @ coeffs - rel
    rms = float(np.sqrt(np.mean(resid * resid)))
    return LineProfile(poly2=tuple(float(c) for c in coeffs), rms_residual=rms)


def _squares_sum(read, mean: float, a: int, n: int, block: np.ndarray) -> float:
    """Sum of (x - mean)^2 over samples a to a + n of ``read``, as NumPy adds them.

    NumPy sums a contiguous float64 array pairwise: it splits n at n // 2,
    rounded down to a multiple of 8, until a range is short enough to add
    directly.  This follows the same splits down to ranges that fit in
    ``block``, whose sums ``np.add.reduce`` then takes itself, so the total
    has the bits of summing all the deviations at once.  A nested function
    would keep ``block`` alive in a reference cycle after the call.
    """
    if n > block.size:
        half = n // 2 - n // 2 % 8
        return (_squares_sum(read, mean, a, half, block)
                + _squares_sum(read, mean, a + half, n - half, block))
    dev = block[:n]
    dev[:] = read(a, a + n)
    dev -= mean
    np.square(dev, out=dev)
    return np.add.reduce(dev)


def uniformity_std(plane, region=None) -> float:
    """Relative spread of a (nominally uniform) region: 100 * std / mean.

    ``region`` is a pair of slices of positive step (the whole plane when
    None), and the plane an array or a plane in a file.  ``read(a, b)``
    gives samples a to b of the region from the run of lines that holds
    them.  An integer region's mean is its exact sum, read ``BLOCK_PIXELS``
    samples at a time, over its size; a float plane, only ever in memory,
    takes NumPy's own mean.  The deviations are summed along NumPy's tree
    (``_squares_sum``) in one float64 block, so the result equals
    ``ndarray.std`` over ``mean`` of the float64 region.
    """
    if region is None:
        region = (slice(None), slice(None))
    rows, cols = range(plane.shape[0])[region[0]], region[1]
    width = len(range(plane.shape[1])[cols])
    n = len(rows) * width
    if n == 0:
        raise ZeroMean("empty region")

    def read(a: int, b: int) -> np.ndarray:
        first, last = a // width, (b - 1) // width
        lines = plane[rows[first] : rows[last] + 1][:: rows.step, cols]
        return lines.reshape(-1)[a - first * width : b - first * width]

    if plane.dtype.kind == "f":
        mean = float(plane[region].mean(dtype=np.float64))
    else:
        mean = sum(int(read(a, min(a + BLOCK_PIXELS, n)).sum(dtype=np.int64))
                   for a in range(0, n, BLOCK_PIXELS)) / n
    if mean == 0.0:
        raise ZeroMean("region mean is zero")
    block = np.empty(min(n, BLOCK_PIXELS), dtype=np.float64)
    return 100.0 * math.sqrt(float(_squares_sum(read, mean, 0, n, block) / n)) / mean


def calibration_from_flat_field(scene: RawScene,
                                dark_level: float | np.ndarray = 0.0) -> CalibrationTable:
    """Derive a quadratic-approximation calibration from a flat-field scene.

    Fits the second-order profile per band (the standard pre-flight analysis
    form) and inverts it: R = 1 / poly2(u), D = dark_level.  Used when only
    an on-orbit flat-field observation is available.
    """
    width = scene.width
    rows = np.arange(scene.lines)
    u = np.arange(width, dtype=np.float64) / (width - 1)
    dark = np.broadcast_to(np.asarray(dark_level, dtype=np.float64), (BAND_COUNT, width)).copy()
    response = np.empty((BAND_COUNT, width), dtype=np.float64)
    for b in range(BAND_COUNT):
        plane = scene.planes[b].astype(np.float64) - dark[b][np.newaxis, :]
        prof = fit_profile_poly2(np.maximum(plane, 0.0), rows)
        fitted = np.maximum(prof.evaluate(u), 1e-6)
        response[b] = 1.0 / fitted
    return CalibrationTable(response=response, dark=dark)
