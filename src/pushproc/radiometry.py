"""Vignetting correction and radiometric quality metrics.

The correction applies, per band and per detector column i,

    Y_i = R_i * max(X_i - D_i, 0)

where R is the relative response and D the dark level of the calibration
table.  Each image line is corrected independently, so ``correct_vignetting``
walks each band in blocks of ``block_lines(width)`` lines.  Called without
``out`` it is pure: it returns a new scene and leaves its input untouched.
Given ``out=scene.planes`` it corrects the scene's own planes in place,
each block read before it is written; the pipeline, which owns the scene
it loaded, takes that path, so no second cube is built, and an 8-bit
scene stays uint8.  Integer output uses round-half-up and clamps to the
DN range; a float-valued path is exposed so metric code and property
tests are not polluted by quantization.  The metrics convert only the
lines they read, or one block of their region at a time, to float64,
never the whole plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    TooFewLines,
    ZeroCenterMean,
    ZeroMean,
)
from .raster import BAND_COUNT, BLOCK_PIXELS, CalibrationTable, RawScene, block_lines


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties going up (0.5 -> 1)."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


def _correct_lines(lines: np.ndarray, calib: CalibrationTable, band: int) -> np.ndarray:
    """R * max(X - D, 0) of some lines of one band, as float64."""
    return calib.response[band] * np.maximum(lines.astype(np.float64) - calib.dark[band], 0.0)


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
    place without a second cube.
    """
    calib.validate(scene.width)
    if out is None:
        out = np.empty(scene.planes.shape, dtype=np.uint16)
    elif out.shape != scene.planes.shape or out.dtype.kind != "u" \
            or np.iinfo(out.dtype).max < scene.max_dn:
        raise ValueError(f"out must be unsigned, holding DN {scene.max_dn}, of shape "
                         f"{scene.planes.shape}; got {out.dtype} {out.shape}")
    step = block_lines(scene.width)
    for band in range(BAND_COUNT):
        for y0 in range(0, scene.lines, step):
            block = slice(y0, y0 + step)
            out[band, block] = np.clip(
                round_half_up(_correct_lines(scene.planes[band, block], calib, band)),
                0, scene.max_dn)
    return RawScene(out, scene.line_times.copy(), scene.bit_depth)


def build_dark_from_scene(dark_scene: RawScene, min_lines: int = 32) -> np.ndarray:
    """Estimate per-band per-column dark levels from a dark acquisition.

    Deep-space or night-ocean scenes substitute for pre-flight dark frames;
    the estimate is the per-column mean over all lines, rounded to DN.

    Returns
    -------
    dark : float64 [4, width]
    """
    if dark_scene.lines < min_lines:
        raise TooFewLines(f"{dark_scene.lines} lines < minimum {min_lines}")
    means = dark_scene.planes.astype(np.float64).mean(axis=1)
    return round_half_up(means)


def _edge_center_windows(width: int, window_frac: float):
    n = max(1, int(round(width * window_frac)))
    mid = width // 2
    half = n // 2
    center = slice(max(0, mid - half), max(0, mid - half) + n)
    return slice(0, n), slice(width - n, width), center


def edge_center_ratio(plane: np.ndarray, rows, window_frac: float = 0.05) -> float:
    """Brightness falloff from image center to the darker edge, in percent.

    Averages the given rows, then compares the outer and middle windows of
    ``window_frac`` of the columns:

        falloff = 100 * (1 - min(mean_left, mean_right) / mean_center)
    """
    plane = np.asarray(plane)
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ZeroCenterMean("no rows given")
    left, right, center = _edge_center_windows(plane.shape[1], window_frac)
    sub = plane[rows].astype(np.float64)
    center_mean = float(sub[:, center].mean())
    if center_mean == 0.0:
        raise ZeroCenterMean("center window mean is zero")
    edge_mean = min(float(sub[:, left].mean()), float(sub[:, right].mean()))
    return 100.0 * (1.0 - edge_mean / center_mean)


@dataclass
class LineProfile:
    """Column profile relative to its maximum, with a quadratic approximation.

    ``poly2`` holds (a0, a1, a2) of a0 + a1*u + a2*u^2 over the normalized
    column u in [0, 1]; ``rms_residual`` is the fit residual in relative DN.
    """

    values: np.ndarray
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
    return LineProfile(values=rel, poly2=tuple(float(c) for c in coeffs), rms_residual=rms)


def _copy_flat(rows: np.ndarray, start: int, stop: int, out: np.ndarray) -> None:
    """Write samples ``start:stop`` of ``rows``, in line order, into ``out``."""
    w = rows.shape[1]
    r0, c0 = divmod(start, w)
    r1, c1 = divmod(stop, w)
    if r0 == r1:
        out[:] = rows[r0, c0:c1]
        return
    head, body = w - c0, (r1 - r0 - 1) * w
    out[:head] = rows[r0, c0:]
    out[head : head + body].reshape(-1, w)[...] = rows[r0 + 1 : r1]
    if c1:
        out[head + body :] = rows[r1, :c1]


def _squared_deviation_sum(rows: np.ndarray, mean: float, start: int, stop: int,
                           block: np.ndarray) -> float:
    """Sum of (x - mean)^2 over samples ``start:stop`` of ``rows``, as NumPy adds them.

    NumPy sums a contiguous float64 array pairwise: it splits n at n // 2,
    rounded down to a multiple of 8, until a range is short enough to add
    directly.  This follows the same splits down to ranges that fit in
    ``block``, whose sums ``np.add.reduce`` then takes itself, so the total
    has the bits of summing all the deviations at once.
    """
    n = stop - start
    if n > block.size:
        half = n // 2 - n // 2 % 8
        return (_squared_deviation_sum(rows, mean, start, start + half, block)
                + _squared_deviation_sum(rows, mean, start + half, stop, block))
    dev = block[:n]
    _copy_flat(rows, start, stop, dev)
    dev -= mean
    np.square(dev, out=dev)
    return np.add.reduce(dev)


def uniformity_std(plane: np.ndarray, region=None) -> float:
    """Relative spread of a (nominally uniform) region: 100 * std / mean.

    The mean is taken on the region as it is.  The deviations from it are
    converted to float64 and squared ``BLOCK_PIXELS`` samples at a time,
    so one block of float64 is alive, whatever the region's size.  The
    result equals ``ndarray.std`` over ``mean`` of the float64 region: the
    blocks' sums are added along the tree NumPy sums a whole array by
    (``_squared_deviation_sum``), and an integer region's mean is exact in
    any order.
    """
    plane = np.asarray(plane)
    if region is None:
        region = (slice(None), slice(None))
    sub = plane[region]
    if sub.size == 0:
        raise ZeroMean("empty region")
    mean = float(sub.mean(dtype=np.float64))
    if mean == 0.0:
        raise ZeroMean("region mean is zero")
    rows = sub.reshape(-1, sub.shape[-1]) if sub.ndim else sub.reshape(1, 1)
    block = np.empty(min(sub.size, BLOCK_PIXELS), dtype=np.float64)
    total = _squared_deviation_sum(rows, mean, 0, sub.size, block)
    return 100.0 * math.sqrt(float(total / sub.size)) / mean


def calibration_from_flat_field(scene: RawScene, dark_level: float | np.ndarray = 0.0,
                                rows=None) -> CalibrationTable:
    """Derive a quadratic-approximation calibration from a flat-field scene.

    Fits the second-order profile per band (the standard pre-flight analysis
    form) and inverts it: R = 1 / poly2(u), D = dark_level.  Used when only
    an on-orbit flat-field observation is available.
    """
    width = scene.width
    if rows is None:
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
