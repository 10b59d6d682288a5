"""Band co-registration: gradient-based tile matching and polynomial warping.

The chain mirrors the production flow for pushbroom band alignment:

1. The gradient magnitude of the Gaussian-smoothed plane (Canny's first
   stage), read by ``_gradient_tiles`` alone, is the high-pass filter, so
   matching keys on structure, not band radiometry, and a
   contrast-reversed band (``|-g| = |g|``) matches too.  ``_magnitude``
   reads each block of a window once, with the Gaussian radius and Sobel's
   pixel around it mirrored beyond the plane border, and smooths,
   differentiates and takes the magnitude in one pass.  Its filters are
   NumPy kernels that repeat the arithmetic of ``scipy.ndimage`` and give
   its bits: the Gaussian's passes (``_taps``) add the taps in the order
   of its ``NI_Correlate1D``, and Sobel forms its differences and sums in
   scipy's order.  The tests keep ``scipy.ndimage`` as their oracle.
2. A grid of tiles is matched by FFT cross-correlation with per-axis
   parabola subpixel refinement.  ``match_bands`` walks the grid's column
   strips (``TileGrid``) and prepares each reference tile once (mean
   removed, energy, padded spectrum) for every target.
3. Matches are gated within ``GATE_RADIUS_PX`` of an attitude-derived
   shift prior, then cleaned by a median/MAD pass.
4. A bivariate polynomial shift field is fit and the target band is
   resampled through the inverse map with bilinear interpolation, one
   block of ``block_lines(width)`` lines at a time, so no full-plane
   coordinate grid is built.  The NumPy kernel repeats the arithmetic of
   scipy's order-1 ``map_coordinates``, so its samples are bit-identical
   to that call's.  Each block reads only the source lines its field can
   reach (``_line_reach``), so a plane kept in a file is read in windows.
   The warp always overwrites its source, in place
   (``resample(band, model, out=band)``) or in a copy (``out=None``): each
   finished block is held only until no later block reads the lines it
   overwrites.  Each block counts its own masked pixels, so no
   plane-sized mask is built.

Planes are read only through ``plane[rows, cols]`` windows and their
``shape``, so every step takes a plane in memory or the plane of a file
(``raster.ScenePlanes``) alike.

All operations are pure, except ``resample`` with ``out=tgt_plane``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AllRejected,
    FlatTile,
    MissingAttitude,
    NoMatches,
    OutOfBounds,
    SingularFit,
    TooFewMatches,
)
from .raster import BandId, block_lines, round_half_up
from .georef.attitude import slerp_attitude
from .georef.frames import WGS84_A_KM, eci_to_ecef
from .georef.metadata import AcqMetadata


# --------------------------------------------------------------- gradient

# Columns that a ``TileGrid`` strip keeps on each side of its tiles.  No
# filter reads them; they keep every tile a strided view of a wider strip,
# which fixes the order in which ``_prepare_tile`` sums (see there).
BLUR_RADIUS = 4


@functools.lru_cache
def _gaussian_weights(sigma: float) -> list[float]:
    """Taps of scipy's ``gaussian_filter1d`` (truncate 4), in the order it correlates them."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return (phi / phi.sum())[::-1].tolist()


def _taps(src: np.ndarray, step: int, weights: list[float], out: np.ndarray,
          tmp: np.ndarray) -> None:
    """Symmetric correlation along one axis of flat line-major buffers.

    ``out[m] = src[m + r step] w[r] + sum over k = r .. 1 of
    (src[m + (r - k) step] + src[m + (r + k) step]) w[r - k]``, for the
    ``2r + 1`` weights ``w``: ``step`` is the buffer's line stride for a
    pass down the columns, 1 for a pass along the lines.  The centre tap
    comes first and the pairs follow from the outermost inward, which is
    the order of scipy's ``NI_Correlate1D``, so the sums carry its bits.
    ``tmp`` holds at least ``out.size`` values.
    """
    n, r = out.size, len(weights) // 2
    pair = tmp[:n]
    np.multiply(src[r * step : r * step + n], weights[r], out=out)
    for k in range(r, 0, -1):
        np.add(src[(r - k) * step : (r - k) * step + n], src[(r + k) * step : (r + k) * step + n],
               out=pair)
        pair *= weights[r - k]
        out += pair


def _reflect(i: int, n: int) -> int:
    """The index that sample ``i`` of a line of ``n`` samples reads under scipy's ``reflect``."""
    i %= 2 * n
    return i if i < n else 2 * n - 1 - i


def _load(buf: np.ndarray, plane: np.ndarray, rows: slice, cols: slice, r: int) -> None:
    """Copy ``plane[rows, cols]`` widened by ``r`` on every side into ``buf`` as float64.

    ``buf`` is 2-D, ``r`` lines and columns larger than the window on each
    side.  The widening reads the plane where it has samples and mirrors
    them beyond its border (``reflect``, period 2n for lines shorter than
    ``r``), which is what a whole-plane filter reads there.
    """
    h, w = plane.shape
    top, left = rows.start - r, cols.start - r
    ya, yb = max(top, 0), min(rows.stop + r, h)
    xa, xb = max(left, 0), min(cols.stop + r, w)
    np.copyto(buf[ya - top : yb - top, xa - left : xb - left], plane[ya:yb, xa:xb],
              casting="unsafe")
    lines = buf[ya - top : yb - top]
    for x in itertools.chain(range(left, xa), range(xb, cols.stop + r)):
        lines[:, x - left] = lines[:, _reflect(x, w) - left]
    for y in itertools.chain(range(top, ya), range(yb, rows.stop + r)):
        buf[y - top] = buf[_reflect(y, h) - top]


def _magnitude(plane: np.ndarray, window: tuple[slice, slice], out: np.ndarray | None = None,
               sigma: float = 1.4) -> np.ndarray:
    """Gradient magnitude of the Gaussian-smoothed plane over one window, as float64.

    ``hypot(sobel_x, sobel_y)`` of ``gaussian_filter(plane, sigma)``, the
    first stage of Canny's detector, bit for bit as ``scipy.ndimage`` gives
    it over the whole plane (mode ``reflect``, truncate 4, the Gaussian
    down the columns first).  The window is walked in blocks of
    ``block_lines`` of ``stride``, its width plus twice the Gaussian radius
    ``r`` and Sobel's pixel.  Each block is read once (``_load``) with a
    halo of ``r + 1`` mirrored beyond the plane border, and the two
    ``_taps`` passes smooth it into the block and a one-pixel border, which
    Sobel reads.  Beyond the border that is the smoothed plane mirrored, to
    the bit, as Sobel's ``reflect`` reads it: ``reflect`` is symmetric
    about the border (line -1 - i reads line i), so the centre tap of line
    -1 is line 0 and its pairs are line 0's, each swapped, which ``_taps``
    adds as one sum (``a + b == b + a``).  Sobel uses scipy's arithmetic:
    the difference ``x[i+1] - x[i-1]`` (exactly ``(x[i-1] - x[i+1]) * -1``)
    smoothed as ``(x[i-1] + x[i+1]) + 2 x[i]``.  Four flat buffers of line
    stride ``stride`` are allocated once per call.  The magnitude is
    written into ``out`` when it is given (float64 of the window's shape),
    or into a new array, which is returned.
    """
    rows, cols = window
    width = cols.stop - cols.start
    if out is None:
        out = np.empty((rows.stop - rows.start, width))
    weights = _gaussian_weights(sigma)
    r = len(weights) // 2
    stride = width + 2 * (r + 1)
    step = block_lines(stride)
    tallest = min(step, rows.stop - rows.start) + 2
    loaded = np.empty((tallest + 2 * r) * stride)
    # Zeroed: the smoothing leaves the last 2r values of a block's flat
    # buffer unwritten, and Sobel reads them for columns it does not keep.
    smooth = np.zeros(tallest * stride)
    gx, gy = np.empty(tallest * stride), np.empty(tallest * stride)
    for y0 in range(rows.start, rows.stop, step):
        y1 = min(y0 + step, rows.stop)
        lines = y1 - y0
        _load(loaded[: (lines + 2 + 2 * r) * stride].reshape(-1, stride), plane,
              slice(y0, y1), cols, r + 1)
        # The smoothed block and its border, line -1 to ``lines`` and
        # column -1 to ``width``, land at ``(i + 1) * stride + j + 1`` of
        # the flat smooth; the gradients' buffers are idle until Sobel, and
        # the smoothing works in them.
        n = (lines + 2) * stride
        _taps(loaded, stride, weights, gx[:n], gy)
        _taps(gx, 1, weights, smooth[: n - 2 * r], loaded)
        # The gradients at block pixel (i, j) are at ``i * stride + j`` of
        # the flat gx and gy.
        m = lines * stride - 2
        # gx: the difference along the lines, smoothed down the columns;
        # gy holds its doubled middle term.
        diff = loaded
        np.subtract(smooth[2:n], smooth[: n - 2], out=diff[: n - 2])
        np.add(diff[stride : stride + m], diff[stride : stride + m], out=gy[:m])
        np.add(diff[:m], diff[2 * stride : 2 * stride + m], out=gx[:m])
        gx[:m] += gy[:m]
        # gy: the difference down the columns, smoothed along the lines;
        # the smoothed block is no longer read, so its buffer holds the
        # doubled middle term.
        np.subtract(smooth[2 * stride : n], smooth[: lines * stride], out=diff[: lines * stride])
        np.add(diff[1 : 1 + m], diff[1 : 1 + m], out=smooth[:m])
        np.add(diff[:m], diff[2 : 2 + m], out=gy[:m])
        gy[:m] += smooth[:m]
        np.hypot(gx[: lines * stride].reshape(lines, stride)[:, :width],
                 gy[: lines * stride].reshape(lines, stride)[:, :width],
                 out=out[y0 - rows.start : y1 - rows.start])
    return out


@dataclass(frozen=True)
class TileGrid:
    """Tile windows of one matching grid and the column strips of the plane that hold them.

    ``tile_size`` squares are centred on a ``grid_nx`` x ``grid_ny``
    lattice kept ``margin`` pixels inside a plane of ``shape``.  Each
    tile's columns, widened by ``BLUR_RADIUS`` and clipped to the plane,
    are merged with those they overlap or touch; a block is one merged
    column interval, a strip of the plane's full height, whose reader
    (``_gradient_tiles``) computes only the lines its tiles read.  Blocks
    are disjoint, and each tile lies in one block at least ``BLUR_RADIUS``
    columns from each edge that is not a plane edge.  Columns of tiles
    that lie apart thus get a strip each, and a dense grid one strip.

    ``tiles`` lists (tile_id, column centre, line centre, block index) in
    tile_id order, which is line order within a block; ``blocks`` lists
    column slices.
    """

    shape: tuple[int, int]
    tile_size: int
    grid_nx: int
    grid_ny: int
    margin: int = 0

    def __post_init__(self):
        h, w = self.shape
        size, margin = self.tile_size, self.margin
        if size + 2 * margin > min(h, w) or self.grid_nx < 1 or self.grid_ny < 1:
            raise OutOfBounds(
                f"grid {self.grid_nx}x{self.grid_ny} of {size}px tiles does not fit in {w}x{h}"
            )
        # More tiles than distinct centres on an axis would only repeat
        # tiles; checked before any list is built.
        if self.grid_nx > w - size - 2 * margin + 1 or self.grid_ny > h - size - 2 * margin + 1:
            raise OutOfBounds(
                f"grid {self.grid_nx}x{self.grid_ny} has more tiles than the "
                f"{w - size - 2 * margin + 1}x{h - size - 2 * margin + 1} centres of "
                f"{size}px tiles in {w}x{h}"
            )
        half = size // 2

        def centres(length: int, count: int) -> list[int]:
            return [int(round(c)) for c in
                    np.linspace(half + margin, length - size + half - margin, count)]

        xs, ys = centres(w, self.grid_nx), centres(h, self.grid_ny)
        covered = np.zeros(w, dtype=bool)
        for x in xs:
            covered[max(x - half - BLUR_RADIUS, 0) : x - half + size + BLUR_RADIUS] = True
        # Each run of covered columns is a strip.
        edges = np.flatnonzero(np.diff(covered, prepend=False, append=False)).tolist()
        blocks = [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]
        owner = [next(k for k, cols in enumerate(blocks) if cols.start <= x - half < cols.stop)
                 for x in xs]
        tiles = [(j * self.grid_nx + i, xs[i], ys[j], owner[i])
                 for j in range(self.grid_ny) for i in range(self.grid_nx)]
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "tiles", tiles)


# --------------------------------------------------------------- matching

# The pipeline's tile grids: GRID_TILES x GRID_TILES tiles of TILE_SIZE
# pixels to match, and about RESIDUAL_POINTS to check the residual.
TILE_SIZE, GRID_TILES, RESIDUAL_POINTS = 128, 8, 50


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _parabola_offset(c_minus: float, c_zero: float, c_plus: float) -> float:
    denom = c_minus - 2.0 * c_zero + c_plus
    if denom >= 0.0:
        # Not a local maximum in this axis; leave the integer estimate.
        return 0.0
    offset = 0.5 * (c_minus - c_plus) / denom
    if abs(offset) > 0.5 or abs(offset) < 1e-9:
        # Beyond half a pixel the fit is unreliable; below a nanopixel it is
        # numerical noise on a symmetric peak.
        return 0.0
    return offset


class _PreparedTile(NamedTuple):
    """A tile's zero-mean samples as a spectrum padded to ``shape``, and their energy's root."""

    spectrum: np.ndarray
    energy: float
    shape: tuple[int, int]


def _prepare_tile(tile: np.ndarray) -> _PreparedTile | None:
    """The tile prepared for ``_correlate``, padded to powers of two; ``None`` when flat."""
    # ``mean`` and ``sum`` add in another order when the tile is C-contiguous,
    # as it is when its strip is no wider than the tile.  So ``TileGrid``'s
    # ``BLUR_RADIUS`` widening is not byte-neutral: without it, swath-georef's
    # residual figures move in their last digits.
    a = np.asarray(tile, dtype=np.float64)
    a = a - a.mean()
    energy = math.sqrt(float(np.sum(a * a)))
    if energy == 0.0:
        return None
    h, w = a.shape
    ph, pw = _next_pow2(h), _next_pow2(w)
    if (ph, pw) != (h, w):
        padded = np.zeros((ph, pw))
        padded[:h, :w] = a
        a = padded
    # rfft2 is these two transforms, in this order; called directly they
    # skip its argument handling.
    return _PreparedTile(np.fft.fft(np.fft.rfft(a, axis=1), axis=0), energy, (ph, pw))


def _correlate(ref: _PreparedTile, tgt: _PreparedTile) -> tuple[float, float, float]:
    """Shift and score of a prepared target tile against a prepared reference tile."""
    # irfft2, as ifft down the columns and then irfft along the lines.
    corr = np.fft.irfft(np.fft.ifft(tgt.spectrum * np.conj(ref.spectrum), axis=0),
                        n=ref.shape[1], axis=1)
    corr /= ref.energy * tgt.energy
    peak_y, peak_x = np.unravel_index(int(np.argmax(corr)), corr.shape)
    # The correlation of zero-mean tiles sums to 0, so its peak is >= 0; rounding can pass 1.
    score = min(float(corr[peak_y, peak_x]), 1.0)

    ny, nx = corr.shape
    dy = _parabola_offset(
        corr[(peak_y - 1) % ny, peak_x], corr[peak_y, peak_x], corr[(peak_y + 1) % ny, peak_x]
    )
    dx = _parabola_offset(
        corr[peak_y, (peak_x - 1) % nx], corr[peak_y, peak_x], corr[peak_y, (peak_x + 1) % nx]
    )
    shift_y = peak_y + dy
    shift_x = peak_x + dx
    if shift_y > ny / 2:
        shift_y -= ny
    if shift_x > nx / 2:
        shift_x -= nx
    return float(shift_x), float(shift_y), score


def fft_xcorr(tile_ref: np.ndarray, tile_tgt: np.ndarray) -> tuple[float, float, float]:
    """Shift of the target tile relative to the reference tile.

    Normalized circular cross-correlation via FFT; the integer peak is
    refined per axis by a 3-point parabola.  Shifts are reported in
    (-N/2, N/2] and the score is the normalized peak value in [0, 1]:
    matching a tile against itself scores exactly 1 at (0, 0).
    """
    a = np.asarray(tile_ref, dtype=np.float64)
    b = np.asarray(tile_tgt, dtype=np.float64)
    if a.shape != b.shape:
        raise OutOfBounds(f"tile shapes differ: {a.shape} vs {b.shape}")
    ref, tgt = _prepare_tile(a), _prepare_tile(b)
    if ref is None or tgt is None:
        raise FlatTile("zero-variance tile, no structure to match")
    return _correlate(ref, tgt)


@dataclass(slots=True)
class MatchPoint:
    """One tile-matching observation: target shift relative to reference."""

    tile_id: int
    x_ref: float
    y_ref: float
    dx: float
    dy: float
    score: float


def _gradient_tiles(planes: list[np.ndarray], cols: slice,
                    size: int) -> Callable[[int, int], np.ndarray]:
    """Every plane's gradient magnitude over one column strip, read a tile window at a time.

    The feature is ``_magnitude``, which is pointwise: a window's values
    are those of the whole plane, whatever the strip.  ``read(y0, x0)``
    gives every plane's ``size`` x ``size`` window from line ``y0`` and
    column ``x0`` of the plane, inside the strip, as one view that holds
    until the next call; ``y0`` never decreases from call to call.  The
    magnitude is computed as the windows reach new lines, down to each
    window's last line, over the strip's columns into ``size`` held lines
    per plane, and no line twice; a line that no window reaches is never
    computed.
    """
    width = cols.stop - cols.start
    # Lines [top, stop) of the plane's magnitude are held, from line 0 of ``held``.
    held = np.empty((len(planes), size, width))
    top = stop = 0

    def read(y0: int, x0: int) -> np.ndarray:
        nonlocal top, stop
        if y0 + size > stop:
            # Keep the held lines from y0 on and compute the lines after them.
            start = max(stop, y0)
            stop = y0 + size
            for lines, plane in zip(held, planes):
                # As one flat run the kept lines move up in place; NumPy
                # copies an overlapping 2-D move through a temporary.
                flat = lines.reshape(-1)
                flat[: (start - y0) * width] = flat[(y0 - top) * width : (start - top) * width]
                _magnitude(plane, (slice(start, stop), cols), lines[start - y0 : stop - y0])
            top = y0
        x = x0 - cols.start
        return held[:, y0 - top : y0 - top + size, x : x + size]

    return read


def match_bands(ref_plane: np.ndarray, grid: TileGrid, tgt_planes: list[np.ndarray],
                min_score: float = 0.1) -> list[list[MatchPoint]]:
    """Match the tiles of ``grid`` on the reference plane against each target plane.

    Strip by strip, each strip's tiles in tile_id order: ``_gradient_tiles``
    reads a tile of every plane, and the reference tile, prepared once, is
    correlated with each target's.  Tiles flat in either plane, or scoring
    under ``min_score``, are dropped.  One list per target, maybe empty,
    comes back sorted by tile_id (strips visit tiles out of order).
    """
    planes = [ref_plane, *tgt_planes]
    for plane in planes:
        if plane.shape != grid.shape:
            raise OutOfBounds(f"plane shape {plane.shape} is not the grid's {grid.shape}")
    size, half = grid.tile_size, grid.tile_size // 2
    matches = [[] for _ in planes[1:]]
    for k, cols in enumerate(grid.blocks):
        read = _gradient_tiles(planes, cols, size)
        for tile_id, cx, cy, owner in grid.tiles:
            if owner != k:
                continue
            ref_tile, *tgt_tiles = read(cy - half, cx - half)
            ref = _prepare_tile(ref_tile)
            if ref is None:
                continue
            for kept, tile in zip(matches, tgt_tiles):
                tgt = _prepare_tile(tile)
                if tgt is None:
                    continue
                dx, dy, score = _correlate(ref, tgt)
                if score >= min_score:
                    kept.append(MatchPoint(tile_id=tile_id, x_ref=float(cx), y_ref=float(cy),
                                           dx=dx, dy=dy, score=score))
    return [sorted(kept, key=lambda m: m.tile_id) for kept in matches]


def require_matches(matches: list[MatchPoint]) -> list[MatchPoint]:
    """``matches`` as they are; ``NoMatches`` when every tile was dropped."""
    if not matches:
        raise NoMatches("every tile was rejected (flat or below min_score)")
    return matches


def collect_matches(
    ref_plane: np.ndarray,
    tgt_plane: np.ndarray,
    tile_size: int = TILE_SIZE,
    grid_nx: int = GRID_TILES,
    grid_ny: int = GRID_TILES,
    min_score: float = 0.1,
    margin: int = 0,
) -> list[MatchPoint]:
    """Match a tile grid between two band planes on their gradient magnitudes.

    The one-band call of ``match_bands``: each tile is a window of both
    planes' smoothed gradient magnitude.
    Tiles whose score falls under ``min_score`` (or that are
    structureless) are dropped; the survivors come back sorted by tile_id,
    and ``NoMatches`` is raised when none is left.
    """
    if tile_size < 32:
        raise OutOfBounds(f"tile_size {tile_size} < 32")
    ref_plane = np.asarray(ref_plane)
    tgt_plane = np.asarray(tgt_plane)
    grid = TileGrid(ref_plane.shape, tile_size, grid_nx, grid_ny, margin)
    [matches] = match_bands(ref_plane, grid, [tgt_plane], min_score)
    return require_matches(matches)


# ------------------------------------------------------------ shift prior

# Matches farther than this (in pixels) from the shift prior are rejected.
GATE_RADIUS_PX = 5.0


@dataclass
class ShiftPrior:
    """Predicted inter-band shift; ``remove_outliers`` gates at ``GATE_RADIUS_PX`` around it."""

    dx: float
    dy: float


def predict_shift_prior(
    metadata: AcqMetadata,
    band_pair: tuple[BandId, BandId],
) -> ShiftPrior:
    """Predict the bulk shift between two bands from geometry and attitude.

    Detector rows of different bands are separated along-track.  The
    angular separation maps to a ground distance of rows * GSD, which the
    line clock covers in rows * GSD / (v_ground * line_period) image lines;
    the shift magnitude therefore equals the row separation exactly when
    the line period is matched to the ground speed, and it grows with the
    slant range as 1/cos(off-nadir angle) when the attitude is off-pointed.
    A band looking forward (positive row offset in the ray formula) images
    each ground feature earlier, i.e. at lower line indices, so the
    predicted dy carries the opposite sign of the row separation.
    """
    if not metadata.attitude:
        raise MissingAttitude("metadata carries no attitude samples")
    imager = metadata.imager
    ref_band, tgt_band = band_pair
    delta_rows = imager.band_row_offset.get(tgt_band, 0.0) - imager.band_row_offset.get(
        ref_band, 0.0
    )

    # Mid-span attitude and state give the viewing geometry.
    t_mid = 0.5 * (metadata.attitude[0].t + metadata.attitude[-1].t)
    q = slerp_attitude(metadata.attitude, t_mid)
    state = metadata.orbit.state_at(t_mid)
    boresight_eci = q.rotate(imager.boresight_matrix() @ np.array([0.0, 0.0, 1.0]))
    nadir_eci = -state.r_eci / np.linalg.norm(state.r_eci)
    cos_offnadir = max(min(float(boresight_eci @ nadir_eci), 1.0), 0.1)

    # Ground speed from the Earth-fixed motion of the subsatellite point.
    dt = 1.0
    r0 = eci_to_ecef(state.r_eci, t_mid)
    r1 = eci_to_ecef(metadata.orbit.state_at(t_mid + dt).r_eci, t_mid + dt)
    radius = float(np.linalg.norm(r0))
    ground_speed_kms = float(np.linalg.norm(r1 - r0)) / dt * (WGS84_A_KM / radius)
    altitude_km = radius - WGS84_A_KM
    gsd_km = altitude_km * imager.ifov_rad
    if gsd_km <= 0 or metadata.line_period_s <= 0 or ground_speed_kms <= 0:
        speed_ratio = 1.0
    else:
        speed_ratio = gsd_km / (ground_speed_kms * metadata.line_period_s)

    dy = -delta_rows * speed_ratio / cos_offnadir
    return ShiftPrior(dx=0.0, dy=float(dy))


def _median(values: np.ndarray) -> float:
    """``np.median`` of finite values: the middle one, or the mean of the middle two.

    Sorting directly skips ``np.median``'s NaN check, which imports
    ``numpy.ma`` on first use.
    """
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def remove_outliers(
    matches: list[MatchPoint],
    prior: ShiftPrior | None = None,
) -> list[MatchPoint]:
    """Two-pass robust rejection: prior gate, then median/MAD clipping.

    The gate keeps matches within ``GATE_RADIUS_PX`` of the prior; without
    attitude metadata the prior falls back to the match medians.  The
    second pass keeps shifts within 3 MADs (at least 0.5 px each) of the
    gated median on each axis.  Order is preserved.
    """
    if not matches:
        raise AllRejected("no matches supplied")
    dx = np.array([m.dx for m in matches])
    dy = np.array([m.dy for m in matches])
    if prior is None:
        prior = ShiftPrior(dx=_median(dx), dy=_median(dy))

    dist = np.hypot(dx - prior.dx, dy - prior.dy)
    gate_keep = dist <= GATE_RADIUS_PX
    if not gate_keep.any():
        raise AllRejected(f"all {len(matches)} matches fall outside the {GATE_RADIUS_PX}px gate")

    kept_dx = dx[gate_keep]
    kept_dy = dy[gate_keep]
    med_dx, med_dy = _median(kept_dx), _median(kept_dy)
    mad_dx = max(_median(np.abs(kept_dx - med_dx)), 0.5)
    mad_dy = max(_median(np.abs(kept_dy - med_dy)), 0.5)
    final_keep = gate_keep & (np.abs(dx - med_dx) <= 3.0 * mad_dx) \
        & (np.abs(dy - med_dy) <= 3.0 * mad_dy)
    if not final_keep.any():
        raise AllRejected("median/MAD pass rejected every match")
    return [m for m, keep in zip(matches, final_keep) if keep]


# -------------------------------------------------------- distortion model

def _exponents(order: int) -> tuple[tuple[int, int], ...]:
    """(i, j) of every monomial x^i y^j with i + j <= order: by i + j, then by j."""
    return tuple((total - j, j) for total in range(order + 1) for j in range(total + 1))


def _poly_terms(order: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bivariate monomials x^i y^j with i+j <= order, in the order of ``_exponents``."""
    return np.stack([x ** i * y ** j for i, j in _exponents(order)], axis=-1)


def n_coefficients(order: int) -> int:
    return len(_exponents(order))


@dataclass
class DistortionModel:
    """Bivariate polynomial shift field over normalized image coordinates."""

    order: int
    coeff_dx: np.ndarray
    coeff_dy: np.ndarray
    width: int
    height: int
    rms_fit: float = 0.0

    def evaluate(self, x: np.ndarray, y: np.ndarray,
                 out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Shift (dx, dy) in pixels at pixel coordinates (x, y).

        ``x`` and ``y`` broadcast against each other, so a row of columns
        and a column of lines give the field over their grid.  The terms
        c_k * x^i * y^j are added one at a time, in the order of
        ``_exponents``, without stacking the monomials.  A pure term is
        the power alone (x^0 = y^0 = 1 exactly, so the sum is the same), and
        only a mixed term spans the broadcast shape.  ``out``, when given,
        is four float64 arrays of the broadcast shape: dx and dy are written
        into the first two, and a mixed term and its product with a
        coefficient are formed in the other two, so a caller that evaluates
        block after block allocates no array of the block's shape.
        """
        xn = np.asarray(x, dtype=np.float64) / max(self.width - 1, 1)
        yn = np.asarray(y, dtype=np.float64) / max(self.height - 1, 1)
        shape = np.broadcast_shapes(xn.shape, yn.shape)
        if out is None:
            dx, dy, mixed, scaled = np.empty(shape), np.empty(shape), None, None
        else:
            dx, dy, mixed, scaled = out
        dx[...] = self.coeff_dx[0]
        dy[...] = self.coeff_dy[0]
        for k, (i, j) in enumerate(_exponents(self.order)[1:], start=1):
            if j == 0:
                term = xn ** i
            elif i == 0:
                term = yn ** j
            else:
                term = np.multiply(xn ** i, yn ** j, out=mixed)
            product = scaled if term is mixed else None
            dx += np.multiply(term, self.coeff_dx[k], out=product)
            dy += np.multiply(term, self.coeff_dy[k], out=product)
        return dx, dy

    def to_dict(self) -> dict:
        """The model as plain JSON values, as the report stores it."""
        return {
            "order": self.order,
            "coeff_dx": [float(c) for c in self.coeff_dx],
            "coeff_dy": [float(c) for c in self.coeff_dy],
            "width": self.width,
            "height": self.height,
            "rms_fit": self.rms_fit,
        }


def fit_distortion(matches: list[MatchPoint], order: int = 2, *, width: int,
                   height: int) -> DistortionModel:
    """Least-squares fit of independent dx(x, y) and dy(x, y) polynomials.

    Requires at least twice as many matches as coefficients per component
    so the fit is meaningfully overdetermined.
    """
    ncoef = n_coefficients(order)
    if len(matches) < 2 * ncoef:
        raise TooFewMatches(f"{len(matches)} matches < required {2 * ncoef} for order {order}")
    if width <= 1 or height <= 1:
        raise SingularFit("model needs the plane dimensions for normalization")
    x = np.array([m.x_ref for m in matches]) / (width - 1)
    y = np.array([m.y_ref for m in matches]) / (height - 1)
    dx = np.array([m.dx for m in matches])
    dy = np.array([m.dy for m in matches])
    design = _poly_terms(order, x, y)
    coeff_dx, _, rank_x, _ = np.linalg.lstsq(design, dx, rcond=None)
    coeff_dy, _, rank_y, _ = np.linalg.lstsq(design, dy, rcond=None)
    if rank_x < ncoef or rank_y < ncoef:
        raise SingularFit(f"design rank {min(rank_x, rank_y)} < {ncoef} coefficients")
    resid = np.concatenate([design @ coeff_dx - dx, design @ coeff_dy - dy])
    rms = float(np.sqrt(np.mean(resid * resid)))
    return DistortionModel(
        order=order, coeff_dx=coeff_dx, coeff_dy=coeff_dy,
        width=width, height=height, rms_fit=rms,
    )


def _bilinear(flat: np.ndarray, shape: tuple[int, int], src_x: np.ndarray,
              src_y: np.ndarray, ok: np.ndarray, first: int,
              work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Bilinear samples of a plane, rounded half up, with 0 where not ``ok``.

    ``flat`` is the samples of a plane of ``shape`` in line order, from
    line ``first`` on through every line the samples read, and
    ``src_x``/``src_y`` are the coordinates of in-bounds samples where
    ``ok`` holds; the coordinate arrays and ``ok`` are overwritten, and
    the coordinates where ``ok`` fails are moved to the window's first
    sample.  The arithmetic is that of scipy's
    order-1 ``map_coordinates``: per axis the weights are w0 = 1 - t and
    w1 = 1 - w0, and the corners are added in line-major order, each as
    (value * y weight) * x weight.  The far neighbour is clipped to the
    plane, so a sample on the last line or column reads it with weight 0.
    Intermediates are written in place, into the coordinate arrays and
    the two float64 arrays of their shape in ``work``, and the samples
    come back in the second of these.
    """
    h, w = shape
    off = np.logical_not(ok, out=ok)
    np.copyto(src_x, 0.0, where=off)
    np.copyto(src_y, float(first), where=off)
    step_x = src_x < w - 1
    step_y = src_y < h - 1
    # Flat index of the near corner in the window, held in ``part``'s
    # memory until the corners are gathered; the float to integer cast
    # truncates, which is the floor of a coordinate that is not negative.
    part, acc = work
    index = part.view(np.int64)
    np.copyto(index, src_y, casting="unsafe")
    index -= first
    index *= w
    np.add(index, src_x, out=index, dtype=np.int64, casting="unsafe")
    v00 = flat.take(index)
    index += step_x
    v01 = flat.take(index)
    np.add(index, w, out=index, where=step_y)
    v11 = flat.take(index)
    index -= step_x
    v10 = flat.take(index)
    del index, step_x, step_y
    np.floor(src_x, out=part)
    wx0 = np.subtract(1.0, np.subtract(src_x, part, out=src_x), out=src_x)
    np.floor(src_y, out=part)
    wy0 = np.subtract(1.0, np.subtract(src_y, part, out=src_y), out=src_y)
    np.subtract(1.0, wx0, out=acc)              # wx1
    np.multiply(v01, wy0, out=part)
    part *= acc                                 # corner (y0, x1)
    np.multiply(v00, wy0, out=acc)
    acc *= wx0                                  # corner (y0, x0)
    acc += part
    wy1 = np.subtract(1.0, wy0, out=wy0)
    np.multiply(v10, wy1, out=part)
    part *= wx0
    acc += part
    wx1 = np.subtract(1.0, wx0, out=wx0)
    np.multiply(v11, wy1, out=part)
    part *= wx1
    acc += part
    round_half_up(acc, out=acc)
    np.copyto(acc, 0.0, where=off)
    return acc


def _line_reach(model: DistortionModel, shape: tuple[int, int]) -> tuple[int, int]:
    """Bounds ``low <= 0 < high``: output lines [y0, y1) read lines [y0 + low, y1 + high).

    Normalized coordinates lie in [0, X] x [0, Y], so dy lies between
    least = c0 + sum of min(c_k, 0) X^i Y^j and most = c0 + sum of
    max(c_k, 0) X^i Y^j, up to rounding, which the slack s > 0 covers.
    Line y reads lines floor(y + dy) and the next, so [y0, y1) reads from
    y0 + floor(least - s) >= y0 + low up to y1 + floor(most) < y1 + high,
    as high >= ceil(most + s): no margin beyond s is needed.  A field
    without finite bounds may read any line of the plane.
    """
    h, w = shape
    big_x = (w - 1) / max(model.width - 1, 1)
    big_y = (h - 1) / max(model.height - 1, 1)
    c0, *coeffs = np.asarray(model.coeff_dy, dtype=np.float64).tolist()
    powers = [big_x ** i * big_y ** j for i, j in _exponents(model.order)[1:]]
    least = c0 + sum(min(c, 0.0) * p for c, p in zip(coeffs, powers))
    most = c0 + sum(max(c, 0.0) * p for c, p in zip(coeffs, powers))
    slack = 1e-9 * (abs(c0) + sum(abs(c) * p for c, p in zip(coeffs, powers)) + h)
    if not (math.isfinite(least - slack) and math.isfinite(most + slack)):
        return -h, h
    return min(math.floor(least - slack), 0), max(math.ceil(most + slack), 1)


def resample(tgt_plane: np.ndarray, model: DistortionModel,
             out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Warp the target plane onto the reference geometry.

    Inverse mapping with bilinear interpolation:
    output(x, y) = tgt(x + dx(x, y), y + dy(x, y)).  Source coordinates
    outside the plane produce 0 DN and count as masked.  The plane is
    warped in blocks of ``block_lines(width)`` lines; each block evaluates
    the model from a column of line indices and a row of column indices,
    and reads only the source lines its field can reach (``_line_reach``),
    so working memory stays at a few blocks.  Sampling (``_bilinear``) is
    pointwise and gives the bits of scipy's order-1 ``map_coordinates``
    rounded half up, so the result does not depend on the block size.

    ``out`` is None, which warps a copy and leaves the plane untouched, or
    ``tgt_plane`` itself, which warps the plane in place; any other
    ``out`` raises ``ValueError``.  Either way the warp overwrites its own
    source, so each finished block is held until no later block can read
    the lines it overwrites (when the field may reach anywhere, every
    block is held).  ``tgt_plane`` may be the plane of a file, warped in
    place: each block's source lines are read from it, and each finished
    block is written back to it when released.  Returns the warp and the
    number of masked pixels.
    """
    if out is None:
        out = np.array(tgt_plane, order="C")
    elif out is not tgt_plane:
        raise ValueError("out must be None or tgt_plane itself")
    h, w = out.shape
    low, high = _line_reach(model, (h, w))
    cols = np.arange(w, dtype=np.float64)[np.newaxis, :]
    step = block_lines(w)
    # The block arrays of the field and of the sampling, allocated once.
    # Allocated anew for every block, they went back to the system and
    # were faulted in again, block after block.
    floats = np.empty((4, min(step, h), w))
    held = collections.deque()
    masked = 0
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        lines = np.arange(y0, y1, dtype=np.float64)[:, np.newaxis]
        src_x, src_y, spare, other = floats[:, : y1 - y0]
        model.evaluate(cols, lines, out=(src_x, src_y, spare, other))
        src_x += cols
        src_y += lines
        ok = src_x >= 0
        ok &= src_x <= w - 1
        ok &= src_y >= 0
        ok &= src_y <= h - 1
        masked += ok.size - int(np.count_nonzero(ok))
        first = max(y0 + low, 0)
        window = out[first : min(y1 + high, h)]
        held.append((y0, y1, _bilinear(window.ravel(), (h, w), src_x, src_y, ok, first,
                                       (spare, other)).astype(out.dtype)))
        del ok, window   # freed before the next block's warp is evaluated
        # The next block, from line y1, reads no line above y1 + low.
        while held and held[0][1] <= y1 + low:
            a, b, block = held.popleft()
            out[a:b] = block
    for a, b, block in held:
        out[a:b] = block
    return out, masked


def residual_grid(shape: tuple[int, int], n_points: int = RESIDUAL_POINTS) -> TileGrid:
    """The control-tile grid of ``coreg_residual``: about ``n_points`` tiles.

    The grid is round(sqrt(n)) tiles across by ceil(n / across) down, at
    least 3 x 4 since ``n_points`` is at least 10.  Tiles are
    ``TILE_SIZE`` pixels, shrunk to half the plane's inner size when they
    would not fit twice, and stay 16 pixels away from the borders, where
    an aligned band may carry masked-out samples.
    """
    if n_points < 10:
        raise OutOfBounds(f"n_points {n_points} < 10")
    grid_nx = int(round(math.sqrt(n_points)))
    grid_ny = int(math.ceil(n_points / grid_nx))
    h, w = shape
    margin = 16
    tile = min(TILE_SIZE, (min(h, w) - 2 * margin) // 2)
    return TileGrid((h, w), tile, grid_nx, grid_ny, margin)


def coreg_residual(ref_plane: np.ndarray, aligned_plane: np.ndarray,
                   n_points: int = RESIDUAL_POINTS) -> tuple[float, float]:
    """Residual misalignment of an aligned pair, as control-point statistics.

    Re-runs tiled matching on ``residual_grid`` and reports the mean and
    RMS of the residual shift magnitudes in pixels.
    """
    grid = residual_grid(np.shape(ref_plane), n_points)
    [matches] = match_bands(ref_plane, grid, [aligned_plane])
    return residual_stats(require_matches(matches))


def residual_stats(matches: list[MatchPoint]) -> tuple[float, float]:
    """Mean and RMS of the shift magnitudes (px) of a non-empty list of matches."""
    mags = np.hypot([m.dx for m in matches], [m.dy for m in matches])
    return float(mags.mean()), float(np.sqrt(np.mean(mags * mags)))
