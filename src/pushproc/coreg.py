"""Band co-registration: edge-based tile matching and polynomial warping.

The chain mirrors the production flow for pushbroom band alignment:

1. Canny edge maps of the reference and target planes act as the high-pass
   filter, so matching keys on structure rather than band radiometry.
   Edges are built only where a tile grid reads them.  A ``TileGrid``
   holds its tiles in blocks (tile windows widened by the blur radius and
   merged along lines and columns), and ``grid_edges`` builds one softened
   map per block: smoothing, gradients and non-maximum suppression read
   the block with a halo, so they equal a whole-plane pass, while the
   thresholds, the hysteresis over connected edges and the blur are the
   block's own.  A caller aligning several bands to one reference builds
   the reference maps of all its grids in one call, which suppresses each
   reference pixel once, and passes them as ``ref_edges``.
2. A grid of tiles is matched by FFT cross-correlation with per-axis
   parabola subpixel refinement.
3. Matches are gated around an attitude-derived shift prior, then cleaned
   by a median/MAD pass.
4. A bivariate polynomial shift field is fit and the target band is
   resampled through the inverse map with bilinear interpolation, one
   block of ``block_lines(width)`` lines at a time, so no full-plane
   coordinate grid is built.  The NumPy kernel repeats the arithmetic of
   scipy's order-1 ``map_coordinates``, so its samples are bit-identical
   to that call's.

All operations are pure; tile matching may be spread across threads and is
reduced in tile_id order, so results are independent of worker count.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import (
    AllRejected,
    BadThresholds,
    FlatTile,
    MissingAttitude,
    NoMatches,
    OutOfBounds,
    SingularFit,
    TooFewMatches,
)
from .raster import BandId, block_lines
from .georef.attitude import slerp_attitude
from .georef.camera import ImagerModel
from .georef.frames import eci_to_ecef
from .georef.metadata import AcqMetadata


# ------------------------------------------------------------------ canny

# tan(22.5 deg): where the quantized gradient direction changes sector.
_TAN_22_5 = math.tan(math.radians(22.5))

# Radius of the unit Gaussian that softens edge maps (scipy's truncate=4).
BLUR_RADIUS = 4


def _suppress(plane: np.ndarray, window: tuple[slice, slice], sigma: float = 1.4) -> np.ndarray:
    """Non-maximum-suppressed gradient magnitude over one window of a plane.

    Gaussian smoothing, Sobel gradients, then suppression against the two
    neighbours along the gradient direction, quantized into four sectors
    centred on 0, 45, 90 and 135 degrees.  The window is walked in blocks
    of ``block_lines`` of its width plus both halos, each read with a halo
    of the Gaussian radius plus one pixel for Sobel and one for the
    suppression neighbours on every side, so every value equals that of a
    whole-plane pass; at the plane border that pass's ``reflect`` and zero
    padding apply.
    """
    h, w = plane.shape
    rows, cols = window
    halo = int(4.0 * sigma + 0.5) + 2
    ca, cb = max(cols.start - halo, 0), min(cols.stop + halo, w)
    left, width = cols.start - ca, cols.stop - cols.start
    nms = np.zeros((rows.stop - rows.start, width), dtype=np.float64)
    step = block_lines(width + 2 * halo)
    for y0 in range(rows.start, rows.stop, step):
        y1 = min(y0 + step, rows.stop)
        a, b = max(y0 - halo, 0), min(y1 + halo, h)
        img = ndimage.gaussian_filter(plane[a:b, ca:cb].astype(np.float64), sigma)
        gx = ndimage.sobel(img, axis=1)
        gy = ndimage.sobel(img, axis=0)
        # Zero padding stands in for the neighbours beyond the plane border;
        # inside the plane the halo supplies them.
        padded = np.pad(np.hypot(gx, gy), 1)
        top = y0 - a
        gx = gx[top : top + y1 - y0, left : left + width]
        gy = gy[top : top + y1 - y0, left : left + width]

        def shifted(dy: int, dx: int) -> np.ndarray:
            return padded[top + 1 + dy : top + 1 + dy + y1 - y0,
                          left + 1 + dx : left + 1 + dx + width]

        mag = shifted(0, 0)
        # The sector from |gy| against tan(22.5 deg) |gx| and the signs, with
        # the boundaries of the angle atan2(gy, gx) folded into [0, 180).
        ax, ay = np.abs(gx), np.abs(gy)
        horizontal = ay < _TAN_22_5 * ax
        vertical = ax < _TAN_22_5 * ay
        diagonal = ~(horizontal | vertical)
        rising = (gx > 0) == (gy > 0)
        sectors = [
            (horizontal, (0, 1), (0, -1)),
            (diagonal & rising, (1, 1), (-1, -1)),      # diagonal /
            (vertical, (1, 0), (-1, 0)),
            (diagonal & ~rising, (1, -1), (-1, 1)),     # diagonal \
        ]
        # The sectors are disjoint, so one masked write takes every kept pixel.
        keep = np.zeros(mag.shape, dtype=bool)
        for mask, (dy1, dx1), (dy2, dx2) in sectors:
            keep |= mask & (mag >= shifted(dy1, dx1)) & (mag >= shifted(dy2, dx2))
        np.copyto(nms[y0 - rows.start : y1 - rows.start], mag, where=keep)
    return nms


def _hysteresis(nms: np.ndarray, t_low: float = 0.1, t_high: float = 0.3) -> np.ndarray:
    """Double-threshold hysteresis over 8-connected edges, as a uint8 map.

    The thresholds are fractions of the peak of ``nms``.
    """
    peak = float(nms.max())
    if peak == 0.0:
        return np.zeros(nms.shape, dtype=np.uint8)
    labels, n = ndimage.label(nms >= t_low * peak, structure=np.ones((3, 3), dtype=int))
    strong = np.zeros(n + 1, dtype=np.uint8)
    strong[labels[nms >= t_high * peak]] = 1
    return strong[labels]


def canny_edges(plane: np.ndarray, sigma: float = 1.4, t_low: float = 0.1,
                t_high: float = 0.3) -> np.ndarray:
    """Binary Canny edge map of one band plane.

    Gaussian smoothing, Sobel gradients, non-maximum suppression along the
    quantized gradient direction, then double-threshold hysteresis.  The
    thresholds are fractions of the maximum suppressed gradient magnitude.
    Suppression walks the plane in line blocks with a halo, so only the
    suppressed magnitude and the hysteresis labels span the whole plane.
    """
    if not 0.0 < t_low < t_high:
        raise BadThresholds(f"need 0 < t_low < t_high, got {t_low}, {t_high}")
    if sigma <= 0:
        raise BadThresholds(f"sigma {sigma} must be positive")
    plane = np.asarray(plane)
    h, w = plane.shape
    return _hysteresis(_suppress(plane, (slice(0, h), slice(0, w)), sigma), t_low, t_high)


def _soften(edges: np.ndarray) -> np.ndarray:
    # The blur makes the correlation peak smooth enough for subpixel fitting.
    return ndimage.gaussian_filter(edges, 1.0, output=np.float64)


def edge_map(plane: np.ndarray) -> np.ndarray:
    """Default Canny edge map of a whole plane as float64, softened by a unit Gaussian.

    It is the map ``grid_edges`` builds for a grid whose one block is the
    whole plane.
    """
    return _soften(canny_edges(plane))


def _runs(flags: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(start, stop) of every run of True in a 1-D boolean array."""
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    return tuple(zip(edges[::2].tolist(), edges[1::2].tolist()))


@dataclass(frozen=True)
class TileGrid:
    """Tile windows of one matching grid and the blocks of the plane that hold them.

    ``tile_size`` squares are centred on a ``grid_nx`` x ``grid_ny``
    lattice kept ``margin`` pixels inside a plane of ``shape``.  Each
    tile's lines and columns, widened by ``BLUR_RADIUS`` and clipped to the
    plane, are merged with those they overlap or touch; a block is one
    merged line interval times one merged column interval.  Blocks are
    disjoint, and each tile lies in one block at least ``BLUR_RADIUS``
    pixels from every block edge that is not a plane edge, so the blur of a
    block's map gives the tile the values of a blur over the whole plane.
    A sparse grid thus gets one block per tile, a dense one a single block
    that is the whole plane.

    ``tiles`` lists (tile_id, column centre, line centre, block index) in
    tile_id order; ``blocks`` lists (lines, columns) slice pairs.
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
        half = size // 2

        def axis(length: int, count: int):
            centres = [int(round(c)) for c in
                       np.linspace(half + margin, length - size + half - margin, count)]
            covered = np.zeros(length, dtype=bool)
            for c in centres:
                covered[max(c - half - BLUR_RADIUS, 0) : c - half + size + BLUR_RADIUS] = True
            spans = _runs(covered)
            owner = [next(i for i, (a, b) in enumerate(spans) if a <= c - half < b)
                     for c in centres]
            return centres, spans, owner

        xs, col_spans, col_owner = axis(w, self.grid_nx)
        ys, row_spans, row_owner = axis(h, self.grid_ny)
        blocks = [(slice(*r), slice(*c)) for r in row_spans for c in col_spans]
        tiles = [(j * self.grid_nx + i, xs[i], ys[j], row_owner[j] * len(col_spans) + col_owner[i])
                 for j in range(self.grid_ny) for i in range(self.grid_nx)]
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "tiles", tiles)


class GridEdges(NamedTuple):
    """Softened edge maps of one plane, one per block of ``grid``."""

    grid: TileGrid
    maps: list[np.ndarray]


def _disjoint_cover(blocks: list[tuple[slice, slice]]) -> list[tuple[slice, slice]]:
    """Disjoint rectangles whose union is the union of ``blocks``.

    The plane is cut along every block edge.  In each band of lines between
    two cuts the covered cells merge into column runs, and consecutive
    bands with the same runs merge into one rectangle per run.
    """
    ys = sorted({v for rows, _ in blocks for v in (rows.start, rows.stop)})
    xs = sorted({v for _, cols in blocks for v in (cols.start, cols.stop)})
    covered = np.zeros((len(ys) - 1, len(xs) - 1), dtype=bool)
    for rows, cols in blocks:
        covered[ys.index(rows.start) : ys.index(rows.stop),
                xs.index(cols.start) : xs.index(cols.stop)] = True
    rects = []
    for runs, band in itertools.groupby(range(len(ys) - 1), key=lambda i: _runs(covered[i])):
        band = list(band)
        lines = slice(ys[band[0]], ys[band[-1] + 1])
        rects += [(lines, slice(xs[a], xs[b])) for a, b in runs]
    return rects


def grid_edges(plane: np.ndarray, grids: list[TileGrid]) -> list[GridEdges]:
    """Softened Canny edge maps of a plane over the blocks of each grid.

    The plane is suppressed once over the union of all grids' blocks, one
    disjoint rectangle at a time.  Each grid then assembles its blocks from
    the rectangles and runs the thresholds, the hysteresis and the unit
    blur per block.  The maps thus depend only on the pixels near a grid's
    blocks, and a plane equal to another there gets the same maps on that
    grid whether it was built alone or together with other grids.
    """
    plane = np.asarray(plane)
    pieces = [(rect, _suppress(plane, rect))
              for rect in _disjoint_cover([block for grid in grids for block in grid.blocks])]
    result = []
    for grid in grids:
        maps = []
        for rows, cols in grid.blocks:
            nms = np.empty((rows.stop - rows.start, cols.stop - cols.start), dtype=np.float64)
            for (prows, pcols), piece in pieces:
                r0, r1 = max(rows.start, prows.start), min(rows.stop, prows.stop)
                c0, c1 = max(cols.start, pcols.start), min(cols.stop, pcols.stop)
                if r0 < r1 and c0 < c1:
                    nms[r0 - rows.start : r1 - rows.start, c0 - cols.start : c1 - cols.start] = \
                        piece[r0 - prows.start : r1 - prows.start, c0 - pcols.start : c1 - pcols.start]
            maps.append(_soften(_hysteresis(nms)))
        result.append(GridEdges(grid, maps))
    return result


# --------------------------------------------------------------- matching

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
    a = a - a.mean()
    b = b - b.mean()
    ea = math.sqrt(float(np.sum(a * a)))
    eb = math.sqrt(float(np.sum(b * b)))
    if ea == 0.0 or eb == 0.0:
        raise FlatTile("zero-variance tile, no structure to match")

    h, w = a.shape
    ph, pw = _next_pow2(h), _next_pow2(w)
    if (ph, pw) != (h, w):
        pa = np.zeros((ph, pw))
        pb = np.zeros((ph, pw))
        pa[:h, :w] = a
        pb[:h, :w] = b
        a, b = pa, pb

    spectrum = np.fft.rfft2(b) * np.conj(np.fft.rfft2(a))
    corr = np.fft.irfft2(spectrum, s=a.shape)
    corr /= ea * eb
    peak_y, peak_x = np.unravel_index(int(np.argmax(corr)), corr.shape)
    score = float(np.clip(corr[peak_y, peak_x], 0.0, 1.0))

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


@dataclass
class MatchPoint:
    """One tile-matching observation: target shift relative to reference."""

    tile_id: int
    x_ref: float
    y_ref: float
    dx: float
    dy: float
    score: float


def collect_matches(
    ref_plane: np.ndarray,
    tgt_plane: np.ndarray,
    tile_size: int = 128,
    grid_nx: int = 8,
    grid_ny: int = 8,
    min_score: float = 0.1,
    margin: int = 0,
    workers: int = 1,
    ref_edges: GridEdges | None = None,
) -> list[MatchPoint]:
    """Match a tile grid between two band planes on their edge maps.

    Both planes get edge maps over the blocks of the grid (``grid_edges``)
    and each tile is a crop of its block's map.  ``ref_edges``, when given,
    are the reference maps on this grid from an earlier ``grid_edges``
    call, so a caller aligning several bands to one reference builds them
    once.  Tiles whose score falls under ``min_score`` (or that are
    structureless) are dropped; the survivors come back sorted by tile_id.
    """
    if tile_size < 32:
        raise OutOfBounds(f"tile_size {tile_size} < 32")
    ref_plane = np.asarray(ref_plane)
    tgt_plane = np.asarray(tgt_plane)
    if ref_plane.shape != tgt_plane.shape:
        raise OutOfBounds(f"plane shapes differ: {ref_plane.shape} vs {tgt_plane.shape}")

    grid = TileGrid(ref_plane.shape, tile_size, grid_nx, grid_ny, margin)
    if ref_edges is None:
        [ref_edges] = grid_edges(ref_plane, [grid])
    elif ref_edges.grid != grid:
        raise OutOfBounds(f"ref_edges were built for {ref_edges.grid}, not {grid}")
    [tgt_edges] = grid_edges(tgt_plane, [grid])
    half = tile_size // 2

    def match_tile(tile):
        tile_id, cx, cy, k = tile
        rows, cols = grid.blocks[k]
        y0, x0 = cy - half - rows.start, cx - half - cols.start
        window = (slice(y0, y0 + tile_size), slice(x0, x0 + tile_size))
        try:
            dx, dy, score = fft_xcorr(ref_edges.maps[k][window], tgt_edges.maps[k][window])
        except FlatTile:
            return None
        if score < min_score:
            return None
        return MatchPoint(tile_id=tile_id, x_ref=float(cx), y_ref=float(cy),
                          dx=dx, dy=dy, score=score)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(match_tile, grid.tiles))
    else:
        results = [match_tile(tile) for tile in grid.tiles]

    matches = sorted((m for m in results if m is not None), key=lambda m: m.tile_id)
    if not matches:
        raise NoMatches("every tile was rejected (flat or below min_score)")
    return matches


# ------------------------------------------------------------ shift prior

@dataclass
class ShiftPrior:
    """Predicted inter-band shift with a rejection gate around it."""

    dx: float
    dy: float
    gate_radius: float = 5.0


def predict_shift_prior(
    metadata: AcqMetadata,
    band_pair: tuple[BandId, BandId],
    imager: ImagerModel | None = None,
    gate_radius: float = 5.0,
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
    if imager is None:
        imager = metadata.imager
    if not metadata.attitude:
        raise MissingAttitude("metadata carries no attitude samples")
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
    cos_offnadir = float(np.clip(boresight_eci @ nadir_eci, -1.0, 1.0))
    cos_offnadir = max(cos_offnadir, 0.1)

    # Ground speed from the Earth-fixed motion of the subsatellite point.
    dt = 1.0
    r0 = eci_to_ecef(metadata.orbit.state_at(t_mid).r_eci, t_mid)
    r1 = eci_to_ecef(metadata.orbit.state_at(t_mid + dt).r_eci, t_mid + dt)
    radius = float(np.linalg.norm(r0))
    from .georef.frames import WGS84_A_KM

    ground_speed_kms = float(np.linalg.norm(r1 - r0)) / dt * (WGS84_A_KM / radius)
    altitude_km = radius - WGS84_A_KM
    gsd_km = altitude_km * imager.ifov_rad
    if gsd_km <= 0 or metadata.line_period_s <= 0 or ground_speed_kms <= 0:
        speed_ratio = 1.0
    else:
        speed_ratio = gsd_km / (ground_speed_kms * metadata.line_period_s)

    dy = -delta_rows * speed_ratio / cos_offnadir
    return ShiftPrior(dx=0.0, dy=float(dy), gate_radius=gate_radius)


def remove_outliers(
    matches: list[MatchPoint],
    prior: ShiftPrior | None = None,
    mad_scale: float = 3.0,
    mad_floor: float = 0.5,
) -> list[MatchPoint]:
    """Two-pass robust rejection: prior gate, then median/MAD clipping.

    Without attitude metadata the prior falls back to the match medians
    with the same gate radius.  Order is preserved.
    """
    if not matches:
        raise AllRejected("no matches supplied")
    dx = np.array([m.dx for m in matches])
    dy = np.array([m.dy for m in matches])
    if prior is None:
        prior = ShiftPrior(dx=float(np.median(dx)), dy=float(np.median(dy)))

    dist = np.hypot(dx - prior.dx, dy - prior.dy)
    gate_keep = dist <= prior.gate_radius
    if not gate_keep.any():
        raise AllRejected(
            f"all {len(matches)} matches fall outside the {prior.gate_radius}px gate"
        )

    kept_dx = dx[gate_keep]
    kept_dy = dy[gate_keep]
    med_dx, med_dy = np.median(kept_dx), np.median(kept_dy)
    mad_dx = max(float(np.median(np.abs(kept_dx - med_dx))), mad_floor)
    mad_dy = max(float(np.median(np.abs(kept_dy - med_dy))), mad_floor)
    final_keep = gate_keep & (np.abs(dx - med_dx) <= mad_scale * mad_dx) \
        & (np.abs(dy - med_dy) <= mad_scale * mad_dy)
    if not final_keep.any():
        raise AllRejected("median/MAD pass rejected every match")
    return [m for m, keep in zip(matches, final_keep) if keep]


# -------------------------------------------------------- distortion model

def _poly_terms(order: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bivariate monomials x^i y^j with i+j <= order, in a fixed order."""
    cols = [np.ones_like(x)]
    for total in range(1, order + 1):
        for j in range(total + 1):
            i = total - j
            cols.append(x ** i * y ** j)
    return np.stack(cols, axis=-1)


def n_coefficients(order: int) -> int:
    return (order + 1) * (order + 2) // 2


@dataclass
class DistortionModel:
    """Bivariate polynomial shift field over normalized image coordinates."""

    order: int
    coeff_dx: np.ndarray
    coeff_dy: np.ndarray
    width: int
    height: int
    rms_fit: float = 0.0

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shift (dx, dy) in pixels at pixel coordinates (x, y).

        ``x`` and ``y`` broadcast against each other, so a row of columns
        and a column of lines give the field over their grid.  The terms
        c_k * x^i * y^j are added one at a time, in the order of
        ``_poly_terms``, without stacking the monomials.  A pure term is
        the power alone (x^0 = y^0 = 1 exactly, so the sum is the same), and
        only a mixed term spans the broadcast shape.
        """
        xn = np.asarray(x, dtype=np.float64) / max(self.width - 1, 1)
        yn = np.asarray(y, dtype=np.float64) / max(self.height - 1, 1)
        shape = np.broadcast_shapes(xn.shape, yn.shape)
        dx = np.full(shape, self.coeff_dx[0], dtype=np.float64)
        dy = np.full(shape, self.coeff_dy[0], dtype=np.float64)
        k = 1
        for total in range(1, self.order + 1):
            for j in range(total + 1):
                if j == 0:
                    term = xn ** total
                elif j == total:
                    term = yn ** total
                else:
                    term = xn ** (total - j) * yn ** j
                dx += self.coeff_dx[k] * term
                dy += self.coeff_dy[k] * term
                k += 1
        return dx, dy

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": self.order,
                "coeff_dx": [float(c) for c in self.coeff_dx],
                "coeff_dy": [float(c) for c in self.coeff_dy],
                "width": self.width,
                "height": self.height,
                "rms_fit": self.rms_fit,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DistortionModel":
        doc = json.loads(text)
        return cls(
            order=int(doc["order"]),
            coeff_dx=np.asarray(doc["coeff_dx"], dtype=np.float64),
            coeff_dy=np.asarray(doc["coeff_dy"], dtype=np.float64),
            width=int(doc["width"]),
            height=int(doc["height"]),
            rms_fit=float(doc["rms_fit"]),
        )


def fit_distortion(
    matches: list[MatchPoint], order: int = 2, width: int = 0, height: int = 0
) -> DistortionModel:
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
              src_y: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Bilinear samples of a plane, rounded half up, with 0 where not ``ok``.

    ``flat`` is the plane's samples in line order and ``src_x``/``src_y``
    are the coordinates of in-bounds samples where ``ok`` holds; both
    coordinate arrays are overwritten.  The arithmetic is that of scipy's
    order-1 ``map_coordinates``: per axis the weights are w0 = 1 - t and
    w1 = 1 - w0, and the corners are added in line-major order, each as
    (value * y weight) * x weight.  The far neighbour is clipped to the
    plane, so a sample on the last line or column reads it with weight 0.
    Intermediates are written in place, so about four block arrays of
    float64 are alive at a time.
    """
    h, w = shape
    off = ~ok
    np.copyto(src_x, 0.0, where=off)
    np.copyto(src_y, 0.0, where=off)
    step_x = src_x < w - 1
    step_y = src_y < h - 1
    # Flat index of the near corner; the float to integer cast truncates,
    # which is the floor of a coordinate that is not negative.
    index = src_y.astype(np.intp)
    index *= w
    np.add(index, src_x, out=index, dtype=np.intp, casting="unsafe")
    v00 = flat.take(index)
    index += step_x
    v01 = flat.take(index)
    np.add(index, w, out=index, where=step_y)
    v11 = flat.take(index)
    index -= step_x
    v10 = flat.take(index)
    del index, step_x, step_y
    part = np.floor(src_x)
    wx0 = np.subtract(1.0, np.subtract(src_x, part, out=src_x), out=src_x)
    np.floor(src_y, out=part)
    wy0 = np.subtract(1.0, np.subtract(src_y, part, out=src_y), out=src_y)
    acc = np.subtract(1.0, wx0)                 # wx1
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
    acc += 0.5
    np.floor(acc, out=acc)
    np.copyto(acc, 0.0, where=off)
    return acc


def resample(tgt_plane: np.ndarray, model: DistortionModel) -> tuple[np.ndarray, np.ndarray]:
    """Warp the target plane onto the reference geometry.

    Inverse mapping with bilinear interpolation:
    output(x, y) = tgt(x + dx(x, y), y + dy(x, y)).  Source coordinates
    outside the plane produce 0 DN and a cleared bit in the validity mask.
    The plane is warped in blocks of ``block_lines(width)`` lines; each
    block evaluates the model from a column of line indices and a row of
    column indices, so memory beyond the output stays at one block.
    Sampling (``_bilinear``) is pointwise and gives the bits of scipy's
    order-1 ``map_coordinates`` rounded half up, so the result does not
    depend on the block size.
    """
    plane = np.asarray(tgt_plane)
    h, w = plane.shape
    out = np.empty((h, w), dtype=plane.dtype)
    valid = np.empty((h, w), dtype=bool)
    flat = plane.ravel()
    cols = np.arange(w, dtype=np.float64)[np.newaxis, :]
    step = block_lines(w)
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        lines = np.arange(y0, y1, dtype=np.float64)[:, np.newaxis]
        src_x, src_y = model.evaluate(cols, lines)
        src_x += cols
        src_y += lines
        ok = valid[y0:y1]
        np.greater_equal(src_x, 0, out=ok)
        ok &= src_x <= w - 1
        ok &= src_y >= 0
        ok &= src_y <= h - 1
        out[y0:y1] = _bilinear(flat, (h, w), src_x, src_y, ok)
        del src_x, src_y    # freed before the next block's warp is evaluated
    return out, valid


def residual_grid(shape: tuple[int, int], n_points: int = 50, tile_size: int = 128,
                  margin: int = 16) -> TileGrid:
    """The control-tile grid of ``coreg_residual``: about ``n_points`` tiles.

    Tiles shrink to half the plane's inner size when ``tile_size`` would
    not fit twice, and stay ``margin`` pixels away from the borders.
    """
    if n_points < 10:
        raise OutOfBounds(f"n_points {n_points} < 10")
    grid_nx = max(2, int(round(math.sqrt(n_points))))
    grid_ny = max(2, int(math.ceil(n_points / grid_nx)))
    h, w = shape
    tile = min(tile_size, (min(h, w) - 2 * margin) // 2)
    return TileGrid((h, w), tile, grid_nx, grid_ny, margin)


def coreg_residual(
    ref_plane: np.ndarray,
    aligned_plane: np.ndarray,
    n_points: int = 50,
    tile_size: int = 128,
    min_score: float = 0.1,
    margin: int = 16,
    ref_edges: GridEdges | None = None,
) -> tuple[float, float]:
    """Residual misalignment of an aligned pair, as control-point statistics.

    Re-runs tiled matching on ``residual_grid`` and reports the mean and
    RMS of the residual shift magnitudes in pixels.  Control tiles stay
    ``margin`` pixels away from the borders, where the aligned band may
    carry masked-out samples.  ``ref_edges`` (the reference maps on that
    grid) is passed on to ``collect_matches``.
    """
    grid = residual_grid(np.shape(ref_plane), n_points, tile_size, margin)
    matches = collect_matches(
        ref_plane, aligned_plane, tile_size=grid.tile_size, grid_nx=grid.grid_nx,
        grid_ny=grid.grid_ny, min_score=min_score, margin=margin, ref_edges=ref_edges,
    )
    mags = np.hypot([m.dx for m in matches], [m.dy for m in matches])
    return float(mags.mean()), float(np.sqrt(np.mean(mags * mags)))
