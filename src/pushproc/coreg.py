"""Band co-registration: edge-based tile matching and polynomial warping.

The chain mirrors the production flow for pushbroom band alignment:

1. Canny edge maps of the reference and target planes act as the high-pass
   filter, so matching keys on structure rather than band radiometry.
   ``edge_map`` builds the softened map of one plane; a caller aligning
   several bands to one reference computes the reference map once and
   passes it as ``ref_edges``.
2. A grid of tiles is matched by FFT cross-correlation with per-axis
   parabola subpixel refinement.
3. Matches are gated around an attitude-derived shift prior, then cleaned
   by a median/MAD pass.
4. A bivariate polynomial shift field is fit and the target band is
   resampled through the inverse map with bilinear interpolation, one
   block of lines at a time, so no full-plane coordinate grid is built.

All operations are pure; tile matching may be spread across threads and is
reduced in tile_id order, so results are independent of worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
from .raster import BandId
from .georef.attitude import slerp_attitude
from .georef.camera import ImagerModel
from .georef.frames import eci_to_ecef
from .georef.metadata import AcqMetadata


# ------------------------------------------------------------------ canny

def canny_edges(plane: np.ndarray, sigma: float = 1.4, t_low: float = 0.1,
                t_high: float = 0.3) -> np.ndarray:
    """Binary Canny edge map of one band plane.

    Gaussian smoothing, Sobel gradients, non-maximum suppression along the
    quantized gradient direction, then double-threshold hysteresis.  The
    thresholds are fractions of the maximum suppressed gradient magnitude.
    """
    if not 0.0 < t_low < t_high:
        raise BadThresholds(f"need 0 < t_low < t_high, got {t_low}, {t_high}")
    if sigma <= 0:
        raise BadThresholds(f"sigma {sigma} must be positive")
    img = ndimage.gaussian_filter(np.asarray(plane, dtype=np.float64), sigma)
    gx = ndimage.sobel(img, axis=1)
    gy = ndimage.sobel(img, axis=0)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak == 0.0:
        return np.zeros(plane.shape, dtype=np.uint8)

    # Quantize gradient direction into 4 sectors and compare against the
    # two neighbors along that direction.
    angle = np.rad2deg(np.arctan2(gy, gx)) % 180.0
    nms = np.zeros_like(mag)
    padded = np.pad(mag, 1, mode="constant")

    def shifted(dy: int, dx: int) -> np.ndarray:
        return padded[1 + dy : 1 + dy + mag.shape[0], 1 + dx : 1 + dx + mag.shape[1]]

    sectors = [
        ((angle < 22.5) | (angle >= 157.5), (0, 1), (0, -1)),      # horizontal gradient
        ((angle >= 22.5) & (angle < 67.5), (1, 1), (-1, -1)),      # diagonal /
        ((angle >= 67.5) & (angle < 112.5), (1, 0), (-1, 0)),      # vertical gradient
        ((angle >= 112.5) & (angle < 157.5), (1, -1), (-1, 1)),    # diagonal \
    ]
    for mask, (dy1, dx1), (dy2, dx2) in sectors:
        keep = mask & (mag >= shifted(dy1, dx1)) & (mag >= shifted(dy2, dx2))
        nms[keep] = mag[keep]

    strong = nms >= t_high * peak
    weak = nms >= t_low * peak
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    strong_labels = np.unique(labels[strong])
    strong_labels = strong_labels[strong_labels > 0]
    edges = np.isin(labels, strong_labels)
    return edges.astype(np.uint8)


def edge_map(plane: np.ndarray) -> np.ndarray:
    """Default Canny edge map as float64, softened by a unit Gaussian.

    The blur makes the correlation peak smooth enough for subpixel fitting.
    Every matcher uses this one definition, so a map computed once can
    stand in for any later call on the same plane.
    """
    return ndimage.gaussian_filter(canny_edges(plane).astype(np.float64), 1.0)


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


def _tile_grid(shape: tuple[int, int], tile_size: int, grid_nx: int, grid_ny: int,
               margin: int = 0):
    h, w = shape
    if tile_size + 2 * margin > min(h, w) or grid_nx < 1 or grid_ny < 1:
        raise OutOfBounds(
            f"grid {grid_nx}x{grid_ny} of {tile_size}px tiles does not fit in {w}x{h}"
        )
    half = tile_size // 2
    xs = np.linspace(half + margin, w - tile_size + half - margin, grid_nx)
    ys = np.linspace(half + margin, h - tile_size + half - margin, grid_ny)
    centers = []
    tile_id = 0
    for y in ys:
        for x in xs:
            centers.append((tile_id, int(round(x)), int(round(y))))
            tile_id += 1
    return centers, half


def collect_matches(
    ref_plane: np.ndarray,
    tgt_plane: np.ndarray,
    tile_size: int = 128,
    grid_nx: int = 8,
    grid_ny: int = 8,
    min_score: float = 0.1,
    margin: int = 0,
    workers: int = 1,
    ref_edges: np.ndarray | None = None,
) -> list[MatchPoint]:
    """Match a tile grid between two band planes on their edge maps.

    Both planes go through ``edge_map``.  ``ref_edges``, when given, is
    ``edge_map(ref_plane)`` computed by the caller, so a caller aligning
    several bands to one reference computes it once.  Tiles whose
    score falls under ``min_score`` (or that are structureless) are dropped;
    the survivors come back sorted by tile_id.
    """
    if tile_size < 32:
        raise OutOfBounds(f"tile_size {tile_size} < 32")
    ref_plane = np.asarray(ref_plane)
    tgt_plane = np.asarray(tgt_plane)
    if ref_plane.shape != tgt_plane.shape:
        raise OutOfBounds(f"plane shapes differ: {ref_plane.shape} vs {tgt_plane.shape}")

    if ref_edges is None:
        ref_edges = edge_map(ref_plane)
    elif ref_edges.shape != ref_plane.shape:
        raise OutOfBounds(f"ref_edges shape {ref_edges.shape} vs plane {ref_plane.shape}")
    tgt_edges = edge_map(tgt_plane)

    centers, half = _tile_grid(ref_plane.shape, tile_size, grid_nx, grid_ny, margin)

    def match_tile(entry):
        tile_id, cx, cy = entry
        x0, y0 = cx - half, cy - half
        ref_tile = ref_edges[y0 : y0 + tile_size, x0 : x0 + tile_size]
        tgt_tile = tgt_edges[y0 : y0 + tile_size, x0 : x0 + tile_size]
        try:
            dx, dy, score = fft_xcorr(ref_tile, tgt_tile)
        except FlatTile:
            return None
        if score < min_score:
            return None
        return MatchPoint(tile_id=tile_id, x_ref=float(cx), y_ref=float(cy),
                          dx=dx, dy=dy, score=score)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(match_tile, centers))
    else:
        results = [match_tile(entry) for entry in centers]

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
        ``_poly_terms``, without stacking the monomials.
        """
        xn = np.asarray(x, dtype=np.float64) / max(self.width - 1, 1)
        yn = np.asarray(y, dtype=np.float64) / max(self.height - 1, 1)
        shape = np.broadcast_shapes(xn.shape, yn.shape)
        dx = np.full(shape, self.coeff_dx[0], dtype=np.float64)
        dy = np.full(shape, self.coeff_dy[0], dtype=np.float64)
        k = 1
        for total in range(1, self.order + 1):
            for j in range(total + 1):
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


RESAMPLE_BLOCK_LINES = 256


def resample(tgt_plane: np.ndarray, model: DistortionModel) -> tuple[np.ndarray, np.ndarray]:
    """Warp the target plane onto the reference geometry.

    Inverse mapping with bilinear interpolation:
    output(x, y) = tgt(x + dx(x, y), y + dy(x, y)).  Source coordinates
    outside the plane produce 0 DN and a cleared bit in the validity mask.
    The plane is warped in blocks of ``RESAMPLE_BLOCK_LINES`` lines; each
    block evaluates the model from a column of line indices and a row of
    column indices, so memory beyond the output stays at one block.
    Bilinear sampling is pointwise, so the result does not depend on the
    block size.
    """
    plane = np.asarray(tgt_plane)
    h, w = plane.shape
    source = plane.astype(np.float64)
    out = np.empty((h, w), dtype=plane.dtype)
    valid = np.empty((h, w), dtype=bool)
    cols = np.arange(w, dtype=np.float64)[np.newaxis, :]
    for y0 in range(0, h, RESAMPLE_BLOCK_LINES):
        y1 = min(y0 + RESAMPLE_BLOCK_LINES, h)
        lines = np.arange(y0, y1, dtype=np.float64)[:, np.newaxis]
        dx, dy = model.evaluate(cols, lines)
        src_x = cols + dx
        src_y = lines + dy
        ok = (src_x >= 0) & (src_x <= w - 1) & (src_y >= 0) & (src_y <= h - 1)
        sampled = ndimage.map_coordinates(source, [src_y, src_x], order=1,
                                          mode="constant", cval=0.0)
        out[y0:y1] = np.where(ok, np.floor(sampled + 0.5), 0)
        valid[y0:y1] = ok
    return out, valid


def coreg_residual(
    ref_plane: np.ndarray,
    aligned_plane: np.ndarray,
    n_points: int = 50,
    tile_size: int = 128,
    min_score: float = 0.1,
    margin: int = 16,
    ref_edges: np.ndarray | None = None,
) -> tuple[float, float]:
    """Residual misalignment of an aligned pair, as control-point statistics.

    Re-runs tiled matching at roughly ``n_points`` tile centers and reports
    the mean and RMS of the residual shift magnitudes in pixels.  Control
    tiles stay ``margin`` pixels away from the borders, where the aligned
    band may carry masked-out samples.  ``ref_edges`` is passed on to
    ``collect_matches``.
    """
    if n_points < 10:
        raise OutOfBounds(f"n_points {n_points} < 10")
    grid_nx = max(2, int(round(math.sqrt(n_points))))
    grid_ny = max(2, int(math.ceil(n_points / grid_nx)))
    h, w = np.asarray(ref_plane).shape
    tile = min(tile_size, (min(h, w) - 2 * margin) // 2)
    matches = collect_matches(
        ref_plane, aligned_plane, tile_size=tile, grid_nx=grid_nx,
        grid_ny=grid_ny, min_score=min_score, margin=margin, ref_edges=ref_edges,
    )
    mags = np.hypot([m.dx for m in matches], [m.dy for m in matches])
    return float(mags.mean()), float(np.sqrt(np.mean(mags * mags)))
