"""Ray-ellipsoid geolocation: per-line ground coordinates and grids.

The chain per line: propagate the orbit to the (offset-corrected) line
time, interpolate the attitude, rotate the body-frame lines of sight of
all requested columns into the Earth-fixed frame, and intersect them with
the WGS84 ellipsoid at zero height in one array call.  Terrain is
deliberately ignored: the output is a systematic, not an ortho, product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import NoIntersection, OutOfBounds
from ..raster import BandId, RawScene, write_file
from .attitude import slerp_attitude
from .camera import ImagerModel, pixel_los
from .frames import WGS84_A_KM, WGS84_B_KM, ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef
from .metadata import AcqMetadata


@dataclass(frozen=True)
class GeodeticCoord:
    """WGS84 geodetic position: degrees latitude/longitude, meters height.

    The fields are floats for one point, or arrays of one shape for many.
    """

    lat: float
    lon: float
    alt: float


def intersect_ellipsoid(r_ecef_km: np.ndarray, dir_ecef: np.ndarray) -> GeodeticCoord:
    """Nearest intersections of rays from one origin with the WGS84 ellipsoid.

    ``dir_ecef`` holds directions of shape [..., 3]; the returned
    coordinates have shape [...].  Solves the quadratic for the scaled
    ellipsoid equation and keeps the smallest positive root, then converts
    to geodetic coordinates.  Raises NoIntersection if any ray misses.
    """
    r = np.asarray(r_ecef_km, dtype=np.float64)
    d = np.asarray(dir_ecef, dtype=np.float64)
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)
    inv_a2 = 1.0 / (WGS84_A_KM * WGS84_A_KM)
    inv_b2 = 1.0 / (WGS84_B_KM * WGS84_B_KM)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    qa = (dx * dx + dy * dy) * inv_a2 + dz * dz * inv_b2
    qb = 2.0 * ((r[0] * dx + r[1] * dy) * inv_a2 + r[2] * dz * inv_b2)
    qc = (r[0] * r[0] + r[1] * r[1]) * inv_a2 + r[2] * r[2] * inv_b2 - 1.0
    disc = qb * qb - 4.0 * qa * qc
    # Written so that a NaN, of a ray that is not finite, misses too.
    if not np.all(disc >= 0.0):
        raise NoIntersection("line of sight misses the ellipsoid")
    sqrt_disc = np.sqrt(disc)
    s1 = (-qb - sqrt_disc) / (2.0 * qa)
    s2 = (-qb + sqrt_disc) / (2.0 * qa)
    if not np.all(s2 > 0.0):
        raise NoIntersection("both intersection points lie behind the ray origin")
    s = np.where(s1 > 0.0, s1, s2)
    lat, lon, alt = ecef_to_geodetic(r + s[..., np.newaxis] * d)
    return GeodeticCoord(lat=lat, lon=lon, alt=alt)


def _locate_line(line_idx: int, scene: RawScene, metadata: AcqMetadata,
                 imager: ImagerModel, v_body: np.ndarray) -> GeodeticCoord:
    """Ground coordinates of body-frame lines of sight [..., 3] at one line."""
    if not 0 <= line_idx < scene.lines:
        raise OutOfBounds(f"line {line_idx} outside [0, {scene.lines})")
    t = float(scene.line_times[line_idx]) + imager.time_offset_s
    state = metadata.orbit.state_at(t)
    q = slerp_attitude(metadata.attitude, t)
    return intersect_ellipsoid(eci_to_ecef(state.r_eci, t), eci_to_ecef(q.rotate(v_body), t))


def georeference_line(
    line_idx: int,
    scene: RawScene,
    metadata: AcqMetadata,
    imager: ImagerModel | None = None,
    columns=None,
) -> list[GeodeticCoord]:
    """Ground coordinates of the requested columns of one image line.

    The columns are those of the red band's detector line.  One orbit
    propagation and one attitude interpolation serve the whole line; pass
    ``imager`` to georeference with adjusted offsets without touching the
    sidecar.
    """
    if imager is None:
        imager = metadata.imager
    if columns is None:
        columns = np.arange(scene.width)
    v_body = pixel_los(imager, BandId.RED, columns)
    coord = _locate_line(line_idx, scene, metadata, imager, v_body)
    return list(map(GeodeticCoord, coord.lat.tolist(), coord.lon.tolist(), coord.alt.tolist()))


@dataclass
class GeoGrid:
    """Gridded geolocation: coordinates at sampled (line, column) nodes."""

    lines: np.ndarray
    columns: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    alt: np.ndarray
    corners: dict = field(default_factory=dict)
    mean_gsd_m: float = 0.0


def _sample_indices(extent: int, step: int) -> np.ndarray:
    idx = list(range(0, extent, step))
    if idx[-1] != extent - 1:
        idx.append(extent - 1)
    return np.asarray(idx, dtype=int)


def _mean_gsd_m(grid: GeoGrid) -> float:
    """Mean ground distance (m) per pixel between neighbouring nodes.

    Walks the grid a row at a time. The across spacings of every row come
    first in one flat array, then the along spacings of every row against
    the row before it, so its one ``mean`` sums what the whole-grid
    formula summed, in its order.
    """
    rows, cols = grid.lat.shape
    col_steps, line_steps = np.diff(grid.columns), np.diff(grid.lines)
    spacings = np.empty(rows * (cols - 1) + (rows - 1) * cols)
    across = spacings[:rows * (cols - 1)].reshape(rows, cols - 1)
    along = spacings[rows * (cols - 1):].reshape(rows - 1, cols)
    for k in range(rows):
        ecef = geodetic_to_ecef(grid.lat[k], grid.lon[k], grid.alt[k])
        across[k] = np.linalg.norm(np.diff(ecef, axis=0), axis=1) * 1000.0 / col_steps
        if k:
            along[k - 1] = np.linalg.norm(ecef - prev, axis=1) * 1000.0 / line_steps[k - 1]
        prev = ecef
    return float(spacings.mean())


def build_geogrid(
    scene: RawScene,
    metadata: AcqMetadata,
    imager: ImagerModel | None = None,
    step: int = 64,
) -> GeoGrid:
    """Geolocate a regular grid of nodes (first/last line and column always kept).

    The nodes are pixels of the red band's detector line.  Each sampled
    line is geolocated as ``georeference_line`` does it: one orbit state,
    one attitude and one intersection call per line, written straight into
    its row of the grid's arrays.
    """
    if step < 1:
        raise OutOfBounds(f"step {step} < 1")
    if imager is None:
        imager = metadata.imager
    line_idx = _sample_indices(scene.lines, step)
    col_idx = _sample_indices(scene.width, step)
    v_body = pixel_los(imager, BandId.RED, col_idx)
    lat, lon, alt = (np.empty((line_idx.size, col_idx.size)) for _ in range(3))
    for k, line in enumerate(line_idx):
        coord = _locate_line(int(line), scene, metadata, imager, v_body)
        lat[k], lon[k], alt[k] = coord.lat, coord.lon, coord.alt
    grid = GeoGrid(lines=line_idx, columns=col_idx, lat=lat, lon=lon, alt=alt)
    grid.corners = {
        "top_left": (float(lat[0, 0]), float(lon[0, 0])),
        "top_right": (float(lat[0, -1]), float(lon[0, -1])),
        "bottom_left": (float(lat[-1, 0]), float(lon[-1, 0])),
        "bottom_right": (float(lat[-1, -1]), float(lon[-1, -1])),
    }
    if min(lat.shape) > 1:
        grid.mean_gsd_m = _mean_gsd_m(grid)
    return grid


def fit_world_file(grid: GeoGrid) -> tuple[tuple[float, ...], float]:
    """Fit the six-parameter affine pixel-to-ground map over the grid nodes.

    Returns ((A, D, B, E, C, F), rms_residual_deg) for the convention

        lon = A * column + B * line + C
        lat = D * column + E * line + F

    The residual reports how non-affine the true geolocation is.
    """
    # One (column, line, 1) row per node, in the grid's row-major order.
    design = np.empty((grid.lines.size, grid.columns.size, 3))
    design[..., 0] = grid.columns
    design[..., 1] = grid.lines[:, np.newaxis]
    design[..., 2] = 1.0
    design = design.reshape(-1, 3)
    n = len(design)
    lon_coef, _, _, _ = np.linalg.lstsq(design, grid.lon.ravel(), rcond=None)
    lat_coef, _, _, _ = np.linalg.lstsq(design, grid.lat.ravel(), rcond=None)
    resid = np.empty(2 * n)
    np.subtract(design @ lon_coef, grid.lon.ravel(), out=resid[:n])
    np.subtract(design @ lat_coef, grid.lat.ravel(), out=resid[n:])
    rms = float(np.sqrt(np.mean(np.multiply(resid, resid, out=resid))))
    a, b, c = lon_coef
    d, e, f = lat_coef
    return (float(a), float(d), float(b), float(e), float(c), float(f)), rms


def save_geogrid(grid: GeoGrid, json_path, world_path) -> tuple[tuple[float, ...], float]:
    """Write the grid JSON and the six-line ESRI world file.

    The JSON is the bytes of ``json.dumps(doc, sort_keys=True)`` of the
    whole document, written one grid row of ``lat``, ``lon`` and ``alt_m``
    at a time, so no list or string of a whole node array is built; a
    number that is not finite raises ``ValueError`` instead of being
    written.  Returns the world-file fit written into both, as
    ``fit_world_file`` gives it.
    """
    coeffs, rms = fit_world_file(grid)
    doc = {
        "schema": 1,
        "lines": [int(v) for v in grid.lines],
        "columns": [int(v) for v in grid.columns],
        "lat": grid.lat,
        "lon": grid.lon,
        "alt_m": grid.alt,
        "corners": {k: list(v) for k, v in grid.corners.items()},
        "mean_gsd_m": grid.mean_gsd_m,
        "world_file": {"coefficients": list(coeffs), "rms_residual_deg": rms},
    }

    def chunks():
        for i, key in enumerate(sorted(doc)):
            yield ("{" if i == 0 else ", ") + json.dumps(key) + ": "
            value = doc[key]
            if isinstance(value, np.ndarray):
                yield "["
                for j, row in enumerate(value):
                    yield (", " if j else "") + json.dumps(row.tolist(), allow_nan=False)
                yield "]"
            else:
                yield json.dumps(value, sort_keys=True, allow_nan=False)
        yield "}"

    write_file(json_path, chunks())
    write_file(world_path, ["\n".join(f"{v:.12f}" for v in coeffs) + "\n"])
    return coeffs, rms

