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
from pathlib import Path

import numpy as np

from ..errors import HeaderInvalid, IoFailure, NoIntersection, OutOfBounds
from ..raster import BandId, RawScene, read_json
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
    if np.any(disc < 0.0):
        raise NoIntersection("line of sight misses the ellipsoid")
    sqrt_disc = np.sqrt(disc)
    s1 = (-qb - sqrt_disc) / (2.0 * qa)
    s2 = (-qb + sqrt_disc) / (2.0 * qa)
    if np.any(s2 <= 0.0):
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
    band: BandId = BandId.RED,
) -> list[GeodeticCoord]:
    """Ground coordinates of the requested columns of one image line.

    One orbit propagation and one attitude interpolation serve the whole
    line; pass ``imager`` to georeference with adjusted offsets without
    touching the sidecar.
    """
    if imager is None:
        imager = metadata.imager
    if columns is None:
        columns = np.arange(scene.width)
    v_body = pixel_los(imager, band, columns)
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
    ecef = geodetic_to_ecef(grid.lat, grid.lon, grid.alt)
    across = np.linalg.norm(np.diff(ecef, axis=1), axis=2) * 1000.0 / np.diff(grid.columns)
    along = (np.linalg.norm(np.diff(ecef, axis=0), axis=2) * 1000.0
             / np.diff(grid.lines)[:, np.newaxis])
    return float(np.concatenate([across.ravel(), along.ravel()]).mean())


def build_geogrid(
    scene: RawScene,
    metadata: AcqMetadata,
    imager: ImagerModel | None = None,
    step: int = 64,
    band: BandId = BandId.RED,
) -> GeoGrid:
    """Geolocate a regular grid of nodes (first/last line and column always kept).

    Each sampled line is geolocated as ``georeference_line`` does it: one
    orbit state, one attitude and one intersection call per line.
    """
    if step < 1:
        raise OutOfBounds(f"step {step} < 1")
    if imager is None:
        imager = metadata.imager
    line_idx = _sample_indices(scene.lines, step)
    col_idx = _sample_indices(scene.width, step)
    v_body = pixel_los(imager, band, col_idx)
    coords = [_locate_line(int(line), scene, metadata, imager, v_body) for line in line_idx]
    lat = np.array([c.lat for c in coords])
    lon = np.array([c.lon for c in coords])
    alt = np.array([c.alt for c in coords])
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
    cols, lins = np.meshgrid(grid.columns.astype(float), grid.lines.astype(float))
    design = np.stack([cols.ravel(), lins.ravel(), np.ones(cols.size)], axis=1)
    lon_coef, _, _, _ = np.linalg.lstsq(design, grid.lon.ravel(), rcond=None)
    lat_coef, _, _, _ = np.linalg.lstsq(design, grid.lat.ravel(), rcond=None)
    resid = np.concatenate(
        [design @ lon_coef - grid.lon.ravel(), design @ lat_coef - grid.lat.ravel()]
    )
    rms = float(np.sqrt(np.mean(resid * resid)))
    a, b, c = lon_coef
    d, e, f = lat_coef
    return (float(a), float(d), float(b), float(e), float(c), float(f)), rms


def save_geogrid(grid: GeoGrid, json_path, world_path) -> tuple[tuple[float, ...], float]:
    """Write the grid JSON and the six-line ESRI world file.

    The JSON is the bytes of ``json.dumps(doc, sort_keys=True)`` of the
    whole document, written one grid row of ``lat``, ``lon`` and ``alt_m``
    at a time, so no list or string of a whole node array is built.
    Returns the world-file fit written into both, as ``fit_world_file``
    gives it.
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
    try:
        with open(json_path, "w") as fh:
            for i, key in enumerate(sorted(doc)):
                fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
                value = doc[key]
                if isinstance(value, np.ndarray):
                    fh.write("[")
                    for j, row in enumerate(value):
                        fh.write((", " if j else "") + json.dumps(row.tolist()))
                    fh.write("]")
                else:
                    fh.write(json.dumps(value, sort_keys=True))
            fh.write("}")
        Path(world_path).write_text("\n".join(f"{v:.12f}" for v in coeffs) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write geogrid: {exc}") from exc
    return coeffs, rms


def load_geogrid(json_path) -> GeoGrid:
    doc = read_json(json_path, HeaderInvalid)
    try:
        return GeoGrid(
            lines=np.asarray(doc["lines"], dtype=int),
            columns=np.asarray(doc["columns"], dtype=int),
            lat=np.asarray(doc["lat"]),
            lon=np.asarray(doc["lon"]),
            alt=np.asarray(doc["alt_m"]),
            corners={k: tuple(v) for k, v in doc["corners"].items()},
            mean_gsd_m=float(doc["mean_gsd_m"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise HeaderInvalid(f"{json_path}: malformed grid document: {exc}") from exc
