"""Ground-truth scene generator.

Manufactures raw pushbroom scenes with known vignetting, known inter-band
warps, and known orbit/attitude metadata, together with a truth pack that
records every applied distortion.  The truth pack is the independent
oracle behind the correction pipeline's tests: the generator renders and
distorts with its own code paths (hand-rolled bilinear warping, its own
ray/ellipsoid math) so it never shares the machinery it is used to judge.

Injected biases model unknown systematic errors: the *truth* geometry uses
them, the emitted metadata does not.  A positive ``time_s`` bias makes the
recorded line times early by ``time_s * time_drift`` seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridMismatch, PushprocError, SpecInvalid, TruthInvalid
from .raster import (_MAX_DIM, BAND_BY_NAME, BAND_COUNT, BAND_NAMES, BandId, CalibrationTable,
                     RawScene, check_field_types, fields_from_json, json_array, read_json,
                     write_file)
from .georef.accuracy import GeorefErrorStats
from .georef.attitude import AttitudeSample, Quaternion
from .georef.camera import ImagerModel, rpy_matrix
from .georef.frames import (
    WGS84_A_KM,
    WGS84_B_KM,
    ecef_to_geodetic,
    eci_to_ecef,
    enu_basis,
    geodetic_to_ecef,
)
from .georef.geolocate import GeodeticCoord, GeoGrid
from .georef.metadata import AcqMetadata
from .georef.orbits import CircularOrbit, orbit_from_spec

TEXTURES = ("flat", "urban-blocks")
PROFILES = ("quadratic", "cos4")
ATTITUDE_KINDS = ("nadir", "constant-offset", "nutation")


@dataclass
class SynthSpec:
    """Recipe for one synthetic acquisition."""

    seed: int = 0
    width: int = 512
    lines: int = 512
    bit_depth: int = 8
    texture: str = "urban-blocks"
    texture_base: float = 110.0
    texture_contrast: float = 70.0
    vignette_falloff: float = 40.0
    vignette_profile: str = "quadratic"
    band_warp: dict = field(default_factory=dict)
    dark_level: float = 0.0
    noise_sigma: float = 0.0
    orbit: dict = field(
        default_factory=lambda: {
            "kind": "circular",
            "altitude_km": 510.0,
            "inclination_deg": 97.6,
            "raan_deg": 0.0,
            "arg_lat0_deg": -1.0,
            "epoch_unix": 1525487400.0,
        }
    )
    attitude_profile: dict = field(default_factory=lambda: {"kind": "nadir"})
    injected_bias: tuple = (0.0, 0.0, 0.0)  # roll deg, pitch deg, time s
    time_drift: float = 1.0
    focal_length_mm: float = 238.0
    pixel_pitch_um: float = 7.0
    band_row_offset: dict = field(default_factory=dict)
    boresight_rpy_deg: tuple = (0.0, 0.0, 0.0)
    line_period_s: float | None = None
    attitude_sample_period_s: float = 1.0
    grid_step: int = 64

    def validate(self) -> None:
        if not (8 <= self.width <= _MAX_DIM and 8 <= self.lines <= _MAX_DIM):
            raise SpecInvalid(f"scene {self.width}x{self.lines} outside [8, {_MAX_DIM}] a side")
        if self.bit_depth not in (8, 16):
            raise SpecInvalid(f"bit_depth {self.bit_depth} not 8 or 16")
        if self.texture not in TEXTURES:
            raise SpecInvalid(f"texture {self.texture!r} not in {TEXTURES}")
        # urban-blocks draws block values from [max(base - contrast, 1), base + contrast].
        high = self.texture_base + self.texture_contrast
        if not (self.texture_contrast >= 0 and math.isfinite(high)) or (
                self.texture == "urban-blocks" and high < 1):
            raise SpecInvalid(f"texture_contrast {self.texture_contrast} must be >= 0 and "
                              f"texture_base + texture_contrast finite, and >= 1 for urban-blocks")
        if not 0.0 <= self.vignette_falloff <= 90.0:
            raise SpecInvalid(f"vignette_falloff {self.vignette_falloff} outside [0, 90]")
        if self.vignette_profile not in PROFILES:
            raise SpecInvalid(f"vignette_profile {self.vignette_profile!r} not in {PROFILES}")
        profile = self.attitude_profile
        _, period = (json_array(profile.get(key, 1.0), 0, SpecInvalid, f"attitude_profile {key}")
                     for key in ("amplitude_deg", "period_s"))
        rpy = json_array(profile.get("rpy_deg", [0, 0, 0]), 1, SpecInvalid,
                         "attitude_profile rpy_deg")
        if profile.get("kind") not in ATTITUDE_KINDS or not period > 0 or rpy.shape != (3,):
            raise SpecInvalid(f"attitude_profile needs a kind in {ATTITUDE_KINDS}, a period_s > 0 "
                              f"and three rpy_deg, got {profile!r}")
        if self.line_period_s is not None and not 0 <= self.line_period_s < math.inf:
            raise SpecInvalid(f"line_period_s {self.line_period_s} is not a finite number >= 0")
        for name in ("focal_length_mm", "pixel_pitch_um", "attitude_sample_period_s",
                     "grid_step"):
            if not getattr(self, name) > 0:
                raise SpecInvalid(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("injected_bias", "boresight_rpy_deg"):
            if json_array(getattr(self, name), 1, SpecInvalid, name).shape != (3,):
                raise SpecInvalid(f"{name} must be three numbers, got {getattr(self, name)!r}")
        # ``_truth_ground_point`` turns the sums into a rotation; Python floats
        # overflow to inf without a numpy warning.
        for axis, boresight, bias in zip(("roll", "pitch"), self.boresight_rpy_deg,
                                         self.injected_bias):
            if not math.isfinite(float(boresight) + float(bias)):
                raise SpecInvalid(f"boresight_rpy_deg + injected_bias {axis} is not finite")
        for name, offset in (self.band_row_offset or {}).items():
            json_array(offset, 0, SpecInvalid, f"band_row_offset {name!r}")
            if name not in BAND_BY_NAME:
                raise SpecInvalid(f"unknown band {name!r} in band_row_offset")
        for name, warp in (self.band_warp or {}).items():
            if name not in BAND_BY_NAME:
                raise SpecInvalid(f"unknown band {name!r} in band_warp")
            if not isinstance(warp, dict):
                raise SpecInvalid(f"band_warp {name!r} must be an object, got {warp!r}")
            order = json_array(warp.get("order", 2), 0, SpecInvalid, f"band_warp {name!r} order",
                               int)
            if order > 3:
                raise SpecInvalid(f"warp order {order} > 3")
            peak = np.abs(np.concatenate([
                json_array(warp.get(key), 1, SpecInvalid, f"band_warp {name!r} {key}")
                for key in ("coeff_dx", "coeff_dy")])).max(initial=0.0)
            if peak >= self.width / 8:
                raise SpecInvalid(f"warp magnitude {peak} >= width/8")
        if self.seed < 0 or self.dark_level < 0 or self.noise_sigma < 0:
            raise SpecInvalid("seed, dark_level and noise_sigma must be >= 0")
        orbit, epoch, *_, t_true, _ = _flight(self)
        # The rays of the scene's corners must meet the Earth; ``generate`` checks every node.
        for t in (t_true[0], t_true[-1]):
            for column in (0.0, self.width - 1.0):
                _truth_ground_point(orbit, self, float(t), column, epoch)

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSpec":
        spec = fields_from_json(cls, doc, SpecInvalid)
        if isinstance(spec.injected_bias, list):
            spec.injected_bias = tuple(spec.injected_bias)
        if isinstance(spec.boresight_rpy_deg, list):
            spec.boresight_rpy_deg = tuple(spec.boresight_rpy_deg)
        check_field_types(spec, SpecInvalid)
        return spec


@dataclass
class TruthPack:
    """Everything the generator knows that the pipeline has to discover."""

    clean: RawScene
    calib: CalibrationTable
    warp_fields: dict
    profile: np.ndarray
    metadata: AcqMetadata
    truth_grid: GeoGrid
    true_line_times: np.ndarray
    track_dir_en: tuple
    ground_speed_kms: float
    altitude_km: float
    injected_bias: tuple
    time_drift: float


# ----------------------------------------------------------------- textures

def _texture_flat(spec: SynthSpec) -> np.ndarray:
    return np.full((spec.lines, spec.width), spec.texture_base, dtype=np.float64)


def _texture_urban(spec: SynthSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, 31])
    lo = max(spec.texture_base - spec.texture_contrast, 1.0)
    hi = spec.texture_base + spec.texture_contrast
    img = np.full((spec.lines, spec.width), spec.texture_base - spec.texture_contrast / 2.0)
    n_blocks = max(20, spec.lines * spec.width // 1100)
    xs = rng.integers(0, spec.width, n_blocks)
    ys = rng.integers(0, spec.lines, n_blocks)
    ws = rng.integers(6, 36, n_blocks)
    hs = rng.integers(6, 36, n_blocks)
    vals = rng.uniform(lo, hi, n_blocks)
    for x0, y0, bw, bh, val in zip(xs, ys, ws, hs, vals):
        img[y0 : min(y0 + bh, spec.lines), x0 : min(x0 + bw, spec.width)] = val
    # Road grid for long straight edges.
    for x in range(0, spec.width, 56):
        img[:, x : x + 2] = lo * 0.6
    for y in range(0, spec.lines, 56):
        img[y : y + 2, :] = lo * 0.6
    return img


_TEXTURE_FN = {
    "flat": _texture_flat,
    "urban-blocks": _texture_urban,
}


# ------------------------------------------------------- distortion helpers

def _poly_terms(order: int, xn: np.ndarray, yn: np.ndarray) -> list:
    terms = [np.ones_like(xn)]
    for total in range(1, order + 1):
        for j in range(total + 1):
            i = total - j
            terms.append(xn ** i * yn ** j)
    return terms


def eval_warp(warp: dict, x: np.ndarray, y: np.ndarray, width: int, height: int):
    """Evaluate a truth warp field (pixels) at pixel coordinates."""
    order = int(warp.get("order", 2))
    xn = np.asarray(x, dtype=np.float64) / max(width - 1, 1)
    yn = np.asarray(y, dtype=np.float64) / max(height - 1, 1)
    terms = _poly_terms(order, xn, yn)
    cdx = list(map(float, warp["coeff_dx"]))
    cdy = list(map(float, warp["coeff_dy"]))
    wx = sum(c * t for c, t in zip(cdx, terms))
    wy = sum(c * t for c, t in zip(cdy, terms))
    return wx, wy


def _bilinear_clamped(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Edge-clamped bilinear sampling, in the canonical weighting order

        (1-fy) * ((1-fx) p00 + fx p01) + fy * ((1-fx) p10 + fx p11)

    which the truth-reproduction oracle mirrors exactly.
    """
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 2) if w > 1 else np.zeros_like(xs, dtype=int)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 2) if h > 1 else np.zeros_like(ys, dtype=int)
    fx = xs - x0
    fy = ys - y0
    p00 = img[y0, x0]
    p01 = img[y0, x0 + 1]
    p10 = img[y0 + 1, x0]
    p11 = img[y0 + 1, x0 + 1]
    return (1.0 - fy) * ((1.0 - fx) * p00 + fx * p01) + fy * ((1.0 - fx) * p10 + fx * p11)


def vignette_profile(kind: str, falloff: float, width: int) -> np.ndarray:
    """Column multiplier v(u) of ``width`` columns: 1 at center, 1 - falloff/100 at the edges.

    ``kind`` is one of ``PROFILES``: quadratic uses v(u) = 1 - f (2u-1)^2;
    the cos^4 variant matches the same edge falloff but with lens-law
    curvature, for model-mismatch studies.
    """
    f = falloff / 100.0
    u = np.arange(width, dtype=np.float64) / (width - 1)
    if kind == "quadratic":
        return 1.0 - f * (2.0 * u - 1.0) ** 2
    alpha = math.acos((1.0 - f) ** 0.25) if f > 0 else 0.0
    return np.cos(alpha * (2.0 * u - 1.0)) ** 4


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


# ------------------------------------------------------ truth geolocation

def _attitude_matrix(orbit, profile: dict, t: float, epoch: float) -> np.ndarray:
    """Body-to-ECI matrix of the commanded attitude at time t.

    Built directly from the continuous profile; the sidecar only ever sees
    discrete quaternion samples of this.
    """
    state = orbit.state_at(t)
    r = state.r_eci
    v = state.v_eci
    z = -r / np.linalg.norm(r)
    y = v - (v @ z) * z
    y = y / np.linalg.norm(y)
    x = np.cross(y, z)
    m = np.stack([x, y, z], axis=1)
    kind = profile.get("kind", "nadir")
    if kind == "constant-offset":
        roll, pitch, yaw = profile.get("rpy_deg", (0.0, 0.0, 0.0))
        m = m @ rpy_matrix(roll, pitch, yaw)
    elif kind == "nutation":
        amp = float(profile.get("amplitude_deg", 0.28))
        period = float(profile.get("period_s", 73.0))
        m = m @ rpy_matrix(amp * math.sin(2.0 * math.pi * (t - epoch) / period), 0.0, 0.0)
    return m


def _intersect_wgs84(r_km: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Generator-local ray/ellipsoid solve (kept separate from the pipeline's)."""
    d = d / np.linalg.norm(d)
    wa2 = WGS84_A_KM * WGS84_A_KM
    wb2 = WGS84_B_KM * WGS84_B_KM
    qa = d[0] ** 2 / wa2 + d[1] ** 2 / wa2 + d[2] ** 2 / wb2
    qb = 2.0 * (r_km[0] * d[0] / wa2 + r_km[1] * d[1] / wa2 + r_km[2] * d[2] / wb2)
    qc = r_km[0] ** 2 / wa2 + r_km[1] ** 2 / wa2 + r_km[2] ** 2 / wb2 - 1.0
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        raise SpecInvalid("truth ray misses the ellipsoid; check the orbit/attitude spec")
    s = (-qb - math.sqrt(disc)) / (2.0 * qa)
    return r_km + s * d


def _truth_ground_point(orbit, spec: SynthSpec, t: float, column: float,
                        epoch: float) -> GeodeticCoord:
    roll_b, pitch_b, _ = spec.injected_bias
    r0, p0, y0 = spec.boresight_rpy_deg
    pitch_mm = spec.pixel_pitch_um * 1e-3
    ray = np.array(
        [
            (column - (spec.width - 1) / 2.0) * pitch_mm,
            float((spec.band_row_offset or {}).get("red", 0.0)) * pitch_mm,
            spec.focal_length_mm,
        ]
    )
    ray /= np.linalg.norm(ray)
    v_body = rpy_matrix(r0 + roll_b, p0 + pitch_b, y0) @ ray
    m = _attitude_matrix(orbit, spec.attitude_profile, t, epoch)
    v_eci = m @ v_body
    r_ecef = eci_to_ecef(orbit.state_at(t).r_eci, t)
    d_ecef = eci_to_ecef(v_eci, t)
    ground = _intersect_wgs84(r_ecef, d_ecef)
    lat, lon, alt = ecef_to_geodetic(ground)
    return GeodeticCoord(lat=lat, lon=lon, alt=alt)


def _grid_indices(extent: int, step: int) -> np.ndarray:
    idx = list(range(0, extent, step))
    if idx[-1] != extent - 1:
        idx.append(extent - 1)
    return np.asarray(idx, dtype=int)


# ----------------------------------------------------------------- generate

def _spec_orbit(doc: dict):
    """The orbit model of a spec's ``orbit`` (with a 'kind' tag); ``SpecInvalid`` if malformed."""
    kind = doc.get("kind", "circular")
    try:
        if kind == "circular":
            return orbit_from_spec({"circular_orbit": {k: v for k, v in doc.items() if k != "kind"}})
        if kind == "tle":
            return orbit_from_spec({"tle": doc.get("lines")})
    except PushprocError as exc:
        raise SpecInvalid(f"orbit {doc!r:.80}: {exc}") from exc
    raise SpecInvalid(f"unknown orbit kind {kind!r}")


def _flight(spec: SynthSpec):
    """The orbit of ``spec``, its epoch, altitude (km) and ground speed (km/s),
    and the acquisition's line period, true line times and attitude sample
    times (padded past the lines and the injected time bias).  ``SpecInvalid``
    when the orbit is malformed, the line times do not strictly increase or
    the attitude samples would number more than ``_MAX_DIM``."""
    orbit = _spec_orbit(spec.orbit)
    if isinstance(orbit, CircularOrbit):
        epoch = orbit.epoch_unix
        altitude_km = orbit.altitude_km
        v_ground = orbit.ground_speed_kms
    else:
        epoch = orbit.elements.epoch_unix
        state = orbit.state_at(epoch)
        altitude_km = float(np.linalg.norm(state.r_eci)) - WGS84_A_KM
        r0 = eci_to_ecef(orbit.state_at(epoch).r_eci, epoch)
        r1 = eci_to_ecef(orbit.state_at(epoch + 1.0).r_eci, epoch + 1.0)
        v_ground = float(np.linalg.norm(r1 - r0)) * WGS84_A_KM / float(np.linalg.norm(r0))
    ifov_rad = ImagerModel(spec.focal_length_mm, spec.pixel_pitch_um, spec.width).ifov_rad
    line_period = spec.line_period_s if spec.line_period_s else altitude_km * ifov_rad / v_ground
    t_true = epoch + np.arange(spec.lines, dtype=np.float64) * line_period
    if not (np.diff(t_true) > 0).all():
        raise SpecInvalid(f"line period {line_period} s does not separate the line times")
    period = spec.attitude_sample_period_s
    pad = 2.0 * period + abs(spec.injected_bias[2] * spec.time_drift)
    periods = (t_true[-1] - t_true[0] + 2 * pad) / period
    if not periods <= _MAX_DIM - 2:
        raise SpecInvalid(f"attitude_sample_period_s {period} and time bias ask for more than "
                          f"{_MAX_DIM} attitude samples")
    # Float offsets: an integer period past int64 does not fit an integer array.
    offsets = np.arange(int(math.ceil(periods)) + 2, dtype=np.float64)
    sample_times = t_true[0] - pad + offsets * period
    return orbit, epoch, altitude_km, v_ground, line_period, t_true, sample_times


def generate(spec: SynthSpec) -> tuple[RawScene, TruthPack]:
    """Render, distort, and describe one synthetic acquisition.

    Deterministic for a fixed seed.  Stage order: texture, per-band warp
    (inverse-map bilinear), vignette multiply, dark offset, per-line
    Gaussian noise, round-half-up quantization.
    """
    spec.validate()
    max_dn = (1 << spec.bit_depth) - 1

    texture = _TEXTURE_FN[spec.texture](spec)
    clean_q = np.clip(_round_half_up(texture), 0, max_dn).astype(np.uint16)

    orbit, epoch, altitude_km, v_ground, line_period, t_true, sample_times = _flight(spec)
    imager = ImagerModel(
        focal_length_mm=spec.focal_length_mm,
        pixel_pitch_um=spec.pixel_pitch_um,
        columns=spec.width,
        band_row_offset={
            BAND_BY_NAME[name]: float(v) for name, v in (spec.band_row_offset or {}).items()
        },
        boresight_rpy_deg=spec.boresight_rpy_deg,
        time_offset_s=0.0,
    )
    t_recorded = t_true - spec.injected_bias[2] * spec.time_drift

    # Per-band geometric warp, then radiometry.
    profile = vignette_profile(spec.vignette_profile, spec.vignette_falloff, spec.width)
    yy, xx = np.mgrid[0 : spec.lines, 0 : spec.width].astype(np.float64)
    raw_planes = np.empty((BAND_COUNT, spec.lines, spec.width), dtype=np.uint16)
    warp_fields: dict = {}
    for band in BandId:
        warp = (spec.band_warp or {}).get(BAND_NAMES[band])
        src = clean_q.astype(np.float64)
        if warp:
            wx, wy = eval_warp(warp, xx, yy, spec.width, spec.lines)
            src = _bilinear_clamped(src, xx + wx, yy + wy)
            warp_fields[band] = {
                "order": int(warp.get("order", 2)),
                "coeff_dx": [float(c) for c in warp["coeff_dx"]],
                "coeff_dy": [float(c) for c in warp["coeff_dy"]],
            }
        else:
            warp_fields[band] = None
        plane = src * profile[np.newaxis, :] + spec.dark_level
        if spec.noise_sigma > 0:
            noise = np.empty_like(plane)
            for line in range(spec.lines):
                rng = np.random.default_rng([spec.seed, int(band), line, 7])
                noise[line] = rng.normal(0.0, spec.noise_sigma, spec.width)
            plane = plane + noise
        raw_planes[int(band)] = np.clip(_round_half_up(plane), 0, max_dn).astype(np.uint16)

    raw = RawScene(raw_planes, t_recorded, spec.bit_depth)
    clean = RawScene(np.broadcast_to(clean_q, (BAND_COUNT,) + clean_q.shape).copy(),
                     t_true, spec.bit_depth)

    calib = CalibrationTable(
        response=np.tile(1.0 / profile, (BAND_COUNT, 1)),
        dark=np.full((BAND_COUNT, spec.width), float(spec.dark_level)),
    )

    # Attitude samples for the sidecar: the commanded profile, no bias.
    samples = [
        AttitudeSample(float(t), Quaternion.from_matrix(
            _attitude_matrix(orbit, spec.attitude_profile, float(t), epoch)))
        for t in sample_times
    ]
    metadata = AcqMetadata(orbit=orbit, attitude=samples, line_period_s=line_period,
                           imager=imager)

    # Truth geolocation grid at the true times and true (biased) geometry.
    line_idx = _grid_indices(spec.lines, spec.grid_step)
    col_idx = _grid_indices(spec.width, spec.grid_step)
    lat = np.empty((len(line_idx), len(col_idx)))
    lon = np.empty_like(lat)
    alt = np.empty_like(lat)
    for i, line in enumerate(line_idx):
        t = float(t_true[line])
        for j, col in enumerate(col_idx):
            coord = _truth_ground_point(orbit, spec, t, float(col), epoch)
            lat[i, j] = coord.lat
            lon[i, j] = coord.lon
            alt[i, j] = coord.alt
    truth_grid = GeoGrid(lines=line_idx, columns=col_idx, lat=lat, lon=lon, alt=alt)

    # Along-track axis: the inertial ground-velocity direction in local ENU.
    # Boresight biases displace ground points along the body axes, which are
    # built from the inertial velocity, so this choice keeps roll strictly
    # across-track and pitch strictly along-track.  The footprint's
    # Earth-fixed track is skewed from it by the Earth-rotation angle.
    mid_col = len(col_idx) // 2
    t_mid = float(t_true[line_idx[len(line_idx) // 2]])
    state_mid = orbit.state_at(t_mid)
    v_ecef_axes = eci_to_ecef(state_mid.v_eci, t_mid)
    mid_row = len(line_idx) // 2
    east, north, _ = enu_basis(lat[mid_row, mid_col], lon[mid_row, mid_col])
    track = np.array([v_ecef_axes @ east, v_ecef_axes @ north])
    track /= np.linalg.norm(track)

    # Footprint speed over ground (Earth-fixed), the scale for clock errors.
    p0 = geodetic_to_ecef(lat[0, mid_col], lon[0, mid_col], 0.0)
    p1 = geodetic_to_ecef(lat[-1, mid_col], lon[-1, mid_col], 0.0)
    span_s = float(t_true[line_idx[-1]] - t_true[line_idx[0]])
    speed_measured = float(np.linalg.norm(p1 - p0)) / span_s if span_s > 0 else v_ground

    truth = TruthPack(
        clean=clean,
        calib=calib,
        warp_fields=warp_fields,
        profile=profile,
        metadata=metadata,
        truth_grid=truth_grid,
        true_line_times=t_true,
        track_dir_en=(float(track[0]), float(track[1])),
        ground_speed_kms=speed_measured,
        altitude_km=altitude_km,
        injected_bias=tuple(spec.injected_bias),
        time_drift=spec.time_drift,
    )
    return raw, truth


# ------------------------------------------------------------ truth metrics

def truth_coreg_residual(truth: TruthPack, model, band: BandId, grid_step: int = 16) -> float:
    """Geometric residual (RMS px) of a correction model against the truth warp.

    The corrected band samples the raw band at x + d(x); the raw band
    samples the clean scene at x + w(x).  Perfect alignment means the
    composition returns to x, so the per-pixel residual is

        r(x) = d(x) + w(x + d(x))      (d = 0 for an uncorrected band).
    """
    h, w = truth.clean.lines, truth.clean.width
    if model is not None and (model.width != w or model.height != h):
        raise DimensionMismatch(
            f"model {model.width}x{model.height} vs scene {w}x{h}"
        )
    yy, xx = np.mgrid[0:h:grid_step, 0:w:grid_step].astype(np.float64)
    if model is not None:
        dx, dy = model.evaluate(xx, yy)
    else:
        dx = np.zeros_like(xx)
        dy = np.zeros_like(yy)
    warp = truth.warp_fields.get(band)
    if warp is None:
        wx = np.zeros_like(xx)
        wy = np.zeros_like(yy)
    else:
        wx, wy = eval_warp(warp, xx + dx, yy + dy, w, h)
    res = np.hypot(dx + wx, dy + wy)
    return float(np.sqrt(np.mean(res * res)))


def truth_georef_error(truth: TruthPack, grid: GeoGrid) -> GeorefErrorStats:
    """Ground distance of a computed grid from the truth grid, decomposed
    onto the truth ground-track axes (along, across-right)."""
    tg = truth.truth_grid
    if not np.array_equal(grid.lines, tg.lines) or not np.array_equal(grid.columns, tg.columns):
        raise GridMismatch("grids are not sampled at the same (line, column) nodes")
    te, tn = truth.track_dir_en
    along = []
    across = []
    for i in range(tg.lat.shape[0]):
        for j in range(tg.lat.shape[1]):
            p_true = geodetic_to_ecef(tg.lat[i, j], tg.lon[i, j], 0.0)
            p_comp = geodetic_to_ecef(grid.lat[i, j], grid.lon[i, j], 0.0)
            diff = p_comp - p_true
            east, north, _ = enu_basis(tg.lat[i, j], tg.lon[i, j])
            e = float(diff @ east)
            n = float(diff @ north)
            along.append(e * te + n * tn)
            across.append(e * tn - n * te)
    along = np.asarray(along)
    across = np.asarray(across)
    total = np.hypot(across, along)
    return GeorefErrorStats(
        mean_across_km=float(across.mean()),
        mean_along_km=float(along.mean()),
        std_across_km=float(across.std()),
        std_along_km=float(along.std()),
        rms_total_km=float(np.sqrt(np.mean(total * total))),
        across_km=across,
        along_km=along,
    )


# ------------------------------------------------------------------- files

def save_truth(truth: TruthPack, path) -> None:
    """Truth sidecar JSON: warps, profile, grid, and scalar truths."""
    doc = {
        "warp_fields": {
            BAND_NAMES[band]: warp for band, warp in truth.warp_fields.items()
        },
        "profile": [float(v) for v in truth.profile],
        "truth_grid": {
            "lines": [int(v) for v in truth.truth_grid.lines],
            "columns": [int(v) for v in truth.truth_grid.columns],
            "lat": truth.truth_grid.lat.tolist(),
            "lon": truth.truth_grid.lon.tolist(),
            "alt_m": truth.truth_grid.alt.tolist(),
        },
        "true_line_times": [float(t) for t in truth.true_line_times],
        "track_dir_en": list(truth.track_dir_en),
        "ground_speed_kms": truth.ground_speed_kms,
        "altitude_km": truth.altitude_km,
        "injected_bias": list(truth.injected_bias),
        "time_drift": truth.time_drift,
    }
    write_file(path, [json.dumps(doc, sort_keys=True)])


def load_truth_grid(path) -> tuple[GeoGrid, tuple]:
    """Read back the truth grid and track direction from a truth sidecar.

    Raises IoFailure when the file cannot be read and TruthInvalid when it
    is not a truth sidecar: missing keys, values that are not JSON numbers
    (integers in the node lists) or that overflow, non-finite values,
    coordinate arrays that do not match the node lists, a zero track
    direction, or an altitude whose magnitude reaches WGS84's equatorial
    radius.
    """
    doc = read_json(path, TruthInvalid)
    try:
        grid_doc = doc["truth_grid"]
        found = {key: grid_doc[key] for key in ("lines", "columns", "lat", "lon", "alt_m")}
        track = doc["track_dir_en"]
    except (KeyError, TypeError) as exc:
        raise TruthInvalid(f"{path}: malformed truth sidecar: {exc}") from exc
    lines, columns = (json_array(found[key], 1, TruthInvalid, f"{path}: truth grid {key}", int)
                      for key in ("lines", "columns"))
    lat, lon, alt = (json_array(found[key], 2, TruthInvalid, f"{path}: truth grid {key}")
                     for key in ("lat", "lon", "alt_m"))
    track_dir = tuple(json_array(track, 1, TruthInvalid, f"{path}: track_dir_en").tolist())
    nodes = (lines.size, columns.size)
    if any(a.shape != nodes for a in (lat, lon, alt)):
        raise TruthInvalid(f"{path}: truth grid coordinates do not match its {nodes} nodes")
    if len(track_dir) != 2 or not math.hypot(*track_dir) > 0.0:
        raise TruthInvalid(f"{path}: track_dir_en {track_dir} is not a 2-D direction")
    if not np.all(np.abs(alt) < WGS84_A_KM * 1000.0):
        raise TruthInvalid(f"{path}: a truth grid alt_m reaches the WGS84 equatorial radius")
    return GeoGrid(lines=lines, columns=columns, lat=lat, lon=lon, alt=alt), track_dir
