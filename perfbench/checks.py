"""Output checks made apart from the program.

Each check takes products and truth as plain arrays and documents, so the
self-test (``selftest.py``) can feed it a deliberately wrong product.  The
L3RAW reader, the correction formula, the warp polynomial and the geodetic
conversion are written out here instead of borrowed from ``pushproc``; the
one shared piece is ``synthscene.truth_coreg_residual``, the generator's own
truth metric.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BAND_NAMES = ("blue", "green", "red", "nir")
REF_BAND = "red"
MAX_MODEL_RMS_PX = 0.5
NIR_MARGIN_PX = 32
NIR_TOL_OF_CONTRAST = 0.05   # mean |aligned NIR - clean| <= 5% of the texture contrast
MAX_GRID_DEV_M = 30.0
ROLL_TOL_DEG = 0.005

_HEADER = struct.Struct("<4sHIIBB4s")
_A_M = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)


def read_l3raw(path) -> tuple[np.ndarray, int]:
    """Planes [4, lines, width] as uint16 and the bit depth of an L3RAW file."""
    blob = Path(path).read_bytes()
    magic, _, width, lines, bit_depth, bands, _ = _HEADER.unpack_from(blob)
    if magic != b"L3RW" or bands != 4 or bit_depth not in (8, 16):
        raise ValueError(f"{path}: not a 4-band L3RAW file")
    offset = _HEADER.size + 8 * lines
    dtype = "<u1" if bit_depth == 8 else "<u2"
    planes = np.frombuffer(blob, dtype=dtype, count=4 * lines * width, offset=offset)
    return planes.reshape(4, lines, width).astype(np.uint16), bit_depth


def check_red(raw: np.ndarray, calib_doc: dict, corrected: np.ndarray,
              bit_depth: int) -> str | None:
    """Red band equals clip(floor(R * max(X - D, 0) + 0.5)) exactly."""
    band = calib_doc["bands"][REF_BAND]
    r = np.asarray(band["R"], dtype=np.float64)
    d = np.asarray(band["D"], dtype=np.float64)
    x = raw[BAND_NAMES.index(REF_BAND)].astype(np.float64)
    want = np.clip(np.floor(r * np.maximum(x - d, 0.0) + 0.5), 0, (1 << bit_depth) - 1)
    got = corrected[BAND_NAMES.index(REF_BAND)]
    bad = int(np.count_nonzero(got != want))
    return None if bad == 0 else f"red band: {bad} samples differ from R*max(X-D,0)"


class _Model:
    """Polynomial shift field from a report's model block, evaluated here."""

    def __init__(self, doc: dict):
        self.order = int(doc["order"])
        self.coeff_dx = np.asarray(doc["coeff_dx"], dtype=np.float64)
        self.coeff_dy = np.asarray(doc["coeff_dy"], dtype=np.float64)
        self.width = int(doc["width"])
        self.height = int(doc["height"])

    def evaluate(self, x, y):
        xn = np.asarray(x, dtype=np.float64) / max(self.width - 1, 1)
        yn = np.asarray(y, dtype=np.float64) / max(self.height - 1, 1)
        terms = [xn ** (total - j) * yn ** j
                 for total in range(self.order + 1) for j in range(total + 1)]
        return (sum(c * t for c, t in zip(self.coeff_dx, terms)),
                sum(c * t for c, t in zip(self.coeff_dy, terms)))


def check_models(coreg_stage: dict | None, warp_fields: dict, width: int,
                 height: int) -> tuple[str | None, float]:
    """Every target band's model corrects the truth warp to <= 0.5 px RMS.

    Returns the failure (or None) and the worst band's truth residual.
    """
    from pushproc.raster import BAND_BY_NAME
    from pushproc.synthscene import truth_coreg_residual

    if not coreg_stage:
        return "coreg: report has no coreg stage", math.inf
    truth = SimpleNamespace(
        clean=SimpleNamespace(lines=height, width=width),
        warp_fields={BAND_BY_NAME[name]: warp for name, warp in warp_fields.items()},
    )
    worst = 0.0
    for name in BAND_NAMES:
        if name == REF_BAND:
            continue
        block = coreg_stage["bands"].get(name)
        if block is None:
            return f"coreg: no model for band {name}", math.inf
        rms = truth_coreg_residual(truth, _Model(block["model"]), BAND_BY_NAME[name])
        worst = max(worst, rms)
    if worst > MAX_MODEL_RMS_PX:
        return f"coreg: truth residual {worst:.3f} px > {MAX_MODEL_RMS_PX} px", worst
    return None, worst


def check_nir(aligned: np.ndarray, clean: np.ndarray, contrast: float) -> str | None:
    """Aligned NIR interior within 5% of the texture contrast of the clean plane."""
    m = NIR_MARGIN_PX
    diff = np.abs(aligned.astype(np.float64) - clean.astype(np.float64))[m:-m, m:-m]
    mad = float(diff.mean())
    tol = NIR_TOL_OF_CONTRAST * contrast
    if mad > tol:
        return f"nir: mean |aligned - clean| {mad:.2f} DN > {tol:.2f} DN"
    return None


def _ecef_m(lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    n = _A_M / np.sqrt(1.0 - _E2 * np.sin(lat) ** 2)
    return np.stack([n * np.cos(lat) * np.cos(lon), n * np.cos(lat) * np.sin(lon),
                     n * (1.0 - _E2) * np.sin(lat)], axis=-1)


def grid_deviation_m(grid_doc: dict, truth_grid: dict) -> np.ndarray | None:
    """Distance in metres of each grid node from the truth node, or None."""
    if grid_doc["lines"] != truth_grid["lines"] or grid_doc["columns"] != truth_grid["columns"]:
        return None
    return np.linalg.norm(
        _ecef_m(np.asarray(grid_doc["lat"]), np.asarray(grid_doc["lon"]))
        - _ecef_m(np.asarray(truth_grid["lat"]), np.asarray(truth_grid["lon"])), axis=-1)


def check_grid(dev: np.ndarray | None, world_text: str) -> str | None:
    """Every grid node within 30 m of the truth grid; six finite world-file terms."""
    if dev is None:
        return "grid: nodes differ from the truth grid's"
    try:
        coeffs = [float(v) for v in world_text.split()]
    except ValueError:
        coeffs = []
    if len(coeffs) != 6 or not all(math.isfinite(c) for c in coeffs):
        return "grid.wld: not six finite coefficients"
    worst = float(dev.max())
    if not worst <= MAX_GRID_DEV_M:
        return f"grid: node {worst:.2f} m from truth > {MAX_GRID_DEV_M} m"
    return None


def check_bias(est: dict, injected: tuple) -> str | None:
    """Recovered roll within 0.005 deg, clock within 5% + 0.01 s (acceptance 08)."""
    if "error" in est:
        return f"bias: {est['error']}"
    roll, _, clock = injected
    if abs(est["roll_deg"] - roll) > ROLL_TOL_DEG:
        return f"bias: roll {est['roll_deg']:.4f} deg vs injected {roll}"
    if abs(est["time_s"] - clock) > 0.05 * abs(clock) + 0.01:
        return f"bias: clock {est['time_s']:.4f} s vs injected {clock}"
    return None


def check_determinism(digest_sets: list[dict]) -> str | None:
    """Every run of a scene produced byte-identical products."""
    distinct = {json.dumps(d, sort_keys=True) for d in digest_sets}
    return None if len(distinct) == 1 else f"determinism: {len(distinct)} distinct product sets"


def check_scene(scene: dict, sdir: Path, out: Path) -> tuple[list[str], dict]:
    """All product checks of one scene; returns failures and truth figures."""
    spec = scene["spec"]
    raw, bit_depth = read_l3raw(sdir / "scene.l3raw")
    corrected, _ = read_l3raw(out / "corrected.l3raw")
    calib = json.loads((sdir / "calib.json").read_text())
    truth = json.loads((sdir / "truth.json").read_text())
    report = json.loads((out / "report.json").read_text())
    failures = []
    figures = {}

    failures.append(check_red(raw, calib, corrected, bit_depth))
    problem, figures["truth_rms_px"] = check_models(
        report["stages"].get("coreg"), truth["warp_fields"], spec["width"], spec["lines"])
    failures.append(problem)
    failures.append(check_nir(corrected[BAND_NAMES.index("nir")], np.load(sdir / "clean.npy"),
                              spec["texture_contrast"]))
    dev = grid_deviation_m(json.loads((out / "grid.json").read_text()), truth["truth_grid"])
    figures["truth_rms_m"] = math.inf if dev is None else float(np.sqrt(np.mean(dev * dev)))
    if not any(spec.get("injected_bias", ())):
        # A biased scene is kilometres off by design; bias recovery checks it.
        failures.append(check_grid(dev, (out / "grid.wld").read_text()))
    return [f for f in failures if f], figures
