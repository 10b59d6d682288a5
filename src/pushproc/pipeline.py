"""Batch orchestration: vignetting, co-registration, georeferencing.

Stages run in a fixed order because the radiometric correction is
per-detector-column and must happen before resampling mixes columns.
Disabled stages pass the scene through untouched.  Everything the run
learned lands in a :class:`QualityReport`; wall-clock numbers live only
under the ``timing`` key so reports stay byte-comparable without them.
"""

from __future__ import annotations

import json
import math
import time
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import coreg as coreg_mod
from . import radiometry
from .errors import (
    BadBandSelection,
    ConfigInvalid,
    MissingAttitude,
    PushprocError,
    ReportInvalid,
    StageFailure,
)
from .georef.geolocate import _sample_indices, build_geogrid, save_geogrid
from .georef.metadata import AcqMetadata, load_metadata
from .raster import (BAND_NAMES, BandId, CalibrationTable, RawScene, block_lines,
                     load_calibration, load_raw, save_raw)

STAGES = ("vignetting", "coreg", "georef")


@dataclass
class PipelineConfig:
    raw_path: str = ""
    out_dir: str = ""
    calib_path: str | None = None
    meta_path: str | None = None
    truth_path: str | None = None
    vignetting: bool = True
    coreg: bool = True
    georef: bool = True
    ref_band: BandId = BandId.RED
    tile_size: int = 128
    grid_nx: int = 8
    grid_ny: int = 8
    poly_order: int = 2
    min_score: float = 0.1
    gate_radius: float = 5.0
    grid_step: int = 64
    residual_points: int = 50
    workers: int = 1
    quicklook: bool = False

    def validate(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            value, expected = getattr(self, f.name), hints[f.name]
            # JSON writes whole floats as integers; bool is an int subclass
            # but never a valid number here.
            allowed = (int, float) if expected is float else expected
            if (isinstance(value, bool) and expected is not bool) \
                    or not isinstance(value, allowed):
                raise ConfigInvalid(f"{f.name} must be {f.type}, got {value!r}")
        if not self.raw_path:
            raise ConfigInvalid("raw input path is required")
        if not self.out_dir:
            raise ConfigInvalid("output directory is required")
        if not (self.vignetting or self.coreg or self.georef):
            raise ConfigInvalid("at least one stage must be enabled")
        paths = [p for p in (self.raw_path, self.calib_path, self.meta_path,
                             self.truth_path) if p]
        if len(paths) != len(set(paths)):
            raise ConfigInvalid("input paths must be distinct")
        if self.poly_order not in (1, 2, 3):
            raise ConfigInvalid(f"poly_order {self.poly_order} not in 1..3")
        # The lower bounds the stages themselves enforce, checked before any runs.
        for name, low in (("tile_size", 32), ("grid_nx", 1), ("grid_ny", 1),
                          ("grid_step", 1), ("residual_points", 10), ("workers", 1)):
            if getattr(self, name) < low:
                raise ConfigInvalid(f"{name} {getattr(self, name)} < {low}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ConfigInvalid(f"config must be a JSON object, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**doc)
        if type(cfg.ref_band) is int and cfg.ref_band in {int(b) for b in BandId}:
            cfg.ref_band = BandId(cfg.ref_band)
        return cfg


@dataclass
class QualityReport:
    schema: int = 1
    stages: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "stages": self.stages,
            "timing": self.timing,
            "outputs": self.outputs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def _metric_rows(scene: RawScene, count: int = 16) -> np.ndarray:
    """``count`` evenly spaced line indices, repeats dropped (``np.unique`` of the sorted rows)."""
    rows = np.linspace(0, scene.lines - 1, count).astype(int)
    return rows[np.diff(rows, prepend=-1) > 0]


def _center_region(scene: RawScene):
    h, w = scene.lines, scene.width
    return (slice(h // 4, h - h // 4), slice(w // 4, w - w // 4))


def _radiometry_metrics(scene: RawScene) -> dict:
    rows = _metric_rows(scene)
    region = _center_region(scene)
    out = {}
    for band in BandId:
        plane = scene.band(band)
        out[BAND_NAMES[band]] = {
            "falloff_pct": radiometry.edge_center_ratio(plane, rows),
            "uniformity_std_pct": radiometry.uniformity_std(plane, region),
        }
    return out


def _stage_vignetting(scene: RawScene, calib: CalibrationTable, report: QualityReport) -> RawScene:
    """Correct ``scene`` in place, between the metrics before and after.

    The stage owns ``scene`` (``run_pipeline`` loaded it), so the corrected
    planes overwrite the loaded ones and no second cube is built.
    """
    before = _radiometry_metrics(scene)
    corrected = radiometry.correct_vignetting(scene, calib, out=scene.planes)
    after = _radiometry_metrics(corrected)
    report.stages["vignetting"] = {"before": before, "after": after}
    return corrected


def _coreg_grids(shape: tuple[int, int],
                 config: PipelineConfig) -> tuple[coreg_mod.TileGrid, coreg_mod.TileGrid]:
    """The match grid and the residual grid of a plane of ``shape``; ``OutOfBounds`` if either fails."""
    return (coreg_mod.TileGrid(shape, config.tile_size, config.grid_nx, config.grid_ny),
            coreg_mod.residual_grid(shape, config.residual_points))


def _stage_coreg(scene: RawScene, metadata: AcqMetadata | None,
                 config: PipelineConfig, report: QualityReport) -> RawScene:
    """Align every band to the reference band, in place.

    The stage owns ``scene``: each band is warped in place, over its
    source plane, which no later step reads.  All target bands are matched
    on the match grid together, so each reference tile is prepared once
    per grid; each band is then fitted and resampled in band order, and
    the aligned bands are matched together on the residual grid.  No edge
    map outlives the block ``match_bands`` builds it for.
    """
    ref_band = config.ref_band
    ref_plane = scene.band(ref_band)
    targets = [band for band in BandId if band != ref_band]
    match_grid, residual_grid = _coreg_grids(ref_plane.shape, config)
    found = coreg_mod.match_bands(ref_plane, match_grid, [scene.band(band) for band in targets],
                                  min_score=config.min_score, workers=config.workers)
    metrics: dict = {"reference_band": BAND_NAMES[ref_band], "bands": {}}
    for band, matches in zip(targets, found):
        coreg_mod.require_matches(matches)
        prior = None
        if metadata is not None and metadata.attitude:
            try:
                prior = coreg_mod.predict_shift_prior(
                    metadata, (ref_band, band), gate_radius=config.gate_radius
                )
            except MissingAttitude:
                prior = None
        inliers = coreg_mod.remove_outliers(matches, prior)
        model = coreg_mod.fit_distortion(
            inliers, order=config.poly_order, width=scene.width, height=scene.lines
        )
        plane = scene.band(band)
        _, valid = coreg_mod.resample(plane, model, out=plane)
        masked = valid.size - int(np.count_nonzero(valid))
        del valid   # not kept through the next band's resampling
        metrics["bands"][BAND_NAMES[band]] = {
            "matches": len(matches),
            "inliers": len(inliers),
            "prior": None if prior is None else {"dx": prior.dx, "dy": prior.dy},
            "model": json.loads(model.to_json()),
            "fit_rms_px": model.rms_fit,
            "masked_pixels": masked,
        }
    residuals = coreg_mod.match_bands(ref_plane, residual_grid,
                                      [scene.band(band) for band in targets],
                                      min_score=config.min_score, workers=config.workers)
    for band, matches in zip(targets, residuals):
        mean_px, rms_px = coreg_mod.residual_stats(coreg_mod.require_matches(matches))
        metrics["bands"][BAND_NAMES[band]].update(residual_mean_px=mean_px,
                                                  residual_rms_px=rms_px)
    report.stages["coreg"] = metrics
    return scene


def _stage_georef(scene: RawScene, metadata: AcqMetadata, truth: tuple | None,
                  config: PipelineConfig, out_dir: Path, report: QualityReport) -> None:
    grid = build_geogrid(scene, metadata, step=config.grid_step)
    grid_json = out_dir / "grid.json"
    world_file = out_dir / "grid.wld"
    _, world_rms = save_geogrid(grid, grid_json, world_file)
    metrics = {
        "corners": {k: list(v) for k, v in grid.corners.items()},
        "mean_gsd_m": grid.mean_gsd_m,
        "grid_nodes": [int(grid.lat.shape[0]), int(grid.lat.shape[1])],
        "world_file_rms_deg": world_rms,
    }
    if truth is not None:
        from .georef.accuracy import georef_error_stats

        stats = georef_error_stats(grid, *truth)
        metrics["error_stats"] = {
            "mean_across_km": stats.mean_across_km,
            "mean_along_km": stats.mean_along_km,
            "std_across_km": stats.std_across_km,
            "std_along_km": stats.std_along_km,
            "rms_total_km": stats.rms_total_km,
        }
    report.stages["georef"] = metrics
    report.outputs["grid"] = str(grid_json)
    report.outputs["world_file"] = str(world_file)


@contextmanager
def _stage(name: str, report: QualityReport):
    """Time the block into ``report.timing[name]``.

    A PushprocError raised inside becomes ``StageFailure(name)``.
    """
    t0 = time.perf_counter()
    try:
        yield
    except PushprocError as exc:
        raise StageFailure(name, exc) from exc
    report.timing[name] = time.perf_counter() - t0


def run_pipeline(config: PipelineConfig) -> QualityReport:
    """Execute the enabled stages in order and write all products.

    Every input is read, and every enabled stage's inputs are checked,
    before the first stage runs.  Raises StageFailure naming the failing
    stage; input problems are attributed to the pseudo-stage "input".
    """
    t_start = time.perf_counter()
    try:
        config.validate()
        scene = load_raw(config.raw_path)
        calib = load_calibration(config.calib_path) if config.calib_path else None
        metadata = load_metadata(config.meta_path) if config.meta_path else None
        truth = None
        if config.truth_path:
            # Imported here so that importing the pipeline does not pull in
            # the synthetic-scene generator.
            from .synthscene import load_truth_grid

            truth = load_truth_grid(config.truth_path)
            truth_grid = truth[0]
            if config.georef and not (
                    np.array_equal(truth_grid.lines, _sample_indices(scene.lines, config.grid_step))
                    and np.array_equal(truth_grid.columns,
                                       _sample_indices(scene.width, config.grid_step))):
                raise ConfigInvalid("truth grid nodes differ from the configured grid_step sampling")
        if config.coreg:
            # Both tile grids must fit the scene; the stage builds them again.
            _coreg_grids((scene.lines, scene.width), config)
    except PushprocError as exc:
        raise StageFailure("input", exc) from exc
    if config.vignetting and calib is None:
        raise StageFailure("vignetting", ConfigInvalid("vignetting needs --calib"))
    if config.georef and metadata is None:
        raise StageFailure("georef", ConfigInvalid("georef needs --meta"))

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = QualityReport()

    if config.vignetting:
        with _stage("vignetting", report):
            scene = _stage_vignetting(scene, calib, report)
    if config.coreg:
        with _stage("coreg", report):
            scene = _stage_coreg(scene, metadata, config, report)
    if config.georef:
        with _stage("georef", report):
            _stage_georef(scene, metadata, truth, config, out_dir, report)

    corrected_path = out_dir / "corrected.l3raw"
    save_raw(scene, corrected_path)
    report.outputs["corrected"] = str(corrected_path)

    if config.quicklook:
        ql_path = out_dir / ("quicklook.ppm")
        quicklook(scene, [BandId.RED, BandId.GREEN, BandId.BLUE], ql_path)
        report.outputs["quicklook"] = str(ql_path)

    report.timing["total"] = time.perf_counter() - t_start
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json())
    report.outputs["report"] = str(report_path)
    return report


def _percentiles(plane: np.ndarray) -> list[float]:
    """``np.percentile(plane, [2, 98])`` (method ``linear``) of an integer plane, from its histogram.

    The histogram is counted ``block_lines`` lines at a time, so no copy of
    the plane is sorted.  Each order statistic is the first value whose
    cumulative count passes its rank, and the two around a percentile are
    blended with ``np.percentile``'s own arithmetic: virtual index
    (n - 1) q / 100, and ``a + (b - a) t`` below t = 0.5 but
    ``b - (b - a)(1 - t)`` from there on.
    """
    h, w = plane.shape
    counts = np.zeros(1 << 16, dtype=np.int64)
    step = block_lines(w)
    for y0 in range(0, h, step):
        counts += np.bincount(plane[y0 : y0 + step].ravel(), minlength=counts.size)
    cumulative = np.cumsum(counts)
    n = h * w

    def order(k: int) -> float:
        return float(np.searchsorted(cumulative, k, side="right"))

    found = []
    for q in (2.0, 98.0):
        virtual = (n - 1) * (q / 100)
        if virtual >= n - 1:
            found.append(order(n - 1))
            continue
        below = math.floor(virtual)
        a, b, t = order(below), order(below + 1), virtual - below
        found.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return found


def quicklook(scene: RawScene, bands, path) -> None:
    """8-bit PGM (one band) or PPM (three bands) with a 2-98% stretch.

    The stretch maps the 2nd percentile to 0 and the 98th to 255, which
    keeps hot pixels from crushing the display range.  Deterministic.  The
    percentiles come from each band's histogram (``_percentiles``), and
    the image is stretched and written ``block_lines(width)`` lines at a
    time, so neither a float64 plane nor the whole 8-bit image is built.
    """
    bands = [BandId(int(b)) for b in bands]
    if len(bands) not in (1, 3):
        raise BadBandSelection(f"need 1 or 3 bands, got {len(bands)}")
    h, w = scene.lines, scene.width
    planes = [scene.band(band) for band in bands]
    cuts = [_percentiles(plane) for plane in planes]
    step = block_lines(w)
    magic = "P5" if len(bands) == 1 else "P6"
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        for y0 in range(0, h, step):
            image = np.zeros((min(step, h - y0), w, len(bands)), dtype=np.uint8)
            for k, (plane, (lo, hi)) in enumerate(zip(planes, cuts)):
                if hi <= lo:
                    continue
                data = plane[y0 : y0 + step].astype(np.float64)
                scaled = np.clip((data - lo) / (hi - lo) * 255.0, 0.0, 255.0)
                image[:, :, k] = np.floor(scaled + 0.5)
            fh.write(image)


def report_timing(report: QualityReport | dict) -> str:
    """Per-stage timing breakdown; flags a co-registration share over 50%.

    A document that is not a JSON object, or whose ``timing`` is not an
    object of numbers, raises ``ReportInvalid``.
    """
    doc = report.to_dict() if isinstance(report, QualityReport) else report
    timing = doc.get("timing", {}) if isinstance(doc, dict) else None
    if not isinstance(timing, dict) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in timing.values()):
        raise ReportInvalid("not a report: 'timing' must be an object of seconds")
    total = timing.get("total", sum(v for k, v in timing.items() if k != "total"))
    lines = [f"{'stage':<12s} {'seconds':>9s} {'share':>7s}"]
    coreg_flagged = False
    for stage in STAGES:
        if stage not in timing:
            continue
        seconds = timing[stage]
        share = 100.0 * seconds / total if total > 0 else 0.0
        flag = ""
        if stage == "coreg" and share > 50.0:
            flag = "  <-- dominant stage"
            coreg_flagged = True
        lines.append(f"{stage:<12s} {seconds:9.3f} {share:6.1f}%{flag}")
    lines.append(f"{'total':<12s} {total:9.3f} {100.0:6.1f}%")
    if coreg_flagged:
        lines.append("co-registration exceeds half the processing time")
    return "\n".join(lines)
