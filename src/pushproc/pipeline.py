"""Batch orchestration: vignetting, co-registration, georeferencing.

Stages run in a fixed order because the radiometric correction is
per-detector-column and must happen before resampling mixes columns.
Disabled stages pass the scene through untouched.  The scene is never
held in memory: the input phase reads only the raw file's header and line
times, and the scene lives in the product file, ``corrected.l3raw.partial``
in the output directory.  Vignetting correction (or, when it is skipped,
``raster.copy_planes``) writes the raw samples there block by block,
co-registration warps the bands in place there, and every stage reads
windows of the file (``raster.ScenePlanes``).  When every stage has
succeeded the file is renamed to ``corrected.l3raw``; when one fails it
is removed, so a failed run leaves no half-written product.  Everything
the run learned lands in a :class:`QualityReport`; wall-clock numbers
live only under the ``timing`` key so reports stay byte-comparable
without them.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import coreg as coreg_mod
from . import radiometry
from .errors import ConfigInvalid, IoFailure, PushprocError, ReportInvalid, StageFailure
from .georef.geolocate import _sample_indices, build_geogrid, check_coverage, save_geogrid
from .georef.metadata import AcqMetadata, load_metadata
from .raster import (BAND_NAMES, REF_BAND, BandId, CalibrationTable, RawScene, block_lines,
                     check_field_types, copy_planes, create_raw, fields_from_json,
                     load_calibration, make_dir, open_raw, read_json, round_half_up,
                     write_file)

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
    grid_step: int = 64
    workers: int = 1
    quicklook: bool = False

    def validate(self) -> None:
        check_field_types(self, ConfigInvalid)
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
        # The lower bound georeferencing enforces, checked before any stage runs.
        if self.grid_step < 1:
            raise ConfigInvalid(f"grid_step {self.grid_step} < 1")
        # Co-registration runs on one thread; the field stays for configs that name it.
        if self.workers != 1:
            raise ConfigInvalid(f"workers must be 1, got {self.workers}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_dict(read_json(path, ConfigInvalid))

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return fields_from_json(cls, doc, ConfigInvalid)


@dataclass
class QualityReport:
    schema: int = 1
    stages: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1, allow_nan=False)


def _metric_rows(scene: RawScene) -> np.ndarray:
    """16 evenly spaced line indices, repeats dropped.

    The rows are sorted, so this is ``np.unique`` of them without the call,
    which would import ``numpy.ma`` on first use.
    """
    rows = np.linspace(0, scene.lines - 1, 16).astype(int)
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


def _stage_vignetting(scene: RawScene, calib: CalibrationTable, report: QualityReport,
                      product: RawScene) -> None:
    """Correct ``scene`` into ``product``'s planes, between the metrics before and after.

    ``product`` is the product file's scene in a run (``run_pipeline``),
    or ``scene`` itself to correct an owned scene in place; either way no
    second cube is built.
    """
    before = _radiometry_metrics(scene)
    radiometry.correct_vignetting(scene, calib, out=product.planes)
    report.stages["vignetting"] = {"before": before, "after": _radiometry_metrics(product)}


def _coreg_grids(shape: tuple[int, int]) -> tuple[coreg_mod.TileGrid, coreg_mod.TileGrid]:
    """The fixed match and residual grids of a ``shape`` plane; ``OutOfBounds`` if one fails."""
    n = coreg_mod.GRID_TILES
    return coreg_mod.TileGrid(shape, coreg_mod.TILE_SIZE, n, n), coreg_mod.residual_grid(shape)


def _stage_coreg(scene: RawScene, metadata: AcqMetadata | None,
                 grids: tuple[coreg_mod.TileGrid, coreg_mod.TileGrid],
                 report: QualityReport) -> None:
    """Align every other band to ``REF_BAND``, in place.

    The stage owns ``scene``, the product file's scene in a run: each
    band is warped in place, over its source plane, which no later step
    reads.  All target bands are matched on the match grid together, so
    each reference tile is prepared once per grid; each band is then gated
    at ``coreg.GATE_RADIUS_PX``, fitted and resampled in band order, and
    the aligned bands are matched together on the residual grid.  The
    score floor and the polynomial order are the defaults of
    ``match_bands`` and ``fit_distortion``.  No gradient magnitude
    outlives the column strip ``match_bands`` computes it for.  ``grids``
    are the match grid and the residual grid, in a run the fixed pair of
    ``_coreg_grids``.
    """
    ref_plane = scene.band(REF_BAND)
    targets = [band for band in BandId if band != REF_BAND]
    match_grid, residual_grid = grids
    found = coreg_mod.match_bands(ref_plane, match_grid, [scene.band(band) for band in targets])
    metrics: dict = {"reference_band": BAND_NAMES[REF_BAND], "bands": {}}
    for band, matches in zip(targets, found):
        coreg_mod.require_matches(matches)
        prior = None
        if metadata is not None and metadata.attitude:
            prior = coreg_mod.predict_shift_prior(metadata, (REF_BAND, band))
        inliers = coreg_mod.remove_outliers(matches, prior)
        model = coreg_mod.fit_distortion(inliers, width=scene.width, height=scene.lines)
        plane = scene.band(band)
        _, masked = coreg_mod.resample(plane, model, out=plane)
        metrics["bands"][BAND_NAMES[band]] = {
            "matches": len(matches),
            "inliers": len(inliers),
            "prior": None if prior is None else {"dx": prior.dx, "dy": prior.dy},
            "model": model.to_dict(),
            "fit_rms_px": model.rms_fit,
            "masked_pixels": masked,
        }
    residuals = coreg_mod.match_bands(ref_plane, residual_grid,
                                      [scene.band(band) for band in targets])
    for band, matches in zip(targets, residuals):
        mean_px, rms_px = coreg_mod.residual_stats(coreg_mod.require_matches(matches))
        metrics["bands"][BAND_NAMES[band]].update(residual_mean_px=mean_px,
                                                  residual_rms_px=rms_px)
    report.stages["coreg"] = metrics


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
def stage(name: str, timing: dict | None = None):
    """Run one phase of a command; time it into ``timing[name]`` when given.

    A PushprocError raised inside becomes ``StageFailure(name)``.  A
    StageFailure passes through as it is, so phases nest and the failure
    names the innermost one.
    """
    t0 = time.perf_counter()
    try:
        yield
    except StageFailure:
        raise
    except PushprocError as exc:
        raise StageFailure(name, exc) from exc
    if timing is not None:
        timing[name] = time.perf_counter() - t0


def run_pipeline(config: PipelineConfig) -> QualityReport:
    """Execute the enabled stages in order and write all products.

    Every input is read, and every enabled stage's inputs are checked,
    before the first stage runs; of the raw scene only the header and the
    line times are read.  Raises StageFailure naming the failing stage;
    input problems are attributed to the pseudo-stage "input", and a
    failed write or rename once the stages are done to "output".  The
    stages work in ``corrected.l3raw.partial``, which becomes
    ``corrected.l3raw`` when they all succeed and is removed when one
    fails.
    """
    t_start = time.perf_counter()
    with ExitStack() as files:
        with stage("input"):
            config.validate()
            scene = open_raw(config.raw_path)
            files.callback(scene.planes.close)
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
                        np.array_equal(truth_grid.lines,
                                       _sample_indices(scene.lines, config.grid_step))
                        and np.array_equal(truth_grid.columns,
                                           _sample_indices(scene.width, config.grid_step))):
                    raise ConfigInvalid(
                        "truth grid nodes differ from the configured grid_step sampling")
            # Both tile grids must fit the scene before any stage runs.
            grids = _coreg_grids((scene.lines, scene.width)) if config.coreg else None
            partial = Path(config.out_dir) / "corrected.l3raw.partial"
            if partial.exists() and partial.samefile(config.raw_path):
                raise ConfigInvalid(f"the raw input is the run's own working file {partial}")
            # ``stage`` passes a StageFailure through, so a missing input names
            # its own stage; the inputs given must cover the scene.
            if config.vignetting:
                if calib is None:
                    raise StageFailure("vignetting", ConfigInvalid("vignetting needs --calib"))
                calib.validate(scene.width)
            if config.georef:
                if metadata is None:
                    raise StageFailure("georef", ConfigInvalid("georef needs --meta"))
                check_coverage(scene, metadata)
            # The output directory and the working file are the last steps of
            # the input phase.
            out_dir = make_dir(config.out_dir)
            product = create_raw(partial, scene)
            files.callback(product.planes.close)
        report = QualityReport()
        corrected_path = out_dir / "corrected.l3raw"
        try:
            if config.vignetting:
                with stage("vignetting", report.timing):
                    _stage_vignetting(scene, calib, report, product)
            else:
                copy_planes(scene, product.planes)
            if config.coreg:
                with stage("coreg", report.timing):
                    _stage_coreg(product, metadata, grids, report)
            if config.georef:
                with stage("georef", report.timing):
                    _stage_georef(product, metadata, truth, config, out_dir, report)
            with stage("output"):
                try:
                    os.replace(partial, corrected_path)
                except OSError as exc:
                    raise IoFailure(f"cannot rename {partial} to {corrected_path}: {exc}") \
                        from exc
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        report.outputs["corrected"] = str(corrected_path)

        if config.quicklook:
            ql_path = out_dir / "quicklook.ppm"
            with stage("output"):
                quicklook(product, ql_path)
            report.outputs["quicklook"] = str(ql_path)

    report.timing["total"] = time.perf_counter() - t_start
    report_path = out_dir / "report.json"
    with stage("output"):
        write_file(report_path, [report.to_json()])
    report.outputs["report"] = str(report_path)
    return report


def _percentiles(plane: np.ndarray) -> list[float]:
    """``np.percentile(plane, [2, 98])`` (method ``linear``) of an integer plane, from its histogram.

    The histogram has one bin per value of the plane's type and is counted
    ``block_lines`` lines at a time, so no copy of the plane is sorted.
    Each order statistic is the first value whose cumulative count passes
    its rank, and the two around a percentile are blended with
    ``np.percentile``'s own arithmetic: virtual index (n - 1) q / 100, and
    ``a + (b - a) t`` below t = 0.5 but ``b - (b - a)(1 - t)`` from there
    on.  A plane of one sample has t = 0, so both blends give its value.
    """
    h, w = plane.shape
    counts = np.zeros(np.iinfo(plane.dtype).max + 1, dtype=np.int64)
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
        below = math.floor(virtual)
        a, b, t = order(below), order(below + 1), virtual - below
        found.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return found


def quicklook(scene: RawScene, path) -> None:
    """The run's quicklook: an 8-bit RGB PPM of the red, green and blue bands, 2-98% stretch.

    The stretch maps each band's 2nd percentile to 0 and its 98th to 255,
    which keeps hot pixels from crushing the display range; a band whose
    cuts coincide is written as 0.  Deterministic.  The percentiles come
    from each band's histogram (``_percentiles``), and the image is
    stretched and written ``block_lines(width)`` lines at a time, so
    neither a float64 plane nor the whole 8-bit image is built.
    """
    h, w = scene.lines, scene.width
    planes = [scene.band(band) for band in (BandId.RED, BandId.GREEN, BandId.BLUE)]
    cuts = [_percentiles(plane) for plane in planes]
    step = block_lines(w)

    def chunks():
        yield f"P6\n{w} {h}\n255\n"
        for y0 in range(0, h, step):
            image = np.zeros((min(step, h - y0), w, 3), dtype=np.uint8)
            for k, (plane, (lo, hi)) in enumerate(zip(planes, cuts)):
                if hi <= lo:
                    continue
                data = plane[y0 : y0 + step].astype(np.float64)
                scaled = np.clip((data - lo) / (hi - lo) * 255.0, 0.0, 255.0)
                image[:, :, k] = round_half_up(scaled, out=scaled)
            yield image

    write_file(path, chunks())


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
