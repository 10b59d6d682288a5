#!/usr/bin/env python3
"""End-to-end demo: synthesize a distorted scene, run the full pipeline,
and score the products against the generator's truth.

Usage: python scripts/run_demo.py [workdir]
"""

import sys
import time
from pathlib import Path

from pushproc.coreg import DistortionModel
from pushproc.georef.geolocate import build_geogrid
from pushproc.georef.metadata import save_metadata
from pushproc.pipeline import PipelineConfig, report_timing, run_pipeline
from pushproc.raster import BandId, save_calibration, save_raw
from pushproc.synthscene import SynthSpec, generate, save_truth, truth_coreg_residual, truth_georef_error

WARP = {"order": 2,
        "coeff_dx": [1.4, -4.2, 2.1, 1.4, -1.4, 0.7],
        "coeff_dy": [-1.0, 2.1, -3.9, 0.7, 1.4, -1.0]}


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    workdir.mkdir(parents=True, exist_ok=True)

    spec = SynthSpec(seed=7, width=1024, lines=1024, texture="urban-blocks",
                     vignette_falloff=40.0, dark_level=5.0, noise_sigma=1.0,
                     band_warp={"nir": WARP, "blue": {"order": 0,
                                                      "coeff_dx": [3.0],
                                                      "coeff_dy": [-2.0]}},
                     grid_step=128)
    print(f"generating {spec.width}x{spec.lines} synthetic scene ...")
    t0 = time.perf_counter()
    raw, truth = generate(spec)
    print(f"  done in {time.perf_counter() - t0:.1f}s")

    save_raw(raw, workdir / "scene.l3raw")
    save_calibration(truth.calib, workdir / "calib.json")
    save_metadata(truth.metadata, workdir / "metadata.json")
    save_truth(truth, workdir / "truth.json")

    config = PipelineConfig(
        raw_path=str(workdir / "scene.l3raw"),
        calib_path=str(workdir / "calib.json"),
        meta_path=str(workdir / "metadata.json"),
        truth_path=str(workdir / "truth.json"),
        out_dir=str(workdir / "out"),
        grid_step=128,
        quicklook=True,
    )
    report = run_pipeline(config)
    print()
    print(report_timing(report))
    print()

    vignetting = report.stages["vignetting"]
    for band in ("red", "nir"):
        before = vignetting["before"][band]["falloff_pct"]
        after = vignetting["after"][band]["falloff_pct"]
        print(f"vignetting {band}: falloff {before:.1f}% -> {after:.1f}%")

    for band, metrics in report.stages["coreg"]["bands"].items():
        model = DistortionModel(**metrics["model"])
        geo_rms = truth_coreg_residual(truth, model, BandId[band.upper()])
        print(f"coreg {band}: {metrics['inliers']}/{metrics['matches']} matches, "
              f"measured rms {metrics['residual_rms_px']:.3f} px, "
              f"truth rms {geo_rms:.3f} px")

    grid = build_geogrid(raw, truth.metadata, step=spec.grid_step)
    stats = truth_georef_error(truth, grid)
    print(f"georef: rms vs truth {stats.rms_total_km * 1000:.2f} m, "
          f"mean GSD {report.stages['georef']['mean_gsd_m']:.2f} m")
    print(f"\nproducts in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
