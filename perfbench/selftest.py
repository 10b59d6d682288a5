"""Show that every output check of the benchmark can fail.

    PYTHONPATH=src python3 perfbench/selftest.py

Generates one 512x512 scene with the make-up of a ``batch512-bias`` scene
but no injected bias, runs the pipeline twice, and feeds each check first
the right products and then one deliberately wrong product.  Prints one
line per case and exits 1 if a right product is rejected or a wrong one
accepted.  Works in ``.bench_work/`` and removes it at the end.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import workloads
from measure import product_digests

SEED = 7


def main() -> int:
    from pushproc.georef.metadata import save_metadata
    from pushproc.pipeline import PipelineConfig, run_pipeline
    from pushproc.raster import save_calibration, save_raw
    from pushproc.synthscene import SynthSpec, generate, save_truth

    work = Path(".bench_work") / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = dict(workloads.scenes("batch512-bias", SEED)[0]["spec"], injected_bias=[0, 0, 0])
        raw_scene, truth_pack = generate(SynthSpec.from_dict(spec))
        save_raw(raw_scene, work / "scene.l3raw")
        save_calibration(truth_pack.calib, work / "calib.json")
        save_metadata(truth_pack.metadata, work / "metadata.json")
        save_truth(truth_pack, work / "truth.json")
        config = PipelineConfig(raw_path=str(work / "scene.l3raw"),
                                calib_path=str(work / "calib.json"),
                                meta_path=str(work / "metadata.json"),
                                truth_path=str(work / "truth.json"),
                                out_dir=str(work / "out"), grid_step=spec["grid_step"])
        run_pipeline(config)
        first = product_digests(work / "out")
        run_pipeline(config)
        second = product_digests(work / "out")

        raw, depth = checks.read_l3raw(work / "scene.l3raw")
        out, _ = checks.read_l3raw(work / "out" / "corrected.l3raw")
        calib = json.loads((work / "calib.json").read_text())
        truth = json.loads((work / "truth.json").read_text())
        report = json.loads((work / "out" / "report.json").read_text())
        grid = json.loads((work / "out" / "grid.json").read_text())
        world = (work / "out" / "grid.wld").read_text()
        red = checks.BAND_NAMES.index("red")
        nir = out[checks.BAND_NAMES.index("nir")]
        clean = truth_pack.clean.planes[0]
        contrast = spec["texture_contrast"]
        shape = (spec["width"], spec["lines"])

        off_red = out.copy()
        off_red[red, 100, 100] += 1
        off_model = copy.deepcopy(report["stages"]["coreg"])
        off_model["bands"]["nir"]["model"]["coeff_dx"][0] += 1.0
        off_grid = dict(grid, lat=(np.asarray(grid["lat"]) + 100.0 / 111_320.0).tolist())
        bad_world = "\n".join(world.split()[:5] + ["nan"]) + "\n"
        roll, pitch, clock = workloads.INJECTED_BIAS
        right_bias = {"roll_deg": roll, "pitch_deg": pitch, "time_s": clock}
        changed = dict(first, **{"grid.json": "0" * 64})

        cases = [
            ("red band as corrected", True,
             checks.check_red(raw, calib, out, depth)),
            ("red band off by 1 DN in one sample", False,
             checks.check_red(raw, calib, off_red, depth)),
            ("coreg models as fitted", True,
             checks.check_models(report["stages"]["coreg"], truth["warp_fields"], *shape)[0]),
            ("NIR model constant term off by 1 px", False,
             checks.check_models(off_model, truth["warp_fields"], *shape)[0]),
            ("aligned NIR as resampled", True,
             checks.check_nir(nir, clean, contrast)),
            ("aligned NIR shifted by 1 px", False,
             checks.check_nir(np.roll(nir, 1, axis=1), clean, contrast)),
            ("grid as computed", True,
             checks.check_grid(checks.grid_deviation_m(grid, truth["truth_grid"]), world)),
            ("grid shifted 100 m north", False,
             checks.check_grid(checks.grid_deviation_m(off_grid, truth["truth_grid"]), world)),
            ("world file with a NaN coefficient", False,
             checks.check_grid(checks.grid_deviation_m(grid, truth["truth_grid"]), bad_world)),
            ("bias estimate equal to the injected bias", True,
             checks.check_bias(right_bias, workloads.INJECTED_BIAS)),
            ("bias estimate roll off by 0.01 deg", False,
             checks.check_bias(dict(right_bias, roll_deg=roll + 0.01), workloads.INJECTED_BIAS)),
            ("bias estimate clock off by 0.05 s", False,
             checks.check_bias(dict(right_bias, time_s=clock + 0.05), workloads.INJECTED_BIAS)),
            ("two runs of the pipeline", True, checks.check_determinism([first, second])),
            ("a run whose grid.json differs", False, checks.check_determinism([first, changed])),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wrong = 0
    for label, should_pass, problem in cases:
        as_expected = (problem is None) == should_pass
        wrong += not as_expected
        verdict = "passes" if problem is None else f"fails ({problem})"
        print(f"{'ok  ' if as_expected else 'BAD '} {label}: {verdict}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
