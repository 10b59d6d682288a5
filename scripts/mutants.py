#!/usr/bin/env python3
"""Mutation audit: does some test notice when a tuned constant or a guard changes?

Each row of ``MUTANTS`` replaces one text of a file of ``src/pushproc``.
One row at a time, the script copies ``src/``, ``tests/``, ``scripts/`` and
``pyproject.toml`` into a temporary directory, applies the row there, and
runs ``python -m pytest -q -x -p no:cacheprovider`` in a child process:
first on the row's named tests, then, if none fails, on the whole suite.
A mutant that fails a test is killed; one that passes the whole suite
survived.  A run that outlasts ``TIMEOUT_S`` counts as killed and is
reported as a timeout.

``EQUIVALENT`` names the mutants that no test can kill, each with its
argument.  The script exits 1 when a mutant survives that ``EQUIVALENT``
does not name, when an ``EQUIVALENT`` mutant is killed, or when a row is
stale: its old text does not occur exactly once, its named tests do not
run, or an ``EQUIVALENT`` entry names no row.  So the tables stay true.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pushproc"
COPIED = ("src", "tests", "scripts", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str    # under src/pushproc
    old: str
    new: str
    why: str     # what the mutant changes; names the row
    tests: str   # the ids under tests/ expected to kill it, space-separated


CO, GEO, ATT, ACC = "coreg.py", "georef/geolocate.py", "georef/attitude.py", "georef/accuracy.py"
RAD, RAS = "radiometry.py", "raster.py"
REJECT, FIT = "test_coreg.py::TestRemoveOutliers::", "test_coreg.py::TestFitDistortion::"
XCORR, PRIOR = "test_coreg.py::TestFftXcorr::", "test_coreg.py::TestShiftPrior"
SLERP, BIAS = "test_frames_attitude.py::TestSlerp", "test_accuracy.py::TestEstimateBias"
VIG, L3RAW = "test_radiometry.py::TestCorrectVignetting::", "test_raster.py::TestL3Raw"
MUTANTS = [
    Mutant(CO, "GATE_RADIUS_PX = 5.0", "GATE_RADIUS_PX = 6.0", "gate radius 5 -> 6 px",
           REJECT + "test_gate_keeps_its_radius_and_drops_beyond"),
    Mutant(CO, "dist <= GATE_RADIUS_PX", "dist < GATE_RADIUS_PX", "gate <= -> <",
           REJECT + "test_gate_keeps_its_radius_and_drops_beyond"),
    Mutant(CO, "<= 3.0 * mad_dx", "<= 4.0 * mad_dx", "MAD clip on dx 3 -> 4 MADs",
           REJECT + "test_mad_clip_at_three_mads"),
    Mutant(CO, "<= 3.0 * mad_dy", "<= 4.0 * mad_dy", "MAD clip on dy 3 -> 4 MADs",
           REJECT + "test_mad_clip_at_three_mads"),
    Mutant(CO, "med_dx)), 0.5)", "med_dx)), 0.4)", "MAD floor on dx 0.5 -> 0.4 px",
           REJECT + "test_mad_floored_at_half_a_pixel"),
    Mutant(CO, "med_dy)), 0.5)", "med_dy)), 0.4)", "MAD floor on dy 0.5 -> 0.4 px",
           REJECT + "test_mad_floored_at_half_a_pixel"),
    Mutant(CO, "abs(offset) > 0.5", "abs(offset) > 0.6", "parabola clamp 0.5 -> 0.6 px",
           "test_coreg.py::TestParabolaOffset"),
    Mutant(CO, "if denom >= 0.0:", "if denom > 0.0:", "parabola flatness >= -> >",
           "test_coreg.py::TestParabolaOffset"),
    Mutant(CO, "abs(offset) < 1e-9", "abs(offset) < 0.0", "parabola floor 1e-9 px -> none",
           "test_coreg.py::TestCollectMatches::test_identical_planes"),
    Mutant(CO, "if shift_y > ny / 2:", "if shift_y >= ny / 2:", "line shift N/2 -> -N/2",
           XCORR + "test_half_tile_shift_reported_positive"),
    Mutant(CO, "if shift_x > nx / 2:", "if shift_x >= nx / 2:", "column shift N/2 -> -N/2",
           XCORR + "test_half_tile_shift_reported_positive"),
    Mutant(CO, "min(float(corr[peak_y, peak_x]), 1.0)", "float(corr[peak_y, peak_x])",
           "score clamp at 1 dropped", XCORR + "test_score_in_zero_one"),
    Mutant(CO, "len(matches) < 2 * ncoef", "len(matches) < ncoef + 1",
           "fit minimum 2 ncoef -> ncoef + 1", FIT + "test_twice_the_coefficients_required"),
    Mutant(CO, "_poly_terms(order, x, y)", "_poly_terms(order, y, x)",
           "fit design x and y swapped", FIT + "test_recovers_order2_field"),
    Mutant(CO, "1.0), 0.1)", "1.0), 0.2)", "off-nadir cosine floor 0.1 -> 0.2",
           PRIOR + "::test_far_off_nadir_divisor_floored_at_a_tenth"),
    Mutant(CO, "dt = 1.0", "dt = 2.0", "ground-speed step 1 -> 2 s", PRIOR),
    Mutant(CO, "2 * n - 1 - i", "2 * n - 2 - i", "reflect index one off",
           "test_coreg.py::TestSuppression::test_window_equals_crop_of_whole_plane"),
    Mutant(CO, "int(4.0 * sigma + 0.5)", "int(3.0 * sigma + 0.5)", "Gaussian truncate 4 -> 3",
           "test_coreg.py::TestKernelsEqualScipy"),
    Mutant(CO, "y_ref=float(cy)", "y_ref=float(cy + 1)", "tile centre one line off",
           "test_coreg.py::TestMatchBands::test_equals_per_band_matching"),
    Mutant(CO, "slack = 1e-9 *", "slack = 0.0 *", "line reach slack -> none",
           "test_coreg.py::TestResample::test_integer_line_shift_across_blocks"),
    Mutant(CO, "margin = 16", "margin = 15", "residual margin 16 -> 15 px",
           "test_coreg.py::TestCoregResidual::test_small_plane_equals_pipeline_path"),
    Mutant(CO, "n_points < 10:", "n_points < 4:", "residual minimum 10 -> 4 points",
           "test_coreg.py::TestCoregResidual::test_too_few_points"),
    Mutant(GEO, "s1 > 0.0", "s1 >= 0.0", "ray root at the origin kept", "test_geolocate.py::"
           "TestIntersectEllipsoid::test_origin_on_the_ellipsoid_is_not_its_own_intersection"),
    Mutant(GEO, "range(0, extent, step)", "range(1, extent, step)", "grid nodes one off",
           "test_geolocate.py::TestBuildGeogrid::test_step_of_image_size_gives_corners_only"),
    Mutant(GEO, "a, b, c = lon_coef", "b, a, c = lon_coef", "world file column and line swapped",
           "test_georef_rows.py::TestGridRows"),
    Mutant(ATT, "if dot < 0.0:", "if dot > 0.0:", "slerp takes the long arc", SLERP),
    Mutant(ATT, "dot > 1.0 - 1e-12", "dot > 1.0 - 1e-9", "slerp near-parallel 1e-12 -> 1e-9",
           SLERP),
    Mutant(ATT, "(t - lo.t) / (hi.t - lo.t)", "(hi.t - t) / (hi.t - lo.t)",
           "slerp fraction from the wrong end", SLERP),
    Mutant(ATT, "+ np.cross(u, t)", "- np.cross(u, t)", "rotation cross term sign",
           "test_frames_attitude.py::TestQuaternion"),
    Mutant(ACC, "np.ptp(drift) < 1e-12", "np.ptp(drift) < 0.0", "equal-drift fallback dropped",
           BIAS + "::test_equal_drift_tags_fall_back_to_means"),
    Mutant(ACC, "e * tn - n * te", "n * te - e * tn", "across-track sign",
           "test_accuracy.py::TestErrorStats"),
    Mutant(ACC, "time_offset = -along_slope", "time_offset = along_slope", "clock offset sign",
           BIAS),
    Mutant(ACC, "MIN_SCENES = 5", "MIN_SCENES = 4", "bias minimum 5 -> 4 scenes",
           BIAS + "::test_insufficient_scenes"),
    Mutant(RAD, "width * 0.05", "width * 0.06", "falloff windows 5% -> 6%",
           "test_radiometry.py::TestEdgeCenterRatio"),
    Mutant(RAD, "np.maximum(prof.evaluate(u), 1e-6)", "prof.evaluate(u)",
           "flat-field floor 1e-6 dropped", "test_radiometry.py::TestCalibrationFromFlatField"),
    Mutant(RAD, "np.maximum(found, 0.0, out=found)", "np.maximum(found, -1.0, out=found)",
           "dark floor 0 -> -1 DN", VIG + "test_float_path_floors_at_zero"),
    Mutant(RAS, "np.add(x, 0.5,", "np.add(x, 0.4999,", "round half up 0.5 -> 0.4999",
           VIG + "test_hand_computed_case"),
    Mutant(RAS, "_HEADER.size + 8 * lines +", "_HEADER.size + 8 * lines + 1 +",
           "samples one byte off", L3RAW + "Roundtrip"),
    Mutant(RAS, "if size < expected:", "if size <= expected:", "file length < -> <=",
           L3RAW + "Roundtrip"),
    Mutant(RAS, "self.response <= 0", "self.response < 0", "zero response accepted",
           VIG + "test_nonpositive_response"),
    Mutant(RAS, "np.diff(self.line_times) > 0", "np.diff(self.line_times) >= 0",
           "equal line times accepted", L3RAW + "Errors::test_repeated_time_refused"),
]

# why -> the argument that no test can kill the mutant.
EQUIVALENT = {
    "ground-speed step 1 -> 2 s":
        "Equal within the computation's precision.  t_mid + dt is a Unix time near 1.5e9 s, "
        "held to 2.4e-7 s, so a 1 s chord is good to about 1e-7 of the speed; a 2 s chord moves "
        "it by 1.5e-7 (the 8-row nadir prior by 1.2e-6 px): no test can say which is right.",
    "slerp near-parallel 1e-12 -> 1e-9":
        "Equal up to rounding.  For 1 - 1e-9 < dot <= 1 - 1e-12 the arc is under 4.5e-5 rad, "
        "and normalized linear interpolation leaves it by at most arc^3 / 60 < 2e-15 rad, a "
        "few units in the last place of the quaternion; a test could pin only those bits.",
}


def pytest_verdict(args: list[str], cwd: str, env: dict) -> str:
    """"passed", "killed by <test>", "timeout", or "error: ..." of one pytest child."""
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    if proc.returncode in (1, 2):   # a test failed, or collection did
        found = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
        return "killed by " + (found.group(1) if found else f"pytest exit {proc.returncode}")
    return f"error: pytest exit {proc.returncode}: {out.strip()[-300:]}"


def run_mutant(row: Mutant) -> str:
    """The row's verdict: killed (or timeout) on its named tests or the suite, or survived."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, Path(tmp) / name)
        path = Path(tmp) / "src" / "pushproc" / row.file
        path.write_text(path.read_text().replace(row.old, row.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        found = pytest_verdict([f"tests/{t}" for t in row.tests.split()], tmp, env)
        if found != "passed":
            return found
        found = pytest_verdict([], tmp, env)
        return "survived" if found == "passed" else found


def main() -> int:
    whys = [row.why for row in MUTANTS]
    stale = [f"{why}: named twice" for why in sorted({w for w in whys if whys.count(w) > 1})]
    stale += [f"{why}: in EQUIVALENT, but no row" for why in EQUIVALENT if why not in whys]
    wrong, killed, survived = [], 0, 0
    for k, row in enumerate(MUTANTS, 1):
        occurs = (PACKAGE / row.file).read_text().count(row.old)
        found = run_mutant(row) if occurs == 1 else f"stale: old text occurs {occurs} times"
        print(f"[{k}/{len(MUTANTS)}] {row.file}: {row.why}: {found}", flush=True)
        if found.startswith(("stale", "error")):
            stale.append(f"{row.why}: {found}")
            continue
        if (found == "survived") != (row.why in EQUIVALENT):
            wrong.append(f"{row.why}: {found}, but EQUIVALENT "
                         + ("names it" if row.why in EQUIVALENT else "does not name it"))
        killed, survived = killed + (found != "survived"), survived + (found == "survived")
    print(f"{len(MUTANTS)} rows: {killed} killed, {survived} survived, {len(EQUIVALENT)} named "
          f"EQUIVALENT, {len(wrong)} against the tables, {len(stale)} stale")
    for line in wrong + stale:
        print(f"  {line}")
    return 1 if wrong or stale else 0


if __name__ == "__main__":
    sys.exit(main())
