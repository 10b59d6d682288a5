#!/usr/bin/env python3
"""Golden product digests: the SHA-256 of every compared product of two
fixed pipeline runs, kept in ``tests/golden_products.json``.

The products are ``corrected.l3raw``, ``grid.json``, ``grid.wld`` and
``report.json`` without ``timing`` and ``outputs``.  The scenes are the
512x512 spec of acceptance test 11 and a small 16-bit scene with a TLE
orbit, a nutating attitude, sensor noise, a dense grid and a truth
sidecar.  ``tests/test_golden_products.py`` compares the digests; a change
that moves product bytes on purpose regenerates the file with ``--write``
and says which digests moved and why.

Usage: python scripts/golden_products.py [--write]

Without ``--write`` it prints each digest that differs from the file and
exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pushproc.georef.metadata import save_metadata
from pushproc.pipeline import PipelineConfig, run_pipeline
from pushproc.raster import save_calibration, save_raw
from pushproc.synthscene import SynthSpec, generate, save_truth

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden_products.json"
PRODUCTS = ("corrected.l3raw", "grid.json", "grid.wld", "report.json")

# A 510 km sun-synchronous LEO element set (epoch 2018 day 125).
TLE = ["1 40931U 00001A   18125.10417824  .00000000  00000+0  10000-3 0  9995",
       "2 40931  97.6000 201.5000 0012345  84.2000 275.9000 15.19802917  1005"]

# name -> (SynthSpec, PipelineConfig fields beyond the defaults, truth passed)
SCENES = {
    "determinism512": (
        SynthSpec(seed=107, width=512, lines=512, texture="urban-blocks",
                  vignette_falloff=40.0, dark_level=5.0,
                  band_warp={"nir": {"order": 1, "coeff_dx": [2.0, -1.0, 1.5],
                                     "coeff_dy": [-1.0, 2.0, -0.5]}}),
        {}, False),
    "tle16": (
        SynthSpec(seed=11, width=256, lines=256, bit_depth=16, texture="urban-blocks",
                  texture_base=2000.0, texture_contrast=1500.0, vignette_falloff=30.0,
                  dark_level=40.0, noise_sigma=6.0,
                  band_warp={"nir": {"order": 1, "coeff_dx": [2.0, -1.5, 1.0],
                                     "coeff_dy": [-1.5, 1.0, -0.5]}},
                  orbit={"kind": "tle", "lines": TLE},
                  attitude_profile={"kind": "nutation", "amplitude_deg": 0.28,
                                    "period_s": 73.0},
                  grid_step=8),
        {"grid_step": 8}, True),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def product_digests(out_dir: Path) -> dict:
    """Digests of a run's products; report.json without ``timing`` and ``outputs``."""
    found = {name: _sha256((out_dir / name).read_bytes()) for name in PRODUCTS
             if name != "report.json"}
    report = json.loads((out_dir / "report.json").read_text())
    report.pop("timing")
    report.pop("outputs")
    found["report.json"] = _sha256(json.dumps(report, sort_keys=True).encode())
    return found


def run_digests(workdir: Path) -> dict:
    """{scene: {product: digest}} of one run of each scene under ``workdir``."""
    found = {}
    for name, (spec, fields, with_truth) in SCENES.items():
        work = workdir / name
        work.mkdir(parents=True)
        raw, truth = generate(spec)
        save_raw(raw, work / "scene.l3raw")
        save_calibration(truth.calib, work / "calib.json")
        save_metadata(truth.metadata, work / "metadata.json")
        if with_truth:
            save_truth(truth, work / "truth.json")
        run_pipeline(PipelineConfig(
            raw_path=str(work / "scene.l3raw"), calib_path=str(work / "calib.json"),
            meta_path=str(work / "metadata.json"), out_dir=str(work / "out"),
            truth_path=str(work / "truth.json") if with_truth else None, **fields))
        found[name] = product_digests(work / "out")
    return found


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = run_digests(Path(tmp))
    if args.write:
        GOLDEN.write_text(json.dumps({**versions(), "digests": found}, indent=1,
                                     sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    moved = [(scene, name) for scene, digests in found.items()
             for name, digest in digests.items()
             if golden["digests"].get(scene, {}).get(name) != digest]
    for scene, name in moved:
        print(f"{scene}/{name}: {found[scene][name]} (recorded "
              f"{golden['digests'].get(scene, {}).get(name)})")
    print(f"{len(moved)} of {sum(map(len, found.values()))} digests moved; recorded with "
          f"Python {golden['python']} and numpy {golden['numpy']}, run with "
          f"Python {versions()['python']} and numpy {versions()['numpy']}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
