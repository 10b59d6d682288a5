"""Generate the inputs of one workload from a seed, in a process of its own.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes, per scene, ``scene.l3raw``, ``calib.json``, ``metadata.json`` and
``truth.json`` (the pipeline's inputs) plus ``clean.npy`` (the generator's
undistorted plane, used only by the output checks), and ``manifest.json``
with the scene list and a SHA-256 digest over every generated file.  Run
with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import workloads


def digest_tree(root: Path, names: list[str]) -> str:
    """SHA-256 over the given files, each prefixed by its relative path."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(root / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from pushproc.georef.metadata import save_metadata
    from pushproc.raster import save_calibration, save_raw
    from pushproc.synthscene import SynthSpec, generate, save_truth

    out = Path(args.out)
    files = []
    scenes = workloads.scenes(args.workload, args.seed)
    for scene in scenes:
        raw, truth = generate(SynthSpec.from_dict(scene["spec"]))
        sdir = out / scene["name"]
        sdir.mkdir(parents=True, exist_ok=True)
        save_raw(raw, sdir / "scene.l3raw")
        save_calibration(truth.calib, sdir / "calib.json")
        save_metadata(truth.metadata, sdir / "metadata.json")
        save_truth(truth, sdir / "truth.json")
        np.save(sdir / "clean.npy", truth.clean.planes[0])
        files += [f"{scene['name']}/{f}" for f in
                  ("scene.l3raw", "calib.json", "metadata.json", "truth.json", "clean.npy")]
    manifest = {"workload": args.workload, "seed": args.seed,
                "sha256": digest_tree(out, files), "scenes": scenes}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
