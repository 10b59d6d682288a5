#!/usr/bin/env python3
"""Paired benchmark runs of two trees, and whether their products are equal.

    python3 scripts/pairs.py PARENT_TREE CHANGE_TREE --workload W [--workload W ...]
                             --seeds 101-110 --seconds N --slug NAME [--out DIR]

For each workload and seed it runs each tree's own
``perfbench/run.py --trace 0`` from that tree's root, the parent first on
odd seeds and the change first on even ones.  Then it generates the seed's
inputs once, with the parent tree's ``perfbench/gen.py``, runs one round of
each tree's ``perfbench/measure.py`` on them, and digests both trees'
products with ``product_digests`` of this checkout's ``perfbench/measure.py``:
``corrected.l3raw``, ``grid.json`` and ``report.json`` without ``timing``.
It also scores both trees' products with ``check_scene`` of this
checkout's ``perfbench/checks.py``: the worst target band's truth residual
(``truth_rms_px``) and the grid's RMS distance from the truth grid
(``truth_rms_m``), each the largest over the seed's scenes.

It writes ``BENCH_<NAME>.json`` into ``--out`` (the repository root by
default) in the schema of the committed ``BENCH_*.json`` files.  Per
workload and end-to-end metric of ``BENCHMARK.json`` it holds both trees'
runs, medians and quartiles, ``change_better_pairs``,
``median_change_pct``, ``parent_iqr`` and the metric's bound, and also each
seed's change/parent ratio with the quartiles of the ratios.  Per workload
and seed, ``products_by_seed`` records whether the two runs' inputs
(``run.py``'s digest) and the two rounds' products were equal, and both
trees' figures; per workload, ``accuracy`` summarises each figure as a
metric (lower is better, no bound), or is null when a figure is missing.
Quartiles are ``statistics.quantiles(method="inclusive")``; runs,
quartiles and the parent's IQR keep 4 significant figures.

A change that moves product bytes on purpose regenerates
``tests/golden_products.json``, so when the two trees' golden digests
differ, ``byte_break`` names the golden scenes whose digests moved, and
the run exits 0 when every run was correct with no failed operation and
every figure was recorded.  Otherwise ``byte_break`` is null, and the run
exits 0 when every run was correct with no failed operation and every
seed's products were equal.  It exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from checks import check_scene  # noqa: E402
from measure import product_digests  # noqa: E402
FIGURES = ("truth_rms_px", "truth_rms_m")


def seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"101,105"`` (or a mix) as a list of seeds."""
    found = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        found += range(int(first), int(last or first) + 1)
    return found


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def child_env(tree: Path) -> dict:
    """The environment of a child of ``tree``: its own ``src`` only on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` of ``tree``: its result line and inputs digest, or its error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=child_env(tree), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    inputs = re.search(r"^inputs sha256 (\w+)", proc.stdout, re.MULTILINE)
    result["inputs"] = inputs.group(1) if inputs else None
    return result


def digests_or_none(out_dir: Path) -> dict | None:
    """``product_digests`` of a scene's products, None when its run left none."""
    try:
        return product_digests(out_dir)
    except OSError:
        return None


def scene_figures(manifest: dict, inputs: Path, out: Path) -> dict:
    """The largest of each ``check_scene`` figure over the scenes; None where one is missing."""
    found = dict.fromkeys(FIGURES, 0.0)
    for scene in manifest["scenes"]:
        try:
            figures = check_scene(scene, inputs / scene["name"], out / scene["name"])[1]
        except OSError:
            figures = {}
        for key in FIGURES:
            found[key] = max(found[key], figures.get(key, math.inf))
    return {key: value if math.isfinite(value) else None for key, value in found.items()}


def products_equal(parent: Path, change: Path, workload: str, seed: int) -> dict:
    """One round of each tree on the same generated inputs, products compared and scored."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, "perfbench/gen.py", "--workload", workload,
                        "--seed", str(seed), "--out", str(work / "inputs")],
                       cwd=parent, env=child_env(parent), check=True, capture_output=True)
        manifest = json.loads((work / "inputs" / "manifest.json").read_text())
        digests, figures = {}, {}
        for name, tree in (("parent", parent), ("change", change)):
            # Both rounds write to the same directory: report.json names its outputs' paths.
            shutil.rmtree(work / "out", ignore_errors=True)
            subprocess.run([sys.executable, "perfbench/measure.py", "--inputs",
                            str(work / "inputs"), "--out", str(work / "out"), "--seconds", "0",
                            "--result", str(work / "result.json")],
                           cwd=tree, env=child_env(tree), check=True, capture_output=True)
            digests[name] = {scene["name"]: digests_or_none(work / "out" / scene["name"])
                             for scene in manifest["scenes"]}
            figures[name] = scene_figures(manifest, work / "inputs", work / "out")
    differing = [scene for scene, found in digests["parent"].items()
                 if found is None or found != digests["change"][scene]]
    return {"equal": not differing, "differing": differing, "figures": figures}


def significant(value: float) -> float:
    """``value`` rounded to 4 significant figures, so that small figures keep theirs."""
    return float(f"{value:.4g}")


def metric_summary(parent: list[float], change: list[float], better: str,
                   bound: float | None) -> dict:
    """The committed per-metric figures of paired runs, plus the per-pair ratios."""
    ratios = [c / p for p, c in zip(parent, change)]
    summary = {}
    for name, values in (("parent", parent), ("change", change), ("ratio", ratios)):
        summary[name] = {k: significant(v) for k, v in quartiles(values).items()}
        summary[name]["runs"] = [significant(v) for v in values]
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    summary.update({
        "change_better_pairs": sum((b < a) if better == "lower" else (b > a)
                                   for a, b in zip(parent, change)),
        "pairs": len(ratios),
        "median_change_pct": round(100.0 * (c["median"] / p["median"] - 1.0), 1),
        "parent_iqr": significant(iqr),
        "parent_iqr_pct": round(100.0 * iqr / p["median"], 1),
        "bound_pct": None if bound is None else round(100.0 * bound, 1),
    })
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--slug", required=True)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    golden = [json.loads((tree / "tests" / "golden_products.json").read_text())["digests"]
              for tree in (parent, change)]
    moved = sorted(s for s in golden[0].keys() | golden[1].keys()
                   if golden[0].get(s) != golden[1].get(s))

    failed_runs = 0
    all_correct = all_equal = all_recorded = True
    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        products = {}
        for seed in seeds(args.seeds):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            results = {}
            for name in order:
                t0 = time.monotonic()
                results[name] = bench_run(parent if name == "parent" else change,
                                          workload, seed, args.seconds)
                print(f"{workload} seed {seed} {name}: {time.monotonic() - t0:.0f} s, "
                      f"{json.dumps(results[name])[-300:]}", file=sys.stderr)
            good = ["error" not in r and r["correct"] and r["failed"] == 0
                    for r in results.values()]
            failed_runs += good.count(False)
            all_correct &= all(good)
            if all(good):
                for name in runs:
                    runs[name].append({m: v["value"] for m, v in results[name]["metrics"].items()})
            found = products_equal(parent, change, workload, seed)
            found["inputs_equal"] = results["parent"].get("inputs") is not None \
                and results["parent"].get("inputs") == results["change"].get("inputs")
            all_equal &= found["equal"] and found["inputs_equal"]
            products[str(seed)] = found
        workloads[workload] = {
            m["name"]: metric_summary([r[m["name"]] for r in runs["parent"]],
                                      [r[m["name"]] for r in runs["change"]],
                                      m["better"], m["bound"])
            for m in metrics if runs["parent"]
        }
        workloads[workload]["products_by_seed"] = products
        by_tree = {name: [found["figures"][name] for found in products.values()]
                   for name in ("parent", "change")}
        recorded = all(None not in f.values() for f in by_tree["parent"] + by_tree["change"])
        all_recorded &= recorded
        workloads[workload]["accuracy"] = {
            key: metric_summary([f[key] for f in by_tree["parent"]],
                                [f[key] for f in by_tree["change"]], "lower", None)
            for key in FIGURES
        } if recorded else None

    doc = {
        "command": "python3 scripts/pairs.py PARENT_TREE CHANGE_TREE "
                   + " ".join(f"--workload {w}" for w in args.workload)
                   + f" --seeds {args.seeds} --seconds {args.seconds:g} --slug {args.slug}; "
                   "each run is python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": f"one parent and one change run per seed and workload, seeds {args.seeds}, "
                 "parent first on odd seeds",
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "products": ("equal on every seed" if all_equal else "differ on some seed")
                    + ": inputs (run.py's digest) and one round's corrected.l3raw, grid.json "
                      "and report.json without timing, per scene (products_by_seed)",
        "claim": None,
        "traced": "not run",
        "byte_break": {"golden_scenes_moved": moved} if moved else None,
        "failed_runs": failed_runs,
        "workloads": workloads,
    }
    path = args.out / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0 if all_correct and (all_recorded if moved else all_equal) else 1


if __name__ == "__main__":
    sys.exit(main())
