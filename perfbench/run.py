"""Scene-preprocessing benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run

1. generates the workload's inputs from the seed in a process of its own
   (``gen.py``) and prints their SHA-256 digest;
2. with ``--trace 0``, times five fresh interpreters importing ``pushproc``
   (``setup_s``), then runs the workload in a fresh measuring process
   (``measure.py``) for at least S seconds and two rounds (``wall_s``,
   ``peak_rss_mb``);
3. with ``--trace 1``, runs one untraced round (``pipeline.cpu_s`` and the
   baseline of the tracing overhead), then, in another fresh process, one
   traced round under ``tracemalloc`` (the ``*.peak_mb`` metrics) and S
   seconds of traced rounds without it (every other per-layer metric);
4. checks every product against computations made apart from the program
   (``checks.py``); a scene that fails a check or raises is a failed
   operation;
5. prints, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and the metrics listed in ``BENCHMARK.json``.

Inputs and products live under ``.bench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
from workloads import INJECTED_BIAS, WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
SETUP_SPAWNS = 5
SETUP_CODE = ("import time\n"
              "import pushproc, pushproc.pipeline, pushproc.coreg, pushproc.georef\n"
              "print(repr(time.monotonic()))")


class BenchError(Exception):
    """The benchmark itself could not complete; no result is printed."""


def run_child(argv: list, env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {argv[1]}")
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[1:3]))} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout


def setup_seconds(env: dict, deadline: float) -> float:
    """Median time from spawning an interpreter to pushproc being imported."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic()
        done = float(run_child([sys.executable, "-c", SETUP_CODE], env, deadline))
        samples.append(done - t0)
    return statistics.median(samples)


def measure(work: Path, env: dict, deadline: float, seconds: float, min_rounds: int,
            trace: bool, tag: str) -> dict:
    result = work / f"{tag}.json"
    argv = [sys.executable, str(HERE / "measure.py"), "--inputs", str(work / "inputs"),
            "--out", str(work / "out"), "--seconds", str(seconds),
            "--min-rounds", str(min_rounds), "--result", str(result)]
    run_child(argv + (["--trace"] if trace else []), env, deadline)
    return json.loads(result.read_text())


# ----------------------------------------------------------------- layers

def layer_metrics(trace: dict, wall: float) -> dict:
    """Per-layer metrics of one traced round (see README.md for the map)."""
    spans = trace["spans"]
    leaves = trace["leaves"]
    counters = trace["counters"]

    def dur(span):
        return span[2] - span[1]

    def incl(*names):
        return sum(dur(s) for s in spans if s[0] in names)

    def peak_mb(layer):
        return max((s[4] for s in spans if s[0].startswith(layer + ".")), default=0) / 2 ** 20

    def leaf(name):
        return leaves.get(name, [0, 0.0, 0.0])

    def ratio(num, den):
        return num / den if den else 0.0

    edges_under = defaultdict(float)
    for s in spans:
        if s[0] == "coreg.canny_edges":
            edges_under[s[3]] += dur(s)
    match_self = sum(dur(s) - edges_under[i] for i, s in enumerate(spans)
                     if s[0] == "coreg.collect_matches")
    edge_calls = sum(1 for s in spans if s[0] == "coreg.canny_edges")
    nodes = counters.get("georef.nodes", 0)
    grid_s = incl("georef.build_geogrid")
    return {
        "raster.load_s": incl("raster.load_raw"),
        "raster.save_s": incl("raster.save_raw"),
        "raster.peak_mb": peak_mb("raster"),
        "radiometry.correct_s": incl("radiometry.correct_vignetting"),
        "radiometry.metrics_s": incl("radiometry.edge_center_ratio",
                                     "radiometry.uniformity_std"),
        "radiometry.peak_mb": peak_mb("radiometry"),
        "coreg.edges_s": incl("coreg.canny_edges"),
        "coreg.edges_calls": edge_calls,
        "coreg.edges_mpix": counters.get("coreg.edges_mpix", 0.0),
        "coreg.edges_distinct_ratio": ratio(trace["distinct_planes"], edge_calls),
        "coreg.match_s": match_self,
        "coreg.match_tiles": leaf("coreg.fft_xcorr")[0],
        "coreg.match_yield": ratio(counters.get("coreg.matches_kept", 0),
                                   leaf("coreg.fft_xcorr")[0]),
        "coreg.prior_s": incl("coreg.predict_shift_prior"),
        "coreg.reject_s": incl("coreg.remove_outliers"),
        "coreg.inlier_ratio": ratio(counters.get("coreg.reject_out", 0),
                                    counters.get("coreg.reject_in", 0)),
        "coreg.fit_s": incl("coreg.fit_distortion"),
        "coreg.resample_s": incl("coreg.resample"),
        "coreg.warp_eval_s": incl("coreg.evaluate"),
        "coreg.residual_s": incl("coreg.coreg_residual"),
        "coreg.peak_mb": peak_mb("coreg"),
        "georef.grid_s": grid_s,
        "georef.grid_self_s": sum(s[5] for s in spans if s[0] == "georef.build_geogrid"),
        "georef.nodes": nodes,
        "georef.us_per_node": 1e6 * ratio(grid_s, nodes),
        "georef.orbit_s": leaf("georef.state_at")[1],
        "georef.orbit_calls": leaf("georef.state_at")[0],
        "georef.attitude_s": leaf("georef.slerp_attitude")[1],
        "georef.attitude_calls": leaf("georef.slerp_attitude")[0],
        "georef.los_s": leaf("georef.pixel_los")[1],
        "georef.intersect_s": leaf("georef.intersect_ellipsoid")[1],
        "georef.intersect_calls": leaf("georef.intersect_ellipsoid")[0],
        "georef.geodetic_s": leaf("georef.ecef_to_geodetic")[1],
        "georef.world_file_s": incl("georef.fit_world_file", "georef.save_geogrid"),
        "georef.accuracy_s": incl("georef.georef_error_stats"),
        "georef.metadata_s": incl("georef.load_metadata"),
        "georef.peak_mb": peak_mb("georef"),
        "pipeline.self_s": wall - trace["top_s"],
    }


def layer_shares(trace: dict, wall: float) -> dict:
    """Share of a round's wall time inside each layer's top-level spans."""
    shares = defaultdict(float)
    for s in trace["spans"]:
        if s[3] == -1:
            shares[s[0].split(".")[0]] += (s[2] - s[1]) / wall
    return shares


def median_of(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


# ----------------------------------------------------------------- checks

def check_runs(manifest: dict, work: Path, runs: list) -> tuple[int, int, int, dict]:
    """Check every scene of every round; returns attempted, failed, wrong, figures.

    ``wrong`` counts scene runs whose products failed a check, as opposed to
    scene runs that raised.  Products are checked once, on disk after the
    last round; every round's digests must equal them, so the checks hold
    for every round.  A scene that raised in any round leaves nothing to
    check, so all its runs count as failed.
    """
    names = [s["name"] for s in manifest["scenes"]]
    rounds = [r for run in runs for r in run["rounds"]]
    raised = {name for name in names if any(r["scenes"][name]["error"] for r in rounds)}
    bad_products = {}
    figures = defaultdict(float)
    for scene in manifest["scenes"]:
        name = scene["name"]
        if name in raised:
            continue
        problems, found = checks.check_scene(scene, work / "inputs" / name, work / "out" / name)
        problems.append(checks.check_determinism([r["scenes"][name]["digests"] for r in rounds]))
        problems = [p for p in problems if p]
        if problems:
            bad_products[name] = problems
        for key, value in found.items():
            figures[key] = max(figures[key], value)

    attempted = failed = wrong = 0
    for r in rounds:
        bias_problem = checks.check_bias(r["bias"], INJECTED_BIAS) if "bias" in r else None
        for name in names:
            attempted += 1
            if name in raised:
                failed += 1
                if r["scenes"][name]["error"]:
                    print(f"scene {name} raised: {r['scenes'][name]['error']}", file=sys.stderr)
            elif name in bad_products or bias_problem:
                failed += 1
                wrong += 1
        if bias_problem:
            print(bias_problem, file=sys.stderr)
    for name, problems in bad_products.items():
        print(f"scene {name}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed, wrong, dict(figures)


# ------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the finally clause below removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "pushproc" / "__init__.py").is_file():
        print("perfbench: src/pushproc not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_child([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(work / "inputs")], env, deadline)
        manifest = json.loads((work / "inputs" / "manifest.json").read_text())
        print(f"inputs sha256 {manifest['sha256']} ({args.workload}, seed {args.seed})")

        values = {}
        if args.trace:
            plain = measure(work, env, deadline, 0, 1, False, "untraced")
            traced = measure(work, env, deadline, args.seconds, 1, True, "traced")
            runs = [plain, traced]
            timed = [r for r in traced["rounds"] if not r["memory"]]
            walls = [r["wall_s"] for r in timed]
            values = median_of([layer_metrics(r["trace"], r["wall_s"]) for r in timed])
            memory = next(r for r in traced["rounds"] if r["memory"])
            for key, value in layer_metrics(memory["trace"], memory["wall_s"]).items():
                if key.endswith(".peak_mb"):
                    values[key] = value
            values["pipeline.cpu_s"] = statistics.median(r["cpu_s"] for r in plain["rounds"])
            base = statistics.median(r["wall_s"] for r in plain["rounds"])
            print(f"tracing overhead {statistics.median(walls) - base:.3f} s "
                  f"(traced {statistics.median(walls):.3f} s, untraced {base:.3f} s, "
                  f"{len(walls)} traced rounds)")
            shares = median_of([layer_shares(r["trace"], r["wall_s"]) for r in timed])
            print("share of traced wall: " + ", ".join(
                f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items())))
            if traced["probes_missing"]:
                print(f"probe sites not found: {traced['probes_missing']}")
        else:
            values["setup_s"] = setup_seconds(env, deadline)
            plain = measure(work, env, deadline, args.seconds, 2, False, "untraced")
            runs = [plain]
            values["wall_s"] = statistics.median(r["wall_s"] for r in plain["rounds"])
            values["peak_rss_mb"] = plain["peak_rss_mb"]
            print(f"rounds {len(plain['rounds'])}, walls "
                  + " ".join(f"{r['wall_s']:.3f}" for r in plain["rounds"]))

        attempted, failed, wrong, figures = check_runs(manifest, work, runs)
        values["coreg.truth_rms_px"] = figures.get("truth_rms_px", math.inf)
        values["georef.truth_rms_m"] = figures.get("truth_rms_m", math.inf)
        metrics = {}
        for metric in wanted:
            value = values[metric["name"]]
            metrics[metric["name"]] = {"value": value if math.isfinite(value) else None,
                                       "unit": metric["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
