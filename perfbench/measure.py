"""Measuring process: run rounds of one workload and record what they did.

    python3 perfbench/measure.py --inputs DIR --out DIR --seconds S
                                 --min-rounds N [--trace] --result FILE

A round runs every scene of the manifest through ``run_pipeline`` once.
Rounds repeat until ``--seconds`` have passed and at least ``--min-rounds``
are done.  Outside the timed region each round hashes its products and,
when scenes carry an injected bias, estimates the bias from the round's
error means.  With ``--trace`` the probes of ``probes.py`` are installed;
the first round also runs ``tracemalloc`` for the per-layer memory peaks
and is marked ``memory``.  ``tracemalloc`` then stops, because it slows
allocation-heavy code by more than half, and the later rounds give the
per-layer times.  The result file holds per-round wall and CPU time,
product digests, scene failures, traces, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def product_digests(out_dir: Path) -> dict:
    """Digests of the compared products; report.json without ``timing``."""
    report = json.loads((out_dir / "report.json").read_text())
    report.pop("timing", None)
    return {
        "corrected.l3raw": _file_digest(out_dir / "corrected.l3raw"),
        "grid.json": _file_digest(out_dir / "grid.json"),
        "report.json": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from pushproc.pipeline import PipelineConfig, run_pipeline

    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    configs = []
    bias_tags = []
    for scene in manifest["scenes"]:
        sdir = inputs / scene["name"]
        configs.append((scene["name"], dict(
            raw_path=str(sdir / "scene.l3raw"), calib_path=str(sdir / "calib.json"),
            meta_path=str(sdir / "metadata.json"),
            truth_path=str(sdir / "truth.json"),
            out_dir=str(Path(args.out) / scene["name"]), workers=1, **scene["config"])))
        if any(scene["spec"].get("injected_bias", ())):
            truth = json.loads((sdir / "truth.json").read_text())
            bias_tags.append((truth["time_drift"], truth["ground_speed_kms"],
                              truth["altitude_km"]))

    tracer = None
    if args.trace:
        from probes import Tracer

        tracer = Tracer()
        tracer.install()
        tracemalloc.start()

    rounds = []
    t_begin = time.perf_counter()
    while (len(rounds) < args.min_rounds + (tracer is not None)
           or time.perf_counter() - t_begin < args.seconds):
        scenes = {}
        reports = []
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for name, fields in configs:
            try:
                reports.append(run_pipeline(PipelineConfig(**fields)))
                scenes[name] = {"error": None}
            except Exception as exc:  # noqa: BLE001 - a failing scene is counted, not fatal
                reports.append(None)
                scenes[name] = {"error": "".join(traceback.format_exception(exc))[-2000:]}
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        record = {"wall_s": wall, "cpu_s": cpu, "scenes": scenes}
        if tracer is not None:
            record["trace"] = tracer.take()
            record["memory"] = tracemalloc.is_tracing()
            if record["memory"]:
                tracemalloc.stop()
                t_begin = time.perf_counter()
        for (name, fields), report in zip(configs, reports):
            if report is not None:
                scenes[name]["digests"] = product_digests(Path(fields["out_dir"]))
        if bias_tags:
            record["bias"] = estimate(reports, bias_tags)
        rounds.append(record)

    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes_missing": tracer.missing if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


def estimate(reports, bias_tags) -> dict:
    """Boresight and clock offsets from one round's georef error means."""
    from pushproc.errors import PushprocError
    from pushproc.georef.accuracy import SceneErrorSample, estimate_bias

    if any(r is None for r in reports):
        return {"error": "a scene of the round failed"}
    samples = [
        SceneErrorSample(r.stages["georef"]["error_stats"]["mean_across_km"],
                         r.stages["georef"]["error_stats"]["mean_along_km"], drift, speed)
        for r, (drift, speed, _) in zip(reports, bias_tags)
    ]
    try:
        est = estimate_bias(samples, altitude_km=bias_tags[0][2])
    except PushprocError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"roll_deg": est.roll_offset_deg, "pitch_deg": est.pitch_offset_deg,
            "time_s": est.time_offset_s}


if __name__ == "__main__":
    sys.exit(main())
