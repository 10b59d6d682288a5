"""Command line interface.

Subcommands::

    pushproc preprocess --raw F --calib F --meta F --out DIR
                        [--skip-vignetting] [--skip-coreg] [--skip-georef]
                        [--config F] [--workers N] [--quicklook]
    pushproc synth --spec F --out DIR
    pushproc report --in F

Exit codes: 0 success, 2 input error, 3 stage failure.  Failures print a
machine-readable JSON object naming the failing stage and sub-error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import PushprocError, ReportInvalid, SpecInvalid, StageFailure
from .pipeline import PipelineConfig, report_timing, run_pipeline
from .raster import save_calibration, save_raw
from .synthscene import SynthSpec, generate, save_truth
from .georef.metadata import save_metadata

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STAGE = 3


def _error_json(stage: str, exc: Exception) -> str:
    return json.dumps(
        {"error": {"stage": stage, "type": type(exc).__name__, "message": str(exc)}},
        sort_keys=True,
    )


def _load_json(path, error: type[PushprocError]):
    """The JSON document in ``path``; text that is not UTF-8 JSON raises ``error``."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pushproc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("preprocess", help="run the correction pipeline on a raw scene")
    pre.add_argument("--raw", help="input L3RAW scene")
    pre.add_argument("--calib", help="calibration JSON")
    pre.add_argument("--meta", help="metadata sidecar JSON")
    pre.add_argument("--truth", help="synthetic truth JSON; adds georef error stats")
    pre.add_argument("--out", help="output directory")
    pre.add_argument("--skip-vignetting", action="store_true")
    pre.add_argument("--skip-coreg", action="store_true")
    pre.add_argument("--skip-georef", action="store_true")
    pre.add_argument("--config", help="config JSON; CLI flags override file values")
    pre.add_argument("--workers", type=int)
    pre.add_argument("--quicklook", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    synth.add_argument("--spec", required=True, help="SynthSpec JSON")
    synth.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="print the timing breakdown of a report")
    rep.add_argument("--in", dest="report_in", required=True, help="report JSON")
    return parser


def _cmd_preprocess(args) -> int:
    try:
        if args.config:
            config = PipelineConfig.from_file(args.config)
        else:
            config = PipelineConfig()
        if args.raw:
            config.raw_path = args.raw
        if args.calib:
            config.calib_path = args.calib
        if args.meta:
            config.meta_path = args.meta
        if args.truth:
            config.truth_path = args.truth
        if args.out:
            config.out_dir = args.out
        if args.skip_vignetting:
            config.vignetting = False
        if args.skip_coreg:
            config.coreg = False
        if args.skip_georef:
            config.georef = False
        if args.workers is not None:
            config.workers = args.workers
        if args.quicklook:
            config.quicklook = True
    except (PushprocError, OSError) as exc:
        print(_error_json("config", exc))
        return EXIT_INPUT

    try:
        report = run_pipeline(config)
    except StageFailure as exc:
        print(_error_json(exc.stage, exc.cause))
        return EXIT_INPUT if exc.stage == "input" else EXIT_STAGE
    print(report_timing(report))
    print(f"report: {report.outputs['report']}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        spec = SynthSpec.from_dict(_load_json(args.spec, SpecInvalid))
        spec.validate()
    except (PushprocError, OSError, TypeError) as exc:
        print(_error_json("spec", exc))
        return EXIT_INPUT
    try:
        raw, truth = generate(spec)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_raw(raw, out / "scene.l3raw")
        save_raw(truth.clean, out / "clean.l3raw")
        save_calibration(truth.calib, out / "calib.json")
        save_metadata(truth.metadata, out / "metadata.json")
        save_truth(truth, out / "truth.json")
    except PushprocError as exc:
        print(_error_json("synth", exc))
        return EXIT_STAGE
    for name in ("scene.l3raw", "clean.l3raw", "calib.json", "metadata.json", "truth.json"):
        print(out / name)
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        text = report_timing(_load_json(args.report_in, ReportInvalid))
    except (ReportInvalid, OSError) as exc:
        print(_error_json("report", exc))
        return EXIT_INPUT
    print(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "preprocess":
        return _cmd_preprocess(args)
    if args.command == "synth":
        return _cmd_synth(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
