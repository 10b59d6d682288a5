"""Command line interface.

Subcommands::

    pushproc preprocess --raw F --calib F --meta F --out DIR
                        [--skip-vignetting] [--skip-coreg] [--skip-georef]
                        [--config F] [--quicklook]
    pushproc synth --spec F --out DIR
    pushproc report --in F

Exit codes, by the phase that failed (``pipeline.stage``)::

    0  success
    2  config, input, spec, report
    3  vignetting, coreg, georef, output, synth

A failure prints a machine-readable JSON object naming the phase and the
sub-error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ReportInvalid, SpecInvalid, StageFailure
from .pipeline import PipelineConfig, report_timing, run_pipeline, stage
from .raster import make_dir, read_json, save_calibration, save_raw
from .synthscene import SynthSpec, generate, save_truth
from .georef.metadata import save_metadata

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STAGE = 3
# The phases whose failure is the input's fault; every other phase exits EXIT_STAGE.
EXIT_CODES = dict.fromkeys(("config", "input", "spec", "report"), EXIT_INPUT)


def _error_json(phase: str, exc: Exception) -> str:
    return json.dumps(
        {"error": {"stage": phase, "type": type(exc).__name__, "message": str(exc)}},
        sort_keys=True,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pushproc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag given sets the PipelineConfig field it is stored under; one not
    # given leaves the field as the config file or the default has it.
    pre = sub.add_parser("preprocess", help="run the correction pipeline on a raw scene",
                         argument_default=argparse.SUPPRESS)
    pre.add_argument("--raw", dest="raw_path", help="input L3RAW scene")
    pre.add_argument("--calib", dest="calib_path", help="calibration JSON")
    pre.add_argument("--meta", dest="meta_path", help="metadata sidecar JSON")
    pre.add_argument("--truth", dest="truth_path",
                     help="synthetic truth JSON; adds georef error stats")
    pre.add_argument("--out", dest="out_dir", help="output directory")
    pre.add_argument("--skip-vignetting", dest="vignetting", action="store_false")
    pre.add_argument("--skip-coreg", dest="coreg", action="store_false")
    pre.add_argument("--skip-georef", dest="georef", action="store_false")
    pre.add_argument("--config", help="config JSON; CLI flags override file values")
    pre.add_argument("--quicklook", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    synth.add_argument("--spec", required=True, help="SynthSpec JSON")
    synth.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="print the timing breakdown of a report")
    rep.add_argument("--in", dest="report_in", required=True, help="report JSON")
    return parser


def _cmd_preprocess(args) -> None:
    with stage("config"):
        config = PipelineConfig.from_file(args.config) if "config" in args else PipelineConfig()
    for name, value in vars(args).items():
        if name in PipelineConfig.__dataclass_fields__:
            setattr(config, name, value)
    report = run_pipeline(config)
    print(report_timing(report))
    print(f"report: {report.outputs['report']}")


def _cmd_synth(args) -> None:
    # ``generate`` reads only the spec, so whatever it rejects is the spec's fault.
    with stage("spec"):
        raw, truth = generate(SynthSpec.from_dict(read_json(args.spec, SpecInvalid)))
    with stage("input"):
        out = make_dir(args.out)
    with stage("synth"):
        save_raw(raw, out / "scene.l3raw")
        save_raw(truth.clean, out / "clean.l3raw")
        save_calibration(truth.calib, out / "calib.json")
        save_metadata(truth.metadata, out / "metadata.json")
        save_truth(truth, out / "truth.json")
    for name in ("scene.l3raw", "clean.l3raw", "calib.json", "metadata.json", "truth.json"):
        print(out / name)


def _cmd_report(args) -> None:
    with stage("report"):
        print(report_timing(read_json(args.report_in, ReportInvalid)))


COMMANDS = {"preprocess": _cmd_preprocess, "synth": _cmd_synth, "report": _cmd_report}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except StageFailure as exc:
        print(_error_json(exc.stage, exc.cause))
        return EXIT_CODES.get(exc.stage, EXIT_STAGE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
