#!/usr/bin/env python3
"""Reach audit: which functions and lines of ``src/pushproc`` a run never enters.

Runs the CLI in-process under ``sys.settrace`` on the seed-101 scenes of
``perfbench/workloads.py``: the first scene of each workload and the first
two of ``batch512-bias``.  Each scene goes through ``pushproc synth``, then
``pushproc preprocess --quicklook`` with the truth sidecar and the scene's
config, then ``pushproc report``.

It prints every function of ``src/pushproc`` that no run enters, except
those in ``PINNED``, where each name carries the caller that keeps it.
Then it prints, per entered function, the statement lines that never ran,
docstrings aside.  It exits 1 when an unpinned function is left, or when a
pinned name is entered or no longer exists, so that the table stays true.

Usage: python scripts/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pushproc"
SEED = 101
# Scenes run per workload, first ones first.
SCENES = {"scene2000": 1, "swath-georef": 1, "batch512-bias": 2}

# "module:qualname" -> the caller that keeps a function no run enters: acceptance,
# a test oracle the standing rules keep, perfbench, a script CI runs, an error
# path, or a guard.
TLE_WRITER = "perfbench: workloads.py writes the swath-georef TLE with format_tle"
PINNED = {
    "pushproc.cli:_error_json": "error path: the JSON line of a failed phase",
    "pushproc.coreg:collect_matches": "acceptance: tests/test_acceptance.py",
    "pushproc.coreg:coreg_residual": "acceptance: tests/test_acceptance.py",
    "pushproc.coreg:fft_xcorr": "acceptance: tests/test_acceptance.py",
    "pushproc.errors:StageFailure.__init__": "error path: pipeline.stage wraps a phase's error",
    "pushproc.georef.accuracy:estimate_bias": "perfbench: ends each batch512-bias round",
    "pushproc.georef.camera:ImagerModel.with_offsets": "acceptance: applies an estimated bias",
    "pushproc.georef.geolocate:georeference_line": "acceptance: tests/test_acceptance.py",
    "pushproc.georef.tle:_format_implied_decimal": TLE_WRITER,
    "pushproc.georef.tle:_format_ndot": TLE_WRITER,
    "pushproc.georef.tle:format_tle": TLE_WRITER,
    "pushproc.radiometry:LineProfile.evaluate": "acceptance: calibration_from_flat_field's fit",
    "pushproc.radiometry:calibration_from_flat_field": "acceptance: tests/test_acceptance.py",
    "pushproc.radiometry:correct_vignetting_float": "oracle: the tests' reference for the rounding",
    "pushproc.radiometry:fit_profile_poly2": "acceptance: calibration_from_flat_field's fit",
    "pushproc.raster:ScenePlanes.__array__": "guard: np.asarray of file planes raises "
                                             "TypeError, not a 0-d object array",
    "pushproc.raster:load_raw": "perfbench: the raster.load_raw probe site",
    "pushproc.synthscene:_texture_flat": "acceptance: the flat-field scenes",
    "pushproc.synthscene:truth_coreg_residual": "perfbench: checks.py scores the bands; CI "
                                                "script: run_demo.py",
    "pushproc.synthscene:truth_georef_error": "acceptance: scores the grids; CI script: "
                                              "run_demo.py",
}


def functions(path: Path) -> dict[int, tuple[str, int, set[int]]]:
    """Every function of a source file: its first line (the first decorator's
    when decorated, as its code object has it) -> (qualname, last line, the
    first lines of its own statements, without its docstring or nested
    definitions)."""
    found = {}

    def statements(body) -> set[int]:
        lines = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            lines.add(node.lineno)
            for name in ("body", "orelse", "finalbody"):
                lines |= statements(getattr(node, name, []))
            for handler in getattr(node, "handlers", []):
                lines |= {handler.lineno} | statements(handler.body)
            for case in getattr(node, "cases", []):
                lines |= statements(case.body)
        return lines

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = (prefix + child.name, child.end_lineno, statements(body))
                walk(child, f"{prefix}{child.name}.<locals>.")

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def trace_runs() -> tuple[set, set]:
    """Run the CLI on the audit's scenes; return the (file, first line) of
    every code object entered and the (file, line) of every line run, both
    within the package."""
    prefix = str(PACKAGE) + "/"
    entered, ran = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    import workloads
    from pushproc.cli import main

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        runs = []
        for workload, count in SCENES.items():
            for scene in workloads.scenes(workload, SEED)[:count]:
                work = Path(tmp) / workload / scene["name"]
                work.mkdir(parents=True)
                (work / "spec.json").write_text(json.dumps(scene["spec"]))
                (work / "config.json").write_text(json.dumps(scene["config"]))
                inputs, out = work / "in", work / "out"
                runs.append((f"{workload}/{scene['name']}", [
                    ["synth", "--spec", str(work / "spec.json"), "--out", str(inputs)],
                    ["preprocess", "--raw", str(inputs / "scene.l3raw"),
                     "--calib", str(inputs / "calib.json"),
                     "--meta", str(inputs / "metadata.json"),
                     "--truth", str(inputs / "truth.json"),
                     "--config", str(work / "config.json"), "--out", str(out),
                     "--quicklook"],
                    ["report", "--in", str(out / "report.json")],
                ]))
        for name, commands in runs:
            for argv in commands:
                sys.settrace(tracer)
                try:
                    with contextlib.redirect_stdout(io.StringIO()) as printed:
                        rc = main(argv)
                finally:
                    sys.settrace(None)
                if rc != 0:
                    sys.exit(f"{name}: pushproc {argv[0]} exited {rc}: {printed.getvalue()}")
            print(f"ran {name}", file=sys.stderr)
    return entered, ran


def spans(lines: list[int]) -> str:
    out, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main() -> int:
    entered, ran = trace_runs()
    unpinned, pinned, dead_lines = [], {}, []
    for path in sorted(PACKAGE.rglob("*.py")):
        module, filename = module_name(path), str(path)
        for first, (qualname, last, statements) in sorted(functions(path).items()):
            name = f"{module}:{qualname}"
            if (filename, first) not in entered:
                if name in PINNED:
                    pinned[name] = last - first + 1
                else:
                    unpinned.append((f"{path.relative_to(ROOT)}:{first} {name}",
                                     last - first + 1))
                continue
            missed = sorted(line for line in statements if (filename, line) not in ran)
            if missed:
                dead_lines.append(f"{path.relative_to(ROOT)} {qualname}: {spans(missed)}")
    stale = sorted(set(PINNED) - set(pinned))

    print(f"{len(pinned)} pinned functions not entered ({sum(pinned.values())} lines):")
    for name in sorted(pinned):
        print(f"  {name} -- {PINNED[name]}")
    print(f"{len(unpinned)} unpinned functions not entered "
          f"({sum(size for _, size in unpinned)} lines):")
    for where, size in unpinned:
        print(f"  {where} ({size} lines)")
    print(f"{len(stale)} pins of functions that are entered or gone:")
    for name in stale:
        print(f"  {name}")
    print(f"lines never run in entered functions ({len(dead_lines)} functions):")
    for line in dead_lines:
        print(f"  {line}")
    return 1 if unpinned or stale else 0


if __name__ == "__main__":
    sys.exit(main())
