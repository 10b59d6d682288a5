import builtins
import dataclasses
import errno
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pushproc import errors
from pushproc.cli import main
from pushproc.pipeline import (PipelineConfig, QualityReport, _percentiles, quicklook,
                               report_timing, run_pipeline, stage)
from pushproc.raster import BandId, RawScene, block_lines, load_raw, save_calibration, save_raw
from pushproc.synthscene import SynthSpec, generate
from pushproc.georef.metadata import save_metadata
from test_tle_sgp4 import mangled_tle

WARP = {"order": 2, "coeff_dx": [1.5, -2.0, 1.0, 0.5, -0.5, 0.3],
        "coeff_dy": [-1.0, 1.5, -2.0, 0.3, 0.8, -0.5]}


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    spec = SynthSpec(seed=21, width=512, lines=512, texture="urban-blocks",
                     vignette_falloff=40.0, dark_level=5.0,
                     band_warp={"nir": WARP})
    raw, truth = generate(spec)
    save_raw(raw, out / "scene.l3raw")
    save_calibration(truth.calib, out / "calib.json")
    save_metadata(truth.metadata, out / "metadata.json")
    (out / "spec.json").write_text(json.dumps(dataclasses.asdict(spec)))
    return out


def no_space_on(monkeypatch, owner, name, target):
    """Make ``owner.name`` fail with ENOSPC when its first argument names ``target``."""
    real = getattr(owner, name)

    def call(*args, **kwargs):
        if str(args[0]).endswith(target):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def base_config(synth_inputs, out_dir, **kw):
    cfg = PipelineConfig(
        raw_path=str(synth_inputs / "scene.l3raw"),
        calib_path=str(synth_inputs / "calib.json"),
        meta_path=str(synth_inputs / "metadata.json"),
        out_dir=str(out_dir),
    )
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


class TestRunPipeline:
    def test_full_run_products_and_metrics(self, synth_inputs, tmp_path):
        report = run_pipeline(base_config(synth_inputs, tmp_path / "run"))
        assert set(report.timing) == {"vignetting", "coreg", "georef", "total"}
        assert report.stages["vignetting"]["after"]["red"]["falloff_pct"] < \
            report.stages["vignetting"]["before"]["red"]["falloff_pct"]
        nir = report.stages["coreg"]["bands"]["nir"]
        assert nir["residual_rms_px"] <= 0.5
        assert report.stages["georef"]["mean_gsd_m"] == pytest.approx(15.0, rel=0.05)
        for name in ("corrected.l3raw", "report.json", "grid.json", "grid.wld"):
            assert (tmp_path / "run" / name).exists()
        # total >= sum of stage times (small overhead allowance)
        stage_sum = sum(v for k, v in report.timing.items() if k != "total")
        assert report.timing["total"] >= 0.99 * stage_sum

    def test_uint8_planes_give_the_products_of_uint16_planes(self, synth_inputs, tmp_path,
                                                             monkeypatch):
        from pushproc.raster import ScenePlanes

        assert load_raw(synth_inputs / "scene.l3raw").planes.dtype == np.uint8
        run_pipeline(base_config(synth_inputs, tmp_path / "narrow", quicklook=True))

        # Every window the stages read of the raw file and of the product
        # file comes back widened to uint16.
        read = ScenePlanes.__getitem__

        def read_wide(planes, key):
            found = read(planes, key)
            return found.astype(np.uint16) if isinstance(found, np.ndarray) else found

        monkeypatch.setattr(ScenePlanes, "__getitem__", read_wide)
        run_pipeline(base_config(synth_inputs, tmp_path / "wide", quicklook=True))
        narrow, wide = tmp_path / "narrow", tmp_path / "wide"
        for name in ("corrected.l3raw", "grid.json", "quicklook.ppm"):
            assert (narrow / name).read_bytes() == (wide / name).read_bytes()
        reports = [json.loads((run / "report.json").read_text()) for run in (narrow, wide)]
        for report in reports:
            del report["timing"], report["outputs"]
        assert reports[0] == reports[1]

    def test_vignetting_only_identity_calib(self, tmp_path):
        scene, truth = generate(SynthSpec(seed=22, width=128, lines=128,
                                          texture="urban-blocks", vignette_falloff=0.0))
        raw_path = tmp_path / "s.l3raw"
        save_raw(scene, raw_path)
        calib_path = tmp_path / "c.json"
        save_calibration(truth.calib, calib_path)  # identity (falloff 0, dark 0)
        cfg = PipelineConfig(raw_path=str(raw_path), calib_path=str(calib_path),
                             out_dir=str(tmp_path / "out"), coreg=False, georef=False)
        report = run_pipeline(cfg)
        out_scene = load_raw(tmp_path / "out" / "corrected.l3raw")
        np.testing.assert_array_equal(out_scene.planes, scene.planes)
        before = report.stages["vignetting"]["before"]["red"]["falloff_pct"]
        after = report.stages["vignetting"]["after"]["red"]["falloff_pct"]
        assert after == pytest.approx(before, abs=1e-9)

    def test_stage_isolation_matches_manual_composition(self, synth_inputs, tmp_path):
        from pushproc import radiometry
        from pushproc.raster import load_calibration

        cfg = base_config(synth_inputs, tmp_path / "vign_only",
                          coreg=False, georef=False)
        run_pipeline(cfg)
        pipeline_scene = load_raw(tmp_path / "vign_only" / "corrected.l3raw")
        manual = radiometry.correct_vignetting(
            load_raw(synth_inputs / "scene.l3raw"),
            load_calibration(synth_inputs / "calib.json"),
        )
        np.testing.assert_array_equal(pipeline_scene.planes, manual.planes)

    def test_truth_comparison_adds_error_stats(self, tmp_path):
        from pushproc.synthscene import save_truth

        spec = SynthSpec(seed=25, width=256, lines=128, texture="flat",
                         vignette_falloff=0.0, grid_step=64)
        raw, truth = generate(spec)
        save_raw(raw, tmp_path / "scene.l3raw")
        save_metadata(truth.metadata, tmp_path / "metadata.json")
        save_truth(truth, tmp_path / "truth.json")
        cfg = PipelineConfig(
            raw_path=str(tmp_path / "scene.l3raw"),
            meta_path=str(tmp_path / "metadata.json"),
            truth_path=str(tmp_path / "truth.json"),
            out_dir=str(tmp_path / "out"),
            vignetting=False, coreg=False, grid_step=64,
        )
        report = run_pipeline(cfg)
        stats = report.stages["georef"]["error_stats"]
        assert abs(stats["rms_total_km"]) < 1e-6  # exact metadata, no bias

    @pytest.mark.parametrize("path, stage", [("meta_path", "georef"),
                                             ("calib_path", "vignetting")])
    def test_missing_metadata_fails_georef_stage(self, synth_inputs, tmp_path, monkeypatch,
                                                 path, stage):
        # the check of a stage's input runs before any stage, and before --out is made
        from pushproc import coreg, radiometry

        def spy(*args, **kwargs):
            raise AssertionError(f"a stage started before the {stage} check")

        monkeypatch.setattr(radiometry, "correct_vignetting", spy)
        monkeypatch.setattr(coreg, "_magnitude", spy)
        monkeypatch.setattr(coreg, "match_bands", spy)
        cfg = base_config(synth_inputs, tmp_path / "missing", **{path: None})
        with pytest.raises(errors.StageFailure) as err:
            run_pipeline(cfg)
        assert err.value.stage == stage
        assert not (tmp_path / "missing").exists()

    def test_world_file_fitted_once(self, synth_inputs, tmp_path, monkeypatch):
        from pushproc import pipeline
        from pushproc.georef import geolocate

        calls = []
        original = geolocate.fit_world_file

        def counting(grid):
            calls.append(grid.lat.shape)
            return original(grid)

        monkeypatch.setattr(geolocate, "fit_world_file", counting)
        # A module that imported the fit by name would call past the first patch.
        monkeypatch.setattr(pipeline, "fit_world_file", counting, raising=False)
        report = run_pipeline(base_config(synth_inputs, tmp_path / "wld", coreg=False))
        assert len(calls) == 1
        grid_doc = json.loads((tmp_path / "wld" / "grid.json").read_text())
        assert report.stages["georef"]["world_file_rms_deg"] == \
            grid_doc["world_file"]["rms_residual_deg"]

    def test_no_stages_invalid(self, synth_inputs, tmp_path):
        cfg = base_config(synth_inputs, tmp_path / "none",
                          vignetting=False, coreg=False, georef=False)
        with pytest.raises(errors.StageFailure) as err:
            run_pipeline(cfg)
        assert err.value.stage == "input"

    def test_determinism_and_worker_independence(self, synth_inputs, tmp_path):
        def run(out):
            run_pipeline(base_config(synth_inputs, out, workers=1))
            report = json.loads((out / "report.json").read_text())
            report.pop("timing")
            report.pop("outputs")  # paths differ between run dirs by design
            return ((out / "corrected.l3raw").read_bytes(),
                    (out / "grid.json").read_bytes(), report)

        assert run(tmp_path / "d1") == run(tmp_path / "d2")


class TestQuicklook:
    def test_constant_scene_constant_gray(self, tmp_path):
        planes = np.full((4, 8, 8), 120, dtype=np.uint16)
        scene = RawScene(planes, np.arange(8, dtype=float), 8)
        path = tmp_path / "gray.ppm"
        quicklook(scene, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n8 8\n255\n")
        body = blob.split(b"255\n", 1)[1]
        assert len(set(body)) == 1

    def test_three_band_ppm(self, tmp_path):
        scene, _ = generate(SynthSpec(seed=23, width=32, lines=16, texture="urban-blocks"))
        path = tmp_path / "rgb.ppm"
        quicklook(scene, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n32 16\n255\n")
        assert len(blob.split(b"255\n", 1)[1]) == 32 * 16 * 3

    def test_percentile_stretch_on_known_histogram(self, tmp_path):
        # 1000 samples 0..999: 2nd percentile ~ 20, 98th ~ 979; values at or
        # below the low cut map to 0 and at or above the high cut to 255
        values = np.arange(1000, dtype=np.uint16).reshape(25, 40)
        planes = np.stack([values] * 4)
        scene = RawScene(planes, np.arange(25, dtype=float), 16)
        path = tmp_path / "hist.ppm"
        quicklook(scene, path)
        body = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        assert (body[0::3] == body[1::3]).all() and (body[0::3] == body[2::3]).all()
        body = body[0::3]
        lo = float(np.percentile(values, 2))
        hi = float(np.percentile(values, 98))
        assert body[values.ravel() <= lo].max(initial=0) == 0
        assert body[values.ravel() >= hi].min(initial=255) == 255
        mid_idx = 500
        expected_mid = round((500 - lo) / (hi - lo) * 255)
        assert abs(int(body[mid_idx]) - expected_mid) <= 1


def whole_plane_quicklook(scene):
    """The quicklook bytes from float64 planes, stretched whole."""
    def stretch(plane):
        data = plane.astype(np.float64)
        lo = float(np.percentile(data, 2.0))
        hi = float(np.percentile(data, 98.0))
        if hi <= lo:
            return np.zeros(plane.shape, dtype=np.uint8)
        scaled = np.clip((data - lo) / (hi - lo) * 255.0, 0.0, 255.0)
        return np.floor(scaled + 0.5).astype(np.uint8)

    rgb = (BandId.RED, BandId.GREEN, BandId.BLUE)
    body = np.stack([stretch(scene.band(b)) for b in rgb], axis=-1).tobytes()
    return f"P6\n{scene.width} {scene.lines}\n255\n".encode() + body


class TestQuicklookBlocks:
    """Integer percentiles and a block-wise stretch give the whole-plane bytes.

    ``bands`` are the bands held at one value, which stretch to 0.
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), lines=st.integers(1, 2), size=st.integers(1, 3000),
           top=st.sampled_from([1, 2, 255, 4095, 65535]),
           dtype=st.sampled_from([np.uint8, np.uint16]))
    # Planes of one and two samples: one sample blends its value at t = 0.
    @example(seed=1, lines=1, size=1, top=65535, dtype=np.uint8)
    @example(seed=2, lines=1, size=2, top=65535, dtype=np.uint8)
    @example(seed=3, lines=2, size=1, top=65535, dtype=np.uint8)
    @example(seed=4, lines=1, size=1, top=65535, dtype=np.uint16)
    @example(seed=5, lines=1, size=2, top=65535, dtype=np.uint16)
    @example(seed=6, lines=2, size=1, top=65535, dtype=np.uint16)
    def test_integer_percentiles_equal_float64(self, seed, lines, size, top, dtype):
        top = min(top, np.iinfo(dtype).max)
        plane = np.random.default_rng(seed).integers(0, top + 1, (lines, size)).astype(dtype)
        as_float = plane.astype(np.float64)
        lo, hi = np.percentile(plane, [2.0, 98.0])
        assert lo == np.percentile(as_float, 2.0)
        assert hi == np.percentile(as_float, 98.0)
        # The quicklook's percentiles, from the histogram.
        assert _percentiles(plane) == [lo, hi]

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("bands", [[], [BandId.GREEN]])
    def test_equals_whole_plane_stretch(self, tmp_path, rng, bit_depth, bands):
        # Block edges inside the plane: two whole blocks and 37 lines.
        lines, width = 2 * block_lines(50) + 37, 50
        planes = rng.integers(0, 1 << bit_depth, (4, lines, width)).astype(np.uint16)
        planes[[int(b) for b in bands]] = 7
        scene = RawScene(planes, np.arange(lines, dtype=float), bit_depth)
        quicklook(scene, tmp_path / "q.ppm")
        assert (tmp_path / "q.ppm").read_bytes() == whole_plane_quicklook(scene)

    @pytest.mark.parametrize("bands", [[BandId.GREEN], []])
    def test_memory_under_one_float64_plane_beyond_the_image(self, tmp_path, rng, bands):
        n = 1024
        planes = rng.integers(0, 4096, (4, n, n)).astype(np.uint16)
        planes[[int(b) for b in bands]] = 7
        scene = RawScene(planes, np.arange(n, dtype=float), 16)
        tracemalloc.start()
        try:
            quicklook(scene, tmp_path / "q.ppm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each band's histogram and one block of lines of the image with its
        # float64 stretch: 0.30 of a float64 plane in all, with or without a
        # flat band, the whole image never built.  The whole image beside
        # np.percentile's uint16 copy of a band measured 0.76; float64 planes
        # and their scaled copies 3.9 beyond it.
        assert peak < 0.32 * n * n * 8


class TestReportTiming:
    def test_breakdown_and_flag(self):
        report = QualityReport(timing={"vignetting": 10.0, "coreg": 30.0,
                                       "georef": 10.0, "total": 50.0})
        text = report_timing(report)
        assert "coreg" in text and "60.0%" in text
        assert "exceeds half" in text

    def test_single_stage_hundred_percent(self):
        report = QualityReport(timing={"vignetting": 4.0, "total": 4.0})
        text = report_timing(report)
        assert "100.0%" in text
        assert "exceeds half" not in text


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_synth_and_preprocess_roundtrip(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "cli_synth"
        rc = self.run_cli("synth", "--spec", str(synth_inputs / "spec.json"),
                          "--out", str(out))
        assert rc == 0
        assert (out / "scene.l3raw").exists()
        run_dir = tmp_path / "cli_run"
        rc = self.run_cli(
            "preprocess", "--raw", str(out / "scene.l3raw"),
            "--calib", str(out / "calib.json"), "--meta", str(out / "metadata.json"),
            "--out", str(run_dir), "--skip-coreg",
        )
        assert rc == 0
        assert (run_dir / "report.json").exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert "coreg" not in report["stages"]
        rc = self.run_cli("report", "--in", str(run_dir / "report.json"))
        assert rc == 0
        assert "vignetting" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [[], {"timing": []}, {"timing": {"coreg": "x", "total": 1}}])
    def test_report_of_non_report_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps(doc))
        rc = self.run_cli("report", "--in", str(path))
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip())
        assert (err["error"]["stage"], err["error"]["type"]) == ("report", "ReportInvalid")

    def test_missing_input_exit_2(self, tmp_path, capsys):
        rc = self.run_cli("preprocess", "--raw", str(tmp_path / "ghost.l3raw"),
                          "--out", str(tmp_path / "o"), "--skip-vignetting",
                          "--skip-georef")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert err["error"]["stage"] == "input"

    @pytest.mark.parametrize("flat", ["blue", "green", "nir"])
    def test_flat_band_fails_coreg_on_that_band(self, synth_inputs, tmp_path, capsys,
                                                monkeypatch, flat):
        # Every target band is matched before the first is fitted, but a band
        # without matches still fails when its turn comes: the bands before
        # it are resampled, it and those after it are not.
        from pushproc import coreg
        from pushproc.raster import BAND_BY_NAME

        scene = load_raw(synth_inputs / "scene.l3raw")
        scene.planes[int(BAND_BY_NAME[flat])] = 100
        save_raw(scene, tmp_path / "flat.l3raw")
        resampled = []
        resample = coreg.resample

        def spy(plane, model, **kwargs):
            resampled.append(plane)
            return resample(plane, model, **kwargs)

        monkeypatch.setattr(coreg, "resample", spy)
        rc = self.run_cli("preprocess", "--raw", str(tmp_path / "flat.l3raw"),
                          "--out", str(tmp_path / "o"), "--skip-vignetting", "--skip-georef")
        assert rc == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (err["error"]["stage"], err["error"]["type"]) == ("coreg", "NoMatches")
        assert len(resampled) == ["blue", "green", "nir"].index(flat)

    def test_scene_too_small_for_the_grids_fails_at_input(self, tmp_path, capsys):
        # The fixed 128-pixel match tiles do not fit a 100-pixel scene: the
        # grids are built in the input phase, so the run fails before any
        # stage runs or the output directory is made.
        raw, _ = generate(SynthSpec(seed=22, width=100, lines=100))
        save_raw(raw, tmp_path / "small.l3raw")
        rc = self.run_cli("preprocess", "--raw", str(tmp_path / "small.l3raw"),
                          "--out", str(tmp_path / "o"), "--skip-vignetting", "--skip-georef")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (err["error"]["stage"], err["error"]["type"]) == ("input", "OutOfBounds")
        assert not (tmp_path / "o").exists()

    def test_stage_failure_exit_3_names_stage(self, synth_inputs, tmp_path, capsys):
        # georef without metadata: the error names the georef stage
        rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                          "--out", str(tmp_path / "o3"),
                          "--skip-vignetting", "--skip-coreg")
        assert rc == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert err["error"]["stage"] == "georef"

    def test_config_file_with_cli_override(self, synth_inputs, tmp_path):
        cfg_doc = {
            "raw_path": str(synth_inputs / "scene.l3raw"),
            "calib_path": str(synth_inputs / "calib.json"),
            "meta_path": str(synth_inputs / "metadata.json"),
            "out_dir": str(tmp_path / "from_file"),
            "coreg": False,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        rc = self.run_cli("preprocess", "--config", str(cfg_path),
                          "--out", str(tmp_path / "overridden"), "--skip-georef")
        assert rc == 0
        assert (tmp_path / "overridden" / "report.json").exists()
        assert not (tmp_path / "from_file").exists()

    @pytest.mark.parametrize("doc", [
        {"ref_band": 9}, {"ref_band": "red"}, {"tile_size": "x"},
        {"grid_step": 2.5}, {"min_score": None}, {"vignetting": "no"}, [],
        {"grid_step": 0}, {"tile_size": 16}, {"grid_nx": 0}, {"residual_points": 5},
        {"workers": 2}, {"min_score": float("nan")}, {"min_score": float("inf")},
        {"min_score": -0.5}, {"min_score": 1.5}, {"gate_radius": -1}, {"gate_radius": 0},
        {"gate_radius": float("inf")},
        # Fields PipelineConfig does not have, with in-range values: refused as unknown.
        {"ref_band": 2}, {"poly_order": 2}, {"min_score": 0.1}, {"gate_radius": 5.0},
        {"tile_size": 128}, {"grid_nx": 8}, {"grid_ny": 8}, {"residual_points": 50},
    ])
    def test_wrongly_typed_config_exit_2(self, synth_inputs, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = self.run_cli("preprocess", "--config", str(cfg_path),
                          "--raw", str(synth_inputs / "scene.l3raw"),
                          "--out", str(tmp_path / "o"), "--skip-coreg", "--skip-georef")
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert err["error"]["type"] == "ConfigInvalid"
        assert not (tmp_path / "o").exists()

    ONE_NODE = {"lines": [0], "columns": [0], "lat": [[0.0]], "lon": [[0.0]], "alt_m": [[0.0]]}

    @pytest.mark.parametrize("truth, error", [
        (None, "IoFailure"),
        ({"truth_grid": {}}, "TruthInvalid"),
        ({"truth_grid": {**ONE_NODE, "lat": [[0.0, 1.0]]}, "track_dir_en": [0, 1]},
         "TruthInvalid"),
        ({"truth_grid": ONE_NODE, "track_dir_en": [0, 0]}, "TruthInvalid"),
        ({"truth_grid": ONE_NODE, "track_dir_en": [0, 1]}, "ConfigInvalid"),
        ({"truth_grid": ONE_NODE, "track_dir_en": [float("inf"), 1]}, "TruthInvalid"),
        ({"truth_grid": {**ONE_NODE, "lat": [[float("nan")]]}, "track_dir_en": [0, 1]},
         "TruthInvalid"),
        ({"truth_grid": {**ONE_NODE, "lat": [[10**400]]}, "track_dir_en": [0, 1]},
         "TruthInvalid"),
        ({"truth_grid": ONE_NODE, "track_dir_en": [10**400, 1]}, "TruthInvalid"),
        ({"truth_grid": {**ONE_NODE, "lines": ["0"]}, "track_dir_en": [0, 1]}, "TruthInvalid"),
    ])
    def test_bad_truth_exit_2_before_any_stage(self, synth_inputs, tmp_path, capsys,
                                               truth, error):
        truth_path = tmp_path / "truth.json"
        if truth is not None:
            truth_path.write_text(json.dumps(truth))
        rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                          "--calib", str(synth_inputs / "calib.json"),
                          "--meta", str(synth_inputs / "metadata.json"),
                          "--truth", str(truth_path), "--out", str(tmp_path / "o"))
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (err["error"]["stage"], err["error"]["type"]) == ("input", error)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("response", [10**400, "2", True],
                             ids=["out-of-range", "string", "bool"])
    def test_bad_calibration_exit_2_before_any_stage(self, synth_inputs, tmp_path, capsys,
                                                     response):
        doc = json.loads((synth_inputs / "calib.json").read_text())
        doc["bands"]["green"]["R"][3] = response
        calib_path = tmp_path / "calib.json"
        calib_path.write_text(json.dumps(doc))
        rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                          "--calib", str(calib_path), "--out", str(tmp_path / "o"))
        assert rc == 2
        out, err = capsys.readouterr()
        found = json.loads(out.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("input", "HeaderInvalid")
        assert "Traceback" not in out + err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [
        (None, ["tle"]),
        ("tle", 5),
        ("tle", [1, 2]),
        ("tle", mangled_tle(1, 18, "AB")),
        ("tle", mangled_tle(2, 2, "ABCDE")),
        ("imager", []),
        ("band_row_offset", [1]),
        ("boresight_rpy_deg", [1.0]),
        ("line_period_s", "0.002"),
        ("focal_length_mm", True),
        ("columns", 64.5),
        ("attitude", [{"t": 0.0, "q": [1.0, 0.0, 0.0]}]),
        ("attitude", [{"t": 0.0, "q": "1000"}]),
        ("circular_orbit", {"altitude_km": -7000, "inclination_deg": 97.6}),
        ("circular_orbit", {"altitude_km": 0, "inclination_deg": 97.6}),
        ("circular_orbit", {"altitude_km": 1e300, "inclination_deg": 97.6}),
    ])
    def test_malformed_metadata_exit_2(self, synth_inputs, tmp_path, capsys, field, value):
        # ``field`` of the sidecar (of its imager, where it has one) set to
        # ``value``; None replaces the whole document.
        doc = json.loads((synth_inputs / "metadata.json").read_text())
        if field is None:
            doc = value
        else:
            (doc["imager"] if field in doc["imager"] else doc)[field] = value
        meta_path = tmp_path / "metadata.json"
        meta_path.write_text(json.dumps(doc))
        rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                          "--calib", str(synth_inputs / "calib.json"), "--meta", str(meta_path),
                          "--out", str(tmp_path / "o"))
        assert rc == 2
        out, err = capsys.readouterr()
        found = json.loads(out.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("input", "FieldParse")
        assert "Traceback" not in out + err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["focal_length_mm", "pixel_pitch_um"])
    def test_rays_that_are_not_finite_exit_3_at_georef(self, tmp_path, capsys, field):
        # A finite but huge imager number makes every line of sight too long
        # to normalize: no ray meets the Earth, no product holds a NaN, and
        # numpy warns of no overflow on the way.
        raw, truth = generate(SynthSpec(seed=3, width=64, lines=64))
        save_raw(raw, tmp_path / "scene.l3raw")
        save_metadata(truth.metadata, tmp_path / "metadata.json")
        doc = json.loads((tmp_path / "metadata.json").read_text())
        doc["imager"][field] = 1e300
        (tmp_path / "metadata.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = self.run_cli("preprocess", "--raw", str(tmp_path / "scene.l3raw"),
                              "--meta", str(tmp_path / "metadata.json"), "--out", str(out),
                              "--skip-vignetting", "--skip-coreg")
        assert [str(w.message) for w in caught] == []
        assert rc == 3
        found = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("georef", "NoIntersection")
        for product in out.iterdir():
            if product.suffix != ".l3raw":
                assert b"nan" not in product.read_bytes().lower()

    @pytest.mark.parametrize("missing", [False, True], ids=["non-utf8", "missing"])
    @pytest.mark.parametrize("flag, stage, error", [
        ("--config", "config", "ConfigInvalid"),
        ("--calib", "input", "HeaderInvalid"),
        ("--meta", "input", "FieldParse"),
        ("--truth", "input", "TruthInvalid"),
        ("--spec", "spec", "SpecInvalid"),
        ("--in", "report", "ReportInvalid"),
    ])
    def test_non_utf8_input_exit_2(self, synth_inputs, tmp_path, capsys, flag, stage, error,
                                   missing):
        # Each JSON reader reports bytes that are not UTF-8 as its own
        # error, and a file that cannot be read as IoFailure.
        path = tmp_path / "binary.json"
        if missing:
            error = "IoFailure"
        else:
            path.write_bytes(bytes.fromhex("fffe0067617262616765"))
        if flag == "--spec":
            argv = ["synth", flag, str(path), "--out", str(tmp_path / "s")]
        elif flag == "--in":
            argv = ["report", flag, str(path)]
        else:
            argv = ["preprocess", "--raw", str(synth_inputs / "scene.l3raw"), flag, str(path),
                    "--out", str(tmp_path / "o")]
        rc = self.run_cli(*argv)
        assert rc == 2
        out, err = capsys.readouterr()
        found = json.loads(out.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == (stage, error)
        assert "Traceback" not in out + err
        assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "inside-file"])
    @pytest.mark.parametrize("command", ["preprocess", "synth"])
    def test_out_not_a_directory_exit_2(self, synth_inputs, tmp_path, capsys, command, under):
        # --out names an existing regular file, or a path inside one.
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "run" if under else taken
        if command == "synth":
            argv = ["synth", "--spec", str(synth_inputs / "spec.json"), "--out", str(out)]
        else:
            argv = ["preprocess", "--raw", str(synth_inputs / "scene.l3raw"), "--out", str(out),
                    "--skip-vignetting", "--skip-georef"]
        rc = self.run_cli(*argv)
        assert rc == 2
        printed, err = capsys.readouterr()
        found = json.loads(printed.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("input", "IoFailure")
        assert "Traceback" not in printed + err
        assert taken.read_text() == "not a directory"

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bad_spec.json"
        spec_path.write_text(json.dumps({"texture": "marble"}))
        rc = self.run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "s"))
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        {"seed": "a"}, {"orbit": 3}, {"attitude_profile": []}, {"width": "x"}, [],
        {"width": 64, "lines": 64, "band_warp": {"nir": 3}},
        {"width": 64, "lines": 64, "band_warp": {"nir": {"coeff_dx": [1.0], "coeff_dy": "x"}}},
        {"width": 64, "lines": 64, "band_warp": {"nir": {"coeff_dx": [1.0], "coeff_dy": [True]}}},
        {"width": 64, "lines": 64, "band_warp": {"nir": {"coeff_dx": [1.0]}}},
        {"width": 64, "lines": 64, "injected_bias": ["a", 0, 0]},
        {"width": 64, "lines": 64, "injected_bias": [0, 0]},
        {"width": 64, "lines": 64, "boresight_rpy_deg": [0, 0, None]},
        {"width": 64, "lines": 64, "band_row_offset": {"uv": 1.0}},
        {"width": 64, "lines": 64, "band_row_offset": {"nir": "1"}},
        {"width": 64, "lines": 64, "attitude_profile": {"kind": "nutation", "amplitude_deg": "x"}},
        {"width": 64, "lines": 64, "attitude_profile": {"kind": "nutation", "period_s": 0}},
        {"width": 64, "lines": 64, "attitude_profile": {"kind": "constant-offset", "rpy_deg": [1]}},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": "x"}},
        {"width": 64, "lines": 64, "orbit": {"kind": "tle"}},
        {"width": 64, "lines": 64, "line_period_s": -1},
        {"width": 64, "lines": 64, "attitude_sample_period_s": 0},
        {"width": 64, "lines": 64, "focal_length_mm": 0},
        {"width": 64, "lines": 64, "grid_step": 0},
        {"width": 64, "lines": 64, "seed": -1},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": "510",
                                             "inclination_deg": 97.6}},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": -7000,
                                             "inclination_deg": 97.6}},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": 0,
                                             "inclination_deg": 97.6}},
        {"width": 64, "lines": 64, "line_period_s": 1e-300},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": 1e-9,
                                             "inclination_deg": 97.6,
                                             "epoch_unix": 1525487400.0}},
        {"width": 64, "lines": 64, "attitude_sample_period_s": 1e-300},
        {"width": 64, "lines": 64, "injected_bias": [0, 0, 1e300]},
        {"width": 64, "lines": 64, "band_warp": {"nir": {"order": 1.5, "coeff_dx": [0],
                                                         "coeff_dy": [0]}}},
        {"width": 64, "lines": 64, "orbit": {"kind": "circular", "altitude_km": 1e300,
                                             "inclination_deg": 97.6}},
        {"width": 64, "lines": 64, "texture_contrast": -1},
        {"width": 64, "lines": 64, "texture_base": -1e15},
        {"width": 64, "lines": 64, "texture_base": -69.5},
        {"width": 64, "lines": 64, "texture_base": 1e308, "texture_contrast": 1e308},
        # Rays that miss the Earth are the spec's fault, found before synthesis.
        {"seed": 1, "width": 64, "lines": 64, "boresight_rpy_deg": [80, 0, 0]},
        {"seed": 1, "width": 64, "lines": 64, "boresight_rpy_deg": [1e15, 0, 0]},
        {"seed": 1, "width": 64, "lines": 64, "boresight_rpy_deg": [0, 1e15, 0]},
        {"seed": 1, "width": 64, "lines": 64, "injected_bias": [1e15, 0, 0]},
        # Finite angles whose sum is not.
        {"seed": 1, "width": 64, "lines": 64, "boresight_rpy_deg": [1e308, 0, 0],
         "injected_bias": [1e308, 0, 0]},
        {"seed": 1, "width": 64, "lines": 64, "boresight_rpy_deg": [0, 1e308, 0],
         "injected_bias": [0, 1e308, 0]},
        # A middle grid line misses the Earth, which only ``generate`` finds.
        {"seed": 1, "width": 64, "lines": 64, "grid_step": 16,
         "attitude_profile": {"kind": "nutation", "amplitude_deg": 1e6}},
    ])
    def test_wrongly_typed_spec_exit_2(self, tmp_path, capsys, doc):
        spec_path = tmp_path / "bad_spec.json"
        spec_path.write_text(json.dumps(doc))
        rc = self.run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "s"))
        assert rc == 2
        printed, err = capsys.readouterr()
        found = json.loads(printed.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("spec", "SpecInvalid")
        assert "Traceback" not in printed + err
        assert not (tmp_path / "s").exists()

    def test_integer_attitude_period_past_int64_synthesizes(self, tmp_path):
        # The same period written as an integer and as a float gives the same scene.
        for name, period in (("int", 10**30), ("float", 1e30)):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(json.dumps({"width": 64, "lines": 64,
                                             "attitude_sample_period_s": period}))
            assert self.run_cli("synth", "--spec", str(spec_path),
                                "--out", str(tmp_path / name)) == 0
        assert (tmp_path / "int" / "metadata.json").read_bytes() \
            == (tmp_path / "float" / "metadata.json").read_bytes()

    @pytest.mark.parametrize("owner, name, target", [
        (os, "replace", "corrected.l3raw.partial"),
        (builtins, "open", "quicklook.ppm"),
        (builtins, "open", "report.json"),
    ], ids=["rename", "quicklook", "report"])
    def test_full_disk_after_the_stages_exit_3_at_output(self, synth_inputs, tmp_path, capsys,
                                                         monkeypatch, owner, name, target):
        no_space_on(monkeypatch, owner, name, target)
        out = tmp_path / "o"
        rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                          "--calib", str(synth_inputs / "calib.json"),
                          "--meta", str(synth_inputs / "metadata.json"),
                          "--out", str(out), "--skip-coreg", "--quicklook")
        assert rc == 3
        printed, err = capsys.readouterr()
        found = json.loads(printed.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("output", "IoFailure")
        assert os.strerror(errno.ENOSPC) in found["error"]["message"]
        assert "Traceback" not in printed + err
        assert not (out / "corrected.l3raw.partial").exists()

    def test_full_disk_writing_truth_exit_3_at_synth(self, tmp_path, capsys, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1, "width": 64, "lines": 64}))
        no_space_on(monkeypatch, builtins, "open", "truth.json")
        rc = self.run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "s"))
        assert rc == 3
        printed, err = capsys.readouterr()
        found = json.loads(printed.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == ("synth", "IoFailure")
        assert "truth.json" in found["error"]["message"]
        assert "Traceback" not in printed + err


    @pytest.mark.parametrize("command, target, phase", [
        ("preprocess", "grid.json", "georef"),
        ("preprocess", "grid.wld", "georef"),
        ("preprocess", "quicklook.ppm", "output"),
        ("preprocess", "report.json", "output"),
        ("preprocess", "corrected.l3raw.partial", "output"),
        ("synth", "scene.l3raw", "synth"),
        ("synth", "clean.l3raw", "synth"),
        ("synth", "calib.json", "synth"),
        ("synth", "metadata.json", "synth"),
        ("synth", "truth.json", "synth"),
    ])
    def test_every_written_file_fails_as_io_failure(self, synth_inputs, tmp_path, capsys,
                                                    monkeypatch, command, target, phase):
        # Each file is opened for writing through ``open``; the working file
        # becomes the product through ``os.replace``.
        if target.endswith(".partial"):
            no_space_on(monkeypatch, os, "replace", target)
        else:
            no_space_on(monkeypatch, builtins, "open", target)
        out = tmp_path / "o"
        if command == "synth":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({"seed": 1, "width": 64, "lines": 64}))
            rc = self.run_cli("synth", "--spec", str(spec_path), "--out", str(out))
        else:
            rc = self.run_cli("preprocess", "--raw", str(synth_inputs / "scene.l3raw"),
                              "--calib", str(synth_inputs / "calib.json"),
                              "--meta", str(synth_inputs / "metadata.json"),
                              "--out", str(out), "--skip-coreg", "--quicklook")
        assert rc == 3
        printed, err = capsys.readouterr()
        found = json.loads(printed.strip().splitlines()[0])
        assert (found["error"]["stage"], found["error"]["type"]) == (phase, "IoFailure")
        assert target in found["error"]["message"]
        assert "Traceback" not in printed + err

    def test_nested_stage_failure_names_the_inner_stage(self):
        with pytest.raises(errors.StageFailure) as err:
            with stage("outer"):
                with stage("inner"):
                    raise errors.NoMatches("no tile matched")
        assert err.value.stage == "inner"
        assert isinstance(err.value.cause, errors.NoMatches)


class TestSceneInItsOutputFile:
    """The run keeps its scene in ``corrected.l3raw.partial``, renamed on success."""

    def test_failed_stage_leaves_no_product(self, synth_inputs, tmp_path, capsys):
        # Flat bands stay flat through an identity calibration and leave
        # co-registration no tile to match.
        from pushproc.raster import CalibrationTable

        scene = load_raw(synth_inputs / "scene.l3raw")
        scene.planes[:] = 100
        save_raw(scene, tmp_path / "flat.l3raw")
        save_calibration(CalibrationTable(np.ones((4, scene.width)), np.zeros((4, scene.width))),
                         tmp_path / "identity.json")
        out = tmp_path / "o"
        rc = main(["preprocess", "--raw", str(tmp_path / "flat.l3raw"),
                   "--calib", str(tmp_path / "identity.json"), "--out", str(out),
                   "--skip-georef"])
        assert rc == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (err["error"]["stage"], err["error"]["type"]) == ("coreg", "NoMatches")
        assert out.is_dir() and not (out / "corrected.l3raw").exists()
        assert not (out / "corrected.l3raw.partial").exists()

    def test_reprocessing_a_product_in_place_equals_processing_a_copy(self, synth_inputs,
                                                                      tmp_path):
        first = tmp_path / "first"
        run_pipeline(base_config(synth_inputs, first))
        copy = tmp_path / "copy.l3raw"
        copy.write_bytes((first / "corrected.l3raw").read_bytes())
        cfg = base_config(synth_inputs, first, raw_path=str(first / "corrected.l3raw"))
        run_pipeline(cfg)
        run_pipeline(base_config(synth_inputs, tmp_path / "again", raw_path=str(copy)))
        for name in ("corrected.l3raw", "grid.json"):
            assert (first / name).read_bytes() == (tmp_path / "again" / name).read_bytes()
        assert (first / "corrected.l3raw").read_bytes() != copy.read_bytes()
        assert not (first / "corrected.l3raw.partial").exists()

    def test_raw_input_that_is_the_working_file_exit_2(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        partial = out / "corrected.l3raw.partial"
        partial.write_bytes((synth_inputs / "scene.l3raw").read_bytes())
        rc = main(["preprocess", "--raw", str(partial), "--out", str(out),
                   "--skip-vignetting", "--skip-georef"])
        assert rc == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert (err["error"]["stage"], err["error"]["type"]) == ("input", "ConfigInvalid")
        assert partial.read_bytes() == (synth_inputs / "scene.l3raw").read_bytes()

    def test_peak_memory_does_not_grow_with_scene_length(self, tmp_path):
        # A 1000-column 16-bit scene of 2000 lines, and the same scene four
        # times over, 8000 lines: each run in a fresh interpreter that
        # reports its own peak RSS.  It is started through a small launcher
        # process, because a process started straight from this one would
        # begin its peak at this process's size.  The 8000-line scene held
        # in memory (64 MB of planes) measured 44 MB above the short one.
        spec = SynthSpec(seed=29, width=1000, lines=2000, bit_depth=16, texture="urban-blocks",
                         texture_base=2000.0, texture_contrast=1500.0, vignette_falloff=30.0,
                         dark_level=40.0)
        short, truth = generate(spec)
        save_raw(short, tmp_path / "short.l3raw")
        long_planes = np.concatenate([short.planes] * 4, axis=1)
        save_raw(RawScene(long_planes, short.line_times[0] + np.arange(8000) * 0.002, 16),
                 tmp_path / "long.l3raw")
        del long_planes
        save_calibration(truth.calib, tmp_path / "calib.json")
        code = """
import resource, sys
from pushproc.pipeline import PipelineConfig, run_pipeline

run_pipeline(PipelineConfig(raw_path=sys.argv[1], calib_path=sys.argv[2], out_dir=sys.argv[3],
                            georef=False))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
        launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        runs = [subprocess.Popen([sys.executable, "-c", launcher, sys.executable, "-c", code,
                                  str(tmp_path / f"{name}.l3raw"), str(tmp_path / "calib.json"),
                                  str(tmp_path / name)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
                for name in ("short", "long")]
        peaks_kb = []
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            peaks_kb.append(int(out.split()[-1]))
        assert (tmp_path / "long" / "corrected.l3raw").stat().st_size > 60 * 2 ** 20
        assert peaks_kb[1] - peaks_kb[0] < 8 * 1024


class TestImportFootprint:
    def test_pipeline_never_imports_scipy(self, tmp_path):
        # A fresh interpreter whose import system refuses scipy: the CLI
        # loads no thread pool, the generator makes every texture, and a
        # whole run with a truth sidecar, through the CLI, loads no numpy.ma.
        code = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused here")


sys.meta_path.insert(0, RefuseScipy())
from pathlib import Path
import pushproc.cli
print("concurrent.futures" in sys.modules)
from pushproc.georef.metadata import save_metadata
from pushproc.raster import save_calibration, save_raw
from pushproc.synthscene import TEXTURES, SynthSpec, generate, save_truth

for texture in TEXTURES:
    scene, _ = generate(SynthSpec(seed=27, width=64, lines=64, texture=texture))
    assert texture == "flat" or scene.planes.std() > 0, texture
out = Path(sys.argv[1])
spec = SynthSpec(seed=26, width=256, lines=256, texture="urban-blocks", grid_step=64,
                 band_warp={"nir": {"order": 1, "coeff_dx": [1.0, 0.5, -0.5],
                                    "coeff_dy": [-0.5, 0.3, 0.2]}})
raw, truth = generate(spec)
save_raw(raw, out / "scene.l3raw")
save_calibration(truth.calib, out / "calib.json")
save_metadata(truth.metadata, out / "metadata.json")
save_truth(truth, out / "truth.json")
(out / "cfg.json").write_text('{"grid_step": 64}')
rc = pushproc.cli.main([
    "preprocess", "--config", str(out / "cfg.json"), "--raw", str(out / "scene.l3raw"),
    "--calib", str(out / "calib.json"), "--meta", str(out / "metadata.json"),
    "--truth", str(out / "truth.json"), "--out", str(out / "run"), "--quicklook"])
assert rc == 0
print("scipy" in sys.modules, "numpy.ma" in sys.modules)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split("\n")
        assert lines[0] == "False" and lines[-2] == "False False", proc.stdout
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert set(report["stages"]) == {"vignetting", "coreg", "georef"}
        assert "error_stats" in report["stages"]["georef"]
        assert (tmp_path / "run" / "quicklook.ppm").exists()
