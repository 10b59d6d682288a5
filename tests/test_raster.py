import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushproc import errors
from pushproc.raster import (
    BAND_COUNT,
    CalibrationTable,
    RawScene,
    load_calibration,
    load_raw,
    save_calibration,
    save_raw,
)

from conftest import make_scene


class TestL3RawRoundtrip:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_roundtrip_identity(self, tmp_path, bit_depth):
        scene = make_scene(seed=bit_depth, width=17, lines=9, bit_depth=bit_depth)
        path = tmp_path / "scene.l3raw"
        save_raw(scene, path)
        loaded = load_raw(path)
        assert loaded.bit_depth == bit_depth
        np.testing.assert_array_equal(loaded.planes, scene.planes)
        np.testing.assert_array_equal(loaded.line_times, scene.line_times)

    def test_save_is_deterministic(self, tmp_path, small_scene):
        p1, p2 = tmp_path / "a.l3raw", tmp_path / "b.l3raw"
        save_raw(small_scene, p1)
        save_raw(small_scene, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_arithmetic(self, tmp_path):
        scene = RawScene(np.zeros((4, 1, 1), dtype=np.uint16), np.array([0.0]), 8)
        path = tmp_path / "tiny.l3raw"
        save_raw(scene, path)
        assert path.stat().st_size == 20 + 8 * 1 + 4 * 1 * 1 * 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.integers(1, 24), lines=st.integers(1, 24))
    def test_roundtrip_property(self, tmp_path_factory, seed, width, lines):
        scene = make_scene(seed=seed, width=width, lines=lines)
        path = tmp_path_factory.mktemp("rt") / "s.l3raw"
        save_raw(scene, path)
        loaded = load_raw(path)
        np.testing.assert_array_equal(loaded.planes, scene.planes)
        np.testing.assert_array_equal(loaded.line_times, scene.line_times)


    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_loaded_planes_are_owned_and_writable(self, tmp_path, bit_depth):
        path = tmp_path / "scene.l3raw"
        save_raw(make_scene(seed=3, width=31, lines=7, bit_depth=bit_depth), path)
        planes = load_raw(path).planes
        assert planes.flags.writeable and planes.flags.owndata
        assert planes.dtype == (np.uint8 if bit_depth == 8 else np.uint16)

    def test_8bit_load_holds_only_its_uint8_planes(self, tmp_path):
        n = 512
        path = tmp_path / "scene.l3raw"
        save_raw(make_scene(seed=5, width=n, lines=n, bit_depth=8), path)
        tracemalloc.start()
        try:
            loaded = load_raw(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.planes.dtype == np.uint8
        # One byte a sample; widening to uint16 would double the planes.
        assert peak <= BAND_COUNT * n * n + 64 * 1024

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_io_memory_one_band_beyond_the_planes(self, tmp_path, bit_depth):
        n = 512
        scene = RawScene(np.random.default_rng(4).integers(0, 256, (4, n, n)),
                         np.arange(n, dtype=float), bit_depth)
        path = tmp_path / "scene.l3raw"
        band_bytes = n * n * bit_depth // 8
        slack = 256 * 1024
        tracemalloc.start()
        try:
            save_raw(scene, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_raw(path)
            load_peak = tracemalloc.get_traced_memory()[1] - loaded.planes.nbytes
        finally:
            tracemalloc.stop()
        assert save_peak <= band_bytes + slack
        assert load_peak <= band_bytes + slack
        np.testing.assert_array_equal(loaded.planes, scene.planes)

class TestL3RawErrors:
    def test_bad_magic(self, tmp_path, small_scene):
        path = tmp_path / "bad.l3raw"
        save_raw(small_scene, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(errors.BadMagic):
            load_raw(path)

    def test_truncated_payload(self, tmp_path, small_scene):
        path = tmp_path / "short.l3raw"
        save_raw(small_scene, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-small_scene.width])  # drop part of the last line
        with pytest.raises(errors.Truncated):
            load_raw(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.l3raw"
        path.write_bytes(b"L3RW\x01")
        with pytest.raises(errors.Truncated):
            load_raw(path)

    def test_header_invalid_bit_depth(self, tmp_path, small_scene):
        path = tmp_path / "depth.l3raw"
        save_raw(small_scene, path)
        blob = bytearray(path.read_bytes())
        blob[14] = 12  # bit_depth byte
        path.write_bytes(bytes(blob))
        with pytest.raises(errors.HeaderInvalid):
            load_raw(path)

    def test_dn_range_violation_refused_before_write(self, tmp_path):
        planes = np.zeros((4, 2, 2), dtype=np.uint16)
        planes[0, 0, 0] = 300  # exceeds 8-bit range
        scene = RawScene(planes, np.array([0.0, 1.0]), 8)
        path = tmp_path / "refuse.l3raw"
        with pytest.raises(errors.HeaderInvalid):
            save_raw(scene, path)
        assert not path.exists()

    def test_wide_planes_never_narrowed_to_the_bit_depth(self):
        planes = np.zeros((4, 2, 2), dtype=np.uint16)
        planes[1, 1, 0] = 300
        scene = RawScene(planes, np.array([0.0, 1.0]), 8)
        assert scene.planes.dtype == np.uint16 and scene.planes[1, 1, 0] == 300
        with pytest.raises(errors.HeaderInvalid):
            scene.validate()

    @pytest.mark.parametrize("dtype, kept", [(np.uint8, np.uint8), (np.uint16, np.uint16),
                                             (np.int64, np.uint16), (np.float64, np.uint16)])
    def test_planes_kept_uint8_or_uint16(self, dtype, kept):
        scene = RawScene(np.ones((4, 2, 3), dtype=dtype), np.array([0.0, 1.0]), 8)
        assert scene.planes.dtype == kept

    def test_non_monotonic_times_refused(self, tmp_path):
        scene = make_scene(width=4, lines=3)
        scene.line_times[2] = scene.line_times[0]
        with pytest.raises(errors.HeaderInvalid):
            save_raw(scene, tmp_path / "times.l3raw")

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.IoFailure):
            load_raw(tmp_path / "nope.l3raw")


class TestCalibrationIo:
    def test_roundtrip(self, tmp_path, rng):
        table = CalibrationTable(
            response=1.0 + rng.uniform(0, 1, (4, 7)),
            dark=rng.uniform(0, 10, (4, 7)),
        )
        path = tmp_path / "calib.json"
        save_calibration(table, path)
        loaded = load_calibration(path)
        np.testing.assert_allclose(loaded.response, table.response)
        np.testing.assert_allclose(loaded.dark, table.dark)

    def test_nonpositive_response_rejected(self):
        table = CalibrationTable(response=np.zeros((4, 3)), dark=np.zeros((4, 3)))
        with pytest.raises(errors.NonPositiveResponse):
            table.validate()

    def test_width_mismatch(self):
        table = CalibrationTable(response=np.ones((4, 3)), dark=np.zeros((4, 3)))
        with pytest.raises(errors.WidthMismatch):
            table.validate(scene_width=5)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bands": {"blue": {}}}')
        with pytest.raises(errors.HeaderInvalid):
            load_calibration(path)
