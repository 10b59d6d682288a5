import copy
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pushproc import errors
from pushproc.raster import (
    BAND_COUNT,
    BAND_NAMES,
    CalibrationTable,
    RawScene,
    create_raw,
    json_array,
    load_calibration,
    load_raw,
    open_raw,
    save_calibration,
    save_raw,
)

from conftest import make_scene

# Integers beyond a float64, and one of more digits than Python converts.
OUT_OF_RANGE = {"__big__": "1" + "0" * 400, "__negative_big__": "-1" + "0" * 400,
                "__digits__": "1" + "0" * 5000}


def doc_paths(doc, prefix=()):
    """The path of every value inside ``doc``, as keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield prefix + (key,)
        yield from doc_paths(value, prefix + (key,))


@st.composite
def malformed_json(draw, base, integer_lists=()):
    """JSON text of ``base`` with one fault at one of its values, or in place of it.

    ``base`` holds only what its loader reads, so every fault makes it
    malformed: a value deleted (a missing key, a short or ragged list), a
    value of the wrong type, and at a number NaN, an infinity, an integer
    out of range or, in the lists named by ``integer_lists``, a fraction.
    """
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from([(), *doc_paths(doc)]))
    value = doc
    for key in path:
        holder, value = value, value[key]
    number = isinstance(value, (int, float))
    faults = ["delete"] if path else []
    faults += ["wrong type"] + (["non-finite", "out of range"] if number else [])
    if number and len(path) > 1 and path[-2] in integer_lists:
        faults.append("fraction")
    fault = draw(st.sampled_from(faults))
    if fault == "delete":
        del holder[path[-1]]
    else:
        if fault == "wrong type":
            wrong = ["x", "1.5", True, False, None, {}, {"a": 1}, [1.0]]
            new = draw(st.sampled_from(wrong if number else wrong + [3.0]))
        elif fault == "non-finite":
            new = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        elif fault == "out of range":
            new = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        else:
            new = value + 0.5
        if not path:
            doc = new
        else:
            holder[path[-1]] = new
    text = json.dumps(doc)
    for marker, digits in OUT_OF_RANGE.items():
        text = text.replace(json.dumps(marker), digits)
    return text


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


class TestScenePlanes:
    """A scene whose planes stay in its L3RAW file, read in windows and written in lines."""

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_windows_equal_the_loaded_planes(self, tmp_path, bit_depth):
        scene = make_scene(seed=5, width=23, lines=37, bit_depth=bit_depth)
        save_raw(scene, tmp_path / "s.l3raw")
        opened = open_raw(tmp_path / "s.l3raw")
        try:
            assert opened.planes.shape == scene.planes.shape
            assert (opened.width, opened.lines, opened.bit_depth) == (23, 37, bit_depth)
            np.testing.assert_array_equal(opened.line_times, scene.line_times)
            for band in range(BAND_COUNT):
                plane, expected = opened.planes[band], scene.planes[band]
                assert plane.shape == expected.shape
                for window in [(slice(5, 9), slice(3, 7)), (slice(None),),
                               (slice(30, None), slice(0, 23)), (slice(4, 4),)]:
                    got = plane[window]
                    assert got.dtype == np.dtype(f"<u{bit_depth // 8}")
                    np.testing.assert_array_equal(got, expected[window])
                np.testing.assert_array_equal(opened.planes[band, 2:6], expected[2:6])
            # The band axis is indexed as an ndarray's first axis.
            np.testing.assert_array_equal(opened.planes[-1][:], scene.planes[-1])
            assert len(list(opened.planes)) == BAND_COUNT
            for band in (BAND_COUNT, -BAND_COUNT - 1):
                with pytest.raises(IndexError):
                    opened.planes[band]
        finally:
            opened.planes.close()

    def test_lines_other_than_a_slice_are_refused(self, tmp_path):
        scene = make_scene(seed=6, width=23, lines=37, bit_depth=16)
        save_raw(scene, tmp_path / "s.l3raw")
        opened = open_raw(tmp_path / "s.l3raw")
        try:
            plane = opened.planes[2]
            mask = np.arange(37) % 5 == 1
            for key in [2, -1, np.int64(5), [0, 3], np.array([36, 1]), mask, (4, slice(5, 9)),
                        (mask, slice(2, 4))]:
                with pytest.raises(TypeError):
                    plane[key]
            with pytest.raises(TypeError):
                opened.planes[1, 3]
            # An empty key would read the four planes whole, as np.asarray does.
            with pytest.raises(TypeError):
                opened.planes[()]
            with pytest.raises(TypeError):
                list(plane)
            # A slice of lines with a column index still reads as on an array.
            np.testing.assert_array_equal(plane[3:9, np.array([1, 2])], scene.planes[2][3:9, [1, 2]])
            # More than two plane indices are refused, as on an array.
            with pytest.raises(IndexError):
                plane[0:2, 0:3, 5]
            with pytest.raises(IndexError):
                opened.planes[1, 0:2, 0:3, 5]
        finally:
            opened.planes.close()
        made = create_raw(tmp_path / "made.l3raw", scene)
        try:
            with pytest.raises(IndexError):
                made.planes[0][0:2, :, 5] = 7
            with pytest.raises(IndexError):
                made.planes[0, 0:2, :, 5] = 7
            # Any column key but ``:`` is refused, an array of columns too.
            with pytest.raises(IndexError):
                made.planes[0][0:2, np.array([1, 2])] = 7
            np.testing.assert_array_equal(made.planes[0][:], 0)
        finally:
            made.planes.close()

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_save_of_an_open_file_writes_its_bytes(self, tmp_path, bit_depth):
        save_raw(make_scene(seed=8, width=21, lines=33, bit_depth=bit_depth), tmp_path / "a.l3raw")
        opened = open_raw(tmp_path / "a.l3raw")
        try:
            save_raw(opened, tmp_path / "b.l3raw")
        finally:
            opened.planes.close()
        assert (tmp_path / "b.l3raw").read_bytes() == (tmp_path / "a.l3raw").read_bytes()

    def test_save_over_its_own_file_refused(self, tmp_path, small_scene):
        path = tmp_path / "s.l3raw"
        save_raw(small_scene, path)
        blob = path.read_bytes()
        opened = open_raw(path)
        try:
            with pytest.raises(errors.IoFailure):
                save_raw(opened, path)
        finally:
            opened.planes.close()
        assert path.read_bytes() == blob

    def test_short_reads_are_repeated(self, tmp_path, monkeypatch):
        scene = make_scene(seed=9, width=300, lines=40, bit_depth=16)
        save_raw(scene, tmp_path / "s.l3raw")
        preadv = os.preadv

        def short_preadv(fd, buffers, offset):
            return preadv(fd, [memoryview(buffers[0]).cast("B")[:1000]], offset)

        monkeypatch.setattr(os, "preadv", short_preadv)
        loaded = load_raw(tmp_path / "s.l3raw")
        np.testing.assert_array_equal(loaded.planes, scene.planes)
        np.testing.assert_array_equal(loaded.line_times, scene.line_times)
        opened = open_raw(tmp_path / "s.l3raw")
        try:
            np.testing.assert_array_equal(opened.planes[2][:], scene.planes[2])
        finally:
            opened.planes.close()

    def test_a_write_of_no_bytes_is_io_failure(self, tmp_path, small_scene, monkeypatch):
        made = create_raw(tmp_path / "made.l3raw", small_scene)
        calls = []

        class Unreachable(Exception):
            pass

        def no_bytes_written(fd, data, offset):
            # Three empty writes, then an error no retry loop turns into IoFailure.
            calls.append(offset)
            if len(calls) > 3:
                raise Unreachable("the write was retried after writing nothing")
            return 0

        monkeypatch.setattr(os, "pwrite", no_bytes_written)
        try:
            with pytest.raises(errors.IoFailure, match="made.l3raw"):
                made.planes[0, :2] = small_scene.planes[0, :2]
        finally:
            made.planes.close()
        assert len(calls) == 1

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_lines_written_give_the_bytes_of_save_raw(self, tmp_path, bit_depth):
        scene = make_scene(seed=6, width=19, lines=29, bit_depth=bit_depth)
        made = create_raw(tmp_path / "made.l3raw", scene)
        try:
            for band in range(BAND_COUNT):
                made.planes[band, :10] = scene.planes[band, :10]
                # Float lines are stored in the file's sample type.
                made.planes[band][10:] = scene.planes[band, 10:].astype(np.float64)
        finally:
            made.planes.close()
        save_raw(scene, tmp_path / "saved.l3raw")
        assert (tmp_path / "made.l3raw").read_bytes() == (tmp_path / "saved.l3raw").read_bytes()

    def test_refuses_to_become_an_array(self, tmp_path, small_scene):
        save_raw(small_scene, tmp_path / "s.l3raw")
        opened = open_raw(tmp_path / "s.l3raw")
        try:
            for planes in (opened.planes, opened.planes[0]):
                with pytest.raises(TypeError):
                    np.asarray(planes)
        finally:
            opened.planes.close()

    def test_open_reads_and_checks_only_the_head(self, tmp_path, small_scene):
        path = tmp_path / "s.l3raw"
        save_raw(small_scene, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(errors.Truncated):
            open_raw(path)
        with pytest.raises(errors.IoFailure):
            open_raw(tmp_path / "nope.l3raw")


class TestJsonArray:
    @pytest.mark.parametrize("value", ["1", True, None, [1.0], {}, float("nan"), float("inf"),
                                       float("-inf"), 10**400])
    def test_anything_but_a_finite_number_is_refused(self, value):
        with pytest.raises(errors.HeaderInvalid, match="^the value"):
            json_array(value, 0, errors.HeaderInvalid, "the value")

    def test_integer_dtype_refuses_a_fraction(self):
        with pytest.raises(errors.HeaderInvalid):
            json_array(2.0, 0, errors.HeaderInvalid, "count", int)
        assert json_array(2, 0, errors.HeaderInvalid, "count", int).tolist() == 2

    def test_numbers_and_lists_of_them(self):
        assert json_array(3, 0, errors.HeaderInvalid, "x").tolist() == 3.0
        # Tuples pass as lists, for values built in Python.
        assert json_array([(1, 2.5)], 2, errors.HeaderInvalid, "x").tolist() == [[1.0, 2.5]]
        with pytest.raises(errors.HeaderInvalid, match="non-finite"):
            json_array([[1.0, float("nan")]], 2, errors.HeaderInvalid, "x")


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

    DOC = {"bands": {name: {"R": [1.0, 1.25, 2], "D": [0.0, 5.5, 3]}
                     for name in BAND_NAMES.values()}}

    def test_fuzz_base_document_loads(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(self.DOC))
        assert load_calibration(path).response.shape == (BAND_COUNT, 3)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=malformed_json(DOC))
    def test_fuzz_malformed_document_is_a_named_error(self, tmp_path, text):
        path = tmp_path / "calib.json"
        path.write_text(text)
        with pytest.raises((errors.HeaderInvalid, errors.NonPositiveResponse)):
            load_calibration(path)
