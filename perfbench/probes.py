"""Per-layer probes installed from outside the program.

Each probe replaces a public function at the module attribute where its
caller looks it up, and records a span (name, start, end, parent, peak
traced bytes, self time) for every call.  Leaf probes sit on per-node
calls made tens of thousands of times per scene; they keep only call
counts and time, and add their time to the enclosing span's child time so
that span's self time stays exact.

Spans are kept in memory and handed over per round with :meth:`Tracer.take`.
Peak memory per span comes from ``tracemalloc``, which sees numpy buffers:
at each span boundary the running peak is folded into the enclosing span
and reset, so nested spans each get their own peak.

A lookup site that no longer exists is skipped: its probe then reports zero
calls instead of stopping the run.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc

import numpy as np


def _note_plane(tracer, args, kwargs):
    # A plane is told apart by the memory it views.  The tracer holds a
    # reference until the round ends, so no later plane can reuse the address.
    plane = kwargs["plane"] if "plane" in kwargs else args[0]
    if isinstance(plane, np.ndarray):
        key = (plane.__array_interface__["data"][0], plane.shape, plane.strides)
        tracer.planes.setdefault(key, plane)
        tracer.count("coreg.edges_mpix", plane.size / 1e6)


def _count_input(counter):
    def hook(tracer, args, kwargs):
        tracer.count(counter, len(kwargs.get("matches", args[0] if args else ())))
    return hook


def _count_result(counter, size):
    def hook(tracer, result):
        tracer.count(counter, size(result))
    return hook


# (span name, lookup sites "module:attribute[.attribute]", leaf, call hook, return hook)
PROBES = (
    ("raster.load_raw", ("pushproc.pipeline:load_raw", "pushproc.raster:load_raw"),
     False, None, None),
    ("raster.save_raw", ("pushproc.pipeline:save_raw", "pushproc.raster:save_raw"),
     False, None, None),
    ("radiometry.correct_vignetting", ("pushproc.radiometry:correct_vignetting",),
     False, None, None),
    ("radiometry.edge_center_ratio", ("pushproc.radiometry:edge_center_ratio",),
     False, None, None),
    ("radiometry.uniformity_std", ("pushproc.radiometry:uniformity_std",),
     False, None, None),
    ("coreg.canny_edges", ("pushproc.coreg:canny_edges",), False, _note_plane, None),
    ("coreg.collect_matches", ("pushproc.coreg:collect_matches",), False, None,
     _count_result("coreg.matches_kept", len)),
    ("coreg.fft_xcorr", ("pushproc.coreg:fft_xcorr",), True, None, None),
    ("coreg.predict_shift_prior", ("pushproc.coreg:predict_shift_prior",), False, None, None),
    ("coreg.remove_outliers", ("pushproc.coreg:remove_outliers",), False,
     _count_input("coreg.reject_in"), _count_result("coreg.reject_out", len)),
    ("coreg.fit_distortion", ("pushproc.coreg:fit_distortion",), False, None, None),
    ("coreg.resample", ("pushproc.coreg:resample",), False, None, None),
    ("coreg.evaluate", ("pushproc.coreg:DistortionModel.evaluate",), False, None, None),
    ("coreg.coreg_residual", ("pushproc.coreg:coreg_residual",), False, None, None),
    ("georef.build_geogrid",
     ("pushproc.pipeline:build_geogrid", "pushproc.georef.geolocate:build_geogrid"),
     False, None, _count_result("georef.nodes", lambda grid: int(grid.lat.size))),
    ("georef.state_at", ("pushproc.georef.orbits:TleOrbit.state_at",
                         "pushproc.georef.orbits:CircularOrbit.state_at"), True, None, None),
    ("georef.slerp_attitude", ("pushproc.georef.geolocate:slerp_attitude",), True, None, None),
    ("georef.pixel_los", ("pushproc.georef.geolocate:pixel_los",), True, None, None),
    ("georef.intersect_ellipsoid", ("pushproc.georef.geolocate:intersect_ellipsoid",),
     True, None, None),
    ("georef.ecef_to_geodetic", ("pushproc.georef.geolocate:ecef_to_geodetic",),
     True, None, None),
    ("georef.fit_world_file", ("pushproc.pipeline:fit_world_file",), False, None, None),
    ("georef.save_geogrid", ("pushproc.pipeline:save_geogrid",), False, None, None),
    ("georef.georef_error_stats", ("pushproc.georef.accuracy:georef_error_stats",),
     False, None, None),
    ("georef.load_metadata", ("pushproc.pipeline:load_metadata",), False, None, None),
)


class Tracer:
    """Span and counter recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, peak bytes, self s]
        self.leaves: dict = {}     # name -> [calls, total s, self s]
        self.counters: dict = {}
        self.planes: dict = {}     # planes canny_edges saw, by memory they view
        self.top_s = 0.0           # time inside probes called with no probe open
        self.missing: list = []
        self._stack: list = []     # open frames: [child s, span index, peak bytes]

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self, probes=PROBES) -> None:
        wrapped: dict = {}
        for name, sites, leaf, on_call, on_return in probes:
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(site)
                    continue
                key = (name, id(original))
                if key not in wrapped:
                    wrapped[key] = (self._leaf(name, original) if leaf
                                    else self._span(name, original, on_call, on_return))
                setattr(owner, attr, wrapped[key])

    def take(self) -> dict:
        """Hand over everything recorded since the last call, and reset."""
        out = {
            "spans": self.spans,
            "leaves": {k: list(v) for k, v in self.leaves.items()},
            "counters": dict(self.counters),
            "distinct_planes": len(self.planes),
            "top_s": self.top_s,
        }
        self.spans = []
        for stats in self.leaves.values():
            stats[:] = [0, 0.0, 0.0]
        self.counters = {}
        self.planes = {}
        self.top_s = 0.0
        return out

    def _close(self, dur: float, peak: int) -> None:
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[0] += dur
            if peak > parent[2]:
                parent[2] = peak
        else:
            self.top_s += dur

    def _leaf(self, name, fn):
        tracer = self
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def probe(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, stack[-1][1] if stack else -1, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                tracer._close(dur, frame[2])

        probe.__wrapped__ = fn
        return probe

    def _span(self, name, fn, on_call, on_return):
        tracer = self
        clock = time.perf_counter

        def probe(*args, **kwargs):
            stack = tracer._stack
            if on_call is not None:
                on_call(tracer, args, kwargs)
            base, peak = tracemalloc.get_traced_memory()
            if stack and peak > stack[-1][2]:
                stack[-1][2] = peak
            tracemalloc.reset_peak()
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [0.0, index, base]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                stack.pop()
                tracer.spans[index] = [name, start, end, parent, peak - base,
                                       end - start - frame[0]]
                tracer._close(end - start, peak)
                tracemalloc.reset_peak()
            if on_return is not None:
                on_return(tracer, result)
            return result

        probe.__wrapped__ = fn
        return probe
