"""Acquisition metadata sidecar: orbit, attitude samples, imager geometry.

Sidecar JSON layout::

    {
      "tle": [line1, line2]                  # or "circular_orbit": {...}
      "attitude": [{"t": unix_s, "q": [qs, qx, qy, qz]}, ...],
      "line_period_s": ...,
      "imager": {
        "focal_length_mm": ..., "pixel_pitch_um": ..., "columns": ...,
        "band_row_offset": {"blue": ..., "green": ..., "red": ..., "nir": ...},
        "boresight_rpy_deg": [roll, pitch, yaw],
        "time_offset_s": ...
      }
    }

Attitude quaternions are sign-aligned at load so interpolation always walks
the short arc.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import FieldParse
from ..raster import BAND_BY_NAME, BAND_NAMES, BandId, read_json, write_file
from .attitude import AttitudeSample, Quaternion, sign_align
from .camera import ImagerModel
from .orbits import orbit_from_spec


@dataclass
class AcqMetadata:
    orbit: object
    attitude: list
    line_period_s: float
    imager: ImagerModel


def metadata_from_dict(doc: dict) -> AcqMetadata:
    """The acquisition metadata of a sidecar document; ``FieldParse`` when it is malformed."""
    if not isinstance(doc, dict):
        raise FieldParse(f"metadata must be a JSON object, got {type(doc).__name__}")
    orbit = orbit_from_spec(doc)
    try:
        samples = [
            AttitudeSample(float(item["t"]), Quaternion(*map(float, item["q"])).normalized())
            for item in doc.get("attitude", [])
        ]
        samples.sort(key=lambda s: s.t)
        samples = sign_align(samples)
        img = doc["imager"]
        row_offsets = {
            BAND_BY_NAME[name]: float(v) for name, v in img.get("band_row_offset", {}).items()
        }
        for band in BandId:
            row_offsets.setdefault(band, 0.0)
        boresight = tuple(float(v) for v in img.get("boresight_rpy_deg", (0, 0, 0)))
        if len(boresight) != 3:
            raise FieldParse(f"boresight_rpy_deg must hold 3 angles, got {len(boresight)}")
        imager = ImagerModel(
            focal_length_mm=float(img["focal_length_mm"]),
            pixel_pitch_um=float(img["pixel_pitch_um"]),
            columns=int(img["columns"]),
            band_row_offset=row_offsets,
            boresight_rpy_deg=boresight,
            time_offset_s=float(img.get("time_offset_s", 0.0)),
        )
        line_period = float(doc.get("line_period_s", 0.0))
    # AttributeError: an object field given as another JSON type;
    # OverflowError: a number beyond float range.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FieldParse(f"malformed metadata document: {exc}") from exc
    return AcqMetadata(orbit=orbit, attitude=samples, line_period_s=line_period, imager=imager)


def metadata_to_dict(meta: AcqMetadata) -> dict:
    doc = dict(meta.orbit.to_doc())
    doc["attitude"] = [
        {"t": s.t, "q": [s.q.s, s.q.x, s.q.y, s.q.z]} for s in meta.attitude
    ]
    doc["line_period_s"] = meta.line_period_s
    doc["imager"] = {
        "focal_length_mm": meta.imager.focal_length_mm,
        "pixel_pitch_um": meta.imager.pixel_pitch_um,
        "columns": meta.imager.columns,
        "band_row_offset": {
            BAND_NAMES[band]: offset for band, offset in meta.imager.band_row_offset.items()
        },
        "boresight_rpy_deg": list(meta.imager.boresight_rpy_deg),
        "time_offset_s": meta.imager.time_offset_s,
    }
    return doc


def load_metadata(path) -> AcqMetadata:
    return metadata_from_dict(read_json(path, FieldParse))


def save_metadata(meta: AcqMetadata, path) -> None:
    write_file(path, [json.dumps(metadata_to_dict(meta), sort_keys=True)])
