"""pushproc: systematic preprocessing of multispectral pushbroom scenes.

Raw scenes go in; vignetting-corrected, band-aligned, georeferenced
products come out.  The :mod:`pushproc.synthscene` generator supplies
ground truth for every stage so the whole chain is testable end to end
without flight data.
"""

from .raster import (
    BandId,
    CalibrationTable,
    RawScene,
    load_calibration,
    load_raw,
    save_calibration,
    save_raw,
)

__version__ = "0.1.0"

__all__ = [
    "BandId",
    "CalibrationTable",
    "RawScene",
    "load_calibration",
    "load_raw",
    "save_calibration",
    "save_raw",
    "__version__",
]
