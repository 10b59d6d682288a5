"""Exception hierarchy for the pushproc toolkit.

Every operational failure raises a subclass of :class:`PushprocError` so the
CLI can map failures onto machine-readable error reports.  Names mirror the
failure they describe; messages carry the offending values.
"""


class PushprocError(Exception):
    """Base class for all pushproc failures."""


# ---------------------------------------------------------------- raster i/o

class BadMagic(PushprocError):
    """File does not start with the L3RAW magic bytes."""


class Truncated(PushprocError):
    """File payload is shorter than the header promises."""


class HeaderInvalid(PushprocError):
    """Header field (or scene invariant) out of range."""


class IoFailure(PushprocError):
    """Underlying OS-level read/write failure."""


class OutOfBounds(PushprocError):
    """Requested window, line, or column lies outside the plane."""


# ---------------------------------------------------------------- radiometry

class WidthMismatch(PushprocError):
    """Calibration column count differs from scene width."""


class NonPositiveResponse(PushprocError):
    """Relative response table contains a value <= 0."""


class ZeroCenterMean(PushprocError):
    """Center window mean is zero; falloff ratio undefined."""


class ZeroMean(PushprocError):
    """Region mean is zero; relative std undefined."""


class DegenerateFit(PushprocError):
    """Least-squares system is singular or under-determined."""


# ------------------------------------------------------------ co-registration

class FlatTile(PushprocError):
    """Tile has zero variance; correlation undefined."""


class NoMatches(PushprocError):
    """Every candidate tile was rejected."""


class MissingAttitude(PushprocError):
    """Metadata carries no attitude samples."""


class AllRejected(PushprocError):
    """Outlier removal left no surviving matches."""


class TooFewMatches(PushprocError):
    """Not enough matches for the requested polynomial order."""


class SingularFit(PushprocError):
    """Distortion fit normal equations are rank deficient."""


# ------------------------------------------------------------------- georef

class BadLength(PushprocError):
    """TLE line is not 69 characters."""


class BadChecksum(PushprocError):
    """TLE line fails the mod-10 checksum."""


class FieldParse(PushprocError):
    """TLE field could not be decoded."""


class DeepSpaceUnsupported(PushprocError):
    """Orbital period >= 225 min; only the near-Earth model is implemented."""


class Decay(PushprocError):
    """Propagation left the near-Earth model."""


class OutOfRange(PushprocError):
    """Query time outside the sample span."""


class EmptySamples(PushprocError):
    """No attitude samples supplied."""


class ColumnOutOfRange(PushprocError):
    """Detector column index beyond the imager width."""


class NoIntersection(PushprocError):
    """Line of sight misses the ellipsoid."""


class EmptyTruth(PushprocError):
    """No truth points supplied for error statistics."""


class InsufficientScenes(PushprocError):
    """Bias estimation needs more per-scene statistics."""


# ---------------------------------------------------------------- synthscene

class SpecInvalid(PushprocError):
    """Synthetic scene spec violates its invariants."""


class DimensionMismatch(PushprocError):
    """Scene dimensions differ from the truth pack."""


class GridMismatch(PushprocError):
    """Grids are not sampled at the same nodes."""


class TruthInvalid(PushprocError):
    """Truth sidecar document is malformed."""


# ------------------------------------------------------------------ pipeline

class ConfigInvalid(PushprocError):
    """Pipeline configuration violates its invariants."""


class ReportInvalid(PushprocError):
    """Document is not a quality report with numeric timing."""


class StageFailure(PushprocError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {type(cause).__name__}: {cause}")
        self.stage = stage
        self.cause = cause
