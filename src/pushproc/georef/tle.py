"""Two-line element set parsing and formatting.

Implements the classic fixed-column TLE layout with mod-10 checksums.
``format_tle`` is the inverse of ``parse_tle`` for the fields the orbit
model consumes; it exists so synthetic acquisitions can carry well-formed
element sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from ..errors import BadChecksum, BadLength, FieldParse

_LINE_LEN = 69


def tle_checksum(line: str) -> int:
    """Mod-10 checksum over a line body: digits count as value, '-' as 1."""
    total = 0
    for ch in line[:68]:
        if ch.isdecimal():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


@dataclass
class TleElements:
    satnum: int
    epoch_year: int
    epoch_day: float
    ndot: float
    nddot: float
    bstar: float
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    argp_deg: float
    mean_anomaly_deg: float
    mean_motion_revday: float

    @property
    def epoch_datetime(self) -> datetime:
        return datetime(self.epoch_year, 1, 1, tzinfo=timezone.utc) + timedelta(
            days=self.epoch_day - 1.0
        )

    @property
    def epoch_unix(self) -> float:
        return self.epoch_datetime.timestamp()

    @property
    def no_kozai_radmin(self) -> float:
        """Mean motion in radians per minute (Kozai convention, as printed)."""
        return self.mean_motion_revday * 2.0 * math.pi / 1440.0


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise FieldParse(f"cannot parse {what} from {text!r}") from exc


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise FieldParse(f"cannot parse {what} from {text!r}") from exc


def _parse_implied_decimal(text: str, what: str) -> float:
    """Decode the assumed-decimal-point exponent notation, e.g. ' 12345-3'."""
    text = text.strip()
    if not text:
        return 0.0
    sign = 1.0
    if text[0] in "+-":
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    mantissa, exp = text[:-2], text[-2:]
    try:
        value = sign * float(f"0.{mantissa}") * 10.0 ** int(exp)
    except ValueError as exc:
        raise FieldParse(f"cannot parse {what} from {text!r}") from exc
    return value


def parse_tle(line1: str, line2: str) -> TleElements:
    """Decode a TLE pair, verifying lengths and both checksums."""
    for idx, line in ((1, line1), (2, line2)):
        if len(line) != _LINE_LEN:
            raise BadLength(f"line {idx} has {len(line)} characters, expected {_LINE_LEN}")
        if not line[68].isdecimal():
            raise BadChecksum(f"line {idx} checksum column is {line[68]!r}")
        want = int(line[68])
        got = tle_checksum(line)
        if want != got:
            raise BadChecksum(f"line {idx} checksum {want} != computed {got}")
    if line1[0] != "1" or line2[0] != "2":
        raise FieldParse("line numbers must be '1' and '2'")

    satnum = _parse_int(line1[2:7], "satellite number")
    if _parse_int(line2[2:7], "line 2 satellite number") != satnum:
        raise FieldParse("satellite numbers differ between lines")

    yy = _parse_int(line1[18:20], "epoch year")
    epoch_year = 1900 + yy if yy >= 57 else 2000 + yy
    epoch_day = _parse_float(line1[20:32], "epoch day")
    ndot = _parse_float(line1[33:43], "ndot")
    nddot = _parse_implied_decimal(line1[44:52], "nddot")
    bstar = _parse_implied_decimal(line1[53:61], "bstar")

    inclination = _parse_float(line2[8:16], "inclination")
    raan = _parse_float(line2[17:25], "raan")
    eccentricity = _parse_float(f"0.{line2[26:33].strip()}", "eccentricity")
    argp = _parse_float(line2[34:42], "argument of perigee")
    mean_anomaly = _parse_float(line2[43:51], "mean anomaly")
    mean_motion = _parse_float(line2[52:63], "mean motion")

    # Day 1.0 is 1 January 00:00; a leap year ends before day 367.
    if not 1.0 <= epoch_day < 367.0:
        raise FieldParse(f"epoch day {epoch_day} outside [1, 367)")
    if not 0.0 <= eccentricity < 1.0:
        raise FieldParse(f"eccentricity {eccentricity} outside [0, 1)")
    if mean_motion <= 0.0:
        raise FieldParse(f"mean motion {mean_motion} must be positive")

    return TleElements(
        satnum=satnum,
        epoch_year=epoch_year,
        epoch_day=epoch_day,
        ndot=ndot,
        nddot=nddot,
        bstar=bstar,
        inclination_deg=inclination,
        raan_deg=raan,
        eccentricity=eccentricity,
        argp_deg=argp,
        mean_anomaly_deg=mean_anomaly,
        mean_motion_revday=mean_motion,
    )


def _format_implied_decimal(value: float) -> str:
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0.0 else " "
    mag = abs(value)
    exp = int(math.floor(math.log10(mag))) + 1
    digits = int(round(mag / 10.0 ** exp * 1e5))
    if digits >= 100000:
        digits //= 10
        exp += 1
    return f"{sign}{digits:05d}{exp:+d}"


def _format_ndot(value: float) -> str:
    sign = "-" if value < 0.0 else " "
    body = f"{abs(value):.8f}"[1:]  # drop the leading 0
    return f"{sign}{body}"


def format_tle(elements: TleElements, intl_designator: str = "00001A") -> tuple[str, str]:
    """Render elements as a checksummed TLE pair."""
    yy = elements.epoch_year % 100
    line1 = (
        f"1 {elements.satnum:05d}U {intl_designator:<8s} "
        f"{yy:02d}{elements.epoch_day:012.8f} "
        f"{_format_ndot(elements.ndot)} "
        f"{_format_implied_decimal(elements.nddot)} "
        f"{_format_implied_decimal(elements.bstar)} 0  999"
    )
    ecc_digits = f"{elements.eccentricity:.7f}"[2:]
    line2 = (
        f"2 {elements.satnum:05d} {elements.inclination_deg:8.4f} "
        f"{elements.raan_deg:8.4f} {ecc_digits} {elements.argp_deg:8.4f} "
        f"{elements.mean_anomaly_deg:8.4f} {elements.mean_motion_revday:11.8f}  100"
    )
    if len(line1) != 68 or len(line2) != 68:
        raise FieldParse(
            f"formatted line lengths {len(line1)}/{len(line2)} != 68 before checksum"
        )
    return line1 + str(tle_checksum(line1)), line2 + str(tle_checksum(line2))
