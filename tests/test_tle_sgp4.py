import math

import numpy as np
import pytest

from pushproc import errors
from pushproc.georef.sgp4 import MU, Sgp4NearEarth
from pushproc.georef.tle import TleElements, format_tle, parse_tle, tle_checksum


def leo_elements(**overrides):
    base = dict(
        satnum=40931,
        epoch_year=2018,
        epoch_day=125.10417824,
        ndot=0.0,
        nddot=0.0,
        bstar=0.0001,
        inclination_deg=97.6,
        raan_deg=201.5,
        eccentricity=0.0012345,
        argp_deg=84.2,
        mean_anomaly_deg=275.9,
        mean_motion_revday=15.19802917,
    )
    base.update(overrides)
    return TleElements(**base)


def mangled_tle(line: int, column: int, text: str) -> list[str]:
    """The ``leo_elements`` pair with ``text`` written into line ``line`` from
    ``column``, its checksum fixed up so that only the field is wrong."""
    pair = list(format_tle(leo_elements()))
    body = pair[line - 1][:column] + text + pair[line - 1][column + len(text) : 68]
    pair[line - 1] = body + str(tle_checksum(body))
    return pair


class TestTleParsing:
    def test_format_parse_roundtrip(self):
        elements = leo_elements()
        line1, line2 = format_tle(elements)
        assert (line1, line2) == (
            "1 40931U 00001A   18125.10417824  .00000000  00000+0  10000-3 0  9995",
            "2 40931  97.6000 201.5000 0012345  84.2000 275.9000 15.19802917  1005",
        )
        parsed = parse_tle(line1, line2)
        assert parsed.satnum == elements.satnum
        assert parsed.eccentricity == pytest.approx(elements.eccentricity, abs=5e-8)
        assert parsed.inclination_deg == pytest.approx(elements.inclination_deg, abs=5e-5)
        assert parsed.mean_motion_revday == pytest.approx(
            elements.mean_motion_revday, abs=5e-9
        )
        assert parsed.bstar == pytest.approx(elements.bstar, rel=1e-4)
        assert parsed.epoch_day == pytest.approx(elements.epoch_day, abs=5e-9)

    def test_checksum_rule(self):
        # digits sum + 1 per '-', mod 10
        assert tle_checksum("1" + " " * 67) == 1
        assert tle_checksum("-" * 68) == 8  # 68 mod 10

    def test_flipped_checksum_digit(self):
        line1, line2 = format_tle(leo_elements())
        bad = line1[:-1] + str((int(line1[-1]) + 1) % 10)
        with pytest.raises(errors.BadChecksum):
            parse_tle(bad, line2)

    def test_wrong_length(self):
        line1, line2 = format_tle(leo_elements())
        with pytest.raises(errors.BadLength):
            parse_tle(line1[:-1], line2)

    @pytest.mark.parametrize("line, column, text", [
        (1, 20, "xx"),              # epoch day
        (1, 18, "AB"),              # epoch year
        (2, 2, "ABCDE"),            # line 2 satellite number
        (1, 20, "999999999999"),    # epoch day beyond any date
        (1, 60, "\u00b2"),          # a digit to str.isdigit, not to int
    ])
    def test_garbage_field(self, line, column, text):
        with pytest.raises(errors.FieldParse):
            parse_tle(*mangled_tle(line, column, text))

    def test_epoch_century_split(self):
        assert leo_elements(epoch_year=2018).epoch_datetime.year == 2018
        line1, line2 = format_tle(leo_elements(epoch_year=1998))
        assert parse_tle(line1, line2).epoch_year == 1998


# Reference states computed with an independent trusted SGP4 implementation
# (Vallado sgp4unit lineage, WGS-72 constants, improved mode) for the TLE
# produced by leo_elements().  Positions km, velocities km/s, TEME.
SGP4_REFERENCE = [
    (0.0,
     [-6406.629874548006, -2526.446401304416, -19.565446852430433],
     [-0.37261118089568923, 0.934240428321314, 7.543353109375988]),
    (60.0,
     [4534.807148478976, 1059.604854596426, -5089.149140072843],
     [-5.00466013992012, -2.6968443854504596, -5.031243393590929]),
    (120.0,
     [311.7919805707333, 1095.979511884869, 6773.680838516888],
     [7.086744694219096, 2.6947487031060864, -0.7587030711515527]),
    (360.0,
     [-1545.3471927370015, -1556.9931215139015, -6541.638907369871],
     [-6.847304401797269, -2.4166134827987795, 2.1971879908759626]),
    (720.0,
     [5479.418460074656, 1660.5670312936707, -3844.4563426048394],
     [-3.64148597258828, -2.3677035690568684, -6.231764283704513]),
    (1440.0,
     [-2715.562515593157, -213.70205988007547, 6306.674399255678],
     [6.377550499595119, 3.0526330013025187, 2.841223281043691]),
]


class TestSgp4:
    def test_reference_vectors(self):
        line1, line2 = format_tle(leo_elements())
        prop = Sgp4NearEarth(parse_tle(line1, line2))
        for tsince, r_ref, v_ref in SGP4_REFERENCE:
            r, v = prop.propagate_minutes(tsince)
            np.testing.assert_allclose(r, r_ref, atol=1e-3)
            np.testing.assert_allclose(v, v_ref, atol=1e-6)

    def test_deep_space_rejected(self):
        geo = leo_elements(mean_motion_revday=1.0027, eccentricity=0.0003,
                           inclination_deg=0.05)
        with pytest.raises(errors.DeepSpaceUnsupported):
            Sgp4NearEarth(geo)

    def test_boundary_period_rejected(self):
        # 228.6 min stays over the 225 min line even after mean-motion recovery
        boundary = leo_elements(mean_motion_revday=6.3, bstar=0.0)
        with pytest.raises(errors.DeepSpaceUnsupported):
            Sgp4NearEarth(boundary)

    def test_radius_matches_kepler_semimajor_axis(self):
        # for e ~ 0 the radius at epoch stays within the J2 short-period
        # envelope of the two-body semi-major axis a = (mu / n^2)^(1/3)
        elements = leo_elements(eccentricity=0.00001, bstar=0.0)
        prop = Sgp4NearEarth(elements)
        r, _ = prop.propagate_minutes(0.0)
        n_rad_s = elements.mean_motion_revday * 2.0 * math.pi / 86400.0
        a_kepler = (MU / n_rad_s ** 2) ** (1.0 / 3.0)
        assert abs(np.linalg.norm(r) - a_kepler) < 15.0

    def test_decay_raises(self):
        # huge drag term forces the radius below the surface eventually
        doomed = leo_elements(mean_motion_revday=16.4, bstar=0.1)
        prop = Sgp4NearEarth(doomed)
        with pytest.raises(errors.Decay):
            for day in range(1, 200):
                prop.propagate_minutes(1440.0 * day)

    @pytest.mark.parametrize("eccentricity, tsince, message", [
        (0.0001, 11520.0, "mean eccentricity"),
        (0.1, 300.0, "semilatus rectum"),
    ])
    def test_propagation_out_of_the_model_is_decay(self, eccentricity, tsince, message):
        prop = Sgp4NearEarth(leo_elements(eccentricity=eccentricity, bstar=-5,
                                          mean_motion_revday=14))
        with pytest.raises(errors.Decay, match=message):
            prop.propagate_minutes(tsince)

    @pytest.mark.parametrize("mean_motion", [0.0, -1.0])
    def test_mean_motion_not_positive_is_field_parse(self, mean_motion):
        with pytest.raises(errors.FieldParse, match="mean motion"):
            Sgp4NearEarth(leo_elements(mean_motion_revday=mean_motion))

    def test_state_at_absolute_time(self):
        elements = leo_elements()
        prop = Sgp4NearEarth(elements)
        state = prop.state_at(elements.epoch_unix + 360.0 * 60.0)
        r_ref, _ = prop.propagate_minutes(360.0)
        np.testing.assert_allclose(state.r_eci, r_ref, rtol=0, atol=1e-12)

    def test_leo_radius_band(self):
        prop = Sgp4NearEarth(leo_elements())
        for tsince in np.linspace(0, 1440, 17):
            r, _ = prop.propagate_minutes(float(tsince))
            assert 6500.0 < np.linalg.norm(r) < 8000.0
