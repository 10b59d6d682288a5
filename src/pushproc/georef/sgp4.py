"""Near-Earth SGP4 analytic orbit propagation.

Implements the near-Earth branch of the standard SGP4 mean-element model
(Spacetrack Report No. 3 lineage, with the accumulated corrections of the
2006 revision) on WGS-72 gravity constants.  Deep-space orbits (period of
225 minutes or more) are rejected: the imaging platforms this toolkit
serves are all low-Earth.

Output states are TEME position/velocity in km and km/s, treated as ECI by
the rest of the georeferencing chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import Decay, DeepSpaceUnsupported, PushprocError
from .tle import TleElements

_TWOPI = 2.0 * math.pi

# WGS-72 gravity constants (the conventional set for element-set propagation)
MU = 398600.8  # km^3/s^2
EARTH_RADIUS_KM = 6378.135
XKE = 60.0 / math.sqrt(EARTH_RADIUS_KM ** 3 / MU)
J2 = 0.001082616
J3 = -0.00000253881
J4 = -0.00000165597
J3OJ2 = J3 / J2

DEEP_SPACE_PERIOD_MIN = 225.0


@dataclass
class StateVector:
    """Inertial state at the time ``state_at`` was given: r in km, v in km/s."""

    r_eci: np.ndarray
    v_eci: np.ndarray


def _unkozai(no_kozai: float, ecco: float, inclo: float) -> float:
    """Recover the Brouwer mean motion from the Kozai value printed in TLEs."""
    cosio2 = math.cos(inclo) ** 2
    eccsq = ecco * ecco
    omeosq = 1.0 - eccsq
    rteosq = math.sqrt(omeosq)
    ak = (XKE / no_kozai) ** (2.0 / 3.0)
    d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
    delta = d1 / (ak * ak)
    adel = ak * (1.0 - delta * delta - delta * (1.0 / 3.0 + 134.0 * delta * delta / 81.0))
    delta = d1 / (adel * adel)
    return no_kozai / (1.0 + delta)


class Sgp4NearEarth:
    """SGP4 propagator for a single near-Earth element set.

    Initialization evaluates every secular and periodic coefficient once;
    :meth:`propagate_minutes` is then a pure function of the offset from the
    element epoch.
    """

    def __init__(self, elements: TleElements):
        self.epoch_unix = elements.epoch_unix

        no_kozai = elements.no_kozai_radmin
        if no_kozai <= 0.0:
            raise PushprocError(f"mean motion {no_kozai} rad/min must be positive")
        ecco = elements.eccentricity
        inclo = math.radians(elements.inclination_deg)
        self.ecco = ecco
        self.inclo = inclo
        self.argpo = math.radians(elements.argp_deg)
        self.mo = math.radians(elements.mean_anomaly_deg)
        self.nodeo = math.radians(elements.raan_deg)
        self.bstar = elements.bstar

        self.no_unkozai = _unkozai(no_kozai, ecco, inclo)
        period_min = _TWOPI / self.no_unkozai
        if period_min >= DEEP_SPACE_PERIOD_MIN:
            raise DeepSpaceUnsupported(
                f"period {period_min:.1f} min >= {DEEP_SPACE_PERIOD_MIN} min"
            )

        eccsq = ecco * ecco
        omeosq = 1.0 - eccsq
        rteosq = math.sqrt(omeosq)
        cosio = math.cos(inclo)
        sinio = math.sin(inclo)
        cosio2 = cosio * cosio

        ao = (XKE / self.no_unkozai) ** (2.0 / 3.0)
        po = ao * omeosq
        con42 = 1.0 - 5.0 * cosio2
        self.con41 = -con42 - cosio2 - cosio2
        posq = po * po
        rp = ao * (1.0 - ecco)

        # Atmospheric fence parameters; below 156 km perigee the density
        # scale constants are altered, below 220 km the simplified drag
        # series is used.
        self.isimp = rp < (220.0 / EARTH_RADIUS_KM + 1.0)
        sfour = 78.0 / EARTH_RADIUS_KM + 1.0
        qzms24 = ((120.0 - 78.0) / EARTH_RADIUS_KM) ** 4
        perige = (rp - 1.0) * EARTH_RADIUS_KM
        if perige < 156.0:
            sfour = perige - 78.0
            if perige < 98.0:
                sfour = 20.0
            qzms24 = ((120.0 - sfour) / EARTH_RADIUS_KM) ** 4
            sfour = sfour / EARTH_RADIUS_KM + 1.0

        pinvsq = 1.0 / posq
        tsi = 1.0 / (ao - sfour)
        self.eta = ao * ecco * tsi
        etasq = self.eta * self.eta
        eeta = ecco * self.eta
        psisq = abs(1.0 - etasq)
        coef = qzms24 * tsi ** 4
        coef1 = coef / psisq ** 3.5
        cc2 = coef1 * self.no_unkozai * (
            ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.375 * J2 * tsi / psisq * self.con41 * (8.0 + 3.0 * etasq * (8.0 + etasq))
        )
        self.cc1 = self.bstar * cc2
        cc3 = 0.0
        if ecco > 1.0e-4:
            cc3 = -2.0 * coef * tsi * J3OJ2 * self.no_unkozai * sinio / ecco
        self.x1mth2 = 1.0 - cosio2
        self.cc4 = (
            2.0 * self.no_unkozai * coef1 * ao * omeosq
            * (
                self.eta * (2.0 + 0.5 * etasq)
                + ecco * (0.5 + 2.0 * etasq)
                - J2 * tsi / (ao * psisq)
                * (
                    -3.0 * self.con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                    + 0.75 * self.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
                    * math.cos(2.0 * self.argpo)
                )
            )
        )
        self.cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq)

        cosio4 = cosio2 * cosio2
        temp1 = 1.5 * J2 * pinvsq * self.no_unkozai
        temp2 = 0.5 * temp1 * J2 * pinvsq
        temp3 = -0.46875 * J4 * pinvsq * pinvsq * self.no_unkozai
        self.mdot = (
            self.no_unkozai
            + 0.5 * temp1 * rteosq * self.con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4)
        )
        self.argpdot = (
            -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4)
        )
        xhdot1 = -temp1 * cosio
        self.nodedot = xhdot1 + (
            0.5 * temp2 * (4.0 - 19.0 * cosio2) + 2.0 * temp3 * (3.0 - 7.0 * cosio2)
        ) * cosio
        self.omgcof = self.bstar * cc3 * math.cos(self.argpo)
        self.xmcof = 0.0
        if ecco > 1.0e-4:
            self.xmcof = -(2.0 / 3.0) * coef * self.bstar / eeta
        self.nodecf = 3.5 * omeosq * xhdot1 * self.cc1
        self.t2cof = 1.5 * self.cc1
        if abs(cosio + 1.0) > 1.5e-12:
            self.xlcof = -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        else:
            self.xlcof = -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        self.aycof = -0.5 * J3OJ2 * sinio
        delmotemp = 1.0 + self.eta * math.cos(self.mo)
        self.delmo = delmotemp ** 3
        self.sinmao = math.sin(self.mo)
        self.x7thm1 = 7.0 * cosio2 - 1.0

        if not self.isimp:
            cc1sq = self.cc1 * self.cc1
            self.d2 = 4.0 * ao * tsi * cc1sq
            temp = self.d2 * tsi * self.cc1 / 3.0
            self.d3 = (17.0 * ao + sfour) * temp
            self.d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * self.cc1
            self.t3cof = self.d2 + 2.0 * cc1sq
            self.t4cof = 0.25 * (3.0 * self.d3 + self.cc1 * (12.0 * self.d2 + 10.0 * cc1sq))
            self.t5cof = 0.2 * (
                3.0 * self.d4
                + 12.0 * self.cc1 * self.d3
                + 6.0 * self.d2 * self.d2
                + 15.0 * cc1sq * (2.0 * self.d2 + cc1sq)
            )
        else:
            self.d2 = self.d3 = self.d4 = 0.0
            self.t3cof = self.t4cof = self.t5cof = 0.0

    def propagate_minutes(self, tsince: float) -> tuple[np.ndarray, np.ndarray]:
        """Propagate to ``tsince`` minutes after epoch; returns (r km, v km/s)."""
        # Secular gravity and atmospheric drag.
        xmdf = self.mo + self.mdot * tsince
        argpdf = self.argpo + self.argpdot * tsince
        nodedf = self.nodeo + self.nodedot * tsince
        argpm = argpdf
        mm = xmdf
        t2 = tsince * tsince
        nodem = nodedf + self.nodecf * t2
        tempa = 1.0 - self.cc1 * tsince
        tempe = self.bstar * self.cc4 * tsince
        templ = self.t2cof * t2

        if not self.isimp:
            delomg = self.omgcof * tsince
            delmtemp = 1.0 + self.eta * math.cos(xmdf)
            delm = self.xmcof * (delmtemp ** 3 - self.delmo)
            temp = delomg + delm
            mm = xmdf + temp
            argpm = argpdf - temp
            t3 = t2 * tsince
            t4 = t3 * tsince
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4
            tempe = tempe + self.bstar * self.cc5 * (math.sin(mm) - self.sinmao)
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + tsince * self.t5cof)

        nm = self.no_unkozai
        am = (XKE / nm) ** (2.0 / 3.0) * tempa * tempa
        nm = XKE / am ** 1.5
        em = self.ecco - tempe
        if em >= 1.0 or em < -0.001:
            raise PushprocError(f"mean eccentricity {em} left [0, 1) at tsince={tsince}")
        if em < 1.0e-6:
            em = 1.0e-6
        mm = mm + self.no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = nodem % _TWOPI if nodem >= 0.0 else -(-nodem % _TWOPI)
        argpm = argpm % _TWOPI
        xlm = xlm % _TWOPI
        mm = (xlm - argpm - nodem) % _TWOPI

        sinim = math.sin(self.inclo)
        cosim = math.cos(self.inclo)

        # Long-period periodics.
        axnl = em * math.cos(argpm)
        temp = 1.0 / (am * (1.0 - em * em))
        aynl = em * math.sin(argpm) + temp * self.aycof
        xl = mm + argpm + nodem + temp * self.xlcof * axnl

        # Kepler's equation for (E + argp).
        u = (xl - nodem) % _TWOPI
        eo1 = u
        tem5 = 9999.9
        ktr = 1
        sineo1 = coseo1 = 0.0
        while abs(tem5) >= 1.0e-12 and ktr <= 10:
            sineo1 = math.sin(eo1)
            coseo1 = math.cos(eo1)
            tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl
            tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5
            if abs(tem5) >= 0.95:
                tem5 = 0.95 if tem5 > 0.0 else -0.95
            eo1 += tem5
            ktr += 1

        # Short-period preliminary quantities.
        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)
        if pl < 0.0:
            raise PushprocError(f"semilatus rectum {pl} < 0 at tsince={tsince}")

        rl = am * (1.0 - ecose)
        rdotl = math.sqrt(am) * esine / rl
        rvdotl = math.sqrt(pl) / rl
        betal = math.sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = math.atan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * J2 * temp
        temp2 = temp1 * temp

        mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u
        su = su - 0.25 * temp2 * self.x7thm1 * sin2u
        xnode = nodem + 1.5 * temp2 * cosim * sin2u
        xinc = self.inclo + 1.5 * temp2 * cosim * sinim * cos2u
        mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE
        rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / XKE

        # Orientation vectors and the state itself.
        sinsu = math.sin(su)
        cossu = math.cos(su)
        snod = math.sin(xnode)
        cnod = math.cos(xnode)
        sini = math.sin(xinc)
        cosi = math.cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        if mrt < 1.0:
            raise Decay(
                f"radius {mrt * EARTH_RADIUS_KM:.1f} km below the Earth surface "
                f"at tsince={tsince} min"
            )

        vkmpersec = EARTH_RADIUS_KM * XKE / 60.0
        mr = mrt * EARTH_RADIUS_KM
        r = np.array([mr * ux, mr * uy, mr * uz])
        v = np.array(
            [
                (mvt * ux + rvdot * vx) * vkmpersec,
                (mvt * uy + rvdot * vy) * vkmpersec,
                (mvt * uz + rvdot * vz) * vkmpersec,
            ]
        )
        return r, v

    def state_at(self, t_unix: float) -> StateVector:
        """Propagate to an absolute UTC time (unix seconds)."""
        tsince = (t_unix - self.epoch_unix) / 60.0
        r, v = self.propagate_minutes(tsince)
        return StateVector(r_eci=r, v_eci=v)
