"""Workload definitions: every input is a function of the workload name and seed.

A workload is a list of scenes.  Each scene is a ``SynthSpec`` document for
``pushproc.synthscene.generate`` plus the ``PipelineConfig`` fields that
differ from the defaults.  One round of a workload runs every scene through
``run_pipeline`` once; ``batch512-bias`` then feeds the round's error means
to ``accuracy.estimate_bias``.

Why these three (see README.md for the full map):

* ``scene2000`` is the 2000x2000 acceptance fixture (seed 100 reproduces it
  exactly).  Co-registration is almost all of its time and memory; georef,
  accuracy pass included, is a fraction of a percent, so a georef change
  must not move it.
* ``swath-georef`` is a wide 16-bit strip with a dense geolocation grid, a
  TLE/SGP4 orbit and a nutating attitude.  Per-node geolocation and the
  accuracy pass dominate; its planes are small, so coreg barely matters.
* ``batch512-bias`` is eight small 16-bit scenes with two warped bands and
  an injected boresight/clock bias.  Per-tile and per-call coreg costs
  weigh more than on ``scene2000``, memory stays low, and the batch closes
  with bias estimation.
"""

from __future__ import annotations

import random

WORKLOADS = ("scene2000", "swath-georef", "batch512-bias")

# NIR warp of the acceptance fixture: order 2, about 8 px peak.
WARP_2000 = {
    "order": 2,
    "coeff_dx": [1.4, -4.2, 2.1, 1.4, -1.4, 0.7],
    "coeff_dy": [-1.0, 2.1, -3.9, 0.7, 1.4, -1.0],
}
WARP_NIR_ORDER1 = {"order": 1, "coeff_dx": [2.0, -1.5, 1.0], "coeff_dy": [-1.5, 1.0, -0.5]}
WARP_BLUE_ORDER1 = {"order": 1, "coeff_dx": [-1.0, 0.8, 0.5], "coeff_dy": [1.2, -0.6, 0.4]}

# Injected into batch512-bias: roll deg, pitch deg, clock s per drift unit.
INJECTED_BIAS = (0.401, 0.2, 0.35)
BATCH_SCENES = 8
ALTITUDE_KM = 510.0
EPOCH_UNIX = 1_525_487_400.0

# A 510 km sun-synchronous LEO element set (epoch 2018 day 125).
TLE_ELEMENTS = dict(
    satnum=40931, epoch_year=2018, epoch_day=125.10417824, ndot=0.0, nddot=0.0,
    bstar=0.0001, inclination_deg=97.6, raan_deg=201.5, eccentricity=0.0012345,
    argp_deg=84.2, mean_anomaly_deg=275.9, mean_motion_revday=15.19802917,
)


def _tle_lines() -> list[str]:
    from pushproc.georef.tle import TleElements, format_tle

    return list(format_tle(TleElements(**TLE_ELEMENTS)))


def scenes(workload: str, seed: int) -> list[dict]:
    """Scene list of a workload: [{"name", "spec", "config"}].

    ``spec`` is a SynthSpec document, ``config`` the PipelineConfig fields
    set beyond the defaults.  The truth sidecar is always passed to the
    pipeline, so every workload times the accuracy pass.
    """
    if workload == "scene2000":
        spec = dict(seed=seed, width=2000, lines=2000, bit_depth=8, texture="urban-blocks",
                    texture_contrast=70.0, vignette_falloff=40.0, dark_level=5.0, band_warp={"nir": WARP_2000},
                    grid_step=250)
        return [{"name": "s0", "spec": spec, "config": {"grid_step": 250}}]
    if workload == "swath-georef":
        spec = dict(seed=seed, width=2000, lines=256, bit_depth=16, texture="urban-blocks",
                    texture_base=2000.0, texture_contrast=1500.0, vignette_falloff=30.0,
                    dark_level=40.0, noise_sigma=6.0, band_warp={"nir": WARP_NIR_ORDER1},
                    orbit={"kind": "tle", "lines": _tle_lines()},
                    attitude_profile={"kind": "nutation", "amplitude_deg": 0.28,
                                      "period_s": 73.0},
                    grid_step=4)
        return [{"name": "s0", "spec": spec, "config": {"grid_step": 4}}]
    if workload == "batch512-bias":
        rng = random.Random(seed)
        raan0 = rng.uniform(0.0, 30.0)
        out = []
        for k in range(BATCH_SCENES):
            spec = dict(seed=seed * 16 + k, width=512, lines=512, bit_depth=16,
                        texture="urban-blocks", texture_base=2000.0,
                        texture_contrast=1500.0, vignette_falloff=30.0, dark_level=40.0,
                        noise_sigma=6.0,
                        band_warp={"nir": WARP_2000, "blue": WARP_BLUE_ORDER1},
                        orbit={"kind": "circular", "altitude_km": ALTITUDE_KM,
                               "inclination_deg": 97.6, "raan_deg": raan0 + 3.0 * k,
                               "arg_lat0_deg": -1.0 + 0.5 * k,
                               "epoch_unix": EPOCH_UNIX + 86_400.0 * k},
                        injected_bias=list(INJECTED_BIAS),
                        time_drift=2.0 * k / (BATCH_SCENES - 1),
                        grid_step=64)
            out.append({"name": f"s{k}", "spec": spec, "config": {"grid_step": 64}})
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
