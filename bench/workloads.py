"""Seeded workload configs for the nlqm benchmark.

Each workload is one ``{"scenarios": [...]}`` config: the bundled demo
scenarios it covers, copied verbatim from ``bench/configs/`` (a snapshot of
``demos/configs/``), followed by variants whose parameters are drawn from
``--seed``.  Every range below keeps the variant's own closed-form check
passing, and every variant has a fixed step count and seed grid size, so the
work per config does not depend on the seed.
"""
from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLED_DIR = os.path.join(HERE, "configs")

WORKLOADS = {
    "atom-fock": ("atom-inversion",),
    "pair-flows": ("gisin-telegraph", "mobility-telegraph", "no-signaling",
                   "reduced-flow-variants", "intention-paradox",
                   "bloch-neoclassical", "eigenfrequency"),
    "census-sweep": ("eigen-census", "diagonal-census", "probability-inconsistency"),
}

# Seed grids of equal size (512 grid seeds plus the fixed pole seeds).
CENSUS_GRIDS = ([32, 16], [16, 32], [64, 8], [8, 64])


def bundled_scenarios(stem: str) -> list:
    with open(os.path.join(BUNDLED_DIR, stem + ".json")) as fh:
        cfg = json.load(fh)
    return cfg["scenarios"] if "scenarios" in cfg else [cfg]


def bundled_names(workload: str) -> list:
    return [sc["name"] for stem in WORKLOADS[workload] for sc in bundled_scenarios(stem)]


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _unit_phase(rng, lo, hi) -> complex:
    angle = rng.uniform(lo, hi)
    return complex(math.cos(angle), math.sin(angle))


# ---------------------------------------------------------------------------
# atom-fock: d = 10 (two levels, Fock cutoff 4), 1000 steps per variant.


def _atom_variants(rng) -> list:
    out = []
    for description, compare, tol in (("polchinski", "elliptic", 1e-4),
                                      ("weinberg-fock", "cos", 1e-6),
                                      ("linear", "cos", 1e-6)):
        while True:
            level = rng.choice((0, 1))
            # The exchange partner of |level, photons> must stay below the top
            # Fock layer, which is the truncation sentinel.
            photons = rng.choice((1, 2, 3) if level == 0 else (0, 1, 2))
            q_abs = rng.uniform(0.6, 1.2)
            split = rng.uniform(0.5, 1.3)
            rabi = q_abs * math.sqrt(photons + level)
            varsigma = 0.5 * split ** 2
            # Keep clear of the separatrix varsigma = Omega, where the
            # elliptic modulus reaches 1.
            if not 0.75 < varsigma / rabi < 1.33:
                break
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out.append({
            "name": f"v-atom-{description}",
            "experiment": "atom-inversion",
            "description": description,
            # Symmetric moment levels keep the shifted detuning at zero, the
            # regime the closed forms describe.
            "eps_levels": [-0.5 * split, 0.5 * split],
            "q": _c(q_abs * complex(math.cos(phase), math.sin(phase))),
            "n_max": 4,
            "level": level,
            "photons": photons,
            "t_end": 5.0,
            "dt": 0.005,
            "compare": compare,
            "tol": tol,
        })
    return out


# ---------------------------------------------------------------------------
# pair-flows: d = 2 to 4 flows, one variant per experiment.


def _pair_variants(rng) -> list:
    out = []
    theta = rng.uniform(0.25, 0.55)
    out.append({
        "name": "v-gisin",
        "experiment": "gisin-telegraph",
        "alpha": [math.cos(theta), 0.0],
        "beta": _c(math.sin(theta) * _unit_phase(rng, -0.4, 0.4)),
        "eps": rng.uniform(0.2, 0.35),
        "e1": rng.uniform(-0.5, 0.5),
        "e2": rng.uniform(-0.5, 0.5),
        "t_end": 40.0,
        "dt": 0.05,
    })
    out.append({
        "name": "v-mobility",
        "experiment": "mobility-telegraph",
        "eps": rng.uniform(0.2, 0.35),
        "tilt": rng.uniform(math.pi / 16.0, 3.0 * math.pi / 16.0),
        "t_end": 40.0,
        "dt": 0.05,
    })
    for description, expect in (("polchinski-plain", "silent"),
                                ("polchinski-purity", "silent"),
                                ("weinberg", "signal")):
        # The slice-sum signal oscillates at 4 eps (|alpha|^2 - |beta|^2) with
        # amplitude set by Re(conj(alpha) beta): keep both away from zero.
        angle = rng.uniform(0.3, 0.6)
        phase = _unit_phase(rng, -math.pi, math.pi)
        out.append({
            "name": f"v-no-signaling-{description}",
            "experiment": "no-signaling",
            "description": description,
            "alpha": _c(math.cos(angle) * phase),
            "beta": _c(math.sin(angle) * phase * _unit_phase(rng, -0.5, 0.5)),
            "eps": rng.uniform(0.2, 0.5),
            "e1": rng.uniform(-0.5, 0.5),
            "e2": rng.uniform(0.0, 1.0),
            "t_end": 2.5,
            "dt": 0.01,
            "expect": expect,
        })
    while True:
        # Wider levels rotate fast enough at dt = 0.01 for RK4 to break the
        # flow's 1e-9 conservation check.
        eps_levels = [rng.uniform(0.5, 1.0), -rng.uniform(0.5, 1.0)]
        p = rng.uniform(0.6, 0.9)
        # A zero weighted average is a fixed point with no rotation to fit.
        if abs(p * eps_levels[0] + (1.0 - p) * eps_levels[1]) > 0.2:
            break
    out.append({
        "name": "v-reduced-flow",
        "experiment": "reduced-flow-variants",
        "eps_levels": eps_levels,
        "rho_diag": [p, 1.0 - p],
        "delta": rng.uniform(1e-5, 0.05),
        "t_end": 5.0,
        "dt": 0.01,
    })
    lambda1 = rng.uniform(0.0, 1.0)
    out.append({
        "name": "v-intention",
        "experiment": "intention-paradox",
        "lambda1": lambda1,
        "lambda2": 1.0 - lambda1,
        "f": rng.uniform(0.5, 1.5),
        "t": math.pi / 2.0,
        "dt": 0.001,
    })
    polar = rng.uniform(0.0, math.pi)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    r0 = [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
          math.cos(polar)]
    common = {"delta": rng.uniform(-0.3, 0.3), "omega": rng.uniform(0.5, 1.5),
              "a": rng.uniform(0.0, 0.3), "eps": rng.uniform(0.1, 0.4),
              "r0": r0, "t_end": 5.0, "dt": 0.01}
    out.append({"name": "v-bloch-rotating", "experiment": "bloch-neoclassical",
                **common, "mode": "rotating", "compare_wave": True, "tol": 1e-6})
    out.append({"name": "v-bloch-fixed", "experiment": "bloch-neoclassical",
                **common, "mode": "fixed", "compare_wave": False})
    weights = [rng.uniform(0.2, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(weights))
    out.append({
        "name": "v-eigenfrequency",
        "experiment": "eigenfrequency",
        "e_levels": [rng.uniform(0.0, 2.0) for _ in range(3)],
        "eps_levels": [rng.uniform(-0.5, 0.5) for _ in range(3)],
        "state": [_c(math.sqrt(w) / norm * _unit_phase(rng, -math.pi, math.pi))
                  for w in weights],
        "t_end": 5.0,
        "dt": 0.01,
    })
    return out


# ---------------------------------------------------------------------------
# census-sweep: Gauss-Newton censuses on both sides of each existence threshold.


def _census_eps(rng, threshold: float, above: bool) -> float:
    """eps clear of the threshold where an interior state appears.

    Below it the census is robust down to 0.4x; just above it (under 1.5x)
    some families converge in fewer Newton steps, so the cost would depend
    on the seed.
    """
    if above:
        return threshold * rng.uniform(1.6, 6.0)
    return threshold * rng.uniform(0.4, 0.72)


def _census_variants(rng) -> list:
    out = []
    # (family, power, eps threshold at E2 - E1 = 1, distinct states below/above)
    plan = [("canonical", 2, 0.25, (2, 3))] * 3 + [("even-power", 4, 0.125, (2, 3))] * 3 \
        + [("cubic", 3, 1.0 / 6.0, (2, 4))] * 2
    for i, (family, power, threshold, counts) in enumerate(plan):
        above = i % 2 == 0
        # Levels stay at E1 = 0, E2 = 1: with other splittings the Newton
        # iteration count, and so the cost, changes with the seed.
        sc = {"name": f"v-census-{family}-{i}", "experiment": "eigen-census",
              "family": family, "e1": 0.0, "e2": 1.0,
              "eps": _census_eps(rng, threshold, above),
              "grid": list(rng.choice(CENSUS_GRIDS)),
              "expected_count": counts[1] if above else counts[0]}
        if family == "even-power":
            sc["power"] = power
        out.append(sc)
    for i in range(2):
        out.append({"name": f"v-census-singular-{i}", "experiment": "eigen-census",
                    "family": "singular", "eps": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
                    "grid": list(rng.choice(CENSUS_GRIDS)), "expected_count": 2})
    for i, family in enumerate(("canonical", "cubic")):
        w = rng.uniform(0.1, 0.9)
        out.append({"name": f"v-diagonal-{family}", "experiment": "diagonal-census",
                    "family": family, "e1": rng.uniform(-0.5, 0.5),
                    "e2": rng.uniform(0.5, 1.5), "eps": rng.uniform(0.1, 1.0),
                    "state": [[math.sqrt(w), 0.0],
                              _c(math.sqrt(1.0 - w) * _unit_phase(rng, -math.pi, math.pi))]})
    for i in range(2):
        out.append({"name": f"v-probability-{i}", "experiment": "probability-inconsistency",
                    "e": rng.uniform(0.5, 2.0), "eps": rng.uniform(0.05, 0.5),
                    "samples": rng.randrange(21, 82)})
    return out


_VARIANTS = {"atom-fock": _atom_variants, "pair-flows": _pair_variants,
             "census-sweep": _census_variants}


def make_config(workload: str, seed: int) -> dict:
    """The config ``nlqm run`` receives: bundled scenarios, then seeded variants."""
    scenarios = [sc for stem in WORKLOADS[workload] for sc in bundled_scenarios(stem)]
    rng = random.Random(f"{workload}:{seed}")
    return {"scenarios": scenarios + _VARIANTS[workload](rng)}
