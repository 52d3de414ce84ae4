"""Kernel sheet: per-call cost of single layers, timed in isolation.

Not gated: these numbers locate a change, the end-to-end metrics judge it.
Each figure is the median over blocks of repeated calls.  The RK4 figures use
the bundled atom-inversion model (two levels, Fock cutoff 4, d = 10) and the
census figure uses ``canonical(0, 1, 1)``, the cases the ROADMAP Baseline
timed by hand.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# ROADMAP "Baseline (2026-10-17, 2 cores, Python 3.11.7, numpy 2.4.6)".
ROADMAP_BASELINE = {
    "dynamics.rk4_step.linear.us": 183.0,
    "dynamics.rk4_step.lifted.us": 241.0,
    "dynamics.rk4_step.slice_sum.us": 705.0,
    "spectra.census.canonical.s": 0.26,
}
BLOCKS = 5
BLOCK_SECONDS = 0.01


def _per_call(fn) -> float:
    """Median seconds per call over BLOCKS blocks of about BLOCK_SECONDS each."""
    t = perf_counter()
    fn()
    once = max(perf_counter() - t, 1e-7)
    reps = max(1, int(BLOCK_SECONDS / once))
    blocks = []
    for _ in range(BLOCKS):
        t = perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((perf_counter() - t) / reps)
    return statistics.median(blocks)


def _observables(rng) -> dict:
    import numpy as np
    from nlqm import composite, observables, sigma3

    def hermitian(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return a + a.conj().T

    families = {}
    for d in (2, 4, 10):
        families[("bilinear", d)] = observables.bilinear(hermitian(d))
        families[("moment2", d)] = observables.moment_power(hermitian(d), 2)
    # Slice-sum pairs as the package builds them: the telegraph pair (2 x 2)
    # and the Fock-sliced atom (2 levels x 5 Fock layers).
    families[("slice_sum", 4)] = composite.weinberg_composite(
        observables.canonical(0.0, 1.0, 0.5), 2, 2, np.eye(2), sub_slot=1)
    families[("slice_sum", 10)] = composite.weinberg_composite(
        observables.moment_power(np.diag([-0.5, 0.5]), 2), 2, 5, np.eye(5), sub_slot=0)
    purity = {d: composite.polchinski_functional(0.5, sigma3, (2, d // 2),
                                                 variant="purity-weighted", eps=0.3,
                                                 slot=0)
              for d in (4, 10)}

    out = {}
    for (family, d), obs in families.items():
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        z /= np.linalg.norm(z)
        out[f"observables.{family}.value.d{d}.us"] = _per_call(lambda: obs.value(z))
        out[f"observables.{family}.gradient.d{d}.us"] = _per_call(
            lambda: observables.wirtinger_gradient(obs, z))
        out[f"observables.{family}.operator.d{d}.us"] = _per_call(
            lambda: observables.nonlinear_operator(obs, z))
    for d, obs in purity.items():
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        z /= np.linalg.norm(z)
        out[f"observables.purity.gradient.d{d}.us"] = _per_call(
            lambda: observables.wirtinger_gradient(obs, z))
    return {k: v * 1e6 for k, v in out.items()}


def _rk4_steps() -> dict:
    from nlqm import atom, dynamics

    params = atom.AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.5, 0.5),
                                  omega=1.0, q=1.0, n_max=4)
    z0 = atom.product_state(params, 0, 1)
    steps, dt = 300, 0.005
    out = {}
    for key, description in (("linear", "linear"), ("lifted", "polchinski"),
                              ("slice_sum", "weinberg-fock")):
        builder = atom.build_atom_field(description, params)
        runs = []
        for _ in range(3):
            t = perf_counter()
            dynamics.integrate_nls(builder, z0, steps * dt, dt)
            runs.append((perf_counter() - t) / steps)
        out[f"dynamics.rk4_step.{key}.us"] = statistics.median(runs) * 1e6
    return out


def _census() -> dict:
    from nlqm import observables, spectra

    obs = observables.canonical(0.0, 1.0, 1.0)
    runs = []
    for _ in range(3):
        t = perf_counter()
        spectra.find_eigenstates(obs, 2)
        runs.append(perf_counter() - t)
    return {"spectra.census.canonical.s": statistics.median(runs)}


def kernel_sheet(seed: int) -> dict:
    """Every kernel figure, keyed by its per-layer metric name."""
    import numpy as np

    return {**_observables(np.random.default_rng(seed)), **_rk4_steps(), **_census()}


def baseline_lines(sheet: dict) -> list:
    """The ROADMAP Baseline figures beside this run's, with the relative gap."""
    lines = []
    for key, ref in ROADMAP_BASELINE.items():
        got = sheet[key]
        gap = got / ref - 1.0
        flag = "  (gap over 20%: see bench/README.md)" if abs(gap) > 0.2 else ""
        lines.append(f"baseline {key}: ROADMAP {ref:g}, measured {got:.4g} "
                     f"({gap:+.0%}){flag}")
    return lines
