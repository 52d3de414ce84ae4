"""Command-line laboratory: run packaged experiments from JSON configs.

    nlqm run CONFIG.json [--out DIR]
    nlqm compare A.csv B.csv [--norm linf|l2] [--tol X]
    nlqm list-experiments

A config is a single scenario object or ``{"scenarios": [...]}``; each
scenario names an ``experiment``, an optional output ``name``, and typed
parameters (see ``list-experiments``).  Complex parameters are written as
``[re, im]`` (a bare number means a real value).

Every scenario writes ``<name>.csv`` (first column is always ``t``: the time
grid, or the sweep/record coordinate for time-free experiments) and
``<name>.report.json``.  Output is byte-reproducible: fixed float formatting,
LF line endings, sorted JSON keys, and no randomness anywhere in the library.
The output directory is ``--out``, else ``$NLQM_OUT``, else ``./nlqm-out``.

Exit status: 0 all scenarios passed, 1 at least one failed, 2 the config
itself was unusable.  One schema pass checks every scenario before anything
runs or is written: value kinds (every real and complex number finite) and
each experiment's static rules.  Limits met only by running (the step,
sample, state-size and seed caps, the Fock leak, a fixed point) exit 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, sigma1, sigma2, sigma3
from .observables import (
    SingularObservableError,
    bilinear,
    canonical,
    cubic,
    moment_power,
    nonlinear_operator,
    power_family,
    singular_inverse,
)
from .spectra import (
    MAX_SEEDS,
    diagonal_values,
    eigenfrequencies,
    find_eigenstates,
    moment_probabilities,
)
from .dynamics import (
    BlochParams,
    IntegrationError,
    _check_horizon,
    canonical_frequencies,
    integrate_bloch,
    integrate_nls,
    neo_hamiltonian,
)
from . import composite
from . import atom as atom_mod

__all__ = ["main"]

MAX_PROBABILITY_SAMPLES = 10_000  # the bundled and benchmark configs use at most 81


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # real | int | bool | str | complex | real_list | int_list | complex_list
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


def _real(v):
    if type(v) not in (int, float) or not math.isfinite(v):  # an int past 1e308 overflows
        raise ValueError
    return float(v)


def _complex(v):
    return complex(*map(_real, v)) if type(v) is list and len(v) == 2 else complex(_real(v))


def _exactly(t):  # JSON true is no integer, though bool subclasses int
    def coerce(v):
        if type(v) is not t:
            raise ValueError
        return v
    return coerce


def _list(item):
    def coerce(v):
        if type(v) is not list or not v:
            raise ValueError
        return [item(x) for x in v]
    return coerce


# Field.kind -> (what a value must be, coercer raising ValueError or OverflowError)
_KINDS = {
    "real": ("a finite real number", _real),
    "int": ("an integer", _exactly(int)),
    "bool": ("true or false", _exactly(bool)),
    "str": ("a string", _exactly(str)),
    "complex": ("a finite number or [re, im] pair", _complex),
    "real_list": ("a non-empty list of finite real numbers", _list(_real)),
    "int_list": ("a non-empty list of integers", _list(_exactly(int))),
    "complex_list": ("a non-empty list of finite numbers or [re, im] pairs", _list(_complex)),
}


def _rule(ok: bool, message: str) -> None:
    if not ok:
        raise ValidationError(message)


def _nonzero(state) -> bool:
    """Whether |state|^2 is positive as a float: a state whose squared norm
    underflows is zero to the library too."""
    return sum(abs(x) * abs(x) for x in state) > 0.0


def _validated(scenario: dict, exp: str) -> dict:
    """The scenario's parameters, coerced by kind and checked by every static
    rule; raises :class:`ValidationError`."""
    _, fields, _, check = EXPERIMENTS[exp]
    known = {f.name for f in fields}
    for key in scenario:
        if key not in known and key not in ("experiment", "name"):
            raise ValidationError(f"unknown field '{key}'")
    p = {}
    for f in fields:
        if f.name not in scenario:
            if f.required:
                raise ValidationError(f"missing required field '{f.name}'")
            p[f.name] = f.default
            continue
        what, coerce = _KINDS[f.kind]
        try:
            p[f.name] = coerce(scenario[f.name])
        except (ValueError, OverflowError):
            raise ValidationError(f"field '{f.name}' must be {what}") from None
        if f.choices and p[f.name] not in f.choices:
            raise ValidationError(f"field '{f.name}' must be one of {list(f.choices)}, "
                                  f"got '{p[f.name]}'")
    if "dt" in p:  # every time-stepped experiment; intention-paradox's horizon is t
        _check_horizon(p.get("t", p.get("t_end")), p["dt"])
    if check is not None:
        check(p)
    return p


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (header, rows, metrics, passed).


def _family_observable(p):
    fam = p["family"]
    if fam == "canonical":
        return canonical(p["e1"], p["e2"], p["eps"])
    if fam == "cubic":
        return cubic(p["e1"], p["e2"], p["eps"])
    if fam == "even-power":
        return power_family(p["e1"], p["e2"], p["eps"], power=p["power"])
    return singular_inverse(p["eps"])


_FAMILY_FIELDS = (
    Field("family", "str", default="canonical",
          choices=("canonical", "cubic", "even-power", "singular"),
          help="two-level moment family (singular uses eps as its coefficient)"),
    Field("e1", "real", default=0.0, help="lower level weight"),
    Field("e2", "real", default=1.0, help="upper level weight"),
    Field("eps", "real", default=1.0, help="nonlinearity strength"),
    Field("power", "int", default=2, help="moment exponent for even-power"),
)


def _run_eigen_census(p):
    obs = _family_observable(p)
    diag = {}
    recs = find_eigenstates(obs, 2, grid=tuple(p["grid"]), diagnostics=diag)
    rows = []
    for i, r in enumerate(recs):
        w = np.abs(r.state.amplitudes) ** 2
        rows.append([float(i), r.eigenvalue, r.residual, float(w[0]), float(w[1])])
    metrics = {"count": len(recs), **diag}
    passed = p["expected_count"] < 0 or len(recs) == p["expected_count"]
    return (["t", "eigenvalue", "residual", "weight_0", "weight_1"],
            rows, metrics, passed)


def _run_diagonal_census(p):
    obs = _family_observable(p)
    z = np.asarray(p["state"], dtype=complex)
    vals = diagonal_values(obs, z)
    n = float(np.vdot(z, z).real)
    rows = [[float(i), v] for i, v in enumerate(vals)]
    metrics = {"average": obs.value(z) / n, "count": len(vals)}
    return ["t", "diagonal_value"], rows, metrics, True


def _check_levels(p):
    _rule(len(p["e_levels"]) == len(p["eps_levels"]) == len(p["state"]),
          "e_levels, eps_levels and state must have equal length")
    _rule(_nonzero(p["state"]), "state must be nonzero")


def _run_eigenfrequency(p):
    e = np.asarray(p["e_levels"], dtype=float)
    eps = np.asarray(p["eps_levels"], dtype=float)
    z0 = np.asarray(p["state"], dtype=complex)
    obs = bilinear(np.diag(e)) + moment_power(np.diag(eps.astype(complex)), 2)
    builder = lambda z: nonlinear_operator(obs, z)
    traj = integrate_nls(builder, z0, p["t_end"], p["dt"], flow=obs.analytic_gradient)
    rows, devs = [], []
    predicted = canonical_frequencies(e, eps, z0).tolist()
    for k, ((om, weight), pred) in enumerate(zip(eigenfrequencies(traj), predicted)):
        dev = abs(om - pred) if weight > 1e-10 else 0.0
        devs.append(dev)
        rows.append([float(k), weight, om, pred, dev])
    metrics = {"max_deviation": max(devs)}
    return (["t", "weight", "omega_measured", "omega_predicted", "deviation"],
            rows, metrics, max(devs) < p["tol"])


def _check_sweep(p):
    _rule(1 <= p["samples"] <= MAX_PROBABILITY_SAMPLES,
          f"samples must be between 1 and {MAX_PROBABILITY_SAMPLES}")
    _rule(p["eps"] != 0.0, "eps must be nonzero (the first-moment rule divides by it)")


def _run_probability_inconsistency(p):
    obs = canonical(p["e"], p["e"], p["eps"])
    thetas = np.linspace(0.0, np.pi / 2.0, p["samples"])
    e, eps = p["e"], p["eps"]
    rows, disc, closed_dev = [], [], []
    for th in thetas:
        z = np.array([np.cos(th), np.sin(th)], dtype=complex)
        mp = moment_probabilities(obs, z, "first-moment")
        p_first = float(mp.probabilities[1])
        p_star = float(mp.other_probabilities[1])
        s2 = float(np.cos(2.0 * th) ** 2)
        cf_first = s2
        cf_star = ((4.0 * eps ** 2 + 2.0 * e * eps) * s2
                   - 3.0 * eps ** 2 * s2 ** 2) / (2.0 * e * eps + eps ** 2)
        disc.append(mp.discrepancy)
        closed_dev.append(max(abs(p_first - cf_first), abs(p_star - cf_star)))
        rows.append([float(th), p_first, p_star, mp.discrepancy])
    metrics = {"max_discrepancy": float(np.max(disc)),
               "closed_form_deviation": float(np.max(closed_dev))}
    return (["t", "p_first_moment", "p_star_square", "discrepancy"],
            rows, metrics, float(np.max(closed_dev)) < 1e-9)


def _telegraph_rows(rep):
    rows = [[float(t), float(s)] for t, s in zip(rep.times, rep.signal)]
    metrics = {
        "fitted_frequency": rep.fitted_frequency,
        "fitted_amplitude": rep.fitted_amplitude,
        "predicted_frequency": rep.predicted_frequency,
        "predicted_amplitude": rep.predicted_amplitude,
    }
    ok = (abs(rep.fitted_frequency - rep.predicted_frequency)
          < 1e-2 * max(rep.predicted_frequency, 1e-12)
          and abs(rep.fitted_amplitude - rep.predicted_amplitude)
          < 2e-2 * max(rep.predicted_amplitude, 1e-12))
    return ["t", "signal"], rows, metrics, ok


def _run_gisin(p):
    rep = composite.gisin_telegraph(
        composite.TelegraphParams(alpha=p["alpha"], beta=p["beta"], eps=p["eps"],
                                  e1=p["e1"], e2=p["e2"]),
        p["t_end"], p["dt"])
    return _telegraph_rows(rep)


def _run_mobility(p):
    rep = composite.mobility_telegraph(p["eps"], p["tilt"], p["t_end"], p["dt"])
    return _telegraph_rows(rep)


def _check_pair(p):
    composite._check_preparation(p["alpha"], p["beta"])


def _run_no_signaling(p):
    a, b = p["alpha"], p["beta"]
    u = np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)
    rep = composite.no_signaling_check(p["description"], u, p["t_end"], p["dt"],
                                       eps=p["eps"], e1=p["e1"], e2=p["e2"])
    rows = [[float(t), float(d)] for t, d in zip(rep.times, rep.deviations)]
    metrics = {"max_deviation": rep.max_deviation}
    ok = rep.max_deviation < 1e-8 if p["expect"] == "silent" else rep.max_deviation > 1e-2
    return ["t", "deviation"], rows, metrics, ok


def _run_reduced_flow(p):
    eps = np.diag(np.asarray(p["eps_levels"], dtype=complex))
    rho0 = np.diag(np.asarray(p["rho_diag"], dtype=complex))
    rho0[0, 1] += p["delta"]
    rho0[1, 0] += p["delta"]
    plain = composite.polchinski_reduced_flow("plain", eps, rho0, p["t_end"], p["dt"])
    purity = composite.polchinski_reduced_flow("purity-weighted", eps, rho0,
                                               p["t_end"], p["dt"])
    rows = [[float(t), a.real, a.imag, b.real, b.imag]
            for t, a, b in zip(plain.times, plain.rhos[:, 0, 1], purity.rhos[:, 0, 1])]
    rate_a = plain.offdiagonal_phase_rate()
    rate_b = purity.offdiagonal_phase_rate()
    if abs(rate_a) < 1e-12:
        raise ValidationError(
            "plain flow shows no rotation for this configuration (the state "
            "sits at a fixed point), so the rate ratio is undefined; choose "
            "eps_levels and rho_diag with a nonzero weighted average")
    tr = float(np.trace(rho0).real)
    predicted = float(np.trace(rho0 @ rho0).real) / tr ** 2
    ratio = rate_b / rate_a
    metrics = {"rate_plain": rate_a, "rate_purity": rate_b,
               "ratio": ratio, "predicted_ratio": predicted}
    return (["t", "re_plain", "im_plain", "re_purity", "im_purity"],
            rows, metrics, abs(ratio - predicted) < 1e-4)


def _run_atom_inversion(p):
    params = atom_mod.AtomFieldParams(
        omega_levels=tuple(p["omega_levels"]),
        eps_levels=tuple(p["eps_levels"]),
        omega=p["omega"], q=p["q"], n_max=p["n_max"])
    builder = atom_mod.build_atom_field(p["description"], params)
    z0 = atom_mod.product_state(params, p["level"], p["photons"])
    series = atom_mod.inversion_trajectory(builder, z0, p["t_end"], p["dt"])
    metrics = {"leak": series.leak}
    header = ["t", "w"]
    rows = [[float(t), float(w)] for t, w in zip(series.times, series.w)]
    passed = True
    if p["compare"] != "none":
        n_prime = -0.5 if p["level"] == 0 else 0.5
        n_big = n_prime + p["photons"]
        om = params.rabi(n_big)
        if p["compare"] == "elliptic":
            wc = atom_mod.elliptic_inversion(om, params.varsigma(), series.times)
            key = "linf_vs_elliptic"
        else:
            wc = -np.cos(om * series.times)
            key = "linf_vs_cos"
        if p["level"] == 1:
            wc = -wc
        dev = float(np.max(np.abs(series.w - wc)))
        metrics[key] = dev
        header.append("w_closed")
        rows = [r + [float(w)] for r, w in zip(rows, wc)]
        passed = dev < p["tol"]
    return header, rows, metrics, passed


def _run_bloch(p):
    r0 = np.asarray(p["r0"], dtype=float)
    bp = BlochParams(delta=p["delta"], omega=p["omega"], a=p["a"], eps=p["eps"],
                     rotating_frame=(p["mode"] == "rotating"))
    btraj = integrate_bloch(bp, r0, p["t_end"], p["dt"])
    header = ["t", "u", "v", "w"]
    rows = [[float(t)] + [float(x) for x in r] for t, r in zip(btraj.times, btraj.r)]
    metrics = {"final_length_squared": float(np.dot(btraj.r[-1], btraj.r[-1]))}
    passed = True
    if p["compare_wave"]:
        th = np.arccos(np.clip(r0[2], -1.0, 1.0))
        ph = np.arctan2(r0[1], r0[0])
        psi0 = np.array([np.cos(th / 2.0),
                         np.sin(th / 2.0) * np.exp(1j * ph)], dtype=complex)
        base = 0.5 * (p["delta"] * sigma3 - p["omega"] * sigma1)
        wb = neo_hamiltonian(p["a"], p["eps"], base)
        wtraj = integrate_nls(wb, psi0, p["t_end"], p["dt"])
        paulis = (sigma1, sigma2, sigma3)
        amps = wtraj.amplitudes()
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        rw = np.stack([np.einsum("ti,ij,tj->t", amps.conj(), s, amps).real / norms
                       for s in paulis], axis=1)
        dev = float(np.max(np.abs(btraj.r - rw)))
        metrics["wave_deviation"] = dev
        header += ["u_wave", "v_wave", "w_wave"]
        rows = [r + [float(x) for x in rv] for r, rv in zip(rows, rw)]
        if p["mode"] == "rotating" or p["a"] == 0.0:
            passed = dev < p["tol"]
    return header, rows, metrics, passed


def _run_intention(p):
    rep = composite.intention_paradox(
        composite.ParadoxParams(lambda1=p["lambda1"], lambda2=p["lambda2"],
                                f=p["f"], t=p["t"]), p["dt"])
    rows = [[float(t), float(s), float(w)] for t, s, w in
            zip(rep.times, rep.sigma3_series, rep.sigma3_predicted_series)]
    metrics = {"x_value": rep.x_value,
               "analytic_gap": rep.analytic_gap,
               "duality_gap": rep.duality_gap,
               "sigma3_final": rep.sigma3_final,
               "sigma3_predicted": rep.sigma3_predicted}
    passed = rep.analytic_gap < 1e-8 and rep.duality_gap < 1e-8
    return ["t", "sigma3", "sigma3_predicted"], rows, metrics, passed


# name: (description, fields, runner, static rule run by the schema pass or None)
EXPERIMENTS = {
    "eigen-census": (
        "enumerate nonlinear eigenstates of a two-level moment family",
        _FAMILY_FIELDS + (
            Field("grid", "int_list", default=[32, 16],
                  help=f"seed grid (theta, phi), at most {MAX_SEEDS} seeds"),
            Field("expected_count", "int", default=-1,
                  help="fail unless this many distinct states (-1 disables)"),
        ),
        _run_eigen_census, None),
    "diagonal-census": (
        "eigenvalues of the state-dependent operator at a given state",
        _FAMILY_FIELDS + (
            Field("state", "complex_list", required=True, help="amplitude vector"),
        ),
        _run_diagonal_census,
        lambda p: _rule(len(p["state"]) == 2 and _nonzero(p["state"]),
                        "state must be a nonzero two-component vector "
                        "(the families are two-level)")),
    "eigenfrequency": (
        "trajectory phase rates of a diagonal family vs the closed form",
        (Field("e_levels", "real_list", required=True),
         Field("eps_levels", "real_list", required=True),
         Field("state", "complex_list", required=True),
         Field("t_end", "real", default=30.0),
         Field("dt", "real", default=0.01),
         Field("tol", "real", default=1e-5)),
        _run_eigenfrequency, _check_levels),
    "probability-inconsistency": (
        "two moment-based probability rules disagree for a degenerate family",
        (Field("e", "real", default=1.0),
         Field("eps", "real", default=0.1),
         Field("samples", "int", default=41,
               help=f"sweep points, 1 to {MAX_PROBABILITY_SAMPLES}")),
        _run_probability_inconsistency, _check_sweep),
    "gisin-telegraph": (
        "remote-preparation telegraph under the slice-sum pair extension",
        (Field("alpha", "complex", default=complex(np.sqrt(3.0) / 2.0)),
         Field("beta", "complex", default=complex(0.5)),
         Field("eps", "real", default=0.1),
         Field("e1", "real", default=0.0),
         Field("e2", "real", default=0.0),
         Field("t_end", "real", default=40.0),
         Field("dt", "real", default=0.05)),
        _run_gisin, _check_pair),
    "mobility-telegraph": (
        "telegraph from a tilted correlation basis",
        (Field("eps", "real", default=0.1),
         Field("tilt", "real", default=float(np.pi / 8.0)),
         Field("t_end", "real", default=40.0),
         Field("dt", "real", default=0.05)),
        _run_mobility, None),
    "no-signaling": (
        "does a remote unitary move the local reduced state?",
        (Field("description", "str", default="polchinski-plain",
               choices=("polchinski-plain", "polchinski-purity", "weinberg")),
         Field("alpha", "complex", default=complex(np.sqrt(3.0) / 2.0)),
         Field("beta", "complex", default=complex(0.5)),
         Field("eps", "real", default=0.1),
         Field("e1", "real", default=0.0),
         Field("e2", "real", default=0.0),
         Field("t_end", "real", default=5.0),
         Field("dt", "real", default=0.01),
         Field("expect", "str", default="silent", choices=("silent", "signal"))),
        _run_no_signaling, _check_pair),
    "reduced-flow-variants": (
        "reduced-flow rotation rate: plain vs purity-weighted extension",
        (Field("eps_levels", "real_list", default=[1.0, -1.0]),
         Field("rho_diag", "real_list", default=[0.75, 0.25]),
         Field("delta", "real", default=1e-5, help="off-diagonal seed"),
         Field("t_end", "real", default=20.0),
         Field("dt", "real", default=0.01)),
        _run_reduced_flow,
        lambda p: _rule(2 <= len(p["eps_levels"]) == len(p["rho_diag"]),
                        "eps_levels and rho_diag must have equal length, at least 2")),
    "atom-inversion": (
        "population inversion of the atom-field models vs closed forms",
        (Field("description", "str", default="polchinski",
               choices=("linear", "polchinski", "weinberg-fock")),
         Field("omega_levels", "real_list", default=[0.0, 1.0]),
         Field("eps_levels", "real_list", default=[-0.5, 0.5]),
         Field("omega", "real", default=1.0),
         Field("q", "complex", default=complex(1.0)),
         Field("n_max", "int", default=4),
         Field("level", "int", default=0),
         Field("photons", "int", default=1),
         Field("t_end", "real", default=13.5),
         Field("dt", "real", default=0.005),
         Field("compare", "str", default="elliptic",
               choices=("none", "elliptic", "cos")),
         Field("tol", "real", default=1e-4)),
        _run_atom_inversion,
        lambda p: _rule(p["compare"] == "none" or p["level"] in (0, 1),
                        "compare needs level 0 or 1 (the coupled pair)")),
    "bloch-neoclassical": (
        "damped-driven Bloch forms against the nonlinear wave equation",
        (Field("delta", "real", default=0.0),
         Field("omega", "real", default=1.0),
         Field("a", "real", default=0.2),
         Field("eps", "real", default=0.3),
         Field("r0", "real_list", default=[0.0, 0.0, -1.0]),
         Field("t_end", "real", default=20.0),
         Field("dt", "real", default=0.01),
         Field("mode", "str", default="rotating", choices=("fixed", "rotating")),
         Field("compare_wave", "bool", default=True),
         Field("tol", "real", default=1e-5)),
        _run_bloch,
        lambda p: _rule(len(p["r0"]) == 3 and not (
            p["compare_wave"] and abs(sum(x * x for x in p["r0"]) - 1.0) > 1e-9),
            "r0 must have three components, and |r0| = 1 for compare_wave")),
    "intention-paradox": (
        "mixture-composition-dependent rotation of a density matrix",
        (Field("lambda1", "real", default=0.5),
         Field("lambda2", "real", default=0.5),
         Field("f", "real", default=1.0),
         Field("t", "real", default=float(np.pi)),
         Field("dt", "real", default=0.001)),
        _run_intention,
        lambda p: composite._check_weights(p["lambda1"], p["lambda2"])),
}


# ---------------------------------------------------------------------------
# Output plumbing


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _write_report(path: str, report: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


# Failures a scenario's inputs can cause.  Any other exception fails its
# scenario too, and also prints its traceback to stderr.
_EXPECTED_ERRORS = (ValidationError, IntegrationError, SingularObservableError,
                    np.linalg.LinAlgError)


def _schema_pass(cfg) -> list:
    """Every scenario of ``cfg`` as ``(name, experiment, params)``, coerced by
    kind and checked by every static rule before any of them runs; raises
    :class:`ValidationError`."""
    if isinstance(cfg, dict) and "scenarios" in cfg:
        scenarios = cfg["scenarios"]
        _rule(isinstance(scenarios, list) and scenarios, "'scenarios' must be a non-empty list")
    else:
        _rule(isinstance(cfg, dict), "top level must be an object")
        scenarios = [cfg]
    prepared, seen = [], set()
    for i, sc in enumerate(scenarios):
        _rule(isinstance(sc, dict), f"scenario {i + 1} must be an object")
        exp = sc.get("experiment")
        _rule(isinstance(exp, str) and exp in EXPERIMENTS,
              f"scenario {i + 1} names unknown experiment {exp!r} "
              f"(known: {', '.join(EXPERIMENTS)})")
        name = sc.get("name", f"{exp}-{i + 1}")
        _rule(isinstance(name, str) and re.fullmatch(r"[A-Za-z0-9_-]+", name),
              f"scenario {i + 1} has an unusable name {name!r} (letters, digits, '-', '_')")
        _rule(name not in seen, f"duplicate scenario name '{name}'")
        seen.add(name)
        try:
            prepared.append((name, exp, _validated(sc, exp)))
        except ValidationError as e:
            raise ValidationError(f"scenario '{name}': {e}") from None
    return prepared


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            prepared = _schema_pass(json.load(fh))
    except json.JSONDecodeError as e:
        print(f"config error: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:  # ValidationError, UnicodeDecodeError, ...
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out = args.out or os.environ.get("NLQM_OUT") or os.path.join(".", "nlqm-out")
    os.makedirs(out, exist_ok=True)
    all_ok = True
    for name, exp, params in prepared:
        runner = EXPERIMENTS[exp][2]
        report = {"experiment": exp, "name": name, "params": params}
        try:
            header, rows, metrics, passed = runner(params)
        except Exception as e:  # one failed scenario never stops the run
            if not isinstance(e, _EXPECTED_ERRORS):
                import traceback  # only on this path: it adds to every start-up

                traceback.print_exc(file=sys.stderr)
            report["passed"] = False
            report["error_type"] = type(e).__name__
            report["error"] = str(e)
            _write_report(os.path.join(out, f"{name}.report.json"), report)
            print(f"{name}: FAIL ({exp}) — {e}")
            all_ok = False
            continue
        csv_name = f"{name}.csv"
        _write_csv(os.path.join(out, csv_name), header, rows)
        report["csv"] = csv_name
        report["metrics"] = metrics
        report["passed"] = bool(passed)
        _write_report(os.path.join(out, f"{name}.report.json"), report)
        print(f"{name}: {'pass' if passed else 'FAIL'} ({exp})")
        all_ok = all_ok and passed
    return 0 if all_ok else 1


def _read_csv(path):
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(x) for x in row] for row in rd]
    return header, np.asarray(rows, dtype=float)


def _cmd_compare(args) -> int:
    try:
        ha, a = _read_csv(args.a)
        hb, b = _read_csv(args.b)
        _rule(ha == hb, "column headers differ")
        _rule(a.shape == b.shape, f"row counts differ ({a.shape[0]} vs {b.shape[0]})")
        _rule(a.size > 0, "no data rows")
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, which counts as differing
            _rule(np.max(np.abs(a[:, 0] - b[:, 0])) <= 1e-12, "t grids differ beyond 1e-12")
        finite = np.isfinite(a[:, 1:]).all(axis=0) & np.isfinite(b[:, 1:]).all(axis=0)
        _rule(finite.all(), "non-finite entries in column(s) "
              + ", ".join(h for h, ok in zip(ha[1:], finite) if not ok))
    except (OSError, ValueError, StopIteration) as e:  # ValidationError is a ValueError
        print(f"compare error: {e}", file=sys.stderr)
        return 2
    diff = a[:, 1:] - b[:, 1:]
    if args.norm == "linf":
        val = float(np.max(np.abs(diff))) if diff.size else 0.0
    else:
        val = float(np.sqrt(np.sum(diff ** 2)))
    print(f"{args.norm} difference: {_fmt(val)}")
    return 0 if val <= args.tol else 1


def _cmd_list(_args) -> int:
    for name, (desc, fields, _runner, _check) in EXPERIMENTS.items():
        print(f"{name}: {desc}")
        for f in fields:
            bits = [f.kind]
            if f.required:
                bits.append("required")
            else:
                bits.append(f"default={_jsonable(f.default)}")
            if f.choices:
                bits.append("choices=" + "|".join(f.choices))
            line = f"  {f.name} ({', '.join(bits)})"
            if f.help:
                line += f" — {f.help}"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlqm",
        description="numerical laboratory for nonlinear quantum mechanics")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run scenarios from a JSON config")
    runp.add_argument("config")
    runp.add_argument("--out", default=None,
                      help="output directory (else $NLQM_OUT, else ./nlqm-out)")
    cmpp = sub.add_parser("compare", help="compare two result CSV files")
    cmpp.add_argument("a")
    cmpp.add_argument("b")
    cmpp.add_argument("--norm", choices=("linf", "l2"), default="linf")
    cmpp.add_argument("--tol", type=float, default=1e-9)
    sub.add_parser("list-experiments", help="describe available experiments")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "list-experiments":
        return _cmd_list(args)
    parser.print_help()
    return 2
