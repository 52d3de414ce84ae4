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
Scenarios of one group (an experiment's group key in ``EXPERIMENTS``) run as
one RK4 stack and write the bytes they write alone; a member that fails the
stack reruns alone.  The mixture scenarios group by time grid; the atom
scenarios by description, ``n_max``, level count and step size t_end/nsteps;
the gisin and mobility telegraphs by step size, and the no-signaling
scenarios by description and step size (two rows each, the singlet and its
rotated copy).  In the last three kinds each row has its own parameters and
leaves the stack at its own horizon.
The output directory is ``--out``, else ``$NLQM_OUT``, else ``./nlqm-out``.

Exit status: 0 all scenarios passed, 1 at least one failed, 2 the config
or the output directory was unusable, or an output file could not be written
(the scenarios after it still run).  One schema pass checks every scenario
before anything runs or is written: value kinds (every real and complex number
finite) and each experiment's static rules.  Limits met only by running (the
step, sample, state-size and seed caps, the Fock leak, a fixed point) exit 1.
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
    _in_row,
    _step_grid,
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


def _check_state(state) -> None:
    """Refuse a ``state`` whose squared norm is not a normal finite float: the
    library's relative checks need it (at 1e-160 the square is subnormal and
    the operator's entries turn non-finite)."""
    n = sum(abs(x) * abs(x) for x in state)
    _rule(np.finfo(float).tiny <= n < math.inf,
          f"state must have a squared norm that is a normal finite float, got {n:g}")


def _validated(scenario: dict, exp: str) -> dict:
    """The scenario's parameters, coerced by kind and checked by every static
    rule; raises :class:`ValidationError`."""
    _, fields, _, check, _ = EXPERIMENTS[exp]
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
# Experiment runners.  Each returns (columns, metrics, passed), a group runner
# through one finisher per member: columns maps the CSV column names, "t"
# first, to 1-D arrays of one length, in CSV order.


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

# The preparation unitary (alpha, beta) of the singlet and the pair's moment
# family, shared by gisin-telegraph and no-signaling.
_PAIR_FIELDS = (
    Field("alpha", "complex", default=complex(np.sqrt(3.0) / 2.0)),
    Field("beta", "complex", default=complex(0.5)),
    Field("eps", "real", default=0.1),
    Field("e1", "real", default=0.0),
    Field("e2", "real", default=0.0),
)


def _check_family(p):
    _rule(p["family"] != "even-power" or (2 <= p["power"] <= 64 and p["power"] % 2 == 0),
          "power must be even and at least 2 (and at most 64) for the even-power family")


def _run_eigen_census(p):
    obs = _family_observable(p)
    diag = {}
    recs = find_eigenstates(obs, 2, grid=tuple(p["grid"]), diagnostics=diag)
    w = np.abs(np.reshape([r.state for r in recs], (-1, 2))) ** 2
    columns = {"t": np.arange(len(recs), dtype=float),
               "eigenvalue": [r.eigenvalue for r in recs],
               "residual": [r.residual for r in recs],
               "weight_0": w[:, 0], "weight_1": w[:, 1]}
    metrics = {"count": len(recs), **diag}
    passed = p["expected_count"] < 0 or len(recs) == p["expected_count"]
    return columns, metrics, passed


def _run_diagonal_census(p):
    obs = _family_observable(p)
    z = np.asarray(p["state"], dtype=complex)
    vals = diagonal_values(obs, z)
    n = float(np.vdot(z, z).real)
    metrics = {"average": obs.value(z) / n, "count": len(vals)}
    return {"t": np.arange(len(vals), dtype=float), "diagonal_value": vals}, metrics, True


def _check_diagonal(p):
    _check_family(p)
    _rule(len(p["state"]) == 2,
          "state must be a two-component vector (the families are two-level)")
    _check_state(p["state"])


def _check_levels(p):
    _rule(len(p["e_levels"]) == len(p["eps_levels"]) == len(p["state"]),
          "e_levels, eps_levels and state must have equal length")
    _check_state(p["state"])


def _run_eigenfrequency(p):
    e = np.asarray(p["e_levels"], dtype=float)
    eps = np.asarray(p["eps_levels"], dtype=float)
    z0 = np.asarray(p["state"], dtype=complex)
    obs = bilinear(np.diag(e)) + moment_power(np.diag(eps.astype(complex)), 2)
    builder = lambda z: nonlinear_operator(obs, z)
    traj = integrate_nls(builder, z0, p["t_end"], p["dt"], flow=obs.analytic_gradient)
    om, weight = np.array(eigenfrequencies(traj)).T
    pred = canonical_frequencies(e, eps, z0)
    dev = np.where(weight > 1e-10 * weight.sum(), np.abs(om - pred), 0.0)
    columns = {"t": np.arange(len(om), dtype=float), "weight": weight,
               "omega_measured": om, "omega_predicted": pred, "deviation": dev}
    metrics = {"max_deviation": float(np.max(dev))}
    return columns, metrics, metrics["max_deviation"] < p["tol"]


def _check_sweep(p):
    _rule(1 <= p["samples"] <= MAX_PROBABILITY_SAMPLES,
          f"samples must be between 1 and {MAX_PROBABILITY_SAMPLES}")
    _rule(p["eps"] != 0.0, "eps must be nonzero (the first-moment rule divides by it)")


def _run_probability_inconsistency(p):
    obs = canonical(p["e"], p["e"], p["eps"])
    thetas = np.linspace(0.0, np.pi / 2.0, p["samples"])
    e, eps = p["e"], p["eps"]

    def point(th):  # scalar arithmetic: a vectorised closed form moves last bits
        z = np.array([np.cos(th), np.sin(th)], dtype=complex)
        mp = moment_probabilities(obs, z)
        p_first = float(mp.first_moment[1])
        p_star = float(mp.star_square[1])
        s2 = float(np.cos(2.0 * th) ** 2)
        cf_star = ((4.0 * eps ** 2 + 2.0 * e * eps) * s2
                   - 3.0 * eps ** 2 * s2 ** 2) / (2.0 * e * eps + eps ** 2)
        return (p_first, p_star, mp.discrepancy,
                max(abs(p_first - s2), abs(p_star - cf_star)))

    p_first, p_star, disc, closed_dev = np.array([point(th) for th in thetas]).T
    metrics = {"max_discrepancy": float(np.max(disc)),
               "closed_form_deviation": float(np.max(closed_dev))}
    return ({"t": thetas, "p_first_moment": p_first, "p_star_square": p_star,
             "discrepancy": disc}, metrics, metrics["closed_form_deviation"] < 1e-9)


def _telegraph(rep):
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
    return {"t": rep.times, "signal": rep.signal}, metrics, ok


def _each(ps, *keys):
    """The values of each field ``keys`` over the scenarios ``ps``, one list a field."""
    return [[p[k] for p in ps] for k in keys]


def _run_gisins(ps):
    """The scenarios of ``ps`` (one step size) as one stack, one row each."""
    alpha, beta, eps, t_end, dt, e1, e2 = _each(ps, "alpha", "beta", "eps", "t_end", "dt",
                                                "e1", "e2")
    reps = composite.gisin_telegraph(alpha, beta, eps, t_end, dt, e1=e1, e2=e2)
    return [lambda r=r: _telegraph(r) for r in reps]


def _run_mobilities(ps):
    """The scenarios of ``ps`` (one step size) as one stack, one row each."""
    reps = composite.mobility_telegraph(*_each(ps, "eps", "tilt", "t_end", "dt"))
    return [lambda r=r: _telegraph(r) for r in reps]


def _check_pair(p):
    composite._preparation_unitary(p["alpha"], p["beta"])


def _run_no_signalings(ps):
    """The scenarios of ``ps`` (one description and step size) as one stack,
    two rows each: the singlet and its rotated copy."""
    us = [composite._preparation_unitary(p["alpha"], p["beta"]) for p in ps]
    eps, e1, e2, t_end, dt = _each(ps, "eps", "e1", "e2", "t_end", "dt")
    reps = composite.no_signaling_check(ps[0]["description"], us, t_end, dt,
                                        eps=eps, e1=e1, e2=e2)

    def result(p, rep):
        metrics = {"max_deviation": rep.max_deviation}
        ok = rep.max_deviation < 1e-8 if p["expect"] == "silent" else rep.max_deviation > 1e-2
        return {"t": rep.times, "deviation": rep.deviations}, metrics, ok
    return [lambda p=p, rep=rep: result(p, rep) for p, rep in zip(ps, reps)]


def _dt_eff(width):
    """The group key of a wave flow of ``width`` entries a sample: its step
    size t_end/nsteps (raises over the step or sample cap)."""
    return lambda p: _step_grid(p["t_end"], p["dt"], width=width)[1]


def _mixture(p):
    """A reduced-flow scenario's epshat and rho0."""
    eps = np.diag(np.asarray(p["eps_levels"], dtype=complex))
    rho0 = np.diag(np.asarray(p["rho_diag"], dtype=complex))
    rho0[0, 1] += p["delta"]
    rho0[1, 0] += p["delta"]
    return eps, rho0


def _reduced_flow_result(rho0, plain, purity):
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
    a, b = plain.rhos[:, 0, 1], purity.rhos[:, 0, 1]
    return ({"t": plain.times, "re_plain": a.real, "im_plain": a.imag, "re_purity": b.real,
             "im_purity": b.imag}, metrics, abs(ratio - predicted) < 1e-4)


_VARIANTS = ("plain", "purity-weighted")


def _run_reduced_flows(ps):
    """Both flows of every scenario of ``ps`` (one grid, one level count) as one
    stack.  An integration error that names a row names its flow instead, and
    its ``row`` is the scenario's index.  A lone scenario that the stack
    refuses before integrating (its two flows pass the sample cap together)
    runs each flow as its own call."""
    eps, rho0 = (np.repeat(np.stack(m), 2, axis=0) for m in zip(*map(_mixture, ps)))
    t_end, dt = ps[0]["t_end"], ps[0]["dt"]
    try:
        traj = composite.polchinski_reduced_flow(_VARIANTS * len(ps), eps, rho0, t_end, dt)
        flows = [composite.ReducedFlowTrajectory(traj.times, traj.rhos[:, k])
                 for k in range(2 * len(ps))]
    except IntegrationError as e:
        if e.row is None:
            raise
        member, k = divmod(e.row, 2)
        raise IntegrationError(str(e).replace(_in_row(e.row), f" in the {_VARIANTS[k]} flow"),
                               t=e.t, row=member) from None
    except ValidationError:
        if len(ps) > 1:
            raise
        flows = [composite.polchinski_reduced_flow(v, eps[0], rho0[0], t_end, dt)
                 for v in _VARIANTS]
    return [lambda b=b: _reduced_flow_result(rho0[2 * b], flows[2 * b], flows[2 * b + 1])
            for b in range(len(ps))]


def _check_atom(p):
    _rule(p["compare"] == "none" or p["level"] in (0, 1),
          "compare needs level 0 or 1 (the coupled pair)")
    _rule(p["photons"] < p["n_max"],
          "photons must be below n_max (the top Fock layer is the truncation sentinel)")


def _atom_params(p):
    return atom_mod.AtomFieldParams(
        omega_levels=tuple(p["omega_levels"]),
        eps_levels=tuple(p["eps_levels"]),
        omega=p["omega"], q=p["q"], n_max=p["n_max"])


def _atom_key(p):
    """An atom scenario's structure (description, n_max, level count) and step
    size t_end/nsteps; raises for a scenario over the state-dimension, step or
    sample cap, which then runs alone."""
    shape = _atom_params(p)
    return (p["description"], p["n_max"], shape.n_levels,
            _step_grid(p["t_end"], p["dt"], width=shape.n_levels * shape.field_dim)[1])


def _run_atom_inversions(ps):
    """The scenarios of ``ps`` (one key) as one RK4 stack, longest horizon
    first, each row up to its own horizon; a lone scenario runs on the
    one-state path.  An integration error's ``row`` is the scenario's index."""
    order = sorted(range(len(ps)), key=lambda b: -ps[b]["t_end"])
    params = [_atom_params(ps[b]) for b in order]
    z0 = [atom_mod.product_state(x, ps[b]["level"], ps[b]["photons"])
          for x, b in zip(params, order)]
    t_end, dt = ([ps[b][k] for b in order] for k in ("t_end", "dt"))
    if len(ps) == 1:
        builder = atom_mod.build_atom_field(ps[0]["description"], params[0])
        series = [atom_mod.inversion_trajectory(builder, z0[0], t_end[0], dt[0])]
    else:
        builder = atom_mod.build_atom_field(ps[0]["description"], params)
        try:
            series = atom_mod.inversion_trajectory(builder, np.stack(z0), t_end, dt)
        except IntegrationError as e:
            if e.row is None:
                raise
            raise IntegrationError(str(e).replace(_in_row(e.row), _in_row(order[e.row])),
                                   t=e.t, row=order[e.row]) from None
    member = dict(zip(order, zip(params, series)))
    return [lambda b=b: _atom_result(ps[b], *member[b]) for b in range(len(ps))]


def _atom_result(p, params, series):
    metrics = {"leak": series.leak}
    columns = {"t": series.times, "w": series.w}
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
        columns["w_closed"] = wc
        passed = dev < p["tol"]
    return columns, metrics, passed


def _run_bloch(p):
    r0 = np.asarray(p["r0"], dtype=float)
    bp = BlochParams(delta=p["delta"], omega=p["omega"], a=p["a"], eps=p["eps"],
                     rotating_frame=(p["mode"] == "rotating"))
    btraj = integrate_bloch(bp, r0, p["t_end"], p["dt"])
    columns = {"t": btraj.times, **dict(zip(("u", "v", "w"), btraj.r.T))}
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
        columns.update(zip(("u_wave", "v_wave", "w_wave"), rw.T))
        if p["mode"] == "rotating" or p["a"] == 0.0:
            passed = dev < p["tol"]
    return columns, metrics, passed


def _run_intentions(ps):
    """The scenarios of ``ps`` (one grid) as one stack, one row each."""
    rep = composite.intention_paradox(*_each(ps, "lambda1", "lambda2", "f"), ps[0]["t"],
                                      ps[0]["dt"])

    def result(b):
        metrics = {"x_value": rep.x_value[b], "analytic_gap": rep.analytic_gap[b],
                   "duality_gap": rep.duality_gap[b], "sigma3_final": rep.sigma3_final[b],
                   "sigma3_predicted": rep.sigma3_predicted[b]}
        passed = metrics["analytic_gap"] < 1e-8 and metrics["duality_gap"] < 1e-8
        return ({"t": rep.times, "sigma3": rep.sigma3_series[:, b],
                 "sigma3_predicted": rep.sigma3_predicted_series[:, b]}, metrics, passed)
    return [lambda b=b: result(b) for b in range(len(ps))]


# name: (description, fields, runner, static rule run by the schema pass or
# None, group key or None).  Without a group key the runner maps one params
# dict to its result.  With one, the scenarios whose keys are exactly equal
# form a group, whose params the runner integrates as one RK4 stack; it
# returns one finisher per member, which gives that member's result.
EXPERIMENTS = {
    "eigen-census": (
        "enumerate nonlinear eigenstates of a two-level moment family",
        _FAMILY_FIELDS + (
            Field("grid", "int_list", default=[32, 16],
                  help=f"seed grid (theta, phi), at most {MAX_SEEDS} seeds"),
            Field("expected_count", "int", default=-1,
                  help="fail unless this many distinct states (-1 disables)"),
        ),
        _run_eigen_census, _check_family, None),
    "diagonal-census": (
        "eigenvalues of the state-dependent operator at a given state",
        _FAMILY_FIELDS + (
            Field("state", "complex_list", required=True, help="amplitude vector"),
        ),
        _run_diagonal_census, _check_diagonal, None),
    "eigenfrequency": (
        "trajectory phase rates of a diagonal family vs the closed form",
        (Field("e_levels", "real_list", required=True),
         Field("eps_levels", "real_list", required=True),
         Field("state", "complex_list", required=True),
         Field("t_end", "real", default=30.0),
         Field("dt", "real", default=0.01),
         Field("tol", "real", default=1e-5)),
        _run_eigenfrequency, _check_levels, None),
    "probability-inconsistency": (
        "two moment-based probability rules disagree for a degenerate family",
        (Field("e", "real", default=1.0),
         Field("eps", "real", default=0.1),
         Field("samples", "int", default=41,
               help=f"sweep points, 1 to {MAX_PROBABILITY_SAMPLES}")),
        _run_probability_inconsistency, _check_sweep, None),
    "gisin-telegraph": (
        "remote-preparation telegraph under the slice-sum pair extension",
        _PAIR_FIELDS + (
            Field("t_end", "real", default=40.0),
            Field("dt", "real", default=0.05),
        ),
        _run_gisins, _check_pair, _dt_eff(4)),
    "mobility-telegraph": (
        "telegraph from a tilted correlation basis",
        (Field("eps", "real", default=0.1),
         Field("tilt", "real", default=float(np.pi / 8.0)),
         Field("t_end", "real", default=40.0),
         Field("dt", "real", default=0.05)),
        _run_mobilities, None, _dt_eff(4)),
    "no-signaling": (
        "does a remote unitary move the local reduced state?",
        (Field("description", "str", default="polchinski-plain",
               choices=("polchinski-plain", "polchinski-purity", "weinberg")),)
        + _PAIR_FIELDS + (
            Field("t_end", "real", default=5.0),
            Field("dt", "real", default=0.01),
            Field("expect", "str", default="silent", choices=("silent", "signal")),
        ),
        _run_no_signalings, _check_pair,
        lambda p: (p["description"], _dt_eff(8)(p))),
    "reduced-flow-variants": (
        "reduced-flow rotation rate: plain vs purity-weighted extension",
        (Field("eps_levels", "real_list", default=[1.0, -1.0]),
         Field("rho_diag", "real_list", default=[0.75, 0.25]),
         Field("delta", "real", default=1e-5, help="off-diagonal seed"),
         Field("t_end", "real", default=20.0),
         Field("dt", "real", default=0.01)),
        _run_reduced_flows,
        lambda p: _rule(2 <= len(p["eps_levels"]) == len(p["rho_diag"]),
                        "eps_levels and rho_diag must have equal length, at least 2"),
        lambda p: (p["t_end"], p["dt"], len(p["eps_levels"]))),
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
        _run_atom_inversions, _check_atom, _atom_key),
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
            "r0 must have three components, and |r0| = 1 for compare_wave"), None),
    "intention-paradox": (
        "mixture-composition-dependent rotation of a density matrix",
        (Field("lambda1", "real", default=0.5),
         Field("lambda2", "real", default=0.5),
         Field("f", "real", default=1.0),
         Field("t", "real", default=float(np.pi)),
         Field("dt", "real", default=0.001)),
        _run_intentions,
        lambda p: composite._check_weights(p["lambda1"], p["lambda2"]),
        lambda p: (p["t"], p["dt"])),
}


# ---------------------------------------------------------------------------
# Output plumbing


def _write_csv(path: str, header, rows) -> None:
    """Write ``header`` and the float array ``rows`` at 17 significant digits."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


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


def _attempt(run, arg):
    """``run(arg)``, or the exception it raised: one failed scenario never stops
    the run.  An exception outside ``_EXPECTED_ERRORS`` also prints its traceback."""
    try:
        return run(arg)
    except Exception as e:
        if not isinstance(e, _EXPECTED_ERRORS):
            import traceback  # only on this path: it adds to every start-up

            traceback.print_exc(file=sys.stderr)
        return e


def _with_rows(result):
    """A runner's result as ``(header, rows, metrics, passed)``; the rows are a
    copy, so a waiting member holds no view of its group's stack."""
    columns, metrics, passed = result
    return list(columns), np.column_stack(list(columns.values())), metrics, passed


def _group_outcomes(exp: str, ps: list) -> list:
    """``(header, rows, metrics, passed)``, or the exception raised, of each
    scenario of one group (of one scenario, whose run is its finisher, if the
    experiment has no group key).

    Each member's finisher runs on its own, so an error raised there is that
    member's alone.  An expected error of the stack whose ``row`` names a
    member runs that member alone, so its outcome is its solo run's, and the
    others again as one group; one without a ``row`` runs every member alone.
    Any other error is every member's.
    """
    _, _, run, _, group = EXPERIMENTS[exp]
    finishers = [lambda p=p: run(p) for p in ps] if group is None else _attempt(run, ps)
    if not isinstance(finishers, Exception):
        return [_attempt(lambda f: _with_rows(f()), f) for f in finishers]
    if len(ps) == 1 or not isinstance(finishers, _EXPECTED_ERRORS):
        return [finishers] * len(ps)
    m = getattr(finishers, "row", None)
    if m is None:
        return [out for p in ps for out in _group_outcomes(exp, [p])]
    solo, rest = _group_outcomes(exp, [ps[m]]), _group_outcomes(exp, ps[:m] + ps[m + 1:])
    return rest[:m] + solo + rest[m:]


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
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:  # a file in the way, or a path through one
        print(f"output error: {e}", file=sys.stderr)
        return 2
    groups = {}
    for i, (_, exp, params) in enumerate(prepared):
        group = EXPERIMENTS[exp][4]
        try:  # a scenario whose key cannot be computed (one over a cap) runs alone
            key = i if group is None else (exp, group(params))
        except ValidationError:
            key = i
        groups.setdefault(key, []).append(i)
    first = {members[0]: members for members in groups.values()}
    pending, all_ok, all_written = {}, True, True
    for i, (name, exp, params) in enumerate(prepared):
        if i in first:  # the group runs at its first member; the others wait their turn
            members = first[i]
            pending.update(zip(members, _group_outcomes(exp, [prepared[k][2] for k in members])))
        outcome = pending.pop(i)
        report = {"experiment": exp, "name": name, "params": params}
        if isinstance(outcome, Exception):
            passed, status = False, f"FAIL ({exp}) — {outcome}"
            report.update(passed=passed, error_type=type(outcome).__name__, error=str(outcome))
        else:
            header, rows, metrics, passed = outcome
            status = f"{'pass' if passed else 'FAIL'} ({exp})"
            report.update(csv=f"{name}.csv", metrics=metrics, passed=bool(passed))
        try:  # a file that cannot be written costs its scenario's outputs, not the run
            if "csv" in report:
                _write_csv(os.path.join(out, report["csv"]), header, rows)
            _write_report(os.path.join(out, f"{name}.report.json"), report)
        except OSError as e:
            print(f"output error: {e}", file=sys.stderr)
            all_written = False
        print(f"{name}: {status}")
        all_ok = all_ok and passed
    return 2 if not all_written else 0 if all_ok else 1


def _read_csv(path):
    """The header and the float rows of a CSV file; :class:`ValidationError`
    naming the file for one without a header or with a row whose field count
    is not its header's."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        _rule(header is not None, f"{path} has no header")
        rows = []
        for k, row in enumerate(rd, 1):
            _rule(len(row) == len(header),
                  f"row {k} of {path} has {len(row)} fields, its header {len(header)}")
            rows.append([float(x) for x in row])
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
    except (OSError, ValueError) as e:  # ValidationError is a ValueError
        print(f"compare error: {e}", file=sys.stderr)
        return 2
    diff = a[:, 1:] - b[:, 1:]
    if args.norm == "linf":
        val = float(np.max(np.abs(diff))) if diff.size else 0.0
    else:
        val = float(np.sqrt(np.sum(diff ** 2)))
    print(f"{args.norm} difference: {val:.17g}")
    return 0 if val <= args.tol else 1


def _cmd_list(_args) -> int:
    for name, (desc, fields, _runner, _check, _group) in EXPERIMENTS.items():
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


if __name__ == "__main__":
    sys.exit(main())
