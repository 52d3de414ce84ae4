"""Nonlinear spectral notions: eigenvalues, diagonal values, eigenfrequencies.

The three measurement-value notions coincide for bilinear observables but
split for genuinely nonlinear ones:

* an *eigenvalue* is a number ``lam`` with ``dH/dpsibar = lam * psi`` — the
  count may exceed the space dimension;
* *diagonal values* are eigenvalues of the state-dependent Hermitian matrix
  ``H_hat(psi)`` — always dim-many, state-dependent;
* *eigenfrequencies* are the phase rates of the quasi-periodic components of
  an integrated trajectory.

The module also implements the two moment-based probability constructions for
the degenerate two-eigenvalue family and reports their mutual inconsistency.
None of the three notions is privileged anywhere in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ValidationError
from .dynamics import _fit_times
from .observables import (
    ContractError,
    HomogeneousObservable,
    SingularObservableError,
    star_product,
    nonlinear_operator,
    wirtinger_gradient,
)

__all__ = [
    "EigenstateRecord",
    "MomentProbabilities",
    "find_eigenstates",
    "diagonal_values",
    "eigenfrequencies",
    "moment_probabilities",
]

RESIDUAL_TOL = 1e-9
# A seed leaves the Newton loop once its step is below STALL_STEP while its
# residual is still above STALL_RESIDUAL: it sits at a stationary point of
# |f|^2 that is not a root and can no longer pass the 1e-10 convergence test.
STALL_RESIDUAL = 1e-6
STALL_STEP = 1e-9
MAX_SEEDS = 16_384  # seed grid cap: 32x the 512-seed grids of the bundled configs
DEDUP_FIDELITY = 1e-8
DEDUP_MODULI = 1e-6


@dataclass(frozen=True)
class EigenstateRecord:
    """One projective solution of ``dH/dpsibar = lam psi``.

    ``state`` is the normalized, gauge-fixed ``(d,)`` array (read-only);
    ``residual`` is the Euclidean norm of ``dH/dpsibar - lam psi`` there.
    """

    eigenvalue: float
    state: np.ndarray
    residual: float


@dataclass
class MomentProbabilities:
    """Both moment rules' probabilities ``(p_E, p_{E+eps})`` for the degenerate
    family, and the distance of their ``p_{E+eps}``."""

    first_moment: np.ndarray
    star_square: np.ndarray
    discrepancy: float


# ---------------------------------------------------------------------------
# Eigenstate search


def _seed_states(dim: int, grid) -> np.ndarray:
    if dim == 2:
        n_theta, n_phi = grid
        thetas = (np.arange(n_theta) + 0.5) * (np.pi / 2.0) / n_theta
        phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
        seeds = []
        for th in thetas:
            for ph in phis:
                seeds.append([np.cos(th), np.sin(th) * np.exp(1j * ph)])
        # Pole refinement: solutions can sit arbitrarily close to the basis
        # rays (they merge with them at family thresholds).
        for t in (1e-2, 1e-3, 1e-4, 1e-5):
            seeds.append([np.cos(t), np.sin(t)])
            seeds.append([np.sin(t), np.cos(t)])
        seeds.append([1.0, 0.0])
        seeds.append([0.0, 1.0])
        return np.asarray(seeds, dtype=complex)
    # dim > 2: deterministic best-effort multistart.
    seeds = list(np.eye(dim, dtype=complex))
    for i in range(dim):
        for j in range(i + 1, dim):
            for ph in (1.0, 1j, -1.0, -1j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0
                v[j] = ph
                seeds.append(v / np.sqrt(2.0))
    seeds.append(np.ones(dim, dtype=complex) / np.sqrt(dim))
    return np.asarray(seeds, dtype=complex)


def _pack(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag, lam[:, None]], axis=1)


def _residual_batch(x: np.ndarray, grad, dim: int, anchors: np.ndarray) -> np.ndarray:
    z = x[:, :dim] + 1j * x[:, dim:2 * dim]
    lam = x[:, 2 * dim]
    with np.errstate(all="ignore"):   # a row whose residual is not finite is a dropped seed
        r = grad(z) - lam[:, None] * z
        norm_eq = np.sum(np.abs(z) ** 2, axis=1) - 1.0
    gauge = z[np.arange(z.shape[0]), anchors].imag
    return np.concatenate([r.real, r.imag, norm_eq[:, None], gauge[:, None]], axis=1)


def _gauss_newton(z0: np.ndarray, lam0: np.ndarray, grad, dim: int, counters: dict,
                  iters: int = 60):
    """Damped Gauss-Newton on the batch of seeds; returns (z, lam, ok, stalled).

    Each seed stops on its own: once its residual is below 1e-13, once it
    turns non-finite (the seed is then never ``ok``), once it stalls (an
    update of max |dx| <= ``STALL_STEP`` at a residual max |f| >=
    ``STALL_RESIDUAL``; ``stalled`` marks these seeds), or after ``iters``
    iterations.  Only the rows still active are refined, and no row's update
    depends on another row.  The ``2 nvar`` central-difference probes of the
    active rows go to ``grad`` in one stacked call.  The final ``ok`` test
    (residual below 1e-10) runs over every seed.  The iterations run and
    the rows they refine are added to ``counters["newton_iterations"]`` and
    ``counters["newton_rows"]``.
    """
    nb = z0.shape[0]
    if nb == 0:  # no seed left to refine: ``grad`` is not asked about an empty batch
        return z0, lam0, np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    anchors = np.argmax(np.abs(z0), axis=1)
    x = _pack(z0, lam0)
    nvar = 2 * dim + 1
    alive = np.ones(nb, dtype=bool)
    stalled = np.zeros(nb, dtype=bool)
    active = np.arange(nb)
    h = 1e-6
    probe_steps = h * np.concatenate([np.eye(nvar), -np.eye(nvar)])  # +h e_j, then -h e_j
    for _ in range(iters):
        f = _residual_batch(x[active], grad, dim, anchors[active])
        finite = np.all(np.isfinite(f), axis=1)
        alive[active[~finite]] = False
        todo = finite & (np.max(np.abs(f), axis=1) >= 1e-13)
        active, f = active[todo], f[todo]
        if active.size == 0:
            break
        na = active.size
        counters["newton_iterations"] += 1
        counters["newton_rows"] += na
        probes = (x[active][None, :, :] + probe_steps[:, None, :]).reshape(-1, nvar)
        fp = _residual_batch(probes, grad, dim, np.tile(anchors[active], 2 * nvar))
        fp = fp.reshape(2, nvar, na, -1)
        jac = ((fp[0] - fp[1]) / (2 * h)).transpose(1, 2, 0)
        jac[~np.isfinite(jac)] = 0.0
        jtj = np.einsum("bij,bik->bjk", jac, jac)
        jtf = np.einsum("bij,bi->bj", jac, f)
        jtj += 1e-12 * np.eye(nvar)
        try:
            dx = np.linalg.solve(jtj, jtf[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dx = np.stack([np.linalg.lstsq(jtj[i], jtf[i], rcond=None)[0]
                           for i in range(na)])
        dx[~np.isfinite(dx).all(axis=1)] = 0.0
        x[active] -= dx
        stuck = ((np.max(np.abs(f), axis=1) >= STALL_RESIDUAL)
                 & (np.max(np.abs(dx), axis=1) <= STALL_STEP))
        stalled[active[stuck]] = True
        active = active[~stuck]
        if active.size == 0:
            break
    f = _residual_batch(x, grad, dim, anchors)
    ok = alive & np.all(np.isfinite(f), axis=1) & (np.max(np.abs(f), axis=1) < 1e-10)
    z = x[:, :dim] + 1j * x[:, dim:2 * dim]
    return z, x[:, 2 * dim], ok, stalled


def _checked_grid(grid) -> tuple:
    try:
        n_theta, n_phi = grid
    except (TypeError, ValueError):
        raise ValidationError(
            f"grid must be two integers (n_theta, n_phi), got {grid!r}") from None
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
               for n in (n_theta, n_phi)):
        raise ValidationError(f"grid must be two integers >= 1, got {grid!r}")
    if n_theta * n_phi > MAX_SEEDS:
        raise ValidationError(f"grid {n_theta}x{n_phi} gives {n_theta * n_phi} seeds, "
                              f"above the cap of {MAX_SEEDS}")
    return int(n_theta), int(n_phi)


def _batch_else_rows(fn, *arrays) -> tuple:
    """``fn(*arrays)``: a tuple of arrays with one row per input row kept.

    ``fn`` runs on the whole batch; if that raises
    :class:`SingularObservableError` or :class:`ValidationError`, it runs on
    each one-row slice instead, the rows that raise are dropped and the
    results are concatenated in row order.  A :class:`ContractError` (a
    callable that breaks the stack contract) is not a row's domain: it raises.
    """
    try:
        return fn(*arrays)
    except ContractError:
        raise
    except (SingularObservableError, ValidationError):
        pass
    rows = []
    for i in range(len(arrays[0])):
        try:
            rows.append(fn(*(a[i:i + 1] for a in arrays)))
        except ContractError:
            raise
        except (SingularObservableError, ValidationError):
            pass
    if not rows:  # every row raised: the result of no rows
        return fn(*(a[:0] for a in arrays))
    return tuple(np.concatenate(c) for c in zip(*rows))


def _kept(resid: np.ndarray, values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The residual and value-agreement checks of converged states; NaN fails."""
    return (resid < RESIDUAL_TOL) & (np.abs(values - lam) <= 1e-8 * (1.0 + np.abs(lam)))


def _records_batch(obs: HomogeneousObservable, z: np.ndarray, lam: np.ndarray):
    """``(lam, u, resid)`` of the converged rows ``(z, lam)`` that pass, as one batch.

    Rows are normalised, and one multiply by |p|/p makes the largest-modulus
    entry p (the first on ties) real to rounding and non-negative; a zero or
    non-finite row is dropped.
    """
    n2 = np.einsum("bi,bi->b", z.conj(), z).real
    with np.errstate(divide="ignore", invalid="ignore"):
        u = z / np.sqrt(n2)[:, None]
        pivot = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
        u = u * (np.abs(pivot) / pivot)[:, None]
    good = (n2 > 0.0) & np.all(np.isfinite(u), axis=1)
    u, lam = u[good], lam[good]
    if len(u) == 0:
        return lam, u, np.empty(0)
    resid = np.linalg.norm(wirtinger_gradient(obs, u) - lam[:, None] * u, axis=1)
    keep = _kept(resid, obs.value(u), lam)
    return lam[keep], u[keep], resid[keep]


def _distinct(lam: np.ndarray, u: np.ndarray, resid: np.ndarray) -> list:
    """Indices of the projectively distinct rows, in ascending eigenvalue order.

    Greedy over the rows in stable eigenvalue order: a row joins the first
    distinct row so far whose eigenvalue agrees to 1e-7 relative and whose
    ray agrees to ``DEDUP_FIDELITY`` or whose moduli agree to
    ``DEDUP_MODULI`` (so a relative-phase continuum is one record), and
    replaces it if its residual is lower; otherwise it is a new solution.
    """
    lams, resids = lam.tolist(), resid.tolist()
    mods = np.abs(u)
    merged: list = []
    for i in np.argsort(lam, kind="stable").tolist():
        for k, j in enumerate(merged):
            if abs(lams[i] - lams[j]) > 1e-7 * (1.0 + abs(lams[j])):
                continue
            if (abs(np.vdot(u[i], u[j])) ** 2 > 1.0 - DEDUP_FIDELITY
                    or np.max(np.abs(mods[i] - mods[j])) < DEDUP_MODULI):
                if resids[i] < resids[j]:
                    merged[k] = i
                break
        else:
            merged.append(i)
    return sorted(merged, key=lams.__getitem__)


def find_eigenstates(obs: HomogeneousObservable, dim: int, grid=(32, 16),
                     diagnostics: Optional[dict] = None):
    """All projectively distinct solutions of ``dH/dpsibar = lam psi``.

    Multistart Newton refinement from a uniform (amplitude ratio, relative
    phase) seed grid plus pole-refinement seeds.  Relative-phase continua of
    solutions (diagonal families) are merged into a single record.  dim = 2 is
    fully supported; larger dimensions get a deterministic best-effort seed
    set.

    ``grid`` must be two integers >= 1 with at most ``MAX_SEEDS`` seeds in
    all, else :class:`ValidationError` is raised before any seed is built.
    Every seed is refined until its own residual is below 1e-13 (or turns
    non-finite, or stalls: a step of at most ``STALL_STEP`` at a residual of
    at least ``STALL_RESIDUAL``), for at most 60 Gauss-Newton iterations; a
    seed converges when its final residual is below 1e-10.  Seed values, the
    Newton refinement and the checks of the converged states each run on the
    whole batch; where a batch raises :class:`SingularObservableError` or
    :class:`ValidationError`, that stage runs again one row at a time and
    drops the rows that raise (a seed dropped in the Newton stage counts as
    seeded and not converged); a :class:`~nlqm.observables.ContractError`
    raises.  The states are compared for distinctness as arrays; only the
    distinct solutions become records.

    Pass a ``diagnostics`` dict to receive the counters ``seeds``,
    ``converged``, ``dropped_nonconverged``, ``dropped_residual``,
    ``distinct``, ``newton_stalled`` (seeds the stall rule took out of the
    loop), ``newton_iterations`` (Newton iterations run) and ``newton_rows``
    (seed rows refined, summed over those iterations); the last two include a
    batch attempt given up for the row-by-row path.
    """
    # Homogeneity makes the eigenvalue equal the average in an eigenstate.
    seeds, lam0 = _batch_else_rows(lambda s: (s, obs.value(s)),
                                   _seed_states(dim, _checked_grid(grid)))
    counts = {"newton_iterations": 0, "newton_rows": 0}
    z, lam, ok, stalled = _batch_else_rows(
        lambda s, v: _gauss_newton(s, v, lambda z: wirtinger_gradient(obs, z), dim, counts),
        seeds, lam0)
    lam_k, u, resid = _batch_else_rows(lambda zs, ls: _records_batch(obs, zs, ls),
                                       z[ok], lam[ok])
    u.flags.writeable = False   # so is each record's row of it
    merged = [EigenstateRecord(float(lam_k[i]), u[i], float(resid[i]))
              for i in _distinct(lam_k, u, resid)]

    if diagnostics is not None:
        diagnostics.update({
            "seeds": len(seeds),
            "converged": int(np.sum(ok)),
            "dropped_nonconverged": len(seeds) - int(np.sum(ok)),
            "dropped_residual": int(np.sum(ok)) - len(lam_k),
            "distinct": len(merged),
            "newton_stalled": int(np.sum(stalled)),
            **counts,
        })
    return merged


def diagonal_values(obs: HomogeneousObservable, psi) -> list:
    """Eigenvalues of the state-dependent matrix ``H_hat(psi)``, ascending."""
    op = nonlinear_operator(obs, psi)
    return [float(v) for v in np.linalg.eigvalsh(op)]


# ---------------------------------------------------------------------------
# Eigenfrequencies


def eigenfrequencies(trajectory, tol: float = 1e-6):
    """Dominant frequency of every amplitude component of a trajectory.

    Returns a list of ``(omega, weight)`` pairs, one per component, with
    weights the mean squared amplitudes (they sum to the mean squared norm).
    Components carrying no amplitude report frequency 0.  Phase unwrapping is
    used when the component is single-frequency (exact for the integrable
    catalog families); otherwise the discrete-Fourier peak is taken, and the
    requested tolerance must be resolvable within the trajectory duration.
    """
    t = _fit_times(trajectory.times, "frequency extraction")
    z = trajectory.amplitudes()
    span = t[-1] - t[0]
    out = []
    for k in range(z.shape[1]):
        comp = z[:, k]
        weight = float(np.mean(np.abs(comp) ** 2))
        if weight < 1e-24:
            out.append((0.0, weight))
            continue
        theta = np.unwrap(np.angle(comp))
        slope, intercept = np.polyfit(t, theta, 1)
        if np.max(np.abs(theta - (slope * t + intercept))) < 1e-3:
            out.append((float(-slope), weight))
            continue
        # Fourier fallback for multi-frequency components.
        res = 2.0 * np.pi / span
        if res > tol:
            raise ValidationError(
                "frequency resolution insufficient: duration "
                f"{span:g} gives {res:.3e} rad/time, tolerance {tol:g} needs "
                f"duration >= {2.0 * np.pi / tol:g}")
        spec = np.fft.fft(comp * np.hanning(comp.size))
        freqs = 2.0 * np.pi * np.fft.fftfreq(comp.size, d=t[1] - t[0])
        peak = int(np.argmax(np.abs(spec)))
        out.append((float(-freqs[peak]), weight))
    return out


# ---------------------------------------------------------------------------
# Moment probabilities


def moment_probabilities(obs: HomogeneousObservable, psi) -> MomentProbabilities:
    """Probabilities for the degenerate family E1 = E2 = E by moment matching.

    The first-moment rule solves ``<H> = E p_E + (E+eps) p_{E+eps}``; the
    star-square rule solves the analogous equation with the *-square
    ``<H*H>`` and the squared values.  Both are computed from the machinery
    (functional value and *-product), not from substituted closed forms.  The
    two disagree for genuinely nonlinear states — the discrepancy is part of
    the report.  ``obs.params`` must hold the constants that
    :func:`~nlqm.observables.power_family` sets, with an even power of at least
    2 (the rules' outcomes E and E + eps), else :class:`ValidationError`.
    """
    params = obs.params
    if "e1" not in params or "e2" not in params or "eps" not in params:
        raise ValidationError("moment_probabilities needs a two-level family with E1, E2, eps")
    if params["power"] < 2 or params["power"] % 2 != 0:
        raise ValidationError("moment_probabilities needs an even power of at least 2, "
                              f"got {params['power']:g}")
    if abs(params["e1"] - params["e2"]) > 1e-12:
        raise ValidationError("moment_probabilities requires the degenerate case E1 = E2")
    e = params["e1"]
    eps = params["eps"]
    z = np.asarray(psi, dtype=complex)
    n = float(np.vdot(z, z).real)

    p = (obs.value(z) / n - e) / eps
    denom = 2.0 * e * eps + eps ** 2
    if abs(denom) < 1e-12 * max(1.0, e ** 2):
        raise SingularObservableError(
            f"star-square method singular: (E+eps)^2 - E^2 = {denom:.3e}")
    q = (star_product(obs, obs, z).real / n - e ** 2) / denom
    return MomentProbabilities(
        first_moment=np.array([1.0 - p, p]),
        star_square=np.array([1.0 - q, q]),
        discrepancy=float(abs(p - q)),
    )
