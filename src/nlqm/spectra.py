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

from .core import StateVector, ValidationError
from .observables import (
    HomogeneousObservable,
    SingularObservableError,
    star_product,
    wirtinger_gradient,
    nonlinear_operator,
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
MAX_SEEDS = 16_384  # seed grid cap: 32x the 512-seed grids of the bundled configs
DEDUP_FIDELITY = 1e-8
DEDUP_MODULI = 1e-6


@dataclass(frozen=True)
class EigenstateRecord:
    """One projective solution of ``dH/dpsibar = lam psi``.

    ``state`` is normalized and gauge-fixed; ``residual`` is the Euclidean
    norm of ``dH/dpsibar - lam psi`` at that representative.
    """

    eigenvalue: float
    state: StateVector
    residual: float


@dataclass
class MomentProbabilities:
    """Probability vector for the degenerate family by one moment method."""

    method: str
    values: tuple
    probabilities: np.ndarray
    other_probabilities: np.ndarray
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
    g = grad(z)
    r = g - lam[:, None] * z
    norm_eq = np.sum(np.abs(z) ** 2, axis=1) - 1.0
    gauge = z[np.arange(z.shape[0]), anchors].imag
    return np.concatenate([r.real, r.imag, norm_eq[:, None], gauge[:, None]], axis=1)


def _gauss_newton(z0: np.ndarray, lam0: np.ndarray, grad, dim: int, counters: dict,
                  iters: int = 60):
    """Damped Gauss-Newton on the batch of seeds; returns refined (z, lam, ok).

    Each seed stops on its own: once its residual is below 1e-13, once it
    turns non-finite (the seed is then never ``ok``), or after ``iters``
    iterations.  Only the rows still active are refined, and no row's update
    depends on another row.  The ``2 nvar`` central-difference probes of the
    active rows go to ``grad`` in one stacked call.  The iterations run and
    the rows they refine are added to ``counters["newton_iterations"]`` and
    ``counters["newton_rows"]``.
    """
    nb = z0.shape[0]
    anchors = np.argmax(np.abs(z0), axis=1)
    x = _pack(z0, lam0)
    nvar = 2 * dim + 1
    alive = np.ones(nb, dtype=bool)
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
    f = _residual_batch(x, grad, dim, anchors)
    ok = alive & np.all(np.isfinite(f), axis=1) & (np.max(np.abs(f), axis=1) < 1e-10)
    z = x[:, :dim] + 1j * x[:, dim:2 * dim]
    return z, x[:, 2 * dim], ok


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


def _seed_values(obs: HomogeneousObservable, seeds: np.ndarray):
    """``(seeds, lam0)``: the functional's value at each seed, one batch call.

    Homogeneity makes the eigenvalue equal the average in an eigenstate.  If
    the batch raises, the seeds are evaluated one by one and those that raise
    are dropped.
    """
    try:
        return seeds, obs.value_batch(seeds)
    except (SingularObservableError, ValidationError):
        pass
    lam0 = np.empty(len(seeds))
    keep = np.ones(len(seeds), dtype=bool)
    for i, s in enumerate(seeds):
        try:
            lam0[i] = obs.value(s)
        except (SingularObservableError, ValidationError):
            keep[i] = False
    return seeds[keep], lam0[keep]


def _passes(resid, value, lam) -> bool:
    """The residual and value-agreement checks of one converged state."""
    return not (resid >= RESIDUAL_TOL or abs(value - lam) > 1e-8 * (1.0 + abs(lam)))


def _records_batch(obs: HomogeneousObservable, z: np.ndarray, lam: np.ndarray) -> list:
    """The records the converged rows ``(z, lam)`` pass, checked as one batch.

    Rows are normalised and gauge-fixed as by ``StateVector.normalized`` and
    ``gauge_fixed`` (largest modulus, first index on ties, made real and
    non-negative); a zero or non-finite row is dropped.  Raises where
    :func:`_records_per_row` would drop a row for an exception.
    """
    n2 = np.einsum("bi,bi->b", z.conj(), z).real
    with np.errstate(divide="ignore", invalid="ignore"):
        u = z / np.sqrt(n2)[:, None]
        pivot = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
        u = u * (np.abs(pivot) / pivot)[:, None]
    good = (n2 > 0.0) & np.all(np.isfinite(u), axis=1)
    u, lam = u[good], lam[good]
    if len(u) == 0:
        return []
    resid = np.linalg.norm(obs.gradient_batch(u) - lam[:, None] * u, axis=1)
    values = obs.value_batch(u)
    return [EigenstateRecord(float(lam[i]), StateVector(u[i]), float(resid[i]))
            for i in range(len(u)) if _passes(resid[i], values[i], lam[i])]


def _records_per_row(obs: HomogeneousObservable, z: np.ndarray, lam: np.ndarray) -> list:
    """The records of :func:`_records_batch`, one ``StateVector`` per row."""
    records = []
    for zi, li in zip(z, lam):
        try:
            state = StateVector(zi).normalized().gauge_fixed()
            g = wirtinger_gradient(obs, state)
        except (SingularObservableError, ValidationError):
            continue
        resid = float(np.linalg.norm(g - li * state.amplitudes))
        if _passes(resid, obs.value(state), li):
            records.append(EigenstateRecord(float(li), state, resid))
    return records


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
    non-finite), for at most 60 Gauss-Newton iterations; a seed converges when
    its final residual is below 1e-10.  Seed values, the Newton steps and the
    checks of the converged states each run on the whole batch, with a
    seed-by-seed path where the batch raises.

    Pass a ``diagnostics`` dict to receive the counters ``seeds``,
    ``converged``, ``dropped_nonconverged``, ``dropped_residual``,
    ``distinct``, ``newton_iterations`` (Newton iterations run) and
    ``newton_rows`` (seed rows refined, summed over those iterations); both
    Newton counts include a batch attempt given up for the seed-by-seed path.
    """
    seeds, lam0 = _seed_values(obs, _seed_states(dim, _checked_grid(grid)))

    counts = {"newton_iterations": 0, "newton_rows": 0}
    try:
        z, lam, ok = _gauss_newton(seeds, lam0, obs.gradient_batch, dim, counts)
    except (SingularObservableError, ValidationError):
        # Singular families: refine seed-by-seed so one bad region cannot
        # poison the whole batch.
        zs, lams, oks = [], [], []
        for i in range(len(seeds)):
            try:
                zi, li, oi = _gauss_newton(seeds[i:i + 1], lam0[i:i + 1],
                                           obs.gradient_batch, dim, counts)
            except (SingularObservableError, ValidationError):
                zi, li, oi = seeds[i:i + 1], lam0[i:i + 1], np.array([False])
            zs.append(zi[0])
            lams.append(li[0])
            oks.append(oi[0])
        z, lam, ok = np.array(zs), np.array(lams), np.array(oks)

    try:
        records = _records_batch(obs, z[ok], lam[ok])
    except (SingularObservableError, ValidationError):
        records = _records_per_row(obs, z[ok], lam[ok])

    merged: list = []
    for rec in sorted(records, key=lambda r: r.eigenvalue):
        placed = False
        for k, other in enumerate(merged):
            if abs(rec.eigenvalue - other.eigenvalue) > 1e-7 * (1.0 + abs(other.eigenvalue)):
                continue
            fid = abs(np.vdot(rec.state.amplitudes, other.state.amplitudes)) ** 2
            same_ray = fid > 1.0 - DEDUP_FIDELITY
            same_moduli = np.max(np.abs(np.abs(rec.state.amplitudes)
                                        - np.abs(other.state.amplitudes))) < DEDUP_MODULI
            if same_ray or same_moduli:
                if rec.residual < other.residual:
                    merged[k] = rec
                placed = True
                break
        if not placed:
            merged.append(rec)
    merged.sort(key=lambda r: r.eigenvalue)

    if diagnostics is not None:
        diagnostics.update({
            "seeds": int(len(z)),
            "converged": int(np.sum(ok)),
            "dropped_nonconverged": int(len(z) - np.sum(ok)),
            "dropped_residual": int(np.sum(ok)) - len(records),
            "distinct": len(merged),
            **counts,
        })
    return merged


def diagonal_values(obs: HomogeneousObservable, psi) -> list:
    """Eigenvalues of the state-dependent matrix ``H_hat(psi)``, ascending."""
    op = nonlinear_operator(obs, psi)
    return [float(v) for v in np.linalg.eigvalsh(op.entries)]


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
    t = np.asarray(trajectory.times)
    if t.size < 4:
        raise ValidationError("trajectory too short for frequency extraction")
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


def moment_probabilities(obs: HomogeneousObservable, psi, method: str) -> MomentProbabilities:
    """Probabilities for the degenerate family E1 = E2 = E by moment matching.

    ``first-moment`` solves ``<H> = E p_E + (E+eps) p_{E+eps}``; ``star-square``
    solves the analogous equation with the *-square ``<H*H>`` and the squared
    values.  Both are computed from the machinery (functional value and
    *-product), not from substituted closed forms.  The two disagree for
    genuinely nonlinear states — the discrepancy is part of the report.
    """
    params = obs.params
    if "e1" not in params or "e2" not in params or "eps" not in params:
        raise ValidationError("moment_probabilities needs a two-level family with E1, E2, eps")
    if abs(params["e1"] - params["e2"]) > 1e-12:
        raise ValidationError("moment_probabilities requires the degenerate case E1 = E2")
    e = params["e1"]
    eps = params["eps"]
    z = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    n = float(np.vdot(z, z).real)

    def first_moment():
        mean = obs.value(z) / n
        return (mean - e) / eps

    def star_square():
        denom = 2.0 * e * eps + eps ** 2
        if abs(denom) < 1e-12 * max(1.0, e ** 2):
            raise SingularObservableError(
                f"star-square method singular: (E+eps)^2 - E^2 = {denom:.3e}")
        msq = star_product(obs, obs, z).real / n
        return (msq - e ** 2) / denom

    if method == "first-moment":
        p = first_moment()
        q = star_square()
    elif method == "star-square":
        p = star_square()
        q = first_moment()
    else:
        raise ValidationError(f"unknown method {method!r}")
    probs = np.array([1.0 - p, p])
    others = np.array([1.0 - q, q])
    return MomentProbabilities(
        method=method,
        values=(e, e + eps),
        probabilities=probs,
        other_probabilities=others,
        discrepancy=float(abs(p - q)),
    )
