"""Time evolution: the nonlinear Schrodinger flow and optical Bloch systems.

The central flow is  i dpsi/dt = H_hat(psi) psi  with H_hat the state-dependent
Hermitian operator of a (1,1)-homogeneous average-energy functional.  The
integrator is a fixed-step classical Runge-Kutta scheme; the norm is *not*
re-imposed along the way — its conservation (exact for the true flow because
H_hat is Hermitian) is monitored as an accuracy check instead.

Also here: the closed-form solution for diagonal quadratic families, the
two-level Bloch system with spontaneous-emission and mean-field terms (in two
algebraically inequivalent published forms), and Jacobi elliptic functions
computed by the arithmetic-geometric mean, which the two-level atom inversion
needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import StateVector, ValidationError, sigma1, sigma2, sigma3, identity2

__all__ = [
    "IntegrationError",
    "Trajectory",
    "BlochParams",
    "BlochTrajectory",
    "integrate_nls",
    "default_timestep",
    "canonical_solution",
    "integrate_bloch",
    "neo_hamiltonian",
    "jacobi_elliptic",
    "ellipk",
]

HERMITICITY_STEP_TOL = 1e-8
NORM_DRIFT_PER_STEP = 1e-6
MAX_STEPS = 1_000_000


class IntegrationError(RuntimeError):
    """Integration left its validity envelope (drift, hermiticity, blow-up)."""


class Trajectory:
    """Sampled solution of the nonlinear flow.

    The samples are one complex array of shape ``(len(times), d)``, row k the
    amplitudes at ``times[k]``.  :meth:`amplitudes` returns that array itself,
    read-only; ``states`` builds a :class:`StateVector` per row on demand.
    Construct from ``amplitudes=`` (the array is taken over without a copy
    and made read-only) or, equivalently, from a list of ``states``.  Either
    way every entry must be finite.

    ``recorded`` always carries ``norm`` (squared norm) and ``hvalue`` (the
    energy functional's value) sampled at every accepted step, plus any
    user-supplied recorder outputs.
    """

    def __init__(self, times, states=None, recorded=None, *, amplitudes=None):
        if (states is None) == (amplitudes is None):
            raise ValidationError("give exactly one of states and amplitudes")
        if amplitudes is None:
            amplitudes = np.stack([s.amplitudes for s in states])
        amps = np.asarray(amplitudes, dtype=complex)
        self.times = np.asarray(times, dtype=float)
        if amps.ndim != 2 or amps.shape[0] != self.times.size or amps.shape[1] == 0:
            raise ValidationError(f"amplitudes of shape {amps.shape} do not fit "
                                  f"{self.times.size} sample times")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitudes contain non-finite entries")
        amps.flags.writeable = False
        self._amplitudes = amps
        self.recorded = {} if recorded is None else recorded

    def amplitudes(self) -> np.ndarray:
        """The ``(len(times), d)`` sample array, read-only and not copied."""
        return self._amplitudes

    @property
    def states(self) -> list:
        return [StateVector(z) for z in self._amplitudes]


def _as_matrix(h) -> np.ndarray:
    return np.asarray(getattr(h, "entries", h), dtype=complex)


def _step_grid(t_end: float, dt: float, min_steps: int = 1):
    """Fixed RK4 step grid ``(nsteps, dt_eff)`` that lands exactly on t_end.

    ``nsteps = max(1, round(t_end/dt))`` for t_end > 0 and ``min_steps`` for
    t_end = 0; ``dt_eff = t_end/nsteps`` (0 without steps).  Raises
    :class:`ValidationError` unless dt is finite and positive, t_end is
    finite and nonnegative, their ratio is finite and the grid has at most
    ``MAX_STEPS`` steps (each loop preallocates its samples).
    """
    dt, t_end = float(dt), float(t_end)
    if not (np.isfinite(dt) and dt > 0.0 and np.isfinite(t_end) and t_end >= 0.0
            and np.isfinite(t_end / dt)):
        raise ValidationError(
            f"need finite dt > 0 and finite t_end >= 0 (got dt = {dt:g}, t_end = {t_end:g})")
    nsteps = max(1, int(round(t_end / dt))) if t_end > 0 else min_steps
    if nsteps > MAX_STEPS:
        raise ValidationError(
            f"step grid of {nsteps:.3g} steps exceeds the cap of {MAX_STEPS:,} "
            f"(dt = {dt:g}, t_end = {t_end:g})")
    return nsteps, (t_end / nsteps if nsteps else 0.0)


def integrate_nls(hbuilder: Callable, psi0, t_end: float, dt: Optional[float] = None,
                  record: Optional[dict] = None, *,
                  flow: Optional[Callable] = None) -> Trajectory:
    """Integrate  i dpsi/dt = hbuilder(psi) psi  from 0 to t_end.

    ``hbuilder`` maps an amplitude vector to a Hermitian matrix (ndarray or
    wrapper with ``.entries``).  Fixed-step RK4; the step count is
    ``round(t_end/dt)`` so the final time is hit exactly.  Each accepted step
    checks hermiticity of the freshly built matrix and the cumulative norm
    drift against a budget proportional to the step count; violations raise
    :class:`IntegrationError` rather than silently renormalizing.

    ``flow`` maps an amplitude vector z to the product ``hbuilder(z) @ z``,
    i.e. the Wirtinger gradient dH/dpsibar of the energy functional (for a
    :class:`HomogeneousObservable`, its ``analytic_gradient``).  When given,
    the RK4 stages k2-k4 call ``flow`` instead of building the d x d matrix,
    and ``hbuilder`` runs exactly once per accepted step (nsteps + 1 times):
    that build feeds k1, the hermiticity monitor and the ``hvalue`` record.
    The contract is ``flow(z) == hbuilder(z) @ z`` up to roundoff; it is not
    checked.  Omitted, ``flow`` defaults to ``hbuilder(z) @ z``.

    ``record`` maps names to callables ``f(t, psi) -> float`` sampled at every
    step including t = 0.

    ``psi0`` is validated once as a :class:`StateVector`; every accepted step
    is written into one preallocated ``(nsteps + 1, d)`` array, which the
    returned :class:`Trajectory` holds, and the per-step blow-up check keeps
    every row finite.
    """
    z0 = (psi0 if isinstance(psi0, StateVector) else StateVector(psi0)).amplitudes
    if dt is None:
        dt = default_timestep(hbuilder, z0)
    nsteps, dt_eff = _step_grid(t_end, dt, min_steps=0)
    budget = NORM_DRIFT_PER_STEP * max(nsteps, 1)
    if flow is None:
        flow = lambda zv: _as_matrix(hbuilder(zv)) @ zv

    def rhs(zv):
        return -1j * np.asarray(flow(zv), dtype=complex)

    extra = record or {}
    rec = {name: np.empty(nsteps + 1) for name in ["norm", "hvalue", *extra]}
    times = np.empty(nsteps + 1)
    amps = np.empty((nsteps + 1, z0.size), dtype=complex)
    z = np.array(z0)
    n0 = float(np.vdot(z, z).real)

    t = 0.0
    for step in range(nsteps + 1):
        h_here = _as_matrix(hbuilder(z))
        herm = float(np.max(np.abs(h_here - h_here.conj().T)))
        if herm > HERMITICITY_STEP_TOL * (1.0 + float(np.max(np.abs(h_here)))):
            raise IntegrationError(
                f"builder returned a non-Hermitian matrix at t = {t:g} "
                f"(deviation {herm:.3e})")
        norm = float(np.vdot(z, z).real)
        if abs(norm - n0) > budget:
            raise IntegrationError(
                f"norm drift {abs(norm - n0):.3e} exceeded budget {budget:.3e} "
                f"at t = {t:g}; reduce dt")
        times[step] = t
        amps[step] = z
        hz = h_here @ z
        rec["norm"][step] = norm
        rec["hvalue"][step] = float(np.vdot(z, hz).real)
        for name, f in extra.items():
            rec[name][step] = float(f(t, z))
        if step == nsteps:
            break
        k1 = (-1j) * hz
        k2 = rhs(z + 0.5 * dt_eff * k1)
        k3 = rhs(z + 0.5 * dt_eff * k2)
        k4 = rhs(z + dt_eff * k3)
        z = z + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (step + 1) * dt_eff
        if not np.all(np.isfinite(z)):
            raise IntegrationError(f"solution blew up at t = {t:g}")

    return Trajectory(times=times, amplitudes=amps, recorded=rec)


def default_timestep(hbuilder: Callable, psi0) -> float:
    """Resolve the fastest initial frequency with ~200 samples per period."""
    z = psi0.amplitudes if isinstance(psi0, StateVector) else np.asarray(psi0, dtype=complex)
    h = _as_matrix(hbuilder(z))
    top = float(np.max(np.abs(np.linalg.eigvalsh((h + h.conj().T) / 2.0))))
    return (2.0 * np.pi / 200.0) / max(top, 1e-6)


def canonical_solution(e_levels, eps_levels, psi0, times) -> Trajectory:
    """Exact solution for the diagonal family H = sum E_k n_k + eps-moment^2.

    Every amplitude rotates rigidly:  psi_k(t) = psi_k(0) exp(-i omega_k t)
    with omega_k = E_k + 2 <eps> eps_k - <eps>^2 and <eps> the normalized
    average of the eps levels in the initial state (a constant of motion).
    """
    z0 = psi0.amplitudes if isinstance(psi0, StateVector) else np.asarray(psi0, dtype=complex)
    e = np.asarray(e_levels, dtype=float)
    eps = np.asarray(eps_levels, dtype=float)
    n = float(np.vdot(z0, z0).real)
    avg = float(np.sum(eps * np.abs(z0) ** 2) / n)
    omega = e + 2.0 * avg * eps - avg ** 2
    times = np.asarray(times, dtype=float)
    amps = z0 * np.exp(-1j * omega * times[:, None])
    norms = np.full(times.shape, n)
    return Trajectory(times=times, amplitudes=amps, recorded={"norm": norms})


# ---------------------------------------------------------------------------
# Bloch systems


@dataclass(frozen=True)
class BlochParams:
    """Two-level Bloch parameters: detuning, drive, damping, mean-field.

    ``delta`` is the detuning, ``omega`` the Rabi drive, ``a`` the
    spontaneous-emission coefficient and ``eps`` the mean-field strength.
    Two published forms of the damped equations circulate that differ in one
    sign of an (a/2) cross term; they coincide when a = 0.  The default
    (``rotating_frame=False``) integrates the fixed-frame form whose length
    leak is d|r|^2/dt = -2 a w v^2; ``rotating_frame=True`` integrates the
    precession form r' = (Delta e3 + Omega e1 + omega_tilde) x r + pump, which
    conserves |r|^2 when the pump vanishes and matches the wave-equation flow.
    """

    delta: float
    omega: float
    a: float = 0.0
    eps: float = 0.0
    rotating_frame: bool = False

    def omega_tilde(self, r) -> np.ndarray:
        """State-dependent precession vector (-a v/2, a u/2, 2 eps w)."""
        u, v, w = r
        return np.array([-0.5 * self.a * v, 0.5 * self.a * u, 2.0 * self.eps * w])


@dataclass
class BlochTrajectory:
    times: np.ndarray
    r: np.ndarray  # shape (nsteps+1, 3)

    def length_squared(self) -> np.ndarray:
        return np.sum(self.r ** 2, axis=1)


def _bloch_rhs(p: BlochParams, r: np.ndarray) -> np.ndarray:
    u, v, w = r
    wt1, wt2, wt3 = p.omega_tilde(r)
    du = -p.delta * v - wt3 * v + wt2 * w
    dw = -p.omega * v - wt2 * u + wt1 * v
    if p.rotating_frame:
        dv = p.delta * u + p.omega * w + wt3 * u - wt1 * w
    else:
        # Fixed-frame published form: the only difference is the sign of the
        # (a/2) v w cross term in dv.
        dv = p.delta * u + p.omega * w + wt3 * u + wt1 * w
    return np.array([du, dv, dw])


def integrate_bloch(params: BlochParams, r0, t_end: float, dt: float) -> BlochTrajectory:
    """Fixed-step RK4 for the Bloch system; guards against runaway length."""
    r = np.asarray(r0, dtype=float).copy()
    if r.shape != (3,):
        raise ValidationError("Bloch state must be a 3-vector (u, v, w)")
    nsteps, dt_eff = _step_grid(t_end, dt)
    cap = 4.0 * float(np.dot(r, r)) + 1.0
    times = np.empty(nsteps + 1)
    out = np.empty((nsteps + 1, 3))
    for step in range(nsteps + 1):
        times[step] = step * dt_eff
        out[step] = r
        if float(np.dot(r, r)) > cap:
            raise IntegrationError(
                f"Bloch vector length ran away at t = {times[step]:g} "
                f"(|r|^2 = {float(np.dot(r, r)):g})")
        if step == nsteps:
            break
        k1 = _bloch_rhs(params, r)
        k2 = _bloch_rhs(params, r + 0.5 * dt_eff * k1)
        k3 = _bloch_rhs(params, r + 0.5 * dt_eff * k2)
        k4 = _bloch_rhs(params, r + dt_eff * k3)
        r = r + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return BlochTrajectory(times=times, r=out)


def neo_hamiltonian(a: float, eps: float, base=None) -> Callable:
    """Wave-equation counterpart of the Bloch precession form.

    Returns a builder psi -> H_hat(psi) whose flow reproduces the
    ``rotating_frame`` Bloch trajectories through the usual Pauli averages:

        H_hat = base - (eps/2)<s3>^2 - (a/4)<s2> s1 + (a/4)<s1> s2
                     + eps <s3> s3

    with normalized averages.  The average energy <H_hat> contains no
    damping contribution; the a-terms enter only through the commutator.
    """
    b = np.zeros((2, 2), dtype=complex) if base is None else _as_matrix(base)

    def builder(z):
        zv = z.amplitudes if isinstance(z, StateVector) else np.asarray(z, dtype=complex)
        n = float(np.vdot(zv, zv).real)
        s1 = float(np.vdot(zv, sigma1 @ zv).real) / n
        s2 = float(np.vdot(zv, sigma2 @ zv).real) / n
        s3 = float(np.vdot(zv, sigma3 @ zv).real) / n
        return (b - 0.5 * eps * s3 ** 2 * identity2
                - 0.25 * a * s2 * sigma1 + 0.25 * a * s1 * sigma2
                + eps * s3 * sigma3)

    return builder


# ---------------------------------------------------------------------------
# Jacobi elliptic functions (arithmetic-geometric mean / descending Landen)


def ellipk(k: float) -> float:
    """Complete elliptic integral K(k) in the modulus convention.

    AGM iteration; K(0) = pi/2 and K(k) -> inf as k -> 1.  See DLMF 19.8.
    """
    if not 0.0 <= k < 1.0:
        raise ValidationError(f"modulus must satisfy 0 <= k < 1, got {k}")
    a, b = 1.0, float(np.sqrt(1.0 - k * k))
    for _ in range(64):
        if abs(a - b) < 1e-16 * a:
            break
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def jacobi_elliptic(u, k: float):
    """Jacobi sn, cn, dn with modulus k (not the parameter m = k^2).

    Descending Landen transform driven by the AGM, DLMF 22.20: build the AGM
    ladder a_n, b_n, c_n, seed phi_N = 2^N a_N u, then fold back with
    phi_{n-1} = (phi_n + asin(c_n sin(phi_n)/a_n))/2.  Accurate to ~1e-12
    across the open modulus range; the k -> 0 and k -> 1 limits are handled
    as trigonometric / hyperbolic special cases.
    """
    u = np.asarray(u, dtype=float)
    if not 0.0 <= k <= 1.0:
        raise ValidationError(f"modulus must satisfy 0 <= k <= 1, got {k}")
    if k < 1e-12:
        return np.sin(u), np.cos(u), np.ones_like(u)
    kp = np.sqrt(max(0.0, 1.0 - k * k))
    if kp < 1e-12:
        return np.tanh(u), 1.0 / np.cosh(u), 1.0 / np.cosh(u)

    a_list = [1.0]
    b_val = float(kp)
    c_list = [float(k)]
    while c_list[-1] > 1e-16 and len(a_list) < 32:
        a_next = 0.5 * (a_list[-1] + b_val)
        c_next = 0.5 * (a_list[-1] - b_val)
        b_val = float(np.sqrt(a_list[-1] * b_val))
        a_list.append(a_next)
        c_list.append(c_next)

    nlev = len(a_list) - 1
    phi = (2.0 ** nlev) * a_list[nlev] * u
    phi_prev = phi
    for n in range(nlev, 0, -1):
        arg = np.clip(c_list[n] * np.sin(phi) / a_list[n], -1.0, 1.0)
        phi_next = 0.5 * (phi + np.arcsin(arg))
        phi_prev = phi
        phi = phi_next
    sn = np.sin(phi)
    cn = np.cos(phi)
    cosdiff = np.cos(phi_prev - phi)
    dn = np.where(np.abs(cosdiff) > 1e-8,
                  cn / np.where(np.abs(cosdiff) > 1e-8, cosdiff, 1.0),
                  np.sqrt(np.clip(1.0 - (k * sn) ** 2, 0.0, 1.0)))
    return sn, cn, dn
