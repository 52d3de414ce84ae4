"""Two-particle extensions of a one-particle nonlinear functional.

A (1,1)-homogeneous one-particle functional H_sub extends to a pair in
inequivalent ways, and the choice has physical consequences:

* the *faithful* extension sums H_sub over the slices of the pair amplitude
  along a chosen basis of the spectator subsystem (:func:`weinberg_composite`)
  — it depends on that basis, and a remote basis change alters the local
  reduced density matrix (a signaling channel, quantified by
  :func:`no_signaling_check`);
* the *moment* extension applies the functional form to lifted operators
  (:func:`polchinski_functional`) — basis-independent, hence signal-free, but
  the reduced dynamics then depends on the mixture's purity rather than on the
  local state alone (:func:`polchinski_reduced_flow`,
  :func:`intention_paradox`).

Telegraph scenarios (:func:`gisin_telegraph`, :func:`mobility_telegraph`)
exhibit the faithful extension's basis dependence as an oscillating local
signal with a closed-form frequency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DensityMatrix,
    StateVector,
    ValidationError,
    reduced_states,
    rotate_subsystem,
    sigma1,
    sigma2,
    sigma3,
)
from .observables import (
    HomogeneousObservable,
    SingularObservableError,
    bilinear,
    canonical,
    moment_power,
    wirtinger_gradient,
    nonlinear_operator,
)
from .dynamics import IntegrationError, Trajectory, _step_grid, integrate_nls

__all__ = [
    "TelegraphParams",
    "TelegraphReport",
    "ParadoxParams",
    "ParadoxReport",
    "ReducedFlowTrajectory",
    "NoSignalingReport",
    "lift_operator",
    "weinberg_composite",
    "gradient_flow_operator",
    "polchinski_functional",
    "polchinski_reduced_flow",
    "gisin_telegraph",
    "mobility_telegraph",
    "no_signaling_check",
    "intention_paradox",
    "maximally_mixed_decomposition",
]

SLICE_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Operator lifting and the faithful (slice-sum) extension


def lift_operator(m, dims, slot: int) -> np.ndarray:
    """Embed a one-particle matrix into the pair space: m (x) 1 or 1 (x) m."""
    m = np.asarray(m, dtype=complex)
    d0, d1 = dims
    if slot == 0:
        if m.shape != (d0, d0):
            raise ValidationError(f"operator shape {m.shape} does not fit slot 0 of {dims}")
        return np.kron(m, np.eye(d1))
    if slot == 1:
        if m.shape != (d1, d1):
            raise ValidationError(f"operator shape {m.shape} does not fit slot 1 of {dims}")
        return np.kron(np.eye(d0), m)
    raise ValidationError(f"slot must be 0 or 1, got {slot}")


def _check_unitary(u: np.ndarray, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValidationError(f"basis matrix must be {d}x{d}, got {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if dev > 1e-10:
        raise ValidationError(f"basis matrix is not unitary (deviation {dev:.3e})")
    return u


def weinberg_composite(h_sub: HomogeneousObservable, d_sub: int, d_rest: int,
                       rest_basis, *, sub_slot: int = 0) -> HomogeneousObservable:
    """Slice-sum extension of a one-particle functional to a pair.

    The pair amplitude psi_{kl} (slot 0 index k, slot 1 index l) is resolved
    along the columns u_r of ``rest_basis`` in the spectator slot, and

        H(psi) = sum_r H_sub(Phi_r),   Phi_r = <u_r|_rest psi .

    The result is (1,1)-homogeneous and additive over the slices, so when
    ``h_sub`` carries closed-form derivatives the composite does too: the
    gradient re-embeds the slice gradients through the basis, and the
    state-dependent operator is the basis-conjugated direct sum of slice
    operators.  Slices carrying squared norm below ``SLICE_FLOOR`` contribute
    nothing (value, gradient and operator alike).  The gradient and operator
    pass all remaining slices to ``h_sub`` as one batch
    (:meth:`HomogeneousObservable.gradient_batch`, ``operator_batch``).

    With ``d_rest = 1`` the construction reproduces ``h_sub`` itself.  The
    dependence on ``rest_basis`` is the whole point: it is what
    :func:`no_signaling_check` measures.
    """
    if sub_slot not in (0, 1):
        raise ValidationError(f"sub_slot must be 0 or 1, got {sub_slot}")
    u = _check_unitary(rest_basis, d_rest)
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    dim_total = d_sub * d_rest

    def slices(z: np.ndarray) -> np.ndarray:
        t = z.reshape(dims)
        if sub_slot == 0:
            return (t @ u.conj()).T          # row r -> Phi_r (length d_sub)
        return u.conj().T @ t                # row r -> Phi_r

    def live_slices(z):
        """The slices and the mask of those at or above the floor."""
        sl = slices(np.asarray(z, dtype=complex))
        return sl, np.real(np.sum(sl.conj() * sl, axis=1)) >= SLICE_FLOOR

    def value(z, zc):
        z = np.asarray(z, dtype=complex)
        if z.shape != (dim_total,):
            raise ValidationError(f"state must have length {dim_total}")
        total = 0.0
        for phi in slices(z):
            if float(np.vdot(phi, phi).real) < SLICE_FLOOR:
                continue
            total += h_sub.value(phi)
        return total

    grad = None
    if h_sub.analytic_gradient is not None:
        def grad(z):
            sl, live = live_slices(z)
            gm = np.zeros((d_rest, d_sub), dtype=complex)
            if np.any(live):
                gm[live] = h_sub.gradient_batch(sl[live])
            if sub_slot == 0:
                return (gm.T @ u.T).reshape(-1)
            return (u @ gm).reshape(-1)

    op = None
    if h_sub.analytic_operator is not None:
        # full = sum_r block_r (x) |u_r><u_r| (factors swapped for slot 1),
        # contracted over r in one einsum.
        layout = "rab,lr,mr->albm" if sub_slot == 0 else "rab,lr,mr->lamb"
        uc = u.conj()

        def op(z):
            sl, live = live_slices(z)
            blocks = np.zeros((d_rest, d_sub, d_sub), dtype=complex)
            if np.any(live):
                blocks[live] = h_sub.operator_batch(sl[live])
            return np.einsum(layout, blocks, u, uc).reshape(dim_total, dim_total)

    return HomogeneousObservable(
        evaluator=value,
        label=f"slice-sum[{h_sub.label or 'h'}; slot {sub_slot}]",
        analytic_gradient=grad,
        analytic_operator=op,
        params={"d_sub": d_sub, "d_rest": d_rest, "sub_slot": sub_slot},
    )


def gradient_flow_operator(obs: HomogeneousObservable) -> Callable:
    """Hermitian generator reproducing the gradient flow of ``obs``.

    Returns a builder psi -> M(psi) with M Hermitian, scale-invariant, and
    M psi = dH/dpsibar exactly (the rank-2 completion
    (g psi+ + psi g+)/n - (H/n^2) psi psi+ — the cross terms cancel by the
    homogeneity identity <psi, g> = H).  Any Hermitian completion gives the
    same wave flow; this one needs only the gradient, so it serves functionals
    with no closed-form second derivatives (the purity-weighted extension).
    """
    def builder(z):
        zv = z.amplitudes if isinstance(z, StateVector) else np.asarray(z, dtype=complex)
        g = (np.asarray(obs.analytic_gradient(zv), dtype=complex)
             if obs.analytic_gradient is not None else wirtinger_gradient(obs, zv))
        n = float(np.vdot(zv, zv).real)
        if n < SLICE_FLOOR:
            raise SingularObservableError("gradient flow undefined at the zero vector")
        h = obs.value(zv)
        return ((np.outer(g, zv.conj()) + np.outer(zv, g.conj())) / n
                - (h / n ** 2) * np.outer(zv, zv.conj()))

    return builder


# ---------------------------------------------------------------------------
# Moment (lifted-operator) extensions


def polchinski_functional(e2: float, epshat, dims, variant: str = "plain",
                          eps: float = 1.0, slot: int = 1) -> HomogeneousObservable:
    """Basis-independent pair extension built from lifted-operator moments.

    ``plain``:           H = e2 n + eps <L>^2 / n,
    ``purity-weighted``: H = e2 n + eps <L>^2 Tr(rho_sub^2) / n^3,

    with L the lift of ``epshat`` into ``slot`` and rho_sub the reduced
    density matrix of that slot.  Both depend on the pair amplitude only
    through operator averages and the reduced state, so a remote basis change
    cannot move them.  The purity weight makes the reduced flow rate depend on
    how mixed the subsystem is — see :func:`polchinski_reduced_flow`.
    """
    d0, d1 = dims
    lifted = lift_operator(epshat, dims, slot)
    if variant == "plain":
        obs = bilinear(e2 * np.eye(d0 * d1)) + moment_power(lifted, 2, coeff=eps)
        return obs.relabeled(f"moment-pair[plain, eps={eps:g}]")
    if variant != "purity-weighted":
        raise ValidationError(f"unknown variant {variant!r}")

    d_sub = dims[slot]

    def reduced(t: np.ndarray) -> np.ndarray:
        if slot == 1:
            return np.einsum("mk,ml->kl", t, t.conj())
        return np.einsum("km,lm->kl", t, t.conj())

    def value(z, zc):
        z = np.asarray(z, dtype=complex)
        n = float(np.vdot(z, z).real)
        if n < SLICE_FLOOR:
            raise SingularObservableError("purity-weighted form undefined at the zero vector")
        m = float(np.vdot(z, lifted @ z).real)
        rho = reduced(z.reshape(dims))
        p2 = float(np.trace(rho @ rho).real)
        return e2 * n + eps * m ** 2 * p2 / n ** 3

    def grad(z):
        z = np.asarray(z, dtype=complex)
        n = float(np.vdot(z, z).real)
        if n < SLICE_FLOOR:
            raise SingularObservableError("purity-weighted form undefined at the zero vector")
        m = float(np.vdot(z, lifted @ z).real)
        t = z.reshape(dims)
        rho = reduced(t)
        p2 = float(np.trace(rho @ rho).real)
        if slot == 1:
            rho_psi = (t @ rho.T).reshape(-1)
        else:
            rho_psi = (rho @ t).reshape(-1)
        return (e2 * z
                + eps * (2.0 * m * p2 / n ** 3) * (lifted @ z)
                + eps * (2.0 * m ** 2 / n ** 3) * rho_psi
                - eps * (3.0 * m ** 2 * p2 / n ** 4) * z)

    return HomogeneousObservable(
        evaluator=value,
        label=f"moment-pair[purity-weighted, eps={eps:g}]",
        analytic_gradient=grad,
        params={"e2": e2, "eps": eps, "variant": variant},
    )


@dataclass
class ReducedFlowTrajectory:
    """Reduced-density-matrix flow with its per-step conserved quantities."""

    times: np.ndarray
    rhos: np.ndarray  # (nsteps+1, d, d)
    variant: str

    def offdiagonal_phase_rate(self, i: int = 0, j: int = 1) -> float:
        """Linear-fit phase velocity of the (i, j) matrix element."""
        phase = np.unwrap(np.angle(self.rhos[:, i, j]))
        slope, _ = np.polyfit(self.times, phase, 1)
        return float(slope)


def polchinski_reduced_flow(variant: str, epshat, rho0, t_end: float,
                            dt: float) -> ReducedFlowTrajectory:
    """Autonomous reduced flow of the moment extension on one subsystem.

        d rho / dt = -2 i c(rho) [epshat, rho],

    with c = Tr(rho epshat)/Tr(rho) for ``plain`` and the same times
    Tr(rho^2)/(Tr rho)^2 for ``purity-weighted``.  The flow is isospectral;
    Tr(rho), Tr(rho epshat) and Tr(rho^2) are all constants of motion and each
    is verified at every step to 1e-9 (relative).  Diagonal mixtures in the
    epshat eigenbasis are fixed points — seed an off-diagonal perturbation to
    see the variant-dependent rotation rate.
    """
    eh = np.asarray(epshat, dtype=complex)
    rho = np.asarray(getattr(rho0, "entries", rho0), dtype=complex).copy()
    d = rho.shape[0]
    if eh.shape != (d, d) or rho.shape != (d, d):
        raise ValidationError("epshat and rho0 must be square matrices of equal size")
    if variant not in ("plain", "purity-weighted"):
        raise ValidationError(f"unknown variant {variant!r}")

    def coeff(r):
        tr = float(np.trace(r).real)
        c = float(np.trace(r @ eh).real) / tr
        if variant == "purity-weighted":
            c *= float(np.trace(r @ r).real) / tr ** 2
        return c

    def rhs(r):
        return -2j * coeff(r) * (eh @ r - r @ eh)

    nsteps, dt_eff = _step_grid(t_end, dt)
    times = np.empty(nsteps + 1)
    out = np.empty((nsteps + 1, d, d), dtype=complex)
    consts0 = None
    for step in range(nsteps + 1):
        times[step] = step * dt_eff
        out[step] = rho
        consts = (float(np.trace(rho).real),
                  float(np.trace(rho @ eh).real),
                  float(np.trace(rho @ rho).real))
        if consts0 is None:
            consts0 = consts
        else:
            for name, a, b in zip(("trace", "epshat average", "purity"), consts0, consts):
                if abs(a - b) > 1e-9 * (1.0 + abs(a)):
                    raise IntegrationError(
                        f"reduced flow failed to conserve {name} at t = {times[step]:g} "
                        f"({a:g} -> {b:g}); reduce dt")
        if step == nsteps:
            break
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt_eff * k1)
        k3 = rhs(rho + 0.5 * dt_eff * k2)
        k4 = rhs(rho + dt_eff * k3)
        rho = rho + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ReducedFlowTrajectory(times=times, rhos=out, variant=variant)


# ---------------------------------------------------------------------------
# Telegraph scenarios


@dataclass(frozen=True)
class TelegraphParams:
    """Entangled-pair preparation (alpha, beta) and family constants."""

    alpha: complex
    beta: complex
    eps: float
    e1: float = 0.0
    e2: float = 0.0


@dataclass
class TelegraphReport:
    times: np.ndarray
    signal: np.ndarray
    fitted_frequency: float
    fitted_amplitude: float
    predicted_frequency: float
    predicted_amplitude: float


def _fit_sinusoid(t: np.ndarray, y: np.ndarray):
    """Least-squares fit y ~ a sin(wt) + b cos(wt) + c with w refined.

    The discrete-Fourier peak seeds w; a golden-section search then minimizes
    the linear-fit residual over a bracket around the seed.  Returns
    (amplitude, omega, offset).
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    yc = y - np.mean(y)
    spec = np.abs(np.fft.rfft(yc * np.hanning(y.size)))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(y.size, d=t[1] - t[0])
    spec[0] = 0.0
    w0 = freqs[int(np.argmax(spec))]
    if w0 == 0.0:
        w0 = freqs[1] if freqs.size > 1 else 1.0

    def residual(w):
        basis = np.stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)], axis=1)
        sol, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return float(np.sum((basis @ sol - y) ** 2)), sol

    lo, hi = 0.5 * w0, 1.5 * w0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, _ = residual(c)
    fd, _ = residual(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, _ = residual(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, _ = residual(d)
    w = 0.5 * (a + b)
    _, sol = residual(w)
    return float(np.hypot(sol[0], sol[1])), float(w), float(sol[2])


def _local_average(traj: Trajectory, op: np.ndarray, keep: int) -> np.ndarray:
    """Normalized <op> of pair factor ``keep`` at every sample of ``traj``."""
    rho = reduced_states(traj.amplitudes(), (2, 2), keep)
    tr = np.trace(rho, axis1=1, axis2=2).real
    return np.einsum("tkl,lk->t", rho, op).real / tr


def gisin_telegraph(params: TelegraphParams, t_end: float, dt: float) -> TelegraphReport:
    """Entangled-pair telegraph under the slice-sum extension.

    One particle is linear, the partner carries the quadratic-moment
    nonlinearity; the pair starts in the rotated singlet parametrized by
    (alpha, beta).  The partner's local <sigma_2> then oscillates at

        omega = 4 eps (|alpha|^2 - |beta|^2)

    with amplitude 2 |Re(conj(alpha) beta)| — a nonzero local signal created
    purely by the distant preparation basis.
    """
    a, b = complex(params.alpha), complex(params.beta)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
        raise ValidationError("preparation requires |alpha|^2 + |beta|^2 = 1")
    h_sub = canonical(params.e2, params.e2, params.eps)
    total = (bilinear(params.e1 * np.eye(4))
             + weinberg_composite(h_sub, 2, 2, np.eye(2), sub_slot=1))
    builder = lambda z: nonlinear_operator(total, z)
    t0 = np.array([[-b, a], [-a.conjugate(), -b.conjugate()]], dtype=complex) / np.sqrt(2.0)
    traj = integrate_nls(builder, t0.reshape(-1), t_end, dt, flow=total.analytic_gradient)
    signal = _local_average(traj, sigma2, keep=1)
    amp, w, _ = _fit_sinusoid(traj.times, signal)
    return TelegraphReport(
        times=traj.times,
        signal=signal,
        fitted_frequency=w,
        fitted_amplitude=amp,
        predicted_frequency=abs(4.0 * params.eps * (abs(a) ** 2 - abs(b) ** 2)),
        predicted_amplitude=abs(2.0 * (a.conjugate() * b).real),
    )


def mobility_telegraph(eps: float, tilt: float, t_end: float, dt: float) -> TelegraphReport:
    """Telegraph driven by tilting the correlated basis, not the preparation.

    The pair perfectly correlates spectator basis states with the tilted frame
    phi = (cos tilt, sin tilt), phi_perp; the spectator's local <sigma_2>
    oscillates at

        omega = 4 eps cos(2 tilt)

    with amplitude sin(2 tilt): at tilt = 0 the frame is the functional's own
    eigenframe and the signal vanishes.
    """
    phi = np.array([np.cos(tilt), np.sin(tilt)], dtype=complex)
    phi_perp = np.array([np.sin(tilt), -np.cos(tilt)], dtype=complex)
    h_sub = moment_power(sigma3, 2, coeff=eps)
    total = weinberg_composite(h_sub, 2, 2, np.eye(2), sub_slot=1)
    builder = lambda z: nonlinear_operator(total, z)
    t0 = np.stack([phi, phi_perp]) / np.sqrt(2.0)
    traj = integrate_nls(builder, t0.reshape(-1), t_end, dt, flow=total.analytic_gradient)
    signal = _local_average(traj, sigma2, keep=0)
    amp, w, _ = _fit_sinusoid(traj.times, signal)
    return TelegraphReport(
        times=traj.times,
        signal=signal,
        fitted_frequency=w,
        fitted_amplitude=amp,
        predicted_frequency=abs(4.0 * eps * np.cos(2.0 * tilt)),
        predicted_amplitude=abs(np.sin(2.0 * tilt)),
    )


# ---------------------------------------------------------------------------
# No-signaling comparison


@dataclass
class NoSignalingReport:
    description: str
    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def no_signaling_check(description: str, remote_u, t_end: float, dt: float, *,
                       eps: float, e1: float = 0.0, e2: float = 0.0) -> NoSignalingReport:
    """Does a remote unitary move the local reduced density matrix?

    Evolves the singlet and its slot-0-rotated copy under the extension named
    by ``description`` ("polchinski-plain", "polchinski-purity" or
    "weinberg") and reports the entrywise deviation of the slot-1 reduced
    density matrices over time.  The moment extensions stay at numerical zero;
    the slice-sum extension shows an order-one deviation for a generic
    rotation (rotations preserving the slice structure produce none).
    """
    u = _check_unitary(remote_u, 2)
    if description == "weinberg":
        total = (bilinear(e1 * np.eye(4))
                 + weinberg_composite(canonical(e2, e2, eps), 2, 2, np.eye(2), sub_slot=1))
        builder = lambda z: nonlinear_operator(total, z)
    elif description == "polchinski-plain":
        total = bilinear(e1 * np.eye(4)) + polchinski_functional(e2, sigma3, (2, 2),
                                                                 variant="plain", eps=eps)
        builder = lambda z: nonlinear_operator(total, z)
    elif description == "polchinski-purity":
        total = bilinear(e1 * np.eye(4)) + polchinski_functional(e2, sigma3, (2, 2),
                                                                 variant="purity-weighted",
                                                                 eps=eps)
        builder = gradient_flow_operator(total)
    else:
        raise ValidationError(f"unknown description {description!r}")

    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex).reshape(-1) / np.sqrt(2.0)
    rotated = rotate_subsystem(StateVector(singlet, dims=(2, 2)), u, slot=0)
    # Every builder here satisfies M(psi) psi = dH/dpsibar (the
    # gradient_flow_operator completion by construction), so the RK4 stages
    # can take the gradient directly.
    flow = total.analytic_gradient
    traj_a = integrate_nls(builder, singlet, t_end, dt, flow=flow)
    traj_b = integrate_nls(builder, rotated.amplitudes, t_end, dt, flow=flow)
    ra = reduced_states(traj_a.amplitudes(), (2, 2), keep=1)
    rb = reduced_states(traj_b.amplitudes(), (2, 2), keep=1)
    devs = np.max(np.abs(ra - rb), axis=(1, 2))
    return NoSignalingReport(
        description=description,
        times=traj_a.times,
        deviations=devs,
        max_deviation=float(np.max(devs)),
    )


# ---------------------------------------------------------------------------
# Mixture intention paradox


@dataclass(frozen=True)
class ParadoxParams:
    """Mixture weights, coupling and horizon for the intention scenario."""

    lambda1: float
    lambda2: float
    f: float
    t: float


@dataclass
class ParadoxReport:
    times: np.ndarray
    sigma3_series: np.ndarray
    x_value: float
    rho_final: DensityMatrix
    rho_analytic: DensityMatrix
    analytic_gap: float
    schrodinger_population: float
    heisenberg_population: float
    duality_gap: float
    sigma3_final: float
    sigma3_predicted: float


def intention_paradox(params: ParadoxParams, dt: float) -> ParadoxReport:
    """Mixture dynamics whose rate is set by how the mixture was composed.

    The density matrix rho0 = l1 (1/2) + l2 M, M = [[3/4, 1/4], [1/4, 1/4]],
    evolves under  i drho/dt = 2 f x(rho) [sigma1, rho]  with
    x = Tr(rho sigma1)/Tr(rho).  x is a constant of motion (= l2/2), so the
    flow is a rigid sigma1-rotation at angle theta(t) = l2 f t:

        rho(t) = (l1/2) 1 + (l2/4) (2 + sigma1
                                    + sigma3 cos(2 l2 f t) - sigma2 sin(2 l2 f t)).

    The identity component — the part one would attribute to the "other"
    ensemble member — sets the rotation rate of the rest: the outcome at fixed
    t depends on l2 even though the l1 part is maximally mixed.  The report
    carries both Schrodinger and Heisenberg populations of the initial up
    projector; their agreement (duality_gap) is an integrator check.
    """
    l1, l2, f, t_end = params.lambda1, params.lambda2, params.f, params.t
    if l1 < -1e-12 or l2 < -1e-12 or abs(l1 + l2 - 1.0) > 1e-10:
        raise ValidationError("mixture weights must be nonnegative and sum to 1")
    eye = np.eye(2, dtype=complex)
    m = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    rho = l1 * 0.5 * eye + l2 * m

    def xval(r):
        return float(np.trace(r @ sigma1).real) / float(np.trace(r).real)

    x0 = xval(rho)

    def rhs(r):
        return -2j * f * xval(r) * (sigma1 @ r - r @ sigma1)

    nsteps, dt_eff = _step_grid(t_end, dt)
    times = np.linspace(0.0, t_end, nsteps + 1)
    s3_series = np.empty(nsteps + 1)
    for step in range(nsteps + 1):
        s3_series[step] = float(np.trace(rho @ sigma3).real)
        if abs(xval(rho) - x0) > 1e-9:
            raise IntegrationError(
                f"sigma1 average drifted at t = {times[step]:g}; reduce dt")
        if step == nsteps:
            break
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt_eff * k1)
        k3 = rhs(rho + 0.5 * dt_eff * k2)
        k4 = rhs(rho + dt_eff * k3)
        rho = rho + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    angle = 2.0 * l2 * f * t_end
    rho_exact = (l1 * 0.5 * eye
                 + (l2 / 4.0) * (2.0 * eye + sigma1
                                 + np.cos(angle) * sigma3 - np.sin(angle) * sigma2))
    p_up0 = 0.5 * (eye + sigma3)
    p_up_t = 0.5 * (eye + np.cos(angle) * sigma3 + np.sin(angle) * sigma2)
    rho0 = l1 * 0.5 * eye + l2 * m
    schrod = float(np.trace(rho @ p_up0).real)
    heis = float(np.trace(rho0 @ p_up_t).real)
    return ParadoxReport(
        times=times,
        sigma3_series=s3_series,
        x_value=x0,
        rho_final=DensityMatrix(rho),
        rho_analytic=DensityMatrix(rho_exact),
        analytic_gap=float(np.max(np.abs(rho - rho_exact))),
        schrodinger_population=schrod,
        heisenberg_population=heis,
        duality_gap=float(abs(schrod - heis)),
        sigma3_final=float(np.trace(rho @ sigma3).real),
        sigma3_predicted=0.5 * l2 * np.cos(angle),
    )


def maximally_mixed_decomposition(u) -> list:
    """Ensemble {(1/d, u|k>)} — every unitary u yields the same mixture 1/d.

    A documented counterpoint to :func:`intention_paradox`: linear dynamics
    cannot distinguish these ensembles, the nonlinear mixture flow can.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    _check_unitary(u, d)
    return [(1.0 / d, StateVector(u[:, k])) for k in range(d)]
