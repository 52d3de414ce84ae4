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

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    ValidationError,
    _checked_density,
    _unitary,
    reduced_states,
    rotate_subsystem,
    sigma1,
    sigma2,
    sigma3,
)
from .observables import (
    HomogeneousObservable,
    SingularObservableError,
    _shaped,
    bilinear,
    canonical,
    moment_power,
    nonlinear_operator,
    wirtinger_gradient,
)
from .dynamics import IntegrationError, _at, _fit_times, _rk4, _step_grid, integrate_nls

__all__ = [
    "TelegraphReport",
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
]

SLICE_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# Operator lifting and the faithful (slice-sum) extension


def lift_operator(m, dims, slot: int) -> np.ndarray:
    """Embed a one-particle matrix into the pair space: m (x) 1 or 1 (x) m."""
    m = np.asarray(m, dtype=complex)
    if slot not in (0, 1):
        raise ValidationError(f"slot must be 0 or 1, got {slot}")
    if m.shape != (dims[slot],) * 2:
        raise ValidationError(f"operator shape {m.shape} does not fit slot {slot} of {dims}")
    factors = [np.eye(dims[0]), np.eye(dims[1])]
    factors[slot] = m
    return np.kron(*factors)


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
    nothing (value, gradient and operator alike).  The value, gradient and
    operator pass all remaining slices to ``h_sub`` as one stack.  The
    gradient, the wave flow's kernel, calls ``h_sub.analytic_gradient`` on
    that stack directly (with the shape check of
    :func:`~nlqm.observables.wirtinger_gradient`, not through it) and not at
    all when no slice is live.

    With ``d_rest = 1`` the construction reproduces ``h_sub`` itself.  The
    dependence on ``rest_basis`` is the whole point: it is what
    :func:`no_signaling_check` measures.  In the computational basis
    (``rest_basis`` exactly the identity) the slices and the gradient are
    reshapes of the state, bit for bit up to zero signs.
    """
    if sub_slot not in (0, 1):
        raise ValidationError(f"sub_slot must be 0 or 1, got {sub_slot}")
    u = _unitary(rest_basis, d_rest)
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    dim_total = d_sub * d_rest
    uc, uc_t, u_t = u.conj(), u.conj().T, u.T
    rotate = not np.array_equal(u, np.eye(d_rest))
    # On a stack of exactly d_sub slices a one-state h_sub can return the right
    # shapes, so its callables are checked once on d_sub + 1 generic rows
    # (not where h_sub is singular).
    probe = np.arange(1.0, d_sub + 2)[:, None] + 1j * np.arange(1.0, d_sub + 1)
    calls = (lambda z: h_sub.evaluator(z, z.conj()), h_sub.analytic_gradient,
             h_sub.analytic_operator)
    for k, (f, what) in enumerate(zip(calls, ("values", "gradients", "operators"))):
        try:
            with np.errstate(all="ignore"):
                if f is not None:
                    _shaped(h_sub, f(probe), probe, (d_sub + 1,) + (d_sub,) * k, what)
        except SingularObservableError:
            pass

    def slices_of(a: np.ndarray) -> np.ndarray:
        """The ``(..., d_rest, d_sub)`` view of states ``a`` in the
        computational basis of the spectator slot."""
        t = a.reshape(a.shape[:-1] + dims)
        return t.swapaxes(-1, -2) if sub_slot == 0 else t

    def live_slices(z: np.ndarray):
        """The slices Phi_r of each complex state, shape ``(..., d_rest,
        d_sub)``, and the mask of those at or above the floor."""
        if rotate:
            t = z.reshape(z.shape[:-1] + dims)
            sl = (t @ uc).swapaxes(-1, -2) if sub_slot == 0 else uc_t @ t
        else:
            sl = slices_of(z)
        return sl, np.add.reduce(sl.conj() * sl, axis=-1).real >= SLICE_FLOOR

    def value(z, zc):
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != dim_total:
            raise ValidationError(f"state must have length {dim_total}")
        sl, live = live_slices(z)
        vals = np.zeros(live.shape)
        vals[live] = h_sub.value(sl[live])
        return vals.sum(axis=-1)

    grad = None
    h_grad = h_sub.analytic_gradient
    if h_grad is not None:
        def grad(z):
            z = np.asarray(z, dtype=complex)
            sl, live = live_slices(z)
            s = sl[live]
            if rotate:
                gm = np.zeros(sl.shape, dtype=complex)
            else:
                out = np.zeros(z.shape, dtype=complex)
                gm = slices_of(out)   # a view: the slice gradients land in out
            if len(s):
                gm[live] = _shaped(h_sub, h_grad(s), s, s.shape, "gradients")
            if not rotate:
                return out
            g = gm.swapaxes(-1, -2) @ u_t if sub_slot == 0 else u @ gm
            return g.reshape(z.shape)

    op = None
    if h_sub.analytic_operator is not None:
        # full = sum_r block_r (x) |u_r><u_r| (factors swapped for slot 1),
        # contracted over r in one einsum.
        layout = "...rab,lr,mr->...albm" if sub_slot == 0 else "...rab,lr,mr->...lamb"

        def op(z):
            z = np.asarray(z, dtype=complex)
            sl, live = live_slices(z)
            blocks = np.zeros(sl.shape + (d_sub,), dtype=complex)
            if np.any(live):
                s = sl[live]
                blocks[live] = _shaped(h_sub, h_sub.analytic_operator(s), s, s.shape + (d_sub,),
                                       "operators")
            full = np.einsum(layout, blocks, u, uc)
            return full.reshape(z.shape[:-1] + (dim_total, dim_total))

    return HomogeneousObservable(
        evaluator=value,
        label=f"slice-sum[{h_sub.label or 'h'}; slot {sub_slot}]",
        analytic_gradient=grad,
        analytic_operator=op,
    )


def gradient_flow_operator(obs: HomogeneousObservable) -> Callable:
    """Hermitian generator reproducing the gradient flow of ``obs``.

    Returns a builder psi -> M(psi) with M Hermitian, scale-invariant, and
    M psi = dH/dpsibar exactly (the rank-2 completion
    (g psi+ + psi g+)/n - (H/n^2) psi psi+ — the cross terms cancel by the
    homogeneity identity <psi, g> = H).  Any Hermitian completion gives the
    same wave flow; this one needs only the gradient, so it serves functionals
    with no closed-form second derivatives (the purity-weighted extension).
    The builder also maps a ``(K, d)`` stack of states to the ``(K, d, d)``
    stack of their generators, with one :func:`wirtinger_gradient` and one
    :meth:`~HomogeneousObservable.value` call.
    """
    def builder(z):
        zv = np.asarray(z, dtype=complex)
        zs = np.atleast_2d(zv)
        n = np.real(np.sum(zs.conj() * zs, axis=-1))
        if np.any(n < SLICE_FLOOR):
            raise SingularObservableError("gradient flow undefined at the zero vector")
        g = wirtinger_gradient(obs, zs)
        h = obs.value(zs)
        zc = zs.conj()
        m = ((g[:, :, None] * zc[:, None, :] + zs[:, :, None] * g.conj()[:, None, :])
             / n[:, None, None]
             - (h / n ** 2)[:, None, None] * (zs[:, :, None] * zc[:, None, :]))
        return m if zv.ndim == 2 else m[0]

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
        return replace(obs, label=f"moment-pair[plain, eps={eps:g}]")
    if variant != "purity-weighted":
        raise ValidationError(f"unknown variant {variant!r}")

    def moments(z: np.ndarray):
        """n, <L>, Tr(rho_sub^2), L z, the amplitude tensors and rho_sub of each state."""
        n = np.real(np.sum(z.conj() * z, axis=-1))
        if np.any(n < SLICE_FLOOR):
            raise SingularObservableError("purity-weighted form undefined at the zero vector")
        lz = z @ lifted.T
        m = np.real(np.sum(z.conj() * lz, axis=-1))
        t = z.reshape(z.shape[:-1] + tuple(dims))
        layout = "...mk,...ml->...kl" if slot == 1 else "...km,...lm->...kl"
        rho = np.einsum(layout, t, t.conj())
        p2 = np.real(np.sum(np.swapaxes(rho, -1, -2) * rho, axis=(-2, -1)))
        return n, m, p2, lz, t, rho

    def value(z, zc):
        n, m, p2, *_ = moments(np.asarray(z, dtype=complex))
        return e2 * n + eps * m ** 2 * p2 / n ** 3

    def grad(z):
        z = np.asarray(z, dtype=complex)
        n, m, p2, lz, t, rho = moments(z)
        if slot == 1:
            rho_psi = (t @ np.swapaxes(rho, -1, -2)).reshape(z.shape)
        else:
            rho_psi = (rho @ t).reshape(z.shape)
        col = lambda c: np.asarray(c)[..., None]
        return (e2 * z
                + eps * col(2.0 * m * p2 / n ** 3) * lz
                + eps * col(2.0 * m ** 2 / n ** 3) * rho_psi
                - eps * col(3.0 * m ** 2 * p2 / n ** 4) * z)

    return HomogeneousObservable(
        evaluator=value,
        label=f"moment-pair[purity-weighted, eps={eps:g}]",
        analytic_gradient=grad,
    )


@dataclass
class ReducedFlowTrajectory:
    """Reduced-density-matrix flow with its per-step conserved quantities."""

    times: np.ndarray
    rhos: np.ndarray  # (nsteps+1, d, d), or (nsteps+1, B, d, d) for a stack

    def offdiagonal_phase_rate(self, i: int = 0, j: int = 1) -> float:
        """Linear-fit phase velocity of the (i, j) matrix element of one flow."""
        if self.rhos.ndim != 3:
            raise ValidationError("fit one flow of a stack: "
                                  "ReducedFlowTrajectory(times, rhos[:, k])")
        t = _fit_times(self.times, "a phase-rate fit")
        phase = np.unwrap(np.angle(self.rhos[:, i, j]))
        slope, _ = np.polyfit(t, phase, 1)
        return float(slope)


def _trace_products(at: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a b) of each matrix of a ``(B, d, d)`` stack ``b``, given ``at``, the
    rows of a^T flattened to ``(B or 1, 1, d*d)``: one stacked ``matmul``, each
    bit for bit ``np.vdot(a^dagger, b).real`` (the idiom of ``dynamics._sqnorms``)."""
    return np.matmul(at, b.reshape(len(b), -1, 1))[:, 0, 0].real


def polchinski_reduced_flow(variant, epshat, rho0, t_end: float,
                            dt: float) -> ReducedFlowTrajectory:
    """Autonomous reduced flow of the moment extension on one subsystem.

        d rho / dt = -2 i c(rho) [epshat, rho],

    with c = Tr(rho epshat)/Tr(rho) for ``plain`` and the same times
    Tr(rho^2)/(Tr rho)^2 for ``purity-weighted``.  The flow is isospectral;
    Tr(rho), Tr(rho epshat) and Tr(rho^2) are all constants of motion and each
    is verified at every sample to 1e-9 (relative), one block of samples at a
    time; the earliest violation is reported.  Diagonal mixtures in the
    epshat eigenbasis are fixed points — seed an off-diagonal perturbation to
    see the variant-dependent rotation rate.  ``rho0``, a ``(d, d)`` array,
    must pass the density matrix checks of :class:`~nlqm.core.DensityMatrix`
    and have finite invariants, else :class:`ValidationError`.

    A ``(B, d, d)`` ``rho0`` runs B flows as one RK4 stack: ``variant`` is
    then one name or a sequence of B, ``epshat`` one ``(d, d)`` matrix or a
    ``(B, d, d)`` stack, and ``rhos`` is ``(nsteps + 1, B, d, d)``.  Each
    member's samples are bit for bit those of its own call; the invariants
    are checked per row, and a violation names its row ("at t = 0.5 in row
    2").  The sample cap counts the whole stack.
    """
    stacked = np.ndim(rho0) == 3
    rs = _checked_density(rho0, stacked=stacked)
    rs = rs if stacked else rs[None]
    rows, d = rs.shape[:2]
    eh = np.asarray(epshat, dtype=complex)
    if eh.shape != (d, d) and not (stacked and eh.shape == rs.shape):
        raise ValidationError("epshat and rho0 must be square matrices of equal size")
    names = [variant] * rows if isinstance(variant, str) or not stacked else list(variant)
    if len(names) != rows:
        raise ValidationError(f"need one variant or {rows}, got {len(names)}")
    for v in names:
        if v not in ("plain", "purity-weighted"):
            raise ValidationError(f"unknown variant {v!r}")
    weighted = np.array(names) == "purity-weighted"
    any_weighted = bool(weighted.any())

    # Numpy quotients, so a vanishing trace is a stage floating-point error
    # ("solution blew up").
    eh_t = np.swapaxes(eh, -1, -2)
    eh_rows = np.ascontiguousarray(np.broadcast_to(eh_t, rs.shape)).reshape(rows, 1, d * d)

    def coeff(r):
        tr = r.trace(axis1=1, axis2=2).real
        c = _trace_products(eh_rows, r) / tr
        if any_weighted:
            purity = _trace_products(r.swapaxes(1, 2).reshape(rows, 1, -1), r)
            c = c * np.where(weighted, purity / tr ** 2, 1.0)
        return c

    def rhs(r):
        return (-2j * coeff(r))[:, None, None] * (eh @ r - r @ eh)

    def invariants(rs):
        """(trace, epshat average, purity) of each matrix of a (..., d, d) stack."""
        return np.stack([np.trace(rs, axis1=-2, axis2=-1).real,
                         (eh_t * rs).sum(axis=(-2, -1)).real,
                         (np.swapaxes(rs, -1, -2) * rs).sum(axis=(-2, -1)).real], axis=-1)

    # a rho0 too large to square has a non-finite purity: refused, unwarned
    with np.errstate(all="ignore"):
        consts0 = invariants(rs)
    finite = np.isfinite(consts0).all(axis=1)
    if not finite.all():
        raise ValidationError("rho0's trace, epshat average and purity must be finite, got "
                              + ", ".join(f"{c:g}" for c in consts0[np.argmin(finite)]))
    nsteps, dt_eff = _step_grid(t_end, dt, width=rs.size)
    times = np.arange(nsteps + 1) * dt_eff

    def conserved(lo, hi, block):
        # a sample too large to square gives a non-finite invariant, which fails
        with np.errstate(all="ignore"):
            consts = invariants(block)
        broken = ~(np.abs(consts - consts0) <= 1e-9 * (1.0 + np.abs(consts0)))
        if broken.any():
            k, j = divmod(int(np.argmax(broken)), 3)
            where, loc = _at(times, lo * rows + k, rows)
            raise IntegrationError(
                f"reduced flow failed to conserve {('trace', 'epshat average', 'purity')[j]} "
                f"at {where} ({consts0[k % rows, j]:g} -> "
                f"{consts.reshape(-1, 3)[k, j]:g}); reduce dt", **loc)

    out = _rk4(rhs, rs, times, dt_eff, on_block=conserved)
    return ReducedFlowTrajectory(times=times, rhos=out if stacked else out[:, 0])


# ---------------------------------------------------------------------------
# Telegraph scenarios


def _preparation_unitary(alpha: complex, beta: complex) -> np.ndarray:
    """The preparation ``[[alpha, -conj(beta)], [beta, conj(alpha)]]``.

    :class:`ValidationError` unless |alpha|^2 + |beta|^2 = 1, checked as the
    unitarity of this matrix to 1e-12 by the check :func:`rotate_subsystem`
    makes, so a preparation accepted here is accepted there.
    """
    u = np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]], dtype=complex)
    try:
        return _unitary(u, 2)
    except ValidationError as err:
        raise ValidationError(f"preparation requires |alpha|^2 + |beta|^2 = 1 ({err})") from None


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
    t = _fit_times(t, "a sinusoid fit")
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


def _telegraph(total: HomogeneousObservable, t0: np.ndarray, keep: int, t_end: float,
               dt: float, predicted_frequency: float,
               predicted_amplitude: float) -> TelegraphReport:
    """Integrate the pair amplitude ``t0`` and fit the local <sigma_2> of factor ``keep``."""
    traj = integrate_nls(lambda z: nonlinear_operator(total, z), t0.reshape(-1), t_end, dt,
                         flow=total.analytic_gradient)
    rho = reduced_states(traj.amplitudes(), (2, 2), keep)
    tr = np.trace(rho, axis1=1, axis2=2).real
    signal = np.einsum("tkl,lk->t", rho, sigma2).real / tr
    amp, w, _ = _fit_sinusoid(traj.times, signal)
    return TelegraphReport(times=traj.times, signal=signal, fitted_frequency=w,
                           fitted_amplitude=amp, predicted_frequency=predicted_frequency,
                           predicted_amplitude=predicted_amplitude)


def gisin_telegraph(alpha: complex, beta: complex, eps: float, t_end: float, dt: float, *,
                    e1: float = 0.0, e2: float = 0.0) -> TelegraphReport:
    """Entangled-pair telegraph under the slice-sum extension.

    One particle is linear, the partner carries the quadratic-moment
    nonlinearity; the pair starts in the rotated singlet parametrized by
    (alpha, beta).  The partner's local <sigma_2> then oscillates at

        omega = 4 eps (|alpha|^2 - |beta|^2)

    with amplitude 2 |Re(conj(alpha) beta)| — a nonzero local signal created
    purely by the distant preparation basis.  ``e1`` weighs the pair's norm
    and ``e2`` both levels of the partner's family.
    """
    a, b = complex(alpha), complex(beta)
    _preparation_unitary(a, b)
    h_sub = canonical(e2, e2, eps)
    total = (bilinear(e1 * np.eye(4))
             + weinberg_composite(h_sub, 2, 2, np.eye(2), sub_slot=1))
    t0 = np.array([[-b, a], [-a.conjugate(), -b.conjugate()]], dtype=complex) / np.sqrt(2.0)
    return _telegraph(total, t0, 1, t_end, dt,
                      abs(4.0 * eps * (abs(a) ** 2 - abs(b) ** 2)),
                      abs(2.0 * (a.conjugate() * b).real))


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
    t0 = np.stack([phi, phi_perp]) / np.sqrt(2.0)
    return _telegraph(total, t0, 0, t_end, dt, abs(4.0 * eps * np.cos(2.0 * tilt)),
                      abs(np.sin(2.0 * tilt)))


# ---------------------------------------------------------------------------
# No-signaling comparison


@dataclass
class NoSignalingReport:
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
    u = _unitary(remote_u, 2)
    if description == "weinberg":
        pair = weinberg_composite(canonical(e2, e2, eps), 2, 2, np.eye(2), sub_slot=1)
    elif description in ("polchinski-plain", "polchinski-purity"):
        variant = "plain" if description == "polchinski-plain" else "purity-weighted"
        pair = polchinski_functional(e2, sigma3, (2, 2), variant=variant, eps=eps)
    else:
        raise ValidationError(f"unknown description {description!r}")
    total = bilinear(e1 * np.eye(4)) + pair
    if description == "polchinski-purity":
        builder = gradient_flow_operator(total)
    else:
        builder = lambda z: nonlinear_operator(total, z)

    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex).reshape(-1) / np.sqrt(2.0)
    rotated = rotate_subsystem(singlet, (2, 2), u, slot=0)
    # Every builder here satisfies M(psi) psi = dH/dpsibar (the
    # gradient_flow_operator completion by construction), so the RK4 stages
    # can take the gradient directly, for both states as one stack.
    traj = integrate_nls(builder, np.stack([singlet, rotated]), t_end, dt,
                         flow=total.analytic_gradient)
    rho = reduced_states(traj.amplitudes().reshape(-1, 4), (2, 2), keep=1)
    devs = np.max(np.abs(rho[0::2] - rho[1::2]), axis=(1, 2))
    return NoSignalingReport(
        times=traj.times,
        deviations=devs,
        max_deviation=float(np.max(devs)),
    )


# ---------------------------------------------------------------------------
# Mixture intention paradox


def _check_weights(lambda1: float, lambda2: float) -> None:
    """ValidationError unless the mixture weights are nonnegative and sum to 1."""
    if lambda1 < -1e-12 or lambda2 < -1e-12 or abs(lambda1 + lambda2 - 1.0) > 1e-10:
        raise ValidationError("mixture weights lambda1, lambda2 must be >= 0 and sum to 1")


@dataclass
class ParadoxReport:
    """One mixture's report; for a stack of B, every number is a ``(B,)`` array
    and every series ``(len(times), B)``."""

    times: np.ndarray
    sigma3_series: np.ndarray
    x_value: float
    analytic_gap: float
    duality_gap: float
    sigma3_final: float
    sigma3_predicted: float
    sigma3_predicted_series: np.ndarray


def intention_paradox(lambda1, lambda2, f, t: float, dt: float) -> ParadoxReport:
    """Mixture dynamics whose rate is set by how the mixture was composed.

    The density matrix rho0 = l1 (1/2) + l2 M, M = [[3/4, 1/4], [1/4, 1/4]],
    evolves under  i drho/dt = 2 f x(rho) [sigma1, rho]  with
    x = Tr(rho sigma1)/Tr(rho).  x is a constant of motion (= l2/2), so the
    flow is a rigid sigma1-rotation at angle theta(t) = l2 f t:

        rho(t) = (l1/2) 1 + (l2/4) (2 + sigma1
                                    + sigma3 cos(2 l2 f t) - sigma2 sin(2 l2 f t)).

    The identity component — the part one would attribute to the "other"
    ensemble member — sets the rotation rate of the rest: the outcome at fixed
    t depends on l2 even though the l1 part is maximally mixed.  The
    report's duality_gap, between the Schrodinger and Heisenberg populations
    of the initial up projector, is an integrator check.

    Sequences of B values for ``lambda1``, ``lambda2`` and ``f`` (a number is
    shared by every member) run B mixtures as one RK4 stack, and the report
    holds one row per member, each bit for bit its own call.  The sigma1
    average is checked per row, and a drift names its row ("at t = 0.5 in
    row 2").
    """
    l1, l2, f = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                      for v in (lambda1, lambda2, f)))
    if l1.ndim > 1:
        raise ValidationError("lambda1, lambda2 and f must be numbers or sequences of one length")
    row = slice(None) if l1.ndim else 0
    l1, l2, f = np.atleast_1d(l1, l2, f)
    for a, b in zip(l1, l2):
        _check_weights(a, b)
    rows = len(l1)
    col = lambda v: v[:, None, None]
    eye = np.eye(2, dtype=complex)
    m = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    rho0 = col(l1) * 0.5 * eye + col(l2) * m

    # Tr(r sigma1) per row; sigma1 is real and symmetric, so its flattened
    # rows are those of sigma1^T.  A numpy quotient, so a vanishing trace is a
    # floating-point error.
    s1_rows = sigma1.reshape(1, 1, 4)

    def xval(r):
        return _trace_products(s1_rows, r) / r.trace(axis1=1, axis2=2).real

    x0 = xval(rho0)

    def rhs(r):
        return col(-2j * f * xval(r)) * (sigma1 @ r - r @ sigma1)

    nsteps, dt_eff = _step_grid(t, dt, width=4 * rows)
    times = np.linspace(0.0, t, nsteps + 1)
    s3_series = np.empty((nsteps + 1, rows))

    def drift(lo, hi, block):
        # a vanishing trace or an overflow gives a non-finite average, which fails
        with np.errstate(all="ignore"):
            s3_series[lo:hi] = (sigma3 * block).sum(axis=(-2, -1)).real
            x = ((sigma1 * block).sum(axis=(-2, -1)).real
                 / np.trace(block, axis1=-2, axis2=-1).real)
        drifted = ~(np.abs(x - x0) <= 1e-9)
        if drifted.any():
            where, loc = _at(times, lo * rows + int(np.argmax(drifted)), rows)
            raise IntegrationError(f"sigma1 average drifted at {where}; reduce dt", **loc)

    rho = _rk4(rhs, rho0, times, dt_eff, on_block=drift)[-1]

    angle = 2.0 * l2 * f * t
    cos, sin = col(np.cos(angle)), col(np.sin(angle))
    rho_exact = (col(l1) * 0.5 * eye
                 + col(l2 / 4.0) * (2.0 * eye + sigma1 + cos * sigma3 - sin * sigma2))
    p_up0 = 0.5 * (eye + sigma3)
    p_up_t = 0.5 * (eye + cos * sigma3 + sin * sigma2)
    schrod = np.trace(rho @ p_up0, axis1=1, axis2=2).real
    heis = np.trace(rho0 @ p_up_t, axis1=1, axis2=2).real
    _checked_density(rho, stacked=True)
    _checked_density(rho_exact, stacked=True)
    return ParadoxReport(
        times=times,
        sigma3_series=s3_series[:, row],
        x_value=x0[row],
        analytic_gap=np.abs(rho - rho_exact).max(axis=(1, 2))[row],
        duality_gap=np.abs(schrod - heis)[row],
        sigma3_final=np.trace(rho @ sigma3, axis1=1, axis2=2).real[row],
        sigma3_predicted=(0.5 * l2 * np.cos(angle))[row],
        sigma3_predicted_series=(0.5 * l2 * np.cos(2.0 * l2 * f * times[:, None]))[:, row],
    )
