"""Two-particle extensions of a one-particle nonlinear functional.

A (1,1)-homogeneous one-particle functional H_sub extends to a pair in
inequivalent ways, and the choice has physical consequences:

* the *faithful* extension sums H_sub over the slices of the pair amplitude
  along the computational basis of the spectator (:func:`weinberg_composite`)
  — another basis is a rotation of the state, and a remote rotation alters
  the local reduced density matrix (a signaling channel, quantified by
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
from functools import cached_property, partial
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
    ContractError,
    HomogeneousObservable,
    SingularObservableError,
    _row_params,
    _shaped,
    bilinear,
    canonical,
    moment_power,
    nonlinear_operator,
    wirtinger_gradient,
)
from .dynamics import (IntegrationError, _as_member, _at, _fit_times, _rk4, _step_grid,
                       integrate_nls)

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

# A slice is live above this share of its state's squared norm.
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
    along the computational basis |r> of the spectator slot, and

        H(psi) = sum_r H_sub(Phi_r),   Phi_r = <r|_rest psi .

    The result is (1,1)-homogeneous and additive over the slices, so its
    derivatives come from those of ``h_sub``: the slices and the gradient
    are reshapes of the state, and the operator is the block-diagonal sum of
    slice operators.  A slice is live when its squared norm exceeds
    ``SLICE_FLOOR`` times the state's; only live slices contribute, and they
    reach ``h_sub`` as one stack.  The gradient, the wave flow's kernel,
    calls ``h_sub.analytic_gradient`` on it directly (with the shape check
    of :func:`~nlqm.observables.wirtinger_gradient`), and not at all when no
    slice is live.

    With ``d_rest = 1`` this is ``h_sub`` itself.  ``rest_basis`` must be
    exactly the identity: another basis u is the rotation R = 1 (x) u^dagger
    of the state (:func:`rotate_subsystem`), with value H(R psi), gradient
    R^dagger g(R psi) and operator R^dagger M(R psi) R.

    Value, gradient and operator map one state or any ``(..., d)`` stack.
    An ``h_sub`` of B parameter rows makes a composite of B rows, under the
    per-row contract of :func:`~nlqm.dynamics.integrate_nls`: each live
    slice of row b takes row b's parameters.  ``h_sub`` then gets every
    slice as one ``(..., d_rest, k, d_sub)`` stack, a dead slice replaced by
    the first basis vector and its result dropped; ``h_sub`` must be finite
    there in every row (else :class:`ValidationError`, at construction).  A
    live slice gets the arithmetic of the one-matrix composite's slice
    stack, but a per-row matrix product is one matmul per row: bit for bit
    the same for a diagonal matrix (the atom's moment ladders, the telegraph
    levels) or a shared one, possibly not in the last bit for another.
    """
    if sub_slot not in (0, 1):
        raise ValidationError(f"sub_slot must be 0 or 1, got {sub_slot}")
    if not np.array_equal(_unitary(rest_basis, d_rest), np.eye(d_rest)):
        raise ValidationError(
            "rest_basis must be the identity; for a basis u, take the identity composite at "
            "R psi = rotate_subsystem(psi, dims, u.conj().T, slot=1 - sub_slot), with "
            "gradient R^dagger g(R psi) and operator R^dagger M(R psi) R")
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    dim_total = d_sub * d_rest
    # On a stack of exactly d_sub slices a one-state h_sub can return the right
    # shapes, so its callables are checked once on d_sub + 1 generic rows
    # (not where h_sub is singular).
    probe = np.arange(1.0, d_sub + 2)[:, None] + 1j * np.arange(1.0, d_sub + 1)
    rows = h_sub.rows
    if rows:   # each probe state in every parameter row
        probe = np.repeat(probe[:, None], rows, axis=1)
    calls = (lambda z: h_sub.evaluator(z, z.conj()), h_sub.analytic_gradient,
             h_sub.analytic_operator)
    for k, (f, what) in enumerate(zip(calls, ("values", "gradients", "operators"))):
        try:
            with np.errstate(all="ignore"):
                _shaped(h_sub, f(probe), probe, probe.shape[:-1] + (d_sub,) * k, what)
        except SingularObservableError:
            pass
    first = np.eye(d_sub, dtype=complex)[0]
    if rows:   # the stand-in for a dead slice must be finite in every row
        at = np.tile(first, (rows, 1))
        try:
            with np.errstate(all="ignore"):
                finite = all(np.isfinite(f(at)).all() for f in calls)
        except SingularObservableError:
            finite = False
        if not finite:
            raise ValidationError(
                f"a slice sum of {rows} parameter rows needs h_sub finite at the first "
                "basis vector in every row: it stands in there for a dead slice")

    def slices_of(a: np.ndarray) -> np.ndarray:
        """The ``(..., d_rest, d_sub)`` view of states ``a`` in the
        computational basis of the spectator slot."""
        t = a.reshape(a.shape[:-1] + dims)
        return t.swapaxes(-1, -2) if sub_slot == 0 else t

    def live_slices(z: np.ndarray):
        """The slices Phi_r of each complex state, shape ``(..., d_rest,
        d_sub)``, and the mask of the live ones."""
        sl = slices_of(z)
        w = np.add.reduce(sl.conj() * sl, axis=-1).real
        return sl, w > SLICE_FLOOR * np.add.reduce(w, axis=-1, keepdims=True)

    def each_slice(f, sl, live, what: str, k: int):
        """``f`` of every slice of a per-row ``h_sub``, shape-checked, in the
        slices' layout and zero on the dead ones: the rows go on the
        second-to-last axis for the call, and a dead slice is the first basis
        vector."""
        n = sl.ndim
        if n < 3:
            raise ContractError(f"a slice sum of {rows} parameter rows maps (..., k, "
                                f"{dim_total}) stacks, not one state")
        t = np.where(live[..., None], sl, first).swapaxes(n - 3, n - 2)
        out = _shaped(h_sub, f(t), t, t.shape[:-1] + (d_sub,) * k, what).swapaxes(n - 3, n - 2)
        return np.where(live[(...,) + (None,) * k], out, 0.0)

    def value(z, zc):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0 or z.shape[-1] != dim_total:
            raise ValidationError(f"a slice sum of {d_sub} x {d_rest} maps states of length "
                                  f"{dim_total} or (..., {dim_total}) stacks, not shape {z.shape}")
        sl, live = live_slices(z)
        if rows:
            return each_slice(h_sub.value, sl, live, "values", 0).sum(axis=-1)
        vals = np.zeros(live.shape)
        vals[live] = h_sub.value(sl[live])
        return vals.sum(axis=-1)

    h_grad = h_sub.analytic_gradient

    def grad(z):
        z = np.asarray(z, dtype=complex)
        sl, live = live_slices(z)
        if rows:   # the slices' layout undone: a copy in the states' own
            g = each_slice(h_grad, sl, live, "gradients", 1)
            return (g.swapaxes(-1, -2) if sub_slot == 0 else g).reshape(z.shape)
        out = np.zeros(z.shape, dtype=complex)
        s = sl[live]
        if len(s):   # through the slice view, the slice gradients land in out
            slices_of(out)[live] = _shaped(h_sub, h_grad(s), s, s.shape, "gradients")
        return out

    # the (..., *dims, *dims) operator's axes ordered (rest, rest', sub, sub')
    axes = (-3, -1, -4, -2) if sub_slot == 0 else (-4, -2, -3, -1)
    rest = np.arange(d_rest)

    def op(z):
        z = np.asarray(z, dtype=complex)
        sl, live = live_slices(z)
        if rows:
            blocks = each_slice(h_sub.analytic_operator, sl, live, "operators", 2)
        else:
            blocks = np.zeros(sl.shape + (d_sub,), dtype=complex)
            if np.any(live):
                s = sl[live]
                blocks[live] = _shaped(h_sub, h_sub.analytic_operator(s), s,
                                       s.shape + (d_sub,), "operators")
        full = np.zeros(z.shape[:-1] + dims + dims, dtype=complex)
        np.moveaxis(full, axes, (-4, -3, -2, -1))[..., rest, rest, :, :] = blocks
        return full.reshape(z.shape[:-1] + (dim_total, dim_total))

    return HomogeneousObservable(
        evaluator=value,
        label=f"slice-sum[{h_sub.label or 'h'}; slot {sub_slot}]",
        analytic_gradient=grad,
        analytic_operator=op,
        rows=rows,
    )


def gradient_flow_operator(obs: HomogeneousObservable) -> Callable:
    """Hermitian generator reproducing the gradient flow of ``obs``.

    Returns a builder psi -> M(psi) with M Hermitian, scale-invariant, and
    M psi = dH/dpsibar exactly (the rank-2 completion
    (g psi+ + psi g+)/n - (H/n^2) psi psi+ — the cross terms cancel by the
    homogeneity identity <psi, g> = H).  Any Hermitian completion gives the
    same wave flow; this one needs only the gradient.  The builder also maps
    a ``(K, d)`` stack of states to the ``(K, d, d)`` stack of their
    generators, with one :func:`wirtinger_gradient` and one
    :meth:`~HomogeneousObservable.value` call.  A zero state, or a zero row
    of a stack, raises :class:`SingularObservableError`.
    """
    def builder(z):
        zv = np.asarray(z, dtype=complex)
        zs = np.atleast_2d(zv)
        n = np.real(np.sum(zs.conj() * zs, axis=-1))
        if not n.all():
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


def polchinski_functional(e2, epshat, dims, variant: str = "plain",
                          eps=1.0, slot: int = 1) -> HomogeneousObservable:
    """Basis-independent pair extension built from lifted-operator moments.

    ``plain``:           H = e2 n + eps <L>^2 / n,
    ``purity-weighted``: H = e2 n + eps <L>^2 Tr(rho_sub^2) / n^3,

    with L the lift of ``epshat`` into ``slot`` and rho_sub the reduced
    density matrix of that slot.  Both depend on the pair amplitude only
    through operator averages and the reduced state, so a remote basis change
    cannot move them.  The purity weight makes the reduced flow rate depend on
    how mixed the subsystem is — see :func:`polchinski_reduced_flow`.

    The purity-weighted operator, through the moments n, m = <L> and p =
    Tr(rho_sub^2) of f = m^2 p / n^3 and their gradients g_n = psi, g_m = L psi
    and g_p = 2 vec(t t^dagger t) (t: psi reshaped to ``dims``), is

        A_hat = e2 1 + eps [f_m L + f_p H_p + f_n 1 + sum_ab f_ab g_a g_b^dagger],

    f_a and f_ab the partial derivatives of f, and H_p = 2 (t t^dagger (x) 1
    + 1 (x) t^T conj(t)) the Hessian of p (either slot).  Each operator of a
    stack is bit for bit its single-state build.  A zero state raises
    :class:`SingularObservableError`.

    ``e2`` and ``eps`` may each be a ``(B,)`` sequence, one value per
    parameter row (``rows`` = B), under the per-row contract of
    :func:`~nlqm.dynamics.integrate_nls`; a row's twin is the one-value
    call on a stack (the purity-weighted form takes the values as columns).
    """
    d0, d1 = dims
    lifted = lift_operator(epshat, dims, slot)
    e2, eps = (float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float) for x in (e2, eps))
    if variant == "plain":
        obs = bilinear(np.multiply.outer(e2, np.eye(d0 * d1))) + moment_power(lifted, 2, coeff=eps)
        return replace(obs, label=f"moment-pair[plain, eps={_g(eps)}]")
    if variant != "purity-weighted":
        raise ValidationError(f"unknown variant {variant!r}")

    zero = "purity-weighted form undefined at the zero vector"

    def at(z, x, trail: int):
        """x, or the values of the rows of stack z as a column over ``trail`` axes."""
        return x if np.ndim(x) == 0 else _row_params(z, x)[(...,) + (None,) * trail]

    def moments(z: np.ndarray):
        """n, <L>, Tr(rho_sub^2), L z, the amplitude tensors and rho_sub of each state."""
        n = np.real(np.sum(z.conj() * z, axis=-1))
        if not np.all(n):
            raise SingularObservableError(zero)
        lz = z @ lifted.T
        m = np.real(np.sum(z.conj() * lz, axis=-1))
        t = z.reshape(z.shape[:-1] + tuple(dims))
        layout = "...mk,...ml->...kl" if slot == 1 else "...km,...lm->...kl"
        rho = np.einsum(layout, t, t.conj())
        p2 = np.real(np.sum(np.swapaxes(rho, -1, -2) * rho, axis=(-2, -1)))
        return n, m, p2, lz, t, rho

    def value(z, zc):
        z = np.asarray(z, dtype=complex)
        n, m, p2, *_ = moments(z)
        return at(z, e2, 0) * n + at(z, eps, 0) * m ** 2 * p2 / n ** 3

    def grad(z):
        z = np.asarray(z, dtype=complex)
        n, m, p2, lz, t, rho = moments(z)
        if slot == 1:
            rho_psi = (t @ np.swapaxes(rho, -1, -2)).reshape(z.shape)
        else:
            rho_psi = (rho @ t).reshape(z.shape)
        col = lambda c: np.asarray(c)[..., None]
        e, x = at(z, e2, 1), at(z, eps, 1)
        return (e * z
                + x * col(2.0 * m * p2 / n ** 3) * lz
                + x * col(2.0 * m ** 2 / n ** 3) * rho_psi
                - x * col(3.0 * m ** 2 * p2 / n ** 4) * z)

    dim = d0 * d1
    lifted_t, eye, eye0, eye1 = lifted.T, np.eye(dim), np.eye(d0), np.eye(d1)

    def op(z):
        # products, quotients and per-row matmuls only: no row sees another
        z = np.asarray(z, dtype=complex)
        zs = z.reshape(-1, dim)
        k, zc = len(zs), zs.conj()
        e, x = (np.broadcast_to(at(z, v, 0), z.shape[:-1]).reshape(k) for v in (e2, eps))
        n = np.add.reduce(zc * zs, axis=-1).real
        if not n.all():
            raise SingularObservableError(zero)
        lz = np.matmul(zs[:, None, :], lifted_t)[:, 0]
        m = np.add.reduce(zc * lz, axis=-1).real
        t = zs.reshape(k, d0, d1)
        ra = t @ np.swapaxes(t.conj(), -1, -2)   # t t^dagger
        rb = np.swapaxes(t, -1, -2) @ t.conj()   # t^T conj(t)
        p = np.add.reduce((np.swapaxes(ra, -1, -2) * ra).reshape(k, -1), axis=-1).real
        hp = 2.0 * (ra[:, :, None, :, None] * eye1[:, None, :]
                    + eye0[:, None, :, None] * rb[:, None, :, None, :]).reshape(k, dim, dim)
        g = np.stack([zs, lz, 2.0 * (ra @ t).reshape(k, dim)], axis=-1)   # g_n, g_m, g_p
        n3, mm = n * n * n, m * m
        n4 = n3 * n
        # the second derivatives f_ab of f = m^2 p / n^3, rows and columns (n, m, p)
        f_nn, f_nm, f_np = 12.0 * mm * p / (n4 * n), -6.0 * m * p / n4, -3.0 * mm / n4
        f_mm, f_mp = 2.0 * p / n3, 2.0 * m / n3
        f2 = np.stack([f_nn, f_nm, f_np, f_nm, f_mm, f_mp, f_np, f_mp, np.zeros(k)], axis=-1)
        col = lambda c: c[:, None, None]
        out = (col(e - x * 3.0 * mm * p / n4) * eye
               + col(x) * (col(2.0 * m * p / n3) * lifted + col(mm / n3) * hp
                           + g @ f2.reshape(k, 3, 3) @ np.swapaxes(g.conj(), -1, -2)))
        return out.reshape(z.shape + (dim,))

    return HomogeneousObservable(
        evaluator=value,
        label=f"moment-pair[purity-weighted, eps={_g(eps)}]",
        analytic_gradient=grad,
        analytic_operator=op,
        rows=max(np.size(e2) * np.ndim(e2), np.size(eps) * np.ndim(eps)),
    )


def _g(x) -> str:
    """A number, or a sequence of them, for a label."""
    return f"{x:g}" if np.ndim(x) == 0 else "[" + ", ".join(f"{v:g}" for v in x) + "]"


@dataclass
class ReducedFlowTrajectory:
    """Reduced-density-matrix flow with its per-step conserved quantities."""

    times: np.ndarray
    rhos: np.ndarray  # (nsteps+1, d, d), or (nsteps+1, B, d, d) for a stack

    def offdiagonal_phase_rate(self) -> float:
        """Linear-fit phase velocity of the (0, 1) matrix element of one flow."""
        if self.rhos.ndim != 3:
            raise ValidationError("fit one flow of a stack: "
                                  "ReducedFlowTrajectory(times, rhos[:, k])")
        t = _fit_times(self.times, "a phase-rate fit")
        phase = np.unwrap(np.angle(self.rhos[:, 0, 1]))
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
    is verified at every sample to 1e-9 (|c0| + s), s = Tr(rho0) for the first
    two and Tr(rho0)^2 for the purity, so a multiple of rho0 gets its verdict,
    one block of samples at a time; the earliest violation is reported.
    Diagonal mixtures in the epshat eigenbasis are fixed points — seed an
    off-diagonal perturbation to see the variant-dependent rotation rate.  ``rho0``, a ``(d, d)`` array,
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

    def coeff(r):   # of the leading len(r) rows, as every rhs of _rk4
        k = len(r)
        tr = r.trace(axis1=1, axis2=2).real
        c = _trace_products(eh_rows[:k], r) / tr
        if any_weighted:
            purity = _trace_products(r.swapaxes(1, 2).reshape(k, 1, -1), r)
            c = c * np.where(weighted[:k], purity / tr ** 2, 1.0)
        return c

    def rhs(r):
        e = eh[:len(r)] if eh.ndim == 3 else eh
        return (-2j * coeff(r))[:, None, None] * (e @ r - r @ e)

    def invariants(rs):
        """(trace, epshat average, purity) of each matrix of a (..., d, d) stack."""
        return np.stack([np.trace(rs, axis1=-2, axis2=-1).real,
                         (eh_t * rs).sum(axis=(-2, -1)).real,
                         (np.swapaxes(rs, -1, -2) * rs).sum(axis=(-2, -1)).real], axis=-1)

    # a rho0 too large to square has a non-finite purity: refused, unwarned
    with np.errstate(all="ignore"):
        consts0 = invariants(rs)
        tol = 1e-9 * (consts0[:, :1] ** np.array([1.0, 1.0, 2.0]) + np.abs(consts0))
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
        broken = ~(np.abs(consts - consts0) <= tol)
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
    """A telegraph's local <sigma_2> signal and its closed-form prediction.

    The sinusoid fit (:func:`_fit_sinusoid`) runs when ``fitted_frequency``
    or ``fitted_amplitude`` is first read, so each member of a stack fits on
    its own: a signal too short to fit raises :class:`ValidationError` there.
    """

    times: np.ndarray
    signal: np.ndarray
    predicted_frequency: float
    predicted_amplitude: float

    @cached_property
    def _fit(self):
        return _fit_sinusoid(self.times, self.signal)

    @property
    def fitted_frequency(self) -> float:
        return self._fit[1]

    @property
    def fitted_amplitude(self) -> float:
        return self._fit[0]


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


def _pair_total(description: str, e1, e2, eps) -> HomogeneousObservable:
    """``e1 n`` plus the pair extension ``description`` of
    :func:`no_signaling_check` (``"weinberg"`` is also both telegraphs'), of
    one value of e1, e2 and eps, or of one per parameter row."""
    if description == "weinberg":
        if np.ndim(eps) == 0:
            h_sub = canonical(e2, e2, eps)
        else:   # canonical's matrices, row by row: +0 off the diagonal
            h_sub = (bilinear([np.diag([complex(x)] * 2) for x in e2])
                     + moment_power(sigma3, 2, coeff=eps))
        pair = weinberg_composite(h_sub, 2, 2, np.eye(2), sub_slot=1)
    elif description in ("polchinski-plain", "polchinski-purity"):
        variant = "plain" if description == "polchinski-plain" else "purity-weighted"
        pair = polchinski_functional(e2, sigma3, (2, 2), variant=variant, eps=eps)
    else:
        raise ValidationError(f"unknown description {description!r}")
    return bilinear(np.multiply.outer(e1, np.eye(4))) + pair


def _pair_runs(total_of: Callable, states: np.ndarray, t_end: list, dt: list, *params) -> list:
    """Integrate the pair states of each member, a ``(B, r, 4)`` array of r
    rows a member, under ``total_of`` of its own ``params`` (one list of B
    values each) up to its own ``t_end``.

    One member runs alone, as one state or as the stack of its r.  More run
    as one RK4 stack of B r parameter rows, longest horizon first, each row
    leaving it at its own horizon and each bit for bit its solo run (the
    ``per_row`` pairs of :func:`~nlqm.dynamics.integrate_nls` are the
    members' own functionals).  Returns each member's ``(times, (T, r, 4)
    samples)``.  An :class:`IntegrationError` that names a row of the stack
    names its member instead, in the text and as ``row``.
    """
    members, r = states.shape[:2]
    if members == 1:
        total = total_of(*(x[0] for x in params))
        traj = integrate_nls(lambda z: nonlinear_operator(total, z),
                             states[0] if r > 1 else states[0, 0], t_end[0], dt[0],
                             flow=total.analytic_gradient)
        return [(traj.times, traj.amplitudes().reshape(len(traj.times), r, -1))]
    order = sorted(range(members), key=lambda b: -t_end[b])
    rows = np.repeat(order, r)   # the member of each row
    total = total_of(*(np.asarray(x, dtype=float)[rows] for x in params))
    alone = {b: total_of(*(x[b] for x in params)) for b in order}
    per_row = [(lambda z, o=alone[b]: nonlinear_operator(o, z), alone[b].analytic_gradient)
               for b in rows]
    try:
        traj = integrate_nls(lambda z: nonlinear_operator(total, z),
                             states[order].reshape(members * r, -1), [t_end[b] for b in rows],
                             [dt[b] for b in rows], flow=total.analytic_gradient, per_row=per_row)
    except IntegrationError as e:
        raise _as_member(e, rows) from None
    amps, runs = traj.amplitudes(), {}
    for k, b in enumerate(order):
        end = traj.ends[k * r]
        runs[b] = (traj.times[:end + 1], np.ascontiguousarray(amps[:end + 1, k * r:(k + 1) * r]))
    return [runs[b] for b in range(members)]


def _gisin_member(alpha, beta, eps, e1, e2) -> tuple:
    """A :func:`gisin_telegraph` member for :func:`_telegraphs`: its rotated
    singlet, the factor read (1), its predicted (frequency, amplitude) and
    its pair functional's (e1, e2, eps)."""
    a, b = complex(alpha), complex(beta)
    _preparation_unitary(a, b)
    t0 = np.array([[-b, a], [-a.conjugate(), -b.conjugate()]], dtype=complex) / np.sqrt(2.0)
    predicted = (abs(4.0 * eps * (abs(a) ** 2 - abs(b) ** 2)), abs(2.0 * (a.conjugate() * b).real))
    return t0.reshape(-1), 1, predicted, (e1, e2, eps)


def _mobility_member(eps, tilt) -> tuple:
    """A :func:`mobility_telegraph` member for :func:`_telegraphs`: its state
    correlated with the tilted frame, the factor read (0), its predicted
    (frequency, amplitude) and its pair functional's (e1, e2, eps), the Gisin
    one at e1 = e2 = 0."""
    phi = np.array([np.cos(tilt), np.sin(tilt)], dtype=complex)
    phi_perp = np.array([np.sin(tilt), -np.cos(tilt)], dtype=complex)
    predicted = (abs(4.0 * eps * np.cos(2.0 * tilt)), abs(np.sin(2.0 * tilt)))
    return (np.stack([phi, phi_perp]) / np.sqrt(2.0)).reshape(-1), 0, predicted, (0.0, 0.0, eps)


def _telegraphs(members: list, t_end: list, dt: list) -> list:
    """Integrate the pair amplitude of each member (:func:`_gisin_member`,
    :func:`_mobility_member`; the two kinds mix) under the Gisin pair
    functional of its own (e1, e2, eps), by :func:`_pair_runs`, and report
    the local <sigma_2> of the member's factor beside its predicted
    (frequency, amplitude)."""
    states, keep, predicted, params = zip(*members)
    runs = _pair_runs(partial(_pair_total, "weinberg"), np.stack(states)[:, None], t_end, dt,
                      *zip(*params))
    reports = []
    for (times, amps), k, pred in zip(runs, keep, predicted):
        rho = reduced_states(amps[:, 0], (2, 2), k)
        tr = np.trace(rho, axis1=1, axis2=2).real
        signal = np.einsum("tkl,lk->t", rho, sigma2).real / tr
        reports.append(TelegraphReport(times, signal, *pred))
    return reports


def gisin_telegraph(alpha, beta, eps, t_end, dt, *, e1=0.0, e2=0.0):
    """Entangled-pair telegraph under the slice-sum extension.

    One particle is linear, the partner carries the quadratic-moment
    nonlinearity; the pair starts in the rotated singlet parametrized by
    (alpha, beta).  The partner's local <sigma_2> then oscillates at

        omega = 4 eps (|alpha|^2 - |beta|^2)

    with amplitude 2 |Re(conj(alpha) beta)| — a nonzero local signal created
    purely by the distant preparation basis.  ``e1`` weighs the pair's norm
    and ``e2`` both levels of the partner's family.  Returns a
    :class:`TelegraphReport`.
    """
    return _telegraphs([_gisin_member(alpha, beta, eps, e1, e2)], [t_end], [dt])[0]


def mobility_telegraph(eps, tilt, t_end, dt):
    """Telegraph driven by tilting the correlated basis, not the preparation.

    The pair perfectly correlates spectator basis states with the tilted frame
    phi = (cos tilt, sin tilt), phi_perp; the spectator's local <sigma_2>
    oscillates at

        omega = 4 eps cos(2 tilt)

    with amplitude sin(2 tilt): at tilt = 0 the frame is the functional's own
    eigenframe and the signal vanishes.  The functional is
    :func:`gisin_telegraph`'s at e1 = e2 = 0, read on the other factor, so
    members of both kinds can share one stack.  Returns a
    :class:`TelegraphReport`.
    """
    return _telegraphs([_mobility_member(eps, tilt)], [t_end], [dt])[0]


# ---------------------------------------------------------------------------
# No-signaling comparison


@dataclass
class NoSignalingReport:
    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def _no_signalings(description: str, us: list, t_end: list, dt: list, eps: list, e1: list,
                   e2: list) -> list:
    """The :func:`no_signaling_check` of each member, one entry of each list
    a member, by :func:`_pair_runs`: the singlet and its copy rotated by the
    member's remote unitary are its two rows."""
    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex).reshape(-1) / np.sqrt(2.0)
    # The operator satisfies A_hat psi = dH/dpsibar, so the RK4 stages can
    # take the gradient directly, for both states of a member as one stack.
    states = np.stack([[singlet, rotate_subsystem(singlet, (2, 2), _unitary(u, 2), slot=0)]
                       for u in us])
    reports = []
    for times, amps in _pair_runs(partial(_pair_total, description), states, t_end, dt,
                                  e1, e2, eps):
        rho = reduced_states(amps.reshape(-1, 4), (2, 2), keep=1)
        devs = np.max(np.abs(rho[0::2] - rho[1::2]), axis=(1, 2))
        reports.append(NoSignalingReport(times=times, deviations=devs,
                                         max_deviation=float(np.max(devs))))
    return reports


def no_signaling_check(description: str, remote_u, t_end, dt, *, eps, e1=0.0, e2=0.0):
    """Does a remote unitary move the local reduced density matrix?

    Evolves the singlet and its slot-0-rotated copy under the extension named
    by ``description`` ("polchinski-plain", "polchinski-purity" or
    "weinberg") and reports the entrywise deviation of the slot-1 reduced
    density matrices over time.  The moment extensions stay at numerical zero;
    the slice sum, sliced in slot 0's computational basis, sees the rotation
    as a change of that basis and shows an order-one deviation for a generic
    one (rotations preserving the slice structure produce none).  Returns a
    :class:`NoSignalingReport`.
    """
    return _no_signalings(description, [remote_u], [t_end], [dt], [eps], [e1], [e2])[0]


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

    def rhs(r):   # of the leading len(r) rows, as every rhs of _rk4
        return col(-2j * f[:len(r)] * xval(r)) * (sigma1 @ r - r @ sigma1)

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
