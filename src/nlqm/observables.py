"""(1,1)-homogeneous observable functionals and their Wirtinger calculus.

An observable here is a real functional ``A(psi, psibar)`` that is homogeneous
of degree one in each argument separately, so ``A(c*psi) = |c|^2 A(psi)``.
Such functionals obey the Euler identities

    sum_n psi_n dA/dpsi_n = sum_n psibar_n dA/dpsibar_n = A,

and every one of them induces a state-dependent Hermitian matrix

    A_hat[m, n] = d^2 A / dpsibar_m dpsi_n

that reproduces the functional through ``A = <psi| A_hat psi>``.  This module
computes gradients, these operator matrices, the *-product
``A*B = sum_m (dA/dpsi_m)(dB/dpsibar_m)`` and the bar-star moments
``<psi| A_hat^k psi>/<psi|psi>``, and hosts the catalog of concrete families
used by the rest of the package.

Each callable of an observable maps one state ``(d,)`` or a ``(B, d)`` stack,
row by row, to the value, gradient or operator of each: shapes ``()``,
``(d,)`` and ``(d, d)``, with a leading ``B`` for a stack.  A state reaches it
as a 1-D array, never as a one-row stack; a result of another shape raises a
:class:`ContractError` (a ``ValidationError``) that names both shapes.  The
check sees shapes only: a callable written for one state that indexes its
entries (``z[0]``) gets the right shape on a stack of exactly ``d`` rows.

Derivatives fall back to central finite differences in the underlying real
coordinates, ``d/dpsibar = (d/dx + i d/dy)/2`` and ``d/dpsi = (d/dx - i
d/dy)/2``, whenever no analytic closed form is attached, so an evaluator alone
is a complete observable.  One stencil serves every route and sends its ``4d``
probes ``psi +- h e_n``, ``psi +- i h e_n`` to the function in one call: the
gradient is the stencil of the values at ``h = 1e-5 (1 + |psi|)``, the
operator that of the analytic gradient at the same step or, without one, of
the numeric gradient at ``h = 1e-4 (1 + |psi|)``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import HermitianOperator, ValidationError, _hermiticity_residual, sigma3

GRADIENT_STEP = 1e-5
HESSIAN_STEP = 1e-4
HERMITICITY_GATE = 1e-8
SINGULAR_GUARD = 1e-6

__all__ = [
    "ContractError",
    "HomogeneousObservable",
    "SingularObservableError",
    "wirtinger_gradient",
    "nonlinear_operator",
    "star_product",
    "barstar_moment",
    "norm_functional",
    "bilinear",
    "moment_power",
    "power_family",
    "canonical",
    "cubic",
    "singular_inverse",
    "standard_catalog",
]


class SingularObservableError(ArithmeticError):
    """The evaluator is singular (or guarded) at the requested state."""


class ContractError(ValidationError):
    """A callable of an observable mapped a state or stack to a wrong shape."""


def _shaped(obs, out, z: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """``out`` as a complex array, refused unless it has ``shape``."""
    out = np.asarray(out, dtype=complex)
    if out.shape != shape:
        raise ContractError(f"{obs.label or 'observable'} mapped states of shape {z.shape} "
                            f"to {what} of shape {out.shape}, not {shape}")
    return out


def _unwarned(f: Callable, *args):
    """``f(*args)`` under the caller's error state, showing no RuntimeWarning:
    each caller refuses a non-finite result itself."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return f(*args)


@dataclass(frozen=True)
class HomogeneousObservable:
    """A real (1,1)-homogeneous functional with optional analytic derivatives.

    Parameters
    ----------
    evaluator:
        Map ``(psi, psibar) -> real value`` (of a state or a stack, see above).
    analytic_gradient:
        Optional map ``psi -> dA/dpsibar`` (complex vectors).
    analytic_operator:
        Optional map ``psi -> Hermitian matrix`` (the Wirtinger Hessian).
    params:
        The family constants ``e1``, ``e2``, ``eps`` and ``power``, set only
        by :func:`power_family` (so also by :func:`canonical` and
        :func:`cubic`) and read by :func:`~nlqm.spectra.moment_probabilities`;
        empty for every other observable, a sum included.
    """

    evaluator: Callable
    label: str = ""
    analytic_gradient: Optional[Callable] = None
    analytic_operator: Optional[Callable] = None
    params: dict = field(default_factory=dict)

    def value(self, psi):
        """The real value at one state (a float) or at each row of a stack (an
        array; an empty stack is not evaluated).  A non-finite value raises
        :class:`SingularObservableError`, a non-real one :class:`ValidationError`,
        at the first bad row of a stack what that row alone raises, with no
        RuntimeWarning printed first."""
        z = np.asarray(psi, dtype=complex)
        if z.ndim == 2 and len(z) == 0:
            return np.empty(0)
        v = _shaped(self, _unwarned(self.evaluator, z, z.conj()), z, z.shape[:-1], "values")
        flat = v.reshape(-1)
        good = np.isfinite(flat) & (np.abs(flat.imag) <= 1e-10 * np.maximum(1.0, np.abs(flat.real)))
        if not np.all(good):
            k = int(np.argmin(good))
            bad, row = complex(flat[k]), z.reshape(-1, z.shape[-1])[k]
            if not np.isfinite(bad):
                raise SingularObservableError(f"{self.label or 'observable'} is singular at "
                                              f"state {np.array2string(row, precision=6)}")
            raise ValidationError(f"{self.label or 'observable'} returned a non-real value {bad!r}")
        return float(v.real) if z.ndim == 1 else v.real

    def __add__(self, other):
        if not isinstance(other, HomogeneousObservable):
            return NotImplemented
        a, b = self, other

        def ev(z, zc):
            return a.evaluator(z, zc) + b.evaluator(z, zc)

        grad = None
        ga, gb = a.analytic_gradient, b.analytic_gradient
        if ga is not None and gb is not None:
            grad = lambda z: ga(z) + gb(z)
        op = None
        if a.analytic_operator is not None and b.analytic_operator is not None:
            op = lambda z: a.analytic_operator(z) + b.analytic_operator(z)
        return HomogeneousObservable(
            evaluator=ev,
            label=f"({a.label} + {b.label})",
            analytic_gradient=grad,
            analytic_operator=op,
        )


# ---------------------------------------------------------------------------
# Wirtinger differentiation


def _central_differences(f: Callable, z: np.ndarray, h: float):
    """Central differences of ``f`` at ``z`` along ``x_n`` and along ``y_n``, n on
    the first axis; the ``4d`` probes ``z +- h e_n`` and ``z +- i h e_n`` go to
    ``f`` in one call, as a ``(4d, d)`` stack."""
    d = z.size
    e = h * np.eye(d)
    probes = np.stack([z + e, z - e, z + 1j * e, z - 1j * e], axis=1).reshape(4 * d, d)
    v = np.asarray(f(probes))
    v = v.reshape((d, 4) + v.shape[1:])
    return (v[:, 0] - v[:, 1]) / (2.0 * h), (v[:, 2] - v[:, 3]) / (2.0 * h)


def _numeric_gradient(obs: HomogeneousObservable, z: np.ndarray, h: float) -> np.ndarray:
    # dA/dpsibar = (d/dx + i d/dy)/2
    dx, dy = _central_differences(obs.value, z, h)
    return 0.5 * (dx + 1j * dy)


def wirtinger_gradient(obs: HomogeneousObservable, psi) -> np.ndarray:
    """The vector ``dA/dpsibar_m`` at ``psi`` (equals ``A_hat psi``), or the
    ``(B, d)`` gradients of a stack.

    Uses the analytic gradient when the observable carries one, otherwise
    central differences of the values at step ``1e-5 * (1 + |psi|)`` per
    state, its ``4d`` probes in one :meth:`~HomogeneousObservable.value` call.
    A non-finite analytic gradient of one state raises
    :class:`SingularObservableError`; a stack keeps its non-finite rows.
    """
    z = np.asarray(psi, dtype=complex)
    if obs.analytic_gradient is not None:
        if z.ndim > 1:
            return _shaped(obs, obs.analytic_gradient(z), z, z.shape, "gradients")
        g = _shaped(obs, _unwarned(obs.analytic_gradient, z), z, z.shape, "gradients")
        if not np.isfinite(g).all():
            raise SingularObservableError(f"{obs.label or 'observable'} has a non-finite "
                                          f"gradient at state {np.array2string(z, precision=6)}")
        return g
    if z.ndim == 1:
        return _numeric_gradient(obs, z, GRADIENT_STEP * (1.0 + np.linalg.norm(z)))
    return np.array([wirtinger_gradient(obs, row) for row in z], dtype=complex).reshape(z.shape)


def _numeric_hessian(obs: HomogeneousObservable, z: np.ndarray) -> np.ndarray:
    if obs.analytic_gradient is not None:
        h = GRADIENT_STEP * (1.0 + np.linalg.norm(z))
        grad = lambda zs: wirtinger_gradient(obs, zs)
    else:
        # Differences of differences need a larger step than the gradient: at
        # 1e-5 the roundoff noise (~1e-7) would exceed the hermiticity gate.
        h = HESSIAN_STEP * (1.0 + np.linalg.norm(z))
        grad = lambda zs: np.array([_numeric_gradient(obs, row, h) for row in zs])
    dx, dy = _central_differences(grad, z, h)
    # entry (m, n): d g_m / dpsi_n = (d/dx_n - i d/dy_n)/2 applied to g
    return 0.5 * (dx - 1j * dy).T


def nonlinear_operator(obs: HomogeneousObservable, psi):
    """The Hermitian ``(d, d)`` array ``A_hat[m,n] = d^2 A/dpsibar_m dpsi_n`` at ``psi``.

    Uses ``analytic_operator`` when the observable carries one; otherwise the
    stencil ``(d/dx_n - i d/dy_n)/2`` of the gradient, its ``4d`` probes in
    one call: of the analytic gradient at step ``1e-5 * (1 + |psi|)`` when
    there is one, else of the numeric gradient at ``1e-4 * (1 + |psi|)`` (the
    ``16 d^2`` value probes of a second-difference stencil).  Raises when the
    pre-symmetrization residual exceeds the 1e-8 gate (genuine
    non-Hermiticity is a bug, not noise).

    Given a ``(K, d)`` stack of states, returns the ``(K, d, d)`` ndarray of
    their operators, built with one ``analytic_operator`` call when the
    observable has one (else row by row).  Every row gets the gate, which a
    non-finite entry fails as a NaN or infinite residual, and is symmetrized;
    the first row that fails raises what a single-state call raises for it,
    with no RuntimeWarning of the analytic operator printed first.
    """
    z = np.asarray(psi, dtype=complex)
    d = z.shape[-1]
    if obs.analytic_operator is None:
        m = np.array([_numeric_hessian(obs, row) for row in z.reshape(-1, d)])
    else:
        m = _shaped(obs, _unwarned(obs.analytic_operator, z), z, z.shape + (d,), "operators")
        m = m.reshape(-1, d, d)
    out = 0.5 * m + 0.5 * np.swapaxes(m, -1, -2).conj()   # halves first: no overflow
    resid = _hermiticity_residual(m)
    if not resid.max() <= HERMITICITY_GATE / 4:   # a NaN residual fails too
        k = int(np.argmin(resid <= HERMITICITY_GATE / 4))
        if resid[k] > HERMITICITY_GATE / 4:
            raise ValidationError(f"non-Hermitian Hessian for {obs.label or 'observable'}: "
                                  f"residual {4.0 * float(resid[k]):.3e}")
        HermitianOperator(out[k])   # raises the non-finite entries error
    return out[0] if z.ndim == 1 else out


def star_product(a: HomogeneousObservable, b: HomogeneousObservable, psi) -> complex:
    """``A*B = sum_m (dA/dpsi_m)(dB/dpsibar_m) = <psi| A_hat B_hat psi>``.

    For real observables ``dA/dpsi = conj(dA/dpsibar)``, so this contracts the
    two gradients directly.  Generally complex and non-associative.
    """
    ga = wirtinger_gradient(a, psi)
    gb = wirtinger_gradient(b, psi)
    return complex(np.vdot(ga, gb))


def barstar_moment(a: HomogeneousObservable, psi, k: int) -> float:
    """Normalized bar-star moment ``<psi| A_hat^k psi> / <psi|psi>``."""
    if k < 1:
        raise ValidationError(f"moment order must be >= 1, got {k}")
    z = np.asarray(psi, dtype=complex)
    ahat = nonlinear_operator(a, z)
    w = z
    for _ in range(k):
        w = ahat @ w
    val = complex(np.vdot(z, w)) / float(np.vdot(z, z).real)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ValidationError(f"bar-star moment has imaginary residual {val.imag:.3e}")
    return val.real


# ---------------------------------------------------------------------------
# Catalog


def _stacked(mat: np.ndarray, z) -> np.ndarray:
    """A fresh copy of the state-independent ``mat`` per state of ``z``."""
    return np.array(np.broadcast_to(mat, np.shape(z)[:-1] + mat.shape))


def norm_functional() -> HomogeneousObservable:
    """The squared norm ``n = <psi|psi>`` — the unit of the *-product."""
    return HomogeneousObservable(
        evaluator=lambda z, zc: np.real(np.sum(z * zc, axis=-1)),
        label="n",
        analytic_gradient=lambda z: np.array(z, copy=True),
        analytic_operator=lambda z: _stacked(np.eye(np.shape(z)[-1], dtype=complex), z),
    )


def bilinear(m, label: str = "") -> HomogeneousObservable:
    """Ordinary quantum observable ``<psi|M psi>`` for Hermitian ``M``."""
    mat = HermitianOperator(m).entries
    mat_t = mat.T   # one transposed view, taken once: the same matmul as z @ mat.T
    return HomogeneousObservable(
        evaluator=lambda z, zc: np.real(np.sum(zc * (z @ mat_t), axis=-1)),
        label=label or "bilinear",
        analytic_gradient=lambda z: z @ mat_t,
        analytic_operator=lambda z: _stacked(mat, z),
    )


def moment_power(m, power: int, coeff: float = 1.0, label: str = "") -> HomogeneousObservable:
    """The power family ``c * <psi|M psi>^p / n^(p-1)``.

    With ``s = <psi|M psi>/n`` and ``v = (M - s) psi`` the closed forms are

        gradient  = c [ p s^(p-1) M psi - (p-1) s^p psi ]
        operator  = c [ p s^(p-1) M - (p-1) s^p 1 + p(p-1) s^(p-2)/n |v><v| ]

    which cover the quadratic (p=2), cubic (p=3), general even-power (p=2N)
    and singular inverse (p=-1) catalog entries.  Negative powers guard a disk
    ``|s| < 1e-6`` around the singular set and report instead of evaluating
    (no other power runs the guard).  The gradient is the wave flow's kernel,
    called at every RK4 stage: for one state ``s`` stays a numpy scalar, for
    a stack it is one column, and both give each row the bits of the same
    expression.
    """
    mat = HermitianOperator(m).entries
    p = int(power)
    c = float(coeff)
    name = label or f"{c:g}*<M>^{p}/n^{p - 1}"

    mat_t = mat.T
    pf, qf = float(p), float(p - 1)   # the same products, without an int conversion

    def _mu_n(z, zc):
        mz = z @ mat_t
        mu = np.add.reduce(zc * mz, axis=-1).real
        n = np.add.reduce(z * zc, axis=-1).real
        if p < 0 and np.any(np.abs(mu / n) < SINGULAR_GUARD):
            raise SingularObservableError(
                f"{name}: |<M>| = {np.min(np.abs(mu / n)):.3e} inside the singular guard disk")
        return mz, mu, n

    def ev(z, zc):
        _, mu, n = _mu_n(z, zc)
        return c * mu ** p / n ** (p - 1)

    def grad(z):
        z = np.asarray(z)
        mz, mu, n = _mu_n(z, z.conj())
        s = mu / n
        if z.ndim > 1:
            s = s[..., None]
        return c * (pf * s ** (p - 1) * mz - qf * s ** p * z)

    def op(z):
        zc = np.conj(z)
        mz, mu, n = _mu_n(z, zc)
        s = mu / n
        sm = np.asarray(s)[..., None, None]
        dim = z.shape[-1]
        out = c * (p * sm ** (p - 1) * mat - (p - 1) * sm ** p * np.eye(dim, dtype=complex))
        if p * (p - 1) != 0:
            v = mz - np.asarray(s)[..., None] * z
            w = np.asarray(c * p * (p - 1) * s ** (p - 2) / n)[..., None, None]
            out = out + w * (v[..., :, None] * v.conj()[..., None, :])
        return out

    return HomogeneousObservable(
        evaluator=ev,
        label=name,
        analytic_gradient=grad,
        analytic_operator=op,
    )


def power_family(e1: float, e2: float, eps: float, power: int = 2) -> HomogeneousObservable:
    """Two-level family ``<H0> + eps <sigma3>^p / n^(p-1)`` with H0=diag(E1,E2)."""
    h0 = np.diag([complex(e1), complex(e2)])
    obs = bilinear(h0, label=f"<H0({e1:g},{e2:g})>") + moment_power(sigma3, power, eps)
    return replace(
        obs,
        label=f"power{power}(E1={e1:g},E2={e2:g},eps={eps:g})",
        params={"e1": float(e1), "e2": float(e2), "eps": float(eps), "power": float(power)},
    )


def canonical(e1: float, e2: float, eps: float) -> HomogeneousObservable:
    """The quadratic family ``<H0> + eps <sigma3>^2 / n``."""
    obs = power_family(e1, e2, eps, power=2)
    return replace(obs, label=f"canonical(E1={e1:g},E2={e2:g},eps={eps:g})")


def cubic(e1: float, e2: float, eps: float) -> HomogeneousObservable:
    """The cubic family ``<H0> + eps <sigma3>^3 / n^2``."""
    obs = power_family(e1, e2, eps, power=3)
    return replace(obs, label=f"cubic(E1={e1:g},E2={e2:g},eps={eps:g})")


def singular_inverse(coeff: float = 1.0) -> HomogeneousObservable:
    """The singular observable ``c n^2/<sigma3>`` (eigenvalues +-1 for c=1)."""
    return moment_power(sigma3, -1, coeff, label=f"{coeff:g}*n^2/<sigma3>")


def standard_catalog() -> list:
    """Representative instances of every catalog family, for property sweeps.

    Each entry is ``(observable, domain)`` where ``domain`` is 'any' or
    'away-from-sigma3-kernel' (the singular family is only defined off the
    ``<sigma3>=0`` set).  The six two-level entries come first, then the two
    moment-pair functionals and a Weinberg subsystem lift (4-dimensional).
    """
    from . import composite  # local import to avoid a cycle

    return [
        (norm_functional(), "any"),
        (bilinear(sigma3, label="<sigma3>"), "any"),
        (canonical(0.0, 1.0, 1.0), "any"),
        (cubic(0.3, 0.9, 0.4), "any"),
        (power_family(0.0, 1.0, 0.7, power=4), "any"),
        (singular_inverse(), "away-from-sigma3-kernel"),
        (composite.polchinski_functional(0.5, sigma3, (2, 2), variant="plain", eps=0.3), "any"),
        (composite.polchinski_functional(0.5, sigma3, (2, 2), variant="purity-weighted",
                                         eps=0.3), "any"),
        (composite.weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2, np.eye(2)), "any"),
    ]
