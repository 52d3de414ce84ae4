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

Derivatives fall back to central finite differences in the underlying real
coordinates, ``d/dpsi = (d/dx - i d/dy)/2``, whenever no analytic closed form
is attached, so arbitrary user-registered evaluators work out of the box.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import HermitianOperator, StateVector, ValidationError, sigma3

GRADIENT_STEP = 1e-5
HESSIAN_STEP = 1e-4
HERMITICITY_GATE = 1e-8
SINGULAR_GUARD = 1e-6

__all__ = [
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


def _unwrap(psi) -> np.ndarray:
    if isinstance(psi, StateVector):
        return psi.amplitudes
    return np.asarray(psi, dtype=complex)


@dataclass(frozen=True)
class HomogeneousObservable:
    """A real (1,1)-homogeneous functional with optional analytic derivatives.

    Parameters
    ----------
    evaluator:
        Map ``(psi, psibar) -> real scalar``.
    analytic_gradient:
        Optional map ``psi -> dA/dpsibar`` (complex vector).
    analytic_operator:
        Optional map ``psi -> Hermitian matrix`` (the Wirtinger Hessian).
    params:
        Named real family parameters, kept for reporting.
    batched:
        True when the evaluator and both analytic derivatives (where given)
        also accept a ``(B, d)`` batch of states on a *leading* axis and
        return ``(B,)``, ``(B, d)`` and ``(B, d, d)`` (catalog families do,
        and so does a slice sum of a batched one).  :meth:`value_batch`,
        :meth:`gradient_batch` and :meth:`operator_batch` then make one
        call, and so does :func:`nonlinear_operator` on a stack of states;
        otherwise they loop.
    """

    evaluator: Callable
    label: str = ""
    analytic_gradient: Optional[Callable] = None
    analytic_operator: Optional[Callable] = None
    params: dict = field(default_factory=dict)
    batched: bool = False

    def value(self, psi) -> float:
        z = _unwrap(psi)
        return self._checked_value(complex(self.evaluator(z, z.conj())), z)

    __call__ = value

    def _checked_value(self, v: complex, z: np.ndarray) -> float:
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise SingularObservableError(
                f"{self.label or 'observable'} is singular at state {np.array2string(z, precision=6)}")
        if abs(v.imag) > 1e-10 * max(1.0, abs(v.real)):
            raise ValidationError(
                f"{self.label or 'observable'} returned a non-real value {v!r}")
        return v.real

    def value_batch(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a leading batch axis.

        Every row gets :meth:`value`'s checks; the first row that fails one
        raises what :meth:`value` raises for it.
        """
        if not self.batched:
            return np.array([self.value(row) for row in z])
        v = np.asarray(self.evaluator(z, z.conj()), dtype=complex)
        good = np.isfinite(v) & (np.abs(v.imag) <= 1e-10 * np.maximum(1.0, np.abs(v.real)))
        if not np.all(good):
            k = int(np.argmin(good))
            self._checked_value(complex(v[k]), z[k])
        return v.real

    def gradient_batch(self, z: np.ndarray) -> np.ndarray:
        """``dA/dpsibar`` of each row of a ``(B, d)`` batch, shape ``(B, d)``."""
        if self.batched and self.analytic_gradient is not None:
            return np.asarray(self.analytic_gradient(z), dtype=complex)
        return np.stack([wirtinger_gradient(self, row) for row in z])

    def operator_batch(self, z: np.ndarray) -> np.ndarray:
        """``analytic_operator`` of each row of a ``(B, d)`` batch, ``(B, d, d)``.

        Needs ``analytic_operator``.  Like it, these are the raw Hessians,
        not gated or symmetrized as by :func:`nonlinear_operator`.
        """
        if self.batched:
            return np.asarray(self.analytic_operator(z), dtype=complex)
        return np.stack([np.asarray(self.analytic_operator(row), dtype=complex)
                         for row in z])

    def __add__(self, other):
        if not isinstance(other, HomogeneousObservable):
            return NotImplemented
        a, b = self, other

        def ev(z, zc):
            return a.evaluator(z, zc) + b.evaluator(z, zc)

        grad = None
        if a.analytic_gradient is not None and b.analytic_gradient is not None:
            grad = lambda z: a.analytic_gradient(z) + b.analytic_gradient(z)
        op = None
        if a.analytic_operator is not None and b.analytic_operator is not None:
            op = lambda z: a.analytic_operator(z) + b.analytic_operator(z)
        return HomogeneousObservable(
            evaluator=ev,
            label=f"({a.label} + {b.label})",
            analytic_gradient=grad,
            analytic_operator=op,
            params={**a.params, **b.params},
            batched=a.batched and b.batched,
        )

    def __mul__(self, scalar):
        c = float(scalar)
        a = self
        grad = None if a.analytic_gradient is None else (lambda z: c * a.analytic_gradient(z))
        op = None if a.analytic_operator is None else (lambda z: c * a.analytic_operator(z))
        return HomogeneousObservable(
            evaluator=lambda z, zc: c * a.evaluator(z, zc),
            label=f"{c:g}*{a.label}",
            analytic_gradient=grad,
            analytic_operator=op,
            params=dict(a.params),
            batched=a.batched,
        )

    __rmul__ = __mul__

    def relabeled(self, label: str) -> "HomogeneousObservable":
        return replace(self, label=label)


# ---------------------------------------------------------------------------
# Wirtinger differentiation


def _numeric_gradient(obs: HomogeneousObservable, z: np.ndarray) -> np.ndarray:
    h = GRADIENT_STEP * (1.0 + np.linalg.norm(z))
    dim = z.size
    g = np.empty(dim, dtype=complex)
    for m in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[m] = 1.0
        dre = (obs.value(z + h * e) - obs.value(z - h * e)) / (2.0 * h)
        dim_ = (obs.value(z + 1j * h * e) - obs.value(z - 1j * h * e)) / (2.0 * h)
        # dA/dpsibar = (d/dx + i d/dy)/2
        g[m] = 0.5 * (dre + 1j * dim_)
    return g


def wirtinger_gradient(obs: HomogeneousObservable, psi) -> np.ndarray:
    """The vector ``dA/dpsibar_m`` at ``psi`` (equals ``A_hat psi``).

    Uses the analytic gradient when the observable carries one, otherwise
    central differences with step ``1e-5 * (1 + |psi|)``.
    """
    z = _unwrap(psi)
    if obs.analytic_gradient is not None:
        return np.asarray(obs.analytic_gradient(z), dtype=complex)
    return _numeric_gradient(obs, z)


def _hessian_from_gradient(grad: Callable, z: np.ndarray) -> np.ndarray:
    h = GRADIENT_STEP * (1.0 + np.linalg.norm(z))
    dim = z.size
    m = np.empty((dim, dim), dtype=complex)
    for n in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[n] = 1.0
        dre = (np.asarray(grad(z + h * e)) - np.asarray(grad(z - h * e))) / (2.0 * h)
        dim_ = (np.asarray(grad(z + 1j * h * e)) - np.asarray(grad(z - 1j * h * e))) / (2.0 * h)
        # column n: d g_m / dpsi_n = (d/dx - i d/dy)/2 applied to g
        m[:, n] = 0.5 * (dre - 1j * dim_)
    return m


def _hessian_from_values(obs: HomogeneousObservable, z: np.ndarray) -> np.ndarray:
    # Pure second differences need a larger step than the gradient: at 1e-5 the
    # roundoff noise (~1e-7) would exceed the hermiticity gate.
    h = HESSIAN_STEP * (1.0 + np.linalg.norm(z))
    dim = z.size
    out = np.empty((dim, dim), dtype=complex)

    def d2(ea, eb):
        return (obs.value(z + h * (ea + eb)) - obs.value(z + h * (ea - eb))
                - obs.value(z + h * (eb - ea)) + obs.value(z - h * (ea + eb))) / (4.0 * h * h)

    basis = np.eye(dim, dtype=complex)
    for m_ in range(dim):
        xm, ym = basis[m_], 1j * basis[m_]
        for n_ in range(dim):
            xn, yn = basis[n_], 1j * basis[n_]
            # A_hat[m,n] = (A_xx + A_yy + i(A_yx - A_xy))/4 in the (m,n) block
            out[m_, n_] = 0.25 * (d2(xm, xn) + d2(ym, yn) + 1j * (d2(ym, xn) - d2(xm, yn)))
    return out


def _raw_hessian(obs: HomogeneousObservable, z: np.ndarray) -> np.ndarray:
    if obs.analytic_operator is not None:
        return np.asarray(obs.analytic_operator(z), dtype=complex)
    if obs.analytic_gradient is not None:
        return _hessian_from_gradient(obs.analytic_gradient, z)
    return _hessian_from_values(obs, z)


def nonlinear_operator(obs: HomogeneousObservable, psi):
    """The Hermitian matrix ``A_hat[m,n] = d^2 A/dpsibar_m dpsi_n`` at ``psi``.

    Raises when the pre-symmetrization residual exceeds the 1e-8 gate
    (genuine non-Hermiticity is a bug, not noise).

    Given a ``(K, d)`` stack of states, returns the ``(K, d, d)`` ndarray of
    their operators, built with one :meth:`~HomogeneousObservable.operator_batch`
    call when the observable has ``analytic_operator`` (else row by row).
    Every row gets the single-state checks (the gate, then finite entries)
    and is symmetrized; the first row that fails raises what a single-state
    call raises for it.
    """
    z = _unwrap(psi)
    if z.ndim == 1:
        m = _raw_hessian(obs, z)
    elif obs.analytic_operator is not None:
        m = obs.operator_batch(z)
    else:
        m = np.stack([_raw_hessian(obs, row) for row in z])
    mh = np.swapaxes(m, -1, -2).conj()
    resid = np.max(np.abs(m - mh), axis=(-2, -1))
    out = (m + mh) / 2.0
    if z.ndim == 1:
        if resid > HERMITICITY_GATE:
            raise ValidationError(
                f"non-Hermitian Hessian for {obs.label or 'observable'}: residual {resid:.3e}")
        return HermitianOperator(out)
    gated = resid > HERMITICITY_GATE
    bad = gated | ~np.all(np.isfinite(out), axis=(-2, -1))
    if np.any(bad):
        k = int(np.argmax(bad))
        if gated[k]:
            raise ValidationError(
                f"non-Hermitian Hessian for {obs.label or 'observable'}: residual {resid[k]:.3e}")
        HermitianOperator(out[k])   # raises the non-finite entries error
    return out


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
    z = _unwrap(psi)
    ahat = nonlinear_operator(a, z).entries
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
        batched=True,
    )


def bilinear(m, label: str = "") -> HomogeneousObservable:
    """Ordinary quantum observable ``<psi|M psi>`` for Hermitian ``M``."""
    mat = m.entries if isinstance(m, HermitianOperator) else np.asarray(m, dtype=complex)
    resid = float(np.max(np.abs(mat - mat.conj().T)))
    if resid > 1e-12:
        raise ValidationError(f"bilinear matrix not Hermitian: residual {resid:.3e}")
    mat = np.array(mat)
    mat.flags.writeable = False
    return HomogeneousObservable(
        evaluator=lambda z, zc: np.real(np.sum(zc * (z @ mat.T), axis=-1)),
        label=label or "bilinear",
        analytic_gradient=lambda z: z @ mat.T,
        analytic_operator=lambda z: _stacked(mat, z),
        params={},
        batched=True,
    )


def moment_power(m, power: int, coeff: float = 1.0, label: str = "") -> HomogeneousObservable:
    """The power family ``c * <psi|M psi>^p / n^(p-1)``.

    With ``s = <psi|M psi>/n`` and ``v = (M - s) psi`` the closed forms are

        gradient  = c [ p s^(p-1) M psi - (p-1) s^p psi ]
        operator  = c [ p s^(p-1) M - (p-1) s^p 1 + p(p-1) s^(p-2)/n |v><v| ]

    which cover the quadratic (p=2), cubic (p=3), general even-power (p=2N)
    and singular inverse (p=-1) catalog entries.  Negative powers guard a disk
    ``|s| < 1e-6`` around the singular set and report instead of evaluating.
    """
    mat = m.entries if isinstance(m, HermitianOperator) else np.asarray(m, dtype=complex)
    if float(np.max(np.abs(mat - mat.conj().T))) > 1e-12:
        raise ValidationError("moment_power matrix must be Hermitian")
    mat = np.array(mat)
    mat.flags.writeable = False
    p = int(power)
    c = float(coeff)
    name = label or f"{c:g}*<M>^{p}/n^{p - 1}"

    def _mu_n(z, zc):
        mz = z @ mat.T
        mu = np.real(np.sum(zc * mz, axis=-1))
        n = np.real(np.sum(z * zc, axis=-1))
        return mz, mu, n

    def _guard(mu, n):
        if p < 0 and np.any(np.abs(mu / n) < SINGULAR_GUARD):
            raise SingularObservableError(
                f"{name}: |<M>| = {np.min(np.abs(mu / n)):.3e} inside the singular guard disk")

    def ev(z, zc):
        _, mu, n = _mu_n(z, zc)
        _guard(mu, n)
        return c * mu ** p / n ** (p - 1)

    def grad(z):
        zc = np.conj(z)
        mz, mu, n = _mu_n(z, zc)
        _guard(mu, n)
        s = mu / n
        a = np.asarray(p * s ** (p - 1))[..., None]
        b = np.asarray((p - 1) * s ** p)[..., None]
        return c * (a * mz - b * z)

    def op(z):
        zc = np.conj(z)
        mz, mu, n = _mu_n(z, zc)
        _guard(mu, n)
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
        params={"power": float(p), "coeff": c},
        batched=True,
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
    return obs.relabeled(f"canonical(E1={e1:g},E2={e2:g},eps={eps:g})")


def cubic(e1: float, e2: float, eps: float) -> HomogeneousObservable:
    """The cubic family ``<H0> + eps <sigma3>^3 / n^2``."""
    obs = power_family(e1, e2, eps, power=3)
    return obs.relabeled(f"cubic(E1={e1:g},E2={e2:g},eps={eps:g})")


def singular_inverse(coeff: float = 1.0) -> HomogeneousObservable:
    """The singular observable ``c n^2/<sigma3>`` (eigenvalues +-1 for c=1)."""
    return moment_power(sigma3, -1, coeff, label=f"{coeff:g}*n^2/<sigma3>")


def standard_catalog(include_composite: bool = True) -> list:
    """Representative instances of every catalog family, for property sweeps.

    Each entry is ``(observable, domain)`` where ``domain`` is 'any' or
    'away-from-sigma3-kernel' (the singular family is only defined off the
    ``<sigma3>=0`` set).  With ``include_composite`` the density-matrix
    functionals and a Weinberg subsystem lift (4-dimensional) are appended.
    """
    entries = [
        (norm_functional(), "any"),
        (bilinear(sigma3, label="<sigma3>"), "any"),
        (canonical(0.0, 1.0, 1.0), "any"),
        (cubic(0.3, 0.9, 0.4), "any"),
        (power_family(0.0, 1.0, 0.7, power=4), "any"),
        (singular_inverse(), "away-from-sigma3-kernel"),
    ]
    if include_composite:
        from . import composite  # local import to avoid a cycle

        entries.append((composite.polchinski_functional(0.5, sigma3, (2, 2), variant="plain",
                                                        eps=0.3), "any"))
        entries.append((composite.polchinski_functional(0.5, sigma3, (2, 2),
                                                        variant="purity-weighted", eps=0.3), "any"))
        entries.append((composite.weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2,
                                                     np.eye(2)), "any"))
    return entries
