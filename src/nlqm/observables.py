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
entries (``z[0]``) gets the right shape on a stack of exactly ``d`` rows.  An
observable of parameter rows (``rows``) maps stacks only, row b with its b-th
parameters.

An observable carries all three callables: the value, the gradient
``dA/dpsibar`` and the operator ``A_hat``, each in closed form.  One without
a gradient or an operator is refused at construction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import HermitianOperator, ValidationError, _hermiticity_residual, sigma3

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
    """A real (1,1)-homogeneous functional with its closed-form derivatives.

    Parameters
    ----------
    evaluator:
        Map ``(psi, psibar) -> real value`` (of a state or a stack, see above).
    analytic_gradient:
        Map ``psi -> dA/dpsibar`` (complex vectors).
    analytic_operator:
        Map ``psi -> Hermitian matrix`` (the Wirtinger Hessian).
    params:
        The family constants ``e1``, ``e2``, ``eps`` and ``power``, set only
        by :func:`power_family` (so also by :func:`canonical` and
        :func:`cubic`) and read by :func:`~nlqm.spectra.moment_probabilities`;
        empty for every other observable, a sum included.
    rows:
        0 when one set of parameters serves every state.  B for an observable
        of B parameter rows (:func:`bilinear` and :func:`moment_power` of a
        ``(B, d, d)`` matrix stack, :func:`moment_power` of B coefficients,
        and sums and slice sums of them): its callables map ``(..., k, d)``
        stacks with k <= B, row b with the b-th parameters, and refuse a
        single state with a :class:`ContractError`.

    Both derivatives are required: an observable without a callable
    gradient or operator raises :class:`ValidationError`.
    """

    evaluator: Callable
    label: str = ""
    analytic_gradient: Callable = None
    analytic_operator: Callable = None
    params: dict = field(default_factory=dict)
    rows: int = 0

    def __post_init__(self):
        for name in ("analytic_gradient", "analytic_operator"):
            if not callable(getattr(self, name)):
                raise ValidationError(f"{self.label or 'observable'} needs a callable {name}")

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
        if a.rows and b.rows and a.rows != b.rows:
            raise ValidationError(f"cannot add observables of {a.rows} and {b.rows} "
                                  "parameter rows")

        def ev(z, zc):
            return a.evaluator(z, zc) + b.evaluator(z, zc)

        ga, gb = a.analytic_gradient, b.analytic_gradient
        oa, ob = a.analytic_operator, b.analytic_operator
        return HomogeneousObservable(
            evaluator=ev,
            label=f"({a.label} + {b.label})",
            analytic_gradient=lambda z: ga(z) + gb(z),
            analytic_operator=lambda z: oa(z) + ob(z),
            rows=max(a.rows, b.rows),
        )


# ---------------------------------------------------------------------------
# Wirtinger differentiation


def wirtinger_gradient(obs: HomogeneousObservable, psi) -> np.ndarray:
    """The vector ``dA/dpsibar_m`` at ``psi`` (equals ``A_hat psi``), or the
    ``(B, d)`` gradients of a stack, from the observable's analytic gradient.
    A non-finite gradient of one state raises :class:`SingularObservableError`;
    a stack keeps its non-finite rows.
    """
    z = np.asarray(psi, dtype=complex)
    if z.ndim > 1:
        return _shaped(obs, obs.analytic_gradient(z), z, z.shape, "gradients")
    g = _shaped(obs, _unwarned(obs.analytic_gradient, z), z, z.shape, "gradients")
    if not np.isfinite(g).all():
        raise SingularObservableError(f"{obs.label or 'observable'} has a non-finite "
                                      f"gradient at state {np.array2string(z, precision=6)}")
    return g


def nonlinear_operator(obs: HomogeneousObservable, psi):
    """The Hermitian ``(d, d)`` array ``A_hat[m,n] = d^2 A/dpsibar_m dpsi_n`` at
    ``psi``, from the observable's analytic operator.  Raises when the
    pre-symmetrization residual max|A - A^dagger| exceeds the gate 1e-8
    max(1, max|A|), absolute up to unit entries and relative past them
    (genuine non-Hermiticity is a bug, not noise).

    Given a ``(K, d)`` stack of states, returns the ``(K, d, d)`` ndarray of
    their operators, built with one ``analytic_operator`` call.  Every row
    gets the gate, which a non-finite entry fails as a NaN or infinite
    residual, and is symmetrized; the first row that fails raises what a
    single-state call raises for it, with no RuntimeWarning printed first.
    """
    z = np.asarray(psi, dtype=complex)
    d = z.shape[-1]
    m = _shaped(obs, _unwarned(obs.analytic_operator, z), z, z.shape + (d,),
                "operators").reshape(-1, d, d)
    # halves first: no overflow; a non-finite entry fails the gate below, unwarned
    out, resid, top = _unwarned(lambda: (0.5 * m + 0.5 * np.swapaxes(m, -1, -2).conj(),
                                         _hermiticity_residual(m),
                                         np.abs(0.25 * m).max(axis=(1, 2))))
    # 4 resid <= gate max(1, max|m|), in quarters; an inf residual would pass an inf scale
    ok = np.isfinite(resid) & (resid <= HERMITICITY_GATE * np.maximum(0.25, top))
    if not ok.all():
        k = int(np.argmin(ok))
        if not np.isnan(resid[k]):
            raise ValidationError(f"non-Hermitian Hessian for {obs.label or 'observable'}: "
                                  f"residual {4.0 * float(resid[k]):.3e}")
        raise ValidationError("entries contains non-finite entries")
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


def _matrices(m) -> np.ndarray:
    """``m`` as one checked Hermitian matrix, or as a ``(B, d, d)`` stack of
    them, one per parameter row."""
    if np.ndim(m) == 3 and len(m):
        return np.stack([HermitianOperator(x).entries for x in m])
    return HermitianOperator(m).entries


def _row_params(z: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """The parameters of the rows of a ``(..., k, d)`` stack ``z``: the first k
    of the B rows of ``per_row`` (matrices or coefficients); :class:`ContractError`
    unless k <= B."""
    if z.ndim < 2 or z.shape[-2] > len(per_row):
        raise ContractError(f"an observable of {len(per_row)} parameter rows maps (..., k, d) "
                            f"stacks with k <= {len(per_row)}, not states of shape {z.shape}")
    return per_row[:z.shape[-2]]


def _times(mat: np.ndarray) -> Callable:
    """z -> M z for each state of z, as ``z @ M.T``.  For a ``(B, d, d)`` stack
    of M, row b of a ``(..., k, d)`` stack takes the b-th matrix, through one
    matmul per row: each row bit for bit its one-state ``z @ M.T``."""
    mat_t = mat.swapaxes(-1, -2)   # one transposed view, taken once
    if mat.ndim == 2:
        return lambda z: z @ mat_t

    def per_row(z):
        z = np.asarray(z)
        return np.matmul(z[..., None, :], _row_params(z, mat_t))[..., 0, :]
    return per_row


def _stacked(mat: np.ndarray, z) -> np.ndarray:
    """A fresh copy of the state-independent ``mat`` per state of ``z`` (of a
    ``(B, d, d)`` stack, row b's matrix for row b)."""
    if mat.ndim == 3:
        mat = _row_params(np.asarray(z), mat)
    return np.array(np.broadcast_to(mat, np.shape(z)[:-1] + mat.shape[-2:]))


def norm_functional() -> HomogeneousObservable:
    """The squared norm ``n = <psi|psi>`` — the unit of the *-product."""
    return HomogeneousObservable(
        evaluator=lambda z, zc: np.real(np.sum(z * zc, axis=-1)),
        label="n",
        analytic_gradient=lambda z: np.array(z, copy=True),
        analytic_operator=lambda z: _stacked(np.eye(np.shape(z)[-1], dtype=complex), z),
    )


def bilinear(m, label: str = "") -> HomogeneousObservable:
    """Ordinary quantum observable ``<psi|M psi>`` for Hermitian ``M``.

    ``M`` may be a ``(B, d, d)`` stack, one matrix per parameter row (``rows``
    = B), under the per-row contract of :func:`~nlqm.dynamics.integrate_nls`;
    its products go one matmul per row.
    """
    mat = _matrices(m)
    times = _times(mat)
    return HomogeneousObservable(
        evaluator=lambda z, zc: np.real(np.sum(zc * times(z), axis=-1)),
        label=label or "bilinear",
        analytic_gradient=times,
        analytic_operator=lambda z: _stacked(mat, z),
        rows=len(mat) if mat.ndim == 3 else 0,
    )


def moment_power(m, power: int, coeff=1.0, label: str = "") -> HomogeneousObservable:
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

    ``M`` may be a ``(B, d, d)`` stack, one matrix per parameter row, or
    ``coeff`` a ``(B,)`` sequence beside one shared ``M``; either makes
    ``rows`` = B, under the per-row contract of
    :func:`~nlqm.dynamics.integrate_nls`.  Matrix rows go one matmul per row,
    and on a ``(k, d)`` stack their p = 2 square is libm's ``pow``
    (``np.float_power``), as a one-state call's numpy-scalar ``**``; a deeper
    stack keeps an array's ``**`` (a product), as the one-matrix call on the
    states of its row does (a slice sum's slices).  Coefficient rows keep the
    one-matrix arithmetic, the coefficient a column: their twin is the
    one-matrix call on a stack (a no-signaling pair, a slice sum's slices).
    """
    mat = _matrices(m)
    p = int(power)
    cs = np.asarray(coeff, dtype=float)
    c = float(cs) if cs.ndim == 0 else None
    shared = mat.ndim == 2
    if not (shared or c is not None or len(cs) == len(mat)):
        raise ValidationError(f"need one coefficient or {len(mat)}, got {len(cs)}")
    name = label or (f"{c:g}" if c is not None else "c") + f"*<M>^{p}/n^{p - 1}"

    times = _times(mat)
    rows = len(mat) if not shared else 0 if c is not None else len(cs)
    pf, qf = float(p), float(p - 1)   # the same products, without an int conversion

    def coef(z, trail: int):
        """c, or the coefficients of z's rows as a column over ``trail`` axes."""
        return c if c is not None else _row_params(z, cs)[(...,) + (None,) * trail]

    def _mu_n(z, zc):
        mz = times(z)
        mu = np.add.reduce(zc * mz, axis=-1).real
        n = np.add.reduce(z * zc, axis=-1).real
        if p < 0 and np.any(np.abs(mu / n) < SINGULAR_GUARD):
            raise SingularObservableError(
                f"{name}: |<M>| = {np.min(np.abs(mu / n)):.3e} inside the singular guard disk")
        return mz, mu, n

    def ev(z, zc):
        k = coef(z, 0)   # each callable refuses rows it lacks before any arithmetic
        _, mu, n = _mu_n(z, zc)
        return k * mu ** p / n ** (p - 1)

    def grad(z):
        z = np.asarray(z)
        k = coef(z, 1)
        mz, mu, n = _mu_n(z, z.conj())
        s = mu / n
        if z.ndim > 1:
            s = s[..., None]
        if not shared and p == 2 and z.ndim == 2:   # s ** 1 is s, in either form
            return k * (pf * s * mz - qf * np.float_power(s, 2) * z)
        return k * (pf * s ** (p - 1) * mz - qf * s ** p * z)

    def op(z):
        zc = np.conj(z)
        k = coef(z, 2)
        mz, mu, n = _mu_n(z, zc)
        s = mu / n
        sm = np.asarray(s)[..., None, None]
        dim = z.shape[-1]
        m_z = mat if shared else _row_params(z, mat)
        out = k * (p * sm ** (p - 1) * m_z - (p - 1) * sm ** p * np.eye(dim, dtype=complex))
        if p * (p - 1) != 0:
            v = mz - np.asarray(s)[..., None] * z
            w = np.asarray(coef(z, 0) * p * (p - 1) * s ** (p - 2) / n)[..., None, None]
            out = out + w * (v[..., :, None] * v.conj()[..., None, :])
        return out

    return HomogeneousObservable(
        evaluator=ev,
        label=name,
        analytic_gradient=grad,
        analytic_operator=op,
        rows=rows,
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
