"""Finite-dimensional complex linear algebra for the nonlinear-QM laboratory.

States carry explicit tensor-factor dimensions so that composite-system bookkeeping
(partial traces, subsystem rotations) stays honest.  Conventions used throughout:

* natural units, ``hbar = 1``;
* tensor factors are ordered row-major: the first factor is the slowest index,
  so ``(a ⊗ b)[i*dim_b + j] = a[i]*b[j]``;
* hermiticity violations beyond 1e-12 and negative eigenvalues below -1e-10
  are hard errors, never silently repaired;
* when a unique representative of a ray is needed, the global phase is fixed
  by making the largest-modulus component real and non-negative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10

__all__ = [
    "ValidationError",
    "StateVector",
    "DensityMatrix",
    "HermitianOperator",
    "tensor_state",
    "partial_trace",
    "reduced_states",
    "rotate_subsystem",
    "expectation",
    "basis_state",
    "sigma1",
    "sigma2",
    "sigma3",
    "identity2",
]


class ValidationError(ValueError):
    """A state, operator or density matrix violates a structural invariant."""


def _as_complex_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _normalize_dims(dims, size: int) -> tuple:
    dims = tuple(int(d) for d in dims) if dims else (size,)
    if any(d <= 0 for d in dims):
        raise ValidationError(f"tensor factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != size:
        raise ValidationError(f"dims {dims} incompatible with {size} entries")
    return dims


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector with tensor-factor dimensions.

    ``dims`` defaults to a single factor spanning the whole space.
    """

    amplitudes: np.ndarray
    dims: tuple = ()

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes, "amplitudes")
        if amps.ndim != 1:
            raise ValidationError(f"amplitudes must be one-dimensional, got shape {amps.shape}")
        if amps.size == 0:
            raise ValidationError("empty state")
        dims = _normalize_dims(self.dims, amps.size)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def _hermiticity_residual(m: np.ndarray) -> np.ndarray:
    """max |q - q^dag| of each matrix of finite ``m``, q = m/4, so entries near
    1e308 do not overflow.  Callers compare it with a tolerance / 4 (exact) and
    print ``4.0 * float(r)``, a Python float that does not warn where numpy would."""
    q = 0.25 * m
    return np.abs(q - np.swapaxes(q, -1, -2).conj()).max(axis=(-2, -1))


def _checked_density(values, stacked: bool = False) -> np.ndarray:
    """The density-matrix checks, on one matrix or on each matrix of a stack.

    Finite entries, square shape (``(d, d)``, or ``(T, d, d)`` when
    ``stacked``), hermiticity within 1e-12, a finite real positive trace and a
    smallest eigenvalue of at least -1e-10 (one stacked ``eigvalsh``).
    Returns the validated complex array (a fresh copy).
    """
    m = _as_complex_array(values, "entries")
    if m.ndim != (3 if stacked else 2) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValidationError(f"density matrix must be square, got shape {m.shape}")
    resid = float(np.max(_hermiticity_residual(m)))
    if resid > HERMITICITY_TOL / 4:
        raise ValidationError(
            f"density matrix not Hermitian: max |rho - rho^dag| = {4.0 * resid:.3e}")
    with np.errstate(over="ignore"):  # a trace past the float range is refused, unwarned
        tr = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    bad = (np.abs(tr.imag) > HERMITICITY_TOL) | (tr.real <= 0.0) | ~np.isfinite(tr)
    if np.any(bad):
        raise ValidationError("density matrix trace must be real and positive (and finite), "
                              f"got {complex(tr[bad][0])}")
    lo = float(np.min(np.linalg.eigvalsh(m)[..., 0]))
    if lo < -POSITIVITY_TOL:
        raise ValidationError(f"density matrix not positive: min eigenvalue = {lo:.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = _checked_density(self.entries)
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix, Hermitian within 1e-12."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.entries, "entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator must be square, got shape {m.shape}")
        resid = float(_hermiticity_residual(m))
        if resid > HERMITICITY_TOL / 4:
            raise ValidationError(f"operator not Hermitian: max |A - A^dag| = {4.0 * resid:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
identity2 = np.eye(2, dtype=complex)
for _m in (sigma1, sigma2, sigma3, identity2):
    _m.flags.writeable = False


def basis_state(dim: int, k: int, dims=()) -> StateVector:
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return StateVector(amps, dims)


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; dims concatenate, first factor slowest."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)


def _amplitudes(psi) -> np.ndarray:
    """The amplitudes of a ``StateVector``, else ``psi`` (a state or a stack) as
    a complex array."""
    if isinstance(psi, StateVector):
        return psi.amplitudes
    return np.asarray(psi, dtype=complex)


def partial_trace(state: StateVector, keep: int) -> DensityMatrix:
    """Reduced density matrix of factor ``keep`` of a two-factor pure state."""
    if not isinstance(state, StateVector):
        raise TypeError("partial_trace expects a StateVector")
    return DensityMatrix(reduced_states(state.amplitudes[None], state.dims, keep)[0])


def reduced_states(amplitudes, dims, keep: int) -> np.ndarray:
    """Reduced density matrices of factor ``keep`` along a stack of pure pairs.

    ``amplitudes`` has shape ``(T, d0*d1)`` (for instance a trajectory's
    samples) and ``dims = (d0, d1)``.  Returns the ``(T, dk, dk)`` stack
    ``rho_t = Tr_other |psi_t><psi_t|``, each matrix of which passes the same
    checks as a :class:`DensityMatrix`; the array is read-only.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2 or min(dims) <= 0:
        raise ValidationError(f"reduced_states needs two positive factor dims, got {dims}")
    if keep not in (0, 1):
        raise ValidationError(f"keep index {keep} out of range for 2 factors")
    z = np.asarray(amplitudes, dtype=complex)
    if z.ndim != 2 or z.shape[1] != dims[0] * dims[1]:
        raise ValidationError(f"amplitude stack of shape {z.shape} does not fit dims {dims}")
    t = z.reshape(z.shape[0], *dims)
    layout = "tkm,tlm->tkl" if keep == 0 else "tmk,tml->tkl"
    rho = _checked_density(np.einsum(layout, t, t.conj()), stacked=True)
    rho.flags.writeable = False
    return rho


def _unitary(u, d=None) -> np.ndarray:
    """``u`` as a fresh complex array; :class:`ValidationError` unless it is
    finite, square (``d x d`` when ``d`` is given) and unitary within 1e-12,
    max |u u^dag - 1| <= ``HERMITICITY_TOL``."""
    u = _as_complex_array(u, "u")
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0 or d not in (None, u.shape[0]):
        want = "square" if d is None else f"{d}x{d}"
        raise ValidationError(f"u must be {want}, got shape {u.shape}")
    with np.errstate(all="ignore"):   # huge entries overflow to a residual of inf or NaN
        resid = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if not resid <= HERMITICITY_TOL:
        raise ValidationError(f"u is not unitary: max |u u^dag - 1| = {resid:.3e}")
    return u


def rotate_subsystem(state: StateVector, u, slot: int) -> StateVector:
    """Apply the unitary ``u`` on tensor factor ``slot``, identity elsewhere.

    Rejects non-unitary input with the residual in the error message.
    """
    u = _unitary(u)
    if not isinstance(state, StateVector):
        raise TypeError("rotate_subsystem expects a StateVector")
    dims = state.dims
    if not 0 <= slot < len(dims):
        raise ValidationError(f"slot {slot} out of range for {len(dims)} factors")
    if dims[slot] != u.shape[0]:
        raise ValidationError(f"u dimension {u.shape[0]} does not match factor {dims[slot]}")
    t = np.moveaxis(np.tensordot(u, state.amplitudes.reshape(dims), axes=([1], [slot])), 0, slot)
    return StateVector(t.reshape(-1), dims)


def expectation(state, op) -> float:
    """Normalized average: <psi|A psi>/<psi|psi> or Tr(rho A)/Tr(rho)."""
    a = np.asarray(op, dtype=complex)
    if isinstance(state, StateVector):
        z = state.amplitudes
        if a.shape != (z.size, z.size):
            raise ValidationError(f"operator shape {a.shape} does not match state dimension {z.size}")
        val = complex(np.vdot(z, a @ z)) / state.norm_squared()
    elif isinstance(state, DensityMatrix):
        m = state.entries
        if a.shape != m.shape:
            raise ValidationError(f"operator shape {a.shape} does not match density matrix {m.shape}")
        val = complex(np.trace(m @ a)) / state.trace()
    else:
        raise TypeError("expectation expects a StateVector or DensityMatrix")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValidationError(f"expectation has imaginary residual {val.imag:.3e}")
    return float(val.real)
