"""Finite-dimensional complex linear algebra for the nonlinear-QM laboratory.

States, density matrices and Hermitian operators carry explicit tensor-factor
dimensions so that composite-system bookkeeping (partial traces, subsystem
rotations) stays honest.  Conventions used throughout the package:

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
from typing import Union

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

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "StateVector":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValidationError("cannot normalize a zero state")
        return StateVector(self.amplitudes / np.sqrt(n2), self.dims)

    def gauge_fixed(self) -> "StateVector":
        """Multiply by the global phase making the largest-modulus component
        real and non-negative."""
        k = int(np.argmax(np.abs(self.amplitudes)))
        pivot = self.amplitudes[k]
        if abs(pivot) == 0.0:
            return self
        return StateVector(self.amplitudes * (abs(pivot) / pivot), self.dims)

    def factor_matrix(self) -> np.ndarray:
        """The amplitudes reshaped to one axis per tensor factor."""
        return self.amplitudes.reshape(self.dims)


def _checked_density(values, stacked: bool = False) -> np.ndarray:
    """The density-matrix checks, on one matrix or on each matrix of a stack.

    Finite entries, square shape (``(d, d)``, or ``(T, d, d)`` when
    ``stacked``), hermiticity within 1e-12, a real positive trace and a
    smallest eigenvalue of at least -1e-10 (one batched ``eigvalsh``).
    Returns the validated complex array (a fresh copy).
    """
    m = _as_complex_array(values, "entries")
    if m.ndim != (3 if stacked else 2) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValidationError(f"density matrix must be square, got shape {m.shape}")
    resid = float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())))
    if resid > HERMITICITY_TOL:
        raise ValidationError(f"density matrix not Hermitian: max |rho - rho^dag| = {resid:.3e}")
    tr = np.atleast_1d(np.trace(m, axis1=-2, axis2=-1))
    bad = (np.abs(tr.imag) > HERMITICITY_TOL) | (tr.real <= 0.0)
    if np.any(bad):
        raise ValidationError("density matrix trace must be real and positive, "
                              f"got {complex(tr[bad][0])}")
    lo = float(np.min(np.linalg.eigvalsh(m)[..., 0]))
    if lo < -POSITIVITY_TOL:
        raise ValidationError(f"density matrix not positive: min eigenvalue = {lo:.3e}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive matrix with tensor-factor dimensions."""

    entries: np.ndarray
    dims: tuple = ()

    def __post_init__(self):
        m = _checked_density(self.entries)
        dims = _normalize_dims(self.dims, m.shape[0])
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def purity(self) -> float:
        """Tr(rho^2), not normalized by the trace."""
        return float(np.sum(np.abs(self.entries) ** 2))


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix, Hermitian within 1e-12."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_complex_array(self.entries, "entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"operator must be square, got shape {m.shape}")
        resid = float(np.max(np.abs(m - m.conj().T)))
        if resid > HERMITICITY_TOL:
            raise ValidationError(f"operator not Hermitian: max |A - A^dag| = {resid:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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


def _operand(state) -> np.ndarray:
    if isinstance(state, (DensityMatrix, HermitianOperator)):
        return state.entries
    return _amplitudes(state)


def partial_trace(state: Union[StateVector, DensityMatrix], keep: int) -> DensityMatrix:
    """Reduced density matrix of tensor factor ``keep``; all other factors are
    traced out.  A ``StateVector`` input is promoted to its projector."""
    if isinstance(state, StateVector):
        dims = state.dims
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    elif isinstance(state, DensityMatrix):
        dims = state.dims
        rho = state.entries
    else:
        raise TypeError("partial_trace expects a StateVector or DensityMatrix")
    if len(dims) < 2:
        raise ValidationError("partial_trace requires at least two tensor factors")
    if not 0 <= keep < len(dims):
        raise ValidationError(f"keep index {keep} out of range for {len(dims)} factors")
    t = rho.reshape(dims + dims)
    pos = keep
    remaining = list(dims)
    while len(remaining) > 1:
        j = 0 if pos != 0 else 1
        t = np.trace(t, axis1=j, axis2=j + len(remaining))
        del remaining[j]
        if j < pos:
            pos -= 1
    return DensityMatrix(t, (remaining[0],))


def reduced_states(amplitudes, dims, keep: int) -> np.ndarray:
    """Reduced density matrices of factor ``keep`` along a stack of pure pairs.

    ``amplitudes`` has shape ``(T, d0*d1)`` (for instance a trajectory's
    samples) and ``dims = (d0, d1)``.  Returns the ``(T, dk, dk)`` stack
    ``rho_t = Tr_other |psi_t><psi_t|``, each matrix of which passes the same
    checks as a :class:`DensityMatrix`; the array is read-only.  Equal to
    :func:`partial_trace` applied sample by sample.
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


def rotate_subsystem(state, u, slot: int):
    """Apply the unitary ``u`` on tensor factor ``slot``, identity elsewhere.

    Rejects non-unitary input with the residual in the error message.
    """
    u = _unitary(u)
    if isinstance(state, StateVector):
        dims = state.dims
        if not 0 <= slot < len(dims):
            raise ValidationError(f"slot {slot} out of range for {len(dims)} factors")
        if dims[slot] != u.shape[0]:
            raise ValidationError(f"u dimension {u.shape[0]} does not match factor {dims[slot]}")
        t = state.factor_matrix()
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [slot])), 0, slot)
        return StateVector(t.reshape(-1), dims)
    if isinstance(state, DensityMatrix):
        dims = state.dims
        nd = len(dims)
        if not 0 <= slot < nd:
            raise ValidationError(f"slot {slot} out of range for {nd} factors")
        if dims[slot] != u.shape[0]:
            raise ValidationError(f"u dimension {u.shape[0]} does not match factor {dims[slot]}")
        t = state.entries.reshape(dims + dims)
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [slot])), 0, slot)
        t = np.moveaxis(np.tensordot(u.conj(), t, axes=([1], [slot + nd])), 0, slot + nd)
        n = state.dim
        return DensityMatrix(t.reshape(n, n), dims)
    raise TypeError("rotate_subsystem expects a StateVector or DensityMatrix")


def expectation(state, op) -> float:
    """Normalized average: <psi|A psi>/<psi|psi> or Tr(rho A)/Tr(rho)."""
    a = _operand(op)
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
