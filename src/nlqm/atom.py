"""A multilevel atom in a quantized field mode with level-moment nonlinearity.

The linear part is the standard rotating-coupling ladder: level energies,
one field mode, and a one-photon exchange between the lowest two levels,

    H_lin = sum_k w_k |k><k| (x) 1  +  1 (x) w a'a
            + (i/2) (q R+ (x) a  -  conj(q) R- (x) a') ,

(units with hbar = 1 throughout).  The nonlinear addition is the squared
first moment of the level ladder eps_hat = diag(eps_k), in either the
basis-free lifted form or the Fock-sliced form — the same two pair extensions
contrasted in :mod:`nlqm.composite`.

For the lifted form the exchange sector is exactly two-dimensional and the
population inversion w = 2<R3> obeys a cubic oscillator solved by Jacobi
elliptic functions: oscillation -cn, separatrix -sech, self-trapping -dn.
The Fock-sliced form started from a level-field product state collapses to a
*linear* evolution with level energies shifted by eps_k^2, so the same
preparation tells the two extensions apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidationError
from .observables import bilinear, moment_power, nonlinear_operator
from .dynamics import IntegrationError, integrate_nls, jacobi_elliptic
from .composite import weinberg_composite

__all__ = [
    "AtomFieldParams",
    "InversionSeries",
    "atom_r3",
    "field_annihilator",
    "linear_hamiltonian",
    "build_atom_field",
    "product_state",
    "inversion_trajectory",
    "elliptic_inversion",
]

LEAK_TOL = 1e-8
# Largest state dimension n_levels x (n_max + 1).  One d x d operator is
# 256 kB at the cap, and the wave flow's monitor holds a block of 64.
MAX_STATE_DIM = 128


@dataclass(frozen=True)
class AtomFieldParams:
    """Level energies, moment levels, field frequency, coupling, field cutoff.

    Levels are indexed from 0; the one-photon coupling acts between levels 0
    (lower) and 1 (upper).  ``eps_levels`` are the entries of the moment
    ladder eps_hat.  The derived constants below are the rates of the
    resonant inversion oscillator (:func:`elliptic_inversion`):

    * ``splitting``        eps_1 - eps_0  (the moment asymmetry of the pair),
    * ``varsigma``         splitting^2 / 2  (the elliptic rate),
    * ``rabi(N)``          |q| sqrt(N + 1/2) with N the conserved excitation
      (R3 eigenvalue plus photon number).
    """

    omega_levels: tuple
    eps_levels: tuple
    omega: float
    q: complex
    n_max: int = 4

    def __post_init__(self):
        if len(self.omega_levels) < 2:
            raise ValidationError("need at least two levels")
        if len(self.eps_levels) != len(self.omega_levels):
            raise ValidationError("eps_levels must match omega_levels in length")
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")
        if self.n_levels * (self.n_max + 1) > MAX_STATE_DIM:
            raise ValidationError(
                f"state dimension {self.n_levels} x {self.n_max + 1} exceeds the cap "
                f"of {MAX_STATE_DIM} (lower n_max)")

    @property
    def n_levels(self) -> int:
        return len(self.omega_levels)

    @property
    def field_dim(self) -> int:
        return self.n_max + 1

    def splitting(self) -> float:
        return float(self.eps_levels[1] - self.eps_levels[0])

    def varsigma(self) -> float:
        return 0.5 * self.splitting() ** 2

    def rabi(self, n_big: float) -> float:
        return float(abs(self.q) * np.sqrt(n_big + 0.5))


def atom_r3(n_levels: int) -> np.ndarray:
    """diag(-1/2, +1/2, 0, ...): half the inversion of the coupled pair."""
    m = np.zeros((n_levels, n_levels), dtype=complex)
    m[0, 0] = -0.5
    m[1, 1] = 0.5
    return m


def field_annihilator(n_max: int) -> np.ndarray:
    """Truncated mode annihilator, a|n> = sqrt(n)|n-1>, on 0..n_max."""
    d = n_max + 1
    return np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)


def linear_hamiltonian(p: AtomFieldParams) -> np.ndarray:
    k, f = p.n_levels, p.field_dim
    a = field_annihilator(p.n_max)
    nhat = a.conj().T @ a
    rp = np.zeros((k, k), dtype=complex)
    rp[1, 0] = 1.0   # R+ = |1><0| raises the lower coupled level
    h = (np.kron(np.diag(np.asarray(p.omega_levels, dtype=complex)), np.eye(f))
         + np.kron(np.eye(k), p.omega * nhat)
         + 0.5j * complex(p.q) * np.kron(rp, a)
         - 0.5j * np.conj(complex(p.q)) * np.kron(rp.conj().T, a.conj().T))
    return h


def product_state(p: AtomFieldParams, level: int, photons: int) -> np.ndarray:
    """Amplitude vector for |level> (x) |photons> in the flattened layout."""
    if not 0 <= level < p.n_levels:
        raise ValidationError(f"level must be in 0..{p.n_levels - 1}")
    if not 0 <= photons <= p.n_max:
        raise ValidationError(f"photons must be in 0..{p.n_max}")
    z = np.zeros(p.n_levels * p.field_dim, dtype=complex)
    z[level * p.field_dim + photons] = 1.0
    return z


def build_atom_field(description: str, p) -> Callable:
    """Builder psi -> H_hat(psi) for the chosen atom-field model.

    ``description`` is one of ``linear`` (ladder only), ``polchinski``
    (lifted-moment nonlinearity) or ``weinberg-fock`` (Fock-sliced
    nonlinearity).  The returned callable carries the assembled functional as
    ``.observable`` and echoes ``p`` as ``.params``.

    ``p`` may also be a list of B :class:`AtomFieldParams` of one shape (level
    count and ``n_max``).  The observable then has B parameter rows, row b
    the model of ``p[b]`` with its own ``q``, ``omega``, ``omega_levels`` and
    ``eps_levels``, under the per-row contract of
    :func:`~nlqm.dynamics.integrate_nls` (the moment ladders are diagonal,
    see :func:`~nlqm.composite.weinberg_composite`).  The one-state builder
    of each member is ``.rows``.
    """
    many = isinstance(p, (list, tuple))
    members = list(p) if many else [p]
    if len({(x.n_levels, x.n_max) for x in members}) != 1:
        raise ValidationError("a stack of atom-field models needs one level count and n_max")
    f = members[0].field_dim

    def matrices(make):   # one member's matrix, or the stack of every member's
        m = np.stack([make(x) for x in members])
        return m if many else m[0]

    def epshat(x):
        return np.diag(np.asarray(x.eps_levels, dtype=complex))

    base = bilinear(matrices(linear_hamiltonian), label="atom-field ladder")
    if description == "linear":
        obs = base
    elif description == "polchinski":
        obs = base + moment_power(matrices(lambda x: np.kron(epshat(x), np.eye(f))), 2)
    elif description == "weinberg-fock":
        obs = base + weinberg_composite(moment_power(matrices(epshat), 2),
                                        members[0].n_levels, f, np.eye(f), sub_slot=0)
    else:
        raise ValidationError(f"unknown description {description!r}")

    def builder(z):
        return nonlinear_operator(obs, z)

    builder.observable = obs
    builder.params = p
    if many:
        builder.rows = [build_atom_field(description, x) for x in members]
    return builder


@dataclass
class InversionSeries:
    """Population inversion w(t) = 2 <R3>."""

    times: np.ndarray
    w: np.ndarray
    leak: float


def inversion_trajectory(builder: Callable, psi0, t_end, dt):
    """Integrate the atom-field flow and extract the inversion.

    The top Fock layer acts as the truncation sentinel: if its population
    fraction ever exceeds ``LEAK_TOL`` the run aborts, naming the cutoff —
    results leaking into the last layer are artifacts of the cutoff, not
    physics.

    ``psi0`` may be a ``(B, d)`` stack of initial states, one per member for
    a builder of B members (:func:`build_atom_field` of a list), with
    ``t_end`` and ``dt`` one value or one per row, longest horizon first, all
    on one step size (see :func:`~nlqm.dynamics.integrate_nls`).  The rows
    integrate as one RK4 stack, each up to its own horizon, and the result is
    the list of their series; a member's is what its one-state run gives.  A
    row that leaks raises, naming its index as the error's ``row``.
    """
    rows = getattr(builder, "rows", None)
    p = builder.params if rows is None else builder.params[0]
    r3_full = np.kron(atom_r3(p.n_levels), np.eye(p.field_dim))
    traj = integrate_nls(builder, psi0, t_end, dt, flow=builder.observable.analytic_gradient,
                         per_row=None if rows is None else
                         [(r, r.observable.analytic_gradient) for r in rows])
    amps = traj.amplitudes()
    if amps.ndim == 2:
        return _inversion(traj.times, amps, r3_full, p, None)
    return [_inversion(traj.times[:end + 1], np.ascontiguousarray(amps[:end + 1, b]), r3_full,
                       p, b) for b, end in enumerate(traj.ends)]


def _inversion(times, amps, r3_full, p: AtomFieldParams, row) -> InversionSeries:
    """The inversion of one trajectory's ``(T, d)`` samples, refused past the
    Fock leak tolerance; ``row`` is the error's."""
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    w = 2.0 * np.einsum("ti,ij,tj->t", amps.conj(), r3_full, amps).real / norms
    top = amps.reshape(amps.shape[0], p.n_levels, p.field_dim)[:, :, p.n_max]
    leak = float(np.max(np.sum(np.abs(top) ** 2, axis=1) / norms))
    if leak > LEAK_TOL:
        raise IntegrationError(
            f"top Fock layer reached population fraction {leak:.3e} "
            f"(tolerance {LEAK_TOL:g}); raise n_max beyond {p.n_max}", row=row)
    return InversionSeries(times=times, w=w, leak=leak)


def elliptic_inversion(omega_rabi: float, varsigma: float, times) -> np.ndarray:
    """Closed-form inversion from the lower sector state, w(0) = -1.

    Resonant (shifted detuning zero) exchange-sector solution:

        varsigma <  Omega : w = -cn(Omega t, varsigma/Omega)   oscillation,
        varsigma == Omega : w = -sech(Omega t)                 separatrix,
        varsigma >  Omega : w = -dn(varsigma t, Omega/varsigma) self-trapped.
    """
    t = np.asarray(times, dtype=float)
    if omega_rabi < 0 or varsigma < 0:
        raise ValidationError("rates must be nonnegative")
    if omega_rabi == 0.0 and varsigma == 0.0:
        return -np.ones_like(t)
    if abs(varsigma - omega_rabi) < 1e-12 * max(varsigma, omega_rabi):
        return -1.0 / np.cosh(omega_rabi * t)
    if varsigma < omega_rabi:
        _, cn, _ = jacobi_elliptic(omega_rabi * t, varsigma / omega_rabi)
        return -cn
    _, _, dn = jacobi_elliptic(varsigma * t, omega_rabi / varsigma)
    return -dn

