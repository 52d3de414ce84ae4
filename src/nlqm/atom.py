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
from typing import Callable, Optional

import numpy as np

from .core import StateVector, ValidationError
from .observables import HomogeneousObservable, bilinear, moment_power, nonlinear_operator
from .dynamics import (
    IntegrationError,
    Trajectory,
    integrate_nls,
    jacobi_elliptic,
)
from .composite import weinberg_composite

__all__ = [
    "AtomFieldParams",
    "InversionSeries",
    "atom_r3",
    "atom_r0",
    "atom_rplus",
    "field_annihilator",
    "linear_hamiltonian",
    "build_atom_field",
    "product_state",
    "inversion_trajectory",
    "elliptic_inversion",
    "inversion_ode_check",
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
    ladder eps_hat.  The derived constants below reduce the exchange sector to
    the cubic inversion oscillator:

    * ``splitting``        eps_1 - eps_0  (the moment asymmetry of the pair),
    * ``curvature``        2 splitting^2  (the stiffness in the inversion ODE),
    * ``varsigma``         curvature / 4  (the elliptic rate),
    * ``detuning_shifted`` detuning + eps_1^2 - eps_0^2,
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

    def transition(self) -> float:
        return float(self.omega_levels[1] - self.omega_levels[0])

    def detuning(self) -> float:
        return self.transition() - self.omega

    def splitting(self) -> float:
        return float(self.eps_levels[1] - self.eps_levels[0])

    def curvature(self) -> float:
        return 2.0 * self.splitting() ** 2

    def varsigma(self) -> float:
        return 0.5 * self.splitting() ** 2

    def detuning_shifted(self) -> float:
        return self.detuning() + float(self.eps_levels[1] ** 2 - self.eps_levels[0] ** 2)

    def rabi(self, n_big: float) -> float:
        return float(abs(self.q) * np.sqrt(n_big + 0.5))


def atom_r3(n_levels: int) -> np.ndarray:
    """diag(-1/2, +1/2, 0, ...): half the inversion of the coupled pair."""
    m = np.zeros((n_levels, n_levels), dtype=complex)
    m[0, 0] = -0.5
    m[1, 1] = 0.5
    return m


def atom_r0(n_levels: int) -> np.ndarray:
    """diag(1/2, 1/2, 0, ...): the coupled-pair occupation over two."""
    m = np.zeros((n_levels, n_levels), dtype=complex)
    m[0, 0] = 0.5
    m[1, 1] = 0.5
    return m


def atom_rplus(n_levels: int) -> np.ndarray:
    """|1><0|: raises the lower coupled level to the upper."""
    m = np.zeros((n_levels, n_levels), dtype=complex)
    m[1, 0] = 1.0
    return m


def field_annihilator(n_max: int) -> np.ndarray:
    """Truncated mode annihilator, a|n> = sqrt(n)|n-1>, on 0..n_max."""
    d = n_max + 1
    return np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)


def linear_hamiltonian(p: AtomFieldParams) -> np.ndarray:
    k, f = p.n_levels, p.field_dim
    a = field_annihilator(p.n_max)
    nhat = a.conj().T @ a
    rp = atom_rplus(k)
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


def build_atom_field(description: str, p: AtomFieldParams) -> Callable:
    """Builder psi -> H_hat(psi) for the chosen atom-field model.

    ``description`` is one of ``linear`` (ladder only), ``polchinski``
    (lifted-moment nonlinearity) or ``weinberg-fock`` (Fock-sliced
    nonlinearity).  The returned callable carries the assembled functional as
    ``.observable`` and echoes ``.params`` and ``.description``.
    """
    hlin = linear_hamiltonian(p)
    epshat = np.diag(np.asarray(p.eps_levels, dtype=complex))
    base = bilinear(hlin, label="atom-field ladder")
    if description == "linear":
        obs = base
    elif description == "polchinski":
        lifted = np.kron(epshat, np.eye(p.field_dim))
        obs = base + moment_power(lifted, 2)
    elif description == "weinberg-fock":
        obs = base + weinberg_composite(moment_power(epshat, 2), p.n_levels,
                                        p.field_dim, np.eye(p.field_dim), sub_slot=0)
    else:
        raise ValidationError(f"unknown description {description!r}")

    def builder(z):
        return nonlinear_operator(obs, z)

    builder.observable = obs
    builder.params = p
    builder.description = description
    return builder


@dataclass
class InversionSeries:
    """Population inversion w(t) = 2 <R3> with its source trajectory."""

    times: np.ndarray
    w: np.ndarray
    leak: float
    trajectory: Trajectory


def inversion_trajectory(builder: Callable, psi0, t_end: float,
                         dt: Optional[float] = None,
                         leak_tol: float = LEAK_TOL) -> InversionSeries:
    """Integrate the atom-field flow and extract the inversion.

    The top Fock layer acts as the truncation sentinel: if its population
    fraction ever exceeds ``leak_tol`` the run aborts, naming the cutoff —
    results leaking into the last layer are artifacts of the cutoff, not
    physics.
    """
    p: AtomFieldParams = builder.params
    r3_full = np.kron(atom_r3(p.n_levels), np.eye(p.field_dim))
    traj = integrate_nls(builder, psi0, t_end, dt,
                         flow=builder.observable.analytic_gradient)
    amps = traj.amplitudes()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    w = 2.0 * np.einsum("ti,ij,tj->t", amps.conj(), r3_full, amps).real / norms
    top = amps.reshape(amps.shape[0], p.n_levels, p.field_dim)[:, :, p.n_max]
    leak = float(np.max(np.sum(np.abs(top) ** 2, axis=1) / norms))
    if leak > leak_tol:
        raise IntegrationError(
            f"top Fock layer reached population fraction {leak:.3e} "
            f"(tolerance {leak_tol:g}); raise n_max beyond {p.n_max}")
    return InversionSeries(times=traj.times, w=w, leak=leak, trajectory=traj)


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


def inversion_ode_check(series: InversionSeries, p: AtomFieldParams,
                        n_prime: float, n_big: float) -> float:
    """Residual of the exchange-sector inversion oscillator on a series.

    The inversion of a sector started in a bare level-field product state
    (R3 eigenvalue ``n_prime`` = -1/2 or +1/2, conserved excitation
    ``n_big`` = n_prime + photon number) satisfies

        d2w/dt2 = 2 D (D n' + e/8)
                  + (e (D n' + e/8) - D^2 - |q|^2 (N + 1/2)) w
                  - (3/4) e D w^2  -  (e^2/8) w^3

    with D the shifted detuning and e the curvature.  Returns the maximum
    absolute defect of the series against this equation, using second
    differences on the interior points — a direct consistency certificate
    between the integrated flow and the reduced oscillator.
    """
    t, w = series.times, series.w
    if t.size < 5:
        raise ValidationError("series too short for a second-difference check")
    dt = t[1] - t[0]
    wmid = w[1:-1]
    wdd = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dt ** 2
    dp = p.detuning_shifted()
    eps = p.curvature()
    om2 = abs(complex(p.q)) ** 2 * (n_big + 0.5)
    rhs = (2.0 * dp * (dp * n_prime + eps / 8.0)
           + (eps * (dp * n_prime + eps / 8.0) - dp ** 2 - om2) * wmid
           - 0.75 * eps * dp * wmid ** 2
           - (eps ** 2 / 8.0) * wmid ** 3)
    return float(np.max(np.abs(wdd - rhs)))
