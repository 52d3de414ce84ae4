"""Time evolution: the nonlinear Schrodinger flow and optical Bloch systems.

The central flow is  i dpsi/dt = H_hat(psi) psi  with H_hat the state-dependent
Hermitian operator of a (1,1)-homogeneous average-energy functional.  Every
flow here runs on one fixed-step classical Runge-Kutta core (:func:`_rk4`)
over a leading batch axis, so a stack of trajectories integrates as one.  The
norm is *not* re-imposed along the way — its conservation (exact for the true
flow because H_hat is Hermitian) is monitored as an accuracy check instead.
Blow-up is checked at every step, as it happens; the hermiticity of H_hat and
the norm drift are checked once per block of accepted samples, row by row,
always before an error leaves the loop, so the earliest violation is the one
reported.

Also here: the closed-form solution for diagonal quadratic families, the
two-level Bloch system with spontaneous-emission and mean-field terms (in two
algebraically inequivalent published forms), and Jacobi elliptic functions
computed by the arithmetic-geometric mean, which the two-level atom inversion
needs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (StateVector, ValidationError, _hermiticity_residual, sigma1, sigma2, sigma3,
                   identity2)
from .observables import SingularObservableError

__all__ = [
    "IntegrationError",
    "Trajectory",
    "BlochParams",
    "BlochTrajectory",
    "integrate_nls",
    "default_timestep",
    "canonical_frequencies",
    "canonical_solution",
    "integrate_bloch",
    "neo_hamiltonian",
    "jacobi_elliptic",
    "ellipk",
]

HERMITICITY_STEP_TOL = 1e-8
NORM_DRIFT_PER_STEP = 1e-6
MAX_STEPS = 1_000_000
# Entries of one preallocated sample array, (nsteps + 1) x entries per sample
# (128 MB as complex).
MAX_SAMPLE_ENTRIES = 8_000_000
# Accepted samples per block-monitor call of every RK4 loop; the wave flow
# builds one (MONITOR_BLOCK, d, d) complex stack per block, 102 kB at d = 10.
MONITOR_BLOCK = 64


class IntegrationError(RuntimeError):
    """Integration left its validity envelope (drift, hermiticity, blow-up).

    Every violation a flow of this package reports sets ``t``, the sample
    time it was caught at, and, on a stack of two or more rows, ``row``, the
    row its message names (for a blow-up, the first row that went
    non-finite); ``row`` is None on one row and where a blow-up cannot be
    placed, and both are None for an error raised without them.
    """

    def __init__(self, message: str, *, t: Optional[float] = None, row: Optional[int] = None):
        super().__init__(message)
        self.t, self.row = t, row


class Trajectory:
    """Sampled solution of the nonlinear flow.

    The samples are one complex array of shape ``(len(times), d)``, row k the
    amplitudes at ``times[k]``, or ``(len(times), B, d)`` for B trajectories
    integrated as a stack.  :meth:`amplitudes` returns that array itself,
    read-only.  Construct from ``amplitudes=`` (taken over without a copy and
    made read-only); every entry must be finite.

    ``recorded`` maps names to per-sample arrays: :func:`integrate_nls` fills
    ``norm`` (squared norm) and ``hvalue`` (the energy functional's value) at
    every accepted step, :func:`canonical_solution` only ``norm``.  ``ends``,
    set by :func:`integrate_nls`, lists each row's last sample index: a row
    of a stack that stops at its own horizon has zero samples after it, and
    NaN records.
    """

    def __init__(self, times, recorded=None, *, amplitudes, ends=None):
        amps = np.asarray(amplitudes, dtype=complex)
        self.times = np.asarray(times, dtype=float)
        if amps.ndim not in (2, 3) or amps.shape[0] != self.times.size or amps.shape[-1] == 0:
            raise ValidationError(f"amplitudes of shape {amps.shape} do not fit "
                                  f"{self.times.size} sample times")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitudes contain non-finite entries")
        amps.flags.writeable = False
        self._samples = amps
        self.recorded = {} if recorded is None else recorded
        self.ends = ends

    def amplitudes(self) -> np.ndarray:
        """The ``(len(times), [B,] d)`` sample array, read-only and not copied."""
        return self._samples


def _check_horizon(t_end: float, dt: float):
    """``(t_end, dt)`` as floats; :class:`ValidationError` unless dt > 0 and
    t_end >= 0 are finite, with a finite ratio."""
    dt, t_end = float(dt), float(t_end)
    if not (np.isfinite(dt) and dt > 0.0 and np.isfinite(t_end) and t_end >= 0.0
            and np.isfinite(t_end / dt)):
        raise ValidationError(
            f"need finite dt > 0 and finite t_end >= 0 (got dt = {dt:g}, t_end = {t_end:g})")
    return t_end, dt


def _step_grid(t_end: float, dt: float, width: int):
    """Fixed RK4 step grid ``(nsteps, dt_eff)`` that lands exactly on t_end.

    ``nsteps = max(1, round(t_end/dt))`` for t_end > 0 and 0 for t_end = 0
    (one sample); ``dt_eff = t_end/nsteps`` (0 without steps).  Raises
    :class:`ValidationError` unless dt > 0 and t_end >= 0 are finite, with a
    finite ratio, and the grid has at most ``MAX_STEPS`` steps and at most
    ``MAX_SAMPLE_ENTRIES`` sample entries (``nsteps + 1`` samples of ``width``).
    """
    t_end, dt = _check_horizon(t_end, dt)
    nsteps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    if nsteps > MAX_STEPS:
        raise ValidationError(
            f"step grid of {nsteps:.3g} steps exceeds the cap of {MAX_STEPS:,} "
            f"(dt = {dt:g}, t_end = {t_end:g})")
    if (nsteps + 1) * width > MAX_SAMPLE_ENTRIES:
        raise ValidationError(
            f"{nsteps + 1:,} samples of {width} entries exceed the cap of "
            f"{MAX_SAMPLE_ENTRIES:,} sample entries (dt = {dt:g}, t_end = {t_end:g})")
    return nsteps, (t_end / nsteps if nsteps else 0.0)


def _row_horizons(t_end, dt, rows: int) -> list:
    """The ``(t_end, dt)`` of each of ``rows`` rows, from one value each or one
    per row; :class:`ValidationError` for any other count."""
    each = [[x] * rows if np.ndim(x) == 0 else list(x) for x in (t_end, dt)]
    if any(len(v) != rows for v in each):
        raise ValidationError(f"need one t_end and one dt, or one of each per row ({rows})")
    return list(zip(*each))


def _fit_times(times, fit: str) -> np.ndarray:
    """The sample times of a fit as floats.

    Raises :class:`ValidationError` ("too short") unless there are at least 4
    samples over a span whose square is neither zero, where ``np.polyfit``'s
    column scaling divides by zero, nor subnormal, where it loses precision.
    """
    t = np.asarray(times, dtype=float)
    span = float(t[-1] - t[0]) if t.size else 0.0
    if t.size < 4 or span * span < np.finfo(float).tiny:
        raise ValidationError(f"trajectory too short for {fit}: {t.size} samples over a span "
                              f"of {span:g} (needs at least 4, over a span whose square "
                              "is neither zero nor subnormal)")
    return t


def _rk4(rhs: Callable, y0: np.ndarray, times: np.ndarray, dt: complex, *,
         on_block: Callable, ends: Optional[list] = None,
         last: Optional[Callable] = None) -> np.ndarray:
    """Fixed-step RK4 from ``y0`` over ``times``: the one integrator of the package.

    ``y0`` may carry a leading batch axis, so a stack of trajectories shares
    each step's Python overhead; a ``y0`` of two or more axes is read as a
    stack (a state is 1-D, and the mixture flows stack even one density
    matrix).  The step ``dt`` may be complex: the wave
    flow dy/dt = -i f(y) is RK4 in tau = -i t with the step -i dt, which
    spares a ``-1j *`` multiply per stage; a product with -i is exact, so
    the stages keep their bits up to the sign of an exact zero.  That needs
    ``dt`` a Python complex (its ``dt / 6.0`` divides only the imaginary
    part, where numpy's complex divide multiplies by a rounded 1/6) and
    ``rhs`` returning a complex128 array (it is not cast).  Returns the
    preallocated ``(len(times),) + y0.shape`` samples (sized by the caller
    through :func:`_step_grid`).
    Blow-up is checked every step: the stages run under ``np.errstate(over=,
    divide=, invalid="raise")``, and a ``FloatingPointError`` there, like a
    non-finite sample, raises "solution blew up at t = ...", which names
    the row of a stack (see :func:`_blown_up`).  Every other
    monitor is ``on_block(lo, hi, samples)``: it sees the accepted samples
    ``MONITOR_BLOCK`` at a time, read-only, under the caller's error state,
    and gets the pending ones on the way out, error or not, so the earliest
    violation it finds wins.

    ``ends``, for a stack whose rows stop at their own horizons, gives each
    row's last sample index, non-increasing: a row leaves the stack after
    that sample, so the rows still running are a leading part of it and
    ``rhs`` gets only them, and the row's later samples stay zero.  Once one
    row is left it goes on as one state, on the one-state right-hand side
    ``last``.
    """
    nsteps = times.size - 1
    samples = (np.empty if ends is None else np.zeros)((nsteps + 1,) + y0.shape, dtype=y0.dtype)
    stack = live = len(y0) if y0.ndim > 1 else 1
    caller = np.geterr()
    y = y0
    filled = monitored = 0

    def flush():
        nonlocal monitored
        while monitored < filled:
            lo, monitored = monitored, min(filled, monitored + MONITOR_BLOCK)
            view = samples[lo:monitored]
            view.flags.writeable = False
            with np.errstate(**caller):
                on_block(lo, monitored, view)

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for step in range(nsteps + 1):
                if ends is None:
                    samples[step] = y
                else:   # the rows whose last sample this is leave the stack
                    samples[step, :live] = y
                    if ends[live - 1] == step < nsteps:
                        while ends[live - 1] == step:
                            live -= 1
                        y, rhs = (y[0], last) if live == 1 else (y[:live], rhs)
                filled = step + 1
                if filled - monitored == MONITOR_BLOCK:
                    flush()
                if step == nsteps:
                    break
                try:
                    y_next = _step(rhs, y, dt)
                    blown = not np.isfinite(y_next).all()
                except FloatingPointError:
                    blown = True
                if blown:
                    raise _blown_up(rhs, y, dt, times, step + 1, stack)
                y = y_next
    finally:
        # an error found here replaces the loop's own, which came later
        flush()
    return samples


def _step(rhs: Callable, y: np.ndarray, dt: complex) -> np.ndarray:
    """One RK4 step from ``y``."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _blown_up(rhs: Callable, y: np.ndarray, dt: complex, times, k: int,
              stack: int) -> IntegrationError:
    """The error for the RK4 step from ``y`` that blew up at ``times[k]``.

    On a stack of two or more rows (``stack``, of which ``y`` holds the rows
    still running) the step is redone with floating-point errors ignored,
    and the first row it leaves non-finite is named ("in row 2"; a non-finite
    stage reaches the result through its sum); a redo that finds none, or
    raises, names no row.
    """
    row, rows = None, len(y) if y.ndim > 1 else 1
    if stack > 1:
        try:
            with np.errstate(all="ignore"):
                bad = ~np.isfinite(np.reshape(_step(rhs, y, dt), (rows, -1))).all(axis=1)
            row = int(np.argmax(bad)) if bad.any() else None
        except (ArithmeticError, ValueError):   # it only locates the row
            pass
    where, loc = _at(times, k, 1) if row is None else _at(times, k * rows + row, rows, stack)
    return IntegrationError(f"solution blew up at {where}", **loc)


def _sqnorms(z: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis, each bit for bit as ``np.vdot(row,
    row).real`` (one BLAS dot per row); ``inf`` where one overflows, unwarned."""
    with np.errstate(all="ignore"):
        return np.matmul(z.conj()[..., None, :], z[..., :, None])[..., 0, 0].real


def _in_row(row: int) -> str:
    """The text by which an :class:`IntegrationError` message names its row."""
    return f" in row {row}"


def _at(times, k: int, rows: int, stack: Optional[int] = None):
    """Where flat sample-row index k, of ``rows`` rows per sample, lies: the
    text 't = ...', naming the row of a stack, and the
    :class:`IntegrationError` keywords ``t`` and ``row`` (``row`` None unless
    the stack, ``rows`` or the ``stack`` they lead, has two or more rows)."""
    sample, row = divmod(k, rows)
    t, row = float(times[sample]), (row if (stack or rows) > 1 else None)
    return f"t = {t:g}" + ("" if row is None else _in_row(row)), {"t": t, "row": row}


def _check_hermitian(h: np.ndarray, times, rows: int, stack: int) -> None:
    """Raise at the first non-Hermitian matrix of ``h``, ``rows`` per sample
    time, the leading rows of a ``stack``."""
    resid = _hermiticity_residual(h)
    # a non-finite matrix (residual nan) fails too
    ok = resid <= HERMITICITY_STEP_TOL * (1.0 + np.abs(h).max(axis=(1, 2))) / 4
    if not ok.all():
        k = int(np.argmin(ok))
        where, loc = _at(times, k, rows, stack)
        raise IntegrationError(
            f"builder returned a non-Hermitian matrix at {where} "
            f"(deviation {4.0 * float(resid[k]):.3e})", **loc)


def _mismatch(stacked: np.ndarray, single: np.ndarray) -> Optional[float]:
    """None when a stacked result agrees with its single-state calls: both are
    non-finite in the same entries, and the finite ones agree to 1e-12 (1 +
    their max |single|).  Otherwise the largest deviation (nan when the
    non-finite entries differ)."""
    fin = np.isfinite(single)
    if not np.array_equal(fin, np.isfinite(stacked)):
        return float("nan")
    dev = float(np.max(np.abs(stacked[fin] - single[fin]), initial=0.0))
    tol = 1e-12 * (1.0 + float(np.max(np.abs(single[fin]), initial=0.0)))
    return None if dev <= tol else dev


def _monitored_hvalues(hbuilder: Callable, block: np.ndarray, times, stack: int,
                       per_row: Optional[list]) -> np.ndarray:
    """Build, cross-check and monitor Ĥ at a ``(K, [B,] d)`` block of samples.

    ``hbuilder`` gets the block's states in one ``(K*B, d)`` call (with
    ``per_row``, the ``(K, B, d)`` block itself, whose rows lead a ``stack``)
    and returns their ``(K*B, d, d)`` stack, or one state-independent
    ``(d, d)`` matrix.  The first state is also built alone (with
    ``per_row``, each row of the first sample by its own one-state builder)
    and must agree with the stack as :func:`_mismatch` asks, so a builder
    that mishandles stacks fails loudly.  Returns the energy values <z|Ĥ(z)|z>,
    shaped ``(K, [B])``.
    The builds and their checks keep the caller's error state but show no
    RuntimeWarning: a matrix that overflows is non-finite, and the builder's
    own checks or the hermiticity check refuse it.
    """
    d = block.shape[-1]
    zs = block.reshape(-1, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h = np.asarray(hbuilder(zs if per_row is None else block), dtype=complex)
        if h.shape == (d, d):
            h = h[None]      # checked once, at the block's first sample
        elif h.shape != (zs.shape[0], d, d):
            raise ValidationError(
                f"builder mapped a {zs.shape} stack of states to shape {h.shape}; "
                f"expected {(zs.shape[0], d, d)} or {(d, d)}")
        singles = [hbuilder] if per_row is None else [b for b, _ in per_row[:block.shape[1]]]
        first = np.stack([np.asarray(b(z), dtype=complex) for b, z in zip(singles, zs)])
        dev = _mismatch(h[:len(first)], first)
        if dev is not None:
            raise ValidationError(
                f"builder's stacked result differs from a single-state build by {dev:.3e} "
                f"at t = {times[0]:g}; it must map a (K, d) stack row by row")
        _check_hermitian(h, times, zs.shape[0] // len(times), stack)
    hz = np.matmul(h, zs[:, :, None])[:, :, 0]
    return np.sum(zs.conj() * hz, axis=1).real.reshape(block.shape[:-1])


def integrate_nls(hbuilder: Callable, psi0, t_end, dt, *,
                  flow: Optional[Callable] = None,
                  per_row: Optional[list] = None) -> Trajectory:
    """Integrate  i dpsi/dt = hbuilder(psi) psi  from 0 to t_end.

    ``hbuilder`` maps an amplitude array to a Hermitian matrix (an array).
    Fixed-step RK4 (:func:`_rk4`) with ``round(t_end/dt)`` steps, so the
    final time is hit exactly.  Every accepted sample's matrix is checked for
    hermiticity, and its norm drift relative to its row's initial squared norm
    against a budget proportional to the row's step count (a multiple of a
    state gets its verdict); violations raise :class:`IntegrationError` rather
    than silently renormalizing.  Blow-up is caught at its step; hermiticity
    and norm are checked per block of samples, in that order within a sample,
    and the earliest violation wins: the loop may run up to a block past a
    norm violation, and a blow-up there does not hide it.

    The four RK4 stages call ``flow``, which maps z to ``hbuilder(z) @ z``,
    the Wirtinger gradient dH/dpsibar (for a :class:`HomogeneousObservable`,
    its ``analytic_gradient``; the contract is not checked) and must return
    a complex128 ndarray of z's shape, which is not cast; without it they
    use ``hbuilder(z) @ z`` itself; the step is ``-1j * dt`` (RK4 in tau =
    -i t, see :func:`_rk4`).  Every ``MONITOR_BLOCK`` accepted samples (and
    at the end) ``hbuilder`` gets the block's K states in one ``(K, d)``
    call.  It must return the ``(K, d, d)`` stack, or one ``(d, d)`` matrix
    that does not depend on the state; the first state is also built alone,
    and a stack that disagrees with it raises :class:`ValidationError`.  The
    stack is hermiticity-checked row by row and gives the ``hvalue`` record;
    the builder sees no sample past the first that breaks the norm budget.

    ``psi0`` is one ``(d,)`` state, or a ``(B, d)`` stack of B states
    integrated together; each state gets the checks of a
    :class:`StateVector`.  A stack needs ``flow``, and per block ``flow`` of
    its first sample must match per-row calls to 1e-12, and be non-finite
    in the same entries (else :class:`ValidationError`).
    Every monitor runs per row (hermiticity in one ``(K*B, d)`` build per
    block), and the earliest violation over all rows is reported with its
    row.  The :class:`Trajectory` holds the one sample array, ``(nsteps + 1,
    [B,] d)``; ``recorded`` entries are ``(nsteps + 1, [B])``.

    On a stack, ``t_end`` and ``dt`` may also be one value per row.  Each
    row then runs its own grid, and all grids must have one step size
    ``t_end/nsteps``, bit for bit, and come longest first (else
    :class:`ValidationError`), so the rows still running are always a
    leading part of the stack.  A row leaves the stack after its last
    sample: no step, monitor or blow-up check sees it after that, and its
    norm budget counts its own steps.  The last row left runs on as one
    state, on its one-state flow.  The trajectory's ``times`` are the
    longest grid and its ``ends`` each row's last sample index.

    ``per_row`` is for a stack whose rows carry their own parameters: one
    ``(hbuilder, flow)`` pair of one-state callables per row.  ``hbuilder``
    and ``flow`` then map ``(..., k, d)`` stacks whose row b has row b's
    parameters: the RK4 stages call ``flow`` on the k rows still running,
    the monitor calls ``hbuilder`` on a ``(K, k, d)`` block, and both
    cross-checks compare row b with row b's own pair.
    """
    z0 = np.asarray(psi0)
    stacked = z0.ndim == 2
    if stacked and (flow is None or not len(z0)):
        raise ValidationError("a (B, d) stack of states needs B >= 1 and flow=")
    rows = len(z0) if stacked else 1
    if per_row is not None and (not stacked or len(per_row) != rows):
        raise ValidationError("per_row needs a (B, d) stack and one (hbuilder, flow) pair per row")
    z0 = (np.stack([StateVector(row).amplitudes for row in z0]) if stacked
          else StateVector(z0).amplitudes)
    grids = [_step_grid(t, h, width=z0.size) for t, h in _row_horizons(t_end, dt, rows)]
    ends = [n for n, _ in grids]
    nsteps, dt_eff = grids[0]
    if any(g[1] != dt_eff or g[0] > n for g, n in zip(grids[1:], ends)):
        raise ValidationError("the rows of a stack need one step size t_end/nsteps, "
                              "longest horizon first")
    times = np.arange(nsteps + 1) * dt_eff
    budget = NORM_DRIFT_PER_STEP * np.maximum(ends, 1)
    rec = {name: np.full((nsteps + 1, rows), np.nan) for name in ("norm", "hvalue")}
    n0 = np.reshape(_sqnorms(z0), rows)

    if flow is None:
        flow = lambda zv: np.asarray(hbuilder(zv), dtype=complex) @ zv
    flows = [flow] * rows if per_row is None else [f for _, f in per_row]

    def hvalues(lo, block):
        if stacked:   # unwarned: non-finite flows are the builder's checks to refuse
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                each = np.stack([np.asarray(f(z), dtype=complex)
                                 for f, z in zip(flows, block[0])])
                dev = _mismatch(np.asarray(flow(block[0]), dtype=complex), each)
            if dev is not None:
                raise ValidationError(
                    f"flow's stacked result differs from single-state calls by "
                    f"{dev:.3e} at t = {times[lo]:g}; it must map a (B, d) stack row by row")
        return _monitored_hvalues(hbuilder, block, times[lo:lo + len(block)], rows, per_row)

    def check(lo, hi, block):
        # Within a sample: hermiticity, then the norm budget; the builder sees
        # no sample past the first that breaks the budget.
        live = block.shape[1] if stacked else 1
        norm = _sqnorms(block).reshape(len(block), live)
        with np.errstate(all="ignore"):   # a zero state's 0/0 is no drift
            drift = np.abs(norm - n0[:live]) / n0[:live]
        over = drift > budget[:live]
        end = len(block)
        if over.any():
            end = int(np.argmax(over.any(axis=1)))
        hval = hvalues(lo, block[:end + 1])
        if end < len(block):
            row = int(np.argmax(over[end]))
            where, loc = _at(times, (lo + end) * rows + row, rows)
            raise IntegrationError(
                f"norm drift {drift[end, row]:.3e} exceeded budget "
                f"{budget[row]:.3e} at {where}; reduce dt", **loc)
        rec["norm"][lo:hi, :live] = norm
        rec["hvalue"][lo:hi, :live] = hval.reshape(len(block), live)

    def monitor(lo, hi, block):
        # each stretch of the block with one count of rows still running
        cuts = sorted({lo, hi} | {e + 1 for e in ends if lo < e + 1 < hi})
        for a, b in zip(cuts, cuts[1:]):
            live = sum(e >= a for e in ends)
            check(a, b, block[a - lo:b - lo, :live] if stacked else block)

    amps = _rk4(flow, z0, times, complex(-1j * dt_eff), on_block=monitor,
                ends=ends if ends[-1] < nsteps else None, last=flows[0])
    if not stacked:
        rec = {name: v[:, 0] for name, v in rec.items()}
    return Trajectory(times=times, amplitudes=amps, recorded=rec, ends=ends)


def default_timestep(hbuilder: Callable, psi0) -> float:
    """Resolve the fastest initial frequency with ~200 samples per period.

    ``psi0`` may be a ``(B, d)`` stack; the fastest row sets the step.
    """
    z = np.asarray(psi0, dtype=complex)
    h = np.asarray(hbuilder(z), dtype=complex)
    top = float(np.max(np.abs(np.linalg.eigvalsh((h + np.swapaxes(h, -1, -2).conj()) / 2.0))))
    return (2.0 * np.pi / 200.0) / max(top, 1e-6)


def canonical_frequencies(e_levels, eps_levels, psi0) -> np.ndarray:
    """Rotation rates of the diagonal family H = sum E_k n_k + eps-moment^2.

    omega_k = E_k + 2 <eps> eps_k - <eps>^2, with <eps> the normalized average
    of the eps levels in ``psi0`` (a constant of motion).
    """
    z0 = np.asarray(psi0, dtype=complex)
    e = np.asarray(e_levels, dtype=float)
    eps = np.asarray(eps_levels, dtype=float)
    avg = float(np.sum(eps * np.abs(z0) ** 2) / float(np.vdot(z0, z0).real))
    return e + 2.0 * avg * eps - avg ** 2


def canonical_solution(e_levels, eps_levels, psi0, times) -> Trajectory:
    """Exact solution psi_k(t) = psi_k(0) exp(-i omega_k t) for the diagonal
    family, at the rates of :func:`canonical_frequencies`."""
    z0 = np.asarray(psi0, dtype=complex)
    omega = canonical_frequencies(e_levels, eps_levels, z0)
    times = np.asarray(times, dtype=float)
    amps = z0 * np.exp(-1j * omega * times[:, None])
    norms = np.full(times.shape, float(np.vdot(z0, z0).real))
    return Trajectory(times=times, amplitudes=amps, recorded={"norm": norms})


# ---------------------------------------------------------------------------
# Bloch systems


@dataclass(frozen=True)
class BlochParams:
    """Two-level Bloch parameters: detuning, drive, damping, mean-field.

    ``delta`` is the detuning, ``omega`` the Rabi drive, ``a`` the
    spontaneous-emission coefficient and ``eps`` the mean-field strength.
    Two published forms of the damped equations circulate that differ in one
    sign of an (a/2) cross term; they coincide when a = 0.  The default
    (``rotating_frame=False``) integrates the fixed-frame form whose length
    leak is d|r|^2/dt = -2 a w v^2; ``rotating_frame=True`` integrates the
    precession form r' = (Delta e3 + Omega e1 + omega_tilde) x r + pump, which
    conserves |r|^2 when the pump vanishes and matches the wave-equation flow.
    """

    delta: float
    omega: float
    a: float = 0.0
    eps: float = 0.0
    rotating_frame: bool = False


@dataclass
class BlochTrajectory:
    times: np.ndarray
    r: np.ndarray  # shape (nsteps+1, 3)


def _bloch_rhs(p: BlochParams, r: np.ndarray) -> np.ndarray:
    # Python floats: numpy scalars' bits at half the cost; an overflow is a
    # silent inf, which reaches _rk4's finiteness check in the same step.
    u, v, w = r.tolist()
    a, eps, delta, omega = p.a, p.eps, p.delta, p.omega
    wt1, wt2, wt3 = -0.5 * a * v, 0.5 * a * u, 2.0 * eps * w   # omega_tilde
    du = -delta * v - wt3 * v + wt2 * w
    dw = -omega * v - wt2 * u + wt1 * v
    if p.rotating_frame:
        dv = delta * u + omega * w + wt3 * u - wt1 * w
    else:
        # Fixed-frame published form: the only difference is the sign of the
        # (a/2) v w cross term in dv.
        dv = delta * u + omega * w + wt3 * u + wt1 * w
    return np.array([du, dv, dw])


def integrate_bloch(params: BlochParams, r0, t_end: float, dt: float) -> BlochTrajectory:
    """Fixed-step RK4 for the Bloch system; guards against runaway length
    (|r|^2 over 4 |r0|^2 + 1), checked per block of samples, the first
    runaway sample named."""
    r = np.asarray(r0, dtype=float).copy()
    if r.shape != (3,):
        raise ValidationError("Bloch state must be a 3-vector (u, v, w)")
    nsteps, dt_eff = _step_grid(t_end, dt, width=3)
    times = np.arange(nsteps + 1) * dt_eff
    cap = 4.0 * float(np.dot(r, r)) + 1.0

    def runaway(lo, hi, block):
        lsq = _sqnorms(block)
        over = lsq > cap
        if over.any():
            k = int(np.argmax(over))
            where, loc = _at(times, lo + k, 1)
            raise IntegrationError(
                f"Bloch vector length ran away at {where} (|r|^2 = {lsq[k]:g})", **loc)

    out = _rk4(lambda r: _bloch_rhs(params, r), r, times, dt_eff, on_block=runaway)
    return BlochTrajectory(times=times, r=out)


def neo_hamiltonian(a: float, eps: float, base) -> Callable:
    """Wave-equation counterpart of the Bloch precession form.

    Returns a builder psi -> H_hat(psi) whose flow reproduces the
    ``rotating_frame`` Bloch trajectories through the usual Pauli averages:

        H_hat = base - (eps/2)<s3>^2 - (a/4)<s2> s1 + (a/4)<s1> s2
                     + eps <s3> s3

    with normalized averages and ``base`` the linear part (a 2x2 matrix).
    The average energy <H_hat> contains no damping contribution; the a-terms
    enter only through the commutator.
    A ``(K, 2)`` stack of states is built in one pass to a ``(K, 2, 2)``
    stack, each matrix bit for bit its single-state build.  A zero state, or
    a zero row of a stack, raises :class:`SingularObservableError`.
    """
    b = np.asarray(base, dtype=complex)
    half_eps, quarter_a = 0.5 * eps, 0.25 * a
    paulis = np.stack([sigma1, sigma2, sigma3])
    zero = "the neoclassical Hamiltonian is singular at a zero state"

    def assemble(s1, s2, s3, s3_squared):
        return (b - half_eps * s3_squared * identity2
                - quarter_a * s2 * sigma1 + quarter_a * s1 * sigma2
                + eps * s3 * sigma3)

    def build(zv):
        n = float(np.vdot(zv, zv).real)
        if not n:
            raise SingularObservableError(zero)
        s1 = float(np.vdot(zv, sigma1 @ zv).real) / n
        s2 = float(np.vdot(zv, sigma2 @ zv).real) / n
        s3 = float(np.vdot(zv, sigma3 @ zv).real) / n
        return assemble(s1, s2, s3, s3 ** 2)

    def build_stack(zs):
        n = _sqnorms(zs)
        if not n.all():
            raise SingularObservableError(zero)
        # each row's averages bit for bit its np.vdot ones (the _sqnorms idiom)
        pz = paulis @ zs[:, None, :, None]
        s = np.matmul(zs.conj()[:, None, None, :], pz)[:, :, 0, 0].real / n[:, None]
        s1, s2, s3 = (col[:, None, None] for col in s.T)
        # float_power is libm's pow, as Python's s3 ** 2; np.power and s3 * s3
        # round some squares differently
        return assemble(s1, s2, s3, np.float_power(s3, 2))

    def builder(z):
        zv = np.asarray(z, dtype=complex)
        return build_stack(zv) if zv.ndim == 2 else build(zv)

    return builder


# ---------------------------------------------------------------------------
# Jacobi elliptic functions (arithmetic-geometric mean / descending Landen)


def ellipk(k: float) -> float:
    """Complete elliptic integral K(k) in the modulus convention.

    AGM iteration; K(0) = pi/2 and K(k) -> inf as k -> 1.  See DLMF 19.8.
    """
    if not 0.0 <= k < 1.0:
        raise ValidationError(f"modulus must satisfy 0 <= k < 1, got {k}")
    a, _ = _agm_ladder(k, np.sqrt(1.0 - k * k))
    return float(np.pi / (2.0 * a[-1]))


def _agm_ladder(k: float, kp: float):
    """The AGM ladders a_n and c_n from a_0 = 1, b_0 = k', c_0 = k, until c_n
    <= 1e-16 or 31 steps (DLMF 19.8)."""
    a, c, b = [1.0], [float(k)], float(kp)
    while c[-1] > 1e-16 and len(a) < 32:
        a.append(0.5 * (a[-1] + b))
        c.append(0.5 * (a[-2] - b))
        b = float(np.sqrt(a[-2] * b))
    return a, c


def jacobi_elliptic(u, k: float):
    """Jacobi sn, cn, dn with modulus k (not the parameter m = k^2).

    Descending Landen transform driven by the AGM, DLMF 22.20: build the AGM
    ladder a_n, b_n, c_n, seed phi_N = 2^N a_N u, then fold back with
    phi_{n-1} = (phi_n + asin(c_n sin(phi_n)/a_n))/2.  Accurate to ~1e-12
    across the open modulus range; the k -> 0 and k -> 1 limits are handled
    as trigonometric / hyperbolic special cases.
    """
    u = np.asarray(u, dtype=float)
    if not 0.0 <= k <= 1.0:
        raise ValidationError(f"modulus must satisfy 0 <= k <= 1, got {k}")
    if k < 1e-12:
        return np.sin(u), np.cos(u), np.ones_like(u)
    kp = np.sqrt(max(0.0, 1.0 - k * k))
    if kp < 1e-12:
        return np.tanh(u), 1.0 / np.cosh(u), 1.0 / np.cosh(u)

    a_list, c_list = _agm_ladder(k, kp)
    nlev = len(a_list) - 1
    phi = (2.0 ** nlev) * a_list[nlev] * u
    phi_prev = phi
    for n in range(nlev, 0, -1):
        arg = np.clip(c_list[n] * np.sin(phi) / a_list[n], -1.0, 1.0)
        phi_next = 0.5 * (phi + np.arcsin(arg))
        phi_prev = phi
        phi = phi_next
    sn = np.sin(phi)
    cn = np.cos(phi)
    cosdiff = np.cos(phi_prev - phi)
    dn = np.where(np.abs(cosdiff) > 1e-8,
                  cn / np.where(np.abs(cosdiff) > 1e-8, cosdiff, 1.0),
                  np.sqrt(np.clip(1.0 - (k * sn) ** 2, 0.0, 1.0)))
    return sn, cn, dn
