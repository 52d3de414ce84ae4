"""Wave integration, Bloch forms and the elliptic function kernel."""

import json
import os
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import nlqm
import nlqm.cli
from nlqm import (
    AtomFieldParams,
    BlochParams,
    IntegrationError,
    SingularObservableError,
    ValidationError,
    bilinear,
    build_atom_field,
    canonical,
    canonical_solution,
    default_timestep,
    ellipk,
    integrate_bloch,
    integrate_nls,
    jacobi_elliptic,
    moment_power,
    neo_hamiltonian,
    nonlinear_operator,
    polchinski_functional,
    weinberg_composite,
)

modulus_strategy = st.floats(0.0, 0.99, allow_nan=False)
argument_strategy = st.floats(-8.0, 8.0, allow_nan=False)


def _diagonal_builder(e_levels, eps_levels):
    obs = (bilinear(np.diag(np.asarray(e_levels, dtype=complex)))
           + moment_power(np.diag(np.asarray(eps_levels, dtype=complex)), 2))
    return lambda z: nonlinear_operator(obs, z)


# ---------------------------------------------------------------------------
# RK4 wave integration


def test_rk4_matches_the_diagonal_closed_form():
    e_levels, eps_levels = [0.0, 1.0], [0.5, -0.5]
    z0 = np.array([0.8, 0.6j])
    traj = integrate_nls(_diagonal_builder(e_levels, eps_levels), z0, t_end=10.0, dt=0.01)
    exact = canonical_solution(e_levels, eps_levels, z0, traj.times)
    dev = np.max(np.abs(traj.amplitudes() - exact.amplitudes()))
    assert dev < 1e-8


def test_rk4_converges_at_fourth_order_to_every_exact_closed_form():
    """The accuracy ledger: the error against each exact solution at dt, dt/2
    and dt/4 falls by 2^4 per halving, for one state and for a stack alike."""
    e_levels, eps_levels = [0.0, 1.0], [0.5, -0.5]
    obs = (bilinear(np.diag(np.asarray(e_levels, dtype=complex)))
           + moment_power(np.diag(np.asarray(eps_levels, dtype=complex)), 2))
    single = np.array([0.8, 0.6j])
    stack = np.array([single, [0.6, 0.8], [np.sqrt(0.5), -1j * np.sqrt(0.5)]])

    def diagonal(z0, dt):
        traj = integrate_nls(lambda z: nonlinear_operator(obs, z), z0, 10.0, dt,
                             flow=obs.analytic_gradient)
        exact = np.stack([canonical_solution(e_levels, eps_levels, z, traj.times).amplitudes()
                          for z in np.atleast_2d(z0)], axis=1)
        return np.max(np.abs(traj.amplitudes() - exact.reshape(traj.amplitudes().shape)))

    def atom(dt):   # the linear ladder from |0, 1 photon>: w = -cos(q t)
        p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.25, 0.25),
                            omega=1.0, q=1.0, n_max=6)
        series = nlqm.inversion_trajectory(build_atom_field("linear", p),
                                           nlqm.product_state(p, 0, 1), 10.0, dt)
        return np.max(np.abs(series.w + np.cos(series.times)))

    def reduced_flow(dt):
        # c(rho) is conserved, so rho(t) = exp(-2ict epshat) rho0 exp(2ict epshat):
        # for a diagonal epshat, entry jk turns at -2c (e_j - e_k)
        e, rho0 = np.array([1.0, -1.0]), np.array([[0.75, 0.05], [0.05, 0.25]])
        traj = nlqm.polchinski_reduced_flow(["plain", "purity-weighted"], np.diag(e),
                                            np.stack([rho0, rho0]), 2.0, dt)
        c = np.array([0.5, 0.5 * np.sum(rho0 * rho0)])   # Tr(rho0 epshat), times Tr(rho0^2)
        exact = rho0 * np.exp(-2j * c[:, None, None] * (e[:, None] - e)
                              * traj.times[:, None, None, None])
        return np.abs(traj.rhos - exact).max(axis=(0, 2, 3))

    cases = {"diagonal": (lambda dt: diagonal(single, dt), 0.08),
             "diagonal stack": (lambda dt: diagonal(stack, dt), 0.08),
             "atom linear": (atom, 0.08),
             "intention paradox": (lambda dt: nlqm.intention_paradox(
                 0.0, 1.0, 1.0, np.pi / 2, dt).analytic_gap, 0.02),
             # one error per member of each stack
             "intention paradox stack": (lambda dt: nlqm.intention_paradox(
                 [0.0, 0.25, 0.5], [1.0, 0.75, 0.5], [1.0, 1.5, 2.0], np.pi / 2,
                 dt).analytic_gap, 0.02),
             "reduced flow stack": (reduced_flow, 0.04)}
    for name, (error, dt) in cases.items():
        errors = np.array([error(dt / 2 ** k) for k in range(3)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all((3.8 <= orders) & (orders <= 4.2)), (name, errors, orders)


def test_norm_and_energy_are_recorded_and_conserved():
    z0 = np.array([0.8, 0.6j])
    traj = integrate_nls(_diagonal_builder([0.0, 1.0], [0.5, -0.5]), z0,
                         t_end=10.0, dt=0.01)
    assert set(traj.recorded) >= {"norm", "hvalue"}
    assert np.max(np.abs(traj.recorded["norm"] - 1.0)) < 1e-10
    h = traj.recorded["hvalue"]
    assert np.max(np.abs(h - h[0])) < 1e-10


def test_default_timestep_resolves_the_fastest_scale():
    builder = lambda z: np.diag([50.0, -50.0]).astype(complex)
    dt = default_timestep(builder, np.array([1.0, 0.0j]))
    assert dt <= (2.0 * np.pi / 200.0) / 50.0 * 1.0001


def test_non_hermitian_builder_is_rejected():
    builder = lambda z: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for flow in (None, lambda z: builder(z) @ z):
        with pytest.raises(IntegrationError, match="[Hh]ermitian"):
            integrate_nls(builder, np.array([1.0, 0.0j]), t_end=1.0, dt=0.1, flow=flow)


def test_norm_drift_budget_aborts_unstable_steps():
    # dt far outside the RK4 stability region for |eig| = 40
    builder = lambda z: np.diag([40.0, -40.0]).astype(complex)
    for flow in (None, lambda z: builder(z) @ z):
        with pytest.raises(IntegrationError, match="norm drift|blew up"):
            integrate_nls(builder, np.array([1.0, 1.0j]) / np.sqrt(2.0), t_end=40.0,
                          dt=0.5, flow=flow)


def _two_level_wave(e_levels, z0, t_end, dt):
    """The eigenfrequency experiment's flow: levels plus 0.5 <sigma3>^2 / n."""
    obs = bilinear(np.diag(e_levels)) + moment_power(np.diag([0.5, -0.5]), 2)
    return integrate_nls(lambda z: nonlinear_operator(obs, z), np.asarray(z0, dtype=complex),
                         t_end, dt, flow=obs.analytic_gradient)


def test_a_large_multiple_of_a_passing_state_passes_the_norm_budget():
    # the budget is relative to the initial squared norm: 1e5 (0.6, 0.8)
    # drifts by 3e-3 in absolute terms at t = 0.19, and keeps the unit
    # state's samples times 1e5
    unit = _two_level_wave([0.0, 1.0], [0.6, 0.8], 30.0, 0.01).amplitudes()
    large = _two_level_wave([0.0, 1.0], [6e4, 8e4], 30.0, 0.01).amplitudes()
    npt.assert_allclose(large / 1e5, unit, rtol=0, atol=1e-12)


def test_a_small_multiple_of_a_failing_state_fails_the_norm_budget():
    # e = 10 at dt = 0.2 is far too coarse: the unit state and 1e-5 times it
    # (whose absolute drift is 3e-11) both lose 30% of their norm in one step
    for scale in (1.0, 1e-5):
        with pytest.raises(IntegrationError, match=r"^norm drift 3\.012e-01 exceeded budget "
                                                   r"1\.500e-04 at t = 0\.2; reduce dt$"):
            _two_level_wave([0.0, 10.0], scale * np.array([0.6, 0.8]), 30.0, 0.2)


def test_validation_of_step_arguments():
    # one step-grid check guards all four RK4 loops
    z0 = np.array([1.0, 0.0j])
    builder = _diagonal_builder([0.0, 1.0], [0.0, 0.0])
    # the last two exceed the step cap (1e300 and 2e10 steps)
    for t_end, dt in ((1.0, -0.1), (1.0, 0.0), (np.inf, 0.1), (1.0, np.nan),
                      (-1.0, 0.1), (1.0, 1e-320), (1.0, 1e-300), (20.0, 1e-9)):
        with pytest.raises(ValidationError):
            integrate_nls(builder, z0, t_end, dt)
        with pytest.raises(ValidationError):
            integrate_bloch(BlochParams(0.0, 1.0), [0.0, 0.0, -1.0], t_end, dt)
        with pytest.raises(ValidationError):
            nlqm.polchinski_reduced_flow("plain", nlqm.sigma3, np.diag([0.75, 0.25]),
                                         t_end, dt)
        with pytest.raises(ValidationError):
            nlqm.intention_paradox(0.5, 0.5, 1.0, t_end, dt)


def test_trajectory_amplitudes_are_one_read_only_array():
    z0 = np.array([0.8, 0.6j])
    traj = integrate_nls(_diagonal_builder([0.0, 1.0], [0.5, -0.5]), z0, t_end=1.0, dt=0.1)
    amps = traj.amplitudes()
    assert amps.shape == (11, 2)
    assert amps is traj.amplitudes()
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0, 0] = 0.0
    again = nlqm.Trajectory(times=traj.times, amplitudes=amps, recorded={})
    npt.assert_array_equal(again.amplitudes(), amps)
    exact = canonical_solution([0.0, 1.0], [0.5, -0.5], z0, traj.times)
    assert exact.amplitudes().shape == amps.shape
    with pytest.raises(ValidationError):
        nlqm.Trajectory(times=[0.0, 1.0], amplitudes=np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        nlqm.Trajectory(times=[0.0], amplitudes=np.ones((2, 2)))
    with pytest.raises(TypeError):
        nlqm.Trajectory(times=[0.0])


def test_step_counts_are_unchanged_on_valid_grids():
    z0 = np.array([1.0, 0.0j])
    builder = _diagonal_builder([0.0, 1.0], [0.0, 0.0])
    for t_end, dt, steps in ((1.0, 0.1, 10), (1.0, 0.3, 3), (0.01, 0.1, 1)):
        assert integrate_nls(builder, z0, t_end, dt).times.size == steps + 1
        assert integrate_bloch(BlochParams(0.0, 1.0), [0.0, 0.0, -1.0],
                               t_end, dt).times.size == steps + 1
    # t_end = 0: no loop takes a step
    assert integrate_nls(builder, z0, 0.0, 0.1).times.size == 1
    assert integrate_bloch(BlochParams(0.0, 1.0), [0.0, 0.0, -1.0], 0.0, 0.1).times.size == 1


# ---------------------------------------------------------------------------
# Gradient-driven RK4 stages against the operator-driven reference


FLOW_CASES = ("atom-linear", "atom-polchinski", "atom-weinberg-fock", "gisin-slice-sum",
              "moment-pair-plain", "moment-pair-purity", "eigenfrequency-diagonal")


def _flow_case(name):
    """(builder, observable, dimension) for each builder kind the library integrates."""
    if name.startswith("atom-"):
        p = AtomFieldParams(omega_levels=(0.0, 1.0, 0.6), eps_levels=(-0.5, 0.5, 0.2),
                            omega=1.0, q=1.0, n_max=3)
        builder = build_atom_field(name[len("atom-"):], p)
        return builder, builder.observable, p.n_levels * p.field_dim
    if name == "eigenfrequency-diagonal":
        obs = (bilinear(np.diag([0.0, 1.0, 0.4]).astype(complex))
               + moment_power(np.diag([0.5, -0.5, 0.1]).astype(complex), 2))
        return (lambda z: nonlinear_operator(obs, z)), obs, 3
    pair = {
        "gisin-slice-sum": lambda: weinberg_composite(canonical(0.1, 0.1, 0.3), 2, 2,
                                                      np.eye(2), sub_slot=1),
        "moment-pair-plain": lambda: polchinski_functional(0.5, nlqm.sigma3, (2, 2),
                                                           variant="plain", eps=0.3),
        "moment-pair-purity": lambda: polchinski_functional(0.5, nlqm.sigma3, (2, 2),
                                                            variant="purity-weighted", eps=0.3),
    }[name]()
    obs = bilinear(0.2 * np.eye(4)) + pair
    return (lambda z: nonlinear_operator(obs, z)), obs, 4


@pytest.mark.parametrize("case", FLOW_CASES)
def test_flow_path_matches_the_operator_path(case, rng):
    builder, obs, dim = _flow_case(case)
    z0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    z0 /= np.linalg.norm(z0)
    ref = integrate_nls(builder, z0, t_end=1.0, dt=0.005)
    fast = integrate_nls(builder, z0, t_end=1.0, dt=0.005, flow=obs.analytic_gradient)
    assert ref.times.size == fast.times.size == 201
    dev = np.max(np.abs(ref.amplitudes() - fast.amplitudes()))
    assert dev < 1e-12, f"{case}: states differ by {dev:.3e}"
    for key in ("norm", "hvalue"):
        npt.assert_allclose(fast.recorded[key], ref.recorded[key], rtol=0, atol=1e-12)


def test_flow_path_builds_the_operator_once_per_step():
    builder, obs, dim = _flow_case("atom-weinberg-fock")
    calls = []

    def counted(z):
        calls.append(np.shape(z))
        return builder(z)

    z0 = np.zeros(dim, dtype=complex)
    z0[1] = 1.0
    nsteps = 200
    block = nlqm.dynamics.MONITOR_BLOCK
    # one stacked build per block of accepted samples, plus its first row alone
    nblocks = -(-(nsteps + 1) // block)
    sizes = [min(block, nsteps + 1 - k * block) for k in range(nblocks)]
    monitored = [s for k in sizes for s in ((k, dim), (dim,))]
    integrate_nls(counted, z0, t_end=nsteps * 0.005, dt=0.005, flow=obs.analytic_gradient)
    assert calls == monitored
    # without flow the four stages build one state each, between the same blocks
    calls.clear()
    integrate_nls(counted, z0, t_end=nsteps * 0.005, dt=0.005)
    assert len(calls) == 4 * nsteps + 2 * nblocks
    stacked = [k for k, s in enumerate(calls) if len(s) == 2]
    assert [s for k in stacked for s in calls[k:k + 2]] == monitored


def _rk4_with_minus_i_in_the_stages(flow, z0, times):
    """Reference RK4 for i dz/dt = flow(z) that multiplies every stage by -1j."""
    dt = times[1]
    rhs = lambda z: -1j * np.asarray(flow(z), dtype=complex)
    out = [z0]
    for _ in times[1:]:
        y = out[-1]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        out.append(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


@pytest.mark.parametrize("case", ("atom-linear", "atom-polchinski", "atom-weinberg-fock",
                                  "gisin-stack", "neo-no-flow"))
def test_complex_step_keeps_the_samples_of_minus_i_stages(case, rng):
    # -i rides in the step (RK4 in tau = -i t): a product with -i is exact, so
    # the samples are those of stages that multiply by -1j, up to zero signs
    if case.startswith("atom-"):
        builder, obs, _ = _flow_case(case)
        z0, flow = nlqm.product_state(builder.params, 0, 1), obs.analytic_gradient
    elif case == "gisin-stack":
        builder, obs, dim = _flow_case("gisin-slice-sum")
        z0 = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        z0 /= np.linalg.norm(z0, axis=1)[:, None]
        flow = obs.analytic_gradient
    else:
        builder = neo_hamiltonian(0.2, 0.3, base=0.5 * (0.3 * nlqm.sigma3 - nlqm.sigma1))
        z0, flow = np.array([0.6, 0.8j]), None
    traj = integrate_nls(builder, z0, t_end=0.5, dt=0.005, flow=flow)
    ref = _rk4_with_minus_i_in_the_stages(flow or (lambda z: builder(z) @ z), z0, traj.times)
    assert traj.times.size == 101
    assert np.array_equal(traj.amplitudes(), ref)


# ---------------------------------------------------------------------------
# The block monitor of the flow path

BASE = np.diag([0.0, 1.0]).astype(complex)
PAIR = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _cornered(bad):
    """diag(0, 1) plus a non-Hermitian corner on the states where ``bad`` holds."""
    def builder(z):
        z = np.asarray(z)
        h = BASE + np.zeros(z.shape[:-1] + (1, 1))
        h[..., 0, 1] += np.where(bad(z), 0.1, 0.0)
        return h
    return builder


def test_block_monitor_reports_a_late_violation_like_the_step_path():
    # the relative phase of the two amplitudes is -t; the corner appears at
    # t = 0.81, sample 81, in the second block
    builder = _cornered(lambda z: np.angle(z[..., 1] * z[..., 0].conj()) < -0.805)
    assert 81 // nlqm.dynamics.MONITOR_BLOCK == 1
    reports = []
    for flow in (None, lambda z: z @ BASE.T):
        with pytest.raises(IntegrationError, match="non-Hermitian") as err:
            integrate_nls(builder, PAIR, t_end=2.0, dt=0.01, flow=flow)
        reports.append(str(err.value))
    assert reports[0] == reports[1]
    assert "at t = 0.81 " in reports[1]


def test_block_monitor_reports_the_earliest_violation_in_a_pending_block():
    # a damped flow loses 4.4e-6 of norm per step: it leaves its budget
    # (1e-4 over 100 steps) at t = 2.3, and the builder turns non-Hermitian
    # at t = 1, both in block 0
    damped = lambda z: z @ BASE.T - 2.2e-5j * z
    lost = lambda z: np.sum(np.abs(z) ** 2, axis=-1) < 1.0 - 4.2e-5
    kwargs = dict(t_end=10.0, dt=0.1, flow=damped)
    with pytest.raises(IntegrationError, match="norm drift .* at t = 2.3;"):
        integrate_nls(_cornered(lambda z: False), PAIR, **kwargs)
    with pytest.raises(IntegrationError, match="non-Hermitian matrix at t = 1 "):
        integrate_nls(_cornered(lost), PAIR, **kwargs)


def test_norm_violation_wins_over_a_later_blow_up_in_its_block():
    # dz/dt = g z grows by about 4e10 a step at g dt = 1000: the norm budget
    # breaks at t = 0.1, and the stages overflow at t = 2.9, inside the same
    # block of samples, before the block is monitored
    grow = lambda z: z @ BASE.T + 1e4j * z
    assert nlqm.dynamics.MONITOR_BLOCK > 29
    with pytest.raises(IntegrationError, match=r"norm drift .* at t = 0\.1; reduce dt"):
        integrate_nls(_cornered(lambda z: False), PAIR, t_end=10.0, dt=0.1, flow=grow)
    # without an earlier violation the overflow itself is reported, at its step
    with pytest.raises(IntegrationError, match=r"solution blew up at t = 0\.1$"):
        nlqm.dynamics._rk4(lambda y: 1e300 * y, np.ones(2), np.arange(101) * 0.1, 0.1,
                           on_block=lambda lo, hi, block: None)


def test_monitors_run_under_the_callers_error_state():
    seen = []

    def builder(z):
        seen.append(np.geterr()["over"])
        return BASE

    for state in ("warn", "ignore"):
        seen.clear()
        with np.errstate(over=state):
            integrate_nls(builder, PAIR, t_end=1.0, dt=0.1, flow=lambda z: z @ BASE.T)
        # with flow= the builder runs only in the monitor: the block's stack
        # and its first state alone
        assert seen == [state] * 2


def test_block_monitor_rejects_a_builder_that_mishandles_stacks():
    def flattening(z):
        # np.vdot flattens a stack: one average over all of its rows
        s3 = np.vdot(z, z * [1.0, -1.0]).real / np.vdot(z, z).real
        return BASE + 0.3 * s3 * nlqm.sigma3 + 0.5 * nlqm.sigma1

    psi0 = np.array([0.8, 0.6j])
    for flow in (lambda z: flattening(z) @ z, None):
        with pytest.raises(ValidationError, match="single-state build"):
            integrate_nls(flattening, psi0, 1.0, 0.01, flow=flow)
    with pytest.raises(ValidationError, match="stack"):
        integrate_nls(lambda z: np.eye(3), psi0, 1.0, 0.01, flow=lambda z: z)


def test_cross_checks_refuse_single_calls_that_are_non_finite_where_the_stack_is_not():
    # finite on a stack and nan on one state: the disagreement is refused,
    # not passed over as a non-finite build for the other checks to find
    nan_alone = lambda stacked: lambda z: (stacked(z) if np.ndim(z) > 1
                                           else np.full(np.shape(z) * 2, np.nan))
    with pytest.raises(ValidationError, match="single-state build by nan"):
        integrate_nls(nan_alone(lambda z: BASE), PAIR, 1.0, 0.01, flow=lambda z: z @ BASE.T)
    flow = lambda z: z @ BASE.T if z.ndim > 1 else np.full(z.shape, np.nan + 0j)
    with pytest.raises(ValidationError, match="single-state calls by nan"):
        integrate_nls(_cornered(lambda z: False), np.stack([PAIR, TILTED]), 1.0, 0.01,
                      flow=flow)


def test_block_monitor_covers_the_single_sample_of_t_end_zero():
    obs = (bilinear(np.diag([0.0, 1.0]).astype(complex))
           + moment_power(np.diag([0.5, -0.5]).astype(complex), 2))
    z0 = np.array([0.8, 0.6j])
    traj = integrate_nls(lambda z: nonlinear_operator(obs, z), z0, 0.0, 0.1,
                         flow=obs.analytic_gradient)
    assert traj.times.size == 1
    assert traj.recorded["hvalue"][0] == pytest.approx(obs.value(z0), abs=1e-14)
    skew = lambda z: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(IntegrationError, match="non-Hermitian matrix at t = 0 "):
        integrate_nls(skew, z0, 0.0, 0.1, flow=lambda z: skew(z) @ z)


# ---------------------------------------------------------------------------
# Stacks of states on one integration


@pytest.mark.parametrize("case", ("gisin-slice-sum", "moment-pair-plain", "moment-pair-purity"))
def test_every_row_of_a_stack_matches_its_separate_run(case, rng):
    builder, obs, dim = _flow_case(case)
    zs = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    zs /= np.linalg.norm(zs, axis=1)[:, None]
    stacked = integrate_nls(builder, zs, t_end=1.0, dt=0.005, flow=obs.analytic_gradient)
    assert stacked.amplitudes().shape == (201, 3, dim)
    for key in ("norm", "hvalue"):
        assert stacked.recorded[key].shape == (201, 3)
    for b, z0 in enumerate(zs):
        alone = integrate_nls(builder, z0, t_end=1.0, dt=0.005, flow=obs.analytic_gradient)
        npt.assert_array_equal(stacked.times, alone.times)
        npt.assert_allclose(stacked.amplitudes()[:, b], alone.amplitudes(), rtol=0, atol=1e-14)
        for key in ("norm", "hvalue"):
            npt.assert_allclose(stacked.recorded[key][:, b], alone.recorded[key],
                                rtol=0, atol=1e-14)


# row 1 = (0.6, 0.8 e^{i phase}) carries the larger second amplitude
TILTED = np.array([0.6, 0.8 * np.exp(0.5j)])
SECOND = lambda z: np.abs(np.asarray(z)[..., 1]) > 0.75


def test_a_late_violation_in_one_row_is_reported_at_its_own_time():
    # row 1's relative phase 0.5 - t passes -0.805 at t = 1.31, in block 2;
    # row 0 never turns non-Hermitian
    builder = _cornered(lambda z: SECOND(z) & (np.angle(z[..., 1] * z[..., 0].conj()) < -0.805))
    flow = lambda z: z @ BASE.T
    with pytest.raises(IntegrationError,
                       match=r"non-Hermitian matrix at t = 1\.31 in row 1 \(") as err:
        integrate_nls(builder, np.stack([PAIR, TILTED]), t_end=3.0, dt=0.01, flow=flow)
    with pytest.raises(IntegrationError) as alone:
        integrate_nls(builder, TILTED, t_end=3.0, dt=0.01, flow=flow)
    assert str(err.value) == str(alone.value).replace("t = 1.31 ", "t = 1.31 in row 1 ")


def test_the_earliest_violation_over_all_rows_wins():
    # row 1 = TILTED loses 4.4e-6 of norm per step and leaves its budget
    # (1e-4 over 100 steps) at t = 2.3; row 0 turns non-Hermitian at t = 3
    # in one run and at t = 1 in the other
    damped = lambda z: z @ BASE.T - 2.2e-5j * z * SECOND(z)[..., None]
    stack = np.stack([PAIR, TILTED])
    for late, message in ((-3.0, r"norm drift .* at t = 2\.3 in row 1;"),
                          (-1.0, r"non-Hermitian matrix at t = 1 in row 0 ")):
        phase = lambda z, late=late: np.angle(z[..., 1] * z[..., 0].conj()) < late + 0.005
        builder = _cornered(lambda z, phase=phase: ~SECOND(z) & phase(z))
        with pytest.raises(IntegrationError, match=message):
            integrate_nls(builder, stack, t_end=10.0, dt=0.1, flow=damped)


def test_a_hermiticity_violation_carries_its_time_and_row():
    builder = _cornered(lambda z: SECOND(z) & (np.angle(z[..., 1] * z[..., 0].conj()) < -0.805))
    flow = lambda z: z @ BASE.T
    for psi0, row in ((np.stack([PAIR, TILTED]), 1), (TILTED, None)):
        with pytest.raises(IntegrationError, match="non-Hermitian matrix at t = 1.31 ") as err:
            integrate_nls(builder, psi0, t_end=3.0, dt=0.01, flow=flow)
        assert err.value.t == pytest.approx(1.31, abs=1e-12) and err.value.row == row


def test_a_norm_drift_carries_its_time_and_row():
    damped = lambda z: z @ BASE.T - 2.2e-5j * z * SECOND(z)[..., None]
    for psi0, row in ((np.stack([PAIR, TILTED]), 1), (TILTED, None)):
        with pytest.raises(IntegrationError, match=r"norm drift .* at t = 2\.3[ ;]") as err:
            integrate_nls(_cornered(lambda z: False), psi0, t_end=10.0, dt=0.1, flow=damped)
        assert err.value.t == pytest.approx(2.3, abs=1e-12) and err.value.row == row


def test_a_stack_that_blows_up_names_its_row():
    # f = 1e6 overflows the stages of member 1 only; its solo call and a
    # one-state flow still report the time alone
    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.02 in row 1$") as err:
        nlqm.intention_paradox([0.5, 0.0, 0.5], [0.5, 1.0, 0.5], [1.0, 1e6, 1.0], 0.05, 0.01)
    assert (err.value.t, err.value.row) == (0.02, 1)
    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.02$") as err:
        nlqm.intention_paradox(0.0, 1.0, 1e6, 0.05, 0.01)
    assert (err.value.t, err.value.row) == (0.02, None)
    # a wave-flow stack: the flow grows by 1e300 a stage on row 2, the one
    # row whose squared norm exceeds 2
    grow = lambda z: z @ BASE.T * np.where(np.sum(np.abs(z) ** 2, axis=-1) > 2.0,
                                           1e300, 1.0)[..., None]
    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.1 in row 2$") as err:
        integrate_nls(_cornered(lambda z: False), np.stack([PAIR, TILTED, 2.0 * PAIR]), 1.0,
                      0.1, flow=grow)
    assert (err.value.t, err.value.row) == (0.1, 2)


def test_a_blow_up_that_a_mask_turns_off_still_names_its_row():
    # row 1's rate overflows, which the flow's mask turns into a zero rate
    # when errors are ignored: the step redone on the leading rows under
    # raised errors places it all the same
    def masked(y):
        return np.where(np.isfinite(np.abs(y) * 1e300), y, 0.0)

    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.1 in row 1$") as err:
        nlqm.dynamics._rk4(masked, np.array([[1.0], [1e10], [1.0]]), np.arange(11) * 0.1, 0.1,
                           on_block=lambda lo, hi, block: None)
    assert (err.value.t, err.value.row) == (0.1, 1)


# ---------------------------------------------------------------------------
# Stacks whose rows have their own horizons and parameters


def _parameter_rows(rng, rows, d):
    """A ladder-plus-moment observable of ``rows`` parameter rows, its builder,
    and each row's one-state builder and flow."""
    ladders, moments = (rng.normal(size=(rows, d, d)) + 1j * rng.normal(size=(rows, d, d))
                        for _ in range(2))
    ladders, moments = (m + np.swapaxes(m, -1, -2).conj() for m in (ladders, moments))
    obs = bilinear(ladders) + moment_power(0.3 * moments, 2)
    singles = [bilinear(h) + moment_power(0.3 * e, 2) for h, e in zip(ladders, moments)]
    per_row = [(lambda z, o=o: nonlinear_operator(o, z), o.analytic_gradient) for o in singles]
    return (lambda z: nonlinear_operator(obs, z)), obs, per_row


def test_rows_with_their_own_horizons_and_parameters_keep_their_solo_bits(rng):
    builder, obs, per_row = _parameter_rows(rng, 4, 3)
    z0 = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    horizons = [2.0, 1.0, 1.0, 0.25]
    traj = integrate_nls(builder, z0, horizons, 0.01, flow=obs.analytic_gradient,
                         per_row=per_row)
    assert traj.ends == [200, 100, 100, 25] and traj.times.size == 201
    amps = traj.amplitudes()
    for b, ((single, flow), t_end, end) in enumerate(zip(per_row, horizons, traj.ends)):
        alone = integrate_nls(single, z0[b], t_end, 0.01, flow=flow)
        assert np.array_equal(traj.times[:end + 1], alone.times)
        assert np.array_equal(amps[:end + 1, b], alone.amplitudes())
        assert not amps[end + 1:, b].any()
        for key in ("norm", "hvalue"):
            npt.assert_allclose(traj.recorded[key][:end + 1, b], alone.recorded[key],
                                rtol=1e-13, atol=0)
            assert np.isnan(traj.recorded[key][end + 1:, b]).all()


def test_a_row_leaves_the_stack_after_its_last_sample():
    # row 1 turns non-Hermitian at t = 1.31: not seen when its horizon is 1;
    # the flow gets the two rows, then row 0 alone as one state
    builder = _cornered(lambda z: SECOND(z) & (np.angle(z[..., 1] * z[..., 0].conj()) < -0.805))
    shapes = []
    flow = lambda z: shapes.append(z.shape) or z @ BASE.T
    stack = np.stack([PAIR, TILTED])
    integrate_nls(builder, stack, [3.0, 1.0], 0.01, flow=flow)
    assert {(2, 2), (1, 2), (2,)} >= set(shapes) >= {(2, 2), (2,)}
    with pytest.raises(IntegrationError, match=r"non-Hermitian matrix at t = 1\.31 in row 1 "):
        integrate_nls(builder, stack, [3.0, 2.0], 0.01, flow=flow)
    # row 1 loses 4.4e-6 of norm a step: past its own budget of 20 steps at
    # t = 0.5, inside the 100 steps of row 0
    damped = lambda z: z @ BASE.T - 2.2e-5j * z * SECOND(z)[..., None]
    with pytest.raises(IntegrationError, match=r"budget 2\.000e-05 at t = 0\.5 in row 1;"):
        integrate_nls(_cornered(lambda z: False), stack, [10.0, 2.0], 0.1, flow=damped)
    # a blow-up of the last row, on the one-state path, names its row: the
    # flow grows by 1e300 a stage on a state of squared norm over 2 (row 0)
    # once its relative phase -t passes -0.52
    grow = lambda z: z @ BASE.T * np.where(
        (np.sum(np.abs(z) ** 2, axis=-1) > 2.0)
        & (np.angle(z[..., 1] * z[..., 0].conj()) < -0.52), 1e300, 1.0)[..., None]
    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.6 in row 0$") as err:
        integrate_nls(_cornered(lambda z: False), np.stack([2.0 * PAIR, TILTED]), [1.0, 0.5],
                      0.1, flow=grow)
    assert err.value.t == pytest.approx(0.6, abs=1e-15) and err.value.row == 0


def test_row_horizons_that_cannot_share_a_stack_are_refused(rng):
    stack, flow = np.stack([PAIR, TILTED]), lambda z: z @ BASE.T
    builder = _cornered(lambda z: False)
    for t_end, dt, message in (([1.0, 2.0], 0.01, "longest horizon first"),
                               ([1.0, 1.0], [0.01, 0.011], "one step size"),
                               ([1.0, 0.3], 0.1, "one step size"),   # 0.3/3 is not 0.1
                               ([1.0, 0.0], 0.01, "one step size"),
                               ([1.0, 1.0, 1.0], 0.01, "one of each per row"),
                               (1.0, [0.01], "one of each per row")):
        with pytest.raises(ValidationError, match=message):
            integrate_nls(builder, stack, t_end, dt, flow=flow)
    _, obs, per_row = _parameter_rows(rng, 2, 2)
    for psi0, pairs in ((PAIR, per_row[:1]), (stack, per_row[:1])):
        with pytest.raises(ValidationError, match="one \\(hbuilder, flow\\) pair per row"):
            integrate_nls(builder, psi0, 1.0, 0.01, flow=flow, per_row=pairs)


def test_a_blow_up_the_redone_step_cannot_place_names_no_row():
    # the stages raise once, then run clean: no row has a non-finite entry
    raised = []

    def once(y):
        if not raised:
            raised.append(True)
            raise FloatingPointError("overflow")
        return y

    with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.1$") as err:
        nlqm.dynamics._rk4(once, np.ones((3, 2)), np.arange(11) * 0.1, 0.1,
                           on_block=lambda lo, hi, block: None)
    assert (err.value.t, err.value.row) == (0.1, None)


def _flow_contract_cases():
    cases = [pytest.param(obs, 4 if ("pair" in obs.label or "slice-sum" in obs.label) else 2,
                          domain, id=obs.label) for obs, domain in nlqm.standard_catalog()]
    p = AtomFieldParams((0.0, 1.0), (-0.5, 0.5), 1.0, 1.0 + 0j, 4)
    for description in ("linear", "polchinski", "weinberg-fock"):
        cases.append(pytest.param(build_atom_field(description, p).observable, 10, "any",
                                  id=f"atom-{description}"))
    return cases


@pytest.mark.parametrize("obs, d, domain", _flow_contract_cases())
def test_every_flow_maps_a_state_and_a_stack_to_complex128_of_their_shape(rng, obs, d, domain):
    # _rk4 takes the flow's stages as they come, uncast
    zs = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
    if domain == "away-from-sigma3-kernel":
        zs[:, 0] *= 3.0   # |<sigma3>| / n well clear of the guard disk
    for z in (zs[0], zs):
        g = obs.analytic_gradient(z)
        assert type(g) is np.ndarray and g.dtype == np.complex128 and g.shape == z.shape


def test_stacks_that_cannot_be_monitored_row_by_row_are_refused():
    stack = np.stack([PAIR, TILTED])
    builder = _cornered(lambda z: False)

    def flattening(z):
        # np.vdot flattens a stack: one sigma3 average over all of its rows
        s3 = np.vdot(z, z * [1.0, -1.0]).real / np.vdot(z, z).real
        return z @ BASE.T + 0.3 * s3 * z * [1.0, -1.0]

    assert integrate_nls(builder, PAIR, 1.0, 0.01, flow=flattening).times.size == 101
    with pytest.raises(ValidationError, match="single-state calls"):
        integrate_nls(builder, stack, 1.0, 0.01, flow=flattening)
    with pytest.raises(ValidationError, match="flow="):
        integrate_nls(builder, stack, 1.0, 0.01)
    with pytest.raises(ValidationError, match="B >= 1"):
        integrate_nls(builder, np.zeros((0, 2)), 1.0, 0.01, flow=lambda z: z @ BASE.T)


def test_sample_arrays_are_capped_before_they_are_allocated(monkeypatch):
    cap = nlqm.dynamics.MAX_SAMPLE_ENTRIES
    assert cap // 10 <= nlqm.dynamics.MAX_STEPS and cap // 9 <= nlqm.dynamics.MAX_STEPS

    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    z0 = np.zeros(10, dtype=complex)
    z0[0] = 1.0
    with monkeypatch.context() as m:
        m.setattr(np, "empty", refuse)
        # under the step cap, over the sample cap: 800,001 samples x 10
        with pytest.raises(ValidationError, match="sample entries"):
            integrate_nls(refuse, z0, float(cap // 10), 1.0, flow=refuse)
        with pytest.raises(ValidationError, match="sample entries"):
            nlqm.polchinski_reduced_flow("plain", np.diag([1.0, 0.0, -1.0]),
                                         np.diag([0.5, 0.3, 0.2]), float(cap // 9), 1.0)
    # one sample fewer fits
    assert nlqm.dynamics._step_grid(float(cap // 10 - 1), 1.0, width=10) == (cap // 10 - 1, 1.0)


# ---------------------------------------------------------------------------
# Jacobi elliptic kernel against an independent implementation


def test_ellipk_against_scipy():
    for k in (0.0, 0.1, 0.5, 0.9, 0.99, 0.9999):
        npt.assert_allclose(ellipk(k), scipy.special.ellipk(k ** 2),
                            rtol=1e-13, err_msg=f"k={k}")
    with pytest.raises(ValidationError):
        ellipk(1.0)


def test_jacobi_elliptic_against_scipy_grid():
    worst = 0.0
    for k in (0.0, 0.1, 0.5, 0.9, 0.99, 0.9999):
        u = np.linspace(-12.0, 12.0, 241)
        sn, cn, dn = jacobi_elliptic(u, k)
        sn_s, cn_s, dn_s, _ = scipy.special.ellipj(u, k ** 2)
        worst = max(worst,
                    np.max(np.abs(sn - sn_s)),
                    np.max(np.abs(cn - cn_s)),
                    np.max(np.abs(dn - dn_s)))
    assert worst < 1e-10


def test_jacobi_limits():
    u = np.linspace(-5.0, 5.0, 101)
    sn, cn, dn = jacobi_elliptic(u, 0.0)
    npt.assert_allclose(sn, np.sin(u), atol=1e-14)
    npt.assert_allclose(cn, np.cos(u), atol=1e-14)
    npt.assert_allclose(dn, np.ones_like(u), atol=1e-14)
    sn, cn, dn = jacobi_elliptic(u, 1.0 - 1e-15)
    npt.assert_allclose(sn, np.tanh(u), atol=1e-7)
    npt.assert_allclose(cn, 1.0 / np.cosh(u), atol=1e-7)


def test_cn_vanishes_at_the_quarter_period():
    k = 0.5
    _, cn, _ = jacobi_elliptic(np.array([ellipk(k)]), k)
    assert abs(cn[0]) < 1e-12


@given(u=argument_strategy, k=modulus_strategy)
@settings(max_examples=200, deadline=None)
def test_jacobi_identities(u, k):
    sn, cn, dn = jacobi_elliptic(np.array([u]), k)
    assert abs(sn[0] ** 2 + cn[0] ** 2 - 1.0) < 1e-10
    assert abs(dn[0] ** 2 + k ** 2 * sn[0] ** 2 - 1.0) < 1e-10


@given(u=argument_strategy, k=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_cn_periodicity(u, k):
    period = 4.0 * ellipk(k)
    _, cn1, _ = jacobi_elliptic(np.array([u]), k)
    _, cn2, _ = jacobi_elliptic(np.array([u + period]), k)
    assert abs(cn1[0] - cn2[0]) < 1e-9


# ---------------------------------------------------------------------------
# Bloch forms


def test_bloch_length_is_conserved_without_damping():
    for mode in (False, True):
        p = BlochParams(delta=0.2, omega=1.0, a=0.0, eps=0.3, rotating_frame=mode)
        tr = integrate_bloch(p, [0.6, 0.0, -0.8], t_end=20.0, dt=0.01)
        L = np.sum(tr.r ** 2, axis=1)
        assert np.max(np.abs(L - L[0])) < 1e-9


def test_fixed_frame_damping_law():
    """|r|^2 shrinks at the closed-form rate -2 a w v^2 in the fixed frame."""
    p = BlochParams(delta=0.0, omega=1.0, a=0.2, eps=0.3, rotating_frame=False)
    dt = 0.01
    tr = integrate_bloch(p, [0.0, 0.0, -1.0], t_end=20.0, dt=dt)
    L = np.sum(tr.r ** 2, axis=1)
    dL = (-L[4:] + 8 * L[3:-1] - 8 * L[1:-3] + L[:-4]) / (12 * dt)
    v, w = tr.r[2:-2, 1], tr.r[2:-2, 2]
    assert np.max(np.abs(dL + 2 * p.a * w * v ** 2)) < 1e-6


def test_rotating_frame_keeps_length_even_with_damping_terms():
    p = BlochParams(delta=0.0, omega=1.0, a=0.2, eps=0.3, rotating_frame=True)
    tr = integrate_bloch(p, [0.0, 0.0, -1.0], t_end=20.0, dt=0.01)
    L = np.sum(tr.r ** 2, axis=1)
    assert np.max(np.abs(L - L[0])) < 1e-9


def test_the_two_frames_differ_when_damped():
    r0 = [0.0, 0.0, -1.0]
    a = integrate_bloch(BlochParams(0.0, 1.0, 0.2, 0.3, rotating_frame=False), r0, 20.0, 0.01)
    b = integrate_bloch(BlochParams(0.0, 1.0, 0.2, 0.3, rotating_frame=True), r0, 20.0, 0.01)
    assert np.max(np.abs(a.r - b.r)) > 0.01


def test_bloch_runaway_cap_names_its_time():
    # strong fixed-frame damping pumps |r|^2 past four times its start
    with pytest.raises(IntegrationError, match=r"ran away at t = 0\.9 ") as err:
        integrate_bloch(BlochParams(0.0, 1.0, 3.0, 0.3), [0.6, 0.0, -0.8], 20.0, 0.05)
    assert err.value.t == pytest.approx(0.9, abs=1e-12) and err.value.row is None


def _bloch_rhs_on_numpy_scalars(p, r):
    """The Bloch right-hand side on numpy scalars, the reference for its bits."""
    u, v, w = r
    wt1, wt2, wt3 = -0.5 * p.a * v, 0.5 * p.a * u, 2.0 * p.eps * w
    du = -p.delta * v - wt3 * v + wt2 * w
    dw = -p.omega * v - wt2 * u + wt1 * v
    if p.rotating_frame:
        dv = p.delta * u + p.omega * w + wt3 * u - wt1 * w
    else:
        dv = p.delta * u + p.omega * w + wt3 * u + wt1 * w
    return np.array([du, dv, dw])


def _bits(x):
    """The bytes of an array, so that equal means bit for bit, zero signs included."""
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("rotating", (False, True))
def test_bloch_rhs_on_floats_matches_numpy_scalars_bit_for_bit(rotating, rng):
    for delta, omega, a, eps in rng.normal(size=(20, 4)):
        p = BlochParams(delta, omega, a, eps, rotating_frame=rotating)
        for r in rng.normal(size=(50, 3)) * rng.uniform(0.01, 100.0, size=(50, 1)):
            got = nlqm.dynamics._bloch_rhs(p, r)
            assert got.dtype == np.float64
            assert _bits(got) == _bits(_bloch_rhs_on_numpy_scalars(p, r))


@pytest.mark.parametrize("rotating", (False, True))
def test_a_bloch_overflow_stops_where_numpy_scalars_did_without_a_warning(rotating, capfd):
    # eps = 20 at dt = 0.1 is RK4-unstable: the stages overflow five steps in.
    # On numpy scalars that raised FloatingPointError; on Python floats it is
    # a silent inf, which the step's finiteness check must catch at the same step.
    p = BlochParams(0.0, 1.0, 0.5, 20.0, rotating_frame=rotating)
    r0, times = np.array([0.6, 0.0, -0.8]), np.arange(201) * 0.1
    found = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rhs in (_bloch_rhs_on_numpy_scalars, nlqm.dynamics._bloch_rhs):
            with pytest.raises(IntegrationError) as err:
                nlqm.dynamics._rk4(lambda r, rhs=rhs: rhs(p, r), r0, times, 0.1,
                                   on_block=lambda lo, hi, block: None)
            found.append((str(err.value), err.value.t, err.value.row))
        # the public run reports the runaway of a sample before the overflow
        with pytest.raises(IntegrationError, match=r"^Bloch vector length ran away at t = 0\.2 "):
            integrate_bloch(p, r0, 20.0, 0.1)
    assert found[0] == found[1] == ("solution blew up at t = 0.5", 0.5, None)
    assert capfd.readouterr().err == ""


def _neo_reference(a, eps, base):
    """The single-state neo build as written before it was made lean: the
    reference for the bits of the builder and its stacks."""
    def build(z):
        n = float(np.vdot(z, z).real)
        s1, s2, s3 = (float(np.vdot(z, s @ z).real) / n
                      for s in (nlqm.sigma1, nlqm.sigma2, nlqm.sigma3))
        return (base - 0.5 * eps * s3 ** 2 * nlqm.identity2
                - 0.25 * a * s2 * nlqm.sigma1 + 0.25 * a * s1 * nlqm.sigma2
                + eps * s3 * nlqm.sigma3)
    return build


def test_neo_single_and_stacked_builds_match_the_reference_bit_for_bit(rng):
    for a, eps, delta, omega in rng.normal(size=(5, 4)):
        base = 0.5 * (delta * nlqm.sigma3 - omega * nlqm.sigma1)
        builder, ref = neo_hamiltonian(a, eps, base), _neo_reference(a, eps, base)
        zs = ((rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)))
              * rng.uniform(0.1, 3.0, size=(200, 1)))
        stack = builder(zs)
        assert stack.shape == (200, 2, 2)
        for z, h in zip(zs, stack):
            want = ref(z)
            assert _bits(builder(z)) == _bits(want)
            assert _bits(h) == _bits(want)
    # a zero row fails the stack as it fails its own build
    for z in (np.zeros(2, dtype=complex), np.stack([zs[0], np.zeros(2)])):
        with pytest.raises(SingularObservableError, match="singular at a zero state"):
            builder(z)


def test_the_bundled_wave_comparison_keeps_the_bits_of_the_reference_build(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs",
                        "bloch-neoclassical.json")
    with open(path) as fh:
        scenario = next(sc for sc in json.load(fh)["scenarios"] if sc["compare_wave"])
    calls = []
    real = nlqm.cli.integrate_nls

    def spy(*args, **kw):
        calls.append((args, kw, real(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(nlqm.cli, "integrate_nls", spy)
    p = nlqm.cli._validated(scenario, "bloch-neoclassical")
    nlqm.cli._run_bloch(p)
    [((_, psi0, t_end, dt), kw, traj)] = calls
    assert kw == {}
    # the reference: the single-state build as it was, mapped over a stack row by row
    base = 0.5 * (p["delta"] * nlqm.sigma3 - p["omega"] * nlqm.sigma1)
    ref = _neo_reference(p["a"], p["eps"], base)
    stacked = lambda z: np.stack([ref(r) for r in z]) if z.ndim == 2 else ref(z)
    old = real(stacked, psi0, t_end, dt)
    assert traj.times.size == 2001
    assert _bits(traj.amplitudes()) == _bits(old.amplitudes())
    for key in ("norm", "hvalue"):
        assert _bits(traj.recorded[key]) == _bits(old.recorded[key])


def test_neo_hamiltonian_wave_flow_reproduces_rotating_bloch():
    delta, omega, a, eps = 0.3, 1.0, 0.2, 0.3
    base = 0.5 * (delta * nlqm.sigma3 - omega * nlqm.sigma1)
    builder = neo_hamiltonian(a, eps, base=base)
    theta, phi = 2.2, 0.7
    psi0 = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
    traj = integrate_nls(builder, psi0, t_end=20.0, dt=0.01)
    amps = traj.amplitudes()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    u = 2 * np.real(amps[:, 0].conj() * amps[:, 1]) / norms
    v = 2 * np.imag(amps[:, 0].conj() * amps[:, 1]) / norms
    w = (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2) / norms
    tr = integrate_bloch(BlochParams(delta, omega, a, eps, rotating_frame=True),
                         [u[0], v[0], w[0]], 20.0, 0.01)
    assert np.max(np.abs(np.stack([u, v, w], axis=1) - tr.r)) < 1e-6


def test_neo_hamiltonian_maps_a_stack_row_by_row_for_the_block_monitor(rng, monkeypatch):
    base = 0.5 * (0.3 * nlqm.sigma3 - nlqm.sigma1)
    builder = neo_hamiltonian(0.2, 0.3, base=base)
    zs = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    stack = builder(zs)
    assert stack.shape == (5, 2, 2)
    for z, h in zip(zs, stack):
        npt.assert_array_equal(h, builder(z))

    # the wave flow builds each block of samples as one stack, checks its
    # hermiticity as a stack, and records hvalue at every sample
    checked = []
    check = nlqm.dynamics._check_hermitian
    monkeypatch.setattr(nlqm.dynamics, "_check_hermitian",
                        lambda h, *args: checked.append(h.shape) or check(h, *args))
    psi0 = np.array([np.cos(1.1), np.sin(1.1) * np.exp(0.7j)])
    traj = integrate_nls(builder, psi0, t_end=1.0, dt=0.01)
    block = nlqm.dynamics.MONITOR_BLOCK
    assert checked == [(block, 2, 2), (101 - block, 2, 2)]
    hvalue = [np.vdot(z, builder(z) @ z).real for z in traj.amplitudes()]
    npt.assert_allclose(traj.recorded["hvalue"], hvalue, rtol=0, atol=1e-14)
