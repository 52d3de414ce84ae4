"""Wave integration, Bloch forms and the elliptic function kernel."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import nlqm
from nlqm import (
    AtomFieldParams,
    BlochParams,
    IntegrationError,
    ValidationError,
    bilinear,
    build_atom_field,
    canonical,
    canonical_solution,
    default_timestep,
    ellipk,
    gradient_flow_operator,
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
            nlqm.intention_paradox(nlqm.ParadoxParams(0.5, 0.5, 1.0, t_end), dt)


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
    # t_end = 0: the wave flow takes no step, the other loops one of size 0
    assert integrate_nls(builder, z0, 0.0, 0.1).times.size == 1
    assert integrate_bloch(BlochParams(0.0, 1.0), [0.0, 0.0, -1.0], 0.0, 0.1).times.size == 2


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
    if name == "moment-pair-purity":
        return gradient_flow_operator(obs), obs, 4
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
    with pytest.raises(IntegrationError, match=r"ran away at t = 0\.9 "):
        integrate_bloch(BlochParams(0.0, 1.0, 3.0, 0.3), [0.6, 0.0, -0.8], 20.0, 0.05)


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
