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
    dev = max(np.max(np.abs(a.amplitudes - b.amplitudes))
              for a, b in zip(traj.states, exact.states))
    assert dev < 1e-8


def test_norm_and_energy_are_recorded_and_conserved():
    z0 = np.array([0.8, 0.6j])
    traj = integrate_nls(_diagonal_builder([0.0, 1.0], [0.5, -0.5]), z0,
                         t_end=10.0, dt=0.01)
    assert set(traj.recorded) >= {"norm", "hvalue"}
    assert np.max(np.abs(traj.recorded["norm"] - 1.0)) < 1e-10
    h = traj.recorded["hvalue"]
    assert np.max(np.abs(h - h[0])) < 1e-10


def test_record_callables_are_sampled():
    z0 = np.array([1.0, 0.0j])
    traj = integrate_nls(_diagonal_builder([0.0, 1.0], [0.2, -0.2]), z0, t_end=1.0,
                         dt=0.1, record={"s3": lambda t, z: np.real(np.vdot(z, nlqm.sigma3 @ z))})
    assert traj.recorded["s3"].shape == traj.times.shape
    assert traj.recorded["s3"][0] == pytest.approx(1.0, abs=1e-12)


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
    states = traj.states
    assert len(states) == 11
    for row, s in zip(amps, states):
        npt.assert_array_equal(s.amplitudes, row)
    # the list-of-states form builds the same array
    again = nlqm.Trajectory(times=traj.times, states=states, recorded={})
    npt.assert_array_equal(again.amplitudes(), amps)
    exact = canonical_solution([0.0, 1.0], [0.5, -0.5], z0, traj.times)
    assert exact.amplitudes().shape == amps.shape
    with pytest.raises(ValidationError):
        nlqm.Trajectory(times=[0.0, 1.0], amplitudes=np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        nlqm.Trajectory(times=[0.0], amplitudes=np.ones((2, 2)))
    with pytest.raises(ValidationError):
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
    integrate_nls(counted, z0, t_end=nsteps * 0.005, dt=0.005, flow=obs.analytic_gradient)
    # one stacked build per block of accepted samples, plus its first row alone
    nblocks = -(-(nsteps + 1) // block)
    assert len(calls) == 2 * nblocks
    sizes = [min(block, nsteps + 1 - k * block) for k in range(nblocks)]
    assert calls == [s for k in sizes for s in ((k, dim), (dim,))]
    calls.clear()
    integrate_nls(counted, z0, t_end=nsteps * 0.005, dt=0.005)
    assert len(calls) == 4 * nsteps + 1


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

    # a record callable that raises later does not hide it either
    def late(t, z):
        if t > 1.5:
            raise ValueError("record failed")
        return 0.0

    with pytest.raises(IntegrationError, match="non-Hermitian matrix at t = 1 "):
        integrate_nls(_cornered(lost), PAIR, record={"late": late}, **kwargs)
    with pytest.raises(ValueError, match="record failed"):
        integrate_nls(_cornered(lambda z: False), PAIR,
                      record={"late": late}, **kwargs)


def test_block_monitor_rejects_a_builder_that_mishandles_stacks():
    def flattening(z):
        # np.vdot flattens a stack: one average over all of its rows
        s3 = np.vdot(z, z * [1.0, -1.0]).real / np.vdot(z, z).real
        return BASE + 0.3 * s3 * nlqm.sigma3 + 0.5 * nlqm.sigma1

    psi0 = np.array([0.8, 0.6j])
    with pytest.raises(ValidationError, match="single-state build"):
        integrate_nls(flattening, psi0, 1.0, 0.01, flow=lambda z: flattening(z) @ z)
    # the step path builds one state at a time and runs
    assert integrate_nls(flattening, psi0, 1.0, 0.01).times.size == 101
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
        L = tr.length_squared()
        assert np.max(np.abs(L - L[0])) < 1e-9


def test_fixed_frame_damping_law():
    """|r|^2 shrinks at the closed-form rate -2 a w v^2 in the fixed frame."""
    p = BlochParams(delta=0.0, omega=1.0, a=0.2, eps=0.3, rotating_frame=False)
    dt = 0.01
    tr = integrate_bloch(p, [0.0, 0.0, -1.0], t_end=20.0, dt=dt)
    L = tr.length_squared()
    dL = (-L[4:] + 8 * L[3:-1] - 8 * L[1:-3] + L[:-4]) / (12 * dt)
    v, w = tr.r[2:-2, 1], tr.r[2:-2, 2]
    assert np.max(np.abs(dL + 2 * p.a * w * v ** 2)) < 1e-6


def test_rotating_frame_keeps_length_even_with_damping_terms():
    p = BlochParams(delta=0.0, omega=1.0, a=0.2, eps=0.3, rotating_frame=True)
    tr = integrate_bloch(p, [0.0, 0.0, -1.0], t_end=20.0, dt=0.01)
    L = tr.length_squared()
    assert np.max(np.abs(L - L[0])) < 1e-9


def test_the_two_frames_differ_when_damped():
    r0 = [0.0, 0.0, -1.0]
    a = integrate_bloch(BlochParams(0.0, 1.0, 0.2, 0.3, rotating_frame=False), r0, 20.0, 0.01)
    b = integrate_bloch(BlochParams(0.0, 1.0, 0.2, 0.3, rotating_frame=True), r0, 20.0, 0.01)
    assert np.max(np.abs(a.r - b.r)) > 0.01


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
