"""Atom-field models: elliptic inversion, extension contrast, leak sentinel.

The lifted-moment model on resonance obeys
dw/dt^2 = (1 - w^2)(Omega^2 - varsigma^2 (1 - w^2)), giving -cn / -sech / -dn
for varsigma below / at / above the exchange Rabi rate Omega.
"""

import numpy as np
import numpy.testing as npt
import pytest

import nlqm
from nlqm import (
    AtomFieldParams,
    IntegrationError,
    ValidationError,
    build_atom_field,
    elliptic_inversion,
    integrate_nls,
    inversion_trajectory,
    jacobi_elliptic,
    linear_hamiltonian,
    product_state,
)


def _params(varsigma, q=1.0, omega=1.0, n_max=6):
    eps0 = np.sqrt(2.0 * varsigma)
    return AtomFieldParams(omega_levels=(0.0, 1.0),
                           eps_levels=(-eps0 / 2.0, eps0 / 2.0),
                           omega=omega, q=q, n_max=n_max)


# The exchange-sector oscillator's constants and ODE residual: a test-local
# oracle against which the integrated inversion is certified.


def _transition(p):
    return float(p.omega_levels[1] - p.omega_levels[0])


def _detuning(p):
    return _transition(p) - p.omega


def _curvature(p):
    """2 splitting^2, the stiffness of the inversion ODE."""
    return 2.0 * p.splitting() ** 2


def _detuning_shifted(p):
    """The detuning plus eps_1^2 - eps_0^2."""
    return _detuning(p) + float(p.eps_levels[1] ** 2 - p.eps_levels[0] ** 2)


def _inversion_ode_residual(series, p, n_prime, n_big):
    """Maximum defect of the exchange-sector inversion oscillator on a series.

    The inversion of a sector started in a bare level-field product state
    (R3 eigenvalue ``n_prime`` = -1/2 or +1/2, conserved excitation
    ``n_big`` = n_prime + photon number) satisfies

        d2w/dt2 = 2 D (D n' + e/8)
                  + (e (D n' + e/8) - D^2 - |q|^2 (N + 1/2)) w
                  - (3/4) e D w^2  -  (e^2/8) w^3

    with D the shifted detuning and e the curvature; d2w/dt2 is the second
    difference on the interior points.
    """
    t, w = series.times, series.w
    assert t.size >= 5
    dt = t[1] - t[0]
    wmid = w[1:-1]
    wdd = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dt ** 2
    dp = _detuning_shifted(p)
    eps = _curvature(p)
    om2 = abs(complex(p.q)) ** 2 * (n_big + 0.5)
    rhs = (2.0 * dp * (dp * n_prime + eps / 8.0)
           + (eps * (dp * n_prime + eps / 8.0) - dp ** 2 - om2) * wmid
           - 0.75 * eps * dp * wmid ** 2
           - (eps ** 2 / 8.0) * wmid ** 3)
    return float(np.max(np.abs(wdd - rhs)))


def test_params_validation_and_derived_constants():
    p = _params(0.5)
    assert p.n_levels == 2 and p.field_dim == 7
    assert _transition(p) == pytest.approx(1.0)
    assert _detuning(p) == pytest.approx(0.0)
    assert p.varsigma() == pytest.approx(0.5)
    assert _curvature(p) == pytest.approx(2.0)
    assert _detuning_shifted(p) == pytest.approx(0.0)  # symmetric levels
    assert p.rabi(0.5) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        AtomFieldParams(omega_levels=(0.0,), eps_levels=(0.0,), omega=1.0, q=1.0)
    with pytest.raises(ValidationError):
        AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(0.0,), omega=1.0, q=1.0)


def test_state_dimension_is_capped_before_anything_is_allocated(monkeypatch):
    cap = nlqm.atom.MAX_STATE_DIM

    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(nlqm.atom, "linear_hamiltonian", refuse)
    for levels, n_max in (((0.0, 1.0), 100000), ((0.0, 1.0, 2.0), cap // 3)):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            build_atom_field("linear", AtomFieldParams(
                omega_levels=levels, eps_levels=levels, omega=1.0, q=1.0, n_max=n_max))
    at_cap = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(0.0, 0.0), omega=1.0,
                             q=1.0, n_max=cap // 2 - 1)
    assert at_cap.n_levels * at_cap.field_dim == cap


def test_linear_hamiltonian_is_hermitian_and_conserves_excitation():
    p = _params(0.0, q=0.7 + 0.3j)
    h = linear_hamiltonian(p)
    npt.assert_allclose(h, h.conj().T, atol=1e-14)
    # excitation number R3 + photon number commutes with the ladder
    r3 = np.kron(nlqm.atom.atom_r3(2), np.eye(p.field_dim))
    a = nlqm.atom.field_annihilator(p.n_max)
    nhat = np.kron(np.eye(2), a.conj().T @ a)
    exc = r3 + nhat
    npt.assert_allclose(h @ exc, exc @ h, atol=1e-12)


def test_product_state_layout():
    p = _params(0.5)
    z = product_state(p, level=1, photons=3)
    assert z[p.field_dim + 3] == 1.0
    assert np.sum(np.abs(z) ** 2) == 1.0
    with pytest.raises(ValidationError):
        product_state(p, level=2, photons=0)
    with pytest.raises(ValidationError):
        product_state(p, level=0, photons=p.n_max + 1)


def test_build_atom_field_rejects_unknown_description():
    with pytest.raises(ValidationError):
        build_atom_field("semiclassical", _params(0.5))


@pytest.mark.parametrize("varsigma,t_end", [(0.5, 13.5), (1.0, 10.0), (2.0, 3.4)])
def test_lifted_moment_inversion_matches_the_elliptic_forms(varsigma, t_end):
    p = _params(varsigma)
    b = build_atom_field("polchinski", p)
    ser = inversion_trajectory(b, product_state(p, level=0, photons=1),
                               t_end=t_end, dt=0.005)
    wel = elliptic_inversion(1.0, varsigma, ser.times)
    assert np.max(np.abs(ser.w - wel)) < 1e-5
    assert ser.leak == 0.0  # the lifted form never leaves the exchange pair


def test_elliptic_inversion_regimes_pointwise():
    t = np.linspace(0.0, 5.0, 101)
    _, cn, _ = jacobi_elliptic(1.0 * t, 0.5)
    npt.assert_allclose(elliptic_inversion(1.0, 0.5, t), -cn, atol=1e-12)
    npt.assert_allclose(elliptic_inversion(1.0, 1.0, t), -1.0 / np.cosh(t), atol=1e-12)
    _, _, dn = jacobi_elliptic(2.0 * t, 0.5)
    npt.assert_allclose(elliptic_inversion(1.0, 2.0, t), -dn, atol=1e-12)
    npt.assert_allclose(elliptic_inversion(1.0, 0.0, t), -np.cos(t), atol=1e-12)


def test_fock_sliced_build_collapses_to_the_linear_ladder():
    """Concentrated Fock slices shift every level equally: the nonlinearity
    cancels and the inversion is the plain Rabi cosine."""
    q = 1.0
    p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.25, 0.25),
                        omega=1.0, q=q, n_max=6)
    z0 = product_state(p, level=0, photons=1)
    sw = inversion_trajectory(build_atom_field("weinberg-fock", p), z0,
                              t_end=4.0 * np.pi, dt=0.005)
    sl = inversion_trajectory(build_atom_field("linear", p), z0,
                              t_end=4.0 * np.pi, dt=0.005)
    assert np.max(np.abs(sw.w - sl.w)) < 1e-8
    assert np.max(np.abs(sw.w + np.cos(q * sw.times))) < 1e-8


def test_the_two_extensions_disagree_at_matched_parameters():
    q = 1.0
    p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.25, 0.25),
                        omega=1.0, q=q, n_max=6)
    z0 = product_state(p, level=0, photons=1)
    sp = inversion_trajectory(build_atom_field("polchinski", p), z0,
                              t_end=4.0 * np.pi, dt=0.005)
    sw = inversion_trajectory(build_atom_field("weinberg-fock", p), z0,
                              t_end=4.0 * np.pi, dt=0.005)
    gap = np.max(np.abs(sp.w - sw.w))
    assert gap == pytest.approx(0.043847525, abs=1e-6)
    # the lifted build is the elliptic cosine at modulus varsigma/Omega = 1/8
    _, cn, _ = jacobi_elliptic(q * sp.times, 0.125)
    assert np.max(np.abs(sp.w + cn)) < 1e-8


def test_inversion_ode_residual_on_and_off_resonance():
    p = _params(1.0)
    b = build_atom_field("polchinski", p)
    ser = inversion_trajectory(b, product_state(p, level=0, photons=1),
                               t_end=6.0, dt=0.002)
    assert _inversion_ode_residual(ser, p, n_prime=-0.5, n_big=0.5) < 1e-5

    pd = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.3, 0.5),
                         omega=0.9, q=1.0, n_max=6)
    assert _detuning_shifted(pd) == pytest.approx(0.26)
    bd = build_atom_field("polchinski", pd)
    serd = inversion_trajectory(bd, product_state(pd, level=0, photons=1),
                                t_end=8.0, dt=0.002)
    assert _inversion_ode_residual(serd, pd, n_prime=-0.5, n_big=0.5) < 1e-4
    ser_e = inversion_trajectory(bd, product_state(pd, level=1, photons=2),
                                 t_end=8.0, dt=0.002)
    assert _inversion_ode_residual(ser_e, pd, n_prime=0.5, n_big=2.5) < 1e-4


def test_rabi_rate_scales_with_the_conserved_excitation():
    from nlqm.composite import _fit_sinusoid
    p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(0.0, 0.0),
                        omega=1.0, q=1.0, n_max=8)
    for photons in (1, 2, 3):
        ser = inversion_trajectory(build_atom_field("linear", p),
                                   product_state(p, level=0, photons=photons),
                                   t_end=12.0, dt=0.01)
        _, w_fit, _ = _fit_sinusoid(ser.times, ser.w)
        n_big = -0.5 + photons
        assert w_fit == pytest.approx(p.rabi(n_big), abs=1e-5)


def test_extra_levels_stay_inert():
    p3 = AtomFieldParams(omega_levels=(0.0, 1.0, 2.3), eps_levels=(-0.5, 0.5, 0.7),
                         omega=1.0, q=1.0, n_max=6)
    b3 = build_atom_field("polchinski", p3)
    z0 = product_state(p3, level=0, photons=1)
    ser = inversion_trajectory(b3, z0, t_end=10.0, dt=0.005)
    wel = elliptic_inversion(1.0, p3.varsigma(), ser.times)
    assert np.max(np.abs(ser.w - wel)) < 1e-5
    traj = integrate_nls(b3, z0, 10.0, 0.005, flow=b3.observable.analytic_gradient)
    amps = traj.amplitudes().reshape(-1, 3, p3.field_dim)
    assert np.max(np.sum(np.abs(amps[:, 2, :]) ** 2, axis=1)) == 0.0


def test_truncation_leak_aborts_and_names_the_cutoff():
    p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(0.0, 0.0),
                        omega=1.0, q=1.0, n_max=2)
    z = np.zeros(p.n_levels * p.field_dim, dtype=complex)
    z[0 * p.field_dim + 2] = 1.0 / np.sqrt(2.0)  # top Fock layer occupied
    z[1 * p.field_dim + 2] = 1.0 / np.sqrt(2.0)
    with pytest.raises(IntegrationError, match="n_max"):
        inversion_trajectory(build_atom_field("linear", p), z, t_end=3.0, dt=0.01)


@pytest.mark.parametrize("description", ["linear", "polchinski", "weinberg-fock"])
def test_members_of_one_stack_write_the_series_of_their_own_runs(description):
    # three levels, each member with its own ladder, coupling, field
    # frequency, moment levels, preparation and horizon, longest first
    members = [AtomFieldParams((0.0, 1.0, 0.6), (-0.5, 0.5, 0.2), 1.0, 1.0, n_max=3),
               AtomFieldParams((0.1, 0.9, 0.3), (-0.7, 0.4, 0.0), 0.8, 0.9 * np.exp(0.4j), 3),
               AtomFieldParams((0.0, 1.2, 0.5), (-0.3, 0.3, 0.1), 1.1, 0.7j, 3)]
    prep, horizons = [(0, 1), (1, 0), (0, 2)], [1.5, 1.0, 0.5]
    z0 = np.stack([product_state(p, *lp) for p, lp in zip(members, prep)])
    builder = build_atom_field(description, members)
    assert builder.params == members and builder.observable.rows == 3
    stacked = inversion_trajectory(builder, z0, horizons, 0.005)
    for p, z, t_end, series in zip(members, z0, horizons, stacked):
        alone = inversion_trajectory(build_atom_field(description, p), z, t_end, 0.005)
        for got, want in ((series.times, alone.times), (series.w, alone.w)):
            assert np.array_equal(got, want)
        assert series.leak == alone.leak


def test_a_stack_of_atom_models_needs_one_shape_and_names_the_member_that_leaks():
    p = AtomFieldParams((0.0, 1.0), (0.0, 0.0), 1.0, 1.0, n_max=2)
    with pytest.raises(ValidationError, match="one level count and n_max"):
        build_atom_field("linear", [p, AtomFieldParams((0.0, 1.0), (0.0, 0.0), 1.0, 1.0, 3)])
    # member 1 starts in the exchange partner of the top Fock layer
    z0 = np.stack([product_state(p, 0, 1), product_state(p, 1, 1)])
    with pytest.raises(IntegrationError, match="n_max") as err:
        inversion_trajectory(build_atom_field("linear", [p, p]), z0, 3.0, 0.01)
    assert err.value.row == 1


def test_one_model_integrates_a_stack_of_states_with_their_own_horizons():
    p = AtomFieldParams((0.0, 1.0), (0.0, 0.0), 1.0, 1.0, n_max=2)
    z0 = np.stack([product_state(p, 0, 1)] * 2)
    series = inversion_trajectory(build_atom_field("linear", p), z0, [1.0, 0.5], 0.01)
    assert [s.times.size for s in series] == [101, 51]
    npt.assert_allclose(series[1].w, series[0].w[:51], rtol=0, atol=1e-15)
