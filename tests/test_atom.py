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
    inversion_ode_check,
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


def test_params_validation_and_derived_constants():
    p = _params(0.5)
    assert p.n_levels == 2 and p.field_dim == 7
    assert p.transition() == pytest.approx(1.0)
    assert p.detuning() == pytest.approx(0.0)
    assert p.varsigma() == pytest.approx(0.5)
    assert p.curvature() == pytest.approx(2.0)
    assert p.detuning_shifted() == pytest.approx(0.0)  # symmetric levels
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
    assert inversion_ode_check(ser, p, n_prime=-0.5, n_big=0.5) < 1e-5

    pd = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(-0.3, 0.5),
                         omega=0.9, q=1.0, n_max=6)
    assert pd.detuning_shifted() == pytest.approx(0.26)
    bd = build_atom_field("polchinski", pd)
    serd = inversion_trajectory(bd, product_state(pd, level=0, photons=1),
                                t_end=8.0, dt=0.002)
    assert inversion_ode_check(serd, pd, n_prime=-0.5, n_big=0.5) < 1e-4
    ser_e = inversion_trajectory(bd, product_state(pd, level=1, photons=2),
                                 t_end=8.0, dt=0.002)
    assert inversion_ode_check(ser_e, pd, n_prime=0.5, n_big=2.5) < 1e-4


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
    ser = inversion_trajectory(b3, product_state(p3, level=0, photons=1),
                               t_end=10.0, dt=0.005)
    wel = elliptic_inversion(1.0, p3.varsigma(), ser.times)
    assert np.max(np.abs(ser.w - wel)) < 1e-5
    amps = ser.trajectory.amplitudes().reshape(-1, 3, p3.field_dim)
    assert np.max(np.sum(np.abs(amps[:, 2, :]) ** 2, axis=1)) == 0.0


def test_truncation_leak_aborts_and_names_the_cutoff():
    p = AtomFieldParams(omega_levels=(0.0, 1.0), eps_levels=(0.0, 0.0),
                        omega=1.0, q=1.0, n_max=2)
    z = np.zeros(p.n_levels * p.field_dim, dtype=complex)
    z[0 * p.field_dim + 2] = 1.0 / np.sqrt(2.0)  # top Fock layer occupied
    z[1 * p.field_dim + 2] = 1.0 / np.sqrt(2.0)
    with pytest.raises(IntegrationError, match="n_max"):
        inversion_trajectory(build_atom_field("linear", p), z, t_end=3.0, dt=0.01)
