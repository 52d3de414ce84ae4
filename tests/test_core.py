"""State containers, tensor helpers and reduced density matrices."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import nlqm
from nlqm import (
    DensityMatrix,
    StateVector,
    ValidationError,
    basis_state,
    expectation,
    partial_trace,
    reduced_states,
    rotate_subsystem,
    tensor_state,
)

amplitude_strategy = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=2, max_size=6,
)


def _vec(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def test_state_vector_copies_and_freezes_input():
    raw = np.array([1.0 + 0j, 2.0])
    s = StateVector(raw)
    raw[0] = 99.0
    assert s.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_state_vector_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        StateVector(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        StateVector(np.array([]))
    with pytest.raises(ValidationError):
        StateVector(np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError):
        StateVector(np.arange(4), dims=(3, 2))


def test_basis_and_tensor_states():
    a = basis_state(2, 0)
    b = basis_state(3, 2)
    ab = tensor_state(a, b)
    assert ab.dims == (2, 3)
    expected = np.zeros(6)
    expected[2] = 1.0
    npt.assert_allclose(ab.amplitudes, expected)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(-np.eye(2))  # negative
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    assert abs(rho.trace() - 1.0) < 1e-15


def test_huge_entries_are_refused_without_an_overflow_warning():
    huge = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not Hermitian"):
            nlqm.bilinear(huge)
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix(huge + np.eye(2))
        with pytest.raises(ValidationError, match="not Hermitian"):
            nlqm.polchinski_reduced_flow("plain", nlqm.sigma3, huge + np.eye(2), 0.05, 0.01)
        # a user observable's Hessian and a user builder's matrix
        user = nlqm.HomogeneousObservable(lambda z, zc: 0.0, analytic_operator=lambda z: huge)
        with pytest.raises(ValidationError, match="non-Hermitian Hessian .* residual inf"):
            nlqm.nonlinear_operator(user, np.array([0.6, 0.8]))
        with pytest.raises(nlqm.IntegrationError, match=r"non-Hermitian matrix .*\(deviation inf\)"):
            nlqm.integrate_nls(lambda z: huge, np.array([0.6, 0.8]), 0.05, 0.01,
                               flow=lambda z: np.zeros_like(z))
        # a non-finite one, whose residual inf - inf is nan
        with pytest.raises(nlqm.IntegrationError, match=r"non-Hermitian matrix .*\(deviation nan\)"):
            nlqm.integrate_nls(lambda z: np.full((2, 2), np.inf), np.array([0.6, 0.8]), 0.05,
                               0.01, flow=lambda z: np.zeros_like(z))


def test_mixtures_too_large_to_sum_or_square_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"trace must be real and positive \(and finite\)"):
            DensityMatrix(np.diag([1e308, 1e308]))
        for rho0 in (np.diag([1e200, 1e200]), np.array([[1e160, 1e150], [1e150, 0.5e160]])):
            with pytest.raises(ValidationError, match=r"purity must be finite, got .*, inf$"):
                nlqm.polchinski_reduced_flow("plain", nlqm.sigma3, rho0, 0.05, 0.01)


def test_hermiticity_residual_is_bit_for_bit_in_the_normal_range(rng):
    # the quarter scale is exact, so 4x the residual is max |m - m^dag| itself
    for shape in ((2, 2), (4, 4), (3, 5, 5)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for scale in (1e-150, 1.0, 1e150):
            ref = np.abs(scale * m - np.swapaxes(scale * m, -1, -2).conj()).max(axis=(-2, -1))
            resid = nlqm.core._hermiticity_residual(scale * m)
            assert resid.shape == shape[:-2]
            assert np.array_equal(4.0 * resid, ref)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), dims=(2, 2))
    for keep in (0, 1):
        rho = partial_trace(bell, keep=keep)
        npt.assert_allclose(rho.entries, 0.5 * np.eye(2), atol=1e-15)


def test_partial_trace_of_product_state_is_projector():
    a = StateVector(np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)]))
    b = StateVector(np.array([0.6, 0.8j]))
    ab = tensor_state(a, b)
    rho = partial_trace(ab, keep=0)
    proj = np.outer(a.amplitudes, a.amplitudes.conj())
    npt.assert_allclose(rho.entries, proj, atol=1e-14)


def test_partial_trace_requires_two_factors():
    with pytest.raises(ValidationError):
        partial_trace(StateVector(np.array([1.0, 0.0])), keep=0)
    with pytest.raises(ValidationError):
        partial_trace(StateVector(np.ones(8), dims=(2, 2, 2)), keep=0)


def test_composite_helpers_take_only_state_vectors():
    rho = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(TypeError):
        partial_trace(rho, keep=0)
    with pytest.raises(ValidationError, match="one-dimensional"):
        rotate_subsystem(rho.entries, (2, 2), np.eye(2), slot=0)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_reduced_states_match_partial_trace_per_sample(rng, dims):
    zs = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
    for keep in (0, 1):
        rhos = reduced_states(zs, dims, keep)
        assert rhos.shape == (7, dims[keep], dims[keep])
        assert not rhos.flags.writeable
        for z, rho in zip(zs, rhos):
            ref = np.trace(np.outer(z, z.conj()).reshape(dims + dims),
                           axis1=1 - keep, axis2=3 - keep)
            npt.assert_allclose(rho, ref, rtol=0, atol=1e-14 * np.vdot(z, z).real)
    bad = zs.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        reduced_states(bad, dims, 0)
    for args in ((zs, dims, 2), (zs, (2, 2), 0), (zs, (6,), 0), (zs[0], dims, 0)):
        with pytest.raises(ValidationError):
            reduced_states(*args)


def test_stacked_density_checks_match_density_matrix():
    # each matrix of a stack gets DensityMatrix's checks, with its message
    good = np.diag([0.75, 0.25]).astype(complex)
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]),     # not Hermitian
                -np.eye(2),                              # trace not positive
                np.diag([1.5, -0.5]),                    # negative eigenvalue
                np.array([[1.0, np.inf], [np.inf, 0.0]])):
        with pytest.raises(ValidationError) as single:
            DensityMatrix(bad)
        with pytest.raises(ValidationError) as stacked:
            nlqm.core._checked_density(np.stack([good, bad, good]), stacked=True)
        assert str(stacked.value) == str(single.value)


def test_rotate_subsystem_rejects_non_unitary():
    with pytest.raises(ValidationError):
        rotate_subsystem(np.ones(4) / 2.0, (2, 2), np.array([[1.0, 1.0], [0.0, 1.0]]), slot=0)


def test_remote_rotation_leaves_kept_factor_alone_linearly():
    """Linear-algebra fact: tracing out the rotated factor hides the rotation."""
    rng = np.random.default_rng(5)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = StateVector(z / np.linalg.norm(z), dims=(2, 2))
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = StateVector(rotate_subsystem(s.amplitudes, s.dims, q, slot=0), s.dims)
    rho_a = partial_trace(s, keep=1)
    rho_b = partial_trace(rotated, keep=1)
    npt.assert_allclose(rho_a.entries, rho_b.entries, atol=1e-12)
    # while the rotated slot itself moves
    moved = partial_trace(rotated, keep=0).entries
    orig = partial_trace(s, keep=0).entries
    assert np.max(np.abs(moved - q @ orig @ q.conj().T)) < 1e-12


def test_expectation_normalizes_and_checks_reality():
    s = StateVector(np.array([2.0, 0.0]))
    assert abs(expectation(s, nlqm.sigma3) - 1.0) < 1e-15
    rho = DensityMatrix(np.diag([1.5, 0.5]))
    assert abs(expectation(rho, nlqm.sigma3) - 0.5) < 1e-15
    skew = StateVector(np.array([1.0, 1.0j]))
    with pytest.raises(ValidationError):
        expectation(skew, np.array([[0.0, 1.0], [0.0, 0.0]]))  # non-Hermitian average


@given(pairs=amplitude_strategy)
@settings(max_examples=100, deadline=None)
def test_partial_trace_is_a_state(pairs):
    z = _vec(pairs)
    if np.vdot(z, z).real < 1e-6:
        return
    # pad to an even length and split 2 x (n/2)
    if z.size % 2:
        z = np.concatenate([z, [0.0]])
    s = StateVector(z, dims=(2, z.size // 2))
    for keep in (0, 1):
        rho = partial_trace(s, keep=keep)
        assert abs(rho.trace() - s.norm_squared()) < 1e-10 * (1 + s.norm_squared())
        evals = np.linalg.eigvalsh(rho.entries)
        assert evals[0] > -1e-10
