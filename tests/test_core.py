"""State containers, tensor helpers and reduced density matrices."""

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

angle_strategy = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


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


def test_normalized_and_gauge_fixed():
    s = StateVector(np.array([3.0j, 4.0]))
    n = s.normalized()
    assert abs(n.norm_squared() - 1.0) < 1e-15
    g = n.gauge_fixed()
    # largest-modulus entry (index 1) becomes real non-negative
    assert g.amplitudes[1].imag == 0.0
    assert g.amplitudes[1].real > 0.0
    # gauge fixing is a pure phase: moduli unchanged
    npt.assert_allclose(np.abs(g.amplitudes), np.abs(n.amplitudes), atol=1e-15)
    with pytest.raises(ValidationError):
        StateVector(np.zeros(2)).normalized()


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
    assert abs(rho.purity() - (0.75 ** 2 + 0.25 ** 2)) < 1e-15


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


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_reduced_states_match_partial_trace_per_sample(rng, dims):
    zs = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
    for keep in (0, 1):
        rhos = reduced_states(zs, dims, keep)
        assert rhos.shape == (7, dims[keep], dims[keep])
        assert not rhos.flags.writeable
        for z, rho in zip(zs, rhos):
            ref = partial_trace(StateVector(z, dims=dims), keep=keep).entries
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
    s = StateVector(np.ones(4) / 2.0, dims=(2, 2))
    with pytest.raises(ValidationError):
        rotate_subsystem(s, np.array([[1.0, 1.0], [0.0, 1.0]]), slot=0)


def test_remote_rotation_leaves_kept_factor_alone_linearly():
    """Linear-algebra fact: tracing out the rotated factor hides the rotation."""
    rng = np.random.default_rng(5)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = StateVector(z, dims=(2, 2)).normalized()
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = rotate_subsystem(s, q, slot=0)
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


@given(theta=angle_strategy, phi=angle_strategy)
@settings(max_examples=100, deadline=None)
def test_gauge_fixed_is_idempotent_and_projective(theta, phi):
    z = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
    s = StateVector(z)
    g1 = s.gauge_fixed()
    g2 = StateVector(z * np.exp(1.3j)).gauge_fixed()
    npt.assert_allclose(g1.amplitudes, g2.amplitudes, atol=1e-12)
    npt.assert_allclose(g1.gauge_fixed().amplitudes, g1.amplitudes, atol=1e-15)
