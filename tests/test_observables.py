"""Homogeneous observables: values, Wirtinger derivatives, star products.

Expected numbers below were frozen from closed forms evaluated by hand at
simple states (moduli 0.8/0.6 keep every intermediate a short decimal).
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

import nlqm
from nlqm import (
    ContractError,
    HomogeneousObservable,
    SingularObservableError,
    ValidationError,
    barstar_moment,
    bilinear,
    canonical,
    cubic,
    moment_power,
    nonlinear_operator,
    norm_functional,
    power_family,
    singular_inverse,
    standard_catalog,
    star_product,
    wirtinger_gradient,
)
from stencil import differenced, stencil_gradient, stencil_operator

PROBE = np.array([0.8, 0.6j])
PAIR = np.array([0.6, 0.48j, -0.36, 0.52 - 0.1j]) / np.sqrt(1.0004)

component_strategy = st.floats(-2.0, 2.0, allow_nan=False)
state2_strategy = st.tuples(component_strategy, component_strategy,
                            component_strategy, component_strategy)
scale_strategy = st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 2.0 * np.pi))


def _state(parts):
    z = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    return z


# ---------------------------------------------------------------------------
# Convention-pinning values


def test_canonical_values_at_poles_and_probe():
    a = canonical(0.0, 1.0, 1.0)
    assert a.value(np.array([1.0, 0.0j])) == pytest.approx(1.0, abs=1e-15)
    assert a.value(np.array([0.0j, 1.0])) == pytest.approx(2.0, abs=1e-15)
    # n = 1, <H0> = 0.36, <sigma3> = 0.28
    assert a.value(PROBE) == pytest.approx(0.4384, abs=1e-15)


def test_canonical_gradient_and_operator_at_probe():
    a = canonical(0.0, 1.0, 1.0)
    g = np.asarray(a.analytic_gradient(PROBE))
    npt.assert_allclose(g, np.array([0.38528, 0.21696j]), atol=1e-14)
    m = nonlinear_operator(a, PROBE)
    # A = <psi|A_hat psi> and A_hat psi = gradient
    assert abs(np.vdot(PROBE, m @ PROBE).real - a.value(PROBE)) < 1e-14
    npt.assert_allclose(m @ PROBE, g, atol=1e-14)


def test_power_family_reduces_to_bilinear_at_zero_eps(rng):
    fam = power_family(0.3, 1.7, 0.0)
    lin = bilinear(np.diag([0.3, 1.7]))
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert fam.value(z) == pytest.approx(lin.value(z), rel=1e-14)


def test_norm_functional_is_the_two_sided_unit():
    n = norm_functional()
    z = PROBE
    assert n.value(z) == pytest.approx(1.0, abs=1e-15)
    npt.assert_allclose(np.asarray(n.analytic_gradient(z)), z, atol=1e-15)
    a = canonical(0.0, 1.0, 1.0)
    assert star_product(n, a, z) == pytest.approx(a.value(z), abs=1e-12)
    assert star_product(a, n, z) == pytest.approx(a.value(z), abs=1e-12)


@pytest.mark.parametrize("make", (bilinear, lambda m: moment_power(m, 2)),
                         ids=("bilinear", "moment_power"))
@pytest.mark.parametrize("m", (
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    np.zeros((2, 3)),
    [[0.0, 1.0], [0.0, 0.0]],
), ids=("nan", "inf", "2x3", "non-hermitian"))
def test_catalog_matrices_are_validated_as_hermitian_operators(make, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            make(m)


def test_observable_arithmetic_composes_derivatives(rng):
    a = bilinear(nlqm.sigma1, label="<s1>")
    b = moment_power(nlqm.sigma3, 2, 0.5)
    c = a + a + b
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert c.value(z) == pytest.approx(2.0 * a.value(z) + b.value(z), rel=1e-13)
    gc = np.asarray(c.analytic_gradient(z))
    expected = 2.0 * np.asarray(a.analytic_gradient(z)) + np.asarray(b.analytic_gradient(z))
    npt.assert_allclose(gc, expected, atol=1e-13)


def test_evaluator_must_be_real():
    fake = differenced(lambda z, zc: complex(np.vdot(z, z)) * 1j, "imag")
    with pytest.raises(ValidationError):
        fake.value(PROBE)


def test_an_observable_without_both_derivatives_is_refused():
    obs = canonical(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="needs a callable analytic_gradient"):
        HomogeneousObservable(evaluator=obs.evaluator, label="value-only")
    for name in ("analytic_gradient", "analytic_operator"):
        with pytest.raises(ValidationError, match=rf"canonical\(.*\) needs a callable {name}"):
            replace(obs, **{name: None})


# ---------------------------------------------------------------------------
# Derivative machinery


def _unit_and_random_states(domain, dim, rng):
    """Fixed unit states and three random ones; the singular family's are
    held clear of its pole (|<sigma3>| > 0.25)."""
    if dim == 4:
        states = [PAIR]
    elif domain == "any":
        states = [PROBE]
    else:   # <sigma3> = 0.84, and 0.28, where the slope is steeper
        states = [np.array([0.96, 0.28j]), PROBE]
    target = len(states) + 3
    while len(states) < target:
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if domain == "any" or abs(np.vdot(z, nlqm.sigma3 @ z).real) > 0.25 * np.vdot(z, z).real:
            states.append(z)
    return states


def test_catalog_derivatives_match_the_stencil_oracle(rng):
    # the analytic gradient against the stencil of the values, the analytic
    # operator against the stencil of the analytic gradient
    for k, (obs, domain) in enumerate(standard_catalog()):
        dim = 2 if k < 6 else 4   # the six two-level entries come first
        for z in _unit_and_random_states(domain, dim, rng):
            g = wirtinger_gradient(obs, z)
            npt.assert_allclose(g, stencil_gradient(obs.value, z), atol=2e-9, rtol=1e-7,
                                err_msg=obs.label)
            m = nonlinear_operator(obs, z)
            npt.assert_allclose(stencil_operator(obs.analytic_gradient, z), m,
                                atol=1e-8 * np.max(np.abs(m)), rtol=0, err_msg=obs.label)


def test_purity_weighted_operator_matches_the_stencil_oracle(rng):
    # 120 random cases: dims 2x2, 2x3 and 3x2, both slots, random epshat,
    # e2 and eps, each against the stencil of the analytic gradient
    for case in range(120):
        dims, slot = ((2, 2), (2, 3), (3, 2))[case % 3], case // 3 % 2
        a = rng.normal(size=(dims[slot],) * 2) + 1j * rng.normal(size=(dims[slot],) * 2)
        obs = nlqm.polchinski_functional(rng.normal(), a + a.conj().T, dims,
                                         variant="purity-weighted", eps=rng.normal(), slot=slot)
        z = rng.normal(size=dims[0] * dims[1]) + 1j * rng.normal(size=dims[0] * dims[1])
        m = nonlinear_operator(obs, z)
        ref = stencil_operator(obs.analytic_gradient, z)
        assert np.max(np.abs(m - ref)) <= 1e-9 * np.max(np.abs(ref)), (case, dims, slot)


def test_hermiticity_gate_rejects_asymmetric_operator():
    bad = HomogeneousObservable(
        evaluator=lambda z, zc: float(np.vdot(z, z).real),
        label="bad-op",
        analytic_gradient=lambda z: np.array(z, copy=True),
        analytic_operator=lambda z: np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
    )
    with pytest.raises(ValidationError, match="[Hh]ermitian"):
        nonlinear_operator(bad, PROBE)


def test_symmetrisation_near_the_float_range_does_not_overflow():
    huge = np.array([[0.0, 1e308], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = nonlinear_operator(bilinear(huge), [0.6, 0.8])
    assert np.array_equal(m, huge)


def test_singular_inverse_guard():
    s = singular_inverse()
    equator = np.array([1.0, 1.0]) / np.sqrt(2.0)  # <sigma3> = 0
    with pytest.raises(SingularObservableError):
        s.value(equator)
    # away from the pole the closed forms hold
    z = PROBE
    assert s.value(z) == pytest.approx(1.0 / 0.28, rel=1e-13)


def test_a_non_finite_gradient_of_one_state_is_refused_without_a_warning():
    # the moment family's s = mu / n is 0/0 at the zero state; the suite's
    # RuntimeWarning filter turns any warning printed on the way into a failure
    a, zero = canonical(0.0, 1.0, 1.0), np.zeros(2)
    for call in (lambda: wirtinger_gradient(a, zero), lambda: star_product(a, a, zero)):
        with pytest.raises(SingularObservableError, match=r"at state \[0\.\+0\.j 0\.\+0\.j\]"):
            call()
    # the gradient runs under the caller's error state, which may raise
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        wirtinger_gradient(a, zero)
    # a stack keeps the non-finite row beside the finite one
    with np.errstate(invalid="ignore"):
        g = wirtinger_gradient(a, np.stack([PROBE, zero]))
    assert np.isfinite(g[0]).all() and np.isnan(g[1]).all()
    npt.assert_array_equal(g[0], wirtinger_gradient(a, PROBE))


def test_the_value_and_operator_at_a_zero_state_refuse_it_without_a_warning():
    # s = mu / n is 0/0 in the evaluator and in the analytic operator; each
    # refusal keeps its type and message, and no RuntimeWarning comes first
    a, zero = canonical(0.0, 1.0, 1.0), np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularObservableError, match=r"singular at state \[0\.\+0\.j"):
            a.value(zero)
        with pytest.raises(ValidationError, match="entries contains non-finite entries"):
            nonlinear_operator(a, zero)
    # both run under the caller's error state, which may raise
    for call in (lambda: a.value(zero), lambda: nonlinear_operator(a, zero)):
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            call()


@given(parts=state2_strategy, scale=scale_strategy)
@settings(max_examples=150, deadline=None)
def test_homogeneity_and_euler_identity(parts, scale):
    z = _state(parts)
    n = float(np.vdot(z, z).real)
    assume(n > 1e-2)
    s = float(np.real(np.vdot(z, nlqm.sigma3 @ z))) / n
    assume(abs(s) > 1e-2)  # keep clear of the singular family's pole
    r, phi = scale
    c = r * np.exp(1j * phi)
    for obs in (canonical(0.0, 1.0, 1.0), cubic(0.0, 1.0, 0.5),
                power_family(0.0, 1.0, 0.3, power=4), singular_inverse()):
        a = obs.value(z)
        # degree (1,1): quadratic under complex scaling
        assert abs(obs.value(c * z) - abs(c) ** 2 * a) < 1e-8 * (1.0 + abs(a)) * max(1.0, abs(c) ** 2)
        # Euler: <psi, grad> recovers the value
        g = np.asarray(obs.analytic_gradient(z))
        assert abs(np.vdot(z, g) - a) < 1e-8 * (1.0 + abs(a))


@given(parts=state2_strategy)
@settings(max_examples=80, deadline=None)
def test_operator_reproduces_value_and_gradient(parts):
    z = _state(parts)
    assume(float(np.vdot(z, z).real) > 1e-2)
    obs = canonical(0.0, 1.0, 1.0)
    m = nonlinear_operator(obs, z)
    npt.assert_allclose(m, m.conj().T, atol=1e-12)
    assert abs(np.vdot(z, m @ z).real - obs.value(z)) < 1e-10 * (1.0 + abs(obs.value(z)))
    npt.assert_allclose(m @ z, np.asarray(obs.analytic_gradient(z)), atol=1e-9)


def _norm_over_first_weight(z, zc):
    # n^2 / |psi_0|^2: (1,1)-homogeneous, infinite where psi_0 = 0
    n = np.real(np.sum(z * zc, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return n * n / np.real(z[..., 0] * zc[..., 0])


def _norm_with_imaginary_part(z, zc):
    # a broken evaluator: complex wherever the two moduli differ
    w = np.real(z * zc)
    return w[..., 0] + w[..., 1] + 1j * (w[..., 0] - w[..., 1])


def test_value_batch_agrees_with_scalar_loop(rng):
    zs = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    obs = canonical(0.2, 1.3, 0.8)
    vals = obs.value(zs)
    for k in range(zs.shape[0]):
        assert vals[k] == pytest.approx(obs.value(zs[k]), rel=1e-13)

    # the first bad row raises exactly what value raises for it
    zero_first = np.array([[0.0, 0.6j], [0.0, 0.0]])
    equal_moduli = np.array([0.6, 0.6j])
    for evaluator, bad in [(_norm_over_first_weight, zero_first),
                           (_norm_with_imaginary_part, zs[:2])]:
        rows = np.concatenate([equal_moduli[None, :] * (1.0 + np.arange(3))[:, None], bad])
        odd = differenced(evaluator, "odd")
        with pytest.raises((SingularObservableError, ValidationError)) as scalar:
            odd.value(bad[0])
        with pytest.raises(scalar.type) as batch:
            odd.value(rows)
        assert type(batch.value) is scalar.type
        assert str(batch.value) == str(scalar.value)
        npt.assert_allclose(odd.value(rows[:3]), [odd.value(z) for z in rows[:3]], rtol=1e-15)


def _batch_case(name, rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = a + a.conj().T
    if name == "norm":
        return norm_functional(), 3
    if name == "bilinear":
        return bilinear(herm), 3
    if name.startswith("moment"):
        return moment_power(herm, int(name[len("moment"):]), coeff=0.7), 3
    return nlqm.weinberg_composite(canonical(0.1, 0.9, 0.4), 2, 2, np.eye(2)), 4


@pytest.mark.parametrize("name", ["norm", "bilinear", "moment2", "moment3", "moment-1",
                                  "slice-sum"])
def test_gradient_and_operator_batches_match_per_row_calls(name, rng):
    obs, d = _batch_case(name, rng)
    zs = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    grads = wirtinger_gradient(obs, zs)
    ops = obs.analytic_operator(zs)
    assert grads.shape == (6, d) and ops.shape == (6, d, d)
    # one stacked product against per-row ones: equal up to summation order
    for k, z in enumerate(zs):
        g, m = wirtinger_gradient(obs, z), obs.analytic_operator(z)
        npt.assert_allclose(grads[k], g, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(g))))
        npt.assert_allclose(ops[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))


def _bits(a):
    """The raw IEEE words of a complex array, so -0.0 and 0.0 differ too."""
    return np.ascontiguousarray(a).view(np.uint64)


def _moment_power_gradient_reference(mat, p, c, z):
    """``moment_power``'s closed-form gradient as first written, call for call."""
    zc = np.conj(z)
    mz = z @ mat.T
    mu = (zc * mz).sum(axis=-1).real
    n = (z * zc).sum(axis=-1).real
    s = mu / n
    a = np.asarray(p * s ** (p - 1))[..., None]
    b = np.asarray((p - 1) * s ** p)[..., None]
    return c * (a * mz - b * z)


@pytest.mark.parametrize("p", [2, 3, 4, -1])
@pytest.mark.parametrize("d", [2, 4, 10])
def test_moment_power_gradient_is_bit_identical_to_its_reference(p, d, rng):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = m + m.conj().T
    obs = moment_power(m, p, coeff=0.7)
    for z in (rng.normal(size=d) + 1j * rng.normal(size=d),
              rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d))):
        ref = _moment_power_gradient_reference(np.array(m), p, 0.7, z)
        got = obs.analytic_gradient(z)
        assert got.shape == z.shape
        assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("c", [1.0, 0.37])
@pytest.mark.parametrize("p", [2, 3, 4, -1])
@pytest.mark.parametrize("d", [2, 4, 10])
@pytest.mark.parametrize("matrix", ["hermitian", "real-diagonal"])
def test_moment_power_gradient_keeps_its_bits_where_c_is_one_and_zeros_are_signed(c, p, d,
                                                                                 matrix, rng):
    # bytes, so the sign of a zero counts: a state with signed zero parts
    # and a real diagonal M (the atom ladders) is where a complex multiply by
    # c = 1 + 0j flips one.  For p = -1, M is positive definite, so every
    # state stays clear of the singular guard.
    if matrix == "hermitian":
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T + np.eye(d) if p < 0 else a + a.conj().T
    else:
        m = np.diag(rng.choice([1.0, 2.0, 3.0] if p < 0 else [-2.0, -1.0, 1.0, 3.0],
                               size=d)) + 0j
    obs = moment_power(m, p, coeff=c)
    parts = rng.choice([-0.8, -0.6, 0.6, 0.8], size=d)
    signed = np.array([complex(x, -0.0) if k % 2 else complex(-0.0, x)
                       for k, x in enumerate(parts)])
    sparse = np.zeros(d, dtype=complex)
    sparse[0], sparse[-1] = 0.6, -0.8j
    for z in (rng.normal(size=d) + 1j * rng.normal(size=d), rng.normal(size=d) + 0j, sparse,
              signed, rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d)),
              np.stack([sparse, signed, np.eye(d, dtype=complex)[1], -signed])):
        ref = _moment_power_gradient_reference(m, p, c, z)
        got = obs.analytic_gradient(z)
        assert got.shape == z.shape and got.dtype == np.complex128
        assert np.array_equal(_bits(got), _bits(ref))


def _skewed(z):
    # Hermitian part plus a skew corner 1e-9 |psi_0|^2, past the gate once
    # |psi_0|^2 > 10, and no finite value for 4 < |psi_0|^2 < 6
    w = np.abs(z[..., 0]) ** 2
    h = np.zeros(z.shape[:-1] + (2, 2), dtype=complex) + nlqm.sigma1
    h[..., 0, 1] += 1e-9 * w
    return np.where(((w > 4.0) & (w < 6.0))[..., None, None], np.nan, h)


def test_nonlinear_operator_on_a_stack_matches_per_row_calls(rng):
    zs = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    obs = canonical(0.2, 1.3, 0.8)
    cases = [obs,                                          # one analytic_operator call
             differenced(obs.evaluator, "differenced")]  # row by row, from values
    for o in cases:
        ms = nonlinear_operator(o, zs)
        assert isinstance(ms, np.ndarray) and ms.shape == (6, 2, 2)
        npt.assert_array_equal(ms, np.swapaxes(ms, 1, 2).conj())
        for k, z in enumerate(zs):
            m = nonlinear_operator(o, z)
            npt.assert_allclose(ms[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))

    # the first bad row raises what a single-state call raises for it
    skew = HomogeneousObservable(evaluator=lambda z, zc: 0.0, label="skew",
                                 analytic_gradient=np.zeros_like, analytic_operator=_skewed)
    fine, gated, worse = [1.0, 0.0], [4.0, 0.0], [5.0, 0.0]
    nonfinite = [2.2, 0.0]
    nonlinear_operator(skew, np.array([fine, [3.0, 0.0]]))
    for rows, bad, message in (([fine, gated, worse], gated, "residual 1.6"),
                               ([fine, nonfinite, gated], nonfinite, "non-finite"),
                               ([gated, nonfinite], gated, "residual 1.6")):
        with pytest.raises(ValidationError, match=message) as single:
            nonlinear_operator(skew, np.array(bad, dtype=complex))
        with pytest.raises(ValidationError) as stacked:
            nonlinear_operator(skew, np.array(rows, dtype=complex))
        assert str(stacked.value) == str(single.value)


def test_one_state_reaches_each_callable_as_a_vector_and_a_stack_must_map_rows():
    # <sigma3> with each callable written for one state only
    shapes = []

    def seen(f):
        def call(z, *rest):
            shapes.append(np.shape(z))
            return f(z, *rest)
        return call

    obs = HomogeneousObservable(
        evaluator=seen(lambda z, zc: abs(z[0]) ** 2 - abs(z[1]) ** 2), label="one-state",
        analytic_gradient=seen(lambda z: np.array([z[0], -z[1]])),
        analytic_operator=seen(lambda z: np.diag([1.0, -1.0])))
    assert obs.value(PROBE) == pytest.approx(0.28, abs=1e-15)
    npt.assert_array_equal(wirtinger_gradient(obs, PROBE), [0.8, -0.6j])
    npt.assert_array_equal(nonlinear_operator(obs, PROBE), np.diag([1.0, -1.0]))
    assert shapes == [(2,)] * 3
    stack = np.array([PROBE] * 3)
    for call, what in ((obs.value, "values of shape (2,), not (3,)"),
                       (lambda zs: wirtinger_gradient(obs, zs),
                        "gradients of shape (2, 2), not (3, 2)"),
                       (lambda zs: nonlinear_operator(obs, zs),
                        "operators of shape (2, 2), not (3, 2, 2)")):
        with pytest.raises(ContractError) as refused:
            call(stack)
        assert str(refused.value) == f"one-state mapped states of shape (3, 2) to {what}"


def test_an_empty_stack_is_not_evaluated():
    def nowhere(*_args):
        raise AssertionError("evaluated an empty stack")

    out = HomogeneousObservable(evaluator=nowhere, analytic_gradient=nowhere,
                                analytic_operator=nowhere).value(np.zeros((0, 2), dtype=complex))
    assert out.shape == (0,) and out.dtype == float


# ---------------------------------------------------------------------------
# Star products: frozen values at PROBE = (0.8, 0.6i)


def test_star_product_frozen_canonical_square():
    a = canonical(0.0, 1.0, 1.0)
    v = star_product(a, a, PROBE)
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(0.19551232, abs=1e-10)


def _hermitian_stack(rng, rows, d):
    a = rng.normal(size=(rows, d, d)) + 1j * rng.normal(size=(rows, d, d))
    return a + np.swapaxes(a, -1, -2).conj()


@pytest.mark.parametrize("d", [2, 4, 10])
def test_a_matrix_stack_gives_each_row_the_gradient_bits_of_its_one_state_call(d, rng):
    # bilinear and the p = 2 moment: one matmul per row and, on a (k, d)
    # stack, libm's square, so row b is bit for bit the one-state call with
    # the b-th matrix, on stacks that leave and keep the leading rows.  On a
    # deeper stack a row is a stack of its own and squares as one (x * x):
    # the moment then agrees with the one-state call to rounding
    mats = _hermitian_stack(rng, 3, d)
    for make in (bilinear, lambda m: moment_power(m, 2, coeff=0.7)):
        stacked = make(mats)
        assert stacked.rows == 3
        singles = [make(m).analytic_gradient for m in mats]
        zs = rng.normal(size=(5, 3, d)) + 1j * rng.normal(size=(5, 3, d))
        for z in (zs[0], zs[0, :2], zs[0, :1], zs, zs[:, :2]):
            got = stacked.analytic_gradient(z)
            assert got.shape == z.shape and got.dtype == np.complex128
            for idx in np.ndindex(z.shape[:-1]):
                want = singles[idx[-1]](z[idx])
                if z.ndim == 2 or make is bilinear:
                    assert np.array_equal(_bits(got[idx]), _bits(want))
                else:
                    npt.assert_allclose(got[idx], want, rtol=0,
                                        atol=1e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("p", [2, 3, -1])
def test_a_matrix_stack_maps_values_and_operators_row_by_row(p, rng):
    a = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    mats = a @ np.swapaxes(a, -1, -2).conj() + np.eye(3)   # positive: clear of the guard
    stacked = moment_power(mats, p, coeff=0.4) + bilinear(mats[::-1])
    assert stacked.rows == 2
    zs = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    values, ops = stacked.value(zs), nonlinear_operator(stacked, zs)
    grads = stacked.analytic_gradient(zs)
    assert values.shape == (4, 2) and ops.shape == (8, 3, 3)
    for (k, b), z in zip(np.ndindex(4, 2), zs.reshape(-1, 3)):
        single = moment_power(mats[b], p, coeff=0.4) + bilinear(mats[1 - b])
        m = nonlinear_operator(single, z)
        assert values[k, b] == pytest.approx(single.value(z), rel=1e-13)
        npt.assert_allclose(ops[2 * k + b], m, rtol=0, atol=1e-13 * np.max(np.abs(m)))
        npt.assert_allclose(grads[k, b], m @ z, rtol=0, atol=1e-12 * np.max(np.abs(m @ z)))


def test_a_matrix_stack_refuses_one_state_and_rows_it_does_not_have(rng):
    mats = _hermitian_stack(rng, 2, 2)
    for obs in (bilinear(mats), moment_power(mats, 2)):
        for z, shape in ((PROBE, "(2,)"), (np.stack([PROBE] * 3), "(3, 2)")):
            for call in (obs.value, obs.analytic_gradient, obs.analytic_operator):
                with pytest.raises(ContractError,
                                   match=re.escape(f"k <= 2, not states of shape {shape}")):
                    call(z)
    with pytest.raises(ValidationError, match="2 and 3 parameter rows"):
        bilinear(mats) + moment_power(_hermitian_stack(rng, 3, 2), 2)
    assert (bilinear(mats) + canonical(0.0, 1.0, 0.5)).rows == 2
    with pytest.raises(ValidationError, match="not Hermitian"):
        bilinear(np.stack([nlqm.sigma3, [[0.0, 1.0], [0.0, 0.0]]]))


def test_coefficient_rows_keep_the_shared_matrix_square(rng):
    # one M and a coefficient per row: row b is bit for bit the one-matrix
    # call with the b-th coefficient on the same stack, whose p = 2 square is
    # an array's ** (a product).  That is what a no-signaling pair or a slice
    # sum's slices take alone, so such rows keep it on a (k, d) stack too,
    # where rows of their own matrices take np.float_power (libm's pow): the
    # two round 1,698 of 2,000,000 random float64 squares differently
    m = _hermitian_stack(rng, 1, 2)[0]
    coeffs = np.resize([0.3, -1.7, 2.0], 20_000)
    obs = moment_power(m, 2, coeff=coeffs)
    assert obs.rows == 20_000
    z = rng.normal(size=(20_000, 2)) + 1j * rng.normal(size=(20_000, 2))
    got = obs.analytic_gradient(z)
    for c in (0.3, -1.7, 2.0):
        rows = coeffs == c
        want = moment_power(m, 2, coeff=c).analytic_gradient(z)[rows]
        assert np.array_equal(_bits(got[rows]), _bits(want))
    mz = z @ m.T
    s = (np.add.reduce(z.conj() * mz, axis=-1).real / np.add.reduce(z.conj() * z, axis=-1).real)
    s = s[:, None]
    c = coeffs[:, None]
    assert np.array_equal(_bits(c * (2.0 * s * mz - 1.0 * s ** 2 * z)), _bits(got))
    assert not np.array_equal(_bits(c * (2.0 * s * mz - 1.0 * np.float_power(s, 2) * z)),
                              _bits(got))
    # the rows are the coefficients' own: one state, or more rows, is refused
    for bad in (z[0], np.zeros((20_001, 2))):
        with pytest.raises(ContractError, match="k <= 20000"):
            obs.analytic_gradient(bad)
    with pytest.raises(ValidationError, match="need one coefficient or 3, got 2"):
        moment_power(_hermitian_stack(rng, 3, 2), 2, coeff=[1.0, 2.0])


def test_star_product_frozen_mixed_square():
    m = bilinear(nlqm.sigma1, label="<s1>") + moment_power(nlqm.sigma3, 2, 0.5)
    v = star_product(m, m, PROBE)
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(1.07379008, abs=1e-10)


def test_star_product_complex_and_antisymmetric_pair():
    """Different factor order conjugates the (generally complex) product."""
    s1 = bilinear(nlqm.sigma1, label="<s1>")
    s3m = moment_power(nlqm.sigma3, 2, 0.5)
    lhs = star_product(s1, s3m, PROBE)
    rhs = star_product(s3m, s1, PROBE)
    assert lhs == pytest.approx(-0.2688j, abs=1e-10)
    assert rhs == pytest.approx(+0.2688j, abs=1e-10)
    assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)


def _star_functional(a, b, label):
    def one(z):
        v = star_product(a, b, z)
        if abs(v.imag) > 1e-9 * max(1.0, abs(v.real)):
            raise ValidationError(f"{label} is not real at this state")
        return v.real

    def ev(z, zc):   # star_product takes one state: map the rows of a stack
        return one(z) if z.ndim == 1 else np.array([one(row) for row in z])
    return differenced(ev, label)


def test_star_product_associativity_depends_on_the_observable():
    """Bracketings agree for a moduli-only observable but not in general."""
    a = canonical(0.0, 1.0, 1.0)
    aa = _star_functional(a, a, "A*A")
    left = star_product(aa, a, PROBE)
    right = star_product(a, aa, PROBE)
    assert left == pytest.approx(0.10074072693, abs=1e-6)
    assert abs(left - right) < 1e-9

    m = bilinear(nlqm.sigma1, label="<s1>") + moment_power(nlqm.sigma3, 2, 0.5)
    mm = _star_functional(m, m, "M*M")
    l2 = star_product(mm, m, PROBE)
    r2 = star_product(m, mm, PROBE)
    assert abs(l2 - r2) == pytest.approx(0.99090431837, abs=1e-6)
    assert (l2 - r2).imag == pytest.approx(0.99090431837, abs=1e-6)


def test_barstar_moments_of_canonical():
    a = canonical(0.0, 1.0, 1.0)
    assert barstar_moment(a, PROBE, 1) == pytest.approx(0.4384, abs=1e-12)
    assert barstar_moment(a, PROBE, 2) == pytest.approx(0.19551232, abs=1e-9)
    assert barstar_moment(a, PROBE, 3) == pytest.approx(0.09462543155, abs=1e-9)


# ---------------------------------------------------------------------------
# Catalog sweep


def test_standard_catalog_entries_are_consistent(rng):
    """Value/gradient/operator agree with each other across the catalog."""
    for obs, domain in standard_catalog():
        dim = 4 if ("pair" in obs.label or "slice-sum" in obs.label) else 2
        for _ in range(3):
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            if domain == "away-from-sigma3-kernel":
                s = float(np.real(np.vdot(z, nlqm.sigma3 @ z))) / float(np.vdot(z, z).real)
                if abs(s) < 1e-2:
                    continue
            a = obs.value(z)
            g = wirtinger_gradient(obs, z)
            assert abs(np.vdot(z, g) - a) < 1e-7 * (1.0 + abs(a)), obs.label
            m = nonlinear_operator(obs, z)
            npt.assert_allclose(m, m.conj().T, atol=1e-9)
            assert abs(np.vdot(z, m @ z).real - a) < 1e-6 * (1.0 + abs(a)), obs.label


@pytest.mark.parametrize("c", [1e-6, 1e5])
def test_catalog_entries_are_one_one_homogeneous_at_any_scale(c):
    """A(c psi) = |c|^2 A(psi), the gradient scales by c, the operator not at
    all; the pair state's second spectator slice holds 0.09% of its weight."""
    states = {"any": PROBE, "away-from-sigma3-kernel": np.array([0.96, 0.28j])}
    pair = np.array([0.6, 0.02j, -0.7, 0.015 - 0.01j])
    for obs, domain in standard_catalog():
        z = pair if ("pair" in obs.label or "slice-sum" in obs.label) else states[domain]
        v, g = obs.value(z), obs.analytic_gradient(z)
        assert abs(obs.value(c * z) / c ** 2 - v) <= 1e-12 * abs(v), obs.label
        assert np.max(np.abs(obs.analytic_gradient(c * z) / c - g)) <= 1e-12 * np.max(np.abs(g))
        m = nonlinear_operator(obs, z)
        assert np.max(np.abs(nonlinear_operator(obs, c * z) - m)) <= 1e-12 * np.max(np.abs(m))


def test_one_state_gives_a_plain_operator_array(rng):
    for obs, domain in standard_catalog():
        dim = 4 if ("pair" in obs.label or "slice-sum" in obs.label) else 2
        z = PROBE if dim == 2 else rng.normal(size=dim) + 1j * rng.normal(size=dim)
        m = nonlinear_operator(obs, z)
        assert type(m) is np.ndarray and m.shape == (dim, dim), obs.label


def test_standard_catalog_entries_take_stacks(rng):
    """On a stack, value, gradient and operator are the per-row calls'."""
    for obs, domain in standard_catalog():
        dim = 4 if ("pair" in obs.label or "slice-sum" in obs.label) else 2
        zs = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
        if domain == "away-from-sigma3-kernel":   # |<sigma3>| / n >= cos(1.2)
            theta, phi = rng.uniform(0.0, 0.6, size=5), rng.uniform(0.0, 6.0, size=5)
            zs = np.stack([np.cos(theta), np.exp(1j * phi) * np.sin(theta)], axis=1)
        vals, grads = obs.value(zs), wirtinger_gradient(obs, zs)
        ops = nonlinear_operator(obs, zs)
        assert vals.shape == (5,) and grads.shape == (5, dim) and ops.shape == (5, dim, dim)
        for k, z in enumerate(zs):
            v, g = obs.value(z), wirtinger_gradient(obs, z)
            m = nonlinear_operator(obs, z)
            npt.assert_allclose(vals[k], v, rtol=0, atol=1e-14 * (1.0 + abs(v)),
                                err_msg=obs.label)
            npt.assert_allclose(grads[k], g, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(g))),
                                err_msg=obs.label)
            npt.assert_allclose(ops[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))),
                                err_msg=obs.label)
