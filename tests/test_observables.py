"""Homogeneous observables: values, Wirtinger derivatives, star products.

Expected numbers below were frozen from closed forms evaluated by hand at
simple states (moduli 0.8/0.6 keep every intermediate a short decimal).
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

import nlqm
from nlqm import (
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

PROBE = np.array([0.8, 0.6j])

component_strategy = st.floats(-2.0, 2.0, allow_nan=False)
state2_strategy = st.tuples(component_strategy, component_strategy,
                            component_strategy, component_strategy)
scale_strategy = st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 2.0 * np.pi))


def _state(parts):
    z = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    return z


def _stripped(obs):
    """Same values, no closed-form derivatives: forces the differencing path."""
    return HomogeneousObservable(evaluator=obs.evaluator, label="stripped")


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
    m = nonlinear_operator(a, PROBE).entries
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


def test_observable_arithmetic_composes_derivatives(rng):
    a = bilinear(nlqm.sigma1, label="<s1>")
    b = moment_power(nlqm.sigma3, 2, 0.5)
    c = 2.0 * a + b
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert c.value(z) == pytest.approx(2.0 * a.value(z) + b.value(z), rel=1e-13)
    gc = np.asarray(c.analytic_gradient(z))
    expected = 2.0 * np.asarray(a.analytic_gradient(z)) + np.asarray(b.analytic_gradient(z))
    npt.assert_allclose(gc, expected, atol=1e-13)


def test_evaluator_must_be_real():
    fake = HomogeneousObservable(evaluator=lambda z, zc: complex(np.vdot(z, z)) * 1j,
                                 label="imag")
    with pytest.raises(ValidationError):
        fake.value(PROBE)


# ---------------------------------------------------------------------------
# Derivative machinery


def test_wirtinger_gradient_matches_closed_forms(rng):
    for obs in (canonical(0.2, 1.1, 0.7), cubic(0.0, 1.0, 0.4),
                power_family(0.0, 1.0, 0.3, power=4), bilinear(nlqm.sigma2)):
        for _ in range(3):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            g_fd = wirtinger_gradient(_stripped(obs), z)
            npt.assert_allclose(np.asarray(obs.analytic_gradient(z)), g_fd,
                                atol=2e-9, rtol=1e-7)


def test_nonlinear_operator_matches_value_level_differencing(rng):
    obs = canonical(0.1, 0.9, 0.6)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    m_num = nonlinear_operator(_stripped(obs), z).entries
    m_ana = nonlinear_operator(obs, z).entries
    npt.assert_allclose(m_ana, m_num, atol=5e-7)


def test_hermiticity_gate_rejects_asymmetric_operator():
    bad = HomogeneousObservable(
        evaluator=lambda z, zc: float(np.vdot(z, z).real),
        label="bad-op",
        analytic_operator=lambda z: np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
    )
    with pytest.raises(ValidationError, match="[Hh]ermitian"):
        nonlinear_operator(bad, PROBE)


def test_singular_inverse_guard():
    s = singular_inverse()
    equator = np.array([1.0, 1.0]) / np.sqrt(2.0)  # <sigma3> = 0
    with pytest.raises(SingularObservableError):
        s.value(equator)
    # away from the pole the closed forms hold
    z = PROBE
    assert s.value(z) == pytest.approx(1.0 / 0.28, rel=1e-13)


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
    m = nonlinear_operator(obs, z).entries
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
    vals = obs.value_batch(zs)
    for k in range(zs.shape[0]):
        assert vals[k] == pytest.approx(obs.value(zs[k]), rel=1e-13)
    looped = HomogeneousObservable(evaluator=obs.evaluator, label="per-row")
    npt.assert_array_equal(looped.value_batch(zs), [looped.value(z) for z in zs])

    # the first bad row raises exactly what value raises for it
    zero_first = np.array([[0.0, 0.6j], [0.0, 0.0]])
    equal_moduli = np.array([0.6, 0.6j])
    for evaluator, bad in [(_norm_over_first_weight, zero_first),
                           (_norm_with_imaginary_part, zs[:2])]:
        rows = np.concatenate([equal_moduli[None, :] * (1.0 + np.arange(3))[:, None], bad])
        for batched in (True, False):
            odd = HomogeneousObservable(evaluator=evaluator, label="odd", batched=batched)
            with pytest.raises((SingularObservableError, ValidationError)) as scalar:
                odd.value(bad[0])
            with pytest.raises(scalar.type) as batch:
                odd.value_batch(rows)
            assert type(batch.value) is scalar.type
            assert str(batch.value) == str(scalar.value)
            npt.assert_allclose(odd.value_batch(rows[:3]),
                                [odd.value(z) for z in rows[:3]], rtol=1e-15)


def _batch_case(name, rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    herm = a + a.conj().T
    if name == "norm":
        return norm_functional(), 3
    if name == "bilinear":
        return bilinear(herm), 3
    if name.startswith("moment"):
        return moment_power(herm, int(name[len("moment"):]), coeff=0.7), 3
    # the slice sum of a batched family is batched too
    return nlqm.weinberg_composite(canonical(0.1, 0.9, 0.4), 2, 2, np.eye(2)), 4


@pytest.mark.parametrize("name", ["norm", "bilinear", "moment2", "moment3", "moment-1",
                                  "slice-sum"])
def test_gradient_and_operator_batches_match_per_row_calls(name, rng):
    obs, d = _batch_case(name, rng)
    assert obs.batched
    zs = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    # the slice sum also through the per-row path
    for o in [obs] + ([replace(obs, batched=False)] if name == "slice-sum" else []):
        grads = o.gradient_batch(zs)
        ops = o.operator_batch(zs)
        assert grads.shape == (6, d) and ops.shape == (6, d, d)
        # one batched product against per-row ones: equal up to summation order
        for k, z in enumerate(zs):
            g, m = wirtinger_gradient(o, z), o.analytic_operator(z)
            npt.assert_allclose(grads[k], g, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(g))))
            npt.assert_allclose(ops[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))


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
    cases = [obs,                                   # one operator_batch call
             replace(obs, batched=False),           # per-row analytic operators
             replace(obs, analytic_operator=None),  # Hessian from the gradient
             HomogeneousObservable(evaluator=obs.evaluator)]  # from values
    for o in cases:
        ms = nonlinear_operator(o, zs)
        assert isinstance(ms, np.ndarray) and ms.shape == (6, 2, 2)
        npt.assert_array_equal(ms, np.swapaxes(ms, 1, 2).conj())
        for k, z in enumerate(zs):
            m = nonlinear_operator(o, z).entries
            npt.assert_allclose(ms[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))

    # the first bad row raises what a single-state call raises for it
    skew = HomogeneousObservable(evaluator=lambda z, zc: 0.0, label="skew",
                                 analytic_operator=_skewed, batched=True)
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


# ---------------------------------------------------------------------------
# Star products: frozen values at PROBE = (0.8, 0.6i)


def test_star_product_frozen_canonical_square():
    a = canonical(0.0, 1.0, 1.0)
    v = star_product(a, a, PROBE)
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(0.19551232, abs=1e-10)


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
    def ev(z, zc):
        v = star_product(a, b, z)
        if abs(v.imag) > 1e-9 * max(1.0, abs(v.real)):
            raise ValidationError(f"{label} is not real at this state")
        return v.real
    return HomogeneousObservable(evaluator=ev, label=label)


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
            m = nonlinear_operator(obs, z).entries
            npt.assert_allclose(m, m.conj().T, atol=1e-9)
            assert abs(np.vdot(z, m @ z).real - a) < 1e-6 * (1.0 + abs(a)), obs.label
