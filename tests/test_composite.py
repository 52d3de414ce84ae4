"""Pair extensions: slice sums, moment lifts, telegraphs, mixtures.

Telegraph expectations come from the closed forms: the rotated singlet
(alpha, beta) under the slice-sum extension shows a local <sigma2> equal to
2 Re(conj(alpha) beta) sin(4 eps (|alpha|^2 - |beta|^2) t); the tilted-basis
variant oscillates at 4 eps cos(2 tilt) with amplitude sin(2 tilt).
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import nlqm
from nlqm.composite import SLICE_FLOOR
from nlqm import (
    ContractError,
    DensityMatrix,
    HomogeneousObservable,
    IntegrationError,
    SingularObservableError,
    ValidationError,
    bilinear,
    canonical,
    gisin_telegraph,
    gradient_flow_operator,
    intention_paradox,
    lift_operator,
    mobility_telegraph,
    moment_power,
    no_signaling_check,
    nonlinear_operator,
    polchinski_functional,
    polchinski_reduced_flow,
    weinberg_composite,
    wirtinger_gradient,
)

ALPHA, BETA = np.sqrt(3.0) / 2.0, 0.5


def _stripped(obs):
    return HomogeneousObservable(evaluator=obs.evaluator, label="stripped")


def _rand(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# ---------------------------------------------------------------------------
# Constructors


def test_lift_operator_places_the_factor():
    m = nlqm.sigma3
    npt.assert_allclose(lift_operator(m, (2, 3), 0), np.kron(m, np.eye(3)))
    npt.assert_allclose(lift_operator(m, (3, 2), 1), np.kron(np.eye(3), m))
    with pytest.raises(ValidationError):
        lift_operator(m, (3, 2), 0)


def test_weinberg_composite_with_trivial_rest_reproduces_the_subsystem(rng):
    h = canonical(0.2, 0.9, 0.35)
    lifted = weinberg_composite(h, 2, 1, np.eye(1), sub_slot=0)
    for _ in range(5):
        z = _rand(rng, 2)
        assert lifted.value(z) == pytest.approx(h.value(z), rel=1e-13)


def test_weinberg_composite_closed_form_derivatives(rng):
    for sub_slot in (0, 1):
        obs = weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 3, np.eye(3),
                                 sub_slot=sub_slot)
        z = _rand(rng, 6)
        g = np.asarray(obs.analytic_gradient(z))
        npt.assert_allclose(g, wirtinger_gradient(_stripped(obs), z), atol=1e-7)
        m = np.asarray(obs.analytic_operator(z))
        npt.assert_allclose(m, m.conj().T, atol=1e-12)
        npt.assert_allclose(m @ z, g, atol=1e-12)
        assert abs(np.vdot(z, m @ z).real - obs.value(z)) < 1e-12
        npt.assert_allclose(m, nonlinear_operator(_stripped(obs), z), atol=1e-5)


def test_weinberg_composite_with_a_generic_basis(rng):
    q, _ = np.linalg.qr(_rand(rng, (3, 3)).reshape(3, 3))
    obs = weinberg_composite(canonical(0.3, 1.1, 0.4), 2, 3, q, sub_slot=0)
    z = _rand(rng, 6)
    npt.assert_allclose(np.asarray(obs.analytic_gradient(z)),
                        wirtinger_gradient(_stripped(obs), z), atol=1e-7)
    # the value genuinely depends on the spectator basis
    obs_id = weinberg_composite(canonical(0.3, 1.1, 0.4), 2, 3, np.eye(3), sub_slot=0)
    assert abs(obs.value(z) - obs_id.value(z)) > 1e-3


def _kron_loop_operator(h_sub, d_sub, d_rest, u, sub_slot, z):
    """Reference assembly: one kron(block, projector) per populated slice."""
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    t = z.reshape(dims)
    slices = (t @ u.conj()).T if sub_slot == 0 else u.conj().T @ t
    full = np.zeros((z.size, z.size), dtype=complex)
    for r, phi in enumerate(slices):
        if float(np.vdot(phi, phi).real) < SLICE_FLOOR:
            continue
        block = np.asarray(h_sub.analytic_operator(phi), dtype=complex)
        proj = np.outer(u[:, r], u[:, r].conj())
        full += np.kron(block, proj) if sub_slot == 0 else np.kron(proj, block)
    return full


def _slice_loop_gradient(h_sub, d_sub, d_rest, u, sub_slot, z):
    """Reference gradient: one h_sub gradient per populated slice, re-embedded."""
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    t = z.reshape(dims)
    slices = (t @ u.conj()).T if sub_slot == 0 else u.conj().T @ t
    full = np.zeros(z.size, dtype=complex)
    for r, phi in enumerate(slices):
        if float(np.vdot(phi, phi).real) < SLICE_FLOOR:
            continue
        g = np.asarray(h_sub.analytic_gradient(phi), dtype=complex)
        full += np.kron(g, u[:, r]) if sub_slot == 0 else np.kron(u[:, r], g)
    return full


@pytest.mark.parametrize("sub_slot", [0, 1])
@pytest.mark.parametrize("d_sub, d_rest", [(2, 3), (3, 2)])
def test_weinberg_operator_matches_the_kron_loop(rng, sub_slot, d_sub, d_rest):
    a = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    m = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    h_sub = bilinear(a + a.conj().T) + moment_power(m + m.conj().T, 2, coeff=0.7)
    u, _ = np.linalg.qr(_rand(rng, d_rest * d_rest).reshape(d_rest, d_rest))
    # build the state from its slices so that the last one sits below the floor
    phis = _rand(rng, d_rest * d_sub).reshape(d_rest, d_sub)
    phis[-1] = 1e-8 * phis[-1]
    t = phis.T @ u.T if sub_slot == 0 else u @ phis
    z = t.reshape(-1)
    starved = np.zeros((d_rest, d_sub), dtype=complex)
    starved[-1] = phis[-1]
    skipped = (starved.T @ u.T if sub_slot == 0 else u @ starved).reshape(-1)
    obs = weinberg_composite(h_sub, d_sub, d_rest, u, sub_slot=sub_slot)
    got = np.asarray(obs.analytic_operator(z))
    npt.assert_allclose(got, _kron_loop_operator(h_sub, d_sub, d_rest, u, sub_slot, z),
                        rtol=0, atol=1e-14)
    npt.assert_allclose(np.asarray(obs.analytic_gradient(z)),
                        _slice_loop_gradient(h_sub, d_sub, d_rest, u, sub_slot, z),
                        rtol=0, atol=1e-14)
    # the starved slice really was skipped: its block would not vanish
    assert np.max(np.abs(obs.analytic_operator(skipped))) == 0.0
    assert np.max(np.abs(obs.analytic_gradient(skipped))) == 0.0
    assert np.max(np.abs(h_sub.analytic_operator(phis[-1]))) > 0.1
    assert np.max(np.abs(h_sub.analytic_gradient(phis[-1]))) > 1e-9


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _slice_sum_reference(h_sub, u, d_sub, dims, sub_slot, z):
    """Value, gradient and operator of the slice sum by an explicit change of
    basis into ``u``: the general path of ``weinberg_composite``, step for step."""
    z = np.asarray(z, dtype=complex)
    t = z.reshape(z.shape[:-1] + dims)
    sl = np.swapaxes(t @ u.conj(), -1, -2) if sub_slot == 0 else u.conj().T @ t
    live = np.add.reduce(sl.conj() * sl, axis=-1).real >= SLICE_FLOOR
    vals = np.zeros(live.shape)
    gm = np.zeros(sl.shape, dtype=complex)
    blocks = np.zeros(sl.shape + (d_sub,), dtype=complex)
    if live.any():
        vals[live] = h_sub.value(sl[live])
        gm[live] = wirtinger_gradient(h_sub, sl[live])
        blocks[live] = h_sub.analytic_operator(sl[live])
    grad = np.swapaxes(gm, -1, -2) @ u.T if sub_slot == 0 else u @ gm
    layout = "...rab,lr,mr->...albm" if sub_slot == 0 else "...rab,lr,mr->...lamb"
    full = np.einsum(layout, blocks, u, u.conj())
    return (vals.sum(axis=-1), grad.reshape(z.shape),
            full.reshape(z.shape[:-1] + (z.shape[-1], z.shape[-1])))


@pytest.mark.parametrize("sub_slot", [0, 1])
@pytest.mark.parametrize("d_sub, d_rest", [(2, 1), (2, 2), (2, 5), (5, 2)])
def test_slice_sum_gradient_is_bit_identical_to_its_reference(rng, sub_slot, d_sub, d_rest):
    a = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    m = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    h_sub = (bilinear(a + a.conj().T) + moment_power(m + m.conj().T, 2, coeff=0.7)
             + moment_power(m @ m.conj().T, 3, coeff=-0.4))
    u, _ = np.linalg.qr(_rand(rng, d_rest * d_rest).reshape(d_rest, d_rest))
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    # states built from their slices; with d_rest > 1 the last slice of the
    # single state and of the stack's first two rows sits below the floor
    phis = _rand(rng, 8 * d_rest * d_sub).reshape(8, d_rest, d_sub)
    if d_rest > 1:
        phis[:3, -1] *= 1e-8
    t = np.swapaxes(phis, 1, 2) @ u.T if sub_slot == 0 else u @ phis
    zs = t.reshape(8, -1)
    obs = weinberg_composite(h_sub, d_sub, d_rest, u, sub_slot=sub_slot)
    for z in (zs[0], zs[1:]):
        ref = _slice_sum_reference(h_sub, u, d_sub, dims, sub_slot, z)[1]
        got = obs.analytic_gradient(z)
        assert got.shape == z.shape
        assert np.array_equal(_bits(got), _bits(ref))


def _slice_sum_gradient_through_wirtinger(h_sub, u, dims, sub_slot, z):
    """The slice-sum gradient as it ran through ``wirtinger_gradient``: the
    computational basis by reshapes, any other by the change of basis."""
    z = np.asarray(z, dtype=complex)
    rotate = not np.array_equal(u, np.eye(len(u)))
    t = z.reshape(z.shape[:-1] + dims)
    if rotate:
        t = t @ u.conj() if sub_slot == 0 else u.conj().T @ t
    sl = t.swapaxes(-1, -2) if sub_slot == 0 else t
    live = np.add.reduce(sl.conj() * sl, axis=-1).real >= SLICE_FLOOR
    gm = np.zeros(sl.shape, dtype=complex)
    if live.any():
        gm[live] = wirtinger_gradient(h_sub, sl[live])
    g = gm.swapaxes(-1, -2) if sub_slot == 0 else gm
    if rotate:
        g = g @ u.T if sub_slot == 0 else u @ g
    return g.reshape(z.shape)


def _spied(h_sub):
    """``h_sub`` whose analytic gradient records each stack it is called on."""
    calls = []

    def grad(z):
        calls.append(np.array(z))
        return h_sub.analytic_gradient(z)

    return replace(h_sub, analytic_gradient=grad), calls


@pytest.mark.parametrize("sub_slot", [0, 1])
@pytest.mark.parametrize("d_sub, d_rest", [(2, 1), (2, 5), (3, 2)])
@pytest.mark.parametrize("basis", ["identity", "rotated"])
def test_slice_sum_gradient_keeps_the_bits_of_the_wirtinger_path(rng, sub_slot, d_sub,
                                                                 d_rest, basis):
    m = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    h_sub = canonical(0.1, 0.9, 0.4) if d_sub == 2 else moment_power(m + m.conj().T, 2)
    u = (np.eye(d_rest) if basis == "identity"
         else np.linalg.qr(_rand(rng, d_rest * d_rest).reshape(d_rest, d_rest))[0])
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    # states built from their slices: row 0 with an exactly zero slice, row 1
    # with a starved one (its only one at d_rest = 1), row 2 all live, row 3
    # all dead (the zero state)
    phis = _rand(rng, 4 * d_rest * d_sub).reshape(4, d_rest, d_sub)
    phis[0, -1] = 0.0
    phis[1, 0] *= 1e-8
    phis[3] = 0.0
    t = np.swapaxes(phis, 1, 2) @ u.T if sub_slot == 0 else u @ phis
    zs = t.reshape(4, -1)
    spy, calls = _spied(h_sub)
    obs = weinberg_composite(spy, d_sub, d_rest, u, sub_slot=sub_slot)
    for z in (*zs, zs, zs[3:]):
        calls.clear()
        got = obs.analytic_gradient(z)
        ours = list(calls)
        ref = _slice_sum_gradient_through_wirtinger(spy, u, dims, sub_slot, z)
        assert got.shape == z.shape and got.dtype == np.complex128
        assert got.view(float).tobytes() == ref.view(float).tobytes()
        # one call per gradient, on the live slices the reference sends it,
        # and none where the reference sends none (every slice dead)
        theirs = calls[len(ours):]
        assert len(ours) == len(theirs) <= 1
        if ours:
            assert np.array_equal(ours[0], theirs[0])


def _slice_sum_cases(rng, d_sub):
    a = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    m = _rand(rng, d_sub * d_sub).reshape(d_sub, d_sub)
    herm, pos = m + m.conj().T, m @ m.conj().T + np.eye(d_sub)
    return {"p2": moment_power(herm, 2, coeff=0.7),
            "p3": moment_power(herm, 3, coeff=-0.4),
            # positive definite, so every slice stays clear of the singular guard
            "p-1": moment_power(pos, -1, coeff=0.3),
            "sum": (bilinear(a + a.conj().T) + moment_power(herm, 2, coeff=0.7)
                    + moment_power(m @ m.conj().T, 3, coeff=-0.4))}


@pytest.mark.parametrize("sub_slot", [0, 1])
@pytest.mark.parametrize("d_sub, d_rest", [(2, 1), (2, 2), (2, 5), (5, 2)])
@pytest.mark.parametrize("family", ["p2", "p3", "p-1", "sum"])
def test_identity_rest_basis_matches_the_change_of_basis_reference(rng, sub_slot, d_sub,
                                                                  d_rest, family):
    h_sub = _slice_sum_cases(rng, d_sub)[family]
    dims = (d_sub, d_rest) if sub_slot == 0 else (d_rest, d_sub)
    # states built from their slices: row 0 has an exactly zero slice, row 1 a
    # starved one (below the floor), row 2 only live ones
    phis = _rand(rng, 3 * d_rest * d_sub).reshape(3, d_rest, d_sub)
    phis[0, -1] = 0.0
    phis[1, 0] *= 1e-8
    zs = (np.swapaxes(phis, 1, 2) if sub_slot == 0 else phis).reshape(3, -1)
    states = (zs[0], zs[1], zs[2], zs)

    def triple(obs, z):
        return (obs.evaluator(z, z.conj()), obs.analytic_gradient(z),
                obs.analytic_operator(z))

    # the computational basis: a reshape, equal up to the sign of a zero
    eye = np.eye(d_rest)
    obs = weinberg_composite(h_sub, d_sub, d_rest, eye, sub_slot=sub_slot)
    for z in states:
        for got, ref in zip(triple(obs, z), _slice_sum_reference(h_sub, eye, d_sub, dims,
                                                                 sub_slot, z)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
    # any other basis, even one a hair from the identity, keeps the change of
    # basis, bit for bit (with d_rest = 1 both of these are the identity)
    others = [np.eye(d_rest)[::-1], np.eye(d_rest) + 1e-17] if d_rest > 1 else []
    for u in others:
        obs = weinberg_composite(h_sub, d_sub, d_rest, u, sub_slot=sub_slot)
        for z in states:
            for got, ref in zip(triple(obs, z), _slice_sum_reference(h_sub, u, d_sub, dims,
                                                                     sub_slot, z)):
                assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("sub_slot", [0, 1])
def test_slice_sum_stacks_match_per_row_calls(rng, sub_slot):
    d_sub, d_rest, rows = 2, 3, 5
    u, _ = np.linalg.qr(_rand(rng, d_rest * d_rest).reshape(d_rest, d_rest))
    h_sub = canonical(0.2, 0.9, 0.6)
    obs = weinberg_composite(h_sub, d_sub, d_rest, u, sub_slot=sub_slot)
    # states built from their slices; one slice of row 2 sits below the floor
    phis = _rand(rng, rows * d_rest * d_sub).reshape(rows, d_rest, d_sub)
    phis[2, -1] *= 1e-8
    t = np.swapaxes(phis, 1, 2) @ u.T if sub_slot == 0 else u @ phis
    zs = t.reshape(rows, -1)
    vals, grads = obs.value(zs), wirtinger_gradient(obs, zs)
    ops = obs.analytic_operator(zs)
    assert vals.shape == (rows,) and grads.shape == zs.shape
    assert ops.shape == (rows, d_sub * d_rest, d_sub * d_rest)
    for k, z in enumerate(zs):
        v, g, m = obs.value(z), obs.analytic_gradient(z), obs.analytic_operator(z)
        npt.assert_allclose(vals[k], v, rtol=0, atol=1e-14 * (1.0 + abs(v)))
        npt.assert_allclose(grads[k], g, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(g))))
        npt.assert_allclose(ops[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))
        ref = _kron_loop_operator(h_sub, d_sub, d_rest, u, sub_slot, z)
        npt.assert_allclose(ops[k], ref, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(ref))))
    # the starved slice adds nothing to the stacked value either
    alive = phis[2, :-1]
    assert vals[2] == pytest.approx(sum(h_sub.value(phi) for phi in alive), rel=1e-14)
    # the gated, symmetrized operators of the whole stack in one call
    npt.assert_allclose(nonlinear_operator(obs, zs), ops, rtol=0, atol=1e-13)


def test_gradient_flow_operator_takes_stacks(rng):
    purity = polchinski_functional(0.5, nlqm.sigma3, (2, 2), variant="purity-weighted",
                                   eps=0.3)
    plain = bilinear(0.2 * np.eye(4)) + polchinski_functional(0.5, nlqm.sigma3, (2, 2),
                                                              variant="plain", eps=0.3)
    zs = _rand(rng, 20).reshape(5, 4)
    for obs in (purity, plain):
        flowop = gradient_flow_operator(obs)
        ms = flowop(zs)
        assert ms.shape == (5, 4, 4)
        for k, z in enumerate(zs):
            m = flowop(z)
            npt.assert_allclose(ms[k], m, rtol=0, atol=1e-14 * (1.0 + np.max(np.abs(m))))
        npt.assert_allclose(np.einsum("kij,kj->ki", ms, zs), wirtinger_gradient(obs, zs),
                            atol=1e-12)
        with pytest.raises(nlqm.SingularObservableError):
            flowop(np.concatenate([zs, np.zeros((1, 4))]))


def _one_state_sigma3(guard=lambda z: None):
    """<sigma3> with each callable written for one state, behind ``guard``."""
    def guarded(f):
        def call(z, *rest):
            guard(z)
            return f(z, *rest)
        return call

    return {"evaluator": guarded(lambda z, zc: abs(z[0]) ** 2 - abs(z[1]) ** 2),
            "analytic_gradient": guarded(lambda z: np.array([z[0], -z[1]])),
            "analytic_operator": guarded(lambda z: np.diag([1.0, -1.0]))}


def test_weinberg_composite_checks_its_subsystem_on_one_more_row_than_it_has_entries():
    # on exactly d_sub = 2 slices z[0] is a row and every shape comes out right
    # (values of the wrong slices), so the lift checks h_sub on 3 rows
    s3 = bilinear(nlqm.sigma3)
    for name, f in _one_state_sigma3().items():
        h_sub = replace(s3, label="one-state", **{name: f})
        with pytest.raises(ContractError, match=r"one-state mapped states of shape \(3, 2\)"):
            weinberg_composite(h_sub, 2, 2, np.eye(2))


def test_weinberg_composite_checks_the_slice_results_of_a_subsystem_singular_at_the_probe(rng):
    def inside_the_unit_disk(z):
        if np.any(np.abs(z) >= 1.0):
            raise SingularObservableError("defined inside the unit disk only")

    pair = weinberg_composite(HomogeneousObservable(label="one-state",
                                                    **_one_state_sigma3(inside_the_unit_disk)),
                              2, 3, np.eye(3))
    z = 0.1 * _rand(rng, 6)
    for call, what in ((lambda: pair.value(z), r"values of shape \(2,\), not \(3,\)"),
                       (lambda: pair.analytic_gradient(z),
                        r"gradients of shape \(2, 2\), not \(3, 2\)"),
                       (lambda: pair.analytic_operator(z),
                        r"operators of shape \(2, 2\), not \(3, 2, 2\)")):
        with pytest.raises(ContractError, match=rf"mapped states of shape \(3, 2\) to {what}"):
            call()


def test_weinberg_composite_rejects_non_unitary_basis():
    with pytest.raises(ValidationError):
        weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2,
                           np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("u, message", (
    # u u^dag - 1 = 3e-11 on the diagonal: the preparation (alpha, beta) =
    # (sqrt(3)/2, 0.50000000003) as the no-signaling experiment builds it
    ([[ALPHA, -0.50000000003], [0.50000000003, ALPHA]], "not unitary"),
    # finite entries whose products overflow: an off-diagonal inf - inf = NaN
    ([[1e200, 1e200], [1e200, -1e200]], "not unitary"),
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
    (np.eye(3)[:2], "must be"),
    (np.zeros((0, 0)), "must be"),
), ids=("off-by-3e-11", "overflow", "nan", "2x3", "0x0"))
def test_every_unitary_input_takes_the_one_check(u, message):
    with pytest.raises(ValidationError, match=message):
        nlqm.rotate_subsystem(np.ones(4) / 2.0, (2, 2), u, slot=0)
    with pytest.raises(ValidationError, match=message):
        weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2, u)
    with pytest.raises(ValidationError, match=message):
        no_signaling_check("weinberg", u, 1.0, 0.01, eps=0.5)


def test_vanishing_slice_contributes_nothing():
    obs = weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2, np.eye(2), sub_slot=1)
    # only the first spectator column is populated
    z = np.array([0.6, 0.0, 0.8j, 0.0])
    v = obs.value(z)
    assert np.isfinite(v)
    g = np.asarray(obs.analytic_gradient(z))
    assert np.all(np.isfinite(g))
    assert abs(np.vdot(z, g) - v) < 1e-12


def test_polchinski_functional_gradients(rng):
    for variant in ("plain", "purity-weighted"):
        obs = polchinski_functional(0.5, nlqm.sigma3, (2, 2), variant=variant, eps=0.3)
        z = _rand(rng, 4)
        npt.assert_allclose(np.asarray(obs.analytic_gradient(z)),
                            wirtinger_gradient(_stripped(obs), z), atol=1e-7)
        c = 1.3 - 0.4j
        assert obs.value(c * z) == pytest.approx(abs(c) ** 2 * obs.value(z), rel=1e-10)


def test_polchinski_functional_is_basis_independent(rng):
    obs = polchinski_functional(0.5, nlqm.sigma3, (2, 2), variant="purity-weighted", eps=0.3)
    z = _rand(rng, 4)
    q, _ = np.linalg.qr(_rand(rng, (2, 2)).reshape(2, 2))
    rotated = nlqm.rotate_subsystem(z, (2, 2), q, slot=0)
    assert obs.value(rotated) == pytest.approx(obs.value(z), rel=1e-12)


def test_gradient_flow_operator_completion(rng):
    obs = polchinski_functional(0.5, nlqm.sigma3, (2, 2), variant="purity-weighted", eps=0.3)
    flowop = gradient_flow_operator(obs)
    z = _rand(rng, 4)
    m = flowop(z)
    npt.assert_allclose(m, m.conj().T, atol=1e-12)
    npt.assert_allclose(m @ z, np.asarray(obs.analytic_gradient(z)), atol=1e-12)
    assert abs(np.vdot(z, m @ z).real - obs.value(z)) < 1e-10


# ---------------------------------------------------------------------------
# Telegraphs


def test_gisin_telegraph_frequency_and_amplitude():
    rep = gisin_telegraph(ALPHA, BETA, 0.1, t_end=40.0, dt=0.05)
    assert rep.predicted_frequency == pytest.approx(0.2, abs=1e-14)
    assert rep.fitted_frequency == pytest.approx(0.2, abs=1e-8)
    assert rep.fitted_amplitude == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-8)
    # pointwise closed form, sign included
    ideal = np.sqrt(3.0) / 2.0 * np.sin(0.2 * rep.times)
    assert np.max(np.abs(rep.signal - ideal)) < 1e-7


def test_gisin_telegraph_is_silent_for_the_plain_singlet():
    rep = gisin_telegraph(1.0, 0.0, 0.1, t_end=20.0, dt=0.05)
    assert rep.predicted_amplitude == 0.0
    assert np.max(np.abs(rep.signal)) < 1e-10


def test_gisin_telegraph_validates_the_preparation():
    with pytest.raises(ValidationError):
        gisin_telegraph(1.0, 0.5, 0.1, 1.0, 0.1)


def test_mobility_telegraph_frequency_and_amplitude():
    rep = mobility_telegraph(0.1, np.pi / 8.0, t_end=40.0, dt=0.05)
    assert rep.predicted_frequency == pytest.approx(0.4 / np.sqrt(2.0), abs=1e-14)
    assert rep.fitted_frequency == pytest.approx(0.4 / np.sqrt(2.0), abs=1e-8)
    assert rep.fitted_amplitude == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_mobility_telegraph_silent_in_the_eigenframe():
    rep = mobility_telegraph(0.1, 0.0, t_end=20.0, dt=0.05)
    assert np.max(np.abs(rep.signal)) < 1e-10


# ---------------------------------------------------------------------------
# No-signaling comparison


def test_moment_extensions_hide_the_remote_rotation():
    u = np.array([[ALPHA, -BETA], [BETA, ALPHA]], dtype=complex)
    for desc in ("polchinski-plain", "polchinski-purity"):
        rep = no_signaling_check(desc, u, t_end=5.0, dt=0.01, eps=0.3, e2=0.5)
        assert rep.max_deviation < 1e-9, desc


def test_slice_sum_extension_shows_the_remote_rotation():
    u = np.array([[ALPHA, -BETA], [BETA, ALPHA]], dtype=complex)
    rep = no_signaling_check("weinberg", u, t_end=5.0, dt=0.01, eps=0.3, e2=0.5)
    assert rep.max_deviation > 0.1
    assert rep.deviations[0] < 1e-12  # identical reduced states at t = 0


@pytest.mark.parametrize("desc", ("weinberg", "polchinski-plain", "polchinski-purity"))
def test_no_signaling_integrates_the_pair_as_one_stack(desc, monkeypatch):
    calls = []

    def counted(builder, psi0, *args, **kwargs):
        traj = nlqm.integrate_nls(builder, psi0, *args, **kwargs)
        calls.append(np.shape(psi0))
        alone = [nlqm.integrate_nls(builder, z, *args, **kwargs) for z in psi0]
        for b, a in enumerate(alone):
            npt.assert_allclose(traj.amplitudes()[:, b], a.amplitudes(), rtol=0, atol=1e-14)
        return traj

    monkeypatch.setattr(nlqm.composite, "integrate_nls", counted)
    u = np.array([[ALPHA, -BETA], [BETA, ALPHA]], dtype=complex)
    rep = no_signaling_check(desc, u, t_end=1.0, dt=0.01, eps=0.3, e2=0.5)
    assert calls == [(2, 4)]
    assert rep.times.shape == rep.deviations.shape == (101,)


def test_purity_weighted_functional_takes_stacks(rng):
    obs = polchinski_functional(0.5, nlqm.sigma3, (2, 2), variant="purity-weighted", eps=0.3)
    zs = _rand(rng, 12).reshape(3, 4)
    npt.assert_allclose(obs.value(zs), [obs.value(z) for z in zs], rtol=1e-14)
    npt.assert_allclose(wirtinger_gradient(obs, zs), [obs.analytic_gradient(z) for z in zs],
                        rtol=0, atol=1e-14)


def test_no_signaling_rejects_unknown_description():
    with pytest.raises(ValidationError):
        no_signaling_check("telepathy", np.eye(2), 1.0, 0.1, eps=0.1)


# ---------------------------------------------------------------------------
# Reduced flows and mixtures


def test_reduced_flow_rate_ratio_is_the_purity():
    delta = 1e-5
    rho0 = np.diag([0.75, 0.25]).astype(complex) + delta * nlqm.sigma1
    epshat = np.diag([1.0, -1.0]).astype(complex)
    rates = {}
    for variant in ("plain", "purity-weighted"):
        tr = polchinski_reduced_flow(variant, epshat, rho0, t_end=4.0, dt=0.004)
        rates[variant] = tr.offdiagonal_phase_rate()
    # plain: phase velocity -2 c (eps_1 - eps_2) with c = Tr(rho eps)/Tr(rho) = 1/2
    assert rates["plain"] == pytest.approx(-2.0, abs=1e-6)
    purity = float(np.trace(rho0 @ rho0).real) / float(np.trace(rho0).real) ** 2
    assert rates["purity-weighted"] / rates["plain"] == pytest.approx(purity, abs=1e-6)


def test_reduced_flow_variants_agree_on_pure_states():
    # (1,1)/sqrt(2): every rho0 entry is exactly 0.5, so the purity weight is
    # exactly 1 and the two variants integrate the very same field
    phi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho0 = np.outer(phi, phi.conj())
    epshat = np.diag([1.0, -1.0]).astype(complex)
    a = polchinski_reduced_flow("plain", epshat, rho0, t_end=4.0, dt=0.004)
    b = polchinski_reduced_flow("purity-weighted", epshat, rho0, t_end=4.0, dt=0.004)
    assert np.max(np.abs(a.rhos - b.rhos)) < 1e-10
    # a generic pure state agrees up to coefficient round-off accumulation
    phi = np.array([np.sqrt(3.0) / 2.0, 0.5])
    rho0 = np.outer(phi, phi.conj())
    a = polchinski_reduced_flow("plain", epshat, rho0, t_end=4.0, dt=0.004)
    b = polchinski_reduced_flow("purity-weighted", epshat, rho0, t_end=4.0, dt=0.004)
    assert np.max(np.abs(a.rhos - b.rhos)) < 1e-8


def test_reduced_flow_conserves_its_invariants():
    rho0 = np.diag([0.6, 0.4]).astype(complex) + 0.1 * nlqm.sigma1
    tr = polchinski_reduced_flow("plain", nlqm.sigma3, rho0, t_end=5.0, dt=0.005)
    traces = np.einsum("tkk->t", tr.rhos).real
    npt.assert_allclose(traces, 1.0, atol=1e-9)
    purities = np.einsum("tkl,tlk->t", tr.rhos, tr.rhos).real
    npt.assert_allclose(purities, purities[0], atol=1e-9)


@pytest.mark.parametrize("rho0, message", [
    (np.zeros((2, 2)), "trace must be real and positive"),
    ([[1.0, 2.0], [0.0, 1.0]], "not Hermitian"),
    (np.diag([1.5, -0.5]), "not positive"),
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
    ([0.5, 0.5], "must be square"),
    (np.eye(3) / 3.0, "equal size"),
])
def test_reduced_flow_refuses_an_invalid_rho0(rho0, message):
    with pytest.raises(ValidationError, match=message):
        polchinski_reduced_flow("plain", np.diag([1.0, -1.0]), rho0, 1.0, 0.01)


def test_reduced_flow_reports_the_first_broken_invariant():
    # dt = 0.2 is too coarse: the purity leaves its 1e-9 budget at the first step
    with pytest.raises(IntegrationError,
                       match=r"failed to conserve purity at t = 0\.2 "):
        polchinski_reduced_flow("plain", np.diag([1.0, -1.0]),
                                [[0.75, 0.2], [0.2, 0.25]], 20.0, 0.2)


@pytest.mark.parametrize("variant", ("plain", "purity-weighted"))
def test_reduced_flow_reports_a_vanishing_stage_trace_as_a_blow_up(variant):
    # the second stage's argument has entries near 1e18 and a trace that
    # cancels to exactly 0: the quotient by it is a stage error, not a
    # ZeroDivisionError
    eh = 1e10 * np.array([[1.0, 1.0 + 1.0j], [1.0 - 1.0j, -1.0]])
    rho0 = np.array([[0.7, 0.4], [0.4, 0.3]])
    with pytest.raises(IntegrationError, match=r"solution blew up at t = 0\.01$"):
        polchinski_reduced_flow(variant, eh, rho0, 1.0, 0.01)


def test_intention_paradox_scaling_with_the_mixture_weight():
    """Final sigma3 = (l2/2) cos(2 l2 f t): the identity part sets the clock."""
    t_end = 0.5 * np.pi  # 2 f t = pi
    for l2 in (0.0, 0.5, 1.0):
        rep = intention_paradox(1.0 - l2, l2, 1.0, t_end, dt=0.001)
        assert rep.analytic_gap < 1e-8
        assert rep.duality_gap < 1e-8
        assert rep.x_value == pytest.approx(l2 / 2.0, abs=1e-12)
        assert rep.sigma3_final == pytest.approx(0.5 * l2 * np.cos(l2 * np.pi), abs=1e-8)
    # l2 = 1 flips the initial sigma3 component exactly
    rep = intention_paradox(0.0, 1.0, 1.0, t_end, dt=0.001)
    assert rep.sigma3_final == pytest.approx(-0.5, abs=1e-8)


def test_intention_paradox_rejects_bad_weights():
    with pytest.raises(ValidationError):
        intention_paradox(0.7, 0.7, 1.0, 1.0, dt=0.01)


def test_intention_paradox_reports_the_sigma1_drift():
    # one step of dt = 1 at rate 2 l2 f = 6 breaks the sigma1 constant of motion
    with pytest.raises(IntegrationError, match=r"sigma1 average drifted at t = 10;"):
        intention_paradox(0.0, 1.0, 3.0, 10.0, 1.0)


def test_stacked_mixture_flows_match_their_members_bit_for_bit():
    # per-member variant, epshat and rho0; per-member weights and f
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    rho0 = a @ np.swapaxes(a, 1, 2).conj()
    rho0 /= np.trace(rho0, axis1=1, axis2=2)[:, None, None]
    eh = np.stack([np.diag(rng.uniform(-0.4, 0.4, 3)) for _ in range(3)])
    variants = ["plain", "purity-weighted", "purity-weighted"]
    stack = polchinski_reduced_flow(variants, eh, rho0, 1.0, 0.01)
    assert stack.rhos.shape == (101, 3, 3, 3)
    with pytest.raises(ValidationError, match="fit one flow of a stack"):
        stack.offdiagonal_phase_rate()
    for b in range(3):
        alone = polchinski_reduced_flow(variants[b], eh[b], rho0[b], 1.0, 0.01)
        assert alone.rhos.shape == (101, 3, 3)
        assert np.array_equal(stack.rhos[:, b], alone.rhos)
    l1, l2, f = [0.0, 0.3, 0.8], [1.0, 0.7, 0.2], [1.0, 0.5, 2.0]
    stack = intention_paradox(l1, l2, f, 0.5, 0.01)
    assert stack.sigma3_series.shape == (51, 3)
    for b in range(3):
        alone = intention_paradox(l1[b], l2[b], f[b], 0.5, 0.01)
        assert isinstance(alone.analytic_gap, float) and alone.sigma3_series.shape == (51,)
        for name in ("sigma3_series", "sigma3_predicted_series", "x_value", "analytic_gap",
                     "duality_gap", "sigma3_final", "sigma3_predicted"):
            assert np.array_equal(getattr(stack, name)[..., b], getattr(alone, name)), name


def test_a_stacked_mixture_flow_names_the_row_that_breaks_its_monitor():
    # levels of +-3 turn too fast for dt = 0.01: as a plain flow, row 2 breaks
    # the purity invariant at t = 0.18, as it does alone, where no row is named
    rho0 = np.array([[0.75, 0.01], [0.01, 0.25]])
    eh = np.stack([np.diag([1.0, -1.0])] * 2 + [np.diag([3.0, -3.0])])
    variants = ["purity-weighted", "plain", "plain"]
    with pytest.raises(IntegrationError) as alone:
        polchinski_reduced_flow("plain", eh[2], rho0, 5.0, 0.01)
    assert str(alone.value).startswith("reduced flow failed to conserve purity at t = 0.18 (")
    with pytest.raises(IntegrationError) as stacked:
        polchinski_reduced_flow(variants, eh, np.stack([rho0] * 3), 5.0, 0.01)
    assert str(stacked.value) == str(alone.value).replace(" (", " in row 2 (", 1)
    # purity-weighted, the same member breaks it at t = 2.89, past the first block
    with pytest.raises(IntegrationError) as alone:
        polchinski_reduced_flow("purity-weighted", eh[2], rho0, 5.0, 0.01)
    assert str(alone.value).startswith("reduced flow failed to conserve purity at t = 2.89 (")
    with pytest.raises(IntegrationError) as stacked:
        polchinski_reduced_flow(["plain", "purity-weighted"], eh[1:], np.stack([rho0] * 2), 5.0,
                                0.01)
    assert str(stacked.value) == str(alone.value).replace(" (", " in row 1 (", 1)
    with pytest.raises(IntegrationError, match=r"^sigma1 average drifted at t = 0\.1; "):
        intention_paradox(0.0, 1.0, 300.0, 0.5, 0.01)
    with pytest.raises(IntegrationError,
                       match=r"^sigma1 average drifted at t = 0\.1 in row 1; reduce dt$"):
        intention_paradox([0.5, 0.0, 0.5], [0.5, 1.0, 0.5], [1.0, 300.0, 1.0], 0.5, 0.01)


def test_a_reduced_flow_violation_carries_its_time_and_row():
    rho0 = np.array([[0.75, 0.01], [0.01, 0.25]])
    eh = np.stack([np.diag([1.0, -1.0]), np.diag([3.0, -3.0])])
    for args, row in ((("plain", eh[1], rho0), None),
                      ((["plain"] * 2, eh, np.stack([rho0] * 2)), 1)):
        with pytest.raises(IntegrationError, match=r"conserve purity at t = 0\.18 ") as err:
            polchinski_reduced_flow(*args, 5.0, 0.01)
        assert err.value.t == pytest.approx(0.18, abs=1e-12) and err.value.row == row


def test_a_sigma1_drift_carries_its_time_and_row():
    for args, row in (((0.0, 1.0, 300.0), None),
                      (([0.5, 0.0, 0.5], [0.5, 1.0, 0.5], [1.0, 300.0, 1.0]), 1)):
        with pytest.raises(IntegrationError, match=r"^sigma1 average drifted at t = 0\.1") as err:
            intention_paradox(*args, 0.5, 0.01)
        assert err.value.t == pytest.approx(0.1, abs=1e-12) and err.value.row == row


def test_stacked_mixture_flows_refuse_mismatched_members():
    rho0 = np.stack([np.diag([0.75, 0.25])] * 2)
    with pytest.raises(ValidationError, match="need one variant or 2, got 3"):
        polchinski_reduced_flow(["plain"] * 3, nlqm.sigma3, rho0, 1.0, 0.01)
    with pytest.raises(ValidationError, match="unknown variant 'other'"):
        polchinski_reduced_flow(["plain", "other"], nlqm.sigma3, rho0, 1.0, 0.01)
    with pytest.raises(ValidationError, match="square matrices of equal size"):
        polchinski_reduced_flow("plain", np.stack([nlqm.sigma3] * 3), rho0, 1.0, 0.01)
    with pytest.raises(ValidationError, match="must be >= 0 and sum to 1"):
        intention_paradox([0.5, 0.7], [0.5, 0.7], 1.0, 1.0, 0.01)
    with pytest.raises(ValidationError, match="numbers or sequences of one length"):
        intention_paradox([[0.5]], [[0.5]], 1.0, 1.0, 0.01)


def _landing_on(bad):
    """A stand-in for ``composite._rk4`` whose first step lands on ``bad``:
    its monitor sees the start, ``bad``, then the start again.  A one-member
    call integrates a one-row stack, so ``bad`` takes the shape of ``y0``."""
    def rk4(rhs, y0, times, dt, *, on_block):
        samples = np.stack([y0, bad.reshape(y0.shape)] + [y0] * (times.size - 2))
        samples.flags.writeable = False
        on_block(0, times.size, samples)
        return samples
    return rk4


def test_mixture_monitors_count_a_non_finite_invariant_as_broken(monkeypatch):
    # a finite sample whose first broken invariant is nan (2e308 - 2e308 in
    # the epshat average with the trace kept, 0/0 in the sigma1 average): it
    # is the one reported, and no RuntimeWarning is raised on the way
    eh = np.diag([2.0, 2.0, 0.0])
    rho0 = np.diag([0.5, 0.3, 0.2]) + 0j
    bad = np.diag([1e308, -1e308, 1.0]) + 0j
    monkeypatch.setattr(nlqm.composite, "_rk4", _landing_on(bad))
    with pytest.raises(IntegrationError,
                       match=r"conserve epshat average at t = 0\.01 \(.* -> nan\); reduce dt"):
        polchinski_reduced_flow("plain", eh, rho0, 0.05, 0.01)
    monkeypatch.setattr(nlqm.composite, "_rk4", _landing_on(np.diag([0.5, -0.5]) + 0j))
    with pytest.raises(IntegrationError, match=r"sigma1 average drifted at t = 0\.01;"):
        intention_paradox(0.5, 0.5, 1.0, 0.05, 0.01)
