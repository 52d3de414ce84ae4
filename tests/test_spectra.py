"""Nonlinear eigenstate census, diagonal values, frequencies, probabilities.

Census expectations are closed-form: for the quadratic two-level family with
E1=0, E2=1, eps=1 the interior eigenstate carries moduli (5/8, 3/8) and
eigenvalue 7/16; the poles give E1+eps and E2+eps.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import nlqm
from nlqm import spectra
from nlqm import (
    ContractError,
    SingularObservableError,
    ValidationError,
    bilinear,
    canonical,
    canonical_solution,
    cubic,
    diagonal_values,
    eigenfrequencies,
    find_eigenstates,
    moment_probabilities,
    power_family,
    singular_inverse,
)
from stencil import differenced


def test_census_quadratic_family_three_states():
    diag = {}
    recs = find_eigenstates(canonical(0.0, 1.0, 1.0), 2, diagnostics=diag)
    lams = sorted(r.eigenvalue for r in recs)
    npt.assert_allclose(lams, [0.4375, 1.0, 2.0], atol=1e-10)
    assert all(r.residual < 1e-10 for r in recs)
    interior = min(recs, key=lambda r: r.eigenvalue)
    weights = np.abs(interior.state) ** 2
    npt.assert_allclose(weights, [0.625, 0.375], atol=1e-9)
    assert diag["distinct"] == 3
    assert diag["seeds"] >= diag["converged"] >= 3
    # converged seeds stop early: fewer rows than every seed at every iteration
    assert 0 < diag["newton_iterations"] <= 60
    assert diag["newton_rows"] < diag["newton_iterations"] * diag["seeds"]


def test_census_quadratic_family_weak_coupling_two_states():
    recs = find_eigenstates(canonical(0.0, 1.0, 0.2), 2)
    lams = sorted(r.eigenvalue for r in recs)
    npt.assert_allclose(lams, [0.2, 1.2], atol=1e-10)


def test_census_pole_eigenvalues_shift_with_levels():
    recs = find_eigenstates(canonical(0.3, 0.9, 1.0), 2)
    lams = sorted(r.eigenvalue for r in recs)
    # poles at E_k + eps; |E2-E1| = 0.6 < 4 eps so an interior state exists too
    assert len(lams) == 3
    assert lams[1] == pytest.approx(1.3, abs=1e-10)
    assert lams[2] == pytest.approx(1.9, abs=1e-10)


def test_census_even_power_family_interior_closed_form():
    recs = find_eigenstates(power_family(0.0, 1.0, 0.2, power=4), 2)
    lams = sorted(r.eigenvalue for r in recs)
    e, n = 0.2, 2
    e0 = 0.5 + e * (1 - 2 * n) * (1.0 / (4 * n * e)) ** (2 * n / (2 * n - 1))
    npt.assert_allclose(lams, [e0, 0.2, 1.2], atol=1e-10)


def test_census_singular_family_pm_one():
    recs = find_eigenstates(singular_inverse(), 2)
    lams = sorted(r.eigenvalue for r in recs)
    npt.assert_allclose(lams, [-1.0, 1.0], atol=1e-9)
    # a one-row grid puts its seeds on <sigma3> = 0: they are dropped, not fatal
    diag = {}
    recs = find_eigenstates(singular_inverse(), 2, grid=(1, 4), diagnostics=diag)
    assert diag["seeds"] == 10
    npt.assert_allclose(sorted(r.eigenvalue for r in recs), [-1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("grid", [(-3, 16), (0, 0), (16, 0), (32,), (32, 16, 4), 32,
                                  (16.0, 8), (True, 8), (3000, 3000), (16_385, 1)])
def test_census_grid_is_validated_and_bounded(grid, monkeypatch):
    def no_seeds(*_args):
        raise AssertionError("seeds built for a rejected grid")

    monkeypatch.setattr(spectra, "_seed_states", no_seeds)
    with pytest.raises(ValidationError, match="grid"):
        find_eigenstates(canonical(0.0, 1.0, 1.0), 2, grid=grid)


def test_census_grid_at_the_cap_is_accepted(monkeypatch):
    built = []

    def one_seed(_dim, grid):
        built.append(grid)
        return np.array([[1.0, 0.0j]])

    monkeypatch.setattr(spectra, "_seed_states", one_seed)
    find_eigenstates(canonical(0.0, 1.0, 1.0), 2, grid=(spectra.MAX_SEEDS, 1))
    find_eigenstates(canonical(0.0, 1.0, 1.0), 2, grid=np.array([128, 128]))
    assert built == [(spectra.MAX_SEEDS, 1), (128, 128)]


def _full_batch_gauss_newton(z0, lam0, grad, dim, iters=60):
    """The census's Newton loop before per-seed stopping: every seed iterates
    until all are below 1e-13, and the Jacobian takes one call per probe."""
    nb = z0.shape[0]
    anchors = np.argmax(np.abs(z0), axis=1)
    x = spectra._pack(z0, lam0)
    nvar = 2 * dim + 1
    alive = np.ones(nb, dtype=bool)
    h = 1e-6
    updates = 0
    for _ in range(iters):
        f = spectra._residual_batch(x, grad, dim, anchors)
        bad = ~np.all(np.isfinite(f), axis=1)
        alive &= ~bad
        f[bad] = 0.0
        if np.max(np.max(np.abs(f), axis=1) * alive, initial=0.0) < 1e-13:
            break
        jac = np.empty((nb, f.shape[1], nvar))
        for j in range(nvar):
            e = np.zeros(nvar)
            e[j] = h
            jac[:, :, j] = (spectra._residual_batch(x + e, grad, dim, anchors)
                            - spectra._residual_batch(x - e, grad, dim, anchors)) / (2 * h)
        jac[~np.isfinite(jac)] = 0.0
        jtj = np.einsum("bij,bik->bjk", jac, jac)
        jtf = np.einsum("bij,bi->bj", jac, f)
        jtj += 1e-12 * np.eye(nvar)
        try:
            dx = np.linalg.solve(jtj, jtf[..., None])[..., 0]
        except np.linalg.LinAlgError:
            dx = np.stack([np.linalg.lstsq(jtj[i], jtf[i], rcond=None)[0]
                           for i in range(nb)])
        dx[~np.isfinite(dx).all(axis=1)] = 0.0
        x = x - dx
        updates += 1
    f = spectra._residual_batch(x, grad, dim, anchors)
    ok = alive & np.all(np.isfinite(f), axis=1) & (np.max(np.abs(f), axis=1) < 1e-10)
    return x[:, :dim] + 1j * x[:, dim:2 * dim], x[:, 2 * dim], ok, updates


# both sides of each census-sweep existence threshold
_NEWTON_FAMILIES = [
    ("canonical-weak", canonical(0.0, 1.0, 0.2)), ("canonical-strong", canonical(0.0, 1.0, 1.0)),
    ("cubic", cubic(0.0, 1.0, 0.6)), ("cubic-weak", cubic(0.0, 1.0, 0.1)),
    ("power4", power_family(0.0, 1.0, 0.2, power=4)),
    ("power4-weak", power_family(0.0, 1.0, 0.07, power=4)),
    ("singular", singular_inverse()), ("singular-negative", singular_inverse(-1.5)),
]


@pytest.mark.parametrize("obs, grid", [pytest.param(obs, (8, 4), id=name)
                                       for name, obs in _NEWTON_FAMILIES]
                         + [pytest.param(obs, (32, 16), id=name + "-32x16")
                            for name, obs in _NEWTON_FAMILIES])
def test_per_seed_newton_matches_the_full_batch_loop(obs, grid, monkeypatch):
    seeds, lam0 = spectra._batch_else_rows(lambda s: (s, obs.value(s)),
                                           spectra._seed_states(2, grid))
    grad = lambda z: nlqm.wirtinger_gradient(obs, z)
    counts = {"newton_iterations": 0, "newton_rows": 0}
    z, lam, ok, stalled = spectra._gauss_newton(seeds, lam0, grad, 2, counts)
    z_ref, lam_ref, ok_ref, updates = _full_batch_gauss_newton(seeds, lam0, grad, 2)
    npt.assert_array_equal(ok, ok_ref)
    assert ok.sum() >= 2
    # On the default grid the reference's extra iterations move some interior
    # states along their relative-phase continuum (by up to 5e-10); the moduli
    # stay put there too.
    npt.assert_allclose(np.abs(z[ok]), np.abs(z_ref[ok]), rtol=0, atol=1e-12)
    if grid == (8, 4):
        npt.assert_allclose(z[ok], z_ref[ok], rtol=0, atol=1e-12)
    npt.assert_allclose(lam[ok], lam_ref[ok], rtol=0, atol=1e-12)
    # the stall rule changes no converged row: the same loop without it
    monkeypatch.setattr(spectra, "STALL_STEP", -np.inf)
    z_all, lam_all, ok_all, none = spectra._gauss_newton(
        seeds, lam0, grad, 2, {"newton_iterations": 0, "newton_rows": 0})
    assert not none.any()
    npt.assert_array_equal(ok_all, ok)
    npt.assert_array_equal(z_all[ok], z[ok])
    npt.assert_array_equal(lam_all[ok], lam[ok])
    # stalled seeds leave the loop, so the reference's stuck seeds no longer
    # hold it open for all 60 iterations; none of them converges without the rule
    assert counts["newton_iterations"] <= updates
    if not ok_ref.all():
        assert counts["newton_iterations"] < updates
    assert stalled.sum() <= (~ok_ref).sum()
    assert not np.any(stalled & ok_ref)
    assert counts["newton_rows"] <= updates * len(seeds)


@pytest.mark.parametrize("obs, dim, grid", [
    (canonical(0.0, 1.0, 1.0), 2, (8, 4)),
    (singular_inverse(), 2, (8, 4)),
    (nlqm.weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2, np.eye(2)), 4, (32, 16)),
    (differenced(canonical(0.0, 1.0, 1.0).evaluator, "value-only canonical"), 2, (2, 2)),
], ids=["canonical", "singular", "weinberg-d4", "value-only"])
def test_record_checks_agree_batched_and_per_row(obs, dim, grid, monkeypatch):
    records_batch, rows_per_call = spectra._records_batch, []

    def spy(o, z, lam):
        rows_per_call.append(len(z))
        return records_batch(o, z, lam)

    monkeypatch.setattr(spectra, "_records_batch", spy)
    diag_batch = {}
    batch = find_eigenstates(obs, dim, grid=grid, diagnostics=diag_batch)
    assert len(rows_per_call) == 1

    def one_row_at_a_time(o, z, lam):
        if len(z) > 1:
            raise SingularObservableError("batch refused")
        return spy(o, z, lam)

    monkeypatch.setattr(spectra, "_records_batch", one_row_at_a_time)
    rows_per_call.clear()
    diag_rows = {}
    rows = find_eigenstates(obs, dim, grid=grid, diagnostics=diag_rows)
    assert rows_per_call and set(rows_per_call) == {1}
    assert diag_batch == diag_rows
    assert len(batch) == len(rows) >= 2
    for a, b in zip(batch, rows):
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-12)
        assert a.residual == pytest.approx(b.residual, abs=1e-12)
        assert isinstance(a.state, np.ndarray)
        npt.assert_allclose(a.state, b.state, rtol=0, atol=1e-12)


def _greedy_records(records):
    """The census's dedup before it ran on arrays: one greedy pass over records."""
    merged = []
    for rec in sorted(records, key=lambda r: r.eigenvalue):
        placed = False
        for k, other in enumerate(merged):
            if abs(rec.eigenvalue - other.eigenvalue) > 1e-7 * (1.0 + abs(other.eigenvalue)):
                continue
            fid = abs(np.vdot(rec.state, other.state)) ** 2
            same_ray = fid > 1.0 - spectra.DEDUP_FIDELITY
            same_moduli = np.max(np.abs(np.abs(rec.state)
                                        - np.abs(other.state))) < spectra.DEDUP_MODULI
            if same_ray or same_moduli:
                if rec.residual < other.residual:
                    merged[k] = rec
                placed = True
                break
        if not placed:
            merged.append(rec)
    merged.sort(key=lambda r: r.eigenvalue)
    return merged


@pytest.mark.parametrize("obs, dim, per_row", [
    (canonical(0.0, 1.0, 1.0), 2, False),
    (singular_inverse(), 2, False),
    (nlqm.weinberg_composite(canonical(0.0, 1.0, 0.5), 2, 2, np.eye(2)), 4, False),
    (canonical(0.0, 1.0, 1.0), 2, True),
], ids=["canonical", "singular", "weinberg-d4", "per-row"])
def test_array_dedup_gives_the_record_dedup(obs, dim, per_row, monkeypatch):
    captured = []
    checks = spectra._records_batch

    def spy(o, z, lam):
        if per_row and len(z) > 1:  # the census then checks the rows one at a time
            raise SingularObservableError("batch refused")
        captured.append(checks(o, z, lam))
        return captured[-1]

    monkeypatch.setattr(spectra, "_records_batch", spy)
    recs = find_eigenstates(obs, dim)
    assert per_row or len(captured) == 1
    lam, u, resid = (np.concatenate(c) for c in zip(*captured))
    ref = _greedy_records([spectra.EigenstateRecord(float(lam[i]), u[i],
                                                    float(resid[i])) for i in range(len(lam))])
    assert len(lam) > len(recs) == len(ref) >= 2
    for a, b in zip(recs, ref):
        assert (a.eigenvalue, a.residual) == (b.eigenvalue, b.residual)
        npt.assert_array_equal(a.state, b.state)


def test_seed_by_seed_fallback_gives_the_batch_census():
    obs = canonical(0.0, 1.0, 1.0)
    diag_ref = {}
    ref = find_eigenstates(obs, 2, grid=(8, 4), diagnostics=diag_ref)
    refused_seed = spectra._seed_states(2, (8, 4))[5]  # converges in the batch census

    def one_seed_at_a_time(z):
        # the probes of one seed are 2 nvar = 10 rows
        if z.ndim == 2 and z.shape[0] > 10:
            raise SingularObservableError("batch refused")
        return obs.analytic_gradient(z)

    def also_refusing_one_seed(z):
        if np.any(np.max(np.abs(z - refused_seed), axis=-1) < 1e-3):
            raise SingularObservableError("region refused")
        return one_seed_at_a_time(z)

    for gradient, dropped in ((one_seed_at_a_time, 0), (also_refusing_one_seed, 1)):
        fussy = replace(obs, analytic_gradient=gradient)
        diag = {}
        recs = find_eigenstates(fussy, 2, grid=(8, 4), diagnostics=diag)
        # a seed dropped inside the Newton loop still counts as seeded, not converged
        assert diag["seeds"] == diag_ref["seeds"]
        assert diag["converged"] == diag_ref["converged"] - dropped
        assert diag["dropped_nonconverged"] == diag_ref["dropped_nonconverged"] + dropped
        assert diag["distinct"] == diag_ref["distinct"]
        # one row per iteration; the refused batch attempt ran none
        assert diag["newton_rows"] == diag["newton_iterations"] > diag_ref["newton_iterations"]
        npt.assert_allclose([r.eigenvalue for r in recs], [r.eigenvalue for r in ref],
                            atol=1e-12)
        for a, b in zip(recs, ref):
            npt.assert_allclose(a.state, b.state, rtol=0, atol=1e-12)


def test_census_of_an_observable_raising_at_every_seed_is_empty():
    def nowhere(*_args):
        raise SingularObservableError("nowhere defined")

    obs = canonical(0.0, 1.0, 1.0)
    no_value = replace(obs, evaluator=nowhere, analytic_gradient=nowhere)
    no_gradient = replace(obs, analytic_gradient=nowhere)
    for fussy, seeds in ((no_value, 0), (no_gradient, 14)):
        diag = {}
        assert find_eigenstates(fussy, 2, grid=(2, 2), diagnostics=diag) == []
        assert (diag["seeds"], diag["converged"], diag["dropped_nonconverged"]) == (seeds, 0, seeds)


def test_census_of_a_one_state_observable_raises_the_shape_error():
    # np.vdot flattens the 18 seeds to one number, and a one-state gradient
    # indexes rows: neither is a seed outside the domain, so neither is dropped
    s3 = bilinear(nlqm.sigma3)
    one_value = replace(s3, evaluator=lambda z, zc: float(np.vdot(z, z).real), label="one-state")
    one_gradient = replace(s3, label="one-state",
                           analytic_gradient=lambda z: np.array([z[0], -z[1]]))
    for obs, what in ((one_value, r"values of shape \(\), not \(18,\)"),
                      (one_gradient, r"gradients of shape \(2, 2\), not \(18, 2\)")):
        with pytest.raises(ContractError, match=rf"one-state mapped states of shape "
                                                rf"\(18, 2\) to {what}"):
            find_eigenstates(obs, 2, grid=(4, 2))


def test_eigenstates_satisfy_the_defining_equation():
    for obs in (canonical(0.0, 1.0, 1.0), cubic(0.0, 1.0, 0.6)):
        for rec in find_eigenstates(obs, 2):
            z = rec.state
            g = nlqm.wirtinger_gradient(obs, z)
            assert np.max(np.abs(g - rec.eigenvalue * z)) < 1e-9


def test_each_record_state_is_a_read_only_amplitude_array():
    for obs in (canonical(0.0, 1.0, 1.0), cubic(0.0, 1.0, 0.6), singular_inverse()):
        recs = find_eigenstates(obs, 2)
        assert recs
        for rec in recs:
            assert type(rec.state) is np.ndarray and rec.state.shape == (2,)
            with pytest.raises(ValueError):
                rec.state[0] = 0.0


def test_records_fix_the_global_phase():
    # the largest-modulus entry of each record is real (to one rounding of the
    # phase multiply) and non-negative, and a global phase on the converged
    # rows leaves the records as they were
    for obs in (canonical(0.0, 1.0, 1.0), cubic(0.0, 1.0, 0.6), singular_inverse()):
        recs = find_eigenstates(obs, 2)
        u = np.array([r.state for r in recs])
        lam = np.array([r.eigenvalue for r in recs])
        pivots = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
        assert np.all(np.abs(pivots.imag) <= 1e-15 * pivots.real)
        for phase in np.exp(1j * np.array([0.3, 1.3, np.pi, -2.0])):
            lam_k, u_k, _ = spectra._records_batch(obs, u * phase, lam)
            npt.assert_array_equal(lam_k, lam)
            npt.assert_allclose(u_k, u, rtol=0, atol=1e-12)


def test_diagonal_values_at_interior_state():
    obs = canonical(0.0, 1.0, 1.0)
    z = np.array([np.sqrt(0.625), np.sqrt(0.375)])
    vals = diagonal_values(obs, z)
    assert len(vals) == 2
    assert vals == sorted(vals)
    # the operator average reproduces the functional value
    m = nlqm.nonlinear_operator(obs, z)
    assert abs(np.vdot(z, m @ z).real - obs.value(z)) < 1e-12


def test_eigenfrequencies_on_synthetic_rotation():
    t = np.linspace(0.0, 30.0, 3001)
    z0 = np.array([0.8, 0.6])
    w = np.array([0.7, -1.3])
    amps = np.array([z0 * np.exp(-1j * w * tk) for tk in t])
    traj = nlqm.Trajectory(times=t, amplitudes=amps, recorded={})
    pairs = eigenfrequencies(traj)
    freqs = [p[0] for p in pairs]
    weights = [p[1] for p in pairs]
    npt.assert_allclose(freqs, w, atol=1e-6)
    npt.assert_allclose(weights, [0.64, 0.36], atol=1e-12)


def test_eigenfrequencies_match_the_diagonal_closed_form():
    e_levels = [0.0, 1.0]
    eps_levels = [0.4, -0.4]
    z0 = np.array([0.8, 0.6j])
    t = np.linspace(0.0, 30.0, 3001)
    traj = canonical_solution(e_levels, eps_levels, z0, t)
    avg = 0.4 * 0.64 - 0.4 * 0.36
    predicted = [e + 2.0 * avg * ep - avg ** 2 for e, ep in zip(e_levels, eps_levels)]
    pairs = eigenfrequencies(traj)
    npt.assert_allclose([p[0] for p in pairs], predicted, atol=1e-6)


def test_eigenfrequencies_fourier_fallback_takes_the_dominant_tone():
    def two_tone(t_end):
        t = np.linspace(0.0, t_end, int(10 * t_end) + 1)
        comp = 0.9 * np.exp(-0.7j * t) + 0.3 * np.exp(-2.1j * t)
        return nlqm.Trajectory(times=t, amplitudes=comp[:, None])

    # the unwrapped phase is not linear, so the discrete-Fourier peak is taken
    [(omega, weight)] = eigenfrequencies(two_tone(2000.0), tol=1e-2)
    assert omega == pytest.approx(0.7, abs=2.0 * np.pi / 2000.0)
    assert weight == pytest.approx(0.9 ** 2 + 0.3 ** 2, rel=1e-3)
    with pytest.raises(ValidationError, match="frequency resolution insufficient"):
        eigenfrequencies(two_tone(20.0), tol=1e-2)


def test_empty_component_reports_zero_frequency():
    t = np.linspace(0.0, 10.0, 501)
    amps = np.array([[np.exp(-0.5j * tk), 0.0] for tk in t])
    traj = nlqm.Trajectory(times=t, amplitudes=amps, recorded={})
    pairs = eigenfrequencies(traj)
    assert pairs[0][0] == pytest.approx(0.5, abs=1e-6)
    assert pairs[1] == (0.0, 0.0)


def test_moment_probabilities_disagree_for_the_degenerate_family():
    obs = canonical(1.0, 1.0, 0.1)
    theta = np.pi / 4  # <sigma3> = cos(theta), squared 1/2
    z = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    mp = moment_probabilities(obs, z)
    npt.assert_allclose(mp.first_moment, [0.5, 0.5], rtol=0, atol=1e-12)
    npt.assert_allclose(mp.star_square, [1.0 - 0.5357142857142857, 0.5357142857142857],
                        rtol=0, atol=1e-12)
    assert mp.discrepancy == pytest.approx(abs(0.5 - 0.5357142857142857), abs=1e-12)
    # both rules agree at the poles, where the state is an eigenstate
    pole = np.array([1.0, 0.0j])
    assert moment_probabilities(obs, pole).discrepancy < 1e-12


def test_a_sum_of_observables_carries_no_family_constants():
    # the constants belong to the family power_family built; the sum is
    # another functional, so moment_probabilities refuses it
    obs = canonical(1.0, 1.0, 0.1) + bilinear(nlqm.sigma1)
    assert obs.params == {}
    with pytest.raises(ValidationError, match="two-level family"):
        moment_probabilities(obs, np.array([np.cos(0.3), np.sin(0.3)]))


def test_moment_probabilities_validation():
    with pytest.raises(ValidationError):
        moment_probabilities(canonical(0.0, 1.0, 0.1), np.array([1.0, 0.0j]))  # not degenerate
    # eps = -2E makes (E+eps)^2 = E^2: the star-square rule loses its denominator
    with pytest.raises(SingularObservableError):
        moment_probabilities(canonical(1.0, 1.0, -2.0), np.array([0.9, 0.1j]))
    # the two rules fit only even powers of at least 2, whose probabilities lie in [0, 1]
    z = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    for obs in (cubic(1.0, 1.0, 0.1), power_family(1.0, 1.0, 0.1, power=-2)):
        with pytest.raises(ValidationError, match="even power of at least 2"):
            moment_probabilities(obs, z)
    npt.assert_allclose(moment_probabilities(power_family(1.0, 1.0, 0.1, power=4), z)
                        .first_moment, [0.9375, 0.0625], rtol=1e-12)
