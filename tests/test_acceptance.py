"""Acceptance gate: ten headline behaviors, one test (and one -v line) each.

Each test pins the tolerances it claims; run ``pytest tests/test_acceptance.py -v``
for the per-criterion pass/fail listing.
"""

import numpy as np

import nlqm
from nlqm import (AtomFieldParams, BlochParams, ParadoxParams, TelegraphParams,
                  build_atom_field, canonical, composite, elliptic_inversion,
                  find_eigenstates, integrate_bloch, integrate_nls,
                  inversion_trajectory, moment_probabilities, neo_hamiltonian,
                  nonlinear_operator, power_family, product_state,
                  standard_catalog, wirtinger_gradient)


def test_c01_census_of_the_canonical_family():
    """Strong coupling: exactly three stationary states at the known values;
    weak coupling: the interior one disappears."""
    recs = find_eigenstates(canonical(0.0, 1.0, 1.0), 2)
    assert len(recs) == 3
    vals = sorted(r.eigenvalue for r in recs)
    assert np.allclose(vals, [0.4375, 1.0, 2.0], rtol=0.0, atol=1e-10)
    assert all(r.residual < 1e-10 for r in recs)

    weak = find_eigenstates(canonical(0.0, 1.0, 0.2), 2)
    assert len(weak) == 2
    assert np.allclose(sorted(r.eigenvalue for r in weak), [0.2, 1.2], atol=1e-10)


def test_c02_even_power_threshold_and_interior_eigenvalue():
    """The 2N-moment family (N=2) gains its third state only past |eps| = 1/8;
    the interior eigenvalue obeys the closed form."""
    N = 2

    def count(eps):
        return len(find_eigenstates(power_family(0.0, 1.0, eps, power=2 * N),
                                    2, grid=(16, 8)))

    assert count(0.05) == 2 and count(-0.05) == 2
    assert count(0.3) == 3 and count(-0.2) == 3

    lo, hi = 0.05, 0.3
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if count(mid) == 3 else (mid, hi)
    assert abs(0.5 * (lo + hi) - 0.125) < 1e-6

    eps = 0.2
    recs = find_eigenstates(power_family(0.0, 1.0, eps, power=2 * N), 2)
    interior = [r.eigenvalue for r in recs
                if min(abs(r.eigenvalue - eps), abs(r.eigenvalue - 1 - eps)) > 1e-6]
    assert len(interior) == 1
    e0 = 0.5 + eps * (1 - 2 * N) * (1.0 / (4 * N * eps)) ** (2 * N / (2 * N - 1))
    assert abs(interior[0] - e0) < 1e-10


def test_c03_two_probability_rules_disagree():
    """For the degenerate family both moment rules reproduce their closed
    forms yet assign different outcome probabilities."""
    e, eps, th = 1.0, 0.1, np.pi / 8.0
    z = np.array([np.cos(th), np.sin(th)], dtype=complex)
    mp = moment_probabilities(canonical(e, e, eps), z, "first-moment")
    s2 = np.cos(2 * th) ** 2
    cf_first = s2
    cf_star = ((4 * eps ** 2 + 2 * e * eps) * s2
               - 3 * eps ** 2 * s2 ** 2) / (2 * e * eps + eps ** 2)
    assert abs(mp.probabilities[1] - cf_first) < 1e-12
    assert abs(mp.other_probabilities[1] - cf_star) < 1e-12
    assert mp.discrepancy > 0.01
    assert abs(mp.discrepancy - 1.0 / 28.0) < 1e-12


def test_c04_gisin_telegraph_signal():
    """The slice-sum pair extension turns the remote mixture choice into a
    local sine at frequency 4*eps*X with amplitude 2*Re(conj(alpha)*beta)."""
    alpha, beta, eps = np.sqrt(3.0) / 2.0, 0.5, 0.1
    rep = composite.gisin_telegraph(
        TelegraphParams(alpha=alpha, beta=beta, eps=eps), 10.0 * np.pi, 0.05)
    predicted = 2.0 * np.real(np.conj(alpha) * beta) * np.sin(
        rep.predicted_frequency * rep.times)
    assert np.max(np.abs(rep.signal - predicted)) < 1e-6
    assert abs(rep.fitted_amplitude - np.sqrt(3.0) / 2.0) < 1e-4


def test_c05_no_signaling_ledger():
    """Moment extensions keep the remote rotation invisible; the slice-sum
    pair extension leaks it."""
    u = np.array([[np.sqrt(3.0) / 2.0, -0.5], [0.5, np.sqrt(3.0) / 2.0]],
                 dtype=complex)
    silent_a = composite.no_signaling_check("polchinski-plain", u, 5.0, 0.01,
                                            eps=0.3, e2=0.5)
    silent_b = composite.no_signaling_check("polchinski-purity", u, 5.0, 0.01,
                                            eps=0.3, e2=0.5)
    loud = composite.no_signaling_check("weinberg", u, 5.0, 0.01,
                                        eps=0.3, e2=0.5)
    assert silent_a.max_deviation < 1e-9
    assert silent_b.max_deviation < 1e-9
    assert loud.max_deviation > 0.1


def test_c06_reduced_flow_rate_ratio():
    """Purity weighting slows the reduced rotation by Tr(rho^2)/(Tr rho)^2 for
    a mixed state and is invisible for a pure one."""
    eh = np.diag([1.0, -1.0]).astype(complex)
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 1e-5
    plain = composite.polchinski_reduced_flow("plain", eh, rho0, 4.0, 0.004)
    purity = composite.polchinski_reduced_flow("purity-weighted", eh, rho0,
                                               4.0, 0.004)
    ratio = purity.offdiagonal_phase_rate() / plain.offdiagonal_phase_rate()
    assert abs(ratio - 0.625) < 1e-6

    psi = np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)
    pure = np.outer(psi, psi.conj())
    a = composite.polchinski_reduced_flow("plain", eh, pure, 1.0, 0.001)
    b = composite.polchinski_reduced_flow("purity-weighted", eh, pure, 1.0, 0.001)
    assert np.max(np.abs(a.rhos - b.rhos)) < 1e-10


def _atom_run(description, eps0, t_end, photons=1):
    params = AtomFieldParams(omega_levels=(0.0, 1.0),
                             eps_levels=(-eps0 / 2.0, eps0 / 2.0),
                             omega=1.0, q=1.0, n_max=6)
    traj = inversion_trajectory(build_atom_field(description, params),
                                product_state(params, 0, photons), t_end, 0.005)
    return params, traj


def test_c07_elliptic_inversion_regimes():
    """On resonance the moment-extended atom inverts as -cn, -sech or -dn
    depending on varsigma, and the eps=0 limit restores the Rabi cosine."""
    for varsigma, t_end in ((0.5, 26.99), (1.0, 10.0), (2.0, 6.74)):
        params, traj = _atom_run("polchinski", np.sqrt(2.0 * varsigma), t_end)
        closed = elliptic_inversion(params.rabi(0.5), varsigma, traj.times)
        assert np.max(np.abs(traj.w - closed)) < 1e-4
        assert traj.leak == 0.0

    _params, traj = _atom_run("polchinski", 0.0, 10.0)
    assert np.max(np.abs(traj.w - (-np.cos(traj.times)))) < 1e-7


def test_c08_composite_lifts_disagree():
    """The slice-summed lift keeps the exact Rabi cosine at any coupling while
    the moment lift departs from it."""
    t_end = 4.0 * np.pi
    for eps0 in (0.25, 0.5, 1.0):
        _p, traj = _atom_run("weinberg-fock", eps0, t_end)
        assert np.max(np.abs(traj.w - (-np.cos(traj.times)))) < 1e-8
    _p, wf = _atom_run("weinberg-fock", 0.5, t_end)
    _p, po = _atom_run("polchinski", 0.5, t_end)
    assert np.max(np.abs(po.w - wf.w)) > 0.01


def test_c09_intention_paradox_scaling():
    """At 2 f t = pi the mixture weight sets the outcome: lambda2 = 0, 1/2, 1
    leaves sigma3 unchanged, zeroed, flipped."""
    for lam2 in (0.0, 0.5, 1.0):
        rep = composite.intention_paradox(
            ParadoxParams(lambda1=1.0 - lam2, lambda2=lam2,
                          f=1.0, t=np.pi / 2.0), 0.001)
        assert rep.analytic_gap < 1e-8
        assert rep.duality_gap < 1e-8
        predicted = 0.5 * lam2 * np.cos(lam2 * np.pi)
        assert abs(rep.sigma3_final - predicted) < 1e-8
        assert abs(rep.sigma3_series[0] - 0.5 * lam2) < 1e-12


def test_c10_structural_property_sweep():
    """Homogeneity and the gradient identity across the catalog, conservation
    under the wave flow, and the three Bloch-level closed-form checks."""
    rng = np.random.default_rng(20240822)

    def states(dim, count):
        z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        return z

    for obs, domain in standard_catalog():
        dim = 4 if ("pair" in obs.label or "slice-sum" in obs.label) else 2
        zs = states(dim, 200)
        if domain == "away-from-sigma3-kernel":
            m3 = np.abs(zs[:, 0]) ** 2 - np.abs(zs[:, 1]) ** 2
            n = np.sum(np.abs(zs) ** 2, axis=1)
            zs = zs[np.abs(m3) > 0.05 * n]
        for z in zs:
            a = obs.value(z)
            scale = complex(rng.normal(), rng.normal())
            if abs(scale) < 0.1:
                scale += 0.5
            denom = max(1.0, abs(a))
            assert abs(obs.value(scale * z) - abs(scale) ** 2 * a) / (
                abs(scale) ** 2 * denom) < 1e-8
            grad = wirtinger_gradient(obs, z)
            assert abs(np.vdot(grad, z).conjugate() - a) / denom < 1e-8

    obs = canonical(0.0, 1.0, 1.0)
    traj = integrate_nls(lambda z: nonlinear_operator(obs, z),
                         np.array([0.8, 0.6j]), t_end=10.0, dt=0.001)
    norms, hvalues = traj.recorded["norm"], traj.recorded["hvalue"]
    assert np.max(np.abs(norms - norms[0])) < 1e-7
    assert np.max(np.abs(hvalues - hvalues[0])) < 1e-7

    for mode in (False, True):
        p = BlochParams(delta=0.2, omega=1.0, a=0.0, eps=0.3, rotating_frame=mode)
        tr = integrate_bloch(p, [0.6, 0.0, -0.8], t_end=20.0, dt=0.01)
        L = np.sum(tr.r ** 2, axis=1)
        assert np.max(np.abs(L - L[0])) < 1e-9

    p = BlochParams(delta=0.0, omega=1.0, a=0.2, eps=0.3, rotating_frame=False)
    dt = 0.01
    tr = integrate_bloch(p, [0.0, 0.0, -1.0], t_end=20.0, dt=dt)
    L = np.sum(tr.r ** 2, axis=1)
    dL = (-L[4:] + 8 * L[3:-1] - 8 * L[1:-3] + L[:-4]) / (12 * dt)
    v, w = tr.r[2:-2, 1], tr.r[2:-2, 2]
    assert np.max(np.abs(dL + 2 * p.a * w * v ** 2)) < 1e-6

    delta, omega, aa, eps = 0.3, 1.0, 0.2, 0.3
    base = 0.5 * (delta * nlqm.sigma3 - omega * nlqm.sigma1)
    psi0 = np.array([np.cos(1.1), np.sin(1.1) * np.exp(0.7j)])
    wtraj = integrate_nls(neo_hamiltonian(aa, eps, base=base), psi0,
                          t_end=20.0, dt=0.01)
    amps = wtraj.amplitudes()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    u = 2 * np.real(amps[:, 0].conj() * amps[:, 1]) / norms
    v = 2 * np.imag(amps[:, 0].conj() * amps[:, 1]) / norms
    w = (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2) / norms
    btraj = integrate_bloch(BlochParams(delta, omega, aa, eps, rotating_frame=True),
                            [u[0], v[0], w[0]], 20.0, 0.01)
    assert np.max(np.abs(np.stack([u, v, w], axis=1) - btraj.r)) < 1e-6
