"""Stacked kernels are bit for bit their one-state twins, at scale.

Every stack that ``nlqm run`` integrates rests on the per-row contract of
:func:`nlqm.dynamics.integrate_nls`: row b of a stack of per-row parameters
gets, bit for bit, what its member's own call gives.  Each test draws seeded
random rows, evaluates one stacked kernel (a flow's gradient, or a mixture
flow's right-hand side) on all B rows and on a leading part of them, as rows
leave a stack at their horizons, and compares the raw words of every row with
the member's twin: a one-state call, or a one-member stack where the solo run
is one.  libm's square and a product round apart in about 1 square in
1,160, so a change that swaps them on a path shows in the 12,000 slice
squares of each slice-sum test.
"""

import numpy as np
import pytest

import nlqm
from nlqm import AtomFieldParams, bilinear, build_atom_field, moment_power, weinberg_composite
from nlqm.composite import _pair_total


def _differing(got, want):
    """The indices of the rows whose IEEE words differ (-0.0 and 0.0 too)."""
    words = lambda a: np.ascontiguousarray(a).view(float).view(np.uint64)
    got, want = words(got), words(want)
    assert got.shape == want.shape
    return np.flatnonzero((got != want).reshape(len(got), -1).any(axis=1))


def _check_rows(stacked, twins, z, lead: int, r: int = 1):
    """``stacked`` on all rows of ``z`` and on its leading ``lead``, against
    ``twins``, one callable a member of ``r`` consecutive rows (a one-state
    call when r = 1, else one on the member's ``(r, d)`` stack)."""
    parts = z if r == 1 else z.reshape((-1, r) + z.shape[1:])
    want = np.stack([twin(x) for twin, x in zip(twins, parts)]).reshape(z.shape)
    for k in (len(z), lead):
        assert list(_differing(stacked(z[:k]), want[:k])) == []


def _random_states(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _pool(rng, n: int, rows: int):
    """Which of ``n`` distinct parameter sets each of ``rows`` rows takes: a
    twin is built once a set, and a stack of many rows stays cheap to check."""
    return rng.integers(n, size=rows)


@pytest.mark.parametrize("description", ["linear", "polchinski", "weinberg-fock"])
def test_atom_rows_keep_the_gradient_bits_of_their_own_model(description, rng):
    # three levels and ten Fock layers: a weinberg-fock row is ten slices
    models = [AtomFieldParams(omega_levels=(0.0, 1.0 + x[0], 2.0 + x[1]),
                              eps_levels=tuple(x[2:5]), omega=1.0 + x[5], q=x[6] + 1j * x[7],
                              n_max=9)
              for x in rng.normal(scale=0.3, size=(20, 8))]
    pick = _pool(rng, 20, 120)
    obs = build_atom_field(description, [models[i] for i in pick]).observable
    alone = [build_atom_field(description, m).observable.analytic_gradient for m in models]
    _check_rows(obs.analytic_gradient, [alone[i] for i in pick],
                _random_states(rng, (120, 30)), lead=43)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("description", ["weinberg", "polchinski-plain", "polchinski-purity"])
def test_pair_rows_keep_the_gradient_bits_of_their_member(description, r, rng):
    # r rows a member: one for a telegraph, whose solo run is one state, the
    # singlet and its rotated copy for a no-signaling check; each member with
    # its own e1, e2 and eps.  No run integrates a moment functional one row
    # a member: its rows keep the bits of the one-value call on a stack (a
    # one-state call takes numpy-scalar powers, and its gradient differs in
    # the last bit in about 1 row in 18 for the purity-weighted form and 1 in
    # 3,000 for the plain one)
    e1, e2, eps = rng.normal(size=(3, 20))
    pick = _pool(rng, 20, 400)
    rows = np.repeat(pick, r)
    total = _pair_total(description, e1[rows], e2[rows], eps[rows])
    alone = [_pair_total(description, float(a), float(b), float(c)).analytic_gradient
             for a, b, c in zip(e1, e2, eps)]
    if r == 1 and description != "weinberg":
        alone = [lambda x, g=g: g(x[None])[0] for g in alone]
    _check_rows(total.analytic_gradient, [alone[i] for i in pick],
                _random_states(rng, (400 * r, 4)), lead=r * 143, r=r)


@pytest.mark.parametrize("sub_slot", [0, 1])
def test_slice_sum_rows_keep_the_gradient_bits_of_their_own_h_sub(sub_slot, rng):
    # per-row diagonal levels and moment ladders: each row's slices square
    # as its own one-matrix composite's slice stack does.  3,000 rows of
    # four slices: a square taken by libm's pow in place of a product shows
    # in about ten of them
    levels, ladders = rng.normal(size=(2, 30, 3))
    pick = _pool(rng, 30, 3000)
    diag = lambda v: np.eye(3) * v[..., None, :]
    h_sub = bilinear(diag(levels[pick])) + moment_power(diag(ladders[pick]), 2)
    obs = weinberg_composite(h_sub, 3, 4, np.eye(4), sub_slot=sub_slot)
    alone = [weinberg_composite(bilinear(diag(a)) + moment_power(diag(b), 2), 3, 4, np.eye(4),
                                sub_slot=sub_slot).analytic_gradient
             for a, b in zip(levels, ladders)]
    _check_rows(obs.analytic_gradient, [alone[i] for i in pick],
                _random_states(rng, (3000, 12)), lead=1013)


def _rhs_of(monkeypatch, run):
    """The right-hand side that ``run()`` hands to the RK4 integrator, which
    here returns the initial state at every sample without stepping."""
    seen = []

    def hold(rhs, y0, times, dt, **kwargs):
        seen.append(rhs)
        return np.repeat(y0[None], len(times), axis=0)
    monkeypatch.setattr(nlqm.composite, "_rk4", hold)
    run()
    return seen[-1]


def _density(rng, d):
    a = _random_states(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [2, 3])
def test_reduced_flow_rows_keep_the_rhs_bits_of_their_own_flow(d, rng, monkeypatch):
    variants = list(rng.choice(["plain", "purity-weighted"], size=20))
    eps = np.stack([np.diag(rng.normal(size=d)) + 0.1 * (x + x.conj().T)
                    for x in _random_states(rng, (20, d, d))])
    rho0 = np.stack([_density(rng, d) for _ in range(20)])
    pick = _pool(rng, 20, 600)
    flow = nlqm.composite.polchinski_reduced_flow
    stacked = _rhs_of(monkeypatch, lambda: flow([variants[i] for i in pick], eps[pick],
                                                rho0[pick], 0.05, 0.01))
    alone = [_rhs_of(monkeypatch, lambda m=m: flow(variants[m], eps[m], rho0[m], 0.05, 0.01))
             for m in range(20)]
    _check_rows(stacked, [lambda r, f=alone[i]: f(r[None])[0] for i in pick],
                _random_states(rng, (600, d, d)), lead=211)


def test_paradox_rows_keep_the_rhs_bits_of_their_own_mixture(rng, monkeypatch):
    l2, f = rng.uniform(size=20), rng.normal(scale=2.0, size=20)
    l1 = 1.0 - l2
    pick = _pool(rng, 20, 600)
    paradox = nlqm.composite.intention_paradox
    stacked = _rhs_of(monkeypatch, lambda: paradox(l1[pick], l2[pick], f[pick], 0.05, 0.01))
    alone = [_rhs_of(monkeypatch, lambda m=m: paradox(l1[m], l2[m], f[m], 0.05, 0.01))
             for m in range(20)]
    _check_rows(stacked, [lambda r, t=alone[i]: t(r[None])[0] for i in pick],
                _random_states(rng, (600, 2, 2)), lead=211)
