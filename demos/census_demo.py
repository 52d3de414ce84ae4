"""Walk the eigenstate census of the two-level moment families.

Strong coupling keeps three distinct stationary states; weak coupling loses
the interior one and only the poles survive.  For the even-power family the
interior state appears only past a finite coupling threshold, which we pin
down by bisection.
"""
import numpy as np

from nlqm import canonical, power_family, find_eigenstates

# --- canonical family, strong coupling -------------------------------------
print("canonical family  e1=0 e2=1 eps=1")
diag = {}
for rec in find_eigenstates(canonical(0.0, 1.0, 1.0), 2, diagnostics=diag):
    w = np.abs(rec.state) ** 2
    print(f"  lambda = {rec.eigenvalue:+.6f}   weights = ({w[0]:.4f}, {w[1]:.4f})"
          f"   residual = {rec.residual:.2e}")
print(f"  ({diag['seeds']} seeds, {diag['converged']} converged,"
      f" {diag['distinct']} distinct)")

# --- same family, weak coupling --------------------------------------------
print("\ncanonical family  e1=0 e2=1 eps=0.2")
for rec in find_eigenstates(canonical(0.0, 1.0, 0.2), 2):
    w = np.abs(rec.state) ** 2
    print(f"  lambda = {rec.eigenvalue:+.6f}   weights = ({w[0]:.4f}, {w[1]:.4f})")
print("  the interior state is gone; only the poles survive")

# --- even-power family: find the threshold by bisection ---------------------
# With power=2N the interior state exists only for |eps| above a threshold.
# Bracket it by counting census states, then bisect.


def count(eps):
    return len(find_eigenstates(power_family(0.0, 1.0, eps, power=4), 2,
                                grid=(16, 8)))


lo, hi = 0.05, 0.3
assert count(lo) == 2 and count(hi) == 3
while hi - lo > 1e-7:
    mid = 0.5 * (lo + hi)
    if count(mid) == 3:
        hi = mid
    else:
        lo = mid
print(f"\neven-power N=2 threshold: eps* = {0.5 * (lo + hi):.7f}  (exact 1/8)")
