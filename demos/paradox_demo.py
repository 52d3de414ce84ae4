"""Two ways a nonlinear term reads more out of rho than rho contains.

First: blending in a maximally mixed component — inert by every linear
criterion — rescales the rotation rate of the structured part, so the
mixture weight lambda_2 becomes dynamically visible.  Second: two textbook
rules for extracting outcome probabilities from moments stop agreeing as
soon as the observable is nonlinear.
"""
import numpy as np

from nlqm import composite, canonical, moment_probabilities

# --- mixture-composition dependence -----------------------------------------
print("intention paradox, f=1, t=pi/2 (so 2 f t = pi):")
for lam2, label in ((0.0, "unchanged"), (0.5, "zeroed"), (1.0, "flipped")):
    rep = composite.intention_paradox(1.0 - lam2, lam2, 1.0, np.pi / 2.0, 0.001)
    print(f"  lambda2 = {lam2:3.1f}   <sigma3> {rep.sigma3_series[0]:+.3f} ->"
          f" {rep.sigma3_final:+.3f}   ({label};"
          f" analytic gap {rep.analytic_gap:.1e})")
print("  the inert maximally-mixed admixture sets the clock of the rest:")
print("  rotation rate 2*lambda2*f depends on a weight no measurement of the")
print("  structured part alone would reveal")

# --- probability-rule inconsistency -----------------------------------------
obs = canonical(1.0, 1.0, 0.1)
z = np.array([np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)], dtype=complex)
mp = moment_probabilities(obs, z)
print("\ndegenerate family e=1, eps=0.1 at theta=pi/8:")
print(f"  first-moment rule:  p = {mp.first_moment[1]:.12f}")
print(f"  star-square rule:   p = {mp.star_square[1]:.12f}")
print(f"  discrepancy {mp.discrepancy:.3e} — one observable, two answers")
