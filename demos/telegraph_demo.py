"""Remote-preparation telegraphs and the no-signaling ledger.

A distant measurement choice picks which mixture the local qubit is prepared
in.  Under ordinary quantum mechanics the two mixtures share a density matrix
and evolve identically.  The slice-sum pair extension makes them beat against
each other: the local sigma_2 average swings at frequency 4*eps*X.  The
moment extensions keep every mixture with the same rho on the same orbit.
"""
import numpy as np

from nlqm import composite

ALPHA, BETA = np.sqrt(3.0) / 2.0, 0.5

# --- the telegraph itself ---------------------------------------------------
rep = composite.gisin_telegraph(ALPHA, BETA, 0.1, 40.0, 0.05)
print("slice-sum pair extension, eps=0.1, alpha=sqrt(3)/2, beta=1/2")
print(f"  predicted signal:  amplitude {rep.predicted_amplitude:.6f},"
      f" frequency {rep.predicted_frequency:.6f}")
print(f"  fitted from data:  amplitude {rep.fitted_amplitude:.6f},"
      f" frequency {rep.fitted_frequency:.6f}")

plain = composite.gisin_telegraph(1.0, 0.0, 0.1, 40.0, 0.05)
print(f"  plain singlet (alpha=1): max |signal| = "
      f"{np.max(np.abs(plain.signal)):.2e}  — silent, as it must be")

# --- who signals, who does not ---------------------------------------------
print("\nremote rotation test, eps=0.3, e2=0.5, t_end=5:")
u = np.array([[ALPHA, -BETA], [BETA, ALPHA]], dtype=complex)
for desc in ("polchinski-plain", "polchinski-purity", "weinberg"):
    chk = composite.no_signaling_check(desc, u, 5.0, 0.01, eps=0.3, e2=0.5)
    verdict = "signals" if chk.max_deviation > 1e-2 else "silent"
    print(f"  {desc:18s} max deviation {chk.max_deviation:.3e}   -> {verdict}")
print("functions of rho alone cannot signal; the pair extension is not one")
