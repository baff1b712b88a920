"""Local-time penalization: the martingale, the penalized law, the limits.

A weight h on local time defines M_u = h-bar(L_u)*S(X_u) + H-bar(L_u)
(H-bar the integrated tail), which should have unit mean under the
unpenalized law.  Normalizing by it defines the penalized measure; under
that measure the terminal local time L_infinity has density h, and the
process after the last zero is transient upward.  Everything checked
here is Monte Carlo against closed-form or spectral predictions.
"""

import numpy as np

import levykit as lk
from levykit import penalization as pz
from levykit import spectral as sp

SEED = 5
bm = lk.brownian_spec()
b15 = lk.bessel_spec(1.5)

ind = lk.indicator_weight(1.0)    # h = uniform density on [0, 1]
tri = lk.triangular_weight(2.0)   # h = triangular density on [0, 2]

# --- unit mean of the penalization martingale -------------------------------

# The exact joint sampler for (X_u, L_u) is Brownian-only; other specs
# check the unit mean on grid paths with martingale_property_mc (see
# doob_meyer_check for the linear identity, which is debiased for every
# preset).
print("E[M_u] (exact local-time sampling, n=200000)")
for w, u in [(ind, 0.5), (ind, 2.0), (tri, 1.0)]:
    est = pz.penalized_expectation(bm, w, u, lambda pos, loc: 1.0,
                                   n=200_000, seed=SEED)
    z = (est.mean - 1.0) / est.std_error
    print(f"  {bm.name:>8} {w.name:>13} u={u:3.1f}  "
          f"mean={est.mean:.5f} (+-{est.std_error:.1e})  z={z:+.2f}")
print()

# --- the martingale evaluated on a deterministic state ----------------------

m0 = pz.martingale_value(bm, ind, x=0.0, ell=0.0)
m_big = pz.martingale_value(bm, ind, x=0.0, ell=5.0)
print(f"M at (x=0, L=0): {m0:.1f}   M once L exceeds the support: {m_big:.1f}")
print()

# --- penalized expectation vs a closed stopped form --------------------------
# E_0[M_u 1{L_u >= l}] = (1 - H(l)) P_0(tau_l <= u): once L passes l the
# weight tail is frozen and the scale part is a true martingale.

from scipy.stats import norm

ell, u = 0.5, 2.0
est = pz.penalized_expectation(bm, ind, u,
                               lambda pos, loc: (loc >= ell).astype(float),
                               n=100_000, seed=SEED)
target = (1.0 - float(ind.cdf(ell))) * 2.0 * (1.0 - norm.cdf(ell / np.sqrt(u)))
z = (est.mean - target) / est.std_error
print(f"E[M_u 1(L_u >= {ell})] at u={u}: mc={est.mean:.5f} "
      f"(+-{est.std_error:.1e})  closed={target:.5f}  z={z:+.2f}")
print()

# --- L_infinity law under the penalized measure ------------------------------
# The weighted empirical CDF of L_infinity must match H(ell) = int_0^ell h.

res = pz.linfty_law_check(bm, ind, n=100_000, seed=SEED)
gaps = np.abs(res["weighted_cdf"] - res["target_cdf"])
k = int(np.argmax(gaps))
print("L_infinity law check (brownian, indicator weight)")
print(f"  max |empirical - target| = {res['max_gap']:.5f} "
      f"at ell={res['grid'][k]:.3f} (cdf se there {res['cdf_se'][k]:.5f})")
print()

# --- how long until the martingale has converged -----------------------------
# The leftover mass P(tau_{L>support} > u) decides when penalizing by time
# u is indistinguishable from the u -> infinity limit.

info = pz.penalization_horizon(bm, ind, tol=0.01, n=100_000, seed=SEED,
                               full=True)
print(f"penalization horizon (tol 1%): u={info['u']:.0f}, "
      f"leftover={info['leftover']:.4f} (+-{info['leftover_se']:.4f})")
print()

# --- conditioned (up) transition density -------------------------------------
# The h-transform of the killed semigroup by the scale function gives the
# diffusion conditioned never to hit 0; its density must integrate to 1.

print("conditioned-to-stay-positive density: total mass")
for spec in (bm, b15):
    for t in (0.5, 2.0):
        mass = pz.uparrow_mass(spec, t)
        print(f"  {spec.name}: t={t}  integral={mass:.12f}")
print()
y, t = 0.7, 1.0
d0 = pz.uparrow_density(bm, 0.0, y, t)
exact = np.exp(-y * y / (2 * t)) / np.sqrt(2 * np.pi * t ** 3)
print(f"up-density from 0 (brownian, y={y}, t={t}): {d0:.10f}")
print(f"  closed form e^(-y^2/2t)/sqrt(2 pi t^3):   {exact:.10f}")
