"""Monte Carlo checks of local-time laws against spectral predictions.

Exact samplers (no discretization) drive most of the checks: the
hitting time from x is x^2/(2*Gamma(alpha, 1)), the inverse local time
is a positive stable subordinator, and the local-time marginal follows
by inversion.  A reflected Euler path estimator with an occupation-time
band is the discretized cross-check; its band bias has a closed-form
correction.

Run with --quick for a faster, noisier pass.
"""

import argparse
import time

import numpy as np

import levykit as lk
from levykit import spectral as sp


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200_000,
                    help="samples per exact-sampler check")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--quick", action="store_true",
                    help="cut path counts for a fast pass")
    args = ap.parse_args()

    bm = lk.brownian_spec()
    b15 = lk.bessel_spec(1.5)
    n = args.n // 10 if args.quick else args.n

    # --- exact hitting-time sampler vs the spectral tail -------------------
    print("P_x(H_0 > t): exact sampler vs spectral quadrature")
    for spec, x, t in [(bm, 1.0, 2.0), (b15, 0.7, 1.0)]:
        est = lk.estimate_hitting_tail(spec, x, t, n=n, seed=args.seed)
        exact = sp.hitting_tail(spec, x, t)
        z = (est.mean - exact) / est.std_error
        print(f"  {spec.name}: x={x}, t={t}  mc={est.mean:.6f} "
              f"(+-{est.std_error:.1e})  exact={exact:.6f}  z={z:+.2f}")
    print()

    # --- subordinator sampler vs the Laplace exponent -----------------------
    print("E[exp(-lam * tau_ell)] = exp(-ell * Phi(lam))")
    lams = [0.5, 2.0]
    for spec in (bm, b15):
        # one set of tau draws serves every lam
        ests = lk.levy_exponent_mc(spec, lams, ell=1.0, n=n, seed=args.seed)
        for lam, est in zip(lams, ests):
            exact = lk.levy_exponent(spec, lam)
            z = (est.mean - exact) / est.std_error
            print(f"  {spec.name}: lam={lam}  mc={est.mean:.6f} "
                  f"(+-{est.std_error:.1e})  Phi={exact:.6f}  z={z:+.2f}")
    print()

    # --- local time marginal at the boundary --------------------------------
    # Brownian case: E_0[L_t] = sqrt(2t/pi) under this normalization.
    t = 1.0
    L = lk.sample_local_time(bm, 0.0, t, n=n, seed=args.seed)
    want = np.sqrt(2.0 * t / np.pi)
    got = float(L.mean())
    se = float(L.std(ddof=1) / np.sqrt(n))
    print(f"E_0[L_1] brownian: mc={got:.6f} (+-{se:.1e})  "
          f"exact={want:.6f}  z={(got - want) / se:+.2f}")
    print()

    # --- the local-time tail against its predicted asymptote ---------------
    # P_x(L_t <= ell) ~ (S(x) + ell) * nu_bar(t) for large t.
    t_big = 1e4
    ell = 1.0
    t0 = time.perf_counter()
    est = lk.estimate_localtime_tail(b15, 1.0, t_big, ell, n=n,
                                     seed=args.seed)
    asym = (b15.scale(1.0) + ell) * sp.levy_tail(b15, t_big)
    print(f"P_1(L_{t_big:.0f} <= {ell}) bessel: mc={est.mean:.6f} "
          f"(+-{est.std_error:.1e})")
    print(f"  (S(1)+ell)*nu_bar = {asym:.6f}   ratio="
          f"{est.mean / asym:.4f}   [{time.perf_counter() - t0:.1f}s]")
    print()

    # --- discretized path estimator and its band correction -----------------
    # The band estimator counts occupation of [0, eps); the exact mean of
    # that correction is available, which is what makes the z-score fair.
    n_paths = 2_000 if args.quick else 20_000
    dt, t = 1e-3, 0.5
    res = lk.doob_meyer_check(bm, [t], n_paths=n_paths, dt=dt,
                              seed=args.seed)[0]
    z = res["gap"] / res["std_error"]
    print(f"compensator identity on Euler paths (brownian, t={t}, dt={dt})")
    print(f"  E[S(X_t)]={res['scale_mean']:.6f}  E[L_t]={res['local_mean']:.6f}"
          f"  gap={res['gap']:.6f} (+-{res['std_error']:.1e})  z={z:+.2f}")
    print(f"  band bias correction applied: {res['bias_correction']:.6f}")


if __name__ == "__main__":
    main()
