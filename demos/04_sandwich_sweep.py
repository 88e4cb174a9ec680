"""Numerical cross-check of the analytic bound: for each target violation,
score an assemblage pinned to that violation with its exact extractability
(the identity channel and the SDP's dual bound at H = 0 meet) and confirm
the value lands between the analytic lower bound and the interpolation
upper bound (eq8).

The assemblage is the sharp/unsharp witness (Alice measures Z sharply and X
with sharpness m = sqrt(beta^2/4 - 1), read at theta* = atan m). It reaches
the closed form xi*(beta) = 3/4 + sqrt(beta^2 - 4)/8, below eq8 everywhere
inside (2, 2*sqrt(2)); the paper's affine bound is the chord of that curve.
numeric is the exact extractability of a valid assemblage, so it is a proven
upper estimate of the minimum; that it is the minimum is checked numerically
only.
"""

import math

from steerbound import SearchConfig, sandwich_sweep


def main():
    cfg = SearchConfig()
    report = sandwich_sweep(cfg)
    print(f"{'beta':>8} {'lower':>10} {'numeric':>10} {'xi*':>10} {'upper':>10} {'gap':>9}  status")
    for r in report.records:
        status = "pass" if r.passes(cfg.tolerance) else "FAIL"
        xi_star = 0.75 + math.sqrt(r.beta**2 - 4) / 8
        print(
            f"{r.beta:8.4f} {r.analytic_lower:10.6f} {r.numeric_min:10.6f} {xi_star:10.6f} "
            f"{r.eq8_upper:10.6f} {r.gap:9.1e}  {status}"
        )

    with open("sandwich_report.json", "w") as handle:
        handle.write(report.to_json())
    print(f"\nsweep {'passed' if report.passed else 'FAILED'}; "
          "full witnesses written to sandwich_report.json")


if __name__ == "__main__":
    main()
