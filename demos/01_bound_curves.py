"""Trace the certified lower bound, the interpolation upper bound, and the
trivial classical-fidelity floor across the violation range, and write the
curves to CSV for plotting.

The lower bound becomes informative (rises above the classical floor) only
past the threshold violation 8 - 4*sqrt(2) ~ 2.343.
"""

import math

import numpy as np

from steerbound import (
    THRESHOLD_BETA,
    TRIVIAL_CLASSICAL_FIDELITY,
    analytic_bound,
    upper_bound,
)
from steerbound.steering import BETA_CLASSICAL, BETA_QUANTUM


def main():
    betas = np.linspace(BETA_CLASSICAL, BETA_QUANTUM, 200)
    rows = ["beta,analytic_lower,eq8_upper,trivial_fc"]
    for beta in betas:
        rows.append(
            f"{beta:.9g},{analytic_bound(float(beta)):.9g},"
            f"{upper_bound(float(beta)):.9g},{TRIVIAL_CLASSICAL_FIDELITY:.9g}"
        )
    with open("bound_curves.csv", "w") as handle:
        handle.write("\n".join(rows) + "\n")

    print("wrote bound_curves.csv (200 points)")
    print(f"classical floor      : {TRIVIAL_CLASSICAL_FIDELITY:.9f}")
    print(f"threshold violation  : {THRESHOLD_BETA:.9f} (= 8 - 4*sqrt(2))")
    print(f"bound at threshold   : {analytic_bound(THRESHOLD_BETA):.9f}")
    print(f"bound at Tsirelson   : {analytic_bound(BETA_QUANTUM):.9f}")

    # sample a few rows for a quick look without a plotting tool
    print("\n  beta     lower    upper")
    for beta in (2.0, 2.2, THRESHOLD_BETA, 2.5, 2.7, BETA_QUANTUM):
        print(f"  {beta:.4f}  {analytic_bound(beta):.5f}  {upper_bound(beta):.5f}")


if __name__ == "__main__":
    main()
