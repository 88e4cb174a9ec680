"""Verify the operator inequalities K_{ax} >= s T_{ax} + t_{ax} I behind the
analytic bound.

At each angle theta the dephasing channel coefficient follows its closed
rule and t0*(theta), t1*(theta) are the largest shifts keeping all four
operators positive semidefinite. The paper's claim is that the split
t0 = t0*(theta), t1 = t - t0*(theta) works at every theta for
t = (2 - sqrt(2))/2, i.e. that min over theta of t0* + t1* is at least t.
The check reads theta at BREAKPOINTS alone, 0, pi/4 and pi/2, where
t0* + t1* takes its minimum over [0, pi/2], so its minimum is exact. The margin at that split is each operator's least
eigenvalue in closed form, read from its Pauli coefficients without
building a matrix, and pushing t past the optimum makes the check fail.
"""

import math

from steerbound import inequality_margin, t_constraints
from steerbound.selftest import (
    BREAKPOINTS,
    S_OPTIMAL,
    T_OPTIMAL,
    dephasing_coefficient,
)


def main():
    print(f"s = (1+sqrt(2))/4 = {S_OPTIMAL:.9f}")
    thetas = BREAKPOINTS
    t0, t1 = t_constraints(S_OPTIMAL, thetas)
    c = dephasing_coefficient(thetas, S_OPTIMAL)
    g = t0 + t1
    best = int(g.argmin())

    for t in (T_OPTIMAL, T_OPTIMAL + 1e-6):
        worst = inequality_margin(S_OPTIMAL, t0, t - t0, thetas, c).min()
        status = "verified" if worst >= -1e-10 else "FAILED"
        print(f"t = {t:.9f}: worst eigenvalue margin {worst:+.3e} -> {status}")

    print(f"\nintercept min t0* + t1*  : {g[best]:.9f} at theta = {thetas[best]:.6f}")
    print(f"closed form (2-sqrt2)/2  : {T_OPTIMAL:.9f}")
    print(f"boundary pi/4            : {math.pi / 4:.6f}")


if __name__ == "__main__":
    main()
