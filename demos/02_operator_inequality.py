"""Verify the operator inequalities K_{ax} >= s T_{ax} + t_{ax} I behind the
analytic bound.

At each angle theta the dephasing channel coefficient follows its closed
rule and t0*(theta), t1*(theta) are the largest shifts keeping all four
operators positive semidefinite. The paper's claim is that the split
t0 = t0*(theta), t1 = t - t0*(theta) works at every theta for
t = (2 - sqrt(2))/2, i.e. that min over theta of t0* + t1* is at least t.
The check reads theta at BREAKPOINTS alone, 0, pi/4 and pi/2, where
t0* + t1* takes its minimum over [0, pi/2], so its minimum is exact. The
margin at that split, the least eigenvalue of the four operators, is
min(t0* + t1* - t, 0), so no matrix is built. At the breakpoints every
number lies in Q(sqrt 2) and every float is a dyadic rational, so the
margins are decided exactly, with no slack, as `steerbound
verify-inequality` decides them; pushing t past the optimum, or s one
float past it, makes the check fail.
"""

import math

from steerbound.selftest import BREAKPOINTS, S_OPTIMAL, T_OPTIMAL, breakpoint_shifts


def main():
    print(f"s = (1+sqrt(2))/4 = {S_OPTIMAL:.9f}")
    g = [t0 + t1 for t0, t1 in zip(*breakpoint_shifts(S_OPTIMAL))]  # exact t0* + t1* at BREAKPOINTS
    best = min(range(len(g)), key=lambda i: g[i])

    for t in (T_OPTIMAL, T_OPTIMAL + 1e-6):
        worst = min(min(x - t, 0) for x in g)
        status = "verified" if worst >= 0 else "FAILED"
        print(f"t = {t:.9f}: worst eigenvalue margin {float(worst):+.3e} -> {status}")
    past = math.nextafter(S_OPTIMAL, 1)
    worst = min(min(t0 + t1 - T_OPTIMAL, 0) for t0, t1 in zip(*breakpoint_shifts(past)))
    print(f"s = {past!r} (next float): worst margin {float(worst):+.3e} -> {'verified' if worst >= 0 else 'FAILED'}")

    print(f"\nintercept min t0* + t1*  : {float(g[best]):.9f} at theta = {BREAKPOINTS[best]:.6f}")
    print(f"closed form (2-sqrt2)/2  : {T_OPTIMAL:.9f}")
    print(f"boundary pi/4            : {math.pi / 4:.6f}")


if __name__ == "__main__":
    main()
