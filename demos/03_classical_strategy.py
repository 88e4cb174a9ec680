"""Compute the best fidelity any classical (hidden-state) assemblage reaches
with the CHSH-type reference, inspect the optimizing strategy, and compare
with the compact two-state strategy that saturates the same value.

Both hit (2 + sqrt(2))/4 ~ 0.8536 - the floor the device-independent bound
has to beat before it certifies anything nonclassical.
"""

import math

from steerbound import (
    appendix_b_strategy,
    assemblage_fidelity,
    chsh_reference,
    classical_fidelity,
    from_classical,
    max_violation_over_theta,
)


def main():
    ref = chsh_reference()
    value, strategy = classical_fidelity(ref)
    print(f"optimal classical fidelity : {value:.12f}")
    print(f"closed form (2+sqrt(2))/4  : {(2 + math.sqrt(2)) / 4:.12f}")

    print("\noptimizing strategy (one deterministic response per lambda):")
    for lam, (weight, resp, rho) in enumerate(zip(strategy.weights, strategy.responses, strategy.hidden_states)):
        print(
            f"  lambda={lam}  weight={weight:.3f}  responses={resp.tolist()}"
            f"  bloch_z={2 * rho[0, 0].real - 1:+.4f}"
        )

    compact = appendix_b_strategy()
    asm = from_classical(compact)
    achieved = assemblage_fidelity(ref, asm)
    theta, beta = max_violation_over_theta(asm)
    print("\ntwo-state strategy (Alice copies the shared bit):")
    print(f"  fidelity with reference : {achieved:.12f}")
    print(f"  best CHSH value         : {beta:.9f} at theta = {theta:.6f}")
    print("  (classical assemblages never exceed the classical bound 2)")


if __name__ == "__main__":
    main()
