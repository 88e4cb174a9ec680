"""Numerical cross-check of the analytic bound: for each target violation,
heuristically minimize the extractability over assemblages pinned to that
violation (penalty-descent restarts plus a structural reference/classical
mixture, each scored by the exact extractability SDP) and confirm the
estimate lands between the analytic lower bound and the interpolation
upper bound.

A passing sweep means no counterexample was found; the outer search is
heuristic, so it can only falsify the bound, never prove it.
"""

from steerbound import SearchConfig, sandwich_sweep


def main():
    cfg = SearchConfig(samples=8, rng_seed=7)
    print(f"restarts : {cfg.samples} per target\n")

    report = sandwich_sweep(cfg)
    print(f"{'beta':>8} {'lower':>10} {'numeric':>10} {'upper':>10} {'gap':>9}  winner      status")
    for r in report.records:
        status = "pass" if r.passes(cfg.tolerance) else "FAIL"
        print(
            f"{r.beta:8.4f} {r.analytic_lower:10.6f} {r.numeric_min:10.6f} "
            f"{r.eq8_upper:10.6f} {r.gap:9.1e}  {r.winner:<10}  {status}"
        )

    with open("sandwich_report.json", "w") as handle:
        handle.write(report.to_json())
    print(f"\nsweep {'passed' if report.passed else 'FAILED'}; "
          "full witnesses written to sandwich_report.json")


if __name__ == "__main__":
    main()
