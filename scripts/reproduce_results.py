#!/usr/bin/env python3
"""Reproduce the headline numbers in one run.

Prints the symmetric equilibrium table of the imbalanced three-object
game, the expected winner count at twenty players, the lopsided-family
payoff gap against its bound, the P-to-S play ratios, and a desk-scale
infeasibility sweep summary (pairs proved empty over r in [0, 1] and
the r-intervals their proofs took).  Everything here is recomputed from
scratch; nothing is read from fixtures.
"""

import argparse
import sys
import time
from fractions import Fraction

from rps_forge.certify import ptype_to_s_ratio_check, sweep
from rps_forge.construct import imbalanced_rps, imbalanced_rps3, maximal_rps3
from rps_forge.core import uniform_expected_payoffs
from rps_forge.equilibrium import (
    expected_winner_count,
    nash_gap,
    solve_symmetric_rps3,
    symmetric_profile,
)
from rps_forge.imbalance import majorizes, ui_variance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep-kmax", type=int, default=12)
    parser.add_argument("--sweep-tmax", type=int, default=12)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.sweep_kmax < 1:
        parser.error(f"--sweep-kmax must be >= 1, got {args.sweep_kmax}")
    if args.sweep_tmax < 0:
        parser.error(f"--sweep-tmax must be >= 0, got {args.sweep_tmax}")

    print("symmetric equilibria of the imbalanced three-object game")
    print(f"{'m':>4} {'P(R)':>10} {'P(P)':>10} {'P(S)':>10} {'gap':>10}")
    for m in (3, 5, 10, 15, 20):
        eq = solve_symmetric_rps3(m)
        gap = nash_gap(imbalanced_rps3(m), symmetric_profile(eq.as_vector(), m)).gap
        print(f"{m:>4} {eq.r:>10.6f} {eq.p:>10.6f} {eq.s:>10.6f} {gap:>10.2e}")

    print()
    rule20 = imbalanced_rps3(20)
    published = (Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000))
    exact = expected_winner_count(published, rule20)
    solved = solve_symmetric_rps3(20)
    precise = expected_winner_count(solved.as_vector(), rule20)
    print("expected winners per instance, m=20")
    print(f"  at the published 3-decimal equilibrium: {float(exact):.6f} (exact {exact})")
    print(f"  at the full-precision equilibrium:      {precise:.6f}")

    print()
    print("lopsided vs playable family: payoff gap against its bound")
    for m in (2, 3, 6, 12):
        fi = uniform_expected_payoffs(imbalanced_rps3(m))
        fm = uniform_expected_payoffs(maximal_rps3(m))
        gap = fm[0] - fi[0]
        bound = Fraction(m * (2 ** (m - 1) - 1), 3 ** (m - 1))
        rel = majorizes(fm, fi).value
        print(
            f"  m={m:>2}: {rel}, variance {float(ui_variance(fm)):.4f} vs "
            f"{float(ui_variance(fi)):.4f}, gap {gap} vs bound {bound}"
            + ("  [gap equals bound]" if gap == bound else "")
        )

    print()
    print("P-type to S play ratio at the symmetric equilibrium (bound m-1)")
    for m in (3, 10, 20):
        eq = solve_symmetric_rps3(m)
        reports = ptype_to_s_ratio_check(
            imbalanced_rps(m, 1), symmetric_profile(eq.as_vector(), m)
        )
        rep = reports[0]
        print(
            f"  m={m:>2}: ratio {rep.ratio:>8.2f} >= {m - 1:>2}: {rep.satisfied}; "
            f"tie probe {rep.tie_probe:.2f}"
        )

    print()
    start = time.perf_counter()
    report = sweep(args.sweep_kmax, args.sweep_tmax, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    verdicts = [r["verdict"] == "proved_empty" for r in report.records]
    intervals = sum(r["boxes"] for r in report.records)
    print(
        f"infeasibility sweep k<={args.sweep_kmax}, t<={args.sweep_tmax}: "
        f"{sum(verdicts)}/{len(verdicts)} proved empty for r in [0, 1], "
        f"{intervals} r-intervals, {elapsed:.1f} s"
    )
    ok = all(verdicts) and not report.incomplete
    print("all checks passed" if ok else "SOME CHECKS DID NOT PASS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
