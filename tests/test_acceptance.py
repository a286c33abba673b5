"""Acceptance suite: every release gate in one place.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all) and asserts at its stated tolerance.  Criterion 7's strict
payoff-gap bound is mathematically unattainable at m = 2, where the gap
equals the bound exactly (both sides 2/3); that sub-case is expected to
fail and is asserted as stated anyway, so the discrepancy stays visible.
"""

import random
import time
from fractions import Fraction

import pytest

from rps_forge.certify import sweep
from rps_forge.construct import imbalanced_rps, imbalanced_rps3, iterated_blowup, maximal_rps3
from rps_forge.core import enumerate_multisets, eval_outcome, payoff_vector, uniform_expected_payoffs
from rps_forge.equilibrium import (
    SearchConfig,
    classify_playability,
    expected_winner_count,
    search_equilibria,
    solve_symmetric_rps3,
)
from rps_forge.formulas import COMMITTED_ROLES, Role, Scenario, corner_value, ev_raw, ev_simplified, identity_check
from rps_forge.imbalance import MajorizationRelation, majorizes, theil_alpha, ui_variance

from conftest import random_table_rule

TABLE_ROWS = {
    3: (0.324, 0.473, 0.202),
    5: (0.288, 0.622, 0.090),
    10: (0.212, 0.760, 0.027),
    15: (0.169, 0.817, 0.013),
    20: (0.142, 0.850, 0.008),
}


def announce(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def test_criterion_1_published_equilibrium_table():
    start = time.perf_counter()
    worst = 0.0
    for m, row in TABLE_ROWS.items():
        eq = solve_symmetric_rps3(m)
        for got, want in zip(eq.as_vector(), row):
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 1.0
    announce("1 (equilibrium table)", ok, f"max dev {worst:.2e}, {elapsed * 1000:.0f} ms")
    assert worst <= 1e-3
    assert elapsed < 1.0


def test_criterion_2_twenty_player_tie_count():
    start = time.perf_counter()
    rule = imbalanced_rps3(20)
    outcomes = list(enumerate_multisets(3, 20))
    assert len(outcomes) == 231
    published = (Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000))
    assert sum(published) == 1
    exact = expected_winner_count(published, rule)
    elapsed = time.perf_counter() - start
    solved = solve_symmetric_rps3(20)
    at_solution = expected_winner_count(solved.as_vector(), rule)
    ok = exact > 15 and elapsed < 1.0
    announce(
        "2 (expected winners, m=20)",
        ok,
        f"exact {float(exact):.4f} at the published profile "
        f"({at_solution:.4f} at full precision), {elapsed * 1000:.0f} ms",
    )
    assert exact > 15
    assert elapsed < 1.0


def test_criterion_3_formula_routes_agree():
    rng = random.Random(314159)
    failures = 0
    per_role = 200
    for role in Role:
        for _ in range(per_role):
            k = rng.randint(1, 8)
            t = rng.randint(1 if role in COMMITTED_ROLES else 0, 8)
            r = Fraction(rng.randint(0, 1000), 1000)
            s = Fraction(rng.randint(0, 1000), 1000)
            lhs = ev_simplified(role, Scenario(k=k, t=t, r=r, s=s))
            rhs = ev_raw(role, k, t, [r] * k, s)
            if lhs != rhs:
                failures += 1
    announce("3 (closed forms = raw sums)", failures == 0, f"{per_role} scenarios/role, {failures} failures")
    assert failures == 0


def test_criterion_4_binomial_identity_suite():
    start = time.perf_counter()
    bad = [
        (k, t, b)
        for k in range(1, 31)
        for t in range(0, 31)
        for b in range(0, k)
        if identity_check(k, t, b) != (True, True)
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    announce("4 (identity suite)", ok, f"k,t <= 30 exhaustive, {elapsed:.1f} s")
    assert bad == []
    assert elapsed < 30.0


def test_criterion_5_corner_negativity():
    worst = Fraction(-1)
    for k in range(2, 31):
        for t in range(0, 31):
            for l in range(0, k - 1):
                for corner in (0, 1):
                    value = corner_value(k, t, l, corner)  # raises on closed-form mismatch
                    assert value < 0
                    worst = max(worst, value)
    announce("5 (corner negativity)", True, f"largest corner value {worst}")


def test_criterion_6_desk_scale_sweep():
    start = time.perf_counter()
    report = sweep(12, 12, delta=Fraction(1, 10**6), budget_seconds=600.0)
    elapsed = time.perf_counter() - start
    undecided = [
        (r["k"], r["t"]) for r in report.records if r["verdict"] != "proved_empty"
    ]
    ok = report.all_proved and elapsed < 600.0
    announce(
        "6 (infeasibility sweep)",
        ok,
        f"{len(report.records)} pairs, {elapsed:.1f} s, undecided: {undecided}",
    )
    assert not report.incomplete
    assert undecided == []
    assert elapsed < 600.0


@pytest.mark.parametrize("m", range(2, 13))
def test_criterion_7_majorization_and_gap_bound(m):
    lopsided = uniform_expected_payoffs(maximal_rps3(m))
    playable = uniform_expected_payoffs(imbalanced_rps3(m))
    relation = majorizes(lopsided, playable)
    gap = lopsided[0] - playable[0]
    bound = Fraction(m * (2 ** (m - 1) - 1), 3 ** (m - 1))
    ok = relation is MajorizationRelation.MAJORIZES and gap < bound
    announce(
        f"7 (majorization + gap bound, m={m})",
        ok,
        f"gap {gap} vs bound {bound}" + (" [equality: strict bound unattainable]" if gap == bound else ""),
    )
    assert relation is MajorizationRelation.MAJORIZES
    assert gap < bound, (
        f"strict bound fails at m={m}: gap {gap} equals the bound {bound}; "
        "the two-player game attains the worst case exactly"
    )


def test_criterion_8_composition_equivalence():
    checked = 0
    for m in range(2, 6):
        for k in range(1, 4):
            direct = imbalanced_rps(m, k)
            composed = iterated_blowup(m, k)
            assert direct.labels == composed.labels
            for size in range(1, m + 1):
                for counts, _ in enumerate_multisets(direct.n, size):
                    assert eval_outcome(direct, counts) == eval_outcome(composed, counts)
                    checked += 1
    announce("8 (direct rule = composition)", True, f"{checked} multisets, m <= 5, k <= 3")


def test_criterion_9_playability_evidence():
    support_tol = 1e-9
    summaries = []
    for rule, need_s2 in ((imbalanced_rps3(3), True), (imbalanced_rps(3, 2), False)):
        found = search_equilibria(rule, SearchConfig(seed=20260810))
        assert found, f"search found nothing for {rule.construction}"
        s_idx = rule.index_of("S")
        for profile, report in found:
            assert report.gap <= 1e-9
            union = {
                o
                for v in profile.vectors
                for o, p in enumerate(v)
                if float(p) > support_tol
            }
            assert union == set(range(rule.n)), (
                f"{rule.construction}: equilibrium missing objects {set(range(rule.n)) - union}"
            )
            if need_s2:
                s_players = sum(
                    1 for v in profile.vectors if float(v[s_idx]) > support_tol
                )
                assert s_players >= 2
        evidence = classify_playability(rule, [p for p, _ in found], k=1)
        assert evidence.playable and evidence.no_counterexample_to_strong
        assert not evidence.exhaustive  # evidence, never proof
        summaries.append(f"{rule.construction}: {len(found)} equilibria")
    announce("9 (playability evidence)", True, "; ".join(summaries))


def test_criterion_10_invariant_suites():
    rng = random.Random(987654)

    # zero-sum payoffs and winner-was-chosen over random rules and picks
    for _ in range(40):
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        rule = random_table_rule(rng, m, n)
        picks = [rng.randrange(n) for _ in range(m)]
        assert sum(payoff_vector(rule, picks)) == 0
        for size in range(2, m + 1):
            for counts, _ in enumerate_multisets(n, size):
                out = eval_outcome(rule, counts)
                if not out.is_tie:
                    assert counts[out.winner] >= 1

    # uniform payoffs sum to zero on the constructed families
    for m in (2, 4, 8):
        for rule in (imbalanced_rps3(m), maximal_rps3(m), imbalanced_rps(m, 3)):
            assert sum(uniform_expected_payoffs(rule)) == 0

    # variance follows majorization on random games
    comparable = 0
    for _ in range(80):
        m = rng.randint(2, 4)
        n = rng.randint(3, 5)
        f1 = uniform_expected_payoffs(random_table_rule(rng, m, n))
        f2 = uniform_expected_payoffs(random_table_rule(rng, m, n))
        rel = majorizes(f1, f2)
        if rel is MajorizationRelation.MAJORIZES:
            hi, lo = f1, f2
        elif rel is MajorizationRelation.MAJORIZED_BY:
            hi, lo = f2, f1
        else:
            continue
        comparable += 1
        assert ui_variance(hi) >= ui_variance(lo)
    assert comparable >= 8
    announce("10 (invariant suites)", True, f"{comparable} comparable random pairs")


def test_criterion_10_theil_schur_consistency():
    """As stated: the normalized Theil index should follow majorization on
    randomized games.  It does not: pinning each vector's minimum to alpha
    scales wider vectors down harder, which can invert the order (it does
    so even for the lopsided-vs-playable flagship pair).  The check is
    asserted as stated and is expected to fail."""
    rng = random.Random(987655)
    violations = []
    comparable = 0
    for _ in range(80):
        m = rng.randint(2, 4)
        n = rng.randint(3, 5)
        f1 = uniform_expected_payoffs(random_table_rule(rng, m, n))
        f2 = uniform_expected_payoffs(random_table_rule(rng, m, n))
        rel = majorizes(f1, f2)
        if rel is MajorizationRelation.MAJORIZES:
            hi, lo = f1, f2
        elif rel is MajorizationRelation.MAJORIZED_BY:
            hi, lo = f2, f1
        else:
            continue
        comparable += 1
        for alpha in (0.25, 0.5, 0.75):
            if theil_alpha(hi, alpha) < theil_alpha(lo, alpha) - 1e-10:
                violations.append((alpha, [str(x) for x in hi], [str(x) for x in lo]))
    announce(
        "10 (Theil under majorization)",
        not violations,
        f"{comparable} comparable pairs, {len(violations)} inversions",
    )
    assert not violations, (
        f"min-pinned Theil inverted the majorization order {len(violations)} "
        f"times in {comparable} comparable pairs; first: alpha={violations[0][0]}, "
        f"majorizing={violations[0][1]}, majorized={violations[0][2]}"
    )
