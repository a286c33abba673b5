"""Equilibrium computation: exact payoffs, the symmetric solver, and the
seeded search.

Two references check damped best response.  ``scalar_best_response_profiles``
is the start-by-start payoff-row loop that the lockstep kernel
``_best_response_profiles`` replaced: the kernel must return the very same
floats, start for start, on batches where starts converge, repeat and give
up at different sweeps.  ``reference_best_response_profiles`` is the
straightforward loop: every update rebuilds the opponents' count
distribution with ``choice_count_distribution`` and sums cached pure payoffs
over it, and ``search_equilibria`` must return the very same verified
profiles and gap reports with it.  The straightforward loop keeps no
check for an exact repeat of the state, so equality also shows that ending
a cycling start at its first repeat changes no result.  Sha256 pins of
``search_equilibria`` output, taken before the lockstep kernel, cover the
benchmark's six search games.  ``_can_settle`` decides whether best response
runs at all; the scalar loop checks it on every game here, and wherever a
start is kept the check must have allowed it.  Starts that ``_lock_in``
finishes without payoffs must still match the scalar loop, and supports
that ``_gaps_keep_a_sign`` skips must hold nothing the unguarded scan or
Newton would find.

Damping and the sweep cap are module constants, read at call time by the
kernel and by both references; the oracle batches patch them, as
``_patch_search`` does, to reach other dampings and early caps.
"""

import hashlib
import importlib.util
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from operator import mul, sub
from pathlib import Path

import pytest
from conftest import random_table_rule

from rps_forge import equilibrium
from rps_forge.construct import imbalanced_rps, imbalanced_rps3, maximal_rps3, odd_one_out
from rps_forge.core import GameError, GameRule
from rps_forge.equilibrium import (
    MixedProfile,
    SearchConfig,
    _best_response_profiles,
    _can_settle,
    _payoff_rows,
    _pure_payoff_cache,
    _random_simplex,
    choice_count_distribution,
    classify_playability,
    expected_payoff,
    expected_winner_count,
    nash_gap,
    search_equilibria,
    solve_symmetric_rps3,
    symmetric_profile,
    uniform_profile,
)

TABLE_ROWS = {
    3: (0.324, 0.473, 0.202),
    5: (0.288, 0.622, 0.090),
    10: (0.212, 0.760, 0.027),
    15: (0.169, 0.817, 0.013),
    20: (0.142, 0.850, 0.008),
}


class TestMixedProfile:
    def test_rejects_bad_sum(self):
        with pytest.raises(GameError):
            MixedProfile(vectors=((0.5, 0.4), (0.5, 0.5)))

    def test_rejects_negative(self):
        with pytest.raises(GameError):
            MixedProfile(vectors=((-0.1, 1.1),))

    def test_exact_vectors_accepted(self):
        p = symmetric_profile((Fraction(1, 3),) * 3, 4)
        assert p.symmetric and p.m == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GameError):
            MixedProfile(vectors=((bad, 0.5, 0.5), (0.0, 0.5, 0.5)))

    def test_rejects_nan_symmetric_profile(self):
        # Before the check this profile reached nash_gap, which reported
        # gap 0.0 because max(0.0, nan) is 0.0.
        with pytest.raises(GameError, match="non-finite"):
            MixedProfile(((math.nan, 0.5, 0.5),) * 3, symmetric=True)

    def test_fraction_vectors_unaffected(self):
        v = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
        p = MixedProfile(vectors=(v, v, (Fraction(0), Fraction(1), Fraction(0))))
        assert p.vectors[0] == v and not p.symmetric


class TestExpectedPayoff:
    def test_uniform_matches_uniform_payoffs(self):
        rule = imbalanced_rps3(3)
        prof = uniform_profile(rule)
        assert expected_payoff(rule, prof, 0, "R") == Fraction(4, 9)
        assert expected_payoff(rule, prof, 1, "P") == Fraction(-2, 9)

    def test_sole_winner_against_pure_crowd(self):
        m = 6
        rule = imbalanced_rps3(m)
        pure_p = symmetric_profile((Fraction(0), Fraction(1), Fraction(0)), m)
        assert expected_payoff(rule, pure_p, 0, "S") == m - 1

    @pytest.mark.parametrize("player", [-1, 3, 5])
    def test_player_out_of_range_is_named(self, player):
        rule = imbalanced_rps3(3)
        with pytest.raises(GameError, match=f"player {player} out of range 0..2"):
            expected_payoff(rule, uniform_profile(rule), player, "R")

    @pytest.mark.parametrize("pure", [-1, 3, 7])
    def test_object_out_of_range_is_named(self, pure):
        rule = imbalanced_rps3(3)
        with pytest.raises(GameError, match=f"object {pure} out of range 0..2"):
            expected_payoff(rule, uniform_profile(rule), 0, pure)

    def test_vector_length_mismatch_rejected(self):
        rule = imbalanced_rps3(3)
        profile = symmetric_profile((Fraction(1, 5),) * 5, 3)
        with pytest.raises(GameError, match="profile has 5 entries for 3 objects"):
            expected_payoff(rule, profile, 0, "R")

    def test_published_equilibrium_row_is_near_zero(self):
        rule = imbalanced_rps3(3)
        raw = (0.324, 0.473, 0.202)
        total = sum(raw)
        prof = symmetric_profile(tuple(x / total for x in raw), 3)
        for obj in ("R", "P", "S"):
            assert abs(expected_payoff(rule, prof, 0, obj)) < 5e-3


class TestNashGap:
    def test_uniform_two_player_classic(self):
        rule = imbalanced_rps3(2)
        report = nash_gap(rule, uniform_profile(rule))
        assert report.gap == 0

    def test_pure_p_crowd_is_not_an_equilibrium(self):
        m = 3
        rule = imbalanced_rps3(m)
        pure_p = symmetric_profile((0.0, 1.0, 0.0), m)
        report = nash_gap(rule, pure_p)
        assert report.gap == pytest.approx(m - 1)

    @pytest.mark.parametrize("m", [3, 5, 10, 20])
    def test_solved_profile_gap(self, m):
        eq = solve_symmetric_rps3(m)
        report = nash_gap(imbalanced_rps3(m), symmetric_profile(eq.as_vector(), m))
        assert report.gap <= 1e-8
        if m == 5:
            assert report.gap <= 1e-9

    def test_player_count_mismatch_rejected(self):
        rule = imbalanced_rps3(5)
        with pytest.raises(GameError, match="profile has 3 players, game has 5"):
            nash_gap(rule, uniform_profile(imbalanced_rps3(3)))


def reference_nash_gap(rule, profile):
    """Reference: every player on their own, with their own opponent count
    distribution and a payoff evaluation per (object, counts) entry."""
    per_player = []
    gaps = []
    for i in range(profile.m):
        others = [v for j, v in enumerate(profile.vectors) if j != i]
        dist = choice_count_distribution(others, rule.n)
        u = []
        for o in range(rule.n):
            tot = 0.0
            for counts, pr in dist.items():
                tot += float(pr) * float(equilibrium._payoff_against(rule, o, counts))
            u.append(tot)
        current = sum(float(p) * uo for p, uo in zip(profile.vectors[i], u))
        gaps.append(max(0.0, max(u) - current))
        per_player.append(tuple(u))
    return equilibrium.NashGapReport(payoffs=tuple(per_player), gaps=tuple(gaps), gap=max(gaps))


class TestNashGapReference:
    def test_symmetric_m20_solver_profile(self, monkeypatch):
        m = 20
        rule = imbalanced_rps3(m)
        profile = symmetric_profile(solve_symmetric_rps3(m).as_vector(), m)
        want = reference_nash_gap(rule, profile)
        calls = {"dist": 0, "payoff": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            equilibrium, "choice_count_distribution",
            counted("dist", equilibrium.choice_count_distribution),
        )
        monkeypatch.setattr(
            equilibrium, "_payoff_against", counted("payoff", equilibrium._payoff_against)
        )
        assert nash_gap(rule, profile) == want
        # One distribution over the C(21, 2) opponent count vectors, one
        # payoff per object and count vector.
        assert calls == {"dist": 1, "payoff": 3 * math.comb(21, 2)}

    def test_equal_vectors_not_flagged_symmetric(self):
        rule = imbalanced_rps3(6)
        profile = MixedProfile(vectors=((0.2, 0.5, 0.3),) * 6, symmetric=False)
        assert nash_gap(rule, profile) == reference_nash_gap(rule, profile)

    def test_asymmetric_float_profile(self):
        rule = imbalanced_rps(4, 2)
        rng = random.Random(3)
        vectors = []
        for _ in range(3):
            raw = [rng.random() for _ in range(rule.n)]
            vectors.append(tuple(x / sum(raw) for x in raw))
        # Players 0 and 1 share a vector, so their opponent tuples match.
        profile = MixedProfile(vectors=(vectors[0], vectors[0], vectors[1], vectors[2]))
        assert nash_gap(rule, profile) == reference_nash_gap(rule, profile)

    def test_fraction_symmetric_profile(self):
        rule = imbalanced_rps3(7)
        profile = symmetric_profile((Fraction(1, 7), Fraction(5, 7), Fraction(1, 7)), 7)
        assert nash_gap(rule, profile) == reference_nash_gap(rule, profile)

    def test_equal_values_of_different_types(self):
        # The exact Fraction value of each float: the opponents of player 0
        # and of player 5 are equal by value, yet their float payoffs
        # differ, since Fraction products are rounded only once.
        v = (0.3, 0.3, 0.4)
        exact = tuple(map(Fraction, v))
        rule = imbalanced_rps3(6)
        profile = MixedProfile(vectors=(exact,) * 3 + (v,) * 3)
        want = reference_nash_gap(rule, profile)
        assert want.payoffs[0] != want.payoffs[5]
        assert nash_gap(rule, profile) == want

    def test_every_search_result_on_a_random_table(self):
        rule = random_table_rule(random.Random(8), 4, 3)
        results = search_equilibria(rule, SearchConfig(seed=0))
        assert results
        for profile, _ in results:
            assert nash_gap(rule, profile) == reference_nash_gap(rule, profile)


class TestSymmetricSolver:
    @pytest.mark.parametrize("m, row", sorted(TABLE_ROWS.items()))
    def test_published_rows(self, m, row):
        eq = solve_symmetric_rps3(m)
        for got, want in zip(eq.as_vector(), row):
            assert abs(got - want) <= 1e-3

    def test_two_players_is_thirds(self):
        eq = solve_symmetric_rps3(2)
        assert eq.as_vector() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    @pytest.mark.parametrize("m", list(range(2, 65)))
    def test_residuals_and_simplex(self, m):
        eq = solve_symmetric_rps3(m, tol=1e-12)
        assert abs(eq.r + eq.p + eq.s - 1.0) <= 1e-12
        assert max(eq.residuals) <= 1e-12
        assert min(eq.as_vector()) > 1e-9

    def test_monotone_trends(self):
        rows = [solve_symmetric_rps3(m) for m in (3, 5, 10, 15, 20)]
        assert all(a.s > b.s for a, b in zip(rows, rows[1:]))
        assert all(a.p < b.p for a, b in zip(rows, rows[1:]))

    def test_payoffs_equal_across_objects(self):
        for m in (3, 7, 12):
            eq = solve_symmetric_rps3(m, tol=1e-12)
            rule = imbalanced_rps3(m)
            prof = symmetric_profile(eq.as_vector(), m)
            values = [expected_payoff(rule, prof, 0, o) for o in range(3)]
            assert max(values) - min(values) <= 1e-11

    def test_bad_tolerance_rejected(self):
        with pytest.raises(GameError):
            solve_symmetric_rps3(3, tol=0.0)
        with pytest.raises(GameError):
            solve_symmetric_rps3(3, tol=float("nan"))
        with pytest.raises(GameError, match="finite"):
            solve_symmetric_rps3(3, tol=math.inf)

    @pytest.mark.parametrize(
        "m, want",
        [
            (2, "r=0.33333333333333337, p=0.33333333333333326, s=0.33333333333333337, "
                "residuals=(2.7755575615628914e-17, 1.3877787807814457e-17)"),
            (3, "r=0.3243843760820794, p=0.4731531282462378, s=0.20246249567168284, "
                "residuals=(1.0408340855860843e-16, 5.551115123125783e-17)"),
            (20, "r=0.1418802949266446, p=0.8500283382972424, s=0.00809136677611294, "
                 "residuals=(1.2103198187855172e-15, 5.551115123125783e-17)"),
            (100, "r=0.04521871913578451, p=0.9543137624838649, s=0.00046751838035058446, "
                  "residuals=(1.2323475573339238e-14, 3.8163916471489756e-17)"),
        ],
    )
    def test_solutions_are_pinned(self, m, want):
        assert repr(solve_symmetric_rps3(m)) == f"SymmetricRps3Equilibrium(m={m}, {want})"


class TestBracketing:
    def test_sign_changes_yield_exact_zeros_and_skip_none(self):
        values = {0: -1.0, 1: None, 2: 0.0, 3: 2.0, 4: 3.0, 5: -1.0}
        got = list(equilibrium._sign_changes(values.get, range(6)))
        # the zero at 2 ends a bracket, and as the next lo it counts as
        # nonpositive, so 2.0 at 3 ends another
        assert got == [(0, -1.0, 2), (2, 0.0, 3), (4, 3.0, 5)]

    def test_bisect_stops_where_the_midpoint_rounds_onto_an_end(self):
        calls = []

        def below_third(x):
            calls.append(x)
            return x < 1 / 3

        root = equilibrium._bisect(below_third, 0.0, 1.0, 200)
        assert abs(root - 1 / 3) <= math.ulp(1 / 3)
        assert len(calls) < 60
        assert equilibrium._bisect(below_third, 0.0, 1.0, 3) == 0.3125

    def test_exact_zero_belongs_with_lo(self):
        # On odd-one-out m=2 the payoff difference on support {a, b} is
        # exactly 0.0 at every grid point and midpoint evaluated, so all
        # 128 brackets start and end on a zero.  A zero at a midpoint
        # replaces lo, so each root lands on its bracket's upper end.
        rule = odd_one_out(2)
        got = equilibrium._symmetric_support_candidates(
            rule, (0, 1), _pure_payoff_cache(rule), random.Random(0)
        )
        assert got == [(i / 128, 1 - i / 128) for i in range(1, 129)]


class TestExpectedWinnerCount:
    def test_pure_monoset_profile(self):
        rule = imbalanced_rps3(5)
        assert expected_winner_count((0, 1, 0), rule) == 5

    @pytest.mark.parametrize(
        "vector, message",
        [
            # Once 8.625 winners of 3 players, nan, and 0.336.
            ((1.5, -0.5, 0), "negative probability"),
            ((math.nan, 0.5, 0.5), "non-finite probability"),
            ((0.2, 0.2, 0.2), "probabilities sum to 0.6"),
        ],
    )
    def test_rejects_non_distributions(self, vector, message):
        with pytest.raises(GameError, match=message):
            expected_winner_count(vector, imbalanced_rps3(3))

    def test_published_twenty_player_row_exceeds_fifteen(self):
        rule = imbalanced_rps3(20)
        row = (Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000))
        assert sum(row) == 1
        value = expected_winner_count(row, rule)
        assert value > 15

    def test_matches_ordered_enumeration(self):
        for m in (2, 3, 5):
            rule = imbalanced_rps3(m)
            eq = solve_symmetric_rps3(m)
            v = eq.as_vector()
            by_multiset = expected_winner_count(v, rule)
            by_tuple = 0.0
            for picks in product(range(3), repeat=m):
                pr = math.prod(v[o] for o in picks)
                counts = tuple(picks.count(o) for o in range(3))
                from rps_forge.core import eval_outcome

                by_tuple += pr * eval_outcome(rule, counts).winner_count
            assert by_multiset == pytest.approx(by_tuple, abs=1e-12)


class TestSearch:
    def test_classic_two_player_finds_uniform(self):
        rule = imbalanced_rps3(2)
        found = search_equilibria(rule, SearchConfig(seed=5, starts=40))
        assert any(
            max(abs(p - 1 / 3) for p in prof.vectors[0]) < 1e-6
            for prof, _ in found
        )

    def test_seeded_reproducibility(self):
        rule = imbalanced_rps3(3)
        a = search_equilibria(rule, SearchConfig(seed=9, starts=30))
        b = search_equilibria(rule, SearchConfig(seed=9, starts=30))
        assert [p.vectors for p, _ in a] == [p.vectors for p, _ in b]

    def test_desk_scale_guard(self):
        with pytest.raises(GameError):
            search_equilibria(imbalanced_rps3(5), SearchConfig(seed=1))

    def test_every_result_verified(self):
        rule = imbalanced_rps(3, 2)
        cfg = SearchConfig(seed=3, starts=30)
        for prof, report in search_equilibria(rule, cfg):
            assert report.gap <= cfg.eps

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(
                lambda: odd_one_out(2),
                "ad383c0a5a2ad3c621f8e97806f2126a0c7182903763bec8798b2c558dda3c13",
                id="odd-one-out m=2",
            ),
            pytest.param(
                lambda: odd_one_out(3),
                "54e3da4c64f74297e35ddd8a765b8c91d42a5c574a98187d85760d745e9d4a70",
                id="odd-one-out m=3",
            ),
            pytest.param(
                lambda: random_table_rule(random.Random(1), 3, 3),
                "05b4665388a72fcf5b274dc84a1d9b5a535b5010ebe2f9a3ebf9e733078f98eb",
                id="random m=3 n=3 #1",
            ),
        ],
    )
    def test_results_with_exact_zero_roots_are_pinned(self, make, digest):
        # Two-object support brackets that start or end on an exact 0.0
        # payoff difference.  On odd-one-out m=2 the difference is 0.0 at
        # every grid point, so all 128 brackets do both; on the other two
        # games every such bracket has grid point 1/2 at an end.  The
        # digest covers every vector, payoff and gap bit for bit.
        found = search_equilibria(make(), SearchConfig(seed=1, starts=10))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "index, construction, seed, digest",
        [
            pytest.param(
                0, "imbalanced3 m=3", 4199094495,
                "bd2fd8cbf0a80e9ff0a5e1c6cd9b6dd4a1fa0972e2d04b9eb9b71b5f88b7e2e9",
                id="imbalanced3 m=3",
            ),
            pytest.param(
                1, "maximal3 m=3", 3271911509,
                "a75518b99826ea7fd5dfce50c6bb4b8567e57e06dcde70c94b3af4b66f0f2676",
                id="maximal3 m=3",
            ),
            pytest.param(
                2, "odd-one-out m=4", 2876545263,
                "1cbf287ca39378e59334b1e64065e8ad41e130c57dff3471c77b08c0df6f5154",
                id="odd-one-out m=4",
            ),
            pytest.param(
                3, None, 3108793766,
                "3a3a9ce23ee788a1aebc187c65824dad8a5efe138a74c2773d88ee46f9c0b041",
                id="table m=3 n=3 #1",
            ),
            pytest.param(
                4, None, 2941142065,
                "18997f388ee33ca14b0aca0b9cac5b91315c250b4bb3f9c253c76abd7ef0cc8a",
                id="table m=3 n=3 #2",
            ),
            pytest.param(
                5, None, 240332851,
                "ce01bc90def783d88059599a3c023592b9c1ba2fc80dfb836297c8882f2b6b31",
                id="table m=3 n=3 #3",
            ),
        ],
    )
    def test_search_workload_results_are_pinned(
        self, search_workload_games, index, construction, seed, digest
    ):
        # The benchmark's six search games (three random m=3, n=3 tables
        # last) with their fixed search seeds and the default 200 starts,
        # pinned before best response ran its starts in lockstep.
        game, game_seed = search_workload_games[index]
        assert (game.construction, game_seed) == (construction, seed)
        found = search_equilibria(game, SearchConfig(seed=game_seed))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def search_workload_games():
    """``perfbench/workloads.py``'s search games for benchmark seed 1; the
    seed renames the random tables' objects and changes nothing else."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look themselves up there
    return workloads.search_inputs(random.Random(1), tiny=False)["games"]


def scalar_best_response_profiles(
    rule: GameRule, cache: dict, config: SearchConfig, rng: random.Random
) -> list[list[list[float]]]:
    """Damped best-response iteration from seeded random starts.

    A start is kept once a sweep moves no component by 1e-10.  It is
    dropped after 300 sweeps that still move one by 1e-4, or as soon as
    ``vectors`` at the top of a sweep equals a copy saved at sweep 1, 2,
    4, 8, ... (Brent's cycle check).  A sweep depends on ``vectors``
    alone, so such an exact repeat replays the same sweeps forever, and
    none of them converged, so the start could never be kept.  Dropping
    it early leaves the results unchanged; starts are drawn before they
    iterate, so the random stream is unchanged too.
    """
    m, n = rule.m, rule.n
    rows = _payoff_rows(rule, cache)
    opponents = [[j for j in range(m) if j != i] for i in range(m)]
    damping = equilibrium._DAMPING
    results = []
    for _ in range(config.starts):
        vectors = [_random_simplex(rng, n) for _ in range(m)]
        change = 1.0
        saved, mark = None, 1
        for it in range(equilibrium._MAX_SWEEPS):
            if vectors == saved:
                break  # exact repeat: cycling forever, never converging
            if it == mark:
                saved, mark = vectors[:], 2 * mark  # rows are replaced, not mutated
            change = 0.0
            for i in range(m):
                # joint[j]: probability that the opponents play ordered tuple j
                joint = [1.0]
                for j in opponents[i]:
                    joint = [a * b for a in joint for b in vectors[j]]
                u = [sum(map(mul, row, joint)) for row in rows]
                cut = max(u) - 1e-12
                best = [uo >= cut for uo in u]
                share = 1.0 / sum(best)
                old = vectors[i]
                new = [
                    (1.0 - damping) * x + damping * (share if b else 0.0)
                    for x, b in zip(old, best)
                ]
                change = max(change, *map(abs, map(sub, new, old)))
                vectors[i] = new
            if change < 1e-10:
                break
            if it > 300 and change > 1e-4:
                break  # circling, not contracting; give up on this start
        if change < 1e-10:
            results.append(vectors)
    return results


def _reference_payoffs(cache, rule, vectors, player):
    others = [tuple(v) for i, v in enumerate(vectors) if i != player]
    dist = choice_count_distribution(others, rule.n)
    return [
        sum(pr * cache[counts][o] for counts, pr in dist.items())
        for o in range(rule.n)
    ]


def reference_best_response_profiles(rule, cache, config, rng):
    """Damped best response over per-update opponent count distributions."""
    m, n = rule.m, rule.n
    damping = equilibrium._DAMPING
    results = []
    for _ in range(config.starts):
        vectors = []
        for _ in range(m):
            raw = [rng.expovariate(1.0) for _ in range(n)]
            tot = sum(raw)
            vectors.append([w / tot for w in raw])
        change = 1.0
        for it in range(equilibrium._MAX_SWEEPS):
            change = 0.0
            for i in range(m):
                u = _reference_payoffs(cache, rule, vectors, i)
                top = max(u)
                best = [o for o in range(n) if u[o] >= top - 1e-12]
                share = 1.0 / len(best)
                for o in range(n):
                    target = share if o in best else 0.0
                    new = (1.0 - damping) * vectors[i][o] + damping * target
                    change = max(change, abs(new - vectors[i][o]))
                    vectors[i][o] = new
            if change < 1e-10:
                break
            if it > 300 and change > 1e-4:
                break
        if change < 1e-10:
            results.append(vectors)
    return results


def _patch_search(monkeypatch, damping, sweeps=equilibrium._MAX_SWEEPS):
    """Run the kernel and the references at ``damping`` for at most
    ``sweeps`` sweeps."""
    monkeypatch.setattr(equilibrium, "_DAMPING", damping)
    monkeypatch.setattr(equilibrium, "_MAX_SWEEPS", sweeps)


def _oracle_games():
    games = {}
    for m in (2, 3, 4):
        games[f"imbalanced3 m={m}"] = imbalanced_rps3(m)
        games[f"maximal3 m={m}"] = maximal_rps3(m)
    for m in (3, 4):
        games[f"odd-one-out m={m}"] = odd_one_out(m)
    rng = random.Random(20240607)
    for m in (2, 3, 4):
        for n in (2, 3, 4, 5):
            for copy in range(2):
                games[f"table m={m} n={n} #{copy}"] = random_table_rule(rng, m, n)
    return games


ORACLE_GAMES = _oracle_games()

# Games where best response never converges, so every start ends by the
# exact-repeat check or the give-up rule.
CYCLING_GAMES = {
    **{f"imbalanced3 m={m}": imbalanced_rps3(m) for m in (2, 3, 4)},
    "imbalanced m=3 k=2": imbalanced_rps(3, 2),
}


class TestBestResponseOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GAMES))
    def test_profiles_equal_reference(self, name):
        rule = ORACLE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=6)
        seed = sum(map(ord, name))
        got = _best_response_profiles(rule, cache, config, random.Random(seed))
        want = reference_best_response_profiles(rule, cache, config, random.Random(seed))
        assert got == want

    @pytest.mark.parametrize(
        "name", sorted(k for k, g in ORACLE_GAMES.items() if g.m * g.n <= 12)
    )
    def test_search_equals_reference(self, name, monkeypatch):
        rule = ORACLE_GAMES[name]
        config = SearchConfig(seed=sum(map(ord, name)), starts=12)
        got = search_equilibria(rule, config)
        monkeypatch.setattr(
            equilibrium, "_best_response_profiles", reference_best_response_profiles
        )
        want = search_equilibria(rule, config)
        assert got and got == want

    @pytest.mark.parametrize("max_iter", [40, 400])
    @pytest.mark.parametrize("damping", [1.0, 0.3])
    @pytest.mark.parametrize("name", sorted(CYCLING_GAMES))
    def test_cycling_games_equal_reference(self, name, damping, max_iter, monkeypatch):
        _patch_search(monkeypatch, damping, max_iter)
        rule = CYCLING_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=6)
        got = _best_response_profiles(rule, cache, config, random.Random(max_iter))
        want = reference_best_response_profiles(rule, cache, config, random.Random(max_iter))
        assert got == want


LOCKSTEP_GAMES = {**ORACLE_GAMES, **CYCLING_GAMES}

# Degenerate games: a lone player has an empty opponent joint, and a lone
# object makes every start's best set that object.
EDGE_GAMES = {
    "imbalanced3 m=3": imbalanced_rps3(3),
    "maximal3 m=3": maximal_rps3(3),
    "table m=2 n=3 #0": ORACLE_GAMES["table m=2 n=3 #0"],
    "one player": random_table_rule(random.Random(5), 1, 3),
    "one object": random_table_rule(random.Random(5), 3, 1),
}


class TestLockstepOracle:
    """The lockstep kernel against the start-by-start loop it replaced."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_GAMES))
    def test_profiles_equal_scalar_loop(self, name):
        rule = LOCKSTEP_GAMES[name]
        cache = _pure_payoff_cache(rule)
        # Of 200 starts, each leaves the batch at one of many different sweeps.
        config = SearchConfig(seed=0, starts=200 if rule.m * rule.n <= 12 else 20)
        seed = sum(map(ord, name))
        got = _best_response_profiles(rule, cache, config, random.Random(seed))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(seed))
        assert got == want

    @pytest.mark.parametrize(
        "name, damping, starts", [("table m=4 n=3 #0", 1.0, 40), ("table m=4 n=4 #0", 0.3, 10)]
    )
    def test_kept_and_dropped_starts_mixed(self, name, damping, starts, monkeypatch):
        # Starts that converge share the batch with starts that repeat
        # (the first game) or give up (the second).
        _patch_search(monkeypatch, damping)
        rule = ORACLE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=starts)
        seed = sum(map(ord, name))
        got = _best_response_profiles(rule, cache, config, random.Random(seed))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(seed))
        assert 0 < len(got) < starts and got == want

    @pytest.mark.parametrize("damping", [1.0, 0.3])
    @pytest.mark.parametrize("max_iter", [1, 2, 10_000])
    @pytest.mark.parametrize("starts", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_edges_equal_scalar_loop(self, name, starts, max_iter, damping, monkeypatch):
        _patch_search(monkeypatch, damping, max_iter)
        rule = EDGE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=starts)
        got = _best_response_profiles(rule, cache, config, random.Random(starts))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(starts))
        assert got == want
        if starts == 0:
            assert got == []


@pytest.fixture
def br_updates(monkeypatch):
    """Counts best-response updates: the kernel compares each start's
    payoff of each object against its cut once per player and sweep."""
    calls = [0]

    def counting_ge(a, b):
        calls[0] += 1
        return a >= b

    monkeypatch.setattr(equilibrium, "ge", counting_ge)
    return calls


class TestCycleCheck:
    """Best response on ``imbalanced3`` only cycles; each start must stop at
    its first exact repeat instead of running out the 302-sweep give-up rule.
    ``search_equilibria`` runs no best response at m = 3 and 4, where no
    start can settle, so the kernel is called directly."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_cycling_starts_stop_early(self, m, br_updates):
        rule = imbalanced_rps3(m)
        config = SearchConfig(seed=0, starts=20)
        kept = _best_response_profiles(rule, _pure_payoff_cache(rule), config, random.Random(0))
        sweeps_per_start = br_updates[0] / (config.starts * m * rule.n)
        assert kept == [] and 0 < sweeps_per_start < 100


# Games where no support profile is near a best response to itself, so no
# best-response start can ever be kept.
NEVER_SETTLE = {
    "imbalanced3 m=3": imbalanced_rps3(3),
    "imbalanced3 m=4": imbalanced_rps3(4),
    "imbalanced m=3 k=2": imbalanced_rps(3, 2),
}


class TestSettleSkip:
    """``search_equilibria`` runs best response only where ``_can_settle``
    finds a profile that a kept start could end at."""

    @pytest.mark.parametrize("name", sorted(NEVER_SETTLE))
    def test_skipped_where_no_start_can_settle(self, name, br_updates, monkeypatch):
        rule = NEVER_SETTLE[name]
        config = SearchConfig(seed=1, starts=20)
        got = search_equilibria(rule, config)
        assert br_updates[0] == 0
        monkeypatch.setattr(equilibrium, "_can_settle", lambda *args: True)
        want = search_equilibria(rule, config)
        assert br_updates[0] > 0 and got == want

    def test_settling_games_still_run_best_response(self, search_workload_games, br_updates):
        games = [imbalanced_rps3(2)] + [game for game, _ in search_workload_games[1:]]
        for game in games:
            before = br_updates[0]
            search_equilibria(game, SearchConfig(seed=1, starts=5))
            assert br_updates[0] > before, game.construction

    def test_imbalanced_k2_result_is_pinned(self):
        # Taken when all 200 starts still ran the full 302 sweeps.
        found = search_equilibria(imbalanced_rps(3, 2), SearchConfig(seed=1))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "7765789366f835f67dcff70eab3f4e31243fd9c7084c7c195ee17b334d992c6d"
        )


def _with_random_tables(base: dict, seed: int) -> dict:
    """``base`` plus 12 seeded random tables with m <= 4 and n <= 5."""
    games = dict(base)
    rng = random.Random(seed)
    for copy in range(12):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        games[f"random m={m} n={n} #{copy}"] = random_table_rule(rng, m, n)
    return games


SETTLE_ORACLE_GAMES = _with_random_tables(LOCKSTEP_GAMES, 20261019)


class TestSettleOracle:
    """``_can_settle`` against the scalar best-response loop: wherever a
    start is kept, the check must have allowed it."""

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("name", sorted(SETTLE_ORACLE_GAMES))
    def test_true_wherever_a_start_is_kept(self, name, damping, monkeypatch):
        _patch_search(monkeypatch, damping)
        rule = SETTLE_ORACLE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=6)
        kept = any(
            scalar_best_response_profiles(rule, cache, config, random.Random(seed))
            for seed in range(3)
        )
        assert _can_settle(rule, cache) or not kept
        if name in NEVER_SETTLE:
            assert not _can_settle(rule, cache)

    def test_slack_grows_as_damping_shrinks(self, monkeypatch):
        # Every support profile of imbalanced3 m=3 misses the condition by
        # an exact 2/3; the slack 2E reaches that near damping 3.6e-9.
        rule = imbalanced_rps3(3)
        cache = _pure_payoff_cache(rule)
        _patch_search(monkeypatch, 1e-8)
        assert not _can_settle(rule, cache)
        _patch_search(monkeypatch, 1e-9)
        assert _can_settle(rule, cache)


def _count_lock_ins(monkeypatch) -> list[int]:
    """Counts the starts ``_lock_in`` finishes without payoffs."""
    count = [0]
    make = equilibrium._lock_in

    def counting(*args):
        lock_in = make(*args)

        def wrapper(*call):
            locked, profile = lock_in(*call)
            count[0] += locked
            return locked, profile

        return wrapper

    monkeypatch.setattr(equilibrium, "_lock_in", counting)
    return count


class TestLockInOracle:
    """A start whose best sets provably stay the same single objects runs
    its remaining sweeps without payoffs; the kernel must still equal the
    scalar loop, start for start."""

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3, 0.1])
    @pytest.mark.parametrize("name", sorted(SETTLE_ORACLE_GAMES))
    def test_profiles_equal_scalar_loop(self, name, damping, monkeypatch):
        _patch_search(monkeypatch, damping)
        rule = SETTLE_ORACLE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=10)
        seed = sum(map(ord, name))
        got = _best_response_profiles(rule, cache, config, random.Random(seed))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(seed))
        assert got == want

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3, 0.1])
    def test_lock_in_fires_across_the_batch(self, damping, monkeypatch):
        _patch_search(monkeypatch, damping)
        count = _count_lock_ins(monkeypatch)
        by_players = {}
        for name, rule in SETTLE_ORACLE_GAMES.items():
            if not name.startswith(("random", "maximal3", "odd-one-out")):
                continue
            before = count[0]
            config = SearchConfig(seed=0, starts=10)
            seed = sum(map(ord, name))
            _best_response_profiles(rule, _pure_payoff_cache(rule), config, random.Random(seed))
            by_players[rule.m] = by_players.get(rule.m, 0) + count[0] - before
        assert all(by_players[m] > 10 for m in (2, 3, 4)), by_players

    def test_damping_one_locks_in_off_the_pure_profile(self, monkeypatch):
        # At damping 1 (hold 0) a start whose last best sets were tied sits
        # off its pure profile and can still lock in; none of its remaining
        # sweeps may then be skipped.
        _patch_search(monkeypatch, 1.0)
        rule = random_table_rule(random.Random(42), 3, 4)
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=10)
        got = _best_response_profiles(rule, cache, config, random.Random(42))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(42))
        assert got == want

    @pytest.mark.parametrize("name", ["maximal3 m=3", "odd-one-out m=4"])
    def test_locked_starts_skip_payoffs(self, name, br_updates):
        # Without the lock-in every start computes payoffs for about 34 sweeps.
        rule = ORACLE_GAMES[name]
        config = SearchConfig(seed=1)
        kept = _best_response_profiles(rule, _pure_payoff_cache(rule), config, random.Random(1))
        sweeps_per_start = br_updates[0] / (config.starts * rule.m * rule.n)
        assert len(kept) == config.starts and sweeps_per_start < 8

    def test_terms_in_two_opponents_can_decide(self, monkeypatch):
        # Synthetic payoff rows (own object's payoff against the three
        # opponents' counts) for a 4-player, 3-object game.  A test on
        # c0 + mu * L alone locks in a start here whose best set changes
        # later; the bound H on the terms in two or more opponents' d_j
        # rules that out.
        rows = {
            (0, 0, 3): (-1.0, -1.0, 0.0), (0, 1, 2): (-1.0, -1.0, 0.5),
            (0, 2, 1): (-1.0, -2.4, -2.6), (0, 3, 0): (0.0, -0.5, -3.0),
            (1, 0, 2): (1.0, 1.6, 1.0), (1, 1, 1): (-3.0, 2.0, 0.5),
            (1, 2, 0): (1.0, -1.0, 2.35), (2, 0, 1): (-3.0, 1.0, -1.0),
            (2, 1, 0): (0.5, -3.0, 2.0), (3, 0, 0): (2.0, 1.0, -3.0),
        }
        _patch_search(monkeypatch, 0.3, 400)
        count = _count_lock_ins(monkeypatch)
        rule = ORACLE_GAMES["table m=4 n=3 #0"]  # only its m and n are read
        config = SearchConfig(seed=0, starts=30)
        got = _best_response_profiles(rule, rows, config, random.Random(383))
        want = scalar_best_response_profiles(rule, rows, config, random.Random(383))
        assert got == want and count[0] > 0

    @pytest.mark.parametrize(
        "damping, max_iter, kept",
        [
            (0.5, 3, 0), (0.5, 20, 0), (0.3, 40, 0), (0.1, 40, 0),
            (0.5, 10_000, 30), (0.01, 10_000, 0),
        ],
    )
    def test_cap_and_give_up_mid_finish(self, damping, max_iter, kept, monkeypatch):
        # Locked starts run out of sweeps at the cap or, at damping 0.01,
        # still move 1e-4 after sweep 300 and are given up, as in the
        # scalar loop.
        _patch_search(monkeypatch, damping, max_iter)
        count = _count_lock_ins(monkeypatch)
        rule = ORACLE_GAMES["maximal3 m=3"]
        cache = _pure_payoff_cache(rule)
        config = SearchConfig(seed=0, starts=30)
        got = _best_response_profiles(rule, cache, config, random.Random(max_iter))
        want = scalar_best_response_profiles(rule, cache, config, random.Random(max_iter))
        assert got == want and len(got) == kept and count[0] > 0


EXCLUSION_GAMES = _with_random_tables(ORACLE_GAMES, 20261020)


def _supports(n):
    return [s for size in range(2, n + 1) for s in combinations(range(n), size)]


def _excluded_supports(games):
    return {
        (name, support)
        for name, rule in games.items()
        for cache in [_pure_payoff_cache(rule)]
        for support in _supports(rule.n)
        if equilibrium._gaps_keep_a_sign(rule, support, cache)
    }


def _bernstein_value(coeffs, mu, degree):
    """Each entry of sum_a coeffs[a] (degree choose a) mu^a, exactly."""
    total = None
    for a, d in coeffs.items():
        weight = Fraction(math.factorial(degree))
        for x, k in zip(mu, a):
            weight *= x**k / math.factorial(k)
        terms = [weight * v for v in d]
        total = terms if total is None else list(map(sum, zip(total, terms)))
    return total


def _exact_gaps(rule, support, cache, point):
    """u_o - u_last on ``support`` against opponents all mixing by ``point``,
    from the count distribution and the exact values of the float rows."""
    v = [Fraction(0)] * rule.n
    for o, p in zip(support, point):
        v[o] = p
    u = [Fraction(0)] * rule.n
    for counts, pr in choice_count_distribution([tuple(v)] * (rule.m - 1), rule.n).items():
        for o, r in enumerate(cache[counts]):
            u[o] += pr * Fraction(r)
    return [u[o] - u[support[-1]] for o in support[:-1]]


class TestSupportExclusion:
    """``_gaps_keep_a_sign`` skips a symmetric support whose payoff
    differences provably never all vanish; the scan or Newton it skips
    must find nothing there, and the random stream must not notice."""

    @pytest.mark.parametrize("name", sorted(EXCLUSION_GAMES))
    def test_excluded_supports_hold_no_root(self, name, monkeypatch):
        rule = EXCLUSION_GAMES[name]
        cache = _pure_payoff_cache(rule)
        for support in _supports(rule.n):
            if not equilibrium._gaps_keep_a_sign(rule, support, cache):
                continue
            candidates = equilibrium._symmetric_support_candidates
            rng = random.Random(repr(support))
            assert candidates(rule, support, cache, rng) == []
            with monkeypatch.context() as patch:
                patch.setattr(equilibrium, "_gaps_keep_a_sign", lambda *args: False)
                unguarded = random.Random(repr(support))
                assert candidates(rule, support, cache, unguarded) == []
            assert rng.getstate() == unguarded.getstate()

    @pytest.mark.parametrize("gap, excluded", [(5e-13, False), (1e-6, True)])
    def test_gaps_within_the_root_tolerance_are_kept(self, gap, excluded):
        # Payoff rows with u_0 - u_2 = u_1 - u_2 = gap against every
        # opponent: Newton takes any point with all gaps below 1e-12 as a
        # root, so only a gap beyond that, plus the float margin, may
        # exclude the support.
        rule = imbalanced_rps3(2)
        cache = {counts: (gap, gap, 0.0) for counts in _pure_payoff_cache(rule)}
        support = (0, 1, 2)
        assert equilibrium._gaps_keep_a_sign(rule, support, cache) == excluded
        found = equilibrium._symmetric_support_candidates(rule, support, cache, random.Random(0))
        assert (found == []) == excluded

    def test_batch_reach(self):
        excluded = {
            size: sum(
                equilibrium._gaps_keep_a_sign(rule, s, _pure_payoff_cache(rule))
                for rule in EXCLUSION_GAMES.values()
                for s in _supports(rule.n)
                if len(s) == size
            )
            for size in (2, 3, 4)
        }
        assert all(excluded[size] > 0 for size in (2, 3, 4)), excluded

    def test_subdivision_reaches_past_the_root_cell(self, monkeypatch):
        # Halving the face proves supports of every size that the whole
        # face's test alone leaves to the scan or Newton, so the batch check
        # above runs the unguarded search on cells' proofs too.
        cells = _excluded_supports(EXCLUSION_GAMES)
        monkeypatch.setattr(equilibrium, "_EXCLUSION_DEPTH", 0)
        root = _excluded_supports(EXCLUSION_GAMES)
        assert root < cells
        assert {len(s) for _, s in cells - root} == {2, 3, 4}

    def test_benchmark_reach(self, search_workload_games):
        # Every full support but imbalanced3's and odd-one-out's, which hold
        # the symmetric equilibria; Newton ran for nothing on maximal3's
        # (1,404 payoff evaluations) and on the three tables'.  And 12 of the
        # 16 two-object supports.
        pairs = 0
        for game, _ in search_workload_games:
            cache = _pure_payoff_cache(game)
            pairs += sum(
                equilibrium._gaps_keep_a_sign(game, pair, cache)
                for pair in combinations(range(game.n), 2)
            )
            full = equilibrium._gaps_keep_a_sign(game, tuple(range(game.n)), cache)
            holds_root = game.construction in ("imbalanced3 m=3", "odd-one-out m=4")
            assert full != holds_root, game.construction
        assert pairs == 12

    @pytest.mark.parametrize(
        "rule, support",
        [
            *[(imbalanced_rps3(m), (0, 1, 2)) for m in (2, 3, 4)],
            (odd_one_out(4), (0, 1)),
        ],
        ids=["imbalanced3 m=2", "imbalanced3 m=3", "imbalanced3 m=4", "odd-one-out m=4"],
    )
    def test_supports_holding_a_root_are_kept(self, rule, support):
        cache = _pure_payoff_cache(rule)
        assert not equilibrium._gaps_keep_a_sign(rule, support, cache)
        found = equilibrium._symmetric_support_candidates(rule, support, cache, random.Random(0))
        assert found

    @pytest.mark.parametrize(
        "name", ["imbalanced3 m=4", "table m=2 n=5 #0", "table m=3 n=4 #1", "table m=4 n=5 #1"]
    )
    def test_halves_keep_the_polynomial(self, name):
        # Seeded halvings, either vertex order, down to a cell four deep:
        # its coefficients over their scale, at seeded rational points of
        # the cell, equal the payoff differences at the same face point.
        rule = ORACLE_GAMES[name]
        cache = _pure_payoff_cache(rule)
        degree = rule.m - 1
        rng = random.Random(name)
        for support in _supports(rule.n):
            size = len(support)
            coeffs, scale = equilibrium._face_coefficients(rule, support, cache)
            verts = [[Fraction(int(k == v)) for k in range(size)] for v in range(size)]
            for _ in range(4):
                i, j = rng.sample(range(size), 2)
                mid = [(x + y) / 2 for x, y in zip(verts[i], verts[j])]
                half = rng.randrange(2)
                coeffs = equilibrium._face_halves(coeffs, i, j, degree)[half]
                verts[(j, i)[half]] = mid
                scale <<= degree
            for _ in range(3):
                raw = [rng.randint(1, 9) for _ in range(size)]
                mu = [Fraction(r, sum(raw)) for r in raw]
                point = [sum(w * v[k] for w, v in zip(mu, verts)) for k in range(size)]
                got = [x / scale for x in _bernstein_value(coeffs, mu, degree)]
                assert got == _exact_gaps(rule, support, cache, point), (support, point)

    @pytest.mark.parametrize("depth", [0, 1, 2, 6])
    def test_gaps_vanishing_at_a_vertex_give_up_at_the_cap(self, depth, monkeypatch):
        # Against opponents all on object 1, the face's second vertex, every
        # gap is 0: each cell holding that vertex keeps a zero coefficient,
        # so halving never proves it, and the prover stops at the cap.
        rule = imbalanced_rps3(3)
        rng = random.Random(depth)
        cache = {
            counts: tuple(rng.choice((-1.0, 2.0)) for _ in range(3))
            for counts in _pure_payoff_cache(rule)
        }
        cache[0, 2, 0] = (0.5, 0.5, 0.5)
        halvings = []
        halves = equilibrium._face_halves
        monkeypatch.setattr(equilibrium, "_EXCLUSION_DEPTH", depth)
        monkeypatch.setattr(
            equilibrium, "_face_halves", lambda *args: halvings.append(args) or halves(*args)
        )
        assert not equilibrium._gaps_keep_a_sign(rule, (0, 1, 2), cache)
        assert depth <= len(halvings) <= 2**depth - 1


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("starts", -1),
            ("eps", 0.0),
            ("eps", -1e-9),
            ("eps", math.inf),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(GameError, match=field):
            SearchConfig(seed=1, **{field: value})

    def test_edges_accepted(self):
        config = SearchConfig(seed=1, starts=0)
        assert config.starts == 0

    def test_no_starts_still_searches_symmetric_supports(self):
        found = search_equilibria(imbalanced_rps3(2), SearchConfig(seed=5, starts=0))
        assert found and all(p.symmetric for p, _ in found)


class TestPlayability:
    def test_imbalanced_three_is_playable(self):
        rule = imbalanced_rps3(3)
        found = search_equilibria(rule, SearchConfig(seed=2, starts=40))
        report = classify_playability(rule, [p for p, _ in found], k=1)
        assert report.playable
        assert report.no_counterexample_to_strong
        assert not report.exhaustive

    def test_two_playable_in_s(self):
        rule = imbalanced_rps3(3)
        found = search_equilibria(rule, SearchConfig(seed=2, starts=40))
        report = classify_playability(rule, [p for p, _ in found], k=2)
        assert report.k_playable

    def test_dominated_object_never_playable(self):
        # build a game where object 0 loses every mixed multiset
        from rps_forge.core import GameRule, TableRule, all_tie, enumerate_multisets, win

        m, n = 3, 3
        table = {}
        for size in range(1, m + 1):
            for counts, _ in enumerate_multisets(n, size):
                support = [i for i, c in enumerate(counts) if c]
                if len(support) == 1:
                    table[counts] = all_tie(size)
                else:
                    o = max(i for i in support if i != 0) if support != [0] else 0
                    table[counts] = win(o, counts[o])
        rule = GameRule(
            m=m,
            labels=("dud", "x", "y"),
            winner_fn=TableRule(table),
            table_sizes=frozenset(range(1, m + 1)),
        )
        found = search_equilibria(rule, SearchConfig(seed=4, starts=40))
        report = classify_playability(rule, [p for p, _ in found], k=1)
        assert found and not report.playable

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k_rejected(self, k):
        # Once k_playable=True beside playable=False for the pure-P profile.
        rule = imbalanced_rps3(3)
        profile = symmetric_profile((0.0, 1.0, 0.0), 3)
        with pytest.raises(GameError, match=f"k must be >= 1, got {k}"):
            classify_playability(rule, [profile], k=k)

    def test_empty_list_reports_nothing(self):
        report = classify_playability(imbalanced_rps3(3), [], k=1)
        assert not report.playable and not report.weakly_playable

    def test_player_count_mismatch_rejected(self):
        # Once classified as if it were a profile of the 3-player game.
        with pytest.raises(GameError, match="profile has 4 players, game has 3"):
            classify_playability(imbalanced_rps3(3), [uniform_profile(imbalanced_rps3(4))])

    def test_object_count_mismatch_rejected(self):
        # Once an IndexError.
        profile = symmetric_profile((Fraction(1, 5),) * 5, 3)
        with pytest.raises(GameError, match="profile has 5 entries for 3 objects"):
            classify_playability(imbalanced_rps3(3), [profile])
