"""Equilibrium computation: exact payoffs, the symmetric solver, and the
seeded search.

``_payoff_table`` holds every payoff of a game once, as integers over one
common scale, and its float view must equal each exact payoff converted to
float, bit for bit.  ``_uniform_support_equilibria`` must equal, as a set,
a brute force over every ordered profile of supports that checks each
player's best set with exact ``expected_payoff`` values, and must hold,
within 1e-6, every profile that damped best response (the search's former
asymmetric stage, kept here as a test-side loop) keeps.  Sha256 pins of
``search_equilibria`` output cover the benchmark's six search games.
Supports that ``_unproved_cells`` proves root-free from the exact payoff
differences must hold nothing Newton finds from starts spread over the
whole face, the search must start Newton once in each cell it leaves, and
the verdicts on a seeded batch are pinned.  Newton's f and Jacobian come
from the same exact Bernstein coefficients: f must lie within the
exclusion's float margin of the exact value, and the Jacobian must be
the exact derivative up to rounding.  The search verifies its candidates
from its own table: every report must equal ``nash_gap``'s bit for bit,
and a candidate that is no equilibrium must be dropped, also when the
candidates share one memo of payoff vectors and per-object views.  A
vector of ints and ``Fraction``s is checked as a distribution in
integers, with the verdict and message of the float checks.
"""

import hashlib
import importlib.util
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import mul, sub
from pathlib import Path

import pytest
from conftest import random_table_rule

from rps_forge import equilibrium
from rps_forge.construct import imbalanced_rps, imbalanced_rps3, maximal_rps3, odd_one_out
from rps_forge.core import GameError, enumerate_multisets
from rps_forge.equilibrium import (
    MixedProfile,
    SearchConfig,
    _payoff_table,
    _uniform_support_equilibria,
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
from rps_forge.imbalance import nash_ties_imbalance


def float_rows(rule):
    """``_payoff_table`` as floats, each x / scale: the payoffs best
    response read."""
    rows, scale = _payoff_table(rule)
    return {counts: tuple(x / scale for x in row) for counts, row in rows.items()}


def cell_starts(rule, support, rng):
    """The search's Newton starts on ``support``: one seeded point in each
    of its unproved cells."""
    cells = equilibrium._unproved_cells(rule, support, *_payoff_table(rule))
    return equilibrium._cell_starts(cells, rng)


def whole_face_starts(size, rng):
    """The search's Newton starts before they came from the unproved cells:
    the face's centre and 24 seeded random points of the whole face."""
    return [[1.0 / size] * size] + [equilibrium._random_simplex(rng, size) for _ in range(24)]


def uniform_support_equilibria(rule):
    """``_uniform_support_equilibria`` on the integer rows of ``rule``'s table."""
    return _uniform_support_equilibria(rule, _payoff_table(rule)[0])


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

    def test_unprintable_negative_entry_rejected(self):
        # 10**5000 has more digits than Python converts to a string by default
        with pytest.raises(GameError) as err:
            MixedProfile(((-(10**5000), 0),))
        assert str(err.value) == "negative probability in (-<16610-bit integer>, 0)"

    def test_fraction_vectors_unaffected(self):
        v = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
        p = MixedProfile(vectors=(v, v, (Fraction(0), Fraction(1), Fraction(0))))
        assert p.vectors[0] == v and not p.symmetric


BIG = 10**13 + 1
ONE_THIRD, ONE_SEVENTH = Fraction(1, 3), Fraction(1, 7)
# Entries are ints and Fractions, so each takes the integer check.
EXACT_ACCEPTED = [
    pytest.param((ONE_THIRD,) * 3, id="thirds, sum 1"),
    pytest.param((ONE_SEVENTH, 2 * ONE_SEVENTH, 4 * ONE_SEVENTH), id="sevenths, sum 1"),
    pytest.param((Fraction(1, BIG), Fraction(BIG - 1, BIG), 0), id="denominator 10**13+1"),
    pytest.param((ONE_THIRD, ONE_THIRD, ONE_THIRD + Fraction(1, 10**13)), id="sum 1 + 1e-13"),
    pytest.param((ONE_THIRD, ONE_THIRD, ONE_THIRD - Fraction(1, 10**13)), id="sum 1 - 1e-13"),
    pytest.param((1, 0, 0), id="one-hot int"),
    pytest.param((0, 0, 1), id="one-hot int, last"),
    pytest.param((Fraction(1, 2), 0, Fraction(1, 2)), id="mixed int and Fraction"),
    pytest.param((Fraction(0), Fraction(1), Fraction(0)), id="Fraction zeros"),
]
EXACT_REJECTED = [
    pytest.param((ONE_THIRD, ONE_THIRD, ONE_THIRD + Fraction(1, 10**11)), id="sum 1 + 1e-11"),
    pytest.param((ONE_THIRD, ONE_THIRD, ONE_THIRD - Fraction(1, 10**11)), id="sum 1 - 1e-11"),
    pytest.param((Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)), id="negative Fraction"),
    pytest.param((ONE_SEVENTH, ONE_THIRD, 0), id="sevenths and thirds, sum 10/21"),
    pytest.param((Fraction(10**13, BIG), Fraction(10**13, BIG), 0), id="denominator 10**13+1, sum 2"),
    pytest.param((1, 1, 0), id="two-hot int"),
    pytest.param((0, 0, 0), id="int zeros"),
    pytest.param((Fraction(1, 2), 0, Fraction(0)), id="mixed int and Fraction, sum 1/2"),
]


def float_check_message(v):
    """The message the checks built from float values before the integer
    check: the negative entry, or the float of the exact sum."""
    if any(p < 0 for p in v):
        return f"negative probability in {v}"
    return f"probabilities sum to {float(sum(v))}, not 1"


def exact_check_sites(v):
    """Every public caller of the distribution check, on the vector ``v``
    of three entries."""
    yield lambda: MixedProfile((v,))
    yield lambda: expected_winner_count(v, imbalanced_rps3(3))
    yield lambda: nash_ties_imbalance([v], 3)


class TestExactDistributionCheck:
    """Vectors of ints and ``Fraction``s are checked in integers over one
    denominator; verdicts and messages must be those of the float checks."""

    @pytest.mark.parametrize("v", EXACT_ACCEPTED)
    def test_accepted(self, v):
        assert abs(float(sum(v)) - 1.0) <= equilibrium.PROB_SUM_TOL
        for call in exact_check_sites(v):
            call()

    @pytest.mark.parametrize("v", EXACT_REJECTED)
    def test_rejected_with_the_float_message(self, v):
        for call in exact_check_sites(v):
            with pytest.raises(GameError) as info:
                call()
            assert str(info.value) == float_check_message(v)

    @pytest.mark.parametrize(
        "call",
        [
            # Each once raised OverflowError from a float conversion.
            pytest.param(lambda: MixedProfile(((Fraction(10**400), Fraction(0)),)), id="MixedProfile"),
            pytest.param(lambda: MixedProfile(((10**400, 0.0),)), id="MixedProfile, int and float"),
            pytest.param(
                lambda: MixedProfile(((Fraction(10**308), Fraction(10**308)),)), id="MixedProfile, sum"
            ),
            pytest.param(
                lambda: expected_winner_count((10**400, 0, 0), imbalanced_rps3(3)),
                id="expected_winner_count",
            ),
            pytest.param(lambda: nash_ties_imbalance([(10**400, 0)], 2), id="nash_ties_imbalance"),
            # More digits than an int may print: the message leaves the vector out.
            pytest.param(lambda: MixedProfile(((10**5000, 0),)), id="MixedProfile, 5001 digits"),
        ],
    )
    def test_beyond_the_float_range_rejected(self, call):
        with pytest.raises(GameError, match="exceed the float range"):
            call()


class TestChoiceCountDistribution:
    @pytest.mark.parametrize(
        "vectors, length",
        [
            pytest.param([(0.5,)], 1, id="short"),
            pytest.param([(1.0, 0.0, 0.0)], 3, id="long, extra entry zero"),
            pytest.param([(0.5, 0, 0.5)], 3, id="long, extra entry nonzero"),
        ],
    )
    def test_vector_length_must_be_n(self, vectors, length):
        with pytest.raises(GameError, match=f"vector has {length} entries for 2 objects"):
            choice_count_distribution(vectors, 2)


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

    @pytest.mark.parametrize(
        "make, supports",
        [
            pytest.param(lambda: imbalanced_rps3(3), [(0,), (1,), (1,)], id="pure"),
            pytest.param(
                lambda: random_table_rule(random.Random(5), 4, 4),
                [(0, 1), (1, 2, 3), (0, 1), (0, 3)],
                id="asymmetric mixed",
            ),
            pytest.param(lambda: imbalanced_rps(3, 2), [(0, 2, 4)] * 3, id="symmetric"),
        ],
    )
    def test_uniform_support_fraction_profile(self, make, supports):
        # The exact vectors whose count weights nash_gap convolves in
        # integers; players 0 and 2 of the mixed profile share one vector
        # object, and its last vector writes its zeros as int 0.
        rule = make()
        vector = {s: tuple(Fraction(int(o in s), len(s)) for o in range(rule.n)) for s in supports}
        vectors = [vector[s] for s in supports]
        if len(set(supports)) > 2:
            vectors[-1] = tuple(p if p else 0 for p in vectors[-1])
        profile = MixedProfile(vectors=tuple(vectors), symmetric=len(set(supports)) == 1)
        assert nash_gap(rule, profile) == reference_nash_gap(rule, profile)

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
        # exactly 0.0 at every grid point, so each of the 128 pairs is a
        # bracket: a zero ends one and, as the next lo, counts as
        # nonpositive.  solve_symmetric_rps3 bisects from these brackets.
        rule = odd_one_out(2)

        def gap(x):
            u = nash_gap(rule, symmetric_profile((x, 1 - x), 2)).payoffs[0]
            return u[0] - u[1]

        got = list(equilibrium._sign_changes(gap, (i / 128 for i in range(129))))
        assert got == [(i / 128, 0.0, (i + 1) / 128) for i in range(128)]


def reference_winner_count(v, rule):
    """``expected_winner_count`` summed with one product per multiset in the
    vector's own number type, skipping outcomes of probability zero."""
    from rps_forge.core import eval_outcome

    total = 0
    for counts, weight in enumerate_multisets(rule.n, rule.m):
        pr = weight
        for o, c in enumerate(counts):
            if c:
                pr = pr * v[o] ** c
        if pr != 0:
            total += pr * eval_outcome(rule, counts).winner_count
    return total


class TestExpectedWinnerCount:
    def test_pure_monoset_profile(self):
        rule = imbalanced_rps3(5)
        assert expected_winner_count((0, 1, 0), rule) == 5

    @pytest.mark.parametrize(
        "vector, kind",
        [
            ((0, 1, 0), int),
            ((1, 0, 0), int),
            ((1, Fraction(0), 0), int),  # a Fraction zero leaves the sum in ints
            ((Fraction(0), Fraction(1), Fraction(0)), Fraction),
            ((Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000)), Fraction),
            ((Fraction(1, 7), Fraction(2, 9), Fraction(40, 63)), Fraction),
            ((Fraction(1, 2), 0, Fraction(1, 2)), Fraction),
            ((0.142, 0.85, 0.008), float),
            ((0.5, Fraction(1, 4), 0.25), float),
            ((1.0, 0, 0), float),
        ],
    )
    def test_value_and_type_match_the_generic_sum(self, vector, kind):
        for m in (2, 3, 7, 20):
            rule = imbalanced_rps3(m)
            got = expected_winner_count(vector, rule)
            want = reference_winner_count(vector, rule)
            assert type(got) is type(want) is kind
            assert got == want
            if kind is float:
                assert got.hex() == want.hex()

    def test_solver_point_matches_the_generic_sum_bit_for_bit(self):
        for m in (2, 5, 12, 20):
            v = solve_symmetric_rps3(m).as_vector()
            got = expected_winner_count(v, imbalanced_rps3(m))
            assert got.hex() == reference_winner_count(v, imbalanced_rps3(m)).hex()

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
        found = search_equilibria(rule, SearchConfig(seed=5))
        assert any(
            max(abs(p - 1 / 3) for p in prof.vectors[0]) < 1e-6
            for prof, _ in found
        )

    def test_seeded_reproducibility(self):
        rule = imbalanced_rps3(3)
        a = search_equilibria(rule, SearchConfig(seed=9))
        b = search_equilibria(rule, SearchConfig(seed=9))
        assert [p.vectors for p, _ in a] == [p.vectors for p, _ in b]

    def test_desk_scale_guard(self):
        with pytest.raises(GameError):
            search_equilibria(imbalanced_rps3(5), SearchConfig(seed=1))

    def test_every_result_verified(self):
        rule = imbalanced_rps(3, 2)
        cfg = SearchConfig(seed=3)
        for prof, report in search_equilibria(rule, cfg):
            assert report.gap <= cfg.eps

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(
                lambda: odd_one_out(2),
                "10938be7c27da82cb6b83c0ebf765e6ff3ed6b536f1f814a5cfa0c00a440607c",
                id="odd-one-out m=2",
            ),
            pytest.param(
                lambda: odd_one_out(3),
                "707ec5645f0c00cfa0363bdbeef9894fa4983873913dd8f370f643267ddb140f",
                id="odd-one-out m=3",
            ),
            pytest.param(
                lambda: random_table_rule(random.Random(1), 3, 3),
                "f8a47a28804e783a45e80ebb6352b6899ec0d9615b50717f83166cf357d7bf84",
                id="random m=3 n=3 #1",
            ),
        ],
    )
    def test_results_with_exact_zero_roots_are_pinned(self, make, digest):
        # Games with exact 0.0 payoff differences on two-object supports.
        # On odd-one-out m=2 the difference on {a, b} vanishes identically,
        # so all 64 cells there are unproved and Newton's start in each is
        # a root at once: one verified result per cell.  The digest covers
        # every vector, payoff and gap bit for bit.
        found = search_equilibria(make(), SearchConfig(seed=1))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "index, construction, seed, digest",
        [
            pytest.param(
                0, "imbalanced3 m=3", 4199094495,
                "26362eee3f36f0bf69cd497de96f11f7b7589033dd82cf4bbfb8c2ee9b4dd91b",
                id="imbalanced3 m=3",
            ),
            pytest.param(
                1, "maximal3 m=3", 3271911509,
                "ca8ecdc2d8c0e425a5c217aecc92c992fdb5f7f2f41bc4a3259115f97ec11276",
                id="maximal3 m=3",
            ),
            pytest.param(
                2, "odd-one-out m=4", 2876545263,
                "3725ac7a6395bf569d2882010a3a4efc04acbd745fefe81b32ccc752852f6704",
                id="odd-one-out m=4",
            ),
            pytest.param(
                3, None, 3108793766,
                "f9acc65803f8ddfdf464827a3c4c279f370dbcb52f6fe7180839fd9ee39115fd",
                id="table m=3 n=3 #1",
            ),
            pytest.param(
                4, None, 2941142065,
                "a2c8940c12fb28de483ba5662720e03dbd61a295a93fb37ac34eef7a382f32a8",
                id="table m=3 n=3 #2",
            ),
            pytest.param(
                5, None, 240332851,
                "a309c4c4d0a6bd68ddcfe104c48d41be29d5b887b740a8fd241e52288e60a046",
                id="table m=3 n=3 #3",
            ),
        ],
    )
    def test_search_workload_results_are_pinned(
        self, search_workload_games, index, construction, seed, digest
    ):
        # The benchmark's six search games (three random m=3, n=3 tables
        # last) with their fixed search seeds, pinned when the exact
        # uniform-support enumeration replaced damped best response.
        # imbalanced3's root moved in its last bits when Newton's starts
        # came to lie in the unproved cells, and again (by 2.2e-16) when
        # Newton came to read the face's exact Bernstein form.
        game, game_seed = search_workload_games[index]
        assert (game.construction, game_seed) == (construction, seed)
        found = search_equilibria(game, SearchConfig(seed=game_seed))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_exact_profile_wins_the_dedup(self):
        # Newton roots the full support of imbalanced3 m=2 at a float point
        # within 1e-6 of (1/3, 1/3, 1/3), which the enumeration finds exactly.
        rule = imbalanced_rps3(2)
        support = (0, 1, 2)
        starts = cell_starts(rule, support, random.Random(5))
        roots = equilibrium._symmetric_support_candidates(rule, support, *_payoff_table(rule), starts)
        assert roots and all(max(abs(p - 1 / 3) for p in v) < 1e-6 for v in roots)
        found = search_equilibria(rule, SearchConfig(seed=5))
        assert [p.vectors for p, _ in found] == [((Fraction(1, 3),) * 3,) * 2]

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_census_table_3_gives_both_full_support_roots(self, seed):
        # The fourth table drawn from Random(878), m = 4, n = 5, holds two
        # symmetric roots on its full support.  Newton's 25 starts spread
        # over the whole face missed the first at seed 1; a start in each
        # unproved cell finds both at every seed.
        rng = random.Random(878)
        for _ in range(4):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            rule = random_table_rule(rng, m, n)
        assert (m, n) == (4, 5)
        found = [
            p.vectors[0]
            for p, _ in search_equilibria(rule, SearchConfig(seed=seed))
            if p.symmetric and min(p.vectors[0]) > 0
        ]
        roots = [(0.3228, 0.3784, 0.2462, 0.0469, 0.0058), (0.3140, 0.3745, 0.2179, 0.0453, 0.0482)]
        for root in roots:
            assert sum(max(map(abs, map(sub, v, root))) < 5e-5 for v in found) == 1, root


@pytest.fixture(scope="module")
def search_workload_games():
    """``perfbench/workloads.py``'s search games for benchmark seed 1; the
    seed renames the random tables' objects and changes nothing else."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look themselves up there
    return workloads.search_inputs(random.Random(1), tiny=False)["games"]


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

NAMED_GAMES = {
    **{name: rule for name, rule in ORACLE_GAMES.items() if not name.startswith("table")},
    "imbalanced m=3 k=2": imbalanced_rps(3, 2),
}


def _small_tables(seed: int) -> dict:
    """12 seeded random tables with m <= 3 and n <= 4."""
    rng = random.Random(seed)
    games = {}
    for copy in range(12):
        m, n = rng.randint(2, 3), rng.randint(2, 4)
        games[f"small m={m} n={n} #{copy}"] = random_table_rule(rng, m, n)
    return games


ENUMERATION_GAMES = {
    **NAMED_GAMES,
    **_small_tables(20261021),
    "table m=4 n=5": random_table_rule(random.Random(2), 4, 5),
}


def ordered_uniform_support_equilibria(rule):
    """Reference: every ordered profile of supports, each player uniform on
    its own, in which every player's support lies in its best set by exact
    ``expected_payoff``.  A player's payoffs are taken once per sorted
    opponents' tuple, as the game is symmetric."""
    n = rule.n
    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    vector = {s: tuple(Fraction(int(o in s), len(s)) for o in range(n)) for s in supports}
    best_sets = {}

    def best(opponents):
        key = tuple(sorted(opponents))
        if key not in best_sets:
            profile = MixedProfile(tuple(vector[s] for s in (supports[0],) + key))
            u = [expected_payoff(rule, profile, 0, o) for o in range(n)]
            best_sets[key] = {o for o in range(n) if u[o] == max(u)}
        return best_sets[key]

    return {
        tuple(vector[s] for s in profile)
        for profile in product(supports, repeat=rule.m)
        if all(
            best(profile[:i] + profile[i + 1 :]).issuperset(s) for i, s in enumerate(profile)
        )
    }


class TestUniformSupportEquilibria:
    @pytest.mark.parametrize("name", sorted(ENUMERATION_GAMES))
    def test_equals_ordered_brute_force(self, name):
        rule = ENUMERATION_GAMES[name]
        got = uniform_support_equilibria(rule)
        assert len(set(got)) == len(got)
        assert set(got) == ordered_uniform_support_equilibria(rule)

    def test_two_mixer_orderings_are_found(self):
        # Table #9 of 36 tables drawn from Random(878), m = 3, n = 3: damped
        # best response kept the orderings of (0, 1/2, 1/2), (1, 0, 0) and
        # (1/3, 1/3, 1/3), the only ones it found with two players mixing.
        rng = random.Random(878)
        for _ in range(10):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            rule = random_table_rule(rng, m, n)
        assert (m, n) == (3, 3)
        half, pure, third = Fraction(1, 2), Fraction(1), Fraction(1, 3)
        mixers = ((0, half, half), (pure, 0, 0), (third, third, third))
        found = [p.vectors for p, _ in search_equilibria(rule, SearchConfig(seed=1))]
        assert set(permutations(mixers)) <= set(found)


REPORT_GAMES = {
    **NAMED_GAMES,
    **{
        f"table m={m} n={n} Random({seed})": random_table_rule(random.Random(seed), m, n)
        for seed, m, n in ((1, 2, 5), (2, 3, 4), (3, 4, 3), (4, 4, 4), (5, 3, 5))
    },
}


class TestVerifyFromTable:
    """The search verifies its candidates from its own exact payoff table;
    each report must be ``nash_gap``'s, bit for bit."""

    @pytest.mark.parametrize("name", sorted(REPORT_GAMES))
    def test_reports_equal_nash_gap(self, name):
        rule = REPORT_GAMES[name]
        found = search_equilibria(rule, SearchConfig(seed=1))
        assert found
        for profile, report in found:
            assert report == nash_gap(rule, profile)

    def test_benchmark_reports_equal_nash_gap(self, search_workload_games):
        for game, seed in search_workload_games:
            for profile, report in search_equilibria(game, SearchConfig(seed=seed)):
                assert report == nash_gap(game, profile)

    def test_non_equilibrium_candidates_are_rejected(self, monkeypatch):
        rule = maximal_rps3(3)
        want = [(p.vectors, r) for p, r in search_equilibria(rule, SearchConfig(seed=1))]
        one, zero = Fraction(1), Fraction(0)
        r, p = (one, zero, zero), (zero, one, zero)
        third = (Fraction(1, 3),) * 3
        bad = [(r, p, p), (p, p, p), (third, r, third)]
        for cand in bad:
            assert not nash_gap(rule, MixedProfile(cand)).is_eps_nash(1e-3)
        enumerate_exact = equilibrium._uniform_support_equilibria
        monkeypatch.setattr(
            equilibrium, "_uniform_support_equilibria", lambda rule, rows: bad + enumerate_exact(rule, rows)
        )
        got = [(p.vectors, r) for p, r in search_equilibria(rule, SearchConfig(seed=1))]
        assert got == want


class TestGapReportMemo:
    """``_gap_report`` keeps one memo across candidates, keyed by vector
    object; reusing it must never change a report."""

    @pytest.mark.parametrize("rule", [imbalanced_rps3(2), maximal_rps3(3)], ids=["m=2", "m=3"])
    def test_shared_memo_reports_equal_fresh_nash_gap(self, rule):
        half = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        pool = [
            half,
            tuple(list(half)),  # an equal copy, a separate object
            (0.5, 0.5, 0.0),  # floats equal in value to ``half``
            (Fraction(1, 3),) * 3,
            (0, 1, 0),
        ]
        assert pool[1] is not half and pool[1] == half == pool[2]
        # Each vector object at every player position, across candidates.
        cands = list(product(pool, repeat=rule.m))
        row = float_rows(rule).__getitem__
        memo = {}
        for cand in cands + cands[::-1]:
            got = equilibrium._gap_report(cand, rule.n, row, memo)
            assert got == nash_gap(rule, MixedProfile(cand))
        views = [memo[id(v)] for v in pool]
        assert views[0] is not views[1] and views[0] == views[1]
        assert views[2] == (pool[2], None)
        assert views[0] == (pool[2], ((1, 1, 0), 2))


def _with_random_tables(base: dict, seed: int) -> dict:
    """``base`` plus 12 seeded random tables with m <= 4 and n <= 5."""
    games = dict(base)
    rng = random.Random(seed)
    for copy in range(12):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        games[f"random m={m} n={n} #{copy}"] = random_table_rule(rng, m, n)
    return games


def _payoff_rows(rule, floats):
    """``rows[o][j]``: payoff of own object ``o`` against the j-th ordered
    tuple of opponent objects, tuples in ``itertools.product`` order."""
    keys = []
    for picks in product(range(rule.n), repeat=rule.m - 1):
        counts = [0] * rule.n
        for o in picks:
            counts[o] += 1
        keys.append(tuple(counts))
    return [[floats[counts][o] for counts in keys] for o in range(rule.n)]


def best_response_profiles(rule, starts, rng, damping=0.5, sweeps=10_000):
    """Damped best response from ``starts`` seeded random starts, the
    search's asymmetric stage before the exact enumeration replaced it.

    Each sweep moves every player ``damping`` of the way to the uniform
    vector on its float best set (payoffs within 1e-12 of the top).  A
    start is kept once a sweep moves no component by 1e-10.  It is dropped
    after 300 sweeps that still move one by 1e-4, at the sweep cap, or as
    soon as ``vectors`` at the top of a sweep equals a copy saved at sweep
    1, 2, 4, 8, ... (Brent's cycle check): a sweep depends on ``vectors``
    alone, so an exact repeat replays the same sweeps forever.
    """
    m, n = rule.m, rule.n
    rows = _payoff_rows(rule, float_rows(rule))
    opponents = [[j for j in range(m) if j != i] for i in range(m)]
    results = []
    for _ in range(starts):
        vectors = [equilibrium._random_simplex(rng, n) for _ in range(m)]
        change = 1.0
        saved, mark = None, 1
        for it in range(sweeps):
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


def assert_near(kept, profiles, tol=1e-6):
    """Every profile in ``kept`` lies within sup distance ``tol`` of one of
    ``profiles``."""
    flat = [[float(p) for v in profile for p in v] for profile in profiles]
    for vectors in kept:
        point = [p for v in vectors for p in v]
        assert any(max(map(abs, map(sub, point, q))) <= tol for q in flat), vectors


ORACLE_GAMES_SMALL = sorted(k for k, g in ORACLE_GAMES.items() if g.m * g.n <= 12)

# Games where best response never converges, so every start ends by the
# exact-repeat check, the give-up rule or the sweep cap.
CYCLING_GAMES = {
    **{f"imbalanced3 m={m}": imbalanced_rps3(m) for m in (2, 3, 4)},
    "imbalanced m=3 k=2": imbalanced_rps(3, 2),
}

THIRDS = ((Fraction(1, 3),) * 3,)


class TestBestResponseOracle:
    """Every profile damped best response keeps lies within 1e-6 of an
    exact uniform-support equilibrium, as ``_uniform_support_equilibria``'s
    containment proof says, and so of a ``search_equilibria`` result."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GAMES))
    def test_profiles_equal_reference(self, name):
        rule = ORACLE_GAMES[name]
        kept = best_response_profiles(rule, 6, random.Random(sum(map(ord, name))))
        assert_near(kept, uniform_support_equilibria(rule))

    @pytest.mark.parametrize("name", ORACLE_GAMES_SMALL)
    def test_search_equals_reference(self, name):
        rule = ORACLE_GAMES[name]
        seed = sum(map(ord, name))
        found = search_equilibria(rule, SearchConfig(seed=seed))
        kept = best_response_profiles(rule, 12, random.Random(seed))
        assert found
        assert_near(kept, [p.vectors for p, _ in found])

    @pytest.mark.parametrize("max_iter", [40, 400])
    @pytest.mark.parametrize("damping", [1.0, 0.3])
    @pytest.mark.parametrize("name", sorted(CYCLING_GAMES))
    def test_cycling_games_equal_reference(self, name, damping, max_iter):
        # Best response keeps nothing here; the enumeration needs no start
        # and finds the one uniform-support equilibrium there is.
        rule = CYCLING_GAMES[name]
        kept = best_response_profiles(rule, 6, random.Random(max_iter), damping, max_iter)
        assert kept == []
        want = [THIRDS * 2] if name == "imbalanced3 m=2" else []
        assert uniform_support_equilibria(rule) == want


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
    """Containment over many starts per game, each leaving best response
    at a different sweep, and on degenerate games."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_GAMES))
    def test_profiles_equal_scalar_loop(self, name):
        rule = LOCKSTEP_GAMES[name]
        starts = 200 if rule.m * rule.n <= 12 else 20
        kept = best_response_profiles(rule, starts, random.Random(sum(map(ord, name))))
        assert_near(kept, uniform_support_equilibria(rule))

    @pytest.mark.parametrize(
        "name, damping, starts", [("table m=4 n=3 #0", 1.0, 40), ("table m=4 n=4 #0", 0.3, 10)]
    )
    def test_kept_and_dropped_starts_mixed(self, name, damping, starts):
        # Starts that converge share the batch with starts that repeat
        # (the first game) or give up (the second).
        rule = ORACLE_GAMES[name]
        kept = best_response_profiles(rule, starts, random.Random(sum(map(ord, name))), damping)
        assert 0 < len(kept) < starts
        assert_near(kept, uniform_support_equilibria(rule))

    @pytest.mark.parametrize("damping", [1.0, 0.3])
    @pytest.mark.parametrize("max_iter", [1, 2, 10_000])
    @pytest.mark.parametrize("starts", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_edges_equal_scalar_loop(self, name, starts, max_iter, damping):
        rule = EDGE_GAMES[name]
        kept = best_response_profiles(rule, starts, random.Random(starts), damping, max_iter)
        assert_near(kept, uniform_support_equilibria(rule))
        if starts == 0:
            assert kept == []


class TestCycleCheck:
    """Best response on ``imbalanced3`` only cycles, so it found nothing
    asymmetric there; the search still reports the symmetric equilibrium."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_cycling_starts_stop_early(self, m):
        rule = imbalanced_rps3(m)
        kept = best_response_profiles(rule, 20, random.Random(0))
        found = search_equilibria(rule, SearchConfig(seed=0))
        assert kept == [] and len(found) == 1 and found[0][0].symmetric


# Games where no support profile is near a best response to itself, so no
# best-response start can ever be kept.
NEVER_SETTLE = {
    "imbalanced3 m=3": imbalanced_rps3(3),
    "imbalanced3 m=4": imbalanced_rps3(4),
    "imbalanced m=3 k=2": imbalanced_rps(3, 2),
}


class TestSettleSkip:
    """Where no uniform-support profile ties, the enumeration is empty and
    every result comes from the symmetric stage; elsewhere each enumerated
    profile is reported exactly."""

    @pytest.mark.parametrize("name", sorted(NEVER_SETTLE))
    def test_skipped_where_no_start_can_settle(self, name):
        rule = NEVER_SETTLE[name]
        assert uniform_support_equilibria(rule) == []
        found = search_equilibria(rule, SearchConfig(seed=1))
        assert found and all(p.symmetric for p, _ in found)

    def test_settling_games_still_run_best_response(self, search_workload_games):
        games = [imbalanced_rps3(2)] + [game for game, _ in search_workload_games[1:]]
        for game in games:
            enumerated = uniform_support_equilibria(game)
            found = {p.vectors for p, _ in search_equilibria(game, SearchConfig(seed=1))}
            assert enumerated and set(enumerated) <= found, game.construction

    def test_imbalanced_k2_result_is_pinned(self):
        # Re-pinned when Newton came to read the face's exact Bernstein
        # form: its one root moved by 2.0e-14.
        found = search_equilibria(imbalanced_rps(3, 2), SearchConfig(seed=1))
        text = repr([(p.vectors, r.payoffs, r.gaps) for p, r in found])
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "1efaa7121a5515a8c91e119b55705c21349682ce874d30b28069af6b6014455a"
        )


SETTLE_ORACLE_GAMES = _with_random_tables(LOCKSTEP_GAMES, 20261019)


def _smallest_miss(rule):
    """Over every ordered support profile, each player uniform on its own,
    the least exact amount by which some support object falls short of its
    player's top ``expected_payoff``; 0 where a profile ties."""
    n = rule.n
    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    vector = {s: tuple(Fraction(int(o in s), len(s)) for o in range(n)) for s in supports}
    payoffs = {}
    for key in combinations_with_replacement(supports, rule.m - 1):
        profile = MixedProfile(tuple(vector[s] for s in (supports[0],) + key))
        payoffs[tuple(sorted(key))] = [expected_payoff(rule, profile, 0, o) for o in range(n)]
    misses = []
    for profile in product(supports, repeat=rule.m):
        miss = 0
        for i, s in enumerate(profile):
            u = payoffs[tuple(sorted(profile[:i] + profile[i + 1 :]))]
            miss = max(miss, max(u) - min(u[o] for o in s))
        misses.append(miss)
    return min(misses)


class TestSettleOracle:
    """Wherever best response keeps a start, at any damping, the
    enumeration holds a profile within 1e-6 of it."""

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("name", sorted(SETTLE_ORACLE_GAMES))
    def test_true_wherever_a_start_is_kept(self, name, damping):
        rule = SETTLE_ORACLE_GAMES[name]
        kept = [
            profile
            for seed in range(3)
            for profile in best_response_profiles(rule, 6, random.Random(seed), damping)
        ]
        enumerated = uniform_support_equilibria(rule)
        assert_near(kept, enumerated)
        if name in NEVER_SETTLE:
            assert not kept and not enumerated

    def test_slack_grows_as_damping_shrinks(self):
        # The enumeration compares exact payoffs, with no slack for damping
        # to grow: every support profile of imbalanced3 m=3 misses a tie by
        # an exact 2/3, far above the 1 / (6 * 60^3) floor of the
        # containment proof, and none is enumerated.
        rule = imbalanced_rps3(3)
        assert _smallest_miss(rule) == Fraction(2, 3)
        assert uniform_support_equilibria(rule) == []
        assert _smallest_miss(maximal_rps3(3)) == 0


class TestLockInOracle:
    """Containment at dampings down to 0.1, where a kept state lies up to
    1e-9 from the profile it converges to."""

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3, 0.1])
    @pytest.mark.parametrize("name", sorted(SETTLE_ORACLE_GAMES))
    def test_profiles_equal_scalar_loop(self, name, damping):
        rule = SETTLE_ORACLE_GAMES[name]
        kept = best_response_profiles(rule, 10, random.Random(sum(map(ord, name))), damping)
        assert_near(kept, uniform_support_equilibria(rule))

    @pytest.mark.parametrize("damping", [1.0, 0.5, 0.3, 0.1])
    def test_lock_in_fires_across_the_batch(self, damping):
        # The containment is not vacuous: every player count keeps starts.
        by_players = {}
        for name, rule in SETTLE_ORACLE_GAMES.items():
            if not name.startswith(("random", "maximal3", "odd-one-out")):
                continue
            kept = best_response_profiles(rule, 10, random.Random(sum(map(ord, name))), damping)
            assert_near(kept, uniform_support_equilibria(rule))
            by_players[rule.m] = by_players.get(rule.m, 0) + len(kept)
        assert all(by_players[m] > 10 for m in (2, 3, 4)), by_players

    def test_damping_one_locks_in_off_the_pure_profile(self):
        # At damping 1 a kept state is uniform on its best sets itself, so
        # it equals the float image of an enumerated profile exactly.
        rule = random_table_rule(random.Random(42), 3, 4)
        kept = best_response_profiles(rule, 10, random.Random(42), 1.0)
        assert kept
        assert_near(kept, uniform_support_equilibria(rule), tol=0.0)

    @pytest.mark.parametrize("name", ["maximal3 m=3", "odd-one-out m=4"])
    def test_locked_starts_skip_payoffs(self, name):
        # Every one of 200 starts is kept, each near an enumerated profile.
        rule = ORACLE_GAMES[name]
        kept = best_response_profiles(rule, 200, random.Random(1))
        assert len(kept) == 200
        assert_near(kept, uniform_support_equilibria(rule))

    def test_terms_in_two_opponents_can_decide(self):
        # Four players: each payoff sums terms in three opponents' vectors.
        rule = ORACLE_GAMES["table m=4 n=3 #0"]
        kept = best_response_profiles(rule, 30, random.Random(383), 0.3, 400)
        assert len(kept) == 30
        assert_near(kept, uniform_support_equilibria(rule))

    @pytest.mark.parametrize(
        "damping, max_iter, kept",
        [
            (0.5, 3, 0), (0.5, 20, 0), (0.3, 40, 0), (0.1, 40, 0),
            (0.5, 10_000, 30), (0.01, 10_000, 0),
        ],
    )
    def test_cap_and_give_up_mid_finish(self, damping, max_iter, kept):
        # Starts run out of sweeps at the cap or, at damping 0.01, still
        # move 1e-4 after sweep 300 and are given up.
        rule = ORACLE_GAMES["maximal3 m=3"]
        got = best_response_profiles(rule, 30, random.Random(max_iter), damping, max_iter)
        assert len(got) == kept
        assert_near(got, uniform_support_equilibria(rule))


EXCLUSION_GAMES = _with_random_tables(ORACLE_GAMES, 20261020)


def _supports(n):
    return [s for size in range(2, n + 1) for s in combinations(range(n), size)]


def _excluded_supports(games):
    return {
        (name, support)
        for name, rule in games.items()
        for rows, scale in [_payoff_table(rule)]
        for support in _supports(rule.n)
        if not equilibrium._unproved_cells(rule, support, rows, scale)
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


def _bernstein_partial(coeffs, mu, degree, j):
    """Each entry of the derivative in mu_j of sum_a coeffs[a] (degree
    choose a) mu^a, exactly, term by term from its monomials."""
    total = [Fraction(0)] * len(next(iter(coeffs.values())))
    for a, d in coeffs.items():
        if a[j]:
            weight = Fraction(math.factorial(degree) * a[j])
            for i, (x, k) in enumerate(zip(mu, a)):
                weight *= x ** (k - (i == j)) / math.factorial(k)
            total = [t + weight * v for t, v in zip(total, d)]
    return total


def _exact_gaps(rule, support, point):
    """u_o - u_last on ``support`` against opponents all mixing by ``point``,
    by exact ``expected_payoff``."""
    v = [Fraction(0)] * rule.n
    for o, p in zip(support, point):
        v[o] = p
    profile = symmetric_profile(v, rule.m)
    u = [expected_payoff(rule, profile, 0, o) for o in support]
    return [x - u[-1] for x in u[:-1]]


TABLE_GAMES = _with_random_tables(NAMED_GAMES, 20261022)


class TestPayoffTable:
    """``_payoff_table`` holds every payoff once, exactly; its float view,
    which the test-side best response reads, must be what converting each
    exact payoff gives."""

    @pytest.mark.parametrize("name", sorted(TABLE_GAMES))
    def test_float_view_is_the_float_payoff(self, name):
        rule = TABLE_GAMES[name]
        rows, scale = _payoff_table(rule)
        assert scale in (1, 2, 3)
        assert list(rows) == [counts for counts, _ in enumerate_multisets(rule.n, rule.m - 1)]
        for counts, row in rows.items():
            exact = [equilibrium._payoff_against(rule, o, counts) for o in range(rule.n)]
            assert [Fraction(x, scale) for x in row] == exact
            assert [(x / scale).hex() for x in row] == [float(e).hex() for e in exact]

    def test_scale_is_the_common_denominator(self):
        # m = 2 pays 1 to a sole winner, m = 3 pays 1/2 to each of two
        # winners, and m = 4 pays 1/3 to each of three.
        assert [_payoff_table(imbalanced_rps3(m))[1] for m in (2, 3, 4)] == [1, 2, 3]


class TestSupportExclusion:
    """``_unproved_cells`` proves, from the exact payoff differences, where
    on a symmetric support's face the differences never all vanish; the
    search starts Newton only in the cells it leaves, and on a support it
    proves everywhere Newton must find nothing from anywhere on the face."""

    @pytest.mark.parametrize("name", sorted(EXCLUSION_GAMES))
    def test_excluded_supports_hold_no_root(self, name):
        rule = EXCLUSION_GAMES[name]
        rows, scale = _payoff_table(rule)
        for support in _supports(rule.n):
            if equilibrium._unproved_cells(rule, support, rows, scale):
                continue
            starts = whole_face_starts(len(support), random.Random(repr(support)))
            assert equilibrium._symmetric_support_candidates(rule, support, rows, scale, starts) == []

    def test_search_walk_skips_excluded_supports(self, search_workload_games, monkeypatch):
        # The search starts Newton once in each unproved cell: never on an
        # excluded support, and twice on imbalanced3 m=3's full support.
        walked = []
        candidates = equilibrium._symmetric_support_candidates

        def counted(rule, support, rows, scale, starts):
            walked.append((support, len(starts)))
            return candidates(rule, support, rows, scale, starts)

        monkeypatch.setattr(equilibrium, "_symmetric_support_candidates", counted)
        for game, seed in search_workload_games:
            walked.clear()
            search_equilibria(game, SearchConfig(seed=seed))
            rows, scale = _payoff_table(game)
            supports = _supports(game.n)
            cells = [(s, len(equilibrium._unproved_cells(game, s, rows, scale))) for s in supports]
            assert walked == cells, game.construction
            excluded = {s for s in supports if not equilibrium._unproved_cells(game, s, rows, scale)}
            assert all(count == 0 for s, count in walked if s in excluded), game.construction
            if game.construction == "imbalanced3 m=3":
                assert walked[-1] == ((0, 1, 2), 2)

    @pytest.mark.parametrize("gap, excluded", [(5e-13, False), (1e-6, True)])
    def test_gaps_within_the_root_tolerance_are_kept(self, gap, excluded):
        # A table with u_0 - u_2 = u_1 - u_2 = gap = 1 / scale against every
        # opponent: Newton takes any point with all gaps below 1e-12 as a
        # root, so only a gap beyond that, plus the float margin, may
        # exclude the support.
        rule = imbalanced_rps3(2)
        scale = round(1 / gap)
        rows = {counts: (1, 1, 0) for counts in _payoff_table(rule)[0]}
        support = (0, 1, 2)
        assert (not equilibrium._unproved_cells(rule, support, rows, scale)) == excluded
        starts = whole_face_starts(len(support), random.Random(0))
        found = equilibrium._symmetric_support_candidates(rule, support, rows, scale, starts)
        assert (found == []) == excluded

    def test_batch_reach(self):
        excluded = {
            size: sum(
                not equilibrium._unproved_cells(rule, s, *_payoff_table(rule))
                for rule in EXCLUSION_GAMES.values()
                for s in _supports(rule.n)
                if len(s) == size
            )
            for size in (2, 3, 4)
        }
        assert all(excluded[size] > 0 for size in (2, 3, 4)), excluded

    def test_exclusion_verdicts_are_pinned(self):
        # 250 of the batch's 464 supports, the same ones as when the proof
        # read Fractions of the float rows.
        excluded = _excluded_supports(EXCLUSION_GAMES)
        assert sum(len(_supports(rule.n)) for rule in EXCLUSION_GAMES.values()) == 464
        assert len(excluded) == 250
        digest = hashlib.sha256(repr(sorted(excluded)).encode()).hexdigest()
        assert digest == "69b45705189ea601894c2e9dea20b725f4b18f0f0c0d0f5a3683f767e1646a17"

    def test_subdivision_reaches_past_the_root_cell(self, monkeypatch):
        # Halving the face proves supports of every size that the whole
        # face's test alone leaves to Newton, so the batch check
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
            rows, scale = _payoff_table(game)
            pairs += sum(
                not equilibrium._unproved_cells(game, pair, rows, scale)
                for pair in combinations(range(game.n), 2)
            )
            full = not equilibrium._unproved_cells(game, tuple(range(game.n)), rows, scale)
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
        assert equilibrium._unproved_cells(rule, support, *_payoff_table(rule))
        starts = cell_starts(rule, support, random.Random(0))
        found = equilibrium._symmetric_support_candidates(rule, support, *_payoff_table(rule), starts)
        assert found

    @pytest.mark.parametrize(
        "name", ["imbalanced3 m=4", "table m=2 n=5 #0", "table m=3 n=4 #1", "table m=4 n=5 #1"]
    )
    def test_halves_keep_the_polynomial(self, name):
        # Seeded halvings, either vertex order, down to a cell four deep:
        # its coefficients over their scale, at seeded rational points of
        # the cell, equal the exact payoff differences at the same face point.
        rule = ORACLE_GAMES[name]
        rows, table_scale = _payoff_table(rule)
        degree = rule.m - 1
        rng = random.Random(name)
        for support in _supports(rule.n):
            size = len(support)
            coeffs = equilibrium._face_coefficients(rule, support, rows)
            scale = table_scale
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
                assert got == _exact_gaps(rule, support, point), (support, point)

    @pytest.mark.parametrize("depth", [0, 1, 2, 6])
    def test_gaps_vanishing_at_a_vertex_give_up_at_the_cap(self, depth, monkeypatch):
        # Against opponents all on object 1, the face's second vertex, every
        # gap is 0: each cell holding that vertex keeps a zero coefficient,
        # so halving never proves it, and the prover stops at the cap.
        rule = imbalanced_rps3(3)
        rng = random.Random(depth)
        rows = {
            counts: tuple(rng.choice((-2, 4)) for _ in range(3))
            for counts in _payoff_table(rule)[0]
        }
        rows[0, 2, 0] = (1, 1, 1)
        halvings = []
        halves = equilibrium._face_halves
        monkeypatch.setattr(equilibrium, "_EXCLUSION_DEPTH", depth)
        monkeypatch.setattr(
            equilibrium, "_face_halves", lambda *args: halvings.append(args) or halves(*args)
        )
        assert equilibrium._unproved_cells(rule, (0, 1, 2), rows, 2)
        assert depth <= len(halvings) <= 2**depth - 1


class TestFaceSystem:
    """Newton's f and Jacobian come from ``_face_coefficients``, the exact
    Bernstein form that ``_unproved_cells`` proves things about; its float
    margin is sound only while Newton's float f stays within it."""

    @pytest.mark.parametrize("name", sorted(EXCLUSION_GAMES))
    def test_float_f_lies_within_the_exclusion_margin(self, name):
        # Seeded points formed as Newton forms them, the last coordinate 1
        # minus the float sum of the others: float f lies within
        # _unproved_cells' err of the exact f at the point rescaled to sum 1.
        rule = EXCLUSION_GAMES[name]
        rows, scale = _payoff_table(rule)
        rmax = max(abs(x) for row in rows.values() for x in row) / scale
        rng = random.Random(name)
        for support in _supports(rule.n):
            coeffs = equilibrium._face_coefficients(rule, support, rows)
            err = ((len(coeffs) + rule.m * len(support) + 4) * 2.0**-48 + 2.0**-52) * rmax
            system = equilibrium._face_system(rule, support, rows, scale)
            for _ in range(8):
                x = equilibrium._random_simplex(rng, len(support))[:-1]
                xs = x + [1.0 - sum(x)]
                point = [Fraction(p) for p in xs]
                mu = [p / sum(point) for p in point]
                exact = [v / scale for v in _bernstein_value(coeffs, mu, rule.m - 1)]
                got = system(xs)[0]
                assert all(abs(Fraction(g) - e) <= err for g, e in zip(got, exact)), (support, xs)

    @pytest.mark.parametrize(
        "name", ["imbalanced3 m=2", "odd-one-out m=3", "table m=3 n=4 #1", "table m=4 n=5 #1"]
    )
    def test_jacobian_is_the_exact_derivative(self, name):
        # Dyadic points, exact in float and summing to 1, one with a zero
        # coordinate (_cell_starts gives one where expovariate returns 0.0):
        # the Jacobian equals, to rounding, d/dx_j - d/dx_last of the exact
        # homogeneous form, taken term by term from its monomials.
        rule = ORACLE_GAMES[name]
        rows, scale = _payoff_table(rule)
        rng = random.Random(name)
        for support in _supports(rule.n):
            d = len(support) - 1
            coeffs = equilibrium._face_coefficients(rule, support, rows)
            system = equilibrium._face_system(rule, support, rows, scale)
            for zero in (False, True, False):
                cuts = sorted(rng.randrange(1 << 20) for _ in range(d))
                if zero:
                    cuts[0] = 0
                parts = [b - a for a, b in zip([0] + cuts, cuts + [1 << 20])]
                point = [Fraction(p, 1 << 20) for p in parts]
                assert (0 in parts) == zero
                x = [float(p) for p in point[:d]]
                jac = system(x + [1.0 - sum(x)])[1]
                grads = [_bernstein_partial(coeffs, point, rule.m - 1, j) for j in range(d + 1)]
                for k in range(d):
                    for j in range(d):
                        exact = (grads[j][k] - grads[d][k]) / scale
                        assert abs(jac[k][j] - exact) <= 1e-12, (support, point, k, j)


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps", 0.0),
            ("eps", -1e-9),
            ("eps", math.inf),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(GameError, match=field):
            SearchConfig(seed=1, **{field: value})

    def test_edges_accepted(self):
        config = SearchConfig(seed=-1, eps=math.ulp(0.0))
        assert config.eps > 0

    def test_no_starts_still_searches_symmetric_supports(self):
        found = search_equilibria(imbalanced_rps3(2), SearchConfig(seed=5))
        assert found and all(p.symmetric for p, _ in found)



class TestPlayability:
    def test_imbalanced_three_is_playable(self):
        rule = imbalanced_rps3(3)
        found = search_equilibria(rule, SearchConfig(seed=2))
        report = classify_playability(rule, [p for p, _ in found], k=1)
        assert report.playable
        assert report.no_counterexample_to_strong
        assert not report.exhaustive

    def test_two_playable_in_s(self):
        rule = imbalanced_rps3(3)
        found = search_equilibria(rule, SearchConfig(seed=2))
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
        found = search_equilibria(rule, SearchConfig(seed=4))
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
