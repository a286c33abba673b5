import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rps_forge.construct import imbalanced_rps3, maximal_rps3
from rps_forge.core import GameError, uniform_expected_payoffs
from rps_forge.equilibrium import symmetric_profile
from rps_forge.imbalance import (
    MajorizationRelation,
    majorizes,
    nash_entropy_imbalance,
    nash_ties_imbalance,
    profile_entropy,
    schur_compare,
    theil_alpha,
    ui_entropy,
    ui_variance,
)

from conftest import random_table_rule

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


class TestUiVariance:
    def test_dirac_is_zero(self):
        assert ui_variance([Fraction(0)] * 3) == 0

    def test_three_player_payoffs(self):
        assert ui_variance(
            [Fraction(4, 9), Fraction(-2, 9), Fraction(-2, 9)]
        ) == Fraction(8, 81)

    def test_maximal_exceeds_imbalanced(self):
        vi = ui_variance(uniform_expected_payoffs(imbalanced_rps3(3)))
        vm = ui_variance(uniform_expected_payoffs(maximal_rps3(3)))
        assert vm > vi


class TestUiEntropy:
    def test_constant_vector(self):
        assert ui_entropy([Fraction(1, 7)] * 5) == 0

    def test_two_atoms(self):
        got = ui_entropy([Fraction(4, 9), Fraction(-2, 9), Fraction(-2, 9)])
        want = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
        assert got == pytest.approx(want, abs=1e-12)

    def test_distinct_values_reach_log_n(self):
        assert ui_entropy([1, 2, 3, 4]) == pytest.approx(math.log(4), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=8), st.randoms())
    def test_permutation_invariant_and_bounded(self, values, pyrand):
        h = ui_entropy(values)
        shuffled = values[:]
        pyrand.shuffle(shuffled)
        assert ui_entropy(shuffled) == pytest.approx(h, abs=1e-12)
        assert -1e-12 <= h <= math.log(len(values)) + 1e-12


class TestTheil:
    def test_constant_vector_is_zero(self):
        for a in (0.25, 0.5, 0.75):
            assert theil_alpha([3, 3, 3], a) == 0

    def test_worked_example(self):
        got = theil_alpha([Fraction(4, 9), Fraction(-2, 9), Fraction(-2, 9)], 0.5)
        want = (2 * math.log(2) + 0.5 * math.log(0.5) * 2) / 3
        assert got == pytest.approx(want, abs=1e-12)

    def test_alpha_near_one_vanishes(self):
        assert theil_alpha([5, -1, 2], 1 - 1e-9) == pytest.approx(0, abs=1e-7)

    def test_alpha_out_of_range(self):
        with pytest.raises(GameError):
            theil_alpha([1, 2], 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(finite_floats, min_size=2, max_size=8),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-20, max_value=20),
    )
    def test_affine_invariance(self, values, alpha, scale, shift):
        from hypothesis import assume

        # the normalization cancels any positive affine pre-transformation;
        # nearly-constant vectors are excluded (c1 is ill-conditioned there)
        assume(max(values) - min(values) > 1e-3)
        before = theil_alpha(values, alpha)
        after = theil_alpha([scale * v + shift for v in values], alpha)
        assert after == pytest.approx(before, rel=1e-6, abs=1e-8)


class TestNashStatistics:
    def test_uniform_two_player_classic(self):
        prof = symmetric_profile((Fraction(1, 3),) * 3, 2)
        assert nash_entropy_imbalance([prof]) == pytest.approx(2 * math.log(3))

    def test_pure_profile_entropy_zero(self):
        prof = symmetric_profile((0.0, 1.0, 0.0), 3)
        assert nash_entropy_imbalance([prof]) == 0

    def test_solved_profile_lower_bound(self):
        from rps_forge.equilibrium import solve_symmetric_rps3

        eq = solve_symmetric_rps3(3)
        prof = symmetric_profile(eq.as_vector(), 3)
        h = profile_entropy(prof)
        assert nash_entropy_imbalance([prof]) >= h - 1e-12
        assert h == pytest.approx(
            -3 * sum(p * math.log(p) for p in eq.as_vector()), abs=1e-12
        )

    def test_ties_uniform_profile(self):
        assert nash_ties_imbalance([(Fraction(1, 3),) * 3], 4) == Fraction(1, 27)
        assert nash_ties_imbalance([(Fraction(1, 4),) * 4], 3) == Fraction(4, 64)

    def test_ties_pure_profile(self):
        assert nash_ties_imbalance([(0, 1, 0)], 5) == 1

    def test_ties_solved_row(self):
        # The published row sums to 0.999, so it is taken over its sum.
        row = tuple(x / 0.999 for x in (0.324, 0.473, 0.202))
        got = nash_ties_imbalance([row], 3)
        assert got == pytest.approx((0.324**3 + 0.473**3 + 0.202**3) / 0.999**3)

    def test_empty_lists_rejected(self):
        with pytest.raises(GameError):
            nash_entropy_imbalance([])
        with pytest.raises(GameError):
            nash_ties_imbalance([], 3)

    @pytest.mark.parametrize(
        "vector, message",
        [
            # (0.5, 0.7) once returned 0.468.
            ((0.5, 0.7), "probabilities sum to 1.2"),
            ((-0.5, 1.5), "negative probability"),
            ((math.nan, 0.5, 0.5), "non-finite probability"),
        ],
    )
    def test_ties_rejects_non_distributions(self, vector, message):
        with pytest.raises(GameError, match=message):
            nash_ties_imbalance([(Fraction(1, 3),) * 3, vector], 3)


class TestMajorizes:
    def test_extreme_majorizes_uniform(self):
        assert majorizes((1, 0, 0), (Fraction(1, 3),) * 3) is MajorizationRelation.MAJORIZES

    def test_reflexive_equal(self):
        v = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert majorizes(v, v) is MajorizationRelation.EQUAL

    def test_length_mismatch(self):
        with pytest.raises(GameError):
            majorizes((1, 0), (1, 0, 0))

    def test_total_mismatch_incomparable(self):
        assert majorizes((1, 0), (2, 0)) is MajorizationRelation.INCOMPARABLE

    def test_crossing_prefixes_incomparable(self):
        # equal totals, prefix sums cross
        a = (5, 5, 1, 1)
        b = (6, 3, 2, 1)
        assert majorizes(a, b) is MajorizationRelation.INCOMPARABLE

    # at m = 75 the payoff vectors differ by about 1.9e-13, under the
    # float tolerance, which must not apply to exact payoffs
    @pytest.mark.parametrize("m", [*range(2, 13), 75])
    def test_families_ordered(self, m):
        fm = uniform_expected_payoffs(maximal_rps3(m))
        fi = uniform_expected_payoffs(imbalanced_rps3(m))
        assert majorizes(fm, fi) is MajorizationRelation.MAJORIZES
        assert majorizes(fi, fm) is MajorizationRelation.MAJORIZED_BY

    def test_tolerance_applies_only_to_floats(self):
        eps = Fraction(1, 10**15)
        exact = ((1 + eps, -eps, 0), (1, 0, 0))
        assert majorizes(*exact) is MajorizationRelation.MAJORIZES
        assert majorizes((1 + eps, 0), (1, 0)) is MajorizationRelation.INCOMPARABLE
        floats = ([float(x) for x in exact[0]], exact[1])
        assert majorizes(*floats) is MajorizationRelation.EQUAL

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_transitive_on_doubly_stochastic_averages(self, data):
        # mixing a vector toward its mean is majorization-decreasing, so
        # chains built by repeated averaging must be totally ordered
        n = data.draw(st.integers(3, 6))
        base = data.draw(
            st.lists(finite_floats, min_size=n, max_size=n)
        )
        lam1 = data.draw(st.floats(0, 1))
        lam2 = data.draw(st.floats(0, 1))

        def mix(v, lam):
            mean = sum(v) / len(v)
            return [lam * x + (1 - lam) * mean for x in v]

        mid = mix(base, lam1)
        low = mix(mid, lam2)
        for hi, lo in ((base, mid), (mid, low), (base, low)):
            rel = majorizes(hi, lo)
            assert rel in (MajorizationRelation.MAJORIZES, MajorizationRelation.EQUAL)


class TestSchurConsistency:
    def test_family_pair_report(self):
        # variance follows the majorization direction on the flagship
        # pair; the min-pinned Theil index does not (the wider vector is
        # compressed harder by its normalization), and the report says so
        cmp = schur_compare(maximal_rps3(3), imbalanced_rps3(3))
        assert cmp.relation is MajorizationRelation.MAJORIZES
        assert cmp.consistent["ui_variance"] is True
        for a in (0.25, 0.5, 0.75):
            assert cmp.consistent[f"theil_{a:g}"] is False
        assert cmp.consistent["ui_entropy"] is None

    def test_same_game_equal(self):
        cmp = schur_compare(imbalanced_rps3(3), imbalanced_rps3(3))
        assert cmp.relation is MajorizationRelation.EQUAL

    def test_object_count_mismatch_is_error(self):
        from rps_forge.construct import odd_one_out

        with pytest.raises(GameError):
            schur_compare(imbalanced_rps3(3), odd_one_out(3))

    def test_random_games_variance_follows_majorization(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(120):
            m = rng.randint(2, 4)
            n = rng.randint(3, 5)
            g1 = random_table_rule(rng, m, n)
            g2 = random_table_rule(rng, m, n)
            f1 = uniform_expected_payoffs(g1)
            f2 = uniform_expected_payoffs(g2)
            rel = majorizes(f1, f2)
            if rel is MajorizationRelation.MAJORIZES:
                hi, lo = f1, f2
            elif rel is MajorizationRelation.MAJORIZED_BY:
                hi, lo = f2, f1
            else:
                continue
            checked += 1
            assert ui_variance(hi) >= ui_variance(lo)
        assert checked >= 10  # the sample must actually exercise the property

    def test_theil_is_not_majorization_monotone(self):
        # pinned counterexample: hi majorizes lo (equal totals, dominating
        # prefix sums) yet every alpha-Theil value is smaller for hi,
        # because hi's deeper minimum shrinks its normalization scale
        hi = [Fraction(-4, 5), Fraction(2, 5), Fraction(-2, 5), Fraction(0), Fraction(4, 5)]
        lo = [Fraction(-2, 5), Fraction(2, 5), Fraction(2, 5), Fraction(0), Fraction(-2, 5)]
        assert majorizes(hi, lo) is MajorizationRelation.MAJORIZES
        for a in (0.25, 0.5, 0.75):
            assert theil_alpha(hi, a) < theil_alpha(lo, a)
