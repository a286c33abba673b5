import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rps_forge.core import (
    GameError,
    GameRule,
    TableRule,
    enumerate_multisets,
    eval_outcome,
    payoff_vector,
    tabulate,
    tie_payoff,
    uniform_expected_payoffs,
    win,
)
from rps_forge.construct import (
    imbalanced_rps,
    imbalanced_rps3,
    iterated_blowup,
    maximal_rps3,
    odd_one_out,
)
from rps_forge.gamefile import dump_game, parse_game

from conftest import ordered_uniform_payoffs, random_table_rule


class TestTiePayoff:
    @pytest.mark.parametrize(
        "m, winners, expected",
        [
            (3, 1, Fraction(2)),
            (5, 5, Fraction(0)),
            (20, 16, Fraction(1, 4)),
            (7, 2, Fraction(5, 2)),
        ],
    )
    def test_values(self, m, winners, expected):
        assert tie_payoff(m, winners) == expected

    @pytest.mark.parametrize("winners", [0, 4, -1])
    def test_out_of_range(self, winners):
        with pytest.raises(GameError):
            tie_payoff(3, winners)


class TestEvalOutcome:
    def test_imbalanced_r_beats_s(self):
        out = eval_outcome(imbalanced_rps3(3), (2, 0, 1))
        assert out.winner == 0 and out.winner_count == 2

    def test_imbalanced_s_beats_p(self):
        out = eval_outcome(imbalanced_rps3(3), (0, 2, 1))
        assert out.winner == 2 and out.winner_count == 1

    def test_monoset_is_tie(self):
        out = eval_outcome(imbalanced_rps3(4), (0, 4, 0))
        assert out.is_tie and out.winner_count == 4

    def test_all_three_goes_to_r(self):
        out = eval_outcome(imbalanced_rps3(3), (1, 1, 1))
        assert out.winner == 0

    def test_rejects_wrong_length(self):
        with pytest.raises(GameError):
            eval_outcome(imbalanced_rps3(3), (1, 2))

    def test_rejects_oversized(self):
        with pytest.raises(GameError):
            eval_outcome(imbalanced_rps3(3), (2, 2, 2))

    def test_rejects_rule_naming_absent_winner(self):
        bogus = GameRule(
            m=3, labels=("x", "y", "z"), winner_fn=lambda counts: win(0, 1)
        )
        with pytest.raises(GameError):
            eval_outcome(bogus, (0, 1, 1))


class TestPayoffVector:
    def test_custom_rule_two_way_tie(self):
        # a game in which R wins the multiset {R, R, P}
        table = {(2, 1, 0): win(0, 2)}
        rule = GameRule(
            m=3,
            labels=("R", "P", "S"),
            winner_fn=TableRule(table),
            table_sizes=frozenset({3}),
        )
        assert payoff_vector(rule, ["P", "R", "R"]) == [
            Fraction(-1),
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    def test_all_way_tie_pays_zero(self):
        assert payoff_vector(imbalanced_rps3(4), ["P"] * 4) == [Fraction(0)] * 4

    def test_sole_winner(self):
        assert payoff_vector(imbalanced_rps3(3), ["S", "P", "P"]) == [
            Fraction(2),
            Fraction(-1),
            Fraction(-1),
        ]

    def test_wrong_length(self):
        with pytest.raises(GameError):
            payoff_vector(imbalanced_rps3(3), ["R", "P"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_zero_sum_on_random_rules(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        rule = random_table_rule(rng, m, n)
        picks = [rng.randrange(n) for _ in range(m)]
        assert sum(payoff_vector(rule, picks)) == 0


class TestEnumerateMultisets:
    def test_small_case(self):
        got = dict(enumerate_multisets(3, 2))
        assert got == {
            (2, 0, 0): 1,
            (0, 2, 0): 1,
            (0, 0, 2): 1,
            (1, 1, 0): 2,
            (1, 0, 1): 2,
            (0, 1, 1): 2,
        }

    def test_empty_size(self):
        assert list(enumerate_multisets(4, 0)) == [((0, 0, 0, 0), 1)]

    def test_count_and_weight_sum(self):
        items = list(enumerate_multisets(3, 19))
        assert len(items) == math.comb(21, 2) == 210
        assert sum(w for _, w in items) == 3**19

    @pytest.mark.parametrize("n, size", [(2, 5), (4, 3), (5, 4)])
    def test_weights_sum_to_power(self, n, size):
        assert sum(w for _, w in enumerate_multisets(n, size)) == n**size


def per_object_uniform_payoffs(rule):
    """Reference: for each object, its payoff against every opponent
    multiset of size m-1, weighted and summed term by term."""
    m, n = rule.m, rule.n
    result = []
    for o in range(n):
        acc = Fraction(0)
        for counts, weight in enumerate_multisets(n, m - 1):
            combined = list(counts)
            combined[o] += 1
            out = eval_outcome(rule, combined)
            if out.is_tie:
                continue
            if out.winner == o:
                acc += weight * tie_payoff(m, out.winner_count)
            else:
                acc -= weight
        result.append(acc / n ** (m - 1))
    return result


class TestUniformExpectedPayoffs:
    def test_two_player_classic_is_fair(self):
        assert uniform_expected_payoffs(imbalanced_rps3(2)) == [Fraction(0)] * 3

    def test_imbalanced_three_player(self):
        assert uniform_expected_payoffs(imbalanced_rps3(3)) == [
            Fraction(4, 9),
            Fraction(-2, 9),
            Fraction(-2, 9),
        ]

    def test_maximal_majorizes_imbalanced(self):
        from rps_forge.imbalance import MajorizationRelation, majorizes

        fi = uniform_expected_payoffs(imbalanced_rps3(3))
        fm = uniform_expected_payoffs(maximal_rps3(3))
        assert majorizes(fm, fi) is MajorizationRelation.MAJORIZES

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("make", [imbalanced_rps3, maximal_rps3, odd_one_out])
    def test_sums_to_zero(self, m, make):
        assert sum(uniform_expected_payoffs(make(m))) == 0

    @pytest.mark.parametrize("m, k", [(4, 3), (8, 3), (6, 2)])
    def test_sums_to_zero_iterated(self, m, k):
        assert sum(uniform_expected_payoffs(imbalanced_rps(m, k))) == 0

    def test_matches_ordered_oracle_on_families(self):
        for rule in (imbalanced_rps3(4), maximal_rps3(3), odd_one_out(5), imbalanced_rps(3, 1)):
            assert uniform_expected_payoffs(rule) == ordered_uniform_payoffs(rule)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_matches_per_object_reference_imbalanced3(self, m):
        rule = imbalanced_rps3(m)
        assert uniform_expected_payoffs(rule) == per_object_uniform_payoffs(rule)

    @pytest.mark.parametrize(
        "rule",
        [maximal_rps3(6), odd_one_out(5), imbalanced_rps(8, 3), iterated_blowup(6, 3)],
        ids=lambda r: r.construction,
    )
    def test_matches_per_object_reference(self, rule):
        assert uniform_expected_payoffs(rule) == per_object_uniform_payoffs(rule)

    def test_matches_per_object_reference_on_tables(self):
        rule = imbalanced_rps(5, 2)
        expected = per_object_uniform_payoffs(rule)
        assert uniform_expected_payoffs(tabulate(rule)) == expected
        assert uniform_expected_payoffs(parse_game(dump_game(rule))) == expected

    def test_one_player_pays_nothing(self):
        def never(counts):
            raise AssertionError(f"winner function called on {counts}")

        rule = GameRule(m=1, labels=("a", "b", "c"), winner_fn=never)
        assert uniform_expected_payoffs(rule) == per_object_uniform_payoffs(rule) == [0, 0, 0]

    def test_matches_ordered_oracle_on_random_rules(self):
        rng = random.Random(99)
        for _ in range(6):
            m = rng.randint(2, 5)
            n = rng.randint(2, 4)
            rule = random_table_rule(rng, m, n)
            assert uniform_expected_payoffs(rule) == ordered_uniform_payoffs(rule)


class TestWinnerInChoices:
    """Whatever a rule decides, the winning object was actually chosen."""

    @pytest.mark.parametrize(
        "rule",
        [
            imbalanced_rps3(6),
            maximal_rps3(6),
            odd_one_out(6),
            imbalanced_rps(6, 3),
            imbalanced_rps(5, 2),
        ],
        ids=lambda r: r.construction,
    )
    def test_exhaustive(self, rule):
        for size in range(1, rule.m + 1):
            for counts, _ in enumerate_multisets(rule.n, size):
                out = eval_outcome(rule, counts)
                if out.is_tie:
                    assert out.winner_count == size
                else:
                    assert counts[out.winner] >= 1
                    assert out.winner_count == counts[out.winner]


class TestTabulate:
    def test_table_matches_procedural(self):
        rule = imbalanced_rps3(4)
        table = tabulate(rule)
        for counts, _ in enumerate_multisets(3, 4):
            assert eval_outcome(table, counts) == eval_outcome(rule, counts)

    def test_table_rejects_untabulated_size(self):
        table = tabulate(imbalanced_rps3(4))
        with pytest.raises(GameError):
            eval_outcome(table, (1, 1, 0))
