import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rps_forge.core import (
    GameError,
    GameRule,
    Outcome,
    TableRule,
    all_tie,
    enumerate_multisets,
    eval_outcome,
    payoff_vector,
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
from rps_forge.equilibrium import expected_winner_count
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


# 10**5000 has more digits than Python converts to a string by default, so
# a message naming it shows its bit length.
HUGE = 10**5000


class TestUnprintableIntegers:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: eval_outcome(imbalanced_rps3(3), (-HUGE, 1, 1)),
                "negative count in (-<16610-bit integer>, 1, 1)",
                id="eval_outcome, negative",
            ),
            pytest.param(
                lambda: eval_outcome(imbalanced_rps3(3), (HUGE, 1, 1)),
                "<16610-bit integer> choices exceed the 3-player game",
                id="eval_outcome, oversized",
            ),
            pytest.param(
                lambda: payoff_vector(imbalanced_rps3(3), [HUGE, 0, 0]),
                "object index <16610-bit integer> out of range for 3 objects",
                id="payoff_vector",
            ),
            pytest.param(
                lambda: tie_payoff(3, HUGE),
                "winner count <16610-bit integer> out of range 1..3",
                id="tie_payoff",
            ),
        ],
    )
    def test_rejected_with_a_game_error(self, call, message):
        with pytest.raises(GameError) as err:
            call()
        assert str(err.value) == message


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

    @pytest.mark.parametrize(
        "rule, counts, message",
        [
            (imbalanced_rps3(3), (1, 2), "counts vector has 2 entries for a 3-object game"),
            (imbalanced_rps3(3), (1, 2, 3, 0), "counts vector has 4 entries for a 3-object game"),
            (imbalanced_rps3(3), (2, -1, 1), "negative count in (2, -1, 1)"),
            (imbalanced_rps3(3), [0, 0, 0], "empty choice multiset"),
            (imbalanced_rps3(3), (2, 2, 2), "6 choices exceed the 3-player game"),
            (
                parse_game(dump_game(imbalanced_rps3(4))),
                (1, 1, 0),
                "rule has no table entries for multisets of size 2",
            ),
            (
                GameRule(m=3, labels=("x", "y", "z"), winner_fn=lambda counts: win(0, 1)),
                (0, 1, 1),
                "rule names absent object 'x' as winner of (0, 1, 1)",
            ),
            (
                GameRule(m=3, labels=("x", "y", "z"), winner_fn=lambda counts: win(1, 2)),
                (1, 1, 1),
                "winner_count disagrees with the winning object's multiplicity",
            ),
        ],
    )
    def test_rejections_keep_their_messages(self, rule, counts, message):
        with pytest.raises(GameError) as err:
            eval_outcome(rule, counts)
        assert str(err.value) == message

    def test_list_counts_are_evaluated_as_a_tuple(self):
        seen = []

        def record(counts):
            seen.append(counts)
            return win(0, counts[0])

        rule = GameRule(m=3, labels=("x", "y"), winner_fn=record)
        assert eval_outcome(rule, [1, 2]) == eval_outcome(rule, (1, 2)) == Outcome(0, 1)
        assert seen == [(1, 2), (1, 2)]

    def test_monoset_never_reaches_the_rule(self):
        def never(counts):
            raise AssertionError(f"winner function called on {counts}")

        rule = GameRule(m=4, labels=("a", "b", "c"), winner_fn=never)
        for size in range(1, 5):
            for o in range(3):
                counts = [0, 0, 0]
                counts[o] = size
                assert eval_outcome(rule, counts) == Outcome(None, size)


class TestSharedOutcomes:
    """``win`` and ``all_tie`` hand out shared, immutable instances."""

    @pytest.mark.parametrize("count", [0, -1])
    def test_win_without_players_raises(self, count):
        win(0, 1)
        for _ in range(2):  # a failure is never remembered as a result
            with pytest.raises(GameError, match="at least one player"):
                win(0, count)

    def test_shared_instances_equal_fresh_ones(self):
        assert win(2, 3) is win(2, 3)
        assert all_tie(4) is all_tie(4)
        assert win(2, 3) == Outcome(2, 3) and win(2, 3) != Outcome(2, 4)
        assert all_tie(4) == Outcome(None, 4) and all_tie(4) != win(0, 4)
        assert repr(win(2, 3)) == "Outcome(winner=2, winner_count=3)"
        assert repr(all_tie(4)) == "Outcome(winner=None, winner_count=4)"
        assert hash(win(2, 3)) == hash(Outcome(2, 3))
        assert all_tie(4).is_tie and not win(2, 3).is_tie

    def test_shared_instances_are_immutable(self):
        out = win(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.winner = 0
        assert win(1, 2) == Outcome(1, 2)

    def test_parsed_table_matches_procedural_rule(self):
        rule = imbalanced_rps(5, 2)
        table = parse_game(dump_game(rule))
        for counts, _ in enumerate_multisets(rule.n, rule.m):
            assert eval_outcome(table, counts) == eval_outcome(rule, counts)

    def test_rule_building_its_own_outcomes(self):
        # the minority object wins: a fresh Outcome per call, no helper
        def fresh(counts):
            a, b = counts
            if a == b:
                return Outcome(None, a + b)
            return Outcome(0, a) if a < b else Outcome(1, b)

        rule = GameRule(m=5, labels=("a", "b"), winner_fn=fresh)
        assert eval_outcome(rule, (2, 3)) == win(0, 2)
        assert eval_outcome(rule, (4, 1)) == win(1, 1)
        assert uniform_expected_payoffs(rule) == uniform_expected_payoffs(odd_one_out(5))
        assert uniform_expected_payoffs(rule) == ordered_uniform_payoffs(rule)


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


def reference_enumerate_multisets(n, size):
    """The enumerator as first written: nested list prefixes, each weight
    ``size! / prod(counts!)`` by factorial divisions."""
    if n < 1:
        raise GameError("need at least one object")
    if size < 0:
        raise GameError("multiset size must be nonnegative")

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield tuple(prefix + [remaining])
            return
        for c in range(remaining + 1):
            yield from rec(prefix + [c], remaining - c, slots - 1)

    fact_size = math.factorial(size)
    for counts in rec([], size, n):
        weight = fact_size
        for c in counts:
            weight //= math.factorial(c)
        yield counts, weight


class TestEnumerateMultisets:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference_order_and_weights(self, n):
        for size in range(11):
            got = list(enumerate_multisets(n, size))
            assert got == list(reference_enumerate_multisets(n, size))
            assert all(type(c) is tuple for c, _ in got)

    @pytest.mark.parametrize("n", range(8, 11))
    def test_matches_reference_order_and_weights_on_many_objects(self, n):
        for size in range(7):
            got = list(enumerate_multisets(n, size))
            assert got == list(reference_enumerate_multisets(n, size))
            assert all(type(c) is tuple for c, _ in got)

    def test_streams_without_building_the_list(self):
        # a list of all C(10**6 + 2, 2) vectors could never be built
        gen = enumerate_multisets(3, 10**6)
        assert next(gen) == ((0, 0, 10**6), 1)
        assert next(gen) == ((0, 1, 10**6 - 1), 10**6)
        assert next(enumerate_multisets(7, 10**6)) == ((0,) * 6 + (10**6,), 1)
        gen = enumerate_multisets(12, 10**6)
        assert next(gen) == ((0,) * 11 + (10**6,), 1)
        assert next(gen) == ((0,) * 10 + (1, 10**6 - 1), 10**6)

    @pytest.mark.parametrize("n, size", [(0, 3), (-1, 0), (3, -1), (1, -5)])
    def test_bad_arguments_raise(self, n, size):
        with pytest.raises(GameError):
            list(enumerate_multisets(n, size))

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
        assert uniform_expected_payoffs(parse_game(dump_game(rule))) == expected

    def test_one_player_pays_nothing(self):
        def never(counts):
            raise AssertionError(f"winner function called on {counts}")

        rule = GameRule(m=1, labels=("a", "b", "c"), winner_fn=never)
        assert uniform_expected_payoffs(rule) == per_object_uniform_payoffs(rule) == [0, 0, 0]

    def test_rejects_a_table_without_entries_of_size_m(self):
        table = {(1, 1, 0): win(0, 1), (1, 0, 1): win(2, 1), (0, 1, 1): win(1, 1)}
        rule = GameRule(m=3, labels=("a", "b", "c"), winner_fn=TableRule(table),
                        table_sizes=frozenset({2}))
        with pytest.raises(GameError, match="no table entries for multisets of size 3"):
            uniform_expected_payoffs(rule)

    def test_rejects_a_winner_absent_from_the_multiset(self):
        rule = GameRule(m=3, labels=("a", "b", "c"), winner_fn=lambda counts: win(0, 1))
        with pytest.raises(GameError, match="rule names absent object 'a'"):
            uniform_expected_payoffs(rule)

    def test_rejects_a_wrong_winner_count(self):
        def overcount(counts):
            o = max(range(len(counts)), key=counts.__getitem__)
            return win(o, counts[o] + 1)

        rule = GameRule(m=3, labels=("a", "b", "c"), winner_fn=overcount)
        with pytest.raises(GameError, match="winner_count disagrees"):
            uniform_expected_payoffs(rule)

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
        table = parse_game(dump_game(rule))
        for counts, _ in enumerate_multisets(3, 4):
            assert eval_outcome(table, counts) == eval_outcome(rule, counts)

    def test_table_rejects_untabulated_size(self):
        table = parse_game(dump_game(imbalanced_rps3(4)))
        with pytest.raises(GameError):
            eval_outcome(table, (1, 1, 0))


class TestOutputPins:
    """Outputs of the exact workload's game, pinned (sha256 of the text or
    of the ``repr``) before the enumerator carried binomial weights and
    outcomes were shared."""

    DUMP = "3079adc5219f9172eb84da33988e13cb5c4f24a060c1bc9d3cbf6448133459ff"
    PAYOFFS = "9f937b16f8dc583f59e397d9d9950f3650a2f506b86f76b36c87eb199c444119"

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_imbalanced_m8_k3_game_file_and_payoffs(self):
        rule = imbalanced_rps(8, 3)
        text = dump_game(rule)
        assert self.digest(text) == self.DUMP
        parsed = parse_game(text)
        assert self.digest(dump_game(parsed)) == self.DUMP
        for route in (rule, iterated_blowup(8, 3), parsed):
            assert self.digest(repr(uniform_expected_payoffs(route))) == self.PAYOFFS

    def test_expected_winner_count_published_row(self):
        published = (Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000))
        got = expected_winner_count(published, imbalanced_rps3(20))
        assert self.digest(repr(got)) == (
            "be6bc0bb9d3c0538d2a14845f2afe9f99da0059fe366594934f333ab5235171c"
        )
