from fractions import Fraction

import pytest

from rps_forge.construct import (
    BlowupUnsupportedError,
    imbalanced_rps,
    imbalanced_rps3,
    iterated_blowup,
    maximal_rps3,
    odd_one_out,
    relabel,
    symmetric_blowup,
)
from rps_forge.core import GameError, enumerate_multisets, eval_outcome, uniform_expected_payoffs
from rps_forge.gamefile import dump_game, parse_game
from rps_forge.imbalance import MajorizationRelation, majorizes


class TestImbalancedRps3:
    def test_rejects_single_player(self):
        with pytest.raises(GameError):
            imbalanced_rps3(1)

    def test_mixed_triple_goes_to_r(self):
        out = eval_outcome(imbalanced_rps3(3), (1, 1, 1))
        assert out.winner == 0 and out.winner_count == 1

    def test_monoset_ties(self):
        assert eval_outcome(imbalanced_rps3(4), (0, 4, 0)).is_tie

    def test_p_s_multiset_goes_to_s(self):
        out = eval_outcome(imbalanced_rps3(5), (0, 3, 2))
        assert out.winner == 2 and out.winner_count == 2


class TestMaximalRps3:
    def test_r_wins_whenever_chosen(self):
        rule = maximal_rps3(5)
        for counts, _ in enumerate_multisets(3, 5):
            out = eval_outcome(rule, counts)
            if counts[0] and counts[0] < 5:
                assert out.winner == 0

    def test_all_s_ties(self):
        assert eval_outcome(maximal_rps3(4), (0, 0, 4)).is_tie

    def test_p_s_pair_goes_to_s(self):
        out = eval_outcome(maximal_rps3(2), (0, 1, 1))
        assert out.winner == 2


class TestOddOneOut:
    def test_minority_wins(self):
        out = eval_outcome(odd_one_out(4), (1, 3))
        assert out.winner == 0 and out.winner_count == 1

    def test_even_split_ties(self):
        assert eval_outcome(odd_one_out(4), (2, 2)).is_tie

    def test_monoset_ties(self):
        assert eval_outcome(odd_one_out(4), (4, 0)).is_tie


class TestSymmetricBlowup:
    def test_object_count(self):
        g = imbalanced_rps3(3, labels=("R1", "P1", "_S"))
        h = imbalanced_rps3(3, labels=("R2", "P2", "S"))
        combined = symmetric_blowup(g, "_S", h)
        assert combined.n == g.n + h.n - 1

    def test_object_count_with_odd_one_out(self):
        g = imbalanced_rps3(4)
        h = odd_one_out(4)
        combined = symmetric_blowup(g, "S", h)
        assert combined.n == 4
        assert combined.labels == ("R", "P", "a", "b")

    def test_label_clash_rejected(self):
        g = imbalanced_rps3(3)
        with pytest.raises(GameError):
            symmetric_blowup(g, "S", imbalanced_rps3(3))

    def test_unknown_object_rejected(self):
        with pytest.raises(GameError):
            symmetric_blowup(imbalanced_rps3(3), "Q", odd_one_out(3))

    def test_subgame_must_cover_group_sizes(self):
        h = parse_game(dump_game(imbalanced_rps3(3, labels=("R2", "P2", "S2"))))  # size-3 only
        with pytest.raises(GameError):
            symmetric_blowup(imbalanced_rps3(3), "S", h)

    def test_choices_entirely_inside_subgame(self):
        g = imbalanced_rps3(3, labels=("R1", "P1", "_S"))
        h = imbalanced_rps3(3, labels=("R2", "P2", "S"))
        combined = symmetric_blowup(g, "_S", h)
        for counts, _ in enumerate_multisets(3, 3):
            inner = eval_outcome(h, counts)
            outer = eval_outcome(combined, (0, 0, *counts))
            assert outer.winner_count == inner.winner_count
            if inner.is_tie:
                assert outer.is_tie
            else:
                assert outer.winner == inner.winner + 2

    def test_outer_loss_stands(self):
        # two players in the subgame lose to one R1 at the outer level
        g = imbalanced_rps3(3, labels=("R1", "P1", "_S"))
        h = imbalanced_rps3(3, labels=("R2", "P2", "S"))
        combined = symmetric_blowup(g, "_S", h)
        out = eval_outcome(combined, (1, 0, 2, 0, 0))
        assert combined.labels[out.winner] == "R1" and out.winner_count == 1

    def test_delegation_resolves_inside(self):
        g = imbalanced_rps3(4, labels=("R1", "P1", "_S"))
        h = imbalanced_rps3(4, labels=("R2", "P2", "S"))
        combined = symmetric_blowup(g, "_S", h)
        out = eval_outcome(combined, (0, 2, 1, 0, 1))
        assert combined.labels[out.winner] == "R2" and out.winner_count == 1

    def test_subgame_group_tie_wins_together(self):
        # both subgame players picked the same object and tie for the win
        g = imbalanced_rps3(3, labels=("R1", "P1", "_S"))
        h = imbalanced_rps3(3, labels=("R2", "P2", "S"))
        combined = symmetric_blowup(g, "_S", h)
        out = eval_outcome(combined, (0, 1, 2, 0, 0))
        assert combined.labels[out.winner] == "R2" and out.winner_count == 2

    @pytest.mark.parametrize("at", ["R", "P", "S"])
    def test_outer_winner_keeps_its_label_at_any_position(self, at):
        g = imbalanced_rps3(4)
        h = imbalanced_rps3(4, labels=("a", "b", "c"))
        combined = symmetric_blowup(g, at, h)
        assert combined.labels == tuple(x for x in g.labels if x != at) + h.labels
        outer = [g.index_of(x) for x in combined.labels[:2]]
        for counts, _ in enumerate_multisets(5, 4):
            g_counts = [0, 0, 0]
            for pos, gi in enumerate(outer):
                g_counts[gi] = counts[pos]
            g_counts[g.index_of(at)] = sum(counts[2:])
            out_g = eval_outcome(g, g_counts)
            out = eval_outcome(combined, counts)
            if out_g.winner is not None and g.labels[out_g.winner] != at:
                assert combined.labels[out.winner] == g.labels[out_g.winner]
                assert out.winner_count == out_g.winner_count
            elif not out.is_tie:
                assert combined.labels[out.winner] in h.labels

    def test_mixed_winner_set_rejected(self):
        # subgame declares an all-way tie over two objects while an outer
        # player loses: no unique winning object exists
        g = imbalanced_rps3(3)
        h = odd_one_out(3)
        combined = symmetric_blowup(g, "S", h)
        with pytest.raises(BlowupUnsupportedError):
            eval_outcome(combined, (0, 1, 1, 1))


class TestIteratedFamily:
    def test_level_metadata(self):
        rule = imbalanced_rps(4, 3)
        assert max(rule.levels) == 3
        assert dict(zip(rule.labels, rule.levels)) == {
            "R1": 1, "P1": 1, "R2": 2, "P2": 2, "R3": 3, "P3": 3, "S": 3,
        }
        assert rule.n == 2 * 3 + 1

    def test_depth_one_matches_three_object_game(self):
        for m in range(2, 9):
            flat = imbalanced_rps3(m)
            deep = imbalanced_rps(m, 1)
            for size in range(1, m + 1):
                for counts, _ in enumerate_multisets(3, size):
                    assert eval_outcome(flat, counts) == eval_outcome(deep, counts)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_direct_rule_matches_composition(self, m, k):
        direct = imbalanced_rps(m, k)
        composed = iterated_blowup(m, k)
        assert direct.labels == composed.labels
        for size in range(1, m + 1):
            for counts, _ in enumerate_multisets(direct.n, size):
                assert eval_outcome(direct, counts) == eval_outcome(composed, counts)

    @pytest.mark.parametrize("build", [imbalanced_rps, iterated_blowup])
    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_depth_rejected(self, build, k):
        with pytest.raises(GameError, match=f"depth must be at least 1, got {k}"):
            build(3, k)

    def test_right_fold_composition_agrees(self):
        # composing inner-first instead of outer-first gives the same game
        m = 3
        inner = symmetric_blowup(
            imbalanced_rps3(m, labels=("R2", "P2", "_S3")),
            "_S3",
            imbalanced_rps3(m, labels=("R3", "P3", "S")),
        )
        right = symmetric_blowup(
            imbalanced_rps3(m, labels=("R1", "P1", "_S2")), "_S2", inner
        )
        direct = imbalanced_rps(m, 3)
        assert right.labels == direct.labels
        for size in range(1, m + 1):
            for counts, _ in enumerate_multisets(direct.n, size):
                assert eval_outcome(direct, counts) == eval_outcome(right, counts)

    def test_sample_outcomes(self):
        rule = imbalanced_rps(3, 2)
        out = eval_outcome(rule, (0, 1, 0, 1, 1))  # P1, P2, S
        assert rule.labels[out.winner] == "S"
        out = eval_outcome(rule, (0, 0, 1, 2, 0))  # R2, P2, P2
        assert rule.labels[out.winner] == "P2" and out.winner_count == 2

    def test_relabel_roundtrip(self):
        rule = imbalanced_rps3(3)
        renamed = relabel(rule, ("x", "y", "z"))
        assert renamed.labels == ("x", "y", "z")
        assert eval_outcome(renamed, (1, 1, 1)).winner == 0
        with pytest.raises(GameError):
            relabel(rule, ("x", "y"))


class TestMajorizationBound:
    """The lopsided extreme dominates the playable family, with an explicit
    gap bound; the bound is attained (not strict) at m = 2."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_maximal_majorizes(self, m):
        fi = uniform_expected_payoffs(imbalanced_rps3(m))
        fm = uniform_expected_payoffs(maximal_rps3(m))
        assert majorizes(fm, fi) is MajorizationRelation.MAJORIZES

    @pytest.mark.parametrize("m", range(3, 13))
    def test_gap_strictly_below_bound(self, m):
        fi = uniform_expected_payoffs(imbalanced_rps3(m))
        fm = uniform_expected_payoffs(maximal_rps3(m))
        bound = Fraction(m * (2 ** (m - 1) - 1), 3 ** (m - 1))
        assert fm[0] - fi[0] < bound

    def test_gap_equals_bound_at_two_players(self):
        fi = uniform_expected_payoffs(imbalanced_rps3(2))
        fm = uniform_expected_payoffs(maximal_rps3(2))
        assert fm[0] - fi[0] == Fraction(2, 3) == Fraction(2 * (2 - 1), 3)
