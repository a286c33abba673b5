import dataclasses
from fractions import Fraction

import pytest

from rps_forge.cli import main
from rps_forge.construct import imbalanced_rps, imbalanced_rps3, maximal_rps3, relabel
from rps_forge.core import Outcome, enumerate_multisets, eval_outcome, uniform_expected_payoffs
from rps_forge.gamefile import GameFileError, dump_game, load_game, parse_game, save_game


class TestRoundTrip:
    @pytest.mark.parametrize(
        "rule",
        [imbalanced_rps3(3), maximal_rps3(4), imbalanced_rps(3, 2)],
        ids=lambda r: r.construction,
    )
    def test_build_load_rebuild_identical(self, rule, tmp_path):
        path = tmp_path / "game.rps"
        save_game(rule, path)
        loaded = load_game(path)
        assert loaded.m == rule.m
        assert loaded.labels == rule.labels
        assert loaded.construction == rule.construction
        assert dump_game(loaded) == path.read_text()
        for counts, _ in enumerate_multisets(rule.n, rule.m):
            assert eval_outcome(loaded, counts) == eval_outcome(rule, counts)

    def test_construction_comment_round_trips(self, tmp_path):
        rule = imbalanced_rps(4, 2)
        path = tmp_path / "g.rps"
        save_game(rule, path)
        assert "# construction: imbalanced m=4 k=2" in path.read_text()
        assert load_game(path).construction == "imbalanced m=4 k=2"

    @pytest.mark.parametrize(
        "tag", ["x\ncounts=2,0,0 winner=R", "x\r", "a\rb", "x\u2028y", " x", "x ", "x\t"]
    )
    def test_unwritable_construction_tags_are_named(self, tag):
        # "x\ncounts=2,0,0 winner=R" used to dump a multiset line above the
        # header; the others would load back as a different tag
        rule = dataclasses.replace(imbalanced_rps3(2), construction=tag)
        with pytest.raises(GameFileError, match="construction tag") as err:
            dump_game(rule)
        assert repr(tag) in str(err.value)

    @pytest.mark.parametrize("tag", ["x", "a  b", "a=b, #c", "imbalanced3 m=2", "x:y"])
    def test_other_construction_tags_round_trip(self, tag):
        rule = dataclasses.replace(imbalanced_rps3(2), construction=tag)
        text = dump_game(rule)
        loaded = parse_game(text)
        assert loaded.construction == tag
        assert dump_game(loaded) == text

    def test_table_size(self, tmp_path):
        path = tmp_path / "g.rps"
        save_game(imbalanced_rps3(3), path)
        lines = [l for l in path.read_text().splitlines() if l.startswith("counts=")]
        assert len(lines) == 10  # multisets of 3 objects, size 3


class TestLabels:
    def test_object_named_tie_is_not_dumped(self):
        # written out, its wins would read back as ties: (4/9, -2/9, -2/9)
        # would load as (7/9, -5/9, -2/9)
        rule = relabel(imbalanced_rps3(3), ("R", "TIE", "S"))
        assert uniform_expected_payoffs(rule) == [Fraction(4, 9), Fraction(-2, 9), Fraction(-2, 9)]
        with pytest.raises(GameFileError, match="object label 'TIE'"):
            dump_game(rule)

    @pytest.mark.parametrize("label", ["TIE", "", "P Q", "P,Q", "P\tQ", " P", "P\n"])
    def test_unwritable_labels_are_named(self, label):
        rule = relabel(imbalanced_rps3(3), ("R", label, "S"))
        with pytest.raises(GameFileError) as err:
            dump_game(rule)
        assert repr(label) in str(err.value)
        assert err.value.line is None

    @pytest.mark.parametrize("label", ["tie", "Tie", "a=b", "#x", "R'"])
    def test_other_labels_round_trip(self, label):
        rule = relabel(imbalanced_rps3(3), ("R", label, "S"))
        loaded = parse_game(dump_game(rule))
        assert loaded.labels == rule.labels
        assert uniform_expected_payoffs(loaded) == uniform_expected_payoffs(rule)

    def test_header_object_named_tie_rejected(self):
        text = "rps m=2 objects=R,TIE\ncounts=1,1 winner=TIE\n"
        with pytest.raises(GameFileError, match="'TIE' is reserved") as err:
            parse_game(text)
        assert err.value.line == 1


class TestParsing:
    def test_unspecified_monosets_default_to_tie(self):
        text = (
            "rps m=2 objects=R,P,S\n"
            "counts=1,1,0 winner=P\n"
            "counts=1,0,1 winner=R\n"
            "counts=0,1,1 winner=S\n"
        )
        rule = parse_game(text)
        assert eval_outcome(rule, (2, 0, 0)).is_tie
        assert eval_outcome(rule, (1, 1, 0)).winner == 1

    def test_blank_lines_and_comments_skipped(self):
        text = (
            "# a remark\n"
            "\n"
            "rps m=2 objects=a,b\n"
            "counts=1,1 winner=a\n"
            "\n"
        )
        assert parse_game(text).labels == ("a", "b")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("rps m=2 objects=a,b\ncounts=1,1 winner=c\n", 2),
            ("rps m=2 objects=a,b\ncounts=1,2 winner=a\n", 2),
            ("rps m=2 objects=a,b\ncounts=0,2 winner=a\n", 2),
            ("rps m=2 objects=a,a\n", 1),
            ("rps m=x objects=a,b\n", 1),
            ("counts=1,1 winner=a\n", 1),
            ("rps m=2 objects=a,b\ncounts=1 winner=a\n", 2),
            ("rps m=2 objects=a,b\nnonsense\n", 2),
            ("rps m=2 objects=a,b\ncounts=1,-1 winner=a\n", 2),
            ("rps m=2 objects=a,b\ncounts=1,x winner=a\n", 2),
            ("rps m=2 objects=a,b\ncounts=1,1\n", 2),
            ("rps m=2 objects=a,TIE\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert err.value.line == line

    def test_missing_mixed_multiset_rejected(self):
        text = "rps m=2 objects=a,b\n"
        with pytest.raises(GameFileError):
            parse_game(text)

    def test_first_missing_multiset_is_named(self):
        text = "rps m=2 objects=R,P,S\ncounts=1,1,0 winner=P\n"
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert str(err.value) == "no line for multiset (0, 1, 1)"
        assert err.value.line is None

    def test_monoset_lines_may_be_given_or_omitted(self):
        mixed = "counts=1,1,0 winner=P\ncounts=1,0,1 winner=R\ncounts=0,1,1 winner=S\n"
        header = "rps m=2 objects=R,P,S\n"
        some = parse_game(header + "counts=0,2,0 winner=TIE\n" + mixed)
        none = parse_game(header + mixed)
        for counts, _ in enumerate_multisets(3, 2):
            assert eval_outcome(some, counts) == eval_outcome(none, counts)
        assert dump_game(some) == dump_game(none)

    def test_missing_header(self):
        with pytest.raises(GameFileError):
            parse_game("# only a comment\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(GameFileError):
            load_game(tmp_path / "absent.rps")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.rps"
        path.write_bytes(b"rps m=2 objects=a,b\n\xd0\xcf\x11\xe0\n")
        with pytest.raises(GameFileError) as err:
            load_game(path)
        assert str(err.value).startswith(f"cannot read {path}: 'utf-8' codec can't decode")

    def test_duplicate_header_rejected(self):
        text = "rps m=2 objects=a,b\nrps m=2 objects=a,b\n"
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert err.value.line == 2

    def test_duplicate_multiset_rejected(self):
        # a second line for a multiset must not silently override the first
        text = (
            "rps m=2 objects=R,P,S\n"
            "counts=1,1,0 winner=P\n"
            "counts=1,0,1 winner=R\n"
            "counts=0,1,1 winner=S\n"
            "counts=1,1,0 winner=R\n"
        )
        with pytest.raises(GameFileError, match="duplicate line for multiset") as err:
            parse_game(text)
        assert err.value.line == 5

    def test_duplicate_multiset_exits_with_usage_error(self, tmp_path, capsys):
        path = tmp_path / "dup.rps"
        path.write_text(
            "rps m=2 objects=R,P,S\n"
            "counts=1,1,0 winner=P\n"
            "counts=1,1,0 winner=R\n"
            "counts=1,0,1 winner=R\n"
            "counts=0,1,1 winner=S\n"
        )
        assert main(["imbalance", str(path)]) == 2
        assert "duplicate line for multiset (1, 1, 0) (line 3)" in capsys.readouterr().err


HEADER = "rps m=2 objects=a,b\n"
TIE, A_WINS, B_WINS = Outcome(None, 2), Outcome(0, 1), Outcome(1, 1)


class TestMultisetLineForms:
    """A line of exactly ``counts=...`` then ``winner=...`` takes a fast
    path; every other line the general one.  Each outcome below was
    recorded from the single general path that parsed every line before:
    the rule's outcome on (0, 2), (1, 1) and (2, 0), or the error's
    message and line."""

    @pytest.mark.parametrize(
        "line, outcomes",
        [
            pytest.param("counts=1,1 winner=a", (TIE, A_WINS, TIE), id="fast path"),
            pytest.param("counts=1,1 winner=a note=x", (TIE, A_WINS, TIE), id="extra field"),
            pytest.param("counts=1,1 note=x winner=a", (TIE, A_WINS, TIE), id="field between"),
            pytest.param("counts=2,0 counts=1,1 winner=a", (TIE, A_WINS, TIE), id="repeated counts"),
            pytest.param("counts=1,1 winner=a winner=b", (TIE, B_WINS, TIE), id="repeated winner"),
            pytest.param("counts=1,1\twinner=b", (TIE, B_WINS, TIE), id="tab"),
        ],
    )
    def test_parsed_lines(self, line, outcomes):
        rule = parse_game(HEADER + line + "\n")
        assert tuple(eval_outcome(rule, c) for c in ((0, 2), (1, 1), (2, 0))) == outcomes

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("winner=a counts=1,1", "unrecognized line 'winner=a counts=1,1'", id="reordered"),
            pytest.param("counts=1,2=3 winner=a", "bad counts '1,2=3'", id="'=' in counts"),
            pytest.param("counts=1,1 winner=", "unknown winner ''", id="empty winner"),
            pytest.param("counts=1,1 winner=a=b", "unknown winner 'a=b'", id="'=' in winner"),
            pytest.param("counts=1,1", "need counts=<c0,c1,...> winner=<label|TIE>", id="bare counts"),
            pytest.param(
                "counts=1,1 counts=2,0", "need counts=<c0,c1,...> winner=<label|TIE>", id="two counts"
            ),
            pytest.param(
                "counts=1,1 winnerx=a", "need counts=<c0,c1,...> winner=<label|TIE>", id="winnerx"
            ),
        ],
    )
    def test_rejected_lines(self, line, message):
        with pytest.raises(GameFileError) as err:
            parse_game(HEADER + line + "\n")
        assert str(err.value) == f"{message} (line 2)"
        assert err.value.line == 2


# Two counts of 4,300 digits each parse, but their sum has 4,301, more
# than Python converts to a string by default.
NINES = "9" * 4300
UNPRINTABLE_SUM = f"rps m=2 objects=a,b\ncounts={NINES},{NINES} winner=a\n"


class TestUnprintableCounts:
    def test_sum_is_named_with_its_line(self):
        with pytest.raises(GameFileError) as err:
            parse_game(UNPRINTABLE_SUM)
        assert str(err.value) == "counts sum to <14286-bit integer>, expected 2 (line 2)"
        assert err.value.line == 2

    def test_cli_exits_with_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.rps"
        path.write_text(UNPRINTABLE_SUM)
        assert main(["nash", "--game", str(path), "--mode", "symmetric"]) == 2
        assert "(line 2)" in capsys.readouterr().err
