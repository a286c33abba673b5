import dataclasses
import json
import random
from fractions import Fraction
from math import gcd, inf, lcm, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_prover import grid_probe, reference_certificate
from rps_forge import certify
from rps_forge.certify import (
    Verdict,
    constraint_system,
    decimal_string,
    eliminated_system,
    infeasibility_certificate,
    ptype_to_s_ratio_check,
    sweep,
)
from rps_forge.construct import imbalanced_rps
from rps_forge.core import GameError
from rps_forge.equilibrium import solve_symmetric_rps3, symmetric_profile
from rps_forge.formulas import Role, ScenarioError, ev_raw, payoff_poly
from rps_forge.intervals import MEMO_DEPTHS, PRECISION_BITS, Interval, Poly2, poly_sub


def payoff_pairs(t):
    """Each condition's (better, worse) roles, keyed by its name."""
    pairs = {
        "mixer_indifferent_R_P": (Role.MIXER_P, Role.MIXER_R),
        "candidate_indifferent_S_P": (Role.CANDIDATE_S, Role.CANDIDATE_P),
        "mixer_prefers_P_over_S": (Role.MIXER_P, Role.MIXER_S),
    }
    if t:
        pairs["committed_prefers_P_over_R"] = (Role.COMMITTED_P, Role.COMMITTED_R)
        pairs["committed_prefers_P_over_S"] = (Role.COMMITTED_P, Role.COMMITTED_S)
    return pairs


class TestConstraintSystem:
    def test_committed_constraints_only_with_t(self):
        names0 = {c.name for c in constraint_system(3, 0)}
        names1 = {c.name for c in constraint_system(3, 1)}
        assert not any(n.startswith("committed") for n in names0)
        assert {n for n in names1 if n.startswith("committed")} == {
            "committed_prefers_P_over_R",
            "committed_prefers_P_over_S",
        }

    def test_equalities_listed_first(self):
        kinds = [c.kind for c in constraint_system(4, 2)]
        assert kinds[:2] == ["eq", "eq"] and "eq" not in kinds[2:]

    def test_degrees(self):
        def degree_r(poly):
            return max(len(poly.p0), len(poly.p1)) - 1

        for k, t in ((1, 0), (3, 2), (6, 4)):
            by_name = {c.name: c.poly for c in constraint_system(k, t)}
            assert degree_r(by_name["mixer_indifferent_R_P"]) <= k
            if t:
                assert degree_r(by_name["committed_prefers_P_over_R"]) <= k + 1

    def test_integer_coefficients(self):
        for c in constraint_system(5, 3):
            assert all(x.denominator == 1 for x in (*c.poly.p0, *c.poly.p1))

    @pytest.mark.parametrize("k, t", [(1, 0), (2, 0), (3, 2), (5, 4), (8, 0), (12, 6)])
    def test_matches_formula_differences(self, k, t):
        # each polynomial is a positive multiple of the payoff difference
        # it encodes, here computed by the direct sums of ev_raw, at every
        # rational point, r = 0 included
        rng = random.Random(k * 100 + t)
        by_name = {c.name: c for c in constraint_system(k, t)}
        pairs = payoff_pairs(t)
        assert set(by_name) == set(pairs)
        for _ in range(25):
            r = Fraction(rng.randint(0, 99), 100)
            s = Fraction(rng.randint(0, 100), 100)
            for name, (better, worse) in pairs.items():
                c = by_name[name]
                assert c.scale > 0
                diff = ev_raw(better, k, t, [r] * k, s) - ev_raw(worse, k, t, [r] * k, s)
                assert c.poly.eval_exact(r, s) == c.scale * diff, name

    @pytest.mark.parametrize("k, t", [(1, 0), (2, 1), (3, 2), (7, 11), (14, 7), (30, 5), (50, 50)])
    def test_integer_differences_match_the_fraction_route(self, k, t):
        # the difference of the two payoffs in Fractions, times the lcm of
        # its denominators over the gcd of the numerators that gives
        pairs = payoff_pairs(t)
        for c in constraint_system(k, t):
            better, worse = (payoff_poly(role, k, t) for role in pairs[c.name])
            diff = [
                [Fraction(x) for x in poly_sub(b, w)]
                for b, w in ((better.p0, worse.p0), (better.p1, worse.p1))
            ]
            q = lcm(*(x.denominator for part in diff for x in part))
            content = gcd(*(x.numerator * (q // x.denominator) for part in diff for x in part))
            want = []
            for part in diff:
                ints = [int(x * q) // content for x in part]
                while ints and ints[-1] == 0:
                    ints.pop()
                want.append(ints)
            assert [c.poly.p0, c.poly.p1] == want, c.name
            assert c.scale == Fraction(q, content), c.name

    @pytest.mark.parametrize("k, t", [(1, 0), (2, 0), (3, 2), (5, 4), (8, 0), (12, 6), (30, 5)])
    def test_elimination_is_a1_squared_times_the_condition(self, k, t):
        # on the mixer curve s = -a0/a1, each eliminated polynomial is
        # scale * a1^2 times the two-variable condition it came from
        rng = random.Random(k * 100 + t)
        mixer, *full = constraint_system(k, t)
        eliminated = eliminated_system(k, t)
        assert [(c.name, c.kind) for c in eliminated] == [(c.name, c.kind) for c in full]
        assert mixer.name == "mixer_indifferent_R_P"
        # the candidate alone plays S, so its indifference has no s term
        assert full[0].name == "candidate_indifferent_S_P" and not full[0].poly.p1
        zero = Fraction(0)
        checked = 0
        while checked < 20:
            r = Fraction(rng.randint(0, 10**6), 10**6)
            a0 = mixer.poly.eval_exact(r, zero)
            a1 = mixer.poly.eval_exact(r, Fraction(1)) - a0
            if a1 == 0:
                continue
            s = -a0 / a1
            assert mixer.poly.eval_exact(r, s) == 0
            for elim, c in zip(eliminated, full):
                assert not elim.poly.p1, elim.name
                if not c.poly.p1:
                    # free of s: kept as it is
                    assert (elim.poly.p0, elim.scale) == (c.poly.p0, c.scale)
                    continue
                assert elim.scale > 0
                assert all(type(x) is int for x in elim.poly.p0)
                value = elim.poly.eval_exact(r, zero)
                assert value == elim.scale * a1**2 * c.poly.eval_exact(r, s), elim.name
            checked += 1


class TestIntervalSoundness:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_enclosures_contain_samples(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        k = rng.randint(1, 5)
        t = rng.randint(0, 4)
        constraints = constraint_system(k, t)
        lo_r = Fraction(rng.randint(0, 900), 1000)
        hi_r = lo_r + Fraction(rng.randint(1, 100), 1000)
        lo_s = Fraction(rng.randint(0, 900), 1000)
        hi_s = lo_s + Fraction(rng.randint(1, 100), 1000)
        box_r, box_s = Interval(lo_r, hi_r), Interval(lo_s, hi_s)
        for c in constraints:
            enc_tight = c.poly.eval_box(box_r, box_s)
            for _ in range(100):
                r = lo_r + Fraction(rng.randint(0, 1000), 1000) * (hi_r - lo_r)
                s = lo_s + Fraction(rng.randint(0, 1000), 1000) * (hi_s - lo_s)
                value = c.poly.eval_exact(r, s)
                assert enc_tight.lo <= value <= enc_tight.hi

    def test_box_enclosure_exact_for_nonnegative_shifted_coefficients(self):
        # r^3 over [1/4, 1/2]: every shifted coefficient is nonnegative,
        # so the Bernstein coefficients rise from p(1/4) to p(1/2) and
        # the bounds are the true range exactly
        poly = Poly2([Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
        box = Interval(Fraction(1, 4), Fraction(1, 2))
        enc = poly.eval_box(box, Interval.point(0))
        assert enc.lo == Fraction(1, 64)
        assert enc.hi == Fraction(1, 8)


def relaxed(monkeypatch, dropped):
    """Make ``infeasibility_certificate`` see the system without the
    constraint named ``dropped``."""
    full = constraint_system

    def without(k, t):
        return [c for c in full(k, t) if c.name != dropped]

    monkeypatch.setattr(certify, "constraint_system", without)


class TestCertificates:
    @pytest.mark.parametrize("k, t", [(1, 0), (2, 0), (3, 2), (5, 5)])
    def test_proved_empty(self, k, t):
        cert = infeasibility_certificate(k, t)
        assert cert.proved_empty
        assert cert.undecided_count == 0
        assert cert.boxes >= 1

    @pytest.mark.parametrize(
        "k, t, boxes, depth, pruned",
        [
            (3, 2, 3, 1, (1, 1)),
            (12, 12, 5, 2, (2, 1)),
            (14, 7, 13, 6, (6, 1)),
            (30, 5, 17, 8, (8, 1)),
        ],
    )
    def test_interval_shapes_are_pinned(self, k, t, boxes, depth, pruned):
        # a refactor of the constraint system or of the elimination that
        # changes a proof shows here; the mixer equality is used up by the
        # elimination and prunes nothing itself
        cert = infeasibility_certificate(k, t)
        assert cert.verdict is Verdict.PROVED_EMPTY
        assert (cert.boxes, cert.deepest) == (boxes, depth)
        assert list(cert.pruned.items()) == [
            ("candidate_indifferent_S_P", pruned[0]),
            ("mixer_prefers_P_over_S", pruned[1]),
            ("committed_prefers_P_over_R", 0),
            ("committed_prefers_P_over_S", 0),
        ]

    @pytest.mark.parametrize(
        "k, t, boxes, depth, pruned",
        [
            (3, 2, 3, 1, (0, 1, 1)),
            (12, 12, 23, 11, (5, 6, 1)),
            (14, 7, 33, 11, (9, 6, 2)),
            (30, 5, 43, 15, (11, 9, 2)),
        ],
    )
    def test_certificate_shapes_are_pinned(self, k, t, boxes, depth, pruned):
        # the two-variable reference prover on the system with s in it
        cert = reference_certificate(k, t)
        assert cert.verdict is Verdict.PROVED_EMPTY
        assert (cert.boxes, cert.deepest) == (boxes, depth)
        assert cert.pruned == {
            "mixer_indifferent_R_P": pruned[0],
            "candidate_indifferent_S_P": pruned[1],
            "mixer_prefers_P_over_S": pruned[2],
            "committed_prefers_P_over_R": 0,
            "committed_prefers_P_over_S": 0,
        }

    def test_root_is_the_closed_unit_interval(self, monkeypatch):
        # no margin: the first interval examined is exactly [0, 1], for
        # any delta, and every later one lies inside it
        for delta in (Fraction(1, 10**6), Fraction(1, 100)):
            seen = []
            kernel = Poly2.eval_box

            def recording(poly, r, s, bits=PRECISION_BITS):
                seen.append(r)
                return kernel(poly, r, s, bits)

            monkeypatch.setattr(Poly2, "eval_box", recording)
            cert = infeasibility_certificate(5, 5, delta=delta)
            monkeypatch.undo()
            assert cert.proved_empty and cert.delta == delta
            assert seen[0] == Interval(Fraction(0), Fraction(1))
            assert all(0 <= r.lo < r.hi <= 1 for r in seen)

    @pytest.mark.parametrize("k, t", [(2, 0), (3, 1)])
    def test_one_variable_route_never_proves_a_feasible_relaxation_empty(
        self, monkeypatch, k, t
    ):
        # as for the reference prover below, with each condition the
        # elimination keeps dropped in turn; the mixer equality is what
        # eliminates s, so it stays
        names = [c.name for c in constraint_system(k, t)][1:]
        feasible_relaxations = 0
        for dropped in names:
            points = grid_probe(k, t, drop=(dropped,), steps=60, slack=5e-3)
            relaxed(monkeypatch, dropped)
            cert = infeasibility_certificate(k, t, max_depth=10)
            monkeypatch.undo()
            assert dropped not in cert.pruned
            if points:
                feasible_relaxations += 1
                assert cert.verdict is Verdict.UNDECIDED, (
                    f"proved empty with {dropped} dropped, but the grid "
                    f"found feasible points, e.g. {points[0]}"
                )
        assert feasible_relaxations >= 1  # the mutation set must bite

    def test_interval_budget_yields_undecided(self, monkeypatch):
        monkeypatch.setattr(certify, "_MAX_BOXES", 2)
        cert = infeasibility_certificate(12, 6)
        assert cert.verdict is Verdict.UNDECIDED
        assert cert.note == "box budget 2 exhausted"
        assert cert.undecided_count == 1
        assert cert.undecided_sample == (Interval(Fraction(0), Fraction(1, 2)),)

    def test_undecided_cap_counts_intervals_left_on_the_stack(self, monkeypatch):
        relaxed(monkeypatch, "candidate_indifferent_S_P")
        monkeypatch.setattr(certify, "_UNDECIDED_CAP", 4)
        cert = infeasibility_certificate(2, 0, max_depth=12)
        assert "stopped after 4" in cert.note
        assert len(cert.undecided_sample) == 4
        assert cert.undecided_count > 4

    @pytest.mark.parametrize("k, t, depth", [(2, 0, 14), (3, 1, 12)])
    def test_split_memo_stays_bounded_and_changes_nothing(self, monkeypatch, k, t, depth):
        # an undecided run over thousands of intervals: pruned leaves and
        # halves a constraint never sees must not pile up in its memo, and
        # a run that empties the memo before every enclosure, so that each
        # takes the Taylor route, must come out the same
        relaxed(monkeypatch, "candidate_indifferent_S_P")
        kernel = Poly2.eval_box
        sizes = []

        def watching(poly, r, s, bits=PRECISION_BITS):
            enc = kernel(poly, r, s, bits)
            sizes.append(len(poly._memo))
            return enc

        def forgetting(poly, r, s, bits=PRECISION_BITS):
            poly._memo = None
            return kernel(poly, r, s, bits)

        monkeypatch.setattr(certify, "_UNDECIDED_CAP", 10**6)
        runs = []
        for patched in (watching, forgetting):
            monkeypatch.setattr(Poly2, "eval_box", patched)
            runs.append(infeasibility_certificate(k, t, max_depth=depth))
        remembering, forgetful = (dataclasses.replace(c, millis=0.0) for c in runs)
        assert remembering.verdict is Verdict.UNDECIDED and remembering.boxes > 2000
        assert 2 <= max(sizes) <= depth + 1 <= MEMO_DEPTHS
        assert remembering == forgetful

    def test_reference_prover_agrees_on_the_desk_scale_sweep(self):
        # the two routes share the enclosure kernel but not the elimination
        for k in range(1, 13):
            for t in range(0, 13):
                assert infeasibility_certificate(k, t).proved_empty, (k, t)
                assert reference_certificate(k, t).proved_empty, (k, t)

    def test_relaxed_system_is_undecided(self):
        kept = [
            c for c in constraint_system(2, 0)
            if c.name != "candidate_indifferent_S_P"
        ]
        cert = reference_certificate(2, 0, constraints=kept, max_depth=12)
        assert cert.verdict is Verdict.UNDECIDED
        assert cert.undecided_count > 0

    def test_undecided_cap_counts_boxes_left_on_the_stack(self):
        kept = [
            c for c in constraint_system(2, 0)
            if c.name != "candidate_indifferent_S_P"
        ]
        cert = reference_certificate(
            2, 0, constraints=kept, max_depth=12, undecided_cap=4
        )
        assert "stopped after 4" in cert.note
        assert len(cert.undecided_sample) == 4
        assert cert.undecided_count > 4

    def test_relaxed_system_has_feasible_grid_points(self):
        points = grid_probe(
            2, 0, drop=("candidate_indifferent_S_P",), steps=40, slack=1e-3
        )
        assert points

    def test_full_system_has_no_near_feasible_grid_points(self):
        assert grid_probe(2, 0, steps=150, slack=1e-7) == []
        assert grid_probe(4, 3, steps=80, slack=1e-7) == []

    def test_delta_guards(self):
        with pytest.raises(ScenarioError):
            infeasibility_certificate(2, 0, delta=Fraction(1, 50))
        with pytest.raises(ScenarioError):
            infeasibility_certificate(2, 0, delta=Fraction(0))
        with pytest.raises(ScenarioError):
            infeasibility_certificate(2, 0, max_depth=0)

    def test_smallest_budgets_run(self, monkeypatch):
        monkeypatch.setattr(certify, "_MAX_BOXES", 1)
        cert = infeasibility_certificate(12, 6)
        assert cert.verdict is Verdict.UNDECIDED
        assert (cert.boxes, cert.note) == (2, "box budget 1 exhausted")
        monkeypatch.undo()
        monkeypatch.setattr(certify, "_UNDECIDED_CAP", 1)
        cert = infeasibility_certificate(12, 6, max_depth=1)
        assert cert.verdict is Verdict.UNDECIDED
        assert cert.note == "stopped after 1 surviving boxes"
        assert len(cert.undecided_sample) == 1

    def test_record_fields(self):
        cert = infeasibility_certificate(2, 1)
        record = cert.to_record()
        assert set(record) == {"k", "t", "verdict", "delta", "boxes", "depth", "millis"}
        assert record["delta"] == "0.000001"
        assert record["verdict"] == "proved_empty"

    def test_box_budget_yields_undecided(self):
        kept = [
            c for c in constraint_system(2, 0)
            if c.name != "candidate_indifferent_S_P"
        ]
        cert = reference_certificate(
            2, 0, constraints=kept, max_depth=40, max_boxes=50
        )
        assert cert.verdict is Verdict.UNDECIDED
        assert "budget" in cert.note or cert.undecided_count > 0

    @pytest.mark.parametrize("k, t", [(2, 0), (3, 1)])
    def test_never_proves_a_feasible_relaxation_empty(self, k, t):
        # dropping constraints one at a time: whenever the dense grid
        # finds a feasible point for the relaxed system, the reference
        # prover must come back undecided, never proved-empty
        names = [c.name for c in constraint_system(k, t)]
        feasible_relaxations = 0
        for dropped in names:
            points = grid_probe(k, t, drop=(dropped,), steps=60, slack=5e-3)
            kept = [c for c in constraint_system(k, t) if c.name != dropped]
            cert = reference_certificate(k, t, constraints=kept, max_depth=10)
            if points:
                feasible_relaxations += 1
                assert cert.verdict is Verdict.UNDECIDED, (
                    f"proved empty with {dropped} dropped, but the grid "
                    f"found feasible points, e.g. {points[0]}"
                )
        assert feasible_relaxations >= 1  # the mutation set must bite


def without_millis(records):
    return [{key: v for key, v in r.items() if key != "millis"} for r in records]


class TestSweep:
    def test_tiny_sweep(self):
        report = sweep(1, 0)
        assert len(report.records) == 1
        assert report.all_proved and not report.incomplete

    def test_small_rectangle(self):
        report = sweep(3, 3)
        assert len(report.records) == 4 * 3
        assert report.all_proved
        assert [(r["k"], r["t"]) for r in report.records] == [
            (k, t) for k in range(1, 4) for t in range(0, 4)
        ]

    def test_budget_flags_incomplete(self):
        report = sweep(4, 4, budget_seconds=0.0)
        assert report.incomplete
        assert not report.all_proved
        assert report.skipped

    def test_parallel_matches_serial(self):
        serial = sweep(2, 2)
        parallel = sweep(2, 2, jobs=2)
        assert without_millis(serial.records) == without_millis(parallel.records)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ScenarioError, match="jobs"):
            sweep(1, 0, jobs=0)

    @pytest.mark.parametrize("budget", [nan, inf, -inf, -1.0])
    def test_budget_must_be_nonnegative_and_finite(self, budget):
        with pytest.raises(ScenarioError, match="budget_seconds"):
            sweep(1, 0, budget_seconds=budget)

    def test_stream_resumes_an_exhausted_budget(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = sweep(3, 3, budget_seconds=0.0, stream=path)
        assert first.incomplete and len(first.records) == 1
        resumed = sweep(3, 3, stream=path)
        assert resumed.all_proved
        assert without_millis(resumed.records) == without_millis(sweep(3, 3).records)
        lines = [json.loads(line) for line in open(path)]
        assert sorted((r["k"], r["t"]) for r in lines) == [
            (k, t) for k in range(1, 4) for t in range(0, 4)
        ]
        # the resumed report carries the file's records, millis included
        assert sorted(lines, key=lambda r: (r["k"], r["t"])) == list(resumed.records)

    def test_larger_stream_leaves_smaller_report_unaffected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep(3, 3, stream=str(path))
        text = path.read_text()
        report = sweep(2, 1, stream=str(path))
        assert path.read_text() == text  # nothing was run again
        assert not report.incomplete and report.all_proved
        assert without_millis(report.records) == without_millis(sweep(2, 1).records)

    def test_stream_reruns_undecided_record_at_requested_depth(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        record = infeasibility_certificate(5, 5, max_depth=2).to_record()
        assert record["verdict"] == "undecided"
        path.write_text(json.dumps(record) + "\n")
        report = sweep(5, 5, stream=str(path))
        assert not report.incomplete and report.all_proved
        rerun = infeasibility_certificate(5, 5).to_record()
        assert without_millis([report.records[-1]]) == without_millis([rerun])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == record
        assert [(r["k"], r["t"]) for r in lines].count((5, 5)) == 2
        assert lines[-1] == report.records[-1]
        # Proved records are held: a second run appends nothing.
        again = sweep(5, 5, stream=str(path))
        assert again.records == report.records
        assert len(path.read_text().splitlines()) == len(lines)

    def test_budget_lists_held_undecided_pair_as_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        record = infeasibility_certificate(5, 5, max_depth=2).to_record()
        assert record["verdict"] == "undecided"
        path.write_text(json.dumps(record) + "\n")
        # The budget runs out after the first pair, before (5, 5) is rerun.
        report = sweep(5, 5, budget_seconds=0, stream=str(path))
        assert report.incomplete and len(report.skipped) == 29
        assert report.skipped[-1] == (5, 5) and report.records[-1] == record

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "malformed"),
            ("[1, 0]", "malformed"),
            ('{"k": 1, "t": 0}', "malformed"),
            ('{"k": 1, "t": 0, "verdict": "proved_empty"}', "malformed"),
            ('{"k": "1", "t": 0, "verdict": "proved_empty", "delta": "0.000001"}', "malformed"),
            ('{"k": 1, "t": 0, "verdict": "proved_empty", "delta": "0.001"}', "delta 0.001"),
        ],
    )
    def test_bad_stream_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "sweep.jsonl"
        good = sweep(1, 0).records[0]
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        with pytest.raises(ScenarioError, match=message) as info:
            sweep(1, 1, stream=str(path))
        assert f"{path}:2" in str(info.value)


class TestDecimalString:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1, 10**6), "0.000001"),
            (Fraction(1, 2), "0.5"),
            (Fraction(-3, 8), "-0.375"),
            (Fraction(5), "5"),
            (Fraction(1, 3), "1/3"),
            (Fraction(999999, 10**6), "0.999999"),
        ],
    )
    def test_values(self, value, text):
        assert decimal_string(value) == text


class TestRatioCheck:
    def test_three_object_rows(self):
        for m, want in ((3, 0.473 / 0.202), (10, 0.760 / 0.027), (20, 0.850 / 0.008)):
            rule = imbalanced_rps(m, 1)
            eq = solve_symmetric_rps3(m)
            profile = symmetric_profile(eq.as_vector(), m)
            reports = ptype_to_s_ratio_check(rule, profile)
            assert len(reports) == m
            for rep in reports:
                assert not rep.vacuous
                assert rep.satisfied
                assert rep.ratio == pytest.approx(want, rel=0.05)
                assert rep.ratio >= m - 1

    def test_pure_p_profile_is_vacuous(self):
        rule = imbalanced_rps(3, 1)
        profile = symmetric_profile((0.0, 1.0, 0.0), 3)
        reports = ptype_to_s_ratio_check(rule, profile)
        assert all(rep.vacuous for rep in reports)
        assert all(rep.satisfied is None for rep in reports)

    def test_tie_probe_reported(self):
        rule = imbalanced_rps(5, 1)
        eq = solve_symmetric_rps3(5)
        profile = symmetric_profile(eq.as_vector(), 5)
        reports = ptype_to_s_ratio_check(rule, profile)
        assert all(rep.tie_probe is not None for rep in reports)
        assert all(0 <= rep.tie_probe <= 4 for rep in reports)

    def test_level_metadata_required(self):
        from rps_forge.construct import imbalanced_rps3

        rule = imbalanced_rps3(3)
        profile = symmetric_profile((0.3, 0.5, 0.2), 3)
        with pytest.raises(Exception):
            ptype_to_s_ratio_check(rule, profile)

    def test_player_count_mismatch(self):
        rule = imbalanced_rps(3, 1)
        profile = symmetric_profile((0.3, 0.5, 0.2), 4)
        with pytest.raises(GameError, match="profile has 4 players, game has 3"):
            ptype_to_s_ratio_check(rule, profile)

    @pytest.mark.parametrize("vector", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
    def test_vector_length_mismatch(self, vector):
        # Both once raised IndexError from the P-type sums.
        rule = imbalanced_rps(3, 1)
        profile = symmetric_profile(vector, 3)
        with pytest.raises(GameError, match=f"profile has {len(vector)} entries for 3 objects"):
            ptype_to_s_ratio_check(rule, profile)
