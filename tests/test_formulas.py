import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from rps_forge import formulas
from rps_forge.construct import imbalanced_rps3
from rps_forge.equilibrium import MixedProfile, expected_payoff
from rps_forge.formulas import (
    COMMITTED_ROLES,
    Role,
    Scenario,
    ScenarioError,
    corner_value,
    ev_raw,
    ev_simplified,
    identity_check,
)


def count_r_probability(r_vec, count):
    """Probability that exactly ``count`` of these players pick R, by
    literal enumeration of the player subsets."""
    idx = range(len(r_vec))
    total = Fraction(0)
    for chosen in combinations(idx, count):
        chosen_set = set(chosen)
        term = Fraction(1)
        for j in idx:
            term *= r_vec[j] if j in chosen_set else 1 - r_vec[j]
        total += term
    return total


def reference_identity_sums(k, t, b):
    """The two identity sums and their closed values, built term by term
    with ``Fraction``."""
    m = k + t + 1
    sum1 = sum(
        (Fraction(m - (kk + 1), kk + 1) * (-1) ** kk * comb(b, kk) for kk in range(b + 1)),
        Fraction(0),
    )
    closed1 = Fraction(m, 1 + b) - (1 if b == 0 else 0)
    sum2 = sum(
        (
            Fraction(k - kk - 1, kk + t + 2) * (-1) ** (b - (k - 1) + kk) * comb(b, (k - 1) - kk)
            for kk in range(k - 1 - b, k)
        ),
        Fraction(0),
    )
    closed2 = Fraction(1, comb(k + t, b)) if b >= 1 else Fraction(0)
    return sum1, closed1, sum2, closed2


def reference_identity_check(k, t, b):
    sum1, closed1, sum2, closed2 = reference_identity_sums(k, t, b)
    return sum1 == closed1, sum2 == closed2


def reference_corner_value(k, t, l, s_corner):
    """The corner sum built term by term with ``Fraction``."""
    m = k + t + 1
    s = Fraction(s_corner)
    total = Fraction(0)
    for b in range(1, l + 2):
        coeff = s * (-1) ** b * Fraction(m, 1 + b) - (1 - s) * Fraction(1, comb(k + t, b))
        total += coeff * comb(l, b - 1)
    return total


def reference_ev_raw(role, k, t, r_vec, s):
    """``ev_raw`` built with one ``Fraction`` per operation: the
    Poisson-binomial recurrence over ``Fraction`` probabilities, then the
    direct expectation sums."""
    s = Fraction(s)
    player, choice = role.value.split(":")
    if player == "candidate":
        s = Fraction(0)
    m = k + t + 1
    dist = [Fraction(1)]
    for r in (r_vec[1:] if player == "mixer" else r_vec):
        new = [d * (1 - r) for d in dist] + [Fraction(0)]
        for j, d in enumerate(dist):
            new[j + 1] += d * r
        dist = new
    if choice == "R":
        acc = sum(Fraction(m - (j + 1), j + 1) * p for j, p in enumerate(dist))
        return s * acc - (1 - s)
    if choice == "P":
        base = t + 2 if player == "mixer" else t + 1
        acc = sum(Fraction(m - (j + base), j + base) * p for j, p in enumerate(reversed(dist)))
        return (1 - s) * acc - s
    quiet = dist[0]
    return quiet * ((1 - s) * (k + t) + s * Fraction(k + t - 1, 2)) - (1 - quiet)


def all_roles_for(t: int):
    return [r for r in Role if t > 0 or r not in COMMITTED_ROLES]


class TestScenario:
    def test_player_total(self):
        assert Scenario(k=3, t=2, r=Fraction(1, 2), s=Fraction(1, 3)).m == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0, t=0, r=Fraction(0), s=Fraction(0)),
            dict(k=1, t=-1, r=Fraction(0), s=Fraction(0)),
            dict(k=1, t=0, r=Fraction(3, 2), s=Fraction(0)),
            dict(k=1, t=0, r=Fraction(0), s=Fraction(-1, 2)),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ScenarioError):
            Scenario(**kwargs)


class TestSimplifiedValues:
    def test_candidate_s_small_case(self):
        # k=1, t=0, r=1/2: the candidate playing S wins alone (payoff 1)
        # when the single mixer picks P, loses otherwise
        sc = Scenario(k=1, t=0, r=Fraction(1, 2), s=Fraction(0))
        assert ev_simplified(Role.CANDIDATE_S, sc) == 0

    def test_candidate_p_all_p_crowd_ties(self):
        # with r = 0 every multiset is all-P: an all-way tie pays zero
        for k, t in ((1, 0), (3, 2), (5, 5)):
            sc = Scenario(k=k, t=t, r=Fraction(0), s=Fraction(1, 2))
            assert ev_simplified(Role.CANDIDATE_P, sc) == 0

    def test_mixer_s_sole_winner(self):
        # everyone else plays P, so the deviating mixer's S wins alone
        sc = Scenario(k=2, t=0, r=Fraction(0), s=Fraction(0))
        assert ev_simplified(Role.MIXER_S, sc) == 2

    def test_mixer_r_limit_at_r_zero(self):
        # the 1/(k r) singularity is removable; limit value is s*m - 1
        for k, t, s in ((2, 0, Fraction(1, 3)), (4, 3, Fraction(2, 7))):
            sc = Scenario(k=k, t=t, r=Fraction(0), s=s)
            m = k + t + 1
            assert ev_simplified(Role.MIXER_R, sc) == s * m - 1
            a = ev_simplified(Role.MIXER_R, Scenario(k=k, t=t, r=Fraction(1, 10**9), s=s))
            assert abs(float(a - (s * m - 1))) < 1e-6

    def test_committed_roles_need_committed_players(self):
        sc = Scenario(k=2, t=0, r=Fraction(1, 2), s=Fraction(1, 2))
        for role in COMMITTED_ROLES:
            with pytest.raises(ScenarioError):
                ev_simplified(role, sc)


class TestRawOracle:
    def test_wrong_vector_length(self):
        with pytest.raises(ScenarioError):
            ev_raw(Role.MIXER_R, 3, 0, [Fraction(1, 2)] * 2, Fraction(1, 2))

    @pytest.mark.parametrize("role", list(Role))
    def test_negative_committed_count_rejected_as_in_scenario(self, role):
        # ev_raw once returned -1/2 for MIXER_R at t = -1 and divided by
        # zero for CANDIDATE_P
        with pytest.raises(ScenarioError) as want:
            Scenario(k=2, t=-1, r=Fraction(1, 2), s=Fraction(1, 3))
        with pytest.raises(ScenarioError) as got:
            ev_raw(role, 2, -1, [Fraction(1, 2)] * 2, Fraction(1, 3))
        assert str(got.value) == str(want.value)

    def test_no_mixer_rejected_as_in_scenario(self):
        with pytest.raises(ScenarioError) as want:
            Scenario(k=0, t=1, r=Fraction(0), s=Fraction(0))
        with pytest.raises(ScenarioError) as got:
            ev_raw(Role.CANDIDATE_S, 0, 1, [], Fraction(0))
        assert str(got.value) == str(want.value) == "need at least one mixer, got k=0"

    def test_large_k_matches_closed_forms(self):
        r, s = Fraction(3, 7), Fraction(2, 5)
        for k in (21, 40):
            for t in (0, 3):
                sc = Scenario(k=k, t=t, r=r, s=s)
                for role in all_roles_for(t):
                    assert ev_raw(role, k, t, [r] * k, s) == ev_simplified(role, sc), (
                        role, k, t,
                    )

    def test_all_p_crowd_pays_candidate_s_everything(self):
        # all mixers on P: the candidate's S beats k+t P-players
        for k, t in ((1, 0), (3, 2), (4, 4)):
            got = ev_raw(Role.CANDIDATE_S, k, t, [Fraction(0)] * k, Fraction(1, 2))
            assert got == k + t

    def test_crowd_symmetry(self):
        # all-player probabilities are exchangeable; mixer roles are
        # exchangeable in the probabilities of the non-designated mixers
        a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)
        s = Fraction(1, 4)
        for role in (Role.CANDIDATE_P, Role.CANDIDATE_S, Role.COMMITTED_R,
                     Role.COMMITTED_P, Role.COMMITTED_S):
            t = 1
            values = {
                ev_raw(role, 3, t, perm, s)
                for perm in ((a, b, c), (c, a, b), (b, c, a), (c, b, a))
            }
            assert len(values) == 1
        for role in (Role.MIXER_R, Role.MIXER_P, Role.MIXER_S):
            assert ev_raw(role, 3, 0, (a, b, c), s) == ev_raw(role, 3, 0, (a, c, b), s)

    def test_count_distribution_matches_per_count_enumeration(self):
        from rps_forge.formulas import _count_r_distribution

        # integer numerators ``ways`` over one denominator ``den``
        assert _count_r_distribution([]) == ([1], 1)
        rng = random.Random(2026)
        for n in range(13):
            for _ in range(2):
                # heterogeneous vectors with exact 0 and 1 entries mixed in
                vec = [
                    Fraction(rng.randint(0, 1)) if rng.random() < 0.25
                    else Fraction(rng.randint(1, 999), rng.randint(1000, 1999))
                    for _ in range(n)
                ]
                ways, den = _count_r_distribution(vec)
                assert all(type(w) is int for w in ways) and type(den) is int
                assert sum(ways) == den
                dist = [Fraction(w, den) for w in ways]
                assert dist == [count_r_probability(vec, c) for c in range(n + 1)], vec

    def test_matches_fraction_recurrence_on_mixed_vectors(self):
        # per-player r with differing denominators, exact 0 and 1 entries,
        # and int entries, over every role and k <= 12
        rng = random.Random(4242)
        for k in range(1, 13):
            for role in Role:
                for _ in range(3):
                    t = rng.randint(1 if role in COMMITTED_ROLES else 0, 8)
                    vec = [
                        rng.choice((0, 1, Fraction(0), Fraction(1))) if rng.random() < 0.3
                        else Fraction(rng.randint(0, 97), rng.choice((97, 128, 1000, 1001)))
                        for _ in range(k)
                    ]
                    s = rng.choice((0, 1, Fraction(rng.randint(0, 60), 61)))
                    got = ev_raw(role, k, t, vec, s)
                    assert type(got) is Fraction
                    assert got == reference_ev_raw(role, k, t, vec, s), (role, k, t, vec, s)


class TestRawMatchesGame:
    """``ev_raw`` is the scenario's expected payoff in the imbalanced
    three-object game itself: exact equality with
    ``equilibrium.expected_payoff`` on the scenario's mixed profile."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_every_role_matches_expected_payoff(self, k):
        rng = random.Random(k)
        for t in range(5):
            game = imbalanced_rps3(k + t + 1)
            for _ in range(3):
                r_vec = [Fraction(rng.randint(0, 20), 20) for _ in range(k)]
                s = Fraction(rng.randint(0, 20), 20)
                profile = MixedProfile(
                    vectors=tuple((r, 1 - r, Fraction(0)) for r in r_vec)
                    + ((Fraction(0), Fraction(1), Fraction(0)),) * t
                    + ((Fraction(0), 1 - s, s),)
                )
                player = {"mixer": 0, "committed": k, "candidate": k + t}
                for role in all_roles_for(t):
                    who, choice = role.value.split(":")
                    expected = expected_payoff(game, profile, player[who], choice)
                    assert ev_raw(role, k, t, r_vec, s) == expected, (role, k, t, r_vec, s)


class TestRoutesAgree:
    """The closed forms and the raw sums are the same function when all
    mixers share one probability: exact rational equality."""

    def test_randomized_equivalence(self):
        rng = random.Random(20260810)
        for _ in range(200):
            k = rng.randint(1, 8)
            t = rng.randint(0, 8)
            r = Fraction(rng.randint(0, 1000), 1000)
            s = Fraction(rng.randint(0, 1000), 1000)
            sc = Scenario(k=k, t=t, r=r, s=s)
            for role in all_roles_for(t):
                assert ev_simplified(role, sc) == ev_raw(role, k, t, [r] * k, s), (
                    role, k, t, r, s,
                )

    def test_randomized_equivalence_large_k(self):
        rng = random.Random(20261018)
        for k in range(13, 31):
            t = rng.randint(0, 30)
            r = Fraction(rng.randint(0, 1000), 1000)
            s = Fraction(rng.randint(0, 1000), 1000)
            sc = Scenario(k=k, t=t, r=r, s=s)
            for role in all_roles_for(t):
                assert ev_simplified(role, sc) == ev_raw(role, k, t, [r] * k, s), (
                    role, k, t, r, s,
                )

    def test_edge_probabilities(self):
        for k, t in ((1, 0), (2, 3), (6, 1)):
            for r in (Fraction(0), Fraction(1)):
                for s in (Fraction(0), Fraction(1)):
                    sc = Scenario(k=k, t=t, r=r, s=s)
                    for role in all_roles_for(t):
                        assert ev_simplified(role, sc) == ev_raw(role, k, t, [r] * k, s)


class TestIdentities:
    def test_single_term_case(self):
        ok1, ok2 = identity_check(1, 0, 0)
        assert ok1 and ok2

    def test_specific_closed_values(self):
        # k=5, t=3, b=2: closed forms (1+k+t)/(1+b) = 3 and 1/C(8,2) = 1/28
        m = 5 + 3 + 1
        s1 = sum(
            Fraction(m - (kk + 1), kk + 1) * (-1) ** kk * comb(2, kk)
            for kk in range(3)
        )
        assert s1 == Fraction(9, 3) == 3
        ok1, ok2 = identity_check(5, 3, 2)
        assert ok1 and ok2

    def test_exhaustive_medium_range(self):
        for k in range(1, 16):
            for t in range(0, 16):
                for b in range(0, k):
                    assert identity_check(k, t, b) == (True, True)

    def test_bad_b_rejected(self):
        with pytest.raises(ScenarioError):
            identity_check(3, 0, 3)

    @pytest.mark.parametrize("t", range(0, 41, 3))
    def test_matches_term_by_term_reference(self, t):
        for k in range(1, 41):
            for b in range(k):
                assert identity_check(k, t, b) == reference_identity_check(k, t, b) == (True, True)

    def test_perturbed_binomials_fail_the_check(self, monkeypatch):
        # The verdict compares the sums with the closed forms: with every
        # C(a, j), j >= 1, off by one the sums no longer match them.
        monkeypatch.setattr(formulas, "comb", lambda a, j: comb(a, j) + (j >= 1))
        verdicts = [identity_check(k, t, b) for k in range(1, 8) for t in (0, 3) for b in range(k)]
        assert any(not ok1 for ok1, _ in verdicts)
        assert any(not ok2 for _, ok2 in verdicts)


class TestCorners:
    def test_worked_values(self):
        assert corner_value(2, 0, 0, 1) == Fraction(-3, 2)
        assert corner_value(2, 0, 0, 0) == Fraction(-1, 2)

    def test_strictly_negative_medium_range(self):
        for k in range(2, 16):
            for t in range(0, 16):
                for l in range(0, k - 1):
                    for s in (0, 1):
                        assert corner_value(k, t, l, s) < 0

    @pytest.mark.parametrize("t", range(0, 41, 3))
    def test_matches_term_by_term_reference(self, t):
        for k in range(2, 41):
            for l in range(k - 1):
                for s in (0, 1):
                    value = corner_value(k, t, l, s)
                    assert type(value) is Fraction
                    assert value == reference_corner_value(k, t, l, s)

    @pytest.mark.parametrize("s", [0, 1])
    def test_perturbed_binomials_raise(self, monkeypatch, s):
        monkeypatch.setattr(formulas, "comb", lambda a, j: comb(a, j) + 1)
        with pytest.raises(ScenarioError, match="disagrees with closed form"):
            corner_value(4, 2, 1, s)

    def test_domain_guards(self):
        with pytest.raises(ScenarioError):
            corner_value(2, 0, 1, 0)
        with pytest.raises(ScenarioError):
            corner_value(3, 0, 0, 2)
