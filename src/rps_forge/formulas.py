"""Expected-value formulas for the one-candidate scenario.

The scenario fixes a near-equilibrium shape of the imbalanced
three-object game with m = k + t + 1 players:

* k "mixer" players who each play R with probability r and P otherwise,
* t "committed" players pinned to pure P,
* one "candidate" player, the only one who ever plays S, with
  probability s (P otherwise).

Every function here returns the exact rational expected payoff of one
pure choice for one player class, with the other players as above.  Two
independent routes are provided:

* ``ev_raw`` evaluates the direct expectation sums, with per-player R
  probabilities.  The tie-count probabilities come from the exact
  Poisson-binomial recurrence, one mixer at a time, as integer
  numerators over one denominator, so a call costs O(k^2) integer
  operations and makes one ``Fraction``, its result.  It is the
  transparent oracle.
* ``payoff_poly`` states the closed forms valid when all mixers share
  one probability r, as exact polynomials in (r, s); ``ev_simplified``
  evaluates them.  The two routes agree exactly (rational equality).
  The certificate constraints in ``certify`` are differences of these
  same polynomials.

The closed forms rest on two alternating binomial identities whose sums
``identity_check`` evaluates exactly, and the step that forces all
mixers to share one probability rests on corner sums whose strict
negativity ``corner_value`` certifies; both are exposed for audit.  Each
of their explicit sums adds every term as an integer numerator over a
common denominator known in closed form (b + 1, a product of b + 1
consecutive integers, (k+t)! or (l+1)(l+2)), and is compared with the
closed form by cross-multiplying, so no ``Fraction`` is made for a sum
that is only compared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

from .intervals import Poly2

Rational = Fraction | int


class ScenarioError(ValueError):
    """Invalid scenario parameters or role."""


class Role(enum.Enum):
    """Player class crossed with the pure choice being evaluated.

    The candidate never plays R (it loses whenever only they could have
    supplied the S that R needs), so that pairing is omitted.  Each value
    reads ``player:choice``; ``ev_raw`` and ``payoff_poly`` branch on the
    two parts.
    """

    MIXER_R = "mixer:R"
    MIXER_P = "mixer:P"
    MIXER_S = "mixer:S"
    CANDIDATE_P = "candidate:P"
    CANDIDATE_S = "candidate:S"
    COMMITTED_R = "committed:R"
    COMMITTED_P = "committed:P"
    COMMITTED_S = "committed:S"


COMMITTED_ROLES = (Role.COMMITTED_R, Role.COMMITTED_P, Role.COMMITTED_S)


@dataclass(frozen=True)
class Scenario:
    """Counts and probabilities of the one-candidate scenario."""

    k: int
    t: int
    r: Fraction
    s: Fraction

    def __post_init__(self):
        _check_counts(self.k, self.t)
        for name in ("r", "s"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ScenarioError(f"{name}={v} is not a probability")

    @property
    def m(self) -> int:
        return self.k + self.t + 1


def _check_counts(k: int, t: int):
    if k < 1:
        raise ScenarioError(f"need at least one mixer, got k={k}")
    if t < 0:
        raise ScenarioError(f"committed player count must be >= 0, got {t}")


def _require_committed(role: Role, t: int):
    if role in COMMITTED_ROLES and t < 1:
        raise ScenarioError(f"{role.value} needs at least one committed player")


def one_minus_r_power(power: int) -> list[int]:
    """Coefficients of (1 - r)**power."""
    return [(-1) ** i * comb(power, i) for i in range(power + 1)]


def payoff_poly(role: Role, k: int, t: int) -> Poly2:
    """Closed-form expected payoff of ``role`` under equal mixer odds r, as
    the exact polynomial p0(r) + s*p1(r).

    With m = k + t + 1 and a class depth e (k - 1 for a mixer, k for the
    others)::

        R:  s*m*(1 - (1-r)^(e+1)) / ((e+1)*r) - 1
        P:  (1-s) * sum_{b=1}^{e} C(e,b)/C(k+t,b) r^b - s
        S:  -1 + (2-s) * (m/2) * (1-r)^e

    The R forms are polynomials: (1 - (1-r)^d)/r equals
    sum_{i=1}^{d} (-1)^(i+1) C(d,i) r^(i-1), so their value at r = 0 is
    the limit s*m - 1.  The candidate is the only player who ever plays
    S, so its own payoffs are the committed ones at s = 0.
    """
    _check_counts(k, t)
    _require_committed(role, t)
    player, choice = role.value.split(":")
    m = k + t + 1
    e = k - 1 if player == "mixer" else k
    if choice == "R":
        d = e + 1
        return Poly2([-1], [Fraction((-1) ** i * m * comb(d, i + 1), d) for i in range(d)])
    if choice == "P":
        p0 = [0] + [Fraction(comb(e, b), comb(k + t, b)) for b in range(1, e + 1)]
        p1 = [-1] + [-c for c in p0[1:]]
    else:
        power = one_minus_r_power(e)
        p0 = [m * c for c in power]
        p0[0] -= 1
        p1 = [Fraction(-m * c, 2) for c in power]
    return Poly2(p0, () if player == "candidate" else p1)


def ev_simplified(role: Role, sc: Scenario) -> Fraction:
    """Closed-form expected payoff for ``role`` under equal mixer odds:
    ``payoff_poly`` evaluated exactly at (r, s)."""
    return payoff_poly(role, sc.k, sc.t).eval_exact(Fraction(sc.r), Fraction(sc.s))


def _count_r_distribution(r_vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """P(exactly j of these players pick R) for j = 0..len, as integer
    numerators ``ways`` over one denominator ``den``.

    Poisson-binomial recurrence in integers: after each player with
    probability r = a/q, ``new[j] = ways[j]*(q-a) + ways[j-1]*a`` and
    ``den`` is multiplied by q, so ``sum(ways) == den`` throughout.
    """
    ways, den = [1], 1
    for r in r_vec:
        a, q = r.numerator, r.denominator
        stay = q - a
        new = [w * stay for w in ways]
        new.append(0)
        for j, w in enumerate(ways):
            new[j + 1] += w * a
        ways, den = new, den * q
    return ways, den


def ev_raw(
    role: Role, k: int, t: int, r_vec: Sequence[Rational], s: Rational
) -> Fraction:
    """Direct expectation sums with per-player mixer probabilities.

    Mixer roles are evaluated for the first mixer (``r_vec[0]``); a
    player's own mixing never enters the payoff of their pure deviation,
    so only ``r_vec[1:]`` matters for those roles.  Any k >= 1 is
    accepted.  The count distribution costs O(k^2) integer operations,
    and the expectation is summed as integer numerators over one
    denominator, so a call makes one ``Fraction``, its result.
    """
    if len(r_vec) != k:
        raise ScenarioError(f"expected {k} mixer probabilities, got {len(r_vec)}")
    _check_counts(k, t)
    _require_committed(role, t)
    rs = [Fraction(x) for x in r_vec]
    s = Fraction(s)
    if not 0 <= s <= 1 or any(not 0 <= x <= 1 for x in rs):
        raise ScenarioError("probabilities must lie in [0, 1]")
    player, choice = role.value.split(":")
    if player == "candidate":
        s = Fraction(0)  # the candidate is the only player who ever plays S
    sn, sd = s.numerator, s.denominator
    m = k + t + 1
    # P(exactly j of the other mixers pick R) is ways[j] / den: a mixer's
    # own mixing never enters the payoff of their pure deviation
    ways, den = _count_r_distribution(rs[1:] if player == "mixer" else rs)
    if choice == "R":
        # with the candidate on S, the deviator and j R-picking mixers win:
        # s * acc - (1 - s) with acc = num / (d * den)
        num, d = _common_denominator_sum([((m - (j + 1)) * w, j + 1) for j, w in enumerate(ways)])
        return Fraction(sn * num - (sd - sn) * d * den, sd * d * den)
    if choice == "P":
        # with the candidate on P and j mixers picking P, w = j + t + 2
        # (for a mixer) or j + t + 1 P-players win: (1 - s) * acc - s
        base = t + 2 if player == "mixer" else t + 1
        num, d = _common_denominator_sum(
            [((m - (j + base)) * w, j + base) for j, w in enumerate(reversed(ways))]
        )
        return Fraction((sd - sn) * num - sn * d * den, sd * d * den)
    # every other mixer picked P with chance quiet = ways[0] / den; the
    # payoff quiet * ((1-s)(k+t) + s(k+t-1)/2) - (1 - quiet) is over 2 sd den
    quiet = ways[0]
    win = 2 * (sd - sn) * (k + t) + sn * (k + t - 1)
    return Fraction(quiet * win - 2 * sd * (den - quiet), 2 * sd * den)


def _common_denominator_sum(terms: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of the fractions ``num/den`` given as integer pairs, as
    ``(numerator, denominator)``: the numerators are added over the lcm of
    the denominators, built pairwise (unpacking a generator into
    ``math.lcm`` makes the process's peak RSS creep)."""
    den = 1
    for _, d in terms:
        den = lcm(den, d)
    return sum(num * (den // d) for num, d in terms), den


def identity_check(k: int, t: int, b: int) -> tuple[bool, bool]:
    """Exactly evaluate the two alternating binomial sums behind the
    closed forms and compare them with their closed values.

    First sum (from the R-payoff reduction)::

        sum_{k'=0}^{b} ((m - (k'+1)) / (k'+1)) * (-1)^k' * C(b, k')
            = m/(1+b) - [b = 0]            with m = k + t + 1

    Second sum (from the P-payoff reduction)::

        sum_{k'=k-1-b}^{k-1} ((k-k'-1) / (k'+t+2))
            * (-1)^(b-(k-1)+k') * C(b, k-1-k')
            = 1/C(k+t, b)  for b >= 1,  else 0

    The bracket corrections at b = 0 are required for the sums to match
    their raw-expectation origins; without them both closed forms are
    off by exactly one at b = 0.

    Every term is summed, one binomial each, with alternating signs.  The
    first sum's terms are over b + 1, by C(b, k')/(k'+1) =
    C(b+1, k'+1)/(b+1); with j = k-1-k' the second sum's are over m - j
    for j = 0..b, whose product is their common denominator.
    """
    if not 0 <= b <= k - 1:
        raise ScenarioError(f"need 0 <= b <= k-1, got b={b}, k={k}")
    _check_counts(k, t)
    m = k + t + 1

    num1, sign = 0, 1
    for kk in range(b + 1):
        num1 += sign * (m - kk - 1) * comb(b + 1, kk + 1)
        sign = -sign
    den1 = b + 1
    cnum1, cden1 = (m - 1, 1) if b == 0 else (m, 1 + b)

    # term j is (-1)^(b-j) j C(b, j) / (m - j)
    den2 = 1
    for j in range(b + 1):
        den2 *= m - j
    num2, sign = 0, 1 if b % 2 else -1  # (-1)^(b-j) at j = 1
    for j in range(1, b + 1):
        num2 += sign * j * comb(b, j) * (den2 // (m - j))
        sign = -sign
    cnum2, cden2 = (1, comb(k + t, b)) if b >= 1 else (0, 1)

    # both denominators are positive, so cross-multiplying compares
    return num1 * cden1 == cnum1 * den1, num2 * cden2 == cnum2 * den2


def corner_value(k: int, t: int, l: int, s_corner: int) -> Fraction:
    """Corner evaluation of the multilinear sum that forces all mixers to
    share one probability.

    The sum ``sum_{b=1}^{l+1} (s*(-1)^b*m/(1+b) - (1-s)/C(k+t,b)) * C(l, b-1)``
    is evaluated exactly at the corner s = 0 or 1 with ``l`` of the free
    mixer variables at 1, and compared against its closed form:

        s = 0:  -m / ((k+t-l) * (k+t+1-l))
        s = 1:  -m / ((1+l) * (2+l))

    Both are strictly negative for every l <= k-2, which pins the sum
    below zero over the whole cube.  Raises if the sum and the closed
    form ever disagree; returns the (negative) exact value.

    Every term is summed, one binomial each.  At s = 0 the terms are over
    (k+t)!, as (k+t)!/C(k+t, b) = b!(k+t-b)!; at s = 1 over (l+1)(l+2),
    as C(l, b-1)/(b+1) = b C(l+2, b+1)/((l+1)(l+2)).
    """
    if s_corner not in (0, 1):
        raise ScenarioError(f"corner must be 0 or 1, got {s_corner}")
    if not 0 <= l <= k - 2:
        raise ScenarioError(f"need 0 <= l <= k-2, got l={l}, k={k}")
    _check_counts(k, t)
    m = k + t + 1
    if s_corner == 0:
        # b! and (k+t-b)! are carried along the loop
        n = k + t
        fb, fnb = 1, factorial(n - 1)
        num = 0
        for b in range(1, l + 2):
            num -= fb * fnb * comb(l, b - 1)
            fb *= b + 1
            fnb //= n - b
        den = factorial(n)
        cnum, cden = -m, (k + t - l) * (k + t + 1 - l)
    else:
        num, sign = 0, -m
        for b in range(1, l + 2):
            num += sign * b * comb(l + 2, b + 1)
            sign = -sign
        den = (l + 1) * (l + 2)
        cnum, cden = -m, (1 + l) * (2 + l)
    if num * cden != cnum * den:
        raise ScenarioError(
            f"corner sum {Fraction(num, den)} disagrees with closed form {Fraction(cnum, cden)} "
            f"at k={k}, t={t}, l={l}, s={s_corner}"
        )
    # the sum's value, from the smaller closed form
    return Fraction(cnum, cden)
