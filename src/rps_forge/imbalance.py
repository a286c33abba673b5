"""Imbalance statistics and majorization comparison.

A perfectly balanced symmetric game pays every object the same against
uniform opponents, so its payoff distribution is a single atom.  Each
statistic here measures distance from that reference in a different way:

* ``ui_variance``: population variance of the uniform expected payoffs.
* ``ui_entropy``: Shannon entropy of the payoff values as equal-weight
  atoms (values merged within a tolerance).  Unlike the others this one
  is not monotone under majorization.
* ``theil_alpha``: Theil-T index after the affine normalization that
  sends the payoffs to mean 1 and minimum ``alpha``.  Beware: because
  each vector is normalized by its own spread, this index is not
  monotone under majorization when the compared vectors have different
  minima; the comparison report states agreement per pair rather than
  assuming it.
* ``nash_entropy_imbalance``: entropy of the most-mixed equilibrium in a
  supplied list; smaller means more imbalanced.
* ``nash_ties_imbalance``: expected same-object collision count of the
  least-tying symmetric equilibrium; larger means more imbalanced.

The equilibrium-based statistics are list-relative: they are exact only
when the supplied equilibrium list is known to be exhaustive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import GameError, GameRule, uniform_expected_payoffs
from .equilibrium import MixedProfile, _check_distribution

Number = float | Fraction

# Float prefix sums closer than _MAJORIZE_TOL count as equal; payoffs
# closer than _MERGE_TOL fall into one entropy atom.
_MAJORIZE_TOL = 1e-12
_MERGE_TOL = 1e-9


class MajorizationRelation(enum.Enum):
    MAJORIZES = "majorizes"
    MAJORIZED_BY = "majorized_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def majorizes(a: Sequence[Number], b: Sequence[Number]) -> MajorizationRelation:
    """Compare two equal-length vectors by descending prefix sums.

    Totals must agree within ``_MAJORIZE_TOL`` for any verdict other than
    INCOMPARABLE, and prefix sums closer than that count as equal.  The
    tolerance applies only when an entry is a float: exact inputs (ints
    and fractions) compare exactly.
    """
    if len(a) != len(b):
        raise GameError(f"length mismatch: {len(a)} vs {len(b)}")
    tol = _MAJORIZE_TOL if any(isinstance(x, float) for x in (*a, *b)) else 0
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    if abs(sum(sa) - sum(sb)) > tol:
        return MajorizationRelation.INCOMPARABLE
    ge = True
    le = True
    pa: Number = 0
    pb: Number = 0
    for xa, xb in zip(sa, sb):
        pa = pa + xa
        pb = pb + xb
        d = pa - pb
        if d > tol:
            le = False
        if d < -tol:
            ge = False
    if ge and le:
        return MajorizationRelation.EQUAL
    if ge:
        return MajorizationRelation.MAJORIZES
    if le:
        return MajorizationRelation.MAJORIZED_BY
    return MajorizationRelation.INCOMPARABLE


def ui_variance(values: Sequence[Number]) -> Number:
    """Population variance with equal weight on each object's payoff."""
    n = len(values)
    if n < 1:
        raise GameError("empty payoff vector")
    mean = sum(values) / n
    return sum((x - mean) ** 2 for x in values) / n


def ui_entropy(values: Sequence[Number]) -> float:
    """Shannon entropy of the payoff values as equal-weight atoms.

    Values within ``_MERGE_TOL`` of the previous one (after sorting) fall
    into the same atom.  A constant vector is a single atom: entropy 0.
    """
    n = len(values)
    if n < 1:
        raise GameError("empty payoff vector")
    ordered = sorted(float(x) for x in values)
    sizes = []
    current = 1
    for prev, cur in zip(ordered, ordered[1:]):
        if cur - prev <= _MERGE_TOL:
            current += 1
        else:
            sizes.append(current)
            current = 1
    sizes.append(current)
    return -sum((c / n) * math.log(c / n) for c in sizes)


def theil_alpha(values: Sequence[Number], alpha: float) -> float:
    """Theil-T index after scaling payoffs to mean 1 and minimum ``alpha``.

    The positive affine map x -> c1*x + c2 with c1 = (1-alpha)/(mean-min)
    makes the transformed vector positive with mean exactly 1, so the
    index sum(x~ ln x~)/n is well defined.  Constant vectors return 0.
    """
    if not 0 < alpha < 1:
        raise GameError(f"alpha must lie in (0, 1), got {alpha}")
    n = len(values)
    if n < 1:
        raise GameError("empty payoff vector")
    vals = [float(x) for x in values]
    mean = sum(vals) / n
    lo = min(vals)
    if mean - lo <= 0:
        return 0.0
    c1 = (1.0 - alpha) / (mean - lo)
    c2 = 1.0 - c1 * mean
    transformed = [c1 * x + c2 for x in vals]
    return sum(x * math.log(x) for x in transformed) / n


def profile_entropy(profile: MixedProfile) -> float:
    """Sum over players of the Shannon entropy of their mixing vector."""
    total = 0.0
    for v in profile.vectors:
        for p in v:
            fp = float(p)
            if fp > 0:
                total -= fp * math.log(fp)
    return total


def nash_entropy_imbalance(equilibria: Sequence[MixedProfile]) -> float:
    """Entropy of the most-mixed equilibrium in the list.

    Comparisons invert: a smaller value marks the more imbalanced game.
    List-relative; exact only for an exhaustive equilibrium list.
    """
    if not equilibria:
        raise GameError("no equilibria supplied; statistic inconclusive")
    return max(profile_entropy(eq) for eq in equilibria)


def nash_ties_imbalance(
    symmetric_profiles: Sequence[Sequence[Number]], m: int
) -> Number:
    """Collision statistic sum_o v_o^m of the least-tying symmetric
    equilibrium.  Larger marks the more imbalanced game; list-relative."""
    if not symmetric_profiles:
        raise GameError("no symmetric equilibria supplied; statistic inconclusive")
    if m < 1:
        raise GameError("player count must be positive")
    for profile in symmetric_profiles:
        _check_distribution(profile)
    return min(sum(v**m for v in profile) for profile in symmetric_profiles)


@dataclass(frozen=True)
class SchurComparison:
    """Pairwise comparison of two games' uniform-payoff imbalance."""

    relation: MajorizationRelation
    payoffs: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    statistics: dict[str, tuple[float, float]]
    consistent: dict[str, bool | None]


def schur_compare(
    g1: GameRule,
    g2: GameRule,
    alphas: Sequence[float] = (0.25, 0.5, 0.75),
) -> SchurComparison:
    """Compare uniform payoffs of two games and test whether each statistic
    agrees with the majorization direction.

    ``consistent`` is True/False for statistics that are monotone under
    majorization (variance and the Theil family) and None where no such
    agreement is asserted (entropy) or the payoffs are incomparable.
    """
    f1 = uniform_expected_payoffs(g1)
    f2 = uniform_expected_payoffs(g2)
    if len(f1) != len(f2):
        raise GameError(
            f"games have {len(f1)} and {len(f2)} objects; payoffs are incomparable"
        )
    relation = majorizes(f1, f2)

    stats: dict[str, tuple[float, float]] = {
        "ui_variance": (float(ui_variance(f1)), float(ui_variance(f2))),
        "ui_entropy": (ui_entropy(f1), ui_entropy(f2)),
    }
    for a in alphas:
        stats[f"theil_{a:g}"] = (theil_alpha(f1, a), theil_alpha(f2, a))

    consistent: dict[str, bool | None] = {}
    for name, (v1, v2) in stats.items():
        if name == "ui_entropy":
            consistent[name] = None
            continue
        if relation is MajorizationRelation.MAJORIZES:
            consistent[name] = v1 >= v2 - 1e-12
        elif relation is MajorizationRelation.MAJORIZED_BY:
            consistent[name] = v2 >= v1 - 1e-12
        elif relation is MajorizationRelation.EQUAL:
            consistent[name] = abs(v1 - v2) <= 1e-9
        else:
            consistent[name] = None
    return SchurComparison(
        relation=relation,
        payoffs=(tuple(f1), tuple(f2)),
        statistics=stats,
        consistent=consistent,
    )
