"""Core representation of symmetric win/lose multiplayer games.

A game is played by ``m`` players who each pick one of ``n`` objects.  The
rule of the game maps every multiset of choices to either a unique winning
object or an all-way tie.  Winners in an ``m'``-way tie each receive the
exact rational payoff ``(m - m') / m'`` and every loser receives ``-1``, so
each instance is zero-sum.

All payoff arithmetic is exact (``fractions.Fraction``); floats appear only
at reporting boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Sequence


class GameError(ValueError):
    """Domain error: malformed game, choices, or outcome."""


@dataclass(frozen=True)
class Outcome:
    """Result of one step: a unique winning object, or an all-way tie.

    ``winner`` is the index of the winning object, or ``None`` for an
    all-way tie.  ``winner_count`` is the number of winning players: the
    multiplicity of the winning object, or the full multiset size on a tie.
    """

    winner: int | None
    winner_count: int

    @property
    def is_tie(self) -> bool:
        return self.winner is None


# Outcomes are immutable: shared instances spare a winner function one object per multiset.
@lru_cache(maxsize=4096)
def all_tie(total: int) -> Outcome:
    return Outcome(None, total)


@lru_cache(maxsize=4096)
def win(obj: int, count: int) -> Outcome:
    if count < 1:
        raise GameError("winning object must be chosen by at least one player")
    return Outcome(obj, count)


# A winner function receives the counts vector of a choice multiset with
# support size >= 2 and returns the Outcome.  Monosets never reach it;
# they are resolved to an all-way tie centrally (see eval_outcome).
WinnerFn = Callable[[tuple[int, ...]], Outcome]


@dataclass(frozen=True)
class GameRule:
    """A symmetric win/lose game on ``m`` players and labeled objects.

    ``winner_fn`` must be total over every choice multiset of size 1..m,
    which makes every rule usable with any subset of the players (needed
    when rules are composed).  Rules are immutable and all operations on
    them are pure, so unrestricted concurrent use is safe.
    """

    m: int
    labels: tuple[str, ...]
    winner_fn: WinnerFn
    construction: str | None = None
    levels: tuple[int, ...] | None = None
    table_sizes: frozenset[int] | None = None  # None: procedural, all sizes

    def __post_init__(self):
        if self.m < 1:
            raise GameError(f"player count must be positive, got {self.m}")
        if len(set(self.labels)) != len(self.labels):
            raise GameError(f"duplicate object labels: {self.labels}")
        if not self.labels:
            raise GameError("a game needs at least one object")
        if self.levels is not None and len(self.levels) != len(self.labels):
            raise GameError("level map length must match object count")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GameError(f"unknown object {label!r}; objects are {self.labels}") from None

    def supports_size(self, size: int) -> bool:
        if self.table_sizes is None:
            return 1 <= size <= self.m
        return size in self.table_sizes or size == 1


def tie_payoff(m: int, winners: int) -> Fraction:
    """Exact payoff to each of ``winners`` tied winners among ``m`` players."""
    if winners < 1 or winners > m:
        raise GameError(f"winner count {winners} out of range 1..{m}")
    return Fraction(m - winners, winners)


def eval_outcome(rule: GameRule, counts: Sequence[int]) -> Outcome:
    """Winner of one choice multiset, given as a counts vector over objects.

    Multisets supported on a single object are an all-way tie by
    convention, regardless of the rule.
    """
    counts = tuple(counts)
    if len(counts) != len(rule.labels):
        raise GameError(
            f"counts vector has {len(counts)} entries for a {rule.n}-object game"
        )
    if min(counts) < 0:
        raise GameError(f"negative count in {counts}")
    total = sum(counts)
    if total < 1:
        raise GameError("empty choice multiset")
    if total > rule.m:
        raise GameError(f"{total} choices exceed the {rule.m}-player game")
    _check_size(rule, total)
    return _resolve(rule, counts, total)


def _check_size(rule: GameRule, total: int) -> None:
    if rule.table_sizes is not None and not rule.supports_size(total):
        raise GameError(f"rule has no table entries for multisets of size {total}")


def _resolve(rule: GameRule, counts: tuple[int, ...], total: int) -> Outcome:
    """``eval_outcome`` of a counts vector that passed its input checks:
    ``total`` choices of a supported size, no count negative."""
    if total in counts:  # no negative counts, so one object holds them all
        return all_tie(total)
    out = rule.winner_fn(counts)
    if out.winner is not None:
        if counts[out.winner] < 1:
            raise GameError(
                f"rule names absent object {rule.labels[out.winner]!r} as winner of {counts}"
            )
        if out.winner_count != counts[out.winner]:
            raise GameError("winner_count disagrees with the winning object's multiplicity")
    return out


def payoff_vector(rule: GameRule, ordered_choices: Sequence[int | str]) -> list[Fraction]:
    """Exact zero-sum payoffs for one instance, by player order.

    Choices may be object indices or labels; exactly ``rule.m`` are
    required.  Winners each get ``(m - m')/m'``, losers ``-1``; an all-way
    tie pays everyone zero.
    """
    if len(ordered_choices) != rule.m:
        raise GameError(f"expected {rule.m} choices, got {len(ordered_choices)}")
    picks = [c if isinstance(c, int) else rule.index_of(c) for c in ordered_choices]
    for p in picks:
        if not 0 <= p < rule.n:
            raise GameError(f"object index {p} out of range for {rule.n} objects")
    counts = [0] * rule.n
    for p in picks:
        counts[p] += 1
    out = eval_outcome(rule, counts)
    if out.is_tie:
        return [Fraction(0)] * rule.m
    pay = tie_payoff(rule.m, out.winner_count)
    return [pay if p == out.winner else Fraction(-1) for p in picks]


def enumerate_multisets(n: int, size: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every counts vector over ``n`` objects summing to ``size``,
    paired with its multinomial weight ``size! / prod(counts!)``.

    Vectors come lazily, in lexicographic order, each weight a product of
    binomials ``C(remaining, c)``.  Weights sum to ``n ** size``.
    """
    if n < 1:
        raise GameError("need at least one object")
    if size < 0:
        raise GameError("multiset size must be nonnegative")
    yield from _multisets((), size, n, 1)


def _multisets(prefix: tuple[int, ...], remaining: int, slots: int, weight: int):
    if slots == 1:
        yield prefix + (remaining,), weight
    elif slots == 2:
        for c in range(remaining + 1):
            yield prefix + (c, remaining - c), weight * comb(remaining, c)
    else:
        for c in range(remaining + 1):
            yield from _multisets(prefix + (c,), remaining - c, slots - 1, weight * comb(remaining, c))


def uniform_expected_payoffs(rule: GameRule) -> list[Fraction]:
    """Expected payoff of each object against uniformly random opponents.

    For object ``o``: the exact expectation, over the ``n**(m-1)`` equally
    likely opponent choice vectors, of the payoff to a player choosing
    ``o``.  The results sum to zero exactly.

    Each full multiset of ``m`` choices is evaluated once.  Removing one
    ``o`` from a multiset of weight ``W`` leaves an opponent multiset of
    weight ``W * c_o / m``.  Scaled by ``m``, each object present thus
    gains ``W * c_o`` times its payoff: ``-W * c_o`` for a loser, and
    ``W * (m - c_w) = -W * c_w + W * m`` for a winner with ``c_w``
    copies.  As ``W * c_o`` sums to ``m * n**(m-1)`` over all multisets,
    only ties need their counts; a decided multiset adds ``W`` to its
    winner.  The sums are integers over that common denominator.

    Every multiset has ``m`` choices and well-formed counts, so the size
    check runs once and each multiset goes straight to ``_resolve``, which
    still checks what the rule returns.
    """
    m, n = rule.m, rule.n
    _check_size(rule, m)
    won = [0] * n  # weight of the multisets each object wins
    tied = [0] * n  # sum of W * c_o over all-way ties
    for counts, weight in enumerate_multisets(n, m):
        winner = _resolve(rule, counts, m).winner
        if winner is None:
            for o, c in enumerate(counts):
                tied[o] += weight * c
        else:
            won[winner] += weight
    denom = m * n ** (m - 1)
    return [Fraction(m * w + t - denom, denom) for w, t in zip(won, tied)]


@dataclass(frozen=True)
class TableRule:
    """Winner function backed by an explicit counts -> Outcome table."""

    table: dict[tuple[int, ...], Outcome]

    def __call__(self, counts: tuple[int, ...]) -> Outcome:
        try:
            return self.table[counts]
        except KeyError:
            raise GameError(f"no table entry for multiset {counts}") from None

