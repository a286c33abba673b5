"""Builders for the game families studied here.

Families
--------
* ``imbalanced_rps3(m)``: three objects R, P, S.  Any multiset holding at
  least one S and one R is a win for R; multisets over {R, P} only are a
  win for P; multisets over {P, S} only are a win for S.
* ``maximal_rps3(m)``: the unplayable extreme.  R' wins every multiset it
  appears in; S' wins the multisets over {P', S'} only.
* ``odd_one_out(m)``: two objects; the minority side wins, equal counts
  tie.  Useful as a subgame since it is defined for every group size.
* ``symmetric_blowup(g, at, h)``: replace one object of ``g`` by the whole
  game ``h``; conflicts at the replaced object resolve inside ``h``.
* ``imbalanced_rps(m, k)``: the k-fold blow-up of ``imbalanced_rps3`` at S,
  built directly from a level-based winner rule on 2k+1 objects.
"""

from __future__ import annotations

from .core import GameError, GameRule, Outcome, _check_size, _resolve, all_tie, win

# Not called here: the benchmark's span recorder replaces this module's copy
# of ``eval_outcome`` by name, so the binding must exist.
from .core import eval_outcome  # noqa: F401


class BlowupUnsupportedError(GameError):
    """The blow-up produced a winner set spanning several objects.

    This happens only when a component game declares an all-way tie on a
    proper sub-multiset with mixed support (e.g. odd-one-out).  Such
    set-of-winners outcomes cannot be expressed as a unique winning
    object and are out of scope.
    """


def imbalanced_rps3(m: int, labels: tuple[str, str, str] = ("R", "P", "S")) -> GameRule:
    """The imbalanced three-object game for ``m`` players."""
    if m < 2:
        raise GameError(f"need at least two players, got {m}")

    def winner(counts: tuple[int, ...]) -> Outcome:
        r, p, s = counts
        if r and s:
            return win(0, r)
        if r and p:
            return win(1, p)
        if p and s:
            return win(2, s)
        return all_tie(r + p + s)  # monoset; unreachable via eval_outcome

    return GameRule(m=m, labels=labels, winner_fn=winner, construction=f"imbalanced3 m={m}")


def maximal_rps3(m: int) -> GameRule:
    """The maximally lopsided three-object game: R' wins whenever chosen."""
    if m < 2:
        raise GameError(f"need at least two players, got {m}")

    def winner(counts: tuple[int, ...]) -> Outcome:
        r, p, s = counts
        if r:
            return win(0, r)
        if p and s:
            return win(2, s)
        return all_tie(r + p + s)

    return GameRule(m=m, labels=("R'", "P'", "S'"), winner_fn=winner, construction=f"maximal3 m={m}")


def odd_one_out(m: int) -> GameRule:
    """Two objects; whichever side is strictly smaller wins, ties are ties."""
    if m < 2:
        raise GameError(f"need at least two players, got {m}")

    def winner(counts: tuple[int, ...]) -> Outcome:
        a, b = counts
        if a == b:
            return all_tie(a + b)
        return win(0, a) if a < b else win(1, b)

    return GameRule(m=m, labels=("a", "b"), winner_fn=winner, construction=f"odd-one-out m={m}")


def relabel(rule: GameRule, labels: tuple[str, ...]) -> GameRule:
    """Same rule, new object names (e.g. before composing two games)."""
    if len(labels) != rule.n:
        raise GameError(f"expected {rule.n} labels, got {len(labels)}")
    return GameRule(
        m=rule.m,
        labels=tuple(labels),
        winner_fn=rule.winner_fn,
        construction=rule.construction,
        levels=rule.levels,
        table_sizes=rule.table_sizes,
    )


def symmetric_blowup(g: GameRule, at: str | int, h: GameRule) -> GameRule:
    """Blow up object ``at`` of ``g`` into the whole game ``h``.

    Objects of the result are ``g``'s objects without ``at`` followed by
    ``h``'s objects (labels must not clash).  A multiset is scored by
    first mapping every ``h`` choice back to ``at`` and scoring in ``g``;
    if ``at`` wins there, the players who chose inside ``h`` settle the
    win among themselves by the rule of ``h``.

    The winner function trusts the counts it receives, as every winner
    function may: they passed ``eval_outcome``'s checks, or come from an
    enumeration of well-formed multisets.  So the mapped multiset needs
    only ``g``'s size check, once, and ``h``'s sizes are checked here.
    """
    at_idx = at if isinstance(at, int) else g.index_of(at)
    if not 0 <= at_idx < g.n:
        raise GameError(f"object index {at_idx} not in game with {g.n} objects")
    for size in range(1, g.m + 1):
        if not h.supports_size(size):
            raise GameError(
                f"subgame is not defined for groups of {size} players; "
                f"it must cover every size up to {g.m}"
            )
    labels = g.labels[:at_idx] + g.labels[at_idx + 1 :] + h.labels
    if len(set(labels)) != len(labels):
        raise GameError(f"object labels clash when composing: {labels}")
    n_outer = g.n - 1  # the result lists g's objects but ``at`` first, then h's

    def winner(counts: tuple[int, ...]) -> Outcome:
        inner = counts[n_outer:]
        inner_total = sum(inner)
        total = sum(counts)
        _check_size(g, total)
        out_g = _resolve(g, counts[:at_idx] + (inner_total,) + counts[at_idx:n_outer], total)

        if out_g.winner is not None and out_g.winner != at_idx:
            new_idx = out_g.winner - (out_g.winner > at_idx)
            return win(new_idx, out_g.winner_count)

        if out_g.is_tie:
            if inner_total == 0:
                return all_tie(total)
            if inner_total < total:
                # tie spanning the blown-up object and others: the winner
                # set would mix outer players with h's winners
                raise BlowupUnsupportedError(
                    f"all-way tie across {g.labels[at_idx]!r} and other objects"
                )
            # everyone played inside h: delegate entirely
            out_h = _resolve(h, inner, inner_total)
            if out_h.is_tie:
                return all_tie(inner_total)
            return win(n_outer + out_h.winner, out_h.winner_count)

        # at_idx won in g: resolve among the players inside h
        out_h = _resolve(h, inner, inner_total)
        if out_h.winner is not None:
            return win(n_outer + out_h.winner, out_h.winner_count)
        support = [j for j, c in enumerate(inner) if c]
        if len(support) == 1:
            # all of h's players picked the same object and tie for the win
            j = support[0]
            return win(n_outer + j, inner[j])
        raise BlowupUnsupportedError(
            "subgame declared an all-way tie over several objects while "
            "outer players lost"
        )

    return GameRule(
        m=g.m,
        labels=labels,
        winner_fn=winner,
        construction=f"blowup at={g.labels[at_idx]}",
    )


def imbalanced_rps(m: int, k: int) -> GameRule:
    """The imbalanced game on 2k+1 objects: R1,P1,...,Rk,Pk,S.

    Equivalent to blowing up ``imbalanced_rps3`` at S, k-1 times, but
    scored directly: find the shallowest level with an R or P chosen and
    apply the three-object rule there, treating everything deeper as that
    level's third object.
    """
    if m < 2:
        raise GameError(f"need at least two players, got {m}")
    if k < 1:
        raise GameError(f"depth must be at least 1, got {k}")
    labels = tuple(
        lab for lvl in range(1, k + 1) for lab in (f"R{lvl}", f"P{lvl}")
    ) + ("S",)
    levels = tuple(lvl for lvl in range(1, k + 1) for _ in (0, 1)) + (k,)
    s_idx = 2 * k

    def winner(counts: tuple[int, ...]) -> Outcome:
        eliminated = False
        deep = sum(counts)  # players below the current level
        for i in range(0, s_idx, 2):  # R of each level, P at i + 1
            a = counts[i]
            b = counts[i + 1]
            deep -= a + b
            if a:
                if deep:
                    return win(i, a)
                if b:
                    return win(i + 1, b)
                return win(i, a) if eliminated else all_tie(a)
            if b:
                if not deep:
                    return win(i + 1, b) if eliminated else all_tie(b)
                eliminated = True
            # level empty or only deeper players remain: descend
        s = counts[s_idx]
        return win(s_idx, s) if eliminated else all_tie(s)

    return GameRule(
        m=m,
        labels=labels,
        winner_fn=winner,
        construction=f"imbalanced m={m} k={k}",
        levels=levels,
    )


def iterated_blowup(m: int, k: int) -> GameRule:
    """The same game as ``imbalanced_rps(m, k)`` built by actual k-fold
    composition; primarily an oracle for the direct rule."""
    if k < 1:
        raise GameError(f"depth must be at least 1, got {k}")
    game = imbalanced_rps3(m, labels=("R1", "P1", "S"))
    for lvl in range(2, k + 1):
        sub = imbalanced_rps3(m, labels=(f"R{lvl}", f"P{lvl}", "S"))
        game = relabel(game, game.labels[:-1] + (f"_S{lvl}",))
        game = symmetric_blowup(game, f"_S{lvl}", sub)
    return game
