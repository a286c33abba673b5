"""The three benchmark workloads: seeded inputs, timed operations, output checks.

Every workload is a closed loop with one caller in one process: each
operation starts after the previous one returns.  The seed changes which
inputs are drawn, never how many or from which cost class, so runs with
different seeds do the same amount of work and their timings are comparable.

An operation's ``call`` is the timed library work.  Its ``check`` runs after
the pass, untimed, and compares the output against a route other than the one
that produced it; it returns one boolean per checked output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Any, Callable

from rps_forge import certify, construct, core, equilibrium, formulas, gamefile, imbalance

# The published three-decimal equilibrium of the imbalanced game at m = 20.
PUBLISHED_M20 = (Fraction(142, 1000), Fraction(850, 1000), Fraction(8, 1000))
SYMMETRIC_GAP_TOL = 1e-9
SOLVER_MATCH_TOL = 1e-6


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[bool]]


def _identity(rule):
    return rule


# ---------------------------------------------------------------- certify-deep

def certify_deep_inputs(rng: random.Random, tiny: bool) -> dict:
    # One pair per degree stratum, t = k // 2 >= 1 so all five constraints are
    # built.  Box counts, and so the cost, depend on (k, t) by up to a third
    # within a stratum but not on delta, so the seed draws delta: every seed
    # moves every box edge and does the same work.
    ks = (3, 5) if tiny else (10, 12, 14)
    return {"pairs": [(k, k // 2) for k in ks], "delta": Fraction(rng.randint(1, 100), 10**7)}


def certify_deep_ops(inputs: dict, rule=_identity) -> list[Op]:
    def one(k: int, t: int) -> Op:
        return Op(
            f"certificate k={k} t={t}",
            lambda: certify.infeasibility_certificate(k, t, delta=inputs["delta"]),
            lambda cert: [cert.verdict is certify.Verdict.PROVED_EMPTY],
        )

    return [one(k, t) for k, t in inputs["pairs"]]


# ---------------------------------------------------------------------- search

def random_table(rng: random.Random, m: int, n: int) -> dict[tuple[int, ...], int]:
    """Winner of every mixed multiset, drawn uniformly from its support."""
    table = {}
    for counts, _ in core.enumerate_multisets(n, m):
        support = [i for i, c in enumerate(counts) if c]
        if len(support) > 1:
            table[counts] = rng.choice(support)
    return table


def table_text(table: dict[tuple[int, ...], int], m: int, n: int, perm: list[int]) -> str:
    """Game file of ``table`` with object o renamed to perm[o]; monosets are
    left to default to a tie."""
    labels = [f"o{i}" for i in range(n)]
    lines = [f"rps m={m} objects={','.join(labels)}"]
    for counts, winner in table.items():
        moved = [0] * n
        for o, c in enumerate(counts):
            moved[perm[o]] = c
        lines.append(f"counts={','.join(map(str, moved))} winner={labels[perm[winner]]}")
    return "\n".join(lines) + "\n"


def has_pure_equilibrium(rule) -> bool:
    """Whether some ordered pure profile leaves no player a profitable
    switch, by brute force over payoff vectors."""
    m, n = rule.m, rule.n
    for choices in product(range(n), repeat=m):
        pay = core.payoff_vector(rule, choices)
        if all(
            core.payoff_vector(rule, choices[:i] + (o,) + choices[i + 1 :])[i] <= pay[i]
            for i in range(m)
            for o in range(n)
        ):
            return True
    return False


def search_inputs(rng: random.Random, tiny: bool) -> dict:
    if tiny:
        games = [construct.imbalanced_rps3(2), construct.odd_one_out(3)]
        tables, m, n = 1, 2, 3
    else:
        games = [construct.imbalanced_rps3(3), construct.maximal_rps3(3), construct.odd_one_out(4)]
        tables, m, n = 3, 3, 3
    # The random tables are the first ones with a pure equilibrium, where best
    # response has something to converge to, from a stream fixed for every
    # seed; the seed renames their objects, and nothing else.  Search cost
    # differs up to sixfold between random tables, so tables drawn per seed
    # would let the seed, not the code, set the pass time.
    fixed = random.Random(f"search-tables m={m} n={n}")
    while tables:
        table = random_table(fixed, m, n)
        if has_pure_equilibrium(gamefile.parse_game(table_text(table, m, n, list(range(n))))):
            perm = list(range(n))
            rng.shuffle(perm)
            games.append(gamefile.parse_game(table_text(table, m, n, perm)))
            tables -= 1
    # The search seeds come from the same fixed stream: on imbalanced3 m=3 the
    # search seed alone moves the cost by a sixth.
    return {"games": [(g, fixed.randrange(2**32)) for g in games]}


def _solver_point_found(rule, results) -> bool:
    eq = equilibrium.solve_symmetric_rps3(rule.m).as_vector()
    return any(
        profile.symmetric
        and max(abs(float(a) - b) for a, b in zip(profile.vectors[0], eq)) <= SOLVER_MATCH_TOL
        for profile, _ in results
    )


def search_ops(inputs: dict, rule=_identity) -> list[Op]:
    def one(game, seed: int) -> Op:
        config = equilibrium.SearchConfig(seed=seed)
        traced = rule(game)

        def check(results) -> list[bool]:
            ok = [equilibrium.nash_gap(game, p).is_eps_nash(config.eps) for p, _ in results]
            if game.construction and game.construction.startswith("imbalanced3 "):
                ok.append(_solver_point_found(game, results))
            return ok

        return Op(
            f"search {game.construction or f'table m={game.m} n={game.n}'} seed={seed}",
            lambda: equilibrium.search_equilibria(traced, config),
            check,
        )

    return [one(g, s) for g, s in inputs["games"]]


# ----------------------------------------------------------------------- exact

def exact_inputs(rng: random.Random, tiny: bool) -> dict:
    ev_kmax, id_kmax = (4, 5) if tiny else (12, 30)
    ev = []
    for k in range(1, ev_kmax + 1):
        for role in formulas.Role:
            t = rng.randint(1 if role in formulas.COMMITTED_ROLES else 0, 8)
            ev.append((role, k, t, Fraction(rng.randint(0, 1000), 1000), Fraction(rng.randint(0, 1000), 1000)))
    return {
        "symmetric_ms": (3, 5) if tiny else (3, 5, 10, 15, 20),
        "winners_m": 5 if tiny else 20,
        "schur_ms": (3,) if tiny else (3, 6),
        "blowup": (4, 2) if tiny else (8, 3),
        "ev": ev,
        # Two seeded committed counts per k cover the k, t <= 30 square by strata.
        "identities": [(k, rng.randint(0, 30)) for k in range(1, id_kmax + 1) for _ in range(2)],
    }


def _winners_by_player(rule, v) -> Any:
    """Expected winners as m times one player's chance of winning, from the
    opponents' count distribution; an all-way tie makes everyone a winner."""
    dist = equilibrium.choice_count_distribution([tuple(v)] * (rule.m - 1), rule.n)
    total = 0
    for o, vo in enumerate(v):
        if vo == 0:
            continue
        for counts, pr in dist.items():
            combined = list(counts)
            combined[o] += 1
            out = core.eval_outcome(rule, combined)
            if out.is_tie or out.winner == o:
                total += vo * pr
    return rule.m * total


def _ordered_uniform_payoffs(rule) -> list[Fraction]:
    """Uniform expected payoffs averaged over all ordered opponent vectors."""
    m, n = rule.m, rule.n
    return [
        sum((core.payoff_vector(rule, (o, *opps))[0] for opps in product(range(n), repeat=m - 1)), Fraction(0))
        / n ** (m - 1)
        for o in range(n)
    ]


def exact_ops(inputs: dict, rule=_identity) -> list[Op]:
    ops: list[Op] = []

    for m in inputs["symmetric_ms"]:
        def symmetric(m=m):
            eq = equilibrium.solve_symmetric_rps3(m)
            game = rule(construct.imbalanced_rps3(m))
            return eq, equilibrium.nash_gap(game, equilibrium.symmetric_profile(eq.as_vector(), m))

        ops.append(Op(
            f"solve_symmetric_rps3 + nash_gap m={m}",
            symmetric,
            lambda out: [out[1].gap <= SYMMETRIC_GAP_TOL],
        ))

    wm = inputs["winners_m"]

    def winners():
        game = rule(construct.imbalanced_rps3(wm))
        solved = equilibrium.solve_symmetric_rps3(wm).as_vector()
        published = PUBLISHED_M20 if wm == 20 else (Fraction(1, 3),) * 3
        return (
            published,
            equilibrium.expected_winner_count(published, game),
            solved,
            equilibrium.expected_winner_count(solved, game),
        )

    def winners_check(out) -> list[bool]:
        published, exact, solved, approx = out
        game = construct.imbalanced_rps3(wm)
        return [
            exact == _winners_by_player(game, published),
            abs(approx - _winners_by_player(game, solved)) <= 1e-9 * wm,
        ]

    ops.append(Op(f"expected_winner_count m={wm}", winners, winners_check))

    for m in inputs["schur_ms"]:
        def schur(m=m):
            imb, lop = rule(construct.imbalanced_rps3(m)), rule(construct.maximal_rps3(m))
            return (
                core.uniform_expected_payoffs(imb),
                core.uniform_expected_payoffs(lop),
                imbalance.schur_compare(imb, lop),
            )

        def schur_check(out, m=m) -> list[bool]:
            fi, fm, cmp = out
            return [
                fi == _ordered_uniform_payoffs(construct.imbalanced_rps3(m)),
                fm == _ordered_uniform_payoffs(construct.maximal_rps3(m)),
                cmp.payoffs == (tuple(fi), tuple(fm)),
                cmp.relation is imbalance.MajorizationRelation.MAJORIZED_BY,
            ]

        ops.append(Op(f"uniform payoffs + schur_compare m={m}", schur, schur_check))

    # The uniform payoffs of one game by three routes, and its game file, as
    # five operations so that none runs long; each later one checks itself
    # against what the earlier ones of the same pass left in ``seen``.
    bm, bk = inputs["blowup"]
    seen: dict[str, Any] = {}

    def keep(key, value):
        seen[key] = value
        return value

    def direct():
        seen["rule"] = rule(construct.imbalanced_rps(bm, bk))
        return keep("direct", core.uniform_expected_payoffs(seen["rule"]))

    ops += [
        Op(f"imbalanced m={bm} k={bk}: uniform payoffs", direct, lambda out: [sum(out) == 0]),
        Op(
            f"iterated_blowup m={bm} k={bk}: uniform payoffs",
            lambda: core.uniform_expected_payoffs(rule(construct.iterated_blowup(bm, bk))),
            lambda out: [out == seen["direct"]],
        ),
        Op(
            f"imbalanced m={bm} k={bk}: dump_game",
            lambda: keep("text", gamefile.dump_game(seen["rule"])),
            # One line per multiset of m choices from n objects.
            lambda out: [sum(line.startswith("counts=") for line in out.splitlines())
                         == comb(seen["rule"].n + bm - 1, bm)],
        ),
        Op(
            f"imbalanced m={bm} k={bk}: parse_game, uniform payoffs",
            lambda: core.uniform_expected_payoffs(keep("table", rule(gamefile.parse_game(seen["text"])))),
            lambda out: [out == seen["direct"]],
        ),
        Op(f"imbalanced m={bm} k={bk}: dump_game of the parsed table", lambda: gamefile.dump_game(seen["table"]),
           lambda out: [out == seen["text"]]),
    ]

    for role, k, t, r, s in inputs["ev"]:
        def ev(role=role, k=k, t=t, r=r, s=s):
            return (
                formulas.ev_raw(role, k, t, [r] * k, s),
                formulas.ev_simplified(role, formulas.Scenario(k=k, t=t, r=r, s=s)),
            )

        ops.append(Op(f"ev {role.value} k={k} t={t} r={r} s={s}", ev, lambda out: [out[0] == out[1]]))

    for k, t in inputs["identities"]:
        ops.append(Op(
            f"identity_check k={k} t={t}",
            lambda k=k, t=t: [formulas.identity_check(k, t, b) for b in range(k)],
            lambda out: [all(v == (True, True) for v in out)],
        ))
        if k >= 2:
            ops.append(Op(
                f"corner_value k={k} t={t}",
                lambda k=k, t=t: [formulas.corner_value(k, t, l, c) for l in range(k - 1) for c in (0, 1)],
                lambda out: [all(v < 0 for v in out)],
            ))
    return ops


# -------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, bool], dict]
    ops: Callable[..., list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-deep",
            "serial certificates at k 10, 12 and 14: under 100 boxes each, so the Poly2.eval_box enclosure kernel is most of the time",
            certify_deep_inputs,
            certify_deep_ops,
        ),
        Workload(
            "search",
            "search_equilibria on imbalanced3, maximal3, odd-one-out and random tables: best response cycles on the first, finds equilibria on the rest",
            search_inputs,
            search_ops,
        ),
        Workload(
            "exact",
            "Fraction enumeration in core, construct, gamefile and formulas, with no interval kernel and no search: the bypass workload",
            exact_inputs,
            exact_ops,
        ),
    )
}


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    return WORKLOADS[name].make(random.Random(f"{name}:{seed}"), tiny)


def certificates(outputs: list) -> list:
    """Every certificate an operation returned, in operation order."""
    return [out for out in outputs if isinstance(out, certify.InfeasibilityCertificate)]


def equilibria_found(outputs: list) -> int:
    """Verified equilibria the searches returned, summed over games."""
    return sum(
        len(out) for out in outputs
        if isinstance(out, list) and out and isinstance(out[0], tuple)
        and isinstance(out[0][0], equilibrium.MixedProfile)
    )
