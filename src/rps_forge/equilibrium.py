"""Mixed strategies, expected payoffs, and equilibrium computation.

The closed-form solver ``solve_symmetric_rps3`` handles the imbalanced
three-object family, where the symmetric equilibrium (r, p, s) satisfies

    (p + r)^m = p + r^m,    (s + p)^m = s + p^m,    r + p + s = 1,

and the interior solution is isolated by nested bracketed bisection.
Everything else is desk-scale numerics: exact expectation by multiset
convolution, deviation-gap verification, and a seeded multistart search
whose outputs are only ever reported after independent verification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, compress, product, repeat
from operator import add, and_, ge, mul, ne, sub
from typing import Callable, Iterable, Iterator, Sequence

from .core import GameError, GameRule, enumerate_multisets, eval_outcome, tie_payoff

Number = float | Fraction
Vector = tuple[Number, ...]

PROB_SUM_TOL = 1e-12

# Damped best response moves each player _DAMPING of the way to its best
# set per sweep, for at most _MAX_SWEEPS sweeps.  It keeps a start once a
# sweep moves no component by _KEEP_MOVE, and gives it up when a sweep after
# _GIVE_UP_SWEEP still moves one by _GIVE_UP_MOVE.  The search keeps one
# verified candidate within each sup distance _DEDUP.
_DAMPING = 0.5
_MAX_SWEEPS = 10_000
_KEEP_MOVE = 1e-10
_GIVE_UP_SWEEP = 300
_GIVE_UP_MOVE = 1e-4
_DEDUP = 1e-6

_SUPPORT_TOL = 1e-9  # a player plays an object when its probability exceeds this

# Newton on a symmetric support runs from the centre and _NEWTON_STARTS
# random points; _gaps_keep_a_sign halves a support's face at most
# _EXCLUSION_DEPTH times along any path before it gives up.
_NEWTON_STARTS = 24
_EXCLUSION_DEPTH = 6


class SolverError(RuntimeError):
    """No interior equilibrium could be bracketed."""


def _check_distribution(v: Vector) -> None:
    """Raise ``GameError`` unless ``v`` is a probability vector."""
    if any(p < 0 for p in v):
        raise GameError(f"negative probability in {v}")
    if not all(map(math.isfinite, v)):  # NaN passes the other two checks
        raise GameError(f"non-finite probability in {v}")
    if abs(float(sum(v)) - 1.0) > PROB_SUM_TOL:
        raise GameError(f"probabilities sum to {float(sum(v))}, not 1")


def _check_shape(rule: GameRule, profile: MixedProfile) -> None:
    """Raise ``GameError`` unless ``profile`` has one vector per player and
    one entry per object of ``rule``."""
    if profile.m != rule.m:
        raise GameError(f"profile has {profile.m} players, game has {rule.m}")
    for v in profile.vectors:
        if len(v) != rule.n:
            raise GameError(f"profile has {len(v)} entries for {rule.n} objects")


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector over objects per player."""

    vectors: tuple[Vector, ...]
    symmetric: bool = False

    def __post_init__(self):
        for v in self.vectors:
            _check_distribution(v)
        if self.symmetric and len(set(self.vectors)) > 1:
            raise GameError("symmetric profile with differing vectors")

    @property
    def m(self) -> int:
        return len(self.vectors)


def symmetric_profile(vector: Sequence[Number], m: int) -> MixedProfile:
    v = tuple(vector)
    return MixedProfile(vectors=(v,) * m, symmetric=True)


def uniform_profile(rule: GameRule) -> MixedProfile:
    v = tuple(Fraction(1, rule.n) for _ in range(rule.n))
    return symmetric_profile(v, rule.m)


def choice_count_distribution(
    vectors: Sequence[Vector], n: int
) -> dict[tuple[int, ...], Number]:
    """Distribution over count vectors of the objects picked by ``vectors``."""
    dist: dict[tuple[int, ...], Number] = {(0,) * n: 1}
    for v in vectors:
        nxt: dict[tuple[int, ...], Number] = {}
        for counts, pr in dist.items():
            for o, po in enumerate(v):
                if po == 0:
                    continue
                key = counts[:o] + (counts[o] + 1,) + counts[o + 1 :]
                nxt[key] = nxt.get(key, 0) + pr * po
        dist = nxt
    return dist


def _payoff_against(rule: GameRule, pure: int, opp_counts: tuple[int, ...]) -> Fraction:
    combined = list(opp_counts)
    combined[pure] += 1
    out = eval_outcome(rule, combined)
    if out.is_tie:
        return Fraction(0)
    if out.winner == pure:
        return tie_payoff(rule.m, out.winner_count)
    return Fraction(-1)


def _payoff_row(rule: GameRule, counts: tuple[int, ...]) -> tuple[float, ...]:
    """Float payoff of every object against the opponent counts ``counts``."""
    return tuple(float(_payoff_against(rule, o, counts)) for o in range(rule.n))


def expected_payoff(
    rule: GameRule, profile: MixedProfile, player: int, pure: int | str
) -> Number:
    """Expected payoff to ``player`` for the pure choice ``pure`` while the
    other players mix according to ``profile``.  Exact when the profile is
    rational."""
    _check_shape(rule, profile)
    if not 0 <= player < rule.m:
        raise GameError(f"player {player} out of range 0..{rule.m - 1}")
    o = pure if isinstance(pure, int) else rule.index_of(pure)
    if not 0 <= o < rule.n:
        raise GameError(f"object {o} out of range 0..{rule.n - 1}")
    others = [v for i, v in enumerate(profile.vectors) if i != player]
    total: Number = 0
    for counts, pr in choice_count_distribution(others, rule.n).items():
        total += pr * _payoff_against(rule, o, counts)
    return total


@dataclass(frozen=True)
class NashGapReport:
    """Per-player pure-strategy payoffs and best-deviation gaps."""

    payoffs: tuple[tuple[float, ...], ...]
    gaps: tuple[float, ...]
    gap: float

    def is_eps_nash(self, eps: float) -> bool:
        return self.gap <= eps


def _opponent_payoffs(
    rule: GameRule, rows: dict[tuple[int, ...], tuple[float, ...]], others: Sequence[Vector]
) -> list[float]:
    """Float expected payoff of every object against opponents mixing by
    ``others``, summed in count-distribution order.  ``rows`` maps opponent
    counts to their ``_payoff_row``; missing rows are computed and added."""
    terms = []
    for counts, pr in choice_count_distribution(others, rule.n).items():
        row = rows.get(counts)
        if row is None:
            row = rows[counts] = _payoff_row(rule, counts)
        terms.append((float(pr), row))
    u = []
    for o in range(rule.n):
        tot = 0.0
        for pr, row in terms:
            tot += pr * row[o]
        u.append(tot)
    return u


def nash_gap(rule: GameRule, profile: MixedProfile) -> NashGapReport:
    """How much any player could gain by deviating to a pure strategy.

    Within one call each (object, opponent counts) payoff is evaluated
    once, and a player whose ordered opponent vectors equal an earlier
    player's, entry types included, reuses that player's payoff vector.
    So a symmetric profile builds one count distribution, and the float
    operations, and hence the report, are those of evaluating every
    player on their own.
    """
    _check_shape(rule, profile)
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    seen: dict[tuple, list[float]] = {}
    per_player: list[tuple[float, ...]] = []
    gaps: list[float] = []
    for i in range(profile.m):
        others = [v for j, v in enumerate(profile.vectors) if j != i]
        key = tuple(tuple((type(p), p) for p in v) for v in others)
        u = seen.get(key)
        if u is None:
            u = seen[key] = _opponent_payoffs(rule, rows, others)
        current = sum(float(p) * uo for p, uo in zip(profile.vectors[i], u))
        gaps.append(max(0.0, max(u) - current))
        per_player.append(tuple(u))
    return NashGapReport(payoffs=tuple(per_player), gaps=tuple(gaps), gap=max(gaps))


@dataclass(frozen=True)
class SymmetricRps3Equilibrium:
    """Interior symmetric equilibrium of the imbalanced three-object game."""

    m: int
    r: float
    p: float
    s: float
    residuals: tuple[float, float]

    def as_vector(self) -> tuple[float, float, float]:
        return (self.r, self.p, self.s)


def _bisect(belongs_with_lo: Callable[[float], bool], lo: float, hi: float, steps: int) -> float:
    """Midpoint of [lo, hi] after at most ``steps`` halvings, a midpoint
    replacing lo where ``belongs_with_lo`` holds and hi elsewhere.  Stops
    once the midpoint rounds onto an end: later steps would return it too."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if belongs_with_lo(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_changes(
    f: Callable[[float], float | None], points: Iterable[float]
) -> Iterator[tuple[float, float, float]]:
    """``(lo, f(lo), hi)`` for each pair of consecutive ``points`` where f
    changes sign or is exactly zero at hi, skipping points where f is
    None.  Points are evaluated lazily, in order; an exact zero counts as
    nonpositive when it is the lo of the next pair."""
    prev = None
    for x in points:
        g = f(x)
        if g is None:
            continue
        if prev is not None and (g == 0 or (prev[1] > 0) != (g > 0)):
            yield prev[0], prev[1], x
        prev = (x, g)


def _inner_p_root(m: int, r: float) -> float | None:
    """The positive root p of (p+r)^m = p + r^m, if one exists.

    p = 0 always solves the equation; the interior root lies beyond the
    dip of f(p) = (p+r)^m - p - r^m, which exists only while
    r < (1/m)^(1/(m-1)).
    """
    rm = r**m

    def below(p: float) -> bool:
        """Whether f(p) < 0."""
        return (p + r) ** m - p - rm < 0

    turn = (1.0 / m) ** (1.0 / (m - 1)) - r
    if turn <= 0:
        return None
    hi = 1.0 - r
    if turn >= hi or not below(turn) or below(hi):
        return None
    return _bisect(below, turn, hi, 200)


def solve_symmetric_rps3(m: int, tol: float = 1e-12) -> SymmetricRps3Equilibrium:
    """Solve the symmetric equilibrium system for the imbalanced game.

    Scans a grid of r for the first sign change of the outer equation,
    resolving p from the inner equation at each point, then bisects r
    there, and rejects boundary roots: the reported solution has r, p, s
    all strictly inside (0, 1).
    """
    if m < 2:
        raise GameError(f"need at least two players, got {m}")
    if not (tol > 0 and math.isfinite(tol)):  # NaN and inf pass every residual test
        raise GameError(f"tolerance must be positive and finite, got {tol}")

    def outer(r: float) -> float | None:
        p = _inner_p_root(m, r)
        if p is None:
            return None
        s = 1.0 - p - r
        return (s + p) ** m - s - p**m

    r_max = (1.0 / m) ** (1.0 / (m - 1))
    grid = 256
    bracket = next(_sign_changes(outer, (r_max * i / grid for i in range(1, grid))), None)
    if bracket is None:
        raise SolverError(f"no interior equilibrium bracketed for m={m}")
    lo, glo, hi = bracket

    def with_lo(r: float) -> bool:
        g = outer(r)
        if g is None:
            raise SolverError(f"inner root vanished during bisection at m={m}")
        return (g > 0) == (glo > 0)

    r = _bisect(with_lo, lo, hi, 200)
    p = _inner_p_root(m, r)
    if p is None:
        raise SolverError(f"inner root lost at the outer solution for m={m}")
    s = 1.0 - p - r
    res1 = abs((p + r) ** m - p - r**m)
    res2 = abs((s + p) ** m - s - p**m)
    if min(r, p, s) < 1e-9:
        raise SolverError(f"only boundary roots found for m={m}: r={r} p={p} s={s}")
    if res1 > tol or res2 > tol:
        raise SolverError(
            f"residuals {res1:.3e}, {res2:.3e} above tolerance {tol:.1e} for m={m}"
        )
    return SymmetricRps3Equilibrium(m=m, r=r, p=p, s=s, residuals=(res1, res2))


def expected_winner_count(vector: Sequence[Number], rule: GameRule) -> Number:
    """Expected number of winners per instance under a symmetric profile.

    An all-way tie counts every player as a winner.  Exact multiset
    enumeration; with n objects and m players this visits
    C(m+n-1, n-1) outcomes.
    """
    v = tuple(vector)
    if len(v) != rule.n:
        raise GameError(f"profile has {len(v)} entries for {rule.n} objects")
    _check_distribution(v)
    total: Number = 0
    for counts, weight in enumerate_multisets(rule.n, rule.m):
        pr: Number = weight
        for o, c in enumerate(counts):
            if c:
                pr = pr * v[o] ** c
            if pr == 0:
                break
        if pr == 0:
            continue
        out = eval_outcome(rule, counts)
        total += pr * out.winner_count
    return total


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the seeded equilibrium search; the seed is mandatory."""

    seed: int
    eps: float = 1e-9
    starts: int = 200

    def __post_init__(self):
        if self.starts < 0:
            raise GameError(f"starts must be >= 0, got {self.starts}")
        if not (self.eps > 0 and math.isfinite(self.eps)):  # inf verifies any candidate
            raise GameError(f"eps must be positive and finite, got {self.eps}")


def _pure_payoff_cache(rule: GameRule) -> dict[tuple[int, ...], tuple[float, ...]]:
    """``_payoff_row`` for every count vector of the m - 1 opponents."""
    return {
        counts: _payoff_row(rule, counts)
        for counts, _ in enumerate_multisets(rule.n, rule.m - 1)
    }


def _payoff_rows(rule: GameRule, cache: dict) -> list[list[float]]:
    """``rows[o][j]``: payoff of own object ``o`` against the j-th ordered
    tuple of opponent objects, tuples in ``itertools.product`` order."""
    n = rule.n
    keys = []
    for picks in product(range(n), repeat=rule.m - 1):
        counts = [0] * n
        for o in picks:
            counts[o] += 1
        keys.append(tuple(counts))
    return [[cache[counts][o] for counts in keys] for o in range(n)]


def _random_simplex(rng: random.Random, size: int) -> list[float]:
    """A uniform random point of the probability simplex on ``size``
    entries: normalized exponential draws."""
    raw = [rng.expovariate(1.0) for _ in range(size)]
    tot = sum(raw)
    return [w / tot for w in raw]


def _solve_linear(a: list[list[float]], b: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    d = len(b)
    mat = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(mat[r][col]))
        if abs(mat[piv][col]) < 1e-14:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        for r in range(d):
            if r == col:
                continue
            factor = mat[r][col] / mat[col][col]
            for c in range(col, d + 1):
                mat[r][c] -= factor * mat[col][c]
    return [mat[i][d] / mat[i][i] for i in range(d)]


def _face_coefficients(
    rule: GameRule, support: tuple[int, ...], cache: dict
) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """The payoff differences on ``support``'s face as integer Bernstein
    coefficients, and the common denominator they are taken over.

    Entry a, a_k being the opponents on support[k], holds the denominator
    times D_c for the opponent counts c that a spells out, D_c[k] =
    row_c[s_k] - row_c[last].  Every float row is a dyadic rational, so
    this is exact."""
    last = support[-1]
    exact = {
        tuple(counts[o] for o in support): [
            Fraction(row[o]) - Fraction(row[last]) for o in support[:-1]
        ]
        for counts, row in cache.items()
        if sum(counts[o] for o in support) == rule.m - 1
    }
    scale = math.lcm(*(d.denominator for ds in exact.values() for d in ds))
    return {a: tuple(int(d * scale) for d in ds) for a, ds in exact.items()}, scale


def _face_halves(
    coeffs: dict[tuple[int, ...], tuple[int, ...]], i: int, j: int, degree: int
) -> tuple[dict, dict]:
    """Halve a cell's edge from vertex i to vertex j: the coefficients of
    the half whose vertex j moves to the midpoint, then of the half whose
    vertex i does, both times 2^degree.

    The multi-indices that differ only in entries i and j form a fiber,
    a univariate Bernstein form in the share of vertex j; one de Casteljau
    step at 1/2 splits it.  The triangle adds pairs without halving them,
    so its row t is 2^t times de Casteljau's, and the ends of row t are
    shifted by degree - t onto the common 2^degree."""
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    second: dict[tuple[int, ...], tuple[int, ...]] = {}
    for a in coeffs:
        if a[j]:
            continue
        top = a[i]
        fiber = []
        for t in range(top + 1):
            b = list(a)
            b[i], b[j] = top - t, t
            fiber.append(tuple(b))
        row = [coeffs[b] for b in fiber]
        for t in range(top + 1):
            if t:
                row = [tuple(map(add, x, y)) for x, y in zip(row, row[1:])]
            first[fiber[t]] = tuple(v << (degree - t) for v in row[0])
            second[fiber[top - t]] = tuple(v << (degree - t) for v in row[-1])
    return first, second


def _gaps_keep_a_sign(rule: GameRule, support: tuple[int, ...], cache: dict) -> bool:
    """Whether the payoff differences on ``support`` provably never all
    come within 1e-12 of zero, so neither the scan nor Newton can return
    a root.

    On the face, f_k = u_{s_k} - u_last = sum_c D_c[k] B_c(v) over opponent
    counts c, D_c[k] = row_c[s_k] - row_c[last], with the Bernstein basis
    B_c >= 0 summing to 1.  If sigma . D_c > |sigma|_1 (1e-12 + err) for
    all c, for some sigma in {-1, 0, 1}^(size - 1), so does sigma . f,
    hence max |f_k| > 1e-12 + err, ``err`` bounding the float error of
    ``diffs`` (for m <= 4, n <= 5).

    Where the whole face fails that test, its longest edge is halved
    (``_face_halves``), and so on: on each cell, f has a Bernstein form of
    the same degree in the cell's own barycentric coordinates, and the same
    test on its coefficients gives the same bound at every point of the
    cell.  Coefficients are exact integers, the face's times its common
    denominator and 2^(m - 1) per halving, and the margin is scaled alike.
    The support is excluded when every cell passes; the first cell that
    fails after _EXCLUSION_DEPTH halvings ends the proof with False.  The
    cells cover the face.  Every point the scan or Newton evaluates,
    rescaled to sum 1, lies on the face and so in a proved cell.  f is
    homogeneous of degree m - 1 in the barycentric coordinates, so the
    rescaling changes it by a factor within rounding of 1, which ``err``
    covers with the rest of the float error of ``diffs``.  So no point
    they look at is a root.
    """
    size, degree = len(support), rule.m - 1
    coeffs, scale = _face_coefficients(rule, support, cache)
    rmax = max(abs(r) for row in cache.values() for r in row)
    err = (len(coeffs) + rule.m * size + 4) * rmax * 2.0**-48
    margin = Fraction(1e-12 + err) * scale
    signs = [(s, sum(map(abs, s))) for s in product((-1, 0, 1), repeat=size - 1) if any(s)]
    edges = list(combinations(range(size), 2))

    def keeps_a_sign(cell: dict[tuple[int, ...], tuple[int, ...]], bound: Fraction) -> bool:
        for s, norm in signs:
            limit = math.floor(norm * bound)
            if all(sum(map(mul, s, d)) > limit for d in cell.values()):
                return True
        return False

    # (halvings, vertices in the face's barycentric coordinates times
    # 2^halvings, coefficients), depth first
    cells = [(0, [tuple(int(k == v) for k in range(size)) for v in range(size)], coeffs)]
    while cells:
        depth, verts, coeffs = cells.pop()
        if keeps_a_sign(coeffs, margin * (1 << degree * depth)):
            continue
        if depth >= _EXCLUSION_DEPTH:
            return False
        i, j = max(edges, key=lambda e: sum((x - y) ** 2 for x, y in zip(verts[e[0]], verts[e[1]])))
        mid = tuple(map(add, verts[i], verts[j]))
        verts = [tuple(2 * x for x in v) for v in verts]
        first, second = _face_halves(coeffs, i, j, degree)
        cells.append((depth + 1, verts[:j] + [mid] + verts[j + 1 :], first))
        cells.append((depth + 1, verts[:i] + [mid] + verts[i + 1 :], second))
    return True


def _symmetric_support_candidates(
    rule: GameRule, support: tuple[int, ...], cache: dict, rng: random.Random
) -> list[tuple[float, ...]]:
    """Symmetric profiles supported on ``support`` equalizing payoffs there."""
    n, size = rule.n, len(support)

    def lift(x: Sequence[float]) -> tuple[float, ...]:
        v = [0.0] * n
        for o, p in zip(support, x):
            v[o] = p
        return tuple(v)

    if size == 1:
        return [lift([1.0])]
    if _gaps_keep_a_sign(rule, support, cache):
        for _ in range(_NEWTON_STARTS if size >= 3 else 0):
            _random_simplex(rng, size)  # the draws Newton would make
        return []

    def diffs(x: list[float]) -> list[float]:
        v = lift(x + [1.0 - sum(x)])
        u = _opponent_payoffs(rule, cache, [v] * (rule.m - 1))
        last = u[support[-1]]
        return [u[o] - last for o in support[:-1]]

    if size == 2:
        def gap(x: float) -> float:
            return diffs([x])[0]

        out = []
        grid = 128
        for lo, glo, hi in _sign_changes(gap, (i / grid for i in range(grid + 1))):
            root = _bisect(lambda x: (gap(x) > 0) == (glo > 0), lo, hi, 100)
            out.append(lift([root, 1.0 - root]))
        return out

    # size >= 3: damped Newton with numerical Jacobian, multistart
    found: list[tuple[float, ...]] = []
    starts: list[list[float]] = [[1.0 / size] * (size - 1)]
    for _ in range(_NEWTON_STARTS):
        starts.append(_random_simplex(rng, size)[:-1])
    h = 1e-7
    for x in starts:
        x = x[:]
        ok = False
        for _ in range(120):
            f0 = diffs(x)
            if max(abs(v) for v in f0) < 1e-12:
                ok = True
                break
            jac = []
            for j in range(size - 1):
                xj = x[:]
                xj[j] += h
                fj = diffs(xj)
                jac.append([(fj[i] - f0[i]) / h for i in range(size - 1)])
            jac_t = [[jac[j][i] for j in range(size - 1)] for i in range(size - 1)]
            step = _solve_linear(jac_t, [-v for v in f0])
            if step is None:
                break
            scale = 1.0
            for _ in range(40):
                trial = [x[j] + scale * step[j] for j in range(size - 1)]
                if all(t > 1e-12 for t in trial) and sum(trial) < 1.0 - 1e-12:
                    break
                scale *= 0.5
            else:
                break
            x = [x[j] + scale * step[j] for j in range(size - 1)]
        if ok:
            xs = x + [1.0 - sum(x)]
            if all(p > 1e-12 for p in xs):
                found.append(lift(xs))
    return found


def _best_response_profiles(
    rule: GameRule, cache: dict, config: SearchConfig, rng: random.Random
) -> list[list[list[float]]]:
    """Damped best-response iteration from seeded random starts, in lockstep.

    All starts are drawn first, in start-by-start order, and advance
    together sweep by sweep; ``cols[i][o]`` holds player i's probability
    of object o, one entry per active start.  An update builds the
    opponents' joint column by column in ``itertools.product`` order and
    sums each object's payoff column over the tuples it does not tie
    against, in that order, a payoff of 1 or -1 as a bare add or subtract:
    a skipped zero term would add 0.0, which changes no sum, and 1.0 * p is
    p.  The cut, best set, damped step and change are column-wise too.  So
    each start does the float operations of running alone, and its
    profile is the same.

    A start is kept once a sweep moves no component by 1e-10.  It is
    dropped after 300 sweeps that still move one by 1e-4, or as soon as
    its state at the top of a sweep equals the copy saved at sweep 1, 2,
    4, 8, ... (Brent's cycle check, with marks shared by all starts).  A
    sweep depends on the state alone, so such a repeat replays the same
    unconverged sweeps forever.  A start whose best sets provably never
    change again is finished by ``_lock_in``, without payoffs.  Kept
    profiles come back in start order.
    """
    m, n = rule.m, rule.n
    # nonzero[o]: (j, payoff) for each ordered opponent tuple j with a nonzero payoff
    nonzero = [[(j, r) for j, r in enumerate(row) if r] for row in _payoff_rows(rule, cache)]
    opponents = [[j for j in range(m) if j != i] for i in range(m)]
    damping, hold = _DAMPING, 1.0 - _DAMPING
    lock_in = _lock_in(rule, cache)
    starts = [[_random_simplex(rng, n) for _ in range(m)] for _ in range(config.starts)]
    cols = [[[s[i][o] for s in starts] for o in range(n)] for i in range(m)]
    ids, go = list(range(config.starts)), [True] * config.starts
    saved, mark = [()] * config.starts, 1  # no state equals (): nothing saved yet
    kept = {}
    for it in range(_MAX_SWEEPS):
        # Drop finished starts and starts back at their saved state, which
        # cycle forever; state[k] is start k's profile, flattened.
        state = list(zip(*chain.from_iterable(cols)))
        go = list(map(and_, go, map(ne, state, saved)))
        if not all(go):
            ids, state, saved = (list(compress(x, go)) for x in (ids, state, saved))
            cols = [[list(compress(c, go)) for c in player] for player in cols]
        if not ids:
            break
        if it == mark:
            saved, mark = state, 2 * mark
        change = zeros = [0.0] * len(ids)
        best_sets = []
        for i in range(m):
            # joint[j][k]: probability that start k's opponents play ordered tuple j
            opp = [cols[j] for j in opponents[i]] or [[[1.0] * len(ids)]]
            joint = opp[0]  # 1.0 * p == p: the first factor needs no product
            for c in opp[1:]:
                joint = [list(map(mul, a, b)) for a in joint for b in c]
            u = []
            for terms in nonzero:
                uo = zeros
                for j, r in terms:
                    if r == 1.0:
                        uo = list(map(add, uo, joint[j]))
                    elif r == -1.0:
                        uo = list(map(sub, uo, joint[j]))
                    else:
                        uo = list(map(add, uo, map(mul, repeat(r), joint[j])))
                u.append(uo)
            cut = [max(us) - 1e-12 for us in zip(*u)]
            best = [list(map(ge, uo, cut)) for uo in u]
            best_sets.append(list(zip(*best)))
            # damping * (share if b else 0.0), as damping * 0.0 is 0.0
            step = [damping * (1.0 / sum(bs)) for bs in best_sets[i]]
            new = [
                [hold * x + (d if b else 0.0) for x, b, d in zip(xs, bo, step)]
                for xs, bo in zip(cols[i], best)
            ]
            for xs, ys in zip(new, cols[i]):
                change = list(map(max, change, map(abs, map(sub, xs, ys))))
            cols[i] = new
        done = [c < _KEEP_MOVE for c in change]
        for k in compress(range(len(ids)), done):
            kept[ids[k]] = [[c[k] for c in player] for player in cols]
        go = [
            not d and not (it > _GIVE_UP_SWEEP and c > _GIVE_UP_MOVE)
            for d, c in zip(done, change)
        ]
        # Finish without payoffs each start whose best sets provably stay at
        # one object each, its first best one.  The test runs at sweeps 0,
        # 1, 3, 7, ...: each wait is twice the last.
        if it & (it + 1):
            continue
        for k in compress(range(len(ids)), go):
            b = tuple(bs[k].index(True) for bs in best_sets)
            locked, profile = lock_in(b, cols, k, it)
            if not locked:
                continue
            go[k] = False
            if profile is not None:
                kept[ids[k]] = profile
    return [kept[k] for k in sorted(kept)]


def _lock_in(
    rule: GameRule, cache: dict
) -> Callable[[tuple[int, ...], list, int, int], tuple[bool, list[list[float]] | None]]:
    """``lock_in(b, cols, k, it)`` for start ``k`` of the kernel's columns
    ``cols`` after sweep ``it``: (False, None) unless every later best set
    of each player i is provably {b_i}; else (True, the profile the kernel
    keeps, or None).  The start's flat state x is read only once b is known
    to be a pure equilibrium.

    With d_j = x_j - e_{b_j}, while the best sets are {b} player i meets
    opponent j at e_{b_j} + a_ij * mu * d_j, mu = hold^s after s more
    sweeps, a_ij = hold if j < i else 1.  So u_{b_i} - u_o = c0 + mu L +
    R, with c0 the gap at b, L the terms in one d_j, and |R| <= mu^2 H, H
    = w (prod(1 + t_j) - 1 - sum t_j), t_j = a_ij |d_j|_1, w the widest
    gap.  A running start moved 1e-10 last sweep, so mu >= mu_min = hold *
    1e-10 / (damping * max |d|), up to rounding.  If c0 + mu L - mu^2 H,
    concave in mu, clears the cut 1e-12 plus ``tol`` (float error;
    ``slip`` bounds the drift from the ideal path) at mu_min and at 1,
    then by induction o stays out of every later best set.

    The start then runs the kernel's update, keep and give-up rules
    without payoffs, skipping the change while a sweep certainly moves
    a component by 1e-10.  Its repeat rule never fires: each component
    follows a nondecreasing map, so its iterates are monotone; a repeat of
    the state saved at sweep t would make them constant from t, so the
    start was kept at t.
    """
    m, n = rule.m, rule.n
    damping, hold = _DAMPING, 1.0 - _DAMPING
    rmax = max(abs(r) for row in cache.values() for r in row)
    slip = 4e-16 / damping  # each step's rounding, summed over a geometric series
    tol = 1e-12 + (rmax + 1.0) * ((n ** (m - 1) + m * n + 8) * 2.0**-48 + 2 * (m - 1) * n * slip)
    players = [[(j, hold if j < i else 1.0) for j in range(m) if j != i] for i in range(m)]
    tables: dict[tuple[int, ...], list | None] = {}

    def table(b: tuple[int, ...]) -> list | None:
        """Per player i and object o != b_i: c0, the coefficients of L,
        and w; None if b is no pure equilibrium."""
        def gap(i: int, moved: dict[int, int], o: int) -> float:
            counts = [0] * n
            for k in range(m):
                if k != i:
                    counts[moved.get(k, b[k])] += 1
            row = cache[tuple(counts)]
            return row[b[i]] - row[o]

        out = []
        for i, opps in enumerate(players):
            gaps = []
            for o in range(n):
                if o != b[i]:
                    c0 = gap(i, {}, o)
                    if c0 < 0:
                        return None
                    gaps.append((
                        c0,
                        [a * gap(i, {j: t}, o) for j, a in opps for t in range(n)],
                        max(abs(row[b[i]] - row[o]) for row in cache.values()),
                    ))
            out.append(gaps)
        return out

    def lock_in(
        b: tuple[int, ...], cols: list, k: int, it: int
    ) -> tuple[bool, list[list[float]] | None]:
        if b not in tables:
            tables[b] = table(b)
        if tables[b] is None:
            return False, None
        x = [c[k] for player in cols for c in player]
        d = x[:]
        for j, bj in enumerate(b):
            d[j * n + bj] -= 1.0
        dj = [d[j * n : j * n + n] for j in range(m)]
        top = max(map(abs, d))
        # 1 - 1e-6 covers the rounding of the change, and of 1 - hold against damping
        mu = hold * (_KEEP_MOVE * (1 - 1e-6) - 2 * slip) / (damping * top) if top else 1.0
        mu = min(1.0, max(0.0, mu))
        for opps, gaps in zip(players, tables[b]):
            one = [v for j, _ in opps for v in dj[j]]
            t = [a * sum(map(abs, dj[j])) for j, a in opps]
            rest = max(0.0, math.prod(1.0 + v for v in t) - 1.0 - sum(t))
            for c0, g1, w in gaps:
                lin = sum(map(mul, g1, one))
                if c0 + mu * (lin - mu * w * rest) <= tol or c0 + lin - w * rest <= tol:
                    return False, None
        steps = [damping if j % n == b[j // n] else 0.0 for j in range(m * n)]
        # Sweep it + 1 + s moves the largest |d| by damping * hold^s * top -
        # 2 * slip or more, which is _KEEP_MOVE or more for s <= skip below.
        # So the first floor(skip) sweeps (one spare for rounding) need no
        # change; they run one component at a time, short of the give-up
        # sweep.  None of them could keep the start, so running past the cap
        # changes nothing.  At damping 1, hold is 0 and none is skipped.
        skip = 0
        if top and hold:
            skip = math.log((_KEEP_MOVE + 2 * slip) / (damping * top)) / math.log(hold)
        skip = max(0, min(math.floor(skip), _GIVE_UP_SWEEP - it))
        for j, s in enumerate(steps):
            a = x[j]
            for _ in range(skip):
                a = hold * a + s
            x[j] = a
        for it in range(it + skip + 1, _MAX_SWEEPS):
            y = [hold * a + s for a, s in zip(x, steps)]
            change = max(map(abs, map(sub, y, x)))
            x = y
            if change < _KEEP_MOVE:
                return True, [x[i * n : i * n + n] for i in range(m)]
            if it > _GIVE_UP_SWEEP and change > _GIVE_UP_MOVE:
                break
        return True, None

    return lock_in


def _can_settle(rule: GameRule, cache: dict) -> bool:
    """Whether damped best response could keep any start.

    A start is kept after a sweep that moves no component by 1e-10.  Let
    B_i be player i's float best set at that sweep and y_i uniform on B_i.
    A damped step moves a state by damping times its distance to y_i, so
    each player's state lies within (1e-10 + 1e-15) / damping of y_i
    before its update, 1e-15 bounding the step's rounding, and within
    1e-10 of that after it: within delta = 1e-10 + (1e-10 + 1e-15) /
    damping of y_i throughout the sweep.  The payoffs are multilinear in
    the opponents' vectors, so the kernel's float payoffs differ from the
    exact u(y) by at most E = rmax * (m - 1) * n * delta + 1e-12, rmax
    being the largest pure payoff in absolute value and 1e-12 bounding
    the rounding of the dots.  The kernel's cut lies 1e-12 below its top
    payoff, so for every player

        B_i is a subset of {o : u_o(y) > max u(y) - 1e-12 - 2E}.

    So no start is ever kept unless some profile of nonempty supports S_i
    has every object of every S_i within 1e-12 + 2E of the top payoff at
    y.  (The converse bound, o in B_i whenever u_o(y) >= max u(y) - 1e-12
    + 2E, never holds, as 2E > 1e-12.)  Payoffs depend on the opponents'
    multiset alone, so profiles are enumerated up to player order, smaller
    supports first (pure profiles come first), with u memoized per
    opponent multiset.
    """
    m, n = rule.m, rule.n
    rmax = max(abs(x) for row in cache.values() for x in row)
    delta = _KEEP_MOVE + (_KEEP_MOVE + 1e-15) / _DAMPING
    margin = 1e-12 + 2.0 * (rmax * (m - 1) * n * delta + 1e-12)
    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    uniform = {s: tuple(1.0 / len(s) if o in s else 0.0 for o in range(n)) for s in supports}
    payoffs: dict[tuple, list[float]] = {}

    def fits(s: tuple[int, ...], opponents: tuple) -> bool:
        u = payoffs.get(opponents)
        if u is None:
            u = payoffs[opponents] = _opponent_payoffs(
                rule, cache, [uniform[t] for t in opponents]
            )
        floor = max(u) - margin
        return all(u[o] > floor for o in s)

    # Each profile once, as a nondecreasing tuple of supports grouped by its
    # last support; removing one entry leaves the opponents' tuple sorted.
    for last, s in enumerate(supports):
        for rest in combinations_with_replacement(supports[: last + 1], m - 1):
            profile = rest + (s,)
            if all(
                fits(t, profile[:i] + profile[i + 1 :])
                for i, t in enumerate(profile)
                if i == 0 or t != profile[i - 1]
            ):
                return True
    return False


def search_equilibria(
    rule: GameRule, config: SearchConfig
) -> list[tuple[MixedProfile, NashGapReport]]:
    """Candidate equilibria of a small game, each independently verified.

    Combines symmetric per-support root finding, skipping supports where
    ``_gaps_keep_a_sign`` proves there is none, with multistart damped
    best-response iteration.  The best-response starts run in lockstep,
    one column per (player, object); each start does the float operations
    of running alone and leaves at its own sweep, so the candidates, in
    start order, are those of one start at a time.  A start that returns
    exactly to an earlier state is cycling and is dropped at once; it
    could never converge, so this only saves time.  Best response runs
    only where ``_can_settle`` finds a profile of supports that a kept
    start could end at; elsewhere (imbalanced3 at m = 3 and 4, say) no
    start could be kept, and as best response is the last stage to draw
    from the seeded stream, skipping it changes no result.  Every
    candidate must pass the deviation-gap check at ``config.eps``;
    survivors are deduplicated within sup distance ``_DEDUP``.  The
    list may be empty (inconclusive); it is never claimed exhaustive.
    """
    if rule.m > 4 or rule.n > 5:
        raise GameError("search is desk-scale only (m <= 4, n <= 5)")
    rng = random.Random(config.seed)
    cache = _pure_payoff_cache(rule)

    candidates: list[tuple[Vector, ...]] = []
    for size in range(1, rule.n + 1):
        for support in combinations(range(rule.n), size):
            for v in _symmetric_support_candidates(rule, support, cache, rng):
                candidates.append((v,) * rule.m)
    if _can_settle(rule, cache):  # nothing reads rng after this
        for vectors in _best_response_profiles(rule, cache, config, rng):
            candidates.append(tuple(tuple(v) for v in vectors))

    verified: list[tuple[MixedProfile, NashGapReport]] = []
    seen: list[tuple[float, ...]] = []
    for cand in sorted(candidates):
        flat = tuple(p for v in cand for p in v)
        if any(max(abs(a - b) for a, b in zip(flat, prev)) < _DEDUP for prev in seen):
            continue
        total_fix = [tuple(p / sum(v) for p in v) for v in cand]
        profile = MixedProfile(
            vectors=tuple(total_fix), symmetric=len(set(total_fix)) == 1
        )
        report = nash_gap(rule, profile)
        if report.is_eps_nash(config.eps):
            verified.append((profile, report))
            seen.append(flat)
    return verified


@dataclass(frozen=True)
class PlayabilityReport:
    """Evidence-based playability classification.

    ``no_counterexample_to_strong`` is exactly that: none of the supplied
    equilibria violates the property.  The search is not exhaustive, so
    strong playability itself is never asserted.
    """

    k: int
    playable: bool
    k_playable: bool
    weakly_playable: bool
    k_weakly_playable: bool
    no_counterexample_to_strong: bool
    equilibria_examined: int
    exhaustive: bool = False


def classify_playability(
    rule: GameRule,
    equilibria: Sequence[MixedProfile],
    k: int = 1,
) -> PlayabilityReport:
    """Classify playability relative to a list of verified equilibria.
    ``k`` is the number of players each object needs; it must be >= 1."""
    if k < 1:
        raise GameError(f"k must be >= 1, got {k}")
    per_eq_counts = []
    for prof in equilibria:
        _check_shape(rule, prof)
        counts = [0] * rule.n
        for v in prof.vectors:
            for o, p in enumerate(v):
                if float(p) > _SUPPORT_TOL:
                    counts[o] += 1
        per_eq_counts.append(counts)

    def eq_has(counts: list[int], least: int) -> bool:
        return all(c >= least for c in counts)

    playable = any(eq_has(c, 1) for c in per_eq_counts)
    k_playable = any(eq_has(c, k) for c in per_eq_counts)
    weakly = all(
        any(c[o] >= 1 for c in per_eq_counts) for o in range(rule.n)
    ) if per_eq_counts else False
    k_weakly = all(
        any(c[o] >= k for c in per_eq_counts) for o in range(rule.n)
    ) if per_eq_counts else False
    no_counter = all(eq_has(c, 1) for c in per_eq_counts)
    return PlayabilityReport(
        k=k,
        playable=playable,
        k_playable=k_playable,
        weakly_playable=weakly,
        k_weakly_playable=k_weakly,
        no_counterexample_to_strong=no_counter,
        equilibria_examined=len(per_eq_counts),
    )
