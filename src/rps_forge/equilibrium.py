"""Mixed strategies, expected payoffs, and equilibrium computation.

The closed-form solver ``solve_symmetric_rps3`` handles the imbalanced
three-object family, where the symmetric equilibrium (r, p, s) satisfies

    (p + r)^m = p + r^m,    (s + p)^m = s + p^m,    r + p + s = 1,

and the interior solution is isolated by nested bracketed bisection.
Everything else is desk-scale numerics: exact expectation by multiset
convolution, deviation-gap verification, and a search that enumerates
the exact uniform-support equilibria and roots each symmetric support's
exact Bernstein form, the one an exclusion test proves root-free cell by
cell, by Newton from a seeded start in every cell it leaves; its outputs
are only ever reported after independent verification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from .core import GameError, GameRule, _shown, enumerate_multisets, eval_outcome, tie_payoff
from .intervals import _face_halves

Number = float | Fraction
Vector = tuple[Number, ...]

PROB_SUM_TOL = 1e-12

_DEDUP = 1e-6  # the search keeps one verified candidate within each sup distance

_SUPPORT_TOL = 1e-9  # a player plays an object when its probability exceeds this

# _unproved_cells halves a support's face at most _EXCLUSION_DEPTH times
# along any path before it leaves a cell to Newton.
_EXCLUSION_DEPTH = 6


class SolverError(RuntimeError):
    """No interior equilibrium could be bracketed."""


def _check_distribution(v: Vector) -> None:
    """Raise ``GameError`` unless ``v`` is a probability vector whose
    entries and sum are within the float range.  An exact ``v`` is checked
    in integers (``_scaled_to_integers``); int / int division rounds its
    sum to ``float(sum(v))``, the float that verdict and message read."""
    ints = _scaled_to_integers(v)
    if any(p < 0 for p in (ints[0] if ints else v)):
        raise GameError(f"negative probability in {_shown(v)}")
    try:
        if ints:
            total = sum(ints[0]) / ints[1]
        elif all(map(math.isfinite, v)):  # NaN passes the other two checks
            total = float(sum(v))
        else:
            raise GameError(f"non-finite probability in {_shown(v)}")
    except OverflowError:
        # an entry or the sum is past the float range
        raise GameError("probabilities exceed the float range") from None
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise GameError(f"probabilities sum to {total}, not 1")


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

    def __post_init__(self):
        for v in {id(v): v for v in self.vectors}.values():  # each object once
            _check_distribution(v)

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def symmetric(self) -> bool:
        """Whether every player's vector equals the first, by value."""
        return all(v == self.vectors[0] for v in self.vectors)


def symmetric_profile(vector: Sequence[Number], m: int) -> MixedProfile:
    v = tuple(vector)
    return MixedProfile(vectors=(v,) * m)


def uniform_profile(rule: GameRule) -> MixedProfile:
    v = tuple(Fraction(1, rule.n) for _ in range(rule.n))
    return symmetric_profile(v, rule.m)


def choice_count_distribution(
    vectors: Sequence[Vector], n: int
) -> dict[tuple[int, ...], Number]:
    """Distribution over count vectors of the objects picked by ``vectors``,
    each of which must hold one entry per object."""
    dist: dict[tuple[int, ...], Number] = {(0,) * n: 1}
    for v in vectors:
        if len(v) != n:
            raise GameError(f"vector has {len(v)} entries for {n} objects")
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


def _scaled_to_integers(v: Vector) -> tuple[tuple[int, ...], int] | None:
    """An exact vector, every entry an int or a ``Fraction``, as
    ``(numerators, d)`` over the lcm d of its denominators:
    v[o] == numerators[o] / d.  None for any other vector."""
    if not all(type(p) is Fraction or type(p) is int for p in v):
        return None
    d = 1
    for p in v:  # pairwise: unpacking a generator into math.lcm makes peak RSS creep
        d = math.lcm(d, p.denominator)
    return tuple(p.numerator * (d // p.denominator) for p in v), d


def _view(v: Vector, memo: dict) -> tuple[tuple[float, ...], tuple[tuple[int, ...], int] | None]:
    """``v``'s float view and, for an exact ``v``, its integer form
    ``(numerators, d)`` (``_scaled_to_integers``), made once per object and
    kept in ``memo`` under ``id(v)``.  Each float is ``float(p)``: int / int
    division rounds correctly."""
    got = memo.get(id(v))
    if got is None:
        ints = _scaled_to_integers(v)
        floats = tuple(x / ints[1] for x in ints[0]) if ints else tuple(map(float, v))
        got = memo[id(v)] = (floats, ints)
    return got


def _count_weights(
    vectors: Sequence[Vector], n: int, memo: dict
) -> list[tuple[tuple[int, ...], float]]:
    """``choice_count_distribution`` of ``vectors``, in its order, with each
    weight as the float of its exact value.  Where every entry is an int or
    a ``Fraction``, the picks are convolved in integers, each vector's
    integer form read from ``memo`` (``_view``), and divided by the product
    of their denominators: int / int division rounds correctly, so
    ``ways / den`` is ``float(pr)``, without a ``Fraction`` per product.
    Float products round at each step, so float vectors take the generic
    convolution."""
    forms = [_view(v, memo)[1] for v in vectors]
    if all(forms):
        den = math.prod(d for _, d in forms)
        scaled = [numerators for numerators, _ in forms]
        return [(c, ways / den) for c, ways in choice_count_distribution(scaled, n).items()]
    return [(c, float(pr)) for c, pr in choice_count_distribution(vectors, n).items()]


def _gap_report(
    vectors: tuple[Vector, ...],
    n: int,
    row: Callable[[tuple[int, ...]], tuple[float, ...]],
    memo: dict,
) -> NashGapReport:
    """The deviation gaps of ``vectors``, with ``row(counts)`` the float
    payoff of every object against the opponent count vector ``counts``.

    ``memo`` lives for one search or ``nash_gap`` call.  It maps the ids
    of a player's ordered opponent vectors, as a tuple, to their payoff
    vector, and a vector's id, as an int, to its ``_view``; the caller
    keeps every vector it has seen alive, so an id names one object.  A
    player whose opponents are the very objects of an earlier player's
    reuses that payoff vector, so a symmetric profile builds one count
    distribution.  Each payoff sums its terms in distribution order, so
    the float operations, and hence the report, are those of evaluating
    every player on their own."""
    per_player: list[tuple[float, ...]] = []
    gaps: list[float] = []
    for i, mine in enumerate(vectors):
        others = vectors[:i] + vectors[i + 1 :]
        key = tuple(map(id, others))
        u = memo.get(key)
        if u is None:
            u = [0.0] * n
            for counts, pr in _count_weights(others, n, memo):
                u = [t + pr * x for t, x in zip(u, row(counts))]
            memo[key] = u
        current = sum(p * uo for p, uo in zip(_view(mine, memo)[0], u))
        gaps.append(max(0.0, max(u) - current))
        per_player.append(tuple(u))
    return NashGapReport(payoffs=tuple(per_player), gaps=tuple(gaps), gap=max(gaps))


def nash_gap(rule: GameRule, profile: MixedProfile) -> NashGapReport:
    """How much any player could gain by deviating to a pure strategy.

    ``_gap_report`` with payoff rows from ``_payoff_against``, each
    (object, opponent counts) payoff evaluated once per call.  Exact
    vectors get their count weights from an integer convolution
    (``_count_weights``).  ``search_equilibria`` verifies through the same
    kernel from its exact table, to the same report bit for bit.
    """
    _check_shape(rule, profile)
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}

    def row(counts: tuple[int, ...]) -> tuple[float, ...]:
        if counts not in rows:
            rows[counts] = tuple(float(_payoff_against(rule, o, counts)) for o in range(rule.n))
        return rows[counts]

    return _gap_report(profile.vectors, rule.n, row, {})


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
    C(m+n-1, n-1) outcomes, and skips those of probability zero.  An
    exact vector (ints and ``Fraction``s) is first scaled to integers over
    the lcm d of its denominators, so the sum runs in integers and one
    ``Fraction`` is made over d**m at the end; it is an ``int`` when no
    nonzero entry is a ``Fraction``.
    """
    v = tuple(vector)
    if len(v) != rule.n:
        raise GameError(f"profile has {len(v)} entries for {rule.n} objects")
    _check_distribution(v)
    ints = _scaled_to_integers(v)
    entries, d = ints or (v, 1)
    powers = [[x**c for c in range(rule.m + 1)] for x in entries]
    total: Number = 0
    for counts, pr in enumerate_multisets(rule.n, rule.m):
        for row, c in zip(powers, counts):
            if c:
                pr = pr * row[c]
        if pr:
            total += pr * eval_outcome(rule, counts).winner_count
    if ints and any(type(p) is Fraction and p for p in v):
        return Fraction(total, d**rule.m)
    return total  # with no nonzero Fraction entry, d is 1


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the seeded equilibrium search; the seed is mandatory."""

    seed: int
    eps: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):  # inf verifies any candidate
            raise GameError(f"eps must be positive and finite, got {self.eps}")


def _payoff_table(rule: GameRule) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """Every object's exact payoff against every count vector of the m - 1
    opponents, as ``(rows, scale)``: rows[counts][o] / scale is
    ``_payoff_against(rule, o, counts)``.  Payoffs are 0, -1 and
    (m - w) / w for w tied winners, so scale is 1, 2 or 3 for m <= 4."""
    exact = {
        c: [_payoff_against(rule, o, c) for o in range(rule.n)]
        for c, _ in enumerate_multisets(rule.n, rule.m - 1)
    }
    # a list, not a generator: see _scaled_to_integers
    scale = math.lcm(*[x.denominator for row in exact.values() for x in row])
    return {c: tuple(int(x * scale) for x in row) for c, row in exact.items()}, scale


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
    rule: GameRule, support: tuple[int, ...], rows: dict
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The payoff differences on ``support``'s face as integer Bernstein
    coefficients over the scale of ``_payoff_table``'s ``rows``.

    Entry a, a_k being the opponents on support[k], holds D_c for the
    opponent counts c that a spells out, D_c[k] = row_c[s_k] - row_c[last]:
    the exact payoff difference times the scale."""
    last = support[-1]
    return {
        tuple(counts[o] for o in support): tuple(row[o] - row[last] for o in support[:-1])
        for counts, row in rows.items()
        if sum(counts[o] for o in support) == rule.m - 1
    }


def _unproved_cells(
    rule: GameRule, support: tuple[int, ...], rows: dict, scale: int
) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The cells of ``support``'s face where the payoff differences may all
    come within 1e-12 of zero, as ``(halvings, vertices)``, vertices in the
    face's barycentric coordinates times 2^halvings; elsewhere Newton can
    return no root.  ``rows`` and ``scale`` are ``_payoff_table``'s.

    On the face, f_k = u_{s_k} - u_last = sum_a D_a[k] B_a(v) / scale over
    the opponents' counts a on the support (``_face_coefficients``), with
    the Bernstein basis B_a >= 0 summing to 1.  If sigma . D_a / scale >
    |sigma|_1 (1e-12 + err) for all a, for some sigma in {-1, 0, 1}^(size
    - 1), so does sigma . f, hence max |f_k| > 1e-12 + err.  ``err`` bounds
    how far ``_face_system``'s float f at a point Newton evaluates lies
    from f at that point rescaled to sum 1: each term rounds at most m - 1
    times, their sum len(coeffs) - 1 times and the division by scale once,
    each relative to a sum of magnitudes <= 2 rmax, and the point's sum, 1
    within size 2^-53, moves f by about m size 2^-52 rmax: under err / 10.

    Where the whole face fails that test, its longest edge is halved
    (``_face_halves``), and so on: on each cell, f has a Bernstein form of
    the same degree in the cell's own barycentric coordinates, and the same
    test on its coefficients gives the same bound at every point of the
    cell.  Coefficients are exact integers, the face's times 2^(m - 1) per
    halving, and the margin is scaled alike.  A cell that still fails after
    _EXCLUSION_DEPTH halvings is returned, and the walk goes on.  The cells
    cover the face, so no point Newton evaluates outside them is a root.
    """
    size, degree = len(support), rule.m - 1
    coeffs = _face_coefficients(rule, support, rows)
    rmax = max(abs(x) for row in rows.values() for x in row) / scale
    err = ((len(coeffs) + rule.m * size + 4) * 2.0**-48 + 2.0**-52) * rmax
    num, den = (1e-12 + err).as_integer_ratio()  # the margin, exactly
    signs = [(s, sum(map(abs, s))) for s in product((-1, 0, 1), repeat=size - 1) if any(s)]
    edges = list(combinations(range(size), 2))

    def keeps_a_sign(cell: dict[tuple[int, ...], tuple[int, ...]], shift: int) -> bool:
        for s, norm in signs:
            limit = norm * num * scale << shift
            if all(sum(map(mul, s, d)) * den > limit for d in cell.values()):
                return True
        return False

    unproved = []
    # (halvings, vertices, coefficients), depth first
    cells = [(0, [tuple(int(k == v) for k in range(size)) for v in range(size)], coeffs)]
    while cells:
        depth, verts, coeffs = cells.pop()
        if keeps_a_sign(coeffs, degree * depth):
            continue
        if depth >= _EXCLUSION_DEPTH:
            unproved.append((depth, verts))
            continue
        i, j = max(edges, key=lambda e: sum((x - y) ** 2 for x, y in zip(verts[e[0]], verts[e[1]])))
        mid = tuple(map(add, verts[i], verts[j]))
        verts = [tuple(2 * x for x in v) for v in verts]
        first, second = _face_halves(coeffs, i, j, degree)
        cells.append((depth + 1, verts[:j] + [mid] + verts[j + 1 :], first))
        cells.append((depth + 1, verts[:i] + [mid] + verts[i + 1 :], second))
    return unproved


def _cell_starts(cells: list[tuple[int, list]], rng: random.Random) -> list[list[float]]:
    """One seeded random point of each of ``_unproved_cells``'s cells, in
    the face's barycentric coordinates: ``_random_simplex`` weights over
    the cell's vertices."""
    starts = []
    for depth, verts in cells:
        weights = _random_simplex(rng, len(verts))
        starts.append([sum(map(mul, weights, col)) / (1 << depth) for col in zip(*verts)])
    return starts


def _face_system(
    rule: GameRule, support: tuple[int, ...], rows: dict, scale: int
) -> Callable[[list[float]], tuple[list[float], list[list[float]]]]:
    """f and its Jacobian in float at a point x of ``support``'s face, from
    the ``_face_coefficients`` D that ``_unproved_cells`` reads: f_k =
    sum_a D_a[k] B_a(x) / scale and, with x_last = 1 - x_1 - ... - x_d,
    df_k/dx_j = (m - 1) sum_b (D_{b+e_j}[k] - D_{b+e_last}[k]) B_b(x) /
    scale, degree-lowered so that it divides by no coordinate."""
    d = len(support) - 1
    coeffs = _face_coefficients(rule, support, rows)
    lowered = {}
    for a, at_last in coeffs.items():
        if a[d]:  # a = b + e_last
            b = a[:d] + (a[d] - 1,)
            ups = [coeffs[b[:j] + (b[j] + 1,) + b[j + 1 :]] for j in range(d)]
            lowered[b] = [(rule.m - 1) * (up[k] - at_last[k]) for k in range(d) for up in ups]
    forms = [
        (width, [([k for k, c in enumerate(a) for _ in range(c)],
                  [math.factorial(sum(a)) // math.prod(map(math.factorial, a)) * v for v in vals])
                 for a, vals in table.items()])
        for table, width in ((coeffs, d), (lowered, d * d))
    ]

    def at(x: list[float]) -> tuple[list[float], list[list[float]]]:
        sums = []
        for width, form in forms:
            tot = [0.0] * width
            for picks, vals in form:
                mono = math.prod([x[k] for k in picks])
                tot = [t + v * mono for t, v in zip(tot, vals)]
            sums.append([t / scale for t in tot])
        f, flat = sums
        return f, [flat[k * d : (k + 1) * d] for k in range(d)]

    return at


def _symmetric_support_candidates(
    rule: GameRule, support: tuple[int, ...], rows: dict, scale: int, starts: list[list[float]]
) -> list[tuple[float, ...]]:
    """Symmetric profiles on ``support`` where ``_face_system``'s f
    vanishes: damped Newton from each of ``starts`` (face points)."""
    if not starts:
        return []
    d, system = len(support) - 1, _face_system(rule, support, rows, scale)
    found: list[tuple[float, ...]] = []
    for start in starts:
        x = start[:d]
        for _ in range(120):
            xs = x + [1.0 - sum(x)]
            f0, jac = system(xs)
            if max(map(abs, f0)) < 1e-12:
                if all(p > 1e-12 for p in xs):  # a root is normalised once, here
                    shares = dict(zip(support, xs))
                    found.append(tuple(shares.get(o, 0.0) / sum(xs) for o in range(rule.n)))
                break
            step = _solve_linear(jac, [-v for v in f0])
            if step is None:
                break
            damp = 1.0
            for _ in range(40):
                trial = [x[j] + damp * step[j] for j in range(d)]
                if all(t > 1e-12 for t in trial) and sum(trial) < 1.0 - 1e-12:
                    break
                damp *= 0.5
            else:
                break
            x = trial
    return found


def _uniform_support_equilibria(rule: GameRule, rows: dict) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Every exact equilibrium in which each player is uniform on its
    support, as ``Fraction`` vectors, in every distinct ordering of the
    players.

    A player's payoffs depend on the opponents' multiset alone, so support
    profiles are walked up to player order, smaller supports first, and
    each opponents' multiset gets its best set once.  Payoffs are exact
    integers: ``_payoff_table``'s ``rows``, summed over the opponents'
    ordered picks from their supports, which scales one player's expected
    payoffs by one positive constant.  A profile is
    kept when every object of every support is at its player's top payoff
    exactly.  This is support enumeration (Porter, Nudelman and Shoham,
    GEB 63, 2008) restricted to uniform vectors.

    It contains every profile that damped best response, x_i <- x_i / 2 +
    uniform(B_i) / 2 from random starts with B_i the float best set, could
    keep; the search ran that before.  Within the desk-scale guard (m <= 4,
    n <= 5) every payoff's denominator divides 6 and every support size
    divides 60, so a nonzero exact payoff gap at a uniform-support profile
    is at least 1 / (6 * 60^3), about 7.7e-7.  A start was kept after a
    sweep that moved no component by 1e-10.  Through that sweep each
    player lay within about 3e-10 of y_i, uniform on B_i, and its float
    payoffs within about 1e-8 of the exact u(y), so every object of B_i
    was within 3e-8 of the top at y.  No nonzero gap is that small, so
    every object of B_i is exactly tied at the top: y is enumerated here,
    and the kept state, x_i / 2 + y_i / 2 moving x_i by under 1e-10, lies
    within 1e-10 of it.
    """
    m, n = rule.m, rule.n
    supports = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    picks = {s: tuple(int(o in s) for o in range(n)) for s in supports}
    best_sets: dict[tuple, frozenset[int]] = {}

    def fits(s: tuple[int, ...], opponents: tuple) -> bool:
        best = best_sets.get(opponents)
        if best is None:
            u = [0] * n
            for counts, ways in choice_count_distribution([picks[t] for t in opponents], n).items():
                for o, x in enumerate(rows[counts]):
                    u[o] += ways * x
            top = max(u)
            best = best_sets[opponents] = frozenset(o for o in range(n) if u[o] == top)
        return best.issuperset(s)

    found = []
    vectors: dict[tuple[int, ...], tuple[Fraction, ...]] = {}  # one object per support
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
                for t in profile:
                    if t not in vectors:
                        vectors[t] = tuple(Fraction(x, len(t)) for x in picks[t])
                for order in sorted(set(permutations(profile))):
                    found.append(tuple(vectors[t] for t in order))
    return found


def search_equilibria(
    rule: GameRule, config: SearchConfig
) -> list[tuple[MixedProfile, NashGapReport]]:
    """Candidate equilibria of a small game, each independently verified.

    Builds ``_payoff_table`` once and takes, in this order, the exact
    uniform-support equilibria of ``_uniform_support_equilibria`` and the
    float roots of each support of two objects or more that Newton finds
    from one seeded start in each cell where ``_unproved_cells`` cannot
    prove that there is none; both read the table's integers.
    Every candidate must pass the deviation-gap check at ``config.eps``:
    ``_gap_report``, with payoff rows read from the table as x / scale,
    which int / int division rounds as ``float`` rounds ``_payoff_against``,
    and with integer count weights for the exact vectors, so each report
    is ``nash_gap``'s bit for bit.  Every candidate shares one memo, so each
    vector object is scaled to integers and converted to floats once.  A
    root is dropped when it lies within sup distance ``_DEDUP`` of a profile
    already kept, compared through those float views, so an exact profile
    is the one reported where a float root lies that close to it.
    The list may be empty (inconclusive); it is never claimed exhaustive.
    """
    if rule.m > 4 or rule.n > 5:
        raise GameError("search is desk-scale only (m <= 4, n <= 5)")
    rng = random.Random(config.seed)
    rows, scale = _payoff_table(rule)
    roots = [
        v
        for size in range(2, rule.n + 1)
        for support in combinations(range(rule.n), size)
        for v in _symmetric_support_candidates(
            rule, support, rows, scale, _cell_starts(_unproved_cells(rule, support, rows, scale), rng)
        )
    ]

    floats = {c: tuple(x / scale for x in row) for c, row in rows.items()}
    # ``_gap_report``'s memo, shared by every candidate: ``exact`` and
    # ``roots`` keep the vectors whose ids key it alive.
    memo: dict = {}
    exact = _uniform_support_equilibria(rule, rows)
    verified: list[tuple[MixedProfile, NashGapReport]] = []
    for cand in exact:
        report = _gap_report(cand, rule.n, floats.__getitem__, memo)
        if report.is_eps_nash(config.eps):
            verified.append((MixedProfile(cand), report))
    # Distinct uniform-support profiles differ by 1/20 or more in some
    # entry, so only the roots are checked against what is kept, through
    # the float views ``_gap_report`` left in the memo.
    seen = [
        tuple(x for v in profile.vectors for x in _view(v, memo)[0])
        for profile, _ in (verified if roots else ())
    ]
    for v in sorted(roots):
        flat = v * rule.m
        if any(max(abs(a - b) for a, b in zip(flat, prev)) < _DEDUP for prev in seen):
            continue
        report = _gap_report((v,) * rule.m, rule.n, floats.__getitem__, memo)
        if report.is_eps_nash(config.eps):
            verified.append((symmetric_profile(v, rule.m), report))
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
