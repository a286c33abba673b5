"""Certified infeasibility of the one-candidate equilibrium conditions.

If a (k + t + 1)-player instance of the imbalanced three-object game had
an equilibrium in which a single candidate ever plays S, the scenario
probabilities (r, s) would have to satisfy a small polynomial system:
the mixers indifferent between R and P and weakly preferring them to S,
the candidate indifferent between S and P, and (when t > 0) the
committed players weakly preferring P.  Every condition is linear in s,
c0(r) + s*c1(r), and the mixer equality a0(r) + s*a1(r) = 0 fixes s
wherever a1(r) is not zero.  ``eliminated_system`` uses it to remove s:
each other condition with an s term becomes a1*(c0*a1 - c1*a0), which
equals a1^2 times the condition wherever the mixer equality holds, so it
must vanish (or be nonnegative) at every solution, whatever r and s are.
``infeasibility_certificate`` proves, by bisecting r over exact
polynomial enclosures, that these conditions in r alone have no common
solution in [0, 1]: an r-interval is discarded only when an equality's
enclosure excludes zero or a required inequality's enclosure is entirely
negative, so an all-pruned run is a machine-checkable proof that no
(r, s) with r in [0, 1], for any real s, satisfies the system.
"""

from __future__ import annotations

import contextlib
import enum
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import GameError, GameRule, eval_outcome
from .equilibrium import MixedProfile, _check_shape, choice_count_distribution
from .formulas import COMMITTED_ROLES, Role, ScenarioError, payoff_poly
from .intervals import Interval, Poly2, poly_mul, poly_sub

DEFAULT_DELTA = Fraction(1, 10**6)
MAX_DEPTH_LIMIT = 60
# A certificate run gives up, UNDECIDED, after _MAX_BOXES r-intervals or
# once _UNDECIDED_CAP of them survive at the depth limit; it keeps that
# many surviving intervals as its sample.
_MAX_BOXES = 2_000_000
_UNDECIDED_CAP = 64


@dataclass(frozen=True)
class Constraint:
    """One polynomial condition on (r, s).

    ``kind`` is "eq" (must vanish) or "ge" (must be nonnegative).  In
    ``constraint_system`` the polynomial equals ``scale``, a positive
    rational, times the payoff difference it encodes, so zero sets and
    signs are preserved.  A condition ``eliminated_system`` has rid of s
    equals ``scale`` * a1^2 times its ``constraint_system`` polynomial
    wherever the mixer equality holds.
    """

    name: str
    kind: str
    poly: Poly2
    scale: Fraction

    def pruned_on(self, box_r: Interval) -> bool:
        """Whether the condition fails on all of ``box_r``; the polynomial
        must be free of s, so the s argument of the enclosure is moot."""
        enc = self.poly.eval_box(box_r, Interval.point(0))
        if self.kind == "eq":
            return not enc.contains_zero()
        return enc.entirely_negative()


def constraint_system(k: int, t: int) -> list[Constraint]:
    """The equilibrium conditions as polynomials in (r, s).

    Each is the difference ``payoff_poly(better) - payoff_poly(worse)`` of
    two closed-form payoffs, taken on their integer forms over a common
    denominator and scaled to integer coefficients with content 1
    (``Poly2.normalized_difference``).  Equalities are listed first: they
    prune fastest.
    """
    conditions = [
        ("mixer_indifferent_R_P", "eq", Role.MIXER_P, Role.MIXER_R),
        ("candidate_indifferent_S_P", "eq", Role.CANDIDATE_S, Role.CANDIDATE_P),
        ("mixer_prefers_P_over_S", "ge", Role.MIXER_P, Role.MIXER_S),
    ]
    if t > 0:
        conditions += [
            ("committed_prefers_P_over_R", "ge", Role.COMMITTED_P, Role.COMMITTED_R),
            ("committed_prefers_P_over_S", "ge", Role.COMMITTED_P, Role.COMMITTED_S),
        ]
    payoff = {
        role: payoff_poly(role, k, t) for role in Role if t > 0 or role not in COMMITTED_ROLES
    }
    constraints = []
    for name, kind, better, worse in conditions:
        poly, scale = payoff[better].normalized_difference(payoff[worse])
        constraints.append(Constraint(name=name, kind=kind, poly=poly, scale=scale))
    return constraints


def eliminated_system(k: int, t: int) -> list[Constraint]:
    """The conditions of ``constraint_system`` in r alone.

    The mixer equality a0 + s*a1 = 0 is used up: each later condition
    c0 + s*c1 with an s term becomes a1*(c0*a1 - c1*a0), integer-normalized,
    which equals a1^2*(c0 + s*c1) wherever the equality holds (s*a1 = -a0
    there).  So at every solution it vanishes where the condition is an
    equality and is nonnegative where it is an inequality, with no division
    by a1 and no case on its sign.  Conditions free of s stay as they are.
    Names, kinds and order are kept.
    """
    mixer, *rest = constraint_system(k, t)
    a0, a1 = mixer.poly.p0, mixer.poly.p1
    eliminated = []
    for c in rest:
        if not c.poly.p1:
            eliminated.append(c)
            continue
        h = poly_sub(poly_mul(c.poly.p0, a1), poly_mul(c.poly.p1, a0))
        poly, scale = Poly2(poly_mul(a1, h)).integer_normalization()
        eliminated.append(Constraint(name=c.name, kind=c.kind, poly=poly, scale=scale))
    return eliminated


class Verdict(enum.Enum):
    PROVED_EMPTY = "proved_empty"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Outcome of one branch-and-prune run for a (k, t) pair.

    PROVED_EMPTY means every r-interval of [0, 1] was pruned by a violated
    constraint enclosure; UNDECIDED reports surviving intervals (depth or
    budget exhaustion) and is never wrong, only inconclusive.  ``boxes``
    counts the r-intervals examined, ``deepest`` their greatest bisection
    depth, and ``pruned`` the intervals each constraint discarded, keyed
    in the order the constraints are tried.  ``delta`` is the margin the
    caller asked for; the proved region, r in [0, 1] for every s,
    contains [delta, 1-delta]^2.
    """

    k: int
    t: int
    verdict: Verdict
    delta: Fraction
    boxes: int
    pruned: dict[str, int]
    deepest: int
    depth_limit: int
    millis: float
    undecided_count: int
    undecided_sample: tuple[Interval, ...]
    note: str

    @property
    def proved_empty(self) -> bool:
        return self.verdict is Verdict.PROVED_EMPTY

    def to_record(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "verdict": self.verdict.value,
            "delta": decimal_string(self.delta),
            "boxes": self.boxes,
            "depth": self.deepest,
            "millis": round(self.millis, 3),
        }


def decimal_string(x: Fraction) -> str:
    """Exact decimal form when the denominator is 2^a 5^b, else 'p/q'."""
    num, den = x.numerator, x.denominator
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    scaled = abs(num) * 10**shift // den
    sign = "-" if num < 0 else ""
    digits = str(scaled).rjust(shift + 1, "0")
    if shift == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def _admissible_delta(delta: Fraction | float, max_depth: int) -> Fraction:
    """``delta`` as a Fraction, once it and ``max_depth`` are checked to be
    admissible for a certificate."""
    delta = Fraction(delta)
    if not 0 < delta <= Fraction(1, 100):
        raise ScenarioError(f"delta must lie in (0, 0.01], got {delta}")
    if not 1 <= max_depth <= MAX_DEPTH_LIMIT:
        raise ScenarioError(f"max_depth must lie in 1..{MAX_DEPTH_LIMIT}")
    return delta


def infeasibility_certificate(
    k: int,
    t: int,
    delta: Fraction | float = DEFAULT_DELTA,
    max_depth: int = 40,
) -> InfeasibilityCertificate:
    """Prove (or fail to prove) that the scenario system has no solution
    with r in [0, 1], for any s.

    Bisects r from the exact root [0, 1] and tries the conditions of
    ``eliminated_system`` on each interval in order.  That region
    contains [delta, 1-delta]^2 for every admissible ``delta``, which is
    validated and recorded.  A depth or box-budget exhaustion yields
    UNDECIDED, never a false PROVED_EMPTY.
    """
    delta = _admissible_delta(delta, max_depth)
    constraints = eliminated_system(k, t)

    start = time.perf_counter()
    stack: list[tuple[Interval, int]] = [(Interval(Fraction(0), Fraction(1)), 0)]
    boxes = 0
    deepest = 0
    pruned: dict[str, int] = {c.name: 0 for c in constraints}
    undecided: list[Interval] = []
    undecided_count = 0
    note = ""

    while stack:
        box, depth = stack.pop()
        boxes += 1
        deepest = max(deepest, depth)
        if boxes > _MAX_BOXES:
            note = f"box budget {_MAX_BOXES} exhausted"
            undecided_count += 1 + len(stack)
            if len(undecided) < _UNDECIDED_CAP:
                undecided.append(box)
            break
        hit = next((c.name for c in constraints if c.pruned_on(box)), None)
        if hit is not None:
            pruned[hit] += 1
            continue
        if depth >= max_depth:
            undecided_count += 1
            if len(undecided) < _UNDECIDED_CAP:
                undecided.append(box)
            if undecided_count >= _UNDECIDED_CAP:
                note = note or f"stopped after {_UNDECIDED_CAP} surviving boxes"
                undecided_count += len(stack)
                break
            continue
        stack.extend((half, depth + 1) for half in box.halves())

    millis = (time.perf_counter() - start) * 1000.0
    verdict = Verdict.PROVED_EMPTY if undecided_count == 0 else Verdict.UNDECIDED
    return InfeasibilityCertificate(
        k=k,
        t=t,
        verdict=verdict,
        delta=delta,
        boxes=boxes,
        pruned=pruned,
        deepest=deepest,
        depth_limit=max_depth,
        millis=millis,
        undecided_count=undecided_count,
        undecided_sample=tuple(undecided),
        note=note,
    )


@dataclass(frozen=True)
class SweepReport:
    """Certificate records (``to_record`` dicts) over a (k, t) rectangle,
    in (k, t) order; ``skipped`` lists the requested pairs the budget left
    unrun: those without a record, and held ``undecided`` ones."""

    k_max: int
    t_max: int
    delta: Fraction
    records: tuple[dict, ...]
    incomplete: bool
    skipped: tuple[tuple[int, int], ...]

    @property
    def all_proved(self) -> bool:
        return not self.incomplete and all(
            r["verdict"] == Verdict.PROVED_EMPTY.value for r in self.records
        )


def _certificate_worker(args: tuple) -> dict:
    k, t, delta, max_depth = args
    return infeasibility_certificate(k, t, delta=delta, max_depth=max_depth).to_record()


def _read_stream(path: str, delta: str) -> dict[tuple[int, int], dict]:
    """The records of an existing sweep stream, keyed by (k, t)."""
    import json

    verdicts = {v.value for v in Verdict}
    done: dict[tuple[int, int], dict] = {}
    try:
        fh = open(path, "rb")  # bytes, so a line that is not UTF-8 is malformed
    except FileNotFoundError:
        return done
    with fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line.decode("utf-8"))
                key = (rec["k"], rec["t"])
                ok = all(type(x) is int for x in key) and rec["verdict"] in verdicts
                found = rec["delta"]
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                raise ScenarioError(f"{path}:{lineno}: malformed sweep record")
            if found != delta:
                raise ScenarioError(
                    f"{path}:{lineno}: record has delta {found}, "
                    f"the sweep asks for {delta}"
                )
            done[key] = rec
    return done


def sweep(
    k_max: int,
    t_max: int,
    delta: Fraction | float = DEFAULT_DELTA,
    max_depth: int = 40,
    budget_seconds: float = 600.0,
    jobs: int = 1,
    stream: str | None = None,
) -> SweepReport:
    """Run certificates for every 1 <= k <= k_max, 0 <= t <= t_max.

    Pairs are independent; with ``jobs`` > 1 they run in a process pool.
    The wall-clock budget is checked after each finished pair; once it
    runs out, the report is flagged incomplete and lists the skipped
    pairs.  With ``stream``, each finished record is appended to that
    file as one JSON line and flushed.  If the file already exists, its
    records enter the report, the last line for a pair winning.  Pairs it
    holds as ``proved_empty`` are not run again, so rerunning an
    interrupted sweep resumes it; pairs it holds as ``undecided`` are
    run again at ``max_depth`` and the new record is appended.  Records
    for pairs outside the rectangle stay in the file and out of the
    report.
    """
    if k_max < 1 or t_max < 0:
        raise ScenarioError("need k_max >= 1 and t_max >= 0")
    if jobs < 1:
        raise ScenarioError(f"jobs must be >= 1, got {jobs}")
    if not 0 <= budget_seconds < float("inf"):  # a NaN budget never runs out
        raise ScenarioError(f"budget_seconds must be nonnegative and finite, got {budget_seconds}")
    delta = _admissible_delta(delta, max_depth)  # before the stream is read or opened
    pairs = [(k, t) for k in range(1, k_max + 1) for t in range(0, t_max + 1)]
    done = _read_stream(stream, decimal_string(delta)) if stream else {}
    proved = Verdict.PROVED_EMPTY.value
    pending = {p for p in pairs if p not in done or done[p]["verdict"] != proved}
    todo = [(k, t, delta, max_depth) for k, t in pairs if (k, t) in pending]
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if stream:
            import json

            sink = stack.enter_context(open(stream, "a"))
        if jobs > 1:
            import multiprocessing as mp

            pool = stack.enter_context(mp.Pool(processes=jobs))
            results = pool.imap_unordered(_certificate_worker, todo)
        else:
            results = map(_certificate_worker, todo)
        for rec in results:
            key = (rec["k"], rec["t"])
            done[key] = rec
            pending.discard(key)
            if stream:
                sink.write(json.dumps(rec) + "\n")
                sink.flush()
            if time.perf_counter() - start > budget_seconds:
                break

    skipped = tuple(p for p in pairs if p in pending)
    return SweepReport(
        k_max=k_max,
        t_max=t_max,
        delta=delta,
        records=tuple(done[p] for p in pairs if p in done),
        incomplete=bool(skipped),
        skipped=skipped,
    )


@dataclass(frozen=True)
class PlayerRatioReport:
    """Per-player conjecture evidence for the iterated game.

    ``ratio`` is the player's total P-type probability over their S
    probability (None when S is never played: vacuous).  ``tie_probe``
    is informational only: the expected number of other players tying
    with this player, conditioned on the player picking the deepest
    P-type object and winning.
    """

    player: int
    p_type_prob: float
    s_prob: float
    ratio: float | None
    satisfied: bool | None
    vacuous: bool
    tie_probe: float | None


def ptype_to_s_ratio_check(rule: GameRule, profile: MixedProfile) -> list[PlayerRatioReport]:
    """Check P-type versus S play proportions in an equilibrium profile.

    For each player the ratio of total P-type probability to S
    probability is compared against m - 1, with m the game's player
    count; players who never play S are reported vacuous rather than
    passing or failing.
    """
    if rule.levels is None:
        raise GameError("rule carries no level metadata")
    _check_shape(rule, profile)
    p_type = [i for i, lab in enumerate(rule.labels) if lab.startswith("P")]
    s_idx = rule.index_of("S")
    deepest_level = max(rule.levels[i] for i in p_type)
    deep_p = next(
        i for i in p_type if rule.levels[i] == deepest_level
    )

    reports = []
    for i, v in enumerate(profile.vectors):
        tp = float(sum(v[j] for j in p_type))
        ps = float(v[s_idx])
        others = [w for j, w in enumerate(profile.vectors) if j != i]
        num = 0.0
        den = 0.0
        for counts, pr in choice_count_distribution(others, rule.n).items():
            combined = list(counts)
            combined[deep_p] += 1
            out = eval_outcome(rule, combined)
            if out.winner == deep_p:
                den += float(pr)
                num += float(pr) * (out.winner_count - 1)
        probe = (num / den) if den > 0 else None
        ratio = None if ps <= 0.0 else tp / ps
        reports.append(
            PlayerRatioReport(
                player=i, p_type_prob=tp, s_prob=ps, ratio=ratio,
                satisfied=None if ratio is None else ratio >= (rule.m - 1) - 1e-12,
                vacuous=ratio is None, tie_probe=probe,
            )
        )
    return reports
