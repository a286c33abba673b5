"""The two-variable branch-and-prune prover, kept as a test reference.

``reference_certificate`` bisects (r, s) boxes of the square
[delta, 1-delta]^2, widened outward to dyadic endpoints, against the
conditions of ``constraint_system`` as they stand, with s still in them.
It shares the enclosure kernel with ``infeasibility_certificate`` but not
the elimination of s, so the two routes agreeing is a check on that
elimination.  It also takes a relaxed ``constraints`` list, which the
soundness tests use to show that a system with feasible points never
comes back ``proved_empty``.  ``grid_probe`` finds such points on a dense
grid, independently of any interval code.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, Sequence

from rps_forge.certify import (
    DEFAULT_DELTA,
    Constraint,
    InfeasibilityCertificate,
    Verdict,
    constraint_system,
)
from rps_forge.intervals import PRECISION_BITS, Interval


def floor_dyadic(x: Fraction, bits: int = PRECISION_BITS) -> Fraction:
    scaled = x.numerator * (1 << bits)
    return Fraction(scaled // x.denominator, 1 << bits)


def ceil_dyadic(x: Fraction, bits: int = PRECISION_BITS) -> Fraction:
    scaled = x.numerator * (1 << bits)
    return Fraction(-((-scaled) // x.denominator), 1 << bits)


def outward(lo: Fraction, hi: Fraction, bits: int = PRECISION_BITS) -> Interval:
    """[lo, hi] rounded outward onto the 2**-bits grid."""
    return Interval(floor_dyadic(lo, bits), ceil_dyadic(hi, bits))


def _pruned_on(c: Constraint, box_r: Interval, box_s: Interval, bits: int) -> bool:
    enc = c.poly.eval_box(box_r, box_s, bits)
    if c.kind == "eq":
        return not enc.contains_zero()
    return enc.entirely_negative()


def reference_certificate(
    k: int,
    t: int,
    delta: Fraction | float = DEFAULT_DELTA,
    max_depth: int = 40,
    constraints: Sequence[Constraint] | None = None,
    max_boxes: int = 2_000_000,
    undecided_cap: int = 64,
    bits: int = PRECISION_BITS,
) -> InfeasibilityCertificate:
    """Prove (or fail to prove) that ``constraints`` (the full system by
    default) have no common solution with r and s both in [delta, 1-delta].

    The starting square is widened outward to dyadic endpoints, so the
    proved region contains the requested one.  Subdivision bisects the
    wider dimension.  ``undecided_sample`` holds surviving (r, s) boxes.
    """
    delta = Fraction(delta)
    if constraints is None:
        constraints = constraint_system(k, t)

    start = time.perf_counter()
    lo = floor_dyadic(delta, bits)
    hi = ceil_dyadic(1 - delta, bits)
    stack = [((Interval(lo, hi), Interval(lo, hi)), 0)]
    boxes = 0
    deepest = 0
    pruned = {c.name: 0 for c in constraints}
    undecided = []
    undecided_count = 0
    note = ""

    while stack:
        (box_r, box_s), depth = stack.pop()
        boxes += 1
        deepest = max(deepest, depth)
        if boxes > max_boxes:
            note = f"box budget {max_boxes} exhausted"
            undecided_count += 1 + len(stack)
            if len(undecided) < undecided_cap:
                undecided.append((box_r, box_s))
            break
        hit = next((c.name for c in constraints if _pruned_on(c, box_r, box_s, bits)), None)
        if hit is not None:
            pruned[hit] += 1
            continue
        if depth >= max_depth:
            undecided_count += 1
            if len(undecided) < undecided_cap:
                undecided.append((box_r, box_s))
            if undecided_count >= undecided_cap:
                note = note or f"stopped after {undecided_cap} surviving boxes"
                undecided_count += len(stack)
                break
            continue
        if box_r.width() >= box_s.width():
            left, right = box_r.halves()
            stack.append(((left, box_s), depth + 1))
            stack.append(((right, box_s), depth + 1))
        else:
            left, right = box_s.halves()
            stack.append(((box_r, left), depth + 1))
            stack.append(((box_r, right), depth + 1))

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
        millis=(time.perf_counter() - start) * 1000.0,
        undecided_count=undecided_count,
        undecided_sample=tuple(undecided),
        note=note,
    )


def grid_probe(
    k: int,
    t: int,
    drop: Iterable[str] = (),
    steps: int = 80,
    slack: float = 1e-9,
) -> list[tuple[float, float]]:
    """Dense-grid audit: points of (0,1)^2 where every kept constraint is
    satisfied within ``slack`` (relative to its largest coefficient).

    Independent of the interval path; used to confirm that dropping a
    constraint reopens a feasible set and that the full system shows no
    near-feasible grid point.
    """
    kept = [c for c in constraint_system(k, t) if c.name not in set(drop)]
    scales = [max(abs(x) for x in (*c.poly.p0, *c.poly.p1)) for c in kept]
    found = []
    for i in range(1, steps):
        r = Fraction(i, steps)
        for j in range(1, steps):
            s = Fraction(j, steps)
            ok = True
            for c, sc in zip(kept, scales):
                v = c.poly.eval_exact(r, s) / sc
                if c.kind == "eq":
                    if abs(v) > slack:
                        ok = False
                        break
                elif v < -slack:
                    ok = False
                    break
            if ok:
                found.append((float(r), float(s)))
    return found
