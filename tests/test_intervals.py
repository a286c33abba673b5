"""The integer Bernstein kernel against independent ``Fraction`` oracles.

``bernstein_reference_eval_box`` is the straightforward rational
evaluator: Taylor shift in exact ``Fraction`` arithmetic, the Bernstein
coefficients from their explicit sum, then one outward rounding of the
hull.  ``Poly2.eval_box`` must return the very same interval, bound for
bound, on every box a certificate examines and on arbitrary rational
boxes, whether its coefficients come from the monomial form or from the
de Casteljau split of a remembered parent; a fresh ``Poly2``, which
remembers nothing, must agree with one that has walked a bisection.
``_face_halves``, the same split on a simplex, must match
``reference_face_halves``, a triangle of its own over each fiber.
``reference_eval_box`` bounds the shifted monomials instead; the
Bernstein interval must always lie inside it, so no box the monomial
bounds prune can survive.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_prover import outward
import rps_forge.intervals as interval_module
from rps_forge.certify import infeasibility_certificate
from rps_forge.intervals import MEMO_DEPTHS, PRECISION_BITS, Interval, Poly2


def _taylor_shift(coeffs, a):
    """Coefficients of p(a + u) given those of p(r), by repeated
    synthetic division."""
    c = list(coeffs)
    d = len(c)
    if a != 0:
        for i in range(d - 1):
            for j in range(d - 2, i - 1, -1):
                c[j] += a * c[j + 1]
    return c


def _monomial_bounds(coeffs, width):
    """Range bounds of sum c_i u^i over u in [0, width]."""
    if not coeffs:
        return Fraction(0), Fraction(0)
    lo = hi = coeffs[0]
    wpow = Fraction(1)
    for c in coeffs[1:]:
        wpow *= width
        if c == 0:
            continue
        term = c * wpow
        if term > 0:
            hi += term
        else:
            lo += term
    return lo, hi


def _add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def reference_eval_box(poly, r, s, bits=PRECISION_BITS):
    """The hull of the exact monomial bounds at each s endpoint, rounded
    outward once."""
    shifted0 = _taylor_shift(poly.p0, r.lo)
    shifted1 = _taylor_shift(poly.p1, r.lo) if poly.p1 else []
    width = r.width()
    corners = (s.lo,) if (not shifted1 or s.lo == s.hi) else (s.lo, s.hi)
    lo = hi = None
    for sv in corners:
        coeffs = _add(shifted0, [sv * c for c in shifted1])
        clo, chi = _monomial_bounds(coeffs, width)
        lo = clo if lo is None else min(lo, clo)
        hi = chi if hi is None else max(hi, chi)
    return outward(lo, hi, bits)


def bernstein_reference_eval_box(poly, r, s, bits=PRECISION_BITS):
    """The hull of the exact degree-n Bernstein coefficients
    b_j = sum_{i<=j} C(j,i)/C(n,i) a_i at each s endpoint, with
    a_i = c_i W^i for the coefficients c_i shifted to r.lo and W the
    width of r, rounded outward once."""
    n = max(len(poly.p0), len(poly.p1)) - 1
    if n < 0:
        return Interval.point(0)
    shifted0 = _taylor_shift(poly.p0, r.lo)
    shifted1 = _taylor_shift(poly.p1, r.lo) if poly.p1 else []
    width = r.width()
    corners = (s.lo,) if (not shifted1 or s.lo == s.hi) else (s.lo, s.hi)
    lo = hi = None
    for sv in corners:
        coeffs = _add(shifted0, [sv * c for c in shifted1])
        coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
        a = [c * width**i for i, c in enumerate(coeffs)]
        b = [
            sum(Fraction(comb(j, i), comb(n, i)) * a[i] for i in range(j + 1))
            for j in range(n + 1)
        ]
        lo = min(b) if lo is None else min(lo, min(b))
        hi = max(b) if hi is None else max(hi, max(b))
    return outward(lo, hi, bits)


def _recorded_enclosures(monkeypatch, k, t):
    calls = []
    kernel = Poly2.eval_box

    def recording(poly, r, s, bits=PRECISION_BITS):
        enc = kernel(poly, r, s, bits)
        calls.append((poly, r, s, bits, enc))
        return enc

    monkeypatch.setattr(Poly2, "eval_box", recording)
    cert = infeasibility_certificate(k, t)
    monkeypatch.undo()
    return cert, calls


def _inside(inner, outer):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


@pytest.mark.parametrize("k, t", [(3, 2), (5, 0), (10, 5), (14, 7), (30, 5), (25, 23)])
def test_certificate_enclosures_match_reference(monkeypatch, k, t):
    cert, calls = _recorded_enclosures(monkeypatch, k, t)
    assert cert.proved_empty
    assert len(calls) >= cert.boxes
    for poly, r, s, bits, enc in calls:
        ref = bernstein_reference_eval_box(poly, r, s, bits)
        assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (poly, r, s)


@pytest.mark.parametrize("k, t", [(3, 2), (10, 5), (12, 6), (14, 7)])
def test_certificate_enclosures_inside_monomial_bounds(monkeypatch, k, t):
    cert, calls = _recorded_enclosures(monkeypatch, k, t)
    assert cert.proved_empty
    for poly, r, s, bits, enc in calls:
        assert _inside(enc, reference_eval_box(poly, r, s, bits)), (poly, r, s)


@pytest.mark.parametrize("k, t", [(3, 2), (10, 5), (12, 6)])
def test_monomial_bounds_never_need_fewer_boxes(monkeypatch, k, t):
    bernstein = infeasibility_certificate(k, t)
    monkeypatch.setattr(Poly2, "eval_box", reference_eval_box)
    monomial = infeasibility_certificate(k, t)
    assert monomial.verdict is bernstein.verdict
    assert monomial.boxes >= bernstein.boxes


rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**6)
coefficient_lists = st.lists(rationals, max_size=9)


@st.composite
def intervals(draw):
    lo = draw(rationals)
    if draw(st.booleans()):
        return Interval(lo, lo)
    return Interval(lo, lo + abs(draw(rationals)))


@settings(max_examples=200, deadline=None)
@given(
    p0=coefficient_lists,
    p1=coefficient_lists,
    r=intervals(),
    s=intervals(),
    bits=st.sampled_from([0, 7, 64, PRECISION_BITS]),
)
def test_random_boxes_match_reference(p0, p1, r, s, bits):
    poly = Poly2(p0, p1)
    enc = poly.eval_box(r, s, bits)
    ref = bernstein_reference_eval_box(poly, r, s, bits)
    assert (enc.lo, enc.hi) == (ref.lo, ref.hi)
    assert _inside(enc, reference_eval_box(poly, r, s, bits))


def _same_as_fresh_and_reference(poly, r, s, bits=PRECISION_BITS):
    enc = poly.eval_box(r, s, bits)
    fresh = Poly2(poly.p0, poly.p1).eval_box(r, s, bits)
    ref = bernstein_reference_eval_box(poly, r, s, bits)
    assert (enc.lo, enc.hi) == (fresh.lo, fresh.hi) == (ref.lo, ref.hi), (poly, r, s)


@settings(max_examples=80, deadline=None)
@given(p0=coefficient_lists, p1=coefficient_lists, s=intervals(), data=st.data())
def test_bisection_walk_matches_fresh_polynomial_and_reference(p0, p1, s, data):
    # a depth-first bisection of [0, 1] that enters the halves of the
    # intervals it keeps in either order, skips some intervals (as when
    # an earlier constraint prunes them) and meets point and non-dyadic
    # intervals on the way
    poly = Poly2(p0, p1)
    stack = [(Interval(Fraction(0), Fraction(1)), 0)]
    visits = 0
    while stack and visits < 40:
        r, depth = stack.pop()
        visits += 1
        if data.draw(st.integers(0, 4)):
            _same_as_fresh_and_reference(poly, r, s)
        stray = data.draw(st.sampled_from(["none", "point", "third", "any"]))
        if stray == "point":
            _same_as_fresh_and_reference(poly, Interval.point(r.midpoint()), s)
        elif stray == "third":
            _same_as_fresh_and_reference(poly, Interval(r.lo, r.lo + r.width() / 3), s)
        elif stray == "any":
            _same_as_fresh_and_reference(poly, data.draw(intervals()), s)
        if depth < 6 and data.draw(st.booleans()):
            halves = list(r.halves())
            if data.draw(st.booleans()):
                halves.reverse()
            stack.extend((half, depth + 1) for half in halves)


def test_memo_holds_at_most_memo_depths_entries():
    # one path below MEMO_DEPTHS, each split keeping the half not taken
    poly = Poly2([Fraction(1, 3), -2, 0, Fraction(7, 5), 1], [-1, Fraction(3, 2)])
    s = Interval(Fraction(1, 7), Fraction(3, 5))
    r = Interval(Fraction(0), Fraction(1))
    for depth in range(MEMO_DEPTHS + 4):
        _same_as_fresh_and_reference(poly, r, s)
        assert len(poly._memo) <= MEMO_DEPTHS
        r = r.halves()[depth % 2]
    assert len(poly._memo) == MEMO_DEPTHS


@pytest.mark.parametrize("k, t", [(14, 7), (30, 5)])
def test_certificate_converts_from_monomials_only_at_the_root(monkeypatch, k, t):
    # every later interval is a half of one the same constraint enclosed
    # before, so its coefficients come from the split
    tried, routes = [], []
    kernel, taylor = Poly2.eval_box, interval_module._bernstein_form

    def recording(poly, r, s, bits=PRECISION_BITS):
        tried.append(poly)
        return kernel(poly, r, s, bits)

    def counting(num0, num1, q, a, w, d):
        routes.append((a, w, d))
        return taylor(num0, num1, q, a, w, d)

    monkeypatch.setattr(Poly2, "eval_box", recording)
    monkeypatch.setattr(interval_module, "_bernstein_form", counting)
    cert = infeasibility_certificate(k, t)
    assert cert.proved_empty and cert.deepest >= 6
    assert routes == [(0, 1, 1)] * len({id(poly) for poly in tried})
    assert len(tried) > 3 * len(routes)


EDGE_R = Interval(Fraction(-2, 3), Fraction(5, 4))
EDGE_S = Interval(Fraction(1, 7), Fraction(3, 5))
EDGE_POLY = Poly2(
    [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 5)],
    [Fraction(-1), Fraction(3, 2)],
)
POINT_R = Interval.point(Fraction(3, 8))
POINT_S = Interval.point(Fraction(2, 9))
BITS = PRECISION_BITS


@pytest.mark.parametrize(
    "poly, r, s, bits",
    [
        pytest.param(Poly2([Fraction(-5, 3)]), EDGE_R, EDGE_S, BITS, id="constant"),
        pytest.param(EDGE_POLY, POINT_R, EDGE_S, BITS, id="point-r"),
        pytest.param(Poly2(EDGE_POLY.p0), EDGE_R, EDGE_S, BITS, id="empty-p1"),
        pytest.param(EDGE_POLY, EDGE_R, POINT_S, BITS, id="point-s"),
        pytest.param(EDGE_POLY, EDGE_R, EDGE_S, 0, id="bits-0"),
    ],
)
def test_edge_cases_match_reference(poly, r, s, bits):
    enc = poly.eval_box(r, s, bits)
    ref = bernstein_reference_eval_box(poly, r, s, bits)
    assert (enc.lo, enc.hi) == (ref.lo, ref.hi)
    assert _inside(enc, reference_eval_box(poly, r, s, bits))
    corner = poly.eval_exact(r.lo, s.lo)
    assert enc.lo <= corner <= enc.hi


def test_point_box_rounds_the_exact_value():
    value = EDGE_POLY.eval_exact(POINT_R.lo, POINT_S.lo)
    enc = EDGE_POLY.eval_box(POINT_R, POINT_S)
    assert enc == outward(value, value)


def test_zero_polynomial_encloses_zero_only():
    box = Interval(Fraction(-1, 3), Fraction(2, 7))
    assert Poly2().eval_box(box, box) == Interval.point(0)
    assert reference_eval_box(Poly2(), box, box) == Interval.point(0)
    assert bernstein_reference_eval_box(Poly2(), box, box) == Interval.point(0)


@pytest.mark.parametrize(
    "poly, want, factor",
    [
        # the denominator and the content are taken over both parts
        (Poly2([2, 4], [Fraction(1, 3)]), ([6, 12], [1]), Fraction(3)),
        (Poly2([6], [Fraction(-9, 2)]), ([4], [-3]), Fraction(2, 3)),
        (Poly2([Fraction(-4, 3), 0, Fraction(8, 9)]), ([-3, 0, 2], []), Fraction(9, 4)),
        (Poly2(), ([], []), Fraction(1)),
    ],
)
def test_integer_normalization(poly, want, factor):
    got, scale = poly.integer_normalization()
    assert (got.p0, got.p1) == want and scale == factor
    assert all(type(c) is int for c in (*got.p0, *got.p1))


def reference_face_halves(coeffs, i, j, degree):
    """The edge halving of a Bernstein form on a simplex, with a de
    Casteljau triangle of its own over each fiber: row t of pairwise sums
    is 2^t times de Casteljau's, and the ends of row t are shifted by
    degree - t onto the common 2^degree."""
    first, second = {}, {}
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


def _multi_indices(size, degree):
    if size == 1:
        return [(degree,)]
    return [(h,) + rest for h in range(degree + 1) for rest in _multi_indices(size - 1, degree - h)]


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_face_halves_match_the_fiber_triangle(size):
    rng = random.Random(size)
    for degree in range(1, 9):
        components = rng.randint(1, 4)
        coeffs = {
            a: tuple(rng.randint(-(10**6), 10**6) for _ in range(components))
            for a in _multi_indices(size, degree)
        }
        for i, j in permutations(range(size), 2):
            want = reference_face_halves(coeffs, i, j, degree)
            assert interval_module._face_halves(coeffs, i, j, degree) == want, (degree, i, j)


@pytest.mark.parametrize("degree", range(1, 9))
def test_face_halves_on_one_edge_are_the_interval_halves(degree):
    # every fiber of a two-vertex face is the whole form, so top = degree
    # and the shift degree - top is 0
    rng = random.Random(degree)
    coeffs = {(degree - t, t): (rng.randint(-99, 99), rng.randint(-99, 99)) for t in range(degree + 1)}
    for i, j in ((0, 1), (1, 0)):
        fiber = [(degree - t, t)[:: 1 if i == 0 else -1] for t in range(degree + 1)]
        halves = [interval_module._halves([coeffs[a][c] for a in fiber]) for c in range(2)]
        first, second = interval_module._face_halves(coeffs, i, j, degree)
        for t, a in enumerate(fiber):
            assert first[a] == tuple(left[t] for left, _ in halves)
            assert second[a] == tuple(right[t] for _, right in halves)
