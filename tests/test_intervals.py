"""The integer enclosure kernel against an independent ``Fraction`` oracle.

``reference_eval_box`` is the straightforward rational evaluator: Taylor
shift and monomial bounds in exact ``Fraction`` arithmetic, then one
outward rounding of the hull.  ``Poly2.eval_box`` must return the very
same interval, bound for bound, on every box a certificate examines and
on arbitrary rational boxes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rps_forge.certify import infeasibility_certificate
from rps_forge.intervals import PRECISION_BITS, Interval, Poly2


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
    return Interval(lo, hi).outward(bits)


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


@pytest.mark.parametrize("k, t", [(3, 2), (5, 0), (10, 5)])
def test_certificate_enclosures_match_reference(monkeypatch, k, t):
    cert, calls = _recorded_enclosures(monkeypatch, k, t)
    assert cert.proved_empty
    assert len(calls) >= cert.boxes
    for poly, r, s, bits, enc in calls:
        ref = reference_eval_box(poly, r, s, bits)
        assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (poly, r, s)


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
    ref = reference_eval_box(poly, r, s, bits)
    assert (enc.lo, enc.hi) == (ref.lo, ref.hi)


def test_zero_polynomial_encloses_zero_only():
    box = Interval(Fraction(-1, 3), Fraction(2, 7))
    assert Poly2().eval_box(box, box) == Interval.point(0)
    assert reference_eval_box(Poly2(), box, box) == Interval.point(0)

