"""Property tests of the growth classifier on synthetic families: polynomial
c C(d+k, k) plus lower terms, logarithmic c (floor(log_p d) + 1) and
exponential c b^d.  Each family is drawn where the classifier's trailing
window can see its shape; the residual gates (0.05, 0.35) are the
classifier's own.  Every exponential verdict, of the direct probe on c b^d
or of the geometric probe on blockwise-constant c p^(floor(log_p d) + k),
must record the gate it passed and a positive margin.

Skipped where hypothesis is not installed; CI installs it.
"""

import math
from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from comodfilt.growth import GrowthReport, classify  # noqa: E402


family_settings = settings(derandomize=True, max_examples=60, deadline=None)


def log_floor(p, d):
    r = 0
    while p ** (r + 1) <= d:
        r += 1
    return r


def shortest_polynomial_length(k):
    """The least length n >= 6 whose trailing window, n - ceil(n/3) values,
    holds the k + 2 values that show a constant k-th difference twice."""
    n = 6
    while n - math.ceil(n / 3) < k + 2:
        n += 1
    return n


@st.composite
def polynomial_families(draw):
    """(k, c C(d+k, k) + sum_{i<k} a_i C(d+i, i) for d < n), a_i >= 0."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(shortest_polynomial_length(k), 24))
    c = draw(st.integers(1, 50))
    lower = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k))
    return k, [c * comb(d + k, k) + sum(a * comb(d + i, i) for i, a in enumerate(lower))
               for d in range(n)]


@family_settings
@given(polynomial_families(), st.sampled_from([None, 2, 3, 5]))
def test_polynomial_families_are_polynomial_of_their_degree(family, p):
    k, seq = family
    assert classify(seq, p=p) == GrowthReport("polynomial", k)


@st.composite
def logarithmic_families(draw):
    """(p, c (floor(log_p d) + 1) for d = 1..n), with p^r <= n < p^(r+1) and
    r >= 2.  The trailing window past the first ceil(n/3) values may be flat
    (for n >= 3 (p^r - 1)): the exact pattern at the powers of p decides."""
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(2, {2: 5, 3: 3, 5: 2}[p]))
    n = draw(st.integers(max(p ** r, 6), p ** (r + 1) - 1))
    c = draw(st.integers(1, 50))
    return p, [c * (log_floor(p, d) + 1) for d in range(1, n + 1)]


@family_settings
@given(logarithmic_families())
def test_logarithmic_families_are_logarithmic(family):
    p, seq = family
    assert classify(seq, p=p, start=1) == GrowthReport("logarithmic")


@family_settings
@given(st.integers(2, 10), st.integers(1, 1000), st.integers(6, 30),
       st.sampled_from([None, 2, 3, 5]))
def test_exponential_families_are_exponential_of_rate_one(b, c, n, p):
    assert classify([c * b ** d for d in range(n)], p=p) == GrowthReport("exponential", 1)


@st.composite
def blockwise_families(draw):
    """(c p^(floor(log_p max(d, 1)) + k) for d < n, p): constant between two
    powers of p, so only the geometric probe can read it as exponential."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(6, 90))
    c, k = draw(st.integers(1, 50)), draw(st.integers(0, 2))
    return [c * p ** (log_floor(p, max(d, 1)) + k) for d in range(n)], p


@st.composite
def power_families(draw):
    """(c b^d for d < n, p or None), read by the direct probe."""
    b, c, n = draw(st.integers(2, 10)), draw(st.integers(1, 1000)), draw(st.integers(6, 30))
    return [c * b ** d for d in range(n)], draw(st.sampled_from([None, 2, 3, 5]))


@family_settings
@given(st.one_of(power_families(), blockwise_families()))
def test_every_exponential_verdict_records_its_gate_and_a_positive_margin(case):
    seq, p = case
    rep = classify(seq, p=p)
    if rep.kind != "exponential":
        return
    fit, probe = rep.evidence["fit"], rep.evidence["probe"]
    gate = {"direct": 0.05 * max(1.0, fit["spread"]), "geometric": 0.35}[probe]
    assert rep.evidence["gate"] == gate
    assert rep.evidence["margin"] == gate - fit["max_residual"] > 0
