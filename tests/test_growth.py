"""Growth classification of dimension sequences."""

from math import ceil, comb

import pytest

from comodfilt.growth import GrowthReport, classify, equal_growth


def log_floor(p, d):
    r = 0
    while p ** (r + 1) <= d:
        r += 1
    return r


def test_polynomial_sequences():
    for m in (1, 2, 3):
        seq = [comb(d + m, m) for d in range(12)]
        assert classify(seq) == GrowthReport("polynomial", m)
    assert classify([7] * 8) == GrowthReport("polynomial", 0)
    # eventually polynomial: an irregular head is burned in
    assert classify([1, 1, 5, 9, 11, 13, 15, 17, 19]) == GrowthReport("polynomial", 1)


def test_logarithmic_sequences():
    for p in (2, 3):
        seq = [log_floor(p, d) + 1 for d in range(1, p ** 4 + 1)]
        assert classify(seq, p=p, start=1) == GrowthReport("logarithmic")
        # invariant under scaling by a positive integer constant
        assert classify([5 * x for x in seq], p=p, start=1).kind == "logarithmic"
    # the same shape is not logarithmic without knowing p
    seq2 = [log_floor(2, d) + 1 for d in range(1, 33)]
    assert classify(seq2, start=1).kind != "logarithmic"


@pytest.mark.parametrize("p,n", [(3, 22), (5, 70), (5, 124)])
@pytest.mark.parametrize("c", [1, 7])
def test_logarithmic_sequences_with_a_flat_trailing_window(p, n, c):
    # d = p^r + 1 .. n carries no step, so the window past the first
    # ceil(n/3) values is constant: once read as polynomial(0)
    seq = [c * (log_floor(p, d) + 1) for d in range(1, n + 1)]
    assert len(set(seq[ceil(n / 3):])) == 1
    assert classify(seq, p=p, start=1) == GrowthReport("logarithmic")


def test_exponential_sequences():
    assert classify([2 ** d for d in range(12)], start=0) == \
        GrowthReport("exponential", 1)
    # blockwise-constant doubling (only the geometric probe can see this)
    seq = [0] + [2 ** (log_floor(2, d) + 2) - 2 for d in range(1, 17)]
    rep = classify(seq, p=2, start=0)
    assert rep == GrowthReport("exponential", 1)
    assert rep.evidence["probe"] == "geometric"


def test_classifier_input_validation():
    with pytest.raises(ValueError):
        classify([1, 2, 3])
    with pytest.raises(ValueError):
        classify([1, 2, 3, 2, 5, 6, 7])


def test_polynomial_beats_other_probes():
    # quadratic data with p given still reads as polynomial
    seq = [comb(d + 2, 2) for d in range(12)]
    assert classify(seq, p=2) == GrowthReport("polynomial", 2)


def test_explicit_burn_in_window():
    # a long constant head then linear growth: trailing window decides
    seq = [1] * 10 + list(range(1, 9))
    assert classify(seq, burn_in=10) == GrowthReport("polynomial", 1)


def test_equal_growth():
    a = [comb(d + 2, 2) for d in range(12)]
    b = [2 * x for x in a]
    rep = equal_growth(a, b)
    assert rep["verdict"] == "equal" and abs(rep["ratio"] - 0.5) < 1e-12
    c = [comb(d + 3, 3) for d in range(12)]
    assert equal_growth(a, c)["verdict"] == "not equal"
    with pytest.raises(ValueError):
        equal_growth(a, b[:-1])
    with pytest.raises(ZeroDivisionError):
        equal_growth(a, [0] * 12)
    with pytest.raises(ValueError):
        equal_growth(a[:4], b[:4])
