"""Growth classification of filtration dimension sequences.

Polynomial growth is detected by exact finite differences on a trailing
window (the closed dimension formulas are eventually exactly polynomial,
so no fitting tolerance is needed).  Logarithmic growth is the exact
pattern of unit increments at the powers of the field characteristic; given
p, it is tested first, since a window between two powers of p is flat.
Exponential growth of exponent e is detected by two probes: a near-linear
fit of log(dim) against d^e, and (given p) a geometric resampling at
d = p^r fitting log_p(dim) against r^e.  Their residual gates, 0.05 *
max(1, spread) and 0.35, are the classifier's only tolerance, so an
exponential verdict's evidence holds its fit, the gate it passed and
margin = gate - max_residual.
"""

from __future__ import annotations

import math


class GrowthReport:
    """Classification verdict with the evidence that produced it."""

    def __init__(self, kind: str, parameter=None, evidence=None):
        self.kind = kind            # polynomial | logarithmic | exponential | inconclusive
        self.parameter = parameter  # degree or rate exponent
        self.evidence = evidence or {}

    def __repr__(self):
        if self.parameter is not None:
            return f"{self.kind}({self.parameter})"
        return self.kind

    def __eq__(self, other):
        return (isinstance(other, GrowthReport)
                and (self.kind, self.parameter) == (other.kind, other.parameter))


def classify(seq, p: int | None = None, start: int = 0,
             burn_in: int | None = None) -> GrowthReport:
    """Classify a non-decreasing dimension sequence seq[i] = dim at d = start + i."""
    seq = [int(x) for x in seq]
    if len(seq) < 6:
        raise ValueError("sequence too short to classify (need length >= 6)")
    if any(b < a for a, b in zip(seq, seq[1:])):
        raise ValueError("dimension sequences must be non-decreasing")
    if burn_in is None:
        burn_in = math.ceil(len(seq) / 3)
    # the exact logarithmic pattern first: its trailing window can be flat
    # between two powers of p, which the polynomial probe reads as degree 0
    log = None if p is None else _logarithmic_probe(seq, p, start)
    if log is not None:
        return log
    poly = _polynomial_probe(seq, burn_in)
    if poly is not None:
        return poly
    exp = _exponential_probe(seq, p, start)
    if exp is not None:
        return exp
    return GrowthReport("inconclusive", evidence={"window": seq[burn_in:]})


def _polynomial_probe(seq, burn_in):
    window = seq[burn_in:]
    diffs = list(window)
    for m in range(len(window) - 1):
        if len(diffs) >= 2 and len(set(diffs)) == 1:
            if diffs[0] == 0 and m > 0:
                return None  # ran into an all-zero difference without a level
            degree = m if diffs[0] != 0 else 0
            return GrowthReport("polynomial", degree,
                                {"window": window, "constant_difference": diffs[0],
                                 "order": m})
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return None


def _logarithmic_probe(seq, p, start):
    # unit steps (up to an overall integer scale) exactly at the powers of p
    increments = {start + i: seq[i] - seq[i - 1] for i in range(1, len(seq))}
    powers = set()
    q = p
    while q <= start + len(seq) - 1:
        powers.add(q)
        q *= p
    steps = {inc for inc in increments.values() if inc}
    if len(steps) != 1:
        return None
    step = steps.pop()
    hits = 0
    for d, inc in increments.items():
        if d in powers:
            if inc != step:
                return None
            hits += 1
        elif inc != 0 and d != 1:
            return None
    if hits < 2:
        return None
    return GrowthReport("logarithmic",
                        evidence={"increment_positions": sorted(powers),
                                  "step": step})


def _exponential_probe(seq, p, start):
    # probe A: log(dim) nearly linear in d^e over the positive tail
    for e in (1, 2, 3):
        fit = _linear_fit([(start + i) ** e for i in range(len(seq)) if seq[i] > 0],
                          [math.log(x) for x in seq if x > 0])
        if fit is None or fit["slope"] <= 0:
            continue
        gate = 0.05 * max(1.0, fit["spread"])
        if fit["max_residual"] < gate:
            return GrowthReport("exponential", e,
                                {"probe": "direct", "fit": fit, "gate": gate,
                                 "margin": gate - fit["max_residual"]})
    # probe B: resample at d = p^r and fit log_p(dim) against r^e
    if p is None:
        return None
    samples = []
    r, q = 0, 1
    while q <= start + len(seq) - 1:
        if q >= start and seq[q - start] > 0:
            samples.append((r, math.log(seq[q - start], p)))
        r += 1
        q *= p
    if len(samples) < 4:
        return None
    gate = 0.35
    for e in (1, 2, 3):
        # drop the earliest sample as burn-in; slope should be near 1
        pts = samples[1:]
        fit = _linear_fit([r ** e for r, _ in pts], [y for _, y in pts])
        if fit is not None and 0.8 <= fit["slope"] <= 1.25 and \
                fit["max_residual"] < gate:
            return GrowthReport("exponential", e,
                                {"probe": "geometric", "fit": fit, "gate": gate,
                                 "margin": gate - fit["max_residual"],
                                 "samples": samples})
    return None


def _linear_fit(xs, ys):
    n = len(xs)
    if n < 3 or len(set(xs)) < 2:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    return {"slope": slope, "intercept": intercept,
            "max_residual": max(abs(r) for r in residuals),
            "spread": max(ys) - min(ys)}


def equal_growth(a, b, tolerance: float = 0.10) -> dict:
    """Window-based comparison of lim a_d / b_d over the trailing third."""
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if len(a) < 6:
        raise ValueError("sequences too short to compare (need length >= 6)")
    window = range(len(a) - max(2, len(a) // 3), len(a))
    if any(b[i] == 0 for i in window):
        raise ZeroDivisionError("zero entries in the comparison window")
    ratios = [a[i] / b[i] for i in window]
    mean = sum(ratios) / len(ratios)
    spread_ok = all(abs(r - mean) <= tolerance * abs(mean) for r in ratios)
    return {"verdict": "equal" if spread_ok else "not equal",
            "ratio": mean, "window_ratios": ratios, "window_based": True}
