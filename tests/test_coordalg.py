"""Coordinate Hopf algebras: normal forms, structure maps, and Hopf axioms."""

import itertools
import random
from math import comb

import numpy as np
import pytest

from comodfilt import cli
from comodfilt.comodules import frobenius_element, regular
from comodfilt.coordalg import (GL, SL, Element, GroupSpecError, TensorElement,
                                UnsupportedOperation, group_from_spec,
                                truncated_exponential_degree)
from comodfilt.filtration import CanonicalLevel, coalgebra_closure
from comodfilt.linalg import exact_dtype, rref

# (spec, max monomial degree for the random axiom sweeps, antipode degree cap)
# The antipode cap is lower for the 3x3 general-linear groups: sigma multiplies
# degrees by up to 2N-1, and reducing the resulting degree-9 polynomials in 9
# variables would materialize gigabyte-sized normal-form matrices.
SWEEP_GROUPS = [
    ("Ga@p=2", 6, 6), ("Ga@p=5", 6, 6), ("Gm@p=3", 6, 6),
    ("U:2@p=2", 5, 5), ("U:3@p=3", 4, 4),
    ("M:2@p=5", 4, 0), ("M:3@p=2", 3, 0),
    ("SL:2@p=3", 4, 4), ("SL:3@p=2", 3, 2),
    ("GL:2@p=2", 4, 4), ("GL:3@p=2", 3, 2),
]


def random_monomial(rng, g, dmax):
    return rng.choice(g.filtration_basis(rng.randrange(dmax + 1)))


# ---------------------------------------------------------------------------
# group spec grammar

def test_group_from_spec_grammar():
    assert group_from_spec("Ga@p=2").spec() == "Ga@p=2"
    assert group_from_spec(" GL:2 @ p = 5 ").spec() == "GL:2@p=5"
    assert group_from_spec("Gm@p=3") is group_from_spec("Gm@p=3")  # cached
    for bad in ["Ga@p=4", "GL@p=5", "Ga:2@p=3", "SO:3@p=2", "GL:0@p=2", "Ga"]:
        with pytest.raises(GroupSpecError):
            group_from_spec(bad)


# ---------------------------------------------------------------------------
# filtration dimensions: closed formulas against basis enumeration

def test_filtration_dims_small_groups():
    ga, gm = group_from_spec("Ga@p=2"), group_from_spec("Gm@p=3")
    for d in range(8):
        assert ga.filtration_dim(d) == d + 1 == len(ga.filtration_basis(d))
        assert gm.filtration_dim(d) == 2 * d + 1 == len(gm.filtration_basis(d))
    u3 = group_from_spec("U:3@p=2")
    m2 = group_from_spec("M:2@p=5")
    for d in range(5):
        assert u3.filtration_dim(d) == comb(d + 3, 3) == len(u3.filtration_basis(d))
        assert m2.filtration_dim(d) == comb(d + 4, 4) == len(m2.filtration_basis(d))


def test_filtration_dims_gl_sl():
    gl2 = group_from_spec("GL:2@p=2")
    sl2 = group_from_spec("SL:2@p=3")
    assert gl2.filtration_dim(2) == 16
    assert gl2.filtration_dim(3) == 40
    assert sl2.filtration_dim(3) == 30
    for d in range(5):
        assert gl2.filtration_dim(d) == len(gl2.filtration_basis(d))
        assert sl2.filtration_dim(d) == len(sl2.filtration_basis(d))
    # filtration degree counts det-inverse powers with weight N
    assert gl2.degree(gl2.detinv_mono()) == 2


def test_filtration_basis_is_nested():
    for spec in ["Gm@p=3", "GL:2@p=2", "SL:2@p=3"]:
        g = group_from_spec(spec)
        for d in range(4):
            smaller = set(g.filtration_basis(d))
            assert smaller <= set(g.filtration_basis(d + 1))


# ---------------------------------------------------------------------------
# structure-map spot checks

def test_ga_coproduct_binomials():
    g = group_from_spec("Ga@p=2")
    # t^2 is primitive in characteristic 2
    assert g.coproduct_mono(2) == {(2, 0): 1, (0, 2): 1}
    g5 = group_from_spec("Ga@p=5")
    assert g5.coproduct_mono(2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert g.antipode(g.element({1: 1})) == g.element({1: -1})


def test_ga_coproduct_by_lucas_matches_the_binomial_formula():
    groups = [group_from_spec(f"Ga@p={p}") for p in (2, 3, 5, 7)]
    for a in range(400):
        binomials = [comb(a, i) for i in range(a + 1)]
        for g in groups:
            want = {(i, a - i): c % g.p for i, c in enumerate(binomials) if c % g.p}
            # the same keys, values and insertion order
            assert list(g.coproduct_mono(a).items()) == list(want.items())
    # a + 1 binomials of t^(2^40) would never finish; Lucas gives two terms
    a = 2 ** 40
    assert groups[0].coproduct_mono(a) == {(0, a): 1, (a, 0): 1}


def test_gm_grouplike():
    g = group_from_spec("Gm@p=3")
    assert g.coproduct_mono(4) == {(4, 4): 1}
    assert g.antipode(g.element({2: 1})) == g.element({-2: 1})
    assert g.counit(g.element({5: 1})) == 1


def test_matrix_coproduct_generator():
    g = group_from_spec("M:2@p=5")
    x = g.gen_mono
    assert g.coproduct_mono(x(0, 1)) == {(x(0, 0), x(0, 1)): 1,
                                         (x(0, 1), x(1, 1)): 1}
    with pytest.raises(UnsupportedOperation):
        g.antipode(g.one())


def test_unitriangular_coproduct_and_antipode():
    g = group_from_spec("U:3@p=2")
    x = g.gen_mono
    assert g.coproduct_mono(x(0, 2)) == {(x(0, 2), g.one_mono()): 1,
                                         (g.one_mono(), x(0, 2)): 1,
                                         (x(0, 1), x(1, 2)): 1}
    # sigma(x13) = -x13 + x12*x23
    sig = g.antipode(g.element({x(0, 2): 1}))
    prod = tuple(a + b for a, b in zip(x(0, 1), x(1, 2)))
    assert sig == g.element({x(0, 2): -1, prod: 1})


def test_gl_det_inverse_cancels():
    g = group_from_spec("GL:2@p=5")
    det = g.det_element()
    detinv = g.element({g.detinv_mono(): 1})
    assert det * detinv == g.one()
    assert (det * det) * (detinv * detinv) == g.one()
    # sigma(x11) = x22 * det^-1
    sig = g.antipode(g.element({g.gen_mono(0, 0): 1}))
    assert sig == g.element({(g.mat.gen_mono(1, 1), 1): 1})


def test_sl_det_is_one():
    g = group_from_spec("SL:2@p=3")
    x = g.gen_mono
    det = (g.element({x(0, 0): 1}) * g.element({x(1, 1): 1})
           - g.element({x(0, 1): 1}) * g.element({x(1, 0): 1}))
    assert det == g.one()


# ---------------------------------------------------------------------------
# Hopf-algebra axioms on seeded random monomials

def coassoc_sides(g, mono):
    left, right = {}, {}
    for (a, b), c in g.coproduct_mono(mono).items():
        for (a1, a2), c1 in g.coproduct_mono(a).items():
            key = (a1, a2, b)
            left[key] = (left.get(key, 0) + c * c1) % g.p
        for (b1, b2), c2 in g.coproduct_mono(b).items():
            key = (a, b1, b2)
            right[key] = (right.get(key, 0) + c * c2) % g.p
    return ({k: v for k, v in left.items() if v},
            {k: v for k, v in right.items() if v})


def counit_collapse(g, mono):
    acc = {}
    for (a, b), c in g.coproduct_mono(mono).items():
        c = c * g.counit_mono(a)
        if c % g.p:
            acc[b] = (acc.get(b, 0) + c) % g.p
    return Element(g, acc)


def antipode_collapse(g, mono):
    acc = g.zero()
    for (a, b), c in g.coproduct_mono(mono).items():
        acc = acc + (g.antipode(g.element({a: c})) * g.element({b: 1}))
    return acc


@pytest.mark.parametrize("spec,dmax,sigma_dmax", SWEEP_GROUPS)
def test_hopf_axioms_random_sweep(spec, dmax, sigma_dmax):
    g = group_from_spec(spec)
    rng = random.Random(sum(map(ord, spec)))
    for _ in range(200):
        m = random_monomial(rng, g, dmax)
        assert counit_collapse(g, m) == g.element({m: 1})
        lhs, rhs = coassoc_sides(g, m)
        assert lhs == rhs
        if g.has_antipode and g.degree(m) <= sigma_dmax:
            want = g.one().scale(g.counit_mono(m))
            assert antipode_collapse(g, m) == want


@pytest.mark.parametrize("spec,dmax,sigma_dmax", SWEEP_GROUPS)
def test_product_degree_additivity(spec, dmax, sigma_dmax):
    g = group_from_spec(spec)
    rng = random.Random(1 + sum(map(ord, spec)))
    for _ in range(60):
        m1 = random_monomial(rng, g, dmax)
        m2 = random_monomial(rng, g, dmax)
        prod = g.element({m1: 1}) * g.element({m2: 1})
        if prod:
            assert prod.degree() <= g.degree(m1) + g.degree(m2)


def test_coproduct_is_an_algebra_map():
    rng = random.Random(23)
    for spec in ["Ga@p=3", "GL:2@p=2", "SL:2@p=3", "U:3@p=2"]:
        g = group_from_spec(spec)
        for _ in range(20):
            f1 = g.element({random_monomial(rng, g, 3): rng.randrange(1, g.p)})
            f2 = g.element({random_monomial(rng, g, 3): rng.randrange(1, g.p)})
            assert g.coproduct(f1 * f2) == g.coproduct(f1) * g.coproduct(f2)


def test_truncated_exponential_degree():
    assert truncated_exponential_degree(2, 3) == 2
    assert truncated_exponential_degree(2, 5) == 4
    assert truncated_exponential_degree(3, 5) == 4


def test_det_normal_forms_are_exact_at_p_2_31_minus_1():
    # products of two coefficients exceed int64 at this prime; compare
    # against the reference reductions below, which multiply in Python integers
    p = 2 ** 31 - 1
    rng = random.Random(31)
    sl, gl = group_from_spec(f"SL:2@p={p}"), group_from_spec(f"GL:2@p={p}")
    monos = sorted(reference_exp_tuples(4, 4), reverse=True)
    for _ in range(50):
        vec = [rng.randrange(p) for _ in monos]
        coeffs = dict(zip(monos, vec))
        got = sl.reduce_dict(coeffs)
        assert got == reference_sl_reduce(sl, coeffs)
        assert all(type(c) is int for c in got.values())

        vec = [rng.randrange(p) for _ in monos]
        coeffs = {(e, 1): c for e, c in zip(monos, vec)}
        got = gl.reduce_dict(coeffs)
        assert got == reference_gl_reduce(gl, coeffs)
        assert all(type(c) is int for c in got.values())


# ---------------------------------------------------------------------------
# reference reductions: the former per-group GL and SL normal forms, kept as
# oracles for the one top-down reduce_dict that GL and SL now share

def reference_exp_tuples(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in reference_exp_tuples(nvars - 1, total - first):
            yield (first,) + rest


def reference_product_dtype(inner, p):
    return object if exact_dtype(inner, p) is object else np.int64


def reference_det(mat):
    """det as {exponent tuple: sign}, by the Leibniz formula."""
    det = {}
    for perm in itertools.permutations(range(mat.N)):
        m = [0] * mat.nvars
        for i, j in enumerate(perm):
            m[i * mat.N + j] += 1
        inversions = sum(perm[a] > perm[b] for a in range(mat.N)
                         for b in range(a + 1, mat.N))
        det[tuple(m)] = (-1) ** inversions
    return det


class ReferenceHomogeneousDetReducer:
    """Row-reduced image of det * O(M)_{deg-N} inside O(M)_deg, with quotients."""

    def __init__(self, mat, deg):
        p = mat.p
        self.p = p
        self.monos = sorted(reference_exp_tuples(mat.nvars, deg), reverse=True)
        self.index = {m: i for i, m in enumerate(self.monos)}
        qdeg = deg - mat.N
        self.qmonos = sorted(reference_exp_tuples(mat.nvars, qdeg), reverse=True) \
            if qdeg >= 0 else []
        n, q = len(self.monos), len(self.qmonos)
        if q == 0:
            self.pivots = []
            return
        w = np.zeros((q, n + q), dtype=np.int64)
        for r, qm in enumerate(self.qmonos):
            for dm, dc in reference_det(mat).items():
                w[r, self.index[tuple(a + b for a, b in zip(dm, qm))]] = dc % p
            w[r, n + r] = 1
        red, piv = rref(w, p)
        self.dtype = reference_product_dtype(len(piv), p)
        self.rows = red[:, :n].astype(self.dtype)
        self.qrows = red[:, n:].astype(self.dtype)
        self.pivots = piv

    def split(self, vec):
        p = self.p
        if not self.pivots:
            return vec % p, np.zeros(0, dtype=np.int64)
        c = (vec[self.pivots] % p).astype(self.dtype, copy=False)
        residue = ((vec - c @ self.rows) % p).astype(np.int64, copy=False)
        quotient = ((c @ self.qrows) % p).astype(np.int64, copy=False)
        return residue, quotient


class ReferenceSLReducer:
    """Row-reduced image of (det - 1) * O(M)_{<=d-N} inside O(M)_{<=d}, columns
    in descending (degree, lex) order: one elimination over all degrees."""

    def __init__(self, mat, d):
        p = mat.p
        self.p = p
        self.monos = sorted((m for deg in range(d + 1)
                             for m in reference_exp_tuples(mat.nvars, deg)),
                            key=lambda m: (sum(m), m), reverse=True)
        self.index = {m: i for i, m in enumerate(self.monos)}
        qmonos = [m for deg in range(d - mat.N + 1)
                  for m in reference_exp_tuples(mat.nvars, deg)] if d >= mat.N else []
        w = np.zeros((len(qmonos), len(self.monos)), dtype=np.int64)
        for r, qm in enumerate(qmonos):
            for dm, dc in reference_det(mat).items():
                w[r, self.index[tuple(a + b for a, b in zip(dm, qm))]] = dc % p
            w[r, self.index[qm]] = (w[r, self.index[qm]] - 1) % p
        red, piv = rref(w, p)
        self.dtype = reference_product_dtype(len(piv), p)
        self.rows = red.astype(self.dtype)
        self.pivots = piv
        pivset = set(piv)
        self.complement = [m for i, m in enumerate(self.monos) if i not in pivset]

    def reduce_vec(self, vec):
        p = self.p
        if not self.pivots:
            return vec % p
        c = (vec[self.pivots] % p).astype(self.dtype, copy=False)
        return ((vec - c @ self.rows) % p).astype(np.int64, copy=False)


_reference_reducers = {}


def reference_reducer(kind, g, deg):
    key = (kind, g.spec(), deg)
    if key not in _reference_reducers:
        cls = ReferenceSLReducer if kind == "SL" else ReferenceHomogeneousDetReducer
        _reference_reducers[key] = cls(g.mat, deg)
    return _reference_reducers[key]


def reference_sl_reduce(g, coeffs):
    """The former SL.reduce_dict: one vector over all degrees up to the top."""
    if not coeffs:
        return {}
    red = reference_reducer("SL", g, max(sum(m) for m in coeffs))
    vec = np.zeros(len(red.monos), dtype=np.int64)
    for m, c in coeffs.items():
        vec[red.index[m]] = (vec[red.index[m]] + c) % g.p
    out = red.reduce_vec(vec)
    return {red.monos[i]: int(out[i]) for i in np.nonzero(out)[0]}


def reference_gl_reduce(g, coeffs):
    """The former GL.reduce_dict: det^{-j} buckets from the top j down, each
    split by degree, quotients carried to j - 1, det^0 copied through.  Only
    the buckets present and those that quotients land in are visited, so a
    det^{-q} at a large prime q is one bucket, not q of them."""
    p = g.p
    buckets = {}
    for (e, j), c in coeffs.items():
        buckets.setdefault(j, {})[e] = (buckets.setdefault(j, {}).get(e, 0) + c) % p
    out = {}
    while buckets:
        j = max(buckets)
        poly = {e: c for e, c in buckets.pop(j).items() if c}
        if j == 0:
            for e, c in poly.items():
                out[(e, 0)] = (out.get((e, 0), 0) + c) % p
            continue
        by_deg = {}
        for e, c in poly.items():
            by_deg.setdefault(sum(e), {})[e] = c
        for deg, homog in by_deg.items():
            red = reference_reducer("GL", g, deg)
            vec = np.zeros(len(red.monos), dtype=np.int64)
            for e, c in homog.items():
                vec[red.index[e]] = c
            residue, quotient = red.split(vec)
            for i in np.nonzero(residue)[0]:
                key = (red.monos[i], j)
                out[key] = (out.get(key, 0) + int(residue[i])) % p
            for i in np.nonzero(quotient)[0]:
                e2 = red.qmonos[i]
                buckets.setdefault(j - 1, {})[e2] = \
                    (buckets.setdefault(j - 1, {}).get(e2, 0) + int(quotient[i])) % p
    return {m: c for m, c in out.items() if c % p}


def random_exponents(rng, nvars, deg):
    e = [0] * nvars
    for _ in range(deg):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def random_coeffs(rng, g, dmax, jmax):
    """A dict of up to eight terms of degree <= dmax over det^{-j}, j <= jmax
    (GL only), coefficients in (-2p, 2p): unreduced, possibly zero mod p."""
    out = {}
    for _ in range(rng.randrange(1, 9)):
        e = random_exponents(rng, g.nvars, rng.randrange(dmax + 1))
        mono = (e, rng.randrange(jmax + 1)) if g.kind == "GL" else e
        out[mono] = rng.randrange(-2 * g.p + 1, 2 * g.p)
    return out


REDUCE_CASES = [
    ("SL:2@p=2", 7, 0), ("SL:2@p=3", 7, 0), ("SL:2@p=2147483647", 7, 0),
    ("SL:3@p=2", 7, 0), ("SL:3@p=5", 7, 0),
    ("GL:2@p=2", 7, 3), ("GL:2@p=5", 7, 3), ("GL:2@p=2147483647", 7, 3),
    ("GL:3@p=2", 5, 3),
]


@pytest.mark.parametrize("spec,dmax,jmax", REDUCE_CASES)
def test_reduce_dict_matches_the_former_per_group_reductions(spec, dmax, jmax):
    g = group_from_spec(spec)
    reference = reference_gl_reduce if g.kind == "GL" else reference_sl_reduce
    rng = random.Random(spec)
    for _ in range(60):
        coeffs = random_coeffs(rng, g, dmax, jmax)
        got = g.reduce_dict(dict(coeffs))
        assert got == reference(g, coeffs), coeffs
        assert all(0 < c < g.p and type(c) is int for c in got.values())
        # a normal form is its own normal form
        assert g.reduce_dict(got) == got


@pytest.mark.parametrize("spec", ["SL:2@p=2", "SL:2@p=3", "SL:3@p=2"])
def test_sl_filtration_monomials_are_the_former_complement(spec):
    g = group_from_spec(spec)
    for d in range(7):
        monos = g.filtration_monomials(d)
        assert len(monos) == g.filtration_dim(d)
        assert set(monos) == set(ReferenceSLReducer(g.mat, d).complement)


# ---------------------------------------------------------------------------
# reference structure maps: the former per-pair products and Frobenius powers
# and the former per-leg coproduct reduction, on the reference reductions
# above, as oracles for the one bucketed reduction that serves them now

def reference_reduce(g, coeffs):
    return (reference_gl_reduce if g.kind == "GL" else reference_sl_reduce)(g, coeffs)


def reference_parts(g, mono):
    return mono if g.kind == "GL" else (mono, 0)


def reference_mono(g, e, j):
    return (e, j) if g.kind == "GL" else e


def reference_product(g, f1, f2):
    """Each pair of monomials multiplied and reduced on its own."""
    acc = {}
    for m1, c1 in f1.coeffs.items():
        for m2, c2 in f2.coeffs.items():
            (e1, j1), (e2, j2) = reference_parts(g, m1), reference_parts(g, m2)
            e = tuple(a + b for a, b in zip(e1, e2))
            for m, c in reference_reduce(g, {reference_mono(g, e, j1 + j2): 1}).items():
                acc[m] = acc.get(m, 0) + c1 * c2 * c
    return Element(g, acc)


def reference_frobenius(g, f, q):
    """Each monomial raised to the q-th power and reduced on its own."""
    acc = {}
    for m, c in f.coeffs.items():
        e, j = reference_parts(g, m)
        power = reference_mono(g, tuple(x * q for x in e), j * q)
        for m2, c2 in reference_reduce(g, {power: 1}).items():
            acc[m2] = acc.get(m2, 0) + c * c2
    return Element(g, acc)


def reference_reduce_tensor(g, acc):
    """Reduce the left legs once per right leg, then the right legs once per
    left leg."""
    p = g.p
    by_right = {}
    for (a, b), c in acc.items():
        by_right.setdefault(b, {})[a] = (by_right.setdefault(b, {}).get(a, 0) + c) % p
    mid = {}
    for b, poly in by_right.items():
        for a, c in reference_reduce(g, poly).items():
            mid[(a, b)] = (mid.get((a, b), 0) + c) % p
    by_left = {}
    for (a, b), c in mid.items():
        by_left.setdefault(a, {})[b] = (by_left.setdefault(a, {}).get(b, 0) + c) % p
    out = {}
    for a, poly in by_left.items():
        for b, c in reference_reduce(g, poly).items():
            out[(a, b)] = (out.get((a, b), 0) + c) % p
    return {k: v for k, v in out.items() if v}


def reference_polynomial_coproduct(kind, N, p, e):
    """Delta of x^e over M(N) (kind "M") or U(N) (kind "U"), expanded from
    scratch one generator factor at a time: Delta(x_{i,j}) = sum_l x_{i,l} (x)
    x_{l,j}, over all l for M(N) and over i <= l <= j for U(N), where x_{i,i}
    = 1.  Exponent tuples list the generators x_{i,j} row by row, all of them
    for M(N) and those with i < j for U(N)."""
    gens = [(i, j) for i in range(N) for j in range(N) if kind == "M" or i < j]
    index = {pr: k for k, pr in enumerate(gens)}

    def unit(i, j):
        m = [0] * len(gens)
        if (i, j) in index:  # not a diagonal entry of U(N)
            m[index[(i, j)]] = 1
        return tuple(m)

    acc = {((0,) * len(gens), (0,) * len(gens)): 1}
    for (i, j), power in zip(gens, e):
        between = range(N) if kind == "M" else range(i, j + 1)
        legs = [(unit(i, ell), unit(ell, j)) for ell in between]
        for _ in range(power):
            nxt = {}
            for (a, b), c in acc.items():
                for ga, gb in legs:
                    key = (tuple(x + y for x, y in zip(a, ga)),
                           tuple(x + y for x, y in zip(b, gb)))
                    nxt[key] = (nxt.get(key, 0) + c) % p
            acc = {key: c for key, c in nxt.items() if c}
    return acc


def reference_coproduct_mono(g, mono):
    e, j = reference_parts(g, mono)
    return reference_reduce_tensor(g, {
        (reference_mono(g, a, j), reference_mono(g, b, j)): c
        for (a, b), c in reference_polynomial_coproduct("M", g.N, g.p, e).items()})


def random_normal_monomial(rng, g, deg, j):
    """A monomial of the reference normal form of a random x^e det^{-j},
    sum(e) = deg (j = 0 over SL)."""
    e = random_exponents(rng, g.nvars, deg)
    return rng.choice(sorted(reference_reduce(g, {reference_mono(g, e, j): 1})))


def random_normal_element(rng, g, deg, jmax):
    monos = {random_normal_monomial(rng, g, rng.randrange(deg + 1),
                                    rng.randrange(jmax + 1) if g.kind == "GL" else 0)
             for _ in range(rng.randrange(1, 5))}
    return Element(g, {m: rng.randrange(1, g.p) for m in monos})


STRUCTURE_CASES = [f"{kind}:{n}@p={p}" for kind in ("GL", "SL") for n in (1, 2, 3)
                   for p in (2, 3, 2 ** 31 - 1)]


@pytest.mark.parametrize("spec", STRUCTURE_CASES)
def test_structure_maps_match_the_former_per_monomial_reductions(spec):
    # polynomial degrees <= 5, det^{-j} parts for j <= 2
    g = group_from_spec(spec)
    rng = random.Random(spec + " structure")
    for _ in range(12):
        m = random_normal_monomial(rng, g, rng.randrange(6),
                                   rng.randrange(3) if g.kind == "GL" else 0)
        assert g.coproduct_mono(m) == reference_coproduct_mono(g, m), m
        d1 = rng.randrange(6)
        f1 = random_normal_element(rng, g, d1, 2)
        f2 = random_normal_element(rng, g, 5 - d1, 2)
        assert g.product(f1, f2) == reference_product(g, f1, f2), (f1, f2)
        # q * degree <= 5; at the large prime f has polynomial degree 0, so a
        # det^{-1} part becomes det^{-q} and the NF table meets a det power of
        # 2^31 - 1 (a positive degree would need a degree-q reducer)
        q = g.p
        f = random_normal_element(rng, g, 5 // q, 2 if q < 5 else 1)
        assert frobenius_element(f, 1) == reference_frobenius(g, f, q), f
    # and one coproduct with many legs sharing buckets in both passes
    m = random_normal_monomial(rng, g, 5, 2 if g.kind == "GL" else 0)
    assert g.coproduct_mono(m) == reference_coproduct_mono(g, m), m


POLYNOMIAL_CASES = [f"{kind}:{n}@p={p}" for kind, n in (("M", 2), ("M", 3), ("U", 3), ("U", 4))
                    for p in (2, 3, 5)]


@pytest.mark.parametrize("spec", POLYNOMIAL_CASES)
def test_coded_coproducts_match_the_factor_by_factor_expansion(spec):
    g = group_from_spec(spec)
    p = g.p
    rng = random.Random(spec + " coded")
    # one exponent of one base-p digit, then of two (a single Frobenius
    # split), then of three (the split recurses); the other generators add
    # at most degree 2
    for low in (1, p, p * p):
        for _ in range(3):
            e = list(random_exponents(rng, g.nvars, rng.randrange(3)))
            e[rng.randrange(g.nvars)] += low + rng.randrange(p - 1)
            e = tuple(e)
            assert g.coproduct_mono(e) == reference_polynomial_coproduct(g.kind, g.N, p, e), e


@pytest.mark.parametrize("spec", ["GL:2@p=2", "GL:2@p=3", "SL:2@p=2", "SL:2@p=3",
                                  "GL:3@p=2", "SL:3@p=2"])
def test_det_group_coproducts_with_exponents_past_p_match_the_reference(spec):
    g = group_from_spec(spec)
    p = g.p
    rng = random.Random(spec + " past p")
    off_diagonal = [i * g.N + j for i in range(g.N) for j in range(g.N) if i != j]
    for low in (p, p * p) if g.N == 2 else (p,):
        for _ in range(3):
            # an off-diagonal power times one more generator is not divisible
            # by the diagonal leading term of det, so it is in normal form
            e = list(random_exponents(rng, g.nvars, 1))
            e[rng.choice(off_diagonal)] += low + rng.randrange(p)
            m = reference_mono(g, tuple(e), rng.randrange(2) if g.kind == "GL" else 0)
            assert reference_reduce(g, {m: 1}) == {m: 1}
            assert g.coproduct_mono(m) == reference_coproduct_mono(g, m), m


@pytest.mark.parametrize("spec", ["U:3@p=2", "M:2@p=3", "GL:2@p=2"])
def test_coproduct_of_a_frobenius_power_is_the_power_of_the_coproduct(spec):
    # Delta(f^p) through the engine's Frobenius split, against Delta(f)^p
    # by repeated products in O(G) (x) O(G), which do not split
    g = group_from_spec(spec)
    rng = random.Random(spec + " frobenius law")
    for _ in range(6):
        f = (random_normal_element(rng, g, 2, 1) if g.kind == "GL" else
             Element(g, {rng.choice(g.filtration_basis(2)): rng.randrange(1, g.p)
                         for _ in range(rng.randrange(1, 4))}))
        delta = g.coproduct(f)
        power = delta
        for _ in range(g.p - 1):
            power = power * delta
        assert g.coproduct(frobenius_element(f, 1)) == power, f


# ---------------------------------------------------------------------------
# the per-group tables of Delta(m) and, over GL and SL, of NF(m)

# each of these groups is also used by `validate --suite`
TABLE_SPECS = ["Ga@p=2", "Gm@p=3", "M:2@p=5", "U:3@p=2", "GL:2@p=2", "SL:3@p=2"]


def fresh_group(g):
    """A new instance of g's group, with empty tables."""
    return type(g)(g.p) if g.kind in ("Ga", "Gm") else type(g)(g.p, g.N)


def table_snapshot(g):
    """Copies of the table entries: Delta(m) dicts, and NF(m) over GL and SL."""
    return ({m: dict(delta) for m, delta in g._delta.items()},
            dict(getattr(g, "_nf", {})))


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_structure_map_tables_cannot_change_answers(spec, capsys):
    g = group_from_spec(spec)
    monos = g.filtration_basis(3)
    # products are not in normal form over SL; over the others reduce_dict is
    # the identity or a det^{-j} reduction
    unreduced = [g._mono_product(a, b) for a in monos for b in g.filtration_basis(1)]
    rng = random.Random(spec + " tables")
    mixed = {m: rng.randrange(1, g.p) for m in rng.sample(unreduced, 8)}
    for m in monos:
        g.coproduct_mono(m)
    for m in unreduced:
        g.reduce_dict({m: 1})
    before = table_snapshot(g)

    # the consumers of the tables, all on the shared instance
    assert cli.main(["validate", "--suite", "--no-cache"]) == 0
    capsys.readouterr()
    assert regular(g, 3).validate().ok
    assert coalgebra_closure(g, CanonicalLevel(g, 3)).is_subcoalgebra
    for m in monos:
        g.coproduct(g.element({m: 1}))

    # no consumer mutated a shared entry
    delta, nf = table_snapshot(g)
    assert {m: delta[m] for m in before[0]} == before[0]
    assert {m: nf[m] for m in before[1]} == before[1]
    # and a group with empty tables gives the same answers
    fresh = fresh_group(g)
    assert fresh is not g and not fresh._delta
    for m in monos:
        assert fresh.coproduct_mono(m) == g.coproduct_mono(m), m
    for m in monos + unreduced:
        assert fresh.reduce_dict({m: 1}) == g.reduce_dict({m: 1}), m
    assert fresh.reduce_dict(dict(mixed)) == g.reduce_dict(dict(mixed))


def random_det_monomials(rng, g, count, dmax, kmax, jmax):
    """Monomials of GL or SL, not in normal form: a random exponent tuple of
    degree <= dmax times up to kmax copies of the diagonal x11*...*xNN (the
    leading term of det), over det^{-j}, j <= jmax, for GL."""
    lead = max(g.mat.det_element().coeffs)
    out = []
    for _ in range(count):
        k = rng.randrange(kmax + 1)
        e = random_exponents(rng, g.nvars, rng.randrange(dmax + 1))
        e = tuple(a + k * b for a, b in zip(e, lead))
        out.append((e, rng.randrange(jmax + 1)) if g.kind == "GL" else e)
    return out


@pytest.mark.parametrize("kind", [GL, SL])
@pytest.mark.parametrize("N, dmax, kmax", [(2, 4, 2), (3, 2, 1)])
@pytest.mark.parametrize("p", [2, 3, 2 ** 31 - 1])
def test_batch_normal_forms_match_single_ones(kind, N, dmax, kmax, p):
    rng = random.Random(f"{kind.__name__}:{N}@p={p}")
    batch, single = kind(p, N), kind(p, N)  # fresh tables, not the shared groups
    monos = random_det_monomials(rng, batch, 12, dmax, kmax, 2)
    if kind is GL:
        monos += [batch.detinv_mono(), ((0,) * batch.nvars, 3)]
    monos = list(dict.fromkeys(monos))
    table = batch._normal_forms(monos)
    for m in monos:
        assert single._normal_forms([m])[m] == table[m], m
    assert set(monos) <= set(batch._nf)
    assert any(table[m] != ((m, 1),) for m in monos)  # some monomial reduced
    # every entry, requested or filled along a quotient chain, is in normal
    # form and equals the form a fresh instance computes for its monomial
    for m, form in list(batch._nf.items()):
        assert form and all(0 < c < p for _, c in form), m
        for m2, _ in form:
            assert batch._normal_forms([m2])[m2] == ((m2, 1),), (m, m2)
        assert kind(p, N)._normal_forms([m])[m] == form, m


def test_elements_and_tensors_share_one_sparse_rule():
    g = group_from_spec("GL:2@p=3")
    a, b = g.gen_mono(0, 0), g.gen_mono(1, 1)
    coeffs = {(a, b): 4, (b, a): 3, (a, a): -1}
    el, te = Element(g, coeffs), TensorElement(g, coeffs)
    # both reduce mod p and drop zeros
    assert el.coeffs == te.coeffs == {(a, b): 1, (a, a): 2}
    assert el != te and te != el
    assert el == Element(g, dict(coeffs)) and te == TensorElement(g, dict(coeffs))
    for x in (el, te):
        assert type(x + x) is type(x) and type(x - x) is type(x)
        assert not x - x and (x + x).coeffs == {k: 2 * c % 3 for k, c in x.coeffs.items()}
    f = g.element({a: 1, b: 2})
    assert hash(f) == hash(g.element({b: 2, a: 1})) and {f: 0}[f + g.zero()] == 0
    # equal elements over two instances of one group hash alike
    one, other = g.one(), GL(3, 2).one()  # GL(p, N)
    assert one == other and hash(one) == hash(other) and len({one, other}) == 1
    with pytest.raises(TypeError):
        hash(te)


UNITRIANGULAR_CASES = ["U:2@p=2", "U:3@p=3", "U:4@p=2", "U:4@p=5", "U:5@p=3"]


def reference_unitriangular_antipode_gens(g):
    """The former series: (I + E)^{-1} = sum_k (-E)^k for E the strict upper
    triangle of generators."""
    N = g.N
    E = [[g.element({g.gen_mono(i, j): 1}) if i < j else g.zero()
          for j in range(N)] for i in range(N)]
    total = [[g.one() if i == j else g.zero() for j in range(N)] for i in range(N)]
    powk = E
    sign = -1
    for _ in range(1, N):
        for i in range(N):
            for j in range(N):
                total[i][j] = total[i][j] + powk[i][j].scale(sign)
        nxt = [[g.zero() for _ in range(N)] for _ in range(N)]
        for i in range(N):
            for j in range(N):
                s = g.zero()
                for ell in range(N):
                    s = s + powk[i][ell] * E[ell][j]
                nxt[i][j] = s
        powk = nxt
        sign = -sign
    return {(i, j): total[i][j] for i, j in g.gens}


@pytest.mark.parametrize("spec", UNITRIANGULAR_CASES)
def test_unitriangular_antipode_is_the_former_nilpotent_series(spec):
    g = group_from_spec(spec)
    want = reference_unitriangular_antipode_gens(g)
    for i, j in g.gens:
        assert g.antipode(g.element({g.gen_mono(i, j): 1})) == want[(i, j)], (i, j)
