"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import itertools
from math import comb

import numpy as np

from comodfilt.cobar import SubCoalgebra, cobar_complex, cohomology_dims, \
    injective_test, injectivity_profile
from comodfilt.comodules import build_module, regular, trivial
from comodfilt.coordalg import group_from_spec
from comodfilt.filtration import (CanonicalLevel, ExplicitSubspace,
                                  coalgebra_closure, filtration_dims, restrict)
from comodfilt.growth import GrowthReport, classify
from comodfilt.linalg import matrank
from comodfilt.suites import run_property_suite


def verdict(num, label):
    """Print one pass/fail line per criterion, whatever the test outcome."""
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {num:2d}: {label}")
                raise
            print(f"PASS criterion {num:2d}: {label}")
        run.__name__ = fn.__name__
        return run
    return wrap


@verdict(1, "general/special linear filtration dimension formulas")
def test_criterion_01_dimension_formulas():
    for n, drange in [(2, range(2, 9)), (3, range(3, 6))]:
        gl = group_from_spec(f"GL:{n}@p=2")
        sl = group_from_spec(f"SL:{n}@p=2")
        nn = n * n
        for d in drange:
            gl_want = comb(d + nn, nn) + comb(d - n + nn, nn)
            sl_want = comb(d + nn, nn) - comb(d - n + nn, nn)
            assert gl.filtration_dim(d) == gl_want == len(gl.filtration_monomials(d))
            assert sl.filtration_dim(d) == sl_want == len(sl.filtration_monomials(d))


@verdict(2, "multiplicative-group levels and weight-space restrictions")
def test_criterion_02_gm_levels():
    gm = group_from_spec("Gm@p=3")
    for d in range(21):
        assert gm.filtration_dim(d) == 2 * d + 1
    for n in range(5):
        m = regular(gm, n)
        basis = gm.filtration_basis(n)
        for d in range(7):
            res = restrict(m, CanonicalLevel(gm, d))
            keep = {i for i, k in enumerate(basis) if abs(k) <= min(n, d)}
            assert res.dim == len(keep)
            got = {tuple(row) for row in res.subspace.basis}
            want = {tuple(1 if j == i else 0 for j in range(m.dim)) for i in keep}
            assert got == want


@verdict(3, "affine-space modules grow polynomially of degree = #coordinates")
def test_criterion_03_polyaffine_growth():
    ga = group_from_spec("Ga@p=2")
    for m in (1, 2, 3):
        dims = filtration_dims(build_module(f"polyaffine({m})", ga), 8).dims
        assert dims == [comb(m + d, d) for d in range(9)]
        assert classify(dims, p=2) == GrowthReport("polynomial", m)


@verdict(4, "higher-primitive modules grow logarithmically")
def test_criterion_04_primitives_growth():
    for p in (2, 3):
        ga = group_from_spec(f"Ga@p={p}")
        dims = filtration_dims(build_module("primitives", ga), p ** 4).dims[1:]
        want = []
        for d in range(1, p ** 4 + 1):
            r = 0
            while p ** (r + 1) <= d:
                r += 1
            want.append(r + 1)
        assert dims == want
        assert classify(dims, p=p, start=1) == GrowthReport("logarithmic")


@verdict(5, "twist-stream modules grow exponentially with exponent 1")
def test_criterion_05_twiststream_growth():
    gl = group_from_spec("GL:2@p=2")
    dims = filtration_dims(build_module("twiststream(1)", gl), 16).dims
    assert dims[1] == 2 and dims[16] == 62
    assert classify(dims, p=2, start=0) == GrowthReport("exponential", 1)


@verdict(6, "regular-representation growth degree equals the group dimension")
def test_criterion_06_regular_growth():
    cases = [("Ga@p=2", 1), ("Gm@p=3", 1), ("U:3@p=2", 3),
             ("SL:2@p=3", 3), ("GL:2@p=2", 4)]
    for spec, lie_dim in cases:
        g = group_from_spec(spec)
        dims = [g.filtration_dim(d) for d in range(41)]
        assert classify(dims, p=g.p) == GrowthReport("polynomial", lie_dim)


def all_subspaces_f2(n):
    """Every subspace of F_2^n, one RREF basis matrix each."""
    spaces = [np.zeros((0, n), dtype=np.int64)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                    if c not in pivots]
            for bits in itertools.product((0, 1), repeat=len(free)):
                mat = np.zeros((k, n), dtype=np.int64)
                for r, c in enumerate(pivots):
                    mat[r, c] = 1
                for (r, c), b in zip(free, bits):
                    mat[r, c] = b
                spaces.append(mat)
    return spaces


def f2_span(rows, n):
    """The set of vectors (as tuples) spanned by the given rows over F_2."""
    span = {(0,) * n}
    for row in rows:
        row = tuple(int(x) % 2 for x in row)
        if row not in span:
            span |= {tuple((np.array(v) + row) % 2) for v in span}
    return span


@verdict(7, "the filtration functor matches exhaustive subspace maximality")
def test_criterion_07_maximality_oracle():
    ga = group_from_spec("Ga@p=2")
    texts = ["triv", "regular(1)", "regular(2)", "regular(3)",
             "dual(regular(1))", "dual(regular(2))", "sum(triv,regular(1))",
             "tensor(regular(1),regular(1))", "twist(1,regular(1))",
             "sym(2,regular(1))"]
    modules = [build_module(t, ga) for t in texts]
    modules += [build_module("polyaffine(1)", ga).generate(2),
                build_module("primitives", ga).generate(2),
                build_module("translationinvariants", ga).generate(3)]
    assert len(all_subspaces_f2(4)) == 67  # 1 + 15 + 35 + 15 + 1
    for m in modules:
        assert m.dim <= 4
        mats = {}  # B_h[j, i] = coefficient of h in f_{ji}
        for (j, i), f in m.coeffs.items():
            for h, c in f.coeffs.items():
                mats.setdefault(h, np.zeros((m.dim, m.dim), dtype=np.int64))[j, i] = c
        for d in (0, 1, 2):
            good_rows = []
            for basis in all_subspaces_f2(m.dim):
                vecs = f2_span(basis, m.dim)
                stable = True
                for v in basis:
                    for h, b in mats.items():
                        w = tuple((b @ v) % 2)
                        if ga.degree(h) > d:
                            stable = stable and not any(w)
                        else:
                            stable = stable and w in vecs
                if stable:
                    good_rows.extend(tuple(r) for r in basis)
            oracle = f2_span(good_rows, m.dim)
            engine = {tuple(v) for v in
                      restrict(m, CanonicalLevel(ga, d)).subspace.vectors()}
            assert engine == oracle


@verdict(8, "coalgebra closures fix the canonical levels and drop strays")
def test_criterion_08_closures():
    cases = [("Ga@p=2", 4), ("Gm@p=3", 4), ("U:2@p=2", 4), ("U:3@p=2", 4),
             ("M:2@p=5", 4), ("SL:2@p=3", 4), ("GL:2@p=2", 4),
             ("M:3@p=2", 2), ("SL:3@p=2", 2), ("GL:3@p=2", 2)]
    for spec, dmax in cases:
        g = group_from_spec(spec)
        for d in range(dmax + 1):
            res = coalgebra_closure(g, CanonicalLevel(g, d))
            assert res.dim == g.filtration_dim(d)
            assert res.is_subcoalgebra
    ga3 = group_from_spec("Ga@p=3")
    x = ExplicitSubspace.from_elements(ga3, [ga3.one(), ga3.element({2: 1})])
    res = coalgebra_closure(ga3, x)
    assert res.dim == 1 and res.subspace.elements() == [ga3.one()]
    assert res.is_subcoalgebra


@verdict(9, "cobar cohomology: squares to zero, fixed points, level-one ranks")
def test_criterion_09_cobar():
    def primitive_rank(g, d):
        basis = g.filtration_basis(d)
        pairs, rows = {}, []
        one = g.one_mono()
        for col, mono in enumerate(basis):
            lin = dict(g.coproduct_mono(mono))
            lin[(mono, one)] = lin.get((mono, one), 0) - 1
            lin[(one, mono)] = lin.get((one, mono), 0) - 1
            for key, c in lin.items():
                if c % g.p:
                    pairs.setdefault(key, len(pairs))
                    rows.append((pairs[key], col, c % g.p))
        mat = np.zeros((len(pairs), len(basis)), dtype=np.int64)
        for r, c, v in rows:
            mat[r, c] = v
        return len(basis) - matrank(mat, g.p)

    ga = group_from_spec("Ga@p=2")
    gm = group_from_spec("Gm@p=3")
    u2 = group_from_spec("U:2@p=2")
    # d^2 = 0 is asserted inside every construction below
    for g, text, d in [(ga, "regular(2)", 2), (gm, "regular(1)", 1),
                       (gm, "dual(regular(2))", 2), (u2, "natural", 1),
                       (ga, "sum(triv,regular(1))", 1)]:
        m = build_module(text, g)
        h = cohomology_dims(cobar_complex(SubCoalgebra.canonical(g, d), m, 2))
        assert h[0] == restrict(m, CanonicalLevel(g, 0)).dim
    for d in (1, 2, 3, 4, 5, 8):
        want = primitive_rank(ga, d)
        assert want == int(np.log2(d)) + 1
        h = cohomology_dims(cobar_complex(SubCoalgebra.canonical(ga, d),
                                          trivial(ga), 2))
        assert h[1] == want


@verdict(10, "self-injectivity of the levels; mock-injective stream detected")
def test_criterion_10_injectivity():
    cases = [("Ga@p=2", 4), ("Gm@p=3", 4), ("U:2@p=2", 4), ("U:3@p=3", 3),
             ("SL:2@p=2", 3), ("GL:2@p=2", 2), ("M:2@p=5", 2)]
    for spec, dmax in cases:
        g = group_from_spec(spec)
        for d in range(dmax + 1):
            c = SubCoalgebra.canonical(g, d)
            assert injective_test(c, regular(g, d)), (spec, d)
    ga = group_from_spec("Ga@p=2")
    for d in (1, 2, 3):
        assert not injective_test(SubCoalgebra.canonical(ga, d), trivial(ga))
    profile = injectivity_profile(ga, build_module("translationinvariants", ga), 4)
    assert not all(profile[1:])


@verdict(11, "property suites all green in one command")
def test_criterion_11_property_suites():
    results = run_property_suite(seed=0)
    assert [r["name"] for r in results] == [
        "comodule_axioms", "filtration_multiplicativity", "tensor_containment",
        "antipode_degree_bound", "truncated_exponential_degree"]
    assert all(r["ok"] for r in results), [r for r in results if not r["ok"]]
