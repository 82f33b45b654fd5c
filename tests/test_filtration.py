"""Greatest-fixed-point filtration M_X and the coalgebra closure O(G)_X."""

import tracemalloc

import numpy as np
import pytest

from comodfilt import filtration
from comodfilt.comodules import (Comodule, build_module, direct_sum, dual,
                                 frobenius_twist, natural, polyaffine, primitives,
                                 regular, regular_stream, translationinvariants,
                                 trivial, twiststream)
from comodfilt.coordalg import group_from_spec
from comodfilt.filtration import (CanonicalLevel, Coaction, ExplicitSubspace,
                                  InternalInvariantError, closure_ladder, coaction,
                                  coalgebra_closure, coproduct_coaction,
                                  filtration_dims, restrict, structure_constants,
                                  subspace_tensor, tensor_containment)
from comodfilt.linalg import Subspace, kernel, preimage

GA2 = group_from_spec("Ga@p=2")
GA3 = group_from_spec("Ga@p=3")
GM3 = group_from_spec("Gm@p=3")
GL2 = group_from_spec("GL:2@p=2")


def unit_rows(indices, ambient, p):
    rows = np.zeros((len(indices), ambient), dtype=np.int64)
    for r, i in enumerate(indices):
        rows[r, i] = 1
    return Subspace.from_rows(rows, ambient, p)


# ---------------------------------------------------------------------------
# the reference's own matrices: one dense matrix per right leg, split against
# X matrix by matrix; they share no code with the engine's Coaction

def coefficient_matrices(m):
    """One dim x dim matrix per support monomial h: B_h[j,i] = coeff of h in f_{ji}."""
    mats = {}
    for (j, i), f in m.coeffs.items():
        for mono, c in f.coeffs.items():
            if mono not in mats:
                mats[mono] = np.zeros((m.dim, m.dim), dtype=np.int64)
            mats[mono][j, i] = c
    return mats


def coproduct_matrices(g, monos):
    """B_h[a, k] = coeff of l_a (x) h in Delta(monos[k]); stray left legs
    l_a outside span(monos) are the rows past len(monos)."""
    index = {m: i for i, m in enumerate(monos)}
    terms = []
    for k, m in enumerate(monos):
        for (a, b), c in g.coproduct_mono(m).items():
            terms.append((b, index.setdefault(a, len(index)), k, c))
    mats = {}
    for b, row, k, c in terms:
        if b not in mats:
            mats[b] = np.zeros((len(index), len(monos)), dtype=np.int64)
        mats[b][row, k] = c % g.p
    return mats


def dense_split(g, mats, x, n):
    """(inside n x n matrices, outside nonzero rows) of `mats` against X."""
    p = g.p
    if isinstance(x, CanonicalLevel):
        inside = [b for h, b in mats.items() if g.degree(h) <= x.d]
        outside = [b for h, b in mats.items() if g.degree(h) > x.d]
    else:
        rows = next(iter(mats.values())).shape[0] if mats else n
        zero = np.zeros((rows, n), dtype=np.int64)
        inside = [mats.get(x.monos[c], zero) for c in x.space.pivots]
        span, pivots = set(x.monos), set(x.space.pivots)
        outside = [b for h, b in mats.items() if h not in span]
        for c, h in enumerate(x.monos):
            if c in pivots:
                continue
            resid = mats.get(h, zero)
            for s, piv_mat in enumerate(inside):
                coef = int(x.space.basis[s, c])
                if coef:
                    resid = (resid - coef * piv_mat) % p
            outside.append(resid)
    outside = np.vstack([np.zeros((0, n), dtype=np.int64), *outside,
                         *(b[n:] for b in inside)])
    return [b[:n] for b in inside], outside[outside.any(axis=1)]


def as_coaction(mats):
    """Hand dense matrices B_h, one shape for all, to the engine."""
    stack = np.stack(list(mats.values()))
    leg, row, col = np.nonzero(stack)
    return Coaction(list(mats), leg, row, col, stack[leg, row, col], stack.shape[1])


def as_dense(co, n):
    """The (height, n) matrices B_h of a Coaction, one per leg."""
    mats = {h: np.zeros((co.height, n), dtype=np.int64) for h in co.legs}
    for k, j, i, c in zip(co.leg, co.row, co.col, co.val):
        mats[co.legs[k]][j, i] = c
    return mats


def sorted_rows(a):
    return sorted(map(tuple, np.asarray(a).tolist()))


def test_coefficient_matrices():
    m = regular(GA2, 1)  # Delta(1) = 1(x)1, Delta(t) = 1(x)t + t(x)1
    for mats in (coefficient_matrices(m), as_dense(coaction(m), m.dim)):
        assert set(mats) == {0, 1}
        assert mats[0].tolist() == [[1, 0], [0, 1]]
        assert mats[1].tolist() == [[0, 1], [0, 0]]


@pytest.mark.parametrize("spec, text", [
    ("Ga@p=2", "regular(3)"), ("Gm@p=3", "tensor(regular(2),dual(regular(2)))"),
    ("GL:2@p=5", "tensor(natural,detpow(-1))"), ("SL:2@p=3", "sym(3,natural)"),
    ("U:3@p=3", "dual(regular(2))"),
])
def test_coaction_holds_the_nonzero_rows_of_the_dense_matrices(spec, text):
    g = group_from_spec(spec)
    m = build_module(text, g)
    co = coaction(m)
    mats = coefficient_matrices(m)
    assert co.legs == list(mats)
    assert {h: b.tolist() for h, b in as_dense(co, m.dim).items()} == \
        {h: b.tolist() for h, b in mats.items()}
    # only nonzero entries, one per position
    assert co.val.all()
    assert len(set(zip(co.leg.tolist(), co.row.tolist(), co.col.tolist()))) == co.val.size
    for d in range(3):
        # level d without its last monomial, so that Delta has stray legs
        monos = g.filtration_basis(d)[: -1 if d else None]
        got = as_dense(coproduct_coaction(g, monos), len(monos))
        assert {h: b.tolist() for h, b in got.items()} == \
            {h: b.tolist() for h, b in coproduct_matrices(g, monos).items() if b.any()}


def test_restrict_regular_ga():
    m = regular(GA2, 3)
    for d in range(4):
        res = restrict(m, CanonicalLevel(GA2, d))
        assert res.dim == d + 1
        # the level is the span of 1, t, ..., t^d in the basis ordering
        assert res.subspace == unit_rows(range(d + 1), 4, 2)
        assert res.comodule.validate().ok


def test_restrict_regular_gm_weight_spans():
    for n in range(4):
        m = regular(GM3, n)
        basis = GM3.filtration_basis(n)
        for d in range(5):
            res = restrict(m, CanonicalLevel(GM3, d))
            keep = [i for i, k in enumerate(basis) if abs(k) <= min(n, d)]
            assert res.subspace == unit_rows(keep, m.dim, 3)


def test_restrict_twisted_extension():
    # V (+) V^(1) with V the dual of the 2-dim regular truncation: at level 1
    # the twisted copy contributes only its socle
    v = dual(regular(GA2, 1))
    m = direct_sum(v, frobenius_twist(v, 1))
    assert restrict(m, CanonicalLevel(GA2, 1)).dim == 3
    assert restrict(m, CanonicalLevel(GA2, 2)).dim == 4


def test_restrict_explicit_subspace_matches_canonical():
    m = regular(GA2, 2)
    x = ExplicitSubspace.from_elements(GA2, [GA2.one(), GA2.element({1: 1})])
    res = restrict(m, x)
    assert res.subspace == restrict(m, CanonicalLevel(GA2, 1)).subspace


def test_restrict_without_unit_can_vanish():
    m = regular(GA2, 2)
    x = ExplicitSubspace.from_elements(GA2, [GA2.element({1: 1})])
    res = restrict(m, x)
    assert res.dim == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, text", [("GL:2@p=3", "sym(2,natural)"),
                                        ("SL:2@p=2", "natural")])
def test_restrict_to_the_coefficient_space_keeps_all_of_m(spec, text):
    # X = span{f_ji} does not contain 1, yet every f_ji lies in X, so M_X = M
    g = group_from_spec(spec)
    m = build_module(text, g)
    x = ExplicitSubspace.from_elements(g, list(m.coeffs.values()))
    assert x.unit_coords() is None
    res = restrict(m, x)
    assert res.subspace == Subspace.full(m.dim, g.p)
    assert res.comodule.coeffs == m.coeffs


def test_the_unit_is_read_off_the_row_pivoted_at_its_column():
    # the pivot lookup agrees with the membership test of 1's standard vector
    def both(x):
        vec = np.array([m == x.group.one_mono() for m in x.monos], dtype=np.int64)
        want = x.space.coords(vec) if vec.any() else None
        got = x.unit_coords()
        assert (got is None) == (want is None)
        assert got is None or got.tolist() == want.tolist()
        return got

    for spec in ("Ga@p=2", "Gm@p=3", "GL:2@p=2", "SL:2@p=3", "U:3@p=2", "M:2@p=5"):
        g = group_from_spec(spec)
        for d in range(3):
            n = g.filtration_dim(d)
            assert both(ExplicitSubspace.canonical(g, d)).tolist() == [1] + [0] * (n - 1)
            # 1 not the first monomial
            x = ExplicitSubspace(g, g.filtration_basis(d)[::-1], Subspace.full(n, g.p))
            assert both(x).tolist() == [0] * (n - 1) + [1]
    # span{1, t + t^2} holds 1; span{1 + t, t^2} pivots at 1's column
    # without holding it; span{t + 1} over the columns (t, 1) does not pivot there
    assert both(ExplicitSubspace.from_elements(
        GA2, [GA2.one(), GA2.element({1: 1, 2: 1})])).tolist() == [1, 0]
    assert both(ExplicitSubspace.from_elements(
        GA2, [GA2.element({0: 1, 1: 1}), GA2.element({2: 1})])) is None
    assert both(ExplicitSubspace(GA2, [1, 0], Subspace.from_rows([[1, 1]], 2, 2))) is None
    # 1 not first, in a proper subspace: the monomials (t^2, 1, t), rows t^2 and 1
    assert both(ExplicitSubspace(GA2, [2, 0, 1], unit_rows([0, 1], 3, 2))).tolist() == [0, 1]


def test_restrict_rejects_mismatched_group():
    with pytest.raises(ValueError):
        restrict(regular(GA2, 1), CanonicalLevel(GM3, 1))


def test_filtration_dims_and_stabilization():
    res = filtration_dims(natural(GL2), 3)
    assert res.dims == [0, 2, 2, 2] and res.stabilized_at == 1
    res = filtration_dims(trivial(GA2), 2)
    assert res.dims == [1, 1, 1] and res.stabilized_at == 0
    res = filtration_dims(build_module("primitives", GA2), 8)
    assert res.dims == [1, 1, 2, 2, 3, 3, 3, 3, 4]
    assert res.stabilized_at is None  # streams have no finite stabilization


def test_filtration_result_reads_back_as_its_fields():
    res = filtration_dims(natural(GL2), 3)
    assert repr(res) == "FiltrationResult(dims=[0, 2, 2, 2], stabilized_at=1)"


def test_filtration_dims_builds_one_coaction_per_comodule(monkeypatch):
    built = []

    def counted(m):
        if m._coaction is None:
            built.append(m)
        return coaction(m)

    monkeypatch.setattr(filtration, "coaction", counted)
    m = regular(GA2, 3)
    assert filtration_dims(m, 4).dims == [restrict(m, CanonicalLevel(GA2, d)).dim
                                          for d in range(5)]
    # built by filtration_dims, then shared by its five levels and the five
    # restrict calls; the arrays are shared, so they are read-only
    assert built == [m]
    co = coaction(m)
    assert not any(a.flags.writeable for a in (co.leg, co.row, co.col, co.val))
    with pytest.raises(ValueError):
        co.val[0] = 1
    built.clear()
    # primitives over Ga@p=2 needs generations 0, 0, 1, 1, 2, 2, 2, 2, 3 for d <= 8
    stream = build_module("primitives", GA2)
    assert filtration_dims(stream, 8).dims == [1, 1, 2, 2, 3, 3, 3, 3, 4]
    assert built == [stream.generate(n) for n in range(4)]


def test_dims_and_containment_build_no_induced_comodule(monkeypatch):
    def refuse(*args):
        raise AssertionError("an induced comodule was built")

    monkeypatch.setattr(filtration, "_induced_comodule", refuse)
    assert filtration_dims(regular(GA2, 3), 4).dims == [1, 2, 3, 4, 4]
    assert filtration_dims(build_module("primitives", GA2), 4).dims == [1, 1, 2, 2, 3]
    gl = group_from_spec("GL:2@p=5")
    rep = tensor_containment(natural(gl), natural(gl), CanonicalLevel(gl, 2))
    assert rep == {"lhs_dim": 4, "rhs_dim": 4, "contained": True}


def test_the_axiom_scan_runs_once_per_comodule(monkeypatch):
    scanned = []
    validate = Comodule.validate

    def counted(m):
        if m._report is None:
            scanned.append(m)
        return validate(m)

    monkeypatch.setattr(Comodule, "validate", counted)
    m = regular(GA2, 3)
    filtration_dims(m, 4)
    assert scanned == [m]
    # a comodule read at 0 < V < M is scanned; at V = M it carries M's report
    restrict(m, CanonicalLevel(GA2, 1)).comodule
    restrict(m, CanonicalLevel(GA2, 3)).comodule
    assert scanned[0] is m and len(scanned) == 2
    scanned.clear()
    # primitives over Ga@p=2 needs generations 0, 0, 1, 1, 2, 2, 2, 2, 3 for d <= 8
    stream = build_module("primitives", GA2)
    filtration_dims(stream, 8)
    assert scanned == [stream.generate(n) for n in range(4)]


STREAM_CASES = [
    ("Ga@p=3", lambda g: polyaffine(g, 2)),
    ("Ga@p=2", primitives),
    ("Ga@p=3", translationinvariants),
    ("GL:2@p=2", lambda g: twiststream(g, 1)),
    ("U:3@p=2", regular_stream),
    ("SL:2@p=3", regular_stream),
]


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [3, 1, 4, 0, 2]], ids=str)
@pytest.mark.parametrize("spec, make", STREAM_CASES, ids=[s for s, _ in STREAM_CASES])
def test_a_generation_extends_its_prefixs_coaction_to_what_a_gather_builds(spec, make, order):
    g = group_from_spec(spec)
    st = make(g)
    for n in order:
        gen = st.generate(n)
        co = coaction(gen)
        want = filtration._gather([(h, j, i, c) for (j, i), f in gen.coeffs.items()
                                   for h, c in f.coeffs.items()], gen.dim)
        assert co.legs == want.legs and co.height == want.height == gen.dim
        for got, ref in zip((co.leg, co.row, co.col, co.val),
                            (want.leg, want.row, want.col, want.val)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (spec, n)
        # a prefix's leg degrees, filled in by a canonical split, are extended
        if gen._prefix is not None and gen._prefix._coaction.degrees is not None:
            assert co.degrees.tolist() == [g.degree(h) for h in co.legs]
        restrict(gen, CanonicalLevel(g, 1))


def test_a_stream_gathers_and_codes_each_column_once(monkeypatch):
    gathered = []
    gather = filtration._gather
    monkeypatch.setattr(filtration, "_gather",
                        lambda entries, *a: gathered.append(len(entries)) or gather(entries, *a))
    stream = build_module("polyaffine(3)", GA2)
    assert filtration_dims(stream, 7).dims == [1, 4, 10, 20, 35, 56, 84, 120]
    # generation 7 has 983 entries; gathering each generation from scratch
    # took 2,134
    assert sum(gathered) == len(coaction(stream.generate(7)).val) == 983
    # every generation's scan shares one set of codes, so each column is
    # coded once
    gens = [stream.generate(n) for n in range(8)]
    assert all(gen._codes is gens[0]._codes for gen in gens)
    assert sorted(gens[0]._codes[1]) == list(range(120))


def test_restrict_rejects_a_module_that_is_not_a_comodule():
    # f_00 = t over Ga@p=2: epsilon(t) = 0, so the counit axiom fails at 0
    m = Comodule(GA2, ["a"], [{0: GA2.element({1: 1})}])
    with pytest.raises(InternalInvariantError, match="counit axiom at basis index 0"):
        restrict(m, CanonicalLevel(GA2, 1))


def test_the_induced_comodule_is_built_on_first_read(monkeypatch):
    m = regular(GA2, 3)
    mats = coefficient_matrices(m)
    t = ExplicitSubspace.from_elements(GA2, [GA2.element({1: 1})])
    results = [restrict(m, x) for x in (t, CanonicalLevel(GA2, 1), CanonicalLevel(GA2, 3))]
    assert [r.dim for r in results] == [0, 2, 4]  # V = 0, 0 < V < M, V = M
    for res in results:
        assert "comodule" not in vars(res)
        assert res.comodule == reference_induced(m, res.subspace, mats)
        assert res.comodule is res.comodule
    # at V = M the induced comodule is M's columns, read without a product
    monkeypatch.setattr(filtration, "_images", None)
    full = restrict(m, CanonicalLevel(GA2, 4))
    assert full.comodule.coeffs == m.coeffs and full.comodule.validate().ok


def test_filtration_dims_monotone():
    for g, text in [(GA2, "regular(3)"), (GM3, "dual(regular(2))"),
                    (GL2, "sym(2,natural)"), (GA2, "translationinvariants")]:
        dims = filtration_dims(build_module(text, g), 5).dims
        assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_restrict_is_functorial_for_inclusions():
    # M_X of a direct summand sits inside M_X of the sum
    a, b = regular(GM3, 1), dual(regular(GM3, 2))
    s = direct_sum(a, b)
    for d in range(3):
        ra = restrict(a, CanonicalLevel(GM3, d)).subspace
        rs = restrict(s, CanonicalLevel(GM3, d)).subspace
        for row in ra.basis:
            padded = np.concatenate([row, np.zeros(b.dim, dtype=np.int64)])
            assert rs.contains(padded)


# ---------------------------------------------------------------------------
# the fixpoint against a reference: one preimage and one intersection per
# inside monomial, iterated until nothing changes

def reference_fixpoint(g, mats, x, start):
    inside, outside = dense_split(g, mats, x, start.ambient_dim)
    v = start
    if len(outside):
        v = v.intersect(kernel(outside, g.p))
    while True:
        nxt = v
        for b in inside:
            nxt = nxt.intersect(preimage(b, nxt))
        if nxt == v:
            return v
        v = nxt


def reference_induced(m, v, mats):
    """The coaction on V's basis, one coordinate vector at a time."""
    g = m.group
    coaction = []
    for vec in v.basis:
        col = {}
        for h, b in mats.items():
            cs = v.coords((b @ vec) % g.p)
            for j in np.nonzero(cs)[0]:
                col[int(j)] = col.get(int(j), g.zero()) + g.element({h: int(cs[j])})
        coaction.append(col)
    return Comodule(g, [f"v{a + 1}" for a in range(v.dim)], coaction)


def explicit_levels(g, d):
    """Level d without its last basis monomial, and with one of degree d+1."""
    monos = g.filtration_basis(d)
    extra = g.filtration_basis(d + 1)[len(monos)]
    return [ExplicitSubspace(g, monos[:-1], Subspace.full(len(monos) - 1, g.p)),
            ExplicitSubspace(g, monos + [extra], Subspace.full(len(monos) + 1, g.p))]


@pytest.mark.parametrize("spec, text", [
    ("Ga@p=2", "regular(3)"),
    ("Gm@p=3", "tensor(regular(2),dual(regular(2)))"),
    ("U:3@p=3", "regular(3)"),
    ("GL:2@p=2", "regular(3)"),
    ("SL:2@p=3", "sym(3,natural)"),
])
def test_restrict_matches_the_per_monomial_fixpoint(spec, text):
    g = group_from_spec(spec)
    m = build_module(text, g)
    mats = coefficient_matrices(m)
    levels = [CanonicalLevel(g, d) for d in range(4)] + explicit_levels(g, 1)
    for x in levels:
        res = restrict(m, x)
        want = reference_fixpoint(g, mats, x, Subspace.full(m.dim, g.p))
        assert res.subspace == want, (spec, text, x)
        assert res.comodule == reference_induced(m, want, mats)


def test_restrict_matches_the_per_monomial_fixpoint_on_explicit_subspaces():
    # span{1, t, t^2 + t^4} over F_3, and level 1 of GL(2) plus a sum
    ga3 = regular(GA3, 4)
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({1: 1}),
                                             GA3.element({2: 1, 4: 1})])
    gl = regular(GL2, 2)
    level = GL2.filtration_basis(1)
    top = GL2.filtration_basis(2)[len(level):]
    y = ExplicitSubspace.from_elements(
        GL2, [GL2.element({h: 1}) for h in level] + [GL2.element({top[0]: 1, top[-1]: 1})])
    # the same X over GL(2) at p = 2^31 - 1, its last vector with entries near p
    big = group_from_spec(f"GL:2@p={2**31 - 1}")
    z = ExplicitSubspace.from_elements(
        big, [big.element({h: 1}) for h in level]
        + [big.element({top[0]: 1, top[1]: -1, top[-1]: -2})])
    dims = []
    for m, w in ((ga3, x), (gl, y), (regular(big, 2), z)):
        want = reference_fixpoint(m.group, coefficient_matrices(m), w,
                                  Subspace.full(m.dim, m.group.p))
        assert restrict(m, w).subspace == want
        dims.append(want.dim)
    # Delta(t^2 + t^4) has the leg t (x) (2t + t^3), and t^3 is not in X
    assert dims[0] == 2


@pytest.mark.parametrize("spec", ["GL:2@p=2", "U:3@p=2", "SL:2@p=65521"])
def test_closure_matches_the_per_monomial_fixpoint(spec):
    g = group_from_spec(spec)
    for d in range(4):
        for x in [ExplicitSubspace.canonical(g, d), *explicit_levels(g, d)]:
            want = reference_fixpoint(g, coproduct_matrices(g, x.monos), x, x.space)
            got = coalgebra_closure(g, x)
            assert got.subspace.space == want, (spec, d, x.monos)
            assert got.is_subcoalgebra


def assert_same_split(g, co, mats, x, n):
    inside, (r, i, vals) = filtration._split(g, co, x, n)
    want_inside, want_outside = dense_split(g, mats, x, n)
    got = as_dense(inside, n)
    assert [got[h].tolist() for h in inside.legs] == [b.tolist() for b in want_inside]
    # the outside triples are summed: one nonzero entry per position; their
    # rows, filled in, are the outside matrices' nonzero rows
    assert vals.all() and np.unique(r * n + i).size == r.size
    ids, row = np.unique(r, return_inverse=True)
    outside = np.zeros((ids.size, n), dtype=np.int64)
    outside[row, i] = vals
    assert sorted_rows(outside) == sorted_rows(want_outside)


def test_split_matches_the_dense_split():
    for spec, text in [("Ga@p=3", "regular(4)"), ("GL:2@p=2", "regular(2)"),
                       ("SL:2@p=3", "sym(3,natural)")]:
        g = group_from_spec(spec)
        m = build_module(text, g)
        co, mats = coaction(m), coefficient_matrices(m)
        for x in [CanonicalLevel(g, 1), *explicit_levels(g, 1)]:
            assert_same_split(g, co, mats, x, m.dim)
    # span{1, t, t^2 + t^4} over F_3: t^4 is a non-pivot column
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({1: 1}),
                                             GA3.element({2: 1, 4: 1})])
    assert x.space.pivots == (0, 1, 2)
    m = regular(GA3, 4)
    assert_same_split(GA3, coaction(m), coefficient_matrices(m), x, m.dim)
    # the coproduct against levels with stray legs and non-pivot columns
    for spec in ["GL:2@p=2", "U:3@p=3"]:
        g = group_from_spec(spec)
        for x in explicit_levels(g, 2):
            assert_same_split(g, coproduct_coaction(g, x.monos),
                              coproduct_matrices(g, x.monos), x, len(x.monos))
            y = coalgebra_closure(g, x).subspace
            assert_same_split(g, coproduct_coaction(g, y.monos),
                              coproduct_matrices(g, y.monos), y, len(y.monos))


def test_split_and_fixpoint_are_exact_at_a_large_prime():
    # p = 2^31 - 1: a product of two entries near p is below 2^62, but the
    # residual of the non-pivot column 4 sums three such products, past 2^63
    p = 2**31 - 1
    g = group_from_spec(f"Ga@p={p}")
    rng = np.random.default_rng(3)
    near = lambda size: p - 1 - rng.integers(0, 50, size=size)
    basis = np.hstack([np.eye(4, dtype=np.int64), near((4, 1)),
                       np.zeros((4, 1), dtype=np.int64)])
    basis[0, 4] = 0  # B_0 = I must not enter the residual, or M_X = 0
    x = ExplicitSubspace(g, [0, 1, 2, 3, 4, 5], Subspace(6, p, basis, (0, 1, 2, 3)))
    n = 8
    mats = {h: np.zeros((n + 1, n), dtype=np.int64) for h in (0, 1, 2, 3, 4, 6)}
    mats[0][:n] = np.eye(n, dtype=np.int64)
    for h in (1, 2, 3):
        mats[h][0, :2] = near(2)  # three pivots meet at row 0
    mats[3][n, 5] = 1             # a stray row past n
    mats[4][0, :3] = near(3)
    mats[6][7, 6] = 1             # a leg outside X's span
    assert_same_split(g, as_coaction(mats), mats, x, n)
    start = Subspace.full(n, p)
    v, _, _ = filtration._greatest_fixpoint(g, as_coaction(mats), x, start)
    want = reference_fixpoint(g, mats, x, start)
    assert v == want and 0 < want.dim < n


def test_fixpoint_iterates_until_nothing_shrinks():
    # A coassociative coaction settles after one shrinking pass; plain
    # matrices need not.  S shifts e0 -> e1 -> e2 -> e3 and the outside
    # matrix O is nonzero only on e3, so V starts as span{e0, e1, e2, e4}
    # and each pass drops the next vector of the chain: e2, e1, then e0.
    shift = np.zeros((5, 5), dtype=np.int64)
    shift[[1, 2, 3], [0, 1, 2]] = 1
    kill = np.zeros((5, 5), dtype=np.int64)
    kill[0, 3] = 1
    mats = {0: np.eye(5, dtype=np.int64), 1: shift, 2: kill}
    x, start = CanonicalLevel(GA2, 1), Subspace.full(5, 2)
    v, iterations, _ = filtration._greatest_fixpoint(GA2, as_coaction(mats), x, start)
    assert v == reference_fixpoint(GA2, mats, x, start) == unit_rows([4], 5, 2)
    assert iterations == 4


def assert_images_match(co, mats, v):
    """`_images` against B_h V^T from the dense matrices: W's and the
    residual's entries are nonzero, one per position; scattered back into
    (n, legs, dim V) W is every image, zero or not, and the residual is
    W - V^T W[pivots], whose pivot rows are zero."""
    (r, a, vals), (rr, ra, rv) = filtration._images(co, v)
    legs = len(co.legs)
    for rows, cols, x in ((r, a, vals), (rr, ra, rv)):
        assert x.all() and np.unique(rows * v.dim + cols).size == rows.size
    dense = np.zeros((co.height * legs, v.dim), dtype=np.int64)
    dense[r, a] = vals
    basis = v.basis.T.astype(object)  # exact at any p
    want = np.stack([(mats[h].astype(object) @ basis) % v.p for h in co.legs], axis=1)
    assert dense.reshape(co.height, legs, v.dim).tolist() == want.tolist()
    want = want.reshape(co.height, legs * v.dim)
    want[:v.ambient_dim] -= basis @ want[list(v.pivots)]
    resid = np.zeros((co.height * legs, v.dim), dtype=np.int64)
    resid[rr, ra] = rv
    assert resid.reshape(co.height, legs * v.dim).tolist() == (want % v.p).tolist()
    assert not (want[list(v.pivots)] % v.p).any()


def test_images_keep_only_the_nonzero_columns():
    rng = np.random.default_rng(5)
    # regular levels: M_X, and a random V that mixes basis vectors
    for spec, d in [("GL:2@p=2", 3), ("U:3@p=3", 3), ("SL:2@p=65521", 2)]:
        g = group_from_spec(spec)
        m = regular(g, d)
        co, mats = coaction(m), coefficient_matrices(m)
        for k in range(d + 1):
            assert_images_match(co, mats, restrict(m, CanonicalLevel(g, k)).subspace)
        rows = rng.integers(0, g.p, size=(3, m.dim))
        assert_images_match(co, mats, Subspace.from_rows(rows, m.dim, g.p))
    # an explicit X: the coproduct on span{1, t, t^2 + t^4}, with stray legs
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({1: 1}),
                                             GA3.element({2: 1, 4: 1})])
    co = coproduct_coaction(GA3, x.monos)
    assert co.height > len(x.monos)
    assert_images_match(co, coproduct_matrices(GA3, x.monos), x.space)
    # p = 2^31 - 1, entries near p, V with a non-pivot column
    p = 2**31 - 1
    near = lambda size: p - 1 - rng.integers(0, 50, size=size)
    mats = {h: np.zeros((6, 5), dtype=np.int64) for h in range(3)}
    mats[0][:5] = np.eye(5, dtype=np.int64)
    mats[1][[0, 2, 5]] = near((3, 5))
    mats[2][4, :2] = near(2)
    basis = np.hstack([np.eye(3, dtype=np.int64), near((3, 2))])
    assert_images_match(as_coaction(mats), mats, Subspace(5, p, basis, (0, 1, 2)))


def test_the_fixpoint_allocates_no_dense_image_array():
    # level 2 of GL(3)'s regular(3): the certificate's images of V (dim 55)
    # under all 221 legs would fill a (221, 221, 55) int64 array, 21 MB
    g = group_from_spec("GL:3@p=2")
    m = regular(g, 3)
    co = coaction(m)
    assert m.validate().ok
    tracemalloc.start()
    try:
        res = restrict(m, CanonicalLevel(g, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.dim, len(co.legs), res.dim) == (221, 221, 55)
    assert peak < m.dim * len(co.legs) * res.dim * 8


def test_the_closure_allocates_no_dense_coaction_or_image_array():
    # level 4 of SL(3): the coproduct's 23,915 entries fill 16,893 (leg, row)
    # pairs, whose dense (16893, 705) row stack was 91 MiB, and a dense W of
    # the 16,699 nonzero images of X's basis was 90 MiB; about 12 MiB is traced
    g = group_from_spec("SL:3@p=2")
    tracemalloc.start()
    try:
        res = coalgebra_closure(g, CanonicalLevel(g, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.dim, res.is_subcoalgebra) == (705, True)
    assert peak < 32 << 20


def test_restrict_reports_an_escaping_fixpoint(monkeypatch):
    # a kernel that keeps all of V confirms the fixpoint's first V as it
    # stands, and the fixpoint starts from span{t} or span{t^2} in regular(2)
    # over Ga@p=2.  Neither is M_X: Delta(t) has 1 (x) t, so the confirming
    # pass's residual is not empty at level 2, and at level 1 the outside
    # leg t^2 does not vanish on t^2
    m = regular(GA2, 2)
    fixpoint = filtration._greatest_fixpoint
    monkeypatch.setattr(filtration, "sparse_kernel", lambda r, c, v, n, p: Subspace.full(n, p))
    for d, row in [(2, 1), (1, 2)]:
        monkeypatch.setattr(filtration, "_greatest_fixpoint", lambda g, co, x, start, split: (
            fixpoint(g, co, x, unit_rows([row], 3, 2), split)))
        with pytest.raises(InternalInvariantError, match="escapes"):
            restrict(m, CanonicalLevel(GA2, d))


# ---------------------------------------------------------------------------
# coalgebra closure

def test_closure_of_canonical_levels_is_identity():
    for spec in ["Ga@p=2", "Gm@p=3", "U:2@p=2", "SL:2@p=3", "GL:2@p=2"]:
        g = group_from_spec(spec)
        for d in range(4):
            res = coalgebra_closure(g, CanonicalLevel(g, d))
            assert res.dim == g.filtration_dim(d)
            assert res.is_subcoalgebra


LADDER_CASES = [("Ga@p=2", 6), ("Ga@p=3", 6), ("Gm@p=3", 4), ("GL:2@p=2", 3),
                ("SL:2@p=3", 3), ("SL:3@p=2", 3), ("U:3@p=2", 3), ("M:2@p=5", 3)]


def assert_same_closure(got, want):
    assert got.subspace.monos == want.subspace.monos
    assert got.subspace.space == want.subspace.space
    assert got.subspace.space.pivots == want.subspace.space.pivots
    assert got.is_subcoalgebra == want.is_subcoalgebra
    if want.is_subcoalgebra:
        assert np.array_equal(got.delta_matrix, want.delta_matrix)


@pytest.mark.parametrize("spec, d_max", LADDER_CASES, ids=[s for s, _ in LADDER_CASES])
def test_the_closure_ladder_is_each_levels_closure(spec, d_max, monkeypatch):
    g = group_from_spec(spec)
    built = []
    closure = filtration.coalgebra_closure
    monkeypatch.setattr(filtration, "coalgebra_closure",
                        lambda g, x: built.append(x.d) or closure(g, x))
    ladder = closure_ladder(g, d_max)
    monkeypatch.undo()
    # the top level is built once, and every level below is sliced off it
    assert built == [d_max] and len(ladder) == d_max + 1
    top = ladder[-1].subspace.space.basis
    for d, got in enumerate(ladder):
        assert_same_closure(got, coalgebra_closure(g, CanonicalLevel(g, d)))
        assert got.dim == g.filtration_dim(d) and got.is_subcoalgebra
        assert np.shares_memory(got.subspace.space.basis, top)


@pytest.mark.parametrize("d_max, closed", [(3, [3, 1]), (1, [1, 0])])
def test_a_level_whose_coproduct_leaks_is_closed_as_coalgebra_closure_does(
        d_max, closed, monkeypatch):
    # Delta(t) over Ga@p=3 given the leg 1 (x) t^2 of degree 2: level 1 fails
    # the certificate and is closed on its own.  At d_max = 1 the top level
    # itself is not a sub-coalgebra, so no level is sliced off it
    g = GA3
    leaky = dict(g.coproduct_mono(1))
    leaky[(0, 2)] = 1
    monkeypatch.setitem(g._delta, 1, leaky)
    built = []
    closure = filtration.coalgebra_closure
    monkeypatch.setattr(filtration, "coalgebra_closure",
                        lambda g, x: built.append(x.d) or closure(g, x))
    ladder = closure_ladder(g, d_max)
    assert built == closed
    monkeypatch.setattr(filtration, "coalgebra_closure", closure)
    for d, got in enumerate(ladder):
        assert_same_closure(got, coalgebra_closure(g, CanonicalLevel(g, d)))
    # t leaves level 1: its closure is k.1
    assert [res.dim for res in ladder] == [1, 1, 3, 4][:d_max + 1]


def test_closure_drops_unstable_vectors():
    # span{1, t^2} over F_3: Delta(t^2) needs t, so the closure is span{1}
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({2: 1})])
    res = coalgebra_closure(GA3, x)
    assert res.dim == 1
    assert res.subspace.elements() == [GA3.one()]
    assert res.is_subcoalgebra
    # in characteristic 2 the same span is a sub-coalgebra (t^2 is primitive)
    x2 = ExplicitSubspace.from_elements(GA2, [GA2.one(), GA2.element({2: 1})])
    assert coalgebra_closure(GA2, x2).dim == 2


def test_closure_splits_the_coproduct_again_only_when_it_shrinks_x(monkeypatch):
    calls = []
    split = filtration._split
    monkeypatch.setattr(filtration, "_split", lambda *a: calls.append(a) or split(*a))
    for spec in ["Ga@p=2", "U:2@p=2", "SL:2@p=3", "GL:2@p=2"]:
        g = group_from_spec(spec)
        for d in range(3):
            calls.clear()
            assert coalgebra_closure(g, CanonicalLevel(g, d)).is_subcoalgebra
            assert len(calls) == 1
    # span{1, t^2} over F_3 shrinks to span{1}, which is split against itself
    calls.clear()
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({2: 1})])
    res = coalgebra_closure(GA3, x)
    assert res.subspace.elements() == [GA3.one()] and res.is_subcoalgebra
    assert len(calls) == 2 and calls[1][2].space == res.subspace.space


def test_closure_is_idempotent():
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({2: 1}),
                                             GA3.element({4: 1})])
    once = coalgebra_closure(GA3, x)
    twice = coalgebra_closure(GA3, once.subspace)
    assert once.subspace.space == twice.subspace.space


def test_closure_hands_on_the_structure_constants_of_its_check(monkeypatch):
    # the sub-coalgebra check reads D's coordinates, and the result keeps them
    def unbuilt(*args):
        raise AssertionError("structure constants built again")

    g = group_from_spec("GL:2@p=2")
    xs = [ExplicitSubspace.canonical(g, 2), *explicit_levels(g, 2)]
    monkeypatch.setattr(filtration, "structure_constants", unbuilt)
    results = [coalgebra_closure(g, x) for x in xs]
    monkeypatch.undo()
    for x, res in zip(xs, results):
        assert res.is_subcoalgebra
        want = structure_constants(g, x.monos, res.subspace.space)
        assert np.array_equal(res.delta_matrix, want)


def test_structure_constants_of_ga_level_one():
    # basis b_0 = 1, b_1 = t: Delta(1) = 1 (x) 1, Delta(t) = t (x) 1 + 1 (x) t;
    # each column (a, b, k, value) says value b_a (x) b_b is a term of Delta(b_k)
    delta = structure_constants(GA2, [0, 1], Subspace.full(2, 2))
    assert delta.T.tolist() == [[0, 0, 0, 1],   # 1 (x) 1 in Delta(1)
                                [0, 1, 1, 1],   # 1 (x) t in Delta(t)
                                [1, 0, 1, 1]]   # t (x) 1 in Delta(t)


def test_structure_constants_reject_a_non_subcoalgebra():
    # over F_2, Delta(t^3) has the stray legs t (x) t^2 and t^2 (x) t
    assert structure_constants(GA2, [0, 3], Subspace.full(2, 2)) is None
    # the closure of that span is span{1}, with its one structure constant
    res = coalgebra_closure(GA2, ExplicitSubspace.from_elements(
        GA2, [GA2.one(), GA2.element({3: 1})]))
    assert res.subspace.elements() == [GA2.one()]
    assert res.delta_matrix.T.tolist() == [[0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# tensor compatibility

def test_subspace_tensor_dims():
    u = Subspace.from_rows([[1, 0], [0, 1]], 2, 2)
    v = Subspace.from_rows([[1, 1, 0]], 3, 2)
    w = subspace_tensor(u, v)
    assert w.ambient_dim == 6 and w.dim == 2


def test_tensor_containment_holds_for_natural():
    gl = group_from_spec("GL:2@p=5")
    nat = natural(gl)
    rep = tensor_containment(nat, nat, CanonicalLevel(gl, 2))
    assert rep["contained"] and rep["lhs_dim"] == 4 and rep["rhs_dim"] == 4


def test_tensor_containment_det_pair_discrepancy():
    gl = group_from_spec("GL:2@p=5")
    pos = build_module("detpow(1)", gl)
    neg = build_module("detpow(-1)", gl)
    rep = tensor_containment(pos, neg, CanonicalLevel(gl, 1))
    # the documented discrepancy: the tensor is trivial (level-1 comodule)
    # while neither factor survives at level 1
    assert rep == {"lhs_dim": 1, "rhs_dim": 0, "contained": False}
