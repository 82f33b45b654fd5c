"""Greatest-fixed-point filtration M_X and the coalgebra closure O(G)_X."""

import numpy as np
import pytest

from comodfilt.comodules import (build_module, direct_sum, dual, frobenius_twist,
                                 natural, regular, trivial)
from comodfilt.coordalg import group_from_spec
from comodfilt.filtration import (CanonicalLevel, ExplicitSubspace,
                                  coalgebra_closure, coefficient_matrices,
                                  filtration_dims, restrict, structure_constants,
                                  subspace_tensor, tensor_containment)
from comodfilt.linalg import Subspace

GA2 = group_from_spec("Ga@p=2")
GA3 = group_from_spec("Ga@p=3")
GM3 = group_from_spec("Gm@p=3")
GL2 = group_from_spec("GL:2@p=2")


def unit_rows(indices, ambient, p):
    rows = np.zeros((len(indices), ambient), dtype=np.int64)
    for r, i in enumerate(indices):
        rows[r, i] = 1
    return Subspace.from_rows(rows, ambient, p)


def test_coefficient_matrices():
    m = regular(GA2, 1)  # Delta(1) = 1(x)1, Delta(t) = 1(x)t + t(x)1
    mats = coefficient_matrices(m)
    assert set(mats) == {0, 1}
    assert mats[0].tolist() == [[1, 0], [0, 1]]
    assert mats[1].tolist() == [[0, 1], [0, 0]]


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


def test_restrict_without_unit_warns_and_vanishes():
    m = regular(GA2, 2)
    x = ExplicitSubspace.from_elements(GA2, [GA2.element({1: 1})])
    with pytest.warns(UserWarning):
        res = restrict(m, x)
    assert res.dim == 0


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
# coalgebra closure

def test_closure_of_canonical_levels_is_identity():
    for spec in ["Ga@p=2", "Gm@p=3", "U:2@p=2", "SL:2@p=3", "GL:2@p=2"]:
        g = group_from_spec(spec)
        for d in range(4):
            res = coalgebra_closure(g, CanonicalLevel(g, d))
            assert res.dim == g.filtration_dim(d)
            assert res.is_subcoalgebra


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


def test_closure_is_idempotent():
    x = ExplicitSubspace.from_elements(GA3, [GA3.one(), GA3.element({2: 1}),
                                             GA3.element({4: 1})])
    once = coalgebra_closure(GA3, x)
    twice = coalgebra_closure(GA3, once.subspace)
    assert once.subspace.space == twice.subspace.space


def test_structure_constants_of_ga_level_one():
    # basis b_0 = 1, b_1 = t: Delta(1) = 1 (x) 1, Delta(t) = t (x) 1 + 1 (x) t;
    # row a*2 + b holds the coefficient of b_a (x) b_b
    delta = structure_constants(GA2, [0, 1], Subspace.full(2, 2))
    assert delta.tolist() == [[1, 0],   # 1 (x) 1
                              [0, 1],   # 1 (x) t
                              [0, 1],   # t (x) 1
                              [0, 0]]   # t (x) t


def test_structure_constants_reject_a_non_subcoalgebra():
    # over F_2, Delta(t^3) has the stray legs t (x) t^2 and t^2 (x) t
    assert structure_constants(GA2, [0, 3], Subspace.full(2, 2)) is None
    # the closure of that span is span{1}, with its one structure constant
    res = coalgebra_closure(GA2, ExplicitSubspace.from_elements(
        GA2, [GA2.one(), GA2.element({3: 1})]))
    assert res.subspace.elements() == [GA2.one()]
    assert res.delta_matrix.tolist() == [[1]]


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
