"""Comodule constructors, streams, and the module-expression language."""

import os
import random
import re

import pytest

from comodfilt.comodules import (_CONSTRUCTORS, Comodule, ModuleExprError,
                                 StreamModule, ValidationReport,
                                 build_module, detpow, direct_sum, dual,
                                 frobenius_element, frobenius_twist, natural,
                                 parse_module_expr,
                                 polyaffine, primitives, regular,
                                 regular_stream, sym_power, tensor,
                                 translationinvariants, trivial, twiststream)
from comodfilt.coordalg import TensorElement, UnsupportedOperation, group_from_spec

GA2 = group_from_spec("Ga@p=2")
GM3 = group_from_spec("Gm@p=3")
GL2 = group_from_spec("GL:2@p=2")
SL2 = group_from_spec("SL:2@p=3")


# ---------------------------------------------------------------------------
# constructors

def test_trivial_and_natural():
    t = trivial(GA2)
    assert t.dim == 1 and t.coefficient(0, 0) == GA2.one()
    nat = natural(GL2)
    assert nat.dim == 2
    assert nat.coefficient(0, 1) == GL2.element({GL2.gen_mono(0, 1): 1})
    assert nat.validate().ok
    with pytest.raises(UnsupportedOperation):
        natural(GA2)


def test_natural_unitriangular():
    g = group_from_spec("U:3@p=2")
    nat = natural(g)
    assert nat.dim == 3
    assert nat.coefficient(1, 1) == g.one()
    assert nat.coefficient(2, 0) == g.zero()
    assert nat.coefficient(0, 2) == g.element({g.gen_mono(0, 2): 1})
    assert nat.validate().ok


def test_detpow():
    pos = detpow(GL2, 2)
    neg = detpow(GL2, -1)
    assert pos.dim == neg.dim == 1
    assert neg.coefficient(0, 0) == GL2.element({GL2.detinv_mono(): 1})
    assert detpow(GL2, -3).coefficient(0, 0) == GL2.element({((0, 0, 0, 0), 3): 1})
    assert pos.validate().ok and neg.validate().ok
    with pytest.raises(UnsupportedOperation):
        detpow(SL2, 1)


def test_regular_truncations():
    for g, n, want in [(GA2, 3, 4), (GM3, 2, 5), (GL2, 1, 5), (SL2, 1, 5)]:
        m = regular(g, n)
        assert m.dim == want == g.filtration_dim(n)
        assert m.validate().ok
    with pytest.raises(ValueError):
        regular(GA2, -1)


def test_tensor_sum_dims_and_validity():
    a, b = regular(GM3, 1), regular(GM3, 2)
    t = tensor(a, b)
    s = direct_sum(a, b)
    assert t.dim == a.dim * b.dim and s.dim == a.dim + b.dim
    assert t.validate().ok and s.validate().ok
    with pytest.raises(ValueError):
        tensor(a, regular(GA2, 1))


def test_dual_and_double_dual():
    v = dual(regular(GA2, 2))
    assert v.dim == 3 and v.validate().ok
    assert dual(dual(v)).coeffs == v.coeffs  # sigma is an involution
    with pytest.raises(UnsupportedOperation):
        dual(natural(group_from_spec("M:2@p=5")))


def test_frobenius_twist():
    m = regular(GA2, 1)
    tw = frobenius_twist(m, 1)
    # Delta(t) = t (x) 1 + 1 (x) t becomes t (x) 1 + 1 (x) t^2
    assert tw.coefficient(0, 1) == GA2.element({2: 1})
    assert tw.coefficient(1, 1) == GA2.one()
    assert tw.validate().ok
    assert frobenius_twist(m, 0) is m
    tw_gl = frobenius_twist(natural(GL2), 1)
    assert tw_gl.coefficient(0, 0) == GL2.element({(GL2.mat.gen_mono(0, 0), 0): 1}) ** 2
    assert tw_gl.validate().ok


@pytest.mark.parametrize("spec", ["Ga@p=2", "Ga@p=3", "Gm@p=3", "M:2@p=2",
                                  "U:3@p=2", "GL:2@p=2", "GL:2@p=3",
                                  "SL:2@p=2", "SL:2@p=3"])
def test_frobenius_element_is_the_p_power_map(spec):
    # f^(p^r) computed monomialwise agrees with repeated multiplication
    g = group_from_spec(spec)
    rng = random.Random(spec)
    basis = g.filtration_basis(2)
    for r in ([1, 2] if g.p == 2 else [1]):
        for _ in range(3):
            f = g.element({rng.choice(basis): rng.randrange(1, g.p)
                           for _ in range(3)})
            assert frobenius_element(f, r) == f ** (g.p ** r)


def test_direct_sum_of_many_summands():
    a, b, c = regular(GM3, 1), dual(regular(GM3, 1)), trivial(GM3)
    s = direct_sum(a, b, c)
    nested = direct_sum(direct_sum(a, b), c)
    assert s.basis_labels == nested.basis_labels and s.coeffs == nested.coeffs
    for i in range(s.dim):
        assert s.column(i) == {j: f for (j, i2), f in s.coeffs.items() if i2 == i}


def test_sym_power():
    s2 = sym_power(2, natural(GL2))
    assert s2.dim == 3 and s2.validate().ok
    s3 = sym_power(3, natural(SL2))
    assert s3.dim == 4 and s3.validate().ok
    assert sym_power(0, natural(GL2)).dim == 1


def test_validate_reports_failures():
    g = GA2
    broken = Comodule(g, ["a", "b"], [{0: g.one()},
                                      {1: g.one(), 0: g.element({3: 1})}])
    report = broken.validate()
    assert not report.ok and "coassociativity" in report.failures[0]
    broken2 = Comodule(g, ["a"], [{0: g.element({1: 1})}])
    assert "counit" in broken2.validate().failures[0]


# ---------------------------------------------------------------------------
# streams

def test_polyaffine_generations():
    from math import comb
    st = polyaffine(GA2, 2)
    for n in range(4):
        gen = st.generate(n)
        assert gen.dim == comb(2 + n, 2)
        assert gen.validate().ok
    assert st.sufficiency(7) == 7
    assert st.generate(2) is st.generate(2)  # memoized


def test_primitives_generations():
    st = primitives(GA2)
    g1 = st.generate(2)
    assert g1.basis_labels == ["1", "t^2", "t^4"]
    assert g1.validate().ok
    assert [st.sufficiency(d) for d in [1, 2, 3, 4, 8]] == [0, 1, 1, 2, 3]


def test_translationinvariants_generations():
    st = translationinvariants(GA2)
    gen = st.generate(2)
    assert gen.dim == 3 and gen.validate().ok
    # u = t^2 - t is primitive: Delta(u) = u (x) 1 + 1 (x) u
    assert gen.coefficient(0, 1) == GA2.element({2: 1, 1: -1})
    assert st.sufficiency(7) == 3


def test_twiststream_generations():
    st = twiststream(GL2, 1)
    assert st.generate(0).dim == 2          # natural, multiplicity p^0
    assert st.generate(1).dim == 2 + 4      # plus twisted natural, multiplicity p
    assert st.generate(2).dim == 2 + 4 + 8
    assert st.generate(1).validate().ok
    with pytest.raises(UnsupportedOperation):
        twiststream(SL2, 1)


def test_stream_generations_are_nested():
    for st in [polyaffine(GA2, 1), primitives(GA2),
               translationinvariants(GA2), regular_stream(GM3)]:
        small, big = st.generate(2), st.generate(3)
        for (j, i), f in small.coeffs.items():
            assert big.coefficient(j, i) == f


# ---------------------------------------------------------------------------
# the expression language

def test_parse_module_expr():
    assert parse_module_expr("triv") == ("triv",)
    assert parse_module_expr("detpow(-2)") == ("detpow", -2)
    assert parse_module_expr(" tensor( natural , sum(triv, regular(3)) ) ") == \
        ("tensor", ("natural",), ("sum", ("triv",), ("regular", 3)))
    assert parse_module_expr("twist(1,sym(2,natural))") == \
        ("twist", 1, ("sym", 2, ("natural",)))


def test_parse_errors_carry_offsets():
    with pytest.raises(ModuleExprError) as e:
        parse_module_expr("tensor(natural,spam)")
    assert e.value.offset == 15 and "unknown constructor" in str(e.value)
    with pytest.raises(ModuleExprError) as e:
        parse_module_expr("sum(triv triv)")
    assert e.value.offset == 9
    with pytest.raises(ModuleExprError) as e:
        parse_module_expr("regular(2) junk")
    assert "trailing input" in str(e.value)
    with pytest.raises(ModuleExprError):
        parse_module_expr("regular(two)")
    with pytest.raises(ModuleExprError) as e:
        parse_module_expr("triv + triv")
    assert "unexpected character" in str(e.value)


def test_build_module_from_text():
    m = build_module("tensor(natural,detpow(-1))", GL2)
    assert isinstance(m, Comodule) and m.dim == 2 and m.validate().ok
    st = build_module("polyaffine(3)", GA2)
    assert isinstance(st, StreamModule)
    # deterministic: same text, same group, same coaction
    again = build_module("tensor(natural,detpow(-1))", GL2)
    assert again.coeffs == m.coeffs and again.basis_labels == m.basis_labels


def test_build_module_compatibility_errors():
    with pytest.raises(ModuleExprError):
        build_module("natural", GA2)
    with pytest.raises(ModuleExprError):
        build_module("detpow(1)", SL2)
    with pytest.raises(ModuleExprError):
        build_module("primitives", GL2)
    # streams cannot be fed to finite combinators
    for text in ["dual(primitives)", "tensor(triv,polyaffine(1))",
                 "sym(2,translationinvariants)"]:
        with pytest.raises(ModuleExprError):
            build_module(text, GA2)


@pytest.mark.parametrize("expr, message", [
    (("foo",), "unknown constructor 'foo' (byte offset 0)"),
    ("dual(primitives)", "dual cannot be applied to a stream module (byte offset 0)"),
    ("twist(1,polyaffine(1))", "twist cannot be applied to a stream module (byte offset 0)"),
    ("sym(2,translationinvariants)", "sym cannot be applied to a stream module (byte offset 0)"),
    ("tensor(triv,polyaffine(1))", "tensor cannot be applied to a stream module (byte offset 0)"),
    ("sum(primitives,triv)", "sum cannot be applied to a stream module (byte offset 0)"),
    ("tensor(triv,natural)", "natural is not defined over Ga@p=2 (byte offset 0)"),
    # malformed ASTs, which only library callers can pass
    (("detpow",), "detpow(int) cannot take the arguments () (byte offset 0)"),
    (("tensor", ("triv",)),
     "tensor(expr, expr) cannot take the arguments (('triv',),) (byte offset 0)"),
    (("detpow", ("triv",)), "detpow(int) cannot take the arguments (('triv',),) (byte offset 0)"),
    (("dual", 3), "dual(expr) cannot take the arguments (3,) (byte offset 0)"),
    (("detpow", 1, 2), "detpow(int) cannot take the arguments (1, 2) (byte offset 0)"),
])
def test_build_module_error_texts(expr, message):
    with pytest.raises(ModuleExprError) as e:
        build_module(expr, GA2)
    assert str(e.value) == message


def test_engine_value_errors_pass_through_build_module_unchanged():
    with pytest.raises(ValueError) as e:
        build_module("regular(-1)", GA2)
    assert type(e.value) is ValueError
    assert str(e.value) == "regular truncation level must be >= 0"


CATALOG = [group_from_spec(s) for s in
           ["Ga@p=2", "Gm@p=3", "M:2@p=3", "U:3@p=2", "GL:2@p=2", "SL:2@p=3"]]


def test_readme_grammar_is_the_constructor_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## The module-expression language", 1)[1]
    block = section.split("```", 2)[1]
    grammar = {}
    for alt in re.split(r"[|\n]", block.strip()):
        m = re.fullmatch(r"\s*([a-z]+)(?:\(([a-z, ]+)\))?\s*", alt)
        assert m, alt
        grammar[m.group(1)] = len(m.group(2).split(",")) if m.group(2) else 0
    assert grammar == {name: len(kinds) for name, (kinds, _) in _CONSTRUCTORS.items()}
    # every constructor builds over some catalog group
    for name, (kinds, _) in _CONSTRUCTORS.items():
        args = ",".join("1" if kind == "int" else "triv" for kind in kinds)
        built = []
        for g in CATALOG:
            try:
                built.append(build_module(f"{name}({args})" if args else name, g))
            except ModuleExprError:
                pass
        assert built, name


# ---------------------------------------------------------------------------
# validate against the dense scan it replaced

def reference_validate(m: Comodule) -> ValidationReport:
    """Every (j, i) for the counit and every (i, l) for coassociativity."""
    g = m.group
    failures = []
    for i in range(m.dim):
        for j in range(m.dim):
            want = 1 if i == j else 0
            if g.counit(m.coefficient(j, i)) != want:
                failures.append(f"counit axiom at basis index {i} "
                                f"(epsilon(f[{j},{i}]) != {want})")
                break
        if failures:
            break
    for i in range(m.dim):
        col = m.column(i)
        for ell in range(m.dim):
            lhs = TensorElement(g, {})
            for j, fji in col.items():
                felj = m.coefficient(ell, j)
                if felj:
                    lhs = lhs + TensorElement(
                        g, {(ma, mb): ca * cb
                            for ma, ca in felj.coeffs.items()
                            for mb, cb in fji.coeffs.items()})
            if lhs != g.coproduct(m.coefficient(ell, i)):
                failures.append(f"coassociativity at basis index {i} (row {ell})")
                break
        if failures and "coassoc" in failures[-1]:
            break
    return ValidationReport(not failures, failures)


def tampered(m: Comodule, j: int, i: int, f) -> Comodule:
    """m with the single entry f_{ji} replaced by f (None drops it)."""
    coaction = [dict(m.column(c)) for c in range(m.dim)]
    coaction[i].pop(j, None)
    if f is not None:
        coaction[i][j] = f
    return Comodule(m.group, m.basis_labels, coaction)


TAMPER_MODULES = [
    ("GL:2@p=2", "regular(2)"),
    ("GL:2@p=3", "sym(2,natural)"),
    ("GL:2@p=5", "tensor(natural,detpow(-1))"),
    ("Ga@p=2", "regular(3)"),
    ("Ga@p=3", "sum(regular(3),twist(1,regular(1)))"),
    ("U:3@p=2", "regular(2)"),
    ("U:3@p=3", "tensor(natural,dual(natural))"),
]


def test_validate_reports_match_the_dense_scan_on_tampered_modules():
    rng = random.Random(31)
    seen = set()
    for spec, text in TAMPER_MODULES:
        g = group_from_spec(spec)
        m = build_module(text, g)
        monos = m.support_monomials()
        entries = sorted(m.coeffs)
        j0, i0 = rng.choice(entries)
        j1, i1 = rng.randrange(m.dim), rng.randrange(m.dim)
        j2, i2 = rng.choice(entries)
        cases = [
            m,
            tampered(m, j0, i0, None),                                 # drop an entry
            tampered(m, j1, i1, m.coefficient(j1, i1) + g.one()),      # shift its counit
            tampered(m, j2, i2, m.coefficient(j2, i2)
                     + g.element({rng.choice(monos): 1})),             # add a monomial
        ]
        for case in cases:
            got, want = case.validate(), reference_validate(case)
            assert (got.ok, got.failures) == (want.ok, want.failures), (spec, text)
            seen.update(f.split(" ")[0] for f in want.failures)
            seen.add(want.ok)
    assert seen == {True, False, "counit", "coassociativity"}
