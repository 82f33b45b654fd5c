"""Comodule constructors, streams, and the module-expression language."""

import itertools
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
from comodfilt.coordalg import (Element, TensorElement, UnsupportedOperation, _exp_tuples,
                                binom, group_from_spec)

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


@pytest.mark.parametrize("left, right", [
    (lambda: natural(group_from_spec("GL:2@p=3")),
     lambda: dual(natural(group_from_spec("GL:2@p=3")))),
    (lambda: regular(GA2, 2), lambda: regular(GA2, 1)),
    (lambda: sym_power(2, natural(SL2)), lambda: natural(SL2)),
])
def test_tensor_coefficients_are_the_products_of_the_factors(left, right):
    m, n = left(), right()
    # column by column, in (j1, j2) order within one, zero products dropped
    want = [((j1 * n.dim + j2, i1 * n.dim + i2), f1 * f2)
            for i1 in range(m.dim) for i2 in range(n.dim)
            for j1, f1 in m.column(i1).items() for j2, f2 in n.column(i2).items()
            if f1 * f2]
    t = tensor(m, n)
    assert list(t.coeffs.items()) == want
    assert len(dict(want)) == len(want)  # the index map is one to one
    assert t.validate().ok


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


# Oracles: each stream's generation n built from scratch, independently of
# the generations below it, which the constructors extend.

def polyaffine_oracle(g, m, n):
    basis = [e for deg in range(n + 1) for e in _exp_tuples(m, deg)]
    index = {e: i for i, e in enumerate(basis)}
    coaction = []
    for alpha in basis:
        factors = [[(b, c) for b in range(a + 1) if (c := binom(a, b) % g.p)]
                   for a in alpha]
        col = {}
        for pick in itertools.product(*factors):
            beta = tuple(b for b, _ in pick)
            c = 1
            for _, f in pick:
                c = c * f % g.p
            col[index[beta]] = Element(g, {sum(alpha) - sum(beta): c})
        coaction.append(col)
    labels = ["*".join(f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}"
                       for i, a in enumerate(e) if a) or "1" for e in basis]
    return Comodule(g, labels, coaction)


def primitives_oracle(g, n):
    labels = ["1"] + [f"t^{g.p ** i}" for i in range(1, n + 1)]
    coaction = [{0: g.one()}]
    for i in range(1, n + 1):
        coaction.append({i: g.one(), 0: g.element({g.p ** i: 1})})
    return Comodule(g, labels, coaction)


def translationinvariants_oracle(g, n):
    u = g.element({g.p: 1, 1: -1})
    labels = [f"u^{j}" if j else "1" for j in range(n + 1)]
    upow = [g.one()]
    for _ in range(n):
        upow.append(upow[-1] * u)
    coaction = []
    for j in range(n + 1):
        col = {}
        for i in range(j + 1):
            c = binom(j, i) % g.p
            if c:
                col[i] = upow[j - i].scale(c)
        coaction.append(col)
    return Comodule(g, labels, coaction)


def twiststream_oracle(g, e, n):
    blocks = []
    for r in range(n + 1):
        blocks += [frobenius_twist(natural(g), r)] * g.p ** (r ** e)
    return direct_sum(*blocks)


STREAMS = [
    (lambda: polyaffine(GA2, 2), lambda n: polyaffine_oracle(GA2, 2, n)),
    (lambda: polyaffine(group_from_spec("Ga@p=3"), 3),
     lambda n: polyaffine_oracle(group_from_spec("Ga@p=3"), 3, n)),
    (lambda: primitives(group_from_spec("Ga@p=3")),
     lambda n: primitives_oracle(group_from_spec("Ga@p=3"), n)),
    (lambda: translationinvariants(GA2), lambda n: translationinvariants_oracle(GA2, n)),
    (lambda: twiststream(GL2, 1), lambda n: twiststream_oracle(GL2, 1, n)),
    (lambda: twiststream(group_from_spec("GL:1@p=3"), 1),
     lambda n: twiststream_oracle(group_from_spec("GL:1@p=3"), 1, n)),
    (lambda: regular_stream(GL2), lambda n: regular(GL2, n)),
    (lambda: regular_stream(SL2), lambda n: regular(SL2, n)),
]


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [3, 1, 4, 0, 2]], ids=str)
@pytest.mark.parametrize("make, oracle", STREAMS)
def test_generations_extend_the_one_below_as_the_oracle_builds_them(make, oracle, order):
    st = make()
    for n in order:
        got, want = st.generate(n), oracle(n)
        assert got.basis_labels == want.basis_labels
        # entry for entry and in the same order, column by column
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert [got.column(i) for i in range(got.dim)] == \
            [want.column(i) for i in range(want.dim)]
        assert got.validate().ok


def tampered_stream(st, faults):
    """st with its new columns changed at the generations in `faults`:
    "counit" doubles the first new column (its diagonal entry then has
    counit 2), "coassoc" adds t^7 to its row-0 entry, which keeps every
    counit and breaks Delta there."""
    def new(n, start):
        labels, columns = st._new(n, start)
        columns = [dict(col) for col in columns]
        col = columns[0]
        if faults.get(n) == "counit":
            columns[0] = {j: f.scale(2) for j, f in col.items()}
        elif faults.get(n) == "coassoc":
            col[0] = col.get(0, st.group.zero()) + st.group.element({7: 1})
        return labels, columns
    return StreamModule(st.group, st.name, new, st.sufficiency)


@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]], ids=str)
@pytest.mark.parametrize("faults", [
    {0: "counit"}, {0: "coassoc"}, {3: "counit"}, {3: "coassoc"},
    {0: "coassoc", 3: "counit"}, {0: "counit", 3: "coassoc"}, {}], ids=str)
def test_a_tampered_stream_reports_what_a_full_scan_does(faults, order):
    g = group_from_spec("Ga@p=3")
    st = tampered_stream(polyaffine(g, 2), faults)
    seen = set()
    for n in order:
        gen = st.generate(n)
        fresh = Comodule(g, gen.basis_labels, [gen.column(i) for i in range(gen.dim)])
        got, want = gen.validate(), fresh.validate()
        assert (got.ok, got.failures) == (want.ok, want.failures)
        dense = reference_validate(fresh)
        assert (got.ok, got.failures) == (dense.ok, dense.failures)
        seen.update(f.split(" ")[0] for f in got.failures)
    # every seeded fault shows, and an untouched stream reports none
    assert {"counit" if v == "counit" else "coassociativity" for v in faults.values()} <= seen
    assert bool(seen) == bool(faults)


def test_a_generation_that_names_a_row_past_its_dimension_is_refused():
    g = GA2
    st = StreamModule(g, "escaping", lambda n, start: ([f"v{n}"], [{n: g.one(), n + 1: g.one()}]),
                      lambda d: d)
    with pytest.raises(AssertionError, match="generation 0 names a row past its dimension 1"):
        st.generate(0)


class ReadSpy(list):
    """A column list that records every index read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_a_generation_scans_only_the_columns_it_adds(monkeypatch):
    g = group_from_spec("Ga@p=3")
    st = polyaffine(g, 2)
    st.generate(0).validate()
    counit, coproduct_mono = type(g).counit, type(g).coproduct_mono
    for n in range(1, 5):
        gen, below = st.generate(n), st.generate(n - 1).dim
        new = [gen.column(i) for i in range(below, gen.dim)]
        gen._columns = spy = ReadSpy(gen._columns)
        counited, asked = [], []
        monkeypatch.setattr(g, "counit", lambda f: counited.append(f) or counit(g, f))
        monkeypatch.setattr(g, "coproduct_mono",
                            lambda m: asked.append(m) or coproduct_mono(g, m))
        assert gen.validate().ok
        # the counit and Delta are read for the new columns' entries only,
        # each monomial's Delta once
        assert sorted(map(id, counited)) == sorted(id(f) for col in new for f in col.values())
        assert sorted(asked) == sorted({m for col in new for f in col.values() for m in f.coeffs})
        # a column below is read only as the left factor f_{lj} of a row j
        # that a new column names
        assert spy.read >= set(range(below, gen.dim))
        assert {i for i in spy.read if i < below} <= {j for col in new for j in col}


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
    # coefficients near p^2 > 2^62 at the largest accepted prime, and the
    # nested (exponent tuple, det power) monomials of GL and SL
    ("Ga@p=2147483647", "sum(regular(3),twist(1,regular(1)))"),
    ("GL:2@p=2147483647", "tensor(natural,dual(natural))"),
    ("SL:2@p=3", "regular(2)"),
    ("SL:2@p=2", "tensor(sym(2,natural),natural)"),
    ("GL:2@p=3", "tensor(natural,detpow(-2))"),
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
