"""Forms of the additive group: presentations, levels, points, plane models."""

import inspect
import itertools
import json
import random
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from unipic import (
    CatalogueResult,
    FieldDesc,
    FieldMismatch,
    FormPresentation,
    MPoly,
    NValue,
    NotSeparable,
    RatFunc,
    Torsor,
    VariableClash,
    compositum_degree,
    equation_holds,
    find_rational_point,
    generic_fiber_torsor,
    genus_from_formula,
    invariant_report,
    is_regular_at_infinity,
    make_form,
    naive_completion,
    pic_p1_complement,
    plane_model_residual,
    power_level,
    rationality_level,
    rewrite_plane_model,
    splitting_level,
)
from unipic import forms
from unipic.cli import parse_field_spec, parse_form_equation
from unipic.forms import _clear_denominators, _least_solution, _monomials_up_to, _rhs_at, _search, local_obstruction

from conftest import F2T, F2TU, F3T, ratfunc_strategy
from gcd_reference import exact_div_reference, poly_gcd, prs_gcd_reference
from search_reference import brute_force_search, linear_search_reference, rhs_reference
from twist_reference import twist_chain_reference

F5T = FieldDesc(5, ("t",))
SEARCH_FIELDS = [FieldDesc(p, names) for p in (2, 3, 5) for names in (("t",), ("t", "u"))]


def splitting_degree(G):
    """[k':k] for k' = k(a_1^(1/p^n), ..., a_m^(1/p^n)), as the report computes it."""
    return compositum_degree([(c, G.n) for _, c in G.twist_coeffs()])


def form_over(field, n, coeffs):
    """Presentation y^(p^n) = sum coeffs[i] * x^(p^i) from a level dict."""
    m = max(coeffs)
    cs = [coeffs.get(i, field.zero()) for i in range(m + 1)]
    return make_form(n, cs)


@pytest.fixture
def conic():
    t = F2T.var("t")
    return form_over(F2T, 1, {0: F2T.one(), 1: t})


@pytest.fixture
def tower_form():
    # n = 3 with coefficients t, t^4: splitting and twisting levels disagree
    t = F2T.var("t")
    return form_over(F2T, 3, {0: F2T.one(), 1: t, 2: t ** 4})


# -------------------------------------------------------------- construction

def _message(text: str) -> str:
    """A pytest.raises match for exactly this message."""
    return f"^{re.escape(text)}$"


def test_nvalue_validation():
    v = NValue("exact", 1, "conic")
    assert str(v) == "1 (exact: conic)"
    assert str(NValue("upper_bound", 2, "")) == "<= 2 (bound)"
    with pytest.raises(ValueError, match=_message("bad kind 'bogus'")):
        NValue("bogus", 1, "x")
    with pytest.raises(ValueError, match=_message("exact values must carry a certificate")):
        NValue("exact", 1)
    with pytest.raises(ValueError, match=_message("levels are nonnegative")):
        NValue("exact", -1, "x")
    # a replaced field goes through the same checks
    with pytest.raises(ValueError, match=_message("exact values must carry a certificate")):
        v._replace(certificate=None)
    assert v._replace(kind="upper_bound", certificate=None) == NValue("upper_bound", 1)


def _conic_form() -> FormPresentation:
    return make_form(1, [F2T.one(), F2T.var("t")])


# one builder per record type of the package; each call builds a new value
_RECORDS = {
    "FieldDesc": lambda: FieldDesc(2, ("t",)),
    "NValue": lambda: NValue("exact", 1, "conic"),
    "FormPresentation": _conic_form,
    "Torsor": lambda: Torsor(_conic_form(), F2T.var("t")),
    "PlaneModel": lambda: rewrite_plane_model(_conic_form(), F2T.one(), 0),
    "WeightedCurve": lambda: naive_completion(_conic_form()),
    "InfinityData": lambda: is_regular_at_infinity(naive_completion(_conic_form())),
    "InvariantReport": lambda: invariant_report(_conic_form()),
    "P1ComplementData": lambda: pic_p1_complement(1, F2T.var("t")),
    "EquationAST": lambda: parse_form_equation("y^2 = t + x + t*x^2", F2T),
    "CatalogueResult": lambda: CatalogueResult("demo", True, "ok"),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_contract(name):
    # immutable values: equal fields give equal values and equal hashes,
    # and the repr names every constructor field in order
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    fields = list(inspect.signature(type(a)).parameters)
    assert repr(a) == f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == b


@pytest.mark.parametrize("args, message", [
    ((4,), "characteristic must be prime, got 4"),
    ((2, ("t", "t")), "duplicate variable names in ('t', 't')"),
    ((2, ("t", "")), "empty variable name"),
])
def test_field_desc_validation(args, message):
    with pytest.raises(ValueError, match=_message(message)):
        FieldDesc(*args)


def test_presentation_accessors(conic):
    t = F2T.var("t")
    assert conic.m == 1
    assert conic.coeffs == (F2T.one(), t)
    assert conic.b == F2T.zero()
    assert conic.twist_coeffs() == [(1, t)]
    assert str(conic) == "y^2 = x + t*x^2"


def test_make_form_requires_separable_part():
    t = F2T.var("t")
    with pytest.raises(NotSeparable):
        make_form(1, [F2T.zero(), t])
    with pytest.raises(NotSeparable):
        make_form(1, [])


def test_make_form_reads_the_field_and_drops_trailing_zeros():
    t, one, zero = F2T.var("t"), F2T.one(), F2T.zero()
    G = make_form(2, [one, t, zero, zero])
    assert (G.field, G.n, G.coeffs) == (F2T, 2, (one, t))
    X = Torsor(G, t)
    assert (X.field, X.n, X.m, X.coeffs, X.b) == (F2T, 2, 1, (one, t), t)
    assert str(X) == "y^4 = t + x + t*x^2"


def test_presentation_validates_its_coefficients():
    t, one = F2T.var("t"), F2T.one()
    G = FormPresentation(F2T, 1, [one, t])
    assert G == make_form(1, (one, t)) and type(G.coeffs) is tuple
    unnormalized = _message("presentation must be normalized with constant coefficient 1")
    for coeffs in [(t, t), (F2T.zero(), t), ()]:  # a_0 must be 1
        with pytest.raises(NotSeparable, match=unnormalized):
            FormPresentation(F2T, 1, coeffs)
    with pytest.raises(ValueError, match=_message("the last coefficient of tau must be nonzero")):
        FormPresentation(F2T, 1, (one, t, F2T.zero()))
    with pytest.raises(ValueError, match=_message("twist level n must be nonnegative")):
        FormPresentation(F2T, -1, (one, t))
    mismatch = _message("a coefficient of tau lives over a different field")
    for field, coeffs in [(F2T, (one, F3T.var("t"))), (F3T, (F3T.one(), t))]:
        with pytest.raises(FieldMismatch, match=mismatch):
            FormPresentation(field, 1, coeffs)


def test_make_form_normalizes_constant_coeff(conic):
    # y^2 = t*x + t^3*x^2 rescales to the standard conic presentation
    t = F2T.var("t")
    g = make_form(1, [t, t ** 3])
    assert g == conic


@settings(max_examples=50)
@given(ratfunc_strategy(F3T, nonzero=True), ratfunc_strategy(F3T, nonzero=True))
def test_rescaling_x_is_invisible(lam, a1):
    # substituting x -> lam * x preserves the normalized presentation
    base = form_over(F3T, 1, {0: F3T.one(), 1: a1})
    scaled = make_form(1, [lam, a1 * lam ** 3])
    assert scaled == base


def test_make_torsor_checks_field(conic):
    with pytest.raises(FieldMismatch, match=_message("translation term over a different field")):
        Torsor(conic, F3T.var("t"))


def test_generic_fiber_torsor(conic):
    gf = generic_fiber_torsor(conic)
    assert gf.generic_fiber
    assert gf.form.field.vars == ("t", "T")
    assert gf.b == gf.form.field.var("T")
    K = FieldDesc(2, ("t", "T"))
    with pytest.raises(VariableClash, match="'T' is already a field variable"):
        generic_fiber_torsor(make_form(1, [K.one(), K.var("t")]))


def test_generic_fiber_read_off_the_equation():
    t, u = F2TU.var("t"), F2TU.var("u")
    one = F2TU.one()
    G = make_form(1, [one, t])
    # b a variable that no a_i involves, in its numerator or its denominator
    assert Torsor(G, u).generic_fiber
    assert Torsor(make_form(2, [one, t / (t + one), t ** 3]), u).generic_fiber
    assert Torsor(make_form(1, [one, u]), t).generic_fiber
    for b in (t, u + one, t * u, u ** 2, u / t, one):
        assert not Torsor(G, b).generic_fiber, b
    for a in (u, t / u, t / (t + u), t + u ** 2):
        assert not Torsor(make_form(1, [one, a]), u).generic_fiber, a
    K = FieldDesc(3, ("t", "u"))
    assert not Torsor(make_form(1, [K.one(), K.var("t")]), K.const(2) * K.var("u")).generic_fiber


# ------------------------------------------------------------------- levels

def test_split_form_levels():
    g = make_form(1, [F2T.one()])
    assert splitting_degree(g) == 1
    assert splitting_level(g) == NValue("exact", 0, "split")
    assert rationality_level(g) == NValue("exact", 0, "split")


def test_conic_levels(conic):
    assert splitting_degree(conic) == 2
    assert splitting_level(conic) == NValue("exact", 1, "coefficient-not-pth-power")
    assert rationality_level(conic) == NValue("exact", 0, "conic")


def test_char3_levels_agree():
    t = F3T.var("t")
    g = form_over(F3T, 1, {0: F3T.one(), 1: t})
    assert splitting_degree(g) == 3
    assert splitting_level(g) == NValue("exact", 1, "coefficient-not-pth-power")
    assert rationality_level(g) == NValue("exact", 1, "odd-characteristic-equality")


def test_pth_power_coeffs_give_upper_bound():
    # y^4 = x + t^2 x^2: every twist coefficient is a square but not a 4th power
    t = F2T.var("t")
    g = form_over(F2T, 2, {0: F2T.one(), 1: t * t})
    assert splitting_degree(g) == 2
    assert splitting_level(g) == NValue("upper_bound", 2)
    # dropping n once exposes a conic, hence rational
    assert rationality_level(g) == NValue("exact", 0, "conic")


def test_reducible_presentation_is_rational():
    # y^2 = x + t x^2 + t^2 x^4 absorbs into the conic via w = y + t x^2
    t = F2T.var("t")
    g = form_over(F2T, 1, {0: F2T.one(), 1: t, 2: t * t})
    assert splitting_level(g) == NValue("exact", 1, "coefficient-not-pth-power")
    assert rationality_level(g) == NValue("exact", 0, "conic")


def test_tower_form_levels(tower_form):
    assert splitting_degree(tower_form) == 8
    assert splitting_level(tower_form) == NValue("exact", 3, "coefficient-not-pth-power")
    assert rationality_level(tower_form) == NValue("exact", 2, "twist-chain")


def test_two_variable_levels():
    t, u = F2TU.var("t"), F2TU.var("u")
    g = form_over(F2TU, 2, {0: F2TU.one(), 1: t, 2: u})
    assert splitting_degree(g) == 16
    assert splitting_level(g) == NValue("exact", 2, "coefficient-not-pth-power")


def _golden_variants():
    """Every input variant of the benchmark corpora, read from their golden file."""
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    return [v for slots in golden["workloads"].values() for slot in slots for v in slot["variants"]]


def _golden_forms(p):
    """The distinct forms of the golden inputs over GF(p)(...), torsors giving their form."""
    cases = {(v["field"], v["eq"]) for v in _golden_variants() if v["field"].startswith(f"GF({p})")}
    for field, eq in sorted(cases):
        X = parse_form_equation(eq, parse_field_spec(field)).build()
        yield getattr(X, "form", X)


def test_rationality_chain_matches_twist_reference():
    # the chain inside k against the renamed-field twist chain, on every
    # p = 2 golden form and a seeded GF(2)(t,u) corpus with n <= 4; some
    # a_i are c^(2^j) with j up to n + 2, deeper than the ladders' cap at n
    rng = random.Random(0)
    seeded = []
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        coeffs = {i: _power_coeff(rng, F2TU, n + 2 * (rng.random() < 0.3))
                  for i in range(1, m + 1) if i == m or rng.random() < 0.6}
        seeded.append(form_over(F2TU, n, {0: F2TU.one(), **coeffs}))
    assert any(power_level(c, G.n + 1)[0] > G.n for G in seeded for _, c in G.twist_coeffs())
    seen, passed = set(), 0
    for G in itertools.chain(_golden_forms(2), seeded):
        level, chain = twist_chain_reference(G)
        assert rationality_level(G) == level, G
        seen.add((level.certificate, min(level.value, 3)))
        # the claim the first detection rests on: every reduced presentation
        # the chain walks past has a completion of positive genus
        for K, n, a in chain:
            assert genus_from_formula(naive_completion(form_over(K, n, {0: K.one(), **a}))) > 0
            passed += 1
    assert seen == {("split", 0), ("conic", 0), ("twist-chain", 1), ("twist-chain", 2), ("twist-chain", 3)}
    assert passed


def _power_coeff(rng, field, n):
    """c^(p^j) for a random nonconstant fraction c and j in 0..n."""
    while True:
        num = {tuple(rng.randint(0, 2) for _ in field.vars): rng.randint(1, field.p - 1)
               for _ in range(rng.randint(1, 2))}
        den = {tuple(rng.randint(0, 1) for _ in field.vars): 1}
        c = RatFunc(MPoly.make(field, num), MPoly.make(field, den))
        if not c.is_constant():
            return c.frobenius(rng.randint(0, n))


def test_split_certificate_matches_tower_degree():
    # the p^n-th-power test of splitting_level against the dense root tower
    rng = random.Random(0)
    certificates = set()
    for p, r, n in itertools.product((2, 3, 5), (1, 2), (0, 1, 2)):
        field = FieldDesc(p, ("t", "u")[:r])
        for _ in range(4):
            twists = [_power_coeff(rng, field, n) for _ in range(rng.randint(1, 2))]
            G = make_form(n, [field.one()] + twists)
            level = splitting_level(G)
            assert (level.certificate == "split") == (splitting_degree(G) == 1), G
            certificates.add(level.certificate)
    # the split, exact and bound branches all occur
    assert certificates == {"split", "coefficient-not-pth-power", None}


# ------------------------------------------------------------- point search

def test_equation_holds(conic):
    T = Torsor(conic, F2T.var("t"))
    assert equation_holds(T, F2T.one(), F2T.one())
    assert not equation_holds(T, F2T.zero(), F2T.zero())
    assert equation_holds(conic, F2T.zero(), F2T.zero())


def test_find_point_on_form(conic):
    assert find_rational_point(conic, 1) == (F2T.zero(), F2T.zero())


def test_find_point_on_torsor(conic):
    t = F2T.var("t")
    T = Torsor(conic, t)
    pt = find_rational_point(T, 2)
    assert pt == (F2T.one(), F2T.one())
    assert equation_holds(T, *pt)


def test_no_small_point(conic):
    T = Torsor(conic, F2T.one() / F2T.var("t"))
    assert find_rational_point(T, 2) is None


def test_no_small_point_two_variables():
    t, u = F2TU.var("t"), F2TU.var("u")
    g = form_over(F2TU, 1, {0: F2TU.one(), 1: t})
    T = Torsor(g, u)
    assert find_rational_point(T, 1) is None


def test_search_engines_agree_regression(tower_form):
    # the engine must honour non-perfect leading parts; this input once
    # produced a false positive at bound 1
    T = Torsor(tower_form, F2T.var("t") ** 2)
    assert _search(T, 1) is None
    assert brute_force_search(T, 1) is None


@st.composite
def search_torsors(draw):
    field = draw(st.sampled_from(SEARCH_FIELDS))
    a1 = draw(ratfunc_strategy(field, max_deg=1, nonzero=True))
    b = draw(ratfunc_strategy(field, max_deg=1))
    return Torsor(form_over(field, 1, {0: field.one(), 1: a1}), b)


@settings(max_examples=25, deadline=None)
@given(search_torsors())
def test_search_engines_agree(T):
    assert _search(T, 1) == brute_force_search(T, 1)


def _search_oracle_inputs():
    """Seeded torsors over GF(p)(t[,u]), p in {2, 3, 5}, with 1 <= n, m <= 3.

    Per (p, r, n, m) the denominators of the a_i are q-th powers (q = p^n)
    or not, and b is planted (b = y0^q - tau(x0) for x0 = g0/h0 in the
    search range) or drawn at random.  The bound is 1 where the brute force
    and the earlier engine stay cheap, else 0.  Then, at bound 1, the edge
    cases of the packed exponents: no variable and three variables, a
    coefficient of higher degree than P * max_deg (P = p^max(m, n)), which
    sets the slot width and makes the t-slot overflow if it is one q too
    narrow, b != 0 a q-th power, and m > n with on-lattice terms in C_m.
    """
    rng = random.Random(1610)
    for p, r, n, m in itertools.product((2, 3, 5), (1, 2), (1, 2, 3), (1, 2, 3)):
        field = FieldDesc(p, ("t", "u")[:r])
        t = field.var("t")
        q, max_deg = p ** n, int(p ** (n + m + 2 * r) <= 3 ** 7)
        monos = _monomials_up_to(r, max_deg)

        def poly(k=2):
            picked = rng.sample(monos, min(k, len(monos)))
            return MPoly.make(field, {e: rng.randint(1, p - 1) for e in picked})

        for perfect in (True, False):
            dens = [field.one(), t ** q, (t + 1) ** q] if perfect else [t, t + 1]

            def coeff():
                return RatFunc.from_poly(poly(1)) / rng.choice(dens)

            tau = [field.one()] + [coeff() if i == m or rng.random() < 0.5 else field.zero()
                                   for i in range(1, m + 1)]
            G = make_form(n, tau)
            top = rng.randrange(len(monos))  # a monic h0 in counting order
            h0 = MPoly.make(field, {**{e: rng.randrange(p) for e in monos[:top]}, monos[top]: 1})
            x0 = RatFunc(poly(), h0)
            y0 = RatFunc.from_poly(poly(1))
            b_hit = y0 ** q - sum((c * x0.frobenius(i) for i, c in enumerate(G.coeffs)), field.zero())
            for b in (b_hit, coeff()):
                yield Torsor(G, b), max_deg
    for field, eq in (
        ("GF(2)", "y^2 = 1 + x + x^2"),
        ("GF(3)", "y^3 = 2 + x + 2*x^9"),
        ("GF(5)", "y^25 = 3 + x + x^5"),
        ("GF(2)(t,u,v)", "y^2 = (t*v)^2 + (u+1)/(t+v) + (t*u+v^2)*((u+1)/(t+v))^2 + x + (t*u+v^2)*x^2"),
        ("GF(2)(t,u,v)", "y^2 = u/(t+v) + x + (t*u+v^2)*x^2"),
        ("GF(2)(t,u,v)", "y^4 = (t*v)^4 + (u+1)/(t+v) + (t*u+v^2)*((u+1)/(t+v))^2 + x + (t*u+v^2)*x^2"),
        ("GF(2)(t,u,v)", "y^4 = u/(t+v) + x + (t*u+v^2)*x^2"),
        ("GF(3)(t,u,v)", "y^3 = (t*v)^3 - (u+1)/(t+v) - (t*u+v^3)*((u+1)/(t+v))^3 + x + (t*u+v^3)*x^3"),
        ("GF(3)(t,u,v)", "y^3 = u/(t+v) + x + (t*u+v^3)*x^3"),
        ("GF(2)(t,u)", "y^2 = t*u + t + x + t^3*x^2"),
        ("GF(2)(t,u)", "y^2 = u^2 + (u+1)/t + t^5*u*((u+1)/t)^2 + x + t^5*u*x^2"),
        ("GF(3)(t,u)", "y^3 = u + x + t^11*u*x^9"),
        ("GF(3)(t,u)", "y^3 = t^3 - (u+1)/t - t^11*u*((u+1)/t)^9 + x + t^11*u*x^9"),
        ("GF(2)(t,u)", "y^2 = t^2*u^2 + x + 1/(t+u)*x^2"),
        ("GF(5)(t)", "y^5 = 1/t^5 + x + t*x^5"),
        ("GF(3)(t,u)", "y^3 = u + x + (t^3 + u)*x^9"),
        ("GF(3)(t,u)", "y^3 = t^3 - (u+1)/t - (t^3 + u)*((u+1)/t)^9 + x + (t^3 + u)*x^9"),
        ("GF(2)(t,u)", "y^2 = t + x + (u^2 + t)*x^4"),
    ):
        yield parse_form_equation(eq, parse_field_spec(field)).build(), 1


def _count_solves(monkeypatch):
    """A list that grows by one at each linear system `_search` solves."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _least_solution(*args)

    monkeypatch.setattr(forms, "_least_solution", counted)
    return calls


def _monic_through(got, K, p):
    """The monic h the unpruned search solves for before it returns got."""
    if got == (0, 1):
        return 0  # x = 0, found before any h
    if got is None:
        return (p ** K - 1) // (p - 1)
    top = max(k for k in range(K) if p ** k <= got[1])
    return (p ** top - 1) // (p - 1) + got[1] - p ** top + 1


def test_search_matches_references(monkeypatch):
    # the engine against the earlier linear engine and the brute force, on
    # both sides of m < n, with and without q-th-power denominators; for
    # n > m it skips some denominators, with Bp = num(a_m) L a monomial and
    # not, and for n <= m none
    classes = set()
    solves = _count_solves(monkeypatch)
    for T, max_deg in _search_oracle_inputs():
        field, n, coeffs, b = T.field, T.n, T.coeffs, T.b
        solves.clear()
        got = _search(T, max_deg)
        assert got == linear_search_reference(T, max_deg), T
        assert got == brute_force_search(T, max_deg), T
        q, P = field.p ** n, field.p ** max(T.m, n)
        L, B, C = _clear_denominators(field, coeffs, b)
        # apart from the clearing: the lcm by the reference gcd, and the cofactors by long division
        lcm = field.one().num
        for den in dict.fromkeys(f.den for f in [b, *coeffs]):
            lcm = exact_div_reference(lcm * den, prs_gcd_reference(lcm, den))
        assert L == lcm and B == b.num * exact_div_reference(L, b.den), T
        assert C == [a.num * exact_div_reference(L, a.den) for a in coeffs], T
        perfect = all(x % q == 0 for e in L.terms for x in e)
        classes.add((T.m < n, perfect, None if got is None else got[1] > 1))
        skipped = _monic_through(got, len(_monomials_up_to(field.r, max_deg)), field.p) - len(solves)
        assert skipped >= 0 and (skipped == 0 or T.m < n), T
        if skipped:
            Bp = coeffs[-1].num * L
            classes |= {("skipped", perfect), ("skipped", "Bp a monomial" if Bp.is_monomial() else "Bp not")}
        classes.add(("r", field.r))
        B, C = B * L ** (q - 1), [c * L ** (q - 1) for c in C]
        assert _clear_denominators(field, coeffs, b, q) == (L, B, C), T  # k = q as `_search` calls it
        on_lattice = [all(x % q == 0 for x in e) for f in [B, C[-1]] for e in f.terms]
        if max_deg and max((x for f in [B] + C for e in f.terms for x in e), default=0) > P * max_deg:
            classes.add("coefficient sets S")
        if b and all(on_lattice[:len(B.terms)]):
            classes.add("b a q-th power")
        if T.m > n and any(on_lattice[len(B.terms):]):
            classes.add("m > n, on-lattice C_m")
        # the clearing's cases: one _cancel per distinct denominator, no product for a zero
        dens = [f.den for f in [b, *coeffs] if f and not f.den.is_one()]
        if not all(coeffs[1:-1]):
            classes.add("a zero a_i between nonzero ones")
        if len(set(dens)) < len(dens):
            classes.add("a denominator shared")
        if not L.is_one() and any(f and f.den.is_one() for f in [b, *coeffs[1:]]):
            classes.add("den 1 beside L != 1")
        if field.p == 5 and got is not None and got[1] > 1:
            classes.add("p = 5 hit past h = 1")
    # misses, and hits over h = 1 and over a later h, in every (m < n, perfect)
    # cell, and every edge case of the packed exponents and of the clearing
    assert classes == set(itertools.product((True, False), (True, False), (None, False, True))) | {
        ("r", 0), ("r", 1), ("r", 2), ("r", 3),
        "coefficient sets S", "b a q-th power", "m > n, on-lattice C_m",
        ("skipped", True), ("skipped", False), ("skipped", "Bp a monomial"), ("skipped", "Bp not"),
        "a zero a_i between nonzero ones", "a denominator shared", "den 1 beside L != 1",
        "p = 5 hit past h = 1"}


def test_search_squares_for_h_to_the_p_minus_1(monkeypatch):
    # h^(p-1) by square-and-multiply: at p = 101 a solved system takes about
    # 2 log2(p) products of packed polynomials, not the p - 2 of repeated
    # multiplication; an unobstructed miss solves for all 102 monic h
    p, products, pmul = 101, [], forms._pmul
    T = parse_form_equation(f"y^{p} = x + t*x^{p} + t^{p} + t^2 + 1", parse_field_spec(f"GF({p})(t)")).build()
    monkeypatch.setattr(forms, "_pmul", lambda *args: products.append(None) or pmul(*args))
    solves = _count_solves(monkeypatch)
    assert local_obstruction(T) is None and _search(T, 1) is None
    assert len(solves) == 102 and len(products) <= len(solves) * (2 * (p - 1).bit_length() + 3)


def test_search_solves_only_admissible_denominators(monkeypatch):
    # a golden miss with n = 2 > m = 1 and Bp = u t^2: of the 63 monic h of
    # degree <= 2 over GF(2)(t, u), only t^a u^b and the four squares
    # t^2 + 1, u^2 + 1, t^2 + u^2, t^2 + u^2 + 1 can be the denominator of
    # a reduced point, so 10 systems are solved
    T = parse_form_equation("y^4 = x + u/(t^2)*x^2 + (t*u + t)", parse_field_spec("GF(2)(t,u)")).build()
    solves = _count_solves(monkeypatch)
    assert _search(T, 2) is None
    assert (len(solves), _monic_through(None, 6, 2)) == (10, 63)
    assert linear_search_reference(T, 2) is None


def test_search_matches_reference_on_golden_corpus():
    # every distinct (field, equation, bound) of the benchmark corpora,
    # read from its golden file, against the earlier linear engine
    cases = {(v["field"], v["eq"], v["bound"]) for v in _golden_variants()}
    hits = 0
    for field, eq, bound in sorted(cases):
        T = parse_form_equation(eq, parse_field_spec(field)).build()
        got = _search(T, bound)
        assert got == linear_search_reference(T, bound), (field, eq, bound)
        hits += got is not None and got[1] > 1
    assert len(cases) > 1000 and hits


def test_point_over_second_denominator_f3():
    # x0 = 1/t is planted; no polynomial x works, so h = t is the first
    # denominator with a point
    t = F3T.var("t")
    b = t ** 3 - t.inverse() - t.inverse() ** 2
    T = Torsor(form_over(F3T, 1, {0: F3T.one(), 1: t}), b)
    assert find_rational_point(T, 1) == (t.inverse(), t)


def test_point_f5():
    # x0 is planted over t + 1, the third monic denominator
    t = F5T.var("t")
    x0 = (t + F5T.const(2)) / (t + F5T.one())
    T = Torsor(form_over(F5T, 1, {0: F5T.one(), 1: t}), t ** 5 - x0 - t * x0 ** 5)
    assert find_rational_point(T, 1) == (x0, t)


def test_least_witness_takes_low_digit_over_free_high_digit():
    # with h = 1 the points are x = t^2 + 1 and x = t^2 + t: the t-digit is
    # free, and the least witness leaves it at 0 and sets the constant digit
    t = F2T.var("t")
    g = form_over(F2T, 1, {0: F2T.one(), 1: t / (t ** 2 + F2T.one())})
    T = Torsor(g, t ** 3 + t)
    assert find_rational_point(T, 2) == (t ** 2 + F2T.one(), t + F2T.one())


def test_witness_check_matches_reference():
    # the right side over one denominator against the RatFunc sum, on every
    # golden witness, and on seeded x = g/h where h shares a factor with the
    # denominator of an a_i and two terms share a denominator
    cases = {(v["field"], v["eq"], v["bound"]) for v in _golden_variants()}
    witnesses = 0
    for field, eq, bound in sorted(cases):
        T = parse_form_equation(eq, parse_field_spec(field)).build()
        pt = find_rational_point(T, bound) if T.b else None
        if pt is not None:
            assert _rhs_at(T, pt[0]) == rhs_reference(T, pt[0]), (field, eq, bound)
            witnesses += 1
    assert witnesses > 100
    rng, classes = random.Random(2604), set()
    for field, n, m in itertools.product(SEARCH_FIELDS, (1, 2), (1, 2)):
        t, monos = field.var("t"), _monomials_up_to(field.r, 2)
        dens = [field.one(), t, t + 1, t ** 2 + t]

        def poly():
            return RatFunc.from_poly(MPoly.make(field, {e: rng.randrange(field.p) for e in monos}))

        for _ in range(6):
            G = make_form(n, [field.one()] + [poly() / rng.choice(dens) for _ in range(m)])
            T = Torsor(G, poly() / rng.choice(dens))
            x = poly() / (rng.choice(dens) * rng.choice(dens))
            assert _rhs_at(T, x) == rhs_reference(T, x), (T, x)
            if any(not poly_gcd(x.den, a.den).is_one() for a in G.coeffs):
                classes.add("h meets a den(a_i)")
            own = [f.den for f in [T.b, *G.coeffs] if f and not f.den.is_one()]
            if len(set(own)) < len(own):
                classes.add("a shared denominator")
    assert classes == {"h meets a den(a_i)", "a shared denominator"}


@pytest.mark.parametrize("hit", [(0, 1), (1, 2)])
def test_bogus_candidate_is_refused(conic, monkeypatch, hit):
    # b = 1/t is not a square, so neither x = 0 nor x = 1/t (h = t) is a point
    T = Torsor(conic, F2T.one() / F2T.var("t"))
    monkeypatch.setattr(forms, "_search", lambda *args: hit)
    with pytest.raises(AssertionError, match="bogus candidate"):
        find_rational_point(T, 1)


@settings(max_examples=20, deadline=None)
@given(ratfunc_strategy(F2T, max_deg=1, nonzero=True),
       ratfunc_strategy(F2T, max_deg=1, nonzero=True))
def test_found_points_verify(a1, b):
    g = form_over(F2T, 1, {0: F2T.one(), 1: a1})
    T = Torsor(g, b)
    pt = find_rational_point(T, 1)
    if pt is not None:
        assert equation_holds(T, *pt)


# ------------------------------------------------------------- plane models

def test_rewrite_plane_model(tower_form):
    t = F2T.var("t")
    ti = F2T.one() / t
    pm = rewrite_plane_model(tower_form, t, 1)
    assert dict(pm.wcoeffs) == {0: ti, 1: ti, 2: F2T.one()}
    assert dict(pm.ycoeffs) == {1: ti, 2: ti}
    assert not pm.degenerate
    assert plane_model_residual(pm) == {}
    assert str(pm) == "(1/t)*y^2 + (1/t)*y^4 = (1/t)*w + (1/t)*w^2 + w^4"


def test_rewrite_identity_substitution(tower_form):
    t = F2T.var("t")
    pm = rewrite_plane_model(tower_form, F2T.one(), 0)
    assert dict(pm.wcoeffs) == {0: F2T.one(), 1: t, 2: t ** 4}
    assert dict(pm.ycoeffs) == {0: F2T.one(), 1: t, 2: t ** 4, 3: F2T.one()}
    assert plane_model_residual(pm) == {}


def test_rewrite_conic(conic):
    t = F2T.var("t")
    pm = rewrite_plane_model(conic, F2T.one(), 0)
    assert dict(pm.wcoeffs) == {0: F2T.one(), 1: t}
    assert dict(pm.ycoeffs) == {0: F2T.one(), 1: t + F2T.one()}
    assert plane_model_residual(pm) == {}
