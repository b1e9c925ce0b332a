"""Exact rational function field arithmetic, p-power tests and root towers."""

import json
import random
import re
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import example, given, settings

from unipic import field as field_mod
from unipic import (
    BasisTooLarge,
    DivisionByZero,
    FieldDesc,
    FieldMismatch,
    MPoly,
    RatFunc,
    UnknownVariable,
    ZeroInput,
    compositum_degree,
    power_level,
)
from unipic.cli import _parse_value, parse_field_spec, parse_form_equation

from conftest import F2T, F2TU, F3T, mpoly_strategy, ratfunc_strategy
from gcd_reference import exact_div_reference, poly_gcd, prs_gcd_reference
from mul_reference import mul_reference, pow_reference
from test_forms import _golden_variants
from transport_reference import transport
from tower_reference import (
    LevelMismatch,
    degree_bounds_reference,
    dense_degree_reference,
    dense_degree_rowspace_reference,
    ratfunc_partial,
    subfield_membership,
    tower_field,
    tower_root,
)


# ---------------------------------------------------------------- arithmetic

def test_basic_arithmetic_char2():
    t = F2T.var("t")
    one = F2T.one()
    assert t + t == F2T.zero()
    assert (t + one) * (t + one) == t * t + one
    assert (t / (t + one)) * ((t + one) / t) == one
    assert str(t * t + one) == "t^2 + 1"


def test_basic_arithmetic_char3():
    t = F3T.var("t")
    one = F3T.one()
    assert t + t + t == F3T.zero()
    assert (t + one) ** 3 == t ** 3 + one
    assert -(t + one) == F3T.const(2) * (t + one)


def test_constants_and_vars():
    assert F2T.const(5) == F2T.one()
    assert F3T.const(3) == F3T.zero()
    with pytest.raises(UnknownVariable):
        F2T.var("z")


def test_division_by_zero():
    t = F2T.var("t")
    with pytest.raises(DivisionByZero):
        t / F2T.zero()
    with pytest.raises(DivisionByZero):
        F2T.zero().inverse()


def test_characteristic_limit():
    # trial division stays fast below 2^31 and is refused from there on
    start = time.perf_counter()
    assert FieldDesc(2147483647).p == 2 ** 31 - 1
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="2147483648"):
        FieldDesc(2 ** 31)
    with pytest.raises(ValueError, match="1000000000000000003"):
        FieldDesc(1000000000000000003)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F2T.var("t") + F3T.var("t")


def test_canonical_form_reduces_common_factor():
    t, u = F2TU.var("t"), F2TU.var("u")
    f = (t * u + u) / (u * u)
    g = (t + F2TU.one()) / u
    assert f == g
    assert f.den == g.den


@given(ratfunc_strategy(F3T), ratfunc_strategy(F3T), ratfunc_strategy(F3T))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a - a == F3T.zero()


@given(ratfunc_strategy(F2T), ratfunc_strategy(F2T, nonzero=True))
def test_division_round_trip(a, b):
    assert (a / b) * b == a


@given(ratfunc_strategy(F3T))
def test_scaling_num_and_den_is_invisible(a):
    # multiplying numerator and denominator by the same unit changes nothing
    assert RatFunc(a.num.scale(2), a.den.scale(2)) == a


@given(ratfunc_strategy(F2T), ratfunc_strategy(F2T))
def test_frobenius_is_additive_and_multiplicative(a, b):
    assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
    assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
    assert a.frobenius(1) == a * a


def _cancelling_pairs(field, poly):
    """Operand pairs whose products lose terms to cancellation mod p.

    Over F_2, f*f drops every cross term.  For any p,
    (u - v) * (u^(p-1) + u^(p-2) v + ... + v^(p-1)) = u^p - v^p drops
    every middle term; the second factor is built with the reference.
    """
    f = poly()
    yield f, f
    u, v = poly(), poly()
    g = MPoly.zero(field)
    for i in range(field.p):
        term = MPoly.one(field)
        for _ in range(i):
            term = mul_reference(term, u)
        for _ in range(field.p - 1 - i):
            term = mul_reference(term, v)
        g = g + term
    yield u - v, g
    yield MPoly.zero(field), f


def test_mul_matches_reference():
    # the product accumulates unreduced sums and reduces them once; the
    # reference reduces and deletes zeros at every step
    rng = random.Random(2016)
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            k = FieldDesc(p, ("t", "u", "w")[:r])
            cancelled = 0

            def poly():
                return MPoly.make(k, {tuple(rng.randint(0, 3) for _ in range(r)):
                                      rng.randint(1, p - 1)
                                      for _ in range(rng.randint(1, 8))})

            pairs = [(poly(), poly()) for _ in range(30)]
            pairs += list(_cancelling_pairs(k, poly))
            for f, g in pairs:
                got, want = f * g, mul_reference(f, g)
                assert got.terms == want.terms, (f, g)
                assert all(0 < c < p for c in got.terms.values()), (f, g)
                sums = {tuple(a + b for a, b in zip(ea, eb)) for ea in f.terms for eb in g.terms}
                cancelled += len(sums) > len(got.terms)
            assert cancelled, (p, r)  # some products lost terms to cancellation


@pytest.mark.parametrize("p,r", [(p, r) for p in (2, 3, 5) for r in (1, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pow_matches_reference(p, r, data):
    # base-p digits against binary square-and-multiply, at the digit edges
    # p^k - 1 and p^k and at random exponents
    k = FieldDesc(p, ("t", "u")[:r])
    f = data.draw(mpoly_strategy(k, max_deg=2, max_terms=3))
    j = data.draw(st.integers(1, 2 if p == 5 else 3))
    n = data.draw(st.sampled_from([0, 1, p ** j - 1, p ** j]) | st.integers(0, 30))
    got = f ** n
    assert got.terms == pow_reference(f, n).terms, (f, n)
    assert all(0 < c < p for c in got.terms.values()), (f, n)


def test_fast_paths_match_unreduced_constructor():
    # sums and products of two polynomials skip the gcd, and a power keeps
    # its base's reduced form; each must equal what RatFunc(num, den) reduces
    rng = random.Random(2018)
    for p in (2, 3, 5):
        for r in (1, 2):
            k = FieldDesc(p, ("t", "u")[:r])

            def poly():
                return MPoly.make(k, {tuple(rng.randint(0, 2) for _ in range(r)):
                                      rng.randint(1, p - 1)
                                      for _ in range(rng.randint(1, 3))})

            def operand():
                return RatFunc(poly(), poly() if rng.random() < 0.5 else MPoly.one(k))

            kinds = set()
            for _ in range(25):
                f, g = operand(), operand()
                for a, b in ((f, g), (f, -f)):
                    assert a + b == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den), (a, b)
                    assert a * b == RatFunc(a.num * b.num, a.den * b.den), (a, b)
                    kinds.add((a.is_polynomial(), b.is_polynomial()))
                e = rng.randint(0, 6)
                num, den = MPoly.one(k), MPoly.one(k)
                for _ in range(e):
                    num, den = num * f.num, den * f.den
                assert f.num ** e == num and f.den ** e == den, (f, e)
                assert f ** e == RatFunc(num, den), (f, e)
            assert kinds == {(True, True), (True, False), (False, True), (False, False)}, (p, r)


def _arith_pairs(k, rng, poly):
    """Operand pairs that reach every branch of RatFunc's reduced-form arithmetic."""
    def nonconst():
        while (f := poly() + MPoly.var(k, rng.choice(k.vars))).is_constant():
            pass
        return f

    def operand():
        return RatFunc(poly(), nonconst() if rng.random() < 0.6 else MPoly.one(k))

    zero, c = k.zero(), k.const(rng.randint(1, k.p - 1))
    for _ in range(10):
        f, g = operand(), operand()
        yield f, g
        yield f, -f
    for _ in range(4):
        f = operand()
        yield f, zero
        yield zero, f
        yield c, f
        yield f, c
        # shared denominator factor h*j, and a sum t = h*w that cancels h
        h, j, d1, a, w = nonconst(), nonconst(), nonconst(), poly(), poly()
        yield RatFunc(a, h * j), RatFunc(h * w - a * d1, h * j * d1)
        # both cross gcds of a product nontrivial
        yield RatFunc(h * a, j * d1), RatFunc(j * w, h * nonconst())
        x = MPoly.var(k, rng.choice(k.vars))
        yield RatFunc(x * a, x + MPoly.one(k)), RatFunc((x + MPoly.one(k)) * w, x)
        yield RatFunc(a, x), RatFunc(w, x * x)  # shares x; t = a x + w keeps it unless x | w


def _sum_kind(f, g):
    if not f or not g:
        return "zero"
    if f.is_polynomial() or g.is_polynomial():
        return {(True, True): "poly+poly", (True, False): "poly+frac", (False, True): "frac+poly"}[
            (f.is_polynomial(), g.is_polynomial())]
    if not f + g:
        return "cancels to 0"
    gd = poly_gcd(f.den, g.den)
    if gd.is_one():
        return "coprime"
    t = f.num * exact_div_reference(g.den, gd) + g.num * exact_div_reference(f.den, gd)
    return "shared" if poly_gcd(t, gd).is_one() else "shared, partly cancelled"


def test_reduced_form_arithmetic_matches_unreduced_constructor():
    # +, -, * and / work on reduced operands and take only the small gcds;
    # each result must equal what RatFunc(num, den) reduces from the
    # unreduced cross products
    rng = random.Random(1956)
    for p in (2, 3, 5):
        for r in (1, 2):
            k = FieldDesc(p, ("t", "u")[:r])

            def poly():
                return MPoly.make(k, {tuple(rng.randint(0, 2) for _ in range(r)):
                                      rng.randint(1, p - 1)
                                      for _ in range(rng.randint(1, 3))})

            kinds = set()
            for f, g in _arith_pairs(k, rng, poly):
                (a, b), (c, d) = (f.num, f.den), (g.num, g.den)
                assert f + g == RatFunc(a * d + c * b, b * d), (f, g)
                assert f - g == RatFunc(a * d - c * b, b * d), (f, g)
                assert f * g == RatFunc(a * c, b * d), (f, g)
                kinds.add(_sum_kind(f, g))
                if f.is_constant() or g.is_constant():
                    kinds.add("constant")
                if not (poly_gcd(a, d).is_one() or poly_gcd(c, b).is_one()):
                    kinds.add("both cross gcds")
                if g:
                    assert f / g == RatFunc(a * d, b * c), (f, g)
                    if not g.is_polynomial() and c.leading()[1] != 1:
                        kinds.add("non-monic divisor")
            want = {"zero", "poly+poly", "poly+frac", "frac+poly", "cancels to 0", "coprime", "shared",
                    "shared, partly cancelled", "constant", "both cross gcds"}
            if p > 2:
                want.add("non-monic divisor")
            assert want <= kinds, (p, r, want - kinds)


def test_field_operators():
    t = F2T.var("t")
    one = F2T.one()
    assert (t + one) - one == t
    assert -(t + one) == t + one
    assert (t * t) / t == t
    assert t.inverse() == one / t
    assert t.inverse() * t == one


# ----------------------------------------------------------------------- gcd

def _to_sympy(f):
    gens = sympy.symbols(f.field.vars)
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        mono = sympy.Integer(c)
        for g, e in zip(gens, exps):
            mono *= g ** e
        expr += mono
    return sympy.Poly(expr, *gens, modulus=f.field.p)


def test_gcd_pinned_examples():
    t = MPoly(F2T, {(1,): 1})
    one = MPoly(F2T, {(0,): 1})
    f = (t + one) * (t * t + t + one)
    g = (t + one) * t
    assert poly_gcd(f, g) == t + one

    t2, u2 = MPoly(F2TU, {(1, 0): 1}), MPoly(F2TU, {(0, 1): 1})
    assert poly_gcd((t2 + u2) * t2, (t2 + u2) * u2) == t2 + u2


@settings(max_examples=60)
@given(mpoly_strategy(F3T, nonzero=True), mpoly_strategy(F3T, nonzero=True))
def test_gcd_matches_sympy_univariate(f, g):
    ours = _to_sympy(poly_gcd(f, g))
    theirs = _to_sympy(f).gcd(_to_sympy(g))
    assert ours.monic() == theirs.monic()


@settings(max_examples=40)
@given(mpoly_strategy(F2TU, max_deg=2, nonzero=True),
       mpoly_strategy(F2TU, max_deg=2, nonzero=True))
def test_gcd_matches_sympy_bivariate(f, g):
    ours = _to_sympy(poly_gcd(f, g))
    theirs = _to_sympy(f).gcd(_to_sympy(g))
    assert ours.monic() == theirs.monic()


def _random_poly(rng, field, deg, terms):
    """A nonzero polynomial of total degree <= deg with up to `terms` terms."""
    r, p = field.r, field.p
    out = {}
    while not out:
        for _ in range(terms):
            e = [0] * r
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(r)] += 1
            out[tuple(e)] = rng.randrange(1, p)
    return MPoly(field, out)


def _gcd_cases():
    """Planted common factors over GF(p)(t_1..t_r), then the edge cases."""
    rng = random.Random(20240601)
    for p in (2, 3, 5, 7):
        for r in (1, 2, 3):
            k = FieldDesc(p, ("t", "u", "w")[:r])
            one, t = MPoly.one(k), MPoly.var(k, "t")
            deg, terms = {1: (20, 8), 2: (4, 4), 3: (3, 3)}[r]
            for i in range(6):
                h, a, b = (_random_poly(rng, k, deg, terms) for _ in range(3))
                yield pytest.param(h, h * a, h * b, id=f"p{p}r{r}-planted{i}")
            h = _random_poly(rng, k, deg, terms)
            yield pytest.param(one, h, one.scale(p - 1), id=f"p{p}r{r}-constant")
            yield pytest.param(t, h * t ** 3, t ** 5, id=f"p{p}r{r}-monomials")
            yield pytest.param(h, h, h, id=f"p{p}r{r}-equal")
            yield pytest.param(h, h * _random_poly(rng, k, deg, terms), h, id=f"p{p}r{r}-divides")
            yield pytest.param(h, MPoly.zero(k), h, id=f"p{p}r{r}-zero")
    k = FieldDesc(7, ("t",))
    t, one = MPoly.var(k, "t"), MPoly.one(k)
    h = (t + one) ** 20
    yield pytest.param(h, h * (t ** 20 + one), h * (t ** 20 + t), id="p7r1-degree40")
    # sparse in two variables with a t-degree above 64: long dense lists
    k = FieldDesc(3, ("t", "u"))
    t, u = MPoly.var(k, "t"), MPoly.var(k, "u")
    h = _random_poly(rng, k, 4, 4) * t ** 64
    yield pytest.param(h, h * (u ** 3 + t), h * (t ** 5 * u + MPoly.one(k)), id="p3r2-sparse-degree64")
    # coprime, though no point of GF(2) shows it: at t = 1 the images share
    # u + 1, and at t = 0 the u-degree of t*u + 1 drops
    k = FieldDesc(2, ("t", "u"))
    t, u = MPoly.var(k, "t"), MPoly.var(k, "u")
    yield pytest.param(MPoly.one(k), t ** 2 * u ** 2 + u, t * u + MPoly.one(k), id="p2r2-coprime-bad-images")
    # the fractions whose reduction the forms benchmark pays for most
    for i, (spec, num, den) in enumerate(_golden_fractions()):
        k = parse_field_spec(spec)
        yield pytest.param(MPoly.one(k), _parse_value(num, k).num, _parse_value(den, k).num,
                           id=f"golden-frac{i}")


def _golden_fractions():
    """Each distinct (field, num, den) of the coefficients num/den in the
    golden `forms` variants of the classes p2r2/frac and p3r2/frac."""
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    found = {(v["field"], num, den) for slot in golden["workloads"]["forms"]
             if slot["class"] in ("p2r2/frac", "p3r2/frac") for v in slot["variants"]
             for num, den in re.findall(r"\(([^()]*)\)/\(([^()]*)\)", v["eq"])}
    assert len(found) == 57
    return sorted(found)


@pytest.mark.parametrize("planted,f,g", _gcd_cases())
def test_gcd_matches_references_on_planted_factors(planted, f, g):
    # Euclid in one variable and the PRS above it against the PRS at every
    # level and against sympy; the result is monic and holds the planted
    # factor, and _cancel's cofactors are the sparse long division's quotients
    ours = poly_gcd(f, g)
    assert ours == prs_gcd_reference(f, g)
    assert ours.leading()[1] == 1
    assert _to_sympy(ours).rem(_to_sympy(planted)).is_zero
    if f and g:
        assert _to_sympy(ours).monic() == _to_sympy(f).gcd(_to_sympy(g)).monic()
    assert field_mod._cancel(f, g) == (ours, exact_div_reference(f, ours), exact_div_reference(g, ours))


def test_division_reference_rejects_an_inexact_quotient():
    # the cofactor oracle above must not pass a remainder off as a quotient
    k = FieldDesc(3, ("t", "u"))
    t, u, one = MPoly.var(k, "t"), MPoly.var(k, "u"), MPoly.one(k)
    f, d = (t + u) * (t * u + one) + one, t + u
    with pytest.raises(ValueError, match="inexact division"):
        exact_div_reference(f, d)
    with pytest.raises(ValueError, match="inexact monomial division"):
        exact_div_reference(f, t)
    assert exact_div_reference(f - one, d) == t * u + one


@given(mpoly_strategy(F2T, nonzero=True), mpoly_strategy(F2T, nonzero=True))
def test_gcd_divides_both(f, g):
    d = RatFunc.from_poly(poly_gcd(f, g))
    assert (RatFunc.from_poly(f) / d).is_polynomial()
    assert (RatFunc.from_poly(g) / d).is_polynomial()


# ---------------------------------------------------------- p-th power tests

def test_pth_root_examples():
    t = F2T.var("t")
    assert (t * t).pth_root() == t
    assert t.pth_root() is None
    assert (t * t / (t * t + F2T.one())).pth_root() == t / (t + F2T.one())

    s = F3T.var("t")
    assert (s ** 3).pth_root() == s
    assert (s + F3T.one()).pth_root() is None


def test_pn_power_test_examples():
    # a lies in k^(p^n) exactly when power_level(a, n) reaches n
    t, s = F2T.var("t"), F3T.var("t")
    assert power_level(t ** 4, 2) == (2, t)
    assert power_level(t ** 4, 3) == (2, t)
    assert power_level(F2T.one(), 5) == (5, F2T.one())
    assert power_level(s ** 9, 2) == (2, s)
    assert power_level(s ** 3, 2) == (1, s)


def test_power_level_examples():
    t = F2T.var("t")
    assert power_level(t, 3) == (0, t)
    # zero lies in every k^(p^v)
    assert power_level(F2T.zero(), 2) == (2, F2T.zero())
    with pytest.raises(ValueError):
        power_level(t, -1)


@given(st.sampled_from([F2T, F3T]).flatmap(ratfunc_strategy), st.integers(0, 3), st.integers(0, 3))
@example(F2T.var("t"), 2, 2)
@example(F2T.var("t"), 2, 3)
@example(F2T.one(), 0, 5)
@example(F3T.var("t"), 2, 2)
@example(F3T.var("t"), 1, 2)
def test_power_level_round_trip(f, j, n):
    a = f.frobenius(j)
    v, b = power_level(a, n)
    assert b.frobenius(v) == a
    assert min(j, n) <= v <= n
    assert v == n or b.pth_root() is None


@given(ratfunc_strategy(F3T, nonzero=True), st.integers(0, 2), st.integers(0, 2))
def test_power_level_shifts_under_frobenius(f, j, extra):
    n = j + extra
    assert power_level(f.frobenius(j), n)[0] >= j
    assert compositum_degree([(f.frobenius(j), n)]) <= F3T.p ** extra


def test_partial_derivative():
    # the reduced derivative of a fraction is a test oracle; the library's
    # Jacobian rank works on den^2 * grad b with MPoly.partial
    t, u = F2TU.var("t"), F2TU.var("u")
    assert ratfunc_partial(t * t * u, "t") == F2TU.zero()
    assert ratfunc_partial(t * u, "u") == t
    assert ratfunc_partial(F3T.var("t") ** 3 + F3T.var("t"), "t") == F3T.one()
    assert ratfunc_partial(1 / (t + u), "t") == 1 / (t + u) ** 2
    assert not hasattr(RatFunc, "partial")


# ----------------------------------------------------------- towers / degrees

def test_compositum_degree_single_generator():
    t = F2T.var("t")
    assert compositum_degree([(t, 1)]) == 2
    assert compositum_degree([(t, 2)]) == 4
    assert compositum_degree([(t * t, 1)]) == 1
    assert compositum_degree([(F3T.var("t"), 1)]) == 3
    # [k(a^(1/p^n)) : k] = p^(n - v), v the power level of a
    assert compositum_degree([(t, 3)]) == 8
    assert compositum_degree([(t ** 4, 3)]) == 2
    assert compositum_degree([(F2T.const(1), 4)]) == 1
    with pytest.raises(ZeroInput):
        compositum_degree([(F2T.zero(), 2)])


def test_compositum_degree_joins():
    t, u = F2TU.var("t"), F2TU.var("u")
    assert compositum_degree([(t, 1), (u, 1)]) == 4
    assert compositum_degree([(t, 1), (t, 2)]) == 4
    assert compositum_degree([(t * u, 1), (t, 1)]) == 4
    assert compositum_degree([(t * u, 1), (t, 1), (u, 1)]) == 4


def test_tower_field_names():
    kk = tower_field(F2T, 2)
    assert kk.vars == ("t#2",)
    assert kk.p == 2


def test_subfield_membership():
    t = F2T.var("t")
    half = tower_root(t, 1, 2)      # t^(1/2) inside the level-2 tower
    quarter = tower_root(t, 2, 2)   # t^(1/4)
    assert subfield_membership(half, [quarter])
    assert not subfield_membership(quarter, [half])

    tu, uu = F2TU.var("t"), F2TU.var("u")
    rt = tower_root(tu, 1, 1)
    ru = tower_root(uu, 1, 1)
    rtu = tower_root(tu * uu, 1, 1)
    assert subfield_membership(rtu, [rt, ru])
    assert not subfield_membership(ru, [rt])


def test_level_mismatch():
    t = F2T.var("t")
    with pytest.raises(LevelMismatch):
        tower_root(t, 2, 1)


def test_basis_cap_enforced():
    # the chain bounds leave this input open: d(t/u^2) = dt/u^2 in
    # characteristic 2, so lo = 2 * 2 and hi = 2^(1 + 2), and the dense
    # basis of 2^(2*2) = 16 decides the degree 8
    t, u = F2TU.var("t"), F2TU.var("u")
    pairs = [(t, 2), (t / u ** 2, 2)]
    assert field_mod._degree_bounds(pairs) == (4, 8)
    assert field_mod._dense_degree(pairs) == 8
    # y^125 = x + u^5*x^5 + t/(t+u)*x^25 + (t/(t+u) + u^5/(t^2+1)^5)*x^125
    # over GF(5)(t,u): 5^5 <= [k':k] <= 5^6, and roots of exponent 3 need a
    # basis of 5^(2*3) = 15625
    k = FieldDesc(5, ("t", "u"))
    t, u, one = k.var("t"), k.var("u"), k.one()
    a = t / (t + u)
    pairs = [(u ** 5, 3), (a, 3), (a + u ** 5 / (t ** 2 + one) ** 5, 3)]
    assert field_mod.BASIS_CAP == 4096
    with pytest.raises(BasisTooLarge, match=re.escape("p^(r*N) = 15625 exceeds cap 4096")):
        compositum_degree(pairs)


def test_dense_basis_sized_by_the_roots(monkeypatch):
    # a = b^(p^v) gives k(a^(1/p^n)) = k(b^(1/p^(n-v))): the roots (t, 2) and
    # (t/u^2, 2) of these pairs need a basis of 16, not the 2^(2*7) of n = 7
    t, u = F2TU.var("t"), F2TU.var("u")
    dense, seen = field_mod._dense_degree, []
    monkeypatch.setattr(field_mod, "_dense_degree", lambda roots: seen.append(roots) or dense(roots))
    assert compositum_degree([(t ** 32, 7), ((t / u ** 2) ** 32, 7)]) == 8
    assert seen == [[(t, 2), (t / u ** 2, 2)]]


def _random_coeff(rng, field, den_rng):
    """A polynomial, a quarter of the time inverted and a quarter of the time
    divided by a monomial drawn from den_rng, raised to the p^j-th power."""
    terms = {tuple(rng.randint(0, 2) for _ in field.vars): rng.randint(1, field.p - 1)
             for _ in range(rng.randint(1, 3))}
    f = RatFunc.from_poly(MPoly(field, terms))
    roll = rng.random()
    if roll < 0.25:
        f = f.inverse()
    elif roll < 0.5:
        f = f / RatFunc.from_poly(MPoly(field, {tuple(den_rng.randint(0, 2) for _ in field.vars): 1}))
    return f.frobenius(rng.randint(0, 2))


def _golden_open_pairs():
    """(a_i, n) of the perfbench golden inputs over GF(2)(t,u) that the
    Frobenius chain bounds leave open, e.g. y^8 = x + t/(u)*x^2 + u/(t)*x^4
    + t*u*x^8; the second is settled only because step 1 is exact."""
    t, u = F2TU.var("t"), F2TU.var("u")
    coeffs = [
        (3, [t / u, u / t, t * u]),
        (2, [1 / u ** 2, u ** 2, t ** 2 / u]),
        (2, [u ** 2 / t ** 2, t, 1 / (t * u ** 2)]),
        (3, [1 / (t ** 2 * u ** 2), 1 / (t * u)]),
        (2, [t, t / u ** 2]),
        (2, [1 / u, t ** 2 * u + u ** 2]),
        (2, [t ** 2 * u + u ** 2, t ** 2 * u + u]),
        (2, [t * u ** 2 + u ** 2, t ** 2 * u ** 2 + t * u ** 2]),
    ]
    return [tuple((a, n) for a in cs) for n, cs in coeffs]


def _open_draws():
    """12 draws of several roots at n = 2 over GF(3)(t,u) that the chain
    bounds leave open, about one in 260 draws."""
    k, rng, den_rng = FieldDesc(3, ("t", "u")), random.Random(7), random.Random(8)
    open_ = []
    while len(open_) < 12:
        pairs = tuple((_random_coeff(rng, k, den_rng), 2) for _ in range(rng.randint(2, 3)))
        if (roots := _roots(pairs)) and (b := field_mod._degree_bounds(roots))[0] < b[1]:
            open_.append(pairs)
    return open_


def test_rules_match_dense_oracle(monkeypatch):
    # the auxiliary-field oracle costs about p^(r*N) rows times a (p^N - 1)-th
    # power of each denominator, so both stay small: basis <= 81 and p^N <= 27;
    # it checks the chain bounds and the Frobenius-side dense path alike
    dense = field_mod._dense_degree
    remainder = []
    monkeypatch.setattr(field_mod, "_dense_degree", lambda roots: remainder.append(roots) or dense(roots))
    rng, den_rng = random.Random(2016), random.Random(2017)
    corpus = []
    while len(corpus) < 250:
        p, r = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        top = max(N for N in range(4) if p ** (r * N) <= 81 and p ** N <= 27)
        if top == 0:
            continue
        k = FieldDesc(p, ("t", "u", "w")[:r])
        pairs = tuple((_random_coeff(rng, k, den_rng), rng.randint(1, top))
                      for _ in range(rng.randint(1, 3)))
        if pairs not in corpus:
            corpus.append(pairs)

    # the draws above are all split or settled; the open draws below are not
    golden, open_ = _golden_open_pairs(), _open_draws()
    seen, found = {}, {}
    for pairs in corpus + golden + open_:
        remainder.clear()
        want = dense_degree_reference(pairs, 81)
        assert compositum_degree(pairs) == want, pairs
        if roots := _roots(pairs):
            assert dense(roots) == dense_degree_rowspace_reference(roots) == want, pairs
            lo, hi = field_mod._degree_bounds(roots)
            assert lo <= want <= hi, pairs
            branch = "settled" if lo == hi else "dense"
            found[pairs] = (lo, want, hi)
        else:
            assert want == 1, pairs
            branch = "split"
        # the dense path gets the roots that compositum_degree found
        assert remainder == ([roots] if branch == "dense" else []), pairs
        seen[pairs] = branch
    assert {"split", "settled", "dense"} <= set(seen.values())
    assert [seen[pairs] for pairs in golden] == ["dense", "settled"] + ["dense"] * 6
    # the open draws take the dense path, where the degree meets either bound
    assert all(seen[pairs] == "dense" for pairs in open_)
    cases = {"lo" if want == lo else "hi" if want == hi else "inside"
             for lo, want, hi in map(found.get, open_)}
    assert {"lo", "hi"} <= cases
    # the dense path meets a denominator and both sides of the num/den choice
    rest = [b for pairs, branch in seen.items() if branch == "dense" for b, _ in _roots(pairs)]
    assert any(not b.num.is_constant() and not b.den.is_constant() for b in rest)
    assert any(sum(b.den.leading()[0]) > sum(b.num.leading()[0]) for b in rest)


def _roots(pairs):
    """The roots (b_i, e_i) that `compositum_degree` hands to `_degree_bounds`."""
    return [(b, n - v) for a, n in pairs for v, b in [power_level(a, n)] if v < n]


def test_dense_span_is_built_once(monkeypatch):
    # one echelon holds the span, and each product of the generators is
    # reduced into it once, so its pivot rows number the degree; the only
    # rows that reduce to zero end each generator's exponent probe, and
    # rebuilding the span after a generator would reduce earlier products
    # to zero again
    calls, reduce = [], field_mod._reduce
    monkeypatch.setattr(field_mod, "_reduce", lambda pivots, row, field: calls.append(
        (pivots, out := reduce(pivots, row, field))) or out)
    for pairs in _golden_open_pairs() + _open_draws():
        calls.clear()
        roots = _roots(pairs)
        degree = field_mod._dense_degree(roots)
        (pivots,) = {id(pivots): pivots for pivots, _ in calls}.values()
        assert len(pivots) == degree, pairs
        assert sum(not out for _, out in calls) == len(roots), pairs


def test_dense_degree_matches_rowspace_on_quotients():
    # roots num/(den1 + den2) over GF(5)(t,u) whose coordinates are true
    # quotients, where the parent's RowSpace over RatFunc took its cross
    # gcds; each settles in under 0.5 s on both sides
    k = FieldDesc(5, ("t", "u"))
    t, u = k.var("t"), k.var("u")
    for roots in ([(4 / (t ** 2 * u + 2 * u), 1), (3 * t ** 2 * u ** 2 / (t ** 2 * u + 4), 1)],
                  [(2 * t / (t + 2), 1), (2 / (t ** 2 * u + u ** 2), 1)],
                  [(2 * t * u ** 2 / (t ** 2 + 2), 1), (u / (t ** 2 * u + 4 * t), 1)]):
        assert field_mod._dense_degree(roots) == dense_degree_rowspace_reference(roots) == 25, roots


def _count_jacobians(monkeypatch):
    """A list that grows by one entry per MPoly.partial call: only the
    Jacobian step of `_degree_bounds` takes one."""
    calls, partial = [], MPoly.partial
    monkeypatch.setattr(MPoly, "partial", lambda f, v: calls.append(v) or partial(f, v))
    return calls


def test_degree_bounds_match_reference_on_golden(monkeypatch):
    # every root set of the golden benchmark inputs: the fraction-free rank
    # against RowSpace over RatFunc
    calls, formed, sets = _count_jacobians(monkeypatch), 0, 0
    for v in _golden_variants():
        X = parse_form_equation(v["eq"], parse_field_spec(v["field"])).build()
        G = getattr(X, "form", X)
        if roots := _roots([(c, G.n) for _, c in G.twist_coeffs()]):
            before, sets = len(calls), sets + 1
            bounds = field_mod._degree_bounds(roots)
            formed += len(calls) > before
            assert bounds == degree_bounds_reference(roots), v
    assert (sets, formed) == (1366, 95)


def test_degree_bounds_match_reference_on_seeded_corpus(monkeypatch):
    # roots over GF(2|3|5)(t[,u[,w]]) with non-monomial denominators, and
    # rows that depend on each other: a repeated b, b + c^p (same gradient),
    # b * c^p (gradient times a unit) and b * b' (in the span of b and b');
    # one fraction only over three variables, where the oracle is slow
    calls, rng = _count_jacobians(monkeypatch), random.Random(3030)

    def poly(k, top):
        return RatFunc.from_poly(MPoly(k, {tuple(rng.randint(0, top) for _ in k.vars): rng.randint(1, k.p - 1)
                                           for _ in range(rng.randint(1, 3))}))

    def fraction(k, top):
        while True:
            den = poly(k, top) + poly(k, top)
            if len(den.num.terms) > 1 and (b := poly(k, top) / den) and b.pth_root() is None:
                return b

    formed = deficient = 0
    for _ in range(300):
        p, r = rng.choice((2, 3, 5)), rng.randint(1, 3)
        k, top = FieldDesc(p, ("t", "u", "w")[:r]), 1 if r == 3 else 2
        bs = [fraction(k, top) for _ in range(rng.randint(1, 2 if r < 3 else 1))]
        b, c = bs[0], k.var(rng.choice(k.vars)) + 1
        for dep in (b, b + c ** p, b * c ** p, b * bs[-1]):
            if rng.random() < 0.3 and dep.pth_root() is None:
                bs.append(dep)
        roots = [(b, rng.randint(1, 3)) for b in bs]
        before = len(calls)
        lo, hi = field_mod._degree_bounds(roots)
        if len(calls) > before:  # the Jacobian was formed
            formed += 1
            deficient += lo < p ** sum(min(r, sum(1 for _, e in roots if e >= j))
                                       for j in range(1, max(e for _, e in roots) + 1))
        assert (lo, hi) == degree_bounds_reference(roots), roots
    assert (formed, deficient) == (151, 102)


def _automorphisms(k):
    """Images of the variables under t_j -> t_j + 1, t_j -> 1/t_j, t_j -> 2*t_j
    for odd p, and for r = 2 under t <-> u and t -> t + u."""
    gens, out = k.generators(), []
    for j, t in enumerate(gens):
        for image in (t + 1, 1 / t) + ((2 * t,) if k.p % 2 else ()):
            out.append(gens[:j] + (image,) + gens[j + 1:])
    if k.r == 2:
        t, u = gens
        out += [(u, t), (t + u, u)]
    return out


def test_compositum_degree_survives_transport(monkeypatch):
    # [k':k] of each distinct golden input's form is the same after an
    # automorphism of k, which moves the roots off the monomials that the
    # chain bounds settle: far more transported sets reach the dense path
    dense, reached = field_mod._dense_degree, []
    monkeypatch.setattr(field_mod, "_dense_degree", lambda roots: reached.append(roots) or dense(roots))
    cases = sorted({(v["field"], v["eq"]) for v in _golden_variants()})
    checked = direct = 0
    for field, eq in cases:
        X = parse_form_equation(eq, parse_field_spec(field)).build()
        G = getattr(X, "form", X)
        pairs = [(c, G.n) for _, c in G.twist_coeffs()]
        before = len(reached)
        want = compositum_degree(pairs)
        direct += len(reached) - before
        for images in _automorphisms(G.field):
            assert compositum_degree([(transport(c, images), n) for c, n in pairs]) == want, (field, eq, images)
            checked += 1
    assert (len(cases), checked, direct, len(reached) - direct) == (1293, 6044, 7, 80)


def test_public_surface():
    import unipic

    for name in unipic.__all__:
        getattr(unipic, name)
    assert len(set(unipic.__all__)) == len(unipic.__all__)
    # the auxiliary-field tower lives on only in tests/tower_reference.py, and
    # exports without a library caller are gone (poly_gcd, the first result of
    # field._cancel, to tests/gcd_reference.py)
    for name in ("tower_field", "tower_root", "RootTowerElem", "LevelMismatch",
                 "root_field_degree", "torsion_bound_unipotent", "pn_power_test", "poly_gcd"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name) and not hasattr(field_mod, name)
    # the ring k{F} lives on only in tests/skew_reference.py, a form stores
    # its coefficients itself; the others had no caller outside the library
    # modules that import them directly
    for name in ("AdditivePoly", "SkewDivisionError", "eval_additive", "right_divmod",
                 "to_additive", "SkewPoly", "splitting_field_degree", "RowSpace"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name)
    # both eliminations of the tower are field._reduce; RowSpace over RatFunc
    # lives on only in tests/tower_reference.py
    assert not (Path(field_mod.__file__).parent / "linalg.py").exists()
    assert not hasattr(field_mod, "RowSpace")
    # a completion and a report each store every fact once, and a torsor is
    # built by its constructor
    for name in ("ExactSeqData", "exact_sequence_data", "torsion_bound",
                 "NotANaiveCompletion", "make_torsor"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name)
    # the report takes its two settings as keyword arguments, and the Cech
    # oracle has one window, so no pole bound is checked
    assert "ReportOptions" not in unipic.__all__ and not hasattr(unipic, "ReportOptions")
    assert not hasattr(unipic, "BoundTooSmall") and not hasattr(unipic.wproj, "check_pole_bound")
    # division lives only in field._cancel, its sparse form in tests/gcd_reference.py
    assert not hasattr(MPoly, "exact_div") and not hasattr(MPoly, "monic")
    assert not hasattr(field_mod, "_span_space")
    assert len(unipic.__all__) == 41
