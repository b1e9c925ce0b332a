"""Exact rational function field arithmetic, p-power tests and root towers."""

import random
import time

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
    basis_cap,
    compositum_degree,
    poly_gcd,
    power_level,
)

from conftest import F2T, F2TU, F3T, mpoly_strategy, ratfunc_strategy
from mul_reference import mul_reference, pow_reference
from tower_reference import (
    LevelMismatch,
    dense_degree_reference,
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
    t = f.num * g.den.exact_div(gd) + g.num * f.den.exact_div(gd)
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
    t, u = F2TU.var("t"), F2TU.var("u")
    assert (t * t * u).partial("t") == F2TU.zero()
    assert (t * u).partial("u") == t
    assert (F3T.var("t") ** 3 + F3T.var("t")).partial("t") == F3T.one()


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


def test_basis_cap_env(monkeypatch):
    monkeypatch.delenv("UNIPIC_BASIS_CAP", raising=False)
    assert basis_cap() == 4096
    monkeypatch.setenv("UNIPIC_BASIS_CAP", "64")
    assert basis_cap() == 64


def test_basis_cap_enforced(monkeypatch):
    # the chain bounds leave this input open: d(t/u^2) = dt/u^2 in
    # characteristic 2, so lo = 2 * 2 and hi = 2^(1 + 2), and the dense
    # basis of 2^(2*2) = 16 decides the degree 8
    t, u = F2TU.var("t"), F2TU.var("u")
    pairs = [(t, 2), (t / u ** 2, 2)]
    assert field_mod._degree_bounds(pairs) == (4, 8)
    monkeypatch.setenv("UNIPIC_BASIS_CAP", "16")
    assert field_mod._dense_degree(pairs) == 8
    monkeypatch.setenv("UNIPIC_BASIS_CAP", "2")
    with pytest.raises(BasisTooLarge):
        compositum_degree(pairs)


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


def test_rules_match_dense_oracle(monkeypatch):
    # the auxiliary-field oracle costs about p^(r*N) rows times a (p^N - 1)-th
    # power of each denominator, so both stay small: basis <= 81 and p^N <= 27;
    # it checks the chain bounds and the Frobenius-side dense path alike
    monkeypatch.setenv("UNIPIC_BASIS_CAP", "81")
    dense = field_mod._dense_degree
    remainder = []
    monkeypatch.setattr(field_mod, "_dense_degree", lambda pairs: remainder.append(pairs) or dense(pairs))
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

    def bounds(pairs):
        roots = [(b, n - v) for a, n in pairs for v, b in [power_level(a, n)] if v < n]
        return field_mod._degree_bounds(roots) if roots else None

    # the draws above are all split or settled; several roots at n = 2 over
    # GF(3)(t,u) leave the bounds open about once in 260 draws
    k, rng, den_rng = FieldDesc(3, ("t", "u")), random.Random(7), random.Random(8)
    open_ = []
    while len(open_) < 12:
        pairs = tuple((_random_coeff(rng, k, den_rng), 2) for _ in range(rng.randint(2, 3)))
        if (b := bounds(pairs)) and b[0] < b[1]:
            open_.append(pairs)
    golden = _golden_open_pairs()
    seen, found = {}, {}
    for pairs in corpus + golden + open_:
        remainder.clear()
        want = dense_degree_reference(pairs, 81)
        assert compositum_degree(pairs) == want, pairs
        assert dense(pairs) == want, pairs
        if b := bounds(pairs):
            lo, hi = b
            assert lo <= want <= hi, pairs
            branch = "settled" if lo == hi else "dense"
            found[pairs] = (lo, want, hi)
        else:
            branch = "split"
        assert bool(remainder) == (branch == "dense"), pairs
        seen[pairs] = branch
    assert {"split", "settled", "dense"} <= set(seen.values())
    assert [seen[pairs] for pairs in golden] == ["dense", "settled"] + ["dense"] * 6
    # the open draws take the dense path, where the degree meets either bound
    assert all(seen[pairs] == "dense" for pairs in open_)
    cases = {"lo" if want == lo else "hi" if want == hi else "inside"
             for lo, want, hi in map(found.get, open_)}
    assert {"lo", "hi"} <= cases
    # the dense path meets a denominator and both sides of the num/den choice
    rest = [a for pairs, branch in seen.items() if branch == "dense" for a, _ in pairs]
    assert any(not a.num.is_constant() and not a.den.is_constant() for a in rest)
    assert any(sum(a.den.leading()[0]) > sum(a.num.leading()[0]) for a in rest)


def test_public_surface():
    import unipic

    for name in unipic.__all__:
        getattr(unipic, name)
    assert len(set(unipic.__all__)) == len(unipic.__all__)
    # the auxiliary-field tower lives on only in tests/tower_reference.py, and
    # exports without a library caller are gone
    for name in ("tower_field", "tower_root", "RootTowerElem", "LevelMismatch",
                 "root_field_degree", "torsion_bound_unipotent", "pn_power_test"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name) and not hasattr(field_mod, name)
    # the ring k{F} lives on only in tests/skew_reference.py, a form stores
    # its coefficients itself; the others had no caller outside the library
    # modules that import them directly
    for name in ("AdditivePoly", "SkewDivisionError", "eval_additive", "right_divmod",
                 "to_additive", "SkewPoly", "splitting_field_degree", "RowSpace"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name)
    # a completion and a report each store every fact once, and a torsor is
    # built by its constructor
    for name in ("ExactSeqData", "exact_sequence_data", "torsion_bound",
                 "NotANaiveCompletion", "make_torsor"):
        assert name not in unipic.__all__
        assert not hasattr(unipic, name)
    # the report takes its three settings as keyword arguments
    assert "ReportOptions" not in unipic.__all__ and not hasattr(unipic, "ReportOptions")
    assert len(unipic.__all__) == 44
