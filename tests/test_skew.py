"""Skew polynomial ring k{F} with F a = a^p F, and additive polynomials.

The ring lives in tests/skew_reference.py; the last two tests use it as
the oracle for `make_form` and `equation_holds`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from unipic import equation_holds, make_form

from conftest import F2T, F2TU, F3T, nonzero_ratfunc_strategy, ratfunc_strategy
from skew_reference import (
    SkewDivisionError,
    SkewPoly,
    eval_additive,
    right_divmod,
    to_additive,
)


def skew_strategy(field, max_deg=2):
    coeffs = st.lists(ratfunc_strategy(field), min_size=0, max_size=max_deg + 1)
    return coeffs.map(lambda cs: SkewPoly(field, cs))


def nonzero_skew_strategy(field, max_deg=2):
    return skew_strategy(field, max_deg).filter(lambda f: f.degree >= 0)


def test_commutation_rule():
    t = F2T.var("t")
    F = SkewPoly(F2T, [F2T.zero(), F2T.one()])
    a = SkewPoly(F2T, [t])
    left = F * a
    right = a * F
    assert left.coeffs == (F2T.zero(), t * t)
    assert right.coeffs == (F2T.zero(), t)
    assert left != right


def test_commutation_rule_char3():
    t = F3T.var("t")
    F = SkewPoly(F3T, [F3T.zero(), F3T.one()])
    a = SkewPoly(F3T, [t])
    assert (F * a).coeffs == (F3T.zero(), t ** 3)


def test_zero_and_degree():
    assert SkewPoly(F2T, []).degree == -1
    assert SkewPoly(F2T, [F2T.zero()]).degree == -1
    assert SkewPoly(F2T, [F2T.zero(), F2T.one()]).degree == 1


# a product of three degree-2 F_3(t) skew polynomials can take 0.3 s,
# over Hypothesis's 200 ms default deadline
@settings(deadline=1000)
@given(skew_strategy(F3T), skew_strategy(F3T), skew_strategy(F3T))
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(skew_strategy(F2T), nonzero_skew_strategy(F2T))
def test_right_divmod_reconstructs(f, g):
    q, r = right_divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_right_divmod_twists_coefficients():
    t = F2T.var("t")
    # (F - t) divides F^2 - t^2 t F ... pin one concrete division
    f = SkewPoly(F2T, [F2T.zero(), F2T.zero(), F2T.one()])  # F^2
    g = SkewPoly(F2T, [t, F2T.one()])                        # F + t
    q, r = right_divmod(f, g)
    assert q * g + r == f
    assert q.coeffs == (t * t, F2T.one())
    assert r.coeffs == (t * t * t,)


def test_division_by_zero():
    with pytest.raises(SkewDivisionError):
        right_divmod(SkewPoly(F2T, [F2T.one()]), SkewPoly(F2T, []))


def test_to_additive_rendering():
    t = F2T.var("t")
    f = SkewPoly(F2T, [F2T.one(), t])
    assert str(to_additive(f)) == "x + t*x^2"
    assert to_additive(f).coeffs == ((0, F2T.one()), (1, t))


def test_eval_additive_examples():
    t = F2T.var("t")
    f = SkewPoly(F2T, [F2T.one(), t])
    assert eval_additive(f, t) == t + t * t * t
    assert eval_additive(f, F2T.zero()) == F2T.zero()


@given(skew_strategy(F2T), ratfunc_strategy(F2T), ratfunc_strategy(F2T))
def test_eval_additive_is_additive(f, x, y):
    assert eval_additive(f, x + y) == eval_additive(f, x) + eval_additive(f, y)


@given(skew_strategy(F3T, max_deg=1), skew_strategy(F3T, max_deg=1),
       ratfunc_strategy(F3T))
def test_eval_of_product_is_composition(f, g, x):
    prod = f * g
    assert eval_additive(prod, x) == eval_additive(f, eval_additive(g, x))


def tau_strategy(field, max_deg=2):
    """tau = c0 + a_1 F + ... with c0 != 0, the shape `make_form` accepts."""
    rest = st.lists(ratfunc_strategy(field), max_size=max_deg)
    return st.builds(lambda c0, cs: SkewPoly(field, [c0] + cs), nonzero_ratfunc_strategy(field), rest)


@pytest.mark.parametrize("field", [F2T, F3T, F2TU], ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_make_form_is_right_multiplication_by_a_constant(field, data):
    tau = data.draw(tau_strategy(field))
    n = data.draw(st.integers(0, 2))
    # (sum a_i F^i) * mu = sum a_i mu^(p^i) F^i for mu = c0^(-1)
    mu = SkewPoly(field, [tau.coeffs[0].inverse()])
    assert make_form(n, tau.coeffs).coeffs == (tau * mu).coeffs


@pytest.mark.parametrize("field", [F2T, F3T, F2TU], ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equation_holds_applies_tau_additively(field, data):
    G = make_form(data.draw(st.integers(0, 2)), data.draw(tau_strategy(field)).coeffs)
    x, y0, y = (data.draw(ratfunc_strategy(field)) for _ in range(3))
    b = y0.frobenius(G.n) - eval_additive(G, x)
    for T, tb in ((G, field.zero()), (G._replace(b=b), b)):
        for v in (y0, y):
            assert equation_holds(T, x, v) == (v.frobenius(G.n) == tb + eval_additive(G, x))
    assert equation_holds(G._replace(b=b), x, y0)
