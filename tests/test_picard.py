"""Picard-group reports: torsion bounds, the degree sequence, assembly."""

import random

import pytest

import unipic.forms
import unipic.picard
import unipic.wproj
from unipic import (
    FieldDesc,
    NValue,
    NotIrreducible,
    RatFunc,
    Torsor,
    find_rational_point,
    generic_fiber_torsor,
    invariant_report,
    is_regular_at_infinity,
    make_form,
    naive_completion,
    pic_p1_complement,
    power_level,
)
from unipic.cli import parse_field_spec, parse_form_equation
from unipic.forms import _search
from unipic.picard import _residue_level

from conftest import F2T, F3T
from test_forms import _golden_variants
from test_obstruction import _random_form

T = F2T.var("t")
ONE = F2T.one()
ZERO = F2T.zero()

CONIC = make_form(1, [ONE, T])
TOWER = make_form(3, [ONE, T, T ** 4])
SPLIT = make_form(1, [ONE])


# ------------------------------------------------------------------- torsion

def test_torsion_bounds():
    assert invariant_report(CONIC).torsion_bound == 2
    assert invariant_report(TOWER).torsion_bound == 8
    assert invariant_report(Torsor(CONIC, T)).torsion_bound == 2


# ------------------------------------------------------------ residue levels

def _boundary(X):
    return is_regular_at_infinity(naive_completion(X))


def test_residue_level_certificates():
    assert _residue_level(SPLIT, None) == NValue("exact", 0, "trivial-presentation")
    assert _residue_level(CONIC, _boundary(CONIC)) == NValue("exact", 1, "regular-completion")
    assert _residue_level(TOWER, _boundary(TOWER)) == NValue("exact", 2, "plane-model-residue")
    # reducible presentation: completion not regular, no rewrite applies
    g = make_form(1, [ONE, T, T * T])
    assert _residue_level(g, _boundary(g)) == NValue("upper_bound", 1)


# --------------------------------------------------------------- exact seq

def test_exact_sequence_conic():
    rep = invariant_report(CONIC)
    assert rep.r == NValue("exact", 1, "regular-completion")
    assert rep.m_X == NValue("exact", 1, "rational-point")
    assert rep.genus == NValue("exact", 0, "regular-completion")
    assert (2 ** rep.r.value, rep.m_X.value) == (2, 1)
    assert rep.quotient_desc == "Z/2Z"
    assert rep.point == (ZERO, ZERO)


def test_exact_sequence_without_point():
    rep = invariant_report(Torsor(CONIC, ONE / T))
    assert rep.m_X == NValue("upper_bound", 2)
    assert not rep.m_X.is_exact
    assert rep.quotient_desc == "m*Z/2Z with m | 2"
    assert rep.point is None


def test_exact_sequence_tower():
    rep = invariant_report(TOWER)
    assert rep.r == NValue("exact", 2, "plane-model-residue")
    assert rep.m_X == NValue("exact", 1, "rational-point")
    assert rep.genus == NValue("upper_bound", 9)
    assert (2 ** rep.r.value, rep.m_X.value) == (4, 1)
    assert rep.quotient_desc == "Z/4Z"


def test_m_divides_quotient_order():
    for X in (CONIC, TOWER):
        rep = invariant_report(X)
        p_r = X.field.p ** rep.r.value
        assert p_r % rep.m_X.value == 0


# ------------------------------------------------------------- p1 complement

def test_p1_complement_family():
    t = F2T.var("t")
    for e in (1, 2, 3):
        data = pic_p1_complement(e, t)
        assert data.pic_order == 2 ** e
        assert data.pic_structure == f"Z/{2 ** e}Z"
        assert data.n == NValue("exact", e, "inseparable-point-degree")
        assert data.r == NValue("exact", e, "inseparable-point-degree")
        assert data.n_prime == NValue("exact", 0, "open-of-projective-line")
        assert data.genus == 0
        assert data.group_structure_on_separable_closure == (2 ** e <= 2)
        assert data.notes


def test_p1_complement_char3():
    data = pic_p1_complement(1, F3T.var("t"))
    assert data.pic_order == 3
    assert not data.group_structure_on_separable_closure


def test_p1_complement_attains_torsion_bound():
    data = pic_p1_complement(2, F2T.var("t"))
    assert data.pic_order == 2 ** data.n.value


def test_p1_complement_rejects_pth_power():
    with pytest.raises(NotIrreducible):
        pic_p1_complement(1, T * T)


def test_p1_complement_refuses_an_order_too_long_to_print():
    # refused before p^e is formed, so a huge e costs nothing
    for e in (14285, 10 ** 12):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            pic_p1_complement(e, T)
    # 3^9012 has 4300 digits, 3^9013 one more
    assert pic_p1_complement(9012, F3T.var("t")).pic_structure == f"Z/{3 ** 9012}Z"
    with pytest.raises(ValueError, match="more than 4300 digits"):
        pic_p1_complement(9013, F3T.var("t"))


# ------------------------------------------------------------------- reports

def test_report_conic():
    rep = invariant_report(CONIC)
    assert not rep.is_torsor
    assert rep.n == NValue("exact", 1, "coefficient-not-pth-power")
    assert rep.n_prime == NValue("exact", 0, "conic")
    assert rep.r == NValue("exact", 1, "regular-completion")
    assert rep.m_X == NValue("exact", 1, "rational-point")
    assert rep.splitting_degree == 2
    assert rep.genus == NValue("exact", 0, "regular-completion")
    assert rep.torsion_bound == 2
    assert rep.pic_nontrivial == (True, "rational point on a nontrivial form")
    assert rep.pic_group == "Z/2Z"
    assert rep.point == (ZERO, ZERO)
    assert rep.flags == ()


def test_report_assertion_tags():
    rep = invariant_report(CONIC)
    tags = [tag for _, tag in rep.assertions]
    assert tags == ["pic0-structure", "pic0-dimension-bound",
                    "not-special", "infinity-not-rational"]


def test_report_split_form():
    rep = invariant_report(SPLIT)
    assert rep.pic_group == "0"
    assert rep.pic_nontrivial is None
    assert rep.genus == NValue("exact", 0, "projective-line")


def test_report_tower_with_oracle():
    rep = invariant_report(TOWER, oracle=True)
    assert rep.pic_group is None
    assert rep.genus == NValue("upper_bound", 9)
    assert rep.genus_oracle == (9, True)
    assert rep.torsion_bound == 8


def test_report_level_inequalities():
    for X in (CONIC, TOWER, SPLIT):
        rep = invariant_report(X)
        if rep.n.kind == rep.n_prime.kind == rep.r.kind == "exact":
            assert rep.n.value >= max(rep.n_prime.value, rep.r.value)


def test_report_pointless_torsor():
    rep = invariant_report(Torsor(CONIC, ONE / T))
    assert rep.is_torsor
    assert rep.point is None
    assert rep.pic_group is None
    assert rep.pic_nontrivial is None


def _count_calls(monkeypatch, name):
    """Record every call of `name` made through the report's modules."""
    calls = []
    for mod in (unipic.forms, unipic.picard, unipic.wproj):
        original = getattr(mod, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


_ONCE_CASES = [
    TOWER,
    make_form(1, [F3T.one(), F3T.var("t")]),
    Torsor(CONIC, ONE / T),
]
_ONCE_IDS = ["p2-form", "p3-form", "torsor"]


@pytest.mark.parametrize("X", _ONCE_CASES, ids=_ONCE_IDS)
def test_report_builds_tower_and_completion_once(monkeypatch, X):
    towers = _count_calls(monkeypatch, "compositum_degree")
    completions = _count_calls(monkeypatch, "naive_completion")
    invariant_report(X)
    assert len(towers) == 1
    # is_regular_at_infinity reads the curve that naive_completion built
    assert len(completions) == 1


def test_report_takes_each_root_step_once(monkeypatch):
    # each a_i's ladder is walked once per report, so the p-th roots a
    # form's report takes are the v_i steps of its ladders and no more:
    # n, n', r and [k':k] read them; only the n > m plane-model rewrite of
    # y^8 = x + 1/(t^2)*x^2 + t^4*x^4 roots its own boundary ratio, twice
    golden = sorted({(v["field"], v["eq"]) for v in _golden_variants()})
    cases = [parse_form_equation(eq, parse_field_spec(field)).build() for field, eq in golden]
    steps = [None if isinstance(X, Torsor) else sum(power_level(c, X.n)[0] for _, c in X.twist_coeffs())
             for X in cases]
    roots = []
    pth_root = RatFunc.pth_root

    def counted(self):
        root = pth_root(self)
        roots.append(root is not None)
        return root

    monkeypatch.setattr(RatFunc, "pth_root", counted)
    rewrite = ("GF(2)(t,u)", "y^8 = x + 1/(t^2)*x^2 + t^4*x^4")
    forms = odd = equal = 0
    for case, X, want in zip(golden, cases, steps):
        roots.clear()
        rep = invariant_report(X, search_bound=0)
        if want is not None:
            forms += 1
            assert sum(roots) == want + 2 * (case == rewrite), case
        if not case[0].startswith("GF(2)"):
            odd += 1
            equal += rep.n_prime.certificate == "odd-characteristic-equality"
    assert (forms, odd, equal) == (823, 641, 378)


@pytest.mark.parametrize("X", _ONCE_CASES, ids=_ONCE_IDS)
def test_report_with_oracle_builds_completion_once(monkeypatch, X):
    # the Cech oracle reuses the report's completion
    completions = _count_calls(monkeypatch, "naive_completion")
    rep = invariant_report(X, oracle=True)
    assert rep.genus_oracle is not None
    assert len(completions) == 1


def test_report_no_longer_trusts_a_generic_fiber_flag():
    # the flag is read off the equation, where b = t is a variable that
    # a_1 = t involves; the torsor has the point (1, 1) with r = 1, so
    # Pic(X) maps onto Z/2Z
    with pytest.raises(TypeError):
        Torsor(CONIC, T, generic_fiber=True)
    X = Torsor(CONIC, T)
    assert not X.generic_fiber
    rep = invariant_report(X)
    assert rep.point == (ONE, ONE)
    assert rep.r == NValue("exact", 1, "regular-completion")
    assert rep.pic_group == "Z/2Z"
    assert rep.pic_nontrivial == (True, "rational point on a nontrivial form")
    assert "pic-trivial-by-construction" not in rep.flags


def test_report_generic_fiber():
    rep = invariant_report(generic_fiber_torsor(CONIC))
    assert rep.pic_group == "0"
    assert rep.flags == ("pic-trivial-by-construction",)
    assert rep.point is None
    # Pic(X) = 0 maps onto m(X) Z/2Z, so the quotient is zero and m(X) = p^r
    assert rep.r == NValue("exact", 1, "regular-completion")
    assert rep.m_X == NValue("exact", 2, "generic-fiber")
    assert rep.quotient_desc == "0"
    assert rep.n_prime == NValue("upper_bound", 1)


def test_form_point_is_the_search_witness(monkeypatch):
    # a form's point is x = y = 0, read off without a search; the search
    # engine, which has no case of its own for b = 0, is the oracle
    golden = sorted({(v["field"], v["eq"], v["bound"]) for v in _golden_variants()})
    cases = [(parse_form_equation(eq, parse_field_spec(field)).build(), d) for field, eq, d in golden]
    rng = random.Random(1729)
    drawn = [_random_form(rng, 2) for _ in range(24)]  # p in {2, 3, 5}, r in {1, 2}
    cases = [(X, d) for X, d in cases if not X.b] + [(G, d) for G in drawn for d in range(3)]
    assert {(G.field.p, G.field.r) for G in drawn} == {(p, r) for p in (2, 3, 5) for r in (1, 2)}
    assert all(_search(G, d) == (0, 1) for G, d in cases)  # x = 0 over h = 1
    searches = _count_calls(monkeypatch, "_search")
    for G, d in cases:
        zero = G.field.zero()
        assert invariant_report(G, search_bound=d).point == find_rational_point(G, d) == (zero, zero)
    assert searches == []
