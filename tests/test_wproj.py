"""Weighted projective completions, regularity at infinity, genus oracles."""

import importlib.util
import itertools
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from unipic import (
    FieldDesc,
    MPoly,
    RatFunc,
    Torsor,
    TrivialTau,
    WeightedCurve,
    cech_h1_dim,
    genus_from_formula,
    hilbert_dim,
    is_regular_at_infinity,
    make_form,
    naive_completion,
    residue_from_plane_model,
    rewrite_plane_model,
)

from unipic.cli import parse_field_spec, parse_form_equation
from unipic.wproj import _unit_count, _window_h1

from boundary_reference import boundary_reference
from cech_reference import (
    _explicit_unit_columns,
    _unit_column,
    h1_dim_window,
    unit_count_reference,
    window_rows,
)
from conftest import F2T, F3T
from hilbert_reference import hilbert_count_reference
from test_forms import _golden_variants
from test_obstruction import _laurent

T = F2T.var("t")
ONE = F2T.one()
ZERO = F2T.zero()


def form2(n, coeffs):
    m = max(coeffs)
    cs = [coeffs.get(i, ZERO) for i in range(m + 1)]
    return make_form(n, cs)


CONIC = form2(1, {0: ONE, 1: T})
TOWER = form2(3, {0: ONE, 1: T, 2: T ** 4})


# ---------------------------------------------------------------- completion

def test_completion_balanced_case():
    C = naive_completion(CONIC)
    assert C.weights == (1, 1, 1)
    assert C.degree == 2
    assert C.height == 2
    assert C.a == 1
    assert C.terms == (((0, 2, 0), ONE), ((1, 0, 1), ONE), ((2, 0, 0), T))


def test_completion_deep_twist():
    # n < m puts the weight on y
    g = form2(2, {0: ONE, 3: T})
    C = naive_completion(g)
    assert C.weights == (1, 2, 1)
    assert (C.degree, C.height) == (8, 4)


def test_completion_deep_frobenius():
    # n > m puts the weight on x
    C = naive_completion(TOWER)
    assert C.weights == (2, 1, 1)
    assert (C.degree, C.height) == (8, 4)
    assert C.terms == (((0, 8, 0), ONE), ((1, 0, 6), ONE),
                       ((2, 0, 4), T), ((4, 0, 0), T ** 4))


def test_completion_of_torsor_keeps_translation():
    C = naive_completion(Torsor(CONIC, T))
    assert ((0, 0, 2), T) in C.terms


def test_completion_requires_twist():
    with pytest.raises(TrivialTau):
        naive_completion(form2(1, {0: ONE}))


def test_curve_is_its_completion():
    for X in (CONIC, TOWER, Torsor(CONIC, T)):
        assert WeightedCurve(X) == naive_completion(X)


def test_curve_requires_twist():
    with pytest.raises(TrivialTau, match="^tau has no twist term; the completion is a projective line$"):
        WeightedCurve(form2(1, {0: ONE}))


def test_derived_fields_cannot_be_replaced():
    # only the source is stored, so a curve cannot disagree with it
    C = naive_completion(CONIC)
    assert C._fields == ("source",)
    with pytest.raises(ValueError, match="unexpected field names: \\['terms'\\]"):
        C._replace(terms=tuple((e, c if c != T else T + ONE) for e, c in C.terms))


def test_terms_homogeneous_with_nonzero_coefficients():
    # every derived term has weighted degree C.degree and a nonzero coefficient
    rng = random.Random(19)
    for p in (2, 3, 5):
        k = FieldDesc(p, ("t", "u"))
        for n in range(4):
            for m in range(4):
                mid = [_random_rational(rng, k) if rng.random() < 0.7 else k.zero() for _ in range(m - 1)]
                top = [_random_rational(rng, k)] if m else []
                X = make_form(n, [k.one()] + mid + top)
                for source in (X, Torsor(X, _random_rational(rng, k))):
                    if m == 0:
                        with pytest.raises(TrivialTau):
                            WeightedCurve(source)
                        continue
                    C = WeightedCurve(source)
                    wx, wy, wz = C.weights
                    assert len(C.terms) >= 3
                    for (ex, ey, ez), c in C.terms:
                        assert wx * ex + wy * ey + wz * ez == C.degree, (p, n, m, source)
                        assert c, (p, n, m, source)


# ---------------------------------------------------------------- regularity

def test_regular_boundary():
    inf = is_regular_at_infinity(naive_completion(CONIC))
    assert inf.is_field
    assert inf.degree == 2
    assert inf.exponent == 1


def test_non_regular_boundary_pth_power_coeff():
    # top coefficient t^2 is a square, the boundary ring has nilpotents
    g = form2(1, {0: ONE, 1: T, 2: T * T})
    inf = is_regular_at_infinity(naive_completion(g))
    assert not inf.is_field
    assert inf.exponent == 0


def test_non_regular_boundary_deep_frobenius():
    # chart y = 1 sees the inverse top coefficient, here a 4th power
    inf = is_regular_at_infinity(naive_completion(TOWER))
    assert not inf.is_field
    assert inf.degree == 4


def test_regular_boundary_char3():
    k3, t3 = F3T, F3T.var("t")
    g = make_form(1, [k3.one(), t3])
    inf = is_regular_at_infinity(naive_completion(g))
    assert inf.is_field
    assert inf.degree == 3


def test_boundary_matches_chart_reference():
    # the ladder of a_m against the chart's own element, a_m or 1/a_m, on
    # every golden input with a twist term and a seeded corpus of forms and
    # torsors with a_m = c^(p^j), j in 0..n+1
    golden = sorted({(v["field"], v["eq"]) for v in _golden_variants()})
    cases = [parse_form_equation(eq, parse_field_spec(field)).build() for field, eq in golden]
    rng = random.Random(35)
    for p, r, n, m in itertools.product((2, 3, 5), (1, 2), (1, 2, 3), (1, 2, 3)):
        field = FieldDesc(p, ("t", "u")[:r])
        for _ in range(3):
            tau = [field.one()] + [_laurent(rng, field, 2) if rng.random() < 0.5 else field.zero()
                                   for _ in range(1, m)]
            G = make_form(n, tau + [_laurent(rng, field, rng.randint(1, 2)).frobenius(rng.randint(0, n + 1))])
            cases += [G, Torsor(G, _laurent(rng, field, 2))]
    branches = set()
    for X in cases:
        if X.m == 0:
            continue
        C = naive_completion(X)
        inf = is_regular_at_infinity(C)
        assert inf == boundary_reference(C), X
        branches.add((X.n <= X.m, inf.is_field))
    assert branches == set(itertools.product((False, True), repeat=2))


# --------------------------------------------------------------------- genus

def test_genus_formula_values():
    assert genus_from_formula(naive_completion(CONIC)) == 0
    assert genus_from_formula(naive_completion(form2(2, {0: ONE, 3: T}))) == 9
    assert genus_from_formula(naive_completion(TOWER)) == 9
    assert genus_from_formula(naive_completion(form2(2, {0: ONE, 1: T}))) == 1


def test_cech_matches_formula_balanced():
    C = naive_completion(CONIC)
    assert cech_h1_dim(C) == (0, True)


def test_cech_matches_formula_deep_twist():
    C = naive_completion(form2(2, {0: ONE, 3: T}))
    assert cech_h1_dim(C) == (9, True)


def test_cech_matches_formula_deep_frobenius():
    C = naive_completion(form2(2, {0: ONE, 1: T}))
    assert cech_h1_dim(C) == (1, True)


def test_cech_ignores_translation():
    # H^1 of the completed torsor agrees with the completed form
    C = naive_completion(Torsor(CONIC, T))
    assert cech_h1_dim(C) == (0, True)


def test_cech_bound_too_small():
    # below the settled window the count is truncated: the windows 1 and 2
    # of y^2 = x + t*x^8 count 1 and 2, while the genus is 3
    C = naive_completion(form2(1, {0: ONE, 3: T}))
    assert [_window_h1(C, N) for N in (1, 2)] == [1, 2]
    assert cech_h1_dim(C) == (genus_from_formula(C), True) == (3, True)


def _cech_case(k, n, m, torsor=False, binomial=False):
    t, one = k.var("t"), k.one()
    mid, top = (t + one, t * t + t) if binomial else (k.zero(), t)
    X = make_form(n, [one] + [mid] * (m - 1) + [top])
    return Torsor(X, t + one) if torsor else X


def test_cech_matches_formula_grid():
    # the two windows 2 * degree - 1 and 2 * degree are settled on every cell
    for p in (2, 3, 5, 7):
        k = FieldDesc(p, ("t",))
        for n in range(5):
            for m in range(1, 5):
                C = naive_completion(_cech_case(k, n, m))
                assert cech_h1_dim(C) == (genus_from_formula(C), True), (p, n, m)


def test_cech_p3_n3_m1_pinned():
    assert cech_h1_dim(naive_completion(_cech_case(F3T, 3, 1))) == (25, True)


_ALL_CASES = [(torsor, binomial) for torsor in (False, True) for binomial in (False, True)]


def _fixed_sources(cases):
    return lambda k, n, m: [_cech_case(k, n, m, torsor, binomial) for torsor, binomial in cases]


def _random_rational(rng, k):
    """A quotient of two random nonzero polynomials of degree <= 2 in each variable."""
    def poly():
        terms = {tuple(rng.randint(0, 2) for _ in k.vars): rng.randint(1, k.p - 1)
                 for _ in range(rng.randint(1, 3))}
        return RatFunc.from_poly(MPoly(k, terms))
    return poly() / poly()


def _random_sources(k, n, m):
    """Two forms and two torsors with b != 0, all with seeded random rational coefficients."""
    rng = random.Random(100 * k.p + 10 * n + m)
    out = []
    for _ in range(2):
        X = make_form(n, [_random_rational(rng, k) for _ in range(m + 1)])
        out += [X, Torsor(X, _random_rational(rng, k))]
    return out


# Fixed cells run every window N from 1 to 2 * degree + 1; the two
# n > m cells with the most reference rows run one case each.
_CECH_CELLS = [(f"p{p}-n{n}-m{m}", FieldDesc(p, ("t",)), n, m, _fixed_sources(_ALL_CASES), None)
               for p in (2, 3) for n in (1, 2) for m in (1, 2) if (p, n, m) != (3, 2, 1)]
_CECH_CELLS += [("p3-n2-m1", F3T, 2, 1, _fixed_sources([(True, True)]), None),
                ("p2-n3-m1", F2T, 3, 1, _fixed_sources([(False, False)]), None)]
# Random cells over GF(p)(t, u) run N from 1 to p^m + 2: for n > m the rows
# built from f^q with q >= 1 start at window N = p^m, and the reference
# stays cheap.
_RANDOM_CELLS = {2: [(2, 1), (3, 1), (3, 2), (1, 1), (1, 2)],
                 3: [(2, 1), (3, 1), (3, 2), (1, 1), (1, 2)],
                 5: [(2, 1), (1, 1), (1, 2)]}
_CECH_CELLS += [(f"random-p{p}-n{n}-m{m}", FieldDesc(p, ("t", "u")), n, m, _random_sources, p ** m + 2)
                for p, cells in _RANDOM_CELLS.items() for n, m in cells]


@pytest.mark.parametrize("k,n,m,sources,top", [cell[1:] for cell in _CECH_CELLS],
                         ids=[cell[0] for cell in _CECH_CELLS])
def test_cech_matches_row_by_row_reference(k, n, m, sources, top):
    for X in sources(k, n, m):
        C = naive_completion(X)
        last = top or 2 * C.degree + 1
        ref = {N: h1_dim_window(C, N) for N in range(1, last + 1)}
        for N in range(1, last + 1):
            assert _window_h1(C, N) == ref[N], (X, N)
        P = 2 * C.degree
        if P <= last:  # cech_h1_dim reads the windows P - 1 and P
            assert cech_h1_dim(C) == (ref[P], ref[P] == ref[P - 1])
        if n > m:
            # the closed form rests on where the f^q rows land, so some must exist
            assert any(q and row for q, row in window_rows(C, last)), (n, m, X)


@pytest.mark.parametrize("p", [2, 3])
def test_unit_columns_match_explicit_set(p):
    # the window counts its unit columns in closed form and recognises them
    # by inequality; both must pick exactly the columns of the explicit set
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            pn, a, low = p ** n, p ** abs(m - n), n <= m
            for N in range(1, 9):
                want = _explicit_unit_columns(N, pn, a, low)
                assert _unit_count(N, pn, a, low) == len(want), (n, m, N)
                got = {(e, j) for e in range(-N, N + 1) for j in range(pn) if _unit_column(e, j, a, low)}
                assert got == want, (n, m, N)


def test_unit_count_matches_reference_sums():
    # the closed forms against the sums over j (n <= m) and over l (n > m)
    for p in (2, 3, 5):
        for n in range(4):
            for m in range(4):
                pn, a, low = p ** n, p ** abs(m - n), n <= m
                for N in range(60):
                    want = unit_count_reference(N, pn, a, low)
                    assert _unit_count(N, pn, a, low) == want, (p, n, m, N)


def test_cech_huge_pole_bound():
    # n > m: as a sum over l, a window of 10^12 would not finish
    C = naive_completion(form2(2, {0: ONE, 1: T}))
    assert _window_h1(C, 10 ** 12) == genus_from_formula(C) == 1


def test_genus_grid_script_level_4():
    path = Path(__file__).resolve().parents[1] / "scripts" / "genus_grid.py"
    spec = importlib.util.spec_from_file_location("genus_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    rows = grid.run_grid((2, 3, 5), 4)
    assert len(rows) == 48
    for p, n, m, genus, dim, stable, regular in rows:
        assert stable and dim == genus, (p, n, m)


# ------------------------------------------------------------------- hilbert

def test_hilbert_pinned():
    assert hilbert_dim(2, 1) == 4
    assert hilbert_count_reference(2, 1) == 4
    assert hilbert_dim(1, 0) == 1


@given(st.integers(1, 4), st.integers(0, 6))
def test_hilbert_formula_equals_count(a, delta):
    assert hilbert_dim(a, delta) == hilbert_count_reference(a, delta)


def test_hilbert_validation():
    with pytest.raises(ValueError):
        hilbert_dim(0, 1)
    with pytest.raises(ValueError):
        hilbert_dim(2, -1)
    with pytest.raises(TypeError):  # the count mode is the test oracle now
        hilbert_dim(2, 1, "count")


# ------------------------------------------------------------------ residues

def test_residue_from_good_plane_model():
    pm = rewrite_plane_model(TOWER, T, 1)
    inf = residue_from_plane_model(pm)
    assert inf is not None and inf.is_field
    assert inf.degree == 4
    assert inf.exponent == 2


def test_residue_needs_matching_top_terms():
    pm = rewrite_plane_model(TOWER, ONE, 0)
    assert residue_from_plane_model(pm) is None
