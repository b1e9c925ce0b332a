"""Worked-example catalogue with frozen expected values.

One table of (name, check) pairs: each check compares an example against
hard-coded expectations and returns (passed, details), and its docstring
states the example.  Failures are returned as data so the caller can
render or aggregate them; nothing raises on mismatch.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .field import FieldDesc
from .forms import (
    FormPresentation,
    find_rational_point,
    generic_fiber_torsor,
    make_form,
    plane_model_residual,
    rewrite_plane_model,
)
from .picard import invariant_report, pic_p1_complement
from .wproj import is_regular_at_infinity, naive_completion, residue_from_plane_model


class CatalogueResult(NamedTuple):
    name: str
    passed: bool
    details: str


def _exact(rep, **levels: int) -> bool:
    """Whether each named level of the report is exact with the given value."""
    return all(getattr(rep, k).is_exact and getattr(rep, k).value == v for k, v in levels.items())


def _conic(p: int) -> FormPresentation:
    """The form y^p = x + t*x^p over GF(p)(t)."""
    t = FieldDesc(p, ("t",)).var("t")
    return make_form(1, [t.field.one(), t])


def _conic_pic_group() -> tuple[bool, str]:
    """y^2 = x + t*x^2 over GF(2)(t): full report and Pic = Z/2Z."""
    rep = invariant_report(_conic(2))
    ok = (
        _exact(rep, n=1, n_prime=0, r=1, m_X=1, genus=0)
        and rep.splitting_degree == 2
        and rep.torsion_bound == 2
        and rep.pic_group == "Z/2Z"
    )
    return ok, f"n=1 n'=0 r=1 m=1 genus=0 Pic={rep.pic_group}"


def _two_variable_residue(p: int) -> tuple[bool, str]:
    """y^(p^2) = x + t1 x^p + t2 x^(p^2): boundary field k(t2^(1/p^2)) of degree p^2 < [k':k] = p^4."""
    K = FieldDesc(p, ("t1", "t2"))
    G = make_form(2, [K.one(), *K.generators()])
    C = naive_completion(G)
    inf = is_regular_at_infinity(C)
    rep = invariant_report(G)
    ok = (
        C.weights == (1, 1, 1)
        and inf.is_field
        and inf.degree == p ** 2
        and inf.exponent == 2
        and _exact(rep, r=2, n=2)
        and rep.splitting_degree == p ** 4
        and inf.degree < rep.splitting_degree
    )
    return ok, f"deg boundary={inf.degree} < [k':k]={rep.splitting_degree}, r=2=n"


def _plane_model_rewrite(p: int) -> tuple[bool, str]:
    """The rewrite w = t x - y^p of y^(p^3) = x + t x^p + t^(p^2) x^(p^2).

    Expected: -t^(1-p) y^(p^2) - t^(-1) y^p = t^(-1) w + t^(1-p) w^p + w^(p^2),
    with a vanishing residual and a boundary field of degree p^2.
    """
    t = FieldDesc(p, ("t",)).var("t")
    G = make_form(3, [t.field.one(), t, t ** (p ** 2)])
    model = rewrite_plane_model(G, t, 1)
    ti = t.inverse()
    res = residue_from_plane_model(model)
    ok = (
        not model.degenerate
        and dict(model.wcoeffs) == {0: ti, 1: t * ti.frobenius(1), 2: t.field.one()}
        and dict(model.ycoeffs) == {1: ti, 2: t * ti.frobenius(1)}
        and plane_model_residual(model) == {}
        and res is not None and res.is_field and res.degree == p ** 2 and res.exponent == 2
    )
    return ok, f"coefficients match, residual vanishes, boundary degree {p ** 2}"


def _level_chain_strict() -> tuple[bool, str]:
    """n = 3 strictly above n' = 2 and r = 2 on y^8 = x + t*x^2 + t^4*x^4 over GF(2)(t)."""
    t = FieldDesc(2, ("t",)).var("t")
    rep = invariant_report(make_form(3, [t.field.one(), t, t ** 4]))
    ok = _exact(rep, n=3, n_prime=2, r=2) and rep.n.value > max(rep.n_prime.value, rep.r.value)
    return ok, f"n=3 > max(n'={rep.n_prime.value}, r={rep.r.value})"


def _degree_p_boundary(p: int) -> tuple[bool, str]:
    """y^p = x + t*x^p: the boundary field equals the splitting field k(t^(1/p))."""
    G = _conic(p)
    inf = is_regular_at_infinity(naive_completion(G))
    rep = invariant_report(G)
    ok = (
        inf.is_field
        and inf.degree == p
        and inf.exponent == 1
        and rep.splitting_degree == p
        and inf.degree == rep.splitting_degree
        and _exact(rep, r=1)
        and rep.n.value == 1
    )
    return ok, f"boundary field degree {inf.degree} = [k':k]"


def _no_point_two_variable() -> tuple[bool, str]:
    """y^2 = u + x + t*x^2 over GF(2)(t,u): empty bounded point search."""
    t, u = FieldDesc(2, ("t", "u")).generators()
    pt = find_rational_point(make_form(1, [t.field.one(), t], u), 3)
    return pt is None, "no rational point with degrees <= 3"


def _generic_fiber_trivial_pic() -> tuple[bool, str]:
    """Generic fiber torsor of the conic: trivial Pic, empty bounded search."""
    X = generic_fiber_torsor(_conic(2))
    rep = invariant_report(X)
    pt = find_rational_point(X, 3)
    ok = "pic-trivial-by-construction" in rep.flags and rep.pic_group == "0" and pt is None
    return ok, "Pic trivial by construction, no point with degrees <= 3"


def _p1_complement_family() -> tuple[bool, str]:
    """Pic(P^1 minus inseparable point) = Z/p^e Z for p = 2, e = 1, 2, 3 and for p = 3, e = 1."""
    family = [(e, pic_p1_complement(e, FieldDesc(2, ("t",)).var("t"))) for e in (1, 2, 3)]
    d3 = pic_p1_complement(1, FieldDesc(3, ("t",)).var("t"))
    ok = all(
        d.pic_order == 2 ** e
        and d.n.value == e
        and d.r.value == e
        and d.n_prime.value == 0
        and d.genus == 0
        and d.group_structure_on_separable_closure == (2 ** e <= 2)
        for e, d in family
    )
    ok = ok and d3.pic_order == 3 and d3.pic_structure == "Z/3Z"
    return ok, ", ".join([d.pic_structure for _, d in family] + [d3.pic_structure])


_ENTRIES: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("conic-pic-group", _conic_pic_group),
    *[(f"two-variable-residue-p{p}", partial(_two_variable_residue, p)) for p in (2, 3)],
    *[(f"plane-model-rewrite-p{p}", partial(_plane_model_rewrite, p)) for p in (2, 3)],
    ("level-chain-strict-inequality", _level_chain_strict),
    *[(f"degree-p-boundary-p{p}", partial(_degree_p_boundary, p)) for p in (2, 3)],
    ("no-point-two-variable-torsor", _no_point_two_variable),
    ("generic-fiber-trivial-pic", _generic_fiber_trivial_pic),
    ("projective-line-complement-family", _p1_complement_family),
]


def run_catalogue() -> list[CatalogueResult]:
    out = []
    for name, check in _ENTRIES:
        try:
            passed, details = check()
        except Exception as exc:  # noqa: BLE001 - failures are data here
            passed, details = False, f"error: {type(exc).__name__}: {exc}"
        out.append(CatalogueResult(name, passed, details))
    return out
