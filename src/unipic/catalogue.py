"""Worked-example catalogue with frozen expected values.

Each entry builds a presentation, runs the relevant computations, and
compares against hard-coded expectations.  Failures are returned as data
so the caller can render or aggregate them; nothing raises on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .field import FieldDesc
from .forms import (
    Torsor,
    find_rational_point,
    generic_fiber_torsor,
    make_form,
    plane_model_residual,
    rewrite_plane_model,
)
from .picard import invariant_report, pic_p1_complement
from .wproj import is_regular_at_infinity, naive_completion, residue_from_plane_model


@dataclass(frozen=True)
class CatalogueResult:
    name: str
    description: str
    passed: bool
    details: str


def _entry_conic_pic_group() -> tuple[bool, str]:
    K = FieldDesc(2, ("t",))
    t = K.var("t")
    G = make_form(1, [K.one(), t])
    rep = invariant_report(G)
    ok = (
        rep.n.is_exact
        and rep.n.value == 1
        and rep.n_prime.is_exact
        and rep.n_prime.value == 0
        and rep.r.is_exact
        and rep.r.value == 1
        and rep.m_X.is_exact
        and rep.m_X.value == 1
        and rep.splitting_degree == 2
        and rep.genus.is_exact
        and rep.genus.value == 0
        and rep.torsion_bound == 2
        and rep.pic_group == "Z/2Z"
    )
    return ok, f"n=1 n'=0 r=1 m=1 genus=0 Pic={rep.pic_group}"


def _entry_two_variable_residue(p: int) -> tuple[bool, str]:
    # y^(p^2) = x + t1 x^p + t2 x^(p^2): the boundary residue field is
    # k(t2^(1/p^2)), strictly smaller than the splitting field of degree p^4
    K = FieldDesc(p, ("t1", "t2"))
    t1, t2 = K.var("t1"), K.var("t2")
    G = make_form(2, [K.one(), t1, t2])
    C = naive_completion(G)
    inf = is_regular_at_infinity(C)
    rep = invariant_report(G)
    ok = (
        C.weights == (1, 1, 1)
        and inf.is_field
        and inf.degree == p ** 2
        and inf.exponent == 2
        and rep.r.is_exact
        and rep.r.value == 2
        and rep.n.is_exact
        and rep.n.value == 2
        and rep.splitting_degree == p ** 4
        and inf.degree < rep.splitting_degree
    )
    return ok, f"deg boundary={inf.degree} < [k':k]={rep.splitting_degree}, r=2=n"


def _entry_rewrite_display(p: int) -> tuple[bool, str]:
    # w = t x - y^p on y^(p^3) = x + t x^p + t^(p^2) x^(p^2) gives
    # -t^(1-p) y^(p^2) - t^(-1) y^p = t^(-1) w + t^(1-p) w^p + w^(p^2)
    K = FieldDesc(p, ("t",))
    t = K.var("t")
    G = make_form(3, [K.one(), t, t ** (p ** 2)])
    model = rewrite_plane_model(G, t, 1)
    ti = t.inverse()
    expect_w = {0: ti, 1: t * ti.frobenius(1), 2: K.one()}
    expect_y = {1: ti, 2: t * ti.frobenius(1)}
    ok = (
        not model.degenerate
        and model.wdict() == expect_w
        and model.ydict() == expect_y
        and not model.const
        and plane_model_residual(G, model) == {}
    )
    res = residue_from_plane_model(model)
    ok = ok and res is not None and res.is_field and res.degree == p ** 2 and res.exponent == 2
    return ok, f"coefficients match, residual vanishes, boundary degree {p ** 2}"


def _entry_level_chain_strict() -> tuple[bool, str]:
    K = FieldDesc(2, ("t",))
    t = K.var("t")
    G = make_form(3, [K.one(), t, t ** 4])
    rep = invariant_report(G)
    ok = (
        rep.n.is_exact
        and rep.n.value == 3
        and rep.n_prime.is_exact
        and rep.n_prime.value == 2
        and rep.r.is_exact
        and rep.r.value == 2
        and rep.n.value > max(rep.n_prime.value, rep.r.value)
    )
    return ok, f"n=3 > max(n'={rep.n_prime.value}, r={rep.r.value})"


def _entry_degree_p_boundary(p: int) -> tuple[bool, str]:
    # y^p = x + t x^p with t not a p-th power: boundary residue field
    # equals the splitting field k(t^(1/p))
    K = FieldDesc(p, ("t",))
    t = K.var("t")
    G = make_form(1, [K.one(), t])
    C = naive_completion(G)
    inf = is_regular_at_infinity(C)
    rep = invariant_report(G)
    ok = (
        inf.is_field
        and inf.degree == p
        and inf.exponent == 1
        and rep.splitting_degree == p
        and inf.degree == rep.splitting_degree
        and rep.r.is_exact
        and rep.r.value == 1
        and rep.n.value == 1
    )
    return ok, f"boundary field degree {inf.degree} = [k':k]"


def _entry_no_point_two_variable() -> tuple[bool, str]:
    K = FieldDesc(2, ("t", "u"))
    t, u = K.var("t"), K.var("u")
    G = make_form(1, [K.one(), t])
    X = Torsor(G, u)
    pt = find_rational_point(X, 3)
    return pt is None, "no rational point with degrees <= 3"


def _entry_generic_fiber_trivial_pic() -> tuple[bool, str]:
    K = FieldDesc(2, ("t",))
    t = K.var("t")
    G = make_form(1, [K.one(), t])
    X = generic_fiber_torsor(G)
    rep = invariant_report(X)
    pt = find_rational_point(X, 3)
    ok = (
        "pic-trivial-by-construction" in rep.flags
        and rep.pic_group == "0"
        and pt is None
    )
    return ok, "Pic trivial by construction, no point with degrees <= 3"


def _entry_p1_complement_family() -> tuple[bool, str]:
    K = FieldDesc(2, ("t",))
    t = K.var("t")
    lines = []
    ok = True
    for e in (1, 2, 3):
        d = pic_p1_complement(e, t)
        ok = ok and (
            d.pic_order == 2 ** e
            and d.n.value == e
            and d.r.value == e
            and d.n_prime.value == 0
            and d.genus == 0
            and d.group_structure_on_separable_closure == (2 ** e <= 2)
        )
        lines.append(d.pic_structure)
    K3 = FieldDesc(3, ("t",))
    d3 = pic_p1_complement(1, K3.var("t"))
    ok = ok and d3.pic_order == 3 and d3.pic_structure == "Z/3Z"
    return ok, ", ".join(lines + [d3.pic_structure])


_ENTRIES: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = [
    (
        "conic-pic-group",
        "y^2 = x + t*x^2 over GF(2)(t): full report and Pic = Z/2Z",
        _entry_conic_pic_group,
    ),
    (
        "two-variable-residue-p2",
        "boundary residue field strictly smaller than splitting field, p = 2",
        lambda: _entry_two_variable_residue(2),
    ),
    (
        "two-variable-residue-p3",
        "boundary residue field strictly smaller than splitting field, p = 3",
        lambda: _entry_two_variable_residue(3),
    ),
    (
        "plane-model-rewrite-p2",
        "w = t*x - y^p rewrite reproduces the expected coefficients, p = 2",
        lambda: _entry_rewrite_display(2),
    ),
    (
        "plane-model-rewrite-p3",
        "w = t*x - y^p rewrite reproduces the expected coefficients, p = 3",
        lambda: _entry_rewrite_display(3),
    ),
    (
        "level-chain-strict-inequality",
        "n = 3 strictly above n' = 2 and r = 2 on the degree-8 example",
        _entry_level_chain_strict,
    ),
    (
        "degree-p-boundary-p2",
        "y^p = x + t*x^p: boundary field equals the splitting field, p = 2",
        lambda: _entry_degree_p_boundary(2),
    ),
    (
        "degree-p-boundary-p3",
        "y^p = x + t*x^p: boundary field equals the splitting field, p = 3",
        lambda: _entry_degree_p_boundary(3),
    ),
    (
        "no-point-two-variable-torsor",
        "y^2 = u + x + t*x^2 over GF(2)(t,u): empty bounded point search",
        _entry_no_point_two_variable,
    ),
    (
        "generic-fiber-trivial-pic",
        "generic fiber torsor of the conic: trivial Pic, empty bounded search",
        _entry_generic_fiber_trivial_pic,
    ),
    (
        "projective-line-complement-family",
        "Pic(P^1 minus inseparable point) = Z/p^e Z for e = 1, 2, 3",
        _entry_p1_complement_family,
    ),
]


def run_catalogue() -> list[CatalogueResult]:
    out = []
    for name, description, fn in _ENTRIES:
        try:
            passed, details = fn()
        except Exception as exc:  # noqa: BLE001 - failures are data here
            passed, details = False, f"error: {type(exc).__name__}: {exc}"
        out.append(CatalogueResult(name, description, passed, details))
    return out
