"""Picard-group data of forms of the affine line.

Everything here assembles previously computed invariants into one
record, `InvariantReport`, whose numeric fields all carry exact-or-bound
tags: the p^n torsion bound on Pic, the boundary residue level r with its
certificate chain, and the degree sequence
0 -> Pic0(C) -> Pic(X) -> m(X) Z/p^r Z -> 0, stored once as r, the index
m(X) of the degree map, the genus of the completion C (the dimension of
Pic0) and a description of the quotient M = m(X) Z/p^r Z.  Pic(X) = M when
Pic0(C) = 0, that is when C has genus 0.  Pic(X) = 0 is read off the
equation of a torsor that is the generic fiber of its own projection.
Structural facts that the artifact cannot decide (woundness, splitting of
the Picard scheme, specialness) are emitted as tagged assertion strings,
never as computed booleans.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .field import RatFunc, compositum_degree
from .forms import (
    FormPresentation,
    NValue,
    find_rational_point,
    rationality_level,
    rewrite_plane_model,
    splitting_level,
)
from .wproj import (
    InfinityData,
    cech_h1_dim,
    genus_from_formula,
    is_regular_at_infinity,
    naive_completion,
    residue_from_plane_model,
)


class NotIrreducible(ValueError):
    """The defining constant is a p-th power, so the point splits."""


class P1ComplementData(NamedTuple):
    """Pic of the complement of one purely inseparable point on the line."""

    pic_order: int
    pic_structure: str
    n: NValue
    n_prime: NValue
    r: NValue
    genus: int
    group_structure_on_separable_closure: bool
    notes: tuple[str, ...]


class InvariantReport(NamedTuple):
    target: FormPresentation
    n: NValue
    n_prime: NValue
    r: NValue
    m_X: NValue
    splitting_degree: int
    genus: NValue
    genus_oracle: Optional[tuple[int, bool]]
    quotient_desc: str
    pic_nontrivial: Optional[tuple[bool, str]]
    pic_group: Optional[str]
    point: Optional[tuple[RatFunc, RatFunc]]
    assertions: tuple[tuple[str, str], ...]
    flags: tuple[str, ...]

    @property
    def is_torsor(self) -> bool:
        return bool(self.target.b)

    @property
    def torsion_bound(self) -> int:
        """The exponent p^n that kills Pic(X), n the splitting level."""
        return self.target.field.p ** self.n.value


def pic_p1_complement(e: int, c: RatFunc) -> P1ComplementData:
    """Pic of the projective line minus the point x^(p^e) = c.

    The point is purely inseparable of degree p^e when c is not a p-th
    power; its complement is a form of the affine line with cyclic Picard
    group of that order, rational function field, and splitting level e.
    """
    if e < 1:
        raise ValueError("need e >= 1")
    p = c.field.p
    if e * math.log10(p) >= 4300:  # str() of a longer int raises under Python's default limit
        raise ValueError(f"e = {e} is too large: the order {p}^{e} has more than 4300 digits")
    if c.pth_root() is not None:
        raise NotIrreducible("c is a p-th power; x^(p^e) - c is not irreducible")
    order = p ** e
    notes = (
        f"torsion bound p^n = {order} is attained by the group Z/{order}Z",
        "the complement is an open of the projective line, so its function field is rational",
    )
    if order > 2:
        notes = notes + (
            "the removed point has degree > 2, so no group structure exists even after separable base change",
        )
    return P1ComplementData(
        pic_order=order,
        pic_structure=f"Z/{order}Z",
        n=NValue("exact", e, "inseparable-point-degree"),
        n_prime=NValue("exact", 0, "open-of-projective-line"),
        r=NValue("exact", e, "inseparable-point-degree"),
        genus=0,
        group_structure_on_separable_closure=order <= 2,
        notes=notes,
    )


def _residue_level(T, inf: Optional[InfinityData]) -> NValue:
    """The level r with deg of the boundary point = p^r, certified if possible.

    inf is the boundary data of the naive completion of T, None when T
    has no twist term.  Chain: trivial presentations complete to the
    projective line (r = 0); regular naive completions read r off the
    boundary residue field; for n > m with a_m a p^m-th power, the
    plane-model rewrite with alpha = a_m^(1/p^m), s = n - m can expose a
    field residue ring; otherwise only r <= n is known.  The ladder of a_m,
    a_m = b_m^(p^(v_m)), gives alpha = b_m^(p^(v_m - m)) with no new root.
    """
    n, m = T.n, T.m
    if m == 0:
        return NValue("exact", 0, "trivial-presentation")
    if inf.is_field:
        return NValue("exact", inf.exponent, "regular-completion")
    if n > m:
        v, b = T.ladders[m]
        if v >= m:
            model = rewrite_plane_model(T, b.frobenius(v - m), n - m)
            res = residue_from_plane_model(model)
            if res is not None and res.is_field:
                return NValue("exact", res.exponent, "plane-model-residue")
    return NValue("upper_bound", n)


def invariant_report(X, *, search_bound: int = 2, oracle: bool = False) -> InvariantReport:
    """Run every invariant computation on a form or torsor and consolidate.

    search_bound caps the total degree of the rational point search on a
    torsor (b != 0); a form (b = 0) has x = y = 0, its group identity, with
    no search.  With no point known, n' is only the bound n.
    oracle also runs the Cech genus oracle on the windows 2 * degree - 1
    and 2 * degree.
    The report never upgrades a bound to an exact value: each field keeps
    the tag produced by its own certificate chain, and derived statements
    (the assembled Picard group, nontriviality) fire only from fully
    certified inputs.  The assembled group is Pic(X) = M when Pic0(C) = 0,
    with M = m(X) Z/p^r Z, and Pic(X) = 0 for a generic fiber.
    """
    if search_bound < 0:  # outside input, rejected before any work
        raise ValueError("search_bound must be nonnegative")
    p = X.field.p
    n = splitting_level(X)
    deg = compositum_degree([(b, X.n - v) for v, b in X.ladders.values() if v < X.n])
    nontrivial = deg > 1
    # the completion and its boundary data serve both r and Pic0
    if X.m == 0:
        C = inf = None
        genus = NValue("exact", 0, "projective-line")
    else:
        C = naive_completion(X)
        inf = is_regular_at_infinity(C)
        g = genus_from_formula(C)
        if inf.is_field:
            genus = NValue("exact", g, "regular-completion")
        elif g == 0:
            genus = NValue("exact", 0, "zero-upper-bound")
        else:
            genus = NValue("upper_bound", g)
    r = _residue_level(X, inf)
    point = find_rational_point(X, search_bound)
    generic = X.generic_fiber
    pr = p ** r.value
    if point is not None:
        m_X = NValue("exact", 1, "rational-point")
    elif generic and r.is_exact:
        # Pic(X) = 0 maps onto m(X) Z/p^r Z, so that quotient is zero
        m_X = NValue("exact", pr, "generic-fiber")
    else:
        m_X = NValue("upper_bound", pr)
    if m_X.is_exact and r.is_exact:
        quotient_desc = "0" if m_X.value == pr else f"Z/{pr // m_X.value}Z"
    elif r.is_exact:
        quotient_desc = f"m*Z/{pr}Z with m | {pr}"
    else:
        quotient_desc = f"m*Z/p^rZ with r <= {r.value} and m | p^r"
    n_prime = rationality_level(X) if point is not None else NValue("upper_bound", X.n)
    flags: list[str] = []
    if not n.is_exact:
        flags.append("torsion-bound-on-bound")
    genus_oracle = None
    if oracle and C is not None:
        genus_oracle = cech_h1_dim(C)
        if not genus_oracle[1]:
            flags.append("cech-not-stabilized")
    pic_nontrivial: Optional[tuple[bool, str]] = None
    pic_group: Optional[str] = None
    if generic:
        flags.append("pic-trivial-by-construction")
        pic_nontrivial = (False, "generic fiber of its own defining projection; Pic vanishes by localization")
        pic_group = "0"
    elif point is not None and nontrivial:
        pic_nontrivial = (True, "rational point on a nontrivial form")
    if pic_group is None and m_X.is_exact and r.is_exact and genus.is_exact and genus.value == 0:
        pic_group = quotient_desc  # Pic0(C) = 0, so Pic(X) = M
    if n.is_exact and n_prime.is_exact and r.is_exact:
        if n.value < max(n_prime.value, r.value):
            raise AssertionError("level inequality violated; invariant chain inconsistent")
    if m_X.is_exact and r.is_exact and pr % m_X.value != 0:
        raise AssertionError("m(X) does not divide p^r; invariant chain inconsistent")
    assertions: list[tuple[str, str]] = [
        (
            "Pic0 of the completed curve is smooth, connected, unipotent, "
            f"killed by p^n' = {p ** n_prime.value}"
            + (" (n' only a bound)" if not n_prime.is_exact else "")
            + ", wound over the base field, and split by the splitting field",
            "pic0-structure",
        ),
        (
            f"dim Pic0 <= {genus.value} (completed-curve genus"
            + (" bound" if not genus.is_exact else "")
            + ")",
            "pic0-dimension-bound",
        ),
    ]
    if nontrivial:
        assertions.append(
            ("the underlying group of the form is not special", "not-special")
        )
        assertions.append(
            ("the boundary point of the completion is not rational", "infinity-not-rational")
        )
    return InvariantReport(
        target=X,
        n=n,
        n_prime=n_prime,
        r=r,
        m_X=m_X,
        splitting_degree=deg,
        genus=genus,
        genus_oracle=genus_oracle,
        quotient_desc=quotient_desc,
        pic_nontrivial=pic_nontrivial,
        pic_group=pic_group,
        point=point,
        assertions=tuple(assertions),
        flags=tuple(flags),
    )
