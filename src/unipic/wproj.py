"""Naive completions of forms in weighted projective planes.

The curve y^(p^n) = b + x + a_1 x^p + ... + a_m x^(p^m) homogenizes in
P(1, p^(m-n), 1) when n <= m and in P(p^(n-m), 1, 1) when n > m; the
weight on the middle coordinate sits on y, the weight on the first sits
on x.  The completion adds a one-point boundary whose residue ring
detects regularity, and its arithmetic genus is computable both by a
closed formula and by an explicit Cech cohomology computation on the
two-chart cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .field import FieldDesc, RatFunc, power_level
from .forms import PlaneModel, Torsor, _unpack
from .linalg import RowSpace


class TrivialTau(ValueError):
    """The presentation has no twist term, so the completion is a line."""


class NotANaiveCompletion(ValueError):
    """The weighted curve was not produced by naive_completion."""


class BoundTooSmall(ValueError):
    """The pole-order truncation is too small to compare two windows."""


@dataclass(frozen=True)
class WeightedCurve:
    """A hypersurface sum_c coeff * x^ex y^ey z^ez = 0 in P(weights)."""

    field: FieldDesc
    weights: tuple[int, int, int]
    terms: tuple[tuple[tuple[int, int, int], RatFunc], ...]
    degree: int
    height: int
    source: Torsor

    def __post_init__(self) -> None:
        wx, wy, wz = self.weights
        for (ex, ey, ez), c in self.terms:
            if wx * ex + wy * ey + wz * ez != self.degree:
                raise ValueError("inhomogeneous term in weighted curve")
            if not c:
                raise ValueError("zero coefficient stored")

    @property
    def a(self) -> int:
        """The single non-unit weight (1 when n = m)."""
        return max(self.weights)

    def __str__(self) -> str:
        parts = []
        for (ex, ey, ez), c in self.terms:
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", ex), ("y", ey), ("z", ez))
                if e
            )
            if not mono:
                mono = "1"
            parts.append(mono if c.is_one() else f"({c})*{mono}")
        w = "P({}, {}, {})".format(*self.weights)
        return " + ".join(parts) + f" = 0 in {w}"


@dataclass(frozen=True)
class InfinityData:
    """The residue ring of the boundary section z = 0."""

    is_field: bool
    description: str
    degree: int
    exponent: int


def naive_completion(T) -> WeightedCurve:
    """Homogenize a form or torsor equation in its weighted plane.

    Weighted degrees are forced: every monomial of the affine equation is
    padded with the unique power of z making it weighted-homogeneous of
    degree p^max(n, m).
    """
    field, n, coeffs, b = _unpack(T)
    src = T if isinstance(T, Torsor) else Torsor(T, field.zero())
    p = field.p
    m = len(coeffs) - 1
    if m == 0:
        raise TrivialTau("tau has no twist term; the completion is a projective line")
    terms: dict[tuple[int, int, int], RatFunc] = {}
    if n <= m:
        a = p ** (m - n)
        weights = (1, a, 1)
        d = p ** m
        terms[(0, p ** n, 0)] = -field.one()
        for i, c in enumerate(coeffs):
            if c:
                terms[(p ** i, 0, d - p ** i)] = terms.get((p ** i, 0, d - p ** i), field.zero()) + c
        if b:
            terms[(0, 0, d)] = b
    else:
        a = p ** (n - m)
        weights = (a, 1, 1)
        d = p ** n
        terms[(0, d, 0)] = -field.one()
        for i, c in enumerate(coeffs):
            if c:
                ez = d - a * (p ** i)
                terms[(p ** i, 0, ez)] = terms.get((p ** i, 0, ez), field.zero()) + c
        if b:
            terms[(0, 0, d)] = b
    tt = tuple(sorted((e, c) for e, c in terms.items() if c))
    return WeightedCurve(field, weights, tt, d, p ** min(n, m), src)


def _check_source(C: WeightedCurve) -> None:
    rebuilt = naive_completion(C.source)
    if rebuilt.terms != C.terms or rebuilt.weights != C.weights:
        raise NotANaiveCompletion("curve does not match the completion of its source")


def is_regular_at_infinity(C: WeightedCurve) -> InfinityData:
    """Inspect the boundary z = 0.

    Exactly one affine term survives at the boundary, giving the ring
    k[s]/(s^(p^e) - u) with u built from the top coefficient a_m.  This is
    a field precisely when a_m is not a p-th power, and then the boundary
    is a single regular point whose residue field is purely inseparable
    of the recorded exponent.
    """
    _check_source(C)
    field, n, coeffs, b = _unpack(C.source)
    p = field.p
    m = len(coeffs) - 1
    am = coeffs[m]
    if n <= m:
        # chart x = 1: residue ring k[y]/(y^(p^n) - a_m)
        e, u = n, am
    else:
        # chart y = 1: residue ring k[x]/(x^(p^m) - 1/a_m)
        e, u = m, am.inverse()
    v = power_level(u, e)
    deg = p ** e
    if v == 0 and e > 0:
        return InfinityData(True, f"k[s]/(s^{deg} - u), u not a p-th power", deg, e)
    if e == 0:
        return InfinityData(True, "k", 1, 0)
    return InfinityData(
        False,
        f"k[s]/(s^{deg} - u) with u a p^{v}-th power; nilpotents present",
        deg,
        e - v,
    )


def genus_from_formula(C: WeightedCurve) -> int:
    """Arithmetic genus (h - 1)(d - 2)/2 of the completed curve."""
    g = Fraction((C.height - 1) * (C.degree - 2), 2)
    if g.denominator != 1 or g < 0:
        raise ValueError(f"genus formula gave {g}")
    return int(g)


def hilbert_dim(a: int, delta: int, mode: str = "formula") -> int:
    """Dimension of the degree delta*a piece of k[x, y, z], weights (1, a, 1).

    The formula (delta + 1)(delta*a + 2)/2 is checked against literal
    monomial enumeration in count mode.
    """
    if a < 1 or delta < 0:
        raise ValueError("need a >= 1 and delta >= 0")
    if mode == "formula":
        num = (delta + 1) * (delta * a + 2)
        assert num % 2 == 0
        return num // 2
    if mode == "count":
        d = delta * a
        total = 0
        for j in range(d // a + 1):
            rem = d - a * j
            total += rem + 1  # choices of (i, l) with i + l = rem
        return total
    raise ValueError(f"unknown mode {mode!r}")


def _h1_dim_window(C: WeightedCurve, N: int, powers: list[dict[int, RatFunc]]) -> int:
    """Cech H1 of {z != 0, x != 0} truncated to x-exponents in [-N, N].

    The overlap ring has basis x^e y^j with e in Z and 0 <= j < p^n after
    reduction by the curve equation.  The affine chart contributes the
    unit rows with e >= 0.  The boundary chart is spanned by the degree
    zero monomials y^i z^s / x^l; for n <= m these map to single basis
    monomials, while for n > m powers y^i with i >= p^n are reduced
    through the equation, producing rows supported in [-l, 0] whose
    entries are the coefficients of f^(i // p^n), taken from `powers`.

    A unit row only marks its column: reducing the other rows by unit
    vectors deletes those columns and leaves the rank unchanged.  So unit
    columns are collected in a set, and only the reduced rows, with those
    columns dropped, go through elimination.
    """
    field, n, coeffs, _ = _unpack(C.source)
    p = field.p
    m = len(coeffs) - 1
    pn = p ** n

    def col(e: int, j: int) -> int:
        return (e + N) * pn + j

    a = C.a
    units = {col(e, j) for e in range(0, N + 1) for j in range(pn)}
    space = RowSpace()
    if n <= m:
        units.update(col(e, j) for j in range(pn) for e in range(-N, min(-a * j, 0) + 1))
    else:
        units.update(col(-l, rho) for l in range(N + 1) for rho in range(min(a * l + 1, pn)))
        for l in range(N + 1):
            for i in range(pn, a * l + 1):
                q, rho = divmod(i, pn)
                row = {}
                for e, v in powers[q].items():
                    c = col(e - l, rho)
                    if -N <= e - l <= N and c not in units:
                        row[c] = v
                space.insert(row)
    return (2 * N + 1) * pn - len(units) - space.rank


def cech_h1_dim(C: WeightedCurve, pole_bound: Optional[int] = None) -> tuple[int, bool]:
    """Dimension of H1 of the structure sheaf, with a stabilization flag.

    H1 is computed on the windows [-N, N] of x-exponents for N = P - 1 and
    N = P, where P is the pole bound (2 * degree by default).  The larger
    window's dimension is returned, and the flag records whether the two
    windows agree.  For n > m the powers f^0, ..., f^Q of
    f = b + sum a_i x^(p^i) that the larger window needs are built once,
    each from the one before, and both windows share them.
    """
    _check_source(C)
    if pole_bound is None:
        pole_bound = 2 * C.degree
    if pole_bound < 2:
        raise BoundTooSmall("pole_bound must be at least 2")
    field, n, coeffs, b = _unpack(C.source)
    powers = [{0: field.one()}]
    if n > len(coeffs) - 1:
        f = {field.p ** i: c for i, c in enumerate(coeffs) if c}
        if b:
            f[0] = b
        for _ in range(C.a * pole_bound // C.degree):
            nxt: dict[int, RatFunc] = {}
            for e1, c1 in powers[-1].items():
                for e2, c2 in f.items():
                    nxt[e1 + e2] = nxt.get(e1 + e2, field.zero()) + c1 * c2
            powers.append({e: c for e, c in nxt.items() if c})
    d_prev = _h1_dim_window(C, pole_bound - 1, powers)
    d_cur = _h1_dim_window(C, pole_bound, powers)
    return d_cur, d_cur == d_prev


def residue_from_plane_model(model: PlaneModel) -> Optional[InfinityData]:
    """Boundary residue ring of the plane completion of a rewritten model.

    When the top w-term and the top y-term share the same degree p^I, the
    boundary locus of the degree p^I plane curve is governed by
    c_w w^(p^I) + c_y y^(p^I) = 0, a purely inseparable condition on the
    ratio.  No certificate is produced in the unbalanced case.
    """
    if not model.wcoeffs or not model.ycoeffs:
        return None
    I, cw = model.wcoeffs[-1]
    J, cy = model.ycoeffs[-1]
    if I != J:
        return None
    rho = -(cy / cw)
    p = model.field.p
    v = power_level(rho, I)
    deg = p ** I
    if v == 0 and I > 0:
        return InfinityData(True, f"k[s]/(s^{deg} - rho), rho not a p-th power", deg, I)
    if I == 0:
        return InfinityData(True, "k", 1, 0)
    return InfinityData(
        False,
        f"k[s]/(s^{deg} - rho) with rho a p^{v}-th power; nilpotents present",
        deg,
        I - v,
    )
