"""Naive completions of forms in weighted projective planes.

The curve y^(p^n) = b + x + a_1 x^p + ... + a_m x^(p^m) homogenizes in
P(1, p^(m-n), 1) when n <= m and in P(p^(n-m), 1, 1) when n > m; the
weight on the middle coordinate sits on y, the weight on the first sits
on x.  A `WeightedCurve` stores only that equation and reads its weights,
degree and terms off it.  The completion adds a one-point boundary whose
residue ring detects regularity, and its arithmetic genus is computable
both by a closed formula and by the Cech cohomology of the two-chart
cover.  The Cech H^1 of a truncation window is a lattice-point count,
in closed form in O(1) arithmetic steps for any window, since every
boundary row lands on unit columns; the row-by-row elimination it
replaces is the test oracle in tests/cech_reference.py.  Graded piece
dimensions of P(1, a, 1) come from their closed formula; the monomial
count is the oracle in tests/hilbert_reference.py.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional, Union

from .field import FieldDesc, RatFunc, power_level
from .forms import FormPresentation, PlaneModel, Torsor


class TrivialTau(ValueError):
    """The presentation has no twist term, so the completion is a line."""


class WeightedCurve(namedtuple("WeightedCurve", "source")):
    """The naive completion sum_c coeff * x^ex y^ey z^ez = 0 in P(weights).

    Only the affine equation `source` is stored; the weights, degree,
    height and terms are read off it, so a curve is always the completion
    of its source.  Weighted degrees are forced: every monomial of the
    equation is padded with the unique power of z making it
    weighted-homogeneous of degree p^max(n, m).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks

    def __new__(cls, source: Union[FormPresentation, Torsor]):
        if source.m == 0:
            raise TrivialTau("tau has no twist term; the completion is a projective line")
        return super().__new__(cls, source)

    @property
    def field(self) -> FieldDesc:
        return self.source.field

    @property
    def a(self) -> int:
        """The single non-unit weight p^|m - n| (1 when n = m)."""
        return self.field.p ** abs(self.source.m - self.source.n)

    @property
    def weights(self) -> tuple[int, int, int]:
        a = self.a
        return (1, a, 1) if self.source.n <= self.source.m else (a, 1, 1)

    @property
    def degree(self) -> int:
        return self.field.p ** max(self.source.n, self.source.m)

    @property
    def height(self) -> int:
        return self.field.p ** min(self.source.n, self.source.m)

    @property
    def terms(self) -> tuple[tuple[tuple[int, int, int], RatFunc], ...]:
        X = self.source
        p, d, wx = X.field.p, self.degree, self.weights[0]
        # x^(p^i) z^(d - wx p^i), y^(p^n) and z^d are distinct monomials
        terms = {(p ** i, 0, d - wx * p ** i): c for i, c in enumerate(X.coeffs) if c}
        terms[(0, p ** X.n, 0)] = -X.field.one()
        if X.b:
            terms[(0, 0, d)] = X.b
        return tuple(sorted(terms.items()))


class InfinityData(NamedTuple):
    """The residue ring of the boundary section z = 0."""

    is_field: bool
    degree: int
    exponent: int


def naive_completion(T) -> WeightedCurve:
    """Homogenize a form or torsor equation in its weighted plane.

    Raises TrivialTau when the equation has no twist term (m = 0).
    """
    return WeightedCurve(T)


def is_regular_at_infinity(C: WeightedCurve) -> InfinityData:
    """Inspect the boundary z = 0.

    Exactly one affine term survives at the boundary, giving the ring
    k[s]/(s^(p^e) - u), e = min(n, m): u = a_m in the chart x = 1 when
    n <= m, u = 1/a_m in the chart y = 1 when n > m.  As 1/a_m sits exactly
    as deep as a_m, both read v = min(v_m, e) off the ladder of a_m.  This
    is a field precisely when a_m is not a p-th power, and then the boundary
    is a single regular point whose residue field is purely inseparable
    of the recorded exponent.
    """
    X = C.source
    e = min(X.n, X.m)
    return _residue_ring(min(X.ladders[X.m][0], e), e, X.field.p)


def _residue_ring(v: int, e: int, p: int) -> InfinityData:
    """The boundary ring k[s]/(s^(p^e) - u), u = b^(p^v) with v <= e as large as possible.

    It is a field when v = 0 (always when e = 0); otherwise nilpotents are
    present and the reduced exponent is e - v.
    """
    return InfinityData(v == 0, p ** e, e - v)


def genus_from_formula(C: WeightedCurve) -> int:
    """Arithmetic genus (h - 1)(d - 2)/2 of the completed curve."""
    # exact: d = p^max(n, m) is even for p = 2, h - 1 = p^min(n, m) - 1 for odd p
    return (C.height - 1) * (C.degree - 2) // 2


def hilbert_dim(a: int, delta: int) -> int:
    """Dimension (delta + 1)(delta*a + 2)/2 of the degree delta*a piece of
    k[x, y, z], weights (1, a, 1)."""
    if a < 1 or delta < 0:
        raise ValueError("need a >= 1 and delta >= 0")
    return (delta + 1) * (delta * a + 2) // 2


def _unit_count(N: int, pn: int, a: int, low: bool) -> int:
    """Number of unit columns with -N <= e <= N and 0 <= j < p^n, in closed form.

    The unit columns are the (N + 1) p^n ones x^e y^j with e >= 0, and
    those with e < 0 and a j <= -e (n <= m) or j <= -a e (n > m).  The
    latter number sum_{0 <= j < p^n} max(0, N + 1 - max(a j, 1)) for
    n <= m, where only j <= J = min(p^n - 1, N // a) contribute, and
    sum_{1 <= l <= N} min(a l + 1, p^n) for n > m, where a l + 1 is the
    smaller exactly for l <= L = min(N, (p^n - 1) // a).  The sums are the
    oracle in tests/cech_reference.py.
    """
    if low:
        J = min(pn - 1, N // a)
        return (N + 1) * pn + N + J * (N + 1) - a * J * (J + 1) // 2
    L = min(N, (pn - 1) // a)
    return (N + 1) * pn + a * L * (L + 1) // 2 + L + (N - L) * pn


def _window_h1(C: WeightedCurve, N: int) -> int:
    """H1 of the window [-N, N]: its (2N + 1) p^n columns less the unit ones."""
    pn = C.field.p ** C.source.n
    return (2 * N + 1) * pn - _unit_count(N, pn, C.a, C.source.n <= C.source.m)


def cech_h1_dim(C: WeightedCurve) -> tuple[int, bool]:
    """Dimension of H1 of the structure sheaf, with a stabilization flag.

    H1 of the cover {z != 0, x != 0} is computed on the windows [-N, N] of
    x-exponents for N = P - 1 and N = P, with P = 2 * degree.  The larger
    window's dimension is returned, and the flag records whether the two
    windows agree.  Both are settled and equal `genus_from_formula`: the
    count is constant for N >= p^m - p^(m-n) (n <= m), N >= p^m - 1 (n > m).

    The overlap ring has basis x^e y^j with e in Z and 0 <= j < p^n after
    reduction by the curve equation, so a window has (2N + 1) p^n columns.
    The affine chart gives the unit rows x^e y^j with e >= 0.  The
    boundary chart is spanned by the degree zero monomials y^i z^s / x^l
    with 0 <= l <= N.  For n <= m these are the basis monomials
    x^(-l) y^i with a i <= l, again unit rows, and no row is reduced.

    For n > m the weight is a = p^(n-m), so a p^m = p^n, and
    i = q p^n + rho <= a l.  The q = 0 rows are the units x^(-l) y^rho.
    A q >= 1 row reduces through the equation to f^q x^(-l) y^rho, with
    f = b + sum a_i x^(p^i).  Since deg_x f^q <= q p^m, each of its
    entries sits at x^(e-l) y^rho with e <= q p^m, and then
    a (l - e) >= q p^n + rho - a q p^m = rho: a unit column (e - l >= 0,
    or rho <= a (l - e)).

    So the rows span exactly the unit columns, and H1 of a window is the
    number of the other columns, counted in closed form by `_unit_count`
    in O(1) arithmetic steps without touching the coefficients.  The
    row-by-row elimination is kept in tests/cech_reference.py as the
    oracle.
    """
    d_prev, d_cur = (_window_h1(C, N) for N in (2 * C.degree - 1, 2 * C.degree))
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
    return _residue_ring(power_level(-(cy / cw), I)[0], I, model.source.field.p)
