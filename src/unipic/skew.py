"""Skew polynomials over k with the Frobenius twist F*a = a^p*F.

The ring A = k<F> is the endomorphism ring of the additive group over k:
an element sum a_i F^i acts as x |-> sum a_i x^(p^i).  Multiplication
follows (a F^i)(b F^j) = a * b^(p^i) F^(i+j).  Only right division is
available without extracting p-th roots, and right division is all the
presentation theory needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldDesc, FieldMismatch, RatFunc


class SkewDivisionError(ZeroDivisionError):
    """Right division by the zero skew polynomial."""


class SkewPoly:
    """Element of k<F>, dense coefficient tuple with nonzero leading entry."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: FieldDesc) -> "SkewPoly":
        return cls(field, [])

    @classmethod
    def one(cls, field: FieldDesc) -> "SkewPoly":
        return cls(field, [field.one()])

    @classmethod
    def f_power(cls, field: FieldDesc, i: int, coeff: RatFunc | None = None) -> "SkewPoly":
        """coeff * F^i (coeff defaults to 1)."""
        c = coeff if coeff is not None else field.one()
        return cls(field, [field.zero()] * i + [c])

    @property
    def degree(self) -> int:
        """Degree in F; the zero element reports -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def constant_coeff(self) -> RatFunc:
        return self.coeff(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: "SkewPoly") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        if not self or not other:
            return SkewPoly.zero(self.field)
        out = [self.field.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b.frobenius(i)
        return SkewPoly(self.field, out)

    def scale(self, c: RatFunc) -> "SkewPoly":
        return SkewPoly(self.field, [c * a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                fi = "F" if i == 1 else f"F^{i}"
                if c.is_one():
                    parts.append(fi)
                else:
                    cs = str(c)
                    if "+" in cs or cs.startswith("-"):
                        cs = f"({cs})"
                    parts.append(f"{cs}*{fi}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkewPoly({self})"


def right_divmod(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with f = q*g + r and deg r < deg g.

    The step coefficient solves c * lc(g)^(p^d) = lc(r), which needs no
    root extraction; left division would.
    """
    if not g:
        raise SkewDivisionError("right division by zero")
    field = f.field
    q = SkewPoly.zero(field)
    r = f
    while r and r.degree >= g.degree:
        d = r.degree - g.degree
        c = r.coeffs[-1] / g.coeffs[-1].frobenius(d)
        step = SkewPoly.f_power(field, d, c)
        q = q + step
        r = r - step * g
    return q, r


@dataclass(frozen=True)
class AdditivePoly:
    """Additive polynomial sum a_i x^(p^i), the action form of a skew element."""

    field: FieldDesc
    coeffs: tuple[tuple[int, RatFunc], ...]

    def __call__(self, x: RatFunc) -> RatFunc:
        out = self.field.zero()
        for i, a in self.coeffs:
            if a:
                out = out + a * x.frobenius(i)
        return out

    def __str__(self) -> str:
        parts = []
        for i, a in self.coeffs:
            if not a:
                continue
            xp = "x" if i == 0 else f"x^{self.field.p ** i}"
            if a.is_one():
                parts.append(xp)
            else:
                cs = str(a)
                if "+" in cs or cs.startswith("-"):
                    cs = f"({cs})"
                parts.append(f"{cs}*{xp}")
        return " + ".join(parts) if parts else "0"


def to_additive(f: SkewPoly) -> AdditivePoly:
    return AdditivePoly(f.field, tuple((i, c) for i, c in enumerate(f.coeffs) if c))


def eval_additive(f: SkewPoly, x: RatFunc) -> RatFunc:
    """Evaluate the additive action of f at x; intertwines multiplication."""
    return to_additive(f)(x)
