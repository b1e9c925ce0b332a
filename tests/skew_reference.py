"""The ring k{F} over the coefficient container `unipic.skew.SkewPoly`.

The library only reads the coefficients of tau, so the ring structure
lives here, as the oracle for the presentation code: multiplication
follows (a F^i)(b F^j) = a * b^(p^i) F^(i+j), right division needs no
p-th roots, and an element acts on the additive group through
`eval_additive`.  `make_form`'s normalisation is right multiplication by a
constant, and `equation_holds` applies tau additively; the tests check
both against this module.
"""

from dataclasses import dataclass

from unipic import skew
from unipic.field import FieldDesc, FieldMismatch, RatFunc


class SkewDivisionError(ZeroDivisionError):
    """Right division by the zero skew polynomial."""


class SkewPoly(skew.SkewPoly):
    """`unipic.skew.SkewPoly` with the ring operations of k{F}."""

    __slots__ = ()

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


def to_additive(f: skew.SkewPoly) -> AdditivePoly:
    return AdditivePoly(f.field, tuple((i, c) for i, c in enumerate(f.coeffs) if c))


def eval_additive(f: skew.SkewPoly, x: RatFunc) -> RatFunc:
    """Evaluate the additive action of f at x; intertwines multiplication."""
    return to_additive(f)(x)
