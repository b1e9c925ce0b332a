"""The ring k{F}: the oracle for the presentation code.

A form stores only the coefficients (1, a_1, ..., a_m) of tau, so the
ring structure lives here, on its own coefficient container: multiplication
follows (a F^i)(b F^j) = a * b^(p^i) F^(i+j), right division needs no
p-th roots, and an element acts on the additive group through
`eval_additive`, which reads only `field` and `coeffs` and so takes a form
too.  `make_form`'s normalisation is right multiplication by a constant,
and `equation_holds` applies tau additively; the tests check both against
this module.
"""

from dataclasses import dataclass

from unipic.field import FieldDesc, FieldMismatch, RatFunc


class SkewDivisionError(ZeroDivisionError):
    """Right division by the zero skew polynomial."""


class SkewPoly:
    """Element of k{F}, a dense coefficient tuple with nonzero leading entry."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree in F; the zero element reports -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> RatFunc:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"SkewPoly({list(self.coeffs)!r})"

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


def to_additive(f) -> AdditivePoly:
    return AdditivePoly(f.field, tuple((i, c) for i, c in enumerate(f.coeffs) if c))


def eval_additive(f, x: RatFunc) -> RatFunc:
    """Evaluate the additive action of f at x; intertwines multiplication."""
    return to_additive(f)(x)
