"""The coefficient container of tau = sum a_i F^i in k{F}.

k{F} is the skew polynomial ring with F*a = a^p*F; an element sum a_i F^i
acts on the additive group as x |-> sum a_i x^(p^i).  The library only
reads the coefficients a_i of a presentation, so this module keeps them
as a dense tuple with nonzero leading entry and nothing more.
"""

from __future__ import annotations

from .field import FieldDesc, RatFunc


class SkewPoly:
    """Element of k{F}, dense coefficient tuple with nonzero leading entry."""

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
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def constant_coeff(self) -> RatFunc:
        return self.coeff(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"SkewPoly({list(self.coeffs)!r})"
