"""Exact scalar arithmetic over Q or a prime field F_p.

A rational is a Python `int` while it is integral and becomes a
`fractions.Fraction` (reduced, positive denominator) only after a division
that does not come out even; every operation turns an integral `Fraction`
back into an `int`, so integer data never pay for boxing.  Prime-field
scalars are ints in [0, p).  A `Field` value tags every matrix and carrier
in the package; mixing fields raises `FieldError`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldError

Scalar = object  # char 0: int if integral, else Fraction; char p: int in [0, p)


def _integral(x):
    """A rational `Fraction` with denominator 1 as its `int`, else `x` itself."""
    return x.numerator if x.denominator == 1 else x


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Field descriptor: char 0 means Q, otherwise the prime characteristic."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not _is_prime(char):
            raise FieldError("characteristic must be 0 or a prime, got %r" % (char,))
        self.char = char

    # -- constructors ------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def from_descriptor(text: str) -> "Field":
        """Parse a descriptor such as 'Q', 'F 5' or 'F5'."""
        t = text.strip()
        if t in ("Q", "QQ", "q"):
            return Field(0)
        if t and t[0] in "Ff":
            rest = t[1:].replace("_", " ").strip()
            try:
                return Field(int(rest))
            except ValueError:
                pass
        raise FieldError("bad field descriptor %r" % (text,))

    def descriptor(self) -> str:
        return "Q" if self.char == 0 else "F %d" % self.char

    # -- arithmetic --------------------------------------------------------

    def zero(self) -> Scalar:
        return 0

    def one(self) -> Scalar:
        return 1

    def from_int(self, n: int) -> Scalar:
        return n % self.char if self.char else int(n)

    def add(self, a, b):
        if self.char:
            return (a + b) % self.char
        s = a + b
        return s if s.__class__ is int else _integral(s)

    def sub(self, a, b):
        if self.char:
            return (a - b) % self.char
        s = a - b
        return s if s.__class__ is int else _integral(s)

    def mul(self, a, b):
        if self.char:
            return (a * b) % self.char
        s = a * b
        return s if s.__class__ is int else _integral(s)

    def neg(self, a):
        if self.char:
            return (-a) % self.char
        return -a if a.__class__ is int else _integral(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, self.char - 2, self.char)
        if a.__class__ is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        return _integral(1 / a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- serialization -----------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar: '3/7', '-2', or '2 mod 5'."""
        t = text.strip()
        if " mod " in t:
            val, mod = t.split(" mod ")
            if self.char == 0 or int(mod) != self.char:
                raise FieldError("scalar %r does not belong to %s" % (text, self.descriptor()))
            return int(val) % self.char
        if self.char == 0:
            return _integral(Fraction(t))
        if "/" in t:
            num, den = t.split("/")
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return int(t) % self.char

    def format(self, a: Scalar) -> str:
        if self.char == 0:
            return str(a)
        return "%d mod %d" % (a % self.char, self.char)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Field(%d)" % self.char


QQ = Field(0)


def check_same_field(a: Field, b: Field):
    if a is not b and a != b:
        raise FieldError("mixed fields: %s vs %s" % (a.descriptor(), b.descriptor()))
