"""Exact scalar arithmetic over Q or a prime field F_p.

A rational is a Python `int` while it is integral and becomes a
`fractions.Fraction` (reduced, positive denominator) only after a division
that does not come out even; every operation turns an integral `Fraction`
back into an `int`, so integer data never pay for boxing.  Prime-field
scalars are ints in [0, p).  A `Field` value tags every matrix and carrier
in the package; mixing fields raises `FieldError`.

Elimination over Q is fraction-free: `integral_rows` scales each row to
integers once, the elimination in `koszulcat.matrix` works on those
integer rows, and `divide_row` makes the one division per entry at the end.
Over F_p both hooks keep the field's own arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FieldError

Scalar = object  # char 0: int if integral, else Fraction; char p: int in [0, p)


def _integral(x):
    """A rational `Fraction` with denominator 1 as its `int`, else `x` itself."""
    return x.numerator if x.denominator == 1 else x


def _integer_row(row):
    """A copy of the rational row `row` times the lcm of its denominators.

    Integral entries are seen while copying: a row of ints (or of
    `Fraction`s with denominator 1, which become ints) is returned after one
    pass.
    """
    out = {}
    den = 1
    for j, v in row.items():
        if v.__class__ is not int:
            d = v.denominator
            if d == 1:
                v = v.numerator
            elif den % d:
                den = den // gcd(den, d) * d
        out[j] = v
    if den == 1:
        return out
    return {j: v * den if v.__class__ is int else v.numerator * (den // v.denominator)
            for j, v in out.items()}


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

    # -- rows for elimination ---------------------------------------------

    def integral_rows(self, rows):
        """Copies of the sparse rows (dicts, zeros omitted) ready to eliminate.

        Over Q each copy is its row scaled to integers by the lcm of the
        row's denominators, so every entry is an `int`; over F_p each copy
        equals its row.  Scaling by a nonzero integer keeps each row's span
        and nonzero pattern.
        """
        if self.char:
            return [dict(r) for r in rows]
        return [_integer_row(r) for r in rows]

    def divide_row(self, row, a):
        """The sparse row `row` divided entrywise by the nonzero scalar `a`.

        Over Q, `row` holds ints and an entry is an `int` exactly when the
        quotient is integral.
        """
        if self.char:
            inv = pow(a, self.char - 2, self.char)
            return row if inv == 1 else {j: v * inv % self.char for j, v in row.items()}
        if a == 1:
            return row
        if a == -1:
            return {j: -v for j, v in row.items()}
        return {j: v // a if not v % a else Fraction(v, a) for j, v in row.items()}

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
