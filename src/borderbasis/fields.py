"""Coefficient fields: exact rationals, prime fields, and thresholded floats.

Every other module is generic over a ``Field`` instance.  Elements are plain
Python values (``Fraction``, ``int`` residues, ``float``), so polynomials stay
hashable and cheap to copy.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(Exception):
    pass


class FieldDivisionError(FieldError):
    """Division by a (field-)zero element; signals a pivot failure upstream."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < 3.3e24 (covers p < 2^31)."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract coefficient field.

    Elements are immutable values; all operations are pure.
    """

    name = "?"

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        return self.div(self.one, a)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def magnitude(self, a) -> float:
        """|a| as a float, used for thresholding and pivot selection."""
        raise NotImplementedError

    def coeff_size(self, a) -> int:
        """Bit-size proxy used by the size-minimizing choice function."""
        return 1

    def from_int(self, k: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)

    def to_complex(self, a) -> complex:
        raise FieldError(f"field {self.name} is not embeddable in C")

    def __repr__(self):
        return f"<field {self.name}>"


class RationalField(Field):
    """Arbitrary-precision rationals in lowest terms (``Fraction``)."""

    name = "qq"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise FieldDivisionError("division by zero in QQ")
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def magnitude(self, a):
        return abs(float(a))

    def coeff_size(self, a):
        return a.numerator.bit_length() + a.denominator.bit_length()

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return q

    def to_str(self, a):
        return str(a)

    def to_complex(self, a):
        return complex(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("qq")


class PrimeField(Field):
    """Z/p with least nonnegative residues; inversion via extended Euclid."""

    def __init__(self, p: int):
        if p < 2**31 and not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        # above 2^31 primality is trusted (documented in the CLI help)
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise FieldDivisionError(f"division by zero mod {self.p}")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def magnitude(self, a):
        return 0.0 if a % self.p == 0 else 1.0

    def from_int(self, k):
        return k % self.p

    def from_fraction(self, q):
        return self.div(q.numerator % self.p, q.denominator % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


DEFAULT_EPS = 1e-10


class FloatField(Field):
    """64-bit floats with an epsilon-thresholded zero test.

    ``is_zero(c)`` iff ``|c| < eps``; ``eps = 0`` means exact comparison.
    """

    def __init__(self, eps: float = DEFAULT_EPS):
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
        self.eps = eps
        self.name = f"f64:{eps:g}"
        self.zero = 0.0
        self.one = 1.0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if self.is_zero(b):
            raise FieldDivisionError(f"division by eps-zero value {b!r}")
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return abs(a) < self.eps if self.eps > 0 else a == 0.0

    def magnitude(self, a):
        return abs(a)

    def from_int(self, k):
        return float(k)

    def from_fraction(self, q):
        return float(q)

    def to_str(self, a):
        return repr(a)

    def to_complex(self, a):
        return complex(a)

    def __eq__(self, other):
        return isinstance(other, FloatField) and other.eps == self.eps

    def __hash__(self):
        return hash(("f64", self.eps))


def parse_field(spec: str) -> Field:
    """Parse a field selection string: ``qq``, ``fp:<p>``, ``f64:<eps>``."""
    spec = spec.strip()
    if spec == "qq":
        return RationalField()
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    if spec == "f64":
        return FloatField()
    if spec.startswith("f64:"):
        return FloatField(float(spec[4:]))
    raise ValueError(f"unknown field {spec!r} (expected qq, fp:<p> or f64:<eps>)")
