"""Coefficient fields: exact rationals, prime fields, and thresholded floats.

Every other module is generic over a ``Field`` instance.  Elements are plain
Python values (``Fraction``, ``int`` residues, ``float``), so polynomials stay
hashable and cheap to copy.  They are combined with the operators ``+ - *``,
and ``Field.normalize`` turns each result into the element it stands for
before it is stored or compared.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-range input: the base of every exit-1 error."""


class NumericError(Exception):
    """A numeric failure, such as a float computation leaving the finite
    range (overflow to inf or nan): the base of every exit-3 error."""


class FieldError(InputError):
    pass


class FieldDivisionError(FieldError):
    """Division by a (field-)zero element; signals a pivot failure upstream."""


# Miller-Rabin to these bases is exact below 3.3*10^24 (Sorenson & Webster,
# Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2 ... 41: exact below 3.3*10^24,
    a strong probable-prime test beyond."""
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    if p < 2:
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1 or x == p - 1:
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

    Elements are immutable values combined with ``+ - *``; ``normalize`` maps
    a result to the stored element, and ``inv`` is the only division.
    """

    name = "?"

    def inv(self, a):
        if self.is_zero(a):
            raise FieldDivisionError(f"division by the zero value {self.to_str(a)} in {self.name}")
        return self.normalize(self.one / a)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def normalize(self, a):
        """The element a sum of products formed with + - * stands for (Z/p reduces)."""
        return a

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

    def is_zero(self, a):
        return a == 0

    def magnitude(self, a):
        try:
            return abs(float(a))
        except OverflowError:  # beyond the float range: larger than any eps
            return math.inf

    def coeff_size(self, a):
        return a.numerator.bit_length() + a.denominator.bit_length()

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return q

    def to_str(self, a):
        # str(Fraction) in Decimal digits: str(int) stops at sys.get_int_max_str_digits()
        num = str(Decimal(a.numerator))
        return num if a.denominator == 1 else f"{num}/{Decimal(a.denominator)}"

    def to_complex(self, a):
        try:
            return complex(a)
        except OverflowError:
            raise NumericError("a coefficient is outside the float range") from None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("qq")


class PrimeField(Field):
    """Z/p with least nonnegative residues; inversion via extended Euclid."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldDivisionError(f"division by zero mod {self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def normalize(self, a):
        return a % self.p

    def magnitude(self, a):
        return 0.0 if a % self.p == 0 else 1.0

    def from_int(self, k):
        return k % self.p

    def from_fraction(self, q):
        return q.numerator * self.inv(q.denominator) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))


def int64_sums_fit(field: Field, terms: int) -> bool:
    """True when ``field`` is a prime field whose sums of ``terms`` products of
    two residues fit int64: terms*(p-1)^2 < 2^63."""
    return isinstance(field, PrimeField) and terms * (field.p - 1) ** 2 < 2**63


def float64_sums_fit(field: Field, terms: int) -> bool:
    """True when ``field`` is a prime field whose sums of ``terms`` products of
    two residues are exact in float64: terms*(p-1)^2 < 2^53, so every partial
    sum is an integer float64 holds, in any order of summation."""
    return isinstance(field, PrimeField) and terms * (field.p - 1) ** 2 < 2**53


def residue_product(a, b, field: PrimeField):
    """a @ b mod p for numpy arrays of residues, exactly: one float64 BLAS
    product where its sums are exact in float64 (Dumas, Giorgi & Pernet, ACM
    TOMS 35, 2008), numpy's int64 product where they fit int64, Python ints
    beyond.  int64 when (p-1)^2 < 2^63, else an object array of Python ints."""
    terms = a.shape[-1]
    if float64_sums_fit(field, terms):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % field.p
    if int64_sums_fit(field, terms):
        return a @ b % field.p
    out = a.astype(object) @ b.astype(object) % field.p
    return out.astype(np.int64) if int64_sums_fit(field, 1) else out


DEFAULT_EPS = 1e-10


class FloatField(Field):
    """64-bit floats with an epsilon-thresholded zero test.

    ``is_zero(c)`` iff ``|c| < eps``; ``eps = 0`` means exact comparison.
    ``normalize`` raises NumericError on inf or nan, so an overflow stops the
    computation instead of spreading nan through it.
    """

    def __init__(self, eps: float = DEFAULT_EPS):
        if not (math.isfinite(eps) and eps >= 0):
            raise FieldError(f"eps must be finite and nonnegative, got {eps!r}")
        self.eps = eps
        self.name = f"f64:{eps:g}"
        self.zero = 0.0
        self.one = 1.0

    def is_zero(self, a):
        return abs(a) < self.eps if self.eps > 0 else a == 0.0

    def normalize(self, a):
        if not math.isfinite(a):
            raise NumericError(f"float overflow: a coefficient became {a!r}")
        return a

    def magnitude(self, a):
        return abs(a)

    def from_int(self, k):
        return float(k)

    def from_fraction(self, q):
        try:
            return float(q)
        except OverflowError:
            raise FieldError("coefficient out of the float range") from None

    def to_str(self, a):
        return repr(a)

    def to_complex(self, a):
        return complex(a)

    def __eq__(self, other):
        return isinstance(other, FloatField) and other.eps == self.eps

    def __hash__(self):
        return hash(("f64", self.eps))


def _spec_number(spec: str, kind, what: str):
    text = spec.partition(":")[2]
    try:
        return kind(text)
    except ValueError:
        raise FieldError(f"invalid {what} {text!r} in field {spec!r}") from None


def parse_field(spec: str) -> Field:
    """Parse a field selection string: ``qq``, ``fp:<p>``, ``f64:<eps>``."""
    spec = spec.strip()
    if spec == "qq":
        return RationalField()
    if spec.startswith("fp:"):
        return PrimeField(_spec_number(spec, int, "modulus"))
    if spec == "f64":
        return FloatField()
    if spec.startswith("f64:"):
        return FloatField(_spec_number(spec, float, "eps"))
    raise FieldError(f"unknown field {spec!r} (expected qq, fp:<p> or f64:<eps>)")
