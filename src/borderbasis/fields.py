"""Coefficient fields: exact rationals, prime fields, and thresholded floats.

Every other module is generic over a ``Field`` instance.  Elements are plain
Python values (``Fraction``, ``int`` residues, ``float``), so polynomials stay
hashable and cheap to copy.  They are combined with the operators ``+ - *``,
and ``Field.normalize`` turns each result into the element it stands for
before it is stored or compared.  For dense linear algebra each field also
encodes a list of elements as one numpy array over a scale (``encode``),
multiplies two such arrays (``product``) and decodes an array back to
elements (``decode``).
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

    def encode(self, values):
        """(array, scale): the elements ``values``, a list or nested lists, as
        one numpy array of their shape, each value = its entry / scale; the
        scale is 1 on every field but ``qq``."""
        raise NotImplementedError

    def decode(self, array, scale) -> list:
        """The elements array[k] / scale of an array of products of encodings."""
        raise NotImplementedError

    def product(self, a, b):
        """a @ b for arrays this field encodes."""
        return a @ b

    def nonzero(self, x, a, b):
        """Where x, a difference of products of the arrays a and b, is nonzero."""
        return x != 0

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

    def encode(self, values):
        """Integer numerators, an object array, over the lcm of the denominators."""
        array = np.array(values, dtype=object)
        scale = math.lcm(*(c.denominator for c in array.flat))
        return np.frompyfunc(lambda c: c.numerator * (scale // c.denominator), 1, 1)(array), scale

    def decode(self, array, scale):
        return [Fraction(x, scale) for x in array.tolist()]


class PrimeField(Field):
    """Z/p with least nonnegative residues; inversion via extended Euclid."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1 % p
        # residues are int64 when one product of two fits int64, Python ints beyond
        self.dtype = np.int64 if int64_sums_fit(self, 1) else object

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

    def encode(self, values):
        """Least residues, of ``dtype``, over the scale 1."""
        try:
            array = np.array(values, dtype=self.dtype)
        except OverflowError:  # a value beyond int64: reduced as a Python int
            array = np.array(values, dtype=object)
        return (array % self.p).astype(self.dtype, copy=False), 1

    def decode(self, array, scale):
        return (array % self.p).tolist()

    def product(self, a, b):
        return residue_product(a, b, self)


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
    """a @ b mod p for numpy arrays of residues, exactly, with delayed
    reduction (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008): one float64 BLAS
    product where its sums are exact in float64; else, where (p-1)^2 < 2^63,
    numpy's int64 product over chunks of as many terms as one int64 sum
    holds, floor((2^63-1)/(p-1)^2), each reduced mod p and their residues
    added; else one product of Python ints.  Of the field's ``dtype``."""
    p, terms = field.p, a.shape[-1]
    if float64_sums_fit(field, terms):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    step = (2**63 - 1) // (p - 1) ** 2  # 0 when one product leaves int64
    if not step:
        return a.astype(object) @ b.astype(object) % p
    out = a[..., :step] @ b[:step] % p
    for s in range(step, terms, step):
        out += a[..., s : s + step] @ b[s : s + step] % p
    return out % p if terms > step else out


def _finite(x):
    """x, unless a float64 entry overflowed to inf or nan: then NumericError,
    as `FloatField.normalize` raises it."""
    if not np.isfinite(x).all():
        raise NumericError("float overflow: a coordinate became inf or nan")
    return x


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
        # 6 significant digits where they give eps back, every digit otherwise
        self.name = f"f64:{eps:g}" if float(f"{eps:g}") == eps else f"f64:{eps!r}"
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

    def encode(self, values):
        """float64 over the scale 1; an entry that is inf or nan raises NumericError."""
        return _finite(np.array(values, dtype=np.float64)), 1

    def decode(self, array, scale):
        """The floats of an answer; an entry that is inf or nan raises
        NumericError.  An inf in any product it was formed from reaches it as
        inf or nan (inf * 0 is nan), so one check per answer suffices."""
        return _finite(array).tolist()

    @np.errstate(over="ignore", invalid="ignore")
    def product(self, a, b):
        """a @ b in float64, without a warning on overflow: `decode` or
        `nonzero` raises NumericError on the answer."""
        return a @ b

    def nonzero(self, x, a, b):
        """|x| > max(eps, 1e-10 * |a| * |b|), |a| the largest magnitude in a, so
        badly scaled systems do not fail spuriously; inf or nan in x raises
        NumericError."""
        return np.abs(_finite(x)) > max(self.eps, 1e-10 * np.abs(a).max() * np.abs(b).max())


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
