"""Choice functions selecting the leading monomial of a polynomial.

A choice function refines the total-degree grading: it picks a support
monomial of maximal degree that divides no other support monomial.  Since the
pick is always among the degree-maximal monomials, the non-divisibility
condition holds automatically.
"""

from __future__ import annotations

import math
import random

from .fields import InputError
from .poly import Monomial, Polynomial, mono_size


class NoChoosableMonomial(InputError):
    """Raised when gamma is applied to a (possibly eps-)zero polynomial."""


def grevlex_key(m: Monomial):
    # x0 > x1 > ...; among equal degrees the grevlex-larger monomial
    # has the *smaller* trailing exponent pattern read right-to-left.
    return (mono_size(m), tuple(-e for e in reversed(m)))


def deglex_key(m: Monomial):
    return (mono_size(m), m)


def mac_key(m: Monomial):
    # degree, then the largest exponent, then lexicographic
    return (mono_size(m), max(m), m)


# the sort keys of the choice functions whose pick, without an eps filter,
# reads only the support
_KEYS = {"drvl": grevlex_key, "dlex": deglex_key, "mac": mac_key}


class ChoiceFunction:
    """Callable leading-monomial selector with an optional eps filter."""

    def __init__(self, kind: str, seed: int = 0, eps: float = 0.0):
        if kind not in ("drvl", "dlex", "mac", "minsz", "mix"):
            raise InputError(f"unknown choice function {kind!r}")
        if not (math.isfinite(eps) and eps >= 0):
            raise InputError(f"eps must be finite and nonnegative, got {eps!r}")
        self.kind = kind
        self.seed = seed
        self.eps = eps
        self._rng = random.Random(seed) if kind == "mix" else None

    @property
    def key(self):
        """The sort key whose maximum `gamma` picks, or None when the pick
        reads coefficients (minsz, mix, or an eps filter)."""
        return _KEYS.get(self.kind) if self.eps == 0 else None

    @property
    def randomized(self) -> bool:
        """True when a pick may draw from the seeded PRNG (mix), so picking
        again on the same polynomial is not a no-op."""
        return self._rng is not None

    def clone(self) -> "ChoiceFunction":
        """Fresh instance with the mix PRNG re-seeded (reproducible runs)."""
        return ChoiceFunction(self.kind, self.seed, self.eps)

    def _pick(self, p: Polynomial, monos) -> Monomial:
        if self.kind in _KEYS:
            return max(monos, key=_KEYS[self.kind])
        if self.kind == "minsz":
            return self._minsz(p, monos)
        # mix: per-call coin flip between minsz and drvl, seeded
        if self._rng.random() < 0.5:
            return self._minsz(p, monos)
        return max(monos, key=grevlex_key)

    def _minsz(self, p: Polynomial, monos):
        # among degree-maximal monomials, minimal coefficient bit-size;
        # ties broken by grevlex (an interpretation: see README)
        d = max(mono_size(m) for m in monos)
        top = [m for m in monos if mono_size(m) == d]
        f = p.field
        return min(top, key=lambda m: (f.coeff_size(p.terms[m]), [-k for k in grevlex_key(m)[1]]))

    def gamma(self, p: Polynomial) -> Monomial:
        """The chosen monomial of p, ignoring coefficients of magnitude below eps."""
        monos = self._filtered_support(p)
        if not monos:
            raise NoChoosableMonomial("no choosable monomial (polynomial is (eps-)zero)")
        return self._pick(p, monos)

    def _filtered_support(self, p: Polynomial):
        if self.eps <= 0:
            return list(p.terms)
        f = p.field
        return [m for m, c in p.terms.items() if f.magnitude(c) >= self.eps]

    def __repr__(self):
        tag = self.kind if self.kind != "mix" else f"mix:{self.seed}"
        if self.eps > 0:
            tag += f" (eps={self.eps:g})"
        return f"<choice {tag}>"


def parse_choice(spec: str, eps: float = 0.0) -> ChoiceFunction:
    """Parse a CLI choice string: drvl|dlex|mac|minsz|mix:<seed>."""
    spec = spec.strip()
    if spec.startswith("mix:"):
        try:
            seed = int(spec[4:])
        except ValueError:
            raise InputError(f"invalid seed {spec[4:]!r} in choice {spec!r}") from None
        return ChoiceFunction("mix", seed=seed, eps=eps)
    if spec == "mix":
        return ChoiceFunction("mix", seed=0, eps=eps)
    return ChoiceFunction(spec, eps=eps)
