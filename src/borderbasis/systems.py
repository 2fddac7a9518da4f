"""Benchmark system generators."""

from __future__ import annotations

from .fields import Field, InputError
from .poly import Polynomial

KATSURA_FORMULA = (
    "katsura(n): n+1 unknowns u0..un;\n"
    "  for m = 0..n-1:  sum_{k=-n..n, |m-k|<=n} u_|k| * u_|m-k|  =  u_m\n"
    "  plus the linear relation  u0 + 2*(u1 + ... + un) = 1\n"
    "The system has 2^n solutions."
)


def gen_katsura(field: Field, n: int):
    """The Katsura(n) system: n+1 unknowns, 2^n solutions."""
    if n < 1:
        raise InputError("katsura requires n >= 1")
    nv = n + 1

    def u(i):
        return tuple(1 if j == i else 0 for j in range(nv))

    polys = []
    for m in range(n):
        terms = {}
        for k in range(-n, n + 1):
            if abs(m - k) > n:
                continue
            mono = tuple(a + b for a, b in zip(u(abs(k)), u(abs(m - k))))
            terms[mono] = field.normalize(terms.get(mono, field.zero) + field.one)
        terms[u(m)] = field.normalize(terms.get(u(m), field.zero) - field.one)
        polys.append(Polynomial(field, nv, terms))
    two = field.normalize(field.one + field.one)
    linear = {u(0): field.one}
    for k in range(1, nv):
        linear[u(k)] = two
    linear[(0,) * nv] = field.normalize(-field.one)
    polys.append(Polynomial(field, nv, linear))
    return polys
