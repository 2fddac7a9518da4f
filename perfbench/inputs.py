"""Seeded inputs of the benchmark workloads, and why each workload exists.

Everything here is plain Python and imports nothing from the library or from
the test suite, so neither a library refactor nor a test refactor can change
what a workload feeds the program.  Polynomials are built as
{exponent tuple: int} maps and reach the program only as system text.

Inputs whose exact results are pinned in ``digests.json`` come from fixed
pools, named by pool seeds that never change.  The run seed picks a seeded
stream of pool members, so every input a run can meet has a stored digest.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

# katsura-fp: the fixed point (echelon saturation, C-polynomials, generator
# check) does about 70% of the work and generate_syzygies about 27%;
# commutation about 3%.  An int64 elimination kernel over fp or a
# neighbour-only criterion should show here.  The three choice functions take
# the loop along three different paths to the same ideal; each is a system
# of its own, and a round builds all three in turn, so the median of a run's
# systems sits on the middle cluster.
KATSURA_FP = {"n": 5, "field": "fp:1000003", "choices": ("mac", "drvl", "dlex"), "member_degree": 4}

# katsura-exact-solve: avoids the fp path entirely, so an fp-only kernel
# should leave it unchanged.  Rational coefficient growth makes commutation
# about 15% of the qq time (3% on katsura-fp).  The only workload that runs
# the float path and the eigen solver.  The float inputs known to give wrong
# answers (Katsura 5 at f64:1e-6, Katsura 3 at f64:0) are deliberately not
# timed: they finish fast because they are wrong, so a fix would read as a
# slowdown.
KATSURA_EXACT = {"n": 4, "fields": ("qq", "f64:1e-10"), "choice": "mac", "member_degree": 4}

# random-batch: most systems are tiny (a few ms; the largest ~0.4 s), so
# fixed per-call cost dominates; an array kernel that wins on Katsura 5 but
# pays a set-up cost on every call loses here.  The only workload that runs
# reduce_syzygy.  Systems are f_i = x_i^d_i + lower-degree noise: the leading
# forms have no common zero, so the dimension is prod d_i.  A round runs
# every shape once, in a seeded order, and successive rounds walk through
# each shape's pool variants, so the mix of sizes and variants -- and with it
# the throughput and the tail -- does not depend on the seed.
RANDOM_FIELD = "fp:65537"
RANDOM_SHAPES = tuple(
    (n, degs)
    for n in (2, 3, 4)
    for degs in itertools.combinations_with_replacement((1, 2, 3), n)
    if math.prod(degs) <= 36
)
RANDOM_VARIANTS = 16

# Ideal members each workload checks every basis it builds against; these
# normal-form queries are the read path.  There is no separate query-only
# workload with its basis built in set-up: such a run times only the few
# builds of its set-ups, too few for a steady system_s on a host whose speed
# drifts by tens of percent over minutes.
MEMBER_POOL = 12


def monomials(n, degree):
    """Exponent tuples in n variables of total degree <= degree, fixed order."""
    return sorted(
        (m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) <= degree),
        key=lambda m: (sum(m), m),
    )


def _add_into(acc, poly, scale=1):
    for m, c in poly.items():
        v = acc.get(m, 0) + scale * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        _add_into(out, {tuple(x + y for x, y in zip(ma, mb)): cb for mb, cb in b.items()}, ca)
    return out


def degree(poly):
    return max(sum(m) for m in poly)


def random_poly(rng, n, deg, density=0.5, cmax=9):
    poly = {}
    for m in monomials(n, deg):
        if rng.random() < density:
            c = rng.randint(-cmax, cmax)
            if c:
                poly[m] = c
    return poly


def member(rng, polys, n, deg):
    """A nonzero sum h_i f_i of degree <= deg with random h_i: an ideal member."""
    while True:
        acc = {}
        for f in polys:
            _add_into(acc, _mul(random_poly(rng, n, max(deg - degree(f), 0)), f))
        if acc:
            return acc


def poly_text(poly, names):
    out = []
    for m in sorted(poly, key=lambda m: (-sum(m), m)):
        c = poly[m]
        mono = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(m) if e
        )
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def system_text(names, field, polys):
    return "\n".join([f"ring {' '.join(names)} over {field}"] + [poly_text(p, names) for p in polys]) + "\n"


def katsura(n):
    """Katsura(n) in u0..un: 2^n solutions."""
    nv = n + 1

    def u(i):
        return tuple(int(j == i) for j in range(nv))

    polys = []
    for m in range(n):
        p = {}
        for k in range(-n, n + 1):
            if abs(m - k) <= n:
                _add_into(p, {tuple(a + b for a, b in zip(u(abs(k)), u(abs(m - k)))): 1})
        _add_into(p, {u(m): -1})
        polys.append(p)
    linear = {u(k): 2 for k in range(1, nv)}
    linear[u(0)] = 1
    linear[(0,) * nv] = -1
    polys.append(linear)
    return polys


def katsura_names(n):
    return [f"u{i}" for i in range(n + 1)]


def random_names(n):
    return [f"x{i}" for i in range(n)]


def random_regular(n, degs, variant):
    """Pool system (n, degs, variant): f_i = x_i^d_i + noise of lower degree."""
    rng = random.Random(f"random-batch/{n}/{degs}/{variant}")
    degs = list(degs)
    rng.shuffle(degs)
    polys = []
    for i, d in enumerate(degs):
        p = {tuple(d if j == i else 0 for j in range(n)): 1}
        for m in monomials(n, d - 1):
            if rng.random() < 0.6:
                c = rng.randint(-4, 4)
                if c:
                    p[m] = c
        polys.append(p)
    return polys


def random_member(n, degs, variant):
    """The ideal member checked against pool system (n, degs, variant)."""
    rng = random.Random(f"random-batch/member/{n}/{degs}/{variant}")
    return member(rng, random_regular(n, degs, variant), n, max(degs) + 1)


def variant_offsets(rng):
    return {shape: rng.randrange(RANDOM_VARIANTS) for shape in RANDOM_SHAPES}


def random_round(rng, k, offsets):
    """Round k of random-batch: every shape once, in a seeded order.

    A shape's variant is (its seeded offset + k) mod RANDOM_VARIANTS, so a run
    walks through each shape's variants in turn instead of drawing them.
    """
    shapes = list(RANDOM_SHAPES)
    rng.shuffle(shapes)
    return [(n, degs, (offsets[n, degs] + k) % RANDOM_VARIANTS) for n, degs in shapes]


def pool_order(rng, size):
    """A seeded order in which a run walks a query pool, each entry once per pass."""
    order = list(range(size))
    rng.shuffle(order)
    return order


def katsura_members(n, deg, pool_seed):
    rng = random.Random(pool_seed)
    polys = katsura(n)
    return [member(rng, polys, n + 1, deg) for _ in range(MEMBER_POOL)]


class System(NamedTuple):
    """One system a workload builds: its digest key, text and choice function."""

    key: str
    text: str
    choice: str
    field: str

    @property
    def exact(self):
        """Digests pin B and its rules on exact fields, B alone on f64."""
        return not self.field.startswith("f64")


def random_key(n, degs, variant):
    return f"random-batch/{n}/{'-'.join(map(str, degs))}/{variant}"


def systems(workload):
    """Every system the workload can build, keyed as in digests.json."""
    if workload == "katsura-fp":
        cfg = KATSURA_FP
        text = system_text(katsura_names(cfg["n"]), cfg["field"], katsura(cfg["n"]))
        return [System(f"katsura-fp/{c}", text, c, cfg["field"]) for c in cfg["choices"]]
    if workload == "katsura-exact-solve":
        cfg = KATSURA_EXACT
        return [
            System(
                f"katsura-exact-solve/{f}",
                system_text(katsura_names(cfg["n"]), f, katsura(cfg["n"])),
                cfg["choice"],
                f,
            )
            for f in cfg["fields"]
        ]
    if workload == "random-batch":
        return [
            System(
                random_key(n, degs, v),
                system_text(random_names(n), RANDOM_FIELD, random_regular(n, degs, v)),
                "mac",
                RANDOM_FIELD,
            )
            for n, degs in RANDOM_SHAPES
            for v in range(RANDOM_VARIANTS)
        ]
    raise ValueError(f"unknown workload {workload!r}")
