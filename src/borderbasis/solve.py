"""Numerical root extraction from the multiplication matrices.

The eigenvectors of a random unit-circle combination of the transposed
multiplication matrices approximate evaluation functionals at the roots, so
each root is read off from eigenvector coordinate ratios.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fields import InputError, NumericError, PrimeField
from .poly import Polynomial, mono_key, mono_one, mono_var
from .quotient import MultiplicationSystem


class SolveError(NumericError):
    pass


class RootSet:
    """All D = |B| roots (with multiplicity) and the residual metric: per
    root, in root order, the max |f(root)| over the inputs (`residuals`), and
    their maximum, ``mnacr``."""

    __slots__ = ("roots", "mnacr", "seed", "condition", "residuals")

    def __init__(self, roots, mnacr, seed, condition=None, residuals=()):
        self.roots = list(roots)
        self.mnacr = mnacr
        self.seed = seed
        self.condition = condition
        self.residuals = list(residuals)

    def __len__(self):
        return len(self.roots)

    def to_json_dict(self):
        """The report of `solve`; a condition, residual or mnacr that is not
        finite is written as null."""
        return {
            "roots": [[[z.real, z.imag] for z in root] for root in self.roots],
            "mnacr": _finite_or_none(self.mnacr),
            "seed": self.seed,
            "condition": _finite_or_none(self.condition),
            "residuals": [_finite_or_none(r) for r in self.residuals],
        }


def _finite_or_none(x):
    return x if x is not None and math.isfinite(x) else None


def evaluate_complex(p: Polynomial, point) -> complex:
    """p at a complex point, summed in `mono_key` order so the value does not
    depend on the order p was built in; a coefficient beyond the float range
    raises NumericError."""
    acc = 0j
    for m in sorted(p.terms, key=mono_key):
        try:
            v = complex(p.terms[m])
        except OverflowError:
            raise NumericError("a coefficient is outside the float range") from None
        for k, e in enumerate(m):
            if e:
                v *= point[k] ** e
        acc += v
    return acc


def residuals(roots, polys) -> list:
    """Per root, in order, the maximal norm of the polynomials at it (0.0
    with none; a nan norm counts as infinite, so such a root never reads as
    a good one)."""
    out = []
    for root in roots:
        norms = (abs(evaluate_complex(p, root)) for p in polys)
        out.append(max([0.0, *(math.inf if math.isnan(x) else x for x in norms)]))
    return out


def eigen_roots(ms: MultiplicationSystem, seed: int = 0, polys=None) -> RootSet:
    """Roots from the eigen-decomposition of sum t_i M_i^T, t_i unit circle.

    Coordinate j of a root is read as v[x_j]/v[1] when x_j is a basis
    monomial, and as the Rayleigh quotient of M_j^T on v otherwise.
    """
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if isinstance(ms.field, PrimeField):
        raise SolveError("roots over a prime field are not computable numerically")
    n = ms.nvars
    rng = np.random.default_rng(seed)
    try:
        # M_i^T, row j the column j of M_i, stored column-major: the layout
        # sets the summation order of the products below, so the roots' last bits
        mats_t = [np.array(ms.matrices[i], dtype=complex, order="F") for i in range(n)]
    except OverflowError:  # as `evaluate_complex` reports it
        raise NumericError("a coefficient is outside the float range") from None
    t = np.exp(2j * np.pi * rng.random(n))
    M = sum(t[i] * mats_t[i] for i in range(n))
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # a ValueError; a failed solve is numeric
        raise SolveError(f"eigen solve failed: {exc}") from exc

    # condition estimate of the eigenvector basis; large values flag a
    # defective or clustered eigenproblem
    cond = float(np.linalg.cond(vecs))
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn(
            f"clustered or defective eigenproblem (eigenvector condition {cond:.2e}); "
            "roots may be inaccurate",
            stacklevel=2,
        )

    one_idx = ms.index[mono_one(n)]
    var_idx = [ms.index.get(mono_var(n, j)) for j in range(n)]
    order = np.argsort(vals.real**2 + vals.imag**2, kind="stable")
    roots = []
    for col in order:
        v = vecs[:, col]
        pivot = v[one_idx]
        if abs(pivot) < 1e-14 * np.linalg.norm(v):
            # evaluation functional with vanishing value at 1: fall back to
            # Rayleigh quotients throughout
            pivot = None
        root = []
        for j in range(n):
            k = var_idx[j]
            if k is not None and pivot is not None:
                root.append(complex(v[k] / pivot))
            else:
                root.append(complex(np.vdot(v, mats_t[j] @ v) / np.vdot(v, v)))
        roots.append(tuple(root))
    resid = residuals(roots, polys or ())
    return RootSet(roots, max([0.0, *resid]), seed, cond, resid)
