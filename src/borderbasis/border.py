"""Rewriting rules and the fixed-point border basis computation.

The computation maintains a candidate quotient basis B (connected to 1) and a
linear echelon of ideal elements supported in the prolongation of B.  Each
round saturates the echelon with single-variable multiples, then applies one
of three moves: shrink B when a dependency inside <B> appears, grow B when a
border monomial cannot be rewritten, or stop once every border monomial has a
rule, the candidate's multiplication matrices commute on every neighbour
column and every generator projects to zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .choice import ChoiceFunction, NoChoosableMonomial
from .fields import FloatField, RationalField, float64_sums_fit, int64_sums_fit
from .poly import (
    Monomial,
    Polynomial,
    axpy,
    connected_component_of_one,
    divisor_closure,
    format_monomial,
    mono_key,
    mono_one,
    mono_size,
)
from .quotient import build_mult_system, commutators, normal_form


class NotZeroDimensionalError(Exception):
    """Loop guard exceeded: the ideal is possibly not zero-dimensional.  The
    base of every exit-2 error."""


class DegenerateInputError(NotZeroDimensionalError):
    """All candidate pivots are eps-zero (float-field pivot failure)."""


class InconsistentSystemError(NotZeroDimensionalError):
    """1 lies in the ideal; carries a witness polynomial."""

    def __init__(self, witness):
        super().__init__("inconsistent system: 1 lies in the ideal")
        self.witness = witness


class RewritingRule:
    """A monic rule lead -> tail with tail supported in B.

    Represents the polynomial f = lead - tail.
    """

    __slots__ = ("lead", "tail")

    def __init__(self, lead: Monomial, tail: Polynomial):
        self.lead = lead
        self.tail = tail

    def poly(self) -> Polynomial:
        f = self.tail.field
        return Polynomial.monomial(f, self.tail.nvars, self.lead).sub(self.tail)

    @classmethod
    def from_poly(cls, p: Polynomial, lead: Monomial) -> "RewritingRule":
        """The rule lead -> lead - p/c for c = p's coefficient at lead, built
        in one pass: with s = -1/c (-1 when p is monic) the tail holds s*a for
        each other coefficient a of p and, first, the lead's 1 + s*c, which
        only float rounding leaves nonzero.  A coefficient that `axpy`'s zero
        test calls zero is dropped."""
        f = p.field
        c = p.terms[lead]
        s = f.normalize(-f.inv(c))
        tail = {lead: f.normalize(f.one + s * c)}
        for m, a in p.terms.items():
            if m != lead:
                tail[m] = f.normalize(s * a)
        return cls(lead, Polynomial(f, p.nvars, tail))

    def __repr__(self):
        return f"RewritingRule({format_monomial(self.lead)} -> {self.tail!r})"


# ---------------------------------------------------------------------------
# linear echelon over the columns of B+, with border-preferring pivots


def _gamma(cf: ChoiceFunction, p: Polynomial) -> Monomial:
    """cf.gamma(p); a support the eps filter empties is a degenerate input."""
    try:
        return cf.gamma(p)
    except NoChoosableMonomial as exc:
        raise DegenerateInputError(str(exc)) from exc


class _Universe:
    """The columns of one loop, B+, its shift table and the pivot rule; the
    echelons below store the rows.

    The columns ``cols`` are B+ sorted by `mono_key`, so a larger index is a
    larger monomial; ``col`` maps a monomial to its index, ``border`` flags
    the border columns, ``shift[i][k]`` is the column of x_i*cols[k] (None
    outside B+; each x_i*m formed once, as an exponent increment), and
    ``pivot_of`` maps an element's pivot column to its index in insertion
    order.  Under a choice with a sort key (cf.key), ``rank[k]`` orders the
    columns by degree, then border before basis, then the key; otherwise it
    is None.  Rows are ``{column: coefficient}`` dicts.
    """

    def __init__(self, B, cf: ChoiceFunction, field, n: int):
        up = {m: [m[:i] + (m[i] + 1,) + m[i + 1 :] for i in range(n)] for m in B}
        borderset = {w for ws in up.values() for w in ws if w not in up}
        for m in borderset:
            up[m] = [m[:i] + (m[i] + 1,) + m[i + 1 :] for i in range(n)]
        self.cols = sorted(up, key=mono_key)
        self.col = {m: k for k, m in enumerate(self.cols)}
        self.border = [m in borderset for m in self.cols]
        self.shift = [list(s) for s in zip(*([self.col.get(w) for w in up[m]] for m in self.cols))]
        self.size = [mono_size(m) for m in self.cols]
        self.rank = None
        if cf.key is not None:
            order = sorted(range(len(up)), key=lambda k: (self.size[k], self.border[k], cf.key(self.cols[k])))
            self.rank = sorted(range(len(up)), key=order.__getitem__)  # k's place in order
        self.cf = cf
        self.field = field
        self.n = n
        self.pivot_of = {}  # pivot column -> index

    def row(self, terms: dict):
        """A monomial-keyed map as a row, or None when its support leaves B+."""
        keys = [self.col.get(m) for m in terms]
        if None in keys:
            return None
        return dict(zip(keys, terms.values()))

    def poly(self, row: dict) -> Polynomial:
        return Polynomial(self.field, self.n, {self.cols[k]: c for k, c in row.items()})

    def _select_pivot(self, row: dict) -> int:
        """Pivot of a row: a degree-maximal border column when one exists (so
        the element can serve as a rewriting rule), the choice-function pick
        otherwise.  With a rank that is the row's top-ranked column: rows hold
        no zero coefficient, so it is gamma's pick.
        """
        if self.rank is not None:
            return max(row, key=self.rank.__getitem__)
        d = max(self.size[k] for k in row)
        top_border = [k for k in row if self.border[k] and self.size[k] == d]
        if len(top_border) == 1:
            return top_border[0]
        pick = self.poly({k: row[k] for k in top_border or row})
        return self.col[_gamma(self.cf, pick)]


class _Echelon(_Universe):
    """Reduced echelon of monic rows with distinct pivots over B+, one dict
    per row updated by `axpy`.  Serves f64, and the primes and loops the int64
    kernel does not; over qq it is the reference of `_RationalEchelon`.
    Over f64 `insert_batch` pivots partially and re-picks a pending row's
    pivot only when an insertion changes the row (every row under mix).
    """

    def __init__(self, B, cf: ChoiceFunction, field, n: int):
        super().__init__(B, cf, field, n)
        self.rows = []  # the elements, in insertion order

    @property
    def elements(self):
        return self.rows

    def multiples(self, row: dict):
        """The rows x_i*row that stay inside B+ (x_i has coefficient one)."""
        for shift in self.shift:
            keys = [shift[k] for k in row]
            if None not in keys:
                yield dict(zip(keys, row.values()))

    def reduce(self, row: dict) -> dict:
        """Eliminate the pivots from the row in place, the largest column first."""
        f = self.field
        while True:
            hit = max((k for k in row if k in self.pivot_of), default=None)
            if hit is None:
                return row
            axpy(f, row, f.normalize(-row[hit]), self.rows[self.pivot_of[hit]])

    def insert(self, row: dict):
        """Reduce a row and add it; returns the inserted element or None."""
        row = self.reduce(row)
        return self._add(row, self._select_pivot(row)) if row else None

    def _add(self, row: dict, pivot: int) -> dict:
        """Add a reduced nonzero row at the given pivot; returns the element."""
        f = self.field
        row = axpy(f, {}, f.inv(row[pivot]), row)
        idx = len(self.rows)
        # back-reduce on copies: the caller's frontier keeps the rows as inserted
        for k, e in enumerate(self.rows):
            if pivot in e:
                self.rows[k] = axpy(f, dict(e), f.normalize(-e[pivot]), row)
        self.rows.append(row)
        self.pivot_of[pivot] = idx
        return row

    def insert_batch(self, rows):
        """Insert a batch; float fields pick the maximal-magnitude pivot first
        (partial pivoting), exact fields keep the given deterministic order.

        Each pending float row keeps its picked pivot, where it is inserted,
        and that pivot's magnitude.  The pending rows are fully reduced, so
        after an insertion with pivot column q only the rows holding q
        change: those are reduced again and re-picked, the others keep their
        pick.  A randomized choice (mix) re-picks every pending row, and the
        inserted row once more, so its coin is drawn as by `insert`.
        """
        if not isinstance(self.field, FloatField):
            return [q for q in map(self.insert, rows) if q is not None]
        magnitude = self.field.magnitude
        repick_all = self.cf.randomized

        def picked(r):
            pivot = self._select_pivot(r)
            return r, pivot, magnitude(r[pivot])

        inserted = []
        pending = [picked(r) for r in map(self.reduce, rows) if r]
        while pending:
            # pending rows are reduced and nonzero, so each one is inserted
            mags = [m for _, _, m in pending]
            r, q, _ = pending.pop(mags.index(max(mags)))
            if repick_all:
                q = self._select_pivot(r)
            inserted.append(self._add(r, q))
            repicked = []
            for entry in pending:
                r = entry[0]
                if repick_all or q in r:
                    r = self.reduce(r)
                    if not r:
                        continue
                    entry = picked(r)
                repicked.append(entry)
            pending = repicked
        return inserted

    def saturate(self, pool):
        """Insert the pool polynomials supported in B+, then the x_i-multiples
        of the inserted rows until none is new; returns the elements."""
        frontier = self.insert_batch([r for r in map(self.row, pool) if r is not None])
        while frontier:
            frontier = self.insert_batch([q for e in frontier for q in self.multiples(e)])
        return self.elements


def _primitive(row: dict):
    """A row of Fractions as (R, s) with row = s*R: R the integer row over
    the lcm of the denominators, divided by its content."""
    den = math.lcm(*(v.denominator for v in row.values()))
    R, c = _combine(1, {k: v.numerator * (den // v.denominator) for k, v in row.items()}, ())
    return R, Fraction(c, den)


def _combine(a: int, R: dict, pairs):
    """(a*R - the sum of b*E over the pairs (b, E)) / c and its content c:
    a new row without zero entries, R's keys first, then the pairs' new ones."""
    out = {k: a * v for k, v in R.items()} if a != 1 else dict(R)
    for b, E in pairs:
        for k, v in E.items():
            w = out.get(k, 0) - b * v
            if w:
                out[k] = w
            else:
                del out[k]
    c = math.gcd(*out.values())
    if c > 1:
        out = {k: v // c for k, v in out.items()}
    return out, c


class _RationalEchelon(_Echelon):
    """`_Echelon` over qq on sparse primitive integer rows (fraction-free
    elimination, after Bareiss 1968): a row R is ``{column: int}`` divided by
    its content, and the pair (R, s), s a Fraction, stands for the row s*R.

    The elements stay fully back-reduced, so none holds another's pivot
    column, and reducing R removes exactly the pivot columns k it holds, in
    one combination: with E_k the element of pivot k and a the lcm of the
    E_k[k]/gcd(E_k[k], R[k]), R becomes a*R - sum of (a*R[k]/E_k[k])*E_k
    over its content c, and s becomes s*c/a.  Back-reducing an element E at
    the new row's pivot q is the step (R[q]*E - E[q]*R)/g, g = gcd(R[q],
    E[q]), over its content.  The reduced row of a span is unique, so the
    pivots, the elements (``rows``; each stands for E/E[pivot]) and the
    returned monic rows are the dict echelon's, entry for entry.  Only a
    choice without a rank needs s, to see a row's true values.
    """

    @property
    def elements(self):
        return [{k: Fraction(v, E[p]) for k, v in E.items()} for p, E in zip(self.pivot_of, self.rows)]

    def reduce(self, R: dict, s):
        """(R, s) with every pivot column of R eliminated."""
        hits = [(k, self.rows[self.pivot_of[k]]) for k in R if k in self.pivot_of]
        a = math.lcm(*(E[k] // math.gcd(E[k], R[k]) for k, E in hits))
        R, c = _combine(a, R, [(a * R[k] // E[k], E) for k, E in hits])
        return R, s * Fraction(c, a)

    def insert(self, R: dict, s):
        """Reduce (R, s) and add it; returns the inserted (R, 1/R[pivot]),
        which stands for the monic row, or None."""
        R, s = self.reduce(R, s)
        if not R:
            return None
        pivot = self._select_pivot(R if self.rank is not None else {k: s * v for k, v in R.items()})
        d = R[pivot]
        for j, E in enumerate(self.rows):
            c = E.get(pivot)
            if c is not None:
                g = math.gcd(d, c)
                self.rows[j] = _combine(d // g, E, [(c // g, R)])[0]
        self.pivot_of[pivot] = len(self.rows)
        self.rows.append(R)
        return R, Fraction(1, d)

    def _insert_all(self, pairs):
        return [q for q in (self.insert(R, s) for R, s in pairs) if q is not None]

    def insert_batch(self, rows):
        """Insert Fraction rows in order; returns the monic rows inserted."""
        return [{k: s * v for k, v in R.items()} for R, s in self._insert_all(map(_primitive, rows))]

    def saturate(self, pool):
        frontier = self._insert_all([_primitive(r) for r in map(self.row, pool) if r is not None])
        while frontier:
            frontier = self._insert_all([(q, s) for R, s in frontier for q in self.multiples(R)])
        return self.elements


# A loop runs the int64 kernel when (n+1)|B|, a bound on |B+|, reaches this:
# below it numpy's per-call cost outweighs the work on rows of a few entries
# (the crossover measured on the seeded random regular systems over fp:65537).
_KERNEL_MIN_SIZE = 90

# entries of one dense block of rows or x_i-multiples: bounds the memory of a
# saturation step
_BLOCK = 1 << 15


def _residue_product(a, b, in_float: bool):
    """a @ b for int64 arrays of residues, exactly.  With ``in_float`` (the
    field's sums of a.shape[1] products are exact in float64,
    `float64_sums_fit`) it is one float64 BLAS product, whose entries are
    the integers themselves, cast back to int64; otherwise numpy's int64
    product, which does not use BLAS."""
    if in_float:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a @ b


class _ModpEchelon(_Universe):
    """The echelon over Z/p as int64 residues: one dense row per element over
    the columns of B+.  Used when the field's sums of |B+| products fit int64
    (`int64_sums_fit`); its pivots, elements and returned rows are the dict
    echelon's, entry for entry.

    A batch is first reduced against the elements in one product,
    R - R[:, pivots] @ E mod p, which is exact because the elements are fully
    back-reduced, so the reduced row of a span is unique.  The product runs
    over the pivots some row of the batch holds, and where the field's sums
    of |B+| products are exact in float64 (`float64_sums_fit`) it is a
    float64 BLAS product of the residues (`_residue_product`); the elements,
    the rank-1 updates and the multiples stay int64.  The surviving rows
    then take their pivots in order, as the dict echelon inserts them; each
    is made monic and cleared from the elements by one rank-1 update mod p.
    A row takes the top of the universe's rank among its nonzero columns,
    as `_select_pivot` picks; without a rank it calls `_select_pivot` on the
    row as a dict, so mix draws its coin as often and in the same order.
    The x_i-multiples of a frontier come from the shift table in one step
    per variable.
    """

    def __init__(self, B, cf: ChoiceFunction, field, n: int):
        super().__init__(B, cf, field, n)
        self.p = field.p
        size = len(self.cols)
        # x_i*cols[src] = cols[dst]; x_i times a row nonzero on a column in
        # outside leaves B+
        self._shifts = []
        for shift in self.shift:
            to = np.array([-1 if k is None else k for k in shift])
            inside = to >= 0
            self._shifts.append((np.flatnonzero(inside), to[inside], np.flatnonzero(~inside)))
        self._E = np.zeros((size, size), np.int64)  # rows [0, len(pivot_of)) are the elements
        self._P = np.zeros(size, np.intp)  # their pivot columns
        self._in_float = float64_sums_fit(field, size)

    @property
    def elements(self):
        return self._dicts(self._E[: len(self.pivot_of)])

    def _dense(self, rows):
        out = np.zeros((len(rows), len(self.cols)), np.int64)
        at = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        out[at, [k for r in rows for k in r]] = [c for r in rows for c in r.values()]
        return out

    @staticmethod
    def _dicts(rows):
        """Dense rows as {column: coefficient} dicts of ints."""
        r, c = np.nonzero(rows)
        vals = rows[r, c].tolist()
        cols = c.tolist()
        bounds = np.searchsorted(r, np.arange(len(rows) + 1)).tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(bounds, bounds[1:])]

    def _multiples(self, rows):
        """The rows x_i*rows[t] that stay inside B+, by t then i."""
        out = np.zeros((len(rows), self.n, len(self.cols)), np.int64)
        inside = np.empty((len(rows), self.n), bool)
        for i, (src, dst, outside) in enumerate(self._shifts):
            out[:, i, dst] = rows[:, src]
            inside[:, i] = ~rows[:, outside].any(axis=1)
        return out.reshape(-1, len(self.cols))[inside.ravel()]

    def _reduce(self, rows):
        """The rows reduced by the elements, in place, without the zero rows:
        R - R[:, P[used]] @ E[used] mod p over the elements whose pivot column
        some row holds, as one `_residue_product`."""
        e = len(self.pivot_of)
        if e:
            held = rows[:, self._P[:e]]
            used = held.any(axis=0).nonzero()[0]
            if len(used):
                rows -= _residue_product(held[:, used], self._E[used], self._in_float)
                rows %= self.p
        nonzero = rows.any(axis=1)
        return rows if nonzero.all() else rows[nonzero]

    def _eliminate(self, rows):
        """Insert rows reduced by the elements, in order and in place; returns
        the inserted ones as inserted.

        A row is first reduced by the elements this batch has added, then
        made monic, and its pivot column is cleared from the elements by one
        rank-1 update.
        """
        p = self.p
        E, P = self._E, self._P
        e0 = len(self.pivot_of)
        inserted = []
        for t, row in enumerate(rows):
            e = len(self.pivot_of)
            if e > e0:
                row -= row[P[e0:e]] @ E[e0:e]
                row %= p
            nonzero = row.nonzero()[0].tolist()
            if not nonzero:
                continue
            if self.rank is not None:
                pivot = max(nonzero, key=self.rank.__getitem__)
            else:
                pivot = self._select_pivot(dict(zip(nonzero, row[nonzero].tolist())))
            row *= pow(int(row[pivot]), -1, p)
            row %= p
            c = E[:e, pivot]
            hit = c.nonzero()[0]
            if len(hit):
                update = E[hit]
                update -= c[hit, None] * row
                update %= p
                E[hit] = update
            E[e] = row
            P[e] = pivot
            self.pivot_of[pivot] = e
            inserted.append(t)
        return rows[inserted]

    def _insert(self, blocks):
        """Insert dense blocks of rows in order; returns the inserted rows as
        inserted.  A block is reduced by every element inserted before it,
        so inserting a batch block by block inserts the same rows."""
        inserted = [self._eliminate(self._reduce(b)) for b in blocks]
        return np.concatenate(inserted) if inserted else np.zeros((0, len(self.cols)), np.int64)

    def insert_batch(self, rows):
        """Insert a batch of dict rows in order; returns those inserted, as inserted."""
        return self._dicts(self._insert([self._dense(rows)]))

    def saturate(self, pool):
        """`_Echelon.saturate`, in blocks of at most _BLOCK entries; frees the
        dense rows once the elements are dicts."""
        rows = [r for r in map(self.row, pool) if r is not None]
        step = max(1, _BLOCK // len(self.cols))
        frontier = self._insert(self._dense(rows[a : a + step]) for a in range(0, len(rows), step))
        step = max(1, _BLOCK // (self.n * len(self.cols)))
        while len(frontier):
            frontier = self._insert(self._multiples(frontier[a : a + step]) for a in range(0, len(frontier), step))
        elements = self.elements
        self._E = self._P = None
        return elements


# ---------------------------------------------------------------------------
# the fixed-point computation


class BorderBasis:
    """A verified border basis: quotient basis B, rules covering its border,
    and ``ms``, the multiplication system they define (built once here; the
    certificate, the projection and the syzygies all read it).

    Raises NotABorderBasisError when some x_i*b has neither a place in B nor
    a rule, when its rule's tail leaves B, or when a rule's lead is not on the
    border.
    """

    def __init__(self, B, rules: dict, loops: int, field, nvars: int):
        self.basis = sorted(B, key=mono_key)
        self.basis_set = set(B)
        self.rules = rules
        self.loops = loops
        self.field = field
        self.nvars = nvars
        self.ms = build_mult_system(self)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json_dict(self, varnames=None):
        if varnames is None:
            varnames = [f"x{i}" for i in range(self.nvars)]
        fld = self.field
        return {
            "vars": list(varnames),
            "field": fld.name,
            "basis": [format_monomial(m, varnames) for m in self.basis],
            "rules": [
                {
                    "lead": format_monomial(m, varnames),
                    "tail": {
                        format_monomial(t, varnames): fld.to_str(c)
                        for t, c in sorted(
                            self.rules[m].tail.terms.items(), key=lambda kv: mono_key(kv[0])
                        )
                    },
                }
                for m in sorted(self.rules, key=mono_key)
            ],
            "loops": self.loops,
        }


def compute_border_basis(F, cf: ChoiceFunction) -> BorderBasis:
    """Fixed-point border basis computation.

    Raises InconsistentSystemError when 1 lies in the ideal and
    NotZeroDimensionalError when the loop guard is exceeded.
    """
    gens = [p for p in F if not p.is_zero()]
    if not gens:
        raise NotZeroDimensionalError("the zero ideal is not zero-dimensional")
    field = gens[0].field
    n = gens[0].nvars
    cf = cf.clone()
    one = mono_one(n)
    for p in gens:
        if p.degree() == 0:
            raise InconsistentSystemError(p)

    loop_limit = sum(max(p.degree(), 1) for p in gens) + n + 10

    # the pool: each monomial-keyed coefficient map once, in first-seen order
    pool = {}
    support = set()
    for p in gens:
        pool.setdefault(frozenset(p.terms.items()), p.terms)
        support |= p.support()
    B = divisor_closure(support) | {one}
    blacklist = set()

    for loops in range(1, loop_limit + 1):
        # |B+| <= (n+1)|B| bounds the pivots an int64 sum adds up
        size = (n + 1) * len(B)
        if isinstance(field, RationalField):
            kernel = _RationalEchelon
        elif size >= _KERNEL_MIN_SIZE and int64_sums_fit(field, size):
            kernel = _ModpEchelon
        else:
            kernel = _Echelon
        ech = kernel(B, cf, field, n)
        rows = ech.saturate(pool.values())
        elements = [{ech.cols[k]: c for k, c in e.items()} for e in rows]
        for e in elements:
            pool.setdefault(frozenset(e.items()), e)

        # shrink move: any element pivoting on a basis monomial is a
        # dependency witness against that monomial
        shrink = {ech.cols[k]: elements[idx] for k, idx in ech.pivot_of.items() if not ech.border[k]}
        if not shrink:
            # after full back-reduction a second border monomial in an element
            # is no pivot, so it stays uncovered and the grow move takes it
            single = {
                k: rows[idx] for k, idx in ech.pivot_of.items() if sum(ech.border[c] for c in rows[idx]) == 1
            }
            uncovered = [m for k, m in enumerate(ech.cols) if ech.border[k] and k not in single]
            if uncovered:
                growable = [m for m in uncovered if m not in blacklist]
                if not growable:
                    # every candidate was removed before; re-admit the smallest
                    # one (the loop guard bounds any shrink/grow oscillation)
                    growable = uncovered[:1]
                    blacklist.discard(growable[0])
                dmin = mono_size(growable[0])
                B = B | {m for m in growable if mono_size(m) == dmin}
                continue

            # certificate, on rules built only now (a grow move drops them): a
            # nonzero commutator column is an ideal element in <B>
            rules = {ech.cols[k]: RewritingRule.from_poly(ech.poly(e), ech.cols[k]) for k, e in single.items()}
            result = BorderBasis(B, rules, loops, field, n)
            ms = result.ms
            constraints = [ms.poly_of(col) for _, _, _, col in commutators(ms)]
            if not constraints:
                constraints = [r for r in (normal_form(p, ms, result) for p in gens) if not r.is_zero()]
            if not constraints:
                return result
            # each constraint shrinks B at its choice-function pick
            for r in constraints:
                pool.setdefault(frozenset(r.terms.items()), r.terms)
                shrink.setdefault(_gamma(cf, r), r.terms)

        # both shrink moves: each witness removes its monomial from B
        if one in shrink:
            raise InconsistentSystemError(Polynomial(field, n, shrink[one]))
        blacklist |= shrink.keys()
        B = connected_component_of_one(B - shrink.keys())

    raise NotZeroDimensionalError(
        f"loop guard ({loop_limit}) exceeded; the ideal is possibly not zero-dimensional"
    )
