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

from .choice import ChoiceFunction, NoChoosableMonomial
from .fields import FloatField
from .poly import (
    Monomial,
    Polynomial,
    axpy,
    border,
    connected_component_of_one,
    divisor_closure,
    format_monomial,
    mono_key,
    mono_mul,
    mono_one,
    mono_size,
    mono_var,
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
        f = p.field
        c = p.terms[lead]
        monic = p.scale(f.inv(c))
        tail = Polynomial.monomial(f, p.nvars, lead).sub(monic)
        return cls(lead, tail)

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


class _Echelon:
    """Reduced echelon of monic rows with distinct pivots over the universe B+.

    The columns ``cols`` are B+ sorted by `mono_key`, so a larger index is a
    larger monomial; ``col`` maps a monomial to its index, ``border`` flags
    the border columns and ``shift[i][k]`` is the column of x_i*cols[k] (None
    outside B+).  Rows are ``{column: coefficient}`` dicts updated by `axpy`.
    """

    def __init__(self, B, cf: ChoiceFunction, field, n: int):
        borderset = border(B)
        self.cols = sorted(B | borderset, key=mono_key)
        self.col = {m: k for k, m in enumerate(self.cols)}
        self.border = [m in borderset for m in self.cols]
        self.size = [mono_size(m) for m in self.cols]
        self.shift = [[self.col.get(mono_mul(m, mono_var(n, i))) for m in self.cols] for i in range(n)]
        self.cf = cf
        self.field = field
        self.n = n
        self.elements = []
        self.pivot_of = {}  # pivot column -> index

    def row(self, p: Polynomial):
        """p as a row, or None when its support leaves B+."""
        keys = [self.col.get(m) for m in p.terms]
        if None in keys:
            return None
        return dict(zip(keys, p.terms.values()))

    def poly(self, row: dict) -> Polynomial:
        return Polynomial(self.field, self.n, {self.cols[k]: c for k, c in row.items()})

    def multiples(self, row: dict):
        """The rows x_i*row that stay inside B+ (x_i has coefficient one)."""
        for shift in self.shift:
            keys = [shift[k] for k in row]
            if None not in keys:
                yield dict(zip(keys, row.values()))

    def _select_pivot(self, row: dict) -> int:
        """Pivot of a row: a degree-maximal border column when one exists (so
        the element can serve as a rewriting rule), the choice-function pick
        otherwise.
        """
        d = max(self.size[k] for k in row)
        top_border = [k for k in row if self.border[k] and self.size[k] == d]
        if len(top_border) == 1:
            return top_border[0]
        pick = self.poly({k: row[k] for k in top_border or row})
        return self.col[_gamma(self.cf, pick)]

    def reduce(self, row: dict) -> dict:
        """Eliminate the pivots from the row in place, the largest column first."""
        f = self.field
        while True:
            hit = max((k for k in row if k in self.pivot_of), default=None)
            if hit is None:
                return row
            axpy(f, row, f.normalize(-row[hit]), self.elements[self.pivot_of[hit]])

    def insert(self, row: dict):
        """Reduce a row and add it; returns the inserted element or None."""
        f = self.field
        row = self.reduce(row)
        if not row:
            return None
        pivot = self._select_pivot(row)
        row = axpy(f, {}, f.inv(row[pivot]), row)
        idx = len(self.elements)
        # back-reduce on copies: the caller's frontier keeps the rows as inserted
        for k, e in enumerate(self.elements):
            if pivot in e:
                self.elements[k] = axpy(f, dict(e), f.normalize(-e[pivot]), row)
        self.elements.append(row)
        self.pivot_of[pivot] = idx
        return row

    def insert_batch(self, rows):
        """Insert a batch; float fields pick the maximal-magnitude pivot first
        (partial pivoting), exact fields keep the given deterministic order.
        """
        if not isinstance(self.field, FloatField):
            return [q for q in map(self.insert, rows) if q is not None]
        inserted = []
        pending = [r for r in map(self.reduce, rows) if r]
        while pending:
            # pending rows are reduced and nonzero, so each one is inserted
            mags = [self.field.magnitude(r[self._select_pivot(r)]) for r in pending]
            inserted.append(self.insert(pending.pop(mags.index(max(mags)))))
            pending = [r for r in map(self.reduce, pending) if r]
        return inserted


# ---------------------------------------------------------------------------
# the fixed-point computation


class BorderBasis:
    """A verified border basis: quotient basis B, rules covering its border,
    and ``ms``, the multiplication system they define (built once here; the
    certificate, the projection and the syzygies all read it).

    Raises NotABorderBasisError when some x_i*b has neither a place in B nor
    a rule.
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

    pool = list(dict.fromkeys(gens))
    support = set()
    for p in gens:
        support |= p.support()
    B = divisor_closure(support) | {one}
    blacklist = set()

    for loops in range(1, loop_limit + 1):
        ech = _Echelon(B, cf, field, n)
        frontier = ech.insert_batch([r for r in map(ech.row, pool) if r is not None])
        # saturate with single-variable multiples staying inside <B+>
        while frontier:
            frontier = ech.insert_batch([q for e in frontier for q in ech.multiples(e)])

        elements = [ech.poly(e) for e in ech.elements]
        pool = list(dict.fromkeys(pool + elements))

        # shrink move: any element pivoting on a basis monomial is a
        # dependency witness against that monomial
        shrink = {ech.cols[k] for k in ech.pivot_of if not ech.border[k]}
        if shrink:
            if one in shrink:
                raise InconsistentSystemError(elements[ech.pivot_of[ech.col[one]]])
            blacklist |= shrink
            B = connected_component_of_one(B - shrink)
            continue

        # after full back-reduction a second border monomial in an element is
        # no pivot, so it stays uncovered and the grow move takes it
        rules = {}
        for k, idx in ech.pivot_of.items():
            if sum(ech.border[c] for c in ech.elements[idx]) == 1:
                rules[ech.cols[k]] = RewritingRule.from_poly(elements[idx], ech.cols[k])

        uncovered = [m for k, m in enumerate(ech.cols) if ech.border[k] and m not in rules]
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

        # certificate: a nonzero commutator column is an ideal element in <B>
        result = BorderBasis(B, rules, loops, field, n)
        ms = result.ms
        new_constraints = [ms.poly_of(col) for _, _, _, col in commutators(ms)]
        if not new_constraints:
            for p in gens:
                r = normal_form(p, ms, result)
                if not r.is_zero():
                    new_constraints.append(r)
        if new_constraints:
            pool = list(dict.fromkeys(pool + new_constraints))
            shrink = [_gamma(cf, r) for r in new_constraints]
            if one in shrink:
                raise InconsistentSystemError(new_constraints[shrink.index(one)])
            blacklist.update(shrink)
            B = connected_component_of_one(B - set(shrink))
            continue
        return result

    raise NotZeroDimensionalError(
        f"loop guard ({loop_limit}) exceeded; the ideal is possibly not zero-dimensional"
    )
