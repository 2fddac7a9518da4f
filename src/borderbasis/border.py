"""Rewriting families, border projection and the fixed-point border basis
computation.

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
    border,
    connected_component_of_one,
    divisor_closure,
    format_monomial,
    mono_div,
    mono_key,
    mono_lcm,
    mono_one,
    mono_size,
    mono_var,
)
from .quotient import build_mult_system, commutators, normal_form


class NotReducibleError(Exception):
    """A support monomial in the border has no rewriting rule."""

    def __init__(self, monomial):
        super().__init__(f"no rewriting rule for border monomial {format_monomial(monomial)}")
        self.monomial = monomial


class DegenerateInputError(Exception):
    """All candidate pivots are eps-zero (float-field pivot failure)."""


class NotZeroDimensionalError(Exception):
    """Loop guard exceeded: the ideal is possibly not zero-dimensional."""


class InconsistentSystemError(Exception):
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


def reduce_by_rules(p: Polynomial, rules: dict, B: set) -> Polynomial:
    """The projection pi_F of p onto <B> through the rules (the tests'
    reference for `normal_form`); p must be supported in B+.

    Raises NotReducibleError when a border monomial has no rule.
    """
    f = p.field
    acc = {}
    for m in sorted(p.terms, key=mono_key):
        c = p.terms[m]
        if m in B:
            acc[m] = f.add(acc.get(m, f.zero), c)
            continue
        rule = rules.get(m)
        if rule is None:
            raise NotReducibleError(m)
        for t, ct in rule.tail.terms.items():
            acc[t] = f.add(acc.get(t, f.zero), f.mul(c, ct))
    return Polynomial(f, p.nvars, acc)


def _rule_c_polynomial(r1: RewritingRule, r2: RewritingRule) -> Polynomial:
    """Cross-multiplied difference of two rules (the tests' reference)."""
    lcm = mono_lcm(r1.lead, r2.lead)
    a = r1.poly().mul_monomial(mono_div(lcm, r1.lead))
    b = r2.poly().mul_monomial(mono_div(lcm, r2.lead))
    return a.sub(b)


def check_reducing_family(rules: dict, B: set, lam: int) -> bool:
    """True iff every border monomial of degree <= lam has a rule."""
    return all(m in rules for m in border(B) if mono_size(m) <= lam)


# ---------------------------------------------------------------------------
# linear echelon with border-preferring pivots


def _gamma(cf: ChoiceFunction, p: Polynomial) -> Monomial:
    """cf.gamma(p); a support the eps filter empties is a degenerate input."""
    try:
        return cf.gamma(p)
    except NoChoosableMonomial as exc:
        raise DegenerateInputError(str(exc)) from exc


def _select_pivot(p: Polynomial, borderset: set, cf: ChoiceFunction) -> Monomial:
    """Pivot of p: a degree-maximal border monomial when one exists (so the
    element can serve as a rewriting rule), the choice-function pick otherwise.
    """
    d = max(mono_size(m) for m in p.terms)
    top_border = [m for m in p.terms if m in borderset and mono_size(m) == d]
    if top_border:
        if len(top_border) == 1:
            return top_border[0]
        restricted = Polynomial(p.field, p.nvars, {m: p.terms[m] for m in top_border})
        return _gamma(cf, restricted)
    return _gamma(cf, p)


class _Echelon:
    """Reduced echelon list of monic polynomials with distinct pivots."""

    def __init__(self, borderset: set, cf: ChoiceFunction):
        self.borderset = borderset
        self.cf = cf
        self.elements = []
        self.pivot_of = {}  # pivot monomial -> index

    def reduce(self, p: Polynomial) -> Polynomial:
        while True:
            hit = max((m for m in p.terms if m in self.pivot_of), key=mono_key, default=None)
            if hit is None:
                return p
            e = self.elements[self.pivot_of[hit]]
            p = p.sub(e.scale(p.terms[hit]))

    def insert(self, p: Polynomial):
        """Reduce p and add it; returns the inserted element or None."""
        p = self.reduce(p)
        if p.is_zero():
            return None
        pivot = _select_pivot(p, self.borderset, self.cf)
        fld = p.field
        p = p.scale(fld.inv(p.terms[pivot]))
        idx = len(self.elements)
        # back-reduce: keep other elements free of the new pivot
        for k, e in enumerate(self.elements):
            if pivot in e.terms:
                self.elements[k] = e.sub(p.scale(e.terms[pivot]))
        self.elements.append(p)
        self.pivot_of[pivot] = idx
        return p

    def insert_batch(self, cands):
        """Insert a batch; float fields pick the maximal-magnitude pivot first
        (partial pivoting), exact fields keep the given deterministic order.
        """
        inserted = []
        if not cands:
            return inserted
        if not isinstance(cands[0].field, FloatField):
            for p in cands:
                q = self.insert(p)
                if q is not None:
                    inserted.append(q)
            return inserted
        pending = [self.reduce(p) for p in cands]
        pending = [p for p in pending if not p.is_zero()]
        while pending:
            best_i, best_mag = -1, -1.0
            for i, p in enumerate(pending):
                pivot = _select_pivot(p, self.borderset, self.cf)
                mag = p.field.magnitude(p.terms[pivot])
                if mag > best_mag:
                    best_i, best_mag = i, mag
            chosen = pending.pop(best_i)
            q = self.insert(chosen)
            if q is not None:
                inserted.append(q)
            pending = [self.reduce(p) for p in pending]
            pending = [p for p in pending if not p.is_zero()]
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

    def rule_polys(self):
        return [self.rules[m].poly() for m in sorted(self.rules, key=mono_key)]

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


def _dedupe(polys):
    seen = set()
    out = []
    for p in polys:
        if p.is_zero():
            continue
        key = p
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


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

    pool = _dedupe(gens)
    support = set()
    for p in gens:
        support |= p.support()
    B = divisor_closure(support) | {one}
    blacklist = set()

    for loops in range(1, loop_limit + 1):
        borderset = border(B)
        Bplus = B | borderset
        ech = _Echelon(borderset, cf)
        active = [p for p in pool if p.support() <= Bplus]
        frontier = ech.insert_batch(active)
        # saturate with single-variable multiples staying inside <B+>
        while frontier:
            mults = []
            for e in frontier:
                for i in range(n):
                    q = e.mul_monomial(mono_var(n, i))
                    if q.support() <= Bplus:
                        mults.append(q)
            frontier = ech.insert_batch(mults)

        pool = _dedupe(pool + ech.elements)

        # shrink move: any element pivoting on a basis monomial is a
        # dependency witness against that monomial
        shrink = {piv for piv in ech.pivot_of if piv in B}
        if shrink:
            if one in shrink:
                raise InconsistentSystemError(ech.elements[ech.pivot_of[one]])
            blacklist |= shrink
            B = connected_component_of_one(B - shrink)
            continue

        rules = {}
        pending = False
        for piv, idx in ech.pivot_of.items():
            e = ech.elements[idx]
            in_border = [m for m in e.terms if m in borderset]
            if len(in_border) == 1:
                rules[piv] = RewritingRule.from_poly(e, piv)
            else:
                pending = True

        uncovered = sorted((m for m in borderset if m not in rules), key=mono_key)
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
        if pending:
            # full reduction plus complete coverage rules this out
            raise NotZeroDimensionalError("internal: pending elements despite full coverage")

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
            pool = _dedupe(pool + new_constraints)
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
