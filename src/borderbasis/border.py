"""Rewriting families, border projection, C-polynomials and the fixed-point
border basis computation.

The computation maintains a candidate quotient basis B (connected to 1) and a
linear echelon of ideal elements supported in the prolongation of B.  Each
round saturates the echelon with single-variable multiples, then applies one
of three moves: shrink B when a dependency inside <B> appears, grow B when a
border monomial cannot be rewritten, or stop once every border monomial has a
rule and all in-range C-polynomials reduce to zero.
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
    """The projection pi_F of p onto <B>; p must be supported in B+.

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


def c_polynomial(f: Polynomial, g: Polynomial, cf: ChoiceFunction) -> Polynomial:
    """C(f, g) relative to the choice function (cross-multiplied difference)."""
    if f.is_zero() or g.is_zero():
        raise NoChoosableMonomial("C-polynomial of a zero polynomial")
    gf, gg = cf.gamma(f), cf.gamma(g)
    kf, kg = f.terms[gf], g.terms[gg]
    lcm = mono_lcm(gf, gg)
    fld = f.field
    a = f.mul_monomial(mono_div(lcm, gf), fld.inv(kf))
    b = g.mul_monomial(mono_div(lcm, gg), fld.inv(kg))
    return a.sub(b)


def _rule_c_polynomial(r1: RewritingRule, r2: RewritingRule) -> Polynomial:
    lcm = mono_lcm(r1.lead, r2.lead)
    a = r1.poly().mul_monomial(mono_div(lcm, r1.lead))
    b = r2.poly().mul_monomial(mono_div(lcm, r2.lead))
    return a.sub(b)


def check_reducing_family(rules: dict, B: set, lam: int) -> bool:
    """True iff every border monomial of degree <= lam has a rule."""
    return all(m in rules for m in border(B) if mono_size(m) <= lam)


# ---------------------------------------------------------------------------
# linear echelon with border-preferring pivots


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
        return cf.gamma(restricted)
    return cf.gamma(p)


class _Echelon:
    """Fully interreduced list of monic polynomials with distinct pivots."""

    def __init__(self, borderset: set, cf: ChoiceFunction):
        self.borderset = borderset
        self.cf = cf
        self.elements = []
        self.pivot_of = {}  # pivot monomial -> index

    def reduce(self, p: Polynomial) -> Polynomial:
        while True:
            hit = None
            for m in sorted(p.terms, key=mono_key, reverse=True):
                if m in self.pivot_of:
                    hit = m
                    break
            if hit is None:
                return p
            e = self.elements[self.pivot_of[hit]]
            p = p.sub(e.scale(p.terms[hit]))

    def insert(self, p: Polynomial):
        """Reduce p and add it; returns the inserted element or None."""
        p = self.reduce(p)
        if p.is_zero():
            return None
        try:
            pivot = _select_pivot(p, self.borderset, self.cf)
        except NoChoosableMonomial as exc:
            raise DegenerateInputError(str(exc)) from exc
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
                try:
                    pivot = _select_pivot(p, self.borderset, self.cf)
                except NoChoosableMonomial as exc:
                    raise DegenerateInputError(str(exc)) from exc
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


def interreduce(polys, B: set, cf: ChoiceFunction):
    """Linear basis of the span with at most one border monomial per element.

    Returns (rules, witnesses, pending): rules are elements with exactly one
    border monomial (their lead), witnesses have all support in B, pending
    elements still carry several border monomials (they resolve once the
    missing rules exist).
    """
    B = set(B)
    borderset = border(B)
    ech = _Echelon(borderset, cf)
    ech.insert_batch(list(polys))
    rules, witnesses, pending = [], [], []
    for e in ech.elements:
        in_border = [m for m in e.terms if m in borderset]
        if not in_border:
            witnesses.append(e)
        elif len(in_border) == 1:
            rules.append(RewritingRule.from_poly(e, in_border[0]))
        else:
            pending.append(e)
    return rules, witnesses, pending


# ---------------------------------------------------------------------------
# the fixed-point computation


class BorderBasis:
    """A verified border basis: quotient basis B and rules covering its border."""

    def __init__(self, B, rules: dict, loops: int, field, nvars: int):
        self.basis = sorted(B, key=mono_key)
        self.basis_set = set(B)
        self.rules = rules
        self.loops = loops
        self.field = field
        self.nvars = nvars
        self._ext_cache = {m: Polynomial.monomial(field, nvars, m) for m in self.basis}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def reduce(self, p: Polynomial) -> Polynomial:
        """pi_F on <B+>."""
        return reduce_by_rules(p, self.rules, self.basis_set)

    def extended_project_monomial(self, m: Monomial) -> Polynomial:
        """pi^e_F on a single monomial, peeling the leftmost variable."""
        cached = self._ext_cache.get(m)
        if cached is not None:
            return cached
        i = next(k for k, e in enumerate(m) if e > 0)
        sub = self.extended_project_monomial(mono_div(m, mono_var(self.nvars, i)))
        out = self.reduce(sub.mul_monomial(mono_var(self.nvars, i)))
        self._ext_cache[m] = out
        return out

    def extended_project(self, p: Polynomial) -> Polynomial:
        """pi^e_F extended to polynomials by linearity."""
        acc = Polynomial.zero(self.field, self.nvars)
        for m in sorted(p.terms, key=mono_key):
            acc = acc.add(self.extended_project_monomial(m).scale(p.terms[m]))
        return acc

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

        # C-polynomial criterion
        new_constraints = []
        leads = sorted(rules, key=mono_key)
        for a in range(len(leads)):
            for b in range(a + 1, len(leads)):
                c = _rule_c_polynomial(rules[leads[a]], rules[leads[b]])
                if c.is_zero() or not c.support() <= Bplus:
                    continue
                r = reduce_by_rules(c, rules, B)
                if not r.is_zero():
                    new_constraints.append(r)
        result = BorderBasis(B, rules, loops, field, n)
        if not new_constraints:
            for p in gens:
                r = result.extended_project(p)
                if not r.is_zero():
                    new_constraints.append(r)
        if new_constraints:
            pool = _dedupe(pool + new_constraints)
            shrink = set()
            for r in new_constraints:
                shrink.add(cf.gamma(r))
            if one in shrink:
                bad = next(r for r in new_constraints if cf.gamma(r) == one)
                raise InconsistentSystemError(bad)
            blacklist |= shrink
            B = connected_component_of_one(B - shrink)
            continue
        return result

    raise NotZeroDimensionalError(
        f"loop guard ({loop_limit}) exceeded; the ideal is possibly not zero-dimensional"
    )
