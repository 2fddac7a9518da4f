"""One benchmark workload in one fresh, single-threaded interpreter.

``run.py`` starts this script; it is not meant to be called by hand:

    python3 perfbench/bench.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

It imports the library from this checkout's ``src``, builds the workload's
inputs (set-up), runs whole rounds of checked operations until ``--seconds``
have passed, and prints one JSON line with the samples.  An operation is one
system (one input from text to checked answers: Katsura 5 under one choice
function, Katsura 4 over both fields, or one random system) or one
normal-form query (one ideal member against every basis of the system just
built); its sample is the summed wall time of the library calls it makes,
so the benchmark's own checking is not counted.  Any exception and any
output that fails the correctness gate count as a failed operation.  A
reference loop timed every quarter second from a timer signal
(``HostSpeed``) gives each operation's host speed, and its samples are
reported scaled to a reference host; the loop's own time is left out.

With ``--trace 1`` even rounds run traced (every library call recorded as a
span, with counts read off its result, and the cost of that recording
counted in the operation's sample) and odd rounds untraced, to measure the
tracing overhead.  Spans are written to ``perfbench/traces/`` when the run
ends.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import borderbasis  # noqa: E402
from borderbasis import (  # noqa: E402
    build_mult_system,
    check_commutation,
    compute_border_basis,
    eigen_roots,
    generate_syzygies,
    normal_form,
    parse_choice,
    parse_system,
    reduce_syzygy,
)

import inputs  # noqa: E402

if Path(borderbasis.__file__).resolve().parent != ROOT / "src" / "borderbasis":
    raise ImportError(f"borderbasis imported from {borderbasis.__file__}, not from this checkout")

DIGESTS = HERE / "digests.json"
MNACR_LIMIT = 1e-8

# Host speed.  The 2-vCPU machine this benchmark was tuned on switches
# between speeds about 1.7x apart within seconds, and its average speed moves
# by as much over minutes, for every process alike, so raw wall times of runs
# made minutes apart do not compare.  A fixed pure-Python reference loop,
# timed every REF_EVERY_S from a timer signal, measures that speed while each
# operation runs, and every timing is reported scaled to a host on which the
# loop takes REF_S.
REF_S = 2.5e-3
REF_EVERY_S = 0.25
REF_NEAREST = 4  # an operation with fewer samples inside uses this many nearest ones
SETUP_REF_SAMPLES = 10


def reference_loop():
    """Fixed work of the kind the library does: tuple keys, dict updates, ints mod p."""
    acc = {}
    for i in range(5000):
        key = (i % 97, i % 89, i % 83)
        acc[key] = (acc.get(key, 0) + i * 7919) % 1000003
    return acc


class HostSpeed:
    """Reference-loop samples spread evenly in time, also inside library calls.

    ``paused`` counts the seconds the samples took, so timings can leave
    them out; ``scale(start, end)`` turns seconds spent in [start, end] into
    seconds on the REF_S host.
    """

    def __init__(self):
        self.times = []  # perf_counter at each sample, increasing
        self.refs = []  # the reference loop's seconds at that sample
        self.paused = 0.0
        self._busy = False

    def sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        # A collection started by the loop's allocations would walk the
        # library's heap inside the sample; leave collections to the library.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.refs.append(t1 - t0)
        self.paused += time.perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start, end):
        """Factor from seconds spent in [start, end] to seconds on the REF_S host.

        REF_S over the median of the samples taken inside, or of the
        REF_NEAREST nearest ones when fewer fell inside: a median, so that one
        sample that met a momentary stall does not rescale a whole operation.
        """
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo < REF_NEAREST:
            mid = (start + end) / 2
            i = bisect.bisect_left(self.times, mid)
            near = range(max(i - REF_NEAREST, 0), min(i + REF_NEAREST, len(self.times)))
            picked = sorted(near, key=lambda j: abs(self.times[j] - mid))[:REF_NEAREST]
            lo, hi = min(picked), max(picked) + 1
        return REF_S / statistics.median(self.refs[lo:hi])


class GateError(Exception):
    """A result failed the benchmark's correctness gate."""


def check(ok, what):
    if not ok:
        raise GateError(what)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def basis_digest(bb, names, exact: bool) -> str:
    """B and its rules on exact fields; B alone on f64, whose coefficients may move."""
    report = bb.to_json_dict(names)
    return _sha(report if exact else report["basis"])


# ---------------------------------------------------------------------------
# spans and counts


def _nonzero_entries(ms):
    return sum(not ms.field.is_zero(c) for mat in ms.matrices for col in mat for c in col)


# Counts read off each call's arguments and result after its span has ended,
# keyed by the per-layer metric they feed.
COUNTS = {
    "poly.parse_system": lambda out, args: {"poly.input_terms": sum(len(p.terms) for p in out[2])},
    "border.compute_border_basis": lambda bb, args: {
        "border.calls": 1,
        "border.loops": bb.loops,
        "border.basis_dim": bb.dimension,
        "border.rules": len(bb.rules),
        "border.rule_terms": sum(len(r.tail.terms) for r in bb.rules.values()),
    },
    "quotient.build_mult_system": lambda ms, args: {"quotient.matrix_nnz": _nonzero_entries(ms)},
    "quotient.check_commutation": lambda out, args: {
        "quotient.commutation_columns": args[0].dimension * args[0].nvars * (args[0].nvars - 1) // 2
    },
    "quotient.normal_form": lambda nf, args: {"quotient.nf_calls": 1, "quotient.nf_input_terms": len(args[0].terms)},
    "syzygy.generate_syzygies": lambda rels, args: {
        "syzygy.relations": len(rels),
        **{f"syzygy.{kind}": sum(r.kind == kind for r in rels) for kind in ("next_door", "non_stair", "across_street")},
    },
    "syzygy.reduce_syzygy": lambda out, args: {"syzygy.reduce_calls": 1},
    "solve.eigen_roots": lambda rs, args: {
        "solve.roots": len(rs),
        "solve.mnacr_max": rs.mnacr,
        "solve.condition_max": rs.condition,
    },
}
COUNT_METRICS = (
    "poly.input_terms",
    "border.calls", "border.loops", "border.basis_dim", "border.rules", "border.rule_terms",
    "quotient.matrix_nnz", "quotient.commutation_columns", "quotient.nf_calls", "quotient.nf_input_terms",
    "syzygy.relations", "syzygy.next_door", "syzygy.non_stair", "syzygy.across_street", "syzygy.reduce_calls",
    "solve.roots", "solve.mnacr_max", "solve.condition_max",
)
MAXIMA = {"solve.mnacr_max", "solve.condition_max"}  # the other counts are summed


class Tracer:
    """Times every library call; when enabled, also keeps it as a span.

    A span has a name (``<module>.<function>``), start, end, parent span and
    the trace id of its operation (one system or one query).  Spans stay in
    memory until ``write``.
    """

    def __init__(self, enabled: bool, host: HostSpeed):
        self.enabled = enabled
        self.host = host
        self.spans = []
        self._parent = None
        self._trace = None
        self._round = None

    def call(self, name, fn, *args, **kwargs):
        """(fn(*args, **kwargs), seconds it took including its span).

        The host-speed samples taken meanwhile are left out of the seconds,
        and recorded as the span's ``paused``.
        """
        p0 = self.host.paused
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if self.enabled:
            self._record(name, t0, t1, COUNTS[name](out, args), self.host.paused - p0)
            t1 = time.perf_counter()
        return out, t1 - t0 - (self.host.paused - p0)

    def _record(self, name, start, end, counts, paused=0.0):
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "paused": paused,
            "parent": self._parent,
            "trace": self._trace,
            "round": self._round,
            "counts": counts,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def operation(self, kind, trace_id, round_index):
        """Root span of one operation; library calls inside become its children."""
        if not self.enabled:
            yield {}
            return
        self._trace, self._round = trace_id, round_index
        root = self._record(f"bench.{kind}", time.perf_counter(), None, {})
        self._parent = root["id"]
        try:
            yield root["counts"]
        finally:
            root["end"] = time.perf_counter()
            self._parent = self._trace = self._round = None

    def write(self, path: Path):
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up in ``__init__``; ``round(k)`` runs round k of checked operations."""

    def __init__(self, tracer: Tracer, seed: int):
        self.tracer = tracer
        self.seed = seed
        self.timed = []  # (kind, trace id, traced?, seconds, start, end) per operation
        self.attempted = 0
        self.failed = 0
        self.digests = json.loads(DIGESTS.read_text())
        self._ops = 0

    def rng(self, k):
        return random.Random(f"{type(self).__name__}/{self.seed}/{k}")

    def op(self, kind, round_index, fn):
        """Run one operation; fn returns its timed seconds."""
        self.attempted += 1
        self._ops += 1
        trace_id = f"{kind}-{self._ops}"
        traced = self.tracer.enabled
        start = time.perf_counter()
        with self.tracer.operation(kind, trace_id, round_index) as notes:
            try:
                seconds = fn(notes)
            except Exception as exc:  # any exception is a failed operation
                self.failed += 1
                print(f"failed {trace_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
                return
        self.timed.append((kind, trace_id, traced, seconds, start, time.perf_counter()))

    def scaled_samples(self):
        """({traced?: {kind: seconds on the REF_S host}}, {trace id: scale})."""
        samples = {flag: {"system": [], "query": []} for flag in (False, True)}
        scales = {}
        for kind, trace_id, traced, seconds, start, end in self.timed:
            scales[trace_id] = self.tracer.host.scale(start, end)
            samples[traced][kind].append(scales[trace_id] * seconds)
        return samples, scales

    def chain(self, system):
        """Input text -> parse -> basis -> matrices -> commutation, checked."""
        t = self.tracer
        cf = parse_choice(system.choice)
        (names, _, polys), s0 = t.call("poly.parse_system", parse_system, system.text)
        bb, s1 = t.call("border.compute_border_basis", compute_border_basis, polys, cf)
        ms, s2 = t.call("quotient.build_mult_system", build_mult_system, bb)
        (ok, _), s3 = t.call("quotient.check_commutation", check_commutation, ms)
        check(ok, "multiplication matrices do not commute")
        self.check_digest(system.key, basis_digest(bb, names, system.exact))
        return polys, bb, ms, s0 + s1 + s2 + s3

    def check_digest(self, key, digest):
        check(key in self.digests, f"no stored digest for {key}")
        check(digest == self.digests[key], f"digest mismatch for {key}")

    def query(self, queries, notes):
        """Normal form of an ideal member against each (member, ms, bb): must be 0."""
        seconds = 0.0
        zero = []
        for q, ms, bb in queries:
            nf, s = self.tracer.call("quotient.normal_form", normal_form, q, ms, bb)
            seconds += s
            zero.append(nf.is_zero())
        notes["member_zero"] = all(zero)
        check(all(zero), "ideal member has a nonzero normal form")
        return seconds

    def parse_pool(self, names, field, polys):
        """Parse query polynomials during set-up (not an operation)."""
        with self.tracer.operation("setup", "setup", None):
            (_, _, out), _ = self.tracer.call(
                "poly.parse_system", parse_system, inputs.system_text(names, field, polys)
            )
        return out


class KatsuraFp(Workload):
    """A round builds Katsura 5 under each choice function, one system each.

    Each basis is asked every pool member, in a seeded order, right after it
    is built, so the mix of queries does not depend on the seed.  Runs stop
    only after whole rounds: a run that stopped after two choices of a round
    would hold more of the cheaper ones, and its medians would move.
    """

    def __init__(self, tracer, seed):
        super().__init__(tracer, seed)
        cfg = inputs.KATSURA_FP
        self.n = cfg["n"]
        self.systems = inputs.systems("katsura-fp")
        self.members = self.parse_pool(
            inputs.katsura_names(self.n),
            cfg["field"],
            inputs.katsura_members(self.n, cfg["member_degree"], "katsura-fp/members"),
        )
        self.order = inputs.pool_order(self.rng("setup"), len(self.members))

    def round(self, k):
        for system in self.systems:
            built = []
            self.op("system", k, lambda notes: self.system(system, built))
            for j in self.order if built else ():
                q = self.members[j]
                self.op("query", k, lambda notes: self.query([(q, *built)], notes))

    def system(self, system, built):
        _, bb, ms, s = self.chain(system)
        check(bb.dimension == 2**self.n, f"dimension {bb.dimension} != 2^{self.n}")
        _, s_syz = self.tracer.call("syzygy.generate_syzygies", generate_syzygies, bb)
        built.extend((ms, bb))
        return s + s_syz


class KatsuraExactSolve(Workload):
    """A round solves Katsura 4 over qq and f64, one system, then queries both bases.

    The two fields stay one operation: their times differ by about 2x, and
    the median of an even two-cluster mix would fall in the gap.
    """

    QUERIES = 4

    def __init__(self, tracer, seed):
        super().__init__(tracer, seed)
        cfg = inputs.KATSURA_EXACT
        self.n = cfg["n"]
        names = inputs.katsura_names(self.n)
        members = inputs.katsura_members(self.n, cfg["member_degree"], "katsura-exact-solve/members")
        self.systems = inputs.systems("katsura-exact-solve")
        self.members = {s.key: self.parse_pool(names, s.field, members) for s in self.systems}
        self.order = inputs.pool_order(self.rng("setup"), len(members))

    def round(self, k):
        eigen_seed = self.rng(k).randrange(2**32)
        bases = {}
        self.op("system", k, lambda notes: self.system(eigen_seed, bases))
        for i in range(self.QUERIES if bases else 0):
            j = self.order[(k * self.QUERIES + i) % len(self.order)]
            queries = [(self.members[key][j], ms, bb) for key, (ms, bb) in bases.items()]
            self.op("query", k, lambda notes: self.query(queries, notes))

    def system(self, eigen_seed, bases):
        seconds = 0.0
        for system in self.systems:
            polys, bb, ms, s = self.chain(system)
            check(bb.dimension == 2**self.n, f"dimension {bb.dimension} != 2^{self.n}")
            roots, s_eig = self.tracer.call("solve.eigen_roots", eigen_roots, ms, seed=eigen_seed, polys=polys)
            check(len(roots) == bb.dimension, f"{len(roots)} roots for dimension {bb.dimension}")
            check(roots.mnacr <= MNACR_LIMIT, f"mnacr {roots.mnacr} above {MNACR_LIMIT}")
            seconds += s + s_eig
            bases[system.key] = (ms, bb)
        return seconds


def syzygy_combination(rels, rng, field, n):
    """A seeded combination sum c_j x^a_j r_j of three generated relations."""
    coeffs = {}
    for rel in rng.sample(rels, min(3, len(rels))):
        k = rng.randrange(n + 1)
        mono = tuple(int(i == k) for i in range(n))
        c = field.from_int(rng.randint(1, 100))
        for w, h in rel.coeffs.items():
            term = h.mul_monomial(mono, c)
            coeffs[w] = coeffs[w].add(term) if w in coeffs else term
    return {w: h for w, h in coeffs.items() if not h.is_zero()}


class RandomBatch(Workload):
    def __init__(self, tracer, seed):
        super().__init__(tracer, seed)
        self.systems = {s.key: s for s in inputs.systems("random-batch")}
        members = {}
        for n, degs in inputs.RANDOM_SHAPES:
            for v in range(inputs.RANDOM_VARIANTS):
                members[n, degs, v] = inputs.random_member(n, degs, v)
        self.members = {}
        for n in sorted({n for n, _ in inputs.RANDOM_SHAPES}):
            keys = [key for key in members if key[0] == n]
            parsed = self.parse_pool(inputs.random_names(n), inputs.RANDOM_FIELD, [members[key] for key in keys])
            self.members.update(zip(keys, parsed))
        self.offsets = inputs.variant_offsets(self.rng("setup"))

    def round(self, k):
        rng = self.rng(k)
        for n, degs, v in inputs.random_round(rng, k, self.offsets):
            built = []
            system = self.systems[inputs.random_key(n, degs, v)]
            self.op("system", k, lambda notes: self.system(system, degs, rng, built))
            if built:
                q = self.members[n, degs, v]
                self.op("query", k, lambda notes: self.query([(q, *built)], notes))

    def system(self, system, degs, rng, built):
        _, bb, ms, s = self.chain(system)
        check(bb.dimension == math.prod(degs), f"dimension {bb.dimension} != {math.prod(degs)}")
        rels, s_syz = self.tracer.call("syzygy.generate_syzygies", generate_syzygies, bb)
        combo = syzygy_combination(rels, rng, bb.field, len(degs))
        residual, s_red = self.tracer.call("syzygy.reduce_syzygy", reduce_syzygy, combo, bb)
        check(residual == {}, "reduce_syzygy left a residual")
        built.extend((ms, bb))
        return s + s_syz + s_red


WORKLOADS = {
    "katsura-fp": KatsuraFp,
    "katsura-exact-solve": KatsuraExactSolve,
    "random-batch": RandomBatch,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


# metric -> span name whose per-operation seconds it reports
LAYER_TIMES = {
    "poly.parse_s": "poly.parse_system",
    "border.basis_s": "border.compute_border_basis",
    "quotient.matrices_s": "quotient.build_mult_system",
    "quotient.commutation_s": "quotient.check_commutation",
    "quotient.normal_form_s": "quotient.normal_form",
    "syzygy.generate_s": "syzygy.generate_syzygies",
    "syzygy.reduce_s": "syzygy.reduce_syzygy",
    "solve.eigen_s": "solve.eigen_roots",
}


def layer_metrics(spans, scales):
    """Per-layer figures from the spans of operations (set-up parsing excluded).

    A time is the seconds a function's spans take per operation that calls
    it, averaged over the traced operations and scaled by each operation's
    host speed; counts are totals over round 0, so they repeat exactly for a
    given seed.
    """
    ops = [s for s in spans if s["trace"] is not None and s["trace"] != "setup" and s["parent"] is not None]
    out = {}
    for metric, name in LAYER_TIMES.items():
        mine = [s for s in ops if s["name"] == name]
        traces = {s["trace"] for s in mine}
        busy = sum(scales[s["trace"]] * (s["end"] - s["start"] - s["paused"]) for s in mine)
        out[metric] = busy / len(traces) if traces else 0.0
    out.update(dict.fromkeys(COUNT_METRICS, 0))
    for s in ops:
        if s["round"] == 0:
            for metric, v in s["counts"].items():
                out[metric] = max(out[metric], v) if metric in MAXIMA else out[metric] + v
    roots = [s for s in spans if s["name"] == "bench.query" and s["round"] == 0]
    out["quotient.nf_zero_ratio"] = (
        sum(s["counts"].get("member_zero", False) for s in roots) / len(roots) if roots else 0.0
    )
    return out


# ---------------------------------------------------------------------------


def run_rounds(workload, seconds, alternate_tracing):
    """Whole rounds until `seconds` have passed.

    With alternate_tracing, even rounds run traced and odd rounds untraced,
    and there are at least two rounds, so both kinds are measured.
    """
    tracer = workload.tracer
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        if alternate_tracing:
            tracer.enabled = k % 2 == 0
        workload.round(k)
        if time.perf_counter() >= deadline and (k >= 1 or not alternate_tracing):
            tracer.enabled = False
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    host = HostSpeed()
    tracer = Tracer(enabled=bool(args.trace), host=host)
    wl = WORKLOADS[args.workload](tracer, args.seed)
    setup_end = time.monotonic()
    for _ in range(SETUP_REF_SAMPLES):
        host.sample()
    report = {"setup_end": setup_end, "setup_scale": host.scale(0.0, time.perf_counter())}
    if not args.setup_only:
        host.start()
        run_rounds(wl, args.seconds, alternate_tracing=bool(args.trace))
        host.stop()
        samples, scales = wl.scaled_samples()
        report["samples"], report["traced_samples"] = samples[False], samples[True]
        report["ref_ms"] = 1000 * statistics.median(host.refs[SETUP_REF_SAMPLES:])
        if args.trace:
            report["layers"] = layer_metrics(tracer.spans, scales)
            tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    report["attempted"] = wl.attempted
    report["failed"] = wl.failed
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
