"""Write digests.json: sha256 of every exact result the workloads can meet.

    python3 perfbench/record_digests.py

Run it only when the benchmark's inputs change, on a commit whose answers
are trusted; the benchmark then fails any later run whose results differ.
"""

from __future__ import annotations

import json

from bench import DIGESTS, WORKLOADS, basis_digest
from borderbasis import compute_border_basis, parse_choice, parse_system

import inputs


def main():
    out = {}
    for workload in WORKLOADS:
        for s in inputs.systems(workload):
            names, _, polys = parse_system(s.text)
            bb = compute_border_basis(polys, parse_choice(s.choice))
            out[s.key] = basis_digest(bb, names, s.exact)

    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
