"""Pin the expected lim^i of every benchmark case.

Usage (from the repository root):

    python3 bench/pin_answers.py            # compute, check, write expected.json
    python3 bench/pin_answers.py --check    # only check expected.json

Each case's answer is taken from the program's own output, then checked
against the values known independently of the pipeline: lim^n(r^n) is
free of rank (|G|-1)^n, rr+fff gives Tor(G_ab, G_ab) and G_ab (x) G_ab,
lim^1(rr+frf) = H_3(G), and ff, fff, frf, rfr give 0.  A table that
contradicts one of them is not written.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from frlimits.frcode import parse  # noqa: E402
from frlimits.intlin import FinPresAb, tensor_Z, tor_Z  # noqa: E402
from frlimits.limits import higher_limits  # noqa: E402

from run import EXPECTED, WORKLOADS, case_key, load_expected  # noqa: E402
from worker import load_groups  # noqa: E402

# H_3(G; Z) of the bundled groups, as invariant factors (standard values:
# H_3(Z/n) = Z/n, H_3(Z/2 x Z/2) = (Z/2)^3, H_3(S_3) = Z/6).
H3 = {
    "z2": (2,), "z2_rank2": (2,), "z3": (3,), "z4": (4,),
    "z2xz2": (2, 2, 2), "s3": (6,),
}
ZERO_CODES = {"ff", "fff", "frf", "rfr"}


def _d(torsion=(), rank=0):
    return FinPresAb.from_invariants(tuple(torsion), rank).describe()


def known_violations(table, groups):
    """Entries of the table that contradict an independently known value."""
    bad = []
    for key, lims in table.items():
        name, code = key.split(":")
        g = groups[name]
        n1 = g.order - 1
        known = {0: "0"}
        if code in ZERO_CODES:
            known.update({i: "0" for i in range(len(lims))})
        elif code in ("r", "rr", "rrr"):
            known[len(code)] = _d(rank=n1 ** len(code))
        elif code == "rr+fff":
            ab = FinPresAb.from_invariants(tuple(g.abelianization()), 0)
            known[1] = tor_Z(ab, ab).describe()
            known[2] = tensor_Z(ab, ab).describe()
        elif code == "rr+frf":
            known[1] = _d(H3[name])
        for degree, value in known.items():
            if degree >= len(lims) or lims[degree] != value:
                bad.append(f"{key}: lim^{degree} should be {value}, table has {lims}")
    return bad


def all_cases():
    return sorted({(g, c) for spec in WORKLOADS.values() for g, c in spec["cases"]})


def main(argv):
    cases = all_cases()
    groups = load_groups(sorted({g for g, _ in cases}))
    if "--check" in argv:
        table = load_expected()
    else:
        table = {}
        for g, c in cases:
            report = higher_limits(parse(c), groups[g])
            table[case_key(g, c)] = [x.describe() for x in report.lims]
            print(case_key(g, c), table[case_key(g, c)], flush=True)
    bad = known_violations(table, groups)
    missing = [case_key(g, c) for g, c in cases if case_key(g, c) not in table]
    for line in bad + [f"{k}: no pinned answer" for k in missing]:
        print(line, file=sys.stderr)
    if bad or missing:
        return 1
    if "--check" not in argv:
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
