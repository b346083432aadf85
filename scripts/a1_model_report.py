#!/usr/bin/env python3
"""Survey the truncated de Rham-Witt model of the affine line.

Builds the weight-truncated model, runs criterion 5's checker set on it
(axioms, saturation, injectivity; for r < N the cancellation check and
the W_r / cohomology comparison in degrees 0-2; propagation in degrees 0
and 1 up to r = N - 1), and tabulates the level-r quotient factors
against the cohomology of the mod-p^r reduction (weights are matched
through the p^r scaling of the comparison map).

stdout carries the report summaries, the sha256 of the reports' canonical
JSON (one `json.dumps(doc, sort_keys=True, separators=(",", ":"))` line
per report, in run order) and the table; it is deterministic.  The wall
time of each checker call and of the whole check set goes to stderr, so
a cold timing is one fresh run of this script.

Usage: python scripts/a1_model_report.py [--p 2] [--wmax 6] [--N 4]
"""

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wittcert.dieudonne import (
    a1_model,
    check_axioms,
    compare_wr_with_cohomology,
    f_cancellation_check,
    frobenius_injectivity_degree0_check,
    hn_mod_pr,
    saturation_witness,
    w1_vanishing_propagation_check,
    wr_quotient,
)


def check_set(model, exponent):
    """Criterion 5's checker calls as (label, thunk), in run order."""
    calls = [("axioms", lambda: check_axioms(model)),
             ("saturation", lambda: saturation_witness(model)),
             ("injectivity", lambda: frobenius_injectivity_degree0_check(model))]
    for r in range(1, exponent):
        calls.append((f"cancellation r={r}", lambda r=r: f_cancellation_check(model, r)))
        for degree in (0, 1, 2):
            calls.append((f"compare d={degree} r={r}",
                          lambda degree=degree, r=r: compare_wr_with_cohomology(model, degree, r)))
    for degree in (0, 1):
        calls.append((f"propagation d={degree}",
                      lambda degree=degree: w1_vanishing_propagation_check(model, degree, exponent - 1)))
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--wmax", type=int, default=6)
    parser.add_argument("--N", type=int, default=4)
    args = parser.parse_args()

    start = time.perf_counter()
    model = a1_model(args.p, args.wmax, args.N)
    print(f"A^1 model: p={args.p} wmax={args.wmax} N={args.N} "
          f"({len(model.basis)} basis elements)")
    print(f"build: {time.perf_counter() - start:.3f}s", file=sys.stderr)

    reports = []
    digest = hashlib.sha256()
    checks_start = time.perf_counter()
    for label, call in check_set(model, args.N):
        t0 = time.perf_counter()
        report = call()
        print(f"{label}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        reports.append(report)
        digest.update(json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")).encode() + b"\n")
    print(f"check set: {time.perf_counter() - checks_start:.3f}s", file=sys.stderr)
    for report in reports:
        print(" ", report.summary())
    print(f"reports sha256: {digest.hexdigest()}")

    print("\nlevel quotients by weight (degree 0; '-' marks truncation boundary):")
    quotients = {r: wr_quotient(model, 0, r) for r in range(1, args.N)}
    cohomology = {r: hn_mod_pr(model, 0, r) for r in range(1, args.N)}
    scale = quotients[1].scale  # blocks are keyed by weight * scale, in every presentation of the model
    header = "weight".ljust(8) + "".join(f"W_{r}".ljust(10) for r in quotients)
    print(header + "".join(f"H(mod p^{r})".ljust(12) for r in cohomology))
    for key in sorted(quotients[1].by_key):
        w = Fraction(key, scale)
        if w.denominator > args.p:  # keep the table short: one fractional layer
            continue
        row = str(w).ljust(8)
        for r, q in quotients.items():
            block = q.by_key[key]
            cell = str(list(block.factors)) if block.complete else "-"
            row += cell.ljust(10)
        for r in cohomology:
            block = cohomology[r].by_key.get(key * args.p ** r)
            cell = str(list(block.factors if block else ())) if w * args.p ** r <= model.weight_cap else "-"
            row += cell.ljust(12)
        print(row)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
