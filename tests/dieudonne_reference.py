"""Reference Dieudonne checkers, kept as test oracles.

These are the earlier `check_axioms`, `w1_vanishing_propagation_check` and
`_les_exactness_failure` of `wittcert.dieudonne`.  They compute every
first image through `DieudonneModel.apply`, look up the blocks of a weight
through a dict per key, and build their spans with the public
`SubmoduleBasis` constructor.  The library's checkers read the first images
off the map rows and work on residue lists instead;
`tests/test_dieudonne.py` requires byte-identical reports from both.
"""

from typing import Optional

from wittcert.dieudonne import CheckReport, _reduction_kernel, _vec_json, hn_mod_pr
from wittcert.modarith import SubmoduleBasis


def check_axioms(model):
    report = CheckReport("axioms")
    q = model.modulus.char
    p = model.p

    def scaled(vec, k):
        return {lbl: (c * k) % q for lbl, c in vec.items() if (c * k) % q}

    def then(op, vec):
        return None if vec is None else model.apply(op, vec)

    for b in model.basis:
        x = {b.label: 1}
        dx, fx, vx = model.apply("d", x), model.apply("F", x), model.apply("V", x)
        cases = [
            ("d_squared", then("d", dx), {}),
            ("dF_equals_pFd", then("d", fx), None if (fd := then("F", dx)) is None else scaled(fd, p)),
            ("FV_equals_p", then("F", vx), scaled(x, p)),
            ("FdV_equals_d", then("F", then("d", vx)), dx),
        ]
        for name, lhs, rhs in cases:
            if lhs is None or rhs is None:
                report.inconclusive.append(
                    {"axiom": name, "element": b.label, "reason": "undefined within truncation"}
                )
                continue
            report.checked += 1
            if lhs != rhs:
                report.violations.append(
                    {"axiom": name, "element": b.label, "lhs": _vec_json(lhs), "rhs": _vec_json(rhs)}
                )
    return report


def w1_vanishing_propagation_check(model, degree, rmax):
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    if rmax + 1 > model.exponent:
        raise ValueError(f"level-{rmax} statements need coefficient exponent >= {rmax + 1}")
    report = CheckReport(f"w1_vanishing_propagation(degree={degree}, rmax={rmax})")
    presentations = {r: hn_mod_pr(model, degree, r) for r in range(1, rmax + 2)}
    for key in sorted(presentations[1].by_key):
        blocks = {r: presentations[r].by_key.get(key) for r in presentations}
        if any(b is None or not b.complete for b in blocks.values()):
            report.inconclusive.append({"weight": model._weight_text(key), "reason": "d undefined on block"})
            continue
        report.checked += 1
        if not blocks[1].factors:
            for r in range(2, rmax + 1):
                if blocks[r].factors:
                    report.violations.append(
                        {
                            "weight": model._weight_text(key),
                            "kind": "vanishing_propagation",
                            "r": r,
                            "factors": list(blocks[r].factors),
                        }
                    )
        for r in range(1, rmax + 1):
            if not blocks[1].factors and not blocks[r].factors and blocks[r + 1].factors:
                report.violations.append(
                    {
                        "weight": model._weight_text(key),
                        "kind": "inductive_step",
                        "r": r,
                        "factors": list(blocks[r + 1].factors),
                    }
                )
            failure = les_exactness_failure(model, degree, key, r, blocks[1], blocks[r + 1])
            if failure is not None:
                report.violations.append(
                    {"weight": model._weight_text(key), "kind": "les_exactness", "r": r, "detail": failure}
                )
    return report


def les_exactness_failure(model, degree, key, r, h1, h_top) -> Optional[str]:
    if not h_top.generators:
        return None
    mod_top = model._level(r + 1)
    lifted = [tuple(model.p ** r * x for x in g) for g in h1.generators]
    d_top = model._table("d", degree, mod_top)[key]
    if any(any(d_top.apply(g)) for g in lifted):
        return "multiplication-by-p^r image is not a cycle combination"
    boundaries = list(model._table("d", degree - 1).get(key, ()))
    image = SubmoduleBasis(mod_top, len(model._labels(degree, key)), lifted + boundaries)
    if image != _reduction_kernel(d_top, boundaries, model.p ** r):
        return "im(p^r) != ker(reduction) in the middle cohomology"
    return None
