"""Command-line front end.

Exit codes: 0 success / certified, 1 internal defect, 2 parse error,
3 theorem-inapplicable input, 4 failed verification or failed model check.
Given the same flags (including --seed) the output is byte-identical
across runs: nothing here consults time, environment, or hash order.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import dieudonne, vanish, wittvec
from .derham import PresentedRing, top_form_is_zero_in_omega, top_form_presentation
from .polyring import Ideal, Polynomial, PolyParseError, PolyRing, TermOrder, parse_polynomial

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_VERIFY = 4

PRESETS = {
    "cusp": (("x", "y"), ["y^2 - x^3"]),
    "node": (("x", "y"), ["x*y"]),
    "plane": (("x", "y"), []),
}


def _decode_json(text: str):
    """`json.loads`, with a document nested too deep for the decoder
    reported as malformed JSON rather than as a recursion error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text, 0) from None


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _decode_json(fh.read())


def _term_order(args: argparse.Namespace, nvars: int) -> TermOrder:
    return TermOrder.lex(nvars) if args.order == "lex" else TermOrder.grevlex(nvars)


def _load_ring(args: argparse.Namespace) -> PresentedRing:
    if args.ring:
        text = sys.stdin.read() if args.ring == "-" else args.ring
        base = PresentedRing.from_json(_decode_json(text))
        return PresentedRing.make(
            base.ring, base.ideal.generators, _term_order(args, base.ring.nvars)
        )
    if args.preset:
        names, gens = PRESETS[args.preset]
        ring = PolyRing(args.p, names)
        return PresentedRing.make(
            ring, [parse_polynomial(g, ring) for g in gens], _term_order(args, ring.nvars)
        )
    raise PolyParseError("no presentation given (use --ring or --preset)", 0)


def _emit(args: argparse.Namespace, text_lines: list[str], json_doc) -> None:
    if args.fmt == "json":
        print(json.dumps(json_doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _ideal_lines(ideal: Ideal) -> list[str]:
    if not ideal.basis:
        return ["(0)"]
    return [g.to_text(ideal.basis_order) for g in ideal.basis]


# -- witt -------------------------------------------------------------------


def _witt_domain(args: argparse.Namespace):
    if args.integer:
        return wittvec.IntegerCoefficients()
    if args.ring or args.preset:
        presentation = _load_ring(args)
    else:
        presentation = PresentedRing.make(PolyRing(args.p, ()), [])
    return wittvec.PresentedCoefficients(presentation)


def _parse_witt_operand(text, domain, p: int) -> wittvec.WittVector:
    if not text:
        raise PolyParseError("missing Witt operand (use --x / --y)", 0)
    coords = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if isinstance(domain, wittvec.IntegerCoefficients):
            coords.append(int(chunk))
        else:
            ring = domain.presentation.ring
            coords.append(domain.presentation.normal(parse_polynomial(chunk, ring)))
    return wittvec.witt_vector(domain, p, coords)


def _render_witt(x: wittvec.WittVector) -> tuple[list[str], dict]:
    doc = wittvec.witt_to_json(x)
    if isinstance(x.domain, wittvec.IntegerCoefficients):
        line = "(" + ", ".join(str(c) for c in x.coords) + ")"
    else:
        line = "(" + ", ".join(c.to_text() for c in x.coords) + ")"
    return [line], doc


def _check_ghost_digits(x: wittvec.WittVector) -> None:
    """Refuse, before computing, ghost components too long to print.

    w_i = sum_j p^j x_j^(p^(i-j)) has at most log2(i+1) + max_j (j log2 p +
    p^(i-j) log2 |x_j|) bits.  The digit count read from that bound is never
    too small, and too large by at most one unless the terms cancel.  Python
    refuses to print integers beyond sys.get_int_max_str_digits() digits (0
    means no limit).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    p = x.p
    for i in range(x.level):
        bits = max((j * math.log2(p) + p ** (i - j) * math.log2(abs(c))
                    for j, c in enumerate(x.coords[: i + 1]) if c), default=0.0)
        digits = int((bits + math.log2(i + 1)) * math.log10(2)) + 1
        if digits > limit:
            raise ValueError(
                f"ghost component w_{i} would have about {digits} digits, "
                f"more than the {limit} that integers may print"
            )


def cmd_witt(args: argparse.Namespace) -> int:
    domain = _witt_domain(args)
    # A --ring presentation carries its own prime, which wins over --p.
    p = domain.characteristic if domain.char_p else args.p
    op = args.operation
    if op in ("add", "mul"):
        x = _parse_witt_operand(args.x, domain, p)
        y = _parse_witt_operand(args.y, domain, p)
        result = wittvec.witt_add(x, y) if op == "add" else wittvec.witt_mul(x, y)
    elif op == "neg":
        result = wittvec.witt_neg(_parse_witt_operand(args.x, domain, p))
    elif op == "frobenius":
        result = wittvec.frobenius(_parse_witt_operand(args.x, domain, p))
    elif op == "verschiebung":
        result = wittvec.verschiebung(_parse_witt_operand(args.x, domain, p))
    elif op == "teich":
        wittvec._check_caps(p, args.level)  # before the level-long tuple is built
        if not args.g:
            raise PolyParseError("teich needs --g", 0)
        if isinstance(domain, wittvec.IntegerCoefficients):
            g = int(args.g)
        else:
            g = domain.presentation.normal(parse_polynomial(args.g, domain.presentation.ring))
        result = wittvec.teichmuller(domain, g, args.level, p=p)
    elif op == "ghost":
        x = _parse_witt_operand(args.x, domain, p)
        wittvec._check_caps(x.p, x.level)  # x_0^(p^(r-1)) grows without bound in r
        _check_ghost_digits(x)
        values = wittvec.ghost(x)
        _emit(args, ["(" + ", ".join(str(v) for v in values) + ")"], {"ghost": list(values)})
        return EXIT_OK
    elif op == "check-frobenius":
        if isinstance(domain, wittvec.IntegerCoefficients):
            raise PolyParseError("check-frobenius needs an F_p-algebra ring", 0)
        if not args.g:
            raise PolyParseError("check-frobenius needs --g", 0)
        r = args.level
        wittvec._check_caps(p, r)
        presentation = domain.presentation
        g = presentation.normal(parse_polynomial(args.g, presentation.ring))
        lift = wittvec.teichmuller(domain, g, r, p=p)
        f_of_lift = wittvec.frobenius(lift)
        lift_of_power = wittvec.teichmuller(domain, presentation.normal(g ** p), r - 1, p=p)
        power_of_lift = wittvec.witt_one(domain, p, r)
        for _ in range(p):
            power_of_lift = wittvec.witt_mul(power_of_lift, lift)
        truncated_power = wittvec.WittVector(p, r - 1, domain, power_of_lift.coords[: r - 1])
        ok = f_of_lift == lift_of_power == truncated_power
        _emit(
            args,
            [f"F([g]) == [g^p] == [g]^p: {str(ok).lower()}"],
            {"holds": ok, "g": g.to_json()},
        )
        return EXIT_OK if ok else EXIT_VERIFY
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(op)
    lines, doc = _render_witt(result)
    _emit(args, lines, doc)
    return EXIT_OK


# -- certified vanishing ------------------------------------------------------


def cmd_certify(args: argparse.Namespace) -> int:
    if args.verify:
        cert = vanish.VanishingCertificate.from_json(_read_json(args.verify))
        ok = vanish.verify_certificate(cert)
        _emit(args, [f"verified: {str(ok).lower()}"], {"verified": ok})
        return EXIT_OK if ok else EXIT_VERIFY
    presentation = _load_ring(args)
    cert = vanish.certify_top_vanishing(presentation)
    ok = vanish.verify_certificate(cert)
    doc = cert.to_json()
    doc["verified"] = ok
    lines = [f"seed: {cert.seed.to_text()}"]
    for s in cert.steps:
        label = f"partial d/d{cert.presentation.ring.names[s.var]}" if s.op == "partial" else "pth-root"
        lines.append(f"  {label}: {s.before.to_text()} -> {s.after.to_text()}")
    lines.append(f"terminal: {cert.terminal}")
    lines.append(f"verified: {str(ok).lower()}")
    _emit(args, lines, doc)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_closure(args: argparse.Namespace) -> int:
    presentation = _load_ring(args)
    state = vanish.closure_state(presentation.ideal)
    lines = ["closure basis:"] + ["  " + t for t in _ideal_lines(state.ideal)]
    lines.append(f"generations: {state.generations}")
    _emit(
        args,
        lines,
        {
            "basis": [g.to_json() for g in state.ideal.basis or ()],
            "generations": state.generations,
            "fixpoint": state.fixpoint,
        },
    )
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace) -> int:
    presentation = _load_ring(args)
    elements = [
        presentation.normal(parse_polynomial(chunk.strip(), presentation.ring))
        for chunk in args.elements.split(",")
    ]
    kernel = vanish.kernel_of_tuple(presentation, elements)
    _emit(
        args,
        ["kernel basis:"] + ["  " + t for t in _ideal_lines(kernel)],
        {"vars": list(kernel.ring.names), "basis": [g.to_json() for g in kernel.basis or ()]},
    )
    return EXIT_OK


def cmd_dim(args: argparse.Namespace) -> int:
    presentation = _load_ring(args)
    bound = vanish.vanishing_degree_bound(presentation)
    _emit(args, [str(bound)], {"dimension": bound})
    return EXIT_OK


def cmd_omega_top(args: argparse.Namespace) -> int:
    presentation = _load_ring(args)
    top = top_form_presentation(presentation)
    lines = ["top-form presentation ideal:"] + ["  " + t for t in _ideal_lines(top.jacobian_ideal)]
    doc = {"jacobian_basis": [g.to_json() for g in top.jacobian_ideal.basis or ()]}
    if args.coeff:
        c = parse_polynomial(args.coeff, presentation.ring)
        vanishes = top_form_is_zero_in_omega(c, top)
        lines.append(f"coefficient kills the top form: {str(vanishes).lower()}")
        doc["coefficient_vanishes"] = vanishes
    _emit(args, lines, doc)
    return EXIT_OK


# -- dieudonne models ---------------------------------------------------------


def _load_model(args: argparse.Namespace) -> dieudonne.DieudonneModel:
    if args.coeff_exp < 1:
        raise ValueError("coefficient exponent must be >= 1")
    if args.model_file:
        return dieudonne.DieudonneModel.from_json(_read_json(args.model_file))
    name = args.model or "a1"
    exponent = max(args.coeff_exp, 2)
    if name == "a1":
        return dieudonne.a1_model(args.p, args.wmax, exponent, depth=args.vdepth)
    if name == "trivial":
        return dieudonne.trivial_model(args.p, exponent)
    if name == "zero":
        return dieudonne.zero_model(args.p, exponent)
    raise PolyParseError(f"unknown model {name!r}", 0)


def cmd_dieudonne_check(args: argparse.Namespace) -> int:
    model = _load_model(args)
    reports = [dieudonne.check_axioms(model), dieudonne.saturation_witness(model)]
    for r in range(1, args.r + 1):
        reports.append(dieudonne.f_cancellation_check(model, r))
        for degree in model.degrees():
            reports.append(dieudonne.compare_wr_with_cohomology(model, degree, r))
    rmax = min(args.rmax, model.exponent - 1) if model.exponent > 1 else 0
    if rmax >= 1:
        for degree in model.degrees():
            reports.append(dieudonne.w1_vanishing_propagation_check(model, degree, rmax))
    if all(b.degree >= 0 for b in model.basis):
        reports.append(dieudonne.frobenius_injectivity_degree0_check(model))
    lines = [r.summary() for r in reports]
    passed = all(r.passed for r in reports)
    lines.append(f"overall: {'pass' if passed else 'FAIL'}")
    _emit(args, lines, {"reports": [r.to_json() for r in reports], "passed": passed})
    return EXIT_OK if passed else EXIT_VERIFY


# -- deterministic battery ----------------------------------------------------


def _random_nonzero_ideal(rng: random.Random, ring: PolyRing) -> Ideal:
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            terms[exp] = rng.randint(1, ring.p - 1)
        gens.append(Polynomial(ring, terms))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [ring.variable(0)]
    return Ideal.from_polys(ring, gens)


def cmd_battery(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    print(f"battery seed={args.seed} p={args.p}")
    for name in sorted(PRESETS):
        names, gen_texts = PRESETS[name]
        ring = PolyRing(args.p, names)
        presentation = PresentedRing.make(ring, [parse_polynomial(t, ring) for t in gen_texts])
        bound = vanish.vanishing_degree_bound(presentation)
        print(f"[{name}] degree bound: {bound}")
        if presentation.ideal.basis:
            cert = vanish.certify_top_vanishing(presentation)
            ok = vanish.verify_certificate(cert)
            chain = ", ".join(
                f"{s.op}({s.var if s.var is not None else ''})" for s in cert.steps
            )
            print(f"[{name}] certificate: seed={cert.seed.to_text()} steps=[{chain}] "
                  f"terminal={cert.terminal} verified={str(ok).lower()}")
            closure = vanish.differential_p_closure(presentation.ideal)
            print(f"[{name}] closure: {'(1)' if closure.contains_one() else 'proper'}")
        else:
            print(f"[{name}] certificate: inapplicable (zero ideal)")
    ring = PolyRing(args.p, ("x", "y"))
    for i in range(4):
        ideal = _random_nonzero_ideal(rng, ring)
        presentation = PresentedRing.make(ring, ideal.generators)
        if presentation.is_unit_ideal() or presentation.is_zero_ideal():
            print(f"[random {i}] degenerate presentation, skipped")
            continue
        cert = vanish.certify_top_vanishing(presentation)
        ok = vanish.verify_certificate(cert)
        print(f"[random {i}] gens={[g.to_text() for g in ideal.generators]} "
              f"len={len(cert.steps)} verified={str(ok).lower()}")
    domain = wittvec.IntegerCoefficients()
    x = wittvec.witt_vector(domain, 2, [rng.randint(0, 9) for _ in range(3)])
    y = wittvec.witt_vector(domain, 2, [rng.randint(0, 9) for _ in range(3)])
    s = wittvec.witt_add(x, y)
    print(f"witt ghost add: {wittvec.ghost(x)} + {wittvec.ghost(y)} = {wittvec.ghost(s)}")
    model = dieudonne.a1_model(2, 4, 3)
    for report in (
        dieudonne.check_axioms(model),
        dieudonne.saturation_witness(model),
        dieudonne.f_cancellation_check(model, 1),
        dieudonne.compare_wr_with_cohomology(model, 0, 1),
        dieudonne.compare_wr_with_cohomology(model, 1, 1),
    ):
        print("a1(p=2,wmax=4,N=3) " + report.summary())
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wittcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, ring: bool = False) -> argparse.ArgumentParser:
        """A subcommand with --p and --format, and the presentation flags
        --order, --preset and --ring when it works on a ring."""
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--p", type=int, default=5, help="prime characteristic (default 5)")
        cmd.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
        if ring:
            cmd.add_argument("--order", choices=["lex", "grevlex"], default="grevlex")
            cmd.add_argument("--preset", choices=sorted(PRESETS), help="built-in presentation")
            cmd.add_argument("--ring", help="presentation JSON, or '-' to read from stdin")
        return cmd

    witt = command("witt", "truncated Witt vector arithmetic", ring=True)
    witt.add_argument(
        "operation",
        choices=["add", "mul", "neg", "frobenius", "verschiebung", "teich", "ghost", "check-frobenius"],
    )
    witt.add_argument("--level", type=int, default=2, help="truncation level r")
    witt.add_argument("--integer", action="store_true", help="integer-coefficient oracle mode")
    witt.add_argument("--x", help="first operand, coordinates separated by ';'")
    witt.add_argument("--y", help="second operand")
    witt.add_argument("--g", help="ring element for teich / check-frobenius")

    certify = command("certify", "certify top-form vanishing", ring=True)
    certify.add_argument("--verify", help="verify an existing certificate JSON file")

    command("closure", "differential p-closure of the ideal", ring=True)

    kernel = command("kernel", "kernel of t_i -> g_i", ring=True)
    kernel.add_argument("--elements", required=True, help="comma-separated ring elements")

    command("dim", "vanishing degree bound (Krull dimension)", ring=True)

    omega = command("omega-top", "top-form presentation ideal", ring=True)
    omega.add_argument("--coeff", help="test whether this coefficient kills the top form")

    check = command("dieudonne-check", "run the Dieudonne model checkers")
    check.add_argument("--coeff-exp", type=int, default=1, help="coefficient exponent N")
    check.add_argument("--model", choices=["a1", "trivial", "zero"], help="built-in model")
    check.add_argument("--model-file", help="model JSON file")
    check.add_argument("--wmax", type=int, default=4)
    check.add_argument("--vdepth", type=int, default=None)
    check.add_argument("--r", type=int, default=1, help="levels to check (1..r)")
    check.add_argument("--rmax", type=int, default=2, help="propagation depth")

    battery = command("battery", "deterministic demonstration transcript")
    battery.add_argument("--seed", type=int, default=0, help="seed for the random ideals")

    return parser


HANDLERS = {
    "witt": cmd_witt,
    "certify": cmd_certify,
    "closure": cmd_closure,
    "kernel": cmd_kernel,
    "dim": cmd_dim,
    "omega-top": cmd_omega_top,
    "dieudonne-check": cmd_dieudonne_check,
    "battery": cmd_battery,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 2 <= args.p < 2 ** 16:
            raise ValueError("p must satisfy 2 <= p < 2^16")
        return HANDLERS[args.command](args)
    except (PolyParseError, json.JSONDecodeError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except vanish.InapplicableError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (vanish.InternalDefectError, vanish.ClosureBudgetError) as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
