"""Command-line front end.

Exit codes: 0 success / certified, 1 internal defect, 2 parse error,
3 theorem-inapplicable input, 4 failed verification or failed model check,
74 a failed write to stdout (EX_IOERR), 141 stdout closed by its reader.
Given the same flags (including --seed) the output is byte-identical
across runs: nothing here consults time, environment, or hash order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from . import dieudonne, vanish, wittvec
from .derham import PresentedRing, top_form_is_zero_in_omega, top_form_presentation
from .modarith import INT_DIGITS, PRIME_BOUND, check_prime
from .polyring import GREVLEX, LEX, Ideal, Polynomial, PolyParseError, PolyRing, buchberger, parse_polynomial

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3
EXIT_VERIFY = 4
EXIT_WRITE = 74  # EX_IOERR of sysexits: a write to stdout failed, as on a full disk
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that signal ended

PRESETS = {
    "cusp": (("x", "y"), ["y^2 - x^3"]),
    "node": (("x", "y"), ["x*y"]),
    "plane": (("x", "y"), []),
}


class UnreadableInputError(Exception):
    """An input file, or stdin, that could not be opened or read."""


def _check_int_digits(what: str, digits: int) -> None:
    if digits > INT_DIGITS:
        raise ValueError(f"{what} has {digits} digits, more than the {INT_DIGITS} that integers may read")


def _json_int(literal: str) -> int:
    _check_int_digits("a JSON integer", len(literal.lstrip("-")))
    return int(literal)


def _decode_json(text: str):
    """`json.loads`, with a document nested too deep for the decoder
    reported as malformed JSON rather than as a recursion error, and an
    integer too long to read named by its digit count."""
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise json.JSONDecodeError("document nested too deeply", text, 0) from None


def _read_json(path: str | None):
    """The JSON document in the file `path`, or on stdin when `path` is None."""
    try:
        text = sys.stdin.read() if path is None else Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # only here is an OSError a bad input; a failed write is not
        raise UnreadableInputError(exc) from exc
    return _decode_json(text)


def _load_ring(args: argparse.Namespace) -> PresentedRing:
    order = LEX if args.order == "lex" else GREVLEX
    if args.preset:
        names, gens = PRESETS[args.preset]
        ring = PolyRing(args.p, names)
        return PresentedRing.make(ring, [parse_polynomial(g, ring) for g in gens], order)
    ideal = Ideal.from_json(_read_json(None) if args.ring == "-" else _decode_json(args.ring))
    return PresentedRing(buchberger(ideal, order))


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
    if getattr(args, "integer", False):
        return wittvec.IntegerCoefficients()
    if args.preset or args.ring is not None:
        presentation = _load_ring(args)
    else:
        presentation = PresentedRing.make(PolyRing(args.p, ()), [])
    return wittvec.PresentedCoefficients(presentation)


def _witt_operand(flag: str, value, domain, p: int):
    """--x or --y as a Witt vector (coordinates separated by ';'), --g in W_1 = R."""
    if flag == "level":
        return value
    chunks = [value] if flag == "g" else [c.strip() for c in value.split(";")]
    if isinstance(domain, wittvec.IntegerCoefficients):
        for i, c in enumerate(chunks):
            _check_int_digits(f"--{flag} coordinate {i}", sum(ch.isdigit() for ch in c))
        return wittvec.witt_vector(domain, p, [int(c) for c in chunks])
    presentation = domain.presentation
    coords = [presentation.normal(parse_polynomial(c, presentation.ring)) for c in chunks]
    return wittvec.witt_vector(domain, p, coords)


def _render_witt(x: wittvec.WittVector) -> tuple[list[str], dict, bool]:
    for i, c in enumerate(x.coords):
        if isinstance(c, int) and abs(c) >= 10 ** INT_DIGITS:  # more than INT_DIGITS digits
            digits = int(c.bit_length() * math.log10(2)) + 1
            raise ValueError(f"coordinate x_{i} of the result has about {digits} digits, "
                             f"more than the {INT_DIGITS} that integers may print")
    # str of an integer coordinate, or of a polynomial (its to_text())
    return ["(" + ", ".join(str(c) for c in x.coords) + ")"], wittvec.witt_to_json(x), True


def _check_ghost_digits(x: wittvec.WittVector) -> None:
    """Refuse, before computing, an operand past the caps or with ghost components too long to print.

    w_i = sum_j p^j x_j^(p^(i-j)) has at most log2(i+1) + max_j (j log2 p +
    p^(i-j) log2 |x_j|) bits.  The digit count read from that bound is never
    too small, and too large by at most one unless the terms cancel.
    wittcert prints no integer beyond INT_DIGITS digits.
    """
    wittvec._check_caps(x.p, x.level)  # x_0^(p^(r-1)) grows without bound in r
    p = x.p
    for i in range(x.level):
        bits = max((j * math.log2(p) + p ** (i - j) * math.log2(abs(c))
                    for j, c in enumerate(x.coords[: i + 1]) if c), default=0.0)
        digits = int((bits + math.log2(i + 1)) * math.log10(2)) + 1
        if digits > INT_DIGITS:
            raise ValueError(
                f"ghost component w_{i} would have about {digits} digits, "
                f"more than the {INT_DIGITS} that integers may print"
            )


def _ghost(x: wittvec.WittVector):
    _check_ghost_digits(x)
    values = wittvec.ghost(x)
    return ["(" + ", ".join(str(v) for v in values) + ")"], {"ghost": list(values)}, True


def _teich(g: wittvec.WittVector, level: int) -> wittvec.WittVector:
    """The Teichmueller lift to W_level of g, given in W_1 = R."""
    return wittvec.teichmuller(g.domain, g.coords[0], level, p=g.p)


def _check_frobenius(g1: wittvec.WittVector, r: int):
    """F([g]) == [g^p] == [g]^p in W_(r-1) of an F_p-algebra."""
    domain, p, g = g1.domain, g1.p, g1.coords[0]
    lift = wittvec.teichmuller(domain, g, r, p=p)
    f_of_lift = wittvec.frobenius(lift)
    lift_of_power = wittvec.teichmuller(domain, domain.presentation.normal(g ** p), r - 1, p=p)
    power_of_lift = wittvec.witt_one(domain, p, r)
    for _ in range(p):
        power_of_lift = wittvec.witt_mul(power_of_lift, lift)
    truncated_power = wittvec.WittVector(p, r - 1, domain, power_of_lift.coords[: r - 1])
    ok = f_of_lift == lift_of_power == truncated_power
    return [f"F([g]) == [g^p] == [g]^p: {str(ok).lower()}"], {"holds": ok, "g": g.to_json()}, ok


# operation -> (its operand flags, the call on the parsed operands).  A call
# returns a Witt vector, or text lines, a JSON document and whether it passed.
WITT_OPERATIONS = {
    "add": (("x", "y"), wittvec.witt_add),
    "mul": (("x", "y"), wittvec.witt_mul),
    "neg": (("x",), wittvec.witt_neg),
    "frobenius": (("x",), wittvec.frobenius),
    "verschiebung": (("x",), wittvec.verschiebung),
    "ghost": (("x",), _ghost),
    "teich": (("g", "level"), _teich),
    "check-frobenius": (("g", "level"), _check_frobenius),
}
# integer operations the library computes on ghost components, whose size bounds their work
GHOST_ROUTED = ("add", "mul", "neg", "frobenius")


def cmd_witt(args: argparse.Namespace) -> int:
    domain = _witt_domain(args)
    # A --ring presentation carries its own prime, which wins over --p.
    p = domain.characteristic if domain.char_p else args.p
    flags, call = WITT_OPERATIONS[args.operation]
    operands = [_witt_operand(flag, getattr(args, flag), domain, p) for flag in flags]
    if not domain.char_p and args.operation in GHOST_ROUTED:
        for x in operands:
            _check_ghost_digits(x)
    result = call(*operands)
    lines, doc, ok = _render_witt(result) if isinstance(result, wittvec.WittVector) else result
    _emit(args, lines, doc)
    return EXIT_OK if ok else EXIT_VERIFY


# -- certified vanishing ------------------------------------------------------


def cmd_certify(args: argparse.Namespace) -> int:
    if args.verify is not None:
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
        label = f"partial d/d{cert.ideal.ring.names[s.var]}" if s.op == "partial" else "pth-root"
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
    if args.model_file is not None:
        return dieudonne.DieudonneModel.from_json(_read_json(args.model_file))
    coeff_exp = 1 if args.coeff_exp is None else args.coeff_exp
    if coeff_exp < 1:
        raise ValueError("coefficient exponent must be >= 1")
    exponent = max(coeff_exp, 2)
    if args.model == "trivial":
        return dieudonne.trivial_model(args.p, exponent)
    if args.model == "zero":
        return dieudonne.zero_model(args.p, exponent)
    return dieudonne.a1_model(args.p, 4 if args.wmax is None else args.wmax, exponent, depth=args.vdepth)


def _unread_model_flag(args: argparse.Namespace) -> str | None:
    """The parser error for the first given flag that the chosen model does
    not read: --wmax and --vdepth shape the a1 model only, and a model file
    states its own coefficient exponent."""
    if args.model_file is not None:
        model, unread = "--model-file", ("--wmax", "--vdepth", "--coeff-exp")
    elif args.model in ("trivial", "zero"):
        model, unread = f"--model {args.model}", ("--wmax", "--vdepth")
    else:
        return None
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            return f"argument {flag}: not allowed with argument {model}"
    return None


def cmd_dieudonne_check(args: argparse.Namespace) -> int:
    model = _load_model(args)
    # before any check: the level loop costs O(r) even on an empty basis
    if not 1 <= args.r <= model.exponent:
        raise ValueError(f"need 1 <= r <= N = {model.exponent}")
    if args.rmax < 1:
        raise ValueError("need rmax >= 1")
    reports = [dieudonne.check_axioms(model), dieudonne.saturation_witness(model)]
    for r in range(1, args.r + 1):
        reports.append(dieudonne.f_cancellation_check(model, r))
        for degree in model.degrees():
            reports.append(dieudonne.compare_wr_with_cohomology(model, degree, r))
    rmax = min(args.rmax, model.exponent - 1) if model.exponent > 1 else 0
    if rmax >= 1:
        for degree in model.degrees():
            reports.append(dieudonne.w1_vanishing_propagation_check(model, degree, rmax))
    if min(model.degrees(), default=0) >= 0:
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


# Flags that several commands share: the prime, input sources (at most one each) and witt operands.
FLAGS = {
    "--p": {"type": int, "default": 5, "help": "prime characteristic (default 5)"},
    "--integer": {"action": "store_true", "help": "integer coefficients (ghost oracle mode)"},
    "--preset": {"choices": sorted(PRESETS), "help": "built-in presentation"},
    "--ring": {"help": "presentation JSON, or '-' to read from stdin"},
    "--verify": {"help": "verify an existing certificate JSON file"},
    "--model": {"choices": ["a1", "trivial", "zero"], "help": "built-in model (default a1)"},
    "--model-file": {"help": "model JSON file"},
    "--x": {"required": True, "help": "Witt vector, coordinates separated by ';'"},
    "--y": {"required": True, "help": "second Witt vector"},
    "--g": {"required": True, "help": "ring element to lift"},
    "--level": {"type": int, "default": 2, "help": "truncation level r (default 2)"},
}
PRESENTATION = ("--preset", "--ring")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wittcert", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, sources=(), required=True, parent=commands):
        """A subcommand with --p and --format and one of the input `sources`
        (or none, unless `required`), with --order when --ring is a source."""
        cmd = parent.add_parser(name, help=help)
        cmd.set_defaults(handler=handler, parser=cmd)
        cmd.add_argument("--p", **FLAGS["--p"])
        cmd.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
        if "--ring" in sources:
            cmd.add_argument("--order", choices=["lex", "grevlex"], help="default grevlex")
        if sources:
            group = cmd.add_mutually_exclusive_group(required=required)
            for flag in sources:
                group.add_argument(flag, **FLAGS[flag])
        return cmd

    witt = commands.add_parser("witt", help="truncated Witt vector arithmetic")
    operations = witt.add_subparsers(dest="operation", required=True)
    for name, (operands, _) in WITT_OPERATIONS.items():
        # ghost keeps the F_p-algebra domains: the library refuses them for it
        domains = PRESENTATION if name == "check-frobenius" else ("--integer", *PRESENTATION)
        op = command(name, None, cmd_witt, domains, required=False, parent=operations)
        for flag in operands:
            op.add_argument("--" + flag, **FLAGS["--" + flag])

    command("certify", "certify top-form vanishing, or verify a certificate", cmd_certify,
            ("--verify", *PRESENTATION))
    command("closure", "differential p-closure of the ideal", cmd_closure, PRESENTATION)
    kernel = command("kernel", "kernel of t_i -> g_i", cmd_kernel, PRESENTATION)
    kernel.add_argument("--elements", required=True, help="comma-separated ring elements")
    command("dim", "vanishing degree bound (Krull dimension)", cmd_dim, PRESENTATION)
    omega = command("omega-top", "top-form presentation ideal", cmd_omega_top, PRESENTATION)
    omega.add_argument("--coeff", help="test whether this coefficient kills the top form")

    check = command("dieudonne-check", "run the Dieudonne model checkers", cmd_dieudonne_check,
                    ("--model", "--model-file"), required=False)
    check.add_argument("--coeff-exp", type=int, help="coefficient exponent N (default 1; not with --model-file)")
    check.add_argument("--wmax", type=int, help="largest weight of the a1 model (default 4)")
    check.add_argument("--vdepth", type=int, help="V-depth of the a1 model (default N)")
    check.add_argument("--r", type=int, default=1, help="levels to check (1..r)")
    check.add_argument("--rmax", type=int, default=2, help="propagation depth")

    # the battery prints a text transcript only, so it takes no --format
    battery = commands.add_parser("battery", help="deterministic demonstration transcript")
    battery.set_defaults(handler=cmd_battery)
    battery.add_argument("--p", **FLAGS["--p"])
    battery.add_argument("--seed", type=int, default=0, help="seed for the random ideals")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "order", None) and args.preset is None and args.ring is None:
        args.parser.error("argument --order: not allowed without argument --preset or --ring")
    if args.handler is cmd_dieudonne_check and (message := _unread_model_flag(args)):
        args.parser.error(message)
    try:
        if not 2 <= args.p < PRIME_BOUND:  # so that commands that ignore --p refuse it too
            check_prime(args.p)  # raises the prime rule's range message
        code = args.handler(args)
        print(end="", flush=True)  # fail here, not at exit, if stdout is a closed pipe
        return code
    except OSError as exc:  # a write to stdout failed; reads raise UnreadableInputError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit flushes quietly
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout (Python's SIGPIPE note)
            return EXIT_BROKEN_PIPE
        print(f"write error: {exc}", file=sys.stderr)
        return EXIT_WRITE
    except (PolyParseError, json.JSONDecodeError, UnreadableInputError) as exc:
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
