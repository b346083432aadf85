"""CLI surface: exit codes, JSON round trips, determinism."""

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wittcert
from wittcert import cli, dieudonne, wittvec
from wittcert.cli import WITT_OPERATIONS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, stdin_text=None, stdout=subprocess.PIPE, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "wittcert", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        input=stdin_text,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )


def test_dim_presets():
    for preset, expected in [("cusp", "1"), ("node", "1"), ("plane", "2")]:
        result = run_cli("dim", "--preset", preset)
        assert result.returncode == 0
        assert result.stdout.strip() == expected


def test_dim_of_a_zero_ideal_in_forty_variables():
    ring = json.dumps({"p": 5, "vars": [f"x{i}" for i in range(40)], "generators": []})
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["dim", "--ring", ring]) == 0
    assert time.perf_counter() - start < 1.0
    assert out.getvalue().strip() == "40"


CUSP_RING = '{"p":5,"vars":["x","y"],"generators":["y^2 - x^3"]}'


def test_a_ring_document_is_reduced_once_per_order(buchberger_runs, capsys):
    """Reading --ring computes no basis: the one run is in the order asked
    for, and the dimension reads that basis."""
    assert main(["dim", "--ring", CUSP_RING]) == 0
    assert [order.kind for order in buchberger_runs] == ["grevlex"]
    buchberger_runs.clear()
    assert main(["dim", "--ring", CUSP_RING, "--order", "lex"]) == 0
    assert [order.kind for order in buchberger_runs] == ["lex"]
    assert capsys.readouterr().out == "1\n1\n"


def test_verifying_a_certificate_runs_buchberger_at_most_once(buchberger_runs, tmp_path, capsys, monkeypatch):
    """Loading a certificate computes no basis.  The replay first divides
    the seed by the stated generators: where that leaves no remainder, as
    on the cusp, whose seed is its generator, it computes no basis at all;
    where it leaves one, as when the seed is a basis element the
    generators do not state, it computes its own basis once."""
    from wittcert import vanish

    def certificate(*ring_args):
        assert main(["certify", *ring_args, "--format", "json"]) == 0
        path = tmp_path / "cert.json"
        path.write_text(capsys.readouterr().out)
        buchberger_runs.clear()
        return path

    path = certificate("--preset", "cusp")
    cert = vanish.VanishingCertificate.from_json(json.loads(path.read_text()))
    assert buchberger_runs == []
    assert main(["certify", "--verify", str(path)]) == 0
    assert buchberger_runs == []
    assert capsys.readouterr().out == "verified: true\n"

    # (x^2 - y, x*y) has the basis element y^2, the seed
    path = certificate("--ring", json.dumps({"p": 5, "vars": ["x", "y"], "generators": ["x^2 - y", "x*y"]}))
    two = vanish.VanishingCertificate.from_json(json.loads(path.read_text()))
    assert [g.to_text() for g in two.ideal.generators] == ["x^2 + 4*y", "x*y"] and two.seed.to_text() == "y^2"
    assert buchberger_runs == []
    assert main(["certify", "--verify", str(path)]) == 0
    assert [order.kind for order in buchberger_runs] == ["grevlex"]
    assert capsys.readouterr().out == "verified: true\n"

    # a seed outside the ideal leaves a remainder, and the basis rejects it
    outside = vanish.VanishingCertificate(cert.ideal, cert.ideal.ring.variable(0), (), cert.terminal)
    buchberger_runs.clear()
    assert not vanish.verify_certificate(outside)
    assert [order.kind for order in buchberger_runs] == ["grevlex"]

    def refused(*args, **kwargs):
        raise AssertionError("the replay computed a basis")

    monkeypatch.setattr(vanish, "buchberger", refused)
    assert vanish.verify_certificate(cert)
    for needs_a_basis in (two, outside):
        with pytest.raises(AssertionError, match="computed a basis"):
            vanish.verify_certificate(needs_a_basis)


# the tuple kernel of the cusp whose block-order Buchberger run took 40 s
# before S-pairs were picked by sugar
CUSP_KERNEL = ["kernel", "--preset", "cusp", "--elements", "3*x^2*y + 4*x*y + 4*y^2, x*y + 4*x, 3*y^3 + 3*x*y + y"]
CUSP_KERNEL_SHA256 = "d444439f1e7c137a579e4c04fe47a9955f4b104ef160987aae0ab5f3ea98541c"
CUSP_KERNEL_SECONDS = 5.0


def test_the_cusp_kernel_is_pinned_and_fast(capsys):
    start = time.perf_counter()
    assert main(CUSP_KERNEL) == 0
    assert time.perf_counter() - start < CUSP_KERNEL_SECONDS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CUSP_KERNEL_SHA256


def test_certify_cusp_succeeds_and_verifies():
    result = run_cli("certify", "--preset", "cusp", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["verified"] is True
    assert doc["terminal"] == 1
    assert doc["ring"]["vars"] == ["x", "y"]


def test_certify_plane_exit_code_three():
    result = run_cli("certify", "--preset", "plane")
    assert result.returncode == 3
    assert "free of rank 1" in result.stderr


def test_parse_error_exit_code_two():
    result = run_cli("certify", "--ring", '{"p":5,"vars":["x"],"generators":["x +"]}')
    assert result.returncode == 2
    assert "position" in result.stderr
    garbage = run_cli("certify", "--ring", "{not json")
    assert garbage.returncode == 2


def test_verify_tampered_certificate_exit_code_four(tmp_path):
    produced = run_cli("certify", "--preset", "cusp", "--format", "json")
    doc = json.loads(produced.stdout)
    del doc["verified"]
    doc["steps"][0]["out"]["terms"][0]["coef"] = 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    result = run_cli("certify", "--verify", str(bad))
    assert result.returncode == 4
    good = tmp_path / "good.json"
    produced_doc = json.loads(produced.stdout)
    del produced_doc["verified"]
    good.write_text(json.dumps(produced_doc))
    assert run_cli("certify", "--verify", str(good)).returncode == 0


def test_ring_from_stdin():
    doc = json.dumps({"p": 5, "vars": ["x", "y"], "generators": ["x*y"]})
    result = run_cli("dim", "--ring", "-", stdin_text=doc)
    assert result.returncode == 0
    assert result.stdout.strip() == "1"


def test_witt_subcommands():
    add = run_cli("witt", "add", "--p", "2", "--x", "1;0", "--y", "1;0")
    assert add.returncode == 0
    assert add.stdout.strip() == "(0, 1)"
    ghost = run_cli("witt", "ghost", "--integer", "--p", "2", "--x", "0;1")
    assert ghost.stdout.strip() == "(0, 2)"
    teich = run_cli(
        "witt", "teich", "--p", "2", "--level", "3", "--g", "x",
        "--ring", '{"p":2,"vars":["x"],"generators":[]}',
    )
    assert teich.stdout.strip() == "(x, 0, 0)"
    frob = run_cli(
        "witt", "check-frobenius", "--p", "3", "--level", "3", "--g", "x + y",
        "--ring", '{"p":3,"vars":["x","y"],"generators":["y^2 - x^3"]}',
    )
    assert frob.returncode == 0
    assert "true" in frob.stdout
    bad = run_cli("witt", "add", "--p", "2", "--x", "1;~", "--y", "0;0")
    assert bad.returncode == 2


def test_closure_kernel_omega_subcommands():
    closure = run_cli("closure", "--preset", "cusp", "--format", "json")
    doc = json.loads(closure.stdout)
    assert doc["fixpoint"] is True
    assert [t["terms"] for t in doc["basis"]] == [[{"exp": [0, 0], "coef": 1}]]

    kernel = run_cli("kernel", "--preset", "node", "--elements", "x, y", "--format", "json")
    kdoc = json.loads(kernel.stdout)
    assert kdoc["vars"] == ["t1", "t2"]
    assert len(kdoc["basis"]) == 1

    omega = run_cli("omega-top", "--preset", "cusp", "--coeff", "y")
    assert omega.returncode == 0
    assert "true" in omega.stdout


def _witt_golden_commands():
    """witt add/mul/neg/frobenius/check-frobenius over F_p, F_p[x]/(x^3)
    and the cusp at p = 2, 3, 5; operands with zero leading coordinates
    and, over F_p and x^3, at level 4."""
    rings = {
        "fp": ([], ("1;0;2", "2;1;1", "0;1;1"), ("3;1;0;2", "1;0;4;1"), "2"),
        "x3": (None, ("x;1;x^2", "x + 1;x;0", "0;x^2;1"), ("x + 2;0;x;1", "1;x^2;0;x"), "x + 1"),
        "cusp": (["--preset", "cusp"], ("x;y;x*y", "y + 1;x;0", "0;x^2;y"), (), "x + y"),
    }
    for p in (2, 3, 5):
        for flags, (a, b, c), deep, g in rings.values():
            if flags is None:
                flags = ["--ring", json.dumps({"p": p, "vars": ["x"], "generators": ["x^3"]})]
            base = ["--p", str(p), *flags]
            for op in ("add", "mul"):
                for x, y in ((a, b), (c, b), (b, c), (c, c), *([deep] if deep else [])):
                    yield ["witt", op, *base, "--x", x, "--y", y]
            for x in (a, b, c, *deep):
                yield ["witt", "neg", *base, "--x", x]
                yield ["witt", "frobenius", *base, "--x", x]
            yield ["witt", "check-frobenius", *base, "--level", "3", "--g", g]


# sha256 over the stdout of every command above, computed while every
# characteristic-p Witt op still evaluated the universal tables.
WITT_GOLDEN_DIGEST = "09825145a719046ec1803eecf3d647a94aff01014000e431d9ec82b73f47896e"


def test_witt_outputs_are_pinned():
    digest = hashlib.sha256()
    for argv in _witt_golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == WITT_GOLDEN_DIGEST


def _witt_integer_golden_commands():
    """witt add/mul/neg/frobenius/ghost --integer at p = 2, 3, 5 and levels
    2-4, on operands with zero and negative leading coordinates (passed as
    --x=... so that argparse does not read "-2;4" as a flag)."""
    operands = {
        2: ("3;-1", "0;5", "-2;4"),
        3: ("1;-2;3", "0;4;-1", "-3;0;2"),
        4: ("2;-1;0;3", "0;0;1;-2", "-1;3;-2;1"),
    }
    for p in (2, 3, 5):
        for a, b, c in operands.values():
            base = ["--integer", "--p", str(p)]
            for op in ("add", "mul"):
                for x, y in ((a, b), (b, c), (c, a), (c, c)):
                    yield ["witt", op, *base, f"--x={x}", f"--y={y}"]
            for x in (a, b, c):
                for op in ("neg", "frobenius", "ghost"):
                    yield ["witt", op, *base, f"--x={x}"]


# sha256 over the stdout of every command above, computed while integer
# Witt ops still evaluated the universal tables.
WITT_INTEGER_GOLDEN_DIGEST = "0da596b40717a499ffb35baa5e475b87c5f256e31c22654b96c080d3afbcf602"


def test_witt_integer_outputs_are_pinned():
    digest = hashlib.sha256()
    for argv in _witt_integer_golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == WITT_INTEGER_GOLDEN_DIGEST


@pytest.mark.parametrize("args,message", [
    (["--p", "17", "--x", "1;2", "--y", "3;4"],
     "table for (p=17, r=2) exceeds the default caps (p <= 13, r <= 6)"),
    # the level of add comes from the operands
    (["--x", "1;2;3;4;0;1;2", "--y", "1;1;1;1;1;1;1"],
     "table for (p=5, r=7) exceeds the default caps (p <= 13, r <= 6)"),
])
def test_witt_add_beyond_the_caps_exits_two(args, message):
    result = run_cli("witt", "add", *args)
    assert result.returncode == 2
    assert result.stderr == f"invalid input: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["teich", "--level", "7", "--g", "1"],
     "table for (p=5, r=7) exceeds the default caps (p <= 13, r <= 6)"),
    # the ghost level comes from the operand; x_0^(13^6) alone has 6.2M digits
    (["ghost", "--integer", "--p", "13", "--x", "2;0;0;0;0;0;0"],
     "table for (p=13, r=7) exceeds the default caps (p <= 13, r <= 6)"),
])
def test_witt_levels_beyond_the_caps_exit_two(args, message):
    result = run_cli("witt", *args)
    assert result.returncode == 2
    assert result.stderr == f"invalid input: {message}\n"
    assert result.stdout == ""


def test_witt_ghost_refuses_a_component_too_long_to_print_at_once(capsys):
    # w_4 = 2^(13^4) has 8,598 digits; w_5 = 2^(13^5) would have 111,771
    start = time.perf_counter()
    assert main(["witt", "ghost", "--integer", "--p", "13", "--x", "2;0;0;0;0;0"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "",
        "invalid input: ghost component w_4 would have about 8599 digits, "
        "more than the 4300 that integers may print\n",
    )


def test_witt_check_frobenius_refuses_a_huge_level_at_once(capsys):
    start = time.perf_counter()
    assert main(["witt", "check-frobenius", "--preset", "cusp", "--g", "x", "--level", "100000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "invalid input: table for (p=5, r=100000) exceeds the default caps "
        "(p <= 13, r <= 6)\n"
    )


def test_the_digit_limit_does_not_follow_the_interpreter_setting(monkeypatch):
    # w_3 = 1000^(13^3) has 6,592 digits; with no limit, w_5 has 1.1M and takes minutes
    argv = ("witt", "add", "--integer", "--p", "13", "--x", "1000;0;0;0;0;0", "--y", "1;0;0;0;0;0")
    results = []
    for setting in (None, "0"):
        if setting is None:
            monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
        else:
            monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", setting)
        start = time.perf_counter()
        result = run_cli(*argv, timeout=10)  # without the digit check the sum runs for minutes
        assert time.perf_counter() - start < 1.0, setting
        results.append((result.returncode, result.stdout, result.stderr))
    assert results[0] == results[1] == (
        2, "", f"invalid input: ghost component w_3 would have about 6592 digits, {PRINT_LIMIT}\n")


def test_witt_frobenius_at_level_one_exits_two():
    result = run_cli("witt", "frobenius", "--x", "3")
    assert result.returncode == 2
    assert result.stderr == "invalid input: Frobenius maps W_r to W_(r-1), so it needs level >= 2\n"


PRINT_LIMIT = "more than the 4300 that integers may print"


@pytest.mark.parametrize("argv,message", [
    (["add", "--x", "2;0;0;0;0", "--y", "2;0;0;0;0"], "ghost component w_4 would have about 8599 digits"),
    (["mul", "--x", "2;3;0;0;0;0", "--y", "3;2;0;0;0;0"], "ghost component w_4 would have about 8599 digits"),
    # operands within the limit, a result past it: 1 + 1 = 2 has coordinates
    # that grow like 2^(p^i)
    (["add", "--x", "1;0;0;0;0", "--y", "1;0;0;0;0"], "coordinate x_4 of the result has about 8594 digits"),
    (["mul", "--x", "1;1;1;1;1;1", "--y", "1;1;1;1;1;1"], "coordinate x_5 of the result has about 33586 digits"),
    (["frobenius", "--x", "1;1;1;1;1;1"], "coordinate x_4 of the result has about 32731 digits"),
], ids=["add-r5", "mul-r6", "add-ones-r5", "mul-ones-r6", "frobenius-ones-r6"])
def test_integer_witt_at_p13_finishes_at_once(argv, message, capsys):
    start = time.perf_counter()
    assert main(["witt", argv[0], "--integer", "--p", "13", *argv[1:]]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"invalid input: {message}, {PRINT_LIMIT}\n")


def test_the_first_fp_addition_at_p13_finishes_at_once(capsys):
    """The first addition builds the eta rows at (13, 4): 3.6-5.1 s over Z."""
    wittvec._eta_polys.cache_clear()
    start = time.perf_counter()
    assert main(["witt", "add", "--p", "13", "--x", "1;1;1;1", "--y", "1;1;1;1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("(2, 9, 11, 0)\n", "")


def test_integer_results_print_up_to_the_limit(capsys):
    # 2^14284 has 4300 digits, though its bit length reads as 4301; 10^4300 has 4301
    assert main(["witt", "mul", "--integer", "--x", str(2 ** 7142), "--y", str(2 ** 7142)]) == 0
    assert capsys.readouterr() == (f"({2 ** 14284})\n", "")
    assert main(["witt", "mul", "--integer", "--x", str(2 ** 4300), "--y", str(5 ** 4300)]) == 2
    message = f"invalid input: coordinate x_0 of the result has about 4301 digits, {PRINT_LIMIT}\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("op", cli.GHOST_ROUTED)
def test_an_integer_operand_past_the_print_limit_exits_two_before_computing(op, monkeypatch, capsys):
    def refuse(x):
        raise AssertionError("computed on an operand the print limit refuses")

    monkeypatch.setattr(wittvec, "ghost", refuse)
    x = str(10 ** 40) + ";0;0;0"  # w_3 = x_0^125 has 5001 digits
    operands = ["--x", x, "--y", "0;0;0;0"] if op in ("add", "mul") else ["--x", x]
    assert main(["witt", op, "--integer", "--p", "5", *operands]) == 2
    message = f"invalid input: ghost component w_3 would have about 5001 digits, {PRINT_LIMIT}\n"
    assert capsys.readouterr() == ("", message)


LONG = "1" * 4301  # one digit more than Python reads from a decimal string by default


@pytest.mark.parametrize("argv,message", [
    (["witt", "add", "--integer", "--x", LONG, "--y", "1"],
     "invalid input: --x coordinate 0 has 4301 digits, more than the 4300 that integers may read"),
    (["dim", "--ring", '{"p":5,"vars":["x"],"generators":["%s*x"]}' % LONG],
     "parse error: integer literal of 4301 digits is too long (at position 0)"),
    (["omega-top", "--preset", "cusp", "--coeff", "x^" + LONG],
     "parse error: integer literal of 4301 digits is too long (at position 2)"),
    (["dim", "--ring", '{"p":5,"vars":["x"],"generators":[{"terms":[{"exp":[1],"coef":-%s}]}]}' % LONG],
     "invalid input: a JSON integer has 4301 digits, more than the 4300 that integers may read"),
], ids=["witt-integer-operand", "polynomial-coefficient", "polynomial-exponent", "json-number"])
def test_an_integer_literal_past_the_digit_limit_is_named_by_its_length(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_dieudonne_check_passes_on_a1_and_fails_on_adversarial():
    ok = run_cli(
        "dieudonne-check", "--model", "a1", "--p", "2", "--wmax", "4", "--coeff-exp", "3"
    )
    assert ok.returncode == 0
    assert "overall: pass" in ok.stdout

    adversarial = run_cli(
        "dieudonne-check", "--model-file", str(ROOT / "tests/data/nonsaturated_model.json")
    )
    assert adversarial.returncode == 4
    assert "overall: FAIL" in adversarial.stdout
    assert "saturation: FAIL" in adversarial.stdout


# sha256 of the JSON report on the adversarial model at r = 2, computed
# before the checkers moved to Howell membership and one preimage helper.
ADVERSARIAL_REPORT_DIGEST = "4d0f7bea06b79aec094672e9dcbf1e5cf527a37664489ec9bf2ac6218b8bd335"


def test_adversarial_model_report_is_pinned():
    result = run_cli(
        "dieudonne-check", "--model-file", str(ROOT / "tests/data/nonsaturated_model.json"),
        "--r", "2", "--format", "json",
    )
    assert result.returncode == 4, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == ADVERSARIAL_REPORT_DIGEST


def test_dieudonne_check_at_level_three_with_small_exponent():
    # products that vanish mod p^N (V^3(1) at p = 2, N = 3) once crashed this run
    result = run_cli(
        "dieudonne-check", "--model", "a1", "--p", "2", "--wmax", "4", "--coeff-exp", "3",
        "--r", "3", "--rmax", "2",
    )
    assert result.returncode == 0, result.stderr
    assert "overall: pass" in result.stdout


@pytest.mark.parametrize("model", ["zero", "trivial", "a1"])
def test_dieudonne_check_refuses_a_level_above_n_before_any_check(model, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a checker ran on a level the model does not have")

    for name in ("check_axioms", "saturation_witness", "f_cancellation_check"):
        monkeypatch.setattr(dieudonne, name, refuse)
    start = time.perf_counter()
    assert main(["dieudonne-check", "--model", model, "--r", "1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "invalid input: need 1 <= r <= N = 2\n")


def _commands_with_format(parser, prefix=()):
    """The argv prefix of every leaf subcommand whose parser takes --format."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        if "--format" in parser._option_string_actions:
            yield prefix
        return
    for name, sub in subparsers[0].choices.items():
        yield from _commands_with_format(sub, prefix + (name,))


# operands of a valid invocation of each witt operation, and the domain of
# the two that F_p does not serve
WITT_JSON_OPERANDS = {"--x": "1;2", "--y": "3;4", "--g": "2"}
WITT_JSON_DOMAINS = {"ghost": ["--integer"], "check-frobenius": ["--preset", "cusp"]}


def _json_invocation(command):
    if command[0] != "witt":
        return SUBCOMMANDS[command[0]][0]
    op = command[1]
    flags = ["--" + flag for flag in WITT_OPERATIONS[op][0] if flag != "level"]
    operands = [a for flag in flags for a in (flag, WITT_JSON_OPERANDS[flag])]
    return ["witt", op, *operands, *WITT_JSON_DOMAINS.get(op, [])]


@pytest.mark.parametrize("argv,message", [
    (["--model", "trivial", "--r", "0"], "need 1 <= r <= N = 2"),
    (["--r", "-3", "--rmax", "-1"], "need 1 <= r <= N = 2"),
    (["--model", "trivial", "--rmax", "0"], "need rmax >= 1"),
])
def test_dieudonne_check_refuses_levels_below_one_before_any_check(argv, message, monkeypatch, capsys):
    """These once printed `overall: pass` after running no level check."""
    def refuse(*args):
        raise AssertionError("a checker ran on a level below one")

    for name in ("check_axioms", "saturation_witness", "f_cancellation_check"):
        monkeypatch.setattr(dieudonne, name, refuse)
    assert main(["dieudonne-check", *argv]) == 2
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")


def test_json_outputs_reparse(capsys):
    """Every subcommand and witt operation that takes --format prints one JSON document under it."""
    commands = list(_commands_with_format(build_parser()))
    assert len(commands) == len(SUBCOMMANDS) - 2 + len(WITT_OPERATIONS)  # all but witt and battery
    for command in commands:
        argv = [*_json_invocation(command), "--format", "json"]
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out.count("\n") == 1, argv
        json.loads(out)


def test_repeated_runs_are_byte_identical():
    for args in [
        ("battery", "--seed", "3", "--p", "5"),
        ("certify", "--preset", "cusp", "--format", "json"),
        ("dieudonne-check", "--model", "a1", "--p", "2", "--wmax", "3", "--coeff-exp", "3", "--format", "json"),
    ]:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


def test_closure_of_zero_ideal_is_zero():
    result = run_cli("closure", "--preset", "plane")
    assert result.returncode == 0
    assert "(0)" in result.stdout
    assert "generations: 0" in result.stdout


def test_missing_presentation_is_parse_error():
    assert run_cli("dim").returncode == 2


def test_witt_takes_the_prime_from_the_ring():
    ring = '{"p":3,"vars":["x"],"generators":[]}'
    for extra in ((), ("--p", "5"), ("--p", "3")):
        result = run_cli("witt", "add", *extra, "--ring", ring, "--x", "x;0", "--y", "x;0")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "(2*x, x^3)"
    frob = run_cli("witt", "check-frobenius", "--level", "3", "--g", "x + y",
                   "--ring", '{"p":3,"vars":["x","y"],"generators":["y^2 - x^3"]}')
    assert frob.returncode == 0, frob.stderr
    assert "true" in frob.stdout


MALFORMED_RINGS = [
    '{"vars":["x"],"generators":[]}',
    '{"p":5,"generators":[]}',
    '{"p":5,"vars":["x"],"generators":[3]}',
    '{"p":5,"vars":["x"],"generators":[{"terms":[{"exp":[1]}]}]}',
    '{"p":5,"vars":[1],"generators":[]}',
    '{"p":5,"vars":["x"],"generators":5}',
    '[1]',
]


@pytest.mark.parametrize("ring", MALFORMED_RINGS)
def test_malformed_ring_json_exits_two(ring):
    result = run_cli("certify", "--ring", ring)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "malformed ring document" in result.stderr


def test_malformed_certificate_json_exits_two(tmp_path):
    produced = json.loads(run_cli("certify", "--preset", "cusp", "--format", "json").stdout)
    broken = []
    for ring in MALFORMED_RINGS:
        doc = dict(produced)
        doc["ring"] = json.loads(ring)
        broken.append(doc)
    broken.append({k: v for k, v in produced.items() if k != "steps"})
    broken.append(dict(produced, steps=[3]))
    # a partial step whose variable index is not an integer, and an unknown op
    for key, value in (("var", "0"), ("var", 1.5), ("var", [0]), ("var", True), ("op", "bogus")):
        doc = json.loads(json.dumps(produced))
        doc["steps"][0][key] = value
        broken.append(doc)
    for i, doc in enumerate(broken):
        path = tmp_path / f"broken{i}.json"
        path.write_text(json.dumps(doc))
        result = run_cli("certify", "--verify", str(path))
        assert result.returncode == 2, (doc, result.stderr)
        assert "Traceback" not in result.stderr
        assert "malformed" in result.stderr


MALFORMED_MODELS = [
    '{"p": 2}',
    '{"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0}]}',
    '[1]',
    '{"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0, "weight": [0, 0]}], "d": {"a": 5}}',
    '{"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0, "weight": [1]}]}',
    '{"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0, "weight": [0, 0]}], "d": {"a": {"a": "x"}}}',
    '{"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0, "weight": [0, 0]}], "d": [1]}',
]


@pytest.mark.parametrize("model", MALFORMED_MODELS)
def test_malformed_model_json_exits_two(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(model)
    result = run_cli("dieudonne-check", "--model-file", str(path))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


def _nonsaturated_model() -> dict:
    return json.loads((ROOT / "tests/data/nonsaturated_model.json").read_text())


def _loose_documents():
    """(flag, document) pairs that loaded, and ran, before their fields were
    read strictly: a map given as [label, row] pairs, a number for a basis
    label, and provenance entries that are not strings."""
    model = _nonsaturated_model()
    yield "--model-file", dict(model, d=[[label, row] for label, row in model["d"].items()])
    yield "--model-file", {"p": 2, "N": 3, "basis": [{"label": 1, "degree": 0, "weight": [0, 0]}], "d": {"1": {}}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["certify", "--preset", "cusp", "--format", "json"]) == 0
    yield "--verify", dict(json.loads(out.getvalue()), provenance=[1, {}])


@pytest.mark.parametrize("flag,doc", list(_loose_documents()), ids=["map-as-pairs", "number-label", "provenance"])
def test_a_field_of_the_wrong_json_type_is_malformed(flag, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "certify" if flag == "--verify" else "dieudonne-check"
    assert main([command, flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid input: malformed"), err


@pytest.mark.parametrize("argv,message", [
    # a variable name the parser cannot read back: "^2" would print as a seed
    (["certify", "--ring", '{"p":5,"vars":[""],"generators":[{"terms":[{"exp":[2],"coef":1}]}]}'],
     "variable name ''"),
    (["dim", "--ring", '{"p":5,"vars":["x","x^2"],"generators":[]}'], "variable name 'x^2'"),
    (["dieudonne-check", "--vdepth", "-1", "--wmax", "2"], "V-depth must be >= 0, got -1"),
])
def test_an_input_that_would_print_nonsense_exits_two(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid input: ") and message in err, err


def test_a_negative_depth_cap_in_a_model_document_exits_two(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(_nonsaturated_model(), depth_cap=-1)))
    assert main(["dieudonne-check", "--model-file", str(path)]) == 2
    assert capsys.readouterr() == ("", "invalid input: depth cap must be >= 0, got -1\n")


UNBOUNDED_MODELS = {
    # trial division on a prime near 2^61 would take minutes
    "p": {"p": 2 ** 61 - 1, "N": 3, "basis": []},
    "N": {"p": 2, "N": 10 ** 9, "basis": []},
    "weight": {"p": 2, "N": 3, "basis": [{"label": "a", "degree": 0, "weight": [1, 10 ** 9]}]},
    "weight_cap": {"p": 2, "N": 3, "basis": [], "weight_cap": [1, 10 ** 9]},
}


@pytest.mark.parametrize("field", sorted(UNBOUNDED_MODELS))
def test_unbounded_model_json_exits_two_at_once(field, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(UNBOUNDED_MODELS[field]))
    start = time.perf_counter()
    assert main(["dieudonne-check", "--model-file", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    # about wmax * p^depth = 4 * 13^6, 10^7 basis elements
    ["--model", "a1", "--p", "13", "--wmax", "4", "--vdepth", "6"],
    ["--model", "a1", "--p", "2", "--wmax", "4", "--vdepth", "1000000000"],
    ["--model", "a1", "--p", "2", "--wmax", "1000000000000"],
    # the depth defaults to N, and p^N is computed before the model is built
    ["--model", "a1", "--p", "5", "--coeff-exp", "1000000000", "--vdepth", "2"],
    ["--model", "trivial", "--p", "5", "--coeff-exp", "1000000000"],
])
def test_oversized_model_flags_exit_two_at_once(flags, capsys):
    start = time.perf_counter()
    assert main(["dieudonne-check", *flags]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the cap" in capsys.readouterr().err


# -- per-subcommand flags -------------------------------------------------------

# a valid invocation of each subcommand, and the flags it does not take
SUBCOMMANDS = {
    "witt": (["witt", "add", "--x", "1", "--y", "1"], ["--coeff-exp", "--seed"]),
    "certify": (["certify", "--preset", "cusp"], ["--coeff-exp", "--seed"]),
    "closure": (["closure", "--preset", "cusp"], ["--coeff-exp", "--seed"]),
    "kernel": (["kernel", "--preset", "cusp", "--elements", "x"], ["--coeff-exp", "--seed"]),
    "dim": (["dim", "--preset", "cusp"], ["--coeff-exp", "--seed"]),
    "omega-top": (["omega-top", "--preset", "cusp"], ["--coeff-exp", "--seed"]),
    "dieudonne-check": (["dieudonne-check", "--model", "trivial"], ["--order", "--preset", "--ring", "--seed"]),
    "battery": (["battery"], ["--format", "--order", "--preset", "--ring", "--coeff-exp"]),
}
FLAG_VALUES = {"--format": "json", "--order": "lex", "--preset": "cusp", "--ring": "{}", "--coeff-exp": "3",
               "--seed": "1"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, refused) in SUBCOMMANDS.items() for flag in refused
])
def test_a_flag_the_subcommand_does_not_read_exits_two(command, flag, capsys):
    argv, _ = SUBCOMMANDS[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_prime_out_of_range_exits_two(command, capsys):
    argv, _ = SUBCOMMANDS[command]
    assert main([*argv, "--p", "1"]) == 2
    assert capsys.readouterr() == ("", "invalid input: p must satisfy 2 <= p < 2^16\n")


def test_a_coefficient_exponent_below_one_exits_two(capsys):
    assert main(["dieudonne-check", "--model", "trivial", "--coeff-exp", "0"]) == 2
    assert capsys.readouterr() == ("", "invalid input: coefficient exponent must be >= 1\n")


MODEL_FILE = str(ROOT / "tests" / "data" / "nonsaturated_model.json")


@pytest.mark.parametrize("flags,message", [
    (["--model", "trivial", "--vdepth", "-1", "--wmax", "-5"], "argument --wmax: not allowed with argument --model trivial"),
    (["--model", "zero", "--vdepth", "2"], "argument --vdepth: not allowed with argument --model zero"),
    (["--model-file", MODEL_FILE, "--wmax", "4"], "argument --wmax: not allowed with argument --model-file"),
    (["--model-file", MODEL_FILE, "--vdepth", "1"], "argument --vdepth: not allowed with argument --model-file"),
    (["--model-file", MODEL_FILE, "--coeff-exp", "3"], "argument --coeff-exp: not allowed with argument --model-file"),
])
def test_a_flag_the_model_does_not_read_exits_two(flags, message, capsys):
    """--wmax and --vdepth shape the a1 model only, and a model file states
    its own coefficient exponent; the other models refuse them, at their
    defaults too."""
    with pytest.raises(SystemExit) as exc:
        main(["dieudonne-check", *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"wittcert dieudonne-check: error: {message}\n"), err


def test_the_a1_model_reads_its_flags_at_their_defaults(capsys):
    assert main(["dieudonne-check", "--p", "2", "--wmax", "4", "--vdepth", "1", "--coeff-exp", "2"]) == 0
    given = capsys.readouterr().out
    assert main(["dieudonne-check", "--model", "a1", "--p", "2", "--vdepth", "1"]) == 0
    assert capsys.readouterr().out == given


# -- witt operations and input sources ---------------------------------------------


def _readme_cli_section() -> str:
    return (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_witt_flags() -> dict:
    """{operation: flags} from the "- `witt op`: `--flag`, ..." lines of
    README's CLI section; each operation also takes WITT_COMMON_FLAGS."""
    flags = {}
    for line in _readme_cli_section().splitlines():
        if line.startswith("- `witt "):
            names, listed = line.split(":", 1)
            for op in re.findall(r"`witt ([a-z-]+)`", names):
                flags[op] = re.findall(r"`(--[a-z-]+)`", listed)
    return flags


WITT_COMMON_FLAGS = ["--p", "--format", "--order"]
README_WITT_FLAGS = _readme_witt_flags()
WITT_FLAGS = sorted({f for fs in README_WITT_FLAGS.values() for f in fs}.union(WITT_COMMON_FLAGS))
WITT_FLAG_VALUES = {
    "--p": ["3"], "--format": ["json"], "--order": ["lex"], "--integer": [],
    "--preset": ["cusp"], "--ring": ["{}"], "--x": ["1"], "--y": ["1"], "--g": ["1"], "--level": ["3"],
}


def test_readme_lists_the_flags_of_every_witt_operation(capsys):
    assert sorted(README_WITT_FLAGS) == sorted(WITT_OPERATIONS)
    taken = sum(len(fs) + len(WITT_COMMON_FLAGS) for fs in README_WITT_FLAGS.values())
    assert (len(README_WITT_FLAGS) * len(WITT_FLAGS), taken) == (80, 59)
    for op, flags in README_WITT_FLAGS.items():
        with pytest.raises(SystemExit):
            main(["witt", op, "--help"])
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == set(flags + WITT_COMMON_FLAGS), op


@pytest.mark.parametrize("op,flag", [(op, f) for op in README_WITT_FLAGS for f in WITT_FLAGS])
def test_a_witt_operation_takes_exactly_its_readme_flags(op, flag, capsys):
    required = [a for f in ("--x", "--y", "--g") if f in README_WITT_FLAGS[op] and f != flag
                for a in (f, "1")]
    extra = [flag, *WITT_FLAG_VALUES[flag]]
    argv = ["witt", op, *required, *extra]
    if flag in README_WITT_FLAGS[op] + WITT_COMMON_FLAGS:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


RING3 = '{"p":3,"vars":["x"],"generators":[]}'


@pytest.mark.parametrize("argv", [
    ["witt", "add", "--integer", "--ring", RING3, "--x", "1", "--y", "1"],
    ["witt", "teich", "--preset", "cusp", "--ring", RING3, "--g", "x"],
    ["closure", "--preset", "cusp", "--ring", RING3],
    ["certify", "--verify", "cert.json", "--preset", "node"],
    ["dieudonne-check", "--model", "trivial", "--model-file", "model.json"],
])
def test_two_input_sources_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_order_needs_a_presentation(capsys):
    for argv in (
        ["witt", "add", "--integer", "--x", "1", "--y", "1"],
        ["witt", "add", "--x", "1", "--y", "1"],
        ["certify", "--verify", "cert.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--order", "lex"])
        assert exc.value.code == 2
        assert "argument --order: not allowed without argument --preset or --ring" in (
            capsys.readouterr().err
        )
    assert main(["witt", "add", "--ring", RING3, "--order", "lex", "--x", "x", "--y", "1"]) == 0
    assert main(["dim", "--preset", "cusp", "--order", "lex"]) == 0


@pytest.mark.parametrize("argv", [
    ["dieudonne-check", "--model", "trivial", "--wmax", "3"],
    ["witt", "add", "--order", "lex", "--x", "1", "--y", "2"],
])
def test_a_refused_flag_prints_the_usage_of_its_subcommand(argv, capsys):
    """The usage printed names the subcommand that owns the flags."""
    command = " ".join(argv[: 2 if argv[0] == "witt" else 1])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[0].startswith(f"usage: wittcert {command} [-h] [--p P]")


@pytest.mark.parametrize("argv,message", [
    (["witt", "add", "--x", "1"], "the following arguments are required: --y"),
    (["witt", "teich"], "the following arguments are required: --g"),
    (["closure"], "one of the arguments --preset --ring is required"),
    (["certify"], "one of the arguments --verify --preset --ring is required"),
])
def test_a_missing_operand_or_source_exits_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# -- unreadable and undecodable inputs, closed outputs ------------------------------


@pytest.mark.parametrize("argv", [["certify", "--verify"], ["dieudonne-check", "--model-file"]])
def test_a_directory_as_input_file_exits_two(argv, tmp_path, capsys):
    assert main([*argv, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: [Errno 21] Is a directory")


@pytest.mark.parametrize("argv", [
    ["dim", "--ring", "-"],
    ["certify", "--verify", "deep.json"],
    ["dieudonne-check", "--model-file", "deep.json"],
])
def test_json_nested_too_deep_exits_two(argv, tmp_path, monkeypatch, capsys):
    deep = "[" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "parse error: document nested too deeply: line 1 column 1 (char 0)\n"
    )


@pytest.mark.parametrize("argv", [["dim", "--preset", "cusp"], ["battery", "--p", "5"]])
def test_a_closed_stdout_exits_141_in_silence(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child writes a byte
    try:
        result = run_cli(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")


class FullDisk(io.TextIOWrapper):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_write_exits_74(monkeypatch, capsys):
    with FullDisk(open(os.devnull, "wb")) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["dim", "--preset", "cusp"]) == 74
    assert capsys.readouterr().err == "write error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_stdout_to_a_full_device_exits_74_without_a_traceback():
    with open("/dev/full", "w") as full:
        result = run_cli("dim", "--preset", "cusp", stdout=full)
    assert (result.returncode, result.stderr) == (74, "write error: [Errno 28] No space left on device\n")


def test_readme_lists_every_exit_code():
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = text.split("Exit codes: ", 1)[1].split(". ", 1)[0]
    documented = {int(code) for code in re.findall(r"(?:^|, )(\d+) ", sentence)}
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert documented == codes


def test_a_recursion_error_in_the_library_is_not_a_parse_error(monkeypatch):
    from wittcert import vanish

    def recurse(presentation):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(vanish, "certify_top_vanishing", recurse)
    with pytest.raises(RecursionError):
        main(["certify", "--preset", "cusp"])


def test_witt_verschiebung_rejects_a_p_that_is_not_prime(capsys):
    assert main(["witt", "verschiebung", "--integer", "--p", "4", "--x", "1"]) == 2
    assert capsys.readouterr() == ("", "invalid input: 4 is not prime\n")
    # the level is not capped: V computes nothing
    assert main(["witt", "verschiebung", "--integer", "--p", "5", "--x", ";".join("1" * 40)]) == 0
    assert capsys.readouterr().out == "(" + ", ".join(["0"] + ["1"] * 40) + ")\n"


# -- README ------------------------------------------------------------------------

# README names these from the standard library, not from wittcert
README_STDLIB_NAMES = {"int", "sys.get_int_max_str_digits"}


def _readme_code_names():
    """Every backticked call form `name()` (the name) and dotted name
    `owner.attr` in README."""
    for span in re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text()):
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\(\)", span)
        if call or re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span):
            yield call.group(1) if call else span


def _has_attribute(owner, name: str) -> bool:
    """`name` is an attribute of `owner`, a dataclass field or a slot included."""
    return (hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})
            or name in getattr(owner, "__slots__", ()))


def test_readme_names_only_what_exists():
    modules = {info.name: importlib.import_module(f"wittcert.{info.name}")
               for info in pkgutil.iter_modules(wittcert.__path__) if info.name != "__main__"}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    owners = list(modules.values()) + list(classes.values())
    names = set(_readme_code_names())
    assert {"Ideal._built", "block", "vanish.kernel_of_tuple", "sys.get_int_max_str_digits"} <= names
    missing = []
    for name in sorted(names - README_STDLIB_NAMES):
        *owner, attr = name.split(".")
        if owner:  # module.name or Class.attr
            owners_named = [table[owner[0]] for table in (modules, classes) if len(owner) == 1 and owner[0] in table]
        else:
            owners_named = owners
        if not any(_has_attribute(candidate, attr) for candidate in owners_named):
            missing.append(name)
    assert missing == []


def _readme_cli_examples():
    """(argv, file that `>` sends stdout to, documented result) for every
    `wittcert` line of README's CLI section.  A trailing `# -> X` documents
    the stdout and `# exits N` the exit code; any other line exits 0."""
    for line in _readme_cli_section().replace("\\\n", " ").splitlines():
        line = line.strip()
        if not line.startswith("wittcert "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        target = None
        if ">" in argv:
            target = argv[argv.index(">") + 1]
            argv = argv[: argv.index(">")]
        documented = re.search(r"#\s*(->|exits)\s+(.+?)\s*$", line)
        yield argv, target, documented.groups() if documented else None


def test_readme_cli_examples_run_as_documented(tmp_path, monkeypatch, capsys):
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(ROOT / "tests/data/nonsaturated_model.json", tmp_path / "tests" / "data")
    monkeypatch.chdir(tmp_path)
    examples = list(_readme_cli_examples())
    assert len(examples) == 13
    for argv, target, documented in examples:
        code = main(argv)
        out = capsys.readouterr().out
        if target:
            (tmp_path / target).write_text(out)
        if documented and documented[0] == "exits":
            assert code == int(documented[1]), argv
        else:
            assert code == 0, argv
        if documented and documented[0] == "->":
            assert out.strip() == documented[1], argv
    # the certificate written by one example is the one the next verifies
    assert json.loads((tmp_path / "cert.json").read_text())["verified"] is True
