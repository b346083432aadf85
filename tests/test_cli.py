"""CLI surface: exit codes, JSON round trips, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittcert.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, stdin_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "wittcert", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
        cwd=ROOT,
    )


def test_dim_presets():
    for preset, expected in [("cusp", "1"), ("node", "1"), ("plane", "2")]:
        result = run_cli("dim", "--preset", preset)
        assert result.returncode == 0
        assert result.stdout.strip() == expected


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
    add = run_cli("witt", "add", "--p", "2", "--level", "2", "--x", "1;0", "--y", "1;0")
    assert add.returncode == 0
    assert add.stdout.strip() == "(0, 1)"
    ghost = run_cli("witt", "ghost", "--integer", "--p", "2", "--level", "2", "--x", "0;1")
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
    bad = run_cli("witt", "add", "--p", "2", "--level", "2", "--x", "1;~", "--y", "0;0")
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


@pytest.mark.parametrize("args,message", [
    (["--p", "17", "--x", "1;2", "--y", "3;4"],
     "table for (p=17, r=2) exceeds the default caps (p <= 13, r <= 6); pass allow_large=True"),
    # the level of add comes from the operands; --level alone does not set it
    (["--level", "7", "--x", "1;2;3;4;0;1;2", "--y", "1;1;1;1;1;1;1"],
     "table for (p=5, r=7) exceeds the default caps (p <= 13, r <= 6); pass allow_large=True"),
])
def test_witt_add_beyond_the_caps_exits_two(args, message):
    result = run_cli("witt", "add", *args)
    assert result.returncode == 2
    assert result.stderr == f"invalid input: {message}\n"


def test_witt_frobenius_at_level_one_exits_two():
    result = run_cli("witt", "frobenius", "--level", "1", "--x", "3")
    assert result.returncode == 2
    assert result.stderr == (
        "invalid input: table Frobenius needs level >= 2; "
        "use frobenius_coordinatewise over an F_p-algebra\n"
    )


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


def test_json_outputs_reparse():
    for args in [
        ("certify", "--preset", "cusp", "--format", "json"),
        ("closure", "--preset", "node", "--format", "json"),
        ("dim", "--preset", "plane", "--format", "json"),
        ("omega-top", "--preset", "cusp", "--format", "json"),
        ("dieudonne-check", "--model", "trivial", "--format", "json"),
    ]:
        result = run_cli(*args)
        assert result.returncode == 0
        json.loads(result.stdout)


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
