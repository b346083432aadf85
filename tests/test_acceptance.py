"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (bypassing
pytest capture) and enforces its runtime budget.  All algebra is exact,
so every comparison below is equality, never a tolerance.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from wittcert import dieudonne, vanish, wittvec
from wittcert.derham import PresentedRing
from wittcert.polyring import Ideal, PolyRing, Polynomial, parse_polynomial

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(capfd, number, description, limit_seconds):
    """Time a criterion and print its pass/fail line on the real stdout
    (capture is suspended just for the line, so it survives `pytest -v`)."""

    def announce(status, suffix=""):
        with capfd.disabled():
            print(f"ACCEPTANCE {number}: {status} - {description}{suffix}", flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    elapsed = time.perf_counter() - start
    announce("PASS", f" ({elapsed:.1f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s ({elapsed:.1f}s)"


def random_poly(rng, ring, max_degree, max_terms, nonzero=True):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(1, ring.p - 1)
    poly = Polynomial(ring, terms)
    if nonzero and poly.is_zero():
        return ring.variable(0)
    return poly


def test_criterion_1_witt_ghost_oracle_equivalence(capfd):
    grid = {
        (2, 1): 25, (2, 2): 25, (2, 3): 15, (2, 4): 15,
        (3, 1): 25, (3, 2): 20, (3, 3): 15, (3, 4): 10,
        (5, 1): 20, (5, 2): 14, (5, 3): 10, (5, 4): 6,
    }
    assert sum(grid.values()) == 200
    with criterion(capfd, 1, "ghost oracle equivalence for 200 random pairs, p in {2,3,5}, r <= 4", 10):
        domain = wittvec.IntegerCoefficients()
        rng = random.Random(20240101)
        for (p, r), pairs in sorted(grid.items()):
            for _ in range(pairs):
                x = wittvec.witt_vector(domain, p, [rng.randint(-20, 20) for _ in range(r)])
                y = wittvec.witt_vector(domain, p, [rng.randint(-20, 20) for _ in range(r)])
                gx, gy = wittvec.ghost(x), wittvec.ghost(y)
                assert wittvec.ghost(wittvec.witt_add(x, y)) == tuple(a + b for a, b in zip(gx, gy))
                assert wittvec.ghost(wittvec.witt_mul(x, y)) == tuple(a * b for a, b in zip(gx, gy))
                assert wittvec.ghost(wittvec.witt_neg(x)) == tuple(-a for a in gx)


def test_criterion_2_frobenius_of_multiplicative_lift(capfd):
    with criterion(capfd, 2, "F([g]) = [g^p] = [g]^p for 100 random g over k[x,y]/(y^2-x^3)", 10):
        rng = random.Random(20240202)
        checked = 0
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y"))
            presentation = PresentedRing.make(ring, [parse_polynomial("y^2 - x^3", ring)])
            domain = wittvec.PresentedCoefficients(presentation)
            for r in (2, 3):
                for _ in range(17):
                    g = presentation.normal(random_poly(rng, ring, 3, 2))
                    lift = wittvec.teichmuller(domain, g, r, p=p)
                    f_of_lift = wittvec.frobenius(lift)
                    lift_of_power = wittvec.teichmuller(
                        domain, presentation.normal(g ** p), r - 1, p=p
                    )
                    power_of_lift = wittvec.witt_one(domain, p, r)
                    for _ in range(p):
                        power_of_lift = wittvec.witt_mul(power_of_lift, lift)
                    truncated = wittvec.WittVector(p, r - 1, domain, power_of_lift.coords[: r - 1])
                    assert f_of_lift == lift_of_power == truncated
                    checked += 1
        assert checked >= 100


def test_criterion_3_certificates_for_random_ideals(capfd):
    with criterion(capfd, 3, "200 random nonzero ideals: certificates replay and closure is (1)", 60):
        rng = random.Random(20240303)
        done = 0
        index = 0
        while done < 200:
            p = (2, 3, 5)[index % 3]
            nvars = 1 + index % 3
            index += 1
            ring = PolyRing(p, tuple("xyz"[:nvars]))
            gens = [random_poly(rng, ring, 4, 3) for _ in range(rng.randint(1, 3))]
            presentation = PresentedRing.make(ring, gens)
            if presentation.is_zero_ideal():
                continue
            cert = vanish.certify_top_vanishing(presentation)
            assert vanish.verify_certificate(cert)
            closure = vanish.differential_p_closure(presentation.ideal)
            assert closure.contains_one()
            done += 1


def test_criterion_4_general_tuple_vanishing(capfd):
    with criterion(capfd, 4, "50 random low-dimensional rings: nonzero kernels, verified tuple certificates", 60):
        rng = random.Random(20240404)
        done = 0
        while done < 50:
            p = (2, 3, 5)[done % 3]
            ring = PolyRing(p, ("x", "y"))
            relation = random_poly(rng, ring, 3, 3)
            if relation.is_constant():
                continue
            presentation = PresentedRing.make(ring, [relation])
            if vanish.vanishing_degree_bound(presentation) >= 2:
                continue
            tup = [random_poly(rng, ring, 2, 2), random_poly(rng, ring, 2, 2)]
            kernel = vanish.kernel_of_tuple(presentation, tup)
            assert kernel.basis, "kernel unexpectedly zero below the degree bound"
            g, cert = vanish.certify_tuple_vanishing(presentation, tup)
            assert not g.is_zero()
            assert vanish.verify_certificate(cert)
            done += 1
        # negative control: the coordinate tuple on affine n-space is algebraically
        # independent, so the kernel must be zero
        for n in (1, 2, 3):
            ring = PolyRing(5, tuple(f"x{i}" for i in range(n)))
            affine = PresentedRing.make(ring, [])
            control = vanish.kernel_of_tuple(affine, [ring.variable(i) for i in range(n)])
            assert control.basis == ()


def test_criterion_5_dieudonne_model_checks(capfd):
    with criterion(capfd, 5, "A^1 model: axioms, level quotients vs cohomology, cancellation, propagation", 120):
        for p in (2, 3):
            model = dieudonne.a1_model(p, 6, 4)
            axioms = dieudonne.check_axioms(model)
            assert axioms.passed, axioms.violations
            saturation = dieudonne.saturation_witness(model)
            assert saturation.passed, saturation.violations
            for r in (1, 2, 3):
                cancellation = dieudonne.f_cancellation_check(model, r)
                assert cancellation.passed, cancellation.violations
                for degree in (0, 1, 2):
                    compared = dieudonne.compare_wr_with_cohomology(model, degree, r)
                    assert compared.passed, compared.violations
                    if degree <= 1:
                        assert compared.checked > 0
            for degree in (0, 1):
                propagation = dieudonne.w1_vanishing_propagation_check(model, degree, 3)
                assert propagation.passed, propagation.violations
            injectivity = dieudonne.frobenius_injectivity_degree0_check(model)
            assert injectivity.passed, injectivity.violations


def test_criterion_6_adversarial_model_has_teeth(capfd):
    with criterion(capfd, 6, "hand-written non-saturated model: checker reports a genuine failure", 30):
        with open(DATA / "nonsaturated_model.json", "r", encoding="utf-8") as fh:
            model = dieudonne.DieudonneModel.from_json(json.load(fh))
        axioms = dieudonne.check_axioms(model)
        assert axioms.passed, "the adversarial model must satisfy the axioms where defined"
        saturation = dieudonne.saturation_witness(model)
        cancellation = dieudonne.f_cancellation_check(model, 1)
        assert (not saturation.passed) or (not cancellation.passed)
        assert saturation.violations, "expected an interior saturation failure with a witness"
        assert all("witness" in v for v in saturation.violations)


def test_criterion_7_degree_bound_consistency(capfd):
    with criterion(capfd, 7, "degree bounds: cusp 1, node 1, plane 2, affine n-space n, unit ideal -1", 30):
        def bound(names, gens, p=5):
            ring = PolyRing(p, names)
            return vanish.vanishing_degree_bound(
                PresentedRing.make(ring, [parse_polynomial(g, ring) for g in gens])
            )

        assert bound(("x", "y"), ["y^2 - x^3"]) == 1
        assert bound(("x", "y"), ["x*y"]) == 1
        assert bound(("x", "y"), []) == 2
        for n in (1, 2, 3, 4):
            assert bound(tuple(f"x{i}" for i in range(n)), []) == n
        assert bound(("x", "y"), ["1"]) == -1


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "wittcert", *args],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )


def test_criterion_8_cli_battery_is_deterministic(capfd):
    with criterion(capfd, 8, "CLI battery twice with one seed: byte-identical transcripts", 120):
        battery = [
            ("battery", "--seed", "11", "--p", "5"),
            ("battery", "--seed", "11", "--p", "2"),
            ("certify", "--preset", "cusp", "--format", "json"),
            ("closure", "--preset", "node", "--format", "json"),
            ("kernel", "--preset", "cusp", "--elements", "x,y", "--format", "json"),
            ("dieudonne-check", "--model", "a1", "--p", "2", "--wmax", "4",
             "--coeff-exp", "3", "--format", "json"),
            ("witt", "add", "--p", "3", "--x", "1;2;0", "--y", "2;1;1"),
        ]
        first = [_run_cli(*args) for args in battery]
        second = [_run_cli(*args) for args in battery]
        for args, a, b in zip(battery, first, second):
            assert a.returncode == b.returncode, args
            assert a.stdout == b.stdout, args
            assert a.stderr == b.stderr, args
        assert all(r.returncode == 0 for r in first)
