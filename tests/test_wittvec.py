"""Witt vector arithmetic against the ghost-component oracle.

The universal tables are checked twice over: formally (the ghost
identities hold as polynomial identities for small p, r) and numerically
(integer-coordinate vectors, where the ghost map must be a ring
homomorphism on the nose).  The tables are then the oracle for the
arithmetic itself, which never builds them: over Z it computes on ghost
components, over F_p-algebras from Teichmuller lifts and Verschiebung.
`eval_table` below, a term-by-term evaluation, is the oracle's evaluator.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittcert import wittvec
from wittcert.derham import PresentedRing
from wittcert.polyring import PolyRing, Polynomial, parse_polynomial, terms_add, terms_mul, terms_scale
from wittcert.wittvec import (
    IntegerCoefficients,
    PresentedCoefficients,
    WittVector,
    build_witt_table,
    frobenius,
    ghost,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_to_json,
    witt_vector,
    _eta_polys,
    _eval_eta,
    _ghost_poly,
    _solve_coordinates,
)

Z = IntegerCoefficients()
SRC = Path(__file__).resolve().parent.parent / "src"


def eval_table(polys, args, domain) -> tuple:
    """Evaluate integer-coefficient polynomials on domain elements term by
    term, sharing the powers of each argument between the polynomials.  A
    term that is zero in the domain, by its coefficient or by a positive
    power of a zero argument, adds nothing and is skipped."""
    mul, add, from_int = domain.mul, domain.add, domain.from_int
    zero = domain.zero()
    zero_args = [i for i, a in enumerate(args) if a == zero]
    ladders = [[domain.one(), a] for a in args]
    out = []
    for poly in polys:
        acc = zero
        for exp, coef in poly.items():
            term = from_int(coef)
            if term == zero or any(exp[i] for i in zero_args):
                continue
            for ladder, e in zip(ladders, exp):
                if e:
                    while len(ladder) <= e:
                        ladder.append(mul(ladder[-1], ladder[1]))
                    term = mul(term, ladder[e])
            acc = add(acc, term)
        out.append(acc)
    return tuple(out)


def fp_quotient(p, relation_text=None, names=()):
    ring = PolyRing(p, names)
    gens = [parse_polynomial(relation_text, ring)] if relation_text else []
    return PresentedCoefficients(PresentedRing.make(ring, gens))


TEST_RINGS = {
    "prime_field": lambda p: fp_quotient(p),
    "x3": lambda p: fp_quotient(p, "x^3", ("x",)),
    "cusp": lambda p: fp_quotient(p, "y^2 - x^3", ("x", "y")),
}


def random_element(rng, domain, max_degree=2):
    ring = domain.presentation.ring
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            if ring.nvars:
                exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(0, ring.p - 1)
    return domain.presentation.normal(Polynomial(ring, terms))


def random_witt(rng, domain, p, r):
    if isinstance(domain, IntegerCoefficients):
        return witt_vector(domain, p, [rng.randint(-15, 15) for _ in range(r)])
    return witt_vector(domain, p, [random_element(rng, domain) for _ in range(r)])


# -- table construction ---------------------------------------------------------


def test_table_base_cases():
    for p in (2, 3, 5):
        t = build_witt_table(p, 2)
        assert t.sum_polys[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}  # S0 = a0 + b0
        assert t.prod_polys[0] == {(1, 0, 1, 0): 1}  # P0 = a0*b0


def test_table_level_one_examples():
    t2 = build_witt_table(2, 2)
    # S1 = a1 + b1 - a0*b0, solved from (a0+b0)^2 + 2 S1 = a0^2 + 2a1 + b0^2 + 2b1
    assert t2.sum_polys[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}
    t3 = build_witt_table(3, 2)
    assert t3.prod_polys[1] == {(3, 0, 0, 1): 1, (0, 1, 3, 0): 1, (0, 1, 0, 1): 3}


@pytest.mark.parametrize("p,r", [(2, 3), (3, 3), (5, 2), (2, 4), (3, 4)])
def test_ghost_identities_hold_formally(p, r):
    """w_i(S) = w_i(a) + w_i(b), w_i(P) = w_i(a) w_i(b), w_i(F) = w_{i+1}(a),
    with each power expanded on exponent tuples by repeated products, apart
    from the packed solve that built the tables."""
    t = build_witt_table(p, r)
    n2 = 2 * r

    def ghost_of(coords, i, nvars):
        acc = {}
        for j in range(i + 1):
            power = {(0,) * nvars: 1}
            for _ in range(p ** (i - j)):
                power = terms_mul(power, coords[j])
            acc = terms_add(acc, terms_scale(power, p ** j))
        return acc

    for i in range(r):
        ga = _ghost_poly(p, i, 0, n2)
        gb = _ghost_poly(p, i, r, n2)
        assert ghost_of(t.sum_polys, i, n2) == terms_add(ga, gb)
        assert ghost_of(t.prod_polys, i, n2) == terms_mul(ga, gb)
        g1 = _ghost_poly(p, i, 0, r)
        assert ghost_of(t.neg_polys, i, r) == terms_scale(g1, -1)
        if i < r - 1:
            assert ghost_of(t.frob_polys, i, r) == _ghost_poly(p, i + 1, 0, r)


def canonical_sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def table_doc(t) -> dict:
    """A table as JSON, each polynomial its sorted [exponent list, coefficient] pairs."""
    polys = {"sum": t.sum_polys, "prod": t.prod_polys, "neg": t.neg_polys, "frob": t.frob_polys}
    return {"p": t.p, "r": t.r, **{
        name: [sorted([list(e), c] for e, c in poly.items()) for poly in group] for name, group in polys.items()
    }}


# the nine tables the witt bench builds, as the tuple-keyed solve made them
BENCH_TABLES_DIGEST = "e6abd499baf0819cc9d5aeac025f44f4fa638f661417cd8c125e6ea9562aed09"
# one cold (5, 4) solve: 5.1-5.5 s on tuple-keyed term dicts, 0.79-0.97 s
# on packed monomials, 0.16-0.28 s on packed rows
SOLVE_5_4_SECONDS = 0.6


def test_the_bench_tables_are_pinned():
    tables = [table_doc(build_witt_table(p, r)) for p in (2, 3, 5) for r in (2, 3, 4)]
    assert canonical_sha256(tables) == BENCH_TABLES_DIGEST


def test_a_cold_level_four_table_at_five_is_fast():
    start = time.perf_counter()
    table = wittvec._solve_table.__wrapped__(5, 4)
    assert time.perf_counter() - start < SOLVE_5_4_SECONDS
    assert table == build_witt_table(5, 4)


# Inputs the solve must refuse, as (weights, targets, row, message).  Y and
# 5 Z at p = 5, with Y, Z of weights 1, 5, are isobaric, but level 1 asks
# for Y^5, past the field the largest target exponent of Y, 1, gives it.
# X and 1 are not isobaric: at p = 5, level 1 must have weight 5.  X and
# 5 Y are, but X^5 is not divisible by 5 at level 1, so no coordinates have
# these ghost components.
OVERFLOWING = ((1, 1, 5), [{(0, 1, 0): 1}, {(0, 0, 1): 5}], None,
               "packed exponent overflow in the ghost recursion (internal defect)")
NOT_ISOBARIC = ((1,), [{(1,): 1}, {(0,): 1}], None,
                "a target of the ghost recursion is not isobaric (internal defect)")
NOT_EXACT = ((1, 5), [{(1, 0): 1}, {(0, 1): 5}], None,
             "ghost recursion produced a non-exact division (internal defect)")


def test_a_packed_exponent_that_outgrows_its_field_asserts():
    weights, targets, row, message = OVERFLOWING
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        _solve_coordinates(5, weights, targets, row)


def test_a_target_that_is_not_isobaric_asserts():
    weights, targets, row, message = NOT_ISOBARIC
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        _solve_coordinates(5, weights, targets, row)


def test_the_overflow_check_survives_python_dash_o():
    """The three refusals under `python -O`, which strips `assert` statements."""
    for weights, targets, row, message in (OVERFLOWING, NOT_ISOBARIC, NOT_EXACT):
        code = ("from wittcert.wittvec import _solve_coordinates; "
                f"print(_solve_coordinates(5, {weights!r}, {targets!r}, {row!r}))")
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 1 and result.stdout == "", result.stdout
        assert result.stderr.splitlines()[-1] == f"AssertionError: {message}"


def test_table_caps():
    with pytest.raises(ValueError):
        build_witt_table(17, 2)
    with pytest.raises(ValueError):
        build_witt_table(2, 7)


RANGE = "p must satisfy 2 <= p < 2^16"


@pytest.mark.parametrize("p, r, message", [
    (1, 0, RANGE), (1, 7, RANGE),
    (4, 0, "4 is not prime"), (4, 7, "4 is not prime"),
    (9, 0, "9 is not prime"), (9, 7, "9 is not prime"),
    (17, 0, "level must be >= 1"),
    (17, 7, "table for (p=17, r=7) exceeds the default caps (p <= 13, r <= 6)"),
    (2 ** 16, 0, RANGE), (2 ** 16, 7, RANGE),
])
def test_cap_messages_keep_their_order(p, r, message):
    """The prime rule first (range, then primality), then the level, then the caps."""
    for call in (lambda: wittvec._check_caps(p, r), lambda: build_witt_table(p, r)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
    if r:
        with pytest.raises(ValueError) as raised:
            ghost(witt_vector(Z, p, [1] * r))
        assert str(raised.value) == message


def test_ops_within_the_caps_run_no_trial_division(monkeypatch):
    def ops(x):
        return witt_add(x, x), witt_mul(x, witt_neg(x)), frobenius(x)

    vectors = [witt_vector(domain, 5, [domain.from_int(c) for c in (2, 3, 1)]) for domain in (fp_quotient(5), Z)]
    expected = [ops(x) for x in vectors]

    def refuse(p):
        raise AssertionError("check_prime called within the caps")

    monkeypatch.setattr(wittvec, "check_prime", refuse)
    assert [ops(x) for x in vectors] == expected
    for p in (2, 3, 5, 7, 11, 13):
        for r in (1, 6):
            wittvec._check_caps(p, r)


# -- ghost oracle over the integers ---------------------------------------------


@settings(max_examples=60, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
)
def test_ghost_is_a_ring_homomorphism(p, xs, ys):
    x = witt_vector(Z, p, xs)
    y = witt_vector(Z, p, ys)
    gx, gy = ghost(x), ghost(y)
    assert ghost(witt_add(x, y)) == tuple(a + b for a, b in zip(gx, gy))
    assert ghost(witt_mul(x, y)) == tuple(a * b for a, b in zip(gx, gy))
    assert ghost(witt_neg(x)) == tuple(-a for a in gx)


def test_ghost_examples():
    assert ghost(verschiebung(witt_vector(Z, 2, [1]))) == (0, 2)
    assert ghost(witt_vector(Z, 3, [0, 0, 0])) == (0, 0, 0)
    g = 7
    assert ghost(teichmuller(Z, g, 3, p=2)) == (g, g ** 2, g ** 4)


def test_frobenius_verschiebung_ghost_relations():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(10):
            x = random_witt(rng, Z, p, 3)
            # F(V(x)) = p * x
            assert ghost(frobenius(verschiebung(x))) == tuple(p * g for g in ghost(x))
            # ghost(F(x)) is the shifted ghost
            assert ghost(frobenius(x)) == ghost(x)[1:]
            # V is additive
            y = random_witt(rng, Z, p, 3)
            assert witt_add(verschiebung(x), verschiebung(y)) == verschiebung(witt_add(x, y))


def test_projection_formula():
    # V(x) * y = V(x * F(y))
    rng = random.Random(4)
    for p in (2, 3):
        for _ in range(10):
            x = random_witt(rng, Z, p, 2)
            y = random_witt(rng, Z, p, 3)
            assert witt_mul(verschiebung(x), y) == verschiebung(witt_mul(x, frobenius(y)))


# -- ring axioms over presented F_p-algebras -------------------------------------

AXIOM_GRID = [
    # (p, r, ring key, triples) weighted toward the cheap corners; 200 total
    (2, 1, "cusp", 15), (2, 2, "cusp", 12), (2, 3, "cusp", 10), (2, 4, "cusp", 8),
    (2, 4, "x3", 8), (2, 2, "prime_field", 10),
    (3, 1, "x3", 15), (3, 2, "cusp", 12), (3, 3, "x3", 10), (3, 4, "prime_field", 10),
    (3, 4, "x3", 5),
    (5, 1, "cusp", 15), (5, 2, "x3", 12), (5, 2, "cusp", 10), (5, 3, "prime_field", 10),
    (5, 3, "x3", 4), (5, 4, "prime_field", 34),
]


def test_axiom_grid_covers_two_hundred_triples():
    assert sum(n for _, _, _, n in AXIOM_GRID) == 200
    assert {key for _, _, key, _ in AXIOM_GRID} == set(TEST_RINGS)


@pytest.mark.parametrize("p,r,ring_key,count", AXIOM_GRID)
def test_ring_axioms_on_random_triples(p, r, ring_key, count):
    domain = TEST_RINGS[ring_key](p)
    rng = random.Random(p * 10007 + r * 101 + len(ring_key))
    zero = witt_vector(domain, p, [domain.zero()] * r)
    one = witt_one(domain, p, r)
    for _ in range(count):
        x = random_witt(rng, domain, p, r)
        y = random_witt(rng, domain, p, r)
        z = random_witt(rng, domain, p, r)
        assert witt_add(x, y) == witt_add(y, x)
        assert witt_mul(x, y) == witt_mul(y, x)
        assert witt_add(witt_add(x, y), z) == witt_add(x, witt_add(y, z))
        assert witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z))
        assert witt_mul(x, witt_add(y, z)) == witt_add(witt_mul(x, y), witt_mul(x, z))
        assert witt_add(x, witt_neg(x)) == zero
        assert witt_add(x, zero) == x
        assert witt_mul(x, one) == x


# Which coordinates of each operand stay, the others set to 0: a zero
# leading coordinate skips an eta evaluation; a Teichmuller lift and zero
# trailing coordinates end the Frobenius orbit and the powers a product
# makes early.
ALL, LIFT, NO_LEAD, NO_TAIL, MIDDLE = slice(None), slice(0, 1), slice(1, None), slice(0, -1), slice(1, -1)
ZERO_PATTERNS = [
    (ALL, ALL), (NO_LEAD, ALL), (ALL, NO_LEAD), (NO_LEAD, NO_LEAD),
    (LIFT, ALL), (ALL, LIFT), (LIFT, LIFT), (NO_TAIL, NO_LEAD), (MIDDLE, NO_TAIL),
]


def with_zeros(x, keep):
    kept = range(x.level)[keep]
    zero = x.domain.zero()
    return witt_vector(x.domain, x.p, [c if i in kept else zero for i, c in enumerate(x.coords)])


@pytest.mark.parametrize("p,r,ring_key,count", AXIOM_GRID)
def test_char_p_path_matches_the_tables(p, r, ring_key, count):
    """add, mul, neg and Frobenius from Teichmuller lifts equal the table
    polynomials reduced into the domain, on operands with every zero
    pattern of `ZERO_PATTERNS`."""
    domain = TEST_RINGS[ring_key](p)
    table = build_witt_table(p, r)
    rng = random.Random(p * 7919 + r * 13 + len(ring_key))
    for keep_x, keep_y in ZERO_PATTERNS:
        x = with_zeros(random_witt(rng, domain, p, r), keep_x)
        y = with_zeros(random_witt(rng, domain, p, r), keep_y)
        pair = x.coords + y.coords
        assert witt_add(x, y).coords == eval_table(table.sum_polys, pair, domain)
        assert witt_mul(x, y).coords == eval_table(table.prod_polys, pair, domain)
        assert witt_neg(x).coords == eval_table(table.neg_polys, x.coords, domain)
        assert witt_neg(y).coords == eval_table(table.neg_polys, y.coords, domain)
        if r > 1:
            assert frobenius(x).coords == eval_table(table.frob_polys, x.coords, domain)


INTEGER_GRID = sorted({(p, r) for p, r, _, _ in AXIOM_GRID})


@pytest.mark.parametrize("p,r", INTEGER_GRID)
def test_integer_path_matches_the_tables(p, r):
    """The same identities over Z: add, mul, neg of both operands and
    Frobenius equal the table polynomials, on operands with negative
    coordinates and with zero leading coordinates."""
    table = build_witt_table(p, r)
    rng = random.Random(p * 7907 + r * 17)
    for n in range(6):
        x = random_witt(rng, Z, p, r)
        y = random_witt(rng, Z, p, r)
        if n % 2:
            x = witt_vector(Z, p, (0,) + x.coords[1:])
        if n % 3 == 2:
            y = witt_vector(Z, p, (0,) + y.coords[1:])
        if n == 4:
            y = witt_vector(Z, p, tuple(-abs(c) - 1 for c in y.coords))
        pair = x.coords + y.coords
        assert witt_add(x, y).coords == eval_table(table.sum_polys, pair, Z)
        assert witt_mul(x, y).coords == eval_table(table.prod_polys, pair, Z)
        assert witt_neg(x).coords == eval_table(table.neg_polys, x.coords, Z)
        assert witt_neg(y).coords == eval_table(table.neg_polys, y.coords, Z)
        if r > 1:
            assert frobenius(x).coords == eval_table(table.frob_polys, x.coords, Z)
            assert frobenius(y).coords == eval_table(table.frob_polys, y.coords, Z)


def test_ops_never_build_the_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an integer op reached the universal tables or the eta solve")

    for name in ("build_witt_table", "_solve_table", "_eta_polys", "_solve_coordinates"):
        monkeypatch.setattr(wittvec, name, refuse)
    rng = random.Random(12)
    for p in (2, 3, 5, 7, 13):
        for r in (2, 3, 4, 5, 6):
            # x_0^(p^(r-1)) is a ghost component: keep it within a few million bits
            bound = 15 if p ** (r - 1) < 10 ** 4 else 3
            x = witt_vector(Z, p, [rng.randint(-bound, bound) for _ in range(r)])
            y = witt_vector(Z, p, [rng.randint(-bound, bound) for _ in range(r)])
            gx, gy = ghost(x), ghost(y)
            assert ghost(witt_add(x, y)) == tuple(a + b for a, b in zip(gx, gy))
            assert ghost(witt_mul(x, y)) == tuple(a * b for a, b in zip(gx, gy))
            assert ghost(witt_neg(x)) == tuple(-a for a in gx)
            assert ghost(frobenius(x)) == gx[1:]


def test_char_p_path_keeps_the_table_caps():
    ops = (lambda x: witt_add(x, x), lambda x: witt_mul(x, x), witt_neg, frobenius)
    for domain in (fp_quotient(17), Z):
        for op in ops:
            with pytest.raises(ValueError, match=r"table for \(p=17, r=2\) exceeds the default caps"):
                op(witt_one(domain, 17, 2))
    for domain in (fp_quotient(2), Z):
        for op in ops:
            with pytest.raises(ValueError, match=r"table for \(p=2, r=7\) exceeds the default caps"):
                op(witt_one(domain, 2, 7))
    with pytest.raises(ValueError, match=r"Frobenius maps W_r to W_\(r-1\), so it needs level >= 2"):
        frobenius(witt_one(fp_quotient(2), 2, 1))


# -- eta rows, normal forms and the work of one addition ---------------------------


def eta_operands(p, domain):
    """(a, b) pairs for eta: a = 0, b = 0, a unit operand, and general ones."""
    ring = domain.presentation.ring
    if not ring.nvars:
        c = domain.from_int
        return [(c(0), c(2)), (c(p - 1), c(0)), (c(1), c(p - 1)), (c(2), c(3))]
    x, y = ring.variable(0), ring.variable(1)
    pairs = [(domain.zero(), y), (x, domain.zero()), (domain.one(), y), (x, y)]
    if p <= 5:  # two-term operands: their powers stay short enough to expand term by term
        normal = domain.presentation.normal
        pairs.append((normal(x.scale(2) + y), normal(x * y + ring.one())))
    return pairs


ETA_GRID = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3, 4)]
# the eta rows of ETA_GRID, as the tuple-keyed solve made them
ETA_ROWS_DIGEST = "165334bb66e7811810bc356367c87a046f9fd1a503ac9134dd750c089019f7cf"
# the eta rows at (11, 4), (13, 4) and (7, 5), as the solve over Z made them
# in 1.6 s, 3.6 s and 7.1 s
LARGE_ETA_ROWS_DIGEST = "0805d609e0c4331bb0087bb5ff3fb2558295f64940ec92a8f253c3d67357dcb9"


def test_the_eta_rows_are_pinned():
    rows = {f"{p},{r}": _eta_polys(p, r) for p, r in ETA_GRID}
    assert canonical_sha256(rows) == ETA_ROWS_DIGEST


def test_large_eta_rows_are_pinned_and_fast():
    rows = {}
    for p, r in [(11, 4), (13, 4), (7, 5)]:
        start = time.perf_counter()
        rows[f"{p},{r}"] = _eta_polys.__wrapped__(p, r)
        assert time.perf_counter() - start < 1.0, (p, r)
    assert canonical_sha256(rows) == LARGE_ETA_ROWS_DIGEST


def test_a_wrong_eta_power_fails_the_exact_division(monkeypatch):
    """The eta recursion's division by p^n is checked: a power off by one in
    its constant term leaves a numerator that p^n does not divide."""
    power_mod = wittvec._power_mod

    def off_by_one(coeffs, e, modulus):
        out = power_mod(coeffs, e, modulus)
        return [out[0] + 1] + out[1:]

    monkeypatch.setattr(wittvec, "_power_mod", off_by_one)
    message = "the eta recursion produced a non-exact division (internal defect)"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        _eta_polys.__wrapped__(5, 2)


@pytest.mark.parametrize("p,r", ETA_GRID + [(11, 3), (13, 3)])
def test_eta_rows_hold_the_solve_and_evaluate_like_it(p, r):
    """The rows of `_eta_polys` rebuild the eta dicts solved over Z by the
    universal tables' solve, reduced mod p, and `_eval_eta` equals a
    term-by-term evaluation of those dicts over F_p and the cusp."""
    targets = [{(p ** i, 0): 1, (0, p ** i): 1} for i in range(r)]
    solved = _solve_coordinates(p, (1, 1), targets, 1)[1:]

    def rebuilt(row):
        degree = len(row) - 1
        return {(degree - j, j): c for j, c in enumerate(row) if c}

    rows = _eta_polys(p, r)
    assert [len(row) for row in rows] == [p ** k + 1 for k in range(1, r)]
    assert [rebuilt(row) for row in rows] == [{e: c % p for e, c in poly.items() if c % p} for poly in solved]
    for domain in (TEST_RINGS["prime_field"](p), TEST_RINGS["cusp"](p)):
        for a, b in eta_operands(p, domain):
            assert _eval_eta(rows, a, b, domain) == eval_table(solved, (a, b), domain), (domain, a, b)
            assert a.scale(7) == domain.mul(a, domain.from_int(7))


@pytest.mark.parametrize("p,r,ring_key,count", AXIOM_GRID)
def test_presented_coordinates_stay_in_normal_form(p, r, ring_key, count):
    """Sums and scalar multiples of normal forms are not reduced again, so
    they must already be normal forms, and so must every coordinate the
    ops return."""
    domain = TEST_RINGS[ring_key](p)
    normal = domain.presentation.normal
    rng = random.Random(p * 6007 + r * 11 + len(ring_key))
    for _ in range(max(2, count // 4)):
        for _ in range(4):
            a, b = random_element(rng, domain, 5), random_element(rng, domain, 5)
            assert domain.add(a, b) == normal(a + b)
            c = rng.randrange(p)
            assert a.scale(c) == normal(a.scale(c))
        x, y = random_witt(rng, domain, p, r), random_witt(rng, domain, p, r)
        outputs = [witt_add(x, y), witt_mul(x, y), witt_neg(x)] + ([frobenius(x)] if r > 1 else [])
        for z in outputs:
            assert all(c == normal(c) for c in z.coords), z


def test_unit_ideal_constants_are_normal_forms():
    """Over the zero ring k[x]/(1) every coordinate is 0, the domain's one
    and integers included."""
    domain = fp_quotient(3, "1", ("x",))
    assert domain.one().is_zero() and domain.from_int(2).is_zero()
    one = witt_one(domain, 3, 2)
    assert witt_add(one, one) == witt_vector(domain, 3, [domain.zero()] * 2)


def test_f5_level_four_addition_work_is_pinned(monkeypatch):
    """A work count, not a timing: the products of presented coordinates
    (`normal_product`, each one product and one normal form) and the other
    normal forms of one F_5 level-4 addition with every coordinate
    nonzero.  Every coordinate is a constant, an F_p scalar, so eta is
    evaluated on integers and nothing is reduced.  The table-free
    arithmetic with eta evaluated term by term and every sum reduced again
    made 700 products and 883 normal forms on these operands, and eta by
    normal products on term dicts made 350 products."""
    domain = fp_quotient(5)
    calls = {"product": 0, "normal": 0}
    real_product, real_normal = wittvec.normal_product, PresentedRing.normal

    def counting_product(a, b, ideal):
        calls["product"] += 1
        return real_product(a, b, ideal)

    def counting_normal(presentation, f):
        calls["normal"] += 1
        return real_normal(presentation, f)

    x = witt_vector(domain, 5, [domain.from_int(v) for v in (3, 2, 1, 3)])
    y = witt_vector(domain, 5, [domain.from_int(v) for v in (1, 1, 1, 1)])
    want = eval_table(build_witt_table(5, 4).sum_polys, x.coords + y.coords, domain)
    monkeypatch.setattr(wittvec, "normal_product", counting_product)
    monkeypatch.setattr(PresentedRing, "normal", counting_normal)
    assert witt_add(x, y).coords == want
    assert (calls["product"], calls["normal"]) == (0, 0)
    assert calls["product"] < 700 and calls["product"] + calls["normal"] < 883


@pytest.mark.parametrize("p,r", ETA_GRID)
def test_eta_of_two_constants_on_integers_is_the_term_dict_route(p, r):
    """eta_k is homogeneous of degree D = p^k, so eta_k(a t, b t) =
    eta_k(a, b) t^D over F_p[t], where the term-dict Horner evaluates it:
    eta_k(a, b) must be the integer route's value for every (a, b) in
    F_p^2."""
    fp, line = fp_quotient(p), fp_quotient(p, None, ("t",))
    t = line.presentation.ring.variable(0)
    rows = _eta_polys(p, r)
    for a in range(p):
        for b in range(p):
            scalars = _eval_eta(rows, fp.from_int(a), fp.from_int(b), fp)
            assert all(c.is_constant() for c in scalars)
            values = [c.constant_value() for c in scalars]
            by_terms = _eval_eta(rows, t.scale(a), t.scale(b), line)
            assert by_terms == tuple((t ** (len(row) - 1)).scale(v) for row, v in zip(rows, values)), (a, b)


class ReducingEveryProduct:
    """A domain's arithmetic with every product reduced in full, so an
    oracle through it takes no scalar route."""

    def __init__(self, domain):
        self.presentation = domain.presentation
        self.add, self.from_int, self.zero, self.one = domain.add, domain.from_int, domain.zero, domain.one

    def mul(self, x, y):
        return self.presentation.normal(x * y)


SCALAR_GRID = [(p, r) for p in (2, 3, 5) for r in (1, 2, 3, 4)]


@pytest.mark.parametrize("p,r", SCALAR_GRID)
def test_constant_coordinates_match_the_tables(p, r, monkeypatch):
    """add, mul, neg and Frobenius over F_p and the cusp, on operands that
    mix zero, constant and other coordinates, equal the table polynomials
    evaluated with every product reduced.  Over F_p every coordinate is a
    constant, and an addition or a product makes no normal product and no
    normal form."""
    rng = random.Random(p * 4099 + r)
    table = build_witt_table(p, r)

    def refuse(*args):
        raise AssertionError("an F_p Witt op reduced a product")

    for ring_key in ("prime_field", "cusp"):
        domain = TEST_RINGS[ring_key](p)
        oracle = ReducingEveryProduct(domain)
        ring = domain.presentation.ring
        others = [domain.one()]
        if ring.nvars:
            u, v = ring.variable(0), ring.variable(1)
            others = [u, v, domain.one() + v]

        def coordinate():
            kind = rng.randrange(3)
            if kind == 2:
                return rng.choice(others)
            return domain.from_int(rng.randrange(1, p)) if kind else domain.zero()

        for _ in range(6 if p ** r <= 27 or not ring.nvars else 2):
            x = witt_vector(domain, p, [coordinate() for _ in range(r)])
            y = witt_vector(domain, p, [coordinate() for _ in range(r)])
            with monkeypatch.context() as patch:
                if not ring.nvars:
                    patch.setattr(wittvec, "normal_product", refuse)
                    patch.setattr(PresentedRing, "normal", refuse)
                outputs = [witt_add(x, y), witt_mul(x, y), witt_neg(x)] + ([frobenius(x)] if r > 1 else [])
            pair = x.coords + y.coords
            assert outputs[0].coords == eval_table(table.sum_polys, pair, oracle), (x, y)
            assert outputs[1].coords == eval_table(table.prod_polys, pair, oracle), (x, y)
            assert outputs[2].coords == eval_table(table.neg_polys, x.coords, oracle), x
            if r > 1:
                assert outputs[3].coords == eval_table(table.frob_polys, x.coords, oracle), x


@pytest.mark.parametrize("ring_key", ["cusp", "node", "two_relations", "zero_ideal", "unit_ideal", "prime_field"])
def test_the_normal_form_check_is_normal_x_equals_x(ring_key):
    """`check` finds a term that a leading monomial divides; it must refuse
    a polynomial exactly when its normal form differs from it."""
    p = 5
    plane = PolyRing(p, ("x", "y"))
    domain = {
        "cusp": lambda: TEST_RINGS["cusp"](p),
        "node": lambda: fp_quotient(p, "y^2 - x^3 - x^2", ("x", "y")),
        # a basis of two elements, x^2 - y and y^3
        "two_relations": lambda: PresentedCoefficients(PresentedRing.make(
            plane, [parse_polynomial("x^2 - y", plane), parse_polynomial("y^3", plane)])),
        "zero_ideal": lambda: fp_quotient(p, None, ("x", "y")),
        "unit_ideal": lambda: fp_quotient(p, "1", ("x", "y")),
        "prime_field": lambda: fp_quotient(p),
    }[ring_key]()
    normal, ring = domain.presentation.normal, domain.presentation.ring
    rng = random.Random(len(ring_key))
    verdicts = set()
    for _ in range(60):
        f = Polynomial(ring, {tuple(rng.randint(0, 4) for _ in range(ring.nvars)): rng.randint(0, p - 1)
                              for _ in range(rng.randint(0, 4))})
        for g in (f, normal(f)):
            is_normal = normal(g) == g
            verdicts.add(is_normal)
            if is_normal:
                domain.check((g,))
            else:
                with pytest.raises(ValueError, match="not in normal form"):
                    domain.check((g,))
    assert verdicts == ({True} if ring_key in ("zero_ideal", "prime_field") else {True, False})


def test_a_teichmuller_power_makes_no_pth_power(monkeypatch):
    """[g]^p over the cusp as p products with the lift [g] = (g, 0, ...):
    each product meets one nonzero coordinate on each side, so it makes
    one domain product and no p-th power.  Asking every coordinate for its
    Frobenius orbit and powers made 18, 15 and 10 p-th powers at
    (p, r) = (2, 4), (3, 3) and (5, 2)."""
    rng = random.Random(24)
    for p, r in ((2, 4), (3, 3), (5, 2)):
        domain = TEST_RINGS["cusp"](p)
        g = random_element(rng, domain)
        while g.is_zero():
            g = random_element(rng, domain)
        lift = teichmuller(domain, g, r, p=p)
        calls = {"mul": 0, "pth_power": 0}
        for name in calls:
            real = getattr(domain, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(domain, name, counting)
        power = witt_one(domain, p, r)
        for _ in range(p):
            power = witt_mul(power, lift)
        assert calls == {"mul": p, "pth_power": 0}, (p, r)
        assert power.coords == (domain.presentation.normal(g ** p),) + (domain.zero(),) * (r - 1)


# -- multiplicative lifts ---------------------------------------------------------


def test_teichmuller_is_multiplicative():
    rng = random.Random(9)
    for p in (2, 3, 5):
        domain = TEST_RINGS["cusp"](p)
        for _ in range(8):
            g = random_element(rng, domain)
            h = random_element(rng, domain)
            lhs = witt_mul(teichmuller(domain, g, 3, p=p), teichmuller(domain, h, 3, p=p))
            rhs = teichmuller(domain, domain.mul(g, h), 3, p=p)
            assert lhs == rhs
    assert teichmuller(Z, 1, 3, p=2) == witt_one(Z, 2, 3)
    assert teichmuller(Z, 0, 3, p=2) == witt_vector(Z, 2, [0, 0, 0])


def test_frobenius_of_lift_is_lift_of_power():
    rng = random.Random(10)
    for p in (2, 3, 5):
        domain = TEST_RINGS["cusp"](p)
        for _ in range(10):
            g = random_element(rng, domain)
            lift = teichmuller(domain, g, 3, p=p)
            expected = teichmuller(domain, domain.pth_power(g), 2, p=p)
            assert frobenius(lift) == expected
            # [g]^p agrees after truncation to level 2
            power = witt_one(domain, p, 3)
            for _ in range(p):
                power = witt_mul(power, lift)
            assert WittVector(p, 2, domain, power.coords[:2]) == expected


def test_frobenius_matches_coordinatewise_power_over_fp_algebras():
    rng = random.Random(11)
    for p in (2, 3):
        for key in ("x3", "cusp"):
            domain = TEST_RINGS[key](p)
            normal = domain.presentation.normal
            for _ in range(8):
                x = random_witt(rng, domain, p, 3)
                assert frobenius(x).coords == tuple(normal(c ** p) for c in x.coords[:2])


def test_p_times_one_is_v_of_one():
    for p in (2, 3, 5):
        domain = TEST_RINGS["prime_field"](p)
        one = witt_one(domain, p, 2)
        acc = witt_vector(domain, p, [domain.zero()] * 2)
        for _ in range(p):
            acc = witt_add(acc, one)
        assert acc == verschiebung(witt_one(domain, p, 1))


def test_level_and_domain_mismatch_errors():
    x = witt_vector(Z, 2, [1, 2])
    y = witt_vector(Z, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        witt_add(x, y)
    with pytest.raises(ValueError):
        witt_add(x, witt_vector(Z, 3, [1, 2]))
    with pytest.raises(ValueError):
        frobenius(witt_vector(Z, 2, [1]))
    with pytest.raises(ValueError):
        ghost(witt_one(TEST_RINGS["prime_field"](2), 2, 2))
    cusp = TEST_RINGS["cusp"](3)
    other = PolyRing(3, ("x",)).variable(0)
    with pytest.raises(ValueError, match="different rings"):
        witt_mul(witt_vector(cusp, 3, [other, cusp.zero()]), witt_one(cusp, 3, 2))


def test_a_coordinate_outside_the_domain_is_refused():
    # t of F_3[t] is no element of the cusp: an op on it would mix the two rings
    cusp = TEST_RINGS["cusp"](3)
    t = PolyRing(3, ("t",)).variable(0)
    with pytest.raises(ValueError, match="different rings"):
        witt_vector(cusp, 3, [t, 0])
    with pytest.raises(ValueError, match="different rings"):
        teichmuller(cusp, t, 2, p=3)
    with pytest.raises(ValueError, match="a coordinate of type int is not a polynomial"):
        witt_vector(cusp, 3, [cusp.zero(), 0])
    with pytest.raises(ValueError, match="a coordinate of type Polynomial is not an integer"):
        witt_vector(Z, 3, [1, cusp.zero()])
    with pytest.raises(ValueError, match="a coordinate of type float is not an integer"):
        witt_vector(Z, 3, [1.5])
    # a ring equal to the presentation's, though another object, is the same ring
    x = PolyRing(3, ("x", "y")).variable(0)
    assert witt_vector(cusp, 3, [x]).coords == (cusp.presentation.ring.variable(0),)


def test_a_coordinate_not_in_normal_form_is_refused():
    # over F_5[x,y]/(y^2 - x^3) in grevlex, x^3 reduces to y^2: (x^3, 0)
    # and (y^2, 0) name one vector, and every op assumes the normal form
    ring = PolyRing(5, ("x", "y"))
    cusp = PresentedCoefficients(PresentedRing.make(ring, [parse_polynomial("y^2 - x^3", ring)]))
    x3, y2 = parse_polynomial("x^3", ring), parse_polynomial("y^2", ring)
    with pytest.raises(ValueError, match="not in normal form"):
        witt_vector(cusp, 5, [x3, ring.zero()])
    with pytest.raises(ValueError, match="not in normal form"):
        teichmuller(cusp, x3 + ring.one(), 2, p=5)
    y = witt_vector(cusp, 5, [y2, ring.zero()])
    # op results skip the check, and stay normal forms
    assert witt_neg(y).coords == (y2.scale(-1), ring.zero())
    assert witt_add(y, y).coords[0] == y2.scale(2)


def test_lifts_and_ghosts_are_capped_before_they_allocate():
    # a lift to level 10^6 is a million-coordinate tuple; w_6 of (2, 0, ...) at p = 13 has 1.45M digits
    start = time.perf_counter()
    for call in (lambda: teichmuller(Z, 2, 10 ** 6, p=5), lambda: witt_one(Z, 5, 10 ** 6),
                 lambda: teichmuller(fp_quotient(5), fp_quotient(5).one(), 10 ** 6, p=5)):
        with pytest.raises(ValueError, match=r"table for \(p=5, r=1000000\) exceeds the default caps"):
            call()
    with pytest.raises(ValueError, match=r"table for \(p=13, r=7\) exceeds the default caps"):
        ghost(witt_vector(Z, 13, [2] + [0] * 6))
    assert time.perf_counter() - start < 1.0
    # V computes nothing, so its level stays uncapped
    assert verschiebung(witt_vector(Z, 5, [1] * 40)).level == 41


def test_witt_json():
    doc = witt_to_json(witt_vector(Z, 2, [1, 2]))
    assert doc == {"p": 2, "r": 2, "coords": [1, 2]}
    domain = TEST_RINGS["x3"](3)
    doc2 = witt_to_json(teichmuller(domain, domain.presentation.ring.variable(0), 2, p=3))
    assert doc2["p"] == 3 and doc2["r"] == 2 and len(doc2["coords"]) == 2


def test_vector_prime_must_match_the_domain_characteristic():
    with pytest.raises(ValueError):
        witt_vector(TEST_RINGS["prime_field"](5), 3, [1, 2])
    cusp = TEST_RINGS["cusp"](3)
    x = cusp.presentation.ring.variable(0)
    with pytest.raises(ValueError):
        witt_vector(cusp, 5, [x, cusp.zero()])
    with pytest.raises(ValueError):
        teichmuller(cusp, x, 2, p=2)
    # the integer oracle has characteristic 0 and serves every prime
    assert witt_vector(Z, 7, [1, 2]).p == 7
    # the right prime gives the known sum (x, 0) + (x, 0) = (2x, x^3) over F_3[x]
    line = fp_quotient(3, names=("x",))
    y = line.presentation.ring.variable(0)
    total = witt_add(witt_vector(line, 3, [y, line.zero()]), witt_vector(line, 3, [y, line.zero()]))
    assert total.coords == (y.scale(2), y ** 3)
