"""Witt vector arithmetic against the ghost-component oracle.

The universal tables are checked twice over: formally (the ghost
identities hold as polynomial identities for small p, r) and numerically
(integer-coordinate vectors, where the ghost map must be a ring
homomorphism on the nose).  The tables are then the oracle for the
characteristic-p path, which computes from Teichmuller lifts.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from wittcert.derham import PresentedRing
from wittcert.polyring import PolyRing, parse_polynomial, terms_add, terms_mul, terms_pow, terms_scale
from wittcert.wittvec import (
    IntegerCoefficients,
    PresentedCoefficients,
    PrimeFieldCoefficients,
    WittVector,
    build_witt_table,
    frobenius,
    frobenius_coordinatewise,
    ghost,
    scalar_multiple,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_to_json,
    witt_vector,
    witt_zero,
    _eval_table,
    _ghost_poly,
)

Z = IntegerCoefficients()


def fp_quotient(p, relation_text=None, names=()):
    ring = PolyRing(p, names)
    gens = [parse_polynomial(relation_text, ring)] if relation_text else []
    return PresentedCoefficients(PresentedRing.make(ring, gens))


TEST_RINGS = {
    "prime_field": lambda p: PrimeFieldCoefficients(p),
    "x3": lambda p: fp_quotient(p, "x^3", ("x",)),
    "cusp": lambda p: fp_quotient(p, "y^2 - x^3", ("x", "y")),
}


def random_element(rng, domain, max_degree=2):
    if isinstance(domain, PrimeFieldCoefficients):
        return rng.randrange(domain.p)
    ring = domain.presentation.ring
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            if ring.nvars:
                exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(0, ring.p - 1)
    from wittcert.polyring import Polynomial

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


@pytest.mark.parametrize("p,r", [(2, 3), (3, 3), (5, 2)])
def test_ghost_identities_hold_formally(p, r):
    """w_i(S) = w_i(a) + w_i(b), w_i(P) = w_i(a) w_i(b), w_i(F) = w_{i+1}(a)."""
    t = build_witt_table(p, r)
    n2 = 2 * r

    def ghost_of(coords, i, nvars):
        acc = {}
        for j in range(i + 1):
            acc = terms_add(acc, terms_scale(terms_pow(coords[j], p ** (i - j), nvars), p ** j))
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


def test_table_caps():
    with pytest.raises(ValueError):
        build_witt_table(17, 2)
    with pytest.raises(ValueError):
        build_witt_table(2, 7)
    assert build_witt_table(17, 2, allow_large=True).p == 17


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
    assert ghost(witt_zero(Z, 3, 3)) == (0, 0, 0)
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


@pytest.mark.parametrize("p,r,ring_key,count", AXIOM_GRID)
def test_ring_axioms_on_random_triples(p, r, ring_key, count):
    domain = TEST_RINGS[ring_key](p)
    rng = random.Random(p * 10007 + r * 101 + len(ring_key))
    zero = witt_zero(domain, p, r)
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


@pytest.mark.parametrize("p,r,ring_key,count", AXIOM_GRID)
def test_char_p_path_matches_the_tables(p, r, ring_key, count):
    """add, mul, neg and Frobenius from Teichmuller lifts equal the table
    polynomials reduced into the domain, with zero leading coordinates
    (which skip the eta evaluation) in every other operand."""
    domain = TEST_RINGS[ring_key](p)
    table = build_witt_table(p, r)
    rng = random.Random(p * 7919 + r * 13 + len(ring_key))
    for n in range(6):
        x = random_witt(rng, domain, p, r)
        y = random_witt(rng, domain, p, r)
        if n % 2:
            x = witt_vector(domain, p, (domain.zero(),) + x.coords[1:])
        if n % 3 == 2:
            y = witt_vector(domain, p, (domain.zero(),) + y.coords[1:])
        pair = x.coords + y.coords
        assert witt_add(x, y).coords == _eval_table(table.sum_polys, pair, domain)
        assert witt_mul(x, y).coords == _eval_table(table.prod_polys, pair, domain)
        assert witt_neg(x).coords == _eval_table(table.neg_polys, x.coords, domain)
        assert witt_neg(y).coords == _eval_table(table.neg_polys, y.coords, domain)
        if r > 1:
            assert frobenius(x).coords == _eval_table(table.frob_polys, x.coords, domain)


def test_char_p_path_keeps_the_table_caps():
    with pytest.raises(ValueError, match=r"table for \(p=17, r=2\) exceeds the default caps"):
        witt_add(witt_one(PrimeFieldCoefficients(17), 17, 2), witt_one(PrimeFieldCoefficients(17), 17, 2))
    f2 = PrimeFieldCoefficients(2)
    for op in (lambda x: witt_add(x, x), lambda x: witt_mul(x, x), witt_neg, frobenius):
        with pytest.raises(ValueError, match=r"table for \(p=2, r=7\) exceeds the default caps"):
            op(witt_one(f2, 2, 7))
    with pytest.raises(ValueError, match="table Frobenius needs level >= 2"):
        frobenius(witt_one(f2, 2, 1))


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
    assert teichmuller(Z, 0, 3, p=2) == witt_zero(Z, 2, 3)


def test_teichmuller_takes_the_prime_from_the_domain():
    f5 = PrimeFieldCoefficients(5)
    assert teichmuller(f5, 3, 2) == witt_vector(f5, 5, [3, 0])
    cusp = TEST_RINGS["cusp"](3)
    x = cusp.presentation.ring.variable(0)
    assert teichmuller(cusp, x, 2) == teichmuller(cusp, x, 2, p=3)
    with pytest.raises(ValueError, match="needs the prime p"):
        teichmuller(Z, 7, 3)
    assert teichmuller(Z, 7, 3, p=2).p == 2


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
            for _ in range(8):
                x = random_witt(rng, domain, p, 3)
                table_route = frobenius(x)
                coordinatewise = frobenius_coordinatewise(x)
                assert table_route.coords == coordinatewise.coords[:2]


def test_p_times_one_is_v_of_one():
    for p in (2, 3, 5):
        domain = TEST_RINGS["prime_field"](p)
        acc = scalar_multiple(p, witt_one(domain, p, 2))
        zero = domain.zero()
        one = domain.one()
        assert acc.coords == (zero, one)


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
        frobenius_coordinatewise(x)
    with pytest.raises(ValueError):
        ghost(witt_one(TEST_RINGS["prime_field"](2), 2, 2))


def test_witt_json():
    doc = witt_to_json(witt_vector(Z, 2, [1, 2]))
    assert doc == {"p": 2, "r": 2, "coords": [1, 2]}
    domain = TEST_RINGS["x3"](3)
    doc2 = witt_to_json(teichmuller(domain, domain.presentation.ring.variable(0), 2, p=3))
    assert doc2["p"] == 3 and doc2["r"] == 2 and len(doc2["coords"]) == 2


def test_vector_prime_must_match_the_domain_characteristic():
    with pytest.raises(ValueError):
        witt_vector(PrimeFieldCoefficients(5), 3, [1, 2])
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
