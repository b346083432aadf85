"""Polynomial arithmetic and Groebner machinery.

Ideal membership claimed by normal-form reduction is cross-checked
against straight linear algebra over the monomial basis (echelon
reduction of monomial multiples of the generators), which shares no
code with the division algorithm.
"""

import ast
import functools
import hashlib
import itertools
import operator
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittcert import polyring
from wittcert.derham import PresentedRing
from wittcert.polyring import (
    GREVLEX,
    LEX,
    Ideal,
    PolyParseError,
    PolyRing,
    Polynomial,
    TermOrder,
    _groebner,
    _reduce_terms,
    _reducer,
    buchberger,
    eliminate,
    extend,
    graph_kernel,
    krull_dim,
    normal_form,
    normal_product,
    parse_polynomial,
    poly_from_json,
    pth_root_ideal,
    reduces_to_zero,
    terms_add,
    terms_mul,
    terms_scale,
)
from wittcert.wittvec import PresentedCoefficients


def monomials_up_to(ring, degree):
    for exp in itertools.product(range(degree + 1), repeat=ring.nvars):
        if sum(exp) <= degree:
            yield exp


def linalg_member(f, generators, degree):
    """Membership of f in the span of monomial multiples of the generators
    up to total degree `degree`: pure echelon reduction, no division."""
    ring = f.ring
    order = GREVLEX
    echelon = {}
    for g in generators:
        for exp in monomials_up_to(ring, degree):
            if g.is_zero() or g.total_degree() + sum(exp) > degree:
                continue
            q = g * Polynomial(ring, {exp: 1})
            q = _echelon_reduce(q, echelon, order)
            if not q.is_zero():
                echelon[q.leading(order)[0]] = q
    return _echelon_reduce(f, echelon, order).is_zero()


def _echelon_reduce(f, echelon, order):
    while not f.is_zero():
        lm, lc = f.leading(order)
        row = echelon.get(lm)
        if row is None:
            return f
        _, rc = row.leading(order)
        f = f - row.scale(lc * pow(rc, -1, f.ring.p))
    return f


def random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


# -- parsing and serialization ------------------------------------------------


def test_parse_grammar():
    ring = PolyRing(7, ("x", "y"))
    f = parse_polynomial("3x^2y + 2*y - 5", ring)
    assert f == Polynomial(ring, {(2, 1): 3, (0, 1): 2, (0, 0): -5})
    assert parse_polynomial("-(x - y)^2", ring) == -(ring.variable(0) - ring.variable(1)) ** 2
    assert parse_polynomial("x0 + 1", PolyRing(5, ("x0", "x1"))).total_degree() == 1


@pytest.mark.parametrize(
    "text", ["", "x +", "z", "x^", "(x", "x ? y", "2^x"]
)
def test_parse_errors_carry_position(text):
    ring = PolyRing(5, ("x", "y"))
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, ring)
    assert err.value.position >= 0


def test_text_and_json_round_trip():
    ring = PolyRing(5, ("x", "y"))
    rng = random.Random(0)
    for _ in range(30):
        f = random_poly(rng, ring, allow_zero=True)
        assert parse_polynomial(f.to_text(), ring) == f or f.is_zero()
        assert poly_from_json(f.to_json(), ring) == f


# -- ring arithmetic -----------------------------------------------------------


@settings(max_examples=60, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_partial_derivative_leibniz(seed, data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    ring = PolyRing(p, ("x", "y"))
    rng = random.Random(seed)
    f = random_poly(rng, ring)
    g = random_poly(rng, ring)
    for i in range(2):
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def evaluate(f, point):
    """f at an integer point, reduced mod p: an oracle independent of the kernel."""
    total = 0
    for exp, c in f.terms.items():
        term = c
        for x, e in zip(point, exp):
            term *= x ** e
        total += term
    return total % f.ring.p


@settings(max_examples=60, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3, 5]))
def test_arithmetic_commutes_with_evaluation_mod_pn(seed, p):
    ring = PolyRing(p, ("x", "y", "z"))
    rng = random.Random(seed)
    f = random_poly(rng, ring, max_terms=5, allow_zero=True)
    g = random_poly(rng, ring, max_terms=5, allow_zero=True)
    c = rng.randint(-2 * p, 2 * p)
    exp = tuple(rng.randint(0, 3) for _ in range(3))
    for _ in range(4):
        point = [rng.randint(-50, 50) for _ in range(3)]
        fx, gx = evaluate(f, point), evaluate(g, point)
        assert evaluate(f + g, point) == (fx + gx) % p
        assert evaluate(f - g, point) == (fx - gx) % p
        assert evaluate(f * g, point) == (fx * gx) % p
        assert evaluate(f.scale(c), point) == (c * fx) % p
        monomial = 1
        for x, e in zip(point, exp):
            monomial *= x ** e
        assert evaluate(f * Polynomial(ring, {exp: c}), point) == (c * monomial * fx) % p
    assert all(0 < v < p for v in (f * g).terms.values())


def test_a_power_makes_one_product_per_bit_and_one_squaring_per_shift(monkeypatch):
    """f ** n by binary powering: a product for each set bit of n (the first
    one with the ring's one) and a squaring for each bit below the top."""
    ring = PolyRing(5, ("x", "y"))
    f = parse_polynomial("x + 2*y + 1", ring)
    calls = 0
    multiply = Polynomial.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for n in range(65):
        calls = 0
        power = f ** n
        assert calls == bin(n).count("1") + max(n.bit_length() - 1, 0), n
        expected = ring.one()
        for _ in range(n):
            expected = multiply(expected, f)
        assert power == expected, n


@pytest.mark.parametrize("p,nvars", [(2, 1), (3, 2), (5, 1), (5, 3)])
def test_trusted_matches_the_checked_constructor(p, nvars):
    """`Polynomial._trusted` skips only the exponent check: on kernel
    outputs, coefficients that reduce to 0 included, it keeps the same
    terms in the same order as the public constructor."""
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    rng = random.Random(p * 97 + nvars)

    def raw():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[exp] = rng.choice((0, p, -2 * p, rng.randint(-3 * p, 3 * p)))
        return terms

    for _ in range(60):
        f, g = raw(), raw()
        k = rng.choice((0, 1, -1, p, p + 2))
        for terms in (f, terms_add(f, g), terms_mul(f, g), terms_scale(f, k)):
            trusted, checked = Polynomial._trusted(ring, terms), Polynomial(ring, terms)
            assert trusted == checked
            assert list(trusted.terms.items()) == list(checked.terms.items())
            assert all(0 < c < p for c in trusted.terms.values())


@pytest.mark.parametrize("p,nvars", [(2, 1), (3, 2), (5, 1), (5, 3), (7, 2)])
def test_results_wrapped_without_a_pass_match_the_checked_constructor(p, nvars):
    """`normal_form`, `PresentedCoefficients.mul`, `frobenius_power` and
    `pth_root` wrap their terms by `Polynomial._reduced`, which takes the
    coefficients as they are: each result must be what the checked
    constructor makes of the same terms, with coefficients in [1, p), and
    must agree with a route that reduces from scratch."""
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    rng = random.Random(p * 31 + nvars)
    for _ in range(6):
        relations = [random_poly(rng, ring, max_degree=3) for _ in range(rng.randint(0, 2))]
        presented = PresentedCoefficients(PresentedRing.make(ring, relations))
        ideal = presented.presentation.ideal
        for _ in range(15):
            f, g = random_poly(rng, ring), random_poly(rng, ring)
            nf, ng = normal_form(f, ideal), normal_form(g, ideal)
            product = presented.mul(nf, ng)
            power = f.frobenius_power()
            root = power.pth_root()
            own_root = f.pth_root()
            for h in (nf, product, power, root, own_root):
                if h is not None:
                    assert h == Polynomial(ring, h.terms)
                    assert all(0 < c < p for c in h.terms.values())
            assert nf == Polynomial(ring, _reduce_terms(f.terms, ideal.reducers, ideal.basis_order, p))
            assert product == normal_form(Polynomial(ring, terms_mul(nf.terms, ng.terms)), ideal)
            assert power == f ** p and root == f
            assert own_root is None or own_root ** p == f


@pytest.mark.parametrize("p,nvars", [(2, 1), (3, 2), (5, 3), (7, 0)])
def test_a_polynomial_document_reads_as_the_checked_constructor_reads_its_terms(p, nvars):
    """`poly_from_json` reads each term once and wraps the result without
    the checked constructor's pass: on seeded documents with repeated
    exponents, coefficients of either sign and beyond p, and repeats that
    cancel, it must give the checked constructor's polynomial of the summed
    terms, coefficients in [1, p).  `partial` and the basis `buchberger`
    reads off its reducers are wrapped the same way and must match it too."""
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    rng = random.Random(32 * p + nvars)
    for _ in range(200):
        doc_terms, summed = [], {}
        for _ in range(rng.randint(0, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            c = rng.randint(-3 * p, 3 * p)
            if summed and rng.random() < 0.3:  # repeat an exponent, at times cancelling it
                exp = rng.choice(list(summed))
                c = rng.choice([c, -summed[exp]])
            summed[exp] = summed.get(exp, 0) + c
            doc_terms.append({"exp": list(exp), "coef": c})
        f = poly_from_json({"vars": list(ring.names), "p": p, "terms": doc_terms}, ring)
        assert f == Polynomial(ring, summed)
        assert all(0 < c < p for c in f.terms.values())
        for i in range(nvars):
            d = f.partial(i)
            assert d == Polynomial(ring, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in f.terms.items() if e[i]})
            assert all(0 < c < p for c in d.terms.values())
        basis = buchberger(Ideal.from_polys(ring, [f])).basis
        assert all(g == Polynomial(ring, g.terms) and all(0 < c < p for c in g.terms.values()) for g in basis)


def test_a_polynomial_document_reports_a_bad_exponent_after_its_integers():
    """A bad exponent tuple is reported as the checked constructor reports
    it, once every integer of the document has been read: a later field
    that is not an integer is the error, and of two bad tuples the first."""
    ring = PolyRing(5, ("x", "y"))
    bad_then_float = [{"exp": [1], "coef": 1}, {"exp": [0, 0], "coef": 1.5}]
    with pytest.raises(TypeError, match="expected an integer, got float"):
        poly_from_json({"terms": bad_then_float}, ring)
    two_bad = [{"exp": [0, 1], "coef": 5}, {"exp": [-1, 0], "coef": 0}, {"exp": [2], "coef": 1}]
    with pytest.raises(ValueError, match=r"bad exponent tuple \(-1, 0\)"):
        poly_from_json({"terms": two_bad}, ring)
    with pytest.raises(TypeError, match="not iterable"):
        poly_from_json({"terms": [{"exp": 3, "coef": 1}]}, ring)


@pytest.mark.parametrize("p,nvars", [(2, 2), (3, 3), (5, 2)])
def test_division_by_stated_generators_proves_membership_only(p, nvars):
    """`reduces_to_zero` divides by generators that need not form a
    Groebner basis: a zero remainder must mean membership, a non-member
    must always leave one, and division by the reduced basis decides."""
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    rng = random.Random(17 * p + nvars)
    proved = 0
    for _ in range(60):
        gens = [random_poly(rng, ring) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ring, gens))
        member = functools.reduce(operator.add, [random_poly(rng, ring, 2, 2) * g for g in gens])
        other = random_poly(rng, ring, 4, 4)
        for f in (member, other, gens[0], gens[-1].scale(p - 1)):
            in_ideal = normal_form(f, gb).is_zero()
            assert reduces_to_zero(f, gb.basis) == in_ideal
            if reduces_to_zero(f, gens):
                assert in_ideal
                proved += 1
    assert proved >= 120


@pytest.mark.parametrize("exp", [(-1, 0), (0, -2), (1,), (1, 0, 0), ()])
def test_checked_entry_points_reject_bad_exponents(exp):
    ring = PolyRing(5, ("x", "y"))
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(ring, {exp: 1})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        poly_from_json({"vars": ["x", "y"], "p": 5, "terms": [{"exp": list(exp), "coef": 1}]}, ring)


def test_partial_examples():
    ring = PolyRing(5, ("x", "y"))
    f = parse_polynomial("y^2 - x^3", ring)
    assert f.partial(0) == parse_polynomial("2x^2", ring)
    assert f.partial(1) == parse_polynomial("2y", ring)
    assert ring.variable(0).frobenius_power().partial(0).is_zero()
    assert ring.constant(3).partial(1).is_zero()
    with pytest.raises(IndexError):
        f.partial(2)


def test_pth_root_examples():
    ring2 = PolyRing(2, ("x", "y"))
    assert parse_polynomial("x^2 + y^2", ring2).pth_root() == parse_polynomial("x + y", ring2)
    assert ring2.variable(0).pth_root() is None
    ring5 = PolyRing(5, ("x",))
    assert parse_polynomial("x^5", ring5).pth_root() == ring5.variable(0)


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3, 5]))
def test_pth_root_inverts_frobenius_power(seed, p):
    ring = PolyRing(p, ("x", "y"))
    f = random_poly(random.Random(seed), ring)
    power = f.frobenius_power()
    assert power == f ** p
    root = power.pth_root()
    assert root == f
    maybe = f.pth_root()
    if maybe is not None:
        assert maybe ** p == f


# -- Groebner bases ------------------------------------------------------------


def test_buchberger_known_basis():
    ring = PolyRing(2, ("y", "x"))  # lex ranks y above x
    ideal = buchberger(
        Ideal.from_polys(ring, [parse_polynomial("y - x^2", ring), parse_polynomial("x*y - 1", ring)]),
        LEX,
    )
    texts = sorted(g.to_text(LEX) for g in ideal.basis)
    assert texts == ["x^3 + 1", "y + x^2"]


def test_buchberger_trivial_cases():
    ring = PolyRing(5, ("x", "y"))
    assert buchberger(Ideal.from_polys(ring, [ring.variable(0)])).basis == (ring.variable(0),)
    assert buchberger(Ideal.from_polys(ring, [])).basis == ()
    unit = buchberger(Ideal.from_polys(ring, [ring.constant(3)]))
    assert unit.basis == (ring.one(),)


def _order(kind):
    return {"grevlex": GREVLEX, "lex": LEX, "block": TermOrder("block", 1)}[kind]


def _ordered_ring(p, kind, nvars):
    """The first `nvars` of x, y, z, listed so that lex ranks z first and
    the block order eliminates z: an order ranks variables as its ring
    lists them."""
    names = "xyz"[:nvars]
    if kind == "lex":
        names = names[::-1]
    elif kind == "block":
        names = names[-1] + names[:-1]
    return PolyRing(p, tuple(names))


@pytest.mark.parametrize("kind", ["grevlex", "lex", "block"])
@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_buchberger_is_a_groebner_basis(p, nvars, kind):
    # Every S-polynomial of the result reduces to zero, so no pair the
    # criteria pruned was needed; the result is monic and reduced, and it
    # contains the generators.
    ring = _ordered_ring(p, kind, nvars)
    order = _order(kind)
    rng = random.Random(100 * p + 10 * nvars + len(kind))
    for _ in range(6):
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(1, 3))]
        gb = buchberger(Ideal.from_polys(ring, gens), order)
        basis = gb.basis
        leads = [g.leading(order) for g in basis]
        for g, (lm, lc) in zip(basis, leads):
            assert lc == 1
            for other, _ in leads:
                assert other == lm or not any(all(a <= b for a, b in zip(other, e)) for e in g.terms)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        for i in range(len(basis)):
            for j in range(i):
                lm_i, lc_i = leads[i]
                lm_j, lc_j = leads[j]
                lcm = tuple(max(a, b) for a, b in zip(lm_i, lm_j))
                s = basis[i] * Polynomial(
                    ring, {tuple(a - b for a, b in zip(lcm, lm_i)): pow(lc_i, -1, p)}
                ) - basis[j] * Polynomial(ring, {tuple(a - b for a, b in zip(lcm, lm_j)): pow(lc_j, -1, p)})
                assert normal_form(s, gb).is_zero()


def _textbook_compare(order, a, b):
    """-1, 0 or 1 as a < b, a == b or a > b by the textbook definitions:
    lex by the first differing exponent; grevlex by total degree, then the
    smaller last differing exponent is the bigger monomial; a block order
    by grevlex on the first block, then on the second."""

    def lex(u, v):
        diff = [x - y for x, y in zip(u, v) if x != y]
        return (diff[0] > 0) - (diff[0] < 0) if diff else 0

    def grevlex(u, v):
        if sum(u) != sum(v):
            return 1 if sum(u) > sum(v) else -1
        return -lex(u[::-1], v[::-1])

    if order.kind == "lex":
        return lex(a, b)
    if order.kind == "grevlex":
        return grevlex(a, b)
    s = order.split
    return grevlex(a[:s], b[:s]) or grevlex(a[s:], b[s:])


@pytest.mark.parametrize("kind", ["grevlex", "lex", "block"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 5])
def test_heap_key_reverses_the_order_key(kind, nvars):
    """Both keys sort as the textbook order does, in opposite directions."""
    rng = random.Random(nvars)
    exps = list({tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(200)})
    order = _order(kind)
    expected = sorted(exps, key=functools.cmp_to_key(lambda a, b: _textbook_compare(order, a, b)))
    assert sorted(exps, key=order.key) == expected
    assert sorted(exps, key=order.heap_key) == expected[::-1]


def test_buchberger_order_stable_and_permutation_invariant():
    ring = PolyRing(5, ("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(10):
        gens = [random_poly(rng, ring, max_degree=3, max_terms=3) for _ in range(3)]
        first = buchberger(Ideal.from_polys(ring, gens)).basis
        again = buchberger(Ideal.from_polys(ring, gens)).basis
        permuted = buchberger(Ideal.from_polys(ring, gens[::-1])).basis
        assert first == again == permuted


# -- extending a cached basis --------------------------------------------------


def _derived_reducers(ideal):
    """The reducers `_reducer` derives from a cached basis, one per element."""
    return tuple(_reducer(g, ideal.basis_order, ideal.ring.p) for g in ideal.basis)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3, 5]),
       st.sampled_from(["grevlex", "lex", "block"]), st.integers(min_value=1, max_value=3))
def test_extending_a_cached_basis_is_buchberger_from_nothing(seed, p, kind, nvars):
    """The Groebner loop started from the cached basis of I, with the polys
    as its inputs, gives the basis of buchberger(I + polys), also when a
    poly already lies in I, when one makes the unit ideal, and when I is
    zero or the unit ideal itself.  `extend` runs that loop in grevlex."""
    ring = _ordered_ring(p, kind, nvars)
    order = _order(kind)
    rng = random.Random(seed)
    gens = [random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(rng.randint(0, 3))]
    ideal = buchberger(Ideal.from_polys(ring, gens), order)
    polys = [random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=True) for _ in range(rng.randint(0, 3))]
    extra = rng.randrange(3)
    if extra == 0 and gens:  # a member of I
        polys.append(gens[0] * random_poly(rng, ring, max_degree=1, max_terms=2))
    elif extra == 1 and ideal.basis:  # a poly that reduces to a nonzero constant
        polys.append(ideal.basis[-1] + ring.constant(rng.randint(1, p - 1)))
    rng.shuffle(polys)
    fresh = buchberger(Ideal.from_polys(ring, gens + polys), order)
    extended = _groebner(ideal.reducers, polys, order, p)
    assert [(lm, dict(tail)) for lm, tail in extended] == [(lm, dict(tail)) for lm, tail in fresh.reducers]
    if order == GREVLEX:
        ideal_plus = extend(ideal, polys)
        assert ideal_plus.basis == fresh.basis and ideal_plus.basis_order == GREVLEX
        assert ideal_plus.generators == ideal.generators + tuple(f for f in polys if not f.is_zero())
    leads = [g.leading(order) for g in fresh.basis]
    for g, (lm, lc) in zip(fresh.basis, leads):  # monic and reduced
        assert lc == 1
        assert not any(other != lm and all(map(operator.le, other, e)) for other, _ in leads for e in g.terms)
    if extra == 1 and ideal.basis:
        assert fresh.contains_one()


@pytest.mark.parametrize("kind", ["grevlex", "lex", "block"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_loop_hands_over_the_reducers_its_basis_derives(p, kind):
    """The (leading monomial, monic tail) pairs the Groebner loop hands
    to the cache are what `_reducer` derives from the basis, for every
    `buchberger` and `extend` result."""
    rng = random.Random(70 * p + len(kind))
    for nvars in (1, 2, 3):
        ring = _ordered_ring(p, kind, nvars)
        order = _order(kind)
        for _ in range(8):
            gens = [random_poly(rng, ring, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 3))]
            gb = buchberger(Ideal.from_polys(ring, gens), order)
            extended = extend(gb, [g.partial(i) for g in gens for i in range(nvars)])
            for result in (gb, extended):
                assert result.reducers == _derived_reducers(result)


# sha256 of what `_division_records` records: remainders and verdicts of
# `_reducer`, `_reduce_terms` and `reduces_to_zero` alone.
DIVISION_RECORDS_SHA256 = "292581ad24d6fb5111bd9af7972572598edf6ff7eb31dfe8114729650598698b"


def _division_records():
    """One line per seeded case, 45 for each p in 2, 3, 5, 7 and each term
    order: the remainder of `_reduce_terms` dividing f by divisors each
    scaled by a random unit, so non-monic for p > 2; and `reduces_to_zero`
    of f by them, with f a combination of them in every other case."""
    lines = []
    for p in (2, 3, 5, 7):
        for kind in ("grevlex", "lex", "block"):
            order = _order(kind)
            rng = random.Random(f"division {p} {kind}")
            for n in range(45):
                ring = _ordered_ring(p, kind, rng.randint(1, 3))
                divisors = [random_poly(rng, ring).scale(rng.randint(1, p - 1)) for _ in range(rng.randint(1, 3))]
                if n % 2:
                    f = sum((random_poly(rng, ring, max_degree=2) * g for g in divisors), ring.zero())
                else:
                    f = random_poly(rng, ring, max_degree=4, max_terms=5)
                remainder = _reduce_terms(f.terms, [_reducer(g, order, p) for g in divisors], order, p)
                lines.append(repr((p, kind, n, sorted(remainder.items()), reduces_to_zero(f, divisors))))
    return lines


def test_division_by_non_monic_divisors_is_pinned():
    lines = _division_records()
    assert len(lines) == 540
    # 260 divide to zero: divisors that are no Groebner basis leave some
    # combinations a remainder, and a constant divisor leaves none
    assert sum("True" in line for line in lines) == 260
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIVISION_RECORDS_SHA256


@pytest.mark.parametrize("kind", ["grevlex", "lex", "block"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_eliminations_cache_the_reducers_their_basis_derives(p, kind):
    """`eliminate` and `graph_kernel` state their reduced grevlex basis as
    their generators and cache it with the reducers `_reducer` derives,
    monic, also when the generators they start from are not."""
    ring = _ordered_ring(p, kind, 3)
    gens = [parse_polynomial(t, ring).scale(2) for t in ("x*z - y^2", "x^3 - y*z", "2*y^2*z + x")]
    ideal = Ideal.from_polys(ring, gens)
    results = [eliminate(ideal, keep) for keep in ((0, 1), (1, 2), (0, 2))]
    target = PolyRing(p, ("s", "t"))
    results.append(graph_kernel(ideal, [ring.variable(0) * ring.variable(1), ring.variable(2) ** 2], target))
    assert any(result.basis for result in results)
    for result in results:
        assert result.basis_order == GREVLEX and result.generators == result.basis
        assert result.reducers == _derived_reducers(result)
        assert all(g.leading(GREVLEX)[1] == 1 for g in result.basis)


def test_extend_starts_only_from_a_cache_in_its_own_order():
    """A basis cached in another order is not a start: the loop then runs
    from the generators, and the result is the same reduced basis."""
    ring = PolyRing(5, ("x", "y", "z"))
    gens = [parse_polynomial(t, ring) for t in ("x*z - y^2", "x^3 - y*z")]
    polys = [parse_polynomial(t, ring) for t in ("z^2 + x", "x*y - 1")]
    want = buchberger(Ideal.from_polys(ring, gens + polys)).basis
    for cached in (buchberger(Ideal.from_polys(ring, gens), LEX), Ideal.from_polys(ring, gens)):
        extended = extend(cached, polys)
        assert extended.basis == want and extended.basis_order == GREVLEX
        assert extended.generators == tuple(gens + polys)


def test_extend_rejects_a_poly_from_another_ring():
    ring = PolyRing(5, ("x", "y"))
    other = PolyRing(5, ("x", "z"))
    with pytest.raises(ValueError):
        extend(buchberger(Ideal.from_polys(ring, [ring.variable(0)])), [other.variable(1)])


def test_normal_form_examples():
    ring = PolyRing(5, ("y", "x"))  # lex ranks y above x
    cusp = buchberger(Ideal.from_polys(ring, [parse_polynomial("y^2 - x^3", ring)]), LEX)
    assert normal_form(parse_polynomial("y^2", ring), cusp) == parse_polynomial("x^3", ring)
    ring = PolyRing(5, ("x", "y"))
    gb_x = buchberger(Ideal.from_polys(ring, [ring.variable(0)]))
    assert normal_form(ring.variable(0), gb_x).is_zero()
    gb_xy = buchberger(Ideal.from_polys(ring, [ring.variable(0), ring.variable(1)]))
    assert normal_form(ring.one(), gb_xy) == ring.one()


def test_normal_form_requires_cache():
    ring = PolyRing(5, ("x",))
    with pytest.raises(ValueError):
        normal_form(ring.variable(0), Ideal.from_polys(ring, [ring.variable(0)]))
    with pytest.raises(ValueError):
        normal_product(ring.variable(0).terms, ring.one().terms, Ideal.from_polys(ring, [ring.variable(0)]))


def test_the_constructor_takes_no_cache():
    """A basis handed to the constructor would be taken unchecked: (1) on
    (x) would claim the unit ideal.  So the constructor takes the ring and
    the generators only, and the cache comes from the Groebner loop."""
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    for cache in ({"basis": (ring.one(),)}, {"basis_order": GREVLEX}, {"reducers": ()}):
        with pytest.raises(TypeError):
            Ideal(ring, (x,), **cache)
    with pytest.raises(TypeError):
        Ideal(ring, (x,), (ring.one(),), GREVLEX)
    stated = Ideal(ring, (x,))
    assert (stated.basis, stated.basis_order, stated.reducers) == (None, None, ())
    cached = buchberger(stated)
    assert not cached.contains_one() and normal_form(y, cached) == y


# The one writer of an ideal's Groebner cache: `Ideal._built`, which
# attaches what the Groebner loop made.
CACHE_FIELDS = {"basis", "basis_order", "reducers"}
CACHE_WRITERS = {("Ideal", "_built")}


def _cache_writes(tree):
    """(line, enclosing class, enclosing function) of each write of `tree`
    to a cache field: a `setattr` or `object.__setattr__` call that names
    the field, or an attribute store, except a class's own `self.<field>`
    outside `Ideal`, which writes an attribute of that class."""
    found = []

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                "setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value in CACHE_FIELDS for a in node.args):
            found.append((node.lineno, cls, function))
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_FIELDS and isinstance(node.ctx, ast.Store) and \
                not (cls not in (None, "Ideal") and getattr(node.value, "id", None) == "self"):
            found.append((node.lineno, cls, function))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(tree, None, None)
    return found


def test_only_the_loop_output_writes_the_cache():
    writers = set()
    for path in sorted(Path(polyring.__file__).parent.glob("*.py")):
        uses = _cache_writes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        assert [use for use in uses if use[1:] not in CACHE_WRITERS] == [], path.name
        writers |= {use[1:] for use in uses}
    assert writers == CACHE_WRITERS


def test_the_cache_write_check_sees_each_kind_of_write():
    source = "\n".join([
        "class Ideal:",
        "    def _built(ideal): object.__setattr__(ideal, 'basis', ())",
        "    def forged(self): setattr(self, 'reducers', ())",
        "    def stored(self): self.basis_order = None",
        "class Model:",
        "    def __init__(self): self.basis = ()",
        "    def other(self, ideal): ideal.basis = ()",
        "def write(ideal): ideal.reducers = ()",
    ])
    assert _cache_writes(ast.parse(source)) == [(2, "Ideal", "_built"), (3, "Ideal", "forged"),
                                                 (4, "Ideal", "stored"), (7, "Model", "other"),
                                                 (8, None, "write")]


@pytest.mark.parametrize("relations", [[], ["y^2 - x^3"], ["x^2*y + y^3", "x*y^2 - x"], ["1"]])
def test_normal_product_is_the_normal_form_of_the_product(relations):
    """On term dicts, with the product's raw coefficients left unreduced:
    (x + y)(x + 4y) has the coefficient 5 at x*y, which no leading monomial
    of y^2 - x^3 divides, and it must not reach the remainder."""
    ring = PolyRing(5, ("x", "y"))
    ideal = buchberger(Ideal.from_polys(ring, [parse_polynomial(g, ring) for g in relations]))
    rng = random.Random(len(relations))
    pairs = [(parse_polynomial("x + y", ring), parse_polynomial("x + 4*y", ring))]
    for _ in range(20):
        a, b = (Polynomial(ring, {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 4) for _ in range(4)})
                for _ in range(2))
        pairs.append((normal_form(a, ideal), normal_form(b, ideal)))
    for a, b in pairs:
        got = normal_product(a.terms, b.terms, ideal)
        assert got == normal_form(a * b, ideal).terms
        assert all(0 < c < 5 for c in got.values())


@pytest.mark.parametrize("p", [2, 3])
def test_membership_matches_linear_algebra(p):
    ring = PolyRing(p, ("x", "y"))
    rng = random.Random(p)
    for _ in range(25):
        gens = [random_poly(rng, ring, max_degree=2, max_terms=2) for _ in range(2)]
        gb = buchberger(Ideal.from_polys(ring, gens))
        f = random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=True)
        claimed = normal_form(f, gb).is_zero()
        degree = max(f.total_degree(), 0) + sum(max(g.total_degree(), 0) for g in gens) + 2
        if claimed:
            assert linalg_member(f, gens, degree)
        else:
            assert not linalg_member(f, gens, degree)


def test_eliminate_examples():
    ring = PolyRing(5, ("x", "t1", "t2"))
    ideal = Ideal.from_polys(
        ring, [parse_polynomial("t1 - x^2", ring), parse_polynomial("t2 - x^3", ring)]
    )
    got = eliminate(ideal, [1, 2])
    assert [g.to_text() for g in got.basis] == ["t1^3 + 4*t2^2"]

    ring2 = PolyRing(5, ("x", "y"))
    assert eliminate(Ideal.from_polys(ring2, [ring2.variable(0)]), [0]).basis == (ring2.variable(0),)
    gone = eliminate(
        Ideal.from_polys(ring2, [parse_polynomial("x - y", ring2)]), [1]
    )
    assert gone.basis == ()
    # keep a prefix, so the eliminated y is moved ahead of x and back
    hyperbola = Ideal.from_polys(ring2, [parse_polynomial("y - x^2", ring2), parse_polynomial("x*y - 1", ring2)])
    assert [g.to_text() for g in eliminate(hyperbola, [0]).basis] == ["x^3 + 4"]


def test_eliminate_properties():
    ring = PolyRing(3, ("x", "y", "z"))
    rng = random.Random(21)
    for keep in ([1, 2], [0, 2], [0]):
        for _ in range(10):
            gens = [random_poly(rng, ring, max_degree=2, max_terms=2) for _ in range(2)]
            gb = buchberger(Ideal.from_polys(ring, gens))
            kept = eliminate(Ideal.from_polys(ring, gens), keep)
            for g in kept.basis:
                assert all(e[i] == 0 for e in g.terms for i in range(3) if i not in keep)
                assert normal_form(g, gb).is_zero()  # eliminate(I, S) is inside I
            # the kept part is the reduced grevlex basis of what it generates
            assert buchberger(Ideal.from_polys(ring, kept.basis)).basis == kept.basis


def test_pth_root_ideal_examples():
    ring = PolyRing(5, ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    assert [g.to_text() for g in pth_root_ideal(Ideal.from_polys(ring, [x])).basis] == ["x"]
    got = pth_root_ideal(Ideal.from_polys(ring, [parse_polynomial("x^5", ring), y]))
    assert sorted(g.to_text() for g in got.basis) == ["x", "y"]
    assert pth_root_ideal(Ideal.from_polys(ring, [ring.one()])).contains_one()
    assert pth_root_ideal(Ideal.from_polys(ring, [])).basis == ()


@pytest.mark.parametrize("p", [2, 3])
def test_pth_root_ideal_membership_property(p):
    ring = PolyRing(p, ("x", "y"))
    rng = random.Random(p * 7)
    for _ in range(10):
        gens = [random_poly(rng, ring, max_degree=2, max_terms=2)]
        ideal = Ideal.from_polys(ring, gens)
        roots = pth_root_ideal(ideal)
        gb = buchberger(ideal)
        for _ in range(8):
            g = random_poly(rng, ring, max_degree=2, max_terms=2, allow_zero=True)
            in_roots = normal_form(g, roots).is_zero()
            power_in_ideal = normal_form(g ** p, gb).is_zero()
            assert in_roots == power_in_ideal


def test_krull_dim_examples():
    for names, gens, dim in [
        ("xy", [], 2),
        ("xy", ["y^2 - x^3"], 1),
        ("xy", ["1"], -1),
        ("xy", ["x*y"], 1),
        ("xy", ["x", "y"], 0),
        ("xyz", [], 3),
        ("xyz", ["x*z - y^2", "x^3 - y*z"], 1),
    ]:
        ring = PolyRing(5, tuple(names))
        assert krull_dim(Ideal.from_polys(ring, [parse_polynomial(g, ring) for g in gens])) == dim
        # a cached basis in any order gives the same leading-term dimension:
        # here lex with y ranked first, on the ring that lists y first
        swapped = PolyRing(5, ("y", "x", *names[2:]))
        ideal = Ideal.from_polys(swapped, [parse_polynomial(g, swapped) for g in gens])
        assert krull_dim(buchberger(ideal, LEX)) == dim


@pytest.mark.parametrize("shape", ["disjoint", "path"])
def test_krull_dim_of_thirty_variables_takes_no_subset_scan(shape):
    """x0*x1, x2*x3, ... (disjoint) and x0*x1, x1*x2, ... (a path) in 30
    variables both have dimension 15.  The scan over variable subsets took
    0.89 s on the disjoint products in 20 variables, and about 4.5 times
    longer for every two variables more."""
    n = 30
    ring = PolyRing(5, tuple(f"x{i}" for i in range(n)))
    x = [ring.variable(i) for i in range(n)]
    pairs = [(i, i + 1) for i in range(0, n, 2)] if shape == "disjoint" else [(i, i + 1) for i in range(n - 1)]
    start = time.perf_counter()
    assert krull_dim(Ideal.from_polys(ring, [x[i] * x[j] for i, j in pairs])) == 15
    assert time.perf_counter() - start < 1.0


def test_krull_dim_zero_ideal_in_forty_variables():
    # the first candidate set, all forty variables, is independent
    ring = PolyRing(5, tuple(f"x{i}" for i in range(40)))
    start = time.perf_counter()
    assert krull_dim(Ideal.from_polys(ring, [])) == 40
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", range(6))
def test_krull_dim_of_monomial_ideals_matches_the_bitmask_definition(seed):
    """A monomial ideal's generators are a Groebner basis of it, so its
    dimension is the largest variable set containing no generator's
    support, found here by scanning every bitmask."""
    rng = random.Random(900 + seed)
    for _ in range(20):
        n = rng.randint(1, 6)
        ring = PolyRing(3, tuple(f"x{i}" for i in range(n)))
        gens = []
        for _ in range(rng.randint(0, 4)):
            exp = tuple(rng.choice([0, 0, 1, 2]) for _ in range(n))
            if any(exp):
                gens.append(Polynomial(ring, {exp: 1}))
        supports = [{i for i, e in enumerate(next(iter(g.terms))) if e} for g in gens]
        want = max(
            bin(bits).count("1")
            for bits in range(1 << n)
            if not any(all(bits >> i & 1 for i in s) for s in supports)
        )
        assert krull_dim(Ideal.from_polys(ring, gens)) == want, gens


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(4, ("x",))
    with pytest.raises(ValueError):
        PolyRing(5, ("x", "x"))
    with pytest.raises(ValueError):
        PolyRing(2 ** 16 + 1, ("x",))
