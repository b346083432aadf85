"""De Rham complex structure: d, wedge, and the top-form presentation."""

import random

import pytest

from wittcert.derham import (
    DifferentialForm,
    PresentedRing,
    exterior_d,
    top_form_is_zero_in_omega,
    top_form_presentation,
    wedge,
)
from wittcert.polyring import PolyRing, Polynomial, parse_polynomial


def presented(p, names, gens):
    ring = PolyRing(p, names)
    return PresentedRing.make(ring, [parse_polynomial(g, ring) for g in gens])


def random_form(rng, presentation, degree, max_degree=2):
    ring = presentation.ring
    n = ring.nvars
    subsets = []

    def build(start, chosen):
        if len(chosen) == degree:
            subsets.append(tuple(chosen))
            return
        for i in range(start, n):
            build(i + 1, chosen + [i])

    build(0, [])
    components = {}
    for s in subsets:
        if rng.random() < 0.6:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                exp = [0] * n
                for _ in range(rng.randint(0, max_degree)):
                    exp[rng.randrange(n)] += 1
                terms[tuple(exp)] = rng.randint(1, ring.p - 1)
            components[s] = Polynomial(ring, terms)
    return DifferentialForm(presentation, degree, components)


def test_d_of_product_satisfies_leibniz_in_degree_zero():
    R = presented(5, ("x", "y"), [])
    x = R.ring.variable(0)
    y = R.ring.variable(1)
    d_xy = exterior_d(DifferentialForm.function(R, x * y))
    expected = DifferentialForm(R, 1, {(0,): y, (1,): x})
    assert d_xy == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_d_squared_zero_and_graded_leibniz(p):
    R = presented(p, ("x", "y", "z"), ["x*y*z"])
    rng = random.Random(p)
    for _ in range(12):
        qa = rng.randint(0, 2)
        qb = rng.randint(0, 2)
        a = random_form(rng, R, qa)
        b = random_form(rng, R, qb)
        assert exterior_d(exterior_d(a)).is_representative_zero()
        lhs = exterior_d(wedge(a, b))
        sign = R.ring.constant(-1) if qa % 2 else R.ring.one()
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale(sign)
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wedge_graded_commutativity(p):
    R = presented(p, ("x", "y", "z"), [])
    rng = random.Random(10 + p)
    for _ in range(10):
        qa = rng.randint(0, 2)
        qb = rng.randint(0, 2)
        a = random_form(rng, R, qa)
        b = random_form(rng, R, qb)
        sign = R.ring.one() if (qa * qb) % 2 == 0 else R.ring.constant(-1)
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_examples():
    R = presented(5, ("x", "y"), [])
    dx = DifferentialForm.d_variable(R, 0)
    dy = DifferentialForm.d_variable(R, 1)
    assert wedge(dx, dx).is_representative_zero()
    assert (wedge(dx, dy) + wedge(dy, dx)).is_representative_zero()
    x, y = R.ring.variable(0), R.ring.variable(1)
    got = wedge(dy.scale(x), dx.scale(y))
    assert got == DifferentialForm(R, 2, {(0, 1): -(x * y)})


def test_top_degree_d_is_zero():
    R = presented(3, ("x",), [])
    form = DifferentialForm(R, 1, {(0,): parse_polynomial("x^2", R.ring)})
    assert exterior_d(form).is_representative_zero()


def test_normalize_reduces_mod_ideal_on_demand():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    killed = DifferentialForm.function(R, parse_polynomial("y^2 - x^3", R.ring))
    assert killed.components  # representative kept as written
    assert killed.is_representative_zero()
    assert not killed.normalize().components
    f = DifferentialForm.function(R, parse_polynomial("y^2", R.ring))
    assert f.normalize().components[()] == R.normal(parse_polynomial("y^2", R.ring))
    assert not f.is_representative_zero()


def test_top_form_presentation_cusp():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    top = top_form_presentation(R)
    assert sorted(g.to_text() for g in top.jacobian_ideal.basis) == ["x^2", "y"]
    assert not top_form_is_zero_in_omega(R.ring.one(), top)
    assert top_form_is_zero_in_omega(R.ring.variable(1), top)
    assert top_form_is_zero_in_omega(parse_polynomial("y^2 - x^3", R.ring), top)


def test_top_form_presentation_free_and_unit_cases():
    plane = presented(5, ("x", "y"), [])
    top = top_form_presentation(plane)
    assert top.jacobian_ideal.basis == ()
    # free of rank one: only 0 kills the generator
    assert not top_form_is_zero_in_omega(plane.ring.one(), top)
    assert not top_form_is_zero_in_omega(plane.ring.variable(0), top)
    assert top_form_is_zero_in_omega(plane.ring.zero(), top)

    unit = presented(5, ("x", "y"), ["1"])
    assert top_form_presentation(unit).jacobian_ideal.contains_one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partials_of_generators_kill_the_top_form(p):
    rng = random.Random(31 + p)
    ring = PolyRing(p, ("x", "y"))
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exp] = rng.randint(1, p - 1)
        f = Polynomial(ring, terms)
        if f.is_zero():
            continue
        R = PresentedRing.make(ring, [f])
        top = top_form_presentation(R)
        for i in range(2):
            assert top_form_is_zero_in_omega(f.partial(i), top)
        assert top_form_is_zero_in_omega(f, top)


def test_form_validation():
    R = presented(5, ("x", "y"), [])
    with pytest.raises(ValueError):
        DifferentialForm(R, 1, {(0, 1): R.ring.one()})
    with pytest.raises(ValueError):
        DifferentialForm(R, 2, {(1, 0): R.ring.one()})
    with pytest.raises(ValueError):
        DifferentialForm(R, -1, {})
    other = presented(5, ("x", "y"), ["x"])
    a = DifferentialForm.d_variable(R, 0)
    b = DifferentialForm.d_variable(other, 0)
    with pytest.raises(ValueError):
        wedge(a, b)
    with pytest.raises(ValueError):
        a + b


def test_form_json_shape():
    R = presented(5, ("x", "y"), [])
    form = DifferentialForm(R, 1, {(0,): R.ring.variable(1)})
    doc = form.to_json()
    assert doc["degree"] == 1
    assert doc["terms"][0]["subset"] == [0]
    assert doc["terms"][0]["coef"]["terms"] == [{"exp": [0, 1], "coef": 1}]


def test_presented_ring_json_round_trip():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    doc = R.to_json()
    back = PresentedRing.from_json(doc)
    assert back.ring == R.ring
    assert back.ideal.basis == R.ideal.basis
    # textual generator form is accepted too
    alt = PresentedRing.from_json({"p": 5, "vars": ["x", "y"], "generators": ["y^2 - x^3"]})
    assert alt.ideal.basis == R.ideal.basis
