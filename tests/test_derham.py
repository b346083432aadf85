"""Presented rings and the top-form presentation."""

import random

import pytest

from wittcert.derham import PresentedRing, top_form_is_zero_in_omega, top_form_presentation
from wittcert.polyring import PolyRing, Polynomial, parse_polynomial


def presented(p, names, gens):
    ring = PolyRing(p, names)
    return PresentedRing.make(ring, [parse_polynomial(g, ring) for g in gens])


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


def test_presented_ring_json_round_trip():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    doc = R.ideal.to_json()
    back = PresentedRing.from_json(doc)
    assert back.ring == R.ring
    assert back.ideal.basis == R.ideal.basis
    # textual generator form is accepted too
    alt = PresentedRing.from_json({"p": 5, "vars": ["x", "y"], "generators": ["y^2 - x^3"]})
    assert alt.ideal.basis == R.ideal.basis
