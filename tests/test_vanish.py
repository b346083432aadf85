"""Descent certificates, the differential p-closure, and tuple kernels."""

import hashlib
import json
import random
import time

import pytest

from wittcert import polyring, vanish
from wittcert.derham import PresentedRing, top_form_presentation
from wittcert.polyring import (
    GREVLEX,
    Ideal,
    PolyRing,
    Polynomial,
    basis_pth_root,
    buchberger,
    eliminate,
    extend,
    normal_form,
    parse_polynomial,
    pth_root_ideal,
)
from wittcert.vanish import (
    ClosureBudgetError,
    DescentStep,
    InapplicableError,
    InternalDefectError,
    VanishingCertificate,
    certify_top_vanishing,
    certify_tuple_vanishing,
    closure_state,
    descend_to_unit,
    differential_p_closure,
    kernel_of_tuple,
    vanishing_degree_bound,
    verify_certificate,
)


def presented(p, names, gens):
    ring = PolyRing(p, names)
    return PresentedRing.make(ring, [parse_polynomial(g, ring) for g in gens])


def random_nonzero_ideal(rng, ring, max_gens=3, max_degree=4, max_terms=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = [0] * ring.nvars
            for _ in range(rng.randint(0, max_degree)):
                exp[rng.randrange(ring.nvars)] += 1
            terms[tuple(exp)] = rng.randint(1, ring.p - 1)
        gens.append(Polynomial(ring, terms))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [ring.variable(0)]
    return Ideal.from_polys(ring, gens)


# -- descent -----------------------------------------------------------------


def test_descend_constant_is_empty_chain():
    ring = PolyRing(5, ("x",))
    steps, terminal = descend_to_unit(ring.constant(3))
    assert steps == () and terminal == 3


def test_descend_known_chains():
    ring2 = PolyRing(2, ("x", "y"))
    steps, terminal = descend_to_unit(parse_polynomial("y^2 + x^3", ring2))
    assert [(s.op, s.var, s.after.to_text()) for s in steps] == [
        ("partial", 0, "x^2"),
        ("pth_root", None, "x"),
        ("partial", 0, "1"),
    ]
    assert terminal == 1

    ring3 = PolyRing(3, ("x",))
    steps, terminal = descend_to_unit(parse_polynomial("x^3", ring3))
    assert [(s.op, s.var) for s in steps] == [("pth_root", None), ("partial", 0)]
    assert terminal == 1


def test_descend_rejects_zero():
    ring = PolyRing(5, ("x",))
    with pytest.raises(ValueError):
        descend_to_unit(ring.zero())


def test_descent_steps_strictly_decrease_degree():
    rng = random.Random(1)
    for p in (2, 3, 5):
        ring = PolyRing(p, ("x", "y", "z"))
        for _ in range(30):
            ideal = random_nonzero_ideal(rng, ring)
            f = ideal.generators[0]
            steps, terminal = descend_to_unit(f)
            assert terminal % p != 0
            degrees = [f.total_degree()] + [s.after.total_degree() for s in steps]
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            assert len(steps) <= max(f.total_degree(), 0) * 4 + 1


# -- top-form certificates -----------------------------------------------------


def test_certify_cusp_golden_chain():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    cert = certify_top_vanishing(R)
    assert cert.seed.to_text() == "x^3 + 4*y^2"
    assert [(s.op, s.var) for s in cert.steps] == [("partial", 0)] * 3
    assert [s.after.to_text() for s in cert.steps] == ["3*x^2", "x", "1"]
    assert cert.terminal == 1
    assert verify_certificate(cert)


def test_certify_single_variable():
    R = presented(5, ("x",), ["x"])
    cert = certify_top_vanishing(R)
    assert [(s.op, s.var) for s in cert.steps] == [("partial", 0)]
    assert cert.terminal == 1
    assert verify_certificate(cert)


def test_certify_zero_ideal_is_inapplicable():
    with pytest.raises(InapplicableError):
        certify_top_vanishing(presented(5, ("x", "y"), []))


def test_certify_unit_ideal_is_trivial():
    cert = certify_top_vanishing(presented(5, ("x",), ["2"]))
    assert cert.seed == cert.ideal.ring.one()
    assert cert.steps == ()
    assert verify_certificate(cert)


def test_certificate_json_round_trip():
    R = presented(3, ("x", "y"), ["x*y + x^2"])
    cert = certify_top_vanishing(R)
    doc = json.loads(json.dumps(cert.to_json(), sort_keys=True))
    again = VanishingCertificate.from_json(doc)
    assert verify_certificate(again)
    assert again.seed == cert.seed
    assert again.terminal == cert.terminal


def test_verifier_rejects_tampering():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    cert = certify_top_vanishing(R)
    base = cert.to_json()

    def mutate(transform):
        doc = json.loads(json.dumps(base))
        transform(doc)
        return verify_certificate(VanishingCertificate.from_json(doc))

    assert mutate(lambda d: None)  # sanity: unmodified replays fine
    # seed outside the ideal
    assert not mutate(lambda d: d["seed"]["terms"].pop())
    # broken chain linkage
    assert not mutate(lambda d: d["steps"][1]["in"]["terms"][0].update(coef=1))
    # wrong partial value
    assert not mutate(lambda d: d["steps"][0]["out"]["terms"][0].update(coef=1))
    # wrong terminal
    assert not mutate(lambda d: d.update(terminal=3))
    # truncated chain leaves a non-constant tail
    assert not mutate(lambda d: d.update(steps=d["steps"][:1]))
    # empty chain with a non-constant seed
    assert not mutate(lambda d: d.update(steps=[]))


@pytest.fixture
def read(monkeypatch):
    """The polynomial documents `VanishingCertificate.from_json` parses, in order."""
    documents = []
    parse = vanish.poly_from_json

    def recording(doc, ring):
        documents.append(doc)
        return parse(doc, ring)

    monkeypatch.setattr(vanish, "poly_from_json", recording)
    return documents


def test_a_linked_chain_is_encoded_and_read_once_per_polynomial(read):
    """The seed is the first step's "in" and each "out" the next "in": the
    document holds one encoding of each, and loading it reads each once
    and links the steps by the very polynomial.  A document whose link is
    only equal up to Python's 1 == 1.0 == true is read in full and refused."""
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    cert = certify_top_vanishing(R)
    assert len(cert.steps) >= 3
    doc = cert.to_json()
    assert doc["seed"] is doc["steps"][0]["in"]
    assert all(a["out"] is b["in"] for a, b in zip(doc["steps"], doc["steps"][1:]))
    doc = json.loads(json.dumps(doc))
    again = VanishingCertificate.from_json(doc)
    assert read == [doc["steps"][0]["in"]] + [s["out"] for s in doc["steps"]]
    assert again.seed is again.steps[0].before
    assert all(a.after is b.before for a, b in zip(again.steps, again.steps[1:]))
    assert verify_certificate(again) and again.to_json() == cert.to_json()

    def forged(field, make):
        forged = json.loads(json.dumps(doc))
        term = (forged["seed"] if field == "seed" else forged["steps"][1]["in"])["terms"][0]
        if make is bool:
            term["exp"][term["exp"].index(0)] = False
        else:
            term["coef"] = make(term["coef"])
        assert forged["seed"] == forged["steps"][0]["in"] and forged["steps"][1]["in"] == forged["steps"][0]["out"]
        return forged

    for field in ("seed", "in"):
        for make in (float, bool):
            with pytest.raises(ValueError, match="malformed certificate"):
                VanishingCertificate.from_json(forged(field, make))


def test_a_broken_link_is_read_on_its_own_and_refused(read):
    """A step "in" that differs from the previous "out" is parsed on its
    own, beside that "out", and the replay refuses the broken chain; so is
    a seed that differs from the first "in"."""
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    doc = json.loads(json.dumps(certify_top_vanishing(R).to_json()))
    forged = json.loads(json.dumps(doc))
    forged["steps"][1]["in"]["terms"][0]["coef"] += 1
    cert = VanishingCertificate.from_json(forged)
    assert forged["steps"][1]["in"] in read and forged["steps"][0]["out"] in read
    assert cert.steps[1].before != cert.steps[0].after
    assert not verify_certificate(cert)

    read.clear()
    forged = json.loads(json.dumps(doc))
    forged["seed"]["terms"].pop()
    cert = VanishingCertificate.from_json(forged)
    assert read[-1] == forged["seed"] and cert.seed != cert.steps[0].before
    assert not verify_certificate(cert)


def test_verifier_rejects_fake_root_step():
    ring = PolyRing(2, ("x",))
    seed = parse_polynomial("x^2", ring)
    ideal = Ideal.from_polys(ring, [seed])
    bogus = VanishingCertificate(
        ideal,
        seed,
        (DescentStep("pth_root", None, seed, ring.one()),),
        1,
    )
    assert not verify_certificate(bogus)  # 1^2 != x^2
    honest = VanishingCertificate(
        ideal,
        seed,
        (
            DescentStep("pth_root", None, seed, ring.variable(0)),
            DescentStep("partial", 0, ring.variable(0), ring.one()),
        ),
        1,
    )
    assert verify_certificate(honest)


def _root_step_document(p, names):
    """The certificate document of the seed Σ x_i^p, one root step to
    Σ x_i and one partial step to 1: under 2 KB at any p."""
    ring = PolyRing(p, names)
    seed = sum((ring.variable(i) ** p for i in range(ring.nvars)), ring.zero())
    root = sum((ring.variable(i) for i in range(ring.nvars)), ring.zero())
    steps = (DescentStep("pth_root", None, seed, root), DescentStep("partial", 0, root, ring.one()))
    return VanishingCertificate(Ideal.from_polys(ring, [seed]), seed, steps, 1).to_json()


@pytest.mark.parametrize("p,names", [(257, ("x", "y", "z")), (65521, ("x", "y", "z", "w"))])
def test_replay_expands_a_root_step_termwise(monkeypatch, p, names):
    """A root step is replayed by the termwise p-th power, never by powering
    a polynomial, whose cost grows with p; a forged root is still refused."""
    doc = json.loads(json.dumps(_root_step_document(p, names)))
    assert len(json.dumps(doc)) < 2000

    def refused(*args):
        raise AssertionError("the replay powered a polynomial")

    monkeypatch.setattr(Polynomial, "__pow__", refused)
    assert verify_certificate(VanishingCertificate.from_json(doc))
    # x + 2y + ...: its x-partial is still 1, but its p-th power x^p + 2y^p + ... is not the seed
    for root in (doc["steps"][0]["out"], doc["steps"][1]["in"]):
        next(term for term in root["terms"] if term["exp"][1])["coef"] = 2
    assert not verify_certificate(VanishingCertificate.from_json(doc))


def test_replay_ignores_a_forged_cache_on_the_stated_ideal():
    """A cache on the certificate's ideal is never read: one that claims x
    is in (y^2 - x^3), forged through the cache's one writer, does not make
    the seed x verify."""
    ring = PolyRing(5, ("x", "y"))
    x, cusp = ring.variable(0), parse_polynomial("y^2 - x^3", ring)
    forged = Ideal._built(ring, (cusp,), (((1, 0), []),), GREVLEX)  # the reducer of x: its lead, no tail
    assert forged.basis == (x,)
    assert normal_form(x, forged).is_zero()
    assert not verify_certificate(VanishingCertificate(forged, x, *descend_to_unit(x)))
    assert verify_certificate(VanishingCertificate(forged, cusp, *descend_to_unit(cusp)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_ideals_certify_and_replay(p):
    rng = random.Random(40 + p)
    ring = PolyRing(p, ("x", "y", "z"))
    for _ in range(15):
        ideal = random_nonzero_ideal(rng, ring)
        R = PresentedRing.make(ring, ideal.generators)
        if R.is_zero_ideal():
            continue
        cert = certify_top_vanishing(R)
        assert verify_certificate(cert)


# The certify path's outputs on 300 seeded ideals of the bench's certify
# shapes (p in {2, 3, 5}, 1-3 variables, 1-3 generators of at most 3 terms,
# degree at most 4, 4 and 2 in 1, 2 and 3 variables) and on the CLI presets
# at p in {2, 3, 5, 7}, hashed as canonical JSON: the certificate document
# and its replay before and after a JSON round trip, the closure basis and
# generations, the degree bound and the top-form basis.  Taken while the
# closure still found its roots by elimination and the replay always ran
# Buchberger.
CERTIFY_PATH_DIGEST = "0005fc520b496f41e3a0605bccd25ad827d6b0adc8da48eb6c8ff8d4a9f0f53f"


def certify_path_records():
    from wittcert.cli import PRESETS

    rng = random.Random(59)
    shapes = [(nvars, p) for nvars in (1, 2, 3) for p in (2, 3, 5)]
    cases = []
    for k in range(300):
        nvars, p = shapes[k % len(shapes)]
        ring = PolyRing(p, ("x", "y", "z")[:nvars])
        cases.append((ring, list(random_nonzero_ideal(rng, ring, 3, (4, 4, 2)[nvars - 1]).generators)))
    for p in (2, 3, 5, 7):
        for names, gens in PRESETS.values():
            ring = PolyRing(p, names)
            cases.append((ring, [parse_polynomial(g, ring) for g in gens]))
    for ring, gens in cases:
        R = PresentedRing.make(ring, gens)
        state = closure_state(R.ideal)
        record = {
            "p": ring.p,
            "vars": list(ring.names),
            "closure": [g.to_json() for g in state.ideal.basis],
            "generations": state.generations,
            "bound": vanishing_degree_bound(R),
            "top": [g.to_json() for g in top_form_presentation(R).jacobian_ideal.basis],
        }
        if R.ideal.basis:
            cert = certify_top_vanishing(R)
            doc = json.loads(json.dumps(cert.to_json()))
            record["certificate"] = doc
            record["verified"] = [verify_certificate(cert), verify_certificate(VanishingCertificate.from_json(doc))]
        yield record


def test_the_certify_path_outputs_are_pinned():
    h = hashlib.sha256()
    count = 0
    for record in certify_path_records():
        assert record.get("verified", [True, True]) == [True, True]
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        count += 1
    assert count == 300 + 12
    assert h.hexdigest() == CERTIFY_PATH_DIGEST


# -- differential p-closure -------------------------------------------------------


def test_closure_fixed_points():
    ring = PolyRing(5, ("x", "y"))
    zero = differential_p_closure(Ideal.from_polys(ring, []))
    assert zero.basis == ()
    unit = differential_p_closure(Ideal.from_polys(ring, [ring.constant(2)]))
    assert unit.contains_one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closure_of_cusp_is_unit(p):
    R = presented(p, ("x", "y"), ["y^2 - x^3"])
    state = closure_state(R.ideal)
    assert state.fixpoint
    assert state.ideal.contains_one()


def test_closure_hits_pth_root_route():
    # (x^p) needs the root step: all partials of x^p vanish
    for p in (2, 3):
        ring = PolyRing(p, ("x",))
        ideal = Ideal.from_polys(ring, [ring.variable(0) ** p])
        assert differential_p_closure(ideal).contains_one()


def test_closure_monotone_and_idempotent():
    rng = random.Random(77)
    ring = PolyRing(3, ("x", "y"))
    for _ in range(10):
        small = random_nonzero_ideal(rng, ring, max_gens=1, max_degree=3)
        big = Ideal.from_polys(ring, small.generators + random_nonzero_ideal(rng, ring, 1, 2).generators)
        c_small = differential_p_closure(small)
        c_big = differential_p_closure(big)
        for g in c_small.basis:
            assert normal_form(g, c_big).is_zero()  # monotone
        again = differential_p_closure(c_small)
        assert again.basis == c_small.basis  # idempotent


def test_closure_generation_cap_trips(monkeypatch):
    ring = PolyRing(5, ("x", "y"))
    ideal = Ideal.from_polys(ring, [parse_polynomial("y^2 - x^3", ring)])
    monkeypatch.setattr(vanish, "MAX_CLOSURE_GENERATIONS", 0)
    with pytest.raises(ClosureBudgetError):
        closure_state(ideal)


def test_closure_and_top_form_state_their_ideals_as_before():
    """Extending a cached basis keeps each generator tuple: a closure
    generation's ideal is stated by the basis before it, then the nonzero
    partials of its elements; the top form's by the generators of I, then
    theirs."""
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    state = closure_state(R.ideal)
    assert [g.to_text() for g in state.ideal.generators] == ["y", "x^2", "1", "2*x"]
    assert state.generations == 2
    top = top_form_presentation(R)
    assert [g.to_text() for g in top.jacobian_ideal.generators] == ["4*x^3 + y^2", "2*x^2", "2*y"]


# The cusp and the node (the CLI presets), a unit ideal and a curve in
# three variables, over F_5.
REDUCTION_WORK_CASES = {
    "cusp": (("x", "y"), ["y^2 - x^3"]),
    "node": (("x", "y"), ["x*y"]),
    "unit": (("x", "y"), ["x*y - 1", "x^2"]),
    "three": (("x", "y", "z"), ["x*z - y^2", "x^3 - y*z"]),
}


def test_top_form_and_closure_reduction_work_is_pinned(monkeypatch):
    """A work count, not a timing: the divisions (`_reduce_terms` calls)
    that `top_form_presentation` and `closure_state` make, per case, as
    (top form, closure).  Rebuilding each ideal from its generators and
    partials, and checking every basis it made against its generators,
    made (6, 6) on the cusp and on the node, (2, 0) on the unit ideal and
    (16, 16) on the three-variable curve."""
    parent = {"cusp": (6, 6), "node": (6, 6), "unit": (2, 0), "three": (16, 16)}
    calls = [0]
    real = polyring._reduce_terms

    def counting(*args):
        calls[0] += 1
        return real(*args)

    counts = {}
    for label, (names, gens) in REDUCTION_WORK_CASES.items():
        R = presented(5, names, gens)
        monkeypatch.setattr(polyring, "_reduce_terms", counting)
        calls[0] = 0
        top = top_form_presentation(R)
        top_calls = calls[0]
        calls[0] = 0
        state = closure_state(R.ideal)
        counts[label] = (top_calls, calls[0])
        monkeypatch.setattr(polyring, "_reduce_terms", real)
        assert state.fixpoint and state.ideal.contains_one()
        assert top.jacobian_ideal.basis == buchberger(Ideal.from_polys(R.ring, top.jacobian_ideal.generators)).basis
    assert counts == {"cusp": (3, 4), "node": (3, 4), "unit": (0, 0), "three": (8, 9)}
    for label, (top_calls, closure_calls) in counts.items():
        assert top_calls <= parent[label][0] and closure_calls <= parent[label][1]
    assert sum(t for t, _ in counts.values()) < sum(t for t, _ in parent.values())
    assert sum(c for _, c in counts.values()) < sum(c for _, c in parent.values())


# -- kernels and the general statement ----------------------------------------------


def test_kernel_of_tuple_examples():
    line = presented(5, ("x",), [])
    K = kernel_of_tuple(line, [parse_polynomial("x^2", line.ring), parse_polynomial("x^3", line.ring)])
    assert [g.to_text() for g in K.basis] == ["t1^3 + 4*t2^2"]
    assert K.ring.names == ("t1", "t2")

    assert kernel_of_tuple(line, [line.ring.variable(0)]).basis == ()

    node = presented(5, ("x", "y"), ["x*y"])
    K2 = kernel_of_tuple(node, [node.ring.variable(0), node.ring.variable(1)])
    assert [g.to_text() for g in K2.basis] == ["t1*t2"]


def test_kernel_result_actually_vanishes_on_the_ring():
    rng = random.Random(9)
    for p in (2, 5):
        R = presented(p, ("x", "y"), ["y^2 - x^3"])
        for _ in range(5):
            g1 = random_nonzero_ideal(rng, R.ring, 1, 2).generators[0]
            g2 = random_nonzero_ideal(rng, R.ring, 1, 2).generators[0]
            K = kernel_of_tuple(R, [g1, g2])
            assert K.basis  # dim R = 1 < 2 forces a nonzero kernel
            for kpoly in K.basis:
                pulled = kpoly.substitute({0: g1, 1: g2})
                assert R.normal(pulled).is_zero()


def test_degree_bound_examples():
    assert vanishing_degree_bound(presented(5, ("x", "y"), [])) == 2
    assert vanishing_degree_bound(presented(5, ("x", "y"), ["y^2 - x^3"])) == 1
    assert vanishing_degree_bound(presented(5, ("x", "y"), ["x*y"])) == 1
    assert vanishing_degree_bound(presented(5, ("x", "y"), ["1"])) == -1
    assert vanishing_degree_bound(presented(5, ("x", "y", "z"), [])) == 3


def test_certify_tuple_vanishing_cusp():
    R = presented(5, ("x", "y"), ["y^2 - x^3"])
    g, cert = certify_tuple_vanishing(R, [R.ring.variable(0), R.ring.variable(1)])
    assert not g.is_zero()
    assert verify_certificate(cert)
    assert R.normal(g.substitute({0: R.ring.variable(0), 1: R.ring.variable(1)})).is_zero()


def test_certify_tuple_vanishing_constants():
    R = presented(3, ("x",), [])
    g, cert = certify_tuple_vanishing(R, [R.ring.constant(2), R.ring.constant(1)])
    assert verify_certificate(cert)


def test_certify_tuple_requires_bound():
    R = presented(5, ("x", "y"), [])  # dimension 2
    with pytest.raises(InapplicableError):
        certify_tuple_vanishing(R, [R.ring.variable(0), R.ring.variable(1)])


def test_full_coordinate_tuple_on_affine_space_has_zero_kernel():
    for n in (1, 2, 3):
        names = tuple(f"x{i}" for i in range(n))
        R = presented(3, names, [])
        K = kernel_of_tuple(R, [R.ring.variable(i) for i in range(n)])
        assert K.basis == ()


# Reduced bases of pth_root_ideal and kernel_of_tuple on a fixed catalogue
# (cusp, node and a smooth plane cubic at p in {2, 3, 5}; two- and three-element
# tuples), hashed as canonical JSON.  Reduced bases are unique, so any
# rewrite of the elimination plumbing must reproduce this digest.
GOLDEN_ELIMINATION_DIGEST = "3eff10fee8afd949c55385e77a72b3cde9e3d3dd230948db425cfd7e8a37cf72"
ELIMINATION_CURVES = {"cusp": "y^2 - x^3", "node": "x*y", "plane": "y^2 - x^3 - x"}
ELIMINATION_TUPLES = (("x + y", "x*y"), ("x^2 + y", "y^2"), ("x", "y", "x*y + y^2"), ("x + y^2", "x*y", "y"))


def elimination_catalogue():
    """(input ideal, its p-th-root ideal) and (presentation, tuple kernel) pairs."""
    for p in (2, 3, 5):
        for name, relation in ELIMINATION_CURVES.items():
            R = presented(p, ("x", "y"), [relation])
            f = R.ideal.generators[0]
            for ideal in (
                R.ideal,
                Ideal.from_polys(R.ring, [f, f.partial(0), f.partial(1)]),
                Ideal.from_polys(R.ring, [f.frobenius_power(), R.ring.variable(0) ** (2 * p)]),
            ):
                yield ideal, pth_root_ideal(ideal)
            for texts in ELIMINATION_TUPLES:
                yield R, kernel_of_tuple(R, [parse_polynomial(t, R.ring) for t in texts])


def elimination_catalogue_docs():
    for _, result in elimination_catalogue():
        yield {"vars": list(result.ring.names), "basis": [g.to_json() for g in result.basis]}


def test_elimination_bases_match_golden_digest():
    h = hashlib.sha256()
    for doc in elimination_catalogue_docs():
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_ELIMINATION_DIGEST


def _is_its_own_fresh_grevlex_basis(ideal):
    fresh = buchberger(Ideal.from_polys(ideal.ring, ideal.basis))
    return ideal.basis_order == GREVLEX and fresh.basis == ideal.basis


def test_eliminations_return_the_basis_a_fresh_buchberger_computes(monkeypatch):
    """graph_kernel reads the kept part of a block-order basis on the kept
    variables, and eliminate widens it back, and neither reruns Buchberger
    on it: a fresh grevlex run on the basis each returns must give that
    basis back.  Every elimination the catalogue runs for a kernel is run
    again through `eliminate`."""
    calls = []
    compute = polyring._eliminated_terms

    def recording(ideal, keep):
        keep = tuple(keep)
        calls.append((ideal, keep, compute(ideal, keep)))
        return calls[-1][2]

    monkeypatch.setattr(polyring, "_eliminated_terms", recording)
    kernels = [result for _, result in elimination_catalogue()]
    monkeypatch.undo()
    assert len(calls) == len(kernels) == 63
    assert all(k.basis for k in kernels)
    for (ideal, keep, terms), kernel in zip(calls, kernels):
        assert [g.terms for g in kernel.basis] == terms
        eliminated = eliminate(ideal, keep)
        assert [{tuple(e[i] for i in keep): c for e, c in g.terms.items()} for g in eliminated.basis] == terms
        assert _is_its_own_fresh_grevlex_basis(eliminated), eliminated.basis
        assert _is_its_own_fresh_grevlex_basis(kernel), kernel.basis


def partial_closed_ideals(count, seed=32):
    """Seeded ideals closed under every partial derivative, none of them
    zero or the unit ideal, each with its reduced grevlex basis: ideals
    whose exponents are multiples of p plus at most 1, closed under
    partials alone.  Most are stated by generators that are not p-th
    powers."""
    rng = random.Random(seed)
    while count:
        p = rng.choice((2, 3, 5))
        ring = PolyRing(p, ("x", "y", "z")[:rng.randint(1, 3)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                top = 3 - ring.nvars // 2 - (p == 5)
                terms[tuple(p * rng.randint(0, top) + (rng.random() < 0.25) for _ in ring.names)] = rng.randint(1, p - 1)
            gens.append(Polynomial(ring, terms))
        ideal = buchberger(Ideal.from_polys(ring, gens))
        while True:
            wider = extend(ideal.stated_by_basis(), [g.partial(i) for g in ideal.basis for i in range(ring.nvars)])
            if wider.basis == ideal.basis:
                break
            ideal = wider
        if ideal.basis and not ideal.contains_one():
            count -= 1
            yield gens, ideal


def closure_inputs():
    """The catalogue's ideals, each with the Frobenius power of a seeded
    polynomial (whose partials all vanish), then 200 seeded ideals closed
    under partials."""
    rng = random.Random(18)
    for ideal, _ in elimination_catalogue():
        if isinstance(ideal, Ideal):
            yield ideal
            f = random_nonzero_ideal(rng, ideal.ring, max_gens=1, max_degree=3).generators[0]
            yield Ideal.from_polys(ideal.ring, [f.frobenius_power()])
    for _, ideal in partial_closed_ideals(200):
        yield ideal


def test_the_closure_takes_the_root_ideal_as_its_candidate(monkeypatch):
    """When the partials add nothing, the closure reads its root candidate
    off the basis (Cartier descent).  Each candidate it makes must be the
    root ideal that `pth_root_ideal` finds by elimination for the same
    ideal, basis and generators both, and the partial-closed ideals must
    each take the root route."""
    candidates = []
    compute = vanish.basis_pth_root

    def recording(ideal):
        candidates.append((ideal, compute(ideal)))
        return candidates[-1][1]

    monkeypatch.setattr(vanish, "basis_pth_root", recording)
    inputs = list(closure_inputs())
    first_candidates = []
    for ideal in inputs:
        made = len(candidates)
        assert closure_state(ideal).fixpoint
        first_candidates.append(candidates[made][0] if len(candidates) > made else None)
    monkeypatch.undo()
    assert len(inputs) == 54 + 200 and len(candidates) >= 40 + 200
    for ideal, first in zip(inputs[54:], first_candidates[54:]):  # closed already: roots come first
        assert first is not None and first.basis == ideal.basis
    for current, roots in candidates:
        expected = pth_root_ideal(current)
        assert roots.basis == expected.basis
        assert roots.generators == expected.generators
        assert [(lm, dict(tail)) for lm, tail in roots.reducers] == \
            [(lm, dict(tail)) for lm, tail in expected.reducers]


def test_partial_closed_ideals_have_bases_of_pth_powers():
    """Cartier descent on the seeded partial-closed ideals: every reduced
    grevlex basis element is a p-th power, and the root ideal read off it
    is the one elimination finds, though most of the ideals are stated by
    generators that are not p-th powers."""
    stated_otherwise = 0
    for gens, ideal in partial_closed_ideals(200):
        assert all(g.pth_root() is not None for g in ideal.basis)
        roots = basis_pth_root(ideal)
        expected = pth_root_ideal(Ideal.from_polys(ideal.ring, gens + list(ideal.basis)))
        assert roots.basis == expected.basis and roots.generators == expected.generators
        assert [g ** ideal.ring.p for g in roots.basis] == list(ideal.basis)
        stated_otherwise += any(g.pth_root() is None for g in gens)
    assert stated_otherwise >= 150


def test_a_basis_that_is_not_made_of_pth_powers_has_no_root_read_off_it():
    ring = PolyRing(3, ("x", "y"))
    assert basis_pth_root(buchberger(Ideal.from_polys(ring, [parse_polynomial("x^3 + y", ring)]))) is None
    assert basis_pth_root(buchberger(Ideal.from_polys(ring, [parse_polynomial("x^3 + y^4", ring)]))) is None
    with pytest.raises(ValueError, match="grevlex"):
        basis_pth_root(Ideal.from_polys(ring, [ring.variable(0)]))


def test_the_closure_makes_no_elimination(monkeypatch):
    """`closure_state` reads every root ideal off a basis: with the
    elimination routes made to raise, it still reaches its fixpoint on
    every closure input and on the bench's shapes."""
    inputs = list(closure_inputs())
    rng = random.Random(59)
    for nvars in (1, 2, 3):
        for p in (2, 3, 5):
            ring = PolyRing(p, ("x", "y", "z")[:nvars])
            inputs += [random_nonzero_ideal(rng, ring, 3, (4, 4, 2)[nvars - 1]) for _ in range(20)]

    def refused(*args, **kwargs):
        raise AssertionError("the closure made an elimination")

    for name in ("pth_root_ideal", "graph_kernel", "eliminate", "_eliminated_terms"):
        monkeypatch.setattr(polyring, name, refused)
    monkeypatch.setattr(vanish, "graph_kernel", refused)
    for ideal in inputs:
        assert closure_state(ideal).fixpoint


def test_a_closure_that_is_not_made_of_pth_powers_is_an_internal_defect(monkeypatch):
    """A basis closed under partials is made of p-th powers; if the root
    route ever met one that is not, that is a defect, not a result."""
    monkeypatch.setattr(vanish, "basis_pth_root", lambda ideal: None)
    ring = PolyRing(3, ("x",))
    with pytest.raises(InternalDefectError, match="p-th powers"):
        closure_state(Ideal.from_polys(ring, [ring.variable(0) ** 3]))


def test_a_graph_kernel_runs_buchberger_once(buchberger_runs):
    """One block-order run per p-th-root ideal and per tuple kernel: the
    kept part of its basis is already reduced, so nothing reruns on it."""
    curves = [presented(p, ("x", "y"), [f]) for p in (2, 3, 5) for f in ELIMINATION_CURVES.values()]
    buchberger_runs.clear()
    for R in curves:
        results = [pth_root_ideal(R.ideal), pth_root_ideal(Ideal.from_polys(R.ring, R.ideal.generators))]
        for texts in ELIMINATION_TUPLES:
            results.append(kernel_of_tuple(R, [parse_polynomial(t, R.ring) for t in texts]))
        assert [order.kind for order in buchberger_runs] == ["block"] * len(results)
        buchberger_runs.clear()


# pth_root_ideal on two F_5 plane cubics, whose graph ideals in four
# variables once took Buchberger 26 s and more than 24 minutes.  Both curves are
# reduced, so each root ideal is the curve's own ideal, (f) with f monic;
# the digests pin the exact bases.
F5_CUBIC_ROOT_DIGESTS = {
    "x^2*y + y^2 + x": "f378da6855ded9480aa889601728830a652cf3f76c947acb5fe8f86b195df22f",
    "x^2*y + y^3 + x + 1": "b115971f28f976ae19e1fb3d49681ee08d96ceae8178277d114367122dea9020",
    "y^2 + x*y + x^3 + 1": "539fa97a210c6d8968f82401e12ef32e3c16ddca21173c6f87521638b3c381b8",
}
F5_CUBIC_SECONDS = 10.0


def test_pth_root_ideal_of_f5_plane_cubics_is_pinned_and_fast():
    ring = PolyRing(5, ("x", "y"))
    start = time.perf_counter()
    for text, digest in F5_CUBIC_ROOT_DIGESTS.items():
        f = parse_polynomial(text, ring)
        root = pth_root_ideal(Ideal.from_polys(ring, [f]))
        assert root.basis == (f,)
        doc = {"vars": list(root.ring.names), "basis": [g.to_json() for g in root.basis]}
        assert hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest() == digest
    assert time.perf_counter() - start < F5_CUBIC_SECONDS
