"""Finite Dieudonne-complex models and their checkers.

The affine-line fixture is validated by the axiom checker (its operator
matrices were derived from rewrite rules, so `check_axioms` is the oracle
for the construction), and the checkers themselves are shown to have
teeth on a hand-written non-saturated model.
"""

import ast
import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dieudonne_reference as reference
from wittcert import dieudonne, modarith
from wittcert.dieudonne import (
    MAX_A1_BASIS,
    BasisElement,
    DieudonneModel,
    QuotientBlock,
    _cokernel_factors,
    _les_exactness_failure,
    _preimage_generators,
    a1_model,
    check_axioms,
    compare_wr_with_cohomology,
    f_cancellation_check,
    frobenius_injectivity_degree0_check,
    hn_mod_pr,
    saturation_witness,
    trivial_model,
    w1_vanishing_propagation_check,
    weight_from_pair,
    weight_pair,
    wr_quotient,
    zero_model,
)
from wittcert.modarith import ModularMatrix, Modulus, SubmoduleBasis, kernel_basis, smith_normal_form

DATA = Path(__file__).parent / "data"


def nonsaturated_model():
    with open(DATA / "nonsaturated_model.json", "r", encoding="utf-8") as fh:
        return DieudonneModel.from_json(json.load(fh))


# -- fixtures and validation ----------------------------------------------------


def test_weight_encoding_round_trip():
    assert weight_pair(2, Fraction(3, 4)) == (3, 2)
    assert weight_pair(2, Fraction(4)) == (4, 0)
    assert weight_from_pair(3, (5, 2)) == Fraction(5, 9)
    with pytest.raises(ValueError):
        weight_pair(2, Fraction(1, 3))


def test_grading_discipline_enforced():
    basis = [BasisElement("a", 0, Fraction(1)), BasisElement("b", 1, Fraction(2))]
    with pytest.raises(ValueError):
        DieudonneModel(2, 3, basis, {"a": {"b": 1}}, {}, {})  # d must preserve weight
    with pytest.raises(ValueError):
        DieudonneModel(2, 3, basis, {}, {"b": {"a": 1}}, {})  # F must scale weight by p
    with pytest.raises(ValueError):
        DieudonneModel(2, 3, basis + basis, {}, {}, {})  # duplicate labels
    good = DieudonneModel(2, 3, basis, {}, {"a": {"b": 0}}, {})
    assert "a" in good.maps["F"] and good.apply("F", {"a": 1}) == {}
    assert "b" not in good.maps["F"]
    assert good.apply("F", {"b": 1}) is None


def test_products_vanishing_mod_pn_are_dropped():
    # V^3(1) = 8 * 1 = 0 mod 2^3: the zero coefficient is removed, not looked up
    m = a1_model(2, 4, 3)
    assert m.apply("V", m.apply("V", m.apply("V", {"1": 1}))) == {}
    cancellation = f_cancellation_check(m, 3)
    assert cancellation.passed, cancellation.violations
    compared = compare_wr_with_cohomology(m, 0, 3)
    assert compared.passed, compared.violations


# -- the graded-block index ---------------------------------------------------------


def assert_index_matches_basis_scans(m):
    """degrees(), the weight keys of each degree and block() must agree
    with full-basis scans."""
    degrees = sorted({b.degree for b in m.basis})
    assert m.degrees() == degrees
    for degree in range(min(degrees, default=0) - 1, max(degrees, default=0) + 2):
        weights = sorted({b.weight for b in m.basis if b.degree == degree})
        assert [Fraction(key, m._scale) for key in m._weights.get(degree, ())] == weights
        absent = Fraction(1, m.p ** 9)
        for weight in weights + [w + absent for w in weights] + [absent]:
            scanned = sorted(b.label for b in m.basis if b.degree == degree and b.weight == weight)
            assert m.block(degree, weight) == tuple(scanned)


@pytest.mark.parametrize("p,wmax,exponent", [(2, 1, 2), (2, 4, 3), (3, 2, 4), (5, 2, 2)])
def test_block_index_matches_scans_on_a1(p, wmax, exponent):
    assert_index_matches_basis_scans(a1_model(p, wmax, exponent))


def test_block_index_matches_scans_on_small_models():
    for m in (trivial_model(3, 3), zero_model(2, 3), nonsaturated_model()):
        assert_index_matches_basis_scans(m)
    assert zero_model(2, 3).block(0, Fraction(0)) == ()
    assert zero_model(2, 3)._weights == {}


@settings(max_examples=60, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=2),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=24,
    ),
)
def test_block_index_matches_scans_on_generated_bases(p, cells):
    basis = [BasisElement(f"b{i}", degree, Fraction(m, p ** j)) for i, (degree, m, j) in enumerate(cells)]
    assert_index_matches_basis_scans(DieudonneModel(p, 2, basis, {}, {}, {}))


def test_weight_text_is_the_fraction_text():
    for model in (a1_model(2, 4, 4), a1_model(3, 2, 3), trivial_model(5, 2), nonsaturated_model()):
        for key in {*range(0, 3 * model._scale + 2), *(k for ks in model._weights.values() for k in ks)}:
            assert model._weight_text(key) == str(Fraction(key, model._scale))
        assert model._texts == {key: str(Fraction(key, model._scale)) for _, key in model._blocks}


def test_saturation_depth_boundary_is_the_denominator_of_the_source_weight():
    """With V-depth 1 at p = 2, an F-source weight 1/2 (denominator 2^1) is
    within the depth, so the empty block there is F's whole source and the
    cycle at weight 1 is a violation; 1/8 (denominator 2^3) is beyond it."""
    basis = [BasisElement("a", 0, Fraction(1)), BasisElement("b", 0, Fraction(1, 4))]
    m = DieudonneModel(2, 2, basis, {"a": {}, "b": {}}, {}, {}, depth_cap=1)
    report = saturation_witness(m)
    assert report.violations == [{"degree": 0, "weight": "1", "witness": {"a": 1}}]
    assert report.inconclusive == [
        {"degree": 0, "weight": "1/4", "reason": "F-source weight beyond depth truncation"}
    ]

def test_models_do_not_share_their_index_or_columns():
    first = a1_model(2, 4, 3)
    assert first.op_matrix("V", 0, Fraction(1)) is not None
    second = nonsaturated_model()
    assert second.block(0, Fraction(1)) == ("a",)
    assert first.block(0, Fraction(1)) == ("[T^1]",)
    assert_index_matches_basis_scans(first)
    # V = p on the trivial model: the columns are per model, not per block key
    assert trivial_model(2, 3).op_matrix("V", 0, Fraction(0)).entries == ((2,),)
    assert trivial_model(3, 3).op_matrix("V", 0, Fraction(0)).entries == ((3,),)


# Sha256 over the canonical JSON of every report of the benchmark's checker
# set, plus the W_2 and H(M/p^2) presentations in degrees 0 and 1, on the
# benchmark's three A^1 models.  Computed before the block index existed;
# any change in a report's bytes changes it.
GOLDEN_REPORT_DIGEST = "dd543b794069dc4b21b54a6ca29ecf2b23a9ee53de075bca162c6a53163e1ef1"


def test_checker_reports_match_golden_digest():
    h = hashlib.sha256()
    for p, wmax, exponent in ((2, 4, 4), (3, 1, 4), (2, 8, 4)):
        m = a1_model(p, wmax, exponent)
        docs = [check_axioms(m).to_json(), saturation_witness(m).to_json()]
        for r in (1, 3):
            docs.append(f_cancellation_check(m, r).to_json())
            docs.extend(compare_wr_with_cohomology(m, degree, r).to_json() for degree in (0, 1))
        docs.extend(w1_vanishing_propagation_check(m, degree, 3).to_json() for degree in (0, 1))
        docs.append(frobenius_injectivity_degree0_check(m).to_json())
        for degree in (0, 1):
            docs.extend([wr_quotient(m, degree, 2).to_json(), hn_mod_pr(m, degree, 2).to_json()])
        for doc in docs:
            h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_REPORT_DIGEST


# Sha256 over the canonical JSON of criterion 5's full check set on the
# 769-element model a1(2, 12, 5): r <= 4, comparison in degrees 0-2,
# propagation up to rmax 4.  Computed before presentations were memoized
# or weights keyed by integers; `scripts/a1_model_report.py --p 2 --wmax 12
# --N 5` prints the same digest.
MODEL_SCALE_DIGEST = "2dc49f2a4aeac40ba334d98fddc0f1be7fe0ffd6de0cbdaca31d1ebba3f00184"


def test_model_scale_check_set_matches_golden_digest():
    m = a1_model(2, 12, 5)
    assert len(m.basis) == 769
    reports = [check_axioms(m), saturation_witness(m), frobenius_injectivity_degree0_check(m)]
    for r in range(1, 5):
        reports.append(f_cancellation_check(m, r))
        reports.extend(compare_wr_with_cohomology(m, degree, r) for degree in (0, 1, 2))
    reports.extend(w1_vanishing_propagation_check(m, degree, 4) for degree in (0, 1))
    h = hashlib.sha256()
    for report in reports:
        assert report.passed, report.violations
        h.update(json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == MODEL_SCALE_DIGEST


def test_a1_model_size_is_bounded_before_it_is_built():
    assert len(a1_model(3, 12, 5).basis) == 5833 <= MAX_A1_BASIS
    for args, kwargs in [((13, 4, 6), {}), ((2, 4, 3), {"depth": 10 ** 9}), ((2, 10 ** 12, 3), {}),
                         ((5, 4, 10 ** 9), {"depth": 2})]:
        with pytest.raises(ValueError, match="exceeds the cap"):
            a1_model(*args, **kwargs)


# -- kept presentations --------------------------------------------------------------


def block_at(presentation, weight):
    """The block of a presentation at a `Fraction` weight, read through its
    integer key weight * scale; None where it has none."""
    key = Fraction(weight) * presentation.scale
    return presentation.by_key.get(key.numerator) if key.denominator == 1 else None


def factors_at(presentation, weight):
    """The invariant factors of the block at a `Fraction` weight; none where
    the presentation has no block."""
    block = block_at(presentation, weight)
    return block.factors if block else ()


def test_presentations_are_kept_per_model_and_read_only():
    m = a1_model(2, 4, 4)
    hn = hn_mod_pr(m, 0, 2)
    wr = wr_quotient(m, 1, 3)
    assert hn_mod_pr(m, 0, 2) is hn and wr_quotient(m, 1, 3) is wr
    before = json.dumps([hn.to_json(), wr.to_json()])
    for presentation in (hn, wr):
        key = next(iter(presentation.by_key))
        with pytest.raises(TypeError):
            presentation.by_key[key] = presentation.by_key[key]
        with pytest.raises(TypeError):
            del presentation.by_key[key]
        with pytest.raises(TypeError):
            presentation.by_key[0] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            presentation.degree = 5
        with pytest.raises(TypeError):
            presentation.by_key[key].relations.echelon = ()
    assert json.dumps([hn_mod_pr(m, 0, 2).to_json(), wr_quotient(m, 1, 3).to_json()]) == before
    compared = compare_wr_with_cohomology(m, 0, 2)
    assert compared.passed and compared.checked > 0
    # a degree with no blocks nearby and a level beyond N are built, not kept
    assert wr_quotient(m, 7, 9) is not wr_quotient(m, 7, 9)


def test_presentation_json_does_not_depend_on_what_was_built_first():
    keys = [(degree, r) for degree in (0, 1, 2) for r in (1, 2, 3)]

    def presentations(order):
        m = a1_model(3, 2, 4)
        return {
            (kind, degree, r): build(m, degree, r).to_json()
            for degree, r in order
            for kind, build in (("wr", wr_quotient), ("hn", hn_mod_pr))
        }

    cold = {}
    for degree, r in keys:
        cold.update(presentations([(degree, r)]))
    assert presentations(keys) == cold
    assert presentations(keys[::-1]) == cold


def test_cancellation_builds_no_span_the_kept_presentation_holds(monkeypatch):
    m = a1_model(2, 4, 4)
    for r in (1, 2, 3):
        for degree in m.degrees():
            wr_quotient(m, degree, r)
    ambients = []

    def counting(modulus, ambient, generators):
        ambients.append(ambient)
        return SubmoduleBasis(modulus, ambient, generators)

    monkeypatch.setattr(dieudonne, "SubmoduleBasis", counting)
    for r in (1, 2, 3):
        assert f_cancellation_check(m, r).checked > 0
    assert not any(ambients)  # a block-free F-target has ambient 0


def _block_free_target_model(weight_cap=None):
    """p = 2, labels a (weight 1) and c (weight 4) in degree 0, d = 0,
    F(a) = 0, V(c) = 0: F maps a to weight 2, where no block is, and W_1's
    relations at weight 2 come from V on weight 4."""
    basis = [BasisElement("a", 0, Fraction(1)), BasisElement("c", 0, Fraction(4))]
    return DieudonneModel(2, 3, basis, {"a": {}, "c": {}}, {"a": {}}, {"c": {}}, weight_cap=weight_cap)


def test_cancellation_through_a_complete_target_weight_with_no_block():
    report = f_cancellation_check(_block_free_target_model(), 1)
    assert report.checked == 1
    assert report.violations == [{"degree": 0, "weight": "1", "witness": {"a": 1}}]
    assert report.inconclusive == [{"degree": 0, "weight": "4", "reason": "truncation boundary"}]
    # below the cap 3, V on weight 4 no longer counts, so weight 2 is incomplete
    capped = f_cancellation_check(_block_free_target_model(Fraction(3)), 1)
    assert (capped.checked, capped.violations) == (0, [])
    assert capped.inconclusive == [
        {"degree": 0, "weight": "1", "reason": "truncation boundary"},
        {"degree": 0, "weight": "4", "reason": "truncation boundary"},
    ]
    with pytest.raises(ValueError, match="level r must be >= 1"):
        f_cancellation_check(_block_free_target_model(), 0)


def test_cokernel_factors_from_the_howell_rows_match_the_relations():
    rng = random.Random(11)
    for mod in (Modulus(2, 3), Modulus(3, 2), Modulus(5, 1)):
        for _ in range(20):
            ambient = rng.randint(0, 4)
            relations = [tuple(rng.randrange(mod.char) for _ in range(ambient)) for _ in range(rng.randint(0, 4))]
            if relations and ambient:
                diag = smith_normal_form(ModularMatrix.from_columns(mod, relations, ambient))
            else:
                diag = ()
            exps = [mod.valuation(d) for d in diag] + [mod.exponent] * (ambient - len(diag))
            expected = tuple(sorted((e for e in exps if e > 0), reverse=True))
            assert _cokernel_factors(SubmoduleBasis(mod, ambient, relations)) == expected


def test_trivial_model_axioms_and_quotient():
    m = trivial_model(3, 3)
    report = check_axioms(m)
    assert report.passed and not report.inconclusive
    w1 = wr_quotient(m, 0, 1)
    assert factors_at(w1, Fraction(0)) == (1,)  # Z/p
    h1 = hn_mod_pr(m, 0, 1)
    assert factors_at(h1, Fraction(0)) == (1,)
    assert saturation_witness(m).passed
    assert f_cancellation_check(m, 1).passed
    assert frobenius_injectivity_degree0_check(m).passed


def test_zero_model_everything_vacuous():
    m = zero_model(2, 3)
    assert check_axioms(m).passed
    assert saturation_witness(m).passed
    assert wr_quotient(m, 0, 1).is_zero()
    assert hn_mod_pr(m, 0, 1).is_zero()
    assert w1_vanishing_propagation_check(m, 0, 2).passed


# -- the affine-line model -------------------------------------------------------


@pytest.mark.parametrize("p,wmax", [(2, 4), (2, 6), (3, 6)])
def test_a1_model_axioms(p, wmax):
    m = a1_model(p, wmax, 4)
    report = check_axioms(m)
    assert report.passed, report.violations


def test_a1_model_basis_examples():
    m = a1_model(2, 4, 3)
    # d(V^j [T^m]) is the degree-1 generator of the same weight, d of that is 0
    assert m.apply("d", {"V^1[T^1]": 1}) == {"dV^1[T^1]": 1}
    assert m.apply("d", {"dV^1[T^1]": 1}) == {}
    # F(dV[T^m]) = d[T^m] = m * ([T^(m-1)]dT)
    assert m.apply("F", {"dV^1[T^3]": 1}) == {"[T^2]dT": 3 % 8}
    # F on the integral degree-1 generators: e_m -> e_{pm}
    assert m.apply("F", {"dT": 1}) == {"[T^1]dT": 1}
    # weight-1 degree-0 piece is spanned by [T] alone
    assert m.block(0, Fraction(1)) == ("[T^1]",)
    assert m.block(0, Fraction(1, 2)) == ("V^1[T^1]",)
    # F([T]) = [T^2]
    assert m.apply("F", {"[T^1]": 1}) == {"[T^2]": 1}
    # V([T^2]) = 2 [T] since 2 divides the exponent
    assert m.apply("V", {"[T^2]": 1}) == {"[T^1]": 2}


def test_a1_level_one_quotient_ranks():
    m = a1_model(2, 4, 3)
    w1 = wr_quotient(m, 0, 1)
    for k in (0, 1, 2):
        assert factors_at(w1, Fraction(k)) == (1,)  # F_p[T] in each integral weight
        assert block_at(w1, Fraction(k)).complete
    for frac in (Fraction(1, 2), Fraction(3, 2), Fraction(1, 4)):
        assert factors_at(w1, frac) == ()
    # the quotient's zero test: V-images die, generators do not
    def dies(vec, weight):
        block = block_at(w1, weight)
        assert set(vec) <= set(block.labels)
        return block.relations.contains(tuple(vec.get(lbl, 0) for lbl in block.labels))

    assert dies({"V^1[T^1]": 1}, Fraction(1, 2))
    assert not dies({"[T^1]": 1}, Fraction(1))
    assert dies({"[T^1]": 2}, Fraction(1))  # p * x = V(F(x))


def test_a1_degree_one_quotient_matches_kaehler_forms():
    m = a1_model(3, 6, 4)
    w1 = wr_quotient(m, 1, 1)
    for k in (1, 2):
        assert factors_at(w1, Fraction(k)) == (1,)
    assert factors_at(w1, Fraction(1, 3)) == ()


@pytest.mark.parametrize("p,wmax,exponent", [(2, 6, 4), (3, 6, 4)])
def test_a1_wr_is_h_of_mod_pr(p, wmax, exponent):
    m = a1_model(p, wmax, exponent)
    for degree in (0, 1, 2):
        for r in range(1, exponent):
            report = compare_wr_with_cohomology(m, degree, r)
            assert report.passed, report.violations
            if degree <= 1:
                assert report.checked > 0


@pytest.mark.parametrize("p", [2, 3])
def test_a1_f_cancellation_clean(p):
    m = a1_model(p, 6, 4)
    for r in (1, 2, 3):
        report = f_cancellation_check(m, r)
        assert report.passed, report.violations
    assert f_cancellation_check(m, 1).checked > 0


@pytest.mark.parametrize("p", [2, 3])
def test_a1_saturation_and_injectivity(p):
    m = a1_model(p, 6, 4)
    sat = saturation_witness(m)
    assert sat.passed, sat.violations
    assert sat.checked > 0
    inj = frobenius_injectivity_degree0_check(m)
    assert inj.passed, inj.violations


@pytest.mark.parametrize("p", [2, 3])
def test_a1_vanishing_propagation(p):
    m = a1_model(p, 5, 4)
    for degree in (0, 1, 2):
        report = w1_vanishing_propagation_check(m, degree, 3)
        assert report.passed, report.violations
    # degree 2 of a one-variable model is empty: everything vanishes
    assert hn_mod_pr(m, 2, 1).is_zero()


def test_propagation_needs_enough_precision():
    m = a1_model(2, 4, 3)
    with pytest.raises(ValueError):
        w1_vanishing_propagation_check(m, 0, 3)  # needs N >= 4


def les_failure(m, degree, key, r, h1, h_top):
    """`_les_exactness_failure` at (degree, key, r), as the propagation check
    calls it: on the kept exactness block, where H(M/p^(r+1)) has generators;
    a middle without them is exact and has no block."""
    if not h_top.generators:
        return None
    return _les_exactness_failure(dieudonne._exactness_blocks(m, degree, r)[key], h1, r)


def test_les_exactness_detects_a_missing_image():
    # exactness holds on every valid model, so the check is fed a doctored
    # H(M/p): with no generators, im(p^r) misses ker(Z/4 -> Z/2) = 2Z/4
    m = a1_model(2, 4, 4)
    h1 = hn_mod_pr(m, 0, 1).by_key[0]
    h_top = hn_mod_pr(m, 0, 2).by_key[0]
    assert les_failure(m, 0, 0, 1, h1, h_top) is None
    empty = dataclasses.replace(h1, generators=())
    assert les_failure(m, 0, 0, 1, empty, h_top) == (
        "im(p^r) != ker(reduction) in the middle cohomology"
    )


def test_les_exactness_rejects_a_non_cycle_generator():
    # the a1 blocks are one label wide, so any nonzero H(M/p^2) forces d = 0
    # mod p there; here d x = z, d y = 0 leaves x a non-cycle beside the cycle y
    w = Fraction(0)
    basis = [BasisElement("x", 0, w), BasisElement("y", 0, w), BasisElement("z", 1, w)]
    m = DieudonneModel(2, 3, basis, {"x": {"z": 1}, "y": {}, "z": {}}, {}, {})
    h1 = hn_mod_pr(m, 0, 1).by_key[0]
    h_top = hn_mod_pr(m, 0, 2).by_key[0]
    assert les_failure(m, 0, 0, 1, h1, h_top) is None
    doctored = dataclasses.replace(h1, generators=((1, 0),))
    assert les_failure(m, 0, 0, 1, doctored, h_top) == (
        "multiplication-by-p^r image is not a cycle combination"
    )


def _pulled_back_les_failure(model, degree, key, r, h1, h_top):
    """The exactness check as it was first written, kept as an oracle: both
    sides pulled back to the generator coordinates of H(M/p^(r+1))."""
    mod_top = Modulus(model.p, r + 1)
    gens = h_top.generators
    if not gens:
        return None
    ambient = len(h_top.labels)
    lifted = [tuple(model.p ** r * x for x in g) for g in h1.generators]
    d_top = model._table("d", degree, mod_top)[key]
    if any(any(d_top.apply(g)) for g in lifted):
        return "multiplication-by-p^r image is not a cycle combination"
    boundaries = list(model._table("d", degree - 1).get(key, ()))
    units = [tuple(model.p ** r if i == j else 0 for j in range(ambient)) for i in range(ambient)]

    def pulled_back(vectors):
        span = SubmoduleBasis(mod_top, ambient, vectors)
        return SubmoduleBasis(mod_top, len(gens), _preimage_generators(mod_top, gens, ambient, span))

    if pulled_back(lifted + boundaries) != pulled_back(boundaries + units):
        return "im(p^r) != ker(reduction) in the middle cohomology"
    return None


def _doctored(h1, p):
    """h1 as given, with each generator dropped, with each multiplied by p,
    and with no generators."""
    gens = h1.generators
    yield h1
    for i, g in enumerate(gens):
        yield dataclasses.replace(h1, generators=gens[:i] + gens[i + 1:])
        yield dataclasses.replace(h1, generators=gens[:i] + (tuple(p * x for x in g),) + gens[i + 1:])
    yield dataclasses.replace(h1, generators=())


def assert_les_matches_the_pulled_back_oracle(m):
    """Agreement on every (degree, key, r) the propagation check reaches,
    for the true H(M/p) block and its doctored copies; returns how many
    comparisons failed exactness."""
    failures = 0
    for degree in range(min(m.degrees(), default=0), max(m.degrees(), default=0) + 2):
        for r in range(1, m.exponent):
            h1s, tops = hn_mod_pr(m, degree, 1).by_key, hn_mod_pr(m, degree, r + 1).by_key
            for key, h1 in h1s.items():
                h_top = tops.get(key)
                if not (h1.complete and h_top is not None and h_top.complete):
                    continue
                assert les_failure(m, degree, key, r, h1, h_top) is None
                for doctored in _doctored(h1, m.p):
                    found = les_failure(m, degree, key, r, doctored, h_top)
                    assert found == _pulled_back_les_failure(m, degree, key, r, doctored, h_top), (
                        degree, key, r, doctored.generators)
                    failures += found is not None
    return failures


@pytest.mark.parametrize("p,wmax,exponent", [(2, 4, 4), (3, 1, 4), (2, 8, 4)])
def test_les_exactness_in_block_coordinates_matches_the_pulled_back_oracle(p, wmax, exponent):
    assert assert_les_matches_the_pulled_back_oracle(a1_model(p, wmax, exponent)) > 0


def _entry(p, exponent):
    """u * p^v with v in [0, N]: p^N is 0, so zero entries come up too."""
    return st.builds(lambda u, v: u * p ** v, st.integers(1, p - 1), st.integers(0, exponent))


@st.composite
def three_term_complexes(draw):
    """A weight-0 complex a -> b -> c over Z/p^N with d^2 = 0 over Z: d0 is
    [A; 0] and d1 is [0 | C], conjugated by random row operations on b."""
    p = draw(st.sampled_from([2, 3]))
    exponent = draw(st.integers(2, 4))
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    k = draw(st.integers(0, b))
    entry = _entry(p, exponent)
    d0 = [[draw(entry) for _ in range(a)] if i < k else [0] * a for i in range(b)]  # b x a
    d1 = [[draw(entry) if j >= k else 0 for j in range(b)] for _ in range(c)]  # c x b
    if b > 1:
        for i, j, f in draw(st.lists(st.tuples(st.integers(0, b - 1), st.integers(0, b - 1),
                                               st.integers(1, p ** exponent - 1)), max_size=4)):
            if i != j:  # d0 <- E d0 and d1 <- d1 E^-1 for E = 1 + f e_i e_j^T
                d0[i] = [x + f * y for x, y in zip(d0[i], d0[j])]
                for row in d1:
                    row[j] -= f * row[i]
    names = [[f"{n}{i}" for i in range(size)] for n, size in zip("abc", (a, b, c))]
    basis = [BasisElement(lbl, degree, Fraction(0)) for degree, lbls in enumerate(names) for lbl in lbls]
    d = {lbl: {} for lbl in names[2]}
    for src, tgt, matrix in ((names[0], names[1], d0), (names[1], names[2], d1)):
        for j, lbl in enumerate(src):
            d[lbl] = {t: matrix[i][j] for i, t in enumerate(tgt) if matrix[i][j]}
    return DieudonneModel(p, exponent, basis, d, {}, {})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(three_term_complexes())
def test_les_exactness_in_block_coordinates_matches_the_oracle_on_drawn_complexes(m):
    assert_les_matches_the_pulled_back_oracle(m)


def test_les_exactness_where_the_howell_form_must_reduce_left_to_right():
    # d b0 = 2(c0 + c1 + c2), d b1 = c1 + c2 over Z/4: in degree 2, span(L + B)
    # and ker(reduction) are both <2e_i, c1 + c2>, which a right-to-left
    # reduction above the pivots wrote as two different echelon forms
    basis = [BasisElement(lbl, degree, Fraction(0))
             for lbl, degree in (("b0", 1), ("b1", 1), ("c0", 2), ("c1", 2), ("c2", 2))]
    d = {"b0": {"c0": 2, "c1": 2, "c2": 2}, "b1": {"c1": 1, "c2": 1}, "c0": {}, "c1": {}, "c2": {}}
    m = DieudonneModel(2, 2, basis, d, {}, {})
    assert assert_les_matches_the_pulled_back_oracle(m) > 0
    assert w1_vanishing_propagation_check(m, 2, 1).passed


def test_propagation_reuses_the_kept_reduction_kernels(monkeypatch):
    m = a1_model(2, 4, 4)
    first = w1_vanishing_propagation_check(m, 1, 3)
    assert first.passed and first.checked > 0
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(dieudonne, "kernel_basis", counting)
    again = w1_vanishing_propagation_check(m, 1, 3)
    assert again.to_json() == first.to_json() and again is not first
    assert calls == []


def test_reduction_kernels_are_kept_only_next_to_the_model():
    """The exactness blocks, which hold the reduction kernels, and the
    degree tables are kept only at levels <= N in degrees next to the model's."""
    m = a1_model(2, 4, 4)
    assert w1_vanishing_propagation_check(m, 0, 3).passed
    exactness = {k[1:] for k in m._memo if k[0] == "exactness"}
    tables = {k[1:] for k in m._memo if k[0] == "table"}
    assert exactness == {(0, 1), (0, 2), (0, 3)}
    assert all(degree in (0, 1) and level in (None, 1, 2, 3, 4) for _, degree, level in tables)
    # degree 7 has no blocks next to it, and level 5 is beyond N = 4
    assert dieudonne._exactness_blocks(m, 7, 1) == {}
    assert m._table("d", 7, m._level(2)) == {}
    with pytest.raises(ValueError):
        dieudonne._exactness_blocks(m, 0, 4)
    assert m._table("d", 0, Modulus(2, 5))[m._scale].entries == ((1,),)  # d [T] = dT
    assert {k[1:] for k in m._memo if k[0] == "exactness"} == exactness
    assert {k[1:] for k in m._memo if k[0] == "table"} == tables
    assert w1_vanishing_propagation_check(m, 7, 3).checked == 0
    assert not any(k[0] == "exactness" and k[1] == 7 or k[0] == "table" and k[2] == 7 for k in m._memo)


def test_an_operator_undefined_on_a_block_is_built_once(monkeypatch):
    """A degree's `_table` keeps None for V at the depth cap, where it is
    undefined, and a second call reads that None back rather than building
    again."""
    m = a1_model(2, 4, 3)
    key = m._scale // 8  # weight 1/8 = 1/p^depth: V^3[T^1], whose V leaves the depth cap
    assert m._labels(0, key) == ("V^3[T^1]",)
    assert m._table("V", 0)[key] is None
    reads = []
    labels = DieudonneModel._labels
    monkeypatch.setattr(DieudonneModel, "_labels", lambda self, *block: reads.append(block) or labels(self, *block))
    assert m._table("V", 0)[key] is None
    assert reads == []


# The functions of `dieudonne.py` that may read or write a model's memo: the
# one that makes it and the one accessor that owns its lookups and retention.
MEMO_OWNERS = {"__init__", "_kept"}


def _memo_uses(tree):
    """(line, enclosing function) of each `_memo` attribute of `tree`, and
    of each "_memo" string outside `__slots__`, as `getattr` would take it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            return
        if isinstance(node, ast.Attribute) and node.attr == "_memo" or \
                isinstance(node, ast.Constant) and node.value == "_memo":
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_memo_accessor_reads_or_writes_the_memo():
    path = Path(dieudonne.__file__)
    uses = _memo_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert [use for use in uses if use[1] not in MEMO_OWNERS] == []
    assert {function for _, function in uses} == MEMO_OWNERS


def test_the_memo_check_sees_each_kind_of_use():
    source = "\n".join([
        "class M:",
        "    __slots__ = ('_memo',)",
        "    def __init__(self): self._memo = {}",
        "    def _kept(self, key): return self._memo.get(key)",
        "    def read(self): return self._memo",
        "    def named(self): return getattr(self, '_memo')",
        "def write(m): m._memo[1] = 2",
        "peek = lambda m: m._memo",
    ])
    assert _memo_uses(ast.parse(source)) == [(3, "__init__"), (4, "_kept"), (5, "read"), (6, "named"),
                                             (7, "write"), (8, None)]



def test_warm_checks_build_no_block_matrix(monkeypatch):
    """Level matrices are model structure: once built, a warm propagation
    or saturation check reads them from the model."""
    m = a1_model(2, 8, 4)
    first = [w1_vanishing_propagation_check(m, degree, 3).to_json() for degree in (0, 1)]
    first.append(saturation_witness(m).to_json())
    built = []
    from_columns = ModularMatrix.from_columns.__func__

    def counting(cls, *args):
        built.append(args)
        return from_columns(cls, *args)

    monkeypatch.setattr(ModularMatrix, "from_columns", classmethod(counting))
    again = [w1_vanishing_propagation_check(m, degree, 3).to_json() for degree in (0, 1)]
    again.append(saturation_witness(m).to_json())
    assert again == first
    assert built == []


def counting_builds(monkeypatch):
    """The memo key of every value `DieudonneModel._kept` builds, in order."""
    builds = []
    kept = DieudonneModel._kept

    def counted(self, memo_key, build, *args, **retention):
        def counted_build(*build_args):
            builds.append(memo_key)
            return build(*build_args)

        return kept(self, memo_key, counted_build, *args, **retention)

    monkeypatch.setattr(DieudonneModel, "_kept", counted)
    return builds


def test_a_cold_check_set_reduces_each_block_matrix_once(monkeypatch):
    """Every (op, degree, weight key, level) matrix is reduced once per
    model, however often the checkers read it: the first read of a degree
    at a level builds its table, and every later read finds it kept."""
    m = a1_model(2, 4, 4)
    builds = counting_builds(monkeypatch)
    inside, reduced = [], []
    build_table = DieudonneModel._build_table
    trusted_columns = ModularMatrix._trusted_columns.__func__

    def counted_table(self, op, degree, level):
        inside.append(("table", op, degree, level and level.exponent))
        try:
            return build_table(self, op, degree, level)
        finally:
            inside.pop()

    def counted_columns(cls, modulus, columns, ambient):
        if inside:
            reduced.append(inside[-1])
        return trusted_columns(cls, modulus, columns, ambient)

    monkeypatch.setattr(DieudonneModel, "_build_table", counted_table)
    monkeypatch.setattr(ModularMatrix, "_trusted_columns", classmethod(counted_columns))
    reports = [check_axioms(m), saturation_witness(m), frobenius_injectivity_degree0_check(m)]
    for r in range(1, 4):
        reports.append(f_cancellation_check(m, r))
        reports.extend(compare_wr_with_cohomology(m, degree, r) for degree in (0, 1, 2))
    reports.extend(w1_vanishing_propagation_check(m, degree, 3) for degree in (0, 1))
    assert all(report.passed for report in reports)
    built = Counter(builds)
    # only what the retention rule does not keep is built again: degree -1 has no blocks next to it
    assert {key for key, count in built.items() if count > 1} == {("table", "d", -1, None)}
    assert all(built[key] == 1 for key in m._memo if key in built)
    matrices = Counter()
    for key, table in m._memo.items():
        if key[0] == "table" and key[3] is not None:
            matrices[key] = sum(matrix is not None for matrix in table.values())
    assert Counter(reduced) == matrices and {key[3] for key in matrices} == {1, 2, 3, 4}


def test_a_second_checker_call_builds_nothing(monkeypatch):
    """A warm checker set reads every table, presentation and exactness
    block from the model: no value is built twice."""
    m = a1_model(2, 8, 4)
    bench_checker_set(m)
    first = dict(m._memo)
    builds = counting_builds(monkeypatch)
    bench_checker_set(m)
    assert builds == []
    assert m._memo.keys() == first.keys() and all(m._memo[k] is v for k, v in first.items())

# -- the adversarial model ---------------------------------------------------------


def test_nonsaturated_model_axioms_pass():
    m = nonsaturated_model()
    report = check_axioms(m)
    assert report.passed, report.violations


def test_nonsaturated_model_fails_saturation_with_witness():
    m = nonsaturated_model()
    report = saturation_witness(m)
    assert not report.passed
    witnesses = [v["witness"] for v in report.violations]
    assert {"a": 1} in witnesses
    # the failure is interior: the F-source block exists and F is defined there
    assert all("depth" not in v.get("reason", "") for v in report.violations)


def test_nonsaturated_model_fv_still_p():
    m = nonsaturated_model()
    assert m.apply("F", m.apply("V", {"a": 1})) == {"a": 2}
    assert m.apply("F", m.apply("V", {"b": 1})) == {"b": 2}


# -- serialization ------------------------------------------------------------------


def test_model_json_round_trip():
    m = a1_model(2, 3, 3)
    doc = m.to_json()
    again = DieudonneModel.from_json(doc)
    assert again.to_json() == doc
    assert check_axioms(again).passed


def test_report_json_shape():
    m = nonsaturated_model()
    doc = saturation_witness(m).to_json()
    assert doc["check"] == "saturation"
    assert doc["passed"] is False
    assert all("witness" in v for v in doc["violations"])
    assert json.loads(json.dumps(doc)) == doc


def general_cohomology_block(modulus, labels, d_out, boundaries):
    """`_cohomology_block` by the general route alone: the cycles from
    `kernel_basis`, the relations the preimage of span(B) under them."""
    cycles = kernel_basis(d_out)
    if not cycles:
        return QuotientBlock(labels, SubmoduleBasis(modulus, 0, []), (), True)
    if any(any(d_out.apply(b)) for b in boundaries):
        return None
    span = SubmoduleBasis(modulus, len(labels), boundaries)
    relations = SubmoduleBasis(modulus, len(cycles), _preimage_generators(modulus, cycles, len(labels), span))
    return QuotientBlock(labels, relations, _cokernel_factors(relations), True, tuple(cycles))


def general_reduction_kernel(d_top, boundaries, shift):
    """`_reduction_kernel` by the general route alone: the combinations of
    the boundaries and p^r e_i that d kills, from `kernel_basis`."""
    mod_top, ambient = d_top.modulus, d_top.cols
    spanning = list(boundaries) + [tuple(shift * (i == j) for i in range(ambient)) for j in range(ambient)]
    images = [d_top.apply(v) for v in spanning]
    kernel = kernel_basis(ModularMatrix.from_columns(mod_top, images, d_top.rows))
    return SubmoduleBasis(mod_top, ambient, [[sum(c * v[i] for c, v in zip(k, spanning)) for i in range(ambient)]
                                             for k in kernel])


def test_closed_forms_at_the_ends_of_the_complex_match_the_general_route():
    """No shipped model has a block with both a d-target and boundaries, so
    the general route is covered here: random blocks 1-4 labels wide, d out
    of them with 0-3 rows, and boundaries, level-N integers, that are none,
    zero mod p^r, drawn from the kernel of d mod p^r, or (for the d^2
    guard) not, at p in {2, 3, 5} and every level r <= N."""
    rng = random.Random(36)
    routes = Counter()
    for _ in range(1500):
        p, exponent = rng.choice((2, 3, 5)), rng.randint(1, 4)
        r = rng.randint(1, exponent)
        modulus, q, big = Modulus(p, r), p ** r, p ** exponent

        def entry():
            return 0 if rng.random() < 0.3 else rng.randrange(1, q) * p ** rng.randrange(r) % q

        width, rows = rng.randint(1, 4), rng.choice((0, 0, 1, 2, 3))
        labels = tuple(f"e{i}" for i in range(width))
        d_out = ModularMatrix(modulus, [[entry() for _ in range(width)] for _ in range(rows)], width)
        kernel = kernel_basis(d_out)
        shape = rng.choice(("none", "zero", "kernel", "kernel", "kernel", "any"))
        count = rng.randint(1, 3)
        if shape == "none":
            boundaries = []
        elif shape == "zero":
            boundaries = [[q * rng.randrange(big // q) for _ in range(width)] for _ in range(count)]
        elif shape == "kernel":
            combos = [[sum(rng.randrange(q) * p ** rng.randrange(r + 1) * z[i] for z in kernel) for i in range(width)]
                      for _ in range(count)]
            boundaries = [[(x + q * rng.randrange(big // q)) % big for x in b] for b in combos]
        else:
            boundaries = [[entry() for _ in range(width)] for _ in range(count)]
        found = dieudonne._cohomology_block(modulus, labels, d_out, boundaries)
        assert found == general_cohomology_block(modulus, labels, d_out, boundaries)
        has_boundaries = any(x % q for b in boundaries for x in b)
        routes["no d-target" if not rows else "both" if has_boundaries else "no boundaries"] += 1
        if found is not None and found.generators and rows:
            routes["both, H = Z / B" if has_boundaries else "no boundaries, H = Z"] += 1
        if r < exponent:  # a block of M/p^(r+1), as `_build_exactness_blocks` makes it
            top = Modulus(p, r + 1)
            d_top = ModularMatrix(top, [[entry() * rng.randrange(1, p * q) for _ in range(width)]
                                        for _ in range(rows)], width)
            lifted = [[x % (p * q) for x in b] for b in boundaries if not any(d_top.apply(b))]
            assert dieudonne._reduction_kernel(d_top, lifted, q) == general_reduction_kernel(d_top, lifted, q)
    assert min(routes.values()) > 100, routes


def test_preimage_generators_of_a_map_to_the_zero_module():
    # F into an empty block is the zero map: every source vector is a preimage
    m = Modulus(2, 3)
    expected = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _preimage_generators(m, [(), (), ()], 0, SubmoduleBasis(m, 0, [])) == expected


# -- wide blocks: every checker against the reference checkers and a pinned digest --


def wide_graded_model(seed, break_d_squared=False):
    """A seeded model in degrees 0-2 whose (degree, weight) blocks are 0 to 3
    labels wide, with partial d, F and V that respect the grading.

    Weights are m / p^j with m <= 2p and j <= 1.  In each weight d satisfies
    d^2 = 0 over Z, built as in `three_term_complexes`, unless
    `break_d_squared`; a quarter of the models leave some d rows undefined.
    F maps weight w into p w and V into w / p, each row defined with
    probability 4/5, into the block there (none: the row is zero).
    Coefficients have every valuation; a third of them are zero.
    """
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    exponent = rng.randint(2, 4)
    q = p ** exponent

    def coefficient():
        return 0 if rng.random() < 0.35 else rng.randrange(1, q) * p ** rng.randrange(exponent) % q

    def rows(sources, targets, matrix):
        """matrix[i][j] is the coefficient of targets[i] in the image of sources[j]."""
        return {s: {t: matrix[i][j] for i, t in enumerate(targets) if matrix[i][j]} for j, s in enumerate(sources)}

    weights = sorted({Fraction(rng.randint(0, 2 * p), p ** rng.randint(0, 1)) for _ in range(rng.randint(2, 6))})
    blocks, basis = {}, []
    for w in weights:
        for degree in range(3):
            labels = [f"{'xyz'[degree]}{len(basis) + i}" for i in range(rng.choice((0, 1, 1, 2, 2, 3, 3)))]
            blocks[degree, w] = labels
            basis += [BasisElement(lbl, degree, w) for lbl in labels]
    d, frobenius, verschiebung = {}, {}, {}
    for w in weights:
        a, b, c = (blocks[degree, w] for degree in range(3))
        k = rng.randint(0, len(b))
        d0 = [[coefficient() if i < k else 0 for _ in a] for i in range(len(b))]
        d1 = [[coefficient() if j >= k or break_d_squared else 0 for j in range(len(b))] for _ in c]
        for _ in range(rng.randint(0, 3) if len(b) > 1 else 0):
            i, j = rng.sample(range(len(b)), 2)
            f = rng.randrange(1, q)  # d0 <- E d0 and d1 <- d1 E^-1 for E = 1 + f e_i e_j^T
            d0[i] = [x + f * y for x, y in zip(d0[i], d0[j])]
            for row in d1:
                row[j] -= f * row[i]
        d.update(rows(a, b, d0))
        d.update(rows(b, c, d1))
        d.update({lbl: {} for lbl in c})
        for degree in range(3):
            for mapping, target in ((frobenius, w * p), (verschiebung, w / p)):
                targets = blocks.get((degree, target), [])
                for lbl in blocks[degree, w]:
                    if rng.random() < 0.8:
                        mapping[lbl] = {t: x for t in targets if (x := coefficient())}
    if d and rng.random() < 0.25:
        for lbl in rng.sample(sorted(d), rng.randint(1, max(1, len(d) // 5))):
            del d[lbl]
    cap = rng.choice([None, *weights])
    depth = rng.choice([None, 0, 1, 2])
    return DieudonneModel(p, exponent, basis, d, frobenius, verschiebung, weight_cap=cap, depth_cap=depth)


def every_report(m):
    """The JSON of every checker on m, at every level its N allows, and of
    the W_r and mod-p^r cohomology presentations they read."""
    reports = [check_axioms(m), saturation_witness(m), frobenius_injectivity_degree0_check(m)]
    for r in range(1, m.exponent):
        reports.append(f_cancellation_check(m, r))
        reports.extend(compare_wr_with_cohomology(m, degree, r) for degree in range(3))
    reports.extend(w1_vanishing_propagation_check(m, degree, m.exponent - 1) for degree in range(3))
    docs = [report.to_json() for report in reports]
    for degree in range(3):
        docs.extend([wr_quotient(m, degree, 1).to_json(), hn_mod_pr(m, degree, m.exponent).to_json()])
    return docs


def assert_reports_match_the_reference(m):
    """Cold and warm reports agree byte for byte, and the axiom and
    propagation reports agree with the reference checkers'."""
    cold = json.dumps(every_report(m))
    assert json.dumps(every_report(m)) == cold
    assert json.dumps(check_axioms(m).to_json()) == json.dumps(reference.check_axioms(m).to_json())
    for degree in range(3):
        found = w1_vanishing_propagation_check(m, degree, m.exponent - 1).to_json()
        expected = reference.w1_vanishing_propagation_check(m, degree, m.exponent - 1).to_json()
        assert json.dumps(found) == json.dumps(expected)
    return json.loads(cold)


def report_digest(docs):
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


# Sha256 over `every_report`'s JSON, key order included, of the 400 wide
# models of seeds 0-399 and of the mutants below.  Taken before the
# checkers read first images off the map rows and built spans on residue
# lists, when every span went through the public `SubmoduleBasis`.
WIDE_REPORT_DIGEST = "dc7e14ccc42c57d0c3ddb6fa2da0de01f57043ace4c8b0c3d4feda66e47b02b0"
MUTANT_REPORT_DIGEST = "fc991c235f3c174f4b40980a38ca57794f8d68e59c8e0681f3fdffa87eb764b2"


def test_wide_block_reports_match_the_reference_and_the_pinned_digest():
    """The digest covers blocks 2 and 3 labels wide, and reports with
    violations and with inconclusive entries from the checkers."""
    docs, widths, failing = [], Counter(), Counter()
    for seed in range(400):
        m = wide_graded_model(seed)
        widths.update(len(labels) for labels in m._blocks.values())
        docs += assert_reports_match_the_reference(m)
    for doc in docs:
        if doc.get("violations"):
            failing[doc["check"].split("(")[0]] += 1
    assert widths[2] > 100 and widths[3] > 100
    assert {"axioms", "saturation", "f_cancellation", "wr_vs_cohomology"} <= set(failing)
    assert any(doc.get("inconclusive") for doc in docs)
    assert report_digest(docs) == WIDE_REPORT_DIGEST


def _f_coefficient_times_p(m, source):
    doc = m.to_json()
    row = doc["F"][source]
    target = next(iter(row))
    row[target] = row[target] * m.p
    return DieudonneModel.from_json(doc)


def test_mutant_reports_match_the_reference_and_the_pinned_digest():
    """Mutants fail their checks, and report the failures as the reference
    checkers do: one F coefficient multiplied by p on two A^1 models, which
    breaks saturation, and wide models whose d^2 is not zero."""
    mutants = [_f_coefficient_times_p(a1_model(2, 4, 4), "[T^1]"),
               _f_coefficient_times_p(a1_model(3, 1, 4), "V^1[T^1]")]
    for m in mutants:
        assert not saturation_witness(m).passed
    mutants += [wide_graded_model(seed, break_d_squared=True) for seed in range(60)]
    broken = sum(any(v["axiom"] == "d_squared" for v in check_axioms(m).violations) for m in mutants)
    assert broken >= 20
    docs = []
    for m in mutants:
        docs += assert_reports_match_the_reference(m)
    assert report_digest(docs) == MUTANT_REPORT_DIGEST


def assert_les_matches_the_reference(m):
    """`_les_exactness_failure` agrees with the reference on every
    (degree, key, r) the propagation check reaches, for the true H(M/p)
    block and its doctored copies; returns how many failed exactness."""
    failures = 0
    for degree in range(3):
        for r in range(1, m.exponent):
            h1s, tops = hn_mod_pr(m, degree, 1).by_key, hn_mod_pr(m, degree, r + 1).by_key
            for key, h1 in h1s.items():
                h_top = tops.get(key)
                if not (h1.complete and h_top is not None and h_top.complete):
                    continue
                for doctored in _doctored(h1, m.p):
                    found = les_failure(m, degree, key, r, doctored, h_top)
                    assert found == reference.les_exactness_failure(m, degree, key, r, doctored, h_top)
                    failures += found is not None
    return failures


def test_les_exactness_on_wide_blocks_matches_the_reference():
    assert sum(assert_les_matches_the_reference(wide_graded_model(seed)) for seed in range(120)) > 0


def test_doctored_les_cases_match_the_reference():
    """The doctored H(M/p) blocks of the `test_les_exactness_*` tests."""
    m = a1_model(2, 4, 4)
    h1, h_top = hn_mod_pr(m, 0, 1).by_key[0], hn_mod_pr(m, 0, 2).by_key[0]
    cases = [(m, h1, h_top), (m, dataclasses.replace(h1, generators=()), h_top)]
    w = Fraction(0)
    basis = [BasisElement("x", 0, w), BasisElement("y", 0, w), BasisElement("z", 1, w)]
    m = DieudonneModel(2, 3, basis, {"x": {"z": 1}, "y": {}, "z": {}}, {}, {})
    h1, h_top = hn_mod_pr(m, 0, 1).by_key[0], hn_mod_pr(m, 0, 2).by_key[0]
    cases += [(m, h1, h_top), (m, dataclasses.replace(h1, generators=((1, 0),)), h_top)]
    found = [les_failure(m, 0, 0, 1, h1, h_top) for m, h1, h_top in cases]
    assert found == [reference.les_exactness_failure(m, 0, 0, 1, h1, h_top) for m, h1, h_top in cases]
    assert found == [None, "im(p^r) != ker(reduction) in the middle cohomology",
                     None, "multiplication-by-p^r image is not a cycle combination"]
    basis = [BasisElement(lbl, degree, w)
             for lbl, degree in (("b0", 1), ("b1", 1), ("c0", 2), ("c1", 2), ("c2", 2))]
    d = {"b0": {"c0": 2, "c1": 2, "c2": 2}, "b1": {"c1": 1, "c2": 1}, "c0": {}, "c1": {}, "c2": {}}
    assert assert_les_matches_the_reference(DieudonneModel(2, 2, basis, d, {}, {})) > 0


# -- the work of a warm checker set ---------------------------------------------------

# The Howell forms and Smith eliminations of one warm bench checker set on
# a1(2, 8, 4), and the keys its memo holds afterwards, by kind, counted
# before those calls were made cheaper.  The checkers recompute their
# preimages, memberships and exactness spans on every call, so fewer forms
# would mean a memo keyed on a checker call or a per-call span.
WARM_SET_HOWELL_FORMS = 528
WARM_SET_SMITH_ELIMINATIONS = 243
WARM_SET_MEMO = {"table": 12, "hn": 8, "exactness": 6, "modulus": 4, "wr": 4}
# The exactness blocks those keys hold: one per block the propagation check
# tests and no more, so a cold pass builds no reduction kernel it never reads.
WARM_SET_EXACTNESS_BLOCKS = 399


def bench_checker_set(m):
    """The checker set `bench/workloads.py` runs on one model."""
    check_axioms(m)
    saturation_witness(m)
    for r in (1, 3):
        f_cancellation_check(m, r)
        for degree in (0, 1):
            compare_wr_with_cohomology(m, degree, r)
    for degree in (0, 1):
        w1_vanishing_propagation_check(m, degree, 3)
    frobenius_injectivity_degree0_check(m)


def test_a_warm_checker_set_makes_the_pinned_howell_and_smith_forms(monkeypatch):
    m = a1_model(2, 8, 4)
    bench_checker_set(m)
    counts = Counter()
    howell, eliminate = SubmoduleBasis._howell, modarith._eliminate

    def counted_howell(self, todo):
        counts["howell"] += 1
        return howell(self, todo)

    def counted_eliminate(*args):
        counts["smith"] += 1
        return eliminate(*args)

    monkeypatch.setattr(SubmoduleBasis, "_howell", counted_howell)
    monkeypatch.setattr(modarith, "_eliminate", counted_eliminate)
    bench_checker_set(m)
    assert counts == {"howell": WARM_SET_HOWELL_FORMS, "smith": WARM_SET_SMITH_ELIMINATIONS}
    assert Counter(key[0] for key in m._memo) == WARM_SET_MEMO
    assert sum(len(blocks) for key, blocks in m._memo.items() if key[0] == "exactness") == WARM_SET_EXACTNESS_BLOCKS


# The Smith eliminations (`modarith._eliminate` calls) and Howell forms of
# one pass of the benchmark's dieudonne workload at seed 59, on fresh
# models (cold) and then on the same models again (warm).  Before H(M/p^r)
# had closed forms at the ends of the complex the cold pass made 6051 and
# 6375; the warm pass made 479 and 1095, as it still does, since it reads
# every presentation from the models.
PARENT_COLD_PASS = {"smith": 6051, "howell": 6375}
COLD_PASS = {"smith": 2977, "howell": 5247}
WARM_PASS = {"smith": 479, "howell": 1095}


def test_the_bench_pass_elimination_work_is_pinned(monkeypatch):
    """A work count, not a timing: every cohomology block of the bench's
    A^1 models sits at an end of the complex, so a cold pass makes no
    preimage elimination for them, and no Smith form for those with no
    boundaries."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Dieudonne

    workload = Dieudonne()
    workload.setup()
    batch = next(workload.passes(59))
    counts = Counter()
    howell, eliminate = SubmoduleBasis._howell, modarith._eliminate

    def counted_howell(self, todo):
        counts["howell"] += 1
        return howell(self, todo)

    def counted_eliminate(*args):
        counts["smith"] += 1
        return eliminate(*args)

    monkeypatch.setattr(SubmoduleBasis, "_howell", counted_howell)
    monkeypatch.setattr(modarith, "_eliminate", counted_eliminate)
    passes = []
    for _ in range(2):
        counts.clear()
        assert all(op.run().passed for op in batch)
        passes.append(dict(counts))
    assert passes == [COLD_PASS, WARM_PASS]
    assert all(COLD_PASS[kind] <= PARENT_COLD_PASS[kind] for kind in COLD_PASS)
    assert COLD_PASS["smith"] <= 3000
