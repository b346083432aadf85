"""Mutated ring, certificate and model documents: parse, or ValueError.

Each example takes a valid document and mutates one node of its JSON
tree: replaces it with an arbitrary JSON value, deletes it, or wraps it
in a list.  The loader must then either return or raise ValueError (the
CLI maps that to exit 2); any other exception is a defect.

Integers and floats are drawn within +-2^20.  A model document's p, N
and weight exponents are not bounded yet, and values far beyond that
cost unbounded time in the loader (trial division on p, p^N); bounding
them is part of the open resource-budget work.
"""

import json
import math
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from wittcert.derham import PresentedRing
from wittcert.dieudonne import DieudonneModel, a1_model
from wittcert.polyring import PolyRing, parse_polynomial
from wittcert.vanish import VanishingCertificate, certify_top_vanishing

DATA = Path(__file__).resolve().parent / "data"

BOUND = 2 ** 20
TEXTS = ["", "x", "y", "y^2 - x^3", "x*y", "1", "0", "~", "x^", "pthRoot", "partial", "e", "[T^1]"]

# Values that sit at a type or range edge of some field, drawn as often as
# arbitrary JSON.
EDGES = [None, True, -1, 0, 1.5, BOUND, math.inf, -math.inf, math.nan, "", "x", [], {}]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-BOUND, BOUND)
    | st.floats(-BOUND, BOUND)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.sampled_from(TEXTS)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _cusp_ring_doc() -> dict:
    ring = PolyRing(5, ("x", "y"))
    presentation = PresentedRing.make(ring, [parse_polynomial("y^2 - x^3", ring)])
    doc = presentation.to_json()
    doc["generators"].append("x*y")  # the textual form as well as the term form
    return doc


def _certificate_doc() -> dict:
    ring = PolyRing(3, ("x", "y"))
    presentation = PresentedRing.make(ring, [parse_polynomial("x*y + x^2", ring)])
    return certify_top_vanishing(presentation).to_json()


def _model_docs() -> list:
    with open(DATA / "nonsaturated_model.json", "r", encoding="utf-8") as fh:
        return [json.load(fh), a1_model(3, 2, 2).to_json()]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def mutated(draw, base):
    """`base` with one to three nodes replaced, deleted or wrapped in a list."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        kind = draw(st.sampled_from(["replace", "delete", "wrap"]))
        value = draw(st.sampled_from(EDGES) | json_values) if kind == "replace" else None
        if not path:
            doc = value if kind == "replace" else [doc]
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "replace":
            parent[key] = value
        elif kind == "delete":
            del parent[key]
        else:
            parent[key] = [parent[key]]
    return doc


def _parses_or_value_error(loader, doc) -> None:
    try:
        loader(doc)
    except ValueError:
        pass


FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.data())
def test_mutated_ring_documents(data):
    _parses_or_value_error(PresentedRing.from_json, data.draw(mutated(_cusp_ring_doc())))


@FUZZ
@given(st.data())
def test_mutated_certificate_documents(data):
    _parses_or_value_error(VanishingCertificate.from_json, data.draw(mutated(_certificate_doc())))


@FUZZ
@given(st.data())
def test_mutated_model_documents(data):
    base = data.draw(st.sampled_from(_model_docs()))
    _parses_or_value_error(DieudonneModel.from_json, data.draw(mutated(base)))
