"""Mutated ring, certificate and model documents: parse, or ValueError.

Each example takes a valid document and mutates one node of its JSON
tree: replaces it with an arbitrary JSON value, deletes it, or wraps it
in a list.  The loader must then either return or raise ValueError (the
CLI maps that to exit 2); any other exception is a defect.  A certificate
that loads must also replay to True or False: `certify --verify` exits 4
on False, and any exception there is a defect too.  Certificate mutations
also put a non-integer variable index and an unknown op into the first
step.

Integers and floats are drawn within +-2^20, except that model documents
get integers within +-2^64 (and the prime 2^61 - 1 as an edge): the model
loader bounds p, N and the weight exponents before it tests p by trial
division or computes p^N and p^j, so such values must cost it nothing.
Model mutations also put the first value past each bound at the path it
guards, and a model document must load within LOAD_SECONDS.

Besides the random mutations, every integer field a loader reads is
replaced in turn by a float, a bool and a numeric string, every list
field by a string and an object, every object field (a model's maps and
their rows) by the list of its pairs and a string, and every string field
(a basis label, a provenance entry) by a number and a list; each such
document must raise ValueError.
"""

import json
import math
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wittcert import cli, derham, polyring, vanish
from wittcert.derham import PresentedRing
from wittcert.dieudonne import DieudonneModel, a1_model
from wittcert.polyring import Ideal, PolyRing, parse_polynomial
from wittcert.vanish import VanishingCertificate, certify_top_vanishing, verify_certificate

DATA = Path(__file__).resolve().parent / "data"

BOUND = 2 ** 20
MODEL_BOUND = 2 ** 64
TEXTS = ["", "x", "y", "y^2 - x^3", "x*y", "1", "0", "~", "x^", "pthRoot", "partial", "e", "[T^1]"]

# Values that sit at a type or range edge of some field, drawn as often as
# arbitrary JSON.
EDGES = [None, True, -1, 0, 1.5, BOUND, math.inf, -math.inf, math.nan, "", "x", [], {}]
MODEL_EDGES = EDGES + [2 ** 61 - 1, MODEL_BOUND]
# (path, value): the first values past the loader's bounds on p (2^16, and
# the prime 2^61 - 1, which trial division would take minutes to pass), on
# N and on a weight exponent (both capped at 64), where they are read.
MODEL_TARGETED_EDGES = [
    (("p",), 2 ** 16),
    (("p",), 2 ** 61 - 1),
    (("N",), 65),
    (("basis", 0, "weight", 1), 65),
    (("weight_cap", 1), 65),
]
# A partial step's "var" is read as a variable index, its "op" as a step name.
CERTIFICATE_TARGETED_EDGES = [
    (("steps", 0, "var"), "0"),
    (("steps", 0, "var"), 1.5),
    (("steps", 0, "op"), "bogus"),
]
LOAD_SECONDS = 2.0


def _json_values(int_bound):
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-int_bound, int_bound)
        | st.floats(-BOUND, BOUND)
        | st.sampled_from([math.inf, -math.inf, math.nan])
        | st.sampled_from(TEXTS)
        | st.text(max_size=6),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )


json_values = _json_values(BOUND)
model_json_values = _json_values(MODEL_BOUND)


def _cusp_ring_doc() -> dict:
    ring = PolyRing(5, ("x", "y"))
    presentation = PresentedRing.make(ring, [parse_polynomial("y^2 - x^3", ring)])
    doc = presentation.ideal.to_json()
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
def mutated(draw, base, edges=EDGES, values=json_values, targeted=()):
    """`base` with one to three nodes replaced, deleted or wrapped in a list.

    With `targeted` edges, a replacement may instead put one of them at its
    path, if that path is still in the document.
    """
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["replace", "delete", "wrap"]))
        reachable = [(path, value) for path, value in targeted if path in paths]
        if kind == "replace" and reachable and draw(st.booleans()):
            path, value = draw(st.sampled_from(reachable))
        else:
            path = draw(st.sampled_from(paths))
            value = draw(st.sampled_from(edges) | values) if kind == "replace" else None
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


def _parses_or_value_error(loader, doc):
    """loader(doc), or None when it raises ValueError."""
    try:
        return loader(doc)
    except ValueError:
        return None


FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.data())
def test_mutated_ring_documents(data):
    _parses_or_value_error(PresentedRing.from_json, data.draw(mutated(_cusp_ring_doc())))


@FUZZ
@given(st.data())
def test_mutated_certificate_documents(data):
    doc = data.draw(mutated(_certificate_doc(), targeted=CERTIFICATE_TARGETED_EDGES))
    cert = _parses_or_value_error(VanishingCertificate.from_json, doc)
    if cert is not None:
        assert isinstance(verify_certificate(cert), bool)


def test_loading_a_document_runs_no_buchberger(monkeypatch):
    """A ring document reads as the ideal it states and a certificate holds
    that ideal: neither load computes a Groebner basis."""
    ring_doc, certificate_doc = _cusp_ring_doc(), _certificate_doc()

    def refuse(ideal, order=None):
        raise AssertionError("loading a document ran Buchberger")

    for module in (polyring, derham, vanish, cli):
        monkeypatch.setattr(module, "buchberger", refuse, raising=False)
    ideal = Ideal.from_json(ring_doc)
    assert ideal.basis is None and len(ideal.generators) == 2
    cert = VanishingCertificate.from_json(certificate_doc)
    assert cert.ideal.basis is None and cert.ideal.to_json() == certificate_doc["ring"]


class LoadTooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise LoadTooSlow(f"a model document took over {LOAD_SECONDS} s to load")


@contextmanager
def _load_deadline():
    """A load that overruns LOAD_SECONDS raises LoadTooSlow (SIGALRM timer)."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, LOAD_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@FUZZ
@given(st.data())
def test_mutated_model_documents(data):
    base = data.draw(st.sampled_from(_model_docs()))
    doc = data.draw(mutated(base, MODEL_EDGES, model_json_values, MODEL_TARGETED_EDGES))
    with _load_deadline():
        _parses_or_value_error(DieudonneModel.from_json, doc)


# -- strict types --------------------------------------------------------------

# Fields the loaders read as lists.  A polynomial object's "vars" and "p"
# are not read (the enclosing ring's are), so they are left out.
LIST_FIELDS = {"vars", "generators", "terms", "basis", "steps", "provenance"}
# A model's operator maps: each map and each of its rows is read as an object.
MAP_FIELDS = {"d", "F", "V"}


def _is_polynomial(node) -> bool:
    return isinstance(node, dict) and "terms" in node


def _typed_fields(doc):
    """(path, value) of every integer, list, object and string field a
    loader reads strictly in `doc`."""
    for path in _paths(doc):
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if _is_polynomial(parent) and path[-1] in ("vars", "p"):
            continue
        if (isinstance(value, int) and not isinstance(value, bool)) or path[-1] in LIST_FIELDS:
            yield path, value
        elif (path[0] in MAP_FIELDS and len(path) <= 2) or path[-1] == "label" or path[0] == "provenance":
            yield path, value  # an operator map or row, a basis label or a provenance entry


def _replaced(doc, path, value):
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _wrong_types(value):
    if isinstance(value, list):
        return ["".join(map(str, value)), {str(i): v for i, v in enumerate(value)}]
    if isinstance(value, dict):  # dict() would read the list of its pairs
        return [[[k, v] for k, v in value.items()], "".join(value)]
    if isinstance(value, str):  # str() would read a number or a list
        return [len(value), [value]]
    return [float(value), value + 0.5, True, False, str(value)]


# fields each loader must meet in its base documents, so the test is not vacuous
EXPECTED_FIELDS = {
    PresentedRing.from_json: {"p", "exp", "coef", "generators", "vars", "terms"},
    VanishingCertificate.from_json: {"terminal", "steps", "provenance", "var", "exp", "coef"},
    DieudonneModel.from_json: {"p", "N", "degree", "weight", "weight_cap", "basis", "depth_cap", "label",
                               "d", "F", "V"},
}


@pytest.mark.parametrize("loader,base", [
    (PresentedRing.from_json, _cusp_ring_doc()),
    (VanishingCertificate.from_json, _certificate_doc()),
    *[(DieudonneModel.from_json, doc) for doc in _model_docs()],
], ids=["ring", "certificate", "nonsaturated-model", "a1-model"])
def test_a_field_of_the_wrong_type_is_malformed(loader, base):
    """int() would read 5.9 as 5, true as 1 and "12" as 12, a string
    iterates as a list of characters, dict() reads a list of pairs and
    str() reads anything: each must be refused instead."""
    loader(base)
    fields = list(_typed_fields(base))
    names = {next(key for key in reversed(path) if isinstance(key, str)) for path, _ in fields}
    assert names >= EXPECTED_FIELDS[loader]
    for path, value in fields:
        for wrong in _wrong_types(value):
            with pytest.raises(ValueError, match="malformed"):
                loader(_replaced(base, path, wrong))
