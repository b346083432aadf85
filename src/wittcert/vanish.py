"""Certified vanishing of the top differential form.

For R = k[x_1..x_n]/I with I nonzero, the class of dx_1 ^ ... ^ dx_n dies
already at the first Witt level.  The witness is a descent chain: starting
from a seed in I, repeatedly take a nonzero partial derivative, or a p-th
root when every partial vanishes, until a nonzero constant remains.  Both
moves stay inside the annihilator of the top-form class (it is radical and
closed under partial derivatives), and both strictly drop total degree, so
the chain is short, deterministic, and replayable by an independent checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .derham import PresentedRing
from .modarith import document_int, document_list, document_str
from .polyring import (
    Ideal,
    Polynomial,
    PolyRing,
    TermOrder,
    basis_pth_root,
    buchberger,
    extend,
    extend_by_partials,
    graph_kernel,
    krull_dim,
    normal_form,
    poly_from_json,
    reduces_to_zero,
)


class InapplicableError(ValueError):
    """The hypotheses of the vanishing statement fail (e.g. I = 0)."""


class InternalDefectError(RuntimeError):
    """A conclusion guaranteed by the theory failed; indicates a bug."""


class ClosureBudgetError(RuntimeError):
    """Tripwire: the closure iteration exceeded its generation cap."""


PROVENANCE = (
    "seed lies in the defining ideal, which annihilates the top-form class",
    "the annihilator of the top-form class is closed under partial derivatives",
    "the annihilator of the top-form class is radical, so p-th roots stay inside",
    "a unit in the annihilator forces the top-form class to vanish",
)

# certificate JSON step names -> DescentStep.op
STEP_OPS = {"partial": "partial", "pthRoot": "pth_root"}


@dataclass(frozen=True)
class DescentStep:
    """One move of the descent: 'partial' (with its variable index) or 'pth_root'."""

    op: str
    var: Optional[int]
    before: Polynomial
    after: Polynomial

    def __post_init__(self) -> None:
        if self.op not in ("partial", "pth_root"):
            raise ValueError(f"unknown descent operation {self.op!r}")
        if (self.op == "partial") != (self.var is not None):
            raise ValueError("partial steps carry a variable index; root steps do not")
        if self.var is not None and (not isinstance(self.var, int) or isinstance(self.var, bool)):
            raise TypeError(f"variable index {self.var!r} is not an integer")


@dataclass(frozen=True)
class VanishingCertificate:
    """`ideal` is the ideal the certificate states, by its generators:
    replay computes its own Groebner basis and reads no cache on it."""

    ideal: Ideal
    seed: Polynomial
    steps: tuple[DescentStep, ...]
    terminal: int
    provenance: tuple[str, ...] = PROVENANCE

    def to_json(self) -> dict:
        """The certificate document.  The seed is the first step's "in" and
        each step's "out" the next one's, so each polynomial of a linked
        chain is encoded once and its object appears in both places: copy
        the document before editing it in place."""
        seed = last_doc = self.seed.to_json()
        last = self.seed
        steps = []
        for s in self.steps:
            before = last_doc if s.before is last else s.before.to_json()
            last, last_doc = s.after, s.after.to_json()
            entry = {"op": "pthRoot" if s.op == "pth_root" else "partial", "in": before, "out": last_doc}
            if s.var is not None:
                entry["var"] = s.var
            steps.append(entry)
        return {
            "ring": self.ideal.to_json(),
            "seed": seed,
            "steps": steps,
            "terminal": self.terminal,
            "provenance": list(self.provenance),
        }

    @staticmethod
    def from_json(doc) -> "VanishingCertificate":
        """Raises ValueError (or PolyParseError) on a malformed document.

        A step's "in" that is the previous "out" as JSON is not parsed
        again, nor is a seed that is the first "in": each is that
        polynomial.  Any other is parsed on its own, so a broken link
        reaches the replay."""
        try:
            ideal = Ideal.from_json(doc["ring"])
            ring = ideal.ring
            step_docs = document_list(doc["steps"])
            steps = []
            last_doc = last = None
            for s in step_docs:
                op = STEP_OPS[s["op"]]
                var = s.get("var")
                before_doc = s["in"]
                before = last if _same_polynomial_document(before_doc, last_doc) else poly_from_json(before_doc, ring)
                last_doc = s["out"]
                last = poly_from_json(last_doc, ring)
                steps.append(DescentStep(op, var, before, last))
            seed_doc = doc["seed"]
            if steps and _same_polynomial_document(seed_doc, step_docs[0]["in"]):
                seed = steps[0].before
            else:
                seed = poly_from_json(seed_doc, ring)
            return VanishingCertificate(
                ideal,
                seed,
                tuple(steps),
                document_int(doc["terminal"]),
                tuple(map(document_str, document_list(doc["provenance"]))) if "provenance" in doc else PROVENANCE,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate ({type(exc).__name__}: {exc})") from exc


def _same_polynomial_document(doc, read) -> bool:
    """Whether `doc` reads as `read`, a polynomial document already read
    without error: equal as JSON, with every exponent and coefficient an
    integer, since Python's == also equates 1, 1.0 and true, which the
    reader refuses."""
    return read is not None and doc == read and all(
        type(t["coef"]) is int and all(type(e) is int for e in t["exp"]) for t in doc["terms"]
    )


def descend_to_unit(f: Polynomial) -> tuple[tuple[DescentStep, ...], int]:
    """Descent chain from a nonzero polynomial to a nonzero constant.

    Strategy (deterministic): take the partial derivative with respect to
    the least variable index with nonzero partial; if every partial
    vanishes, the polynomial lies in k[x^p] (F_p is perfect), so take the
    p-th root.  Total degree strictly decreases either way.
    """
    if f.is_zero():
        raise ValueError("descent requires a nonzero polynomial")
    ring = f.ring
    steps: list[DescentStep] = []
    current = f
    while not current.is_constant():
        before = current
        for i in range(ring.nvars):
            d = current.partial(i)
            if not d.is_zero():
                current = d
                steps.append(DescentStep("partial", i, before, current))
                break
        else:
            root = current.pth_root()
            if root is None:
                raise InternalDefectError(
                    "all partials vanish but the polynomial is not a p-th power"
                )
            current = root
            steps.append(DescentStep("pth_root", None, before, current))
        if current.total_degree() >= before.total_degree():
            raise InternalDefectError("descent step failed to decrease total degree")
    deg = max(f.total_degree(), 0)
    power, log = 1, 0
    while power < max(deg, 1):
        power *= ring.p
        log += 1
    limit = deg * (1 + log)
    if len(steps) > limit:
        raise AssertionError("descent chain exceeds the degree bound")
    return tuple(steps), current.constant_value()


def _minimal_degree_generator(basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Deterministic seed choice: least total degree, ties by leading monomial."""
    return min(basis, key=lambda g: (g.total_degree(), order.key(g.leading(order)[0])))


def certify_top_vanishing(presentation: PresentedRing) -> VanishingCertificate:
    """Certificate that the class of dx_1 ^ ... ^ dx_n vanishes at Witt level 1.

    Requires I != 0; over the zero ideal the top power is free of rank one
    and the statement is false.
    """
    ideal = presentation.ideal
    if not ideal.basis:
        raise InapplicableError(
            "the presentation ideal is zero: the top power is free of rank 1 "
            "and its generator does not vanish"
        )
    order = ideal.basis_order
    seed = _minimal_degree_generator(ideal.basis, order)
    steps, terminal = descend_to_unit(seed)
    return VanishingCertificate(Ideal(ideal.ring, ideal.generators), seed, steps, terminal)


def verify_certificate(cert: VanishingCertificate) -> bool:
    """Replay a certificate from scratch.

    Re-checks seed membership in the stated ideal, every step equation,
    strict degree descent, the chain linkage, and the terminal constant.
    A root step is re-expanded by the termwise p-th power
    (`frobenius_power`: (Σ c·m)^p = Σ c·m^p over F_p), not by the
    producer's `pth_root` and not by square-and-multiply, whose cost grows
    with p.  Membership by division needs no basis: the seed is first
    divided by the stated generators, and a zero remainder writes it as a
    combination of them.  Only a nonzero remainder, which proves nothing,
    makes the replay compute a Groebner basis of its own and take the
    seed's normal form.  It starts from the stated generators and reads no
    cache, but it shares the division, `buchberger` and `normal_form` with
    the producer, so a reduction defect that sends a non-member to 0 would
    pass both.
    """
    try:
        ring = cert.ideal.ring
        stated = Ideal.from_polys(ring, cert.ideal.generators)
        if cert.seed.is_zero() or cert.seed.ring != ring:
            return False
        if not reduces_to_zero(cert.seed, stated.generators) and \
                not normal_form(cert.seed, buchberger(stated)).is_zero():
            return False
        current, degree = cert.seed, cert.seed.total_degree()
        for step in cert.steps:
            if step.before != current or step.after.ring != ring:
                return False
            before_degree, degree = degree, step.after.total_degree()
            if degree >= before_degree:
                return False
            if step.op == "partial":
                if step.after.is_zero() or step.after != step.before.partial(step.var):
                    return False
            else:
                if step.after.frobenius_power() != step.before:
                    return False
            current = step.after
        if not current.is_constant():
            return False
        value = current.constant_value()
        return value != 0 and value == cert.terminal % ring.p
    except (ValueError, IndexError, KeyError):
        return False


@dataclass
class ClosureState:
    """Progress of the differential p-closure iteration."""

    ideal: Ideal
    fixpoint: bool
    generations: int


MAX_CLOSURE_GENERATIONS = 64


def closure_state(ideal: Ideal) -> ClosureState:
    """Least ideal containing I closed under partial derivatives and p-th roots.

    Starts from the grevlex basis `ideal` caches, if it has one.  The
    first generation is J_top, I plus the partials of its generators, kept
    on the ideal and shared with the top-form presentation
    (`extend_by_partials`); each later one extends the current basis by
    the partials of the basis elements that are new since the last
    generation: the partials of the others already lie in the ideal.  When
    the partials add nothing, the ideal I is closed under every partial,
    and its p-th-root ideal needs no elimination (Cartier, 1957; Katz,
    "Nilpotent connections and the monodromy theorem", 1970, §5):

    - θ_i = x_i ∂_i preserves I and multiplies x^β by β_i mod p, so I is
      the sum of its parts of each exponent residue class mod p;
    - ∂^α/α! sends such a part x^α h(x^p), α_i < p, to h(x^p) ∈ I;
    - so the reduced grevlex basis, unique and homogeneous for that
      grading, lies in k[x^p], since a basis element x^α h(x^p) with
      α ≠ 0 would be a multiple of the leading monomial of h(x^p) ∈ I.

    The p-th roots of the basis elements are then the reduced basis of
    the root ideal (`basis_pth_root`), which contains I since g in I gives
    g^p in I.  Termination is guaranteed by the ascending chain
    condition; the generation cap is a tripwire.
    """
    ring = ideal.ring
    current = buchberger(ideal)
    if current.contains_one():
        return ClosureState(current, True, 0)
    candidate = extend_by_partials(current)
    generations = 0
    while True:
        if candidate.basis == current.basis:
            candidate = basis_pth_root(candidate)
            if candidate is None:
                raise InternalDefectError(
                    "the ideal is closed under partials but its basis is not made of p-th powers"
                )
            if candidate.basis == current.basis:
                return ClosureState(current, True, generations)
        fresh = [g for g in candidate.basis if g not in current.basis]
        current = candidate
        generations += 1
        if generations > MAX_CLOSURE_GENERATIONS:
            raise ClosureBudgetError(
                f"differential p-closure exceeded {MAX_CLOSURE_GENERATIONS} generations"
            )
        if current.contains_one():
            return ClosureState(current, True, generations)
        partials = [g.partial(i) for g in fresh for i in range(ring.nvars)]
        candidate = extend(current.stated_by_basis(), partials)


def differential_p_closure(ideal: Ideal) -> Ideal:
    return closure_state(ideal).ideal


def kernel_of_tuple(presentation: PresentedRing, elements: Sequence[Polynomial]) -> Ideal:
    """Kernel of k[t_1..t_n] -> R, t_i -> g_i, via elimination on I + (t_i - g_i).

    The result lives in a fresh polynomial ring with variables t1..tn.
    """
    ring = presentation.ring
    for g in elements:
        if g.ring != ring:
            raise ValueError("tuple element from the wrong ring")
    target = PolyRing(ring.p, tuple(f"t{i}" for i in range(1, len(elements) + 1)))
    return graph_kernel(presentation.ideal, elements, target)


def vanishing_degree_bound(presentation: PresentedRing) -> int:
    """Largest degree in which top forms can survive: the Krull dimension
    of R (for the unit ideal, the sentinel -1: everything vanishes)."""
    return krull_dim(presentation.ideal)


def certify_tuple_vanishing(
    presentation: PresentedRing, elements: Sequence[Polynomial]
) -> tuple[Polynomial, VanishingCertificate]:
    """For a tuple g_1..g_n with n above the degree bound, certify that
    dg_1 ^ ... ^ dg_n dies at Witt level 1.

    Produces a nonzero element of the kernel of t_i -> g_i together with a
    descent certificate over k[t]/ker; pulling back along t_i -> g_i sends
    the certified top-form class onto dg_1 ^ ... ^ dg_n.
    """
    n = len(elements)
    bound = vanishing_degree_bound(presentation)
    if n <= bound:
        raise InapplicableError(
            f"tuple length {n} does not exceed the degree bound {bound}"
        )
    kernel = kernel_of_tuple(presentation, elements)
    if not kernel.basis:
        raise InternalDefectError(
            "kernel of the tuple map is zero although the degree bound was exceeded"
        )
    target = PresentedRing(kernel)
    cert = certify_top_vanishing(target)
    return cert.seed, cert
