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
from .polyring import (
    Ideal,
    Polynomial,
    PolyRing,
    TermOrder,
    buchberger,
    graph_kernel,
    krull_dim,
    normal_form,
    poly_from_json,
    pth_root_ideal,
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


@dataclass(frozen=True)
class VanishingCertificate:
    presentation: PresentedRing
    seed: Polynomial
    steps: tuple[DescentStep, ...]
    terminal: int
    provenance: tuple[str, ...] = PROVENANCE

    def to_json(self) -> dict:
        steps = []
        for s in self.steps:
            entry = {"op": "pthRoot" if s.op == "pth_root" else "partial",
                     "in": s.before.to_json(), "out": s.after.to_json()}
            if s.var is not None:
                entry["var"] = s.var
            steps.append(entry)
        return {
            "ring": self.presentation.to_json(),
            "seed": self.seed.to_json(),
            "steps": steps,
            "terminal": self.terminal,
            "provenance": list(self.provenance),
        }

    @staticmethod
    def from_json(doc) -> "VanishingCertificate":
        """Raises ValueError (or PolyParseError) on a malformed document."""
        try:
            presentation = PresentedRing.from_json(doc["ring"])
            ring = presentation.ring
            steps = []
            for s in doc["steps"]:
                op = "pth_root" if s["op"] == "pthRoot" else "partial"
                steps.append(
                    DescentStep(op, s.get("var"), poly_from_json(s["in"], ring), poly_from_json(s["out"], ring))
                )
            return VanishingCertificate(
                presentation,
                poly_from_json(doc["seed"], ring),
                tuple(steps),
                int(doc["terminal"]),
                tuple(doc.get("provenance", PROVENANCE)),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed certificate ({type(exc).__name__}: {exc})") from exc


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
    assert len(steps) <= limit, "descent chain exceeds the degree bound"
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
    return VanishingCertificate(presentation, seed, steps, terminal)


def verify_certificate(cert: VanishingCertificate) -> bool:
    """Replay a certificate from scratch.

    Recomputes a Groebner basis for the stated ideal, re-checks seed
    membership, every step equation (roots re-expanded by plain powering),
    strict degree descent, the chain linkage, and the terminal constant.
    Independent of the code that produced the certificate.
    """
    try:
        ring = cert.presentation.ring
        fresh = buchberger(Ideal.from_polys(ring, cert.presentation.ideal.generators))
        if cert.seed.is_zero() or cert.seed.ring != ring:
            return False
        if not normal_form(cert.seed, fresh).is_zero():
            return False
        current = cert.seed
        for step in cert.steps:
            if step.before != current or step.after.ring != ring:
                return False
            if step.after.total_degree() >= step.before.total_degree():
                return False
            if step.op == "partial":
                if step.after.is_zero() or step.after != step.before.partial(step.var):
                    return False
            else:
                if step.after ** ring.p != step.before:
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


def closure_state(ideal: Ideal, max_generations: int = 64) -> ClosureState:
    """Least ideal containing I closed under partial derivatives and p-th roots.

    Each generation recomputes a reduced Groebner basis.  Partials are tried
    first (cheap); the p-th-root preimage (a 2n-variable elimination) is only
    computed when partials alone are stable.  Termination is guaranteed by
    the ascending chain condition; the generation cap is a tripwire.
    """
    ring = ideal.ring
    current = buchberger(Ideal.from_polys(ring, ideal.generators))
    generations = 0
    while True:
        if current.contains_one():
            return ClosureState(current, True, generations)
        grown = list(current.basis)
        for g in current.basis:
            for i in range(ring.nvars):
                d = g.partial(i)
                if not d.is_zero():
                    grown.append(d)
        candidate = buchberger(Ideal.from_polys(ring, grown))
        if candidate.basis == current.basis:
            roots = pth_root_ideal(current)
            candidate = buchberger(Ideal.from_polys(ring, current.basis + roots.basis))
            if candidate.basis == current.basis:
                return ClosureState(current, True, generations)
        current = candidate
        generations += 1
        if generations > max_generations:
            raise ClosureBudgetError(
                f"differential p-closure exceeded {max_generations} generations"
            )


def differential_p_closure(ideal: Ideal, max_generations: int = 64) -> Ideal:
    return closure_state(ideal, max_generations).ideal


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
    target = PresentedRing(kernel.ring, kernel)
    cert = certify_top_vanishing(target)
    return cert.seed, cert
