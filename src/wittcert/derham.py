"""Presented F_p-algebras and the top exterior power of their Kahler forms.

A `PresentedRing` is R = F_p[x_1..x_n]/I with a reduced Groebner basis of
I.  Its top exterior power Omega^n_R is presented as k[x]/J_top, with
J_top = I + (partials of the generators), so the class of c dx_1...dx_n
is zero exactly when c reduces to zero modulo J_top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .polyring import GREVLEX, Ideal, Polynomial, PolyRing, TermOrder, buchberger, extend, normal_form


@dataclass(frozen=True)
class PresentedRing:
    """R = k[x_1..x_n]/I: the ideal I with its cached reduced Groebner basis."""

    ideal: Ideal

    def __post_init__(self) -> None:
        if self.ideal.basis is None:
            raise ValueError("presentation ideal must carry a Groebner cache")

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    @staticmethod
    def make(ring: PolyRing, generators: Iterable[Polynomial], order: TermOrder = GREVLEX) -> "PresentedRing":
        return PresentedRing(buchberger(Ideal.from_polys(ring, generators), order))

    def normal(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.ideal)

    def is_zero_ideal(self) -> bool:
        return not self.ideal.basis

    def is_unit_ideal(self) -> bool:
        return self.ideal.contains_one()

    @staticmethod
    def from_json(doc: Mapping) -> "PresentedRing":
        """The ring a document states, with its grevlex basis; raises as `Ideal.from_json`."""
        return PresentedRing(buchberger(Ideal.from_json(doc)))


@dataclass(frozen=True)
class TopFormPresentation:
    """Presentation of the top exterior power as k[x]/J_top.

    J_top = I + (df/dx_i : f a generator of I, all i); the class of
    c * dx_1...dx_n is zero exactly when c lies in J_top.  Partials of
    arbitrary ideal members land in J_top too since d(qf) = q df + f dq
    is q df mod I.
    """

    jacobian_ideal: Ideal


def top_form_presentation(presentation: PresentedRing) -> TopFormPresentation:
    """J_top with its reduced grevlex basis, stated by the generators of I,
    then their nonzero partials.  A grevlex basis of I is extended by the
    partials; a presentation cached in another order is not a start."""
    ring = presentation.ring
    ideal = presentation.ideal
    partials = [f.partial(i) for f in ideal.generators for i in range(ring.nvars)]
    return TopFormPresentation(extend(ideal, partials))


def top_form_is_zero_in_omega(c: Polynomial, top: TopFormPresentation) -> bool:
    """True iff c * dx_1...dx_n already vanishes in the top power over R."""
    return normal_form(c, top.jacobian_ideal).is_zero()
