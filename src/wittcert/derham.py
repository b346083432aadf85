"""Presented F_p-algebras and the top exterior power of their Kahler forms.

A `PresentedRing` is R = F_p[x_1..x_n]/I with a reduced Groebner basis of
I.  Its top exterior power Omega^n_R is presented as k[x]/J_top, with
J_top = I + (partials of the generators), so the class of c dx_1...dx_n
is zero exactly when c reduces to zero modulo J_top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .modarith import document_int, document_list
from .polyring import Ideal, Polynomial, PolyRing, TermOrder, buchberger, normal_form


@dataclass(frozen=True)
class PresentedRing:
    """R = k[x_1..x_n]/I with a cached reduced Groebner basis for I."""

    ring: PolyRing
    ideal: Ideal

    def __post_init__(self) -> None:
        if self.ideal.basis is None:
            raise ValueError("presentation ideal must carry a Groebner cache")

    @staticmethod
    def make(ring: PolyRing, generators: Iterable[Polynomial], order: Optional[TermOrder] = None) -> "PresentedRing":
        ideal = buchberger(Ideal.from_polys(ring, generators), order)
        return PresentedRing(ring, ideal)

    def normal(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.ideal)

    def is_zero_ideal(self) -> bool:
        return not self.ideal.basis

    def is_unit_ideal(self) -> bool:
        return self.ideal.contains_one()

    def to_json(self) -> dict:
        return {
            "p": self.ring.p,
            "vars": list(self.ring.names),
            "generators": [g.to_json() for g in self.ideal.generators],
        }

    @staticmethod
    def from_json(doc: Mapping) -> "PresentedRing":
        """Raises ValueError (or PolyParseError) on a malformed document."""
        from .polyring import parse_polynomial, poly_from_json

        try:
            if not isinstance(doc, Mapping):
                raise TypeError(f"expected an object, got {type(doc).__name__}")
            names = tuple(document_list(doc["vars"]))
            if not all(isinstance(name, str) for name in names):
                raise TypeError("variable names must be strings")
            ring = PolyRing(document_int(doc["p"]), names)
            gens = []
            for entry in document_list(doc.get("generators", [])):
                if isinstance(entry, str):
                    gens.append(parse_polynomial(entry, ring))
                elif isinstance(entry, Mapping):
                    gens.append(poly_from_json(entry, ring))
                else:
                    raise TypeError(f"a generator is a string or an object, not {type(entry).__name__}")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ring document ({type(exc).__name__}: {exc})") from exc
        return PresentedRing.make(ring, gens)


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
    ring = presentation.ring
    gens = list(presentation.ideal.generators)
    for f in presentation.ideal.generators:
        for i in range(ring.nvars):
            df = f.partial(i)
            if not df.is_zero():
                gens.append(df)
    jac = buchberger(Ideal.from_polys(ring, gens))
    return TopFormPresentation(jac)


def top_form_is_zero_in_omega(c: Polynomial, top: TopFormPresentation) -> bool:
    """True iff c * dx_1...dx_n already vanishes in the top power over R."""
    return normal_form(c, top.jacobian_ideal).is_zero()
