"""De Rham complexes of finitely presented F_p-algebras.

Forms are stored on the structural basis dx_S for sorted index subsets S.
Coefficient reduction modulo the defining ideal happens on demand, never
between operations: reduction does not commute with the differential, so
eager normal forms would silently break d**2 = 0 and Leibniz at the
representative level.  Exact zero-testing is available only in top
degree, through the presentation of the top exterior power as
k[x]/(I + partials of the generators); below that, reducing coefficients
gives a sound one-sided test only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .polyring import (
    FieldModeError,
    Ideal,
    Polynomial,
    PolyRing,
    TermOrder,
    buchberger,
    normal_form,
)


@dataclass(frozen=True)
class PresentedRing:
    """R = k[x_1..x_n]/I with a cached reduced Groebner basis for I."""

    ring: PolyRing
    ideal: Ideal

    def __post_init__(self) -> None:
        if not self.ring.field_mode:
            raise FieldModeError("presented rings require field-mode coefficients")
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
            names = tuple(doc["vars"])
            if not all(isinstance(name, str) for name in names):
                raise TypeError("variable names must be strings")
            ring = PolyRing(int(doc["p"]), names)
            gens = []
            for entry in doc.get("generators", []):
                if isinstance(entry, str):
                    gens.append(parse_polynomial(entry, ring))
                elif isinstance(entry, Mapping):
                    gens.append(poly_from_json(entry, ring))
                else:
                    raise TypeError(f"a generator is a string or an object, not {type(entry).__name__}")
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed ring document ({type(exc).__name__}: {exc})") from exc
        return PresentedRing.make(ring, gens)


class DifferentialForm:
    """Exterior form of pure degree q over a presented ring.

    Antisymmetry is structural: components are indexed by sorted tuples
    of distinct variable indices, and wedge/d signs are transposition
    counts from merging those tuples.

    Coefficients are polynomial representatives; they are NOT reduced
    modulo the defining ideal between operations, so d**2 = 0 and the
    graded Leibniz rule hold on the nose.  Reduction happens on demand
    (`normalize`, `is_representative_zero`): a representative that
    reduces to zero proves the class is zero, and below top degree that
    test is deliberately one-sided.
    """

    __slots__ = ("presentation", "degree", "components")

    def __init__(self, presentation: PresentedRing, degree: int,
                 components: Mapping[tuple[int, ...], Polynomial]):
        n = presentation.ring.nvars
        # Degrees above n are allowed but structurally zero: no index
        # subsets of that size exist.
        if degree < 0:
            raise ValueError(f"negative form degree {degree}")
        self.presentation = presentation
        self.degree = degree
        clean: dict[tuple[int, ...], Polynomial] = {}
        for subset, coef in components.items():
            if len(subset) != degree or list(subset) != sorted(set(subset)):
                raise ValueError(f"bad index subset {subset} for degree {degree}")
            if any(not 0 <= i < n for i in subset):
                raise ValueError(f"index out of range in {subset}")
            if coef.ring != presentation.ring:
                raise ValueError("coefficient from the wrong ring")
            if not coef.is_zero():
                clean[tuple(subset)] = coef
        self.components = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(presentation: PresentedRing, degree: int) -> "DifferentialForm":
        return DifferentialForm(presentation, degree, {})

    @staticmethod
    def function(presentation: PresentedRing, f: Polynomial) -> "DifferentialForm":
        return DifferentialForm(presentation, 0, {(): f})

    @staticmethod
    def d_variable(presentation: PresentedRing, i: int) -> "DifferentialForm":
        return DifferentialForm(presentation, 1, {(i,): presentation.ring.one()})

    # -- structure ---------------------------------------------------------

    def normalize(self) -> "DifferentialForm":
        """Reduce every coefficient to its normal form modulo the ideal."""
        reduced = {s: self.presentation.normal(c) for s, c in self.components.items()}
        return DifferentialForm(self.presentation, self.degree, reduced)

    def is_representative_zero(self) -> bool:
        """True if every coefficient is 0 mod I.  Sound but one-sided below
        top degree: a nonzero normal form proves nothing there."""
        return all(self.presentation.normal(c).is_zero() for c in self.components.values())

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        out = dict(self.components)
        for s, c in other.components.items():
            out[s] = out.get(s, self.presentation.ring.zero()) + c
        return DifferentialForm(self.presentation, self.degree, out)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scale(self.presentation.ring.constant(-1))

    def scale(self, f: Polynomial) -> "DifferentialForm":
        return DifferentialForm(
            self.presentation, self.degree, {s: c * f for s, c in self.components.items()}
        )

    def _check(self, other: "DifferentialForm") -> None:
        if self.presentation != other.presentation:
            raise ValueError("forms over different rings")
        if self.degree != other.degree:
            raise ValueError("forms of different degrees")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.presentation == other.presentation
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((self.presentation, self.degree, frozenset(self.components.items())))

    def to_json(self) -> dict:
        items = sorted(self.components.items())
        return {
            "degree": self.degree,
            "terms": [{"subset": list(s), "coef": c.to_json()} for s, c in items],
        }

    def __repr__(self) -> str:
        if not self.components:
            return f"0 (degree {self.degree})"
        names = self.presentation.ring.names
        parts = []
        for s, c in sorted(self.components.items()):
            dx = "^".join(f"d{names[i]}" for i in s) or "1"
            parts.append(f"({c}) {dx}".strip())
        return " + ".join(parts)


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Sign of sorting the concatenation left++right; None when they collide."""
    if set(left) & set(right):
        return 0, None
    inversions = sum(1 for a in left for b in right if b < a)
    merged = tuple(sorted(left + right))
    return (-1) ** inversions, merged


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.presentation != b.presentation:
        raise ValueError("forms over different rings")
    presentation = a.presentation
    out: dict[tuple[int, ...], Polynomial] = {}
    for s, c in a.components.items():
        for t, e in b.components.items():
            sign, merged = _merge_sign(s, t)
            if merged is None:
                continue
            contrib = (c * e).scale(sign)
            if merged in out:
                out[merged] = out[merged] + contrib
            else:
                out[merged] = contrib
    return DifferentialForm(presentation, a.degree + b.degree, out)


def exterior_d(form: DifferentialForm) -> DifferentialForm:
    """d(c dx_S) = sum_i (dc/dx_i) dx_i wedge dx_S, signs by sorted insertion."""
    presentation = form.presentation
    n = presentation.ring.nvars
    out: dict[tuple[int, ...], Polynomial] = {}
    for s, c in form.components.items():
        for i in range(n):
            dc = c.partial(i)
            if dc.is_zero() or i in s:
                continue
            sign, merged = _merge_sign((i,), s)
            contrib = dc.scale(sign)
            if merged in out:
                out[merged] = out[merged] + contrib
            else:
                out[merged] = contrib
    return DifferentialForm(presentation, form.degree + 1, out)


@dataclass(frozen=True)
class TopFormPresentation:
    """Presentation of the top exterior power as k[x]/J_top.

    J_top = I + (df/dx_i : f a generator of I, all i); the class of
    c * dx_1...dx_n is zero exactly when c lies in J_top.  Partials of
    arbitrary ideal members land in J_top too since d(qf) = q df + f dq
    is q df mod I.
    """

    presentation: PresentedRing
    jacobian_ideal: Ideal

    @property
    def degree(self) -> int:
        return self.presentation.ring.nvars


def top_form_presentation(presentation: PresentedRing) -> TopFormPresentation:
    ring = presentation.ring
    gens = list(presentation.ideal.generators)
    for f in presentation.ideal.generators:
        for i in range(ring.nvars):
            df = f.partial(i)
            if not df.is_zero():
                gens.append(df)
    jac = buchberger(Ideal.from_polys(ring, gens))
    return TopFormPresentation(presentation, jac)


def top_form_is_zero_in_omega(c: Polynomial, top: TopFormPresentation) -> bool:
    """True iff c * dx_1...dx_n already vanishes in the top power over R."""
    return normal_form(c, top.jacobian_ideal).is_zero()
