"""Finite, weight-truncated models of Dieudonne complexes.

A model is pure data: a graded basis (label, cohomological degree,
weight in Z[1/p]_{>=0}) and three partial linear maps d, F, V over
Z/p^N with explicit definedness masks.  Grading discipline is enforced
at construction: d raises degree by one and preserves weight, F scales
weight by p, V by 1/p, both preserving degree.  Because every operator
respects the weight grading, all checks decompose into small blocks
indexed by (degree, weight) and reduce to Smith/Howell linear algebra.

Truncation makes the operators partial, so every quantified check
distinguishes three outcomes: pass, violation (with witness), and
inconclusive at the truncation boundary.  Soundness over completeness:
a truncated model must never report a spurious failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .modarith import (
    ModularMatrix,
    Modulus,
    SubmoduleBasis,
    kernel_basis,
    smith_normal_form,
)

Vector = dict[str, int]


@dataclass(frozen=True)
class BasisElement:
    label: str
    degree: int
    weight: Fraction


def weight_pair(p: int, w: Fraction) -> tuple[int, int]:
    """Encode w as [m, j] with w = m / p^j and j minimal."""
    j = 0
    denom = w.denominator
    while denom > 1:
        if denom % p:
            raise ValueError(f"weight {w} has denominator not a power of {p}")
        denom //= p
        j += 1
    return int(w * p ** j), j


def weight_from_pair(p: int, pair: Sequence[int]) -> Fraction:
    m, j = int(pair[0]), int(pair[1])
    if j < 0 or m < 0:
        raise ValueError(f"bad weight encoding {pair}")
    return Fraction(m, p ** j)


def _denominator_exponent(p: int, w: Fraction) -> int:
    return weight_pair(p, w)[1]


def _unit_vectors(k: int, scale: int = 1) -> list[tuple[int, ...]]:
    """scale * e_j for j < k: the columns of scale times the k x k identity."""
    return [tuple(scale if i == j else 0 for i in range(k)) for j in range(k)]


class DieudonneModel:
    """Weight-truncated Dieudonne complex with partial d, F, V.

    The graded structure is indexed once, at construction: the labels of
    each (degree, weight) block, the weights of each degree and the
    coefficient modulus are lookups.  An operator's coordinate columns on
    a block are computed on first use and kept, which is safe because the
    maps never change.  Check results are never cached: every checker
    call does its own linear algebra.
    """

    __slots__ = ("p", "exponent", "modulus", "basis", "elements", "maps", "weight_cap",
                 "depth_cap", "_blocks", "_weights", "_column_cache")

    def __init__(
        self,
        p: int,
        exponent: int,
        basis: Sequence[BasisElement],
        d: Mapping[str, Mapping[str, int]],
        frobenius: Mapping[str, Mapping[str, int]],
        verschiebung: Mapping[str, Mapping[str, int]],
        weight_cap: Optional[Fraction] = None,
        depth_cap: Optional[int] = None,
    ):
        self.p = p
        self.exponent = exponent
        self.modulus = modulus = Modulus(p, exponent)
        self.basis = tuple(basis)
        self.elements = {b.label: b for b in self.basis}
        if len(self.elements) != len(self.basis):
            raise ValueError("duplicate basis labels")
        blocks: dict[tuple[int, Fraction], list[str]] = {}
        for b in self.basis:
            if b.weight < 0:
                raise ValueError(f"negative weight on {b.label}")
            weight_pair(p, b.weight)  # validates the denominator
            blocks.setdefault((b.degree, b.weight), []).append(b.label)
        self._blocks = {key: tuple(sorted(labels)) for key, labels in blocks.items()}
        self._weights: dict[int, list[Fraction]] = {}
        for degree, weight in self._blocks:
            self._weights.setdefault(degree, []).append(weight)
        for weights in self._weights.values():
            weights.sort()
        self._column_cache: dict = {}
        if weight_cap is None:
            weight_cap = max((b.weight for b in self.basis), default=Fraction(0))
        self.weight_cap = weight_cap
        self.depth_cap = depth_cap

        def clean(name: str, mapping: Mapping[str, Mapping[str, int]]):
            out: dict[str, dict[str, int]] = {}
            for src, row in mapping.items():
                if src not in self.elements:
                    raise ValueError(f"{name} defined on unknown label {src}")
                src_el = self.elements[src]
                cleaned: dict[str, int] = {}
                for dst, coeff in row.items():
                    c = modulus.reduce(coeff)
                    if not c:
                        continue
                    if dst not in self.elements:
                        raise ValueError(f"{name}({src}) hits unknown label {dst}")
                    dst_el = self.elements[dst]
                    expected = self._target(name, src_el.degree, src_el.weight)
                    if (dst_el.degree, dst_el.weight) != expected:
                        raise ValueError(
                            f"{name}({src}) -> {dst} violates the grading: "
                            f"expected (degree, weight) = {expected}"
                        )
                    cleaned[dst] = c
                out[src] = cleaned
            return out

        self.maps = {"d": clean("d", d), "F": clean("F", frobenius), "V": clean("V", verschiebung)}

    # -- structure queries --------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._weights)

    def weights(self, degree: int) -> list[Fraction]:
        return list(self._weights.get(degree, ()))

    def block(self, degree: int, weight: Fraction) -> tuple[str, ...]:
        return self._blocks.get((degree, weight), ())

    def _target(self, op: str, degree: int, weight: Fraction) -> tuple[int, Fraction]:
        """The (degree, weight) block that `op` maps the given block into."""
        if op == "d":
            return degree + 1, weight
        return degree, weight * self.p if op == "F" else weight / self.p

    def defined(self, op: str, label: str) -> bool:
        return label in self.maps[op]

    def apply(self, op: str, vec: Vector) -> Optional[Vector]:
        """Apply a partial operator to a vector; None when undefined on support."""
        mapping = self.maps[op]
        q = self.modulus.char
        out: Vector = {}
        for lbl, c in vec.items():
            c %= q
            if not c:
                continue
            row = mapping.get(lbl)
            if row is None:
                return None
            for dst, k in row.items():
                v = (out.get(dst, 0) + c * k) % q
                if v:
                    out[dst] = v
                else:
                    out.pop(dst, None)
        return out

    def apply_chain(self, ops: Sequence[str], vec: Vector) -> Optional[Vector]:
        current: Optional[Vector] = dict(vec)
        for op in ops:
            if current is None:
                return None
            current = self.apply(op, current)
        return current

    def basis_vector(self, label: str) -> Vector:
        return {label: 1}

    def vector_to_coords(self, vec: Vector, block: Sequence[str]) -> tuple[int, ...]:
        q = self.modulus.char
        rest = {k: v % q for k, v in vec.items() if v % q}
        coords = tuple(rest.pop(lbl, 0) for lbl in block)
        if rest:
            raise ValueError(f"vector has support outside the block: {sorted(rest)}")
        return coords

    def coords_to_vector(self, coords: Sequence[int], block: Sequence[str]) -> Vector:
        return {lbl: c for lbl, c in zip(block, coords) if c}

    def _columns(self, op: str, degree: int, weight: Fraction) -> Optional[tuple[tuple[int, ...], ...]]:
        """Coordinates of `op` on each label of the (degree, weight) block, in
        the basis of its target block; None when `op` is undefined somewhere
        on the block.  Memoised per model: the maps are immutable."""
        key = (op, degree, weight)
        if key not in self._column_cache:
            target = self.block(*self._target(op, degree, weight))
            rows = [self.maps[op].get(lbl) for lbl in self.block(degree, weight)]
            self._column_cache[key] = None if None in rows else tuple(
                self.vector_to_coords(row, target) for row in rows
            )
        return self._column_cache[key]

    def op_matrix(self, op: str, degree: int, weight: Fraction,
                  modulus: Optional[Modulus] = None) -> Optional[ModularMatrix]:
        """Matrix of an operator on the (degree, weight) block, or None if
        the operator is undefined somewhere on the block."""
        cols = self._columns(op, degree, weight)
        if cols is None:
            return None
        target = self.block(*self._target(op, degree, weight))
        return ModularMatrix.from_columns(modulus or self.modulus, cols, len(target))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def encode(mapping):
            return {
                src: {dst: c for dst, c in sorted(row.items())}
                for src, row in sorted(mapping.items())
            }

        doc = {
            "p": self.p,
            "N": self.exponent,
            "basis": [
                {
                    "label": b.label,
                    "degree": b.degree,
                    "weight": list(weight_pair(self.p, b.weight)),
                }
                for b in self.basis
            ],
            "d": encode(self.maps["d"]),
            "F": encode(self.maps["F"]),
            "V": encode(self.maps["V"]),
            "weight_cap": list(weight_pair(self.p, self.weight_cap)),
        }
        if self.depth_cap is not None:
            doc["depth_cap"] = self.depth_cap
        return doc

    @staticmethod
    def from_json(doc: Mapping) -> "DieudonneModel":
        """Raises ValueError on a malformed document."""
        try:
            if not isinstance(doc, Mapping):
                raise TypeError(f"expected an object, got {type(doc).__name__}")
            p = int(doc["p"])
            exponent = int(doc["N"])
            Modulus(p, exponent)  # validates p first: p = 0 would divide by zero in the weights
            basis = [
                BasisElement(str(b["label"]), int(b["degree"]), weight_from_pair(p, b["weight"]))
                for b in doc["basis"]
            ]
            cap = weight_from_pair(p, doc["weight_cap"]) if "weight_cap" in doc else None
            depth = int(doc["depth_cap"]) if "depth_cap" in doc else None
            maps = [
                {src: {dst: int(c) for dst, c in dict(row).items()}
                 for src, row in dict(doc.get(op, {})).items()}
                for op in ("d", "F", "V")
            ]
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed model document ({type(exc).__name__}: {exc})") from exc
        return DieudonneModel(p, exponent, basis, *maps, weight_cap=cap, depth_cap=depth)

    def __repr__(self) -> str:
        return (
            f"DieudonneModel(p={self.p}, N={self.exponent}, "
            f"basis={len(self.basis)}, cap={self.weight_cap})"
        )


# -- fixtures ---------------------------------------------------------------


def zero_model(p: int, exponent: int) -> DieudonneModel:
    return DieudonneModel(p, exponent, [], {}, {}, {})


def trivial_model(p: int, exponent: int) -> DieudonneModel:
    """Z/p^N in degree 0 with d = 0, F = id, V = p; FV = p by construction."""
    e = BasisElement("e", 0, Fraction(0))
    return DieudonneModel(
        p,
        exponent,
        [e],
        {"e": {}},
        {"e": {"e": 1}},
        {"e": {"e": p}},
    )


def _a1_label(degree: int, m: int, j: int) -> str:
    if degree == 0:
        if j == 0:
            return f"[T^{m}]"
        return f"V^{j}[T^{m}]"
    if j == 0:
        return "dT" if m == 1 else f"[T^{m - 1}]dT"
    return f"dV^{j}[T^{m}]"


def a1_model(p: int, wmax: int, exponent: int, depth: Optional[int] = None) -> DieudonneModel:
    """Weight-truncated strict de Rham-Witt complex of F_p[T].

    Degree 0 is spanned by 1 and V^j[T^m] (j = 0 for every m >= 1, and
    j >= 1 with p not dividing m); degree 1 by the weight-w generators
    [T^(m-1)]dT (integral w = m) and dV^j[T^m] (fractional w).  Operator
    coefficients come from the rewrite rules FV = p, FdV = d,
    F[T^m] = [T^(pm)], F([T^(m-1)]dT) = [T^(pm-1)]dT, V(dx) = p dV(x),
    and Leibniz; `check_axioms` is the oracle that the outcome is right.

    Weights are truncated at wmax and V-depth at `depth` (default N):
    beyond that, V is undefined rather than wrong.
    """
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    if exponent < 2:
        raise ValueError("coefficient exponent must be >= 2 for level-1 statements")
    if depth is None:
        depth = exponent
    modulus = Modulus(p, exponent)
    q = modulus.char

    index: list[tuple[int, int]] = [(0, 0)]  # (m, j); (0, 0) encodes the unit / weight 0
    for m in range(1, wmax + 1):
        index.append((m, 0))
    for j in range(1, depth + 1):
        for m in range(1, wmax * p ** j + 1):
            if m % p:
                index.append((m, j))

    basis: list[BasisElement] = []
    d_map: dict[str, dict[str, int]] = {}
    f_map: dict[str, dict[str, int]] = {}
    v_map: dict[str, dict[str, int]] = {}

    def wt(m: int, j: int) -> Fraction:
        return Fraction(m, p ** j)

    for m, j in index:
        w = wt(m, j)
        if (m, j) == (0, 0):
            basis.append(BasisElement("1", 0, w))
            continue
        basis.append(BasisElement(_a1_label(0, m, j), 0, w))
        basis.append(BasisElement(_a1_label(1, m, j), 1, w))

    labels = {b.label for b in basis}

    def add(mapping, src, row):
        mapping[src] = {k: v % q for k, v in row.items() if v % q}

    # -- differential (total within the truncation) --
    add(d_map, "1", {})
    for m, j in index[1:]:
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        add(d_map, u, {e: m if j == 0 else 1})
        add(d_map, e, {})

    # -- Frobenius: defined when the target weight p*w stays below wmax --
    def f_defined(m: int, j: int) -> bool:
        return wt(m, j) * p <= wmax

    add(f_map, "1", {"1": 1})
    for m, j in index[1:]:
        if not f_defined(m, j):
            continue
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        if j == 0:
            add(f_map, u, {_a1_label(0, p * m, 0): 1})
            add(f_map, e, {_a1_label(1, p * m, 0): 1})
        elif j == 1:
            add(f_map, u, {_a1_label(0, m, 0): p})
            add(f_map, e, {_a1_label(1, m, 0): m})
        else:
            add(f_map, u, {_a1_label(0, m, j - 1): p})
            add(f_map, e, {_a1_label(1, m, j - 1): 1})

    # -- Verschiebung: defined when the target stays within the V-depth --
    add(v_map, "1", {"1": p})
    for m, j in index[1:]:
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        if j == 0 and m % p == 0:
            add(v_map, u, {_a1_label(0, m // p, 0): p})
            add(v_map, e, {_a1_label(1, m // p, 0): p})
            continue
        if j + 1 <= depth:
            add(v_map, u, {_a1_label(0, m, j + 1): 1})
            if j == 0:
                add(v_map, e, {_a1_label(1, m, 1): p * modulus.inverse(m)})
            else:
                add(v_map, e, {_a1_label(1, m, j + 1): p})

    assert all(lbl in labels for row in (d_map, f_map, v_map) for tgt in row.values() for lbl in tgt)
    return DieudonneModel(
        p, exponent, basis, d_map, f_map, v_map,
        weight_cap=Fraction(wmax), depth_cap=depth,
    )


# -- reports ---------------------------------------------------------------


def _vec_json(vec: Vector) -> dict:
    return {k: vec[k] for k in sorted(vec)}


@dataclass
class CheckReport:
    """Uniform shape for all model checks: violations carry witnesses,
    boundary cases are reported as inconclusive, never as failures."""

    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f", {len(self.inconclusive)} inconclusive" if self.inconclusive else ""
        return f"{self.name}: {status} ({self.checked} checked, {len(self.violations)} violations{extra})"


def check_axioms(model: DieudonneModel) -> CheckReport:
    """Verify d^2 = 0, dF = pFd, FV = p, FdV = d wherever both sides are defined."""
    report = CheckReport("axioms")
    q = model.modulus.char
    p = model.p

    def scaled(vec: Vector, k: int) -> Vector:
        return {lbl: (c * k) % q for lbl, c in vec.items() if (c * k) % q}

    for b in model.basis:
        x = model.basis_vector(b.label)
        cases = [
            ("d_squared", model.apply_chain(["d", "d"], x), {}),
            ("dF_equals_pFd", model.apply_chain(["F", "d"], x),
             None if (fd := model.apply_chain(["d", "F"], x)) is None else scaled(fd, p)),
            ("FV_equals_p", model.apply_chain(["V", "F"], x), scaled(x, p)),
            ("FdV_equals_d", model.apply_chain(["V", "d", "F"], x), model.apply("d", x)),
        ]
        for name, lhs, rhs in cases:
            if lhs is None or rhs is None:
                report.inconclusive.append(
                    {"axiom": name, "element": b.label, "reason": "undefined within truncation"}
                )
                continue
            report.checked += 1
            if lhs != rhs:
                report.violations.append(
                    {
                        "axiom": name,
                        "element": b.label,
                        "lhs": _vec_json(lhs),
                        "rhs": _vec_json(rhs),
                    }
                )
    return report


def _mod_p_cycle_generators(model: DieudonneModel, degree: int, weight: Fraction) -> Optional[list[tuple[int, ...]]]:
    """Generators over Z/p^N of {x in the block : dx = 0 mod p}; None when
    d is undefined somewhere on the block."""
    k = len(model.block(degree, weight))
    if not k:
        return []
    d_mod_p = model.op_matrix("d", degree, weight, Modulus(model.p, 1))
    if d_mod_p is None:
        return None
    if not d_mod_p.rows:
        return _unit_vectors(k)
    return [tuple(int(x) for x in g) for g in kernel_basis(d_mod_p)] + _unit_vectors(k, model.p)


def saturation_witness(model: DieudonneModel) -> CheckReport:
    """For every x in the truncation with dx = 0 mod p, solve x = F(y).

    Failures come with the witness x; when the candidate F-source block is
    beyond the truncation (depth cap) or F is not defined there, the case
    is flagged inconclusive instead.
    """
    report = CheckReport("saturation")
    p = model.p
    for degree in model.degrees():
        for weight in model.weights(degree):
            block = model.block(degree, weight)
            gens = _mod_p_cycle_generators(model, degree, weight)
            if gens is None:
                report.inconclusive.append(
                    {"degree": degree, "weight": str(weight), "reason": "d undefined on block"}
                )
                continue
            src_weight = weight / p
            if not model.block(degree, src_weight):
                depth = model.depth_cap
                if depth is not None and _denominator_exponent(p, src_weight) > depth:
                    if any(any(g) for g in gens):
                        report.inconclusive.append(
                            {
                                "degree": degree,
                                "weight": str(weight),
                                "reason": "F-source weight beyond depth truncation",
                            }
                        )
                    continue
            f_cols = model._columns("F", degree, src_weight)
            if f_cols is None:
                report.inconclusive.append(
                    {
                        "degree": degree,
                        "weight": str(weight),
                        "reason": "F undefined on the source block",
                    }
                )
                continue
            f_image = SubmoduleBasis(model.modulus, len(block), f_cols)
            for g in gens:
                if not any(g):
                    continue
                report.checked += 1
                if not f_image.contains(g):
                    report.violations.append(
                        {
                            "degree": degree,
                            "weight": str(weight),
                            "witness": _vec_json(model.coords_to_vector(g, block)),
                        }
                    )
    return report


# -- level-r quotients and cohomology ---------------------------------------


def _wr_relation_vectors(model: DieudonneModel, degree: int, weight: Fraction, r: int) -> tuple[list[tuple[int, ...]], bool]:
    """Vectors spanning (im V^r + im dV^r) inside the (degree, weight) block,
    plus a completeness flag: False when truncation may hide relations."""
    block = model.block(degree, weight)
    source_weight = weight * model.p ** r
    complete = source_weight <= model.weight_cap
    chains = [(lbl, ["V"] * r) for lbl in model.block(degree, source_weight)]
    chains += [(lbl, ["V"] * r + ["d"]) for lbl in model.block(degree - 1, source_weight)]
    vectors: list[tuple[int, ...]] = []
    for lbl, ops in chains:
        img = model.apply_chain(ops, {lbl: 1})
        if img is None:
            complete = False
        else:
            vectors.append(model.vector_to_coords(img, block))
    return vectors, complete


def _cokernel_factors(modulus: Modulus, ambient: int, relations: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Invariant factor exponents of (Z/p^N)^ambient / span(relations),
    sorted descending, zeros dropped (a factor p^e contributes e)."""
    if ambient == 0:
        return ()
    if not relations:
        return tuple([modulus.exponent] * ambient)
    matrix = ModularMatrix.from_columns(modulus, relations, ambient)
    snf = smith_normal_form(matrix)
    exps = [modulus.valuation(d) for d in snf.diag]
    exps.extend([modulus.exponent] * (ambient - len(exps)))
    return tuple(sorted((e for e in exps if e > 0), reverse=True))


@dataclass(frozen=True)
class QuotientBlock:
    """One weight block of a presentation.  A cohomology block is presented
    on its cycle `generators`; a W_r block on its labels, with none."""

    labels: tuple[str, ...]
    relations: SubmoduleBasis
    factors: tuple[int, ...]
    complete: bool
    generators: tuple[tuple[int, ...], ...] = ()

    @property
    def rank(self) -> int:
        return len(self.factors)


@dataclass
class QuotientPresentation:
    """Presentation of a graded quotient (or subquotient), one block per weight."""

    degree: int
    modulus: Modulus
    blocks: dict[Fraction, QuotientBlock]

    def factors_at(self, weight: Fraction) -> tuple[int, ...]:
        block = self.blocks.get(weight)
        return block.factors if block else ()

    def total_rank(self) -> int:
        return sum(b.rank for b in self.blocks.values())

    def is_zero(self) -> bool:
        return self.total_rank() == 0

    def to_json(self) -> dict:
        p = self.modulus.p
        out = []
        for w in sorted(self.blocks):
            b = self.blocks[w]
            out.append(
                {
                    "weight": list(weight_pair(p, w)),
                    "ambient": list(b.labels),
                    "factors": list(b.factors),
                    "complete": b.complete,
                }
            )
        return {"degree": self.degree, "modulus_exponent": self.modulus.exponent, "blocks": out}


def wr_quotient(model: DieudonneModel, degree: int, r: int) -> QuotientPresentation:
    """Presentation of M^degree / (im V^r + im dV^r) within the truncation."""
    if r < 1:
        raise ValueError("level r must be >= 1")
    modulus = model.modulus
    blocks: dict[Fraction, QuotientBlock] = {}
    for weight in model.weights(degree):
        labels = model.block(degree, weight)
        relations, complete = _wr_relation_vectors(model, degree, weight, r)
        basis = SubmoduleBasis(modulus, len(labels), relations)
        factors = _cokernel_factors(modulus, len(labels), relations)
        blocks[weight] = QuotientBlock(labels, basis, factors, complete)
    return QuotientPresentation(degree, modulus, blocks)


def quotient_image(presentation: QuotientPresentation, model: DieudonneModel, vec: Vector) -> dict[Fraction, tuple[int, ...]]:
    """Canonical representative of an element per weight block."""
    q = presentation.modulus.char
    split: dict[Fraction, Vector] = {}
    for lbl, c in vec.items():
        element = model.elements[lbl]
        if element.degree != presentation.degree:
            raise ValueError(f"{lbl} is not in degree {presentation.degree}")
        if c % q:
            split.setdefault(element.weight, {})[lbl] = c % q
    out = {}
    for w, piece in split.items():
        block = presentation.blocks[w]
        coords = model.vector_to_coords(piece, block.labels)
        out[w] = block.relations.reduce_vector(coords)
    return out


def quotient_is_zero(presentation: QuotientPresentation, model: DieudonneModel, vec: Vector) -> bool:
    return all(not any(r) for r in quotient_image(presentation, model, vec).values())


def _cohomology_block(model: DieudonneModel, degree: int, weight: Fraction, r: int) -> Optional[QuotientBlock]:
    """H^degree(M/p^r) on one weight block, presented on cycle generators.

    Returns None when d is undefined somewhere it is needed.
    """
    modulus = Modulus(model.p, r)
    labels = model.block(degree, weight)
    if not labels:
        return QuotientBlock((), SubmoduleBasis(modulus, 0, []), (), True)
    d_out = model.op_matrix("d", degree, weight, modulus)
    boundaries = model._columns("d", degree - 1, weight)
    if d_out is None or boundaries is None:
        return None
    cycles = kernel_basis(d_out)
    if not cycles:
        return QuotientBlock(labels, SubmoduleBasis(modulus, 0, []), (), True)
    if any(any(d_out.apply(b)) for b in boundaries):
        # d of the lower block is not a cycle: d^2 fails mod p^r here.
        return None
    span = SubmoduleBasis(modulus, len(labels), boundaries)
    relations = _preimage_generators(modulus, cycles, len(labels), span)
    factors = _cokernel_factors(modulus, len(cycles), relations)
    return QuotientBlock(
        labels,
        SubmoduleBasis(modulus, len(cycles), relations),
        factors,
        True,
        tuple(cycles),
    )


def hn_mod_pr(model: DieudonneModel, degree: int, r: int) -> QuotientPresentation:
    """Cohomology H^degree(M/p^r) as a presentation, one block per weight."""
    if not 1 <= r <= model.exponent:
        raise ValueError(f"need 1 <= r <= N = {model.exponent}")
    modulus = Modulus(model.p, r)
    blocks: dict[Fraction, QuotientBlock] = {}
    weights = set(model.weights(degree)) | set(model.weights(degree - 1))
    for weight in sorted(weights):
        block = _cohomology_block(model, degree, weight, r)
        if block is None:
            labels = model.block(degree, weight)
            blocks[weight] = QuotientBlock(labels, SubmoduleBasis(modulus, 0, []), (), False)
        else:
            blocks[weight] = block
    return QuotientPresentation(degree, modulus, blocks)


def compare_wr_with_cohomology(model: DieudonneModel, degree: int, r: int) -> CheckReport:
    """Rank and invariant-factor agreement of W_r M^n at weight w with
    H^n(M/p^r) at weight p^r w (the comparison map multiplies weight by p^r)."""
    report = CheckReport(f"wr_vs_cohomology(degree={degree}, r={r})")
    wr = wr_quotient(model, degree, r)
    hn = hn_mod_pr(model, degree, r)
    shift = model.p ** r
    for weight in sorted(wr.blocks):
        wr_block = wr.blocks[weight]
        hn_weight = weight * shift
        if not wr_block.complete or hn_weight > model.weight_cap:
            report.inconclusive.append(
                {"weight": str(weight), "reason": "truncation boundary"}
            )
            continue
        hn_block = hn.blocks.get(hn_weight)
        hn_factors = hn_block.factors if hn_block else ()
        if hn_block is not None and not hn_block.complete:
            report.inconclusive.append(
                {"weight": str(weight), "reason": "cohomology undetermined (d undefined)"}
            )
            continue
        report.checked += 1
        if tuple(wr_block.factors) != tuple(hn_factors):
            report.violations.append(
                {
                    "weight": str(weight),
                    "wr_factors": list(wr_block.factors),
                    "cohomology_weight": str(hn_weight),
                    "cohomology_factors": list(hn_factors),
                }
            )
    return report


# -- the section-2 checkers --------------------------------------------------


def _preimage_generators(modulus: Modulus, columns: Sequence[Sequence[int]], ambient: int,
                         target: SubmoduleBasis) -> list[tuple[int, ...]]:
    """Generators of {x : sum_j x_j columns[j] in span(target)} over `modulus`,
    for columns of length `ambient`.  With no rows (ambient 0) the map is
    zero and the preimage is everything."""
    n_src = len(columns)
    stacked = list(columns) + [tuple((-x) % modulus.char for x in g) for g in target.echelon]
    matrix = ModularMatrix.from_columns(modulus, stacked, ambient)
    return [k[:n_src] for k in kernel_basis(matrix) if any(k[:n_src])]


def _cancellation_scan(model: DieudonneModel, r: int, degrees, report: CheckReport) -> None:
    """Shared body of the F-cancellation style checks: per weight, pull the
    level-r relation span back through F and demand it lands in the
    source-side relation span."""
    p = model.p
    for degree in degrees:
        weights = model.weights(degree)
        # each weight's relations serve as the target at w / p and the source at w
        relations = {
            w: _wr_relation_vectors(model, degree, w, r) for w in {*weights, *(w * p for w in weights)}
        }
        for weight in weights:
            block = model.block(degree, weight)
            target_vectors, target_complete = relations[weight * p]
            source_vectors, source_complete = relations[weight]
            if not (target_complete and source_complete):
                report.inconclusive.append(
                    {"degree": degree, "weight": str(weight), "reason": "truncation boundary"}
                )
                continue
            f_cols = model._columns("F", degree, weight)
            if f_cols is None:
                report.inconclusive.append(
                    {"degree": degree, "weight": str(weight), "reason": "F undefined on block"}
                )
                continue
            # an empty F-target block makes F zero, so the preimage is the whole block
            f_target = len(model.block(degree, weight * p))
            span = SubmoduleBasis(model.modulus, f_target, target_vectors)
            preimage = _preimage_generators(model.modulus, f_cols, f_target, span)
            source_span = SubmoduleBasis(model.modulus, len(block), source_vectors)
            for x in preimage:
                report.checked += 1
                if not source_span.contains(x):
                    report.violations.append(
                        {
                            "degree": degree,
                            "weight": str(weight),
                            "witness": _vec_json(model.coords_to_vector(x, block)),
                        }
                    )


def f_cancellation_check(model: DieudonneModel, r: int) -> CheckReport:
    """If F x lies in im V^r + im dV^r then so must x; report counterexamples.

    Works per weight block on the full preimage submodule F^{-1}(span),
    so the conclusion covers every element, not only basis vectors.
    """
    report = CheckReport(f"f_cancellation(r={r})")
    _cancellation_scan(model, r, model.degrees(), report)
    return report


def frobenius_injectivity_degree0_check(model: DieudonneModel) -> CheckReport:
    """Injectivity of the Frobenius induced on W_1 M^0 (algebra models only).

    The induced map exists because nothing sits in degree -1, and its
    kernel is exactly F^{-1}(im V + im dV) / (im V + im dV) in degree 0,
    so this is the r = 1 cancellation scan restricted to degree 0.
    """
    if any(b.degree < 0 for b in model.basis):
        raise ValueError("model has negative-degree pieces; W_1 M^0 Frobenius is not defined")
    report = CheckReport("frobenius_injectivity_W1_degree0")
    _cancellation_scan(model, 1, [0], report)
    return report


def w1_vanishing_propagation_check(model: DieudonneModel, degree: int, rmax: int) -> CheckReport:
    """H^n(M/p) = 0 forces H^n(M/p^r) = 0 for all r; checked per weight,
    together with exactness of H^n(M/p) -> H^n(M/p^(r+1)) -> H^n(M/p^r)."""
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    if rmax + 1 > model.exponent:
        raise ValueError(f"level-{rmax} statements need coefficient exponent >= {rmax + 1}")
    report = CheckReport(f"w1_vanishing_propagation(degree={degree}, rmax={rmax})")
    presentations = {r: hn_mod_pr(model, degree, r) for r in range(1, rmax + 2)}
    weights = sorted(presentations[1].blocks)
    for weight in weights:
        blocks = {r: presentations[r].blocks.get(weight) for r in presentations}
        if any(b is None or not b.complete for b in blocks.values()):
            report.inconclusive.append({"weight": str(weight), "reason": "d undefined on block"})
            continue
        report.checked += 1
        if not blocks[1].factors:
            for r in range(2, rmax + 1):
                if blocks[r].factors:
                    report.violations.append(
                        {
                            "weight": str(weight),
                            "kind": "vanishing_propagation",
                            "r": r,
                            "factors": list(blocks[r].factors),
                        }
                    )
        for r in range(1, rmax + 1):
            if not blocks[1].factors and not blocks[r].factors and blocks[r + 1].factors:
                report.violations.append(
                    {
                        "weight": str(weight),
                        "kind": "inductive_step",
                        "r": r,
                        "factors": list(blocks[r + 1].factors),
                    }
                )
            failure = _les_exactness_failure(model, degree, weight, r, blocks[1], blocks[r + 1])
            if failure is not None:
                report.violations.append(
                    {"weight": str(weight), "kind": "les_exactness", "r": r, "detail": failure}
                )
    return report


def _les_exactness_failure(
    model: DieudonneModel,
    degree: int,
    weight: Fraction,
    r: int,
    h1: QuotientBlock,
    h_top: QuotientBlock,
) -> Optional[str]:
    """Exactness of H(M/p) --p^r--> H(M/p^(r+1)) --reduce--> H(M/p^r) at the middle.

    The image of the first map is the cycle classes of p^r * (h1 generators)
    and the kernel of the second those of the boundaries mod p^r; both are
    pulled back to the generator coordinates of H(M/p^(r+1)), together with
    the boundaries there, and compared via canonical Howell forms.
    """
    p = model.p
    mod_top = Modulus(p, r + 1)
    gens = h_top.generators
    if not gens:
        # middle is zero: exact iff nothing to check
        return None
    ambient = len(model.block(degree, weight))
    lifted = [tuple(p ** r * x for x in g) for g in h1.generators]
    d_top = model.op_matrix("d", degree, weight, mod_top)
    if any(any(d_top.apply(g)) for g in lifted):
        return "multiplication-by-p^r image is not a cycle combination"
    boundaries = list(model._columns("d", degree - 1, weight))

    def pulled_back(vectors: list[tuple[int, ...]]) -> SubmoduleBasis:
        span = SubmoduleBasis(mod_top, ambient, vectors)
        return SubmoduleBasis(mod_top, len(gens), _preimage_generators(mod_top, gens, ambient, span))

    image_side = pulled_back(lifted + boundaries)
    kernel_side = pulled_back(boundaries + _unit_vectors(ambient, p ** r))
    if image_side != kernel_side:
        return "im(p^r) != ker(reduction) in the middle cohomology"
    return None


def model_from_json_file(path: str) -> DieudonneModel:
    with open(path, "r", encoding="utf-8") as fh:
        return DieudonneModel.from_json(json.load(fh))
