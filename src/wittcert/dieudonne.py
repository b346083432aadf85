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

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .modarith import (
    ModularMatrix,
    Modulus,
    SubmoduleBasis,
    check_prime,
    document_int,
    document_list,
    document_object,
    document_str,
    kernel_basis,
    smith_normal_form,
)

Vector = dict[str, int]

# The largest N and weight exponent j a model document may carry: the
# loader computes p^N and p^j from them, so it bounds them first.
MAX_MODEL_EXPONENT = 64

# The largest basis `a1_model` builds.  a1_model(p, wmax, N, depth) has
# 1 + 2 * wmax * p^depth elements, and the CLI takes p, wmax, N and depth
# from flags; the bound admits a1_model(3, 12, 5) (5833 elements).
MAX_A1_BASIS = 2 ** 15

_UNKEPT = object()  # a memo miss: a sentinel, so that a builder may return any value, None included


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
    m, j = document_int(pair[0]), document_int(pair[1])
    if j < 0 or m < 0:
        raise ValueError(f"bad weight encoding {pair}")
    if j > MAX_MODEL_EXPONENT:
        raise ValueError(f"weight exponent {j} exceeds the cap {MAX_MODEL_EXPONENT}")
    return Fraction(m, p ** j)


def _check_exponent(exponent: int) -> None:
    """Bound N before anything computes p^N."""
    if exponent > MAX_MODEL_EXPONENT:
        raise ValueError(f"model exponent N = {exponent} exceeds the cap {MAX_MODEL_EXPONENT}")


def _unit_vectors(k: int, scale: int = 1) -> list[tuple[int, ...]]:
    """scale * e_j for j < k: the columns of scale times the k x k identity."""
    return [tuple(scale if i == j else 0 for i in range(k)) for j in range(k)]


class DieudonneModel:
    """Weight-truncated Dieudonne complex with partial d, F, V.

    The graded structure is indexed once, at construction: the labels of
    each (degree, weight) block, the weights of each degree, the text that
    reports print for each block's weight and the coefficient modulus are
    lookups.  Internally a weight w is keyed by the integer w * p^e, where
    p^e is the largest denominator among the basis weights; `block()`,
    `op_matrix()`, JSON and reports speak in `Fraction`s.  One memo per
    model, read and written only by `_kept`, keeps what is computed on
    first use, one entry per degree rather than per block, so a checker
    call makes a few lookups per degree: the levels Z/p^r (`_level`); per
    (operator, degree, level) a `_table` from weight key to the operator's
    coordinate columns on the block, or to their matrix over Z/p^r, the one
    way a block is read; the W_r quotient and mod-p^r cohomology
    presentations (`wr_quotient`, `hn_mod_pr`) per (degree, r); and per
    (degree, r) the exactness blocks of the propagation check
    (`_exactness_blocks`: d rows, boundaries and the kernel of reduction
    mod p^r of each block it tests).
    That is safe because the maps never change and nothing reads a kept
    value to change it.  Values made for a degree and a level are kept only
    at levels <= N and in degrees next to the model's, so a model holds at
    most a few per (degree, level).  Check reports are never cached, and
    every checker call makes its own kernels of d mod p, preimages under F,
    spans and membership tests.
    """

    __slots__ = ("p", "exponent", "modulus", "basis", "elements", "maps", "weight_cap",
                 "depth_cap", "_scale", "_cap_key", "_blocks", "_weights", "_texts", "_memo")

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
        _check_exponent(exponent)
        self.p = p
        self.exponent = exponent
        self.modulus = modulus = Modulus(p, exponent)
        self.basis = tuple(basis)
        self.elements = {b.label: b for b in self.basis}
        if len(self.elements) != len(self.basis):
            raise ValueError("duplicate basis labels")
        pairs = []
        for b in self.basis:
            if b.weight < 0:
                raise ValueError(f"negative weight on {b.label}")
            pairs.append(weight_pair(p, b.weight))  # validates the denominator
        top = max((j for _, j in pairs), default=0)
        self._scale = scale = p ** top
        keys = {b.label: m * p ** (top - j) for b, (m, j) in zip(self.basis, pairs)}
        blocks: dict[tuple[int, int], list[str]] = {}
        for b in self.basis:
            blocks.setdefault((b.degree, keys[b.label]), []).append(b.label)
        self._blocks = {key: tuple(sorted(labels)) for key, labels in blocks.items()}
        self._weights: dict[int, list[int]] = {}
        for degree, key in self._blocks:
            self._weights.setdefault(degree, []).append(key)
        for weight_keys in self._weights.values():
            weight_keys.sort()
        self._texts = {key: self._weight_text(key) for _, key in self._blocks}  # reports print these
        self._memo: dict = {("modulus", exponent): modulus}
        if weight_cap is None:
            weight_cap = max((b.weight for b in self.basis), default=Fraction(0))
        self.weight_cap = weight_cap
        cap = Fraction(weight_cap)
        self._cap_key = cap.numerator * scale // cap.denominator  # key <= this iff weight <= cap
        if depth_cap is not None and depth_cap < 0:
            raise ValueError(f"depth cap must be >= 0, got {depth_cap}")
        self.depth_cap = depth_cap

        def clean(name: str, mapping: Mapping[str, Mapping[str, int]]):
            out: dict[str, dict[str, int]] = {}
            for src, row in mapping.items():
                if src not in self.elements:
                    raise ValueError(f"{name} defined on unknown label {src}")
                src_el = self.elements[src]
                expected = self._target(name, src_el.degree, keys[src])
                cleaned: dict[str, int] = {}
                for dst, coeff in row.items():
                    c = modulus.reduce(coeff)
                    if not c:
                        continue
                    if dst not in self.elements:
                        raise ValueError(f"{name}({src}) hits unknown label {dst}")
                    if (self.elements[dst].degree, keys[dst]) != expected:
                        raise ValueError(
                            f"{name}({src}) -> {dst} violates the grading: expected (degree, weight) = "
                            f"{self._target_weight(name, src_el.degree, src_el.weight)}"
                        )
                    cleaned[dst] = c
                out[src] = cleaned
            return out

        self.maps = {"d": clean("d", d), "F": clean("F", frobenius), "V": clean("V", verschiebung)}

    # -- structure queries --------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._weights)

    def block(self, degree: int, weight: Fraction) -> tuple[str, ...]:
        scaled = Fraction(weight) * self._scale
        if scaled.denominator != 1:
            return ()
        return self._labels(degree, scaled.numerator)

    def _weight_text(self, key: int) -> str:
        """`str(Fraction(key, scale))`, as reports print a weight, in lowest
        terms by one gcd rather than through a `Fraction`."""
        g = gcd(key, self._scale)
        return str(key // g) if g == self._scale else f"{key // g}/{self._scale // g}"

    def _labels(self, degree: int, key: Optional[int]) -> tuple[str, ...]:
        """The (degree, weight key) block; a key of None names no block."""
        return self._blocks.get((degree, key), ())

    def _target_weight(self, op: str, degree: int, weight: Fraction) -> tuple[int, Fraction]:
        """The (degree, weight) block that `op` maps the given block into."""
        if op == "d":
            return degree + 1, weight
        return degree, weight * self.p if op == "F" else weight / self.p

    def _target(self, op: str, degree: int, key: int) -> tuple[int, Optional[int]]:
        """The (degree, weight key) block that `op` maps the given block into;
        the key is None when that weight has a denominator beyond p^e, where
        no basis element lives."""
        if op == "d":
            return degree + 1, key
        if op == "F":
            return degree, key * self.p
        return degree, None if key % self.p else key // self.p

    def _kept(self, memo_key: tuple, build: Callable[..., object], *args,
              degree: Optional[int] = None, level: int = 0):
        """`build(*args)` under `memo_key` in the model's memo, built on first
        use; a hit is one lookup.  A value made for a degree and a level is
        kept only at level <= N when the degree or the one below it has blocks."""
        found = self._memo.get(memo_key, _UNKEPT)
        if found is _UNKEPT:
            found = build(*args)
            if degree is None or level <= self.exponent and (degree in self._weights or degree - 1 in self._weights):
                self._memo[memo_key] = found
        return found

    def _level(self, r: int) -> Modulus:
        """The modulus Z/p^r, built once per model (Z/p^N is `modulus`)."""
        return self._kept(("modulus", r), Modulus, self.p, r)

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

    def coords_to_vector(self, coords: Sequence[int], block: Sequence[str]) -> Vector:
        return {lbl: c for lbl, c in zip(block, coords) if c}

    def _table(self, op: str, degree: int, level: Optional[Modulus] = None) -> dict:
        """`op` on every block of a degree, by weight key: the block's
        coordinate columns in the basis of its target block, or with a level
        Z/p^r the matrix of those columns over it; None where `op` is
        undefined somewhere on the block.  Kept per (op, degree, level) under
        `_kept`'s rule, so a checker fetches a degree's blocks with one lookup:
        the maps are immutable, and each row is reduced and inside its target
        block (`__init__`)."""
        r = None if level is None else level.exponent
        return self._kept(("table", op, degree, r), DieudonneModel._build_table, self, op, degree, level,
                          degree=degree, level=r or 0)

    def _build_table(self, op: str, degree: int, level: Optional[Modulus]) -> dict:
        if level is not None:
            q = level.char
            return {key: None if cols is None else ModularMatrix._trusted_columns(
                        level, [tuple(x % q for x in c) for c in cols], len(cols[0]))
                    for key, cols in self._table(op, degree).items()}
        rows_of, table = self.maps[op], {}
        for key in self._weights.get(degree, ()):
            target = self._labels(*self._target(op, degree, key))
            rows = [rows_of.get(lbl) for lbl in self._labels(degree, key)]
            table[key] = None if None in rows else tuple(tuple(row.get(lbl, 0) for lbl in target) for row in rows)
        return table

    def op_matrix(self, op: str, degree: int, weight: Fraction) -> Optional[ModularMatrix]:
        """Matrix of an operator on the (degree, weight) block over Z/p^N,
        read from its degree's `_table`, or None if the operator is
        undefined somewhere on the block.

        The public entry by `Fraction` weight: `bench/tracing.py` and the
        tests resolve it by name.  Library code reads a degree's `_table`."""
        scaled = Fraction(weight) * self._scale
        if scaled.denominator == 1 and scaled.numerator in (table := self._table(op, degree, self.modulus)):
            return table[scaled.numerator]
        # no basis element has this weight: the matrix has no columns
        target = self.block(*self._target_weight(op, degree, weight))
        return ModularMatrix.from_columns(self.modulus, (), len(target))

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
            p = document_int(document_object(doc)["p"])
            exponent = document_int(doc["N"])
            check_prime(p)  # before the weights divide by its powers
            basis = [
                BasisElement(document_str(b["label"]), document_int(b["degree"]), weight_from_pair(p, b["weight"]))
                for b in document_list(doc["basis"])
            ]
            cap = weight_from_pair(p, doc["weight_cap"]) if "weight_cap" in doc else None
            depth = document_int(doc["depth_cap"]) if "depth_cap" in doc else None
            maps = [
                {src: {dst: document_int(c) for dst, c in document_object(row).items()}
                 for src, row in document_object(doc.get(op, {})).items()}
                for op in ("d", "F", "V")
            ]
        except (KeyError, TypeError, IndexError) as exc:
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
    beyond that, V is undefined rather than wrong.  Raises ValueError when
    N exceeds MAX_MODEL_EXPONENT or the basis would exceed MAX_A1_BASIS,
    before building anything.
    """
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    if exponent < 2:
        raise ValueError("coefficient exponent must be >= 2 for level-1 statements")
    _check_exponent(exponent)
    if depth is None:
        depth = exponent
    if depth < 0:
        raise ValueError(f"V-depth must be >= 0, got {depth}")
    modulus = Modulus(p, exponent)
    # the basis has 1 + 2 * wmax * p^depth elements; p^15 alone passes the cap
    if 1 + 2 * wmax * p ** min(depth, 15) > MAX_A1_BASIS:
        raise ValueError(
            f"A^1 model with p = {p}, wmax = {wmax}, V-depth {depth} exceeds the cap of "
            f"{MAX_A1_BASIS} basis elements"
        )

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

    # -- differential (total within the truncation) --
    d_map["1"] = {}
    for m, j in index[1:]:
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        d_map[u] = {e: m if j == 0 else 1}
        d_map[e] = {}

    # -- Frobenius: defined when the target weight p*w stays below wmax --
    def f_defined(m: int, j: int) -> bool:
        return wt(m, j) * p <= wmax

    f_map["1"] = {"1": 1}
    for m, j in index[1:]:
        if not f_defined(m, j):
            continue
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        if j == 0:
            f_map[u] = {_a1_label(0, p * m, 0): 1}
            f_map[e] = {_a1_label(1, p * m, 0): 1}
        elif j == 1:
            f_map[u] = {_a1_label(0, m, 0): p}
            f_map[e] = {_a1_label(1, m, 0): m}
        else:
            f_map[u] = {_a1_label(0, m, j - 1): p}
            f_map[e] = {_a1_label(1, m, j - 1): 1}

    # -- Verschiebung: defined when the target stays within the V-depth --
    v_map["1"] = {"1": p}
    for m, j in index[1:]:
        u = _a1_label(0, m, j)
        e = _a1_label(1, m, j)
        if j == 0 and m % p == 0:
            v_map[u] = {_a1_label(0, m // p, 0): p}
            v_map[e] = {_a1_label(1, m // p, 0): p}
            continue
        if j + 1 <= depth:
            v_map[u] = {_a1_label(0, m, j + 1): 1}
            if j == 0:
                v_map[e] = {_a1_label(1, m, 1): p * modulus.inverse(m)}
            else:
                v_map[e] = {_a1_label(1, m, j + 1): p}

    if any(lbl not in labels for row in (d_map, f_map, v_map) for tgt in row.values() for lbl in tgt):
        raise AssertionError("a1 model maps a basis label outside its basis (internal defect)")
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
    d_rows, f_rows, v_rows = model.maps["d"], model.maps["F"], model.maps["V"]

    def scaled(vec: Vector, k: int) -> Vector:
        return {lbl: (c * k) % q for lbl, c in vec.items() if (c * k) % q}

    def then(op: str, vec: Optional[Vector]) -> Optional[Vector]:
        return None if vec is None else model.apply(op, vec)

    p_residue = p % q  # 0 when N = 1
    for b in model.basis:
        lbl = b.label
        # d x, F x and V x of a basis label are its map rows: reduced, with no zero entries
        dx, fx, vx = d_rows.get(lbl), f_rows.get(lbl), v_rows.get(lbl)
        cases = (
            ("d_squared", then("d", dx), {}),
            ("dF_equals_pFd", then("d", fx), None if (fd := then("F", dx)) is None else scaled(fd, p)),
            ("FV_equals_p", then("F", vx), {lbl: p_residue} if p_residue else {}),
            ("FdV_equals_d", then("F", then("d", vx)), dx),
        )
        for name, lhs, rhs in cases:
            if lhs is None or rhs is None:
                report.inconclusive.append(
                    {"axiom": name, "element": lbl, "reason": "undefined within truncation"}
                )
                continue
            report.checked += 1
            if lhs != rhs:
                report.violations.append(
                    {
                        "axiom": name,
                        "element": lbl,
                        "lhs": _vec_json(lhs),
                        "rhs": _vec_json(rhs),
                    }
                )
    return report


def saturation_witness(model: DieudonneModel) -> CheckReport:
    """For every x in the truncation with dx = 0 mod p, solve x = F(y).

    Failures come with the witness x; when the candidate F-source block is
    beyond the truncation (depth cap) or F is not defined there, the case
    is flagged inconclusive instead.
    """
    report = CheckReport("saturation")
    p = model.p
    level_1 = model._level(1)
    texts = model._texts
    units: dict[tuple[int, int], list[tuple[int, ...]]] = {}  # scale * e_i by (block width, scale), for this call
    for degree in model.degrees():
        d_mod_p_of, f_cols_of = model._table("d", degree, level_1), model._table("F", degree)
        for key in model._weights[degree]:
            block = model._labels(degree, key)
            d_mod_p = d_mod_p_of[key]
            if d_mod_p is None:
                report.inconclusive.append({"degree": degree, "weight": texts[key], "reason": "d undefined on block"})
                continue
            # {x : dx = 0 mod p} is spanned by the kernel of d mod p and p e_i,
            # or by every e_i when d maps the block to an empty one
            shape = (len(block), p if d_mod_p.rows else 1)
            gens = units.get(shape) or units.setdefault(shape, _unit_vectors(*shape))
            if d_mod_p.rows:
                gens = kernel_basis(d_mod_p) + gens
            _, src = model._target("V", degree, key)
            if not model._labels(degree, src):
                depth = model.depth_cap
                # the F-source weight w / p = key / (scale * p) has denominator scale * p / gcd
                top = model._scale * p
                if depth is not None and top // gcd(key, top) > p ** depth:
                    if any(any(g) for g in gens):
                        report.inconclusive.append(
                            {
                                "degree": degree,
                                "weight": texts[key],
                                "reason": "F-source weight beyond depth truncation",
                            }
                        )
                    continue
            f_cols = f_cols_of.get(src, ())  # a key of None names no block
            if f_cols is None:
                report.inconclusive.append(
                    {"degree": degree, "weight": texts[key], "reason": "F undefined on the source block"}
                )
                continue
            f_image = SubmoduleBasis._trusted(model.modulus, len(block), list(map(list, f_cols)))
            for g in gens:
                if not any(g):
                    continue
                report.checked += 1
                if not f_image.contains(g):
                    report.violations.append(
                        {
                            "degree": degree,
                            "weight": texts[key],
                            "witness": _vec_json(model.coords_to_vector(g, block)),
                        }
                    )
    return report


# -- level-r quotients and cohomology ---------------------------------------


def _cokernel_factors(relations: SubmoduleBasis) -> tuple[int, ...]:
    """Invariant factor exponents of (Z/p^N)^ambient / relations, sorted
    descending, zeros dropped (a factor p^e contributes e).

    The Smith form runs on the rows of the Howell form the span already
    holds (Storjohann & Mulders, "Fast algorithms for linear algebra modulo
    N", 1998): they span the same module, so the factors are the same, and
    no transform is built.
    """
    modulus, ambient = relations.modulus, relations.ambient
    if ambient == 0:
        return ()
    if not relations.echelon:
        return tuple([modulus.exponent] * ambient)
    matrix = ModularMatrix._trusted(modulus, relations.echelon, ambient)
    exps = [modulus.valuation(d) for d in smith_normal_form(matrix)]
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


@dataclass(frozen=True)
class QuotientPresentation:
    """Presentation of a graded quotient (or subquotient), one block per weight.

    Immutable, because a model keeps the presentations it builds: `by_key`
    is a read-only mapping that holds the blocks under the model's integer
    weight keys (weight * scale) in ascending order.
    """

    degree: int
    modulus: Modulus
    scale: int
    by_key: Mapping[int, QuotientBlock]

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_key", MappingProxyType(dict(self.by_key)))

    def is_zero(self) -> bool:
        return not any(b.factors for b in self.by_key.values())

    def to_json(self) -> dict:
        p = self.modulus.p
        out = []
        for key in sorted(self.by_key):
            b = self.by_key[key]
            out.append(
                {
                    "weight": list(weight_pair(p, Fraction(key, self.scale))),
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

    return model._kept(("wr", degree, r), _build_wr, model, degree, r, degree=degree, level=r)


def _build_wr(model: DieudonneModel, degree: int, r: int) -> QuotientPresentation:
    blocks = {key: _wr_block(model, degree, key, r) for key in model._weights.get(degree, ())}
    return QuotientPresentation(degree, model.modulus, model._scale, blocks)


def _wr_block(model: DieudonneModel, degree: int, key: int, r: int) -> QuotientBlock:
    """W_r on the (degree, weight key) block: the span of (im V^r + im dV^r)
    there, its invariant factors, and completeness, False when truncation
    may hide relations.  The only place V^r / dV^r relation images are made,
    by `apply` label by label: an A^1 block is one label wide."""
    labels = model._labels(degree, key)
    source = key * model.p ** r
    complete = source <= model._cap_key
    chains = [(lbl, "V" * r) for lbl in model._labels(degree, source)]
    chains += [(lbl, "V" * r + "d") for lbl in model._labels(degree - 1, source)]
    vectors: list[tuple[int, ...]] = []
    for lbl, ops in chains:
        img: Optional[Vector] = {lbl: 1}
        for op in ops:
            img = model.apply(op, img)
            if img is None:
                complete = False
                break
        else:
            vectors.append(tuple(img.get(label, 0) for label in labels))
    relations = SubmoduleBasis(model.modulus, len(labels), vectors)
    return QuotientBlock(labels, relations, _cokernel_factors(relations), complete)


def _cohomology_block(modulus: Modulus, labels: tuple[str, ...], d_out: Optional[ModularMatrix],
                      boundaries: Optional[Sequence[Sequence[int]]]) -> Optional[QuotientBlock]:
    """H(M/p^r) on one weight block, presented on cycle generators, from the
    matrix of d out of the block over `modulus` = Z/p^r and the columns of d
    into it.  Returns None when d is undefined somewhere it is needed.

    In general the relations are the preimage of the boundaries B under
    the cycle generators, and the factors their cokernel's.  At either end
    of the complex the presentation has a closed form, with no second
    elimination:

    - no d-target (d_out has no rows): every vector is a cycle, so the
      generators are the unit vectors and the relations span(B);
    - no boundaries: H = Z, whose generators z_j from `kernel_basis` are
      the columns of an invertible transform scaled by p^(r - v_j), so
      sum x_j z_j = 0 exactly when p^(v_j) divides every x_j.  With
      g_j = gcd(p^r, z_j) = p^(r - v_j), the relations are the rows
      (p^r / g_j) e_j with g_j > 1 and the factors r - val(g_j).
    """
    if not labels:
        return QuotientBlock((), SubmoduleBasis(modulus, 0, []), (), True)
    if d_out is None or boundaries is None:
        return None
    width = len(labels)
    cycles = kernel_basis(d_out) if d_out.rows else _unit_vectors(width)
    if not cycles:
        return QuotientBlock(labels, SubmoduleBasis(modulus, 0, []), (), True)
    if any(any(d_out.apply(b)) for b in boundaries):
        # d of the lower block is not a cycle: d^2 fails mod p^r here.
        return None
    q = modulus.char
    if not d_out.rows:
        relations = SubmoduleBasis(modulus, width, boundaries)
    elif not any(x % q for b in boundaries for x in b):
        gcds = [gcd(q, *z) for z in cycles]
        n = len(cycles)
        relations = SubmoduleBasis._trusted(
            modulus, n, [[q // g if i == j else 0 for i in range(n)] for j, g in enumerate(gcds) if g > 1])
        factors = sorted((modulus.exponent - modulus.valuation(g) for g in gcds), reverse=True)
        return QuotientBlock(labels, relations, tuple(factors), True, tuple(cycles))
    else:
        span = SubmoduleBasis(modulus, width, boundaries)
        relations = SubmoduleBasis(modulus, len(cycles), _preimage_generators(modulus, cycles, width, span))
    return QuotientBlock(labels, relations, _cokernel_factors(relations), True, tuple(cycles))


def hn_mod_pr(model: DieudonneModel, degree: int, r: int) -> QuotientPresentation:
    """Cohomology H^degree(M/p^r) as a presentation, one block per weight."""
    if not 1 <= r <= model.exponent:
        raise ValueError(f"need 1 <= r <= N = {model.exponent}")

    return model._kept(("hn", degree, r), _build_hn, model, degree, r, degree=degree, level=r)


def _build_hn(model: DieudonneModel, degree: int, r: int) -> QuotientPresentation:
    modulus = model._level(r)
    d_out, d_in = model._table("d", degree, modulus), model._table("d", degree - 1)
    blocks: dict[int, QuotientBlock] = {}
    for key in sorted({*model._weights.get(degree, ()), *model._weights.get(degree - 1, ())}):
        labels = model._labels(degree, key)
        block = _cohomology_block(modulus, labels, d_out.get(key), d_in.get(key, ()))
        blocks[key] = block or QuotientBlock(labels, SubmoduleBasis(modulus, 0, []), (), False)
    return QuotientPresentation(degree, modulus, model._scale, blocks)


def compare_wr_with_cohomology(model: DieudonneModel, degree: int, r: int) -> CheckReport:
    """Rank and invariant-factor agreement of W_r M^n at weight w with
    H^n(M/p^r) at weight p^r w (the comparison map multiplies weight by p^r)."""
    report = CheckReport(f"wr_vs_cohomology(degree={degree}, r={r})")
    wr = wr_quotient(model, degree, r)
    hn = hn_mod_pr(model, degree, r)
    shift = model.p ** r
    texts = model._texts
    for key in sorted(wr.by_key):
        wr_block = wr.by_key[key]
        hn_key = key * shift
        if not wr_block.complete or hn_key > model._cap_key:
            report.inconclusive.append({"weight": texts[key], "reason": "truncation boundary"})
            continue
        hn_block = hn.by_key.get(hn_key)
        hn_factors = hn_block.factors if hn_block else ()
        if hn_block is not None and not hn_block.complete:
            report.inconclusive.append({"weight": texts[key], "reason": "cohomology undetermined (d undefined)"})
            continue
        report.checked += 1
        if tuple(wr_block.factors) != tuple(hn_factors):
            report.violations.append(
                {
                    "weight": texts[key],
                    "wr_factors": list(wr_block.factors),
                    "cohomology_weight": model._weight_text(hn_key),
                    "cohomology_factors": list(hn_factors),
                }
            )
    return report


# -- the section-2 checkers --------------------------------------------------


def _preimage_generators(modulus: Modulus, columns: Sequence[Sequence[int]], ambient: int,
                         target: SubmoduleBasis) -> list[tuple[int, ...]]:
    """Generators of {x : sum_j x_j columns[j] in span(target)} over `modulus`,
    for columns of residues mod `modulus` of length `ambient`.  With no rows
    (ambient 0) the map is zero and the preimage is everything."""
    n_src = len(columns)
    stacked = list(columns) + [tuple([(-x) % modulus.char for x in g]) for g in target.echelon]
    matrix = ModularMatrix._trusted_columns(modulus, stacked, ambient)
    return [x for k in kernel_basis(matrix) if any(x := k[:n_src])]


def _cancellation_scan(model: DieudonneModel, r: int, degrees, report: CheckReport) -> None:
    """Shared body of the F-cancellation style checks: per weight, pull the
    level-r relation span back through F and demand it lands in the
    source-side relation span.  Both spans come from the kept W_r
    presentation; a target weight with no block of its own is built, not kept."""
    p = model.p
    texts = model._texts
    for degree in degrees:
        wr = wr_quotient(model, degree, r).by_key
        f_cols_of = model._table("F", degree)
        for key, source in wr.items():
            target = wr.get(key * p)
            if target is None and source.complete:  # only a complete source reads it
                target = _wr_block(model, degree, key * p, r)
            if not (source.complete and target.complete):
                report.inconclusive.append({"degree": degree, "weight": texts[key], "reason": "truncation boundary"})
                continue
            f_cols = f_cols_of[key]
            if f_cols is None:
                report.inconclusive.append({"degree": degree, "weight": texts[key], "reason": "F undefined on block"})
                continue
            # an empty F-target block makes F zero, so the preimage is the whole block
            preimage = _preimage_generators(model.modulus, f_cols, len(target.labels), target.relations)
            for x in preimage:
                report.checked += 1
                if not source.relations.contains(x):
                    report.violations.append(
                        {
                            "degree": degree,
                            "weight": texts[key],
                            "witness": _vec_json(model.coords_to_vector(x, source.labels)),
                        }
                    )


def f_cancellation_check(model: DieudonneModel, r: int) -> CheckReport:
    """If F x lies in im V^r + im dV^r then so must x; report counterexamples.

    Works per weight block on the full preimage submodule F^{-1}(span),
    so the conclusion covers every element, not only basis vectors.
    Raises ValueError for r < 1, as `wr_quotient` does.
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
    levels = [hn_mod_pr(model, degree, r).by_key for r in range(1, rmax + 2)]  # levels[r - 1]: H(M/p^r)
    exactness = [_exactness_blocks(model, degree, r) for r in range(1, rmax + 1)]  # exactness[r - 1]
    texts = model._texts
    for key in sorted(levels[0]):
        blocks = [level.get(key) for level in levels]
        if any(b is None or not b.complete for b in blocks):
            report.inconclusive.append({"weight": texts[key], "reason": "d undefined on block"})
            continue
        report.checked += 1
        h1 = blocks[0]
        if not h1.factors:
            for r in range(2, rmax + 1):
                if blocks[r - 1].factors:
                    report.violations.append(
                        {
                            "weight": texts[key],
                            "kind": "vanishing_propagation",
                            "r": r,
                            "factors": list(blocks[r - 1].factors),
                        }
                    )
        for r in range(1, rmax + 1):
            h_top = blocks[r]
            if not h1.factors and not blocks[r - 1].factors and h_top.factors:
                report.violations.append(
                    {
                        "weight": texts[key],
                        "kind": "inductive_step",
                        "r": r,
                        "factors": list(h_top.factors),
                    }
                )
            if not h_top.generators:
                continue  # the middle is zero: exact
            failure = _les_exactness_failure(exactness[r - 1][key], h1, r)
            if failure is not None:
                report.violations.append({"weight": texts[key], "kind": "les_exactness", "r": r, "detail": failure})
    return report


class _ExactnessBlock(NamedTuple):
    """What the exactness test reads of one block of M/p^(r+1): the rows of
    d out of it and the boundaries, both reduced mod p^(r+1), and the
    kernel of reduction Z ∩ (B + p^r M) (`_reduction_kernel`)."""

    d_rows: tuple[tuple[int, ...], ...]
    boundaries: tuple[tuple[int, ...], ...]
    kernel: SubmoduleBasis


def _les_exactness_failure(block: _ExactnessBlock, h1: QuotientBlock, r: int) -> Optional[str]:
    """Exactness of H(M/p) --p^r--> H(M/p^(r+1)) --reduce--> H(M/p^r) at the
    middle, on one weight block whose H(M/p^(r+1)) has generators, compared
    in block coordinates.

    Write Z for the cycles and B for the boundaries of the block of
    M/p^(r+1), and L for p^r * (h1 generators), lifted.  The image of p^r
    is span(L + B) / B and the kernel of reduction is (Z ∩ (B + p^r M)) / B,
    so exactness is span(L + B) == Z ∩ (B + p^r M) once L lies in Z (the
    guard below) and B does (a complete block).  This is the
    middle-cohomology statement: the H(M/p^(r+1)) generators span Z, and two
    submodules of Z agree iff their pull-backs to those generators agree.
    Z ∩ (B + p^r M) is kept with the block (`_exactness_blocks`), so a call
    costs one Howell form.
    """
    d_rows, boundaries, kernel = block
    mod_top = kernel.modulus
    q, shift = mod_top.char, mod_top.p ** r
    lifted = [[shift * x % q for x in g] for g in h1.generators]
    if any(sum(map(mul, row, g)) % q for g in lifted for row in d_rows):
        return "multiplication-by-p^r image is not a cycle combination"
    image = SubmoduleBasis._trusted(mod_top, kernel.ambient, lifted + list(map(list, boundaries)))
    if image.echelon != kernel.echelon:  # one block, one level
        return "im(p^r) != ker(reduction) in the middle cohomology"
    return None


def _exactness_blocks(model: DieudonneModel, degree: int, r: int) -> dict[int, _ExactnessBlock]:
    """The `_ExactnessBlock` of each weight key of the degree whose
    H(M/p^(r+1)) block has generators, the blocks the propagation check
    tests; the others it never reads.  It depends on the model alone, so it
    is kept under `_kept`'s rule at level r + 1; raises ValueError for
    r + 1 > N, as `hn_mod_pr` does."""
    return model._kept(("exactness", degree, r), _build_exactness_blocks, model, degree, r,
                       degree=degree, level=r + 1)


def _build_exactness_blocks(model: DieudonneModel, degree: int, r: int) -> dict[int, _ExactnessBlock]:
    h_top = hn_mod_pr(model, degree, r + 1)
    mod_top = h_top.modulus
    q, shift = mod_top.char, model.p ** r
    d_top, d_in = model._table("d", degree, mod_top), model._table("d", degree - 1)
    blocks = {}
    for key, block in h_top.by_key.items():
        if block.generators:  # so d is defined on the block and the one below
            matrix = d_top[key]
            boundaries = tuple(tuple(x % q for x in c) for c in d_in.get(key, ()))
            blocks[key] = _ExactnessBlock(matrix.entries, boundaries, _reduction_kernel(matrix, boundaries, shift))
    return blocks


def _reduction_kernel(d_top: ModularMatrix, boundaries: Sequence[Sequence[int]], shift: int) -> SubmoduleBasis:
    """Z ∩ (B + p^r M) on one block of M/p^(r+1), for the matrix `d_top` of
    d out of the block over Z/p^(r+1), the boundary columns B and shift =
    p^r: the cycles that reduce to boundaries mod p^r, spanned by the
    combinations of the boundaries and p^r e_i that d kills.  With no
    d-target (no rows) d kills every vector, and Z ∩ (B + p^r M) is
    B + p^r M itself, spanned as it stands."""
    mod_top, ambient = d_top.modulus, d_top.cols
    spanning = list(boundaries) + _unit_vectors(ambient, shift)
    if not d_top.rows:
        return SubmoduleBasis(mod_top, ambient, spanning)
    images = [d_top.apply(v) for v in spanning]
    kernel = kernel_basis(ModularMatrix._trusted_columns(mod_top, images, d_top.rows))
    cycles = [[sum(c * v[i] for c, v in zip(k, spanning)) for i in range(ambient)] for k in kernel]
    return SubmoduleBasis(mod_top, ambient, cycles)
