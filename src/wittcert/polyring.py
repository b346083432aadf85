"""Sparse multivariate polynomials over F_p.

Polynomials are dictionaries from exponent tuples to nonzero residues.
The term-dict kernel (`terms_add`, `terms_mul`, `terms_scale`) works on
such dictionaries with plain integer coefficients; `Polynomial` arithmetic
runs on it, and the universal Witt tables build their ghost targets with it.

One Groebner loop has two entries: `buchberger(ideal)` starts it from
nothing, with the generators as its inputs, and `extend(ideal, polys)`
starts it from the reduced grevlex basis `ideal` caches, forming no pair
between two of its elements, so I + (polys) pays only for the pairs the
polys bring.  No Groebner step rescans a polynomial to find its leading term:

- each input enters as its normal form modulo the elements already in
  the loop: one that reduces to 0 adds nothing, one that reduces to a
  nonzero constant ends the loop with the unit ideal;
- the loop keeps its S-pairs in a heap, each keyed once by
  (sugar, lcm degree, lcm, i, j), so pairs are taken in that order (the
  sugar strategy of Giovini, Mora, Niesi, Robbiano & Traverso, "One
  sugar cube, please", 1991);
- new pairs pass the Gebauer-Moller update (Gebauer & Moeller, "On an
  installation of Buchberger's algorithm", 1988): the product criterion,
  the M and F criteria on new pairs, the B criterion on old pairs, and an
  active set of elements that new pairs may use;
- division sends a monomial that no leading monomial divides straight
  to the remainder and pops the others from a min-heap on
  `TermOrder.heap_key`, one key computed per monomial pushed (after Yan,
  "The geobucket data structure for polynomials", 1998); a key reads the
  exponent tuple as it is, since every order ranks the variables as the
  ring lists them, and `eliminate` reorders the ring's variables instead;
- the result is reduced in one pass: the active elements are the minimal
  ones, and each tail is reduced once against the others, which is exact
  for a Groebner basis;
- a cached basis carries its reducers (leading monomial, monic tail),
  built once, and only the loop attaches one (`Ideal._built`): the
  elimination results are the loop's basis, re-read in the kept
  variables.

Everything is deterministic and reduced bases are unique, so they serve
as golden values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .modarith import INT_DIGITS, check_prime, document_int, document_list, document_object, document_str

# a variable name: the one token the parser reads as a name
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class PolyRing:
    """Descriptor of F_p[x_1..x_n]."""

    p: int
    names: tuple[str, ...]
    nvars: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_prime(self.p)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:  # so that every printed polynomial parses back
            if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                raise ValueError(f"variable name {name!r} is not a name the parser reads ({_NAME})")
        object.__setattr__(self, "nvars", len(self.names))

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: 1})


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: lex, grevlex, or a two-block elimination order.

    Variables rank as the ring lists them, x_0 most significant.  A block
    order's first `split` variables form the eliminated block; blocks are
    compared by grevlex, first block first.
    """

    kind: str
    split: int = 0
    heap_key: Callable[[tuple[int, ...]], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    key: Callable[[tuple[int, ...]], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Builds `heap_key` and `key` once for the kind, so no call branches on it.

        `heap_key` is the min-heap key: smaller key = bigger monomial.  It is
        the one encoding of the orders, a flat tuple of ints: lex compares
        the negated exponents; grevlex compares the negated total degree,
        then the exponents from the last variable on, the smaller the
        bigger; a block order does grevlex on each block in turn, which
        compares correctly because each block has a fixed length.  `key` is
        the sort key, `heap_key` negated: bigger key = bigger monomial.
        """
        split = self.split
        if self.kind == "lex":
            def heap_key(exp: tuple[int, ...]) -> tuple[int, ...]:
                return tuple([-x for x in exp])
        elif self.kind == "grevlex":
            def heap_key(exp: tuple[int, ...]) -> tuple[int, ...]:
                return (-sum(exp), *exp[::-1])
        elif self.kind == "block":
            def heap_key(exp: tuple[int, ...]) -> tuple[int, ...]:
                head, tail = exp[:split], exp[split:]
                return (-sum(head), *head[::-1], -sum(tail), *tail[::-1])
        else:
            raise ValueError(f"unknown order kind {self.kind!r}")

        def key(exp: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([-x for x in heap_key(exp)])

        object.__setattr__(self, "heap_key", heap_key)
        object.__setattr__(self, "key", key)


LEX = TermOrder("lex")
GREVLEX = TermOrder("grevlex")


def _exp_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def _exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _exp_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, a, b))


def _exp_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


# -- term-dict kernel: {exponent tuple: int}, no zero coefficients ---------


def terms_add(a: Mapping, b: Mapping) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def terms_mul(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def terms_scale(a: Mapping, k: int) -> dict:
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients are stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], int]):
        self.ring = ring
        p = ring.p
        clean: dict[tuple[int, ...], int] = {}
        for exp, c in terms.items():
            if len(exp) != ring.nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            c %= p
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: Mapping[tuple[int, ...], int]) -> "Polynomial":
        """A polynomial from kernel output, whose exponent tuples are valid
        for `ring` by construction: they are not checked again, but the
        coefficients are still reduced mod p and zeros dropped."""
        poly = cls.__new__(cls)
        poly.ring = ring
        p = ring.p
        poly.terms = {e: v for e, c in terms.items() if (v := c % p)}
        return poly

    @classmethod
    def _reduced(cls, ring: PolyRing, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """`_trusted` for a fresh term dict whose coefficients are in [1, p)
        already, as a remainder of `_reduce_terms` is: it becomes the
        polynomial's own terms, with no pass over them."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = (0,) * self.ring.nvars
        return not self.terms or (len(self.terms) == 1 and zero in self.terms)

    def constant_value(self) -> int:
        zero = (0,) * self.ring.nvars
        return self.terms.get(zero, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def leading(self, order: TermOrder) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lm = min(self.terms, key=order.heap_key)
        return lm, self.terms[lm]

    def sorted_terms(self, order: TermOrder) -> list[tuple[tuple[int, ...], int]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=order.heap_key)]

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._trusted(self.ring, terms_add(self.terms, other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._trusted(self.ring, terms_mul(self.terms, other.terms))

    def scale(self, c: int) -> "Polynomial":
        return Polynomial._trusted(self.ring, terms_scale(self.terms, c))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables (indices absent stay themselves)."""
        ring = None
        for img in images.values():
            ring = img.ring
            break
        target = ring if ring is not None else self.ring
        out = Polynomial(target, {})
        for exp, c in self.terms.items():
            term = Polynomial(target, {(0,) * target.nvars: c})
            for i, e in enumerate(exp):
                if not e:
                    continue
                base = images.get(i)
                if base is None:
                    base = target.variable(i)
                term = term * base ** e
            out = out + term
        return out

    # -- characteristic-p specials ----------------------------------------

    def partial(self, i: int) -> "Polynomial":
        if not 0 <= i < self.ring.nvars:
            raise IndexError(f"variable index {i} out of range")
        # lowering exponent i is one-to-one on the terms it keeps
        p = self.ring.p
        return Polynomial._reduced(self.ring, {
            exp[:i] + (k - 1,) + exp[i + 1:]: v for exp, c in self.terms.items() if (k := exp[i]) and (v := c * k % p)
        })

    def pth_root(self) -> Optional["Polynomial"]:
        """h with h^p == self, if every exponent is divisible by p; else None.

        Coefficients are fixed points of x -> x^p over F_p.
        """
        p = self.ring.p
        out = {}
        for exp, c in self.terms.items():
            if any(e % p for e in exp):
                return None
            out[tuple(e // p for e in exp)] = c
        return Polynomial._reduced(self.ring, out)

    def frobenius_power(self) -> "Polynomial":
        """self^p computed termwise (freshman's dream in characteristic p);
        the terms keep their coefficients and stay distinct."""
        p = self.ring.p
        return Polynomial._reduced(self.ring, {tuple(e * p for e in exp): c for exp, c in self.terms.items()})

    # -- presentation ------------------------------------------------------

    def to_text(self, order: TermOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms(order):
            factors = []
            if c != 1 or not any(exp):
                factors.append(str(c))
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self.ring.names[i])
                elif e > 1:
                    factors.append(f"{self.ring.names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "vars": list(self.ring.names),
            "p": self.ring.p,
            "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms(GREVLEX)],
        }

    def __repr__(self) -> str:
        return self.to_text()


def poly_from_json(doc: Mapping, ring: PolyRing) -> Polynomial:
    """The polynomial of `doc["terms"]` in `ring`; "vars" and "p" are not read.

    One pass reads each term and keeps its coefficient as a residue; an
    exponent tuple is checked when it first appears, but reported only
    after every integer of the document has been read, as the checked
    constructor would report it."""
    n, p = ring.nvars, ring.p
    terms: dict[tuple[int, ...], int] = {}
    bad = None
    for t in document_list(doc["terms"]):
        exp = tuple(map(document_int, t["exp"]))
        c = document_int(t["coef"])
        if exp in terms:
            terms[exp] = (terms[exp] + c) % p
        else:
            if bad is None and (len(exp) != n or (exp and min(exp) < 0)):
                bad = exp
            terms[exp] = c % p
    if bad is not None:
        raise ValueError(f"bad exponent tuple {bad}")
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    return Polynomial._reduced(ring, terms)


_TOKEN = re.compile(rf"\s*(?:(\d+)|({_NAME})|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the textual grammar: integer coefficients, named variables,
    `^` for powers, `*` optional (juxtaposition multiplies)."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos)
        kinds = ("int", "name", "pow", "mul", "plus", "minus", "open", "close")
        for g, kind in enumerate(kinds, start=1):
            if m.group(g) is not None:
                tokens.append((kind, m.group(g), m.start(g)))
                break
        pos = m.end()
    index = {name: i for i, name in enumerate(ring.names)}
    cursor = 0

    def peek() -> Optional[str]:
        return tokens[cursor][0] if cursor < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    def literal(value: str, where: int) -> int:
        if len(value) > INT_DIGITS:
            raise PolyParseError(f"integer literal of {len(value)} digits is too long", where)
        return int(value)

    def parse_expr() -> Polynomial:
        sign = 1
        while peek() in ("plus", "minus"):
            if take()[0] == "minus":
                sign = -sign
        result = parse_term().scale(sign)
        while peek() in ("plus", "minus"):
            sign = 1
            while peek() in ("plus", "minus"):
                if take()[0] == "minus":
                    sign = -sign
            result = result + parse_term().scale(sign)
        return result

    def parse_term() -> Polynomial:
        result = parse_factor()
        while True:
            nxt = peek()
            if nxt == "mul":
                take()
                result = result * parse_factor()
            elif nxt in ("int", "name", "open"):
                result = result * parse_factor()
            else:
                return result

    def parse_factor() -> Polynomial:
        base = parse_base()
        if peek() == "pow":
            take()
            if peek() != "int":
                where = tokens[cursor][2] if cursor < len(tokens) else len(text)
                raise PolyParseError("expected integer exponent after '^'", where)
            _, value, where = take()
            base = base ** literal(value, where)
        return base

    def parse_base() -> Polynomial:
        if cursor >= len(tokens):
            raise PolyParseError("unexpected end of input", len(text))
        kind, value, where = take()
        if kind == "int":
            return ring.constant(literal(value, where))
        if kind == "name":
            if value not in index:
                raise PolyParseError(f"unknown variable {value!r}", where)
            return ring.variable(index[value])
        if kind == "open":
            inner = parse_expr()
            if peek() != "close":
                raise PolyParseError("unbalanced parenthesis", where)
            take()
            return inner
        raise PolyParseError(f"unexpected token {value!r}", where)

    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    result = parse_expr()
    if cursor != len(tokens):
        raise PolyParseError(f"trailing input {tokens[cursor][1]!r}", tokens[cursor][2])
    return result


# -- division and Groebner bases -----------------------------------------


def _reducer(g: Polynomial, order: TermOrder, p: int) -> tuple:
    """(leading monomial, tail terms of g divided by its leading coefficient)."""
    lm, lc = g.leading(order)
    inv = pow(lc, -1, p)
    return lm, [(e, c * inv % p) for e, c in g.terms.items() if e != lm]


def _reduce_terms(terms: Mapping, reducers: Sequence[tuple], order: TermOrder, p: int) -> dict:
    """Remainder of the term dict `terms` on division by the (leading
    monomial, monic tail) `reducers`, with coefficients in [1, p) whatever
    integers `terms` holds.

    A monomial that no leading monomial divides goes straight to the
    remainder, whose terms come in no particular order.  The others come
    off a min-heap on `order.heap_key`, each with the first reducer whose
    leading monomial divides it.  `pending` holds the monomials of the
    heap: a term that cancels stays there as 0 until it is popped, so no
    monomial is pushed twice.  A tail times the quotient is smaller than
    the monomial popped, so nothing popped comes back.  A popped
    coefficient is its quotient's coefficient, since the divisor is monic.
    """
    if not reducers:
        return {e: v for e, c in terms.items() if (v := c % p)}
    heap_key = order.heap_key

    def divisor(e: tuple[int, ...]) -> Optional[tuple]:
        for g in reducers:
            if all(map(le, g[0], e)):
                return g
        return None

    pending = {}
    heap = []
    remainder = {}
    for e, c in terms.items():
        c %= p
        if c:
            g = divisor(e)
            if g is None:
                remainder[e] = c
            else:
                pending[e] = c
                heap.append((heap_key(e), e, g))
    heapify(heap)
    while heap:
        _, lm, (glm, tail) = heappop(heap)
        qc = pending.pop(lm)
        if not qc:
            continue
        q = tuple(map(sub, lm, glm))
        for e, c in tail:
            te = tuple(map(add, e, q))
            if te in pending:
                pending[te] = (pending[te] - qc * c) % p
            elif te in remainder:
                v = (remainder[te] - qc * c) % p
                if v:
                    remainder[te] = v
                else:
                    del remainder[te]
            else:
                g = divisor(te)
                if g is None:
                    remainder[te] = -qc * c % p
                else:
                    pending[te] = -qc * c % p
                    heappush(heap, (heap_key(te), te, g))
    return remainder


@dataclass(frozen=True)
class Ideal:
    """Ideal with an optional cached reduced Groebner basis.

    The constructor takes the ring and the generators only.  The cache is
    attached by `_built` alone, with the basis the Groebner loop
    (`buchberger`, `extend`, and the eliminations built on it) made: an
    explicit call, never a lazy side effect; `normal_form` requires it.
    A cached basis carries its reducers, one (leading monomial, monic
    tail) per element, built once with the cache.  An ideal with a grevlex
    cache also keeps I + (partials of its generators) once made, written
    by `extend_by_partials` alone.
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    basis: Optional[tuple[Polynomial, ...]] = field(default=None, init=False)
    basis_order: Optional[TermOrder] = field(default=None, init=False)
    reducers: tuple = field(default=(), init=False, repr=False, compare=False)
    _by_partials: Optional["Ideal"] = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_polys(ring: PolyRing, gens: Iterable[Polynomial]) -> "Ideal":
        cleaned = []
        for g in gens:
            if g.terms:
                if g.ring is not ring and g.ring != ring:
                    raise ValueError("generator from wrong ring")
                cleaned.append(g)
        return Ideal(ring, tuple(cleaned))

    @staticmethod
    def from_json(doc: Mapping) -> "Ideal":
        """The ideal a ring document states: its generators, no Groebner
        basis.  Raises ValueError (or PolyParseError) on a malformed document."""
        try:
            doc = document_object(doc)
            ring = PolyRing(document_int(doc["p"]), tuple(map(document_str, document_list(doc["vars"]))))
            gens = [parse_polynomial(g, ring) if isinstance(g, str) else poly_from_json(document_object(g), ring)
                    for g in document_list(doc.get("generators", []))]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ring document ({type(exc).__name__}: {exc})") from exc
        return Ideal.from_polys(ring, gens)

    def to_json(self) -> dict:
        gens = [g.to_json() for g in self.generators]
        return {"p": self.ring.p, "vars": list(self.ring.names), "generators": gens}

    @staticmethod
    def _built(ring: PolyRing, generators: tuple[Polynomial, ...], reducers: tuple, order: TermOrder,
               basis: Optional[tuple[Polynomial, ...]] = None) -> "Ideal":
        """The ideal of `generators` with the reduced basis whose (leading
        monomial, monic tail) reducers the Groebner loop made, in the style
        of `Polynomial._reduced`: the basis is read off the reducers unless
        given, each row wrapped as it is since its coefficients are residues
        already, and their leading terms are not derived again.  The only
        writer of `basis`, `basis_order` and `reducers`: the loop's own
        output is not checked again."""
        if basis is None:
            basis = tuple(Polynomial._reduced(ring, {**dict(tail), lm: 1}) for lm, tail in reducers)
        ideal = Ideal(ring, generators)
        object.__setattr__(ideal, "basis", basis)
        object.__setattr__(ideal, "basis_order", order)
        object.__setattr__(ideal, "reducers", reducers)
        return ideal

    def stated_by_basis(self) -> "Ideal":
        """This ideal with its cached basis as its generators, sharing the
        cache and its reducers: the basis generates the ideal, so nothing
        needs checking or deriving again."""
        if self.basis is None:
            raise ValueError("Groebner cache required; call buchberger first")
        return Ideal._built(self.ring, self.basis, self.reducers, self.basis_order, self.basis)

    def contains_one(self) -> bool:
        if self.basis is None:
            raise ValueError("Groebner cache required; call buchberger first")
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()


def _groebner(start: Sequence[tuple], inputs: Iterable[Polynomial], order: TermOrder, p: int) -> tuple:
    """The reduced Groebner basis of (start) + (inputs) for `order`, as
    (leading monomial, monic tail) reducers, smallest leading monomial
    first: Buchberger with the Gebauer-Moller update.

    `start` holds the reducers of a reduced basis for `order`, or nothing.
    Its elements form no pair with each other, since every such
    S-polynomial already reduces to zero; new pairs may use them all.  The
    inputs enter by total degree, lowest first, each as its normal form
    modulo the elements already in the loop: one that reduces to 0 adds no
    element and no pair, one that reduces to a nonzero constant ends the
    loop with the unit ideal.  So no element's leading monomial is a
    multiple of an earlier one's, and the active elements at the end are
    the minimal ones.

    Pairs come off a heap in order of (sugar, lcm degree, lcm, i, j): the
    sugar of an element is its total degree when it enters, of a pair the
    larger of sugar_i + deg u_i and sugar_j + deg u_j (u the cofactors to
    the lcm), and of an element from a pair the larger of its pair's and
    its own total degree.
    """
    heap_key, key = order.heap_key, order.key
    # Every element added stays a reducer, in the order added: dividing by
    # the active ones only lets later, longer elements do the work of the
    # short ones they retired, which made intermediate polynomials of
    # thousands of terms on plane cubics.  Only new pairs are limited to
    # the active set.
    leads: list[tuple[int, ...]] = [lm for lm, _ in start]  # of every element added, by index
    reducers: list[tuple] = list(start)  # (lead, monic tail) of every element
    sugars: list[int] = [max([sum(lm), *(sum(e) for e, _ in tail)]) for lm, tail in start]  # of every element, by index
    active: list[int] = list(range(len(leads)))  # the elements new pairs may use
    pairs: list[tuple] = []  # heap of (sugar, lcm degree, lcm key, i, j, lcm)
    started = len(leads)
    if started and not any(leads[0]):
        return tuple(reducers)  # the unit ideal: no input changes it

    def update(terms: Mapping[tuple[int, ...], int], lm: tuple[int, ...], sugar: int) -> None:
        """Add the element (made monic) and apply the Gebauer-Moller update."""
        inv = pow(terms[lm], -1, p)
        h = len(leads)
        leads.append(lm)
        sugars.append(sugar)
        reducers.append((lm, [(e, c * inv % p) for e, c in terms.items() if e != lm]))
        if not active:
            active.append(h)
            return
        new = [(k, _exp_lcm(leads[k], lm)) for k in active]
        # Criteria M and F (Becker & Weispfenning's UPDATE): a new pair goes
        # when the lcm of a later or kept new pair divides its lcm, so of
        # equal lcms the last stays.  Coprime pairs are kept as witnesses,
        # then dropped by the product criterion.
        kept = []
        for n, (k, lcm) in enumerate(new):
            coprime = lcm == _exp_mul(leads[k], lm)
            if coprime or not (
                any(_exp_divides(m, lcm) for _, m in new[n + 1:])
                or any(_exp_divides(m, lcm) for _, m, _ in kept)
            ):
                kept.append((k, lcm, coprime))
        # Criterion B: an old pair goes when lm divides its lcm and the lcm
        # differs from the lcms of both of its elements with lm.
        if pairs:
            pairs[:] = [
                pair for pair in pairs
                if not _exp_divides(lm, pair[5])
                or _exp_lcm(leads[pair[3]], lm) == pair[5]
                or _exp_lcm(leads[pair[4]], lm) == pair[5]
            ]
        degree = sum(lm)
        for k, lcm, coprime in kept:
            if not coprime:
                d = sum(lcm)
                pair_sugar = max(sugars[k] + d - sum(leads[k]), sugar + d - degree)
                pairs.append((pair_sugar, d, key(lcm), k, h, lcm))
        heapify(pairs)
        active[:] = [k for k in active if not _exp_divides(lm, leads[k])]
        active.append(h)

    for f in sorted(inputs, key=Polynomial.total_degree):
        r = _reduce_terms(f.terms, reducers, order, p)
        if r:
            lm = min(r, key=heap_key)
            if not any(lm):
                return ((lm, []),)
            update(r, lm, max(f.total_degree(), *map(sum, r)))
    while pairs:
        pair_sugar, _, _, i, j, lcm = heappop(pairs)
        ui, uj = _exp_div(lcm, leads[i]), _exp_div(lcm, leads[j])
        s = {_exp_mul(e, ui): c for e, c in reducers[i][1]}
        for e, c in reducers[j][1]:
            te = _exp_mul(e, uj)
            s[te] = (s.get(te, 0) - c) % p
        r = _reduce_terms(s, reducers, order, p)
        if not r:
            continue
        lm = min(r, key=heap_key)
        if not any(lm):
            return ((lm, []),)
        update(r, lm, max(pair_sugar, *map(sum, r)))
    if len(leads) == started:
        return tuple(reducers)
    # Reduce in one pass: tail-reduce each active element against the
    # others, which leaves the lead alone and is exact for a Groebner basis.
    # A tail entered as a normal form modulo every element before it, so
    # the last element added needs no pass.
    last = len(leads) - 1
    basis = []
    for k in sorted(active, key=lambda k: key(leads[k])):  # no tail's reduced form depends on this order
        tail = reducers[k][1]
        if tail and k != last:
            tail = list(_reduce_terms(dict(tail), [reducers[m] for m in active if m != k], order, p).items())
        basis.append((leads[k], tail))
    return tuple(basis)


def buchberger(ideal: Ideal, order: TermOrder = GREVLEX) -> Ideal:
    """The reduced Groebner basis of `ideal` for `order`: the Groebner loop
    started from nothing, with the generators as its inputs.

    Returns `ideal` itself when it already caches a basis for `order`.
    The reduced basis is unique for a fixed order, so rerunning or
    permuting the generators reproduces the identical cache.
    """
    if ideal.basis is not None and ideal.basis_order == order:
        return ideal
    ring = ideal.ring
    return Ideal._built(ring, ideal.generators, _groebner((), ideal.generators, order, ring.p), order)


def extend(ideal: Ideal, polys: Iterable[Polynomial]) -> Ideal:
    """I + (polys) with its reduced grevlex basis; its generators are those
    of `ideal`, then the nonzero polys.

    The Groebner loop starts from the grevlex basis `ideal` caches and
    takes the polys as its inputs.  A cache in another order is not used:
    the loop then starts from nothing, as `buchberger` does.
    """
    ring = ideal.ring
    added = Ideal.from_polys(ring, polys).generators
    if ideal.basis is not None and ideal.basis_order == GREVLEX:
        start, inputs = ideal.reducers, added
    else:
        start, inputs = (), ideal.generators + added
    return Ideal._built(ring, ideal.generators + added, _groebner(start, inputs, GREVLEX, ring.p), GREVLEX)


def extend_by_partials(ideal: Ideal) -> Ideal:
    """I + (the partials of its generators) with its reduced grevlex basis,
    stated by the generators of I, then their nonzero partials, as
    `extend` states it.  The partial of any member q f of I is q df + f dq,
    in this ideal, so the partials of any generating set give it.

    Kept on an ideal with a grevlex cache, written here alone, so every
    reader of one ideal shares one Groebner loop.  A unit ideal is its own
    extension: no partial is taken and no loop runs.
    """
    kept = ideal._by_partials
    if kept is not None:
        return kept
    if ideal.basis is not None and ideal.contains_one():
        return ideal
    nvars = ideal.ring.nvars
    extended = extend(ideal, [f.partial(i) for f in ideal.generators for i in range(nvars)])
    if ideal.basis_order == GREVLEX:
        object.__setattr__(ideal, "_by_partials", extended)
    return extended


def normal_form(f: Polynomial, ideal: Ideal) -> Polynomial:
    """Unique remainder of f modulo the cached reduced basis; 0 iff f is a member."""
    if ideal.basis is None:
        raise ValueError("Groebner cache required; call buchberger first")
    if not (ideal.basis and f.terms):
        return f
    remainder = _reduce_terms(f.terms, ideal.reducers, ideal.basis_order, f.ring.p)
    return Polynomial._reduced(f.ring, remainder)


def normal_product(a: Mapping, b: Mapping, ideal: Ideal) -> dict:
    """The normal form of a * b modulo the cached reduced basis, for term
    dicts a and b, as a term dict with coefficients in [1, p): the one
    product of presented coordinates, kept as term dicts between steps."""
    if ideal.basis is None:
        raise ValueError("Groebner cache required; call buchberger first")
    return _reduce_terms(terms_mul(a, b), ideal.reducers, ideal.basis_order, ideal.ring.p)


def _eliminated_terms(ideal: Ideal, keep: Iterable[int]) -> list[dict]:
    """The reduced grevlex basis of I ∩ k[keep], each element as its terms
    keyed by the exponents of the kept variables alone, in ring order.

    With the variables reordered once, the eliminated ones first, it is the
    part of the block-order basis whose leading block is zero: on k[keep]
    every eliminated exponent is 0, so the block order compares as grevlex
    does."""
    ring = ideal.ring
    keep_set = frozenset(keep)
    drop = [i for i in range(ring.nvars) if i not in keep_set]
    perm = drop + [i for i in range(ring.nvars) if i in keep_set]
    moved = PolyRing(ring.p, tuple(ring.names[i] for i in perm))
    gens = [Polynomial._trusted(moved, {tuple([e[i] for i in perm]): c for e, c in g.terms.items()})
            for g in ideal.generators]
    gb = buchberger(Ideal.from_polys(moved, gens), TermOrder("block", len(drop)))
    d = len(drop)
    return [{e[d:]: c for e, c in g.terms.items()} for (lm, _), g in zip(gb.reducers, gb.basis) if not any(lm[:d])]


def eliminate(ideal: Ideal, keep: Iterable[int]) -> Ideal:
    """I ∩ k[keep], with its reduced grevlex basis."""
    ring = ideal.ring
    keep = sorted(frozenset(keep))
    blank = [0] * ring.nvars

    def widened(e: tuple[int, ...]) -> tuple[int, ...]:
        full = blank.copy()
        for i, x in zip(keep, e):
            full[i] = x
        return tuple(full)

    kept = tuple(Polynomial._trusted(ring, {widened(e): c for e, c in terms.items()})
                 for terms in _eliminated_terms(ideal, keep))
    return Ideal._built(ring, kept, tuple(_reducer(g, GREVLEX, ring.p) for g in kept), GREVLEX, kept)


def graph_kernel(ideal: Ideal, images: Sequence[Polynomial], target: PolyRing) -> Ideal:
    """Kernel of target -> ring/I, t_i -> images[i], with its reduced basis.

    Computed on the graph: in k[x, t] eliminate x from I + (t_i - images[i]);
    the t-variables keep their order, so the kept basis, read on the
    t-variables alone, is the reduced grevlex basis in `target`.  The
    widened ring's variable names are only made distinct; term orders use
    indices, so they change nothing.
    """
    ring = ideal.ring
    n = ring.nvars
    taken = set(ring.names)
    tnames = []
    for name in target.names:
        while name in taken:
            name = "_" + name
        taken.add(name)
        tnames.append(name)
    big = PolyRing(ring.p, ring.names + tuple(tnames))
    pad = (0,) * target.nvars

    def widen(f: Polynomial) -> Polynomial:
        return Polynomial(big, {exp + pad: c for exp, c in f.terms.items()})

    gens = [widen(g) for g in ideal.generators]
    gens += [big.variable(n + i) - widen(g) for i, g in enumerate(images)]
    kept = _eliminated_terms(Ideal.from_polys(big, gens), range(n, n + target.nvars))
    out = tuple(Polynomial._trusted(target, terms) for terms in kept)
    return Ideal._built(target, out, tuple(_reducer(g, GREVLEX, target.p) for g in out), GREVLEX, out)


def basis_pth_root(ideal: Ideal) -> Optional[Ideal]:
    """{g : g^p ∈ I} read off the cached reduced grevlex basis of I, when
    every basis element is a p-th power; None when one is not.

    Over F_p, g^p = g(x_1^p..x_n^p).  For f with f^p ∈ I, the leading
    monomial lm(f)^p is a multiple of some lm(b) = lm(h)^p with b = h^p in
    the basis, so lm(h) divides lm(f): the roots h generate the root ideal
    and, since m -> m^p keeps grevlex order and divisibility, form its
    reduced grevlex basis, in the order of I's.  The result states that
    basis as its generators, as `pth_root_ideal` does, and keeps reducers
    read off I's, with every exponent divided by p."""
    if ideal.basis_order != GREVLEX:
        raise ValueError("grevlex Groebner cache required; call buchberger first")
    ring = ideal.ring
    p = ring.p
    reducers = []
    for lm, tail in ideal.reducers:
        if any(e % p for e in lm) or any(x % p for e, _ in tail for x in e):
            return None
        root_tail = [(tuple([x // p for x in e]), c) for e, c in tail]
        reducers.append((tuple([e // p for e in lm]), root_tail))
    basis = tuple(Polynomial._reduced(ring, {**dict(tail), lm: 1}) for lm, tail in reducers)
    return Ideal._built(ring, basis, tuple(reducers), GREVLEX, basis)


def reduces_to_zero(f: Polynomial, divisors: Sequence[Polynomial]) -> bool:
    """Whether dividing f by `divisors` (grevlex, the first divisor whose
    leading monomial divides a term doing the step) leaves no remainder.

    Then f = Σ q_i d_i, so f lies in the ideal the divisors generate, with
    no Groebner basis computed; a nonzero remainder proves nothing unless
    the divisors form a Groebner basis."""
    p = f.ring.p
    return not _reduce_terms(f.terms, [_reducer(g, GREVLEX, p) for g in divisors], GREVLEX, p)


def pth_root_ideal(ideal: Ideal) -> Ideal:
    """{g : g^p ∈ I}, the kernel of x_i -> x_i^p into k[x]/I.

    Over F_p, g(x)^p = g(x_1^p..x_n^p), so this is the graph kernel of the
    Frobenius images.
    """
    ring = ideal.ring
    if not ideal.generators:
        return buchberger(Ideal.from_polys(ring, ()))
    return graph_kernel(ideal, [ring.variable(i) ** ring.p for i in range(ring.nvars)], ring)


def krull_dim(ideal: Ideal) -> int:
    """Krull dimension of k[x]/I: n minus the least number of variables
    that meet the support of every leading monomial of a Groebner basis,
    for any order, so a cached basis serves as it is.  Unit ideal: -1.

    The variables left out of such a cover are a largest set independent
    modulo the leading-term ideal.  One variable of a smallest support is
    in every cover, so the search branches on those: a breadth-first
    search over the sets of supports left, each set taken once, whose
    first level holding the empty set is the least cover size.  Supports
    that share no variable take one level each, with one set on it.
    """
    n = ideal.ring.nvars
    gb = ideal if ideal.basis is not None else buchberger(ideal)
    if gb.contains_one():
        return -1
    supports = frozenset({sum(1 << i for i, e in enumerate(lm) if e) for lm, _ in gb.reducers})
    level, seen, least = {supports}, set(), 0
    while frozenset() not in level:
        seen |= level
        branches = set()
        for left in level:
            smallest = min(left, key=int.bit_count)
            while smallest:
                bit = smallest & -smallest
                smallest ^= bit
                branches.add(frozenset([m for m in left if not m & bit]))
        level = branches - seen
        least += 1
    return n - least
