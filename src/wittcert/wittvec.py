"""Truncated p-typical Witt vectors.

Two coordinate domains are supported: plain integers (the p-torsion-free
ghost-oracle mode) and finitely presented F_p-algebras, where coordinates
are polynomials kept in normal form mod the defining ideal.  Over Z the
ghost map is injective, so an op is computed on ghost components:
x + y = unghost(w(x) + w(y)), and likewise the product, the negation and
Frobenius, whose ghost components are (w_1, ..., w_{r-1}).  Unghosting
divides by p^i at level i, exactly whenever the components come from a
Witt vector.  Over an F_p-algebra the arithmetic is built on
x = sum_i V^i [x_i], whose identities hold over any ring: addition needs
only the coordinates eta_k(a, b) of [a] + [b]; multiplication is
x * y = sum_i V^i([x_i] * F^i y) with [a] * z = (a z_0, a^p z_1,
a^(p^2) z_2, ...); negation is coordinatewise for odd p; Frobenius is the
p-th power of each coordinate.

eta_k is homogeneous of degree D = p^k, so it is kept as a dense row of
D + 1 coefficients mod p and evaluated by Horner in a on term dicts, the
powers of b shared between the rows: a step is one `normal_product`, the
product of two normal forms reduced by the presentation's cached
reducers (the call `PresentedCoefficients.mul` makes), and adds c b^j
into the sum mod p in place, so each coordinate becomes a `Polynomial`
once.  The rows come from the ghost recursion of [a] + [b] at b = 1, a
recursion in one variable run mod p^(n+1) (`_eta_polys`).  Coordinates
are held in normal form under a reduced Groebner basis.  Normal forms
are closed under sums and scalar multiples, so only a product or a p-th
power is reduced again.  A constant coordinate is an F_p scalar: a
product with it is a scalar multiple, its p-th power is itself, and eta
of two constants is evaluated on integers mod p, so F_p, presented as a
ring with no variables, reduces nothing.  A product makes only what its
nonzero coordinates need: the Frobenius orbit F^i y only as far as the
last nonzero x_i, and the powers x_i^(p^j) only as far as the last
nonzero coordinate of F^i y.

The universal sum/product/negation/Frobenius polynomials
(`build_witt_table`) are produced by the ghost recursion over
arbitrary-precision integers, on dicts from packed exponents to rows of
coefficients packed into one int each (`_solve_coordinates`): at level i
the recursion divides by p^i, and that division must be exact — a
failed division, like a packed exponent that outgrows its field or a
target that is not isobaric, is a construction bug, not user error, so
it raises AssertionError.  No op evaluates them; they are the test
oracle for both domains.

Both recursions multiply dense coefficient rows packed into one int
(`_pack_row`), so that one integer product does a row's worth of
coefficient products (Kronecker substitution; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", 2009).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

from .modarith import check_prime, is_prime
from .polyring import Polynomial, normal_product, terms_add, terms_mul, terms_scale

# -- rows: dense coefficient rows packed into one int ------------------------


def _row_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most `bound`, sign included."""
    return bound.bit_length() // 8 + 1


def _row_bias(width: int, slots: int) -> int:
    """2^(8 width - 1) in each slot: added to a row, it makes every slot nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack_row(coeffs: Sequence[int], width: int) -> int:
    """sum_s coeffs[s] 2^(8 width s): the row as one int, so that integer sums
    and products act on rows as polynomial ones do in the row's variable
    (Kronecker substitution), as long as every coefficient unpacked stays
    within the slot."""
    if len(coeffs) == 1:
        return coeffs[0]
    half = 1 << (8 * width - 1)
    data = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(data, "little") - _row_bias(width, len(coeffs))


def _unpack_row(row: int, width: int, slots: int | None = None) -> list[int]:
    """The first `slots` coefficients of a packed row, by default all of
    them, possibly with zeros after its last nonzero one: a row whose top
    slot, s, holds c != 0 has at least 8 width s bits."""
    half = 1 << (8 * width - 1)
    if slots is None:
        if -half < row < half:
            return [row]
        slots = row.bit_length() // (8 * width) + 1
    data = (row + _row_bias(width, slots)).to_bytes(slots * width, "little")
    return [int.from_bytes(data[s:s + width], "little") - half for s in range(0, len(data), width)]


# -- universal tables: integer term dicts (exponent tuple -> int) -----------


def _ghost_poly(p: int, i: int, offset: int, nvars: int) -> dict:
    """w_i = sum_{j<=i} p^j X_{offset+j}^(p^(i-j)) as an integer polynomial."""
    out = {}
    for j in range(i + 1):
        e = [0] * nvars
        e[offset + j] = p ** (i - j)
        out[tuple(e)] = p ** j
    return out


def _solve_coordinates(p: int, weights: Sequence[int], targets: list[dict], row: int | None) -> tuple[dict, ...]:
    """Coordinate polynomials C_0..C_{r-1} with w_i(C) = targets[i] for all i:
    C_i = (targets[i] - sum_{j<i} p^j C_j^(p^(i-j))) / p^i.

    Variable v has weight weights[v], and variable 0 has weight 1.  Target i
    must be isobaric of weight p^i W_0; then so is C_i, and C_j^(p^(i-j))
    has the same weight.  A polynomial of weight W is held as a dict from
    the packed exponents of the variables other than 0 and `row` (a key) to
    a row: the dense coefficients by the exponent of variable `row`, packed
    into one int (`_pack_row`); the exponent of variable 0 is W minus the
    weight of the rest.  With `row` None a row is one coefficient.  So one
    product of rows does the work of a row's worth of monomial products,
    as long as the rows are dense.

    A key has a fixed field per variable, so a monomial product is one
    integer add (Monagan & Pearce, "Polynomial division using dynamic
    arrays, heaps, and packed exponent vectors", 2007); a field holds the
    targets' largest exponent of a key variable plus a guard bit, and a
    product whose keys reach a guard bit raises instead of carrying into
    the next field.  The power chain of each C_j is kept from level to
    level, extended by repeated products with C_j, which stays small while
    its powers grow; its slots are as wide as an L1-norm bound on its last
    power, L1(C_j)^(p^(r-1-j)), asks.
    """
    r = len(targets)
    free = [v for v in range(1, len(weights)) if v != row]
    field = max((e[v] for t in targets for e in t for v in free), default=0).bit_length() + 1
    shifts = range(0, len(free) * field, field)
    mask = (1 << field) - 1
    guard = sum(1 << (s + field - 1) for s in shifts)
    step = 0 if row is None else weights[row]
    split = len(free) if row is None else row - 1  # the row variable's place among the others
    free_weights = [weights[v] for v in free]
    w0 = sum(map(operator.mul, next(iter(targets[0])), weights))

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        get = out.get
        b_items = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in b_items:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if any(e & guard for e in out):
            raise AssertionError("packed exponent overflow in the ghost recursion (internal defect)")
        return {e: c for e, c in out.items() if c}

    bases: list = []  # C_j packed at its chain's width
    widths: list = []
    norms: list = []  # L1(C_j)
    chains: list = []  # chains[j] = C_j^(p^(i-1-j)) at the start of level i > j
    out = []
    for i in range(r):
        weight = p ** i * w0
        by_key: dict = {}
        for e, c in targets[i].items():
            if sum(map(operator.mul, e, weights)) != weight:
                raise AssertionError("a target of the ghost recursion is not isobaric (internal defect)")
            coeffs = by_key.setdefault(sum(e[v] << s for v, s in zip(free, shifts)), [])
            slot = 0 if row is None else e[row]
            coeffs.extend([0] * (slot + 1 - len(coeffs)))
            coeffs[slot] += c
        bound = sum(abs(c) for c in targets[i].values())
        bound += sum(p ** j * norms[j] ** (p ** (i - j)) for j in range(i))
        width = _row_width(bound)
        acc = {key: _pack_row(coeffs, width) for key, coeffs in by_key.items()}
        get = acc.get
        for j in range(i):
            chain = chains[j]
            for _ in range(p ** (i - j) - p ** (i - j - 1)):
                chain = mul(chain, bases[j])
            chains[j] = chain if i < r - 1 else None
            k = p ** j
            for key, packed in chain.items():
                acc[key] = get(key, 0) - k * _pack_row(_unpack_row(packed, widths[j]), width)
        modulus = p ** i
        coord = {}
        poly = {}
        for key, packed in acc.items():
            fields = [(key >> s) & mask for s in shifts]
            rest = weight - sum(map(operator.mul, fields, free_weights))
            head, tail = fields[:split], fields[split:]
            quotients = []
            for slot, c in enumerate(_unpack_row(packed, width)):
                q, rem = divmod(c, modulus)
                if rem:
                    raise AssertionError("ghost recursion produced a non-exact division (internal defect)")
                quotients.append(q)
                if q:
                    poly[(rest, *fields) if row is None else (rest - step * slot, *head, slot, *tail)] = q
            if any(quotients):
                coord[key] = quotients
        out.append(poly)
        if i < r - 1:
            norms.append(sum(abs(c) for coeffs in coord.values() for c in coeffs))
            widths.append(_row_width(norms[i] ** (p ** (r - 1 - i))))
            bases.append({key: _pack_row(coeffs, widths[i]) for key, coeffs in coord.items()})
            chains.append(bases[i])
    return tuple(out)


@dataclass(frozen=True)
class WittPolynomialTable:
    """Universal Witt coordinate polynomials for one (p, r).

    Sum and product polynomials live in 2r variables a_0..a_{r-1},
    b_0..b_{r-1}; negation in r variables; the Frobenius coordinate
    polynomials F_0..F_{r-2} in r variables describe W_r -> W_{r-1}.
    """

    p: int
    r: int
    sum_polys: tuple[dict, ...]
    prod_polys: tuple[dict, ...]
    neg_polys: tuple[dict, ...]
    frob_polys: tuple[dict, ...]


DEFAULT_MAX_PRIME = 13
DEFAULT_MAX_LEVEL = 6


# The primes within the caps, found once: every op checks its (p, r).
_CAPPED_PRIMES = frozenset(q for q in range(2, DEFAULT_MAX_PRIME + 1) if is_prime(q))


def _check_caps(p: int, r: int) -> None:
    """The prime, level and size checks shared by the tables and the ops.

    A (p, r) within the caps passes on one set lookup.  Any other runs the
    checks in their order: the prime rule (`check_prime`), then the level,
    then the caps."""
    if p in _CAPPED_PRIMES and 1 <= r <= DEFAULT_MAX_LEVEL:
        return
    check_prime(p)
    if r < 1:
        raise ValueError("level must be >= 1")
    raise ValueError(f"table for (p={p}, r={r}) exceeds the default caps "
                     f"(p <= {DEFAULT_MAX_PRIME}, r <= {DEFAULT_MAX_LEVEL})")


def build_witt_table(p: int, r: int) -> WittPolynomialTable:
    """Build (and memoize) the universal tables for W_r at the prime p; ValueError beyond the caps (p <= 13, r <= 6)."""
    _check_caps(p, r)
    return _solve_table(p, r)


@functools.lru_cache(maxsize=None)
def _solve_table(p: int, r: int) -> WittPolynomialTable:
    n2 = 2 * r
    weights = tuple(p ** j for j in range(r))
    ghost_a2 = [_ghost_poly(p, i, 0, n2) for i in range(r)]
    ghost_b2 = [_ghost_poly(p, i, r, n2) for i in range(r)]
    # The sums' rows run over b_0.  The products are isobaric in a and in b
    # apart, so a row over b_0 would hold one coefficient; given the other
    # variables, a_0 and a_1 split the a-weight left, so their rows run over
    # a_1 (at (5, 4), 3x faster than one coefficient a row, 20x than b_0).
    sums = _solve_coordinates(p, weights * 2, [terms_add(ghost_a2[i], ghost_b2[i]) for i in range(r)], r)
    prods = _solve_coordinates(p, weights * 2, [terms_mul(ghost_a2[i], ghost_b2[i]) for i in range(r)], 1)
    ghost_a1 = [_ghost_poly(p, i, 0, r) for i in range(r)]
    # negation and Frobenius have a few terms a coordinate: one coefficient a row
    negs = _solve_coordinates(p, weights, [terms_scale(ghost_a1[i], -1) for i in range(r)], None)
    frobs = _solve_coordinates(p, weights, [ghost_a1[i + 1] for i in range(r - 1)], None) if r > 1 else ()
    return WittPolynomialTable(p, r, sums, prods, negs, frobs)


# -- coordinate domains ----------------------------------------------------


class IntegerCoefficients:
    """Plain integers: the documented p-torsion-free ghost-oracle mode."""

    char_p = False
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def check(self, coords) -> None:
        for x in coords:
            if not isinstance(x, int):
                raise ValueError(f"a coordinate of type {type(x).__name__} is not an integer")

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerCoefficients)

    def __hash__(self) -> int:
        return hash("IntegerCoefficients")

    def __repr__(self) -> str:
        return "Z"


class PresentedCoefficients:
    """Coordinates in a finitely presented F_p-algebra.

    Coordinates are held in normal form: every element this domain is given
    or returns is its own normal form under the presentation's reduced
    Groebner basis.  A normal form is a combination of standard monomials,
    so sums and scalar multiples of normal forms are normal forms; only
    `mul` and `pth_power` reduce, and neither does on a constant, which is
    an F_p scalar: a product with it is a scalar multiple, and c^p = c.
    Callers normalize what they bring in (`presentation.normal`), as the
    CLI does with every operand; `check` refuses a coordinate that is not
    its own normal form.
    """

    char_p = True

    def __init__(self, presentation):
        # `presentation` is a derham.PresentedRing; typed loosely to keep
        # this module importable on its own.
        self.presentation = presentation
        self.characteristic = presentation.ring.p
        # 0 when the presentation is the unit ideal
        self._one = presentation.normal(presentation.ring.one())
        self._zero = presentation.ring.zero()

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        return self._one.scale(n)

    def check(self, coords) -> None:
        """Refuse a coordinate outside the ring or not in normal form: one
        with a term that a leading monomial of the reduced basis divides,
        which is the test normal(x) == x without the reduction."""
        leads = [lm for lm, _ in self.presentation.ideal.reducers]
        for x in coords:
            if not isinstance(x, Polynomial):
                raise ValueError(f"a coordinate of type {type(x).__name__} is not a polynomial")
            self._one._check(x)
            if any(all(map(operator.le, lm, e)) for e in x.terms for lm in leads):
                raise ValueError(f"coordinate {x} is not in normal form")

    def add(self, x: Polynomial, y: Polynomial):
        return x + y

    def mul(self, x: Polynomial, y: Polynomial):
        if (c := _scalar(x)) is not None:
            return y if c == 1 else y.scale(c)
        if (c := _scalar(y)) is not None:
            return x if c == 1 else x.scale(c)
        return Polynomial._reduced(self.presentation.ring, normal_product(x.terms, y.terms, self.presentation.ideal))

    def neg(self, x: Polynomial):
        return x if self.characteristic == 2 else -x

    is_zero = staticmethod(Polynomial.is_zero)

    def pth_power(self, x: Polynomial):
        """x^p; a constant c is its own p-th power, as c^p = c in F_p."""
        return x if _scalar(x) is not None else self.presentation.normal(x.frobenius_power())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PresentedCoefficients) and self.presentation == other.presentation

    def __hash__(self) -> int:
        return hash(self.presentation)

    def __repr__(self) -> str:
        return f"PresentedCoefficients({self.presentation!r})"


@dataclass(frozen=True)
class WittVector:
    """Length-r coordinate tuple over a coefficient domain, each coordinate checked to lie in it."""

    p: int
    level: int
    domain: object
    coords: tuple

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if len(self.coords) != self.level:
            raise ValueError("coordinate count does not match level")
        characteristic = self.domain.characteristic
        if characteristic and characteristic != self.p:
            raise ValueError(f"p = {self.p} differs from the domain's characteristic {characteristic}")
        self.domain.check(self.coords)

    @classmethod
    def _trusted(cls, x: "WittVector", coords: tuple) -> "WittVector":
        """An op's result over x's domain, whose arithmetic made `coords`: they are not checked again."""
        out = cls.__new__(cls)
        out.__dict__.update(p=x.p, level=len(coords), domain=x.domain, coords=coords)
        return out

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.coords)
        return f"W{self.level}({inner})"


def witt_vector(domain, p: int, coords: Sequence) -> WittVector:
    return WittVector(p, len(coords), domain, tuple(coords))


def witt_one(domain, p: int, r: int) -> WittVector:
    _check_caps(p, r)
    return WittVector(p, r, domain, (domain.one(),) + (domain.zero(),) * (r - 1))


def teichmuller(domain, g, r: int, p: int) -> WittVector:
    """The multiplicative lift (g, 0, ..., 0)."""
    _check_caps(p, r)  # before the level-long tuple is built
    return WittVector(p, r, domain, (g,) + (domain.zero(),) * (r - 1))


def _check_pair(x: WittVector, y: WittVector) -> None:
    if x.p != y.p or x.level != y.level or x.domain != y.domain:
        raise ValueError("Witt vectors from different rings or levels")


# -- F_p-algebras: x = sum_i V^i [x_i] --------------------------------------------

EtaRows = tuple[tuple[int, ...], ...]


def _mul_mod(a: list[int], b: list[int], modulus: int) -> list[int]:
    """a * b mod `modulus` for polynomials with coefficients in [0, modulus),
    by ascending power, as one product of packed rows: a slot of the
    product holds at most min(len(a), len(b)) (modulus - 1)^2."""
    width = _row_width(min(len(a), len(b)) * (modulus - 1) ** 2)
    packed = _pack_row(a, width)
    product = packed * (packed if b is a else _pack_row(b, width))
    return [c % modulus for c in _unpack_row(product, width, len(a) + len(b) - 1)]


def _power_mod(coeffs: list[int], e: int, modulus: int) -> list[int]:
    """coeffs^e mod `modulus`, e >= 1, by squaring and multiplying."""
    out = None
    while True:
        if e & 1:
            out = coeffs if out is None else _mul_mod(out, coeffs, modulus)
        e >>= 1
        if not e:
            return out
        coeffs = _mul_mod(coeffs, coeffs, modulus)


@functools.lru_cache(maxsize=None)
def _eta_polys(p: int, r: int) -> EtaRows:
    """eta_1..eta_{r-1} in characteristic p: [a] + [b] = (a + b, eta_1(a, b), ...).

    eta_k is homogeneous of degree D = p^k; it is returned as the dense row
    of its coefficients mod p of a^i b^(D-i) for i = D, ..., 0.  The ghost
    components of [a] + [b] are a^(p^n) + b^(p^n), so at b = 1 the ghost
    recursion is one in t = a alone:
        eta_n(t, 1) = (t^(p^n) + 1 - sum_{k<n} p^k eta_k(t, 1)^(p^(n-k))) / p^n,
    from eta_0 = t + 1.  Only eta_n mod p is wanted, so the numerator is
    needed mod p^(n+1), and the power of eta_k mod p^(n-k+1).  Since
    X = Y mod p^(m+1) gives X^p = Y^p mod p^(m+2), each power of eta_k is
    the p-th power of the one before it, reduced mod one more factor p,
    starting from eta_k mod p (`_power_mod`).  Two threads racing on the
    first call build the same value twice.
    """
    powers: list = []  # eta_k(t, 1)^(p^(n-1-k)) mod p^(n-k) at the start of level n, by ascending power of t
    rows = []
    for n in range(r):
        degree = p ** n
        acc = [1] + [0] * (degree - 1) + [1]
        for k, power in enumerate(powers):
            powers[k] = _power_mod(power, p, p ** (n - k + 1))
            scale = p ** k
            for s, c in enumerate(powers[k]):
                acc[s] -= scale * c
        modulus = p ** n
        eta = []
        for c in acc:
            q, rem = divmod(c % (p * modulus), modulus)
            if rem:
                raise AssertionError("the eta recursion produced a non-exact division (internal defect)")
            eta.append(q)
        powers.append(eta)
        if n:
            rows.append(tuple(reversed(eta)))
    return tuple(rows)


def _scalar(x: Polynomial) -> int | None:
    """The value of a constant coordinate (0 for zero), None for any other."""
    terms = x.terms
    if len(terms) > 1:
        return None
    for e, c in terms.items():
        return None if any(e) else c
    return 0


def _eval_eta(rows: Sequence[tuple[int, ...]], a, b, domain) -> tuple:
    """(eta_1(a, b), ...) from the rows of `_eta_polys`, by Horner in a:
    after step j the sum is sum_{i <= j} row[i] a^(j-i) b^i.  The sum is a
    term dict in normal form: a step replaces it by its normal product
    with a, then adds row[j] b^j into it mod p in place, and it becomes a
    `Polynomial` once, at the end of its row.  The powers of b are shared
    between the rows and made only as far as a nonzero coefficient needs
    them.  A constant operand is an F_p scalar, so a product with it is a
    scalar multiple, which needs no reduction.  With both constant, eta_k
    is evaluated on integers: c^(p^k) = c in F_p and eta_k is homogeneous
    of degree p^k, so eta_k(a, b) = b eta_k(a / b, 1), a Horner sum mod p;
    b^(p-2) stands for 1 / b, and at b = 0 the factor b gives
    eta_k(a, 0) = 0."""
    presentation = domain.presentation
    ideal, ring = presentation.ideal, presentation.ring
    p = ring.p
    ca, cb = _scalar(a), _scalar(b)
    if ca is not None and cb is not None:
        t = ca * pow(cb, p - 2, p) % p
        zero = (0,) * ring.nvars
        out = []
        for row in rows:
            v = 0
            for c in row:
                v = (v * t + c) % p
            out.append(Polynomial._trusted(ring, {zero: v * cb}))
        return tuple(out)

    def times(terms: dict, x: dict, c: int | None) -> dict:
        """terms * x in normal form, where c is x's value if x is a constant."""
        if c is None:
            return normal_product(terms, x, ideal)
        return {e: w for e, v in terms.items() if (w := v * c % p)}

    a, b = a.terms, b.terms
    powers = [domain.one().terms, b]
    out = []
    for row in rows:
        acc: dict = {}
        for j, c in enumerate(row):
            if acc:
                acc = times(acc, a, ca)
            if c:
                while len(powers) <= j:
                    powers.append(times(powers[-1], b, cb))
                for e, v in powers[j].items():
                    v = (acc.get(e, 0) + c * v) % p
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]
        out.append(Polynomial._trusted(ring, acc))
    return tuple(out)


def _add(x: tuple, y: tuple, domain, eta: EtaRows) -> tuple:
    """x + y = x + sum_k V^k [y_k]; adding V^k [c] changes coordinates k on
    only, and s + [c] = (s0 + c) :: (s' + eta(s0, c)), with eta(0, c) = 0."""
    for k, c in enumerate(y):
        if domain.is_zero(c):
            continue
        s0, rest = x[k], x[k + 1:]
        if rest and not domain.is_zero(s0):
            rest = _add(rest, _eval_eta(eta[: len(rest)], s0, c, domain), domain, eta)
        x = x[:k] + (domain.add(s0, c),) + rest
    return x


def _frobenius_powers(c, count: int, domain) -> list:
    """[c, c^p, ..., c^(p^(count-1))]."""
    out = [c]
    for _ in range(count - 1):
        out.append(domain.pth_power(out[-1]))
    return out


def _frobenius(x: tuple, domain) -> tuple:
    """F: W_r -> W_{r-1}, the p-th power of each of the first r - 1 coordinates."""
    return tuple(domain.pth_power(c) for c in x[:-1])


def _mul(x: tuple, y: tuple, domain, eta: EtaRows) -> tuple:
    """x * y = sum_i V^i([x_i] * F^i y), where [a] * z = (a z_0, a^p z_1,
    a^(p^2) z_2, ...), so the terms are V^(i+j) [x_i^(p^j) y_j^(p^i)].
    Only what a nonzero coordinate needs is made: the orbit F^i y as far
    as the last nonzero x_i, and x_i^(p^j) as far as the last nonzero
    coordinate of F^i y.  Once F^i y is 0, so are the F^i' y after it."""
    is_zero = domain.is_zero
    acc = None
    fy, at = y, 0  # F^at y, of length len(y) - at
    for i, a in enumerate(x):
        if is_zero(a):
            continue
        for _ in range(i - at):
            fy = _frobenius(fy, domain)
        at = i
        last = max((j for j, c in enumerate(fy) if not is_zero(c)), default=-1)
        if last < 0:
            break
        powers = _frobenius_powers(a, last + 1, domain)
        term = tuple(c if is_zero(c) else domain.mul(ap, c) for ap, c in zip(powers, fy)) + fy[last + 1:]
        if acc is None:
            acc = (domain.zero(),) * i + term
        else:
            acc = acc[:i] + _add(acc[i:], term, domain, eta)
    return tuple(domain.zero() for _ in x) if acc is None else acc


def _neg(x: tuple, p: int, domain) -> tuple:
    """-x coordinatewise for odd p; at p = 2, -[a] = (-a, -a^2, -a^4, ...), so
    -x = (-x0) :: ((-x0^2, -x0^4, ...) + (-x'))."""
    if p != 2:
        return tuple(domain.neg(c) for c in x)
    x0, rest = x[0], x[1:]
    if rest:
        rest = _neg(rest, p, domain)
        if not domain.is_zero(x0):
            tail = tuple(domain.neg(c) for c in _frobenius_powers(x0, len(x), domain)[1:])
            rest = _add(tail, rest, domain, _eta_polys(p, len(rest)))
    return (domain.neg(x0),) + rest


# -- Z: through the ghost map ----------------------------------------------------------


def _unghost(p: int, ghosts) -> tuple[int, ...]:
    """The integer Witt vector with the given ghost components:
    x_i = (w_i - sum_{j<i} p^j x_j^(p^(i-j))) / p^i."""
    coords: list[int] = []
    for i, w in enumerate(ghosts):
        q, rem = divmod(w - sum(p ** j * c ** (p ** (i - j)) for j, c in enumerate(coords)), p ** i)
        if rem:
            raise AssertionError("ghost components of no Witt vector (internal defect)")
        coords.append(q)
    return tuple(coords)


# -- public ops ---------------------------------------------------------------------


def witt_add(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    if x.domain.char_p:
        _check_caps(x.p, x.level)
        coords = _add(x.coords, y.coords, x.domain, _eta_polys(x.p, x.level))
    else:  # `ghost` checks the caps
        coords = _unghost(x.p, map(x.domain.add, ghost(x), ghost(y)))
    return WittVector._trusted(x, coords)


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    if x.domain.char_p:
        _check_caps(x.p, x.level)
        coords = _mul(x.coords, y.coords, x.domain, _eta_polys(x.p, x.level))
    else:  # `ghost` checks the caps
        coords = _unghost(x.p, map(x.domain.mul, ghost(x), ghost(y)))
    return WittVector._trusted(x, coords)


def witt_neg(x: WittVector) -> WittVector:
    if x.domain.char_p:
        _check_caps(x.p, x.level)
        coords = _neg(x.coords, x.p, x.domain)
    else:  # `ghost` checks the caps
        coords = _unghost(x.p, map(x.domain.neg, ghost(x)))
    return WittVector._trusted(x, coords)


def frobenius(x: WittVector) -> WittVector:
    """Ghost-compatible Frobenius W_r -> W_{r-1}: the p-th power of the first
    r - 1 coordinates over an F_p-algebra, the vector with ghost components
    (w_1, ..., w_{r-1}) over Z."""
    if x.level < 2:
        raise ValueError("Frobenius maps W_r to W_(r-1), so it needs level >= 2")
    if x.domain.char_p:
        _check_caps(x.p, x.level)
        coords = _frobenius(x.coords, x.domain)
    else:  # `ghost` checks the caps
        coords = _unghost(x.p, ghost(x)[1:])
    return WittVector._trusted(x, coords)


def verschiebung(x: WittVector) -> WittVector:
    """V: W_r -> W_{r+1}, prepend a zero coordinate.  It computes nothing,
    so its level is not capped, but like every op it needs a prime p."""
    check_prime(x.p)
    return WittVector._trusted(x, (x.domain.zero(),) + x.coords)


def ghost(x: WittVector) -> tuple[int, ...]:
    """Ghost components (w_0, ..., w_{r-1}); integer-coordinate oracle mode."""
    if x.domain.characteristic:
        raise ValueError("ghost components are exact only over p-torsion-free coefficients")
    _check_caps(x.p, x.level)  # x_0^(p^(r-1)) grows without bound in p and r
    p = x.p
    return tuple([sum([p ** j * x.coords[j] ** (p ** (i - j)) for j in range(i + 1)]) for i in range(x.level)])


def witt_to_json(x: WittVector) -> dict:
    coords = [c if isinstance(c, int) else c.to_json() for c in x.coords]
    return {"p": x.p, "r": x.level, "coords": coords}
