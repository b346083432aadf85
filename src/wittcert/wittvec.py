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
D + 1 coefficients mod p and evaluated by Horner in a, the powers of b
shared between the rows; each coefficient is applied with the domain's
`scale`, not as a product with a domain constant.  Coordinates are held
in normal form under a reduced Groebner basis.  Normal forms are closed
under sums and scalar multiples, so only a product or a p-th power is
reduced again.

The universal sum/product/negation/Frobenius polynomials
(`build_witt_table`) are produced by the ghost recursion over
arbitrary-precision integers, on term dicts whose exponent tuples are
packed into one int each for the solve: at level i the recursion divides
by p^i, and that division must be exact — a failed division, like a packed
exponent that outgrows its field, is a construction bug, not user error,
so it raises AssertionError.  No op evaluates them; they are the test
oracle for both domains.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .modarith import is_prime
from .polyring import Polynomial, terms_add, terms_mul, terms_scale

# -- universal tables: integer term dicts (exponent tuple -> int) -----------


def _ghost_poly(p: int, i: int, offset: int, nvars: int) -> dict:
    """w_i = sum_{j<=i} p^j X_{offset+j}^(p^(i-j)) as an integer polynomial."""
    out = {}
    for j in range(i + 1):
        e = [0] * nvars
        e[offset + j] = p ** (i - j)
        out[tuple(e)] = p ** j
    return out


def _solve_coordinates(p: int, r: int, nvars: int, targets: list[dict]) -> tuple[dict, ...]:
    """Coordinate polynomials C_0..C_{r-1} with w_i(C) = targets[i] for all i:
    C_i = (targets[i] - sum_{j<i} p^j C_j^(p^(i-j))) / p^i.

    Exponent tuples are packed into one int, a fixed field per variable, so
    a monomial product is one integer add (Monagan & Pearce, "Polynomial
    division using dynamic arrays, heaps, and packed exponent vectors",
    2007).  A field holds the targets' largest exponent plus a guard bit:
    every coordinate is isobaric, so no power needs more, and a product
    whose keys reach a guard bit raises instead of carrying into the next
    field.  The power chain of each C_j is kept from level to level: it
    starts at C_j^p, split binomially over the linear terms of C_j (whose
    other terms have far shorter powers), and is then extended by repeated
    products with C_j, which stays small while its powers grow.
    """
    width = max((x for t in targets for e in t for x in e), default=0).bit_length() + 1
    shifts = range(0, nvars * width, width)
    mask = (1 << width) - 1
    guard = sum(1 << (s + width - 1) for s in shifts)
    linear = {1 << s for s in shifts}

    def accumulate(out: dict, a: dict, b: dict, k: int = 1) -> dict:
        """out += k * a * b, returned with its keys checked for guard bits."""
        get = out.get
        b_items = list(b.items())
        for e1, c1 in a.items():
            c1 *= k
            for e2, c2 in b_items:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if any(e & guard for e in out):
            raise AssertionError("packed exponent overflow in the ghost recursion (internal defect)")
        return out

    def mul(a: dict, b: dict) -> dict:
        return {e: c for e, c in accumulate({}, a, b).items() if c}

    def pth_power(base: dict) -> dict:
        """base^p = sum_k C(p, k) L^(p-k) R^k, where L is the linear part of base."""
        head = {e: c for e, c in base.items() if e in linear}
        tail = {e: c for e, c in base.items() if e not in linear}
        heads = [{0: 1}]
        for _ in range(p):
            heads.append(mul(heads[-1], head))
        out: dict = {}
        tail_power = {0: 1}
        for k in range(p + 1):
            if k:
                tail_power = mul(tail_power, tail)
            accumulate(out, heads[p - k], tail_power, comb(p, k))
        return {e: c for e, c in out.items() if c}

    coords: list = []
    chains: list = [None] * r  # chains[j] = C_j^(p^(i-1-j)) at the start of level i > j + 1

    def level(i: int) -> dict:
        """C_i, packed; a function, so that its sums are freed on return."""
        acc = {sum(x << s for x, s in zip(e, shifts)): c for e, c in targets[i].items()}
        get = acc.get
        for j, base in enumerate(coords):
            if i == j + 1:
                chains[j] = pth_power(base)
            else:
                for _ in range(p ** (i - j) - p ** (i - j - 1)):
                    chains[j] = mul(chains[j], base)
            k = p ** j
            for e, c in chains[j].items():
                acc[e] = get(e, 0) - k * c
            if i == r - 1:
                chains[j] = None
        coord = {}
        for e, c in acc.items():
            q, rem = divmod(c, p ** i)
            if rem:
                raise AssertionError("ghost recursion produced a non-exact division (internal defect)")
            if q:
                coord[e] = q
        return coord

    for i in range(r):
        coords.append(level(i))
    out = []
    for n, coord in enumerate(coords):
        coords[n] = None
        out.append({tuple((e >> s) & mask for s in shifts): c for e, c in coord.items()})
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


def _check_caps(p: int, r: int) -> None:
    """The prime, level and size checks shared by the tables and the ops."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("level must be >= 1")
    if p > DEFAULT_MAX_PRIME or r > DEFAULT_MAX_LEVEL:
        raise ValueError(
            f"table for (p={p}, r={r}) exceeds the default caps "
            f"(p <= {DEFAULT_MAX_PRIME}, r <= {DEFAULT_MAX_LEVEL})"
        )


def build_witt_table(p: int, r: int) -> WittPolynomialTable:
    """Build (and memoize) the universal tables for W_r at the prime p.

    Raises ValueError beyond the default caps (p <= 13, r <= 6).
    """
    _check_caps(p, r)
    return _solve_table(p, r)


@functools.lru_cache(maxsize=None)
def _solve_table(p: int, r: int) -> WittPolynomialTable:
    n2 = 2 * r
    ghost_a2 = [_ghost_poly(p, i, 0, n2) for i in range(r)]
    ghost_b2 = [_ghost_poly(p, i, r, n2) for i in range(r)]
    sums = _solve_coordinates(p, r, n2, [terms_add(ghost_a2[i], ghost_b2[i]) for i in range(r)])
    prods = _solve_coordinates(p, r, n2, [terms_mul(ghost_a2[i], ghost_b2[i]) for i in range(r)])
    ghost_a1 = [_ghost_poly(p, i, 0, r) for i in range(r)]
    negs = _solve_coordinates(p, r, r, [terms_scale(ghost_a1[i], -1) for i in range(r)])
    frobs = _solve_coordinates(p, r - 1, r, [ghost_a1[i + 1] for i in range(r - 1)]) if r > 1 else ()
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
    `mul` and `pth_power` reduce.  Callers normalize what they bring in
    (`presentation.normal`), as the CLI does with every operand.
    """

    char_p = True

    def __init__(self, presentation):
        # `presentation` is a derham.PresentedRing; typed loosely to keep
        # this module importable on its own.
        self.presentation = presentation
        self.characteristic = presentation.ring.p
        # 0 when the presentation is the unit ideal
        self._one = presentation.normal(presentation.ring.one())

    def zero(self):
        return self.presentation.ring.zero()

    def one(self):
        return self._one

    def from_int(self, n: int):
        return self._one.scale(n)

    def add(self, x: Polynomial, y: Polynomial):
        return x + y

    def mul(self, x: Polynomial, y: Polynomial):
        return self.presentation.normal(x * y)

    def scale(self, x: Polynomial, c: int):
        return x.scale(c)

    def neg(self, x: Polynomial):
        return x if self.characteristic == 2 else -x

    is_zero = staticmethod(Polynomial.is_zero)

    def pth_power(self, x: Polynomial):
        return x if x.is_zero() else self.presentation.normal(x.frobenius_power())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PresentedCoefficients) and self.presentation == other.presentation

    def __hash__(self) -> int:
        return hash(self.presentation)

    def __repr__(self) -> str:
        return f"PresentedCoefficients({self.presentation!r})"


@dataclass(frozen=True)
class WittVector:
    """Length-r coordinate tuple over a coefficient domain."""

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

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.coords)
        return f"W{self.level}({inner})"


def witt_vector(domain, p: int, coords: Sequence) -> WittVector:
    return WittVector(p, len(coords), domain, tuple(coords))


def witt_one(domain, p: int, r: int) -> WittVector:
    coords = [domain.one()] + [domain.zero() for _ in range(r - 1)]
    return WittVector(p, r, domain, tuple(coords))


def teichmuller(domain, g, r: int, p: int) -> WittVector:
    """The multiplicative lift (g, 0, ..., 0)."""
    coords = [g] + [domain.zero() for _ in range(r - 1)]
    return WittVector(p, r, domain, tuple(coords))


def _check_pair(x: WittVector, y: WittVector) -> None:
    if x.p != y.p or x.level != y.level or x.domain != y.domain:
        raise ValueError("Witt vectors from different rings or levels")


# -- F_p-algebras: x = sum_i V^i [x_i] --------------------------------------------

EtaRows = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _eta_polys(p: int, r: int) -> EtaRows:
    """eta_1..eta_{r-1} in characteristic p: [a] + [b] = (a + b, eta_1(a, b), ...).

    eta_k is homogeneous of degree D = p^k; it is returned as the dense row
    of its coefficients mod p of a^i b^(D-i) for i = D, ..., 0.  Solved once
    per (p, r) over Z from the ghost components a^(p^i) + b^(p^i) of
    [a] + [b], independently of the universal sum table, and reduced mod p.
    Two threads racing on the first call build the same value twice.
    """
    targets = [{(p ** i, 0): 1, (0, p ** i): 1} for i in range(r)]
    rows = []
    for k, poly in enumerate(_solve_coordinates(p, r, 2, targets)[1:], start=1):
        degree = p ** k
        if any(i + j != degree for i, j in poly):
            raise AssertionError("eta is not homogeneous (internal defect)")
        rows.append(tuple(poly.get((i, degree - i), 0) % p for i in range(degree, -1, -1)))
    return tuple(rows)


def _eval_eta(rows: Sequence[tuple[int, ...]], a, b, domain) -> tuple:
    """(eta_1(a, b), ...) from the rows of `_eta_polys`, by Horner in a:
    after step j the sum is sum_{i <= j} row[i] a^(j-i) b^i.  The powers of
    b are shared between the rows and made only as far as a nonzero
    coefficient needs them."""
    mul, add, scale, is_zero = domain.mul, domain.add, domain.scale, domain.is_zero
    powers = [domain.one(), b]
    out = []
    for row in rows:
        acc = domain.zero()
        for j, c in enumerate(row):
            if not is_zero(acc):
                acc = mul(acc, a)
            if c:
                while len(powers) <= j:
                    powers.append(mul(powers[-1], b))
                acc = add(acc, scale(powers[j], c))
        out.append(acc)
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


def _mul(x: tuple, orbit, domain, eta: EtaRows) -> tuple:
    """x * y = sum_i V^i([x_i] * F^i y), where orbit yields y, F y, F^2 y, ... and
    [a] * z = (a z_0, a^p z_1, a^(p^2) z_2, ...), so the terms are
    V^(i+j) [x_i^(p^j) y_j^(p^i)]."""
    acc = None
    for i, (a, fy) in enumerate(zip(x, orbit)):
        if domain.is_zero(a):
            continue
        powers = _frobenius_powers(a, len(x) - i, domain)
        term = tuple(c if domain.is_zero(c) else domain.mul(ap, c) for ap, c in zip(powers, fy))
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
    _check_caps(x.p, x.level)
    if x.domain.char_p:
        coords = _add(x.coords, y.coords, x.domain, _eta_polys(x.p, x.level))
    else:
        coords = _unghost(x.p, map(x.domain.add, ghost(x), ghost(y)))
    return WittVector(x.p, x.level, x.domain, coords)


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    _check_caps(x.p, x.level)
    if x.domain.char_p:
        # y, F y, ..., F^(r-1) y, each computed when _mul first asks for it
        orbit = itertools.accumulate(range(x.level - 1), lambda z, _: _frobenius(z, x.domain), initial=y.coords)
        coords = _mul(x.coords, orbit, x.domain, _eta_polys(x.p, x.level))
    else:
        coords = _unghost(x.p, map(x.domain.mul, ghost(x), ghost(y)))
    return WittVector(x.p, x.level, x.domain, coords)


def witt_neg(x: WittVector) -> WittVector:
    _check_caps(x.p, x.level)
    if x.domain.char_p:
        coords = _neg(x.coords, x.p, x.domain)
    else:
        coords = _unghost(x.p, map(x.domain.neg, ghost(x)))
    return WittVector(x.p, x.level, x.domain, coords)


def frobenius(x: WittVector) -> WittVector:
    """Ghost-compatible Frobenius W_r -> W_{r-1}: the p-th power of the first
    r - 1 coordinates over an F_p-algebra, the vector with ghost components
    (w_1, ..., w_{r-1}) over Z."""
    if x.level < 2:
        raise ValueError("Frobenius maps W_r to W_(r-1), so it needs level >= 2")
    _check_caps(x.p, x.level)
    if x.domain.char_p:
        coords = _frobenius(x.coords, x.domain)
    else:
        coords = _unghost(x.p, ghost(x)[1:])
    return WittVector(x.p, x.level - 1, x.domain, coords)


def verschiebung(x: WittVector) -> WittVector:
    """V: W_r -> W_{r+1}, prepend a zero coordinate.  It computes nothing,
    so its level is not capped, but like every op it needs a prime p."""
    if not is_prime(x.p):
        raise ValueError(f"{x.p} is not prime")
    return WittVector(x.p, x.level + 1, x.domain, (x.domain.zero(),) + x.coords)


def ghost(x: WittVector) -> tuple[int, ...]:
    """Ghost components (w_0, ..., w_{r-1}); integer-coordinate oracle mode."""
    if x.domain.characteristic:
        raise ValueError("ghost components are exact only over p-torsion-free coefficients")
    p = x.p
    out = []
    for i in range(x.level):
        out.append(sum(p ** j * x.coords[j] ** (p ** (i - j)) for j in range(i + 1)))
    return tuple(out)


def witt_to_json(x: WittVector) -> dict:
    coords = [c if isinstance(c, int) else c.to_json() for c in x.coords]
    return {"p": x.p, "r": x.level, "coords": coords}
