"""Truncated p-typical Witt vectors.

The universal sum/product/negation/Frobenius polynomials are produced by
the ghost recursion over arbitrary-precision integers, as term dicts on
the `polyring` kernel: at level i the
recursion divides by p^i, and that division must be exact — a failed
division is a construction bug, not user error, so it asserts.

Two coordinate domains are supported: plain integers (the p-torsion-free
ghost-oracle mode used by tests) and finitely presented F_p-algebras,
where coordinates are polynomials kept in normal form mod the defining
ideal.  Over the integers every op evaluates the universal tables.  Over
an F_p-algebra A no table is needed: x = sum_i V^i [x_i], so addition
comes from the coordinates eta_k(a, b) of [a] + [b] alone, and
multiplication, negation and Frobenius from Teichmuller lifts
(V^i [a] * V^j [b] = V^(i+j) [a^(p^j) b^(p^i)], F [a] = [a^p]).  The
tables then serve as the test oracle for this characteristic-p path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from .modarith import is_prime
from .polyring import Polynomial, terms_add, terms_mul, terms_pow, terms_scale

# -- universal tables: integer term dicts (exponent tuple -> int) -----------


def _ip_divexact(a: dict, k: int) -> dict:
    out = {}
    for e, c in a.items():
        q, rem = divmod(c, k)
        assert rem == 0, "ghost recursion produced a non-exact division (internal defect)"
        out[e] = q
    return out


def _ghost_poly(p: int, i: int, offset: int, nvars: int) -> dict:
    """w_i = sum_{j<=i} p^j X_{offset+j}^(p^(i-j)) as an integer polynomial."""
    out = {}
    for j in range(i + 1):
        e = [0] * nvars
        e[offset + j] = p ** (i - j)
        out[tuple(e)] = p ** j
    return out


def _solve_coordinates(p: int, r: int, nvars: int, targets: list[dict]) -> tuple[dict, ...]:
    """Coordinate polynomials C_0..C_{r-1} with w_i(C) = targets[i] for all i."""
    coords: list[dict] = []
    for i in range(r):
        acc = dict(targets[i])
        for j in range(i):
            term = terms_scale(terms_pow(coords[j], p ** (i - j), nvars), -(p ** j))
            acc = terms_add(acc, term)
        coords.append(_ip_divexact(acc, p ** i))
    return tuple(coords)


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


_TABLE_CACHE: dict[tuple[int, int], WittPolynomialTable] = {}
_TABLE_LOCK = threading.Lock()

DEFAULT_MAX_PRIME = 13
DEFAULT_MAX_LEVEL = 6


def _check_caps(p: int, r: int, allow_large: bool = False) -> None:
    """The prime, level and size checks shared by both arithmetic paths."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("level must be >= 1")
    if not allow_large and (p > DEFAULT_MAX_PRIME or r > DEFAULT_MAX_LEVEL):
        raise ValueError(
            f"table for (p={p}, r={r}) exceeds the default caps "
            f"(p <= {DEFAULT_MAX_PRIME}, r <= {DEFAULT_MAX_LEVEL}); pass allow_large=True"
        )


def build_witt_table(p: int, r: int, allow_large: bool = False) -> WittPolynomialTable:
    """Build (and memoize) the universal tables for W_r at the prime p."""
    _check_caps(p, r, allow_large)
    key = (p, r)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    with _TABLE_LOCK:
        cached = _TABLE_CACHE.get(key)
        if cached is not None:
            return cached
        n2 = 2 * r
        ghost_a2 = [_ghost_poly(p, i, 0, n2) for i in range(r)]
        ghost_b2 = [_ghost_poly(p, i, r, n2) for i in range(r)]
        sums = _solve_coordinates(p, r, n2, [terms_add(ghost_a2[i], ghost_b2[i]) for i in range(r)])
        prods = _solve_coordinates(p, r, n2, [terms_mul(ghost_a2[i], ghost_b2[i]) for i in range(r)])
        ghost_a1 = [_ghost_poly(p, i, 0, r) for i in range(r)]
        negs = _solve_coordinates(p, r, r, [terms_scale(ghost_a1[i], -1) for i in range(r)])
        frobs = _solve_coordinates(p, r - 1, r, [ghost_a1[i + 1] for i in range(r - 1)]) if r > 1 else ()
        table = WittPolynomialTable(p, r, sums, prods, negs, frobs)
        _TABLE_CACHE[key] = table
        return table


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


class PrimeFieldCoefficients:
    """F_p itself, with elements as plain residues (fast path for scalars)."""

    char_p = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def pth_power(self, x):
        return x % self.p  # Fermat: the Frobenius fixes F_p

    def is_zero(self, x) -> bool:
        return x % self.p == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeFieldCoefficients) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeFieldCoefficients", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"


class PresentedCoefficients:
    """Coordinates in a finitely presented F_p-algebra, held in normal form."""

    char_p = True

    def __init__(self, presentation):
        # `presentation` is a derham.PresentedRing; typed loosely to keep
        # this module importable on its own.
        self.presentation = presentation
        self.characteristic = presentation.ring.p

    def zero(self):
        return self.presentation.ring.zero()

    def one(self):
        return self.presentation.ring.one()

    def from_int(self, n: int):
        return self.presentation.ring.constant(n)

    def add(self, x: Polynomial, y: Polynomial):
        return self.presentation.normal(x + y)

    def mul(self, x: Polynomial, y: Polynomial):
        return self.presentation.normal(x * y)

    def neg(self, x: Polynomial):
        return -x

    def pth_power(self, x: Polynomial):
        return self.presentation.normal(x.frobenius_power())

    def is_zero(self, x: Polynomial) -> bool:
        return x.is_zero()

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


def witt_zero(domain, p: int, r: int) -> WittVector:
    return WittVector(p, r, domain, tuple(domain.zero() for _ in range(r)))


def witt_one(domain, p: int, r: int) -> WittVector:
    coords = [domain.one()] + [domain.zero() for _ in range(r - 1)]
    return WittVector(p, r, domain, tuple(coords))


def teichmuller(domain, g, r: int, p: Optional[int] = None) -> WittVector:
    """The multiplicative lift (g, 0, ..., 0); p defaults to the domain's characteristic."""
    if p is None:
        if not domain.char_p:
            raise ValueError("the Teichmuller lift over Z needs the prime p")
        p = domain.characteristic
    coords = [g] + [domain.zero() for _ in range(r - 1)]
    return WittVector(p, r, domain, tuple(coords))


def _check_pair(x: WittVector, y: WittVector) -> None:
    if x.p != y.p or x.level != y.level or x.domain != y.domain:
        raise ValueError("Witt vectors from different rings or levels")


def _eval_table_poly(poly: dict, args: Sequence, domain) -> object:
    """Evaluate an integer-coefficient table polynomial on domain elements."""
    powers: dict[int, list] = {}

    def power(i: int, e: int):
        ladder = powers.setdefault(i, [domain.one()])
        while len(ladder) <= e:
            ladder.append(domain.mul(ladder[-1], args[i]))
        return ladder[e]

    acc = domain.zero()
    for exp, coef in poly.items():
        term = domain.from_int(coef)
        for i, e in enumerate(exp):
            if e:
                term = domain.mul(term, power(i, e))
        acc = domain.add(acc, term)
    return acc


def _eval_table(polys: Sequence[dict], args: Sequence, domain) -> tuple:
    return tuple(_eval_table_poly(poly, args, domain) for poly in polys)


# -- characteristic p: Teichmuller lifts instead of tables ------------------------

_ETA_CACHE: dict[tuple[int, int], tuple[dict, ...]] = {}


def _eta_polys(p: int, r: int) -> tuple[dict, ...]:
    """eta_1..eta_{r-1} mod p: [a] + [b] = (a + b, eta_1(a, b), ..., eta_{r-1}(a, b)).

    Solved from the ghost components a^(p^i) + b^(p^i) of [a] + [b],
    independently of the universal sum table.  The first call for (p, r)
    runs the cap check the tables share; two threads racing on it build
    the same value twice.
    """
    key = (p, r)
    cached = _ETA_CACHE.get(key)
    if cached is None:
        _check_caps(p, r)
        targets = [{(p ** i, 0): 1, (0, p ** i): 1} for i in range(r)]
        coords = _solve_coordinates(p, r, 2, targets)
        cached = tuple({e: c % p for e, c in poly.items() if c % p} for poly in coords[1:])
        _ETA_CACHE[key] = cached
    return cached


def _fp_add_lift(x: tuple, c, domain, eta: tuple[dict, ...]) -> tuple:
    """x + [c] = (x0 + c) :: (eta(x0, c) + x'); eta(x0, c) = 0 when x0 or c is 0."""
    x0, rest = x[0], x[1:]
    if rest and not domain.is_zero(x0) and not domain.is_zero(c):
        rest = _fp_add(_eval_table(eta[: len(rest)], (x0, c), domain), rest, domain, eta)
    return (domain.add(x0, c),) + rest


def _fp_add(x: tuple, y: tuple, domain, eta: tuple[dict, ...]) -> tuple:
    """x + y = (x + [y0]) + V(y'), and s + V(y') = s0 :: (s' + y')."""
    if not x:
        return ()
    head = _fp_add_lift(x, y[0], domain, eta)
    return head[:1] + _fp_add(head[1:], y[1:], domain, eta)


def _frobenius_powers(c, count: int, domain) -> list:
    """[c, c^p, ..., c^(p^(count-1))]."""
    out = [c]
    for _ in range(count - 1):
        out.append(domain.pth_power(out[-1]))
    return out


def _fp_mul(x: tuple, y: tuple, domain, eta: tuple[dict, ...]) -> tuple:
    """x * y = sum_{i+j<r} V^(i+j) [x_i^(p^j) * y_j^(p^i)], skipping zero coordinates."""
    r = len(x)
    xs = [None if domain.is_zero(c) else _frobenius_powers(c, r - i, domain) for i, c in enumerate(x)]
    ys = [None if domain.is_zero(c) else _frobenius_powers(c, r - j, domain) for j, c in enumerate(y)]
    acc = tuple(domain.zero() for _ in range(r))
    for i in range(r):
        if xs[i] is None:
            continue
        for j in range(r - i):
            if ys[j] is None:
                continue
            k = i + j
            acc = acc[:k] + _fp_add_lift(acc[k:], domain.mul(xs[i][j], ys[j][i]), domain, eta)
    return acc


def _fp_neg(x: tuple, p: int, domain, eta: tuple[dict, ...]) -> tuple:
    """-x coordinatewise for odd p; at p = 2, -[a] = (a, a^2, a^4, ...), so
    -x = x0 :: ((x0^2, x0^4, ...) + (-x'))."""
    if p != 2:
        return tuple(domain.neg(c) for c in x)
    if not x:
        return ()
    x0 = x[0]
    rest = _fp_neg(x[1:], p, domain, eta)
    if rest and not domain.is_zero(x0):
        rest = _fp_add(tuple(_frobenius_powers(x0, len(x), domain)[1:]), rest, domain, eta)
    return (domain.neg(x0),) + rest


# -- public ops: the tables over Z, Teichmuller lifts over F_p-algebras -----------


def witt_add(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    if x.domain.char_p:
        coords = _fp_add(x.coords, y.coords, x.domain, _eta_polys(x.p, x.level))
    else:
        coords = _eval_table(build_witt_table(x.p, x.level).sum_polys, x.coords + y.coords, x.domain)
    return WittVector(x.p, x.level, x.domain, coords)


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    _check_pair(x, y)
    if x.domain.char_p:
        coords = _fp_mul(x.coords, y.coords, x.domain, _eta_polys(x.p, x.level))
    else:
        coords = _eval_table(build_witt_table(x.p, x.level).prod_polys, x.coords + y.coords, x.domain)
    return WittVector(x.p, x.level, x.domain, coords)


def witt_neg(x: WittVector) -> WittVector:
    if x.domain.char_p:
        coords = _fp_neg(x.coords, x.p, x.domain, _eta_polys(x.p, x.level))
    else:
        coords = _eval_table(build_witt_table(x.p, x.level).neg_polys, x.coords, x.domain)
    return WittVector(x.p, x.level, x.domain, coords)


def witt_sub(x: WittVector, y: WittVector) -> WittVector:
    return witt_add(x, witt_neg(y))


def frobenius(x: WittVector) -> WittVector:
    """Ghost-compatible Frobenius W_r -> W_{r-1}: the table polynomials over
    Z, the p-th power of the first r - 1 coordinates over an F_p-algebra."""
    if x.level < 2:
        raise ValueError(
            "table Frobenius needs level >= 2; use frobenius_coordinatewise over an F_p-algebra"
        )
    if x.domain.char_p:
        _check_caps(x.p, x.level)
        coords = tuple(x.domain.pth_power(c) for c in x.coords[:-1])
    else:
        coords = _eval_table(build_witt_table(x.p, x.level).frob_polys, x.coords, x.domain)
    return WittVector(x.p, x.level - 1, x.domain, coords)


def frobenius_coordinatewise(x: WittVector) -> WittVector:
    """Same-level Frobenius for F_p-algebra coordinates: p-th power each slot.

    Over a characteristic-p domain this is the map induced by the ring
    Frobenius; composed with restriction it agrees with `frobenius`.
    """
    if not getattr(x.domain, "char_p", False):
        raise ValueError("coordinatewise Frobenius requires an F_p-algebra domain")
    coords = tuple(x.domain.pth_power(c) for c in x.coords)
    return WittVector(x.p, x.level, x.domain, coords)


def verschiebung(x: WittVector) -> WittVector:
    """V: W_r -> W_{r+1}, prepend a zero coordinate."""
    return WittVector(x.p, x.level + 1, x.domain, (x.domain.zero(),) + x.coords)


def ghost(x: WittVector) -> tuple[int, ...]:
    """Ghost components (w_0, ..., w_{r-1}); integer-coordinate oracle mode."""
    if not isinstance(x.domain, IntegerCoefficients):
        raise ValueError("ghost components are exact only over p-torsion-free coefficients")
    p = x.p
    out = []
    for i in range(x.level):
        out.append(sum(p ** j * x.coords[j] ** (p ** (i - j)) for j in range(i + 1)))
    return tuple(out)


def scalar_multiple(n: int, x: WittVector) -> WittVector:
    """n * x by binary addition chains (n may be negative)."""
    if n < 0:
        return witt_neg(scalar_multiple(-n, x))
    acc = witt_zero(x.domain, x.p, x.level)
    add = x
    while n:
        if n & 1:
            acc = witt_add(acc, add)
        n >>= 1
        if n:
            add = witt_add(add, add)
    return acc


def witt_to_json(x: WittVector) -> dict:
    coords = [c if isinstance(c, int) else c.to_json() for c in x.coords]
    return {"p": x.p, "r": x.level, "coords": coords}
