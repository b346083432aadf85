"""Exact arithmetic and linear algebra over Z/p^N.

Everything here is integer-exact: residues are plain Python integers
reduced into [0, p^N), and the only structure theory used is that
Z/p^N is a local ring whose elements factor as unit * p^v.  That makes
Smith normal form possible without gcd gymnastics: a pivot of minimal
p-adic valuation divides every remaining entry.  The module also owns
wittcert's two size bounds: the prime rule (`check_prime`: p prime below
`PRIME_BOUND` = 2^16) and the digit limit `INT_DIGITS` = 4300, fixed
whatever the interpreter's setting: no longer integer is read or printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional, Sequence

INT_DIGITS = 4300
PRIME_BOUND = 2 ** 16


def is_prime(n: int) -> bool:
    """Trial division; `check_prime` bounds n first, to under 2^8 divisors."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return n >= 2


def check_prime(p: int) -> None:
    """The prime rule: ValueError unless 2 <= p < PRIME_BOUND, tested first, and p is prime."""
    if not 2 <= p < PRIME_BOUND:
        raise ValueError("p must satisfy 2 <= p < 2^16")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def document_int(value) -> int:
    """`value` if it is a JSON integer, that is an int and not a bool.

    Document loaders read every integer field through this: `int()` would
    also take a float, a bool or a numeric string.  Raises TypeError, which
    each loader reports as a malformed document.
    """
    if type(value) is not int:  # a bool is an int subclass, and no JSON integer
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def document_list(value) -> list:
    """`value` if it is a JSON array; else TypeError, as `document_int`."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def document_object(value) -> dict:
    """`value` if it is a JSON object; else TypeError, as `document_int`."""
    if type(value) is not dict:
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def document_str(value) -> str:
    """`value` if it is a JSON string; else TypeError, as `document_int`."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Modulus:
    """Descriptor for the coefficient ring Z/p^N (one prime per session).

    The valuation v of x is read off gcd(x, p^N) = p^v (p^N for the zero
    residue) in a p^k -> k table built once.
    """

    p: int
    exponent: int
    # p^N and the p^k -> k table, computed once: reduce and valuation read them per entry.
    char: int = field(init=False, compare=False, repr=False)
    _exponent_of: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_prime(self.p)
        if self.exponent < 1:
            raise ValueError("modulus exponent must be >= 1")
        object.__setattr__(self, "char", self.p ** self.exponent)
        object.__setattr__(self, "_exponent_of", {self.p ** k: k for k in range(self.exponent + 1)})

    def reduce(self, value: int) -> int:
        return value % self.char

    def valuation(self, value: int) -> int:
        """p-adic valuation of value mod p^N; the zero residue gets N."""
        return self._exponent_of[gcd(value, self.char)]

    def inverse(self, value: int) -> int:
        v = value % self.char
        if v % self.p == 0:
            raise ValueError(f"{v} is not a unit mod {self.p}^{self.exponent}")
        return pow(v, -1, self.char)


class ModularMatrix:
    """Dense matrix over Z/p^N.  Immutable after construction."""

    __slots__ = ("modulus", "rows", "cols", "entries")

    def __init__(self, modulus: Modulus, entries: Sequence[Sequence[int]], cols: Optional[int] = None):
        """`cols` fixes the column count, which a matrix with no rows cannot
        carry in its entries; by default it is read from the first row."""
        self.modulus = modulus
        grid = tuple(tuple(modulus.reduce(x) for x in row) for row in entries)
        self.rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        self.cols = cols
        if any(len(row) != self.cols for row in grid):
            raise ValueError("ragged matrix")
        self.entries = grid

    @classmethod
    def _trusted(cls, modulus: Modulus, entries: tuple[tuple[int, ...], ...], cols: int) -> "ModularMatrix":
        """Wrap rows that are already tuples of residues in [0, p^N), each of
        length `cols`, without reducing, copying or checking them."""
        m = object.__new__(cls)
        m.modulus, m.rows, m.cols, m.entries = modulus, len(entries), cols, entries
        return m

    @classmethod
    def _trusted_columns(cls, modulus: Modulus, columns: Sequence[tuple[int, ...]], ambient: int) -> "ModularMatrix":
        """`from_columns` for columns already reduced mod p^N, unchecked."""
        return cls._trusted(modulus, tuple(zip(*columns)) if columns else ((),) * ambient, len(columns))

    @classmethod
    def from_columns(cls, modulus: Modulus, columns: Sequence[Sequence[int]], ambient: int) -> "ModularMatrix":
        """Matrix whose columns are the given vectors of length `ambient`."""
        for c in columns:
            if len(c) != ambient:
                raise ValueError("column length mismatch")
        return cls(modulus, [[columns[j][i] for j in range(len(columns))] for i in range(ambient)], len(columns))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModularMatrix)
            and self.modulus == other.modulus
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.cols, self.entries))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        q = self.modulus.char
        return tuple(
            sum(self.entries[i][k] * vec[k] for k in range(self.cols)) % q for i in range(self.rows)
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"ModularMatrix({self.modulus.p}^{self.modulus.exponent}, [{body}])"


def smith_normal_form(m: ModularMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of m over Z/p^N, made by
    `_eliminate` with no transform built: some invertible row and column
    transforms L and R give L @ m @ R == diagonal(diag).  Diagonal entries
    are pure powers of p (units absorbed into L) or zero, sorted by
    increasing valuation, zeros last.  `kernel_basis` reads the column
    transform R off `_eliminate` itself."""
    return tuple(_eliminate(list(map(list, m.entries)), m.cols, m.modulus.char, []))


def _eliminate(a: list[list[int]], cols: int, q: int, rt: list[list[int]]) -> list[int]:
    """Smith elimination over Z/q, q = p^N, of the rows `a` of residues,
    which it consumes; returns the diagonal.  Every column op is made on the
    rows of `rt` too, so an identity `rt` comes out as the column transform.

    Pivot selection: entry of minimal p-adic valuation, that is of least
    gcd with p^N, ties broken by row-major position; the first unit wins
    outright.  Every other entry has valuation >= the pivot's, so
    elimination quotients are exact integer divisions of canonical
    representatives.  Only columns are eliminated, and only in the rows
    below the pivot: neither the pivot row past the pivot nor the entries
    below the pivot are read again, so clearing them would change neither
    the diagonal nor the transform, and the rows above are zero past their
    own pivots.  The column ops of one pivot are made in one pass over
    those rows and one over `rt`.  Elimination keeps every remaining
    valuation >= the pivot's, so the diagonal comes out sorted.
    """
    rows = len(a)
    limit = min(rows, cols)
    for k in range(limit):
        best, best_g = None, q
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                x = row[j]
                if x:
                    g = gcd(x, q)
                    if g < best_g:
                        best, best_g = (i, j), g
                        if g == 1:
                            break
            if best_g == 1:
                break
        if best is None:
            break
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        if bj != k:
            for r in a[k:]:
                r[k], r[bj] = r[bj], r[k]
            for r in rt:
                r[k], r[bj] = r[bj], r[k]
        # Normalize the pivot to p^v exactly.
        piv = a[k]
        if best_g != piv[k]:
            u = pow(piv[k] // best_g, -1, q)
            piv = a[k] = [(x * u) % q for x in piv]
        ops = [(j, -(piv[j] // best_g)) for j in range(k + 1, cols) if piv[j]]
        if ops:
            for r in a[k + 1:]:
                c = r[k]
                if c:
                    for j, f in ops:
                        r[j] = (r[j] + f * c) % q
            for r in rt:
                c = r[k]
                if c:
                    for j, f in ops:
                        r[j] = (r[j] + f * c) % q
    return [a[i][i] for i in range(limit)]


def solve_linear(m: ModularMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One solution x of m @ x = b over Z/p^N, or None when none exists.

    A kernel vector (x, t) of the augmented matrix [m | -b] gives
    m @ x = t * b, so x / t solves the system when t is a unit; a solution
    x gives the kernel vector (x, 1).  The non-units of Z/p^N form the
    ideal (p), so some kernel vector has a unit t exactly when some
    generator from `kernel_basis` does.
    """
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    mod = m.modulus
    augmented = ModularMatrix(mod, [row + (-c,) for row, c in zip(m.entries, b)], m.cols + 1)
    for gen in kernel_basis(augmented):
        if gen[-1] % mod.p:
            t = mod.inverse(gen[-1])
            return tuple(x * t % mod.char for x in gen[:-1])
    return None


def kernel_basis(m: ModularMatrix) -> list[tuple[int, ...]]:
    """Generators of {x : m @ x = 0} over Z/p^N: column j of the Smith
    transform times p^(N - v) for a diagonal entry p^v (none for a unit),
    and the columns past the diagonal as they are, read off `_eliminate`.

    The contract that `dieudonne._cohomology_block` relies on: the
    generators z_j are columns of one invertible transform R, each scaled
    by p^(N - v_j) with 0 < v_j <= N (v_j = N for a zero diagonal entry or
    a column past the diagonal).  So sum x_j z_j = 0 exactly when p^(v_j)
    divides every x_j, and gcd(p^N, z_j) = p^(N - v_j)."""
    q, cols = m.modulus.char, m.cols
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    diag = _eliminate(list(map(list, m.entries)), cols, q, right)
    gens = []
    for j in range(cols):
        scale = q // diag[j] if j < len(diag) and diag[j] else 1
        if scale == q:
            continue
        col = tuple([scale * row[j] % q for row in right])
        if any(col):
            gens.append(col)
    return gens


class SubmoduleBasis:
    """Submodule of (Z/p^N)^n held in canonical (Howell) echelon form.

    The Howell form is the unique echelon form for submodules over Z/p^N:
    pivots are pure powers of p with strictly increasing pivot columns,
    entries above a pivot p^v are reduced into [0, p^v), and for every
    pivot row with v > 0 the annihilator row p^(N-v) * row is itself in
    the row span.  Two submodules are equal iff their forms are equal.
    Valuations are compared as `Modulus` reads them, by gcd with p^N: a
    pivot p^v reduces an entry exactly when p^v divides it.  Immutable:
    its attributes cannot be rebound (TypeError), so a span held in a
    memoized presentation cannot change under later readers.  The
    constructor checks and reduces its generators; `_trusted` takes rows
    that are residues already, as the Dieudonne checkers hold them.
    """

    __slots__ = ("modulus", "ambient", "echelon")

    def __init__(self, modulus: Modulus, ambient: int, generators: Iterable[Sequence[int]]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "ambient", ambient)
        q = modulus.char
        rows = []
        for g in generators:
            if len(g) != ambient:
                raise ValueError("generator length mismatch")
            row = [x % q for x in g]
            if any(row):
                rows.append(row)
        object.__setattr__(self, "echelon", self._howell(rows))

    @classmethod
    def _trusted(cls, modulus: Modulus, ambient: int, rows: list[list[int]]) -> "SubmoduleBasis":
        """The span of `rows`, lists of residues in [0, p^N), each of length
        `ambient`, which it consumes, without checking or reducing them."""
        span = object.__new__(cls)
        object.__setattr__(span, "modulus", modulus)
        object.__setattr__(span, "ambient", ambient)
        object.__setattr__(span, "echelon", span._howell(rows))
        return span

    def __setattr__(self, name: str, value: object) -> None:
        raise TypeError("SubmoduleBasis is immutable")

    def _howell(self, todo: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        """The Howell form of the rows `todo`, lists of residues that it
        consumes: each row is reduced in place from its first nonzero column
        on, the columns before it being zero; a zero row adds nothing.  In
        ambient 1 the span of the residues is the ideal of their gcd g with
        p^N, and its form is the one row (g,), or none when g = p^N."""
        q = self.modulus.char
        n = self.ambient
        if n == 1:
            g = gcd(q, *[r[0] for r in todo])
            return ((g,),) if g != q else ()
        pivots: dict[int, list[int]] = {}
        while todo:
            r = todo.pop()
            col = 0
            while True:
                while col < n and not r[col]:
                    col += 1
                if col == n:
                    break
                x = r[col]
                pc = pivots.get(col)
                if pc is not None:
                    if x % pc[col] == 0:
                        f = x // pc[col]
                        for j in range(col, n):
                            r[j] = (r[j] - f * pc[j]) % q
                        continue
                    # Lower valuation wins the pivot; recycle the old row.
                    todo.append(pc)
                g = gcd(x, q)
                if g != x:
                    u = pow(x // g, -1, q)
                    for j in range(col, n):
                        r[j] = r[j] * u % q
                pivots[col] = r
                if g > 1:
                    ann = q // g
                    row = [ann * y % q for y in r]
                    if any(row):
                        todo.append(row)
                break
        # Reduce entries above each pivot into [0, p^v), left to right: a
        # pivot row changes only its own and later columns, so the columns
        # already reduced stay reduced.
        cols = sorted(pivots)
        for idx in range(1, len(cols)):
            c = cols[idx]
            piv = pivots[c]
            pval = piv[c]
            for c2 in cols[:idx]:
                row = pivots[c2]
                if row[c] >= pval:
                    f = row[c] // pval
                    for j in range(c, n):
                        row[j] = (row[j] - f * piv[j]) % q
        return tuple([tuple(pivots[c]) for c in cols])

    def reduce_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of vec modulo this submodule."""
        if len(vec) != self.ambient:
            raise ValueError("ambient rank mismatch")
        q = self.modulus.char
        n = self.ambient
        r = [x % q for x in vec]
        for row in self.echelon:
            col = 0
            while not row[col]:
                col += 1
            f = r[col] // row[col]
            if f:
                for j in range(col, n):
                    r[j] = (r[j] - f * row[j]) % q
        return tuple(r)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce_vector(vec))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubmoduleBasis)
            and self.modulus == other.modulus
            and self.ambient == other.ambient
            and self.echelon == other.echelon
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.ambient, self.echelon))

    def is_zero(self) -> bool:
        return not self.echelon

    def __repr__(self) -> str:
        return f"SubmoduleBasis(ambient={self.ambient}, pivots={len(self.echelon)})"

