"""Exact arithmetic and linear algebra over Z/p^N.

Everything here is integer-exact: residues are plain Python integers
reduced into [0, p^N), and the only structure theory used is that
Z/p^N is a local ring whose elements factor as unit * p^v.  That makes
Smith normal form possible without gcd gymnastics: a pivot of minimal
p-adic valuation divides every remaining entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """Descriptor for the coefficient ring Z/p^N (one prime per session)."""

    p: int
    exponent: int
    # p^N, computed once: reduce and valuation read it per entry.
    char: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not prime")
        if self.exponent < 1:
            raise ValueError("modulus exponent must be >= 1")
        object.__setattr__(self, "char", self.p ** self.exponent)

    def reduce(self, value: int) -> int:
        return value % self.char

    def valuation(self, value: int) -> int:
        """p-adic valuation of value mod p^N; the zero residue gets N."""
        v = value % self.char
        if v == 0:
            return self.exponent
        k = 0
        while v % self.p == 0:
            v //= self.p
            k += 1
        return k

    def unit_part(self, value: int) -> int:
        v = value % self.char
        if v == 0:
            raise ValueError("zero residue has no unit part")
        while v % self.p == 0:
            v //= self.p
        return v % self.char

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
    def identity(cls, modulus: Modulus, n: int) -> "ModularMatrix":
        return cls(modulus, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, modulus: Modulus, rows: int, cols: int) -> "ModularMatrix":
        return cls(modulus, [[0] * cols for _ in range(rows)], cols)

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

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        q = self.modulus.char
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(
                [sum(row[k] * other.entries[k][j] for k in range(self.cols)) % q for j in range(other.cols)]
            )
        return ModularMatrix(self.modulus, out, other.cols)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        q = self.modulus.char
        return tuple(
            sum(self.entries[i][k] * vec[k] for k in range(self.cols)) % q for i in range(self.rows)
        )

    def is_invertible(self) -> bool:
        """A square matrix over the local ring Z/p^N is invertible iff it is mod p."""
        if self.rows != self.cols:
            return False
        p = self.modulus.p
        grid = [[x % p for x in row] for row in self.entries]
        n = self.rows
        for col in range(n):
            piv = next((r for r in range(col, n) if grid[r][col] % p != 0), None)
            if piv is None:
                return False
            grid[col], grid[piv] = grid[piv], grid[col]
            inv = pow(grid[col][col], -1, p)
            grid[col] = [(x * inv) % p for x in grid[col]]
            for r in range(n):
                if r != col and grid[r][col]:
                    f = grid[r][col]
                    grid[r] = [(a - f * b) % p for a, b in zip(grid[r], grid[col])]
        return True

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"ModularMatrix({self.modulus.p}^{self.modulus.exponent}, [{body}])"


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ m @ right == diagonal(diag), with invertible transforms.

    Diagonal entries are normalized to pure powers of p (units absorbed
    into the left transform) and sorted by increasing valuation, zeros last.
    """

    diag: tuple[int, ...]
    left: ModularMatrix
    right: ModularMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> ModularMatrix:
        modulus = self.left.modulus
        grid = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.diag):
            grid[i][i] = d
        return ModularMatrix(modulus, grid, cols)


def smith_normal_form(m: ModularMatrix) -> SmithDecomposition:
    """Smith normal form over Z/p^N.

    Pivot selection: entry of minimal p-adic valuation, ties broken by
    row-major position.  Every other entry has valuation >= the pivot's,
    so elimination quotients are exact integer divisions of canonical
    representatives.
    """
    mod = m.modulus
    q = mod.char
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def scale_row(i, u):
        a[i] = [(x * u) % q for x in a[i]]
        left[i] = [(x * u) % q for x in left[i]]

    def add_row(dst, src, factor):
        a[dst] = [(x + factor * y) % q for x, y in zip(a[dst], a[src])]
        left[dst] = [(x + factor * y) % q for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, factor):
        for r in a:
            r[dst] = (r[dst] + factor * r[src]) % q
        for r in right:
            r[dst] = (r[dst] + factor * r[src]) % q

    k = 0
    limit = min(rows, cols)
    while k < limit:
        best = None
        best_val = mod.exponent
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0:
                    v = mod.valuation(a[i][j])
                    if v < best_val:
                        best_val = v
                        best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            swap_rows(k, bi)
        if bj != k:
            swap_cols(k, bj)
        # Normalize pivot to p^v exactly.
        scale_row(k, mod.inverse(mod.unit_part(a[k][k])))
        piv = a[k][k]
        for i in range(k + 1, rows):
            if a[i][k]:
                add_row(i, k, -(a[i][k] // piv))
        for j in range(k + 1, cols):
            if a[k][j]:
                add_col(j, k, -(a[k][j] // piv))
        k += 1

    # Sort diagonal by valuation (zeros, valuation N, go last).
    for pos in range(limit):
        best = min(range(pos, limit), key=lambda i: (mod.valuation(a[i][i]), i))
        if best != pos:
            swap_rows(pos, best)
            swap_cols(pos, best)

    diag = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(diag, ModularMatrix(mod, left), ModularMatrix(mod, right))


def solve_linear(m: ModularMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One solution x of m @ x = b over Z/p^N, or None when none exists."""
    if len(b) != m.rows:
        raise ValueError("dimension mismatch")
    mod = m.modulus
    q = mod.char
    snf = smith_normal_form(m)
    c = snf.left.apply(b)
    y = [0] * m.cols
    for i in range(m.rows):
        rhs = c[i]
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d == 0:
            if rhs % q != 0:
                return None
            continue
        v = mod.valuation(d)
        if mod.valuation(rhs) < v:
            return None
        y[i] = (rhs // (mod.p ** v)) % q
    return snf.right.apply(y)


def kernel_basis(m: ModularMatrix) -> list[tuple[int, ...]]:
    """Generators of {x : m @ x = 0} over Z/p^N."""
    mod = m.modulus
    snf = smith_normal_form(m)
    gens = []
    for j in range(m.cols):
        if j < len(snf.diag):
            v = mod.valuation(snf.diag[j])
            if v == 0:
                continue
            scale = mod.p ** (mod.exponent - v)
        else:
            scale = 1
        col = tuple((scale * snf.right.entries[i][j]) % mod.char for i in range(m.cols))
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
    """

    __slots__ = ("modulus", "ambient", "echelon")

    def __init__(self, modulus: Modulus, ambient: int, generators: Iterable[Sequence[int]]):
        self.modulus = modulus
        self.ambient = ambient
        gens = []
        for g in generators:
            if len(g) != ambient:
                raise ValueError("generator length mismatch")
            gens.append(tuple(modulus.reduce(x) for x in g))
        self.echelon = self._howell(gens)

    def _howell(self, rows: list[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        mod = self.modulus
        q = mod.char
        pivots: dict[int, list[int]] = {}
        todo = [list(r) for r in rows if any(r)]
        while todo:
            r = todo.pop()
            while True:
                col = next((j for j, x in enumerate(r) if x), None)
                if col is None:
                    break
                v = mod.valuation(r[col])
                if col in pivots:
                    pc = pivots[col]
                    pv = mod.valuation(pc[col])
                    if v >= pv:
                        f = r[col] // pc[col]
                        r = [(x - f * y) % q for x, y in zip(r, pc)]
                        continue
                    # Lower valuation wins the pivot; recycle the old row.
                    todo.append(pc)
                u = mod.inverse(mod.unit_part(r[col]))
                r = [(x * u) % q for x in r]
                pivots[col] = r
                if v > 0:
                    ann = mod.p ** (mod.exponent - v)
                    todo.append([(ann * x) % q for x in r])
                break
        # Reduce entries above each pivot into [0, p^v).
        cols = sorted(pivots)
        for idx in range(len(cols) - 1, -1, -1):
            c = cols[idx]
            piv = pivots[c]
            pval = piv[c]
            for c2 in cols[:idx]:
                row = pivots[c2]
                if row[c]:
                    f = row[c] // pval
                    pivots[c2] = [(x - f * y) % q for x, y in zip(row, piv)]
        return tuple(tuple(pivots[c]) for c in cols)

    def reduce_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of vec modulo this submodule."""
        if len(vec) != self.ambient:
            raise ValueError("ambient rank mismatch")
        mod = self.modulus
        q = mod.char
        r = [mod.reduce(x) for x in vec]
        for row in self.echelon:
            col = next(j for j, x in enumerate(row) if x)
            f = r[col] // row[col]
            if f:
                r = [(x - f * y) % q for x, y in zip(r, row)]
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

