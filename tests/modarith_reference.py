"""Reference Howell and Smith forms over Z/p^N, kept as test oracles.

These are the earlier `SubmoduleBasis._howell`, `smith_normal_form` and
`kernel_basis` of `wittcert.modarith`, written against valuations found by
dividing by p in a loop.  The library's forms read valuations off
gcd(x, p^N) and reduce rows in place; `tests/test_modarith.py` requires
them to return exactly what these return.
"""

from typing import Optional, Sequence


def valuation(p: int, exponent: int, value: int) -> int:
    """p-adic valuation of value mod p^exponent; the zero residue gets exponent."""
    v = value % p ** exponent
    if v == 0:
        return exponent
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def unit_part(p: int, exponent: int, value: int) -> int:
    q = p ** exponent
    v = value % q
    if v == 0:
        raise ValueError("zero residue has no unit part")
    while v % p == 0:
        v //= p
    return v % q


def howell_rows(p: int, exponent: int, rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The Howell echelon rows of the span of `rows`, residues mod p^exponent."""
    q = p ** exponent
    pivots: dict[int, list[int]] = {}
    todo = [[x % q for x in r] for r in rows]
    todo = [r for r in todo if any(r)]
    while todo:
        r = todo.pop()
        while True:
            col = next((j for j, x in enumerate(r) if x), None)
            if col is None:
                break
            v = valuation(p, exponent, r[col])
            if col in pivots:
                pc = pivots[col]
                pv = valuation(p, exponent, pc[col])
                if v >= pv:
                    f = r[col] // pc[col]
                    r = [(x - f * y) % q for x, y in zip(r, pc)]
                    continue
                todo.append(pc)
            unit = unit_part(p, exponent, r[col])
            if unit != 1:
                u = pow(unit, -1, q)
                r = [(x * u) % q for x in r]
            pivots[col] = r
            if v > 0:
                ann = p ** (exponent - v)
                todo.append([(ann * x) % q for x in r])
            break
    cols = sorted(pivots)
    for idx, c in enumerate(cols):
        piv = pivots[c]
        pval = piv[c]
        for c2 in cols[:idx]:
            row = pivots[c2]
            if row[c]:
                f = row[c] // pval
                pivots[c2] = [(x - f * y) % q for x, y in zip(row, piv)]
    return tuple(tuple(pivots[c]) for c in cols)


def smith_form(p: int, exponent: int, entries: Sequence[Sequence[int]], cols: int,
               right: bool = True) -> tuple[tuple[int, ...], Optional[tuple[tuple[int, ...], ...]]]:
    """(diag, right transform rows or None) of the matrix with these rows."""
    q = p ** exponent
    a = [[x % q for x in row] for row in entries]
    rows = len(a)
    rt = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if right else None

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in rt or ():
            r[i], r[j] = r[j], r[i]

    def add_col(dst, src, factor):
        for r in a:
            r[dst] = (r[dst] + factor * r[src]) % q
        for r in rt or ():
            r[dst] = (r[dst] + factor * r[src]) % q

    def pivot(k):
        best = None
        best_val = exponent
        for i in range(k, rows):
            row = a[i]
            for j in range(k, cols):
                x = row[j]
                if x:
                    if x % p:
                        return i, j
                    v = valuation(p, exponent, x)
                    if v < best_val:
                        best_val = v
                        best = (i, j)
        return best

    limit = min(rows, cols)
    for k in range(limit):
        best = pivot(k)
        if best is None:
            break
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        if bj != k:
            swap_cols(k, bj)
        unit = unit_part(p, exponent, a[k][k])
        if unit != 1:
            u = pow(unit, -1, q)
            a[k] = [(x * u) % q for x in a[k]]
        piv = a[k]
        for j in range(k + 1, cols):
            if piv[j]:
                add_col(j, k, -(piv[j] // piv[k]))

    diag = tuple(a[i][i] for i in range(limit))
    return diag, tuple(map(tuple, rt)) if right else None


def kernel_generators(p: int, exponent: int, entries: Sequence[Sequence[int]], cols: int) -> list[tuple[int, ...]]:
    """The earlier `kernel_basis` of the matrix with these rows."""
    q = p ** exponent
    diag, right = smith_form(p, exponent, entries, cols)
    gens = []
    for j in range(cols):
        if j < len(diag):
            v = valuation(p, exponent, diag[j])
            if v == 0:
                continue
            scale = p ** (exponent - v)
        else:
            scale = 1
        col = tuple((scale * right[i][j]) % q for i in range(cols))
        if any(col):
            gens.append(col)
    return gens
