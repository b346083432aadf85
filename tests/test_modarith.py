"""Linear algebra over Z/p^N against brute-force oracles."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import modarith_reference as reference
from wittcert import modarith, wittvec
from wittcert.dieudonne import DieudonneModel, a1_model
from wittcert.modarith import (
    ModularMatrix,
    Modulus,
    SubmoduleBasis,
    check_prime,
    is_prime,
    kernel_basis,
    smith_normal_form,
    solve_linear,
)
from wittcert.polyring import PolyRing

DESK_MODULI = [Modulus(2, 1), Modulus(2, 2), Modulus(3, 1), Modulus(3, 3), Modulus(5, 2)]


def identity(mod, n):
    return ModularMatrix(mod, [[int(i == j) for j in range(n)] for i in range(n)], n)


def random_matrix(rng, mod, rows, cols):
    return ModularMatrix(mod, [[rng.randrange(mod.char) for _ in range(cols)] for _ in range(rows)], cols)


def determinant(grid):
    """Integer determinant by cofactor expansion along the first row; desk scale only."""
    if not grid:
        return 1
    return sum(
        (-1) ** j * x * determinant([row[:j] + row[j + 1:] for row in grid[1:]])
        for j, x in enumerate(grid[0])
        if x
    )


def smith_transform(mat):
    """The diagonal and the column transform that `_eliminate` makes of an
    identity transform, as `kernel_basis` reads them."""
    right = [[int(i == j) for j in range(mat.cols)] for i in range(mat.cols)]
    diag = modarith._eliminate([list(row) for row in mat.entries], mat.cols, mat.modulus.char, right)
    return tuple(diag), ModularMatrix(mat.modulus, right, mat.cols)


def assert_smith_form(mat):
    """The Smith form of `mat` against oracles that need no row transform.

    Diagonal (`smith_normal_form`): pure powers of p or zero, sorted by
    valuation, and for each k the least valuation of the k x k minors of
    mat (the k-th determinantal divisor, which invertible transforms
    preserve) is the sum of the first k diagonal valuations, both capped at
    N.  Column transform (`smith_transform`, with the same diagonal): its
    rows span the whole module (their Howell form is the identity), and
    column j of mat @ right is divisible by diag[j], zero past the diagonal.
    """
    mod = mat.modulus
    diag = smith_normal_form(mat)
    vals = [mod.valuation(d) for d in diag]
    assert len(vals) == min(mat.rows, mat.cols)
    assert vals == sorted(vals)
    assert all(d == (mod.p ** v if v < mod.exponent else 0) for d, v in zip(diag, vals))
    for k in range(1, len(vals) + 1):
        minors = (
            determinant([[mat.entries[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(mat.rows), k)
            for cols in itertools.combinations(range(mat.cols), k)
        )
        assert min(mod.valuation(d) for d in minors) == min(mod.exponent, sum(vals[:k]))
    eliminated, right = smith_transform(mat)
    assert eliminated == diag
    assert SubmoduleBasis(mod, mat.cols, right.entries).echelon == identity(mod, mat.cols).entries
    for j in range(mat.cols):
        image = mat.apply([row[j] for row in right.entries])
        least = vals[j] if j < len(vals) else mod.exponent
        assert all(mod.valuation(x) >= least for x in image), (j, image)


def brute_force_span(mod, gens, ambient):
    """Every Z/p^N combination of the generators; desk scale only."""
    q = mod.char
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(gens)):
        vec = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % q for i in range(ambient))
        span.add(vec)
    return span


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(7, 0)
    assert Modulus(7, 2).char == 49


def test_modulus_valuation_and_non_unit_inverse():
    m = Modulus(3, 2)
    assert m.valuation(7) == 0
    assert m.valuation(3) == 1
    assert m.valuation(0) == 2
    with pytest.raises(ValueError):
        m.inverse(3)


def test_zero_row_matrices_keep_their_column_count():
    m = Modulus(2, 3)
    empty = ModularMatrix.from_columns(m, [(), ()], 0)
    assert (empty.rows, empty.cols) == (0, 2)
    zero = ModularMatrix(m, [], 3)
    assert (zero.rows, zero.cols) == (0, 3)
    assert zero != ModularMatrix(m, [], 2)
    assert ModularMatrix(m, [[], [], []], 0).apply(()) == (0, 0, 0)
    assert zero.apply((1, 2, 3)) == ()
    assert smith_normal_form(zero) == ()
    assert smith_transform(zero) == ((), identity(m, 3))
    assert kernel_basis(zero) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve_linear(zero, ()) == (0, 0, 0)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _witt(p):
    # zero coordinates: should a check go missing, the op still ends at once
    return wittvec.witt_vector(wittvec.IntegerCoefficients(), p, [0, 0])


# every entry point that takes a prime, each through `check_prime`
PRIME_ENTRY_POINTS = {
    "check_prime": check_prime,
    "Modulus": lambda p: Modulus(p, 1),
    "PolyRing": lambda p: PolyRing(p, ()),
    "model-document": lambda p: DieudonneModel.from_json({"p": p, "N": 1, "basis": []}),
    "a1_model": lambda p: a1_model(p, 1, 2),
    "witt_add": lambda p: wittvec.witt_add(_witt(p), _witt(p)),
    "verschiebung": lambda p: wittvec.verschiebung(_witt(p)),
    "ghost": lambda p: wittvec.ghost(_witt(p)),
    "teichmuller": lambda p: wittvec.teichmuller(wittvec.IntegerCoefficients(), 2, 2, p=p),
}


@pytest.mark.parametrize("entry", sorted(PRIME_ENTRY_POINTS))
@pytest.mark.parametrize("p,message", [
    (1, "p must satisfy 2 <= p < 2^16"),
    (2 ** 16, "p must satisfy 2 <= p < 2^16"),
    # a prime trial division would take minutes to pass: refused by its range at once
    (2 ** 61 - 1, "p must satisfy 2 <= p < 2^16"),
    (2 ** 16 - 1, "65535 is not prime"),
])
def test_one_prime_rule_bounds_p_before_trial_division(entry, p, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        PRIME_ENTRY_POINTS[entry](p)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == message


def test_smith_diagonal_already_diagonal():
    m = Modulus(2, 3)
    mat = ModularMatrix(m, [[2, 0], [0, 4]])
    assert smith_normal_form(mat) == (2, 4)
    assert_smith_form(mat)


def test_smith_zero_matrix():
    m = Modulus(3, 2)
    assert smith_normal_form(ModularMatrix(m, [[0, 0], [0, 0]])) == (0, 0)


def test_smith_rank_one_over_z9():
    m = Modulus(3, 2)
    mat = ModularMatrix(m, [[1, 1], [1, 1]])
    assert smith_normal_form(mat) == (1, 0)
    assert_smith_form(mat)


@pytest.mark.parametrize("seed", range(6))
def test_smith_transform_identity_random(seed):
    rng = random.Random(seed)
    for mod in DESK_MODULI:
        mat = random_matrix(rng, mod, rng.randint(1, 4), rng.randint(1, 4))
        assert_smith_form(mat)


@pytest.mark.parametrize("seed", range(8))
def test_smith_diagonal_matches_determinantal_divisors(seed):
    # low-rank and p-divisible matrices, where the diagonal has non-units and zeros
    rng = random.Random(700 + seed)
    for mod in DESK_MODULI:
        rows, cols, rank = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3)
        left, right = random_matrix(rng, mod, rows, rank), random_matrix(rng, mod, rank, cols)
        entries = [[sum(a * b for a, b in zip(row, col)) * rng.choice([1, mod.p]) for col in zip(*right.entries)]
                   for row in left.entries]
        mat = ModularMatrix(mod, entries, cols)
        assert_smith_form(mat)


@pytest.mark.parametrize("seed", range(6))
def test_smith_without_transforms_matches_the_full_form(seed):
    rng = random.Random(300 + seed)
    for mod in DESK_MODULI:
        mat = random_matrix(rng, mod, rng.randint(0, 4), rng.randint(0, 4))
        assert smith_normal_form(mat) == smith_transform(mat)[0]


def test_trusted_columns_match_from_columns():
    mod = Modulus(3, 2)
    for columns, ambient in [([(1, 8), (0, 3), (4, 4)], 2), ([], 3), ([(), ()], 0), ([], 0)]:
        trusted = ModularMatrix._trusted_columns(mod, columns, ambient)
        checked = ModularMatrix.from_columns(mod, columns, ambient)
        assert trusted == checked
        assert (trusted.rows, trusted.cols) == (checked.rows, checked.cols) == (ambient, len(columns))


def test_membership_trivial_cases():
    m = Modulus(5, 2)
    s = SubmoduleBasis(m, 2, [(5, 0)])
    assert s.contains((0, 0))
    assert s.contains((5, 0))
    assert not s.contains((1, 0))
    with pytest.raises(ValueError):
        s.contains((1, 0, 0))


@pytest.mark.parametrize("seed", range(8))
def test_membership_agrees_with_enumeration(seed):
    rng = random.Random(100 + seed)
    for mod in [Modulus(2, 2), Modulus(3, 3), Modulus(5, 1)]:
        if mod.char > 27:
            continue
        ambient = rng.randint(1, 3)
        gens = [tuple(rng.randrange(mod.char) for _ in range(ambient)) for _ in range(rng.randint(0, 3))]
        basis = SubmoduleBasis(mod, ambient, gens)
        span = brute_force_span(mod, gens, ambient)
        for _ in range(12):
            v = tuple(rng.randrange(mod.char) for _ in range(ambient))
            assert basis.contains(v) == (v in span)
        for v in list(span)[:12]:
            assert basis.contains(v)


@pytest.mark.parametrize("seed", range(8))
def test_howell_form_is_generator_independent(seed):
    rng = random.Random(200 + seed)
    mod = Modulus(2, 3)
    ambient = 3
    gens = [tuple(rng.randrange(8) for _ in range(ambient)) for _ in range(3)]
    a = SubmoduleBasis(mod, ambient, gens)
    shuffled = gens[::-1]
    mixed = gens + [tuple((x + y) % 8 for x, y in zip(gens[0], gens[1]))]
    assert a == SubmoduleBasis(mod, ambient, shuffled)
    assert a == SubmoduleBasis(mod, ambient, mixed)


def test_howell_form_reduces_above_pivots_left_to_right():
    # reducing (2, 2, 0) by the pivot row (0, 1, 1) puts 2 back above the
    # pivot 2 of column 2, so that column must be reduced after column 1
    mod = Modulus(2, 2)
    spanned = SubmoduleBasis(mod, 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (0, 1, 1)])
    assert spanned.echelon == ((2, 0, 0), (0, 1, 1), (0, 0, 2))
    assert spanned == SubmoduleBasis(mod, 3, [(2, 0, 0), (0, 1, 1), (0, 0, 2)])


@pytest.mark.parametrize("seed", range(4))
def test_howell_form_is_canonical_on_random_spans(seed):
    # the form of a span equals that of its own rows plus random combinations
    rng = random.Random(500 + seed)
    for _ in range(150):
        mod = rng.choice([Modulus(2, 2), Modulus(2, 3), Modulus(3, 2), Modulus(5, 2)])
        ambient = rng.randint(1, 5)
        gens = [tuple(rng.randrange(mod.char) * rng.choice([1, mod.p]) for _ in range(ambient))
                for _ in range(rng.randint(0, 5))]
        form = SubmoduleBasis(mod, ambient, gens)
        combos = []
        for _ in range(3):
            coeffs = [rng.randrange(mod.char) for _ in gens]
            combos.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(ambient)))
        assert SubmoduleBasis(mod, ambient, list(form.echelon)[::-1] + combos) == form
        for row in form.echelon:
            pivot = next(j for j, x in enumerate(row) if x)
            for other in form.echelon:
                if other is not row and other[pivot]:
                    assert other[pivot] < row[pivot]


def test_solve_trivial_and_zero_divisor():
    m = Modulus(5, 2)
    assert solve_linear(identity(m, 3), (3, 7, 24)) == (3, 7, 24)
    pmat = ModularMatrix(m, [[5]])
    assert solve_linear(pmat, (1,)) is None
    x = solve_linear(pmat, (5,))
    assert x is not None and (5 * x[0]) % 25 == 5


def test_solve_without_a_unit_kernel_coordinate():
    # 4y = 2 has no solution mod 8, so every generator of the kernel of
    # [m | -b] has an even last coordinate, though not every one is zero
    mod = Modulus(2, 3)
    mat = ModularMatrix(mod, [[2, 1], [0, 4]])
    b = (3, 2)
    gens = kernel_basis(ModularMatrix(mod, [[2, 1, -3], [0, 4, -2]]))
    assert gens and all(g[-1] % 2 == 0 for g in gens) and any(g[-1] for g in gens)
    assert not any(mat.apply(x) == b for x in itertools.product(range(8), repeat=2))
    assert solve_linear(mat, b) is None


@pytest.mark.parametrize("seed", range(8))
def test_solve_agrees_with_enumeration(seed):
    rng = random.Random(300 + seed)
    for mod in [Modulus(2, 2), Modulus(3, 2)]:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        mat = ModularMatrix(mod, [[rng.randrange(mod.char) for _ in range(cols)] for _ in range(rows)])
        b = tuple(rng.randrange(mod.char) for _ in range(rows))
        solutions = [
            x
            for x in itertools.product(range(mod.char), repeat=cols)
            if mat.apply(x) == tuple(v % mod.char for v in b)
        ]
        got = solve_linear(mat, b)
        if solutions:
            assert got is not None and mat.apply(got) == tuple(v % mod.char for v in b)
        else:
            assert got is None


@pytest.mark.parametrize("seed", range(6))
def test_kernel_basis_generates_kernel(seed):
    rng = random.Random(400 + seed)
    mod = Modulus(3, 2)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    mat = ModularMatrix(mod, [[rng.randrange(9) for _ in range(cols)] for _ in range(rows)])
    gens = kernel_basis(mat)
    for g in gens:
        assert not any(mat.apply(g))
    span = brute_force_span(mod, gens, cols)
    true_kernel = {
        x for x in itertools.product(range(9), repeat=cols) if not any(mat.apply(x))
    }
    assert span == true_kernel


def test_kernel_generators_are_scaled_columns_of_an_invertible_transform():
    """The contract the closed-form cohomology of a block with no
    boundaries reads: for the generators z_j and g_j = gcd(p^N, z_j) =
    p^(N - v_j), sum x_j z_j = 0 exactly when p^(v_j) divides every x_j,
    with 0 < v_j <= N.  Matrices have 0-4 rows and 1-5 columns, so many
    have columns past the diagonal, and entries of every valuation."""
    rng = random.Random(36)
    past_diagonal = 0
    for _ in range(400):
        p, exponent = rng.choice((2, 3, 5)), rng.randint(1, 4)
        mod, q = Modulus(p, exponent), p ** exponent
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        past_diagonal += cols > rows
        entries = [[rng.randrange(q) * p ** rng.randrange(exponent + 1) % q for _ in range(cols)] for _ in range(rows)]
        gens = kernel_basis(ModularMatrix(mod, entries, cols))
        orders = [exponent - mod.valuation(math.gcd(q, *z)) for z in gens]
        assert all(0 < v <= exponent for v in orders)
        for _ in range(30):
            x = [rng.randrange(1, q) * p ** rng.randrange(v + 1) % q for v in orders]
            combination = [sum(c * z[i] for c, z in zip(x, gens)) % q for i in range(cols)]
            assert (not any(combination)) == all(c % p ** v == 0 for c, v in zip(x, orders))
    assert past_diagonal > 100


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=26), min_size=2, max_size=2))
def test_reduce_vector_is_canonical(vec):
    mod = Modulus(3, 3)
    basis = SubmoduleBasis(mod, 2, [(3, 1), (0, 9)])
    reduced = basis.reduce_vector(vec)
    assert basis.contains(tuple((a - b) % 27 for a, b in zip(vec, reduced)))
    # Reducing twice is stable.
    assert basis.reduce_vector(reduced) == reduced


# -- the Howell and Smith forms against the earlier forms (`modarith_reference`) --

REFERENCE_MODULI = ([Modulus(2, e) for e in range(1, 7)] + [Modulus(3, e) for e in range(1, 6)]
                    + [Modulus(5, e) for e in range(1, 4)])


def drawn_rows(rng, mod, ambient, count):
    """`count` rows of length `ambient`: entries of every valuation, some of
    them zero, with zero rows and repeated rows mixed in."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append((0,) * ambient)
        elif kind < 0.3 and rows:
            rows.append(rng.choice(rows))
        else:
            rows.append(tuple(
                0 if rng.random() < 0.3 else rng.randrange(mod.char) * mod.p ** rng.randrange(mod.exponent)
                for _ in range(ambient)
            ))
    return rows


@pytest.mark.parametrize("mod", REFERENCE_MODULI, ids=lambda m: f"{m.p}^{m.exponent}")
def test_valuation_by_gcd_matches_division(mod):
    for x in range(-mod.char, 2 * mod.char):
        assert mod.valuation(x) == reference.valuation(mod.p, mod.exponent, x)


def reference_draws(mod):
    """(ambient, generator count, rows) for every ambient and generator
    count from 0 to 5, ten draws each, from one seed per modulus."""
    rng = random.Random(3000 + 100 * mod.p + mod.exponent)
    for ambient in range(6):
        for count in range(6):
            for _ in range(10):
                yield ambient, count, drawn_rows(rng, mod, ambient, count)


@pytest.mark.parametrize("mod", REFERENCE_MODULI, ids=lambda m: f"{m.p}^{m.exponent}")
def test_howell_and_smith_forms_match_the_reference_forms(mod):
    """360 drawn inputs per modulus, 5040 in all: every ambient and generator
    count from 0 to 5, ten draws each.  The Howell rows must be the same
    tuples; the Smith form of the rows and of their transpose must give the
    same diagonal, `_eliminate` from an identity transform the same diagonal
    and column transform, and `kernel_basis` the same kernel generators."""
    p, e = mod.p, mod.exponent
    for ambient, count, rows in reference_draws(mod):
        assert SubmoduleBasis(mod, ambient, rows).echelon == reference.howell_rows(p, e, rows)
        transpose = [tuple(r[i] for r in rows) for i in range(ambient)]
        for entries, cols in ((rows, ambient), (transpose, count)):
            m = ModularMatrix(mod, entries, cols)
            diag, right = reference.smith_form(p, e, entries, cols)
            assert smith_normal_form(m) == diag
            assert smith_transform(m) == (diag, ModularMatrix._trusted(mod, right, cols))
            assert kernel_basis(m) == reference.kernel_generators(p, e, entries, cols)


@pytest.mark.parametrize("mod", REFERENCE_MODULI, ids=lambda m: f"{m.p}^{m.exponent}")
def test_the_elimination_and_the_trusted_span_match_the_reference_forms(mod):
    """On the same 5040 drawn inputs: `_eliminate`, which `kernel_basis`
    reads directly, gives the reference diagonal and column transform, with
    and without the transform, and `SubmoduleBasis._trusted` on the reduced
    rows, zero rows and repeats included, the reference Howell rows."""
    p, e, q = mod.p, mod.exponent, mod.char
    for ambient, count, rows in reference_draws(mod):
        residues = [[x % q for x in row] for row in rows]
        assert SubmoduleBasis._trusted(mod, ambient, [row[:] for row in residues]).echelon == (
            reference.howell_rows(p, e, rows))
        transpose = [[row[i] for row in residues] for i in range(ambient)]
        for entries, cols in ((residues, ambient), (transpose, count)):
            diag, right = reference.smith_form(p, e, entries, cols)
            transform = [[int(i == j) for j in range(cols)] for i in range(cols)]
            assert modarith._eliminate([row[:] for row in entries], cols, q, transform) == list(diag)
            assert tuple(map(tuple, transform)) == right
            assert modarith._eliminate([row[:] for row in entries], cols, q, []) == list(diag)


@pytest.mark.parametrize("mod", [Modulus(p, e) for p in (2, 3, 5) for e in range(1, 6)],
                         ids=lambda m: f"{m.p}^{m.exponent}")
def test_ambient_one_spans_match_the_reference_howell_form(mod):
    """A span in ambient 1 is the ideal of the gcd g of its residues with
    p^N, whose form is the row (g,), or no row when g = p^N.  Seeded draws
    of 0 to 4 rows, with zero rows, multiples of p^N and integers outside
    [0, p^N), through the constructor and through `_trusted` on their
    residues, give the reference Howell rows, the zero span included."""
    p, e, q = mod.p, mod.exponent, mod.char
    rng = random.Random(4000 + 100 * p + e)
    zero_spans = 0
    for count in range(5):
        for _ in range(40):
            values = [rng.choice([0, q, rng.randrange(-3 * q, 3 * q), p ** rng.randint(0, e) * rng.randrange(1, q)])
                      for _ in range(count)]
            rows = [(x,) for x in values]
            expected = reference.howell_rows(p, e, rows)
            assert SubmoduleBasis(mod, 1, rows).echelon == expected
            assert SubmoduleBasis._trusted(mod, 1, [[x % q] for x in values]).echelon == expected
            zero_spans += count > 0 and expected == ()
    assert zero_spans > 0


# -- kernels of one-row matrices and Smith forms of one-row or one-column matrices --

def eliminated_kernel(mat):
    """The kernel generators read off `_eliminate` from an identity
    transform, the route `kernel_basis` takes for two or more rows."""
    q = mat.modulus.char
    diag, right = smith_transform(mat)
    gens = []
    for j in range(mat.cols):
        scale = q // diag[j] if j < len(diag) and diag[j] else 1
        col = tuple(scale * row[j] % q for row in right.entries)
        if scale < q and any(col):
            gens.append(col)
    return gens


def one_pivot_draws(rng, count):
    """`count` seeded rows over Z/p^N, p in {2, 3, 5, 7} and N <= 6, of
    width 1 to 8: entries of every valuation and zeros, a tenth of the rows
    all zero.  Yields (modulus, row)."""
    for _ in range(count):
        p, e = rng.choice((2, 3, 5, 7)), rng.randint(1, 6)
        mod = Modulus(p, e)
        width = rng.randint(1, 8)
        if rng.random() < 0.1:
            yield mod, [0] * width
        else:
            yield mod, [0 if rng.random() < 0.25 else rng.randrange(1, mod.char) * p ** rng.randrange(e) % mod.char
                        for _ in range(width)]


def test_one_pivot_forms_match_the_elimination_and_the_reference_forms():
    """Seeded one-row matrices: `kernel_basis`, read off the one pivot, gives
    the generators of the `_eliminate` route and of the reference, in the
    same order.  The same rows as one-row, one-column, 0 x n and n x 0
    matrices: `smith_normal_form` gives the diagonal of `_eliminate` and of
    the reference.  All-zero rows, ties among the least valuations and a
    first unit past the first entry each come up more than 100 times."""
    rng = random.Random(38)
    seen = dict.fromkeys(("zero row", "tie", "later unit"), 0)
    for mod, row in one_pivot_draws(rng, 3000):
        p, e, q, width = mod.p, mod.exponent, mod.char, len(row)
        gcds = [math.gcd(x, q) for x in row]
        seen["zero row"] += not any(row)
        seen["tie"] += any(row) and gcds.count(min(gcds)) > 1
        seen["later unit"] += gcds[0] != 1 and 1 in gcds
        for entries, cols in (([row], width), ([], width)):
            m = ModularMatrix(mod, entries, cols)
            assert kernel_basis(m) == eliminated_kernel(m) == reference.kernel_generators(p, e, entries, cols)
        for entries, cols in (([row], width), ([(x,) for x in row], 1), ([], width), ([()] * width, 0)):
            m = ModularMatrix(mod, entries, cols)
            eliminated = modarith._eliminate([list(r) for r in m.entries], cols, q, [])
            assert smith_normal_form(m) == tuple(eliminated) == reference.smith_form(p, e, entries, cols)[0]
    assert min(seen.values()) > 100, seen


def test_one_pivot_forms_make_no_elimination(monkeypatch):
    """With `_eliminate` refusing to run, kernels of matrices with at most
    one row, and Smith forms of matrices with at most one row or column,
    still answer as before; a matrix of two rows and columns does reach it."""
    rng = random.Random(380)
    cases = []
    for mod, row in one_pivot_draws(rng, 200):
        for entries, cols in (([row], len(row)), ([(x,) for x in row], 1), ([], len(row)), ([()] * len(row), 0)):
            m = ModularMatrix(mod, entries, cols)
            cases.append((m, smith_normal_form(m), kernel_basis(m) if m.rows <= 1 else None))

    def refuse(*args):
        raise RuntimeError("eliminated")

    monkeypatch.setattr(modarith, "_eliminate", refuse)
    for m, diag, kernel in cases:
        assert smith_normal_form(m) == diag
        if kernel is not None:
            assert kernel_basis(m) == kernel
    two_by_two = ModularMatrix(Modulus(3, 2), [[1, 3], [3, 0]])
    for form in (smith_normal_form, kernel_basis):
        with pytest.raises(RuntimeError, match="eliminated"):
            form(two_by_two)


def test_a_wrong_length_generator_is_refused():
    mod = Modulus(3, 2)
    for generators in ([(1, 2, 3)], [(1, 2), (4,)], [()]):
        with pytest.raises(ValueError, match="generator length mismatch"):
            SubmoduleBasis(mod, 2, generators)
