import math
import random
import time
from fractions import Fraction

import pytest

from semimat import (action_matrix, assemble_witness, boolean_semiring, certify,
                     enumerate_hom, from_entry_vector, identity, linear_combination,
                     tropical_semiring)
from semimat import linalg
from semimat.linalg import determinant, identity_fractions, solve_linear
from test_matcat import is_upper_triangular

BOOL = boolean_semiring()


def bareiss_oracle(rows):
    """Dense fraction-free (Bareiss) elimination over Fraction, with row swaps.

    The library's determinant before it ran on sparse integer rows; kept
    as the reference the sparse elimination is checked against.
    """
    m = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    for row in a:
        if len(row) != m:
            raise ValueError("determinant needs a square matrix")
    if m == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for kk in range(m - 1):
        if a[kk][kk] == 0:
            swap = next((r for r in range(kk + 1, m) if a[r][kk] != 0), None)
            if swap is None:
                return Fraction(0)
            a[kk], a[swap] = a[swap], a[kk]
            sign = -sign
        pivot = a[kk][kk]
        for i in range(kk + 1, m):
            aik = a[i][kk]
            row_i = a[i]
            row_k = a[kk]
            for j in range(kk + 1, m):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) / prev
            row_i[kk] = Fraction(0)
        prev = pivot
    return sign * a[m - 1][m - 1]


def gauss_jordan_oracle(rows, rhs):
    """Dense Gauss-Jordan elimination over Fraction on rows . c = rhs.

    The library's solve before it ran on sparse integer columns; kept as
    the reference the sparse solve is checked against.  Returns one
    solution, free unknowns set to 0, or None when the system is
    inconsistent.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError(f"{m} equations but {len(rhs)} right-hand sides")
    k = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        if pv != 1:
            aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for pr, pc in pivots:
        sol[pc] = aug[pr][k]
    return sol


def cofactor_det(rows):
    """Independent expansion-by-first-row determinant for small matrices."""
    m = len(rows)
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(m):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = Fraction(rows[0][j]) * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def column_form(rows, rhs):
    """The dense system rows . c = rhs as one sparse column per unknown and a sparse rhs."""
    k = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(k)]
    return columns, {i: v for i, v in enumerate(rhs) if v}


def test_solve_unique():
    sol = solve_linear(*column_form([[2, 0], [0, 4]], [1, 1]))
    assert sol == [Fraction(1, 2), Fraction(1, 4)]


def test_solve_underdetermined_sets_free_to_zero():
    sol = solve_linear(*column_form([[1, 1]], [3]))
    assert sol is not None
    assert sol[0] + sol[1] == 3
    assert Fraction(0) in sol


def test_solve_inconsistent():
    assert solve_linear(*column_form([[1, 1], [1, 1]], [1, 2])) is None
    assert solve_linear(*column_form([[0, 0]], [1])) is None


def test_solve_random_consistent_systems_exactly():
    rng = random.Random(20260809)
    for _ in range(60):
        m = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(k)]
             for _ in range(m)]
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(k)]
        b = [sum(a[i][j] * x[j] for j in range(k)) for i in range(m)]
        sol = solve_linear(*column_form(a, b))
        assert sol is not None
        for i in range(m):
            assert sum(a[i][j] * sol[j] for j in range(k)) == b[i]


def random_system(rng):
    """A small dense system with the shapes the sweep must cover, seeded by ``rng``."""
    m, k = rng.randrange(1, 7), rng.randrange(0, 8)
    density, rational = rng.random(), rng.random() < 0.4

    def entry():
        if rng.random() >= density:
            return 0
        if rational and rng.random() < 0.5:
            return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        return rng.randrange(-3, 4)
    rows = [[entry() for _ in range(k)] for _ in range(m)]
    for _ in range(rng.randrange(3) if k >= 2 else 0):
        # a duplicate, zero or multiple column, or a combination of two others
        i, j, t = (rng.randrange(k) for _ in range(3))
        f, g = rng.choice([0, 1, -2, Fraction(1, 3)]), rng.randrange(-2, 3)
        for row in rows:
            row[t] = f * row[i] + g * row[j]
    if k and rng.random() < 0.5:
        c = [rng.choice([0, 0, 1, -1, Fraction(2, 3)]) for _ in range(k)]
        rhs = [sum(row[j] * c[j] for j in range(k)) for row in rows]
    else:
        rhs = [entry() if rng.random() < 0.8 else rng.randrange(1, 4) for _ in range(m)]
    return rows, rhs


def test_solve_matches_dense_gauss_jordan_on_a_seeded_sweep():
    rng = random.Random(20261018)
    seen = dict.fromkeys(["inconsistent", "rank-deficient", "duplicate", "zero-column",
                          "rational", "no-unknowns", "stops-early"], 0)
    for _ in range(3000):
        rows, rhs = random_system(rng)
        k = len(rows[0])
        sol = solve_linear(*column_form(rows, rhs))
        assert sol == gauss_jordan_oracle(rows, rhs), (rows, rhs)
        columns = [tuple(row[j] for row in rows) for j in range(k)]

        def independent(j):
            return gauss_jordan_oracle([row[:j] for row in rows], list(columns[j])) is None
        pivots = [j for j in range(k) if independent(j)]
        seen["inconsistent"] += sol is None
        seen["rank-deficient"] += len(pivots) < min(len(rows), k)
        seen["duplicate"] += len(set(columns)) < k
        seen["zero-column"] += any(not any(col) for col in columns)
        seen["rational"] += any(type(v) is Fraction and v.denominator > 1
                                for row in rows for v in row)
        seen["no-unknowns"] += k == 0
        if sol is not None:
            # the rhs lies in the span of a prefix that misses a later pivot column
            used = max((j for j in range(k) if sol[j]), default=-1)
            seen["stops-early"] += any(j > used for j in pivots)
    assert all(count >= 50 for count in seen.values()), seen


def test_solve_of_an_empty_system():
    assert solve_linear([], {}) == []
    assert solve_linear([], {0: 1}) is None
    assert solve_linear([{}, {}, {}], {}) == [0, 0, 0]
    assert solve_linear([{}, {"a": 0}], {"a": Fraction(1, 2)}) is None


class Unread(dict):
    """A column that fails the test if the solve reads it."""

    def items(self):
        raise AssertionError("the solve read a column after the residue reached zero")


def test_solve_stops_once_the_rhs_is_reached():
    # the last column is independent of the first two, but the rhs is
    # their combination, so it is never read and its unknown is 0
    sol = solve_linear([{0: 2, 1: 1}, {1: Fraction(1, 3)}, Unread({2: 1})],
                       {0: 4, 1: 3})
    assert sol == [2, 3, 0]
    assert solve_linear([{0: 1}, Unread({0: 1})], {}) == [0, 0]


def test_determinant_known_values():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert determinant([[1, 1], [1, 1]]) == 0
    assert determinant(identity_fractions(5)) == 1


def test_determinant_of_triangular_is_diagonal_product():
    rows = [[Fraction(2), Fraction(5), Fraction(1)],
            [Fraction(0), Fraction(3), Fraction(9)],
            [Fraction(0), Fraction(0), Fraction(4)]]
    assert determinant(rows) == 24


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(m)]
                for _ in range(m)]
        assert determinant(rows) == cofactor_det(rows)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def random_matrix(rng, m, density, rational):
    def entry():
        if rng.random() >= density:
            return 0
        if rational:
            return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        return rng.randrange(-6, 7)
    rows = [[entry() for _ in range(m)] for _ in range(m)]
    shape = rng.randrange(4)
    if shape == 1 and m >= 2:
        # zero leading pivots: the first rows start with zeros, so
        # elimination must swap rows to proceed
        for i in range(rng.randrange(1, m)):
            rows[i][i] = 0
            rows[i][0] = 0
    elif shape == 2 and m >= 2:
        # singular: one row is a rational combination of two others
        i, j, k = (rng.randrange(m) for _ in range(3))
        f, g = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)), rng.randrange(-2, 3)
        rows[k] = [f * a + g * b for a, b in zip(rows[i], rows[j])]
    elif shape == 3:
        # upper triangular with a nonzero diagonal, the construction's case
        for i, row in enumerate(rows):
            row[:i] = [0] * i
            row[i] = row[i] or 1
    return rows


def test_determinant_matches_oracles_on_a_seeded_sweep():
    rng = random.Random(20261018)
    swaps = singular = nonzero = 0
    for _ in range(1200):
        m = rng.randrange(0, 9)
        rows = random_matrix(rng, m, rng.random(), rng.random() < 0.4)
        det = determinant(rows)
        assert type(det) is Fraction
        assert det == bareiss_oracle(rows), rows
        if m <= 5 or rng.random() < 0.03:
            assert det == cofactor_det(rows), rows
        swaps += m >= 2 and rows[0][0] == 0
        singular += det == 0
        nonzero += det != 0
    assert swaps > 100 and singular > 100 and nonzero > 300


def test_determinant_of_a_triangle_is_its_diagonal_product_and_nothing_else_is(monkeypatch):
    # seeded upper triangular matrices with a nonzero diagonal take the
    # triangle route, which makes no row integral; the same with one
    # nonzero below the diagonal, or one zero on it, take the reduction;
    # every one matches both oracles, with int and with Fraction entries
    rows_made = []
    integral = linalg._integral
    monkeypatch.setattr(linalg, "_integral", lambda pairs: rows_made.append(None) or
                        integral(pairs))
    rng = random.Random(2026)

    def entry(rational, nonzero=False):
        value = rng.choice(range(1, 7)) * rng.choice((-1, 1)) if nonzero else rng.randrange(-6, 7)
        return Fraction(value, rng.randrange(1, 5)) if rational else value

    for _ in range(150):
        m = rng.randrange(1, 8)
        rational = rng.random() < 0.5
        triangle = [[0] * i + [entry(rational, nonzero=True)]
                    + [entry(rational) for _ in range(m - i - 1)] for i in range(m)]
        below, zero = [row[:] for row in triangle], [row[:] for row in triangle]
        zero[rng.randrange(m)][rng.randrange(m)] = 0
        i = rng.randrange(m)
        zero[i][i] = 0
        variants = [(triangle, True), (zero, False)]
        if m >= 2:
            i = rng.randrange(1, m)
            below[i][rng.randrange(i)] = entry(rational, nonzero=True)
            variants.append((below, False))
        for rows, is_triangle in variants:
            del rows_made[:]
            det = determinant(rows)
            assert type(det) is Fraction
            assert det == bareiss_oracle(rows) == cofactor_det(rows), rows
            assert (rows_made == []) == is_triangle, rows


def test_determinant_matches_sympy_on_integer_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for density in (0.2, 0.5, 1.0):
        rows = [[rng.randrange(-50, 51) if rng.random() < density else 0 for _ in range(12)]
                for _ in range(12)]
        assert determinant(rows) == sympy.Matrix(rows).det()


@pytest.mark.parametrize("sr, d, x", [(BOOL, 1, 3), (BOOL, 1, 5), (BOOL, 1, 6),
                                      (tropical_semiring(1), 1, 4)],
                         ids=["boolean-1-3", "boolean-1-5", "boolean-1-6", "tropical1-1-4"])
def test_determinant_of_each_construct_x_matches_the_oracle(sr, d, x):
    cert = certify(sr, d, x)
    assert cert.branch == "construct"
    hom = enumerate_hom(sr, d, x)
    mats = [action_matrix(sr, blk.s, hom) for blk in cert.blocks]
    x_matrix = linear_combination(mats, cert.coefficients)
    assert all(type(v) is int for row in x_matrix for v in row)
    assert determinant(x_matrix) == bareiss_oracle(x_matrix) == cert.det_x


def column_swap(x, i, j):
    perm = list(range(x))
    perm[i], perm[j] = j, i
    return from_entry_vector(x, x, [BOOL.one if perm[r] == c else BOOL.zero
                                    for r in range(x) for c in range(x)])


@pytest.mark.parametrize("x", [2, 3])
def test_witness_of_non_triangular_actions_is_not_certified(x):
    hom = enumerate_hom(BOOL, 1, x)
    endos = [identity(BOOL, x)] + [column_swap(x, i, j)
                                   for i in range(x) for j in range(i + 1, x)]
    mats = [action_matrix(BOOL, s, hom) for s in endos]
    assert not all(is_upper_triangular(mat.targets) for mat in mats)
    for coeffs in ([1, -3, Fraction(1, 2), 2][:len(mats)],
                   [Fraction(1, 2), 1, -3, 5][:len(mats)],
                   [1] * len(mats)):
        x_matrix, report = assemble_witness(mats, coeffs)
        assert report.det_by_diagonal == math.prod(report.diagonal)
        assert report.det_by_elimination == bareiss_oracle(x_matrix)
        assert report.det_by_diagonal != report.det_by_elimination


def test_determinant_of_a_dense_triangular_matrix_costs_no_elimination():
    rng = random.Random(300)
    m = 300
    rows = [[0] * i + [rng.randrange(1, 4)] + [rng.randrange(-9, 10) for _ in range(m - i - 1)]
            for i in range(m)]
    product = 1
    for i in range(m):
        product *= rows[i][i]
    start = time.monotonic()
    det = determinant(rows)
    elapsed = time.monotonic() - start
    assert det == product
    assert elapsed < 2.0, f"300x300 triangular determinant took {elapsed:.2f}s"
