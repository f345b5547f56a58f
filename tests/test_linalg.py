import random
import time
from fractions import Fraction

import pytest

from semimat import (action_matrix, assemble_witness, boolean_semiring, certify,
                     enumerate_hom, from_entry_vector, identity, linear_combination,
                     tropical_semiring)
from semimat.linalg import determinant, identity_fractions, solve_linear

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


def test_solve_unique():
    sol = solve_linear([[2, 0], [0, 4]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 4)]


def test_solve_underdetermined_sets_free_to_zero():
    sol = solve_linear([[1, 1]], [3])
    assert sol is not None
    assert sol[0] + sol[1] == 3
    assert Fraction(0) in sol


def test_solve_inconsistent():
    assert solve_linear([[1, 1], [1, 1]], [1, 2]) is None
    assert solve_linear([[0, 0]], [1]) is None


def test_solve_random_consistent_systems_exactly():
    rng = random.Random(20260809)
    for _ in range(60):
        m = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(k)]
             for _ in range(m)]
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(k)]
        b = [sum(a[i][j] * x[j] for j in range(k)) for i in range(m)]
        sol = solve_linear(a, b)
        assert sol is not None
        for i in range(m):
            assert sum(a[i][j] * sol[j] for j in range(k)) == b[i]


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
    assert not all(mat.is_upper_triangular() for mat in mats)
    for coeffs in ([1, -3, Fraction(1, 2), 2][:len(mats)],
                   [Fraction(1, 2), 1, -3, 5][:len(mats)],
                   [1] * len(mats)):
        x_matrix, report = assemble_witness(mats, coeffs)
        assert not report.triangular
        assert report.det_by_diagonal is None
        assert report.det_by_elimination == bareiss_oracle(x_matrix)
        assert not report.certified


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
