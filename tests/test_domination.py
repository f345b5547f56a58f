import itertools
import random
import time
from fractions import Fraction

import pytest

from semimat import (ActionMatrix, CapExceededError, Morphism, action_matrix,
                     assemble_witness, boolean_semiring, certify,
                     column_preorder, compose, endomorphisms_through,
                     enumerate_hom, from_entry_vector, identity,
                     identity_in_span, linear_combination,
                     nonvanishing_coefficients, span_oracle, tropical_semiring,
                     zero_morphism)
import semimat.domination as domination
from semimat.domination import DEFAULT_PAIR_CAP
from semimat.linalg import identity_fractions
from semimat.matcat import row_table
from test_matcat import CHAIN3, is_identity, is_upper_triangular

BOOL = boolean_semiring()
TROP1 = tropical_semiring(1)


def all_endos(sr, x):
    return [from_entry_vector(x, x, vec)
            for vec in itertools.product(range(sr.size), repeat=x * x)]


def entry(mat, i, j):
    """Entry (i, j) of an action matrix, read off its targets."""
    return Fraction(1) if mat.targets[i] == j else Fraction(0)


def dense_matmul(a, b):
    m = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


def test_action_matrix_examples_d1_x1():
    hom = enumerate_hom(BOOL, 1, 1)
    m_one = action_matrix(BOOL, Morphism(1, 1, ((1,),)), hom)
    assert m_one.dense() == identity_fractions(2)
    m_zero = action_matrix(BOOL, Morphism(1, 1, ((0,),)), hom)
    assert m_zero.dense() == [[1, 0], [1, 0]]


def test_action_of_identity_is_identity():
    for sr, d, x in [(BOOL, 1, 2), (BOOL, 2, 2), (TROP1, 1, 2)]:
        hom = enumerate_hom(sr, d, x)
        assert is_identity(action_matrix(sr, identity(sr, x), hom))


def test_action_rows_have_exactly_one_one():
    hom = enumerate_hom(BOOL, 1, 2)
    for s in all_endos(BOOL, 2):
        dense = action_matrix(BOOL, s, hom).dense()
        for row in dense:
            assert sum(row) == 1
            assert all(v in (0, 1) for v in row)


def test_action_matrix_entries_match_composition_brute_force():
    # (f, g) entry is 1 exactly when composing f with s yields g
    hom = enumerate_hom(BOOL, 1, 2)
    for s in all_endos(BOOL, 2):
        mat = action_matrix(BOOL, s, hom)
        for i, f in enumerate(hom):
            for j, g in enumerate(hom):
                expected = 1 if compose(BOOL, f, s) == g else 0
                assert entry(mat, i, j) == expected


def test_action_contravariant_product_law_exhaustive_boolean():
    # the action of s-then-t is the matrix product M_s . M_t
    hom = enumerate_hom(BOOL, 1, 2)
    endos = all_endos(BOOL, 2)
    for s in endos:
        ms = action_matrix(BOOL, s, hom).dense()
        for t in endos:
            mt = action_matrix(BOOL, t, hom).dense()
            mst = action_matrix(BOOL, compose(BOOL, s, t), hom).dense()
            assert mst == dense_matmul(ms, mt)


def test_action_product_law_sampled_tropical():
    hom = enumerate_hom(TROP1, 1, 2)
    rng = random.Random(3)
    endos = all_endos(TROP1, 2)
    for _ in range(25):
        s, t = rng.choice(endos), rng.choice(endos)
        lhs = action_matrix(TROP1, compose(TROP1, s, t), hom).dense()
        rhs = dense_matmul(action_matrix(TROP1, s, hom).dense(),
                           action_matrix(TROP1, t, hom).dense())
        assert lhs == rhs


def test_action_matrix_signature_checks():
    hom = enumerate_hom(BOOL, 1, 2)
    with pytest.raises(ValueError):
        action_matrix(BOOL, Morphism(1, 2, ((0, 1),)), hom)
    with pytest.raises(ValueError):
        action_matrix(BOOL, identity(BOOL, 3), hom)


def endomorphisms_through_reference(sr, x, y):
    """Every a.b with a: x -> y and b: y -> x, one ``compose`` per pair.

    Deduplicated in first-occurrence order of the lexicographic (a, b)
    pairs.  The library's enumeration before it assembled each product
    from b's row images; kept as the reference the row-image enumeration
    is checked against.  The caps are the library's to check.
    """
    n = sr.size
    lefts = [from_entry_vector(x, y, vec) for vec in itertools.product(range(n), repeat=x * y)]
    rights = [from_entry_vector(y, x, vec) for vec in itertools.product(range(n), repeat=y * x)]
    seen: dict[Morphism, None] = {}
    for a in lefts:
        for b in rights:
            seen.setdefault(compose(sr, a, b), None)
    return list(seen)


@pytest.mark.parametrize("sr", [BOOL, TROP1, tropical_semiring(2), CHAIN3],
                         ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_endomorphisms_through_matches_the_compose_reference(sr):
    # same list, same order, for every x, y in 0-3 the default pair cap admits
    swept = 0
    for x, y in itertools.product(range(4), repeat=2):
        if sr.size ** (2 * x * y) > DEFAULT_PAIR_CAP:
            continue
        assert endomorphisms_through(sr, x, y) == endomorphisms_through_reference(sr, x, y), (x, y)
        swept += 1
    assert swept >= 13


def test_endomorphisms_through_zero_object():
    endos = endomorphisms_through(BOOL, 2, 0)
    assert endos == [zero_morphism(BOOL, 2, 2)]


def test_endomorphisms_through_1_1():
    endos = endomorphisms_through(BOOL, 1, 1)
    assert set(endos) == set(all_endos(BOOL, 1))


def test_endomorphisms_through_contains_identity_when_wide_enough():
    for sr, x, y in [(BOOL, 1, 1), (BOOL, 2, 2), (BOOL, 2, 3), (TROP1, 1, 2)]:
        assert identity(sr, x) in endomorphisms_through(sr, x, y)


def test_endomorphisms_through_cap():
    with pytest.raises(CapExceededError) as exc:
        endomorphisms_through(BOOL, 2, 2, cap_pairs=100)
    assert exc.value.size == 256


def test_identity_in_span_trivial():
    ident = ActionMatrix(3, (0, 1, 2))
    assert identity_in_span([ident]) == [Fraction(1)]


def test_identity_in_span_negative():
    # the matrix [[1,0],[1,0]] alone: the (1,1) entry of any multiple is 0
    collapse = ActionMatrix(2, (0, 0))
    assert identity_in_span([collapse]) is None
    assert identity_in_span([]) is None


def test_identity_in_span_full_hom222():
    hom = enumerate_hom(BOOL, 1, 2)
    endos = endomorphisms_through(BOOL, 2, 2)
    mats = [action_matrix(BOOL, t, hom) for t in endos]
    coeffs = identity_in_span(mats)
    assert coeffs is not None
    assert linear_combination(mats, coeffs) == identity_fractions(len(hom))


def test_identity_in_span_rejects_mixed_dims():
    with pytest.raises(ValueError):
        identity_in_span([ActionMatrix(2, (0, 1)), ActionMatrix(3, (0, 1, 2))])


def span_oracle_reference(sr, d, x, y, cap_hom, cap_pairs):
    """The eager oracle: every action matrix, then ``identity_in_span``.

    The library's oracle before it built the actions only as far as its
    diagonal check and solve read them; kept as the reference the stream
    is checked against.  Returns (coefficients or None, endomorphisms).
    """
    hom = enumerate_hom(sr, d, x, cap_hom)
    endos = endomorphisms_through(sr, x, y, cap_pairs)
    return identity_in_span([action_matrix(sr, t, hom) for t in endos]), endos


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(None) or original(*args))
    return calls


@pytest.mark.parametrize("sr", [BOOL, TROP1, tropical_semiring(2)],
                         ids=["boolean", "tropical1", "tropical2"])
def test_span_oracle_matches_the_eager_reference(sr, monkeypatch):
    solves = _count_calls(monkeypatch, domination, "solve_linear")
    outcomes = set()
    for d, x, y in itertools.product(range(3), range(4), range(4)):
        try:
            coeffs, endos = span_oracle_reference(sr, d, x, y, 256, 4096)
        except CapExceededError:
            with pytest.raises(CapExceededError):
                span_oracle(sr, d, x, y, cap_hom=256, cap_pairs=4096)
            continue
        solves.clear()
        res = span_oracle(sr, d, x, y, cap_hom=256, cap_pairs=4096)
        assert res.holds == (coeffs is not None), (d, x, y)
        assert res.coefficients == (None if coeffs is None else tuple(coeffs)), (d, x, y)
        assert list(res.endos) == endos, (d, x, y)
        if y == 0 < d * x:
            # the zero map alone fixes only the zero morphism: no solve
            assert not res.holds and solves == [], (d, x, y)
        outcomes.add(res.holds)
    assert outcomes == {True, False}


def test_span_oracle_builds_only_the_actions_its_solve_reads(monkeypatch):
    # the solve reaches the identity at column 134 of 356, and the
    # diagonal is covered before it
    actions = _count_calls(monkeypatch, domination, "action_matrix")
    res = span_oracle(BOOL, 1, 3, 2)
    assert res.holds and len(res.endos) == 356
    assert len(actions) == 134


def test_span_oracle_builds_its_row_table_once():
    # endomorphisms_through and every action read the one width-x table,
    # and a later call of the same width builds none
    for sr, d, x, y in [(BOOL, 1, 3, 2), (TROP1, 2, 2, 1), (CHAIN3, 1, 2, 1)]:
        row_table.cache_clear()
        span_oracle(sr, d, x, y)
        info = row_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2, (sr.size, d, x, y)
        span_oracle(sr, d + 1, x, y)
        assert row_table.cache_info().misses == 1


@pytest.mark.parametrize("sr, d, x, y", [(BOOL, 2, 3, 1), (BOOL, 1, 3, 0), (BOOL, 2, 2, 0),
                                         (TROP1, 1, 4, 0), (tropical_semiring(2), 1, 2, 0)])
def test_span_oracle_decides_an_uncovered_diagonal_without_a_solve(sr, d, x, y, monkeypatch):
    # boolean 2/3/1 covers 22 of its 64 diagonal entries; a y = 0 instance
    # has only the zero endomorphism, whose one fixed point is the zero map
    solves = _count_calls(monkeypatch, domination, "solve_linear")
    res = span_oracle(sr, d, x, y)
    assert not res.holds and res.coefficients is None
    assert solves == []
    covered = {f for mat in res.matrices for f, g in enumerate(mat.targets) if f == g}
    assert len(covered) == (22 if y else 1) < len(res.hom)


def linear_combination_reference(mats, coeffs):
    """sum(coeffs[i] * mats[i]) by one ``+=`` per row of each matrix.

    The library's loop before it counted each row's targets per
    coefficient; kept as the reference for values and entry types.
    """
    m = mats[0].dim
    out = [[0] * m for _ in range(m)]
    for mat, c in zip(mats, coeffs):
        if c == 0:
            continue
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        for i, t in enumerate(mat.targets):
            out[i][t] += c
    return out


def test_linear_combination_matches_the_reference_in_values_and_types():
    rng = random.Random(7919)
    choices = [0, 0, 1, 1, 2, -1, -3, Fraction(0), Fraction(1), Fraction(4, 2), Fraction(1, 2),
               Fraction(-2, 3), Fraction(3, 3)]
    kinds = set()
    for _ in range(300):
        m, k = rng.randrange(1, 9), rng.randrange(1, 9)
        mats = [ActionMatrix(m, [rng.randrange(m) for _ in range(m)]) for _ in range(k)]
        coeffs = [rng.choice(choices) for _ in range(k)]
        got = linear_combination(mats, coeffs)
        want = linear_combination_reference(mats, coeffs)
        assert got == want
        assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]
        kinds.update(type(v) for row in got for v in row)
    assert kinds == {int, Fraction}


def test_span_oracle_verdicts():
    assert span_oracle(BOOL, 1, 2, 2).holds
    assert not span_oracle(BOOL, 1, 2, 0).holds
    assert span_oracle(BOOL, 1, 1, 1).holds


def test_span_oracle_witness_resubstitutes_to_identity():
    res = span_oracle(BOOL, 1, 2, 2)
    assert res.coefficients is not None
    assert linear_combination(res.matrices, res.coefficients) == identity_fractions(len(res.hom))


def test_span_oracle_decides_boolean_1_4_2_in_bounded_time():
    # 8776 endomorphisms over a 16-element hom-set: dense Gauss-Jordan took
    # about 150 s on a 2-CPU VM, the early-stopping sparse solve about 1 s
    start = time.perf_counter()
    res = span_oracle(BOOL, 1, 4, 2)
    elapsed = time.perf_counter() - start
    assert res.holds
    assert elapsed < 10, f"span_oracle(boolean, 1, 4, 2) took {elapsed:.1f}s"
    assert len(res.endos) == 8776
    assert linear_combination(res.matrices, res.coefficients) == identity_fractions(len(res.hom))


def test_span_oracle_agrees_with_certificate_on_construct_branch():
    cert = certify(BOOL, 1, 3)
    assert cert.branch == "construct"
    assert span_oracle(BOOL, 1, 3, 2).holds


def test_span_oracle_cap_propagates():
    with pytest.raises(CapExceededError):
        span_oracle(BOOL, 1, 2, 2, cap_pairs=10)


def test_nonvanishing_coefficients_base_cases():
    assert nonvanishing_coefficients([[1]]) == [Fraction(1)]
    assert nonvanishing_coefficients([[1, 0], [0, 1]]) == [Fraction(1), Fraction(1)]


def test_nonvanishing_coefficients_upper_triangular_ones():
    table = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    coeffs = nonvanishing_coefficients(table)
    for g in range(3):
        assert sum(coeffs[i] for i in range(3) if table[i][g]) != 0


def test_nonvanishing_coefficients_random_tables():
    rng = random.Random(524287)
    for _ in range(50):
        m = rng.randrange(1, 11)
        table = [[rng.randrange(2) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            table[i][i] = 1
        coeffs = nonvanishing_coefficients(table)
        for g in range(m):
            assert sum((coeffs[i] for i in range(m) if table[i][g]), Fraction(0)) != 0


def test_nonvanishing_coefficients_validation():
    with pytest.raises(ValueError, match="diagonal"):
        nonvanishing_coefficients([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        nonvanishing_coefficients([[1, 5], [0, 1]])
    with pytest.raises(ValueError, match="entries"):
        nonvanishing_coefficients([[1, 0], [0]])


def test_assemble_witness_identity():
    x, report = assemble_witness([ActionMatrix(2, (0, 1))], [Fraction(1)])
    assert x == identity_fractions(2)
    assert report.diagonal_nonzero
    assert report.det_by_diagonal == report.det_by_elimination == 1


def test_assemble_witness_all_zero_coefficients():
    _, report = assemble_witness([ActionMatrix(2, (0, 1))], [Fraction(0)])
    assert not report.diagonal_nonzero
    assert report.det_by_elimination == 0
    assert report.det_by_diagonal == 0


def test_assemble_witness_from_column_preorders():
    # the four column preorders of Hom(1,2) assemble to an invertible witness
    hom = enumerate_hom(BOOL, 1, 2)
    mats = [action_matrix(BOOL, column_preorder(BOOL, f), hom) for f in hom]
    b_table = [[1 if mat.targets[g] == g else 0 for g in range(len(hom))] for mat in mats]
    coeffs = nonvanishing_coefficients(b_table)
    _, report = assemble_witness(mats, coeffs)
    assert all(is_upper_triangular(mat.targets) for mat in mats)
    assert report.diagonal_nonzero
    assert report.det_by_diagonal == report.det_by_elimination != 0


def test_assemble_witness_length_mismatch():
    with pytest.raises(ValueError):
        assemble_witness([ActionMatrix(2, (0, 1))], [Fraction(1), Fraction(1)])
