"""Exact linear algebra over the rationals.  No floating point anywhere."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import reduce
from itertools import compress, count, islice
from operator import mul


def _integral(pairs) -> tuple[int, dict]:
    """(den, w) for a vector given as nonzero (key, value) pairs: w = den * vector, integral.

    ``den`` is the lcm of the values' denominators; a vector whose
    values are all ``int`` is returned as it is, with ``den`` 1.
    """
    vals = dict(pairs)
    if set(map(type, vals.values())) <= {int}:
        return 1, vals
    vals = {k: v if isinstance(v, int) else Fraction(v) for k, v in vals.items()}
    den = math.lcm(*(v.denominator for v in vals.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in vals.items()}


def _reduce(v: dict, basis, where: dict, steps: list) -> None:
    """Reduce the integer vector v in place against ``basis``, in basis order.

    ``basis[j]`` is (p_j, B_j) with B_j zero at p_i for every i < j, so a
    step on B_j leaves v zero at p_1..p_j, and each step only adds pivot
    keys of later basis vectors.  A step v <- m v - n B_j (m > 0, the
    smallest integers that clear p_j) is appended to ``steps`` as (j, m, n).

    The one elimination behind both ``solve_linear`` (columns and the
    rhs) and ``determinant`` (rows).  A vector with no key in ``where``
    takes no step.
    """
    pending = sorted(where[k] for k in v if k in where)
    done = 0
    while done < len(pending):
        j = pending[done]
        done += 1
        p, piv = basis[j]
        a = v.get(p)
        if not a:
            continue
        b = piv[p]
        g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
        m, n = b // g, a // g
        if m != 1:
            for k in v:
                v[k] *= m
        for k, w in piv.items():
            if k in v:
                u = v[k] - n * w
                if u:
                    v[k] = u
                else:
                    del v[k]
            else:
                v[k] = -n * w
                if k in where:
                    bisect.insort(pending, where[k], lo=done)
        steps.append((j, m, n))


def _expansion(steps) -> tuple[dict[int, int], int]:
    """(coef, den) with den * v_before = v_after + sum_j coef[j] * B_j for these steps.

    All integers: a step v <- m v - n B_j contributes n times the
    multipliers of the steps after it, and ``den`` is the product of all
    multipliers.
    """
    coef: dict[int, int] = {}
    den = 1
    for j, m, n in reversed(steps):
        coef[j] = n * den
        den *= m
    return coef, den


def solve_linear(columns, rhs) -> list[Fraction] | None:
    """Solve sum_t c_t * columns[t] = rhs exactly; None when no such c exists.

    Each column, and ``rhs``, is a sparse vector: a mapping from key to
    an ``int`` or ``Fraction``, absent keys being zero.  A column with
    rational entries is scaled to integers by the lcm of its
    denominators, and the scale is undone in the answer.  ``columns``
    is any sized iterable; its ``len`` is the length of the answer.

    The columns are read in order and reduced by sparse integer
    elimination against the pivot columns before them; a column becomes
    a pivot column iff it is independent of the earlier ones.  After
    each new pivot the residue of ``rhs`` is reduced by it.  The residue
    is checked before each column is taken, so the solve stops as soon
    as it is zero and takes nothing more from ``columns``.  The answer
    is the unique representation of ``rhs`` in the pivot columns, with
    every other unknown 0.  Dense Gauss-Jordan elimination with free
    unknowns set to 0 returns the same vector: its pivot columns are the
    same greedy independent set, later pivots included, and a
    representation in an independent set is unique.

    The pivot columns are kept in echelon form B_1..B_r (B_j is zero at
    the pivot keys of the earlier ones).  The bookkeeping is in
    integers: each pivot column, and the rhs, is recorded as an integer
    combination of the B_j over one common denominator (``_expansion``),
    and the pivot key is a first key of least magnitude.  ``Fraction``
    appears only in the back-substitution that finds the coefficients.
    """
    rhs_den, residue = _integral(compress(rhs.items(), rhs.values()))
    basis: list[tuple[object, dict]] = []
    where: dict[object, int] = {}        # pivot key -> basis index
    unknowns: list[tuple[int, int]] = []  # (t, den) of each basis vector's column
    # (coef, scale) of basis vector j: scale * den * columns[t] = sum_{i <= j} coef[i] B_i
    lower: list[tuple[dict[int, int], int]] = []
    residue_steps: list[tuple[int, int, int]] = []
    pending = iter(columns)
    for t in count():
        if not residue:
            break
        column = next(pending, None)
        if column is None:
            break
        den, v = _integral(compress(column.items(), column.values()))
        steps: list[tuple[int, int, int]] = []
        _reduce(v, basis, where, steps)
        if not v:
            continue
        h = math.gcd(*v.values())
        if h != 1:
            for k in v:
                v[k] //= h
        mags = list(map(abs, v.values()))
        p = next(islice(v, mags.index(min(mags)), None))
        coef, scale = _expansion(steps)
        coef[len(basis)] = h
        where[p] = len(basis)
        basis.append((p, v))
        unknowns.append((t, den))
        lower.append((coef, scale))
        _reduce(residue, basis, where, residue_steps)
    if residue:
        return None
    # acc_den * rhs_den * rhs = sum_j acc[j] B_j, and the back-substitution
    # finds the y_j with sum_j y_j * scale_j * den_j * columns[t_j] equal to it
    acc, acc_den = _expansion(residue_steps)
    sol = [Fraction(0)] * len(columns)
    for j in reversed(range(len(basis))):
        coef, scale = lower[j]
        yj = Fraction(acc.get(j, 0), coef[j])
        if yj:
            for i, l in coef.items():
                if i != j:
                    acc[i] = acc.get(i, 0) - yj * l
            t, den = unknowns[j]
            sol[t] = yj * scale * den / (acc_den * rhs_den)
    return sol


def determinant(rows) -> Fraction:
    """Exact determinant: the diagonal product of a triangle, else a sparse integer reduction.

    The rows are first scanned as given.  If every row c is nonzero at
    column c and zero before it, the matrix is upper triangular with a
    nonzero diagonal, and the determinant is the exact product of that
    diagonal: the scan is one pass over the entries below and on the
    diagonal at C speed, plus m products, with no row made sparse.
    Certify and verify form X only from upper triangular actions, so X
    takes this route unless its diagonal has a zero, which the
    reduction's first scan finds.

    Any other matrix goes to the reduction behind ``solve_linear``.
    Each row is made integral (multiplied by the lcm of its
    denominators), reduced by ``_reduce`` against the rows before it,
    divided by the gcd of its entries, and kept with its smallest
    remaining column as pivot key.  The kept rows are zero at every
    earlier pivot key, so with their columns taken in pivot order they
    form an upper triangular matrix, and

        det = sign(pivot keys) * prod(gcd * pivot) / (prod(lcm) * prod(m)),

    where m runs over the multipliers of the reduction steps
    (v <- m v - n B).  It is 0 when a row reduces to zero, or, found by a
    scan before any reduction, when rows c..m-1 are zero in columns 0..c.
    The reduction has no Bareiss exact divisions, so entries are not
    bounded by minors and a dense matrix is markedly slower than
    fraction-free elimination.
    """
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("determinant needs a square matrix")
    diagonal = [row[c] for c, row in enumerate(rows)]
    if all(diagonal) and not any(any(row[:c]) for c, row in enumerate(rows)):
        return Fraction(reduce(mul, diagonal, 1))
    integral = [_integral(compress(enumerate(row), row)) for row in rows]
    low = m
    for c in reversed(range(m)):
        low = min(low, min(integral[c][1], default=m))
        if low > c:
            return Fraction(0)
    basis: list[tuple[int, dict]] = []
    where: dict[int, int] = {}
    steps: list[tuple[int, int, int]] = []
    num = den = 1
    for scale, v in integral:
        _reduce(v, basis, where, steps)
        if not v:
            return Fraction(0)
        h = math.gcd(*v.values())
        if h != 1:
            for k in v:
                v[k] //= h
        p = min(v)
        where[p] = len(basis)
        basis.append((p, v))
        num *= h * v[p]
        den *= scale
    for _, mult, _ in steps:
        den *= mult
    keys = [p for p, _ in basis]
    for i in range(m):
        while keys[i] != i:
            j = keys[i]
            keys[i], keys[j] = keys[j], j
            num = -num
    return Fraction(num, den)


def identity_fractions(m: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
