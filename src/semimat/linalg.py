"""Exact linear algebra over the rationals.  No floating point anywhere."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


def _integral(pairs) -> tuple[int, dict]:
    """(den, w) for a vector given as (key, value) pairs: w = den * vector, sparse and integral.

    ``den`` is the lcm of the values' denominators; zeros are dropped.
    """
    vals = {k: v if isinstance(v, int) else Fraction(v) for k, v in pairs if v}
    den = math.lcm(*(v.denominator for v in vals.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in vals.items()}


def _reduce(v: dict, basis, where: dict, steps: list) -> None:
    """Reduce the integer vector v in place against ``basis``, in basis order.

    ``basis[j]`` is (p_j, B_j) with B_j zero at p_i for every i < j, so a
    step on B_j leaves v zero at p_1..p_j, and each step only adds pivot
    keys of later basis vectors.  A step v <- m v - n B_j (m > 0, the
    smallest integers that clear p_j) is appended to ``steps`` as (j, m, n).
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


def _expansion(steps) -> tuple[dict[int, Fraction], Fraction]:
    """(coef, lam) with v_before = lam * v_after + sum_j coef[j] * B_j for these steps."""
    coef: dict[int, Fraction] = {}
    lam = Fraction(1)
    for j, m, n in steps:
        coef[j] = lam * n / m
        lam /= m
    return coef, lam


def solve_linear(columns, rhs) -> list[Fraction] | None:
    """Solve sum_t c_t * columns[t] = rhs exactly; None when no such c exists.

    Each column, and ``rhs``, is a sparse vector: a mapping from key to
    an ``int`` or ``Fraction``, absent keys being zero.  A column with
    rational entries is scaled to integers by the lcm of its
    denominators, and the scale is undone in the answer.

    The columns are read in order and reduced by sparse integer
    elimination against the pivot columns before them; a column becomes
    a pivot column iff it is independent of the earlier ones.  After
    each new pivot the residue of ``rhs`` is reduced by it, and the solve
    stops as soon as the residue is zero.  The answer is the unique
    representation of ``rhs`` in the pivot columns, with every other
    unknown 0.  Dense Gauss-Jordan elimination with free unknowns set to
    0 returns the same vector: its pivot columns are the same greedy
    independent set, later pivots included, and a representation in an
    independent set is unique.

    The pivot columns are kept in echelon form B_1..B_r (B_j is zero at
    the pivot keys of the earlier ones), and each is recorded as a
    combination of B_1..B_j; the coefficients are found from the
    residue's combination of the B_j by one back-substitution.
    """
    rhs_den, residue = _integral(rhs.items())
    basis: list[tuple[object, dict]] = []
    where: dict[object, int] = {}        # pivot key -> basis index
    unknowns: list[tuple[int, int]] = []  # (t, den) of each basis vector's column
    lower: list[dict[int, Fraction]] = []  # column of basis[j] = sum_i lower[j][i] B_i
    residue_steps: list[tuple[int, int, int]] = []
    for t, column in enumerate(columns):
        if not residue:
            break
        den, v = _integral(column.items())
        steps: list[tuple[int, int, int]] = []
        _reduce(v, basis, where, steps)
        if not v:
            continue
        h = math.gcd(*v.values())
        for k in v:
            v[k] //= h
        p = min(v, key=lambda k: abs(v[k]))
        coef, lam = _expansion(steps)
        coef[len(basis)] = lam * h
        where[p] = len(basis)
        basis.append((p, v))
        unknowns.append((t, den))
        lower.append(coef)
        _reduce(residue, basis, where, residue_steps)
    if residue:
        return None
    acc, _ = _expansion(residue_steps)
    sol = [Fraction(0)] * len(columns)
    for j in reversed(range(len(basis))):
        xj = acc.get(j, 0) / lower[j][j]
        if xj:
            for i, l in lower[j].items():
                if i != j:
                    acc[i] = acc.get(i, 0) - xj * l
            t, den = unknowns[j]
            sol[t] = xj * den / rhs_den
    return sol


def determinant(rows) -> Fraction:
    """Exact determinant by sparse, lazily scaled, integer Bareiss elimination.

    This is fraction-free Gaussian elimination with row swaps (Bareiss
    1968, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination"), run on sparse integer rows.  Each row's nonzeros are
    read once; a row with rational entries is multiplied by the least
    common multiple of its denominators, and the result is divided by the
    product of those multipliers.

    Let P_k be the pivot of step k and P_{-1} = 1.  Every Bareiss value is
    a minor of the matrix, so each division below is exact.  A row with a
    zero in the pivot column of step k would only be rescaled by
    P_k / P_{k-1}, so it is left alone: each row records the step L of its
    last update, is worth ``stored * P_K / P_L`` at step K, and is brought
    up to date only when it is used.  Only rows with a nonzero in the
    pivot column are eliminated.

    On an upper triangular matrix no row is ever eliminated and
    P_k = a_kk * P_{k-1}, so the cost is one pass over the m^2 input
    entries plus O(nnz) work and m big-integer products.  Any other matrix
    gets full fraction-free elimination, O(m^3) operations at worst.
    """
    m = len(rows)
    scale = 1
    sparse: list[dict[int, int]] = []
    for row in rows:
        if len(row) != m:
            raise ValueError("determinant needs a square matrix")
        den, entries = _integral(enumerate(row))
        sparse.append(entries)
        scale *= den
    # cols[j]: rows not yet used as a pivot with a nonzero in column j.
    cols: list[set[int]] = [set() for _ in range(m)]
    for i, row in enumerate(sparse):
        for j in row:
            cols[j].add(i)
    order = list(range(m))          # row at each position
    pos = list(range(m))            # position of each row
    pivots = [1]                    # pivots[k + 1] = P_k
    since = [0] * m                 # row i is worth stored * P_K / pivots[since[i]]
    sign = 1
    for k in range(m):
        live = cols[k]
        if not live:
            return Fraction(0)
        p = order[k]
        if p not in live:
            # Swap in the first row below with a nonzero in column k.
            r = min(pos[i] for i in live)
            q = order[r]
            order[k], order[r] = q, p
            pos[p], pos[q] = r, k
            p = q
            sign = -sign
        piv = sparse[p]
        for j in piv:
            cols[j].discard(p)
        prev = pivots[k]
        lag = pivots[since[p]]
        pk = piv[k] * prev // lag
        pivots.append(pk)
        if not live:
            continue
        if lag != prev:
            for j in piv:
                piv[j] = piv[j] * prev // lag
        for i in live:
            row = sparse[i]
            lag = pivots[since[i]]
            if lag != prev:
                for j in row:
                    row[j] = row[j] * prev // lag
            a = row.pop(k)
            for j in row:
                row[j] *= pk
            for j, v in piv.items():
                if j in row:
                    row[j] -= a * v
                elif j != k:
                    row[j] = -a * v
                    cols[j].add(i)
            for j in list(row):
                v = row[j] // prev
                if v:
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(i)
            since[i] = k + 1
        live.clear()
    return Fraction(sign * pivots[-1], scale)


def identity_fractions(m: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
