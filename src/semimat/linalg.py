"""Exact linear algebra over the rationals.  No floating point anywhere."""

from __future__ import annotations

import math
from fractions import Fraction


def solve_linear(rows, rhs):
    """Solve A c = rhs exactly by Gauss-Jordan elimination.

    ``rows`` is a list of equation rows (coefficients per unknown), ``rhs``
    the right-hand sides.  Returns one solution (free unknowns set to 0)
    or None when the system is inconsistent.
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
        entries = [(j, Fraction(v)) for j, v in enumerate(row) if v]
        den = math.lcm(*(q.denominator for _, q in entries))
        sparse.append({j: q.numerator * (den // q.denominator) for j, q in entries if q})
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
