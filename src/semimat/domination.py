"""Action matrices over the rationals and the span-membership machinery.

For a fixed hom-set enumeration of Hom(d, x) and an endomorphism s of x,
the action matrix of s is the 0/1 matrix whose (f, g) entry is 1 exactly
when composing f with s gives g.  Composition is a function, so each row
holds a single 1; matrices are therefore stored as the per-row target
index, with dense rational views built on demand.  The targets come from
the image kernel ``matcat.right_action``, not from one ``compose`` per
row.

The object x is dominated by y at probe d when the rational span of the
action matrices of all endomorphisms of x factoring through y contains
the identity matrix.  ``span_oracle`` decides that definition directly
and cross-checks the constructive certificates.  ``endomorphisms_through``
lists every product a.b through y as a code, from b's row images by
``matcat.code_images``, and builds a ``Morphism`` only per distinct
product.  ``span_oracle`` then builds the action matrices in that order
and only as far as it reads them: first until their fixed points cover
the diagonal (if they never do, the answer is negative with no solve),
then one sparse 0/1 column at a time as ``linalg.solve_linear``, a
sparse integer elimination, takes it; the solve stops once the identity
is reached, so no later action is built.  ``identity_in_span`` runs the
same check and solve on matrices already built.  The cost is still
exponential in x*y (the pairs) and in d*x (the hom-set), so the caps
bound it.  The tests keep the slow versions as references:
``endomorphisms_through_reference`` (one ``compose`` per pair),
``span_oracle_reference`` (every action, then the solve),
``linear_combination_reference`` (one ``+=`` per row) and
``gauss_jordan_oracle`` (dense Gauss-Jordan over ``Fraction``).
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import CapExceededError
from .linalg import determinant, solve_linear
from .matcat import (DEFAULT_HOM_CAP, HomEnumeration, Morphism, capped_power, code_images,
                     enumerate_hom, from_code, from_entry_vector, right_action, row_images,
                     row_table, zero_morphism)
from .semiring import Semiring

DEFAULT_PAIR_CAP = 65536


@dataclass(frozen=True)
class ActionMatrix:
    """Row-functional 0/1 matrix: row i has its single 1 in column targets[i]."""

    dim: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != self.dim:
            raise ValueError(f"expected {self.dim} row targets, got {len(self.targets)}")
        if self.targets and (min(self.targets) < 0 or max(self.targets) >= self.dim):
            t = next(t for t in self.targets if not 0 <= t < self.dim)
            raise ValueError(f"target {t} out of range [0, {self.dim})")

    def dense(self) -> list[list[Fraction]]:
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for row, t in zip(rows, self.targets):
            row[t] = Fraction(1)
        return rows


def action_matrices(dim: int, target_lists) -> list[ActionMatrix]:
    """An ``ActionMatrix`` of dimension ``dim`` for each of ``target_lists``.

    For targets from the image kernel (``matcat.right_actions``): each
    list holds one rank of the hom-set per row, so the checks of
    ``ActionMatrix.__post_init__`` hold and are not run.
    """
    out = []
    for targets in target_lists:
        mat = object.__new__(ActionMatrix)
        mat.__dict__.update(dim=dim, targets=tuple(targets))
        out.append(mat)
    return out


def action_matrix(sr: Semiring, s: Morphism, hom: HomEnumeration) -> ActionMatrix:
    """The matrix of the right-composition action of s: x -> x on Hom(d, x)."""
    return ActionMatrix(dim=hom.size, targets=right_action(sr, s, hom))


def endomorphisms_through(sr: Semiring, x: int, y: int, cap_pairs: int = DEFAULT_PAIR_CAP):
    """All endomorphisms of x of the form a.b with a: x -> y and b: y -> x.

    Deduplicated, in first-occurrence order of the lexicographic pair
    enumeration, so the result is deterministic.  Raises CapExceededError
    when the number of (a, b) pairs, x^2, the size of each product, or y,
    the number of rows of b, exceeds ``cap_pairs``.

    For each b, one ``matcat.row_images`` sweep gives the images of the
    n^y rows of a, decoded through the width-x ``matcat.row_table``, and
    one ``matcat.code_images`` sweep over a's x rows gives the
    code of a.b for every a; ``matcat.from_code`` builds a ``Morphism``
    only for each distinct code.  With x = 0 or y = 0 every product is
    the x-by-x zero matrix (no entries, or empty sums), and nothing
    sweeps the n^y or n^x rows, which the caps leave unbounded there.
    """
    if x < 0 or y < 0:
        raise ValueError(f"objects must be whole numbers, got x={x}, y={y}")
    n = sr.size
    capped_power(n, 2 * x * y, cap_pairs, f"|Hom({x},{y})| * |Hom({y},{x})| pairs")
    if x * x > cap_pairs:
        raise CapExceededError(f"x^2 = {x * x} exceeds cap {cap_pairs}", size=x * x)
    if y > cap_pairs:  # with x = 0 there is one pair, but b still has y rows
        raise CapExceededError(f"y = {y} exceeds cap {cap_pairs}", size=y)
    if x == 0 or y == 0:
        return [zero_morphism(sr, x, x)]
    code_of_mask = row_table(sr, x)
    # per_b[b][a] is the code of a.b, a in the lexicographic order of its entries
    per_b = [code_images(n, list(map(code_of_mask.__getitem__,
                                     row_images(sr, from_entry_vector(y, x, vec)))), x, x)
             for vec in itertools.product(range(n), repeat=y * x)]
    codes = dict.fromkeys(itertools.chain.from_iterable(zip(*per_b)))
    return [from_code(x, x, n, code) for code in codes]


class _Stream:
    """The ``count`` items of an iterator, read only as far as the reader goes."""

    def __init__(self, items, count: int):
        self._items, self._count = items, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return self._items


def _span_solve(mats, count: int, m: int) -> list[Fraction] | None:
    """Coefficients with sum(c_t * M_t) = Id over ``count`` matrices of dimension m, or None.

    ``mats`` is read in order and only as far as needed.  First the
    matrices are read until their fixed points cover the diagonal: a
    diagonal entry no matrix has is the equation 1 = 0, so if they never
    cover it the answer is None with no solve.  Then matrix t is the
    sparse column {(f, targets[f]): 1}, with (f, g) keyed as f * m + g,
    built only when ``solve_linear`` takes it; the solve stops once the
    identity is reached, so no later matrix is read.
    """
    mats = iter(mats)
    read = []
    diagonal = range(m)
    uncovered = set(diagonal)
    for mat in mats:
        read.append(mat)
        fixed = map(operator.eq, mat.targets, diagonal)
        uncovered.difference_update(itertools.compress(diagonal, fixed))
        if not uncovered:
            break
    else:
        return None
    offsets = range(0, m * m, m)
    columns = (dict.fromkeys(map(operator.add, offsets, mat.targets), 1)
               for mat in itertools.chain(read, mats))
    return solve_linear(_Stream(columns, count),
                        dict.fromkeys(map(operator.add, offsets, diagonal), 1))


def identity_in_span(mats) -> list[Fraction] | None:
    """Exact rational coefficients with sum(c_t * M_t) = Id, or None.

    The entrywise equations form a linear system in the coefficients,
    solved exactly by ``solve_linear``, so the answer is definitive
    either way; see ``_span_solve``, which ``span_oracle`` shares.
    """
    mats = list(mats)
    if not mats:
        return None
    m = mats[0].dim
    for mat in mats:
        if mat.dim != m:
            raise ValueError(f"mixed dimensions {mat.dim} and {m}")
    return _span_solve(mats, len(mats), m)


def linear_combination(mats, coeffs) -> list[list[int | Fraction]]:
    """Dense matrix sum(coeffs[i] * mats[i]), integral when the coefficients are.

    Integral coefficients are added as ``int``, so each entry is an ``int``
    unless a non-integral coefficient reaches it.  The matrices are
    grouped by coefficient, and row i of a group is the count of each
    target among the group's targets[i] times the coefficient.
    """
    mats = list(mats)
    coeffs = list(coeffs)
    if len(mats) != len(coeffs):
        raise ValueError(f"{len(mats)} matrices but {len(coeffs)} coefficients")
    if not mats:
        raise ValueError("need at least one matrix")
    m = mats[0].dim
    groups: dict[int | Fraction, list[tuple[int, ...]]] = {}
    for mat, c in zip(mats, coeffs):
        if mat.dim != m:
            raise ValueError(f"mixed dimensions {mat.dim} and {m}")
        if c == 0:
            continue
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        groups.setdefault(c, []).append(mat.targets)
    out: list[list[int | Fraction]] = [[0] * m for _ in range(m)]
    for c, targets in groups.items():
        for row, counts in zip(out, map(Counter, zip(*targets))):
            for t, k in counts.items():
                row[t] += c * k
    return out


@dataclass(frozen=True)
class OracleResult:
    """Verdict of the brute-force span oracle, with the witness when positive.

    ``matrices``, the action matrix of each of ``endos``, is built on
    first read; deciding the verdict builds only the ones it reads.
    """

    holds: bool
    coefficients: tuple[Fraction, ...] | None
    endos: tuple[Morphism, ...]
    hom: HomEnumeration

    @cached_property
    def matrices(self) -> tuple[ActionMatrix, ...]:
        return tuple(action_matrix(self.hom.sr, t, self.hom) for t in self.endos)


def span_oracle(sr: Semiring, d: int, x: int, y: int,
                cap_hom: int = DEFAULT_HOM_CAP,
                cap_pairs: int = DEFAULT_PAIR_CAP) -> OracleResult:
    """Decide by brute force whether the identity lies in the action-matrix span.

    Enumerates Hom(d, x) and every endomorphism of x factoring through
    y, then solves for the identity exactly (``_span_solve``).  The
    action matrices are built in ``endos`` order and only as far as the
    diagonal check and the solve read them.
    """
    hom = enumerate_hom(sr, d, x, cap_hom)
    endos = endomorphisms_through(sr, x, y, cap_pairs)
    mats = (action_matrix(sr, t, hom) for t in endos)
    coeffs = _span_solve(mats, len(endos), hom.size)
    return OracleResult(holds=coeffs is not None,
                        coefficients=tuple(coeffs) if coeffs is not None else None,
                        endos=tuple(endos), hom=hom)


def nonvanishing_coefficients(table) -> list[Fraction]:
    """Scalars a_0..a_{m-1} making every weighted column sum of a 0/1 table nonzero.

    ``table`` must be square with unit diagonal.  Follows the greedy
    induction: at step k, collect the forbidden values S_j = -sum over
    previous rows i of table[i][j] * a_i for j <= k, then take the
    smallest positive integer outside that set.  Every returned value is
    a positive integer (as a Fraction), so downstream matrices stay
    integral; with a 0/1 table the forbidden values are never positive
    and the result is all ones.
    """
    m = len(table)
    for i, row in enumerate(table):
        if len(row) != m:
            raise ValueError(f"row {i} has {len(row)} entries, expected {m}")
        for e in row:
            if e not in (0, 1):
                raise ValueError(f"table entries must be 0 or 1, got {e!r}")
    for i in range(m):
        if table[i][i] != 1:
            raise ValueError(f"table diagonal must be all ones, found 0 at {i}")
    coeffs: list[Fraction] = []
    # sums[j] = sum over rows i < k of table[i][j] * a_i
    sums = [Fraction(0)] * m
    for k in range(m):
        forbidden = {-sums[j] for j in range(k + 1)}
        c = 1
        while c in forbidden:
            c += 1
        coeffs.append(Fraction(c))
        for j, e in enumerate(table[k]):
            if e:
                sums[j] += c
    return coeffs


@dataclass(frozen=True)
class WitnessReport:
    """X's diagonal, whether it is nonzero, and X's determinant by two routes.

    ``det_by_diagonal`` is the diagonal product, which is det X when X is
    upper triangular; the caller establishes that (``certifier`` forms X
    only once ``inflation`` has passed).  ``det_by_elimination`` holds
    for any X.
    """

    diagonal: tuple[Fraction, ...]
    diagonal_nonzero: bool
    det_by_diagonal: Fraction
    det_by_elimination: Fraction


def assemble_witness(mats, coeffs) -> tuple[list[list[int | Fraction]], WitnessReport]:
    """Form X = sum(coeffs[i] * mats[i]) and report on its invertibility.

    The action matrices are 0/1, so X is integral (entries of type ``int``)
    whenever the coefficients are, as in every certificate ``certify``
    writes.  The determinant is computed twice: as the diagonal product,
    and by independent fraction-free elimination.  Both routes are exact,
    and they agree whenever X is upper triangular, which this function
    does not check: in the check path the passed ``inflation`` check
    proves it.
    """
    x = linear_combination(mats, coeffs)
    entries = [row[i] for i, row in enumerate(x)]  # ints when the coefficients are integral
    return x, WitnessReport(diagonal=tuple(map(Fraction, entries)),
                            diagonal_nonzero=all(entries),
                            det_by_diagonal=Fraction(reduce(operator.mul, entries, 1)),
                            det_by_elimination=determinant(x))
