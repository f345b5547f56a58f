"""Constructive certificates that x is dominated by n^d at probe d.

Writing n for the carrier size and y = n^d, the certificate exhibits
rational coefficients whose combination of action matrices -- all drawn
from endomorphisms of x that factor through y -- is invertible.

Two branches:

* pad (x <= y): the identity on x factors through y as
  [Id | 0] . [Id ; 0] = Id, and the action matrix of the identity is the
  identity matrix, which spans itself.  That the identity acts as the
  identity follows from the axioms, so nothing sweeps for it.

* construct (x > y): for every f in Hom(d, x), the column preorder s(f)
  (the 0/1 endomorphism recording which columns of f dominate which)
  fixes f, inflates every h, and has at most y distinct columns, hence
  factors through y.  Its action matrix is then upper triangular in the
  enumeration order with unit (f, f) entry, so a greedy choice of
  coefficients makes the combination X upper triangular with nonzero
  diagonal: invertible, exactly.

There is one check path.  ``certify`` only builds the data, then runs
the same branch checks ``verify_certificate`` runs, on the hom-set it
already enumerated, and records their results.  Each branch's checks are
a lazy sequence of ``(name, ok)`` in the recorded order, and one stopping
rule serves both: the first failing check ends the run.
``verify_certificate`` reports the passing checks and that failure;
``certify`` raises naming it, since the mathematics guarantees success.
No check composes: ``product_is`` compares D.E with s(f), or with Id,
row by row as packed masks.  In the construct branch ``certify`` builds
one block per distinct s(f), and the parser shares one block among
equal blocks too.  The checks take the blocks by identity, so finding
them hashes no matrix, and run once per distinct block.  ``layout``
compares each one's shapes and takes one ``max`` over every entry of
their s, left and right (``_blocks_fit``).  ``factor-products`` reads
two tables built once per check pass, each distinct row of every E
scaled and each distinct row of every s packed, and ``product_is``
is its reference (``_products_match``).  One ``right_actions`` call
over the distinct blocks' s(f), a packed sweep per group of them, gives
the fixed points and X, and ``inflation`` reads s(f)'s diagonal
(``inflates``).
X is formed only once ``inflation`` has passed, and is then upper
triangular: h <= h.s(f) puts h.s(f) at a rank no lower than h's, since
the enumeration order extends dominance.  So ``actions-upper-triangular``
and ``x-upper-triangular`` record what ``inflation`` proves, nothing
scans the actions or X for it, and X's determinant is its diagonal
product, which ``certify`` records from the report the checks read.
``linalg.determinant``, the elimination route, finds the triangle by
one scan of X as given and takes no elimination step.
``verify_preorder_map`` checks the same laws through ``compose`` and
``dominates``, independently of these kernels.
``verify_certificate`` re-derives every claim from raw data, requires
the recorded checks to be exactly the branch's list, all passing, and is
happy to return a negative report for tampered certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import getitem, or_
from typing import Callable, Collection, Mapping

from .domination import ActionMatrix, WitnessReport, action_matrices, assemble_witness
from .errors import CapExceededError, FingerprintError, InternalCheckError
from .matcat import (DEFAULT_HOM_CAP, HomEnumeration, Morphism, built_morphism, capped_power,
                     compose, dominates, entries_in_range, enumerate_hom, identity, packed_rows,
                     power_exceeds, right_actions, scaled_rows)
from .semiring import Semiring, natural_order, table_hash

DEFAULT_COLUMN_CAP = 4096

PAD_CHECK_NAMES = ("pad-product-identity", "identity-action-is-identity")
CONSTRUCT_CHECK_NAMES = (
    "factor-products",
    "v-counts",
    "fixed-points",
    "inflation",
    "actions-upper-triangular",
    "x-diagonal-matches",
    "x-upper-triangular",
    "x-diagonal-nonzero",
    "det-routes-agree",
    "det-nonzero",
)


def column_preorder(sr: Semiring, f: Morphism) -> Morphism:
    """The x-by-x 0/1 matrix with (i, j) one iff column i of f is below column j.

    Columns are compared entrywise in the natural order, packed as
    ``matcat.packed_rows`` packs a row: column i lies below column j iff
    its mask lies inside column j's.  An empty f (d = 0) yields the
    all-ones matrix.  The diagonal is always one, and the relation is
    transitive, so this is the matrix of a preorder.
    """
    # with no rows (d = 0) zip gives no columns: each is empty, mask 0
    packed = packed_rows(sr, zip(*f.entries)) if f.src else [0] * f.dst
    outside = [~q for q in packed]
    one, zero = sr.one, sr.zero
    return built_morphism(f.dst, f.dst,
                          tuple([tuple([zero if p & o else one for o in outside]) for p in packed]))


@dataclass(frozen=True)
class Factorization:
    """A factoring pair D = [left | 0], E = [right ; 0] with the padding implicit.

    D maps source -> target and E maps target -> source, where target is
    width + pad; the pad columns of D and pad rows of E are all zero and
    never materialized.  The product D.E equals left.right exactly,
    because the padded terms only add zeros.
    """

    left: Morphism
    pad: int
    right: Morphism

    def __post_init__(self) -> None:
        if self.pad < 0:
            raise ValueError(f"negative padding {self.pad}")
        if self.left.dst != self.right.src:
            raise ValueError(f"block widths differ: {self.left.dst} vs {self.right.src}")
        if self.left.src != self.right.dst:
            raise ValueError(f"blocks do not compose back to {self.left.src}")

    @property
    def source(self) -> int:
        return self.left.src

    @property
    def width(self) -> int:
        return self.left.dst

    @property
    def target(self) -> int:
        return self.left.dst + self.pad

    def product(self, sr: Semiring) -> Morphism:
        return compose(sr, self.left, self.right)

    def expand(self, sr: Semiring) -> tuple[Morphism, Morphism]:
        """Materialize the full (source x target, target x source) pair."""
        z = sr.zero
        d_rows = tuple(row + (z,) * self.pad for row in self.left.entries)
        e_rows = self.right.entries + tuple((z,) * self.source for _ in range(self.pad))
        return (Morphism(self.source, self.target, d_rows),
                Morphism(self.target, self.source, e_rows))


def factor_through(sr: Semiring, m: Morphism, y: int) -> Factorization:
    """Factor an endomorphism through y using its distinct columns.

    D carries the distinct columns of m (in first-occurrence order)
    followed by zero columns; E selects, for each column of m, the
    matching column of D.  Raises ValueError when m has more than y
    distinct columns.
    """
    if m.src != m.dst:
        raise ValueError(f"expected an endomorphism, got {m.src}x{m.dst}")
    x = m.src
    cols = list(zip(*m.entries))  # none when x = 0
    index = {col: k for k, col in enumerate(dict.fromkeys(cols))}
    v = len(index)
    if v > y:
        raise ValueError(f"cannot factor through {y}: matrix has {v} distinct columns")
    one, zero = sr.one, sr.zero
    picks = list(map(index.__getitem__, cols))
    left = built_morphism(x, v, tuple(zip(*index)))
    right = built_morphism(v, x, tuple([tuple([one if p == k else zero for p in picks])
                                        for k in range(v)]))
    return Factorization(left=left, pad=y - v, right=right)


def product_is(sr: Semiring, fact: Factorization, s: Morphism) -> bool:
    """Whether ``fact.product(sr) == s``, compared row by row as packed masks.

    With M the scaled-row table of ``fact.right`` (``matcat.scaled_rows``),
    row i of left.right is the OR over k of M[k][left[i][k]], packed as
    ``matcat.packed_rows`` packs row i of s; masks are one to one on
    rows, so the rows are equal iff their masks are.  Builds no product
    matrix.  Entries must lie in range, as the ``layout`` check ensures.
    """
    if s.signature != (fact.source, fact.source):
        return False
    scaled = scaled_rows(sr, fact.right.entries)
    return all(reduce(or_, map(getitem, scaled, lrow), 0) == srow
               for lrow, srow in zip(fact.left.entries, packed_rows(sr, s.entries)))


def inflates(sr: Semiring, s: Morphism, d: int) -> bool:
    """Whether h <= h.s for every h in Hom(d, x): d = 0, or 1 <= s[j][j] for every j.

    On a semiring that passes ``verify_axioms``.  If: each row r of h has
    r_j <= r_j.s[j][j] <= (r.s)_j, as multiplication is monotone
    (c(a + b) = ca + cb) and the join is an upper bound.  Only if: at
    d >= 1 some h has the unit row e_j, and (e_j.s)_j = s[j][j].  At d = 0
    Hom(0, x) is one h with no rows, which every s inflates.  Reference: ``dominates``.
    """
    above_one = natural_order(sr).leq[sr.one]
    return d == 0 or all(above_one[row[j]] for j, row in enumerate(s.entries))


def pad_identity(sr: Semiring, x: int, y: int) -> Factorization:
    """The block pair [Id | 0] . [Id ; 0] = Id, available whenever y >= x."""
    if y < x:
        raise ValueError(f"cannot pad the identity: target {y} is smaller than {x}")
    ident = identity(sr, x)
    return Factorization(left=ident, pad=y - x, right=ident)


@dataclass(frozen=True)
class PreorderMapReport:
    """Exhaustive check of the fixed-point and inflation laws of an s-map."""

    fixed_point_checks: int
    inflation_checks: int
    fixed_point_failure: Morphism | None
    inflation_failure: tuple[Morphism, Morphism] | None

    @property
    def passed(self) -> bool:
        return self.fixed_point_failure is None and self.inflation_failure is None


def verify_preorder_map(sr: Semiring, hom: HomEnumeration, s_map) -> PreorderMapReport:
    """Check s(f).f = f for all f and h below h.s(f) for all pairs (f, h).

    ``s_map`` is a callable or mapping assigning each enumerated morphism
    an endomorphism of x.  All checks run; the first counterexample of
    each kind is reported.
    """
    get: Callable[[Morphism], Morphism]
    get = s_map.__getitem__ if isinstance(s_map, Mapping) else s_map
    fixed_failure = None
    inflation_failure = None
    sections = [(f, get(f)) for f in hom.morphisms]
    for f, s in sections:
        if compose(sr, f, s) != f and fixed_failure is None:
            fixed_failure = f
    for f, s in sections:
        for h in hom.morphisms:
            if not dominates(sr, h, compose(sr, h, s)) and inflation_failure is None:
                inflation_failure = (f, h)
    return PreorderMapReport(fixed_point_checks=len(hom),
                             inflation_checks=len(hom) ** 2,
                             fixed_point_failure=fixed_failure,
                             inflation_failure=inflation_failure)


@dataclass(frozen=True)
class CertBlock:
    """Per-morphism data of the construct branch: s(f) and its factoring pair."""

    s: Morphism
    factor: Factorization
    v: int


def _distinct_blocks(blocks) -> dict[int, CertBlock]:
    """Each of ``blocks`` once, keyed by its ``id``.

    ``certify`` and the parser share one ``CertBlock`` among equal
    blocks, so taking them by identity hashes no matrix.  Equal blocks
    that are separate objects are each checked, to the same verdicts.
    """
    return {id(blk): blk for blk in blocks}


def _blocks_fit(sr: Semiring, blocks: Collection[CertBlock], x: int, y: int) -> bool:
    """Whether every block's s is x-by-x, its factor x -> y -> x, and every entry an element.

    The shapes are compared per block, then one ``max`` takes every
    entry of every block's s, left and right at once, each distinct row
    once: this is ``entries_in_range`` of each of them, which the tests
    keep as the reference.
    """
    if not all(blk.s.signature == (x, x) and blk.factor.source == x and blk.factor.target == y
               for blk in blocks):
        return False
    rows = dict.fromkeys(chain.from_iterable(m.entries for blk in blocks
                                             for m in (blk.s, blk.factor.left, blk.factor.right)))
    return max(map(max, filter(None, rows)), default=0) < sr.size


def _products_match(sr: Semiring, blocks: Collection[CertBlock]) -> bool:
    """``product_is(sr, blk.factor, blk.s)`` for every block, from two tables all share.

    Each distinct row of every E is scaled once (``matcat.scaled_rows``)
    and each distinct row of every s packed once (``matcat.packed_rows``),
    so a block costs the ORs and compares of its rows.  The blocks must
    fit (``_blocks_fit``): each s is then source-by-source.
    """
    scaled = dict.fromkeys(chain.from_iterable(blk.factor.right.entries for blk in blocks))
    scaled.update(zip(scaled, scaled_rows(sr, scaled)))
    packed = dict.fromkeys(chain.from_iterable(blk.s.entries for blk in blocks))
    packed.update(zip(packed, packed_rows(sr, packed)))
    for blk in blocks:
        table = list(map(scaled.__getitem__, blk.factor.right.entries))
        if not all(reduce(or_, map(getitem, table, lrow), 0) == packed[srow]
                   for lrow, srow in zip(blk.factor.left.entries, blk.s.entries)):
            return False
    return True


@dataclass(frozen=True)
class Certificate:
    """Complete machine-checkable witness that x is dominated by y = n^d.

    ``order`` is the enumerated Hom(d, x) as codes, each element's
    row-major entry vector read in base n (see ``matcat``), and never as
    entry tuples; a parsed ``f`` line that holds no code of Hom(d, x)
    reads as ``certfile.NO_CODE``, which no canonical order holds.  In
    the construct branch, ``blocks``/``coefficients`` align with it
    positionally.  ``checks`` records the results of the branch's checks
    at build time, named and ordered as PAD_CHECK_NAMES or
    CONSTRUCT_CHECK_NAMES.
    """

    semiring_size: int
    semiring_hash: str
    d: int
    x: int
    y: int
    branch: str
    order: tuple[int, ...]
    pad: Factorization | None
    blocks: tuple[CertBlock, ...]
    coefficients: tuple[Fraction, ...]
    x_diagonal: tuple[Fraction, ...]
    det_x: Fraction | None
    checks: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an independent re-verification, one named flag per step."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)


def certify(sr: Semiring, d: int, x: int,
            cap_hom: int = DEFAULT_HOM_CAP,
            cap_cols: int = DEFAULT_COLUMN_CAP) -> Certificate:
    """Build a domination certificate for (d, x) against y = n^d and check it.

    The checks are those ``verify_certificate`` runs, on the hom-set
    enumerated here, and the certificate records their results.  Raises
    CapExceededError when |Hom(d, x)| exceeds ``cap_hom`` or n^d or x
    exceeds ``cap_cols``, and InternalCheckError naming the first check
    that fails (the construction always succeeds on a valid semiring, so
    failure means a bug, never a mathematical negative).  Assumes the
    semiring passed ``verify_axioms``.
    """
    if d < 0 or x < 0:
        raise ValueError(f"objects must be whole numbers, got d={d}, x={x}")
    y = capped_power(sr.size, d, cap_cols, "n^d")
    hom = enumerate_hom(sr, d, x, cap_hom)
    if x > cap_cols:  # s(f) and the identity are x-by-x
        raise CapExceededError(f"x = {x} exceeds cap {cap_cols}", size=x)
    base = dict(semiring_size=sr.size, semiring_hash=table_hash(sr), d=d, x=x, y=y,
                order=hom.codes, checks=())

    if x <= y:
        cert = Certificate(branch="pad", pad=pad_identity(sr, x, y), blocks=(),
                           coefficients=(), x_diagonal=(), det_x=None, **base)
        return replace(cert, checks=_required(_pad_checks(sr, cert)))
    # one block per distinct s(f), shared by every f with that preorder
    preorders = [column_preorder(sr, f) for f in hom.morphisms]
    shared = dict.fromkeys(preorders)
    for s in shared:
        fact = factor_through(sr, s, y)
        shared[s] = CertBlock(s=s, factor=fact, v=fact.width)
    blocks = list(map(shared.__getitem__, preorders))
    # On the 0/1 fixed-point table, whose diagonal is one, the greedy
    # induction of nonvanishing_coefficients never forbids 1, so every
    # coefficient is one.
    coefficients = (Fraction(1),) * hom.size
    cert = Certificate(branch="construct", pad=None, blocks=tuple(blocks),
                       coefficients=coefficients, x_diagonal=(), det_x=None, **base)
    mats: list[ActionMatrix] = []
    checks = _required(_action_checks(sr, cert, hom, _distinct_blocks(shared.values()), mats))
    # X is formed, and its diagonal and determinant claimed, only now
    _, witness = assemble_witness(mats, coefficients)
    cert = replace(cert, x_diagonal=witness.diagonal, det_x=witness.det_by_diagonal)
    checks += _required(_witness_checks(cert, witness))
    return replace(cert, checks=checks)


def verify_certificate(sr: Semiring, cert: Certificate,
                       cap_hom: int = DEFAULT_HOM_CAP) -> VerificationReport:
    """Re-derive every claim of a certificate with fresh computation.

    Raises FingerprintError when the certificate does not belong to
    ``sr``.  Structural checks pin y, the order, the branch, the recorded
    check list and the layout; the branch's checks then run through the
    same functions ``certify`` records them with, against the canonical
    enumeration of Hom(d, x).  The report ends at the first failing
    check, and X is formed only once ``inflation`` has passed, which
    makes it upper triangular.  Assumes the semiring passed
    ``verify_axioms``.
    """
    if cert.semiring_size != sr.size or cert.semiring_hash != table_hash(sr):
        raise FingerprintError(
            f"certificate fingerprint ({cert.semiring_size}, {cert.semiring_hash[:12]}...) "
            f"does not match the semiring ({sr.size}, {table_hash(sr)[:12]}...)")
    return VerificationReport(checks=_until_failure(_checks(sr, cert, cap_hom)))


def _until_failure(checks) -> tuple[tuple[str, bool], ...]:
    """The ``(name, ok)`` pairs of ``checks`` up to and including the first failure."""
    report = []
    for name, ok in checks:
        report.append((name, ok))
        if not ok:
            break
    return tuple(report)


def _required(checks) -> tuple[tuple[str, bool], ...]:
    """``_until_failure`` for ``certify``, where a failing check is a bug."""
    report = _until_failure(checks)
    if not report[-1][1]:
        raise InternalCheckError(f"certification check failed: {report[-1][0]} (this is a bug"
                                 " in the tool, not a mathematical negative)")
    return report


def _checks(sr: Semiring, cert: Certificate, cap_hom: int):
    """Every check of ``verify_certificate``, lazily, in the recorded order."""
    y = cert.y
    # decided without forming n^d when n^d > y; on a mismatch d is
    # unbounded (Hom(d, 0) alone has d rows)
    yield "y-matches", not power_exceeds(sr.size, cert.d, y) and sr.size ** cert.d == y
    hom = enumerate_hom(sr, cert.d, cert.x, cap_hom)
    # the blocks are read as aligned with the canonical order
    yield "order-canonical", cert.order == hom.codes  # two tuples of ints
    pad = cert.x <= y
    yield "branch-matches-bound", cert.branch == ("pad" if pad else "construct")
    expected = PAD_CHECK_NAMES if pad else CONSTRUCT_CHECK_NAMES
    yield "recorded-checks-match", cert.checks == tuple((name, True) for name in expected)
    if pad:
        yield "layout", (cert.pad is not None and not cert.blocks and not cert.coefficients
                         and not cert.x_diagonal and cert.det_x is None
                         and cert.pad.source == cert.x and cert.pad.target == y
                         and entries_in_range(sr, cert.pad.left)
                         and entries_in_range(sr, cert.pad.right))
        yield from _pad_checks(sr, cert)
        return
    m = hom.size
    distinct = _distinct_blocks(cert.blocks)
    yield "layout", (cert.pad is None and len(cert.blocks) == m
                     and len(cert.coefficients) == m and len(cert.x_diagonal) == m
                     and cert.det_x is not None
                     and _blocks_fit(sr, distinct.values(), cert.x, y))
    mats: list[ActionMatrix] = []
    yield from _action_checks(sr, cert, hom, distinct, mats)
    yield from _witness_checks(cert, assemble_witness(mats, cert.coefficients)[1])


def _pad_checks(sr: Semiring, cert: Certificate):
    """The pad branch's checks, named as in PAD_CHECK_NAMES."""
    yield "pad-product-identity", product_is(sr, cert.pad, identity(sr, cert.x))
    # row k of h.Id is the sum of h[k][j].1 and of zeros, which is h[k] by
    # mul-identity, zero-annihilates and add-identity: h.Id = h for every h
    yield "identity-action-is-identity", True


def _action_checks(sr: Semiring, cert: Certificate, hom: HomEnumeration,
                   distinct: Mapping[int, CertBlock], mats: list[ActionMatrix]):
    """The construct branch's checks up to ``inflation``; fills ``mats``.

    They run after ``layout``, so every entry is a semiring element.
    ``distinct`` holds each of ``cert.blocks`` once, keyed by its ``id``
    (``_distinct_blocks``), and the checks run once per block of it:
    ``factor-products`` from tables all blocks share
    (``_products_match``), then ``v-counts``.  After them, one
    ``right_actions`` call over the s(f) of ``distinct`` computes every
    product h.s(f) the construct branch needs, and the action of each
    block's s(f) on the canonical enumeration of Hom(d, x) goes to
    ``mats``, one shared ``ActionMatrix`` per distinct block.  Ranks are
    unique, so target i of row i is i exactly when f_i.s(f_i) = f_i.
    ``inflation`` reads each distinct block's s(f) diagonal
    (``inflates``).
    """
    blocks = distinct.values()
    yield "factor-products", _products_match(sr, blocks)
    yield "v-counts", all(blk.v == blk.factor.width == len(set(zip(*blk.s.entries)))
                          and blk.v <= cert.y for blk in blocks)
    actions = dict(zip(distinct, action_matrices(
        hom.size, right_actions(sr, [blk.s for blk in blocks], hom))))
    mats.extend(map(actions.__getitem__, map(id, cert.blocks)))
    yield "fixed-points", all(mat.targets[i] == i for i, mat in enumerate(mats))
    yield "inflation", all(inflates(sr, blk.s, cert.d) for blk in blocks)


def _witness_checks(cert: Certificate, witness: WitnessReport):
    """The rest of CONSTRUCT_CHECK_NAMES, on the report on X.

    They run only once ``inflation`` has passed, and that check decides
    triangularity: h <= h.s(f) puts h.s(f) at a rank no lower than h's,
    since the enumeration order extends dominance, so every action is
    upper triangular, and so is X, their combination.  The two
    triangular entries record that proof, and the diagonal product is
    det X.
    """
    det = witness.det_by_elimination
    yield "actions-upper-triangular", True  # proved by the passed inflation check
    yield "x-diagonal-matches", witness.diagonal == cert.x_diagonal
    yield "x-upper-triangular", True  # a combination of upper triangular actions
    yield "x-diagonal-nonzero", witness.diagonal_nonzero
    yield "det-routes-agree", witness.det_by_diagonal == det == cert.det_x
    yield "det-nonzero", det != 0

