"""Finite idempotent semirings given by explicit operation tables.

A semiring here is a finite carrier ``0..size-1`` together with n-by-n
Cayley tables for addition and multiplication, plus distinguished
``zero`` (additive identity) and ``one`` (multiplicative identity).
Addition must be commutative, associative and idempotent; multiplication
associative with two-sided identity; multiplication distributes over
addition on both sides and zero annihilates.  ``verify_axioms`` checks
every law exhaustively, which is airtight at the carrier sizes this
library targets.

The natural order puts a below b exactly when a + b = b; on a valid
semiring it is a partial order with minimal element zero, and addition
computes the least upper bound of its arguments.  Those six order laws
follow from the axioms, and ``check-semiring`` still reports them.  Both
sets of laws are rows of one law table shape (a name, an arity and a law
over the tables and the elements), and one evaluator finds each row's
lexicographically first failing tuple for ``verify_axioms`` and
``verify_order_laws`` alike.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import ParseError, StructureError

# Exhaustive axiom checking is cubic in the carrier size; anything beyond
# this limit is almost certainly an input mistake.
MAX_VERIFY_SIZE = 64

# One row per axiom: name, arity, the law over (add table, mul table,
# zero, one, *elements), and the failure message's prefix.
_AXIOMS = (
    ("add-identity", 1, lambda A, M, z, o, a: A[z][a] == a == A[a][z],
     "additive identity fails"),
    ("add-idempotent", 1, lambda A, M, z, o, a: A[a][a] == a,
     "addition not idempotent"),
    ("add-commutative", 2, lambda A, M, z, o, a, b: A[a][b] == A[b][a],
     "addition not commutative"),
    ("add-associative", 3, lambda A, M, z, o, a, b, c: A[A[a][b]][c] == A[a][A[b][c]],
     "addition not associative"),
    ("mul-identity", 1, lambda A, M, z, o, a: M[o][a] == a == M[a][o],
     "multiplicative identity fails"),
    ("mul-associative", 3, lambda A, M, z, o, a, b, c: M[M[a][b]][c] == M[a][M[b][c]],
     "multiplication not associative"),
    ("distributive-left", 3, lambda A, M, z, o, a, b, c: M[a][A[b][c]] == A[M[a][b]][M[a][c]],
     "a*(b+c) != a*b + a*c"),
    ("distributive-right", 3, lambda A, M, z, o, a, b, c: M[A[a][b]][c] == A[M[a][c]][M[b][c]],
     "(a+b)*c != a*c + b*c"),
    ("zero-annihilates", 1, lambda A, M, z, o, a: M[z][a] == z == M[a][z],
     "zero does not annihilate"),
)
AXIOM_NAMES = tuple(name for name, _, _, _ in _AXIOMS)

# The natural-order laws, rows as in _AXIOMS, over (leq, add table, zero, *elements).
_ORDER_LAWS = (
    ("reflexive", 1, lambda L, A, z, a: L[a][a]),
    ("antisymmetric", 2, lambda L, A, z, a, b: a == b or not (L[a][b] and L[b][a])),
    ("transitive", 3, lambda L, A, z, a, b, c: not (L[a][b] and L[b][c]) or L[a][c]),
    ("zero-minimal", 1, lambda L, A, z, a: L[z][a]),
    ("join-upper-bound", 2, lambda L, A, z, a, b: L[a][A[a][b]]),
    ("join-least-upper-bound", 3,
     lambda L, A, z, a, b, c: not (L[a][c] and L[b][c]) or L[A[a][b]][c]),
)


@dataclass(frozen=True)
class Semiring:
    """Immutable table-backed semiring, equal by value and hashed once (caches key on it).

    The hash reads the ints alone, which hash alike in every process.
    """

    size: int
    labels: tuple[str, ...]
    zero: int
    one: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "add_table", tuple(tuple(row) for row in self.add_table))
        object.__setattr__(self, "mul_table", tuple(tuple(row) for row in self.mul_table))
        object.__setattr__(self, "_hash", hash((self.size, self.zero, self.one,
                                               self.add_table, self.mul_table)))

    def __hash__(self) -> int:
        return self._hash

    def label(self, a: int) -> str:
        if not 0 <= a < self.size:
            raise ValueError(f"element index {a} out of range for semiring of size {self.size}")
        return self.labels[a]


@dataclass(frozen=True)
class Violation:
    """One broken axiom with the witnessing tuple of element indices."""

    axiom: str
    witness: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message}"


@dataclass(frozen=True)
class NaturalOrder:
    """The relation a + b = b, with per-element longest-chain heights."""

    leq: tuple[tuple[bool, ...], ...]
    height: tuple[int, ...]


@dataclass(frozen=True)
class OrderLawReport:
    """Exhaustive check results for the natural-order laws."""

    checks: tuple[tuple[str, bool], ...]
    counterexamples: tuple[tuple[str, tuple[int, ...]], ...]
    triples_checked: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def check_structure(sr: Semiring) -> None:
    """Raise StructureError unless the tables are well-formed n-by-n with in-range entries."""
    n = sr.size
    if n < 1:
        raise StructureError(f"semiring size must be positive, got {n}")
    if len(sr.labels) != n:
        raise StructureError(f"expected {n} labels, got {len(sr.labels)}")
    for what, idx in (("zero", sr.zero), ("one", sr.one)):
        if not 0 <= idx < n:
            raise StructureError(f"{what} index {idx} out of range [0, {n})")
    for name, table in (("add", sr.add_table), ("mul", sr.mul_table)):
        if len(table) != n:
            raise StructureError(f"{name} table has {len(table)} rows, expected {n}")
        for i, row in enumerate(table):
            if len(row) != n:
                raise StructureError(f"{name} table row {i} has {len(row)} entries, expected {n}")
            for e in row:
                if not isinstance(e, int) or not 0 <= e < n:
                    raise StructureError(f"{name} table entry {e!r} at row {i} out of range [0, {n})")


def check_verify_size(n: int) -> None:
    """Raise StructureError when n elements exceed ``MAX_VERIFY_SIZE``."""
    if n > MAX_VERIFY_SIZE:
        raise StructureError(f"semiring size {n} exceeds the verification limit {MAX_VERIFY_SIZE}")


def _first_failures(laws, n: int, *tables) -> list[tuple[str, tuple[int, ...] | None]]:
    """Each law row's name and lexicographically first failing tuple, None where it holds."""
    found = []
    for name, arity, law, *_ in laws:
        holds = partial(law, *tables)
        found.append((name, next((w for w in itertools.product(range(n), repeat=arity)
                                  if not holds(*w)), None)))
    return found


def _natural_leq(sr: Semiring) -> tuple[tuple[bool, ...], ...]:
    """leq[a][b] is a + b = b."""
    return tuple(tuple(a_plus[b] == b for b in range(sr.size)) for a_plus in sr.add_table)


def verify_axioms(sr: Semiring) -> list[Violation]:
    """Exhaustively check every semiring axiom; empty result means valid.

    Each failing axiom is reported once, with its lexicographically first
    witnessing tuple.  Malformed tables raise StructureError instead (the
    axioms are then never checked).
    """
    check_structure(sr)
    check_verify_size(sr.size)
    out: list[Violation] = []
    found = _first_failures(_AXIOMS, sr.size, sr.add_table, sr.mul_table, sr.zero, sr.one)
    for (_, _, _, prefix), (name, witness) in zip(_AXIOMS, found):
        if witness is not None:
            at = ", ".join(f"{v}={sr.labels[e]}" for v, e in zip("abc", witness))
            out.append(Violation(name, witness, f"{prefix} at {at}"))
    return out


def verify_order_laws(sr: Semiring) -> OrderLawReport:
    """Exhaustively check that the natural order behaves as a join-semilattice order.

    Checks: the relation is a partial order with minimal element zero;
    a is below a + b for all a, b; and whenever a and b are both below c,
    so is a + b.  Assumes ``verify_axioms`` passed.
    """
    found = _first_failures(_ORDER_LAWS, sr.size, _natural_leq(sr), sr.add_table, sr.zero)
    return OrderLawReport(checks=tuple((name, w is None) for name, w in found),
                          counterexamples=tuple((name, w) for name, w in found if w is not None),
                          triples_checked=sr.size ** 3)


@lru_cache(maxsize=None)
def natural_order(sr: Semiring) -> NaturalOrder:
    """The natural order of a (valid) semiring plus longest-chain heights.

    ``height[a]`` is the length of the longest strictly increasing chain
    below a; zero always sits at height 0.  In a partial order b < a
    leaves fewer elements below b than below a, so one pass over the
    elements by down-set size meets every b < a before a.  Raises
    StructureError when two elements lie below each other, or when some
    b < a has a down-set no smaller than a's, as every cycle has; both
    happen only on an invalid semiring.
    """
    n = sr.size
    leq = _natural_leq(sr)
    below = [[b for b in range(n) if leq[b][a] and b != a] for a in range(n)]
    height = [0] * n
    for a in sorted(range(n), key=lambda a: len(below[a])):
        for b in below[a]:
            if leq[a][b] or len(below[b]) >= len(below[a]):
                raise StructureError(
                    "natural order is not a partial order; the semiring is invalid")
            height[a] = max(height[a], height[b] + 1)
    return NaturalOrder(leq=leq, height=tuple(height))


def boolean_semiring() -> Semiring:
    """Two elements with logical OR as addition and logical AND as multiplication."""
    return Semiring(
        size=2,
        labels=("0", "1"),
        zero=0,
        one=1,
        add_table=((0, 1), (1, 1)),
        mul_table=((0, 0), (0, 1)),
    )


def tropical_semiring(n: int) -> Semiring:
    """Truncated min-plus semiring on {0, 1, ..., n, inf}.

    Addition is min (inf largest), multiplication is the sum capped at n
    with inf absorbing.  The additive identity is inf; the multiplicative
    identity is 0.  Element i carries value i; the last index is inf.
    """
    if n < 0:
        raise ValueError(f"tropical truncation bound must be >= 0, got {n}")
    size = n + 2
    inf = n + 1
    labels = tuple(str(i) for i in range(n + 1)) + ("inf",)

    def mul(a: int, b: int) -> int:
        if a == inf or b == inf:
            return inf
        return min(a + b, n)

    add_table = tuple(tuple(min(a, b) for b in range(size)) for a in range(size))
    mul_table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    return Semiring(size=size, labels=labels, zero=inf, one=0,
                    add_table=add_table, mul_table=mul_table)


@lru_cache(maxsize=None)  # one instance per builtin: the per-semiring caches hit by identity
def builtin_semiring(name: str, tropical_n: int | None = None) -> Semiring:
    """Dispatch by builtin name: ``boolean`` or ``tropical`` (needs the bound)."""
    if name == "boolean":
        return boolean_semiring()
    if name == "tropical":
        if tropical_n is None:
            raise ValueError("the tropical builtin needs a truncation bound")
        return tropical_semiring(tropical_n)
    raise ValueError(f"unknown builtin semiring {name!r}")


def table_hash(sr: Semiring) -> str:
    """SHA-256 over size, zero, one and both tables (labels excluded: they are display-only)."""
    parts = [str(sr.size), str(sr.zero), str(sr.one)]
    for table in (sr.add_table, sr.mul_table):
        for row in table:
            parts.append(" ".join(map(str, row)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def parse_semiring(text: str) -> Semiring:
    """Parse the plain-text definition format.

    Layout: ``semiring <n>``, ``labels <n tokens>``, ``zero <i>``,
    ``one <j>``, ``add`` followed by n rows of n indices, ``mul``
    likewise.  ``#`` starts a comment; blank lines are ignored.  Labels
    must be whitespace-free tokens.  Parsing checks structure only;
    callers decide whether to run ``verify_axioms``.
    """
    lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))
    pos = 0

    def take(keyword: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file: expected '{keyword}'")
        lineno, tokens = lines[pos]
        if tokens[0] != keyword:
            raise ParseError(f"line {lineno}: expected '{keyword}', got '{tokens[0]}'")
        pos += 1
        return lineno, tokens[1:]

    def as_int(token: str, lineno: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}") from None

    lineno, rest = take("semiring")
    if len(rest) != 1:
        raise ParseError(f"line {lineno}: expected 'semiring <n>'")
    n = as_int(rest[0], lineno, "size")
    if n < 1:
        raise ParseError(f"line {lineno}: size must be positive, got {n}")

    lineno, labels = take("labels")
    if len(labels) != n:
        raise ParseError(f"line {lineno}: expected {n} labels, got {len(labels)}")

    special = {}
    for key in ("zero", "one"):
        lineno, rest = take(key)
        if len(rest) != 1:
            raise ParseError(f"line {lineno}: expected '{key} <index>'")
        idx = as_int(rest[0], lineno, key)
        if not 0 <= idx < n:
            raise ParseError(f"line {lineno}: {key} index {idx} out of range [0, {n})")
        special[key] = idx

    tables = {}
    for key in ("add", "mul"):
        lineno, rest = take(key)
        if rest:
            raise ParseError(f"line {lineno}: '{key}' takes no arguments")
        rows = []
        for i in range(n):
            if pos >= len(lines):
                raise ParseError(f"unexpected end of file: {key} row {i} missing")
            row_lineno, tokens = lines[pos]
            pos += 1
            if len(tokens) != n:
                raise ParseError(
                    f"line {row_lineno}: {key} row {i} has {len(tokens)} entries, expected {n}")
            row = []
            for tok in tokens:
                e = as_int(tok, row_lineno, f"{key} entry")
                if not 0 <= e < n:
                    raise ParseError(f"line {row_lineno}: entry {e} out of range [0, {n})")
                row.append(e)
            rows.append(tuple(row))
        tables[key] = tuple(rows)

    if pos != len(lines):
        lineno, tokens = lines[pos]
        raise ParseError(f"line {lineno}: unexpected trailing content '{' '.join(tokens)}'")
    return Semiring(size=n, labels=tuple(labels), zero=special["zero"], one=special["one"],
                    add_table=tables["add"], mul_table=tables["mul"])


def format_semiring(sr: Semiring) -> str:
    """Render a semiring in the definition file format (round-trips through parse)."""
    out = [f"semiring {sr.size}", "labels " + " ".join(sr.labels),
           f"zero {sr.zero}", f"one {sr.one}", "add"]
    out.extend(" ".join(map(str, row)) for row in sr.add_table)
    out.append("mul")
    out.extend(" ".join(map(str, row)) for row in sr.mul_table)
    return "\n".join(out) + "\n"
