"""Matrices over a fixed finite idempotent semiring, composed as a category.

Objects are whole numbers.  An arrow x -> y is an x-by-y matrix of element
indices and composition is the diagrammatic matrix product: for a: x -> y
and b: y -> z, ``compose(sr, a, b)`` is the product a.b, i.e. b-after-a.
Every operation is pure and every value immutable.

Hom-sets are enumerated in a fixed total order (ascending entry-height sum,
ties broken by the row-major entry vector).  Because a strictly dominated
matrix has a strictly smaller height sum, this order is a linear extension
of the entrywise dominance order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceededError
from .semiring import Semiring, natural_order

DEFAULT_HOM_CAP = 4096


@dataclass(frozen=True)
class Morphism:
    """An arrow src -> dst: a src-by-dst table of semiring element indices."""

    src: int
    dst: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if self.src < 0 or self.dst < 0:
            raise ValueError(f"negative dimensions {self.src}x{self.dst}")
        if len(self.entries) != self.src:
            raise ValueError(f"expected {self.src} rows, got {len(self.entries)}")
        for i, row in enumerate(self.entries):
            if len(row) != self.dst:
                raise ValueError(f"row {i} has {len(row)} entries, expected {self.dst}")
            for e in row:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"entry {e!r} at row {i} is not a valid element index")

    @property
    def signature(self) -> tuple[int, int]:
        return (self.src, self.dst)


def identity(sr: Semiring, x: int) -> Morphism:
    """The x-by-x matrix with one on the diagonal, zero elsewhere."""
    return Morphism(x, x, tuple(tuple(sr.one if i == j else sr.zero for j in range(x))
                                for i in range(x)))


def zero_morphism(sr: Semiring, x: int, y: int) -> Morphism:
    return Morphism(x, y, tuple(tuple(sr.zero for _ in range(y)) for _ in range(x)))


def _check_entries(sr: Semiring, m: Morphism) -> None:
    n = sr.size
    for row in m.entries:
        for e in row:
            if e >= n:
                raise ValueError(f"entry {e} out of range for semiring of size {n}")


def compose(sr: Semiring, a: Morphism, b: Morphism) -> Morphism:
    """The matrix product a.b (b composed after a); a.dst must equal b.src."""
    if a.dst != b.src:
        raise ValueError(f"cannot compose {a.src}x{a.dst} with {b.src}x{b.dst}")
    _check_entries(sr, a)
    _check_entries(sr, b)
    add_t, mul_t, z = sr.add_table, sr.mul_table, sr.zero
    y = a.dst
    rows = []
    for arow in a.entries:
        out_row = []
        for j in range(b.dst):
            acc = z
            for k in range(y):
                acc = add_t[acc][mul_t[arow[k]][b.entries[k][j]]]
            out_row.append(acc)
        rows.append(tuple(out_row))
    return Morphism(a.src, b.dst, tuple(rows))


def dominates(sr: Semiring, f: Morphism, g: Morphism) -> bool:
    """True when g dominates f: every entry of f is below the matching entry of g."""
    if f.signature != g.signature:
        raise ValueError(f"signature mismatch: {f.signature} vs {g.signature}")
    leq = natural_order(sr).leq
    return all(leq[a][b] for frow, grow in zip(f.entries, g.entries)
               for a, b in zip(frow, grow))


def entry_vector(m: Morphism) -> tuple[int, ...]:
    """Row-major flattening of the entries."""
    return tuple(itertools.chain.from_iterable(m.entries))


def from_entry_vector(src: int, dst: int, vec) -> Morphism:
    vec = tuple(vec)
    if len(vec) != src * dst:
        raise ValueError(f"expected {src * dst} entries for a {src}x{dst} morphism, got {len(vec)}")
    return Morphism(src, dst, tuple(vec[i * dst:(i + 1) * dst] for i in range(src)))


def format_morphism(sr: Semiring, m: Morphism) -> str:
    """Bracketed rows of element labels, e.g. ``[[0, 1], [1, 1]]``."""
    rows = ", ".join("[" + ", ".join(sr.label(e) for e in row) + "]" for row in m.entries)
    return f"[{rows}]"


def hom_size(sr: Semiring, d: int, x: int) -> int:
    return sr.size ** (d * x)


def power_exceeds(n: int, k: int, bound: int) -> bool:
    """Whether n**k > bound, never forming a power much larger than ``bound``."""
    if n >= 2 and k >= max(bound, 1).bit_length():
        return True  # n^k >= 2^k > bound
    return n ** k > bound


def capped_power(n: int, k: int, cap: int, what: str) -> int:
    """n**k, or CapExceededError naming ``what`` when it exceeds ``cap``.

    The exponent is compared before exponentiating, and a size past 64
    bits is reported symbolically as ``n^k``, so a huge k stays cheap.
    """
    if not power_exceeds(n, k, cap):
        return n ** k
    size = n ** k if k * n.bit_length() <= 64 else None
    text = f"{n}^{k}" if size is None else str(size)
    raise CapExceededError(f"{what} = {text} exceeds cap {cap}", size=size)


@dataclass
class HomEnumeration:
    """All of Hom(d, x) in a fixed linear extension of the dominance order."""

    d: int
    x: int
    morphisms: tuple[Morphism, ...]
    order_keys: tuple[tuple[int, tuple[int, ...]], ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._positions = {m: i for i, m in enumerate(self.morphisms)}

    @property
    def size(self) -> int:
        return len(self.morphisms)

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)

    def position(self, m: Morphism) -> int:
        try:
            return self._positions[m]
        except KeyError:
            raise ValueError(f"morphism {m.src}x{m.dst} is not in the enumerated hom-set") from None


def enumerate_hom(sr: Semiring, d: int, x: int, cap: int = DEFAULT_HOM_CAP) -> HomEnumeration:
    """Enumerate all |R|^(d*x) morphisms d -> x, sorted by (height sum, entry vector).

    Raises CapExceededError (carrying the true size) when the hom-set would
    exceed ``cap``.
    """
    if d < 0 or x < 0:
        raise ValueError(f"objects must be whole numbers, got d={d}, x={x}")
    capped_power(sr.size, d * x, cap, f"|Hom({d},{x})|")
    height = natural_order(sr).height
    keyed = sorted((sum(height[e] for e in vec), vec)
                   for vec in itertools.product(range(sr.size), repeat=d * x))
    morphisms = tuple(from_entry_vector(d, x, vec) for _, vec in keyed)
    return HomEnumeration(d=d, x=x, morphisms=morphisms, order_keys=tuple(keyed))
