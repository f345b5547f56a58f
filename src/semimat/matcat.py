"""Matrices over a fixed finite idempotent semiring, composed as a category.

Objects are whole numbers.  An arrow x -> y is an x-by-y matrix of element
indices and composition is the diagrammatic matrix product: for a: x -> y
and b: y -> z, ``compose(sr, a, b)`` is the product a.b, i.e. b-after-a.
Every operation is pure and every value immutable.

Hom-sets are enumerated in a fixed total order (ascending entry-height sum,
ties broken by the row-major entry vector).  Because a strictly dominated
matrix has a strictly smaller height sum, this order is a linear extension
of the entrywise dominance order.  ``enumerate_hom`` sorts the codes by
height sum, which a stable sort leaves in code order within a height.

Hom(d, x) is every d-by-x matrix, so it is coded without a lookup table.
A row is coded as the base-n integer of its entries, first column most
significant, which maps the n^x possible rows one to one onto
range(n^x); a matrix is coded by its rows' codes as base-n^x digits,
first row most significant, i.e. by its row-major entry vector read in
base n.  Every vector of d*x digits occurs exactly once, so the code is
a bijection from Hom(d, x) onto range(n^(d*x)).  The code is the one
representation of an element: ``HomEnumeration.codes`` is the order,
the one table ``enumerate_hom`` builds, and ``from_code`` decodes one
into a ``Morphism`` when one is needed.  A construct certificate's order
section writes each code's d*x base-n digits (``certfile``); no other
module reads the layout.

Row images are bit-sliced.  Element a is embedded as the n-bit mask
{c : not a <= c} in the natural order.  Because a + b <= c iff a <= c
and b <= c, the mask of a sum is the OR of the masks, and because b is
outside its own mask, a <= b iff mask(a) is a subset of mask(b); both
hold exactly in every semiring that passes ``verify_axioms``, whichever
index zero has (its mask is 0).  A row is packed as one integer of n-bit
fields, so the image of a row under s is one OR per row code, and a
dict decodes an image back to its code.
The ORs read one table, ``scaled_rows``: each row of s scaled by each
element, packed as ``packed_rows`` packs a row; ``certifier.product_is``
reads it too, to compare a product D.E with a matrix's ``packed_rows``
row by row without forming the product.
That dict (``row_table``) holds all n^x rows of width x, which at d >= 1
is at most |Hom(d, x)|; it is cached per semiring and width, so every
hom-set and oracle call of one width reads the same one.  Row k of a.b
is (row k of a).b, so one more prefix sweep, ``code_images``, turns row
images into matrix images; ``right_action`` (h -> h.s on a hom-set) and
the oracle's products a.b share it, and ``compose`` remains their
reference (``dominates`` is that of ``certifier.inflates``).  A one-element
hom-set (d = 0, x = 0 or n = 1) never sweeps: d or x may be huge there.

``right_actions`` acts with up to GROUP endomorphisms s_0, s_1, ... in
one pass of both sweeps; each distinct row among all of them is checked
and scaled once per call.  Field g of a packed integer, the bits from
g*w up, holds s_g's value, so one OR or multiply-add acts on all of
them at once; w is 8, 16, 32 or 64 bits, the narrowest that holds a
value, so that ``int.to_bytes`` and one ``memoryview.cast`` read every
field back as an item, and field g of each integer is a slice of stride
the group's size.  No field carries into the next.  The row sweep only
ORs, which never carries, and a row mask has n*x bits.  The code sweep
takes each field p to p*n^x + q with q < n^x: its field grows from a
row code below n^x to a code of k rows below n^(k*x), and never
exceeds the m - 1 its width holds.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import lshift

from .errors import CapExceededError
from .semiring import Semiring, natural_order

DEFAULT_HOM_CAP = 4096
GROUP = 64  # endomorphisms per packed sweep of ``right_actions``
FIELD_BITS = 64  # the widest packed field ``right_actions`` reads back
ITEM_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # memoryview item formats by size in bytes


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


def entries_in_range(sr: Semiring, m: Morphism) -> bool:
    """Whether every entry of m is below the semiring's size (entries are never negative)."""
    return max(map(max, filter(None, m.entries)), default=0) < sr.size


def _check_entries(sr: Semiring, m: Morphism) -> None:
    if not entries_in_range(sr, m):
        e = next(e for row in m.entries for e in row if e >= sr.size)
        raise ValueError(f"entry {e} out of range for semiring of size {sr.size}")


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


def from_entry_vector(src: int, dst: int, vec) -> Morphism:
    vec = tuple(vec)
    if len(vec) != src * dst:
        raise ValueError(f"expected {src * dst} entries for a {src}x{dst} morphism, got {len(vec)}")
    return Morphism(src, dst, tuple(vec[i * dst:(i + 1) * dst] for i in range(src)))


def morphisms_from_bytes(src: int, dst: int, data: bytes) -> list[Morphism]:
    """The src-by-dst matrices of ``data``, one byte per entry, each one's entries row-major.

    Every byte is a nonnegative int, and cutting ``data`` into rows of
    dst and matrices of src rows fixes each shape, so the checks of
    ``Morphism.__post_init__`` hold and are not run.  ValueError unless
    src and dst are positive and ``data`` holds whole matrices.
    """
    if src < 1 or dst < 1 or len(data) % (src * dst):
        raise ValueError(f"{len(data)} bytes are no whole number of {src}x{dst} matrices")
    return [built_morphism(src, dst, entries)
            for entries in zip(*[iter(zip(*[iter(data)] * dst))] * src)]


def built_morphism(src: int, dst: int, entries: tuple[tuple[int, ...], ...]) -> Morphism:
    """The Morphism of ``entries``: a tuple of src tuples of dst nonnegative ints.

    For entries the library shapes itself, so the checks of
    ``Morphism.__post_init__`` hold and are not run.
    """
    m = object.__new__(Morphism)
    m.__dict__.update(src=src, dst=dst, entries=entries)
    return m


def from_code(src: int, dst: int, n: int, code: int) -> Morphism:
    """The src-by-dst matrix whose entry vector, read in base n, is ``code``."""
    return from_entry_vector(src, dst, [code // n ** i % n for i in reversed(range(src * dst))])


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
    """All of Hom(d, x) in a fixed linear extension of the dominance order.

    Elements are held as codes only (the entry vector read in base n).
    ``codes[i]`` is the code of rank i, so ``codes`` is the order, and
    the only table ``enumerate_hom`` builds, once per semiring and d*x;
    the construct branch's ``order-canonical`` check reads it alone, and
    the pad branch enumerates nothing.  The rest are built on first read:
    ``rank_of_code`` inverts ``codes`` (with int objects of its own),
    and ``morphisms`` decodes every code.  ``code_of_mask`` maps the
    packed mask of each row of width x (see ``row_images``) to its code;
    it is ``row_table``, cached per semiring and width, and is empty
    when d = 0, which has no rows.
    ``right_action`` reads ``rank_of_code`` and ``code_of_mask`` for a
    whole action at once; the tests keep the lookup of one element's
    rank as its reference.
    """

    d: int
    x: int
    sr: Semiring = field(repr=False)
    codes: tuple[int, ...] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.morphisms)

    @cached_property
    def morphisms(self) -> tuple[Morphism, ...]:
        # product() yields the entry vectors in code order, each of d rows of x
        d, x = self.d, self.x
        vecs = list(itertools.product(range(self.sr.size), repeat=d * x))
        rows = [slice(i * x, (i + 1) * x) for i in range(d)]
        return tuple(built_morphism(d, x, tuple(map(vec.__getitem__, rows)))
                     for vec in map(vecs.__getitem__, self.codes))

    @cached_property
    def rank_of_code(self) -> list[int]:
        return sorted(range(self.size), key=self.codes.__getitem__)  # the inverse permutation

    @property
    def code_of_mask(self) -> dict[int, int]:
        return row_table(self.sr, self.x) if self.d else {}


def check_hom_cap(sr: Semiring, d: int, x: int, cap: int) -> None:
    """CapExceededError (carrying the true size) when |Hom(d, x)| or d*x exceeds ``cap``.

    With one element the hom-set has one member, but its entry vector
    still has d*x entries.  Nothing is enumerated.
    """
    capped_power(sr.size, d * x, cap, f"|Hom({d},{x})|")
    if d * x > cap:  # only when n = 1, since n^(d*x) <= cap bounds d*x otherwise
        raise CapExceededError(f"entries per element of Hom({d},{x}) = {d * x} exceed cap {cap}",
                               size=d * x)


def enumerate_hom(sr: Semiring, d: int, x: int, cap: int = DEFAULT_HOM_CAP) -> HomEnumeration:
    """Enumerate all |R|^(d*x) morphisms d -> x, sorted by (height sum, entry vector).

    Raises CapExceededError as ``check_hom_cap`` does.
    """
    if d < 0 or x < 0:
        raise ValueError(f"objects must be whole numbers, got d={d}, x={x}")
    check_hom_cap(sr, d, x, cap)
    return HomEnumeration(d, x, sr, _hom_order(sr, d * x))


@lru_cache(maxsize=None)
def _hom_order(sr: Semiring, width: int) -> tuple[int, ...]:
    """The codes of ``width`` base-n digits in (height sum, code) order.

    The height sums of all codes are built one digit at a time, in code
    order, and a stable sort by them breaks ties by code, which orders
    as the entry vector does.  Cached per semiring and width, as
    ``row_table`` is.
    """
    height = natural_order(sr).height
    sums = [0]
    for _ in range(width):
        sums = [t + h for t in sums for h in height]
    return tuple(sorted(range(len(sums)), key=sums.__getitem__))


def scaled_rows(sr: Semiring, rows) -> list[list[int]]:
    """M[k][a], the packed mask of a.(row k), for each of ``rows`` and element a.

    Rows are packed as ``packed_rows`` packs them, so with ``rows`` the
    rows of s, the row r.s is the OR over k of M[k][r_k].
    """
    n, products = sr.size, _product_masks(sr)
    table = []
    for srow in rows:
        step = []
        for masks in products:
            packed = 0
            for e in srow:
                packed = packed << n | masks[e]
            step.append(packed)
        table.append(step)
    return table


def row_images(sr: Semiring, s: Morphism) -> list[int]:
    """The mask of r.s for every row code r of s's height, in code order.

    r.s is the OR over k of M[k][r_k] (see ``scaled_rows``), and the
    sweep below forms all n^y of them with one OR each, a row code's
    images following its prefix's.  A matrix with no rows has one image,
    the empty sum: the zero row, mask 0.
    """
    level = [0]
    for step in scaled_rows(sr, s.entries):
        level = [p | q for p in level for q in step]
    return level


@lru_cache(maxsize=None)
def row_table(sr: Semiring, x: int) -> dict[int, int]:
    """The code of each row of width x, keyed by its packed mask: the identity's row images.

    Cached per semiring and width; callers only read the table.
    """
    return {mask: code for code, mask in enumerate(row_images(sr, identity(sr, x)))}


@lru_cache(maxsize=None)
def element_masks(sr: Semiring) -> tuple[int, ...]:
    """mask(a) = {c : not a <= c} as an n-bit integer, for each element a.

    In the natural order a + b <= c iff a <= c and b <= c, so
    mask(a + b) = mask(a) | mask(b); and a <= b iff mask(a) is a subset
    of mask(b), since b is outside mask(b).  Zero lies below everything,
    so mask(zero) = 0 whatever zero's index.  Cached per semiring.
    """
    leq = natural_order(sr).leq
    return tuple(sum(1 << c for c in range(sr.size) if not below[c]) for below in leq)


def packed_rows(sr: Semiring, rows) -> list[int]:
    """Each of ``rows`` packed as one integer of n-bit fields.

    A row of width w is packed as w fields, first column most
    significant, field j holding the mask {c : not e_j <= c} of entry
    e_j.  Masks are one to one on elements, so two rows are equal iff
    their packed masks are, and one row lies below another entrywise
    iff its mask lies inside the other's.
    """
    n, masks = sr.size, element_masks(sr)
    out = []
    for row in rows:
        packed = 0
        for e in row:
            packed = packed << n | masks[e]
        out.append(packed)
    return out


@lru_cache(maxsize=None)
def _product_masks(sr: Semiring) -> tuple[tuple[int, ...], ...]:
    """P[a][e] = mask(a * e): the multiplication table as masks, cached per semiring."""
    masks = element_masks(sr)
    return tuple(tuple(masks[p] for p in prod) for prod in sr.mul_table)


def code_images(n: int, row_map: list[int], rows: int, cols: int) -> list[int]:
    """The image code of every ``rows``-row matrix, in code order.

    ``row_map[r]`` is the code, of width ``cols``, of row r's image.  A
    matrix's image has its rows' images as base-n^cols digits, so each
    follows its prefix's with one multiply-add, as in ``row_images``.
    """
    width = n ** cols
    level = row_map if rows else [0]
    for _ in range(rows - 1):
        level = [p * width + q for p in level for q in row_map]
    return level


def _check_acts(sr: Semiring, s: Morphism, hom: HomEnumeration) -> None:
    if s.src != s.dst:
        raise ValueError(f"expected an endomorphism, got {s.src}x{s.dst}")
    if s.src != hom.x:
        raise ValueError(f"endomorphism of {s.src} does not act on Hom({hom.d},{hom.x})")
    _check_entries(sr, s)


def right_action(sr: Semiring, s: Morphism, hom: HomEnumeration) -> list[int]:
    """The rank of h.s for each h of ``hom``, in rank order.

    The images of all row codes come from one ``row_images`` sweep,
    decoded once through ``hom.code_of_mask``, and those of all matrices
    from one ``code_images`` sweep.  A one-element hom-set is its own
    image and never sweeps.  Agrees with ``compose``, which is the
    reference; ``right_actions`` packs it.
    """
    _check_acts(sr, s, hom)
    if hom.size == 1:  # d = 0, x = 0 or n = 1, where d or x is unbounded
        return [0]
    image = code_images(sr.size, list(map(hom.code_of_mask.__getitem__, row_images(sr, s))),
                        hom.d, hom.x)
    return list(map(hom.rank_of_code.__getitem__, map(image.__getitem__, hom.codes)))


def right_actions(sr: Semiring, ss, hom: HomEnumeration) -> list[list[int]]:
    """``right_action(sr, s, hom)`` for each s of ``ss``, GROUP of them per packed sweep.

    Field g of a packed integer holds s_g's value (see the module
    docstring).  The row sweep ORs the scaled rows of the whole group at
    once.  At d = 1 a row is an element: the images, put in rank order,
    are read back through one mask-to-rank table.  At d >= 2 they are
    decoded to row codes, repacked in fields that hold a code of the
    hom-set, and ``code_images`` sweeps those.  A field wider than
    FIELD_BITS bits goes to ``right_action``: a mask of n*x > 64 bits,
    which in the construct branch (x > n^d >= n) takes a hom-set of at
    least 2^27 elements.  The s share most of their rows, so each
    distinct row is checked and scaled once per call: one set of
    signatures and one ``max`` check the whole list, and only when they
    fail does the check of each s in turn raise right_action's
    ValueError for the first s of ``ss`` that cannot act on ``hom``.
    """
    ss = list(ss)
    distinct = dict.fromkeys(itertools.chain.from_iterable(s.entries for s in ss))
    if ({s.signature for s in ss} - {(hom.x, hom.x)}
            or max(map(max, filter(None, distinct)), default=0) >= sr.size):
        for s in ss:
            _check_acts(sr, s, hom)
    if hom.size == 1:
        return [[0] for _ in ss]
    n, d, x = sr.size, hom.d, hom.x
    mask_size, code_size = field_size(n * x), field_size((hom.size - 1).bit_length())
    if mask_size is None or code_size is None:
        return [right_action(sr, s, hom) for s in ss]
    rank_of_code, code_of_mask = hom.rank_of_code, hom.code_of_mask
    if d == 1:  # a row is an element: its mask decodes straight to a rank
        size, table = mask_size, dict(zip(code_of_mask, map(rank_of_code.__getitem__,
                                                             code_of_mask.values())))
    else:
        size, table = code_size, rank_of_code
    scaled = dict(zip(distinct, scaled_rows(sr, distinct)))
    actions = []
    for start in range(0, len(ss), GROUP):
        group = ss[start:start + GROUP]
        level = [0]
        for rows in zip(*(map(scaled.__getitem__, s.entries) for s in group)):  # row k of each s
            step = _packed(zip(*rows), len(group), mask_size)
            level = [p | q for p in level for q in step]
        if d > 1:
            row_codes = [map(code_of_mask.__getitem__, image)
                         for image in _fields(level, len(group), mask_size)]
            level = code_images(n, _packed(zip(*row_codes), len(group), code_size), d, x)
        images = _fields(map(level.__getitem__, hom.codes), len(group), size)
        actions += (list(map(table.__getitem__, image)) for image in images)
    return actions


def field_size(bits: int) -> int | None:
    """The fewest bytes of a ``memoryview`` item that hold ``bits`` bits; None past FIELD_BITS."""
    if bits > FIELD_BITS:
        return None
    return next(size for size in ITEM_FORMATS if bits <= 8 * size)


def _packed(columns, count: int, size: int) -> list[int]:
    """Each of ``columns``, ``count`` values, packed with value g in field g of ``size`` bytes."""
    shifts = range(0, 8 * size * count, 8 * size)
    return [sum(map(lshift, values, shifts)) for values in columns]


def _fields(packed, count: int, size: int) -> list[memoryview]:
    """Field g of each of ``packed``, for g < ``count``: one strided view per g.

    Every integer is written as ``count`` fields of ``size`` bytes, in
    native byte order so that one ``memoryview.cast`` reads each field
    as an item; field g of every integer is then a slice of stride
    ``count``.  A little-endian integer has field 0 first, a big-endian
    one last.
    """
    data = b"".join(map(int.to_bytes, packed, itertools.repeat(count * size),
                        itertools.repeat(sys.byteorder)))
    view = memoryview(data).cast(ITEM_FORMATS[size])
    firsts = range(count) if sys.byteorder == "little" else range(count - 1, -1, -1)
    return [view[first::count] for first in firsts]
