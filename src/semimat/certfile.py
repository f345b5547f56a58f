"""Line-oriented text serialization of certificates.

The format is deterministic (identical certificates render to identical
bytes), diff-friendly (one logical item per line, one block per enumerated
morphism) and fully re-parsable.  Matrices are written as rows joined by
``;`` on a single line; fractions render as ``p`` or ``p/q``.  ``#``
starts a comment and blank lines are ignored on input.

The order section, one ``f`` line per element of Hom(d, x), is most of
a pad-branch file.  Each line is the element's code (see ``matcat``)
written as its d*x base-n digits, and the parsed order holds codes,
never entry tuples.  It is written a run of lines with one high digit
half per ``str.join``, and read a block at a time at C speed: a digit
column at a time in bases 2-10, a line per ``int`` in bases 11-36.  Any
other line (a comment, a blank line, a defect, an out-of-range entry,
another spelling) is read line by line under the same rules as every
other line, which raises the first bad line's error.  Entries there
decode through a small table of the canonical spellings that falls back
to ``int``, so every spelling ``int`` accepts (``01``, ``+1``, ``1_0``,
other scripts' digits) still parses.

The construct section after the order is read a section at a time in
the same way: the m blocks at once, then the ``c`` lines, the ``diag``
lines and ``det``.  A block section laid out exactly as rendered with
one-digit entries, as in every base from 2 to 10, is decoded one
matrix shape at a time.  Each distinct ``factor`` and ``v`` line pair
is read once, and gives its block's shapes; the distinct ``s``,
``left`` and ``right`` lines are grouped by keyword, rows and columns.
Each group is joined and its length checked, its layout is checked
with one ``bytes.translate`` and its values read with another, and
``matcat.morphisms_from_bytes`` cuts those bytes into matrices.
Blocks with the same text share one ``CertBlock``.  Fraction lines
that are all plain integers read with one ``Fraction(int(token))`` per
distinct token.  Any other section goes to the line reader from its
first line, so every input gives the same Certificate, or the same
ParseError, as the line reader alone.

An entry never carries into another code: a line with an entry outside
range(n) reads as ``NO_CODE``, which no canonical order holds, so it
fails ``order-canonical`` as it always did.  Only an order whose count
is n^(d*x) can be canonical, so only then are lines decoded; with any
other count they are checked but read as ``NO_CODE``, and no code wider
than the count is formed.  Parsing stays linear in the text, whatever
the header's n, d and x.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import groupby, product, repeat

from .certifier import CertBlock, Certificate, Factorization
from .errors import ParseError
from .matcat import ITEM_FORMATS, Morphism, field_size, morphisms_from_bytes, power_exceeds
from .semiring import MAX_VERIFY_SIZE

FORMAT_MAGIC = "semimat-certificate"
FORMAT_VERSION = 2
_FRACTION = r"-?[0-9]+(/[0-9]+)?"  # p or p/q, as render_certificate writes them
# str.splitlines breaks lines at these as well as at "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# order lines per rendered block, and characters per parsed block: both
# bound the temporaries of one block
_RENDER_BLOCK = 1024
_PARSE_BLOCK = 65536
# texts of low digit halves the renderer tabulates, at most
_DIGIT_TABLE = 4096
# what a parsed f line holds when it is no code of Hom(d, x)
NO_CODE = -1
_DIGITS = b"0123456789"
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
# bytes.translate tables: each digit to NUL and NUL to \x01, so a line
# marks as a matrix layout only where it has digits; each digit to its value
_MARK = bytes.maketrans(_DIGITS + b"\0", b"\0" * 10 + b"\1")
_VALUE = bytes.maketrans(_DIGITS, bytes(range(10)))


class _Spellings(dict):
    """Token -> integer; a token outside the table goes through ``int``, uncached."""

    def __missing__(self, token: str) -> int:
        return int(token)


# the canonical spellings of the elements of every semiring small enough
# to verify: a fixed table, never sized by anything a certificate says
_ELEMENT = _Spellings((str(e), e) for e in range(MAX_VERIFY_SIZE))


def _matrix_text(m: Morphism) -> str:
    return " ; ".join(" ".join(str(e) for e in row) for row in m.entries)


def _emit_factor(out: list[str], fact: Factorization) -> None:
    out.append(f"factor {fact.source} {fact.width} {fact.pad}")
    out.append(("left " + _matrix_text(fact.left)).rstrip())
    out.append(("right " + _matrix_text(fact.right)).rstrip())


def render_certificate(cert: Certificate) -> str:
    """Canonical text form of a certificate."""
    head = [f"{FORMAT_MAGIC} {FORMAT_VERSION}",
            f"semiring-size {cert.semiring_size}",
            f"semiring-hash {cert.semiring_hash}",
            f"d {cert.d}",
            f"x {cert.x}",
            f"y {cert.y}",
            f"branch {cert.branch}",
            f"order {len(cert.order)}", ""]
    out = []
    if cert.branch == "pad":
        assert cert.pad is not None
        _emit_factor(out, cert.pad)
    else:
        for i, blk in enumerate(cert.blocks):
            out.append(f"block {i}")
            out.append(("s " + _matrix_text(blk.s)).rstrip())
            _emit_factor(out, blk.factor)
            out.append(f"v {blk.v}")
        out.append(f"coefficients {len(cert.coefficients)}")
        out.extend(f"c {c}" for c in cert.coefficients)
        out.append(f"diagonal {len(cert.x_diagonal)}")
        out.extend(f"diag {v}" for v in cert.x_diagonal)
        out.append(f"det {cert.det_x}")
    for name, ok in cert.checks:
        out.append(f"check {name} {'pass' if ok else 'fail'}")
    out.append("end\n")
    return "".join(["\n".join(head), *_order_blocks(cert), "\n".join(out)])


def _order_blocks(cert: Certificate) -> list[str]:
    """The ``f`` lines of ``cert.order``, joined about ``_RENDER_BLOCK`` lines per string.

    Line i holds the d*x base-n digits of code i, most significant
    first, in two halves; the low one, at most half the digits and
    ``_DIGIT_TABLE`` texts, is tabulated with its break.  A run of codes
    with one high half (in the canonical order, one height's run of low
    halves) is one join of their low texts by ``f`` and the high half,
    built once per distinct value.  ValueError for a code outside
    range(n^(d*x)), whose digits would carry or run short.
    """
    codes, n, width = cert.order, cert.semiring_size, cert.d * cert.x
    if n < 1 and codes:
        raise ValueError(f"order holds a code outside range({n}^{width})")
    # n^k > _DIGIT_TABLE for every larger k unless n = 1, where any k serves
    low = max((k for k in range(1, min((width + 1) // 2, _DIGIT_TABLE.bit_length()) + 1)
               if n ** k <= _DIGIT_TABLE), default=0)
    high_digits, base = width - low, n ** low
    texts = [" %d" * low % chunk + "\n" for chunk in product(range(n), repeat=low)]
    heads, blocks, pieces, lines = {}, [], [], 0  # heads: "f" and each high half's text
    for high, group in groupby(codes, base.__rfloordiv__):
        head = heads.get(high)
        if head is None:
            if high < 0 or not power_exceeds(n, high_digits, high):
                raise ValueError(f"order holds a code outside range({n}^{width})")
            head = heads[high] = "f" + " %d" * high_digits % tuple(
                high // n ** i % n for i in reversed(range(high_digits)))
        lows = list(map(base.__rmod__, group))
        pieces += head, head.join(map(texts.__getitem__, lows))
        lines += len(lows)
        if lines >= _RENDER_BLOCK:
            blocks.append("".join(pieces))
            pieces.clear()
            lines = 0
    return [*blocks, "".join(pieces)]


def _order_base(n: int, width: int, count: int) -> int | None:
    """n when ``count`` = n^width, so the order can be canonical; else None.

    With any other count no order is canonical whatever its lines say,
    so they are checked but not decoded, and no code of more than
    count's size is formed, however wide a line or large n is.
    """
    return n if n >= 1 and not power_exceeds(n, width, count) and n ** width == count else None


def _order_code(lineno: int, rest: list[str], width: int, base: int | None) -> int:
    """The code of one ``f`` line read in ``base``, or NO_CODE.

    NO_CODE when ``base`` is None or an entry lies outside range(base),
    so an out-of-range entry never carries into another code.
    """
    try:
        entries = list(map(_ELEMENT.__getitem__, rest))
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer entry in order vector") from None
    if len(entries) != width:
        raise ParseError(f"line {lineno}: order vector has {len(entries)} entries, "
                         f"expected {width}")
    if base is None or entries and not 0 <= min(entries) <= max(entries) < base:
        return NO_CODE
    code = 0
    for e in entries:
        code = code * base + e
    return code


class _Reader:
    """The lines of a certificate, numbered as ``str.splitlines`` numbers them.

    A line is split into tokens only when it is taken; lines with no
    token outside a comment are skipped.  ``pos`` is the offset of the
    next unread line and ``lineno`` its number.
    """

    def __init__(self, text: str):
        if any(map(text.__contains__, _OTHER_BREAKS)):
            # rejoined, the same lines are split by "\n" alone
            text = "\n".join(text.splitlines())
        self.text = text
        self.pos = 0
        self.lineno = 1

    def _next(self) -> tuple[int, list[str], int] | None:
        """Skip lines without tokens; the next line's number, tokens and end, or None."""
        text = self.text
        while self.pos < len(text):
            end = text.find("\n", self.pos)
            if end < 0:
                end = len(text)
            tokens = text[self.pos:end].split("#", 1)[0].split()
            if tokens:
                return self.lineno, tokens, end + 1
            self.pos = end + 1
            self.lineno += 1
        return None

    def peek_keyword(self) -> str | None:
        line = self._next()
        return None if line is None else line[1][0]

    def take(self, keyword: str) -> tuple[int, list[str]]:
        line = self._next()
        if line is None:
            raise ParseError(f"unexpected end of certificate: expected '{keyword}'")
        lineno, tokens, end = line
        if tokens[0] != keyword:
            raise ParseError(f"line {lineno}: expected '{keyword}', got '{tokens[0]}'")
        self.pos, self.lineno = end, lineno + 1
        return lineno, tokens[1:]

    def _lines(self, count: int) -> list[str] | None:
        """The next ``count`` lines as they stand, none skipped; None when fewer remain.

        Also None for a negative ``count`` and for one past the characters
        left, which cannot hold that many breaks: a header's count is
        untrusted, and ``split`` reads a negative one as no limit and
        cannot take one past ``sys.maxsize``.
        """
        if not 0 <= count <= len(self.text) - self.pos:
            return None
        lines = self.text[self.pos:].split("\n", count)
        if len(lines) <= count:
            return None
        del lines[count]
        return lines

    def _skip(self, lines: list[str]) -> None:
        """Move past ``lines``, the lines ``_lines`` returned."""
        self.pos += sum(map(len, lines)) + len(lines)
        self.lineno += len(lines)

    def take_end(self) -> None:
        self.take("end")
        line = self._next()
        if line is not None:
            raise ParseError(f"line {line[0]}: unexpected content after 'end'")

    def take_int(self, keyword: str) -> int:
        lineno, rest = self.take(keyword)
        if len(rest) != 1:
            raise ParseError(f"line {lineno}: expected '{keyword} <integer>'")
        try:
            return int(rest[0])
        except ValueError:
            raise ParseError(f"line {lineno}: '{keyword}' value {rest[0]!r} is not an integer") from None

    def take_fraction(self, keyword: str) -> Fraction:
        lineno, rest = self.take(keyword)
        if len(rest) != 1:
            raise ParseError(f"line {lineno}: expected '{keyword} <fraction>'")
        # Fraction alone also reads '1e9999999', whose value costs
        # unbounded time and memory
        if not re.fullmatch(_FRACTION, rest[0]):
            raise ParseError(f"line {lineno}: bad fraction {rest[0]!r}")
        try:
            return Fraction(rest[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad fraction {rest[0]!r}") from None

    def take_fractions(self, keyword: str, count: int) -> tuple[Fraction, ...]:
        """``count`` lines ``keyword <fraction>``.

        Lines that are all exactly ``keyword``, a space and ASCII digits,
        as rendered, are read at once, each distinct token with one
        ``Fraction(int(token))``.
        Any other text, and an integer too long for ``int`` to read from
        one string, is read line by line by ``take_fraction``, which
        raises the first bad line's error.
        """
        lines = self._lines(count)
        if lines is not None:
            head = keyword + " "
            tokens = [line[len(head):] for line in lines]
            digits = "".join(tokens)
            if (all(map(str.startswith, lines, repeat(head)))
                    and digits.isascii() and digits.isdigit()):
                distinct = dict.fromkeys(tokens)
                try:
                    distinct.update(zip(distinct, map(Fraction, map(int, distinct))))
                except ValueError:
                    pass
                else:
                    self._skip(lines)
                    return tuple(map(distinct.__getitem__, tokens))
        return tuple(self.take_fraction(keyword) for _ in range(count))

    def take_blocks(self, count: int, x: int) -> list[CertBlock]:
        """The ``count`` blocks of the construct section, ``block i`` and its five lines each.

        A section laid out exactly as rendered with one-digit entries, as
        in every base from 2 to 10, is read at once, one matrix shape at
        a time (see ``_rendered_blocks``), and blocks with the same text
        share one ``CertBlock``.  Any other text goes to the line reader
        from the section's first line, which raises the first bad
        line's error.
        """
        lines = self._lines(6 * count)
        if lines is not None and lines[::6] == [f"block {i}" for i in range(count)]:
            blocks = _rendered_blocks(x, lines)
            if blocks is not None:
                self._skip(lines)
                return blocks
        return [self._take_block(i, x) for i in range(count)]

    def _take_block(self, i: int, x: int) -> CertBlock:
        lineno, rest = self.take("block")
        if rest != [str(i)]:
            raise ParseError(f"line {lineno}: expected 'block {i}'")
        s = self.take_matrix("s", x, x)
        fact = _parse_factor(self)
        return CertBlock(s=s, factor=fact, v=self.take_int("v"))

    def take_matrix(self, keyword: str, rows: int, cols: int) -> Morphism:
        lineno, rest = self.take(keyword)
        if rows == 0:
            if rest:
                raise ParseError(f"line {lineno}: expected an empty {rows}x{cols} matrix")
            return Morphism(rows, cols, ())
        groups: list[list[str]] = [[]]
        for tok in rest:
            if tok == ";":
                groups.append([])
            else:
                groups[-1].append(tok)
        if len(groups) != rows:
            raise ParseError(f"line {lineno}: expected {rows} rows, got {len(groups)}")
        table = []
        for row in groups:
            if len(row) != cols:
                raise ParseError(f"line {lineno}: expected {cols} entries per row, got {len(row)}")
            try:
                table.append(tuple(map(_ELEMENT.__getitem__, row)))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer matrix entry") from None
        try:
            return Morphism(rows, cols, tuple(table))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None

    def take_order(self, count: int, width: int, base: int | None) -> tuple[int, ...]:
        """``count`` lines ``f`` followed by ``width`` entries, as codes read in ``base``.

        A block is the whole lines that end within about ``_PARSE_BLOCK``
        characters, cut at the section's last line when the section ends
        sooner.  One that is all order lines as rendered decodes at once
        (see ``_block_codes``); any other, with a comment, a blank line,
        a defect, an out-of-range entry or another spelling, or in a base
        above 36, is taken line by line, which skips blank and comment
        lines, raises the first bad line's error and decodes each line
        alone (see ``_order_code``).
        """
        order: list[int] = []
        text = self.text
        while len(order) < count:
            start, due = self.pos, count - len(order)
            stop = text.find("\n", start + _PARSE_BLOCK)
            if stop < 0:
                stop = len(text)
            block = text[start:stop]
            lines = block.count("\n") + 1
            if lines > due:
                # the section ends in the block: cut it where its last line
                # ends, found from a rendered line's length in bases to 10
                stop = (start + due * (2 * width + 2) - 1 if base is None or base <= 10
                        else start + len(block) - len(block.split("\n", due)[due]) - 1)
                lines = due
                block = text[start:stop] if text[stop:stop + 1] in ("", "\n") else ""
            codes = _block_codes(block, lines, width, base)
            if codes is None:
                for _ in range(lines):
                    lineno, rest = self.take("f")
                    order.append(_order_code(lineno, rest, width, base))
            else:
                order.extend(codes)
                self.pos, self.lineno = stop + 1, self.lineno + lines
        return tuple(order)


def _block_codes(block: str, lines: int, width: int, base: int | None) -> list[int] | None:
    """The codes of ``block`` if it is ``lines`` lines exactly as rendered, else None.

    In a base from 2 to 10 such a line is ``f`` and ``width`` digits
    below ``base``, each after one space: spaces and breaks at odd
    offsets, ``f`` and the digits at even ones, which must be ASCII
    (``isascii`` also keeps a lone surrogate from ``encode``) and, with
    the digits below ``base`` deleted, just the lines' ``f``: no digit
    carries, and no ``_`` or other script's digit is read.  Column j of
    the digit values is one strided slice, an int with a byte per line.
    Horner's rule joins each group of k columns, base^k <= 256, so no
    byte carries, then the groups in lanes of the 1-, 2-, 4- or 8-byte
    item that holds base^width, which one ``memoryview.cast`` reads.
    Past 8 bytes each line reads with one ``int(digits, base)``.  Bases
    11-36 go to ``_spelled_codes``.  None outright for a base outside
    2..36, and for a width past the digits ``int`` reads in one string.
    """
    # 0, or no such function (Python before 3.10.7), sets no limit
    limit = getattr(sys, "get_int_max_str_digits", int)() or width
    if base is None or not 2 <= base <= 36 or not 0 <= width <= limit:
        return None
    if base > 10:
        return _spelled_codes(block, lines, width, base)
    even = block[::2]
    if (len(block) != lines * (2 * width + 2) - 1
            or block[1::2] != ((" " * width + "\n") * lines)[:-1]
            or even[::width + 1] != "f" * lines or not even.isascii()):
        return None
    data = even.encode("ascii")
    if data.translate(None, _DIGITS[:base]) != b"f" * lines:
        return None
    size = field_size((base ** width - 1).bit_length())
    if size is None:
        return list(map(int, even.split("f")[1:], repeat(base)))
    values, order, codes = data.translate(_VALUE), sys.byteorder, 0
    k = max(k for k in range(1, 9) if base ** k <= 256)
    # each lane's low byte, in the platform's order, which cast reads
    wide, low = bytearray(lines * size), 0 if order == "little" else size - 1
    for first in range(1, width + 1, k):
        columns = range(first, min(first + k, width + 1))
        group = 0
        for j in columns:
            group = group * base + int.from_bytes(values[j::width + 1], order)
        wide[low::size] = group.to_bytes(lines, order)
        codes = codes * base ** len(columns) + int.from_bytes(wide, order)
    return memoryview(codes.to_bytes(lines * size, order)).cast(ITEM_FORMATS[size]).tolist()


def _spelled_codes(block: str, lines: int, width: int, base: int) -> list[int] | None:
    """The codes of ``block``, in a base from 11 to 36, if it is ``lines`` lines as rendered.

    Such a line is ``f`` and ``width`` entries below ``base`` in their
    canonical spellings, one or two digits, each after one space.  With
    its breaks made spaces the block splits into tokens, an ``f`` at
    every (width + 1)-th and nowhere else, and every break must come
    before an ``f``.  One table maps each ``f`` to a space and each
    entry's spelling to its one base-36 digit character, so the joined
    text splits into each line's digits, read with one
    ``int(digits, base)``.  None when a token is no canonical spelling
    below ``base`` or an ``f`` or a break is out of place.
    """
    tokens = block.replace("\n", " ").split(" ")
    if (len(tokens) != lines * (width + 1) or tokens[::width + 1] != ["f"] * lines
            or tokens.count("f") != lines or block.count("\nf") != lines - 1):
        return None
    table = {str(e): _BASE36[e] for e in range(base)}
    table["f"] = " "
    try:
        digits = "".join(map(table.__getitem__, tokens))
    except KeyError:
        return None
    if not width:
        return [0] * lines
    return list(map(int, digits.split(), repeat(base)))


def _plain_int(token: str) -> int | None:
    """``int(token)`` when ``token`` is at most 18 ASCII digits, which ``int`` always reads."""
    if token.isascii() and token.isdigit() and len(token) <= 18:
        return int(token)
    return None


def _rendered_blocks(x: int, lines: list[str]) -> list[CertBlock] | None:
    """The blocks of a section's ``lines`` (``block i`` and five more each) if as rendered.

    Each distinct pair of ``factor`` and ``v`` lines is decoded once: its
    keyword and plain decimal integers, single-spaced.  Each distinct
    matrix line is then asked for under the shape its block gives it,
    ``s`` under (x, x), ``left`` under (source, width) and ``right``
    under (width, source), and each shape's lines are decoded together
    (see ``_rendered_matrices``), so a line asked for under two shapes
    must read under both.  Blocks with the same five lines share one
    ``CertBlock``, built with its ``Factorization`` without the checks
    that these shapes prove.  None as soon as any line is not as
    rendered; the line reader reads such lines, and reads these to the
    same blocks.
    """
    texts = list(zip(*(lines[k::6] for k in range(1, 6))))
    heads = dict.fromkeys(zip(lines[2::6], lines[5::6]))
    for factor_line, v_line in heads:
        head = factor_line.split(" ")
        if len(head) != 4 or head[0] != "factor" or v_line[:2] != "v ":
            return None
        values = tuple(map(_plain_int, (*head[1:], v_line[2:])))
        if None in values:
            return None
        heads[factor_line, v_line] = values
    shared = dict.fromkeys(texts)
    shapes: dict[tuple[str, int, int], dict[str, Morphism | None]] = {}
    for s_line, factor_line, left_line, right_line, v_line in shared:
        source, width, _, _ = heads[factor_line, v_line]
        shapes.setdefault(("s", x, x), {})[s_line] = None
        shapes.setdefault(("left", source, width), {})[left_line] = None
        shapes.setdefault(("right", width, source), {})[right_line] = None
    for (keyword, rows, cols), found in shapes.items():
        matrices = _rendered_matrices(keyword, rows, cols, list(found))
        if matrices is None:
            return None
        found.update(zip(found, matrices))
    # left is (source, width) and right (width, source) as read, and pad
    # is plain digits, so Factorization.__post_init__'s checks hold:
    # neither class's __init__ is run
    for text in shared:
        s_line, factor_line, left_line, right_line, v_line = text
        source, width, pad, v = heads[factor_line, v_line]
        fact = object.__new__(Factorization)
        fact.__dict__.update(left=shapes["left", source, width][left_line], pad=pad,
                             right=shapes["right", width, source][right_line])
        blk = shared[text] = object.__new__(CertBlock)
        blk.__dict__.update(s=shapes["s", x, x][s_line], factor=fact, v=v)
    return list(map(shared.__getitem__, texts))


def _rendered_matrices(keyword: str, rows: int, cols: int,
                       lines: list[str]) -> list[Morphism] | None:
    """The ``rows``-by-``cols`` matrix of each of ``lines`` if all are as rendered, one digit each.

    Such a line is ``keyword``, a space, and the rows joined by `` ; ``,
    each its entries joined by a space, so it has a fixed length.  The
    lines joined by breaks must have that length times their count
    before any layout is built, so a hostile shape allocates nothing
    beyond the text.  One ``bytes.translate`` that marks each digit
    must then give exactly the shape's layout, one per line between
    breaks, marks in place of entries; a line holds no break, so each
    has the shape's length.  A second one reads each digit's value, and
    ``morphisms_from_bytes`` cuts the values into matrices.  None for any
    other line, and for a shape with no entries, which has no such
    layout; the line reader reads them.
    """
    text = "\n".join(lines)
    length = len(keyword) + 2 * rows * (cols + 1) - 1  # with a break
    if rows < 1 or cols < 1 or len(text) != len(lines) * length - 1 or not text.isascii():
        return None
    data = text.encode("ascii")
    layout = keyword + " " + " ; ".join([" ".join("\0" * cols)] * rows)
    if data.translate(_MARK) != "\n".join([layout] * len(lines)).encode("ascii"):
        return None
    values = data.translate(_VALUE, keyword.encode("ascii") + b" ;\n")
    return morphisms_from_bytes(rows, cols, values)


def _parse_factor(reader: _Reader) -> Factorization:
    lineno, rest = reader.take("factor")
    if len(rest) != 3:
        raise ParseError(f"line {lineno}: expected 'factor <source> <width> <pad>'")
    try:
        source, width, pad = (int(tok) for tok in rest)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer factor dimensions") from None
    left = reader.take_matrix("left", source, width)
    right = reader.take_matrix("right", width, source)
    try:
        return Factorization(left=left, pad=pad, right=right)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def parse_certificate(text: str) -> Certificate:
    """Parse the text form back into a Certificate; raises ParseError on any defect."""
    reader = _Reader(text)
    lineno, rest = reader.take(FORMAT_MAGIC)
    if rest != [str(FORMAT_VERSION)]:
        raise ParseError(f"line {lineno}: unsupported certificate version {' '.join(rest)!r}")
    size = reader.take_int("semiring-size")
    lineno, rest = reader.take("semiring-hash")
    if len(rest) != 1:
        raise ParseError(f"line {lineno}: expected 'semiring-hash <hex>'")
    sr_hash = rest[0]
    d = reader.take_int("d")
    x = reader.take_int("x")
    y = reader.take_int("y")
    if d < 0 or x < 0 or y < 0:
        raise ParseError(f"dimensions must be nonnegative, got d={d}, x={x}, y={y}")
    lineno, rest = reader.take("branch")
    if rest not in (["pad"], ["construct"]):
        raise ParseError(f"line {lineno}: branch must be 'pad' or 'construct'")
    branch = rest[0]
    count = reader.take_int("order")
    if count < 0:
        raise ParseError("order count must be nonnegative")
    order = reader.take_order(count, d * x, _order_base(size, d * x, count))

    pad = None
    blocks: list[CertBlock] = []
    coefficients: tuple[Fraction, ...] = ()
    diagonal: tuple[Fraction, ...] = ()
    det: Fraction | None = None
    if branch == "pad":
        pad = _parse_factor(reader)
    else:
        blocks = reader.take_blocks(count, x)
        coefficients = reader.take_fractions("c", reader.take_int("coefficients"))
        diagonal = reader.take_fractions("diag", reader.take_int("diagonal"))
        det = reader.take_fractions("det", 1)[0]

    checks = []
    while reader.peek_keyword() == "check":
        lineno, rest = reader.take("check")
        if len(rest) != 2 or rest[1] not in ("pass", "fail"):
            raise ParseError(f"line {lineno}: expected 'check <name> pass|fail'")
        checks.append((rest[0], rest[1] == "pass"))
    reader.take_end()
    return Certificate(semiring_size=size, semiring_hash=sr_hash, d=d, x=x, y=y,
                       branch=branch, order=order, pad=pad, blocks=tuple(blocks),
                       coefficients=coefficients, x_diagonal=diagonal, det_x=det,
                       checks=tuple(checks))
