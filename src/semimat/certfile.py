"""Line-oriented text serialization of certificates.

The format (version 3) is deterministic (identical certificates render
to identical bytes), diff-friendly (one logical item per line, one
block per enumerated morphism) and fully re-parsable.  Matrices are
written as rows joined by ``;`` on a single line; fractions render as
``p`` or ``p/q``.  ``#`` starts a comment and blank lines are ignored
on input.  Files of formats 1 and 2 are refused with a ParseError.

A pad certificate is its header, the factor pair [Id | 0], [Id ; 0] and
its checks: no pad check reads Hom(d, x), so it has no order section,
and a pad file with an ``order`` line is refused.  Its parsed
``Certificate.order`` is ().

A construct certificate has the order section, one ``f`` line per
element of Hom(d, x), before its blocks.  Each line is the element's
code (see ``matcat``) written as its d*x base-n digits, and the parsed
order holds codes, never entry tuples.  It is written with one ``%``
format per line.  A section whose lines are all as rendered, in a base
from 2 to 10, is read at once, each line with one ``int(digits, n)``.
Any other section (a comment, a blank line, a defect, an out-of-range
entry, another spelling, a base above 10) is read line by line under
the same rules as every other line, which raises the first bad line's
error.  Entries there decode through a small table of the canonical
spellings that falls back to ``int``, so every spelling ``int`` accepts
(``01``, ``+1``, ``1_0``, other scripts' digits) still parses.

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
from fractions import Fraction
from itertools import repeat

from .certifier import CertBlock, Certificate, Factorization
from .errors import ParseError
from .matcat import Morphism, morphisms_from_bytes, power_exceeds
from .semiring import MAX_VERIFY_SIZE

FORMAT_MAGIC = "semimat-certificate"
FORMAT_VERSION = 3
_FRACTION = r"-?[0-9]+(/[0-9]+)?"  # p or p/q, as render_certificate writes them
# str.splitlines breaks lines at these as well as at "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# what a parsed f line holds when it is no code of Hom(d, x)
NO_CODE = -1
_DIGITS = b"0123456789"
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
    """Canonical text form of a certificate.

    ValueError for a pad certificate that holds an order, which the text
    has no place for, and for a certificate that lacks its branch's
    data: a pad one its factor pair, a construct one det X.
    """
    head = [f"{FORMAT_MAGIC} {FORMAT_VERSION}",
            f"semiring-size {cert.semiring_size}",
            f"semiring-hash {cert.semiring_hash}",
            f"d {cert.d}",
            f"x {cert.x}",
            f"y {cert.y}",
            f"branch {cert.branch}"]
    out = []
    order = ""
    if cert.branch == "pad":
        if cert.pad is None:
            raise ValueError("a pad certificate needs a factor pair")
        if cert.order:
            raise ValueError("a pad certificate holds no order")
        _emit_factor(out, cert.pad)
    else:
        if cert.det_x is None:
            raise ValueError("a construct certificate needs det X")
        head.append(f"order {len(cert.order)}")
        order = _order_text(cert)
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
    return "".join(["\n".join([*head, ""]), order, "\n".join(out)])


def _order_text(cert: Certificate) -> str:
    """The ``f`` lines of ``cert.order``: each code's d*x base-n digits, most significant first.

    ValueError for a code outside range(n^(d*x)), whose digits would
    carry or run short.
    """
    codes, n, width = cert.order, cert.semiring_size, cert.d * cert.x
    if codes and (n < 1 or min(codes) < 0 or not power_exceeds(n, width, max(codes))):
        raise ValueError(f"order holds a code outside range({n}^{width})")
    powers = [n ** i for i in reversed(range(width))]
    digits = [[code // p % n for code in codes] for p in powers]  # one list per digit
    line = "f" + " %d" * width + "\n"
    return "".join(map(line.__mod__, zip(*digits))) if width else line * len(codes)


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

        A section whose lines are all as rendered (see ``_rendered_text``)
        with digits below ``base``, a base from 2 to 10, is read at once:
        each line is one ``int`` of its digits, and a line of width 0 is
        code 0.  Any other section, with a comment, a blank line, a defect,
        an out-of-range entry or another spelling, or in a base above 10,
        goes to the line reader from its first line, which skips blank and
        comment lines, raises the first bad line's error and decodes each
        line alone (see ``_order_code``).
        """
        lines = self._lines(count)
        if (lines is not None and base is not None and 2 <= base <= 10
                and (lines == ["f"] * count if width == 0
                     else _rendered_text("f", 1, width, lines) is not None)):
            try:  # int refuses a digit past the base: that line is no code
                codes = tuple([int(line[2::2] or "0", base) for line in lines])  # width 0: 0
            except ValueError:
                pass
            else:
                self._skip(lines)
                return codes
        return tuple(_order_code(*self.take("f"), width, base) for _ in range(count))


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

    ``_rendered_text`` checks the layout, one ``bytes.translate`` reads
    each digit's value, and ``morphisms_from_bytes`` cuts the values into
    matrices.  None otherwise; the line reader reads such lines.
    """
    data = _rendered_text(keyword, rows, cols, lines)
    if data is None:
        return None
    values = data.translate(_VALUE, keyword.encode("ascii") + b" ;\n")
    return morphisms_from_bytes(rows, cols, values)


def _rendered_text(keyword: str, rows: int, cols: int, lines: list[str]) -> bytes | None:
    """``lines``, each with its break, as ASCII, if each is a ``rows``-by-``cols`` line as rendered.

    Such a line is ``keyword``, a space, and the rows joined by `` ; ``,
    each its one-digit entries joined by a space, so it has a fixed
    length.  The text must have that length times the count of lines
    before any layout is built, so a hostile shape allocates nothing
    beyond the text.  One ``bytes.translate`` that marks each digit
    must then give exactly the shape's layout, one per line, marks in
    place of entries; a line holds no break, so each has the shape's
    length.  None for any other line (``encode`` refuses any character
    past ASCII, a lone surrogate too), and for a shape with no entries,
    which has no such layout.
    """
    try:
        data = "\n".join([*lines, ""]).encode("ascii")
    except UnicodeEncodeError:
        return None
    length = len(keyword) + 2 * rows * (cols + 1) - 1  # with its break
    if rows < 1 or cols < 1 or len(data) != len(lines) * length:
        return None
    layout = keyword + " " + " ; ".join([" ".join("\0" * cols)] * rows) + "\n"
    if data.translate(_MARK) != layout.encode("ascii") * len(lines):
        return None
    return data


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

    order: tuple[int, ...] = ()
    pad = None
    blocks: list[CertBlock] = []
    coefficients: tuple[Fraction, ...] = ()
    diagonal: tuple[Fraction, ...] = ()
    det: Fraction | None = None
    if branch == "pad":
        pad = _parse_factor(reader)  # an order line here is refused
    else:
        count = reader.take_int("order")
        if count < 0:
            raise ParseError("order count must be nonnegative")
        order = reader.take_order(count, d * x, _order_base(size, d * x, count))
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
