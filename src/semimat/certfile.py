"""Line-oriented text serialization of certificates.

The format is deterministic (identical certificates render to identical
bytes), diff-friendly (one logical item per line, one block per enumerated
morphism) and fully re-parsable.  Matrices are written as rows joined by
``;`` on a single line; fractions render as ``p`` or ``p/q``.  ``#``
starts a comment and blank lines are ignored on input.

The order section, one ``f`` line per element of Hom(d, x), is most of
a pad-branch file, so it is written and read a block of lines at a time,
at C speed.  A block renders with one ``%`` format, and parses with one
split: it decodes at once when its tokens have the shape of ``f`` lines
and each entry is an element spelling.  Entries decode through a small
table of the canonical spellings that falls back to ``int``, so every
spelling ``int`` accepts (``01``, ``+1``, ``1_0``, other scripts'
digits) still parses.  A block that holds a comment, a blank line or a
defect is read line by line under the same rules as every other line,
which raises the first bad line's error.  Lines are split into tokens
only when taken, and the long-lived result is the same tuple of int
tuples.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain

from .certifier import CertBlock, Certificate, Factorization
from .errors import ParseError
from .matcat import Morphism
from .semiring import MAX_VERIFY_SIZE

FORMAT_MAGIC = "semimat-certificate"
FORMAT_VERSION = 2
_FRACTION = r"-?[0-9]+(/[0-9]+)?"  # p or p/q, as render_certificate writes them
# str.splitlines breaks lines at these as well as at "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# order lines per rendered block, and characters per parsed block: both
# bound the temporaries of one block
_RENDER_BLOCK = 1024
_PARSE_BLOCK = 4096


class _Spellings(dict):
    """Token -> integer; a token outside the table goes through ``int``, uncached."""

    def __missing__(self, token: str) -> int:
        return int(token)


# the canonical spellings of the elements of every semiring small enough
# to verify: a fixed table, never sized by anything a certificate says
_ELEMENT = _Spellings((str(e), e) for e in range(MAX_VERIFY_SIZE))


class _LineFormats(dict):
    """Vector length -> the ``%`` format of one ``f`` line of that length."""

    def __missing__(self, width: int) -> str:
        fmt = self[width] = "f" + " %s" * width + "\n"
        return fmt


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
    # each block of f lines is one format, one line format per vector
    # length, applied to the block's entries in row-major order
    formats = _LineFormats()
    parts = ["\n".join(head)]
    for i in range(0, len(cert.order), _RENDER_BLOCK):
        block = cert.order[i:i + _RENDER_BLOCK]
        line_formats = "".join(map(formats.__getitem__, map(len, block)))
        parts.append(line_formats % tuple(chain.from_iterable(block)))
    parts.append("\n".join(out))
    return "".join(parts)


def _order_vector(lineno: int, rest: list[str], width: int) -> tuple[int, ...]:
    """The entries of one ``f`` line."""
    try:
        vec = tuple(map(_ELEMENT.__getitem__, rest))
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer entry in order vector") from None
    if len(vec) != width:
        raise ParseError(f"line {lineno}: order vector has {len(vec)} entries, expected {width}")
    return vec


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

    def take_order(self, count: int, width: int) -> tuple[tuple[int, ...], ...]:
        """``count`` lines ``f`` followed by ``width`` entries, a block at a time.

        A block is the whole lines that end within about ``_PARSE_BLOCK``
        characters.  One that is all order lines decodes at once (see
        ``_block_entries``) and is grouped into tuples by ``zip``; any
        other, with a comment, a blank line or a defect, or running past
        the order section, is taken line by line, which skips blank and
        comment lines and raises the first bad line's error.
        """
        order: list[tuple[int, ...]] = []
        text = self.text
        while len(order) < count:
            start, due = self.pos, count - len(order)
            stop = text.find("\n", start + _PARSE_BLOCK)
            if stop < 0:
                stop = len(text)
            block = text[start:stop]
            lines = block.count("\n") + 1
            entries = _block_entries(block, lines, width + 1) if lines <= due else None
            if entries is None:
                for _ in range(min(lines, due)):
                    lineno, rest = self.take("f")
                    order.append(_order_vector(lineno, rest, width))
            else:
                order.extend(zip(*[iter(entries)] * width) if width else [()] * lines)
                self.pos, self.lineno = stop + 1, self.lineno + lines
        return tuple(order)


def _block_entries(block: str, lines: int, step: int) -> list[int] | None:
    """The entries of ``block`` if it is ``lines`` lines ``f`` and ``step - 1`` elements.

    Every line must start with ``f``, and the tokens number ``step`` per
    line, with ``f`` at each multiple of ``step`` and an element spelling
    everywhere else.  No spelling starts with ``f`` or holds a ``#``, so
    each line's first token is one of the ``f`` and each line has
    ``step`` tokens, none in a comment.  None when the block is not so.
    """
    if not block.startswith("f") or block.count("\nf") != lines - 1:
        return None
    tokens = block.split()
    if len(tokens) != lines * step or tokens[::step].count("f") != lines:
        return None
    del tokens[::step]
    try:
        return list(map(_ELEMENT.__getitem__, tokens))
    except ValueError:
        return None


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
    order = reader.take_order(count, d * x)

    pad = None
    blocks: list[CertBlock] = []
    coefficients: tuple[Fraction, ...] = ()
    diagonal: tuple[Fraction, ...] = ()
    det: Fraction | None = None
    if branch == "pad":
        pad = _parse_factor(reader)
    else:
        for i in range(count):
            lineno, rest = reader.take("block")
            if rest != [str(i)]:
                raise ParseError(f"line {lineno}: expected 'block {i}'")
            s = reader.take_matrix("s", x, x)
            fact = _parse_factor(reader)
            v = reader.take_int("v")
            blocks.append(CertBlock(s=s, factor=fact, v=v))
        ncoeff = reader.take_int("coefficients")
        coefficients = tuple(reader.take_fraction("c") for _ in range(ncoeff))
        ndiag = reader.take_int("diagonal")
        diagonal = tuple(reader.take_fraction("diag") for _ in range(ndiag))
        det = reader.take_fraction("det")

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
