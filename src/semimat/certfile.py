"""Line-oriented text serialization of certificates.

The format is deterministic (identical certificates render to identical
bytes), diff-friendly (one logical item per line, one block per enumerated
morphism) and fully re-parsable.  Matrices are written as rows joined by
``;`` on a single line; fractions render as ``p`` or ``p/q``.  ``#``
starts a comment and blank lines are ignored on input.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .certifier import CertBlock, Certificate, Factorization
from .errors import ParseError
from .matcat import Morphism

FORMAT_MAGIC = "semimat-certificate"
FORMAT_VERSION = 2
_FRACTION = r"-?[0-9]+(/[0-9]+)?"  # p or p/q, as render_certificate writes them


def _matrix_text(m: Morphism) -> str:
    return " ; ".join(" ".join(str(e) for e in row) for row in m.entries)


def _emit_factor(out: list[str], fact: Factorization) -> None:
    out.append(f"factor {fact.source} {fact.width} {fact.pad}")
    out.append(("left " + _matrix_text(fact.left)).rstrip())
    out.append(("right " + _matrix_text(fact.right)).rstrip())


def render_certificate(cert: Certificate) -> str:
    """Canonical text form of a certificate."""
    out = [f"{FORMAT_MAGIC} {FORMAT_VERSION}",
           f"semiring-size {cert.semiring_size}",
           f"semiring-hash {cert.semiring_hash}",
           f"d {cert.d}",
           f"x {cert.x}",
           f"y {cert.y}",
           f"branch {cert.branch}",
           f"order {len(cert.order)}"]
    for vec in cert.order:
        out.append(("f " + " ".join(map(str, vec))).rstrip())
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
    out.append("end")
    return "\n".join(out) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines: list[tuple[int, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.lines.append((lineno, stripped.split()))
        self.pos = 0

    def peek_keyword(self) -> str | None:
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos][1][0]

    def take(self, keyword: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of certificate: expected '{keyword}'")
        lineno, tokens = self.lines[self.pos]
        if tokens[0] != keyword:
            raise ParseError(f"line {lineno}: expected '{keyword}', got '{tokens[0]}'")
        self.pos += 1
        return lineno, tokens[1:]

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
                table.append(tuple(int(tok) for tok in row))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer matrix entry") from None
        try:
            return Morphism(rows, cols, tuple(table))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None


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
    order = []
    for _ in range(count):
        lineno, rest = reader.take("f")
        try:
            vec = tuple(int(tok) for tok in rest)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry in order vector") from None
        if len(vec) != d * x:
            raise ParseError(f"line {lineno}: order vector has {len(vec)} entries, expected {d * x}")
        order.append(vec)

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
    reader.take("end")
    if reader.pos != len(reader.lines):
        lineno, tokens = reader.lines[reader.pos]
        raise ParseError(f"line {lineno}: unexpected content after 'end'")
    return Certificate(semiring_size=size, semiring_hash=sr_hash, d=d, x=x, y=y,
                       branch=branch, order=tuple(order), pad=pad, blocks=tuple(blocks),
                       coefficients=coefficients, x_diagonal=diagonal, det_x=det,
                       checks=tuple(checks))
