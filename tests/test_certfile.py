"""The block codec of ``semimat.certfile`` against the line-by-line codec it replaced.

``render_reference`` and ``parse_reference`` are the earlier
implementation, one line at a time, kept here as the specification: the
block codec must write the same bytes and, for every input, return an
equal Certificate or raise a ParseError with the same message.
"""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from semimat import (ParseError, boolean_semiring, certify, parse_certificate,
                     render_certificate, tropical_semiring)
from semimat.certfile import FORMAT_MAGIC, FORMAT_VERSION
from semimat.certifier import CertBlock, Certificate, Factorization
from semimat.matcat import Morphism
import semimat.certfile as certfile

BOOL = boolean_semiring()
TROP1 = tropical_semiring(1)
_FRACTION = r"-?[0-9]+(/[0-9]+)?"


def _matrix_text(m):
    return " ; ".join(" ".join(str(e) for e in row) for row in m.entries)


def _emit_factor(out, fact):
    out.append(f"factor {fact.source} {fact.width} {fact.pad}")
    out.append(("left " + _matrix_text(fact.left)).rstrip())
    out.append(("right " + _matrix_text(fact.right)).rstrip())


def render_reference(cert):
    """The text form, one line at a time."""
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


class _ReferenceReader:
    def __init__(self, text):
        self.lines = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.lines.append((lineno, stripped.split()))
        self.pos = 0

    def peek_keyword(self):
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos][1][0]

    def take(self, keyword):
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of certificate: expected '{keyword}'")
        lineno, tokens = self.lines[self.pos]
        if tokens[0] != keyword:
            raise ParseError(f"line {lineno}: expected '{keyword}', got '{tokens[0]}'")
        self.pos += 1
        return lineno, tokens[1:]

    def take_int(self, keyword):
        lineno, rest = self.take(keyword)
        if len(rest) != 1:
            raise ParseError(f"line {lineno}: expected '{keyword} <integer>'")
        try:
            return int(rest[0])
        except ValueError:
            raise ParseError(f"line {lineno}: '{keyword}' value {rest[0]!r} is not an integer") from None

    def take_fraction(self, keyword):
        lineno, rest = self.take(keyword)
        if len(rest) != 1:
            raise ParseError(f"line {lineno}: expected '{keyword} <fraction>'")
        if not re.fullmatch(_FRACTION, rest[0]):
            raise ParseError(f"line {lineno}: bad fraction {rest[0]!r}")
        try:
            return Fraction(rest[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad fraction {rest[0]!r}") from None

    def take_matrix(self, keyword, rows, cols):
        lineno, rest = self.take(keyword)
        if rows == 0:
            if rest:
                raise ParseError(f"line {lineno}: expected an empty {rows}x{cols} matrix")
            return Morphism(rows, cols, ())
        groups = [[]]
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


def _parse_factor_reference(reader):
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


def parse_reference(text):
    """The Certificate a text describes, reading one line at a time."""
    reader = _ReferenceReader(text)
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
    blocks = []
    coefficients = ()
    diagonal = ()
    det = None
    if branch == "pad":
        pad = _parse_factor_reference(reader)
    else:
        for i in range(count):
            lineno, rest = reader.take("block")
            if rest != [str(i)]:
                raise ParseError(f"line {lineno}: expected 'block {i}'")
            s = reader.take_matrix("s", x, x)
            fact = _parse_factor_reference(reader)
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


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the Certificate, or the ParseError's message."""
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


CORPUS = [(BOOL, 0, 3), (BOOL, 1, 3), (BOOL, 1, 6), (BOOL, 2, 2), (BOOL, 4, 4),
          (TROP1, 1, 4), (TROP1, 2, 4)]
_CERTS = {}


def corpus_certificate(sr, d, x):
    key = (sr.size, d, x)
    if key not in _CERTS:
        _CERTS[key] = certify(sr, d, x, cap_hom=65536)
    return _CERTS[key]


SPELLINGS = ["01", "+1", "++1", "1_0", "١", "1;2", "1;", "-0", "f", "f1", ";", "1#"]


def _mutate(text, rng, order_only):
    """``text`` with one line-level or token-level change, at an ``f`` line if ``order_only``."""
    lines = text.split("\n")
    if order_only:
        i = rng.choice([i for i, line in enumerate(lines) if line.split(" ", 1)[0] == "f"])
    else:
        i = rng.randrange(len(lines) - 1)
    kind = rng.choice(["delete", "duplicate", "merge", "comment", "comment-line", "blank",
                       "formfeed", "spaces", "crlf", "drop", "shift", "spelling", "spelling"])
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "merge":
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
    elif kind == "comment":
        lines[i] += " # a remark"
    elif kind == "comment-line":
        lines.insert(i, "# a remark")
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "   ", "\t"]))
    elif kind == "formfeed":
        return "\n".join(lines[:i]) + "\x0c" + "\n".join(lines[i:])
    elif kind == "spaces":
        lines[i] = " " + lines[i].replace(" ", rng.choice(["  ", "\t", " \x1f"])) + " "
    elif kind == "crlf":
        return "\r\n".join(lines)
    elif kind == "drop":
        lines[i] = lines[i].rsplit(" ", 1)[0]
    elif kind == "shift":  # the line break one token earlier
        head, _, last = lines[i].rpartition(" ")
        lines[i:i + 2] = [head, last + " " + lines[i + 1]]
    else:
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(SPELLINGS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines)


@pytest.mark.parametrize("sr, d, x", CORPUS,
                         ids=[f"{'boolean' if sr.size == 2 else 'tropical1'}-{d}-{x}"
                              for sr, d, x in CORPUS])
def test_block_codec_matches_the_reference_on_certify_output(sr, d, x):
    cert = corpus_certificate(sr, d, x)
    text = render_certificate(cert)
    assert text == render_reference(cert)
    assert parse_certificate(text) == cert == parse_reference(text)


def _mutants(sr, d, x, count, seed):
    text = render_certificate(corpus_certificate(sr, d, x))
    rng = random.Random(seed)
    for k in range(count):
        yield _mutate(text, rng, order_only=k % 2 == 1)


@pytest.mark.parametrize("block", [None, 1, 23])
def test_block_parse_matches_the_reference_on_mutated_certificates(block, monkeypatch):
    # blocks smaller than a line and than a few lines put block edges at
    # every position the mutations reach
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    outcomes = set()
    for sr, d, x, count in [(BOOL, 0, 3, 40), (BOOL, 1, 3, 150), (BOOL, 1, 6, 150),
                            (BOOL, 2, 2, 150), (TROP1, 1, 4, 150)]:
        for text in _mutants(sr, d, x, count, seed=f"{d}/{x}/{sr.size}"):
            new, ref = _outcome(parse_certificate, text), _outcome(parse_reference, text)
            assert new == ref, text
            outcomes.add(new if isinstance(new, str) else "parsed")
    # the corpus reaches each kind of order-line verdict
    assert "parsed" in outcomes
    for needle in ("non-integer entry in order vector", "order vector has",
                   "expected 'f', got", "non-integer matrix entry"):
        assert any(needle in o for o in outcomes), needle


def test_block_parse_matches_the_reference_on_large_orders():
    # several blocks per order section, a mutation in one of them
    for sr, d, x, count in [(TROP1, 2, 4, 8), (BOOL, 4, 4, 2)]:
        for text in _mutants(sr, d, x, count, seed=f"large {d}/{x}/{sr.size}"):
            assert _outcome(parse_certificate, text) == _outcome(parse_reference, text)


CANONICAL_ORDER = "f 0 0\nf 0 1\nf 1 0\nf 1 1\n"  # boolean 1/2


@pytest.mark.parametrize("block", [1, 5, 12, None])
@pytest.mark.parametrize("order", [
    " f 0 0\nf 0 1\n\tf 1 0\nf 1 1\n",
    "\nf 0 0 f 0 1\nf 1 0\nf 1 1\n",
    "f1 0 0\nf 0 1\nf 1 0\nf 1 1\n",
    "f 0 0\nff 0 1\nf 1 0\nf 1 1\n",
    "f 0\n0 f 0 1\nf 1 0\nf 1 1\n",
    "f 0 0\nf 0 1 f\n1 0\nf 1 1\n",
    "f 0 0 # f 0 1\nf 1 0\nf 1 1\nf 1 1\n",
    "f 0 0 #\nf 0 1\nf 1 0\nf 1 1\n",
    "f 0 0\n\nf 0 1\n#\nf 1 0\nf 1 1\n",
    "f 0 0\nf 0 1\nf 1 0\nf 1 1\nf 1 1\n",
    "f 0 0\nf 0 1\nf 1 0\n",
    "f 0 0\nf 0 1\nf 1 0\nf 1 1 1\n",
    "f 0 0\nf 0 1\nf 1 0\nf 1\n",
    "f 0 0 f\nf 0 1\nf 1 0\nf 1 1\n",
], ids=lambda order: repr(order))
def test_block_parse_matches_the_reference_on_crafted_order_sections(order, block, monkeypatch):
    # each breaks one premise of a block's shape check, alone or with a
    # line that would restore the token count
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    text = render_certificate(corpus_certificate(BOOL, 1, 2))
    assert CANONICAL_ORDER in text
    text = text.replace(CANONICAL_ORDER, order)
    assert _outcome(parse_certificate, text) == _outcome(parse_reference, text)


@pytest.mark.parametrize("old, new", [(" 1 ", " 01 "), (" 1 ", " +1 "), (" 1 ", " 1_0 "),
                                      (" 1 ", " ١ "), (" 1 ", " 1;2 "), (" 1 ", " 1; "),
                                      ("\n", "\n\n"), ("\n", " #\n"), (" ", "  "),
                                      ("\n", "\r\n"), ("\n", "\r"), ("\n", "\x0b"),
                                      ("\n", "\x0c"), ("\n", "\x1c"), ("\n", "\x1d"),
                                      ("\n", "\x1e"), ("\n", "\x85"), ("\n", "\u2028"),
                                      ("\n", "\u2029"), ("\n", "\x1f"), ("\n", "\n\x1f")])
def test_every_line_takes_an_accepted_spelling_as_the_reference_does(old, new):
    # the change at every position at once: each f line, and each matrix
    # line, reads the spelling as int() does, or fails as the reference does
    text = render_certificate(corpus_certificate(BOOL, 2, 2)).replace(old, new)
    assert _outcome(parse_certificate, text) == _outcome(parse_reference, text)


def test_render_matches_the_reference_on_ragged_and_unusual_orders(monkeypatch):
    # a Certificate built by hand need not have equal-length vectors
    base = corpus_certificate(BOOL, 1, 3)
    orders = [(), ((),), ((), ()), ((0, 1), (2,), (), (10, -3, 7)), ((1, 2),) * 5,
              ((True, 0), (0, 65)), tuple((k,) * (k % 4) for k in range(40))]
    for block in (None, 1, 3):
        if block is not None:
            monkeypatch.setattr(certfile, "_RENDER_BLOCK", block)
        for order in orders:
            cert = dataclasses.replace(base, order=order)
            assert render_certificate(cert) == render_reference(cert)
        for sr, d, x in CORPUS[:4]:
            cert = corpus_certificate(sr, d, x)
            assert render_certificate(cert) == render_reference(cert)


def test_hostile_order_headers_parse_in_bounded_memory():
    # the header's count and d*x size nothing: the text runs out first
    text = render_certificate(corpus_certificate(BOOL, 2, 2))
    for old, new in [("\norder 16\n", "\norder 1000000000000\n"),
                     ("\nd 2\n", "\nd 1000000000\n"),
                     ("\nx 2\n", f"\nx {10 ** 30}\n")]:
        hostile = text.replace(old, new)
        assert _outcome(parse_certificate, hostile) == _outcome(parse_reference, hostile)
