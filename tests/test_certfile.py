"""The block codec of ``semimat.certfile`` against the line-by-line codec it replaced.

``render_reference`` and ``parse_reference`` are the earlier
implementation, one line at a time, kept here as the specification: the
block codec must write the same bytes and, for every input, return an
equal Certificate or raise a ParseError with the same message.  The
reference reads and writes entry vectors; ``vector_of`` and ``code_of``
carry them to and from the codes a Certificate holds, with no carry: a
vector with an entry outside range(n) has no code.
"""

import dataclasses
import gc
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from semimat import (ParseError, boolean_semiring, certify, parse_certificate,
                     render_certificate, tropical_semiring, verify_certificate)
from semimat.certfile import FORMAT_MAGIC, FORMAT_VERSION, NO_CODE
from semimat.certifier import CertBlock, Certificate, Factorization
from semimat.matcat import Morphism
import semimat.certfile as certfile
from test_certifier import assert_ends_at_first_failure

BOOL = boolean_semiring()
TROP1 = tropical_semiring(1)
TROP9 = tropical_semiring(9)  # 11 elements: two-digit spellings
_FRACTION = r"-?[0-9]+(/[0-9]+)?"


def vector_of(code, n, width):
    """The entry vector ``code`` codes: its ``width`` base-n digits, most significant first."""
    if not 0 <= code < n ** width:
        raise ValueError(f"code {code} outside range({n}^{width})")
    vec = [0] * width
    for i in reversed(range(width)):
        code, vec[i] = divmod(code, n)
    return tuple(vec)


def code_of(vec, n):
    """``vec`` read in base n, or NO_CODE when an entry lies outside range(n)."""
    if not all(0 <= e < n for e in vec):
        return NO_CODE
    code = 0
    for e in vec:
        code = code * n + e
    return code


def order_codes(vectors, n, width, count):
    """The parsed order: codes when ``count`` = n^width, else NO_CODE throughout.

    Only with that count can the order be canonical; for n >= 2 the
    power is compared by size first, so a hostile width stays cheap.
    """
    decodable = n >= 1 and (n == 1 or width <= count.bit_length()) and n ** width == count
    return tuple(code_of(vec, n) if decodable else NO_CODE for vec in vectors)


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
    for code in cert.order:
        vec = vector_of(code, cert.semiring_size, cert.d * cert.x)
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
                       branch=branch, order=order_codes(order, size, d * x, count),
                       pad=pad, blocks=tuple(blocks),
                       coefficients=coefficients, x_diagonal=diagonal, det_x=det,
                       checks=tuple(checks))


def assert_same_text(text, expected):
    """``text == expected``, reported at the first line that differs.

    pytest would diff two certificates of megabytes with difflib, for
    minutes; the line number and the two lines say as much.
    """
    if text != expected:
        lines, want = text.split("\n"), expected.split("\n")
        i = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]),
                 min(len(lines), len(want)))
        assert (i + 1, lines[i:i + 1]) == (i + 1, want[i:i + 1])


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the Certificate, or the ParseError's message."""
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


CORPUS = [(BOOL, 0, 3), (BOOL, 1, 3), (BOOL, 1, 6), (BOOL, 2, 2), (BOOL, 4, 4),
          (TROP1, 1, 4), (TROP1, 2, 4), (TROP9, 1, 2)]
_CERTS = {}


def corpus_certificate(sr, d, x):
    key = (sr.size, d, x)
    if key not in _CERTS:
        _CERTS[key] = certify(sr, d, x, cap_hom=65536)
    return _CERTS[key]


SPELLINGS = ["01", "+1", "++1", "1_0", "١", "1;2", "1;", "-0", "f", "f1", ";", "1#"]


# the keywords of the lines of a construct section
CONSTRUCT_KEYWORDS = ("block", "s", "factor", "left", "right", "v", "c", "diag")


def _mutate(text, rng, keywords=None):
    """``text`` with one line-level or token-level change, at a line of ``keywords`` if given."""
    lines = text.split("\n")
    if keywords:
        i = rng.choice([i for i, line in enumerate(lines) if line.split(" ", 1)[0] in keywords])
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
                         ids=[f"{'boolean' if sr.size == 2 else f'tropical{sr.size - 2}'}-{d}-{x}"
                              for sr, d, x in CORPUS])
def test_block_codec_matches_the_reference_on_certify_output(sr, d, x):
    cert = corpus_certificate(sr, d, x)
    text = render_certificate(cert)
    assert_same_text(text, render_reference(cert))
    assert parse_certificate(text) == cert == parse_reference(text)


# (semiring, d, x, number of mutants)
MUTATED = [(BOOL, 0, 3, 40), (BOOL, 1, 3, 150), (BOOL, 1, 6, 150), (BOOL, 2, 2, 150),
           (TROP1, 1, 4, 150), (TROP9, 1, 2, 100)]


def _mutants(sr, d, x, count, seed):
    text = render_certificate(corpus_certificate(sr, d, x))
    rng = random.Random(seed)
    for k in range(count):
        yield _mutate(text, rng, ("f",) if k % 2 == 1 else None)


@pytest.mark.parametrize("block", [None, 1, 23])
def test_block_parse_matches_the_reference_on_mutated_certificates(block, monkeypatch):
    # blocks smaller than a line and than a few lines put block edges at
    # every position the mutations reach
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    outcomes = set()
    for sr, d, x, count in MUTATED:
        for text in _mutants(sr, d, x, count, seed=f"{d}/{x}/{sr.size}"):
            new, ref = _outcome(parse_certificate, text), _outcome(parse_reference, text)
            assert new == ref, text
            outcomes.add(new if isinstance(new, str)
                         else "no code" if NO_CODE in new.order else "parsed")
    # the corpus reaches each kind of order-line verdict, an entry that
    # would carry among them
    assert {"parsed", "no code"} <= outcomes
    for needle in ("non-integer entry in order vector", "order vector has",
                   "expected 'f', got", "non-integer matrix entry"):
        assert any(needle in o for o in outcomes), needle


# (semiring, d, x, number of mutants), the construct certificates of MUTATED
CONSTRUCT_MUTATED = [(BOOL, 0, 3, 100), (BOOL, 1, 3, 200), (BOOL, 1, 6, 150), (TROP1, 1, 4, 150)]


def test_block_parse_matches_the_reference_on_mutated_construct_sections():
    # one change at a block, s, factor, left, right, v, c or diag line:
    # the section goes to the line reader unless it is still as rendered
    outcomes = set()
    for sr, d, x, count in CONSTRUCT_MUTATED:
        assert corpus_certificate(sr, d, x).branch == "construct"
        text = render_certificate(corpus_certificate(sr, d, x))
        rng = random.Random(f"construct {d}/{x}/{sr.size}")
        for _ in range(count):
            mutant = _mutate(text, rng, CONSTRUCT_KEYWORDS)
            new, ref = _outcome(parse_certificate, mutant), _outcome(parse_reference, mutant)
            assert new == ref, mutant
            outcomes.add(new if isinstance(new, str) else "parsed")
    assert "parsed" in outcomes
    for needle in ("expected 'block", "expected 's', got", "non-integer matrix entry",
                   "entries per row", "rows, got", "non-integer factor dimensions",
                   "expected 'v <integer>'", "bad fraction", "expected 'c', got",
                   "expected 'diag', got"):
        assert any(needle in o for o in outcomes), needle


# tokens int or Fraction reads, or not, that the renderer never writes
CRAFTED_TOKENS = ["01", "+1", "1_0", "\u0661", "\u00b9", "\uff11", "9", "10", "-1", "1/1",
                  "x", "", "1\x1f"]


@pytest.mark.parametrize("keyword", CONSTRUCT_KEYWORDS + ("det",))
def test_block_parse_matches_the_reference_on_crafted_construct_tokens(keyword):
    # the first and the last token after the keyword, on the first and
    # the last such line of boolean 0/3 and 1/3
    for d in (0, 1):
        lines = render_certificate(corpus_certificate(BOOL, d, 3)).split("\n")
        where = [i for i, line in enumerate(lines) if line.split(" ", 1)[0] == keyword]
        for i in {where[0], where[-1]}:
            tokens = lines[i].split(" ")
            for j in {1, len(tokens) - 1}:
                for token in CRAFTED_TOKENS:
                    changed = list(lines)
                    changed[i] = " ".join(tokens[:j] + [token] + tokens[j + 1:])
                    mutant = "\n".join(changed)
                    assert _outcome(parse_certificate, mutant) == _outcome(parse_reference,
                                                                           mutant), changed[i]


def test_every_mutant_report_ends_at_its_first_failure():
    # the mutants above that parse: each verifies, or its report is the
    # passing checks followed by one failure
    failures = set()
    for sr, d, x, count in MUTATED:
        for text in _mutants(sr, d, x, count, seed=f"{d}/{x}/{sr.size}"):
            try:
                report = verify_certificate(sr, parse_certificate(text), cap_hom=65536)
            except ParseError:
                continue
            assert_ends_at_first_failure(report)
            failures.update(report.failures)
    assert {"order-canonical", "layout", "factor-products"} <= failures


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
    # entries outside range(2): with carry, each line would be the code
    # of the line it replaces
    "f 0 0\nf 0 1\nf 0 2\nf 1 1\n",
    "f 0 0\nf 0 1\nf 1 0\nf 0 3\n",
    "f 0 0\nf 1 -1\nf 1 0\nf 1 1\n",
    # the layout of rendered lines, nearly: an f at a digit's offset, a
    # last entry dropped before a trailing space
    "f 0 0\nf 0 f\n1 1 0\nf 1 1\n",
    "f 0 0\nf 0 1\nf 1 0\nf 1 \n",
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


# what replaces one character of an order line: a function of the
# rendered character, and whether it replaces the f or a digit
DIGIT_MUTANTS = {
    "fullwidth": (lambda c: chr(0xFF10 + int(c)), "digit"),  # int() reads it, as c
    "superscript": (lambda c: "\u00b9", "digit"),
    "nul": (lambda c: "\x00", "digit"),
    "surrogate": (lambda c: "\ud800", "digit"),
    "past-base": (lambda c: "2", "digit"),
    "uppercase-f": (lambda c: "F", "f"),
}


@pytest.mark.parametrize("block", [1, 5, 12, None])
@pytest.mark.parametrize("kind", list(DIGIT_MUTANTS))
def test_block_parse_matches_the_reference_on_non_ascii_and_foreign_digits(kind, block,
                                                                           monkeypatch):
    # characters a Unicode-aware digit check could let through, at the
    # first, a middle and the last line of the order section, on the f,
    # the first, a middle and the last digit: with the default block the
    # section is one block, with the smaller ones each line is its own
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    replace, where = DIGIT_MUTANTS[kind]
    cert = corpus_certificate(BOOL, 1, 6)
    lines = render_certificate(cert).split("\n")
    first = lines.index("order " + str(len(cert.order))) + 1
    outcomes = set()
    for i in (0, 31, 63):
        for offset in ((0,) if where == "f" else (2, 8, 12)):
            line = lines[first + i]
            changed = list(lines)
            changed[first + i] = line[:offset] + replace(line[offset]) + line[offset + 1:]
            text = "\n".join(changed)
            outcome = _outcome(parse_certificate, text)
            assert outcome == _outcome(parse_reference, text), (i, offset)
            if kind == "fullwidth":
                assert outcome == cert
            elif kind == "past-base":
                assert outcome.order == cert.order[:i] + (NO_CODE,) + cert.order[i + 1:]
            else:
                outcomes.add(outcome.split(":", 2)[2].strip())
    assert outcomes <= {"non-integer entry in order vector", "expected 'f', got 'F'"}


@pytest.mark.parametrize("block", [None, 1, 23])
def test_an_out_of_range_entry_reads_as_no_code_in_every_block(block, monkeypatch):
    # one f line's last entry outside range(n), at a block's start, middle
    # or end: that line alone holds no code, whichever path reads it
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    for sr, d, x, positions, entries in [(TROP1, 2, 4, (0, 1, 229, 230, 3000, 6560), "3 9 -1"),
                                         (BOOL, 4, 4, (4095, 65535), "2")]:
        cert = corpus_certificate(sr, d, x)
        lines = render_certificate(cert).split("\n")
        first = lines.index("order " + str(len(cert.order))) + 1
        for i in positions:
            for entry in entries.split():
                changed = list(lines)
                changed[first + i] = changed[first + i][:-1] + entry
                parsed = parse_certificate("\n".join(changed))
                assert parsed.order == cert.order[:i] + (NO_CODE,) + cert.order[i + 1:]
    assert verify_certificate(sr, parsed, cap_hom=65536).failures == ("order-canonical",)


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


def test_render_matches_the_reference_on_unusual_orders(monkeypatch):
    # a Certificate built by hand: any codes in range, in any number, and
    # shapes certify never pairs with them; each text also parses as the
    # reference parses it
    base = corpus_certificate(BOOL, 1, 3)
    rng = random.Random(11)
    shapes = [(2, 1, 3), (2, 0, 3), (2, 3, 0), (2, 2, 2), (2, 3, 1), (3, 2, 1), (12, 1, 2),
              (1, 5, 3)]
    for block in (None, 1, 3):
        if block is not None:
            monkeypatch.setattr(certfile, "_RENDER_BLOCK", block)
        for n, d, x in shapes:
            m = n ** (d * x)
            orders = [(), (0,), (m - 1, 0), (m - 1,) * 5,
                      tuple(rng.randrange(m) for _ in range(40))]
            if m > 1:
                orders.append((True, 0))
            for order in orders:
                cert = dataclasses.replace(base, semiring_size=n, d=d, x=x, order=order)
                text = render_certificate(cert)
                assert_same_text(text, render_reference(cert))
                assert _outcome(parse_certificate, text) == _outcome(parse_reference, text)
        for sr, d, x in CORPUS[:4]:
            cert = corpus_certificate(sr, d, x)
            assert_same_text(render_certificate(cert), render_reference(cert))


def _item_widths(n):
    """Widths 0 and 1, the widest whose base-n codes each item size holds, and the next.

    The items are those of 1, 2, 4 and 8 bytes; the width after the
    widest of 8 bytes is read with ``int``.
    """
    widths = {0, 1}
    for size in (1, 2, 4, 8):
        width = 0
        while n ** (width + 1) <= 256 ** size:
            width += 1
        widths |= {width, width + 1}
    return sorted(widths)


def _scrambled_orders(rng, m, count):
    """Orders of ``count`` codes below m that are not canonical: random, repeated, descending."""
    return [tuple(rng.randrange(m) for _ in range(count)),
            tuple(rng.choice([0, m - 1, m // 2]) for _ in range(count)),
            tuple(sorted((rng.randrange(m) for _ in range(count)), reverse=True))]


@pytest.mark.parametrize("n", range(2, 11))
def test_order_codec_matches_the_reference_at_every_item_size(n):
    # hand-made orders at each width _item_widths gives: rendered as the
    # reference renders them, and every run of lines as rendered, the
    # first, one alone and the last among them, decodes to its codes
    base = corpus_certificate(BOOL, 2, 2)
    rng = random.Random(f"items {n}")
    for width in _item_widths(n):
        for order in _scrambled_orders(rng, n ** width, 40):
            cert = dataclasses.replace(base, semiring_size=n, d=1, x=width, order=order)
            text = render_certificate(cert)
            assert_same_text(text, render_reference(cert))
            lines = text.split("\n")
            first = lines.index("order 40") + 1
            for start, stop in [(0, 40), (0, 1), (13, 29), (39, 40)]:
                block = "\n".join(lines[first + start:first + stop])
                codes = certfile._block_codes(block, stop - start, width, n)
                assert codes == list(order[start:stop]), (width, start)


@pytest.mark.parametrize("parse_block, render_block", [(None, None), (1, 1), (23, 3), (100, 7)])
def test_scrambled_orders_of_the_full_count_parse_as_the_reference_parses_them(
        parse_block, render_block, monkeypatch):
    # n^(d*x) codes, so each line is decoded: a random permutation, the
    # codes descending, and one with repeats; blocks of either side cut
    # the section inside a run of one high digit half and inside a line
    if parse_block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", parse_block)
        monkeypatch.setattr(certfile, "_RENDER_BLOCK", render_block)
    base = corpus_certificate(BOOL, 2, 2)
    rng = random.Random(f"scrambled {parse_block}")
    for n, width in [(2, 0), (2, 1), (2, 7), (3, 5), (4, 4), (5, 3), (7, 3), (9, 2), (10, 3)]:
        m = n ** width
        orders = [tuple(rng.sample(range(m), m)), tuple(reversed(range(m))),
                  tuple(rng.randrange(m) for _ in range(m))]
        for order in orders:
            cert = dataclasses.replace(base, semiring_size=n, d=1, x=width, order=order)
            text = render_certificate(cert)
            assert_same_text(text, render_reference(cert))
            parsed = parse_certificate(text)
            assert parsed == parse_reference(text)
            assert parsed.order == order


# tracemalloc peaks, in bytes, of render_certificate and parse_certificate
# at boolean 4/4 (a file of 2,228,553 bytes) under the codec that wrote a
# block with one % format and read each line with one int(digits, n)
FORMER_PEAKS = {"render": 4_466_850, "parse": 2_916_379}


def test_the_order_codec_stays_within_a_tenth_of_its_former_peak_memory():
    # the section is held as a few large strings, not one per group of
    # lines, and a parsed block's temporaries stay small beside the text
    cert = corpus_certificate(BOOL, 4, 4)
    text = render_certificate(cert)
    assert parse_certificate(text) == cert
    # kept as the ~4,600 strings of its groups, or joined only at the
    # end, the section would raise the tracemalloc peak by only about 3%,
    # so its strings are counted and measured in lines
    blocks = certfile._order_blocks(cert)
    assert len(blocks) <= len(cert.order) // certfile._RENDER_BLOCK + 1
    assert max(block.count("\n") for block in blocks) < 2 * certfile._RENDER_BLOCK
    for name, call, arg in [("render", render_certificate, cert),
                            ("parse", parse_certificate, text)]:
        gc.collect()
        tracemalloc.start()
        try:
            call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * FORMER_PEAKS[name], (name, peak)


@pytest.mark.parametrize("n, d, x, order", [
    (2, 1, 3, (8,)), (2, 1, 3, (0, 1, -1)), (2, 1, 3, (NO_CODE,)), (2, 1, 3, (0, 2 ** 100)),
    (2, 0, 3, (1,)), (2, 3, 0, (0, 1)), (1, 5, 3, (0, 1)), (0, 1, 3, (0,)),
    (2, 10 ** 30, 1, (-1,)),
], ids=repr)
def test_render_refuses_a_code_outside_the_hom_set(n, d, x, order):
    # n^(d*x) codes in all, from 0; a code past them or below 0 is no
    # element, and its digits would carry or run short
    cert = dataclasses.replace(corpus_certificate(BOOL, 1, 3), semiring_size=n, d=d, x=x,
                               order=order)
    with pytest.raises(ValueError):
        render_certificate(cert)
    if d * x < 100:
        with pytest.raises(ValueError):
            render_reference(cert)


def _wide_line(text, size, width, entry, count=1):
    """``text`` with one ``f`` line of ``width`` entries, for d = 1, x = width and ``count``."""
    start, end = text.index("\nf ") + 1, text.index("\nfactor") + 1
    head = (text[:start].replace("\nsemiring-size 2\n", f"\nsemiring-size {size}\n")
            .replace("\nd 2\n", "\nd 1\n").replace("\nx 2\n", f"\nx {width}\n")
            .replace("\norder 16\n", f"\norder {count}\n"))
    return head + "f" + f" {entry}" * width + "\n" + text[end:]


def test_hostile_order_headers_parse_in_bounded_memory():
    # the header's count, size and d*x size nothing: the text runs out
    # first, and an order whose count is not n^(d*x) is never decoded
    text = render_certificate(corpus_certificate(BOOL, 2, 2))
    wide = render_certificate(corpus_certificate(BOOL, 4, 4))
    hostile = [text.replace(old, new) for old, new in [
        ("\norder 16\n", "\norder 1000000000000\n"),
        ("\nd 2\n", "\nd 1000000000\n"),
        ("\nx 2\n", f"\nx {10 ** 30}\n"),
        ("\nsemiring-size 2\n", "\nsemiring-size 3\n"),
        ("\nsemiring-size 2\n", f"\nsemiring-size {10 ** 400}\n"),
        ("\nsemiring-size 2\n", "\nsemiring-size 1\n"),
        ("\nsemiring-size 2\n", "\nsemiring-size -3\n")]]
    hostile += [_wide_line(text, size, 100000, entry)
                for size, entry in [(2, 1), (3, 1), (10 ** 400, 1), (1, 0), (1, 1)]]
    # a line as rendered, its count n^(d*x), with more digits than int
    # reads from one string outside bases that are powers of two, and
    # a one-element semiring's line, a block alone, which int cannot read
    hostile += [_wide_line(text, size, width, 0, size ** width)
                for size, width in [(3, 4301), (9, 4500), (2, 14000), (1, 3000)]]
    # n^(d*x) far above the count, on a wide certificate
    hostile += [wide.replace("\nsemiring-size 2\n", f"\nsemiring-size {size}\n")
                for size in (3, 10 ** 400)]
    # a construct section whose header sizes its matrices or counts
    construct = render_certificate(corpus_certificate(BOOL, 0, 3))
    hostile += [construct.replace(old, new) for old, new in [
        ("\nx 3\n", f"\nx {10 ** 30}\n"),
        ("\nfactor 3 1 0\n", f"\nfactor {10 ** 30} 1 0\n"),
        ("\nfactor 3 1 0\n", f"\nfactor 3 {10 ** 30} 0\n"),
        ("\ncoefficients 1\n", "\ncoefficients 1000000000000\n"),
        ("\ndiagonal 1\n", "\ndiagonal 1000000000000\n")]]
    # counts below zero, and past what one string split can take
    hostile += [construct.replace(f"\n{keyword} 1\n", f"\n{keyword} {count}\n")
                for keyword in ("coefficients", "diagonal")
                for count in (-1, -100, 10 ** 20, 10 ** 30)]
    # one block of 64 whose factor header sizes its left and right lines
    blocks = render_certificate(corpus_certificate(BOOL, 1, 6)).split("\n")
    i = blocks.index("block 17") + 2
    assert blocks[i] == "factor 6 2 0"
    for factor in (f"factor {10 ** 30} 2 0", f"factor 6 {10 ** 30} 0"):
        hostile.append("\n".join(blocks[:i] + [factor] + blocks[i + 1:]))
    for case in hostile:
        start = time.perf_counter()
        outcome = _outcome(parse_certificate, case)
        assert time.perf_counter() - start < 2
        assert outcome == _outcome(parse_reference, case)


@pytest.mark.parametrize("block", [None, 1, 23, 100])
def test_rendered_order_sections_never_parse_line_by_line(block, monkeypatch):
    # every block of a rendered order section, its last one and the only
    # block of a small one included, decodes at once in bases 2-10
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    calls = []
    order_code = certfile._order_code
    monkeypatch.setattr(certfile, "_order_code",
                        lambda *args: calls.append(args) or order_code(*args))
    certs = [corpus_certificate(sr, d, x) for sr, d, x in CORPUS if sr.size <= 10]
    for n in range(2, 11):
        sr = tropical_semiring(n - 2)
        certs += [corpus_certificate(sr, d, x) for d, x in [(0, 2), (1, 1), (1, 2), (2, 1)]]
    for n, d, x in [(2, 3, 3), (3, 3, 2), (5, 1, 4), (7, 2, 2), (10, 1, 3)]:
        certs.append(corpus_certificate(tropical_semiring(n - 2), d, x))
    # and in bases 11-36, whose entries take one or two digits
    certs += [corpus_certificate(sr, d, x) for sr, d, x in CORPUS if sr.size > 10]
    for n in range(11, 37):
        sr = tropical_semiring(n - 2)
        certs += [corpus_certificate(sr, d, x) for d, x in [(0, 2), (1, 1), (1, 2), (2, 1)]]
    for n, d, x in [(11, 1, 3), (16, 1, 3), (36, 1, 2)]:
        certs.append(corpus_certificate(tropical_semiring(n - 2), d, x))
    for cert in certs:
        assert parse_certificate(render_certificate(cert)).order == cert.order
    assert calls == []


@pytest.mark.parametrize("block", [1, 5, 12, None])
@pytest.mark.parametrize("order", [
    "f 10 10 f\n9 10\nf 10 9\n",
    "f 10\n10 f 9 10\nf 10 9\n",
    "f 10 10\nf 9 010\nf 10 9\n",
    "f 10 10\nf 9 1_0\nf 10 9\n",
    "f 10 10\nf 9 11\nf 10 9\n",
    "f 10 10\nf 9 a\nf 10 9\n",
    "f 10 10\nf 9  10\nf 10 9\n",
    "f 10 10\nf 9 10 \nf 10 9\n",
    "f 10 10\nf 9\t10\nf 10 9\n",
    "f 10 10\nf f 10\nf 10 9\n",
    "f 10 10\nf 9 10\nf 10 9 # a remark\n",
    "f 10 10\n\nf 9 10\nf 10 9\n",
    "f 10 10\nf 9 ١٠\nf 10 9\n",
], ids=lambda order: repr(order))
def test_spelled_order_blocks_match_the_reference_on_crafted_sections(order, block, monkeypatch):
    # the first three lines of a base-11 order section, each breaking one
    # premise of a spelled block: a break or an f out of place, a
    # spelling int reads but the renderer never writes, an entry past
    # the base, a stray space, tab, comment or blank line
    if block is not None:
        monkeypatch.setattr(certfile, "_PARSE_BLOCK", block)
    cert = corpus_certificate(TROP9, 1, 2)
    text = render_certificate(cert)
    rendered = "f 10 10\nf 9 10\nf 10 9\n"
    assert rendered in text
    mutant = text.replace(rendered, order)
    assert _outcome(parse_certificate, mutant) == _outcome(parse_reference, mutant)


CONSTRUCT_CORPUS = [(sr, d, x) for sr, d, x in CORPUS if sr.size <= 10 and x > sr.size ** d]


@pytest.mark.parametrize("sr, d, x", CONSTRUCT_CORPUS,
                         ids=[f"{'boolean' if sr.size == 2 else f'tropical{sr.size - 2}'}-{d}-{x}"
                              for sr, d, x in CONSTRUCT_CORPUS])
def test_rendered_construct_sections_never_parse_line_by_line(sr, d, x, monkeypatch):
    # blocks, coefficients, diagonal and det, each read a section at once
    calls = []
    for name in ("take_matrix", "take_fraction"):
        method = getattr(certfile._Reader, name)
        monkeypatch.setattr(certfile._Reader, name,
                            lambda *args, method=method: calls.append(args) or method(*args))
    cert = corpus_certificate(sr, d, x)
    assert parse_certificate(render_certificate(cert)) == cert
    assert calls == []


def _block_lines(text):
    """The lines of ``text``, and the indices of each block's six lines among them."""
    lines = text.split("\n")
    return lines, [range(i, i + 6) for i, line in enumerate(lines) if line.startswith("block ")]


@pytest.mark.parametrize("sr, d, x, widths", [(BOOL, 1, 6, {1, 2}), (TROP1, 1, 4, {1, 2, 3})],
                         ids=["boolean-1-6", "tropical1-1-4"])
def test_grouped_blocks_match_the_reference_across_factor_widths(sr, d, x, widths):
    # the section's left and right lines come in one shape per factor
    # width; a width changed so that a line one block still reads under
    # its own shape is asked for under a second shape too, or a block
    # given another block's factor lines, reads as the reference reads it
    cert = corpus_certificate(sr, d, x)
    text = render_certificate(cert)
    assert {blk.factor.width for blk in cert.blocks} == widths
    assert parse_certificate(text) == cert == parse_reference(text)
    lines, blocks = _block_lines(text)
    outcomes = set()
    for i, block in enumerate(blocks):
        factor, left, right = (lines[block[k]] for k in (2, 3, 4))
        width = int(factor.split()[2])
        if not any(left == lines[other[3]] or right == lines[other[4]]
                   for other in blocks[:i] + blocks[i + 1:]):
            continue
        for new_width in sorted(widths - {width}) + [width + 1]:
            changed = list(lines)
            changed[block[2]] = factor.replace(f" {width} ", f" {new_width} ", 1)
            mutant = "\n".join(changed)
            outcome = _outcome(parse_certificate, mutant)
            assert outcome == _outcome(parse_reference, mutant), (i, new_width)
            outcomes.add(outcome if isinstance(outcome, str) else "parsed")
        donor = next(other for other in blocks if lines[other[2]] != factor)
        changed = list(lines)
        changed[block[2]:block[5]] = [lines[k] for k in donor[2:5]]
        mutant = "\n".join(changed)
        parsed = parse_certificate(mutant)
        assert parsed == parse_reference(mutant)
        assert parsed.blocks[i].factor == cert.blocks[blocks.index(donor)].factor
        outcomes.add("parsed")
    assert "parsed" in outcomes
    assert any("entries per row" in o or "rows, got" in o for o in outcomes)


def test_block_matrices_equal_their_validated_form():
    # the matrices cut from bytes are those the validating constructor
    # builds from the same entries, entries tuples of int
    for sr, d, x in CONSTRUCT_CORPUS:
        for blk in parse_certificate(render_certificate(corpus_certificate(sr, d, x))).blocks:
            for m in (blk.s, blk.factor.left, blk.factor.right):
                assert type(m.entries) is tuple
                assert all(type(row) is tuple and all(type(e) is int for e in row)
                           for row in m.entries)
                assert Morphism(m.src, m.dst, m.entries) == m


def test_rendered_block_matrices_skip_the_entry_checks(monkeypatch):
    # parsing a rendered boolean 1/6 certificate checks no block matrix
    # entry by entry, and no factor pair's shapes: the layout check has
    # fixed each shape
    text = render_certificate(corpus_certificate(BOOL, 1, 6))
    calls = []
    for cls in (Morphism, Factorization):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda obj, check=check: calls.append(obj) or check(obj))
    init = CertBlock.__init__
    monkeypatch.setattr(CertBlock, "__init__",
                        lambda blk, *args, **kwargs: calls.append(blk) or init(blk, *args, **kwargs))
    assert parse_certificate(text) == corpus_certificate(BOOL, 1, 6)
    assert calls == []
