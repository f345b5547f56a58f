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
import hashlib
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from semimat import (ParseError, boolean_semiring, certify, enumerate_hom, parse_certificate,
                     render_certificate, tropical_semiring, verify_certificate)
from semimat.certfile import FORMAT_MAGIC, FORMAT_VERSION, NO_CODE
from semimat.certifier import CertBlock, Certificate, Factorization
from semimat.matcat import Morphism
import semimat.certfile as certfile
from test_certifier import assert_ends_at_first_failure, one_pass_verdicts, per_block_verdicts

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
           f"branch {cert.branch}"]
    if cert.branch == "pad":
        if cert.order:
            raise ValueError("a pad certificate holds no order")
        _emit_factor(out, cert.pad)
    else:
        out.append(f"order {len(cert.order)}")
        for code in cert.order:
            vec = vector_of(code, cert.semiring_size, cert.d * cert.x)
            out.append(("f " + " ".join(map(str, vec))).rstrip())
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


def _take_order_reference(reader, n, width, count):
    """The codes of the next ``count`` lines ``f`` and ``width`` entries, read in base n."""
    vectors = []
    for _ in range(count):
        lineno, rest = reader.take("f")
        try:
            vec = tuple(int(tok) for tok in rest)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer entry in order vector") from None
        if len(vec) != width:
            raise ParseError(f"line {lineno}: order vector has {len(vec)} entries, "
                             f"expected {width}")
        vectors.append(vec)
    return order_codes(vectors, n, width, count)


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

    order = ()
    pad = None
    blocks = []
    coefficients = ()
    diagonal = ()
    det = None
    if branch == "pad":
        pad = _parse_factor_reference(reader)
    else:
        count = reader.take_int("order")
        if count < 0:
            raise ParseError("order count must be nonnegative")
        order = _take_order_reference(reader, size, d * x, count)
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
                       branch=branch, order=order, pad=pad, blocks=tuple(blocks),
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


def take_order(n, width, count):
    """A parse of a text that starts with an order section: its codes and the next line.

    The next line is its number and tokens, or None at the end.  The
    block codec reads a large section this way without the construct
    section after it, which the reference reads slowly.
    """
    def parse(text):
        reader = certfile._Reader(text)
        codes = reader.take_order(count, width, certfile._order_base(n, width, count))
        line = reader._next()
        return codes, line and line[:2]
    return parse


def take_order_reference(n, width, count):
    """``take_order`` as the reference reads the section."""
    def parse(text):
        reader = _ReferenceReader(text)
        codes = _take_order_reference(reader, n, width, count)
        return codes, reader.lines[reader.pos] if reader.pos < len(reader.lines) else None
    return parse


CORPUS = [(BOOL, 0, 3), (BOOL, 1, 3), (BOOL, 1, 6), (BOOL, 2, 2), (BOOL, 4, 4),
          (TROP1, 1, 4), (TROP1, 2, 4), (TROP9, 1, 2)]
_CERTS = {}


def corpus_certificate(sr, d, x):
    key = (sr.size, d, x)
    if key not in _CERTS:
        _CERTS[key] = certify(sr, d, x, cap_hom=65536)
    return _CERTS[key]


def with_order(cert, order):
    """``cert`` as a construct certificate that holds ``order``, with a block per code.

    Each block is one all-ones x-by-x s through a factor of width 1, so
    the text parses whenever its order section does.  A pad file has no
    order section; this gives any order a construct-branch text.
    """
    x = cert.x
    block = CertBlock(s=Morphism(x, x, ((1,) * x,) * x), v=1,
                      factor=Factorization(left=Morphism(x, 1, ((1,),) * x), pad=0,
                                           right=Morphism(1, x, ((1,) * x,))))
    m = len(order)
    return dataclasses.replace(cert, branch="construct", order=tuple(order), pad=None,
                               blocks=(block,) * m, coefficients=(Fraction(1),) * m,
                               x_diagonal=(Fraction(1),) * m, det_x=Fraction(1), checks=())


def order_certificate(sr, d, x):
    """``corpus_certificate``, or for a pad instance ``with_order`` of its canonical order.

    That order section is the one the pad instance's format 2 file held.
    """
    key = ("order", sr.size, d, x)
    if key not in _CERTS:
        cert = corpus_certificate(sr, d, x)
        if cert.branch == "pad":
            cert = with_order(cert, enumerate_hom(sr, d, x, cap=65536).codes)
        _CERTS[key] = cert
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


# SHA-256 of the construct file certify writes at (d, x) = (0, 3) in
# each base, and at (1, n + 1) where n^(n+1) <= 4096, pinned from the
# files the block-at-a-time order codec wrote before the plain one
CONSTRUCT_SHA256 = {
    (2, 0, 3): "6b6498b2bec2fe01f597adb30936e347eb6bf6708a753466c94b59e32962b320",
    (2, 1, 3): "d73fdd61375271f1ca3f37f1d1588722754e860713111ae6c86b02b6db2bed8f",
    (3, 0, 3): "b91ef9ce9af14e78bdce175e6a63e006d9ac99a864cf2c7bf9b47f5ffb0a33cc",
    (3, 1, 4): "e33409b1925c1487277461ea398b5e32071aa800ce8a3935c1014d72170837a8",
    (4, 0, 3): "8092de0ddd40f73eec739e81a54c007e6b50786144b6e0d819fef82d9bba7b2c",
    (4, 1, 5): "f5deff56e6f0d59c6d366e9d0f1742fa3ad5b3fc4cc664d216ba730e54e5133d",
    (5, 0, 3): "b520bc908b339148f11321ae5a6fce5e7b92747a31ff4c521f369c29c4200e3f",
    (6, 0, 3): "a93ed80c1396578ffc4f3340673db640ad2d21fe9273fa541f28e7e9f99079ec",
    (7, 0, 3): "6fbcbec64485b1e348879f9437484f62530e90545423bb06fb8d4172bd62b167",
    (8, 0, 3): "187ccdf635094d1df65924c7c9ae41ff83083db1b94bc7ab035ee79d5d754608",
    (9, 0, 3): "f61964874c030e8fd5ff8154dce018c0ddcc844fb545e98e85867b4733a3313d",
    (10, 0, 3): "9399641f4e8beb2193a179e929d592ebb37d9c9c6e3be0db455c459fd59e03cc",
    (11, 0, 3): "791ee9b0c84c80d2ba02cd7b8a6f1c84a909b54816ff46b92f7478c4a3c5dd9a",
    (12, 0, 3): "8c699d2465e5df45a2c0f26f4e2b7634204668cc4d21efb0dbf3f2b2007ed743",
    (13, 0, 3): "69a354f549487a8f4559a758979a38d87d0d2841e01db84408fa5688a123e926",
    (14, 0, 3): "3203479b203b61e7c0b677df7d9de2acb864fb9c0c20ab59058cae891be9a49c",
    (15, 0, 3): "05472355432eeb001bb47a5c9d1215d2150e61792fcf1ae00db1546bf0189742",
    (16, 0, 3): "54b88e17d4c4e4ddb1bd806a9418ddeb74f1c3f2cb9668f15b40dc7c2c6832a8",
    (17, 0, 3): "7e7e8b1831c1d5899503958359007ca1a290c00adf7b92056ce9b5731c4a756a",
    (18, 0, 3): "94ecb8cccb8194d30f5abd79e56fc4dba406f683e82ee23ba506214f465ba540",
    (19, 0, 3): "17b161502153303d0fd4464663146f92acd4678d67849354780f1ac539fbac47",
    (20, 0, 3): "e1faa12c6122252e843e4e8920785fbaef0ff67905d99f5bf3cad9049a52d56b",
    (21, 0, 3): "19185bad4a54c6d3608b811d698ceeed4220b8fbb43696267fd53092f4e796d6",
    (22, 0, 3): "1a9d807b9e0ec66b05dc2e2e203ea6d51eea1f73a537d6b141c9fcf0d15d8a69",
    (23, 0, 3): "4bb8cb51b9d81771f5f00dd3fd94f31946e727aba10ee9745a6ab2b5a50abd79",
    (24, 0, 3): "f4d354c591de3276f95165d5aa1614b05cccaa985cfc73345ddd56a6a18612c0",
    (25, 0, 3): "5398d74e72f435982be9b06a89d7f659cdb16b6537d03b0b5f384e4d72198464",
    (26, 0, 3): "9c1c86527f85dbe8011067ab273766e94be65c531cd3695366cdd9196ef04483",
    (27, 0, 3): "a214388654d07b7882a665cf8577f4db8b79aaacd1fc3842116853dba156f03e",
    (28, 0, 3): "baa8c298939a5aaa18c035f2d0cb4a6d62b5ada6aef97df22f7c57ba0d49bd8e",
    (29, 0, 3): "2bc530e06f3454040a3b46cca5916d96cbb494e1e08e5ee1b23e169c1eedc885",
    (30, 0, 3): "795df75086398c8ced5f0892bd70be9febc19b5fe865c0522296a6c8f6240b7b",
    (31, 0, 3): "b1ce247c5b4080a20d09b89b9ae64fb4ce2f9f329be72c3c8731f24dfa55c90b",
    (32, 0, 3): "a65aa8433d7190fbf561435e69735be55f48034c2e8cc50dc39ade0e4b323adf",
    (33, 0, 3): "6eb2bf27cb244c2716321550bdf90860eb42263d17f247b408ea893a01983922",
    (34, 0, 3): "3c69c80ee0b310a3d6c75b8b33ae5d1cb31b48f0302ceea172cad6bba290b271",
    (35, 0, 3): "f7c97df8aa55420bf681bc699aa0bcaf691e2ec886a1f6b1916efd8cc01cc2db",
    (36, 0, 3): "eef89af3b2396b8a9fc8489a42d0428a00546e5325531ddf0c61875441921af1",
}


@pytest.mark.parametrize("n, d, x", list(CONSTRUCT_SHA256),
                         ids=[f"{n}-{d}-{x}" for n, d, x in CONSTRUCT_SHA256])
def test_a_construct_file_in_every_base_keeps_its_bytes_and_verifies(n, d, x):
    sr = BOOL if n == 2 else tropical_semiring(n - 2)
    cert = certify(sr, d, x)
    assert cert.branch == "construct"
    text = render_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_SHA256[n, d, x]
    assert_same_text(text, render_reference(cert))
    assert parse_certificate(text) == cert == parse_reference(text)
    assert verify_certificate(sr, parse_certificate(text)).failures == ()


# (semiring, d, x, number of mutants)
MUTATED = [(BOOL, 0, 3, 40), (BOOL, 1, 3, 150), (BOOL, 1, 6, 150), (BOOL, 2, 2, 150),
           (TROP1, 1, 4, 150), (TROP9, 1, 2, 100)]


def _mutants(sr, d, x, count, seed):
    text = render_certificate(order_certificate(sr, d, x))
    rng = random.Random(seed)
    for k in range(count):
        yield _mutate(text, rng, ("f",) if k % 2 == 1 else None)


def test_block_parse_matches_the_reference_on_mutated_certificates():
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


@pytest.mark.parametrize("d", (0, 1))
@pytest.mark.parametrize("keyword", CONSTRUCT_KEYWORDS + ("det",))
def test_block_parse_matches_the_reference_on_crafted_construct_tokens(keyword, d):
    # the first and the last token after the keyword, on the first and
    # the last such line of boolean 0/3 and 1/3
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


@pytest.mark.parametrize("sr, d, x, count", [(TROP1, 2, 4, 8), (BOOL, 4, 4, 2)],
                         ids=["tropical1-2-4", "boolean-4-4"])
def test_block_parse_matches_the_reference_on_large_orders(sr, d, x, count):
    # a mutation in a large order section: the section alone, and a line
    # after it
    cert = order_certificate(sr, d, x)
    section = certfile._order_text(cert) + "block 0\n"
    args = cert.semiring_size, d * x, len(cert.order)
    rng = random.Random(f"large {d}/{x}/{sr.size}")
    for k in range(count):
        text = _mutate(section, rng, ("f",) if k % 2 == 1 else None)
        assert (_outcome(take_order(*args), text)
                == _outcome(take_order_reference(*args), text))


CANONICAL_ORDER = "f 0 0\nf 0 1\nf 1 0\nf 1 1\n"  # boolean 1/2


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
def test_block_parse_matches_the_reference_on_crafted_order_sections(order):
    # each breaks one premise of a section's layout check, alone or with
    # a line that would restore the token count
    text = render_certificate(order_certificate(BOOL, 1, 2))
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


@pytest.mark.parametrize("i", (0, 31, 63), ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", list(DIGIT_MUTANTS))
def test_block_parse_matches_the_reference_on_non_ascii_and_foreign_digits(kind, i):
    # characters a Unicode-aware digit check could let through, at the
    # first, a middle and the last line of the order section, on the f,
    # the first, a middle and the last digit
    replace, where = DIGIT_MUTANTS[kind]
    cert = corpus_certificate(BOOL, 1, 6)
    lines = render_certificate(cert).split("\n")
    first = lines.index("order " + str(len(cert.order))) + 1
    outcomes = set()
    for offset in ((0,) if where == "f" else (2, 8, 12)):
        line = lines[first + i]
        changed = list(lines)
        changed[first + i] = line[:offset] + replace(line[offset]) + line[offset + 1:]
        text = "\n".join(changed)
        outcome = _outcome(parse_certificate, text)
        assert outcome == _outcome(parse_reference, text), offset
        if kind == "fullwidth":
            assert outcome == cert
        elif kind == "past-base":
            assert outcome.order == cert.order[:i] + (NO_CODE,) + cert.order[i + 1:]
        else:
            outcomes.add(outcome.split(":", 2)[2].strip())
    assert outcomes <= {"non-integer entry in order vector", "expected 'f', got 'F'"}


@pytest.mark.parametrize("sr, d, x, positions, entries",
                         [(TROP1, 2, 4, (0, 1, 229, 230, 3000, 6560), "3 9 -1"),
                          (BOOL, 4, 4, (4095, 65535), "2"),
                          (TROP1, 1, 4, (0, 40, 80), "3 -1"),
                          (BOOL, 1, 6, (0, 63), "2")],
                         ids=["tropical1-2-4", "boolean-4-4", "tropical1-1-4", "boolean-1-6"])
def test_an_out_of_range_entry_reads_as_no_code_in_every_block(sr, d, x, positions, entries):
    # one f line's last entry outside range(n), at the section's start,
    # middle or end: that line alone holds no code; in a certificate
    # certify wrote, only order-canonical then fails
    cert = order_certificate(sr, d, x)
    lines = render_certificate(cert).split("\n")
    first = lines.index("order " + str(len(cert.order))) + 1
    for i in positions:
        for entry in entries.split():
            changed = list(lines)
            changed[first + i] = changed[first + i][:-1] + entry
            parsed = parse_certificate("\n".join(changed))
            assert parsed.order == cert.order[:i] + (NO_CODE,) + cert.order[i + 1:]
            if cert is corpus_certificate(sr, d, x):
                assert verify_certificate(sr, parsed).failures == ("order-canonical",)


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
    text = render_certificate(order_certificate(BOOL, 2, 2)).replace(old, new)
    assert _outcome(parse_certificate, text) == _outcome(parse_reference, text)


def test_render_matches_the_reference_on_unusual_orders():
    # a Certificate built by hand: any codes in range, in any number, and
    # shapes certify never pairs with them; each text also parses as the
    # reference parses it
    base = corpus_certificate(BOOL, 1, 3)
    rng = random.Random(11)
    shapes = [(2, 1, 3), (2, 0, 3), (2, 3, 0), (2, 2, 2), (2, 3, 1), (3, 2, 1), (12, 1, 2),
              (1, 5, 3)]
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


def _scrambled_orders(rng, m, count):
    """Orders of ``count`` codes below m that are not canonical: random, repeated, descending."""
    return [tuple(rng.randrange(m) for _ in range(count)),
            tuple(rng.choice([0, m - 1, m // 2]) for _ in range(count)),
            tuple(sorted((rng.randrange(m) for _ in range(count)), reverse=True))]


@pytest.mark.parametrize("n", range(2, 37))
def test_order_codec_round_trips_in_every_base(n):
    # hand-made orders at widths from 0 to past 64 bits, rendered as the
    # reference renders them, and every run of their lines, the first,
    # one alone and the last among them, read back to its codes
    base = dataclasses.replace(corpus_certificate(BOOL, 1, 3), semiring_size=n, x=1)
    rng = random.Random(f"round trip {n}")
    for width in (0, 1, 2, 5, 16, 70):
        for order in _scrambled_orders(rng, n ** width, 40):
            cert = with_order(dataclasses.replace(base, d=width), order)
            text = render_certificate(cert)
            assert_same_text(text, render_reference(cert))
            lines = text.split("\n")
            first = lines.index("order 40") + 1
            for start, stop in [(0, 40), (0, 1), (13, 29), (39, 40)]:
                section = "\n".join(lines[first + start:first + stop + 1])
                reader = certfile._Reader(section)
                codes = reader.take_order(stop - start, width, n)
                assert codes == order[start:stop], (width, start)
                assert reader.peek_keyword() == ("block" if stop == 40 else "f")


@pytest.mark.parametrize("n, width", [(2, 0), (2, 1), (2, 7), (3, 5), (4, 4), (5, 3), (7, 3),
                                      (9, 2), (10, 3)])
def test_scrambled_orders_of_the_full_count_parse_as_the_reference_parses_them(n, width):
    # n^(d*x) codes, so each line is decoded: a random permutation, the
    # codes descending, and one with repeats
    base = dataclasses.replace(corpus_certificate(BOOL, 1, 3), x=1)
    rng = random.Random(f"scrambled {n} {width}")
    m = n ** width
    orders = [tuple(rng.sample(range(m), m)), tuple(reversed(range(m))),
              tuple(rng.randrange(m) for _ in range(m))]
    for order in orders:
        cert = with_order(dataclasses.replace(base, semiring_size=n, d=width), order)
        text = render_certificate(cert)
        assert_same_text(text, render_reference(cert))
        parsed = parse_certificate(text)
        assert parsed == parse_reference(text)
        assert parsed.order == order


# tracemalloc peaks, in bytes, of render_certificate and parse_certificate
# on the boolean 1/12 and 2/6 construct files (2,084,136 and 1,042,300
# bytes) under the order codec that wrote a run of lines per high digit
# half and read a digit column at a time
FORMER_PEAKS = {(1, 12): {"render": 8_008_575, "parse": 19_937_267},
                (2, 6): {"render": 4_883_067, "parse": 7_155_572}}


def _peak(call, arg):
    """The tracemalloc peak, in bytes, of ``call(arg)``."""
    gc.collect()
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, x", list(FORMER_PEAKS), ids=["boolean-1-12", "boolean-2-6"])
def test_render_and_parse_stay_within_a_tenth_of_their_former_peak_memory(d, x):
    # the largest construct files the default caps admit at d >= 1
    cert = corpus_certificate(BOOL, d, x)
    text = render_certificate(cert)
    assert parse_certificate(text) == cert
    for name, call, arg in [("render", render_certificate, cert),
                            ("parse", parse_certificate, text)]:
        peak = _peak(call, arg)
        assert peak <= 1.1 * FORMER_PEAKS[d, x][name], (name, peak)


def test_a_wide_order_section_parses_in_no_more_memory_per_byte_than_a_whole_file():
    # boolean 4/4's 65,536 f lines read alone, against the boolean 2/6
    # construct file, whose block section sets its peak
    whole = render_certificate(corpus_certificate(BOOL, 2, 6))
    cert = order_certificate(BOOL, 4, 4)
    wide = certfile._order_text(cert) + "block 0\n"
    read = take_order(2, 16, len(cert.order))
    assert read(wide)[0] == cert.order
    assert _peak(read, wide) / len(wide) <= _peak(parse_certificate, whole) / len(whole)


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


def test_render_refuses_a_pad_certificate_without_its_factor_pair():
    # a ValueError, not an assert that python -O would skip
    cert = dataclasses.replace(corpus_certificate(BOOL, 2, 2), pad=None)
    with pytest.raises(ValueError, match="^a pad certificate needs a factor pair$"):
        render_certificate(cert)


def test_render_refuses_a_construct_certificate_without_det_x():
    # its text would read 'det None', which parse_certificate refuses
    cert = dataclasses.replace(corpus_certificate(BOOL, 1, 3), det_x=None)
    with pytest.raises(ValueError, match="^a construct certificate needs det X$"):
        render_certificate(cert)


def test_render_refuses_a_pad_certificate_that_holds_an_order():
    # a pad file has no order section, so the order would be dropped
    cert = dataclasses.replace(corpus_certificate(BOOL, 2, 2), order=(0,))
    for render in (render_certificate, render_reference):
        with pytest.raises(ValueError, match="^a pad certificate holds no order$"):
            render(cert)


def _wide_line(text, size, width, entry, count=1):
    """``text`` with one ``f`` line of ``width`` entries, for d = 1, x = width and ``count``."""
    start, end = text.index("\nf ") + 1, text.index("\nblock 0\n") + 1
    head = (text[:start].replace("\nsemiring-size 2\n", f"\nsemiring-size {size}\n")
            .replace("\nd 2\n", "\nd 1\n").replace("\nx 2\n", f"\nx {width}\n")
            .replace("\norder 16\n", f"\norder {count}\n"))
    return head + "f" + f" {entry}" * width + "\n" + text[end:]


def test_hostile_order_headers_parse_in_bounded_memory():
    # the header's count, size and d*x size nothing: the text runs out
    # first, and an order whose count is not n^(d*x) is never decoded
    text = render_certificate(order_certificate(BOOL, 2, 2))
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
    # n^(d*x) far above the count, on boolean 4/4's wide order section
    wide = certfile._order_text(order_certificate(BOOL, 4, 4)) + "block 0\n"
    for size in (3, 10 ** 400):
        start = time.perf_counter()
        outcome = _outcome(take_order(size, 16, 65536), wide)
        assert time.perf_counter() - start < 2
        assert outcome == _outcome(take_order_reference(size, 16, 65536), wide)
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


# (n, d, x) of the order sections past the four small shapes of each base
LARGER_ORDERS = [(2, 3, 3), (3, 3, 2), (5, 1, 4), (7, 2, 2), (10, 1, 3), (11, 1, 3), (16, 1, 3),
                 (36, 1, 2)]


@pytest.mark.parametrize("n", range(2, 37))
def test_rendered_order_sections_never_parse_line_by_line(n, monkeypatch):
    # every rendered order section, width 0 included, decodes at once in
    # bases 2-10; bases 11-36, whose entries take one or two digits, are
    # read line by line, to the same codes
    calls = []
    order_code = certfile._order_code
    monkeypatch.setattr(certfile, "_order_code",
                        lambda *args: calls.append(args) or order_code(*args))
    sr = tropical_semiring(n - 2)
    certs = [order_certificate(s, d, x) for s, d, x in CORPUS if s.size == n]
    certs += [order_certificate(sr, d, x) for d, x in [(0, 2), (1, 1), (1, 2), (2, 1)]]
    certs += [order_certificate(sr, d, x) for size, d, x in LARGER_ORDERS if size == n]
    for cert in certs:
        assert parse_certificate(render_certificate(cert)).order == cert.order
    assert len(calls) == (0 if n <= 10 else sum(len(cert.order) for cert in certs))


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
def test_spelled_order_blocks_match_the_reference_on_crafted_sections(order):
    # the first three lines of a base-11 order section, two-digit
    # spellings among them, each line breaking one premise of a rendered
    # line: a break or an f out of place, a spelling int reads but the
    # renderer never writes, an entry past the base, a stray space, tab,
    # comment or blank line
    cert = order_certificate(TROP9, 1, 2)
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


def _block_mutants(cert, rng):
    """``cert`` with one entry changed in one of s, left and right of a block, each in turn.

    The change is made at the first block of each distinct one, so the
    blocks that shared it keep their rows: the row products of the
    unchanged blocks are formed as well.
    """
    n = cert.semiring_size
    for blk, k in {blk: k for k, blk in reversed(list(enumerate(cert.blocks)))}.items():
        for name in ("s", "left", "right"):
            m = blk.s if name == "s" else getattr(blk.factor, name)
            if not (m.src and m.dst):
                continue
            rows = [list(row) for row in m.entries]
            i, j = rng.randrange(m.src), rng.randrange(m.dst)
            rows[i][j] = (rows[i][j] + rng.randrange(1, n)) % n
            changed = Morphism(m.src, m.dst, tuple(map(tuple, rows)))
            new = (dataclasses.replace(blk, s=changed) if name == "s" else dataclasses.replace(
                blk, factor=dataclasses.replace(blk.factor, **{name: changed})))
            yield dataclasses.replace(cert, blocks=cert.blocks[:k] + (new,) + cert.blocks[k + 1:])


@pytest.mark.parametrize("sr, d, x", CONSTRUCT_CORPUS,
                         ids=[f"{'boolean' if sr.size == 2 else f'tropical{sr.size - 2}'}-{d}-{x}"
                              for sr, d, x in CONSTRUCT_CORPUS])
def test_shared_row_products_match_product_is_on_every_block_mutant(sr, d, x):
    # factor-products forms each distinct pair of an E and a row of D
    # once; product_is, block by block, is its reference
    cert = corpus_certificate(sr, d, x)
    mutants = list(_block_mutants(cert, random.Random(f"rows {d}/{x}/{sr.size}")))
    assert len(mutants) == 3 * len(set(cert.blocks))
    verdicts = set()
    for mutant in [cert, *mutants]:
        verdict = one_pass_verdicts(sr, mutant)
        assert verdict == per_block_verdicts(sr, mutant)
        verdicts.add(verdict)
    assert verdicts == {(True, True), (True, False)}


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
