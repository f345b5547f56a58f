import collections
import copy
import dataclasses
import importlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from semimat import (CapExceededError, CertBlock, Factorization,
                     FingerprintError, InternalCheckError, Morphism, ParseError, Semiring,
                     action_matrix, assemble_witness, boolean_semiring, certify,
                     column_preorder, compose, dominates, enumerate_hom,
                     factor_through, identity,
                     nonvanishing_coefficients, pad_identity,
                     parse_certificate, render_certificate, tropical_semiring,
                     verify_certificate, verify_preorder_map)
from semimat import certifier, domination, linalg, matcat
from semimat.certfile import FORMAT_VERSION
from semimat.certifier import CONSTRUCT_CHECK_NAMES, PAD_CHECK_NAMES, product_is
from semimat.domination import linear_combination
from semimat.matcat import (HomEnumeration, code_images, entries_in_range, right_action,
                            right_actions, row_images, row_table)
from semimat.semiring import natural_order
from test_matcat import CHAIN3, is_upper_triangular
from test_small_semirings import small_cases, small_semirings

BOOL = boolean_semiring()
TROP1 = tropical_semiring(1)


def test_column_preorder_examples():
    f = Morphism(1, 2, ((0, 1),))
    assert column_preorder(BOOL, f).entries == ((1, 1), (0, 1))
    same = Morphism(2, 2, ((1, 1), (0, 0)))  # both columns equal
    assert column_preorder(BOOL, same).entries == ((1, 1), (1, 1))
    empty = Morphism(0, 3, ())  # d = 0: vacuously all ones
    assert column_preorder(BOOL, empty).entries == ((1, 1, 1),) * 3


def test_column_preorder_has_unit_diagonal_and_is_transitive():
    for sr, d, x in [(BOOL, 1, 3), (BOOL, 2, 2), (TROP1, 1, 3)]:
        for f in enumerate_hom(sr, d, x):
            s = column_preorder(sr, f)
            one = sr.one
            for i in range(x):
                assert s.entries[i][i] == one
            for i in range(x):
                for j in range(x):
                    for k in range(x):
                        if s.entries[i][j] == one and s.entries[j][k] == one:
                            assert s.entries[i][k] == one


def test_factor_through_example():
    m = Morphism(2, 2, ((1, 1), (0, 1)))
    fact = factor_through(BOOL, m, 2)
    assert fact.left.entries == ((1, 1), (0, 1))
    assert fact.right == identity(BOOL, 2)
    assert fact.pad == 0
    assert fact.product(BOOL) == m
    d_full, e_full = fact.expand(BOOL)
    assert compose(BOOL, d_full, e_full) == m


def test_factor_through_single_distinct_column():
    m = Morphism(2, 2, ((1, 1), (1, 1)))
    fact = factor_through(BOOL, m, 3)
    assert fact.width == 1
    assert fact.pad == 2
    assert fact.product(BOOL) == m
    d_full, e_full = fact.expand(BOOL)
    assert d_full.signature == (2, 3)
    assert e_full.signature == (3, 2)
    assert compose(BOOL, d_full, e_full) == m


def test_factor_through_identity():
    fact = factor_through(BOOL, identity(BOOL, 2), 2)
    assert fact.product(BOOL) == identity(BOOL, 2)


def test_factor_through_bound_violation():
    with pytest.raises(ValueError, match="distinct columns"):
        factor_through(BOOL, identity(BOOL, 2), 1)


def test_factor_through_reproduces_every_column_preorder():
    # v never exceeds n^d, so factoring through n^d always succeeds
    for sr, d, x in [(BOOL, 1, 3), (TROP1, 1, 4)]:
        y = sr.size ** d
        for f in enumerate_hom(sr, d, x):
            s = column_preorder(sr, f)
            fact = factor_through(sr, s, y)
            assert fact.width <= y
            assert fact.product(sr) == s


# the built-ins, the 3-chain and every idempotent semiring of size 3 and 4
SEMIRINGS = [BOOL, TROP1, tropical_semiring(2), CHAIN3, *small_semirings(3),
             *small_semirings(4)]
SEMIRING_IDS = ["boolean", "tropical1", "tropical2", "chain3",
                *(f"small3-{i}" for i in range(len(small_semirings(3)))),
                *(f"small4-{i}" for i in range(len(small_semirings(4))))]


def column_preorder_reference(sr, f):
    """s(f) compared entry by entry through ``natural_order(sr).leq``."""
    leq = natural_order(sr).leq
    d, x = f.src, f.dst
    cols = [tuple(f.entries[k][j] for k in range(d)) for j in range(x)]
    return Morphism(x, x, tuple(
        tuple(sr.one if all(leq[cols[i][k]][cols[j][k]] for k in range(d)) else sr.zero
              for j in range(x))
        for i in range(x)))


def factor_through_reference(sr, m, y):
    """The distinct columns of m, found one index at a time."""
    x = m.src
    cols = [tuple(m.entries[i][j] for i in range(x)) for j in range(x)]
    distinct, index = [], {}
    for col in cols:
        if col not in index:
            index[col] = len(distinct)
            distinct.append(col)
    v = len(distinct)
    if v > y:
        raise ValueError(f"cannot factor through {y}: matrix has {v} distinct columns")
    left = Morphism(x, v, tuple(tuple(distinct[k][i] for k in range(v)) for i in range(x)))
    right = Morphism(v, x, tuple(tuple(sr.one if index[cols[j]] == k else sr.zero
                                       for j in range(x)) for k in range(v)))
    return Factorization(left=left, pad=y - v, right=right)


def random_morphism(sr, rng, src, dst):
    return Morphism(src, dst, tuple(tuple(rng.randrange(sr.size) for _ in range(dst))
                                    for _ in range(src)))


@pytest.mark.parametrize("sr", SEMIRINGS, ids=SEMIRING_IDS)
def test_column_preorder_and_factor_through_match_their_references(sr):
    # every f of the small hom-sets, d = 0 and x = 0 among them
    rng = random.Random(f"preorder {sr}")
    for d, x in [(0, 0), (0, 3), (2, 0), (1, 1), (1, 3), (2, 2), (3, 2)]:
        for f in enumerate_hom(sr, d, x, cap=65536):
            s = column_preorder(sr, f)
            assert s == column_preorder_reference(sr, f)
            assert factor_through(sr, s, x) == factor_through_reference(sr, s, x)
    for _ in range(20):  # any endomorphism, not only a preorder
        m = random_morphism(sr, rng, 4, 4)
        assert factor_through(sr, m, 4) == factor_through_reference(sr, m, 4)


def test_certify_builds_its_matrices_without_the_entry_checks(monkeypatch):
    # the hom-set's morphisms, each s(f) and its factor pair are shaped
    # by the library, so none runs Morphism.__post_init__; row_table's
    # identity, built once per width, is made before the count starts
    certify(BOOL, 1, 6)
    calls = []
    check = Morphism.__post_init__
    monkeypatch.setattr(Morphism, "__post_init__",
                        lambda m: calls.append(m) or check(m))
    cert = certify(BOOL, 1, 6)
    hom = enumerate_hom(BOOL, 1, 6)
    morphisms = hom.morphisms
    assert calls == []
    monkeypatch.undo()
    built = [*morphisms, *(m for blk in cert.blocks
                           for m in (blk.s, blk.factor.left, blk.factor.right))]
    for m in built:
        assert type(m.entries) is tuple
        assert all(type(row) is tuple and all(type(e) is int for e in row) for row in m.entries)
        assert Morphism(m.src, m.dst, m.entries) == m
    assert [m.entries for m in morphisms] == [
        tuple(tuple(code >> 5 - j & 1 for j in range(6)) for _ in range(1)) for code in hom.codes]


@pytest.mark.parametrize("sr", SEMIRINGS, ids=SEMIRING_IDS)
def test_product_is_agrees_with_compose(sr):
    # random D (x by v) and E (v by x) over the whole carrier, v from 0
    # to x: the product itself passes, and a copy with one entry changed
    # fails, exactly as compose says
    rng = random.Random(f"product {sr}")
    verdicts = set()
    for _ in range(60):
        x = rng.randrange(6)
        v = rng.randint(0, x)
        fact = Factorization(left=random_morphism(sr, rng, x, v), pad=rng.randrange(3),
                             right=random_morphism(sr, rng, v, x))
        product = compose(sr, fact.left, fact.right)
        candidates = [product, random_morphism(sr, rng, x, x)]
        if x:
            i, j = rng.randrange(x), rng.randrange(x)
            rows = [list(row) for row in product.entries]
            rows[i][j] = rng.choice([e for e in range(sr.size) if e != rows[i][j]])
            candidates.append(Morphism(x, x, tuple(map(tuple, rows))))
        for s in candidates:
            verdict = product_is(sr, fact, s)
            assert verdict == (fact.product(sr) == s), (fact, s)
            verdicts.add(verdict)
        assert not product_is(sr, fact, identity(sr, x + 1))
    assert verdicts == {True, False}


@pytest.mark.parametrize("sr, d, x", [(BOOL, 0, 3), (BOOL, 1, 3), (BOOL, 1, 6), (TROP1, 1, 4),
                                      (CHAIN3, 1, 4), (small_semirings(3)[1], 1, 4)],
                         ids=["boolean-0-3", "boolean-1-3", "boolean-1-6", "tropical1-1-4",
                              "chain3-1-4", "small3-1-1-4"])
def test_shared_actions_give_the_x_of_one_action_per_block(sr, d, x):
    # the checks act once per distinct s(f); X, under coefficients that
    # tell the blocks apart, is the X of one right_action call per block
    cert = certify(sr, d, x)
    assert cert.branch == "construct"
    rng = random.Random(f"shared {d}/{x}")
    coefficients = [Fraction(rng.randrange(1, 100)) for _ in cert.blocks]
    hom = enumerate_hom(sr, d, x)
    mats = []
    distinct = certifier._distinct_blocks(cert.blocks)
    checks = list(certifier._action_checks(sr, cert, hom, distinct, mats))
    assert checks == [(name, True) for name in CONSTRUCT_CHECK_NAMES[:4]]
    per_block = [action_matrix(sr, blk.s, hom) for blk in cert.blocks]
    assert [mat.targets for mat in mats] == [mat.targets for mat in per_block]
    assert linear_combination(mats, coefficients) == linear_combination(per_block, coefficients)
    assert len({id(mat) for mat in mats}) == len({blk.s for blk in cert.blocks})


def one_pass_verdicts(sr, cert):
    """The ``layout`` blocks part and ``factor-products`` as the check path takes them."""
    blocks = certifier._distinct_blocks(cert.blocks).values()
    fit = certifier._blocks_fit(sr, blocks, cert.x, cert.y)
    return fit, fit and certifier._products_match(sr, blocks)


def per_block_verdicts(sr, cert):
    """The reference: each block's shapes, ``entries_in_range`` and ``product_is`` alone."""
    x, y = cert.x, cert.y
    fit = all(blk.s.signature == (x, x) and blk.factor.source == x and blk.factor.target == y
              and entries_in_range(sr, blk.s) and entries_in_range(sr, blk.factor.left)
              and entries_in_range(sr, blk.factor.right) for blk in cert.blocks)
    return fit, fit and all(product_is(sr, blk.factor, blk.s) for blk in cert.blocks)


def token_mutants(text):
    """``text`` with each token but ``;`` changed in turn: a number raised by one, a word spelled on."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        for j, token in enumerate(tokens):
            if token not in ("", ";"):
                tokens[j] = str(int(token) + 1) if token.isdigit() else token + "x"
                yield "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1:])
                tokens[j] = token


def test_one_pass_block_checks_match_the_per_block_reference():
    # every single-token mutant of boolean 1/3 that parses, the hostile
    # certificates, and every small construct instance with one s entry
    # changed and without
    certs = []
    mutants = list(token_mutants(render_certificate(certify(BOOL, 1, 3))))
    assert len(mutants) == 361
    for text in mutants:
        try:
            cert = parse_certificate(text)
        except ParseError:
            continue
        if cert.branch == "construct":
            certs.append((BOOL, cert))
    certs += [(BOOL, hostile_certificate(x, seed=x)) for x in range(6, 10)]
    for sr, d, x in small_cases():
        if x > sr.size ** d:
            cert = certify(sr, d, x)
            blk = cert.blocks[0]
            rows = [list(row) for row in blk.s.entries]
            rows[0][-1] = (rows[0][-1] + 1) % sr.size
            s = Morphism(x, x, tuple(map(tuple, rows)))
            certs += [(sr, cert), (sr, dataclasses.replace(
                cert, blocks=(dataclasses.replace(blk, s=s),) + cert.blocks[1:]))]
    verdicts = collections.Counter()
    for sr, cert in certs:
        verdict = one_pass_verdicts(sr, cert)
        assert verdict == per_block_verdicts(sr, cert), cert
        verdicts[verdict] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, False)}, verdicts


def test_equal_blocks_apart_get_the_report_of_shared_ones(monkeypatch):
    # the checks take the blocks by identity: deep-copied blocks, none
    # shared, give the report of the parsed ones, which share, on each
    # benchmark certificate and each of its tampered copies
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for case in workloads.WORKLOADS["construct"]:
        sr = BOOL if case.source.n == 2 else TROP1
        text = render_certificate(certify(sr, case.d, case.x))
        texts = [text] + [workloads.tamper(text, kind, case.source,
                                           random.Random(f"apart:{case.label}:{kind}"))
                          for kind in workloads.TAMPER_KINDS]
        for tampered in texts:
            shared = parse_certificate(tampered)
            apart = dataclasses.replace(shared, blocks=tuple(map(copy.deepcopy, shared.blocks)))
            assert apart == shared
            m = len(apart.blocks)
            assert len(set(map(id, apart.blocks))) == m > len(set(map(id, shared.blocks)))
            assert verify_certificate(sr, apart) == verify_certificate(sr, shared)


def test_pad_identity():
    fact = pad_identity(BOOL, 2, 2)
    assert fact.left == identity(BOOL, 2) and fact.right == identity(BOOL, 2)
    fact = pad_identity(BOOL, 1, 2)
    d_full, e_full = fact.expand(BOOL)
    assert d_full.entries == ((1, 0),)
    assert e_full.entries == ((1,), (0,))
    assert compose(BOOL, d_full, e_full) == identity(BOOL, 1)
    empty = pad_identity(BOOL, 0, 3)
    assert empty.product(BOOL) == identity(BOOL, 0)
    with pytest.raises(ValueError):
        pad_identity(BOOL, 3, 2)


def test_verify_preorder_map_boolean():
    hom = enumerate_hom(BOOL, 1, 2)
    report = verify_preorder_map(BOOL, hom, lambda f: column_preorder(BOOL, f))
    assert report.passed
    assert report.fixed_point_checks == 4
    assert report.inflation_checks == 16


def test_verify_preorder_map_tropical():
    hom = enumerate_hom(TROP1, 1, 2)
    report = verify_preorder_map(TROP1, hom, {f: column_preorder(TROP1, f) for f in hom})
    assert report.passed
    assert report.fixed_point_checks == 9
    assert report.inflation_checks == 81


def test_verify_preorder_map_identity_map_passes():
    hom = enumerate_hom(BOOL, 1, 2)
    report = verify_preorder_map(BOOL, hom, lambda f: identity(BOOL, 2))
    assert report.passed


def test_verify_preorder_map_reports_counterexample():
    hom = enumerate_hom(BOOL, 1, 1)
    zero_map = lambda f: Morphism(1, 1, ((0,),))
    report = verify_preorder_map(BOOL, hom, zero_map)
    assert not report.passed
    assert report.fixed_point_failure is not None


def test_certify_pad_branch_boolean():
    cert = certify(BOOL, 1, 2)
    assert cert.branch == "pad"
    assert cert.y == 2
    assert cert.pad is not None
    assert cert.pad.product(BOOL) == identity(BOOL, 2)
    assert dict(cert.checks)["identity-action-is-identity"]
    assert verify_certificate(BOOL, cert).passed


def test_certify_pad_branch_tropical():
    cert = certify(TROP1, 1, 2)  # n^d = 3 >= 2
    assert cert.branch == "pad"
    assert cert.y == 3
    assert verify_certificate(TROP1, cert).passed


def test_certify_pad_branch_higher_probe():
    cert = certify(BOOL, 2, 1)  # 1 <= 4
    assert cert.branch == "pad"
    assert cert.y == 4
    assert verify_certificate(BOOL, cert).passed


def test_certify_construct_branch():
    cert = certify(BOOL, 1, 3)
    assert cert.branch == "construct"
    assert len(cert.blocks) == 8
    assert all(ok for _, ok in cert.checks)
    assert all(blk.factor.product(BOOL) == blk.s for blk in cert.blocks)
    assert cert.det_x != 0
    assert verify_certificate(BOOL, cert).passed


def test_certify_degenerate_objects():
    for sr, d, x in [(BOOL, 0, 0), (BOOL, 0, 1), (BOOL, 1, 0), (TROP1, 0, 0)]:
        cert = certify(sr, d, x)
        assert cert.branch == "pad"  # n^0 = 1 >= x here, or x = 0
        assert verify_certificate(sr, cert).passed
    # d = 0 with x = 2 exceeds n^0 = 1 and must take the construct route
    cert = certify(BOOL, 0, 2)
    assert cert.branch == "construct"
    assert len(cert.order) == 1
    assert cert.det_x == 1
    assert verify_certificate(BOOL, cert).passed


def test_certify_one_element_semiring():
    unit = Semiring(1, ("e",), 0, 0, ((0,),), ((0,),))
    cert = certify(unit, 1, 3)  # n^d = 1 < 3
    assert cert.branch == "construct"
    assert len(cert.order) == 1
    assert verify_certificate(unit, cert).passed


def test_certify_caps():
    with pytest.raises(CapExceededError):
        certify(BOOL, 2, 4, cap_hom=100)
    with pytest.raises(CapExceededError):
        certify(BOOL, 13, 1, cap_cols=4096)
    with pytest.raises(ValueError):
        certify(BOOL, -1, 2)


def test_verify_certificate_fingerprint_mismatch():
    cert = certify(BOOL, 1, 2)
    with pytest.raises(FingerprintError):
        verify_certificate(TROP1, cert)


def test_verify_decides_a_huge_d_without_forming_n_to_the_d():
    # x = 0 keeps Hom(d, 0) a single empty morphism, so only y-matches sees d
    text = render_certificate(certify(BOOL, 0, 0)).replace("\nd 0\n", f"\nd {10 ** 100}\n")
    report = verify_certificate(BOOL, parse_certificate(text))
    assert report.failures == ("y-matches",)


def zero_coefficient(cert, i):
    coeffs = list(cert.coefficients)
    coeffs[i] = Fraction(0)
    return dataclasses.replace(cert, coefficients=tuple(coeffs))


def flip_left_entry(cert, b, i=0, k=0):
    blk = cert.blocks[b]
    rows = [list(r) for r in blk.factor.left.entries]
    rows[i][k] = 1 - rows[i][k]
    left = Morphism(blk.factor.left.src, blk.factor.left.dst, tuple(tuple(r) for r in rows))
    fact = Factorization(left=left, pad=blk.factor.pad, right=blk.factor.right)
    blocks = list(cert.blocks)
    blocks[b] = CertBlock(s=blk.s, factor=fact, v=blk.v)
    return dataclasses.replace(cert, blocks=tuple(blocks))


def swap_order(cert, i, j):
    order = list(cert.order)
    order[i], order[j] = order[j], order[i]
    return dataclasses.replace(cert, order=tuple(order))


def assert_ends_at_first_failure(report):
    """All checks pass, or the passing checks are followed by exactly one failure."""
    oks = [ok for _, ok in report.checks]
    assert oks and False not in oks[:-1], report.checks


def test_verify_certificate_rejects_mutations():
    cert = certify(BOOL, 1, 3)
    mutants = {
        "coefficient-zeroed": (zero_coefficient(cert, 0), "x-diagonal-matches"),
        "left-entry-flipped": (flip_left_entry(cert, 3), "factor-products"),
        "order-swapped": (swap_order(cert, 1, 2), "order-canonical"),
        "det-altered": (dataclasses.replace(cert, det_x=cert.det_x + 1), "det-routes-agree"),
        "diag-altered": (dataclasses.replace(
            cert, x_diagonal=(Fraction(5),) + cert.x_diagonal[1:]), "x-diagonal-matches"),
        "y-altered": (dataclasses.replace(cert, y=3), "y-matches"),
        "branch-flipped": (dataclasses.replace(cert, branch="pad"), "branch-matches-bound"),
        "check-flag-flipped": (dataclasses.replace(
            cert, checks=(("fixed-points", False),) + cert.checks[1:]), "recorded-checks-match"),
        "check-renamed": (dataclasses.replace(
            cert, checks=(("renamed-factor-products", True),) + cert.checks[1:]),
            "recorded-checks-match"),
        "check-dropped": (dataclasses.replace(cert, checks=cert.checks[1:]),
                          "recorded-checks-match"),
    }
    for name, (mutant, first_failure) in mutants.items():
        report = verify_certificate(BOOL, mutant)
        assert report.failures == (first_failure,), f"mutation {name}: {report.checks}"
        assert_ends_at_first_failure(report)


def count_calls(monkeypatch, fn):
    """Count calls to ``fn`` through every semimat module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "semimat" or name.startswith("semimat."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_product_is_composed_once(monkeypatch):
    composes = count_calls(monkeypatch, compose)
    actions = count_calls(monkeypatch, right_action)
    packed = count_calls(monkeypatch, right_actions)
    rechecks = []
    check = domination.ActionMatrix.__post_init__
    monkeypatch.setattr(domination.ActionMatrix, "__post_init__",
                        lambda mat: rechecks.append(mat) or check(mat))
    cert = certify(BOOL, 1, 6)
    # the m^2 products h.s(f) in one packed kernel call over the distinct
    # s(f), 63 of the 64 blocks, which fit one group; the products D.E
    # are compared as packed row masks, so nothing composes; the
    # kernel's targets are in range, so no action matrix checks them
    assert len(cert.order) == 64
    assert len({blk.s for blk in cert.blocks}) == 63 <= matcat.GROUP
    assert len(packed) == 1
    assert actions == [] and composes == [] and rechecks == []
    assert verify_certificate(BOOL, cert).passed
    assert len(packed) == 2
    assert actions == [] and composes == [] and rechecks == []
    # the pad branch compares D.E with Id as packed row masks too
    pad = certify(BOOL, 2, 2)
    assert pad.branch == "pad" and verify_certificate(BOOL, pad).passed
    assert len(packed) == 2 and actions == [] and composes == []


def refuse_calls(monkeypatch, *fns):
    """Make every semimat module that binds one of ``fns`` raise when it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pad branch swept or enumerated the hom-set")

    for fn in fns:
        for name, mod in list(sys.modules.items()):
            if name == "semimat" or name.startswith("semimat."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, refuse)
    return refuse


def test_pad_branch_never_sweeps_the_hom_set(monkeypatch):
    # boolean 4/4, m = 65536: the identity check reads the 16 row codes;
    # no target per element is formed and no element is decoded
    refuse = refuse_calls(monkeypatch, right_action, right_actions, code_images, action_matrix)
    monkeypatch.setattr(HomEnumeration, "morphisms", property(refuse))
    cert = certify(BOOL, 4, 4, cap_hom=65536)
    report = verify_certificate(BOOL, cert, cap_hom=65536)
    assert cert.branch == "pad" and cert.order == ()
    assert report.passed and report.checks[-1] == ("identity-action-is-identity", True)


@pytest.mark.parametrize("sr, d, x, cap", [(BOOL, 4, 4, 65536), (TROP1, 2, 4, 6561)],
                         ids=["boolean-4-4", "tropical1-2-4"])
def test_pad_branch_never_enumerates_the_hom_set(monkeypatch, sr, d, x, cap):
    # no pad check reads Hom(d, x), so certify and verify only compare
    # its size with the cap, and the file holds no order; the axioms
    # make the identity act as the identity, so no command sweeps the
    # identity's n^x rows either; an empty row-table cache means a row
    # table earlier tests built cannot hide a sweep
    refuse_calls(monkeypatch, enumerate_hom)
    row_table.cache_clear()
    sweeps = count_calls(monkeypatch, row_images)
    cert = certify(sr, d, x, cap_hom=cap)
    text = render_certificate(cert)
    assert cert.branch == "pad" and cert.order == () and len(sweeps) == 0
    assert "\norder " not in text and "\nf " not in text and len(text) < 1024
    report = verify_certificate(sr, parse_certificate(text), cap_hom=cap)
    assert report.passed and len(sweeps) == 0
    assert [name for name, _ in report.checks] == ["y-matches", "branch-matches-bound",
                                                   "recorded-checks-match", "layout",
                                                   *PAD_CHECK_NAMES]
    message = rf"^\|Hom\({d},{x}\)\| = {cap} exceeds cap {cap - 1}$"
    with pytest.raises(CapExceededError, match=message):
        certify(sr, d, x, cap_hom=cap - 1)
    with pytest.raises(CapExceededError, match=message):
        verify_certificate(sr, cert, cap_hom=cap - 1)


def test_a_pad_certificate_that_holds_an_order_fails_layout():
    # the file has no place for an order, so only an object can hold one,
    # the canonical order among them
    cert = certify(BOOL, 2, 2)
    for order in [(0,), enumerate_hom(BOOL, 2, 2).codes]:
        report = verify_certificate(BOOL, dataclasses.replace(cert, order=order))
        assert report.failures == ("layout",)
        assert_ends_at_first_failure(report)

def forged_pad_text(x):
    """A boolean pad certificate for d = 0 with its x raised to ``x`` > y = 1.

    The branch is wrong, but the factor pair [1 ; ... ; 1] . [1 ... 1]
    fits the pad layout, so in about 6x bytes the file asks the pad
    checks for x-by-x matrices.
    """
    text = render_certificate(certify(BOOL, 0, 1))
    assert "\nx 1\n" in text and "\nfactor 1 1 0\nleft 1\nright 1\n" in text
    return (text.replace("\nx 1\n", f"\nx {x}\n")
            .replace("\nfactor 1 1 0\nleft 1\nright 1\n",
                     f"\nfactor {x} 1 0\nleft {' ; '.join('1' * x)}\nright {' '.join('1' * x)}\n"))


def test_verify_stops_at_a_wrong_branch_before_any_x_by_x_matrix(monkeypatch):
    # the pad checks would build the 3000-by-3000 identity and D.E
    cert = parse_certificate(forged_pad_text(3000))
    identities = count_calls(monkeypatch, identity)
    composes = count_calls(monkeypatch, compose)
    start = time.perf_counter()
    report = verify_certificate(BOOL, cert)
    assert time.perf_counter() - start < 0.5
    assert report.failures == ("branch-matches-bound",)
    assert report.checks[-1] == ("branch-matches-bound", False)
    assert identities == [] and composes == []


def test_every_benchmark_tamper_kind_ends_at_its_first_failure(monkeypatch):
    # the tampered copies the benchmark's construct workload verifies
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    first_failure = {"coefficient": "x-diagonal-matches", "det": "det-routes-agree",
                     "s-flip": "factor-products", "f-swap": "order-canonical",
                     "check-rename": "recorded-checks-match"}
    assert set(first_failure) == set(workloads.TAMPER_KINDS)
    for case in workloads.WORKLOADS["construct"]:
        sr = BOOL if case.source.n == 2 else TROP1
        text = render_certificate(certify(sr, case.d, case.x))
        for seed in range(3):
            for kind in workloads.TAMPER_KINDS:
                rng = random.Random(f"{seed}:{case.label}:{kind}")
                report = verify_certificate(
                    sr, parse_certificate(workloads.tamper(text, kind, case.source, rng)))
                assert report.failures == (first_failure[kind],), (case.label, kind)
                assert_ends_at_first_failure(report)
                if kind == "f-swap":  # the benchmark's output: one pass line, one fail
                    assert report.checks == (("y-matches", True), ("order-canonical", False))


def hostile_certificate(x, seed):
    """certify(BOOL, 1, x) with every s(f) a random permutation matrix and random coefficients.

    The factor pairs are kept, so the layout holds, but the action
    matrices are permutations, not upper triangular, and
    X = sum c_i A(s(f_i)) would need a full elimination.
    """
    cert = certify(BOOL, 1, x)
    rng = random.Random(seed)
    blocks = []
    for blk in cert.blocks:
        perm = rng.sample(range(x), x)
        s = Morphism(x, x, tuple(tuple(int(perm[i] == j) for j in range(x)) for i in range(x)))
        blocks.append(dataclasses.replace(blk, s=s))
    coefficients = tuple(Fraction(rng.randrange(1, 1000)) for _ in blocks)
    return dataclasses.replace(cert, blocks=tuple(blocks), coefficients=coefficients)


def test_verify_rejects_a_hostile_certificate_without_forming_x(monkeypatch):
    # the kept factor pairs no longer multiply to s(f): the first check on
    # the blocks fails, and nothing after it runs
    cert = hostile_certificate(8, seed=8)
    witnesses = count_calls(monkeypatch, assemble_witness)
    determinants = count_calls(monkeypatch, linalg.determinant)
    actions = count_calls(monkeypatch, right_actions)
    report = verify_certificate(BOOL, cert)
    assert report.failures == ("factor-products",)
    assert report.checks[-1] == ("factor-products", False)
    assert witnesses == [] and determinants == [] and actions == []
    for x, seed in [(6, 1), (7, 2), (9, 9)]:
        assert_ends_at_first_failure(verify_certificate(BOOL, hostile_certificate(x, seed)))


def test_certify_names_the_failed_gate(monkeypatch):
    # reversed columns keep each s(f) factorable through y, but s(f) no
    # longer fixes f: certify stops at that first failed check, and X is
    # never formed
    def reversed_preorder(sr, f):
        s = column_preorder(sr, f)
        return Morphism(s.src, s.dst, tuple(row[::-1] for row in s.entries))

    monkeypatch.setattr(certifier, "column_preorder", reversed_preorder)
    witnesses = count_calls(monkeypatch, assemble_witness)
    determinants = count_calls(monkeypatch, linalg.determinant)
    with pytest.raises(InternalCheckError, match="check failed: fixed-points "):
        certify(BOOL, 1, 3)
    assert witnesses == [] and determinants == []


def determinant_steps(monkeypatch):
    """Record each ``determinant`` call and every step ``_reduce`` takes inside one."""
    calls, steps, inside = [], [], []
    det, reduce = linalg.determinant, linalg._reduce

    def traced_determinant(rows):
        calls.append(None)
        inside.append(None)
        try:
            return det(rows)
        finally:
            inside.pop()

    def traced_reduce(v, basis, where, taken):
        before = len(taken)
        reduce(v, basis, where, taken)
        if inside:
            steps.extend(taken[before:])

    monkeypatch.setattr(domination, "determinant", traced_determinant)
    monkeypatch.setattr(linalg, "_reduce", traced_reduce)
    return calls, steps


@pytest.mark.parametrize("sr, d, x", [(BOOL, 1, 6), (TROP1, 1, 4)],
                         ids=["boolean-1-6", "tropical1-1-4"])
def test_the_determinant_of_x_takes_no_elimination_step(sr, d, x, monkeypatch):
    calls, steps = determinant_steps(monkeypatch)
    cert = certify(sr, d, x)
    assert cert.branch == "construct"
    assert verify_certificate(sr, cert).passed
    assert len(calls) == 2
    assert steps == []


@pytest.mark.parametrize("sr, d, x, names", [
    (BOOL, 1, 2, PAD_CHECK_NAMES),
    (BOOL, 1, 3, CONSTRUCT_CHECK_NAMES),
    (TROP1, 1, 3, PAD_CHECK_NAMES),
], ids=["boolean-1-2", "boolean-1-3", "tropical1-1-3"])
def test_certificate_records_the_branch_check_list(sr, d, x, names):
    cert = certify(sr, d, x)
    assert [name for name, _ in cert.checks] == list(names)
    assert all(ok for _, ok in cert.checks)
    # verify's report: a construct file's order is checked before its
    # branch, as format 2 did; a pad file has no order to check
    order = ["order-canonical"] if cert.branch == "construct" else []
    report = verify_certificate(sr, cert)
    assert report.passed
    assert [name for name, _ in report.checks] == ["y-matches", *order, "branch-matches-bound",
                                                   "recorded-checks-match", "layout", *names]
    if cert.branch == "construct":
        hom = enumerate_hom(sr, d, x)
        mats = [action_matrix(sr, blk.s, hom) for blk in cert.blocks]
        b_table = [[1 if mat.targets[g] == g else 0 for g in range(len(hom))] for mat in mats]
        assert nonvanishing_coefficients(b_table) == list(cert.coefficients)


def test_certify_boolean_1_10_in_bounded_time():
    # m = 1024 one-row elements of width 10: each s(f) acts through one
    # sweep of 1024 row codes, not 100 table lookups per row
    start = time.perf_counter()
    cert = certify(BOOL, 1, 10)
    assert verify_certificate(BOOL, cert).passed
    assert time.perf_counter() - start < 10


def test_certificate_file_round_trip():
    for cert in (certify(BOOL, 1, 3), certify(BOOL, 1, 2), certify(TROP1, 1, 2)):
        text = render_certificate(cert)
        assert parse_certificate(text) == cert


def test_certificate_rendering_is_deterministic():
    a = render_certificate(certify(BOOL, 1, 3))
    b = render_certificate(certify(BOOL, 1, 3))
    assert a == b


def test_parsed_certificate_verifies():
    cert = certify(BOOL, 1, 3)
    parsed = parse_certificate(render_certificate(cert))
    assert verify_certificate(BOOL, parsed).passed


def test_parse_certificate_errors():
    from semimat import ParseError
    good = render_certificate(certify(BOOL, 1, 2))
    with pytest.raises(ParseError):
        parse_certificate("not a certificate\n")
    with pytest.raises(ParseError):
        parse_certificate(good.replace("branch pad", "branch sideways"))
    with pytest.raises(ParseError):
        parse_certificate(good + "trailing\n")
    truncated = "\n".join(good.splitlines()[:-3]) + "\n"
    with pytest.raises(ParseError):
        parse_certificate(truncated)
    with pytest.raises(ParseError, match="version"):
        parse_certificate(good.replace(f"semimat-certificate {FORMAT_VERSION}\n",
                                       "semimat-certificate 1\n", 1))


def test_parse_certificate_tolerates_comments():
    good = render_certificate(certify(BOOL, 1, 2))
    commented = "# produced by the certify command\n\n" + good
    assert parse_certificate(commented) == certify(BOOL, 1, 2)


def test_parse_certificate_rejects_negative_dimensions():
    from semimat import ParseError
    good = render_certificate(certify(BOOL, 1, 2))
    with pytest.raises(ParseError, match="nonnegative"):
        parse_certificate(good.replace("d 1", "d -1"))


def test_verify_rejects_a_non_inflating_s_that_keeps_x_triangular(monkeypatch):
    # s maps the row (0, 1, 0) to (1, 0, 0): above it in the order but not
    # above it entrywise, so every check but inflation still passes
    cert = certify(BOOL, 1, 3)
    hom = enumerate_hom(BOOL, 1, 3)
    s = Morphism(3, 3, ((1, 1, 1), (1, 0, 0), (1, 1, 1)))
    assert not all(dominates(BOOL, h, compose(BOOL, h, s)) for h in hom)
    fact = factor_through(BOOL, s, cert.y)
    blocks = (CertBlock(s=s, factor=fact, v=fact.width),) + cert.blocks[1:]
    mats = [action_matrix(BOOL, blk.s, hom) for blk in blocks]
    _, witness = assemble_witness(mats, cert.coefficients)
    forged = dataclasses.replace(cert, blocks=blocks, x_diagonal=witness.diagonal,
                                 det_x=witness.det_by_diagonal)
    witnesses = count_calls(monkeypatch, assemble_witness)
    determinants = count_calls(monkeypatch, linalg.determinant)
    report = verify_certificate(BOOL, forged)
    assert report.failures == ("inflation",) and report.checks[-1] == ("inflation", False)
    assert witnesses == [] and determinants == []


def test_a_d0_block_with_a_zero_diagonal_entry_still_verifies():
    # Hom(0, 3) has one element, with no rows, so every s inflates it: a
    # diagonal rule without its d = 0 case would turn this valid file
    # INVALID.  s has one distinct column, so D.E = s with v = 1.
    cert = certify(BOOL, 0, 3)
    s = Morphism(3, 3, ((0, 0, 0), (1, 1, 1), (1, 1, 1)))
    fact = factor_through(BOOL, s, cert.y)
    assert (fact.width, cert.y, len(cert.blocks)) == (1, 1, 1)
    forged = parse_certificate(render_certificate(
        dataclasses.replace(cert, blocks=(CertBlock(s=s, factor=fact, v=1),))))
    assert forged.blocks[0].s == s and forged != cert
    report = verify_certificate(BOOL, forged)
    assert report.passed and dict(report.checks)["inflation"]


def test_verify_reports_invalid_on_out_of_range_entries():
    # hostile certificates must produce a negative report, not a crash
    cert = certify(BOOL, 1, 3)
    blk = cert.blocks[0]
    rows = [list(r) for r in blk.s.entries]
    rows[0][0] = 9
    bad_s = Morphism(blk.s.src, blk.s.dst, tuple(tuple(r) for r in rows))
    blocks = (CertBlock(s=bad_s, factor=blk.factor, v=blk.v),) + cert.blocks[1:]
    mutant = dataclasses.replace(cert, blocks=blocks)
    report = verify_certificate(BOOL, mutant)
    assert report.failures == ("layout",)
    assert_ends_at_first_failure(report)


def _single_token_mutants(text):
    """Every copy of ``text`` with one token changed, and the changed line's keyword.

    ``pass`` becomes ``fail``, an integer gets +1 and any other token gets
    the prefix ``renamed-``; the row separator ``;`` is left alone.
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        for j, tok in enumerate(tokens):
            if not tok or tok == ";":
                continue
            if tok == "pass":
                new = "fail"
            elif tok.lstrip("-").isdigit():
                new = str(int(tok) + 1)
            else:
                new = "renamed-" + tok
            mutated = tokens[:j] + [new] + tokens[j + 1:]
            yield tokens[0], "\n".join(lines[:i] + [" ".join(mutated)] + lines[i + 1:])


def _accepted_mutants(sr, cert, mutants):
    """The mutants that parse and verify as a certificate other than ``cert``.

    A flipped D or E entry can leave D.E = s(f) unchanged, which is still
    a valid certificate, so those are not counted.
    """
    from semimat import ParseError
    accepted = []
    for keyword, text in mutants:
        try:
            mutant = parse_certificate(text)
            report = verify_certificate(sr, mutant)
        except (ParseError, FingerprintError, CapExceededError):
            continue
        assert_ends_at_first_failure(report)
        passed = report.passed
        if passed and mutant != cert and keyword not in ("left", "right"):
            accepted.append(text)
    return accepted


def test_every_single_token_mutation_is_rejected(monkeypatch):
    cert = certify(BOOL, 1, 3)
    mutants = list(_single_token_mutants(render_certificate(cert)))
    assert len(mutants) == 361
    # no mutant makes the determinant of X take an elimination step: X is
    # formed only from upper triangular actions, and a zero on its
    # diagonal is found before any step
    determinants, steps = determinant_steps(monkeypatch)
    assert _accepted_mutants(BOOL, cert, mutants) == []
    assert determinants and steps == []


def inflation_proves_triangularity(sr, cert, report):
    """Whether ``report`` passed ``inflation``; if so, assert what that proves.

    The check path never scans the actions for triangularity: a passed
    ``inflation`` stands for it, and the two triangular entries record
    that.  So every block's action is scanned here, and each triangular
    entry the report reached must be a pass.
    """
    checks = dict(report.checks)
    if not checks.get("inflation"):
        return False
    hom = enumerate_hom(sr, cert.d, cert.x)
    for blk in cert.blocks:
        assert is_upper_triangular(right_action(sr, blk.s, hom))
    for name in ("actions-upper-triangular", "x-upper-triangular"):
        assert checks.get(name, True), name
    return True


@pytest.mark.parametrize("sr, d, x", [(BOOL, 1, 3), (BOOL, 1, 4), (BOOL, 1, 5), (BOOL, 1, 6),
                                      (TROP1, 1, 4), (CHAIN3, 1, 4)],
                         ids=["boolean-1-3", "boolean-1-4", "boolean-1-5", "boolean-1-6",
                              "tropical1-1-4", "chain3-1-4"])
def test_every_construct_action_is_upper_triangular(sr, d, x):
    cert = certify(sr, d, x)
    assert cert.branch == "construct"
    assert dict(cert.checks)["x-upper-triangular"]
    report = verify_certificate(sr, cert)
    assert report.passed
    assert inflation_proves_triangularity(sr, cert, report)


def test_every_inflating_single_token_mutant_is_upper_triangular():
    from semimat import ParseError
    cert = certify(BOOL, 1, 3)
    inflating = 0
    for _, text in _single_token_mutants(render_certificate(cert)):
        try:
            mutant = parse_certificate(text)
            report = verify_certificate(BOOL, mutant)
        except (ParseError, FingerprintError, CapExceededError):
            continue
        inflating += inflation_proves_triangularity(BOOL, mutant, report)
    assert inflating == 26  # c, diag and det lines, and right entries that keep D.E = s(f)


def test_every_single_token_mutation_of_a_pad_certificate_is_rejected():
    # the pad branch's file is its header, its factor pair and its checks
    cert = certify(BOOL, 2, 2)
    mutants = list(_single_token_mutants(render_certificate(cert)))
    assert not any(keyword in ("order", "f") for keyword, _ in mutants)
    assert len(mutants) == 35
    assert _accepted_mutants(BOOL, cert, mutants) == []
