"""Acceptance suite: one test per release criterion, exact tolerances.

Run with pytest (``pytest tests/test_acceptance.py -v``) or standalone
(``python3 tests/test_acceptance.py``) to get one pass/fail line per
criterion.
"""

import ast
import dataclasses
import itertools
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import semimat
from semimat import (CertBlock, Factorization, Morphism, Semiring,
                     action_matrix, boolean_semiring, certify, compose,
                     enumerate_hom, from_entry_vector, hom_size, identity,
                     identity_in_span, linear_combination,
                     nonvanishing_coefficients, render_certificate,
                     span_oracle, tropical_semiring, verify_axioms,
                     verify_certificate, verify_order_laws,
                     verify_preorder_map, zero_morphism)
from semimat.cli import main as cli_main
from semimat.linalg import identity_fractions

BOOL = boolean_semiring()


def _mutate_boolean(which, i, j, val):
    sr = boolean_semiring()
    add = [list(r) for r in sr.add_table]
    mul = [list(r) for r in sr.mul_table]
    zero, one = sr.zero, sr.one
    if which == "add":
        add[i][j] = val
    elif which == "mul":
        mul[i][j] = val
    elif which == "zero":
        zero = val
    else:
        one = val
    return Semiring(2, sr.labels, zero, one,
                    tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul))


def test_criterion_01_axiom_suite():
    start = time.monotonic()
    for sr in [BOOL] + [tropical_semiring(n) for n in (0, 1, 2, 3)]:
        assert verify_axioms(sr) == []
        assert verify_order_laws(sr).passed
    mutations = [
        ("add", 0, 0, 1, "add-idempotent"),
        ("add", 0, 1, 0, "add-identity"),
        ("add", 1, 0, 0, "add-commutative"),
        ("add", 1, 1, 0, "add-idempotent"),
        ("mul", 0, 0, 1, "zero-annihilates"),
        ("mul", 0, 1, 1, "zero-annihilates"),
        ("mul", 1, 0, 1, "zero-annihilates"),
        ("mul", 1, 1, 0, "mul-identity"),
        ("zero", None, None, 1, "add-identity"),
        ("one", None, None, 0, "mul-identity"),
    ]
    assert len(mutations) == 10
    for which, i, j, val, axiom in mutations:
        violations = verify_axioms(_mutate_boolean(which, i, j, val))
        assert violations, f"mutation {which}[{i}][{j}]={val} accepted"
        assert axiom in {v.axiom for v in violations}, \
            f"mutation {which}[{i}][{j}]={val}: expected {axiom}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print("acceptance 01 axiom-suite: PASS")


def test_criterion_02_composition_laws():
    start = time.monotonic()
    homs = {}
    for x in range(3):
        for y in range(3):
            homs[(x, y)] = [from_entry_vector(x, y, vec)
                            for vec in itertools.product((0, 1), repeat=x * y)]
    for x, y, z, w in itertools.product(range(3), repeat=4):
        for a in homs[(x, y)]:
            for b in homs[(y, z)]:
                ab = compose(BOOL, a, b)
                for c in homs[(z, w)]:
                    assert compose(BOOL, ab, c) == compose(BOOL, a, compose(BOOL, b, c))
    for (x, y), morphs in homs.items():
        for a in morphs:
            assert compose(BOOL, identity(BOOL, x), a) == a
            assert compose(BOOL, a, identity(BOOL, y)) == a
            for z in range(3):
                assert compose(BOOL, a, zero_morphism(BOOL, y, z)) == zero_morphism(BOOL, x, z)
                assert compose(BOOL, zero_morphism(BOOL, z, x), a) == zero_morphism(BOOL, z, y)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    print("acceptance 02 composition-laws: PASS")


def test_criterion_03_action_matrix_laws():
    hom = enumerate_hom(BOOL, 1, 2)
    m = len(hom)
    endos = [from_entry_vector(2, 2, vec) for vec in itertools.product((0, 1), repeat=4)]
    assert len(endos) == 16
    dense = {}
    for s in endos:
        ds = action_matrix(BOOL, s, hom).dense()
        dense[s] = ds
        for row in ds:
            assert sum(row) == 1 and all(v in (0, 1) for v in row)
    for s in endos:
        for t in endos:
            product = [[sum(dense[s][i][k] * dense[t][k][j] for k in range(m))
                        for j in range(m)] for i in range(m)]
            assert action_matrix(BOOL, compose(BOOL, s, t), hom).dense() == product
    print("acceptance 03 action-matrix-laws: PASS")


def test_criterion_04_construct_certificate():
    start = time.monotonic()
    cert = certify(BOOL, 1, 3)
    assert cert.branch == "construct"
    assert len(cert.blocks) == 8
    for blk in cert.blocks:
        assert blk.factor.product(BOOL) == blk.s
    hom = enumerate_hom(BOOL, 1, 3)
    smap = {f: blk.s for f, blk in zip(hom.morphisms, cert.blocks)}
    prop = verify_preorder_map(BOOL, hom, smap)
    assert prop.passed
    assert prop.fixed_point_checks == 8
    assert prop.inflation_checks == 64
    mats = [action_matrix(BOOL, blk.s, hom) for blk in cert.blocks]
    x_matrix = linear_combination(mats, cert.coefficients)
    assert len(x_matrix) == 8
    assert all(x_matrix[i][j] == 0 for i in range(8) for j in range(i))
    assert all(x_matrix[i][i] != 0 for i in range(8))
    diag_product = Fraction(1)
    for i in range(8):
        diag_product *= x_matrix[i][i]
    from semimat.linalg import determinant
    assert diag_product == determinant(x_matrix) == cert.det_x
    assert cert.det_x != 0
    assert verify_certificate(BOOL, cert).passed
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"
    print("acceptance 04 construct-certificate: PASS")


def test_criterion_05_pad_certificates():
    for sr, label in ((BOOL, "boolean"), (tropical_semiring(1), "tropical(1)")):
        cert = certify(sr, 1, 2)
        assert cert.branch == "pad", label
        assert cert.pad is not None
        assert cert.pad.product(sr) == identity(sr, 2)
        d_full, e_full = cert.pad.expand(sr)
        assert compose(sr, d_full, e_full) == identity(sr, 2)
        hom = enumerate_hom(sr, 1, 2)
        assert action_matrix(sr, identity(sr, 2), hom).dense() == identity_fractions(len(hom))
        assert verify_certificate(sr, cert).passed
    print("acceptance 05 pad-certificates: PASS")


def test_criterion_06_tropical_cases():
    start = time.monotonic()
    assert certify(tropical_semiring(0), 1, 2).branch == "pad"  # n^d = 2 >= 2
    trop = tropical_semiring(1)
    cert = certify(trop, 1, 4)
    assert cert.branch == "construct"
    assert len(cert.order) == 81
    hom = enumerate_hom(trop, 1, 4)
    smap = {f: blk.s for f, blk in zip(hom.morphisms, cert.blocks)}
    prop = verify_preorder_map(trop, hom, smap)
    assert prop.passed
    assert prop.fixed_point_checks == 81
    assert prop.inflation_checks == 6561
    assert len(cert.x_diagonal) == 81
    assert all(v != 0 for v in cert.x_diagonal)
    assert cert.det_x != 0
    assert dict(cert.checks)["det-routes-agree"]
    assert verify_certificate(trop, cert).passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"
    print("acceptance 06 tropical-cases: PASS")


def test_criterion_07_oracle_agreement():
    assert hom_size(BOOL, 2, 2) * hom_size(BOOL, 2, 2) == 256
    positive = span_oracle(BOOL, 1, 2, 2)
    assert positive.holds
    assert positive.coefficients is not None
    resubstituted = linear_combination(positive.matrices, positive.coefficients)
    assert resubstituted == identity_fractions(len(positive.hom))
    negative = span_oracle(BOOL, 1, 2, 0)
    assert not negative.holds
    assert identity_in_span(negative.matrices) is None
    print("acceptance 07 oracle-agreement: PASS")


def test_criterion_08_coefficient_property():
    rng = random.Random(18251825)
    for trial in range(100):
        m = rng.randrange(1, 13)
        table = [[0] * m for _ in range(m)]
        for i in range(m):
            table[i][i] = 1
            for j in range(i + 1, m):
                table[i][j] = rng.randrange(2)
        coeffs = nonvanishing_coefficients(table)
        for g in range(m):
            total = sum((coeffs[i] for i in range(m) if table[i][g]), Fraction(0))
            assert total != 0, f"trial {trial}: column {g} sums to zero"
    print("acceptance 08 coefficient-property: PASS")


def _mutants_for_criterion_09(cert):
    mutants = []
    for i in range(8):  # zero one coefficient
        coeffs = list(cert.coefficients)
        coeffs[i] = Fraction(0)
        mutants.append((f"coefficient-{i}-zeroed",
                        dataclasses.replace(cert, coefficients=tuple(coeffs))))
    for b in range(8):  # flip one entry of the stored left factor block
        blk = cert.blocks[b]
        rows = [list(r) for r in blk.factor.left.entries]
        rows[0][0] = 1 - rows[0][0]
        left = Morphism(blk.factor.left.src, blk.factor.left.dst,
                        tuple(tuple(r) for r in rows))
        fact = Factorization(left=left, pad=blk.factor.pad, right=blk.factor.right)
        blocks = list(cert.blocks)
        blocks[b] = CertBlock(s=blk.s, factor=fact, v=blk.v)
        mutants.append((f"block-{b}-left-flipped",
                        dataclasses.replace(cert, blocks=tuple(blocks))))
    for i in (0, 2, 4, 6):  # swap adjacent order entries
        order = list(cert.order)
        order[i], order[i + 1] = order[i + 1], order[i]
        mutants.append((f"order-{i}-{i + 1}-swapped",
                        dataclasses.replace(cert, order=tuple(order))))
    return mutants


def test_criterion_09_mutation_soundness():
    cert = certify(BOOL, 1, 3)
    mutants = _mutants_for_criterion_09(cert)
    assert len(mutants) == 20
    for name, mutant in mutants:
        report = verify_certificate(BOOL, mutant)
        assert not report.passed, f"mutation {name} was accepted"
    print("acceptance 09 mutation-soundness: PASS")


def test_criterion_10_determinism():
    assert render_certificate(certify(BOOL, 1, 3)) == render_certificate(certify(BOOL, 1, 3))
    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.txt"
        b = Path(tmp) / "b.txt"
        for path in (a, b):
            code = cli_main(["certify", "--builtin", "boolean", "-d", "1", "-x", "3",
                             "--out", str(path), "--quiet"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
    print("acceptance 10 determinism: PASS")


def test_criterion_11_stdlib_only_and_float_free():
    # every absolute import is stdlib, no float enters, and math serves gcd and lcm only
    sources = sorted(Path(semimat.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        math_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.partition(".")[0] in sys.stdlib_module_names, alias.name
                    if alias.name == "math":
                        math_names.add(alias.asname or "math")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                assert node.module.partition(".")[0] in sys.stdlib_module_names, node.module
                if node.module == "math":
                    assert {alias.name for alias in node.names} <= {"gcd", "lcm"}, path.name
            elif isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (path.name, node.lineno)
            elif isinstance(node, ast.Name):
                assert node.id != "float", (path.name, node.lineno)
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in math_names]
        allowed = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in math_names and node.attr in ("gcd", "lcm")]
        assert len(uses) == len(allowed), path.name
    print("acceptance 11 stdlib-only, float-free: PASS")


CRITERIA = [
    test_criterion_01_axiom_suite,
    test_criterion_02_composition_laws,
    test_criterion_03_action_matrix_laws,
    test_criterion_04_construct_certificate,
    test_criterion_05_pad_certificates,
    test_criterion_06_tropical_cases,
    test_criterion_07_oracle_agreement,
    test_criterion_08_coefficient_property,
    test_criterion_09_mutation_soundness,
    test_criterion_10_determinism,
    test_criterion_11_stdlib_only_and_float_free,
]


if __name__ == "__main__":
    import sys
    failures = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"{criterion.__name__}: FAIL  {exc}")
    sys.exit(1 if failures else 0)
