import dataclasses
import itertools
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from semimat import (ParseError, Semiring, StructureError, boolean_semiring,
                     builtin_semiring, format_semiring, natural_order,
                     parse_semiring, table_hash, tropical_semiring,
                     verify_axioms, verify_order_laws)
from semimat.semiring import AXIOM_NAMES, OrderLawReport
from test_matcat import CHAIN3
from test_small_semirings import small_semirings

BUILTINS = [boolean_semiring()] + [tropical_semiring(n) for n in range(4)]


def elements(sr: Semiring) -> range:
    return range(sr.size)


def add(sr: Semiring, a: int, b: int) -> int:
    assert a in elements(sr) and b in elements(sr)
    return sr.add_table[a][b]


def mul(sr: Semiring, a: int, b: int) -> int:
    assert a in elements(sr) and b in elements(sr)
    return sr.mul_table[a][b]


def natural_leq(sr: Semiring, a: int, b: int) -> bool:
    """True when a is below b in the natural order, i.e. a + b = b."""
    return add(sr, a, b) == b


def mutate(sr: Semiring, which: str, i, j, val) -> Semiring:
    add = [list(r) for r in sr.add_table]
    mul = [list(r) for r in sr.mul_table]
    zero, one = sr.zero, sr.one
    if which == "add":
        add[i][j] = val
    elif which == "mul":
        mul[i][j] = val
    elif which == "zero":
        zero = val
    elif which == "one":
        one = val
    return Semiring(sr.size, sr.labels, zero, one,
                    tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul))


@pytest.mark.parametrize("sr", BUILTINS, ids=lambda s: f"n{s.size}")
def test_builtins_pass_axioms(sr):
    assert verify_axioms(sr) == []
    assert verify_order_laws(sr).passed


def test_boolean_lookups():
    b = boolean_semiring()
    assert add(b, 1, 1) == 1
    assert mul(b, 1, 0) == 0
    assert natural_leq(b, 0, 1)
    assert not natural_leq(b, 1, 0)


def test_label_rejects_an_index_outside_the_carrier():
    b = boolean_semiring()
    assert [b.label(a) for a in elements(b)] == ["0", "1"]
    for a in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            b.label(a)


def test_tropical_tables_match_min_plus_formulas():
    # independent recomputation from the defining formulas, inf as None
    t = tropical_semiring(2)
    assert t.size == 4
    assert t.zero == 3 and t.labels[t.zero] == "inf"
    assert t.one == 0
    inf = 3

    def val(i):
        return None if i == inf else i

    def idx(v):
        return inf if v is None else v

    for a in elements(t):
        for b in elements(t):
            va, vb = val(a), val(b)
            expect_add = vb if va is None else va if vb is None else min(va, vb)
            expect_mul = None if va is None or vb is None else min(va + vb, 2)
            assert add(t, a, b) == idx(expect_add)
            assert mul(t, a, b) == idx(expect_mul)
    # x + inf = x and x * 0 = x, the two identity laws
    for a in elements(t):
        assert add(t, a, t.zero) == a
        assert mul(t, a, t.one) == a


def test_tropical_mul_is_capped():
    t = tropical_semiring(2)
    assert mul(t, 1, 2) == 2  # 1 + 2 capped at 2


def test_tropical_inf_is_minimal():
    t = tropical_semiring(2)
    for a in elements(t):
        assert natural_leq(t, t.zero, a)


def test_tropical_0_isomorphic_to_boolean():
    # brute-force table comparison under 0<->1, inf<->0
    t = tropical_semiring(0)
    b = boolean_semiring()
    assert t.size == 2
    phi = {0: 1, 1: 0}  # tropical index -> boolean index
    assert phi[t.zero] == b.zero
    assert phi[t.one] == b.one
    for x in range(2):
        for y in range(2):
            assert phi[add(t, x, y)] == add(b, phi[x], phi[y])
            assert phi[mul(t, x, y)] == mul(b, phi[x], phi[y])


BOOLEAN_MUTATIONS = [
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


@pytest.mark.parametrize("which,i,j,val,axiom", BOOLEAN_MUTATIONS)
def test_boolean_single_entry_mutations_are_rejected(which, i, j, val, axiom):
    bad = mutate(boolean_semiring(), which, i, j, val)
    violations = verify_axioms(bad)
    assert violations, f"mutation {which}[{i}][{j}]={val} not caught"
    assert axiom in {v.axiom for v in violations}


def test_idempotence_violation_message():
    bad = mutate(boolean_semiring(), "add", 1, 1, 0)
    messages = [v.message for v in verify_axioms(bad)]
    assert "addition not idempotent at a=1" in messages


def test_every_add_table_mutation_is_caught():
    # any diagonal change breaks idempotence, any off-diagonal change
    # breaks commutativity, so these are always rejected
    for sr in BUILTINS:
        for i in range(sr.size):
            for j in range(sr.size):
                for val in range(sr.size):
                    if val == sr.add_table[i][j]:
                        continue
                    assert verify_axioms(mutate(sr, "add", i, j, val)), \
                        f"n={sr.size} add[{i}][{j}]={val} accepted"


def test_every_boolean_mul_mutation_is_caught():
    b = boolean_semiring()
    for i in range(2):
        for j in range(2):
            assert verify_axioms(mutate(b, "mul", i, j, 1 - b.mul_table[i][j]))


def test_some_tropical_mul_mutations_are_genuinely_valid():
    # rewiring 1*1 from 1 to inf in tropical(1) yields the overflow
    # variant of the truncation, a different but perfectly valid
    # semiring, so the verifier accepts it; mutation detection cannot be
    # promised for arbitrary mul-table edits
    overflow = mutate(tropical_semiring(1), "mul", 1, 1, 2)
    assert verify_axioms(overflow) == []
    assert verify_order_laws(overflow).passed


def first_failures(sr: Semiring) -> dict:
    """Each broken axiom's lexicographically least failing tuple, by brute force."""
    n, z, o = sr.size, sr.zero, sr.one
    plus, times = partial(add, sr), partial(mul, sr)
    laws = {
        "add-identity": (1, lambda a: plus(z, a) == a and plus(a, z) == a),
        "add-idempotent": (1, lambda a: plus(a, a) == a),
        "add-commutative": (2, lambda a, b: plus(a, b) == plus(b, a)),
        "add-associative": (3, lambda a, b, c: plus(plus(a, b), c) == plus(a, plus(b, c))),
        "mul-identity": (1, lambda a: times(o, a) == a and times(a, o) == a),
        "mul-associative": (3, lambda a, b, c: times(times(a, b), c) == times(a, times(b, c))),
        "distributive-left": (3, lambda a, b, c:
                               times(a, plus(b, c)) == plus(times(a, b), times(a, c))),
        "distributive-right": (3, lambda a, b, c:
                               times(plus(a, b), c) == plus(times(a, c), times(b, c))),
        "zero-annihilates": (1, lambda a: times(z, a) == z and times(a, z) == z),
    }
    found = {}
    for name, (arity, law) in laws.items():
        failing = [w for w in itertools.product(range(n), repeat=arity) if not law(*w)]
        if failing:
            found[name] = min(failing)
    return found


def test_violations_report_each_broken_law_at_its_first_tuple():
    rng = random.Random(3)
    broken = 0
    for _ in range(400):
        sr = rng.choice(BUILTINS)
        for _ in range(rng.randint(1, 3)):
            sr = mutate(sr, rng.choice(("add", "mul")), rng.randrange(sr.size),
                        rng.randrange(sr.size), rng.randrange(sr.size))
        violations = verify_axioms(sr)
        expected = first_failures(sr)
        assert [v.axiom for v in violations] == [a for a in AXIOM_NAMES if a in expected]
        assert {v.axiom: v.witness for v in violations} == expected
        broken += bool(violations)
    assert broken > 300


def test_order_antisymmetry_and_heights():
    for sr in BUILTINS:
        order = natural_order(sr)
        for a in elements(sr):
            for b in elements(sr):
                if a != b:
                    assert not (order.leq[a][b] and order.leq[b][a])
                if order.leq[a][b] and a != b:
                    assert order.height[a] < order.height[b]
        assert order.height[sr.zero] == 0


def test_tropical_heights_form_a_chain():
    t = tropical_semiring(2)
    # inf below 2 below 1 below 0 in the natural order
    assert natural_order(t).height == (3, 2, 1, 0)


def test_order_laws_triple_count():
    report = verify_order_laws(tropical_semiring(3))
    assert report.passed
    assert report.triples_checked == 125


def test_one_element_semiring_is_accepted():
    # zero = one is not excluded by any axiom
    sr = Semiring(1, ("e",), 0, 0, ((0,),), ((0,),))
    assert verify_axioms(sr) == []
    assert verify_order_laws(sr).passed


def test_structure_errors_precede_axiom_checks():
    with pytest.raises(StructureError):
        verify_axioms(Semiring(2, ("0", "1"), 0, 1, ((0, 1), (1,)), ((0, 0), (0, 1))))
    with pytest.raises(StructureError):
        verify_axioms(Semiring(2, ("0", "1"), 0, 1, ((0, 5), (1, 1)), ((0, 0), (0, 1))))
    with pytest.raises(StructureError):
        verify_axioms(Semiring(2, ("0", "1"), 3, 1, ((0, 1), (1, 1)), ((0, 0), (0, 1))))


def test_verification_size_limit():
    n = 65
    table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    big = Semiring(n, tuple(str(i) for i in range(n)), 0, 0, table, table)
    with pytest.raises(StructureError):
        verify_axioms(big)


def test_natural_order_rejects_cycles():
    # 0+1 = 1 and 1+0 = 0 puts 0 and 1 below each other
    bad = Semiring(2, ("0", "1"), 0, 1, ((0, 1), (0, 1)), ((0, 0), (0, 1)))
    with pytest.raises(StructureError):
        natural_order(bad)


def test_builtin_dispatch():
    assert builtin_semiring("boolean") == boolean_semiring()
    assert builtin_semiring("tropical", 2) == tropical_semiring(2)
    with pytest.raises(ValueError):
        builtin_semiring("tropical")
    with pytest.raises(ValueError):
        builtin_semiring("galois")
    with pytest.raises(ValueError):
        tropical_semiring(-1)


# Two CLI runs in a fresh process, with Semiring.__eq__ counted
EQ_COUNT_CODE = """\
import contextlib, io
from semimat import cli
from semimat.semiring import Semiring
calls, eq = [], Semiring.__eq__
Semiring.__eq__ = lambda a, b: calls.append(1) or eq(a, b)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for _ in range(2):
        cli.main(["certify", "--builtin", "tropical", "--tropical-n", "1", "-d", "1", "-x", "4"])
        cli.main(["oracle", "--builtin", "boolean", "-d", "1", "-x", "2", "-y", "2"])
print(len(calls))
"""


def test_semirings_are_equal_by_value_and_builtins_are_one_instance():
    a, b = boolean_semiring(), boolean_semiring()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    # labels are display-only: the hash reads the ints alone
    relabelled = dataclasses.replace(a, labels=("no", "yes"))
    assert relabelled != a and hash(relabelled) == hash(a)
    assert builtin_semiring("tropical", 1) is builtin_semiring("tropical", 1)
    # so every per-semiring cache of a CLI process hits by identity, and
    # no lookup compares two semirings table by table
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", EQ_COUNT_CODE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.stdout, run.stderr) == ("0\n", "")


def test_format_parse_round_trip():
    for sr in BUILTINS:
        assert parse_semiring(format_semiring(sr)) == sr


def test_parse_matches_builtin():
    text = """
    # the two-element semiring with OR and AND
    semiring 2
    labels 0 1
    zero 0
    one 1
    add
    0 1
    1 1
    mul
    0 0
    0 1
    """
    assert parse_semiring(text) == boolean_semiring()


def test_parse_reports_bad_row():
    text = "semiring 2\nlabels 0 1\nzero 0\none 1\nadd\n0 1\n1\nmul\n0 0\n0 1\n"
    with pytest.raises(ParseError, match="row 1"):
        parse_semiring(text)


def test_parse_reports_out_of_range_zero():
    text = "semiring 2\nlabels 0 1\nzero 2\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n"
    with pytest.raises(ParseError, match="out of range"):
        parse_semiring(text)


def test_parse_reports_out_of_range_entry():
    text = "semiring 2\nlabels 0 1\nzero 0\none 1\nadd\n0 7\n1 1\nmul\n0 0\n0 1\n"
    with pytest.raises(ParseError, match="out of range"):
        parse_semiring(text)


def test_parse_rejects_trailing_content():
    text = format_semiring(boolean_semiring()) + "extra stuff\n"
    with pytest.raises(ParseError, match="trailing"):
        parse_semiring(text)


def test_table_hash_ignores_labels_only():
    b = boolean_semiring()
    relabeled = Semiring(2, ("bot", "top"), 0, 1, b.add_table, b.mul_table)
    assert table_hash(relabeled) == table_hash(b)
    assert table_hash(mutate(b, "add", 0, 0, 1)) != table_hash(b)
    assert table_hash(mutate(b, "zero", None, None, 1)) != table_hash(b)


def verify_order_laws_reference(sr: Semiring) -> OrderLawReport:
    """The generator expressions ``verify_order_laws`` replaced with its law table."""
    n = sr.size
    add = sr.add_table
    leq = [[add[a][b] == b for b in range(n)] for a in range(n)]
    checks: list[tuple[str, bool]] = []
    counter: list[tuple[str, tuple[int, ...]]] = []

    def record(name: str, witness) -> None:
        checks.append((name, witness is None))
        if witness is not None:
            counter.append((name, witness))

    record("reflexive", next(((a,) for a in range(n) if not leq[a][a]), None))
    record("antisymmetric", next(((a, b) for a in range(n) for b in range(n)
                                  if a != b and leq[a][b] and leq[b][a]), None))
    record("transitive", next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                               if leq[a][b] and leq[b][c] and not leq[a][c]), None))
    record("zero-minimal", next(((a,) for a in range(n) if not leq[sr.zero][a]), None))
    record("join-upper-bound", next(((a, b) for a in range(n) for b in range(n)
                                     if not leq[a][add[a][b]]), None))
    record("join-least-upper-bound",
           next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                 if leq[a][c] and leq[b][c] and not leq[add[a][b]][c]), None))
    return OrderLawReport(checks=tuple(checks), counterexamples=tuple(counter),
                          triples_checked=n ** 3)


def dfs_heights(sr: Semiring) -> tuple[int, ...]:
    """The recursive three-state DFS ``natural_order`` replaced with one pass by down-set size."""
    n = sr.size
    add = sr.add_table
    leq = tuple(tuple(add[a][b] == b for b in range(n)) for a in range(n))
    height = [0] * n
    state = [0] * n  # 0 new, 1 on stack, 2 done

    def visit(a: int) -> int:
        if state[a] == 1:
            raise StructureError("natural order contains a cycle; the semiring is invalid")
        if state[a] == 2:
            return height[a]
        state[a] = 1
        best = 0
        for b in range(n):
            if b != a and leq[b][a] and not leq[a][b]:
                best = max(best, 1 + visit(b))
        for b in range(n):
            if b != a and leq[b][a] and leq[a][b]:
                raise StructureError("natural order is not antisymmetric; the semiring is invalid")
        height[a] = best
        state[a] = 2
        return best

    for a in range(n):
        visit(a)
    return tuple(height)


def longest_chain_heights(sr: Semiring) -> tuple[int, ...]:
    """Each element's longest chain b_0 < ... < b_k = a, by trying every sequence of elements."""
    n = sr.size

    def less(b, a):
        return b != a and natural_leq(sr, b, a)

    return tuple(max(k for k in range(n) for chain in itertools.permutations(range(n), k + 1)
                     if chain[-1] == a and all(map(less, chain, chain[1:])))
                 for a in elements(sr))


def drawn_tables():
    """The 400 mutated builtins of the ``first_failures`` test, drawn the same way."""
    rng = random.Random(3)
    for _ in range(400):
        sr = rng.choice(BUILTINS)
        for _ in range(rng.randint(1, 3)):
            sr = mutate(sr, rng.choice(("add", "mul")), rng.randrange(sr.size),
                        rng.randrange(sr.size), rng.randrange(sr.size))
        yield sr


def test_order_laws_and_heights_match_the_references():
    # the law table against the generators everywhere; the one pass
    # against the DFS and against the longest chains on every valid
    # table, and, on any table, it raises wherever the DFS raised and
    # otherwise gives the DFS's heights
    tables = [*BUILTINS, CHAIN3, *small_semirings(3), *small_semirings(4), *drawn_tables()]
    valid = raised = 0
    for sr in tables:
        assert verify_order_laws(sr) == verify_order_laws_reference(sr)
        try:
            height = natural_order(sr).height
        except StructureError:
            height = None
        try:
            reference = dfs_heights(sr)
        except StructureError:
            assert height is None
            raised += 1
            continue
        if verify_axioms(sr) == []:
            assert height == reference == longest_chain_heights(sr)
            valid += 1
        elif height is not None:
            assert height == reference
    assert (len(tables), valid, raised) == (429, 122, 42)
