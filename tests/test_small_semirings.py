"""Every idempotent semiring of size 3 and 4, up to relabelling, through the whole tool.

The tables have zero 0 and one 1, so add-identity, add-idempotent,
mul-identity and zero-annihilates fix every cell but a + b for distinct
non-zero a, b (with b + a the same, by commutativity) and a * b for a and
b from 2 up.  ``valid_tables`` runs ``verify_axioms`` on every filling of
those free cells, and ``small_semirings`` keeps one table per class under
the relabellings of 2..n-1, the least one in their order.
"""

import itertools
from functools import cache

from semimat import (Semiring, certify, format_semiring, parse_certificate,
                     render_certificate, span_oracle, verify_axioms, verify_certificate)
from semimat.cli import main


def valid_tables(n: int) -> list[Semiring]:
    """Every table pair on 0..n-1 with zero 0 and one 1 that passes ``verify_axioms``."""
    sums = list(itertools.combinations(range(1, n), 2))
    products = list(itertools.product(range(2, n), repeat=2))
    found = []
    for sum_values in itertools.product(range(n), repeat=len(sums)):
        add = [[max(a, b) for b in range(n)] for a in range(n)]  # fixed where a = b or 0 in (a, b)
        for (a, b), v in zip(sums, sum_values):
            add[a][b] = add[b][a] = v
        for product_values in itertools.product(range(n), repeat=len(products)):
            mul = [[a * b for b in range(n)] for a in range(n)]  # fixed where a or b is 0 or 1
            for (a, b), v in zip(products, product_values):
                mul[a][b] = v
            sr = Semiring(n, tuple(map(str, range(n))), 0, 1, add, mul)
            if not verify_axioms(sr):
                found.append(sr)
    return found


def relabelled(sr: Semiring, to: tuple[int, ...]) -> Semiring:
    """The same semiring with element a renamed to[a]."""
    back = sorted(range(sr.size), key=to.__getitem__)
    tables = [tuple(tuple(to[t[back[a]][back[b]]] for b in range(sr.size))
                    for a in range(sr.size)) for t in (sr.add_table, sr.mul_table)]
    return Semiring(sr.size, sr.labels, to[sr.zero], to[sr.one], *tables)


@cache
def small_semirings(n: int) -> tuple[Semiring, ...]:
    """One semiring per class of ``valid_tables(n)`` under relabelling 2..n-1."""
    classes = {}
    for sr in valid_tables(n):
        least = min((relabelled(sr, (0, 1) + p) for p in itertools.permutations(range(2, n))),
                    key=lambda r: (r.add_table, r.mul_table))
        classes.setdefault((least.add_table, least.mul_table), least)
    return tuple(classes.values())


def small_cases():
    """(semiring, d, x) for every small semiring and every d, x <= 8 with n^(dx), n^d <= 256."""
    for sr in small_semirings(3) + small_semirings(4):
        n = sr.size
        for d, x in itertools.product(range(9), repeat=2):
            if n ** (d * x) <= 256 and n ** d <= 256:
                yield sr, d, x


def test_sizes_3_and_4_hold_3_and_20_semirings():
    assert [len(valid_tables(n)) for n in (3, 4)] == [3, 39]
    assert [len(small_semirings(n)) for n in (3, 4)] == [3, 20]
    for sr in small_semirings(3) + small_semirings(4):
        assert verify_axioms(sr) == []
        # no two are relabellings of each other
        others = {relabelled(sr, (0, 1) + p) for p in itertools.permutations(range(2, sr.size))}
        assert others & set(small_semirings(sr.size)) == {sr}


def test_check_semiring_accepts_each(tmp_path, capsys):
    path = tmp_path / "small.semiring"
    for sr in small_semirings(3) + small_semirings(4):
        path.write_text(format_semiring(sr))
        assert main(["check-semiring", "--semiring", str(path), "--quiet"]) == 0, sr
        assert capsys.readouterr().out == "pass\n"


def test_certify_render_parse_verify_on_each():
    branches = set()
    for sr, d, x in small_cases():
        cert = certify(sr, d, x)
        report = verify_certificate(sr, parse_certificate(render_certificate(cert)))
        assert report.passed, (sr, d, x, report.failures)
        branches.add(cert.branch)
    assert branches == {"pad", "construct"}


def test_the_oracle_agrees_at_y_equal_n_to_the_d():
    # at d = 0 and x = 2-3 the oracle decides a construct instance itself
    constructs = 0
    for sr, d, x in small_cases():
        y = sr.size ** d
        if sr.size ** (2 * x * y) <= 4096:
            assert span_oracle(sr, d, x, y).holds, (sr, d, x)
            constructs += x > y
    assert constructs == 2 * 23
