import itertools
import random
import time

import pytest

from semimat import (CapExceededError, Morphism, Semiring, action_matrix,
                     boolean_semiring, certify, compose, dominates, enumerate_hom,
                     format_morphism, format_semiring, from_entry_vector, hom_size,
                     identity, natural_order, parse_semiring, render_certificate,
                     tropical_semiring, verify_axioms, verify_certificate,
                     zero_morphism)
from semimat import cli, matcat
from semimat.certifier import column_preorder, inflates
from semimat.matcat import element_masks, right_action, right_actions, row_images, row_table
from test_small_semirings import small_semirings

BOOL = boolean_semiring()
TROP1 = tropical_semiring(1)

# the 3-chain 0 < 1 < 2 under (max, min)
CHAIN3 = parse_semiring("""\
semiring 3
labels 0 1 2
zero 0
one 2
add
0 1 2
1 1 2
2 2 2
mul
0 0 0
0 1 1
0 1 2
""")


def entry_vector(m):
    """Row-major flattening of the entries."""
    return tuple(itertools.chain.from_iterable(m.entries))


def position(hom, m):
    """The rank of one morphism in ``hom``, through its code.

    The per-element lookup ``right_action`` replaced, which reads the
    rank of every image at once; kept as its reference.
    """
    if m.signature != (hom.d, hom.x):
        raise ValueError(f"morphism {m.src}x{m.dst} is not in Hom({hom.d},{hom.x})")
    code = 0
    for e in entry_vector(m):
        code = code * hom.sr.size + e
    return hom.rank_of_code[code]


def is_identity(mat):
    """Whether an action matrix sends every row to itself."""
    return all(t == i for i, t in enumerate(mat.targets))


def is_upper_triangular(targets):
    """Whether no row of an action has its target below the row: the scan inflation replaced."""
    return all(t >= i for i, t in enumerate(targets))


def bool_matmul(a_rows, b_rows, z):
    """Independent OR-of-ANDs oracle for Boolean matrix product."""
    x = len(a_rows)
    y = len(b_rows)
    return [[1 if any(a_rows[i][k] and b_rows[k][j] for k in range(y)) else 0
             for j in range(z)] for i in range(x)]


def trop_matmul(n, a_rows, b_rows, z):
    """Independent min-plus oracle; index n+1 plays infinity."""
    inf = n + 1

    def mul(p, q):
        return inf if p == inf or q == inf else min(p + q, n)

    def acc(vals):
        best = inf
        for v in vals:
            best = min(best, v)
        return best

    x = len(a_rows)
    y = len(b_rows)
    return [[acc(mul(a_rows[i][k], b_rows[k][j]) for k in range(y))
             for j in range(z)] for i in range(x)]


def all_morphisms(sr, x, y):
    return [from_entry_vector(x, y, vec)
            for vec in itertools.product(range(sr.size), repeat=x * y)]


def test_compose_boolean_example():
    a = Morphism(2, 2, ((1, 0), (1, 1)))
    b = Morphism(2, 2, ((0, 1), (1, 0)))
    assert compose(BOOL, a, b).entries == ((0, 1), (1, 1))


def test_compose_matches_boolean_oracle_exhaustively():
    for x, y, z in itertools.product(range(3), repeat=3):
        for a in all_morphisms(BOOL, x, y):
            for b in all_morphisms(BOOL, y, z):
                got = compose(BOOL, a, b)
                want = bool_matmul(a.entries, b.entries, z)
                assert [list(r) for r in got.entries] == want


def test_compose_matches_tropical_oracle():
    for x, y, z in [(1, 2, 1), (2, 1, 2), (2, 2, 2)]:
        for a in all_morphisms(TROP1, x, y):
            for b in all_morphisms(TROP1, y, z):
                got = compose(TROP1, a, b)
                want = trop_matmul(1, a.entries, b.entries, z)
                assert [list(r) for r in got.entries] == want


def test_identity_and_zero_laws():
    for sr in (BOOL, TROP1):
        for x, y in itertools.product(range(3), repeat=2):
            for a in all_morphisms(sr, x, y):
                assert compose(sr, identity(sr, x), a) == a
                assert compose(sr, a, identity(sr, y)) == a
                for z in range(3):
                    assert compose(sr, a, zero_morphism(sr, y, z)) == zero_morphism(sr, x, z)
                    assert compose(sr, zero_morphism(sr, z, x), a) == zero_morphism(sr, z, y)


def test_identity_shapes():
    assert identity(BOOL, 0) == Morphism(0, 0, ())
    assert identity(BOOL, 2).entries == ((1, 0), (0, 1))
    zt = zero_morphism(TROP1, 1, 3)
    assert zt.entries == ((2, 2, 2),)  # additive identity of tropical is inf
    assert format_morphism(TROP1, zt) == "[[inf, inf, inf]]"


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="compose"):
        compose(BOOL, identity(BOOL, 2), Morphism(3, 1, ((0,), (0,), (1,))))


def test_compose_rejects_foreign_entries():
    weird = Morphism(1, 1, ((7,),))
    with pytest.raises(ValueError, match="out of range"):
        compose(BOOL, weird, identity(BOOL, 1))


def test_associativity_random_tropical():
    import random
    rng = random.Random(7)
    for _ in range(200):
        x, y, z, w = (rng.randrange(0, 3) for _ in range(4))
        a = from_entry_vector(x, y, [rng.randrange(3) for _ in range(x * y)])
        b = from_entry_vector(y, z, [rng.randrange(3) for _ in range(y * z)])
        c = from_entry_vector(z, w, [rng.randrange(3) for _ in range(z * w)])
        assert compose(TROP1, compose(TROP1, a, b), c) == compose(TROP1, a, compose(TROP1, b, c))


def test_dominates():
    f = Morphism(1, 2, ((0, 1),))
    g = Morphism(1, 2, ((1, 1),))
    h = Morphism(1, 2, ((1, 0),))
    assert dominates(BOOL, f, g)
    assert not dominates(BOOL, h, f)
    for m in (f, g, h):
        assert dominates(BOOL, m, m)
    with pytest.raises(ValueError, match="signature"):
        dominates(BOOL, f, identity(BOOL, 2))


def test_dominance_is_a_partial_order_on_small_homs():
    for sr, d, x in [(BOOL, 1, 2), (BOOL, 2, 1), (TROP1, 1, 1)]:
        ms = all_morphisms(sr, d, x)
        for a in ms:
            for b in ms:
                if dominates(sr, a, b) and dominates(sr, b, a):
                    assert a == b
                for c in ms:
                    if dominates(sr, a, b) and dominates(sr, b, c):
                        assert dominates(sr, a, c)


def test_enumerate_hom_boolean_1_1():
    hom = enumerate_hom(BOOL, 1, 1)
    assert [entry_vector(m) for m in hom] == [(0,), (1,)]


def test_enumerate_hom_boolean_1_2():
    hom = enumerate_hom(BOOL, 1, 2)
    vecs = [entry_vector(m) for m in hom]
    assert len(vecs) == 4
    assert vecs[0] == (0, 0)
    assert vecs[-1] == (1, 1)
    assert digits(hom.codes[0], 2, 2) == [0, 0]


def test_enumerate_hom_completeness():
    for sr, d, x in [(BOOL, 1, 3), (BOOL, 2, 2), (TROP1, 1, 2), (TROP1, 2, 1)]:
        hom = enumerate_hom(sr, d, x)
        assert len(hom) == hom_size(sr, d, x)
        assert len(set(hom.morphisms)) == len(hom)
        assert zero_morphism(sr, d, x) in set(hom.morphisms)
        if d == x:
            assert identity(sr, x) in set(hom.morphisms)


def test_enumeration_is_a_linear_extension():
    for sr, d, x in [(BOOL, 1, 2), (BOOL, 1, 3), (BOOL, 2, 2), (TROP1, 1, 2)]:
        hom = enumerate_hom(sr, d, x)
        for i, f in enumerate(hom.morphisms):
            for j, g in enumerate(hom.morphisms):
                if dominates(sr, f, g):
                    assert i <= j, f"{entry_vector(f)} before {entry_vector(g)}"


def test_enumerate_hom_degenerate():
    for d, x in [(1, 0), (0, 1), (0, 0)]:
        hom = enumerate_hom(BOOL, d, x)
        assert len(hom) == 1
        assert hom.morphisms[0].signature == (d, x)


def enumerate_hom_reference(sr, d, x):
    """The codes of Hom(d, x) by a stable sort of all n^(d*x) of them by height sum.

    The enumeration the per-height walk replaced, kept as its reference:
    the height sums of all codes, one base-n digit at a time, in code
    order; a stable sort breaks ties by code, which orders as the entry
    vector does.
    """
    height = natural_order(sr).height
    sums = [0]
    for _ in range(d * x):
        sums = [t + h for t in sums for h in height]
    return tuple(sorted(range(len(sums)), key=sums.__getitem__))


WALK_SEMIRINGS = [BOOL, *map(tropical_semiring, range(4)), CHAIN3,
                  *small_semirings(3), *small_semirings(4)]


@pytest.mark.parametrize("sr", WALK_SEMIRINGS,
                         ids=["boolean", *(f"tropical{k}" for k in range(4)), "chain3",
                              *(f"small3-{i}" for i in range(len(small_semirings(3)))),
                              *(f"small4-{i}" for i in range(len(small_semirings(4))))])
def test_enumerate_hom_matches_the_sort(sr):
    # every (d, x) with n^(d*x) <= 65536; the order depends on d*x alone,
    # so the reference is sorted once per width
    n, width = sr.size, 0
    while n ** width <= 65536:
        reference = enumerate_hom_reference(sr, 1, width)
        shapes = [(d, width // d) for d in range(1, width + 1) if width % d == 0]
        for d, x in shapes or [(0, 0), (0, 7), (5, 0)]:
            assert enumerate_hom(sr, d, x, cap=65536).codes == reference, (d, x)
        width += 1


def test_enumerate_hom_matches_the_sort_at_the_edges():
    # d*x = 0, one element with d*x up to the cap, and boolean 5/4
    # (m = 2^20) under a raised cap
    for d, x in [(0, 0), (0, 500), (500, 0)]:
        assert enumerate_hom(BOOL, d, x).codes == enumerate_hom_reference(BOOL, d, x) == (0,)
    for d, x in [(1, 1), (3, 7), (64, 64), (1, 4096)]:
        assert enumerate_hom(UNIT, d, x).codes == enumerate_hom_reference(UNIT, d, x) == (0,)
    hom = enumerate_hom(BOOL, 5, 4, cap=1 << 20)
    assert hom.codes == enumerate_hom_reference(BOOL, 5, 4)


def test_enumerate_hom_never_sorts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_hom sorted")

    monkeypatch.setattr(matcat, "sorted", refuse, raising=False)
    for sr, d, x in [(BOOL, 4, 4), (TROP1, 2, 3), (CHAIN3, 1, 1), (BOOL, 0, 9)]:
        matcat._order_plan.cache_clear()
        assert enumerate_hom(sr, d, x, cap=65536).codes == enumerate_hom_reference(sr, d, x)


def test_enumerate_hom_cap():
    with pytest.raises(CapExceededError) as exc:
        enumerate_hom(BOOL, 2, 4, cap=100)
    assert exc.value.size == 256


def test_position_lookup():
    hom = enumerate_hom(BOOL, 1, 2)
    for i, m in enumerate(hom):
        assert position(hom, m) == i
    with pytest.raises(ValueError):
        position(hom, identity(BOOL, 2))


def test_format_morphism():
    m = Morphism(2, 2, ((0, 1), (1, 1)))
    assert format_morphism(BOOL, m) == "[[0, 1], [1, 1]]"
    assert format_morphism(BOOL, Morphism(0, 3, ())) == "[]"


def eager_hom(sr, d, x):
    """Reference enumeration: every Morphism built at once, sorted by (height sum, entry vector)."""
    height = natural_order(sr).height
    keyed = sorted((sum(height[e] for e in vec), vec)
                   for vec in itertools.product(range(sr.size), repeat=d * x))
    return tuple(keyed), tuple(from_entry_vector(d, x, vec) for _, vec in keyed)


KERNEL_SEMIRINGS = [BOOL, TROP1, tropical_semiring(2), CHAIN3]


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_right_action_matches_compose_and_dominates(sr):
    # every endomorphism of x, not only the 0/1 ones, wherever the m
    # products per endomorphism stay small in total
    assert verify_axioms(sr) == []
    n = sr.size
    swept = 0
    for d, x in itertools.product(range(3), range(4)):
        m = n ** (d * x)
        if m * n ** (x * x) > 2 ** 15:
            continue
        hom = enumerate_hom(sr, d, x)
        keys, morphisms = eager_hom(sr, d, x)
        assert [tuple(digits(code, n, d * x)) for code in hom.codes] == [vec for _, vec in keys]
        assert hom.morphisms == morphisms
        assert [position(hom, g) for g in morphisms] == list(range(m))
        for vec in itertools.product(range(n), repeat=x * x):
            s = from_entry_vector(x, x, vec)
            products = [compose(sr, g, s) for g in morphisms]
            assert right_action(sr, s, hom) == [position(hom, p) for p in products]
            assert inflates(sr, s, d) == all(dominates(sr, g, p) for g, p in zip(morphisms, products))
            swept += 1
    assert swept > n ** 4


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_right_action_rejects_an_out_of_range_entry(sr):
    hom = enumerate_hom(sr, 1, 2)
    bad = Morphism(2, 2, ((sr.one, sr.size), (sr.zero, sr.one)))
    with pytest.raises(ValueError):
        compose(sr, hom.morphisms[0], bad)
    with pytest.raises(ValueError):
        right_action(sr, bad, hom)
    with pytest.raises(ValueError):
        action_matrix(sr, bad, hom)


class RowImagesReference(dict):
    """Row code r -> code of r.s for one y-by-x matrix s, each computed on first use.

    A row code is a length-y row read as a base-n number, first entry
    most significant; its image r.s is a length-x row, coded the same way.
    The table-lookup kernel ``row_images`` replaced: x*y lookups per row.
    """

    def __init__(self, sr, s):
        super().__init__()
        self.sr = sr
        self.s = s.entries
        self.y, self.x = s.signature

    def __missing__(self, r):
        sr, s, y = self.sr, self.s, self.y
        n, add_t, mul_t, z = sr.size, sr.add_table, sr.mul_table, sr.zero
        row, rest = [0] * y, r
        for k in reversed(range(y)):
            rest, row[k] = divmod(rest, n)
        code = 0
        for j in range(self.x):
            acc = z
            for k in range(y):
                acc = add_t[acc][mul_t[row[k]][s[k][j]]]
            code = code * n + acc
        self[r] = code
        return code


def digits(code, n, width):
    """The base-n digits of a row code, first column first."""
    out = [0] * width
    for j in reversed(range(width)):
        code, out[j] = divmod(code, n)
    return out


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_row_images_match_the_reference_on_random_matrices(sr):
    # random entries, not only 0 and 1, in square s acting on Hom(d, x)
    # and in y-by-x s as in the oracle's products
    rng = random.Random(8)
    n, leq, masks = sr.size, natural_order(sr).leq, element_masks(sr)
    assert len(set(masks)) == n and masks[sr.zero] == 0
    assert all((masks[a] | masks[b] == masks[b]) == leq[a][b] for a in range(n) for b in range(n))
    shapes = [(y, x) for y in range(4) for x in range(4) if n ** max(x, y) <= 64]
    square = 0
    for y, x in shapes * 6:
        s = from_entry_vector(y, x, [rng.randrange(n) for _ in range(y * x)])
        reference = RowImagesReference(sr, s)
        images = row_images(sr, s)
        assert len(images) == n ** y
        for r, mask in enumerate(images):
            # field j of the packed mask is column j's mask, first column most significant
            packed = 0
            for e in digits(reference[r], n, x):
                packed = packed << n | masks[e]
            assert mask == packed
        for d in range(1, 4):
            if x != y or n ** (d * x) > 256:
                continue
            hom = enumerate_hom(sr, d, x)
            assert [hom.code_of_mask[mask] for mask in images] == [reference[r] for r in range(n ** y)]
            inflating = inflates(sr, s, d)
            morphisms = hom.morphisms
            products = [compose(sr, g, s) for g in morphisms]
            assert right_action(sr, s, hom) == [position(hom, p) for p in products]
            assert inflating == all(leq[a][b] for r in range(n ** x)
                                    for a, b in zip(digits(r, n, x), digits(reference[r], n, x)))
            assert inflating == all(dominates(sr, g, p) for g, p in zip(morphisms, products))
            square += 1
    assert square >= 12


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_an_inflating_action_is_upper_triangular(sr):
    # h <= h.s for every h puts h.s at a rank no lower than h's, since the
    # enumeration order extends dominance: certify and verify form X only
    # once inflation passed, and take its triangularity from that check.
    # Half the samples are joined with the identity, so they inflate.
    rng = random.Random(f"inflating {sr.size}")
    n, add = sr.size, sr.add_table
    inflating_samples = 0
    for d, x in itertools.product(range(1, 4), range(1, 5)):
        if n ** (d * x) > 4096:
            continue
        hom = enumerate_hom(sr, d, x)
        for k in range(16):
            vec = [rng.randrange(n) for _ in range(x * x)]
            if k % 2:  # s + Id: entry i is on the diagonal when x + 1 divides it
                vec = [add[e][sr.one if i % (x + 1) == 0 else sr.zero] for i, e in enumerate(vec)]
            s = from_entry_vector(x, x, vec)
            targets = right_action(sr, s, hom)
            inflating = inflates(sr, s, d)
            # h.s is the element of rank targets[rank of h]
            assert inflating == all(dominates(sr, h, hom.morphisms[t])
                                    for h, t in zip(hom.morphisms, targets)), (d, x, vec)
            if inflating:
                assert is_upper_triangular(targets), (d, x, vec)
                inflating_samples += 1
    assert inflating_samples >= 72


SMALL_SEMIRINGS = small_semirings(3) + small_semirings(4)


@pytest.mark.parametrize("sr", SMALL_SEMIRINGS,
                         ids=[f"n{sr.size}-{i}" for i, sr in enumerate(SMALL_SEMIRINGS)])
def test_inflates_matches_dominates_on_the_small_semirings(sr):
    # the diagonal rule against h <= h.s over every h of Hom(d, x), d 0-2
    # and x 0-3: every s where n^(x^2) <= 300, else 16 seeded draws, half
    # of them joined with the identity so that they inflate
    n, add = sr.size, sr.add_table
    rng = random.Random(f"inflates {sr.add_table} {sr.mul_table}")
    verdicts = set()
    for d, x in itertools.product(range(3), range(4)):
        hom = enumerate_hom(sr, d, x)
        if n ** (x * x) <= 300:
            vecs = list(itertools.product(range(n), repeat=x * x))
        else:
            vecs = [[rng.randrange(n) for _ in range(x * x)] for _ in range(16)]
            vecs[1::2] = [[add[e][sr.one if i % (x + 1) == 0 else sr.zero] for i, e in enumerate(vec)]
                          for vec in vecs[1::2]]
        for vec in vecs:
            s = from_entry_vector(x, x, vec)
            inflating = inflates(sr, s, d)
            assert inflating == all(dominates(sr, h, hom.morphisms[t])
                                    for h, t in zip(hom.morphisms, right_action(sr, s, hom))), \
                (d, x, vec)
            verdicts.add((d, x, inflating))
    # both verdicts at every d >= 1 and x >= 1, only True elsewhere
    both = {(d, x, v) for d in (1, 2) for x in (1, 2, 3) for v in (False, True)}
    assert verdicts == both | {(d, x, True) for d in range(3) for x in range(4)}


def test_right_action_on_the_empty_matrix_does_not_sweep():
    # Hom(0, 500) is one matrix with no rows; n^500 row codes never sweep
    hom = enumerate_hom(BOOL, 0, 500)
    start = time.perf_counter()
    assert right_action(BOOL, identity(BOOL, 500), hom) == [0]
    assert time.perf_counter() - start < 2
    # its one element h has no rows, so h <= h.s even for the zero s
    zero = zero_morphism(BOOL, 500, 500)
    assert inflates(BOOL, zero, 0) and not inflates(BOOL, zero, 1)
    assert all(dominates(BOOL, h, compose(BOOL, h, zero)) for h in hom)


def identity_by_sweep(sr, s, hom):
    """The full sweep the identity check replaced: h.s = h for all m elements h."""
    return is_identity(action_matrix(sr, s, hom))


UNIT = Semiring(1, ("e",), 0, 0, ((0,),), ((0,),))


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS + [UNIT],
                         ids=["boolean", "tropical1", "tropical2", "chain3", "one-element"])
def test_acts_as_identity_matches_the_full_sweep(sr):
    # the pad branch records identity-action-is-identity as proved by
    # mul-identity, zero-annihilates and add-identity; the full sweep
    # confirms h.Id = h on every Hom(d, x) with d 0-3 and m <= 4096, the
    # one-element hom-sets among them
    assert verify_axioms(sr) == []
    n = sr.size
    shapes = [(d, x) for d in range(4) for x in range(5) if n ** (d * x) <= 4096]
    assert (0, 4) in shapes and (3, 1) in shapes
    for d, x in shapes:
        assert identity_by_sweep(sr, identity(sr, x), enumerate_hom(sr, d, x)) is True, (d, x)


# Two elements whose masks collide (both are 2): verify_axioms rejects the
# table, natural_order accepts it, and the identity's row images do not
# decode one to one
COLLIDING = Semiring(2, ("0", "1"), 0, 1, ((0, 0), (0, 0)), ((0, 0), (0, 1)))


def test_colliding_masks_fail_the_identity_check(tmp_path, capsys, monkeypatch):
    assert verify_axioms(COLLIDING) != []
    assert element_masks(COLLIDING) == (2, 2)
    for d, x, holds in [(1, 2, False), (2, 1, False), (0, 3, True), (1, 0, True)]:
        hom = enumerate_hom(COLLIDING, d, x)
        assert identity_by_sweep(COLLIDING, identity(COLLIDING, x), hom) is holds, (d, x)
    # the pad branch takes h.Id = h from the axioms, so the command line
    # refuses such a table with exit 1 before any check runs; a boolean
    # certificate would otherwise be a fingerprint mismatch, exit 2
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran on a semiring that fails the axioms")

    for name in ("certify", "verify_certificate", "span_oracle", "parse_certificate"):
        monkeypatch.setattr(cli, name, refuse)
    path, cert = tmp_path / "colliding.semiring", tmp_path / "boolean.cert"
    path.write_text(format_semiring(COLLIDING))
    cert.write_text(render_certificate(certify(BOOL, 1, 2)))
    for argv in (["certify", "-d", "1", "-x", "2"], ["verify", str(cert)],
                 ["oracle", "-d", "1", "-x", "2", "-y", "2"]):
        assert cli.main([*argv, "--semiring", str(path)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "semiring fails axiom verification" in captured.err


def test_enumerate_hom_builds_the_order_only():
    # the inverse permutation and the row tables are built on first read,
    # the row tables once per semiring and width
    for sr, d, x in [(BOOL, 1, 3), (BOOL, 2, 2), (TROP1, 1, 2), (TROP1, 2, 1), (BOOL, 0, 3)]:
        row_table.cache_clear()
        hom = enumerate_hom(sr, d, x)
        assert not {"rank_of_code", "morphisms"} & set(vars(hom))
        assert row_table.cache_info().currsize == 0
        hom.code_of_mask
        assert row_table.cache_info().currsize == (1 if d else 0)
        assert "rank_of_code" not in vars(hom)
        if d:
            assert hom.code_of_mask is row_table(sr, x)
            assert enumerate_hom(sr, d + 1, x).code_of_mask is row_table(sr, x)
            assert row_table.cache_info().misses == 1
        position(hom, zero_morphism(sr, d, x))
        assert "rank_of_code" in vars(hom)


def test_the_empty_matrix_has_no_row_table(monkeypatch):
    # Hom(0, 500) has no rows, so reading its row table or acting on it
    # sweeps nothing, and the pad branch never reads a row table
    row_table.cache_clear()
    sweeps = []
    monkeypatch.setattr(matcat, "row_images", lambda *args: sweeps.append(args))
    hom = enumerate_hom(BOOL, 0, 500)
    assert hom.code_of_mask == {}
    assert right_action(BOOL, identity(BOOL, 500), hom) == [0]
    assert right_actions(BOOL, [identity(BOOL, 500)] * 2, hom) == [[0], [0]]
    assert inflates(BOOL, identity(BOOL, 500), 0)
    cert = certify(BOOL, 2, 3)
    assert cert.branch == "pad" and verify_certificate(BOOL, cert).passed
    assert sweeps == []


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_the_lazy_tables_match_their_definitions(sr):
    n = sr.size
    for d, x in itertools.product(range(4), range(5)):
        if n ** (d * x) > 4096:
            continue
        hom = enumerate_hom(sr, d, x)
        assert all(hom.rank_of_code[code] == i for i, code in enumerate(hom.codes))
        assert sorted(hom.rank_of_code) == list(range(hom.size))
        if d == 0:
            assert hom.code_of_mask == {}
            continue
        # code_of_mask inverts the identity's row images
        masks = row_images(sr, identity(sr, x))
        assert len(masks) == n ** x
        assert [hom.code_of_mask[mask] for mask in masks] == list(range(n ** x))
        assert len(hom.code_of_mask) == n ** x


def random_endomorphisms(sr, x, count, rng):
    return [from_entry_vector(x, x, [rng.randrange(sr.size) for _ in range(x * x)])
            for _ in range(count)]


PACKED_SEMIRINGS = [*KERNEL_SEMIRINGS, *SMALL_SEMIRINGS, UNIT]


@pytest.mark.parametrize("sr", PACKED_SEMIRINGS,
                         ids=["boolean", "tropical1", "tropical2", "chain3"]
                         + [f"n{sr.size}-{i}" for i, sr in enumerate(SMALL_SEMIRINGS)]
                         + ["one-element"])
def test_right_actions_match_right_action(sr):
    # the packed kernel against one right_action per s on every Hom(d, x)
    # with d 0-3, x 0-4 and m <= 4096, the one-element hom-sets (d = 0,
    # x = 0, n = 1) among them: random entries, a repeated s, the
    # identity, and the empty list
    assert verify_axioms(sr) == []
    rng = random.Random(f"packed {sr.add_table} {sr.mul_table}")
    shapes = [(d, x) for d in range(4) for x in range(5) if sr.size ** (d * x) <= 4096]
    assert (0, 4) in shapes and (3, 1) in shapes
    for d, x in shapes:
        hom = enumerate_hom(sr, d, x)
        ss = random_endomorphisms(sr, x, 3, rng)
        ss += [ss[0], identity(sr, x)]
        assert right_actions(sr, ss, hom) == [right_action(sr, s, hom) for s in ss], (d, x)
        assert right_actions(sr, [], hom) == []


@pytest.mark.parametrize("sr, d, x", [(BOOL, 1, 7), (BOOL, 2, 3), (TROP1, 1, 4), (CHAIN3, 2, 2)],
                         ids=["boolean-1-7", "boolean-2-3", "tropical1-1-4", "chain3-2-2"])
def test_right_actions_over_several_groups(sr, d, x, monkeypatch):
    # every distinct s(f), then random endomorphisms up to past two
    # groups; each distinct row among them is scaled once, whatever its group
    hom = enumerate_hom(sr, d, x)
    ss = list(dict.fromkeys(column_preorder(sr, f) for f in hom.morphisms))
    if (sr, d, x) == (BOOL, 1, 7):
        assert len(ss) == 127
    ss += random_endomorphisms(sr, x, max(0, 2 * matcat.GROUP + 1 - len(ss)), random.Random(x))
    assert len(ss) > 2 * matcat.GROUP
    expected = [right_action(sr, s, hom) for s in ss]
    scaled = []
    reference = matcat.scaled_rows

    def counted(sr, rows):
        rows = list(rows)
        scaled.extend(rows)
        return reference(sr, rows)

    monkeypatch.setattr(matcat, "scaled_rows", counted)
    assert right_actions(sr, ss, hom) == expected
    distinct = {row for s in ss for row in s.entries}
    assert sorted(scaled) == sorted(distinct) and len(distinct) < x * len(ss)


@pytest.mark.parametrize("sr", KERNEL_SEMIRINGS, ids=["boolean", "tropical1", "tropical2", "chain3"])
def test_right_actions_raise_as_right_action(sr, monkeypatch):
    # the first s that cannot act raises right_action's ValueError, on a
    # one-element hom-set too, and before a second bad s; a list that
    # can act is checked as a whole, never one s at a time
    good = identity(sr, 2)
    bads = (Morphism(2, 2, ((sr.one, sr.size), (sr.zero, sr.one))),
            Morphism(2, 3, ((sr.one,) * 3,) * 2), identity(sr, 3))
    for hom in (enumerate_hom(sr, 1, 2), enumerate_hom(sr, 0, 2)):
        for bad in bads:
            with pytest.raises(ValueError) as expected:
                right_action(sr, bad, hom)
            for later in (None, *bads):
                ss = [good, bad, good] + ([later] if later else [])
                with pytest.raises(ValueError) as packed:
                    right_actions(sr, ss, hom)
                assert str(packed.value) == str(expected.value)
    checks = []
    monkeypatch.setattr(matcat, "_check_acts", lambda *args: checks.append(args))
    hom = enumerate_hom(sr, 1, 2)
    assert right_actions(sr, [good, good], hom) == [list(range(hom.size))] * 2
    assert checks == []


def test_a_field_past_the_widest_goes_to_right_action(monkeypatch):
    # boolean 1/3 packs 6-bit row masks; boolean 3/2 4-bit masks but
    # 6-bit codes of Hom(3, 2).  With fields of at most 5 bits, each
    # falls back to one right_action per s; at 64 bits neither does.
    assert matcat.field_size(64) == 8 and matcat.field_size(65) is None
    calls = []
    reference = matcat.right_action

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(matcat, "right_action", counted)
    rng = random.Random("widest")
    for d, x in [(1, 3), (3, 2)]:
        hom = enumerate_hom(BOOL, d, x)
        ss = random_endomorphisms(BOOL, x, 4, rng)
        expected = [reference(BOOL, s, hom) for s in ss]
        del calls[:]
        assert right_actions(BOOL, ss, hom) == expected and calls == []
        monkeypatch.setattr(matcat, "FIELD_BITS", 5)
        assert right_actions(BOOL, ss, hom) == expected and len(calls) == len(ss)
        monkeypatch.setattr(matcat, "FIELD_BITS", 64)


def test_morphisms_from_bytes_matches_the_validating_constructor():
    # each matrix cut from the bytes is the one from_entry_vector builds
    # from the same row-major entries; a shape with no entries, and bytes
    # that are no whole number of matrices, raise
    rng = random.Random("bytes")
    for src, dst, count in [(1, 1, 3), (2, 3, 4), (3, 2, 1), (4, 4, 0)]:
        size = src * dst
        data = bytes(rng.randrange(256) for _ in range(size * count))
        assert matcat.morphisms_from_bytes(src, dst, data) == [
            from_entry_vector(src, dst, data[i:i + size]) for i in range(0, len(data), size)]
    for src, dst, data in [(0, 2, b""), (2, 0, b""), (2, 2, b"\0" * 5), (1, 3, b"\0" * 4)]:
        with pytest.raises(ValueError):
            matcat.morphisms_from_bytes(src, dst, data)
