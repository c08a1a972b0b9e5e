from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayley
from cayley import _fillcore, enumeration
from cayley.core import cyclic_group, from_table
from cayley.enumeration import count_groups, enumerate_groups, enumerate_tables
from cayley.errors import BudgetExceededError, GroupError
from cayley.morphisms import _colour_key, find_isomorphism

from oracles import naive_is_group_table, regular_subgroup_census, relabel_seeded

# Classical numbers of isomorphism classes by order. Orders of shape p^2 or
# p*q also follow from the existence criterion (1 class when no noncyclic
# group exists, else 2); order 8 is cross-checked by the independent regular
# permutation census below, and order 12's five classes are enumerable by
# hand (two abelian, the dihedral, the alternating, and the dicyclic one).
KNOWN_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 14: 2, 15: 1, 16: 14,
}


@pytest.mark.parametrize("n,expected", sorted(KNOWN_COUNTS.items()))
def test_counts_match_known_values(n, expected):
    assert count_groups(n) == expected


@pytest.mark.parametrize("n,expected", [(21, 2), (25, 2), (33, 1)])
def test_extended_budget_counts(n, expected):
    assert count_groups(n, budget=33) == expected


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_groups(17)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_groups(0)
    with pytest.raises(BudgetExceededError):
        enumerate_groups(65, budget=100)


def test_prime_orders_are_cyclic():
    for p in [2, 3, 5, 7, 11, 13]:
        report = enumerate_groups(p, budget=16)
        assert report.count == 1
        assert report.representatives[0].is_cyclic()


def test_representatives_pairwise_nonisomorphic():
    report = enumerate_groups(8)
    for i, a in enumerate(report.representatives):
        for b in report.representatives[i + 1 :]:
            assert find_isomorphism(a, b) is None


def test_every_table_isomorphic_to_exactly_one_representative():
    for n in [6, 8]:
        report = enumerate_groups(n)
        tables, _ = enumerate_tables(n)
        for flat in tables:
            g = from_table(n, [list(flat[i * n : (i + 1) * n]) for i in range(n)])
            matches = sum(
                1 for rep in report.representatives if find_isomorphism(g, rep)
            )
            assert matches == 1


def test_stats_accounting():
    report = enumerate_groups(8)
    assert report.stats.tables_completed == report.count + report.stats.iso_rejections
    assert report.stats.nodes > 0
    assert report.count == len(report.representatives)


def test_determinism():
    a = enumerate_groups(10)
    b = enumerate_groups(10)
    assert [g.table.tolist() for g in a.representatives] == [g.table.tolist() for g in b.representatives]
    assert a.stats == b.stats


def _kernel_outcome(kernel, n):
    try:
        return kernel.enumerate_group_tables(n)
    except ValueError as exc:
        return ("ValueError", str(exc))


KERNEL_EDGE_CASES = {
    0: ("ValueError", "order must be in 1..64"),
    1: ([b"\x00"], 1),
    65: ("ValueError", "order must be in 1..64"),
}


@pytest.mark.parametrize("n", [0, *range(1, 23), 65])
def test_backend_parity(compiled_kernel, n):
    # Same tables in the same order, the same node count, the same errors.
    assert compiled_kernel.MAX_KERNEL_ORDER == _fillcore.MAX_KERNEL_ORDER
    expected = _kernel_outcome(_fillcore, n)
    actual = _kernel_outcome(compiled_kernel, n)
    assert actual == expected
    if n in KERNEL_EDGE_CASES:
        assert expected == KERNEL_EDGE_CASES[n]
    else:
        # Each leaf is one bytes object of n^2 labels, each label below n.
        for tables, _ in (expected, actual):
            assert tables
            for leaf in tables:
                assert type(leaf) is bytes and len(leaf) == n * n and max(leaf) < n


def _digest(result):
    """sha256 of a kernel result with each leaf as a tuple of ints, the form
    in which the kernels emitted leaves when the digests were recorded."""
    tables, nodes = result
    return hashlib.sha256(repr(([tuple(t) for t in tables], nodes)).encode()).hexdigest()


# _digest(enumerate_group_tables(n)) on the pure kernel: the tables, their
# order and the node count. Recorded before propagation moved to byte
# tables; this needs no compiler, unlike the parity test.
PURE_KERNEL_SHA256 = {
    1: "283652068034d2ff305e6766a045c402895c8ec6ae71380fed26cb841996d0b2",
    2: "6aa749cfb569bfa959b7c287976a55fe39157a1157830e54ed4a95b6859bc66c",
    3: "fc75f4ea9a43bb2ba9e711f55f8bb5309fdee0ab5cb2319a1c8f45fd0d28aa39",
    4: "f81cd17378c0bf10c0951c1a3d3617c867de5b43fe0a8c65340345c260cd4928",
    5: "c8bab224c4cba78c10f780810a5d2fa5f2b31518d2c9fb82710bcc8e68115084",
    6: "6196af75caf867d196d0f44f6b1a5153ae0d1763451b6177359541a39b72a2fc",
    7: "8a1b6c5f5f9f02aa66c9fc918fe915538a41223de3c81248a244886aaea544d8",
    8: "7aa7984ad12b3f02c50a06697f29fc3c448dbd88ef01483a1efcee98a83b0c7f",
    9: "e495e974b32c3cfc1a0e3eff6e6a37513cebd2e79324943dad4404159eb1dcb0",
    10: "6f6612f2906afb93b0fd2b5d22d8c024950b3b3cab1976536fad3a9b9f2ce1d4",
    11: "934c2623448389809a8af3edad78ef4bdcf981f5d75096a14dcafba27f9abe51",
    12: "0a778d84c53b562efa630a6ea3b7cbf1729cf7e48c6e95a9d97bcfde107afe06",
    13: "26dd8046984294636116aec99e180fa7cd45275c0b6cd9a3a7c1b335684e657d",
    14: "c4f3f3b72dda35467e0ab1bfb5d16213e80c7ef0330f82a471a1591bddfdfbd1",
    15: "5fd3527b88d9778f2edf5610fa878d2e3b9c65771da086f35640f848ff23847a",
    16: "293c9d5c58a4f546cf00ffaa1ec4a0decd3db7eaf66810bb5fcb8ddf2794058a",
    17: "92fa00b7aea78189b14e8ae9fef8affd25660041fcc2937758780ce6c5517fe5",
    18: "3e9af89f2fa8b78ec6e2e72a3809cc0bef415db260b5ca91cea41a7e6992665d",
    19: "0d9c5f296655a8fbdee93172dc8650d0815eb67b933304a04d66d47835f1cc9b",
    20: "07a1d9915ebf935222ea55aff2f88e8c2d37e9fdccf190f74fa1df2d3b185aa9",
    21: "a1cdad16f267af7d9dc6b31113cc70f539c921f780cbd5250bf1459c8f0a4923",
    22: "79b552a759f5fcc34f916f1ce5330b2fb1ee8f3fc5009e7bb03043f23e0de864",
}


@pytest.mark.parametrize("n", sorted(PURE_KERNEL_SHA256))
def test_pure_kernel_output_is_pinned(n):
    assert _digest(_fillcore.enumerate_group_tables(n)) == PURE_KERNEL_SHA256[n]


# A Latin table with identity 0 that is not associative ((2*2)*2 != 2*(2*2)),
# yet has the colour key of C6, so the dedup runs a relabelling search on it.
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 0, 1, 2, 3],
]

# Order 24 is the first at which a table completed by propagation fails
# the kernels' completion check (12 times); a kernel that skipped the check
# would emit 2737 tables, not 2725. Recorded before the check existed.
ORDER24_SHA256 = "e49683f6a2cb6294b14f94e1738afa84d8aa88b9c7cd1f16ff5a067e937479cf"


def test_compiled_kernel_order24_is_pinned(compiled_kernel):
    result = compiled_kernel.enumerate_group_tables(24)
    assert (len(result[0]), result[1]) == (2725, 147201)
    assert _digest(result) == ORDER24_SHA256


# _digest(enumerate_group_tables(n)) on the compiled kernel past the
# parity range, recorded before search decided each cell in one loop.
COMPILED_KERNEL_SHA256 = {
    23: "0f0a9fe2a58be9933794c1147d0330e0c945f1e43a720c04aa032ac0640218f4",
    25: "6413dd61179dcf7707a1c134c11e8db6ccea6b9269e37b62cc983d290a555982",
    26: "8ea0b340aff9b7d25c362ebbfd0002a4b57aeb55306236760a1fd422be85ec7d",
    27: "e6def7b7da34d6b0a63bc1b0429bbbd4c399f3a02871ea17be9ba989c6744f95",
    28: "b367f3075becc740d9cc5dae3c204f00c25eacc12f6dfd6147086fb2d4c5d729",
    29: "378b57e3c866a89d722191536937abeb76bbabad7f5a668ea54d89e970056f41",
    30: "541e222c2ddc064a46368efbf9d6f7881a843decc6a180e0544049eb61578ae0",
    31: "1065c206ec72ff77a4242d99c9ca41ebd78acd4833e3fe8e751d04e84a5f5f3c",
    33: "58b9d13002fbf9ee8d571a650a1b7d23f92397828da0c2a573211299f0918312",
    34: "d2ec8f25b6811ca8a9cca1589789b944f7ab5b4b0410d54c0a261a43235f1619",
    35: "87317ae6f62d23d3618854b41d99fc8eb14225944d7b52e6d36912fda69441eb",
    37: "ff4c817c45cafb1d872befd7759af7d6a3b41bba2dc7366cd313dfc01b51418a",
    38: "a4faba0af61c056714ba87a561c42e85a1d0f85172eca251d8e2a00562a91772",
    39: "eea94bc918a489083e24c4744dd5ca0561ed7db68ca57f5a38640e566af3bf97",
}

# The same for the orders that take seconds each, compiled.
COMPILED_KERNEL_STRESS_SHA256 = {
    32: "10323acf014922f6b75c83e7ee7f3623a1625d5a828030b1a5005d9c34e3eebc",
    36: "4f8089a930e8392d73ccee4c35fea56b9363bc412082ba56d9bed76c08f9b5b6",
    40: "3ca77f9f2ffc39edf3240b1f331452092ffe086cbb9ccdd42961f1f37350f6ed",
}


@pytest.mark.parametrize("n", sorted(COMPILED_KERNEL_SHA256))
def test_compiled_kernel_output_is_pinned(compiled_kernel, n):
    assert _digest(compiled_kernel.enumerate_group_tables(n)) == COMPILED_KERNEL_SHA256[n]


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="about 25 s on the compiled kernel; set CAYLEY_STRESS=1 to run",
)
@pytest.mark.parametrize("n", sorted(COMPILED_KERNEL_STRESS_SHA256))
def test_compiled_kernel_stress_output_is_pinned(compiled_kernel, n):
    assert _digest(compiled_kernel.enumerate_group_tables(n)) == COMPILED_KERNEL_STRESS_SHA256[n]


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="about 10 s on the pure kernel; set CAYLEY_STRESS=1 to run",
)
def test_pure_kernel_order24_is_pinned():
    assert _digest(_fillcore.enumerate_group_tables(24)) == ORDER24_SHA256


def _byte_rows(rows):
    """A complete table in the pure kernel's layout: byte rows of stride
    256, and a view of each row."""
    n, stride = len(rows), 256
    data = bytearray([255]) * (n * stride)
    for x, values in enumerate(rows):
        data[x * stride : x * stride + n] = bytes(values)
    return data, [memoryview(data)[x * stride : (x + 1) * stride] for x in range(n)]


def test_completion_check_is_lights_criterion(s3):
    # True on group tables over their generators; False on a Latin table
    # that is not associative, for a generator set that holds a witness.
    c6 = cyclic_group(6)
    for group, gens in [(c6, [1]), (s3, list(s3.generators))]:
        data, views = _byte_rows(group.table.tolist())
        assert _fillcore.associative(data, views, gens, 6)
    data, views = _byte_rows(LOOP6)
    assert not _fillcore.associative(data, views, [2], 6)
    assert not _fillcore.associative(data, views, list(range(1, 6)), 6)
    # Only the given generators are checked: 1 is no witness.
    assert _fillcore.associative(data, views, [1], 6)


@pytest.mark.parametrize("n", range(1, 13))
def test_every_kernel_table_passes_the_naive_oracle(n):
    # Raw kernel leaves, checked without from_table.
    tables, _ = _fillcore.enumerate_group_tables(n)
    assert tables
    for flat in tables:
        assert naive_is_group_table([list(flat[i * n : (i + 1) * n]) for i in range(n)])


def test_representatives_are_valid_groups():
    report = enumerate_groups(12)
    for rep in report.representatives:
        rep.validate()
        assert rep.order == 12


def test_census_agrees_on_small_orders():
    for n in [4, 6]:
        assert regular_subgroup_census(n) == KNOWN_COUNTS[n]


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="several minutes; set CAYLEY_STRESS=1 to run",
)
def test_order32_stress_count():
    # 51 isomorphism classes, deduplicated from 54462 canonical tables.
    assert count_groups(32, budget=32) == 51


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="about 25 s on the compiled kernel; set CAYLEY_STRESS=1 to run",
)
def test_order32_leaves_fit_in_a_small_peak(compiled_kernel):
    # The 54,462 order-32 leaves take about 58 MB as bytes, and would take
    # about 450 MB as tuples of ints. The child reports its own peak
    # resident set (VmHWM), which a forked child's ru_maxrss cannot: that
    # starts from the parent's resident pages.
    child = (
        "import importlib.util, sys\n"
        "from cayley import enumeration\n"
        "spec = importlib.util.spec_from_file_location('cayley._fillcore_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "enumeration._kernel = kernel\n"
        "report = enumeration.enumerate_groups(32, budget=32)\n"
        "assert (report.count, report.stats.tables_completed) == (51, 54462)\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line for line in status if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(cayley.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, compiled_kernel.__file__],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout.split("VmHWM:")[1].split()[0])
    assert peak_kb < 150 * 1024


def _count_dedup_negatives(monkeypatch, n):
    """enumerate_groups(n) and the number of its relabelling checks that
    found no relabelling."""
    negatives = []
    check = enumeration._is_relabelling

    def counted(rep, leaf):
        found = check(rep, leaf)
        if not found:
            negatives.append((rep, leaf))
        return found

    monkeypatch.setattr(enumeration, "_is_relabelling", counted)
    return enumeration.enumerate_groups(n, budget=n), len(negatives)


def test_order16_colour_keys_separate_every_class(monkeypatch):
    # The 14 classes have 14 distinct colour keys, so a table meets only
    # representatives of its own class and no dedup search fails.
    report, negatives = _count_dedup_negatives(monkeypatch, 16)
    assert report.count == 14
    assert len({_colour_key(g) for g in report.representatives}) == 14
    assert negatives == 0
    assert report.stats.iso_rejections == 526


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="several minutes; set CAYLEY_STRESS=1 to run",
)
def test_order32_colour_keys_separate_every_class(monkeypatch):
    report, negatives = _count_dedup_negatives(monkeypatch, 32)
    assert report.count == 51
    assert len({_colour_key(g) for g in report.representatives}) == 51
    assert negatives == 0


def test_order16_fingerprint_collisions_are_resolved_by_search():
    # At order 16 two pairs of non-isomorphic classes share a fingerprint;
    # their colour keys differ (the square-root counts tell them apart), so
    # deduplication separates them without a search.
    from collections import Counter

    from cayley.morphisms import fingerprint

    report = enumerate_groups(16)
    assert report.count == 14
    collisions = [n for n in Counter(fingerprint(g) for g in report.representatives).values() if n > 1]
    assert collisions == [2, 2]
    reps = report.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert find_isomorphism(reps[i], reps[j]) is None


def test_only_representatives_are_validated(monkeypatch):
    # The 526 duplicate leaves of order 16 are rejected by a relabelling
    # check alone; from_table runs once per representative.
    calls = []

    def counted(order, table):
        calls.append(order)
        return from_table(order, table)

    monkeypatch.setattr(enumeration, "from_table", counted)
    report = enumerate_groups(16)
    assert report.count == 14 and report.stats.iso_rejections == 526
    assert calls == [16] * 14


def _identity_bordered(n, entry):
    """Rows and columns of 0 are the identity; every other cell is entry(x, y)."""
    return [[x if y == 0 else y if x == 0 else entry(x, y) for y in range(n)] for x in range(n)]


NOT_GROUP_TABLES = {
    "loop with the key of C6": LOOP6,
    # Powers of 1 run 1, 2, 2, ... and never return to 0.
    "power walk without end": _identity_bordered(6, lambda x, y: 2),
    "non-Latin, every square 0": _identity_bordered(6, lambda x, y: 0),
    "entry out of range": _identity_bordered(
        6, lambda x, y: 6 if (x, y) == (5, 5) else (x + y) % 6
    ),
}


class _StubKernel:
    """A kernel that emits the given leaves for order 6, as bytes like
    the real kernels."""

    def __init__(self, leaves):
        self.leaves = [bytes(v for row in rows for v in row) for rows in leaves]

    def enumerate_group_tables(self, n):
        assert n == 6
        return list(self.leaves), 1


def test_stub_kernel_duplicate_is_rejected_by_relabelling(monkeypatch):
    c6 = cyclic_group(6)
    copy = relabel_seeded(c6, 3)
    assert copy.table.tolist() != c6.table.tolist()
    stub = _StubKernel([c6.table.tolist(), copy.table.tolist()])
    monkeypatch.setattr(enumeration, "_kernel", stub)
    report = enumerate_groups(6)
    assert report.count == 1 and report.stats.iso_rejections == 1
    assert report.representatives[0].table.tolist() == c6.table.tolist()


@pytest.mark.parametrize("name", sorted(NOT_GROUP_TABLES))
def test_stub_kernel_non_group_leaf_raises_the_from_table_error(monkeypatch, name):
    rows = NOT_GROUP_TABLES[name]
    with pytest.raises(GroupError) as expected:
        from_table(6, rows)
    c6 = cyclic_group(6)
    leaves = [c6.table.tolist(), relabel_seeded(c6, 3).table.tolist(), rows]
    monkeypatch.setattr(enumeration, "_kernel", _StubKernel(leaves))
    checked = []
    check = enumeration._is_relabelling

    def counted(rep, leaf):
        checked.append(leaf.table.tolist())
        return check(rep, leaf)

    monkeypatch.setattr(enumeration, "_is_relabelling", counted)
    with pytest.raises(GroupError) as raised:
        enumerate_groups(6)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    # Only the loop shares C6's colour key and so meets the relabelling check.
    assert (rows in checked) == (rows is LOOP6)


def test_planted_wrong_map_is_refused(monkeypatch):
    c6 = cyclic_group(6)
    copy = relabel_seeded(c6, 3)
    leaf = enumeration._leaf(6, copy.table)
    assert enumeration._is_relabelling(c6, leaf)
    # Planted maps that are no relabelling: the identity (the tables
    # differ), a map that is not a permutation and one that leaves the range.
    for planted in [tuple(range(6)), (0, 1, 1, 3, 4, 5), (0, 1, 2, 3, 4, 6)]:
        monkeypatch.setattr(enumeration, "_image_search", lambda *a, m=planted, **k: [m])
        assert not enumeration._is_relabelling(c6, leaf)
    # The refused duplicate is then validated and kept as a second class.
    stub = _StubKernel([c6.table.tolist(), copy.table.tolist()])
    monkeypatch.setattr(enumeration, "_kernel", stub)
    report = enumerate_groups(6)
    assert report.count == 2 and report.stats.iso_rejections == 0
