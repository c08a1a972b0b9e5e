from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley import _fillcore, morphisms
from cayley.core import cyclic_group, from_table, symmetric_group
from cayley.errors import (
    BudgetExceededError,
    IdentityNotPreservedError,
    MismatchedParentError,
    NotBijectiveError,
    NotClosedError,
    NotLatinError,
    NotCyclicSourceError,
    NotMultiplicativeError,
)
from cayley.morphisms import (
    _composition_table,
    automorphism_group,
    conj_normal,
    cyclic_hom,
    find_isomorphism,
    fingerprint,
    fingerprint_mismatch,
    homs_to_aut,
    Iso,
    identity_iso,
    iso_from_forward,
    make_hom,
    restrict,
    trivial_hom,
)
from cayley.products import cyclic_power_semidirect, direct_product, semidirect_product
from cayley.subgroups import subgroup_of_order, top

from oracles import (
    naive_closure,
    naive_composition_table,
    naive_element_order,
    naive_hom_maps,
    relabel,
    relabel_seeded,
    small_group_corpus,
    totient,
)


def test_composition_checks_the_middle_group(s3, c6):
    to_c6 = make_hom(s3, c6, [0] * 6)
    with pytest.raises(MismatchedParentError):
        to_c6.then(make_hom(s3, s3, range(6)))
    c3 = cyclic_group(3)
    with pytest.raises(MismatchedParentError):
        identity_iso(c6).then(identity_iso(c3))
    # Equal tables in distinct objects still compose.
    assert identity_iso(c6).then(identity_iso(cyclic_group(6))).forward.map == tuple(range(6))


def test_apply_is_range_checked(c6):
    f = make_hom(c6, c6, [5 * x % 6 for x in range(6)])
    for bad in (-1, 6):
        for call in (lambda: f.apply(bad), lambda: iso_from_forward(f).apply(bad)):
            with pytest.raises(IndexError, match=f"element {bad} out of range for order 6"):
                call()
    assert (f.apply(5), iso_from_forward(f).apply(5)) == (1, 1)


def test_make_hom_parity():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    f = make_hom(c4, c2, [x % 2 for x in range(4)])
    for x in range(4):
        for y in range(4):
            assert f.map[c4.mul(x, y)] == c2.mul(f.map[x], f.map[y])
    assert f.image_size() == 2


def test_make_hom_rejects_with_witness():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotMultiplicativeError) as excinfo:
        make_hom(c4, c2, [0, 1, 0, 0])
    x, y = excinfo.value.pair
    bad = [0, 1, 0, 0]
    assert bad[c4.mul(x, y)] != c2.mul(bad[x], bad[y])
    with pytest.raises(IdentityNotPreservedError):
        make_hom(c2, c2, [1, 0])


def test_make_hom_rejects_entries_that_are_not_integers():
    c2 = cyclic_group(2)
    for mapping in ([0, 1.7], [0, 1.0], [0, "1"], [0, None]):
        with pytest.raises(ValueError, match="^map entries must be integers"):
            make_hom(c2, c2, mapping)
    for mapping in (
        [0, 2**40 + 1],
        np.array([0, 2**63], dtype=np.uint64),
        [0, 2**70],  # beyond 64 bits, an object array
        [0, -(2**70)],
    ):
        with pytest.raises(ValueError, match="^map has out-of-range values$"):
            make_hom(c2, c2, mapping)
    # numpy ints and bools are integers, as element indices are.
    for mapping in ([0, np.int64(1)], [False, True], np.array([0, 1], dtype=np.uint8)):
        assert make_hom(c2, c2, mapping).map == (0, 1)
        assert all(type(v) is int for v in make_hom(c2, c2, mapping).map)


def test_make_hom_accepts_exactly_the_homomorphisms(s3, klein):
    # make_hom checks f(x * g) = f(x) * f(g) on the source's generators only;
    # over every identity-preserving map it must agree with the n^2 oracle.
    c2, c4, c6 = cyclic_group(2), cyclic_group(4), cyclic_group(6)
    for src, dst in [(c4, c2), (s3, c2), (klein, s3), (c6, s3), (s3, s3)]:
        assert naive_closure(src, list(src.generators)) == tuple(range(src.order))
        homs = set(naive_hom_maps(src, dst))
        accepted = set()
        for tail in itertools.product(range(dst.order), repeat=src.order - 1):
            candidate = (0, *tail)
            try:
                accepted.add(make_hom(src, dst, candidate).map)
            except NotMultiplicativeError as exc:
                x, g = exc.pair
                assert g in src.generators
                assert candidate[src.mul(x, g)] != dst.mul(candidate[x], candidate[g])
        assert accepted == homs, (src.order, dst.order)


def test_non_bijection_is_named():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotBijectiveError):
        iso_from_forward(make_hom(c4, c2, [x % 2 for x in range(4)]))
    with pytest.raises(NotBijectiveError):
        iso_from_forward(make_hom(c4, c4, [0, 2, 0, 2]))
    # Two automorphisms that are not inverse to each other.
    doubling = make_hom(cyclic_group(5), cyclic_group(5), [2 * x % 5 for x in range(5)])
    with pytest.raises(NotBijectiveError):
        Iso(doubling, doubling).validate()


def test_automorphism_carrier_matches_naive_composition():
    c2 = cyclic_group(2)
    c2_cubed = direct_product(direct_product(c2, c2).group, c2).group
    groups = [cyclic_group(n) for n in range(1, 31)]
    groups += [symmetric_group(3), symmetric_group(4), c2_cubed]
    for g in groups:
        aut = automorphism_group(g)
        ident = tuple(range(g.order))
        assert aut.perms[0] == ident
        assert list(aut.perms[1:]) == sorted(aut.perms[1:])
        assert aut.carrier.table.tolist() == naive_composition_table(aut.perms)
        for i, p in enumerate(aut.perms):
            assert aut.auto_index(p) == i
            assert iso_from_forward(make_hom(g, g, p)).forward.map == p


def test_carrier_rejects_family_not_closed_under_composition():
    # Multiplication by 2 on C_5 without its square, multiplication by 4.
    perms = (tuple(range(5)), tuple(2 * x % 5 for x in range(5)))
    with pytest.raises(NotClosedError, match="automorphisms 1 and 1"):
        _composition_table(cyclic_group(5), perms)


def test_carrier_rejects_a_bijection_that_is_not_multiplicative():
    swap = (0, 2, 1, 3, 4)  # swaps 1 and 2 in C_5; its own inverse
    with pytest.raises(NotMultiplicativeError) as excinfo:
        _composition_table(cyclic_group(5), (tuple(range(5)), swap))
    x, g = excinfo.value.pair
    assert swap[(x + g) % 5] != (swap[x] + swap[g]) % 5


def test_carrier_of_a_non_injective_family_is_not_latin():
    # The zero map of C_2 is multiplicative but has no inverse in the family.
    perms = ((0, 1), (0, 0))
    with pytest.raises(NotLatinError):
        from_table(2, _composition_table(cyclic_group(2), perms))


def test_trivial_hom_everywhere():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    t = trivial_hom(c3, c2)
    assert t.is_trivial()
    aut7 = automorphism_group(cyclic_group(7))
    assert trivial_hom(c3, aut7.carrier).is_trivial()
    other = make_hom(c2, c3, [0, 0])
    assert t.then(other).is_trivial()


def test_identity_and_constant_maps(s3):
    ident = make_hom(s3, s3, range(6))
    assert ident.map == tuple(range(6))
    assert trivial_hom(s3, s3).image_size() == 1


def test_restrict(s3):
    ident = make_hom(s3, s3, range(6))
    full = restrict(ident, top(s3))
    assert full.map == tuple(range(6))
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    conj = conj_normal(s3, a3)
    # A transposition inverts the 3-cycles, so its image in Aut(C3) has order 2.
    restricted = restrict(conj, t2)
    assert restricted.target.element_order(restricted.map[1]) == 2
    assert not restricted.is_trivial()
    # A3 is abelian, so conjugation by its own elements acts trivially.
    assert restrict(conj, a3).is_trivial()
    # Restriction to the trivial subgroup is trivial.
    from cayley.subgroups import bot

    assert restrict(conj, bot(s3)).is_trivial()


def test_restrict_rejects_foreign_subgroup(s3, c6):
    from cayley.errors import MismatchedParentError

    ident = make_hom(s3, s3, range(6))
    with pytest.raises(MismatchedParentError):
        restrict(ident, subgroup_of_order(c6, 2))


def test_aut_c5_matches_formula():
    aut = automorphism_group(cyclic_group(5))
    assert aut.carrier.order == 4
    assert aut.carrier.is_cyclic()


def test_aut_c2_trivial():
    aut = automorphism_group(cyclic_group(2))
    assert aut.carrier.order == 1


def test_aut_c8_units_oracle():
    # Independent construction: automorphisms of C8 are x -> u*x for units u.
    units = [u for u in range(1, 8) if u % 2 == 1]
    expected = {tuple(u * x % 8 for x in range(8)) for u in units}
    aut = automorphism_group(cyclic_group(8))
    assert set(aut.perms) == expected
    assert aut.carrier.order == 4
    assert not aut.carrier.is_cyclic()
    assert all(aut.carrier.element_order(i) <= 2 for i in range(4))


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_aut_cyclic_order_is_totient(n):
    aut = automorphism_group(cyclic_group(n))
    assert aut.carrier.order == totient(n)


def test_aut_group_is_materialized_correctly(s3):
    aut = automorphism_group(s3)
    assert aut.carrier.order == 6  # Inn(S3) = S3, complete group
    assert len(set(aut.perms)) == len(aut.perms)
    for p in aut.perms:
        iso_from_forward(make_hom(s3, s3, p)).validate()
    # Carrier table is composition of the indexed automorphisms.
    for i in range(aut.carrier.order):
        for j in range(aut.carrier.order):
            composed = tuple(aut.perms[i][aut.perms[j][x]] for x in range(6))
            assert aut.carrier.mul(i, j) == aut.auto_index(composed)
    assert aut.perms[0] == tuple(range(6))


def test_aut_orders_of_small_group_classes():
    # Classical automorphism group orders: for order 8 the five classes
    # give 4 (C8), 8 (C4xC2), 8 (dihedral), 24 (quaternion), 168 (C2^3);
    # for order 12: 4 (C12), 12 (C2xC6), 12 (dihedral), 12 (dicyclic),
    # 24 (alternating).
    from oracles import cached_enumeration

    for n, expected in [(8, [4, 8, 8, 24, 168]), (12, [4, 12, 12, 12, 24])]:
        reps = cached_enumeration(n).representatives
        got = sorted(automorphism_group(g).carrier.order for g in reps)
        assert got == expected


def test_aut_elementary_abelian_nine():
    # |Aut(C3 x C3)| = (9-1)(9-3) = 48, the 2x2 invertible matrices mod 3.
    c3c3 = direct_product(cyclic_group(3), cyclic_group(3)).group
    assert automorphism_group(c3c3).carrier.order == 48


def test_a_permutation_that_is_not_an_automorphism_is_named(s3):
    aut = automorphism_group(s3)
    swap = (0, 2, 1, 3, 4, 5)
    with pytest.raises(NotClosedError, match=r"\(0, 2, 1, 3, 4, 5\) is not an automorphism"):
        aut.auto_index(swap)
    with pytest.raises(NotClosedError, match=r"\(0, 2, 1, 3, 4, 5\) is not an automorphism"):
        aut.hom(cyclic_group(2), [aut.perms[0], swap])


def test_aut_hom_validates_the_action():
    # Rows are automorphisms given as images; the map into the carrier is
    # checked multiplicative like every other Hom.
    aut = automorphism_group(cyclic_group(5))
    doubling = tuple(2 * x % 5 for x in range(5))
    phi = aut.hom(cyclic_group(4), [tuple(pow(2, j, 5) * x % 5 for x in range(5)) for j in range(4)])
    assert phi.map[1] == aut.auto_index(doubling) and phi.target == aut.carrier
    with pytest.raises(NotMultiplicativeError):
        aut.hom(cyclic_group(2), [aut.perms[0], doubling])


def test_aut_budget(monkeypatch):
    c2 = cyclic_group(2)
    c8_elementary = direct_product(direct_product(c2, c2).group, c2).group
    monkeypatch.setattr(morphisms, "AUT_CARRIER_LIMIT", 100)
    with pytest.raises(BudgetExceededError):
        automorphism_group(c8_elementary)  # |Aut| = 168


def test_conj_normal_abelian_is_trivial(c6):
    sub = subgroup_of_order(c6, 3)
    assert conj_normal(c6, sub).is_trivial()


def test_conj_normal_needs_a_subgroup_of_g(s3, c6):
    with pytest.raises(MismatchedParentError):
        conj_normal(c6, subgroup_of_order(s3, 3))


def test_conj_normal_s3(s3):
    a3 = subgroup_of_order(s3, 3)
    conj = conj_normal(s3, a3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    assert conj.target.element_order(conj.map[transposition]) == 2
    from cayley.subgroups import bot

    assert conj_normal(s3, bot(s3)).is_trivial()


def test_find_isomorphism_reflexive(s3):
    iso = find_isomorphism(s3, s3)
    assert iso.forward.map == tuple(range(6))
    iso.validate()


def test_find_isomorphism_rejects_c4_klein(klein):
    assert find_isomorphism(cyclic_group(4), klein) is None
    assert fingerprint_mismatch(cyclic_group(4), klein) == "element-order multisets"


def test_find_isomorphism_s3(s3):
    aut3 = automorphism_group(cyclic_group(3))
    inversion = homs_to_aut(cyclic_group(2), aut3)[1]
    sdp = semidirect_product(cyclic_group(3), cyclic_group(2), inversion)
    iso = find_isomorphism(sdp.group, s3)
    assert iso is not None
    iso.validate()


def test_find_isomorphism_reflexive_and_symmetric_over_corpus():
    corpus = small_group_corpus(10)
    for g in corpus:
        assert find_isomorphism(g, g) is not None
    for a in corpus:
        for b in corpus:
            if a.order != b.order:
                assert find_isomorphism(a, b) is None
                continue
            forward = find_isomorphism(a, b)
            backward = find_isomorphism(b, a)
            assert (forward is None) == (backward is None)


@settings(max_examples=30, deadline=None)
@given(perm_tail=st.permutations(list(range(1, 6))))
def test_find_isomorphism_under_relabeling(perm_tail):
    s3 = symmetric_group(3)
    shuffled = relabel(s3, [0] + list(perm_tail))
    iso = find_isomorphism(s3, shuffled)
    assert iso is not None
    iso.validate()
    assert fingerprint(s3) == fingerprint(shuffled)


def test_fingerprint_examples(s3, c6):
    aut3 = automorphism_group(cyclic_group(3))
    trivial_sdp = semidirect_product(
        cyclic_group(3), cyclic_group(2), trivial_hom(cyclic_group(2), aut3.carrier)
    )
    assert fingerprint(c6) == fingerprint(trivial_sdp.group)
    assert fingerprint(cyclic_group(4)) != fingerprint(
        direct_product(cyclic_group(2), cyclic_group(2)).group
    )
    assert fingerprint(s3)[4] == (1, 2, 3)


def test_homs_to_aut_counts():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    aut5 = automorphism_group(cyclic_group(5))
    homs = homs_to_aut(c3, aut5)
    assert len(homs) == 1 and homs[0].is_trivial()
    aut3 = automorphism_group(c3)
    homs = homs_to_aut(c2, aut3)
    assert len(homs) == 2
    assert homs[0].is_trivial() and not homs[1].is_trivial()
    aut7 = automorphism_group(cyclic_group(7))
    homs = homs_to_aut(c3, aut7)
    assert len(homs) == 3
    assert homs[0].is_trivial()
    assert sum(1 for h in homs if not h.is_trivial()) == 2


def test_homs_to_aut_against_brute_force():
    c3 = cyclic_group(3)
    aut7 = automorphism_group(cyclic_group(7))
    expected = {m for m in naive_hom_maps(c3, aut7.carrier)}
    got = {h.map for h in homs_to_aut(c3, aut7)}
    assert got == expected


def test_homs_to_aut_needs_cyclic_source(s3):
    with pytest.raises(NotCyclicSourceError):
        homs_to_aut(s3, automorphism_group(cyclic_group(3)))


def _power_oracle(group, x: int, j: int) -> int:
    """x^j by j - 1 right multiplications."""
    y = 0
    for _ in range(j):
        y = group.mul(y, x)
    return y


def test_cyclic_hom_matches_repeated_multiplication(s3):
    relabelled_c6 = relabel(cyclic_group(6), [0, 4, 2, 5, 1, 3])
    gen = relabelled_c6.cyclic_generator()
    assert gen != 1
    cases = [(relabelled_c6, s3, x) for x in range(6)]  # S3's element orders divide 6
    cases += [(cyclic_group(12), cyclic_group(12), x) for x in range(12)]
    cases += [(cyclic_group(6), relabelled_c6, x) for x in range(6)]
    for source, target, image in cases:
        f = cyclic_hom(source, target, image)
        g = source.cyclic_generator()
        for j in range(source.order):
            assert f.map[_power_oracle(source, g, j)] == _power_oracle(target, image, j)


def test_cyclic_hom_rejects_bad_sources_and_images(s3):
    with pytest.raises(NotCyclicSourceError):
        cyclic_hom(s3, cyclic_group(6), 1)
    with pytest.raises(NotMultiplicativeError):
        cyclic_hom(cyclic_group(4), cyclic_group(3), 1)  # order 3 does not divide 4
    with pytest.raises(NotMultiplicativeError):
        cyclic_hom(cyclic_group(2), s3, next(x for x in range(6) if s3.element_order(x) == 3))


def test_hom_composition_stays_valid(s3, c6):
    parity_map = [0 if s3.element_order(x) != 2 else 1 for x in range(6)]
    # sign homomorphism S3 -> C2: 3-cycles and identity to 0, transpositions to 1.
    sign = make_hom(s3, cyclic_group(2), parity_map)
    lift = make_hom(cyclic_group(2), cyclic_group(4), [0, 2])
    composite = sign.then(lift)
    assert composite.map == tuple(2 * v for v in parity_map)


def test_identity_iso_roundtrip(c6):
    iso = identity_iso(c6)
    iso.validate()
    assert iso.inverse().forward.map == iso.forward.map


def _element_stats_oracle(g):
    """(order, conjugacy class size, order of the square, number of square
    roots) by brute force."""
    orders = [naive_element_order(g, x) for x in range(g.order)]
    stats = []
    for x in range(g.order):
        conjugates = {g.mul(g.mul(y, x), g.inv(y)) for y in range(g.order)}
        roots = sum(g.mul(y, y) == x for y in range(g.order))
        stats.append((orders[x], len(conjugates), orders[g.mul(x, x)], roots))
    return stats


def test_element_stats_match_brute_force():
    groups = small_group_corpus(10) + [
        cyclic_group(300),
        cyclic_power_semidirect(97, 3, 35).group,
    ]
    for g in groups:
        decoded = zip(*(morphisms._colour_part(g, part).tolist() for part in range(4)))
        assert list(decoded) == _element_stats_oracle(g), g.order


def test_colour_keys_partition_like_the_oracle():
    # Two groups get equal colour keys exactly when their sorted brute-force
    # colours agree. Some order-16 classes differ only in their square-root
    # counts, so every part of the colour must reach the key.
    groups = small_group_corpus(10) + _order16_classes_times(1) + _order16_classes_times(3)
    keys = [morphisms._colour_key(g) for g in groups]
    oracle = [sorted(_element_stats_oracle(g)) for g in groups]
    for i, j in itertools.combinations(range(len(groups)), 2):
        assert (keys[i] == keys[j]) == (oracle[i] == oracle[j]), (i, j)


def test_class_ids_match_brute_force():
    # The id of x is the least element of its conjugacy class.
    for g in small_group_corpus(10) + _order16_classes_times(1):
        oracle = [
            min(g.mul(g.mul(h, x), g.inv(h)) for h in range(g.order)) for x in range(g.order)
        ]
        assert morphisms._class_ids(g) == oracle, g.order


def _check_walks_hold_no_table_copy(g, expected_orders):
    """Element orders, fingerprint and an isomorphism search on g must
    allocate well under one nested-list copy of the table (about 10x its
    int32 bytes), and still give the right answers."""
    h = relabel_seeded(g, seed=g.order)
    tracemalloc.start()
    try:
        orders = g.element_orders()
        fingerprint(g)
        iso = find_isomorphism(g, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orders == expected_orders
    assert iso is not None
    iso.validate()
    assert peak < 4 * g.table.nbytes, (peak, g.table.nbytes)


_stress = pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"), reason="near the 4096 cap; set CAYLEY_STRESS=1 to run"
)


@pytest.mark.parametrize("n", [1024, pytest.param(4096, marks=_stress)])
def test_size_cap_cyclic_walks_hold_no_table_copy(n):
    expected = tuple(n // math.gcd(i, n) for i in range(n))
    _check_walks_hold_no_table_copy(cyclic_group(n), expected)


@pytest.mark.parametrize("k", [10, pytest.param(12, marks=_stress)])
def test_size_cap_elementary_abelian_walks_hold_no_table_copy(k):
    idx = np.arange(1 << k, dtype=np.int32)
    g = from_table(1 << k, idx[:, None] ^ idx[None, :])
    _check_walks_hold_no_table_copy(g, (1,) + (2,) * (g.order - 1))


@pytest.mark.parametrize("q", [331, pytest.param(1291, marks=_stress)])
def test_size_cap_nonabelian_walks_hold_no_table_copy(q):
    # C_q x| C_3 (order 993, or 3873 near the cap): gens[0] generates C_q
    # and is not central, so the search also computes the class ids of
    # the target.
    k = next(k for k in range(2, q) if pow(k, 3, q) == 1)
    g = cyclic_power_semidirect(q, 3, k).group
    assert g.order // g.centralizer_sizes()[morphisms.generating_sequence(g)[0]] > 1
    expected = tuple(1 if i == 0 else q if i % 3 == 0 else 3 for i in range(g.order))
    _check_walks_hold_no_table_copy(g, expected)


# sha256 of the first isomorphism found and of the automorphism lists.
# The candidate order and the depth-first order of the search fix both, and
# CLI output (witness maps, Aut listings) depends on them, so pruning the
# search may make it faster but must not change them.
FIND_ISOMORPHISM_DIGEST = "01ae2b1458a11baa82a3ac42e174aa93aa2a351c37914240d75e582d6fe23716"
AUTOMORPHISM_PERMS_DIGEST = "ec05e3995aab8c89cdee2c24c45e2c74453bfe97aa7f9d4ae99c9454b3fa1252"


def _order16_classes_times(m):
    from oracles import cached_enumeration

    reps = list(cached_enumeration(16).representatives)
    return reps if m == 1 else [direct_product(g, cyclic_group(m)).group for g in reps]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_search_output_is_pinned():
    corpus = _order16_classes_times(1) + _order16_classes_times(3)
    maps = [
        find_isomorphism(g, relabel_seeded(g, seed)).forward.map for seed, g in enumerate(corpus)
    ]
    assert _digest(maps) == FIND_ISOMORPHISM_DIGEST
    groups = [
        cyclic_group(21),
        cyclic_power_semidirect(7, 3, 2).group,
        direct_product(cyclic_group(3), cyclic_group(3)).group,
        symmetric_group(3),
    ]
    perms = [automorphism_group(relabel_seeded(g, 7)).perms for g in groups]
    assert _digest(perms) == AUTOMORPHISM_PERMS_DIGEST


@functools.cache
def _colour_colliding_pair():
    """The first pair of non-isomorphic groups (C9 x C3) x| C3, over the
    actions homs_to_aut(C3, Aut(C9 x C3)), whose colour keys agree, so the
    search rejects it only after trying every branch. Non-isomorphism is
    shown without the search: one group is generated by two elements and
    the other is not."""
    n = direct_product(cyclic_group(9), cyclic_group(3)).group
    c3 = cyclic_group(3)
    actions = homs_to_aut(c3, automorphism_group(n))
    groups = [semidirect_product(n, c3, phi).group for phi in actions]
    return next(
        (a, b)
        for a, b in itertools.combinations(groups, 2)
        if morphisms._colour_key(a) == morphisms._colour_key(b)
        and _two_generated(a) != _two_generated(b)
    )


def _two_generated(g) -> bool:
    return any(
        len(naive_closure(g, [x, y])) == g.order
        for x, y in itertools.combinations(range(g.order), 2)
    )


@pytest.mark.parametrize("m", [1, 3])
def test_exhaustive_negatives_and_relabelled_positives(m):
    # A direct factor C_m keeps the pair non-isomorphic (Krull-Schmidt)
    # and its colour keys equal: the colour of (x, z) is a function of the
    # colours of x and z.
    a, b = (
        g if m == 1 else direct_product(g, cyclic_group(m)).group for g in _colour_colliding_pair()
    )
    assert fingerprint(a) == fingerprint(b)
    assert morphisms._colour_key(a) == morphisms._colour_key(b)
    a, b = relabel_seeded(a, 0), relabel_seeded(b, 1)
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None
    for seed, g in enumerate(_order16_classes_times(m)):
        find_isomorphism(g, relabel_seeded(g, 100 + seed)).validate()


def test_search_node_budget(monkeypatch):
    a, b = _colour_colliding_pair()
    assert find_isomorphism(a, b) is None
    monkeypatch.setattr(morphisms, "SEARCH_NODE_LIMIT", 100)
    with pytest.raises(BudgetExceededError, match="^isomorphism search node budget exceeded$"):
        find_isomorphism(a, b)


def test_conjugacy_pruning_is_live(monkeypatch):
    # Trying every candidate for gens[0] takes 2,970 nodes on this order-81
    # pair; one candidate per conjugacy class of the target (gens[0] has
    # class size 3) takes 990.
    a, b = _colour_colliding_pair()
    assert a.order // a.centralizer_sizes()[morphisms.generating_sequence(a)[0]] == 3
    monkeypatch.setattr(morphisms, "SEARCH_NODE_LIMIT", 1000)
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, a) is None


def test_searches_leave_no_reference_cycles():
    # The kernel and the isomorphism search free their state when they
    # return, not at some later full garbage collection, so long runs keep
    # a flat peak memory.
    a, b = _colour_colliding_pair()
    h = relabel_seeded(a, 3)
    calls = [
        lambda: _fillcore.enumerate_group_tables(8),
        lambda: find_isomorphism(a, b),
        lambda: find_isomorphism(a, h),
    ]
    for call in calls:
        call()  # caches the colour keys and element codes first
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
