from __future__ import annotations

import random

import pytest

from cayley.core import cyclic_group
from cayley.errors import JoinNotFullError, MeetNotTrivialError, NotNormalError
from cayley.morphisms import (
    automorphism_group,
    find_isomorphism,
    homs_to_aut,
    identity_iso,
)
from cayley.products import direct_product, sdp_congr, semidirect_product
from cayley.recognition import (
    internal_direct,
    internal_semidirect,
    internal_semidirect_join,
)
from cayley.subgroups import bot, subgroup_from_members, subgroup_of_order, top


def test_s3_semidirect_witness(s3):
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    witness = internal_semidirect(s3, a3, t2)
    assert not witness.phi.is_trivial()
    witness.iso.validate()
    assert find_isomorphism(witness.product.group, s3) is not None
    # The witness action is exactly the conjugation hom restricted to H.
    from cayley.morphisms import conj_normal, restrict

    assert witness.phi.map == restrict(conj_normal(s3, a3), t2).map
    # Brute-force factorization check: the iso inverts g = n*h.
    for ni, n_elem in enumerate((0, 3, 4)):
        for hi, h_elem in enumerate(t2.members):
            g = s3.mul(n_elem, h_elem)
            assert witness.iso.apply(g) == witness.product.pair_index(ni, hi)


def test_c6_direct_and_semidirect_agree(c6):
    n3 = subgroup_of_order(c6, 3)
    h2 = subgroup_of_order(c6, 2)
    witness = internal_semidirect(c6, n3, h2)
    assert witness.phi.is_trivial()
    direct_iso = internal_direct(c6, n3, h2)
    # Same underlying map, element by element (trivial action case).
    assert direct_iso.forward.map == witness.iso.forward.map
    assert find_isomorphism(direct_iso.target, c6) is not None


def test_error_precision(s3):
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    with pytest.raises(NotNormalError):
        internal_semidirect(s3, t2, a3)
    c4 = cyclic_group(4)
    two = subgroup_of_order(c4, 2)
    with pytest.raises(MeetNotTrivialError):
        internal_semidirect(c4, two, two)
    c2 = cyclic_group(2)
    cube = direct_product(direct_product(c2, c2).group, c2).group
    n = subgroup_from_members(cube, [0, 1])
    h = subgroup_from_members(cube, [0, 2])
    with pytest.raises(JoinNotFullError):
        internal_semidirect(cube, n, h)
    with pytest.raises(NotNormalError) as excinfo:
        internal_direct(s3, a3, t2)
    assert excinfo.value.which == "H"


def test_internal_direct_needs_both_normal(s3, c6):
    with pytest.raises(NotNormalError) as excinfo:
        internal_direct(s3, subgroup_of_order(s3, 2), subgroup_of_order(s3, 3))
    assert excinfo.value.which == "N"
    iso = internal_direct(c6, subgroup_of_order(c6, 3), subgroup_of_order(c6, 2))
    iso.validate()
    assert iso.target.order == 6


def test_internal_direct_builds_two_products(monkeypatch, c6):
    # The witness's trivial semidirect product and the direct product.
    import cayley.products as products

    n, h = subgroup_from_members(c6, [0, 3]), subgroup_from_members(c6, [0, 2, 4])
    assemble, builds = products._assemble, []
    monkeypatch.setattr(products, "_assemble", lambda *args: builds.append(1) or assemble(*args))
    internal_direct(c6, n, h).validate()
    assert len(builds) == 2


def test_join_variant_inside_bigger_group(s3):
    ambient = direct_product(s3, cyclic_group(2))
    g = ambient.group
    emb = ambient.embed_n.map
    a3_members = [emb[x] for x in (0, 3, 4)]
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    n = subgroup_from_members(g, a3_members)
    h = subgroup_from_members(g, [0, emb[transposition]])
    witness = internal_semidirect_join(g, n, h)
    assert witness.join_embedding is not None
    assert len(witness.join_embedding) == 6
    assert witness.product.group.order == 6
    assert find_isomorphism(witness.product.group, s3) is not None
    witness.iso.validate()


def test_join_variant_degenerate_cases(s3):
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    w = internal_semidirect_join(s3, bot(s3), t2)
    assert w.product.group.order == 2
    assert find_isomorphism(w.product.group, cyclic_group(2)) is not None
    w = internal_semidirect_join(s3, a3, bot(s3))
    assert w.product.group.order == 3
    assert find_isomorphism(w.product.group, cyclic_group(3)) is not None


def test_join_variant_checks_normality_in_parent(s3):
    with pytest.raises(NotNormalError):
        internal_semidirect_join(s3, subgroup_of_order(s3, 2), bot(s3))


def test_round_trip_external_products():
    rng = random.Random(1105)
    n_pool = [2, 3, 4, 5, 6, 7, 8, 9]
    h_pool = [2, 3, 4, 5, 6]
    for _ in range(8):
        n_order = rng.choice(n_pool)
        h_order = rng.choice(h_pool)
        base = cyclic_group(n_order)
        acting = cyclic_group(h_order)
        aut = automorphism_group(base)
        homs = homs_to_aut(acting, aut)
        phi = rng.choice(homs)
        product = semidirect_product(base, acting, phi)
        witness = internal_semidirect(
            product.group, product.canonical_n, product.canonical_h
        )
        witness.iso.validate()
        # The promoted factors coincide with the original ones, so identity
        # isomorphisms must satisfy the compatibility hypothesis.
        assert witness.product.n_factor == base
        assert witness.product.h_factor == acting
        # Factorization fixes the normal factor pointwise in pair form.
        for n_idx in range(base.order):
            assert witness.iso.apply(product.embed_n.map[n_idx]) == (
                witness.product.pair_index(n_idx, 0)
            )
        bridge = sdp_congr(
            identity_iso(witness.product.n_factor, base),
            identity_iso(witness.product.h_factor, acting),
            witness.product,
            product,
        )
        composite = witness.iso.then(bridge)
        composite.validate()


def test_full_group_as_join(s3):
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    w_full = internal_semidirect(s3, a3, t2)
    w_join = internal_semidirect_join(s3, a3, t2)
    assert w_join.product.group == w_full.product.group
    assert w_join.join_embedding == tuple(range(6))
    assert top(s3).is_full()
