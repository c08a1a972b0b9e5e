from __future__ import annotations

import pytest

from cayley import morphisms
from cayley.core import cyclic_group
from cayley.errors import (
    IncompatibleActionError,
    InvalidActionError,
    MismatchedParentError,
    SizeCapError,
)
from cayley.morphisms import (
    automorphism_group,
    conj_normal,
    find_isomorphism,
    homs_to_aut,
    identity_iso,
    iso_from_forward,
    make_hom,
    restrict,
)
from cayley.products import (
    cyclic_power_semidirect,
    direct_product,
    sdp_congr,
    sdp_trivial_iso_direct,
    semidirect_product,
)
from cayley.subgroups import is_normal, join, meet


def build_sdp(n, p_order, hom_index):
    """C_n x| C_{p_order} using the hom_index-th hom into Aut(C_n)."""
    base = cyclic_group(n)
    acting = cyclic_group(p_order)
    aut = automorphism_group(base)
    phi = homs_to_aut(acting, aut)[hom_index]
    return semidirect_product(base, acting, phi), phi


def test_direct_product_examples(klein):
    trivial = cyclic_group(1)
    c5 = cyclic_group(5)
    dp = direct_product(trivial, c5)
    assert find_isomorphism(dp.group, c5) is not None
    assert klein.order == 4
    assert not klein.is_cyclic()
    assert all(m <= 2 for m in klein.element_orders())
    dp23 = direct_product(cyclic_group(2), cyclic_group(3))
    assert find_isomorphism(dp23.group, cyclic_group(6)) is not None


def test_cardinality_law():
    for n, h in [(1, 1), (2, 3), (4, 4), (5, 2)]:
        assert direct_product(cyclic_group(n), cyclic_group(h)).group.order == n * h
    for hom_index in range(2):
        sdp, _ = build_sdp(3, 2, hom_index)
        assert sdp.group.order == 6
    sdp21, _ = build_sdp(7, 3, 1)
    assert sdp21.group.order == 21


def test_size_cap():
    with pytest.raises(SizeCapError):
        direct_product(cyclic_group(100), cyclic_group(100))


def test_embeddings_and_canonical_subgroups():
    sdp, _ = build_sdp(3, 2, 1)
    g = sdp.group
    assert len(set(sdp.embed_n.map)) == 3
    assert len(set(sdp.embed_h.map)) == 2
    assert meet(sdp.canonical_n, sdp.canonical_h).members == (0,)
    assert join(sdp.canonical_n, sdp.canonical_h).members == tuple(range(6))
    assert is_normal(sdp.canonical_n)
    dp = direct_product(cyclic_group(4), cyclic_group(2))
    assert is_normal(dp.canonical_n) and is_normal(dp.canonical_h)


def test_semidirect_examples(s3):
    inversion_sdp, _ = build_sdp(3, 2, 1)
    assert find_isomorphism(inversion_sdp.group, s3) is not None
    trivial_sdp, _ = build_sdp(3, 2, 0)
    assert trivial_sdp.group.is_abelian()


def test_semidirect_rejects_bad_action():
    c3, c2, c5 = cyclic_group(3), cyclic_group(2), cyclic_group(5)
    aut3 = automorphism_group(c3)
    phi = homs_to_aut(c2, aut3)[1]
    with pytest.raises(InvalidActionError):
        semidirect_product(c5, c2, phi)
    with pytest.raises(InvalidActionError):
        semidirect_product(c3, c5, phi)


def test_pair_indexing():
    sdp, _ = build_sdp(5, 2, 1)
    for n in range(5):
        for h in range(2):
            idx = sdp.pair_index(n, h)
            assert sdp.unpair(idx) == (n, h)
    assert sdp.pair_index(0, 0) == 0


def test_product_indices_are_range_checked():
    dp = direct_product(cyclic_group(2), cyclic_group(3))
    sdp, _ = build_sdp(7, 3, 1)
    for call, bad, order in (
        (lambda: dp.action(-1, 0), -1, 3),
        (lambda: dp.action(0, 2), 2, 2),
        (lambda: sdp.action(-1, 1), -1, 3),
        (lambda: sdp.action(1, 7), 7, 7),
        (lambda: dp.pair_index(-1, 0), -1, 2),
        (lambda: dp.pair_index(2, 0), 2, 2),
        (lambda: dp.pair_index(0, -1), -1, 3),
        (lambda: dp.pair_index(0, 3), 3, 3),
        (lambda: dp.unpair(-1), -1, 6),
        (lambda: dp.unpair(6), 6, 6),
    ):
        with pytest.raises(IndexError, match=f"element {bad} out of range for order {order}"):
            call()
    assert (dp.pair_index(1, 2), dp.unpair(5)) == (5, (1, 2))


def test_cyclic_power_semidirect_searches_aut_once(monkeypatch):
    calls = []
    search = morphisms._image_search

    def counted(g1, g2, gens, *, find_all):
        calls.append(find_all)
        return search(g1, g2, gens, find_all=find_all)

    monkeypatch.setattr(morphisms, "_image_search", counted)
    sdp = cyclic_power_semidirect(7, 3, 2)
    assert calls == [True]
    assert automorphism_group(sdp.n_factor) is sdp.aut


def test_sdp_trivial_iso_direct():
    cases = [(1, 1), (3, 2), (5, 5)]
    for n, h in cases:
        iso = sdp_trivial_iso_direct(cyclic_group(n), cyclic_group(h))
        iso.validate()
        assert iso.forward.map == tuple(range(n * h))


def test_sdp_congr_identity():
    sdp, phi = build_sdp(7, 3, 1)
    ident_n = identity_iso(cyclic_group(7))
    ident_h = identity_iso(cyclic_group(3))
    iso = sdp_congr(ident_n, ident_h, sdp, sdp)
    assert iso.forward.map == tuple(range(21))


def test_sdp_congr_twisted_by_automorphism():
    # f1 an automorphism of C7, f2 identity: compatible with phi2 = phi1
    # because Aut(C7) is abelian.
    sdp, phi = build_sdp(7, 3, 1)
    c7 = cyclic_group(7)
    alpha_map = [3 * x % 7 for x in range(7)]
    alpha = iso_from_forward(make_hom(c7, c7, alpha_map))
    iso = sdp_congr(alpha, identity_iso(cyclic_group(3)), sdp, sdp)
    iso.validate()
    assert iso.forward.map != tuple(range(21))


def test_sdp_congr_connects_different_actions():
    # phi2 = phi1 squared is reached with f2 inverting the acting group.
    sdp1, phi1 = build_sdp(7, 3, 1)
    sdp2, phi2 = build_sdp(7, 3, 2)
    assert phi1.map != phi2.map
    c3 = cyclic_group(3)
    invert = iso_from_forward(make_hom(c3, c3, [0, 2, 1]))
    iso = sdp_congr(identity_iso(cyclic_group(7)), invert, sdp1, sdp2)
    iso.validate()


def test_sdp_congr_rejects_with_witness():
    sdp1, phi1 = build_sdp(7, 3, 1)
    sdp2, phi2 = build_sdp(7, 3, 2)
    ident7 = identity_iso(cyclic_group(7))
    ident3 = identity_iso(cyclic_group(3))
    with pytest.raises(IncompatibleActionError) as excinfo:
        sdp_congr(ident7, ident3, sdp1, sdp2)
    n1, h1 = excinfo.value.pair
    assert sdp2.action(h1, n1) != sdp1.action(h1, n1)


def test_sdp_congr_needs_the_products_factors():
    sdp, _ = build_sdp(7, 3, 1)
    ident7, ident3 = identity_iso(cyclic_group(7)), identity_iso(cyclic_group(3))
    with pytest.raises(MismatchedParentError):
        sdp_congr(ident3, ident7, sdp, sdp)
    dp = direct_product(cyclic_group(7), cyclic_group(3))
    with pytest.raises(IncompatibleActionError):
        sdp_congr(ident7, ident3, sdp, dp)
    assert sdp_congr(ident7, ident3, dp, dp).forward.map == tuple(range(21))


def test_conj_normal_recovers_action():
    # The defining property: conjugation in N x| H restricted to the H copy
    # reproduces the action phi through the canonical identifications.
    for n, p_order, hom_index in [(3, 2, 1), (7, 3, 1), (7, 3, 2), (5, 4, 3)]:
        sdp, phi = build_sdp(n, p_order, hom_index)
        conj = conj_normal(sdp.group, sdp.canonical_n)
        recovered = restrict(conj, sdp.canonical_h)
        assert recovered.source == sdp.h_factor
        assert recovered.map == phi.map


def test_products_validate():
    for n, h in [(2, 2), (3, 4), (6, 2)]:
        dp = direct_product(cyclic_group(n), cyclic_group(h))
        dp.group.validate()
    sdp, _ = build_sdp(9, 3, 1)
    sdp.group.validate()
    assert not sdp.group.is_abelian()


def test_semidirect_of_nonabelian_base(s3):
    # Action of C2 on S3 by an inner automorphism of order 2.
    aut = automorphism_group(s3)
    c2 = cyclic_group(2)
    order2 = next(i for i in range(1, 6) if aut.carrier.element_order(i) == 2)
    phi = make_hom(c2, aut.carrier, [0, order2])
    sdp = semidirect_product(s3, c2, phi)
    assert sdp.group.order == 12
    sdp.group.validate()
    assert is_normal(sdp.canonical_n)
