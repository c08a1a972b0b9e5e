from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from cayley.core import cyclic_group, symmetric_group
from cayley.errors import (
    GroupError,
    JoinNotFullError,
    MeetNotTrivialError,
    MismatchedParentError,
    NotNormalError,
)
from cayley.morphisms import (
    automorphism_group,
    conj_normal,
    find_isomorphism,
    homs_to_aut,
    identity_iso,
    restrict,
)
from cayley.products import direct_product, sdp_congr, semidirect_product
from cayley.recognition import (
    DIRECT_KIND,
    JOIN_KIND,
    SEMIDIRECT_KIND,
    internal_direct,
    internal_semidirect,
    internal_semidirect_join,
    recognize,
)
from cayley.subgroups import (
    as_group,
    bot,
    closure,
    is_normal,
    join,
    meet,
    subgroup_from_members,
    subgroup_of_order,
    top,
)
from oracles import cached_enumeration


def test_s3_semidirect_witness(s3):
    a3 = subgroup_of_order(s3, 3)
    t2 = subgroup_of_order(s3, 2)
    witness = internal_semidirect(s3, a3, t2)
    assert not witness.phi.is_trivial()
    witness.iso.validate()
    assert find_isomorphism(witness.product.group, s3) is not None
    # The witness action is exactly the conjugation hom restricted to H.
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


def test_internal_direct_builds_one_product(product_builds, c6):
    # The witness's product has the direct product's table; none other is built.
    n, h = subgroup_from_members(c6, [0, 3]), subgroup_from_members(c6, [0, 2, 4])
    internal_direct(c6, n, h).validate()
    assert product_builds == [(2, 3)]


def _small_subgroups(g):
    """Distinct closures of at most two elements, and the whole group."""
    found = {top(g).members: top(g)}
    for x in range(g.order):
        for y in range(x, g.order):
            sub = closure(g, [x, y])
            found.setdefault(sub.members, sub)
    return list(found.values())


def _expected_error(recognizer, n, h):
    """The first failing hypothesis, in the order the recognizer checks them."""
    if not is_normal(n):
        return NotNormalError, "N"
    if recognizer is internal_direct and not is_normal(h):
        return NotNormalError, "H"
    if not meet(n, h).is_trivial():
        return MeetNotTrivialError, None
    if recognizer is not internal_semidirect_join and not join(n, h).is_full():
        return JoinNotFullError, None
    return None, None


def test_recognizers_check_the_hypotheses_in_order():
    groups = [symmetric_group(3)]
    groups += cached_enumeration(8).representatives + cached_enumeration(12).representatives
    recognizers = (internal_semidirect, internal_semidirect_join, internal_direct)
    calls = 0
    for g in groups:
        subs = _small_subgroups(g)
        for n, h in itertools.product(subs, subs):
            for recognizer in recognizers:
                calls += 1
                error, which = _expected_error(recognizer, n, h)
                if error is not None:
                    with pytest.raises(error) as excinfo:
                        recognizer(g, n, h)
                    if which is not None:
                        assert excinfo.value.which == which
                    continue
                result = recognizer(g, n, h)
                iso = result if recognizer is internal_direct else result.iso
                iso.validate()
                if recognizer is internal_semidirect_join:
                    continue
                for ni, n_elem in enumerate(n.members):
                    for hi, h_elem in enumerate(h.members):
                        assert iso.apply(g.mul(n_elem, h_elem)) == ni * len(h) + hi
    assert calls == 3192


def _corpus():
    """S3 and the representatives of orders 8 and 12, each with every pair
    of its small subgroups."""
    groups = [symmetric_group(3)]
    groups += cached_enumeration(8).representatives + cached_enumeration(12).representatives
    for g in groups:
        subs = _small_subgroups(g)
        for n, h in itertools.product(subs, subs):
            yield g, n, h


JOIN_WITNESS_SHA256 = "5b9d9662e4a30efb9f032848cc074d05089b43ee3617d8e56646c96314afc3fa"


def test_join_witnesses_are_pinned():
    # The error, or the product, action, iso and embedding of every call.
    outcomes = []
    for g, n, h in _corpus():
        try:
            w = internal_semidirect_join(g, n, h)
        except GroupError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            continue
        outcomes.append((
            w.product.group.table.tolist(),
            w.product.perms.tolist(),
            w.iso.source.table.tolist(),
            w.iso.forward.map,
            w.join_embedding,
        ))
    assert len(outcomes) == 1064
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == JOIN_WITNESS_SHA256


def test_witness_action_is_conjugation_restricted_to_h():
    checked = 0
    for g, n, h in _corpus():
        try:
            witness = internal_semidirect(g, n, h)
        except GroupError:
            continue
        assert witness.phi.map == restrict(conj_normal(g, n), h).map
        checked += 1
    assert checked == 139


def _dispatch_by_join(g, n, h):
    """The recognizer choice that recognize replaces: the join of N and H
    first, then H's normality, then one recognizer; the join variant as it
    was, the semidirect recognizer on the promoted join."""
    if not join(n, h).is_full():
        if not is_normal(n):
            raise NotNormalError("N")
        promoted = as_group(join(n, h))
        inner_n = subgroup_from_members(promoted.group, promoted.section[list(n.members)].tolist())
        inner_h = subgroup_from_members(promoted.group, promoted.section[list(h.members)].tolist())
        return JOIN_KIND, internal_semidirect(promoted.group, inner_n, inner_h).iso
    if is_normal(h):
        return DIRECT_KIND, internal_direct(g, n, h)
    return SEMIDIRECT_KIND, internal_semidirect(g, n, h).iso


def _recognition_outcome(dispatch, g, n, h):
    try:
        kind, iso = dispatch(g, n, h)
    except GroupError as exc:
        return type(exc).__name__, str(exc)
    return kind, iso.target.table.tolist(), iso.forward.map


def test_recognize_matches_the_dispatch_by_join():
    groups = [symmetric_group(3)]
    groups += cached_enumeration(8).representatives + cached_enumeration(12).representatives
    seen = set()
    for g in groups:
        subs = _small_subgroups(g)
        for n, h in itertools.product(subs, subs):
            expected = _recognition_outcome(_dispatch_by_join, g, n, h)
            assert _recognition_outcome(recognize, g, n, h) == expected
            seen.add(expected[0])
    assert seen == {
        JOIN_KIND, DIRECT_KIND, SEMIDIRECT_KIND, "NotNormalError", "MeetNotTrivialError",
    }


def test_recognizers_reject_subgroups_of_another_group(s3, c6):
    a3, t2 = subgroup_of_order(s3, 3), subgroup_of_order(s3, 2)
    c3, c2 = subgroup_of_order(c6, 3), subgroup_of_order(c6, 2)
    with pytest.raises(MismatchedParentError):
        internal_semidirect(c6, a3, t2)
    with pytest.raises(MismatchedParentError):
        internal_semidirect_join(cyclic_group(7), a3, t2)
    with pytest.raises(MismatchedParentError):
        internal_direct(s3, c3, c2)
    with pytest.raises(MismatchedParentError):
        recognize(c6, a3, t2)


def test_recognize_checks_each_hypothesis_once(monkeypatch, s3):
    # N's normality, then one gather for the meet and the join, then H's
    # normality only when N and H generate the group; no join is closed.
    import cayley.recognition
    import cayley.subgroups

    normal_checks, closures = [], []
    check = cayley.recognition.is_normal
    monkeypatch.setattr(
        cayley.recognition, "is_normal", lambda sub: normal_checks.append(sub) or check(sub)
    )
    monkeypatch.setattr(cayley.subgroups, "join", lambda *a: closures.append(a))
    a3, t2 = subgroup_of_order(s3, 3), subgroup_of_order(s3, 2)
    assert recognize(s3, a3, t2)[0] == SEMIDIRECT_KIND
    assert normal_checks == [a3, t2]
    ambient = direct_product(s3, cyclic_group(2))
    emb = ambient.embed_n.map
    n = subgroup_from_members(ambient.group, [emb[x] for x in a3.members])
    h = subgroup_from_members(ambient.group, [emb[x] for x in t2.members])
    normal_checks.clear()
    assert recognize(ambient.group, n, h)[0] == JOIN_KIND
    assert normal_checks == [n] and closures == []


def test_oversized_factors_fail_the_meet_by_counting(product_builds):
    # |N| |H| = 65^2 exceeds |G| = 65, so two pairs share a product; no
    # product past the order cap is attempted.
    g = cyclic_group(65)
    for recognizer in (internal_semidirect, internal_semidirect_join, internal_direct):
        with pytest.raises(MeetNotTrivialError):
            recognizer(g, top(g), top(g))
    assert product_builds == []


def test_recognition_searches_no_automorphisms(image_searches):
    s3, c6 = symmetric_group(3), cyclic_group(6)
    witness = internal_semidirect(s3, subgroup_of_order(s3, 3), subgroup_of_order(s3, 2))
    internal_semidirect(c6, subgroup_of_order(c6, 3), subgroup_of_order(c6, 2))
    internal_direct(c6, subgroup_of_order(c6, 3), subgroup_of_order(c6, 2))
    internal_direct(c6, subgroup_of_order(c6, 2), subgroup_of_order(c6, 3))
    assert image_searches == []
    assert not witness.phi.is_trivial() and image_searches == [True]


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
