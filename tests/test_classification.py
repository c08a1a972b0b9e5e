from __future__ import annotations

import os

import pytest

from cayley.classification import (
    CyclicResult,
    ElementaryAbelianResult,
    SemidirectResult,
    canonical_noncyclic,
    classify,
    express_as_semidirect,
    noncyclic_exists,
    order_shape,
    smallest_action_exponent,
    verify_theorem,
    verify_uniqueness,
)
from cayley.core import cyclic_group, symmetric_group
from cayley.errors import (
    BadOrderError,
    BudgetExceededError,
    HypothesisFailedError,
    NoNoncyclicGroupError,
    NotPrimeError,
    UnsupportedOrderError,
)
from cayley.morphisms import automorphism_group, find_isomorphism, homs_to_aut
from cayley.products import direct_product, semidirect_product
from cayley.subgroups import is_prime

from oracles import is_multiplicative, relabel_seeded

PRIMES = [p for p in range(2, 100) if is_prime(p)]


def test_order_shape():
    assert order_shape(4) == order_shape(4)
    assert order_shape(4).kind == "prime-squared" and order_shape(4).p == 2
    assert order_shape(15).kind == "distinct-primes"
    assert (order_shape(15).p, order_shape(15).q) == (3, 5)
    for n in [1, 2, 7, 8, 12, 30, 16, 27]:
        assert order_shape(n).kind == "unsupported"


def test_noncyclic_exists_examples():
    assert noncyclic_exists(5, 5)
    assert noncyclic_exists(2, 3)
    assert not noncyclic_exists(3, 5)
    with pytest.raises(NotPrimeError):
        noncyclic_exists(4, 3)


def test_noncyclic_exists_symmetric():
    pairs = [(p, q) for p in PRIMES for q in PRIMES if p * q <= 200]
    for p, q in pairs:
        assert noncyclic_exists(p, q) == noncyclic_exists(q, p)
        assert noncyclic_exists(p, q) == (p == q or (q - 1) % p == 0 or (p - 1) % q == 0)


def test_canonical_noncyclic_examples(s3):
    g6 = canonical_noncyclic(2, 3)
    assert find_isomorphism(g6, s3) is not None
    g9 = canonical_noncyclic(3, 3)
    assert g9.order == 9 and not g9.is_cyclic()
    assert all(m in (1, 3) for m in g9.element_orders())
    g21 = canonical_noncyclic(3, 7)
    assert g21.order == 21 and not g21.is_cyclic()
    assert smallest_action_exponent(3, 7) == 2
    assert pow(2, 3, 7) == 1 and pow(2, 1, 7) != 1 and pow(2, 2, 7) != 1
    with pytest.raises(NoNoncyclicGroupError):
        canonical_noncyclic(3, 5)
    # Argument order must not matter.
    assert canonical_noncyclic(7, 3) == g21


def test_classify_cyclic_cases():
    r = classify(cyclic_group(15))
    assert isinstance(r, CyclicResult)
    r.iso.validate()
    assert r.iso.target == cyclic_group(15)
    r77 = classify(cyclic_group(77))  # 7*11: neither divides the other minus one
    assert isinstance(r77, CyclicResult)
    assert not noncyclic_exists(7, 11)
    r4 = classify(cyclic_group(4))
    assert isinstance(r4, CyclicResult)


def test_classify_s3(s3):
    r = classify(s3)
    assert isinstance(r, SemidirectResult)
    assert (r.p, r.q, r.k) == (2, 3, 2)
    assert not r.phi.is_trivial()
    r.iso.validate()
    assert r.iso.target == canonical_noncyclic(2, 3)


def test_classify_elementary_abelian():
    g = direct_product(cyclic_group(5), cyclic_group(5)).group
    r = classify(g)
    assert isinstance(r, ElementaryAbelianResult) and r.p == 5
    r.iso.validate()
    assert r.iso.target == g  # the input is already the canonical representative
    klein_r = classify(direct_product(cyclic_group(2), cyclic_group(2)).group)
    assert isinstance(klein_r, ElementaryAbelianResult) and klein_r.p == 2


def test_classify_unsupported():
    for n in [1, 2, 7, 8, 12]:
        with pytest.raises(UnsupportedOrderError):
            classify(cyclic_group(n))


def test_classify_order_21_both_actions():
    aut7 = automorphism_group(cyclic_group(7))
    homs = homs_to_aut(cyclic_group(3), aut7)
    nontrivial = [h for h in homs if not h.is_trivial()]
    assert len(nontrivial) == 2
    for phi in nontrivial:
        g = semidirect_product(cyclic_group(7), cyclic_group(3), phi).group
        r = classify(g)
        assert isinstance(r, SemidirectResult)
        assert (r.p, r.q, r.k) == (3, 7, 2)
        r.iso.validate()


def test_express_as_semidirect():
    phi, iso = express_as_semidirect(cyclic_group(15), 3, 5)
    assert phi.is_trivial()
    iso.validate()
    phi6, iso6 = express_as_semidirect(cyclic_group(6), 2, 3)
    assert phi6.is_trivial()
    iso6.validate()
    s3 = symmetric_group(3)
    phi_s3, iso_s3 = express_as_semidirect(s3, 2, 3)
    assert not phi_s3.is_trivial()
    iso_s3.validate()
    with pytest.raises(BadOrderError):
        express_as_semidirect(cyclic_group(15), 5, 3)
    with pytest.raises(BadOrderError):
        express_as_semidirect(cyclic_group(14), 3, 5)


def test_verify_uniqueness_order6(s3):
    other = canonical_noncyclic(2, 3)
    iso = verify_uniqueness(s3, other)
    iso.validate()
    assert iso.source == s3 and iso.target == other


def test_verify_uniqueness_order21_phi_independence():
    aut7 = automorphism_group(cyclic_group(7))
    nontrivial = [h for h in homs_to_aut(cyclic_group(3), aut7) if not h.is_trivial()]
    g1 = semidirect_product(cyclic_group(7), cyclic_group(3), nontrivial[0]).group
    g2 = semidirect_product(cyclic_group(7), cyclic_group(3), nontrivial[1]).group
    iso = verify_uniqueness(g1, g2)
    iso.validate()
    assert find_isomorphism(g1, g2) is not None


def test_verify_uniqueness_hypothesis_errors(s3, c6):
    with pytest.raises(HypothesisFailedError) as excinfo:
        verify_uniqueness(c6, s3)
    assert "cyclic" in excinfo.value.which
    with pytest.raises(HypothesisFailedError) as excinfo:
        verify_uniqueness(s3, cyclic_group(10))
    assert excinfo.value.which == "order mismatch"
    with pytest.raises(HypothesisFailedError) as excinfo:
        verify_uniqueness(cyclic_group(12), cyclic_group(12))
    assert excinfo.value.which == "bad order shape"


def test_nontrivial_hom_count_formula():
    pairs = [(p, q) for p in PRIMES for q in PRIMES if p != q and p * q <= 200]
    for p, q in pairs:
        aut = automorphism_group(cyclic_group(q))
        homs = homs_to_aut(cyclic_group(p), aut)
        nontrivial = sum(1 for h in homs if not h.is_trivial())
        expected = p - 1 if (q - 1) % p == 0 else 0
        assert nontrivial == expected, (p, q)


def test_classify_under_relabeling():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from oracles import relabel

    base21 = canonical_noncyclic(3, 7)
    base9 = canonical_noncyclic(3, 3)

    @settings(max_examples=15, deadline=None)
    @given(tail=st.permutations(list(range(1, 21))))
    def check21(tail):
        g = relabel(base21, [0] + list(tail))
        r = classify(g)
        assert isinstance(r, SemidirectResult) and (r.p, r.q, r.k) == (3, 7, 2)
        r.iso.validate()

    @settings(max_examples=15, deadline=None)
    @given(tail=st.permutations(list(range(1, 9))))
    def check9(tail):
        g = relabel(base9, [0] + list(tail))
        r = classify(g)
        assert isinstance(r, ElementaryAbelianResult) and r.p == 3
        r.iso.validate()

    check21()
    check9()


_stress = pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"), reason="near the 4096 cap; set CAYLEY_STRESS=1 to run"
)


@pytest.mark.parametrize(
    "p,q",
    [(5, 5), (7, 7), (11, 11), (3, 103),
     pytest.param(61, 61, marks=_stress), pytest.param(3, 1291, marks=_stress)],
)
def test_classify_witnesses_are_multiplicative_on_all_pairs(p, q):
    # make_hom checks multiplicativity on generators only; the n^2 oracle
    # checks the witnesses on every pair.
    for g in (cyclic_group(p * q), canonical_noncyclic(p, q)):
        h = relabel_seeded(g, seed=p * q)
        iso = classify(h).iso
        assert is_multiplicative(h, iso.target, iso.forward.map)
        assert is_multiplicative(iso.target, h, iso.backward.map)
        iso.validate()


def test_classify_builds_two_products(monkeypatch):
    # The internal semidirect witness and the canonical target, for p^2 as
    # for pq.
    import cayley.products as products

    groups = [relabel_seeded(canonical_noncyclic(5, 5), 1), canonical_noncyclic(3, 7)]
    assemble, builds = products._assemble, []
    monkeypatch.setattr(products, "_assemble", lambda *args: builds.append(1) or assemble(*args))
    for g in groups:
        builds.clear()
        classify(g)
        assert len(builds) == 2, g.order


def test_verify_theorem_small():
    report = verify_theorem(15)
    assert report.all_pass
    by_order = {row.order: row for row in report.rows}
    assert set(by_order) == {4, 6, 9, 10, 14, 15}
    assert by_order[4].predicted == 2 and by_order[4].oracle == 2
    assert by_order[6].predicted == 2 and by_order[6].oracle == 2
    assert by_order[15].predicted == 1 and by_order[15].oracle == 1
    assert sorted(by_order[6].kinds) == ["Cyclic", "SemidirectQP"]
    text = report.to_text()
    assert "all orders pass: yes" in text
    payload = report.to_json_dict()
    assert payload["all_pass"] is True and len(payload["rows"]) == 6


@pytest.mark.parametrize("max_order", [3, 1, -5])
def test_verify_theorem_needs_an_order_to_check(max_order):
    with pytest.raises(ValueError, match=f"^max_order {max_order} checks no order; "):
        verify_theorem(max_order)


def test_verify_theorem_checks_every_limit_before_any_work(monkeypatch):
    import cayley.enumeration as enumeration

    class NoKernel:
        @staticmethod
        def enumerate_group_tables(n):
            pytest.fail(f"the kernel ran for order {n}")

    monkeypatch.setattr(enumeration, "_kernel", NoKernel)
    monkeypatch.setattr(enumeration, "HARD_ORDER_LIMIT", 9)
    with pytest.raises(BudgetExceededError, match="^kernel supports orders up to 9$"):
        verify_theorem(10)
    with pytest.raises(BudgetExceededError, match="^order 9 exceeds the enumeration budget 8"):
        verify_theorem(10, budget=8)


def test_verify_theorem_records_failure_type(monkeypatch):
    import cayley.classification as classification

    def failing(group):
        raise HypothesisFailedError("planted")

    monkeypatch.setattr(classification, "classify", failing)
    report = verify_theorem(4)
    assert not report.all_pass
    assert report.rows[0].kinds == ("error: HypothesisFailedError",) * 2

    def broken(group):
        raise KeyError("not a classification failure")

    monkeypatch.setattr(classification, "classify", broken)
    with pytest.raises(KeyError):
        verify_theorem(4)
