"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Time limits are asserted with wall
clocks; they are generous on purpose but honest.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import cayley
from cayley.classification import (
    canonical_noncyclic,
    classify,
    noncyclic_exists,
    order_shape,
    verify_uniqueness,
)
from cayley.core import cyclic_group, symmetric_group
from cayley.enumeration import enumerate_groups
from cayley.errors import IncompatibleActionError
from cayley.morphisms import (
    automorphism_group,
    find_isomorphism,
    homs_to_aut,
    identity_iso,
    iso_from_forward,
    make_hom,
)
from cayley.products import (
    direct_product,
    sdp_congr,
    sdp_trivial_iso_direct,
    semidirect_product,
)
from cayley.recognition import internal_semidirect
from cayley.subgroups import is_prime

from oracles import cached_enumeration, regular_subgroup_census, totient

PRIMES = [p for p in range(2, 101) if is_prime(p)]


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: PASS{suffix}")


def test_criterion_1_existence_table():
    start = time.monotonic()
    pairs = [(p, q) for p in PRIMES for q in PRIMES if p * q <= 200]
    checked = built = 0
    for p, q in pairs:
        expected = p == q or (q - 1) % p == 0 or (p - 1) % q == 0
        assert noncyclic_exists(p, q) == expected, (p, q)
        checked += 1
        if expected:
            g = canonical_noncyclic(p, q)
            g.validate()
            assert g.order == p * q
            assert not g.is_cyclic()
            built += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"existence table took {elapsed:.1f}s"
    _report(1, "existence table", f"{checked} pairs, {built} witnesses, {elapsed:.1f}s")


def test_criterion_2_oracle_agreement_base():
    start = time.monotonic()
    for n in [4, 6, 9, 10, 14, 15]:
        shape = order_shape(n)
        predicted = 1 + (1 if noncyclic_exists(shape.p, shape.q) else 0)
        report = enumerate_groups(n, budget=16)
        assert report.count == predicted, n
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"base oracle runs took {elapsed:.1f}s"
    _report(2, "oracle agreement, base orders", f"{elapsed:.1f}s")


def test_criterion_2_oracle_agreement_extended():
    start = time.monotonic()
    for n in [21, 25, 33]:
        shape = order_shape(n)
        predicted = 1 + (1 if noncyclic_exists(shape.p, shape.q) else 0)
        report = enumerate_groups(n, budget=33)
        assert report.count == predicted, n
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"extended oracle runs took {elapsed:.1f}s"
    _report(2, "oracle agreement, extended orders", f"{elapsed:.1f}s")


def test_criterion_3_order_eight_cross_check():
    oracle_count = enumerate_groups(8).count
    census_count = regular_subgroup_census(8)
    assert oracle_count == 5
    assert census_count == 5
    _report(3, "order-8 sanity", "table search 5, regular census 5")


def test_criterion_4_uniqueness_everywhere():
    start = time.monotonic()
    qualifying = [
        (p, q)
        for p in PRIMES
        for q in PRIMES
        if p <= q and p * q <= 100 and noncyclic_exists(p, q)
    ]
    total_pairs = 0
    for p, q in qualifying:
        groups = [canonical_noncyclic(p, q)]
        if p < q:
            aut = automorphism_group(cyclic_group(q))
            for phi in homs_to_aut(cyclic_group(p), aut):
                if not phi.is_trivial():
                    groups.append(
                        semidirect_product(cyclic_group(q), cyclic_group(p), phi).group
                    )
        if p * q == 6:
            groups.append(symmetric_group(3))
        for i in range(len(groups)):
            for j in range(i, len(groups)):
                iso = verify_uniqueness(groups[i], groups[j])
                iso.validate()
                total_pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"uniqueness sweep took {elapsed:.1f}s"
    _report(4, "uniqueness of the noncyclic group", f"{total_pairs} pairs, {elapsed:.1f}s")


def test_criterion_5_automorphism_formula():
    for p in [p for p in PRIMES if p <= 31]:
        aut = automorphism_group(cyclic_group(p))
        assert aut.carrier.order == p - 1, p
        assert aut.carrier.is_cyclic(), p
    for n in [8, 12, 15]:
        aut = automorphism_group(cyclic_group(n))
        assert aut.carrier.order == totient(n), n
        # Independent expectation: Aut(C_n) is cyclic iff some unit has
        # multiplicative order phi(n) mod n.
        unit_orders = []
        for u in range(1, n):
            if __import__("math").gcd(u, n) != 1:
                continue
            acc, order = u % n, 1
            while acc != 1:
                acc = acc * u % n
                order += 1
            unit_orders.append(order)
        assert aut.carrier.is_cyclic() == (max(unit_orders) == totient(n)), n
    _report(5, "automorphism group of cyclic groups", "p <= 31 and n in {8, 12, 15}")


def _seeded_products(count: int, seed: int = 20240817):
    rng = random.Random(seed)
    base_pool = [cyclic_group(k) for k in range(2, 13)]
    base_pool.append(direct_product(cyclic_group(2), cyclic_group(2)).group)
    base_pool.append(direct_product(cyclic_group(3), cyclic_group(3)).group)
    acting_pool = [cyclic_group(k) for k in range(2, 9)]
    auts = {}
    fixtures = []
    while len(fixtures) < count:
        base = rng.choice(base_pool)
        acting = rng.choice(acting_pool)
        if base.order * acting.order > 64:
            continue
        if base not in auts:
            auts[base] = automorphism_group(base)
        aut = auts[base]
        phi = rng.choice(homs_to_aut(acting, aut))
        product = semidirect_product(base, acting, phi)
        fixtures.append((base, acting, phi, product))
    return fixtures


def test_criterion_6_recognition_round_trip():
    fixtures = _seeded_products(50)
    passes = 0
    for base, acting, phi, product in fixtures:
        witness = internal_semidirect(
            product.group, product.canonical_n, product.canonical_h
        )
        witness.iso.validate()
        assert witness.product.n_factor == base
        assert witness.product.h_factor == acting
        bridge = sdp_congr(
            identity_iso(witness.product.n_factor, base),
            identity_iso(witness.product.h_factor, acting),
            witness.product,
            product,
        )
        witness.iso.then(bridge).validate()
        passes += 1
    assert passes == 50
    _report(6, "recognition round-trip", "50/50 seeded products")


def test_criterion_7_product_laws():
    # Cardinality on every product constructed here.
    constructed = []
    for n, h in [(1, 1), (2, 3), (4, 4), (5, 2), (3, 7)]:
        constructed.append((n, h, direct_product(cyclic_group(n), cyclic_group(h))))
    for base, acting, _, product in _seeded_products(10, seed=7):
        constructed.append((base.order, acting.order, product))
    for n, h, product in constructed:
        assert product.group.order == n * h
    # Pair-preserving isomorphism for the trivial action, on 20 factor pairs.
    pairs = [
        (1, 1), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
        (2, 5), (5, 2), (3, 4), (4, 3), (2, 7), (7, 2), (3, 5), (5, 3),
        (4, 4), (2, 8), (8, 2), (5, 5),
    ]
    assert len(pairs) == 20
    for n, h in pairs:
        sdp_trivial_iso_direct(cyclic_group(n), cyclic_group(h)).validate()
    # The pair map accepts exactly the compatible (f1, f2, phi1, phi2).
    c7, c3 = cyclic_group(7), cyclic_group(3)
    aut7 = automorphism_group(c7)
    phis = [h for h in homs_to_aut(c3, aut7) if not h.is_trivial()]
    alpha = iso_from_forward(make_hom(c7, c7, [3 * x % 7 for x in range(7)]))
    invert = iso_from_forward(make_hom(c3, c3, [0, 2, 1]))
    ident7, ident3 = identity_iso(c7), identity_iso(c3)
    products = {phi.map: semidirect_product(c7, c3, phi) for phi in phis}
    # The two nontrivial actions are mutual squares, so inverting the acting
    # factor connects them; identity f's do not.
    fixture = [
        (ident7, ident3, phis[0], phis[0]),
        (alpha, ident3, phis[0], phis[0]),
        (ident7, invert, phis[0], phis[1]),
        (alpha, invert, phis[1], phis[0]),
        (ident7, ident3, phis[0], phis[1]),
        (alpha, ident3, phis[0], phis[1]),
    ]
    accepted = rejected = 0
    for f1, f2, phi1, phi2 in fixture:
        source, target = products[phi1.map], products[phi2.map]
        compatible = all(
            target.action(f2.apply(h1), f1.apply(n1)) == f1.apply(source.action(h1, n1))
            for n1 in range(7)
            for h1 in range(3)
        )
        try:
            iso = sdp_congr(f1, f2, source, target)
        except IncompatibleActionError as exc:
            n1, h1 = exc.pair
            assert not compatible
            assert target.action(f2.apply(h1), f1.apply(n1)) != f1.apply(
                source.action(h1, n1)
            )
            rejected += 1
        else:
            assert compatible
            iso.validate()
            accepted += 1
    assert accepted == 4 and rejected == 2
    _report(7, "product laws", f"{accepted} accepts, {rejected} witnessed rejects")


def _shape_corpus():
    groups = []
    for n in [4, 6, 9, 10, 14, 15, 21, 22, 25, 26, 33]:
        groups.extend(cached_enumeration(n, budget=33).representatives)
    shape_orders = sorted(
        {
            p * q
            for p in PRIMES
            for q in PRIMES
            if p <= q <= 13 and p * q > 33
        }
    )
    for n in shape_orders:
        groups.append(cyclic_group(n))
    for p in PRIMES:
        for q in PRIMES:
            if p <= q <= 13 and 33 < p * q and noncyclic_exists(p, q):
                groups.append(canonical_noncyclic(p, q))
                if p < q:
                    aut = automorphism_group(cyclic_group(q))
                    for phi in homs_to_aut(cyclic_group(p), aut):
                        if not phi.is_trivial():
                            groups.append(
                                semidirect_product(
                                    cyclic_group(q), cyclic_group(p), phi
                                ).group
                            )
    groups.append(symmetric_group(3))
    return groups


def test_criterion_8_classification_soundness():
    start = time.monotonic()
    corpus = _shape_corpus()
    for g in corpus:
        shape = order_shape(g.order)
        assert shape.kind != "unsupported", g.order
        assert shape.p <= 13 and shape.q <= 13, g.order
        result = classify(g)
        result.iso.validate()
        confirmation = find_isomorphism(g, result.iso.target)
        assert confirmation is not None, g.order
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"classification sweep took {elapsed:.1f}s"
    _report(8, "classification soundness", f"{len(corpus)} groups, {elapsed:.1f}s")


def test_criterion_9_verify_determinism():
    cmd = [sys.executable, "-m", "cayley.cli", "verify", "--max", "33", "--json"]
    # The child imports the same cayley as this process, installed or not.
    env = dict(os.environ)
    src = str(Path(cayley.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, check=False)
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["all_pass"] is True
    assert payload["max_order"] == 33
    _report(9, "verify determinism", f"{len(runs[0].stdout)} bytes, identical")
