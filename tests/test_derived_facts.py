"""One digest over the derived group facts: fingerprints, the `iso`
reason, order shapes and primality, normality, conjugate subgroups and
conjugacy class ids. Any change to how one of them is computed must leave
every value, and so the digest, unchanged."""

from __future__ import annotations

import hashlib
import json

from cayley import cli, morphisms
from cayley.classification import canonical_semidirect, order_shape
from cayley.core import cyclic_group, symmetric_group
from cayley.subgroups import closure, conjugate_subgroup, is_normal, is_prime, join

from oracles import small_group_corpus

DERIVED_FACTS_SHA256 = {
    "fingerprints": "746af43e793cafd37524e1b18746226df26adee371b3b45d448ebff65f9364b7",
    "iso reasons": "02a731504d17089aafb2eb4f82dbf90d12c1bdf40d0539d197065f078e3a5f3b",
    "order shapes": "85b072707ed20424b85be39e68c0ade0f5a5f596ac62babb41fb8f03da69877a",
    "subgroups": "cbd9898c24044e611527b3e450a69c5713488616099a32bcb542f5f86539dad8",
}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _corpus():
    """Every representative of orders 1-20, then S4, S5, C384 and C103 x| C3."""
    return small_group_corpus(20) + [
        symmetric_group(4),
        symmetric_group(5),
        cyclic_group(384),
        canonical_semidirect(3, 103)[0].group,
    ]


def _subgroups(g):
    """Every subgroup of g: the cyclic ones, then joins with them until no
    new subgroup appears."""
    cyclic = {closure(g, [x]).members: closure(g, [x]) for x in range(g.order)}
    found = dict(cyclic)
    frontier = list(cyclic.values())
    while frontier:
        grown = []
        for h in frontier:
            for c in cyclic.values():
                j = join(h, c)
                if j.members not in found:
                    found[j.members] = j
                    grown.append(j)
        frontier = grown
    return [found[key] for key in sorted(found)]


def test_derived_facts_are_pinned(capsys, monkeypatch):
    corpus = _corpus()
    assert len(corpus) == 58
    # The `iso` command's reason for every pair, the groups loaded by name.
    monkeypatch.setattr(cli, "_load", lambda name: corpus[int(name)])
    reasons = []
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            code = cli.main(["iso", str(i), str(j), "--json"])
            reasons.append((code, json.loads(capsys.readouterr().out)))
    subgroup_facts = []
    for g in small_group_corpus(16):
        for h in _subgroups(g):
            conjugates = [conjugate_subgroup(h, x).members for x in range(g.order)]
            subgroup_facts.append((h.members, is_normal(h), conjugates))
        subgroup_facts.append(morphisms._class_ids(g))
    digests = {
        "fingerprints": _digest([morphisms.fingerprint(g) for g in corpus]),
        "iso reasons": _digest(reasons),
        "order shapes": _digest([(order_shape(n), is_prime(n)) for n in range(4097)]),
        "subgroups": _digest(subgroup_facts),
    }
    assert digests == DERIVED_FACTS_SHA256
