"""External direct and semidirect products with canonical embeddings.

Pairs (n, h) are packed as index n * |H| + h, so the identity lands at 0
and product tables are reproducible. The action of a semidirect product is
supplied as a homomorphism into the carrier of Aut(N), which the product
looks up itself (automorphism_group is cached on N); the indexed
automorphism family recovers the actual permutations. sdp_congr is the one
builder of pair maps (n, h) -> (f1 n, f2 h) between products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_ORDER, FiniteGroup, cyclic_group, from_table
from .errors import (
    IncompatibleActionError,
    InvalidActionError,
    MismatchedParentError,
    SizeCapError,
)
from .morphisms import (
    AutGroup,
    Hom,
    Iso,
    automorphism_group,
    cyclic_hom,
    identity_iso,
    iso_from_forward,
    make_hom,
    trivial_hom,
)
from .subgroups import Subgroup, subgroup_from_members


@dataclass(frozen=True)
class ProductGroup:
    """A direct or semidirect product, with the pairing made explicit."""

    group: FiniteGroup
    n_factor: FiniteGroup
    h_factor: FiniteGroup
    phi: Hom | None
    aut: AutGroup | None
    embed_n: Hom
    embed_h: Hom
    canonical_n: Subgroup
    canonical_h: Subgroup

    def pair_index(self, n: int, h: int) -> int:
        return self.n_factor._element(n) * self.h_factor.order + self.h_factor._element(h)

    def unpair(self, x: int) -> tuple[int, int]:
        return divmod(self.group._element(x), self.h_factor.order)

    def action(self, h: int, n: int) -> int:
        """Apply the twisting automorphism of h to n (identity for direct)."""
        h, n = self.h_factor._element(h), self.n_factor._element(n)
        if self.phi is None or self.aut is None:
            return n
        return self.aut.perms[self.phi.map[h]][n]


def _assemble(
    n_grp: FiniteGroup,
    h_grp: FiniteGroup,
    action_perms: list[np.ndarray],
    phi: Hom | None,
    aut: AutGroup | None,
) -> ProductGroup:
    nn, nh = n_grp.order, h_grp.order
    size = nn * nh
    if size > MAX_ORDER:
        raise SizeCapError(f"product order {size} exceeds the cap of {MAX_ORDER}")
    tn, th = n_grp.table, h_grp.table
    table = np.empty((size, size), dtype=np.int32)
    for n1 in range(nn):
        for h1 in range(nh):
            acted = tn[n1, action_perms[h1]]
            table[n1 * nh + h1] = (acted[:, None] * nh + th[h1][None, :]).reshape(-1)
    group = from_table(size, table)
    embed_n = make_hom(n_grp, group, [n * nh for n in range(nn)])
    embed_h = make_hom(h_grp, group, list(range(nh)))
    canonical_n = subgroup_from_members(group, embed_n.map)
    canonical_h = subgroup_from_members(group, embed_h.map)
    return ProductGroup(
        group, n_grp, h_grp, phi, aut, embed_n, embed_h, canonical_n, canonical_h
    )


def direct_product(n_grp: FiniteGroup, h_grp: FiniteGroup) -> ProductGroup:
    """Componentwise multiplication on pairs; both factors embed normally."""
    ident = np.arange(n_grp.order, dtype=np.int32)
    return _assemble(n_grp, h_grp, [ident] * h_grp.order, None, None)


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup, phi: Hom) -> ProductGroup:
    """Multiplication (n1, h1)(n2, h2) = (n1 * phi(h1)(n2), h1 h2), where
    phi maps H into the carrier of automorphism_group(n_grp)."""
    aut = automorphism_group(n_grp)
    if phi.source != h_grp:
        raise InvalidActionError("action homomorphism source is not the H factor")
    if phi.target != aut.carrier:
        raise InvalidActionError("action homomorphism does not land in Aut(N)")
    perms = [np.array(aut.perms[phi.map[h]], dtype=np.int32) for h in range(h_grp.order)]
    return _assemble(n_grp, h_grp, perms, phi, aut)


def cyclic_power_semidirect(q: int, p: int, k: int) -> ProductGroup:
    """C_q x| C_p with the generator of C_p acting on C_q as r -> r^k."""
    if q < 1 or p < 1:
        raise InvalidActionError("factor orders must be positive")
    if q * p > MAX_ORDER:
        raise SizeCapError(f"product order {q * p} exceeds the cap of {MAX_ORDER}")
    if not 1 <= k < q or math.gcd(k, q) != 1:
        raise InvalidActionError(f"k must lie in 1..{q - 1} and be coprime to {q}")
    if pow(k, p, q) != 1:
        raise InvalidActionError(f"k^p = {k}^{p} is not 1 modulo {q}")
    cq, cp = cyclic_group(q), cyclic_group(p)
    aut = automorphism_group(cq)
    phi = cyclic_hom(cp, aut.carrier, aut.auto_index(tuple(k * x % q for x in range(q))))
    return semidirect_product(cq, cp, phi)


def sdp_trivial_iso_direct(n_grp: FiniteGroup, h_grp: FiniteGroup) -> Iso:
    """The pair-preserving isomorphism N x_1 H -> N x H (trivial action)."""
    trivial = trivial_hom(h_grp, automorphism_group(n_grp).carrier)
    sdp = semidirect_product(n_grp, h_grp, trivial)
    dp = direct_product(n_grp, h_grp)
    return identity_iso(sdp.group, dp.group)


def sdp_congr(f1: Iso, f2: Iso, source: ProductGroup, target: ProductGroup) -> Iso:
    """The pair map (n, h) -> (f1 n, f2 h) from source = N1 x H1 onto
    target = N2 x H2, for factor isomorphisms f1: N1 -> N2 and f2: H1 -> H2.

    Each product carries its own action (the identity for a direct
    product), and the map is an isomorphism exactly when the actions are
    compatible: action2(f2 h)(f1 n) = f1(action1(h) n) for all n, h. The
    loop that builds the map checks this, raising IncompatibleActionError
    with the first failing pair (n, h)."""
    factors = (source.n_factor, source.h_factor, target.n_factor, target.h_factor)
    if (f1.source, f2.source, f1.target, f2.target) != factors:
        raise MismatchedParentError("factor isomorphisms do not match the products' factors")
    mapping = [0] * source.group.order
    for n1 in range(source.n_factor.order):
        n2 = f1.apply(n1)
        for h1 in range(source.h_factor.order):
            h2 = f2.apply(h1)
            if target.action(h2, n2) != f1.apply(source.action(h1, n1)):
                raise IncompatibleActionError((n1, h1))
            mapping[source.pair_index(n1, h1)] = target.pair_index(n2, h2)
    return iso_from_forward(make_hom(source.group, target.group, mapping))
