"""External direct and semidirect products with canonical embeddings.

Pairs (n, h) are packed as index n * |H| + h, so the identity lands at 0
and product tables are reproducible. A product keeps its action as the
(|H|, |N|) array of permutations of N: row h is the automorphism by which
h acts, and a direct product's rows are the identity. The homomorphism phi
into the carrier of Aut(N) is read off those rows only when asked for, so
building a product searches no automorphism group. sdp_congr is the one
builder of pair maps (n, h) -> (f1 n, f2 h) between products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_ORDER, FiniteGroup, cyclic_group, from_table
from .errors import (
    IncompatibleActionError,
    InvalidActionError,
    MismatchedParentError,
    SizeCapError,
)
from .morphisms import (
    Hom,
    Iso,
    automorphism_group,
    identity_iso,
    iso_from_forward,
    make_hom,
    trivial_hom,
)
from .subgroups import Subgroup, subgroup_from_members


@dataclass(frozen=True)
class ProductGroup:
    """A direct or semidirect product, with the pairing made explicit.
    perms[h] is the permutation of N by which h acts."""

    group: FiniteGroup
    n_factor: FiniteGroup
    h_factor: FiniteGroup
    perms: np.ndarray = field(compare=False, repr=False)
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
        return int(self.perms[self.h_factor._element(h), self.n_factor._element(n)])

    @functools.cached_property
    def phi(self) -> Hom:
        """The action as a homomorphism into the carrier of Aut(N)."""
        return automorphism_group(self.n_factor).hom(self.h_factor, self.perms.tolist())


def _assemble(n_grp: FiniteGroup, h_grp: FiniteGroup, perms: np.ndarray) -> ProductGroup:
    """The product N x| H in which h acts on N by the permutation perms[h]."""
    nn, nh = n_grp.order, h_grp.order
    size = nn * nh
    if size > MAX_ORDER:
        raise SizeCapError(f"product order {size} exceeds the cap of {MAX_ORDER}")
    tn, th = n_grp.table, h_grp.table
    table = np.empty((size, size), dtype=np.int32)
    for n1 in range(nn):
        for h1 in range(nh):
            acted = tn[n1, perms[h1]]
            table[n1 * nh + h1] = (acted[:, None] * nh + th[h1][None, :]).reshape(-1)
    group = from_table(size, table)
    embed_n = make_hom(n_grp, group, [n * nh for n in range(nn)])
    embed_h = make_hom(h_grp, group, list(range(nh)))
    canonical_n = subgroup_from_members(group, embed_n.map)
    canonical_h = subgroup_from_members(group, embed_h.map)
    perms.setflags(write=False)
    return ProductGroup(group, n_grp, h_grp, perms, embed_n, embed_h, canonical_n, canonical_h)


def direct_product(n_grp: FiniteGroup, h_grp: FiniteGroup) -> ProductGroup:
    """Componentwise multiplication on pairs; both factors embed normally."""
    ident = np.arange(n_grp.order, dtype=np.int32)
    return _assemble(n_grp, h_grp, np.broadcast_to(ident, (h_grp.order, n_grp.order)))


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup, phi: Hom) -> ProductGroup:
    """Multiplication (n1, h1)(n2, h2) = (n1 * phi(h1)(n2), h1 h2), where
    phi maps H into the carrier of automorphism_group(n_grp)."""
    aut = automorphism_group(n_grp)
    if phi.source != h_grp:
        raise InvalidActionError("action homomorphism source is not the H factor")
    if phi.target != aut.carrier:
        raise InvalidActionError("action homomorphism does not land in Aut(N)")
    return _assemble(n_grp, h_grp, np.array([aut.perms[a] for a in phi.map], dtype=np.int32))


def cyclic_power_semidirect(q: int, p: int, k: int) -> ProductGroup:
    """C_q x| C_p with the generator of C_p acting on C_q as r -> r^k, so
    that j acts as r -> r^(k^j)."""
    if q < 1 or p < 1:
        raise InvalidActionError("factor orders must be positive")
    if q * p > MAX_ORDER:
        raise SizeCapError(f"product order {q * p} exceeds the cap of {MAX_ORDER}")
    # C_1 has one automorphism, k = 1, and 1 is 0 modulo 1.
    if not 1 <= k <= max(q - 1, 1) or math.gcd(k, q) != 1:
        raise InvalidActionError(f"k must lie in 1..{max(q - 1, 1)} and be coprime to {q}")
    if pow(k, p, q) != 1 % q:
        raise InvalidActionError(f"k^p = {k}^{p} is not 1 modulo {q}")
    powers = np.array([pow(k, j, q) for j in range(p)], dtype=np.int64)
    perms = (powers[:, None] * np.arange(q) % q).astype(np.int32)
    return _assemble(cyclic_group(q), cyclic_group(p), perms)


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
    compatible: action2(f2 h)(f1 n) = f1(action1(h) n) for all n, h. Both
    sides are gathered over all pairs at once; IncompatibleActionError
    names the first failing pair (n, h), n-major."""
    factors = (source.n_factor, source.h_factor, target.n_factor, target.h_factor)
    if (f1.source, f2.source, f1.target, f2.target) != factors:
        raise MismatchedParentError("factor isomorphisms do not match the products' factors")
    m1, m2 = np.array(f1.forward.map), np.array(f2.forward.map)
    bad = target.perms[m2[None, :], m1[:, None]] != m1[source.perms.T]
    if bad.any():
        n1, h1 = map(int, np.argwhere(bad)[0])
        raise IncompatibleActionError((n1, h1))
    mapping = m1[:, None] * target.h_factor.order + m2[None, :]
    return iso_from_forward(make_hom(source.group, target.group, mapping.reshape(-1)))
