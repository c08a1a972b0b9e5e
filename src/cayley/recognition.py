"""Internal product recognition: given subgroups satisfying the lattice
hypotheses, produce the conjugation action, the external product, and an
explicit isomorphism onto it. The action lands in the carrier of Aut(N),
which the external product looks up again from the same promoted N
(automorphism_group is cached on the group, so the search runs once).

The factorization g = n * h is inverted by tabulating the products over
N x H: injectivity of that map is exactly the trivial-meet hypothesis and
surjectivity onto the join is a cardinality count, so building the table
doubles as a constructive check of the hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteGroup
from .errors import JoinNotFullError, MeetNotTrivialError, NotNormalError
from .morphisms import (
    Hom,
    Iso,
    automorphism_group,
    conjugation_perm,
    identity_iso,
    iso_from_forward,
    make_hom,
)
from .products import ProductGroup, direct_product, semidirect_product
from .subgroups import Subgroup, as_group, is_normal, join, meet


@dataclass(frozen=True)
class DecompositionWitness:
    """Output of internal product recognition.

    phi is the conjugation action actually used; iso maps the ambient group
    (or the promoted join, for the join variant) onto product.group.
    join_embedding is set by the join variant and maps the iso's source
    indices back to the original parent group.
    """

    phi: Hom
    product: ProductGroup
    iso: Iso
    join_embedding: tuple[int, ...] | None = None


def _factor_witness(g: FiniteGroup, n: Subgroup, h: Subgroup) -> DecompositionWitness:
    """Shared factorization core; hypotheses are already checked."""
    promoted_n = as_group(n)
    promoted_h = as_group(h)
    aut = automorphism_group(promoted_n.group)
    phi_map = [
        aut.auto_index(conjugation_perm(g, promoted_n, h_elem))
        for h_elem in promoted_h.embed
    ]
    phi = make_hom(promoted_h.group, aut.carrier, phi_map)
    product = semidirect_product(promoted_n.group, promoted_h.group, phi)
    mapping = [-1] * g.order
    for ni, n_elem in enumerate(promoted_n.embed):
        for hi, h_elem in enumerate(promoted_h.embed):
            prod_elem = g.mul(n_elem, h_elem)
            if mapping[prod_elem] != -1:
                raise MeetNotTrivialError("factorization g = n*h is not unique")
            mapping[prod_elem] = product.pair_index(ni, hi)
    if any(v == -1 for v in mapping):
        raise JoinNotFullError("products n*h do not cover the group")
    iso = iso_from_forward(make_hom(g, product.group, mapping))
    return DecompositionWitness(phi, product, iso)


def internal_semidirect(g: FiniteGroup, n: Subgroup, h: Subgroup) -> DecompositionWitness:
    """Recognize g as N x_phi H from a normal N and an H with N meet H
    trivial and N join H the whole group; phi is conjugation."""
    if not is_normal(n):
        raise NotNormalError("N")
    if not meet(n, h).is_trivial():
        raise MeetNotTrivialError("N and H intersect beyond the identity")
    if not join(n, h).is_full():
        raise JoinNotFullError("N and H do not generate the group")
    # With N normal the set product N*H is already the join; the tabulation
    # in _factor_witness verifies this as it inverts g = n*h.
    return _factor_witness(g, n, h)


def internal_semidirect_join(
    g: FiniteGroup, n: Subgroup, h: Subgroup
) -> DecompositionWitness:
    """Join variant: no fullness hypothesis; the isomorphism's source is the
    promoted join subgroup N join H."""
    if not is_normal(n):
        raise NotNormalError("N")
    if not meet(n, h).is_trivial():
        raise MeetNotTrivialError("N and H intersect beyond the identity")
    joined = join(n, h)
    promoted_j = as_group(joined)
    inner_n = Subgroup(promoted_j.group, tuple(promoted_j.section[x] for x in n.members))
    inner_h = Subgroup(promoted_j.group, tuple(promoted_j.section[x] for x in h.members))
    witness = _factor_witness(promoted_j.group, inner_n, inner_h)
    return DecompositionWitness(
        witness.phi, witness.product, witness.iso, join_embedding=promoted_j.embed
    )


def internal_direct(g: FiniteGroup, n: Subgroup, h: Subgroup) -> Iso:
    """Recognize g as the direct product N x H when both subgroups are
    normal: the conjugation action is verified trivial, so the witness's
    product has the direct product's table and the identity map carries it."""
    if not is_normal(n):
        raise NotNormalError("N")
    if not is_normal(h):
        raise NotNormalError("H")
    witness = internal_semidirect(g, n, h)
    if not witness.phi.is_trivial():
        # Both factors normal with trivial meet force elementwise commuting.
        raise NotNormalError("N")
    direct = direct_product(witness.product.n_factor, witness.product.h_factor)
    return witness.iso.then(identity_iso(witness.product.group, direct.group))
