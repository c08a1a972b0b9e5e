"""Internal product recognition: given subgroups satisfying the lattice
hypotheses, produce the conjugation action, the external product, and an
explicit isomorphism onto it. The action is the permutations of N by which
the elements of H conjugate, one gather over H, handed to the product as
they are; the homomorphism into the carrier of Aut(N) is derived from them,
by AutGroup.hom, only when a witness's phi is read.

Each recognizer makes one call to _factorization, which checks the
hypotheses it assumes, in one order: both subgroups live in g, N is
normal (then H, for the direct product), the meet is trivial, and the
join is g (not for the join variant). The meet and join are checked only
by tabulating the products n * h over N x H, which also inverts the
factorization g = n * h: two pairs share a product exactly when N and H
meet beyond the identity, since n1 h1 = n2 h2 puts n2^-1 n1 = h2 h1^-1 in
both, and with N normal the products form the join, so without repeats it
is the whole group exactly when |N| |H| = |G|. When |N| |H| > |G| two
pairs must share a product, so the meet fails by counting alone and the
table is never gathered. The product is built from N and H promoted out of
g; the join variant promotes the products the gather reached, the join,
only as the isomorphism's source. `recognize` picks the recognizer from
the gather's outcome, so a caller that does not know which hypotheses
hold checks each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import products
from .core import FiniteGroup
from .errors import JoinNotFullError, MeetNotTrivialError, MismatchedParentError, NotNormalError
from .morphisms import Hom, Iso, conjugation_perms, iso_from_forward, make_hom
from .products import ProductGroup
from .subgroups import Subgroup, as_group, is_normal


@dataclass(frozen=True)
class DecompositionWitness:
    """Output of internal product recognition.

    product acts by conjugation; iso maps the ambient group (or the promoted
    join, for the join variant) onto product.group. join_embedding is set
    by the join variant and maps the iso's source indices back to the
    original parent group.
    """

    product: ProductGroup
    iso: Iso
    join_embedding: tuple[int, ...] | None = None

    @property
    def phi(self) -> Hom:
        """The conjugation action as a homomorphism into Aut(N)."""
        return self.product.phi


def _factorization(
    g: FiniteGroup, n: Subgroup, h: Subgroup, *, normal_h: bool = False, full: bool = True
) -> np.ndarray:
    """Check the hypotheses that a recognizer assumes, in this order: both
    subgroups live in g, N is normal (then H, if normal_h), N meet H is
    trivial, and N join H is g (if full). Then invert g = n * h: entry x
    is the pair index ni * |H| + hi of x = n * h, or -1 off the products
    N H, which are the join."""
    for sub in (n, h):
        if sub.parent is not g and sub.parent != g:
            raise MismatchedParentError("subgroup does not live in the ambient group")
    for sub, which in ((n, "N"), (h, "H"))[: 1 + normal_h]:
        if not is_normal(sub):
            raise NotNormalError(which)
    if len(n) * len(h) > g.order:
        raise MeetNotTrivialError("N and H intersect beyond the identity")
    pairs = g.table[np.ix_(n.members, h.members)].reshape(-1)
    mapping = np.full(g.order, -1, dtype=np.int32)
    mapping[pairs] = np.arange(pairs.size, dtype=np.int32)
    if np.count_nonzero(mapping >= 0) < pairs.size:
        raise MeetNotTrivialError("N and H intersect beyond the identity")
    if full and pairs.size < g.order:
        raise JoinNotFullError("N and H do not generate the group")
    return mapping


def _witness(
    g: FiniteGroup, n: Subgroup, h: Subgroup, mapping: np.ndarray, *, join: bool = False
) -> DecompositionWitness:
    """The product of N and H, acting by conjugation in g, and the iso onto
    it from g, or with join from the promoted join N H, whose members are
    in g's order, so N, H and conjugation are the same in it as in g."""
    promoted_n = as_group(n)
    # Through the module, so that a wrapper set on products._assemble sees
    # every product built.
    product = products._assemble(
        promoted_n.group, as_group(h).group, conjugation_perms(g, promoted_n, h.members)
    )
    if not join:
        return DecompositionWitness(product, iso_from_forward(make_hom(g, product.group, mapping)))
    promoted_j = as_group(Subgroup(g, tuple(np.flatnonzero(mapping >= 0).tolist())))
    forward = make_hom(promoted_j.group, product.group, mapping[list(promoted_j.embed)])
    return DecompositionWitness(product, iso_from_forward(forward), promoted_j.embed)


def _direct_iso(witness: DecompositionWitness) -> Iso:
    """The witness's iso, once its action is checked trivial."""
    if (witness.product.perms != np.arange(witness.product.n_factor.order)).any():
        # Both factors normal with trivial meet force elementwise commuting.
        raise NotNormalError("N")
    return witness.iso


def internal_semidirect(g: FiniteGroup, n: Subgroup, h: Subgroup) -> DecompositionWitness:
    """Recognize g as N x_phi H from a normal N and an H with N meet H
    trivial and N join H the whole group; phi is conjugation."""
    return _witness(g, n, h, _factorization(g, n, h))


def internal_semidirect_join(
    g: FiniteGroup, n: Subgroup, h: Subgroup
) -> DecompositionWitness:
    """Join variant: no fullness hypothesis; the isomorphism's source is the
    promoted join subgroup N join H."""
    return _witness(g, n, h, _factorization(g, n, h, full=False), join=True)


def internal_direct(g: FiniteGroup, n: Subgroup, h: Subgroup) -> Iso:
    """Recognize g as the direct product N x H when both subgroups are
    normal: the conjugation action is verified trivial, so the witness's
    product has the direct product's table and its iso is the answer."""
    return _direct_iso(_witness(g, n, h, _factorization(g, n, h, normal_h=True)))


JOIN_KIND = "internal semidirect product of the join subgroup"
DIRECT_KIND = "internal direct product"
SEMIDIRECT_KIND = "internal semidirect product"


def recognize(g: FiniteGroup, n: Subgroup, h: Subgroup) -> tuple[str, Iso]:
    """The product that N and H form, named, with its isomorphism: the join
    variant's when N and H do not generate g, the direct product's when H
    is normal too, else the semidirect product's.

    One _factorization call checks the parents, N's normality and the
    meet, in the recognizers' order. Once the meet is trivial the gather
    also decides the join, since with N normal the products N H are the
    join and number |N| |H|; H's normality is checked only when they are
    all of g. The errors are those of the recognizer that the outcome
    names."""
    mapping = _factorization(g, n, h, full=False)
    if len(n) * len(h) < g.order:
        return JOIN_KIND, _witness(g, n, h, mapping, join=True).iso
    if is_normal(h):
        return DIRECT_KIND, _direct_iso(_witness(g, n, h, mapping))
    return SEMIDIRECT_KIND, _witness(g, n, h, mapping).iso
