"""Homomorphisms, isomorphisms, automorphism groups, and the
group-isomorphism decision procedure.

Each element has a four-part colour, all isomorphism invariants: its
order, its conjugacy class size, the order of its square and its number
of square roots. Every part lies in 0..n for a group of order n, so the
colour is held as one int64 code, its four parts as digits in base n + 1,
computed for all elements by one numpy expression and cached. The colour
key of a group, the bytes of its sorted codes, is cached and is the one
invariant that the search and the enumeration dedup compare: unequal keys
reject at once, and equal keys never conclude isomorphism. The search
uses the codes themselves as colour ids. Every other invariant is read off
the colours or the centraliser counts, in one ordered table, INVARIANTS. The
`fingerprint` tuple holds its first five entries, in the tuple's own field
order, and `fingerprint_mismatch` and `invariant_mismatch` name the first
entry that differs between two groups. The table ends with the colour
key, so `invariant_mismatch` is None exactly when the keys agree.

Isomorphisms are found by generator-image backtracking: a greedy
irredundant generating sequence of the source (highest element order
first, each generator outside the subgroup of the earlier ones) is mapped
onto candidates of the same colour in the target. Each depth d of the
search has a plan, built from the source table once per source and
generating sequence and cached on the source: the products
x * gens[j] that <gens[:d+1]> adds to <gens[:d]>. A node extends
its parent's partial map along its plan only, so each product is checked
once per branch, and every newly mapped element must be unused and match
its preimage's colour. All nodes share one partial map, changed in place:
a node undoes what it mapped when it fails, when it completes a map or
when the level below it is exhausted.
A search for one isomorphism tries one image of the first generator per
conjugacy class of the target, since conjugation is an automorphism of
the target and carries an isomorphism with one image of the class to
one with any other; the first isomorphism found is the same. The search
for all automorphisms tries every image.

The automorphism group is materialised as a carrier FiniteGroup whose
element i is the permutation tuple perms[i]. Each automorphism is encoded
by its images of the generating sequence; the carrier table composes all
pairs with one gather over those images and finds each composite by
binary search among the sorted encodings. One check of multiplicativity
serves make_hom (one map, on the generators kept from the source's
validation) and the carrier (blocks of permutations): f(x * g) = f(x) * f(g)
for all x and each generator g makes f a homomorphism, since every element
is a word in the generators; a non-injective map has no inverse in the
family, so the carrier table fails the Latin check of from_table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _BLOCK_ENTRIES, FiniteGroup, _memoized, from_table, greedy_generators
from .errors import (
    BudgetExceededError,
    IdentityNotPreservedError,
    MismatchedParentError,
    NotBijectiveError,
    NotClosedError,
    NotCyclicSourceError,
    NotMultiplicativeError,
    NotNormalError,
)
from .subgroups import AsGroup, Subgroup, as_group, is_normal

# Caps for automorphism search: number of automorphisms that may be
# materialized as a carrier table, and backtracking nodes per search.
AUT_CARRIER_LIMIT = 2048
SEARCH_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class Hom:
    """A total multiplicative map between two finite groups."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.map[self.source._element(x)]

    def then(self, other: Hom) -> Hom:
        """Composite source -> other.target (self first); other must start
        where self ends."""
        if other.source is not self.target and other.source != self.target:
            raise MismatchedParentError("composed maps do not meet in one group")
        return make_hom(self.source, other.target, [other.map[v] for v in self.map])

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.map)

    def image_size(self) -> int:
        return len(set(self.map))


def make_hom(source: FiniteGroup, target: FiniteGroup, mapping) -> Hom:
    """Validate a candidate map as a homomorphism: multiplicativity is
    checked exactly on the generators kept from the source's validation."""
    m = np.asarray(mapping, dtype=np.int32)
    if m.shape != (source.order,):
        raise ValueError(f"map length {m.shape} does not match source order {source.order}")
    if m.min(initial=0) < 0 or m.max(initial=0) >= target.order:
        raise ValueError("map has out-of-range values")
    if m[0] != 0:
        raise IdentityNotPreservedError("identity is not sent to identity")
    _check_multiplicative(source.table, list(source.generators), target.table, m[None, :])
    return Hom(source, target, tuple(m.tolist()))


def _check_multiplicative(table: np.ndarray, gens: list[int], target: np.ndarray, maps) -> None:
    """NotMultiplicativeError((x, g)) unless f(x * g) = f(x) * f(g) for each
    row f of the (k, n) block maps, all x and each g in gens (source table
    `table`, target table `target`). Exact for maps with f(0) = 0 when gens
    generate the source: every element is a word in gens."""
    bad = maps[:, table[:, gens]] != target[maps[:, :, None], maps[:, gens][:, None, :]]
    if bad.any():
        _, x, j = map(int, np.argwhere(bad)[0])
        raise NotMultiplicativeError((x, gens[j]))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> Hom:
    """Everything to the identity."""
    return Hom(source, target, (0,) * source.order)


def restrict(f: Hom, h: Subgroup) -> Hom:
    """Restriction of f to a subgroup of its source, re-indexed via as_group."""
    if h.parent != f.source:
        raise MismatchedParentError("subgroup does not live in the hom's source")
    promoted = as_group(h)
    return make_hom(promoted.group, f.target, [f.map[x] for x in promoted.embed])


@dataclass(frozen=True)
class Iso:
    """A homomorphism with a verified two-sided inverse."""

    forward: Hom
    backward: Hom

    @property
    def source(self) -> FiniteGroup:
        return self.forward.source

    @property
    def target(self) -> FiniteGroup:
        return self.forward.target

    def apply(self, x: int) -> int:
        return self.forward.apply(x)

    def inverse(self) -> Iso:
        return Iso(self.backward, self.forward)

    def then(self, other: Iso) -> Iso:
        return Iso(self.forward.then(other.forward), other.backward.then(self.backward))

    def validate(self) -> None:
        """Re-check both compositions against the identity."""
        n = self.source.order
        fwd, bwd = self.forward.map, self.backward.map
        if [bwd[v] for v in fwd] != list(range(n)):
            raise NotBijectiveError("backward after forward is not the identity")
        if [fwd[v] for v in bwd] != list(range(self.target.order)):
            raise NotBijectiveError("forward after backward is not the identity")


def iso_from_forward(f: Hom) -> Iso:
    """Build an Iso from a bijective Hom, deriving and validating the inverse."""
    n = f.source.order
    if f.target.order != n or len(set(f.map)) != n:
        raise NotBijectiveError(f"map from order {n} to order {f.target.order} is not a bijection")
    backward = [0] * n
    for x, y in enumerate(f.map):
        backward[y] = x
    iso = Iso(f, make_hom(f.target, f.source, backward))
    iso.validate()
    return iso


def identity_iso(g1: FiniteGroup, g2: FiniteGroup | None = None) -> Iso:
    """The index-identity isomorphism (tables must agree)."""
    if g2 is None:
        g2 = g1
    return iso_from_forward(make_hom(g1, g2, range(g1.order)))


# Element colours and the invariants read off them.


@_memoized
def _element_codes(g: FiniteGroup) -> np.ndarray:
    """Per-element colour as one int64 code (cached, read-only):
    ((order * B + conjugacy class size) * B + order of the square) * B +
    number of square roots, with B = n + 1. Candidate images in the search
    must match exactly. Each part is an isomorphism invariant; an
    isomorphism maps the square roots of x one-to-one onto those of f(x).
    Every part lies in 0..n, also on the unvalidated tables that
    enumeration colours, whose power walks stop within n steps, so the
    code is injective; B^4 <= 4097^4 fits in int64."""
    n = g.order
    base = n + 1
    orders = np.asarray(g.element_orders(), dtype=np.int64)
    squares = np.diagonal(g.table)
    codes = orders * base + n // g.centralizer_sizes()
    codes = (codes * base + orders[squares]) * base + np.bincount(squares, minlength=n)
    codes.setflags(write=False)
    return codes


def _colour_part(g: FiniteGroup, part: int) -> np.ndarray:
    """One part of every element's colour, decoded from its code: 0 the
    order, 1 the class size, 2 the order of the square, 3 the root count."""
    base = g.order + 1
    return _element_codes(g) // base ** (3 - part) % base


@_memoized
def _colour_key(g: FiniteGroup) -> bytes:
    """The sorted element codes as bytes (cached): equal for isomorphic
    groups, and for groups of one order equal exactly when their sorted
    colours are."""
    return np.sort(_element_codes(g)).tobytes()


def _multiset(part: int):
    """The sorted values of one colour part over the elements."""
    return lambda g: tuple(np.sort(_colour_part(g, part)).tolist())


# Named isomorphism invariants, in the order in which the reason for a
# non-isomorphism names the first that differs. The first five are the
# fingerprint's; the colour key, last, agrees only when every one before
# it does.
INVARIANTS = (
    ("orders", lambda g: g.order),
    ("element-order multisets", _multiset(0)),
    ("abelian flags", FiniteGroup.is_abelian),
    ("center sizes", FiniteGroup.center_size),
    ("conjugacy-class sizes", FiniteGroup.conjugacy_class_sizes),
    ("orders of squares", _multiset(2)),
    ("square-root counts", _multiset(3)),
    ("element colours", _colour_key),
)
_FINGERPRINT = INVARIANTS[:5]


def fingerprint(g: FiniteGroup) -> tuple:
    """Isomorphism-invariant tuple: order, abelian flag, element-order
    multiset, center size, conjugacy-class-size multiset."""
    order, orders, abelian, center, classes = (value(g) for _, value in _FINGERPRINT)
    return (order, abelian, orders, center, classes)


def _first_mismatch(g1: FiniteGroup, g2: FiniteGroup, invariants) -> str | None:
    return next((name for name, value in invariants if value(g1) != value(g2)), None)


def fingerprint_mismatch(g1: FiniteGroup, g2: FiniteGroup) -> str | None:
    """Name of the first differing fingerprint invariant, if any."""
    return _first_mismatch(g1, g2, _FINGERPRINT)


def invariant_mismatch(g1: FiniteGroup, g2: FiniteGroup) -> str | None:
    """Name of the first differing invariant, or None when the colour keys
    agree: the reason `cayley iso` gives when no isomorphism exists."""
    return _first_mismatch(g1, g2, INVARIANTS)


# Generator-image backtracking.


def generating_sequence(g: FiniteGroup) -> list[int]:
    """Greedy irredundant (not necessarily shortest) generating sequence
    over the elements by descending element order, then by index (cached)."""
    return list(_generating_sequence(g))


@_memoized
def _generating_sequence(g: FiniteGroup) -> tuple[int, ...]:
    by_order = np.argsort(-np.asarray(g.element_orders()), kind="stable")
    return tuple(greedy_generators(g.table, by_order.tolist()))


def _plans(table: np.ndarray, gens: list[int], colours: list[int]) -> list[list[tuple]]:
    """Per depth d, the products (x, j, y = x * gens[j], c, k) that extend
    a map on <gens[:d]> to <gens[:d+1]>, in BFS order from 0: every x of
    <gens[:d]> times gens[d], then every newly reached element times each
    of gens[:d+1]. c is colours[y] the first time y is reached, else -1,
    and k counts the elements first reached at depth d before this product.
    Over all depths each product of an element by a generator appears once."""
    columns = table[:, gens].T.tolist()
    reached = [True] + [False] * (table.shape[0] - 1)
    members = [0]
    plans = []
    for d in range(len(gens)):
        plan, old = [], len(members)
        for pos, x in enumerate(members):
            for j in (d,) if pos < old else range(d + 1):
                y = columns[j][x]
                plan.append((x, j, y, -1 if reached[y] else colours[y], len(members) - old))
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
        plans.append(plan)
    return plans


@_memoized
def _search_state(g: FiniteGroup, gens: tuple[int, ...]) -> tuple[list[list], list[list]]:
    """The plans and the per-depth fresh elements of a search from g along
    gens (cached on g per gens), with the element codes as colour ids:
    every search from one source shares them."""
    plans = _plans(g.table, gens, _element_codes(g).tolist())
    # Per depth, (y, colour) of each element first reached there, in plan order.
    fresh = [[(y, c) for _, _, y, c, _ in plan if c >= 0] for plan in plans]
    return plans, fresh


@_memoized
def _class_ids(g: FiniteGroup) -> list[int]:
    """Per element x, the least element of its conjugacy class (cached).
    The conjugates h * x * h^-1 over all h are gathered for a block of
    columns x at a time, so memory stays O(order * block)."""
    n = g.order
    ids = np.empty(n, dtype=np.int32)
    block = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, block):
        ids[start : start + block] = g.conjugates(slice(start, start + block)).min(axis=0)
    return ids.tolist()


def _image_search(
    g1: FiniteGroup,
    g2: FiniteGroup,
    gens: list[int],
    *,
    find_all: bool,
) -> list[tuple[int, ...]]:
    """All (or the first) images of the generating sequence gens of g1 that
    extend to isomorphisms; all of them at most AUT_CARRIER_LIMIT.

    A node at depth d extends the map on <gens[:d]> fixed by the images
    tried above it to <gens[:d+1]>, walking only the products of plan d: a
    newly reached y takes w = m[x] * image(gens[j]) and is rejected unless
    w is unused and has y's colour (an isomorphism preserves it),
    and a y mapped before must get w again. So every product is checked
    once per branch, and a full-depth map is an injective homomorphism,
    i.e. an isomorphism.

    All nodes share one map and one list of free colours, changed in
    place. The elements a node maps are a prefix of those first reached
    at its depth: the first k when it fails at a product with count k, all
    of them when it succeeds. It gives their images their colours back
    when it fails, when it completes a map or when the level below it is
    exhausted. Entries of the map it leaves behind are never read, since
    an element is read only after its branch has mapped it.

    When only the first isomorphism is wanted, gens[0] tries one image
    per conjugacy class of g2: the first in candidate order. Conjugation
    by h is an automorphism of g2, so an isomorphism sending gens[0] to
    h * y * h^-1 composed with conjugation by h^-1 sends it to y. A
    skipped subtree thus holds an isomorphism only if the earlier
    subtree of its class, already exhausted, held one, and the first
    isomorphism found does not change.

    The caller guarantees that g1 and g2 have equal colour keys, so that
    every colour of g2 is one of g1's: find_isomorphism compares the keys
    first, and automorphism_group searches from g to g."""
    n = g1.order
    if n == 1:
        return [(0,)]
    codes1, codes2 = _element_codes(g1), _element_codes(g2)
    candidates = [np.flatnonzero(codes2 == codes1[g]).tolist() for g in gens]
    # Central images (class size 1) are their own classes: nothing to skip.
    if not find_all and g1.centralizer_sizes()[gens[0]] < n:
        class_ids = _class_ids(g2)
        first: dict[int, int] = {}
        for y in candidates[0]:
            first.setdefault(class_ids[y], y)
        candidates[0] = list(first.values())
    # free[w] is w's colour code until w is used, then -1 (codes are
    # positive), so one comparison checks injectivity and colour.
    plans, fresh = _search_state(g1, tuple(gens))
    m = [0] + [-1] * (n - 1)
    free = codes2.tolist()
    free[0] = -1
    columns: list[list[int]] = [[]] * len(gens)
    target_columns: dict[int, list[int]] = {}
    found: list[tuple[int, ...]] = []
    nodes = 0
    # Depth-first: stack[d] holds the candidates left at depth d.
    stack = [iter(candidates[0])]
    while stack:
        depth = len(stack) - 1
        for img in stack[-1]:
            nodes += 1
            if nodes > SEARCH_NODE_LIMIT:
                raise BudgetExceededError("isomorphism search node budget exceeded")
            if img not in target_columns:
                target_columns[img] = g2.table[:, img].tolist()
            columns[depth] = target_columns[img]
            for x, j, y, c, k in plans[depth]:
                w = columns[j][m[x]]
                if c < 0:
                    if m[y] != w:
                        break
                elif free[w] != c:
                    break
                else:
                    m[y] = w
                    free[w] = -1
            else:
                if depth + 1 < len(gens):
                    stack.append(iter(candidates[depth + 1]))
                    break
                found.append(tuple(m))
                if not find_all:
                    return found
                if len(found) > AUT_CARRIER_LIMIT:
                    raise BudgetExceededError(
                        f"more than {AUT_CARRIER_LIMIT} automorphisms,"
                        " the fixed limit of the automorphism carrier"
                    )
                _undo(m, free, fresh[depth])
                continue
            _undo(m, free, fresh[depth][:k])
        else:
            stack.pop()
            if depth:
                _undo(m, free, fresh[depth - 1])
    return found


def _undo(m: list[int], free: list[int], mapped: list[tuple[int, int]]) -> None:
    """Give the images of the mapped elements their colours back."""
    for y, c in mapped:
        free[m[y]] = c


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> Iso | None:
    """An explicit isomorphism g1 -> g2, or None if the groups are not
    isomorphic. Unequal colour keys reject fast; otherwise the
    backtracking search is complete."""
    if g1.order != g2.order:
        return None
    if np.array_equal(g1.table, g2.table):
        return identity_iso(g1, g2)
    if _colour_key(g1) != _colour_key(g2):
        return None
    maps = _image_search(g1, g2, generating_sequence(g1), find_all=False)
    if not maps:
        return None
    return iso_from_forward(make_hom(g1, g2, maps[0]))


# Automorphism groups.


@dataclass(frozen=True)
class AutGroup:
    """The automorphism group of a group, materialized as a FiniteGroup.

    Element i of the carrier is the automorphism perms[i], the tuple of
    images of the group's elements, checked multiplicative when the carrier
    was built; index 0 is the identity and the operation is composition.
    hom is the one builder of an action into the carrier, validated by
    make_hom like every other Hom.
    """

    carrier: FiniteGroup
    perms: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def auto_index(self, perm: tuple[int, ...]) -> int:
        """Carrier index of an automorphism given as its images;
        NotClosedError naming perm if it is not one."""
        try:
            return self._index[perm]
        except KeyError:
            raise NotClosedError(f"{perm} is not an automorphism of the group") from None

    def hom(self, source: FiniteGroup, rows) -> Hom:
        """The action source -> carrier sending x to the automorphism rows[x]."""
        return make_hom(source, self.carrier, [self.auto_index(tuple(row)) for row in rows])


@_memoized
def automorphism_group(g: FiniteGroup) -> AutGroup:
    """All automorphisms of g, found by generator-image backtracking and
    cached on g, so every caller holding g shares one carrier.

    The carrier table is built without hashing permutations: each
    automorphism is keyed by its images of generating_sequence(g), every
    composite's key is gathered in one step, and keys are looked up by
    binary search among the sorted keys of the automorphisms."""
    gens = generating_sequence(g)
    maps = _image_search(g, g, gens, find_all=True)
    ident = tuple(range(g.order))
    perms = tuple([ident] + sorted(m for m in maps if m != ident))
    # The trivial group has no generators; its one automorphism is keyed by 0.
    carrier = from_table(len(perms), _composition_table(g.table, perms, gens or [0]))
    return AutGroup(carrier, perms, {p: i for i, p in enumerate(perms)})


def _composition_table(
    table: np.ndarray, perms: tuple[tuple[int, ...], ...], gens: list[int]
) -> np.ndarray:
    """Table of perms, maps of the group with Cayley table `table` and
    generators gens, under composition: entry (i, j) is the index of
    perms[i] after perms[j]; NotMultiplicativeError unless each perm is a
    homomorphism. An automorphism is determined by its images of a
    generating sequence, so those images serve as its key: an int16 row
    (exact for every order up to MAX_ORDER) viewed as one opaque byte
    string, which numpy sorts and searches as a single value."""
    k, n = len(perms), table.shape[0]
    p = np.array(perms, dtype=np.int16)
    key_dtype = np.dtype((np.void, 2 * len(gens)))

    def keys(images: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(images).view(key_dtype)[..., 0]

    of_gens = p[:, gens]
    own = keys(of_gens)
    order = np.argsort(own)
    sorted_keys = own[order]
    out = np.empty((k, k), dtype=np.int32)
    block = max(1, _BLOCK_ENTRIES // (max(k, n) * len(gens)))
    for start in range(0, k, block):
        rows = p[start : start + block]
        _check_multiplicative(table, gens, table, rows)
        # composite[i, j] = keys of perms[i] applied to perms[j]'s generator images
        composite = keys(rows[:, of_gens])
        pos = np.minimum(np.searchsorted(sorted_keys, composite), k - 1)
        missing = sorted_keys[pos] != composite
        if missing.any():
            i, j = map(int, np.argwhere(missing)[0])
            raise NotClosedError(
                f"composite of automorphisms {start + i} and {j} is not among those found"
            )
        out[start : start + block] = order[pos]
    return out


def conjugation_perms(g: FiniteGroup, promoted: AsGroup, xs) -> np.ndarray:
    """Row i is the permutation n -> x n x^-1 of a promoted normal subgroup,
    for x = xs[i], in subgroup indices: one int32 (len(xs), |N|) gather."""
    return promoted.section[g.conjugates(list(promoted.embed), xs)]


def conj_normal(g: FiniteGroup, n: Subgroup) -> Hom:
    """The conjugation homomorphism g -> Aut(N) for a normal subgroup N,
    landing in the automorphism group's carrier."""
    if n.parent != g:
        raise MismatchedParentError("subgroup does not live in the conjugating group")
    if not is_normal(n):
        raise NotNormalError("N")
    promoted = as_group(n)
    perms = conjugation_perms(g, promoted, range(g.order)).tolist()
    return automorphism_group(promoted.group).hom(g, perms)


def cyclic_hom(source: FiniteGroup, target: FiniteGroup, image: int) -> Hom:
    """The homomorphism sending source.cyclic_generator()^j to image^j;
    NotMultiplicativeError if the order of image does not divide |source|."""
    gen = source.cyclic_generator()
    if gen is None:
        raise NotCyclicSourceError("source group is not cyclic")
    walk = target.powers(image)
    mapping = [0] * source.order
    for j, x in enumerate(source.powers(gen)):
        mapping[x] = walk[j % len(walk)]
    return make_hom(source, target, mapping)


def homs_to_aut(p: FiniteGroup, a: AutGroup) -> list[Hom]:
    """All homomorphisms from a cyclic group into an automorphism group's
    carrier, enumerated by the image of the generator. The trivial
    homomorphism comes first."""
    orders = a.carrier.element_orders()
    return [cyclic_hom(p, a.carrier, x) for x, m in enumerate(orders) if p.order % m == 0]
