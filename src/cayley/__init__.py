"""Finite groups as validated Cayley tables.

Everything is indexed: a group of order n lives on elements 0..n-1 with the
identity pinned at index 0. Groups, subgroups, homomorphisms and products
are immutable once constructed, so values can be shared freely.
"""

from .core import (
    MAX_ORDER,
    FiniteGroup,
    cyclic_group,
    from_table,
    symmetric_group,
)
from .errors import (
    BadOrderError,
    BudgetExceededError,
    GroupError,
    HypothesisFailedError,
    IdentityNotPreservedError,
    IncompatibleActionError,
    InvalidActionError,
    JoinNotFullError,
    MeetNotTrivialError,
    MismatchedParentError,
    NoIdentityError,
    NoInverseError,
    NoNoncyclicGroupError,
    NoSuchElementError,
    NotAssociativeError,
    NotBijectiveError,
    NotClosedError,
    NotCyclicSourceError,
    NotLatinError,
    NotMultiplicativeError,
    NotNormalError,
    NotPrimeError,
    NotSubgroupError,
    OnlyOneSubgroupError,
    ParseError,
    SizeCapError,
    UnsupportedOrderError,
)
from .fileformat import read_group, read_group_text, write_group, write_group_text
from .subgroups import (
    Subgroup,
    as_group,
    bot,
    closure,
    distinct_subgroups_of_order,
    element_of_order,
    join,
    meet,
    subgroup_from_members,
    subgroup_of_order,
    top,
)
from .morphisms import (
    AutGroup,
    Hom,
    Iso,
    automorphism_group,
    conj_normal,
    find_isomorphism,
    fingerprint,
    homs_to_aut,
    make_hom,
    restrict,
    trivial_hom,
)
from .products import (
    ProductGroup,
    direct_product,
    sdp_congr,
    sdp_trivial_iso_direct,
    semidirect_product,
)
from .recognition import (
    DecompositionWitness,
    internal_direct,
    internal_semidirect,
    internal_semidirect_join,
)
from .classification import (
    ClassificationResult,
    CyclicResult,
    ElementaryAbelianResult,
    SemidirectResult,
    canonical_noncyclic,
    classify,
    express_as_semidirect,
    noncyclic_exists,
    order_shape,
    verify_theorem,
    verify_uniqueness,
)
from .enumeration import EnumerationReport, count_groups, enumerate_groups

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
