"""Exception hierarchy. Every failed mathematical hypothesis gets a named error."""

from __future__ import annotations


class GroupError(Exception):
    """Base class for all library errors."""


class ParseError(GroupError):
    """Cayley-table file violates the text format. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Table validation (from_table).


class NotClosedError(GroupError):
    """Table entry out of range 0..n-1."""


class NoIdentityError(GroupError):
    """Index 0 is not a two-sided identity."""


class NotLatinError(GroupError):
    """A row or column repeats an entry."""


class NotAssociativeError(GroupError):
    """Associativity fails; carries one witnessing triple (i, j, k)."""

    def __init__(self, triple: tuple[int, int, int]):
        i, j, k = triple
        super().__init__(f"(x{i} * x{j}) * x{k} != x{i} * (x{j} * x{k})")
        self.triple = triple


class NoInverseError(GroupError):
    """A power walk did not return to the identity within the order. Only
    FiniteGroup.powers raises it, on the unvalidated tables that
    enumeration colours; validation never does."""


class SizeCapError(GroupError):
    """Requested order or degree is not an integer, or gives an order
    outside 1..MAX_ORDER, the global dense-table cap."""


# Subgroups.


class MismatchedParentError(GroupError):
    """Lattice operation on subgroups of different parent groups."""


class NoSuchElementError(GroupError):
    """No element of the requested prime order (the prime does not divide |G|)."""


class OnlyOneSubgroupError(GroupError):
    """A cyclic group of order p^2 has a single subgroup of order p."""


class NotSubgroupError(GroupError):
    """A member set is not closed under the parent operation."""


# Morphisms.


class IdentityNotPreservedError(GroupError):
    """Candidate map does not send identity to identity."""


class NotMultiplicativeError(GroupError):
    """Candidate map is not a homomorphism; carries a witness (x, g), g a source generator."""

    def __init__(self, pair: tuple[int, int]):
        x, y = pair
        super().__init__(f"f(x{x} * x{y}) != f(x{x}) * f(x{y})")
        self.pair = pair


class NotBijectiveError(GroupError):
    """Candidate isomorphism is not a bijection, or its two halves are not inverse."""


class NotCyclicSourceError(GroupError):
    """Homomorphisms by generator image are only built out of cyclic groups."""


class BudgetExceededError(GroupError):
    """A search exceeded its configured budget. When a larger budget
    argument would allow the request, `needed` is that budget and the
    message ends with a hint to pass it; `reason` is the message without."""

    def __init__(self, reason: str, needed: int | None = None):
        super().__init__(reason if needed is None else f"{reason}; pass budget={needed}")
        self.reason = reason
        self.needed = needed


class NotNormalError(GroupError):
    """A subgroup required to be normal is not. Carries which one, when known."""

    def __init__(self, which: str = "subgroup"):
        super().__init__(f"{which} is not normal in the ambient group")
        self.which = which


# Products.


class InvalidActionError(GroupError):
    """The action homomorphism does not fit the factors being multiplied."""


class IncompatibleActionError(GroupError):
    """Pair-map compatibility fails; carries one witnessing pair (n, h)."""

    def __init__(self, pair: tuple[int, int]):
        n, h = pair
        super().__init__(f"actions disagree at (n={n}, h={h})")
        self.pair = pair


# Recognition.


class MeetNotTrivialError(GroupError):
    """The two subgroups intersect beyond the identity."""


class JoinNotFullError(GroupError):
    """The two subgroups do not generate the whole group."""


# Classification.


class NotPrimeError(GroupError):
    """Argument required to be prime is not."""


class UnsupportedOrderError(GroupError):
    """Group order is not of the shape p^2 or p*q for primes p != q."""


class NoNoncyclicGroupError(GroupError):
    """No noncyclic group of order p*q exists for these primes."""


class BadOrderError(GroupError):
    """Order does not match the requested prime pair."""


class HypothesisFailedError(GroupError):
    """A theorem hypothesis fails; names which one."""

    def __init__(self, which: str):
        super().__init__(which)
        self.which = which
