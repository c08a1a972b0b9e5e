"""Classification of groups of order p^2 and pq with explicit witnesses.

The classifier never runs a raw isomorphism search on its main path: it
extracts prime-order subgroups, checks normality, applies internal-product
recognition, and transports the witness onto the canonical representative
with a pair-map isomorphism (sdp_congr). Order p^2 takes the same path as
pq: C_p x C_p is the semidirect product with trivial action. The
independent isomorphism search stays available as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteGroup, cyclic_group
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationReport,
    check_order_fits,
    enumerate_groups,
)
from .errors import (
    BadOrderError,
    GroupError,
    HypothesisFailedError,
    IncompatibleActionError,
    NoNoncyclicGroupError,
    NotPrimeError,
    UnsupportedOrderError,
)
from .morphisms import (
    Hom,
    Iso,
    automorphism_group,
    cyclic_hom,
    iso_from_forward,
    trivial_hom,
)
from .products import (
    ProductGroup,
    cyclic_power_semidirect,
    direct_product,
    sdp_congr,
    semidirect_product,
)
from .recognition import internal_semidirect
from .subgroups import (
    distinct_subgroups_of_order,
    is_prime,
    subgroup_of_order,
)


@dataclass(frozen=True)
class OrderShape:
    """Factorization shape of a group order: p^2, p*q with p < q, or neither."""

    kind: str  # "prime-squared" | "distinct-primes" | "unsupported"
    order: int
    p: int = 0
    q: int = 0


# 2^2: no smaller order has the shape p^2 or p*q.
SMALLEST_VERIFIED_ORDER = 4


def order_shape(n: int) -> OrderShape:
    if n >= 4:
        d = 2
        while d * d <= n:
            if n % d == 0:
                rest = n // d
                if rest == d:
                    return OrderShape("prime-squared", n, p=d, q=d)
                if rest != d and is_prime(rest) and is_prime(d):
                    return OrderShape("distinct-primes", n, p=d, q=rest)
                break
            d += 1
    return OrderShape("unsupported", n)


@dataclass(frozen=True)
class ClassificationResult:
    """Base class; kind is one of Cyclic, ElementaryAbelianPP, SemidirectQP."""

    iso: Iso

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CyclicResult(ClassificationResult):
    generator: int = 0

    @property
    def kind(self) -> str:
        return "Cyclic"

    def describe(self) -> str:
        return f"Cyclic n={self.iso.target.order} generator={self.generator}"


@dataclass(frozen=True)
class ElementaryAbelianResult(ClassificationResult):
    p: int = 0

    @property
    def kind(self) -> str:
        return "ElementaryAbelianPP"

    def describe(self) -> str:
        return f"ElementaryAbelianPP p={self.p}"


@dataclass(frozen=True)
class SemidirectResult(ClassificationResult):
    p: int = 0
    q: int = 0
    k: int = 0
    phi: Hom | None = None

    @property
    def kind(self) -> str:
        return "SemidirectQP"

    def describe(self) -> str:
        return f"SemidirectQP p={self.p} q={self.q} k={self.k}"


def noncyclic_exists(p: int, q: int) -> bool:
    """Whether a noncyclic group of order p*q exists:
    p = q, or p divides q - 1, or q divides p - 1."""
    for value in (p, q):
        if not is_prime(value):
            raise NotPrimeError(f"{value} is not prime")
    return p == q or (q - 1) % p == 0 or (p - 1) % q == 0


def smallest_action_exponent(p: int, q: int) -> int:
    """Smallest k > 1 with k^p = 1 mod q (requires p | q - 1)."""
    k = 2
    while pow(k, p, q) != 1:
        k += 1
        if k >= q:
            raise NoNoncyclicGroupError(f"no nontrivial action of C_{p} on C_{q}")
    return k


def canonical_semidirect(p: int, q: int) -> tuple[ProductGroup, int]:
    """The canonical noncyclic C_q x| C_p (p | q - 1) and its exponent k: the
    generator of C_p acts as r -> r^k with k the smallest exponent above 1
    of order p mod q."""
    k = smallest_action_exponent(p, q)
    return cyclic_power_semidirect(q, p, k), k


def canonical_noncyclic(p: int, q: int) -> FiniteGroup:
    """The canonical noncyclic group of order p*q: C_p x C_p when p = q,
    else the semidirect product with the smaller prime acting."""
    if not noncyclic_exists(p, q):
        raise NoNoncyclicGroupError(f"every group of order {p * q} is cyclic")
    if p == q:
        return direct_product(cyclic_group(p), cyclic_group(p)).group
    if (q - 1) % p == 0:
        acting, normal = p, q
    else:
        acting, normal = q, p
    return canonical_semidirect(acting, normal)[0].group


def _classify_cyclic(g: FiniteGroup, generator: int) -> CyclicResult:
    iso = iso_from_forward(cyclic_hom(g, cyclic_group(g.order), 1))
    return CyclicResult(iso=iso, generator=generator)


def _classify_noncyclic(g: FiniteGroup, p: int, q: int) -> ClassificationResult:
    """Carry an internal semidirect witness N x| H of a noncyclic g onto the
    canonical target by a pair map: N of order q and H of order p (p < q),
    or two distinct subgroups of order p = q, acting trivially."""
    if p == q:
        n, h = distinct_subgroups_of_order(g, p)
        target = direct_product(cyclic_group(p), cyclic_group(p))
    else:
        n, h = subgroup_of_order(g, q), subgroup_of_order(g, p)
        target, k = canonical_semidirect(p, q)
    witness = internal_semidirect(g, n, h)
    f_q = iso_from_forward(cyclic_hom(witness.product.n_factor, target.n_factor, 1))
    # A trivial action (p = q) is compatible already at a = 1.
    for a in range(1, p):
        f_p = iso_from_forward(cyclic_hom(witness.product.h_factor, target.h_factor, a))
        try:
            bridge = sdp_congr(f_q, f_p, witness.product, target)
        except IncompatibleActionError:
            continue
        iso = witness.iso.then(bridge)
        if p == q:
            return ElementaryAbelianResult(iso=iso, p=p)
        return SemidirectResult(iso=iso, p=p, q=q, k=k, phi=target.phi)
    raise AssertionError("no compatible factor isomorphism; nontrivial actions "
                         "of C_p on C_q should be conjugate")


def classify(g: FiniteGroup) -> ClassificationResult:
    """Classify a group of order p^2 or p*q, returning an explicit
    isomorphism onto the canonical representative."""
    shape = order_shape(g.order)
    if shape.kind == "unsupported":
        raise UnsupportedOrderError(
            f"order {g.order} is not p^2 or p*q for primes p != q"
        )
    generator = g.cyclic_generator()
    if generator is not None:
        return _classify_cyclic(g, generator)
    return _classify_noncyclic(g, shape.p, shape.q)


def express_as_semidirect(g: FiniteGroup, p: int, q: int) -> tuple[Hom, Iso]:
    """Present a group of order p*q (p < q) as C_q x| C_p for some action:
    the trivial action when g is cyclic, the canonical nontrivial one
    otherwise."""
    if not (is_prime(p) and is_prime(q) and p < q):
        raise BadOrderError(f"need primes p < q, got p={p}, q={q}")
    if g.order != p * q:
        raise BadOrderError(f"group order {g.order} is not {p}*{q}")
    if not g.is_cyclic():
        result = _classify_noncyclic(g, p, q)
        return result.phi, result.iso
    cq = cyclic_group(q)
    cp = cyclic_group(p)
    phi = trivial_hom(cp, automorphism_group(cq).carrier)
    product = semidirect_product(cq, cp, phi)
    iso = iso_from_forward(cyclic_hom(g, product.group, product.pair_index(1, 1)))
    return phi, iso


def verify_uniqueness(g1: FiniteGroup, g2: FiniteGroup) -> Iso:
    """Uniqueness of the noncyclic group of order p*q (p = q allowed):
    both groups are classified and the witnesses are composed through the
    shared canonical representative, never by raw search."""
    if g1.order != g2.order:
        raise HypothesisFailedError("order mismatch")
    shape = order_shape(g1.order)
    if shape.kind == "unsupported":
        raise HypothesisFailedError("bad order shape")
    if g1.is_cyclic():
        raise HypothesisFailedError("G1 is cyclic")
    if g2.is_cyclic():
        raise HypothesisFailedError("G2 is cyclic")
    r1 = classify(g1)
    r2 = classify(g2)
    if r1.iso.target != r2.iso.target:
        raise AssertionError("classification targets disagree at equal order")
    return r1.iso.then(r2.iso.inverse())


@dataclass(frozen=True)
class OrderCheck:
    """One row of the theorem verification report."""

    order: int
    p: int
    q: int
    predicted: int
    oracle: int
    kinds: tuple[str, ...]
    passed: bool


@dataclass(frozen=True)
class TheoremReport:
    max_order: int
    rows: tuple[OrderCheck, ...]
    all_pass: bool

    def to_text(self) -> str:
        lines = [f"{'order':>5}  {'predicted':>9}  {'oracle':>6}  {'status':>6}  classes"]
        for row in self.rows:
            status = "ok" if row.passed else "FAIL"
            lines.append(
                f"{row.order:>5}  {row.predicted:>9}  {row.oracle:>6}  {status:>6}  "
                + ", ".join(row.kinds)
            )
        lines.append(f"all orders pass: {'yes' if self.all_pass else 'NO'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "all_pass": self.all_pass,
            "rows": [
                {
                    "order": row.order,
                    "p": row.p,
                    "q": row.q,
                    "predicted": row.predicted,
                    "oracle": row.oracle,
                    "kinds": list(row.kinds),
                    "passed": row.passed,
                }
                for row in self.rows
            ],
        }


def verify_theorem(max_order: int, budget: int | None = None) -> TheoremReport:
    """Check, for each order of shape p^2 or p*q up to max_order, that the
    enumeration oracle finds exactly the predicted number of isomorphism
    classes and that every representative classifies with a valid witness."""
    if max_order < SMALLEST_VERIFIED_ORDER:
        raise ValueError(
            f"max_order {max_order} checks no order; the smallest order of shape "
            f"p^2 or p*q is {SMALLEST_VERIFIED_ORDER}"
        )
    if budget is None:
        budget = max(max_order, DEFAULT_BUDGET)
    shapes = [order_shape(n) for n in range(SMALLEST_VERIFIED_ORDER, max_order + 1)]
    shapes = [shape for shape in shapes if shape.kind != "unsupported"]
    # Every order's budget and kernel limit, before the first enumeration.
    for shape in shapes:
        check_order_fits(shape.order, budget)
    rows = []
    for shape in shapes:
        n = shape.order
        predicted = 1 + (1 if noncyclic_exists(shape.p, shape.q) else 0)
        report: EnumerationReport = enumerate_groups(n, budget=budget)
        kinds = []
        classified_ok = True
        for rep in report.representatives:
            try:
                result = classify(rep)
                result.iso.validate()
                kinds.append(result.kind)
            except (GroupError, AssertionError) as exc:
                classified_ok = False
                kinds.append(f"error: {type(exc).__name__}")
        passed = (
            predicted == report.count
            and classified_ok
            and len(set(kinds)) == len(kinds)
        )
        rows.append(
            OrderCheck(n, shape.p, shape.q, predicted, report.count, tuple(kinds), passed)
        )
    return TheoremReport(max_order, tuple(rows), all(r.passed for r in rows))
