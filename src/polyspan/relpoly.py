"""Polynomials in the bicategory of relations between finite sets.

A relation X -> Y is a jointly monomorphic span, stored as a sorted
duplicate-free pair list.  2-cells are inclusions, so every coherence
statement collapses to an equality of normalized relations.  A polynomial
here has a subset as its neat leg and a relation as its lifter leg; these
compose through a universally quantified restriction, and the whole
structure is equivalent to partial maps into power sets composed Kleisli
style.  Both routes are implemented and compared by the tests.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import InvariantViolation, require
from .finset import FinSetMap, FinSetObj, Subset, full_subset
from .record import Record, cached_property

Pair = tuple[int, int]


class Relation(Record):
    """Pairs (x, y) meaning x is related to y, sorted lexicographically.
    Rows come by bisection of the pairs; columns come from one index, built
    in a single pass the first time it is read and cached like a fiber index."""

    src: FinSetObj
    tgt: FinSetObj
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        for x, y in self.pairs:
            if not (0 <= x < self.src.size and 0 <= y < self.tgt.size):
                raise InvariantViolation("relation-range",
                                         f"pair ({x}, {y}) out of range")
        require(all(a < b for a, b in zip(self.pairs, self.pairs[1:])),
                "relation-order",
                "pairs must be strictly increasing lexicographically")

    def __contains__(self, pair: Pair) -> bool:
        k = bisect_left(self.pairs, pair)
        return k < len(self.pairs) and self.pairs[k] == pair

    def row(self, x: int) -> tuple[int, ...]:
        """The points related to x, in increasing order."""
        lo = bisect_left(self.pairs, (x,))
        hi = bisect_left(self.pairs, (x + 1,))
        return tuple(y for _, y in self.pairs[lo:hi])

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The points related to each y, in increasing order, indexed by y."""
        columns: list[list[int]] = [[] for _ in self.tgt.elements]
        for x, y in self.pairs:
            columns[y].append(x)
        return tuple(map(tuple, columns))


def rel(src: FinSetObj, tgt: FinSetObj, pairs) -> Relation:
    """Normalize an arbitrary iterable of pairs into a Relation."""
    return Relation(src, tgt, tuple(sorted(set(map(tuple, pairs)))))


def identity_rel(x: FinSetObj) -> Relation:
    return Relation(x, x, tuple((i, i) for i in x.elements))


def full_rel(x: FinSetObj, y: FinSetObj) -> Relation:
    return Relation(x, y, tuple((i, j) for i in x.elements
                                for j in y.elements))


def reverse_rel(r: Relation) -> Relation:
    return rel(r.tgt, r.src, ((y, x) for x, y in r.pairs))


def graph_rel(f: FinSetMap) -> Relation:
    return rel(f.dom, f.cod, ((i, f(i)) for i in f.dom.elements))


def rel_leq(a: Relation, b: Relation) -> bool:
    """The local order: containment of pair sets over equal boundaries."""
    require(a.src == b.src and a.tgt == b.tgt, "rel-leq-boundary",
            "relations must be parallel")
    return set(a.pairs) <= set(b.pairs)


def rel_compose(n: Relation, m: Relation) -> Relation:
    """Composite relation: x related to z when some y links them."""
    require(m.tgt == n.src, "rel-compose-boundary",
            "codomain of the first factor must match domain of the second")
    mid = m.columns
    out = set()
    for y, z in n.pairs:
        for x in mid[y]:
            out.add((x, z))
    return Relation(m.src, n.tgt, tuple(sorted(out)))


def rel_rif(n: Relation, u: Relation) -> Relation:
    """Right lifting of u through the lifter n: the universally
    quantified relation (k, t) iff every y related to t by n is related
    to k by u."""
    require(n.tgt == u.tgt, "rel-rif-boundary",
            "lifter and target must share their codomain")
    u_set = set(u.pairs)
    out = []
    for k in u.src.elements:
        for t in n.src.elements:
            if all((k, y) in u_set for y in n.row(t)):
                out.append((k, t))
    return rel(u.src, n.src, out)


class Tabulation(Record):
    """A relation out of a one-point set presented as a subset inclusion
    together with its graph relation as the witnessing leg."""

    p: FinSetMap
    rho: Relation


def tabulate_rel(u: Relation) -> Tabulation:
    require(u.src.size == 1, "tabulate-src",
            "only relations out of a one-point set are tabulated")
    members = tuple(sorted(y for _, y in u.pairs))
    sub = Subset(u.tgt, members)
    p = sub.inclusion()
    return Tabulation(p, graph_rel(p))


class RelPolynomial(Record):
    """A polynomial from X to C in the relational world: the neat leg is
    a subset Z of C and the lifter leg is a relation from X to Z."""

    X: FinSetObj
    C: FinSetObj
    Z: Subset
    A: Relation

    def __post_init__(self) -> None:
        require(self.Z.ambient == self.C, "relpoly-typing",
                "Z must be a subset of C")
        require(self.A.src == self.X and self.A.tgt == self.Z.as_object(),
                "relpoly-typing",
                "A must be a relation from X to the domain of Z")


def identity_polyrel(x: FinSetObj) -> RelPolynomial:
    return RelPolynomial(x, x, full_subset(x), identity_rel(x))


def compose_polyrel(q: RelPolynomial, p: RelPolynomial) -> RelPolynomial:
    """Composite polynomial: the new neat subset keeps the points of q's
    subset all of whose lifter partners land in p's subset, and the new
    lifter is p's relation followed by the restriction of q's."""
    require(p.C == q.X, "relpoly-compose-boundary",
            "middle boundaries do not match")
    in_pz = set(p.Z.members)
    partners = q.A.columns
    kept = [j for j in range(len(q.Z.members))
            if all(c in in_pz for c in partners[j])]
    z_new = Subset(q.C, tuple(q.Z.members[j] for j in kept))
    pz_index = {c: i for i, c in enumerate(p.Z.members)}
    kept_index = {j: i for i, j in enumerate(kept)}
    restriction = rel(p.Z.as_object(), z_new.as_object(),
                      ((pz_index[c], kept_index[j])
                       for c, j in q.A.pairs if j in kept_index))
    return RelPolynomial(p.X, q.C, z_new, rel_compose(restriction, p.A))


class PartialMapToPower(Record):
    """A partial map from D to the power set of X: defined on the subset
    B, with one sorted tuple of X-indices per member of B."""

    X: FinSetObj
    D: FinSetObj
    B: Subset
    value: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        require(self.B.ambient == self.D, "pmap-typing",
                "B must be a subset of D")
        require(len(self.value) == len(self.B.members), "pmap-domain",
                "one value per point of the domain subset")
        for v in self.value:
            require(all(0 <= x < self.X.size for x in v)
                    and all(a < b for a, b in zip(v, v[1:])),
                    "pmap-typing", "values must be sorted subsets of X")


def to_partial_map(p: RelPolynomial) -> PartialMapToPower:
    """Reading of a polynomial as the partial map classifying its lifter
    relation pointwise over the neat subset."""
    return PartialMapToPower(p.X, p.C, p.Z, p.A.columns)


def from_partial_map(pm: PartialMapToPower) -> RelPolynomial:
    pairs = [(x, j) for j, row in enumerate(pm.value) for x in row]
    return RelPolynomial(pm.X, pm.D, pm.B,
                         rel(pm.X, pm.B.as_object(), pairs))


def kleisli_compose(g: PartialMapToPower,
                    f: PartialMapToPower) -> PartialMapToPower:
    """Kleisli composite of partial maps into power sets: keep the points
    whose image lies inside f's domain and take unions of f-values."""
    require(g.X == f.D, "kleisli-boundary",
            "values of the second factor must land in the first's source")
    fb = set(f.B.members)
    f_index = {c: i for i, c in enumerate(f.B.members)}
    kept = [i for i, v in enumerate(g.value) if all(c in fb for c in v)]
    b_new = Subset(g.D, tuple(g.B.members[i] for i in kept))
    values = []
    for i in kept:
        acc = set()
        for c in g.value[i]:
            acc.update(f.value[f_index[c]])
        values.append(tuple(sorted(acc)))
    return PartialMapToPower(f.X, g.D, b_new, tuple(values))


def hK_rel(k: FinSetObj, p: RelPolynomial, s: Relation) -> Relation:
    """The hom-action on relations out of K: a point lands on c exactly
    when c is in the neat subset and every lifter partner of c is already
    related to the point by s."""
    require(s.src == k and s.tgt == p.X, "hK-rel-boundary",
            "s must be a relation K -> X")
    s_set = set(s.pairs)
    partners = p.A.columns
    out = []
    for kk in k.elements:
        for j, c in enumerate(p.Z.members):
            if all((kk, x) in s_set for x in partners[j]):
                out.append((kk, c))
    return rel(k, p.C, out)
