"""Finite sets, maps between them, and the fiberwise constructions over them.

A finite set is its size: elements are the indices 0..size-1 and a map is a
full lookup table.  Every derived set built here (pullback pairs, section
sets, images) comes with a documented canonical element order, so identical
inputs always yield identical tables.

Each map carries one fiber index, built lazily in a single pass over its
table the first time a fiber is asked for and kept with the map: every fiber
in increasing order and, when asked for, each element's position within its
own fiber.  ``fiber`` is a lookup in it, and ``pullback`` is a hash join
over it that costs O(|A| + |pairs|).

A pullback holds its laws by construction: its pairs are exactly the
matching ones, so its apex, both projections and the square itself are
built with ``_trusted``, the projections split off the pairs in one pass.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .errors import InvariantViolation, require
from .record import Record, cached_property


class FinSetObj(Record):
    """A finite set: a size plus optional distinct element labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.size >= 0:
            raise InvariantViolation("object-size",
                                     f"size {self.size} is negative")
        if self.labels is not None:
            require(len(self.labels) == self.size, "object-labels",
                    "label count differs from size")
            require(len(set(self.labels)) == self.size, "object-labels",
                    "labels must be distinct")

    @property
    def elements(self) -> range:
        return range(self.size)


def _check_table(table, dom_size: int, cod_size: int) -> None:
    """Raise what a map of this table would: ``map-total`` for a length
    other than dom_size, else ``map-range`` at the first entry outside
    range(cod_size).  Modules, whose actions are tables, share it."""
    if len(table) != dom_size:
        raise InvariantViolation("map-total", f"table length {len(table)} "
                                 f"!= domain size {dom_size}")
    if table and not (0 <= min(table) and max(table) < cod_size):
        for i, j in enumerate(table):
            require(0 <= j < cod_size, "map-range",
                    f"entry {i} -> {j} lands outside a codomain of size {cod_size}")


class FinSetMap(Record):
    """A function between finite sets, tabulated on every element."""

    dom: FinSetObj
    cod: FinSetObj
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_table(self.table, self.dom.size, self.cod.size)

    def __call__(self, i: int) -> int:
        return self.table[i]

    def then(self, other: FinSetMap) -> FinSetMap:
        """Diagrammatic composite: first self, then other."""
        return compose(other, self)

    # The fiber index.  Cached properties are not fields, so equality and
    # hashing still see only the table.
    @cached_property
    def _fibers(self) -> tuple[tuple[int, ...], ...]:
        """Every fiber, indexed by codomain point, built in one pass."""
        fibers: list[list[int]] = [[] for _ in range(self.cod.size)]
        for i, j in enumerate(self.table):
            fibers[j].append(i)
        return tuple(map(tuple, fibers))

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        """The position of each domain element within its own fiber."""
        positions = [0] * self.dom.size
        for fib in self._fibers:
            for k, i in enumerate(fib):
                positions[i] = k
        return tuple(positions)

    def fiber(self, j: int) -> tuple[int, ...]:
        """The preimage of j, in increasing order; empty for j outside the
        codomain."""
        return self._fibers[j] if 0 <= j < self.cod.size else ()

    def fiber_position(self, i: int) -> int:
        """The position of i within fiber(self(i))."""
        return self._positions[i]

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.elements)

    @property
    def is_bijective(self) -> bool:
        # an injection onto a codomain of its domain's size is onto
        return len(set(self.table)) == len(self.table) == self.cod.size

    def inverse(self) -> FinSetMap:
        require(self.is_bijective, "map-invertible", "only a bijection has an inverse")
        table = [0] * self.cod.size
        for i, j in enumerate(self.table):
            table[j] = i
        return FinSetMap._trusted(self.cod, self.dom, tuple(table))


def identity(x: FinSetObj) -> FinSetMap:
    return FinSetMap._trusted(x, x, tuple(x.elements))


def compose(g: FinSetMap, f: FinSetMap) -> FinSetMap:
    """Classical composite g after f."""
    require(f.cod == g.dom, "compose-boundary",
            "codomain of the first map differs from domain of the second")
    return FinSetMap._trusted(f.dom, g.cod,
                              tuple(map(g.table.__getitem__, f.table)))


def constant(dom: FinSetObj, cod: FinSetObj, value: int) -> FinSetMap:
    return FinSetMap(dom, cod, (value,) * dom.size)


class Subset(Record):
    """A subset of a finite set, members kept in strictly increasing order."""

    ambient: FinSetObj
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.members:
            if not 0 <= m < self.ambient.size:
                raise InvariantViolation(
                    "subset-range",
                    f"member {m} outside ambient of size {self.ambient.size}")
        require(all(a < b for a, b in zip(self.members, self.members[1:])),
                "subset-order", "members must be strictly increasing")

    def __contains__(self, i: int) -> bool:
        k = bisect_left(self.members, i)
        return k < len(self.members) and self.members[k] == i

    def as_object(self) -> FinSetObj:
        return FinSetObj(len(self.members))

    def inclusion(self) -> FinSetMap:
        return FinSetMap(self.as_object(), self.ambient, self.members)


def full_subset(x: FinSetObj) -> Subset:
    return Subset(x, tuple(x.elements))


class Pullback(Record):
    """Pullback of a cospan (f, g): pairs (a, b) with f(a) = g(b), in
    lexicographic order.  ``pr1``/``pr2`` project a pair to its components."""

    f: FinSetMap
    g: FinSetMap
    apex: FinSetObj
    pr1: FinSetMap
    pr2: FinSetMap
    pairs: tuple[tuple[int, int], ...]

    def index(self, a: int, b: int) -> int:
        """Position of the pair (a, b) in the canonical order."""
        try:
            return self._lookup[(a, b)]
        except KeyError:
            require(False, "pullback-membership",
                    f"({a}, {b}) is not a pullback pair")
            raise AssertionError  # unreachable

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.pairs)}

    def mediate(self, h1: FinSetMap, h2: FinSetMap) -> FinSetMap:
        """The unique map u with pr1∘u = h1 and pr2∘u = h2, given a cone."""
        require(h1.dom == h2.dom, "mediate-boundary",
                "cone legs must share a domain")
        require(h1.cod == self.f.dom and h2.cod == self.g.dom,
                "mediate-boundary", "cone legs must land in the cospan feet")
        require(compose(self.f, h1) == compose(self.g, h2),
                "mediate-cone", "the cone does not commute with the cospan")
        return FinSetMap._trusted(h1.dom, self.apex, tuple(
            self.index(h1(w), h2(w)) for w in h1.dom.elements))


def pullback(f: FinSetMap, g: FinSetMap) -> Pullback:
    require(f.cod == g.cod, "pullback-boundary", "maps must share a codomain")
    over = g._fibers
    pairs = [(a, b) for a, j in enumerate(f.table) for b in over[j]]
    firsts, seconds = zip(*pairs) if pairs else ((), ())
    apex = FinSetObj._trusted(len(pairs))
    return Pullback._trusted(f, g, apex,
                             FinSetMap._trusted(apex, f.dom, firsts),
                             FinSetMap._trusted(apex, g.dom, seconds),
                             tuple(pairs))


class Pi(Record):
    """Dependent product of a family x: X→A along f: A→B.

    Elements of ``obj`` are pairs (b, sigma): a point of B together with a
    section sigma picking, for each a in the fiber of f over b, an element
    of X over a.  Pairs are ordered by b, then lexicographically by sigma
    over the increasingly sorted fiber; an empty fiber contributes the one
    empty section.  ``ev`` evaluates sections: it is defined on the pullback
    of (proj, f), whose pairs are (section index, fiber element).
    """

    obj: FinSetObj
    proj: FinSetMap
    elements: tuple[tuple[int, tuple[int, ...]], ...]
    fibers: tuple[tuple[int, ...], ...]
    square: Pullback
    ev: FinSetMap


def pi_f(f: FinSetMap, x: FinSetMap) -> Pi:
    require(x.cod == f.dom, "pi-boundary", "family must live over the domain of f")
    fibers, over, position = f._fibers, x._fibers, f._positions
    elements = [(b, sigma) for b, fib in enumerate(fibers)
                for sigma in itertools.product(*(over[a] for a in fib))]
    obj = FinSetObj(len(elements))
    proj = FinSetMap(obj, f.cod, tuple(b for b, _ in elements))
    square = pullback(proj, f)
    ev = FinSetMap(square.apex, x.dom, tuple(elements[s][1][position[a]]
                                             for s, a in square.pairs))
    return Pi(obj, proj, tuple(elements), fibers, square, ev)


def preimage(f: FinSetMap, s: Subset) -> Subset:
    require(s.ambient == f.cod, "preimage-boundary",
            "subset must live in the codomain of f")
    mem = set(s.members)
    return Subset(f.dom, tuple(i for i in f.dom.elements if f(i) in mem))


def exists_f(f: FinSetMap, s: Subset) -> Subset:
    """Direct image: the left adjoint to preimage."""
    require(s.ambient == f.dom, "exists-boundary",
            "subset must live in the domain of f")
    return Subset(f.cod, tuple(sorted({f(i) for i in s.members})))


def forall_f(f: FinSetMap, s: Subset) -> Subset:
    """Points whose whole fiber lies in s: the right adjoint to preimage.

    A point with empty fiber is always included (vacuous condition).
    """
    require(s.ambient == f.dom, "forall-boundary",
            "subset must live in the domain of f")
    mem = set(s.members)
    return Subset(f.cod, tuple(b for b in f.cod.elements
                               if all(a in mem for a in f.fiber(b))))


def image_factorization(f: FinSetMap) -> tuple[FinSetMap, FinSetMap]:
    """Split f as a surjection onto its image followed by an injection.

    Image elements are ordered by first appearance along the domain.
    """
    seen: dict[int, int] = {}
    for j in f.table:
        if j not in seen:
            seen[j] = len(seen)
    im = FinSetObj(len(seen))
    epi = FinSetMap(f.dom, im, tuple(seen[j] for j in f.table))
    mono = FinSetMap(im, f.cod, tuple(sorted(seen, key=seen.__getitem__)))
    return epi, mono

