"""Finite categories: functors, presheaves, fibration predicates, and the
constructions tying presheaves to discrete fibrations.

Conventions used throughout:
  - morphisms are indices with source/target/identity tables; ``comp[g][f]``
    is g after f when defined and -1 otherwise;
  - hom-sets are listed in increasing morphism-index order;
  - every constructed category documents its object and morphism order, so
    rebuilding from equal inputs gives equal tables;
  - every category the library computes is built by ``_cat`` from its
    composable pairs of non-identities;
  - hom-sets and lifts are fibers of cached maps with the fiber index of
    ``FinSetMap``: a category files each morphism under (src, tgt) and a
    functor files each morphism under (tgt, image), so ``hom``,
    ``hom_position`` and ``lifts`` are lookups;
  - a presheaf is held as a module column is (``modpoly``): a size per
    object and an int table per morphism;
  - laws of categories, functors, natural transformations and functors
    into sets (presheaves here, modules in ``modpoly``) are checked on
    tables in one pass, by one typing test or one ordered loop, and a
    message is formatted only for the first failure in that order;
  - every search for natural maps (presheaf isomorphisms here; module
    morphisms, isomorphisms and right liftings in ``modpoly``) is one
    search, ``_natural_maps``, over the elements of both sides laid out
    cell by cell, with one naturality square per non-identity action, that
    lists the free elements past the last one a square leaves as a product.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

from .errors import InvariantViolation, require
from .finset import FinSetMap, FinSetObj
from .record import Record, cached_property
from .unionfind import UnionFind


class FinCat(Record):
    """A finite category.  Tables from a caller or a document are checked
    at construction; the categories built here from lawful ones hold the
    laws by construction (``_trusted``) and are checked in the tests."""

    objects: FinSetObj
    morphisms: FinSetObj
    src: FinSetMap
    tgt: FinSetMap
    ident: FinSetMap
    comp: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        o, m = self.objects, self.morphisms
        require(self.src.dom == m and self.src.cod == o, "cat-src-typing",
                "src must map morphisms to objects")
        require(self.tgt.dom == m and self.tgt.cod == o, "cat-tgt-typing",
                "tgt must map morphisms to objects")
        require(self.ident.dom == o and self.ident.cod == m, "cat-ident-typing",
                "ident must map objects to morphisms")
        src, tgt, ident, comp = (self.src.table, self.tgt.table,
                                 self.ident.table, self.comp)
        for x in o.elements:
            i = ident[x]
            if src[i] != x or tgt[i] != x:
                raise InvariantViolation("cat-ident-endo", f"identity of object {x} "
                                         f"is not an endomorphism at {x}")
        require(len(comp) == m.size, "cat-comp-shape",
                "composition table needs one row per morphism")
        for g in m.elements:
            row = comp[g]
            require(len(row) == m.size, "cat-comp-shape",
                    "composition table rows must cover all morphisms")
            sg, tg = src[g], tgt[g]
            for f in m.elements:
                c = row[f]
                if tgt[f] != sg:
                    if c != -1:
                        raise InvariantViolation("cat-comp-partial", "composite defined "
                                                 f"for non-composable pair ({g}, {f})")
                elif not 0 <= c < m.size:
                    raise InvariantViolation("cat-comp-total",
                                             f"composable pair ({g}, {f}) has no composite")
                elif src[c] != src[f] or tgt[c] != tg:
                    raise InvariantViolation("cat-comp-typing",
                                             f"composite of ({g}, {f}) has wrong boundary")
        for f in m.elements:
            if comp[ident[tgt[f]]][f] != f:
                raise InvariantViolation("cat-unit", f"left unit law fails at morphism {f}")
            if comp[f][ident[src[f]]] != f:
                raise InvariantViolation("cat-unit", f"right unit law fails at morphism {f}")
        # with the unit laws holding, a triple with an identity in it is
        # associative: only triples of non-identities can fail, and the
        # first one that fails is the first failing triple of all
        ids = set(ident)
        later = [[g for g in fib if g not in ids] for fib in self.src._fibers]
        for f in m.elements:
            if f in ids:
                continue
            for g in later[tgt[f]]:
                gf = comp[g][f]
                for h in later[tgt[g]]:
                    row = comp[h]
                    if row[gf] != comp[row[g]][f]:
                        raise InvariantViolation("cat-assoc",
                                                 f"associativity fails on ({h}, {g}, {f})")

    @property
    def objs(self) -> range:
        return self.objects.elements

    @property
    def mors(self) -> range:
        return self.morphisms.elements

    # Cached properties are not fields: equality and hashing see the tables.
    @cached_property
    def _homs(self) -> FinSetMap:
        """Each morphism filed under (src, tgt): the fibers are the hom-sets."""
        n = self.objects.size
        return FinSetMap._trusted(self.morphisms, FinSetObj(n * n), tuple(
            s * n + t for s, t in zip(self.src.table, self.tgt.table)))

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        """The morphisms x -> y; empty when x or y is not an object."""
        n = self.objects.size
        return self._homs.fiber(x * n + y) if 0 <= x < n and 0 <= y < n else ()

    def hom_position(self, f: int) -> int:
        """The position of f within hom(src f, tgt f)."""
        return self._homs.fiber_position(f)

    def out_of(self, x: int) -> tuple[int, ...]:
        return self.src.fiber(x)

    def is_identity(self, f: int) -> bool:
        return self.ident(self.src(f)) == f

    @cached_property
    def non_identities(self) -> tuple[int, ...]:
        """The morphisms that are not identities, in increasing order.
        Once identities are checked to act as identities, every law of an
        action or a natural map holds along them: law loops run over these."""
        ids = set(self.ident.table)
        return tuple(f for f in self.mors if f not in ids)

    def inverse_of(self, f: int) -> int | None:
        for g in self.hom(self.tgt(f), self.src(f)):
            if (self.comp[g][f] == self.ident(self.src(f))
                    and self.comp[f][g] == self.ident(self.tgt(f))):
                return g
        return None

    def is_iso(self, f: int) -> bool:
        return self.inverse_of(f) is not None


def _cat(n: int, src, tgt, ident, composite) -> FinCat:
    """The category on n objects whose morphism f runs from ``src[f]`` to
    ``tgt[f]``, with identity ``ident[x]`` at x, where g after f is
    ``composite(g, f)``.  Every category the library computes is built
    here (``opposite_cat`` only transposes one), so this is the one writer
    of a computed dense ``comp``.  ``composite`` is called only for the
    composable pairs of non-identities, found through the fibers of src;
    identities compose by construction, so ``composite`` is never called
    when no two non-identities compose."""
    o, m = FinSetObj(n), FinSetObj(len(src))
    src_map = FinSetMap._trusted(m, o, tuple(src))
    tgt_map = FinSetMap._trusted(m, o, tuple(tgt))
    ident_map = FinSetMap._trusted(o, m, tuple(ident))
    ids = set(ident_map.table)
    rows = [[-1] * m.size for _ in src]
    for f, y in enumerate(tgt_map.table):
        for g in src_map.fiber(y):
            rows[g][f] = g if f in ids else f if g in ids else composite(g, f)
    return FinCat._trusted(o, m, src_map, tgt_map, ident_map,
                           tuple(map(tuple, rows)))


def discrete_cat(n: int) -> FinCat:
    return _cat(n, range(n), range(n), range(n), None)


_TERMINAL = discrete_cat(1)


def terminal_cat() -> FinCat:
    """The one-object category: one shared value, as it is immutable."""
    return _TERMINAL


def ordinal2() -> FinCat:
    """Two objects 0, 1 and a single non-identity arrow 2: 0 -> 1."""
    return _cat(2, (0, 1, 0), (0, 1, 1), (0, 1), None)


def monoid_cat(table: tuple[tuple[int, ...], ...], unit: int) -> FinCat:
    """One-object category whose morphisms multiply by ``table[g][f]`` = g∘f."""
    n = len(table)
    o, m = FinSetObj(1), FinSetObj(n)
    return FinCat(o, m, FinSetMap(m, o, (0,) * n), FinSetMap(m, o, (0,) * n),
                  FinSetMap(o, m, (unit,)), tuple(tuple(r) for r in table))


def opposite_cat(c: FinCat) -> FinCat:
    return FinCat._trusted(c.objects, c.morphisms, c.tgt, c.src, c.ident,
                           tuple(zip(*c.comp)))


def product_cat(a: FinCat, b: FinCat) -> FinCat:
    """Objects and morphisms are pairs, enumerated with the first factor major."""
    no, nm = b.objects.size, b.morphisms.size
    ac, bc = a.comp, b.comp
    return _cat(a.objects.size * no,
                [a.src(f) * no + b.src(g) for f in a.mors for g in b.mors],
                [a.tgt(f) * no + b.tgt(g) for f in a.mors for g in b.mors],
                [a.ident(x) * nm + b.ident(y) for x in a.objs for y in b.objs],
                lambda g, f: ac[g // nm][f // nm] * nm + bc[g % nm][f % nm])


class Functor(Record):
    dom: FinCat
    cod: FinCat
    omap: tuple[int, ...]
    mmap: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = self.dom, self.cod
        omap, mmap = self.omap, self.mmap
        require(len(omap) == a.objects.size, "functor-omap",
                "object table length mismatch")
        require(len(mmap) == a.morphisms.size, "functor-mmap",
                "morphism table length mismatch")
        require(not omap or 0 <= min(omap) and max(omap) < b.objects.size,
                "functor-omap", "object image out of range")
        require(not mmap or 0 <= min(mmap) and max(mmap) < b.morphisms.size,
                "functor-mmap", "morphism image out of range")
        asrc, atgt, bsrc, btgt = (a.src.table, a.tgt.table, b.src.table,
                                  b.tgt.table)
        for f, mf in enumerate(mmap):
            if bsrc[mf] != omap[asrc[f]] or btgt[mf] != omap[atgt[f]]:
                raise InvariantViolation("functor-boundary", f"image of "
                                         f"morphism {f} has wrong boundary")
        aident, bident = a.ident.table, b.ident.table
        for x, i in enumerate(aident):
            if mmap[i] != bident[omap[x]]:
                raise InvariantViolation("functor-ident",
                                         f"identity at {x} not preserved")
        # with identities preserved, only pairs of non-identities can fail
        acomp, bcomp, out_of = a.comp, b.comp, a.src.fiber
        for f in a.non_identities:
            mf, y = mmap[f], atgt[f]
            for g in out_of(y):
                if g != aident[y] and mmap[acomp[g][f]] != bcomp[mmap[g]][mf]:
                    raise InvariantViolation(
                        "functor-comp",
                        f"composition not preserved on ({g}, {f})")

    @cached_property
    def over(self) -> FinSetMap:
        """The object map as a map: its fibers are the objects over each."""
        return FinSetMap._trusted(self.dom.objects, self.cod.objects,
                                  self.omap)

    @cached_property
    def _lift_map(self) -> FinSetMap:
        """Each morphism filed under (tgt, image): the fibers are the lifts."""
        nm = self.cod.morphisms.size
        return FinSetMap._trusted(
            self.dom.morphisms, FinSetObj(self.dom.objects.size * nm),
            tuple(t * nm + b for t, b in zip(self.dom.tgt.table, self.mmap)))

    def lifts(self, e: int, beta: int) -> tuple[int, ...]:
        """The morphisms into e sent to beta; empty when out of range."""
        nm = self.cod.morphisms.size
        if 0 <= e < self.dom.objects.size and 0 <= beta < nm:
            return self._lift_map.fiber(e * nm + beta)
        return ()


def identity_functor(c: FinCat) -> Functor:
    return Functor._trusted(c, c, tuple(c.objs), tuple(c.mors))


def compose_functors(g: Functor, f: Functor) -> Functor:
    require(f.cod == g.dom, "functor-compose-boundary",
            "functors are not composable")
    return Functor._trusted(f.dom, g.cod, tuple(g.omap[x] for x in f.omap),
                            tuple(g.mmap[m] for m in f.mmap))


def constant_functor(dom: FinCat, cod: FinCat, x: int) -> Functor:
    require(0 <= x < cod.objects.size, "functor-omap",
            "object image out of range")
    return Functor._trusted(dom, cod, (x,) * dom.objects.size,
                            (cod.ident(x),) * dom.morphisms.size)


def is_functor_iso(f: Functor) -> bool:
    return (len(set(f.omap)) == f.cod.objects.size == len(f.omap)
            and len(set(f.mmap)) == f.cod.morphisms.size == len(f.mmap))


class NatTrans(Record):
    dom: Functor
    cod: Functor
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        f, g = self.dom, self.cod
        require(f.dom == g.dom and f.cod == g.cod, "nat-parallel",
                "natural transformations live between parallel functors")
        a, b = f.dom, f.cod
        comps = self.components
        require(len(comps) == a.objects.size, "nat-components",
                "one component per object required")
        bsrc, btgt, bcomp = b.src.table, b.tgt.table, b.comp
        for x, c in enumerate(comps):
            if bsrc[c] != f.omap[x] or btgt[c] != g.omap[x]:
                raise InvariantViolation("nat-typing", f"component at {x} "
                                         "has wrong boundary")
        for m, (x, y) in enumerate(zip(a.src.table, a.tgt.table)):
            if bcomp[comps[y]][f.mmap[m]] != bcomp[g.mmap[m]][comps[x]]:
                raise InvariantViolation("nat-square",
                                         f"naturality fails at morphism {m}")


class Presheaf(Record):
    """Contravariant Set-valued functor: ``at[x]`` is the size of the value
    at x, and the table ``act[m]`` maps the value at tgt(m) to the value
    at src(m).  Presheaves computed here are built by ``_trusted``."""

    base: FinCat
    at: tuple[int, ...]
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        c = self.base
        require(len(self.at) == c.objects.size, "presheaf-at",
                "one value set per object required")
        require(len(self.act) == c.morphisms.size, "presheaf-act",
                "one action per morphism required")
        at, act = self.at, self.act
        for m, (x, y) in enumerate(zip(c.src.table, c.tgt.table)):
            if not _typed(act[m], at[y], at[x]):
                raise InvariantViolation("presheaf-boundary",
                                         f"action of morphism {m} mistyped")
        ids = _Identities()
        for x, i in enumerate(c.ident.table):
            if act[i] != ids[len(act[i])]:
                raise InvariantViolation("presheaf-ident", f"identity action "
                                         f"at {x} not the identity")
        for f in c.non_identities:
            x = c.tgt(f)
            for g in c.out_of(x):
                if g == c.ident.table[x]:
                    continue
                if act[c.comp[g][f]] != _after(act[f], act[g]):
                    raise InvariantViolation(
                        "presheaf-comp",
                        f"contravariant functoriality fails on ({g}, {f})")


# Laws are checked once the types are, and two maps with equal types are
# equal exactly when their tables are: these compare tables.

def _typed(table: tuple[int, ...], dom: int, cod: int) -> bool:
    """Whether table is a map from dom elements to cod elements."""
    return len(table) == dom and (not table or 0 <= min(table)
                                  and max(table) < cod)


def _after(g: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    """The table of g after f, without building or checking a map."""
    return tuple(map(g.__getitem__, f))


class _Identities(dict):
    """The identity table of each length, built once, the first time that
    length is asked for: a law check asks for the length of a table it
    holds, never for a declared size."""

    def __missing__(self, k: int) -> tuple[int, ...]:
        self[k] = table = tuple(range(k))
        return table


def representable(c: FinCat, b: int) -> Presheaf:
    """The presheaf x -> hom(x, b), acting by precomposition."""
    require(0 <= b < c.objects.size, "representable-object",
            f"{b} is not an object of the category")
    return Presheaf._trusted(c, tuple(len(c.hom(x, b)) for x in c.objs),
                             tuple(tuple(c.hom_position(c.comp[h][m])
                                         for h in c.hom(y, b))
                                   for m, y in zip(c.mors, c.tgt.table)))


def constant_presheaf(c: FinCat, size: int) -> Presheaf:
    """``size`` elements everywhere, acted on by one shared identity."""
    return Presheaf._trusted(c, (size,) * c.objects.size,
                             (tuple(range(size)),) * c.morphisms.size)


class Comma(Record):
    """A comma category with its projections and the connecting transformation.

    Objects are triples (a, b, phi: F a -> G b) ordered lexicographically;
    morphisms are tuples (source index, target index, u, v) in lexicographic
    order, where (u, v) is a pair making the evident square commute.
    """

    cat: FinCat
    proj1: Functor
    proj2: Functor
    transform: NatTrans
    objects_data: tuple[tuple[int, int, int], ...]
    morphisms_data: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def _object_positions(self) -> dict[tuple[int, int, int], int]:
        return {o: i for i, o in enumerate(self.objects_data)}

    @cached_property
    def _morphism_positions(self) -> dict[tuple[int, int, int, int], int]:
        return {m: i for i, m in enumerate(self.morphisms_data)}

    def object_index(self, a: int, b: int, phi: int) -> int:
        return self._object_positions[(a, b, phi)]

    def morphism_index(self, si: int, ti: int, u: int, v: int) -> int:
        return self._morphism_positions[(si, ti, u, v)]


def comma(f: Functor, g: Functor, iso_only: bool = False) -> Comma:
    """The comma category of f: A -> C and g: B -> C; with ``iso_only`` the
    connecting morphism phi is required to be invertible (iso-comma)."""
    require(f.cod == g.cod, "comma-boundary", "functors must share a codomain")
    a_cat, b_cat, c_cat = f.dom, g.dom, f.cod
    objects = [(a, b, phi)
               for a in a_cat.objs for b in b_cat.objs
               for phi in c_cat.hom(f.omap[a], g.omap[b])
               if not iso_only or c_cat.is_iso(phi)]
    morphisms = []
    for si, (a, b, phi) in enumerate(objects):
        for ti, (a2, b2, phi2) in enumerate(objects):
            for u in a_cat.hom(a, a2):
                for v in b_cat.hom(b, b2):
                    if (c_cat.comp[g.mmap[v]][phi]
                            == c_cat.comp[phi2][f.mmap[u]]):
                        morphisms.append((si, ti, u, v))
    mor_index = {m: i for i, m in enumerate(morphisms)}
    a_comp, b_comp = a_cat.comp, b_cat.comp

    def composite(g, f):
        s1, _, u1, v1 = morphisms[f]
        _, t2, u2, v2 = morphisms[g]
        return mor_index[(s1, t2, a_comp[u2][u1], b_comp[v2][v1])]

    cat = _cat(len(objects), [s for s, _, _, _ in morphisms],
               [t for _, t, _, _ in morphisms],
               [mor_index[(i, i, a_cat.ident(a), b_cat.ident(b))]
                for i, (a, b, _) in enumerate(objects)], composite)
    proj1 = Functor._trusted(cat, a_cat, tuple(a for a, _, _ in objects),
                             tuple(u for _, _, u, _ in morphisms))
    proj2 = Functor._trusted(cat, b_cat, tuple(b for _, b, _ in objects),
                             tuple(v for _, _, _, v in morphisms))
    transform = NatTrans._trusted(compose_functors(f, proj1),
                                  compose_functors(g, proj2),
                                  tuple(phi for _, _, phi in objects))
    return Comma(cat, proj1, proj2, transform,
                 tuple(objects), tuple(morphisms))


def iso_comma(f: Functor, g: Functor) -> Comma:
    return comma(f, g, iso_only=True)


def arrow_category(c: FinCat) -> Comma:
    """The category of morphisms of c and commuting squares between them."""
    return comma(identity_functor(c), identity_functor(c))


def is_cartesian(p: Functor, chi: int) -> bool:
    """Whether chi is cartesian for p: for every object k, the map sending
    psi: k -> src(chi) to (p psi, chi∘psi) is a bijection onto the pairs
    (gamma, phi) with p(chi)∘gamma = p(phi), the pullback of hom-sets.  By
    functoriality every image is such a pair, so the map is a bijection
    when it is injective and there are as many pairs as psi's."""
    e_cat, b_cat = p.dom, p.cod
    e1, e = e_cat.src(chi), e_cat.tgt(chi)
    omap, mmap = p.omap, p.mmap
    after, p_after = e_cat.comp[chi], b_cat.comp[mmap[chi]]
    for k in e_cat.objs:
        top = e_cat.hom(k, e1)
        if len({(mmap[psi], after[psi]) for psi in top}) < len(top):
            return False
        images = Counter(mmap[phi] for phi in e_cat.hom(k, e))
        if sum(images[p_after[gamma]]
               for gamma in b_cat.hom(omap[k], omap[e1])) != len(top):
            return False
    return True


def _groupoid_fibration(p: Functor, up_to_iso: bool) -> bool:
    e_cat, b_cat = p.dom, p.cod
    for e in e_cat.objs:
        for beta in b_cat.tgt.fiber(p.omap[e]):
            if up_to_iso:
                lifted = any(
                    b_cat.comp[p.mmap[chi]][iota] == beta and b_cat.is_iso(iota)
                    for chi in e_cat.tgt.fiber(e)
                    for iota in b_cat.hom(b_cat.src(beta), p.omap[e_cat.src(chi)]))
            else:
                lifted = bool(p.lifts(e, beta))
            if not lifted:
                return False
    return all(is_cartesian(p, chi) for chi in e_cat.mors)


def is_groupoid_fibration(p: Functor) -> bool:
    """Every morphism downstairs lifts up to isomorphism, and every morphism
    upstairs is cartesian."""
    return _groupoid_fibration(p, up_to_iso=True)


def is_groupoid_fibration_strict(p: Functor) -> bool:
    """The variant demanding on-the-nose lifts p(chi) = beta; differs from the
    canonical predicate only through non-skeletal bases."""
    return _groupoid_fibration(p, up_to_iso=False)


def is_er_fibration(p: Functor) -> bool:
    """Groupoid fibration whose vertical endomorphisms are identities."""
    e_cat = p.dom
    for xi in e_cat.mors:
        if (e_cat.src(xi) == e_cat.tgt(xi)
                and p.dom.is_identity(xi) is False
                and p.cod.is_identity(p.mmap[xi])):
            return False
    return is_groupoid_fibration(p)


def is_discrete_fibration(p: Functor) -> bool:
    """Unique lifts: each morphism downstairs with a given codomain object
    upstairs lifts to exactly one morphism.

    Counted, not searched: a functor files each morphism f under (tgt f,
    p f), and p f lands in the pairs (e, beta) with tgt beta = p e.  The
    lifts are unique exactly when the keys are distinct and as many as
    those pairs."""
    keys = set(zip(p.dom.tgt.table, p.mmap))
    into = p.cod.tgt.fiber
    return (len(keys) == p.dom.morphisms.size
            == sum(map(len, map(into, p.omap))))


def are_isomorphic_objects(c: FinCat, x: int, y: int) -> bool:
    return any(c.is_iso(f) for f in c.hom(x, y))


def is_equivalence(f: Functor) -> bool:
    a, b = f.dom, f.cod
    for x in a.objs:
        for y in a.objs:
            imgs = [f.mmap[m] for m in a.hom(x, y)]
            if len(set(imgs)) != len(imgs):
                return False
            if sorted(imgs) != sorted(b.hom(f.omap[x], f.omap[y])):
                return False
    for z in b.objs:
        if not any(are_isomorphic_objects(b, z, f.omap[x]) for x in a.objs):
            return False
    return True


def gfib_via_cotensor(p: Functor) -> bool:
    """Groupoid-fibration test through the arrow category: the canonical
    comparison from E-squared to the comma of the base under p must be an
    equivalence."""
    e2 = arrow_category(p.dom)
    bp = comma(identity_functor(p.cod), p)
    omap = tuple(
        bp.object_index(p.omap[a], b, p.mmap[phi])
        for a, b, phi in e2.objects_data)
    mmap = tuple(
        bp.morphism_index(omap[si], omap[ti], p.mmap[u], v)
        for si, ti, u, v in e2.morphisms_data)
    return is_equivalence(Functor._trusted(e2.cat, bp.cat, omap, mmap))


class ElementsCat(Record):
    """The category of elements of a presheaf with its projection functor.

    Objects are pairs (base object, element) listed base-major; morphisms are
    pairs (base morphism beta, target element t') listed beta-major, running
    from (src beta, act[beta](t')) to (tgt beta, t').
    """

    proj: Functor
    objects_data: tuple[tuple[int, int], ...]
    morphisms_data: tuple[tuple[int, int], ...]

    @property
    def cat(self) -> FinCat:
        return self.proj.dom

    @cached_property
    def _object_positions(self) -> dict[tuple[int, int], int]:
        return {o: i for i, o in enumerate(self.objects_data)}

    def object_index(self, b: int, t: int) -> int:
        return self._object_positions[(b, t)]


def elements(p: Presheaf) -> ElementsCat:
    base = p.base
    bsrc, btgt, bcomp = base.src.table, base.tgt.table, base.comp
    sizes = p.at
    # (b, t) and (beta, t2) sit at the start of the run of b or beta, plus t
    obj_at = list(itertools.accumulate(sizes, initial=0))
    mor_at = list(itertools.accumulate((sizes[y] for y in btgt), initial=0))
    objects = [(b, t) for b in base.objs for t in range(sizes[b])]
    morphisms = [(beta, t2) for beta in base.mors
                 for t2 in range(sizes[btgt[beta]])]

    def composite(g, f):  # (beta2, t2) after (beta1, t1) is (beta2 beta1, t2)
        (beta2, t2), beta1 = morphisms[g], morphisms[f][0]
        return mor_at[bcomp[beta2][beta1]] + t2

    cat = _cat(obj_at[-1],
               [obj_at[bsrc[beta]] + p.act[beta][t2] for beta, t2 in morphisms],
               [obj_at[btgt[beta]] + t2 for beta, t2 in morphisms],
               [mor_at[base.ident.table[b]] + t for b, t in objects], composite)
    proj = Functor._trusted(cat, base, tuple(b for b, _ in objects),
                            tuple(beta for beta, _ in morphisms))
    return ElementsCat(proj, tuple(objects), tuple(morphisms))


def fibers(p: Functor) -> Presheaf:
    """The presheaf of fibers of a discrete fibration: values are the objects
    over each base object (in object order) and actions take an element to
    the source of its unique lift."""
    require(is_discrete_fibration(p), "not-discrete-fibration",
            "fibers only exist for a discrete fibration")
    e_cat, b_cat, over = p.dom, p.cod, p.over
    return Presheaf._trusted(
        b_cat, tuple(len(over.fiber(b)) for b in b_cat.objs), tuple(
            tuple(over.fiber_position(e_cat.src(p.lifts(e2, beta)[0]))
                  for e2 in over.fiber(b2))
            for beta, b2 in zip(b_cat.mors, b_cat.tgt.table)))


def _components_under(g: Functor, x: int) -> list[list[tuple[int, int]]]:
    """Connected components of the comma of x under g, whose objects are the
    pairs (e, psi: x -> g e), by union-find."""
    f_cat, x_cat = g.dom, g.cod
    uf = UnionFind()
    for e in f_cat.objs:
        for psi in x_cat.hom(x, g.omap[e]):
            uf.add((e, psi))
    for phi in f_cat.mors:
        e1, e2 = f_cat.src(phi), f_cat.tgt(phi)
        for psi in x_cat.hom(x, g.omap[e1]):
            uf.unite((e1, psi), (e2, x_cat.comp[g.mmap[phi]][psi]))
    return uf.classes()


def comprehensive_factorization(g: Functor) -> tuple[Functor, Functor]:
    """Factor g as a final functor j followed by a discrete fibration s.

    The fiber of s over x is the set of connected components of the comma of
    x under g, computed by union-find and ordered by smallest member (e, psi).
    """
    f_cat, x_cat = g.dom, g.cod
    classes_at = [_components_under(g, x) for x in x_cat.objs]
    class_index = [{member: i for i, c in enumerate(cls) for member in c}
                   for cls in classes_at]
    tables = []
    for gamma in x_cat.mors:
        x1, x2 = x_cat.src(gamma), x_cat.tgt(gamma)
        tables.append(tuple(class_index[x1][(e, x_cat.comp[psi][gamma])]
                            for e, psi in (c[0] for c in classes_at[x2])))
    el = elements(Presheaf._trusted(
        x_cat, tuple(map(len, classes_at)), tuple(tables)))

    def home(e):  # the component of (e, identity) under g e
        x = g.omap[e]
        return class_index[x][(e, x_cat.ident(x))]

    mor_index = {m: i for i, m in enumerate(el.morphisms_data)}
    j = Functor._trusted(
        f_cat, el.cat,
        tuple(el.object_index(g.omap[e], home(e)) for e in f_cat.objs),
        tuple(mor_index[(g.mmap[phi], home(f_cat.tgt(phi)))]
              for phi in f_cat.mors))
    return j, el.proj


def is_final(j: Functor) -> bool:
    """Whether every comma of an object of the codomain under j is nonempty
    and connected."""
    return all(len(_components_under(j, x)) == 1 for x in j.cod.objs)


def _natural_maps(sizes_m: list[int], sizes_n: list[int], squares,
                  bijective: bool):
    """Every natural family of maps between two functors into sets, as one
    table per cell, in lexicographic order of the tables.

    Both sides are laid out cell by cell: cell c holds ``sizes_m[c]``
    elements on the first side and ``sizes_n[c]`` on the second, and an
    element goes to an element of its own cell.  Each square
    ``(c1, c2, f, g)`` is one non-identity action, f on the first side and g
    on the second, from cell c1 to cell c2: it asks that h_c2(f(i)) =
    g(h_c1(i)).  With ``bijective`` no two elements share an image.

    Each guess assigns the first unassigned element and is closed under the
    squares, so every value it forces is set at once.  A free element, one
    that no square leaves, forces nothing: its guess skips the closure, and
    only its own assignment is undone.  Past ``tail``, one past the last
    element a square leaves, the unassigned elements are independent, so
    without ``bijective`` they are listed at once as a product over their
    cells; it varies the last element fastest, as the guesses do, so the
    order is unchanged.  The guesses sit on an explicit stack, so the
    depth is not bounded by the recursion limit.
    """
    start_m = list(itertools.accumulate(sizes_m, initial=0))
    start_n = list(itertools.accumulate(sizes_n, initial=0))
    total = start_m[-1]
    cell_of = [c for c, k in enumerate(sizes_m) for _ in range(k)]
    # moves[v]: per square out of v's cell, where v goes on the first side,
    # the square's map on the second side and the start of its target cell
    moves: list[list] = [[] for _ in range(total)]
    for c1, c2, f, g in squares:
        o1, o2 = start_m[c1], start_m[c2]
        for i, j in enumerate(f):
            moves[o1 + i].append((o2 + j, g, start_n[c2]))
    tail = max((start_m[c1 + 1] for c1, _, f, _ in squares if f), default=0)
    # assign[v]: the image of v within its cell, or -1
    assign = [-1] * total
    # Read only when bijective: used targets, numbered across the cells,
    # and free_from[c], below which no target of cell c is free.
    used = [False] * start_n[-1]
    free_from = start_n[:-1]
    # Read only without bijective: the images within each cell.
    pools = [] if bijective else [tuple(range(k)) for k in sizes_n]

    def close(x, trail):
        stack = [x]
        while stack:
            v = stack.pop()
            w = assign[v]
            for v2, g, n2 in moves[v]:
                w2 = g[w]
                if assign[v2] == -1:
                    if bijective and used[n2 + w2]:
                        return False
                    assign[v2], used[n2 + w2] = w2, True
                    trail.append(v2)
                    stack.append(v2)
                elif assign[v2] != w2:
                    return False
        return True

    def undo(trail):
        for v in trail:
            c = cell_of[v]
            w = start_n[c] + assign[v]
            used[w] = False
            free_from[c] = min(free_from[c], w)
            assign[v] = -1
        trail.clear()

    # The stack holds (element, candidates left, trail of the current guess).
    stack, x = [], 0
    while True:
        while x < total and assign[x] != -1:
            x += 1
        if x == total or x >= tail and not bijective:  # the rest, all free
            fixed = assign[x:]
            for choice in itertools.product(*[
                    pools[cell_of[v]] if w == -1 else (w,)
                    for v, w in enumerate(fixed, x)]):
                assign[x:] = choice
                yield tuple(tuple(assign[s:e])
                            for s, e in itertools.pairwise(start_m))
            assign[x:] = fixed
        else:
            c = cell_of[x]
            first, end = start_n[c], start_n[c + 1]
            if bijective:  # skip the used run at the start of the cell
                first = free_from[c]
                while first < end and used[first]:
                    first += 1
                free_from[c] = first
            stack.append((x, iter(range(first, end)), []))
        while stack:  # the next guess at the deepest element that has one
            x, candidates, trail = stack[-1]
            if trail:
                undo(trail)
            for y in candidates:
                if bijective and used[y]:
                    continue
                assign[x], used[y] = y - start_n[cell_of[x]], True
                trail.append(x)
                if not moves[x] or close(x, trail):
                    break
                undo(trail)
            else:
                stack.pop()
                continue
            break
        else:
            return
        x += 1


def presheaf_iso(p: Presheaf,
                 q: Presheaf) -> tuple[tuple[int, ...], ...] | None:
    """The first natural isomorphism between presheaves on the same base,
    in lexicographic order of its component tables; returns those tables,
    one per object, or None."""
    require(p.base == q.base, "presheaf-iso-base",
            "presheaves must share a base category")
    if p.at != q.at:
        return None
    base = p.base
    squares = [(base.tgt(m), base.src(m), p.act[m], q.act[m])
               for m in base.non_identities]
    return next(_natural_maps(p.at, p.at, squares, True), None)


def all_functors(a: FinCat, b: FinCat) -> Iterator[Functor]:
    """Enumerate functors a -> b in a deterministic order, by backtracking
    over object images and then morphism images."""
    non_ident = a.non_identities
    for omap in itertools.product(b.objs, repeat=a.objects.size):
        mmap: list[int | None] = [None] * a.morphisms.size
        for x in a.objs:
            mmap[a.ident(x)] = b.ident(omap[x])

        def consistent() -> bool:
            for f in a.mors:
                if mmap[f] is None:
                    continue
                for g in a.out_of(a.tgt(f)):
                    if mmap[g] is None:
                        continue
                    c = a.comp[g][f]
                    if mmap[c] is not None and (
                            b.comp[mmap[g]][mmap[f]] != mmap[c]):
                        return False
            return True

        def assign(i: int):
            if i == len(non_ident):
                yield Functor._trusted(a, b, omap, tuple(mmap))
                return
            f = non_ident[i]
            for w in b.hom(omap[a.src(f)], omap[a.tgt(f)]):
                mmap[f] = w
                if consistent():
                    yield from assign(i + 1)
            mmap[f] = None

        yield from assign(0)


def pi0_classes(c: FinCat) -> list[list[int]]:
    """Connected components of the undirected morphism graph, each sorted,
    ordered by smallest object."""
    uf = UnionFind()
    for x in c.objs:
        uf.add(x)
    for m in c.mors:
        uf.unite(c.src(m), c.tgt(m))
    return uf.classes()
