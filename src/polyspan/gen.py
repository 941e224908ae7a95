"""Seeded random generators for every structure the package exposes.

Each function draws only from the passed random.Random instance, so a
fixed seed rebuilds identical structures on every run.  Categories come
from three stock shapes (discrete, finite preorders, small monoids),
presheaves are sums of representables with an optional constant summand,
discrete fibrations are projections of element categories, and modules
are presheaves on a product with the opposite, unpacked.  The seeded
random document of each kind (the ``random`` command) is drawn here too.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING

from .documents import Document, document
from .finset import FinSetMap, FinSetObj, Subset, identity

# Each generator imports the layer it builds when it runs, so drawing a
# document of one kind loads only that kind's layer.
if TYPE_CHECKING:
    from .fincat import FinCat, Functor, Presheaf
    from .modpoly import ModPolynomial, Profunctor
    from .polyset import IndexedFamily, Polynomial
    from .relpoly import Relation, RelPolynomial
    from .spans import Span


def rand_finset(rng: random.Random, lo: int = 0, hi: int = 4) -> FinSetObj:
    return FinSetObj(rng.randint(lo, hi))


def rand_map(rng: random.Random, dom: FinSetObj, cod: FinSetObj) -> FinSetMap:
    if dom.size and not cod.size:
        raise ValueError("no map into the empty set from a nonempty one")
    return FinSetMap(dom, cod, tuple(rng.randrange(cod.size)
                                     for _ in dom.elements))


def rand_span(rng: random.Random, left: FinSetObj, right: FinSetObj,
              emax: int = 6) -> Span:
    from .spans import Span
    apex = FinSetObj(0 if not (left.size and right.size)
                     else rng.randint(0, emax))
    return Span(left, right, apex,
                rand_map(rng, apex, left), rand_map(rng, apex, right))


def rand_poly(rng: random.Random, x: FinSetObj, y: FinSetObj,
              smax: int = 4, emax: int = 3) -> Polynomial:
    from .polyset import Polynomial
    s = FinSetObj(0 if not y.size else rng.randint(0, smax))
    p = rand_map(rng, s, y)
    sizes = [rng.randint(0, emax) if x.size else 0 for _ in s.elements]
    e = FinSetObj(sum(sizes))
    m2_table = []
    for i, n in enumerate(sizes):
        m2_table.extend([i] * n)
    return Polynomial(x, e, s, y,
                      rand_map(rng, e, x),
                      FinSetMap(e, s, tuple(m2_table)), p)


def rand_family(rng: random.Random, base: FinSetObj,
                tmax: int = 3) -> IndexedFamily:
    from .polyset import IndexedFamily
    total = FinSetObj(0 if not base.size else rng.randint(0, tmax * base.size))
    return IndexedFamily(base, total, rand_map(rng, total, base))


def rand_relation(rng: random.Random, src: FinSetObj, tgt: FinSetObj,
                  density: float = 0.45) -> Relation:
    from .relpoly import rel
    pairs = [(i, j) for i in src.elements for j in tgt.elements
             if rng.random() < density]
    return rel(src, tgt, pairs)


def rand_subset(rng: random.Random, ambient: FinSetObj,
                keep: float = 0.6) -> Subset:
    return Subset(ambient, tuple(i for i in ambient.elements
                                 if rng.random() < keep))


def rand_relpoly(rng: random.Random, x: FinSetObj,
                 c: FinSetObj) -> RelPolynomial:
    from .relpoly import RelPolynomial
    z = rand_subset(rng, c)
    return RelPolynomial(x, c, z, rand_relation(rng, x, z.as_object()))


def preorder_cat(n: int, pairs) -> FinCat:
    """The category of a preorder on n points: at most one morphism per
    ordered pair, closed under reflexivity and transitivity."""
    from .fincat import _cat
    hold = {(i, i) for i in range(n)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for (i, j), (j2, k) in itertools.product(tuple(hold), repeat=2):
            if j == j2 and (i, k) not in hold:
                hold.add((i, k))
                changed = True
    mors = sorted(hold)
    index = {m: f for f, m in enumerate(mors)}
    return _cat(n, [i for i, _ in mors], [j for _, j in mors],
                [index[(i, i)] for i in range(n)],
                lambda g, f: index[(mors[f][0], mors[g][1])])


_MONOID_TABLES = (
    (((0, 1), (1, 0)), 0),           # cyclic of order two
    (((0, 1), (1, 1)), 0),           # idempotent absorbing element
    (((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0),  # cyclic of order three
)


def rand_fincat(rng: random.Random, max_objs: int = 3,
                max_mors: int = 12) -> FinCat:
    from .fincat import discrete_cat, monoid_cat
    while True:
        kind = rng.random()
        if kind < 0.35:
            c = discrete_cat(rng.randint(1, max_objs))
        elif kind < 0.8:
            n = rng.randint(2, max_objs)
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if i != j and rng.random() < 0.4]
            c = preorder_cat(n, pairs)
        else:
            c = monoid_cat(*rng.choice(_MONOID_TABLES))
        if c.morphisms.size <= max_mors:
            return c


def rand_functor(rng: random.Random, a: FinCat, b: FinCat,
                 pool: int = 60) -> Functor | None:
    """A uniform choice from the first ``pool`` functors in enumeration
    order; None when there are no functors at all."""
    from .fincat import all_functors
    choices = list(itertools.islice(all_functors(a, b), pool))
    if not choices:
        return None
    return rng.choice(choices)


def presheaf_sum(base: FinCat, parts: tuple[Presheaf, ...]) -> Presheaf:
    """Coproduct of presheaves, blocks ordered as given."""
    from .fincat import Presheaf
    at = tuple(FinSetObj(sum(p.at[x].size for p in parts)) for x in base.objs)
    act = []
    for m in base.mors:
        x, y = base.src(m), base.tgt(m)
        table: list[int] = []
        offset = 0
        for p in parts:
            table.extend(offset + v for v in p.act[m].table)
            offset += p.at[x].size
        act.append(FinSetMap(at[y], at[x], tuple(table)))
    return Presheaf(base, at, tuple(act))


def rand_presheaf(rng: random.Random, c: FinCat, parts_max: int = 2,
                  const_max: int = 1) -> Presheaf:
    from .fincat import Presheaf, representable
    parts = []
    if c.objects.size:
        for _ in range(rng.randint(0, parts_max)):
            parts.append(representable(c, rng.randrange(c.objects.size)))
    if rng.random() < 0.5:
        size = rng.randint(1, max(const_max, 1))
        v = FinSetObj(size)
        parts.append(Presheaf(c, (v,) * c.objects.size,
                              (identity(v),) * c.morphisms.size))
    return presheaf_sum(c, tuple(parts))


def rand_dfib(rng: random.Random, y: FinCat) -> Functor:
    from .fincat import elements
    return elements(rand_presheaf(rng, y)).proj


def _max_cell(m: Profunctor) -> int:
    return max((m.at[b][a].size for b in m.tgt.objs for a in m.src.objs),
               default=0)


def rand_profunctor(rng: random.Random, src: FinCat, tgt: FinCat,
                    parts_max: int = 2, const_max: int = 1,
                    max_cell: int | None = None) -> Profunctor:
    from .fincat import opposite_cat, product_cat
    from .modpoly import _prof_from_presheaf
    base = product_cat(tgt, opposite_cat(src))
    for _ in range(40):
        m = _prof_from_presheaf(src, tgt,
                                rand_presheaf(rng, base, parts_max, const_max))
        if max_cell is None or _max_cell(m) <= max_cell:
            return m
    return _prof_from_presheaf(src, tgt, presheaf_sum(base, ()))


def rand_modpoly(rng: random.Random, x: FinCat, y: FinCat,
                 base_parts: int = 2, lifter_parts: int = 2,
                 max_cell: int | None = None) -> ModPolynomial:
    from .fincat import elements
    from .modpoly import ModPolynomial
    el = elements(rand_presheaf(rng, y, parts_max=base_parts))
    return ModPolynomial(x, y, el.cat,
                         rand_profunctor(rng, el.cat, x,
                                         parts_max=lifter_parts,
                                         max_cell=max_cell), el.proj)


def _lift_bounds(n: Profunctor, cod_sizes) -> tuple[int, list[int]]:
    """Upper bounds for computing a right lifting of a module through n
    against a target with the given value sizes per codomain object:
    total enumeration work and the family-count bound per source object."""
    work, counts = 0, []
    for s in n.src.objs:
        prod = 1
        for y in n.tgt.objs:
            prod *= cod_sizes[y] ** n.at[y][s].size
            if prod > 10 ** 9:
                break
        work += prod
        counts.append(prod)
    return work, counts


def rand_composable_modpolys(rng: random.Random,
                             work_cap: int = 20000,
                             tab_cap: int = 120):
    """A composable pair (p, q) whose composite is cheap enough to build,
    or None when the draw blows past the caps; callers skip and redraw."""
    x = rand_fincat(rng, max_mors=8)
    y = rand_fincat(rng, max_mors=8)
    d = rand_fincat(rng, max_mors=8)
    p = rand_modpoly(rng, x, y, max_cell=3)
    q = rand_modpoly(rng, y, d, max_cell=3)
    fib = [len(p.p.over.fiber(c)) for c in y.objs]
    work, counts = _lift_bounds(q.m, fib)
    if work > work_cap or sum(counts) > tab_cap:
        return None
    return p, q


def rand_hk_case(rng: random.Random, work_cap: int = 20000):
    """An instance (k, p, q, u) for testing the hom-action through a
    composite, with every lifting enumeration bounded in advance; None
    when any bound fails."""
    pair = rand_composable_modpolys(rng, work_cap=work_cap)
    if pair is None:
        return None
    p, q = pair
    if _max_cell(p.m) > 2 or _max_cell(q.m) > 2:
        return None
    k = rand_fincat(rng, max_objs=2, max_mors=8)
    u = rand_profunctor(rng, k, p.X, parts_max=1, max_cell=2)
    for kk in k.objs:
        u_sizes = [u.at[xo][kk].size for xo in p.X.objs]
        work, counts = _lift_bounds(p.m, u_sizes)
        if work > work_cap:
            return None
        step_sizes = [sum(counts[s] for s in p.p.over.fiber(c))
                      for c in p.Y.objs]
        work2, _ = _lift_bounds(q.m, step_sizes)
        if work2 > work_cap:
            return None
    return k, p, q, u


def _between_sets(gen, hi: int):
    return lambda rng: gen(rng, rand_finset(rng, 1, hi),
                           rand_finset(rng, 1, hi))


def _between_cats(gen, **kw):
    return lambda rng: gen(rng, rand_fincat(rng, max_mors=8),
                           rand_fincat(rng, max_mors=8), **kw)


# The payload of each kind's random document, drawn from the seeded rng.
_RANDOM_PAYLOADS = {
    "finset-map": _between_sets(rand_map, 5),
    "span": _between_sets(rand_span, 4),
    "polynomial": _between_sets(rand_poly, 3),
    "relation": _between_sets(rand_relation, 5),
    "rel-polynomial": _between_sets(rand_relpoly, 4),
    "family": lambda rng: rand_family(rng, rand_finset(rng, 1, 4)),
    "fincat": lambda rng: rand_fincat(rng, max_objs=3, max_mors=10),
    "functor": _between_cats(rand_functor),
    "profunctor": _between_cats(rand_profunctor, max_cell=3),
    "mod-polynomial": _between_cats(rand_modpoly, max_cell=3),
}


def random_document(kind: str, seed: int) -> Document:
    """The seeded random document behind the ``random`` command; a fixed
    kind and seed always produce the same bytes."""
    if kind not in _RANDOM_PAYLOADS:
        raise ValueError(f"unknown document kind {kind!r}")
    rng = random.Random(seed)
    payload = None
    while payload is None:  # two categories may have no functor: redraw
        payload = _RANDOM_PAYLOADS[kind](rng)
    return document(kind, payload)
