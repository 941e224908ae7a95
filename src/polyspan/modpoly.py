"""Profunctors between finite categories and polynomials over them.

A profunctor from A to B assigns a finite set to every pair (object of B,
object of A), with a contravariant B-action and a covariant A-action.
Composition is a coend over element ids (``_coend``): one union-find
quotients the triples joined over each middle object by the zigzag
relation.  Every map out of a coend (the composite's actions, whiskering,
the counit of a right lifting, the collapse onto a fiberwise sum) reads
one representative per class, which is well defined for valid modules,
and every morphism out of a coend is built by ``_coend_map``.  Every
module the library computes is built by ``_built`` from its cell sizes
and the actions of the non-identity morphisms: identities act by
construction, and cells of one size share one identity table.  A module
and its morphisms hold what a document would hold: ``at`` holds the
number of elements of each cell, ``lact``/``ract`` one int table per
action, and a morphism's ``h`` one int table per cell.  A presheaf on
C is held as the one column of its module out of the terminal category,
so ``presheaf_as_module`` and ``module_as_presheaf`` only re-index.
Right liftings are computed as ends: sets of naturally varying families
of maps.  Those families, the morphisms between two modules and the
isomorphisms between them all come from the one search for natural maps
in ``fincat``, with a module laid out cell by cell (tgt-major).  A
polynomial has a profunctor as its lifter leg and a discrete fibration as
its neat leg; composition of polynomials follows the tabulation of the
lifted presheaf of fibers, which keeps no witnessing isomorphism: the
fibers of the elements projection are the presheaf table for table.  The
induced connecting module is given by an explicit splitting-family
formula.  Composition does not re-check what holds by construction: the
module suites of ``checks`` verify the laws of the modules it builds, the
square the connecting module fills with the graph modules, and the
tabulation's fibers.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InvariantViolation, require
from .fincat import (
    ElementsCat,
    FinCat,
    Functor,
    Presheaf,
    _after,
    _Identities,
    _natural_maps,
    _typed,
    compose_functors,
    comprehensive_factorization,
    elements,
    fibers,
    identity_functor,
    is_discrete_fibration,
    opposite_cat,
    ordinal2,
    product_cat,
    terminal_cat,
)
from .finset import _check_table
from .record import Record


class Profunctor(Record):
    """A two-sided module: ``at[b][a]`` is the size of the value set,
    ``lact[beta][a]`` is the table that restricts along a tgt-category
    morphism (contravariantly) and ``ract[alpha][b]`` the table that pushes
    along a src-category morphism (covariantly).  Modules from callers and
    documents have every bifunctoriality equation checked at construction;
    those computed here are checked in the tests."""

    src: FinCat
    tgt: FinCat
    at: tuple[tuple[int, ...], ...]
    lact: tuple[tuple[tuple[int, ...], ...], ...]
    ract: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        a_cat, b_cat = self.src, self.tgt
        na, nb = a_cat.objects.size, b_cat.objects.size
        require(len(self.at) == nb
                and all(len(row) == na for row in self.at),
                "prof-shape", "value table must be tgt-major")
        require(len(self.lact) == b_cat.morphisms.size
                and all(len(row) == na for row in self.lact),
                "prof-shape", "one left action per tgt morphism and object")
        require(len(self.ract) == a_cat.morphisms.size
                and all(len(row) == nb for row in self.ract),
                "prof-shape", "one right action per src morphism and object")
        at, lact, ract = self.at, self.lact, self.ract
        for beta in b_cat.mors:
            b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
            for a in a_cat.objs:
                if not _typed(lact[beta][a], at[b2][a], at[b1][a]):
                    raise InvariantViolation(
                        "prof-typing", f"left action of {beta} at {a} mistyped")
        for alpha in a_cat.mors:
            a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
            for b in b_cat.objs:
                if not _typed(ract[alpha][b], at[b][a1], at[b][a2]):
                    raise InvariantViolation(
                        "prof-typing", f"right action of {alpha} at {b} mistyped")
        self._check_laws()

    def _check_laws(self) -> None:
        """The identity, composition and interchange equations, for
        actions of the right shape and types (the document decoder checks
        them so)."""
        a_cat, b_cat = self.src, self.tgt
        lact, ract = self.lact, self.ract
        ids, right = _Identities(), [ract[i] for i in a_cat.ident.table]
        for b, i in enumerate(b_cat.ident.table):
            for a, (t, column) in enumerate(zip(lact[i], right)):
                if t != ids[len(t)]:
                    raise InvariantViolation(
                        "prof-ident", f"left identity action fails at ({b}, {a})")
                t = column[b]
                if t != ids[len(t)]:
                    raise InvariantViolation(
                        "prof-ident", f"right identity action fails at ({b}, {a})")
        # With the identity actions checked, every equation along an
        # identity holds: only pairs of non-identities are computed.
        bsrc, btgt, bcomp = b_cat.src.table, b_cat.tgt.table, b_cat.comp
        asrc, atgt, acomp = a_cat.src.table, a_cat.tgt.table, a_cat.comp
        b_non, a_non = b_cat.non_identities, a_cat.non_identities
        b_ids, a_ids = b_cat.ident.table, a_cat.ident.table
        for b1 in b_non:
            b = btgt[b1]
            for b2 in b_cat.out_of(b):
                if b2 != b_ids[b] and lact[bcomp[b2][b1]] != tuple(
                        map(_after, lact[b1], lact[b2])):
                    raise InvariantViolation("prof-comp", "left action not "
                                             f"functorial on ({b2}, {b1})")
        for a1 in a_non:
            a = atgt[a1]
            for a2 in a_cat.out_of(a):
                if a2 != a_ids[a] and ract[acomp[a2][a1]] != tuple(
                        map(_after, ract[a2], ract[a1])):
                    raise InvariantViolation("prof-comp", "right action not "
                                             f"functorial on ({a2}, {a1})")
        for beta in b_non:
            b1, b2, lb = bsrc[beta], btgt[beta], lact[beta]
            for alpha in a_non:
                a1, a2, ra = asrc[alpha], atgt[alpha], ract[alpha]
                if _after(ra[b1], lb[a1]) != _after(lb[a2], ra[b2]):
                    raise InvariantViolation(
                        "prof-interchange",
                        f"actions of {beta} and {alpha} do not commute")


def _built(a_cat: FinCat, b_cat: FinCat, sizes, left, right) -> Profunctor:
    """The module A -> B with ``sizes[b][a]`` elements at (b, a), whose left
    action along a non-identity beta has the tables ``left(beta)``, one
    per object of A, and right action along a non-identity alpha the
    tables ``right(alpha)``, one per object of B.  Every module the library
    computes is built here.  Identities act by identity maps, by
    construction, so ``left`` is never called when B is discrete, nor
    ``right`` when A is; cells of one size share one identity table."""
    at, ident = tuple(map(tuple, sizes)), _Identities()
    ids = tuple(tuple(ident[k] for k in row) for row in at)

    def lact(beta):
        b1 = b_cat.src.table[beta]
        if b_cat.ident.table[b1] == beta:
            return ids[b1]
        return tuple(left(beta))

    def ract(alpha):
        a1 = a_cat.src.table[alpha]
        if a_cat.ident.table[a1] == alpha:
            return tuple(row[a1] for row in ids)
        return tuple(right(alpha))

    return Profunctor._trusted(a_cat, b_cat, at, tuple(map(lact, b_cat.mors)),
                               tuple(map(ract, a_cat.mors)))


def prof_from_presheaf(a: FinCat, b: FinCat, psh: Presheaf) -> Profunctor:
    """Unpack a presheaf on B x A^op into a profunctor A -> B, whose laws
    are the presheaf's."""
    require(psh.base == product_cat(b, opposite_cat(a)), "prof-from-presheaf",
            "presheaf must live on the product with the opposite")
    return _prof_from_presheaf(a, b, psh)


def _prof_from_presheaf(a: FinCat, b: FinCat, psh: Presheaf) -> Profunctor:
    """``prof_from_presheaf`` without the base check: psh is on B x A^op."""
    na, nma = a.objects.size, a.morphisms.size
    act = psh.act
    return _built(
        a, b, [psh.at[bo * na:(bo + 1) * na] for bo in b.objs],
        lambda beta: (act[beta * nma + i] for i in a.ident.table),
        lambda alpha: (act[i * nma + alpha] for i in b.ident.table))


def presheaf_as_module(p: Presheaf) -> Profunctor:
    """A presheaf on C viewed as a module from the terminal category: its
    one column; ``module_as_presheaf`` gives the presheaf back."""
    return _built(terminal_cat(), p.base, [(k,) for k in p.at],
                  lambda gamma: (p.act[gamma],), None)


def module_as_presheaf(m: Profunctor) -> Presheaf:
    require(m.src == terminal_cat(), "module-psh-src",
            "only modules out of the terminal category are presheaves")
    return Presheaf._trusted(m.tgt, tuple(row[0] for row in m.at),
                             tuple(row[0] for row in m.lact))


def graph_module(f: Functor) -> Profunctor:
    """The covariant embedding of a functor: value at (b, a) is the
    hom-set from b to the image of a."""
    a_cat, b_cat = f.dom, f.cod
    hom, pos, comp = b_cat.hom, b_cat.hom_position, b_cat.comp

    def left(beta):  # precompose with beta
        b2 = b_cat.tgt(beta)
        return (tuple(pos(comp[g][beta]) for g in hom(b2, fa))
                for fa in f.omap)

    def right(alpha):  # postcompose with the image of alpha
        fa1, after = f.omap[a_cat.src(alpha)], comp[f.mmap[alpha]]
        return (tuple(pos(after[g]) for g in hom(b, fa1)) for b in b_cat.objs)

    return _built(a_cat, b_cat, [[len(hom(b, fa)) for fa in f.omap]
                                 for b in b_cat.objs], left, right)


def cograph_module(f: Functor) -> Profunctor:
    """The contravariant embedding: a module from the codomain back to the
    domain, valued in hom-sets out of the image."""
    a_cat, b_cat = f.dom, f.cod
    hom, pos, comp = b_cat.hom, b_cat.hom_position, b_cat.comp

    def left(alpha):  # precompose with the image of alpha
        fa2, falpha = f.omap[a_cat.tgt(alpha)], f.mmap[alpha]
        return (tuple(pos(comp[g][falpha]) for g in hom(fa2, b))
                for b in b_cat.objs)

    def right(beta):  # postcompose with beta
        b1, after = b_cat.src(beta), comp[beta]
        return (tuple(pos(after[g]) for g in hom(fa, b1)) for fa in f.omap)

    return _built(b_cat, a_cat, [[len(hom(fa, b)) for b in b_cat.objs]
                                 for fa in f.omap], left, right)


def identity_module(c: FinCat) -> Profunctor:
    return graph_module(identity_functor(c))


class ProfMorphism(Record):
    """A morphism of parallel modules, held as its cells hold it:
    ``h[b][a]`` is the int table of the function from the source's value
    set at (b, a) to the target's, and the family is natural for both
    actions.  Morphisms from callers are checked at construction: the
    shape of ``h``, the length of each table, its entries and naturality;
    those computed here are checked in the tests."""

    source: Profunctor
    target: Profunctor
    h: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        m, n = self.source, self.target
        require(m.src == n.src and m.tgt == n.tgt, "profmor-parallel",
                "profunctor morphisms need parallel boundaries")
        a_cat, b_cat = m.src, m.tgt
        h = self.h
        require(len(h) == b_cat.objects.size
                and all(len(row) == a_cat.objects.size for row in h),
                "profmor-shape", "one row of components per tgt object and "
                "one component per src object")
        for b in b_cat.objs:
            for a in a_cat.objs:
                f, cod = h[b][a], n.at[b][a]
                if _typed(f, m.at[b][a], cod):
                    continue
                if len(f) != m.at[b][a]:
                    raise InvariantViolation(
                        "profmor-typing", f"component at ({b}, {a}) mistyped")
                _check_table(f, len(f), cod)
        for beta in b_cat.non_identities:
            b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
            for a in a_cat.objs:
                if (_after(h[b1][a], m.lact[beta][a])
                        != _after(n.lact[beta][a], h[b2][a])):
                    raise InvariantViolation(
                        "profmor-natural",
                        f"left naturality fails at ({beta}, {a})")
        for alpha in a_cat.non_identities:
            a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
            for b in b_cat.objs:
                if (_after(h[b][a2], m.ract[alpha][b])
                        != _after(n.ract[alpha][b], h[b][a1])):
                    raise InvariantViolation(
                        "profmor-natural",
                        f"right naturality fails at ({alpha}, {b})")

    @property
    def is_invertible(self) -> bool:
        """Whether every component is a bijection: the cells have equal
        sizes and no table repeats an entry."""
        return self.source.at == self.target.at and all(
            len(set(f)) == len(f) for row in self.h for f in row)


def prof_id(m: Profunctor) -> ProfMorphism:
    ids = _Identities()
    return ProfMorphism(m, m, tuple(tuple(ids[k] for k in row)
                                    for row in m.at))


def prof_vcomp(b: ProfMorphism, a: ProfMorphism) -> ProfMorphism:
    require(a.target == b.source, "profmor-vcomp",
            "morphisms do not meet at a common profunctor")
    return ProfMorphism(a.source, b.target, tuple(
        tuple(map(_after, row_b, row_a)) for row_b, row_a in zip(b.h, a.h)))


def prof_invert(c: ProfMorphism) -> ProfMorphism:
    require(c.is_invertible, "profmor-invert",
            "only componentwise bijections invert")
    # a bijection's indices, sorted by their images, list its inverse
    return ProfMorphism(c.target, c.source, tuple(
        tuple(tuple(sorted(range(len(f)), key=f.__getitem__)) for f in row)
        for row in c.h))


def _coend(n: Profunctor, m: Profunctor):
    """The coend composite of n after m, with its classes: ``cells[c][a]``
    lists the representative of each class of triples (middle object b,
    element of m(b, a), element of n(c, b)), its smallest member, in
    increasing order, and ``index(c, a, b, x, y)`` is the position of the
    class of any triple (b, x, y) in its cell, so a class's members are
    the triples that ``index`` sends to it.

    The triples are the join of the elements (a, x) of m and (c, y) of n
    over each middle object b, numbered in the order b, then (a, x), then
    (c, y): within one cell (c, a) that is the lexicographic order of
    (b, x, y).  One union-find over these ids quotients them along the
    non-identity middle morphisms (an identity would unite each triple
    with itself), always linking the larger root below the smaller, so
    each root is the smallest member of its class and one pass in id
    order lists every cell's classes in order.  For valid modules every
    map out of a class is independent of the member it reads, so a
    non-identity action moves each class's root, whose id is computed from
    its triple; identities act as identities by construction."""
    a_cat, b_cat, c_cat = m.src, m.tgt, n.tgt
    # per middle object b, the block of its triples: the row of each a,
    # the column of each c, the block's width and its first id
    rows = [list(accumulate(m.at[b], initial=0)) for b in b_cat.objs]
    cols = [list(accumulate((n.at[c][b] for c in c_cat.objs), initial=0))
            for b in b_cat.objs]
    width = [col[-1] for col in cols]
    first = list(accumulate((row[-1] * w for row, w in zip(rows, width)),
                            initial=0))
    parent = list(range(first[-1]))

    def find(t):
        while parent[t] != t:  # path halving
            parent[t] = t = parent[parent[t]]
        return t

    for beta in b_cat.non_identities:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        w1, w2 = width[b1], width[b2]
        ract = n.ract[beta]
        moved = [(cols[b1][c] + y1, cols[b2][c] + y2) for c in c_cat.objs
                 for y1, y2 in enumerate(ract[c])]
        for a in a_cat.objs:
            o1, o2 = first[b1] + rows[b1][a] * w1, first[b2] + rows[b2][a] * w2
            for x2, x1 in enumerate(m.lact[beta][a]):
                t1, t2 = o1 + x1 * w1, o2 + x2 * w2
                for j1, j2 in moved:
                    r1, r2 = find(t1 + j1), find(t2 + j2)
                    if r1 < r2:
                        parent[r2] = r1
                    elif r2 < r1:
                        parent[r1] = r2
    grid = [[[] for _ in a_cat.objs] for _ in c_cat.objs]
    position = [0] * len(parent)  # at roots: the class's place in its cell
    t = 0
    for b in b_cat.objs:
        over_n = [(grid[c], n.at[c][b]) for c in c_cat.objs if n.at[c][b]]
        for a in a_cat.objs:
            for x in range(m.at[b][a]):
                for row, size in over_n:
                    classes = row[a]
                    for y in range(size):
                        if parent[t] == t:
                            position[t] = len(classes)
                            classes.append((b, x, y))
                        t += 1

    def index(c, a, b, x, y):
        return position[find(first[b] + (rows[b][a] + x) * width[b]
                             + cols[b][c] + y)]

    def left(gamma):
        c1, c2, g = c_cat.src(gamma), c_cat.tgt(gamma), n.lact[gamma]
        return (tuple(index(c1, a, b, x, g[b][y])
                      for b, x, y in grid[c2][a])
                for a in a_cat.objs)

    def right(alpha):
        a1, a2, r = a_cat.src(alpha), a_cat.tgt(alpha), m.ract[alpha]
        return (tuple(index(c, a2, b, r[b][x], y)
                      for b, x, y in grid[c][a1])
                for c in c_cat.objs)

    sizes = [list(map(len, row)) for row in grid]
    return _built(a_cat, c_cat, sizes, left, right), grid, index


def _coend_map(n: Profunctor, m: Profunctor, target: Profunctor,
               value) -> ProfMorphism:
    """The morphism from the coend composite of n after m to ``target``
    that sends each class of the cell (c, a) to ``value(c, a, b, x, y)``
    of its representative (b, x, y).  Every morphism the library computes
    out of a coend is built here, unchecked: its callers' values lie in
    ``target``, are independent of the member read and are natural, by
    construction."""
    source, cells, _ = _coend(n, m)
    return ProfMorphism._trusted(source, target, tuple(
        tuple(tuple(value(c, a, *rep) for rep in reps)
              for a, reps in enumerate(row))
        for c, row in enumerate(cells)))


def prof_compose(n: Profunctor, m: Profunctor) -> Profunctor:
    """Coend composite; its actions move class representatives."""
    require(m.tgt == n.src, "prof-compose-boundary",
            "middle categories do not match")
    return _coend(n, m)[0]


def prof_whisker_left(n: Profunctor, cell: ProfMorphism) -> ProfMorphism:
    """Compose a morphism of modules with n on the outside: each coend class
    goes to the class of its representative moved by the morphism."""
    v, v2 = cell.source, cell.target
    require(v.tgt == n.src, "profmor-whisker",
            "whiskering requires composable boundaries")
    right, _, index2 = _coend(n, v2)
    return _coend_map(n, v, right, lambda c, a, b, x, y: index2(
        c, a, b, cell.h[b][a][x], y))


def _prof_maps(m: Profunctor, n: Profunctor, bijective: bool):
    """The morphisms m => n of parallel modules, in lexicographic order of
    their component tables (cells tgt-major), from the search of
    ``fincat``: one square per non-identity morphism of either boundary
    and object of the other."""
    a_cat, b_cat = m.src, m.tgt
    na = a_cat.objects.size
    squares = [(b_cat.tgt(beta) * na + a, b_cat.src(beta) * na + a,
                m.lact[beta][a], n.lact[beta][a])
               for beta in b_cat.non_identities for a in a_cat.objs]
    squares += [(b * na + a_cat.src(alpha), b * na + a_cat.tgt(alpha),
                 m.ract[alpha][b], n.ract[alpha][b])
                for alpha in a_cat.non_identities for b in b_cat.objs]
    for tables in _natural_maps([k for row in m.at for k in row],
                                [k for row in n.at for k in row], squares,
                                bijective):
        yield ProfMorphism._trusted(m, n, tuple(
            tables[b * na:(b + 1) * na] for b in b_cat.objs))


def enumerate_prof_morphisms(m: Profunctor, n: Profunctor):
    """Every morphism m => n, in lexicographic order of its tables."""
    require(m.src == n.src and m.tgt == n.tgt, "profmor-parallel",
            "profunctor morphisms need parallel boundaries")
    return _prof_maps(m, n, False)


def prof_iso(m: Profunctor, n: Profunctor) -> ProfMorphism | None:
    """The first invertible morphism m => n, in lexicographic order of its
    tables, or None."""
    if m.src != n.src or m.tgt != n.tgt:
        return None
    if m.at != n.at:
        return None
    return next(_prof_maps(m, n, True), None)


def _natural_families(n: Profunctor, u: Profunctor, s: int, k: int):
    """All families of maps n(y, s) -> u(y, k) natural in y, as per-y
    tables, in lexicographic order."""
    y_cat = n.tgt
    squares = [(y_cat.tgt(psi), y_cat.src(psi),
                n.lact[psi][s], u.lact[psi][k])
               for psi in y_cat.non_identities]
    return _natural_maps([row[s] for row in n.at], [row[k] for row in u.at],
                         squares, False)


class RifModData(Record):
    """A right lifting together with its concrete elements: families[s][k]
    lists the natural families the value set at (s, k) enumerates."""

    prof: Profunctor
    families: tuple[tuple[tuple[tuple[tuple[int, ...], ...], ...], ...], ...]


def rif_mod_data(n: Profunctor, u: Profunctor) -> RifModData:
    require(n.tgt == u.tgt, "rif-mod-boundary",
            "lifter and target must share their codomain")
    s_cat, k_cat, y_cat = n.src, u.src, n.tgt
    fams = tuple(tuple(tuple(_natural_families(n, u, s, k))
                       for k in k_cat.objs)
                 for s in s_cat.objs)
    index = tuple(tuple({f: i for i, f in enumerate(fams[s][k])}
                        for k in k_cat.objs)
                  for s in s_cat.objs)

    def left(sigma):  # a family at s2 read through n's action of sigma
        s1, s2, r = s_cat.src(sigma), s_cat.tgt(sigma), n.ract[sigma]
        return (tuple(index[s1][k][tuple(
            tuple(map(fam[y].__getitem__, r[y])) for y in y_cat.objs)]
            for fam in fams[s2][k]) for k in k_cat.objs)

    def right(kappa):  # a family at k1 followed by u's action of kappa
        k1, k2, r = k_cat.src(kappa), k_cat.tgt(kappa), u.ract[kappa]
        return (tuple(index[s][k2][tuple(
            tuple(map(r[y].__getitem__, fam[y])) for y in y_cat.objs)]
            for fam in fams[s][k1]) for s in s_cat.objs)

    sizes = [list(map(len, row)) for row in fams]
    return RifModData(_built(k_cat, s_cat, sizes, left, right), fams)


def rif_mod(n: Profunctor, u: Profunctor) -> Profunctor:
    return rif_mod_data(n, u).prof


def rif_mod_counit(n: Profunctor, u: Profunctor,
                   data: RifModData | None = None) -> ProfMorphism:
    """Evaluation morphism from the composite of the lifter with the
    lifting down to the target: a class goes to its family's value at its
    element.  ``data`` stands for ``rif_mod_data(n, u)``; the counit of a
    caller's ``data`` is checked, which types every table, so data from
    another target raises ``map-range`` or ``profmor-natural``."""
    given = data is not None
    if not given:
        data = rif_mod_data(n, u)
    fams = data.families
    counit = _coend_map(n, data.prof, u,
                        lambda y, k, s, x, t: fams[s][k][x][y][t])
    if given:
        counit.__post_init__()
    return counit


def tabulate_mod(u: Presheaf) -> ElementsCat:
    """The tabulation of a presheaf: its category of elements with the
    projection, whose fibers are the presheaf itself, table for table, by
    construction of the elements, so the witnessing isomorphism is the
    identity."""
    return elements(u)


class ModPolynomial(Record):
    """A polynomial between finite categories: profunctor lifter leg out
    of the apex, discrete fibration neat leg."""

    X: FinCat
    Y: FinCat
    S: FinCat
    m: Profunctor
    p: Functor

    def __post_init__(self) -> None:
        require(self.m.src == self.S and self.m.tgt == self.X,
                "modpoly-typing", "lifter must be a module S -> X")
        require(self.p.dom == self.S and self.p.cod == self.Y,
                "modpoly-typing", "neat leg must be a functor S -> Y")
        require(is_discrete_fibration(self.p), "modpoly-neat",
                "neat leg must be a discrete fibration")


def identity_polymod(x: FinCat) -> ModPolynomial:
    return ModPolynomial(x, x, x, identity_module(x), identity_functor(x))


def _fiber_cells(p: Functor, v: Profunctor):
    """The elements of the fiberwise sum: ``cells[y][k]`` lists the pairs
    (s, i) with s over y in object order and i in v(s, k); the pair sits at
    position ``start[s][k] + i`` of its cell."""
    cells = [[[] for _ in v.src.objs] for _ in p.cod.objs]
    start = [[0] * v.src.objects.size for _ in p.dom.objs]
    for y, row in enumerate(cells):
        for k, cell in enumerate(row):
            for s in p.over.fiber(y):
                start[s][k] = len(cell)
                cell.extend((s, i) for i in range(v.at[s][k]))
    return cells, start


def fiberwise_module(p: Functor, v: Profunctor) -> Profunctor:
    """Sum of v's values over the fibers of a discrete fibration, with the
    left action through unique lifts.  This is the closed form that the
    coend along the graph module collapses to."""
    return _fiberwise(p, v)[0]


def _fiberwise(p: Functor, v: Profunctor):
    """``fiberwise_module(p, v)`` with the ``start`` of ``_fiber_cells``."""
    require(is_discrete_fibration(p), "fiberwise-dfib",
            "fiberwise sums need a discrete fibration")
    require(v.tgt == p.dom, "fiberwise-boundary",
            "module must land in the domain of the fibration")
    s_cat, y_cat, k_cat = p.dom, p.cod, v.src
    cells, start = _fiber_cells(p, v)

    def moved(psi, k, s2, i):  # along the lift of psi at s2
        sigma = p.lifts(s2, psi)[0]
        return start[s_cat.src(sigma)][k] + v.lact[sigma][k][i]

    def left(psi):
        y2 = y_cat.tgt(psi)
        return (tuple(moved(psi, k, s2, i) for s2, i in cells[y2][k])
                for k in k_cat.objs)

    def right(kappa):
        k1, k2, r = k_cat.src(kappa), k_cat.tgt(kappa), v.ract[kappa]
        return (tuple(start[s][k2] + r[s][i] for s, i in row[k1])
                for row in cells)

    sizes = [list(map(len, row)) for row in cells]
    return _built(k_cat, y_cat, sizes, left, right), start


class DfibCollapse(Record):
    """The fiberwise sum together with the canonical comparison from the
    coend route (invertible for a discrete fibration)."""

    fiberwise: Profunctor
    compare: ProfMorphism


def dfib_collapse(p: Functor, v: Profunctor) -> DfibCollapse:
    fw, start = _fiberwise(p, v)
    s_cat, y_cat = p.dom, p.cod

    def collapse(y, k, s, x, gpos):  # along the lift of the gpos-th y -> p(s)
        sigma = p.lifts(s, y_cat.hom(y, p.omap[s])[gpos])[0]
        return start[s_cat.src(sigma)][k] + v.lact[sigma][k][x]

    return DfibCollapse(fw, _coend_map(graph_module(p), v, fw, collapse))


class PolymodParts(Record):
    """Composite polynomial with the intermediate construction data."""

    poly: ModPolynomial
    z: Presheaf
    rif: RifModData
    tab: ElementsCat
    n: Profunctor


def polymod_parts(q: ModPolynomial, p: ModPolynomial) -> PolymodParts:
    """Composite of polynomials: tabulate the lifting of the fiber
    presheaf through q's lifter, then connect with the splitting-family
    module n, which fills the square (p.p)_*∘n ≅ q.m∘r_* with the two
    graph modules by construction."""
    require(p.Y == q.X, "polymod-compose-boundary",
            "middle categories do not match")
    c_cat, z_cat = q.X, p.S
    z = fibers(p.p)
    rd = rif_mod_data(q.m, presheaf_as_module(z))
    tab = tabulate_mod(module_as_presheaf(rd.prof))
    y_cat = tab.cat
    # the family of an object yo = (t, xi) of y_cat maps q.m(c, t) to the
    # fiber of p over c: the elements it sends to z are the value set of n
    # at (z, yo), and place[yo][c][mu] is the position of mu in that set
    above = [p.p.over.fiber(c) for c in c_cat.objs]
    cells = [[[] for _ in y_cat.objs] for _ in z_cat.objs]
    place = []
    for yo, (t, xi) in enumerate(tab.objects_data):
        place.append([])
        for c, family in enumerate(rd.families[t][0][xi]):
            row = []
            for mu, i in enumerate(family):
                cell = cells[above[c][i]][yo]
                row.append(len(cell))
                cell.append(mu)
            place[yo].append(row)

    def left(zeta):  # q's lifter restricts along the image of zeta
        gamma, c1 = p.p.mmap[zeta], p.p.omap[z_cat.src(zeta)]
        return (tuple(place[yo][c1][q.m.lact[gamma][t][mu]]
                      for mu in cells[z_cat.tgt(zeta)][yo])
                for yo, (t, _) in enumerate(tab.objects_data))

    def right(ym):  # q's lifter pushes along the base morphism of ym
        yo1, yo2 = y_cat.src(ym), y_cat.tgt(ym)
        phi = tab.morphisms_data[ym][0]
        return (tuple(place[yo2][c][q.m.ract[phi][c][mu]]
                      for mu in cells[zo][yo1])
                for zo, c in enumerate(p.p.omap))

    n = _built(y_cat, z_cat, [list(map(len, row)) for row in cells], left,
               right)
    poly = ModPolynomial._trusted(p.X, q.Y, y_cat, prof_compose(p.m, n),
                                  compose_functors(q.p, tab.proj))
    return PolymodParts(poly, z, rd, tab, n)


def compose_polymod(q: ModPolynomial, p: ModPolynomial) -> ModPolynomial:
    return polymod_parts(q, p).poly


def hK_mod(k: FinCat, p: ModPolynomial, u: Profunctor) -> Profunctor:
    """Hom-action on modules out of K, by the fiberwise sum of natural
    family sets over the neat fibration."""
    require(u.src == k and u.tgt == p.X, "hK-mod-boundary",
            "u must be a module K -> X")
    return fiberwise_module(p.p, rif_mod(p.m, u))


def hK_mod_via_lifting(k: FinCat, p: ModPolynomial,
                       u: Profunctor) -> Profunctor:
    """The same action computed through the coend with the graph module
    of the neat leg; kept separate as an independent route."""
    require(u.src == k and u.tgt == p.X, "hK-mod-boundary",
            "u must be a module K -> X")
    return prof_compose(graph_module(p.p), rif_mod(p.m, u))


def _cotensor2(a: FinCat) -> FinCat:
    """The cotensor of a category with the arrow: the product of the
    opposite arrow category with a."""
    return product_cat(opposite_cat(ordinal2()), a)


def cotensor2_mod(a: FinCat) -> tuple[FinCat, Profunctor]:
    """The cotensor of a with the arrow, together with the graph module of
    the second projection."""
    cot = _cotensor2(a)
    na, nma = a.objects.size, a.morphisms.size
    pr2 = Functor._trusted(cot, a, tuple(o % na for o in cot.objs),
                           tuple(mi % nma for mi in cot.mors))
    return cot, graph_module(pr2)


def decompose_cotensor_module(m: Profunctor,
                              a: FinCat) -> tuple[Profunctor, Profunctor,
                                                  ProfMorphism]:
    """Split a module into the cotensor into its two ends and the
    connecting morphism carried by the arrow direction."""
    require(m.tgt == _cotensor2(a), "cotensor-decompose",
            "module must land in the cotensor")
    na, nma = a.objects.size, a.morphisms.size
    k_cat = m.src

    def end(i):
        return _built(k_cat, a, m.at[i * na:(i + 1) * na],
                      lambda alpha: m.lact[i * nma + alpha],
                      lambda kappa: m.ract[kappa][i * na:(i + 1) * na])

    m0, m1 = end(0), end(1)
    theta = ProfMorphism(m0, m1, tuple(m.lact[2 * nma + a.ident(ao)]
                                       for ao in a.objs))
    return m0, m1, theta


def build_cotensor_module(m0: Profunctor, m1: Profunctor,
                          theta: ProfMorphism) -> Profunctor:
    """Inverse of the decomposition: reassemble the module into the
    cotensor from an arrow of modules."""
    require(theta.source == m0 and theta.target == m1, "cotensor-build",
            "connecting morphism must run from the first end to the second")
    a, k_cat = m0.tgt, m0.src
    cot = _cotensor2(a)
    nma = a.morphisms.size

    def left(mi):  # the arrow's component is m1's action after theta
        j, alpha = divmod(mi, nma)
        if j < 2:
            return (m0, m1)[j].lact[alpha]
        return map(_after, m1.lact[alpha], theta.h[a.tgt(alpha)])

    return _built(k_cat, cot, m0.at + m1.at, left,
                  lambda kappa: m0.ract[kappa] + m1.ract[kappa])


def psh_on_dfib(g: Functor, r: Functor) -> Functor:
    """Push a discrete fibration forward along a functor by taking the
    discrete-fibration part of the comprehensive factorization of the
    composite."""
    require(is_discrete_fibration(r), "psh-dfib-input",
            "only discrete fibrations are pushed forward")
    require(r.cod == g.dom, "psh-dfib-boundary",
            "fibration must land in the domain of the functor")
    return comprehensive_factorization(compose_functors(g, r))[1]
