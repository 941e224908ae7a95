"""Profunctors between finite categories and polynomials over them.

A profunctor from A to B assigns a finite set to every pair (object of B,
object of A), with a contravariant B-action and a covariant A-action.
Composition is computed as a coend in one pass over all cells: the join of
the elements of both modules over each middle object, and one quotient of
the resulting triples by the zigzag relation, with union-find.  Every map
out of a coend (the composite's actions, whiskering, the counit of a
right lifting, the collapse onto a fiberwise sum) reads one representative
per class, which is well defined for valid modules.
Right liftings are computed as ends: sets of naturally varying families
of maps.  Those families, the morphisms between two modules and the
isomorphisms between them all come from the one search for natural maps
in ``fincat``, with a module laid out cell by cell (tgt-major).  A
polynomial has a profunctor as its lifter leg and a discrete fibration as
its neat leg; composition of polynomials follows the tabulation of the
lifted presheaf of fibers, whose witness is the identity because the
fibers of the elements projection are the presheaf table for table, with
the induced connecting module given by an explicit splitting-family
formula.  Composition does not re-check what holds by construction: the
module suites of ``checks`` verify the square that module fills with the
graph modules, and the tabulation's fibers.
"""

from __future__ import annotations

from .errors import InvariantViolation, require
from .fincat import (
    ElementsCat,
    FinCat,
    Functor,
    Presheaf,
    _after,
    _is_identity_table,
    _natural_maps,
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
from .finset import FinSetMap, FinSetObj, compose, identity
from .record import Record
from .unionfind import UnionFind


class Profunctor(Record):
    """A two-sided module: ``at[b][a]`` is the value set, ``lact[beta][a]``
    restricts along a tgt-category morphism (contravariantly) and
    ``ract[alpha][b]`` pushes along a src-category morphism (covariantly).
    Modules from callers and documents have every bifunctoriality equation
    checked at construction; those computed here are checked in the tests."""

    src: FinCat
    tgt: FinCat
    at: tuple[tuple[FinSetObj, ...], ...]
    lact: tuple[tuple[FinSetMap, ...], ...]
    ract: tuple[tuple[FinSetMap, ...], ...]

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
                f = lact[beta][a]
                if f.dom != at[b2][a] or f.cod != at[b1][a]:
                    raise InvariantViolation(
                        "prof-typing", f"left action of {beta} at {a} mistyped")
        for alpha in a_cat.mors:
            a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
            for b in b_cat.objs:
                f = ract[alpha][b]
                if f.dom != at[b][a1] or f.cod != at[b][a2]:
                    raise InvariantViolation(
                        "prof-typing", f"right action of {alpha} at {b} mistyped")
        self._check_laws()

    def _check_laws(self) -> None:
        """The identity, composition and interchange equations, for
        actions of the right shape and types (the document decoder builds
        them so)."""
        a_cat, b_cat = self.src, self.tgt
        lact, ract = self.lact, self.ract
        for b in b_cat.objs:
            for a in a_cat.objs:
                if not _is_identity_table(lact[b_cat.ident(b)][a].table):
                    raise InvariantViolation(
                        "prof-ident", f"left identity action fails at ({b}, {a})")
                if not _is_identity_table(ract[a_cat.ident(a)][b].table):
                    raise InvariantViolation(
                        "prof-ident", f"right identity action fails at ({b}, {a})")
        # With the identity actions checked, every equation along an
        # identity holds: only pairs of non-identities are computed.
        for b1 in b_cat.non_identities:
            b = b_cat.tgt(b1)
            for b2 in b_cat.out_of(b):
                if b2 == b_cat.ident.table[b]:
                    continue
                row, l1, l2 = lact[b_cat.comp[b2][b1]], lact[b1], lact[b2]
                for a in a_cat.objs:
                    if row[a].table != _after(l1[a], l2[a]):
                        raise InvariantViolation(
                            "prof-comp",
                            f"left action not functorial on ({b2}, {b1})")
        for a1 in a_cat.non_identities:
            a = a_cat.tgt(a1)
            for a2 in a_cat.out_of(a):
                if a2 == a_cat.ident.table[a]:
                    continue
                row, r1, r2 = ract[a_cat.comp[a2][a1]], ract[a1], ract[a2]
                for b in b_cat.objs:
                    if row[b].table != _after(r2[b], r1[b]):
                        raise InvariantViolation(
                            "prof-comp",
                            f"right action not functorial on ({a2}, {a1})")
        for beta in b_cat.non_identities:
            b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
            for alpha in a_cat.non_identities:
                a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
                if (_after(ract[alpha][b1], lact[beta][a1])
                        != _after(lact[beta][a2], ract[alpha][b2])):
                    raise InvariantViolation(
                        "prof-interchange",
                        f"actions of {beta} and {alpha} do not commute")


def prof_from_presheaf(a: FinCat, b: FinCat, psh: Presheaf) -> Profunctor:
    """Unpack a presheaf on B x A^op into a profunctor A -> B."""
    na, nma = a.objects.size, a.morphisms.size
    require(psh.base == product_cat(b, opposite_cat(a)), "prof-from-presheaf",
            "presheaf must live on the product with the opposite")
    at = tuple(tuple(psh.at[bo * na + ao] for ao in a.objs) for bo in b.objs)
    lact = tuple(tuple(psh.act[beta * nma + a.ident(ao)] for ao in a.objs)
                 for beta in b.mors)
    ract = tuple(tuple(psh.act[b.ident(bo) * nma + alpha] for bo in b.objs)
                 for alpha in a.mors)
    return Profunctor(a, b, at, lact, ract)


def presheaf_as_module(p: Presheaf) -> Profunctor:
    """A presheaf on C viewed as a module from the terminal category."""
    one = terminal_cat()
    at = tuple((p.at[c],) for c in p.base.objs)
    lact = tuple((p.act[gamma],) for gamma in p.base.mors)
    ract = (tuple(identity(p.at[c]) for c in p.base.objs),)
    return Profunctor._trusted(one, p.base, at, lact, ract)


def module_as_presheaf(m: Profunctor) -> Presheaf:
    require(m.src == terminal_cat(), "module-psh-src",
            "only modules out of the terminal category are presheaves")
    return Presheaf._trusted(m.tgt, tuple(m.at[b][0] for b in m.tgt.objs),
                             tuple(m.lact[beta][0] for beta in m.tgt.mors))


def graph_module(f: Functor) -> Profunctor:
    """The covariant embedding of a functor: value at (b, a) is the
    hom-set from b to the image of a."""
    a_cat, b_cat = f.dom, f.cod
    at = tuple(tuple(FinSetObj(len(b_cat.hom(b, f.omap[a]))) for a in a_cat.objs)
               for b in b_cat.objs)
    lact = []
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        lact.append(tuple(
            FinSetMap(at[b2][a], at[b1][a],
                      tuple(b_cat.hom_position(b_cat.comp[g][beta])
                            for g in b_cat.hom(b2, f.omap[a])))
            for a in a_cat.objs))
    ract = []
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        ract.append(tuple(
            FinSetMap(at[b][a1], at[b][a2],
                      tuple(b_cat.hom_position(b_cat.comp[f.mmap[alpha]][g])
                            for g in b_cat.hom(b, f.omap[a1])))
            for b in b_cat.objs))
    return Profunctor(a_cat, b_cat, at, tuple(lact), tuple(ract))


def cograph_module(f: Functor) -> Profunctor:
    """The contravariant embedding: a module from the codomain back to the
    domain, valued in hom-sets out of the image."""
    a_cat, b_cat = f.dom, f.cod
    at = tuple(tuple(FinSetObj(len(b_cat.hom(f.omap[a], b))) for b in b_cat.objs)
               for a in a_cat.objs)
    lact = []
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        lact.append(tuple(
            FinSetMap(at[a2][b], at[a1][b],
                      tuple(b_cat.hom_position(b_cat.comp[g][f.mmap[alpha]])
                            for g in b_cat.hom(f.omap[a2], b)))
            for b in b_cat.objs))
    ract = []
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        ract.append(tuple(
            FinSetMap(at[a][b1], at[a][b2],
                      tuple(b_cat.hom_position(b_cat.comp[beta][g])
                            for g in b_cat.hom(f.omap[a], b1)))
            for a in a_cat.objs))
    return Profunctor(b_cat, a_cat, at, tuple(lact), tuple(ract))


def identity_module(c: FinCat) -> Profunctor:
    return graph_module(identity_functor(c))


class ProfMorphism(Record):
    """A morphism of parallel profunctors: one map per value set, natural
    for both actions."""

    source: Profunctor
    target: Profunctor
    h: tuple[tuple[FinSetMap, ...], ...]

    def __post_init__(self) -> None:
        m, n = self.source, self.target
        require(m.src == n.src and m.tgt == n.tgt, "profmor-parallel",
                "profunctor morphisms need parallel boundaries")
        a_cat, b_cat = m.src, m.tgt
        h = self.h
        for b in b_cat.objs:
            for a in a_cat.objs:
                f = h[b][a]
                if f.dom != m.at[b][a] or f.cod != n.at[b][a]:
                    raise InvariantViolation(
                        "profmor-typing", f"component at ({b}, {a}) mistyped")
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
        return all(f.is_bijective for row in self.h for f in row)


def prof_id(m: Profunctor) -> ProfMorphism:
    return ProfMorphism(m, m, tuple(
        tuple(identity(m.at[b][a]) for a in m.src.objs)
        for b in m.tgt.objs))


def prof_vcomp(b: ProfMorphism, a: ProfMorphism) -> ProfMorphism:
    require(a.target == b.source, "profmor-vcomp",
            "morphisms do not meet at a common profunctor")
    return ProfMorphism(a.source, b.target, tuple(
        tuple(compose(b.h[bo][ao], a.h[bo][ao]) for ao in a.source.src.objs)
        for bo in a.source.tgt.objs))


def prof_invert(c: ProfMorphism) -> ProfMorphism:
    require(c.is_invertible, "profmor-invert",
            "only componentwise bijections invert")
    return ProfMorphism(c.target, c.source, tuple(
        tuple(f.inverse() for f in row) for row in c.h))


def _coend(n: Profunctor, m: Profunctor):
    """The coend composite of n after m, with its classes: ``cells[(c, a)]``
    lists the classes of triples (middle object b, element of m(b, a),
    element of n(c, b)), members sorted and classes ordered by their
    smallest member, and ``index[(c, a)]`` takes a triple to its class.

    The triples are the join of the elements of m and n over each middle
    object; one union-find quotients them along the non-identity middle
    morphisms (an identity would unite each triple with itself).  For
    valid modules every map out of a class is independent of the member
    it reads, so the actions move each class's first member."""
    a_cat, b_cat, c_cat = m.src, m.tgt, n.tgt
    uf = UnionFind()
    for b in b_cat.objs:
        over_m = [(a, x) for a in a_cat.objs for x in m.at[b][a].elements]
        over_n = [(c, y) for c in c_cat.objs for y in n.at[c][b].elements]
        for a, x in over_m:
            for c, y in over_n:
                uf.add(((c, a), (b, x, y)))
    for beta in b_cat.non_identities:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        lact, ract = m.lact[beta], n.ract[beta]
        for a in a_cat.objs:
            for x2 in m.at[b2][a].elements:
                x1 = lact[a](x2)
                for c in c_cat.objs:
                    for y1 in n.at[c][b1].elements:
                        uf.unite(((c, a), (b1, x1, y1)),
                                 ((c, a), (b2, x2, ract[c](y1))))
    cells = {(c, a): [] for c in c_cat.objs for a in a_cat.objs}
    for cls in uf.classes():
        cells[cls[0][0]].append([t for _, t in cls])
    index = {cell: {t: i for i, cls in enumerate(classes) for t in cls}
             for cell, classes in cells.items()}
    at = tuple(tuple(FinSetObj(len(cells[(c, a)])) for a in a_cat.objs)
               for c in c_cat.objs)

    def push(c_from, a_from, c_to, a_to, move):
        to = index[(c_to, a_to)]
        return FinSetMap._trusted(at[c_from][a_from], at[c_to][a_to], tuple(
            to[move(*cls[0])] for cls in cells[(c_from, a_from)]))

    lact = []
    for gamma in c_cat.mors:
        c1, c2 = c_cat.src(gamma), c_cat.tgt(gamma)
        lact.append(tuple(
            push(c2, a, c1, a,
                 lambda b, x, y, g=n.lact[gamma]: (b, x, g[b](y)))
            for a in a_cat.objs))
    ract = []
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        ract.append(tuple(
            push(c, a1, c, a2,
                 lambda b, x, y, r=m.ract[alpha]: (b, r[b](x), y))
            for c in c_cat.objs))
    return (Profunctor._trusted(a_cat, c_cat, at, tuple(lact), tuple(ract)),
            cells, index)


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
    left, cells, _ = _coend(n, v)
    right, _, index2 = _coend(n, v2)
    h = tuple(
        tuple(FinSetMap(left.at[c][a], right.at[c][a], tuple(
            index2[(c, a)][(b, cell.h[b][a](x), y)]
            for b, x, y in (cls[0] for cls in cells[(c, a)])))
            for a in v.src.objs)
        for c in n.tgt.objs)
    return ProfMorphism(left, right, h)


def _prof_maps(m: Profunctor, n: Profunctor, bijective: bool):
    """The morphisms m => n of parallel modules, in lexicographic order of
    their component tables (cells tgt-major), from the search of
    ``fincat``: one square per non-identity morphism of either boundary
    and object of the other."""
    a_cat, b_cat = m.src, m.tgt
    na = a_cat.objects.size
    squares = [(b_cat.tgt(beta) * na + a, b_cat.src(beta) * na + a,
                m.lact[beta][a].table, n.lact[beta][a].table)
               for beta in b_cat.non_identities for a in a_cat.objs]
    squares += [(b * na + a_cat.src(alpha), b * na + a_cat.tgt(alpha),
                 m.ract[alpha][b].table, n.ract[alpha][b].table)
                for alpha in a_cat.non_identities for b in b_cat.objs]
    for tables in _natural_maps(
            [v.size for row in m.at for v in row],
            [v.size for row in n.at for v in row], squares, bijective):
        yield ProfMorphism(m, n, tuple(
            tuple(FinSetMap(m.at[b][a], n.at[b][a], tables[b * na + a])
                  for a in a_cat.objs)
            for b in b_cat.objs))


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
    for b in m.tgt.objs:
        for a in m.src.objs:
            if m.at[b][a].size != n.at[b][a].size:
                return None
    return next(_prof_maps(m, n, True), None)


def _natural_families(n: Profunctor, u: Profunctor, s: int, k: int):
    """All families of maps n(y, s) -> u(y, k) natural in y, as per-y
    tables, in lexicographic order."""
    y_cat = n.tgt
    squares = [(y_cat.tgt(psi), y_cat.src(psi),
                n.lact[psi][s].table, u.lact[psi][k].table)
               for psi in y_cat.non_identities]
    return _natural_maps([n.at[y][s].size for y in y_cat.objs],
                         [u.at[y][k].size for y in y_cat.objs],
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
    at = tuple(tuple(FinSetObj(len(fams[s][k])) for k in k_cat.objs)
               for s in s_cat.objs)
    lact = []
    for sigma in s_cat.mors:
        s1, s2 = s_cat.src(sigma), s_cat.tgt(sigma)
        row = []
        for k in k_cat.objs:
            table = []
            for fam in fams[s2][k]:
                moved = tuple(
                    tuple(fam[y][n.ract[sigma][y](v)]
                          for v in range(n.at[y][s1].size))
                    for y in y_cat.objs)
                table.append(index[s1][k][moved])
            row.append(FinSetMap._trusted(at[s2][k], at[s1][k], tuple(table)))
        lact.append(tuple(row))
    ract = []
    for kappa in k_cat.mors:
        k1, k2 = k_cat.src(kappa), k_cat.tgt(kappa)
        row = []
        for s in s_cat.objs:
            table = []
            for fam in fams[s][k1]:
                moved = tuple(
                    tuple(u.ract[kappa][y](fam[y][v])
                          for v in range(n.at[y][s].size))
                    for y in y_cat.objs)
                table.append(index[s][k2][moved])
            row.append(FinSetMap._trusted(at[s][k1], at[s][k2], tuple(table)))
        ract.append(tuple(row))
    return RifModData(
        Profunctor._trusted(k_cat, s_cat, at, tuple(lact), tuple(ract)), fams)


def rif_mod(n: Profunctor, u: Profunctor) -> Profunctor:
    return rif_mod_data(n, u).prof


def rif_mod_counit(n: Profunctor, u: Profunctor,
                   data: RifModData | None = None) -> ProfMorphism:
    """Evaluation morphism from the composite of the lifter with the
    lifting down to the target."""
    if data is None:
        data = rif_mod_data(n, u)
    comp, cells, _ = _coend(n, data.prof)
    fams = data.families
    h = tuple(
        tuple(FinSetMap(comp.at[y][k], u.at[y][k], tuple(
            fams[s][k][x][y][t]
            for s, x, t in (cls[0] for cls in cells[(y, k)])))
            for k in u.src.objs)
        for y in u.tgt.objs)
    return ProfMorphism(comp, u, h)


class ModTabulation(Record):
    """The category of elements of a presheaf with projection and the
    witnessing isomorphism between the fibers of the projection and the
    presheaf itself."""

    el: ElementsCat
    p: Functor
    rho: tuple[FinSetMap, ...]


def tabulate_mod(u: Presheaf) -> ModTabulation:
    """The elements of u with their projection.  The fibers of the
    projection are u itself, table for table, by construction of the
    elements, so the witness is the identity."""
    el = elements(u)
    return ModTabulation(el, el.proj, tuple(identity(v) for v in u.at))


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
    """The elements of the fiberwise sum: ``cells[(y, k)]`` lists the pairs
    (s, i) with s over y in object order and i in v(s, k); the pair sits at
    position ``start[s][k] + i`` of its cell."""
    cells = {}
    start = [[0] * v.src.objects.size for _ in p.dom.objs]
    for y in p.cod.objs:
        for k in v.src.objs:
            cell = []
            for s in p.over.fiber(y):
                start[s][k] = len(cell)
                cell.extend((s, i) for i in v.at[s][k].elements)
            cells[(y, k)] = cell
    return cells, start


def fiberwise_module(p: Functor, v: Profunctor) -> Profunctor:
    """Sum of v's values over the fibers of a discrete fibration, with the
    left action through unique lifts.  This is the closed form that the
    coend along the graph module collapses to."""
    require(is_discrete_fibration(p), "fiberwise-dfib",
            "fiberwise sums need a discrete fibration")
    require(v.tgt == p.dom, "fiberwise-boundary",
            "module must land in the domain of the fibration")
    s_cat, y_cat, k_cat = p.dom, p.cod, v.src
    cells, start = _fiber_cells(p, v)
    at = tuple(tuple(FinSetObj(len(cells[(y, k)])) for k in k_cat.objs)
               for y in y_cat.objs)
    lact = []
    for psi in y_cat.mors:
        y1, y2 = y_cat.src(psi), y_cat.tgt(psi)
        row = []
        for k in k_cat.objs:
            table = []
            for s2, i in cells[(y2, k)]:
                sigma = p.lifts(s2, psi)[0]
                table.append(start[s_cat.src(sigma)][k] + v.lact[sigma][k](i))
            row.append(FinSetMap(at[y2][k], at[y1][k], tuple(table)))
        lact.append(tuple(row))
    ract = []
    for kappa in k_cat.mors:
        k1, k2 = k_cat.src(kappa), k_cat.tgt(kappa)
        row = []
        for y in y_cat.objs:
            table = [start[s][k2] + v.ract[kappa][s](i)
                     for s, i in cells[(y, k1)]]
            row.append(FinSetMap(at[y][k1], at[y][k2], tuple(table)))
        ract.append(tuple(row))
    return Profunctor(k_cat, y_cat, at, tuple(lact), tuple(ract))


class DfibCollapse(Record):
    """The fiberwise sum together with the canonical comparison from the
    coend route (invertible for a discrete fibration)."""

    fiberwise: Profunctor
    compare: ProfMorphism


def dfib_collapse(p: Functor, v: Profunctor) -> DfibCollapse:
    fw = fiberwise_module(p, v)
    composite, cells, _ = _coend(graph_module(p), v)
    s_cat, y_cat = p.dom, p.cod
    _, start = _fiber_cells(p, v)

    def collapse(y, k, s, x, gpos):
        sigma = p.lifts(s, y_cat.hom(y, p.omap[s])[gpos])[0]
        return start[s_cat.src(sigma)][k] + v.lact[sigma][k](x)

    h = tuple(
        tuple(FinSetMap(composite.at[y][k], fw.at[y][k], tuple(
            collapse(y, k, *cls[0]) for cls in cells[(y, k)]))
            for k in v.src.objs)
        for y in y_cat.objs)
    return DfibCollapse(fw, ProfMorphism(composite, fw, h))


class PolymodParts(Record):
    """Composite polynomial with the intermediate construction data."""

    poly: ModPolynomial
    z: Presheaf
    rif: RifModData
    tab: ModTabulation
    n: Profunctor
    r: Functor


def polymod_parts(q: ModPolynomial, p: ModPolynomial) -> PolymodParts:
    """Composite of polynomials: tabulate the lifting of the fiber
    presheaf through q's lifter, then connect with the splitting-family
    module n, which fills the square (p.p)_*∘n ≅ q.m∘r_* with the two
    graph modules by construction."""
    require(p.Y == q.X, "polymod-compose-boundary",
            "middle categories do not match")
    c_cat, t_cat, z_cat = q.X, q.S, p.S
    z = fibers(p.p)
    rd = rif_mod_data(q.m, presheaf_as_module(z))
    tab = tabulate_mod(module_as_presheaf(rd.prof))
    y_cat = tab.el.cat
    # the family of an object (t, xi) of y_cat, at c, as a map from q.m(c, t)
    # to the fiber of p over c: its fibers are the value sets of n
    split = [[FinSetMap._trusted(q.m.at[c][t], z.at[c],
                                 rd.families[t][0][xi_i][c])
              for c in c_cat.objs] for t, xi_i in tab.el.objects_data]

    cells = [[split[yo][p.p.omap[zo]].fiber(p.p.over.fiber_position(zo))
              for yo in range(y_cat.objects.size)] for zo in z_cat.objs]
    at = tuple(tuple(FinSetObj(len(cell)) for cell in row) for row in cells)
    lact = []
    for zeta in z_cat.mors:
        z1, z2 = z_cat.src(zeta), z_cat.tgt(zeta)
        gamma, c1 = p.p.mmap[zeta], p.p.omap[z1]
        row = []
        for yo, (t, _) in enumerate(tab.el.objects_data):
            table = [split[yo][c1].fiber_position(q.m.lact[gamma][t](mu))
                     for mu in cells[z2][yo]]
            row.append(FinSetMap._trusted(at[z2][yo], at[z1][yo],
                                          tuple(table)))
        lact.append(tuple(row))
    ract = []
    for ym, (phi, _) in enumerate(tab.el.morphisms_data):
        yo1 = tab.el.cat.src(ym)
        yo2 = tab.el.cat.tgt(ym)
        row = []
        for zo in z_cat.objs:
            c = p.p.omap[zo]
            table = [split[yo2][c].fiber_position(q.m.ract[phi][c](mu))
                     for mu in cells[zo][yo1]]
            row.append(FinSetMap._trusted(at[zo][yo1], at[zo][yo2],
                                          tuple(table)))
        ract.append(tuple(row))
    n = Profunctor._trusted(y_cat, z_cat, at, tuple(lact), tuple(ract))
    r = tab.p
    poly = ModPolynomial._trusted(p.X, q.Y, y_cat, prof_compose(p.m, n),
                                  compose_functors(q.p, r))
    return PolymodParts(poly, z, rd, tab, n, r)


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


def cotensor2_mod(a: FinCat) -> tuple[FinCat, Profunctor]:
    """The cotensor of a category with the arrow: the product of the
    opposite arrow category with a, together with the graph module of the
    second projection."""
    op2 = opposite_cat(ordinal2())
    cot = product_cat(op2, a)
    na, nma = a.objects.size, a.morphisms.size
    pr2 = Functor(cot, a,
                  tuple(o % na for o in cot.objs),
                  tuple(mi % nma for mi in cot.mors))
    return cot, graph_module(pr2)


def decompose_cotensor_module(m: Profunctor,
                              a: FinCat) -> tuple[Profunctor, Profunctor,
                                                  ProfMorphism]:
    """Split a module into the cotensor into its two ends and the
    connecting morphism carried by the arrow direction."""
    cot, _ = cotensor2_mod(a)
    require(m.tgt == cot, "cotensor-decompose",
            "module must land in the cotensor")
    na, nma = a.objects.size, a.morphisms.size
    k_cat = m.src

    def end(i):
        at = tuple(tuple(m.at[i * na + ao][k] for k in k_cat.objs)
                   for ao in a.objs)
        lact = tuple(tuple(m.lact[i * nma + alpha][k] for k in k_cat.objs)
                     for alpha in a.mors)
        ract = tuple(tuple(m.ract[kappa][i * na + ao] for ao in a.objs)
                     for kappa in k_cat.mors)
        return Profunctor(k_cat, a, at, lact, ract)

    m0, m1 = end(0), end(1)
    theta = ProfMorphism(m0, m1, tuple(
        tuple(m.lact[2 * nma + a.ident(ao)][k] for k in k_cat.objs)
        for ao in a.objs))
    return m0, m1, theta


def build_cotensor_module(m0: Profunctor, m1: Profunctor,
                          theta: ProfMorphism) -> Profunctor:
    """Inverse of the decomposition: reassemble the module into the
    cotensor from an arrow of modules."""
    require(theta.source == m0 and theta.target == m1, "cotensor-build",
            "connecting morphism must run from the first end to the second")
    a, k_cat = m0.tgt, m0.src
    cot, _ = cotensor2_mod(a)
    na, nma = a.objects.size, a.morphisms.size
    ends = (m0, m1)
    at = tuple(tuple(ends[o // na].at[o % na][k] for k in k_cat.objs)
               for o in cot.objs)
    lact = []
    for mi in cot.mors:
        j, alpha = mi // nma, mi % nma
        if j < 2:
            lact.append(tuple(ends[j].lact[alpha][k] for k in k_cat.objs))
        else:
            ta = a.tgt(alpha)
            lact.append(tuple(
                compose(m1.lact[alpha][k], theta.h[ta][k])
                for k in k_cat.objs))
    ract = tuple(tuple(ends[o // na].ract[kappa][o % na] for o in cot.objs)
                 for kappa in k_cat.mors)
    return Profunctor(k_cat, cot, at, tuple(lact), ract)


def psh_on_dfib(g: Functor, r: Functor) -> Functor:
    """Push a discrete fibration forward along a functor by taking the
    discrete-fibration part of the comprehensive factorization of the
    composite."""
    require(is_discrete_fibration(r), "psh-dfib-input",
            "only discrete fibrations are pushed forward")
    require(r.cod == g.dom, "psh-dfib-boundary",
            "fibration must land in the domain of the functor")
    return comprehensive_factorization(compose_functors(g, r))[1]
