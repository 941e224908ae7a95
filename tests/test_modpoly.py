"""Profunctor calculus and polynomial composition between categories."""

import itertools
import random
import sys

import pytest

from polyspan import checks, fincat, modpoly
from polyspan.errors import InvariantViolation
from polyspan.fincat import (
    FinCat,
    Functor,
    Presheaf,
    comma,
    compose_functors,
    constant_functor,
    constant_presheaf,
    discrete_cat,
    elements,
    fibers,
    identity_functor,
    is_discrete_fibration,
    monoid_cat,
    opposite_cat,
    ordinal2,
    pi0_classes,
    presheaf_iso,
    product_cat,
    representable,
    terminal_cat,
)
from polyspan.finset import FinSetMap, FinSetObj, compose, identity
from polyspan.gen import (
    preorder_cat,
    rand_composable_modpolys,
    rand_dfib,
    rand_fincat,
    rand_functor,
    rand_hk_case,
    rand_modpoly,
    rand_poly,
    rand_presheaf,
    rand_profunctor,
    rand_span,
)
from polyspan.modpoly import (
    ModPolynomial,
    Profunctor,
    ProfMorphism,
    _coend,
    _fiber_cells,
    build_cotensor_module,
    cograph_module,
    compose_polymod,
    cotensor2_mod,
    decompose_cotensor_module,
    dfib_collapse,
    enumerate_prof_morphisms,
    fiberwise_module,
    graph_module,
    hK_mod,
    hK_mod_via_lifting,
    identity_module,
    identity_polymod,
    module_as_presheaf,
    presheaf_as_module,
    prof_compose,
    prof_from_presheaf,
    prof_id,
    prof_invert,
    prof_iso,
    prof_vcomp,
    prof_whisker_left,
    psh_on_dfib,
    rif_mod,
    rif_mod_counit,
    rif_mod_data,
    tabulate_mod,
)
from polyspan.polyset import Polynomial, compose_poly, are_isomorphic_poly, hK_span
from polyspan.spans import Span
from polyspan.unionfind import UnionFind
from test_fincat import presheaf_maps


def max_cell(m):
    return max((k for row in m.at for k in row), default=0)


def tables_of(at, lact, ract):
    """The sizes and tables of value sets and action maps given as
    ``FinSetObj``s and ``FinSetMap``s, the form modules were held in before
    they held sizes and tables: the references below build in that form."""
    return (tuple(tuple(v.size for v in row) for row in at),
            tuple(tuple(f.table for f in row) for row in lact),
            tuple(tuple(f.table for f in row) for row in ract))


def tabled(src, tgt, at, lact, ract):
    """The checked module with these value sets and action maps."""
    return Profunctor(src, tgt, *tables_of(at, lact, ract))


def component(dom, cod, table):
    """A component of a module morphism between cells of these sizes, as
    a ``FinSetMap``: the form morphisms were held in before they held one
    int table per cell, in which the references below build them."""
    return FinSetMap(FinSetObj(dom), FinSetObj(cod), tuple(table))


def as_components(n, h):
    """The tables h of a morphism into n as ``FinSetMap``s into n's cells,
    each from a set of its own length; an entry outside its cell raises
    ``map-range`` as ``FinSetMap`` does."""
    return tuple(tuple(component(len(t), n.at[b][a], t)
                       for a, t in enumerate(row))
                 for b, row in enumerate(h))


def tables(components):
    """The tables of ``FinSetMap`` components, the converse of
    ``as_components``."""
    return tuple(tuple(f.table for f in row) for row in components)


def from_components(source, target, components):
    """The morphism with these ``FinSetMap`` components, which must pass
    the checks morphisms made while they held maps, converted to tables."""
    assert reference_component_violation(source, target, components) is None
    return ProfMorphism(source, target, tables(components))


def as_maps(m):
    """The value sets and action maps of m as ``FinSetObj``s and
    ``FinSetMap``s, the converse of ``tabled``."""
    a_cat, b_cat = m.src, m.tgt
    at = tuple(tuple(map(FinSetObj, row)) for row in m.at)
    lact = tuple(tuple(
        FinSetMap(at[b_cat.tgt(beta)][a], at[b_cat.src(beta)][a], t)
        for a, t in enumerate(row)) for beta, row in enumerate(m.lact))
    ract = tuple(tuple(
        FinSetMap(at[b][a_cat.src(alpha)], at[b][a_cat.tgt(alpha)], t)
        for b, t in enumerate(row)) for alpha, row in enumerate(m.ract))
    return at, lact, ract


def discrete_prof(na, nb, sizes):
    """A profunctor between discrete categories from a size matrix
    sizes[b][a]; all actions are identities."""
    a_cat, b_cat = discrete_cat(na), discrete_cat(nb)
    at = tuple(tuple(FinSetObj(sizes[b][a]) for a in range(na))
               for b in range(nb))
    lact = tuple(tuple(identity(at[b][a]) for a in range(na))
                 for b in range(nb))
    ract = tuple(tuple(identity(at[b][a]) for b in range(nb))
                 for a in range(na))
    return tabled(a_cat, b_cat, at, lact, ract)


def embed_poly(p: Polynomial) -> ModPolynomial:
    """A set-level polynomial as a polynomial over discrete categories."""
    x, s = discrete_cat(p.X.size), discrete_cat(p.S.size)
    y = discrete_cat(p.Y.size)
    cells = [[sum(1 for e in p.E.elements
                  if p.m1(e) == xo and p.m2(e) == so)
              for so in range(p.S.size)] for xo in range(p.X.size)]
    m = discrete_prof(p.S.size, p.X.size, cells)
    neat = Functor(s, y, tuple(p.p.table), tuple(p.p.table))
    return ModPolynomial(x, y, s, m, neat)


def decode_poly(mp: ModPolynomial) -> Polynomial:
    """Back from discrete categories to sets; block order is S-major so
    equal inputs decode equally."""
    xs, ss = mp.X.objects.size, mp.S.objects.size
    ys = mp.Y.objects.size
    m1, m2 = [], []
    for so in range(ss):
        for xo in range(xs):
            n = mp.m.at[xo][so]
            m1.extend([xo] * n)
            m2.extend([so] * n)
    e = FinSetObj(len(m1))
    return Polynomial(FinSetObj(xs), e, FinSetObj(ss), FinSetObj(ys),
                      FinSetMap(e, FinSetObj(xs), tuple(m1)),
                      FinSetMap(e, FinSetObj(ss), tuple(m2)),
                      FinSetMap(FinSetObj(ss), FinSetObj(ys),
                                tuple(mp.p.omap)))


def span_as_prof(s: Span) -> Profunctor:
    """A span of sets as a profunctor between discrete categories."""
    sizes = [[sum(1 for v in s.apex.elements
                  if s.left_leg(v) == ko and s.right_leg(v) == xo)
              for ko in range(s.left_foot.size)]
             for xo in range(s.right_foot.size)]
    return discrete_prof(s.left_foot.size, s.right_foot.size, sizes)


def naive_nat_count(n, u, s, k):
    """Count natural families by filtering the full product space; an
    independent route around the incremental backtracking."""
    y_cat = n.tgt
    spaces = [list(itertools.product(range(u.at[y][k]),
                                     repeat=n.at[y][s]))
              for y in y_cat.objs]
    count = 0
    for fam in itertools.product(*spaces):
        if all(fam[y_cat.src(psi)][n.lact[psi][s][v]]
               == u.lact[psi][k][fam[y_cat.tgt(psi)][v]]
               for psi in y_cat.mors
               for v in range(n.at[y_cat.tgt(psi)][s])):
            count += 1
    return count


def small_profunctor(rng, src, tgt, cap=2):
    return rand_profunctor(rng, src, tgt, parts_max=1, max_cell=cap)


def morphism_space(m, n):
    """Size of the full function-space search between parallel modules."""
    total = 1
    for b in m.tgt.objs:
        for a in m.src.objs:
            total *= max(1, n.at[b][a]) ** m.at[b][a]
            if total > 10 ** 9:
                return total
    return total


class TestProfunctor:
    def test_identity_module_on_arrow(self):
        m = identity_module(ordinal2())
        assert m.at == ((1, 1), (0, 1))

    def test_lact_functoriality_enforced(self):
        z3 = monoid_cat(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
        rot1, ident = (1, 2, 0), (0, 1, 2)
        with pytest.raises(InvariantViolation, match="prof-comp"):
            Profunctor(terminal_cat(), z3, ((3,),),
                       ((ident,), (rot1,), (rot1,)),
                       ((ident,),))

    def test_interchange_enforced(self):
        z2 = monoid_cat(((0, 1), (1, 0)), 0)
        ident, lperm, rperm = (0, 1, 2), (1, 0, 2), (0, 2, 1)
        with pytest.raises(InvariantViolation, match="prof-interchange"):
            Profunctor(z2, z2, ((3,),),
                       ((ident,), (lperm,)),
                       ((ident,), (rperm,)))

    def test_cell_typing_enforced(self):
        o2 = ordinal2()
        good = identity_module(o2)
        bad_at = tuple(tuple(k + 1 for k in row) for row in good.at)
        with pytest.raises(InvariantViolation, match="prof-typing"):
            Profunctor(o2, o2, bad_at, good.lact, good.ract)
        # entries out of range at either end of an action's codomain
        one = terminal_cat()
        for row in ((0, -1), (0, 2)):
            with pytest.raises(InvariantViolation) as e:
                Profunctor(one, one, ((2,),), ((row,),), (((0, 1),),))
            assert str(e.value) == "prof-typing: left action of 0 at 0 mistyped"

    def test_graph_of_identity_is_hom(self):
        o2 = ordinal2()
        g = graph_module(identity_functor(o2))
        assert g.at == ((1, 1), (0, 1))
        # the arrow acts by precomposition on the upper hom-set
        assert g.lact[2][1] == (0,)

    def test_cograph_transposes_graph(self):
        o2 = ordinal2()
        top = constant_functor(terminal_cat(), o2, 1)
        g = graph_module(top)
        cg = cograph_module(top)
        # maps into the image of 1 versus maps out of it
        assert g.at == ((1,), (1,))
        assert cg.at == ((0, 1),)

    def test_presheaf_module_roundtrip(self):
        """A presheaf holds what the one column of its module out of the
        terminal category holds, so the round trip gives it back exactly."""
        rng = random.Random(40)
        for _ in range(100):
            c = rand_fincat(rng)
            p = rand_presheaf(rng, c)
            m = presheaf_as_module(p)
            assert m.at == tuple((k,) for k in p.at)
            assert m.lact == tuple((t,) for t in p.act)
            assert module_as_presheaf(m) == p

    def test_prof_from_presheaf_values(self):
        o2 = ordinal2()
        base = product_cat(o2, opposite_cat(o2))
        psh = representable(base, 3)
        m = prof_from_presheaf(o2, o2, psh)
        for b in o2.objs:
            for a in o2.objs:
                assert m.at[b][a] == psh.at[b * 2 + a]


class TestProfCompose:
    def test_discrete_is_matrix_product(self):
        rng = random.Random(41)
        for _ in range(15):
            na, nb, nc = (rng.randint(1, 3) for _ in range(3))
            m = discrete_prof(na, nb, [[rng.randint(0, 3) for _ in range(na)]
                                       for _ in range(nb)])
            n = discrete_prof(nb, nc, [[rng.randint(0, 3) for _ in range(nb)]
                                       for _ in range(nc)])
            comp = prof_compose(n, m)
            for c in range(nc):
                for a in range(na):
                    want = sum(m.at[b][a] * n.at[c][b]
                               for b in range(nb))
                    assert comp.at[c][a] == want

    def test_arrow_glues_summands(self):
        """A connecting morphism in the middle category merges the two
        middle-object summands into one coend class."""
        o2 = ordinal2()
        one = (0,)
        m = Profunctor(terminal_cat(), o2, ((1,), (1,)),
                       ((one,), (one,), (one,)), ((one, one),))
        n = Profunctor(o2, terminal_cat(), ((1, 1),), ((one, one),),
                       ((one,), (one,), (one,)))
        comp, cells, index = _coend(n, m)
        assert comp == prof_compose(n, m)
        assert comp.at[0][0] == 1
        assert cells[0][0] == [(0, 0, 0)]
        assert coend_classes(n, m, index, 0, 0) == [[(0, 0, 0), (1, 0, 0)]]

    def test_unit_laws(self):
        rng = random.Random(42)
        for _ in range(12):
            a, b = rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            left = prof_compose(identity_module(b), m)
            right = prof_compose(m, identity_module(a))
            assert prof_iso(left, m) is not None
            assert prof_iso(right, m) is not None

    def test_associativity_up_to_iso(self):
        rng = random.Random(43)
        done = 0
        while done < 10:
            a, b = rand_fincat(rng), rand_fincat(rng)
            c, d = rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            n = small_profunctor(rng, b, c)
            o = small_profunctor(rng, c, d)
            lhs = prof_compose(prof_compose(o, n), m)
            rhs = prof_compose(o, prof_compose(n, m))
            assert prof_iso(lhs, rhs) is not None
            done += 1

    def test_graph_is_functorial(self):
        rng = random.Random(44)
        done = 0
        while done < 10:
            a, b, c = rand_fincat(rng), rand_fincat(rng), rand_fincat(rng)
            f = rand_functor(rng, a, b)
            g = rand_functor(rng, b, c)
            if f is None or g is None:
                continue
            lhs = graph_module(compose_functors(g, f))
            rhs = prof_compose(graph_module(g), graph_module(f))
            assert prof_iso(lhs, rhs) is not None
            lhs2 = cograph_module(compose_functors(g, f))
            rhs2 = prof_compose(cograph_module(f), cograph_module(g))
            assert prof_iso(lhs2, rhs2) is not None
            done += 1

    def test_whisker_left_descends(self):
        o2 = ordinal2()
        n = identity_module(o2)
        u = presheaf_as_module(representable(o2, 1))
        cell = prof_id(u)
        w = prof_whisker_left(n, cell)
        assert w.source == prof_compose(n, u)
        assert w.is_invertible


def reference_prof_invert(c):
    """The componentwise inverse, one table loop per component."""
    inv = []
    for row in as_components(c.target, c.h):
        out = []
        for f in row:
            table = [0] * f.cod.size
            for i in f.dom.elements:
                table[f(i)] = i
            out.append(FinSetMap(f.cod, f.dom, tuple(table)))
        inv.append(tuple(out))
    return from_components(c.target, c.source, tuple(inv))


class TestProfInvert:
    def test_matches_the_componentwise_loop(self):
        rng = random.Random(48)
        for _ in range(12):
            a, b = rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            for unit in (prof_compose(identity_module(b), m),
                         prof_compose(m, identity_module(a))):
                iso = prof_iso(unit, m)
                assert iso.is_invertible
                assert prof_invert(iso) == reference_prof_invert(iso)
                assert prof_vcomp(prof_invert(iso), iso) == prof_id(unit)

    @pytest.mark.parametrize("seed", range(3))
    def test_automorphisms_match_the_componentwise_loop(self, seed):
        """The automorphisms of modules with cells of up to four elements,
        some of which are not involutions, so that an inverse differs from
        the morphism itself."""
        rng = random.Random(1650 + seed)
        done = cycles = 0
        while done < 10:
            a, b = rand_fincat(rng, max_objs=2), rand_fincat(rng, max_objs=2)
            m = rich_profunctor(rng, a, b)
            if morphism_space(m, m) > 5000:
                continue
            for iso in enumerate_prof_morphisms(m, m):
                if iso.is_invertible:
                    inverse = prof_invert(iso)
                    assert inverse == reference_prof_invert(iso)
                    assert prof_vcomp(inverse, iso) == prof_id(m)
                    cycles += inverse != iso
            done += 1
        assert cycles

    def test_a_non_bijective_component_is_refused(self):
        two, one = discrete_prof(1, 1, [[2]]), discrete_prof(1, 1, [[1]])
        for target, table in ((one, (0, 0)), (two, (1, 1))):
            c = ProfMorphism(two, target, ((table,),))
            assert not c.is_invertible
            with pytest.raises(InvariantViolation, match="profmor-invert"):
                prof_invert(c)


def reference_prof_id(m):
    """The identity, one identity map per value set."""
    return from_components(m, m, tuple(tuple(map(identity, row))
                                       for row in as_maps(m)[0]))


def reference_prof_vcomp(b, a):
    """The vertical composite, component by component through
    ``finset.compose``."""
    return from_components(a.source, b.target, tuple(
        tuple(map(compose, row_b, row_a)) for row_b, row_a in zip(
            as_components(b.target, b.h), as_components(a.target, a.h))))


class TestMorphismsAgainstMaps:
    """Identities, vertical composites and invertibility of morphisms that
    hold one table per cell against the same operations on their
    components held as ``FinSetMap``s."""

    @pytest.mark.parametrize("seed", range(3))
    def test_identities_composites_and_invertibility(self, seed):
        rng = random.Random(1600 + seed)
        kinds, done = set(), 0
        while done < 10:
            a, b = rand_fincat(rng, max_objs=3), rand_fincat(rng, max_objs=3)
            modules = (small_profunctor(rng, a, b), small_profunctor(rng, a, b))
            for x, y, z in itertools.product(modules, repeat=3):
                if max(morphism_space(x, y), morphism_space(y, z)) > 2000:
                    continue
                assert prof_id(x) == reference_prof_id(x)
                firsts = itertools.islice(enumerate_prof_morphisms(x, y), 3)
                for f in firsts:
                    for g in itertools.islice(enumerate_prof_morphisms(y, z),
                                              3):
                        gf = prof_vcomp(g, f)
                        assert gf == reference_prof_vcomp(g, f)
                        bijective = all(c.is_bijective for row in
                                        as_components(z, gf.h) for c in row)
                        assert gf.is_invertible == bijective
                        kinds.add(bijective)
            done += 1
        assert kinds == {True, False}


def coend_classes(n, m, index, c, a):
    """The members of each class of the coend cell (c, a), rebuilt from
    ``index`` over every triple of the cell, in increasing order."""
    classes = {}
    for b in m.tgt.objs:
        for x in range(m.at[b][a]):
            for y in range(n.at[c][b]):
                classes.setdefault(index(c, a, b, x, y), []).append((b, x, y))
    return [classes[i] for i in range(len(classes))]


def _coend_cell(n, m, c, a):
    """Reference: the classes of one value cell of the coend, built on their
    own by a loop over every middle object and non-identity middle morphism;
    returns the classes (members sorted, smallest first) and the index from
    member to class."""
    b_cat = m.tgt
    uf = UnionFind()
    for b in b_cat.objs:
        for x in range(m.at[b][a]):
            for y in range(n.at[c][b]):
                uf.add((b, x, y))
    for beta in b_cat.non_identities:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        for x2 in range(m.at[b2][a]):
            for y1 in range(n.at[c][b1]):
                uf.unite((b1, m.lact[beta][a][x2], y1),
                         (b2, x2, n.ract[beta][c][y1]))
    classes = uf.classes()
    index = {member: i for i, cls in enumerate(classes) for member in cls}
    return classes, index


def _descend(classes, move, message):
    """Reference: the table of a map out of coend classes, moving every
    member of each class and requiring a single image."""
    table = []
    for cls in classes:
        images = {move(t) for t in cls}
        if len(images) != 1:
            raise InvariantViolation("coend-welldef", message)
        table.append(images.pop())
    return tuple(table)


def reference_prof_compose(n, m):
    """The composite cell by cell, each action checked on every member."""
    a_cat, c_cat = m.src, n.tgt
    cells = {(c, a): _coend_cell(n, m, c, a)
             for c in c_cat.objs for a in a_cat.objs}
    at = tuple(tuple(FinSetObj(len(cells[(c, a)][0])) for a in a_cat.objs)
               for c in c_cat.objs)

    def push(c_from, a_from, c_to, a_to, move):
        index_to = cells[(c_to, a_to)][1]
        return FinSetMap(at[c_from][a_from], at[c_to][a_to], _descend(
            cells[(c_from, a_from)][0], lambda t: index_to[move(t)],
            "induced action depends on the representative"))

    lact = tuple(tuple(
        push(c_cat.tgt(g), a, c_cat.src(g), a,
             lambda t, g=g: (t[0], t[1], n.lact[g][t[0]][t[2]]))
        for a in a_cat.objs) for g in c_cat.mors)
    ract = tuple(tuple(
        push(c, a_cat.src(al), c, a_cat.tgt(al),
             lambda t, al=al: (t[0], m.ract[al][t[0]][t[1]], t[2]))
        for c in c_cat.objs) for al in a_cat.mors)
    return tabled(a_cat, c_cat, at, lact, ract)


def reference_whisker_left(n, cell):
    v, v2 = cell.source, cell.target
    left, right = reference_prof_compose(n, v), reference_prof_compose(n, v2)
    maps, h = as_components(v2, cell.h), []
    for c in n.tgt.objs:
        row = []
        for a in v.src.objs:
            classes, _ = _coend_cell(n, v, c, a)
            _, index2 = _coend_cell(n, v2, c, a)
            row.append(component(left.at[c][a], right.at[c][a], _descend(
                classes,
                lambda t: index2[(t[0], maps[t[0]][a](t[1]), t[2])],
                "whiskered map depends on the representative")))
        h.append(tuple(row))
    return from_components(left, right, tuple(h))


def reference_counit(n, u, data):
    comp = reference_prof_compose(n, data.prof)
    h = []
    for y in u.tgt.objs:
        row = []
        for k in u.src.objs:
            classes, _ = _coend_cell(n, data.prof, y, k)
            row.append(component(comp.at[y][k], u.at[y][k], _descend(
                classes,
                lambda t: data.families[t[0]][k][t[1]][y][t[2]],
                "counit depends on the representative")))
        h.append(tuple(row))
    return from_components(comp, u, tuple(h))


def reference_collapse(p, v):
    gm = graph_module(p)
    composite = reference_prof_compose(gm, v)
    fw = fiberwise_module(p, v)
    _, start = _fiber_cells(p, v)

    def collapse(t, y, k):
        s, x, gpos = t
        sigma = p.lifts(s, p.cod.hom(y, p.omap[s])[gpos])[0]
        return start[p.dom.src(sigma)][k] + v.lact[sigma][k][x]

    return from_components(composite, fw, tuple(
        tuple(component(composite.at[y][k], fw.at[y][k], _descend(
            _coend_cell(gm, v, y, k)[0], lambda t: collapse(t, y, k),
            "collapse depends on the representative"))
            for k in v.src.objs)
        for y in p.cod.objs))


def quadratic_compose_actions(n, m):
    """The composite's action tables by the push loop the descent helper
    replaced: for each class, the whole member index is rescanned."""
    a_cat, c_cat = m.src, n.tgt
    cells = {(c, a): _coend_cell(n, m, c, a)
             for c in c_cat.objs for a in a_cat.objs}

    def push(c_from, a_from, c_to, a_to, move):
        classes, index = cells[(c_from, a_from)]
        _, index_to = cells[(c_to, a_to)]
        table = []
        for i in range(len(classes)):
            images = {index_to[move(t)] for t, j in index.items() if j == i}
            assert len(images) == 1
            table.append(images.pop())
        return tuple(table)

    lact = tuple(tuple(
        push(c_cat.tgt(g), a, c_cat.src(g), a,
             lambda t, g=g: (t[0], t[1], n.lact[g][t[0]][t[2]]))
        for a in a_cat.objs) for g in c_cat.mors)
    ract = tuple(tuple(
        push(c, a_cat.src(al), c, a_cat.tgt(al),
             lambda t, al=al: (t[0], m.ract[al][t[0]][t[1]], t[2]))
        for c in c_cat.objs) for al in a_cat.mors)
    return lact, ract


def coend_pairs(seed):
    """Seeded composable pairs (n, m): twelve over random middle
    categories, then six over discrete middles, whose size matrices have
    zeros, so some cells are empty."""
    rng = random.Random(seed)
    for _ in range(12):
        a, b, c = rand_fincat(rng), rand_fincat(rng), rand_fincat(rng)
        yield small_profunctor(rng, b, c), small_profunctor(rng, a, b)
    for _ in range(6):
        na, nb, nc = (rng.randint(1, 4) for _ in range(3))
        m = discrete_prof(na, nb, [[rng.randint(0, 2) for _ in range(na)]
                                   for _ in range(nb)])
        n = discrete_prof(nb, nc, [[rng.randint(0, 2) for _ in range(nb)]
                                   for _ in range(nc)])
        yield n, m


class TestCoendAgainstReference:
    """The one-pass coend against the cell-by-cell construction it
    replaced, and every map out of it against the member-by-member
    descent, which must find a single image for every class."""

    @pytest.mark.parametrize("seed", range(4))
    def test_classes_and_composite(self, seed):
        kinds = set()
        for n, m in coend_pairs(310 + seed):
            comp, cells, index = _coend(n, m)
            for c in n.tgt.objs:
                for a in m.src.objs:
                    classes, ref_index = _coend_cell(n, m, c, a)
                    assert coend_classes(n, m, index, c, a) == classes
                    assert cells[c][a] == [cls[0] for cls in classes]
                    assert {t: index(c, a, *t) for t in ref_index} == \
                        ref_index
                    if not classes:
                        kinds.add("empty cell")
                    if any(len(cls) > 1 for cls in classes):
                        kinds.add("merged class")
            assert comp == reference_prof_compose(n, m)
            assert prof_compose(n, m) == comp
            kinds.add("non-discrete middle" if m.tgt.non_identities
                      else "discrete middle")
        assert kinds == {"empty cell", "non-discrete middle",
                         "discrete middle", "merged class"}

    @pytest.mark.parametrize("seed", range(3))
    def test_whisker_left(self, seed):
        rng = random.Random(320 + seed)
        done = moved = 0
        while done < 6:
            a, b, c = rand_fincat(rng), rand_fincat(rng), rand_fincat(rng)
            n = small_profunctor(rng, b, c)
            v, v2 = small_profunctor(rng, a, b), small_profunctor(rng, a, b)
            if morphism_space(v, v2) > 5000:
                continue
            for cell in itertools.islice(enumerate_prof_morphisms(v, v2), 4):
                whiskered = prof_whisker_left(n, cell)
                assert whiskered == reference_whisker_left(n, cell)
                assert whiskered == checked_whisker_left(n, cell)
                moved += not cell.is_invertible
            done += 1
        assert moved

    @pytest.mark.parametrize("seed", range(3))
    def test_counit(self, seed):
        rng = random.Random(330 + seed)
        done = 0
        while done < 4:
            y = rand_fincat(rng, max_objs=2, max_mors=6)
            s = rand_fincat(rng, max_objs=2, max_mors=6)
            k = rand_fincat(rng, max_objs=2, max_mors=4)
            n = small_profunctor(rng, s, y, cap=2)
            u = small_profunctor(rng, k, y, cap=2)
            if max_cell(n) < 2:
                continue
            data = rif_mod_data(n, u)
            if max_cell(data.prof) > 4:
                continue
            counit = rif_mod_counit(n, u, data)
            assert counit == reference_counit(n, u, data)
            assert counit == checked_counit(n, u, data)
            done += 1

    @pytest.mark.parametrize("seed", range(3))
    def test_collapse(self, seed):
        rng = random.Random(340 + seed)
        for _ in range(6):
            y = rand_fincat(rng)
            k = rand_fincat(rng, max_objs=2)
            p = rand_dfib(rng, y)
            v = small_profunctor(rng, k, p.dom)
            dc = dfib_collapse(p, v)
            assert dc.fiberwise == fiberwise_module(p, v)
            assert dc.compare == reference_collapse(p, v)
            assert dc.compare == checked_collapse(p, v)
            assert dc.compare.is_invertible


class TestCoendDescent:
    """The composite's actions against the loop that rescanned every
    member index, and the reference descent against a class whose members
    disagree."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_quadratic_push(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(8):
            a, b, c = rand_fincat(rng), rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            n = small_profunctor(rng, b, c)
            comp = prof_compose(n, m)
            lact, ract = quadratic_compose_actions(n, m)
            assert (comp.lact, comp.ract) == (lact, ract)

    def test_every_member_is_moved(self):
        classes = [[(0, 0, 0)], [(0, 1, 0), (1, 0, 0), (1, 1, 1)]]
        assert _descend(classes, lambda t: int(t != (0, 0, 0)),
                        "unused") == (0, 1)
        # only the last member of the second class disagrees
        with pytest.raises(InvariantViolation) as e:
            _descend(classes, lambda t: 7 if t == (1, 1, 1) else 0,
                     "induced action depends on the representative")
        assert str(e.value) == ("coend-welldef: induced action depends on "
                                "the representative")


class TestOneCoendPerMap:
    """Each map out of a coend builds its coends once, never through
    ``prof_compose``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = modpoly._coend

        def counted(n, m):
            calls.append((n, m))
            return real(n, m)

        def refused(n, m):
            raise AssertionError("prof_compose ran inside a map out of a "
                                 "coend")

        monkeypatch.setattr(modpoly, "_coend", counted)
        monkeypatch.setattr(modpoly, "prof_compose", refused)
        return calls

    def test_whisker_builds_each_side_once(self, calls):
        o2 = ordinal2()
        n = identity_module(o2)
        u = presheaf_as_module(representable(o2, 1))
        prof_whisker_left(n, prof_id(u))
        assert calls == [(n, u), (n, u)]

    def test_counit_builds_one_coend(self, calls):
        o2 = ordinal2()
        n = identity_module(o2)
        u = presheaf_as_module(representable(o2, 1))
        data = rif_mod_data(n, u)
        rif_mod_counit(n, u, data)
        assert calls == [(n, data.prof)]

    def test_collapse_builds_one_coend(self, calls):
        p = rand_dfib(random.Random(7), ordinal2())
        v = small_profunctor(random.Random(8), terminal_cat(), p.dom)
        dfib_collapse(p, v)
        assert calls == [(graph_module(p), v)]

    def test_collapse_lists_the_fiber_cells_once(self, monkeypatch):
        listed = []
        real = modpoly._fiber_cells

        def counted(p, v):
            listed.append((p, v))
            return real(p, v)

        monkeypatch.setattr(modpoly, "_fiber_cells", counted)
        p = rand_dfib(random.Random(7), ordinal2())
        v = small_profunctor(random.Random(8), terminal_cat(), p.dom)
        dfib_collapse(p, v)
        assert listed == [(p, v)]


def reference_element_ops(m):
    """Flatten a profunctor into one element set with a partial unary
    operation per non-identity morphism of either boundary."""
    ids = {}
    cell_of = []
    ncells = 0
    for b in m.tgt.objs:
        for a in m.src.objs:
            for i in range(m.at[b][a]):
                ids[(b, a, i)] = len(cell_of)
                cell_of.append(ncells)
            ncells += 1
    ops = []
    for beta in m.tgt.mors:
        if m.tgt.is_identity(beta):
            continue
        b1, b2 = m.tgt.src(beta), m.tgt.tgt(beta)
        ops.append({ids[(b2, a, i)]: ids[(b1, a, m.lact[beta][a][i])]
                    for a in m.src.objs for i in range(m.at[b2][a])})
    for alpha in m.src.mors:
        if m.src.is_identity(alpha):
            continue
        a1, a2 = m.src.src(alpha), m.src.tgt(alpha)
        ops.append({ids[(b, a1, i)]: ids[(b, a2, m.ract[alpha][b][i])]
                    for b in m.tgt.objs for i in range(m.at[b][a1])})
    return ids, cell_of, ops


def recursive_prof_iso(m, n):
    """The element-by-element search with one recursive call per guess,
    as prof_iso ran before its search kept its own stack."""
    if m.src != n.src or m.tgt != n.tgt:
        return None
    if m.at != n.at:
        return None
    ids_m, cell_m, ops_m = reference_element_ops(m)
    ids_n, cell_n, ops_n = reference_element_ops(n)
    total = len(cell_m)
    by_cell_n = [[] for _ in range(m.tgt.objects.size * m.src.objects.size)]
    for g in range(total):
        by_cell_n[cell_n[g]].append(g)
    assign, used = [-1] * total, [False] * total

    def close(x, trail):
        stack = [x]
        while stack:
            v = stack.pop()
            w = assign[v]
            for om, on in zip(ops_m, ops_n):
                if v not in om:
                    continue
                v2, w2 = om[v], on[w]
                if assign[v2] == -1:
                    if used[w2]:
                        return False
                    assign[v2], used[w2] = w2, True
                    trail.append(v2)
                    stack.append(v2)
                elif assign[v2] != w2:
                    return False
        return True

    def rec(x):
        while x < total and assign[x] != -1:
            x += 1
        if x == total:
            return True
        for y in by_cell_n[cell_m[x]]:
            if used[y]:
                continue
            trail = [x]
            assign[x], used[y] = y, True
            if close(x, trail) and rec(x + 1):
                return True
            for v in trail:
                used[assign[v]] = False
                assign[v] = -1
        return False

    if not rec(0):
        return None
    h = []
    for b in m.tgt.objs:
        row = []
        for a in m.src.objs:
            local_n = {ids_n[(b, a, i)]: i for i in range(n.at[b][a])}
            row.append(component(m.at[b][a], n.at[b][a], tuple(
                local_n[assign[ids_m[(b, a, i)]]]
                for i in range(m.at[b][a]))))
        h.append(tuple(row))
    return from_components(m, n, tuple(h))


class TestProfIsoSearch:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_morphism_as_recursive_search(self, seed):
        """The search keeps its candidate order, so it returns the very
        morphism the recursive search found, or None with it."""
        rng = random.Random(400 + seed)
        found = 0
        for _ in range(12):
            a, b, c = rand_fincat(rng), rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            n = small_profunctor(rng, b, c)
            o = small_profunctor(rng, b, c)
            comp = prof_compose(n, m)
            for left, right in ((comp, prof_compose(n, prof_compose(
                    identity_module(b), m))),
                    (m, prof_compose(identity_module(b), m)),
                    (n, o)):
                got = prof_iso(left, right)
                assert got == recursive_prof_iso(left, right)
                found += got is not None
        assert found >= 24


# Reference implementations: the product searches that enumerated module
# morphisms and the families of a right lifting, and the per-equation
# checks of Profunctor and ProfMorphism, kept as a differential oracle.

def product_prof_maps(m, n):
    """Backtracking over value cells in tgt-major order; each candidate
    component is checked against every naturality equation whose other
    cell is already assigned."""
    a_cat, b_cat = m.src, m.tgt
    (m_at, m_lact, m_ract), (n_at, n_lact, n_ract) = as_maps(m), as_maps(n)
    order = [(b, a) for b in b_cat.objs for a in a_cat.objs]
    pos = {cell: i for i, cell in enumerate(order)}
    checks = [[] for _ in order]
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        for a in a_cat.objs:
            checks[max(pos[(b1, a)], pos[(b2, a)])].append(("l", beta, a))
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        for b in b_cat.objs:
            checks[max(pos[(b, a1)], pos[(b, a2)])].append(("r", alpha, b))
    assigned = {}

    def ok(i):
        for kind, mor, other in checks[i]:
            if kind == "l":
                b1, b2, a = b_cat.src(mor), b_cat.tgt(mor), other
                h1, h2 = assigned[(b1, a)], assigned[(b2, a)]
                if compose(h1, m_lact[mor][a]) != compose(n_lact[mor][a], h2):
                    return False
            else:
                a1, a2, b = a_cat.src(mor), a_cat.tgt(mor), other
                h1, h2 = assigned[(b, a1)], assigned[(b, a2)]
                if compose(h2, m_ract[mor][b]) != compose(n_ract[mor][b], h1):
                    return False
        return True

    def rec(i):
        if i == len(order):
            yield tuple(tuple(assigned[(b, a)] for a in a_cat.objs)
                        for b in b_cat.objs)
            return
        b, a = order[i]
        dom, cod = m_at[b][a], n_at[b][a]
        for table in itertools.product(range(cod.size), repeat=dom.size):
            assigned[order[i]] = FinSetMap(dom, cod, table)
            if ok(i):
                yield from rec(i + 1)
        assigned.pop(order[i], None)

    yield from rec(0)


def product_natural_families(n, u, s, k):
    """All families of maps n(y, s) -> u(y, k) natural in y, object by
    object over the product of each object's tables."""
    y_cat = n.tgt
    mors_at = [[] for _ in y_cat.objs]
    for psi in y_cat.mors:
        if not y_cat.is_identity(psi):
            mors_at[max(y_cat.src(psi), y_cat.tgt(psi))].append(psi)
    acc = []

    def rec(y):
        if y == y_cat.objects.size:
            yield tuple(acc)
            return
        for table in itertools.product(range(u.at[y][k]),
                                       repeat=n.at[y][s]):
            acc.append(table)
            if all(acc[y_cat.src(psi)][n.lact[psi][s][v]]
                   == u.lact[psi][k][acc[y_cat.tgt(psi)][v]]
                   for psi in mors_at[y]
                   for v in range(n.at[y_cat.tgt(psi)][s])):
                yield from rec(y + 1)
            acc.pop()

    yield from rec(0)


def typed(f, dom, cod):
    """Whether the table of f runs from dom to cod: a module holds the
    tables of its actions, which carry no codomain of their own, so an
    action is typed when its domain is and its values lie in cod."""
    return f.dom == dom and all(0 <= j < cod.size for j in f.table)


def reference_prof_violation(a_cat, b_cat, at, lact, ract):
    """The first (clause, message) the per-equation checks of a profunctor
    with these (well-shaped) tables raise, or None."""
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        for a in a_cat.objs:
            if not typed(lact[beta][a], at[b2][a], at[b1][a]):
                return ("prof-typing", f"left action of {beta} at {a} mistyped")
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        for b in b_cat.objs:
            if not typed(ract[alpha][b], at[b][a1], at[b][a2]):
                return ("prof-typing",
                        f"right action of {alpha} at {b} mistyped")
    for b in b_cat.objs:
        for a in a_cat.objs:
            if lact[b_cat.ident(b)][a] != identity(at[b][a]):
                return ("prof-ident",
                        f"left identity action fails at ({b}, {a})")
            if ract[a_cat.ident(a)][b] != identity(at[b][a]):
                return ("prof-ident",
                        f"right identity action fails at ({b}, {a})")
    for b1 in b_cat.mors:
        for b2 in b_cat.out_of(b_cat.tgt(b1)):
            for a in a_cat.objs:
                if (lact[b_cat.comp[b2][b1]][a]
                        != compose(lact[b1][a], lact[b2][a])):
                    return ("prof-comp",
                            f"left action not functorial on ({b2}, {b1})")
    for a1 in a_cat.mors:
        for a2 in a_cat.out_of(a_cat.tgt(a1)):
            for b in b_cat.objs:
                if (ract[a_cat.comp[a2][a1]][b]
                        != compose(ract[a2][b], ract[a1][b])):
                    return ("prof-comp",
                            f"right action not functorial on ({a2}, {a1})")
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        for alpha in a_cat.mors:
            a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
            if (compose(ract[alpha][b1], lact[beta][a1])
                    != compose(lact[beta][a2], ract[alpha][b2])):
                return ("prof-interchange",
                        f"actions of {beta} and {alpha} do not commute")
    return None


def reference_profmor_violation(m, n, h):
    """The first (clause, message) that building a morphism m => n of
    parallel modules from these tables raises, or None: a wrongly shaped
    ``h`` raises ``profmor-shape``; otherwise the tables are converted to
    ``FinSetMap``s, whose construction raises ``map-range``, and the maps
    are checked as morphisms checked them while they held maps.  (Across
    cells the checks come in another order: tables are typed cell by cell,
    the maps were all built before any was typed; a corpus that corrupts
    one cell cannot tell the two apart.)"""
    a_cat, b_cat = m.src, m.tgt
    if len(h) != b_cat.objects.size or any(len(row) != a_cat.objects.size
                                           for row in h):
        return ("profmor-shape", "one row of components per tgt object and "
                "one component per src object")
    try:
        components = as_components(n, h)
    except InvariantViolation as e:
        return (e.clause, str(e).removeprefix(f"{e.clause}: "))
    return reference_component_violation(m, n, components)


def reference_component_violation(m, n, h):
    """The first (clause, message) the per-equation checks of a morphism
    of parallel modules with these ``FinSetMap`` components raise, or
    None."""
    a_cat, b_cat = m.src, m.tgt
    (m_at, m_lact, m_ract), (n_at, n_lact, n_ract) = as_maps(m), as_maps(n)
    for b in b_cat.objs:
        for a in a_cat.objs:
            if not (h[b][a].dom == m_at[b][a] and h[b][a].cod == n_at[b][a]):
                return ("profmor-typing", f"component at ({b}, {a}) mistyped")
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        for a in a_cat.objs:
            if (compose(h[b1][a], m_lact[beta][a])
                    != compose(n_lact[beta][a], h[b2][a])):
                return ("profmor-natural",
                        f"left naturality fails at ({beta}, {a})")
    for alpha in a_cat.mors:
        a1, a2 = a_cat.src(alpha), a_cat.tgt(alpha)
        for b in b_cat.objs:
            if (compose(h[b][a2], m_ract[alpha][b])
                    != compose(n_ract[alpha][b], h[b][a1])):
                return ("profmor-natural",
                        f"right naturality fails at ({alpha}, {b})")
    return None


def rich_profunctor(rng, src, tgt):
    """A module with cells of up to four elements, most of them moved by
    the actions."""
    return rand_profunctor(rng, src, tgt, parts_max=3, const_max=3,
                           max_cell=4)


def family_space(n, u, s, k):
    """Size of the full product search for families n(-, s) -> u(-, k)."""
    total = 1
    for y in n.tgt.objs:
        total *= u.at[y][k] ** n.at[y][s]
    return total


def changed_entry(rng, f):
    """f with one entry moved to another point of its codomain."""
    table = list(f.table)
    i = rng.randrange(len(table))
    table[i] = rng.choice([v for v in f.cod.elements if v != table[i]])
    return FinSetMap(f.dom, f.cod, tuple(table))


def corrupted_prof_tables(rng, m):
    """m's tables with one value set grown by a point or one entry of one
    action changed, or None when m has nothing to change."""
    at, lact, ract = as_maps(m)
    at = [list(row) for row in at]
    acts = [[list(row) for row in lact], [list(row) for row in ract]]
    if at and at[0] and rng.random() < 0.2:
        b, a = rng.randrange(len(at)), rng.randrange(len(at[0]))
        at[b][a] = FinSetObj(at[b][a].size + 1)
    else:
        movable = [(side, i, j) for side, rows in enumerate(acts)
                   for i, row in enumerate(rows) for j, f in enumerate(row)
                   if f.dom.size and f.cod.size > 1]
        if not movable:
            return None
        side, i, j = rng.choice(movable)
        acts[side][i][j] = changed_entry(rng, acts[side][i][j])
    return (tuple(map(tuple, at)), tuple(map(tuple, acts[0])),
            tuple(map(tuple, acts[1])))


def expect_violation(want, build):
    """``build()`` raises exactly the clause and message ``want`` names,
    or succeeds when ``want`` is None."""
    if want is None:
        build()
        return
    with pytest.raises(InvariantViolation) as e:
        build()
    assert (e.value.clause, str(e.value)) == (want[0], f"{want[0]}: {want[1]}")


class TestNaturalMapsAgainstReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_enumerated_morphisms_match_product_search(self, seed):
        """The same morphisms in the same order, between unrelated
        parallel modules and from a module to itself."""
        rng = random.Random(600 + seed)
        counts = []
        while len(counts) < 30:
            a, b = rand_fincat(rng, max_objs=3), rand_fincat(rng, max_objs=3)
            m = rich_profunctor(rng, a, b)
            for n in (rich_profunctor(rng, a, b), m):
                if morphism_space(m, n) > 5000:
                    continue
                got = [mo.h for mo in enumerate_prof_morphisms(m, n)]
                assert got == list(map(tables, product_prof_maps(m, n)))
                counts.append(len(got))
        assert sum(c > 1 for c in counts) >= 5

    @pytest.mark.parametrize("seed", range(3))
    def test_lifting_families_match_product_search(self, seed):
        rng = random.Random(700 + seed)
        counts = []
        while len(counts) < 40:
            y = rand_fincat(rng)
            s, k = rand_fincat(rng, max_objs=2), rand_fincat(rng, max_objs=2)
            n, u = rich_profunctor(rng, s, y), rich_profunctor(rng, k, y)
            if any(family_space(n, u, so, ko) > 30000
                   for so in s.objs for ko in k.objs):
                continue
            fams = rif_mod_data(n, u).families
            for so in s.objs:
                for ko in k.objs:
                    want = tuple(product_natural_families(n, u, so, ko))
                    assert fams[so][ko] == want
                    counts.append(len(want))
        assert sum(c > 1 for c in counts) >= 5

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_profunctor_raises_the_same_violation(self, seed):
        rng = random.Random(800 + seed)
        seen, checked = set(), 0
        while checked < 60:
            a, b = rand_fincat(rng, max_objs=3), rand_fincat(rng, max_objs=3)
            tables = corrupted_prof_tables(rng, small_profunctor(rng, a, b))
            if tables is None:
                continue
            want = reference_prof_violation(a, b, *tables)
            expect_violation(want, lambda: tabled(a, b, *tables))
            seen.add(want and want[0])
            checked += 1
        assert seen >= {"prof-typing", "prof-ident", "prof-comp",
                        "prof-interchange"}

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_morphism_raises_the_same_violation(self, seed):
        """One component of an identity morphism grown by a point or
        with one entry changed, and the same component with its last
        entry moved just past either end of its target cell."""
        rng = random.Random(900 + seed)
        seen, checked = set(), 0
        while checked < 40:
            a, b = rand_fincat(rng, max_objs=3), rand_fincat(rng, max_objs=3)
            m = small_profunctor(rng, a, b)
            ident = prof_id(m).h
            cells = [(bo, ao) for bo in b.objs for ao in a.objs
                     if m.at[bo][ao] > 1]
            if not cells:
                continue
            bo, ao = rng.choice(cells)
            f = ident[bo][ao]
            if rng.random() < 0.2:
                corrupted = f + (0,)
            else:
                corrupted = changed_entry(rng, component(len(f), len(f),
                                                         f)).table
            outside = f[:-1] + ((-1, len(f))[checked % 2],)
            for g in (corrupted, outside):
                h = [list(row) for row in ident]
                h[bo][ao] = g
                h = tuple(map(tuple, h))
                want = reference_profmor_violation(m, m, h)
                expect_violation(want, lambda: ProfMorphism(m, m, h))
                seen.add(want and want[0])
            checked += 1
        assert seen >= {"profmor-typing", "profmor-natural", "map-range"}

    def test_a_misshapen_family_raises_profmor_shape(self):
        """A row missing, a component missing from a row, or a row too
        many: each raises ``profmor-shape`` before any table is read."""
        m = identity_module(discrete_cat(2))
        h = prof_id(m).h
        for bad in (h[:1], (h[0][:1],) + h[1:], h + ((),)):
            want = reference_profmor_violation(m, m, bad)
            assert want[0] == "profmor-shape"
            expect_violation(want, lambda: ProfMorphism(m, m, bad))


# The builders as they were before triples got integer ids and identities
# acted by construction, kept as a differential oracle: a union-find keyed
# by ((c, a), (b, x, y)) with a dict index per cell, and every action,
# identities included, moved element by element through lookups.

def reference_coend(n, m):
    """The coend composite with its classes and a dict index per cell."""
    a_cat, b_cat, c_cat = m.src, m.tgt, n.tgt
    uf = UnionFind()
    for b in b_cat.objs:
        over_m = [(a, x) for a in a_cat.objs for x in range(m.at[b][a])]
        over_n = [(c, y) for c in c_cat.objs for y in range(n.at[c][b])]
        for a, x in over_m:
            for c, y in over_n:
                uf.add(((c, a), (b, x, y)))
    for beta in b_cat.non_identities:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        lact, ract = m.lact[beta], n.ract[beta]
        for a in a_cat.objs:
            for x2 in range(m.at[b2][a]):
                x1 = lact[a][x2]
                for c in c_cat.objs:
                    for y1 in range(n.at[c][b1]):
                        uf.unite(((c, a), (b1, x1, y1)),
                                 ((c, a), (b2, x2, ract[c][y1])))
    cells = {(c, a): [] for c in c_cat.objs for a in a_cat.objs}
    for cls in uf.classes():
        cells[cls[0][0]].append([t for _, t in cls])
    index = {cell: {t: i for i, cls in enumerate(classes) for t in cls}
             for cell, classes in cells.items()}
    at = tuple(tuple(FinSetObj(len(cells[(c, a)])) for a in a_cat.objs)
               for c in c_cat.objs)

    def push(c_from, a_from, c_to, a_to, move):
        to = index[(c_to, a_to)]
        return FinSetMap(at[c_from][a_from], at[c_to][a_to], tuple(
            to[move(*cls[0])] for cls in cells[(c_from, a_from)]))

    lact = tuple(tuple(
        push(c_cat.tgt(g), a, c_cat.src(g), a,
             lambda b, x, y, g=n.lact[g]: (b, x, g[b][y]))
        for a in a_cat.objs) for g in c_cat.mors)
    ract = tuple(tuple(
        push(c, a_cat.src(al), c, a_cat.tgt(al),
             lambda b, x, y, r=m.ract[al]: (b, r[b][x], y))
        for c in c_cat.objs) for al in a_cat.mors)
    return tabled(a_cat, c_cat, at, lact, ract), cells, index


def reference_rif_mod_data(n, u):
    """The right lifting with every family moved along every morphism."""
    s_cat, k_cat, y_cat = n.src, u.src, n.tgt
    fams = tuple(tuple(tuple(modpoly._natural_families(n, u, s, k))
                       for k in k_cat.objs)
                 for s in s_cat.objs)
    index = tuple(tuple({f: i for i, f in enumerate(fams[s][k])}
                        for k in k_cat.objs)
                  for s in s_cat.objs)
    at = tuple(tuple(FinSetObj(len(fams[s][k])) for k in k_cat.objs)
               for s in s_cat.objs)
    lact = tuple(tuple(
        FinSetMap(at[s_cat.tgt(sigma)][k], at[s_cat.src(sigma)][k], tuple(
            index[s_cat.src(sigma)][k][tuple(
                tuple(fam[y][n.ract[sigma][y][v]]
                      for v in range(n.at[y][s_cat.src(sigma)]))
                for y in y_cat.objs)]
            for fam in fams[s_cat.tgt(sigma)][k]))
        for k in k_cat.objs) for sigma in s_cat.mors)
    ract = tuple(tuple(
        FinSetMap(at[s][k_cat.src(kappa)], at[s][k_cat.tgt(kappa)], tuple(
            index[s][k_cat.tgt(kappa)][tuple(
                tuple(u.ract[kappa][y][fam[y][v]]
                      for v in range(n.at[y][s]))
                for y in y_cat.objs)]
            for fam in fams[s][k_cat.src(kappa)]))
        for s in s_cat.objs) for kappa in k_cat.mors)
    return modpoly.RifModData(tabled(k_cat, s_cat, at, lact, ract), fams)


def reference_fiberwise_module(p, v):
    """The fiberwise sum with every element moved along every morphism."""
    s_cat, y_cat, k_cat = p.dom, p.cod, v.src
    cells, start = _fiber_cells(p, v)
    at = tuple(tuple(FinSetObj(len(cells[y][k])) for k in k_cat.objs)
               for y in y_cat.objs)

    def lifted(psi, k, s2, i):
        sigma = p.lifts(s2, psi)[0]
        return start[s_cat.src(sigma)][k] + v.lact[sigma][k][i]

    lact = tuple(tuple(
        FinSetMap(at[y_cat.tgt(psi)][k], at[y_cat.src(psi)][k], tuple(
            lifted(psi, k, s2, i) for s2, i in cells[y_cat.tgt(psi)][k]))
        for k in k_cat.objs) for psi in y_cat.mors)
    ract = tuple(tuple(
        FinSetMap(at[y][k_cat.src(kappa)], at[y][k_cat.tgt(kappa)], tuple(
            start[s][k_cat.tgt(kappa)] + v.ract[kappa][s][i]
            for s, i in cells[y][k_cat.src(kappa)]))
        for y in y_cat.objs) for kappa in k_cat.mors)
    return tabled(k_cat, y_cat, at, lact, ract)


def reference_polymod_parts(q, p):
    """The composite with a splitting family map per object of the
    tabulation and base object, its fibers read through the map's index."""
    c_cat, z_cat = q.X, p.S
    z = fibers(p.p)
    rd = reference_rif_mod_data(q.m, presheaf_as_module(z))
    tab = tabulate_mod(module_as_presheaf(rd.prof))
    y_cat = tab.cat
    split = [[FinSetMap(FinSetObj(q.m.at[c][t]), FinSetObj(z.at[c]),
                        rd.families[t][0][xi][c])
              for c in c_cat.objs] for t, xi in tab.objects_data]
    cells = [[split[yo][p.p.omap[zo]].fiber(p.p.over.fiber_position(zo))
              for yo in y_cat.objs] for zo in z_cat.objs]
    at = tuple(tuple(FinSetObj(len(cell)) for cell in row) for row in cells)
    lact = tuple(tuple(
        FinSetMap(at[z_cat.tgt(zeta)][yo], at[z_cat.src(zeta)][yo], tuple(
            split[yo][p.p.omap[z_cat.src(zeta)]].fiber_position(
                q.m.lact[p.p.mmap[zeta]][t][mu])
            for mu in cells[z_cat.tgt(zeta)][yo]))
        for yo, (t, _) in enumerate(tab.objects_data))
        for zeta in z_cat.mors)
    ract = tuple(tuple(
        FinSetMap(at[zo][y_cat.src(ym)], at[zo][y_cat.tgt(ym)], tuple(
            split[y_cat.tgt(ym)][p.p.omap[zo]].fiber_position(
                q.m.ract[phi][p.p.omap[zo]][mu])
            for mu in cells[zo][y_cat.src(ym)]))
        for zo in z_cat.objs)
        for ym, (phi, _) in enumerate(tab.morphisms_data))
    n = tabled(y_cat, z_cat, at, lact, ract)
    poly = ModPolynomial(p.X, q.Y, y_cat, reference_coend(p.m, n)[0],
                         compose_functors(q.p, tab.proj))
    return modpoly.PolymodParts(poly, z, rd, tab, n)


def structured_poly(rng, n):
    """|X| = |S| = |Y| = n, two directions per position, p the identity:
    embedded, a base of n^2 cells with few elements."""
    x, e = FinSetObj(n), FinSetObj(2 * n)
    return Polynomial(x, e, x, x,
                      FinSetMap(e, x, tuple(rng.randrange(n)
                                            for _ in range(2 * n))),
                      FinSetMap(e, x, tuple(i // 2 for i in range(2 * n))),
                      identity(x))


def ladder_pair(d):
    """The discrete ladder rung: y^d after y, embedded."""
    return (embed_poly(checks._monomial(d)), embed_poly(checks._monomial(1)))


def structured_pair(n):
    rng = random.Random(1100 + n)
    return embed_poly(structured_poly(rng, n)), embed_poly(
        structured_poly(rng, n))


class TestBuildersAgainstReference:
    """The coend over triple ids, and the builders whose identities act by
    construction, against the dict-keyed builders they replaced: equal
    classes, an equal triple-to-class map and equal modules."""

    def assert_same_coend(self, n, m):
        comp, cells, index = _coend(n, m)
        ref, ref_cells, ref_index = reference_coend(n, m)
        assert {cell: coend_classes(n, m, index, *cell)
                for cell in ref_cells} == ref_cells
        assert {(c, a): reps for c, row in enumerate(cells)
                for a, reps in enumerate(row)} == \
            {cell: [cls[0] for cls in classes]
             for cell, classes in ref_cells.items()}
        for (c, a), to in ref_index.items():
            assert {t: index(c, a, *t) for t in to} == to
        assert comp == ref

    @pytest.mark.parametrize("seed", range(2))
    def test_coend_pairs(self, seed):
        for n, m in coend_pairs(350 + seed):
            self.assert_same_coend(n, m)

    @pytest.mark.parametrize("d", (1, 3, 17, 64))
    def test_ladder(self, d):
        q, p = ladder_pair(d)
        parts = modpoly.polymod_parts(q, p)
        self.assert_same_coend(p.m, parts.n)
        assert parts == reference_polymod_parts(q, p)
        assert sum(map(sum, parts.poly.m.at)) == d

    @pytest.mark.parametrize("size", (1, 2, 3, 5, 8, 12))
    def test_embedded_structured_pairs(self, size):
        q, p = structured_pair(size)
        parts = modpoly.polymod_parts(q, p)
        self.assert_same_coend(p.m, parts.n)
        assert parts == reference_polymod_parts(q, p)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_composites(self, seed):
        rng = random.Random(1200 + seed)
        done = 0
        while done < 12:
            pair = rand_composable_modpolys(rng, tab_cap=20)
            if pair is None:
                continue
            p, q = pair
            parts = modpoly.polymod_parts(q, p)
            assert parts == reference_polymod_parts(q, p)
            done += 1

    @pytest.mark.parametrize("seed", range(3))
    def test_fiberwise_modules(self, seed):
        rng = random.Random(1300 + seed)
        for _ in range(8):
            y = rand_fincat(rng)
            k = rand_fincat(rng, max_objs=2)
            p = rand_dfib(rng, y)
            v = small_profunctor(rng, k, p.dom)
            assert fiberwise_module(p, v) == reference_fiberwise_module(p, v)


# The module builders as they were before every computed module went
# through ``modpoly._built``, kept as a differential oracle: the value,
# left and right action grids filled by hand, identity maps included,
# under checked construction.  ``embed_poly`` and ``span_as_prof`` above
# are the same references for ``checks``' discrete modules.

def reference_graph_module(f):
    a_cat, b_cat = f.dom, f.cod
    at = tuple(tuple(FinSetObj(len(b_cat.hom(b, f.omap[a])))
                     for a in a_cat.objs) for b in b_cat.objs)
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
    return tabled(a_cat, b_cat, at, lact, ract)


def reference_cograph_module(f):
    a_cat, b_cat = f.dom, f.cod
    at = tuple(tuple(FinSetObj(len(b_cat.hom(f.omap[a], b)))
                     for b in b_cat.objs) for a in a_cat.objs)
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
    return tabled(b_cat, a_cat, at, lact, ract)


def reference_prof_from_presheaf(a, b, psh):
    psh = presheaf_maps(psh)
    na, nma = a.objects.size, a.morphisms.size
    at = tuple(tuple(psh.at[bo * na + ao] for ao in a.objs) for bo in b.objs)
    lact = tuple(tuple(psh.act[beta * nma + a.ident(ao)] for ao in a.objs)
                 for beta in b.mors)
    ract = tuple(tuple(psh.act[b.ident(bo) * nma + alpha] for bo in b.objs)
                 for alpha in a.mors)
    return tabled(a, b, at, lact, ract)


def reference_presheaf_as_module(p):
    p = presheaf_maps(p)
    at = tuple((p.at[c],) for c in p.base.objs)
    lact = tuple((p.act[gamma],) for gamma in p.base.mors)
    ract = (tuple(identity(p.at[c]) for c in p.base.objs),)
    return tabled(terminal_cat(), p.base, at, lact, ract)


# The maps out of a coend as they were before ``modpoly._coend_map``: each
# one read its coend's classes by hand and checked the morphism it built.

def checked_whisker_left(n, cell):
    v, v2 = cell.source, cell.target
    left, cells, _ = _coend(n, v)
    right, _, index2 = _coend(n, v2)
    maps = as_components(v2, cell.h)
    return from_components(left, right, tuple(
        tuple(component(left.at[c][a], right.at[c][a], tuple(
            index2(c, a, b, maps[b][a](x), y)
            for b, x, y in cells[c][a]))
            for a in v.src.objs)
        for c in n.tgt.objs))


def checked_counit(n, u, data):
    comp, cells, _ = _coend(n, data.prof)
    fams = data.families
    return from_components(comp, u, tuple(
        tuple(component(comp.at[y][k], u.at[y][k], tuple(
            fams[s][k][x][y][t]
            for s, x, t in cells[y][k]))
            for k in u.src.objs)
        for y in u.tgt.objs))


def checked_collapse(p, v):
    fw = fiberwise_module(p, v)
    composite, cells, _ = _coend(graph_module(p), v)
    _, start = _fiber_cells(p, v)

    def collapse(y, k, s, x, gpos):
        sigma = p.lifts(s, p.cod.hom(y, p.omap[s])[gpos])[0]
        return start[p.dom.src(sigma)][k] + v.lact[sigma][k][x]

    return from_components(composite, fw, tuple(
        tuple(component(composite.at[y][k], fw.at[y][k], tuple(
            collapse(y, k, *rep) for rep in cells[y][k]))
            for k in v.src.objs)
        for y in p.cod.objs))


def reference_built(a_cat, b_cat, sizes, left, right):
    """``modpoly._built`` as it was while a module held one ``FinSetObj``
    per cell and one ``FinSetMap`` per action, cells of one size sharing
    one value set and one identity map, converted to tables."""
    sets = {k: FinSetObj(k) for k in set().union(*sizes)}
    ident = {k: identity(v) for k, v in sets.items()}
    at = tuple(tuple(sets[k] for k in row) for row in sizes)
    ids = tuple(tuple(ident[k] for k in row) for row in sizes)

    def lact(beta):
        b1, b2 = b_cat.src.table[beta], b_cat.tgt.table[beta]
        if b_cat.ident.table[b1] == beta:
            return ids[b1]
        return tuple(FinSetMap._trusted(at[b2][a], at[b1][a], table)
                     for a, table in enumerate(left(beta)))

    def ract(alpha):
        a1, a2 = a_cat.src.table[alpha], a_cat.tgt.table[alpha]
        if a_cat.ident.table[a1] == alpha:
            return tuple(row[a1] for row in ids)
        return tuple(FinSetMap._trusted(at[b][a1], at[b][a2], table)
                     for b, table in enumerate(right(alpha)))

    return Profunctor._trusted(a_cat, b_cat, *tables_of(
        at, tuple(map(lact, b_cat.mors)), tuple(map(ract, a_cat.mors))))


@pytest.mark.unchecked_trust  # equality with the reference is the check
class TestTablesAgainstMaps:
    """A module holds its cell sizes and action tables: every module the
    library builds equals the one the builder that held value sets and
    action maps gives, converted to tables."""

    @pytest.fixture
    def reference(self, monkeypatch):
        return lambda: monkeypatch.setattr(modpoly, "_built", reference_built)

    def test_the_benchmark_mod_compose_pairs(self, reference):
        """The 800 composable pairs of the mod-compose benchmark at seed
        0, with every module of their construction."""
        rng = random.Random("0:mod-compose")
        pairs = []
        while len(pairs) < 800:
            pair = rand_composable_modpolys(rng, tab_cap=20)
            if pair is not None:
                pairs.append(pair)
        got = [modpoly.polymod_parts(q, p) for p, q in pairs]
        reference()
        assert [modpoly.polymod_parts(q, p) for p, q in pairs] == got

    @pytest.mark.parametrize("n", (25, 50, 100, 200))
    def test_wide_discrete_series(self, reference, n):
        """``structured_pair(n)``, embedded by ``checks``: the loop of the
        reference ``embed_poly`` is cubic in n."""
        rng = random.Random(1100 + n)
        q, p = (checks.embed_poly(structured_poly(rng, n)) for _ in "qp")
        got = modpoly.polymod_parts(q, p)
        reference()
        assert modpoly.polymod_parts(q, p) == got

    def test_rand_profunctor_draws(self, reference):
        rng = random.Random(1440)
        cases = [(rand_fincat(rng), rand_fincat(rng), rng.random())
                 for _ in range(60)]
        got = [rand_profunctor(random.Random(r), a, b) for a, b, r in cases]
        reference()
        assert [rand_profunctor(random.Random(r), a, b)
                for a, b, r in cases] == got
        assert any(map(max_cell, got))


class TestModuleBuildersAgainstReference:
    """Every computed module goes through ``_built``: the graph, cograph,
    presheaf and discrete modules against the hand-filled, checked
    builders they replaced, on seeded draws."""

    @pytest.mark.parametrize("seed", range(3))
    def test_graph_and_cograph_modules(self, seed):
        rng = random.Random(1400 + seed)
        done, kinds = 0, set()
        while done < 25:
            a, b = rand_fincat(rng), rand_fincat(rng)
            f = rand_functor(rng, a, b)
            if f is None:
                continue
            assert graph_module(f) == reference_graph_module(f)
            assert cograph_module(f) == reference_cograph_module(f)
            assert identity_module(b) == \
                reference_graph_module(identity_functor(b))
            kinds.add("non-discrete" if a.non_identities or b.non_identities
                      else "discrete")
            done += 1
        assert kinds == {"discrete", "non-discrete"}

    @pytest.mark.parametrize("seed", range(3))
    def test_presheaf_modules(self, seed):
        rng = random.Random(1410 + seed)
        for _ in range(15):
            a, b = rand_fincat(rng), rand_fincat(rng)
            psh = rand_presheaf(rng, product_cat(b, opposite_cat(a)))
            assert prof_from_presheaf(a, b, psh) == \
                reference_prof_from_presheaf(a, b, psh)
            p = rand_presheaf(rng, b)
            assert presheaf_as_module(p) == reference_presheaf_as_module(p)

    @pytest.mark.parametrize("seed", range(3))
    def test_rand_profunctor_draws(self, seed, monkeypatch):
        """The same seeded draws, with the generator's unpacking of its
        presheaf swapped for the reference."""
        rng = random.Random(1420 + seed)
        cases = [(rand_fincat(rng), rand_fincat(rng), rng.random())
                 for _ in range(15)]
        built = [rand_profunctor(random.Random(r), a, b)
                 for a, b, r in cases]
        unpacked = []

        def reference(a, b, psh):
            unpacked.append(psh)
            return reference_prof_from_presheaf(a, b, psh)

        monkeypatch.setattr(modpoly, "_prof_from_presheaf", reference)
        assert built == [rand_profunctor(random.Random(r), a, b)
                         for a, b, r in cases]
        assert len(unpacked) >= len(cases)

    @pytest.mark.parametrize("seed", range(3))
    def test_discrete_modules(self, seed):
        rng = random.Random(1430 + seed)
        for _ in range(20):
            x, y = FinSetObj(rng.randint(0, 4)), FinSetObj(rng.randint(0, 4))
            p = rand_poly(rng, x, y)
            assert checks.embed_poly(p) == embed_poly(p)
            s = rand_span(rng, FinSetObj(rng.randint(0, 3)),
                          FinSetObj(rng.randint(0, 3)))
            assert checks.span_as_prof(s) == span_as_prof(s)


def free_elements(sizes, squares):
    """How many elements of the first side no square leaves."""
    left = {c1 for c1, _, _, _ in squares}
    return sum(k for c, k in enumerate(sizes) if c not in left)


class TestFreeElements:
    """An element that no naturality square leaves skips the closure of
    the search: the maps it finds, and their order, stay those of the
    product search and of the recursive isomorphism search."""

    @pytest.mark.parametrize("seed", range(3))
    def test_lifting_families(self, seed):
        rng = random.Random(1400 + seed)
        mixed = cases = 0
        while cases < 30:
            y = rand_fincat(rng)
            s, k = rand_fincat(rng, max_objs=2), rand_fincat(rng, max_objs=2)
            n, u = rich_profunctor(rng, s, y), rich_profunctor(rng, k, y)
            for so in s.objs:
                for ko in k.objs:
                    if family_space(n, u, so, ko) > 30000:
                        continue
                    squares = [(y.tgt(psi), y.src(psi), n.lact[psi][so],
                                u.lact[psi][ko])
                               for psi in y.non_identities]
                    sizes = [n.at[yo][so] for yo in y.objs]
                    free = free_elements(sizes, squares)
                    if not free:
                        continue
                    got = tuple(modpoly._natural_families(n, u, so, ko))
                    assert got == tuple(product_natural_families(n, u, so,
                                                                 ko))
                    mixed += 0 < free < sum(sizes) and len(got) > 1
                    cases += 1
        assert mixed >= 3

    @pytest.mark.parametrize("seed", range(3))
    def test_isomorphisms(self, seed):
        rng = random.Random(1500 + seed)
        found = mixed = cases = 0
        while cases < 12 or not mixed:
            a, b = rand_fincat(rng), rand_fincat(rng)
            m = small_profunctor(rng, a, b)
            moved = {(b.tgt(beta), ao) for beta in b.non_identities
                     for ao in a.objs}
            moved |= {(bo, a.src(alpha)) for alpha in a.non_identities
                      for bo in b.objs}
            free = sum(m.at[bo][ao] for bo in b.objs for ao in a.objs
                       if (bo, ao) not in moved)
            if not free:
                continue
            for right in (prof_compose(identity_module(b), m),
                          prof_compose(m, identity_module(a)),
                          small_profunctor(rng, a, b)):
                got = prof_iso(m, right)
                assert got == recursive_prof_iso(m, right)
                found += got is not None
            mixed += free < sum(map(sum, m.at))
            cases += 1
        assert found >= 24


class CountedProducts:
    """Stands in for ``itertools`` in ``fincat``, counting the products
    over at least one element that the search for natural maps lists."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *pools):
        self.calls += bool(pools)
        return itertools.product(*pools)


@pytest.fixture
def products(monkeypatch):
    counted = CountedProducts()
    monkeypatch.setattr(fincat, "itertools", counted)
    return counted


def arrow_module(base, sizes, table):
    """The module out of the terminal category of the presheaf on a
    category whose one non-identity arrow 2 acts by ``table``."""
    return presheaf_as_module(Presheaf(base, sizes, (
        tuple(range(sizes[0])), tuple(range(sizes[1])), table)))


class TestFreeTail:
    """Past the last element that a square leaves, the search lists the
    elements it has not assigned as one product: the families, and their
    order, stay those of the product search."""

    def assert_product_order(self, n, u):
        for so in n.src.objs:
            for ko in u.src.objs:
                assert tuple(modpoly._natural_families(n, u, so, ko)) == \
                    tuple(product_natural_families(n, u, so, ko))

    @pytest.mark.parametrize("d", (1, 3, 17, 64))
    def test_ladder(self, d, products):
        q, p = ladder_pair(d)
        self.assert_product_order(q.m, presheaf_as_module(fibers(p.p)))
        assert products.calls == q.m.src.objects.size

    @pytest.mark.parametrize("size", (1, 2, 3, 5, 8))
    def test_embedded_discrete_pairs(self, size, products):
        q, p = structured_pair(size)
        self.assert_product_order(q.m, presheaf_as_module(fibers(p.p)))
        assert products.calls > 0

    def test_bound_head_then_free_tail(self, products):
        """The arrow leaves cell 0 and fixes two of the four elements of
        cell 1; the other two are free, between and after them."""
        base = opposite_cat(ordinal2())
        n = arrow_module(base, (2, 4), (1, 3))
        u = arrow_module(base, (2, 3), (0, 2))
        assert len(tuple(modpoly._natural_families(n, u, 0, 0))) == 4 * 3 * 3
        self.assert_product_order(n, u)
        assert products.calls == 2 * 4  # once per head, in each search

    def test_free_elements_before_bound_ones(self, products):
        """The arrow leaves the last cell, so no element lies past it and
        the free elements of cell 0 are guessed one by one."""
        base = ordinal2()
        n = arrow_module(base, (4, 2), (1, 3))
        u = arrow_module(base, (3, 2), (0, 2))
        assert len(tuple(modpoly._natural_families(n, u, 0, 0))) == 4 * 3 * 3
        self.assert_product_order(n, u)
        assert products.calls == 0


@pytest.fixture(scope="module")
def wide_point():
    """The one-point presheaf on a discrete category of 1200 objects."""
    return constant_presheaf(discrete_cat(1200), 1)


def at_default_recursion_limit(fn, *args):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


class TestWideBaseAtTheDefaultRecursionLimit:
    """Over 1200 objects each of these once searched with one nested call
    per object and overflowed the stack."""

    def test_tabulate_mod(self, wide_point):
        tab = at_default_recursion_limit(tabulate_mod, wide_point)
        assert tab.cat.objects.size == 1200
        assert fibers(tab.proj) == wide_point

    def test_rif_mod(self, wide_point):
        m = presheaf_as_module(wide_point)
        r = at_default_recursion_limit(rif_mod, m, m)
        assert r.at == ((1,),)


class TestRifMod:
    def test_identity_lifter_recovers_target(self):
        """Lifting through the identity module is the target itself."""
        rng = random.Random(45)
        for _ in range(8):
            y = rand_fincat(rng)
            k = rand_fincat(rng, max_objs=2)
            u = small_profunctor(rng, k, y)
            r = rif_mod(identity_module(y), u)
            assert prof_iso(r, u) is not None

    def test_discrete_section_counts(self):
        rng = random.Random(46)
        for _ in range(10):
            ns, ny, nk = (rng.randint(1, 3) for _ in range(3))
            n = discrete_prof(ns, ny, [[rng.randint(0, 2) for _ in range(ns)]
                                       for _ in range(ny)])
            u = discrete_prof(nk, ny, [[rng.randint(0, 2) for _ in range(nk)]
                                       for _ in range(ny)])
            r = rif_mod(n, u)
            for s in range(ns):
                for k in range(nk):
                    want = 1
                    for y in range(ny):
                        want *= u.at[y][k] ** n.at[y][s]
                    assert r.at[s][k] == want

    def test_empty_lifter_gives_singletons(self):
        o2 = ordinal2()
        n = Profunctor(terminal_cat(), o2, ((0,), (0,)),
                       (((),), ((),), ((),)), (((), ()),))
        u = presheaf_as_module(representable(o2, 1))
        r = rif_mod(n, u)
        assert r.at == ((1,),)

    @pytest.mark.unchecked_trust
    def test_counit_checks_a_callers_data(self):
        """``data`` from another target with the same boundaries is
        checked: out of range it raises ``map-range``, in range but not
        natural ``profmor-natural``; no non-natural counit is returned.
        Unmarked, the test suite's re-check of ``_trusted`` would raise
        those clauses whatever the counit checks itself."""
        rng = random.Random(5)
        clauses = []
        for _ in range(60):
            y, s = rand_fincat(rng, 2, 6), rand_fincat(rng, 2, 6)
            k = rand_fincat(rng, 2, 4)
            n = rand_profunctor(rng, s, y, parts_max=1, max_cell=2)
            u, u2 = (rand_profunctor(rng, k, y, parts_max=1, max_cell=2)
                     for _ in range(2))
            try:
                counit = rif_mod_counit(n, u, rif_mod_data(n, u2))
            except InvariantViolation as e:
                clauses.append(e.clause)
                continue
            counit.__post_init__()
        assert set(clauses) == {"map-range", "profmor-natural"}

    def test_counit_and_transpose_bijection(self):
        """Morphisms v => rif(n, u) correspond to morphisms n∘v => u by
        whiskering and the evaluation counit."""
        rng = random.Random(47)
        done = 0
        while done < 4:
            y = rand_fincat(rng, max_objs=2, max_mors=6)
            k = terminal_cat()
            s = rand_fincat(rng, max_objs=2, max_mors=6)
            n = small_profunctor(rng, s, y, cap=1)
            u = small_profunctor(rng, k, y, cap=1)
            v = small_profunctor(rng, k, s, cap=1)
            data = rif_mod_data(n, u)
            if max_cell(data.prof) > 3:
                continue
            if morphism_space(v, data.prof) > 5000:
                continue
            counit = rif_mod_counit(n, u, data)
            into_rif = list(enumerate_prof_morphisms(v, data.prof))
            nv = prof_compose(n, v)
            into_u = list(enumerate_prof_morphisms(nv, u))
            images = set()
            for psi in into_rif:
                t = prof_vcomp(counit, prof_whisker_left(n, psi))
                images.add(t.h)
            assert len(images) == len(into_rif)
            assert images == {mo.h for mo in into_u}
            done += 1


class TestTabulate:
    def test_representable_tabulates_to_slice(self):
        o2 = ordinal2()
        u = representable(o2, 1)
        tab = tabulate_mod(u)
        # two points over the base: the arrow and the upper identity
        assert tab.cat.objects.size == 2
        assert is_discrete_fibration(tab.proj)
        assert fibers(tab.proj) == u

    def test_constant_singleton_recovers_base(self):
        c = preorder_cat(3, [(0, 1), (1, 2)])
        u = constant_presheaf(c, 1)
        tab = tabulate_mod(u)
        assert tab.cat.objects.size == c.objects.size
        assert tab.cat.morphisms.size == c.morphisms.size
        assert fibers(tab.proj) == u

    def test_empty_presheaf(self):
        o2 = ordinal2()
        u = constant_presheaf(o2, 0)
        tab = tabulate_mod(u)
        assert tab.cat.objects.size == 0
        assert fibers(tab.proj) == u

    def test_witness_matches_fibers(self):
        rng = random.Random(48)
        for _ in range(10):
            c = rand_fincat(rng)
            u = rand_presheaf(rng, c)
            tab = tabulate_mod(u)
            assert presheaf_iso(fibers(tab.proj), u) is not None
            assert fibers(tab.proj) == u


class TestFiberwise:
    def test_collapse_agrees_with_coend(self):
        rng = random.Random(49)
        done = 0
        while done < 10:
            y = rand_fincat(rng)
            k = rand_fincat(rng, max_objs=2)
            p = rand_dfib(rng, y)
            v = small_profunctor(rng, k, p.dom)
            dc = dfib_collapse(p, v)
            assert dc.compare.is_invertible
            other = prof_compose(graph_module(p), v)
            assert prof_iso(other, dc.fiberwise) is not None
            done += 1

    def test_fiberwise_sizes_are_fiber_sums(self):
        rng = random.Random(50)
        y = rand_fincat(rng)
        p = rand_dfib(rng, y)
        k = terminal_cat()
        v = small_profunctor(rng, k, p.dom)
        fw = fiberwise_module(p, v)
        for yo in y.objs:
            want = sum(v.at[s][0] for s in p.dom.objs
                       if p.omap[s] == yo)
            assert fw.at[yo][0] == want


class TestComposePolymod:
    def test_identity_composite_is_identity_shaped(self):
        o2 = ordinal2()
        one = identity_polymod(o2)
        parts, wrong = checks.witnessed_parts(one, one)
        assert wrong == []
        assert prof_iso(parts.poly.m, identity_module(o2)) is not None
        assert parts.poly.p.omap == (0, 1)

    def test_boundary_mismatch_rejected(self):
        with pytest.raises(InvariantViolation, match="polymod-compose"):
            compose_polymod(identity_polymod(ordinal2()),
                            identity_polymod(terminal_cat()))

    @pytest.mark.usefixtures("witnessed_composites")
    def test_identity_absorbs_on_either_side(self):
        """Composing with the identity polynomial changes nothing that the
        hom-action can see."""
        rng = random.Random(51)
        one = terminal_cat()
        done = 0
        while done < 6:
            case = rand_hk_case(rng)
            if case is None:
                continue
            k, p, q, u = case
            left = compose_polymod(identity_polymod(p.Y), p)
            assert left.X == p.X and left.Y == p.Y
            a = hK_mod(k, left, u)
            b = hK_mod(k, p, u)
            assert prof_iso(a, b) is not None
            right = compose_polymod(p, identity_polymod(p.X))
            c = hK_mod(k, right, u)
            assert prof_iso(c, b) is not None
            done += 1

    def test_square_witness_recomputable(self):
        rng = random.Random(52)
        pair = None
        while pair is None:
            pair = rand_composable_modpolys(rng)
        p, q = pair
        parts, wrong = checks.witnessed_parts(q, p)
        assert wrong == []
        lhs = prof_compose(graph_module(p.p), parts.n)
        rhs = prof_compose(q.m, graph_module(parts.tab.proj))
        assert prof_iso(lhs, rhs) is not None

    def test_a_failed_witness_is_reported_with_its_case(self, monkeypatch):
        """The module suites report a composite that fails its square as
        a failure naming the case and its data; they do not raise."""
        monkeypatch.setattr(checks, "prof_iso", lambda m, n: None)
        for suite in ("mod-h-pseudofunctor", "discrete-reduction"):
            report = checks.run_suite(suite, seed=0, count=2)
            square = [f for f in report.failures if "square" in f]
            assert report.count == 2 and len(square) >= 2, report
            assert square[0].startswith("case 0: the induced module")
            assert "p={" in square[0] and "q={" in square[0]

    @pytest.mark.unchecked_trust
    def test_a_lawless_built_module_is_reported(self, monkeypatch):
        """The module suites re-check the laws of the modules a composite
        is built from: a composite lifter whose identity action swaps two
        elements is reported as a failure of its case."""
        real = checks.polymod_parts

        def corrupted(q, p):
            parts = real(q, p)
            m = parts.poly.m
            cells = [(b, a) for b in m.tgt.objs for a in m.src.objs
                     if m.at[b][a] > 1]
            if not cells:
                return parts
            b, a = cells[0]
            swap = (1, 0) + tuple(range(2, m.at[b][a]))
            lact = list(map(list, m.lact))
            lact[m.tgt.ident(b)][a] = swap
            bad = Profunctor._trusted(m.src, m.tgt, m.at,
                                      tuple(map(tuple, lact)), m.ract)
            poly = ModPolynomial._trusted(parts.poly.X, parts.poly.Y,
                                          parts.poly.S, bad, parts.poly.p)
            return modpoly.PolymodParts(poly, parts.z, parts.rif, parts.tab,
                                        parts.n)

        monkeypatch.setattr(checks, "polymod_parts", corrupted)
        report = checks.run_suite("discrete-reduction", seed=0, count=10)
        lawless = [f for f in report.failures if "lifter is not" in f]
        assert lawless, report
        assert "prof-ident" in lawless[0] and "p={" in lawless[0]

    @pytest.mark.usefixtures("witnessed_composites")
    @pytest.mark.parametrize("d,k", [(1200, 1), (40, 3)])
    def test_long_monomial_at_the_default_recursion_limit(self, d, k):
        """y^d after y^k is y^(dk): one position with d·k directions
        (Gambino & Kock's |S'| = Σ_s Π_{e over s} |p⁻¹(m1 e)| = 1).  At
        d = 1200 the square check's isomorphism search once recursed once
        per element and overflowed the stack."""
        def monomial(n):
            one, e = FinSetObj(1), FinSetObj(n)
            return Polynomial(one, e, one, one, FinSetMap(e, one, (0,) * n),
                              FinSetMap(e, one, (0,) * n), identity(one))

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            comp = compose_polymod(embed_poly(monomial(d)),
                                   embed_poly(monomial(k)))
        finally:
            sys.setrecursionlimit(limit)
        assert comp.S.objects.size == 1
        assert comp.m.at[0][0] == d * k

    @pytest.mark.usefixtures("witnessed_composites")
    def test_discrete_reduction_matches_set_composition(self):
        rng = random.Random(53)
        for _ in range(10):
            x = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            z = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, y, smax=3, emax=2)
            q = rand_poly(rng, y, z, smax=3, emax=2)
            direct = compose_poly(q, p)
            lifted = compose_polymod(embed_poly(q), embed_poly(p))
            assert are_isomorphic_poly(decode_poly(lifted), direct)


class TestHKMod:
    def test_identity_polynomial_acts_trivially(self):
        rng = random.Random(54)
        for _ in range(8):
            x = rand_fincat(rng)
            k = rand_fincat(rng, max_objs=2)
            u = small_profunctor(rng, k, x)
            out = hK_mod(k, identity_polymod(x), u)
            assert prof_iso(out, u) is not None

    def test_both_routes_agree(self):
        rng = random.Random(55)
        done = 0
        while done < 15:
            case = rand_hk_case(rng)
            if case is None:
                continue
            k, p, q, u = case
            a = hK_mod(k, p, u)
            b = hK_mod_via_lifting(k, p, u)
            assert prof_iso(a, b) is not None
            done += 1

    @pytest.mark.usefixtures("witnessed_composites")
    def test_pseudofunctorial_through_composites(self):
        rng = random.Random(56)
        done = 0
        while done < 12:
            case = rand_hk_case(rng)
            if case is None:
                continue
            k, p, q, u = case
            qp = compose_polymod(q, p)
            lhs = hK_mod(k, qp, u)
            rhs = hK_mod(k, q, hK_mod(k, p, u))
            assert prof_iso(lhs, rhs) is not None
            done += 1

    def test_terminal_k_counts_natural_families(self):
        """Over the one-object shape the action computes, fiber by fiber,
        the number of natural families out of each lifter column."""
        rng = random.Random(57)
        one = terminal_cat()
        done = 0
        while done < 8:
            y = rand_fincat(rng)
            x = rand_fincat(rng)
            p = rand_modpoly(rng, x, y, max_cell=2)
            u = small_profunctor(rng, one, x)
            out = hK_mod(one, p, u)
            for yo in y.objs:
                want = sum(naive_nat_count(p.m, u, s, 0)
                           for s in p.S.objs if p.p.omap[s] == yo)
                assert out.at[yo][0] == want
            done += 1

    def test_discrete_reduction_matches_span_action(self):
        rng = random.Random(58)
        for _ in range(10):
            x = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            kset = FinSetObj(rng.randint(1, 2))
            p = rand_poly(rng, x, y, smax=3, emax=2)
            apex = FinSetObj(rng.randint(0, 4))
            u_span = Span(kset, x, apex,
                          FinSetMap(apex, kset,
                                    tuple(rng.randrange(kset.size)
                                          for _ in apex.elements)),
                          FinSetMap(apex, x,
                                    tuple(rng.randrange(x.size)
                                          for _ in apex.elements)))
            out_span = hK_span(kset, p, u_span)
            out_mod = hK_mod(discrete_cat(kset.size), embed_poly(p),
                             span_as_prof(u_span))
            for yo in range(y.size):
                for ko in range(kset.size):
                    want = sum(1 for v in out_span.apex.elements
                               if out_span.left_leg(v) == ko
                               and out_span.right_leg(v) == yo)
                    assert out_mod.at[yo][ko] == want


def reference_decompose_cotensor(m, a):
    """The hand-filled, checked decomposition the builder replaced."""
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
    return m0, m1, from_components(m0, m1, tuple(
        tuple(component(m0.at[ao][k], m1.at[ao][k],
                        m.lact[2 * nma + a.ident(ao)][k]) for k in k_cat.objs)
        for ao in a.objs))


def reference_build_cotensor(m0, m1, theta):
    """The hand-filled, checked reassembly the builder replaced."""
    a, k_cat = m0.tgt, m0.src
    cot, _ = cotensor2_mod(a)
    na, nma = a.objects.size, a.morphisms.size
    ends, theta_maps = (m0, m1), as_components(m1, theta.h)
    at = tuple(tuple(ends[o // na].at[o % na][k] for k in k_cat.objs)
               for o in cot.objs)
    lact = []
    for mi in cot.mors:
        j, alpha = mi // nma, mi % nma
        if j < 2:
            lact.append(tuple(ends[j].lact[alpha][k] for k in k_cat.objs))
        else:
            lact.append(tuple(tuple(m1.lact[alpha][k][i]
                                    for i in theta_maps[a.tgt(alpha)][k].table)
                              for k in k_cat.objs))
    ract = tuple(tuple(ends[o // na].ract[kappa][o % na] for o in cot.objs)
                 for kappa in k_cat.mors)
    return Profunctor(k_cat, cot, at, tuple(lact), ract)


class TestCotensor:
    def test_terminal_base_gives_opposite_arrow(self):
        cot, c = cotensor2_mod(terminal_cat())
        assert cot.objects.size == 2
        assert cot.morphisms.size == 3
        # the one non-identity arrow runs from the 1-end to the 0-end
        assert cot.src(2) == 1 and cot.tgt(2) == 0
        assert c.at == ((1, 1),)

    def test_discrete_base_gives_disjoint_copies(self):
        a = discrete_cat(3)
        cot, _ = cotensor2_mod(a)
        classes = pi0_classes(cot)
        assert len(classes) == 3
        assert all(len(cls) == 2 for cls in classes)

    def test_roundtrips_both_ways(self):
        rng = random.Random(59)
        done = 0
        while done < 12:
            a = rand_fincat(rng, max_objs=2, max_mors=6)
            k = rand_fincat(rng, max_objs=2, max_mors=6)
            cot, _ = cotensor2_mod(a)
            m = small_profunctor(rng, k, cot)
            m0, m1, theta = decompose_cotensor_module(m, a)
            assert (m0, m1, theta) == reference_decompose_cotensor(m, a)
            assert build_cotensor_module(m0, m1, theta) == m
            assert reference_build_cotensor(m0, m1, theta) == m
            m0b, m1b, thetab = decompose_cotensor_module(
                build_cotensor_module(m0, m1, theta), a)
            assert (m0b, m1b, thetab) == (m0, m1, theta)
            done += 1


class TestPshOnDfib:
    def test_composite_with_dfib_is_plain_composition(self):
        rng = random.Random(60)
        done = 0
        while done < 8:
            e = rand_fincat(rng)
            g = rand_dfib(rng, e)
            r = rand_dfib(rng, g.dom)
            out = psh_on_dfib(g, r)
            assert out.cod == e
            assert presheaf_iso(fibers(out),
                                fibers(compose_functors(g, r))) is not None
            done += 1

    def test_groupoid_collapses_to_components(self):
        z2 = monoid_cat(((0, 1), (1, 0)), 0)
        bang = constant_functor(z2, terminal_cat(), 0)
        out = psh_on_dfib(bang, identity_functor(z2))
        assert fibers(out).at == (1,)

    def test_discrete_counts_objects(self):
        d3 = discrete_cat(3)
        bang = constant_functor(d3, terminal_cat(), 0)
        out = psh_on_dfib(bang, identity_functor(d3))
        assert fibers(out).at == (3,)

    def test_yoneda_slice_pushes_to_representable(self):
        """Pushing the slice over an element forward along the projection
        lands on the representable at its base point."""
        rng = random.Random(61)
        done = 0
        while done < 5:
            x = rand_fincat(rng)
            psh = rand_presheaf(rng, x)
            el = elements(psh)
            if el.cat.objects.size == 0:
                continue
            e = rng.randrange(el.cat.objects.size)
            slice_cat = comma(identity_functor(el.cat),
                              constant_functor(terminal_cat(), el.cat, e))
            out = psh_on_dfib(el.proj, slice_cat.proj1)
            want = representable(x, el.proj.omap[e])
            assert presheaf_iso(fibers(out), want) is not None
            done += 1

    def test_pullback_square_exchanges_pushforwards(self):
        """For a strict pullback of a discrete fibration, pushing over the
        top then down equals pushing down then over the bottom."""
        rng = random.Random(62)
        done = 0
        while done < 6:
            xcat = rand_fincat(rng)
            ycat = rand_fincat(rng)
            g = rand_functor(rng, ycat, xcat)
            if g is None:
                continue
            p = rand_dfib(rng, xcat)
            fobjs = [(a, d) for a in ycat.objs for d in p.dom.objs
                     if g.omap[a] == p.omap[d]]
            fmors = [(al, dl) for al in ycat.mors for dl in p.dom.mors
                     if g.mmap[al] == p.mmap[dl]]
            oindex = {o: i for i, o in enumerate(fobjs)}
            mindex = {m: i for i, m in enumerate(fmors)}
            o = FinSetObj(len(fobjs))
            m = FinSetObj(len(fmors))
            src = FinSetMap(m, o, tuple(
                oindex[(ycat.src(al), p.dom.src(dl))] for al, dl in fmors))
            tgt = FinSetMap(m, o, tuple(
                oindex[(ycat.tgt(al), p.dom.tgt(dl))] for al, dl in fmors))
            ident = FinSetMap(o, m, tuple(
                mindex[(ycat.ident(a), p.dom.ident(d))] for a, d in fobjs))
            comp = tuple(tuple(
                mindex[(ycat.comp[fmors[gi][0]][fmors[fi][0]],
                        p.dom.comp[fmors[gi][1]][fmors[fi][1]])]
                if tgt(fi) == src(gi) else -1
                for fi in range(len(fmors))) for gi in range(len(fmors)))
            fcat = FinCat(o, m, src, tgt, ident, comp)
            top = Functor(fcat, p.dom, tuple(d for _, d in fobjs),
                          tuple(dl for _, dl in fmors))
            down = Functor(fcat, ycat, tuple(a for a, _ in fobjs),
                           tuple(al for al, _ in fmors))
            assert is_discrete_fibration(down)
            r = rand_dfib(rng, fcat)
            path1 = compose_functors(p, psh_on_dfib(top, r))
            path2 = psh_on_dfib(g, compose_functors(down, r))
            assert presheaf_iso(fibers(path1), fibers(path2)) is not None
            done += 1


class TestKleisliCorrespondence:
    def test_module_and_fiberwise_iso_sets_biject(self):
        """The iso-set between a composite through a point and a lifted
        fiber module matches the iso-set of the collapsed presheaf forms,
        transported through the two canonical comparisons."""
        rng = random.Random(63)
        done = 0
        while done < 4:
            c = rand_fincat(rng, max_objs=2, max_mors=6)
            b = rand_fincat(rng, max_objs=2, max_mors=6)
            m = small_profunctor(rng, b, c, cap=2)
            b0 = rng.randrange(b.objects.size)
            t = constant_functor(terminal_cat(), b, b0)
            pz = rand_dfib(rng, c)
            h = small_profunctor(rng, terminal_cat(), pz.dom, cap=2)
            a1 = prof_compose(m, graph_module(t))
            a2 = prof_compose(graph_module(pz), h)
            if max_cell(a1) > 3 or max_cell(a2) > 3:
                continue
            if morphism_space(a1, a2) > 20000:
                continue
            # canonical collapse of a1 onto the column of m at b0
            b1_prof = Profunctor(
                terminal_cat(), c,
                tuple((m.at[co][b0],) for co in c.objs),
                tuple((m.lact[gamma][b0],) for gamma in c.mors),
                (tuple(tuple(range(m.at[co][b0])) for co in c.objs),))
            _, cells, _ = _coend(m, graph_module(t))
            cy_h = []
            for co in c.objs:
                table = []
                for bmid, gpos, xval in cells[co][0]:
                    gamma = b.hom(bmid, b0)[gpos]
                    table.append(m.ract[gamma][co][xval])
                cy_h.append((component(a1.at[co][0], b1_prof.at[co][0],
                                       tuple(table)),))
            cy = from_components(a1, b1_prof, tuple(cy_h))
            assert cy.is_invertible
            dc = dfib_collapse(pz, h)
            theta_set = [mo for mo in enumerate_prof_morphisms(a1, a2)
                         if mo.is_invertible]
            phi_set = [mo for mo in
                       enumerate_prof_morphisms(b1_prof, dc.fiberwise)
                       if mo.is_invertible]
            transported = set()
            for theta in theta_set:
                phi = prof_vcomp(dc.compare,
                                 prof_vcomp(theta, prof_invert(cy)))
                transported.add(phi.h)
            assert len(transported) == len(theta_set)
            assert transported == {mo.h for mo in phi_set}
            done += 1
