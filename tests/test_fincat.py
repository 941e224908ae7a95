"""Finite categories, fibration predicates, and the elements construction."""

from __future__ import annotations

import collections
import itertools
import random
import sys
import tracemalloc

import pytest

from polyspan import fincat
from polyspan.errors import InvariantViolation, require
from polyspan.fincat import (
    Comma,
    ElementsCat,
    FinCat,
    Functor,
    NatTrans,
    Presheaf,
    all_functors,
    arrow_category,
    are_isomorphic_objects,
    comma,
    compose_functors,
    comprehensive_factorization,
    constant_functor,
    constant_presheaf,
    discrete_cat,
    elements,
    fibers,
    gfib_via_cotensor,
    identity_functor,
    is_cartesian,
    is_discrete_fibration,
    is_equivalence,
    is_er_fibration,
    is_final,
    is_functor_iso,
    is_groupoid_fibration,
    is_groupoid_fibration_strict,
    iso_comma,
    monoid_cat,
    opposite_cat,
    ordinal2,
    presheaf_iso,
    product_cat,
    representable,
    terminal_cat,
    _cat,
    _natural_maps,
)
from polyspan.finset import FinSetMap, FinSetObj, compose, identity, pullback
from polyspan.record import Record
from polyspan.gen import (
    preorder_cat,
    rand_dfib,
    rand_fincat,
    rand_functor,
    rand_presheaf,
)


def z2() -> FinCat:
    return monoid_cat(((0, 1), (1, 0)), 0)


def indiscrete2() -> FinCat:
    """Two objects with exactly one morphism in every direction."""
    o, m = FinSetObj(2), FinSetObj(4)
    # morphisms: 0:id0, 1:id1, 2:0->1, 3:1->0
    src = FinSetMap(m, o, (0, 1, 0, 1))
    tgt = FinSetMap(m, o, (0, 1, 1, 0))
    ident = FinSetMap(o, m, (0, 1))
    comp = ((0, -1, -1, 3), (-1, 1, 2, -1), (2, -1, -1, 1), (-1, 3, 0, -1))
    return FinCat(o, m, src, tgt, ident, comp)


class TestFinCat:
    def test_validation_catches_broken_assoc(self):
        # units hold but a(aa) != (aa)a
        with pytest.raises(InvariantViolation) as e:
            monoid_cat(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
        assert e.value.clause == "cat-assoc"

    def test_validation_catches_broken_unit(self):
        with pytest.raises(InvariantViolation) as e:
            monoid_cat(((0, 1), (0, 0)), 0)
        assert e.value.clause == "cat-unit"

    def test_hom_and_iso(self):
        c = ordinal2()
        assert c.hom(0, 1) == (2,)
        assert c.hom(1, 0) == ()
        assert not c.is_iso(2)
        assert all(z2().is_iso(m) for m in z2().mors)

    def test_terminal_cat_is_one_lawful_value(self):
        # built once at import, before any test could re-check it
        one = terminal_cat()
        assert one is terminal_cat() and one == discrete_cat(1)
        one.__post_init__()

    def test_opposite_and_product(self):
        c = opposite_cat(ordinal2())
        assert c.hom(1, 0) == (2,) and c.hom(0, 1) == ()
        p = product_cat(ordinal2(), z2())
        assert p.objects.size == 2 and p.morphisms.size == 6


class TestCallerIndices:
    """An index a caller passes is checked before anything is built: the
    results are built unchecked, so this is the only check on it."""

    @pytest.mark.parametrize("x", [-1, 2])
    def test_constant_functor_needs_an_object(self, x):
        c = ordinal2()
        with pytest.raises(InvariantViolation) as e:
            constant_functor(c, c, x)
        assert e.value.clause == "functor-omap"

    @pytest.mark.parametrize("b", [-1, 2, 5])
    def test_representable_needs_an_object(self, b):
        with pytest.raises(InvariantViolation) as e:
            representable(ordinal2(), b)
        assert e.value.clause == "representable-object"


class TestComma:
    def test_iso_comma_discrete_identity(self):
        d = discrete_cat(3)
        ic = iso_comma(identity_functor(d), identity_functor(d))
        assert ic.cat.objects.size == 3 and ic.cat.morphisms.size == 3
        assert ic.objects_data == ((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def test_iso_comma_group(self):
        g = z2()
        ic = iso_comma(identity_functor(g), identity_functor(g))
        assert ic.cat.objects.size == 2
        assert all(ic.cat.is_iso(m) for m in ic.cat.mors)
        # oracle: count (u, v) pairs with v∘phi = phi'∘u directly
        count = sum(
            1 for phi in (0, 1) for phi2 in (0, 1) for u in (0, 1) for v in (0, 1)
            if (v + phi) % 2 == (phi2 + u) % 2)
        assert ic.cat.morphisms.size == count == 8

    def test_iso_comma_from_empty(self):
        e = discrete_cat(0)
        ic = iso_comma(constant_functor(e, z2(), 0) if e.objects.size else
                       Functor(e, z2(), (), ()), identity_functor(z2()))
        assert ic.cat.objects.size == 0

    def test_comma_vs_iso_comma_nonposet(self):
        c = ordinal2()
        full = comma(identity_functor(c), identity_functor(c))
        iso = iso_comma(identity_functor(c), identity_functor(c))
        assert full.cat.objects.size == 3
        assert iso.cat.objects.size == 2  # only identity connectors invert
        assert full.cat.morphisms.size > iso.cat.morphisms.size

    def test_transform_components(self):
        c = ordinal2()
        full = comma(identity_functor(c), identity_functor(c))
        # the connecting transformation picks out each object's morphism
        assert full.transform.components == tuple(
            phi for _, _, phi in full.objects_data)


class TestArrowCategory:
    def test_discrete(self):
        a2 = arrow_category(discrete_cat(3))
        assert a2.cat.objects.size == 3 and a2.cat.morphisms.size == 3

    def test_ordinal2(self):
        a2 = arrow_category(ordinal2())
        assert a2.cat.objects.size == 3
        # oracle: squares (u, v) with g∘u = v∘f counted directly
        c = ordinal2()
        count = 0
        for f in c.mors:
            for g in c.mors:
                for u in c.hom(c.src(f), c.src(g)):
                    for v in c.hom(c.tgt(f), c.tgt(g)):
                        if c.comp[g][u] == c.comp[v][f]:
                            count += 1
        assert a2.cat.morphisms.size == count == 6

    def test_empty(self):
        assert arrow_category(discrete_cat(0)).cat.objects.size == 0


def pullback_is_cartesian(p, chi):
    """Reference: for every object k, the square sending psi: k -> src(chi)
    to (p psi, chi∘psi) has a bijective mediator into the pullback of
    hom-sets, built as maps of finite sets."""
    e_cat, b_cat = p.dom, p.cod
    e1, e = e_cat.src(chi), e_cat.tgt(chi)
    for k in e_cat.objs:
        top, right = e_cat.hom(k, e1), e_cat.hom(k, e)
        bot1 = b_cat.hom(p.omap[k], p.omap[e1])
        bot0 = b_cat.hom(p.omap[k], p.omap[e])
        o_top, o_right = FinSetObj(len(top)), FinSetObj(len(right))
        o_bot1, o_bot0 = FinSetObj(len(bot1)), FinSetObj(len(bot0))
        post = FinSetMap(o_bot1, o_bot0, tuple(
            b_cat.hom_position(b_cat.comp[p.mmap[chi]][g]) for g in bot1))
        down = FinSetMap(o_right, o_bot0, tuple(
            b_cat.hom_position(p.mmap[phi]) for phi in right))
        c1 = FinSetMap(o_top, o_bot1, tuple(
            b_cat.hom_position(p.mmap[psi]) for psi in top))
        c2 = FinSetMap(o_top, o_right, tuple(
            e_cat.hom_position(e_cat.comp[chi][psi]) for psi in top))
        if not pullback(post, down).mediate(c1, c2).is_bijective:
            return False
    return True


class TestCartesian:
    def test_counts_agree_with_the_pullback(self):
        """On every morphism of the groupoid-criterion suite's draws at
        seed 0, counting agrees with the mediator into the pullback."""
        rng = random.Random(0)
        verdicts = set()
        for _ in range(200):
            p = None
            while p is None:
                a = rand_fincat(rng, max_objs=3, max_mors=10)
                b = rand_fincat(rng, max_objs=3, max_mors=10)
                p = rand_functor(rng, a, b)
            for chi in a.mors:
                got = is_cartesian(p, chi)
                assert got == pullback_is_cartesian(p, chi), (p, chi)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_invertible_is_cartesian(self):
        g = z2()
        p = Functor(g, terminal_cat(), (0,), (0, 0))
        assert all(is_cartesian(p, chi) for chi in g.mors)

    def test_fully_faithful_all_cartesian(self):
        # identity functors are fully faithful
        c = ordinal2()
        assert all(is_cartesian(identity_functor(c), chi) for chi in c.mors)

    def test_collapse_has_noncartesian_arrow(self):
        c = ordinal2()
        p = Functor(c, terminal_cat(), (0, 0), (0, 0, 0))
        assert not is_cartesian(p, 2)

    def test_dfib_projection_all_cartesian(self):
        el = elements(representable(ordinal2(), 1))
        assert all(is_cartesian(el.proj, chi) for chi in el.cat.mors)


class TestGroupoidFibration:
    def test_identity(self):
        c = ordinal2()
        assert is_groupoid_fibration(identity_functor(c))
        assert is_er_fibration(identity_functor(c))
        assert gfib_via_cotensor(identity_functor(c))

    def test_group_to_point(self):
        p = Functor(z2(), terminal_cat(), (0,), (0, 0))
        assert is_groupoid_fibration(p)
        assert gfib_via_cotensor(p)
        assert not is_er_fibration(p)  # the flip is a vertical endo
        assert not is_discrete_fibration(p)

    def test_ordinal_to_point(self):
        p = Functor(ordinal2(), terminal_cat(), (0, 0), (0, 0, 0))
        assert not is_groupoid_fibration(p)
        assert not gfib_via_cotensor(p)

    def test_elements_projection(self):
        el = elements(representable(ordinal2(), 1))
        assert is_er_fibration(el.proj)
        assert is_discrete_fibration(el.proj)

    def test_strict_vs_iso_variant(self):
        # indiscrete fiber: lifts exist only up to iso picking another object
        e = indiscrete2()
        p = Functor(e, terminal_cat(), (0, 0), (0,) * 4)
        assert is_groupoid_fibration(p)
        assert is_groupoid_fibration_strict(p)
        assert is_er_fibration(p)
        assert not is_discrete_fibration(p)  # two lifts of the identity

    def test_dfib_implies_er(self):
        rng = random.Random(3)
        cats = [ordinal2(), z2(), discrete_cat(2), indiscrete2()]
        for a in cats:
            for b in cats:
                for f in itertools.islice(all_functors(a, b), 6):
                    if is_discrete_fibration(f):
                        assert is_er_fibration(f)
                        assert is_groupoid_fibration_strict(f)


def pairwise_elements_comp(p, el):
    """Reference: the composition table of the elements of p, one test per
    pair of morphisms."""
    base, morphisms = p.base, el.morphisms_data
    mor_index = {m: i for i, m in enumerate(morphisms)}
    rows = []
    for beta2, t2 in morphisms:
        row = []
        for beta1, t1 in morphisms:
            if base.tgt(beta1) != base.src(beta2) or t1 != p.act[beta2][t2]:
                row.append(-1)
            else:
                row.append(mor_index[(base.comp[beta2][beta1], t2)])
        rows.append(tuple(row))
    return tuple(rows)


class TestElements:
    def test_constant_singleton(self):
        c = ordinal2()
        el = elements(constant_presheaf(c, 1))
        assert is_functor_iso(el.proj)

    def test_representable_is_slice(self):
        el = elements(representable(ordinal2(), 1))
        assert el.cat.objects.size == 2 and el.cat.morphisms.size == 3
        # the slice over the top of the ordinal is again the ordinal
        assert el.cat.hom(0, 1) != () and el.cat.hom(1, 0) == ()

    def test_empty_values(self):
        el = elements(constant_presheaf(ordinal2(), 0))
        assert el.cat.objects.size == 0

    def test_roundtrip_fibers_after_elements(self):
        for p in [constant_presheaf(ordinal2(), 1),
                  representable(ordinal2(), 1),
                  representable(z2(), 0),
                  constant_presheaf(ordinal2(), 0)]:
            el = elements(p)
            assert fibers(el.proj) == p

    def test_roundtrip_elements_after_fibers(self):
        # a discrete fibration is isomorphic over the base to the elements
        # of its fiber presheaf
        src = elements(representable(ordinal2(), 1)).proj
        el2 = elements(fibers(src))
        h_omap = []
        fiber_seen = {b: [] for b in src.cod.objs}
        for e in src.dom.objs:
            fiber_seen[src.omap[e]].append(e)
        for b, t in el2.objects_data:
            h_omap.append(fiber_seen[b][t])
        # morphisms: unique lifts
        h_mmap = []
        for beta, t2 in el2.morphisms_data:
            e2 = fiber_seen[src.cod.tgt(beta)][t2]
            lifts = [chi for chi in src.dom.mors
                     if src.dom.tgt(chi) == e2 and src.mmap[chi] == beta]
            h_mmap.append(lifts[0])
        h = Functor(el2.cat, src.dom, tuple(h_omap), tuple(h_mmap))
        assert is_functor_iso(h)
        assert compose_functors(src, h) == el2.proj

    @pytest.mark.parametrize("seed", range(3))
    def test_composition_matches_pairwise_fill(self, seed):
        """The composable entries set from fibers, against the loop over
        every pair of morphisms they replaced."""
        rng = random.Random(600 + seed)
        for _ in range(40):
            p = rand_presheaf(rng, rand_fincat(rng))
            el = elements(p)
            assert el.cat.comp == pairwise_elements_comp(p, el)
            rebuilt = FinCat(el.cat.objects, el.cat.morphisms, el.cat.src,
                             el.cat.tgt, el.cat.ident,
                             pairwise_elements_comp(p, el))
            assert el == ElementsCat(
                Functor(rebuilt, p.base, el.proj.omap, el.proj.mmap),
                el.objects_data, el.morphisms_data)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_discrete_diagonal(self, n):
        assert discrete_cat(n).comp == tuple(
            tuple(i if i == j else -1 for j in range(n)) for i in range(n))

    def test_fibers_requires_dfib(self):
        p = Functor(z2(), terminal_cat(), (0,), (0, 0))
        with pytest.raises(InvariantViolation) as e:
            fibers(p)
        assert e.value.clause == "not-discrete-fibration"


class TestComprehensiveFactorization:
    def test_already_dfib_gives_iso(self):
        g = elements(representable(ordinal2(), 1)).proj
        j, s = comprehensive_factorization(g)
        assert compose_functors(s, j) == g
        assert is_functor_iso(j)

    def test_top_point_of_ordinal(self):
        g = Functor(terminal_cat(), ordinal2(), (1,), (1,))
        j, s = comprehensive_factorization(g)
        assert compose_functors(s, j) == g
        assert is_discrete_fibration(s) and is_final(j)
        assert fibers(s).at == (1, 1)  # one component of bottom/g, one of top/g

    def test_empty_domain(self):
        g = Functor(discrete_cat(0), ordinal2(), (), ())
        j, s = comprehensive_factorization(g)
        assert s.dom.objects.size == 0
        assert compose_functors(s, j) == g

    def test_collapse_of_group(self):
        # z2 -> terminal: one connected component, so s has singleton fiber
        g = Functor(z2(), terminal_cat(), (0,), (0, 0))
        j, s = comprehensive_factorization(g)
        assert fibers(s).at == (1,)
        assert is_final(j) and is_discrete_fibration(s)


class TestFinal:
    def test_identity(self):
        assert is_final(identity_functor(ordinal2()))

    def test_top_vs_bottom(self):
        top = Functor(terminal_cat(), ordinal2(), (1,), (1,))
        bottom = Functor(terminal_cat(), ordinal2(), (0,), (0,))
        assert is_final(top)
        assert not is_final(bottom)


class TestSearchHelpers:
    def test_presheaf_iso_finds_relabeling(self):
        p = representable(ordinal2(), 1)
        q = fibers(elements(p).proj)
        assert presheaf_iso(p, q) is not None
        assert presheaf_iso(p, constant_presheaf(ordinal2(), 2)) is None

    def test_all_functors_counts(self):
        assert len(list(all_functors(ordinal2(), ordinal2()))) == 3
        assert len(list(all_functors(z2(), z2()))) == 2
        assert len(list(all_functors(discrete_cat(2), discrete_cat(3)))) == 9

    def test_is_equivalence(self):
        assert is_equivalence(identity_functor(z2()))
        p = Functor(indiscrete2(), terminal_cat(), (0, 0), (0,) * 4)
        assert is_equivalence(p)  # indiscrete pair collapses to a point
        q = Functor(ordinal2(), terminal_cat(), (0, 0), (0, 0, 0))
        assert not is_equivalence(q)

    def test_free_tail_is_listed_lazily(self):
        """Forty free elements with two images each: the first tables come
        in lexicographic order without listing the 2^40 families."""
        first = list(itertools.islice(_natural_maps([40], [2], [], False), 3))
        assert first == [((0,) * 40,), ((0,) * 39 + (1,),),
                         ((0,) * 38 + (1, 0),)]


# Reference implementations: the scans that the hom and lift indexes
# replaced, kept as a differential oracle.

def scan_hom(c, x, y):
    return tuple(f for f in c.mors if c.src(f) == x and c.tgt(f) == y)


def scan_lifts(p, e, beta):
    return tuple(chi for chi in p.dom.mors
                 if p.dom.tgt(chi) == e and p.mmap[chi] == beta)


def scan_is_discrete_fibration(p):
    e_cat, b_cat = p.dom, p.cod
    for e in e_cat.objs:
        for beta in b_cat.mors:
            if b_cat.tgt(beta) != p.omap[e]:
                continue
            if len(scan_lifts(p, e, beta)) != 1:
                return False
    return True


def scan_fibers(p):
    e_cat, b_cat = p.dom, p.cod
    fiber_objs = [tuple(e for e in e_cat.objs if p.omap[e] == b)
                  for b in b_cat.objs]
    position = {e: i for fib in fiber_objs for i, e in enumerate(fib)}
    at = tuple(FinSetObj(len(f)) for f in fiber_objs)
    act = []
    for beta in b_cat.mors:
        b1, b2 = b_cat.src(beta), b_cat.tgt(beta)
        act.append(FinSetMap(at[b2], at[b1], tuple(
            position[e_cat.src(scan_lifts(p, e2, beta)[0])]
            for e2 in fiber_objs[b2])))
    return ReferencePresheaf(b_cat, at, tuple(act))


def scan_cat_violation(c, comp):
    """The first (clause, message) the per-check validation of a category
    with c's other tables and this composition table raises, or None."""
    m = c.morphisms.size
    for g in c.mors:
        for f in c.mors:
            x = comp[g][f]
            if c.tgt(f) != c.src(g):
                if x != -1:
                    return ("cat-comp-partial",
                            f"composite defined for non-composable pair ({g}, {f})")
            elif not 0 <= x < m:
                return ("cat-comp-total",
                        f"composable pair ({g}, {f}) has no composite")
            elif c.src(x) != c.src(f) or c.tgt(x) != c.tgt(g):
                return ("cat-comp-typing",
                        f"composite of ({g}, {f}) has wrong boundary")
    for f in c.mors:
        if comp[c.ident(c.tgt(f))][f] != f:
            return ("cat-unit", f"left unit law fails at morphism {f}")
        if comp[f][c.ident(c.src(f))] != f:
            return ("cat-unit", f"right unit law fails at morphism {f}")
    for f in c.mors:
        for g in c.mors:
            if c.src(g) != c.tgt(f):
                continue
            for h in c.mors:
                if c.src(h) == c.tgt(g) and (
                        comp[h][comp[g][f]] != comp[comp[h][g]][f]):
                    return ("cat-assoc",
                            f"associativity fails on ({h}, {g}, {f})")
    return None


def drawn_functors(seed, count):
    """Seeded functors: random ones between random categories, which are
    seldom discrete fibrations, alternating with projections of element
    categories, which always are."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        y = rand_fincat(rng)
        if len(out) % 2:
            out.append(rand_dfib(rng, y))
            continue
        f = rand_functor(rng, rand_fincat(rng), y)
        if f is not None:
            out.append(f)
    return out


class TestAgainstReference:
    """The hom and lift indexes answer exactly as the scans they replaced;
    the validation of a category raises the same first clause and message
    as the per-check loop."""

    @pytest.mark.parametrize("seed", range(4))
    def test_hom_and_positions(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            c = rand_fincat(rng)
            n = c.objects.size
            for x in range(-1, n + 1):
                for y in range(-1, n + 1):
                    assert c.hom(x, y) == scan_hom(c, x, y)
            for f in c.mors:
                assert (c.hom_position(f)
                        == scan_hom(c, c.src(f), c.tgt(f)).index(f))
            for x in range(-1, n + 1):
                want = tuple(f for f in c.mors if c.src(f) == x)
                assert c.out_of(x) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_lifts_dfib_and_fibers(self, seed):
        for p in drawn_functors(100 + seed, 16):
            ne, nm = p.dom.objects.size, p.cod.morphisms.size
            for e in range(-1, ne + 1):
                for beta in range(-1, nm + 1):
                    assert p.lifts(e, beta) == scan_lifts(p, e, beta)
            dfib = scan_is_discrete_fibration(p)
            assert is_discrete_fibration(p) == dfib
            if dfib:
                assert fibers(p) == from_presheaf_maps(scan_fibers(p))
            else:
                with pytest.raises(InvariantViolation) as e:
                    fibers(p)
                assert e.value.clause == "not-discrete-fibration"

    def test_draws_include_both_kinds(self):
        kinds = {scan_is_discrete_fibration(p)
                 for p in drawn_functors(100, 16)}
        assert kinds == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_tables_raise_the_same_violation(self, seed):
        for c, comp in corrupted_cat_tables(seed):
            want = scan_cat_violation(c, comp)
            if want is None:
                FinCat(c.objects, c.morphisms, c.src, c.tgt, c.ident, comp)
            else:
                with pytest.raises(InvariantViolation) as e:
                    FinCat(c.objects, c.morphisms, c.src, c.tgt, c.ident, comp)
                assert (e.value.clause, str(e.value)) == (
                    want[0], f"{want[0]}: {want[1]}")

    def test_changed_products_in_a_monoid_raise_the_same_violation(self):
        # one object, so every change keeps the boundary: these tables
        # reach the unit and associativity checks
        seen = set()
        for c, comp in changed_monoid_products():
            want = scan_cat_violation(c, comp)
            if want is None:
                continue
            seen.add(want[0])
            with pytest.raises(InvariantViolation) as e:
                FinCat(c.objects, c.morphisms, c.src, c.tgt, c.ident, comp)
            assert str(e.value) == f"{want[0]}: {want[1]}"
        assert seen == {"cat-unit", "cat-assoc"}

    @pytest.mark.unchecked_trust  # the two checks are run by hand
    def test_non_identity_triples_fail_as_all_triples_do(self):
        """Associativity checked on triples of non-identities only raises
        the clause and text of the check of every composable triple, on
        the corrupted tables of both corpora."""
        seen = collections.Counter()
        corpus = itertools.chain(*map(corrupted_cat_tables, range(3)),
                                 changed_monoid_products())
        for c, comp in corpus:
            value = FinCat._trusted(c.objects, c.morphisms, c.src, c.tgt,
                                    c.ident, comp)
            want = violation(all_triples_cat_check, value)
            assert violation(value.__post_init__) == want
            seen[want and want[0]] += 1
        assert seen[None] and seen["cat-unit"] and seen["cat-assoc"] >= 5


def corrupted_cat_tables(seed):
    """40 seeded categories, each with one or two entries of its
    composition table changed, half of them within the same hom-set."""
    rng = random.Random(200 + seed)
    for _ in range(40):
        c = rand_fincat(rng)
        m = c.morphisms.size
        comp = [list(row) for row in c.comp]
        for _ in range(rng.randint(1, 2)):
            g, f = rng.randrange(m), rng.randrange(m)
            if comp[g][f] >= 0 and rng.random() < 0.5:
                # keep the boundary, so the unit and associativity
                # checks are the ones reached
                comp[g][f] = rng.choice(c.hom(c.src(f), c.tgt(g)))
            else:
                comp[g][f] = rng.randint(-1, m - 1)
        yield c, tuple(map(tuple, comp))


def changed_monoid_products():
    """The cyclic group of order 3 with each single product changed."""
    c = monoid_cat(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
    for g, f, x in itertools.product(c.mors, repeat=3):
        yield c, tuple(tuple(x if (g2, f2) == (g, f) else c.comp[g2][f2]
                             for f2 in c.mors) for g2 in c.mors)


def all_triples_cat_check(self):
    """``FinCat.__post_init__`` as it was when it checked associativity on
    every composable triple, identities included: the reference for the
    check on triples of non-identities."""
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
    out_of = self.src.fiber
    for f in m.elements:
        for g in out_of(tgt[f]):
            gf = comp[g][f]
            for h in out_of(tgt[g]):
                row = comp[h]
                if row[gf] != comp[row[g]][f]:
                    raise InvariantViolation("cat-assoc",
                                             f"associativity fails on ({h}, {g}, {f})")


# Reference implementations: the per-check require loops Functor and
# NatTrans ran, kept as a differential oracle.

def reference_functor_check(a, b, omap, mmap):
    require(len(omap) == a.objects.size, "functor-omap",
            "object table length mismatch")
    require(len(mmap) == a.morphisms.size, "functor-mmap",
            "morphism table length mismatch")
    require(all(0 <= x < b.objects.size for x in omap), "functor-omap",
            "object image out of range")
    require(all(0 <= f < b.morphisms.size for f in mmap), "functor-mmap",
            "morphism image out of range")
    for f in a.mors:
        require(b.src(mmap[f]) == omap[a.src(f)]
                and b.tgt(mmap[f]) == omap[a.tgt(f)],
                "functor-boundary",
                f"image of morphism {f} has wrong boundary")
    for x in a.objs:
        require(mmap[a.ident(x)] == b.ident(omap[x]),
                "functor-ident", f"identity at {x} not preserved")
    for f in a.mors:
        for g in a.out_of(a.tgt(f)):
            require(mmap[a.comp[g][f]] == b.comp[mmap[g]][mmap[f]],
                    "functor-comp", f"composition not preserved on ({g}, {f})")


def reference_nat_check(f, g, components):
    require(f.dom == g.dom and f.cod == g.cod, "nat-parallel",
            "natural transformations live between parallel functors")
    a, b = f.dom, f.cod
    require(len(components) == a.objects.size, "nat-components",
            "one component per object required")
    for x in a.objs:
        c = components[x]
        require(b.src(c) == f.omap[x] and b.tgt(c) == g.omap[x],
                "nat-typing", f"component at {x} has wrong boundary")
    for m in a.mors:
        x, y = a.src(m), a.tgt(m)
        require(b.comp[components[y]][f.mmap[m]]
                == b.comp[g.mmap[m]][components[x]],
                "nat-square", f"naturality fails at morphism {m}")


def violation(build, *args):
    """The (clause, message) build(*args) raises, or None."""
    try:
        build(*args)
    except InvariantViolation as e:
        return e.clause, str(e)
    return None


def corrupted_functor_tables(rng, f):
    """f's tables with one entry moved (anywhere, or within its hom-set)
    or one table grown or shrunk by an entry."""
    omap, mmap = list(f.omap), list(f.mmap)
    b = f.cod
    kind = rng.randrange(6)
    if kind == 0 and omap:
        omap[rng.randrange(len(omap))] = rng.randint(-1, b.objects.size)
    elif kind == 1 and mmap:
        mmap[rng.randrange(len(mmap))] = rng.randint(-1, b.morphisms.size)
    elif kind < 5 and mmap:
        # keep the boundary, so the identity and composition checks are
        # the ones reached
        homs = [b.hom(b.src(m), b.tgt(m)) for m in mmap]
        i = rng.choice([i for i, h in enumerate(homs) if len(h) > 1]
                       or range(len(mmap)))
        mmap[i] = rng.choice([m for m in homs[i] if m != mmap[i]]
                             or homs[i])
    else:
        table = rng.choice((omap, mmap))
        if table and rng.random() < 0.5:
            table.pop()
        else:
            table.append(0)
    return f.dom, b, tuple(omap), tuple(mmap)


def corrupted_transformation(rng, t):
    """t's functors and components with one component moved (anywhere, or
    within its hom-set), the component table grown or shrunk by one, or
    the target functor replaced by an identity."""
    f, g, comps = t.dom, t.cod, list(t.components)
    b = f.cod
    kind = rng.randrange(4)
    if kind == 0 and comps:
        comps[rng.randrange(len(comps))] = rng.randrange(b.morphisms.size)
    elif kind == 1 and comps:
        x = rng.randrange(len(comps))
        c = comps[x]
        comps[x] = rng.choice(b.hom(b.src(c), b.tgt(c)))
    elif kind == 2:
        if comps and rng.random() < 0.5:
            comps.pop()
        else:
            comps.append(b.ident(0))
    else:
        g = identity_functor(rng.choice((f.dom, f.cod)))
    return f, g, tuple(comps)


class TestFunctorChecksAgainstReference:
    """Functor and NatTrans check their laws on tables and format a
    message only on failure: the same first clause and message as the
    per-check loops."""

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_functors_raise_the_same_violation(self, seed):
        rng = random.Random(700 + seed)
        seen, checked = set(), 0
        for f in drawn_functors(750 + seed, 40):
            for _ in range(3):
                tables = corrupted_functor_tables(rng, f)
                want = violation(reference_functor_check, *tables)
                assert violation(Functor, *tables) == want
                seen.add(want and want[0])
                checked += 1
        assert checked >= 120
        assert seen >= {"functor-omap", "functor-mmap", "functor-boundary",
                        "functor-ident", "functor-comp"}

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_transformations_raise_the_same_violation(self, seed):
        rng = random.Random(800 + seed)
        seen, checked = set(), 0
        for f in drawn_functors(900 + seed, 40):
            t = comma(f, identity_functor(f.cod)).transform
            for _ in range(3):
                args = corrupted_transformation(rng, t)
                want = violation(reference_nat_check, *args)
                assert violation(NatTrans, *args) == want
                seen.add(want and want[0])
                checked += 1
        assert checked >= 120
        assert seen >= {"nat-parallel", "nat-components", "nat-typing",
                        "nat-square"}


# Reference implementations: the presheaf as it was held before it held
# sizes and tables, a value set per object and a map per morphism, with
# the builders that made it in that form, the permutation search
# presheaf_iso ran and the per-equation checks, kept as a differential
# oracle.

class ReferencePresheaf(Record):
    base: FinCat
    at: tuple[FinSetObj, ...]
    act: tuple[FinSetMap, ...]

    def __post_init__(self) -> None:
        c = self.base
        require(len(self.at) == c.objects.size, "presheaf-at",
                "one value set per object required")
        require(len(self.act) == c.morphisms.size, "presheaf-act",
                "one action per morphism required")
        want = reference_presheaf_violation(c, self.at, self.act)
        if want is not None:
            raise InvariantViolation(*want)


def presheaf_tables(at, act):
    """The sizes and tables of value sets and action maps."""
    return tuple(v.size for v in at), tuple(f.table for f in act)


def from_presheaf_maps(r):
    """The checked presheaf with r's value sets and action maps."""
    return Presheaf(r.base, *presheaf_tables(r.at, r.act))


def presheaf_maps(p):
    """p's value sets and action maps, the converse of ``from_presheaf_maps``."""
    c = p.base
    at = tuple(map(FinSetObj, p.at))
    return ReferencePresheaf(c, at, tuple(
        FinSetMap(at[y], at[x], t)
        for t, x, y in zip(p.act, c.src.table, c.tgt.table)))


def reference_presheaf(c, sizes, tables):
    at = tuple(map(FinSetObj, sizes))
    return ReferencePresheaf(c, at, tuple(
        FinSetMap(at[y], at[x], t)
        for t, x, y in zip(tables, c.src.table, c.tgt.table)))


def reference_representable(c, b):
    return reference_presheaf(c, [len(c.hom(x, b)) for x in c.objs], [
        tuple(c.hom_position(c.comp[h][m]) for h in c.hom(y, b))
        for m, y in zip(c.mors, c.tgt.table)])


def reference_constant_presheaf(c, size):
    v = FinSetObj(size)
    return ReferencePresheaf(c, (v,) * c.objects.size,
                             (identity(v),) * c.morphisms.size)


def reference_fibers(p):
    e_cat, b_cat, over = p.dom, p.cod, p.over
    return reference_presheaf(b_cat, [len(over.fiber(b)) for b in b_cat.objs], [
        tuple(over.fiber_position(e_cat.src(p.lifts(e2, beta)[0]))
              for e2 in over.fiber(b2))
        for beta, b2 in zip(b_cat.mors, b_cat.tgt.table)])


def reference_comprehensive_factorization(g):
    f_cat, x_cat = g.dom, g.cod
    classes_at = [fincat._components_under(g, x) for x in x_cat.objs]
    class_index = [{member: i for i, c in enumerate(cls) for member in c}
                   for cls in classes_at]
    tables = []
    for gamma in x_cat.mors:
        x1, x2 = x_cat.src(gamma), x_cat.tgt(gamma)
        tables.append(tuple(class_index[x1][(e, x_cat.comp[psi][gamma])]
                            for e, psi in (c[0] for c in classes_at[x2])))
    el = reference_elements(reference_presheaf(x_cat, map(len, classes_at),
                                               tables))

    def home(e):
        x = g.omap[e]
        return class_index[x][(e, x_cat.ident(x))]

    mor_index = {m: i for i, m in enumerate(el.morphisms_data)}
    j = Functor(f_cat, el.cat,
                tuple(el.object_index(g.omap[e], home(e)) for e in f_cat.objs),
                tuple(mor_index[(g.mmap[phi], home(f_cat.tgt(phi)))]
                      for phi in f_cat.mors))
    return j, el.proj


def reference_presheaf_iso(p, q):
    """The natural-map search on value sets and action maps, returning
    its components as maps."""
    base = p.base
    if any(p.at[x].size != q.at[x].size for x in base.objs):
        return None
    sizes = [v.size for v in p.at]
    squares = [(base.tgt(m), base.src(m), p.act[m].table, q.act[m].table)
               for m in base.non_identities]
    tables = next(_natural_maps(sizes, sizes, squares, True), None)
    if tables is None:
        return None
    return tuple(FinSetMap(p.at[x], q.at[x], t) for x, t in enumerate(tables))


def component_tables(components):
    return None if components is None else tuple(f.table for f in components)


def permutation_presheaf_iso(p, q):
    """Object by object over the permutations of each value set, checking
    every naturality square whose ends are both assigned."""
    base = p.base
    if any(p.at[x].size != q.at[x].size for x in base.objs):
        return None
    components = [None] * base.objects.size

    def natural_so_far(upto):
        for m in base.mors:
            x, y = base.src(m), base.tgt(m)
            if x <= upto and y <= upto and (
                    compose(components[x], p.act[m])
                    != compose(q.act[m], components[y])):
                return False
        return True

    def assign(x):
        if x == base.objects.size:
            return True
        for perm in itertools.permutations(q.at[x].elements):
            components[x] = FinSetMap(p.at[x], q.at[x], perm)
            if natural_so_far(x) and assign(x + 1):
                return True
        components[x] = None
        return False

    return tuple(components) if assign(0) else None


def reference_presheaf_violation(base, at, act):
    """The first (clause, message) the per-equation checks of a presheaf
    with these tables raise, or None."""
    for m in base.mors:
        if act[m].dom != at[base.tgt(m)] or act[m].cod != at[base.src(m)]:
            return ("presheaf-boundary", f"action of morphism {m} mistyped")
    for x in base.objs:
        if act[base.ident(x)] != identity(at[x]):
            return ("presheaf-ident",
                    f"identity action at {x} not the identity")
    for f in base.mors:
        for g in base.out_of(base.tgt(f)):
            if act[base.comp[g][f]] != compose(act[f], act[g]):
                return ("presheaf-comp",
                        f"contravariant functoriality fails on ({g}, {f})")
    return None


def relabelled(rng, p):
    """p with every value set permuted at random: isomorphic to p."""
    perms = [rng.sample(range(k), k) for k in p.at]
    act = []
    for m in p.base.mors:
        x, y = p.base.src(m), p.base.tgt(m)
        table = [0] * p.at[y]
        for i in range(p.at[y]):
            table[perms[y][i]] = perms[x][p.act[m][i]]
        act.append(tuple(table))
    return Presheaf(p.base, p.at, tuple(act))


def corrupted_presheaf_tables(rng, p):
    """The value sets and action maps of p with one value set grown by a
    point or one entry of one action changed, or None when p has nothing
    to change."""
    at, act = list(p.at), list(p.act)
    if at and rng.random() < 0.2:
        x = rng.randrange(len(at))
        at[x] = FinSetObj(at[x].size + 1)
        return tuple(at), tuple(act)
    movable = [m for m, f in enumerate(act) if f.dom.size and f.cod.size > 1]
    if not movable:
        return None
    m = rng.choice(movable)
    table = list(act[m].table)
    i = rng.randrange(len(table))
    table[i] = rng.choice([v for v in act[m].cod.elements if v != table[i]])
    act[m] = FinSetMap(act[m].dom, act[m].cod, tuple(table))
    return tuple(at), tuple(act)


class TestPresheafAgainstReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_iso_matches_permutation_search(self, seed):
        """The same components or None, on relabelled copies both ways
        round, unrelated presheaves and the fibers of the elements, which
        are the presheaf itself, table for table."""
        rng = random.Random(300 + seed)
        found = 0
        for _ in range(40):
            c = rand_fincat(rng)
            p = rand_presheaf(rng, c)
            q = relabelled(rng, p)
            tabulated = fibers(elements(p).proj)
            assert tabulated == p
            for left, right in ((p, q), (q, p), (p, rand_presheaf(rng, c)),
                                (tabulated, p)):
                got = presheaf_iso(left, right)
                assert got == component_tables(permutation_presheaf_iso(
                    presheaf_maps(left), presheaf_maps(right)))
                found += got is not None
        assert found >= 120

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_tables_raise_the_same_violation(self, seed):
        """The clause and text of the checks on value sets and maps,
        except where a value set grew: its size is read only through the
        actions out of it, so the first morphism into its object is named,
        where the maps named the first morphism at either end."""
        rng = random.Random(500 + seed)
        seen, checked = set(), 0
        while checked < 60:
            c = rand_fincat(rng)
            p = rand_presheaf(rng, c)
            tables = corrupted_presheaf_tables(rng, presheaf_maps(p))
            if tables is None:
                continue
            want = reference_presheaf_violation(c, *tables)
            if want is None:
                Presheaf(c, *presheaf_tables(*tables))
            else:
                grown = [x for x, v in enumerate(tables[0]) if v.size != p.at[x]]
                if grown:
                    m = min(c.tgt.fiber(grown[0]))
                    want = (want[0], f"action of morphism {m} mistyped")
                with pytest.raises(InvariantViolation) as e:
                    Presheaf(c, *presheaf_tables(*tables))
                assert (e.value.clause, str(e.value)) == (
                    want[0], f"{want[0]}: {want[1]}")
                seen.add(want[0])
            checked += 1
        assert seen == {"presheaf-boundary", "presheaf-ident",
                        "presheaf-comp"}

    def test_iso_at_the_default_recursion_limit(self):
        """1200 objects: the permutation search made one nested call per
        object and overflowed the stack."""
        p = constant_presheaf(discrete_cat(1200), 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            got = presheaf_iso(p, p)
        finally:
            sys.setrecursionlimit(limit)
        assert got == ((0,),) * 1200


@pytest.mark.unchecked_trust  # equality with the reference is the check
class TestSizesAndTablesAgainstMaps:
    """A presheaf holds its value sizes and action tables: every presheaf
    and category of elements the library builds equals the one built with
    a value set per object and a map per morphism, converted."""

    @pytest.mark.parametrize("seed", range(4))
    def test_builders_on_seeded_draws(self, seed):
        """60 draws per seed: elements, fibers, representables, the
        constant presheaf, comprehensive factorizations (of the elements
        projection and of a drawn functor) and isomorphisms."""
        rng = random.Random(700 + seed)
        for _ in range(60):
            c = rand_fincat(rng)
            p = rand_presheaf(rng, c)
            el = elements(p)
            assert el == reference_elements(presheaf_maps(p))
            assert fibers(el.proj) == from_presheaf_maps(reference_fibers(el.proj)) == p
            for b in c.objs:
                assert representable(c, b) == from_presheaf_maps(
                    reference_representable(c, b))
            assert constant_presheaf(c, 2) == from_presheaf_maps(
                reference_constant_presheaf(c, 2))
            g = rand_functor(rng, rand_fincat(rng), c)
            for f in (el.proj,) if g is None else (el.proj, g):
                assert comprehensive_factorization(f) == \
                    reference_comprehensive_factorization(f)
            for q in (relabelled(rng, p), rand_presheaf(rng, c)):
                assert presheaf_iso(p, q) == component_tables(
                    reference_presheaf_iso(presheaf_maps(p), presheaf_maps(q)))

    def test_a_huge_declared_value_set_allocates_nothing(self):
        """A caller's presheaf declaring 2^40 elements at one object, with
        short action tables, fails its typing before any law check asks
        for an identity table, so nothing of the declared size is built."""
        huge = 1 << 40
        for at, m in (((huge, 1), 0), ((1, huge), 1)):
            tracemalloc.start()
            try:
                with pytest.raises(InvariantViolation) as e:
                    Presheaf(ordinal2(), at, ((0,), (0,), (0,)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(e.value) == \
                f"presheaf-boundary: action of morphism {m} mistyped"
            assert peak < 1 << 20


# Reference implementations: the hand-filled constructors that ``_cat``
# replaced, each writing its own composition table, kept as a
# differential oracle.

def reference_discrete_cat(n):
    o = FinSetObj(n)
    rows = [[-1] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = i
    return FinCat(o, FinSetObj(n), identity(o), identity(o), identity(o),
                  tuple(map(tuple, rows)))


def reference_ordinal2():
    o, m = FinSetObj(2), FinSetObj(3)
    return FinCat(o, m, FinSetMap(m, o, (0, 1, 0)), FinSetMap(m, o, (0, 1, 1)),
                  FinSetMap(o, m, (0, 1)),
                  ((0, -1, -1), (-1, 1, 2), (2, -1, -1)))


def reference_product_cat(a, b):
    no, nm = b.objects.size, b.morphisms.size
    o = FinSetObj(a.objects.size * no)
    m = FinSetObj(a.morphisms.size * nm)
    src = FinSetMap(m, o, tuple(a.src(f) * no + b.src(g)
                                for f in a.mors for g in b.mors))
    tgt = FinSetMap(m, o, tuple(a.tgt(f) * no + b.tgt(g)
                                for f in a.mors for g in b.mors))
    ident = FinSetMap(o, m, tuple(a.ident(x) * nm + b.ident(y)
                                  for x in a.objs for y in b.objs))
    comp = tuple(tuple(-1 if c1 < 0 or c2 < 0 else c1 * nm + c2
                       for c1 in row_a for c2 in row_b)
                 for row_a in a.comp for row_b in b.comp)
    return FinCat(o, m, src, tgt, ident, comp)


def reference_comma(f, g, iso_only=False):
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
    o = FinSetObj(len(objects))
    m = FinSetObj(len(morphisms))
    src = FinSetMap(m, o, tuple(s for s, _, _, _ in morphisms))
    tgt = FinSetMap(m, o, tuple(t for _, t, _, _ in morphisms))
    ident = FinSetMap(o, m, tuple(
        mor_index[(i, i, a_cat.ident(a), b_cat.ident(b))]
        for i, (a, b, _) in enumerate(objects)))
    comp_rows = []
    for s2, t2, u2, v2 in morphisms:
        row = []
        for s1, t1, u1, v1 in morphisms:
            if t1 != s2:
                row.append(-1)
            else:
                row.append(mor_index[(s1, t2, a_cat.comp[u2][u1],
                                      b_cat.comp[v2][v1])])
        comp_rows.append(tuple(row))
    cat = FinCat(o, m, src, tgt, ident, tuple(comp_rows))
    proj1 = Functor(cat, a_cat, tuple(a for a, _, _ in objects),
                    tuple(u for _, _, u, _ in morphisms))
    proj2 = Functor(cat, b_cat, tuple(b for _, b, _ in objects),
                    tuple(v for _, _, _, v in morphisms))
    transform = NatTrans(compose_functors(f, proj1), compose_functors(g, proj2),
                         tuple(phi for _, _, phi in objects))
    return Comma(cat, proj1, proj2, transform,
                 tuple(objects), tuple(morphisms))


def reference_elements(p):
    base = p.base
    objects = [(b, t) for b in base.objs for t in p.at[b].elements]
    obj_index = {o: i for i, o in enumerate(objects)}
    morphisms = [(beta, t2) for beta in base.mors
                 for t2 in p.at[base.tgt(beta)].elements]
    mor_index = {m: i for i, m in enumerate(morphisms)}
    o = FinSetObj(len(objects))
    m = FinSetObj(len(morphisms))
    src = FinSetMap(m, o, tuple(
        obj_index[(base.src(beta), p.act[beta](t2))] for beta, t2 in morphisms))
    tgt = FinSetMap(m, o, tuple(
        obj_index[(base.tgt(beta), t2)] for beta, t2 in morphisms))
    ident = FinSetMap(o, m, tuple(
        mor_index[(base.ident(b), t)] for b, t in objects))
    comp_rows = [[-1] * m.size for _ in morphisms]
    for j, (beta1, t1) in enumerate(morphisms):
        for beta2 in base.out_of(base.tgt(beta1)):
            composite = base.comp[beta2][beta1]
            for t2 in p.act[beta2].fiber(t1):
                comp_rows[mor_index[(beta2, t2)]][j] = \
                    mor_index[(composite, t2)]
    cat = FinCat(o, m, src, tgt, ident, tuple(map(tuple, comp_rows)))
    proj = Functor(cat, base, tuple(b for b, _ in objects),
                   tuple(beta for beta, _ in morphisms))
    return ElementsCat(proj, tuple(objects), tuple(morphisms))


def reference_preorder_cat(n, pairs):
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
    o, m = FinSetObj(n), FinSetObj(len(mors))
    comp = tuple(tuple(index[(mors[f][0], mors[g][1])]
                       if mors[f][1] == mors[g][0] else -1
                       for f in range(len(mors)))
                 for g in range(len(mors)))
    return FinCat(o, m,
                  FinSetMap(m, o, tuple(i for i, _ in mors)),
                  FinSetMap(m, o, tuple(j for _, j in mors)),
                  FinSetMap(o, m, tuple(index[(i, i)] for i in range(n))),
                  comp)


def drawn_cats(rng, count):
    """Seeded categories, with the empty one and a discrete one first."""
    return [discrete_cat(0), discrete_cat(2)] + [
        rand_fincat(rng) for _ in range(count)]


class TestCategoryBuilderAgainstReference:
    """Every category built by ``_cat`` equals the one its hand-filled
    reference builds, table for table, together with the functors,
    transformation and data of its comma or elements record."""

    def test_composite_is_asked_only_for_composable_non_identities(self):
        rng = random.Random(640)
        for c in drawn_cats(rng, 60):
            asked = []

            def composite(g, f):
                asked.append((g, f))
                return c.comp[g][f]

            assert _cat(c.objects.size, c.src.table, c.tgt.table,
                        c.ident.table, composite) == c
            non_id = set(c.non_identities)
            assert sorted(asked) == sorted(
                (g, f) for f in non_id for g in c.out_of(c.tgt(f))
                if g in non_id)

    def test_discrete_and_ordinal(self):
        for n in (0, 1, 4):
            assert discrete_cat(n) == reference_discrete_cat(n)
        assert ordinal2() == reference_ordinal2()

    def test_products(self):
        rng = random.Random(641)
        cats = drawn_cats(rng, 12) + [ordinal2(), z2(), indiscrete2()]
        for a in cats:
            for b in (rng.choice(cats), opposite_cat(rng.choice(cats))):
                assert product_cat(a, b) == reference_product_cat(a, b)

    def test_preorders(self):
        rng = random.Random(642)
        for _ in range(80):
            n = rng.randint(0, 4)
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 5))] if n else []
            assert preorder_cat(n, pairs) == reference_preorder_cat(n, pairs)

    @pytest.mark.parametrize("seed", range(3))
    def test_commas(self, seed):
        rng = random.Random(643 + seed)
        checked = 0
        while checked < 25:
            c = rand_fincat(rng)
            f = rand_functor(rng, rand_fincat(rng), c)
            g = rand_functor(rng, rand_fincat(rng), c)
            if f is None or g is None:
                continue
            for iso_only in (False, True):
                assert comma(f, g, iso_only) == reference_comma(f, g, iso_only)
            checked += 1

    def test_arrow_and_empty_commas(self):
        for c in (discrete_cat(0), ordinal2(), z2(), indiscrete2()):
            i = identity_functor(c)
            assert arrow_category(c) == reference_comma(i, i)
            assert iso_comma(i, i) == reference_comma(i, i, True)
            empty = Functor(discrete_cat(0), c, (), ())
            for iso_only in (False, True):
                assert (comma(empty, i, iso_only)
                        == reference_comma(empty, i, iso_only))
                assert (comma(i, empty, iso_only)
                        == reference_comma(i, empty, iso_only))

    @pytest.mark.parametrize("seed", range(3))
    def test_elements(self, seed):
        rng = random.Random(646 + seed)
        for c in drawn_cats(rng, 30):
            for p in (rand_presheaf(rng, c), constant_presheaf(c, 0)):
                assert elements(p) == reference_elements(presheaf_maps(p))
