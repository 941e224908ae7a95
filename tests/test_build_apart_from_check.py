"""Constructions build their result only.  The facts they hold by
construction (the square of a module composite, the triangle identities
of a map's witness, the paste-back of a factorization, the laws of the
categories, modules and squares the library computes) are checked by the
suites and the tests, never again on every call: with those checks made
to raise, each construction must still succeed."""

import random

import pytest

from polyspan import checks, modpoly, polyset, spans
from polyspan.fincat import (
    FinCat,
    Functor,
    Presheaf,
    identity_functor,
    opposite_cat,
    product_cat,
    representable,
)
from polyspan.finset import FinSetMap, FinSetObj, compose
from polyspan.gen import (
    rand_composable_modpolys,
    rand_dfib,
    rand_fincat,
    rand_functor,
    rand_map,
    rand_poly,
    rand_presheaf,
    rand_profunctor,
    rand_span,
)
from polyspan.modpoly import ModPolynomial, ProfMorphism, Profunctor
from polyspan.spans import Bipullback, PBAround


def forbidden(*args):
    raise AssertionError("a construction re-checked its own output")


def test_constructions_do_not_re_prove_their_output(monkeypatch):
    rng = random.Random(52)
    pair = None
    while pair is None:
        pair = rand_composable_modpolys(rng)
    p, q = pair
    apex, right = FinSetObj(3), FinSetObj(2)
    s = spans.Span(apex, right, apex, FinSetMap(apex, apex, (2, 0, 1)),
                   rand_map(rng, apex, right))
    f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
    g = FinSetMap(FinSetObj(4), FinSetObj(3), (0, 0, 1, 2))
    bp = spans.distributivity_bipullback(spans.distributivity_pullback(f, g))
    cone = spans.distributivity_bipullback(spans.random_pb_around(f, g, 7))

    real_compose = modpoly.prof_compose
    composed = []

    def counted_compose(n, m):
        composed.append((n, m))
        return real_compose(n, m)

    with monkeypatch.context() as patch:
        for module, name in ((modpoly, "prof_iso"),
                             (modpoly, "graph_module"),
                             (spans, "triangle_identities_hold"),
                             (spans, "paste_factorization")):
            patch.setattr(module, name, forbidden)
        patch.setattr(modpoly, "prof_compose", counted_compose)
        comp = modpoly.compose_polymod(q, p)
        w = spans.is_map(s)
        fac = spans.factor_through_bipullback(bp, cone.d, cone.c, cone.theta)

    # one coend, p.m∘n; and what was built holds what was not checked
    assert len(composed) == 1 and composed[0][0] == p.m
    parts, wrong = checks.witnessed_parts(q, p)
    assert comp == parts.poly and wrong == []
    assert w is not None and spans.triangle_identities_hold(s, w)
    assert spans.paste_factorization(bp, fac) == cone.theta


TRUSTED = (FinCat, Profunctor, PBAround, Bipullback)


@pytest.mark.unchecked_trust
def test_library_built_values_skip_their_checks(monkeypatch):
    """Categories, modules, pullbacks-around and bipullbacks the library
    computes are built with ``_trusted``: with their four
    ``__post_init__`` methods raising, set and module composition and the
    tabulation still succeed, and a set composite builds no bipullback."""
    rng = random.Random(53)
    x, y, z = FinSetObj(2), FinSetObj(3), FinSetObj(2)
    p, q = rand_poly(rng, x, y), rand_poly(rng, y, z)
    pair = None
    while pair is None:
        pair = rand_composable_modpolys(rng)
    mp, mq = pair
    u = rand_presheaf(rng, rand_fincat(rng))
    f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
    g = FinSetMap(FinSetObj(4), FinSetObj(3), (0, 0, 1, 2))

    with monkeypatch.context() as patch:
        for cls in TRUSTED:
            patch.setattr(cls, "__post_init__", forbidden)
        with monkeypatch.context() as no_bp:
            for module in (spans, polyset):
                no_bp.setattr(module, "distributivity_bipullback", forbidden)
            parts = polyset.composite_parts(q, p)
            comp = polyset.compose_poly(q, p)
        mcomp = modpoly.compose_polymod(mq, mp)
        tab = modpoly.tabulate_mod(u)
        pba = spans.distributivity_pullback(f, g)
        bps = (spans.distributivity_bipullback(pba),
               spans.pullback_bipullback(f, compose(f, g)))

    # with the checks back, what was built holds them
    assert comp == parts.poly == polyset.compose_poly(q, p)
    parts.pba.__post_init__()
    pba.__post_init__()
    for bp in bps + (spans.distributivity_bipullback(parts.pba),):
        bp.__post_init__()
    for cat in (tab.el.cat, mcomp.S):
        cat.__post_init__()
    mcomp.m.__post_init__()
    assert mcomp == checks.witnessed_parts(mq, mp)[0].poly


@pytest.mark.unchecked_trust
def test_module_composition_checks_nothing_it_builds(monkeypatch):
    """Every map, functor, presheaf, module and polynomial a module
    composite is made of holds its laws by construction: with the checks
    of all six classes raising, ``compose_polymod`` still succeeds."""
    rng = random.Random(54)
    for _ in range(5):
        pair = None
        while pair is None:
            pair = rand_composable_modpolys(rng)
        p, q = pair
        with monkeypatch.context() as patch:
            for cls in (FinSetMap, FinCat, Functor, Presheaf, Profunctor,
                        ModPolynomial):
                patch.setattr(cls, "__post_init__", forbidden)
            comp = modpoly.compose_polymod(q, p)
        comp.__post_init__()
        comp.m.__post_init__()
        comp.p.__post_init__()
        assert comp == checks.witnessed_parts(q, p)[0].poly


@pytest.mark.unchecked_trust
def test_span_cells_check_nothing_they_build(monkeypatch):
    """The canonical spans and cells commute with their legs by
    construction: with the checks of maps, spans and cells raising, the
    whiskers, unitors, associators, inverse, identity and vertical
    composite cells, the graph cells and the triangle identities still
    succeed, and each cell they built holds the checks afterwards."""
    rng = random.Random(55)
    cases = []
    for _ in range(20):
        x, y, z, w = (FinSetObj(rng.randint(1, 3)) for _ in range(4))
        r, s, t = (rand_span(rng, a, b) for a, b in ((x, y), (y, z), (z, w)))
        perm = list(y.elements)
        rng.shuffle(perm)
        m = spans.Span(y, z, y, FinSetMap(y, y, tuple(perm)),
                       rand_map(rng, y, z))
        f1, f2 = rand_map(rng, x, y), rand_map(rng, y, z)
        cases.append((r, s, t, m, spans.is_map(m), f1, f2))

    built, verdicts = [], []
    with monkeypatch.context() as patch:
        for cls in (FinSetMap, spans.Span, spans.SpanCell):
            patch.setattr(cls, "__post_init__", forbidden)
        for r, s, t, m, wit, f1, f2 in cases:
            assoc = spans.associator(t, s, r)
            built += [spans.whisker_left(t, spans.identity_cell(s)),
                      spans.whisker_right(spans.identity_cell(s), r),
                      spans.whisker_left(m, wit.unit),
                      spans.whisker_right(wit.counit, m),
                      spans.unitor_dom(s), spans.unitor_cod(s), assoc,
                      spans.identity_cell(t),
                      spans.vcomp(spans.invert_cell(assoc), assoc),
                      spans.graph_compose_cell(f2, f1),
                      spans.post_graph_cell(f2, spans.graph(f1))]
            verdicts.append(spans.triangle_identities_hold(m, wit))

    assert all(verdicts)
    for cell in built:
        for value in (cell.h, cell.source, cell.target, cell):
            value.__post_init__()


@pytest.mark.unchecked_trust
def test_module_builders_and_maps_check_nothing(monkeypatch):
    """Every module the library computes is built by ``modpoly._built``,
    every morphism out of a coend by ``modpoly._coend_map``, and the
    search for natural maps builds its own results: with the module and
    morphism checks raising, the graph, cograph, identity, presheaf and
    discrete modules, the isomorphism search, whiskering, the counit of a
    right lifting and the collapse onto a fiberwise sum still succeed, and
    what they built holds the checks afterwards.  The morphisms'
    components are built unchecked too."""
    rng = random.Random(56)
    cases = []
    while len(cases) < 6:
        a, b = rand_fincat(rng), rand_fincat(rng)
        f = rand_functor(rng, a, b)
        if f is None or not b.non_identities:
            continue
        cases.append((
            f, rand_presheaf(rng, product_cat(b, opposite_cat(a))),
            representable(b, b.tgt(b.non_identities[0])),
            rand_poly(rng, FinSetObj(3), FinSetObj(2)),
            rand_profunctor(rng, b, a, max_cell=2), rand_dfib(rng, a)))

    modules, maps = [], []
    with monkeypatch.context() as patch:
        patch.setattr(Profunctor, "__post_init__", forbidden)
        patch.setattr(Profunctor, "_check_laws", forbidden)
        patch.setattr(ProfMorphism, "__post_init__", forbidden)
        for f, psh, u, poly, n, p in cases:
            a, b = f.dom, f.cod
            v = modpoly.presheaf_as_module(u)
            w = modpoly.graph_module(identity_functor(p.dom))
            modules += [modpoly.graph_module(f), modpoly.cograph_module(f),
                        modpoly.identity_module(a), v,
                        modpoly.prof_from_presheaf(a, b, psh),
                        checks.embed_poly(poly).m]
            with monkeypatch.context() as maps_too:  # and their components
                maps_too.setattr(FinSetMap, "__post_init__", forbidden)
                iso = modpoly.prof_iso(v, v)
                maps += [iso, modpoly.prof_whisker_left(n, iso),
                         modpoly.rif_mod_counit(n, modpoly.cograph_module(f)),
                         modpoly.dfib_collapse(p, w).compare]

    assert any(mo.source.tgt.non_identities and
               any(v.size for row in mo.source.at for v in row)
               for mo in maps)
    for m in modules:
        m.__post_init__()
    for mo in maps:
        for f in (f for row in mo.h for f in row):
            f.__post_init__()
        mo.source.__post_init__()
        mo.target.__post_init__()
        mo.__post_init__()
