"""Constructions build their result only.  The facts they hold by
construction (the square of a module composite, the triangle identities
of a map's witness, the paste-back of a factorization, the laws of the
categories, functors, presheaves, modules and squares the library
computes) are checked by the suites and the tests, never again on every
call: with those checks made to raise, each construction must still
succeed."""

import ast
import random
from pathlib import Path

import pytest

from polyspan import checks, fincat, modpoly, polyset, spans
from polyspan.fincat import (
    FinCat,
    Functor,
    NatTrans,
    Presheaf,
    identity_functor,
    opposite_cat,
    product_cat,
    representable,
)
from polyspan.finset import FinSetMap, FinSetObj, compose
from polyspan.gen import (
    preorder_cat,
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
    for cat in (tab.cat, mcomp.S):
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
    composite cells, the graph cells, the unit and counit of a map and the
    triangle identities still succeed, and each cell they built holds the
    checks afterwards."""
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
        cases.append((r, s, t, m, f1, f2))

    built, verdicts = [], []
    with monkeypatch.context() as patch:
        for cls in (FinSetMap, spans.Span, spans.SpanCell):
            patch.setattr(cls, "__post_init__", forbidden)
        for r, s, t, m, f1, f2 in cases:
            assoc, wit = spans.associator(t, s, r), spans.is_map(m)
            built += [wit.unit, wit.counit,
                      spans.whisker_left(t, spans.identity_cell(s)),
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
    what they built holds the checks afterwards.  A morphism holds one
    int table per cell, so its own check types every component."""
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
            iso = modpoly.prof_iso(v, v)
            maps += [iso, modpoly.prof_whisker_left(n, iso),
                     modpoly.rif_mod_counit(n, modpoly.cograph_module(f)),
                     modpoly.dfib_collapse(p, w).compare]

    assert any(mo.source.tgt.non_identities and
               any(map(any, mo.source.at))
               for mo in maps)
    for m in modules:
        m.__post_init__()
    for mo in maps:
        mo.source.__post_init__()
        mo.target.__post_init__()
        mo.__post_init__()


@pytest.mark.unchecked_trust
def test_category_builders_check_nothing(monkeypatch):
    """Every category the library computes is built by ``fincat._cat``, and
    the functors, presheaves, transformations and maps that hold their
    laws by construction are built unchecked: with the checks of all five
    classes raising, the categories, commas, elements, factorizations,
    representables, functor enumerations, the groupoid-fibration tests and
    the cotensor and embedding legs still build, and every value of the
    five classes they built holds the checks afterwards."""
    rng = random.Random(57)
    cases = []
    while len(cases) < 8:
        a, c = rand_fincat(rng), rand_fincat(rng)
        f, g = rand_functor(rng, a, c), rand_functor(rng, rand_fincat(rng), c)
        if f is None or g is None:
            continue
        n = rng.randint(1, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
        cases.append((f, g, rand_presheaf(rng, c), n, pairs,
                      rand_poly(rng, FinSetObj(2), FinSetObj(3))))

    built, verdicts = [], []

    def recorded(build):
        def trusted(cls, *args):
            built.append(build(*args))
            return built[-1]
        return classmethod(trusted)

    with monkeypatch.context() as patch:
        for cls in (FinCat, Functor, Presheaf, NatTrans, FinSetMap):
            patch.setattr(cls, "__post_init__", forbidden)
            patch.setattr(cls, "_trusted", recorded(cls._trusted))
        for f, g, p, n, pairs, poly in cases:
            a, c = f.dom, f.cod
            fincat.discrete_cat(n)
            fincat.ordinal2()
            preorder_cat(n, pairs)
            opposite_cat(c)
            product_cat(a, c)
            fincat.comma(f, g)
            fincat.iso_comma(f, g)
            fincat.arrow_category(c)
            fincat.elements(p)
            modpoly.tabulate_mod(p)
            fincat.comprehensive_factorization(f)
            identity_functor(c)
            fincat.constant_functor(a, c, 0)
            list(fincat.all_functors(a, c))
            fincat.representable(c, c.objects.size - 1)
            fincat.constant_presheaf(c, 2)
            modpoly.cotensor2_mod(a)
            checks.embed_poly(poly)
            verdicts += [fincat.gfib_via_cotensor(f),
                         *(fincat.is_cartesian(f, chi) for chi in a.mors)]

    assert True in verdicts and False in verdicts
    kinds = {type(v) for v in built}
    assert kinds == {FinCat, Functor, Presheaf, NatTrans, FinSetMap}
    for value in built:
        value.__post_init__()


def calls_by_function():
    """Every call in ``src/`` of a name, or of an attribute of a name,
    mapped to the module-level functions it appears in, as
    ``module.function``."""
    calls: dict[str, set[str]] = {}
    for path in sorted(Path(fincat.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Name):
                    name = fn.id
                elif (isinstance(fn, ast.Attribute)
                      and isinstance(fn.value, ast.Name)):
                    name = f"{fn.value.id}.{fn.attr}"
                else:
                    continue
                calls.setdefault(name, set()).add(where)
    return calls


def test_one_builder_per_kind_of_computed_value():
    """Categories are built unchecked only by ``_cat`` (and transposed by
    ``opposite_cat``), modules by ``_built`` and module morphisms by
    ``_coend_map`` and the natural-map search; the document decoder,
    which checks what it builds, is the other way in.  A checked
    category comes only from a caller's tables: a document's or a
    monoid's.  Presheaves are built unchecked by the representables, the
    constant and fiber presheaves, the presheaf of a comprehensive
    factorization, a module's column and a generated sum, and checked only
    when a caller builds one."""
    calls = calls_by_function()
    assert calls["FinCat._trusted"] == {"fincat._cat", "fincat.opposite_cat"}
    assert calls["FinCat"] == {"documents._dec_cat", "fincat.monoid_cat"}
    assert calls["Profunctor._trusted"] == {"modpoly._built",
                                            "documents._dec_prof_tables"}
    assert calls["ProfMorphism._trusted"] == {"modpoly._coend_map",
                                              "modpoly._prof_maps"}
    assert calls["Presheaf._trusted"] == {
        "fincat.representable", "fincat.constant_presheaf", "fincat.fibers",
        "fincat.comprehensive_factorization", "modpoly.module_as_presheaf",
        "gen.presheaf_sum"}
    assert "Presheaf" not in calls


def test_canonical_cells_are_built_unchecked():
    """The cells of the bicategory of spans (whiskers, unitors,
    associators, identity, inverse and vertical composite cells, the graph
    cells and the unit and counit of a map) commute with their legs by
    construction and are built with ``SpanCell._trusted``.  Cells from a
    caller's table or a search are checked: the cells of a right lifting,
    of a bipullback and of a factorization through one."""
    calls = calls_by_function()
    assert calls["SpanCell._trusted"] == {
        "spans._associator", "spans._whisker_left", "spans._whisker_right",
        "spans.graph_compose_cell", "spans.identity_cell",
        "spans.invert_cell", "spans.is_map", "spans.post_graph_cell",
        "spans.triangle_identities_hold", "spans.unitor_cod",
        "spans.unitor_dom", "spans.vcomp"}
    assert calls["SpanCell"] == {
        "spans._factorization", "spans.distributivity_bipullback",
        "spans.enumerate_cells", "spans.factor_through_bipullback",
        "spans.pullback_bipullback", "spans.rif_span", "spans.rif_transpose"}
