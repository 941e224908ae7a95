"""Constructions build their result only.  The facts they hold by
construction (the square of a module composite, the triangle identities
of a map's witness, the paste-back of a factorization, the laws of the
categories, modules and squares the library computes) are checked by the
suites and the tests, never again on every call: with those checks made
to raise, each construction must still succeed."""

import random

import pytest

from polyspan import checks, modpoly, polyset, spans
from polyspan.fincat import FinCat, Functor, Presheaf
from polyspan.finset import FinSetMap, FinSetObj, compose
from polyspan.gen import (
    rand_composable_modpolys,
    rand_fincat,
    rand_map,
    rand_poly,
    rand_presheaf,
)
from polyspan.modpoly import ModPolynomial, Profunctor
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
