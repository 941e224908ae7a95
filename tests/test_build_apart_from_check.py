"""Constructions build their result only.  The facts they hold by
construction (the square of a module composite, the triangle identities
of a map's witness, the paste-back of a factorization) are checked by the
suites and the tests, never again on every call: with those checks made
to raise, each construction must still succeed."""

import random

from polyspan import checks, modpoly, spans
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.gen import rand_composable_modpolys, rand_map


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
