"""Polynomial extension semantics, composition, and morphisms."""

import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyspan import checks, finset, gen, polyset, spans
from polyspan.documents import document, serialize
from polyspan.errors import InvariantViolation
from polyspan.finset import FinSetMap, FinSetObj, compose, identity, pullback
from polyspan.polyset import (
    FamilyMap,
    PolyMorphism,
    Polynomial,
    are_isomorphic_poly,
    are_isomorphic_polymorph,
    compose_poly,
    composite_parts,
    extension_eval,
    extension_on_map,
    family_of,
    hK_span,
    hcompose_polymorph,
    identity_poly,
    identity_polymorph,
    is_strong,
    m_span,
    p_span,
    polymorph_extension,
    vcompose_polymorph,
)
from polyspan.spans import (
    Span,
    SpanCell,
    compose_spans,
    composite,
    composition_square,
    distributivity_pullback,
    factor_through_bipullback,
    graph,
    identity_span,
    paste_factorization,
    vcomp,
    whisker_left,
)

ONE = FinSetObj(1)


def monomial(n):
    """X = Y = 1, S = 1, |E| = n."""
    e = FinSetObj(n)
    return Polynomial(ONE, e, ONE, ONE,
                      FinSetMap(e, ONE, (0,) * n),
                      FinSetMap(e, ONE, (0,) * n),
                      identity(ONE))


def a_plus_one():
    """S = 2 with E-fibers of sizes 1 and 0: the polynomial A + 1."""
    return Polynomial(ONE, FinSetObj(1), FinSetObj(2), ONE,
                      FinSetMap(FinSetObj(1), ONE, (0,)),
                      FinSetMap(FinSetObj(1), FinSetObj(2), (0,)),
                      FinSetMap(FinSetObj(2), ONE, (0, 0)))


def rand_map(rng, dom, cod):
    return FinSetMap(dom, cod, tuple(rng.randrange(cod.size)
                                     for _ in range(dom.size)))


def rand_poly(rng, x, y, emax=5, smax=5):
    s = FinSetObj(rng.randint(0, smax))
    e = FinSetObj(rng.randint(0, emax) if s.size and x.size else 0)
    return Polynomial(
        x, e, s, y,
        rand_map(rng, e, x) if x.size else FinSetMap(e, x, ()),
        rand_map(rng, e, s) if s.size else FinSetMap(e, s, ()),
        rand_map(rng, s, y))


def rand_family(rng, base, tmax=4):
    t = FinSetObj(rng.randint(0, tmax) if base.size else 0)
    return family_of(rand_map(rng, t, base)
                     if base.size else FinSetMap(t, base, ()))


def rand_family_map(rng, a):
    """A family over the same base together with a map into it from a."""
    sizes = [rng.randint(1, 3) if a.fiber(b) else rng.randint(0, 2)
             for b in a.base.elements]
    proj_table = []
    for b, n in enumerate(sizes):
        proj_table.extend([b] * n)
    tgt = family_of(FinSetMap(FinSetObj(sum(sizes)), a.base,
                              tuple(proj_table)))
    table = tuple(rng.choice(tgt.fiber(a.proj(i)))
                  for i in a.total.elements)
    return FamilyMap(a, tgt, FinSetMap(a.total, tgt.total, table))


def fiber_sizes(fam):
    return tuple(len(fam.fiber(b)) for b in fam.base.elements)


def span_matrix(s):
    """Fiber counts over pairs of feet; equal matrices mean isomorphic
    spans since any fiberwise bijection is an invertible cell."""
    m = {}
    for a in s.apex.elements:
        key = (s.left_leg(a), s.right_leg(a))
        m[key] = m.get(key, 0) + 1
    return m


def _ext_elements(P, A):
    """The reference enumeration of ext(P)(A): elements (y, s, sigma) with
    y ascending, then s within the p-fiber, then sigma lexicographically
    over the ascending m2-fiber; sigma holds indices into A.total."""
    out = []
    for y in P.Y.elements:
        for s in P.p.fiber(y):
            cand = [A.fiber(P.m1(e)) for e in P.m2.fiber(s)]
            for sigma in itertools.product(*cand):
                out.append((y, s, sigma))
    return out


def _ext_family(P, elements):
    """The family over Y of enumerated extension elements."""
    total = FinSetObj(len(elements))
    return family_of(FinSetMap(total, P.Y, tuple(y for y, _, _ in elements)))


def ref_extension_on_map(P, fm):
    """The enumerating action on maps: each pushed-forward element is
    looked up among the enumerated elements of the target."""
    index = {elt: i for i, elt in enumerate(_ext_elements(P, fm.tgt))}
    h = fm.h.table
    return tuple(index[(y, s, tuple(h[a] for a in sigma))]
                 for y, s, sigma in _ext_elements(P, fm.src))


def ref_polymorph_extension(f, a):
    """The enumerating action of a morphism: each section pulled back
    through lam is looked up among the enumerated target elements."""
    index = {e: i for i, e in enumerate(_ext_elements(f.target, a))}
    left_inv = f.h.left_leg.inverse()
    sq = composition_square(m_span(f.target), f.h)
    table = []
    for y, s, sigma in _ext_elements(f.source, a):
        t = left_inv(s)
        s2 = f.h.right_leg(t)
        fib = f.source.m2.fiber(s)
        sig2 = tuple(sigma[fib.index(f.lam.h(sq.index(t, e2)))]
                     for e2 in f.target.m2.fiber(s2))
        table.append(index[(f.target.p(s2), s2, sig2)])
    return tuple(table)


def composite_bijection(Q, P, A):
    """The element-level bijection ext(Q o P)(A) -> ext(Q)(ext(P)(A))."""
    parts = composite_parts(Q, P)
    n = parts.poly
    ext_p = extension_eval(P, A)
    idx_p = {e: i for i, e in enumerate(_ext_elements(P, A))}
    idx_q = {e: i for i, e in enumerate(_ext_elements(Q, ext_p))}
    sq = pullback(parts.pba.r, Q.m2)
    e_pairs = {pair: i for i, pair in enumerate(
        composition_square(m_span(P), parts.n_tilde).pairs)}
    table = []
    for z, w, sigma in _ext_elements(n, A):
        fib = n.m2.fiber(w)
        s_q = parts.pba.r(w)
        sig_q = []
        for e_q in Q.m2.fiber(s_q):
            v = sq.index(w, e_q)
            s_p = parts.pb1.pairs[parts.pba.p(v)][0]
            sig_p = tuple(sigma[fib.index(e_pairs[(v, e_p)])]
                          for e_p in P.m2.fiber(s_p))
            sig_q.append(idx_p[(Q.m1(e_q), s_p, sig_p)])
        table.append(idx_q[(z, s_q, tuple(sig_q))])
    return table


def reference_compose_poly(Q, P):
    """The composite as its squares build it: the positions are the
    distributivity pullback of Q.m2 along the pullback of P.p against
    Q.m1, and the directions the composite of P's lifter span with the
    span that evaluates sections."""
    pb1 = pullback(P.p, Q.m1)
    pba = distributivity_pullback(Q.m2, pb1.pr2)
    n_tilde = Span(pba.r.dom, P.S, pba.p.dom, pba.q, compose(pb1.pr1, pba.p))
    mspan, _ = composite(m_span(P), n_tilde)
    return Polynomial(P.X, mspan.apex, pba.r.dom, Q.Y, mspan.right_leg,
                      mspan.left_leg, compose(Q.p, pba.r))


def relabel_morphism(p, perm_s):
    """A strong morphism from p to the copy with S relabeled by perm_s."""
    s2 = FinSetObj(p.S.size)
    inv = [0] * len(perm_s)
    for i, j in enumerate(perm_s):
        inv[j] = i
    sigma = FinSetMap(p.S, s2, tuple(perm_s))
    p2 = Polynomial(p.X, p.E, s2, p.Y, p.m1,
                    compose(sigma, p.m2),
                    compose(p.p, FinSetMap(s2, p.S, tuple(inv))))
    h = graph(sigma)
    lam_src = compose_spans(m_span(p2), h)
    sq = composition_square(m_span(p2), h)
    lam = SpanCell(lam_src, m_span(p),
                   FinSetMap(lam_src.apex, p.E,
                             tuple(e for _, e in sq.pairs)))
    rho_tgt = compose_spans(p_span(p2), h)
    sq2 = composition_square(p_span(p2), h)
    back = {a: i for i, (a, _) in enumerate(sq2.pairs)}
    rho = SpanCell(p_span(p), rho_tgt,
                   FinSetMap(p.S, rho_tgt.apex,
                             tuple(back[s] for s in p.S.elements)))
    return PolyMorphism(p, p2, h, lam, rho)


def collapse_morphism():
    """A -> A^2 over the identity h; lam folds both slots onto the single
    input position, so the morphism is lax but not strong."""
    p, p2 = monomial(1), monomial(2)
    h = identity_span(ONE)
    lam_src = compose_spans(m_span(p2), h)
    lam = SpanCell(lam_src, m_span(p),
                   FinSetMap(lam_src.apex, p.E, (0,) * lam_src.apex.size))
    rho_tgt = compose_spans(p_span(p2), h)
    rho = SpanCell(p_span(p), rho_tgt, FinSetMap(ONE, rho_tgt.apex, (0,)))
    return PolyMorphism(p, p2, h, lam, rho)


def conjugate_h(f, rel):
    """Replace h by an isomorphic span, transporting lam and rho through
    the comparison cell.  rel must be a bijection on the h apex."""
    h2 = Span(f.h.left_foot, f.h.right_foot, f.h.apex,
              compose(f.h.left_leg, rel), compose(f.h.right_leg, rel))
    cell = SpanCell(h2, f.h, rel)
    lam2 = vcomp(f.lam, whisker_left(m_span(f.target), cell))
    lifted = whisker_left(p_span(f.target), cell)
    inv_table = [0] * lifted.h.cod.size
    for i in lifted.h.dom.elements:
        inv_table[lifted.h(i)] = i
    rho2 = SpanCell(f.rho.source, lifted.source,
                    compose(FinSetMap(lifted.h.cod, lifted.h.dom,
                                      tuple(inv_table)), f.rho.h))
    return PolyMorphism(f.source, f.target, h2, lam2, rho2)


class TestExtension:
    def test_identity_poly_keeps_family(self):
        rng = random.Random(3)
        x = FinSetObj(3)
        a = rand_family(rng, x)
        out = extension_eval(identity_poly(x), a)
        assert fiber_sizes(out) == fiber_sizes(a)

    def test_square_fiber_nine(self):
        a = family_of(FinSetMap(FinSetObj(3), ONE, (0, 0, 0)))
        out = extension_eval(monomial(2), a)
        assert fiber_sizes(out) == (9,)

    def test_empty_conventions(self):
        # no s over y gives an empty fiber; no e over s gives a singleton
        p_empty = Polynomial(ONE, FinSetObj(0), FinSetObj(0), ONE,
                             FinSetMap(FinSetObj(0), ONE, ()),
                             FinSetMap(FinSetObj(0), FinSetObj(0), ()),
                             FinSetMap(FinSetObj(0), ONE, ()))
        a = family_of(FinSetMap(FinSetObj(2), ONE, (0, 0)))
        assert fiber_sizes(extension_eval(p_empty, a)) == (0,)
        assert fiber_sizes(extension_eval(a_plus_one(), a)) == (3,)

    def test_base_mismatch_rejected(self):
        a = family_of(FinSetMap(FinSetObj(1), FinSetObj(2), (0,)))
        with pytest.raises(InvariantViolation, match="extension-base"):
            extension_eval(monomial(2), a)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_monomial_extension_counts(self, n, asize):
        a = family_of(FinSetMap(FinSetObj(asize), ONE, (0,) * asize))
        assert fiber_sizes(extension_eval(monomial(n), a)) == (asize ** n,)


class TestExtensionOnMap:
    def test_identity_action(self):
        rng = random.Random(7)
        p = rand_poly(rng, FinSetObj(2), FinSetObj(2))
        a = rand_family(rng, p.X)
        out = extension_on_map(p, FamilyMap(a, a, identity(a.total)))
        assert out.h == identity(out.src.total)

    def test_collapse_action(self):
        a = family_of(FinSetMap(FinSetObj(2), ONE, (0, 0)))
        b = family_of(FinSetMap(FinSetObj(1), ONE, (0,)))
        fm = FamilyMap(a, b, FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0)))
        out = extension_on_map(monomial(2), fm)
        assert out.src.total.size == 4 and out.tgt.total.size == 1
        assert out.h.table == (0, 0, 0, 0)

    def test_composition_action(self):
        rng = random.Random(11)
        for _ in range(30):
            x = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, FinSetObj(rng.randint(1, 2)), 4, 3)
            a = rand_family(rng, x)
            fm1 = rand_family_map(rng, a)
            fm2 = rand_family_map(rng, fm1.tgt)
            both = FamilyMap(a, fm2.tgt, compose(fm2.h, fm1.h))
            assert extension_on_map(p, both).h \
                == compose(extension_on_map(p, fm2).h,
                           extension_on_map(p, fm1).h)

    def test_each_extension_is_counted_once(self, monkeypatch):
        """The families of the image are the extensions of both ends, each
        from the one rank of its side."""
        calls = []
        real = polyset.ExtensionRank

        def counted(P, A):
            calls.append(A)
            return real(P, A)

        rng = random.Random(13)
        for _ in range(20):
            x = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, FinSetObj(rng.randint(1, 2)), 4, 3)
            fm = rand_family_map(rng, rand_family(rng, x))
            monkeypatch.setattr(polyset, "ExtensionRank", counted)
            out = extension_on_map(p, fm)
            monkeypatch.undo()
            assert calls == [fm.src, fm.tgt]
            calls.clear()
            assert out.src == extension_eval(p, fm.src)
            assert out.tgt == extension_eval(p, fm.tgt)


class TestComposePoly:
    def test_monomial_six(self):
        n = compose_poly(monomial(3), monomial(2))
        assert n.E.size == 6 and n.S.size == 1

    def test_a_plus_one_twice(self):
        n = compose_poly(a_plus_one(), a_plus_one())
        assert n.S.size == 3 and n.E.size == 1

    def test_identity_left_and_right(self):
        rng = random.Random(13)
        for _ in range(20):
            x = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, y, 3, 3)
            assert are_isomorphic_poly(compose_poly(identity_poly(y), p), p)
            assert are_isomorphic_poly(compose_poly(p, identity_poly(x)), p)

    def test_boundary_mismatch(self):
        p = rand_poly(random.Random(1), FinSetObj(1), FinSetObj(2))
        q = rand_poly(random.Random(2), FinSetObj(3), FinSetObj(1))
        with pytest.raises(InvariantViolation, match="poly-compose-boundary"):
            compose_poly(q, p)

    def test_extension_oracle_with_bijection(self):
        rng = random.Random(17)
        for _ in range(40):
            x = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            z = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, y, 4, 4)
            q = rand_poly(rng, y, z, 4, 4)
            n = compose_poly(q, p)
            a = rand_family(rng, x)
            direct = extension_eval(n, a)
            nested = extension_eval(q, extension_eval(p, a))
            assert fiber_sizes(direct) == fiber_sizes(nested)
            table = composite_bijection(q, p, a)
            assert sorted(table) == list(range(nested.total.size))
            for i, j in enumerate(table):
                assert direct.proj(i) == nested.proj(j)

    def test_bijection_is_natural(self):
        rng = random.Random(19)
        for _ in range(10):
            x = FinSetObj(rng.randint(1, 2))
            y = FinSetObj(rng.randint(1, 2))
            z = FinSetObj(rng.randint(1, 2))
            p = rand_poly(rng, x, y, 3, 3)
            q = rand_poly(rng, y, z, 3, 3)
            n = compose_poly(q, p)
            a = rand_family(rng, x)
            for _ in range(2):
                fm = rand_family_map(rng, a)
                phi_src = composite_bijection(q, p, fm.src)
                phi_tgt = composite_bijection(q, p, fm.tgt)
                down = extension_on_map(n, fm).h
                across = extension_on_map(q, extension_on_map(p, fm)).h
                for i in range(len(phi_src)):
                    assert phi_tgt[down(i)] == across(phi_src[i])

    def test_associativity_pointwise(self):
        rng = random.Random(23)
        for _ in range(50):
            x = FinSetObj(rng.randint(1, 2))
            y = FinSetObj(rng.randint(1, 2))
            z = FinSetObj(rng.randint(1, 2))
            w = FinSetObj(rng.randint(1, 2))
            p = rand_poly(rng, x, y, 3, 3)
            q = rand_poly(rng, y, z, 3, 3)
            r = rand_poly(rng, z, w, 3, 3)
            left = compose_poly(compose_poly(r, q), p)
            right = compose_poly(r, compose_poly(q, p))
            a = rand_family(rng, x)
            assert fiber_sizes(extension_eval(left, a)) \
                == fiber_sizes(extension_eval(right, a))


def finite_sets():
    """Sizes 0 to 4, with or without distinct labels."""
    return st.integers(0, 4).flatmap(lambda n: st.one_of(
        st.just(FinSetObj(n)),
        st.lists(st.text("abc", min_size=1, max_size=2), min_size=n,
                 max_size=n, unique=True).map(
            lambda labels: FinSetObj(n, tuple(labels)))))


@st.composite
def polynomials(draw, x, y):
    """Any polynomial from x to y with at most 4 positions and 4
    directions: positions may have no directions, and labels in x or
    points of y may have no position."""
    def table(dom, cod):
        if not dom:
            return ()
        return tuple(draw(st.lists(st.integers(0, cod - 1), min_size=dom,
                                   max_size=dom)))
    s = FinSetObj(draw(st.integers(0, 4)) if y.size else 0)
    e = FinSetObj(draw(st.integers(0, 4)) if s.size and x.size else 0)
    return Polynomial(x, e, s, y, FinSetMap(e, x, table(e.size, x.size)),
                      FinSetMap(e, s, table(e.size, s.size)),
                      FinSetMap(s, y, table(s.size, y.size)))


@st.composite
def composable_pairs(draw):
    x, y, z = draw(finite_sets()), draw(finite_sets()), draw(finite_sets())
    return draw(polynomials(y, z)), draw(polynomials(x, y))


def _labelled_edges():
    """Labelled X and Y; the second position of P has no directions, the
    point b of Y has no position of P, and the second direction of Q is
    labelled b."""
    x, y, z = FinSetObj(1, ("a",)), FinSetObj(2, ("a", "b")), FinSetObj(1)
    e1, e3, s2 = FinSetObj(1), FinSetObj(3), FinSetObj(2)
    p = Polynomial(x, e1, s2, y, FinSetMap(e1, x, (0,)),
                   FinSetMap(e1, s2, (0,)), FinSetMap(s2, y, (0, 0)))
    q = Polynomial(y, e3, s2, z, FinSetMap(e3, y, (0, 1, 0)),
                   FinSetMap(e3, s2, (0, 0, 1)), FinSetMap(s2, z, (0, 0)))
    return q, p


LABELLED_EDGES = _labelled_edges()


def structured(rng, n):
    """|X| = |S| = |Y| = n, two directions per position, p the identity:
    the shape of the benchmark's doubling series."""
    x, e = FinSetObj(n), FinSetObj(2 * n)
    return Polynomial(x, e, x, x,
                      FinSetMap(e, x, tuple(rng.randrange(n)
                                            for _ in range(2 * n))),
                      FinSetMap(e, x, tuple(i // 2 for i in range(2 * n))),
                      identity(x))


def constant(k):
    """The constant polynomial k from 1 to 1: k positions, no directions."""
    s, e = FinSetObj(k), FinSetObj(0)
    return Polynomial(ONE, e, s, ONE, FinSetMap(e, ONE, ()),
                      FinSetMap(e, s, ()), FinSetMap(s, ONE, (0,) * k))


class TestCountedComposite:
    """``compose_poly`` counts the composite from fiber indexes; the
    squares the 2-cells read list the same elements in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(composable_pairs())
    @example(LABELLED_EDGES)
    def test_equals_the_square_built_composite(self, pair):
        q, p = pair
        n = compose_poly(q, p)
        assert n == reference_compose_poly(q, p)
        over = [p.p.fiber(x) for x in p.Y.elements]
        assert polyset._composite_size(
            q.m2._fibers, q.m1.table, [len(ts) for ts in over],
            [sum(len(p.m2.fiber(t)) for t in ts) for ts in over]) \
            == (n.S.size, n.E.size)

    def test_equal_documents_on_seeded_pairs(self):
        rng = random.Random(29)
        edges = {"a position with no directions": 0,
                 "a label with no position": 0}
        for _ in range(300):
            x, y, z = (FinSetObj(rng.randint(0, 3)) for _ in range(3))
            p = gen.rand_poly(rng, x, y, smax=4, emax=3)
            q = gen.rand_poly(rng, y, z, smax=4, emax=3)
            got = compose_poly(q, p)
            want = reference_compose_poly(q, p)
            assert serialize(document("polynomial", got)) \
                == serialize(document("polynomial", want))
            edges["a position with no directions"] += any(
                not p.m2.fiber(s) for s in p.S.elements)
            edges["a label with no position"] += any(
                not p.p.fiber(q.m1(e)) for e in q.E.elements)
        assert all(edges.values()), edges

    @pytest.mark.parametrize("n", [25, 50, 100, 200])
    def test_the_structured_series(self, n):
        rng = random.Random(n)
        p, q = structured(rng, n), structured(rng, n)
        c = compose_poly(q, p)
        assert c == reference_compose_poly(q, p)
        assert (c.S.size, c.E.size) == (n, 4 * n)

    def test_no_pullback_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("compose_poly built a square")
        for module in (finset, spans, polyset):
            for name in ("pullback", "pi_f", "distributivity_pullback",
                         "composite"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        rng = random.Random(31)
        for _ in range(50):
            x, y, z = (FinSetObj(rng.randint(1, 3)) for _ in range(3))
            p, q = rand_poly(rng, x, y, 4, 4), rand_poly(rng, y, z, 4, 4)
            compose_poly(q, p)

    def test_the_squares_index_the_composite(self):
        rng = random.Random(37)
        for _ in range(60):
            x, y, z = (FinSetObj(rng.randint(0, 3)) for _ in range(3))
            p = gen.rand_poly(rng, x, y, smax=4, emax=3)
            q = gen.rand_poly(rng, y, z, smax=4, emax=3)
            parts = composite_parts(q, p)
            n, sq = parts.poly, parts.directions
            assert n == compose_poly(q, p)
            assert sq.apex == n.E and parts.pba.r.dom == n.S
            assert compose(parts.n_tilde.left_leg, sq.pr1) == n.m2
            assert compose(p.m1, sq.pr2) == n.m1
            assert compose(q.p, parts.pba.r) == n.p

    def test_an_oversized_composite_is_refused_before_it_is_built(self):
        """y^64 after the constant 2 has 2^64 positions, past
        sys.maxsize: it is refused from the fiber sizes, in well under a
        second and with almost no memory."""
        q, p = monomial(64), constant(2)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(InvariantViolation, match="^composite-size: "):
                compose_poly(q, p)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1 and peak < 1 << 20

    def test_the_size_bound_is_sys_maxsize(self):
        """A count is capped, not wrapped: a huge product times an empty
        fiber is still empty, and both counts stop at sys.maxsize + 1."""
        size = polyset._composite_size
        past = sys.maxsize + 1
        assert size([(0,)], [0], [sys.maxsize], [0]) == (sys.maxsize, 0)
        assert size([(0,)], [0], [past], [0]) == (past, 0)
        assert size([(0,)], [0], [1], [past + 5]) == (1, past)
        assert size([(0, 1, 2)], [0, 1, 2], [1 << 62, 4, 0], [1, 1, 0]) \
            == (0, 0)
        assert size([(0, 1)], [0, 0], [1 << 40], [1 << 40]) == (past, past)
        assert size([(), ()], [], [], []) == (2, 0)


def rand_lax_morphism(rng, x, y):
    """A morphism P -> P' whose h is the graph of a map g over Y from the
    positions of P to those of P', and whose lam sends each direction
    over g(s) to a random direction over s with its label: lam may fold
    several directions onto one, or leave some out, so it is often not
    strong."""
    target = rand_poly(rng, x, y, 4, 3) if y.size else gen.rand_poly(rng, x, y)
    s = FinSetObj(rng.randint(0, 3) if target.S.size else 0)
    g = rand_map(rng, s, target.S)
    m1, m2 = [], []
    for si in s.elements:
        labels = sorted({target.m1(e2) for e2 in target.m2.fiber(g(si))})
        labels += [rng.randrange(x.size) for _ in range(rng.randint(0, 2))
                   if x.size]
        m1 += labels
        m2 += [si] * len(labels)
    order = list(range(len(m1)))
    rng.shuffle(order)  # interleave the m2-fibers
    e = FinSetObj(len(m1))
    source = Polynomial(x, e, s, y,
                        FinSetMap(e, x, tuple(m1[i] for i in order)),
                        FinSetMap(e, s, tuple(m2[i] for i in order)),
                        compose(target.p, g))
    h = graph(g)
    lam_src = compose_spans(m_span(target), h)
    lam = tuple(rng.choice([d for d in source.m2.fiber(t)
                            if source.m1(d) == target.m1(e2)])
                for t, e2 in composition_square(m_span(target), h).pairs)
    rho_tgt = compose_spans(p_span(target), h)
    back = {t: i for i, (t, _) in
            enumerate(composition_square(p_span(target), h).pairs)}
    return PolyMorphism(
        source, target, h,
        SpanCell(lam_src, m_span(source), FinSetMap(lam_src.apex, e, lam)),
        SpanCell(p_span(source), rho_tgt,
                 FinSetMap(s, rho_tgt.apex,
                           tuple(back[t] for t in s.elements))))


def seeded_draws(seed, count):
    """Seeded polynomials and families, both generators' shapes: ``gen``
    keeps each m2-fiber contiguous, the local ``rand_poly`` interleaves
    them.  Every fourth draw may have empty X or Y, and families are
    small enough to leave fibers empty."""
    rng = random.Random(seed)
    for i in range(count):
        lo = 0 if i % 4 == 0 else 1
        x, y = FinSetObj(rng.randint(lo, 3)), FinSetObj(rng.randint(lo, 3))
        p = (rand_poly(rng, x, y, 4, 4) if i % 2 and y.size
             else gen.rand_poly(rng, x, y, smax=4, emax=3))
        yield rng, p, gen.rand_family(rng, x, tmax=2)


class TestCountingAgainstEnumeration:
    """Ranks from fiber sizes give what enumerating every element gave:
    the same families, the same tables and the same element order."""

    def test_eval_is_the_enumerated_family(self):
        edges = {"empty X": 0, "empty Y": 0, "a position with no directions": 0,
                 "an empty fiber in a product": 0}
        for _, p, a in seeded_draws(81, 300):
            assert extension_eval(p, a) == _ext_family(p, _ext_elements(p, a))
            edges["empty X"] += not p.X.size
            edges["empty Y"] += not p.Y.size
            edges["a position with no directions"] += any(
                not p.m2.fiber(s) for s in p.S.elements)
            edges["an empty fiber in a product"] += any(
                not a.fiber(p.m1(e)) for e in p.E.elements)
        assert min(edges.values()) >= 10, edges

    def test_the_rank_of_the_kth_element_is_k(self):
        for _, p, a in seeded_draws(83, 300):
            rank = polyset.ExtensionRank(p, a)
            elements = _ext_elements(p, a)
            assert rank.start[-1] == len(elements)
            for k, (y, s, sigma) in enumerate(elements):
                assert rank.start[y] <= k < rank.start[y + 1]
                assert rank.offset[s] + sum(
                    rank.digit(t) * rank.weight[e]
                    for t, e in zip(sigma, p.m2.fiber(s))) == k

    def test_empty_conventions_count(self):
        """An empty fiber of A in a product gives 0 sections, an empty
        m2-fiber gives the one empty section."""
        two = FinSetObj(2)
        e, s = FinSetObj(3), FinSetObj(3)
        # s0 has a direction labelled 1 and one labelled 0, s1 one labelled
        # 0, s2 none; the family has 3 points over 0 and none over 1
        p = Polynomial(two, e, s, ONE, FinSetMap(e, two, (1, 0, 0)),
                       FinSetMap(e, s, (0, 0, 1)), FinSetMap(s, ONE, (0, 0, 0)))
        a = family_of(FinSetMap(FinSetObj(3), two, (0, 0, 0)))
        rank = polyset.ExtensionRank(p, a)
        assert rank.start == [0, 4] and rank.offset == [0, 0, 3]
        assert extension_eval(p, a) == _ext_family(p, _ext_elements(p, a))

    def test_on_map_is_the_enumerated_table(self):
        for rng, p, a in seeded_draws(85, 200):
            fm = rand_family_map(rng, a)
            out = extension_on_map(p, fm)
            assert out.h.table == ref_extension_on_map(p, fm)
            assert out.src == extension_eval(p, fm.src)
            assert out.tgt == extension_eval(p, fm.tgt)

    def test_polymorph_extension_is_the_enumerated_table(self):
        rng = random.Random(87)
        folded = 0
        for i in range(200):
            lo = 0 if i % 4 == 0 else 1
            x, y = FinSetObj(rng.randint(lo, 3)), FinSetObj(rng.randint(lo, 2))
            f = rand_lax_morphism(rng, x, y)
            folded += not is_strong(f)
            for a in (gen.rand_family(rng, x, tmax=2), rand_family(rng, x)):
                act = polymorph_extension(f, a)
                assert act.h.table == ref_polymorph_extension(f, a)
                assert act.src == extension_eval(f.source, a)
                assert act.tgt == extension_eval(f.target, a)
        assert folded >= 50
        g = collapse_morphism()
        a = family_of(FinSetMap(FinSetObj(3), ONE, (0, 0, 0)))
        assert polymorph_extension(g, a).h.table \
            == ref_polymorph_extension(g, a)

    def test_composite_bijection_on_edge_cases(self):
        """The comparison against the reference where X, Y or Z is empty,
        where a family leaves a fiber empty and where a position has no
        directions."""
        empty = FinSetObj(0)
        rng = random.Random(89)
        for x, y, z in ((empty, ONE, ONE), (ONE, empty, ONE),
                        (ONE, ONE, empty), (FinSetObj(2), FinSetObj(2), ONE)):
            for _ in range(20):
                p, q = (rand_poly(rng, c, d, 3, 3) if d.size
                        else gen.rand_poly(rng, c, d, smax=3, emax=3)
                        for c, d in ((x, y), (y, z)))
                compare = checks.composite_bijection(
                    q, p, composite_parts(q, p))
                for a in (gen.rand_family(rng, x, tmax=1),
                          family_of(FinSetMap(empty, x, ()))):
                    assert compare(a, extension_eval(p, a)) \
                        == composite_bijection(q, p, a)

    def test_seeded_extensions_keep_their_recorded_output(self):
        """The document bytes of ext(P)(A) and the table of ext(P) on a
        family map, over 200 seeded cases, hash to what enumerating every
        element produced."""
        digest = hashlib.sha256()
        total = 0
        for rng, p, a in seeded_draws(91, 200):
            digest.update(serialize(document("family",
                                             extension_eval(p, a))).encode())
            fm = rand_family_map(rng, a)
            table = extension_on_map(p, fm).h.table
            digest.update(repr(table).encode())
            total += len(table)
        assert total == 514
        assert digest.hexdigest() == ("c34c8f5ad392aeab48fb947402cdffac"
                                      "d1e29174b191db6d2f23d5b1cf6bb3a3")


class TestComparisonPlanAgainstReference:
    """The suite's comparison, planned once per (q, p), is the reference
    bijection above on every family and on both ends of family maps."""

    def test_same_tables_as_the_reference(self):
        rng = random.Random(71)
        triples, filled, empty = 0, 0, set()
        for i in range(100):
            lo = 0 if i % 4 == 0 else 1  # a quarter may have empty sets
            x, y, z = (FinSetObj(rng.randint(lo, 3)) for _ in range(3))
            empty |= {name for name, o in zip("XYZ", (x, y, z)) if not o.size}
            p = gen.rand_poly(rng, x, y, smax=3, emax=2)
            q = gen.rand_poly(rng, y, z, smax=3, emax=2)
            n = compose_poly(q, p)
            compare = checks.composite_bijection(q, p,
                                                 composite_parts(q, p))
            for _ in range(2):
                a = gen.rand_family(rng, x, tmax=2)
                table = compare(a, extension_eval(p, a))
                assert table == composite_bijection(q, p, a)
                triples, filled = triples + 1, filled + bool(table)
            fm = rand_family_map(rng, a)
            phi_tgt = compare(fm.tgt, extension_eval(p, fm.tgt))
            assert phi_tgt == composite_bijection(q, p, fm.tgt)
            triples, filled = triples + 1, filled + bool(phi_tgt)
            down = extension_on_map(n, fm).h
            across = extension_on_map(q, extension_on_map(p, fm)).h
            assert all(phi_tgt[down(j)] == across(table[j])
                       for j in range(len(table)))
        assert triples == 300 and filled >= 150 and empty == set("XYZ")


class TestPolyMorphism:
    def test_identity_polymorph_is_valid_and_strong(self):
        f = identity_polymorph(a_plus_one())
        assert is_strong(f)
        assert are_isomorphic_polymorph(f, f)

    def test_gfib_constraint_enforced(self):
        p = monomial(2)
        bad = Span(ONE, ONE, FinSetObj(2),
                   FinSetMap(FinSetObj(2), ONE, (0, 0)),
                   FinSetMap(FinSetObj(2), ONE, (0, 0)))
        lam_src = compose_spans(m_span(p), bad)
        sq = composition_square(m_span(p), bad)
        lam = SpanCell(lam_src, m_span(p),
                       FinSetMap(lam_src.apex, p.E,
                                 tuple(e for _, e in sq.pairs)))
        with pytest.raises(InvariantViolation, match="polymorph-"):
            PolyMorphism(p, p, bad, lam, identity_polymorph(p).rho)

    def test_vcompose_identities(self):
        f = identity_polymorph(monomial(2))
        assert are_isomorphic_polymorph(vcompose_polymorph(f, f), f)

    def test_vcompose_strong_is_strong(self):
        rng = random.Random(29)
        p = rand_poly(rng, FinSetObj(2), FinSetObj(2), 4, 3)
        perm = list(range(p.S.size))
        rng.shuffle(perm)
        f = relabel_morphism(p, perm)
        perm2 = list(range(p.S.size))
        rng.shuffle(perm2)
        g = relabel_morphism(f.target, perm2)
        vc = vcompose_polymorph(g, f)
        assert is_strong(f) and is_strong(g) and is_strong(vc)

    def test_vcompose_lambda_matches_direct_pasting(self):
        rng = random.Random(31)
        p = rand_poly(rng, FinSetObj(2), FinSetObj(2), 4, 3)
        perm = list(range(p.S.size))
        rng.shuffle(perm)
        f = relabel_morphism(p, perm)
        g = relabel_morphism(f.target, list(range(p.S.size)))
        vc = vcompose_polymorph(g, f)
        h = compose_spans(g.h, f.h)
        sq = composition_square(m_span(g.target), h)
        sq_g = composition_square(m_span(g.target), g.h)
        sq_f = composition_square(m_span(f.target), f.h)
        inner = composition_square(g.h, f.h)
        expected = []
        for a, e2 in sq.pairs:
            af, ag = inner.pairs[a]
            e1 = g.lam.h(sq_g.index(ag, e2))
            expected.append(f.lam.h(sq_f.index(af, e1)))
        assert vc.lam.h.table == tuple(expected)

    def test_vcompose_acts_as_composite_on_extensions(self):
        rng = random.Random(59)
        for _ in range(10):
            p = rand_poly(rng, FinSetObj(2), FinSetObj(2), 4, 3)
            perm = list(range(p.S.size))
            rng.shuffle(perm)
            f = relabel_morphism(p, perm)
            perm2 = list(range(p.S.size))
            rng.shuffle(perm2)
            g = relabel_morphism(f.target, perm2)
            vc = vcompose_polymorph(g, f)
            a = rand_family(rng, p.X)
            assert polymorph_extension(vc, a).h \
                == compose(polymorph_extension(g, a).h,
                           polymorph_extension(f, a).h)

    def test_are_isomorphic_accepts_conjugated_h(self):
        f = identity_polymorph(a_plus_one())
        f2 = conjugate_h(f, FinSetMap(f.h.apex, f.h.apex, (1, 0)))
        assert are_isomorphic_polymorph(f, f2)
        assert are_isomorphic_polymorph(f2, f)

    def test_are_isomorphic_rejects_different_lambda(self):
        p = monomial(2)
        f = identity_polymorph(p)
        lam_src = f.lam.source
        swapped = SpanCell(lam_src, m_span(p),
                           FinSetMap(lam_src.apex, p.E,
                                     (f.lam.h(1), f.lam.h(0))))
        g = PolyMorphism(p, p, f.h, swapped, f.rho)
        assert not are_isomorphic_polymorph(f, g)

    def test_collapse_is_not_strong(self):
        assert not is_strong(collapse_morphism())

    def test_polymorph_extension_folds_slots(self):
        g = collapse_morphism()
        a = family_of(FinSetMap(FinSetObj(3), ONE, (0, 0, 0)))
        act = polymorph_extension(g, a)
        assert act.src.total.size == 3 and act.tgt.total.size == 9
        elems = _ext_elements(g.target, a)
        for i in range(3):
            _, _, sigma = elems[act.h(i)]
            assert sigma[0] == sigma[1]

    def test_polymorph_extension_natural_in_family(self):
        rng = random.Random(61)
        g = collapse_morphism()
        a = rand_family(rng, ONE)
        fm = rand_family_map(rng, a)
        lhs = compose(polymorph_extension(g, fm.tgt).h,
                      extension_on_map(g.source, fm).h)
        rhs = compose(extension_on_map(g.target, fm).h,
                      polymorph_extension(g, fm.src).h)
        assert lhs == rhs


class TestHCompose:
    @pytest.fixture(autouse=True)
    def factorizations_paste_back(self, monkeypatch):
        """Each factorization a horizontal composite makes through a
        bipullback pastes back to the cone it factors."""
        calls = []

        def spy(bp, u, v, psi):
            fac = factor_through_bipullback(bp, u, v, psi)
            assert paste_factorization(bp, fac) == psi
            calls.append(psi)
            return fac
        monkeypatch.setattr(polyset, "factor_through_bipullback", spy)
        yield
        assert calls

    def test_identities_give_identity_class(self):
        p, q = monomial(2), monomial(3)
        hc = hcompose_polymorph(identity_polymorph(q), identity_polymorph(p))
        assert are_isomorphic_polymorph(
            hc, identity_polymorph(compose_poly(q, p)))

    def test_strong_times_strong_monomials(self):
        rng = random.Random(41)
        p = monomial(2)
        q = rand_poly(rng, ONE, ONE, 3, 2)
        f = relabel_morphism(p, [0])
        perm_q = list(range(q.S.size))
        rng.shuffle(perm_q)
        k = relabel_morphism(q, perm_q)
        hc = hcompose_polymorph(k, f)
        assert is_strong(hc)
        a = family_of(FinSetMap(FinSetObj(2), ONE, (0, 0)))
        phi_src = composite_bijection(q, p, a)
        phi_tgt = composite_bijection(k.target, f.target, a)
        down = polymorph_extension(hc, a).h
        across = compose(
            polymorph_extension(k, extension_eval(f.target, a)).h,
            extension_on_map(q, polymorph_extension(f, a)).h)
        for i in range(down.dom.size):
            assert phi_tgt[down(i)] == across(phi_src[i])

    def test_non_strong_lambda_pastes(self):
        g = collapse_morphism()
        q = monomial(2)
        hc = hcompose_polymorph(identity_polymorph(q), g)
        assert not is_strong(hc)
        assert hc.source == compose_poly(q, g.source)
        assert hc.target == compose_poly(q, g.target)

    def test_non_strong_extension_square(self):
        g = collapse_morphism()
        q = monomial(2)
        one_k = identity_polymorph(q)
        hc = hcompose_polymorph(one_k, g)
        a = family_of(FinSetMap(FinSetObj(2), ONE, (0, 0)))
        phi_src = composite_bijection(q, g.source, a)
        phi_tgt = composite_bijection(q, g.target, a)
        down = polymorph_extension(hc, a).h
        across = compose(
            polymorph_extension(one_k, extension_eval(g.target, a)).h,
            extension_on_map(q, polymorph_extension(g, a)).h)
        for i in range(down.dom.size):
            assert phi_tgt[down(i)] == across(phi_src[i])

    def test_seeded_composites_keep_their_recorded_output(self):
        """Horizontal composites of 30 seeded morphisms (relabelings with
        a conjugated h) hash to what they were before the bipullback of
        a composite became a cached property."""
        def seeded_morphism(rng, p):
            perm = list(range(p.S.size))
            rng.shuffle(perm)
            f = relabel_morphism(p, perm)
            rel = list(range(f.h.apex.size))
            rng.shuffle(rel)
            return conjugate_h(f, FinSetMap(f.h.apex, f.h.apex, tuple(rel)))

        rng = random.Random(61)
        digest = hashlib.sha256()
        sizes = []
        for _ in range(30):
            x, y, z = (FinSetObj(rng.randint(1, 2)) for _ in range(3))
            p, q = rand_poly(rng, x, y, 3, 3), rand_poly(rng, y, z, 3, 3)
            hc = hcompose_polymorph(seeded_morphism(rng, q),
                                    seeded_morphism(rng, p))
            digest.update(repr(hc).encode())
            sizes.append(hc.h.apex.size)
        assert max(sizes) == 27 and sizes.count(0) == 9
        assert digest.hexdigest() == ("46466ef4d098b8113a8a652c7057805b"
                                      "a0158ab7cdaba70761b21fabea6eb5a7")

    def test_choice_independence_under_h_conjugation(self):
        f = identity_polymorph(a_plus_one())
        f2 = conjugate_h(f, FinSetMap(f.h.apex, f.h.apex, (1, 0)))
        one_k = identity_polymorph(monomial(2))
        lhs = hcompose_polymorph(one_k, f)
        rhs = hcompose_polymorph(one_k, f2)
        assert are_isomorphic_polymorph(lhs, rhs)


class TestHK:
    def test_identity_everything(self):
        x = FinSetObj(2)
        out = hK_span(x, identity_poly(x), identity_span(x))
        assert span_matrix(out) == span_matrix(identity_span(x))

    def test_k_one_reduces_to_extension(self):
        rng = random.Random(43)
        for _ in range(40):
            x = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            p = rand_poly(rng, x, y, 4, 4)
            a = rand_family(rng, x)
            u = Span(ONE, x, a.total,
                     FinSetMap(a.total, ONE, (0,) * a.total.size), a.proj)
            out = hK_span(ONE, p, u)
            got = tuple(len(out.right_leg.fiber(yy)) for yy in y.elements)
            assert got == fiber_sizes(extension_eval(p, a))

    def test_monomial_counts(self):
        u = Span(ONE, ONE, FinSetObj(3),
                 FinSetMap(FinSetObj(3), ONE, (0, 0, 0)),
                 FinSetMap(FinSetObj(3), ONE, (0, 0, 0)))
        assert hK_span(ONE, monomial(2), u).apex.size == 9

    def test_boundary_enforced(self):
        with pytest.raises(InvariantViolation, match="hK-boundary"):
            hK_span(FinSetObj(2), monomial(2), identity_span(ONE))

    def test_functoriality(self):
        rng = random.Random(47)
        for _ in range(100):
            x = FinSetObj(rng.randint(1, 2))
            y = FinSetObj(rng.randint(1, 2))
            z = FinSetObj(rng.randint(1, 2))
            k = FinSetObj(rng.randint(1, 2))
            p = rand_poly(rng, x, y, 2, 2)
            q = rand_poly(rng, y, z, 2, 2)
            apex = FinSetObj(rng.randint(0, 2))
            u = Span(k, x, apex, rand_map(rng, apex, k),
                     rand_map(rng, apex, x))
            lhs = hK_span(k, compose_poly(q, p), u)
            rhs = hK_span(k, q, hK_span(k, p, u))
            assert span_matrix(lhs) == span_matrix(rhs)


def search_isomorphic_poly(P, Q):
    """The product search that the canonical form replaced: bijections of
    S over Y, then of E over X and the chosen S-bijection."""
    if (P.X, P.Y) != (Q.X, Q.Y) or P.E.size != Q.E.size \
            or P.S.size != Q.S.size:
        return False
    s_cands = [[s2 for s2 in Q.S.elements if Q.p(s2) == P.p(s)]
               for s in P.S.elements]
    for s_table in itertools.product(*s_cands):
        if len(set(s_table)) != P.S.size:
            continue
        e_cands = [[e2 for e2 in Q.E.elements
                    if Q.m1(e2) == P.m1(e) and Q.m2(e2) == s_table[P.m2(e)]]
                   for e in P.E.elements]
        for e_table in itertools.product(*e_cands):
            if len(set(e_table)) == P.E.size:
                return True
    return False


def relabel_poly(rng, P):
    """An isomorphic copy: E and S renamed by random permutations."""
    ps = list(P.S.elements)
    pe = list(P.E.elements)
    rng.shuffle(ps)
    rng.shuffle(pe)
    inv_s = {new: old for old, new in enumerate(ps)}
    inv_e = {new: old for old, new in enumerate(pe)}
    return Polynomial(
        P.X, P.E, P.S, P.Y,
        FinSetMap(P.E, P.X, tuple(P.m1(inv_e[e]) for e in P.E.elements)),
        FinSetMap(P.E, P.S, tuple(ps[P.m2(inv_e[e])] for e in P.E.elements)),
        FinSetMap(P.S, P.Y, tuple(P.p(inv_s[s]) for s in P.S.elements)))


def perturb_poly(rng, P):
    """A copy with one entry of m1, m2 or p redrawn; often not isomorphic."""
    legs = {"m1": (P.E, P.X), "m2": (P.E, P.S), "p": (P.S, P.Y)}
    name = rng.choice([n for n, (d, c) in legs.items() if d.size and c.size]
                      or ["m1"])
    dom, cod = legs[name]
    tables = {"m1": P.m1.table, "m2": P.m2.table, "p": P.p.table}
    if dom.size and cod.size:
        t = list(tables[name])
        t[rng.randrange(dom.size)] = rng.randrange(cod.size)
        tables[name] = tuple(t)
    return Polynomial(P.X, P.E, P.S, P.Y, FinSetMap(P.E, P.X, tables["m1"]),
                      FinSetMap(P.E, P.S, tables["m2"]),
                      FinSetMap(P.S, P.Y, tables["p"]))


class TestIsomorphismAgainstSearch:
    """The canonical form answers exactly as the product search."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3))
    def test_same_answer_as_search(self, seed, nx, ny):
        rng = random.Random(seed)
        x, y = FinSetObj(nx), FinSetObj(ny)
        P = rand_poly(rng, x, y, emax=4, smax=4)
        for Q in (relabel_poly(rng, P), perturb_poly(rng, P),
                  perturb_poly(rng, relabel_poly(rng, P)),
                  rand_poly(rng, x, y, emax=4, smax=4),
                  rand_poly(rng, FinSetObj(nx + 1), y, emax=4, smax=4)):
            assert are_isomorphic_poly(P, Q) == search_isomorphic_poly(P, Q)
            assert are_isomorphic_poly(Q, P) == search_isomorphic_poly(Q, P)

    def test_relabelled_copies_are_isomorphic(self):
        rng = random.Random(61)
        for _ in range(30):
            P = rand_poly(rng, FinSetObj(2), FinSetObj(2))
            assert are_isomorphic_poly(P, relabel_poly(rng, P))

    def test_positions_differing_only_in_label_multiset(self):
        # two positions over one y with directions labelled {0, 0} and
        # {1, 1}, against {0, 1} and {0, 1}: same label counts per y
        two = FinSetObj(2)
        e, s = FinSetObj(4), FinSetObj(2)
        P = Polynomial(two, e, s, ONE, FinSetMap(e, two, (0, 0, 1, 1)),
                       FinSetMap(e, s, (0, 0, 1, 1)),
                       FinSetMap(s, ONE, (0, 0)))
        Q = Polynomial(two, e, s, ONE, FinSetMap(e, two, (0, 1, 0, 1)),
                       FinSetMap(e, s, (0, 0, 1, 1)),
                       FinSetMap(s, ONE, (0, 0)))
        assert not search_isomorphic_poly(P, Q)
        assert not are_isomorphic_poly(P, Q)
