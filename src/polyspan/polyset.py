"""Polynomials over finite sets: extension functors, composition, morphisms
of polynomials with vertical and horizontal composition, and the hom-functor
action on spans.

A polynomial from X to Y is a chain X <- E -> S -> Y.  Its lifter part is the
span (m2, E, m1) from S to X; the neat part is the map p: S -> Y.  The
extension functor sends a family over X to the usual sum-of-products family
over Y, and composition of polynomials is performed by the distributivity
pullback so that extensions compose (checked by the oracle tests).
"""

from __future__ import annotations

import itertools

from .errors import require
from .finset import FinSetMap, FinSetObj, Pullback, compose, identity, pullback
from .record import Record
from .spans import (
    Bipullback,
    PBAround,
    Span,
    SpanCell,
    associator,
    cograph,
    compose_spans,
    composition_square,
    distributivity_bipullback,
    distributivity_pullback,
    enumerate_cells,
    factor_through_bipullback,
    graph,
    graph_compose_cell,
    identity_span,
    invert_cell,
    post_graph_cell,
    pullback_bipullback,
    rif_span,
    unitor_dom,
    vcomp,
    whisker_left,
    whisker_right,
)


class Polynomial(Record):
    X: FinSetObj
    E: FinSetObj
    S: FinSetObj
    Y: FinSetObj
    m1: FinSetMap
    m2: FinSetMap
    p: FinSetMap

    def __post_init__(self) -> None:
        require(self.m1.dom == self.E and self.m1.cod == self.X,
                "poly-typing", "m1 must run E -> X")
        require(self.m2.dom == self.E and self.m2.cod == self.S,
                "poly-typing", "m2 must run E -> S")
        require(self.p.dom == self.S and self.p.cod == self.Y,
                "poly-typing", "p must run S -> Y")


def m_span(P: Polynomial) -> Span:
    """The lifter part of P as a span S -> X."""
    return Span(P.S, P.X, P.E, P.m2, P.m1)


def p_span(P: Polynomial) -> Span:
    """The neat part of P as the graph span S -> Y."""
    return graph(P.p)


class IndexedFamily(Record):
    base: FinSetObj
    total: FinSetObj
    proj: FinSetMap

    def __post_init__(self) -> None:
        require(self.proj.dom == self.total and self.proj.cod == self.base,
                "family-typing", "proj must run total -> base")

    def fiber(self, b: int) -> tuple[int, ...]:
        return self.proj.fiber(b)


def family_of(proj: FinSetMap) -> IndexedFamily:
    return IndexedFamily(proj.cod, proj.dom, proj)


class FamilyMap(Record):
    """A map of families over a shared base."""

    src: IndexedFamily
    tgt: IndexedFamily
    h: FinSetMap

    def __post_init__(self) -> None:
        require(self.src.base == self.tgt.base, "family-map-base",
                "families must share a base")
        require(self.h.dom == self.src.total and self.h.cod == self.tgt.total,
                "family-map-typing", "h must run total -> total")
        require(compose(self.tgt.proj, self.h) == self.src.proj,
                "family-map-over", "h must commute with the projections")


def _ext_elements(P: Polynomial, A: IndexedFamily):
    """Elements (y, s, sigma) of the extension, in enumeration order: y
    ascending, then s within the p-fiber, then sigma lexicographically over
    the ascending m2-fiber; sigma holds indices into A.total."""
    out = []
    for y in P.Y.elements:
        for s in P.p.fiber(y):
            cand = [A.fiber(P.m1(e)) for e in P.m2.fiber(s)]
            for sigma in itertools.product(*cand):
                out.append((y, s, sigma))
    return out


def extension_eval(P: Polynomial, A: IndexedFamily) -> IndexedFamily:
    """The sum-of-products family over Y: the fiber over y collects pairs of
    a point s of the p-fiber with a section of A over the m2-fiber of s."""
    require(A.base == P.X, "extension-base",
            "family must be indexed by the polynomial's source")
    elements = _ext_elements(P, A)
    total = FinSetObj(len(elements))
    return IndexedFamily(P.Y, total,
                         FinSetMap(total, P.Y,
                                   tuple(y for y, _, _ in elements)))


def extension_on_map(P: Polynomial, fm: FamilyMap) -> FamilyMap:
    """Functor action: push sections forward along the family map."""
    require(fm.src.base == P.X, "extension-base",
            "family map must live over the polynomial's source")
    src_elements = _ext_elements(P, fm.src)
    tgt_elements = _ext_elements(P, fm.tgt)
    index = {elt: i for i, elt in enumerate(tgt_elements)}
    table = tuple(index[(y, s, tuple(fm.h(a) for a in sigma))]
                  for y, s, sigma in src_elements)
    ea, eb = extension_eval(P, fm.src), extension_eval(P, fm.tgt)
    return FamilyMap(ea, eb, FinSetMap(ea.total, eb.total, table))


def identity_poly(x: FinSetObj) -> Polynomial:
    return Polynomial(x, x, x, x, identity(x), identity(x), identity(x))


class CompositeParts(Record):
    """Everything produced while composing two polynomials, kept so that
    horizontal composition of morphisms can reuse the same squares."""

    poly: Polynomial
    pb1: Pullback
    pba: PBAround
    d: Span
    c: Span
    n_tilde: Span
    bp: Bipullback


def composite_parts(Q: Polynomial, P: Polynomial) -> CompositeParts:
    require(P.Y == Q.X, "poly-compose-boundary",
            "codomain of the first factor must match the second's domain")
    pb1 = pullback(P.p, Q.m1)
    g_mid = pb1.pr2
    pba = distributivity_pullback(Q.m2, g_mid)
    w_obj = pba.r.dom
    d = graph(pba.r)
    c = Span(w_obj, pb1.apex, pba.p.dom, pba.q, pba.p)
    n_tilde = Span(w_obj, P.S, pba.p.dom, pba.q, compose(pb1.pr1, pba.p))
    mspan = compose_spans(m_span(P), n_tilde)
    poly = Polynomial(P.X, mspan.apex, w_obj, Q.Y,
                      mspan.right_leg, mspan.left_leg,
                      compose(Q.p, pba.r))
    return CompositeParts(poly, pb1, pba, d, c, n_tilde,
                          distributivity_bipullback(pba))


def compose_poly(Q: Polynomial, P: Polynomial) -> Polynomial:
    """Composite polynomial: points of the new S are pairs of a point s of
    Q's S with a choice, for each e over s, of a point of P's S over its
    middle image; E collects the matching pairs of evaluation points with
    P-directions.  Extensions compose along this construction."""
    return composite_parts(Q, P).poly


class PolyMorphism(Record):
    """A morphism of parallel polynomials: a span h between the S objects
    with a bijective left leg, a lax cell lam: m'∘h => m, and an invertible
    cell rho: p => p'∘h."""

    source: Polynomial
    target: Polynomial
    h: Span
    lam: SpanCell
    rho: SpanCell

    def __post_init__(self) -> None:
        require(self.source.X == self.target.X
                and self.source.Y == self.target.Y,
                "polymorph-parallel", "polynomials must share X and Y")
        require(self.h.left_foot == self.source.S
                and self.h.right_foot == self.target.S,
                "polymorph-h", "h must run from source S to target S")
        require(self.h.left_leg.is_bijective, "polymorph-gfib",
                "the left leg of h must be a bijection")
        require(self.lam.source == compose_spans(m_span(self.target), self.h)
                and self.lam.target == m_span(self.source),
                "polymorph-lam", "lam must run m'∘h => m")
        require(self.rho.source == p_span(self.source)
                and self.rho.target == compose_spans(p_span(self.target),
                                                     self.h),
                "polymorph-rho", "rho must run p => p'∘h")
        require(self.rho.is_invertible, "polymorph-rho",
                "rho must be invertible")


def identity_polymorph(P: Polynomial) -> PolyMorphism:
    h = identity_span(P.S)
    return PolyMorphism(P, P, h, unitor_dom(m_span(P)),
                        invert_cell(unitor_dom(p_span(P))))


def vcompose_polymorph(g: PolyMorphism, f: PolyMorphism) -> PolyMorphism:
    require(f.target == g.source, "polymorph-vcompose-boundary",
            "morphisms do not stack")
    h = compose_spans(g.h, f.h)
    mspan2 = m_span(g.target)
    lam = vcomp(f.lam, vcomp(whisker_right(g.lam, f.h),
                             invert_cell(associator(mspan2, g.h, f.h))))
    pspan2 = p_span(g.target)
    rho = vcomp(associator(pspan2, g.h, f.h),
                vcomp(whisker_right(g.rho, f.h), f.rho))
    return PolyMorphism(f.source, g.target, h, lam, rho)


def is_strong(f: PolyMorphism) -> bool:
    return f.lam.is_invertible


def polymorph_extension(f: PolyMorphism, a: IndexedFamily) -> FamilyMap:
    """The map ext(source)(a) -> ext(target)(a) a morphism induces.

    Positions transport along the inverse of h's left leg, sections pull
    back through lam, and rho guarantees the result stays over the same
    base point.
    """
    src = extension_eval(f.source, a)
    tgt = extension_eval(f.target, a)
    idx_tgt = {e: i for i, e in enumerate(_ext_elements(f.target, a))}
    left_inv = [0] * f.source.S.size
    for t in f.h.apex.elements:
        left_inv[f.h.left_leg(t)] = t
    sq = composition_square(m_span(f.target), f.h)
    position = f.source.m2.fiber_position
    table = []
    for y, s, sigma in _ext_elements(f.source, a):
        t = left_inv[s]
        s2 = f.h.right_leg(t)
        sig2 = tuple(sigma[position(f.lam.h(sq.index(t, e2)))]
                     for e2 in f.target.m2.fiber(s2))
        table.append(idx_tgt[(f.target.p(s2), s2, sig2)])
    return FamilyMap(src, tgt,
                     FinSetMap(src.total, tgt.total, tuple(table)))


def are_isomorphic_polymorph(f: PolyMorphism, g: PolyMorphism) -> bool:
    """Exhaustive search for an invertible cell between the h spans
    compatible with both structure cells."""
    require(f.source == g.source and f.target == g.target,
            "polymorph-compare", "morphisms must be parallel")
    mspan2 = m_span(f.target)
    pspan2 = p_span(f.target)
    for sigma in enumerate_cells(f.h, g.h):
        if not sigma.is_invertible:
            continue
        if vcomp(g.lam, whisker_left(mspan2, sigma)) != f.lam:
            continue
        if vcomp(whisker_left(pspan2, sigma), f.rho) != g.rho:
            continue
        return True
    return False


def hcompose_polymorph(k: PolyMorphism, f: PolyMorphism) -> PolyMorphism:
    """Horizontal composite over composite polynomials.

    The cone with vertex W (the composite's S) is pushed through two
    bipullbacks of the primed composite: first the set-pullback one to get
    the span into P0', then the distributivity one to get h into W'; the
    structure cells are assembled from the factorization cells together
    with lam/rho of the inputs.
    """
    require(f.source.Y == k.source.X, "hcompose-boundary",
            "morphisms do not compose horizontally")
    P, P2 = f.source, f.target
    Q, Q2 = k.source, k.target
    parts = composite_parts(Q, P)
    parts2 = composite_parts(Q2, P2)
    d, c = parts.d, parts.c
    # inner cone over the pullback bipullback of (Q'.m1, P'.p)
    bp0 = pullback_bipullback(Q2.m1, P2.p)
    w0 = compose_spans(cograph(Q2.m2), k.h)
    u1 = compose_spans(w0, d)
    c_s = compose_spans(graph(parts.pb1.pr1), c)
    v1 = compose_spans(f.h, c_s)
    z1 = invert_cell(associator(bp0.n, w0, d))
    z2 = whisker_right(post_graph_cell(Q2.m1, w0), d)
    z3 = whisker_right(k.lam, d)
    z4 = invert_cell(whisker_right(post_graph_cell(Q.m1, cograph(Q.m2)), d))
    z5 = associator(graph(Q.m1), cograph(Q.m2), d)
    z6 = whisker_left(graph(Q.m1), parts.bp.theta)
    z7 = invert_cell(associator(graph(Q.m1), graph(parts.pb1.pr2), c))
    z8 = whisker_right(graph_compose_cell(Q.m1, parts.pb1.pr2), c)
    z9 = invert_cell(whisker_right(graph_compose_cell(P.p, parts.pb1.pr1), c))
    z10 = associator(graph(P.p), graph(parts.pb1.pr1), c)
    z11 = whisker_right(f.rho, c_s)
    z12 = associator(graph(P2.p), f.h, c_s)
    psi0 = z1
    for cell in (z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12):
        psi0 = vcomp(cell, psi0)
    fac0 = factor_through_bipullback(bp0, u1, v1, psi0)
    # convert the (e', s') vertex into P0' = pairs (s', e')
    pb0_pb: Pullback = bp0.source  # type: ignore[assignment]
    swap = FinSetMap(pb0_pb.apex, parts2.pb1.apex,
                     tuple(parts2.pb1.index(s2, e2)
                           for e2, s2 in pb0_pb.pairs))
    v = compose_spans(graph(swap), fac0.h)
    # outer cone over the distributivity bipullback of the primed composite
    u = compose_spans(k.h, d)
    y1 = invert_cell(associator(parts2.bp.n, k.h, d))
    y2 = invert_cell(fac0.rho)
    y3 = invert_cell(whisker_right(graph_compose_cell(parts2.pb1.pr2, swap),
                                   fac0.h))
    y4 = associator(graph(parts2.pb1.pr2), graph(swap), fac0.h)
    psi = vcomp(y4, vcomp(y3, vcomp(y2, y1)))
    fach = factor_through_bipullback(parts2.bp, u, v, psi)
    # structure cells of the composite morphism
    h = fach.h
    x1 = associator(m_span(P2), parts2.n_tilde, h)
    x2a = whisker_right(invert_cell(post_graph_cell(parts2.pb1.pr1,
                                                    parts2.c)), h)
    x2b = associator(graph(parts2.pb1.pr1), parts2.c, h)
    x2c = whisker_left(graph(parts2.pb1.pr1), fach.lam)
    x2d = invert_cell(associator(graph(parts2.pb1.pr1), graph(swap), fac0.h))
    x2e = whisker_right(graph_compose_cell(parts2.pb1.pr1, swap), fac0.h)
    x2f = fac0.lam
    x2g = whisker_left(f.h, post_graph_cell(parts.pb1.pr1, c))
    kappa = x2a
    for cell in (x2b, x2c, x2d, x2e, x2f, x2g):
        kappa = vcomp(cell, kappa)
    x3 = invert_cell(associator(m_span(P2), f.h, parts.n_tilde))
    x4 = whisker_right(f.lam, parts.n_tilde)
    lam = vcomp(x4, vcomp(x3, vcomp(whisker_left(m_span(P2), kappa), x1)))
    w1 = invert_cell(graph_compose_cell(Q.p, parts.pba.r))
    w2 = whisker_right(k.rho, d)
    w3 = associator(graph(Q2.p), k.h, d)
    w4 = whisker_left(graph(Q2.p), invert_cell(fach.rho))
    w5 = invert_cell(associator(graph(Q2.p), parts2.d, h))
    w6 = whisker_right(graph_compose_cell(Q2.p, parts2.pba.r), h)
    rho = w1
    for cell in (w2, w3, w4, w5, w6):
        rho = vcomp(cell, rho)
    return PolyMorphism(parts.poly, parts2.poly, h, lam, rho)


def _canonical_form(P: Polynomial) -> tuple:
    """For each y, the sorted tuple over the positions s over y of the
    sorted m1-labels of the directions over s: it forgets exactly the
    names of positions and directions."""
    return tuple(
        tuple(sorted(tuple(sorted(P.m1(e) for e in P.m2.fiber(s)))
                     for s in P.p.fiber(y)))
        for y in P.Y.elements)


def are_isomorphic_poly(P: Polynomial, Q: Polynomial) -> bool:
    """Whether bijections of E and S commute with m1, m2 and p: the
    canonical forms agree."""
    return (P.X, P.Y) == (Q.X, Q.Y) and _canonical_form(P) == _canonical_form(Q)


def hK_span(K: FinSetObj, P: Polynomial, u: Span) -> Span:
    """The hom-action of P on spans out of K: right lifting through the
    lifter part, then composition with the neat part."""
    require(u.left_foot == K and u.right_foot == P.X, "hK-boundary",
            "u must be a span K -> X")
    lifted = rif_span(m_span(P), u)
    return compose_spans(p_span(P), lifted.span)
