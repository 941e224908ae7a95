"""Polynomials over finite sets: extension functors, composition, morphisms
of polynomials with vertical and horizontal composition, and the hom-functor
action on spans.

A polynomial from X to Y is a chain X <- E -> S -> Y.  Its lifter part is the
span (m2, E, m1) from S to X; the neat part is the map p: S -> Y.  The
extension functor sends a family over X to the usual sum-of-products family
over Y.  The composite is counted from fiber indexes in the closed form of
Gambino and Kock; the squares of Weber's distributivity pullback, which list
its elements in the same order, are built only for the 2-cells between
composites.  Extensions compose along it (checked by the oracle tests).
"""

from __future__ import annotations

import itertools
import sys

from .errors import InvariantViolation, require
from .finset import FinSetMap, FinSetObj, Pullback, compose, identity, pullback
from .record import Record
from .spans import (
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


# A count past sys.maxsize stays at sys.maxsize + 1: such an extension is
# refused, and a huge product then costs no more than a small one.
_PAST_MAX = sys.maxsize + 1


def _numerals(start: int, places) -> list[int]:
    """start + Σ_i d_i · w_i for every choice of a digit d_i from each
    place (digits_i, w_i), listed in the order of itertools.product."""
    sums = [start]
    for digits, w in places:
        steps = [d * w for d in digits]
        sums = [u + v for u in sums for v in steps]
    return sums


class ExtensionRank:
    """The index of each element of ext(P)(A), from fiber sizes alone.

    Elements (s, sigma) are ordered by p(s), then s, then sigma
    lexicographically over the ascending m2-fiber e_0 < ... < e_{k-1}: a
    mixed-radix numeral whose digit at e_i is ``digit(sigma_i)``, the
    position of sigma_i in A⁻¹(m1 e_i), of radix n_i = |A⁻¹(m1 e_i)| and
    weight ``weight[e_i]`` = n_{i+1} ⋯ n_{k-1}.  So (s, sigma) has index
    ``offset[s]`` + Σ_i digit(sigma_i) · weight[e_i].  ``positions`` lists
    the s in this order, ``start[y]`` is the first index over y, and
    ``start[-1]`` the size of ext(P)(A).
    """

    def __init__(self, P: Polynomial, A: IndexedFamily) -> None:
        require(A.base == P.X, "extension-base",
                "family must be indexed by the polynomial's source")
        self.P, self.digit, fiber = P, A.proj.fiber_position, A.proj.fiber
        # a polynomial without directions reads no fiber of A: skip its index
        self.radix = radix = ([len(fiber(x)) for x in P.X.elements]
                              if P.E.size else [])
        count, self.weight = [1] * P.S.size, [0] * P.E.size
        m1, m2 = P.m1.table, P.m2.table
        for e in reversed(P.E.elements):  # each m2-fiber from the top
            s = m2[e]
            self.weight[e] = count[s]
            c = count[s] * radix[m1[e]]
            count[s] = c if c < _PAST_MAX else _PAST_MAX
        self.positions, self.offset, self.start = [], [0] * P.S.size, []
        total = 0
        for y in P.Y.elements:
            self.start.append(total)
            for s in P.p.fiber(y):
                self.positions.append(s)
                self.offset[s] = total
                total += count[s]
        if total > sys.maxsize:
            raise InvariantViolation(
                "extension-size",
                f"the extension has more than {sys.maxsize} elements")
        self.start.append(total)

    def ranks(self, start: int, s: int, weights) -> list[int]:
        """start + Σ_i digit(sigma_i) · weights[i] for each section sigma
        over s, in the order of the sections."""
        return _numerals(start, [(range(self.radix[self.P.m1(e)]), w)
                                 for e, w in zip(self.P.m2.fiber(s), weights)])

    def family(self) -> IndexedFamily:
        """ext(P)(A) as a family over Y: one run of y per fiber."""
        table: list[int] = []
        for y in self.P.Y.elements:
            table += [y] * (self.start[y + 1] - self.start[y])
        total = FinSetObj(self.start[-1])
        return IndexedFamily._trusted(
            self.P.Y, total, FinSetMap._trusted(total, self.P.Y, tuple(table)))


def extension_eval(P: Polynomial, A: IndexedFamily) -> IndexedFamily:
    """The sum-of-products family over Y, counted and not enumerated:
    ext(P)(A)_y = Σ_{s ∈ p⁻¹(y)} Π_{e ∈ m2⁻¹(s)} |A⁻¹(m1 e)|.  Its elements,
    pairs of s and a section of A over m2⁻¹(s), are ordered by y, then s,
    then the section lexicographically (see ``ExtensionRank``)."""
    return ExtensionRank(P, A).family()


def extension_on_map(P: Polynomial, fm: FamilyMap) -> FamilyMap:
    """Functor action: push sections forward along the family map."""
    require(fm.src.base == P.X, "extension-base",
            "family map must live over the polynomial's source")
    src, tgt = ExtensionRank(P, fm.src), ExtensionRank(P, fm.tgt)
    h, table = fm.h.table, []
    for s in src.positions:
        table += _numerals(tgt.offset[s], [
            ([tgt.digit(h[a]) for a in fm.src.fiber(P.m1(e))], tgt.weight[e])
            for e in P.m2.fiber(s)])
    ea, eb = src.family(), tgt.family()
    return FamilyMap(ea, eb, FinSetMap(ea.total, eb.total, tuple(table)))


def identity_poly(x: FinSetObj) -> Polynomial:
    return Polynomial(x, x, x, x, identity(x), identity(x), identity(x))


class CompositeParts(Record):
    """The squares of Q∘P that horizontal composition of morphisms and the
    extension comparison read, with the composite they index: ``pba.r.dom``
    is ``poly.S`` and ``directions`` is the square whose apex is
    ``poly.E``."""

    poly: Polynomial
    pb1: Pullback
    pba: PBAround
    n_tilde: Span
    directions: Pullback


def composite_parts(Q: Polynomial, P: Polynomial) -> CompositeParts:
    """The squares of Q∘P, built for the 2-cells: Weber's distributivity
    pullback (arXiv:1106.1983) lists the positions and directions of
    ``compose_poly(Q, P)`` in its order."""
    poly = compose_poly(Q, P)
    pb1 = pullback(P.p, Q.m1)
    pba = distributivity_pullback(Q.m2, pb1.pr2)
    n_tilde = Span(pba.r.dom, P.S, pba.p.dom, pba.q, compose(pb1.pr1, pba.p))
    directions = composition_square(m_span(P), n_tilde)
    return CompositeParts(poly, pb1, pba, n_tilde, directions)


def _composite_size(fibers, qm1, radix, width) -> tuple[int, int]:
    """|S′| and |E′| of Q∘P from fiber sizes alone, each capped as in
    ``ExtensionRank``: over a position of Q whose directions e have the
    labels x_e = Q.m1(e) there are Π_e radix[x_e] positions and
    Σ_e width[x_e] · Π_{e′ ≠ e} radix[x_e′] directions, where radix[x]
    counts the positions of P over x and width[x] their directions."""
    n_s = n_e = 0
    for es in fibers:
        c, k = 1, 0
        for e in es:
            x = qm1[e]
            c, k = c * radix[x], k * radix[x] + c * width[x]
            if k >= _PAST_MAX or c >= _PAST_MAX:
                c, k = min(c, _PAST_MAX), min(k, _PAST_MAX)
        n_s += c
        n_e += k
    return min(n_s, _PAST_MAX), min(n_e, _PAST_MAX)


def compose_poly(Q: Polynomial, P: Polynomial) -> Polynomial:
    """Q∘P from the fibers of P.p, P.m2 and Q.m2 (Gambino & Kock,
    arXiv:0906.4931): its positions are pairs of a position s of Q and a
    section σ of Π_{e ∈ m2⁻¹(s)} P.p⁻¹(Q.m1 e), listed by s, then σ in
    itertools.product order; the directions of (s, σ) are those of P at
    each σ_e, by e, then ascending.  That is the order of the squares
    ``composite_parts`` builds for the 2-cells.  A composite past
    sys.maxsize is refused before it is built."""
    require(P.Y == Q.X, "poly-compose-boundary",
            "codomain of the first factor must match the second's domain")
    over, pp = P.p._fibers, P.p.table
    # the labels of P's directions at each position and their count over
    # each point of P.Y
    labels: list[list[int]] = [[] for _ in P.S.elements]
    width = [0] * P.Y.size
    for t, x in zip(P.m2.table, P.m1.table):
        labels[t].append(x)
        width[pp[t]] += 1
    fibers, qm1, qp = Q.m2._fibers, Q.m1.table, Q.p.table
    if _PAST_MAX in _composite_size(fibers, qm1, [len(ts) for ts in over],
                                    width):
        raise InvariantViolation(
            "composite-size", f"the composite has more than {sys.maxsize} "
            f"positions or directions")
    m1: list[int] = []
    m2: list[int] = []
    p: list[int] = []
    for s, es in enumerate(fibers):
        y = qp[s]
        for sigma in itertools.product(*[over[qm1[e]] for e in es]):
            for t in sigma:
                m1 += labels[t]
            m2 += [len(p)] * (len(m1) - len(m2))
            p.append(y)
    S, E = FinSetObj(len(p)), FinSetObj(len(m1))
    return Polynomial(P.X, E, S, Q.Y, FinSetMap(E, P.X, tuple(m1)),
                      FinSetMap(E, S, tuple(m2)), FinSetMap(S, Q.Y, tuple(p)))


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
    src, tgt = ExtensionRank(f.source, a), ExtensionRank(f.target, a)
    left_inv = f.h.left_leg.inverse()
    sq = composition_square(m_span(f.target), f.h)
    position = f.source.m2.fiber_position
    table: list[int] = []
    for s in src.positions:
        t = left_inv(s)
        s2 = f.h.right_leg(t)
        # the digit at the k-th direction over s fills each direction over
        # s2 that lam sends to it, so it weighs the sum of their weights
        weights = [0] * len(f.source.m2.fiber(s))
        for e2 in f.target.m2.fiber(s2):
            weights[position(f.lam.h(sq.index(t, e2)))] += tgt.weight[e2]
        table += src.ranks(tgt.offset[s2], s, weights)
    ea, eb = src.family(), tgt.family()
    return FamilyMap(ea, eb, FinSetMap(ea.total, eb.total, tuple(table)))


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
    bp = distributivity_bipullback(parts.pba)
    bp2 = distributivity_bipullback(parts2.pba)
    d, c = bp.d, bp.c
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
    z6 = whisker_left(graph(Q.m1), bp.theta)
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
    y1 = invert_cell(associator(bp2.n, k.h, d))
    y2 = invert_cell(fac0.rho)
    y3 = invert_cell(whisker_right(graph_compose_cell(parts2.pb1.pr2, swap),
                                   fac0.h))
    y4 = associator(graph(parts2.pb1.pr2), graph(swap), fac0.h)
    psi = vcomp(y4, vcomp(y3, vcomp(y2, y1)))
    fach = factor_through_bipullback(bp2, u, v, psi)
    # structure cells of the composite morphism
    h = fach.h
    x1 = associator(m_span(P2), parts2.n_tilde, h)
    x2a = whisker_right(invert_cell(post_graph_cell(parts2.pb1.pr1, bp2.c)), h)
    x2b = associator(graph(parts2.pb1.pr1), bp2.c, h)
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
    w5 = invert_cell(associator(graph(Q2.p), bp2.d, h))
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
