"""Spans of finite sets: composition by pullback, strict 2-cells, the map
characterization, right liftings, and pullbacks-around with their mediators.

A span from X to Y is (left_leg, apex, right_leg) with left_leg landing in X.
Over sets the 2-cells are plain apex maps commuting with both legs.
A composite comes with its square: ``composite`` returns t∘s with the
pullback whose pairs index its apex, and each 2-cell between composites reads
its table from that square instead of pulling the same pair back again.
Composites, graphs, reversed spans, identity, inverse and vertical composite
cells, whiskers, unitors, associators, the graph cells and the unit and
counit of a map commute with their legs by construction and are built with
``_trusted``, boundaries checked; ``map-characterization`` and the tests'
re-check of ``_trusted`` check them.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable

from .errors import MultipleMediatorsError, NoMediatorError, require
from .finset import (
    FinSetMap,
    FinSetObj,
    Pullback,
    compose,
    identity,
    pi_f,
    pullback,
)
from .record import Record


class Span(Record):
    left_foot: FinSetObj
    right_foot: FinSetObj
    apex: FinSetObj
    left_leg: FinSetMap
    right_leg: FinSetMap

    def __post_init__(self) -> None:
        require(self.left_leg.dom == self.apex and self.right_leg.dom == self.apex,
                "span-legs", "both legs must start at the apex")
        require(self.left_leg.cod == self.left_foot, "span-feet",
                "left leg must land in the left foot")
        require(self.right_leg.cod == self.right_foot, "span-feet",
                "right leg must land in the right foot")


class SpanCell(Record):
    """A morphism of parallel spans: an apex map commuting with both legs."""

    source: Span
    target: Span
    h: FinSetMap

    def __post_init__(self) -> None:
        require(self.source.left_foot == self.target.left_foot
                and self.source.right_foot == self.target.right_foot,
                "cell-parallel", "cells live between parallel spans")
        require(self.h.dom == self.source.apex and self.h.cod == self.target.apex,
                "cell-typing", "the apex map must run source apex to target apex")
        require(compose(self.target.left_leg, self.h) == self.source.left_leg,
                "cell-left-triangle", "left leg triangle does not commute")
        require(compose(self.target.right_leg, self.h) == self.source.right_leg,
                "cell-right-triangle", "right leg triangle does not commute")

    @property
    def is_invertible(self) -> bool:
        return self.h.is_bijective


def graph(f: FinSetMap) -> Span:
    """The span (1, X, f) from the domain of f to its codomain."""
    return Span._trusted(f.dom, f.cod, f.dom, identity(f.dom), f)


def cograph(f: FinSetMap) -> Span:
    """The span (f, X, 1) from the codomain of f back to its domain."""
    return Span._trusted(f.cod, f.dom, f.dom, f, identity(f.dom))


def identity_span(x: FinSetObj) -> Span:
    return graph(identity(x))


def reverse_span(s: Span) -> Span:
    return Span._trusted(s.right_foot, s.left_foot, s.apex, s.right_leg,
                         s.left_leg)


def composition_square(t: Span, s: Span) -> Pullback:
    """The pullback over the middle foot whose pairs (a, b) index the apex of
    t∘s: a from the apex of s, b from the apex of t."""
    require(s.right_foot == t.left_foot, "span-compose-boundary",
            "feet do not match")
    return pullback(s.right_leg, t.left_leg)


def composite(t: Span, s: Span) -> tuple[Span, Pullback]:
    """t∘s together with the square its apex is the pullback of; its legs
    are the outer legs read off the square's projection tables."""
    pb = composition_square(t, s)
    left, right = s.left_leg, t.right_leg
    left_leg = FinSetMap._trusted(pb.apex, left.cod, tuple(
        map(left.table.__getitem__, pb.pr1.table)))
    right_leg = FinSetMap._trusted(pb.apex, right.cod, tuple(
        map(right.table.__getitem__, pb.pr2.table)))
    return Span._trusted(s.left_foot, t.right_foot, pb.apex, left_leg,
                         right_leg), pb


def compose_spans(t: Span, s: Span) -> Span:
    return composite(t, s)[0]


def identity_cell(s: Span) -> SpanCell:
    return SpanCell._trusted(s, s, identity(s.apex))


def invert_cell(c: SpanCell) -> SpanCell:
    """The inverse cell, its table filled in one pass: the cell is
    bijective exactly when the apexes have one size and every target point
    is reached."""
    h, table = c.h, [-1] * c.h.cod.size
    for i, j in enumerate(h.table):
        table[j] = i
    require(h.dom.size == h.cod.size and -1 not in table, "cell-invertible",
            "only a bijective cell can be inverted")
    return SpanCell._trusted(c.target, c.source,
                             FinSetMap._trusted(h.cod, h.dom, tuple(table)))


def vcomp(b: SpanCell, a: SpanCell) -> SpanCell:
    require(a.target == b.source, "cell-vcomp-boundary",
            "cells do not stack")
    return SpanCell._trusted(a.source, b.target, compose(b.h, a.h))


def _whisker_left(cell: SpanCell, src: Span, sq: Pullback, tgt: Span,
                  tgt_sq: Pullback) -> SpanCell:
    table = tuple(tgt_sq.index(cell.h(a), b) for a, b in sq.pairs)
    return SpanCell._trusted(src, tgt,
                             FinSetMap._trusted(src.apex, tgt.apex, table))


def _whisker_right(cell: SpanCell, src: Span, sq: Pullback, tgt: Span,
                   tgt_sq: Pullback) -> SpanCell:
    table = tuple(tgt_sq.index(a, cell.h(b)) for a, b in sq.pairs)
    return SpanCell._trusted(src, tgt,
                             FinSetMap._trusted(src.apex, tgt.apex, table))


def _associator(left: Span, right: Span) -> SpanCell:
    """The canonical cell (t∘s)∘r => t∘(s∘r) between the two composites.
    Pullback pairs run in lexicographic order, so both apexes list the
    triples (a, b, c) of apex elements of r, s and t lexicographically:
    the cell's table is the identity."""
    return SpanCell._trusted(left, right, FinSetMap._trusted(
        left.apex, right.apex, tuple(left.apex.elements)))


def whisker_left(t: Span, cell: SpanCell) -> SpanCell:
    """t∘cell: the cell between composites with t applied after."""
    return _whisker_left(cell, *composite(t, cell.source),
                         *composite(t, cell.target))


def whisker_right(cell: SpanCell, t: Span) -> SpanCell:
    """cell∘t: the cell between composites with t applied first."""
    return _whisker_right(cell, *composite(cell.source, t),
                          *composite(cell.target, t))


def unitor_dom(s: Span) -> SpanCell:
    """The canonical cell s∘(identity span) => s."""
    src, sq = composite(s, identity_span(s.left_foot))
    return SpanCell._trusted(src, s, sq.pr2)


def unitor_cod(s: Span) -> SpanCell:
    """The canonical cell (identity span)∘s => s."""
    src, sq = composite(identity_span(s.right_foot), s)
    return SpanCell._trusted(src, s, sq.pr1)


def associator(t: Span, s: Span, r: Span) -> SpanCell:
    """The canonical invertible cell (t∘s)∘r => t∘(s∘r)."""
    ts, sr = compose_spans(t, s), compose_spans(s, r)
    return _associator(compose_spans(ts, r), compose_spans(t, sr))


def enumerate_cells(s: Span, t: Span):
    """Every cell s => t, by filtered product over apex elements."""
    cands = []
    for a in s.apex.elements:
        cands.append([b for b in t.apex.elements
                      if t.left_leg(b) == s.left_leg(a)
                      and t.right_leg(b) == s.right_leg(a)])
    for table in itertools.product(*cands):
        yield SpanCell(s, t, FinSetMap(s.apex, t.apex, table))


def graph_compose_cell(f2: FinSetMap, f1: FinSetMap) -> SpanCell:
    """The canonical invertible cell graph(f2)∘graph(f1) => graph(f2∘f1)."""
    src, sq = composite(graph(f2), graph(f1))
    return SpanCell._trusted(src, graph(compose(f2, f1)), sq.pr1)


def postcompose_span(s: Span, f: FinSetMap) -> Span:
    """The span with f applied after the right leg."""
    require(f.dom == s.right_foot, "postcompose-boundary",
            "f must start at the right foot")
    return Span._trusted(s.left_foot, f.cod, s.apex, s.left_leg,
                         compose(f, s.right_leg))


def post_graph_cell(f: FinSetMap, s: Span) -> SpanCell:
    """The canonical invertible cell graph(f)∘s => postcompose_span(s, f)."""
    src, sq = composite(graph(f), s)
    return SpanCell._trusted(src, postcompose_span(s, f), sq.pr1)


class MapWitness(Record):
    """Right adjoint data for a span whose left leg is a bijection."""

    right_adjoint: Span
    unit: SpanCell
    counit: SpanCell


def triangle_identities_hold(s: Span, w: MapWitness) -> bool:
    """Both triangle identities of w, each composite pulled back once."""
    r, unit, counit = w.right_adjoint, w.unit, w.counit
    one_x, one_y = identity_span(s.left_foot), identity_span(s.right_foot)
    rs, sr = compose_spans(r, s), compose_spans(s, r)
    require((unit.source, unit.target, counit.source, counit.target) == (
        one_x, rs, sr, one_y), "cell-vcomp-boundary", "cells do not stack")
    s1, s_rs, sr_s, one_s = (composite(s, one_x), composite(s, rs),
                             composite(sr, s), composite(one_y, s))
    r1, r_sr, rs_r, one_r = (composite(r, one_y), composite(r, sr),
                             composite(rs, r), composite(one_x, r))
    first = vcomp(SpanCell._trusted(one_s[0], s, one_s[1].pr1), vcomp(
        _whisker_right(counit, *sr_s, *one_s), vcomp(
            invert_cell(_associator(sr_s[0], s_rs[0])), vcomp(
                _whisker_left(unit, *s1, *s_rs),
                invert_cell(SpanCell._trusted(s1[0], s, s1[1].pr2))))))
    second = vcomp(SpanCell._trusted(r1[0], r, r1[1].pr2), vcomp(
        _whisker_left(counit, *r_sr, *r1), vcomp(
            _associator(rs_r[0], r_sr[0]), vcomp(
                _whisker_right(unit, *one_r, *rs_r),
                invert_cell(SpanCell._trusted(one_r[0], r, one_r[1].pr1))))))
    return first == identity_cell(s) and second == identity_cell(r)


def is_map(s: Span) -> MapWitness | None:
    """Adjunction witness for spans equivalent to the graph of a function:
    present exactly when the left leg is a bijection.  The unit and counit
    commute with their legs and the triangle identities hold by
    construction, so both cells are built unchecked;
    ``map-characterization`` checks them."""
    if not s.left_leg.is_bijective:
        return None
    r = reverse_span(s)
    inv = s.left_leg.inverse()
    rs = compose_spans(s, r)   # pairs (a, b) with left(a) = left(b)
    sr, sr_sq = composite(r, s)   # pairs (a, b) with right(a) = right(b)
    unit = SpanCell._trusted(identity_span(s.left_foot), sr, FinSetMap._trusted(
        s.left_foot, sr.apex, tuple(sr_sq.index(a, a) for a in inv.table)))
    # the counit sends (a, b) to right(a), which is the left leg of s∘r
    counit = SpanCell._trusted(rs, identity_span(s.right_foot), rs.left_leg)
    return MapWitness(r, unit, counit)


class Rif(Record):
    """A right lifting: the lifted span together with its counit 2-cell
    (from lifter∘lifted to the given morphism)."""

    span: Span
    counit: SpanCell
    elements: tuple[tuple[int, int, tuple[int, ...]], ...]


def rif_span(m: Span, u: Span) -> Rif:
    """Right lifting of u: K -> X through m: S -> X.

    Apex elements are triples (k, s, sigma) where sigma picks, for each
    apex point e of m over s (through the left leg), a point of u's apex
    over k and over the right image of e; enumerated by k, then s, then
    sigma lexicographically.
    """
    require(m.right_foot == u.right_foot, "rif-boundary",
            "lifter and lifted morphism must share the right foot")
    k_obj, s_obj = u.left_foot, m.left_foot
    elements: list[tuple[int, int, tuple[int, ...]]] = []
    for k in k_obj.elements:
        over_k = u.left_leg.fiber(k)
        for s in s_obj.elements:
            fiber = m.left_leg.fiber(s)
            cand = [[t for t in over_k if u.right_leg(t) == m.right_leg(e)]
                    for e in fiber]
            for sigma in itertools.product(*cand):
                elements.append((k, s, sigma))
    apex = FinSetObj(len(elements))
    lifted = Span(k_obj, s_obj, apex,
                  FinSetMap(apex, k_obj, tuple(k for k, _, _ in elements)),
                  FinSetMap(apex, s_obj, tuple(s for _, s, _ in elements)))
    comp, sq = composite(m, lifted)
    table = tuple(elements[a][2][m.left_leg.fiber_position(e)]
                  for a, e in sq.pairs)
    counit = SpanCell(comp, u, FinSetMap(comp.apex, u.apex, table))
    return Rif(lifted, counit, tuple(elements))


def rif_paste(m: Span, rif: Rif, cell: SpanCell) -> SpanCell:
    """Paste a cell v => rif through the counit, giving m∘v => u."""
    return vcomp(rif.counit, whisker_left(m, cell))


def rif_transpose(m: Span, rif: Rif, v: Span, cell: SpanCell) -> SpanCell:
    """The unique cell v => rif whose pasting recovers cell: m∘v => u."""
    sq = composition_square(m, v)
    position = {elt: i for i, elt in enumerate(rif.elements)}
    table = []
    for a in v.apex.elements:
        k = v.left_leg(a)
        s = v.right_leg(a)
        sigma = tuple(cell.h(sq.index(a, e)) for e in m.left_leg.fiber(s))
        table.append(position[(k, s, sigma)])
    return SpanCell(v, rif.span, FinSetMap(v.apex, rif.span.apex, tuple(table)))


class PBAround(Record):
    """A pullback (p, q, r) around the composable pair (f, g): the square
    f∘g∘p = r∘q commutes and (q, g∘p) exhibits the inner object as the
    pullback of r against f."""

    f: FinSetMap
    g: FinSetMap
    p: FinSetMap
    q: FinSetMap
    r: FinSetMap

    def __post_init__(self) -> None:
        require(self.g.cod == self.f.dom, "pbaround-pair",
                "g must land in the domain of f")
        require(self.p.cod == self.g.dom and self.q.dom == self.p.dom,
                "pbaround-typing", "p and q must share a domain, p landing in Z")
        require(self.r.dom == self.q.cod and self.r.cod == self.f.cod,
                "pbaround-typing", "r must run from the codomain of q to B")
        require(compose(self.f, compose(self.g, self.p))
                == compose(self.r, self.q),
                "pbaround-square", "f∘g∘p and r∘q disagree")
        outer = pullback(self.r, self.f)
        seen = [outer.index(self.q(x), self.g(self.p(x)))
                for x in self.p.dom.elements]
        require(len(set(seen)) == len(seen) == outer.apex.size,
                "pbaround-pullback",
                "(q, g∘p) is not a pullback of (r, f)")

    def inner_index(self) -> dict[tuple[int, int], int]:
        """Invert the comparison x -> (q x, g p x)."""
        return {(self.q(x), self.g(self.p(x))): x
                for x in self.p.dom.elements}


def distributivity_pullback(f: FinSetMap, g: FinSetMap) -> PBAround:
    """The terminal pullback around (f, g): points of Y are sections of g
    over the fibers of f, r projects to B, and p evaluates sections.  The
    square is a pullback by construction (Weber, arXiv:1106.1983)."""
    require(g.cod == f.dom, "pbaround-pair", "g must land in the domain of f")
    pi = pi_f(f, g)
    return PBAround._trusted(f, g, pi.ev, pi.square.pr1, pi.proj)


def mediate_pb_around(
        target: PBAround,
        other: PBAround | tuple[FinSetMap, FinSetMap, FinSetMap]) -> FinSetMap:
    """The unique morphism of pullbacks-around from other to target: a map t
    with r∘t = r' admitting the induced s with p∘s = p' and q∘s = t∘q'.

    ``other`` may be given as a raw (p', q', r') triple so that almost-valid
    data (the error examples) can be probed; raises when no candidate or
    several candidates survive.
    """
    if isinstance(other, PBAround):
        require(other.f == target.f and other.g == target.g, "mediate-context",
                "both squares must sit around the same (f, g)")
        p2, q2, r2 = other.p, other.q, other.r
    else:
        p2, q2, r2 = other
    require(r2.cod == target.r.cod and q2.cod == r2.dom
            and p2.cod == target.g.dom and p2.dom == q2.dom,
            "mediate-typing", "other square has mismatched boundaries")
    inner = target.inner_index()
    # the constraints on t touch one point at a time, so filter per point
    per_point = []
    for y2 in r2.dom.elements:
        cands = []
        for y in target.r.fiber(r2(y2)):
            ok = True
            for x2 in q2.fiber(y2):
                x = inner.get((y, target.g(p2(x2))))
                if x is None or target.p(x) != p2(x2):
                    ok = False
                    break
            if ok:
                cands.append(y)
        per_point.append(cands)
    if any(not c for c in per_point):
        raise NoMediatorError("no-mediator",
                              "no map t with r∘t = r' admits the induced s")
    if any(len(c) > 1 for c in per_point):
        raise MultipleMediatorsError("multiple-mediators",
                                     "terminality is broken: several mediators")
    return FinSetMap(r2.dom, target.r.dom,
                     tuple(c[0] for c in per_point))


def induced_inner_map(target: PBAround, other: PBAround,
                      t: FinSetMap) -> FinSetMap:
    """The unique s with p∘s = p' and q∘s = t∘q' for a mediator t."""
    inner = target.inner_index()
    table = tuple(inner[(t(other.q(x2)), target.g(other.p(x2)))]
                  for x2 in other.p.dom.elements)
    s = FinSetMap(other.p.dom, target.p.dom, table)
    require(compose(target.p, s) == other.p and compose(target.q, s)
            == compose(t, other.q), "mediate-induced",
            "t does not induce an inner map")
    return s


def random_pb_around(f: FinSetMap, g: FinSetMap, seed: int) -> PBAround:
    """A seed-deterministic valid pullback around (f, g): a random r avoiding
    base points with empty section sets, pulled back and evaluated randomly."""
    require(g.cod == f.dom, "pbaround-pair", "g must land in the domain of f")
    rng = random.Random(seed)
    ok_b = [b for b in f.cod.elements
            if all(g.fiber(a) for a in f.fiber(b))]
    size = rng.randint(0, 4) if ok_b else 0
    y = FinSetObj(size)
    r = FinSetMap(y, f.cod, tuple(rng.choice(ok_b) for _ in range(size)))
    pb = pullback(r, f)
    p = FinSetMap(pb.apex, g.dom,
                  tuple(rng.choice(g.fiber(pb.pr2(x)))
                        for x in pb.apex.elements))
    return PBAround(f, g, p, pb.pr1, r)


class Bipullback(Record):
    """A bipullback square over a cospan whose right side is the graph span
    of a function (the groupoid-fibration side).

    Corners: vertex with d to the n-side foot and c to the function side;
    theta: n∘d => p_*∘c invertible.  ``kind`` records which construction
    produced it: 'pullback' (from a set-level pullback, source: Pullback) or
    'distributivity' (from a distributivity pullback, source: PBAround).
    """

    kind: str
    d: Span
    c: Span
    n: Span
    p_map: FinSetMap
    theta: SpanCell
    source: object

    def __post_init__(self) -> None:
        require(self.kind in ("pullback", "distributivity"), "bipullback-kind",
                "unknown construction kind")
        require(self.theta.source == compose_spans(self.n, self.d)
                and self.theta.target == compose_spans(graph(self.p_map), self.c),
                "bipullback-theta", "theta must connect n∘d to p_*∘c")
        require(self.theta.is_invertible, "bipullback-theta",
                "theta must be invertible")


def pullback_bipullback(f: FinSetMap, g: FinSetMap) -> Bipullback:
    """The bipullback of the cospan (f_*, g_*) induced by the set pullback."""
    pb = pullback(f, g)
    d = graph(pb.pr1)
    c = graph(pb.pr2)
    n = graph(f)
    nd, sq_nd = composite(n, d)
    pc, sq_pc = composite(graph(g), c)
    table = tuple(sq_pc.index(w, pb.pr2(w)) for w, _ in sq_nd.pairs)
    theta = SpanCell(nd, pc, FinSetMap(nd.apex, pc.apex, table))
    return Bipullback._trusted("pullback", d, c, n, g, theta, pb)


def distributivity_bipullback(pba: PBAround) -> Bipullback:
    """The bipullback of the cospan (f^*, g_*) carried by a distributivity
    pullback: vertex Y, with r_* toward the domain of f^* and the span
    (q, X, p) toward the domain of g_*."""
    y = pba.r.dom
    d = graph(pba.r)
    c = Span(y, pba.g.dom, pba.p.dom, pba.q, pba.p)
    n = cograph(pba.f)
    nd, sq_nd = composite(n, d)   # pairs (y, a) with r(y) = f(a)
    pc, sq_pc = composite(graph(pba.g), c)  # pairs (x, z) with p(x) = z
    inner = pba.inner_index()
    table = []
    for yy, a in sq_nd.pairs:
        x = inner[(yy, a)]
        table.append(sq_pc.index(x, pba.p(x)))
    theta = SpanCell(nd, pc, FinSetMap(nd.apex, pc.apex, tuple(table)))
    return Bipullback._trusted("distributivity", d, c, n, pba.g, theta, pba)


class Factorization(Record):
    """A cone factored through a bipullback: h into the vertex, lam the cell
    c∘h => v on the function side, rho the invertible cell d∘h => u."""

    h: Span
    lam: SpanCell
    rho: SpanCell


def paste_factorization(bp: Bipullback, fac: Factorization) -> SpanCell:
    """Paste (rho^{-1}, theta, lam) around the square, giving n∘u => p_*∘v."""
    p_span = graph(bp.p_map)
    step1 = whisker_left(bp.n, invert_cell(fac.rho))
    step2 = invert_cell(associator(bp.n, bp.d, fac.h))
    step3 = whisker_right(bp.theta, fac.h)
    step4 = associator(p_span, bp.c, fac.h)
    step5 = whisker_left(p_span, fac.lam)
    return vcomp(step5, vcomp(step4, vcomp(step3, vcomp(step2, step1))))


def _factorization(bp: Bipullback, u: Span, w: Span, h: Span,
                   lam_at: Callable[[int, int], int]) -> Factorization:
    """Complete h to a factorization: lam sends each pair (x, xb) of c∘h to
    lam_at(x, xb) in the apex of w, and rho projects d∘h onto u."""
    ch, sq_ch = composite(bp.c, h)
    lam = SpanCell(ch, w, FinSetMap(ch.apex, w.apex, tuple(
        lam_at(x, xb) for x, xb in sq_ch.pairs)))
    dh, sq_dh = composite(bp.d, h)
    return Factorization(h, lam, SpanCell(dh, u, sq_dh.pr1))


def _factor_invertible(bp: Bipullback, u: Span, w: Span, nu: SpanCell,
                       sq_nu: Pullback, sq_pw: Pullback) -> Factorization:
    """Factor an invertible square nu: n∘u => p_*∘w, whose ends are the
    composites over sq_nu and sq_pw, through the bipullback."""
    if bp.kind == "pullback":
        pb: Pullback = bp.source  # type: ignore[assignment]
        table = []
        w_of = []
        for x in u.apex.elements:
            i = sq_nu.index(x, u.right_leg(x))
            y2, _ = sq_pw.pairs[nu.h(i)]
            w_of.append(y2)
            table.append(pb.index(u.right_leg(x), w.right_leg(y2)))
        h = Span(u.left_foot, pb.apex, u.apex, u.left_leg,
                 FinSetMap(u.apex, pb.apex, tuple(table)))
        return _factorization(bp, u, w, h, lambda x, _: w_of[x])

    pba: PBAround = bp.source  # type: ignore[assignment]
    # read the square as a pullback-around (w.right, q'', u.right) and mediate
    nu_inv = invert_cell(nu)
    q2 = FinSetMap(w.apex, u.apex, tuple(
        sq_nu.pr1(nu_inv.h(sq_pw.index(y2, w.right_leg(y2))))
        for y2 in w.apex.elements))
    other = PBAround(pba.f, pba.g, w.right_leg, q2, u.right_leg)
    t = mediate_pb_around(pba, other)
    s = induced_inner_map(pba, other, t)
    h = Span(u.left_foot, pba.r.dom, u.apex, u.left_leg, t)
    # c∘h pairs (x in u.apex, xb in X with t(x) = q(xb)) biject with w's apex
    back = {(q2(y2), s(y2)): y2 for y2 in w.apex.elements}
    return _factorization(bp, u, w, h, lambda x, xb: back[(x, xb)])


def factor_through_bipullback(bp: Bipullback, u: Span, v: Span,
                              psi: SpanCell) -> Factorization:
    """Factor a cone (u, v, psi: n∘u => p_*∘v) through the bipullback.

    The cell psi need not be invertible: it is first lifted through the
    function side (replacing v by a span w isomorphic to n∘u over it), and
    the resulting invertible square is factored by the construction that
    built the bipullback.  The pasting of the returned data equals psi.
    """
    nu_comp, sq_nu = composite(bp.n, u)
    require(psi.source == nu_comp, "factor-cone",
            "psi must connect n∘u to p_*∘v")
    pv, sq_pv = composite(graph(bp.p_map), v)
    require(psi.target == pv, "factor-cone", "psi must connect n∘u to p_*∘v")
    chi_table = tuple(sq_pv.pairs[psi.h(i)][0]
                      for i in nu_comp.apex.elements)
    w = Span(u.left_foot, v.right_foot, nu_comp.apex, nu_comp.left_leg,
             FinSetMap(nu_comp.apex, v.right_foot,
                       tuple(v.right_leg(t) for t in chi_table)))
    chi = SpanCell(w, v, FinSetMap(w.apex, v.apex, chi_table))
    pw, sq_pw = composite(graph(bp.p_map), w)
    nu = SpanCell(nu_comp, pw,
                  FinSetMap(nu_comp.apex, pw.apex,
                            tuple(sq_pw.index(x, w.right_leg(x))
                                  for x in nu_comp.apex.elements)))
    base = _factor_invertible(bp, u, w, nu, sq_nu, sq_pw)
    return Factorization(base.h, vcomp(chi, base.lam), base.rho)
