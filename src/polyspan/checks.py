"""Seeded property suites behind the command line ``check`` command.

Each suite redraws its instances from a single seed, so a reported
failure pins down the exact case: the message carries the case number
and a compact rendering of the offending data.  Suite names double as
the stable identifiers for the package's acceptance guarantees.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import random
from collections.abc import Callable

from .documents import _CODECS, Document, document, serialize
from .errors import InvariantViolation
from .fincat import (
    Functor,
    _after,
    compose_functors,
    comprehensive_factorization,
    discrete_cat,
    elements,
    fibers,
    is_discrete_fibration,
    is_final,
    is_functor_iso,
    is_groupoid_fibration,
    gfib_via_cotensor,
    presheaf_iso,
)
from .finset import FinSetMap, FinSetObj
from .gen import (
    _lift_bounds,
    rand_dfib,
    rand_family,
    rand_fincat,
    rand_functor,
    rand_hk_case,
    rand_map,
    rand_poly,
    rand_presheaf,
    rand_relation,
    rand_relpoly,
    rand_span,
    random_document,
)
from .modpoly import (
    ModPolynomial,
    PolymodParts,
    Profunctor,
    _built,
    graph_module,
    hK_mod,
    hK_mod_via_lifting,
    module_as_presheaf,
    polymod_parts,
    prof_compose,
    prof_iso,
)
from .polyset import (
    CompositeParts,
    ExtensionRank,
    FamilyMap,
    IndexedFamily,
    Polynomial,
    are_isomorphic_poly,
    compose_poly,
    composite_parts,
    extension_eval,
    extension_on_map,
    hK_span,
    m_span,
)
from .record import Record
from .relpoly import (
    compose_polyrel,
    graph_rel,
    hK_rel,
    kleisli_compose,
    rel_compose,
    rel_rif,
    reverse_rel,
    to_partial_map,
)
from .spans import (
    Span,
    distributivity_pullback,
    is_map,
    mediate_pb_around,
    random_pb_around,
    triangle_identities_hold,
)


class CheckReport(Record):
    name: str
    count: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _compact(kind: str, payload: object) -> str:
    _, encode, _ = _CODECS[kind]
    return json.dumps(encode(payload), sort_keys=True,
                      separators=(",", ":"))


# -- shared small constructions --------------------------------------------

def embed_poly(p: Polynomial) -> ModPolynomial:
    """A set-level polynomial as a polynomial over discrete categories."""
    x, s = discrete_cat(p.X.size), discrete_cat(p.S.size)
    y = discrete_cat(p.Y.size)
    neat = Functor._trusted(s, y, tuple(p.p.table), tuple(p.p.table))
    return ModPolynomial(x, y, s, span_as_prof(m_span(p)), neat)


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
    sizes = [[0] * s.left_foot.size for _ in range(s.right_foot.size)]
    for ko, xo in zip(s.left_leg.table, s.right_leg.table):
        sizes[xo][ko] += 1
    return _built(discrete_cat(s.left_foot.size),
                  discrete_cat(s.right_foot.size), sizes, None, None)


def composite_bijection(
        Q: Polynomial, P: Polynomial, parts: CompositeParts,
) -> Callable[[IndexedFamily, IndexedFamily], list[int]]:
    """The element-level bijection ext(Q o P)(A) -> ext(Q)(ext(P)(A)), as
    a function of A and ext(P)(A).

    The plan is built once per (Q, P), from its ``composite_parts``: for
    each position w of Q o P, the position s_q of Q under it and, for each
    direction e_q over s_q, its label Q.m1(e_q), the position s_p of P it
    picks and the positions in the m2-fiber of w of the directions over
    s_p.  Each family then computes indices from ``ExtensionRank``s: the
    index in ext(Q)(ext(P)(A)) is linear in the digits of the section
    over w, so each w gives one constant and one weight per digit."""
    n = parts.poly
    inner = parts.pba.inner_index()
    position = n.m2.fiber_position
    plan = []
    for w in n.S.elements:
        s_q = parts.pba.r(w)
        steps = []
        for e_q in Q.m2.fiber(s_q):
            v = inner[(w, e_q)]
            s_p = parts.pb1.pr1(parts.pba.p(v))
            steps.append((Q.m1(e_q), s_p,
                          tuple(position(parts.directions.index(v, e_p))
                                for e_p in P.m2.fiber(s_p))))
        plan.append((s_q, steps))

    def bijection(A: IndexedFamily, ext_p: IndexedFamily) -> list[int]:
        rank_n, rank_p = ExtensionRank(n, A), ExtensionRank(P, A)
        rank_q = ExtensionRank(Q, ext_p)
        table: list[int] = []
        for w in rank_n.positions:
            s_q, steps = plan[w]
            # the value of the section over s_q at e_q is an element of
            # ext(P)(A) over x; its digit is its index less start[x]
            start, weights = rank_q.offset[s_q], [0] * len(n.m2.fiber(w))
            for e_q, (x, s_p, ks) in zip(Q.m2.fiber(s_q), steps):
                w_q = rank_q.weight[e_q]
                start += (rank_p.offset[s_p] - rank_p.start[x]) * w_q
                for k, e_p in zip(ks, P.m2.fiber(s_p)):
                    weights[k] = w_q * rank_p.weight[e_p]
            table += rank_n.ranks(start, w, weights)
        return table
    return bijection


def _fiber_sizes(fam: IndexedFamily) -> tuple[int, ...]:
    return tuple(len(fam.fiber(b)) for b in fam.base.elements)


def _rand_family_map(rng: random.Random, a: IndexedFamily) -> FamilyMap:
    sizes = [rng.randint(1, 3) if a.fiber(b) else rng.randint(0, 2)
             for b in a.base.elements]
    proj_table = []
    for b, n in enumerate(sizes):
        proj_table.extend([b] * n)
    tgt = IndexedFamily(a.base, FinSetObj(sum(sizes)),
                        FinSetMap(FinSetObj(sum(sizes)), a.base,
                                  tuple(proj_table)))
    table = tuple(rng.choice(tgt.fiber(a.proj(i)))
                  for i in a.total.elements)
    return FamilyMap(a, tgt, FinSetMap(a.total, tgt.total, table))


# -- suite 1: extension oracle ----------------------------------------------

def _bounded_poly(rng: random.Random, x: FinSetObj,
                  y: FinSetObj) -> Polynomial:
    while True:
        p = rand_poly(rng, x, y, smax=5, emax=3)
        if p.E.size <= 5 and p.S.size <= 5:
            return p


def check_extension_oracle(seed: int, count: int | None = None) -> CheckReport:
    count = 200 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        x = FinSetObj(rng.randint(0, 3))
        y = FinSetObj(rng.randint(0, 3))
        z = FinSetObj(rng.randint(0, 3))
        p = _bounded_poly(rng, x, y)
        q = _bounded_poly(rng, y, z)
        # the composite under test is the one the comparison's plan indexes
        parts = composite_parts(q, p)
        n = parts.poly
        fams = [rand_family(rng, x) for _ in range(5)]
        compare = composite_bijection(q, p, parts)

        def where() -> str:
            return (f"p={_compact('polynomial', p)} "
                    f"q={_compact('polynomial', q)}")
        ext_ps = [extension_eval(p, a) for a in fams]
        for a, ext_p in zip(fams, ext_ps):
            direct = extension_eval(n, a)
            nested = extension_eval(q, ext_p)
            if _fiber_sizes(direct) != _fiber_sizes(nested):
                failures.append(f"case {i}: extension fiber counts differ; "
                                f"{where()} family={_compact('family', a)}")
                continue
            table = compare(a, ext_p)
            if (sorted(table) != list(range(nested.total.size))
                    or direct.proj.table != _after(nested.proj.table, table)):
                failures.append(f"case {i}: comparison map is not a "
                                f"fiberwise bijection; {where()} "
                                f"family={_compact('family', a)}")
        a = fams[0]
        phi_src = compare(a, ext_ps[0])
        for _ in range(2):
            fm = _rand_family_map(rng, a)
            phi_tgt = compare(fm.tgt, extension_eval(p, fm.tgt))
            down = extension_on_map(n, fm).h.table
            across = extension_on_map(q, extension_on_map(p, fm)).h.table
            if _after(phi_tgt, down) != _after(across, phi_src):
                failures.append(f"case {i}: comparison map not natural; "
                                f"{where()} map into "
                                f"{_compact('family', fm.tgt)}")
    return CheckReport("extension-oracle", count, tuple(failures))


# -- suite 2: distributivity terminality ------------------------------------

def _exhaustive_mediators(target, other) -> list[tuple[int, ...]]:
    inner = target.inner_index()
    fibs = [target.r.fiber(other.r(y2)) for y2 in other.r.dom.elements]
    found = []
    for t_tab in itertools.product(*fibs):
        ok = True
        for x2 in other.p.dom.elements:
            xx = inner.get((t_tab[other.q(x2)], target.g(other.p(x2))))
            if xx is None or target.p(xx) != other.p(x2):
                ok = False
                break
        if ok:
            found.append(t_tab)
    return found


def check_distributivity_terminality(seed: int,
                                     count: int | None = None) -> CheckReport:
    count = 200 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        b = rng.randint(0, 4)
        a = rng.randint(0, 4) if b else 0
        c = rng.randint(0, 4) if a else 0
        f = rand_map(rng, FinSetObj(a), FinSetObj(b))
        g = rand_map(rng, FinSetObj(c), FinSetObj(a))
        target = distributivity_pullback(f, g)

        def where() -> str:
            return (f"f={_compact('finset-map', f)} "
                    f"g={_compact('finset-map', g)}")
        try:  # distributivity_pullback builds the square unchecked
            target.__post_init__()
        except InvariantViolation as e:
            failures.append(f"case {i}: the sections square: {e}; {where()}")
            continue
        for _ in range(5):
            other = random_pb_around(f, g, rng.randrange(10 ** 9))
            found = _exhaustive_mediators(target, other)
            if len(found) != 1:
                failures.append(f"case {i}: {len(found)} mediators into the "
                                f"sections square; {where()} "
                                f"r'={_compact('finset-map', other.r)}")
                continue
            if mediate_pb_around(target, other).table != found[0]:
                failures.append(f"case {i}: computed mediator differs from "
                                f"the search result; {where()}")
    return CheckReport("distributivity-terminality", count, tuple(failures))


# -- suite 3: map characterization ------------------------------------------

def check_map_characterization(seed: int,
                               count: int | None = None) -> CheckReport:
    # exhaustive over all spans with feet and apex of size at most 3;
    # seed and count are accepted for interface uniformity only
    del seed, count
    failures = []
    examined = 0
    for lsize, rsize, esize in itertools.product(range(4), repeat=3):
        apex, left, right = (FinSetObj(n) for n in (esize, lsize, rsize))
        for ltab in itertools.product(range(lsize), repeat=esize):
            for rtab in itertools.product(range(rsize), repeat=esize):
                s = Span(left, right, apex, FinSetMap(apex, left, ltab),
                         FinSetMap(apex, right, rtab))
                examined += 1
                w = is_map(s)
                if (w is not None) != s.left_leg.is_bijective:
                    failures.append("adjoint witness disagrees with left-leg "
                                    f"bijectivity on {_compact('span', s)}")
                if w is not None and not triangle_identities_hold(s, w):
                    failures.append("triangle identities fail on "
                                    f"{_compact('span', s)}")
    return CheckReport("map-characterization", examined, tuple(failures))


# -- suite 4: relational Kleisli transport ----------------------------------

def check_rel_kleisli(seed: int, count: int | None = None) -> CheckReport:
    count = 300 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        x = FinSetObj(rng.randint(0, 5))
        c = FinSetObj(rng.randint(0, 5))
        d = FinSetObj(rng.randint(0, 5))
        p = rand_relpoly(rng, x, c)
        q = rand_relpoly(rng, c, d)
        direct = to_partial_map(compose_polyrel(q, p))
        stacked = kleisli_compose(to_partial_map(q), to_partial_map(p))
        if direct != stacked:
            failures.append(f"case {i}: Kleisli transport breaks on "
                            f"p={_compact('rel-polynomial', p)} "
                            f"q={_compact('rel-polynomial', q)}")
    return CheckReport("rel-kleisli", count, tuple(failures))


# -- suite 5: category of elements roundtrips -------------------------------

def _dfib_comparison(r: Functor) -> tuple[Functor, Functor]:
    """The canonical functor from elements(fibers(r)) to the domain of r,
    together with the elements projection it should commute with."""
    el2 = elements(fibers(r))
    fiber = r.over.fiber
    h_omap = tuple(fiber(b)[t] for b, t in el2.objects_data)
    h_mmap = tuple(r.lifts(fiber(r.cod.tgt(beta))[t2], beta)[0]
                   for beta, t2 in el2.morphisms_data)
    h = Functor(el2.cat, r.dom, h_omap, h_mmap)
    return h, el2.proj


def check_grothendieck_roundtrip(seed: int,
                                 count: int | None = None) -> CheckReport:
    count = 100 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        c = rand_fincat(rng, max_objs=4, max_mors=12)
        psh = rand_presheaf(rng, c)
        el = elements(psh)
        if not is_discrete_fibration(el.proj):
            failures.append(f"case {i}: elements projection is not a "
                            "discrete fibration over "
                            f"{_compact('fincat', c)}")
            continue
        if presheaf_iso(fibers(el.proj), psh) is None:
            failures.append(f"case {i}: fibers of elements do not return "
                            f"the presheaf over {_compact('fincat', c)}")
        r = rand_dfib(rng, c)
        h, proj2 = _dfib_comparison(r)
        if not is_functor_iso(h) or compose_functors(r, h) != proj2:
            failures.append(f"case {i}: elements of fibers not isomorphic "
                            "over the base for "
                            f"r={_compact('functor', r)}")
    return CheckReport("grothendieck-roundtrip", count, tuple(failures))


# -- suite 6: comprehensive factorization -----------------------------------

def check_comprehensive_factorization(seed: int,
                                      count: int | None = None) -> CheckReport:
    count = 100 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        b = rand_fincat(rng)
        if i % 3 == 2:
            # exercise inputs that are already discrete fibrations
            g = rand_dfib(rng, b)
        else:
            g = None
            while g is None:
                a = rand_fincat(rng)
                g = rand_functor(rng, a, b)
        j, s = comprehensive_factorization(g)

        def where() -> str:
            return f"g={_compact('functor', g)}"
        if compose_functors(s, j) != g:
            failures.append(f"case {i}: factors do not compose to the "
                            f"input; {where()}")
            continue
        if not is_discrete_fibration(s):
            failures.append(f"case {i}: second factor is not a discrete "
                            f"fibration; {where()}")
        if not is_final(j):
            failures.append(f"case {i}: first factor is not final; {where()}")
        if is_discrete_fibration(g) and not is_functor_iso(j):
            failures.append(f"case {i}: discrete fibration input did not "
                            f"factor through an isomorphism; {where()}")
    return CheckReport("comprehensive-factorization", count, tuple(failures))


# -- suite 7: groupoid fibration criterion ----------------------------------

def check_groupoid_criterion(seed: int,
                             count: int | None = None) -> CheckReport:
    count = 200 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        p = None
        while p is None:
            a = rand_fincat(rng, max_objs=3, max_mors=10)
            b = rand_fincat(rng, max_objs=3, max_mors=10)
            p = rand_functor(rng, a, b)
        direct = is_groupoid_fibration(p)
        via_arrows = gfib_via_cotensor(p)
        if direct != via_arrows:
            failures.append(f"case {i}: criteria disagree (direct={direct}) "
                            f"on {_compact('functor', p)}")
    return CheckReport("groupoid-criterion", count, tuple(failures))


# -- suites 8 and 10: module composites, with what they hold by construction

def witnessed_parts(q: ModPolynomial,
                    p: ModPolynomial) -> tuple[PolymodParts, list[str]]:
    """``polymod_parts(q, p)`` and which of the facts it holds by
    construction fail: the lifting, the induced module n and the
    composite's lifter are lawful modules, n fills the square
    (p.p)_*∘n ≅ q.m∘r_*, and the tabulation's fibers are the lifted
    presheaf, table for table."""
    parts = polymod_parts(q, p)
    wrong = []
    for name, m in (("lifting", parts.rif.prof), ("induced module", parts.n),
                    ("composite's lifter", parts.poly.m)):
        try:  # _built builds each module unchecked
            m.__post_init__()
        except InvariantViolation as e:
            wrong.append(f"the {name} is not a module: {e}")
    if prof_iso(prof_compose(graph_module(p.p), parts.n),
                prof_compose(q.m, graph_module(parts.tab.proj))) is None:
        wrong.append("the induced module does not fill the square with "
                     "the graph modules")
    if fibers(parts.tab.proj) != module_as_presheaf(parts.rif.prof):
        wrong.append("the tabulation's fibers are not the lifted presheaf")
    return parts, wrong


# -- suite 8: module-level hom action ---------------------------------------

def check_mod_h_pseudofunctor(seed: int,
                              count: int | None = None) -> CheckReport:
    count = 100 if count is None else count
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < count:
        case = rand_hk_case(rng)
        if case is None:
            continue
        k, p, q, u = case
        i = done

        def where() -> str:
            return (f"p={_compact('mod-polynomial', p)} "
                    f"q={_compact('mod-polynomial', q)} "
                    f"u={_compact('profunctor', u)}")
        parts, wrong = witnessed_parts(q, p)
        failures += [f"case {i}: {w}; {where()}" for w in wrong]
        qp = parts.poly
        if any(_lift_bounds(qp.m, [row[kk] for row in u.at])[0]
               > 40000 for kk in k.objs):
            continue
        step = hK_mod(k, p, u)
        evals = [
            ("first action", step, hK_mod_via_lifting(k, p, u)),
            ("second action", hK_mod(k, q, step),
             hK_mod_via_lifting(k, q, step)),
            ("composite action", hK_mod(k, qp, u),
             hK_mod_via_lifting(k, qp, u)),
        ]
        bad = [label for label, left, right in evals
               if prof_iso(left, right) is None]
        failures += [f"case {i}: the two formulas disagree on the {label}; "
                     f"{where()}" for label in bad]
        if not bad and prof_iso(evals[2][1], evals[1][1]) is None:
            failures.append(f"case {i}: action through the composite is "
                            f"not the composite of actions; {where()}")
        done += 1
    return CheckReport("mod-h-pseudofunctor", count, tuple(failures))


# -- suite 9: relational hom action -----------------------------------------

def check_rel_h_formula(seed: int, count: int | None = None) -> CheckReport:
    count = 100 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        x = FinSetObj(rng.randint(1, 4))
        c = FinSetObj(rng.randint(1, 4))
        d = FinSetObj(rng.randint(1, 4))
        k = FinSetObj(rng.randint(1, 3))
        p = rand_relpoly(rng, x, c)
        s = rand_relation(rng, k, x)
        direct = hK_rel(k, p, s)
        factored = rel_compose(graph_rel(p.Z.inclusion()),
                               rel_rif(reverse_rel(p.A), s))

        def where() -> str:
            return (f"p={_compact('rel-polynomial', p)} "
                    f"s={_compact('relation', s)}")
        if direct != factored:
            failures.append(f"case {i}: pointwise formula differs from "
                            f"lift-then-compose; {where()}")
            continue
        q = rand_relpoly(rng, c, d)
        if hK_rel(k, compose_polyrel(q, p), s) != hK_rel(k, q, direct):
            failures.append(f"case {i}: action not strictly functorial; "
                            f"{where()} q={_compact('rel-polynomial', q)}")
    return CheckReport("rel-h-formula", count, tuple(failures))


# -- suite 10: discrete reduction -------------------------------------------

def check_discrete_reduction(seed: int,
                             count: int | None = None) -> CheckReport:
    count = 50 if count is None else count
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        x = FinSetObj(rng.randint(1, 3))
        y = FinSetObj(rng.randint(1, 3))
        z = FinSetObj(rng.randint(1, 3))
        p = rand_poly(rng, x, y, smax=3, emax=2)
        q = rand_poly(rng, y, z, smax=3, emax=2)

        def where() -> str:
            return (f"p={_compact('polynomial', p)} "
                    f"q={_compact('polynomial', q)}")
        direct = compose_poly(q, p)
        parts, wrong = witnessed_parts(embed_poly(q), embed_poly(p))
        failures += [f"case {i}: {w}; {where()}" for w in wrong]
        if not are_isomorphic_poly(decode_poly(parts.poly), direct):
            failures.append(f"case {i}: categorical composite decodes to a "
                            f"different polynomial; {where()}")
            continue
        kset = FinSetObj(rng.randint(1, 2))
        u_span = rand_span(rng, kset, x, emax=4)
        out_span = hK_span(kset, p, u_span)
        out_mod = hK_mod(discrete_cat(kset.size), embed_poly(p),
                         span_as_prof(u_span))
        for yo in range(y.size):
            for ko in range(kset.size):
                want = sum(1 for v in out_span.apex.elements
                           if out_span.left_leg(v) == ko
                           and out_span.right_leg(v) == yo)
                if out_mod.at[yo][ko] != want:
                    failures.append(f"case {i}: hom action matrices differ "
                                    f"at ({ko}, {yo}); {where()} "
                                    f"u={_compact('span', u_span)}")
    return CheckReport("discrete-reduction", count, tuple(failures))


# -- suite 11: golden documents ---------------------------------------------

def _monomial(exponent: int) -> Polynomial:
    one = FinSetObj(1)
    e = FinSetObj(exponent)
    return Polynomial(one, e, one, one,
                      FinSetMap(e, one, (0,) * exponent),
                      FinSetMap(e, one, (0,) * exponent),
                      FinSetMap(one, one, (0,)))


def _successor() -> Polynomial:
    # one linear summand and one constant summand: a |-> a + 1
    one = FinSetObj(1)
    two = FinSetObj(2)
    return Polynomial(one, one, two, one,
                      FinSetMap(one, one, (0,)),
                      FinSetMap(one, two, (0,)),
                      FinSetMap(two, one, (0, 0)))


GOLDEN_SEEDS = (("random-polynomial", "polynomial", 11),
                ("random-rel-polynomial", "rel-polynomial", 12),
                ("random-mod-polynomial", "mod-polynomial", 13))


def golden_documents() -> dict[str, Document]:
    """Every golden document recomputed from scratch, keyed by file stem."""
    out = {
        "monomial-compose": document(
            "polynomial", compose_poly(_monomial(2), _monomial(3))),
        "successor-compose": document(
            "polynomial", compose_poly(_successor(), _successor())),
    }
    for stem, kind, seed in GOLDEN_SEEDS:
        out[stem] = random_document(kind, seed)
    return out


def check_cli_determinism(seed: int, count: int | None = None) -> CheckReport:
    # the goldens are fixed files; seed and count are accepted for
    # interface uniformity only
    del seed, count
    failures = []
    docs = golden_documents()
    mono = docs["monomial-compose"].payload
    if (mono.E.size, mono.S.size, mono.X.size, mono.Y.size) != (6, 1, 1, 1):
        failures.append("squaring a cube is not the sixth power: got "
                        f"{_compact('polynomial', mono)}")
    succ = docs["successor-compose"].payload
    if _fiber_sizes(extension_eval(
            succ, IndexedFamily(FinSetObj(1), FinSetObj(3),
                                FinSetMap(FinSetObj(3), FinSetObj(1),
                                          (0, 0, 0))))) != (5,):
        failures.append("composing successors does not add two: got "
                        f"{_compact('polynomial', succ)}")
    base = importlib.resources.files("polyspan") / "goldens"
    for stem in sorted(docs):
        want = serialize(docs[stem])
        try:
            stored = (base / f"{stem}.json").read_text()
        except OSError:
            failures.append(f"golden file {stem}.json is missing")
            continue
        if stored != want:
            failures.append(f"golden file {stem}.json does not match the "
                            "recomputed bytes")
    return CheckReport("cli-determinism", len(docs), tuple(failures))


SUITES: dict[str, tuple] = {
    "extension-oracle": (
        check_extension_oracle,
        "composite extensions match nested extensions, naturally"),
    "distributivity-terminality": (
        check_distributivity_terminality,
        "the sections square admits exactly one mediator from any other"),
    "map-characterization": (
        check_map_characterization,
        "spans with invertible left leg are exactly the right adjoints"),
    "rel-kleisli": (
        check_rel_kleisli,
        "relational composition transports to Kleisli composition"),
    "grothendieck-roundtrip": (
        check_grothendieck_roundtrip,
        "presheaves and discrete fibrations convert back and forth"),
    "comprehensive-factorization": (
        check_comprehensive_factorization,
        "every functor factors as final then discrete fibration"),
    "groupoid-criterion": (
        check_groupoid_criterion,
        "two groupoid-fibration definitions agree"),
    "mod-h-pseudofunctor": (
        check_mod_h_pseudofunctor,
        "the module hom action respects composition up to isomorphism"),
    "rel-h-formula": (
        check_rel_h_formula,
        "the relational hom action factors through right lifting"),
    "discrete-reduction": (
        check_discrete_reduction,
        "discrete categories recover the set-level theory"),
    "cli-determinism": (
        check_cli_determinism,
        "golden documents byte-match their recomputations"),
}


def run_suite(name: str, seed: int = 0,
              count: int | None = None) -> CheckReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    fn = SUITES[name][0]
    return fn(seed, count)
