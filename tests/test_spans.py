"""Span composition, cells, liftings, and pullbacks-around."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspan import checks, finset, spans
from polyspan.errors import (
    InvariantViolation,
    MultipleMediatorsError,
    NoMediatorError,
)
from polyspan.finset import FinSetMap, FinSetObj, compose, identity, pullback
from polyspan.spans import (
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
    identity_cell,
    identity_span,
    invert_cell,
    is_map,
    mediate_pb_around,
    paste_factorization,
    post_graph_cell,
    pullback_bipullback,
    random_pb_around,
    reverse_span,
    rif_paste,
    rif_span,
    rif_transpose,
    triangle_identities_hold,
    unitor_cod,
    unitor_dom,
    vcomp,
    whisker_left,
    whisker_right,
)


def rand_map(rng, dom, cod):
    return FinSetMap(dom, cod, tuple(rng.randrange(cod.size)
                                     for _ in range(dom.size)))


def rand_span(rng, left, right, apex_max=4):
    apex = FinSetObj(rng.randint(0, apex_max)
                     if left.size and right.size else 0)
    return Span(left, right, apex,
                rand_map(rng, apex, left), rand_map(rng, apex, right))


def all_cells(s, t):
    """Every SpanCell s => t, by filtered product over apex elements."""
    cands = []
    for a in s.apex.elements:
        cands.append([b for b in t.apex.elements
                      if t.left_leg(b) == s.left_leg(a)
                      and t.right_leg(b) == s.right_leg(a)])
    for table in itertools.product(*cands):
        yield SpanCell(s, t, FinSetMap(s.apex, t.apex, table))


def iso_search(s, t):
    return [c for c in all_cells(s, t) if c.is_invertible]


class TestCompose:
    def test_identity_right_unit_iso_by_search(self):
        rng = random.Random(5)
        t = rand_span(rng, FinSetObj(3), FinSetObj(2))
        comp = compose_spans(t, identity_span(FinSetObj(3)))
        assert iso_search(comp, t)
        assert iso_search(t, comp)

    def test_singleton_everything(self):
        one = FinSetObj(1)
        s = Span(one, one, one, identity(one), identity(one))
        assert compose_spans(s, s).apex.size == 1

    def test_product_pullback_apex_six(self):
        one = FinSetObj(1)
        s = Span(one, one, FinSetObj(2),
                 FinSetMap(FinSetObj(2), one, (0, 0)),
                 FinSetMap(FinSetObj(2), one, (0, 0)))
        t = Span(one, one, FinSetObj(3),
                 FinSetMap(FinSetObj(3), one, (0, 0, 0)),
                 FinSetMap(FinSetObj(3), one, (0, 0, 0)))
        assert compose_spans(t, s).apex.size == 6

    def test_foot_mismatch_rejected(self):
        s = identity_span(FinSetObj(2))
        t = identity_span(FinSetObj(3))
        with pytest.raises(InvariantViolation, match="span-compose-boundary"):
            compose_spans(t, s)


class TestGraphCograph:
    def test_graph_of_identity_is_identity_span(self):
        x = FinSetObj(4)
        assert graph(identity(x)) == identity_span(x)

    def test_cograph_apex(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        c = cograph(f)
        assert c.apex.size == 2
        assert c.left_foot.size == 1 and c.right_foot.size == 2

    def test_graph_compose_cograph_apex(self):
        f = FinSetMap(FinSetObj(5), FinSetObj(3), (0, 1, 1, 2, 0))
        comp = compose_spans(graph(f), cograph(f))
        assert comp.apex.size == 5  # pairs (x, x) along equal maps

    def test_cograph_then_graph_is_kernel_pair(self):
        f = FinSetMap(FinSetObj(4), FinSetObj(2), (0, 0, 1, 1))
        comp = compose_spans(cograph(f), graph(f))
        assert comp.apex.size == 8  # two fibers of size 2, squared


class TestCells:
    def test_vertical_composition_and_identity(self):
        rng = random.Random(9)
        s = rand_span(rng, FinSetObj(2), FinSetObj(2))
        cell = identity_cell(s)
        assert vcomp(cell, cell) == cell

    def test_unitors_and_associator_are_invertible(self):
        rng = random.Random(11)
        for _ in range(100):
            a = FinSetObj(rng.randint(1, 3))
            b = FinSetObj(rng.randint(1, 3))
            c = FinSetObj(rng.randint(1, 3))
            d = FinSetObj(rng.randint(1, 3))
            r = rand_span(rng, a, b)
            s = rand_span(rng, b, c)
            t = rand_span(rng, c, d)
            alpha = associator(t, s, r)
            assert alpha.is_invertible
            assert unitor_dom(r).is_invertible
            assert unitor_cod(r).is_invertible

    def test_associativity_iso_found_by_search_too(self):
        rng = random.Random(13)
        x = FinSetObj(2)
        r = rand_span(rng, x, x, 3)
        s = rand_span(rng, x, x, 3)
        t = rand_span(rng, x, x, 3)
        left = compose_spans(compose_spans(t, s), r)
        right = compose_spans(t, compose_spans(s, r))
        found = iso_search(left, right)
        assert associator(t, s, r) in found

    def test_only_a_bijective_cell_inverts(self):
        x = FinSetObj(1)

        def constant_span(apex):
            leg = FinSetMap(apex, x, (0,) * apex.size)
            return Span(x, x, apex, leg, leg)

        one, two = FinSetObj(1), FinSetObj(2)
        for src, tgt, table in ((two, one, (0, 0)), (two, two, (1, 1)),
                                (one, two, (1,))):
            cell = SpanCell(constant_span(src), constant_span(tgt),
                            FinSetMap(src, tgt, table))
            with pytest.raises(InvariantViolation) as e:
                invert_cell(cell)
            assert str(e.value) == ("cell-invertible: only a bijective cell "
                                    "can be inverted")
        swap = SpanCell(constant_span(two), constant_span(two),
                        FinSetMap(two, two, (1, 0)))
        assert invert_cell(swap) == swap

    def test_cell_validation_rejects_leg_breakers(self):
        x = FinSetObj(2)
        s = Span(x, x, FinSetObj(2), identity(x),
                 FinSetMap(x, x, (0, 1)))
        swap = FinSetMap(x, x, (1, 0))
        with pytest.raises(InvariantViolation, match="cell-"):
            SpanCell(s, s, swap)


class TestIsMap:
    def test_graph_has_witness_with_triangles(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
        w = is_map(graph(f))
        assert w is not None
        assert w.right_adjoint == reverse_span(graph(f))
        assert triangle_identities_hold(graph(f), w)

    def test_cograph_of_noninjective_map_has_none(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        assert is_map(cograph(f)) is None

    def test_identity_span_witness_is_identity(self):
        x = FinSetObj(3)
        w = is_map(identity_span(x))
        assert w is not None
        assert triangle_identities_hold(identity_span(x), w)
        assert w.unit.h == identity(x)
        assert w.counit.h == identity(x)

    def test_witness_iff_left_leg_bijective(self):
        rng = random.Random(17)
        for _ in range(60):
            left = FinSetObj(rng.randint(0, 3))
            right = FinSetObj(rng.randint(1, 3))
            apex = FinSetObj(rng.randint(0, 3))
            if left.size == 0 and apex.size:
                continue
            s = Span(left, right, apex, rand_map(rng, apex, left)
                     if left.size else FinSetMap(apex, left, ()),
                     rand_map(rng, apex, right))
            w = is_map(s)
            assert (w is not None) == s.left_leg.is_bijective
            assert w is None or triangle_identities_hold(s, w)


class TestRif:
    def test_lift_through_identity(self):
        rng = random.Random(19)
        x = FinSetObj(2)
        u = rand_span(rng, FinSetObj(2), x, 3)
        r = rif_span(identity_span(x), u)
        assert iso_search(r.span, u)

    def test_empty_lifter_gives_terminal_span(self):
        k, s_obj, x = FinSetObj(2), FinSetObj(3), FinSetObj(2)
        m = Span(s_obj, x, FinSetObj(0), FinSetMap(FinSetObj(0), s_obj, ()),
                 FinSetMap(FinSetObj(0), x, ()))
        u = Span(k, x, FinSetObj(2), FinSetMap(FinSetObj(2), k, (0, 1)),
                 FinSetMap(FinSetObj(2), x, (0, 1)))
        r = rif_span(m, u)
        assert r.span.apex.size == k.size * s_obj.size

    def test_section_count_nine(self):
        one = FinSetObj(1)
        m = Span(one, one, FinSetObj(2),
                 FinSetMap(FinSetObj(2), one, (0, 0)),
                 FinSetMap(FinSetObj(2), one, (0, 0)))
        u = Span(one, one, FinSetObj(3),
                 FinSetMap(FinSetObj(3), one, (0, 0, 0)),
                 FinSetMap(FinSetObj(3), one, (0, 0, 0)))
        r = rif_span(m, u)
        assert r.span.apex.size == 9

    def test_counit_boundary(self):
        rng = random.Random(23)
        m = rand_span(rng, FinSetObj(2), FinSetObj(2), 3)
        u = rand_span(rng, FinSetObj(2), FinSetObj(2), 3)
        r = rif_span(m, u)
        assert r.counit.source == compose_spans(m, r.span)
        assert r.counit.target == u

    def test_universal_property_exhaustively(self):
        rng = random.Random(29)
        for _ in range(100):
            k = FinSetObj(rng.randint(1, 2))
            s_obj = FinSetObj(rng.randint(1, 2))
            x = FinSetObj(rng.randint(1, 2))
            m = rand_span(rng, s_obj, x, 2)
            u = rand_span(rng, k, x, 3)
            v = rand_span(rng, k, s_obj, 2)
            r = rif_span(m, u)
            mv = compose_spans(m, v)
            for phi in all_cells(mv, u):
                matching = [psi for psi in all_cells(v, r.span)
                            if rif_paste(m, r, psi) == phi]
                assert len(matching) == 1
                assert rif_transpose(m, r, v, phi) == matching[0]

    def test_transpose_inverts_paste(self):
        rng = random.Random(31)
        for _ in range(50):
            k = FinSetObj(rng.randint(1, 3))
            s_obj = FinSetObj(rng.randint(1, 3))
            x = FinSetObj(rng.randint(1, 3))
            m = rand_span(rng, s_obj, x, 3)
            u = rand_span(rng, k, x, 3)
            v = rand_span(rng, k, s_obj, 3)
            r = rif_span(m, u)
            for psi in itertools.islice(all_cells(v, r.span), 5):
                assert rif_transpose(m, r, v, rif_paste(m, r, psi)) == psi


class TestDistributivity:
    def test_identity_inner_map(self):
        a = FinSetObj(3)
        f = FinSetMap(a, FinSetObj(2), (0, 0, 1))
        pba = distributivity_pullback(f, identity(a))
        assert pba.r.dom.size == f.cod.size
        assert pba.r.is_bijective

    def test_fiber_counts_six_and_twelve(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        g = FinSetMap(FinSetObj(5), FinSetObj(2), (0, 0, 1, 1, 1))
        pba = distributivity_pullback(f, g)
        assert pba.r.dom.size == 6
        assert pba.p.dom.size == 12

    def test_empty_fiber_gives_singleton(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(2), (0, 0))
        g = FinSetMap(FinSetObj(2), FinSetObj(2), (0, 0))
        pba = distributivity_pullback(f, g)
        # base point 1 has no f-preimage: exactly the empty section over it
        assert pba.r.fiber(1) == (pba.r.dom.size - 1,) or \
            len(pba.r.fiber(1)) == 1

    def test_validation_rejects_non_pullback(self):
        f = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        g = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        two = FinSetObj(2)
        with pytest.raises(InvariantViolation, match="pbaround-pullback"):
            PBAround(f, g, FinSetMap(two, FinSetObj(1), (0, 0)),
                     FinSetMap(two, FinSetObj(1), (0, 0)),
                     FinSetMap(FinSetObj(1), FinSetObj(1), (0,)))


class TestMediate:
    def test_self_mediator_is_identity(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
        g = FinSetMap(FinSetObj(4), FinSetObj(3), (0, 1, 2, 2))
        pba = distributivity_pullback(f, g)
        t = mediate_pb_around(pba, pba)
        assert t == identity(pba.r.dom)

    def test_random_instances_mediate_uniquely(self):
        rng = random.Random(37)
        for trial in range(40):
            a = FinSetObj(rng.randint(1, 4))
            b = FinSetObj(rng.randint(1, 4))
            z = FinSetObj(rng.randint(0, 4))
            f = rand_map(rng, a, b)
            g = rand_map(rng, z, a) if z.size else FinSetMap(z, a, ())
            pba = distributivity_pullback(f, g)
            other = random_pb_around(f, g, seed=1000 + trial)
            t = mediate_pb_around(pba, other)
            assert compose(pba.r, t) == other.r

    def test_no_mediator_error(self):
        # g has an empty fiber over the sole point of A, so the section set
        # over b is empty; aiming r' at b anyway leaves nothing to map to
        f = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        g = FinSetMap(FinSetObj(0), FinSetObj(1), ())
        pba = distributivity_pullback(f, g)
        assert pba.r.dom.size == 0
        r2 = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        q2 = FinSetMap(FinSetObj(0), FinSetObj(1), ())
        p2 = FinSetMap(FinSetObj(0), FinSetObj(0), ())
        with pytest.raises(NoMediatorError, match="no-mediator"):
            mediate_pb_around(pba, (p2, q2, r2))

    def test_multiple_mediators_error(self):
        # an unconstrained point of Y' sees both sections over b
        f = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        g = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        pba = distributivity_pullback(f, g)
        assert pba.r.dom.size == 2
        r2 = FinSetMap(FinSetObj(1), FinSetObj(1), (0,))
        q2 = FinSetMap(FinSetObj(0), FinSetObj(1), ())
        p2 = FinSetMap(FinSetObj(0), FinSetObj(2), ())
        with pytest.raises(MultipleMediatorsError, match="multiple-mediators"):
            mediate_pb_around(pba, (p2, q2, r2))

    def test_mediator_context_checked(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        g = identity(FinSetObj(2))
        pba = distributivity_pullback(f, g)
        other = distributivity_pullback(f, FinSetMap(FinSetObj(2),
                                                     FinSetObj(2), (0, 0)))
        with pytest.raises(InvariantViolation, match="mediate-context"):
            mediate_pb_around(pba, other)


class TestRandomPBAround:
    GOLDEN_SEEDS = (101, 202, 303)

    def test_outputs_are_valid_and_deterministic(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 0, 1))
        g = FinSetMap(FinSetObj(4), FinSetObj(3), (0, 0, 1, 2))
        for seed in self.GOLDEN_SEEDS:
            one = random_pb_around(f, g, seed)
            two = random_pb_around(f, g, seed)
            assert one == two

    def test_golden_tables(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 0, 1))
        g = FinSetMap(FinSetObj(4), FinSetObj(3), (0, 0, 1, 2))
        seen = {seed: (random_pb_around(f, g, seed).r.table,
                       random_pb_around(f, g, seed).p.table)
                for seed in self.GOLDEN_SEEDS}
        assert seen == GOLDEN_PB_AROUND


class TestBipullbacks:
    def test_own_cone_factors_with_iso_h(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
        g = FinSetMap(FinSetObj(2), FinSetObj(2), (1, 1))
        bp = pullback_bipullback(f, g)
        fac = factor_through_bipullback(bp, bp.d, bp.c, bp.theta)
        assert fac.h.left_leg.is_bijective and fac.h.right_leg.is_bijective
        assert paste_factorization(bp, fac) == bp.theta

    def test_random_cones_over_pullback_bipullback(self):
        rng = random.Random(41)
        for _ in range(30):
            a = FinSetObj(rng.randint(1, 3))
            b = FinSetObj(rng.randint(1, 3))
            c_obj = FinSetObj(rng.randint(1, 3))
            k = FinSetObj(rng.randint(1, 2))
            f = rand_map(rng, a, c_obj)
            g = rand_map(rng, b, c_obj)
            bp = pullback_bipullback(f, g)
            u = rand_span(rng, k, a, 3)
            v = rand_span(rng, k, b, 3)
            nu_span = compose_spans(bp.n, u)
            pv_span = compose_spans(graph(bp.p_map), v)
            for psi in itertools.islice(all_cells(nu_span, pv_span), 3):
                fac = factor_through_bipullback(bp, u, v, psi)
                assert paste_factorization(bp, fac) == psi

    def test_distributivity_cone_reproduces_mediator(self):
        rng = random.Random(43)
        for trial in range(20):
            a = FinSetObj(rng.randint(1, 3))
            b = FinSetObj(rng.randint(1, 3))
            z = FinSetObj(rng.randint(0, 3))
            f = rand_map(rng, a, b)
            g = rand_map(rng, z, a) if z.size else FinSetMap(z, a, ())
            pba = distributivity_pullback(f, g)
            other = random_pb_around(f, g, seed=4000 + trial)
            bp = distributivity_bipullback(pba)
            cone = distributivity_bipullback(other)
            fac = factor_through_bipullback(bp, cone.d, cone.c, cone.theta)
            assert fac.h.right_leg == mediate_pb_around(pba, other)
            assert paste_factorization(bp, fac) == cone.theta

    def test_factorizations_connected_by_unique_invertible_cell(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(2), (0, 1))
        g = FinSetMap(FinSetObj(2), FinSetObj(2), (0, 0))
        bp = pullback_bipullback(f, g)
        rng = random.Random(47)
        k = FinSetObj(2)
        u = rand_span(rng, k, FinSetObj(2), 3)
        v = rand_span(rng, k, FinSetObj(2), 3)
        nu_span = compose_spans(bp.n, u)
        pv_span = compose_spans(graph(bp.p_map), v)
        cells = list(itertools.islice(all_cells(nu_span, pv_span), 2))
        for psi in cells:
            fac = factor_through_bipullback(bp, u, v, psi)
            # candidate rival factorizations: relabel h's apex by any iso
            for sigma in iso_search(fac.h, fac.h):
                rival = type(fac)(
                    fac.h,
                    vcomp(fac.lam, whisker_left(bp.c, sigma)),
                    vcomp(fac.rho, whisker_left(bp.d, sigma)))
                connecting = [
                    tau for tau in iso_search(rival.h, fac.h)
                    if vcomp(fac.lam, whisker_left(bp.c, tau)) == rival.lam
                    and vcomp(fac.rho, whisker_left(bp.d, tau)) == rival.rho]
                assert len(connecting) == 1

    def test_theta_is_invertible_and_validated(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(1), (0, 0))
        g = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
        pba = distributivity_pullback(f, g)
        bp = distributivity_bipullback(pba)
        assert bp.theta.is_invertible
        with pytest.raises(InvariantViolation, match="bipullback-kind"):
            Bipullback("other", bp.d, bp.c, bp.n, bp.p_map, bp.theta, pba)


class TestTerminalitySample:
    def test_sampled_terminality(self):
        rng = random.Random(53)
        for trial in range(30):
            a = FinSetObj(rng.randint(1, 4))
            b = FinSetObj(rng.randint(1, 4))
            z = FinSetObj(rng.randint(0, 4))
            f = rand_map(rng, a, b)
            g = rand_map(rng, z, a) if z.size else FinSetMap(z, a, ())
            pba = distributivity_pullback(f, g)
            for k in range(3):
                other = random_pb_around(f, g, seed=9000 + 10 * trial + k)
                t = mediate_pb_around(pba, other)
                assert compose(pba.r, t) == other.r


@given(st.integers(0, 3), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_whiskering_preserves_identity_cells(apex, feet, data):
    left = FinSetObj(feet)
    right = FinSetObj(feet)
    ap = FinSetObj(apex)
    table = [data.draw(st.integers(0, feet - 1)) for _ in range(apex)]
    table2 = [data.draw(st.integers(0, feet - 1)) for _ in range(apex)]
    s = Span(left, right, ap, FinSetMap(ap, left, tuple(table)),
             FinSetMap(ap, right, tuple(table2)))
    t = identity_span(right)
    cell = whisker_left(t, identity_cell(s))
    assert cell == identity_cell(compose_spans(t, s))


GOLDEN_PB_AROUND = {
    101: ((0, 1, 1, 0), (0, 2, 3, 3, 0, 2)),
    202: ((1, 1, 0), (3, 3, 0, 2)),
    303: ((), ()),
}


# References: each cell built from a composite and its square computed
# apart, so each pair is pulled back twice.  The library reads the cell from
# the square its composite came with, and the two must agree.

def reference_whisker_left(t, cell):
    src = compose_spans(t, cell.source)
    tgt_sq = composition_square(t, cell.target)
    table = tuple(tgt_sq.index(cell.h(a), b)
                  for a, b in composition_square(t, cell.source).pairs)
    return SpanCell(src, compose_spans(t, cell.target),
                    FinSetMap(src.apex, tgt_sq.apex, table))


def reference_whisker_right(cell, t):
    src = compose_spans(cell.source, t)
    tgt_sq = composition_square(cell.target, t)
    table = tuple(tgt_sq.index(a, cell.h(b))
                  for a, b in composition_square(cell.source, t).pairs)
    return SpanCell(src, compose_spans(cell.target, t),
                    FinSetMap(src.apex, tgt_sq.apex, table))


def reference_unitor_dom(s):
    src = compose_spans(s, identity_span(s.left_foot))
    sq = composition_square(s, identity_span(s.left_foot))
    return SpanCell(src, s, FinSetMap(src.apex, s.apex,
                                      tuple(b for _, b in sq.pairs)))


def reference_unitor_cod(s):
    src = compose_spans(identity_span(s.right_foot), s)
    sq = composition_square(identity_span(s.right_foot), s)
    return SpanCell(src, s, FinSetMap(src.apex, s.apex,
                                      tuple(a for a, _ in sq.pairs)))


def reference_associator(t, s, r):
    ts = compose_spans(t, s)
    sr = compose_spans(s, r)
    left = compose_spans(ts, r)
    right = compose_spans(t, sr)
    sq_ts = composition_square(t, s)
    sq_sr = composition_square(s, r)
    sq_left = composition_square(ts, r)
    sq_right = composition_square(t, sr)
    table = []
    for a, m in sq_left.pairs:
        b, c = sq_ts.pairs[m]
        table.append(sq_right.index(sq_sr.index(a, b), c))
    return SpanCell(left, right, FinSetMap(left.apex, right.apex, tuple(table)))


def reference_is_map(s):
    if not s.left_leg.is_bijective:
        return None
    r = reverse_span(s)
    inv = s.left_leg.inverse()
    rs_sq = composition_square(s, r)
    sr_sq = composition_square(r, s)
    unit = SpanCell(identity_span(s.left_foot), compose_spans(r, s),
                    FinSetMap(s.left_foot, sr_sq.apex,
                              tuple(sr_sq.index(inv(x), inv(x))
                                    for x in s.left_foot.elements)))
    counit = SpanCell(compose_spans(s, r), identity_span(s.right_foot),
                      FinSetMap(rs_sq.apex, s.right_foot,
                                tuple(s.right_leg(a) for a, _ in rs_sq.pairs)))
    return spans.MapWitness(r, unit, counit)


def reference_composite(t, s):
    """The body ``composite`` replaced: each leg composed through
    ``compose`` with a projection of the square."""
    pb = composition_square(t, s)
    legs = compose(s.left_leg, pb.pr1), compose(t.right_leg, pb.pr2)
    return Span(s.left_foot, t.right_foot, pb.apex, *legs), pb


def test_composite_equals_the_reference_on_empty_and_full_feet():
    rng = random.Random(63)
    kinds = set()
    for _ in range(300):
        x, y, z = (FinSetObj(rng.randint(0, 3)) for _ in range(3))
        s, t = rand_span(rng, x, y), rand_span(rng, y, z)
        got = spans.composite(t, s)
        assert got == reference_composite(t, s)
        assert type(got[0].left_leg.table) is tuple
        kinds.add((0 in (x.size, y.size, z.size), got[0].apex.size == 0))
    assert kinds == {(True, True), (False, True), (False, False)}


def seeded_triples(seed, n=40):
    """Composable spans r: X -> Y, s: Y -> Z, t: Z -> W on small feet."""
    rng = random.Random(seed)
    for _ in range(n):
        x, y, z, w = (FinSetObj(rng.randint(1, 3)) for _ in range(4))
        yield rng, rand_span(rng, x, y), rand_span(rng, y, z), \
            rand_span(rng, z, w)


class TestOneSquarePerComposite:
    def test_cells_equal_the_two_call_references(self):
        moved = 0
        for rng, r, s, t in seeded_triples(61):
            assert associator(t, s, r) == reference_associator(t, s, r)
            for u in (r, s, t):
                assert unitor_dom(u) == reference_unitor_dom(u)
                assert unitor_cod(u) == reference_unitor_cod(u)
            s2 = rand_span(rng, s.left_foot, s.right_foot)
            for cell in [identity_cell(s)] + list(
                    itertools.islice(all_cells(s, s2), 3)):
                moved += cell.source != cell.target
                assert whisker_left(t, cell) == reference_whisker_left(t, cell)
                assert whisker_right(cell, r) == \
                    reference_whisker_right(cell, r)
        assert moved

    def test_the_associator_table_is_the_identity(self):
        """(t∘s)∘r and t∘(s∘r) both list their triples lexicographically:
        the associator, built as the identity table, relies on that order,
        which the reference's lookups pin."""
        sizes = set()
        for _, r, s, t in seeded_triples(71):
            h = associator(t, s, r).h
            assert h.table == tuple(range(h.dom.size))
            assert reference_associator(t, s, r).h.table == h.table
            sizes.add(h.dom.size)
        assert max(sizes) > 1

    def test_map_witness_equals_the_two_call_reference(self):
        found = 0
        for rng, r, s, t in seeded_triples(67):
            f = rand_map(rng, r.left_foot, r.right_foot)
            for u in (r, s, t, graph(f), reverse_span(graph(f))):
                w = is_map(u)
                assert w == reference_is_map(u)
                found += w is not None
        assert found


def count_pullbacks(monkeypatch):
    """Spy on ``finset.pullback`` wherever the library has imported it;
    the returned list collects the cospans it is called on."""
    real = finset.pullback
    calls = []

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)
    for module in (finset, spans):
        monkeypatch.setattr(module, "pullback", spy)
    return calls


@pytest.mark.unchecked_trust
def test_each_cell_pulls_each_pair_back_once(monkeypatch):
    rng, r, s, t = next(seeded_triples(71))
    f1 = rand_map(rng, FinSetObj(3), FinSetObj(2))
    f2 = rand_map(rng, FinSetObj(2), FinSetObj(3))
    g = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
    pba = distributivity_pullback(f2, g)
    calls = count_pullbacks(monkeypatch)
    pinned = [
        (lambda: whisker_left(t, identity_cell(s)), 2),
        (lambda: whisker_right(identity_cell(s), r), 2),
        (lambda: unitor_dom(s), 1),
        (lambda: unitor_cod(s), 1),
        (lambda: associator(t, s, r), 4),
        (lambda: is_map(graph(f1)), 2),
        (lambda: graph_compose_cell(f2, f1), 1),
        (lambda: post_graph_cell(f2, graph(f1)), 1),
        (lambda: rif_span(s, rand_span(rng, r.left_foot, s.right_foot)), 1),
        (lambda: pullback_bipullback(f1, f2.then(f1)), 3),
        (lambda: distributivity_bipullback(pba), 2),
    ]
    for build, count in pinned:
        calls.clear()
        build()
        assert len(calls) == count, (build, calls)
    # a factorization pulls back n∘u, p_*∘v, p_*∘w, c∘h and d∘h once each
    bp = pullback_bipullback(f1, f2.then(f1))
    calls.clear()
    factor_through_bipullback(bp, bp.d, bp.c, bp.theta)
    assert len(calls) == 5


@pytest.mark.unchecked_trust
def test_map_characterization_halves_its_pullbacks(monkeypatch):
    """Every cell of the triangle identities reads the squares its
    composites came with: at most 5588 pullbacks at seed 0, half of what
    pulling each square back apart from its composite costs."""
    calls = count_pullbacks(monkeypatch)
    report = checks.run_suite("map-characterization", seed=0)
    assert report.ok
    assert len(calls) <= 5588


@pytest.mark.unchecked_trust
def test_the_triangle_identities_pull_each_composite_back_once(monkeypatch):
    """r∘s, s∘r and the eight composites the two triangles pass through are
    pulled back once each: 10 squares per adjoint, so with the 2 of
    ``is_map`` at most 12 × 254 = 3048 in ``map-characterization``."""
    s = Span(FinSetObj(3), FinSetObj(2), FinSetObj(3),
             FinSetMap(FinSetObj(3), FinSetObj(3), (2, 0, 1)),
             FinSetMap(FinSetObj(3), FinSetObj(2), (1, 0, 1)))
    w = is_map(s)
    calls = count_pullbacks(monkeypatch)
    assert triangle_identities_hold(s, w)
    assert len(calls) == 10
    calls.clear()
    assert checks.run_suite("map-characterization", seed=0).ok
    assert len(calls) <= 3048


def reference_triangle_identities_hold(s, w):
    """The triangle identities pasted from the public cells, each of which
    pulls back its own composites: 22 squares per adjoint."""
    r = w.right_adjoint
    first = vcomp(unitor_cod(s), vcomp(
        whisker_right(w.counit, s), vcomp(
            invert_cell(associator(s, r, s)), vcomp(
                whisker_left(s, w.unit), invert_cell(unitor_dom(s))))))
    second = vcomp(unitor_dom(r), vcomp(
        whisker_left(r, w.counit), vcomp(
            associator(r, s, r), vcomp(
                whisker_right(w.unit, r), invert_cell(unitor_cod(r))))))
    return first == identity_cell(s) and second == identity_cell(r)


def suite_spans():
    """The spans ``map-characterization`` examines: feet and apex of size
    at most 3, in the suite's order."""
    for lsize, rsize, esize in itertools.product(range(4), repeat=3):
        apex, left, right = (FinSetObj(n) for n in (esize, lsize, rsize))
        for ltab in itertools.product(range(lsize), repeat=esize):
            for rtab in itertools.product(range(rsize), repeat=esize):
                yield Span(left, right, apex, FinSetMap(apex, left, ltab),
                           FinSetMap(apex, right, rtab))


class TestTrianglesAgainstReference:
    def test_every_adjoint_of_the_suite(self):
        adjoints = 0
        for s in suite_spans():
            w = is_map(s)
            if w is not None:
                adjoints += 1
                assert triangle_identities_hold(s, w)
                assert reference_triangle_identities_hold(s, w)
        assert adjoints == 254

    def test_other_units_and_counits(self):
        """A bijective span has one unit and one counit, so the witnesses
        here pair the reversed span of every suite span with up to three
        cells 1 => r∘s and three cells s∘r => 1 from ``enumerate_cells``.
        Only a map has a right adjoint, so exactly the 254 pairs on
        bijective spans keep both triangles, and every other pair breaks
        one."""
        verdicts = []
        for s in suite_spans():
            r = reverse_span(s)
            units = itertools.islice(enumerate_cells(
                identity_span(s.left_foot), compose_spans(r, s)), 3)
            counits = list(itertools.islice(enumerate_cells(
                compose_spans(s, r), identity_span(s.right_foot)), 3))
            for unit, counit in itertools.product(units, counits):
                w = spans.MapWitness(r, unit, counit)
                verdict = triangle_identities_hold(s, w)
                assert verdict == reference_triangle_identities_hold(s, w)
                verdicts.append(verdict)
        assert verdicts.count(True) == 254 and verdicts.count(False) == 288

    def test_a_witness_off_the_composites_is_refused(self):
        s = graph(FinSetMap(FinSetObj(2), FinSetObj(2), (1, 1)))
        w = is_map(s)
        wrong = spans.MapWitness(w.right_adjoint, identity_cell(
            compose_spans(w.right_adjoint, s)), w.counit)
        for triangles in (triangle_identities_hold,
                          reference_triangle_identities_hold):
            with pytest.raises(InvariantViolation,
                               match="cell-vcomp-boundary"):
                triangles(s, wrong)
