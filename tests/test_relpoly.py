"""Relations, relational polynomials, and the partial-map equivalence."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyspan.errors import InvariantViolation
from polyspan.finset import (
    FinSetMap,
    FinSetObj,
    Subset,
    full_subset,
    image_factorization,
)
from polyspan.relpoly import (
    PartialMapToPower,
    Relation,
    RelPolynomial,
    compose_polyrel,
    from_partial_map,
    full_rel,
    graph_rel,
    hK_rel,
    identity_polyrel,
    identity_rel,
    kleisli_compose,
    rel,
    rel_compose,
    rel_leq,
    rel_rif,
    reverse_rel,
    tabulate_rel,
    to_partial_map,
)
from polyspan.spans import Span, compose_spans

ONE = FinSetObj(1)


def rand_rel(rng, src, tgt, density=0.4):
    return rel(src, tgt, ((x, y) for x in src.elements
                          for y in tgt.elements if rng.random() < density))


def rand_subset(rng, ambient, density=0.6):
    return Subset(ambient, tuple(i for i in ambient.elements
                                 if rng.random() < density))


def rand_polyrel(rng, x, c):
    z = rand_subset(rng, c)
    return RelPolynomial(x, c, z, rand_rel(rng, x, z.as_object()))


def rel_as_span(r):
    apex = FinSetObj(len(r.pairs))
    return Span(r.src, r.tgt, apex,
                FinSetMap(apex, r.src, tuple(x for x, _ in r.pairs)),
                FinSetMap(apex, r.tgt, tuple(y for _, y in r.pairs)))


def span_route_compose(n, m):
    """Oracle: compose the underlying spans, then take the image of the
    joint legs to get back to a jointly monic span."""
    s = compose_spans(rel_as_span(n), rel_as_span(m))
    joint = FinSetMap(s.apex, FinSetObj(n.tgt.size * m.src.size or 1),
                      tuple(s.left_leg(a) * n.tgt.size + s.right_leg(a)
                            for a in s.apex.elements))
    _, mono = image_factorization(joint)
    return rel(m.src, n.tgt,
               (divmod(v, n.tgt.size) for v in mono.table))


class TestRelation:
    def test_normalization_idempotent(self):
        x, y = FinSetObj(3), FinSetObj(3)
        messy = rel(x, y, [(2, 1), (0, 0), (2, 1), (1, 2), (0, 0)])
        assert messy.pairs == ((0, 0), (1, 2), (2, 1))
        assert rel(x, y, messy.pairs) == messy

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantViolation, match="relation-range"):
            Relation(FinSetObj(2), FinSetObj(2), ((0, 3),))

    def test_unsorted_rejected(self):
        with pytest.raises(InvariantViolation, match="relation-order"):
            Relation(FinSetObj(2), FinSetObj(2), ((1, 0), (0, 0)))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16 - 1))
    def test_reverse_involution(self, nx, ny, bits):
        pairs = [(i, j) for i in range(nx) for j in range(ny)
                 if bits >> (i * ny + j) & 1]
        r = rel(FinSetObj(nx), FinSetObj(ny), pairs)
        assert reverse_rel(reverse_rel(r)) == r

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16 - 1))
    def test_membership_and_rows_match_the_pair_list(self, nx, ny, bits):
        pairs = [(i, j) for i in range(nx) for j in range(ny)
                 if bits >> (i * ny + j) & 1]
        r = rel(FinSetObj(nx), FinSetObj(ny), pairs)
        for x in range(-1, nx + 1):
            assert r.row(x) == tuple(y for a, y in pairs if a == x)
            for y in range(-1, ny + 1):
                assert ((x, y) in r) == ((x, y) in pairs)
        assert r.columns == tuple(tuple(x for x, b in pairs if b == y)
                                  for y in range(ny))


class TestRelCompose:
    def test_identity_neutral(self):
        rng = random.Random(5)
        m = rand_rel(rng, FinSetObj(3), FinSetObj(4))
        assert rel_compose(identity_rel(m.tgt), m) == m
        assert rel_compose(m, identity_rel(m.src)) == m

    def test_empty_absorbs(self):
        x, y, z = FinSetObj(2), FinSetObj(3), FinSetObj(2)
        n = full_rel(y, z)
        assert rel_compose(n, rel(x, y, ())) == rel(x, z, ())

    def test_two_step_chain(self):
        x = FinSetObj(4)
        step = rel(x, x, ((i, i + 1) for i in range(3)))
        assert rel_compose(step, step).pairs == ((0, 2), (1, 3))

    def test_matches_span_route(self):
        rng = random.Random(7)
        for _ in range(60):
            x = FinSetObj(rng.randint(1, 4))
            y = FinSetObj(rng.randint(1, 4))
            z = FinSetObj(rng.randint(1, 4))
            m = rand_rel(rng, x, y)
            n = rand_rel(rng, y, z)
            assert rel_compose(n, m) == span_route_compose(n, m)

    def test_associative_exactly(self):
        rng = random.Random(9)
        for _ in range(40):
            sizes = [FinSetObj(rng.randint(1, 4)) for _ in range(4)]
            m = rand_rel(rng, sizes[0], sizes[1])
            n = rand_rel(rng, sizes[1], sizes[2])
            o = rand_rel(rng, sizes[2], sizes[3])
            assert rel_compose(rel_compose(o, n), m) \
                == rel_compose(o, rel_compose(n, m))

    def test_boundary_mismatch(self):
        with pytest.raises(InvariantViolation, match="rel-compose-boundary"):
            rel_compose(full_rel(FinSetObj(2), ONE),
                        full_rel(ONE, FinSetObj(3)))


class TestRelRif:
    def test_identity_lifter_gives_u(self):
        rng = random.Random(11)
        u = rand_rel(rng, FinSetObj(3), FinSetObj(3))
        assert rel_rif(identity_rel(u.tgt), u) == u

    def test_empty_row_relates_everything(self):
        t, y, k = FinSetObj(2), FinSetObj(2), FinSetObj(3)
        n = rel(t, y, ((0, 0),))   # t = 1 has an empty row
        u = rel(k, y, ())
        out = rel_rif(n, u)
        assert all((kk, 1) in out.pairs for kk in k.elements)
        assert all((kk, 0) not in out.pairs for kk in k.elements)

    def test_functional_lifter_gives_preimage(self):
        rng = random.Random(13)
        t, y, k = FinSetObj(3), FinSetObj(3), FinSetObj(2)
        g = FinSetMap(t, y, tuple(rng.randrange(3) for _ in range(3)))
        u = rand_rel(rng, k, y, 0.5)
        out = rel_rif(graph_rel(g), u)
        expected = rel(k, t, ((kk, tt) for kk in k.elements
                              for tt in t.elements if (kk, g(tt)) in u))
        assert out == expected

    def test_adjointness_exhaustive(self):
        rng = random.Random(17)
        for _ in range(8):
            k = FinSetObj(rng.randint(1, 3))
            t = FinSetObj(rng.randint(1, 3))
            y = FinSetObj(rng.randint(1, 3))
            n = rand_rel(rng, t, y, 0.5)
            u = rand_rel(rng, k, y, 0.5)
            lifted = rel_rif(n, u)
            cells = k.size * t.size
            for bits in range(1 << cells):
                v = rel(k, t, ((i, j) for i in k.elements
                               for j in t.elements
                               if bits >> (i * t.size + j) & 1))
                assert rel_leq(rel_compose(n, v), u) == rel_leq(v, lifted)


class TestTabulate:
    def test_full_relation_gives_iso(self):
        x = FinSetObj(3)
        t = tabulate_rel(full_rel(ONE, x))
        assert t.p.dom.size == 3 and t.p.table == (0, 1, 2)

    def test_empty_relation_gives_empty_domain(self):
        t = tabulate_rel(rel(ONE, FinSetObj(3), ()))
        assert t.p.dom.size == 0

    def test_odd_elements_of_four(self):
        t = tabulate_rel(rel(ONE, FinSetObj(4), ((0, 1), (0, 3))))
        assert t.p.dom.size == 2 and t.p.table == (1, 3)

    def test_recovers_relation(self):
        rng = random.Random(19)
        for _ in range(20):
            x = FinSetObj(rng.randint(1, 5))
            u = rand_rel(rng, ONE, x, 0.5)
            t = tabulate_rel(u)
            assert rel_compose(t.rho, full_rel(ONE, t.p.dom)) == u

    def test_source_must_be_point(self):
        with pytest.raises(InvariantViolation, match="tabulate-src"):
            tabulate_rel(full_rel(FinSetObj(2), FinSetObj(2)))


class TestComposePolyrel:
    def test_singleton_shape(self):
        p = RelPolynomial(ONE, ONE, full_subset(ONE), rel(ONE, ONE, ((0, 0),)))
        q = RelPolynomial(ONE, ONE, full_subset(ONE), rel(ONE, ONE, ((0, 0),)))
        n = compose_polyrel(q, p)
        assert n.Z.members == (0,)
        assert n.A.pairs == ((0, 0),)

    def test_empty_lifter_keeps_whole_subset(self):
        x, c, d = FinSetObj(2), FinSetObj(2), FinSetObj(3)
        p = RelPolynomial(x, c, Subset(c, (0,)), rel(x, ONE, ()))
        zq = Subset(d, (0, 2))
        q = RelPolynomial(c, d, zq, rel(c, zq.as_object(), ()))
        n = compose_polyrel(q, p)
        assert n.Z.members == (0, 2)
        assert n.A.pairs == ()

    def test_restriction_filters_out_of_subset_partners(self):
        x, c, d = FinSetObj(1), FinSetObj(2), FinSetObj(2)
        # p covers only c = 0; q's point 0 touches both c's, point 1 only c=0
        p = RelPolynomial(x, c, Subset(c, (0,)), rel(x, ONE, ((0, 0),)))
        zq = full_subset(d)
        q = RelPolynomial(c, d, zq,
                          rel(c, zq.as_object(), ((0, 0), (0, 1), (1, 0))))
        n = compose_polyrel(q, p)
        assert n.Z.members == (1,)
        assert n.A.pairs == ((0, 0),)

    def test_boundary_mismatch(self):
        p = identity_polyrel(FinSetObj(2))
        q = identity_polyrel(FinSetObj(3))
        with pytest.raises(InvariantViolation,
                           match="relpoly-compose-boundary"):
            compose_polyrel(q, p)


class TestPartialMaps:
    def test_round_trips(self):
        rng = random.Random(23)
        for _ in range(3):
            x = FinSetObj(rng.randint(1, 4))
            c = FinSetObj(rng.randint(1, 4))
            p = rand_polyrel(rng, x, c)
            assert from_partial_map(to_partial_map(p)) == p
        empty = RelPolynomial(FinSetObj(2), FinSetObj(3),
                              Subset(FinSetObj(3), ()),
                              rel(FinSetObj(2), FinSetObj(0), ()))
        assert from_partial_map(to_partial_map(empty)) == empty

    def test_pmap_round_trip(self):
        pm = PartialMapToPower(FinSetObj(3), FinSetObj(4),
                               Subset(FinSetObj(4), (1, 3)),
                               ((0, 2), ()))
        assert to_partial_map(from_partial_map(pm)) == pm

    def test_value_indexing_follows_subset_order(self):
        x, c = FinSetObj(2), FinSetObj(3)
        z = Subset(c, (0, 2))
        p = RelPolynomial(x, c, z,
                          rel(x, z.as_object(), ((0, 1), (1, 0))))
        pm = to_partial_map(p)
        assert pm.value == ((1,), (0,))

    def test_total_singleton_first_factor_relabels(self):
        # f assigns a singleton to every point, so the composite just
        # follows g through the relabeling
        x, c, d = FinSetObj(3), FinSetObj(3), FinSetObj(2)
        f = PartialMapToPower(x, c, full_subset(c), ((2,), (0,), (1,)))
        g = PartialMapToPower(c, d, Subset(d, (1,)), ((0, 2),))
        out = kleisli_compose(g, f)
        assert out.B.members == (1,)
        assert out.value == ((1, 2),)

    def test_empty_value_stays_in_domain(self):
        c, d = FinSetObj(2), FinSetObj(2)
        g = PartialMapToPower(c, d, full_subset(d), ((), (0, 1)))
        f = PartialMapToPower(FinSetObj(2), c, Subset(c, ()), ())
        out = kleisli_compose(g, f)
        assert out.B.members == (0,)
        assert out.value == ((),)

    def test_kleisli_equivalence_oracle(self):
        rng = random.Random(29)
        for _ in range(100):
            x = FinSetObj(rng.randint(1, 5))
            c = FinSetObj(rng.randint(1, 5))
            d = FinSetObj(rng.randint(1, 5))
            p = rand_polyrel(rng, x, c)
            q = rand_polyrel(rng, c, d)
            assert to_partial_map(compose_polyrel(q, p)) \
                == kleisli_compose(to_partial_map(q), to_partial_map(p))


class TestHKRel:
    def test_identity_shape_returns_s(self):
        rng = random.Random(31)
        x, k = FinSetObj(3), FinSetObj(2)
        s = rand_rel(rng, k, x)
        assert hK_rel(k, identity_polyrel(x), s) == s

    def test_full_s_gives_product_with_subset(self):
        rng = random.Random(37)
        x, c, k = FinSetObj(2), FinSetObj(4), FinSetObj(3)
        p = rand_polyrel(rng, x, c)
        out = hK_rel(k, p, full_rel(k, x))
        assert out == rel(k, c, ((kk, cc) for kk in k.elements
                                 for cc in p.Z.members))

    def test_matches_lifting_route(self):
        rng = random.Random(41)
        for _ in range(100):
            x = FinSetObj(rng.randint(1, 4))
            c = FinSetObj(rng.randint(1, 4))
            k = FinSetObj(rng.randint(1, 3))
            p = rand_polyrel(rng, x, c)
            s = rand_rel(rng, k, x)
            via_lift = rel_compose(graph_rel(p.Z.inclusion()),
                                   rel_rif(reverse_rel(p.A), s))
            assert hK_rel(k, p, s) == via_lift

    def test_functoriality(self):
        rng = random.Random(43)
        for _ in range(100):
            x = FinSetObj(rng.randint(1, 4))
            c = FinSetObj(rng.randint(1, 4))
            d = FinSetObj(rng.randint(1, 4))
            k = FinSetObj(rng.randint(1, 3))
            p = rand_polyrel(rng, x, c)
            q = rand_polyrel(rng, c, d)
            s = rand_rel(rng, k, x)
            assert hK_rel(k, compose_polyrel(q, p), s) \
                == hK_rel(k, q, hK_rel(k, p, s))

    def test_monotone_in_s(self):
        rng = random.Random(47)
        for _ in range(40):
            x = FinSetObj(rng.randint(1, 4))
            c = FinSetObj(rng.randint(1, 4))
            k = FinSetObj(rng.randint(1, 3))
            p = rand_polyrel(rng, x, c)
            small = rand_rel(rng, k, x, 0.3)
            extra = rand_rel(rng, k, x, 0.3)
            big = rel(k, x, small.pairs + extra.pairs)
            assert rel_leq(hK_rel(k, p, small), hK_rel(k, p, big))
