"""Fiberwise constructions on finite sets: frozen examples and laws."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from polyspan.errors import InvariantViolation
from polyspan.finset import (
    FinSetMap,
    FinSetObj,
    Pullback,
    Subset,
    compose,
    constant,
    exists_f,
    forall_f,
    full_subset,
    identity,
    image_factorization,
    pi_f,
    preimage,
    pullback,
)


def rand_map(rng: random.Random, n_dom: int, n_cod: int) -> FinSetMap:
    assert n_cod > 0 or n_dom == 0
    table = tuple(rng.randrange(n_cod) for _ in range(n_dom))
    return FinSetMap(FinSetObj(n_dom), FinSetObj(n_cod), table)


maps = st.integers(1, 4).flatmap(
    lambda c: st.tuples(
        st.lists(st.integers(0, c - 1), min_size=0, max_size=5), st.just(c)))


def to_map(data) -> FinSetMap:
    table, c = data
    return FinSetMap(FinSetObj(len(table)), FinSetObj(c), tuple(table))


# Reference implementations the indexed fast paths replaced: a fiber found
# by scanning the domain, and a pullback found by testing every pair.

def scan_fiber(f: FinSetMap, j: int) -> tuple[int, ...]:
    return tuple(i for i in f.dom.elements if f.table[i] == j)


def nested_loop_pairs(f: FinSetMap,
                      g: FinSetMap) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in f.dom.elements for b in g.dom.elements
                 if f(a) == g(b))


cospans = st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.lists(st.integers(0, c - 1), max_size=12),
        st.lists(st.integers(0, c - 1), max_size=12),
        st.just(c)))


class TestMaps:
    def test_validation(self):
        with pytest.raises(InvariantViolation) as e:
            FinSetMap(FinSetObj(2), FinSetObj(1), (0,))
        assert e.value.clause == "map-total"
        with pytest.raises(InvariantViolation) as e:
            FinSetMap(FinSetObj(1), FinSetObj(1), (3,))
        assert e.value.clause == "map-range"

    def test_compose_identity(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 0, 1))
        assert compose(identity(f.cod), f) == f
        assert compose(f, identity(f.dom)) == f

    @given(maps, maps)
    def test_then_matches_compose(self, a, b):
        f, g = to_map(a), to_map(b)
        if f.cod.size != g.dom.size:
            return
        g = FinSetMap(f.cod, g.cod, g.table)
        assert f.then(g) == compose(g, f)

    def test_inverse(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(3), (2, 0, 1))
        assert compose(f.inverse(), f) == identity(f.dom)
        with pytest.raises(InvariantViolation):
            constant(FinSetObj(2), FinSetObj(2), 0).inverse()


class TestPullback:
    def test_identity_cospan_is_diagonal(self):
        x = FinSetObj(3)
        pb = pullback(identity(x), identity(x))
        assert pb.apex.size == 3
        assert pb.pairs == ((0, 0), (1, 1), (2, 2))

    def test_product_case(self):
        one = FinSetObj(1)
        f = constant(FinSetObj(2), one, 0)
        g = constant(FinSetObj(3), one, 0)
        assert pullback(f, g).apex.size == 6

    def test_mixed_table(self):
        x = FinSetObj(2)
        f = identity(x)
        g = FinSetMap(FinSetObj(3), x, (0, 0, 1))
        pb = pullback(f, g)
        assert pb.apex.size == 3
        assert pb.pairs == ((0, 0), (0, 1), (1, 2))

    def test_universal_property(self):
        rng = random.Random(6)
        for _ in range(50):
            c = rng.randint(1, 3)
            f = rand_map(rng, rng.randint(0, 4), c)
            g = rand_map(rng, rng.randint(0, 4), c)
            pb = pullback(f, g)
            w = FinSetObj(rng.randint(0, 3))
            # random cone: choose a pullback pair for each point of w
            if w.size > 0 and pb.apex.size == 0:
                continue
            picks = [rng.randrange(max(pb.apex.size, 1)) for _ in w.elements]
            h1 = FinSetMap(w, f.dom, tuple(pb.pairs[i][0] for i in picks))
            h2 = FinSetMap(w, g.dom, tuple(pb.pairs[i][1] for i in picks))
            u = pb.mediate(h1, h2)
            assert compose(pb.pr1, u) == h1 and compose(pb.pr2, u) == h2
            # uniqueness: no other map satisfies both equations
            others = [
                t for t in itertools.product(pb.apex.elements, repeat=w.size)
                if FinSetMap(w, pb.apex, t) != u
                and compose(pb.pr1, FinSetMap(w, pb.apex, t)) == h1
                and compose(pb.pr2, FinSetMap(w, pb.apex, t)) == h2
            ]
            assert not others


class TestAgainstReference:
    @given(cospans)
    def test_pullback_and_fibers_match_the_scans(self, data):
        ft, gt, c = data
        f, g = to_map((ft, c)), to_map((gt, c))
        pb = pullback(f, g)
        pairs = nested_loop_pairs(f, g)
        assert pb.pairs == pairs
        assert pb.pr1.table == tuple(a for a, _ in pairs)
        assert pb.pr2.table == tuple(b for _, b in pairs)
        for m in (f, g, pb.pr1, pb.pr2):
            for j in range(-2, m.cod.size + 2):
                assert m.fiber(j) == scan_fiber(m, j)
            for i in m.dom.elements:
                assert m.fiber(m(i))[m.fiber_position(i)] == i

    def test_range_error_names_the_first_bad_entry(self):
        for table, entry in [((0, 5, -1, 3), "entry 1 -> 5"),
                             ((1, 0, -1, 7), "entry 2 -> -1")]:
            with pytest.raises(InvariantViolation) as e:
                FinSetMap(FinSetObj(4), FinSetObj(2), table)
            assert e.value.clause == "map-range"
            assert entry in str(e.value)

    def test_large_bijections_pull_back_in_linear_time(self):
        # The nested loop would test 4e8 pairs here; the pullback of two
        # bijections has exactly one pair per element.
        n = 20_000
        x = FinSetObj(n)
        f = FinSetMap(x, x, tuple(range(n - 1, -1, -1)))
        g = FinSetMap(x, x, tuple(7 * i % n for i in range(n)))
        pb = pullback(f, g)
        assert pb.apex.size == n
        ginv = g.inverse()
        assert pb.pairs == tuple((a, ginv(f(a))) for a in range(n))

    @given(st.integers(0, 6), st.integers(0, 2 ** 6 - 1))
    def test_subset_membership_matches_the_member_list(self, n, bits):
        members = tuple(i for i in range(n) if bits >> i & 1)
        s = Subset(FinSetObj(n), members)
        for i in range(-1, n + 2):
            assert (i in s) == (i in members)


# The bodies the trusted builders replaced, kept as references: the
# composite through a generator over the table, and the pullback with a
# checked apex, one pass per projection and a checked square.

def reference_compose(g: FinSetMap, f: FinSetMap) -> FinSetMap:
    assert f.cod == g.dom
    return FinSetMap(f.dom, g.cod, tuple(g.table[j] for j in f.table))


def reference_pullback(f: FinSetMap, g: FinSetMap) -> Pullback:
    assert f.cod == g.cod
    over = g._fibers
    pairs = tuple((a, b) for a, j in enumerate(f.table) for b in over[j])
    apex = FinSetObj(len(pairs))
    pr1 = FinSetMap(apex, f.dom, tuple(a for a, _ in pairs))
    pr2 = FinSetMap(apex, g.dom, tuple(b for _, b in pairs))
    return Pullback(f, g, apex, pr1, pr2, pairs)


def seeded_maps(seed: int, count: int):
    """Seeded pairs of maps with sizes 0 to 4, so that empty domains and
    empty codomains come up."""
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.randint(0, 4)
        yield (rand_map(rng, rng.randint(0, 4) if c else 0, c),
               rng.randint(0, 4) if c else 0, rng)


class TestTrustedBuildersAgainstReference:
    def test_pullback(self):
        kinds = set()
        for f, n, rng in seeded_maps(41, 300):
            g = rand_map(rng, n, f.cod.size)
            got, want = pullback(f, g), reference_pullback(f, g)
            assert got == want
            assert type(got.pr1.table) is type(got.pr2.table) is tuple
            kinds.add((f.cod.size == 0, f.dom.size == 0, got.apex.size == 0))
        assert {(True, True, True), (False, True, True),
                (False, False, True), (False, False, False)} <= kinds

    def test_compose(self):
        kinds = set()
        for f, n, rng in seeded_maps(42, 300):
            g = rand_map(rng, f.cod.size, n) if n or not f.cod.size else None
            if g is None:
                continue
            got = compose(g, f)
            assert got == reference_compose(g, f)
            assert type(got.table) is tuple
            kinds.add((f.dom.size == 0, g.cod.size == 0))
        assert kinds == {(True, True), (True, False), (False, False)}


class TestPi:
    def test_along_identity(self):
        a = FinSetObj(3)
        x = FinSetMap(FinSetObj(4), a, (0, 0, 1, 2))
        pi = pi_f(identity(a), x)
        # one section per element of each fiber: P matches the total
        assert pi.obj.size == 4
        assert pi.proj.table == (0, 0, 1, 2)

    def test_fiber_product_count(self):
        one = FinSetObj(1)
        a = FinSetObj(2)
        f = constant(a, one, 0)
        x = FinSetMap(FinSetObj(5), a, (0, 0, 1, 1, 1))
        pi = pi_f(f, x)
        assert pi.obj.size == 6  # 2 * 3 sections over the single point

    def test_empty_fiber_gives_singleton(self):
        b = FinSetObj(2)
        a = FinSetObj(1)
        f = constant(a, b, 0)  # nothing over b=1
        x = identity(a)
        pi = pi_f(f, x)
        assert pi.proj.fiber(1) == (pi.obj.size - 1,)
        assert pi.elements[-1] == (1, ())

    def test_ev_applies_sections(self):
        a = FinSetObj(2)
        one = FinSetObj(1)
        f = constant(a, one, 0)
        x = FinSetMap(FinSetObj(4), a, (0, 0, 1, 1))
        pi = pi_f(f, x)
        for idx, (s, a_elt) in enumerate(pi.square.pairs):
            b, sigma = pi.elements[s]
            assert pi.ev(idx) == sigma[pi.fibers[b].index(a_elt)]
            assert x(pi.ev(idx)) == a_elt

    def test_adjunction_transposes(self):
        # maps h: f*(Y) -> X over A biject with maps k: Y -> Pi_f(X) over B,
        # via explicit mutually inverse transposes, on 100 random instances
        rng = random.Random(11)
        for _ in range(100):
            nb = rng.randint(1, 2)
            f = rand_map(rng, rng.randint(0, 3), nb)
            if f.dom.size:
                x = rand_map(rng, rng.randint(0, 3), f.dom.size)
            else:
                x = FinSetMap(FinSetObj(0), f.dom, ())
            y = rand_map(rng, rng.randint(0, 2), nb)
            pi = pi_f(f, x)
            pby = pullback(y, f)  # f*(Y): pairs (y-elt, a)

            def down(k: FinSetMap) -> FinSetMap:
                return FinSetMap(
                    pby.apex, x.dom,
                    tuple(pi.ev(pi.square.index(k(i), a)) for i, a in pby.pairs))

            def up(h: FinSetMap) -> FinSetMap:
                table = []
                for i in y.dom.elements:
                    b = y(i)
                    sigma = tuple(h(pby.index(i, a)) for a in pi.fibers[b])
                    table.append(pi.elements.index((b, sigma)))
                return FinSetMap(y.dom, pi.obj, tuple(table))

            ks = [FinSetMap(y.dom, pi.obj, t) for t in itertools.product(
                *(pi.proj.fiber(y(i)) for i in y.dom.elements))]
            hs = [FinSetMap(pby.apex, x.dom, t) for t in itertools.product(
                *(x.fiber(a) for _, a in pby.pairs))]
            assert len(ks) == len(hs)
            downs = [down(k) for k in ks]
            assert all(compose(x, h) == pby.pr2 for h in downs)
            assert sorted(h.table for h in downs) == sorted(h.table for h in hs)
            assert all(up(down(k)) == k for k in ks)
            assert all(down(up(h)) == h for h in hs)


class TestQuantifiers:
    def test_forall_top(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 1, 1))
        assert forall_f(f, full_subset(f.dom)).members == (0, 1)

    def test_forall_strict(self):
        f = constant(FinSetObj(2), FinSetObj(1), 0)
        assert forall_f(f, Subset(f.dom, (0,))).members == ()

    def test_forall_vacuous(self):
        f = constant(FinSetObj(1), FinSetObj(2), 0)
        assert 1 in forall_f(f, Subset(f.dom, ()))

    def test_exists_examples(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (0, 0, 1))
        assert exists_f(f, Subset(f.dom, ())).members == ()
        assert exists_f(f, Subset(f.dom, (0, 1))).members == (0,)
        g = constant(FinSetObj(2), FinSetObj(1), 0)
        assert exists_f(g, Subset(g.dom, (0,))).members == (0,)

    def test_galois_adjunctions_exhaustive(self):
        # f^{-1}(T) <= S iff T <= forall_f(S); exists_f(S) <= T iff S <= f^{-1}(T)
        for nd, nc in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2)]:
            for table in itertools.product(range(nc), repeat=nd):
                f = FinSetMap(FinSetObj(nd), FinSetObj(nc), table)
                for smask in range(2 ** nd):
                    s = Subset(f.dom, tuple(i for i in range(nd) if smask >> i & 1))
                    for tmask in range(2 ** nc):
                        t = Subset(f.cod, tuple(j for j in range(nc) if tmask >> j & 1))
                        pre = set(preimage(f, t).members)
                        assert (pre <= set(s.members)) == (
                            set(t.members) <= set(forall_f(f, s).members))
                        assert (set(exists_f(f, s).members) <= set(t.members)) == (
                            set(s.members) <= pre)


class TestImage:
    def test_injective(self):
        f = FinSetMap(FinSetObj(2), FinSetObj(3), (2, 0))
        epi, mono = image_factorization(f)
        assert epi.is_bijective and compose(mono, epi) == f

    def test_constant(self):
        f = constant(FinSetObj(4), FinSetObj(3), 1)
        epi, mono = image_factorization(f)
        assert mono.dom.size == 1 and mono.table == (1,)

    def test_mixed(self):
        f = FinSetMap(FinSetObj(3), FinSetObj(3), (1, 1, 2))
        epi, mono = image_factorization(f)
        assert (epi.dom.size, epi.cod.size) == (3, 2)
        assert (mono.dom.size, mono.cod.size) == (2, 3)
        assert set(mono.table) == {1, 2}
        assert compose(mono, epi) == f

    @given(maps)
    def test_factorization_law(self, data):
        f = to_map(data)
        epi, mono = image_factorization(f)
        assert epi.is_surjective and mono.is_injective
        assert compose(mono, epi) == f
