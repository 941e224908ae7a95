"""Every single-entry change of a category's composition table, a
functor's morphism map and a module's action tables, against the checks
that name failures in order.

The decoder types each table in one pass, functors and modules skip
the equations along identities, and the module decoder names a bad
action entry by the shared map check; none of it may change which
failure is named first.  Here each entry of a seeded value is set to -1,
to every other value in range and to one past the range: each checked
constructor accepts exactly the lawful tables and raises the clause and
text of the reference check, as the document decoder does of the
reference decoder.
"""

import collections
import itertools
import json
import random

import pytest

from polyspan.documents import document, serialize
from polyspan.fincat import FinCat, Functor, monoid_cat
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.gen import rand_fincat, rand_functor, rand_profunctor
from polyspan.modpoly import Profunctor
from test_documents import REFERENCE_DECODERS, decode_outcome, parsed_outcome
from test_fincat import (all_triples_cat_check, reference_functor_check,
                         violation)
from test_modpoly import reference_prof_violation


Z3 = monoid_cat(((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)


def changed(table, i, v):
    return table[:i] + (v,) + table[i + 1:]


def single_changes(table, size):
    """(index, value) for each entry of table set to each other value of
    range(-1, size + 1): -1, every other value in range(size), and size."""
    for i, old in enumerate(table):
        for v in range(-1, size + 1):
            if v != old:
                yield i, v


@pytest.mark.unchecked_trust  # the lawless tables are built unchecked
class TestCategories:
    @staticmethod
    def outcomes(c, ident, comp):
        """The outcome of the reference check, which tests every
        composable triple, and that of the checked constructor; the
        document of these tables parses as the reference decoder reads
        it."""
        o, m = c.objects, c.morphisms
        ident_map = FinSetMap._trusted(o, m, ident)
        want = violation(all_triples_cat_check, FinCat._trusted(
            o, m, c.src, c.tgt, ident_map, comp))
        got = violation(FinCat, o, m, c.src, c.tgt, ident_map, comp)
        body = json.loads(serialize(document("fincat", c)))
        payload = {**body["payload"], "ident": ident, "comp": comp}
        payload = json.loads(json.dumps(payload))
        assert (parsed_outcome(body, payload, "fincat")
                == decode_outcome(REFERENCE_DECODERS["fincat"], payload,
                                  "fincat"))
        return want, got

    @pytest.mark.parametrize("seed", range(3))
    def test_every_change_of_one_composite(self, seed):
        rng = random.Random(1000 + seed)
        seen = collections.Counter()
        # the monoid keeps every boundary: its changes reach the unit and
        # associativity checks
        for c in [rand_fincat(rng, max_mors=8) for _ in range(6)] + [Z3]:
            m = c.morphisms.size
            flat = tuple(itertools.chain.from_iterable(c.comp))
            for i, v in single_changes(flat, m):
                comp = changed(flat, i, v)
                comp = tuple(comp[g * m:(g + 1) * m] for g in c.mors)
                want, got = self.outcomes(c, c.ident.table, comp)
                assert got == want, (c, comp)
                seen[want and want[0]] += 1
        assert set(seen) >= {"cat-comp-partial", "cat-comp-total",
                             "cat-comp-typing", "cat-unit", "cat-assoc"}

    @pytest.mark.parametrize("seed", range(3))
    def test_every_change_of_one_identity(self, seed):
        rng = random.Random(1100 + seed)
        seen = collections.Counter()
        for _ in range(10):
            c = rand_fincat(rng, max_mors=8)
            ident = c.ident.table
            for x, v in itertools.product(c.objs, c.mors):
                if v != ident[x]:
                    want, got = self.outcomes(
                        c, changed(ident, x, v), c.comp)
                    assert got == want
                    seen[want and want[0]] += 1
        assert {"cat-ident-endo", "cat-unit"} <= set(seen)

    def test_the_lawful_draws_pass(self):
        rng = random.Random(1200)
        for _ in range(40):
            c = rand_fincat(rng)
            assert self.outcomes(c, c.ident.table, c.comp) == (None, None)

    @pytest.mark.parametrize("odd", ["x", 1.0, None, True])
    def test_a_monoid_with_an_entry_that_is_no_int(self, odd):
        """A caller's table may hold anything: with one entry that is no
        int, alone or after or before a bad int in the table, the checked
        monoid raises what the reference raises, exception class and
        text, whichever entry it meets first."""
        flat = tuple(itertools.chain.from_iterable(Z3.comp))
        seen = collections.Counter()
        for i, j, bad in itertools.product(range(9), range(9), (-1, 3)):
            table = changed(flat, i, odd)
            if j != i:
                table = changed(table, j, bad)
            table = tuple(table[g * 3:(g + 1) * 3] for g in range(3))
            want = thrown(all_triples_cat_check, FinCat._trusted(
                Z3.objects, Z3.morphisms, Z3.src, Z3.tgt, Z3.ident, table))
            assert thrown(monoid_cat, table, 0) == want, table
            seen[want and want[0]] += 1
        assert len(seen) >= 2

    @pytest.mark.parametrize("odd", ["x", 1.0, None])
    def test_an_entry_that_is_no_int_behind_a_bad_one(self, odd):
        """A caller's row with a non-composable entry set to 0, then a
        composable entry that is no int, then a composable -1 that keeps
        the row's count of -1: the checked category names the first bad
        entry, as the reference does, and does not trip on the second."""
        rng, cases = random.Random(1250), 0
        for _ in range(30):
            c = rand_fincat(rng, max_mors=8)
            o, m = c.objects, c.morphisms
            for g, row in enumerate(c.comp):
                fib = c.tgt.fiber(c.src(g))
                for f0, (f1, f2) in itertools.product(
                        c.mors, itertools.combinations(fib, 2)):
                    if f0 in fib or f0 > f1:
                        continue
                    new = changed(changed(changed(row, f0, 0), f1, odd),
                                  f2, -1)
                    comp = changed(c.comp, g, new)
                    want = thrown(all_triples_cat_check, FinCat._trusted(
                        o, m, c.src, c.tgt, c.ident, comp))
                    assert thrown(FinCat, o, m, c.src, c.tgt, c.ident,
                                  comp) == want, comp
                    cases += 1
        assert cases >= 10


def thrown(build, *args):
    """The class and text of what build(*args) raises, or None."""
    try:
        build(*args)
    except Exception as e:  # every class is compared, not only ours
        return type(e), str(e)
    return None


@pytest.mark.parametrize("seed", range(3))
def test_every_change_of_one_morphism_image(seed):
    rng = random.Random(1300 + seed)
    seen, drawn = collections.Counter(), 0
    while drawn < 12:
        a, b = rand_fincat(rng), rand_fincat(rng)
        f = rand_functor(rng, a, b)
        if f is None:
            continue
        drawn += 1
        for i, v in single_changes(f.mmap, b.morphisms.size):
            mmap = changed(f.mmap, i, v)
            want = violation(reference_functor_check, a, b, f.omap, mmap)
            assert violation(Functor, a, b, f.omap, mmap) == want
            seen[want and want[0]] += 1
    assert set(seen) >= {"functor-mmap", "functor-boundary",
                         "functor-ident", "functor-comp"}


def module_maps(a_cat, b_cat, at, lact, ract):
    """The value sets and action maps of these tables, built unchecked
    so that an entry out of range reaches the reference check."""
    at = tuple(tuple(map(FinSetObj, row)) for row in at)
    lact = tuple(tuple(
        FinSetMap._trusted(at[b_cat.tgt(beta)][a], at[b_cat.src(beta)][a], t)
        for a, t in enumerate(row)) for beta, row in enumerate(lact))
    ract = tuple(tuple(
        FinSetMap._trusted(at[b][a_cat.src(alpha)], at[b][a_cat.tgt(alpha)], t)
        for b, t in enumerate(row)) for alpha, row in enumerate(ract))
    return at, lact, ract


def action_changes(m):
    """The action tables of m with one entry changed: (lact, ract) for
    each entry set to -1, to every other value of its target cell and to
    one past that cell."""
    a_cat, b_cat = m.src, m.tgt
    for side, acts in enumerate((m.lact, m.ract)):
        for r, row in enumerate(acts):
            for col, t in enumerate(row):
                if side == 0:
                    size = m.at[b_cat.src(r)][col]
                else:
                    size = m.at[col][a_cat.tgt(r)]
                for i, v in single_changes(t, size):
                    rows = list(acts)
                    rows[r] = changed(row, col, changed(t, i, v))
                    yield (tuple(rows), m.ract) if side == 0 else (
                        m.lact, tuple(rows))


@pytest.mark.unchecked_trust  # the reference reads maps built unchecked
@pytest.mark.parametrize("seed", range(3))
def test_every_change_of_one_action_entry(seed):
    """The checked module against the reference check, and the document
    decoder against the reference decoder, on the same changes."""
    rng = random.Random(1400 + seed)
    seen = collections.Counter()
    for _ in range(16):
        a, b = rand_fincat(rng), rand_fincat(rng)
        m = rand_profunctor(rng, a, b, max_cell=3)
        body = json.loads(serialize(document("profunctor", m)))
        for lact, ract in action_changes(m):
            want = reference_prof_violation(
                a, b, *module_maps(a, b, m.at, lact, ract))
            want = want and (want[0], f"{want[0]}: {want[1]}")
            assert violation(Profunctor, a, b, m.at, lact, ract) == want
            payload = {**body["payload"], "lact": lact, "ract": ract}
            payload = json.loads(json.dumps(payload))
            assert (parsed_outcome(body, payload, "profunctor")
                    == decode_outcome(REFERENCE_DECODERS["profunctor"],
                                      payload, "profunctor"))
            seen[want and want[0]] += 1
    assert set(seen) >= {"prof-typing", "prof-ident", "prof-comp",
                         "prof-interchange"}
