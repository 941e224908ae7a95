"""Document format: canonical bytes, roundtrips, and error reporting."""

import gc
import itertools
import json
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspan import checks, documents
from polyspan.checks import random_document
from polyspan.documents import (
    KINDS,
    Document,
    ParseError,
    document,
    parse,
    serialize,
)
from polyspan.errors import InvariantViolation
from polyspan.fincat import FinCat, Functor
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.gen import (
    rand_composable_modpolys,
    rand_family,
    rand_fincat,
    rand_finset,
    rand_functor,
    rand_map,
    rand_modpoly,
    rand_poly,
    rand_profunctor,
    rand_relation,
    rand_relpoly,
    rand_span,
)
from polyspan.modpoly import ModPolynomial, Profunctor
from polyspan.polyset import IndexedFamily, Polynomial
from polyspan.spans import Span
from test_fincat import all_triples_cat_check
from test_modpoly import tabled, tables_of


def sample_documents(seed, rounds=4):
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        a, b = rand_finset(rng, 1, 4), rand_finset(rng, 1, 4)
        out.append(document("finset-map", rand_map(rng, a, b)))
        out.append(document("span", rand_span(rng, a, b)))
        out.append(document("polynomial", rand_poly(rng, a, b)))
        out.append(document("relation", rand_relation(rng, a, b)))
        out.append(document("rel-polynomial", rand_relpoly(rng, a, b)))
        out.append(document("family", rand_family(rng, a)))
        x = rand_fincat(rng, max_mors=8)
        y = rand_fincat(rng, max_mors=8)
        out.append(document("fincat", x))
        f = rand_functor(rng, x, y)
        if f is not None:
            out.append(document("functor", f))
        out.append(document("profunctor",
                            rand_profunctor(rng, x, y, max_cell=3)))
        out.append(document("mod-polynomial",
                            rand_modpoly(rng, x, y, max_cell=3)))
    return out


class TestRoundtrip:
    def test_parse_after_serialize_is_identity(self):
        docs = sample_documents(7)
        assert {d.kind for d in docs} == set(KINDS)
        for doc in docs:
            assert parse(serialize(doc)) == doc

    def test_serialize_after_parse_fixes_canonical_text(self):
        for doc in sample_documents(8):
            text = serialize(doc)
            assert serialize(parse(text)) == text

    def test_key_order_in_input_is_irrelevant(self):
        doc = sample_documents(9, rounds=1)[0]
        scrambled = json.dumps(json.loads(serialize(doc)), sort_keys=False)
        assert parse(scrambled) == doc

    def test_serialized_form_is_versioned(self):
        doc = sample_documents(10, rounds=1)[0]
        assert json.loads(serialize(doc))["version"] == "1"


# Texts the JSON layer cannot read although they are valid JSON syntax:
# nesting deeper than the stack, and an integer literal longer than
# ``int`` converts.
UNREADABLE_JSON = {
    "deep nesting": "[" * 200_000,
    "long integer": ('{"version": "1", "kind": "polynomial", "payload": '
                     + "9" * 5000 + "}"),
}


class TestParseErrors:
    @pytest.mark.parametrize("name", sorted(UNREADABLE_JSON))
    def test_unreadable_json_is_a_parse_error(self, name):
        with pytest.raises(ParseError, match="unreadable JSON"):
            parse(UNREADABLE_JSON[name])

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as e:
            parse('{\n  "version": "1",\n  nope\n}')
        assert e.value.line == 3 and e.value.col == 3

    def test_unsupported_version(self):
        with pytest.raises(ParseError, match="unsupported version"):
            parse('{"version": "9", "kind": "family", "payload": {}}')

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown document kind"):
            parse('{"version": "1", "kind": "tensor", "payload": {}}')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field 'proj'"):
            parse('{"version": "1", "kind": "family", '
                  '"payload": {"base": 1, "total": 0}}')

    def test_extra_field_rejected(self):
        with pytest.raises(ParseError, match="unknown field 'color'"):
            parse('{"version": "1", "kind": "family", "payload": '
                  '{"base": 1, "total": 0, "proj": [], "color": 3}}')

    def test_non_integer_entry(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse('{"version": "1", "kind": "finset-map", "payload": '
                  '{"dom": 1, "cod": 1, "table": ["a"]}}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="expected an object"):
            parse('[1, 2]')


class TestInvariantSurfacing:
    def test_violations_name_their_clause(self):
        bad = ('{"version": "1", "kind": "relation", "payload": '
               '{"src": 2, "tgt": 2, "pairs": [[1, 1], [0, 0]]}}')
        with pytest.raises(InvariantViolation) as e:
            parse(bad)
        assert e.value.clause == "relation-order"

    def test_map_out_of_range(self):
        bad = ('{"version": "1", "kind": "finset-map", "payload": '
               '{"dom": 2, "cod": 1, "table": [0, 5]}}')
        with pytest.raises(InvariantViolation) as e:
            parse(bad)
        assert e.value.clause == "map-range"

    def test_category_laws_checked_on_load(self):
        # identity row of the composition table corrupted
        bad = {"version": "1", "kind": "fincat",
               "payload": {"objects": 1, "morphisms": 1, "src": [0],
                           "tgt": [0], "ident": [0], "comp": [[-1]]}}
        with pytest.raises(InvariantViolation):
            parse(json.dumps(bad))

    def test_wrong_payload_type_for_document(self):
        fam = sample_documents(11, rounds=1)[5].payload
        # the payload class is looked up once per kind: the second call
        # and serialize take the stored class
        for _ in range(2):
            with pytest.raises(ParseError,
                               match="payload is not a polynomial"):
                document("polynomial", fam)
            with pytest.raises(ParseError,
                               match="payload is not a polynomial"):
                serialize(Document("1", "polynomial", fam))
        with pytest.raises(ParseError, match="unknown document kind"):
            document("tensor", fam)

    def test_serialize_rejects_foreign_versions(self):
        doc = sample_documents(12, rounds=1)[0]
        with pytest.raises(ParseError, match="unsupported version"):
            serialize(Document("0", doc.kind, doc.payload))


TERMINAL = {"objects": 1, "morphisms": 1, "src": [0], "tgt": [0],
            "ident": [0], "comp": [[0]]}

# Module documents over the terminal category that a decoder building
# from declared sizes would mishandle, each with the clause and text it
# raises: an identity row that is not range(size), and a cell of 2^40
# elements whose rows are short.
HOSTILE_MODULES = {
    "identity row not range": (
        {"at": [[2]], "lact": [[[1, 0]]], "ract": [[[0, 1]]]},
        "prof-ident: left identity action fails at (0, 0)"),
    "2^40-element cell, short rows": (
        {"at": [[2 ** 40]], "lact": [[[0]]], "ract": [[[0]]]},
        "map-total: table length 1 != domain size 1099511627776"),
    "2^40-element cell, short ract row": (
        {"at": [[2 ** 40]], "lact": [[[0, 1, 2]]], "ract": [[[0]]]},
        "map-total: table length 3 != domain size 1099511627776"),
}


class TestModuleTables:
    def test_the_encoder_hands_over_the_modules_own_tables(self):
        m = parse(serialize(random_document("profunctor", 3))).payload
        tables = documents._enc_prof_tables(m)
        assert tables["at"] is m.at
        assert tables["lact"] is m.lact
        assert tables["ract"] is m.ract

    @pytest.mark.parametrize("name", sorted(HOSTILE_MODULES))
    def test_hostile_modules_allocate_nothing_from_a_declared_size(
            self, name):
        tables, text = HOSTILE_MODULES[name]
        doc = json.dumps({"version": "1", "kind": "profunctor", "payload":
                          {"src": TERMINAL, "tgt": TERMINAL, **tables}})
        parse(serialize(random_document("profunctor", 0)))  # load modpoly
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation) as e:
                parse(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == text
        assert peak < 1 << 20


def nested_tree(depth):
    """Lists and objects nested ``depth`` deep, a scalar first in each
    list."""
    tree = [1, 2]
    for i in range(depth):
        tree = [i, tree] if i % 2 else {"k": (tree, [i, i + 1])}
    return tree


class TestCanonicalEmitter:
    """serialize writes the canonical text itself; json.dumps with
    indent=2 (the pure-Python encoder it replaced) is the reference."""

    @staticmethod
    def reference(doc):
        body = {"version": doc.version, "kind": doc.kind,
                "payload": documents._CODECS[doc.kind][1](doc.payload)}
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(documents._CODECS)),
           st.integers(0, 2 ** 32))
    def test_every_kind_matches_json_dumps(self, kind, seed):
        doc = random_document(kind, seed)
        assert serialize(doc) == self.reference(doc)

    def test_sample_documents_match_json_dumps(self):
        docs = sample_documents(13)
        assert {d.kind for d in docs} == set(KINDS)
        for doc in docs:
            assert serialize(doc) == self.reference(doc)

    def test_empty_tables_match_json_dumps(self):
        docs = [parse('{"version": "1", "kind": "relation", "payload": '
                      '{"src": 0, "tgt": 0, "pairs": []}}'),
                parse('{"version": "1", "kind": "fincat", "payload": '
                      '{"objects": 0, "morphisms": 0, "src": [], "tgt": [], '
                      '"ident": [], "comp": []}}')]
        for doc in docs:
            assert serialize(doc) == self.reference(doc)
            assert "[]" in serialize(doc)

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=20)

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_any_json_tree_matches_json_dumps(self, tree):
        # empty lists and objects, bools among ints, non-ASCII keys
        assert (documents._canonical(tree, "")
                == json.dumps(tree, sort_keys=True, indent=2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers() | st.booleans(), min_size=k, max_size=k),
        max_size=5)))
    def test_int_rows_match_json_dumps(self, rows):
        # a relation's pairs sit two levels down in a document body
        tree = {"payload": {"pairs": rows}}
        assert (documents._canonical(tree, "")
                == json.dumps(tree, sort_keys=True, indent=2))

    fixed_trees = [
        # a scalar first, a container later: the C text is not used
        [1, [2, 3]], [1, 2, {"a": 1}], [0, []], [0, {}], (0, (1,), 2),
        ["x", None, [True]], [1.5, {"b": [1, 2]}, 3],
        # strings holding brackets and escapes
        ["[", "]", 1], ["{", "}"], [0, "a[b"], ["{x}", 2], ["\n", "\u0000"],
        ["tab\t", "quote\"", "back\\slash", "é", "\U0001d11e"],
        {"[k": ["v", "]"], "{": "}"},
        # bools, None and floats among ints
        [1, True, False, None, 0.5, -2.0, 1e300, 1e-07, 3],
        [True, 1], [None, 0], [0.0, -0.0, 1],
        # ints past 2**64
        [2 ** 64, -(2 ** 70), 2 ** 200 + 1], (2 ** 64,),
        # nested empty lists and objects
        [], (), {}, [[]], [[], []], [[[]], [], [[], [[]]]], [{}, []],
        [0, [[]]], {"a": [], "b": {}, "c": [[]]},
        # deeper than any document nests
        nested_tree(9), nested_tree(14), [[[[[[[[[[[1, 2]]]]]]]]]]],
        # lists of int rows, one format call when every entry is an int:
        # no pair, one pair, rows of other lengths, tuples among lists
        {"pairs": []}, {"pairs": [[0, 1]]}, [(0, 1)], [[5]],
        [[0, 1], [1, 0], [1, 1]], [(0, 1, 2), [3, 4, 5]],
        # and the general path: bools, floats, None or strings among
        # ints, unequal or empty rows, a row holding a container
        [[1, True], [2, 3]], [[False, 0]], [[0, 1], [1.0, 2]],
        [[0, None]], [["0", 1]], [[1, 2], [3]], [[], [1]], [[1], []],
        [[1, [2]], [3, 4]], [[1, 2], 3], [[1, 2], {"a": 1}],
        # ints past 2**64 in rows
        [[2 ** 64, -(2 ** 70)], [2 ** 200 + 1, 0]],
    ]

    @pytest.mark.parametrize("c_encoder", [True, False],
                             ids=["c-encoder", "no-c-encoder"])
    @pytest.mark.parametrize("tree", fixed_trees, ids=repr)
    def test_fixed_trees_match_json_dumps(self, tree, c_encoder,
                                          monkeypatch):
        if not c_encoder:
            monkeypatch.setattr(documents, "c_make_encoder", None)
        want = json.dumps(tree, sort_keys=True, indent=2)
        assert documents._canonical(tree, "") == want
        # the same tree inside a document body, one level down
        assert (documents._canonical({"payload": tree}, "")
                == json.dumps({"payload": tree}, sort_keys=True, indent=2))

    def test_without_a_c_encoder_documents_keep_their_bytes(
            self, monkeypatch):
        docs = sample_documents(14, rounds=2)
        texts = [serialize(doc) for doc in docs]
        monkeypatch.setattr(documents, "c_make_encoder", None)
        assert [serialize(doc) for doc in docs] == texts


def finset_map(dom, cod, table):
    return FinSetMap(FinSetObj(dom), FinSetObj(cod), tuple(table))


class TestMapTables:
    """Map tables are written as one join of cached decimal strings; the
    list of strings grows by at most one string per entry of the table
    that needs it, and never past its bound."""

    reference = staticmethod(TestCanonicalEmitter.reference)

    @pytest.fixture
    def digits(self, monkeypatch):
        """A fresh, empty list of decimal strings."""
        fresh = []
        monkeypatch.setattr(documents, "_digits", fresh)
        return fresh

    def test_growth_by_at_most_the_table_length(self, digits):
        # largest entry 9 in a table of 10: the list grows to 10 strings
        doc = document("finset-map", finset_map(10, 10, [9, *range(9)]))
        assert serialize(doc) == self.reference(doc)
        assert digits == [str(i) for i in range(10)]
        # one past the growth step: 21 new strings for a table of 20
        doc = document("finset-map", finset_map(20, 31, [30] * 20))
        assert serialize(doc) == self.reference(doc)
        assert len(digits) == 10
        # at the growth step: 20 new strings for a table of 20
        doc = document("finset-map", finset_map(20, 30, [29] * 20))
        assert serialize(doc) == self.reference(doc)
        assert digits == [str(i) for i in range(30)]
        # a short table with one large entry keeps the general path
        doc = document("finset-map", finset_map(2, 5001, [0, 5000]))
        assert serialize(doc) == self.reference(doc)
        assert len(digits) == 30

    def test_growth_stops_at_the_bound(self, digits):
        bound = documents._DIGITS_BOUND
        at_bound = finset_map(bound, bound, range(bound))
        doc = document("finset-map", at_bound)
        assert serialize(doc) == self.reference(doc)
        assert len(digits) == bound
        past = finset_map(bound, bound + 1, [bound, *range(1, bound)])
        doc = document("finset-map", past)
        assert serialize(doc) == self.reference(doc)
        assert len(digits) == bound

    def test_empty_tables(self, digits):
        empty = FinSetObj(0)
        for doc in (document("finset-map", finset_map(0, 3, [])),
                    document("polynomial", Polynomial(
                        empty, empty, empty, empty,
                        *[finset_map(0, 0, [])] * 3)),
                    document("family", IndexedFamily(
                        FinSetObj(2), empty, finset_map(0, 2, [])))):
            assert serialize(doc) == self.reference(doc)
            assert '": []' in serialize(doc)

    def test_every_map_table_kind_matches_json_dumps(self, digits):
        docs = sample_documents(15, rounds=3)
        for doc in docs:
            assert serialize(doc) == self.reference(doc)
        assert digits

    def test_float_entries_keep_the_general_path(self, digits):
        doc = document("finset-map", finset_map(3, 3, [0.0, 2.0, 1.5]))
        text = serialize(doc)
        assert text == self.reference(doc)
        assert "2.0" in text and "1.5" in text
        assert digits == []

    def test_bool_entries_are_written_as_ints(self, digits):
        f = finset_map(3, 2, [True, False, True])
        text = serialize(document("finset-map", f))
        assert '"table": [\n      1,\n      0,\n      1\n    ]' in text
        assert parse(text).payload == f
        # json writes true and false, which a map table does not accept
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse(self.reference(document("finset-map", f)))

    def test_composition_rows_never_take_the_digit_path(self, digits,
                                                         monkeypatch):
        written = []
        real = documents._map_items

        def spy(table, sep):
            written.append(table)
            return real(table, sep)
        monkeypatch.setattr(documents, "_map_items", spy)
        rng = random.Random(16)
        for _ in range(20):
            c = rand_fincat(rng, max_mors=8)
            doc = document("fincat", c)
            written.clear()
            assert serialize(doc) == self.reference(doc)
            # a table that grows the list is looked up twice
            assert {*written} == {c.ident.table, c.src.table, c.tgt.table}
            assert all(-1 not in table for table in written)
        assert any(-1 in row for row in c.comp)

    def test_compact_text_is_unchanged(self):
        for doc in sample_documents(17):
            plain = json.loads(serialize(doc))["payload"]
            assert checks._compact(doc.kind, doc.payload) == json.dumps(
                plain, sort_keys=True, separators=(",", ":"))


# The per-element checks that _nat, _ints and _comp_row replaced.

def reference_nat(v, ctx):
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ParseError(f"{ctx}: expected a nonnegative integer")
    return v


def reference_ints(v, ctx):
    if not isinstance(v, list):
        raise ParseError(f"{ctx}: expected a list of integers")
    return tuple(reference_nat(x, ctx) for x in v)


def reference_comp_row(v, ctx):
    if not isinstance(v, list) or any(
            isinstance(x, bool) or not isinstance(x, int) or x < -1
            for x in v):
        raise ParseError(f"{ctx}: expected a list of integers >= -1")
    return tuple(v)


def reference_pairs(v, ctx):
    """The row-by-row loop that _pairs replaced."""
    if not isinstance(v, list):
        raise ParseError(f"{ctx}: expected a list")
    out = []
    for row in v:
        pair = reference_ints(row, ctx)
        if len(pair) != 2:
            raise ParseError(f"{ctx}: expected pairs of integers")
        out.append((pair[0], pair[1]))
    return tuple(out)


def outcome(fn, v):
    try:
        result = fn(v, "ctx")
    except ParseError as e:
        return "error", str(e)
    return "value", result, tuple(map(type, result)) if isinstance(
        result, tuple) else type(result)


class TestIntegerChecksAgainstReference:
    scalars = (st.integers(-3, 5) | st.booleans() | st.floats(-2, 2)
               | st.text(max_size=2) | st.none())
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=6),
                          max_leaves=12)
    mostly_ints = st.lists(st.integers(-2, 9) | scalars, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(values)
    def test_nat(self, v):
        assert outcome(documents._nat, v) == outcome(reference_nat, v)

    @settings(max_examples=150, deadline=None)
    @given(values | mostly_ints)
    def test_ints(self, v):
        assert outcome(documents._ints, v) == outcome(reference_ints, v)

    @settings(max_examples=150, deadline=None)
    @given(values | mostly_ints)
    def test_comp_row(self, v):
        assert (outcome(documents._comp_row, v)
                == outcome(reference_comp_row, v))

    pair = st.lists(st.integers(0, 4), min_size=2, max_size=2)
    rows = st.lists(pair | st.lists(st.integers(-1, 4) | scalars, max_size=3)
                    | scalars, max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(pair, max_size=6) | rows | values)
    def test_pairs(self, v):
        got, want = outcome(documents._pairs, v), outcome(reference_pairs, v)
        # repr tells True from 1 and 1.0 from 1 inside the pairs
        assert repr(got) == repr(want)

    def test_each_pair_error_is_reached(self):
        def error(v):
            return outcome(documents._pairs, v)[1]
        assert outcome(documents._pairs, [[0, 1], [2, 0]])[1] == (
            (0, 1), (2, 0))
        assert outcome(documents._pairs, [])[1] == ()
        assert error({}) == "ctx: expected a list"
        assert error([[0, 1], 3]) == "ctx: expected a list of integers"
        for bad in (True, 1.0, -1):
            assert error([[0, 1], [bad, 0]]) == (
                "ctx: expected a nonnegative integer")
        for bad in ([], [0], [0, 1, 2]):
            assert error([bad]) == "ctx: expected pairs of integers"
        # the first error in row order is the one raised
        assert "pairs" in error([[0, 1, 2], [True, 0]])
        assert "nonnegative" in error([[True, 0], [0, 1, 2]])

    def test_each_error_is_reached(self):
        assert outcome(documents._ints, 3)[0] == "error"
        assert "nonnegative" in outcome(documents._ints, [0, True])[1]
        assert "nonnegative" in outcome(documents._ints, [0, -1])[1]
        assert "nonnegative" in outcome(documents._ints, [1.0])[1]
        assert outcome(documents._comp_row, [-1, 0, 2])[0] == "value"
        assert ">= -1" in outcome(documents._comp_row, [0, -2])[1]
        assert ">= -1" in outcome(documents._comp_row, [[0]])[1]


# -- decoders that check each fact once, against the decoders they replaced

def reference_dec_map(d, ctx):
    d = documents._expect_keys(d, {"dom", "cod", "table"}, ctx)
    return FinSetMap(FinSetObj(reference_nat(d["dom"], ctx)),
                     FinSetObj(reference_nat(d["cod"], ctx)),
                     reference_ints(d["table"], ctx))


def reference_dec_span(d, ctx):
    d = documents._expect_keys(d, {"left_foot", "right_foot", "apex",
                                   "left_leg", "right_leg"}, ctx)
    left = FinSetObj(reference_nat(d["left_foot"], ctx))
    right = FinSetObj(reference_nat(d["right_foot"], ctx))
    apex = FinSetObj(reference_nat(d["apex"], ctx))
    return Span(left, right, apex,
                FinSetMap(apex, left, reference_ints(d["left_leg"], ctx)),
                FinSetMap(apex, right, reference_ints(d["right_leg"], ctx)))


def reference_dec_poly(d, ctx):
    d = documents._expect_keys(d, {"x", "e", "s", "y", "m1", "m2", "p"}, ctx)
    x, e, s, y = (FinSetObj(reference_nat(d[k], ctx)) for k in "xesy")
    return Polynomial(x, e, s, y,
                      FinSetMap(e, x, reference_ints(d["m1"], ctx)),
                      FinSetMap(e, s, reference_ints(d["m2"], ctx)),
                      FinSetMap(s, y, reference_ints(d["p"], ctx)))


def reference_dec_family(d, ctx):
    d = documents._expect_keys(d, {"base", "total", "proj"}, ctx)
    base = FinSetObj(reference_nat(d["base"], ctx))
    total = FinSetObj(reference_nat(d["total"], ctx))
    return IndexedFamily(base, total,
                         FinSetMap(total, base,
                                   reference_ints(d["proj"], ctx)))


def reference_dec_cat(d, ctx):
    d = documents._expect_keys(d, {"objects", "morphisms", "src", "tgt",
                                   "ident", "comp"}, ctx)
    o = FinSetObj(reference_nat(d["objects"], ctx))
    m = FinSetObj(reference_nat(d["morphisms"], ctx))
    comp = tuple(reference_comp_row(row, ctx)
                 for row in documents._rows(d["comp"], ctx))
    return FinCat(o, m,
                  FinSetMap(m, o, reference_ints(d["src"], ctx)),
                  FinSetMap(m, o, reference_ints(d["tgt"], ctx)),
                  FinSetMap(o, m, reference_ints(d["ident"], ctx)), comp)


def reference_dec_functor_tables(d, dom, cod, ctx):
    d = documents._expect_keys(d, {"omap", "mmap"}, ctx)
    return Functor(dom, cod, reference_ints(d["omap"], ctx),
                   reference_ints(d["mmap"], ctx))


def reference_dec_prof_tables(d, src, tgt, ctx):
    d = documents._expect_keys(d, {"at", "lact", "ract"}, ctx)
    at_rows = [reference_ints(row, ctx)
               for row in documents._rows(d["at"], ctx)]
    if len(at_rows) != tgt.objects.size or any(
            len(row) != src.objects.size for row in at_rows):
        raise ParseError(f"{ctx}: value table must be indexed by "
                         "target then source objects")
    at = tuple(tuple(FinSetObj(n) for n in row) for row in at_rows)
    lact_rows = documents._rows(d["lact"], ctx)
    ract_rows = documents._rows(d["ract"], ctx)
    if len(lact_rows) != tgt.morphisms.size:
        raise ParseError(f"{ctx}: one lact row per target morphism required")
    if len(ract_rows) != src.morphisms.size:
        raise ParseError(f"{ctx}: one ract row per source morphism required")
    lact = []
    for beta, row in enumerate(lact_rows):
        row = documents._rows(row, ctx)
        if len(row) != src.objects.size:
            raise ParseError(f"{ctx}: lact row {beta} has wrong length")
        lact.append(tuple(
            FinSetMap(at[tgt.tgt(beta)][a], at[tgt.src(beta)][a],
                      reference_ints(row[a], ctx))
            for a in src.objs))
    ract = []
    for alpha, row in enumerate(ract_rows):
        row = documents._rows(row, ctx)
        if len(row) != tgt.objects.size:
            raise ParseError(f"{ctx}: ract row {alpha} has wrong length")
        ract.append(tuple(
            FinSetMap(at[b][src.src(alpha)], at[b][src.tgt(alpha)],
                      reference_ints(row[b], ctx))
            for b in tgt.objs))
    return tabled(src, tgt, at, lact, ract)


def reference_dec_modpoly(d, ctx):
    d = documents._expect_keys(d, {"x", "y", "s", "m", "p"}, ctx)
    x = reference_dec_cat(d["x"], ctx + ".x")
    y = reference_dec_cat(d["y"], ctx + ".y")
    s = reference_dec_cat(d["s"], ctx + ".s")
    m = reference_dec_prof_tables(d["m"], s, x, ctx + ".m")
    p = reference_dec_functor_tables(d["p"], s, y, ctx + ".p")
    return ModPolynomial(x, y, s, m, p)


def reference_dec_functor(d, ctx):
    d = documents._expect_keys(d, {"dom", "cod", "omap", "mmap"}, ctx)
    dom = reference_dec_cat(d["dom"], ctx + ".dom")
    cod = reference_dec_cat(d["cod"], ctx + ".cod")
    return reference_dec_functor_tables(
        {"omap": d["omap"], "mmap": d["mmap"]}, dom, cod, ctx)


def reference_dec_prof(d, ctx):
    d = documents._expect_keys(d, {"src", "tgt", "at", "lact", "ract"}, ctx)
    src = reference_dec_cat(d["src"], ctx + ".src")
    tgt = reference_dec_cat(d["tgt"], ctx + ".tgt")
    return reference_dec_prof_tables(
        {"at": d["at"], "lact": d["lact"], "ract": d["ract"]}, src, tgt, ctx)


REFERENCE_DECODERS = {
    "finset-map": reference_dec_map,
    "span": reference_dec_span,
    "polynomial": reference_dec_poly,
    "family": reference_dec_family,
    "fincat": reference_dec_cat,
    "functor": reference_dec_functor,
    "profunctor": reference_dec_prof,
    "mod-polynomial": reference_dec_modpoly,
}
CATEGORY_KINDS = ("fincat", "functor", "mod-polynomial", "profunctor")

SCALAR_SWAPS = (lambda v: v + 1, lambda v: v - 1, lambda v: -1,
                lambda v: 2 ** 40, lambda v: True, lambda v: "1",
                lambda v: 1.0, lambda v: None)


def corrupt(tree, rng, times):
    """A copy of a JSON tree with ``times`` changes, each at a random node:
    drop a key, append or drop a list entry, or replace an int."""
    tree = json.loads(json.dumps(tree))
    for _ in range(times):
        nodes, todo = [], [tree]
        while todo:
            node = todo.pop()
            keys = node if isinstance(node, dict) else range(len(node))
            nodes += [(node, k) for k in keys]
            todo += [node[k] for k in keys
                     if isinstance(node[k], (dict, list))]
        lists = [n for n in [tree, *(p[k] for p, k in nodes)]
                 if isinstance(n, list)]
        ints = [(p, k) for p, k in nodes if type(p[k]) is int]
        op = rng.choice(["int"] * 4 + ["drop"] * 2 + ["append"])
        if op == "int" and ints:
            parent, key = rng.choice(ints)
            parent[key] = rng.choice(SCALAR_SWAPS)(parent[key])
        elif op == "append" and lists:
            target = rng.choice(lists)
            target.append(rng.choice(target) if target else 0)
        elif nodes:
            parent, key = rng.choice(nodes)
            del parent[key]
    return tree


def corrupt_actions(payload, kind, rng, times):
    """A copy of a module payload with changes in its value and action
    tables only, so that the categories stay lawful."""
    if kind == "mod-polynomial":
        return {**payload, "m": corrupt(payload["m"], rng, times)}
    tables = {k: payload[k] for k in ("at", "lact", "ract")}
    return {"src": payload["src"], "tgt": payload["tgt"],
            **corrupt(tables, rng, times)}


def decode_outcome(decode, payload, kind):
    try:
        value = decode(payload, kind)
    except Exception as e:  # every class is compared, not only ours
        return type(e), getattr(e, "clause", None), str(e)
    return "value", value


def maps_dec_prof_tables(d, src, tgt, ctx):
    """The module decoder as it was while a module held one ``FinSetObj``
    per cell and one ``FinSetMap`` per action, converted to tables: every
    leaf checked in one pass, then row by row when that pass fails."""
    d = documents._expect_keys(d, {"at", "lact", "ract"}, ctx)
    at_rows = [documents._ints(row, ctx)
               for row in documents._rows(d["at"], ctx)]
    na, nb = src.objects.size, tgt.objects.size
    if len(at_rows) != nb or any(len(row) != na for row in at_rows):
        raise ParseError(f"{ctx}: value table must be indexed by "
                         "target then source objects")
    at = tuple(tuple(map(FinSetObj, row)) for row in at_rows)
    lact_rows = documents._rows(d["lact"], ctx)
    ract_rows = documents._rows(d["ract"], ctx)
    if len(lact_rows) != tgt.morphisms.size:
        raise ParseError(f"{ctx}: one lact row per target morphism required")
    if len(ract_rows) != src.morphisms.size:
        raise ParseError(f"{ctx}: one ract row per source morphism required")

    def action(rows, values, dom_end, cod_end, width, side):
        leaves, doms, cods = [], [], []
        for r, row in enumerate(rows):
            if type(row) is not list or len(row) != width:
                break
            leaves += row
            doms += values[dom_end[r]]
            cods += values[cod_end[r]]
        else:
            if (documents._int_tables(leaves, 0)
                    and all(len(t) == x.size and (not t or max(t) < y.size)
                            for t, x, y in zip(leaves, doms, cods))):
                maps = map(FinSetMap._trusted, doms, cods, map(tuple, leaves))
                return tuple(tuple(itertools.islice(maps, width))
                             for _ in rows)
        out = []
        for r, row in enumerate(rows):
            row = documents._rows(row, ctx)
            if len(row) != width:
                raise ParseError(f"{ctx}: {side} row {r} has wrong length")
            dom, cod = values[dom_end[r]], values[cod_end[r]]
            out.append(tuple(FinSetMap(dom[i], cod[i],
                                       documents._ints(row[i], ctx))
                             for i in range(width)))
        return tuple(out)

    by_src = tuple(tuple(row[a] for row in at) for a in src.objs)
    lact = action(lact_rows, at, tgt.tgt.table, tgt.src.table, na, "lact")
    ract = action(ract_rows, by_src, src.src.table, src.tgt.table, nb,
                  "ract")
    m = Profunctor._trusted(src, tgt, *tables_of(at, lact, ract))
    m._check_laws()
    return m


def corrupted_payloads(kind):
    """The corrupted documents of one kind: for each of 60 seeded random
    documents, eight corruptions anywhere and, for modules, eight more in
    the value and action tables only.  Yields (document body, payload);
    each uncorrupted value stays alive while its corruptions are parsed,
    so its categories are interned."""
    rng = random.Random(kind)
    kept = []
    for seed in range(60):
        text = serialize(random_document(kind, seed))
        kept.append(parse(text))
        body = json.loads(text)
        payloads = [corrupt(body["payload"], rng, rng.choice((1, 1, 2)))
                    for _ in range(8)]
        if kind in ("profunctor", "mod-polynomial"):
            # two or three errors in the actions: the first one counts
            payloads += [corrupt_actions(body["payload"], kind, rng,
                                         rng.choice((1, 2, 3)))
                         for _ in range(8)]
        for payload in payloads:
            yield body, payload


def parsed_outcome(body, payload, kind):
    return decode_outcome(lambda v, ctx: parse(json.dumps(
        {**body, "payload": v})).payload, payload, kind)


@pytest.mark.unchecked_trust  # the decoder's own checks are compared
class TestDecodersAgainstReference:
    """Parsing checks each fact once: categories are hash-consed, module
    actions are checked against the cell sizes, and the category and
    action tables in one pass.  On any input it must give the payload, or
    the exception class, clause and text, of the decoders it replaced."""

    @pytest.mark.parametrize("kind", sorted(REFERENCE_DECODERS))
    def test_corrupted_documents_decode_as_the_reference(self, kind):
        outcomes = set()
        for body, payload in corrupted_payloads(kind):
            got = parsed_outcome(body, payload, kind)
            want = decode_outcome(REFERENCE_DECODERS[kind], payload, kind)
            assert got == want, payload
            outcomes.add(got[0] if got[0] == "value" else got[:2])
        # both clean and failing documents, and several kinds of failure:
        # a set-level payload fails to parse or as one of its maps
        assert "value" in outcomes and len(outcomes) >= (
            6 if kind in CATEGORY_KINDS else 4), outcomes

    @pytest.mark.parametrize("kind", ["mod-polynomial", "profunctor"])
    def test_corrupted_modules_decode_as_with_value_sets_and_maps(
            self, kind, monkeypatch):
        """The decoder of tables against the one that built a value set
        per cell and a map per action, on the same corpus."""
        corpus = list(corrupted_payloads(kind))
        got = [parsed_outcome(body, payload, kind) for body, payload in corpus]
        monkeypatch.setattr(documents, "_dec_prof_tables",
                            maps_dec_prof_tables)
        assert [parsed_outcome(body, payload, kind)
                for body, payload in corpus] == got
        clauses = {outcome[1] for outcome in got
                   if outcome[0] is InvariantViolation}
        assert {"map-total", "map-range"} <= clauses
        assert any(clause.startswith("prof-") for clause in clauses)

    @pytest.mark.parametrize("kind", CATEGORY_KINDS)
    def test_corrupted_categories_fail_as_with_every_triple_checked(
            self, kind, monkeypatch):
        """Associativity checked on triples of non-identities, against the
        check of every composable triple, on the same corpus."""
        corpus = list(corrupted_payloads(kind))
        got = [parsed_outcome(body, payload, kind) for body, payload in corpus]
        monkeypatch.setattr(FinCat, "__post_init__", all_triples_cat_check)
        assert [parsed_outcome(body, payload, kind)
                for body, payload in corpus] == got
        assert any(outcome[1].startswith("cat-") for outcome in got
                   if outcome[0] is InvariantViolation)

    def test_a_bool_table_equal_to_a_live_one_is_rejected(self):
        good = {"objects": 2, "morphisms": 2, "src": [0, 1], "tgt": [0, 1],
                "ident": [0, 1], "comp": [[0, -1], [-1, 1]]}
        alive = parse(json.dumps({"version": "1", "kind": "fincat",
                                  "payload": good}))
        assert alive.payload.ident.table == (0, 1)
        for key, bad in (("ident", [0, True]), ("src", [0, 1.0]),
                         ("comp", [[0, -1], [-1, True]])):
            text = json.dumps({"version": "1", "kind": "fincat",
                               "payload": {**good, key: bad}})
            with pytest.raises(ParseError, match="integer"):
                parse(text)


class TestInterning:
    @pytest.fixture
    def interned(self, monkeypatch):
        """A fresh, empty table of live categories."""
        table = {}
        monkeypatch.setattr(documents, "_CATS", table)
        return table

    @staticmethod
    def composable_pair(seed):
        rng = random.Random(seed)
        pair = None
        while pair is None:
            pair = rand_composable_modpolys(rng)
        p, q = pair
        return (serialize(document("mod-polynomial", q)),
                serialize(document("mod-polynomial", p)))

    def test_equal_tables_parse_to_one_category(self, interned):
        tq, tp = self.composable_pair(61)
        q, p = parse(tq).payload, parse(tp).payload
        assert p.Y is q.X
        again = parse(tq).payload
        assert again.X is q.X and again.Y is q.Y and again.S is q.S

    def test_the_table_holds_live_categories_only(self, interned):
        tq, tp = self.composable_pair(62)
        q, p = parse(tq).payload, parse(tp).payload
        assert 0 < len(interned) <= 5
        bad = {"version": "1", "kind": "fincat",
               "payload": {"objects": 1, "morphisms": 1, "src": [0],
                           "tgt": [0], "ident": [0], "comp": [[-1]]}}
        with pytest.raises(InvariantViolation):
            parse(json.dumps(bad))  # a table that fails is not stored
        assert len(interned) <= 5
        del q, p
        gc.collect()
        assert len(interned) == 0

    def test_a_dead_reference_drops_only_its_own_entry(self, interned):
        text = json.dumps({"version": "1", "kind": "fincat",
                           "payload": TERMINAL})
        first = parse(text).payload
        (key, old), = interned.items()
        # a newer entry under the same key, while the first is alive
        second = FinCat(first.objects, first.morphisms, first.src,
                        first.tgt, first.ident, first.comp)
        newer = interned[key] = weakref.ref(second)
        del first
        gc.collect()
        assert old() is None and interned == {key: newer}
        assert parse(text).payload is second
        # a dead entry is replaced on the next miss
        del second
        gc.collect()
        assert newer() is None
        third = parse(text).payload
        assert interned[key]() is third
        del third
        gc.collect()
        assert interned == {}

    @pytest.mark.parametrize("seed", range(63, 66))
    def test_each_distinct_table_is_checked_once(self, interned,
                                                 monkeypatch, seed):
        tq, tp = self.composable_pair(seed)
        checked = []
        real = FinCat.__post_init__

        def spy(cat):
            checked.append(documents._enc_cat(cat))
            real(cat)
        monkeypatch.setattr(FinCat, "__post_init__", spy)
        q, p = parse(tq).payload, parse(tp).payload
        monkeypatch.undo()
        tables = [json.dumps(documents._enc_cat(c), sort_keys=True)
                  for c in (q.X, q.Y, q.S, p.X, p.Y, p.S)]
        # q.X and p.Y are one table: the parser that checks every table
        # makes 6 checks here
        assert len(set(tables)) < 6
        assert len(checked) == len(set(tables))
