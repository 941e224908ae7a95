"""Document format: canonical bytes, roundtrips, and error reporting."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyspan import documents
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
from polyspan.gen import (
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


class TestParseErrors:
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
        with pytest.raises(ParseError, match="payload is not a polynomial"):
            document("polynomial", fam)

    def test_serialize_rejects_foreign_versions(self):
        doc = sample_documents(12, rounds=1)[0]
        with pytest.raises(ParseError, match="unsupported version"):
            serialize(Document("0", doc.kind, doc.payload))


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
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=20)

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_any_json_tree_matches_json_dumps(self, tree):
        # empty lists and objects, bools among ints, non-ASCII keys
        assert (documents._canonical(tree, "")
                == json.dumps(tree, sort_keys=True, indent=2))


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

    def test_each_error_is_reached(self):
        assert outcome(documents._ints, 3)[0] == "error"
        assert "nonnegative" in outcome(documents._ints, [0, True])[1]
        assert "nonnegative" in outcome(documents._ints, [0, -1])[1]
        assert "nonnegative" in outcome(documents._ints, [1.0])[1]
        assert outcome(documents._comp_row, [-1, 0, 2])[0] == "value"
        assert ">= -1" in outcome(documents._comp_row, [0, -2])[1]
        assert ">= -1" in outcome(documents._comp_row, [[0]])[1]
