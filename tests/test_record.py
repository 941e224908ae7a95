"""Record classes behave as the frozen dataclasses they replaced: the
``dataclasses`` module itself is the reference."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# importing every layer registers every record class
import polyspan.checks  # noqa: F401
from polyspan.errors import InvariantViolation
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.record import Record


def all_records():
    out, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted((c for c in out if c.__module__.startswith("polyspan.")),
                  key=lambda c: (c.__module__, c.__qualname__))


def twins(fields, defaults=None):
    """A Record and a frozen dataclass with the same name and fields, and
    no validation, so that any values can go in."""
    defaults = defaults or {}
    namespace = {"__annotations__": dict.fromkeys(fields, "object"),
                 **defaults}
    record = type("Twin", (Record,), dict(namespace))
    reference = dataclasses.dataclass(frozen=True)(
        type("Twin", (), dict(namespace)))
    return record, reference


values = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none(),
                   st.tuples(st.integers(0, 2), st.integers(0, 2)))


class TestAgainstFrozenDataclasses:
    def test_the_package_defines_its_value_classes_as_records(self):
        names = {cls.__qualname__ for cls in all_records()}
        assert {"FinSetObj", "FinSetMap", "Relation", "RelPolynomial",
                "Polynomial", "FinCat", "Profunctor", "ModPolynomial",
                "Document", "CheckReport"} <= names
        assert len(names) == 37

    @pytest.mark.parametrize("cls", all_records(),
                             ids=lambda c: c.__qualname__)
    def test_fields_are_the_annotations_in_order(self, cls):
        assert cls._fields == tuple(cls.__annotations__)
        assert len(cls._fields) >= 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_same_repr_equality_and_hash(self, n, data):
        fields = tuple(f"f{i}" for i in range(n))
        record, reference = twins(fields)
        a = data.draw(st.lists(values, min_size=n, max_size=n))
        b = data.draw(st.one_of(st.just(list(a)),
                                st.lists(values, min_size=n, max_size=n)))
        ra, rb = record(*a), record(*b)
        da, db = reference(*a), reference(*b)
        assert repr(ra) == repr(da)
        assert (ra == rb) == (da == db)
        assert (ra != rb) == (da != db)
        assert hash(ra) == hash(da)
        assert ra != da and da != ra
        assert record(**dict(zip(fields, a))) == ra

    def test_defaults_come_from_class_attributes(self):
        record, reference = twins(("size", "labels"), {"labels": None})
        assert record(3) == record(3, None)
        assert repr(record(3)) == repr(reference(3))
        assert FinSetObj(3) == FinSetObj(3, None)
        assert repr(FinSetObj(3)) == "FinSetObj(size=3, labels=None)"
        assert hash(FinSetObj(3)) == hash((3, None))

    def test_wrong_arity_is_a_type_error(self):
        record, _ = twins(("a", "b"))
        with pytest.raises(TypeError):
            record(1)
        with pytest.raises(TypeError):
            record(1, 2, 3)
        with pytest.raises(TypeError):
            record(1, c=2)

    def test_fields_cannot_be_assigned_or_deleted(self):
        x = FinSetObj(2)
        with pytest.raises(AttributeError, match="cannot assign"):
            x.size = 3
        with pytest.raises(AttributeError, match="cannot assign"):
            x.other = 3
        with pytest.raises(AttributeError, match="cannot delete"):
            del x.size
        assert x.size == 2

    def test_post_init_validates_and_cached_properties_still_work(self):
        with pytest.raises(InvariantViolation) as e:
            FinSetObj(-1)
        assert e.value.clause == "object-size"
        f = FinSetMap(FinSetObj(3), FinSetObj(2), (1, 0, 1))
        assert f.fiber(1) == (0, 2)
        # the cached fiber index is not a field
        assert f == FinSetMap(FinSetObj(3), FinSetObj(2), (1, 0, 1))
        assert hash(f) == hash((f.dom, f.cod, f.table))
