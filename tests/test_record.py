"""Record classes behave as the frozen dataclasses they replaced: the
``dataclasses`` module itself is the reference."""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# importing every layer registers every record class
import polyspan.checks  # noqa: F401
from polyspan.errors import InvariantViolation
from polyspan.finset import FinSetMap, FinSetObj
from polyspan.record import Record, cached_property


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


@functools.cache
def twins_of_size(n):
    """The twins with fields f0 .. f(n-1), built once per field count."""
    return twins(tuple(f"f{i}" for i in range(n)))


values = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none(),
                   st.tuples(st.integers(0, 2), st.integers(0, 2)))


class TestAgainstFrozenDataclasses:
    def test_the_package_defines_its_value_classes_as_records(self):
        names = {cls.__qualname__ for cls in all_records()}
        assert {"FinSetObj", "FinSetMap", "Relation", "RelPolynomial",
                "Polynomial", "FinCat", "Profunctor", "ModPolynomial",
                "Document", "CheckReport"} <= names
        assert len(names) == 35

    @pytest.mark.parametrize("cls", all_records(),
                             ids=lambda c: c.__qualname__)
    def test_fields_are_the_annotations_in_order(self, cls):
        assert cls._fields == tuple(cls.__annotations__)
        assert len(cls._fields) >= 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_same_repr_equality_and_hash(self, n, data):
        fields = tuple(f"f{i}" for i in range(n))
        record, reference = twins_of_size(n)
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

    def test_a_value_equals_itself_at_once(self):
        record, reference = twins_of_size(2)
        x, twin = record(float("nan"), [1]), reference(float("nan"), [1])
        assert x.__eq__(x) is True and not x != x
        assert (x == x) == (twin == twin)
        assert x.__eq__(twin) is NotImplemented


# Every name the generated methods use of their own, and the names those
# would be renamed to, as fields: the generated code must not mistake a
# field for one of them.
OWN_NAMES = ("d", "_d", "_set", "_put", "_put_", "_new", "_new_", "_cls",
             "_cls_", "self", "self_", "cls", "other", "object", "hash",
             "_defaults")


class TestFieldsNamedAsTheGeneratedCode:
    @pytest.mark.parametrize("with_default", [False, True])
    def test_construct_compare_hash_and_repr_like_the_dataclass(
            self, with_default):
        defaults = {"_defaults": "dflt"} if with_default else {}
        record, reference = twins(OWN_NAMES, defaults)
        given_ = OWN_NAMES[:-1] if with_default else OWN_NAMES
        values = [f"v{i}" for i in range(len(given_))]
        ra, da = record(*values), reference(*values)
        assert repr(ra) == repr(da)
        assert hash(ra) == hash(da)
        assert ra == record(**dict(zip(given_, values)))
        assert ra == record._trusted(*values)
        assert ra != record(*values[:-1], "other")
        for name in OWN_NAMES:
            assert getattr(ra, name) == getattr(da, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            ra.d = 1

    def test_post_init_sees_the_fields(self):
        seen = []

        class Named(Record):
            self: object
            _d: object
            cls: object

            def __post_init__(inner):
                seen.append((inner.self, inner._d, inner.cls))
        Named(1, 2, 3)
        assert seen == [(1, 2, 3)]
        Named._trusted(4, 5, 6)
        assert seen == [(1, 2, 3)]


class Counted(Record):
    a: int
    b: int

    @cached_property
    def total(self) -> int:
        """The sum, counted per computation."""
        COMPUTED.append(self)
        return self.a + self.b


COMPUTED: list = []


class TestCachedProperty:
    def test_computed_once_per_instance(self):
        COMPUTED.clear()
        x, y = Counted(1, 2), Counted(1, 2)
        assert x.total == x.total == 3 and y.total == 3
        assert COMPUTED == [x, y] and COMPUTED[0] is x
        assert x.__dict__["total"] == 3

    def test_not_a_field(self):
        x, y = Counted(1, 2), Counted(1, 2)
        assert x.total == 3
        assert x == y and hash(x) == hash(y) == hash((1, 2))
        assert repr(x) == "Counted(a=1, b=2)"
        assert Counted._fields == ("a", "b")

    def test_class_access_returns_the_descriptor(self):
        assert isinstance(Counted.total, cached_property)
        assert Counted.total.__doc__ == "The sum, counted per computation."


def test_no_module_uses_the_locking_cached_property():
    """``functools.cached_property`` takes a lock per first access on
    Python 3.11; the package uses ``record.cached_property``."""
    src = Path(polyspan.checks.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, a.name) for a in node.names
                          if a.name == "cached_property"]
            elif (isinstance(node, ast.Attribute)
                  and node.attr == "cached_property"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                found.append((path.name, "functools.cached_property"))
    assert found == []
