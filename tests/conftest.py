"""Fixtures shared by the test modules."""

import pytest

from polyspan import checks, modpoly
from polyspan.record import Record


def records_with_checks():
    """Every record class that checks its values at construction."""
    out, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "__post_init__" in cls.__dict__:
            out.append(cls)
    return out


@pytest.fixture(autouse=True)
def trusted_values_are_checked(request, monkeypatch):
    """The library builds the values whose laws hold by construction with
    ``_trusted``, which skips ``__post_init__``.  While a test runs, every
    such value runs its full ``__post_init__`` after all, so the test suite
    checks each of them.  A test marked ``unchecked_trust`` opts out."""
    if request.node.get_closest_marker("unchecked_trust"):
        return
    for cls in records_with_checks():
        def checked(cls, *args, _build=cls._trusted, **kwargs):
            value = _build(*args, **kwargs)
            value.__post_init__()
            return value
        monkeypatch.setattr(cls, "_trusted", classmethod(checked))


@pytest.fixture
def witnessed_composites(monkeypatch):
    """Every composite of module polynomials built while the test runs
    must hold what its construction guarantees (``checks.witnessed_parts``:
    the square with the graph modules and the tabulation's fibers).  The
    test must build at least one; the list of their parts is yielded."""
    built = []

    def spy(q, p):
        parts, wrong = checks.witnessed_parts(q, p)
        built.append(parts)
        assert not wrong, wrong
        return parts
    monkeypatch.setattr(modpoly, "polymod_parts", spy)
    yield built
    assert built
