"""Fixtures shared by the test modules."""

import pytest

from polyspan import checks, modpoly


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
