"""What the seeded suites pay for: each comparison is built once per case,
and a case's data is rendered only when the case fails."""

import json

import pytest

from polyspan import checks, finset, polyset, spans
from polyspan.documents import _CODECS


def compact(kind, payload):
    return json.dumps(_CODECS[kind][1](payload), sort_keys=True,
                      separators=(",", ":"))


def test_composite_parts_is_built_at_most_twice_per_case(monkeypatch):
    """Once by ``compose_poly``, the function under test, and once for the
    comparison's plan; not once per family and family map."""
    real = polyset.composite_parts
    calls = []

    def spy(q, p):
        calls.append((q, p))
        return real(q, p)
    monkeypatch.setattr(polyset, "composite_parts", spy)
    monkeypatch.setattr(checks, "composite_parts", spy)
    report = checks.run_suite("extension-oracle", seed=0, count=3)
    assert report.ok and report.count == 3
    assert 3 <= len(calls) <= 2 * 3


@pytest.mark.unchecked_trust
def test_the_comparison_reads_the_squares_of_its_composite(monkeypatch):
    """Each case pulls back three squares per composite, one composite for
    ``compose_poly`` and one for the comparison's plan, which reads the
    distributivity pullback's inner index and the square of the
    composite's E instead of pulling them back again: 1 200 pullbacks at
    seed 0, not 1 600."""
    real = finset.pullback
    calls = []

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)
    for module in (finset, spans, polyset, checks):
        if hasattr(module, "pullback"):
            monkeypatch.setattr(module, "pullback", spy)
    report = checks.run_suite("extension-oracle", seed=0)
    assert report.ok and report.count == 200
    assert len(calls) == 6 * 200


def test_a_non_bijective_comparison_is_reported_with_its_case(monkeypatch):
    """The first comparison the suite makes (case 0, first family) gets
    an extra entry: the report names that case, the two polynomials and
    the family, and nothing else fails."""
    real = checks.composite_bijection
    seen = []

    def broken(q, p):
        compare = real(q, p)

        def first_one_broken(a, ext_p):
            table = compare(a, ext_p)
            seen.append((p, q, a))
            return table + [len(table)] if len(seen) == 1 else table
        return first_one_broken
    monkeypatch.setattr(checks, "composite_bijection", broken)
    report = checks.run_suite("extension-oracle", seed=0, count=2)
    p, q, a = seen[0]
    assert report.failures == (
        f"case 0: comparison map is not a fiberwise bijection; "
        f"p={compact('polynomial', p)} q={compact('polynomial', q)} "
        f"family={compact('family', a)}",)


SEEDED = ("extension-oracle", "distributivity-terminality", "rel-kleisli",
          "grothendieck-roundtrip", "comprehensive-factorization",
          "groupoid-criterion", "mod-h-pseudofunctor", "rel-h-formula",
          "discrete-reduction")


@pytest.mark.parametrize("suite", SEEDED)
def test_passing_cases_render_nothing(monkeypatch, suite):
    def forbidden(kind, payload):
        raise AssertionError(f"rendered a {kind} for a passing case")
    monkeypatch.setattr(checks, "_compact", forbidden)
    report = checks.run_suite(suite, seed=0, count=3)
    assert report.ok and report.count == 3
