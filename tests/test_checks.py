"""What the seeded suites pay for: each comparison is built once per case,
and a case's data is rendered only when the case fails."""

import json

import pytest

from polyspan import checks, finset, polyset, spans
from polyspan.documents import _CODECS


def compact(kind, payload):
    return json.dumps(_CODECS[kind][1](payload), sort_keys=True,
                      separators=(",", ":"))


def test_composite_parts_is_built_once_per_case(monkeypatch):
    """One ``composite_parts`` per case gives both the composite under
    test, ``compose_poly``'s own value, and the comparison's plan, which
    is not rebuilt per family and family map: the composite is counted
    once per case, not once for the suite and again for the plan."""
    calls = {"composite_parts": [], "compose_poly": []}

    def spy(name):
        real = getattr(polyset, name)

        def counted(q, p):
            calls[name].append((q, p))
            return real(q, p)
        return counted
    for name in calls:
        counted = spy(name)
        for module in (polyset, checks):
            monkeypatch.setattr(module, name, counted)
    report = checks.run_suite("extension-oracle", seed=0, count=10)
    assert report.ok and report.count == 10
    assert calls["composite_parts"] == calls["compose_poly"]
    assert len(calls["compose_poly"]) == 10


@pytest.mark.unchecked_trust
def test_the_comparison_reads_the_squares_of_its_composite(monkeypatch):
    """Each case pulls back the three squares of the comparison's plan,
    which reads the distributivity pullback's inner index and the square
    of the composite's E instead of pulling them back again, and
    ``compose_poly`` pulls back none: 600 pullbacks at seed 0."""
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
    assert len(calls) == 3 * 200


def test_a_non_bijective_comparison_is_reported_with_its_case(monkeypatch):
    """The first comparison the suite makes (case 0, first family) gets
    an extra entry: the report names that case, the two polynomials and
    the family, and nothing else fails."""
    real = checks.composite_bijection
    seen = []

    def broken(q, p, parts):
        compare = real(q, p, parts)

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


def test_a_comparison_that_crosses_fibers_is_reported(monkeypatch):
    """The first comparison that can swap two elements of different
    fibers does: it stays a bijection, so only the fiber half of the test
    sees it, and the report names that case and nothing else."""
    real = checks.composite_bijection
    cases, crossed = [], []

    def crossing(q, p, parts):
        compare = real(q, p, parts)
        cases.append((q, p))

        def swapped(a, ext_p):
            table = compare(a, ext_p)
            if crossed:
                return table
            over = polyset.extension_eval(q, ext_p).proj.table
            for j in range(1, len(table)):
                if over[table[j]] != over[table[0]]:
                    crossed.append((len(cases) - 1, p, q, a))
                    table = table[:]
                    table[0], table[j] = table[j], table[0]
                    break
            return table
        return swapped
    monkeypatch.setattr(checks, "composite_bijection", crossing)
    report = checks.run_suite("extension-oracle", seed=0, count=20)
    i, p, q, a = crossed[0]
    assert report.failures == (
        f"case {i}: comparison map is not a fiberwise bijection; "
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
