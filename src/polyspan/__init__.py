"""Polynomials as spans: composition and evaluation of polynomial
functors over finite sets, relations, and finite categories, with the
span calculus, right liftings, and fibration machinery underneath.

Importing the package loads none of its layers.  Each exported name is
looked up in its loaded module on every access (PEP 562), so a program
pays only for the layers it touches (imported on first access), and a
name rebound in its module is what the package returns."""

from importlib import import_module as _import
from sys import modules as _modules

# Each layer module with the names it exports through the package.
_EXPORTS = {
    "errors": ("InvariantViolation", "MultipleMediatorsError",
               "NoMediatorError"),
    "finset": ("FinSetMap", "FinSetObj", "Subset", "compose", "identity"),
    "spans": ("PBAround", "Span", "SpanCell", "compose_spans",
              "distributivity_pullback", "graph", "identity_span", "is_map",
              "mediate_pb_around", "pullback", "reverse_span",
              "triangle_identities_hold"),
    "polyset": ("FamilyMap", "IndexedFamily", "PolyMorphism", "Polynomial",
                "are_isomorphic_poly", "compose_poly", "extension_eval",
                "extension_on_map", "hK_span", "identity_poly"),
    "relpoly": ("PartialMapToPower", "Relation", "RelPolynomial",
                "compose_polyrel", "from_partial_map", "hK_rel",
                "identity_polyrel", "kleisli_compose", "rel", "rel_compose",
                "rel_rif", "to_partial_map"),
    "fincat": ("FinCat", "Functor", "NatTrans", "Presheaf",
               "comprehensive_factorization", "constant_presheaf",
               "discrete_cat", "elements", "fibers", "is_discrete_fibration",
               "is_final", "is_groupoid_fibration", "opposite_cat",
               "product_cat", "representable", "terminal_cat"),
    "modpoly": ("ModPolynomial", "ProfMorphism", "Profunctor",
                "compose_polymod", "graph_module", "hK_mod",
                "identity_module", "identity_polymod", "prof_compose",
                "prof_iso", "rif_mod", "tabulate_mod"),
    "documents": ("Document", "ParseError", "document", "parse", "serialize"),
    "checks": ("CheckReport", "SUITES", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        module = f"{__name__}.{_HOME[name]}"
        return getattr(_modules.get(module) or _import(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
