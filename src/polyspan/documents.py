"""Reading and writing the document format used by the command line
tools: one JSON object per file carrying a version field, a kind tag,
and a payload whose shape depends on the kind.

Serialization is canonical (sorted keys, two-space indent, one trailing
newline), so equal documents always produce identical bytes and
``parse`` then ``serialize`` reproduces any canonical file exactly.
Malformed text raises ParseError with a line and column when the JSON
layer can supply one; well-formed payloads that break a structural law
raise InvariantViolation naming the violated clause.
"""

from __future__ import annotations

import json
from importlib import import_module
from typing import TYPE_CHECKING

from .finset import FinSetMap, FinSetObj, Subset
from .record import Record

# The layer of a kind is imported by its decoder, or by _check_payload,
# on first use: reading a rel-polynomial never loads the categories.
if TYPE_CHECKING:
    from .fincat import FinCat, Functor
    from .modpoly import ModPolynomial, Profunctor
    from .polyset import IndexedFamily, Polynomial
    from .relpoly import Relation, RelPolynomial
    from .spans import Span

VERSION = "1"


class ParseError(Exception):
    """A document that could not be read: bad JSON, a missing or extra
    field, or a value of the wrong shape."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}, column {col})" if line is not None else ""
        super().__init__(message + where)


class Document(Record):
    """A versioned, kind-tagged payload: what one document file holds."""

    version: str
    kind: str
    payload: object


def _expect_keys(d: object, keys: set[str], ctx: str) -> dict:
    if not isinstance(d, dict):
        raise ParseError(f"{ctx}: expected an object")
    missing = keys - d.keys()
    if missing:
        raise ParseError(f"{ctx}: missing field {min(missing)!r}")
    extra = d.keys() - keys
    if extra:
        raise ParseError(f"{ctx}: unknown field {min(extra)!r}")
    return d


# JSON numbers arrive as int or float and true/false as bool, so
# ``type(x) is int`` accepts exactly the integers; whole lists are
# checked at once, by the set of their element types and their minimum.

def _nat(v: object, ctx: str) -> int:
    if type(v) is not int or v < 0:
        raise ParseError(f"{ctx}: expected a nonnegative integer")
    return v


def _int_list(v: list, low: int) -> bool:
    """Whether every entry of v is an int of at least ``low``."""
    return not v or {*map(type, v)} == {int} and min(v) >= low


def _ints(v: object, ctx: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        raise ParseError(f"{ctx}: expected a list of integers")
    if not _int_list(v, 0):
        raise ParseError(f"{ctx}: expected a nonnegative integer")
    return tuple(v)


def _comp_row(v: object, ctx: str) -> tuple[int, ...]:
    # composition tables hold -1 at non-composable pairs
    if not isinstance(v, list) or not _int_list(v, -1):
        raise ParseError(f"{ctx}: expected a list of integers >= -1")
    return tuple(v)


def _rows(v: object, ctx: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{ctx}: expected a list")
    return v


# -- finite sets and maps ---------------------------------------------------

def _enc_map(f: FinSetMap) -> dict:
    return {"dom": f.dom.size, "cod": f.cod.size, "table": list(f.table)}


def _dec_map(d: object, ctx: str) -> FinSetMap:
    d = _expect_keys(d, {"dom", "cod", "table"}, ctx)
    return FinSetMap(FinSetObj(_nat(d["dom"], ctx)),
                     FinSetObj(_nat(d["cod"], ctx)),
                     _ints(d["table"], ctx))


def _enc_span(s: Span) -> dict:
    return {"left_foot": s.left_foot.size, "right_foot": s.right_foot.size,
            "apex": s.apex.size, "left_leg": list(s.left_leg.table),
            "right_leg": list(s.right_leg.table)}


def _dec_span(d: object, ctx: str) -> Span:
    from .spans import Span
    d = _expect_keys(d, {"left_foot", "right_foot", "apex", "left_leg",
                         "right_leg"}, ctx)
    left = FinSetObj(_nat(d["left_foot"], ctx))
    right = FinSetObj(_nat(d["right_foot"], ctx))
    apex = FinSetObj(_nat(d["apex"], ctx))
    return Span(left, right, apex,
                FinSetMap(apex, left, _ints(d["left_leg"], ctx)),
                FinSetMap(apex, right, _ints(d["right_leg"], ctx)))


def _enc_poly(p: Polynomial) -> dict:
    return {"x": p.X.size, "e": p.E.size, "s": p.S.size, "y": p.Y.size,
            "m1": list(p.m1.table), "m2": list(p.m2.table),
            "p": list(p.p.table)}


def _dec_poly(d: object, ctx: str) -> Polynomial:
    from .polyset import Polynomial
    d = _expect_keys(d, {"x", "e", "s", "y", "m1", "m2", "p"}, ctx)
    x = FinSetObj(_nat(d["x"], ctx))
    e = FinSetObj(_nat(d["e"], ctx))
    s = FinSetObj(_nat(d["s"], ctx))
    y = FinSetObj(_nat(d["y"], ctx))
    return Polynomial(x, e, s, y,
                      FinSetMap(e, x, _ints(d["m1"], ctx)),
                      FinSetMap(e, s, _ints(d["m2"], ctx)),
                      FinSetMap(s, y, _ints(d["p"], ctx)))


def _enc_family(a: IndexedFamily) -> dict:
    return {"base": a.base.size, "total": a.total.size,
            "proj": list(a.proj.table)}


def _dec_family(d: object, ctx: str) -> IndexedFamily:
    from .polyset import IndexedFamily
    d = _expect_keys(d, {"base", "total", "proj"}, ctx)
    base = FinSetObj(_nat(d["base"], ctx))
    total = FinSetObj(_nat(d["total"], ctx))
    return IndexedFamily(base, total,
                         FinSetMap(total, base, _ints(d["proj"], ctx)))


# -- relations --------------------------------------------------------------

def _pairs(v: object, ctx: str) -> tuple[tuple[int, int], ...]:
    out = []
    for row in _rows(v, ctx):
        pair = _ints(row, ctx)
        if len(pair) != 2:
            raise ParseError(f"{ctx}: expected pairs of integers")
        out.append((pair[0], pair[1]))
    return tuple(out)


def _enc_rel(r: Relation) -> dict:
    return {"src": r.src.size, "tgt": r.tgt.size,
            "pairs": [list(p) for p in r.pairs]}


def _dec_rel(d: object, ctx: str) -> Relation:
    from .relpoly import Relation
    d = _expect_keys(d, {"src", "tgt", "pairs"}, ctx)
    return Relation(FinSetObj(_nat(d["src"], ctx)),
                    FinSetObj(_nat(d["tgt"], ctx)),
                    _pairs(d["pairs"], ctx))


def _enc_relpoly(p: RelPolynomial) -> dict:
    return {"x": p.X.size, "c": p.C.size, "neat": list(p.Z.members),
            "lifter": [list(q) for q in p.A.pairs]}


def _dec_relpoly(d: object, ctx: str) -> RelPolynomial:
    from .relpoly import Relation, RelPolynomial
    d = _expect_keys(d, {"x", "c", "neat", "lifter"}, ctx)
    x = FinSetObj(_nat(d["x"], ctx))
    c = FinSetObj(_nat(d["c"], ctx))
    z = Subset(c, _ints(d["neat"], ctx))
    return RelPolynomial(x, c, z,
                         Relation(x, z.as_object(),
                                  _pairs(d["lifter"], ctx)))


# -- finite categories ------------------------------------------------------

def _enc_cat(c: FinCat) -> dict:
    return {"objects": c.objects.size, "morphisms": c.morphisms.size,
            "src": list(c.src.table), "tgt": list(c.tgt.table),
            "ident": list(c.ident.table),
            "comp": [list(row) for row in c.comp]}


def _dec_cat(d: object, ctx: str) -> FinCat:
    from .fincat import FinCat
    d = _expect_keys(d, {"objects", "morphisms", "src", "tgt", "ident",
                         "comp"}, ctx)
    o = FinSetObj(_nat(d["objects"], ctx))
    m = FinSetObj(_nat(d["morphisms"], ctx))
    comp = tuple(_comp_row(row, ctx) for row in _rows(d["comp"], ctx))
    return FinCat(o, m,
                  FinSetMap(m, o, _ints(d["src"], ctx)),
                  FinSetMap(m, o, _ints(d["tgt"], ctx)),
                  FinSetMap(o, m, _ints(d["ident"], ctx)), comp)


def _enc_functor_tables(f: Functor) -> dict:
    return {"omap": list(f.omap), "mmap": list(f.mmap)}


def _dec_functor_tables(d: object, dom: FinCat, cod: FinCat,
                        ctx: str) -> Functor:
    from .fincat import Functor
    d = _expect_keys(d, {"omap", "mmap"}, ctx)
    return Functor(dom, cod, _ints(d["omap"], ctx), _ints(d["mmap"], ctx))


def _enc_functor(f: Functor) -> dict:
    return {"dom": _enc_cat(f.dom), "cod": _enc_cat(f.cod),
            **_enc_functor_tables(f)}


def _dec_functor(d: object, ctx: str) -> Functor:
    d = _expect_keys(d, {"dom", "cod", "omap", "mmap"}, ctx)
    dom = _dec_cat(d["dom"], ctx + ".dom")
    cod = _dec_cat(d["cod"], ctx + ".cod")
    return _dec_functor_tables({"omap": d["omap"], "mmap": d["mmap"]},
                               dom, cod, ctx)


# -- profunctors ------------------------------------------------------------

def _enc_prof_tables(m: Profunctor) -> dict:
    return {"at": [[m.at[b][a].size for a in m.src.objs]
                   for b in m.tgt.objs],
            "lact": [[list(m.lact[beta][a].table) for a in m.src.objs]
                     for beta in m.tgt.mors],
            "ract": [[list(m.ract[alpha][b].table) for b in m.tgt.objs]
                     for alpha in m.src.mors]}


def _dec_prof_tables(d: object, src: FinCat, tgt: FinCat,
                     ctx: str) -> Profunctor:
    from .modpoly import Profunctor
    d = _expect_keys(d, {"at", "lact", "ract"}, ctx)
    at_rows = [_ints(row, ctx) for row in _rows(d["at"], ctx)]
    if len(at_rows) != tgt.objects.size or any(
            len(row) != src.objects.size for row in at_rows):
        raise ParseError(f"{ctx}: value table must be indexed by "
                         "target then source objects")
    at = tuple(tuple(FinSetObj(n) for n in row) for row in at_rows)
    lact_rows = _rows(d["lact"], ctx)
    ract_rows = _rows(d["ract"], ctx)
    if len(lact_rows) != tgt.morphisms.size:
        raise ParseError(f"{ctx}: one lact row per target morphism required")
    if len(ract_rows) != src.morphisms.size:
        raise ParseError(f"{ctx}: one ract row per source morphism required")
    lact = []
    for beta, row in enumerate(lact_rows):
        row = _rows(row, ctx)
        if len(row) != src.objects.size:
            raise ParseError(f"{ctx}: lact row {beta} has wrong length")
        lact.append(tuple(
            FinSetMap(at[tgt.tgt(beta)][a], at[tgt.src(beta)][a],
                      _ints(row[a], ctx))
            for a in src.objs))
    ract = []
    for alpha, row in enumerate(ract_rows):
        row = _rows(row, ctx)
        if len(row) != tgt.objects.size:
            raise ParseError(f"{ctx}: ract row {alpha} has wrong length")
        ract.append(tuple(
            FinSetMap(at[b][src.src(alpha)], at[b][src.tgt(alpha)],
                      _ints(row[b], ctx))
            for b in tgt.objs))
    return Profunctor(src, tgt, at, tuple(lact), tuple(ract))


def _enc_prof(m: Profunctor) -> dict:
    return {"src": _enc_cat(m.src), "tgt": _enc_cat(m.tgt),
            **_enc_prof_tables(m)}


def _dec_prof(d: object, ctx: str) -> Profunctor:
    d = _expect_keys(d, {"src", "tgt", "at", "lact", "ract"}, ctx)
    src = _dec_cat(d["src"], ctx + ".src")
    tgt = _dec_cat(d["tgt"], ctx + ".tgt")
    return _dec_prof_tables({"at": d["at"], "lact": d["lact"],
                             "ract": d["ract"]}, src, tgt, ctx)


def _enc_modpoly(p: ModPolynomial) -> dict:
    return {"x": _enc_cat(p.X), "y": _enc_cat(p.Y), "s": _enc_cat(p.S),
            "m": _enc_prof_tables(p.m), "p": _enc_functor_tables(p.p)}


def _dec_modpoly(d: object, ctx: str) -> ModPolynomial:
    from .modpoly import ModPolynomial
    d = _expect_keys(d, {"x", "y", "s", "m", "p"}, ctx)
    x = _dec_cat(d["x"], ctx + ".x")
    y = _dec_cat(d["y"], ctx + ".y")
    s = _dec_cat(d["s"], ctx + ".s")
    m = _dec_prof_tables(d["m"], s, x, ctx + ".m")
    p = _dec_functor_tables(d["p"], s, y, ctx + ".p")
    return ModPolynomial(x, y, s, m, p)


# Each document kind with its (payload type as "module.Class", encoder,
# decoder).
_CODECS = {
    "finset-map": ("finset.FinSetMap", _enc_map, _dec_map),
    "span": ("spans.Span", _enc_span, _dec_span),
    "polynomial": ("polyset.Polynomial", _enc_poly, _dec_poly),
    "relation": ("relpoly.Relation", _enc_rel, _dec_rel),
    "rel-polynomial": ("relpoly.RelPolynomial", _enc_relpoly, _dec_relpoly),
    "fincat": ("fincat.FinCat", _enc_cat, _dec_cat),
    "functor": ("fincat.Functor", _enc_functor, _dec_functor),
    "profunctor": ("modpoly.Profunctor", _enc_prof, _dec_prof),
    "mod-polynomial": ("modpoly.ModPolynomial", _enc_modpoly, _dec_modpoly),
    "family": ("polyset.IndexedFamily", _enc_family, _dec_family),
}

KINDS = tuple(_CODECS)


def _check_payload(kind: str, payload: object) -> None:
    if kind not in _CODECS:
        raise ParseError(f"unknown document kind {kind!r}")
    module, _, name = _CODECS[kind][0].partition(".")
    if not isinstance(payload,
                      getattr(import_module(f".{module}", __package__), name)):
        raise ParseError(f"payload is not a {kind}")


def document(kind: str, payload: object) -> Document:
    """Wrap an in-memory value as a current-version document."""
    _check_payload(kind, payload)
    return Document(VERSION, kind, payload)


def parse(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    data = _expect_keys(data, {"version", "kind", "payload"}, "document")
    version = data["version"]
    if version != VERSION:
        raise ParseError(f"unsupported version {version!r}")
    kind = data["kind"]
    if kind not in _CODECS:
        raise ParseError(f"unknown document kind {kind!r}")
    _, _, decode = _CODECS[kind]
    payload = decode(data["payload"], kind)
    return Document(VERSION, kind, payload)


# The C encoder formats the scalars that are not ints; keys are strings,
# which it quotes with this function.
_scalar = json.JSONEncoder(sort_keys=True).encode
_quote = json.encoder.encode_basestring_ascii


def _canonical(v: object, pad: str) -> str:
    """``json.dumps(v, sort_keys=True, indent=2)`` for a value of a
    document body (string keys) that starts on a line indented by
    ``pad``.  A list of ints is one join, each int on its own line."""
    if type(v) is int:
        return str(v)
    if type(v) is list and v:
        inner = pad + "  "
        sep = ",\n" + inner
        if {*map(type, v)} == {int}:
            items = sep.join(map(str, v))
        else:
            items = sep.join([_canonical(x, inner) for x in v])
        return f"[\n{inner}{items}\n{pad}]"
    if type(v) is dict and v:
        inner = pad + "  "
        items = (",\n" + inner).join(
            [f"{_quote(k)}: {_canonical(v[k], inner)}" for k in sorted(v)])
        return f"{{\n{inner}{items}\n{pad}}}"
    return _scalar(v)


def serialize(doc: Document) -> str:
    if doc.version != VERSION:
        raise ParseError(f"unsupported version {doc.version!r}")
    _check_payload(doc.kind, doc.payload)
    body = {"version": doc.version, "kind": doc.kind,
            "payload": _CODECS[doc.kind][1](doc.payload)}
    return _canonical(body, "") + "\n"
