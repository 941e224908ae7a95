"""Reading and writing the document format used by the command line
tools: one JSON object per file carrying a version field, a kind tag,
and a payload whose shape depends on the kind.

Serialization is canonical (sorted keys, two-space indent, one trailing
newline), so equal documents always produce identical bytes and
``parse`` then ``serialize`` reproduces any canonical file exactly.
The encoders hand over the values' own tables (tuples, written as
lists): a map's table is joined from cached decimal strings, any other
table of scalars is one call to json's C encoder.  Bad JSON raises
ParseError with a line and column when json gives one; well-formed
payloads that break a structural law raise InvariantViolation.

Each fact of a document is checked once, and each table is accepted in
one pass: the ordered loops run only to name a failure, so the first
error keeps its clause and text.  Categories are hash-consed: a table
equal to one checked before parses to that same ``FinCat``, unchecked,
with its cached indices (held up to a bound on their entries, which caps
the memory input can pin); a new one is typed in one pass, so only
``FinCat`` checks its laws.  A module holds its document's value
table of sizes and one int table per action, typed against the sizes
as they are read, so its check runs only its law equations.
"""

from __future__ import annotations

import json
from _thread import allocate_lock
from importlib import import_module
from itertools import chain
from json.encoder import c_make_encoder
from typing import TYPE_CHECKING

from .finset import FinSetMap, FinSetObj, Subset, _check_table
from .record import Record

# The classes a decoder builds are globals of this module, bound by
# _bind when parse first meets a kind of their layer: reading a
# rel-polynomial never loads the categories.
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
    if d.keys() == keys:
        return d
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


def _int_tables(tables: list, low: int) -> bool:
    """Whether every entry of tables is a list of ints of at least
    ``low``: the checks of many lists in one pass."""
    return ({*map(type, tables)} <= {list}
            and _int_list([*chain.from_iterable(tables)], low))


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

class _MapTable(tuple):  # a map's table (ints in range(cod))
    __slots__ = ()


def _obj(v: object, ctx: str) -> FinSetObj:
    return FinSetObj._trusted(_nat(v, ctx))


def _dec_table(v: object, dom: FinSetObj, cod: FinSetObj,
               ctx: str) -> FinSetMap:
    table = _ints(v, ctx)  # _check_table only names a failure
    if len(table) != dom.size or table and max(table) >= cod.size:
        _check_table(table, dom.size, cod.size)
    return FinSetMap._trusted(dom, cod, table)


def _enc_map(f: FinSetMap) -> dict:
    return {"dom": f.dom.size, "cod": f.cod.size, "table": _MapTable(f.table)}


def _dec_map(d: object, ctx: str) -> FinSetMap:
    d = _expect_keys(d, {"dom", "cod", "table"}, ctx)
    dom, cod = _obj(d["dom"], ctx), _obj(d["cod"], ctx)
    return _dec_table(d["table"], dom, cod, ctx)


def _enc_span(s: Span) -> dict:
    return {"left_foot": s.left_foot.size, "right_foot": s.right_foot.size,
            "apex": s.apex.size, "left_leg": _MapTable(s.left_leg.table),
            "right_leg": _MapTable(s.right_leg.table)}


def _dec_span(d: object, ctx: str) -> Span:
    d = _expect_keys(d, {"left_foot", "right_foot", "apex", "left_leg",
                         "right_leg"}, ctx)
    left, right = _obj(d["left_foot"], ctx), _obj(d["right_foot"], ctx)
    apex = _obj(d["apex"], ctx)
    return Span._trusted(left, right, apex,
                         _dec_table(d["left_leg"], apex, left, ctx),
                         _dec_table(d["right_leg"], apex, right, ctx))


def _enc_poly(p: Polynomial) -> dict:
    return {"x": p.X.size, "e": p.E.size, "s": p.S.size, "y": p.Y.size,
            "m1": _MapTable(p.m1.table), "m2": _MapTable(p.m2.table),
            "p": _MapTable(p.p.table)}


def _dec_poly(d: object, ctx: str) -> Polynomial:
    d = _expect_keys(d, {"x", "e", "s", "y", "m1", "m2", "p"}, ctx)
    x, e, s, y = (_obj(d[k], ctx) for k in "xesy")
    return Polynomial._trusted(x, e, s, y, _dec_table(d["m1"], e, x, ctx),
                               _dec_table(d["m2"], e, s, ctx),
                               _dec_table(d["p"], s, y, ctx))


def _enc_family(a: IndexedFamily) -> dict:
    return {"base": a.base.size, "total": a.total.size,
            "proj": _MapTable(a.proj.table)}


def _dec_family(d: object, ctx: str) -> IndexedFamily:
    d = _expect_keys(d, {"base", "total", "proj"}, ctx)
    base, total = _obj(d["base"], ctx), _obj(d["total"], ctx)
    return IndexedFamily._trusted(base, total,
                                  _dec_table(d["proj"], total, base, ctx))


# -- relations --------------------------------------------------------------

def _pairs(v: object, ctx: str) -> tuple[tuple[int, int], ...]:
    rows = _rows(v, ctx)
    if not (_int_tables(rows, 0) and {*map(len, rows)} <= {2}):
        # row by row, so that the error raised is the first in order
        for row in rows:
            if len(_ints(row, ctx)) != 2:
                raise ParseError(f"{ctx}: expected pairs of integers")
    return tuple(map(tuple, rows))


def _enc_rel(r: Relation) -> dict:
    return {"src": r.src.size, "tgt": r.tgt.size, "pairs": r.pairs}


def _dec_rel(d: object, ctx: str) -> Relation:
    d = _expect_keys(d, {"src", "tgt", "pairs"}, ctx)
    return Relation(_obj(d["src"], ctx), _obj(d["tgt"], ctx),
                    _pairs(d["pairs"], ctx))


def _enc_relpoly(p: RelPolynomial) -> dict:
    return {"x": p.X.size, "c": p.C.size, "neat": p.Z.members,
            "lifter": p.A.pairs}


def _dec_relpoly(d: object, ctx: str) -> RelPolynomial:
    d = _expect_keys(d, {"x", "c", "neat", "lifter"}, ctx)
    x, c = _obj(d["x"], ctx), _obj(d["c"], ctx)
    z = Subset(c, _ints(d["neat"], ctx))
    return RelPolynomial(x, c, z,
                         Relation(x, z.as_object(),
                                  _pairs(d["lifter"], ctx)))


# -- finite categories ------------------------------------------------------

def _enc_cat(c: FinCat) -> dict:
    return {"objects": c.objects.size, "morphisms": c.morphisms.size,
            "src": _MapTable(c.src.table), "tgt": _MapTable(c.tgt.table),
            "ident": _MapTable(c.ident.table), "comp": c.comp}


class _Interned(dict):  # checked categories by their keys, oldest first
    held = 0  # the table entries of the keys held
    lock = allocate_lock()  # two parses may store or evict at once


# Every category that passed its full check, by its int-typed tables (True
# == 1 and 1.0 == 1 hash alike), until evicted, oldest first, when the
# entries held (objects + 2 morphisms + morphisms**2 each) pass the bound,
# which caps the memory that parsed input can pin.
_CATS = _Interned()
_CATS_BOUND = 1 << 16  # up to about 6 MB, their indices built


def _dec_cat(d: object, ctx: str) -> FinCat:
    d = _expect_keys(d, {"objects", "morphisms", "src", "tgt", "ident",
                         "comp"}, ctx)
    o, m, src, tgt, ident, comp = (d["objects"], d["morphisms"], d["src"],
                                   d["tgt"], d["ident"], d["comp"])
    # One typing pass makes the key; ranges are read only on a miss, and
    # once they hold only FinCat can fail, as after the ordered typing.
    tables = [src, tgt, ident, *comp] if type(comp) is list else [comp]
    if (type(o) is type(m) is int and {*map(type, tables)} == {list}
            and {*map(type, chain.from_iterable(tables))} <= {int}
            and len(src) == len(tgt) == m and len(ident) == o):
        key = (o, m, tuple(src), tuple(tgt), tuple(ident),
               tuple(map(tuple, comp)))
        if (cat := _CATS.get(key)) is not None:
            return cat
        if (min(chain(src, tgt, ident), default=0) >= 0
                and min(chain.from_iterable(comp), default=0) >= -1
                and max(chain(src, tgt), default=-1) < o
                and max(ident, default=-1) < m):
            objects, morphisms = FinSetObj._trusted(o), FinSetObj._trusted(m)
            cat = FinCat(
                objects, morphisms,
                FinSetMap._trusted(morphisms, objects, key[2]),
                FinSetMap._trusted(morphisms, objects, key[3]),
                FinSetMap._trusted(objects, morphisms, key[4]), key[5])
            if (size := o + 2 * m + m * m) <= _CATS_BOUND:
                with _CATS.lock:
                    if _CATS.setdefault(key, cat) is cat:
                        _CATS.held += size
                    while _CATS.held > _CATS_BOUND:  # the oldest go first
                        del _CATS[old := next(iter(_CATS))]
                        _CATS.held -= old[0] + 2 * old[1] + old[1] ** 2
            return cat
    # one table at a time, as the maps and FinCat check them, so that the
    # error raised is the first in document order
    objects, morphisms = _obj(o, ctx), _obj(m, ctx)
    comp = tuple(_comp_row(row, ctx) for row in _rows(comp, ctx))
    return FinCat(objects, morphisms,
                  _dec_table(src, morphisms, objects, ctx),
                  _dec_table(tgt, morphisms, objects, ctx),
                  _dec_table(ident, objects, morphisms, ctx), comp)


def _enc_functor_tables(f: Functor) -> dict:
    return {"omap": f.omap, "mmap": f.mmap}


def _dec_functor_tables(d: object, dom: FinCat, cod: FinCat,
                        ctx: str) -> Functor:
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
    return {"at": m.at, "lact": m.lact, "ract": m.ract}


def _dec_action(rows: list, values: tuple, dom_end: tuple[int, ...],
                cod_end: tuple[int, ...], width: int, ctx: str,
                side: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One action table of a module: the map in row r, column i runs from
    ``values[dom_end[r]][i]`` elements to ``values[cod_end[r]][i]``.  Every
    leaf is checked in one pass; when that pass fails, the rows are read
    one by one, so that the first failure in row, then column order raises
    the clause and text a map of that leaf would."""
    leaves, doms, cods, typed = [], [], [], False
    for row, x, y in zip(rows, dom_end, cod_end):
        if type(row) is not list or len(row) != width:
            break
        leaves += row
        doms += values[x]
        cods += values[y]
    else:
        typed = (_int_tables(leaves, 0)
                 and all(len(t) == x and (not t or max(t) < y)
                         for t, x, y in zip(leaves, doms, cods)))
    if not typed:
        for r, row in enumerate(rows):
            if len(_rows(row, ctx)) != width:
                raise ParseError(f"{ctx}: {side} row {r} has wrong length")
            for t, x, y in zip(row, values[dom_end[r]], values[cod_end[r]]):
                _check_table(_ints(t, ctx), x, y)
    return tuple(tuple(map(tuple, row)) for row in rows)


def _dec_prof_tables(d: object, src: FinCat, tgt: FinCat,
                     ctx: str) -> Profunctor:
    d = _expect_keys(d, {"at", "lact", "ract"}, ctx)
    rows = _rows(d["at"], ctx)  # in one pass, or row by row to name a failure
    at = (tuple(map(tuple, rows)) if _int_tables(rows, 0)
          else tuple(_ints(row, ctx) for row in rows))
    na, nb = src.objects.size, tgt.objects.size
    if len(at) != nb or {*map(len, at)} - {na}:
        raise ParseError(f"{ctx}: value table must be indexed by "
                         "target then source objects")
    lact_rows = _rows(d["lact"], ctx)
    ract_rows = _rows(d["ract"], ctx)
    if len(lact_rows) != tgt.morphisms.size:
        raise ParseError(f"{ctx}: one lact row per target morphism required")
    if len(ract_rows) != src.morphisms.size:
        raise ParseError(f"{ctx}: one ract row per source morphism required")
    # lact[beta][a] restricts at[tgt beta][a] to at[src beta][a], and
    # ract[alpha][b] pushes at[b][src alpha] to at[b][tgt alpha]
    by_src = [*zip(*at)] or [()] * na
    lact = _dec_action(lact_rows, at, tgt.tgt.table, tgt.src.table, na,
                       ctx, "lact")
    ract = _dec_action(ract_rows, by_src, src.src.table, src.tgt.table, nb,
                       ctx, "ract")
    m = Profunctor._trusted(src, tgt, at, lact, ract)
    m._check_laws()
    return m


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

# The classes that the decoders of each payload layer build; the
# decoders of modules build their categories too.
_BUILDS = {
    "finset": (),
    "spans": ("spans.Span",),
    "polyset": ("polyset.IndexedFamily", "polyset.Polynomial"),
    "relpoly": ("relpoly.Relation", "relpoly.RelPolynomial"),
    "fincat": ("fincat.FinCat", "fincat.Functor"),
    "modpoly": ("fincat.FinCat", "fincat.Functor", "modpoly.Profunctor",
                "modpoly.ModPolynomial"),
}
# The payload class of each kind already bound.
_payload_types: dict[str, type] = {}


def _bind(kind: str) -> type:
    """Import the layers the decoder of kind builds from, bind the classes
    it builds as globals of this module, and return kind's payload
    class."""
    if kind not in _CODECS:
        raise ParseError(f"unknown document kind {kind!r}")
    layer, _, name = _CODECS[kind][0].partition(".")
    for path in _BUILDS[layer]:
        module, _, cls = path.partition(".")
        globals()[cls] = getattr(import_module(f".{module}", __package__),
                                 cls)
    cls = _payload_types[kind] = getattr(
        import_module(f".{layer}", __package__), name)
    return cls


def _check_payload(kind: str, payload: object) -> None:
    if not isinstance(payload, _payload_types.get(kind) or _bind(kind)):
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
    except (RecursionError, ValueError) as e:
        # nesting deeper than the stack, or an int literal longer than
        # int() converts
        raise ParseError(f"unreadable JSON: {e}") from None
    data = _expect_keys(data, {"version", "kind", "payload"}, "document")
    for key in ("version", "kind"):
        if not isinstance(data[key], str):
            raise ParseError(f"document: expected a string for {key!r}")
    version = data["version"]
    if version != VERSION:
        raise ParseError(f"unsupported version {version!r}")
    kind = data["kind"]
    if kind not in _payload_types:
        _bind(kind)
    payload = _CODECS[kind][2](data["payload"], kind)
    return Document(VERSION, kind, payload)


# The encoder formats the scalars that are not ints; keys are strings,
# which it quotes with this function.
_json = json.JSONEncoder(sort_keys=True)
_scalar = _json.encode
_quote = json.encoder.encode_basestring_ascii

# The C encoder of the lists that start on a line indented by a pad, one
# per pad, built the first time that pad is written.  It writes a list of
# scalars with the item separator of that indentation.
_lists: dict[str, object] = {}


# The format of one row of k ints on lines indented by a pad, and the
# separator between rows, one per (pad, k), built the first time it is used.
_row_formats: dict[tuple[str, int], tuple[str, str]] = {}


def _int_rows(v: list | tuple, pad: str) -> str | None:
    """The items of a list of two or more rows, each a list of the same
    nonzero number of ints, as ``_canonical`` writes them on lines indented
    by ``pad``: one format call for the whole list.  None for any other
    list, so that bools, floats and other values keep the general path,
    and a single row its one C encoder call."""
    k = len(v[0])
    if (not k or len(v) < 2 or type(v[0][0]) is not int
            or {*map(type, v)} - {list, tuple} or {*map(len, v)} != {k}):
        return None
    flat = tuple(chain.from_iterable(v))
    if {*map(type, flat)} != {int}:
        return None
    fmt = _row_formats.get((pad, k))
    if fmt is None:
        inner = pad + "  "
        fmt = _row_formats[pad, k] = (
            f"[\n{inner}" + f",\n{inner}".join(["%d"] * k) + f"\n{pad}]",
            f",\n{pad}")
    row, sep = fmt
    return sep.join([row] * len(v)) % flat


_digits: list[str] = []  # str(i) at each i below its length
_DIGITS_BOUND = 1 << 16  # the most strings _digits holds


def _map_items(table: _MapTable, sep: str) -> str | None:
    """The entries' texts in ``_digits`` (a bool's is its int's) joined by
    sep, growing it by at most one string an entry, or else None."""
    try:
        return sep.join(map(_digits.__getitem__, table))
    except TypeError:
        return None
    except IndexError:
        top, known = max(table), len(_digits)
    if not known <= top < min(_DIGITS_BOUND, known + len(table)):
        return None
    _digits[known:] = map(str, range(known, top + 1))
    return _map_items(table, sep)


def _canonical(v: object, pad: str) -> str:
    """``json.dumps(v, sort_keys=True, indent=2)`` for a value of a
    document body (string keys, tuples written as lists) that starts on a
    line indented by ``pad``.  A map table is one join (``_map_items``),
    a list of int rows (a relation's pairs) one format call (``_int_rows``)
    and a list whose first item is a scalar one call to the C encoder of
    its pad; when that text holds a container (a ``[`` past its start or a
    ``{``: a container later in the list, or a string holding a bracket),
    or json has no C encoder, the list is written item by item."""
    if type(v) is int:
        return str(v)
    if type(v) is list or type(v) is tuple or type(v) is _MapTable:
        if not v:
            return "[]"
        inner = pad + "  "
        if type(v) is _MapTable and (items := _map_items(v, ",\n" + inner)):
            return f"[\n{inner}{items}\n{pad}]"
        if type(v[0]) is list or type(v[0]) is tuple:
            rows = _int_rows(v, inner)
            if rows is not None:
                return f"[\n{inner}{rows}\n{pad}]"
        elif c_make_encoder is not None and type(v[0]) is not dict:
            encode = _lists.get(pad)
            if encode is None:
                encode = _lists[pad] = c_make_encoder(
                    None, _json.default, _quote, None, ": ", ",\n" + inner,
                    True, False, True)
            text = "".join(encode(v, 0))
            if text.find("[", 1) < 0 and "{" not in text:
                return f"[\n{inner}{text[1:-1]}\n{pad}]"
        items = (",\n" + inner).join([_canonical(x, inner) for x in v])
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
