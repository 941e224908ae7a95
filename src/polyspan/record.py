"""Immutable value classes, without the ``dataclasses`` module.

A subclass of ``Record`` declares its fields as class annotations, in
order, and gets what ``dataclass(frozen=True)`` generates for them: a
constructor taking the fields (a class attribute of the same name is the
default) that calls ``__post_init__`` when the class defines one,
equality and hashing on the tuple of fields, a ``Name(field=value, ...)``
repr, and fields that cannot be assigned or deleted.

Importing ``dataclasses`` also imports ``inspect`` with its own imports,
which took most of the start-up time of a command line call.  The three
hot methods are compiled per class from one small template, as
``dataclasses`` does, so that construction, comparison and attribute
reads cost what they cost with a dataclass.
"""

from __future__ import annotations

_TEMPLATE = """\
def __init__(self, {params}):
{sets}{post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented

def __hash__(self):
    return hash(({mine},))
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        source = _TEMPLATE.format(
            params=", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f
                             for f in fields),
            sets="".join(f"    _set(self, {f!r}, {f})\n" for f in fields),
            post=("    self.__post_init__()\n"
                  if "__post_init__" in cls.__dict__ else ""),
            mine=", ".join(f"self.{f}" for f in fields),
            theirs=", ".join(f"other.{f}" for f in fields))
        namespace: dict = {}
        exec(source, {"_set": object.__setattr__, "_defaults": defaults},
             namespace)
        for name, fn in namespace.items():
            fn.__module__ = cls.__module__
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls._fields = fields

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
