"""Immutable value classes, without the ``dataclasses`` module.

A subclass of ``Record`` declares its fields as class annotations, in
order, and gets what ``dataclass(frozen=True)`` generates for them: a
constructor taking the fields (a class attribute of the same name is the
default) that calls ``__post_init__`` when the class defines one,
equality and hashing on the tuple of fields, a ``Name(field=value, ...)``
repr, and fields that cannot be assigned or deleted.  ``Cls._trusted``
is the constructor without ``__post_init__``, for values that hold their
laws by construction; the tests re-check every value it builds.

Importing ``dataclasses`` also imports ``inspect`` with its own imports,
which took most of the start-up time of a command line call.  The three
hot methods are compiled per class from one small template, as
``dataclasses`` does.  Most values the library builds are tiny, so what
a value costs is mostly what these methods cost, not its tables.  The
constructors write every field into one dict and install it as the
instance ``__dict__`` with a single ``object.__setattr__`` call, where a
frozen dataclass makes one call per field.  The dict is built whole on
purpose: filling ``self.__dict__`` key by key costs less still, but on
CPython 3.11 it leaves a dict sharing its class's keys, whose attribute
reads are not specialized and take about twice as long, and the library
reads its fields far more often than it builds them.  Equality answers
at once for one value compared with itself.  ``_trusted`` holds its
class instead of taking it as a classmethod does.  The generated code's
own names (the instance, the allocator, the setter and the class) are
chosen apart from the fields, so a field may have any name.

``cached_property`` is ``functools.cached_property`` without its lock:
on Python 3.11 that one takes a class-wide lock on every first access,
and the fiber, hom and lift indexes are first read on every fresh value.
Values are immutable and built by one thread, so two threads racing on a
first access would only compute the same index twice.
"""

from __future__ import annotations

_TEMPLATE = """\
def __init__({self}, {params}):
    {put}({self}, "__dict__", {{{items}}})
{post}
def _trusted({params}):
    {self} = {new}({cls})
    {put}({self}, "__dict__", {{{items}}})
    return {self}

def __eq__(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented

def __hash__(self):
    return hash(({mine},))
"""


def _fresh(name: str, fields: tuple[str, ...]) -> str:
    """``name``, with underscores appended until no field has it."""
    while name in fields:
        name += "_"
    return name


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        self, put = _fresh("self", fields), _fresh("_put", fields)
        new, own = _fresh("_new", fields), _fresh("_cls", fields)
        source = _TEMPLATE.format(
            self=self, put=put, new=new, cls=own,
            params=", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f
                             for f in fields),
            items=", ".join(f"{f!r}: {f}" for f in fields),
            post=(f"    {self}.__post_init__()\n"
                  if "__post_init__" in cls.__dict__ else ""),
            mine=", ".join(f"self.{f}" for f in fields),
            theirs=", ".join(f"other.{f}" for f in fields))
        namespace: dict = {}
        exec(source, {"_defaults": defaults, put: object.__setattr__,
                      new: object.__new__, own: cls}, namespace)
        for name, fn in namespace.items():
            fn.__module__ = cls.__module__
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, staticmethod(fn) if name == "_trusted" else fn)
        cls._fields = fields

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class cached_property:
    """A method computed on first access and then read from the instance
    ``__dict__``, like ``functools.cached_property`` but without a lock.
    The value is not a field: equality and hashing do not see it."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
