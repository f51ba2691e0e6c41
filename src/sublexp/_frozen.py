"""Immutable value types without dataclass code generation.

``@frozen`` stands in for ``@dataclass(frozen=True)`` on every value type
of the package.  ``dataclass`` writes the source of each method it adds and
``exec``-compiles it.  Every CLI subcommand is a new process, so that was
paid per report: for the 27 value types, 28-33 ms of ``import sublexp.cli``
on a 2-vCPU KVM guest under CPython 3.11, more than most subcommands
compute.  ``frozen`` lets ``dataclass(init=False, repr=False, eq=False)``
record the fields, so ``dataclasses.fields``, ``replace`` and ``asdict``
work as before, and attaches ``__init__``, ``__eq__``, ``__hash__``,
``__repr__``, ``__setattr__`` and ``__delattr__`` built as closures over
the field names, with no generated source: 3.1-3.3 ms for the 27 types on
the same host, 2.2 ms of it in ``dataclass``.

They behave as the frozen dataclass's methods do:

* ``__init__`` takes the fields positionally or by keyword, fills defaults,
  raises ``TypeError`` for a missing, surplus or unknown argument, and
  calls ``__post_init__``; ``dataclasses.replace`` therefore validates
  again.  Fields are set with ``object.__setattr__``,
  not through ``__dict__``: on CPython 3.11 a materialized ``__dict__``
  makes every later attribute read about four times slower.
* ``__eq__`` compares the field tuples of two instances of the same class,
  and ``__hash__`` is the hash of that tuple.  The hash is computed once
  and cached on the instance, which immutability makes safe; pickling
  drops the cache, because str hashes differ between processes.
* Assigning or deleting any attribute raises ``FrozenInstanceError``.

``@frozen(identity=True)`` is for the types that hold numpy arrays (a
compiled graph, dense layers, a row context): an instance equals itself
alone and hashes by identity, as a plain object does.  The
field tuples would compare arrays elementwise, so ``==`` would raise
instead of answering, and ``hash`` would fail on the arrays.

A field takes a plain default and no other option, not even a default
factory: every default of the package is an immutable value, so one
instance serves every construction.

The closures are slower per call than generated code, which binds named
parameters and reads attributes with specialized bytecode.  Measured on
the same host, a construction costs 0.05-0.15 us more (0.3-0.8 us when it
takes keywords or defaults), and ``==`` between distinct equal values
0.1-0.9 us more.  A value compared with itself returns at once, and a
repeated hash is one attribute read, about 0.09 us against 0.2-0.8 us to
hash the field tuple of a law, a set or a model again.  In a run of the
Rosenthal battery, grouping the 243 checks by model (243 hashes, 99
comparisons) takes 0.26 ms instead of 0.86 ms, against about 0.3 ms more
for the run's roughly 1,000 constructions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter

_set = object.__setattr__
#: The instance attribute that caches the hash; the class holds its None default.
_HASH = "_frozen_hash"


def _setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self: object) -> dict:
    """The instance state without the cached hash."""
    return {k: v for k, v in vars(self).items() if k != _HASH}


def frozen(cls: type | None = None, *, identity: bool = False):
    """``cls`` as an immutable value type over the fields of its annotations.

    With ``identity``, equality and hashing are those of the instance, not
    of its fields; called with only that keyword, returns the decorator.
    """
    if cls is None:
        return lambda cls: frozen(cls, identity=identity)
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    fields = dataclasses.fields(cls)
    if any(not (f.init and f.repr and f.compare) or f.hash is not None or f.kw_only is True
           or f.default_factory is not MISSING for f in fields):
        raise TypeError(f"{cls.__qualname__}: a frozen field takes only a default")
    names = tuple(f.name for f in fields)
    n = len(names)
    numbered = tuple(enumerate(names))
    index = {name: i for i, name in numbered}
    # an absent argument takes its default; without one, its Field stands in
    fill = tuple(f if f.default is MISSING else f.default for f in fields)
    unfilled = tuple(i for i, f in enumerate(fill) if f is fields[i])
    plain = max(unfilled, default=-1) + 1  # every field from here on has a plain default
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def bind(args: tuple, kwargs: dict) -> list:
        """The n field values of a call that is not n positional arguments."""
        given = len(args)
        if not kwargs and plain <= given < n:
            return args + fill[given:]
        if given > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} arguments but {given} were given")
        values = [*args, *fill[given:]]
        for name, value in kwargs.items():
            i = index.get(name, -1)
            if i < given:
                problem = "an unexpected keyword" if i < 0 else "multiple values for"
                raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
            values[i] = value
        for i in unfilled:
            if i >= given and values[i] is fill[i]:
                raise TypeError(f"{cls.__qualname__}() missing required argument {names[i]!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, name in numbered:
            _set(self, name, args[i])
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if self is other:
            return True
        if identity or other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        if identity:
            return object.__hash__(self)
        h = self._frozen_hash
        if h is None:
            h = hash(key(self))
            _set(self, _HASH, h)
        return h

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    for fn in (__init__, __eq__, __hash__, __repr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__setattr__, cls.__delattr__, cls.__getstate__ = _setattr, _delattr, _getstate
    setattr(cls, _HASH, None)
    return cls
