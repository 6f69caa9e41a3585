"""Immutable values that compute their hash once.

The checker keys dictionaries on deep immutable structure: configurations,
terms, memo-tables and canonical classes.  A hash over the fields walks
the whole structure on every call; a ``HashOnce`` value walks it on the
first call and keeps the result, so a value built from already-hashed
parts costs one level (the cached hash of hash-consing, after Filliâtre
and Conchon, "Type-safe modular hash-consing", ML Workshop 2006, without
the sharing table).  A canonical class of ``denot`` is a named tuple, not
a ``HashOnce``: its hash is a tuple's, over a world and a value that keep
theirs.  Nor is an environment, ``opsem.FrozenMap``: a read-only dict that
keeps its hash in a slot of its own.

Sharing is kept only where it is bounded by construction, for the values
the operational semantics computes most: booleans.  ``opsem`` holds the
two boolean values and the two returned boolean literals a step puts in
place of a redex, each in an immutable tuple built at import.  A table
of every value built would grow with every call and outlive it, so there
is none.

A kept hash, like every other per-object cache (a term's size and free
variables), is read with a default, so a first read costs no raised and
caught ``AttributeError``.

A node class is written out by hand: its ``__slots__`` are its fields,
``_fields`` names them in order, and its ``__init__`` stores each one
through ``set_field``.  Building the class generates no code, so an
import of the package pays for its class bodies and no more.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field of a new node past HashOnce.__setattr__, which refuses
set_field = object.__setattr__


class HashOnce:
    """Base of an immutable value that keeps its hash in a slot after the
    first ``hash()``.

    A subclass either names its fields in ``_fields`` or sets ``_hash_key``
    to a getter of what it hashes.  From ``_fields`` this class gives it a
    hash over the fields in order, structural equality with values of the
    same class, the ``repr`` ``Name(field=value, ...)``, fields that cannot
    be set or deleted, and copies and pickles rebuilt through the
    constructor, so a copy starts without a kept hash (a string's hash
    differs between processes).  A hash is never None, so None in the
    slot's place means it is not taken yet.

    The hash of the parts is taken in this method's own frame, so hashing a
    tree takes one Python frame per level.
    """

    __slots__ = ("_hash",)

    _fields: tuple[str, ...] = ()
    _hash_key = staticmethod(lambda value: ())  # a class without fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields:
            cls._hash_key = attrgetter(*fields)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._hash_key(self))
            set_field(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            key = self._hash_key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])
