"""Immutable values that compute their hash once.

The checker keys dictionaries on deep immutable structure: configurations,
terms, memo-tables and canonical classes.  A generated dataclass
``__hash__`` walks the whole structure on every call; a ``HashOnce``
value walks it on the first call and keeps the result, so a
value built from already-hashed parts costs one level (the cached hash of
hash-consing, after Filliâtre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006, without the sharing table).  A canonical
class of ``denot`` is a named tuple, not a ``HashOnce``: its hash is a
tuple's, over a world and a value that keep theirs.  Nor is an
environment, ``opsem.FrozenMap``: a read-only dict that keeps its hash in
a slot of its own.

Sharing is kept only where it is bounded by construction, for the values
the operational semantics computes most: booleans.  ``opsem`` holds the
two boolean values and the two returned boolean literals a step puts in
place of a redex, each in an immutable tuple built at import.  A table
of every value built would grow with every call and outlive it, so there
is none.

A kept hash, like every other per-object cache (a term's size and free
variables), is read with a default, so a first read costs no raised and
caught ``AttributeError``.
"""

from __future__ import annotations

from operator import attrgetter


class HashOnce:
    """Base of an immutable value that keeps its hash in a slot after the
    first ``hash()``.

    A subclass is either a frozen dataclass with ``slots=True``, whose hash
    covers its fields in declaration order (the ones its generated
    ``__eq__`` compares), or a class that sets ``_hash_key`` to a getter of
    what it hashes.  Equality is the subclass's own and stays structural.
    A copy made through the constructor (``dataclasses.replace``) starts
    without a hash.  A hash is never None, so None in the slot's place
    means it is not taken yet.

    The hash of the parts is taken in this method's own frame, so hashing a
    tree takes one Python frame per level, as a generated ``__hash__`` does.
    """

    __slots__ = ("_hash",)

    _hash_key = staticmethod(lambda value: ())  # a class without fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # set before @dataclass runs, which then keeps it as an explicit
        # __hash__ instead of generating one
        cls.__hash__ = HashOnce.__hash__
        fields = cls.__dict__.get("__annotations__")
        if fields:
            cls._hash_key = attrgetter(*fields)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._hash_key(self))
            object.__setattr__(self, "_hash", h)
        return h
