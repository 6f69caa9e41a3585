"""Exact finitely-supported probability distributions over hashable values.

A distribution keeps its (value, weight) pairs, and the dict of its
weights that lookups read.  The general constructor merges duplicate
values, so it builds that dict at once and hashes every value.  A point
mass from ``dirac`` and a coin from ``two_point`` are built from pairs
known to be distinct, so they skip the merge, and their dict is built on
the first lookup: ``prob``, ``in``, ``==``, ``support`` and ``repr``.
``items()``, ``len()`` and iteration read the pairs as they are, so a
reduction step or a primitive's result that is only unpacked, as it
mostly is, never hashes its values.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from fractions import Fraction
from operator import itemgetter
from typing import Generic, TypeVar

T = TypeVar("T", bound=Hashable)
U = TypeVar("U", bound=Hashable)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class MassError(ValueError):
    """A weight is negative or the total mass differs from 1."""


def as_prob(value) -> Fraction:
    """Coerce to an exact Fraction and require it to lie in [0, 1]."""
    p = value if isinstance(value, Fraction) else Fraction(value)
    # on the integer parts: a Fraction's denominator is always positive
    if p.numerator < 0 or p.numerator > p.denominator:
        raise ValueError(f"probability out of range [0, 1]: {p}")
    return p


def _total(weights: Iterable[Fraction]) -> Fraction:
    """Exact sum of the weights.  The first is taken as it is: adding it to
    0 costs a Fraction addition, and most sums here have one term."""
    weights = iter(weights)
    total = next(weights, ZERO)
    for w in weights:
        total += w
    return total


class FinDist(Generic[T]):
    """Finite map from values to positive exact weights summing to 1.

    Zero weights are dropped and duplicate keys merged on construction, so
    two distributions are equal iff they have identical support and weights.
    A distribution keeps its (value, weight) pairs and builds the dict of
    its weights once, on the first lookup; the merge builds it at once.
    """

    __slots__ = ("_pairs", "_dict")

    def __init__(self, weights: Mapping[T, Fraction] | Iterable[tuple[T, Fraction]]):
        pairs = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[T, Fraction] = {}
        for value, weight in pairs:
            w = weight if isinstance(weight, Fraction) else Fraction(weight)
            if w.numerator < 0:
                raise MassError(f"negative weight {w} for {value!r}")
            if not w:
                continue
            prev = acc.get(value)
            acc[value] = w if prev is None else prev + w
        total = _total(acc.values())
        if total.numerator != total.denominator:  # a lowest-terms 1 is 1/1
            raise MassError(f"total mass {total} != 1")
        self._pairs = acc.items()
        self._dict = acc

    def __reduce__(self):
        # a copy or a pickle is rebuilt through the constructor from a list
        # of the pairs: a merged distribution keeps them as a dict view,
        # which cannot be pickled
        return FinDist, (list(self._pairs),)

    def _weights(self) -> dict[T, Fraction]:
        if self._dict is None:
            self._dict = dict(self._pairs)
        return self._dict

    def items(self) -> list[tuple[T, Fraction]]:
        return list(self._pairs)

    def support(self) -> set[T]:
        return set(self._weights())

    def prob(self, value: T) -> Fraction:
        return self._weights().get(value, ZERO)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[T]:
        return map(itemgetter(0), self._pairs)

    def __contains__(self, value: T) -> bool:
        return value in self._weights()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinDist) and self._weights() == other._weights()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {w}" for v, w in self._weights().items())
        return "FinDist({" + inner + "})"


def _unmerged(pairs: tuple[tuple[T, Fraction], ...]) -> FinDist[T]:
    """A distribution of ``pairs``, distinct values with positive weights
    that sum to 1, taken as they are: nothing is merged, summed or hashed."""
    dist = object.__new__(FinDist)
    dist._pairs = pairs
    dist._dict = None
    return dist


def dirac(value: T) -> FinDist[T]:
    """Point mass at ``value``.  Its one weight is 1 by construction, so it
    is stored without ``FinDist``'s merge and mass check, and the value is
    not hashed until a lookup needs it."""
    return _unmerged(((value, ONE),))


def two_point(first: T, second: T, p) -> FinDist[T]:
    """``first`` with weight ``p`` and ``second`` with 1 − p: the
    distribution ``FinDist([(first, p), (second, 1 - p)])`` gives, for two
    values that are not equal, which the caller guarantees.  A weight
    outside [0, 1] raises the ``MassError`` that ``FinDist`` raises, and a
    weight of 0 or 1 gives the point mass at the other value or at
    ``first``.  The values are not hashed, merged or summed."""
    p = p if isinstance(p, Fraction) else Fraction(p)
    if p.numerator < 0:
        raise MassError(f"negative weight {p} for {first!r}")
    q = ONE - p
    if q.numerator < 0:
        raise MassError(f"negative weight {q} for {second!r}")
    if not q:
        return dirac(first)
    if not p:
        return dirac(second)
    return _unmerged(((first, p), (second, q)))


def mixed(
    branches: Iterable[tuple[Fraction, Iterable[tuple[T, Fraction]]]]
) -> list[tuple[T, Fraction]]:
    """The weighted items of a convex combination, not yet merged: each
    branch's (value, weight) pairs scaled by the branch weight.  Branch
    weights must be non-negative and sum to 1.  A factor that is the ``ONE``
    object is not multiplied."""
    weights = []
    pairs: list[tuple[T, Fraction]] = []
    for weight, items in branches:
        w = weight if isinstance(weight, Fraction) else Fraction(weight)
        if w.numerator < 0:
            raise MassError(f"negative branch weight {w}")
        weights.append(w)
        if w is ONE:
            pairs += items
        else:
            pairs += [(value, w if q is ONE else w * q) for value, q in items]
    total = _total(weights)
    if total.numerator != total.denominator:
        raise MassError(f"branch weights sum to {total} != 1")
    return pairs


def weighted_mix(branches: Iterable[tuple[Fraction, FinDist[T]]]) -> FinDist[T]:
    """Convex combination of distributions; branch weights must sum to 1."""
    return FinDist(mixed((weight, dist.items()) for weight, dist in branches))


def map_dist(dist: FinDist[T], fn: Callable[[T], U]) -> FinDist[U]:
    """Pushforward along ``fn``, merging keys that collide."""
    return FinDist([(fn(value), w) for value, w in dist.items()])


def dist_eq(a: FinDist[T], b: FinDist[T]) -> bool:
    """Exact equality: same support, identical rational weights."""
    return a == b
