"""Exact finitely-supported probability distributions over hashable values.

A distribution keeps its weights in a dict, so building one hashes every
value in it.  A point mass from ``dirac`` keeps its one value instead and
hashes it only when a lookup needs the dict: ``prob``, ``in``, ``==``,
``support`` and ``repr``.  ``items()``, ``len()`` and iteration read the
value as it is, so a point mass that is only unpacked, as a reduction step
or a primitive's result mostly is, never hashes its value.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from fractions import Fraction
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
    """

    __slots__ = ("_weights",)

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
        self._weights = acc

    def items(self) -> list[tuple[T, Fraction]]:
        return list(self._weights.items())

    def support(self) -> set[T]:
        return set(self._weights)

    def prob(self, value: T) -> Fraction:
        return self._weights.get(value, ZERO)

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[T]:
        return iter(self._weights)

    def __contains__(self, value: T) -> bool:
        return value in self._weights

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinDist) and self._weights == other._weights

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {w}" for v, w in self._weights.items())
        return "FinDist({" + inner + "})"


class _PointMass(FinDist[T]):
    """``dirac``'s point mass: its one value, with weight 1.  The weight dict
    that ``FinDist``'s lookups read is built on each lookup; the methods
    that only unpack the distribution do without it."""

    __slots__ = ("_value",)

    def __init__(self, value: T):
        self._value = value

    @property
    def _weights(self) -> dict[T, Fraction]:  # type: ignore[override]
        return {self._value: ONE}

    def items(self) -> list[tuple[T, Fraction]]:
        return [(self._value, ONE)]

    def __len__(self) -> int:
        return 1

    def __iter__(self) -> Iterator[T]:
        return iter((self._value,))


def dirac(value: T) -> FinDist[T]:
    """Point mass at ``value``.  Its one weight is 1 by construction, so it
    is stored without ``FinDist``'s merge and mass check, and the value is
    not hashed until a lookup needs it."""
    return _PointMass(value)


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
