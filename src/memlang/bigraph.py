"""Memo-tables as finite bipartite graphs.

Left nodes stand for memoized functions, right nodes for atoms, and each
(left, right) pair carries an edge value: True, False, or None for
not-yet-sampled.  A ``TotalBigraph`` has no None entries: total graphs are
the worlds of the compositional evaluator, while evaluation states carry
partial graphs.  A total graph may also hold ``Pending`` edges: an
independent coin the compositional evaluator has not drawn yet.  All
values are immutable; updates return new graphs.  Every graph derived
from another goes through one of two methods: ``extended`` adds nodes and
sets edges (the node additions, ``set_edge``, ``denot``'s class worlds
and ``transport``), and ``completed`` fills each unsampled edge to give a
world (``completions`` and ``denot``'s configuration phase).  Both build
on their receiver's already-checked edges and check only what they add:
that the added pairs are exactly the new ones and, in a total graph, that
none of them is unsampled.  Each copies the edge map once.  The one other
derivation, ``renumbered_slice``, cuts out the part of a memo-table an
observation reaches and renumbers it in one pass.  Each graph keeps its
edges sorted for its hash, and ``edge_items`` hands out that tuple.  A
graph's ``repr`` names its type, so a world shows as ``TotalBigraph``.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .hashonce import HashOnce, set_field


class Pending(HashOnce):
    """An edge not drawn yet: true with probability ``chance``, independently
    of every other edge.  Its truth value is unknown, so it has none."""

    __slots__ = _fields = ("chance",)

    def __init__(self, chance: Fraction):
        set_field(self, "chance", chance)

    def __bool__(self) -> bool:
        raise TypeError("a pending edge has no truth value until it is drawn")


EdgeVal = Optional[Union[bool, Pending]]

DEFAULT_MAX_UNDEF = 20


class EdgeAlreadyDefined(Exception):
    def __init__(self, fun: int, atom: int):
        super().__init__(f"edge ({fun}, {atom}) is already defined")
        self.pair = (fun, atom)


class TooManyUndefined(Exception):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} undefined edges exceed the limit {limit} (MEMLANG_MAX_UNDEF)")
        self.count = count
        self.limit = limit


class InvalidLimit(ValueError):
    """``MEMLANG_MAX_UNDEF`` is not a non-negative integer."""


def check_undefined_budget(count: int) -> None:
    """Allow a 2^count expansion over ``count`` undefined edges only within
    ``MEMLANG_MAX_UNDEF``; raise ``TooManyUndefined`` beyond it."""
    raw = os.environ.get("MEMLANG_MAX_UNDEF", str(DEFAULT_MAX_UNDEF))
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise InvalidLimit(f"MEMLANG_MAX_UNDEF must be a non-negative integer, got {raw!r}")
    if count > limit:
        raise TooManyUndefined(count, limit)


class PartialBigraph(HashOnce):
    __slots__ = ("_left", "_right", "_edges", "_key")
    _hash_key = attrgetter("_key")
    # a graph keeps its own equality, repr and pickle, and stores its slots
    # once, in _set
    __hash__ = HashOnce.__hash__
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        left: Iterable[int] = (),
        right: Iterable[int] = (),
        edges: Mapping[tuple[int, int], EdgeVal] | None = None,
    ):
        left, right = frozenset(left), frozenset(right)
        edges = dict(edges or {})
        domain = {(f, a) for f in left for a in right}
        if set(edges) != domain:
            raise ValueError("edge map must be defined on exactly left x right")
        self._set(left, right, edges)

    def _set(self, left: frozenset[int], right: frozenset[int], edges: dict) -> None:
        """Take the given (already checked) nodes and edge map as this
        graph's own."""
        self._left = left
        self._right = right
        self._edges = edges
        self._key = (tuple(sorted(left)), tuple(sorted(right)), tuple(sorted(edges.items())))

    @property
    def left(self) -> frozenset[int]:
        return self._left

    @property
    def right(self) -> frozenset[int]:
        return self._right

    def edge(self, fun: int, atom: int) -> EdgeVal:
        return self._edges[(fun, atom)]

    def edge_items(self) -> tuple[tuple[tuple[int, int], EdgeVal], ...]:
        """Every (pair, value), sorted by pair: the edges the hash is
        taken over."""
        return self._key[2]

    def undefined_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p, v in self._edges.items() if v is None)

    def _fresh_label(self, side: frozenset[int]) -> int:
        return max(side) + 1 if side else 0

    def extended(
        self,
        funs: Iterable[int],
        atoms: Iterable[int],
        edges: Mapping[tuple[int, int], EdgeVal],
        *,
        partial: bool = False,
    ) -> "PartialBigraph":
        """This graph with the nodes ``funs`` and ``atoms`` added and
        ``edges`` set: a ``PartialBigraph`` if ``partial``, else of this
        graph's type.  ``edges`` must assign every pair that touches a new
        node, and may overwrite pairs of this graph.  This graph's own pairs
        are not checked again: only ``edges`` is, for keys that are not
        pairs of the nodes, for a missing new pair (by the count of the
        merged map) and, on a total graph, for an unsampled edge."""
        left, right = self._left.union(funs), self._right.union(atoms)
        kind = PartialBigraph if partial else type(self)
        merged = dict(self._edges)
        merged.update(edges)
        try:
            outside = [(f, a) for f, a in edges if f not in left or a not in right]
        except TypeError:  # a key that is not a pair
            outside = [None]
        if outside or len(merged) != len(left) * len(right):
            raise ValueError("edge map must be defined on exactly left x right")
        if kind is TotalBigraph and any(v is None for v in edges.values()):
            raise ValueError("total bigraph cannot contain undefined edges")
        graph = kind.__new__(kind)
        graph._set(left, right, merged)
        return graph

    def completed(self, fill: Callable[[tuple[int, int]], bool | Pending]) -> "TotalBigraph":
        """The world that takes ``fill(pair)`` for each unsampled edge of this
        graph; a fill that leaves one unsampled raises ``ValueError``.  Only
        the filled edges are checked."""
        edges = dict(self._edges)
        for pair, v in self._edges.items():
            if v is None:
                edges[pair] = v = fill(pair)
                if v is None:
                    raise ValueError("total bigraph cannot contain undefined edges")
        graph = TotalBigraph.__new__(TotalBigraph)
        graph._set(self._left, self._right, edges)
        return graph

    def add_left_undef(self) -> tuple["PartialBigraph", int]:
        """New function node with a not-yet-sampled edge to every atom."""
        fun = self._fresh_label(self._left)
        return self.extended([fun], (), dict.fromkeys((fun, a) for a in self._right), partial=True), fun

    def add_right_undef(self) -> tuple["PartialBigraph", int]:
        """New atom node with a not-yet-sampled edge from every function."""
        atom = self._fresh_label(self._right)
        return self.extended((), [atom], dict.fromkeys((f, atom) for f in self._left), partial=True), atom

    def set_edge(self, fun: int, atom: int, value: bool) -> "PartialBigraph":
        if self._edges[(fun, atom)] is not None:
            raise EdgeAlreadyDefined(fun, atom)
        return self.extended((), (), {(fun, atom): bool(value)})

    def completions(self) -> list[tuple["TotalBigraph", dict[tuple[int, int], bool]]]:
        """All total extensions, in binary-counting order over the sorted
        undefined pairs (False before True).  The checker does not expand
        these: ``denot`` splits a configuration only on the edges it reads.
        ``membench/tracing.py`` wraps this method by name."""
        undef = sorted(self.undefined_pairs())
        check_undefined_budget(len(undef))
        assigns = [dict(zip(undef, bits)) for bits in itertools.product((False, True), repeat=len(undef))]
        return [(self.completed(assign.__getitem__), assign) for assign in assigns]

    def to_json(self) -> dict:
        names = {True: "true", False: "false", None: "undef"}
        return {
            "left": sorted(self._left),
            "right": sorted(self._right),
            "edges": [[f, a, names[v]] for (f, a), v in self.edge_items()],
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialBigraph) and self._key == other._key

    def __reduce__(self):
        return type(self), (self._left, self._right, self._edges)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={sorted(self._left)}, right={sorted(self._right)}, edges={list(self.edge_items())})"


def _defined(value) -> bool | Pending:
    return value if isinstance(value, Pending) else bool(value)


class TotalBigraph(PartialBigraph):
    """A memo-table with every edge sampled or pending: a world of the
    compositional evaluator.  It keeps nothing beyond its nodes and edges."""

    __slots__ = ()

    def __init__(self, left=(), right=(), edges=None):
        super().__init__(left, right, edges)
        if any(v is None for v in self._edges.values()):
            raise ValueError("total bigraph cannot contain undefined edges")

    def add_left_defined(self, row: Mapping[int, bool | Pending]) -> tuple["TotalBigraph", int]:
        """New function node with its edge to each atom given by ``row``,
        which must assign exactly the atoms."""
        fun = self._fresh_label(self._left)
        return self.extended([fun], (), {(fun, a): _defined(v) for a, v in row.items()}), fun

    def add_right_defined(self, column: Mapping[int, bool | Pending]) -> tuple["TotalBigraph", int]:
        """New atom node with its edge from each function given by
        ``column``, which must assign exactly the functions."""
        atom = self._fresh_label(self._right)
        return self.extended((), [atom], {(f, atom): _defined(v) for f, v in column.items()}), atom


def empty() -> PartialBigraph:
    return PartialBigraph()


class Embedding(HashOnce):
    """Injective, edge-preserving map between graphs.

    Edge values (including undefined ones) must agree: the target never
    adds or removes information on pairs coming from the source.
    """

    __slots__ = _fields = ("source", "target", "left_map", "right_map")

    def __init__(
        self,
        source: PartialBigraph,
        target: PartialBigraph,
        left_map: tuple[tuple[int, int], ...],
        right_map: tuple[tuple[int, int], ...],
    ):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "left_map", left_map)
        set_field(self, "right_map", right_map)

    @staticmethod
    def make(source, target, left_map: Mapping[int, int], right_map: Mapping[int, int]) -> "Embedding":
        emb = Embedding(source, target, tuple(sorted(left_map.items())), tuple(sorted(right_map.items())))
        emb.validate()
        return emb

    @staticmethod
    def inclusion(source: PartialBigraph, target: PartialBigraph) -> "Embedding":
        return Embedding.make(
            source, target,
            {f: f for f in source.left},
            {a: a for a in source.right},
        )

    def lmap(self) -> dict[int, int]:
        return dict(self.left_map)

    def rmap(self) -> dict[int, int]:
        return dict(self.right_map)

    def validate(self) -> None:
        lm, rm = self.lmap(), self.rmap()
        if set(lm) != set(self.source.left) or set(rm) != set(self.source.right):
            raise ValueError("embedding must be defined on exactly the source nodes")
        if len(set(lm.values())) != len(lm) or len(set(rm.values())) != len(rm):
            raise ValueError("embedding must be injective")
        if not set(lm.values()) <= set(self.target.left) or not set(rm.values()) <= set(self.target.right):
            raise ValueError("embedding must land in the target nodes")
        for f in self.source.left:
            for a in self.source.right:
                if self.source.edge(f, a) != self.target.edge(lm[f], rm[a]):
                    raise ValueError(f"embedding does not preserve edge ({f}, {a})")


def smallest_free(count: int, used: Iterable[int]) -> list[int]:
    """The smallest ``count`` naturals outside ``used``, ascending."""
    used = set(used)
    out: list[int] = []
    candidate = 0
    while len(out) < count:
        if candidate not in used:
            out.append(candidate)
        candidate += 1
    return out


def renumbered_slice(
    graph: PartialBigraph, order_left: Sequence[int], order_right: Sequence[int]
) -> tuple[PartialBigraph, dict[int, int], dict[int, int]]:
    """The subgraph on the listed nodes, each side renumbered 0, 1, ... in
    the listed order.  Returns it with the per-side label maps, defined on
    the listed nodes.  An order must not repeat a node and must name only
    nodes of the graph."""
    lmap = {f: i for i, f in enumerate(order_left)}
    rmap = {a: i for i, a in enumerate(order_right)}
    if len(lmap) != len(order_left) or len(rmap) != len(order_right):
        raise ValueError("an order must not repeat a node")
    if not graph.left.issuperset(lmap) or not graph.right.issuperset(rmap):
        raise ValueError("an order must name only nodes of the graph")
    edges = {(i, j): graph.edge(f, a) for f, i in lmap.items() for a, j in rmap.items()}
    return PartialBigraph(lmap.values(), rmap.values(), edges), lmap, rmap
