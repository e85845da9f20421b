"""Finite posets presented by their cover relations.

Elements are the dense integers ``0..m-1``.  A poset is stored as the set
of cover pairs ``(child, parent)`` — the edges of its Hasse diagram,
oriented upward — together with per-element bitmasks of the full strict
order derived once at validation time.  The cover set is required to be the
transitive reduction of the order it generates: validation rejects cycles
(``CycleError``) and transitively implied pairs (``NotReducedError``).

Conventions
-----------
* ``above[a]`` has bit ``b`` set iff ``a < b``; ``below`` is the transpose.
* The *height* of a poset is the number of elements of its longest maximal
  chain (a single element has height 1).
* A poset is a *tree poset* when its Hasse diagram, viewed as an undirected
  graph, is a tree; it is *graded* when all maximal chains have equal size.
* Maximal chains are exactly the cover paths from a minimal element to a
  maximal element; they are enumerated in lexicographic order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from functools import cached_property
from collections.abc import Iterable

from .errors import CycleError, NotReducedError, NotTreeError


@dataclass(frozen=True)
class Poset:
    """An immutable poset over elements ``0..m-1``.

    Build instances through :func:`validate_poset`; the derived ``above``
    and ``below`` bitmasks are trusted by every consumer in this package.
    The order structure read from them (longest-chain depths, the Hasse
    graph and the tree flag) is derived once per instance, on first use.
    """

    m: int
    covers: frozenset[tuple[int, int]]
    above: tuple[int, ...] = field(compare=False, repr=False)
    below: tuple[int, ...] = field(compare=False, repr=False)

    def less(self, a: int, b: int) -> bool:
        """True iff a < b in the partial order."""
        return bool(self.above[a] >> b & 1)

    def comparable(self, a: int, b: int) -> bool:
        return a == b or self.less(a, b) or self.less(b, a)

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.m) if not self.below[e])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.m) if not self.above[e])

    def sorted_covers(self) -> list[tuple[int, int]]:
        return sorted(self.covers)

    @cached_property
    def hasse(self) -> HasseGraph:
        return hasse_graph(self)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Element count of the longest chain ending at each element."""
        depth = [1] * self.m
        # a child's strict down-set is smaller than its parent's
        for e in sorted(range(self.m), key=lambda e: self.below[e].bit_count()):
            children = (c for c in self.hasse.adjacency[e] if self.less(c, e))
            depth[e] += max((depth[c] for c in children), default=0)
        return tuple(depth)

    @cached_property
    def is_tree(self) -> bool:
        """True iff the Hasse diagram is a tree (connected, acyclic)."""
        if len(self.covers) != self.m - 1:
            return False
        seen, stack = {0}, [0]
        while stack:
            for other in self.hasse.adjacency[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == self.m


@dataclass(frozen=True)
class HasseGraph:
    """The undirected graph underlying a poset's cover relation."""

    m: int
    adjacency: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (a, b) for a in range(self.m) for b in self.adjacency[a] if a < b
        )

    def degree(self, e: int) -> int:
        return len(self.adjacency[e])


@dataclass(frozen=True)
class LeafOrdering:
    """A permutation of the elements growing a tree one leaf at a time.

    ``order[0]`` is the root; for every prefix the induced Hasse graph is a
    tree and each newly appended element has exactly one neighbour among its
    predecessors.
    """

    root: int
    order: tuple[int, ...]


def validate_poset(m: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Validate a cover relation and construct the poset it presents.

    Raises ``ValueError`` for malformed input (m or a cover entry not an
    ``int``, a ``bool`` included; out-of-range indices; duplicate pairs),
    ``CycleError`` when the covers contain a directed cycle, and
    ``NotReducedError`` when some cover pair is transitively implied by the
    others.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"element count must be a positive integer, got {m!r}")
    pairs = []
    seen = set()
    for pair in covers:
        if not isinstance(pair, (tuple, list)) or [type(x) for x in pair] != [int, int]:
            raise ValueError(f"cover pair {pair!r} is not a pair of integers")
        a, b = pair
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"cover pair {pair!r} out of range for m={m}")
        if a == b:
            raise CycleError(f"self-loop at element {a}")
        if (a, b) in seen:
            raise ValueError(f"duplicate cover pair {pair!r}")
        seen.add((a, b))
        pairs.append((a, b))

    parents = [[] for _ in range(m)]  # parents[c] = elements covering c
    children = [[] for _ in range(m)]
    for c, p in pairs:
        parents[c].append(p)
        children[p].append(c)

    # Kahn topological order over the upward edges child -> parent.
    indeg = [len(children[e]) for e in range(m)]
    queue = deque(e for e in range(m) if indeg[e] == 0)
    topo = []
    while queue:
        e = queue.popleft()
        topo.append(e)
        for p in parents[e]:
            indeg[p] -= 1
            if indeg[p] == 0:
                queue.append(p)
    if len(topo) != m:
        raise CycleError("cover relation contains a directed cycle")

    # Strict order as bitmasks, filled from the top of the order downward.
    above = [0] * m
    for e in reversed(topo):
        acc = 0
        for p in parents[e]:
            acc |= above[p] | (1 << p)
        above[e] = acc
    below = [0] * m
    for a in range(m):
        mask = above[a]
        while mask:
            low = mask & -mask
            below[low.bit_length() - 1] |= 1 << a
            mask ^= low

    # Reduction check: no cover pair may have an element strictly between.
    for c, p in pairs:
        if above[c] & below[p]:
            raise NotReducedError(f"cover pair ({c}, {p}) is transitively implied")

    return Poset(m, frozenset(pairs), tuple(above), tuple(below))


def height(poset: Poset) -> int:
    """Element count of the longest maximal chain."""
    return max(poset.depth)


def is_graded(poset: Poset) -> bool:
    """True iff every maximal chain has the same size.

    Uses the rank criterion: the longest-chain depth must grow by exactly
    one along every cover, and every maximal element must sit at the top
    depth.  This agrees with exhaustive chain enumeration.
    """
    depth = poset.depth
    k = max(depth)
    for c, p in poset.covers:
        if depth[p] != depth[c] + 1:
            return False
    return all(depth[e] == k for e in poset.maximal_elements())


def is_chain(poset: Poset) -> bool:
    """True iff all elements are pairwise comparable."""
    total = sum(mask.bit_count() for mask in poset.above)
    return total == poset.m * (poset.m - 1) // 2


def hasse_graph(poset: Poset) -> HasseGraph:
    """Build the Hasse graph; :attr:`Poset.hasse` keeps one per poset."""
    adj = [set() for _ in range(poset.m)]
    for c, p in poset.covers:
        adj[c].add(p)
        adj[p].add(c)
    return HasseGraph(poset.m, tuple(tuple(sorted(s)) for s in adj))


def is_tree_poset(poset: Poset) -> bool:
    """True iff the Hasse diagram is a tree (connected, acyclic)."""
    return poset.is_tree


def maximal_chains(poset: Poset) -> list[tuple[int, ...]]:
    """All maximal chains as ascending element tuples, lexicographically.

    Maximal chains are the saturated chains from a minimal to a maximal
    element, i.e. the cover paths from a source to a sink.
    """
    up = [[p for p in poset.hasse.adjacency[e] if poset.less(e, p)] for e in range(poset.m)]
    chains: list[tuple[int, ...]] = []
    path: list[int] = []

    def walk(e: int) -> None:
        path.append(e)
        if not up[e]:
            chains.append(tuple(path))
        else:
            for p in up[e]:
                walk(p)
        path.pop()

    for start in poset.minimal_elements():
        walk(start)
    return chains


def interval(poset: Poset, x: int, y: int) -> frozenset[int]:
    """The closed interval {z : x <= z <= y}, empty when x !<= y.

    For tree posets the result is asserted to be a chain.
    """
    if x == y:
        return frozenset({x})
    if not poset.less(x, y):
        return frozenset()
    bits = poset.above[x] & poset.below[y]
    members = {x, y}
    while bits:
        low = bits & -bits
        members.add(low.bit_length() - 1)
        bits ^= low
    result = frozenset(members)
    if is_tree_poset(poset):
        elems = sorted(result)
        assert all(
            poset.comparable(a, b) for i, a in enumerate(elems) for b in elems[i + 1:]
        ), "interval of a tree poset must be a chain"
    return result


def dual(poset: Poset) -> Poset:
    """The order-reversed poset on the same elements."""
    rev = frozenset((p, c) for c, p in poset.covers)
    return Poset(poset.m, rev, poset.below, poset.above)


def leaf_ordering(poset: Poset, x: int) -> LeafOrdering:
    """Order the elements so each prefix induces a tree grown leaf by leaf.

    Starting from ``x``, repeatedly appends the smallest-index element
    adjacent (in the Hasse graph) to the current prefix.  Because the Hasse
    graph is a tree, every appended element has exactly one neighbour among
    its predecessors.  Raises ``NotTreeError`` for non-tree posets.
    """
    if not 0 <= x < poset.m:
        raise ValueError(f"root {x} out of range")
    if not is_tree_poset(poset):
        raise NotTreeError("leaf orderings require a tree poset")
    graph = poset.hasse
    order = [x]
    placed = {x}
    while len(order) < poset.m:
        nxt = min(
            e for e in range(poset.m)
            if e not in placed and any(nb in placed for nb in graph.adjacency[e])
        )
        order.append(nxt)
        placed.add(nxt)
    return LeafOrdering(root=x, order=tuple(order))


def restrict(poset: Poset, keep: Iterable[int]) -> tuple[Poset, tuple[int, ...]]:
    """Induced subposet on ``keep``; returns (subposet, old-element list).

    New element ``i`` corresponds to ``old[i]``; covers of the restriction
    are recomputed from the induced order (removal may create new covers).
    """
    old = tuple(sorted(set(keep)))
    if not old:
        raise ValueError("cannot restrict to an empty element set")
    index = {e: i for i, e in enumerate(old)}
    keep_bits = 0
    for e in old:
        keep_bits |= 1 << e
    covers = []
    for a in old:
        reach = poset.above[a] & keep_bits
        bits = reach
        while bits:
            low = bits & -bits
            b = low.bit_length() - 1
            bits ^= low
            if not (reach & poset.below[b]):
                covers.append((index[a], index[b]))
    return validate_poset(len(old), covers), old


def poset_to_dict(poset: Poset) -> dict:
    """Wire-format dictionary: {"m": ..., "covers": [[child, parent], ...]}."""
    return {"m": poset.m, "covers": [list(pair) for pair in poset.sorted_covers()]}


def poset_from_dict(data: dict) -> Poset:
    """Parse and validate the wire format produced by :func:`poset_to_dict`."""
    if not isinstance(data, dict) or "m" not in data or type(data.get("covers")) is not list:
        raise ValueError('poset JSON must be an object with "m" and a list "covers"')
    return validate_poset(data["m"], data["covers"])
