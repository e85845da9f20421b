"""Tree-poset blowups: replace each element by a fan of copies.

Given a tree poset P, a root x, and a multiplicity t >= 1, the blowup
``P(x, t)`` replaces the i-th element of a leaf ordering started at x by
``t**d`` copies, where d is the Hasse-graph distance from x.  The copies of
the i-th element are split into consecutive groups of size t; the k-th
group attaches to the k-th copy of the unique earlier neighbour of the i-th
element, on the same side of the order as in P (above it when the i-th
element covers that neighbour, below it otherwise).

Conventions
-----------
* Blowup elements are labelled ``(i, r)``: copy r (1-based) of the element
  at position i (1-based) of the leaf ordering.  Element ids are assigned
  in lexicographic ``(i, r)`` order, so an element's id is its label's rank.
* The blowup of a graded tree poset of height k is again a graded tree
  poset of height k, and collapsing copies (first label coordinate) maps
  its maximal chains onto maximal chains of P.
* ``t = 1`` reproduces P itself up to the relabelling by ordering position.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .caps import get_caps
from .errors import DomainError, NotTreeError, TooLargeError
from .poset import LeafOrdering, Poset, is_tree_poset, leaf_ordering, validate_poset


@dataclass(frozen=True)
class BlowupPoset:
    """A blowup together with its labelling and group structure.

    ``labels[e]`` is the (position, copy) pair of blowup element ``e``;
    ``groups[(i, k)]`` lists the ids of the k-th copy-group of position i;
    ``parent_position[i - 1]`` / ``points_up[i - 1]`` record, per position,
    the earlier neighbour's position and whether the copies sit above its
    copies (position 1 stores 0 / True as padding).
    """

    base: Poset
    ordering: LeafOrdering
    t: int
    labels: tuple[tuple[int, int], ...]
    groups: dict[tuple[int, int], tuple[int, ...]] = field(compare=False)
    offsets: tuple[int, ...] = field(compare=False, repr=False)
    copies: tuple[int, ...] = field(compare=False, repr=False)
    parent_position: tuple[int, ...] = field(compare=False, repr=False)
    points_up: tuple[bool, ...] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return self.base.m

    @property
    def positions(self) -> int:
        return len(self.ordering.order)

    def id_of(self, position: int, copy: int) -> int:
        """Blowup element id of the label (position, copy), both 1-based."""
        return self.offsets[position - 1] + copy - 1

    def group_ids(self, position: int, k: int) -> tuple[int, ...]:
        return self.groups[(position, k)]


def _distances_from(poset: Poset, x: int) -> list[int]:
    graph = poset.hasse
    dist = [-1] * poset.m
    dist[x] = 0
    frontier = [x]
    while frontier:
        nxt = []
        for e in frontier:
            for nb in graph.adjacency[e]:
                if dist[nb] < 0:
                    dist[nb] = dist[e] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def blowup_size(poset: Poset, x: int, t: int) -> int:
    """Number of elements of the blowup: sum of t**d over Hasse distances d.

    The result never exceeds m * t**(m-1).
    """
    if not is_tree_poset(poset):
        raise NotTreeError("blowups require a tree poset")
    if t < 1:
        raise DomainError("blowup multiplicity t must be >= 1")
    if not 0 <= x < poset.m:
        raise ValueError(f"root {x} out of range")
    total = sum(t ** d for d in _distances_from(poset, x))
    assert total <= poset.m * t ** (poset.m - 1)
    return total


def blowup(poset: Poset, x: int, t: int) -> BlowupPoset:
    """Construct the blowup of a tree poset from the given root.

    The positions follow the deterministic :func:`leaf_ordering` from x.
    Raises ``TooLargeError`` when the result would exceed the configured
    element cap.  Each blowup is built once and shared between calls with equal
    arguments; never mutate it.
    """
    return _blowup(poset, x, t, get_caps().blowup_elements)


@lru_cache(maxsize=32)
def _blowup(poset: Poset, x: int, t: int, cap: int) -> BlowupPoset:
    if not is_tree_poset(poset):
        raise NotTreeError("blowups require a tree poset")
    if t < 1:
        raise DomainError("blowup multiplicity t must be >= 1")
    ordering = leaf_ordering(poset, x)

    m = poset.m
    dist = _distances_from(poset, x)
    copies = [t ** dist[e] for e in ordering.order]
    total = sum(copies)
    if total > cap:
        raise TooLargeError(f"blowup would have {total} elements, cap is {cap}")

    offsets = [0] * m
    for i in range(1, m):
        offsets[i] = offsets[i - 1] + copies[i - 1]

    position_of = {e: i + 1 for i, e in enumerate(ordering.order)}
    graph = poset.hasse
    cover_set = poset.covers

    labels: list[tuple[int, int]] = []
    for i in range(1, m + 1):
        labels.extend((i, r) for r in range(1, copies[i - 1] + 1))

    parent_position = [0] * m
    points_up = [True] * m
    groups: dict[tuple[int, int], tuple[int, ...]] = {}
    pairs: list[tuple[int, int]] = []
    for i in range(2, m + 1):
        elem = ordering.order[i - 1]
        # unique earlier neighbour; it sits one step closer to the root
        (parent_elem,) = [
            nb for nb in graph.adjacency[elem] if position_of[nb] < i
        ]
        assert dist[parent_elem] == dist[elem] - 1
        j = position_of[parent_elem]
        up = (parent_elem, elem) in cover_set  # elem covers parent => copies above
        parent_position[i - 1] = j
        points_up[i - 1] = up
        group_count = t ** (dist[elem] - 1)
        assert group_count == copies[j - 1]
        for k in range(1, group_count + 1):
            ids = tuple(offsets[i - 1] + (k - 1) * t + r for r in range(t))
            groups[(i, k)] = ids
            anchor = offsets[j - 1] + k - 1
            for v in ids:
                pairs.append((anchor, v) if up else (v, anchor))

    base = validate_poset(total, pairs)
    assert is_tree_poset(base)
    return BlowupPoset(
        base=base,
        ordering=ordering,
        t=t,
        labels=tuple(labels),
        groups=groups,
        offsets=tuple(offsets),
        copies=tuple(copies),
        parent_position=tuple(parent_position),
        points_up=tuple(points_up),
    )
