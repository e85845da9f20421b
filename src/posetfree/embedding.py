"""Weak-subposet containment and chain-by-chain embeddings.

A family of sets, ordered by inclusion, *contains* a poset P when there is
an injection from P's elements to member masks that preserves strict order
(comparable elements map to strictly nested masks).  Incomparabilities need
not be preserved: containment is weak, not induced.

Three searches live here:

* :func:`contains_poset` / :func:`is_p_free` — backtracking over P's
  elements in a fixed order with nesting-consistency pruning, planned once
  per poset (:class:`PosetSearch`) and run on bitsets over a :class:`Nesting`.
* :func:`first_copy` — the canonically least copy of a blowup P(x, t)
  (blowups only; for P itself, search ``blowup(P, x, 1)``): copies are keyed
  by their image tuple in element order and compared lexicographically by
  mask value; depth-first search in element order with ascending candidates
  finds the least key first.
* :func:`embed_via_marked_chains` — embeds a graded poset chain by chain
  along a graded chain cover, mapping each cover chain onto the marker set
  of one marked chain.  The recursion peels the last cover chain, embeds the
  rest, then extends along the first marked chain whose already-determined
  markers match the embedded images and whose remaining markers avoid every
  image used so far.  Success is not guaranteed on small instances; a
  failure names the first cover chain that could not be assigned.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .blowup import BlowupPoset
from .errors import InvalidMarkedChainError, PreconditionError, TooLargeError
from .grading import GradedChainCover, verify_chain_cover
from .lattice import MarkedChain, SetFamily
from .poset import Poset, restrict


@dataclass(frozen=True)
class Embedding:
    """An order-preserving injection of poset elements into family members.

    ``assignment[e]`` is the image mask of poset element ``e``.
    """

    target: SetFamily
    assignment: tuple[int, ...]


@dataclass(frozen=True)
class EmbeddingFailure:
    """Report that the chain-by-chain embedding ran out of usable chains.

    ``chain_index`` is the 1-based index of the first cover chain that
    could not be assigned a marked chain.
    """

    chain_index: int
    reason: str


def check_embedding(poset: Poset, emb: Embedding) -> list[str]:
    """All violations of the embedding contract; empty means valid."""
    problems = []
    if len(emb.assignment) != poset.m:
        return [
            f"assignment has {len(emb.assignment)} entries for {poset.m} elements"
        ]
    member_set = emb.target.member_set
    for e, mask in enumerate(emb.assignment):
        if mask not in member_set:
            problems.append(f"image {mask} of element {e} is not a member")
    if len(set(emb.assignment)) != poset.m:
        problems.append("assignment is not injective")
    for a in range(poset.m):
        for b in range(poset.m):
            if poset.less(a, b):
                lo, hi = emb.assignment[a], emb.assignment[b]
                if lo == hi or lo & hi != lo:
                    problems.append(
                        f"elements {a} < {b} map to non-nested masks {lo}, {hi}"
                    )
    return problems


class Nesting:
    """Strict-nesting bitsets over a sorted universe of masks.

    Bit ``i`` stands for ``masks[i]``, so ascending bits are ascending
    masks.  A family inside the universe is one bitset, and its members
    strictly above ``masks[i]`` are ``up[i] & family`` (dually ``down``):
    adding or removing a member is one bit operation and rebuilds nothing.
    """

    def __init__(self, masks: tuple[int, ...]):
        q = len(masks)
        self.masks, self.full = masks, (1 << q) - 1
        self.up, self.down = [0] * q, [0] * q
        for i, mi in enumerate(masks):
            for j in range(i + 1, q):  # a strict superset sorts later
                if mi & masks[j] == mi:
                    self.up[i] |= 1 << j
                    self.down[j] |= 1 << i


@lru_cache(maxsize=4)
def cube(n: int) -> Nesting:
    """The nesting of all of ``2^[n]`` (bit ``i`` is mask ``i``); shared, never mutate."""
    return Nesting(tuple(range(1 << n)))


def _search_order(poset: Poset) -> list[int]:
    """Element order for backtracking: reverse min-degree strip order.

    Repeatedly removing a minimum-degree Hasse vertex and reversing yields
    an order in which, on connected Hasse graphs, every element after the
    first is adjacent to an earlier one — so each placement is constrained
    as soon as possible.
    """
    graph = poset.hasse
    degree = [graph.degree(e) for e in range(poset.m)]
    removed = [False] * poset.m
    order = []
    for _ in range(poset.m):
        v = min(
            (e for e in range(poset.m) if not removed[e]),
            key=lambda e: (degree[e], e),
        )
        order.append(v)
        removed[v] = True
        for nb in graph.adjacency[v]:
            if not removed[nb]:
                degree[nb] -= 1
    order.reverse()
    return order


class PosetSearch:
    """The backtracking core for one poset, planned once and reused.

    A search places the elements in a fixed order, trying members in
    ascending order, and returns the first complete assignment as a mask
    tuple.  The plan for each pinned element (or none) holds the remaining
    order and, per element, its demand (a strict up-set of ``u`` elements
    needs ``u`` strict supersets of the image, dually below) and its
    constraints against the elements placed before it.
    """

    def __init__(self, poset: Poset, order: list[int]):
        self.m = poset.m
        self._plans = [self._plan(poset, order, e) for e in range(-1, poset.m)]

    @staticmethod
    def _plan(poset: Poset, order: list[int], pinned: int):
        placed = [pinned] if pinned >= 0 else []
        steps = []
        for e in order:
            if e != pinned:
                cons = tuple((f, poset.less(f, e)) for f in placed if poset.comparable(e, f))
                steps.append((e, poset.above[e].bit_count(), poset.below[e].bit_count(), cons))
                placed.append(e)
        return pinned, steps

    def _run(self, nest: Nesting, family: int, plan, at: int = -1):
        pinned, steps = plan
        if family.bit_count() < self.m:
            return None
        up, down, masks = nest.up, nest.down, nest.masks
        assign = [-1] * self.m
        used = 0
        if pinned >= 0:
            assign[pinned], used = at, 1 << at
        last = len(steps)

        def extend(d: int, used: int) -> bool:
            if d == last:
                return True
            e, need_up, need_down, cons = steps[d]
            cand = family & ~used
            for f, f_below in cons:
                cand &= up[assign[f]] if f_below else down[assign[f]]
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                if need_up and (up[i] & family).bit_count() < need_up:
                    continue
                if need_down and (down[i] & family).bit_count() < need_down:
                    continue
                assign[e] = i
                if extend(d + 1, used | low):
                    return True
            assign[e] = -1
            return False

        if not extend(0, used):
            return None
        return tuple(masks[i] for i in assign)

    def first(self, nest: Nesting, family: int) -> tuple[int, ...] | None:
        """The first copy in ``family`` (a bitset over ``nest``), or None."""
        return self._run(nest, family, self._plans[0])

    def through(self, nest: Nesting, family: int, at: int) -> tuple[int, ...] | None:
        """The first copy with some image on index ``at``, which must be in
        ``family``, trying the pinned element in ascending order.  None
        means that a family free before ``at`` joined stays free."""
        for plan in self._plans[1:]:
            assign = self._run(nest, family, plan, at)
            if assign is not None:
                return assign
        return None


@lru_cache(maxsize=64)
def poset_search(poset: Poset) -> PosetSearch:
    """The search for ``poset`` in reverse min-degree strip order."""
    return PosetSearch(poset, _search_order(poset))


def contains_poset(family: SetFamily, poset: Poset) -> Embedding | None:
    """A witness embedding of ``poset`` into ``family``, or None.

    The witness is the one found first by backtracking over elements in
    reverse min-degree strip order with candidate masks ascending.
    """
    nest = Nesting(family.members)
    result = poset_search(poset).first(nest, nest.full)
    return None if result is None else Embedding(family, result)


def contains_poset_through(
    family: SetFamily, poset: Poset, mask: int
) -> Embedding | None:
    """Like :func:`contains_poset`, but some image must equal ``mask``.

    Incremental-search helper: when a family is known to avoid the poset
    and one member is added, any new copy must pass through it.
    """
    if mask not in family:
        return None
    nest = Nesting(family.members)
    result = poset_search(poset).through(nest, nest.full, bisect_left(nest.masks, mask))
    return None if result is None else Embedding(family, result)


def is_p_free(family: SetFamily, poset: Poset) -> bool:
    """True when the family contains no copy of the poset."""
    return contains_poset(family, poset) is None


@lru_cache(maxsize=32)
def _blowup_tables(blow: BlowupPoset):
    """The family-independent tables of :func:`_least_blowup_assignment`.

    Per element: its copy-tree parent (or -1) and whether it sits above
    that parent, the fan predecessor whose mask it must exceed (or -1), and
    its demand ``(need_up, need_down)``.  Last, the elements in depth-first
    order of the copy tree: each copy is followed immediately by the fans
    hanging off it, so a backtracking search in this order discovers a
    starved fan right after placing its anchor instead of after enumerating
    unrelated fans.
    """
    base, t, m = blow.base, blow.t, blow.size
    parent, parent_up, sibling = [-1] * m, [True] * m, [-1] * m
    for e, (i, r) in enumerate(blow.labels):
        if i > 1:
            parent[e] = blow.id_of(blow.parent_position[i - 1], (r - 1) // t + 1)
            parent_up[e] = blow.points_up[i - 1]
        if (r - 1) % t:
            sibling[e] = e - 1
    need = [(base.above[e].bit_count(), base.below[e].bit_count()) for e in range(m)]

    pos_children: list[list[int]] = [[] for _ in range(blow.positions + 1)]
    for j in range(2, blow.positions + 1):
        pos_children[blow.parent_position[j - 1]].append(j)
    order: list[int] = []
    stack = [blow.id_of(1, 1)]
    while stack:
        e = stack.pop()
        order.append(e)
        i, r = blow.labels[e]
        for j in reversed(pos_children[i]):
            stack.extend(reversed(blow.group_ids(j, r)))
    return parent, parent_up, sibling, need, order


def _least_blowup_assignment(
    family: SetFamily, blow: BlowupPoset, floor: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """Lexicographically least embedding of a blowup, exploiting its shape.

    Four blowup-specific accelerations over the generic backtracker:

    * parent-only order constraints — nesting is transitive, so pinning each
      copy against its copy-tree parent enforces the whole order;
    * ascending fans — copies within one fan are interchangeable (swapping
      them together with the fans hanging off them relabels the same copy),
      so the least assignment carries ascending masks inside every fan and
      each non-first fan member may start above its predecessor;
    * a completability probe — before committing a mask, the remaining
      elements are test-assigned in copy-tree order, where a starved fan
      surfaces right after its anchor; in element order the same dead end
      would only surface after enumerating every combination of the
      unrelated fans placed in between;
    * a witness — the completion found by the last successful probe is
      kept.  While it agrees with the committed prefix, the mask it gives
      the next element is committed without a probe (the witness completes
      it), so only the smaller candidates are probed, and one that probes
      true replaces the witness.  Only a floor makes the search backtrack
      past a committed mask; the witness then disagrees with the prefix
      and is not used again.

    The search nests one frame per committed element and the probe one per
    element it places, about ``m`` frames together; a blowup too deep for
    the recursion limit raises TooLargeError before searching.
    """
    members = family.members
    q, m = len(members), blow.size
    if q < m:
        return None
    depth, frame = m + 4, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if depth > sys.getrecursionlimit():
        raise TooLargeError(f"a blowup of {m} elements is too deep to search "
                            f"under the recursion limit {sys.getrecursionlimit()}")
    parent, parent_up, sibling, need, tree_order = _blowup_tables(blow)
    nest = Nesting(members)
    sup_sets, sub_sets = nest.up, nest.down

    # demand prune: an element's strict up-set needs that many distinct
    # supersets of its image (dually below)
    sup_counts = [s.bit_count() for s in sup_sets]
    sub_counts = [s.bit_count() for s in sub_sets]
    allowed_for = {
        (need_up, need_down): sum(
            1 << i for i in range(q)
            if sup_counts[i] >= need_up and sub_counts[i] >= need_down
        )
        for need_up, need_down in set(need)
    }
    allowed = [allowed_for[d] for d in need]

    assign = [-1] * m
    witness: list[int] = []
    full = (1 << q) - 1

    def candidates(e: int, used: int) -> int:
        cand = allowed[e] & ~used
        p = parent[e]
        if p >= 0:
            cand &= sup_sets[assign[p]] if parent_up[e] else sub_sets[assign[p]]
        s = sibling[e]
        if s >= 0:
            cand &= full << (assign[s] + 1)
        return cand

    def completable(rank: int, used: int) -> bool:
        while rank < m and assign[tree_order[rank]] >= 0:
            rank += 1
        if rank == m:
            witness[:] = assign
            return True
        e = tree_order[rank]
        cand = candidates(e, used)
        while cand:
            low = cand & -cand
            cand ^= low
            assign[e] = low.bit_length() - 1
            if completable(rank + 1, used | low):
                assign[e] = -1
                return True
        assign[e] = -1
        return False

    def extend(e: int, used: int, tight: bool) -> bool:
        if e == m:
            return True
        cand = candidates(e, used)
        if tight:
            cand &= ~((1 << bisect_left(members, floor[e])) - 1)
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            assign[e] = i
            witnessed = witness and witness[e] == i and witness[:e] == assign[:e]
            if (witnessed or completable(0, used | low)) and extend(
                e + 1, used | low, tight and members[i] == floor[e]
            ):
                return True
        assign[e] = -1
        return False

    if not extend(0, 0, floor is not None):
        return None
    return tuple(members[i] for i in assign)


def first_copy(
    family: SetFamily, blow: BlowupPoset, floor: tuple[int, ...] | None = None
) -> Embedding | None:
    """The least copy of the blowup ``blow`` in ``family``, or None.

    Copies are keyed by the tuple of image masks in element order and
    compared lexicographically; searching elements in that same order with
    ascending candidates returns the least key first.  For a tree poset P
    itself, pass ``blowup(P, root, 1)``: P relabelled by leaf-ordering
    position.  A blowup too deep to search raises ``TooLargeError``.

    ``floor`` skips keys below the given tuple.  That is only sound when the
    caller knows no smaller copy exists — e.g. resuming after members were
    removed from a family whose least copy key was ``floor``.
    """
    if floor is not None and len(floor) != blow.size:
        raise PreconditionError("floor must assign one mask per element")
    result = _least_blowup_assignment(family, blow, floor)
    return None if result is None else Embedding(family, result)


def _chain_position(chain: tuple[int, ...], ival: frozenset[int]) -> str:
    """Whether the difference set sits at the bottom or top of its chain."""
    if len(ival) >= len(chain) or not ival:
        raise PreconditionError(
            "difference set must be a nonempty proper part of its chain"
        )
    if chain[0] in ival:
        return "bottom"
    if chain[-1] in ival:
        return "top"
    raise PreconditionError("difference set touches neither end of its chain")


def _embed_level(
    poset: Poset,
    chains: tuple[tuple[int, ...], ...],
    intervals: tuple[tuple[int, ...], ...],
    family: SetFamily,
    pool: list[MarkedChain],
    a: int,
) -> dict[int, int] | EmbeddingFailure:
    k = len(chains[0])
    if len(chains) == 1:
        if not pool:
            return EmbeddingFailure(1, "no marked chains available")
        best = min(pool, key=lambda mc: (mc.marker_masks(), mc.perm))
        masks = best.marker_masks()  # largest first
        return {e: masks[k - 1 - pos] for pos, e in enumerate(chains[0])}

    last = chains[-1]
    ival_set = frozenset(intervals[-1])
    side = _chain_position(last, ival_set)
    ival = [e for e in last if e in ival_set]  # ascending along the chain
    rest = [e for e in last if e not in ival_set]
    s = len(rest)

    keep = [e for e in range(poset.m) if e not in ival_set]
    sub, old = restrict(poset, keep)
    to_new = {e: i for i, e in enumerate(old)}
    sub_chains = tuple(tuple(to_new[x] for x in c) for c in chains[:-1])
    sub_intervals = tuple(tuple(to_new[x] for x in iv) for iv in intervals[:-1])
    deeper = _embed_level(sub, sub_chains, sub_intervals, family, pool, a)
    if isinstance(deeper, EmbeddingFailure):
        return deeper
    partial = {old[i]: mask for i, mask in deeper.items()}

    # the embedded part of the last chain, as markers (largest first)
    key = tuple(partial[e] for e in reversed(rest))
    taken = set(partial.values())
    found = None
    for mc in sorted(pool, key=lambda mc: (mc.marker_masks(), mc.perm)):
        masks = mc.marker_masks()
        embedded = masks[:s] if side == "bottom" else masks[k - s :]
        if embedded != key:
            continue
        free = masks[s:] if side == "bottom" else masks[: k - s]
        if all(mask not in taken for mask in free):
            found = free
            break
    if found is None:
        return EmbeddingFailure(
            len(chains),
            "no marked chain extends the embedded markers without reuse",
        )
    for pos, e in enumerate(ival):
        partial[e] = found[len(found) - 1 - pos]
    return partial


def embed_via_marked_chains(
    poset: Poset,
    cover: GradedChainCover,
    family: SetFamily,
    chains: list[MarkedChain],
    a: int,
) -> Embedding | EmbeddingFailure:
    """Embed a graded poset so each cover chain lands on a marker set.

    On success every cover chain's image equals the marker set of some
    chain in ``chains`` (asserted, together with injectivity and order
    preservation).  On exhaustion, the failure names the first cover chain
    that could not be assigned.
    """
    problems = verify_chain_cover(poset, cover)
    if problems:
        raise PreconditionError(f"invalid chain cover: {problems[0]}")
    k = len(cover.chains[0])
    pool = list(chains)
    for mc in pool:
        mc.validate(family, a)
        if len(mc.marker_sizes) != k:
            raise InvalidMarkedChainError(
                f"marked chain has {len(mc.marker_sizes)} markers, cover needs {k}"
            )

    result = _embed_level(
        poset, cover.chains, cover.intervals, family, pool, a
    )
    if isinstance(result, EmbeddingFailure):
        return result
    emb = Embedding(family, tuple(result[e] for e in range(poset.m)))
    assert not check_embedding(poset, emb)
    marker_sets = {frozenset(mc.marker_masks()) for mc in pool}
    for chain in cover.chains:
        assert frozenset(emb.assignment[e] for e in chain) in marker_sets
    return emb
