"""Graded completions and graded chain covers of tree posets.

Three constructions live here.

``graded_completion`` embeds a tree poset P of height k into a graded tree
poset of the same height by (a) subdividing each cover edge so that the
longest-chain level rises by exactly one per step and (b) hanging a fresh
ascending chain on every maximal element that stops short of level k.  The
result has at most s*k elements, where s is the number of maximal chains
of P, and P sits inside it as an induced subposet.

``find_removable_interval`` locates, in a graded tree poset that is not a
chain, a Hasse-diagram leaf v and an interval I containing v with at most
k-1 elements whose removal leaves a graded tree poset of height k.  The
search is exhaustive and deterministic: leaves in index order, then
intervals by (size, endpoints).

``graded_chain_cover`` orders the maximal chains C_1..C_l of a graded tree
poset so that (i) every prefix union induces a graded poset of height k,
(ii) each difference set I_j = C_j minus the earlier chains is a nonempty
interval containing a minimal or maximal element, and (iii) the rest of
C_j is contained in some earlier chain.  It recurses by removing an
interval from ``find_removable_interval`` and extending the cover of the
smaller poset with I plus the tail of the earlier chain through the unique
element covering max(I).  When the removed interval contains a maximal
element instead of a minimal one, the step runs on the dual poset and the
resulting chains are reversed — all three properties are self-dual.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import IsChainError, NotGradedError, NotTreeError
from .poset import (
    Poset,
    dual,
    height,
    interval,
    is_chain,
    is_graded,
    is_tree_poset,
    maximal_chains,
    restrict,
    validate_poset,
)


@dataclass(frozen=True)
class GradedCompletion:
    """A height-preserving graded extension of a tree poset.

    ``embedding[e]`` is the element of ``completed`` representing original
    element ``e`` (the construction keeps original ids, so this is the
    identity range); ``chain_count`` is the number of maximal chains of the
    original poset, which bounds ``completed.m`` by ``chain_count * k``.
    """

    completed: Poset
    embedding: tuple[int, ...]
    chain_count: int


@dataclass(frozen=True)
class GradedChainCover:
    """Maximal chains ordered per the cover properties (i)-(iii).

    ``chains[j]`` is ascending; ``intervals[j-1]`` is the ascending
    difference set I_{j+1} for j >= 1 (the first chain has no interval).
    """

    chains: tuple[tuple[int, ...], ...]
    intervals: tuple[tuple[int, ...], ...]


def _require_graded_tree(poset: Poset) -> None:
    if not is_tree_poset(poset):
        raise NotTreeError("operation requires a tree poset")
    if not is_graded(poset):
        raise NotGradedError("operation requires a graded poset")


def graded_completion(poset: Poset) -> GradedCompletion:
    """Complete a tree poset to a graded tree poset of the same height."""
    if not is_tree_poset(poset):
        raise NotTreeError("graded completions require a tree poset")
    m = poset.m
    k = height(poset)
    chain_count = len(maximal_chains(poset))

    level = poset.depth  # size of the longest chain ending at each element

    covers: list[tuple[int, int]] = []
    next_id = m
    for c, p in sorted(poset.covers):
        gap = level[p] - level[c] - 1
        prev = c
        for _ in range(gap):
            covers.append((prev, next_id))
            prev = next_id
            next_id += 1
        covers.append((prev, p))
    for e in range(m):
        if not poset.above[e] and level[e] < k:
            prev = e
            for _ in range(k - level[e]):
                covers.append((prev, next_id))
                prev = next_id
                next_id += 1

    completed = validate_poset(next_id, covers)
    assert is_tree_poset(completed) and is_graded(completed)
    assert height(completed) == k
    assert completed.m <= chain_count * k
    # original relations are induced: no new comparabilities between old ids
    for a in range(m):
        assert completed.above[a] & ((1 << m) - 1) == poset.above[a]
    return GradedCompletion(completed, tuple(range(m)), chain_count)


def find_removable_interval(poset: Poset) -> tuple[int, tuple[int, ...]]:
    """First (leaf, interval) whose removal keeps a graded tree of height k.

    Deterministic exhaustive search: Hasse-diagram leaves in index order,
    then candidate intervals containing the leaf ordered by (size, bottom,
    top).  Raises ``IsChainError`` for chains (nothing needs removing).
    """
    _require_graded_tree(poset)
    if is_chain(poset):
        raise IsChainError("a chain has no removable interval")
    k = height(poset)
    graph = poset.hasse
    leaves = [e for e in range(poset.m) if graph.degree(e) == 1]
    all_elems = set(range(poset.m))

    candidates: list[tuple[int, int, int, int, frozenset[int]]] = []
    for rank, v in enumerate(sorted(leaves)):
        for x in range(poset.m):
            for y in range(poset.m):
                ival = interval(poset, x, y)
                if v not in ival or not ival or len(ival) > k - 1:
                    continue
                candidates.append((rank, len(ival), x, y, ival))
    candidates.sort(key=lambda c: c[:4])
    for rank, _size, _x, _y, ival in candidates:
        keep = all_elems - ival
        if not keep:
            continue
        sub, _old = restrict(poset, keep)
        if is_tree_poset(sub) and is_graded(sub) and height(sub) == k:
            return sorted(leaves)[rank], _sort_chain(poset, ival)
    raise AssertionError("no removable interval found in a graded non-chain tree poset")


def _bits(elems) -> int:
    acc = 0
    for e in elems:
        acc |= 1 << e
    return acc


def _sort_chain(poset: Poset, elems) -> tuple[int, ...]:
    """Sort a set of pairwise comparable elements ascending."""
    bits = _bits(elems)
    return tuple(sorted(elems, key=lambda e: (poset.below[e] & bits).bit_count()))


def graded_chain_cover(poset: Poset) -> GradedChainCover:
    """A sequence of distinct maximal chains covering a graded tree poset
    and satisfying properties (i)-(iii).

    The chain count is exactly #minimal + #maximal - 1: the first chain
    holds one minimal and one maximal element, and each later chain adds an
    interval holding exactly one new minimal or maximal element (the rest
    of the chain lies in an earlier one).  Each of those intervals is
    nonempty and disjoint from the others, so the count is also at most
    m - k + 1.  It equals the number of maximal chains when the Hasse tree
    branches one way only; posets whose Hasse tree branches both upward and
    downward (e.g. two bottoms and two tops through one middle) are covered
    by fewer chains than they have maximal chains.
    """
    _require_graded_tree(poset)
    cover = _cover_recursive(poset)
    all_chains = set(maximal_chains(poset))
    assert all(c in all_chains for c in cover.chains)
    assert len(set(cover.chains)) == len(cover.chains)
    assert {e for c in cover.chains for e in c} == set(range(poset.m))
    assert len(cover.intervals) == len(cover.chains) - 1
    return cover


def _cover_recursive(poset: Poset) -> GradedChainCover:
    if is_chain(poset):
        chain = _sort_chain(poset, range(poset.m))
        return GradedChainCover((chain,), ())

    v, ival = find_removable_interval(poset)
    if not poset.below[v]:
        return _cover_step(poset, ival)
    # the leaf is maximal: run the step on the dual and reverse the chains
    dual_cover = _cover_step(dual(poset), tuple(reversed(ival)))
    return GradedChainCover(
        tuple(tuple(reversed(c)) for c in dual_cover.chains),
        tuple(tuple(reversed(i)) for i in dual_cover.intervals),
    )


def _cover_step(poset: Poset, ival: tuple[int, ...]) -> GradedChainCover:
    """Extend the cover of poset-minus-interval; ival contains a minimal
    element and is ascending."""
    ival_set = set(ival)
    keep = [e for e in range(poset.m) if e not in ival_set]
    sub, old = restrict(poset, keep)
    sub_cover = _cover_recursive(sub)
    chains = [tuple(old[e] for e in chain) for chain in sub_cover.chains]
    intervals = [tuple(old[e] for e in iv) for iv in sub_cover.intervals]

    top = ival[-1]
    covering = [p for (c, p) in poset.covers if c == top and p not in ival_set]
    assert len(covering) == 1, "interval top must have a unique cover outside"
    u = covering[0]

    owners = [j for j, iv in enumerate([chains[0], *intervals]) if u in iv]
    assert len(owners) == 1, "the covering element must lie in exactly one difference set"
    host = chains[owners[0]]
    tail = [e for e in host if e == u or poset.less(u, e)]
    new_chain = _sort_chain(poset, list(ival) + tail)
    assert len(new_chain) == len(chains[0]), "extended chain must be maximal"
    return GradedChainCover((*chains, new_chain), (*intervals, ival))


def verify_chain_cover(poset: Poset, cover: GradedChainCover) -> list[str]:
    """Exhaustively check cover properties (i)-(iii); returns violations."""
    problems: list[str] = []
    if len(cover.intervals) != max(len(cover.chains) - 1, 0):
        return ["interval list length must be one less than the chain count"]
    k = height(poset)
    chain_set = {tuple(c) for c in maximal_chains(poset)}
    union: set[int] = set()
    seen_chains = []
    for idx, chain in enumerate(cover.chains, start=1):
        if tuple(chain) not in chain_set:
            problems.append(f"chain {idx} is not a maximal chain")
        if len(chain) != k:
            problems.append(f"chain {idx} has size {len(chain)} != k={k}")
        diff = [e for e in chain if e not in union]
        if idx == 1:
            expected_diff = list(chain)
        else:
            expected_diff = list(cover.intervals[idx - 2])
        if sorted(diff) != sorted(expected_diff):
            problems.append(f"difference set of chain {idx} mismatches the recorded interval")
        if idx >= 2:
            if not diff:
                problems.append(f"difference set of chain {idx} is empty")
            else:
                dset = frozenset(diff)
                lo = _sort_chain(poset, diff)[0]
                hi = _sort_chain(poset, diff)[-1]
                if interval(poset, lo, hi) != dset:
                    problems.append(f"difference set of chain {idx} is not an interval")
                if all(poset.below[e] for e in diff) and all(poset.above[e] for e in diff):
                    problems.append(
                        f"difference set of chain {idx} contains no minimal or maximal element"
                    )
                rest = [e for e in chain if e not in dset]
                if not rest:
                    problems.append(f"difference set of chain {idx} is the whole chain")
                elif not any(set(rest) <= set(c) for c in seen_chains):
                    problems.append(f"chain {idx} minus its interval is in no earlier chain")
        union.update(chain)
        sub, _old = restrict(poset, union)
        if not is_graded(sub) or height(sub) != k:
            problems.append(f"prefix union through chain {idx} is not graded of height {k}")
        seen_chains.append(chain)
    if union != set(range(poset.m)):
        problems.append("chains do not cover the poset")
    return problems
