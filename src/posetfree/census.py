"""Exhaustive ground truth at tiny n: exact counts, extremal sizes, probes.

Everything here trades time for certainty: families over [n] are enumerated
or maximized outright, with caps (:mod:`posetfree.caps`) guarding the
exponential blowup.  The experiment table ties the exact counts to the
container bookkeeping: for each n it reports the count alongside a
layer-union lower bound and the inspection quantity
``distinct pairs * 2^(max residual size)`` from sampled container runs.
"""

from __future__ import annotations

import csv
import io
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from math import comb, factorial

import numpy as np

from .caps import get_caps
from .containers import two_phase
from .embedding import Nesting, PosetSearch, cube, is_p_free, poset_search
from .errors import DomainError, TooLargeError
from .lattice import SetFamily, layer_family
from .poset import Poset, height

__all__ = [
    "ExperimentRow",
    "count_p_free",
    "la",
    "e_lower",
    "random_p_free_family",
    "layer_lower_bound",
    "experiment_table",
    "experiment_csv",
]


def _addable(search: PosetSearch, nest: Nesting, family: int, cands: int) -> int:
    """The candidates each of which keeps the free ``family`` free alone."""
    keep = 0
    rest = cands
    while rest:
        low = rest & -rest
        rest ^= low
        if search.through(nest, family | low, low.bit_length() - 1) is None:
            keep |= low
    return keep


def _children(search: PosetSearch, nest: Nesting, family: int, cands: int):
    """Each child node: ``family`` plus one candidate, with the later
    candidates that stay addable.  Freeness is hereditary, so a candidate
    that fails at a node fails in its whole subtree and is never passed on."""
    rest = cands
    while rest:
        low = rest & -rest
        rest ^= low
        yield family | low, _addable(search, nest, family | low, rest)


def _count(search: PosetSearch, nest: Nesting, family: int, cands: int) -> int:
    """Number of free families ``family | S`` over subsets ``S`` of ``cands``.

    ``family`` must be free and each candidate addable alone.  When all
    candidates fit at once, each of their ``2^r`` subsets does.
    """
    r = cands.bit_count()
    if r <= 1 or search.first(nest, family | cands) is None:
        return 1 << r
    return 1 + sum(_count(search, nest, *node) for node in _children(search, nest, family, cands))


def _count_task(args) -> int:
    n, poset, family, cands = args
    return _count(poset_search(poset), cube(n), family, cands)


def count_p_free(n: int, poset: Poset, processes: int = 1) -> int:
    """Exact number of families over [n] containing no copy of ``poset``.

    Depth-first over masks in ascending order, carrying the chosen family
    and the masks still addable to it (see :func:`_count`).  The
    ``census_dfs_n`` cap bounds n; no runtime is promised below it.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    caps = get_caps()
    if n > caps.census_dfs_n:
        raise TooLargeError(
            f"counting over 2^[{n}] exceeds the cap of {caps.census_dfs_n}"
        )
    if processes < 1:
        raise DomainError("processes must be positive")
    search, nest = poset_search(poset), cube(n)
    root = _addable(search, nest, 0, nest.full)
    if processes == 1:
        return _count(search, nest, 0, root)
    # one task per child of the root: the free families with a given least member
    tasks = [(n, poset, *node) for node in _children(search, nest, 0, root)]
    workers = max(1, min(processes, len(tasks), os.cpu_count() or 1))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return 1 + sum(pool.map(_count_task, tasks))


def la(n: int, poset: Poset) -> int:
    """Exact maximum size of a ``poset``-free family over [n].

    Branch and bound over masks ordered middle-out, including each mask
    first so large families appear early.  An m-element poset embeds in any
    m-chain, so a free family has no m nested members: each of the n!
    maximal chains meets at most m-1 of them, so their weights
    ``n!/C(n,|F|)`` sum to at most ``(m-1) n!``.  Packing the cheapest
    remaining masks into what is left of that budget bounds any completion.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    caps = get_caps()
    if n > caps.la_n:
        raise TooLargeError(
            f"maximum-size search over 2^[{n}] exceeds the cap of {caps.la_n}"
        )
    search, nest = poset_search(poset), cube(n)
    masks = sorted(
        range(1 << n),
        key=lambda m: (abs(2 * m.bit_count() - n), m.bit_count(), m),
    )
    # nondecreasing along the middle-out order, so a suffix is cheapest first
    weight = [factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in masks]
    spent = [0, *accumulate(weight)]

    best = 0

    def run(idx: int, size: int, family: int, budget: int) -> None:
        nonlocal best
        best = max(best, size)
        # past the last mask the room is 0, which ends the branch
        room = bisect_right(spent, budget + spent[idx]) - 1 - idx
        if size + room <= best:
            return
        mask = masks[idx]
        child = family | 1 << mask
        if search.through(nest, child, mask) is None:
            run(idx + 1, size + 1, child, budget - weight[idx])
        run(idx + 1, size, family, budget)

    run(0, 0, 0, (poset.m - 1) * factorial(n))
    return best


def e_lower(poset: Poset, n_max: int) -> int:
    """Largest width with every consecutive-layer union poset-free.

    Checks all windows of ``width`` consecutive layer sizes inside every
    cube up to ``n_max`` and returns the largest width where all of them
    avoid the poset.  This certifies a lower bound for the poset's
    layer-union threshold; it cannot certify the value itself.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    caps = get_caps()
    if n_max > caps.e_lower_n:
        raise TooLargeError(
            f"layer probe up to n={n_max} exceeds the cap of {caps.e_lower_n}"
        )
    for width in range(1, n_max + 2):
        for n in range(n_max + 1):
            for start in range(n - width + 2):
                if not is_p_free(layer_family(n, range(start, start + width)), poset):
                    return width - 1
    return n_max + 1


def random_p_free_family(
    poset: Poset, n: int, seed: int, density: float = 1.0
) -> SetFamily:
    """A seeded poset-free family: greedy over a shuffled mask order.

    Masks are visited in a seed-determined order and kept whenever the
    family stays poset-free, producing a maximal free family; ``density``
    then keeps each member independently, which preserves freeness.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not 0.0 <= density <= 1.0:
        raise DomainError("density must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    search, nest = poset_search(poset), cube(n)
    family = 0
    for mask in rng.permutation(1 << n):
        mask = int(mask)
        if search.through(nest, family | 1 << mask, mask) is None:
            family |= 1 << mask
    members = [mask for mask in range(1 << n) if family >> mask & 1]
    if density < 1.0:
        keep = rng.random(len(members)) < density
        members = [m for m, k in zip(members, keep) if k]
    return SetFamily(n, tuple(members))


def layer_lower_bound(poset: Poset, n: int) -> tuple[int, SetFamily]:
    """The subfamily-count lower bound from the best height-1 layer block.

    For a poset of height k, any union of k-1 consecutive layers is free,
    and so is each of its ``2^size`` subfamilies.  Returns the bound and the
    witness union (the heaviest window, capped at the whole cube).
    """
    width = min(height(poset) - 1, n + 1)
    starts = range(n - width + 2) if width else (0,)
    start = max(
        starts, key=lambda s: (sum(comb(n, i) for i in range(s, s + width)), -s)
    )
    witness = layer_family(n, range(start, start + width))
    return 1 << witness.size, witness


@dataclass(frozen=True)
class ExperimentRow:
    """One line of the count-versus-containers bookkeeping table."""

    n: int
    count: int | None
    la: int | None
    lower_bound: int
    distinct_pairs: int
    max_residual_size: int
    max_residual_normalized: float
    upper_expression: int


def experiment_table(
    poset: Poset,
    n_values,
    t1: int | None = None,
    t2: int | None = None,
    seed: int = 0,
    samples: int = 20,
    root: int = 0,
) -> list[ExperimentRow]:
    """Count exactly where feasible and run sampled two-phase containers.

    Per n the row carries the exact count and maximum size (when under the
    caps), the layer-union lower bound (asserted against the count), and
    container bookkeeping over ``samples`` seeded free families: the number
    of distinct pairs, the largest residual (absolute and normalized by the
    middle binomial), and ``distinct * 2^(max residual)`` for inspection —
    that expression is reported, never asserted, against the count.
    """
    if samples < 1:
        raise DomainError("samples must be positive")
    caps = get_caps()
    rows = []
    for n in n_values:
        bound, witness = layer_lower_bound(poset, n)
        assert is_p_free(witness, poset)
        count = count_p_free(n, poset) if n <= caps.census_dfs_n else None
        if count is not None:
            assert count >= bound
        best = la(n, poset) if n <= caps.la_n else None
        pairs = set()
        max_residual = 0
        for i in range(samples):
            family = random_p_free_family(
                poset, n, seed=seed * 1_000_003 + n * 1_009 + i
            )
            pair = two_phase(poset, root, n, family, t1, t2)
            pairs.add((pair.certificate.members, pair.residual.members))
            max_residual = max(max_residual, pair.residual.size)
        rows.append(
            ExperimentRow(
                n=n,
                count=count,
                la=best,
                lower_bound=bound,
                distinct_pairs=len(pairs),
                max_residual_size=max_residual,
                max_residual_normalized=max_residual / comb(n, n // 2),
                upper_expression=len(pairs) << max_residual,
            )
        )
    return rows


def experiment_csv(rows: list[ExperimentRow]) -> str:
    """Render experiment rows as CSV with a fixed header, blanks for n/a."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "n",
            "count",
            "la",
            "lower_bound",
            "distinct_pairs",
            "max_residual_size",
            "max_residual_normalized",
            "upper_expression",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row.n,
                "" if row.count is None else row.count,
                "" if row.la is None else row.la,
                row.lower_bound,
                row.distinct_pairs,
                row.max_residual_size,
                repr(row.max_residual_normalized),
                row.upper_expression,
            ]
        )
    return out.getvalue()
