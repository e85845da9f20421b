"""Brute-force reference answers the benchmark checks outputs against.

They are written here, apart from the library, so that a check never asks
the code under test to grade itself.
"""

from __future__ import annotations

import itertools
from math import comb, factorial


def order_below(m: int, covers) -> list[int]:
    """Per element, the bitset of elements strictly below it."""
    below = [0] * m
    for _ in range(m):
        for low, high in covers:
            below[high] |= below[low] | (1 << low)
    return below


def linear_extension(m: int, below: list[int]) -> list[int]:
    """Elements ordered so that everything below an element comes first."""
    return sorted(range(m), key=lambda e: below[e].bit_count())


def contains(members, m: int, below: list[int], order: list[int]) -> bool:
    """Whether some injection sends x < y to strictly nested members."""
    members = list(members)
    image = [None] * m

    def place(d: int, used: set[int]) -> bool:
        if d == m:
            return True
        e = order[d]
        lows = [image[f] for f in range(m) if below[e] >> f & 1]
        for mask in members:
            if mask in used:
                continue
            if all(low != mask and low & mask == low for low in lows):
                image[e] = mask
                used.add(mask)
                if place(d + 1, used):
                    return True
                used.discard(mask)
        return False

    return place(0, set())


def chain_hits(n: int, members) -> list[list[int]]:
    """Per maximal chain of 2^[n], the sizes of the members it meets."""
    member_set = set(members)
    chains = []
    for perm in itertools.permutations(range(n)):
        mask = 0
        sizes = [0] if 0 in member_set else []
        for size, e in enumerate(perm, start=1):
            mask |= 1 << e
            if mask in member_set:
                sizes.append(size)
        chains.append(sizes)
    return chains


def chain_profile(n: int, members) -> tuple[int, ...]:
    counts = [0] * (n + 2)
    for sizes in chain_hits(n, members):
        counts[len(sizes)] += 1
    return tuple(counts)


def marked_chains(n: int, members, k: int, a: int) -> int:
    total = 0
    for sizes in chain_hits(n, members):
        for combo in itertools.combinations(sizes, k):
            if all(hi - lo >= a for lo, hi in zip(combo, combo[1:])):
                total += 1
    return total


def profile_identities_hold(n: int, members, counts) -> bool:
    """Chain count is n!, and incidences add up member by member."""
    incidences = sum(
        factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in members
    )
    return (
        len(counts) == n + 2
        and sum(counts) == factorial(n)
        and sum(i * c for i, c in enumerate(counts)) == incidences
    )


def marked_upper_bound(counts, k: int) -> int:
    """Selections of k markers per chain with no gap condition (a = 1)."""
    return sum(comb(i, k) * c for i, c in enumerate(counts))


def la_chain(n: int, k: int) -> int:
    """Largest family with no k-chain: the k-1 largest layers (Erdős)."""
    return sum(sorted((comb(n, i) for i in range(n + 1)), reverse=True)[: k - 1])
