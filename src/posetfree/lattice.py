"""Set families in the subset lattice of [n] and their chain statistics.

A family is a set of subsets of {1,...,n}, stored as bitmasks (bit i set
means element i+1 is present).  Maximal chains of the lattice correspond
to permutations of [n]: the chain visits the empty set, then adds one
element at a time.

The chain profile of a family counts, for each i, the maximal chains that
meet the family in exactly i sets.  A (k,a)-marked chain is a maximal
chain together with k of its family members F_1 ⊋ F_2 ⊋ … ⊋ F_k whose
consecutive sizes differ by at least a.  ``count_marked_chains`` computes
the exact number of such pairs by dynamic programming over nested members
with factorial weights (the number of maximal chains through a fixed
nested tuple is the product of the factorials of the size gaps);
``marked_chain_lower_bound`` evaluates the guarantee that any family
larger than ((k-1)a+ε)·C(n,⌊n/2⌋) admits at least (ε/k)·n! of them.
"""
from __future__ import annotations

import itertools

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, log2

from .caps import get_caps
from .errors import (
    DomainError,
    InvalidMarkedChainError,
    PreconditionError,
    TooLargeError,
)


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of {1,...,n} as strictly sorted bitmasks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be strictly sorted, without duplicates")
        if self.members and not 0 <= self.members[0] <= self.members[-1] < (1 << self.n):
            raise ValueError(f"members must be masks in [0, 2^{self.n})")

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetFamily":
        return cls(n, tuple(sorted(set(masks))))

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set

    @property
    def size(self) -> int:
        return len(self.members)


def layer_family(n: int, sizes) -> SetFamily:
    """All subsets of [n] whose size lies in ``sizes``."""
    wanted = set(sizes)
    return SetFamily(n, tuple(m for m in range(1 << n) if m.bit_count() in wanted))


def complement_family(family: SetFamily) -> SetFamily:
    """The family of complements; applying it twice returns the original."""
    full = (1 << family.n) - 1
    return SetFamily.from_masks(family.n, (full ^ m for m in family.members))


def family_to_text(family: SetFamily) -> str:
    """Ground-set size line, then one 0/1 row per member (char i ⇔ element i+1)."""
    rows = ["".join("1" if m >> i & 1 else "0" for i in range(family.n)) for m in family.members]
    return "\n".join([str(family.n), *rows]) + "\n"


def family_from_text(text: str) -> SetFamily:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("family text must start with the ground-set size")
    n = int(lines[0])
    masks = []
    for row in lines[1:]:
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"member row {row!r} is not an n-character 0/1 string")
        masks.append(sum(1 << i for i, ch in enumerate(row) if ch == "1"))
    return SetFamily.from_masks(n, masks)


def family_to_dict(family: SetFamily) -> dict:
    return {"n": family.n, "members": list(family.members)}


def family_from_dict(data: dict) -> SetFamily:
    """Parse the wire format of :func:`family_to_dict`, without coercion."""
    if not (isinstance(data, dict) and type(data.get("n")) is int
            and type(data.get("members")) is list
            and all(type(m) is int for m in data["members"])):
        raise ValueError('family JSON must be {"n": int, "members": [int, ...]}')
    return SetFamily.from_masks(data["n"], data["members"])


@dataclass(frozen=True)
class ChainProfile:
    """counts[i] = number of maximal chains containing exactly i members."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        assert len(self.counts) == self.n + 2
        assert all(c >= 0 for c in self.counts)
        assert sum(self.counts) == factorial(self.n)

    def mean_members(self) -> float:
        return sum(i * c for i, c in enumerate(self.counts)) / factorial(self.n)


def entropy_bound(alpha: float, n: int) -> tuple[int, float]:
    """(sum of C(n,i) for i <= alpha*n, 2^{H(alpha)*n}) with lhs <= rhs.

    H is the binary entropy function, with H(0) = 0 by convention.
    """
    if not 0 <= alpha <= 0.5:
        raise DomainError(f"alpha must lie in [0, 1/2], got {alpha}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = sum(comb(n, i) for i in range(n + 1) if i <= alpha * n + 1e-9)
    if alpha in (0.0, 1.0):
        entropy = 0.0
    else:
        entropy = -alpha * log2(alpha) - (1 - alpha) * log2(1 - alpha)
    rhs = 2.0 ** (entropy * n)
    assert lhs <= rhs * (1 + 1e-12)
    return lhs, rhs


def trim_alpha(family: SetFamily, alpha: float) -> tuple[SetFamily, SetFamily]:
    """Split into (middle, tail): the tail holds members of size < alpha*n
    or size > (1-alpha)*n, for alpha in [0, 1/2]."""
    if not 0 <= alpha <= 0.5:
        raise DomainError(f"alpha must lie in [0, 1/2], got {alpha}")
    n = family.n
    tail = [m for m in family.members if m.bit_count() < alpha * n or m.bit_count() > (1 - alpha) * n]
    tail_set = set(tail)
    mid = [m for m in family.members if m not in tail_set]
    return SetFamily(n, tuple(mid)), SetFamily(n, tuple(tail))


def chain_profile(family: SetFamily) -> ChainProfile:
    """Exact chain profile by dynamic programming over the subset lattice."""
    n = family.n
    if n > get_caps().profile_dp_n:
        raise TooLargeError(
            f"exact chain profile is capped at n={get_caps().profile_dp_n}"
        )
    members = family.member_set
    width = n + 2
    table: list[list[int] | None] = [None] * (1 << n)
    start = [0] * width
    start[1 if 0 in members else 0] = 1
    table[0] = start
    for mask in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        row = [0] * width
        shift = 1 if mask in members else 0
        bits = mask
        while bits:
            low = bits & -bits
            prev = table[mask ^ low]
            for j in range(mask.bit_count() + 1):
                if prev[j]:
                    row[j + shift] += prev[j]
            bits ^= low
        table[mask] = row
    counts = tuple(table[(1 << n) - 1])
    # chains through a fixed set of size s number s!(n-s)!
    assert sum(i * c for i, c in enumerate(counts)) == sum(
        factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in family.members
    )
    return ChainProfile(n, counts)


@dataclass(frozen=True)
class MarkedChain:
    """A maximal chain (as the permutation adding elements one at a time)
    with k marker sizes, largest first."""

    perm: tuple[int, ...]
    marker_sizes: tuple[int, ...]

    def marker_masks(self) -> tuple[int, ...]:
        prefix = [0]
        for e in self.perm:
            prefix.append(prefix[-1] | (1 << e))
        return tuple(prefix[s] for s in self.marker_sizes)

    def validate(self, family: SetFamily, a: int = 1) -> None:
        """Raise InvalidMarkedChainError unless this is a (k,a)-marked chain
        of the family."""
        n = family.n
        if sorted(self.perm) != list(range(n)):
            raise InvalidMarkedChainError(f"perm must be a permutation of range({n})")
        if not self.marker_sizes:
            raise InvalidMarkedChainError("at least one marker is required")
        if not all(0 <= s <= n for s in self.marker_sizes):
            raise InvalidMarkedChainError("marker sizes must lie in [0, n]")
        for big, small in zip(self.marker_sizes, self.marker_sizes[1:]):
            if big - small < a:
                raise InvalidMarkedChainError(
                    f"consecutive marker sizes must drop by at least {a}"
                )
        for mask in self.marker_masks():
            if mask not in family:
                raise InvalidMarkedChainError(f"marker mask {mask} is not a family member")


def count_marked_chains(family: SetFamily, k: int, a: int) -> int:
    """Exact number of (maximal chain, k nested markers) pairs.

    Nested marker tuples F_1 ⊋ … ⊋ F_k with size gaps >= a are weighted by
    the number of maximal chains through them, which is the product of the
    factorials of the consecutive size differences (including the segments
    below F_k and above F_1).
    """
    if k < 1 or a < 1:
        raise DomainError("k and a must be positive integers")
    n = family.n
    if n > get_caps().profile_dp_n:
        raise TooLargeError(
            f"exact marked-chain counting is capped at n={get_caps().profile_dp_n}"
        )
    full = (1 << n) - 1
    weights = {m: factorial(n - m.bit_count()) for m in family.members}
    for _ in range(k - 1):
        nxt = {}
        for b in family.members:
            comp = full ^ b
            total = 0
            sub = comp
            while sub:
                sup = b | sub
                w = weights.get(sup)
                if w is not None and sub.bit_count() >= a:
                    total += w * factorial(sub.bit_count())
                sub = (sub - 1) & comp
            if total:
                nxt[b] = total
        weights = nxt
    count = sum(w * factorial(b.bit_count()) for b, w in weights.items())

    # per-chain selections are at least the compressed binomial count
    profile = chain_profile(family)
    shift = (k - 1) * (a - 1)
    floor = sum(
        comb(i - shift, k) * c
        for i, c in enumerate(profile.counts)
        if i - shift >= k and c
    )
    if a == 1:
        assert count == floor
    else:
        assert count >= floor
    return count


def enumerate_marked_chains(family: SetFamily, k: int, a: int):
    """Yield every (k,a)-marked chain of the family (small n only)."""
    if k < 1 or a < 1:
        raise DomainError("k and a must be positive integers")
    n = family.n
    if n > get_caps().profile_perm_n:
        raise TooLargeError(
            f"marked-chain enumeration is capped at n={get_caps().profile_perm_n}"
        )
    members = family.member_set
    for perm in itertools.permutations(range(n)):
        sizes = [0] if 0 in members else []
        mask = 0
        for i, e in enumerate(perm):
            mask |= 1 << e
            if mask in members:
                sizes.append(i + 1)
        sizes.reverse()
        for combo in itertools.combinations(sizes, k):
            if all(combo[i] - combo[i + 1] >= a for i in range(k - 1)):
                yield MarkedChain(tuple(perm), tuple(combo))


def marked_chain_lower_bound(
    family: SetFamily, k: int, a: int, eps: float
) -> tuple[bool, float]:
    """Evaluate the guarantee: families above the size threshold admit at
    least (eps/k)*n! marked chains.  Returns (holds, bound)."""
    if k < 1 or a < 1:
        raise DomainError("k and a must be positive integers")
    if eps <= 0:
        raise DomainError("eps must be positive")
    n = family.n
    threshold = ((k - 1) * a + eps) * comb(n, n // 2)
    if not family.size > threshold:
        raise PreconditionError(
            f"family size {family.size} does not exceed the threshold {threshold:.6g}"
        )
    bound = (eps / k) * factorial(n)
    count = count_marked_chains(family, k, a)
    return count >= bound, bound
