"""Deterministic container pairs for blowup-free families.

Given a source family S, a tree poset P with a chosen root, and a
multiplicity t, every subfamily F of S that avoids P is squeezed between a
small *certificate* H and a *residual* G:

* ``H <= F <= H | G`` with ``|H| <= |P| * |S| / t``,
* G contains no copy of the blowup ``P(root, t)``,
* the run is deterministic and the certificate determines the residual, so
  the number of distinct pairs over all inputs is bounded by the number of
  small subsets of S rather than by the number of inputs.

The carving loop repeatedly locates the least blowup copy in the residual
(:func:`~posetfree.embedding.first_copy`).  If the copy's root image lies
outside F, that single mask is pruned from the residual.  Otherwise a copy
of P inside F is grown through the blowup's fans, always taking the first
fan member whose image is in F; the first fan with no image in F ends the
round by moving the partial copy into the certificate and carving the fan
together with the partial copy out of the residual.  A partial copy that
reaches all of P is a copy of P inside F, so F was not P-free.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .blowup import blowup
from .embedding import first_copy
from .errors import DomainError, NotPFreeError, PreconditionError
from .lattice import SetFamily, family_from_dict, family_to_dict
from .poset import Poset, poset_from_dict, poset_to_dict

__all__ = [
    "ContainerParams",
    "ContainerPair",
    "ContainerCollection",
    "container_pair",
    "two_phase",
    "build_collection",
    "verify_pair",
    "collection_size_bound",
    "container_pair_to_dict",
    "container_pair_from_dict",
]


@dataclass(frozen=True)
class ContainerParams:
    """Provenance of a pair: forbidden poset, blowup root and multiplicity,
    and the source family the pair was carved from."""

    poset: Poset
    root: int
    t: int
    source: SetFamily


@dataclass(frozen=True)
class ContainerPair:
    """A certificate/residual pair produced by :func:`container_pair`.

    ``prune_count`` and ``carve_count`` record how many rounds removed a
    lone root image and how many carved out a fan; together they bound the
    sizes: ``|certificate| <= |P| * carve_count`` and the residual lost at
    least ``t * carve_count + prune_count`` members.
    """

    certificate: SetFamily
    residual: SetFamily
    params: ContainerParams
    prune_count: int = 0
    carve_count: int = 0


@dataclass(frozen=True)
class ContainerCollection:
    """Distinct pairs covering a batch of inputs, in first-seen order."""

    pairs: tuple[ContainerPair, ...]
    inputs_processed: int
    size_bound: int

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    @property
    def max_certificate_size(self) -> int:
        return max((p.certificate.size for p in self.pairs), default=0)

    @property
    def max_residual_size(self) -> int:
        return max((p.residual.size for p in self.pairs), default=0)


def container_pair(
    poset: Poset, root: int, t: int, source: SetFamily, family: SetFamily
) -> ContainerPair:
    """Carve ``source`` into a certificate/residual pair around ``family``.

    ``family`` must be a subfamily of ``source``; if it contains a copy of
    ``poset`` the run may detect that (by completing a copy) and raise
    :class:`NotPFreeError`.  The result depends only on the arguments, and
    equal certificates imply equal residuals across runs with the same
    ``(poset, root, t, source)``.
    """
    if family.n != source.n:
        raise PreconditionError("family and source use different ground sets")
    if not family.member_set <= source.member_set:
        raise PreconditionError("family must be a subfamily of the source")
    blow = blowup(poset, root, t)
    n = source.n
    in_family = family.member_set
    residual = set(source.members)
    certificate: set[int] = set()
    prunes = carves = 0
    floor: tuple[int, ...] | None = None
    while True:
        # Members only ever leave the residual, so the previous least copy
        # key is a valid floor for the next search.
        emb = first_copy(SetFamily(n, tuple(sorted(residual))), blow, floor=floor)
        if emb is None:
            break
        image = emb.assignment
        floor = image
        root_mask = image[0]
        if root_mask not in in_family:
            residual.remove(root_mask)
            prunes += 1
            continue
        # Grow a copy of the poset inside the family along the blowup fans:
        # chosen[p] = (mask, copy index) at leaf-ordering position p.
        chosen = {1: (root_mask, 1)}
        carved = False
        for j in range(1, poset.m):
            anchor_copy = chosen[blow.parent_position[j]][1]
            fan = blow.group_ids(j + 1, anchor_copy)
            hit = next((e for e in fan if image[e] in in_family), None)
            if hit is None:
                partial = {mask for mask, _ in chosen.values()}
                certificate |= partial
                residual -= partial | {image[e] for e in fan}
                carves += 1
                carved = True
                break
            chosen[j + 1] = (image[hit], hit - blow.offsets[j] + 1)
        if not carved:
            raise NotPFreeError(
                "input family contains a copy of the forbidden poset"
            )
    pair = ContainerPair(
        certificate=SetFamily(n, tuple(sorted(certificate))),
        residual=SetFamily(n, tuple(sorted(residual))),
        params=ContainerParams(poset=poset, root=root, t=t, source=source),
        prune_count=prunes,
        carve_count=carves,
    )
    assert len(certificate) <= poset.m * carves
    assert source.size - len(residual) >= t * carves + prunes
    assert certificate <= in_family <= certificate | residual
    return pair


def two_phase(
    poset: Poset,
    root: int,
    n: int,
    family: SetFamily,
    t1: int | None = None,
    t2: int | None = None,
) -> ContainerPair:
    """Run the carving twice: coarse over the full cube, then fine.

    Phase one carves the whole cube on [n] with multiplicity ``t1``
    (default n); phase two re-carves the surviving residual with the much
    smaller ``t2`` (default the bit length of n - 1, at least 1).  The
    returned pair joins the certificates and keeps the final residual, with
    provenance and counts taken from/summed over the phases.  The final
    residual is contained in the phase-one residual (``params.source``).
    """
    if n < 1:
        raise DomainError("n must be positive")
    if family.n != n:
        raise PreconditionError("family does not use ground set size n")
    if t1 is None:
        t1 = n
    if t2 is None:
        t2 = max(1, (n - 1).bit_length())
    cube = SetFamily(n, tuple(range(1 << n)))
    coarse = container_pair(poset, root, t1, cube, family)
    survivors = coarse.residual
    inner = SetFamily(
        n, tuple(m for m in family.members if m in survivors.member_set)
    )
    fine = container_pair(poset, root, t2, survivors, inner)
    certificate = SetFamily.from_masks(
        n, coarse.certificate.members + fine.certificate.members
    )
    pair = ContainerPair(
        certificate=certificate,
        residual=fine.residual,
        params=fine.params,
        prune_count=coarse.prune_count + fine.prune_count,
        carve_count=coarse.carve_count + fine.carve_count,
    )
    cert = certificate.member_set
    assert cert <= family.member_set <= cert | pair.residual.member_set
    assert pair.residual.member_set <= survivors.member_set
    return pair


def _pair_task(args) -> ContainerPair:
    return container_pair(*args)


def build_collection(
    poset: Poset,
    root: int,
    t: int,
    source: SetFamily,
    inputs: Sequence[SetFamily],
    processes: int = 1,
) -> ContainerCollection:
    """Carve every input against a shared source and collect distinct pairs.

    Inputs are processed in order, optionally across at most ``processes``
    worker processes, one per input and per core; results are merged in
    input order, so the outcome is identical.  Repeated certificates are
    checked to reproduce the same pair.  A :class:`NotPFreeError` from some
    input is re-raised with that input's position prepended.
    """
    if processes < 1:
        raise DomainError("processes must be positive")
    tasks = [(poset, root, t, source, fam) for fam in inputs]
    workers = min(processes, len(tasks), os.cpu_count() or 1)

    def run_all():
        if workers <= 1:
            yield from map(_pair_task, tasks)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(_pair_task, tasks)

    distinct: dict[tuple[int, ...], ContainerPair] = {}
    ordered: list[ContainerPair] = []
    idx = 0
    try:
        for pair in run_all():
            key = pair.certificate.members
            if key in distinct:
                assert distinct[key] == pair, (
                    "equal certificates must reproduce equal pairs"
                )
            else:
                distinct[key] = pair
                ordered.append(pair)
            idx += 1
    except NotPFreeError as exc:
        raise NotPFreeError(f"input {idx}: {exc}") from exc
    bound = collection_size_bound(poset.m, source.size, t)
    assert len(ordered) <= bound
    return ContainerCollection(
        pairs=tuple(ordered), inputs_processed=len(tasks), size_bound=bound
    )


def verify_pair(pair: ContainerPair, family: SetFamily) -> dict[str, bool]:
    """Re-check the pair's three guarantees against an input family.

    Returns one boolean per clause: the certificate and residual sandwich
    the family, the certificate respects the size budget of its recorded
    provenance, and the residual has no copy of the recorded blowup.  Pairs
    straight from :func:`container_pair` pass all three for their input;
    two-phase pairs may exceed the (phase-two) budget clause.
    """
    params = pair.params
    cert = pair.certificate.member_set
    resid = pair.residual.member_set
    fam = family.member_set
    budget = Fraction(params.poset.m * params.source.size, params.t)
    return {
        "covers_family": cert <= fam and fam <= cert | resid,
        "certificate_small": pair.certificate.size <= budget,
        "residual_blowup_free": first_copy(
            pair.residual, blowup(params.poset, params.root, params.t)
        )
        is None,
    }


def collection_size_bound(poset_size: int, source_size: int, t: int) -> int:
    """Count subsets of the source no larger than the certificate budget.

    Every certificate is a subset of the source of size at most
    ``poset_size * source_size / t``, so this sum bounds the number of
    distinct pairs any collection can contain.
    """
    if poset_size < 0 or source_size < 0:
        raise DomainError("sizes must be nonnegative")
    if t < 1:
        raise DomainError("t must be positive")
    cap = min(source_size, (poset_size * source_size) // t)
    return sum(comb(source_size, i) for i in range(cap + 1))


def container_pair_to_dict(pair: ContainerPair) -> dict:
    return {
        "certificate": family_to_dict(pair.certificate),
        "residual": family_to_dict(pair.residual),
        "params": {
            "poset": poset_to_dict(pair.params.poset),
            "root": pair.params.root,
            "t": pair.params.t,
            "source": family_to_dict(pair.params.source),
        },
        "stats": {
            "prune_count": pair.prune_count,
            "carve_count": pair.carve_count,
        },
    }


def _entry(data, key: str, kind: type, default=None):
    """``data[key]``, which must have exactly type ``kind``, else ValueError."""
    value = data.get(key, default) if isinstance(data, dict) else None
    if type(value) is not kind:
        raise ValueError(f"container pair JSON needs {kind.__name__} {key!r}")
    return value


def container_pair_from_dict(data: dict) -> ContainerPair:
    """Parse the wire format of :func:`container_pair_to_dict`, without coercion."""
    params = _entry(data, "params", dict)
    stats = _entry(data, "stats", dict, {})
    return ContainerPair(
        certificate=family_from_dict(_entry(data, "certificate", dict)),
        residual=family_from_dict(_entry(data, "residual", dict)),
        params=ContainerParams(
            poset=poset_from_dict(_entry(params, "poset", dict)),
            root=_entry(params, "root", int),
            t=_entry(params, "t", int),
            source=family_from_dict(_entry(params, "source", dict)),
        ),
        prune_count=_entry(stats, "prune_count", int, 0),
        carve_count=_entry(stats, "carve_count", int, 0),
    )
