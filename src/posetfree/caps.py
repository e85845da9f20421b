"""Size caps that guard the exponential-time constructions.

Every cap can be overridden through the ``POSET_CONTAINERS_CAPS``
environment variable, which holds a JSON object whose keys are field names
of :class:`Caps`, e.g. ``POSET_CONTAINERS_CAPS='{"blowup_elements": 500}'``.
Caps are read at call time so test code may monkeypatch the environment.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

ENV_VAR = "POSET_CONTAINERS_CAPS"


@dataclass(frozen=True)
class Caps:
    # maximum number of elements a blowup may have
    blowup_elements: int = 1_000_000
    # largest n for which chain statistics iterate all n! permutations
    profile_perm_n: int = 10
    # largest n for the lattice-walk dynamic programs (exact chain profiles)
    profile_dp_n: int = 14
    # largest n the pruned census search accepts
    census_dfs_n: int = 5
    # largest n for exact maximum-family-size search
    la_n: int = 6
    # largest n swept by the consecutive-layer freeness probe
    e_lower_n: int = 8


DEFAULT_CAPS = Caps()


def get_caps() -> Caps:
    """Return the active caps, applying any environment override."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return DEFAULT_CAPS
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError(f"{ENV_VAR} must hold a JSON object, got {raw!r}")
    known = {f.name for f in fields(Caps)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown cap names in {ENV_VAR}: {sorted(unknown)}")
    for key, value in data.items():
        if type(value) is not int or value < 1:
            raise ValueError(f"cap {key!r} must be a positive integer")
    return replace(DEFAULT_CAPS, **data)
