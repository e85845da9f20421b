"""Exception types shared across the library.

Structural failures of poset inputs derive from ``PosetError``; the
remaining types flag bad argument domains, instances beyond the exact-mode
size caps, violated operation hypotheses, and the one genuinely semantic
failure (``NotPFreeError``: a family claimed to avoid a poset turned out to
contain a copy of it).
"""


class PosetError(Exception):
    """Base class for structurally invalid poset inputs."""


class CycleError(PosetError):
    """The cover relation contains a directed cycle (or a self-loop)."""


class NotReducedError(PosetError):
    """A cover pair is already implied transitively by the others."""


class NotTreeError(PosetError):
    """The underlying Hasse graph is not a tree (connected and acyclic)."""


class NotGradedError(PosetError):
    """Maximal chains of the poset do not all have the same size."""


class IsChainError(PosetError):
    """The operation requires a poset that is not a single chain."""


class DomainError(ValueError):
    """An argument lies outside its documented domain."""


class TooLargeError(Exception):
    """An instance exceeds a configured cap (or a search, the recursion limit)."""


class PreconditionError(Exception):
    """The input violates a documented hypothesis of the operation."""


class InvalidMarkedChainError(Exception):
    """A marked chain is malformed or its markers lie outside the family."""


class NotPFreeError(Exception):
    """A family required to avoid the forbidden poset contains a copy of it."""
