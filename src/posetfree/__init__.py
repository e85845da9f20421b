"""Exact combinatorics of forbidden-subposet set systems.

The package is organised bottom-up:

* :mod:`posetfree.poset` — finite posets given by cover relations:
  validation, height, chains, duals, gradedness, tree diagrams.
* :mod:`posetfree.fixtures` — a small catalogue of named posets plus
  seeded random tree-poset generators.
* :mod:`posetfree.blowup` — multiplicity-``t`` blowups of a tree poset
  anchored at a root, with the fan bookkeeping the container algorithm
  consumes.
* :mod:`posetfree.grading` — graded completions of tree posets and graded
  chain covers.
* :mod:`posetfree.lattice` — set families inside the Boolean lattice
  2^[n]: chain profiles, marked-chain counts and bounds, trimming.
* :mod:`posetfree.embedding` — order-preserving copies of a poset inside a
  family: full search, incremental checks, least-copy search in a blowup.
* :mod:`posetfree.containers` — the deterministic carve/prune container
  algorithm, two-phase composition, collections, verification.
* :mod:`posetfree.census` — exhaustive ground truth: exact counts of
  copy-free families, largest copy-free family sizes, experiment tables.
* :mod:`posetfree.cli` — the ``posetfree`` command-line tool.
"""

from .blowup import BlowupPoset, blowup, blowup_size
from .caps import Caps, get_caps
from .census import (
    ExperimentRow,
    count_p_free,
    e_lower,
    experiment_csv,
    experiment_table,
    la,
    layer_lower_bound,
    random_p_free_family,
)
from .containers import (
    ContainerCollection,
    ContainerPair,
    ContainerParams,
    build_collection,
    collection_size_bound,
    container_pair,
    container_pair_from_dict,
    container_pair_to_dict,
    two_phase,
    verify_pair,
)
from .embedding import (
    Embedding,
    EmbeddingFailure,
    check_embedding,
    contains_poset,
    contains_poset_through,
    embed_via_marked_chains,
    first_copy,
    is_p_free,
)
from .errors import (
    CycleError,
    DomainError,
    InvalidMarkedChainError,
    IsChainError,
    NotGradedError,
    NotPFreeError,
    NotReducedError,
    NotTreeError,
    PosetError,
    PreconditionError,
    TooLargeError,
)
from .fixtures import fixture, fixture_names, random_graded_tree_poset, random_tree_poset
from .grading import (
    GradedChainCover,
    GradedCompletion,
    find_removable_interval,
    graded_chain_cover,
    graded_completion,
    verify_chain_cover,
)
from .lattice import (
    ChainProfile,
    MarkedChain,
    SetFamily,
    chain_profile,
    complement_family,
    count_marked_chains,
    entropy_bound,
    enumerate_marked_chains,
    family_from_dict,
    family_from_text,
    family_to_dict,
    family_to_text,
    layer_family,
    marked_chain_lower_bound,
    trim_alpha,
)
from .poset import (
    HasseGraph,
    LeafOrdering,
    Poset,
    dual,
    hasse_graph,
    height,
    interval,
    is_chain,
    is_graded,
    is_tree_poset,
    leaf_ordering,
    maximal_chains,
    poset_from_dict,
    poset_to_dict,
    restrict,
    validate_poset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # poset
    "Poset", "HasseGraph", "LeafOrdering", "validate_poset", "poset_to_dict",
    "poset_from_dict", "hasse_graph", "height", "maximal_chains", "dual",
    "interval", "restrict", "is_chain", "is_graded", "is_tree_poset",
    "leaf_ordering",
    # fixtures
    "fixture", "fixture_names", "random_tree_poset", "random_graded_tree_poset",
    # blowup
    "BlowupPoset", "blowup", "blowup_size",
    # grading
    "GradedCompletion", "GradedChainCover", "graded_completion",
    "graded_chain_cover", "verify_chain_cover", "find_removable_interval",
    # lattice
    "SetFamily", "ChainProfile", "MarkedChain", "chain_profile",
    "count_marked_chains", "enumerate_marked_chains",
    "marked_chain_lower_bound", "entropy_bound",
    "trim_alpha", "complement_family", "layer_family", "family_to_dict",
    "family_from_dict", "family_to_text", "family_from_text",
    # embedding
    "Embedding", "EmbeddingFailure", "contains_poset",
    "contains_poset_through", "is_p_free", "first_copy", "check_embedding",
    "embed_via_marked_chains",
    # containers
    "ContainerParams", "ContainerPair", "ContainerCollection",
    "container_pair", "two_phase", "build_collection", "verify_pair",
    "collection_size_bound", "container_pair_to_dict",
    "container_pair_from_dict",
    # census
    "ExperimentRow", "count_p_free", "la", "e_lower",
    "random_p_free_family", "layer_lower_bound", "experiment_table",
    "experiment_csv",
    # caps
    "Caps", "get_caps",
    # errors
    "PosetError", "CycleError", "NotReducedError", "NotTreeError",
    "NotGradedError", "IsChainError", "DomainError",
    "TooLargeError", "PreconditionError", "NotPFreeError",
    "InvalidMarkedChainError",
]
