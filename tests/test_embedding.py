"""Containment search, canonical first copies, marked-chain embeddings."""
from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from posetfree.blowup import blowup, blowup_size
from posetfree.embedding import (
    Embedding,
    EmbeddingFailure,
    check_embedding,
    contains_poset,
    contains_poset_through,
    embed_via_marked_chains,
    first_copy,
    is_p_free,
)
from posetfree.errors import InvalidMarkedChainError, PreconditionError, TooLargeError
from posetfree.fixtures import (
    FIXTURES,
    fixture,
    fixture_names,
    random_graded_tree_poset,
    random_tree_poset,
)
from posetfree.grading import graded_chain_cover
from posetfree.lattice import (
    MarkedChain,
    SetFamily,
    complement_family,
    enumerate_marked_chains,
    layer_family,
)
from posetfree.poset import dual, height, validate_poset

BUTTERFLY = fixture("butterfly")


def full_family(n: int) -> SetFamily:
    return SetFamily(n, tuple(range(1 << n)))


def random_family(n: int, seed: int, density: float = 0.5) -> SetFamily:
    rng = np.random.Generator(np.random.Philox(seed))
    picks = rng.random(1 << n) < density
    return SetFamily.from_masks(n, (m for m in range(1 << n) if picks[m]))


class TestContainsPoset:
    def test_v_in_a_nested_triple(self):
        fam = SetFamily.from_masks(2, [0, 1, 3])
        emb = contains_poset(fam, fixture("v"))
        assert emb == Embedding(fam, (0, 3, 1))
        assert check_embedding(fixture("v"), emb) == []

    def test_antichain_has_no_two_chain(self):
        assert contains_poset(layer_family(4, [2]), fixture("chain2")) is None

    def test_butterfly_needs_three_points(self):
        assert contains_poset(full_family(2), BUTTERFLY) is None
        emb = contains_poset(full_family(3), BUTTERFLY)
        assert emb is not None
        assert check_embedding(BUTTERFLY, emb) == []

    def test_nested_chain_contains_the_chain_poset(self):
        fam = SetFamily.from_masks(3, [0, 1, 3, 7])
        emb = contains_poset(fam, fixture("chain4"))
        assert emb is not None and emb.assignment == (0, 1, 3, 7)

    def test_family_smaller_than_poset(self):
        assert contains_poset(SetFamily(3, (0, 7)), fixture("v")) is None

    def test_matches_injection_oracle_exhaustively(self):
        posets = [fixture(name) for name in ("chain1", "chain2", "chain3", "v", "n")]
        for bits in range(16):
            fam = SetFamily.from_masks(2, (m for m in range(4) if bits >> m & 1))
            for poset in posets:
                expected = (
                    oracles.contains_injection(
                        fam.members, poset.m, poset.sorted_covers()
                    )
                    is not None
                )
                emb = contains_poset(fam, poset)
                assert (emb is not None) == expected
                if emb is not None:
                    assert check_embedding(poset, emb) == []

    def test_matches_injection_oracle_on_random_corpus(self):
        posets = [
            fixture(name)
            for name in ("v", "lambda", "n", "path4", "x", "butterfly", "chain4")
        ]
        for seed in range(12):
            fam = random_family(3, seed)
            for poset in posets:
                expected = (
                    oracles.contains_injection(
                        fam.members, poset.m, poset.sorted_covers()
                    )
                    is not None
                )
                assert (contains_poset(fam, poset) is not None) == expected

    def test_dual_symmetry(self):
        posets = [fixture(name) for name in ("v", "n", "path4", "x", "chain3")]
        for seed in range(10):
            fam = random_family(3, seed + 50)
            for poset in posets:
                assert (contains_poset(fam, poset) is None) == (
                    contains_poset(complement_family(fam), dual(poset)) is None
                )


class TestContainsPosetThrough:
    def test_finds_only_copies_using_the_mask(self):
        poset = fixture("v")
        for seed in range(20):
            fam = random_family(3, seed + 100, density=0.4)
            if not fam.members or not is_p_free(fam, poset):
                continue
            missing = [m for m in range(8) if m not in fam]
            if not missing:
                continue
            mask = missing[seed % len(missing)]
            grown = SetFamily.from_masks(3, fam.members + (mask,))
            emb = contains_poset_through(grown, poset, mask)
            assert (emb is not None) == (contains_poset(grown, poset) is not None)
            if emb is not None:
                assert mask in emb.assignment
                assert check_embedding(poset, emb) == []

    def test_absent_when_no_copy_uses_the_mask(self):
        fam = SetFamily.from_masks(3, [0, 1, 3, 4])
        assert contains_poset(fam, fixture("chain3")) is not None
        assert contains_poset_through(fam, fixture("chain3"), 4) is None


class TestWitnessesPinned:
    def test_witnesses_match_pinned_digest(self):
        # digest of the witnesses the per-call searches returned before the
        # search core was planned once per poset: the first copy and the
        # first copy through every member, over seeded half-cube families
        # of every fixture
        digest = hashlib.sha256()
        for name in sorted(fixture_names()):
            poset = fixture(name)
            for n in (3, 4, 5):
                for seed in range(4):
                    rng = random.Random(f"{name} {n} {seed}")
                    fam = SetFamily.from_masks(n, rng.sample(range(1 << n), (1 << n) // 2))
                    rows = [contains_poset(fam, poset)]
                    rows += [contains_poset_through(fam, poset, m) for m in fam.members]
                    digest.update(
                        repr([None if r is None else r.assignment for r in rows]).encode()
                    )
        assert digest.hexdigest() == (
            "11d9762e947a644475e888cca255bc249a60a65aa725cf7de0ce65f8e2b9a2c7"
        )


class TestIsPFree:
    def test_middle_layer_avoids_two_chains(self):
        assert is_p_free(layer_family(5, [2]), fixture("chain2"))

    def test_consecutive_layers_avoid_taller_posets(self):
        for name in ("v", "x", "path4", "chain3"):
            poset = fixture(name)
            k = height(poset)
            assert is_p_free(layer_family(4, range(1, k)), poset)
            assert is_p_free(layer_family(5, range(2, k + 1)), poset)
            assert not is_p_free(layer_family(4, range(1, k + 1)), poset)

    def test_nested_sets_contain_chains(self):
        fam = SetFamily.from_masks(3, [0, 1, 3])
        assert not is_p_free(fam, fixture("chain3"))


class TestFirstCopy:
    def test_least_fork_in_the_full_square(self):
        fork = blowup(fixture("chain2"), 0, 2)
        emb = first_copy(full_family(2), fork)
        assert emb is not None and emb.assignment == (0, 1, 2)

    def test_absent_when_tops_are_scarce(self):
        fork = blowup(fixture("chain2"), 0, 2)
        assert first_copy(SetFamily.from_masks(2, [1, 2, 3]), fork) is None

    def test_key_is_least_among_all_copies(self):
        blowups = [
            blowup(fixture("chain2"), 0, 2),
            blowup(fixture("chain2"), 0, 3),
            blowup(fixture("v"), 0, 2),
        ]
        for seed in range(10):
            fam = random_family(3, seed + 200, density=0.7)
            for blow in blowups:
                keys = oracles.all_copy_keys(
                    fam.members, blow.base.m, blow.base.sorted_covers()
                )
                emb = first_copy(fam, blow)
                if emb is None:
                    assert keys == []
                else:
                    assert emb.assignment == keys[0]

    def test_floor_resumes_after_member_removal(self):
        # Removing members can only grow the least copy key, so the previous
        # key is a sound floor and must not change the result.
        fork = blowup(fixture("chain2"), 0, 2)
        for seed in range(8):
            fam = random_family(3, seed + 300, density=0.7)
            emb = first_copy(fam, fork)
            if emb is None:
                continue
            shrunk = SetFamily(3, tuple(m for m in fam.members if m != emb.assignment[1]))
            fresh = first_copy(shrunk, fork)
            resumed = first_copy(shrunk, fork, floor=emb.assignment)
            assert (None if fresh is None else fresh.assignment) == (
                None if resumed is None else resumed.assignment
            )

    def test_floor_above_all_copies_gives_none(self):
        fork = blowup(fixture("chain2"), 0, 2)
        assert first_copy(full_family(2), fork, floor=(3, 3, 3)) is None

    def test_floor_must_match_element_count(self):
        with pytest.raises(PreconditionError):
            first_copy(full_family(2), blowup(fixture("chain2"), 0, 2), floor=(0,))

    def test_blowup_too_deep_for_the_recursion_limit_is_a_size_error(self):
        blow = blowup(fixture("chain2"), 0, 1100)
        with pytest.raises(TooLargeError, match="recursion limit"):
            first_copy(full_family(11), blow)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_least_key_matches_oracle_with_and_without_floor(
        self, m, seed, root, t, bits, drop
    ):
        poset = random_tree_poset(m, seed)
        root %= m
        assume(blowup_size(poset, root, t) <= 7)
        blow = blowup(poset, root, t)

        def least_key(members):
            keys = oracles.all_copy_keys(members, blow.size, blow.base.sorted_covers())
            return keys[0] if keys else None

        members = [mask for mask in range(8) if bits >> mask & 1]
        emb = first_copy(SetFamily(3, tuple(members)), blow)
        assert (None if emb is None else emb.assignment) == least_key(members)
        if emb is None:
            return
        # resume from the old least key after removing one of its images
        gone = emb.assignment[drop % blow.size]
        shrunk = [mask for mask in members if mask != gone]
        resumed = first_copy(SetFamily(3, tuple(shrunk)), blow, floor=emb.assignment)
        assert (None if resumed is None else resumed.assignment) == least_key(shrunk)


class TestBlowupCopiesPinned:
    # On the cube over [6] the least-copy search took more than 5 s for
    # each of these blowups when the digest was taken, so over [6] they are
    # pinned on the half-cubes only.
    SLOW_ON_SIX_CUBE = {
        ("chain4", 0, 3), ("chain4", 3, 3), ("chain5", 0, 2), ("chain5", 4, 2),
        ("n", 0, 2), ("n", 0, 3), ("n", 3, 3), ("path4", 1, 2), ("path4", 1, 3),
        ("path4", 3, 3), ("v", 1, 3), ("v", 2, 3),
        ("x", 0, 3), ("x", 1, 3), ("x", 3, 3), ("x", 4, 3),
    }

    def test_least_copies_match_pinned_digest(self):
        # digest of the least copies the search returned before it kept the
        # probe's witness: every tree fixture blown up at each root with
        # t in {2, 3}, and chain3 at t = 6, on the cube and four seeded
        # half-cubes over [5] and [6]; each copy found is followed by the
        # search resumed from it after its root image is removed, the way
        # container_pair resumes
        cases = [
            (name, root, t)
            for name in sorted(FIXTURES) if FIXTURES[name].tree
            for root in range(FIXTURES[name].m) for t in (2, 3)
        ] + [("chain3", 0, 6)]
        digest = hashlib.sha256()
        for name, root, t in cases:
            blow = blowup(fixture(name), root, t)
            for n in (5, 6):
                slow = n == 6 and (name, root, t) in self.SLOW_ON_SIX_CUBE
                families = [] if slow else [tuple(range(1 << n))]
                for seed in range(4):
                    rng = random.Random(f"{name} {root} {t} {n} {seed}")
                    families.append(tuple(sorted(rng.sample(range(1 << n), (1 << n) // 2))))
                for members in families:
                    emb = first_copy(SetFamily(n, members), blow)
                    row = [None if emb is None else emb.assignment]
                    if emb is not None:
                        rest = tuple(m for m in members if m != emb.assignment[0])
                        resumed = first_copy(SetFamily(n, rest), blow, floor=emb.assignment)
                        row.append(None if resumed is None else resumed.assignment)
                    digest.update(repr(row).encode())
        assert digest.hexdigest() == (
            "a8f1d861c134b7a31a8ab28bcaf6fd3bc9f6f33f086556a24014e8563ef8856b"
        )


class TestCheckEmbedding:
    def test_flags_wrong_length(self):
        emb = Embedding(full_family(2), (0, 1))
        assert check_embedding(fixture("v"), emb)

    def test_flags_non_member_images(self):
        emb = Embedding(SetFamily.from_masks(2, [0, 1]), (0, 1, 3))
        assert any("not a member" in p for p in check_embedding(fixture("v"), emb))

    def test_flags_non_injective(self):
        emb = Embedding(full_family(2), (0, 1, 1))
        assert any("injective" in p for p in check_embedding(fixture("v"), emb))

    def test_flags_order_violations(self):
        emb = Embedding(full_family(2), (1, 2, 3))
        assert any("non-nested" in p for p in check_embedding(fixture("v"), emb))


class TestEmbedViaMarkedChains:
    def test_chain_uses_least_marked_chain(self):
        poset = fixture("chain3")
        cover = graded_chain_cover(poset)
        pool = list(enumerate_marked_chains(full_family(3), 3, 1))
        emb = embed_via_marked_chains(poset, cover, full_family(3), pool, 1)
        assert isinstance(emb, Embedding)
        assert emb.assignment == (0, 1, 3)

    def test_fork_poset_in_the_full_square(self):
        poset = fixture("v")
        cover = graded_chain_cover(poset)
        pool = list(enumerate_marked_chains(full_family(2), 2, 1))
        emb = embed_via_marked_chains(poset, cover, full_family(2), pool, 1)
        assert isinstance(emb, Embedding)
        assert emb.assignment == (0, 2, 1)
        marker_sets = {frozenset(mc.marker_masks()) for mc in pool}
        for chain in cover.chains:
            assert frozenset(emb.assignment[e] for e in chain) in marker_sets

    def test_empty_pool_fails_at_the_first_chain(self):
        poset = fixture("v")
        cover = graded_chain_cover(poset)
        result = embed_via_marked_chains(poset, cover, full_family(2), [], 1)
        assert result == EmbeddingFailure(1, "no marked chains available")

    def test_random_graded_posets_embed_or_fail_cleanly(self):
        for seed in range(8):
            poset = random_graded_tree_poset(6, seed)
            k = height(poset)
            cover = graded_chain_cover(poset)
            n = max(k, 2)
            fam = full_family(n)
            pool = list(enumerate_marked_chains(fam, k, 1))
            result = embed_via_marked_chains(poset, cover, fam, pool, 1)
            if isinstance(result, Embedding):
                assert check_embedding(poset, result) == []
            else:
                assert 1 <= result.chain_index <= len(cover.chains)

    def test_wrong_marker_count_is_rejected(self):
        poset = fixture("chain3")
        cover = graded_chain_cover(poset)
        bad = [MarkedChain((0, 1, 2), (2, 1))]
        with pytest.raises(InvalidMarkedChainError):
            embed_via_marked_chains(poset, cover, full_family(3), bad, 1)

    def test_foreign_markers_are_rejected(self):
        poset = fixture("chain2")
        cover = graded_chain_cover(poset)
        fam = layer_family(2, [1])
        bad = [MarkedChain((0, 1), (1, 0))]
        with pytest.raises(InvalidMarkedChainError):
            embed_via_marked_chains(poset, cover, fam, bad, 1)

    def test_mismatched_cover_is_rejected(self):
        v_cover = graded_chain_cover(fixture("v"))
        pool = list(enumerate_marked_chains(full_family(3), 3, 1))
        with pytest.raises(PreconditionError):
            embed_via_marked_chains(
                fixture("chain3"), v_cover, full_family(3), pool, 1
            )

    def test_taller_fixture_covers(self):
        for name in ("x", "path4"):
            poset = fixture(name)
            k = height(poset)
            cover = graded_chain_cover(poset)
            fam = full_family(4)
            pool = list(enumerate_marked_chains(fam, k, 1))
            result = embed_via_marked_chains(poset, cover, fam, pool, 1)
            assert isinstance(result, (Embedding, EmbeddingFailure))
            if isinstance(result, Embedding):
                assert check_embedding(poset, result) == []


def test_x_poset_embeds_in_the_four_cube():
    poset = validate_poset(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    cover = graded_chain_cover(poset)
    fam = full_family(4)
    pool = list(enumerate_marked_chains(fam, 3, 1))
    result = embed_via_marked_chains(poset, cover, fam, pool, 1)
    assert isinstance(result, (Embedding, EmbeddingFailure))
