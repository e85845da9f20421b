"""Graded completions, removable intervals, and graded chain covers."""
from __future__ import annotations

import pytest

from posetfree.errors import IsChainError, NotGradedError, NotTreeError
from posetfree.fixtures import fixture, random_graded_tree_poset, random_tree_poset
from posetfree.grading import (
    GradedChainCover,
    find_removable_interval,
    graded_chain_cover,
    graded_completion,
    verify_chain_cover,
)
from posetfree.poset import (
    hasse_graph,
    height,
    interval,
    is_chain,
    is_graded,
    is_tree_poset,
    maximal_chains,
    restrict,
    validate_poset,
)

GRADED_FIXTURES = ["chain1", "chain2", "chain3", "chain4", "chain5", "v", "lambda", "n", "path4", "x"]

# Height-3 tree with maximal chains (0,1,2), (0,6,5), (3,4,5); covering it
# forces both a downward and an upward interval removal, and the union of
# the chains (0,1,2) and (3,4,5) alone is not graded (0 < 5 jumps two ranks
# once 6 is absent), which exercises the prefix check of the verifier.
DOUBLE_BRANCH = validate_poset(7, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 6), (6, 5)])


class TestGradedCompletion:
    def test_graded_fixtures_complete_to_themselves(self):
        for name in GRADED_FIXTURES:
            p = fixture(name)
            comp = graded_completion(p)
            assert comp.completed.m == p.m
            assert comp.completed.covers == p.covers
            assert comp.embedding == tuple(range(p.m))

    def test_two_element_chain_unchanged(self):
        comp = graded_completion(fixture("chain2"))
        assert comp.completed.covers == fixture("chain2").covers
        assert comp.chain_count == 1

    def test_pendant_chain_added_above_short_maximal_element(self):
        # 0 < 1, 0 < 2 < 3: the branch through 1 stops one level short
        p = validate_poset(4, [(0, 1), (0, 2), (2, 3)])
        comp = graded_completion(p)
        assert comp.completed.m == 5
        assert comp.completed.covers == frozenset({(0, 1), (0, 2), (2, 3), (1, 4)})
        assert comp.chain_count == 2
        assert comp.completed.m <= comp.chain_count * height(p)

    def test_long_cover_edge_subdivided(self):
        # 2 < 3 jumps from level 1 to level 3; a fresh element splits it
        p = validate_poset(4, [(0, 1), (1, 3), (2, 3)])
        comp = graded_completion(p)
        assert comp.completed.m == 5
        assert comp.completed.covers == frozenset({(0, 1), (1, 3), (2, 4), (4, 3)})

    def test_non_tree_rejected(self):
        with pytest.raises(NotTreeError):
            graded_completion(fixture("butterfly"))

    def test_random_trees_satisfy_all_invariants(self):
        for m in range(1, 11):
            for seed in range(12):
                p = random_tree_poset(m, seed)
                comp = graded_completion(p)
                hat = comp.completed
                assert is_tree_poset(hat)
                assert is_graded(hat)
                assert height(hat) == height(p)
                assert hat.m <= comp.chain_count * height(p)
                assert comp.chain_count == len(maximal_chains(p))
                for a in range(p.m):
                    for b in range(p.m):
                        assert p.less(a, b) == hat.less(a, b)


class TestFindRemovableInterval:
    def test_frozen_fixture_results(self):
        assert find_removable_interval(fixture("v")) == (1, (1,))
        assert find_removable_interval(fixture("lambda")) == (1, (1,))
        assert find_removable_interval(fixture("n")) == (0, (0,))
        assert find_removable_interval(fixture("path4")) == (1, (1,))
        assert find_removable_interval(fixture("x")) == (0, (0,))

    def test_interval_can_need_two_elements(self):
        # single-top poset 0 < 1 < 2 with side branch 0 < 3 < 4 ... removing
        # just one leaf always breaks gradedness, so the hit has size 2
        p = validate_poset(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        v, ival = find_removable_interval(p)
        assert v == 2
        assert ival == (1, 2)

    def test_chain_rejected(self):
        for name in ["chain2", "chain3", "chain4"]:
            with pytest.raises(IsChainError):
                find_removable_interval(fixture(name))

    def test_non_tree_rejected(self):
        with pytest.raises(NotTreeError):
            find_removable_interval(fixture("butterfly"))

    def test_ungraded_rejected(self):
        with pytest.raises(NotGradedError):
            find_removable_interval(validate_poset(4, [(0, 1), (0, 2), (2, 3)]))

    def test_random_graded_trees_satisfy_postconditions(self):
        for m in range(3, 11):
            for seed in range(12):
                p = random_graded_tree_poset(m, seed)
                if is_chain(p):
                    continue
                k = height(p)
                v, ival = find_removable_interval(p)
                assert hasse_graph(p).degree(v) == 1
                assert v in ival
                assert 1 <= len(ival) <= k - 1
                lo, hi = ival[0], ival[-1]
                assert interval(p, lo, hi) == frozenset(ival)
                sub, _old = restrict(p, set(range(m)) - set(ival))
                assert is_tree_poset(sub)
                assert is_graded(sub)
                assert height(sub) == k


class TestGradedChainCover:
    def test_chains_are_their_own_cover(self):
        for name in ["chain1", "chain2", "chain3", "chain5"]:
            p = fixture(name)
            cover = graded_chain_cover(p)
            assert cover.chains == (tuple(range(p.m)),)
            assert cover.intervals == ()

    def test_v_cover(self):
        cover = graded_chain_cover(fixture("v"))
        assert cover.chains == ((0, 2), (0, 1))
        assert cover.intervals == ((1,),)

    def test_lambda_cover(self):
        cover = graded_chain_cover(fixture("lambda"))
        assert cover.chains == ((2, 0), (1, 0))
        assert cover.intervals == ((1,),)

    def test_n_cover(self):
        cover = graded_chain_cover(fixture("n"))
        assert cover.chains == ((2, 3), (2, 1), (0, 1))
        assert cover.intervals == ((1,), (0,))

    def test_path4_cover(self):
        cover = graded_chain_cover(fixture("path4"))
        assert cover.chains == ((2, 3), (2, 0), (1, 0))
        assert cover.intervals == ((0,), (1,))

    def test_x_cover(self):
        cover = graded_chain_cover(fixture("x"))
        assert cover.chains == ((1, 2, 4), (1, 2, 3), (0, 2, 4))
        assert cover.intervals == ((3,), (0,))
        assert verify_chain_cover(fixture("x"), cover) == []

    def test_x_cover_is_smaller_than_its_maximal_chain_list(self):
        # nonempty difference sets force the chain count to at most
        # m - k + 1 = 3, while the poset has four maximal chains: the cover
        # cannot enumerate all maximal chains of a doubly-branching poset
        p = fixture("x")
        cover = graded_chain_cover(p)
        assert len(cover.chains) == 3
        assert len(maximal_chains(p)) == 4
        assert len(cover.chains) <= p.m - height(p) + 1

    def test_double_branch_cover_needs_both_orientations(self):
        cover = graded_chain_cover(DOUBLE_BRANCH)
        assert cover.chains == ((3, 4, 5), (0, 6, 5), (0, 1, 2))
        assert cover.intervals == ((0, 6), (1, 2))
        assert verify_chain_cover(DOUBLE_BRANCH, cover) == []

    def test_every_interval_touches_an_extreme_element(self):
        for name in GRADED_FIXTURES:
            p = fixture(name)
            cover = graded_chain_cover(p)
            for ival in cover.intervals:
                assert any(not p.below[e] or not p.above[e] for e in ival)

    def test_fixture_covers_verify(self):
        for name in GRADED_FIXTURES:
            p = fixture(name)
            assert verify_chain_cover(p, graded_chain_cover(p)) == []

    def test_non_tree_rejected(self):
        with pytest.raises(NotTreeError):
            graded_chain_cover(fixture("butterfly"))

    def test_ungraded_rejected(self):
        with pytest.raises(NotGradedError):
            graded_chain_cover(validate_poset(4, [(0, 1), (0, 2), (2, 3)]))

    def test_random_graded_trees_produce_verified_covers(self):
        for m in range(1, 11):
            for seed in range(12):
                p = random_graded_tree_poset(m, seed)
                cover = graded_chain_cover(p)
                assert verify_chain_cover(p, cover) == []
                assert len(set(cover.chains)) == len(cover.chains)
                assert len(cover.chains) <= len(maximal_chains(p))
                assert len(cover.chains) <= p.m - height(p) + 1

    def test_covers_of_completions_verify(self):
        for m in range(2, 9):
            for seed in range(8):
                hat = graded_completion(random_tree_poset(m, seed)).completed
                assert verify_chain_cover(hat, graded_chain_cover(hat)) == []


class TestVerifyChainCover:
    def test_accepts_alternative_two_chain_cover(self):
        # path4 (1 < 0 > 2 < 3) needs #min + #max - 1 = 3 chains of two
        # elements; this order differs from graded_chain_cover's
        cover = GradedChainCover(((1, 0), (2, 0), (2, 3)), ((2,), (3,)))
        assert cover != graded_chain_cover(fixture("path4"))
        assert verify_chain_cover(fixture("path4"), cover) == []
        # two disjoint chains cover it too, but the second shares nothing
        # with the first, so no earlier chain pins it
        disjoint = GradedChainCover(((2, 3), (1, 0)), ((1, 0),))
        assert verify_chain_cover(fixture("path4"), disjoint) == [
            "difference set of chain 2 is the whole chain"
        ]

    def test_flags_incomplete_cover(self):
        cover = GradedChainCover(((0, 1),), ())
        assert verify_chain_cover(fixture("v"), cover) == ["chains do not cover the poset"]

    def test_flags_wrong_interval_record(self):
        cover = GradedChainCover(((0, 2), (0, 1)), ((0,),))
        problems = verify_chain_cover(fixture("v"), cover)
        assert any("mismatches" in p for p in problems)

    def test_flags_duplicate_chain(self):
        cover = GradedChainCover(((0, 2), (0, 1), (0, 1)), ((1,), (1,)))
        problems = verify_chain_cover(fixture("v"), cover)
        assert any("empty" in p for p in problems)

    def test_flags_non_maximal_chain(self):
        cover = GradedChainCover(((0, 2), (1,)), ((1,),))
        problems = verify_chain_cover(fixture("v"), cover)
        assert any("not a maximal chain" in p for p in problems)

    def test_flags_ungraded_prefix_union(self):
        cover = GradedChainCover(
            ((0, 1, 2), (3, 4, 5), (0, 6, 5)), ((3, 4, 5), (6,))
        )
        problems = verify_chain_cover(DOUBLE_BRANCH, cover)
        assert any("not graded" in p for p in problems)

    def test_flags_later_chain_disjoint_from_earlier_chains(self):
        # the N poset 0 < 2 > 1 < 3: the chain (1, 3) shares nothing with
        # (0, 2), so its difference set is the whole chain and no earlier
        # chain pins it; a valid cover needs 3 chains (#min + #max - 1)
        n_poset = validate_poset(4, [(0, 2), (1, 2), (1, 3)])
        cover = GradedChainCover(((0, 2), (1, 3)), ((1, 3),))
        problems = verify_chain_cover(n_poset, cover)
        assert "difference set of chain 2 is the whole chain" in problems
        assert verify_chain_cover(n_poset, graded_chain_cover(n_poset)) == []

    def test_flags_length_mismatch(self):
        cover = GradedChainCover(((0, 2), (0, 1)), ())
        assert verify_chain_cover(fixture("v"), cover) == [
            "interval list length must be one less than the chain count"
        ]
