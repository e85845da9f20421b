"""Core poset machinery: validation, structure predicates, orderings."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from posetfree.errors import CycleError, NotReducedError, NotTreeError
from posetfree.fixtures import FIXTURES, fixture, random_tree_poset
from posetfree.poset import (
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


class TestValidate:
    def test_three_chain(self):
        p = validate_poset(3, [(0, 1), (1, 2)])
        assert p.less(0, 1) and p.less(1, 2) and p.less(0, 2)
        assert not p.less(2, 0)

    def test_rejects_implied_pair(self):
        with pytest.raises(NotReducedError):
            validate_poset(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            validate_poset(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(CycleError):
            validate_poset(2, [(0, 0)])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            validate_poset(0, [])
        with pytest.raises(ValueError):
            validate_poset(2, [(0, 5)])
        with pytest.raises(ValueError):
            validate_poset(2, [(0, 1), (0, 1)])

    def test_rejects_non_integers_and_bools(self):
        for m in (True, 2.0, "2"):
            with pytest.raises(ValueError):
                validate_poset(m, [])
        for pair in ((True, 0), (0, True), (0.0, 1), ("0", 1)):
            with pytest.raises(ValueError):
                validate_poset(2, [pair])
        with pytest.raises(ValueError):
            validate_poset(2, [(0, 1, 1)])

    def test_dict_rejects_malformed_entries(self):
        for data in (
            {"m": True, "covers": []},
            {"m": 2, "covers": [[True, 0]]},
            {"m": 2, "covers": [[0]]},
            {"m": 2, "covers": [0, 1]},
            {"m": 2, "covers": {"0": 1}},
            {"m": 2},
            [2, []],
        ):
            with pytest.raises(ValueError):
                poset_from_dict(data)

    def test_single_element(self):
        p = validate_poset(1, [])
        assert height(p) == 1 and is_tree_poset(p) and is_graded(p)


class TestStructure:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_chain_height(self, k):
        assert height(fixture(f"chain{k}")) == k

    def test_named_fixture_flags(self):
        for name, entry in FIXTURES.items():
            p = fixture(name)
            assert is_tree_poset(p) == entry.tree, name
            assert is_graded(p) == entry.graded, name
            assert height(p) == entry.height, name

    def test_v_height_tree(self):
        p = fixture("v")
        assert height(p) == 2 and is_tree_poset(p)

    def test_x_graded_height(self):
        p = fixture("x")
        assert height(p) == 3 and is_graded(p)

    def test_butterfly_not_tree(self):
        assert not is_tree_poset(fixture("butterfly"))

    def test_ungraded_example(self):
        # a < b and a < c < d: maximal chains of sizes 2 and 3
        p = validate_poset(4, [(0, 1), (0, 2), (2, 3)])
        assert not is_graded(p)

    def test_is_chain(self):
        assert is_chain(fixture("chain3"))
        assert not is_chain(fixture("v"))
        assert is_chain(validate_poset(1, []))

    def test_hasse_graph_edges_match_covers(self):
        p = fixture("x")
        undirected = {tuple(sorted(pair)) for pair in p.covers}
        assert set(hasse_graph(p).edges()) == undirected


class TestChains:
    def test_v_chains(self):
        assert maximal_chains(fixture("v")) == [(0, 1), (0, 2)]

    def test_x_chains(self):
        assert maximal_chains(fixture("x")) == [
            (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)
        ]

    def test_chain_fixture(self):
        assert maximal_chains(fixture("chain4")) == [(0, 1, 2, 3)]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_against_bruteforce(self, name):
        p = fixture(name)
        got = maximal_chains(p)
        assert sorted(got) == oracles.all_maximal_chains(p.m, p.covers)


class TestInterval:
    def test_chain_interval(self):
        p = fixture("chain3")
        assert interval(p, 0, 2) == {0, 1, 2}
        assert interval(p, 1, 1) == {1}

    def test_incomparable_interval_empty(self):
        assert interval(fixture("v"), 1, 2) == frozenset()
        assert interval(fixture("v"), 1, 0) == frozenset()

    def test_x_interval(self):
        assert interval(fixture("x"), 0, 3) == {0, 2, 3}


class TestDual:
    def test_v_dual_is_lambda(self):
        assert dual(fixture("v")).covers == fixture("lambda").covers

    def test_involution(self):
        for name in FIXTURES:
            p = fixture(name)
            assert dual(dual(p)) == p

    def test_height_and_graded_invariant(self):
        for name in FIXTURES:
            p = fixture(name)
            assert height(dual(p)) == height(p)
            assert is_graded(dual(p)) == is_graded(p)


class TestDerivedStructure:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_random_trees_and_duals_match_oracles(self, m):
        # dual() builds its poset directly, without validate_poset
        for seed in range(6):
            p = random_tree_poset(m, seed)
            for q in (p, dual(p)):
                chains = oracles.all_maximal_chains(q.m, q.covers)
                assert height(q) == oracles.poset_height(q.m, q.covers)
                assert is_graded(q) == oracles.graded_by_enumeration(q.m, q.covers)
                assert is_tree_poset(q)
                assert maximal_chains(q) == chains  # lexicographic order

    def test_non_tree_and_its_dual(self):
        p = fixture("butterfly")
        assert not is_tree_poset(p) and not is_tree_poset(dual(p))
        assert height(dual(p)) == 2 and is_graded(dual(p))


class TestLeafOrdering:
    def test_v_from_bottom(self):
        assert leaf_ordering(fixture("v"), 0).order == (0, 1, 2)

    def test_path4_from_top(self):
        assert leaf_ordering(fixture("path4"), 0).order == (0, 1, 2, 3)

    def test_chain_from_middle(self):
        assert leaf_ordering(fixture("chain3"), 1).order == (1, 0, 2)

    def test_butterfly_rejected(self):
        with pytest.raises(NotTreeError):
            leaf_ordering(fixture("butterfly"), 0)

    @pytest.mark.parametrize("name", sorted(n for n in FIXTURES if FIXTURES[n].tree))
    def test_invariants_all_roots(self, name):
        p = fixture(name)
        graph = hasse_graph(p)
        for x in range(p.m):
            order = leaf_ordering(p, x).order
            assert sorted(order) == list(range(p.m))
            assert order[0] == x
            for i in range(1, p.m):
                prefix = set(order[:i])
                neighbours = [nb for nb in graph.adjacency[order[i]] if nb in prefix]
                assert len(neighbours) == 1  # new vertex is a leaf of the prefix


class TestRestrict:
    def test_chain_minus_middle(self):
        p = fixture("chain3")
        sub, old = restrict(p, [0, 2])
        assert old == (0, 2)
        assert sub.covers == {(0, 1)}  # 0 < 2 becomes a new cover

    def test_x_minus_top(self):
        sub, old = restrict(fixture("x"), [0, 1, 2, 3])
        assert old == (0, 1, 2, 3)
        assert sub.covers == {(0, 2), (1, 2), (2, 3)}


class TestRoundTrip:
    def test_json_round_trip(self):
        for name in FIXTURES:
            p = fixture(name)
            assert poset_from_dict(poset_to_dict(p)) == p

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_random_tree_round_trip(self, m, seed):
        p = random_tree_poset(m, seed)
        order = {(a, b) for a in range(m) for b in range(m) if p.less(a, b)}
        # closure of covers equals the stored order
        assert oracles.closure_pairs(p.m, p.covers) == order
        # reduction of the order equals the covers
        assert oracles.reduction_pairs(p.m, order) == set(p.covers)
        # gradedness matches the enumeration route
        assert is_graded(p) == oracles.graded_by_enumeration(p.m, p.covers)
        assert is_tree_poset(p)
