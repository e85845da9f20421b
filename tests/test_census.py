"""Exact census: counts, maximum sizes, layer probes, experiment table."""
from __future__ import annotations

import csv
import hashlib
import io
import os
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from posetfree.caps import ENV_VAR
from posetfree.census import (
    count_p_free,
    e_lower,
    experiment_csv,
    experiment_table,
    la,
    layer_lower_bound,
    random_p_free_family,
)
from posetfree.embedding import is_p_free
from posetfree.errors import DomainError, TooLargeError
from posetfree.fixtures import fixture, fixture_names, random_tree_poset
from posetfree.lattice import SetFamily, layer_family
from posetfree.poset import dual, height, validate_poset


class TestCountPFree:
    def test_two_chain_free_counts(self):
        # [DERIVED] antichain counts, reproduced by the naive all-families
        # oracle below before trusting the pruned search
        assert [count_p_free(n, fixture("chain2")) for n in range(5)] == [
            2,
            3,
            6,
            20,
            168,
        ]

    def test_single_element_poset_counts_only_the_empty_family(self):
        for n in range(4):
            assert count_p_free(n, fixture("chain1")) == 1

    def test_v_poset_on_the_square(self):
        # [DERIVED] no member may have two distinct proper supersets; the
        # naive oracle over all 16 families agrees
        poset = fixture("v")
        assert count_p_free(2, poset) == 12
        assert oracles.count_p_free_families(2, poset.m, poset.sorted_covers()) == 12

    @pytest.mark.parametrize("name", sorted(fixture_names()))
    def test_matches_naive_oracle_on_small_cubes(self, name):
        poset = fixture(name)
        for n in range(4 if poset.m <= 3 else 3):
            assert count_p_free(n, poset) == oracles.count_p_free_families(
                n, poset.m, poset.sorted_covers()
            )

    def test_process_split_matches_sequential(self):
        assert count_p_free(4, fixture("chain2"), processes=2) == 168
        assert count_p_free(3, fixture("v"), processes=3) == count_p_free(
            3, fixture("v")
        )

    def test_pool_is_bounded_by_cores(self, serial_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # 8 tasks, one per free single-member family over [3], on 4 cores
        assert count_p_free(3, fixture("chain2"), processes=10_000) == 20
        assert serial_pool == [4]

    def test_rejects_out_of_range(self):
        with pytest.raises(TooLargeError):
            count_p_free(6, fixture("chain2"))
        with pytest.raises(DomainError):
            count_p_free(-1, fixture("chain2"))
        with pytest.raises(DomainError):
            count_p_free(2, fixture("chain2"), processes=0)

    def test_cap_override_via_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, '{"census_dfs_n": 2}')
        with pytest.raises(TooLargeError):
            count_p_free(3, fixture("chain2"))


class TestKnownCounts:
    def test_two_chain_free_families_over_five_is_dedekind_m5(self):
        # [DERIVED] antichains of 2^[5]: the Dedekind number M(5) = 7581
        # (OEIS A000372; Kleitman 1969)
        assert count_p_free(5, fixture("chain2")) == 7581

    @pytest.mark.parametrize(
        "name, want",
        [("chain4", 23760), ("chain5", 52757), ("x", 37944), ("butterfly", 9868)],
    )
    def test_counts_over_four(self, name, want):
        # exact counts the probe-per-node search returned for these fixtures
        assert count_p_free(4, fixture(name)) == want

    def test_process_split_matches_on_a_taller_poset(self):
        assert count_p_free(4, fixture("x"), processes=2) == 37944


class TestAgainstOracles:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matches_all_families_oracle(self, m, seed, n):
        poset = random_tree_poset(m, seed)
        assert count_p_free(n, poset) == oracles.count_p_free_families(
            n, poset.m, poset.sorted_covers()
        )

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_la_matches_brute_force_oracle(self, m, seed, n):
        poset = random_tree_poset(m, seed)
        assert la(n, poset) == oracles.largest_p_free_family(
            n, poset.m, poset.sorted_covers()
        )


class TestSymmetry:
    # relabelling the elements changes the search order; dualising is
    # complementation of the ground set, which maps P-free families onto
    # dual(P)-free ones
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
        st.permutations(range(6)),
    )
    @settings(max_examples=120, deadline=None)
    def test_relabelling_and_dualising_keep_count_and_la(self, m, seed, n, perm):
        poset = random_tree_poset(m, seed)
        label = [e for e in perm if e < m]
        relabelled = validate_poset(m, [(label[a], label[b]) for a, b in poset.covers])
        want = (count_p_free(n, poset), la(n, poset))
        for image in (relabelled, dual(poset)):
            assert (count_p_free(n, image), la(n, image)) == want


class TestLa:
    def test_two_chain_gives_middle_binomial(self):
        # [DERIVED] brute-force maximization; the largest antichain is the
        # middle layer
        for n in range(7):
            assert la(n, fixture("chain2")) == comb(n, n // 2)

    def test_three_chain_gives_two_largest_binomials(self):
        for n in range(6):
            layers = sorted((comb(n, i) for i in range(n + 1)), reverse=True)
            assert la(n, fixture("chain3")) == sum(layers[:2])

    @pytest.mark.parametrize("name", ["v", "path4", "x", "butterfly"])
    def test_matches_brute_force_oracle(self, name):
        poset = fixture(name)
        for n in range(4):
            assert la(n, poset) == oracles.largest_p_free_family(
                n, poset.m, poset.sorted_covers()
            )

    def test_v_on_the_cube(self):
        # [DERIVED] weak copies collapse incomparability, so even a 3-chain
        # holds a V; brute force gives 4 (e.g. all three 2-sets plus the top)
        assert la(3, fixture("v")) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(TooLargeError):
            la(7, fixture("chain2"))
        with pytest.raises(DomainError):
            la(-1, fixture("chain2"))

    def test_cap_override_via_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, '{"la_n": 2}')
        with pytest.raises(TooLargeError):
            la(3, fixture("chain2"))


class TestELower:
    def test_two_chain_stops_at_one_layer(self):
        assert e_lower(fixture("chain2"), 5) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_chains_certify_height_minus_one(self, k):
        assert e_lower(fixture(f"chain{k}"), 5) == k - 1

    @pytest.mark.parametrize("name", ["v", "path4", "x"])
    def test_tree_fixtures_certify_height_minus_one(self, name):
        poset = fixture(name)
        assert e_lower(poset, 4) == height(poset) - 1

    def test_butterfly_reports_two(self):
        # two consecutive layers never hold a butterfly, three do from n=3 on
        # (e.g. the empty set and a singleton under two supersets of it)
        assert e_lower(fixture("butterfly"), 4) == 2
        assert e_lower(fixture("butterfly"), 3) == 2

    def test_tiny_cubes_give_vacuous_certificates(self):
        # [DERIVED] the square holds no butterfly, and wider windows do not
        # fit in cubes of side <= 2, so every width up to n_max+1 passes
        assert e_lower(fixture("butterfly"), 2) == 3

    def test_single_element_poset_gives_zero(self):
        assert e_lower(fixture("chain1"), 3) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(TooLargeError):
            e_lower(fixture("chain2"), 9)
        with pytest.raises(DomainError):
            e_lower(fixture("chain2"), -1)


class TestRandomPFreeFamily:
    @pytest.mark.parametrize("name", ["chain2", "chain3", "v", "x"])
    def test_output_is_free(self, name):
        poset = fixture(name)
        for n in (3, 4):
            for seed in range(4):
                fam = random_p_free_family(poset, n, seed=seed)
                assert is_p_free(fam, poset)

    def test_same_seed_reproduces(self):
        runs = [random_p_free_family(fixture("v"), 4, seed=9) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0] != random_p_free_family(fixture("v"), 4, seed=10)

    def test_greedy_output_is_maximal(self):
        poset = fixture("chain3")
        fam = random_p_free_family(poset, 4, seed=2)
        for mask in range(1 << 4):
            if mask in fam:
                continue
            extended = SetFamily.from_masks(4, fam.members + (mask,))
            assert not is_p_free(extended, poset)

    def test_density_thins_the_same_greedy_run(self):
        full = random_p_free_family(fixture("chain2"), 4, seed=5)
        thin = random_p_free_family(fixture("chain2"), 4, seed=5, density=0.5)
        assert thin.member_set <= full.member_set
        assert is_p_free(thin, fixture("chain2"))
        empty = random_p_free_family(fixture("chain2"), 4, seed=5, density=0.0)
        assert empty.members == ()

    def test_seeded_members_are_pinned(self):
        # digest of the members the probe-per-call greedy returned for these
        # seeds; any engine behind it must keep exactly the same masks
        digest = hashlib.sha256()
        for name in ["chain2", "chain3", "v", "x", "butterfly", "path4"]:
            for n in (3, 4, 5, 6):
                for seed in range(3):
                    fam = random_p_free_family(fixture(name), n, seed=seed)
                    digest.update(f"{name} {n} {seed} {fam.members}\n".encode())
                fam = random_p_free_family(fixture(name), n, seed=7, density=0.5)
                digest.update(f"{name} {n} d {fam.members}\n".encode())
        assert digest.hexdigest() == (
            "598f664519b3771a4a5233e3a8da1a1e922f8c0bafa705cc82e714aa0b796041"
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            random_p_free_family(fixture("chain2"), -1, seed=0)
        with pytest.raises(DomainError):
            random_p_free_family(fixture("chain2"), 3, seed=0, density=1.5)


class TestLayerLowerBound:
    def test_two_chain_picks_the_middle_layer(self):
        bound, witness = layer_lower_bound(fixture("chain2"), 4)
        assert bound == 1 << comb(4, 2)
        assert witness == layer_family(4, [2])

    def test_three_chain_picks_two_heaviest_layers(self):
        bound, witness = layer_lower_bound(fixture("chain3"), 4)
        assert bound == 1 << (comb(4, 1) + comb(4, 2))
        assert witness == layer_family(4, [1, 2])

    def test_ties_break_toward_lower_layers(self):
        bound, witness = layer_lower_bound(fixture("v"), 3)
        assert bound == 8 and witness == layer_family(3, [1])

    def test_single_element_poset_gives_empty_witness(self):
        bound, witness = layer_lower_bound(fixture("chain1"), 3)
        assert bound == 1 and witness.members == ()

    def test_window_wider_than_cube_is_capped(self):
        bound, witness = layer_lower_bound(fixture("chain5"), 1)
        assert witness == layer_family(1, [0, 1]) and bound == 4
        assert count_p_free(1, fixture("chain5")) == 4


class TestCensusResult:
    """The count and maximum size of one (poset, n), taken together."""

    def test_two_chain_summary(self):
        assert (count_p_free(3, fixture("chain2")), la(3, fixture("chain2"))) == (20, 3)

    def test_invariants_hold_across_fixtures(self):
        # every subfamily of a largest free family is free
        for name in ["chain3", "v", "butterfly"]:
            count, best = count_p_free(3, fixture(name)), la(3, fixture(name))
            assert count >= 1 << best
            assert best <= 8


class TestExperimentTable:
    def test_empty_range_gives_empty_table(self):
        assert experiment_table(fixture("chain2"), []) == []
        assert experiment_csv([]).splitlines() == [
            "n,count,la,lower_bound,distinct_pairs,max_residual_size,"
            "max_residual_normalized,upper_expression"
        ]

    def test_exact_columns_for_the_two_chain(self):
        rows = experiment_table(fixture("chain2"), [2, 3, 4], seed=1, samples=10)
        assert [(r.n, r.count, r.la, r.lower_bound) for r in rows] == [
            (2, 6, 2, 4),
            (3, 20, 3, 8),
            (4, 168, 6, 64),
        ]
        for row in rows:
            assert row.count >= row.lower_bound
            assert row.upper_expression == row.distinct_pairs << row.max_residual_size
            assert row.max_residual_normalized == row.max_residual_size / comb(
                row.n, row.n // 2
            )

    def test_runs_are_seed_deterministic(self):
        args = (fixture("v"), [3], )
        a = experiment_table(*args, seed=4, samples=6)
        b = experiment_table(*args, seed=4, samples=6)
        c = experiment_table(*args, seed=5, samples=6)
        assert a == b
        assert a != c

    def test_count_column_blank_above_the_cap(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, '{"census_dfs_n": 2, "la_n": 2}')
        rows = experiment_table(fixture("chain2"), [3], seed=0, samples=2)
        assert rows[0].count is None and rows[0].la is None
        parsed = list(csv.reader(io.StringIO(experiment_csv(rows))))
        assert parsed[1][1] == "" and parsed[1][2] == ""

    def test_frozen_csv_regression(self):
        # [DERIVED] fully deterministic pipeline (seeded sampler + carving)
        text = experiment_csv(
            experiment_table(fixture("chain2"), [2], seed=1, samples=3)
        )
        assert text == (
            "n,count,la,lower_bound,distinct_pairs,max_residual_size,"
            "max_residual_normalized,upper_expression\n"
            "2,6,2,4,1,1,0.5,2\n"
        )

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            experiment_table(fixture("chain2"), [2], samples=0)
