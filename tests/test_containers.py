"""Container pairs: carving runs, two-phase composition, collections."""
from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import oracles
from posetfree.blowup import blowup
from posetfree.containers import (
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
from posetfree.embedding import is_p_free
from posetfree.errors import DomainError, NotPFreeError, PreconditionError
from posetfree.fixtures import fixture
from posetfree.lattice import SetFamily, layer_family
from posetfree.poset import height

CLAUSES = ("covers_family", "certificate_small", "residual_blowup_free")


def full_family(n: int) -> SetFamily:
    return SetFamily(n, tuple(range(1 << n)))


def random_free_family(poset, n: int, seed: int, density: float = 0.6) -> SetFamily:
    """A random subfamily of the layers 1..height-1, hence poset-free."""
    base = layer_family(n, range(1, height(poset))).members
    rng = np.random.Generator(np.random.Philox(seed))
    picks = rng.random(len(base)) < density
    fam = SetFamily.from_masks(n, (m for m, keep in zip(base, picks) if keep))
    assert is_p_free(fam, poset)
    return fam


class TestContainerPair:
    # [DERIVED] chain2 on the 2-cube with t=2: the blowup is the 2-fork,
    # whose least copy in the full cube is (0, 1, 2).  Hand traces:
    #   F={1,2}: root image 0 outside F -> prune 0; no fork in {1,2,3}.
    #   F={0}:   root image in F, fan images {1,2} miss F -> carve.
    #   F={}:    same prune as the first case.
    def test_prune_only_run(self):
        pair = container_pair(
            fixture("chain2"), 0, 2, full_family(2), SetFamily(2, (1, 2))
        )
        assert pair.certificate.members == ()
        assert pair.residual.members == (1, 2, 3)
        assert (pair.prune_count, pair.carve_count) == (1, 0)

    def test_carve_run(self):
        pair = container_pair(
            fixture("chain2"), 0, 2, full_family(2), SetFamily(2, (0,))
        )
        assert pair.certificate.members == (0,)
        assert pair.residual.members == (3,)
        assert (pair.prune_count, pair.carve_count) == (0, 1)

    def test_empty_family_leaves_greedy_residual(self):
        pair = container_pair(
            fixture("chain2"), 0, 2, full_family(2), SetFamily(2, ())
        )
        assert pair.certificate.members == ()
        assert pair.residual.members == (1, 2, 3)

    # [DERIVED] v (one bottom below two incomparable tops) on the 3-cube,
    # t=2: the blowup hangs two fans of two copies off the root, so its
    # least copy in the full cube images the root at the empty mask and the
    # fans at {1,2} and {4,8} in mask order: (0, 1, 2, 3, 4).
    #   F={0}:   first fan {1,2} misses F -> carve just the root.
    #   F={0,1}: first fan hits mask 1, second fan {3,4} misses -> carve
    #            the partial copy {0,1} and the second fan.
    def test_carve_at_first_fan(self):
        pair = container_pair(
            fixture("v"), 0, 2, full_family(3), SetFamily(3, (0,))
        )
        assert pair.certificate.members == (0,)
        assert pair.residual.members == (3, 4, 5, 6, 7)
        assert (pair.prune_count, pair.carve_count) == (0, 1)

    def test_carve_at_second_fan(self):
        pair = container_pair(
            fixture("v"), 0, 2, full_family(3), SetFamily(3, (0, 1))
        )
        assert pair.certificate.members == (0, 1)
        assert pair.residual.members == (2, 5, 6, 7)
        assert (pair.prune_count, pair.carve_count) == (0, 1)

    def test_frozen_residuals_agree_with_oracle(self):
        blow = blowup(fixture("v"), 0, 2)
        assert oracles.contains_injection(
            full_family(3).members, blow.base.m, blow.base.covers
        )
        for members in [(3, 4, 5, 6, 7), (2, 5, 6, 7)]:
            assert (
                oracles.contains_injection(members, blow.base.m, blow.base.covers)
                is None
            )

    def test_completed_copy_raises(self):
        with pytest.raises(NotPFreeError):
            container_pair(
                fixture("chain2"), 0, 1, full_family(1), full_family(1)
            )
        # [DERIVED] growing through both fans of the v blowup reaches a
        # full copy {0, 1, 3} inside the family
        with pytest.raises(NotPFreeError):
            container_pair(
                fixture("v"), 0, 2, full_family(3), SetFamily(3, (0, 1, 2, 3, 4))
            )

    def test_copy_in_family_may_go_undetected(self):
        # The run only probes along blowup fans, so a family containing the
        # poset can still finish cleanly; the sandwich still holds.
        fam = SetFamily(2, (0, 3))
        assert not is_p_free(fam, fixture("chain2"))
        pair = container_pair(fixture("chain2"), 0, 2, full_family(2), fam)
        assert pair.certificate.members == (0,)
        assert pair.residual.members == (3,)
        assert verify_pair(pair, fam)["covers_family"]

    def test_requires_subfamily_of_source(self):
        with pytest.raises(PreconditionError):
            container_pair(
                fixture("chain2"), 0, 2, SetFamily(2, (0, 1)), SetFamily(2, (2,))
            )
        with pytest.raises(PreconditionError):
            container_pair(
                fixture("chain2"), 0, 2, full_family(2), SetFamily(3, (1,))
            )

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(DomainError):
            container_pair(
                fixture("chain2"), 0, 0, full_family(2), SetFamily(2, ())
            )

    def test_double_run_is_identical(self):
        poset = fixture("chain3")
        fam = random_free_family(poset, 4, seed=7)
        runs = [
            container_pair(poset, 0, 2, full_family(4), fam) for _ in range(2)
        ]
        assert runs[0] == runs[1]
        dumps = [
            json.dumps(container_pair_to_dict(p), sort_keys=True) for p in runs
        ]
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("name", ["chain2", "v", "chain3"])
    @pytest.mark.parametrize("t", [2, 3])
    def test_invariants_across_roots(self, name, t):
        poset = fixture(name)
        source = full_family(4)
        for root in range(poset.m):
            for seed in range(3):
                fam = random_free_family(poset, 4, seed=seed)
                pair = container_pair(poset, root, t, source, fam)
                assert all(verify_pair(pair, fam).values())
                assert pair.certificate.size <= poset.m * pair.carve_count
                removed = source.size - pair.residual.size
                assert removed >= t * pair.carve_count + pair.prune_count

    def test_dict_round_trip(self):
        pair = container_pair(
            fixture("v"), 0, 2, full_family(3), SetFamily(3, (0, 1))
        )
        assert container_pair_from_dict(container_pair_to_dict(pair)) == pair


class TestTwoPhase:
    def test_frozen_two_cube_run(self):
        # [DERIVED] phase one (t=2) only prunes the empty mask; phase two
        # (t=1) carves {1} out of the survivors {1,2,3}.
        pair = two_phase(fixture("chain2"), 0, 2, SetFamily(2, (1, 2)))
        assert pair.certificate.members == (1,)
        assert pair.residual.members == (2,)
        assert pair.params.t == 1
        assert pair.params.source.members == (1, 2, 3)
        assert (pair.prune_count, pair.carve_count) == (1, 1)

    def test_default_multiplicity_is_log_scale(self):
        pair = two_phase(
            fixture("chain2"), 0, 4, random_free_family(fixture("chain2"), 4, 1)
        )
        assert pair.params.t == 2
        tiny = two_phase(fixture("chain2"), 0, 1, SetFamily(1, ()))
        assert tiny.params.t == 1

    @pytest.mark.parametrize("name", ["chain2", "v", "chain3"])
    def test_covers_family_and_residual_is_free(self, name):
        poset = fixture(name)
        for seed in range(4):
            fam = random_free_family(poset, 4, seed=seed)
            pair = two_phase(poset, 0, 4, fam)
            report = verify_pair(pair, fam)
            assert report["covers_family"]
            assert report["residual_blowup_free"]
            assert pair.residual.member_set <= pair.params.source.member_set

    def test_rebuilt_input_is_a_fixed_point(self):
        poset = fixture("v")
        fam = random_free_family(poset, 4, seed=11)
        pair = two_phase(poset, 0, 4, fam)
        rebuilt = SetFamily.from_masks(
            4,
            pair.certificate.members
            + tuple(m for m in fam.members if m in pair.residual.member_set),
        )
        assert rebuilt == fam
        assert two_phase(poset, 0, 4, rebuilt) == pair

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            two_phase(fixture("chain2"), 0, 0, SetFamily(1, ()))
        with pytest.raises(PreconditionError):
            two_phase(fixture("chain2"), 0, 3, SetFamily(2, ()))


class TestBuildCollection:
    def antichains_two_cube(self):
        return [
            SetFamily(2, m) for m in [(), (0,), (1,), (2,), (3,), (1, 2)]
        ]

    def test_antichain_corpus_collapses_to_two_pairs(self):
        coll = build_collection(
            fixture("chain2"), 0, 2, full_family(2), self.antichains_two_cube()
        )
        assert coll.inputs_processed == 6
        assert coll.distinct_count == 2
        assert [p.certificate.members for p in coll.pairs] == [(), (0,)]
        assert [p.residual.members for p in coll.pairs] == [(1, 2, 3), (3,)]
        assert coll.max_certificate_size == 1
        assert coll.max_residual_size == 3
        assert coll.size_bound == 16

    def test_duplicate_inputs_collapse(self):
        fam = SetFamily(2, (1, 2))
        coll = build_collection(
            fixture("chain2"), 0, 2, full_family(2), [fam] * 5
        )
        assert coll.inputs_processed == 5
        assert coll.distinct_count == 1

    def test_distinct_count_within_bound(self):
        poset = fixture("v")
        inputs = [random_free_family(poset, 3, seed=s, density=0.5) for s in range(20)]
        coll = build_collection(poset, 0, 2, full_family(3), inputs)
        assert 0 < coll.distinct_count <= coll.size_bound

    def test_offending_input_is_indexed(self):
        inputs = [SetFamily(1, ()), full_family(1)]
        with pytest.raises(NotPFreeError, match="input 1"):
            build_collection(fixture("chain2"), 0, 1, full_family(1), inputs)

    def test_parallel_matches_sequential(self):
        poset = fixture("chain2")
        inputs = self.antichains_two_cube()
        seq = build_collection(poset, 0, 2, full_family(2), inputs, processes=1)
        par = build_collection(poset, 0, 2, full_family(2), inputs, processes=2)
        assert seq == par

    def test_pool_is_bounded_by_inputs(self, serial_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        poset = fixture("chain2")
        inputs = [SetFamily(2, (0,)), SetFamily(2, (1,)), SetFamily(2, (1, 2))]
        seq = build_collection(poset, 0, 2, full_family(2), inputs)
        par = build_collection(poset, 0, 2, full_family(2), inputs, processes=10_000)
        assert par == seq
        assert serial_pool == [3]

    def test_processes_must_be_positive(self):
        with pytest.raises(DomainError):
            build_collection(
                fixture("chain2"), 0, 2, full_family(2), [], processes=0
            )


class TestVerifyPair:
    def fresh_pair(self):
        fam = SetFamily(2, (1, 2))
        return container_pair(fixture("chain2"), 0, 2, full_family(2), fam), fam

    def test_clause_names_and_fresh_pass(self):
        pair, fam = self.fresh_pair()
        report = verify_pair(pair, fam)
        assert tuple(report) == CLAUSES
        assert all(report.values())

    def test_missing_family_member_fails_cover(self):
        pair, fam = self.fresh_pair()
        tampered = dataclasses.replace(pair, residual=SetFamily(2, (2, 3)))
        assert not verify_pair(tampered, fam)["covers_family"]

    def test_foreign_certificate_member_fails_cover(self):
        pair, fam = self.fresh_pair()
        tampered = dataclasses.replace(pair, certificate=SetFamily(2, (3,)))
        assert not verify_pair(tampered, fam)["covers_family"]

    def test_oversized_certificate_is_flagged(self):
        params = ContainerParams(fixture("chain2"), 0, 8, full_family(2))
        pair = ContainerPair(
            certificate=SetFamily(2, (0, 1)),
            residual=SetFamily(2, (2, 3)),
            params=params,
        )
        report = verify_pair(pair, SetFamily(2, (0, 1, 2)))
        assert not report["certificate_small"]
        assert report["residual_blowup_free"]

    def test_residual_with_copy_is_flagged(self):
        params = ContainerParams(fixture("chain2"), 0, 2, full_family(2))
        pair = ContainerPair(
            certificate=SetFamily(2, ()),
            residual=full_family(2),
            params=params,
        )
        assert not verify_pair(pair, SetFamily(2, ()))["residual_blowup_free"]


class TestCollectionSizeBound:
    def test_small_values(self):
        # [DERIVED] budgets floor(m*s/t) capped at s, then sum of binomials
        assert collection_size_bound(2, 4, 2) == 16
        assert collection_size_bound(2, 4, 4) == 11
        assert collection_size_bound(3, 2, 1) == 4
        assert collection_size_bound(0, 5, 1) == 1

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            collection_size_bound(2, 4, 0)
        with pytest.raises(DomainError):
            collection_size_bound(-1, 4, 1)
