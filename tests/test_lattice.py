"""Set families, chain profiles, marked-chain counts, entropy bounds."""
from __future__ import annotations

from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from posetfree.errors import (
    DomainError,
    InvalidMarkedChainError,
    PreconditionError,
    TooLargeError,
)
from posetfree.lattice import (
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


def full_family(n: int) -> SetFamily:
    return SetFamily(n, tuple(range(1 << n)))


def random_family(n: int, seed: int, density: float = 0.5) -> SetFamily:
    rng = np.random.Generator(np.random.Philox(seed))
    picks = rng.random(1 << n) < density
    return SetFamily.from_masks(n, (m for m in range(1 << n) if picks[m]))


class TestSetFamily:
    def test_from_masks_sorts_and_dedupes(self):
        fam = SetFamily.from_masks(3, [5, 1, 5, 0])
        assert fam.members == (0, 1, 5)
        assert fam.size == 3
        assert 5 in fam and 2 not in fam

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SetFamily(3, (8,))
        with pytest.raises(ValueError):
            SetFamily(3, (-1,))
        with pytest.raises(ValueError):
            SetFamily(3, (1, 1))

    def test_layer_family(self):
        assert layer_family(4, [2]).members == (3, 5, 6, 9, 10, 12)
        assert layer_family(3, [0, 3]).members == (0, 7)
        assert layer_family(2, []).members == ()

    def test_complement_family_is_an_involution(self):
        fam = SetFamily.from_masks(3, [0, 3])
        assert complement_family(fam).members == (4, 7)
        for seed in range(5):
            f = random_family(4, seed)
            assert complement_family(complement_family(f)) == f

    def test_text_round_trip(self):
        fam = SetFamily.from_masks(4, [0b0101, 0, 0b1111])
        text = family_to_text(fam)
        assert text == "4\n0000\n1010\n1111\n"
        assert family_from_text(text) == fam

    def test_text_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            family_from_text("3\n01\n")
        with pytest.raises(ValueError):
            family_from_text("2\n0x\n")
        with pytest.raises(ValueError):
            family_from_text("")

    def test_dict_round_trip(self):
        fam = random_family(4, 7)
        assert family_from_dict(family_to_dict(fam)) == fam

    def test_dict_rejects_non_integers_and_missing_keys(self):
        for data in (
            {"n": 3, "members": [2.7]},
            {"n": 3, "members": ["5"]},
            {"n": 3, "members": [True]},
            {"n": 3.0, "members": [1]},
            {"n": True, "members": [1]},
            {"n": 3},
            {"members": [1]},
            {"n": 3, "members": 5},
            [3, [1]],
        ):
            with pytest.raises(ValueError):
                family_from_dict(data)
        assert family_from_dict({"n": 3, "members": [5, 2]}).members == (2, 5)


class TestEntropyBound:
    def test_half_alpha(self):
        lhs, rhs = entropy_bound(0.5, 4)
        assert lhs == 11
        assert rhs == pytest.approx(16.0)

    def test_zero_alpha(self):
        assert entropy_bound(0.0, 10) == (1, 1.0)

    def test_quarter_alpha(self):
        lhs, rhs = entropy_bound(0.25, 8)
        assert lhs == 1 + 8 + 28
        assert 89.0 < rhs < 91.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            entropy_bound(-0.1, 4)
        with pytest.raises(DomainError):
            entropy_bound(0.51, 4)

    @given(st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=0, max_value=30))
    def test_bound_always_holds(self, alpha, n):
        lhs, rhs = entropy_bound(alpha, n)
        assert lhs <= rhs * (1 + 1e-12)


class TestTrimAlpha:
    def test_full_family_on_four_points(self):
        mid, tail = trim_alpha(full_family(4), 0.3)
        assert {m.bit_count() for m in mid.members} == {2}
        assert mid.size == 6
        assert tail.size == 10
        assert sorted(mid.members + tail.members) == list(range(16))

    def test_empty_family(self):
        mid, tail = trim_alpha(SetFamily(4, ()), 0.3)
        assert mid.members == () and tail.members == ()

    def test_three_member_family(self):
        fam = SetFamily.from_masks(2, [0, 1, 3])
        mid, tail = trim_alpha(fam, 0.4)
        assert mid.members == (1,)
        assert tail.members == (0, 3)

    def test_end_points_are_accepted(self):
        assert trim_alpha(full_family(2), 0.0) == (full_family(2), SetFamily(2, ()))
        assert trim_alpha(full_family(2), 0.5)[0].members == (1, 2)

    @pytest.mark.parametrize("alpha", [0.9, 0.51, -1.0, float("nan")])
    def test_alpha_outside_half_is_domain_error(self, alpha):
        with pytest.raises(DomainError):
            trim_alpha(full_family(2), alpha)


class TestChainProfile:
    def test_full_family_on_two_points(self):
        prof = chain_profile(full_family(2))
        assert prof.counts == (0, 0, 0, 2)

    def test_empty_family(self):
        assert chain_profile(SetFamily(3, ())).counts == (6, 0, 0, 0, 0)

    def test_singleton_layer_on_three_points(self):
        prof = chain_profile(layer_family(3, [1]))
        assert prof.counts == (0, 6, 0, 0, 0)
        assert prof.mean_members() == pytest.approx(1.0)

    def test_total_is_factorial(self):
        for n in range(5):
            for seed in range(4):
                assert sum(chain_profile(random_family(n, seed)).counts) == factorial(n)

    def test_incidence_identity(self):
        for seed in range(6):
            fam = random_family(4, seed)
            prof = chain_profile(fam)
            lhs = sum(i * c for i, c in enumerate(prof.counts))
            rhs = sum(
                factorial(m.bit_count()) * factorial(4 - m.bit_count())
                for m in fam.members
            )
            assert lhs == rhs

    def test_dp_matches_bruteforce_and_oracle(self):
        for n in range(6):
            for seed in range(3):
                fam = random_family(n, seed + 10 * n)
                dp = chain_profile(fam)
                assert dp.counts == oracles.chain_profile_by_permutations(n, fam.members)

    def test_caps(self, monkeypatch):
        with pytest.raises(TooLargeError):
            chain_profile(SetFamily(15, ()))
        with pytest.raises(TooLargeError):
            next(enumerate_marked_chains(SetFamily(11, ()), 1, 1))
        monkeypatch.setenv("POSET_CONTAINERS_CAPS", '{"profile_dp_n": 3}')
        with pytest.raises(TooLargeError):
            chain_profile(SetFamily(4, ()))

    def test_profile_type_rejects_bad_total(self):
        with pytest.raises(AssertionError):
            ChainProfile(2, (0, 0, 0, 1))


class TestCountMarkedChains:
    def test_two_point_examples(self):
        assert count_marked_chains(full_family(2), 2, 1) == 6
        assert count_marked_chains(full_family(2), 2, 2) == 2

    def test_single_marker_reduces_to_incidence_count(self):
        for seed in range(5):
            fam = random_family(4, seed)
            expected = sum(
                factorial(m.bit_count()) * factorial(4 - m.bit_count())
                for m in fam.members
            )
            for a in (1, 2, 3):
                assert count_marked_chains(fam, 1, a) == expected

    def test_matches_bruteforce_and_oracle(self):
        for n in range(2, 6):
            for seed in range(3):
                fam = random_family(n, seed + 3 * n)
                for k in (1, 2, 3):
                    for a in (1, 2):
                        exact = count_marked_chains(fam, k, a)
                        assert exact == oracles.marked_chains_by_permutations(
                            n, fam.members, k, a
                        )

    def test_monotone_in_the_family(self):
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(10):
            fam = random_family(4, int(rng.integers(1 << 30)))
            missing = [m for m in range(16) if m not in fam]
            if not missing:
                continue
            extra = SetFamily.from_masks(4, fam.members + (missing[0],))
            for k, a in [(1, 1), (2, 1), (2, 2), (3, 1)]:
                assert count_marked_chains(extra, k, a) >= count_marked_chains(fam, k, a)

    def test_binomial_floor(self):
        for seed in range(4):
            fam = random_family(4, seed)
            prof = chain_profile(fam)
            for k, a in [(2, 2), (3, 2), (2, 3)]:
                shift = (k - 1) * (a - 1)
                floor = sum(
                    comb(i - shift, k)
                    for i, c in enumerate(prof.counts)
                    if i - shift >= k
                    for _ in range(c)
                )
                assert count_marked_chains(fam, k, a) >= floor

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            count_marked_chains(full_family(2), 0, 1)
        with pytest.raises(DomainError):
            count_marked_chains(full_family(2), 1, 0)
        with pytest.raises(TooLargeError):
            count_marked_chains(SetFamily(15, ()), 2, 1)


class TestEnumerateMarkedChains:
    def test_enumeration_matches_count(self):
        for n in range(2, 5):
            fam = random_family(n, n)
            for k, a in [(1, 1), (2, 1), (2, 2)]:
                chains = list(enumerate_marked_chains(fam, k, a))
                assert len(chains) == count_marked_chains(fam, k, a)
                for mc in chains:
                    mc.validate(fam, a)

    def test_two_point_instance(self):
        chains = list(enumerate_marked_chains(full_family(2), 2, 2))
        assert len(chains) == 2
        for mc in chains:
            assert mc.marker_sizes == (2, 0)
            assert mc.marker_masks() == (3, 0)


class TestMarkedChainValidation:
    def setup_method(self):
        self.fam = full_family(2)

    def test_valid_chain_passes(self):
        MarkedChain((0, 1), (2, 1)).validate(self.fam, a=1)

    def test_bad_permutation(self):
        with pytest.raises(InvalidMarkedChainError):
            MarkedChain((0, 0), (2, 1)).validate(self.fam)

    def test_gap_too_small(self):
        with pytest.raises(InvalidMarkedChainError):
            MarkedChain((0, 1), (2, 1)).validate(self.fam, a=2)

    def test_non_decreasing_sizes(self):
        with pytest.raises(InvalidMarkedChainError):
            MarkedChain((0, 1), (1, 1)).validate(self.fam)

    def test_marker_outside_family(self):
        small = SetFamily.from_masks(2, [0, 3])
        with pytest.raises(InvalidMarkedChainError):
            MarkedChain((0, 1), (2, 1)).validate(small)

    def test_no_markers(self):
        with pytest.raises(InvalidMarkedChainError):
            MarkedChain((0, 1), ()).validate(self.fam)


class TestMarkedChainLowerBound:
    def test_two_point_instance(self):
        holds, bound = marked_chain_lower_bound(full_family(2), 2, 1, 0.9)
        assert holds
        assert bound == pytest.approx(0.9)

    def test_two_middle_layers_on_four_points(self):
        fam = layer_family(4, [2, 3])
        assert fam.size == 10
        holds, bound = marked_chain_lower_bound(fam, 2, 1, 0.5)
        assert holds
        assert bound == pytest.approx(6.0)

    def test_small_family_rejected(self):
        with pytest.raises(PreconditionError):
            marked_chain_lower_bound(layer_family(4, [2]), 2, 1, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2 ** 30),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=2),
    )
    def test_holds_whenever_the_hypothesis_does(self, n, seed, k, a):
        fam = random_family(n, seed, density=0.9)
        eps = 0.3
        if fam.size <= ((k - 1) * a + eps) * comb(n, n // 2):
            with pytest.raises(PreconditionError):
                marked_chain_lower_bound(fam, k, a, eps)
        else:
            holds, _bound = marked_chain_lower_bound(fam, k, a, eps)
            assert holds

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            marked_chain_lower_bound(full_family(2), 2, 1, -0.5)
