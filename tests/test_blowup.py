"""Blowup construction: labels, groups, sizes, gradedness."""
from __future__ import annotations

import pytest

from posetfree.blowup import blowup, blowup_size
from posetfree.caps import ENV_VAR
from posetfree.errors import DomainError, NotTreeError, TooLargeError
from posetfree.fixtures import FIXTURES, fixture
from posetfree.poset import height, is_graded, is_tree_poset, maximal_chains, validate_poset


class TestPath4Instance:
    """The four-element zigzag blown up with t=2: the worked example."""

    def setup_method(self):
        self.b = blowup(fixture("path4"), 0, 2)

    def test_size_and_copies(self):
        assert self.b.size == 9
        assert self.b.copies == (1, 2, 2, 4)
        assert blowup_size(fixture("path4"), 0, 2) == 9

    def test_labels(self):
        assert self.b.labels == (
            (1, 1),
            (2, 1), (2, 2),
            (3, 1), (3, 2),
            (4, 1), (4, 2), (4, 3), (4, 4),
        )

    def test_groups(self):
        assert self.b.groups == {
            (2, 1): (1, 2),
            (3, 1): (3, 4),
            (4, 1): (5, 6),
            (4, 2): (7, 8),
        }

    def test_covers(self):
        # positions 2 and 3 hang below the root copy; position 4 fans
        # upward from each copy of position 3
        assert set(self.b.base.covers) == {
            (1, 0), (2, 0), (3, 0), (4, 0),
            (3, 5), (3, 6), (4, 7), (4, 8),
        }

    def test_graded_height_preserved(self):
        assert is_graded(self.b.base)
        assert height(self.b.base) == height(fixture("path4")) == 2


class TestSizes:
    def test_star(self):
        star = validate_poset(4, [(0, 1), (0, 2), (0, 3)])
        assert blowup_size(star, 0, 2) == 7

    def test_two_chain(self):
        assert blowup_size(fixture("chain2"), 0, 3) == 4

    def test_t1_size_is_m(self):
        for name in FIXTURES:
            if FIXTURES[name].tree:
                p = fixture(name)
                assert blowup_size(p, 0, 1) == p.m

    @pytest.mark.parametrize("name", ["v", "x", "path4", "chain3"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_size_matches_construction(self, name, t):
        p = fixture(name)
        for x in range(p.m):
            assert blowup(p, x, t).size == blowup_size(p, x, t)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, '{"blowup_elements": 5}')
        with pytest.raises(TooLargeError):
            blowup(fixture("path4"), 0, 2)
        monkeypatch.delenv(ENV_VAR)
        blowup(fixture("path4"), 0, 2)  # default cap is ample

    def test_bad_arguments(self):
        with pytest.raises(NotTreeError):
            blowup(fixture("butterfly"), 0, 2)
        with pytest.raises(DomainError):
            blowup(fixture("v"), 0, 0)
        with pytest.raises(ValueError):
            blowup_size(fixture("v"), 7, 2)


class TestStructuralInvariants:
    @pytest.mark.parametrize("name", ["v", "lambda", "n", "path4", "x", "chain3"])
    @pytest.mark.parametrize("t", [2, 3])
    def test_graded_blowups_of_graded_fixtures(self, name, t):
        p = fixture(name)
        for x in range(p.m):
            b = blowup(p, x, t)
            assert is_tree_poset(b.base)
            assert is_graded(b.base)
            assert height(b.base) == height(p)

    @pytest.mark.parametrize("name", ["v", "path4", "x"])
    def test_chains_project_to_base_chains(self, name):
        p = fixture(name)
        b = blowup(p, 0, 2)
        base_chains = {tuple(c) for c in maximal_chains(p)}
        order = b.ordering.order
        for chain in maximal_chains(b.base):
            projected = tuple(order[b.labels[e][0] - 1] for e in chain)
            assert projected in base_chains

    def test_group_partition(self):
        b = blowup(fixture("x"), 0, 3)
        seen = set()
        for (i, _k), ids in b.groups.items():
            assert len(ids) == 3
            assert all(b.labels[e][0] == i for e in ids)
            assert not seen & set(ids)
            seen.update(ids)
        # every non-root copy belongs to exactly one group
        assert len(seen) == b.size - 1

    def test_t1_reproduces_poset(self):
        for name in FIXTURES:
            if not FIXTURES[name].tree:
                continue
            p = fixture(name)
            b = blowup(p, 0, 1)
            order = b.ordering.order
            relabelled = {
                (order[c], order[p2]) for c, p2 in b.base.covers
            }
            assert relabelled == set(p.covers)

    def test_lex_order_is_id_order(self):
        b = blowup(fixture("v"), 0, 2)
        assert list(b.labels) == sorted(b.labels)

    def test_equal_arguments_share_one_blowup(self, monkeypatch):
        b = blowup(fixture("x"), 2, 3)
        assert blowup(fixture("x"), 2, 3) is b
        monkeypatch.setenv(ENV_VAR, '{"blowup_elements": 12}')
        with pytest.raises(TooLargeError):
            blowup(fixture("x"), 2, 3)  # a built blowup still obeys the cap
