import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_path_tree, make_star_tree, seed_with_first_center, tree_from_edges
from oracles import prufer_edges
from trfnet.receptive_field import build_masks
from trfnet.tree import hop_distances

random_trees = st.integers(3, 12).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    )
)


def tree_of(spec):
    n, seq = spec
    return n, tree_from_edges(n, prufer_edges(seq, n) if n > 2 else [(0, 1)])


def centers_of(t, s, seed):
    """Centers depend only on the stride and the seed, not on r or globals."""
    return list(build_masks(t, 0, s, 0.0, seed).centers)


class TestSelectCenters:
    def test_path_stride_two(self):
        t = make_path_tree(7)
        seed = seed_with_first_center(7, 0)
        assert centers_of(t, s=2, seed=seed) == [0, 2, 4, 6]

    def test_stride_one_floods_tree(self):
        t = make_path_tree(6)
        for seed in range(5):
            centers = centers_of(t, s=1, seed=seed)
            assert sorted(centers) == list(range(6))

    def test_star_from_hub_stops_immediately(self):
        t = make_star_tree(5)
        seed = seed_with_first_center(6, 0)
        assert centers_of(t, s=2, seed=seed) == [0]

    def test_every_center_exactly_stride_away(self):
        t = make_path_tree(11)
        centers = centers_of(t, s=3, seed=4)
        for i in range(1, len(centers)):
            dmin = min(
                int(hop_distances(t, c)[centers[i]]) for c in centers[:i]
            )
            assert dmin == 3

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            centers_of(make_path_tree(3), s=0, seed=0)


class TestBuildMasks:
    def test_path_of_seven_hand_enumeration(self):
        t = make_path_tree(7)
        seed = seed_with_first_center(7, 0)
        plan = build_masks(t, r=1, s=2, global_fraction=0.0, seed=seed)
        assert plan.centers == (0, 2, 4, 6)
        assert [len(f) for f in plan.fields] == [2, 3, 3, 2]
        assert plan.index(7).size == 10
        assert plan.global_count == 0
        assert plan.hidden_count == 4

    def test_global_rounding_ten_percent_of_forty(self):
        # a path of 79 nodes with stride 2 from an endpoint gives 40 centers
        t = make_path_tree(79)
        seed = seed_with_first_center(79, 0)
        plan = build_masks(t, r=1, s=2, global_fraction=0.1, seed=seed)
        assert len(plan.centers) == 40
        assert plan.global_count == 4
        assert plan.hidden_count == 44
        # the last four rows are all-ones global rows
        np.testing.assert_array_equal(plan.index(79)[-4 * 79 :], np.arange(40 * 79, 44 * 79))

    def test_tiny_global_fraction_still_gets_one(self):
        t = make_path_tree(7)
        plan = build_masks(t, r=1, s=2, global_fraction=0.01, seed=0)
        assert plan.global_count == 1

    def test_whole_tree_ball_degenerates_to_dense_row(self):
        t = make_path_tree(5)
        plan = build_masks(t, r=10, s=20, global_fraction=0.0, seed=3)
        assert len(plan.centers) == 1
        assert plan.hidden_count == 1
        np.testing.assert_array_equal(plan.index(5), np.arange(5))

    def test_uncovered_nodes_patched_to_nearest_field(self):
        # r=0 with stride 2: odd nodes fall outside every ball and are adopted
        t = make_path_tree(7)
        seed = seed_with_first_center(7, 0)
        plan = build_masks(t, r=0, s=2, global_fraction=0.0, seed=seed)
        assert plan.centers == (0, 2, 4, 6)
        # node 1 ties between centers 0 and 2 and goes to the earlier one
        assert plan.fields[0] == (0, 1)
        assert plan.fields[1] == (2, 3)
        assert set((plan.index(7) % 7).tolist()) == set(range(7))

    def test_mask_rows_equal_fields(self):
        t = make_path_tree(9)
        plan = build_masks(t, r=2, s=3, global_fraction=0.2, seed=5)
        index = plan.index(9)
        for i, f in enumerate(plan.fields):
            row = index[(index >= i * 9) & (index < (i + 1) * 9)] - i * 9
            np.testing.assert_array_equal(row, f)

    def test_deterministic_bit_for_bit(self):
        t = make_path_tree(13)
        a = build_masks(t, r=2, s=2, global_fraction=0.15, seed=9)
        b = build_masks(t, r=2, s=2, global_fraction=0.15, seed=9)
        assert a == b
        np.testing.assert_array_equal(a.index(13), b.index(13))

    def test_index_is_built_once_read_only_and_not_part_of_the_plan(self):
        plan = build_masks(make_path_tree(13), r=2, s=2, global_fraction=0.15, seed=9)
        fresh = build_masks(make_path_tree(13), r=2, s=2, global_fraction=0.15, seed=9)
        index = plan.index(13)
        assert plan.index(13) is index and not index.flags.writeable
        assert (plan, repr(plan), hash(plan)) == (fresh, repr(fresh), hash(fresh))
        twin = copy.deepcopy(plan)
        assert twin.index(13) is not index and not twin.index(13).flags.writeable
        np.testing.assert_array_equal(twin.index(13), index)
        assert dataclasses.replace(plan, radius=1).index(13) is not index

    @given(random_trees, st.integers(1, 3), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_fields_are_exact_balls_when_stride_covers(self, spec, r, seed):
        n, t = tree_of(spec)
        s = r + 1  # termination then guarantees full coverage by balls
        plan = build_masks(t, r=r, s=s, global_fraction=0.0, seed=seed)
        for c, f in zip(plan.centers, plan.fields):
            dist = hop_distances(t, c)
            assert f == tuple(int(v) for v in np.flatnonzero(dist <= r))

    @given(random_trees, st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_density_rises_with_global_fraction(self, spec, seed):
        n, t = tree_of(spec)
        plans = [build_masks(t, r=1, s=2, global_fraction=g, seed=seed) for g in (0.0, 0.3, 0.7, 1.0)]
        densities = [p.index(n).size / (p.hidden_count * n) for p in plans]
        assert all(a <= b + 1e-12 for a, b in zip(densities, densities[1:]))


def reference_centers(t, s, seed):
    """Greedy center choice from full, unbounded hop distances."""
    first = int(np.random.default_rng(seed).integers(t.node_count))
    centers = [first]
    min_dist = hop_distances(t, first)
    while True:
        candidates = np.flatnonzero(min_dist == s)
        if candidates.size == 0:
            return centers
        centers.append(int(candidates[0]))
        np.minimum(min_dist, hop_distances(t, centers[-1]), out=min_dist)


def reference_fields(t, r, s, seed):
    """r-balls from full hop distances; uncovered nodes go to the nearest, earliest center."""
    centers = reference_centers(t, s, seed)
    dists = np.stack([hop_distances(t, c) for c in centers])
    fields = [set(np.flatnonzero(dists[i] <= r).tolist()) for i in range(len(centers))]
    covered = (dists <= r).any(axis=0)
    for v in np.flatnonzero(~covered):
        fields[int(np.argmin(dists[:, v]))].add(int(v))
    return tuple(centers), tuple(tuple(sorted(f)) for f in fields)


larger_random_trees = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    )
)


class TestBoundedSearchMatchesFullDistances:
    @given(larger_random_trees, st.integers(0, 4), st.integers(1, 7), st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_plan_and_mask_match_reference(self, spec, r, s, seed):
        n, t = tree_of(spec)
        plan = build_masks(t, r=r, s=s, global_fraction=0.0, seed=seed)
        centers, fields = reference_fields(t, r, s, seed)
        assert plan.centers == centers
        assert plan.fields == fields
        expected = np.zeros((len(centers), n), dtype=np.uint8)
        for i, f in enumerate(fields):
            expected[i, list(f)] = 1
        index = plan.index(n)
        assert index.dtype == np.int64
        np.testing.assert_array_equal(index, np.flatnonzero(expected))

    @given(larger_random_trees, st.integers(1, 7), st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_centers_match_reference(self, spec, s, seed):
        _, t = tree_of(spec)
        assert centers_of(t, s, seed) == reference_centers(t, s, seed)

    def test_patched_nodes_on_a_long_path(self):
        # s > 2r + 1: disjoint balls with gaps between them, which are patched
        t = make_path_tree(40)
        for r, s in ((0, 3), (1, 4), (2, 6)):
            plan = build_masks(t, r=r, s=s, global_fraction=0.0, seed=7)
            assert (plan.centers, plan.fields) == reference_fields(t, r, s, 7)
            assert sum(len(f) for f in plan.fields) == 40
            assert any(len(f) > 2 * r + 1 for f in plan.fields)
