import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_binary_dataset, sparse_binaries
from oracles import ContingencyCounts, empirical_mi, entropy_reference, mi_reference, pair_counts
from trfnet.data import BinaryDataset
from trfnet import stats
from trfnet.stats import _count_dtype, _mi_from_cells, mi_matrix

# frozen from oracles.mi_reference([[40, 10], [10, 40]])
MI_40_10 = 0.19274475702175753


def binary(values) -> BinaryDataset:
    return BinaryDataset(np.asarray(values, dtype=np.int8))


tables = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(1, 50)
).map(lambda t: [[t[0], t[1]], [t[2], t[3]]])


class TestPairCounts:
    def test_balanced(self):
        d = binary([[0, 0], [0, 1], [1, 0], [1, 1]])
        c = pair_counts(d, 0, 1)
        np.testing.assert_array_equal(c.n, [[1, 1], [1, 1]])
        assert c.total == 4

    def test_all_ones(self):
        d = binary([[1, 1]] * 5)
        c = pair_counts(d, 0, 1)
        np.testing.assert_array_equal(c.n, [[0, 0], [0, 5]])

    def test_same_feature_rejected(self):
        d = binary([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            pair_counts(d, 1, 1)

    def test_counts_sum_to_total(self):
        with pytest.raises(ValueError):
            ContingencyCounts(np.array([[1, 1], [1, 1]]), total=5)


class TestEmpiricalMi:
    def test_independent_bits_zero(self):
        assert empirical_mi(ContingencyCounts(np.array([[1, 1], [1, 1]]), 4)) == 0.0

    def test_identical_fair_bits_ln2(self):
        mi = empirical_mi(ContingencyCounts(np.array([[2, 0], [0, 2]]), 4))
        assert mi == pytest.approx(math.log(2), abs=1e-12)

    def test_frozen_oracle_value(self):
        mi = empirical_mi(ContingencyCounts(np.array([[40, 10], [10, 40]]), 100))
        assert mi == pytest.approx(MI_40_10, abs=1e-12)
        assert mi == pytest.approx(mi_reference([[40, 10], [10, 40]]), abs=1e-12)

    @given(tables)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_symmetric_nonnegative(self, table):
        total = sum(sum(r) for r in table)
        c = ContingencyCounts(np.array(table), total)
        mi = empirical_mi(c)
        assert mi == pytest.approx(mi_reference(table), abs=1e-12)
        transposed = ContingencyCounts(np.array(table).T, total)
        assert empirical_mi(transposed) == mi  # exact symmetry
        assert mi >= -1e-12

    def test_copy_has_entropy_mi(self):
        # a feature against an exact copy: MI equals the marginal entropy
        c = ContingencyCounts(np.array([[60, 0], [0, 40]]), 100)
        assert empirical_mi(c) == pytest.approx(entropy_reference([60, 40]), abs=1e-12)


class TestMiMatrix:
    def test_duplicate_beats_independent(self):
        rng = np.random.default_rng(0)
        a = (rng.random(600) < 0.5).astype(np.int8)
        c = (rng.random(600) < 0.5).astype(np.int8)
        d = binary(np.column_stack([a, a, c]))
        m = mi_matrix(d)
        assert m[0, 1] > m[0, 2]
        assert m[0, 1] == pytest.approx(math.log(2), abs=0.05)

    def test_smallest_case_mirrored(self):
        d = binary([[0, 0], [1, 1], [0, 1], [1, 1]])
        m = mi_matrix(d)
        assert m.shape == (2, 2)
        assert m[0, 1] == m[1, 0]
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_every_entry_matches_single_pair_recomputation(self):
        d = random_binary_dataset(200, 6, seed=42)
        bd = binary(d.values)
        m = mi_matrix(bd)
        for s in range(6):
            for t in range(6):
                if s == t:
                    assert m[s, t] == 0.0
                else:
                    assert m[s, t] == empirical_mi(pair_counts(bd, s, t))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_nonnegative(self, seed):
        d = random_binary_dataset(50, 5, seed=seed)
        m = mi_matrix(binary(d.values))
        np.testing.assert_array_equal(m, m.T)
        assert (m >= -1e-12).all()


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def untiled_mi_matrix(bd: BinaryDataset) -> np.ndarray:
    """The one-shot V x V formula, kept as the reference for the row-block version."""
    x = bd.values.astype(np.float64)
    n = float(bd.n_samples)
    ones = x.sum(axis=0)
    n11 = x.T @ x
    zeros = n - ones
    t00 = _mi_from_cells(n - ones[:, None] - ones[None, :] + n11, zeros[:, None], zeros[None, :], n)
    t01 = _mi_from_cells(ones[None, :] - n11, zeros[:, None], ones[None, :], n)
    t10 = _mi_from_cells(ones[:, None] - n11, ones[:, None], zeros[None, :], n)
    t11 = _mi_from_cells(n11, ones[:, None], ones[None, :], n)
    upper = np.triu((t00 + t11) + (t01 + t10), k=1)
    return upper + upper.T


@st.composite
def dense_binaries(draw, v_range):
    """0/1 data whose columns are each present in 20-80% of the rows."""
    v = draw(st.integers(*v_range))
    return binary(random_binary_dataset(40, v, seed=draw(st.integers(0, 10_000))).values)


def binaries(v_range):
    return st.one_of(dense_binaries(v_range), sparse_binaries(v_range))


class TestRowBlockedMiMatrix:
    @given(binaries((2, 13)), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_every_entry_bit_identical_to_pair_mi(self, bd, block):
        v = bd.n_features
        with mock.patch.object(stats, "MI_ROW_BLOCK", block):
            m = mi_matrix(bd)
        assert m.tobytes() == untiled_mi_matrix(bd).tobytes()
        for s in range(v):
            assert bits(m[s, s]) == bits(0.0)
            for t in range(s + 1, v):
                expected = bits(empirical_mi(pair_counts(bd, s, t)))
                assert bits(m[s, t]) == expected
                assert bits(m[t, s]) == expected

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @given(st.data())
    @settings(max_examples=8, deadline=None)
    def test_block_boundary_matches_untiled_formula(self, offset, data):
        v = stats.MI_ROW_BLOCK + offset
        bd = data.draw(binaries((v, v)))
        m = mi_matrix(bd)
        assert m.tobytes() == untiled_mi_matrix(bd).tobytes()
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        for s, t in rng.integers(0, v, size=(100, 2)):
            if s != t:
                assert bits(m[s, t]) == bits(empirical_mi(pair_counts(bd, int(s), int(t))))

    def test_every_marginal_count_distinct(self):
        # V distinct marginal counts, most pairs never co-occurring: the
        # marginal-count table is as wide as the matrix, and must still be
        # built one row block at a time
        v, n = 2 * stats.MI_ROW_BLOCK + 5, 1200
        rng = np.random.default_rng(5)
        x = np.zeros((n, v), dtype=bool)
        for j, start in enumerate(rng.integers(0, n, size=v)):
            x[np.arange(start, start + j) % n, j] = True
        bd = binary(x)
        sizes, formula = [], stats._pair_mi

        def pair_mi(*args):
            out = formula(*args)
            sizes.append(out.size)
            return out

        with mock.patch.object(stats, "_pair_mi", pair_mi):
            m = mi_matrix(bd)
        assert np.unique(x.sum(axis=0)).size == v
        assert m.tobytes() == untiled_mi_matrix(bd).tobytes()
        assert max(sizes) <= stats.MI_ROW_BLOCK * v

    def test_result_is_read_only_and_not_copied(self):
        bd = binary(random_binary_dataset(30, 7, seed=3).values)
        m = mi_matrix(bd)
        assert not m.flags.writeable
        assert m.base is None


class TestCountDtype:
    def test_counts_are_float32_while_exact(self):
        # float32 holds every integer up to 2**24, so counts of at most
        # 2**24 - 1 rows are exact in it
        assert _count_dtype(2**24 - 1) is np.float32
        assert _count_dtype(2**24) is np.float64
        assert float(np.float32(2**24 - 1)) == 2**24 - 1

    def test_float32_counts_give_the_float64_bytes(self):
        bd = binary(random_binary_dataset(300, 40, seed=11).values)
        with mock.patch.object(stats, "_count_dtype", lambda n: np.float64):
            wide = mi_matrix(bd)
        assert mi_matrix(bd).tobytes() == wide.tobytes()
