import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_dense_csv
from trfnet.data import (
    BinaryDataset,
    Dataset,
    DiscretizationPolicy,
    discretize,
    load_dense_csv,
    load_sparse_bow,
    save_sparse_bow,
    split,
)
from trfnet.errors import DataFormatError, EmptyInputError, PolicyViolationError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDenseCsv:
    def test_basic_readback(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,y\n1,2,0\n3,4,1\n")
        d = load_dense_csv(p, has_labels=True)
        assert d.n_samples == 2 and d.n_features == 2
        assert d.feature_names == ("a", "b")
        np.testing.assert_array_equal(d.values, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(d.labels, [0, 1])

    def test_header_only_is_empty_input(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n")
        with pytest.raises(EmptyInputError):
            load_dense_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "d.csv", "")
        with pytest.raises(EmptyInputError):
            load_dense_csv(p)

    def test_bad_cell_names_line(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,y\n1,x,0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dense_csv(p, has_labels=True)

    def test_wrong_arity_names_line(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_dense_csv(p)

    def test_non_integer_label(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,y\n1,2,zero\n")
        with pytest.raises(DataFormatError, match="label"):
            load_dense_csv(p, has_labels=True)

    def test_undecodable_bytes_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(DataFormatError, match=r"d\.csv: not UTF-8"):
            load_dense_csv(p)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(7, 4)), labels=rng.integers(0, 3, 7))
        p = tmp_path / "rt.csv"
        save_dense_csv(d, p)
        back = load_dense_csv(p, has_labels=True)
        np.testing.assert_array_equal(back.values, d.values)
        np.testing.assert_array_equal(back.labels, d.labels)


class TestSparseBow:
    def test_basic_readback(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "cat\ndog\nfish\n")
        docs = write(tmp_path, "d.txt", "1 0:2 2:1\n")
        d = load_sparse_bow(docs, vocab)
        np.testing.assert_array_equal(d.values, [[2.0, 0.0, 1.0]])
        assert d.labels.tolist() == [1]
        assert d.feature_names == ("cat", "dog", "fish")

    def test_empty_document_row(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", "0\n")
        d = load_sparse_bow(docs, vocab)
        np.testing.assert_array_equal(d.values, [[0.0, 0.0, 0.0]])
        assert d.labels.tolist() == [0]

    def test_out_of_vocabulary_index(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", "0 5:1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_sparse_bow(docs, vocab)

    def test_duplicate_index(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", "0 1:1 1:2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_sparse_bow(docs, vocab)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1", "malformed entry '1'"),
            ("1:x", "malformed entry '1:x'"),
            ("1:2:3", "malformed entry '1:2:3'"),
            ("1:0", "count 0 must be >= 1"),
            ("1:" + "9" * 400, "count " + "9" * 400 + " above 2\\*\\*53"),
            (f"1:{2**60 + 1}", f"count {2**60 + 1} above 2\\*\\*53"),
        ],
    )
    def test_malformed_entry_names_line(self, tmp_path, entry, message):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", f"0 0:1\n1 {entry}\n")
        with pytest.raises(DataFormatError, match=rf"d\.txt: line 2: {message}"):
            load_sparse_bow(docs, vocab)

    def test_count_of_two_to_the_53_is_exact(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\n")
        docs = write(tmp_path, "d.txt", f"0 1:{2**53}\n")
        assert load_sparse_bow(docs, vocab).values[0, 1] == 2**53

    @pytest.mark.parametrize("damaged", ["v.txt", "d.txt"])
    def test_undecodable_bytes_rejected(self, tmp_path, damaged):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", "0 1:1\n1 2:3\n")
        (tmp_path / damaged).write_bytes((tmp_path / damaged).read_bytes() + b"\xff\n")
        with pytest.raises(DataFormatError, match=damaged.replace(".", r"\.") + ": not UTF-8"):
            load_sparse_bow(docs, vocab)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.integers(0, 4, size=(6, 5)).astype(np.float64)
        values[0, 0] = 1.0  # keep at least one nonzero somewhere
        d = Dataset(values, labels=rng.integers(0, 2, 6))
        save_sparse_bow(d, tmp_path / "d.txt", tmp_path / "v.txt")
        back = load_sparse_bow(tmp_path / "d.txt", tmp_path / "v.txt")
        np.testing.assert_array_equal(back.values, d.values)
        np.testing.assert_array_equal(back.labels, d.labels)

    def test_roundtrip_of_the_largest_counts(self, tmp_path):
        values = np.array([[1.0, 0.0, 2.0**53], [0.0, 0.0, 0.0], [3.0, 2.0**52 + 1, 0.0]])
        d = Dataset(values, feature_names=("a", "b", "c"), labels=np.array([2, 0, 1]))
        save_sparse_bow(d, tmp_path / "d.txt", tmp_path / "v.txt")
        assert (tmp_path / "d.txt").read_text() == f"2 0:1 2:{2**53}\n0\n1 0:3 1:{2**52 + 1}\n"
        back = load_sparse_bow(tmp_path / "d.txt", tmp_path / "v.txt")
        np.testing.assert_array_equal(back.values, d.values)
        np.testing.assert_array_equal(back.labels, d.labels)
        assert back.feature_names == d.feature_names

    # each of these the loader would refuse (a count of 0 or a malformed entry)
    @pytest.mark.parametrize("bad", [0.5, -1.0, 1.5, 2.0**53 + 2, 1e300])
    def test_writer_rejects_a_value_that_is_not_a_count(self, tmp_path, bad):
        values = np.ones((4, 3))
        values[2, 1] = bad
        d = Dataset(values, labels=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match=r"row 2: value .* in column 1 is not an integer count"):
            save_sparse_bow(d, tmp_path / "d.txt", tmp_path / "v.txt")
        assert not (tmp_path / "d.txt").exists() and not (tmp_path / "v.txt").exists()


class TestCopyFreeContainers:
    """The arrays trfnet makes for a container are frozen, not copied; a caller's are copied."""

    def test_loaded_values_are_read_only_and_as_before(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\nd\n")
        docs = write(tmp_path, "d.txt", "1 0:2 3:1\n0\n2 1:5 2:1 3:7\n")
        d = load_sparse_bow(docs, vocab)
        assert not d.values.flags.writeable and d.values.dtype == np.float64
        expected = Dataset(np.array([[2.0, 0, 0, 1], [0, 0, 0, 0], [0, 5, 1, 7]]),
                           feature_names=("a", "b", "c", "d"), labels=np.array([1, 0, 2]))
        np.testing.assert_array_equal(d.values, expected.values)
        np.testing.assert_array_equal(d.labels, expected.labels)
        assert d.feature_names == expected.feature_names
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0

    def test_loader_holds_one_values_array(self, tmp_path):
        n, v = 200, 2500
        rng = np.random.default_rng(3)
        lines = []
        for i in range(n):
            cols = np.sort(rng.choice(v, size=5, replace=False))
            lines.append(" ".join([str(i % 3)] + [f"{j}:{i % 4 + 1}" for j in cols]))
        vocab = write(tmp_path, "v.txt", "".join(f"w{j}\n" for j in range(v)))
        docs = write(tmp_path, "d.txt", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            d = load_sparse_bow(docs, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a second copy of the values would take the peak past 2 * nbytes
        assert peak < 1.5 * d.values.nbytes

    def test_callers_array_is_copied(self):
        a = np.zeros((3, 4))
        d = Dataset(a)
        a[0, 0] = 7.0
        assert d.values[0, 0] == 0.0 and a.flags.writeable
        b = np.zeros((3, 4), dtype=np.int8)
        bd = BinaryDataset(b)
        b[0, 0] = 1
        assert bd.values[0, 0] == 0 and b.flags.writeable

    def test_subset_rows_are_frozen(self):
        d = Dataset(np.arange(12.0).reshape(4, 3), labels=np.arange(4))
        part = d.subset([2, 0])
        np.testing.assert_array_equal(part.values, [[6.0, 7, 8], [0, 1, 2]])
        assert not part.values.flags.writeable

    def test_discretize_freezes_its_own_array(self):
        n, v = 300, 3000
        d = Dataset((np.random.default_rng(5).random((n, v)) < 0.05) * 3.0)
        tracemalloc.start()
        try:
            bd = discretize(d, DiscretizationPolicy.fixed(0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(bd.values, d.values > 0)
        assert bd.values.dtype == np.int8 and not bd.values.flags.writeable
        # the comparison's bytes and one check's bytes; a cast or a copy would add N * V more
        assert peak < 2.5 * n * v


class TestDiscretize:
    def test_median_split(self):
        d = Dataset(np.array([[1.0, 0], [2, 0], [3, 1], [4, 1]]))
        b = discretize(d, DiscretizationPolicy.median())
        np.testing.assert_array_equal(b.values[:, 0], [0, 0, 1, 1])

    def test_fixed_zero_on_binary_is_identity(self):
        values = np.array([[0.0, 1], [1, 0], [1, 1]])
        d = Dataset(values)
        b = discretize(d, DiscretizationPolicy.fixed(0.0))
        np.testing.assert_array_equal(b.values, values)

    def test_ties_go_to_zero(self):
        d = Dataset(np.array([[5.0, 1], [5, 2], [5, 3], [5, 4]]))
        b = discretize(d, DiscretizationPolicy.median())
        np.testing.assert_array_equal(b.values[:, 0], [0, 0, 0, 0])

    def test_already_binary_rejects_other_values(self):
        d = Dataset(np.array([[0.0, 2.0], [1.0, 0.0]]))
        with pytest.raises(PolicyViolationError):
            discretize(d, DiscretizationPolicy.already_binary())

    def test_already_binary_idempotent(self):
        d = Dataset(np.array([[0.0, 1], [1, 0], [1, 1]]))
        once = discretize(d, DiscretizationPolicy.already_binary())
        again = discretize(
            Dataset(once.values.astype(np.float64)), DiscretizationPolicy.already_binary()
        )
        np.testing.assert_array_equal(once.values, again.values)

    def test_source_untouched(self):
        values = np.array([[1.0, 4.0], [3.0, 2.0]])
        d = Dataset(values)
        discretize(d, DiscretizationPolicy.median())
        np.testing.assert_array_equal(d.values, values)

    def test_fixed_requires_finite_threshold(self):
        with pytest.raises(ValueError):
            DiscretizationPolicy.fixed(float("inf"))


class TestSplit:
    def test_sizes(self):
        d = Dataset(np.arange(20.0).reshape(10, 2), labels=np.arange(10) % 2)
        train, valid, test = split(d, 0.8, 0.1, seed=3)
        assert (train.n_samples, valid.n_samples, test.n_samples) == (8, 1, 1)

    def test_deterministic(self):
        d = Dataset(np.arange(40.0).reshape(20, 2))
        a = split(d, 0.5, 0.25, seed=7)
        b = split(d, 0.5, 0.25, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)

    def test_bad_fractions(self):
        d = Dataset(np.arange(20.0).reshape(10, 2))
        with pytest.raises(ValueError):
            split(d, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            split(d, 0.5, 0.6, seed=0)

    @given(
        n=st.integers(min_value=3, max_value=60),
        train_frac=st.floats(min_value=0.1, max_value=0.7),
        valid_frac=st.floats(min_value=0.0, max_value=0.2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, train_frac, valid_frac, seed):
        d = Dataset(np.arange(n, dtype=np.float64).repeat(2).reshape(n, 2))
        pieces = split(d, train_frac, valid_frac, seed)
        rows = [tuple(p.values[i]) for p in pieces if p is not None for i in range(p.n_samples)]
        assert len(rows) == n
        assert len(set(rows)) == n  # disjoint and complete


class TestBinaryDataset:
    @pytest.mark.parametrize("bad", [0.5, 256, -1, 2])
    def test_non_binary_value_rejected_before_the_cast(self, bad):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            BinaryDataset(np.array([[bad, 1.0], [0, 0]]))

    # int8 is checked as unsigned bytes, where -1 reads as 255
    @pytest.mark.parametrize("bad", [2, -1, 127, -128])
    def test_int8_value_other_than_0_and_1_rejected(self, bad):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            BinaryDataset(np.array([[0, 1, 1], [1, bad, 0]], dtype=np.int8))

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_zero_one_values_accepted(self, dtype):
        b = BinaryDataset(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert b.values.dtype == np.int8
        np.testing.assert_array_equal(b.values, [[0, 1], [1, 0]])


class TestDatasetInvariants:
    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 1)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), feature_names=("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), labels=np.array([0, 1]))

    def test_labels_without_an_axis_rejected(self):
        with pytest.raises(ValueError, match="labels must be a vector"):
            Dataset(np.ones((3, 2)), labels=5)

    def test_values_are_readonly(self):
        d = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0
