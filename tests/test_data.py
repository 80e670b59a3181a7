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

    @pytest.mark.parametrize("label", ["99999999999999999999999", str(2**63), str(-(2**63) - 1)])
    def test_label_outside_int64_names_line(self, tmp_path, label):
        p = write(tmp_path, "d.csv", f"a,b,y\n1,2,0\n1,2,{label}\n")
        with pytest.raises(DataFormatError, match=rf"d\.csv: line 3: label '{label}' is outside int64"):
            load_dense_csv(p, has_labels=True)

    def test_int64_extremes_are_labels(self, tmp_path):
        p = write(tmp_path, "d.csv", f"a,b,y\n1,2,{2**63 - 1}\n1,2,{-(2**63)}\n")
        assert load_dense_csv(p, has_labels=True).labels.tolist() == [2**63 - 1, -(2**63)]

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
        np.testing.assert_array_equal(d.dense(), [[2.0, 0.0, 1.0]])
        assert d.labels.tolist() == [1]
        assert d.feature_names == ("cat", "dog", "fish")

    def test_empty_document_row(self, tmp_path):
        vocab = write(tmp_path, "v.txt", "a\nb\nc\n")
        docs = write(tmp_path, "d.txt", "0\n")
        d = load_sparse_bow(docs, vocab)
        np.testing.assert_array_equal(d.dense(), [[0.0, 0.0, 0.0]])
        assert d.labels.tolist() == [0]

    @pytest.mark.parametrize("label", ["99999999999999999999999", str(2**63), str(-(2**63) - 1)])
    def test_label_outside_int64_names_line(self, tmp_path, label):
        vocab = write(tmp_path, "v.txt", "a\nb\n")
        docs = write(tmp_path, "d.txt", f"0 0:1\n{label} 0:1\n")
        with pytest.raises(DataFormatError, match=rf"d\.txt: line 2: label '{label}' is outside int64"):
            load_sparse_bow(docs, vocab)

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
        assert load_sparse_bow(docs, vocab).dense()[0, 1] == 2**53

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
        np.testing.assert_array_equal(back.dense(), d.values)
        np.testing.assert_array_equal(back.labels, d.labels)

    def test_roundtrip_of_the_largest_counts(self, tmp_path):
        values = np.array([[1.0, 0.0, 2.0**53], [0.0, 0.0, 0.0], [3.0, 2.0**52 + 1, 0.0]])
        d = Dataset(values, feature_names=("a", "b", "c"), labels=np.array([2, 0, 1]))
        save_sparse_bow(d, tmp_path / "d.txt", tmp_path / "v.txt")
        assert (tmp_path / "d.txt").read_text() == f"2 0:1 2:{2**53}\n0\n1 0:3 1:{2**52 + 1}\n"
        back = load_sparse_bow(tmp_path / "d.txt", tmp_path / "v.txt")
        np.testing.assert_array_equal(back.dense(), d.values)
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
        # the corpus is held as its nonzeros: row pointers, columns and float64 counts
        nz = d.values
        for a in (nz.indptr, nz.columns, nz.entries):
            assert not a.flags.writeable
        assert nz.entries.dtype == np.float64
        expected = Dataset(np.array([[2.0, 0, 0, 1], [0, 0, 0, 0], [0, 5, 1, 7]]),
                           feature_names=("a", "b", "c", "d"), labels=np.array([1, 0, 2]))
        np.testing.assert_array_equal(d.dense(), expected.values)
        np.testing.assert_array_equal(d.labels, expected.labels)
        assert d.feature_names == expected.feature_names
        with pytest.raises(ValueError):
            nz.entries[0] = 1.0

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
        # the dense N x V float64 array the loader once made would take the
        # peak past this on its own; TestLoaderMemory bounds it tightly
        assert peak < 1.5 * d.n_samples * d.n_features * 8

    def test_callers_array_is_copied(self):
        a = np.zeros((3, 4))
        d = Dataset(a)
        a[0, 0] = 7.0
        assert d.values[0, 0] == 0.0 and a.flags.writeable
        b = np.zeros((3, 4), dtype=np.int8)
        bd = BinaryDataset.of(b)
        b[0, 0] = 1
        assert bd.rows(np.arange(3))[0, 0] == 0 and b.flags.writeable

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
        np.testing.assert_array_equal(bd.rows(np.arange(n)), d.values > 0)
        assert bd.entries.dtype == np.int8 and not bd.columns.flags.writeable
        # the comparison's bytes and one check's bytes; a cast or a copy would add N * V more
        assert peak < 2.5 * n * v


class TestDiscretize:
    def test_median_split(self):
        d = Dataset(np.array([[1.0, 0], [2, 0], [3, 1], [4, 1]]))
        b = discretize(d, DiscretizationPolicy.median())
        np.testing.assert_array_equal(b.rows(np.arange(4))[:, 0], [0, 0, 1, 1])

    def test_fixed_zero_on_binary_is_identity(self):
        values = np.array([[0.0, 1], [1, 0], [1, 1]])
        d = Dataset(values)
        b = discretize(d, DiscretizationPolicy.fixed(0.0))
        np.testing.assert_array_equal(b.rows(np.arange(3)), values)

    def test_ties_go_to_zero(self):
        d = Dataset(np.array([[5.0, 1], [5, 2], [5, 3], [5, 4]]))
        b = discretize(d, DiscretizationPolicy.median())
        np.testing.assert_array_equal(b.rows(np.arange(4))[:, 0], [0, 0, 0, 0])

    def test_already_binary_rejects_other_values(self):
        d = Dataset(np.array([[0.0, 2.0], [1.0, 0.0]]))
        with pytest.raises(PolicyViolationError):
            discretize(d, DiscretizationPolicy.already_binary())

    def test_already_binary_idempotent(self):
        d = Dataset(np.array([[0.0, 1], [1, 0], [1, 1]]))
        once = discretize(d, DiscretizationPolicy.already_binary())
        again = discretize(
            Dataset(once.rows(np.arange(3)).astype(np.float64)), DiscretizationPolicy.already_binary()
        )
        np.testing.assert_array_equal(once.rows(np.arange(3)), again.rows(np.arange(3)))

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
            BinaryDataset.of(np.array([[bad, 1.0], [0, 0]]))

    @pytest.mark.parametrize("bad", [2, -1, 127, -128])
    def test_int8_value_other_than_0_and_1_rejected(self, bad):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            BinaryDataset.of(np.array([[0, 1, 1], [1, bad, 0]], dtype=np.int8))

    @pytest.mark.parametrize("entries", [np.ones(2), np.array([1, 2], dtype=np.int8)], ids=["float64", "two"])
    def test_entries_must_be_int8_ones(self, entries):
        with pytest.raises(ValueError, match="int8 ones"):
            BinaryDataset((2, 3), np.array([0, 1, 2]), np.array([0, 2]), entries)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_zero_one_values_accepted(self, dtype):
        b = BinaryDataset.of(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert b.entries.dtype == np.int8
        np.testing.assert_array_equal(b.rows(np.arange(2)), [[0, 1], [1, 0]])


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


# tokens a mutation may put in place of a label, an index, a count or an entry:
# signs, separators, non-ASCII digits and spaces, and the edges of int64 and
# of the counts float64 holds exactly
ODD_TOKENS = [
    "", "0", "00", "-0", "-1", "+1", "1_0", "٣", "1.0", "1e3", "x", ":", "1:", ":1",
    "1:2:3", "0:1", "1:0", "2:1", "1:1", "9" * 15, "9" * 16, "9" * 19, "9" * 40,
    str(2**53), str(2**53 + 1), str(2**63), "\t", "\x0b", "\x1c", " ", " ", "\r", "\r\n", "\n",
]


@st.composite
def bow_files(draw):
    """A valid corpus written as text, then one to four edits of its document
    or vocabulary text: a token replaced, a character inserted or deleted, a
    line dropped, doubled or swapped, or a byte that is not UTF-8."""
    v = draw(st.integers(2, 6))
    vocab = [f"w{j}" for j in range(v)]
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        cols = draw(st.lists(st.integers(0, v - 1), unique=True, max_size=v))
        counts = draw(st.lists(st.integers(1, 5), min_size=len(cols), max_size=len(cols)))
        lines.append(" ".join([str(draw(st.integers(-2, 3)))] + [f"{j}:{c}" for j, c in zip(cols, counts)]))
    texts = {"docs": "\n".join(lines) + "\n", "vocab": "\n".join(vocab) + "\n"}
    broken = {"docs": b"", "vocab": b""}
    for _ in range(draw(st.integers(1, 4))):
        which = draw(st.sampled_from(["docs", "docs", "docs", "vocab"]))
        text = texts[which]
        kind = draw(st.sampled_from(["token", "token", "insert", "delete", "lines", "bytes"]))
        if kind == "token":
            tokens = text.replace("\n", " \n ").replace(":", " : ").split(" ")
            if tokens:
                at = draw(st.integers(0, len(tokens) - 1))
                tokens[at] = draw(st.sampled_from(ODD_TOKENS))
            text = " ".join(tokens).replace(" \n ", "\n").replace(" : ", ":")
        elif kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(list(":- 0123456789\n\t\r\x0bx") + [" "])) + text[at:]
        elif kind == "delete" and text:
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1 :]
        elif kind == "lines":
            rows = text.split("\n")
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            op = draw(st.sampled_from(["drop", "double", "swap"]))
            if op == "drop":
                del rows[i]
            elif op == "double":
                rows.insert(i, rows[j])
            else:
                rows[i], rows[j] = rows[j], rows[i]
            text = "\n".join(rows)
        elif kind == "bytes":
            broken[which] = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        texts[which] = text
    return {k: (texts[k].encode("utf-8"), broken[k], draw(st.floats(0, 1))) for k in texts}


def outcome(load, docs, vocab):
    """("ok", result) or (exception type, message) of one loader call."""
    try:
        return "ok", load(docs, vocab)
    except Exception as e:  # noqa: BLE001 -- the point is to compare whatever escapes
        return type(e), str(e)


class TestLoaderAgainstReference:
    """load_sparse_bow against the per-line loader it replaced (oracles.load_sparse_bow_reference)."""

    @given(files=bow_files())
    @settings(max_examples=400, deadline=None)
    def test_mutated_files_load_alike_or_fail_alike(self, files, tmp_path_factory):
        from oracles import load_sparse_bow_reference

        tmp = tmp_path_factory.mktemp("bow")
        paths = {}
        for name, (body, bad, where) in files.items():
            at = int(where * len(body))
            paths[name] = tmp / f"{name}.txt"
            paths[name].write_bytes(body[:at] + bad + body[at:])
        new = outcome(load_sparse_bow, paths["docs"], paths["vocab"])
        ref = outcome(load_sparse_bow_reference, paths["docs"], paths["vocab"])
        assert new[0] == ref[0]
        if ref[0] != "ok":
            assert new[1] == ref[1]
            return
        d, (values, labels, vocab) = new[1], ref[1]
        assert d.dense().tobytes() == values.tobytes() and d.dense().shape == values.shape
        assert d.labels.tobytes() == labels.tobytes()
        assert d.feature_names == vocab

    @pytest.mark.parametrize(
        "line",
        [
            "+1 0:1", f"1 0:{2**53}", "1 1:1 0:2", "1 ١:1", "1\x0b0:1", "-0 0:01", "1 0:1\r\n2 1:1\r",
            "9" * 18 + " 0:1", "9" * 19 + " 0:1", f"-{2**63} 0:1", f"{2**63} 0:1", "1 0:" + "9" * 16, "1 1:2 1:3",
        ],
        ids=[
            "plus-label", "count-2**53", "columns-out-of-order", "arabic-digit", "vertical-tab", "zeros", "crlf",
            "18-digit-label", "19-digit-label", "label-below-int64", "label-above-int64", "16-digit-count",
            "duplicate-out-of-order",
        ],
    )
    def test_lines_the_whole_file_parse_passes_on_load_alike(self, tmp_path, line):
        from oracles import load_sparse_bow_reference

        vocab = write(tmp_path, "v.txt", "a\nb\n")
        docs = tmp_path / "d.txt"
        docs.write_bytes(line.encode("utf-8"))
        new = outcome(load_sparse_bow, docs, vocab)
        ref = outcome(load_sparse_bow_reference, docs, vocab)
        assert new[0] == ref[0]
        if ref[0] != "ok":
            assert new[1] == ref[1]
            return
        values, labels, _ = ref[1]
        np.testing.assert_array_equal(new[1].dense(), values)
        np.testing.assert_array_equal(new[1].labels, labels)

    def test_well_formed_file_never_reaches_the_per_line_parser(self, tmp_path, monkeypatch, small_corpus):
        import trfnet.data

        save_sparse_bow(small_corpus, tmp_path / "d.txt", tmp_path / "v.txt")

        def refuse(*_):
            raise AssertionError("the whole-file parse passed a well-formed file on")

        monkeypatch.setattr(trfnet.data, "_parse_lines", refuse)
        d = load_sparse_bow(tmp_path / "d.txt", tmp_path / "v.txt")
        np.testing.assert_array_equal(d.dense(), small_corpus.dense())


class TestLoaderMemory:
    def test_v16000_train_split_loads_far_below_its_dense_array(self, tmp_path):
        """The train split of make_news_fixture.py --docs 2000 --vocab 16000
        --block-size 16 --seed 3: 1400 x 16000, 59,301 nonzeros.

        The dense float64 array the loader once built is 171 MB.  Held as
        its nonzeros, the load peaked at 4.8 MB under tracemalloc (the text,
        its lines and the parsed numbers); the 12 MB bound leaves 2.5x
        headroom and is 1/14 of the dense array.
        """
        from trfnet.synth import news_corpus

        corpus = news_corpus(n_docs=2000, vocab_size=16000, n_classes=4, block_size=16, confusion=0.025, seed=3)
        save_sparse_bow(split(corpus, 0.7, 0.15, seed=3)[0], tmp_path / "d.txt", tmp_path / "v.txt")
        del corpus
        tracemalloc.start()
        try:
            d = load_sparse_bow(tmp_path / "d.txt", tmp_path / "v.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (d.n_samples, d.n_features) == (1400, 16000)
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"
