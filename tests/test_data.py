"""Dataset ingestion, fingerprinting, and the synthetic mixture."""

import hashlib
import struct

import numpy as np
import pytest

from mialab.data import (
    Dataset,
    fnv1a64,
    load_csv,
    load_idx_pair,
    synthetic_mixture,
)
from mialab.config import DatasetSpec
from mialab.errors import ConfigError, FormatError


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate=0):
    n, rows, cols = images.shape
    img = struct.pack(">IIII", image_magic, n, rows, cols) + images.astype(np.uint8).tobytes()
    if truncate:
        img = img[:-truncate]
    img_path = tmp_path / "toy-images-idx3-ubyte"
    img_path.write_bytes(img)
    lbl = struct.pack(">II", label_magic, len(labels)) + bytes(labels)
    (tmp_path / "toy-labels-idx1-ubyte").write_bytes(lbl)
    return img_path


class TestCsv:
    def test_three_rows_two_features(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0.1,5.0,0\n0.9,2.0,1\n0.4,9.5,0\n")
        ds = load_csv(p)
        assert ds.n == 3 and ds.input_dim == 2
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_label_column_anywhere(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,f0\n1,0.5\n0,0.7\n")
        ds = load_csv(p)
        assert list(ds.labels) == [1, 0]

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.5,0\n0.2\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(p)

    def test_non_numeric_feature_names_line_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\nabc,0\n")
        with pytest.raises(FormatError, match="line 2.*'f0'"):
            load_csv(p)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.5,-1\n")
        with pytest.raises(FormatError, match="out of range"):
            load_csv(p)

    def test_quoted_field_is_parsed_as_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('f0,label\n"0.25",0\n0.75,"1"\n')
        ds = load_csv(p)
        assert ds.features.ravel().tolist() == [0.0, 1.0] and ds.labels.tolist() == [0, 1]
        p.write_text('f0,label\n"0,25",0\n')  # a quoted comma is inside one field
        with pytest.raises(FormatError, match="line 2, column 'f0': non-numeric value '0,25'"):
            load_csv(p)

    def test_blank_lines_skipped_and_header_names_stripped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n f0 , label \n0.1,1\n\n\n0.9,0\n\n")
        ds = load_csv(p)
        assert ds.n == 2 and ds.labels.tolist() == [1, 0]
        p.write_text("\nf0,label\n\n0.1,x\n")  # line numbers count the skipped lines
        with pytest.raises(FormatError, match="line 4: label 'x' is not numeric"):
            load_csv(p)

    def test_line_of_spaces_is_a_short_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.1,1\n   \n0.9,0\n")
        with pytest.raises(FormatError, match="line 3: expected 2 fields, got 1"):
            load_csv(p)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports often start with one; it is no part of the first column's name
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("label,f0\n1,0.5\n0,0.7\n", encoding="utf-8")
        marked.write_text("label,f0\n1,0.5\n0,0.7\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_csv(marked).fingerprint() == load_csv(plain).fingerprint()
        marked.write_text("f0,label\nabc,0\n", encoding="utf-8-sig")
        with pytest.raises(FormatError, match="line 2, column 'f0': non-numeric value 'abc'"):
            load_csv(marked)

    def test_undecodable_bytes_are_a_format_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"f0,label\n0.\xff,1\n")
        with pytest.raises(FormatError, match="not a readable dataset"):
            load_csv(p)


class TestIdx:
    def test_header_10x4x4(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 4, 4))
        labels = list(rng.integers(0, 3, size=10))
        img_path = write_idx_pair(tmp_path, images, labels)
        ds = load_idx_pair(img_path)
        assert ds.n == 10 and ds.input_dim == 16
        np.testing.assert_allclose(ds.features, images.reshape(10, 16) / 255.0)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path = write_idx_pair(tmp_path, images, [0, 1], image_magic=0x804)
        with pytest.raises(FormatError, match="magic"):
            load_idx_pair(img_path)

    def test_truncated_payload_cites_byte_counts(self, tmp_path):
        images = np.zeros((4, 3, 3), dtype=np.uint8)
        img_path = write_idx_pair(tmp_path, images, [0, 1, 0, 1], truncate=5)
        with pytest.raises(FormatError, match=r"expected 52 bytes, got 47"):
            load_idx_pair(img_path)

    def test_label_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img_path = write_idx_pair(tmp_path, images, [0, 1])
        with pytest.raises(FormatError, match="label count 2"):
            load_idx_pair(img_path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown dataset kind 'parquet'"):
            DatasetSpec("parquet", path=str(tmp_path / "x"))


class TestFingerprint:
    def test_fingerprint_is_blake2b_of_canonical_bytes(self):
        ds = Dataset(np.array([[0.0, 0.5], [1.0, 0.25]]), np.array([0, 1]))
        canonical = (struct.pack("<QQQ", 2, 2, 2) + struct.pack("<4d", 0.0, 0.5, 1.0, 0.25)
                     + struct.pack("<2q", 0, 1))
        digest = hashlib.blake2b(canonical, digest_size=8).digest()
        assert ds.fingerprint() == int.from_bytes(digest, "little") == 0xA3F094FC27D0F225

    def test_fingerprint_ignores_memory_order(self):
        # the hashed layout is C-ordered whatever order the caller's matrix is in
        features = synthetic_mixture(40, 5, 3, seed=4).features
        labels = np.arange(40) % 3
        fortran = np.asfortranarray(features)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        a, b = Dataset(features, labels), Dataset(fortran, labels)
        assert a.fingerprint() == b.fingerprint()
        strided = np.repeat(features, 2, axis=1)[:, ::2]  # a non-contiguous view
        assert a.fingerprint() == Dataset(strided, labels).fingerprint()

    def test_fnv1a_known_vectors(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_fingerprint_changes_with_data(self):
        a = synthetic_mixture(50, 4, 3, seed=1)
        b = synthetic_mixture(50, 4, 3, seed=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == synthetic_mixture(50, 4, 3, seed=1).fingerprint()


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_mixture(100, 8, 5, seed=3)
        b = synthetic_mixture(100, 8, 5, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_domain_and_balance(self):
        ds = synthetic_mixture(103, 6, 10, seed=4)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize("n_points,input_dim,num_classes",
                             [(1, 4, 2), (20, 0, 2), (20, 4, 1), (20, 4, 0)])
    def test_refuses_sizes_it_cannot_build(self, n_points, input_dim, num_classes):
        with pytest.raises(ValueError, match="needs n_points >= 2, input_dim >= 1"):
            synthetic_mixture(n_points, input_dim, num_classes, seed=1)

    def test_access_counting(self):
        ds = synthetic_mixture(20, 3, 2, seed=5)
        ds.enable_access_counting()
        ds.take(np.array([1, 3, 1]))
        assert ds.access_counts[1] == 2
        assert ds.access_counts[3] == 1
        assert ds.access_counts[0] == 0
        x, y = ds.point(np.int64(3))
        assert ds.access_counts[3] == 2
        assert type(y) is int and y == ds.labels[3]
        x[0] = -1.0  # a copy: the dataset's row is untouched
        assert ds.features[3, 0] != -1.0 and np.array_equal(x[1:], ds.features[3, 1:])
        for bad in (-1, ds.n):
            with pytest.raises(IndexError, match="out of range"):
                ds.point(bad)
        assert ds.access_counts.sum() == 4

    def test_features_immutable(self):
        ds = synthetic_mixture(10, 3, 2, seed=6)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.5

    def test_rejects_zero_width_features(self, tmp_path):
        # a label-only CSV or a 0x0 IDX image pair has rows but no feature columns
        csv = tmp_path / "d.csv"
        csv.write_text("label\n0\n1\n")
        idx = write_idx_pair(tmp_path, np.zeros((2, 0, 0)), [0, 1])
        for load in (lambda: load_csv(csv), lambda: load_idx_pair(idx),
                     lambda: Dataset(np.zeros((2, 0)), np.array([0, 1]))):
            with pytest.raises(ValueError, match="^features must have at least one column$"):
                load()

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError, match="domain"):
            Dataset(np.array([[1.5]]), np.array([0]))
