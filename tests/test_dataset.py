import gzip
import re
import shutil

import numpy as np
import pytest

from qfda.dataset import (
    RawImageSet,
    center,
    default_idx_labels_path,
    load_idx,
    load_pgm_dir,
    load_split_indices,
    parse_class_map,
    read_pgm,
    resample,
    save_split_indices,
    select_classes,
    split_indices,
    subset,
    write_idx,
    write_pgm,
)
from qfda.errors import (
    ConsistencyError,
    DataError,
    FormatError,
    SizeError,
    SplitError,
)

from helpers import two_class_images


def small_set(n=12, h=8, w=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(0, 255, size=(h * w, n)).round()
    labels = np.arange(n, dtype=np.int64) % classes
    return RawImageSet(pixels=pixels, height=h, width=w, labels=labels)


class TestRawImageSet:
    def test_shape_validation(self):
        with pytest.raises(ConsistencyError):
            RawImageSet(pixels=np.zeros((63, 4)), height=8, width=8,
                        labels=np.zeros(4, dtype=np.int64))

    def test_label_count_mismatch(self):
        with pytest.raises(ConsistencyError):
            RawImageSet(pixels=np.zeros((64, 4)), height=8, width=8,
                        labels=np.zeros(3, dtype=np.int64))

    def test_negative_label(self):
        with pytest.raises(ConsistencyError):
            RawImageSet(pixels=np.zeros((64, 2)), height=8, width=8,
                        labels=np.array([0, -1]))

    def test_gap_in_classes(self, tmp_path):
        # label ids need not be dense: an IDX pair labelled {3, 7} loads
        ds = small_set(n=6, classes=2)
        ds.labels = np.where(ds.labels == 0, 3, 7)
        ip, lp = tmp_path / "g-images-idx3-ubyte", tmp_path / "g-labels-idx1-ubyte"
        write_idx(ds, ip, lp)
        back = load_idx(ip, lp)
        np.testing.assert_array_equal(back.labels, [3, 7, 3, 7, 3, 7])
        np.testing.assert_array_equal(select_classes(back, [3, 7]).labels,
                                      [3, 7, 3, 7, 3, 7])

    def test_properties(self):
        ds = small_set()
        assert ds.d == 64 and ds.n == 12


class TestIdxFiles:
    def test_round_trip(self, tmp_path):
        ds = small_set()
        ip, lp = tmp_path / "a-images-idx3-ubyte", tmp_path / "a-labels-idx1-ubyte"
        write_idx(ds, ip, lp)
        loaded = load_idx(ip, lp)
        assert loaded.height == 8 and loaded.width == 8
        np.testing.assert_array_equal(loaded.pixels, ds.pixels)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_derived_labels_path(self, tmp_path):
        ds = small_set()
        ip = tmp_path / "b-images-idx3-ubyte"
        write_idx(ds, ip, tmp_path / "b-labels-idx1-ubyte")
        loaded = load_idx(ip)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_underived_name_rejected(self):
        with pytest.raises(DataError):
            default_idx_labels_path("plain-images.bin")

    def test_gzip_transparent(self, tmp_path):
        ds = small_set()
        ip, lp = tmp_path / "c-images-idx3-ubyte", tmp_path / "c-labels-idx1-ubyte"
        write_idx(ds, ip, lp)
        for src in (ip, lp):
            gz = src.with_name(src.name + ".gz")
            with open(src, "rb") as fi, gzip.open(gz, "wb") as fo:
                shutil.copyfileobj(fi, fo)
        loaded = load_idx(str(ip) + ".gz", str(lp) + ".gz")
        np.testing.assert_array_equal(loaded.pixels, ds.pixels)

    def test_bad_magic(self, tmp_path):
        ip = tmp_path / "bad-images-idx3-ubyte"
        ip.write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
        with pytest.raises(FormatError):
            load_idx(ip, ip)

    def test_truncated_pixels(self, tmp_path):
        ds = small_set()
        ip, lp = tmp_path / "d-images-idx3-ubyte", tmp_path / "d-labels-idx1-ubyte"
        write_idx(ds, ip, lp)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(ConsistencyError):
            load_idx(ip, lp)

    @pytest.mark.parametrize("name, keep", [("images", 2), ("images", 10), ("labels", 6)])
    def test_truncated_header(self, tmp_path, name, keep):
        # keep: header bytes left, cutting into the magic, the sizes or the count
        paths = {"images": tmp_path / "g-images-idx3-ubyte",
                 "labels": tmp_path / "g-labels-idx1-ubyte"}
        write_idx(small_set(), paths["images"], paths["labels"])
        paths[name].write_bytes(paths[name].read_bytes()[:keep])
        with pytest.raises(FormatError, match=re.escape(str(paths[name]))):
            load_idx(paths["images"], paths["labels"])

    def test_label_above_one_byte_rejected(self, tmp_path):
        ds = small_set()
        ds.labels[4] = 300
        ip, lp = tmp_path / "h-images-idx3-ubyte", tmp_path / "h-labels-idx1-ubyte"
        with pytest.raises(FormatError, match=re.escape(f"{lp}: label 300")):
            write_idx(ds, ip, lp)

    @pytest.mark.parametrize("value", [300.0, -20.0, np.nan, np.inf],
                             ids=["above", "below", "nan", "inf"])
    def test_pixel_outside_byte_range_rejected(self, tmp_path, value):
        # pixels used to be clamped: 300 and -20 came back as 255 and 0
        ds = small_set()
        ds.pixels[5, 2] = value
        ip, lp = tmp_path / "p-images-idx3-ubyte", tmp_path / "p-labels-idx1-ubyte"
        with pytest.raises(DataError, match=re.escape(f"{ip}: pixel {value}")):
            write_idx(ds, ip, lp)
        assert not ip.exists()

    def test_label_count_disagrees(self, tmp_path):
        ds = small_set()
        ip, lp = tmp_path / "e-images-idx3-ubyte", tmp_path / "e-labels-idx1-ubyte"
        write_idx(ds, ip, lp)
        short = subset(ds, np.arange(6))
        write_idx(short, tmp_path / "f-images-idx3-ubyte", lp)
        with pytest.raises(ConsistencyError):
            load_idx(ip, lp)


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = np.arange(48, dtype=np.float64).reshape(6, 8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img.astype(np.uint8))

    def test_comment_lines(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(read_pgm(path), [[0, 1], [2, 3]])

    def test_ascii_pgm_rejected(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("header, value", [(b"2 2\n0\n", "maxval 0"),
                                               (b"0 0\n255\n", "size 0x0"),
                                               (b"3 0\n255\n", "size 3x0")],
                             ids=["zero-maxval", "empty", "zero-height"])
    def test_bad_header_value_rejected(self, tmp_path, header, value):
        path = tmp_path / "v.pgm"
        path.write_bytes(b"P5\n" + header + b"\x00\x01\x02\x03")
        with pytest.raises(FormatError, match=re.escape(f"{path}: PGM {value}")):
            read_pgm(path)

    def test_maxval_rescaled_to_byte_scale(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 2 2 15\n\x00\x0f\x05\x07")
        np.testing.assert_array_equal(read_pgm(path), [[0, 255], [85, 119]])

    def test_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 2 2 15\n\x00\x0f\xff\x07")
        with pytest.raises(FormatError, match=re.escape(f"{path}: PGM pixel 255 above maxval 15")):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_non_numeric_header_token(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n2 two\n255\n\x00\x01\x02\x03")
        with pytest.raises(FormatError, match=re.escape(str(path))):
            read_pgm(path)


class TestPgmDir:
    def _make_tree(self, root, names=("glasses", "plain")):
        rng = np.random.default_rng(3)
        for name in names:
            d = root / name
            d.mkdir(parents=True)
            for i in range(2):
                write_pgm(d / f"{i}.pgm", rng.uniform(0, 255, (8, 8)).round())

    def test_sorted_class_ids(self, tmp_path):
        self._make_tree(tmp_path)
        ds = load_pgm_dir(tmp_path)
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])

    def test_class_map_override(self, tmp_path):
        self._make_tree(tmp_path)
        mapping = tmp_path / "map.txt"
        mapping.write_text("glasses = 1  # wears glasses\nplain = 0\n")
        ds = load_pgm_dir(tmp_path, parse_class_map(mapping))
        np.testing.assert_array_equal(ds.labels, [1, 1, 0, 0])

    def test_class_map_with_gaps(self, tmp_path):
        # AT&T-style folders s1, s2 mapped to ids 1 and 2: no class 0
        self._make_tree(tmp_path, names=("s1", "s2"))
        mapping = tmp_path / "map.txt"
        mapping.write_text("s1 = 1\ns2 = 2\n")
        ds = load_pgm_dir(tmp_path, parse_class_map(mapping))
        np.testing.assert_array_equal(ds.labels, [1, 1, 2, 2])

    def test_class_map_hash_inside_a_name_is_kept(self, tmp_path):
        # '#' starts a comment only at line start or after whitespace
        self._make_tree(tmp_path, names=("s#1", "s#2"))
        mapping = tmp_path / "map.txt"
        mapping.write_text("# folders of the first two subjects\ns#1 = 1 # first\ns#2 = 2\n")
        assert parse_class_map(mapping) == {"s#1": 1, "s#2": 2}
        ds = load_pgm_dir(tmp_path, parse_class_map(mapping))
        np.testing.assert_array_equal(ds.labels, [1, 1, 2, 2])

    def test_missing_map_entry(self, tmp_path):
        self._make_tree(tmp_path)
        with pytest.raises(ConsistencyError):
            load_pgm_dir(tmp_path, {"glasses": 0})

    def test_size_mismatch(self, tmp_path):
        self._make_tree(tmp_path)
        write_pgm(tmp_path / "plain" / "odd.pgm", np.zeros((9, 8)))
        with pytest.raises(ConsistencyError):
            load_pgm_dir(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ConsistencyError):
            load_pgm_dir(tmp_path)

    def test_map_line_without_equals(self, tmp_path):
        bad = tmp_path / "map.txt"
        bad.write_text("glasses 1\n")
        with pytest.raises(FormatError):
            parse_class_map(bad)

    def test_non_integer_class_id(self, tmp_path):
        bad = tmp_path / "map.txt"
        bad.write_text("glasses = one\n")
        with pytest.raises(FormatError, match=re.escape(str(bad))):
            parse_class_map(bad)


class TestSelectClasses:
    def test_keeps_class_ids(self):
        ds = small_set(n=12, classes=3)
        out = select_classes(ds, [2, 0])
        keep = ds.labels != 1
        np.testing.assert_array_equal(out.labels, ds.labels[keep])
        np.testing.assert_array_equal(out.pixels, ds.pixels[:, keep])
        assert out.n == 8

    def test_per_class_cap(self):
        ds = small_set(n=12, classes=3)
        out = select_classes(ds, [0, 1], per_class=2)
        assert out.n == 4
        np.testing.assert_array_equal(np.bincount(out.labels), [2, 2])

    def test_requested_class_without_images(self):
        ds = small_set(n=12, classes=3)
        with pytest.raises(DataError, match=r"\[5, 9\]"):
            select_classes(ds, [0, 5, 9])


class TestSplit:
    def test_fraction_validation(self):
        ds = small_set(n=9, classes=3)
        with pytest.raises(ValueError):
            split_indices(ds, 0.5, 0.2, 0.2, 0)
        with pytest.raises(ValueError):
            split_indices(ds, 1.0, 0.0, 0.0, 0)

    def test_partition(self):
        ds = two_class_images(n=60, height=8, width=8, seed=5)
        tr, va, te = split_indices(ds, 0.6, 0.2, 0.2, 7)
        merged = np.concatenate([tr, va, te])
        assert len(merged) == 60
        np.testing.assert_array_equal(np.sort(merged), np.arange(60))
        assert len(tr) == 36 and len(va) == 12 and len(te) == 12

    def test_every_class_in_every_split(self):
        ds = small_set(n=9, classes=3)
        tr, va, te = split_indices(ds, 0.34, 0.33, 0.33, 0)
        for part in (tr, va, te):
            assert set(ds.labels[part].tolist()) == {0, 1, 2}

    def test_ascending_and_deterministic(self):
        ds = two_class_images(n=40, height=8, width=8, seed=2)
        a = split_indices(ds, 0.6, 0.2, 0.2, 3)
        b = split_indices(ds, 0.6, 0.2, 0.2, 3)
        c = split_indices(ds, 0.6, 0.2, 0.2, 4)
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a, part_b)
            assert (np.diff(part_a) > 0).all()
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_tiny_class_rejected(self):
        ds = RawImageSet(
            pixels=np.zeros((64, 5)), height=8, width=8,
            labels=np.array([0, 0, 0, 1, 1]))
        with pytest.raises(SplitError):
            split_indices(ds, 0.6, 0.2, 0.2, 0)

    def test_save_load_indices(self, tmp_path):
        idx = np.array([3, 5, 11], dtype=np.int64)
        save_split_indices(tmp_path / "tr.txt", idx)
        np.testing.assert_array_equal(load_split_indices(tmp_path / "tr.txt"), idx)


class TestResample:
    def test_identity_factor_copies(self):
        ds = small_set()
        out = resample(ds, 1.0)
        np.testing.assert_array_equal(out.pixels, ds.pixels)
        assert out.pixels is not ds.pixels

    def test_half_dims(self):
        ds = two_class_images(n=4, height=112, width=92, seed=1)
        out = resample(ds, 0.5)
        assert (out.height, out.width) == (56, 46)

    def test_constant_image_is_preserved(self):
        ds = RawImageSet(pixels=np.full((256, 3), 9.0), height=16, width=16,
                         labels=np.array([0, 1, 1]))
        out = resample(ds, 0.5)
        np.testing.assert_allclose(out.pixels, 9.0)

    def test_too_small_rejected(self):
        ds = small_set()
        with pytest.raises(SizeError):
            resample(ds, 0.5)  # 8x8 -> 4x4 loses the block size

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            resample(small_set(), 1.5)


class TestCenter:
    def test_hand_example(self):
        ds = RawImageSet(
            pixels=np.array([[1.0, 3.0], [3.0, 1.0]] + [[0.0, 0.0]] * 62),
            height=8, width=8, labels=np.array([0, 1]))
        out = center(ds)
        np.testing.assert_allclose(out.pixels[:2], [[-1, 1], [1, -1]])
        np.testing.assert_allclose(out.mean_image[:2], [2, 2])

    def test_column_mean_zero_and_reconstruction(self):
        ds = small_set(n=20)
        out = center(ds)
        col_mean = out.pixels.mean(axis=1)
        assert np.abs(col_mean).max() <= 1e-9 * max(1.0, np.abs(ds.pixels).max())
        np.testing.assert_allclose(
            out.pixels + out.mean_image[:, None], ds.pixels, atol=1e-12)

    def test_external_mean(self):
        ds = small_set(n=6)
        mean = np.full(64, 10.0)
        out = center(ds, mean_image=mean)
        np.testing.assert_allclose(out.pixels, ds.pixels - 10.0)
        with pytest.raises(ConsistencyError):
            center(ds, mean_image=np.zeros(10))
