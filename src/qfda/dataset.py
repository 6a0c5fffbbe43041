"""Image corpus ingestion, splitting, resampling and centering.

Images are stored as columns of a (d, n) float64 matrix with integer class
labels, the layout used by every downstream stage.
"""

import gzip
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConsistencyError,
    DataError,
    FormatError,
    SizeError,
    SplitError,
    read_text,
    strip_comment,
    write_text,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class RawImageSet:
    """A labeled image corpus, one flattened image per column."""

    pixels: np.ndarray  # (d, n) float64, values in [0, 255]
    height: int
    width: int
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 2:
            raise ConsistencyError("pixels must be a (d, n) matrix")
        if self.pixels.shape[0] != self.height * self.width:
            raise ConsistencyError(
                f"d={self.pixels.shape[0]} does not match "
                f"{self.height}x{self.width} images"
            )
        if self.labels.shape != (self.pixels.shape[1],):
            raise ConsistencyError("one label per column required")
        if self.n > 0 and self.labels.min() < 0:
            raise ConsistencyError("labels must be nonnegative")

    @property
    def d(self) -> int:
        return self.pixels.shape[0]

    @property
    def n(self) -> int:
        return self.pixels.shape[1]


@dataclass
class CenteredImageSet:
    """Images with the (training) mean column removed."""

    pixels: np.ndarray      # (d, n)
    mean_image: np.ndarray  # (d,)
    height: int
    width: int
    labels: np.ndarray


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx_header(f, expected_magic, path, sizes):
    """Check an IDX file's magic and return the `sizes` fields that follow it."""
    header = f.read(4 * (1 + sizes))
    if len(header) != 4 * (1 + sizes):
        raise FormatError(f"{path}: truncated IDX header")
    magic, *fields = struct.unpack(f">{1 + sizes}I", header)
    if magic != expected_magic:
        raise FormatError(f"{path}: IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    return fields


def default_idx_labels_path(images_path) -> Path:
    """Derive the labels file path from an images file path.

    Follows the MNIST naming convention: ``...images-idx3...`` becomes
    ``...labels-idx1...``.
    """
    name = Path(images_path).name
    labels_name = name.replace("images-idx3", "labels-idx1")
    if labels_name == name:
        raise DataError(
            f"cannot derive labels path from {name!r}; pass labels_path explicitly"
        )
    return Path(images_path).with_name(labels_name)


def load_idx(images_path, labels_path=None) -> RawImageSet:
    """Load an IDX image/label file pair (plain or gzipped).

    Args:
        images_path: IDX3 images file (big-endian, magic 0x00000803).
        labels_path: IDX1 labels file; derived from the images name if None.

    Returns:
        RawImageSet with pixels as float64 in [0, 255] and verbatim labels.
    """
    if labels_path is None:
        labels_path = default_idx_labels_path(images_path)

    with _open_maybe_gzip(images_path) as f:
        count, rows, cols = _read_idx_header(f, IDX_IMAGE_MAGIC, images_path, 3)
        data = f.read(count * rows * cols)
        if len(data) != count * rows * cols:
            raise ConsistencyError(f"{images_path}: truncated pixel data")
        images = np.frombuffer(data, dtype=np.uint8).reshape(count, rows * cols)

    with _open_maybe_gzip(labels_path) as f:
        (label_count,) = _read_idx_header(f, IDX_LABEL_MAGIC, labels_path, 1)
        labels = np.frombuffer(f.read(label_count), dtype=np.uint8)
        if labels.size != label_count:
            raise ConsistencyError(f"{labels_path}: truncated label data")

    if label_count != count:
        raise ConsistencyError(
            f"{count} images but {label_count} labels"
        )
    return RawImageSet(
        pixels=images.T.astype(np.float64),
        height=rows,
        width=cols,
        labels=labels.astype(np.int64),
    )


def write_idx(dataset: RawImageSet, images_path, labels_path) -> None:
    """Write a RawImageSet back out as an IDX image/label file pair."""
    if dataset.n and dataset.labels.max() > 255:
        raise FormatError(f"{labels_path}: label {dataset.labels.max()} does not fit in one byte")
    outside = ~((dataset.pixels >= 0) & (dataset.pixels <= 255))
    if outside.any():
        raise DataError(f"{images_path}: pixel {dataset.pixels[outside][0]} outside 0..255")
    pixels = np.rint(dataset.pixels).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, dataset.n,
                            dataset.height, dataset.width))
        f.write(pixels.T.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, dataset.n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM with maxval <= 255 into a (h, w) float64 array.

    Pixels are rescaled from 0..maxval to the 0..255 scale of RawImageSet.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")

    # Header: three whitespace-separated tokens after "P5", '#' starts a comment.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise FormatError(f"{path}: PGM header needs three decimal integers")
        tokens.append(int(data[start:pos]))
    pos += 1  # single whitespace byte separates header from raster

    width, height, maxval = tokens
    if not 1 <= maxval <= 255:
        raise FormatError(f"{path}: PGM maxval {maxval} outside 1..255")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: PGM size {width}x{height} has no pixels")
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise FormatError(f"{path}: truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise FormatError(f"{path}: PGM pixel {pixels.max()} above maxval {maxval}")
    return pixels * 255.0 / maxval


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array as a binary (P5) PGM with maxval 255."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def parse_class_map(path) -> dict:
    """Read a 'subdirectory = class_id' map file; comments as in config files."""
    mapping = {}
    for raw in read_text(path).splitlines():
        line = strip_comment(raw)
        if not line:
            continue
        name, _, value = line.partition("=")
        try:
            mapping[name.strip()] = int(value)
        except ValueError:
            raise FormatError(f"{path}: class map line {raw!r} is not 'name = id'") from None
    return mapping


def load_pgm_dir(path, class_map=None) -> RawImageSet:
    """Load a directory of binary PGMs organized one subdirectory per class.

    Classes are the sorted subdirectory names (id = sort position) unless
    ``class_map`` maps subdirectory names to explicit class ids.  Images are
    visited in (class, filename) order so loading is deterministic.
    """
    root = Path(path)
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not subdirs:
        raise ConsistencyError(f"{path}: no class subdirectories found")

    columns = []
    labels = []
    dims = None
    for class_id, subdir in enumerate(subdirs):
        if class_map is not None:
            if subdir.name not in class_map:
                raise ConsistencyError(f"class map has no entry for {subdir.name!r}")
            class_id = int(class_map[subdir.name])
        for pgm_path in sorted(subdir.glob("*.pgm")):
            img = read_pgm(pgm_path)
            if dims is None:
                dims = img.shape
            elif img.shape != dims:
                raise ConsistencyError(
                    f"{pgm_path}: size {img.shape} differs from {dims}"
                )
            columns.append(img.ravel())
            labels.append(class_id)
    if not columns:
        raise ConsistencyError(f"{path}: class subdirectories contain no PGM files")

    return RawImageSet(
        pixels=np.stack(columns, axis=1),
        height=dims[0],
        width=dims[1],
        labels=np.array(labels, dtype=np.int64),
    )


def subset(dataset: RawImageSet, indices) -> RawImageSet:
    """Select columns by index, keeping labels aligned."""
    idx = np.asarray(indices, dtype=np.int64)
    return RawImageSet(
        pixels=dataset.pixels[:, idx],
        height=dataset.height,
        width=dataset.width,
        labels=dataset.labels[idx],
    )


def select_classes(dataset: RawImageSet, classes, per_class=None) -> RawImageSet:
    """Keep only the listed classes, with their class ids unchanged.

    ``per_class`` caps how many images of each class are kept (first in
    corpus order), so a small deterministic subset can be carved out of a
    large file; the kept images stay in corpus order.  A listed class with
    no images raises DataError.
    """
    classes = sorted({int(c) for c in classes})
    missing = np.setdiff1d(classes, dataset.labels).tolist()
    if missing:
        raise DataError(f"requested classes with no images: {missing}")
    keep = [np.flatnonzero(dataset.labels == c)[:per_class] for c in classes]
    return subset(dataset, np.sort(np.concatenate(keep)))


def split_indices(dataset: RawImageSet, train_fraction: float, val_fraction: float,
                  test_fraction: float, seed: int):
    """Per-class stratified index partition (train, val, test).

    Each class is shuffled with the seeded generator and cut by the
    fractions, which must lie in (0, 1) and sum to 1; counts are nudged so
    every split keeps at least one member per class.  Indices within each
    split are returned in ascending order.
    """
    fractions = (train_fraction, val_fraction, test_fraction)
    if any(not 0.0 < f < 1.0 for f in fractions):
        raise ValueError("split fractions must lie in (0, 1)")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for class_id in np.unique(dataset.labels):
        members = np.nonzero(dataset.labels == class_id)[0]
        n_c = members.size
        if n_c < 3:
            raise SplitError(
                f"class {class_id} has {n_c} members; at least 3 required"
            )
        order = rng.permutation(members)
        n_tr = int(round(train_fraction * n_c))
        n_va = int(round(val_fraction * n_c))
        n_te = n_c - n_tr - n_va
        # Guarantee every split is nonempty, stealing from the largest part.
        parts = [n_tr, n_va, n_te]
        for i in range(3):
            while parts[i] < 1:
                parts[int(np.argmax(parts))] -= 1
                parts[i] += 1
        n_tr, n_va, n_te = parts
        train.extend(order[:n_tr])
        val.extend(order[n_tr:n_tr + n_va])
        test.extend(order[n_tr + n_va:])
    return (np.sort(np.array(train, dtype=np.int64)),
            np.sort(np.array(val, dtype=np.int64)),
            np.sort(np.array(test, dtype=np.int64)))


def save_split_indices(path, indices) -> None:
    """Persist a split as a text index list, one integer per line."""
    write_text(path, "".join(f"{int(i)}\n" for i in indices))


def load_split_indices(path) -> np.ndarray:
    return np.array([int(t) for t in read_text(path).split()], dtype=np.int64)


def resample(dataset: RawImageSet, factor: float) -> RawImageSet:
    """Bilinear downsampling by ``factor`` (0 < factor <= 1).

    Output size is round(factor * height) x round(factor * width); both must
    be at least 8 pixels so one DCT block still fits.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("resample factor must lie in (0, 1]")
    new_h = int(round(factor * dataset.height))
    new_w = int(round(factor * dataset.width))
    if new_h < 8 or new_w < 8:
        raise SizeError(
            f"resampled size {new_h}x{new_w} is smaller than one 8x8 block"
        )
    images = dataset.pixels.T.reshape(dataset.n, dataset.height, dataset.width)
    resized = _bilinear_resize(images, new_h, new_w)
    return RawImageSet(
        pixels=resized.reshape(dataset.n, new_h * new_w).T,
        height=new_h,
        width=new_w,
        labels=dataset.labels.copy(),
    )


def _bilinear_axis(length_in, length_out):
    # Half-pixel-center sampling grid, clamped at the borders.
    src = (np.arange(length_out) + 0.5) * (length_in / length_out) - 0.5
    src = np.clip(src, 0.0, length_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, length_in - 1)
    frac = src - lo
    return lo, hi, frac


def _bilinear_resize(images, new_h, new_w):
    _, h, w = images.shape
    r0, r1, rt = _bilinear_axis(h, new_h)
    c0, c1, ct = _bilinear_axis(w, new_w)
    rows = images[:, r0, :] * (1.0 - rt)[None, :, None] \
        + images[:, r1, :] * rt[None, :, None]
    return rows[:, :, c0] * (1.0 - ct)[None, None, :] \
        + rows[:, :, c1] * ct[None, None, :]


def center(dataset: RawImageSet, mean_image=None) -> CenteredImageSet:
    """Subtract the per-pixel mean image from every column.

    The mean is computed from ``dataset`` itself unless ``mean_image`` is
    given, so validation/test data can be centered with training statistics.
    """
    if dataset.n < 1:
        raise ValueError("cannot center an empty dataset")
    if mean_image is None:
        mean_image = dataset.pixels.mean(axis=1)
    else:
        mean_image = np.asarray(mean_image, dtype=np.float64)
        if mean_image.shape != (dataset.d,):
            raise ConsistencyError("mean image length must equal d")
    return CenteredImageSet(
        pixels=dataset.pixels - mean_image[:, None],
        mean_image=mean_image,
        height=dataset.height,
        width=dataset.width,
        labels=dataset.labels.copy(),
    )
