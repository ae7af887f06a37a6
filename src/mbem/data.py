"""Data acquisition and preprocessing for the experiment protocols.

Covers IDX image ingestion (plain or gzip), constant-pixel filtering, PCA
projection, labeled-CSV template fitting, the randomized-partition
initializer, and a Lloyd k-means baseline.
"""

from __future__ import annotations

import csv
import gzip
import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import IdxFormatError, InitializationError, InvalidInputError
from .families import Gaussian, MixtureParams, _block_rows

# IDX container layout (big endian):
#   u8  0x00 0x00   | reserved
#   u8  type code   | 0x08 = unsigned byte
#   u8  ndim        | 3 for image sets, 1 for label sets
#   u32 x ndim      | dimension sizes
#   u8  payload     | row-major data
_IDX_UBYTE = 0x08
_MAX_ELEMENTS = 1 << 40  # dimension-overflow guard


def _open_idx(path) -> io.BufferedIOBase:
    raw = open(path, "rb")
    if raw.read(2) == b"\x1f\x8b":
        raw.close()
        return gzip.open(path, "rb")
    raw.seek(0)
    return raw


def _read_exact(f, count: int, offset: int) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise IdxFormatError(
            f"truncated stream: wanted {count} bytes at offset {offset}, got {len(buf)}"
        )
    return buf


def _read_idx_tensor(f) -> np.ndarray:
    magic = _read_exact(f, 4, 0)
    if magic[0] != 0 or magic[1] != 0:
        raise IdxFormatError(f"bad magic bytes {magic[:2].hex()} at offset 0")
    if magic[2] != _IDX_UBYTE:
        raise IdxFormatError(f"unsupported type code 0x{magic[2]:02x} at offset 2")
    ndim = magic[3]
    if ndim < 1:
        raise IdxFormatError("zero-dimensional tensor at offset 3")
    dims = []
    for k in range(ndim):
        offset = 4 + 4 * k
        (size,) = struct.unpack(">I", _read_exact(f, 4, offset))
        dims.append(size)
    total = 1
    for size in dims:
        total *= size
    if total > _MAX_ELEMENTS:
        raise IdxFormatError(f"dimension overflow: {dims} at offset 4")
    payload_offset = 4 + 4 * ndim
    payload = _read_exact(f, total, payload_offset)
    if f.read(1):
        raise IdxFormatError(f"trailing bytes after offset {payload_offset + total}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def _read_idx_file(path) -> np.ndarray:
    """The tensor of one IDX file; a damaged gzip layer is a format
    violation too."""
    try:
        with _open_idx(path) as f:
            return _read_idx_tensor(f)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"damaged gzip stream: {exc}") from exc


def read_idx(images, labels=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an IDX image file (and optionally its label file).

    Takes file paths, plain or gzip (detected by their magic bytes), and
    returns the n x (rows*cols) pixel bytes with the label vector (None
    without a label file).  Format violations raise :class:`IdxFormatError`
    with the byte offset of the problem.
    """
    tensor = _read_idx_file(images)
    if tensor.ndim != 3:
        raise IdxFormatError(f"image set must have 3 dimensions, found {tensor.ndim} at offset 3")
    n, rows, cols = tensor.shape
    pixels = tensor.reshape(n, rows * cols)
    label_vec = None
    if labels is not None:
        label_vec = _read_idx_file(labels)
        if label_vec.ndim != 1:
            raise IdxFormatError(
                f"label set must have 1 dimension, found {label_vec.ndim} at offset 3"
            )
        if label_vec.shape[0] != n:
            raise IdxFormatError(
                f"label count {label_vec.shape[0]} does not match image count {n}"
            )
    return pixels, label_vec


def drop_constant_pixels(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove columns that are identical across all rows.

    Returns the reduced matrix and the (strictly increasing) kept column
    indices for reproducibility.
    """
    images = np.asarray(images)
    if images.shape[0] < 1:
        raise InvalidInputError("need at least one row")
    keep = np.flatnonzero(images.min(axis=0) != images.max(axis=0))
    return images[:, keep], keep


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaModel:
    """Centering vector, orthonormal projection columns, and top eigenvalues."""

    mean: np.ndarray
    components: np.ndarray  # (d, d_pc), orthonormal columns
    eigenvalues: np.ndarray  # (d_pc,), descending


_CHUNK_ROWS = 4096


def fit_pca(data: np.ndarray, d_pc: int) -> PcaModel:
    """Eigendecomposition of the sample covariance of column-centered data.

    Sign convention: each component column has its largest-magnitude entry
    positive.  The covariance is accumulated in fixed-size row chunks so
    integer pixel matrices never need a full float copy.
    """
    n, d = data.shape
    if not 1 <= d_pc <= d:
        raise InvalidInputError(f"component count {d_pc} outside [1, {d}]")
    if d > n:
        raise InvalidInputError(f"need at least d={d} observations, got {n}")
    mean = np.zeros(d)
    for start in range(0, n, _CHUNK_ROWS):
        mean += np.asarray(data[start : start + _CHUNK_ROWS], dtype=float).sum(axis=0)
    mean /= n
    scatter = np.zeros((d, d))
    for start in range(0, n, _CHUNK_ROWS):
        chunk = data[start : start + _CHUNK_ROWS].astype(float)
        chunk -= mean
        scatter += chunk.T @ chunk
        del chunk  # else it lives on while the next chunk is made
    cov = scatter / (n - 1) if n > 1 else scatter
    cov = (cov + cov.T) / 2.0
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:d_pc]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order]
    for j in range(d_pc):
        peak = np.argmax(np.abs(vecs[:, j]))
        if vecs[peak, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return PcaModel(mean=mean, components=vecs, eigenvalues=vals)


def project(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows of ``data`` onto the model's principal directions."""
    n = data.shape[0]
    out = np.empty((n, model.components.shape[1]))
    for start in range(0, n, _CHUNK_ROWS):
        chunk = data[start : start + _CHUNK_ROWS].astype(float)
        chunk -= model.mean
        out[start : start + _CHUNK_ROWS] = chunk @ model.components
        del chunk
    return out


# ---------------------------------------------------------------------------
# initialization and baseline clustering
# ---------------------------------------------------------------------------

def _fit_block(block: np.ndarray) -> tuple:
    """Maximum-likelihood Gaussian of a block of rows: the mean and the
    centred scatter divided by the row count, symmetrised.  The block is
    centred in place, so callers pass a copy of their rows."""
    mean = block.mean(axis=0)
    block -= mean
    cov = block.T @ block / block.shape[0]
    return mean, (cov + cov.T) / 2.0


#: Partitions :func:`random_partition_init` draws before it gives up.
_PARTITION_DRAWS = 100


def random_partition_init(data: np.ndarray, g: int, rng: np.random.Generator) -> MixtureParams:
    """Mixture start from a uniformly random partition of the data.

    Each observation gets an independent uniform label; block weights, means,
    and full covariances become the initial parameters.  Draws a fresh
    partition (up to ``_PARTITION_DRAWS`` in all) whenever some block has
    fewer than d+1 points or a singular covariance.  The component means are
    the block means, where a k-means baseline on the same split starts.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    if n < g * (d + 2):
        raise InvalidInputError(f"need at least g*(d+2)={g * (d + 2)} observations, got {n}")
    for _ in range(_PARTITION_DRAWS):
        labels = rng.integers(0, g, size=n)
        counts = np.bincount(labels, minlength=g)
        if np.any(counts < d + 1):
            continue
        try:
            comps = tuple(Gaussian(*_fit_block(data[labels == z])) for z in range(g))
        except InvalidInputError:  # a block covariance Gaussian rejects: singular
            continue
        return MixtureParams(counts / n, comps)
    raise InitializationError(f"no valid random partition after {_PARTITION_DRAWS} attempts")


def _set_means(data: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Set each row z of ``centers`` whose cluster (``labels == z``) has
    members to that cluster's mean, bit for bit ``data[labels == z].mean(axis=0)``.

    NumPy sums an (m, d) matrix down its rows one row after another when
    d >= 2, and ``np.bincount`` adds its weights in row order from +0.0, so
    each coordinate's cluster sums come from one ``bincount``.  At d = 1
    that sum is pairwise instead, and a cluster's rows, one float each, are
    gathered whole.
    """
    g, d = centers.shape
    if d == 1:
        for z in range(g):
            members = data[labels == z]
            if members.size:
                centers[z] = members.mean(axis=0)
        return
    counts = np.bincount(labels, minlength=g)
    filled = counts > 0
    for j in range(d):
        sums = np.bincount(labels, weights=data[:, j], minlength=g)
        centers[filled, j] = sums[filled] / counts[filled]


def kmeans(data: np.ndarray, centers: np.ndarray, epochs: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations with farthest-point reseeding of empty clusters.

    Starts from the finite (g, d) matrix ``centers``, g <= n, and runs at
    most ``epochs`` >= 1 assignment/update sweeps, stopping early at a fixed
    point; other starts raise :class:`InvalidInputError`.  The
    within-cluster sum of squares is asserted nonincreasing after every sweep.

    The squared row norms, the distances with their labels and point costs,
    and the within-cluster sum of squares go by 1 MiB row blocks; the
    centres (:func:`_set_means`) go one coordinate at a time.  Besides the
    data, a sweep holds its per-row vectors (norms, old and new labels,
    point costs), one block's temporaries and one data column (at d = 1, a
    cluster's rows), never an (n, g) distance matrix.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    centers = np.array(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != d or not np.isfinite(centers).all():
        raise InvalidInputError(f"k-means centres must form a finite (g, {d}) matrix")
    g = len(centers)
    if not 1 <= g <= n:
        raise InvalidInputError(f"cannot place {g} clusters on {n} points")
    if epochs < 1:
        raise InvalidInputError(f"need at least one k-means sweep, got epochs={epochs}")

    step = _block_rows(1, d)
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    sq_norms = np.empty(n)
    for rows in blocks:
        block = data[rows]
        (block * block).sum(axis=1, out=sq_norms[rows])
    point_cost = np.empty(n)
    labels = None
    prev_wcss = np.inf
    for _ in range(epochs):
        new_labels = np.empty(n, dtype=np.intp)
        center_norms = (centers * centers).sum(axis=1)
        for rows in blocks:
            # sq_norms - 2 y.c + |c|^2, built in place: adding -2 y.c equals
            # subtracting 2 y.c exactly.
            dist = data[rows] @ centers.T
            dist *= -2.0
            dist += sq_norms[rows, None]
            dist += center_norms
            dist.argmin(axis=1, out=new_labels[rows])
            dist.min(axis=1, out=point_cost[rows])
        empty = np.flatnonzero(np.bincount(new_labels, minlength=g) == 0)
        for z in empty:
            far = int(np.argmax(point_cost))
            centers[z] = data[far]
            new_labels[far] = z
            point_cost[far] = 0.0
        _set_means(data, new_labels, centers)
        wcss = 0.0
        for rows in blocks:
            diff = centers[new_labels[rows]]
            np.subtract(data[rows], diff, out=diff)
            wcss += float(np.einsum("ij,ij->", diff, diff))
        assert wcss <= prev_wcss + 1e-8 * max(1.0, abs(prev_wcss)), "WCSS increased"
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        prev_wcss = wcss
    return new_labels, centers


# ---------------------------------------------------------------------------
# labeled-CSV templates
# ---------------------------------------------------------------------------

def read_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a header + numeric-features + final-integer-class CSV.

    A header without a feature column, or a row whose cell count differs
    from the header's, raises :class:`InvalidInputError` naming the file and
    the 1-based line.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise InvalidInputError(f"{path}: empty CSV")
        if len(header) < 2:
            raise InvalidInputError(f"{path}: line 1: the header names no feature column")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}: line {reader.line_num}: {len(row)} cells, header has {len(header)}"
                )
            rows.append(row)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    try:
        table = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: non-numeric cell: {exc}") from exc
    classes = table[:, -1]
    bad = classes[(classes != np.round(classes)) | (np.abs(classes) > 2.0**53)]
    if bad.size:
        raise InvalidInputError(f"{path}: class cell {bad[0]} is not an integer in [-2**53, 2**53]")
    return table[:, :-1], classes.astype(int)


def template_from_labeled_data(features: np.ndarray, classes: np.ndarray) -> MixtureParams:
    """Fit one Gaussian per class with equal mixing weights.

    The per-class covariance is the maximum-likelihood (biased) estimate, the
    same convention the EM M-step uses.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] < 1:
        raise InvalidInputError(f"features need at least one column, got shape {features.shape}")
    ids = np.unique(classes)
    comps = []
    for cid in ids:
        block = features[classes == cid]
        if block.shape[0] < features.shape[1] + 1:
            raise InvalidInputError(f"class {cid} has too few rows to fit a covariance")
        comps.append(Gaussian(*_fit_block(block)))
    g = len(ids)
    return MixtureParams(np.full(g, 1.0 / g), tuple(comps))
