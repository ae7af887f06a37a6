import gzip
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mbem.data import (
    drop_constant_pixels,
    fit_pca,
    kmeans,
    project,
    random_partition_init,
    read_idx,
    read_labeled_csv,
    template_from_labeled_data,
)
from mbem.errors import IdxFormatError, InitializationError, InvalidInputError
from mbem.families import Gaussian, MixtureParams, sample
from mbem.metrics import adjusted_rand_index

from conftest import count_cholesky, idx_bytes, make_gaussian_mixture, write_idx

IRIS_CSV = Path(__file__).parent / "data" / "iris.csv"


_PIXELS = [[1, 2, 3, 4], [5, 6, 7, 8]]


def _images_bytes(pixels=_PIXELS):
    """Two-by-two IDX images from rows of four pixels."""
    return idx_bytes(np.reshape(pixels, (-1, 2, 2)))


def _idx_file(tmp_path, raw, name="imgs.idx"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


# ---------------------------------------------------------------------------
# IDX parsing
# ---------------------------------------------------------------------------

def test_read_idx_hand_built_fixture(tmp_path):
    pixels, labels = read_idx(_idx_file(tmp_path, _images_bytes()))
    assert np.array_equal(pixels, _PIXELS)
    assert labels is None


def test_read_idx_with_labels(tmp_path):
    imgs = _idx_file(tmp_path, _images_bytes())
    labs = _idx_file(tmp_path, idx_bytes([9, 4]), "labs.idx")
    _, labels = read_idx(imgs, labs)
    assert np.array_equal(labels, [9, 4])


def test_read_idx_truncated_payload_reports_offset(tmp_path):
    with pytest.raises(IdxFormatError, match="offset 16"):
        read_idx(_idx_file(tmp_path, _images_bytes()[:-1]))


def test_read_idx_truncated_header(tmp_path):
    with pytest.raises(IdxFormatError, match="offset"):
        read_idx(_idx_file(tmp_path, b"\x00\x00\x08"))


def test_read_idx_bad_magic(tmp_path):
    raw = b"\x01\x00\x08\x03" + struct.pack(">III", 1, 1, 1) + b"\x00"
    with pytest.raises(IdxFormatError, match="magic"):
        read_idx(_idx_file(tmp_path, raw))


def test_read_idx_wrong_type_code(tmp_path):
    raw = b"\x00\x00\x0d\x03" + struct.pack(">III", 1, 1, 1) + b"\x00"
    with pytest.raises(IdxFormatError, match="type code"):
        read_idx(_idx_file(tmp_path, raw))


def test_read_idx_trailing_bytes_rejected(tmp_path):
    raw = _images_bytes(_PIXELS[:1]) + b"\x00"
    with pytest.raises(IdxFormatError, match="trailing"):
        read_idx(_idx_file(tmp_path, raw))


def test_read_idx_dimension_overflow(tmp_path):
    raw = struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">III", 2**31 - 1, 2**31 - 1, 784)
    with pytest.raises(IdxFormatError, match="overflow"):
        read_idx(_idx_file(tmp_path, raw))


def test_read_idx_label_count_mismatch(tmp_path):
    imgs = _idx_file(tmp_path, _images_bytes())
    labs = _idx_file(tmp_path, idx_bytes([1]), "labs.idx")
    with pytest.raises(IdxFormatError, match="match"):
        read_idx(imgs, labs)


def test_idx_round_trip_bit_exact(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(7, 12), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7).astype(np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(ip, pixels.reshape(7, 3, 4))
    write_idx(lp, labels)
    back_pixels, back_labels = read_idx(ip, lp)
    assert np.array_equal(back_pixels, pixels)
    assert np.array_equal(back_labels, labels)


def test_read_idx_gzip(tmp_path):
    gz = _idx_file(tmp_path, gzip.compress(_images_bytes()), "imgs.idx.gz")
    pixels, _ = read_idx(gz)
    assert np.array_equal(pixels, _PIXELS)


@pytest.mark.parametrize("damage", ["truncated", "bad-block", "crc", "trailing"])
def test_read_idx_damaged_gzip_is_a_format_error(tmp_path, damage):
    # gzip reports these as EOFError, zlib.error and gzip.BadGzipFile (an
    # OSError), which name no format
    raw = gzip.compress(_images_bytes(_PIXELS * 50))
    if damage == "truncated":
        raw = raw[: len(raw) // 2]
    elif damage == "bad-block":
        raw = raw[:10] + b"\xff" + raw[11:]  # first deflate block: reserved type 3
    elif damage == "crc":
        raw = raw[:-8] + bytes([raw[-8] ^ 0xFF]) + raw[-7:]  # trailer's CRC-32
    else:
        raw = raw + b"junk"  # bytes after the member that start no member
    with pytest.raises(IdxFormatError, match="damaged gzip stream"):
        read_idx(_idx_file(tmp_path, raw, "imgs.idx.gz"))


# ---------------------------------------------------------------------------
# constant-pixel filter
# ---------------------------------------------------------------------------

def test_drop_constant_pixels_identity_when_nothing_constant(rng):
    m = rng.integers(0, 256, size=(10, 6))
    m[0] += 1  # ensure no column is constant by construction
    reduced, kept = drop_constant_pixels(m)
    if kept.size == 6:
        assert np.array_equal(reduced, m)
        assert np.array_equal(kept, np.arange(6))


def test_drop_constant_pixels_removes_inserted_column(rng):
    m = rng.integers(1, 255, size=(20, 5))
    m[:, 2] = 0  # always-zero column
    m[:, 4] = 7  # constant nonzero column
    reduced, kept = drop_constant_pixels(m)
    assert np.array_equal(kept, [0, 1, 3])
    assert np.array_equal(reduced, m[:, [0, 1, 3]])
    assert np.all(np.diff(kept) > 0)


def test_drop_constant_pixels_reproducible(rng):
    m = rng.integers(0, 3, size=(30, 8))
    _, kept1 = drop_constant_pixels(m)
    _, kept2 = drop_constant_pixels(m)
    assert np.array_equal(kept1, kept2)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_pca_degenerate_plane():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 2, 40)
    data = np.column_stack([x, np.zeros(40)])
    model = fit_pca(data, 1)
    proj = project(model, data)[:, 0]
    centered = x - x.mean()
    np.testing.assert_allclose(proj, centered, atol=1e-12)


def test_pca_total_variance_preserved(rng):
    data = rng.normal(0, 1, (60, 4)) @ rng.normal(0, 1, (4, 4))
    model = fit_pca(data, 4)
    proj = project(model, data)
    total_data = np.var(data - data.mean(axis=0), axis=0, ddof=1).sum()
    total_proj = np.var(proj, axis=0, ddof=1).sum()
    assert abs(total_data - total_proj) <= 1e-8


def test_pca_projection_variances_match_eigenvalues(rng):
    data = rng.normal(0, 1, (50, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
    model = fit_pca(data, 5)
    proj = project(model, data)
    variances = np.var(proj, axis=0, ddof=1)
    np.testing.assert_allclose(variances, model.eigenvalues, atol=1e-8)
    # independent oracle: power iteration with deflation on the covariance
    cov = np.cov((data - data.mean(axis=0)).T, ddof=1)
    remaining = cov.copy()
    oracle = []
    for _ in range(3):
        v = np.ones(5) / np.sqrt(5)
        for _ in range(10_000):
            w = remaining @ v
            v = w / np.linalg.norm(w)
        lam = float(v @ remaining @ v)
        oracle.append(lam)
        remaining = remaining - lam * np.outer(v, v)
    np.testing.assert_allclose(model.eigenvalues[:3], oracle, rtol=1e-8)


def test_pca_reconstruction_full_rank(rng):
    data = rng.normal(0, 2, (40, 3))
    model = fit_pca(data, 3)
    proj = project(model, data)
    recon = proj @ model.components.T + model.mean
    assert np.max(np.abs(recon - data)) <= 1e-8


def test_pca_orthonormal_columns_and_descending_eigenvalues(rng):
    data = rng.normal(0, 1, (80, 6))
    model = fit_pca(data, 4)
    gram = model.components.T @ model.components
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
    assert np.all(np.diff(model.eigenvalues) <= 0)
    assert np.all(model.eigenvalues >= 0)


def test_pca_sign_convention(rng):
    data = rng.normal(0, 1, (50, 3))
    model = fit_pca(data, 3)
    for j in range(3):
        peak = np.argmax(np.abs(model.components[:, j]))
        assert model.components[peak, j] > 0


def test_pca_range_validation(rng):
    data = rng.normal(0, 1, (10, 4))
    with pytest.raises(InvalidInputError):
        fit_pca(data, 0)
    with pytest.raises(InvalidInputError):
        fit_pca(data, 5)
    with pytest.raises(InvalidInputError):
        fit_pca(rng.normal(0, 1, (3, 4)), 2)


# ---------------------------------------------------------------------------
# random partition initialization
# ---------------------------------------------------------------------------

def test_partition_init_single_block_is_global_moments(rng):
    theta = make_gaussian_mixture(rng, 2, 1)
    data, _ = sample(theta, 100, rng)
    init = random_partition_init(data, 1, rng)
    assert init.weights[0] == 1.0
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / len(data)
    np.testing.assert_allclose(init.components[0].mean, mean, atol=1e-12)
    np.testing.assert_allclose(init.components[0].cov, cov, atol=1e-12)


def test_partition_init_deterministic(rng):
    theta = make_gaussian_mixture(rng, 2, 2)
    data, _ = sample(theta, 200, rng)
    a = random_partition_init(data, 3, np.random.default_rng(5))
    b = random_partition_init(data, 3, np.random.default_rng(5))
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means(), b.means())


def test_partition_init_block_fractions(rng):
    theta = make_gaussian_mixture(rng, 1, 1)
    data, _ = sample(theta, 100_000, rng)
    g = 4
    init = random_partition_init(data, g, rng)
    se = np.sqrt((1 / g) * (1 - 1 / g) / 100_000)
    assert np.all(np.abs(init.weights - 1 / g) <= 3 * se)


def test_partition_init_factorises_each_block_once(rng, monkeypatch):
    theta = make_gaussian_mixture(rng, 2, 3)
    data, _ = sample(theta, 300, rng)
    calls = count_cholesky(monkeypatch)
    init = random_partition_init(data, 3, np.random.default_rng(4))
    assert len(calls) == init.g == 3


def test_partition_init_insufficient_data(rng):
    with pytest.raises(InvalidInputError):
        random_partition_init(np.zeros((5, 2)), 2, rng)


def test_partition_init_retries_exhausted():
    # identical rows: every partition gives a singular covariance
    data = np.ones((40, 2))
    with pytest.raises(InitializationError):
        random_partition_init(data, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _block_means(data, g, labels):
    """k-means centres of the partition ``labels``: each block's mean, or the
    grand mean for an empty block."""
    return np.stack([data[labels == z].mean(axis=0) if np.any(labels == z) else data.mean(axis=0)
                     for z in range(g)])


def test_kmeans_separated_clouds(rng):
    theta = MixtureParams(
        [0.5, 0.5],
        (Gaussian([0.0, 0.0], np.eye(2)), Gaussian([30.0, 30.0], np.eye(2))),  # 30 sigma apart
    )
    data, labels = sample(theta, 500, rng)
    start = np.random.default_rng(2).integers(0, 2, 500)
    fitted, centers = kmeans(data, _block_means(data, 2, start), epochs=20)
    assert adjusted_rand_index(fitted, labels) == 1.0
    assert centers.shape == (2, 2)


def test_kmeans_each_point_its_own_center(rng):
    data = rng.normal(0, 5, (6, 2))
    start = np.random.default_rng(1).integers(0, 6, 6)
    labels, centers = kmeans(data, _block_means(data, 6, start), epochs=30)
    wcss = ((data - centers[labels]) ** 2).sum()
    assert wcss == pytest.approx(0.0, abs=1e-20)


def test_kmeans_fixed_point_keeps_labels(rng):
    data = np.array([[0.0], [0.2], [10.0], [10.3]])
    start = np.array([0, 0, 1, 1])
    labels, _ = kmeans(data, _block_means(data, 2, start), epochs=1)
    assert np.array_equal(labels, start)


def test_kmeans_honors_init_labels_and_is_deterministic(rng):
    theta = make_gaussian_mixture(rng, 2, 3)
    data, _ = sample(theta, 300, rng)
    init = _block_means(data, 3, np.random.default_rng(4).integers(0, 3, 300))
    a, ca = kmeans(data, init, epochs=10)
    b, cb = kmeans(data, init, epochs=10)
    assert np.array_equal(a, b) and np.array_equal(ca, cb)


def _full_array_kmeans(data, centers, epochs):
    """Lloyd sweeps on whole-data arrays: (n, d) squared norms, one (n, g)
    distance matrix per sweep and first-minimum labels, the same reseeding
    and update rules as :func:`kmeans`."""
    n, g = data.shape[0], len(centers)
    centers = centers.copy()
    labels = None
    sq_norms = (data * data).sum(axis=1)
    for _ in range(epochs):
        dist = sq_norms[:, None] - 2.0 * (data @ centers.T) + (centers * centers).sum(axis=1)
        new_labels = np.argmin(dist, axis=1)
        point_cost = dist[np.arange(n), new_labels]
        for z in np.flatnonzero(np.bincount(new_labels, minlength=g) == 0):
            far = int(np.argmax(point_cost))
            centers[z] = data[far]
            new_labels[far] = z
            point_cost[far] = 0.0
        for z in range(g):
            if np.any(new_labels == z):
                centers[z] = data[new_labels == z].mean(axis=0)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return new_labels, centers


@pytest.mark.parametrize("d, g", [(1, 2), (4, 3), (50, 10)])
def test_kmeans_equals_full_array_reference(d, g):
    # row counts on both sides of a row block, and past two blocks
    block = max(1, 2**17 // d)
    for n in (g + 1, block - 1, block + 1, 2 * block + 3):
        rng = np.random.default_rng(n + d)
        data, _ = sample(make_gaussian_mixture(rng, d, g), n, rng)
        init = _block_means(data, g, rng.integers(0, g, n))
        # the same start with its last centre far from every row: the first
        # sweep empties that cluster and reseeds it from the farthest point
        far = init.copy()
        far[-1] = 1e6
        for start in (init, far):
            got = kmeans(data, start, 6)
            ref = _full_array_kmeans(data, start, 6)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_kmeans_builds_no_data_sized_temporary():
    # d = 50, four equal, well separated clouds: a sweep holds the (n, g)
    # distances (g / d = 8% of the data), one cloud's rows (25%) and 1 MiB
    # row blocks; an (n, d) temporary alone would be 100%
    d, g, n = 50, 4, 20_000
    theta = MixtureParams(
        np.full(g, 0.25), tuple(Gaussian(np.full(d, 10.0 * z), np.eye(d)) for z in range(g))
    )
    data, labels = sample(theta, n, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    init = _block_means(data, g, np.where(rng.random(n) < 0.1, rng.integers(0, g, n), labels))
    bound = 0.5 * data.nbytes  # fixed before measuring
    tracemalloc.start()
    try:
        kmeans(data, init, epochs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_kmeans_holds_per_row_vectors_and_blocks():
    # d = 50, four equal, well separated clouds: besides the data a sweep
    # holds five per-row vectors at most (norms, old and new labels, point
    # costs, and one data column for the centres or a comparison mask) and
    # 1 MiB row blocks; one cloud's rows would be 25% of the data and the
    # (n, g) distances 8%
    d, g, n = 50, 4, 40_000
    theta = MixtureParams(
        np.full(g, 0.25), tuple(Gaussian(np.full(d, 10.0 * z), np.eye(d)) for z in range(g))
    )
    data, labels = sample(theta, n, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    init = _block_means(data, g, np.where(rng.random(n) < 0.1, rng.integers(0, g, n), labels))
    bound = 5 * 8 * n + 2 * 2**20  # fixed before measuring
    tracemalloc.start()
    try:
        kmeans(data, init, epochs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_kmeans_validation():
    with pytest.raises(InvalidInputError):  # g > n
        kmeans(np.zeros((2, 1)), np.zeros((5, 1)), epochs=1)
    with pytest.raises(InvalidInputError):  # centres of the wrong width
        kmeans(np.zeros((5, 1)), np.zeros((2, 2)), epochs=1)
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((5, 2)), np.array([[0.0, 0.0], [np.nan, 1.0]]), epochs=1)
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((5, 2)), np.array([[0.0, 0.0], [np.inf, 1.0]]), epochs=1)
    with pytest.raises(InvalidInputError):
        kmeans(np.zeros((5, 1)), np.zeros((2, 1)), epochs=0)


# ---------------------------------------------------------------------------
# labeled-CSV templates
# ---------------------------------------------------------------------------

def test_read_iris_fixture():
    features, classes = read_labeled_csv(IRIS_CSV)
    assert features.shape == (150, 4)
    assert np.array_equal(np.unique(classes), [0, 1, 2])
    assert np.all(np.bincount(classes) == 50)


def test_template_from_iris_has_equal_weights_and_class_moments():
    features, classes = read_labeled_csv(IRIS_CSV)
    theta = template_from_labeled_data(features, classes)
    assert theta.g == 3 and theta.dim == 4
    np.testing.assert_allclose(theta.weights, [1 / 3] * 3, atol=1e-15)
    block = features[classes == 1]
    np.testing.assert_allclose(theta.components[1].mean, block.mean(axis=0), atol=1e-12)
    centered = block - block.mean(axis=0)
    np.testing.assert_allclose(theta.components[1].cov, centered.T @ centered / len(block), atol=1e-12)


def test_template_rejects_thin_classes():
    features = np.random.default_rng(0).normal(0, 1, (5, 4))
    classes = np.array([0, 0, 0, 0, 1])  # class 1 has a single row
    with pytest.raises(InvalidInputError):
        template_from_labeled_data(features, classes)


def test_read_labeled_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,cls\n1.0,oops,0\n")
    with pytest.raises(InvalidInputError):
        read_labeled_csv(path)
    for cell in ("0.5", "nan", "inf", "1e300"):  # astype(int) would make 0.5 class 0
        fractional = tmp_path / "fractional.csv"
        fractional.write_text(f"a,b,cls\n1.0,2.0,0\n3.0,4.0,{cell}\n")
        with pytest.raises(InvalidInputError, match="fractional.csv"):
            read_labeled_csv(fractional)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InvalidInputError):
        read_labeled_csv(empty)


def test_read_labeled_csv_names_the_line_of_a_ragged_row(tmp_path):
    # a short row, and a long one after a blank line; rows that agree with
    # one another but not with the header are ragged too
    path = tmp_path / "ragged.csv"
    for body, line in (("1.0,2.0,0\n3.0,1\n", 3), ("1.0,2.0,0\n\n3.0,4.0,5.0,1\n", 4)):
        path.write_text("a,b,cls\n" + body)
        with pytest.raises(InvalidInputError, match=rf"ragged\.csv: line {line}: "):
            read_labeled_csv(path)
    path.write_text("a,cls\n1.0,2.0,0\n3.0,4.0,1\n")
    with pytest.raises(InvalidInputError, match=r"ragged\.csv: line 2: 3 cells, header has 2"):
        read_labeled_csv(path)


def test_featureless_template_is_rejected(tmp_path):
    path = tmp_path / "classes.csv"
    path.write_text("cls\n0\n0\n1\n1\n")
    with pytest.raises(InvalidInputError, match=r"classes\.csv: line 1: "):
        read_labeled_csv(path)
    with pytest.raises(InvalidInputError, match="column"):
        template_from_labeled_data(np.empty((4, 0)), np.array([0, 0, 1, 1]))
