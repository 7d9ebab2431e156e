import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigfatigue
from sigfatigue import sigcore as sc
from sigfatigue.errors import InsufficientDataError, InvalidInputError

from conftest import assert_tensorseq_close
from oracle_utils import (
    ShapeError,
    TensorSeq,
    chen_concat,
    chen_fold,
    cumsum_signature_levels,
    flatten,
    identity,
    log_signature,
    path_signature,
    riemann_signature_levels,
    segment_signature,
    sig_distance,
    tensor_exp,
)


def random_path(rng, n=20, d=2):
    return rng.random((n, d))


class TestSegmentSignature:
    def test_unit_x_increment(self):
        sig = segment_signature((1.0, 0.0), 2)
        np.testing.assert_array_equal(sig.level(1), [1.0, 0.0])
        np.testing.assert_array_equal(sig.level(2), [0.5, 0.0, 0.0, 0.0])

    def test_zero_increment_is_identity(self):
        sig = segment_signature((0.0, 0.0), 3)
        assert sig.level0 == 1.0
        for k in (1, 2, 3):
            assert np.all(sig.level(k) == 0.0)

    def test_diagonal_increment(self):
        sig = segment_signature((1.0, 1.0), 2)
        np.testing.assert_array_equal(sig.level(1), [1.0, 1.0])
        np.testing.assert_array_equal(sig.level(2), [0.5, 0.5, 0.5, 0.5])

    def test_level_k_is_scaled_tensor_power(self):
        delta = np.array([0.3, -0.7])
        sig = segment_signature(delta, 3)
        expected2 = np.multiply.outer(delta, delta).ravel() / 2
        expected3 = np.multiply.outer(np.multiply.outer(delta, delta), delta).ravel() / 6
        np.testing.assert_allclose(sig.level(2), expected2, atol=1e-15)
        np.testing.assert_allclose(sig.level(3), expected3, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            segment_signature((np.nan, 0.0), 2)
        with pytest.raises(InvalidInputError):
            segment_signature((np.inf, 1.0), 2)

    def test_rejects_bad_depth(self):
        with pytest.raises(InvalidInputError):
            segment_signature((1.0, 0.0), 0)

    def test_rejects_delta_that_is_not_a_vector(self):
        with pytest.raises(InvalidInputError, match="1-D"):
            segment_signature([[1.0, 0.0]], 2)


class TestChenConcat:
    def test_identity_element(self):
        sig = segment_signature((0.4, 0.2), 3)
        assert_tensorseq_close(chen_concat(sig, identity(2, 3)), sig)
        assert_tensorseq_close(chen_concat(identity(2, 3), sig), sig)

    def test_straight_line_split_at_midpoint(self):
        half = segment_signature((0.5, 0.5), 3)
        whole = segment_signature((1.0, 1.0), 3)
        assert_tensorseq_close(chen_concat(half, half), whole)

    def test_hand_expanded_product(self):
        a = segment_signature((1.0, 0.0), 2)
        b = segment_signature((0.0, 1.0), 2)
        out = chen_concat(a, b)
        np.testing.assert_array_equal(out.level(1), [1.0, 1.0])
        # lexicographic level 2: (1,1), (1,2), (2,1), (2,2)
        np.testing.assert_array_equal(out.level(2), [0.5, 1.0, 0.0, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chen_concat(identity(2, 2), identity(2, 3))
        with pytest.raises(ShapeError):
            chen_concat(identity(2, 2), identity(3, 2))


class TestPathSignature:
    def test_single_segment_matches_exponential(self):
        sig = path_signature([(0.0, 0.0), (1.0, 1.0)], 3)
        assert_tensorseq_close(sig, segment_signature((1.0, 1.0), 3))

    def test_l_path_levy_area(self):
        sig = path_signature([(0, 0), (1, 0), (1, 1)], 2)
        levy = (sig.level(2)[1] - sig.level(2)[2]) / 2
        assert levy == 0.5

    def test_matches_riemann_oracle(self):
        rng = np.random.default_rng(7)
        pts = random_path(rng)
        sig = path_signature(pts, 3)
        oracle = riemann_signature_levels(pts, 3, substeps=10_000)
        for k in (1, 2, 3):
            np.testing.assert_allclose(
                sig.level(k), oracle[k - 1], rtol=1e-6, atol=1e-9
            )

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            path_signature([(0.0, 0.0)], 2)

    def test_rejects_path_that_is_not_2d(self):
        with pytest.raises(InvalidInputError, match="path must be"):
            path_signature([0.0, 1.0, 2.0], 2)

    def test_rejects_non_finite_vertices(self):
        with pytest.raises(InvalidInputError):
            path_signature([(0.0, 0.0), (np.nan, 1.0)], 2)

    def test_chen_identity_random_splits(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pts = random_path(rng, n=rng.integers(4, 30))
            cut = int(rng.integers(1, len(pts) - 1))
            whole = path_signature(pts, 3)
            joined = chen_concat(
                path_signature(pts[: cut + 1], 3),
                path_signature(pts[cut:], 3),
            )
            assert_tensorseq_close(joined, whole, atol=1e-12)

    def test_level1_is_total_displacement(self):
        rng = np.random.default_rng(3)
        pts = random_path(rng, n=17)
        sig = path_signature(pts, 2)
        np.testing.assert_allclose(sig.level(1), pts[-1] - pts[0], atol=1e-14)

    def test_works_in_three_dimensions(self):
        rng = np.random.default_rng(5)
        pts = rng.random((10, 3))
        sig = path_signature(pts, 2)
        assert sig.dim == 3
        assert sig.level(2).shape == (9,)
        np.testing.assert_allclose(sig.level(1), pts[-1] - pts[0], atol=1e-14)


class TestLogSignature:
    def test_log_of_one_segment_exponential(self):
        lsig = log_signature(segment_signature((2.0, 3.0), 3))
        np.testing.assert_allclose(lsig.level(1), [2.0, 3.0], atol=1e-12)
        assert np.abs(lsig.level(2)).max() < 1e-12
        assert np.abs(lsig.level(3)).max() < 1e-12
        assert lsig.level0 == 0.0

    def test_l_path_bch_to_depth_two(self):
        lsig = log_signature(path_signature([(0, 0), (1, 0), (1, 1)], 2))
        np.testing.assert_array_equal(lsig.level(1), [1.0, 1.0])
        np.testing.assert_array_equal(lsig.level(2), [0.0, 0.5, -0.5, 0.0])

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sig = path_signature(random_path(rng, n=12), 3)
            back = tensor_exp(log_signature(sig))
            assert_tensorseq_close(back, sig, atol=1e-12)

    def test_level2_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            lsig = log_signature(path_signature(random_path(rng), 3))
            lvl2 = lsig.level(2).reshape(2, 2)
            np.testing.assert_allclose(lvl2, -lvl2.T, atol=1e-12)

    def test_requires_group_like(self):
        lie = log_signature(segment_signature((1.0, 2.0), 2))
        with pytest.raises(InvalidInputError):
            log_signature(lie)

    def test_exp_requires_lie(self):
        with pytest.raises(InvalidInputError):
            tensor_exp(segment_signature((1.0, 0.0), 2))


def path_bytes(n, dim, depth):
    """Kernel block bytes budgeted per path of n vertices in R^dim: its
    top level and its increments."""
    return 8 * (dim**depth + dim * (n - 1))


def block_paths(n, dim, depth):
    """Paths per kernel block for paths of n vertices in R^dim."""
    return max(1, sc.BLOCK_BYTES // path_bytes(n, dim, depth))


def cumsum_rows(paths, depth, log):
    """Rows of the cumulative-sum fold over the whole batch as one block."""
    levels = cumsum_signature_levels(np.asarray(paths, dtype=float), depth)
    return np.concatenate(sc._log_levels(levels) if log else levels).T


class TestBatchSignature:
    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_match_chen_fold(self, dim, depth, log):
        rng = np.random.default_rng(dim * 10 + depth)
        paths = rng.normal(size=(5, 7, dim))
        rows = sc.batch_signature(paths, depth, log=log)
        assert rows.shape == (5, sc.flat_length(dim, depth))
        for row, pts in zip(rows, paths):
            sig = chen_fold(pts, depth)
            expected = flatten(log_signature(sig) if log else sig)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("log", [False, True])
    def test_blocked_equals_unblocked(self, monkeypatch, log):
        block = block_paths(9, 2, 4)
        paths = np.random.default_rng(31).random((3 * block + 5, 9, 2))
        blocked = sc.batch_signature(paths, 4, log=log)
        monkeypatch.setattr(sc, "BLOCK_BYTES", path_bytes(9, 2, 4) * len(paths))
        unblocked = sc.batch_signature(paths, 4, log=log)
        assert blocked.tobytes() == unblocked.tobytes()

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_do_not_depend_on_the_split(self, monkeypatch, dim, depth, log):
        # two budget-sized blocks and a last block of exactly one path;
        # 16 segments are enough for numpy to sum a lone axis pairwise
        n = 17
        block = block_paths(n, dim, depth)
        paths = np.random.default_rng(dim * 100 + depth).normal(size=(2 * block + 1, n, dim))
        # a flat first coordinate and a falling rest give levels of -0.0
        paths[block - 1, :, 0] = 0.0
        paths[block - 1, :, 1:] = -np.arange(n, dtype=float)[:, None]
        rows = sc.batch_signature(paths, depth, log=log)
        for b in sorted({0, block - 1, block, 2 * block - 1, 2 * block}):
            alone = sc.batch_signature(paths[b : b + 1], depth, log=log)
            assert rows[b].tobytes() == alone[0].tobytes(), b
        monkeypatch.setattr(sc, "BLOCK_BYTES", path_bytes(n, dim, depth) * len(paths))
        whole = sc.batch_signature(paths, depth, log=log)
        assert rows.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_the_cumsum_fold(self, dim, depth, log):
        rng = np.random.default_rng(1000 * dim + 10 * depth + log)
        n = int(rng.integers(2, 12))
        for batch in (1, block_paths(n, dim, depth) + 1):
            paths = rng.normal(size=(batch, n, dim))
            # zeros of both signs, whole flat paths among them
            paths[rng.random(paths.shape) < 0.2] = 0.0
            paths[rng.random(paths.shape) < 0.2] = -0.0
            paths[: batch // 2, :, 0] = -0.0
            rows = sc.batch_signature(paths, depth, log=log)
            assert rows.tobytes() == cumsum_rows(paths, depth, log).tobytes()

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_padded_batches_equal_the_cumsum_fold(self, depth, log):
        # every remainder of the batch mod 16, the paths a block pads to
        rng = np.random.default_rng(40 + depth)
        for batch in range(1, 34):
            paths = rng.normal(size=(batch, 5, 2))
            # a flat first coordinate and a falling rest give levels of -0.0
            paths[-1, :, 0] = 0.0
            paths[-1, :, 1] = -np.arange(5, dtype=float)
            rows = sc.batch_signature(paths, depth, log=log)
            assert rows.tobytes() == cumsum_rows(paths, depth, log).tobytes(), batch

    def test_buffer_size_is_scoped_to_the_fold(self, monkeypatch):
        monkeypatch.setattr(sc, "BLOCK_BYTES", path_bytes(3, 2, 2) * 20)
        paths = np.random.default_rng(9).random((30, 3, 2))
        seen, fold = [], sc._signature_levels

        def recording(paths, depth, width):
            seen.append((len(paths), width, np.getbufsize()))
            return fold(paths, depth, width)

        monkeypatch.setattr(sc, "_signature_levels", recording)
        before = np.getbufsize()
        sc.batch_signature(paths, 2)
        assert seen == [(20, 32, 32), (10, 16, 16)]
        assert np.getbufsize() == before
        paths[-1, 1, 0] = np.nan  # in the second block
        with pytest.raises(InvalidInputError, match="finite"):
            sc.batch_signature(paths, 2)
        assert np.getbufsize() == before

    def test_rejects_complex_paths(self):
        paths = np.zeros((2, 3, 2), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^paths must be real$"):
                sc.batch_signature(paths, 2)

    @pytest.mark.parametrize("log", [False, True])
    def test_long_history_batch_equals_the_cumsum_fold(self, log):
        # the loops of one 1,200-observation series at the default window
        paths = np.random.default_rng(2346).random((2346, 16, 2))
        paths[:, 0] = paths[:, -1, 1] = 0.0
        paths[:, -1, 0] = 1.0
        rows = sc.batch_signature(paths, 3, log=log)
        assert rows.tobytes() == cumsum_rows(paths, 3, log).tobytes()

    def test_peak_memory_is_bounded_by_the_block_budget(self):
        paths = np.random.default_rng(5).random((400, 62, 2))
        tracemalloc.start()
        try:
            sc.batch_signature(paths, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc heap page faults")
    def test_repeated_calls_reuse_heap_pages(self):
        # a fresh interpreter, so no earlier free has moved glibc's trim mark;
        # one series' loops, as distance_series passes them, in two blocks
        code = (
            "import resource, numpy as np\n"
            "from sigfatigue.sigcore import batch_signature\n"
            "paths = np.random.default_rng(0).random((186, 16, 2))\n"
            "batch_signature(paths, 3)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    batch_signature(paths, 3)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n"
        )
        src = str(Path(sigfatigue.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert float(out.stdout) < 10, out.stdout

    @pytest.mark.parametrize("depth", [2.0, 2.5, np.float64(3.0), "3", True])
    def test_rejects_depth_that_is_not_an_integer(self, depth):
        with pytest.raises(InvalidInputError, match="depth must be an integer"):
            sc.batch_signature(np.zeros((2, 3, 2)), depth)
        with pytest.raises(InvalidInputError, match="depth must be an integer"):
            segment_signature(np.ones(2), depth)

    def test_numpy_integer_depth_accepted(self):
        paths = np.random.default_rng(8).random((3, 5, 2))
        rows = sc.batch_signature(paths, np.int64(3))
        assert rows.tobytes() == sc.batch_signature(paths, 3).tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            sc.batch_signature(np.zeros((2, 3, 2)), 0)
        with pytest.raises(InvalidInputError):
            sc.batch_signature(np.zeros((2, 1, 2)), 2)
        with pytest.raises(InvalidInputError):
            sc.batch_signature(np.zeros((3, 2)), 2)
        with pytest.raises(InvalidInputError):
            sc.batch_signature(np.zeros((2, 3, 0)), 2)
        paths = np.zeros((block_paths(3, 2, 2) + 2, 3, 2))
        paths[-1, 1, 0] = np.inf  # in the second block
        with pytest.raises(InvalidInputError):
            sc.batch_signature(paths, 2)


class TestFlattenAndDistance:
    @pytest.mark.parametrize("depth,expected", [(1, 2), (2, 6), (3, 14)])
    def test_flat_length(self, depth, expected):
        assert sc.flat_length(2, depth) == expected
        sig = segment_signature((0.2, 0.9), depth)
        assert flatten(sig).shape == (expected,)

    def test_flatten_order(self):
        sig = segment_signature((1.0, 0.0), 2)
        np.testing.assert_array_equal(flatten(sig), [1, 0, 0.5, 0, 0, 0])

    def test_distance_to_self_is_zero(self):
        sig = path_signature([(0, 0), (0.3, 0.8), (1, 0.1)], 3)
        assert sig_distance(sig, sig) == 0.0

    def test_level1_distance(self):
        a = segment_signature((1.0, 0.0), 1)
        b = segment_signature((0.0, 1.0), 1)
        assert sig_distance(a, b) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_rising_vs_falling_box_paths(self):
        rising = path_signature([(0, 0), (0.5, 1), (1, 0.2)], 3)
        falling = path_signature([(0, 1), (0.5, 0), (1, 0.8)], 3)
        assert sig_distance(rising, falling) > 0.0

    def test_distance_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sig_distance(identity(2, 2), identity(2, 3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False, width=32),
            st.floats(0, 1, allow_nan=False, width=32),
        ),
        min_size=3,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=20),
)
def test_chen_identity_property(points, cut_seed):
    pts = np.array(points, dtype=float)
    cut = 1 + cut_seed % (len(pts) - 2)
    whole = path_signature(pts, 3)
    joined = chen_concat(
        path_signature(pts[: cut + 1], 3), path_signature(pts[cut:], 3)
    )
    np.testing.assert_allclose(
        flatten(joined), flatten(whole), rtol=0, atol=1e-12
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False, width=32),
            st.floats(0, 1, allow_nan=False, width=32),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_exp_log_roundtrip_property(points):
    sig = path_signature(np.array(points, dtype=float), 3)
    back = tensor_exp(log_signature(sig))
    np.testing.assert_allclose(flatten(back), flatten(sig), rtol=0, atol=1e-12)


def test_noise_perturbation_distance_grows_with_variance():
    rng = np.random.default_rng(15)
    base = np.column_stack([np.linspace(0, 1, 30), 0.5 + 0.2 * np.sin(np.linspace(0, 6, 30))])
    ref = path_signature(base, 3)
    mean_sq = []
    for sigma in (0.01, 0.05, 0.1):
        acc = 0.0
        for _ in range(100):
            noisy = base.copy()
            noisy[:, 1] += rng.normal(0, sigma, 30)
            acc += sig_distance(path_signature(noisy, 3), ref) ** 2
        mean_sq.append(acc / 100)
    assert mean_sq[0] <= mean_sq[1] <= mean_sq[2]


def test_tensorseq_validation():
    with pytest.raises(ShapeError):
        TensorSeq(dim=2, depth=2, level0=1.0, levels=(np.zeros(2),))
    with pytest.raises(ShapeError):
        TensorSeq(dim=2, depth=1, level0=1.0, levels=(np.zeros(3),))
    with pytest.raises(InvalidInputError):
        TensorSeq(dim=2, depth=1, level0=1.0, levels=(np.array([np.nan, 0.0]),))
    for dim, depth in [(0, 1), (2, 0)]:
        with pytest.raises(InvalidInputError, match="dim and depth"):
            TensorSeq(dim=dim, depth=depth, level0=1.0, levels=())
    with pytest.raises(InvalidInputError, match="level0"):
        TensorSeq(dim=2, depth=1, level0=math.inf, levels=(np.zeros(2),))


def test_tensorseq_repr_names_its_shape():
    sig = segment_signature((1.0, 0.5), 2)
    assert repr(sig) == "TensorSeq(dim=2, depth=2, level0=1.0)"


def test_tensorseq_levels_are_immutable():
    sig = segment_signature((1.0, 0.5), 2)
    with pytest.raises(ValueError):
        sig.level(1)[0] = 99.0


def test_package_ships_only_the_kernel():
    # the TensorSeq algebra is the spec in the test oracles, not package API
    assert sc.__all__ == ["batch_signature", "flat_length"]
    moved = [
        "TensorSeq", "identity", "segment_signature", "chen_concat", "path_signature",
        "log_signature", "tensor_exp", "flatten", "sig_distance", "ShapeError",
    ]
    for module in (sigfatigue, sc, sigfatigue.errors):
        assert [name for name in moved if hasattr(module, name)] == [], module.__name__
    code = "import sys, sigfatigue; print(sorted(m for m in sys.modules if 'oracle_utils' in m))"
    src = str(Path(sigfatigue.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
