import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from sparsedom import kernels
from sparsedom.dyadic import DyadicInterval, Signal, chi_weights, localization_weight


def _direct_chi_row(absf, J, d, M):
    """Per-interval chi^M integrals straight from the distance formula."""
    n = absf.shape[0]
    B = 1 << (J - d)
    centers = np.arange(n) + 0.5
    out = np.empty(1 << d)
    for i in range(1 << d):
        lo = i * B
        u = np.maximum(0.0, np.maximum(lo - centers, centers - (lo + B))) / B
        out[i] = np.dot(absf, (1.0 + u) ** (-float(M)))
    return out / n


def _direct_chi_weights(I, J, M):
    n = 1 << J
    x = (np.arange(n) + 0.5) / n
    dist = np.maximum(0.0, np.maximum(I.start - x, x - I.end))
    return (1.0 + dist / I.length) ** (-float(M))


def _chi_test_signals(J, rng):
    n = 1 << J
    point = np.zeros(n)
    point[rng.choice(n, size=min(3, n), replace=False)] = n / 3.0
    return {"gaussian": np.abs(rng.standard_normal(n)), "point_masses": point,
            "zero": np.zeros(n), "constant": np.full(n, 0.7)}


@pytest.mark.parametrize("J", [1, 3, 5, 8])
@pytest.mark.parametrize("M", [1, 3, 8, 16])
def test_chi_kernel_slices_equal_direct_formula(J, M):
    rng = np.random.default_rng(10 * J + M)
    for name, absf in _chi_test_signals(J, rng).items():
        for d in range(J + 1):
            row = _direct_chi_row(absf, J, d, M)
            assert np.array_equal(kernels.chi_sums_depth(absf, J, d, M), row), (name, d)
            index = rng.permutation(1 << d)[: max(1, (1 << d) // 3)]
            subset = kernels.chi_sums_depth(absf, J, d, M, index)
            assert np.array_equal(subset, row[index]), (name, d)
    for d in range(J + 1):
        for i in {0, (1 << d) // 2, (1 << d) - 1}:
            I = DyadicInterval(d, i)
            assert np.array_equal(chi_weights(I, J, M), _direct_chi_weights(I, J, M))


def test_chi_weights_read_only_and_shared_with_localization_weight():
    J = 6
    I = DyadicInterval(2, 1)
    w = chi_weights(I, J, 8)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert not kernels.chi_kernel(J, 2, 8).flags.writeable
    for cell in range(1 << J):
        assert localization_weight(I, cell, J, 8) == w[cell]
    for cell in (-1, 1 << J):
        with pytest.raises(ValueError):
            localization_weight(I, cell, J, 8)


def test_dot_is_blas_dot_below_one_block():
    rng = np.random.default_rng(4)
    for n in (1, 7, 1000, kernels.DOT_BLOCK):
        a, b = rng.random(n), rng.random(n)
        assert kernels.dot(a, b) == np.dot(a, b)
    a, b = rng.random(3 * kernels.DOT_BLOCK + 5), rng.random(3 * kernels.DOT_BLOCK + 5)
    assert kernels.dot(a, b) == pytest.approx(np.dot(a, b), rel=1e-12)


@pytest.mark.parametrize("n", [1, 7, kernels.DOT_BLOCK, kernels.DOT_BLOCK + 1,
                               3 * kernels.DOT_BLOCK + 5])
def test_dot_of_row_stack_equals_row_dots(n):
    rng = np.random.default_rng(n)
    b = rng.random(n) * np.exp(rng.uniform(-40.0, 40.0, n))
    rows = rng.random((5, n)) * np.exp(rng.uniform(-40.0, 40.0, (5, n)))
    out = kernels.dot(rows, b)
    assert out.shape == (5,)
    for row, got in zip(rows, out):
        assert got == kernels.dot(row, b)
        assert got == kernels.dot(b, row)
    # a read-only window with a negative row stride, as chi_sums_depth takes
    base = rng.random(n + 4 * 3)
    view = as_strided(base[12:], (5, n), (-3 * base.itemsize, base.itemsize),
                      writeable=False)
    out = kernels.dot(view, b)
    for k in range(5):
        assert out[k] == kernels.dot(b, base[12 - 3 * k : 12 - 3 * k + n])


def _chi_dots(absf, J, d, M, index):
    """One chi_weights dot per interval, as the per-interval integral takes it."""
    return np.array([kernels.dot(absf, chi_weights(DyadicInterval(d, int(i)), J, M))
                     for i in index]) / (1 << J)


@pytest.mark.parametrize("J", [1, 5, 9, 14])
def test_chi_sums_depth_equals_per_interval_dots(J):
    rng = np.random.default_rng(J)
    n = 1 << J
    absf = np.abs(rng.standard_normal(n)) * np.exp(rng.uniform(-40.0, 40.0, n))
    for d in sorted({0, 1, J // 2, J - 1, J}):
        m = 1 << d
        assert np.array_equal(kernels.chi_sums_depth(absf, J, d, 8),
                              _chi_dots(absf, J, d, 8, range(m))), d
        one_run = np.arange(m)[m // 3 : m // 3 + max(1, m // 2)]
        scattered = np.sort(rng.choice(m, max(1, m // 3), replace=False))
        unsorted = rng.permutation(m)[:25]
        for index in (one_run, scattered, unsorted, np.arange(0)):
            got = kernels.chi_sums_depth(absf, J, d, 8, index)
            assert got.shape == index.shape
            assert np.array_equal(got, _chi_dots(absf, J, d, 8, index)), (d, index)


def test_dot_does_not_depend_on_blas_threads():
    code = ("import numpy as np; from sparsedom import kernels; "
            "r = np.random.default_rng(9); a, b = r.random(1 << 14), r.random(1 << 14); "
            "rows = r.random((3, 1 << 14)); "
            "print(repr(float(kernels.dot(a, b))), kernels.dot(rows, b).tolist())")
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outs.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, check=True).stdout)
    assert len(outs) == 1


def test_chi_sums_match_direct_weights():
    rng = np.random.default_rng(2)
    J = 5
    f = Signal(np.abs(rng.standard_normal(1 << J)))
    for d in (0, 2, 4):
        row = kernels.chi_sums_depth(f.values, J, d, 8)
        for i in (0, (1 << d) // 2, (1 << d) - 1):
            direct = np.dot(f.values, chi_weights(DyadicInterval(d, i), J, 8)) / (1 << J)
            assert row[i] == pytest.approx(direct, rel=1e-12)


def test_interval_sums_pyramid():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(16)
    heap = kernels.interval_sums(vals)
    for d in range(5):
        B = 1 << (4 - d)
        for i in range(1 << d):
            assert heap[(1 << d) + i] == pytest.approx(np.sum(vals[i * B:(i + 1) * B]), abs=1e-12)


def test_heap_subtree_sums():
    rng = np.random.default_rng(4)
    J = 4
    vals = np.zeros(1 << J)
    vals[1:] = rng.standard_normal((1 << J) - 1)
    out = kernels.heap_subtree_sums(vals, J)
    for d in range(J):
        for i in range(1 << d):
            expect = 0.0
            for dd in range(d, J):
                lo = i << (dd - d)
                expect += np.sum(vals[(1 << dd) + lo:(1 << dd) + lo + (1 << (dd - d))])
            assert out[(1 << d) + i] == pytest.approx(expect, abs=1e-12)


def _one_interval_profile(vals, J, d0, i0):
    """The profile of one interval, one depth at a time."""
    out = np.zeros(1 << (J - d0))
    for d in range(d0, J):
        row = vals[(1 << d) + (i0 << (d - d0)) : (1 << d) + ((i0 + 1) << (d - d0))]
        if np.any(row):
            out += np.repeat(row * float(1 << d), 1 << (J - d))
    return out


@pytest.mark.parametrize("J", [1, 2, 5, 8])
def test_subtree_profile_rows_equal_one_interval_profiles(J):
    rng = np.random.default_rng(J)
    vals = np.zeros(1 << J)
    vals[1:] = rng.standard_normal((1 << J) - 1) ** 2 * rng.choice([1e-6, 1.0, 1e6], (1 << J) - 1)
    vals[rng.random(1 << J) < 0.4] = 0.0       # scattered zeros
    if J > 1:
        for d in range(1, J):                   # one all-zero subtree: rows of zeros
            vals[(1 << d) : (1 << d) + (1 << (d - 1))] = 0.0
    for d0 in range(J):
        index = rng.permutation(1 << d0)
        for picked in (index, index[: max(1, index.size // 3)], index[:0]):
            rows = kernels.subtree_profile(vals, J, d0, picked)
            assert rows.shape == (picked.size, 1 << (J - d0))
            for row, i in zip(rows, picked):
                assert np.array_equal(row, _one_interval_profile(vals, J, d0, int(i)))
        for i in (0, (1 << d0) - 1):
            one = kernels.subtree_profile(vals, J, d0, i)
            assert one.shape == (1 << (J - d0),)
            assert np.array_equal(one, _one_interval_profile(vals, J, d0, i))


def test_subtree_profile_integral_identity():
    # integral of the profile equals the plain sum of the subtree values
    rng = np.random.default_rng(5)
    J = 6
    vals = np.zeros(1 << J)
    vals[1:] = rng.standard_normal((1 << J) - 1) ** 2
    prof = kernels.subtree_profile(vals, J, 0, 0)
    assert np.sum(prof) / (1 << J) == pytest.approx(np.sum(vals), rel=1e-12)
