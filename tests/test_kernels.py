import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided
from test_cz import hard_signals

from sparsedom import kernels, sparse, stopping
from sparsedom.dyadic import DyadicInterval, Signal, chi_weights, oscillation
from sparsedom.generate import generate_signal
from sparsedom.haar import haar_transform
from sparsedom.hardy import Weight


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


def test_chi_weights_read_only():
    J = 6
    I = DyadicInterval(2, 1)
    w = chi_weights(I, J, 8)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert not kernels.chi_kernel(J, 2, 8).flags.writeable


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


def _bound_test_cells(kind, J, seed):
    """|f| for the chi^M bound property: the four hard signal kinds, zero and
    constant signals, cells spanning 1e+-150, the same with one cell at
    1e300, and cells down in the subnormal range."""
    n, rng = 1 << J, np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, 0.7)
    if kind in ("wide", "spike", "tiny"):
        low, high = (-323.0, -300.0) if kind == "tiny" else (-150.0, 150.0)
        cells = 10.0 ** rng.uniform(low, high, n)
        if kind == "spike":
            cells[rng.integers(n)] = 1e300
        return cells
    kw = {"k": 8} if kind == "point_masses" else {"k": 32} if kind == "sparse_haar" else {}
    return np.abs(generate_signal(kind, J, seed=seed, **kw).values)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["point_masses", "sparse_haar", "step", "gaussian_noise",
                             "zero", "constant", "wide", "spike", "tiny"]),
       J=st.integers(4, 10), M=st.sampled_from([1, 2, 8]), seed=st.integers(0, 10_000))
def test_chi_bounds_contain_every_chi_sum(kind, J, M, seed):
    absf = _bound_test_cells(kind, J, seed)
    sums = kernels.interval_sums(absf)
    for d in range(J):
        if 1 << d <= kernels.CHI_NEAR + 1:
            with pytest.raises(ValueError):
                kernels.chi_bounds_depth(absf, J, d, M, sums[1 << d : 2 << d])
            continue
        lo, hi = kernels.chi_bounds_depth(absf, J, d, M, sums[1 << d : 2 << d])
        exact = kernels.chi_sums_depth(absf, J, d, M)
        assert np.all(lo <= exact) and np.all(exact <= hi), d


def test_dot_does_not_depend_on_blas_threads():
    code = ("import numpy as np; from sparsedom import kernels; "
            "r = np.random.default_rng(9); a, b = r.random(1 << 14), r.random(1 << 14); "
            "rows = r.random((3, 1 << 14)); "
            "print(repr(float(kernels.dot(a, b))), kernels.dot(rows, b).tolist())")
    # the child imports sparsedom from where this process found it
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
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


def test_interval_sums_entry_zero_is_zero():
    # np.empty may hand back a freed buffer of the same size full of NaN
    for _ in range(3):
        junk = np.full(32, np.nan)
        del junk
        assert kernels.interval_sums(np.ones(16))[0] == 0.0


def _fraction_heap(vals):
    n = vals.size
    heap = [Fraction(0)] * (2 * n)
    heap[n:] = map(Fraction, vals.tolist())
    for k in range(n - 1, 0, -1):
        heap[k] = heap[2 * k] + heap[2 * k + 1]
    return heap


@pytest.mark.parametrize("J", [1, 3, 6, 9])
def test_dd_interval_sums_tail_is_exact_or_bounded(J):
    rng = np.random.default_rng(J)
    n = 1 << J
    inexact = 0
    for vals in (np.abs(rng.standard_normal(n)), rng.standard_normal(n),
                 rng.integers(0, 9, n) * 0.25,
                 rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n),
                 rng.integers(0, 1 << 20, n) * 5e-324):
        hi, lo, exact = kernels.dd_interval_sums(vals)
        assert hi.tobytes() == kernels.interval_sums(vals).tobytes()
        assert lo[0] == 0.0 and np.all(lo[n:] == 0.0) and np.all(exact[n:])
        exact_sums, abs_sums = _fraction_heap(vals), _fraction_heap(np.abs(vals))
        for node in range(1, n):
            h = J - (node.bit_length() - 1)
            tail = exact_sums[node] - Fraction(hi[node]) - Fraction(lo[node])
            if exact[node]:
                assert tail == 0
            else:
                assert abs(tail) <= Fraction(1.1 * (h + 1) ** 2 * 2.0 ** -106) * abs_sums[node]
        inexact += n - 1 - int(exact[1:n].sum())
    assert inexact > 0 or J < 6


def test_dd_interval_sums_overflow():
    vals = np.array([np.finfo(float).max, np.finfo(float).max, 1.0, 2.0])
    hi, lo, exact = kernels.dd_interval_sums(vals)
    assert hi[2] == np.inf and np.isnan(lo[2]) and not exact[2] and not exact[1]
    assert hi[3] == 3.0 and exact[3]


@pytest.mark.parametrize("case", ["empty", "one", "all_equal", "unsorted", "wide", "intp",
                                  "increasing"])
def test_sorted_unique_equals_np_unique(case):
    rng = np.random.default_rng(3)
    a = {"empty": np.zeros(0, dtype=np.int64),
         "one": np.array([7]),
         "all_equal": np.full(50, 3),
         "unsorted": rng.integers(-20, 20, 300),
         "wide": rng.integers(-2**62, 2**62, 1000),
         "intp": rng.integers(1, 1 << 12, 4000).astype(np.intp),
         "increasing": np.arange(1, 1 << 14)}[case]
    got, want = kernels.sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_sorted_unique_random_int_arrays():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.integers(-50, 50, rng.integers(0, 40)).reshape(-1)
        assert np.array_equal(kernels.sorted_unique(a), np.unique(a))
    grid = rng.integers(0, 9, (6, 7))          # np.unique flattens, so does this
    assert np.array_equal(kernels.sorted_unique(grid), np.unique(grid))


def _walk_nearest(nodes, members, strict):
    """nearest_in one node at a time: walk up from the node (from its
    parent with ``strict``) to the first member."""
    members, out = set(members.tolist()), []
    for x in nodes.tolist():
        x >>= int(strict)
        while x and x not in members:
            x >>= 1
        out.append(x)
    return np.array(out, dtype=np.intp)


def _heap_owners(nodes, members, strict):
    """The heap formulation the stopping engine used to build owners with:
    ancestor_max over the heap holding each member's own node."""
    top = int(max(nodes.max(initial=1), members.max(initial=1)))
    owner = np.zeros(1 << top.bit_length(), dtype=np.intp)
    owner[members] = members
    return kernels.ancestor_max(owner)[nodes >> 1 if strict else nodes]


def _heap_maximal(mask):
    """The deleted maximal_nodes: set nodes with no set strict ancestor."""
    above = np.zeros_like(mask)
    above[2:] = np.repeat(kernels.ancestor_max(mask)[1 : mask.shape[0] >> 1], 2)
    return np.flatnonzero(mask & ~above)


def _node_sets(J, rng):
    """(name, nodes) node sets at depth < J: empty, the root, the full heap,
    a chain, sparse and dense random sets, both unsorted."""
    size = 1 << J
    leaf = (1 << (J - 1)) + int(rng.integers(1 << (J - 1)))
    full = np.arange(1, size)
    sets = {"empty": full[:0], "root": full[:1], "full": full,
            "chain": np.array([leaf >> k for k in range(J)])[::-1]}
    for name, n in (("sparse", max(1, size // (4 * J))), ("dense", size // 2)):
        sets[name] = rng.permutation(full)[:n]
    return sets


class TestNearestIn:
    """kernels.nearest_in equals the heap kernels it replaces, on both sides
    of its density rule."""

    @pytest.mark.parametrize("J", range(1, 15))
    def test_equals_heap_kernels(self, J):
        rng = np.random.default_rng(J)
        sets = _node_sets(J, rng)
        for name, nodes in sets.items():
            ordered = kernels.sorted_unique(nodes)
            for strict in (False, True):
                got = kernels.nearest_in(nodes, nodes, strict=strict)
                assert got.dtype == np.intp
                assert np.array_equal(got, _heap_owners(nodes, nodes, strict)), (name, strict)
            # maximal nodes and the collection forest
            mask = kernels.node_mask(nodes, 1 << J)
            top = ordered[kernels.nearest_in(ordered, nodes, strict=True) == 0]
            assert np.array_equal(top, _heap_maximal(mask)), name
            want = _heap_owners(ordered, ordered, True) if ordered.size else ordered
            assert np.array_equal(sparse._forest(ordered), want), name
            # owners: each node's agenda node, the maximal nodes in shuffled
            # agenda order, and agenda nodes of a second set
            agenda = rng.permutation(top)
            assert np.array_equal(kernels.nearest_in(nodes, agenda),
                                  _heap_owners(nodes, agenda, False)), name
            for other in ("sparse", "chain"):
                got = kernels.nearest_in(sets[other], nodes)
                assert np.array_equal(got, _heap_owners(sets[other], nodes, False))
            closure = kernels.heap_subtree_sums(mask, J)
            assert np.array_equal(kernels.ancestor_closure(nodes, 1 << J), closure), name

    @pytest.mark.parametrize("J", [1, 3, 6])
    def test_equals_walk(self, J):
        rng = np.random.default_rng(J + 20)
        for nodes in _node_sets(J, rng).values():
            members = rng.permutation(nodes)[: max(1, nodes.size // 3)]
            for strict in (False, True):
                assert np.array_equal(kernels.nearest_in(nodes, members, strict=strict),
                                      _walk_nearest(nodes, members, strict))

    def test_empty_and_shape(self):
        nodes = np.array([[5, 6], [7, 1]])
        assert kernels.nearest_in(nodes, np.array([], dtype=np.intp)).shape == (2, 2)
        assert np.array_equal(kernels.nearest_in(nodes, [1, 3], strict=True), [[1, 3], [3, 0]])
        assert kernels.nearest_in([], [1]).shape == (0,)

    @pytest.mark.parametrize("J", [12, 14])
    def test_density_rule_picks_the_formulation(self, J):
        # node arrays for a 96-node set, the heap for the whole heap; the
        # answers agree either way (test_equals_heap_kernels)
        rng = np.random.default_rng(J)
        sparse_set = np.sort(rng.permutation(np.arange(1, 1 << J))[:96])
        full = np.arange(1, 1 << J)
        for nodes, heap in ((sparse_set, False), (full, True)):
            with mock.patch.object(kernels, "ancestor_max",
                                   side_effect=kernels.ancestor_max) as heap_pass, \
                    mock.patch.object(kernels, "heap_subtree_sums",
                                      side_effect=kernels.heap_subtree_sums) as closure_pass:
                kernels.nearest_in(nodes, nodes, strict=True)
                kernels.ancestor_closure(nodes, 1 << J)
            assert heap_pass.called == heap and closure_pass.called == heap


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


# ---------------------------------------------------------------------------
# narrow-row layer: each helper against the numpy call it replaces
# ---------------------------------------------------------------------------

#: signed zeros, subnormals, the normal limit, +-inf and 1e+-300
_EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022,
               np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0, 3.0]


@st.composite
def _row_blocks(draw):
    """A (rows, width) block array, or one row as a 1-D array, with the row
    count on either side of kernels.NARROW."""
    width = draw(st.integers(1, 16))
    rows = draw(st.sampled_from([0, 1, 2, 7, kernels.NARROW, 9, 33]))
    cell = st.one_of(st.sampled_from(_EDGE_CELLS),
                     st.floats(allow_nan=False, allow_subnormal=True))
    cells = draw(st.lists(cell, min_size=max(rows, 1) * width,
                          max_size=max(rows, 1) * width))
    a = np.array(cells, dtype=float)
    return a if rows == 0 else a.reshape(rows, width)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@settings(max_examples=200, deadline=None)
@given(a=_row_blocks())
def test_row_reductions_equal_numpy_bit_for_bit(a):
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bits(kernels.row_sums(a)) == _bits(np.sum(a, axis=-1))
    assert _bits(kernels.row_min(a)) == _bits(np.min(a, axis=-1))
    for mask in (a > 0, np.signbit(a), a == a):
        assert _bits(kernels.row_counts(mask)) == _bits(mask.sum(axis=-1))


@settings(max_examples=200, deadline=None)
@given(a=_row_blocks())
def test_sort_rows_equals_np_sort_up_to_the_sign_of_zero(a):
    got, want = kernels.sort_rows(a), np.sort(a, axis=-1)
    assert np.array_equal(got, want)
    # only a zero may differ, and only in its sign
    assert _bits(got + 0.0) == _bits(want + 0.0)
    if a.ndim == 1 or a.shape[0] < kernels.NARROW or a.shape[-1] not in (2, 4):
        assert _bits(got) == _bits(want)   # numpy's own sort, or a copy


@settings(max_examples=60, deadline=None)
@given(f=hard_signals())
def test_block_mean_and_oscillation_equal_np_mean(f):
    # every depth's blocks, narrow and wide; dyadic.oscillation reads the
    # same rows
    for d in range(f.depth_J + 1):
        blocks = f.values.reshape(1 << d, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(blocks, axis=1)
            osc = np.mean(np.abs(blocks - mean[:, None]), axis=1)
            assert _bits(kernels.row_means(blocks)) == _bits(mean)
            assert _bits(kernels.row_oscillations(blocks)) == _bits(osc)
            assert _bits(oscillation(f, np.arange(1 << d, 2 << d))) == _bits(osc)


def test_narrow_paths_are_taken_and_zero_signs_may_differ():
    # rows of 2 and 4 with at least NARROW rows go through the networks,
    # which may return a pair of zeros in another order or with one sign
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0]] * kernels.NARROW)
    assert kernels._by_columns(zeros) and not kernels._by_columns(zeros[:1])
    assert not kernels._by_columns(np.zeros((64, kernels.NARROW)))
    got = kernels.sort_rows(zeros)
    assert np.array_equal(got, zeros) and np.all(got == 0.0)
    # a lone row, as Lerner's root row, is numpy's sort bit for bit
    assert _bits(kernels.sort_rows(zeros[:1])) == _bits(np.sort(zeros[:1], axis=-1))


def _bound_cases(kind, J, seed, center):
    """A squared-coefficient heap: a signal's (point masses, zero, constant,
    cells spanning 1e+-150 around ``center``) or drawn directly (subnormal
    and mixed profiles), with zeros sprinkled in."""
    rng = np.random.default_rng(seed)
    n = 1 << J
    if kind in ("point_masses", "zero", "constant", "wide"):
        cells = {"point_masses": lambda: generate_signal("point_masses", J, seed=seed, k=3).values,
                 "zero": lambda: np.zeros(n), "constant": lambda: np.full(n, 1.5),
                 "wide": lambda: rng.standard_normal(n) * 10.0 ** (center + rng.uniform(-150, 150, n))
                 }[kind]()
        with np.errstate(over="ignore"):
            vals = haar_transform(Signal(cells)).heap ** 2
    else:
        tiny = rng.integers(1, 1 << 30, n) * 5e-324
        vals = tiny if kind == "subnormal" else np.where(
            rng.random(n) < 0.5, 10.0 ** rng.uniform(-300, 300, n), tiny)
    vals = np.where(np.isfinite(vals) & (rng.random(n) < 0.8), vals, 0.0)
    vals[0] = 0.0
    return vals


@settings(max_examples=40, deadline=None)
@given(J=st.integers(1, 7), seed=st.integers(0, 10_000), center=st.floats(-150.0, 150.0),
       kind=st.sampled_from(["point_masses", "zero", "constant", "wide", "subnormal", "mixed"]),
       t=st.sampled_from([1.0, 1e6, 1e-6, 1e200]))
def test_profile_bounds_bracket_every_value(J, seed, center, kind, t):
    # lo <= V <= hi at every node for each functional that takes bounds, or
    # the node's range is (-inf, inf) and only its value decides it; a
    # weighted value out of the float range raises, and only there
    vals = _bound_cases(kind, J, seed, center)
    w = Weight(np.where(np.arange(1 << J) < (1 << J) // 2, 1.0, t))      # A_2 near t / 4
    dx = 2.0 ** -J
    functionals = [stopping._lp(J, p, dx) for p in (0.5, 1.0, 2.0)]
    functionals += [stopping._lp_w(J, r, w.values, w.heap, dx) for r in (0.25, 0.5)]
    functionals += [stopping._weak(J, dx)]
    for fn in functionals:
        rows = fn.bounds(vals)
        if rows is None:
            continue
        lo, hi = rows
        for node in range(1, 1 << J):
            d = node.bit_length() - 1
            undecided = lo[node] == -np.inf and hi[node] == np.inf
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    value = fn.values(vals, d, np.array([node - (1 << d)]))[0]
            except ValueError:
                assert undecided, node
                continue
            assert undecided or lo[node] <= value <= hi[node], (node, lo[node], value, hi[node])
