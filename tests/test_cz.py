import dataclasses
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom import campaign, cz, kernels
from sparsedom.cz import CZDecomposition, cz_decompose, weak11_certify
from sparsedom.dyadic import (DyadicInterval, ROOT, Signal, average, cells_of,
                              check_finite, lp_norm, weak_l1_quasinorm)
from sparsedom.generate import (SIGNAL_KINDS, generate_signal,
                                generate_sparse_collection)
from sparsedom.haar import (HaarMultiplier, haar_transform, inverse_haar_transform,
                            multiplied_coefficients)
from sparsedom.maximal import MaximalKind, maximal
from sparsedom.sparse import sparse_operator


# ---------------------------------------------------------------------------
# References: the Fraction-heap decomposition and the set-by-set weak (1,1)
# scan, kept verbatim from before the integer heap and the per-depth scan.
# ---------------------------------------------------------------------------

def _fraction_sums(values) -> list:
    """Heap of exact cell sums over every dyadic interval (Fractions)."""
    n = values.shape[0]
    heap = [Fraction(0)] * (2 * n)
    for i, v in enumerate(values):
        heap[n + i] = Fraction(float(v))
    for k in range(n - 1, 0, -1):
        heap[k] = heap[2 * k] + heap[2 * k + 1]
    return heap


@dataclass
class _ReferenceCZ:
    level_alpha: float
    good: Signal
    bad_cubes: tuple
    bad_parts: dict
    source_abs: Signal

    def verify(self) -> dict:
        """Exact rational verification of the decomposition invariants.

        The exact object has cube averages avg_Q = (exact cell sum) / m and
        bad parts |f| - avg_Q on each cube; the stored signals must render
        it (good is float(avg_Q) on the cubes and |f| outside bitwise), and
        all identities are checked as exact rational statements.
        """
        f = self.source_abs
        J = f.depth_J
        n = f.n_cells
        alpha = Fraction(float(self.level_alpha))
        sums = _fraction_sums(f.values)
        cells = [Fraction(float(v)) for v in f.values]
        root_is_bad = self.bad_cubes == (ROOT,) and sums[1] / n > alpha

        split_ok = cancel_ok = support_ok = disjoint_ok = True
        measure_ok = linf_ok = maximal_ok = True
        covered = np.zeros(n, dtype=bool)
        for Q in self.bad_cubes:
            lo, hi = Q.cell_range(J)
            if np.any(covered[lo:hi]):
                disjoint_ok = False
            covered[lo:hi] = True
            avg = sums[Q.node] / (hi - lo)
            # rendering: stored good is the rounded exact average
            if np.any(self.good.values[lo:hi] != float(avg)):
                split_ok = False
            stored = self.bad_parts[Q].values
            if np.any(stored[:lo] != 0.0) or np.any(stored[hi:] != 0.0):
                support_ok = False
            # exact cancellation of the exact bad part
            if sum(cells[lo:hi], Fraction(0)) - avg * (hi - lo) != 0:
                cancel_ok = False
            if not root_is_bad:
                if not avg > alpha:
                    maximal_ok = False
                parent_avg = sums[Q.parent().node] / (2 * (hi - lo))
                if parent_avg > alpha:
                    maximal_ok = False
                if avg > 2 * alpha:   # dyadic parent bound
                    linf_ok = False
        if np.any(self.good.values[~covered] != f.values[~covered]):
            split_ok = False
        if not root_is_bad and np.any(np.abs(f.values[~covered]) > float(alpha)):
            linf_ok = False        # uncovered cells sit under the level

        l1_exact = sums[1] / n
        if not root_is_bad:
            total = sum((Fraction(1, 1 << Q.depth) for Q in self.bad_cubes),
                        Fraction(0))
            measure_ok = total * alpha <= l1_exact
        good_l1 = sum((Fraction(float(v)) for v in self.good.values),
                      Fraction(0)) / n
        good_l1_ok = good_l1 <= l1_exact * (1 + Fraction(1, 10**9))
        return {
            "split_ok": bool(split_ok),
            "cancellation_ok": bool(cancel_ok),
            "support_ok": bool(support_ok),
            "cube_measure_ok": bool(measure_ok),
            "good_linf_ok": bool(linf_ok),
            "good_l1_ok": bool(good_l1_ok),
            "cubes_disjoint_ok": bool(disjoint_ok),
            "cubes_maximal_ok": bool(maximal_ok),
        }

    def ok(self) -> bool:
        return all(self.verify().values())


def _reference_cz_decompose(f: Signal, alpha: float) -> _ReferenceCZ:
    """Split |f| = good + sum of bad parts at level alpha.

    Bad cubes are the maximal dyadic intervals with average of |f| above
    alpha (equivalently, of the level set {M|f| > alpha}); the good part is
    |f| off their union and the cube average on each of them, so every bad
    part integrates to zero.  Averages are compared with alpha in exact
    rational arithmetic.  If alpha is at most the root average the root
    itself is the single bad cube.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    absf = Signal(np.abs(f.values))
    J = f.depth_J
    n = absf.n_cells
    alpha_x = Fraction(float(alpha))
    sums = _fraction_sums(absf.values)

    def avg_of(node, depth):
        return sums[node] / (1 << (J - depth))

    bad = []
    if avg_of(1, 0) > alpha_x:
        bad = [ROOT]
    else:
        stack = [ROOT]
        while stack:
            Q = stack.pop()
            if Q.depth == J:
                continue
            for P in (Q.left(), Q.right()):
                if avg_of(P.node, P.depth) > alpha_x:
                    bad.append(P)
                else:
                    stack.append(P)
    good = absf.values.copy()
    parts = {}
    for Q in bad:
        lo, hi = Q.cell_range(J)
        avg = avg_of(Q.node, Q.depth)
        b = np.zeros(n)
        b[lo:hi] = absf.values[lo:hi] - float(avg)
        good[lo:hi] = float(avg)
        parts[Q] = Signal(b)
    return _ReferenceCZ(alpha, Signal(good), tuple(sorted(bad)), parts, absf)


def _reference_weak11(op, f: Signal, K: float = 4.0, seed: int = 0,
                   n_random_sets: int = 16) -> dict:
    """Certify weak (1,1) behaviour of op at f via major subsets.

    op is a callable Signal -> Signal.  f is normalized in L^1.  For every
    test set E (all dyadic intervals plus seeded random cell unions) the
    major subset is E' = {x in E : M f(x) < K / |E|}; the report records
    whether 2|E'| >= |E| always held, the sup over E of the exact integral
    of |op f| on E' (an upper proxy for the weak quasinorm), the exact
    level-set quasinorm, and the per-level constants lambda |{|op f| >
    lambda}|.
    """
    if K <= 0:
        raise ValueError("K must be > 0")
    norm1 = lp_norm(f, 1.0)
    if norm1 == 0.0:
        return {"weak_quasinorm": 0.0, "proxy": 0.0, "majority_ok": True,
                "crosscheck_ok": True, "alpha_levels": [], "weak_constants": [],
                "worst_E": None, "K": K}
    fn = Signal(f.values / norm1)
    J = fn.depth_J
    n = fn.n_cells
    mf = maximal(fn, MaximalKind.hl()).values
    tf = np.abs(op(fn).values)
    dx = fn.cell_width

    test_sets = [(f"dyadic d={d} i={i}", cells_of(fn, DyadicInterval(d, i)))
                 for d in range(J + 1) for i in range(1 << d)]
    rng = np.random.default_rng(seed)
    for t in range(n_random_sets):
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        if mask.any():
            test_sets.append((f"random #{t}", mask))

    proxy = 0.0
    worst = None
    majority_ok = True
    for name, mask in test_sets:
        measure_e = mask.sum() * dx
        eprime = mask & (mf < K / measure_e)
        if 2.0 * eprime.sum() * dx < measure_e:
            majority_ok = False
        val = float(np.sum(tf[eprime]) * dx)
        if val > proxy:
            proxy, worst = val, name

    levels = np.unique(tf[tf > 0])
    srt = np.sort(tf)
    n_ge = tf.size - np.searchsorted(srt, levels, side="left")
    weak_constants = [float(lam * k * dx) for lam, k in zip(levels, n_ge)]
    quasinorm = weak_l1_quasinorm(Signal(tf))
    return {
        "weak_quasinorm": quasinorm,
        "proxy": proxy,
        "majority_ok": majority_ok,
        "crosscheck_ok": bool(quasinorm <= 2.0 * proxy * (1.0 + 1e-9)) if proxy > 0 else quasinorm == 0.0,
        "alpha_levels": [float(x) for x in levels],
        "weak_constants": weak_constants,
        "worst_E": worst,
        "K": K,
    }


# ---------------------------------------------------------------------------
# The integer reference: the Python-int cz_decompose and verify, kept verbatim
# from before the double-double heap (``self`` of verify is any
# CZDecomposition, so tampered ones can be checked too).
# ---------------------------------------------------------------------------

def _exact_ints(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints c (an object array) and one exponent e with
    values[i] == c[i] * 2**e exactly."""
    mant, expo = np.frexp(values)
    mant = (mant * 2.0 ** 53).astype(np.int64)     # |mant| < 2**53: exact
    expo = expo.astype(np.int64) - 53
    nonzero = mant != 0
    e = int(expo[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, expo - e, 0)
    return mant.astype(object) << shift.astype(object), e


def _cuts(num: int, den: int, J: int, e: int) -> np.ndarray:
    """For d = 0 .. J, the largest integer sum, in units of 2**e, whose
    average over a depth-d interval is <= num/den: a node's average exceeds
    alpha = num/den iff its exact sum exceeds its depth's cut."""
    cuts = []
    for d in range(J + 1):
        x = num << (J - d)
        cuts.append((x << -e) // den if e <= 0 else x // (den << e))
    return np.array(cuts, dtype=object)


def _averages(sums: np.ndarray, depth: np.ndarray, J: int, e: int) -> np.ndarray:
    """float(sum * 2**e / 2**(J-d)) of integer node sums, correctly rounded
    (int true division rounds correctly)."""
    out = [float(s << k) if k >= 0 else s / (1 << -k)
           for s, k in zip(sums, (e - J + depth).tolist())]
    return np.array(out, dtype=np.float64)


def _align(x: int, ex: int, y: int, ey: int) -> tuple[int, int]:
    """x * 2**ex and y * 2**ey as integers in the units of the smaller one."""
    e = min(ex, ey)
    return x << (ex - e), y << (ey - e)


def _cube_cells(lo: np.ndarray, size: np.ndarray) -> tuple:
    """The cells of every cube, cube by cube, the cube owning each and the
    position where each cube's cells start."""
    owner = np.repeat(np.arange(lo.size), size)
    start = np.cumsum(size) - size
    return np.arange(int(size.sum())) + np.repeat(lo - start, size), owner, start


def _integer_verify(self) -> dict:
    """Exact verification of the decomposition invariants.

    The exact object has cube averages avg_Q = (exact cell sum) / m and
    bad parts |f| - avg_Q on each cube.  The stored signals must render
    it: good is float(avg_Q) on the cubes and |f| outside bitwise, the
    bad vector vanishes off the cubes, and on each cube the stored bad
    values b_i satisfy the rendering bound
    |sum b_i| <= m |avg_Q - float(avg_Q)| + sum ulp(b_i) / 2.  Level
    decisions, measures and L^1 sums are exact integer statements.
    """
    f = self.source_abs.values
    J, n = self.source_abs.depth_J, self.source_abs.n_cells
    alpha = float(self.level_alpha)
    num, den = alpha.as_integer_ratio()
    good, bad = self.good.values, self.bad
    depth = np.array([Q.depth for Q in self.bad_cubes], dtype=np.int64)
    lo = np.array([Q.cell_range(J)[0] for Q in self.bad_cubes], dtype=np.int64)
    size = np.left_shift(1, J - depth)
    hi = lo + size

    ints, ev = _exact_ints(f)
    prefix = np.cumsum(np.concatenate(([0], ints)))
    cut = _cuts(num, den, J, ev)
    root_is_bad = self.bad_cubes == (ROOT,) and prefix[n] > cut[0]

    cover = np.cumsum(np.bincount(lo, minlength=n + 1)
                      - np.bincount(hi, minlength=n + 1))[:n]
    covered = cover > 0
    disjoint_ok = not np.any(cover > 1)
    cells, owner, start = _cube_cells(lo, size)

    sums = prefix[hi] - prefix[lo]
    favg = _averages(sums, depth, J, ev)
    split_ok = bool(np.all(good[cells] == favg[owner])
                    and np.all(good[~covered] == f[~covered]))
    support_ok = not np.any(bad[~covered] != 0.0)

    # rendering bound, doubled: 2|sum b| <= 2|m avg - m float(avg)| + sum ulp
    b = bad[cells]
    ulp = np.where(b == 0.0, 0.0, np.abs(np.spacing(b)))
    rend, er = _exact_ints(np.concatenate([b, ulp, favg]))
    L = b.size
    end = start + size
    bpre = np.cumsum(np.concatenate(([0], rend[:L])))
    upre = np.cumsum(np.concatenate(([0], rend[L:2 * L])))
    e0 = min(ev, er)
    m = size.astype(object)
    err = np.abs((sums << (ev - e0)) - ((m * rend[2 * L:]) << (er - e0)))
    lhs = (2 * np.abs(bpre[end] - bpre[start])) << (er - e0)
    cancel_ok = not np.any(lhs > 2 * err + ((upre[end] - upre[start]) << (er - e0)))

    maximal_ok = linf_ok = measure_ok = True
    if not root_is_bad:
        if np.any(depth == 0):
            maximal_ok = False
        else:
            plo = lo & ~(2 * size - 1)
            maximal_ok = bool(np.all(sums > cut[depth]) and np.all(
                prefix[plo + 2 * size] - prefix[plo] <= cut[depth - 1]))
        # dyadic parent bound: avg_Q <= 2 alpha
        if np.any(sums > _cuts(2 * num, den, J, ev)[depth]):
            linf_ok = False
        if np.any(np.abs(f[~covered]) > alpha):
            linf_ok = False        # uncovered cells sit under the level
        # sum |Q| alpha <= ||f||_1, times n
        lhs, rhs = _align(int(size.sum()) * num, 0, prefix[n] * den, ev)
        measure_ok = lhs <= rhs
    gints, eg = _exact_ints(good)
    lhs, rhs = _align(np.sum(gints) * 10**9, eg, prefix[n] * (10**9 + 1), ev)
    good_l1_ok = lhs <= rhs
    return {
        "split_ok": bool(split_ok),
        "cancellation_ok": bool(cancel_ok),
        "support_ok": bool(support_ok),
        "cube_measure_ok": bool(measure_ok),
        "good_linf_ok": bool(linf_ok),
        "good_l1_ok": bool(good_l1_ok),
        "cubes_disjoint_ok": bool(disjoint_ok),
        "cubes_maximal_ok": bool(maximal_ok),
    }


def _integer_cz_decompose(f: Signal, alpha: float) -> CZDecomposition:
    """Split |f| = good + sum of bad parts at level alpha.

    Bad cubes are the maximal dyadic intervals with average of |f| above
    alpha (equivalently, of the level set {M|f| > alpha}); the good part is
    |f| off their union and the cube average on each of them, so every bad
    part integrates to zero.  Averages are compared with alpha exactly, on
    an integer heap of the cell sums.  If alpha is at most the root average
    the root itself is the single bad cube.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be finite and > 0")
    check_finite(f)
    absf = Signal(np.abs(f.values))
    J = f.depth_J
    num, den = float(alpha).as_integer_ratio()
    ints, e = _exact_ints(absf.values)
    levels = [ints]                     # levels[k]: the 2**(J-k) sums at depth J-k
    for _ in range(J):
        levels.append(levels[-1][0::2] + levels[-1][1::2])
    levels.reverse()
    cut = _cuts(num, den, J, e)

    # maximal nodes above the level, depth by depth under the nodes not yet bad
    hits = [np.zeros(0, dtype=np.int64)] * (J + 1)
    if levels[0][0] > cut[0]:
        hits[0] = np.zeros(1, dtype=np.int64)
    else:
        alive = np.zeros(1, dtype=np.int64)
        for d in range(1, J + 1):
            alive = np.repeat(2 * alive, 2)
            alive[1::2] += 1
            above = levels[d][alive] > cut[d]
            hits[d], alive = alive[above], alive[~above]
    depth = np.repeat(np.arange(J + 1), [h.size for h in hits])
    index = np.concatenate(hits)
    sums = np.concatenate([levels[d][h] for d, h in enumerate(hits)])
    favg = _averages(sums, depth, J, e)
    size = np.left_shift(1, J - depth)
    lo = index * size
    cells, owner, _ = _cube_cells(lo, size)
    good = absf.values.copy()
    bad = np.zeros(absf.n_cells)
    good[cells] = favg[owner]
    bad[cells] = absf.values[cells] - favg[owner]
    return CZDecomposition(alpha, Signal(good), index + np.left_shift(1, depth), bad, absf)


def I(d, i):
    return DyadicInterval(d, i)


class TestCZDecompose:
    def test_quarter_spike_example(self):
        # f = 4 on [0, 1/4): at level 2 the parent [0, 1/2) has average
        # exactly 2, so the bad cube is [0, 1/4) and its bad part vanishes
        vals = np.zeros(8)
        vals[:2] = 4.0
        dec = cz_decompose(Signal(vals), 2.0)
        assert dec.bad_cubes == (I(2, 0),)
        assert np.allclose(dec.good.values[:2], 4.0)
        assert np.all(dec.good.values[2:] == 0.0)
        assert np.all(dec.bad_parts[I(2, 0)].values == 0.0)
        assert dec.ok()

    def test_constant_below_level(self):
        dec = cz_decompose(Signal(np.full(8, 1.0)), 2.0)
        assert dec.bad_cubes == ()
        assert np.all(dec.good.values == 1.0)
        assert dec.ok()

    def test_level_below_root_average(self):
        dec = cz_decompose(Signal(np.full(8, 3.0)), 1.0)
        assert dec.bad_cubes == (ROOT,)
        assert np.all(dec.good.values == 3.0)
        assert dec.ok()

    def test_invariants_random_campaign(self):
        rng = np.random.default_rng(0)
        for seed in range(25):
            f = generate_signal("gaussian_noise", 7, seed=seed)
            alpha = float(rng.uniform(0.6, 3.0)) * lp_norm(f, 1.0)
            dec = cz_decompose(f, alpha)
            checks = dec.verify()
            assert all(checks.values()), checks

    def test_bad_cubes_are_maximal_level_set(self):
        f = generate_signal("gaussian_noise", 6, seed=99)
        alpha = 1.2 * lp_norm(f, 1.0)
        dec = cz_decompose(f, alpha)
        absf = dec.source_abs
        for Q in dec.bad_cubes:
            assert average(absf, Q) > alpha
            if Q.depth > 0:
                assert average(absf, Q.parent()) <= alpha

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            cz_decompose(Signal(np.ones(8)), 0.0)

    def test_annihilation_identity(self):
        # for h supported off the bad cubes, every sparse sum restricted to a
        # bad cube vanishes identically
        f = generate_signal("gaussian_noise", 7, seed=5)
        alpha = 1.5 * lp_norm(f, 1.0)
        dec = cz_decompose(f, alpha)
        if not dec.bad_cubes:
            pytest.skip("no bad cubes at this level")
        S = generate_sparse_collection(7, seed=6)
        n = f.n_cells
        bad_mask = np.zeros(n, dtype=bool)
        for Q in dec.bad_cubes:
            lo, hi = Q.cell_range(7)
            bad_mask[lo:hi] = True
        h = np.where(~bad_mask, 1.0, 0.0)  # |h| <= 1 supported off the cubes
        hs = Signal(h)
        for Qi, b in dec.bad_parts.items():
            total = 0.0
            for Q in S:
                if Qi.contains(Q):
                    total += average(b, Q) * average(hs, Q) * Q.length
            assert total == 0.0


class TestWeak11Certify:
    def test_identity_operator(self):
        f = generate_signal("gaussian_noise", 6, seed=7)
        report = weak11_certify(lambda x: x, f)
        assert report["majority_ok"]
        assert report["crosscheck_ok"]
        assert report["weak_quasinorm"] <= 1.0 + 1e-9  # normalized L1 mass

    def test_sparse_operator_constant_recorded(self):
        for seed in range(10):
            f = generate_signal("gaussian_noise", 7, seed=seed + 10)
            S = generate_sparse_collection(7, seed=seed + 20)
            report = weak11_certify(lambda x: sparse_operator(S, x), f,
                                    seed=seed)
            assert report["majority_ok"]
            assert report["crosscheck_ok"]
            # normalized input: the quasinorm is the weak (1,1) constant
            assert report["weak_quasinorm"] < 8.0

    def test_haar_multiplier_adjoint(self):
        # multipliers are self-adjoint; certify the adjoint route directly
        rng = np.random.default_rng(30)
        fam = {I(d, i): float(rng.uniform(-1, 1)) for d in range(6)
               for i in range(1 << d) if rng.random() < 0.5}
        T = HaarMultiplier.from_dict(fam)
        f = generate_signal("gaussian_noise", 6, seed=31)
        report = weak11_certify(
            lambda x: inverse_haar_transform(multiplied_coefficients(T, haar_transform(x))),
            f, seed=32)
        assert report["majority_ok"]
        assert report["crosscheck_ok"]

    def test_zero_signal(self):
        report = weak11_certify(lambda x: x, Signal(np.zeros(16)), K=3.0)
        assert report["weak_quasinorm"] == 0.0
        assert report["crosscheck_ok"] and report["majority_ok"]
        assert report["K"] == 3.0

    def test_weak_constants_are_level_scan(self):
        f = generate_signal("gaussian_noise", 5, seed=33)
        S = generate_sparse_collection(5, seed=34)
        report = weak11_certify(lambda x: sparse_operator(S, x), f, seed=35)
        assert report["weak_quasinorm"] == pytest.approx(
            max(report["weak_constants"]), rel=1e-12)


# ---------------------------------------------------------------------------
# The decomposition and the per-depth scan against the references
# ---------------------------------------------------------------------------

@st.composite
def hard_signals(draw, max_J=10):
    """Every generator kind plus zero, constant, small-integer (exactly
    representable averages) and one-cell signals, optionally spread over
    the dynamic range 1e-150 .. 1e150 and with random signs.  Cell values
    stay within 1e-300 .. 1e300, so every one is finite."""
    J = draw(st.integers(1, max_J))
    n = 1 << J
    kind = draw(st.sampled_from(SIGNAL_KINDS + ("zero", "constant", "integers",
                                                "one_cell")))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if kind in SIGNAL_KINDS:
        vals = generate_signal(kind, J, seed=seed, k=draw(st.integers(1, 4))).values
    elif kind == "zero":
        vals = np.zeros(n)
    elif kind == "constant":
        vals = np.full(n, draw(st.sampled_from([1.0, 0.1, 3.0, 1e-150, 1e150])))
    elif kind == "integers":
        vals = rng.integers(0, 9, n).astype(float)
    else:
        vals = np.zeros(n)
        vals[rng.integers(n)] = draw(st.sampled_from([1.0, float(n), 1e-150, 1e150]))
    if draw(st.booleans()):
        vals = vals * 10.0 ** rng.uniform(-150.0, 150.0, n)
    if draw(st.booleans()):
        vals = vals * rng.choice([-1.0, 1.0], n)
    return Signal(vals)


def _node_average(f: Signal, node: int) -> float:
    """float of the exact average of |f| on a heap node."""
    sums = _fraction_sums(np.abs(f.values))
    return float(sums[node] / (f.n_cells >> (node.bit_length() - 1)))


def _same_floats(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


EXTREME_CELLS = [
    [1e300, 1e-300, 5e-324, 0.0, 1.0, 2.0, 1e300, 3.0],
    [np.finfo(float).max, 0.0, 0.0, 0.0],
    [5e-324, 1e-310, 0.0, 5e-324],
    [1e-300] * 8,
]


class TestCZMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(f=hard_signals(), level=st.one_of(
        st.tuples(st.just("scale"), st.floats(0.05, 4.0)),
        st.tuples(st.just("node"), st.integers(1, 1 << 30))))
    @example(f=Signal(np.array([4.0, 4.0, 0, 0, 0, 0, 0, 0])), level=("node", 2))
    def test_decomposition_and_checks(self, f, level):
        how, x = level
        if how == "node":      # alpha exactly on a cube average: the > tie
            alpha = _node_average(f, x % (2 * f.n_cells - 1) + 1)
        else:
            alpha = x * lp_norm(f, 1.0)
        if not 0.0 < alpha < np.inf:
            alpha = 1.0
        dec, ref = cz_decompose(f, alpha), _reference_cz_decompose(f, alpha)
        assert dec.bad_cubes == ref.bad_cubes
        assert _same_floats(dec.good.values, ref.good.values)
        assert _same_floats(dec.source_abs.values, ref.source_abs.values)
        assert set(dec.bad_parts) == set(ref.bad_parts)
        for Q, part in ref.bad_parts.items():
            assert _same_floats(dec.bad_parts[Q].values, part.values)
        checks = dec.verify()
        assert checks == ref.verify()
        assert all(checks.values()), checks


    @pytest.mark.parametrize("cells", EXTREME_CELLS)
    def test_extreme_cells(self, cells):
        f = Signal(np.array(cells))
        for alpha in (1e-320, 1e-300, 1.0, 1e299, float(np.mean(cells))):
            if not 0.0 < alpha < np.inf:
                continue
            dec, ref = cz_decompose(f, alpha), _reference_cz_decompose(f, alpha)
            assert dec.bad_cubes == ref.bad_cubes
            assert _same_floats(dec.good.values, ref.good.values)
            for Q, part in ref.bad_parts.items():
                assert _same_floats(dec.bad_parts[Q].values, part.values)
            assert dec.verify() == ref.verify()


DBL_MAX = float(np.finfo(float).max)
CZ_KINDS = SIGNAL_KINDS + ("zero", "constant", "integers", "point_mass",
                          "subnormal", "dbl_max")
CZ_LEVELS = ("scale", "tie", "below_tie", "above_tie", "overflow_edge")


def _exact_average(vals, node: int) -> Fraction:
    """The exact average of |vals| on a heap node."""
    d = node.bit_length() - 1
    m = vals.size >> d
    i = node - (1 << d)
    return sum(map(Fraction, np.abs(vals[i * m:(i + 1) * m]).tolist()), Fraction(0)) / m


def _hard_case(seed: int, J: int, kind: str, level: str):
    """A hard input and a level at or next to a tie.

    Signals: every generator kind plus zero, constant, small-integer (exact
    averages), point-mass, subnormal and DBL_MAX-sized cells, optionally
    spread over the dynamic range 1e-150 .. 1e150 and with random signs.
    Levels: a scale of the root average, a node's exact average rounded to
    float (an exact tie where it is representable) and its two neighbours,
    or alpha with alpha * 2**(J-d) at DBL_MAX or just past it.
    """
    rng = np.random.default_rng(seed)
    n = 1 << J
    if kind in SIGNAL_KINDS:
        vals = generate_signal(kind, J, seed=seed, k=1 + seed % 4).values
    elif kind == "zero":
        vals = np.zeros(n)
    elif kind == "constant":
        vals = np.full(n, rng.choice([1.0, 0.1, 3.0, 1e-150, 1e150, 5e-324, DBL_MAX]))
    elif kind == "integers":
        vals = rng.integers(0, 9, n).astype(float)
    elif kind == "point_mass":
        vals = np.zeros(n)
        vals[rng.integers(n)] = rng.choice([1.0, float(n), 1e-150, 1e150, 5e-324, DBL_MAX])
    elif kind == "subnormal":
        vals = rng.integers(0, 1 << 20, n) * 5e-324
    else:
        vals = np.where(rng.random(n) < 0.5, rng.random(n) * DBL_MAX, 0.0)
        vals[rng.integers(n)] = DBL_MAX
    if rng.random() < 0.3 and np.all(np.abs(vals) <= 1e150):
        vals = vals * 10.0 ** rng.uniform(-150.0, 150.0, n)
    if rng.random() < 0.5:
        vals = vals * rng.choice([-1.0, 1.0], n)
    node = int(rng.integers(1, 2 * n))
    with np.errstate(over="ignore"):          # nextafter(DBL_MAX, inf) is inf
        alpha = _level(rng, vals, J, node, level)
    return Signal(vals), alpha if 0.0 < alpha < np.inf else 1.0


def _level(rng, vals, J, node, level) -> float:
    if level == "scale":
        alpha = float(rng.uniform(0.05, 4.0) * _exact_average(vals, 1))
    elif level == "overflow_edge":
        k = J - (node.bit_length() - 1) + int(rng.integers(2))
        edge = np.ldexp(DBL_MAX, -k)          # alpha * 2**k == DBL_MAX
        alpha = float(rng.choice([edge, np.nextafter(edge, np.inf)]))
    else:
        alpha = float(_exact_average(vals, node))
        if level != "tie":
            alpha = float(np.nextafter(alpha, 0.0 if level == "below_tie" else np.inf))
    return alpha


def _assert_matches_integer_reference(f, alpha):
    """Bit-for-bit equality with the integer reference, and no float warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = cz_decompose(f, alpha)
        checks = dec.verify()
    ref = _integer_cz_decompose(f, alpha)
    assert np.array_equal(dec.nodes, ref.nodes)
    assert dec.bad_cubes == ref.bad_cubes
    assert _same_floats(dec.good.values, ref.good.values)
    assert _same_floats(dec.bad, ref.bad)
    assert checks == _integer_verify(ref)
    return dec


def _count_exact_path(monkeypatch) -> dict:
    """Count the nodes sent to the exact path and the nodes the filters were
    asked to decide (level tests and cube averages)."""
    counts = {"exact": 0, "decided": 0}
    exact_sums = cz._exact_sums

    def counted(values, nodes, J):
        counts["exact"] += len(nodes)
        return exact_sums(values, nodes, J)

    monkeypatch.setattr(cz, "_exact_sums", counted)
    for name in ("exceeds", "averages"):
        def decided(self, nodes, *args, _method=getattr(cz._Sums, name)):
            counts["decided"] += len(nodes)
            return _method(self, nodes, *args)
        monkeypatch.setattr(cz._Sums, name, decided)
    return counts


class TestCZMatchesIntegerReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(1, 8),
           kind=st.sampled_from(CZ_KINDS), level=st.sampled_from(CZ_LEVELS))
    @example(seed=0, J=3, kind="dbl_max", level="overflow_edge")
    @example(seed=1, J=4, kind="integers", level="tie")
    @example(seed=2, J=5, kind="subnormal", level="tie")
    def test_hard_inputs_and_near_ties(self, seed, J, kind, level):
        _assert_matches_integer_reference(*_hard_case(seed, J, kind, level))

    @pytest.mark.parametrize("cells", EXTREME_CELLS)
    def test_extreme_cells(self, cells):
        f = Signal(np.array(cells))
        for alpha in (1e-320, 1e-300, 1.0, 1e299, float(np.mean(cells)), DBL_MAX):
            _assert_matches_integer_reference(f, alpha)

    def test_level_between_float_and_exact_sum(self):
        # a float level strictly between a node's pairwise float average and
        # its exact average: hi alone would decide the node the wrong way
        f = generate_signal("gaussian_noise", 8, seed=0)
        vals = np.abs(f.values)
        hi, exact_sums = kernels.interval_sums(vals), _fraction_sums(vals)
        for node in range(1, 256):
            m = 256 >> (node.bit_length() - 1)
            low, high = sorted([Fraction(hi[node]), exact_sums[node]])
            alpha = float((low + high) / (2 * m))
            if low < Fraction(alpha) * m < high:
                break
        else:
            pytest.fail("no level between a float and an exact sum")
        i = node - (1 << (node.bit_length() - 1))
        # the node's own cells: their root decides whether the root is a cube
        _assert_matches_integer_reference(Signal(vals[i * m:(i + 1) * m]), alpha)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.5, 1.2, 2.0])
    def test_pinned_deep_gaussian(self, seed, scale):
        f = generate_signal("gaussian_noise", 14, seed=seed)
        dec = _assert_matches_integer_reference(f, scale * lp_norm(f, 1.0))
        assert dec.bad_cubes


class TestExactPathShare:
    def test_hard_inputs_and_near_ties(self, monkeypatch):
        counts = _count_exact_path(monkeypatch)
        for seed in range(240):
            kind, level = CZ_KINDS[seed % len(CZ_KINDS)], CZ_LEVELS[seed % len(CZ_LEVELS)]
            f, alpha = _hard_case(seed, 1 + seed % 10, kind, level)
            cz_decompose(f, alpha).verify()
        assert counts["exact"] <= 0.10 * counts["decided"], counts

    def test_gaussian_takes_no_exact_path(self, monkeypatch):
        counts = _count_exact_path(monkeypatch)
        for seed in (1, 2, 3):
            f = generate_signal("gaussian_noise", 14, seed=seed)
            for scale in (0.5, 1.2, 2.0):
                cz_decompose(f, scale * lp_norm(f, 1.0)).verify()
        assert counts["decided"] > 0 and counts["exact"] == 0, counts


class TestWeak11MatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(f=hard_signals(), K=st.sampled_from([0.5, 4.0, 1.0, 2.5]),
           seed=st.integers(0, 10_000), identity=st.booleans())
    def test_report(self, f, K, seed, identity):
        if identity:
            op = lambda x: x                                        # noqa: E731
        else:
            S = generate_sparse_collection(f.depth_J, seed=seed)
            op = lambda x: sparse_operator(S, x)                    # noqa: E731
        got = weak11_certify(op, f, K=K, seed=seed)
        want = _reference_weak11(op, f, K=K, seed=seed)
        assert list(got) == list(want)
        for key in want:       # repr: bitwise floats, same types
            assert repr(got[key]) == repr(want[key]), key

    @pytest.mark.parametrize("kind", SIGNAL_KINDS)
    @pytest.mark.parametrize("J", [8, 10])
    @pytest.mark.parametrize("K", [0.5, 4.0])
    def test_pinned_sparse_operator(self, kind, J, K):
        f = generate_signal(kind, J, seed=J + 1, k=3)
        S = generate_sparse_collection(J, seed=J + 2)
        op = lambda x: sparse_operator(S, x)                        # noqa: E731
        got, want = (fn(op, f, K=K, seed=3) for fn in (weak11_certify, _reference_weak11))
        for key in want:
            assert repr(got[key]) == repr(want[key]), key


class TestNodeArray:
    """A decomposition is its sorted node array: decomposing, verifying and
    the bad-part view build no interval; ``bad_cubes`` builds one per cube,
    once."""

    def test_intervals_only_on_bad_cubes_read(self, monkeypatch):
        built = []
        post_init = DyadicInterval.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        f = generate_signal("gaussian_noise", 10, seed=3)
        cfg = campaign.CampaignConfig(depth_J=10, trials=1, seed=7, modes=("cz",))
        monkeypatch.setattr(DyadicInterval, "__post_init__", counted)
        dec = cz_decompose(f, 1.2 * lp_norm(f, 1.0))
        assert all(dec.verify().values()) and len(dec.bad_parts) == dec.nodes.size > 1
        assert campaign._run_one(cfg, "cz", 0)["hard_ok"]
        assert not built
        Q = DyadicInterval.from_node(int(dec.nodes[0]))
        lo, hi = Q.cell_range(10)
        built.clear()
        assert np.array_equal(dec.bad_parts[Q].values[lo:hi], dec.bad[lo:hi]) and not built
        cubes = dec.bad_cubes
        assert len(built) == dec.nodes.size
        assert dec.bad_cubes is cubes and len(built) == dec.nodes.size
        assert [Q.node for Q in cubes] == dec.nodes.tolist()
        assert np.all(np.diff(dec.nodes) > 0) and not dec.nodes.flags.writeable


class TestVerifyChecksFail:
    """Each check flips on a decomposition tampered in its own way."""

    def _dec(self):
        f = generate_signal("gaussian_noise", 7, seed=5)
        dec = cz_decompose(f, 1.5 * lp_norm(f, 1.0))
        assert dec.bad_cubes and all(dec.verify().values())
        lo, hi = dec.bad_cubes[0].cell_range(7)
        covered = np.zeros(128, dtype=bool)
        for Q in dec.bad_cubes:
            a, b = Q.cell_range(7)
            covered[a:b] = True
        return dec, lo, hi, int(np.flatnonzero(~covered)[0])

    def test_tampered_bad_value_fails_cancellation(self):
        dec, lo, _, _ = self._dec()
        dec.bad[lo] += 1e-6 * abs(dec.good.values[lo])
        assert not dec.verify()["cancellation_ok"]

    def test_one_ulp_moved_between_cells_passes(self):
        # the bound allows each stored value its own rounding error
        dec, lo, hi, _ = self._dec()
        if hi - lo < 2:
            pytest.skip("one-cell cube")
        dec.bad[lo] = np.nextafter(dec.bad[lo], np.inf)
        dec.bad[lo + 1] = np.nextafter(dec.bad[lo + 1], -np.inf)
        assert dec.verify()["cancellation_ok"]

    def test_bad_value_off_the_cubes_fails_support(self):
        dec, _, _, free = self._dec()
        dec.bad[free] = 1e-300
        checks = dec.verify()
        assert not checks["support_ok"]
        assert checks["cancellation_ok"]

    @pytest.mark.parametrize("where", ["cube", "free"])
    def test_changed_good_cell_fails_split(self, where):
        dec, lo, _, free = self._dec()
        c = lo if where == "cube" else free
        dec.good.values[c] = np.nextafter(dec.good.values[c], np.inf)
        assert not dec.verify()["split_ok"]

    def test_overlapping_cubes_fail_disjointness(self):
        dec, _, _, _ = self._dec()
        Q = dec.bad_cubes[0]
        dec = dataclasses.replace(dec, nodes=np.sort(np.append(dec.nodes, Q.left().node)))
        checks = dec.verify()
        assert not checks["cubes_disjoint_ok"]
        assert not checks["cubes_maximal_ok"]

    def test_bad_parts_view(self):
        dec, lo, hi, free = self._dec()
        Q = dec.bad_cubes[0]
        part = dec.bad_parts[Q].values
        assert np.array_equal(part[lo:hi], dec.bad[lo:hi])
        assert not np.any(part[:lo]) and not np.any(part[hi:])
        assert len(dec.bad_parts) == len(dec.bad_cubes)
        assert Q.parent() not in dec.bad_parts
        for key in (Q.parent(), Q.node, (Q.depth, Q.index)):
            assert key not in dec.bad_parts
            with pytest.raises(KeyError):
                dec.bad_parts[key]
        # a tampered, out-of-order node array is iterated as given and
        # still resolves
        dec = dataclasses.replace(dec, nodes=dec.nodes[::-1])
        assert len(dec.bad_cubes) > 1 and list(dec.bad_parts) == list(dec.bad_cubes)
        assert np.array_equal(dec.bad_parts[Q].values, part)

    # Eight cells whose exact sum is a float-grid midpoint, and eight whose
    # exact sum is a float, each with an inexact double-double tail at the root.
    MIDPOINT_CELLS = [0.0, 1.1965918816673574e-18, 1.6536201122945418e-15, 0.3140869140625,
                      4.330032426363983e-18, 1.167113546298665e-31, 0.0,
                      1.4496567841330613e-16]
    TIE_CELLS = [5.40274352567539, 3.2950855737364575e-15, 9.182659960105103e-14,
                 5.242595600221769e-23, 2.455346957857364e-12, 1.3619480607892565e-16,
                 4.191982785273274e-08, 0.05548095703125]

    @pytest.mark.parametrize("inexact", [False, True])
    def test_good_cell_on_a_midpoint_cube_fails_split(self, inexact, monkeypatch):
        # the exact node takes the filter's certain branch, the inexact one
        # the exact path
        vals = np.array(self.MIDPOINT_CELLS if inexact else [1.0, 2.0 ** -53])
        avg = _exact_average(vals, 1)
        rounded = float(avg)
        other = float(np.nextafter(rounded, np.inf if Fraction(rounded) < avg else -np.inf))
        assert Fraction(rounded) + Fraction(other) == 2 * avg     # a midpoint
        assert kernels.dd_interval_sums(vals)[2][1] != inexact
        dec = cz_decompose(Signal(vals), rounded / 2)
        assert dec.bad_cubes == (ROOT,) and dec.good.values[0] == rounded
        counts = _count_exact_path(monkeypatch)
        dec.good.values[0] = other
        checks = dec.verify()
        assert not checks["split_ok"]
        assert checks == _integer_verify(dec)
        assert (counts["exact"] > 0) == inexact

    @pytest.mark.parametrize("parent", ["below_level", "exact_tie", "inexact_tie"])
    def test_cube_replaced_by_its_parent_fails_maximal(self, parent, monkeypatch):
        if parent == "below_level":
            dec = self._dec()[0]
        else:
            left = [4.0, 0.0, 0.0, 0.0] if parent == "exact_tie" else self.TIE_CELLS
            vals = np.zeros(2 * len(left))
            vals[:len(left)] = left
            assert kernels.dd_interval_sums(vals)[2][2] == (parent == "exact_tie")
            dec = cz_decompose(Signal(vals), float(_exact_average(vals, 2)))
        Q = next(Q for Q in dec.bad_cubes if Q.depth > 1)
        counts = _count_exact_path(monkeypatch)
        dec = dataclasses.replace(dec, nodes=np.unique(
            np.append(dec.nodes[dec.nodes != Q.node], Q.parent().node)))
        checks = dec.verify()
        assert not checks["cubes_maximal_ok"]
        assert checks == _integer_verify(dec)
        assert (counts["exact"] > 0) == (parent == "inexact_tie")

    def test_one_ulp_move_in_a_two_cell_cube_matches_reference(self, monkeypatch):
        # some moves land exactly on the bound: those take the exact path
        counts = _count_exact_path(monkeypatch)
        verdicts, moves = set(), 0
        for seed in range(4):
            f = generate_signal("gaussian_noise", 7, seed=seed)
            dec = cz_decompose(f, 1.5 * lp_norm(f, 1.0))
            for Q in dec.bad_cubes:
                if Q.depth != 6:
                    continue
                lo = Q.cell_range(7)[0]
                kept = dec.bad[lo]
                for to in (np.inf, -np.inf):
                    dec.bad[lo] = np.nextafter(kept, to)
                    ok = dec.verify()["cancellation_ok"]
                    assert ok == _integer_verify(dec)["cancellation_ok"]
                    verdicts.add(ok)
                    moves += 1
                dec.bad[lo] = kept
        assert verdicts == {True, False}
        assert 0 < counts["exact"] < moves


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejected(self, bad):
        vals = np.ones(8)
        vals[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cz_decompose(Signal(vals), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            weak11_certify(lambda x: x, Signal(vals))

    def test_overflowing_norm_rejected(self):
        # f / ||f||_1 would be all zeros and certify a weak quasinorm of 0
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            weak11_certify(lambda x: x, Signal(np.full(8, 1e308)))

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -1.0])
    def test_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            cz_decompose(Signal(np.ones(8)), alpha)
