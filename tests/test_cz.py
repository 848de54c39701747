from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom.cz import cz_decompose, weak11_certify
from sparsedom.dyadic import (DyadicInterval, ROOT, Signal, average, cells_of,
                              lp_norm, weak_l1_quasinorm)
from sparsedom.generate import (SIGNAL_KINDS, generate_signal,
                                generate_sparse_collection)
from sparsedom.haar import HaarMultiplier, apply_multiplier
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
        report = weak11_certify(lambda x: apply_multiplier(T, x), f, seed=32)
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
# The integer heap and the per-depth scan against the references
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


    @pytest.mark.parametrize("cells", [
        [1e300, 1e-300, 5e-324, 0.0, 1.0, 2.0, 1e300, 3.0],
        [np.finfo(float).max, 0.0, 0.0, 0.0],
        [5e-324, 1e-310, 0.0, 5e-324],
        [1e-300] * 8,
    ])
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
        dec.bad_cubes = tuple(sorted(dec.bad_cubes + (Q.left(),)))
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
        with pytest.raises(KeyError):
            dec.bad_parts[Q.parent()]


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
