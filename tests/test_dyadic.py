import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom.dyadic import (DyadicInterval, NodeMap, ROOT, Signal, average, chi_weights,
                              lp_norm, oscillation, weak_l1_quasinorm)
from sparsedom.exact import exact_average, exact_oscillation, exact_weak_l1


def I(d, i):
    return DyadicInterval(d, i)


def indicator(lo, hi, J):
    vals = np.zeros(1 << J)
    vals[lo:hi] = 1.0
    return Signal(vals)


class TestInterval:
    def test_geometry(self):
        q = I(2, 3)
        assert q.start == 0.75 and q.end == 1.0 and q.length == 0.25
        assert q.parent() == I(1, 1)
        assert I(1, 1).left() == I(2, 2) and I(1, 1).right() == I(2, 3)

    def test_nested_or_disjoint(self):
        ivs = [I(d, i) for d in range(4) for i in range(1 << d)]
        for a in ivs:
            for b in ivs:
                nested = a.contains(b) or b.contains(a)
                disjoint = a.end <= b.start or b.end <= a.start
                assert nested != disjoint

    def test_validation(self):
        with pytest.raises(ValueError):
            I(1, 2)
        with pytest.raises(ValueError):
            I(-1, 0)
        with pytest.raises(ValueError):
            ROOT.parent()

    def test_cell_range(self):
        assert I(1, 1).cell_range(3) == (4, 8)
        with pytest.raises(ValueError):
            I(4, 0).cell_range(3)


class TestAverage:
    def test_constant(self):
        assert average(Signal(np.ones(8)), I(1, 0)) == 1.0

    def test_half_indicator(self):
        f = indicator(0, 4, 3)  # 1 on [0, 1/2)
        assert average(f, ROOT) == 0.5

    def test_scaled_quarter(self):
        f = Signal(4.0 * indicator(0, 2, 3).values)  # 4 on [0, 1/4)
        assert average(f, I(1, 0)) == 2.0

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f, g = Signal(rng.standard_normal(16)), Signal(rng.standard_normal(16))
        for q in (ROOT, I(2, 1), I(4, 7)):
            assert average(f + g, q) == pytest.approx(average(f, q) + average(g, q), abs=1e-14)
            assert average(2.5 * f, q) == pytest.approx(2.5 * average(f, q), abs=1e-14)

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            average(Signal(np.ones(4)), I(5, 0))

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(2)
        f = Signal(rng.integers(-4, 5, size=16).astype(float))
        for q in (ROOT, I(1, 1), I(3, 5)):
            assert average(f, q) == float(exact_average(f, q))


class TestOscillation:
    def test_constant_is_zero(self):
        assert oscillation(Signal(np.full(8, 3.0)), ROOT) == 0.0

    def test_haar_mode(self):
        vals = np.concatenate([np.ones(4), -np.ones(4)])
        assert oscillation(Signal(vals), ROOT) == 1.0

    def test_half_indicator(self):
        assert oscillation(indicator(0, 4, 3), ROOT) == 0.5

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(3)
        f = Signal(rng.standard_normal(32))
        g = f + 7.25
        for q in (ROOT, I(2, 3)):
            assert oscillation(g, q) == pytest.approx(oscillation(f, q), abs=1e-12)

    def test_median_mean_comparability(self):
        # osc <= 2 min_c avg|f - c| <= 2 osc, minimum scanned over cell values
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = Signal(rng.standard_normal(32))
            for q in (ROOT, I(1, 0), I(2, 3)):
                lo, hi = q.cell_range(5)
                block = f.values[lo:hi]
                best = min(np.mean(np.abs(block - c)) for c in block)
                osc = oscillation(f, q)
                assert osc <= 2.0 * best + 1e-12
                assert best <= osc + 1e-12

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(5)
        f = Signal(rng.integers(-8, 9, size=32).astype(float))
        assert oscillation(f, I(2, 1)) == pytest.approx(
            float(exact_oscillation(f, I(2, 1))), abs=1e-15)


@st.composite
def _osc_signals(draw):
    """Zero, constant, point-mass or Gaussian cells at J = 1..12, with
    random signs or not, rescaled by 10**U(-150, 150)."""
    J = draw(st.integers(1, 12))
    n = 1 << J
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "constant", "point_masses", "gaussian"]))
    if kind == "zero":
        vals = np.zeros(n)
    elif kind == "constant":
        vals = np.full(n, rng.uniform(0.5, 5.0))
    elif kind == "point_masses":
        vals = np.zeros(n)
        vals[rng.choice(n, size=min(n, 3), replace=False)] = rng.uniform(1.0, 80.0, min(n, 3))
    else:
        vals = rng.standard_normal(n)
    if draw(st.booleans()):
        vals = vals * rng.choice([-1.0, 1.0], n)
    return Signal(vals * 10.0 ** draw(st.floats(-150.0, 150.0)))


class TestBatchedOscillation:
    """oscillation on an array of same-depth heap nodes gives each node's
    one-interval value bit for bit, in any order and batch size."""

    @settings(max_examples=40, deadline=None)
    @given(f=_osc_signals(), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_one_interval(self, f, seed):
        rng = np.random.default_rng(seed)
        J = f.depth_J
        for d in range(J + 1):
            one = {n: oscillation(f, DyadicInterval.from_node(n))
                   for n in range((1 << d), (2 << d))}
            for nodes in ((1 << d) + rng.permutation(1 << d),
                          np.array([(1 << d) + rng.integers(1 << d)]),
                          np.zeros(0, dtype=np.intp)):
                got = oscillation(f, nodes)
                want = np.array([one[n] for n in nodes.tolist()], dtype=float)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            # the one-interval value is the plain formula on the cell block
            for n, value in one.items():
                lo, hi = DyadicInterval.from_node(n).cell_range(J)
                block = f.values[lo:hi]
                assert value == float(np.mean(np.abs(block - np.mean(block))))

    def test_node_validation(self):
        f = Signal(np.arange(8.0))
        with pytest.raises(ValueError, match="one depth"):
            oscillation(f, np.array([2, 4]))
        with pytest.raises(ValueError, match="exceeds signal depth"):
            oscillation(f, np.array([16]))
        with pytest.raises(ValueError, match="exceeds signal depth"):
            oscillation(f, I(4, 0))


def test_node_map_hands_build_positions_in_order():
    # an unsorted order: build gets each key's position in it, and anything
    # but an interval of it (before, between or after its nodes, or not an
    # interval) is not in the view and raises KeyError
    order = np.array([5, 2, 12, 3, 9, 1])
    view = NodeMap(order, lambda k, Q: (k, Q))
    keys = [DyadicInterval.from_node(n) for n in order.tolist()]
    assert list(view) == keys and len(view) == order.size
    for k, Q in enumerate(keys):
        assert Q in view and view[Q] == (k, Q)
    for key in (I(2, 0), I(3, 6), I(4, 0), 5, (1, 0)):
        assert key not in view
        with pytest.raises(KeyError):
            view[key]


class TestLocalizationWeight:
    """chi_I^M at one cell center, read off chi_weights."""

    def test_inside_is_one(self):
        assert chi_weights(I(1, 0), 3, M=5)[0] == 1.0

    def test_formula_value(self):
        # I = [0, 1/2), cell center 3/4 at J = 1, M = 1
        assert chi_weights(I(1, 0), 1, M=1)[1] == pytest.approx(2.0 / 3.0)

    def test_monotone_in_m(self):
        vals = [chi_weights(I(2, 0), 3, M=m)[7] for m in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_m_validation(self):
        with pytest.raises(ValueError, match="M must be >= 1"):
            chi_weights(ROOT, 3, M=0)


class TestWeakL1:
    def test_half_indicator(self):
        assert weak_l1_quasinorm(indicator(0, 4, 3)) == 0.5

    def test_zero(self):
        assert weak_l1_quasinorm(Signal(np.zeros(8))) == 0.0

    def test_four_cell_example(self):
        f = Signal(np.array([2.0, 1.0, 0.0, 0.0]))
        assert weak_l1_quasinorm(f) == 0.5

    def test_below_l1(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            f = Signal(rng.standard_normal(32))
            mask = rng.random(32) < 0.5
            assert weak_l1_quasinorm(f, mask) <= np.sum(np.abs(f.values[mask])) / 32 + 1e-15

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(9)
        f = Signal(rng.integers(0, 7, size=16).astype(float))
        assert weak_l1_quasinorm(f) == float(exact_weak_l1(f))


class TestLpNorm:
    def test_constant_l2(self):
        assert lp_norm(Signal(np.ones(8)), 2.0) == 1.0

    def test_scaled_quarter_l1(self):
        f = Signal(2.0 * indicator(0, 2, 3).values)
        assert lp_norm(f, 1.0) == 0.5

    def test_quasi_norm_half(self):
        assert lp_norm(indicator(0, 4, 3), 0.5) == pytest.approx(0.25)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            lp_norm(Signal(np.ones(4)), 0.0)

    def test_weighted(self):
        f = indicator(0, 2, 2)
        w = np.array([2.0, 2.0, 1.0, 1.0])
        assert lp_norm(f, 1.0, weight=w) == 1.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_whole_domain_equals_masked_gather(self, p):
        # with no interval the cells are read whole; the all-true mask and
        # boolean gather it replaces give the same sum bit for bit
        rng = np.random.default_rng(int(10 * p))
        n = 1 << 12
        f = Signal(rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n))
        w = rng.uniform(0.5, 2.0, n)
        mask = np.ones(n, dtype=bool)
        plain = float(np.sum(np.abs(f.values[mask]) ** p) * f.cell_width) ** (1.0 / p)
        weighted = float(np.sum(np.abs(f.values[mask]) ** p * w[mask])
                         * f.cell_width) ** (1.0 / p)
        assert lp_norm(f, p) == plain == lp_norm(f, p, ROOT)
        assert lp_norm(f, p, weight=w) == weighted == lp_norm(f, p, ROOT, weight=w)


class TestSignal:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Signal(np.ones(6))
        with pytest.raises(ValueError):
            Signal(np.ones(1))

    def test_nesting_partition(self):
        # depth-k cells inside I' tile I' exactly
        for q in (ROOT, I(1, 1), I(2, 0)):
            for d in range(q.depth, 6):
                lo = q.index << (d - q.depth)
                total = sum(DyadicInterval(d, i).length
                            for i in range(lo, lo + (1 << (d - q.depth))))
                assert total == q.length
