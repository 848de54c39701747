from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cz import hard_signals

from sparsedom.dyadic import DyadicInterval, ROOT, Signal, lp_norm
from sparsedom.exact import exact_local_mean_oscillation
from sparsedom.maximal import (MaximalKind, local_mean_oscillation, maximal,
                               shortest_window_oscillation)


def I(d, i):
    return DyadicInterval(d, i)


def rand_signal(J, seed):
    return Signal(np.random.default_rng(seed).standard_normal(1 << J))


def _reference_maximal(f, kind):
    """The per-depth full-length loop that ``maximal`` replaced: every
    depth's functional spread over its cells and max-ed into the result."""
    J = f.depth_J
    out = np.full(f.n_cells, -np.inf)
    for d in range(J + 1):
        B = 1 << (J - d)
        if kind.name == "hl":
            value = np.abs(f.values).reshape(-1, B).sum(axis=1) / B
        else:
            blocks = f.values.reshape(-1, B)
            value = np.abs(blocks - blocks.mean(axis=1, keepdims=True)).mean(axis=1)
        np.maximum(out, np.repeat(value, B), out=out)
    return out


class TestMaximal:
    @settings(max_examples=80, deadline=None)
    @given(f=hard_signals(), kind=st.sampled_from(["hl", "sharp"]))
    def test_matches_per_depth_loop_bit_for_bit(self, f, kind):
        got = maximal(f, MaximalKind(kind)).values
        want = _reference_maximal(f, MaximalKind(kind))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_hl_constant(self):
        out = maximal(Signal(np.ones(8)), MaximalKind.hl())
        assert np.all(out.values == 1.0)

    def test_sharp_constant_zero(self):
        out = maximal(Signal(np.full(8, 5.0)), MaximalKind.sharp())
        assert np.all(out.values == 0.0)

    def test_hl_quarter_indicator(self):
        vals = np.zeros(8)
        vals[:2] = 1.0  # 1 on [0, 1/4)
        out = maximal(Signal(vals), MaximalKind.hl())
        assert out.values[5] == pytest.approx(0.25)  # cell in [1/2, 1): best is the root

    def test_hl_dominates_pointwise(self):
        f = rand_signal(5, 0)
        out = maximal(f, MaximalKind.hl())
        assert np.all(out.values >= np.abs(f.values) - 1e-15)

    def test_weak_11_constant_at_most_one(self):
        for seed in range(20):
            f = rand_signal(6, seed)
            mf = maximal(f, MaximalKind.hl()).values
            l1 = lp_norm(f, 1.0)
            for lam in np.unique(mf):
                measure = np.sum(mf > lam * (1 - 1e-12)) / f.n_cells
                assert lam * measure <= l1 * (1 + 1e-9)

    def test_sharp_at_most_twice_hl(self):
        for seed in range(10):
            f = rand_signal(5, seed + 60)
            sharp = maximal(f, MaximalKind.sharp()).values
            hl = maximal(f, MaximalKind.hl()).values
            assert np.all(sharp <= 2.0 * hl + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="unknown maximal kind"):
            maximal(Signal(np.ones(8)), MaximalKind("lp"))


class TestLocalMeanOscillation:
    def test_constant_zero(self):
        assert local_mean_oscillation(Signal(np.full(16, 2.0)), ROOT, 0.25) == 0.0

    def test_half_indicator(self):
        vals = np.zeros(16)
        vals[:8] = 1.0
        # any window holding 3/4 of the cells spans both values
        assert local_mean_oscillation(Signal(vals), ROOT, 0.25) == 0.5

    def test_lambda_validation(self):
        f = Signal(np.ones(8))
        for lam in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                local_mean_oscillation(f, ROOT, lam)

    def test_nonincreasing_in_lambda(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            f = rand_signal(5, seed + 80)
            vals = [local_mean_oscillation(f, ROOT, lam)
                    for lam in (0.05, 0.1, 0.2, 0.3, 0.45, 0.7)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_below_worst_case_deviation(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            f = rand_signal(4, seed + 90)
            med = float(np.median(f.values))
            worst = float(np.max(np.abs(f.values - med)))
            assert local_mean_oscillation(f, ROOT, 0.125) <= worst + 1e-12

    def test_matches_pairwise_scan_oracle_exactly(self):
        # integer-valued cells keep every half-integer candidate exact in floats
        rng = np.random.default_rng(7)
        for seed in range(25):
            J = rng.integers(2, 6)
            f = Signal(rng.integers(-8, 9, size=1 << J).astype(float))
            for q in (ROOT, I(1, 0)):
                for lam_num, lam_den in ((1, 8), (1, 4), (3, 8), (1, 3)):
                    lam = Fraction(lam_num, lam_den)
                    got = local_mean_oscillation(f, q, lam_num / lam_den)
                    want = exact_local_mean_oscillation(f, q, lam)
                    assert got == float(want)

    def test_shortest_window_small_cases(self):
        # k = 0: half the full range; optimum c is not a data midpoint scanned
        # by consecutive pairs, which is why the window formula is used
        assert shortest_window_oscillation(np.array([0.0, 1.0, 5.0]), 0) == 2.5
        assert shortest_window_oscillation(np.array([0.0, 1.0, 5.0, 6.0]), 1) == 2.5
        assert shortest_window_oscillation(np.array([0.0, 10.0, 11.0]), 1) == 0.5
