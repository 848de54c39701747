import numpy as np
import pytest

from sparsedom.cz import cz_decompose, weak11_certify
from sparsedom.dyadic import DyadicInterval, ROOT, Signal, average, lp_norm
from sparsedom.generate import (generate_signal, generate_sparse_collection)
from sparsedom.haar import HaarMultiplier, apply_multiplier
from sparsedom.sparse import sparse_operator


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
