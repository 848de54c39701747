import numpy as np
import pytest

from sparsedom.dyadic import DyadicInterval, ROOT, Signal, lp_norm
from sparsedom.generate import generate_multiplier, generate_signal, generate_weight
from sparsedom.haar import HaarMultiplier, haar_transform, htilde, multiplied_coefficients
from sparsedom.hardy import (Weight, ap_characteristic, atomic_decompose,
                             cmo_norm, hardy_norm, square_function)


def I(d, i):
    return DyadicInterval(d, i)


def two_level(J, t=4.0):
    n = 1 << J
    vals = np.ones(n)
    vals[n // 2:] = t
    return Weight(vals)


class TestWeight:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Weight(np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            Weight(np.array([1.0, -2.0, 1.0, 1.0]))

    def test_measures_additive(self):
        w = generate_weight("dyadic_doubling", 5, seed=0, delta=0.4)
        for d in range(5):
            for i in range(1 << d):
                q = I(d, i)
                assert w.measure(q) == pytest.approx(
                    w.measure(q.left()) + w.measure(q.right()), rel=1e-12)


class TestApCharacteristic:
    def test_constant_weight(self):
        assert ap_characteristic(Weight(np.full(8, 3.0)), 2.0) == pytest.approx(1.0)

    def test_two_level_example(self):
        assert ap_characteristic(two_level(1), 2.0) == pytest.approx(25.0 / 16.0)
        assert ap_characteristic(two_level(4), 2.0) == pytest.approx(25.0 / 16.0)

    def test_duality_identity(self):
        # the dual weight sigma = w^{1-p'} satisfies [sigma]_{A_p'} = [w]_{A_p}^{p'-1}
        for p in (1.5, 2.0, 3.0):
            pprime = p / (p - 1.0)
            w = generate_weight("dyadic_doubling", 6, seed=1, delta=0.5)
            sigma = Weight(w.values ** (1.0 - pprime))
            lhs = ap_characteristic(sigma, pprime)
            rhs = ap_characteristic(w, p) ** (pprime - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ap_characteristic(Weight(np.ones(4)), 1.0)

    def test_at_least_one(self):
        for seed in range(5):
            w = generate_weight("dyadic_doubling", 6, seed=seed, delta=0.3)
            assert ap_characteristic(w, 2.0) >= 1.0 - 1e-12


class TestHardyNorm:
    def test_constant_is_zero(self):
        assert hardy_norm(Signal(np.full(16, 2.0)), 1.0) == 0.0

    def test_root_mode_unweighted(self):
        f = htilde(ROOT, 4)
        assert hardy_norm(f, 1.0) == pytest.approx(1.0)

    def test_homogeneous(self):
        f = generate_signal("gaussian_noise", 5, seed=3)
        w = generate_weight("dyadic_doubling", 5, seed=4, delta=0.5)
        for p in (0.5, 1.0):
            assert hardy_norm(Signal(3.0 * f.values), p, w) == pytest.approx(
                3.0 * hardy_norm(f, p, w), rel=1e-11)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            hardy_norm(Signal(np.ones(4)), 1.5)


def _cmo_norm_loop(g, p, w):
    """Per-node reference: sup over I0 of w(I0)^{-1/p} (w(I0) S(I0))^{1/2},
    S(I0) = sum over I <= I0 of a_I^2 |I| / w(I), summed directly."""
    coeffs = haar_transform(g)
    J = coeffs.depth_J
    best = 0.0
    for d0 in range(J):
        for i0 in range(1 << d0):
            s = sum(coeffs[I(d, i)] ** 2 * I(d, i).length / w.measure(I(d, i))
                    for d in range(d0, J)
                    for i in range(i0 << (d - d0), (i0 + 1) << (d - d0)))
            if s > 0.0:
                wI = w.measure(I(d0, i0))
                best = max(best, (wI * s) ** 0.5 / wI ** (1.0 / p))
    return best


class TestCmoNorm:
    @pytest.mark.parametrize("J", [3, 6, 8])
    def test_matches_per_node_loop(self, J):
        weights = [generate_weight("dyadic_doubling", J, seed=J, delta=0.25),
                   generate_weight("power_like", J, a=0.5),
                   two_level(J, t=64.0), Weight(np.ones(1 << J))]
        signals = [generate_signal("gaussian_noise", J, seed=J + 1),
                   generate_signal("point_masses", J, seed=J + 2, k=3)]
        for w in weights:
            for g in signals:
                for p in (0.5, 1.0):
                    assert cmo_norm(g, p, w) == pytest.approx(
                        _cmo_norm_loop(g, p, w), rel=1e-12, abs=0.0)

    def test_constant_is_zero(self):
        w = Weight(np.ones(16))
        assert cmo_norm(Signal(np.full(16, 1.5)), 1.0, w) == 0.0

    def test_root_mode_lebesgue(self):
        g = htilde(ROOT, 4)
        assert cmo_norm(g, 1.0, Weight(np.ones(16))) == pytest.approx(1.0)

    def test_homogeneous(self):
        g = generate_signal("gaussian_noise", 5, seed=5)
        w = generate_weight("dyadic_doubling", 5, seed=6, delta=0.5)
        assert cmo_norm(Signal(2.0 * g.values), 1.0, w) == pytest.approx(
            2.0 * cmo_norm(g, 1.0, w), rel=1e-11)

    def test_pairing_inequality_spotcheck(self):
        # |<f, g>| <= C ||f||_{H^1_w} ||g||_{CMO^1_w} across random weights
        worst = 0.0
        for seed in range(10):
            f0 = generate_signal("gaussian_noise", 6, seed=seed + 10)
            g0 = generate_signal("gaussian_noise", 6, seed=seed + 20)
            f = Signal(f0.values - f0.mean())
            g = Signal(g0.values - g0.mean())
            w = generate_weight("dyadic_doubling", 6, seed=seed, delta=0.5)
            pairing = abs(float(np.dot(f.values, g.values))) / f.n_cells
            denom = hardy_norm(f, 1.0, w) * cmo_norm(g, 1.0, w)
            worst = max(worst, pairing / denom)
        assert worst < 8.0


class TestAtomicDecomposition:
    def test_single_mode_closed_form(self):
        f = htilde(I(1, 0), 5)
        deco = atomic_decompose(f, p=1.0)
        assert set(deco.coefficients) == {I(1, 0)}
        c = deco.coefficients[I(1, 0)]
        assert c == pytest.approx(0.5)
        atom = deco.atoms[I(1, 0)]
        assert np.max(np.abs(atom.values - 2.0 * f.values)) < 1e-12
        assert lp_norm(atom, 2.0) == pytest.approx(np.sqrt(2.0))
        assert lp_norm(atom, 2.0) <= I(1, 0).length ** (0.5 - 1.0) * (1 + 1e-12)

    def test_overflowing_haar_square_rejected(self):
        # finite cells whose root Haar coefficient squares past the float range
        f = Signal(np.repeat([1e200, -1e200], 32))
        with pytest.raises(ValueError, match="squared Haar coefficient of f overflows"):
            atomic_decompose(f, p=1.0)

    def test_zero_signal(self):
        deco = atomic_decompose(Signal(np.zeros(16)), p=1.0)
        assert len(deco.coefficients) == 0
        assert deco.mean == 0.0

    def test_mean_reported_and_removed(self):
        f = Signal(np.full(16, 2.5))
        deco = atomic_decompose(f, p=1.0)
        assert deco.mean == pytest.approx(2.5)
        assert len(deco.coefficients) == 0

    def test_random_reconstruction_and_atoms(self):
        for seed in range(10):
            f = generate_signal("gaussian_noise", 7, seed=seed + 30)
            for p in (0.5, 1.0):
                deco = atomic_decompose(f, p=p)
                assert deco.checks["reconstruction_ok"]
                assert deco.checks["child_budget_ok"]
                assert deco.checks["atoms_ok"]
                err = np.max(np.abs(deco.reconstruct().values - f.values))
                assert err < 1e-12

    # the pinned seeds give a sub-family whose c_Q moves by an ulp if the
    # squares are taken as x * x instead of a float power
    @pytest.mark.parametrize("kind, J, seed", [("gaussian_noise", 10, 580),
                                               ("point_masses", 8, 1094),
                                               ("sparse_haar", 9, 60)])
    def test_coefficients_match_per_interval_sums(self, kind, J, seed):
        # c_Q from the sub-family's squares, each a float power, added one at
        # a time in node order, as a per-interval Python loop computes it
        f = generate_signal(kind, J, seed=seed, k=12)
        coeffs = haar_transform(f)
        for p in (0.5, 1.0):
            for C in (1.0, 4.0):
                deco = atomic_decompose(f, p=p, C=C)
                assert deco.coefficients
                for Q, c in deco.coefficients.items():
                    fam = deco.subfamilies[Q].tolist()
                    assert fam == sorted(fam)
                    energy = float(sum(coeffs.heap[P] ** 2 for P in fam))
                    assert c == Q.length ** (1.0 / p - 0.5) * energy**0.5

    def test_atom_norm_equality(self):
        # the construction meets the L2 normalization with equality
        f = generate_signal("sparse_haar", 6, seed=40, k=10)
        deco = atomic_decompose(f, p=1.0)
        for Q, atom in deco.atoms.items():
            assert lp_norm(atom, 2.0) == pytest.approx(Q.length ** (0.5 - 1.0), rel=1e-10)

    def test_lp_budget_recorded(self):
        f = generate_signal("gaussian_noise", 7, seed=50)
        deco = atomic_decompose(f, p=1.0)
        assert deco.checks["lp_budget_ratio"] < 8.0

    def test_reconstruction_at_depth_twelve(self):
        f = generate_signal("gaussian_noise", 12, seed=51)
        deco = atomic_decompose(f, p=1.0)
        err = np.max(np.abs(deco.reconstruct().values - f.values))
        assert err < 1e-12

    def test_parameter_validation(self):
        f = Signal(np.ones(8))
        with pytest.raises(ValueError):
            atomic_decompose(f, p=1.5)
        with pytest.raises(ValueError):
            atomic_decompose(f, p=1.0, r=1.0)


class TestWeightedUniformity:
    def test_square_function_pointwise_monotone(self):
        # |eps_I| <= 1 forces S(Tf) <= S(f) cell by cell, with no tolerance
        for seed in range(10):
            f = generate_signal("gaussian_noise", 6, seed=seed + 60)
            c = haar_transform(f)
            T = generate_multiplier(6, seed=seed + 70, n_intervals=40)
            ct = multiplied_coefficients(T, c)
            sf = square_function(c).values
            stf = square_function(ct).values
            assert np.all(stf <= sf)

    def test_hardy_norm_never_grows(self):
        for seed in range(6):
            f = generate_signal("gaussian_noise", 6, seed=seed + 80)
            c = haar_transform(f)
            T = generate_multiplier(6, seed=seed + 90, n_intervals=40)
            ct = multiplied_coefficients(T, c)
            for p in (0.5, 1.0):
                for wseed in range(3):
                    w = generate_weight("dyadic_doubling", 6, seed=wseed, delta=0.35)
                    assert hardy_norm(ct, p, w) <= hardy_norm(c, p, w)
