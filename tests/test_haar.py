import numpy as np
import pytest

from sparsedom.dyadic import DyadicInterval, ROOT, Signal, lp_norm
from sparsedom.haar import (HaarMultiplier, haar_function, haar_transform, htilde,
                            inverse_haar_transform, multiplied_coefficients,
                            tilde_size)
from sparsedom.generate import (full_multiplier, generate_multiplier,
                                generate_signal, generate_weight)
from sparsedom.stopping import (dominate_avg, dominate_oscillation,
                                dominate_square, dominate_weighted)


def I(d, i):
    return DyadicInterval(d, i)


def rand_signal(J, seed):
    return Signal(np.random.default_rng(seed).standard_normal(1 << J))


def apply_multiplier(T, f):
    """T f = sum over the family of eps_I <f, h_I> h_I, in space."""
    return inverse_haar_transform(multiplied_coefficients(T, haar_transform(f)))


def certify(mode, T, f, g):
    """The domination certificate of one mode at its default constants."""
    if mode == "avg":
        return dominate_avg(T, f, g)
    if mode == "square":
        return dominate_square(T, f, g)
    if mode == "weighted":
        return dominate_weighted(T, f, g, generate_weight("two_level", f.depth_J))
    return dominate_oscillation(T, f, g)


class TestTransform:
    def test_constant_has_no_modes(self):
        c = haar_transform(Signal(np.full(16, 3.7)))
        assert np.all(c.heap == 0.0)
        assert c.mean == pytest.approx(3.7)

    def test_root_mode(self):
        f = htilde(ROOT, 4)
        c = haar_transform(f)
        assert c[ROOT] == pytest.approx(1.0)
        heap = c.heap.copy()
        heap[ROOT.node] = 0.0
        assert np.all(heap == 0.0)

    def test_roundtrip_exact(self):
        for seed in range(5):
            f = rand_signal(6, seed)
            g = inverse_haar_transform(haar_transform(f))
            assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_parseval(self):
        for seed in range(5):
            f = rand_signal(7, seed)
            c = haar_transform(f)
            assert c.l2_norm_squared() == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-12)

    def test_orthonormality(self):
        J = 4
        modes = [haar_function(I(d, i), J) for d in range(J) for i in range(1 << d)]
        for a in range(len(modes)):
            for b in range(a, len(modes)):
                dot = np.dot(modes[a].values, modes[b].values) / (1 << J)
                assert dot == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


class TestMultiplier:
    def test_coefficient_bound_enforced(self):
        with pytest.raises(ValueError):
            HaarMultiplier((ROOT,), (1.5,))

    def test_zero_multiplier(self):
        T = HaarMultiplier.from_dict({ROOT: 0.0, I(1, 0): 0.0})
        f = rand_signal(4, 0)
        assert np.all(apply_multiplier(T, f).values == 0.0)

    def test_full_projection_removes_mean(self):
        T = full_multiplier(5)
        f = rand_signal(5, 1)
        g = apply_multiplier(T, f)
        assert np.max(np.abs(g.values - (f.values - f.mean()))) < 1e-12

    def test_single_mode_projection(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 4)
        assert np.max(np.abs(apply_multiplier(T, f).values - f.values)) < 1e-14

    def test_projection_idempotent(self):
        rng = np.random.default_rng(2)
        fam = {I(d, i): 1.0 for d in range(4) for i in range(1 << d)
               if rng.random() < 0.5}
        T = HaarMultiplier.from_dict(fam)
        f = rand_signal(4, 3)
        once = apply_multiplier(T, f)
        twice = apply_multiplier(T, once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_depth_guard(self):
        T = HaarMultiplier.from_dict({I(3, 0): 1.0})
        with pytest.raises(ValueError):
            apply_multiplier(T, Signal(np.ones(8)))  # J = 3 modes need J >= 4

    def test_contraction(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            fam = {I(d, i): float(rng.uniform(-1, 1)) for d in range(5)
                   for i in range(1 << d) if rng.random() < 0.6}
            if not fam:
                continue
            T = HaarMultiplier.from_dict(fam)
            f = rand_signal(5, seed + 10)
            fz = Signal(f.values - f.mean())
            assert lp_norm(apply_multiplier(T, f), 2.0) <= lp_norm(fz, 2.0) * (1 + 1e-12)


class TestBilinearForm:
    """Every mode's certificate lhs is |<T f, g>|, the pairing taken in space."""

    MODES = ("avg", "square", "weighted", "osc")

    def test_equals_inner_product(self):
        for J in (5, 6, 7):
            for seed in range(3):
                T = generate_multiplier(J, seed=100 * J + seed, n_intervals=(1 << J) // 2)
                f = generate_signal("gaussian_noise", J, seed=2 * seed)
                g = generate_signal("gaussian_noise", J, seed=2 * seed + 1)
                pairing = float(np.dot(apply_multiplier(T, f).values, g.values)) * f.cell_width
                for mode in self.MODES:
                    cert = certify(mode, T, f, g)
                    assert cert.lhs == pytest.approx(abs(pairing), rel=1e-12, abs=1e-12), mode

    def test_full_family_parseval(self):
        f, g = rand_signal(5, 6), rand_signal(5, 7)
        expect = np.dot(f.values, g.values) / 32 - f.mean() * g.mean()
        for mode in self.MODES:
            cert = certify(mode, full_multiplier(5), f, g)
            assert cert.lhs == pytest.approx(abs(expect), abs=1e-12), mode

    def test_orthogonal_function_gives_zero(self):
        T = HaarMultiplier.from_dict({I(1, 0): 1.0})
        f = htilde(I(1, 1), 4)  # modes disjoint from the family
        g = rand_signal(4, 8)
        for mode in self.MODES:
            assert certify(mode, T, f, g).lhs == 0.0, mode

    def test_single_mode_value(self):
        T = HaarMultiplier.from_dict({I(1, 0): 1.0})
        f = htilde(I(1, 0), 4)
        for mode in self.MODES:
            assert certify(mode, T, f, f).lhs == pytest.approx(0.5), mode


class TestTildeSize:
    def test_lower_bound_constant(self):
        f = Signal(np.ones(16))
        assert tilde_size(f, [I(2, 1)]) >= 1.0

    def test_decay_in_m(self):
        f = Signal(np.concatenate([np.zeros(8), np.ones(8)]))
        fam = [I(3, 0)]
        vals = [tilde_size(f, fam, M=m) for m in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_direct_value(self):
        f = Signal(np.concatenate([np.ones(8), np.zeros(8)]))
        got = tilde_size(f, [I(1, 0)], M=8)
        assert got >= 1.0
        assert got == pytest.approx(1.0, rel=1e-2)  # tail contribution is tiny

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            tilde_size(Signal(np.ones(4)), [])


class TestMultipliedCoefficients:
    def test_pointwise_square_function_domination(self):
        rng = np.random.default_rng(11)
        f = rand_signal(6, 12)
        c = haar_transform(f)
        fam = {I(d, i): float(rng.uniform(-1, 1)) for d in range(6)
               for i in range(1 << d) if rng.random() < 0.7}
        T = HaarMultiplier.from_dict(fam)
        ct = multiplied_coefficients(T, c)
        assert np.all(np.abs(ct.heap) <= np.abs(c.heap))
