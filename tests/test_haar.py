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


def _dict_generate_multiplier(J, seed=0, n_intervals=128, signs_only=False):
    """The generator as a dict of intervals, one scalar draw per node."""
    rng = np.random.default_rng(seed)
    pool = np.arange(1, 1 << J)
    nodes = rng.choice(pool, size=min(n_intervals, pool.shape[0]), replace=False)
    eps = {}
    for node in sorted(int(x) for x in nodes):
        eps[DyadicInterval.from_node(node)] = float(rng.choice([-1.0, 1.0])) if signs_only \
            else float(rng.uniform(-1.0, 1.0))
    return eps


def _sorted_items(eps):
    items = sorted(eps.items())
    return tuple(I for I, _ in items), tuple(e for _, e in items)


class TestMultiplierArrays:
    """The node and eps arrays give the intervals and coefficients of the
    interval-built multiplier, in T's own order."""

    @pytest.mark.parametrize("J", range(1, 11))
    def test_full_multiplier_matches_dict(self, J):
        fam = {I(d, i): 1.0 for d in range(J) for i in range(1 << d)}
        T = full_multiplier(J)
        assert (T.intervals, T.coefficients) == _sorted_items(fam)
        assert np.array_equal(T.nodes, np.arange(1, 1 << J)) and T.max_depth() == J - 1

    @pytest.mark.parametrize("J", [1, 3, 6, 10])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("n_intervals, signs_only", [(5, False), (96, False),
                                                        (128, True), (5000, False)])
    def test_generate_multiplier_matches_dict(self, J, seed, n_intervals, signs_only):
        T = generate_multiplier(J, seed=seed, n_intervals=n_intervals, signs_only=signs_only)
        assert (T.intervals, T.coefficients) == _sorted_items(
            _dict_generate_multiplier(J, seed, n_intervals, signs_only))

    def test_direct_constructor_keeps_order(self):
        rng = np.random.default_rng(5)
        base = [I(d, i) for d in range(5) for i in range(1 << d)]
        ivs = tuple(base[k] for k in rng.permutation(len(base)))
        eps = tuple(rng.uniform(-1.0, 1.0, len(ivs)).tolist())
        T = HaarMultiplier(ivs, eps)
        assert T.intervals == ivs and T.coefficients == eps
        assert T.nodes.tolist() == [J.node for J in ivs] and T.eps.tolist() == list(eps)
        assert not T.nodes.flags.writeable and not T.eps.flags.writeable
        assert T.max_depth() == 4 and len(T) == len(ivs)
        heap = T.eps_heap(5)
        assert all(heap[J.node] == e for J, e in zip(ivs, eps))
        assert np.count_nonzero(heap) == np.count_nonzero(eps)

    def test_from_dict_sorts_into_node_order(self):
        rng = np.random.default_rng(6)
        fam = {I(d, i): float(rng.uniform(-1, 1)) for d in range(6) for i in range(1 << d)
               if rng.random() < 0.5}
        shuffled = dict(sorted(fam.items(), key=lambda kv: rng.random()))
        T = HaarMultiplier.from_dict(shuffled)
        assert (T.intervals, T.coefficients) == _sorted_items(fam)

    def test_projection(self):
        T = HaarMultiplier.projection([I(2, 1), ROOT, I(2, 1), I(1, 0)])
        assert T.intervals == (ROOT, I(1, 0), I(2, 1)) and T.coefficients == (1.0,) * 3
        assert len(HaarMultiplier.projection([])) == 0

    def test_write_read_cycle(self, tmp_path):
        from sparsedom.serialize import read_multiplier, write_multiplier

        rng = np.random.default_rng(8)
        base = [I(d, i) for d in range(7) for i in range(1 << d) if rng.random() < 0.4]
        ivs = tuple(base[k] for k in rng.permutation(len(base)))
        eps = tuple(rng.uniform(-1.0, 1.0, len(ivs)).tolist())
        path = tmp_path / "m.csv"
        write_multiplier(HaarMultiplier(ivs, eps), path)
        assert path.read_text().splitlines() == [f"{J.depth},{J.index},{e!r}"
                                                 for J, e in zip(ivs, eps)]
        T = read_multiplier(path)
        assert (T.intervals, T.coefficients) == _sorted_items(dict(zip(ivs, eps)))
        # a later row for the same interval replaces the earlier one
        path.write_text("2,1,0.5\n0,0,1.0\n2,1,-0.25\n")
        T = read_multiplier(path)
        assert (T.intervals, T.coefficients) == ((ROOT, I(2, 1)), (1.0, -0.25))

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="duplicate intervals in multiplier family"):
            HaarMultiplier((ROOT, I(1, 0), ROOT), (1.0, 0.5, -0.5))
        with pytest.raises(ValueError, match="duplicate intervals in multiplier family"):
            HaarMultiplier.from_nodes([3, 1, 3], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"\|eps_I\| <= 1 required, got -1.5"):
            HaarMultiplier((ROOT, I(1, 1)), (1.0, -1.5))
        with pytest.raises(ValueError, match=r"\|eps_I\| <= 1 required, got 2.0"):
            HaarMultiplier.from_dict({I(1, 0): 2.0})
        with pytest.raises(ValueError, match="intervals and coefficients must align"):
            HaarMultiplier((ROOT,), (1.0, 1.0))
        with pytest.raises(ValueError, match="heap nodes must be >= 1"):
            HaarMultiplier.from_nodes([0, 1], [1.0, 1.0])
        T = HaarMultiplier.from_dict({ROOT: 1.0, I(4, 3): 0.5})
        with pytest.raises(ValueError, match="multiplier interval at depth 4 needs depth < 4"):
            T.check_depth(4)
        T.check_depth(5)


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
