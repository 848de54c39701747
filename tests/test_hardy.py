import dataclasses
import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom import campaign, haar, hardy
from sparsedom.dyadic import DyadicInterval, ROOT, Signal, lp_norm
from sparsedom.generate import generate_multiplier, generate_signal, generate_weight
from sparsedom.haar import (HaarCoefficients, HaarMultiplier, haar_transform, htilde,
                            inverse_haar_transform, multiplied_coefficients)
from sparsedom.hardy import (Weight, ap_characteristic, atomic_decompose,
                             cmo_norm, hardy_norm, square_function)
from sparsedom.sparse import child_budget_ok
from sparsedom.stopping import _grouped, _lp, _squared, _stop, _StockHeaps


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

    @pytest.mark.parametrize("kind", ["two_level", "dyadic_doubling", "power_like"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_np_mean_blocks(self, kind, p):
        # the block means are np.mean's bit for bit
        J = 10
        w = generate_weight(kind, J, seed=3, t=64.0, delta=0.25)
        dual = w.values ** (-1.0 / (p - 1.0))
        want = max(float(np.max(w.values.reshape(1 << d, -1).mean(axis=1)
                                * dual.reshape(1 << d, -1).mean(axis=1) ** (p - 1.0)))
                   for d in range(J + 1))
        assert ap_characteristic(w, p) == want

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

    def test_zero_coefficient_node_carries_no_atom(self):
        # the square of h_(1,1)'s coefficient underflows: its node stays in
        # the run with c_Q = 0 and adds nothing beside its sibling's atom
        heap = np.zeros(16)
        heap[[I(1, 0).node, I(1, 1).node]] = [1.0, 1e-200]
        f = inverse_haar_transform(HaarCoefficients(heap, 0.0, 4))
        deco = atomic_decompose(f, p=1.0)
        assert list(deco.subfamilies) == [I(1, 0), I(1, 1)]
        assert list(deco.coefficients) == list(deco.atoms) == [I(1, 0)]
        _, _, recon, checks = _per_atom_reference(f, 1.0, 4.0)
        assert deco.checks == checks and deco.ok()
        assert np.array_equal(deco.reconstruct().values, recon)

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


def test_atom_views_follow_run_positions():
    # a run whose order is not node order: every view gives each key its own
    # sub-family, c_Q and atom, and a KeyError for a key it does not hold
    J = 8
    f = generate_signal("point_masses", J, seed=0, k=8)
    deco = atomic_decompose(f, p=1.0, C=1.0)
    run = deco.run
    order = [DyadicInterval.from_node(n) for n in run.order.tolist()]
    assert order != sorted(order) and deco.scale.all()
    assert list(deco.subfamilies) == list(deco.coefficients) == list(deco.atoms) == order
    for k, Q in enumerate(order):
        own = np.sort(run.members[run.owners == Q.node])
        assert np.array_equal(deco.subfamilies[Q], own)
        assert deco.coefficients[Q] == deco.c[k]
        heap = np.zeros(1 << J)
        heap[own] = deco.haar.heap[own]
        atom = inverse_haar_transform(HaarCoefficients(heap, 0.0, J)).values / deco.c[k]
        assert np.array_equal(deco.atoms[Q].values, atom)
    absent = next(P for P in map(DyadicInterval.from_node, range(1, 1 << J)) if P not in order)
    for view in (deco.subfamilies, deco.coefficients, deco.atoms):
        for key in (absent, I(J, 0), absent.node):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]


def _per_atom_reference(f, p, C):
    """The O(#atoms n) path: one length-n atom per Q from its own inverse
    transform, a full-vector reconstruction in run order and a full-vector
    scan of each atom.  Returns (coefficients, atoms, reconstruction, checks)."""
    r, J = p / 2.0, f.depth_J
    coeffs = haar_transform(f)
    nodes = coeffs.support_nodes()
    if not nodes.size:
        return {}, {}, np.full(1 << J, coeffs.mean), {"empty": True}
    heaps = _StockHeaps(nodes, (_squared(coeffs.heap, "f"),), (_lp(J, r, f.cell_width),))
    run, _ = _stop("atoms", nodes, heaps, C)
    family, starts = _grouped(run.order, run.owners, run.members)
    coefficients, atoms = {}, {}
    for k, node in enumerate(run.order.tolist()):
        own = family[starts[k] : starts[k + 1]]
        Q = DyadicInterval.from_node(node)
        e = sum(np.float_power(coeffs.heap[own], 2.0).tolist())
        c_Q = Q.length ** (1.0 / p - 0.5) * e ** 0.5
        if c_Q == 0.0:
            continue
        heap = np.zeros(1 << J)
        heap[own] = coeffs.heap[own]
        atom = inverse_haar_transform(HaarCoefficients(heap, 0.0, J))
        coefficients[Q] = c_Q
        atoms[Q] = Signal(atom.values / c_Q)
    recon = np.full(1 << J, coeffs.mean)
    for Q, c in coefficients.items():
        recon += c * atoms[Q].values
    recon_err = float(np.max(np.abs(recon - f.values)))
    atom_ok = True
    for Q, atom in atoms.items():
        lo, hi = Q.cell_range(J)
        outside = np.concatenate([atom.values[:lo], atom.values[hi:]])
        if (np.any(outside != 0.0) or abs(atom.integral()) > 1e-12
                or lp_norm(atom, 2.0) > Q.length ** (0.5 - 1.0 / p) * (1.0 + 1e-12)):
            atom_ok = False
    sf_norm = hardy_norm(coeffs, p)
    budget_sum = float(sum(c**p for c in coefficients.values()))
    checks = {
        "reconstruction_error": recon_err,
        "reconstruction_ok": recon_err < 1e-12 * max(1.0, float(np.max(np.abs(f.values)))),
        "child_budget_ok": child_budget_ok(run.kids, run.parents),
        "atoms_ok": atom_ok,
        "lp_budget": budget_sum,
        "hardy_norm_p": sf_norm,
        "lp_budget_ratio": budget_sum / sf_norm**p if sf_norm > 0 else 0.0,
    }
    return coefficients, atoms, recon, checks


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


@st.composite
def atom_signals(draw):
    kind = draw(st.sampled_from(["gaussian_noise", "point_masses", "sparse_haar", "step",
                                 "zero", "constant"]))
    J = draw(st.integers(1, 10))
    if kind == "zero":
        return Signal(np.zeros(1 << J))
    if kind == "constant":
        return Signal(np.full(1 << J, draw(st.floats(-1e3, 1e3, allow_nan=False))))
    return generate_signal(kind, J, seed=draw(st.integers(0, 2**32 - 1)),
                           k=draw(st.integers(1, 12)))


class TestAtomsPerDepth:
    """Atoms held as node arrays, checked one depth of Q at a time."""

    @settings(max_examples=150, deadline=None)
    @given(f=atom_signals(), p=st.sampled_from([0.5, 1.0]), C=st.sampled_from([1.0, 4.0]))
    def test_bitwise_equal_to_per_atom_path(self, f, p, C):
        coefficients, atoms, recon, checks = _per_atom_reference(f, p, C)
        deco = atomic_decompose(f, p=p, C=C)
        assert list(deco.coefficients.items()) == list(coefficients.items())
        assert list(deco.atoms) == list(atoms)
        for Q, atom in atoms.items():
            assert np.array_equal(_bits(deco.atoms[Q].values), _bits(atom.values))
        assert np.array_equal(_bits(deco.reconstruct().values), _bits(recon))
        assert {k: repr(v) for k, v in deco.checks.items()} == \
            {k: repr(v) for k, v in checks.items()}

    def test_atoms_view_is_read_only_mapping(self):
        deco = atomic_decompose(generate_signal("gaussian_noise", 8, seed=3), p=1.0, C=1.0)
        run = deco.run
        atoms = run.order[deco.scale != 0.0]
        Q = next(iter(deco.coefficients))
        for view, order in ((deco.atoms, atoms), (deco.coefficients, atoms),
                            (deco.subfamilies, run.order)):
            assert isinstance(view, Mapping) and len(view) == order.size
            assert [P.node for P in view] == order.tolist()
            assert Q in view and I(8, 0) not in view
            with pytest.raises(TypeError):
                view[Q] = view[Q]
            for key in (I(8, 0), Q.node, (Q.depth, Q.index)):
                assert key not in view
                with pytest.raises(KeyError):
                    view[key]
        for j, node in enumerate(run.order.tolist()):
            P = DyadicInterval.from_node(node)
            assert deco.subfamilies[P].tolist() == sorted(run.members[run.owners == node].tolist())
            if deco.scale[j]:
                assert deco.coefficients[P] == deco.c[j]

    def test_to_dict_rebuilds_every_atom(self):
        deco = atomic_decompose(generate_signal("sparse_haar", 9, seed=4, k=20), p=0.5, C=1.0)
        payload = json.loads(json.dumps(deco.to_dict()))
        assert [a["Q"] for a in payload["atoms"]] == [[Q.depth, Q.index]
                                                      for Q in sorted(deco.coefficients)]
        for a in payload["atoms"]:
            Q = I(*a["Q"])
            heap = np.zeros(1 << 9)
            heap[[I(d, i).node for d, i in a["family"]]] = a["a_I"]
            atom = inverse_haar_transform(HaarCoefficients(heap, 0.0, 9)).values / a["c_Q"]
            assert np.array_equal(_bits(atom), _bits(deco.atoms[Q].values))

    @pytest.mark.parametrize("mutation, flipped", [("member_outside", "atoms_ok"),
                                                   ("member_above", "atoms_ok"),
                                                   ("member_off_grid", "atoms_ok"),
                                                   ("members_swapped", "atoms_ok"),
                                                   ("shifted_mean", "reconstruction_ok"),
                                                   ("scaled_c", "reconstruction_ok")])
    def test_verify_flags_a_tampered_decomposition(self, mutation, flipped):
        deco = atomic_decompose(generate_signal("gaussian_noise", 8, seed=3), p=1.0, C=1.0)
        assert deco.verify() == deco.checks and deco.ok()
        Q = next(Q for Q in deco.coefficients if Q.depth > 0)
        members, owners = deco.run.members.copy(), deco.run.owners
        last = {P: np.flatnonzero(owners == P.node)[-1] for P in deco.coefficients}
        moved = {"member_outside": Q.node ^ 1,     # Q's sibling
                 "member_above": Q.node >> 1,      # Q's parent
                 "member_off_grid": 1 << 8}.get(mutation)
        if moved is not None:
            members[last[Q]] = moved
        elif mutation == "members_swapped":
            # two atoms of one depth trade a member: every depth's summed
            # coefficients, and so every rendered block, stay the same
            Q, R = [P for P in deco.coefficients if P.depth == Q.depth][:2]
            members[[last[Q], last[R]]] = members[[last[R], last[Q]]]
        if mutation == "shifted_mean":
            deco.mean += 1e-9
        elif mutation == "scaled_c":
            deco = dataclasses.replace(deco, c=np.where(deco.run.order == Q.node,
                                                        2.0 * deco.c, deco.c))
        else:
            deco = dataclasses.replace(deco, run=deco.run._replace(members=members))
        checks = deco.verify()
        assert checks[flipped] is False
        # a new mean or a new weight leaves the atoms as they are, and a swap
        # leaves the sum as it is
        assert checks["atoms_ok"] is (mutation in ("shifted_mean", "scaled_c"))
        if mutation == "members_swapped":
            assert checks["reconstruction_error"] == deco.checks["reconstruction_error"]

    def test_no_interval_is_built(self, monkeypatch):
        # decomposing, verifying, reconstructing and the campaign's atoms
        # record work on the run's node arrays alone
        built = []
        post_init = DyadicInterval.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        f = generate_signal("gaussian_noise", 12, seed=1)
        cfg = campaign.CampaignConfig(depth_J=12, trials=1, seed=7, modes=("atoms",))
        monkeypatch.setattr(DyadicInterval, "__post_init__", counted)
        deco = atomic_decompose(f, p=1.0, C=1.0)
        assert deco.verify() == deco.checks and deco.ok() and len(deco.coefficients) > 1
        assert np.max(np.abs(deco.reconstruct().values - f.values)) < 1e-12
        assert campaign._run_one(cfg, "atoms", 0)["hard_ok"]
        assert not built

    def test_one_inverse_transform_per_depth(self, monkeypatch):
        calls = []
        original = haar.inverse_haar_transform

        def spy(coeffs):
            calls.append(coeffs.depth_J)
            return original(coeffs)

        monkeypatch.setattr(haar, "inverse_haar_transform", spy)
        monkeypatch.setattr(hardy, "inverse_haar_transform", spy)
        deco = atomic_decompose(generate_signal("gaussian_noise", 12, seed=1), p=1.0, C=1.0)
        depths = {Q.depth for Q in deco.coefficients}
        assert len(deco.coefficients) > 2 * len(depths)
        assert 0 < len(calls) <= 2 * len(depths)

    def test_depth_sixteen_record_is_small(self):
        f = generate_signal("gaussian_noise", 16, seed=1)
        deco = atomic_decompose(f, p=1.0, C=1.0)
        assert len(deco.coefficients) == 424 and deco.ok()
        assert len(json.dumps(deco.to_dict())) < 5_000_000


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
