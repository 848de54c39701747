"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded constants.  All tolerances are pinned here; campaign
maxima are printed, never invented.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import sparsedom as sd
from sparsedom.dyadic import REL_SLACK, DyadicInterval, ROOT, Signal
from sparsedom.exact import exact_local_mean_oscillation
from sparsedom.generate import full_multiplier
from sparsedom.haar import haar_transform, multiplied_coefficients
from sparsedom.hardy import square_function
from sparsedom.maximal import MaximalKind, maximal
from sparsedom.sparse import max_sparse_eta_lp


def I(d, i):
    return DyadicInterval(d, i)


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run every construction once, so first-call costs stay outside the timed sections
    f = sd.generate_signal("gaussian_noise", 4, seed=0)
    g = sd.generate_signal("gaussian_noise", 4, seed=1)
    T = sd.generate_multiplier(4, seed=2, n_intervals=8)
    sd.dominate_avg(T, f, g)
    sd.dominate_square(T, f, g)
    sd.dominate_oscillation(T, f, g)
    w = sd.generate_weight("dyadic_doubling", 4, seed=3, delta=0.5)
    sd.dominate_weighted(T, f, g, w, p=1.0)
    sd.atomic_decompose(f, p=1.0)


def _inputs(J, t, n_intervals=96):
    f = sd.generate_signal("gaussian_noise", J, seed=3 * t)
    g = sd.generate_signal("gaussian_noise", J, seed=3 * t + 1)
    T = sd.generate_multiplier(J, seed=3 * t + 2, n_intervals=n_intervals)
    return f, g, T


def _exact_child_budget(cert, eta=0.5):
    # dyadic lengths are exact binary floats, so this comparison is exact
    return all(sum(P.length for P in cert.children[Q]) <= eta * Q.length
               for Q in cert.collection)


def test_criterion_1_sparse_carleson_equivalence():
    t0 = time.monotonic()
    n_collections = 0
    worst_lambda = 0.0
    for t in range(200):
        f, g, T = _inputs(10, t, n_intervals=80)
        if t % 3 == 0:
            cert = sd.dominate_square(T, f, g, p=2.0, q=2.0)
        elif t % 3 == 1:
            cert = sd.dominate_oscillation(T, f, g)
        else:
            cert = sd.dominate_square(T, f, g, p=1.0, q=1.0)
        assert _exact_child_budget(cert)
        lam = sd.carleson_constant(cert.collection)
        assert lam <= 2.0 * (1.0 + REL_SLACK)
        worst_lambda = max(worst_lambda, lam)
        n_collections += 1
    # exact LP oracle on small instances
    band_lo, band_hi = np.inf, 0.0
    for t in range(30):
        f, g, T = _inputs(6, 1000 + t, n_intervals=30)
        cert = sd.dominate_square(T, f, g, p=2.0, q=2.0)
        if len(cert.collection) == 0:
            continue
        eta = max_sparse_eta_lp(cert.collection)
        lam = sd.carleson_constant(cert.collection)
        prod = eta * lam
        band_lo, band_hi = min(band_lo, prod), max(band_hi, prod)
        assert 0.25 <= prod <= 4.0
    elapsed = time.monotonic() - t0
    ok = n_collections == 200 and elapsed < 10.0
    report(1, ok,
           f"{n_collections} stopping collections at J=10, max Carleson "
           f"{worst_lambda:.4f} <= 2; LP eta*Lambda in [{band_lo:.3f}, {band_hi:.3f}] "
           f"within [1/4, 4]; runtime {elapsed:.1f}s < 10s")


def test_criterion_2_average_mode():
    t0 = time.monotonic()
    realized = []
    for t in range(200):
        f, g, T = _inputs(10, 2000 + t)
        cert = sd.dominate_avg(T, f, g)
        assert cert.checks["partition_ok"]
        assert _exact_child_budget(cert)
        assert np.isfinite(cert.realized_constant)
        realized.append(cert.realized_constant)
        # (c) with the campaign K re-checked below
        assert cert.lhs <= cert.realized_constant * cert.rhs * (1.0 + REL_SLACK) \
            or cert.lhs == 0.0
    K = max(realized)
    elapsed = time.monotonic() - t0
    ok = np.isfinite(K) and elapsed < 30.0
    report(2, ok,
           f"200 avg-mode certificates at J=10: exact partition, exact 1/2 "
           f"child budget, campaign-max K={K:.4f}; runtime {elapsed:.1f}s < 30s")


def test_criterion_3_square_mode():
    details = []
    for (p, q) in ((2.0, 2.0), (1.0, 1.0), (0.5, 0.5)):
        realized = []
        for t in range(200):
            f, g, T = _inputs(10, 4000 + t)
            cert = sd.dominate_square(T, f, g, p=p, q=q)
            assert cert.checks["partition_ok"]
            assert _exact_child_budget(cert)
            assert np.isfinite(cert.realized_constant)
            realized.append(cert.realized_constant)
            if (p, q) == (2.0, 2.0):
                max_eps = max(abs(e) for e in T.coefficients)
                assert cert.checks["cs_ratio_max"] <= max_eps * (1.0 + 1e-9)
        details.append(f"(p,q)=({p:g},{q:g}) K={max(realized):.4f}")
    report(3, True,
           "square mode, 200 certificates each: " + "; ".join(details)
           + "; (2,2) per-node constants within exact Cauchy-Schwarz")


def test_criterion_4_atomic_decomposition():
    budget_ratios = []
    for t in range(100):
        f = sd.generate_signal("gaussian_noise", 10, seed=6000 + t)
        for p in (0.5, 1.0):
            deco = sd.atomic_decompose(f, p=p)
            err = np.max(np.abs(deco.reconstruct().values - f.values))
            assert err < 1e-12
            for Q, atom in deco.atoms.items():
                lo, hi = Q.cell_range(10)
                assert np.all(atom.values[:lo] == 0.0)
                assert np.all(atom.values[hi:] == 0.0)
                assert abs(atom.integral()) <= 1e-12
                norm = sd.lp_norm(atom, 2.0)
                assert norm <= Q.length ** (0.5 - 1.0 / p) * (1.0 + 1e-12)
            assert _exact_child_budget_atoms(deco)
            budget_ratios.append(deco.checks["lp_budget_ratio"])
    # closed-form single-mode case
    f1 = sd.htilde(I(1, 0), 10)
    deco1 = sd.atomic_decompose(f1, p=1.0)
    cq = deco1.coefficients[I(1, 0)]
    norm1 = sd.lp_norm(deco1.atoms[I(1, 0)], 2.0)
    assert abs(cq - 0.5) < 1e-14
    assert abs(norm1 - np.sqrt(2.0)) < 1e-14
    K = max(budget_ratios)
    report(4, True,
           f"100 signals x p in (1/2, 1): reconstruction < 1e-12, atoms exact "
           f"(support bitwise, cancellation <= 1e-12, L2 bound 1+1e-12); "
           f"single mode c_Q=0.5, ||a||_2=sqrt(2); lp-budget campaign K={K:.4f}")


def _exact_child_budget_atoms(deco):
    S = deco.collection
    return all(sum(P.length for P in S.children(Q)) <= 0.5 * Q.length for Q in S)


def test_criterion_5_weighted_uniformity():
    J = 10
    weights = []
    for k in range(44):
        delta = 1.0 - 0.6 * k / 43.0          # 1.0 down to 0.4
        weights.append(sd.generate_weight("dyadic_doubling", J, seed=500 + k,
                                          delta=delta))
    for t in (4.0, 20.0, 60.0, 100.0):
        weights.append(sd.generate_weight("two_level", J, t=t))
    weights.append(sd.generate_weight("power_like", J, a=0.9))
    weights.append(sd.generate_weight("constant", J))
    a2 = [sd.ap_characteristic(w, 2.0) for w in weights]
    assert len(weights) == 50
    assert min(a2) <= 1.0 + 1e-9 and max(a2) >= 50.0

    # pointwise square-function monotonicity: zero tolerance
    hardy_checked = 0
    for t in range(50):
        f = sd.generate_signal("gaussian_noise", J, seed=7000 + t)
        T = sd.generate_multiplier(J, seed=7500 + t, n_intervals=96)
        c = haar_transform(f)
        ct = multiplied_coefficients(T, c)
        sf = square_function(c)
        stf = square_function(ct)
        assert np.all(stf.values <= sf.values)
        for w in weights[:: 10 if t % 10 else 1]:
            for p in (0.5, 1.0):
                assert sd.lp_norm(stf, p, weight=w) <= sd.lp_norm(sf, p, weight=w)
                hardy_checked += 1

    # pairing bound across the weight sweep at fixed (f, g)
    f = sd.generate_signal("gaussian_noise", J, seed=42)
    g = Signal(f.values.copy())
    T = full_multiplier(J)
    raw, chain = [], []
    for w in weights:
        cert = sd.dominate_weighted(T, f, g, w, p=1.0, r=0.5)
        assert np.isfinite(cert.realized_constant)
        denom = cert.checks["hardy_norm_f"] * cert.checks["cmo_norm_g"]
        raw.append(cert.lhs / denom)
        chain.append(cert.checks["chain_sum"] / denom)
    raw_spread = max(raw) / min(raw)
    chain_spread = max(chain) / min(chain)
    flag = "FLAG raw spread > 10 (slack of the inequality varies with the weight); " \
        if raw_spread > 10.0 else ""
    ok = chain_spread <= 10.0 and max(raw) < 4.0
    report(5, ok,
           f"S(Tf) <= S(f) with zero tolerance on 50 signals; hardy norms "
           f"checked for {hardy_checked} (f, w, p) triples; pairing certified on "
           f"50 weights with A2 in [{min(a2):.2f}, {max(a2):.1f}]: max C'="
           f"{max(raw):.4f} (no growth in A2), certificate chain-constant "
           f"spread {chain_spread:.3f} <= 10; {flag}raw C' spread {raw_spread:.3g}")


def test_criterion_6_weak_type_and_cz():
    k_by_depth = {}
    for J in (8, 10, 12):
        ks = []
        for t in range(100):
            rng = np.random.default_rng(11_000 + t)
            f = sd.generate_signal("point_masses", J, seed=11_000 + t,
                                   k=int(rng.integers(1, 4)))
            S = sd.generate_sparse_collection(J, seed=12_000 + t)
            lam = sd.carleson_constant(S)
            assert lam <= 2.0 * (1.0 + REL_SLACK)
            tf = sd.sparse_operator(S, f)
            ks.append(sd.weak_l1_quasinorm(tf) / sd.lp_norm(f, 1.0))
            alpha = float(rng.uniform(0.6, 2.5)) * sd.lp_norm(f, 1.0)
            dec = sd.cz_decompose(f, alpha)
            checks = dec.verify()
            assert all(checks.values()), (J, t, checks)
        k_by_depth[J] = max(ks)
    mean_k = float(np.mean(list(k_by_depth.values())))
    stable = all(abs(k - mean_k) <= 0.2 * mean_k for k in k_by_depth.values())
    detail = ", ".join(f"J={J}: K={k:.4f}" for J, k in k_by_depth.items())
    report(6, stable,
           f"weak (1,1) of sparse operators (Carleson <= 2), campaign-max "
           f"{detail} (within +-20% of mean {mean_k:.4f}); CZ invariants "
           f"exact on every one of 300 trials")


def test_criterion_7_oscillation_and_fefferman_stein():
    J = 10
    k_fs = 0.0
    for t in range(100):
        f0 = sd.generate_signal("gaussian_noise", J, seed=13_000 + t)
        g0 = sd.generate_signal("gaussian_noise", J, seed=13_500 + t)
        f = Signal(f0.values - f0.mean())
        g = Signal(g0.values - g0.mean())
        pairing = abs(float(np.dot(f.values, g.values))) / f.n_cells
        sharp = float(np.dot(maximal(f, MaximalKind.sharp()).values,
                             maximal(g, MaximalKind.sharp()).values)) / f.n_cells
        k_fs = max(k_fs, pairing / sharp)
    assert np.isfinite(k_fs)

    # oscillation certificates: random multipliers and the identity multiplier
    n_checked = 0
    for t in range(50):
        f, g, T = _inputs(J, 14_000 + t)
        cert = sd.dominate_oscillation(T, f, g)
        assert cert.checks["partition_ok"] and _exact_child_budget(cert)
        assert cert.checks["reconstruction_ok"]
        assert cert.lhs == 0.0 or np.isfinite(cert.realized_constant)
        n_checked += 1
    T_id = full_multiplier(J)
    for t in range(10):
        f0 = sd.generate_signal("gaussian_noise", J, seed=15_000 + t)
        g0 = sd.generate_signal("gaussian_noise", J, seed=15_500 + t)
        f = Signal(f0.values - f0.mean())
        g = Signal(g0.values - g0.mean())
        cert = sd.dominate_oscillation(T_id, f, g)
        assert cert.checks["partition_ok"] and _exact_child_budget(cert)
        assert abs(abs(float(np.dot(f.values, g.values)) / f.n_cells) - cert.lhs) \
            <= 1e-9 * (1.0 + cert.lhs)
        n_checked += 1
    report(7, True,
           f"polarized Fefferman-Stein: campaign-max K={k_fs:.4f} over 100 "
           f"mean-zero pairs; {n_checked} oscillation certificates pass "
           f"sparsity and domination checks")


def _pairwise_scan_oracle(values, lam_num, lam_den):
    """Exact c-scan over cell values and all pairwise midpoints (integer data)."""
    m = values.shape[0]
    k = (lam_num * m) // lam_den
    cands = np.unique(np.concatenate([
        values, (values[:, None] + values[None, :]).ravel() / 2.0]))
    dist = np.abs(values[None, :] - cands[:, None])
    keep = m - k
    part = np.partition(dist, keep - 1, axis=1)[:, keep - 1]
    return float(np.min(part))


def test_criterion_8_lerner_decomposition():
    J = 10
    worst_k = 0.0
    for t in range(100):
        phi = sd.generate_signal("gaussian_noise", J, seed=16_000 + t)
        S, rep = sd.lerner_decompose(phi, ROOT, lam=0.125)
        assert rep["pointwise_ok"], t
        assert rep["child_budget_ok"], t
        worst_k = max(worst_k, rep["K"])
    assert np.isfinite(worst_k)

    # omega_lambda against the brute-force c-scan, exact on integer data
    rng = np.random.default_rng(17)
    n_exact = 0
    for t in range(12):
        vals = rng.integers(-8, 9, size=64).astype(float)
        phi = Signal(vals)
        for d in range(0, 4):
            for i in range(1 << d):
                q = I(d, i)
                lo, hi = q.cell_range(6)
                for (num, den) in ((1, 8), (1, 4), (3, 8)):
                    got = sd.local_mean_oscillation(phi, q, num / den)
                    want = _pairwise_scan_oracle(vals[lo:hi], num, den)
                    assert got == want, (t, q, num, den)
                    n_exact += 1
    # cross-check the numpy oracle itself against exact rationals, small cases
    for t in range(3):
        vals = rng.integers(-5, 6, size=8).astype(float)
        phi = Signal(vals)
        got = _pairwise_scan_oracle(vals, 1, 8)
        want = exact_local_mean_oscillation(phi, ROOT, Fraction(1, 8))
        assert got == float(want)
    report(8, True,
           f"Lerner bound holds cell-by-cell on 100 signals at J=10, "
           f"campaign-max K={worst_k:.4f}; omega_lambda equals the c-scan "
           f"oracle exactly on {n_exact} integer-valued cases")
