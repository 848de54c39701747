import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom import hardy, kernels, stopping
from sparsedom.dyadic import DyadicInterval, ROOT, Signal
from sparsedom.generate import (SIGNAL_KINDS, full_multiplier, generate_multiplier,
                                generate_signal, generate_weight)
from sparsedom.haar import HaarMultiplier, haar_transform, htilde, tilde_size
from sparsedom.hardy import Weight, atomic_decompose
from sparsedom.maximal import MaximalKind, local_mean_oscillation, maximal
from sparsedom.stopping import (dominate_avg, dominate_oscillation,
                                dominate_square, dominate_weighted,
                                lerner_decompose)


def I(d, i):
    return DyadicInterval(d, i)


def structural_ok(cert):
    return (cert.checks["partition_ok"] and cert.checks["child_budget_ok"]
            and cert.checks["forest_ok"] and cert.checks["reconstruction_ok"])


def spiky_signal(J, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(1 << J)
    spots = rng.choice(1 << J, size=4, replace=False)
    vals[spots] += rng.choice([-1, 1], size=4) * rng.uniform(20, 80, size=4)
    return Signal(vals)


class TestDominateAvg:
    def test_constant_inputs_trivial(self):
        T = generate_multiplier(5, seed=0, n_intervals=20)
        one = Signal(np.ones(32))
        cert = dominate_avg(T, one, one)
        assert cert.lhs == 0.0
        assert structural_ok(cert)

    def test_single_interval_single_mode(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 5)
        cert = dominate_avg(T, f, f)
        assert list(cert.collection) == [ROOT]
        assert cert.subfamilies[ROOT] == (ROOT,)
        assert cert.lhs == pytest.approx(1.0)
        assert cert.rhs == pytest.approx(1.0)
        assert cert.realized_constant <= 1.0 + 1e-12

    def test_random_campaign_structure(self):
        for seed in range(15):
            f = spiky_signal(7, seed)
            g = spiky_signal(7, seed + 100)
            T = generate_multiplier(7, seed=seed + 200, n_intervals=80)
            cert = dominate_avg(T, f, g)
            assert structural_ok(cert)
            assert cert.checks["size_control_ok"]
            assert np.isfinite(cert.realized_constant)
            # half budget means at most 2-Carleson
            assert cert.carleson <= 2.0 + 1e-9

    def test_localization_bound_recorded(self):
        f = spiky_signal(6, 1)
        g = spiky_signal(6, 2)
        T = generate_multiplier(6, seed=3, n_intervals=40)
        cert = dominate_avg(T, f, g)
        ratios = [e["localization_ratio"] for e in cert.per_interval
                  if "localization_ratio" in e]
        assert ratios and max(ratios) < 16.0

    def test_selected_family_size_control(self):
        f = spiky_signal(6, 4)
        g = spiky_signal(6, 5)
        T = generate_multiplier(6, seed=6, n_intervals=50)
        cert = dominate_avg(T, f, g, M=8)
        for e in cert.per_interval:
            if "tilde_size_f" in e:
                assert e["tilde_size_f"] <= cert.stopping_constant * e["f_chi_avg"] * (1 + 1e-9)

    def test_rejects_small_c(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 4)
        with pytest.raises(ValueError):
            dominate_avg(T, f, f, C=0.5)

    def test_depth_mismatch(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        with pytest.raises(ValueError):
            dominate_avg(T, Signal(np.ones(8)), Signal(np.ones(16)))


def _row_heap(f, M, nodes):
    """Reference chi heap: whole chi_sums_depth rows for every depth."""
    J = f.depth_J
    absf = np.abs(f.values)
    heap = np.full(1 << J, np.nan)
    for d in range(J):
        heap[1 << d : 2 << d] = kernels.chi_sums_depth(absf, J, d, M) / 2.0 ** (-d)
    return heap


def _test_signal(kind, J, seed):
    if kind == "zero":
        return Signal(np.zeros(1 << J))
    if kind == "constant":
        return Signal(np.full(1 << J, 1.5))
    return generate_signal(kind, J, seed=seed, k=3)


def _avg_certificate_json(T, f, g, M, C):
    try:
        return json.dumps(dominate_avg(T, f, g, M=M, C=C).to_dict(), sort_keys=True)
    except stopping.StoppingFailure as exc:
        return f"StoppingFailure: {exc}"


class TestAvgChiCacheEquivalence:
    """The ancestor-closure chi heap gives the certificate of whole rows."""

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @settings(max_examples=12, deadline=None)
    @given(J=st.integers(3, 6), seed=st.integers(0, 10_000),
           n_intervals=st.integers(1, 40), C=st.sampled_from([1.0, 4.0]),
           M=st.sampled_from([1, 8]), signs_only=st.booleans())
    def test_matches_full_rows(self, kind, J, seed, n_intervals, C, M, signs_only):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals,
                                signs_only=signs_only)
        fast = _avg_certificate_json(T, f, g, M, C)
        with mock.patch.object(stopping, "_chi_heap", _row_heap):
            reference = _avg_certificate_json(T, f, g, M, C)
        assert fast == reference


class TestAvgTildeSize:
    """Avg's recorded tilde sizes, read at the chi heap's argmax, are the
    whole sub-family's tilde_size bit for bit."""

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @settings(max_examples=10, deadline=None)
    @given(J=st.integers(1, 8), seed=st.integers(0, 10_000), full=st.booleans(),
           n_intervals=st.integers(1, 60), C=st.sampled_from([1.0, 4.0]),
           M=st.sampled_from([1, 8]))
    def test_equals_whole_subfamily(self, kind, J, seed, full, n_intervals, C, M):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = full_multiplier(J) if full else \
            generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals)
        try:
            cert = dominate_avg(T, f, g, M=M, C=C)
        except stopping.StoppingFailure:
            return
        for e in cert.per_interval:
            fam = cert.subfamilies[e["Q"]]
            assert ("tilde_size_f" in e) == bool(fam)
            if fam:
                assert e["tilde_size_f"] == tilde_size(f, fam, M)
                assert e["tilde_size_g"] == tilde_size(g, fam, M)


class TestDominateSquare:
    def test_cauchy_schwarz_case(self):
        for seed in range(10):
            f = spiky_signal(7, seed + 300)
            g = spiky_signal(7, seed + 400)
            T = generate_multiplier(7, seed=seed + 500, n_intervals=70)
            cert = dominate_square(T, f, g, p=2.0, q=2.0)
            assert structural_ok(cert)
            max_eps = max(abs(e) for e in T.coefficients)
            assert cert.checks["cs_ratio_max"] <= max_eps * (1 + 1e-9)

    def test_single_mode_structure(self):
        T = HaarMultiplier.from_dict({I(1, 0): 1.0})
        f = htilde(I(1, 0), 5)
        cert = dominate_square(T, f, f, p=2.0, q=2.0)
        assert list(cert.collection) == [I(1, 0)]
        assert cert.realized_constant <= 1.0 + 1e-9

    def test_small_exponents_run(self):
        f = spiky_signal(6, 7)
        g = spiky_signal(6, 8)
        T = generate_multiplier(6, seed=9, n_intervals=40)
        cert = dominate_square(T, f, g, p=0.5, q=0.5)
        assert structural_ok(cert)
        assert np.isfinite(cert.realized_constant)

    def test_collection_within_family(self):
        f = spiky_signal(6, 10)
        g = spiky_signal(6, 11)
        T = generate_multiplier(6, seed=12, n_intervals=40)
        cert = dominate_square(T, f, g, p=1.0, q=1.0)
        fam = set(T.intervals)
        assert all(Q in fam for Q in cert.collection)

    def test_exponent_validation(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 4)
        with pytest.raises(ValueError):
            dominate_square(T, f, f, p=0.0, q=1.0)


class TestDominateWeighted:
    def test_lebesgue_weight_matches_square(self):
        f = spiky_signal(6, 13)
        g = spiky_signal(6, 14)
        T = generate_multiplier(6, seed=15, n_intervals=40)
        w = Weight(np.ones(64))
        r = 0.5
        wc = dominate_weighted(T, f, g, w, p=1.0, r=r)
        sc = dominate_square(T, f, g, p=r, q=r)
        assert list(wc.collection) == list(sc.collection)
        assert wc.subfamilies == sc.subfamilies

    def test_single_mode_closed_form(self):
        # one mode, one interval: the pairing bound realizes exactly |eps|
        for eps in (1.0, -0.5):
            T = HaarMultiplier.from_dict({ROOT: eps})
            f = htilde(ROOT, 5)
            w = generate_weight("dyadic_doubling", 5, seed=16, delta=0.6)
            cert = dominate_weighted(T, f, f, w, p=1.0, r=0.5)
            assert cert.realized_constant == pytest.approx(abs(eps), rel=1e-10)

    def test_weighted_budget_in_weight_measure(self):
        for seed in range(8):
            f = spiky_signal(6, seed + 600)
            g = spiky_signal(6, seed + 700)
            T = generate_multiplier(6, seed=seed + 800, n_intervals=40)
            w = generate_weight("dyadic_doubling", 6, seed=seed, delta=0.4)
            cert = dominate_weighted(T, f, g, w, p=1.0, r=0.5)
            assert structural_ok(cert)
            for Q in cert.collection:
                kids = cert.children[Q]
                assert sum(w.measure(P) for P in kids) <= 0.5 * w.measure(Q) * (1 + 1e-12)

    @pytest.mark.parametrize("cells", [8, 64])
    def test_weight_depth_must_match_signals(self, cells):
        T = generate_multiplier(5, seed=1, n_intervals=10)
        f = spiky_signal(5, 2)
        with pytest.raises(ValueError, match="weight depth"):
            dominate_weighted(T, f, f, Weight(np.ones(cells)))

    def test_parameter_validation(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 4)
        w = Weight(np.ones(16))
        with pytest.raises(ValueError):
            dominate_weighted(T, f, f, w, p=2.0)
        with pytest.raises(ValueError):
            dominate_weighted(T, f, f, w, p=1.0, r=1.5)


class TestDominateOscillation:
    def test_constant_trivial(self):
        T = generate_multiplier(5, seed=17, n_intervals=20)
        one = Signal(np.full(32, 2.0))
        cert = dominate_oscillation(T, one, one)
        assert cert.lhs == 0.0
        assert structural_ok(cert)

    def test_single_mode_realized_at_most_one(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 5)
        cert = dominate_oscillation(T, f, f)
        assert cert.rhs == pytest.approx(1.0)  # osc = 1 at the root
        assert cert.realized_constant <= 1.0 + 1e-12

    def test_random_campaign_structure(self):
        for seed in range(10):
            f = spiky_signal(7, seed + 900)
            g = spiky_signal(7, seed + 1000)
            T = generate_multiplier(7, seed=seed + 1100, n_intervals=60)
            cert = dominate_oscillation(T, f, g)
            assert structural_ok(cert)
            assert np.isfinite(cert.realized_constant)

    def test_polarized_fefferman_stein(self):
        # identity multiplier on the full family, mean-zero pair
        J = 7
        T = full_multiplier(J)
        worst = 0.0
        for seed in range(10):
            f0 = generate_signal("gaussian_noise", J, seed=seed + 1200)
            g0 = generate_signal("gaussian_noise", J, seed=seed + 1300)
            f = Signal(f0.values - f0.mean())
            g = Signal(g0.values - g0.mean())
            cert = dominate_oscillation(T, f, g)
            assert structural_ok(cert)
            pairing = float(np.dot(f.values, g.values)) / f.n_cells
            assert abs(pairing) == pytest.approx(cert.lhs, rel=1e-9, abs=1e-12)
            sharp = np.dot(maximal(f, MaximalKind.sharp()).values,
                           maximal(g, MaximalKind.sharp()).values) / f.n_cells
            if pairing > 0:
                worst = max(worst, pairing / sharp)
        assert worst < 8.0  # recorded polarized Fefferman-Stein constant


# One-interval functionals as the per-candidate engine evaluated them.
def _ref_lp(vals, J, I, p, dx):
    prof = kernels.subtree_profile(vals, J, I.depth, I.index)
    return float(np.sum(prof ** (p / 2.0)) * dx) ** (1.0 / p) / I.length ** (1.0 / p)


def _ref_lp_w(vals, J, I, r, weight, dx):
    prof = kernels.subtree_profile(vals, J, I.depth, I.index)
    lo, hi = I.cell_range(J)
    s = float(np.sum(prof ** (r / 2.0) * weight.values[lo:hi]) * dx)
    return s ** (1.0 / r) / weight.measure(I) ** (1.0 / r)


def _ref_weak(vals, J, I, dx):
    prof = np.sort(np.sqrt(kernels.subtree_profile(vals, J, I.depth, I.index)))[::-1]
    return float(np.max(prof * np.arange(1, prof.size + 1))) * dx / I.length


def _maximal_intervals(intervals):
    kept = []
    for I in sorted(intervals, key=lambda I: (I.depth, I.index)):
        if not any(K.contains(I) for K in kept):
            kept.append(I)
    return kept


def _as_run(order, subfam, child_map):
    """The engine's node arrays for a run given as interval maps."""
    def columns(pairs):
        return np.array(pairs, dtype=np.intp).reshape(-1, 2).T

    members, owners = columns([(I.node, Q.node) for Q in order for I in subfam[Q]])
    kids, parents = columns([(P.node, Q.node) for Q in order for P in child_map[Q]])
    return stopping._Run(np.array([Q.node for Q in order], dtype=np.intp),
                         members, owners, kids, parents)


class _HeapAverages:
    """The chi-average lookups the old average recursion made, on a heap."""

    def __init__(self, heap):
        self.heap, self.J = heap, heap.shape[0].bit_length() - 1

    def avg(self, I):
        return float(self.heap[I.node])


def _reference_run_avg(intervals, chif, chig, C):
    stock = set(intervals)
    order, subfam, child_map = [], {}, {}
    agenda = _maximal_intervals(stock)
    guard = 0
    while agenda:
        nxt = []
        for Q0 in agenda:
            rf, rg = C * chif.avg(Q0), C * chig.avg(Q0)
            members = [I for I in stock if Q0.contains(I)]
            selected = [I for I in members
                        if chif.avg(I) <= rf and chig.avg(I) <= rg]
            chosen_set = set(selected)
            survivors = [I for I in members if I not in chosen_set]
            stock.difference_update(selected)
            order.append(Q0)
            subfam[Q0] = tuple(sorted(selected))

            # candidate children: ancestors of survivors strictly inside Q0,
            # shallowest first, keeping the maximal violating ones
            cands = set()
            for I in survivors:
                for d in range(Q0.depth + 1, I.depth + 1):
                    cands.add(I.ancestor(d))
            chosen = []
            for Q in sorted(cands, key=lambda I: (I.depth, I.index)):
                if any(K.contains(Q) for K in chosen):
                    continue
                if chif.avg(Q) > rf or chig.avg(Q) > rg:
                    chosen.append(Q)
            child_map[Q0] = tuple(sorted(chosen))
            nxt.extend(chosen)
        agenda = nxt
        guard += 1
        if guard > 4 * (chif.J + 2):
            raise stopping._RetryNeeded("average-mode stopping failed to terminate")
    return order, subfam, child_map


def _reference_run_family(nodes, heaps, functionals, refs, C):
    """The per-interval engines: the old average recursion on fixed heaps,
    and one functional call per stock member for the other modes."""
    intervals = [DyadicInterval.from_node(n) for n in nodes.tolist()]
    if all(functional is None for functional in functionals):
        return _as_run(*_reference_run_avg(intervals, *map(_HeapAverages, heaps), C))

    def value(k, heap, I):
        return float(functionals[k](heap, I.depth, np.array([I.index]))[0])

    heaps = [h.copy() for h in heaps]
    stock = set(intervals)
    order, subfam, child_map = [], {}, {}
    agenda = _maximal_intervals(stock)
    while agenda:
        nxt = []
        for Q0 in agenda:
            members = sorted(I for I in stock if Q0.contains(I))
            if refs is None:
                bounds = [C * value(k, h, Q0) for k, h in enumerate(heaps)]
            else:
                bounds = [C * rf(Q0) for rf in refs]
            selected = [I for I in members
                        if all(value(k, h, I) <= b for k, (h, b) in enumerate(zip(heaps, bounds)))]
            rejected = [I for I in members if I not in selected]
            if Q0 in stock and Q0 not in selected:
                raise stopping._RetryNeeded(f"{Q0} rejected itself at C={C}")
            for I in selected:
                stock.discard(I)
                for h in heaps:
                    h[I.node] = 0.0
            order.append(Q0)
            subfam[Q0] = tuple(selected)
            child_map[Q0] = tuple(sorted(_maximal_intervals(rejected)))
            nxt.extend(child_map[Q0])
        agenda = nxt
    return _as_run(order, subfam, child_map)


def _family_certificates(T, f, g, weights, C):
    runs = {"square1": lambda: dominate_square(T, f, g, p=1.0, q=1.0, C=C),
            "square2": lambda: dominate_square(T, f, g, p=2.0, q=2.0, C=C),
            "osc": lambda: dominate_oscillation(T, f, g, C=C),
            "atoms": lambda: atomic_decompose(f, p=1.0, C=C)}
    for k, w in enumerate(weights):
        runs[f"weighted{k}"] = lambda w=w: dominate_weighted(T, f, g, w, p=1.0, C=C)
    out = {}
    for name, run in runs.items():
        try:
            cert = run()
            # sub-families in the engine's node order, which sets the rhs sum order
            out[name] = [cert.to_dict(), [[Q.depth, Q.index] for Q in cert.subfamilies]]
        except stopping.StoppingFailure as exc:
            out[name] = f"StoppingFailure: {exc}"
    return json.dumps(out, sort_keys=True)


class TestFamilyEngineEquivalence:
    """The level-synchronous engine gives the per-candidate loop's certificates."""

    @pytest.mark.parametrize("J", [2, 5, 7])
    def test_functionals_equal_one_interval_formulas(self, J):
        rng = np.random.default_rng(J)
        vals = np.zeros(1 << J)
        vals[1:] = rng.standard_normal((1 << J) - 1) ** 2
        vals[rng.random(1 << J) < 0.3] = 0.0
        dx = 2.0 ** (-J)
        w = generate_weight("two_level", J, seed=J, t=64.0)
        wI = kernels.interval_sums(w.values) * 2.0 ** (-J)
        for d in range(J):
            index = rng.permutation(1 << d)
            got = {"lp": [stopping._lp_values(vals, J, d, index, p, dx) for p in (0.5, 1.0, 2.0)],
                   "w": [stopping._lp_w_values(vals, J, d, index, r, w.values, wI, dx)
                         for r in (0.25, 0.5)],
                   "weak": [stopping._weak_values(vals, J, d, index, dx)]}
            want = {"lp": [[_ref_lp(vals, J, I(d, i), p, dx) for i in index]
                           for p in (0.5, 1.0, 2.0)],
                    "w": [[_ref_lp_w(vals, J, I(d, i), r, w, dx) for i in index]
                          for r in (0.25, 0.5)],
                    "weak": [[_ref_weak(vals, J, I(d, i), dx) for i in index]]}
            for key in got:
                for a, b in zip(got[key], want[key]):
                    assert np.array_equal(a, np.array(b)), (key, d)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @settings(max_examples=10, deadline=None)
    @given(J=st.integers(2, 6), seed=st.integers(0, 10_000), full=st.booleans(),
           n_intervals=st.integers(1, 40), C=st.sampled_from([1.0, 4.0]))
    # sparse_haar here gives a generation whose agenda is not in (depth, index) order
    @example(J=6, seed=1, full=False, n_intervals=30, C=4.0)
    def test_matches_per_candidate_engine(self, kind, J, seed, full, n_intervals, C):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = full_multiplier(J) if full else \
            generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals)
        weights = (generate_weight("two_level", J, seed=seed + 3, t=64.0),
                   generate_weight("dyadic_doubling", J, seed=seed + 3, delta=0.25))
        fast = _family_certificates(T, f, g, weights, C)
        with mock.patch.object(stopping, "_run_family", _reference_run_family), \
                mock.patch.object(hardy, "_run_family", _reference_run_family):
            reference = _family_certificates(T, f, g, weights, C)
        assert fast == reference

    def test_self_rejection_retry_matches_reference(self):
        J = 5
        f, g = generate_signal("gaussian_noise", J, seed=0), generate_signal("gaussian_noise", J, seed=1)
        T = full_multiplier(J)
        engine, retried = stopping._run_family, []

        def spy(*args):
            try:
                return engine(*args)
            except stopping._RetryNeeded:
                retried.append(args[-1])
                raise

        with mock.patch.object(stopping, "_run_family", spy):
            cert = dominate_oscillation(T, f, g, C=1.0)
        assert retried == [1.0] and cert.stopping_constant == 2.0
        with mock.patch.object(stopping, "_run_family", _reference_run_family):
            reference = dominate_oscillation(T, f, g, C=1.0)
        assert cert.to_dict() == reference.to_dict()


def _certificate_json(run):
    """to_dict() JSON plus the sub-family order, or the stopping failure."""
    try:
        cert = run()
    except stopping.StoppingFailure as exc:
        return f"StoppingFailure: {exc}"
    return json.dumps([cert.to_dict(), [[Q.depth, Q.index] for Q in cert.subfamilies]],
                      sort_keys=True)


class TestAvgEngineEquivalence:
    """Avg on the one engine gives the old average recursion's certificates."""

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @settings(max_examples=10, deadline=None)
    @given(J=st.integers(2, 6), seed=st.integers(0, 10_000), full=st.booleans(),
           n_intervals=st.integers(1, 40), C=st.sampled_from([1.0, 4.0]),
           M=st.sampled_from([1, 8]))
    def test_matches_reference_recursion(self, kind, J, seed, full, n_intervals, C, M):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = full_multiplier(J) if full else \
            generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals)
        fast = _certificate_json(lambda: dominate_avg(T, f, g, M=M, C=C))
        with mock.patch.object(stopping, "_run_family", _reference_run_family):
            reference = _certificate_json(lambda: dominate_avg(T, f, g, M=M, C=C))
        assert fast == reference

    def test_children_need_not_be_family_members(self):
        # one deep mode under a large spike: the child is the maximal
        # violating ancestor of the survivor, outside the family
        J = 6
        vals = np.ones(1 << J)
        vals[:2] = 1e4
        T = HaarMultiplier.from_dict({ROOT: 1.0, I(5, 0): 1.0})
        cert = dominate_avg(T, Signal(vals), Signal(vals))
        kids = cert.children[ROOT]
        assert kids and not set(kids) & set(T.intervals)
        assert structural_ok(cert)
        with mock.patch.object(stopping, "_run_family", _reference_run_family):
            reference = dominate_avg(T, Signal(vals), Signal(vals))
        assert cert.to_dict() == reference.to_dict()


def _shuffled_multiplier(J, seed):
    """Every interval of depth < J with random coefficients, not in node order."""
    rng = np.random.default_rng(seed)
    base = full_multiplier(J).intervals
    perm = rng.permutation(len(base))
    return HaarMultiplier(tuple(base[k] for k in perm),
                          tuple(float(e) for e in rng.uniform(-1.0, 1.0, len(base))))


class TestFormSums:
    """lhs and every lambda_Q add their terms as per-interval Python sums do."""

    @pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
    def test_shuffled_family_matches_python_sums(self, mode):
        J = 7
        T = _shuffled_multiplier(J, seed=4)
        assert [I.node for I in T.intervals] != sorted(I.node for I in T.intervals)
        f, g = spiky_signal(J, 41), spiky_signal(J, 42)
        w = generate_weight("two_level", J, seed=43, t=64.0)
        cert = {"avg": lambda: dominate_avg(T, f, g, C=1.0),
                "square": lambda: dominate_square(T, f, g, p=1.0, q=1.0, C=1.0),
                "weighted": lambda: dominate_weighted(T, f, g, w, C=1.0),
                "osc": lambda: dominate_oscillation(T, f, g, C=1.0)}[mode]()
        cf, cg = haar_transform(f), haar_transform(g)
        eps = dict(zip(T.intervals, T.coefficients))

        def form(family):
            return float(sum(eps[I] * cf.heap[I.node] * cg.heap[I.node] for I in family))

        assert cert.lhs == abs(form(T.intervals))
        assert len(cert.per_interval) == len(cert.collection) > 1
        for entry in cert.per_interval:
            assert entry["lambda_Q"] == form(cert.subfamilies[entry["Q"]])
        assert structural_ok(cert)


class TestStructuralChecksFail:
    """partition_ok and forest_ok reject a tampered run."""

    def _certificate(self, mode, tamper):
        J = 6
        f, g = spiky_signal(J, 51), spiky_signal(J, 52)
        T = generate_multiplier(J, seed=53, n_intervals=40)
        real = stopping._with_retries

        def tampered(*args, **kwargs):
            run, C = real(*args, **kwargs)
            return tamper(run, T), C

        with mock.patch.object(stopping, "_with_retries", tampered):
            if mode == "avg":
                return dominate_avg(T, f, g)
            return dominate_square(T, f, g, p=1.0, q=1.0)

    @pytest.mark.parametrize("mode", ["avg", "square"])
    def test_untouched_run_passes(self, mode):
        cert = self._certificate(mode, lambda run, T: run)
        assert structural_ok(cert)

    @pytest.mark.parametrize("mode", ["avg", "square"])
    def test_duplicated_member(self, mode):
        def duplicate(run, T):
            return run._replace(members=np.append(run.members, run.members[0]),
                                owners=np.append(run.owners, run.owners[0]))

        cert = self._certificate(mode, duplicate)
        assert not cert.checks["partition_ok"]
        assert cert.checks["forest_ok"]

    @pytest.mark.parametrize("mode", ["avg", "square"])
    def test_foreign_member(self, mode):
        def foreign(run, T):
            family = {I.node for I in T.intervals}
            outsider = next(n for n in range(1, 1 << 6) if n not in family)
            members = run.members.copy()
            members[0] = outsider
            return run._replace(members=members)

        cert = self._certificate(mode, foreign)
        assert not cert.checks["partition_ok"]

    @pytest.mark.parametrize("mode", ["avg", "square"])
    def test_moved_child(self, mode):
        def move(run, T):
            assert run.kids.size and run.order.size > 2
            others = [Q for Q in run.order.tolist()
                      if Q not in (run.parents[0], run.kids[0])]
            parents = run.parents.copy()
            parents[0] = others[0]
            return run._replace(parents=parents)

        cert = self._certificate(mode, move)
        assert not cert.checks["forest_ok"]
        assert cert.checks["partition_ok"]


@pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
@pytest.mark.parametrize("depth", [3, 5])
def test_multiplier_deeper_than_signal(mode, depth):
    J = 3
    T = HaarMultiplier.from_dict({ROOT: 1.0, I(depth, 1): 0.5})
    f = spiky_signal(J, 61)
    run = {"avg": lambda: dominate_avg(T, f, f),
           "square": lambda: dominate_square(T, f, f),
           "weighted": lambda: dominate_weighted(T, f, f, Weight(np.ones(1 << J))),
           "osc": lambda: dominate_oscillation(T, f, f)}[mode]
    with pytest.raises(ValueError, match=f"multiplier interval at depth {depth} needs depth < 3"):
        run()


def _reference_lerner(phi, Q0, lam):
    """The depth-first walk over interval objects that lerner_decompose replaced."""
    J = phi.depth_J
    medians, omegas = {}, {}
    for d in range(Q0.depth, J + 1):
        B = 1 << (J - d)
        lo, hi = Q0.cell_range(J)
        blocks = np.sort(phi.values[lo:hi].reshape(-1, B), axis=1)
        off = Q0.index << (d - Q0.depth)
        k = int(np.floor(lam * B))
        keep = B - k
        om = np.zeros(blocks.shape[0]) if keep <= 1 else \
            np.min(blocks[:, keep - 1:] - blocks[:, : B - keep + 1], axis=1) / 2.0
        medians[d] = (off, blocks[:, (B - 1) // 2])
        omegas[d] = (off, om)

    def median(I):
        off, arr = medians[I.depth]
        return float(arr[I.index - off])

    def omega(I):
        off, arr = omegas[I.depth]
        return float(arr[I.index - off])

    selected, children_map, stack = [], {}, [Q0]
    while stack:
        Q = stack.pop()
        selected.append(Q)
        mQ, oQ = median(Q), omega(Q)
        raw = []
        if Q.depth < J:
            walk = [Q.left(), Q.right()]
            while walk:
                P = walk.pop()
                if abs(median(P) - mQ) > 2.0 * oQ:
                    raw.append(P)
                elif P.depth < J:
                    walk.extend((P.left(), P.right()))
        promoted = {P.parent() if P.depth > Q.depth + 1 else P for P in raw}
        kids = _maximal_intervals(promoted)
        children_map[Q] = tuple(sorted(kids))
        stack.extend(kids)
    lo, hi = Q0.cell_range(J)
    osum = np.zeros(hi - lo)
    for Q in selected:
        qlo, qhi = Q.cell_range(J)
        osum[qlo - lo : qhi - lo] += omega(Q)
    dev = np.abs(phi.values[lo:hi] - median(Q0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev > 0, dev / osum, 0.0)
    return sorted(selected), children_map, float(np.max(ratio))


class TestLerner:
    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @settings(max_examples=10, deadline=None)
    @given(J=st.integers(1, 8), seed=st.integers(0, 10_000), depth=st.integers(0, 8),
           lam=st.sampled_from([0.05, 0.125, 0.3, 0.45]))
    # sparse_haar and gaussian_noise cells whose omega sum rounds differently
    # when the chain is added deep first
    @example(J=5, seed=661, depth=0, lam=0.3)
    @example(J=4, seed=935, depth=0, lam=0.45)
    def test_matches_depth_first_walk(self, kind, J, seed, depth, lam):
        phi = _test_signal(kind, J, seed)
        d = min(depth, J)
        Q0 = I(d, seed % (1 << d))
        S, rep = lerner_decompose(phi, Q0, lam=lam)
        selected, children_map, K = _reference_lerner(phi, Q0, lam)
        assert list(S) == selected
        assert rep["K"] == K
        kids = [P.node for Q in children_map for P in children_map[Q]]
        parents = [Q.node for Q in children_map for P in children_map[Q]]
        assert rep["child_budget_ok"] == stopping.child_budget_ok(kids, parents)
        assert all(set(S.children(Q)) == set(children_map[Q]) for Q in S)

    def test_constant_signal(self):
        S, rep = lerner_decompose(Signal(np.full(64, 3.0)), ROOT)
        assert rep["K"] == 0.0
        assert rep["pointwise_ok"] and rep["child_budget_ok"]
        assert len(S) == 1

    def test_root_haar_mode(self):
        phi = htilde(ROOT, 6)
        S, rep = lerner_decompose(phi, ROOT, lam=0.125)
        assert rep["omega_Q0"] == pytest.approx(1.0)
        assert len(S) == 1
        assert rep["K"] == pytest.approx(2.0)
        assert rep["pointwise_ok"]

    def test_small_spike_is_covered(self):
        # spike below the lam-quantile: the jump interval's parent carries
        # the oscillation and must enter the collection
        vals = np.zeros(1 << 10)
        vals[:32] = 1000.0
        S, rep = lerner_decompose(Signal(vals), ROOT, lam=0.125)
        assert rep["pointwise_ok"]
        assert rep["child_budget_ok"]
        assert rep["K"] == pytest.approx(2.0)
        assert I(4, 0) in S

    def test_random_campaign(self):
        for seed in range(15):
            phi = generate_signal("gaussian_noise", 8, seed=seed + 1400)
            S, rep = lerner_decompose(phi, ROOT)
            assert rep["pointwise_ok"]
            assert rep["child_budget_ok"]
            assert rep["K"] < 4.0

    def test_subinterval_root(self):
        phi = generate_signal("gaussian_noise", 7, seed=1500)
        S, rep = lerner_decompose(phi, I(2, 1))
        assert rep["pointwise_ok"] and rep["child_budget_ok"]
        assert all(I(2, 1).contains(Q) for Q in S)

    def test_omega_values_match_oracle(self):
        phi = generate_signal("gaussian_noise", 6, seed=1600)
        S, rep = lerner_decompose(phi, ROOT, lam=0.125)
        assert rep["omega_Q0"] == pytest.approx(
            local_mean_oscillation(phi, ROOT, 0.125), abs=1e-15)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            lerner_decompose(Signal(np.ones(8)), ROOT, lam=0.75)
