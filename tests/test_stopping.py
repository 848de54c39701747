import contextlib
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom import kernels, stopping
from sparsedom.dyadic import DyadicInterval, ROOT, Signal, oscillation
from sparsedom.generate import (SIGNAL_KINDS, full_multiplier, generate_multiplier,
                                generate_signal, generate_weight)
from sparsedom.haar import HaarMultiplier, haar_transform, htilde, tilde_size
from sparsedom.hardy import Weight, atomic_decompose
from sparsedom.maximal import (MaximalKind, local_mean_oscillation, maximal,
                               shortest_window_oscillation)
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


def _owning(cert):
    """Each run node's "has a nonempty sub-family", in run order: the nodes
    that avg records a tilde size at."""
    return np.array([bool(fam) for fam in cert.subfamilies.values()], dtype=bool)


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
        ratios = cert.per_q["localization_ratio"][_owning(cert)]
        assert ratios.size and max(ratios) < 16.0

    def test_selected_family_size_control(self):
        f = spiky_signal(6, 4)
        g = spiky_signal(6, 5)
        T = generate_multiplier(6, seed=6, n_intervals=50)
        cert = dominate_avg(T, f, g, M=8)
        tf, fa = cert.per_q["tilde_size_f"], cert.per_q["f_chi_avg"]
        for k in np.flatnonzero(_owning(cert)):
            assert tf[k] <= cert.stopping_constant * fa[k] * (1 + 1e-9)

    def test_rejects_small_c(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        f = htilde(ROOT, 4)
        with pytest.raises(ValueError):
            dominate_avg(T, f, f, C=0.5)

    def test_depth_mismatch(self):
        T = HaarMultiplier.from_dict({ROOT: 1.0})
        with pytest.raises(ValueError):
            dominate_avg(T, Signal(np.ones(8)), Signal(np.ones(16)))


def _row_heaps(signals, M):
    """Reference chi heaps: whole chi_sums_depth rows of every depth, all
    integrated before the run and without bounds, so every test reads the
    integrals and nothing is left to fill."""
    J = signals[0].depth_J

    def rows(absv):
        return lambda d, index: kernels.chi_sums_depth(absv, J, d, M)[index] / 2.0 ** (-d)

    heaps = stopping._LazyHeaps(J, [rows(np.abs(s.values)) for s in signals])
    every = np.ones(1 << J, dtype=bool)
    every[0] = False
    heaps.read(every)
    return heaps


def _test_signal(kind, J, seed):
    if kind == "zero":
        return Signal(np.zeros(1 << J))
    if kind == "constant":
        return Signal(np.full(1 << J, 1.5))
    if kind in ("wide", "spike"):
        # cells spanning 1e+-150, and the same with one cell at 1e300
        rng = np.random.default_rng(seed)
        cells = rng.standard_normal(1 << J) * 10.0 ** rng.uniform(-150.0, 150.0, 1 << J)
        if kind == "spike":
            cells[rng.integers(1 << J)] = 1e300
        return Signal(cells)
    return generate_signal(kind, J, seed=seed, k=3)


def _avg_certificate_json(T, f, g, M, C):
    try:
        return json.dumps(dominate_avg(T, f, g, M=M, C=C).to_dict(), sort_keys=True)
    except (stopping.StoppingFailure, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestAvgChiCacheEquivalence:
    """The lazily filled chi heaps, read through certified bounds, give the
    certificate of whole rows; full families at C = 1 are where the bounds
    decide most tests."""

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant", "wide", "spike"))
    @settings(max_examples=12, deadline=None)
    @given(J=st.integers(3, 8), seed=st.integers(0, 10_000), full=st.booleans(),
           n_intervals=st.integers(1, 40), C=st.sampled_from([1.0, 4.0]),
           M=st.sampled_from([1, 8]), signs_only=st.booleans())
    @example(J=8, seed=1, full=True, n_intervals=1, C=1.0, M=8, signs_only=False)
    def test_matches_full_rows(self, kind, J, seed, full, n_intervals, C, M, signs_only):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = full_multiplier(J) if full else \
            generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals,
                                signs_only=signs_only)
        fast = _avg_certificate_json(T, f, g, M, C)
        with mock.patch.object(stopping, "_chi_heaps", _row_heaps):
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
        tf, tg = cert.per_q["tilde_size_f"], cert.per_q["tilde_size_g"]
        for k, fam in enumerate(cert.subfamilies.values()):
            if fam:
                assert tf[k] == tilde_size(f, fam, M)
                assert tg[k] == tilde_size(g, fam, M)
            else:
                assert tf[k] == tg[k] == 0.0


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

    def test_overflowing_oscillation_rejected(self):
        # the oscillation of a finite signal overflows: every selection test
        # would fail at every C
        f = Signal(np.tile([1.5e308, -1.5e308], 32))
        g = generate_signal("gaussian_noise", 6, seed=0)
        T = full_multiplier(6)
        with np.errstate(over="ignore"):
            for pair in ((f, g), (g, f)):
                with pytest.raises(ValueError, match="oscillation of the signal overflows"):
                    dominate_oscillation(T, *pair)

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


def _reference_run_avg(intervals, chif, chig, C, generations):
    """The old average recursion.  ``generations`` (a list) collects, per
    generation, the nodes it reads (each agenda node, its stock, and the
    candidate children) and its (child, parent) node arrays."""
    stock = set(intervals)
    order, subfam, child_map = [], {}, {}
    agenda = _maximal_intervals(stock)
    guard = 0
    while agenda:
        nxt, reads = [], set()
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
            reads.update(I.node for I in [Q0, *members, *cands])
            chosen = []
            for Q in sorted(cands, key=lambda I: (I.depth, I.index)):
                if any(K.contains(Q) for K in chosen):
                    continue
                if chif.avg(Q) > rf or chig.avg(Q) > rg:
                    chosen.append(Q)
            child_map[Q0] = tuple(sorted(chosen))
            nxt.extend(chosen)
        generations.append((reads, *_child_pairs(agenda, child_map)))
        agenda = nxt
        guard += 1
        if guard > 4 * (chif.J + 2):
            raise stopping._RetryNeeded("average-mode stopping failed to terminate")
    return order, subfam, child_map


def _child_pairs(agenda, child_map):
    """(kids, parents) node arrays of the agenda nodes' children."""
    pairs = [(P.node, Q.node) for Q in agenda for P in child_map.get(Q, ())]
    return tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)


def _reached(generations, measure=None):
    """The nodes of each generation up to the first whose children break
    the 1/2 budget, that one included: the generations the engine reaches
    before it drops a failing attempt."""
    out = set()
    for nodes, kids, parents in generations:
        out.update(nodes)
        if not stopping.child_budget_ok(kids, parents, measure):
            break
    return out


def _reference_run_family(nodes, heaps, refs, C, measure=None, signals=None, agendas=None,
                          weight=None):
    """The old retry policy on the per-interval engines: each attempt runs
    to completion, then the 1/2 budget is applied to the whole run, and a
    budget break raises _RetryNeeded.  The budget is taken in the measure
    of ``weight``, the test's own Weight (default: lengths), never in the
    ``measure`` the engine is handed, so a mode that hands the engine a
    wrong measure disagrees with this reference.

    ``agendas`` (a set) collects the agenda nodes of every generation the
    engine reaches (:func:`_reached`), a self-rejecting one's included."""
    measure = None if weight is None else weight.heap
    generations = []
    try:
        run = _reference_run(nodes, heaps, refs, C, signals, generations)
    finally:
        if agendas is not None:
            agendas.update(_reached(generations, measure))
    if not stopping.child_budget_ok(run.kids, run.parents, measure):
        raise stopping._RetryNeeded(f"the children break the 1/2 budget at C={C}")
    return run


def _reference_run(nodes, heaps, refs, C, signals, generations):
    """The per-interval engines: the old average recursion on fixed heaps,
    and one functional call per stock member for the other modes, on the
    coefficient heaps and functionals of a ``stopping._StockHeaps``.  Memo
    free: every value is evaluated afresh, and neither the engine's shared
    generation-1 values nor its bounds are read.  Fixed heaps and reference
    heaps are filled at every node before the run, for the certificate to
    read.

    With reference heaps ``refs`` (osc), each agenda node's references are
    the one-interval ``oscillation`` of ``signals``, the caller's own f and
    g, and ``refs`` itself is never read.  ``generations`` (a list) collects
    each generation's agenda nodes and (child, parent) node arrays, as
    :func:`_reference_run_avg` does."""
    intervals = [DyadicInterval.from_node(n) for n in nodes.tolist()]
    every = np.ones(heaps.heaps[0].shape[0], dtype=bool)
    if refs is not None:
        refs.read(every)
    if not isinstance(heaps, stopping._StockHeaps):
        heaps.read(every)
        return _as_run(*_reference_run_avg(intervals, *map(_HeapAverages, heaps.heaps), C,
                                           generations))
    functionals = heaps.functionals

    def value(k, heap, I):
        return float(functionals[k].values(heap, I.depth, np.array([I.index]))[0])

    heaps = [h.copy() for h in heaps.base]
    stock = set(intervals)
    order, subfam, child_map = [], {}, {}
    agenda = _maximal_intervals(stock)
    while agenda:
        # the agenda counts as reached even when one of its nodes rejects itself
        reached = {Q0.node for Q0 in agenda}
        generations.append((reached, *_child_pairs(agenda, child_map)))
        nxt = []
        for Q0 in agenda:
            members = sorted(I for I in stock if Q0.contains(I))
            if refs is None:
                bounds = [C * value(k, h, Q0) for k, h in enumerate(heaps)]
            else:
                bounds = [C * oscillation(s, Q0) for s in signals]
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
        generations[-1] = (reached, *_child_pairs(agenda, child_map))
        agenda = nxt
    return _as_run(order, subfam, child_map)


def _family_certificates(T, f, g, weights, C, reference=False):
    """Every family mode's certificate as JSON, on the engine or, with
    ``reference``, on the per-interval reference engine."""
    runs = {"square1": (None, lambda: dominate_square(T, f, g, p=1.0, q=1.0, C=C)),
            "square2": (None, lambda: dominate_square(T, f, g, p=2.0, q=2.0, C=C)),
            "osc": (None, lambda: dominate_oscillation(T, f, g, C=C)),
            "atoms": (None, lambda: atomic_decompose(f, p=1.0, C=C))}
    for k, w in enumerate(weights):
        runs[f"weighted{k}"] = (w, lambda w=w: dominate_weighted(T, f, g, w, p=1.0, C=C))
    out = {}
    for name, (weight, run) in runs.items():
        try:
            with contextlib.ExitStack() as stack:
                if reference:
                    engine = functools.partial(_reference_run_family, signals=(f, g),
                                               weight=weight)
                    stack.enter_context(mock.patch.object(stopping, "_run_family", engine))
                cert = run()
            # sub-families in the engine's node order, which sets the rhs sum order
            out[name] = [cert.to_dict(), [[Q.depth, Q.index] for Q in cert.subfamilies]]
        except stopping.StoppingFailure as exc:
            out[name] = f"StoppingFailure: {exc}"
    return json.dumps(out, sort_keys=True)


def _bounds_everywhere():
    """A patch under which every generation bounds its functional heaps,
    however narrow its open rows."""
    return mock.patch.multiple(stopping, _BOUND_ROWS=-1, _CALL_CELLS=0)


class TestBoundRule:
    """One cost rule decides where every lazy heap takes ranges."""

    def test_avg_bounds_a_depth_past_its_near_field(self):
        # a chi^M bound row reads the cells 2 CHI_NEAR + 1 times, an exact
        # value once: a depth is bounded once more nodes than that are open
        J, d, near = 8, 6, 2 * kernels.CHI_NEAR + 1
        f = generate_signal("gaussian_noise", J, seed=0)
        for n_open, bounded in ((near, False), (near + 1, True)):
            heaps = stopping._chi_heaps((f, f), 8)
            mask = kernels.node_mask((1 << d) + np.arange(n_open), 1 << J)
            exact = heaps._bound(0, mask)
            assert heaps._ranged[0, d] == bounded
            assert np.array_equal(exact, mask & ~heaps._ranged[0, d])

    @pytest.mark.parametrize("J", [8, 12, 13])
    def test_functional_heaps_bound_only_wide_stocks(self, J):
        # no depth's row holds more than 2**J cells, so at J <= 12 no depth
        # can pay for the exact call bounding adds; at J = 13 the whole
        # family's rows outweigh the pass and are bounded on the first read
        f = generate_signal("gaussian_noise", J, seed=J)
        full = stopping._squared(haar_transform(f).heap, "f")
        nodes = np.arange(1, 1 << J)
        narrow = nodes[nodes >= 1 << (J - 2)]
        for stock, wide in ((nodes, J > 12), (narrow, False)):
            heaps = stopping._StockHeaps(stock, (full,), (stopping._lp(J, 2.0, f.cell_width),))
            assert (heaps._bounds[0] is not None) == (J > 12)
            heaps.read(kernels.node_mask(stock[:1], 1 << J), kernels.node_mask(stock, 1 << J))
            assert heaps._ranged.any() == wide
            assert heaps.filled[0].all() != wide


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
    # a full family at C = 1 where, for three of the kinds, a weighted
    # generation's 1/2 budget verdict in w differs from its verdict in length
    @example(J=5, seed=3, full=True, n_intervals=1, C=1.0)
    def test_matches_per_candidate_engine(self, kind, J, seed, full, n_intervals, C):
        f = _test_signal(kind, J, seed)
        g = _test_signal(kind, J, seed + 1)
        T = full_multiplier(J) if full else \
            generate_multiplier(J, seed=seed + 2, n_intervals=n_intervals)
        weights = (generate_weight("two_level", J, seed=seed + 3, t=64.0),
                   generate_weight("dyadic_doubling", J, seed=seed + 3, delta=0.25))
        reference = _family_certificates(T, f, g, weights, C, reference=True)
        assert _family_certificates(T, f, g, weights, C) == reference
        with _bounds_everywhere():
            assert _family_certificates(T, f, g, weights, C) == reference

    def test_self_rejection_retry_matches_reference(self):
        J = 5
        f, g = generate_signal("gaussian_noise", J, seed=0), generate_signal("gaussian_noise", J, seed=1)
        T = full_multiplier(J)
        engine, retried = stopping._run_family, []

        def spy(nodes, heaps, refs, C, *rest, **kw):
            try:
                return engine(nodes, heaps, refs, C, *rest, **kw)
            except stopping._RetryNeeded:
                retried.append(C)
                raise

        with mock.patch.object(stopping, "_run_family", spy):
            cert = dominate_oscillation(T, f, g, C=1.0)
        assert retried == [1.0] and cert.stopping_constant == 2.0
        with mock.patch.object(stopping, "_run_family",
                               functools.partial(_reference_run_family, signals=(f, g))):
            reference = dominate_oscillation(T, f, g, C=1.0)
        assert cert.to_dict() == reference.to_dict()


class TestDeepSparseFamilies:
    """At J = 13 and 14, where a 96-interval family's stock is far smaller
    than the heap, the engine keeps its bookkeeping on node arrays and still
    gives the reference engines' certificates."""

    @staticmethod
    def _inputs(J, kind="gaussian_noise", family="random"):
        """f, g and a 96-interval multiplier: random intervals, mostly
        disjoint, or pieces of a few root-to-leaf chains, nested, whose runs
        take several generations and C doublings."""
        kw = {"k": 32} if kind == "sparse_haar" else {}
        f = generate_signal(kind, J, seed=J, **kw)
        g = generate_signal(kind, J, seed=J + 1, **kw)
        if family == "random":
            return generate_multiplier(J, seed=J + 2, n_intervals=96), f, g
        rng = np.random.default_rng(J + 2)
        nodes = set()
        while len(nodes) < 96:
            leaf = (1 << (J - 1)) + int(rng.integers(1 << (J - 1)))
            nodes.update(leaf >> k for k in range(int(rng.integers(J // 2, J))))
        nodes = rng.permutation(sorted(nodes))[:96]
        return HaarMultiplier.from_nodes(nodes, rng.uniform(-1.0, 1.0, 96)), f, g

    @pytest.mark.parametrize("J", [13, 14])
    @pytest.mark.parametrize("mode", ["avg", "square"])
    @pytest.mark.parametrize("kind", ["gaussian_noise", "sparse_haar"])
    @pytest.mark.parametrize("family", ["random", "chains"])
    def test_matches_reference_engine(self, J, mode, kind, family):
        T, f, g = self._inputs(J, kind, family)
        run = {"avg": lambda: dominate_avg(T, f, g, M=8, C=1.0),
               "square": lambda: dominate_square(T, f, g, C=1.0)}[mode]
        engine = functools.partial(_reference_run_family, signals=(f, g))
        fast = _certificate_json(run)
        with mock.patch.object(stopping, "_run_family", engine):
            assert fast == _certificate_json(run)
        assert json.loads(fast)[0]["checks"]["partition_ok"]

    def test_sparse_stock_makes_no_heap_pass(self):
        # a 96-node stock at J = 14 takes the node arrays for every lookup;
        # the whole heap's stock of a Gaussian signal's atoms takes the heap
        T, f, g = self._inputs(14)
        engine, heap_passes, inside = stopping._run_family, [], []
        ancestor_max = kernels.ancestor_max

        def max_spy(heap):
            if inside:
                heap_passes.append(heap.shape[0])
            return ancestor_max(heap)

        def engine_spy(*args, **kw):
            inside.append(True)
            try:
                return engine(*args, **kw)
            finally:
                inside.pop()

        with mock.patch.object(kernels, "ancestor_max", max_spy), \
                mock.patch.object(stopping, "_run_family", engine_spy):
            cert = dominate_square(T, f, g, C=4.0)
            assert cert.ok() and heap_passes == []
            atomic_decompose(f, p=1.0, C=4.0)
        assert heap_passes


@pytest.mark.parametrize("entry", ["avg", "square", "weighted", "osc", "atoms"])
@pytest.mark.parametrize("C", [math.nan, math.inf, 1e308])
def test_non_finite_stopping_constant_rejected(entry, C):
    # C = inf passes every test and C = nan fails them all; 1e308 is finite,
    # but its doublings are not
    J = 4
    f, g = generate_signal("gaussian_noise", J, seed=1), generate_signal("step", J, seed=2)
    T = generate_multiplier(J, seed=3, n_intervals=5)
    w = generate_weight("two_level", J, seed=4, t=4.0)
    run = {"avg": lambda: dominate_avg(T, f, g, C=C),
           "square": lambda: dominate_square(T, f, g, C=C),
           "weighted": lambda: dominate_weighted(T, f, g, w, C=C),
           "osc": lambda: dominate_oscillation(T, f, g, C=C),
           "atoms": lambda: atomic_decompose(f, p=1.0, C=C)}[entry]
    with pytest.raises(ValueError, match="stopping constant C must be finite"):
        run()


@pytest.mark.parametrize("p, q", [(math.nan, 2.0), (2.0, math.inf), (math.inf, math.nan)])
def test_non_finite_square_exponents_rejected(p, q):
    J = 4
    f = generate_signal("gaussian_noise", J, seed=1)
    T = generate_multiplier(J, seed=3, n_intervals=5)
    with pytest.raises(ValueError, match="exponents must be finite"):
        dominate_square(T, f, f, p=p, q=q)


def _certificate_json(run):
    """to_dict() JSON plus the sub-family order, or the stopping failure."""
    try:
        cert = run()
    except stopping.StoppingFailure as exc:
        return f"StoppingFailure: {exc}"
    return json.dumps([cert.to_dict(), [[Q.depth, Q.index] for Q in cert.subfamilies]],
                      sort_keys=True)


def _spike_case():
    """One deep mode under a large spike: avg's child lies outside the family."""
    vals = np.ones(1 << 6)
    vals[:2] = 1e4
    return HaarMultiplier.from_dict({ROOT: 1.0, I(5, 0): 1.0}), Signal(vals), Signal(vals)


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
        # the child is the maximal violating ancestor of the survivor,
        # outside the family
        T, f, g = _spike_case()
        cert = dominate_avg(T, f, g)
        kids = cert.children[ROOT]
        assert kids and not set(kids) & set(T.intervals)
        assert structural_ok(cert)
        with mock.patch.object(stopping, "_run_family", _reference_run_family):
            reference = dominate_avg(T, f, g)
        assert cert.to_dict() == reference.to_dict()


class TestAvgReadSet:
    """Avg integrates chi^M exactly only at nodes its runs read (family nodes,
    agenda nodes, and the paths strictly inside an agenda node down to its
    rejected nodes, up to the generation that breaks the 1/2 budget), each
    at most once per signal in one call, C doublings included.  Certified
    bounds settle the other tests: every agenda node is integrated, but not
    every node read.  Each tilde size is taken at its sub-family's whole-row
    argmax."""

    @staticmethod
    def _integrated(T, f, g, M, C):
        """The certificate, the (signal, node) pairs integrated in one call
        (signal 0 is f, the heap the engine fills first) and the (signal,
        node) pairs whose tilde size was taken."""
        chi_sums_depth, pairs, signals = kernels.chi_sums_depth, [], {}
        tilde, argmaxes = stopping.tilde_size, []

        def spy(absf, J, d, M, index=None):
            index = np.arange(1 << d) if index is None else np.asarray(index)
            k = signals.setdefault(id(absf), len(signals))
            pairs.extend((k, (1 << d) + i) for i in index.tolist())
            return chi_sums_depth(absf, J, d, M, index)

        def tilde_spy(s, family, M):
            argmaxes.extend((int(s is g), I.node) for I in family)
            return tilde(s, family, M)

        with mock.patch.object(kernels, "chi_sums_depth", spy), \
                mock.patch.object(stopping, "tilde_size", tilde_spy):
            cert = dominate_avg(T, f, g, M=M, C=C)
        return cert, pairs, argmaxes

    @staticmethod
    def _read_set(T, heaps, C, final_C):
        """(reads, agendas): family nodes plus each attempt's agenda nodes
        and the paths strictly inside them down to rejected nodes, and the
        agenda nodes alone, from the old recursion on whole-row heaps, up to
        the generation whose children break the 1/2 budget."""
        reads = {I.node for I in T.intervals}
        first = {Q.node for Q in _maximal_intervals(T.intervals)}
        agendas = set(first)
        for k in range(round(np.log2(final_C / C)) + 1):
            generations = []
            _reference_run_avg(list(T.intervals), *map(_HeapAverages, heaps),
                               C * 2.0**k, generations)
            reads |= _reached(generations)
            for _, kids, parents in generations:
                if not stopping.child_budget_ok(kids, parents):
                    break
                agendas.update(kids.tolist())
        return reads, agendas

    def _check(self, T, f, g, M=8, C=1.0):
        cert, pairs, argmaxes = self._integrated(T, f, g, M, C)
        assert len(pairs) == len(set(pairs)), "a node was integrated twice"
        heaps = _row_heaps((f, g), M).heaps
        reads, agendas = self._read_set(T, heaps, C, cert.stopping_constant)
        exact = [{node for k, node in pairs if k == signal} for signal in (0, 1)]
        for nodes in exact:
            assert nodes <= reads
            assert agendas <= nodes
        families = [np.array([I.node for I in fam], dtype=np.intp)
                    for fam in cert.subfamilies.values()]
        assert argmaxes == [(k, int(own[heaps[k][own].argmax()]))
                            for own in families if own.size for k in (0, 1)]
        return cert, exact

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @pytest.mark.parametrize("J", [6, 7])
    def test_full_family_at_c1(self, kind, J):
        f, g = _test_signal(kind, J, J), _test_signal(kind, J, J + 1)
        cert, _ = self._check(full_multiplier(J), f, g)
        # every kind but the exact ties of a zero signal doubles C at least once
        assert (cert.stopping_constant > 1.0) == (kind != "zero")

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    def test_random_family(self, kind):
        J = 10
        f, g = _test_signal(kind, J, 3), _test_signal(kind, J, 4)
        T = generate_multiplier(J, seed=5, n_intervals=96)
        _, exact = self._check(T, f, g, C=4.0)
        # fewer nodes than the family's ancestor closure
        closure = kernels.heap_subtree_sums(
            kernels.node_mask([I.node for I in T.intervals], 1 << J), J)
        assert all(len(nodes) < np.count_nonzero(closure) for nodes in exact)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero",))
    def test_full_family_exact_share(self, kind):
        # the bounds settle all but a few tests: at most 10% of the nodes are
        # integrated per signal
        J = 10
        f, g = _test_signal(kind, J, J), _test_signal(kind, J, J + 1)
        _, exact = self._check(full_multiplier(J), f, g)
        assert all(len(nodes) <= 0.1 * ((1 << J) - 1) for nodes in exact)

    def test_children_need_not_be_family_members(self):
        T, f, g = _spike_case()
        cert, exact = self._check(T, f, g, C=4.0)
        assert all({P.node for P in cert.children[ROOT]} <= nodes for nodes in exact)


class TestOscFillSet:
    """Osc computes oscillations exactly at its runs' agenda nodes, up to
    the generation that breaks the 1/2 budget, each at most once per signal
    in one call, C doublings included, and its certificate reads them at
    the right node."""

    @staticmethod
    def _filled(T, f, g, C):
        """The certificate and the (signal, node) pairs whose oscillation
        was computed in one call."""
        batched, pairs = stopping.oscillation, []

        def spy(s, nodes):
            assert not isinstance(nodes, DyadicInterval), "a per-interval call"
            pairs.extend((id(s), n) for n in np.asarray(nodes).tolist())
            return batched(s, nodes)

        with mock.patch.object(stopping, "oscillation", spy):
            cert = dominate_oscillation(T, f, g, C=C)
        return cert, pairs

    @staticmethod
    def _agenda_union(T, f, g, C):
        """Every attempt's agenda nodes up to the generation whose children
        break the 1/2 budget, from the per-interval reference engine on
        one-interval oscillations."""
        agendas = set()
        with mock.patch.object(stopping, "_run_family", functools.partial(
                _reference_run_family, signals=(f, g), agendas=agendas)):
            reference = dominate_oscillation(T, f, g, C=C)
        return reference, agendas

    def _check(self, T, f, g, C=1.0):
        cert, pairs = self._filled(T, f, g, C)
        assert len(pairs) == len(set(pairs)), "an oscillation was computed twice"
        by_signal = {}
        for signal, node in pairs:
            by_signal.setdefault(signal, set()).add(node)
        assert set(by_signal) == {id(f), id(g)}
        assert by_signal[id(f)] == by_signal[id(g)]
        reference, agendas = self._agenda_union(T, f, g, C)
        assert cert.stopping_constant == reference.stopping_constant
        assert by_signal[id(f)] == agendas
        of, og, rhs = (cert.per_q[k] for k in ("osc_f", "osc_g", "rhs_term"))
        for k, Q in enumerate(cert.subfamilies):
            assert of[k] == oscillation(f, Q)
            assert og[k] == oscillation(g, Q)
            assert rhs[k] == of[k] * og[k] * Q.length
        return cert, agendas

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    @pytest.mark.parametrize("J", [6, 7])
    def test_full_family_at_c1(self, kind, J):
        f, g = _test_signal(kind, J, J), _test_signal(kind, J, J + 1)
        cert, agendas = self._check(full_multiplier(J), f, g)
        assert {Q.node for Q in cert.collection} <= agendas
        # these kinds double C at least once, so the attempts share the fill
        assert (cert.stopping_constant > 1.0) == \
            (kind in ("gaussian_noise", "sparse_haar", "point_masses"))

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant"))
    def test_random_family(self, kind):
        J = 10
        f, g = _test_signal(kind, J, 3), _test_signal(kind, J, 4)
        T = generate_multiplier(J, seed=5, n_intervals=96)
        _, agendas = self._check(T, f, g, C=1.0)
        # fewer nodes than the family
        assert len(agendas) < len(T.intervals)


# the dense-hard signal kinds; g takes the next kind in the cycle, so a step
# f (one Haar mode) still meets a g that the stopping time must split
_HARD_KINDS = (("point_masses", {"k": 8}), ("sparse_haar", {"k": 32}),
               ("step", {}), ("gaussian_noise", {}))


def _pairs(members, owners):
    return sorted(zip(members.tolist(), owners.tolist()))


def _later_stocks(run, size):
    """The stock of each generation after the first, as boolean heaps: the
    members whose owner's generation is at least that one."""
    parent = dict(zip(run.kids.tolist(), run.parents.tolist()))
    gen = {}
    for Q in run.order.tolist():
        gen[Q] = gen[parent[Q]] + 1 if Q in parent else 1
    owner_gen = np.array([gen[Q] for Q in run.owners.tolist()], dtype=np.intp)
    return [kernels.node_mask(run.members[owner_gen >= k], size)
            for k in range(2, max(gen.values(), default=1) + 1)]


class TestIncrementalValues:
    """Reused value heaps are fresh evaluations, bit for bit, and generation 1
    is evaluated once per condition per call."""

    @pytest.mark.parametrize("mode", ["square2", "square1", "weighted", "osc", "atoms"])
    @pytest.mark.parametrize("kind", [kind for kind, _ in _HARD_KINDS])
    def test_reused_values_equal_fresh_values(self, mode, kind):
        # a failed attempt stops at its first over-budget generation, which
        # can leave a case with no later generation to reuse values in (step
        # and square2 at J = 8); at J = 10 every case has one
        J = 10
        T = full_multiplier(J)
        at = [k for k, _ in _HARD_KINDS].index(kind)
        (fk, fkw), (gk, gkw) = _HARD_KINDS[at], _HARD_KINDS[(at + 1) % len(_HARD_KINDS)]
        f, g = generate_signal(fk, J, seed=J, **fkw), generate_signal(gk, J, seed=J + 1, **gkw)
        w = generate_weight("two_level", J, seed=J + 2, t=64.0)
        run = {"square2": lambda: dominate_square(T, f, g, C=1.0),
               "square1": lambda: dominate_square(T, f, g, p=1.0, q=1.0, C=1.0),
               "weighted": lambda: dominate_weighted(T, f, g, w, C=1.0),
               "osc": lambda: dominate_oscillation(T, f, g, C=1.0),
               "atoms": lambda: atomic_decompose(Signal(f.values + g.values), p=1.0, C=1.0)}[mode]
        weight = w if mode == "weighted" else None
        engine, init, restocked = \
            stopping._run_family, stopping._StockHeaps.__init__, stopping._StockHeaps.restocked
        attempts, built, generations, kept = [], [], {}, []

        def check(heaps, stock):
            # every value the heaps hold at the stock, which is all the
            # engine reads, is the fresh evaluation over the stock bit for
            # bit, and every range they hold there brackets it
            for k, fn in enumerate(heaps.functionals):
                fresh = _fresh_values(fn, np.where(stock, heaps.base[k], 0.0), stock)
                filled = heaps.filled[k] & stock
                assert heaps.heaps[k][filled].tobytes() == fresh[filled].tobytes()
                if heaps.lo is not None:
                    lo, hi, fresh = heaps.lo[k][stock], heaps.hi[k][stock], fresh[stock]
                    assert np.all(lo <= fresh) and np.all(fresh <= hi)

        def engine_spy(nodes, heaps, refs, C, *rest, **kw):
            # each attempt decides as the memo-free per-interval engine does,
            # and takes every later generation's heaps from restocked
            attempts.append((nodes, heaps, []))
            try:
                want = _reference_run_family(nodes, heaps, refs, C, signals=(f, g),
                                             weight=weight)
            except stopping._RetryNeeded:
                with pytest.raises(stopping._RetryNeeded):
                    engine(nodes, heaps, refs, C, *rest, **kw)
                raise
            try:
                got = engine(nodes, heaps, refs, C, *rest, **kw)
            except stopping._RetryNeeded:
                pytest.fail(f"the engine rejects C={C}, which the reference accepts")
            assert np.array_equal(got.order, want.order)
            assert _pairs(got.members, got.owners) == _pairs(want.members, want.owners)
            assert _pairs(got.kids, got.parents) == _pairs(want.kids, want.parents)
            stocks = [stock.tobytes() for stock in attempts[-1][2]]
            assert stocks == [stock.tobytes() for stock in _later_stocks(want, 1 << J)]
            return got

        def init_spy(self, nodes, heaps, functionals):
            init(self, nodes, heaps, functionals)
            built.append(self)
            generations[id(self)] = (self, kernels.node_mask(nodes, 1 << J))

        def restocked_spy(self, stock, selected):
            check(*generations[id(self)])      # before a later generation changes it
            new = restocked(self, stock, selected)
            attempts[-1][2].append(stock.copy())
            generations[id(new)] = (new, stock.copy())
            redo = stock & kernels.heap_subtree_sums(selected, J)
            kept.append(int(np.count_nonzero(stock & ~redo)))
            return new

        with mock.patch.object(stopping, "_run_family", engine_spy), \
                mock.patch.object(stopping._StockHeaps, "__init__", init_spy), \
                mock.patch.object(stopping._StockHeaps, "restocked", restocked_spy), \
                _bounds_everywhere():
            run()
        assert len(attempts) >= 2 and sum(kept) > 0
        # generation 1 is built once per call, on the family, for every attempt
        assert len(built) == 1 and all(heaps is built[0] for _, heaps, _ in attempts)
        for heaps, stock in generations.values():
            check(heaps, stock)


def _fresh_values(functional, vals, stock):
    """The functional's value heap over ``vals``: its values at the stock
    nodes, one call per depth, and 0.0 elsewhere."""
    out = np.zeros(stock.shape[0])
    for d in range(stock.shape[0].bit_length() - 1):
        index = np.flatnonzero(stock[1 << d : 2 << d])
        if index.size:
            out[(1 << d) + index] = functional.values(vals, d, index)
    return out


class TestBudgetCut:
    """A generation whose children break the 1/2 budget ends its attempt:
    the engine evaluates no later generation of it."""

    @pytest.mark.parametrize("mode", ["square", "weighted"])
    def test_failed_attempt_stops_at_generation_one(self, mode):
        J = 8
        T = full_multiplier(J)
        f = generate_signal("gaussian_noise", J, seed=J)
        g = generate_signal("point_masses", J, seed=J + 1, k=8)
        w = generate_weight("two_level", J, seed=J + 2, t=64.0)
        measure = w.heap if mode == "weighted" else None
        engine, restocked = stopping._run_family, stopping._StockHeaps.restocked
        attempts, old = [], []      # per attempt: [C, raised, later generations]

        def engine_spy(nodes, heaps, refs, C, *rest, **kw):
            if not attempts:
                # the parent policy's first attempt, run to completion
                run = _reference_run(nodes, heaps, refs, C, (f, g), old)
                assert not stopping.child_budget_ok(run.kids, run.parents, measure)
            attempts.append([C, False, 0])
            try:
                return engine(nodes, heaps, refs, C, *rest, **kw)
            except stopping._RetryNeeded:
                attempts[-1][1] = True
                raise

        def restocked_spy(self, stock, selected):
            attempts[-1][2] += 1
            return restocked(self, stock, selected)

        with mock.patch.object(stopping, "_run_family", engine_spy), \
                mock.patch.object(stopping._StockHeaps, "restocked", restocked_spy):
            cert = (dominate_square(T, f, g, C=1.0) if mode == "square" else
                    dominate_weighted(T, f, g, w, C=1.0))
        # the old policy went on past a first generation that breaks the budget
        assert len(old) > 2
        _, kids, parents = old[0]
        assert not stopping.child_budget_ok(kids, parents, measure)
        # the engine dropped the attempt there, with no later generation evaluated
        assert attempts[0] == [1.0, True, 0]
        assert attempts[-1][:2] == [cert.stopping_constant, False]
        assert structural_ok(cert)


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
        lam = cert.per_q["lambda_Q"]
        assert lam.size == len(cert.collection) > 1
        for k, family in enumerate(cert.subfamilies.values()):
            assert lam[k] == form(family)
        assert structural_ok(cert)


class TestStructuralChecksFail:
    """partition_ok and forest_ok reject a tampered run."""

    def _certificate(self, mode, tamper):
        J = 6
        f, g = spiky_signal(J, 51), spiky_signal(J, 52)
        T = generate_multiplier(J, seed=53, n_intervals=40)
        real = stopping._stop

        def tampered(*args, **kwargs):
            run, C = real(*args, **kwargs)
            return tamper(run, T), C

        with mock.patch.object(stopping, "_stop", tampered):
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


def _overflow_signal(J):
    """Finite cells whose root Haar coefficient squares past the float range."""
    return Signal(np.repeat([1e200, -1e200], 1 << (J - 1)))


@pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
def test_overflowing_haar_squares_rejected(mode):
    J = 6
    F, g = _overflow_signal(J), generate_signal("gaussian_noise", J, seed=0)
    T, w = full_multiplier(J), generate_weight("dyadic_doubling", J, seed=1)
    run = {"avg": lambda f, g: dominate_avg(T, f, g),
           "square": lambda f, g: dominate_square(T, f, g),
           "weighted": lambda f, g: dominate_weighted(T, f, g, w),
           "osc": lambda f, g: dominate_oscillation(T, f, g)}[mode]
    for pair, role in (((F, g), "f"), ((g, F), "g"), ((F, F), "f")):
        with pytest.raises(ValueError, match=f"squared Haar coefficient of {role} overflows"):
            run(*pair)


def test_overflowing_haar_square_outside_family_is_unread():
    # only the family's squares enter a run: a family below the root
    # certifies the signal whose root coefficient overflows
    J = 6
    F = _overflow_signal(J)
    T = HaarMultiplier.from_dict({I(3, 1): 1.0, I(5, 2): -0.5})
    for cert in (dominate_avg(T, F, F), dominate_square(T, F, F),
                 dominate_oscillation(T, F, F)):
        assert cert.ok() and cert.lhs == 0.0


@pytest.mark.parametrize("cell", [1e200, 1e-200])
def test_weighted_value_out_of_float_range_rejected(cell):
    # finite cells whose w(I)**(1/r) overflows (or underflows to 0): the
    # weighted L^r values are not finite and would fail every selection test
    J = 6
    f, g = generate_signal("gaussian_noise", J, seed=0), generate_signal("gaussian_noise", J, seed=1)
    with pytest.raises(ValueError, match=r"weighted L\^r value of the square function overflows"):
        dominate_weighted(full_multiplier(J), f, g, Weight(np.full(1 << J, cell)))


def test_weighted_chain_weight_power_out_of_float_range_rejected():
    # constant signals give every stopping value 0, but w(Q)**(1/p) at
    # p = 1/2 overflows on cells of 1e200
    J = 6
    f, w = Signal(np.ones(1 << J)), Weight(np.full(1 << J, 1e200))
    with pytest.raises(ValueError, match=r"w\(Q\)\*\*\(1/p\) of the weight overflows"):
        dominate_weighted(full_multiplier(J), f, f, w, p=0.5)


def test_square_exponent_too_small_for_depth():
    # |I|**(1/p) underflows to 0 at depth 6 for p = 0.005 (2**-1200)
    J = 7
    f, g = spiky_signal(J, 71), spiky_signal(J, 72)
    with pytest.raises(ValueError, match=r"\|I\|\*\*\(1/p\) underflows at depth"):
        dominate_square(full_multiplier(J), f, g, p=0.005, q=0.005)


# The per-row formulas the final powers replaced: Python's ** on each row.
def _python_lp_rows(vals, J, d, index, p, dx):
    sums = np.sum(kernels.subtree_profile(vals, J, d, index) ** (p / 2.0), axis=1) * dx
    scale = (2.0 ** (-d)) ** (1.0 / p)
    return np.array([s ** (1.0 / p) / scale for s in sums.tolist()])


def _python_pow(x, e):
    """x ** e, or inf where the power overflows (Python raises there)."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _python_lp_w_rows(vals, J, d, index, r, wvals, wI, dx):
    """The weighted rows, with IEEE results where Python's ** or / raises:
    an overflowing power is inf, x / 0.0 is inf (nan for 0 / 0)."""
    prof = kernels.subtree_profile(vals, J, d, index) ** (r / 2.0)
    with np.errstate(over="ignore"):
        sums = np.sum(prof * wvals.reshape(1 << d, -1)[index], axis=1) * dx
    rows = []
    for s, m in zip(sums.tolist(), wI[(1 << d) + index].tolist()):
        num, den = _python_pow(s, 1.0 / r), _python_pow(m, 1.0 / r)
        rows.append(num / den if den else (math.nan if num == 0.0 else math.inf))
    return np.array(rows)


def _spread_values(rng, size, center, spread, kind):
    """Nonnegative values 10**(center +- spread), subnormals or a mix, with
    zeros sprinkled in."""
    wide = 10.0 ** (center + rng.uniform(-spread, spread, size))
    tiny = rng.integers(1, 1 << 30, size) * 5e-324
    vals = {"wide": wide, "subnormal": tiny, "mixed": np.where(rng.random(size) < 0.5, wide, tiny)}[kind]
    return np.where(rng.random(size) < 0.25, 0.0, vals)


class TestFinalPowersBitwise:
    """_lp_values and _lp_w_values take their final powers with
    np.float_power, which equals Python's ** bit for bit (np.power does not
    on every machine)."""

    EXPONENTS = (0.5, 1.0, 2.0, 1.0 / 0.7)

    @settings(max_examples=40, deadline=None)
    @given(J=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           center=st.floats(-150.0, 150.0), spread=st.floats(0.0, 20.0),
           kind=st.sampled_from(["wide", "subnormal", "mixed"]),
           exponent=st.sampled_from(EXPONENTS))
    def test_lp_values_equal_python_rows(self, J, seed, center, spread, kind, exponent):
        rng = np.random.default_rng(seed)
        vals = _spread_values(rng, 1 << J, center, spread, kind)
        vals[0] = 0.0
        p, dx = 1.0 / exponent, 2.0 ** (-J)
        for d in range(J):
            index = rng.permutation(1 << d)
            got = stopping._lp_values(vals, J, d, index, p, dx)
            want = _python_lp_rows(vals, J, d, index, p, dx)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), d

    @settings(max_examples=40, deadline=None)
    @given(J=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           center=st.floats(-150.0, 150.0), spread=st.floats(0.0, 20.0),
           w_center=st.floats(-170.0, 170.0),
           kind=st.sampled_from(["wide", "subnormal", "mixed"]),
           exponent=st.sampled_from(EXPONENTS))
    # values that overflow, that divide by an underflowed w(I)**2, and
    # profile times weight products that overflow
    @example(J=3, seed=0, center=170.0, spread=0.0, w_center=170.0, kind="wide", exponent=0.5)
    @example(J=5, seed=3, center=100.0, spread=5.0, w_center=140.0, kind="wide", exponent=2.0)
    @example(J=5, seed=3, center=0.0, spread=5.0, w_center=-170.0, kind="wide", exponent=2.0)
    def test_lp_w_values_equal_python_rows(self, J, seed, center, spread, w_center, kind,
                                           exponent):
        # a value out of the float range raises ValueError
        rng = np.random.default_rng(seed)
        vals = _spread_values(rng, 1 << J, center, spread, kind)
        vals[0] = 0.0
        w = Weight(10.0 ** (w_center + rng.uniform(-3.0, 3.0, 1 << J)))
        r, dx = 1.0 / exponent, 2.0 ** (-J)
        for d in range(J):
            index = rng.permutation(1 << d)
            want = _python_lp_w_rows(vals, J, d, index, r, w.values, w.heap, dx)
            if not np.all(np.isfinite(want)):
                with pytest.raises(ValueError, match="weighted L\\^r value"):
                    stopping._lp_w_values(vals, J, d, index, r, w.values, w.heap, dx)
                continue
            got = stopping._lp_w_values(vals, J, d, index, r, w.values, w.heap, dx)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), d


def _counting_intervals():
    """(patch, count): a patch counting every DyadicInterval built while
    it is active, in count[0]."""
    count, real = [0], DyadicInterval.__post_init__

    def spy(self):
        count[0] += 1
        real(self)

    return mock.patch.object(DyadicInterval, "__post_init__", spy), count


@pytest.mark.parametrize("mode", ["avg", "square", "weighted", "osc"])
def test_no_interval_per_family_member(mode):
    # the full family of depth < 8 (255 intervals) at C = 1 on point masses:
    # only avg's tilde sizes build intervals, one per node and signal
    J = 8
    T = full_multiplier(J)
    f = generate_signal("point_masses", J, seed=1, k=8)
    g = generate_signal("point_masses", J, seed=2, k=8)
    w = generate_weight("two_level", J, seed=3, t=64.0)
    run = {"avg": lambda: dominate_avg(T, f, g, C=1.0),
           "square": lambda: dominate_square(T, f, g, p=1.0, q=1.0, C=1.0),
           "weighted": lambda: dominate_weighted(T, f, g, w, C=1.0),
           "osc": lambda: dominate_oscillation(T, f, g, C=1.0)}[mode]
    patch, count = _counting_intervals()
    with patch:
        cert = run()
        built = count[0]
        record = cert.to_dict()
    assert len(cert.collection) > 4
    assert built <= (2 * len(cert.collection) if mode == "avg" else 0)
    assert count[0] == built
    assert record["n_intervals"] == len(T)
    # a view that is read builds its intervals then
    with patch:
        assert sum(len(fam) for fam in cert.subfamilies.values()) == len(T)
    assert count[0] > built



def test_node_views_iterate_run_order():
    # the collection in run order, which here is not node order; a member is
    # found whatever the order, and anything but a member interval is a
    # KeyError
    J = 8
    f = generate_signal("point_masses", J, seed=0, k=8)
    g = generate_signal("point_masses", J, seed=1, k=8)
    cert = dominate_square(full_multiplier(J), f, g, p=1.0, q=1.0, C=1.0)
    order = [DyadicInterval.from_node(n) for n in cert.run.order.tolist()]
    assert order != sorted(order)
    for view in (cert.subfamilies, cert.children):
        assert list(view) == order and len(view) == len(order)
        assert all(Q in view for Q in order)
    assert all(cert.subfamilies[Q][0] == Q for Q in order)
    # each key's group is its own members and kids, in node order
    run = cert.run
    for Q in order:
        own = np.sort(run.members[run.owners == Q.node]).tolist()
        kids = np.sort(run.kids[run.parents == Q.node]).tolist()
        assert cert.subfamilies[Q] == tuple(map(DyadicInterval.from_node, own))
        assert cert.children[Q] == tuple(map(DyadicInterval.from_node, kids))
    Q = order[-1]
    absent = next(P for P in map(DyadicInterval.from_node, range(1, 1 << J)) if P not in order)
    for key in (Q.node, (Q.depth, Q.index), I(J, 0), absent):
        for view in (cert.subfamilies, cert.children):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]


@pytest.mark.parametrize("mode", ["square", "atoms"])
def test_owner_sums_equal_python_sums(mode):
    # wide-range terms, so the sums depend on the order they are added in
    J = 8
    f = generate_signal("point_masses", J, seed=0, k=8)
    g = generate_signal("point_masses", J, seed=1, k=8)
    run = (dominate_square(full_multiplier(J), f, g, p=1.0, q=1.0, C=1.0).run
           if mode == "square" else atomic_decompose(f, p=1.0, C=1.0).run)
    assert run.order.tolist() != sorted(run.order.tolist())
    rng = np.random.default_rng(2)
    heap = rng.standard_normal(1 << J) * 10.0 ** rng.uniform(-20.0, 20.0, 1 << J)
    sums = stopping._owner_sums(run, heap)
    want = [sum(heap[np.sort(run.members[run.owners == Q])].tolist())
            for Q in run.order.tolist()]
    assert sums.tolist() == want

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_raises(self, bad):
        vals = np.linspace(-1.0, 1.0, 16)
        vals[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lerner_decompose(Signal(vals), ROOT)

    @pytest.mark.parametrize("kind", SIGNAL_KINDS + ("zero", "constant", "wide", "spike"))
    def test_flags_are_python_bools(self, kind):
        S, rep = lerner_decompose(_test_signal(kind, 7, 11), ROOT)
        assert type(rep["pointwise_ok"]) is bool and type(rep["child_budget_ok"]) is bool
        assert all(type(rep[k]) is float for k in ("K", "median_Q0", "omega_Q0"))

    @settings(max_examples=40, deadline=None)
    @given(J=st.integers(1, 7), seed=st.integers(0, 10_000), depth=st.integers(0, 7),
           lam=st.sampled_from([0.05, 0.125, 0.3, 0.45]))
    def test_signed_zeros(self, J, seed, depth, lam):
        # mostly zeros of both signs: the sorting networks may swap -0.0 and
        # +0.0, which moves no jump test and no omega sum, and the root row,
        # which the report reads, is numpy's own sort bit for bit
        rng = np.random.default_rng(seed)
        vals = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.0], 1 << J)
        phi = Signal(vals)
        d = min(depth, J)
        Q0 = I(d, seed % (1 << d))
        S, rep = lerner_decompose(phi, Q0, lam=lam)
        selected, children_map, K = _reference_lerner(phi, Q0, lam)
        assert list(S) == selected and repr(rep["K"]) == repr(K)
        assert all(set(S.children(Q)) == set(children_map[Q]) for Q in S)
        lo, hi = Q0.cell_range(J)
        root = np.sort(vals[lo:hi])
        assert repr(rep["median_Q0"]) == repr(float(root[(hi - lo - 1) // 2]))
        omega = shortest_window_oscillation(root, int(np.floor(lam * (hi - lo))))
        assert repr(rep["omega_Q0"]) == repr(float(omega))


@pytest.mark.parametrize("mode", ["square", "atoms", "weighted"])
def test_raising_value_at_a_bounded_node_still_raises(mode):
    # a full family at J = 8, bounded in generation 1, where the one node
    # class whose value raises lies below the agenda: the deepest depth,
    # where |I|**(1/p) underflows for p = 0.006 (the depth above stays
    # normal), and the depth-7 node over two cells of 1e-200, whose
    # w(I)**(1/r) underflows to 0.0.  The run raises the error an exact pass
    # over the whole family raises.
    J = 8
    T = full_multiplier(J)
    f, g = generate_signal("gaussian_noise", J, seed=1), generate_signal("gaussian_noise", J, seed=2)
    cells = np.ones(1 << J)
    cells[:2] = 1e-200
    run, match = {
        "square": (lambda: dominate_square(T, f, g, p=0.006, q=0.006),
                   r"\|I\|\*\*\(1/p\) underflows at depth 7 for p = 0.006"),
        "atoms": (lambda: atomic_decompose(f, p=0.012),
                  r"\|I\|\*\*\(1/p\) underflows at depth 7 for p = 0.006"),
        "weighted": (lambda: dominate_weighted(T, f, g, Weight(cells)),
                     r"weighted L\^r value of the square function overflows")}[mode]
    with pytest.raises(ValueError, match=match), _bounds_everywhere():
        run()
