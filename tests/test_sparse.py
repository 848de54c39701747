import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom.dyadic import DyadicInterval, ROOT, Signal, chi_weights
from sparsedom.exact import exact_carleson_constant
from sparsedom.generate import (SIGNAL_KINDS, full_multiplier, generate_multiplier,
                                generate_signal, generate_sparse_collection,
                                generate_weight)
from sparsedom.hardy import Weight
from sparsedom.serialize import dump_json, revalidate_certificate
from sparsedom.sparse import (SparseCollection, carleson_constant, certify_sparse,
                              child_budget_ok, greedy_max_eta, max_sparse_eta_lp,
                              sparse_operator, sparse_vs_carleson)
from sparsedom.stopping import dominate_avg, dominate_weighted


def I(d, i):
    return DyadicInterval(d, i)


def all_depths(top):
    return [I(d, i) for d in range(top + 1) for i in range(1 << d)]


def rand_signal(J, seed):
    return Signal(np.random.default_rng(seed).standard_normal(1 << J))


def node_pairs(children):
    """(kids, parents) node arrays of a map Q -> its children."""
    pairs = [(P.node, Q.node) for Q, kids in children.items() for P in kids]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def _reference_children(members, Q):
    """Maximal members strictly inside Q, by brute force over intervals."""
    inside = [P for P in members if Q.strictly_contains(P)]
    return [P for P in inside if not any(R.strictly_contains(P) for R in inside)]


def _reference_certify(members, children, eta, J):
    """The per-interval child-complement masks: Q's cells minus its children's."""
    n = 1 << J
    ok, major = True, {}
    for Q in members:
        lo, hi = Q.cell_range(J)
        mask = np.zeros(n, dtype=bool)
        mask[lo:hi] = True
        for P in children[Q]:
            plo, phi = P.cell_range(J)
            mask[plo:phi] = False
        major[Q] = mask
        if mask.sum() / n < eta * Q.length * (1.0 - 1e-12):
            ok = False
    return ok, major


# random node sets at depth J <= 8: gaps, several roots and deep lone nodes
node_sets = st.integers(0, 8).flatmap(
    lambda J: st.tuples(st.just(J), st.sets(st.integers(1, (2 << J) - 1), max_size=40)))


class TestForestProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=node_sets, seed=st.integers(0, 10_000),
           delta=st.sampled_from([0.25, 0.5, 0.8]))
    @example(case=(8, set()), seed=0, delta=0.5)
    @example(case=(8, {(1 << 8) + 77}), seed=1, delta=0.5)
    @example(case=(4, {2, 3, 9, 13, 26, 27, 31}), seed=2, delta=0.25)
    @example(case=(3, {1, 2, 3, 4, 5, 6, 7}), seed=3, delta=0.8)
    def test_matches_per_interval_reference(self, case, seed, delta):
        J, nodes = case
        members = sorted(DyadicInterval.from_node(n) for n in nodes)
        S = SparseCollection(members)
        T = SparseCollection.from_nodes(list(nodes))
        assert list(S) == list(T) == members and len(S) == len(members)
        assert np.array_equal(S.parents, T.parents)
        children = {Q: _reference_children(members, Q) for Q in members}
        for Q in members:
            assert Q in S
            assert list(S.children(Q)) == children[Q]
        kids, parents = node_pairs(children)
        assert S.has_forest(kids, parents)
        if kids.size:
            assert not S.has_forest(kids[1:], parents[1:])

        assert carleson_constant(S) == exact_carleson_constant(members)
        eta = 1.0
        for Q in members:
            eta = min(eta, (Q.length - sum(P.length for P in children[Q])) / Q.length)
        assert greedy_max_eta(S) == eta

        w = generate_weight("dyadic_doubling", max(J, 1), seed=seed, delta=delta)
        for measure, heap in ((lambda I: I.length, None), (w.measure, w.heap)):
            expected = all(sum(measure(P) for P in children[Q]) <= 0.5 * measure(Q)
                           for Q in members)
            assert child_budget_ok(kids, parents, heap) == expected
            assert child_budget_ok(S.nodes, S.parents, heap) == expected

        for eta in (0.5, 1.0):
            ok, major = certify_sparse(S, eta, max(J, 1))
            ref_ok, ref_major = _reference_certify(members, children, eta, max(J, 1))
            assert ok == ref_ok
            assert list(major) == list(ref_major)
            assert all(np.array_equal(major[Q], ref_major[Q]) for Q in members)


class TestCarleson:
    def test_disjoint_pair(self):
        S = SparseCollection([I(1, 0), I(1, 1)])
        assert carleson_constant(S) == 1.0

    def test_full_three_levels(self):
        assert carleson_constant(SparseCollection(all_depths(2))) == 3.0

    def test_full_tree_linear_growth(self):
        for J in (3, 5, 7):
            assert carleson_constant(SparseCollection(all_depths(J))) == J + 1

    def test_empty(self):
        assert carleson_constant(SparseCollection([])) == 0.0

    def test_restriction_stability(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            S = generate_sparse_collection(8, seed=seed)
            lam = carleson_constant(S)
            members = list(S)
            keep = [q for q in members if rng.random() < 0.6]
            if keep:
                assert carleson_constant(SparseCollection(keep)) <= lam + 1e-12

    def test_matches_exact_oracle(self):
        for seed in range(5):
            S = generate_sparse_collection(6, seed=seed + 20)
            assert carleson_constant(S) == pytest.approx(
                float(exact_carleson_constant(S)), rel=1e-13)


class TestCertify:
    def test_disjoint_full_eta(self):
        S = SparseCollection([I(1, 0), I(1, 1)])
        ok, major = certify_sparse(S, 1.0, 4)
        assert ok
        assert major[I(1, 0)].sum() == 8

    def test_full_levels_fail_at_half(self):
        S = SparseCollection(all_depths(2))
        ok, major = certify_sparse(S, 0.5, 4)
        assert not ok
        assert major[ROOT].sum() == 0  # children tile the root

    def test_major_subsets_disjoint(self):
        for seed in range(10):
            S = generate_sparse_collection(7, seed=seed)
            ok, major = certify_sparse(S, 0.5, 7)
            assert ok
            total = np.zeros(1 << 7, dtype=int)
            for mask in major.values():
                total += mask
            assert np.max(total) <= 1

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            certify_sparse(SparseCollection([ROOT]), 0.0, 3)


class TestLpOracle:
    def test_full_three_levels_third(self):
        S = SparseCollection(all_depths(2))
        eta = max_sparse_eta_lp(S)
        assert eta == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_disjoint_gives_one(self):
        S = SparseCollection([I(1, 0), I(1, 1)])
        assert max_sparse_eta_lp(S) == pytest.approx(1.0, abs=1e-9)

    def test_lp_eta_is_reciprocal_carleson(self):
        for seed in range(8):
            S = generate_sparse_collection(5, seed=seed + 40)
            eta = max_sparse_eta_lp(S)
            lam = carleson_constant(S)
            assert eta * lam == pytest.approx(1.0, abs=1e-7)

    def test_report_flags_greedy_gap(self):
        rep = sparse_vs_carleson(SparseCollection(all_depths(2)))
        assert rep["carleson"] == 3.0
        assert rep["greedy_eta"] == 0.0
        assert rep["lp_eta"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rep["greedy_gap"]

    def test_report_on_stopping_output(self):
        S = generate_sparse_collection(6, seed=3)
        rep = sparse_vs_carleson(S)
        assert rep["greedy_eta"] >= 0.5 - 1e-12
        assert 0.25 <= rep["lp_eta_times_carleson"] <= 4.0


class TestChildBudget:
    def test_length_measure(self):
        assert child_budget_ok(*node_pairs({ROOT: (I(1, 0),), I(1, 0): ()}))
        assert not child_budget_ok(*node_pairs({ROOT: (I(1, 0), I(5, 16))}))  # one cell more

    def test_weight_measure(self):
        w = Weight(np.array([2.0, 1.0, 0.5, 0.5]))  # w(ROOT) = 1, w(I(2, 0)) = 1/2
        assert child_budget_ok(*node_pairs({ROOT: (I(2, 0),)}), w.heap)
        assert not child_budget_ok(*node_pairs({ROOT: (I(2, 0), I(2, 3))}), w.heap)
        # half the length, but three quarters of the weight
        assert child_budget_ok(*node_pairs({ROOT: (I(2, 0), I(2, 1))}))
        assert not child_budget_ok(*node_pairs({ROOT: (I(2, 0), I(2, 1))}), w.heap)

    def test_revalidation_rejects_broken_budget(self):
        def record(children):
            per_q = [{"Q": [0, 0], "family": [[0, 0]], "children": children}]
            per_q += [{"Q": P, "family": [P], "children": []} for P in children]
            return {"mode": "square", "per_Q": per_q, "n_intervals": len(per_q),
                    "lhs": 1.0, "rhs": 1.0, "realized_constant": 1.0}

        assert revalidate_certificate(record([[1, 0]]))
        assert not revalidate_certificate(record([[1, 0], [3, 4]]))

    @pytest.mark.parametrize("mode", ["avg", "weighted"])
    def test_revalidation_rejects_mutated_certificates(self, mode):
        J = 6
        f = generate_signal("point_masses", J, seed=0, k=4)
        g = generate_signal("point_masses", J, seed=1, k=4)
        T = generate_multiplier(J, seed=2, n_intervals=40)
        cert = dominate_avg(T, f, g, C=1.0) if mode == "avg" else \
            dominate_weighted(T, f, g, generate_weight("dyadic_doubling", J, seed=3), C=1.0)
        data = json.loads(dump_json(cert.to_dict()))
        assert revalidate_certificate(data) and data["lhs"] > 0
        parents = [e for e in data["per_Q"] if e["children"]]
        assert parents and len(data["per_Q"]) > 1

        dropped = copy.deepcopy(data)
        next(e for e in dropped["per_Q"] if e["family"])["family"].pop()
        moved = copy.deepcopy(data)
        src = next(e for e in moved["per_Q"] if e["children"])
        dst = next(e for e in moved["per_Q"] if e is not src)
        dst["children"].append(src["children"].pop())
        halved = copy.deepcopy(data)
        halved["rhs"] *= 0.5
        duplicated = copy.deepcopy(data)
        leaf = next(e for e in duplicated["per_Q"] if not e["children"])
        duplicated["per_Q"].append({"Q": leaf["Q"], "family": [], "children": []})
        for broken in (dropped, moved, halved, duplicated):
            assert not revalidate_certificate(broken)


class TestSparseOperator:
    def test_root_only_constant(self):
        S = SparseCollection([ROOT])
        out = sparse_operator(S, Signal(np.ones(8)))
        assert np.all(out.values == 1.0)

    def test_two_interval_example(self):
        S = SparseCollection([ROOT, I(1, 0)])
        vals = np.zeros(8)
        vals[:4] = 1.0
        out = sparse_operator(S, Signal(vals))
        assert np.allclose(out.values[:4], 1.5)
        assert np.allclose(out.values[4:], 0.5)

    def test_self_adjoint(self):
        for seed in range(10):
            S = generate_sparse_collection(6, seed=seed + 60)
            f, g = rand_signal(6, seed), rand_signal(6, seed + 99)
            lhs = np.dot(sparse_operator(S, f).values, g.values)
            rhs = np.dot(f.values, sparse_operator(S, g).values)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_positive(self):
        S = generate_sparse_collection(5, seed=1)
        f = Signal(np.abs(rand_signal(5, 2).values))
        assert np.all(sparse_operator(S, f).values >= 0.0)


def _chi_sparse_form(S, f, g, M):
    """sum over Q in S of (|Q|**-1 int |f| chi_Q^M)(|Q|**-1 int |g| chi_Q^M)|Q|,
    one direct chi^M integral per member and signal."""
    total = 0.0
    dx = f.cell_width
    for Q in S:
        w = chi_weights(Q, f.depth_J, M)
        af = float(np.dot(np.abs(f.values), w)) * dx / Q.length
        ag = float(np.dot(np.abs(g.values), w)) * dx / Q.length
        total += af * ag * Q.length
    return total


class TestAvgRhs:
    """Avg's rhs is the chi^M-localized sparse form over its own collection."""

    @pytest.mark.parametrize("M", [1, 8])
    @pytest.mark.parametrize("family", ["random", "full"])
    def test_matches_chi_sparse_form(self, family, M):
        J = 7
        sizes = []
        for seed, kind in enumerate(SIGNAL_KINDS):
            T = generate_multiplier(J, seed=seed, n_intervals=48) if family == "random" \
                else full_multiplier(J)
            f = generate_signal(kind, J, seed=10 + seed)
            g = generate_signal("gaussian_noise", J, seed=20 + seed)
            cert = dominate_avg(T, f, g, M=M, C=1.0)
            sizes.append(len(cert.collection))
            want = _chi_sparse_form(cert.collection, f, g, M)
            assert cert.rhs == pytest.approx(want, rel=1e-12)
        assert max(sizes) > 1  # members shorter than the root
