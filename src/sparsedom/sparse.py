"""Sparse / Carleson collections: certification, operators, bilinear forms.

A collection is a node-array forest: its members' heap nodes and, for each,
its nearest member strictly above it.  Every budget, packing and sparsity
check reads those two arrays; intervals are built only when asked for.

Two sparsity certificates coexist.  The cheap one takes E_Q = Q minus the
union of the direct children (enough for every stopping-time output, which
obeys the 1/2 child budget).  The exact one solves the fractional
major-subset assignment as a small linear program and is only meant for
small instances; its optimum equals the reciprocal of the Carleson
constant, which is the sharp content of the sparse/Carleson equivalence.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

import numpy as np

from . import kernels
from .dyadic import DyadicInterval, Signal, average, chi_weights

__all__ = [
    "SparseCollection", "child_budget_ok", "carleson_constant", "certify_sparse",
    "sparse_vs_carleson", "max_sparse_eta_lp", "sparse_operator",
    "sparse_form", "bmo_norm", "LP_MAX_INTERVALS",
]

#: largest collection :func:`sparse_vs_carleson` hands to the exact LP
LP_MAX_INTERVALS = 300


def _depths(nodes):
    return np.frexp(nodes)[1] - 1


def _lengths(nodes):
    """|I| = 2**-depth of each heap node, exact."""
    return np.ldexp(1.0, -_depths(nodes))


def _forest(nodes):
    """Each node's nearest strict ancestor among the sorted ``nodes``, or 0:
    one ancestor_max pass over the heap holding each member's own node."""
    if not nodes.size:
        return nodes.copy()
    owner = np.zeros(1 << int(nodes[-1]).bit_length(), dtype=np.intp)
    owner[nodes] = nodes
    return kernels.ancestor_max(owner)[nodes >> 1]


class SparseCollection:
    """A finite family of dyadic intervals as a node-array forest.

    ``nodes`` holds the members' heap nodes in node order, which is
    (depth, index) order; ``parents[k]`` is the nearest member strictly
    containing ``nodes[k]``, or 0 for a root.  children(Q) are the maximal
    members strictly inside Q, the members whose parent is Q.
    """

    def __init__(self, intervals):
        self._set_nodes(np.array([I.node for I in intervals], dtype=np.intp))

    @classmethod
    def from_nodes(cls, nodes) -> "SparseCollection":
        S = cls.__new__(cls)
        S._set_nodes(np.asarray(nodes, dtype=np.intp))
        return S

    def _set_nodes(self, nodes):
        self.nodes = np.unique(nodes)
        self.parents = _forest(self.nodes)

    @functools.cached_property
    def intervals(self):
        return tuple(DyadicInterval.from_node(n) for n in self.nodes.tolist())

    def __len__(self):
        return self.nodes.size

    def __iter__(self):
        return iter(self.intervals)

    def __contains__(self, I):
        return bool(np.any(self.nodes == I.node))

    def children(self, Q: DyadicInterval):
        return tuple(map(DyadicInterval.from_node, self.nodes[self.parents == Q.node].tolist()))

    def has_forest(self, kids, parents) -> bool:
        """Whether the node-array pairs (parents[k], kids[k]) are exactly the
        collection's (parent, child) pairs."""
        inner, o = self.parents > 0, np.argsort(kids, kind="stable")
        return (np.array_equal(kids[o], self.nodes[inner])
                and np.array_equal(parents[o], self.parents[inner]))


def _measure(nodes, measure=None):
    return _lengths(nodes) if measure is None else measure[nodes]


def _child_sums(kids, parents, at, measure=None):
    """The child-complement rule: for each node of ``at``, the sum of measure
    over the kids whose parent it is, added in listed order from 0.0 as
    Python's sum adds them.  ``measure`` is a heap (default: lengths)."""
    sums = np.bincount(parents, weights=_measure(kids, measure),
                       minlength=int(at.max(initial=0)) + 1)
    return sums[at]


def child_budget_ok(kids, parents, measure=None) -> bool:
    """The 1/2 child budget: sum of measure(P) over the children P of each
    parent Q is <= measure(Q) / 2.

    ``kids[k]`` is a child of ``parents[k]`` (heap nodes; a 0 parent marks a
    root and is skipped).  ``measure`` is a heap of w(I), such as
    ``Weight.heap``; it defaults to the lengths.
    """
    kids, parents = np.asarray(kids, dtype=np.intp), np.asarray(parents, dtype=np.intp)
    q = parents[parents > 0]
    return bool(np.all(_child_sums(kids, parents, q, measure) <= 0.5 * _measure(q, measure)))


def _free_lengths(S: SparseCollection):
    """|Q| minus the lengths of its children, for every member (exact)."""
    return _lengths(S.nodes) - _child_sums(S.nodes, S.parents, S.nodes)


def carleson_constant(S: SparseCollection) -> float:
    """max over Q in S of the packing ratio |Q|**-1 sum over P <= Q of |P|.

    Self-inclusive, so any nonempty collection gives at least 1; the empty
    collection returns 0.  Lengths are dyadic, so the subtree sums are exact.
    """
    if len(S) == 0:
        return 0.0
    size, J = _lengths(S.nodes), int(S.nodes[-1]).bit_length()
    heap = np.zeros(1 << J)
    heap[S.nodes] = size
    return float(np.max(kernels.heap_subtree_sums(heap, J)[S.nodes] / size))


class _MajorSubsets(Mapping):
    """Read-only view of the major subsets: member -> boolean cell mask (the
    cells whose deepest member it is), in member order, built on access
    from the one cell-owner row."""

    def __init__(self, S: SparseCollection, cells: np.ndarray):
        self._S, self._cells = S, cells

    def __getitem__(self, Q):
        if not isinstance(Q, DyadicInterval) or Q not in self._S:
            raise KeyError(Q)
        return self._cells == Q.node

    def __iter__(self):
        return iter(self._S)

    def __len__(self):
        return len(self._S)


def certify_sparse(S: SparseCollection, eta: float, depth_J: int):
    """Greedy child-complement certificate: E_Q = Q minus its children.

    Returns (ok, major_subsets) where major_subsets maps Q to a boolean
    cell mask at resolution 2**-depth_J: the cells whose deepest member is
    Q (a read-only view, each mask built when read).  The E_Q are pairwise
    disjoint by construction; success means |E_Q| >= eta * |Q| for every Q.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    n = 1 << depth_J
    if len(S) and S.nodes[-1] >= 2 * n:
        raise ValueError(f"interval depth {S.intervals[-1].depth} exceeds signal depth {depth_J}")
    owner = np.zeros(2 * n, dtype=np.intp)
    owner[S.nodes] = S.nodes
    cells = kernels.ancestor_max(owner)[n:]
    got = np.bincount(cells, minlength=2 * n)[S.nodes] / n
    return not np.any(got < eta * _lengths(S.nodes) * (1.0 - 1e-12)), _MajorSubsets(S, cells)


def greedy_max_eta(S: SparseCollection) -> float:
    """Largest eta the child-complement construction certifies."""
    return float(np.min(_free_lengths(S) / _lengths(S.nodes), initial=1.0))


def max_sparse_eta_lp(S: SparseCollection) -> float:
    """Exact best eta over fractional disjoint major-subset assignments.

    Small-instance oracle (LP over member pairs); intended for depth <= 8
    collections.  Regions are the child-complement cells of each member, so
    variables are (receiver Q, region owner P <= Q) pairs.
    """
    from scipy.optimize import linprog

    m = len(S)
    if m == 0:
        return 1.0
    nodes, depth = S.nodes, _depths(S.nodes)
    # (receiver Q, owner P) for every Q containing P, row by row
    shift = depth[None, :] - depth[:, None]
    qi, pi = np.nonzero((shift >= 0)
                        & (nodes[None, :] >> np.maximum(shift, 0) == nodes[:, None]))
    cols = np.arange(qi.size)
    eta_col = qi.size              # assignments y + eta
    c = np.zeros(qi.size + 1)
    c[eta_col] = -1.0              # maximize eta
    a = np.zeros((2 * m, qi.size + 1))
    # demand rows: eta |Q| - sum_P y_{Q,P} <= 0
    a[:m, eta_col] = _lengths(nodes)
    a[qi, cols] = -1.0
    # capacity rows: sum_Q y_{Q,P} <= |region(P)|
    a[m + pi, cols] = 1.0
    b = np.concatenate((np.zeros(m), _free_lengths(S)))

    bounds = [(0, None)] * qi.size + [(0, 1)]
    res = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"major-subset LP failed: {res.message}")
    return float(res.x[eta_col])


def sparse_vs_carleson(S: SparseCollection) -> dict:
    """Report on the sparse/Carleson equivalence for one collection.

    Computes the Carleson constant, the greedy child-complement eta, and
    (up to LP_MAX_INTERVALS members) the exact LP eta; records the products
    eta * Lambda realised on each side and flags the greedy-vs-fractional
    gap.
    """
    lam = carleson_constant(S)
    greedy = greedy_max_eta(S)
    report = {
        "n_intervals": len(S),
        "carleson": lam,
        "greedy_eta": greedy,
        "greedy_eta_times_carleson": greedy * lam,
    }
    if 0 < len(S) <= LP_MAX_INTERVALS:
        eta = max_sparse_eta_lp(S)
        report["lp_eta"] = eta
        report["lp_eta_times_carleson"] = eta * lam
        report["greedy_gap"] = bool(eta > greedy + 1e-9)
    return report


def sparse_operator(S: SparseCollection, f: Signal) -> Signal:
    """T_S f = sum over Q of (mean of f on Q) 1_Q; positive and self-adjoint."""
    out = np.zeros(f.n_cells)
    for Q in S:
        lo, hi = Q.cell_range(f.depth_J)
        out[lo:hi] += average(f, Q)
    return Signal(out)


def sparse_form(S: SparseCollection, f: Signal, g: Signal,
                p: float = 1.0, q: float = 1.0, chi_M: int | None = None) -> float:
    """sum over Q of (avg |f|^p on Q)**1/p (avg |g|^q on Q)**1/q |Q|.

    With chi_M set, each average gains the localization weight chi_Q^M and
    extends over the whole domain: |Q|**-1 int |f|^p chi_Q^M.
    """
    if p <= 0 or q <= 0:
        raise ValueError("exponents must be > 0")
    total = 0.0
    dx = f.cell_width
    for Q in S:
        if chi_M is None:
            lo, hi = Q.cell_range(f.depth_J)
            af = np.mean(np.abs(f.values[lo:hi]) ** p) ** (1.0 / p)
            ag = np.mean(np.abs(g.values[lo:hi]) ** q) ** (1.0 / q)
        else:
            w = chi_weights(Q, f.depth_J, chi_M)
            af = (kernels.dot(np.abs(f.values) ** p, w) * dx / Q.length) ** (1.0 / p)
            ag = (kernels.dot(np.abs(g.values) ** q, w) * dx / Q.length) ** (1.0 / q)
        total += af * ag * Q.length
    return float(total)


def bmo_norm(collection, depth_J: int, signs=None) -> float:
    """Dyadic BMO norm of phi = sum over the collection of eps_I htilde_I.

    signs maps I -> +-1 (default +1).  The collection may not contain
    depth-J intervals (phi would not be representable at resolution J).
    """
    from .haar import htilde

    collection = list(collection)
    for I in collection:
        if I.depth >= depth_J:
            raise ValueError("collection contains an interval at the finest depth")
    vals = np.zeros(1 << depth_J)
    for I in collection:
        eps = 1.0 if signs is None else float(signs[I])
        vals += eps * htilde(I, depth_J).values
    phi = Signal(vals)
    best = 0.0
    for d in range(depth_J + 1):
        B = 1 << (depth_J - d)
        blocks = phi.values.reshape(-1, B)
        means = blocks.mean(axis=1, keepdims=True)
        best = max(best, float(np.max(np.abs(blocks - means).mean(axis=1))))
    return best
