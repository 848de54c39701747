"""Sparse / Carleson collections: certification, operators, bilinear forms.

Two sparsity certificates coexist.  The cheap one takes E_Q = Q minus the
union of the direct children (enough for every stopping-time output, which
obeys the 1/2 child budget).  The exact one solves the fractional
major-subset assignment as a small linear program and is only meant for
small instances; its optimum equals the reciprocal of the Carleson
constant, which is the sharp content of the sparse/Carleson equivalence.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dyadic import DyadicInterval, Signal, average, chi_weights

__all__ = [
    "SparseCollection", "child_budget_ok", "carleson_constant", "certify_sparse",
    "sparse_vs_carleson", "max_sparse_eta_lp", "sparse_operator",
    "sparse_form", "bmo_norm",
]


class SparseCollection:
    """A finite family of dyadic intervals with its child structure.

    children(Q) are the maximal members strictly inside Q.  Optional
    certification data (major subsets, eta, Carleson constant) is attached
    by :func:`certify_sparse` / :func:`carleson_constant`; after that the
    object is treated as immutable.
    """

    def __init__(self, intervals):
        self.intervals = tuple(sorted(set(intervals)))
        self._children = None
        self._roots = None
        self.major_subsets = None
        self.eta = None
        self.carleson = None

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __contains__(self, I):
        return I in set(self.intervals)

    def _build_forest(self):
        # walk up heap nodes (node >> 1 is the parent) to the nearest member;
        # members come in sorted order, so every child list is sorted
        members = {I.node: I for I in self.intervals}
        children = {I: [] for I in self.intervals}
        roots = []
        for I in self.intervals:
            node = I.node >> 1
            while node and node not in members:
                node >>= 1
            if node:
                children[members[node]].append(I)
            else:
                roots.append(I)
        self._children = {I: tuple(ch) for I, ch in children.items()}
        self._roots = tuple(roots)

    def children(self, Q: DyadicInterval):
        if self._children is None:
            self._build_forest()
        return self._children[Q]

    def roots(self):
        if self._roots is None:
            self._build_forest()
        return self._roots

    def subtree_measure(self):
        """measure(Q) -> sum of |P| over members P <= Q, via the forest."""
        order = sorted(self.intervals, key=lambda I: -I.depth)
        total = {}
        for Q in order:
            total[Q] = Q.length + sum(total[P] for P in self.children(Q))
        return total


def child_budget_ok(children, measure=None) -> bool:
    """The 1/2 child budget: sum of measure(P) over children P <= measure(Q) / 2.

    ``children`` maps each node Q to its children; ``measure`` defaults to
    the length, and ``Weight.measure`` gives the weighted budget.
    """
    if measure is None:
        def measure(I):
            return I.length
    return all(sum(measure(P) for P in kids) <= 0.5 * measure(Q)
               for Q, kids in children.items())


def carleson_constant(S: SparseCollection) -> float:
    """max over Q in S of the packing ratio |Q|**-1 sum over P <= Q of |P|.

    Self-inclusive, so any nonempty collection gives at least 1; the empty
    collection returns 0.
    """
    if len(S) == 0:
        return 0.0
    total = S.subtree_measure()
    lam = max(total[Q] / Q.length for Q in S)
    S.carleson = lam
    return lam


def certify_sparse(S: SparseCollection, eta: float, depth_J: int,
                   weight=None):
    """Greedy child-complement certificate: E_Q = Q minus its children.

    Returns (ok, major_subsets) where major_subsets maps Q to a boolean
    cell mask at resolution 2**-depth_J.  The E_Q are pairwise disjoint by
    construction; success means measure(E_Q) >= eta * measure(Q) for every
    Q (Lebesgue measure, or the weight's measure when one is passed).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    n = 1 << depth_J
    major = {}
    ok = True
    for Q in S:
        lo, hi = Q.cell_range(depth_J)
        mask = np.zeros(n, dtype=bool)
        mask[lo:hi] = True
        for P in S.children(Q):
            plo, phi = P.cell_range(depth_J)
            mask[plo:phi] = False
        major[Q] = mask
        if weight is None:
            got, need = mask.sum() / n, eta * Q.length
        else:
            got = float(np.sum(weight.values[mask])) / n
            need = eta * weight.measure(Q)
        if got < need * (1.0 - 1e-12):
            ok = False
    if ok:
        S.major_subsets = major
        S.eta = eta
    return ok, major


def greedy_max_eta(S: SparseCollection) -> float:
    """Largest eta the child-complement construction certifies."""
    if len(S) == 0:
        return 1.0
    best = 1.0
    for Q in S:
        free = Q.length - sum(P.length for P in S.children(Q))
        best = min(best, free / Q.length)
    return best


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
    members = list(S.intervals)
    idx = {Q: k for k, Q in enumerate(members)}
    region = {}
    for Q in members:
        free = Q.length - sum(P.length for P in S.children(Q))
        region[Q] = free

    pairs = [(qi, idx[P]) for qi, Q in enumerate(members)
             for P in members if Q.contains(P)]
    nvar = len(pairs) + 1          # assignments y + eta
    eta_col = len(pairs)
    c = np.zeros(nvar)
    c[eta_col] = -1.0              # maximize eta

    # demand rows: eta |Q| - sum_P y_{Q,P} <= 0
    a_rows, b_vals = [], []
    for qi, Q in enumerate(members):
        row = np.zeros(nvar)
        row[eta_col] = Q.length
        for col, (q2, p2) in enumerate(pairs):
            if q2 == qi:
                row[col] = -1.0
        a_rows.append(row)
        b_vals.append(0.0)
    # capacity rows: sum_Q y_{Q,P} <= |region(P)|
    for pi, P in enumerate(members):
        row = np.zeros(nvar)
        for col, (q2, p2) in enumerate(pairs):
            if p2 == pi:
                row[col] = 1.0
        a_rows.append(row)
        b_vals.append(region[P])

    bounds = [(0, None)] * len(pairs) + [(0, 1)]
    res = linprog(c, A_ub=np.array(a_rows), b_ub=np.array(b_vals),
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"major-subset LP failed: {res.message}")
    return float(res.x[eta_col])


def sparse_vs_carleson(S: SparseCollection, use_lp: bool | None = None) -> dict:
    """Report on the sparse/Carleson equivalence for one collection.

    Computes the Carleson constant, the greedy child-complement eta, and
    (for small instances) the exact LP eta; records the products eta *
    Lambda realised on each side and flags the greedy-vs-fractional gap.
    """
    lam = carleson_constant(S)
    greedy = greedy_max_eta(S)
    report = {
        "n_intervals": len(S),
        "carleson": lam,
        "greedy_eta": greedy,
        "greedy_eta_times_carleson": greedy * lam,
    }
    if use_lp is None:
        use_lp = len(S) <= 300
    if use_lp and len(S) > 0:
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
