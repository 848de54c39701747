"""Stopping-time constructions for sparse domination, with post-hoc checks.

Each construction returns a :class:`DominationCertificate`: the sparse
collection, the per-node sub-families partitioning the input family, both
sides of the target inequality, and the realized constant.  Certificates
never trust the proof: the partition, the 1/2 child budget (in the mode's
measure) and the domination inequality are all re-verified numerically.

The stopping threshold C only needs to be "large enough"; runs start from
the given C and double it on a failed budget check, a bounded number of
times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dyadic import DEFAULT_CHI_M, REL_SLACK, DyadicInterval, Signal, oscillation
from .haar import HaarMultiplier, haar_transform, tilde_size
from .maximal import DEFAULT_LAMBDA
from .sparse import SparseCollection, carleson_constant, child_budget_ok

__all__ = [
    "DominationCertificate", "dominate_avg", "dominate_square",
    "dominate_weighted", "dominate_oscillation", "lerner_decompose",
    "StoppingFailure",
]

MAX_DOUBLINGS = 8


class StoppingFailure(RuntimeError):
    """Raised when no admissible C is found within the doubling budget."""


class _RetryNeeded(Exception):
    pass


@dataclass
class DominationCertificate:
    mode: str
    collection: SparseCollection
    subfamilies: dict
    children: dict
    lhs: float
    rhs: float
    realized_constant: float
    stopping_constant: float
    eta: float
    carleson: float
    checks: dict
    per_interval: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(bool(v) for k, v in self.checks.items() if k.endswith("_ok"))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "C": self.stopping_constant,
            "eta": self.eta,
            "carleson": self.carleson,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "realized_constant": self.realized_constant,
            "n_intervals": sum(len(v) for v in self.subfamilies.values()),
            "params": self.params,
            "checks": {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                       for k, v in self.checks.items()},
            "per_Q": [
                {
                    "Q": [Q.depth, Q.index],
                    "family": [[I.depth, I.index] for I in self.subfamilies[Q]],
                    "children": [[P.depth, P.index] for P in self.children[Q]],
                }
                for Q in self.collection
            ],
        }


def _maximal_intervals(intervals):
    kept = []
    for I in sorted(intervals, key=lambda I: (I.depth, I.index)):
        if not any(K.contains(I) for K in kept):
            kept.append(I)
    return kept


def _lambda_value(eps, cf, cg, family) -> float:
    """Form restricted to ``family``; eps maps each interval to its coefficient."""
    return float(sum(eps[I] * cf.heap[I.node] * cg.heap[I.node] for I in family))


def _finalize(mode, T, cf, cg, order, subfam, child_map, C, rhs_fn, per_q_fn,
              measure=None, params=None):
    """Assemble the certificate and run the structural checks."""
    eps = dict(zip(T.intervals, T.coefficients))
    collection = SparseCollection(order)
    rhs_terms = {Q: rhs_fn(Q) for Q in order}
    rhs = float(sum(rhs_terms.values()))
    lhs = abs(_lambda_value(eps, cf, cg, T.intervals))

    # exact partition of the input family
    seen = [I for Q in order for I in subfam[Q]]
    partition_ok = (len(seen) == len(set(seen)) == len(T.intervals)
                    and set(seen) == set(T.intervals))

    # child budget at eta = 1/2 in the run's measure
    budget_ok = child_budget_ok(child_map, measure)

    # the recursion's children are exactly the collection's derived children
    forest_ok = all(set(collection.children(Q)) == set(child_map[Q]) for Q in order)

    # exact reconstruction of the form from the sub-families
    pieces = sum(_lambda_value(eps, cf, cg, subfam[Q]) for Q in order)
    whole = _lambda_value(eps, cf, cg, T.intervals)
    recon_ok = abs(pieces - whole) <= REL_SLACK * (1.0 + abs(whole))

    realized = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
    domination_ok = lhs == 0.0 or (np.isfinite(realized)
                                   and lhs <= realized * rhs * (1.0 + REL_SLACK))

    carleson = carleson_constant(collection) if len(collection) else 0.0

    checks = {
        "partition_ok": partition_ok,
        "child_budget_ok": budget_ok,
        "forest_ok": forest_ok,
        "reconstruction_ok": recon_ok,
        "domination_ok": domination_ok,
    }
    per_interval = []
    for Q in order:
        entry = {"Q": Q, "rhs_term": rhs_terms[Q],
                 "lambda_Q": _lambda_value(eps, cf, cg, subfam[Q])}
        if per_q_fn is not None:
            entry.update(per_q_fn(Q, subfam[Q]))
        per_interval.append(entry)
    return DominationCertificate(
        mode=mode, collection=collection, subfamilies=subfam, children=child_map,
        lhs=lhs, rhs=rhs, realized_constant=float(realized), stopping_constant=C,
        eta=0.5, carleson=carleson, checks=checks, per_interval=per_interval,
        params=params or {},
    )


def _with_retries(mode, run, C, measure=None):
    """run(C) from the given C, doubling C while the run cannot finish or its
    children break the 1/2 budget; returns (order, subfam, child_map, C)."""
    attempt_C = float(C)
    for _ in range(MAX_DOUBLINGS + 1):
        try:
            order, subfam, child_map = run(attempt_C)
        except _RetryNeeded:
            attempt_C *= 2.0
            continue
        if child_budget_ok(child_map, measure):
            return order, subfam, child_map, attempt_C
        attempt_C *= 2.0
    raise StoppingFailure(f"no admissible C up to {attempt_C} ({mode} mode)")


# ---------------------------------------------------------------------------
# chi^M average stopping time (L^1 averages)
# ---------------------------------------------------------------------------

class _ChiCache:
    """Heap of |I|**-1 int |f| chi_I^M over the ancestor closure of a family.

    The average stopping time reads no other interval: its nodes, stock
    members and candidate children all contain a family member.  Entries
    outside the closure stay NaN.
    """

    def __init__(self, f: Signal, M: int, intervals):
        J = self.J = f.depth_J
        absf = np.abs(f.values)
        rows = [set() for _ in range(J + 1)]
        for I in intervals:
            rows[I.depth].add(I.index)
        for d in range(J, 0, -1):
            rows[d - 1].update(i >> 1 for i in rows[d])
        self.heap = np.full(2 << J, np.nan)
        for d, row in enumerate(rows):
            index = sorted(row)
            if index:
                sums = kernels.chi_sums_depth(absf, J, d, M, index)
                self.heap[(1 << d) + np.array(index)] = sums / 2.0 ** (-d)

    def avg(self, I: DyadicInterval) -> float:
        return float(self.heap[I.node])


def _run_avg(intervals, chif, chig, C):
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
            raise _RetryNeeded("average-mode stopping failed to terminate")
    return order, subfam, child_map


def dominate_avg(T: HaarMultiplier, f: Signal, g: Signal,
                 M: int = DEFAULT_CHI_M, C: float = 4.0) -> DominationCertificate:
    """Sparse domination of the bilinear form by chi^M-localized L^1 averages.

    Recursion: generation zero holds the maximal intervals of the family;
    each node keeps the stock intervals whose chi-averages (for both f and
    g) stay below C times the node's own, and its children are the maximal
    dyadic intervals that contain a surviving stock interval and break one
    of the two average conditions.
    """
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1 for termination")
    if f.depth_J != g.depth_J:
        raise ValueError("f and g must share a depth")
    chif, chig = _ChiCache(f, M, T.intervals), _ChiCache(g, M, T.intervals)
    order, subfam, child_map, final_C = _with_retries(
        "avg", lambda c: _run_avg(T.intervals, chif, chig, c), C)

    cf, cg = haar_transform(f), haar_transform(g)
    eps = dict(zip(T.intervals, T.coefficients))

    def rhs_fn(Q):
        return chif.avg(Q) * chig.avg(Q) * Q.length

    def per_q(Q, fam):
        out = {"f_chi_avg": chif.avg(Q), "g_chi_avg": chig.avg(Q)}
        if fam:
            tf = tilde_size(f, fam, M)
            tg = tilde_size(g, fam, M)
            out["tilde_size_f"] = tf
            out["tilde_size_g"] = tg
            denom = tf * tg * Q.length
            lam = abs(_lambda_value(eps, cf, cg, fam))
            out["localization_ratio"] = lam / denom if denom > 0 else 0.0
            out["size_control_f"] = tf / (final_C * chif.avg(Q)) if chif.avg(Q) > 0 else 0.0
            out["size_control_g"] = tg / (final_C * chig.avg(Q)) if chig.avg(Q) > 0 else 0.0
        return out

    cert = _finalize("avg", T, cf, cg, order, subfam, child_map, final_C,
                     rhs_fn, per_q, params={"M": M, "p": 1.0, "q": 1.0})
    # selected families obey the size control by construction
    cert.checks["size_control_ok"] = all(
        e.get("size_control_f", 0.0) <= 1.0 + REL_SLACK
        and e.get("size_control_g", 0.0) <= 1.0 + REL_SLACK
        for e in cert.per_interval)
    return cert


# ---------------------------------------------------------------------------
# generic family stopping time (square / weighted / oscillation / atoms)
# ---------------------------------------------------------------------------

def _mask(intervals, size):
    """Boolean heap of the given length, set at the nodes of ``intervals``."""
    mask = np.zeros(size, dtype=bool)
    mask[[I.node for I in intervals]] = True
    return mask


def _down(heap):
    """Each entry replaced by the max over the node and all its ancestors."""
    out = heap.copy()
    for d in range(1, out.shape[0].bit_length() - 1):
        lo = 1 << d
        np.maximum(out[lo : 2 * lo], np.repeat(out[lo >> 1 : lo], 2), out=out[lo : 2 * lo])
    return out


def _maximal_nodes(mask):
    """Nodes set in a boolean heap with no set strict ancestor, in node order."""
    above = np.zeros_like(mask)
    above[2:] = np.repeat(_down(mask)[1 : mask.shape[0] >> 1], 2)
    return np.flatnonzero(mask & ~above)


def _value_heap(functional, vals, mask):
    """functional(vals, d, index) on the nodes set in mask, one call per
    depth; 0.0 elsewhere."""
    out = np.zeros(mask.shape[0])
    for d in range(mask.shape[0].bit_length() - 1):
        index = np.flatnonzero(mask[1 << d : 2 << d])
        if index.size:
            out[(1 << d) + index] = functional(vals, d, index)
    return out


def _run_family(intervals, heaps, functionals, refs, C):
    """One attempt at threshold C, level-synchronous over heap arrays.

    The stock is a boolean heap of the nodes of ``intervals``; each of
    ``heaps`` (squared coefficients) is copied and zeroed at every selected
    node.  The nodes of one generation (the agenda) are disjoint and
    ``functionals[k](heap, d, index)`` reads only the stock inside each
    interval, so one value heap V_k per generation, built with one call per
    depth, serves every agenda node at once.

    Tie policy: a stock node I inside agenda node Q0 is selected when
    V_k[I] <= C * V_k[Q0] for every k (``<=`` selects; with ``refs`` given,
    C * refs[k](Q0) replaces C * V_k[Q0]).  Q0 and its members read the same
    value heap, and every value equals the one-interval evaluation bit for
    bit.  An agenda node that fails its own test means C is too small.  Q0's
    children are its maximal rejected nodes, in (depth, index) order; each
    sub-family is in (depth, index) order, and the next agenda lists the
    children in agenda order.
    """
    heaps = [h.copy() for h in heaps]
    size = heaps[0].shape[0]
    by_node = {I.node: I for I in intervals}
    stock = _mask(intervals, size)
    agenda = [by_node[n] for n in _maximal_nodes(stock).tolist()]
    order, subfam, child_map = [], {}, {}
    while agenda:
        nodes = np.array([Q.node for Q in agenda])
        owner = np.zeros(size, dtype=np.intp)
        owner[nodes] = nodes
        owner = _down(owner)
        selected = stock.copy()
        for k, (functional, heap) in enumerate(zip(functionals, heaps)):
            V = ref = _value_heap(functional, heap, stock)
            if refs is not None:
                ref = np.zeros(size)
                ref[nodes] = [refs[k](Q) for Q in agenda]
            selected &= V <= C * ref[owner]
        if not selected[nodes].all():
            raise _RetryNeeded(f"an agenda node rejected itself at C={C}")
        rejected = stock & ~selected
        members = {Q.node: [] for Q in agenda}
        kids = {Q.node: [] for Q in agenda}
        for found, into in ((np.flatnonzero(selected), members), (_maximal_nodes(rejected), kids)):
            for n, o in zip(found.tolist(), owner[found].tolist()):
                into[o].append(by_node[n])
        for h in heaps:
            h[selected] = 0.0
        stock = rejected
        order.extend(agenda)
        for Q0 in agenda:
            subfam[Q0] = tuple(members[Q0.node])
            child_map[Q0] = tuple(kids[Q0.node])
        agenda = [P for Q0 in agenda for P in child_map[Q0]]
    return order, subfam, child_map


def _family_stock(T, f, g):
    """Haar coefficients of f and g and their squares on the family's nodes."""
    if g.depth_J != f.depth_J:
        raise ValueError("f and g must share a depth")
    cf, cg = haar_transform(f), haar_transform(g)
    fam_mask = _mask(T.intervals, 1 << f.depth_J)
    return cf, cg, cf.heap**2 * fam_mask, cg.heap**2 * fam_mask


def _lp_values(vals, J, d, index, p, dx):
    """|I|**-1/p times the L^p norm of the square root of the subtree
    profile, for the depth-d intervals I of ``index``."""
    sums = np.sum(kernels.subtree_profile(vals, J, d, index) ** (p / 2.0), axis=1) * dx
    scale = (2.0 ** (-d)) ** (1.0 / p)
    # Python float powers, as the one-interval formula takes them
    return np.array([s ** (1.0 / p) / scale for s in sums.tolist()])


def _lp_w_values(vals, J, d, index, r, wvals, wI, dx):
    """w(I)**-1/r times the L^r(w) norm of the profile square root; wI is
    the heap of w-measures."""
    prof = kernels.subtree_profile(vals, J, d, index) ** (r / 2.0)
    sums = np.sum(prof * wvals.reshape(1 << d, -1)[index], axis=1) * dx
    return np.array([s ** (1.0 / r) / m ** (1.0 / r)
                     for s, m in zip(sums.tolist(), wI[(1 << d) + index].tolist())])


def _weak_values(vals, J, d, index, dx):
    """|I|**-1 times the weak L^1 quasinorm of the profile square root."""
    prof = np.sort(np.sqrt(kernels.subtree_profile(vals, J, d, index)), axis=1)[:, ::-1]
    return np.max(prof * np.arange(1, prof.shape[1] + 1), axis=1) * dx / 2.0 ** (-d)


def dominate_square(T: HaarMultiplier, f: Signal, g: Signal,
                    p: float = 2.0, q: float = 2.0, C: float = 4.0) -> DominationCertificate:
    """Sparse domination by L^p/L^q averages of localized square functions.

    The stopping functional of a candidate interval is its normalized L^p
    norm of the square function restricted to the surviving stock; children
    are the maximal stock intervals violating either the f or the g
    condition.
    """
    if p <= 0 or q <= 0:
        raise ValueError("exponents must be > 0")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    cf, cg, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width

    def nf(vals, d, index):
        return _lp_values(vals, J, d, index, p, dx)

    def ng(vals, d, index):
        return _lp_values(vals, J, d, index, q, dx)

    def l2(vals, d, index):
        return _lp_values(vals, J, d, index, 2.0, dx)

    order, subfam, child_map, final_C = _with_retries(
        "square", lambda c: _run_family(T.intervals, (full_f, full_g), (nf, ng), None, c),
        C)
    nodes = _mask(order, 1 << J)
    Nf, Ng = _value_heap(nf, full_f, nodes), _value_heap(ng, full_g, nodes)
    Lf, Lg = _value_heap(l2, full_f, nodes), _value_heap(l2, full_g, nodes)

    def rhs_fn(Q):
        return float(Nf[Q.node] * Ng[Q.node] * Q.length)

    eps = dict(zip(T.intervals, T.coefficients))
    max_eps = max((abs(e) for e in T.coefficients), default=0.0)

    def per_q(Q, fam):
        lam = abs(_lambda_value(eps, cf, cg, fam))
        a2 = float(Lf[Q.node] * Lg[Q.node] * Q.length)
        return {"lambda_abs": lam, "l2_bound": a2,
                "cs_ratio": lam / a2 if a2 > 0 else 0.0}

    cert = _finalize("square", T, cf, cg, order, subfam, child_map, final_C,
                     rhs_fn, per_q, params={"p": p, "q": q})
    cert.checks["cs_ratio_max"] = max((e["cs_ratio"] for e in cert.per_interval),
                                      default=0.0)
    cert.checks["cs_ok"] = cert.checks["cs_ratio_max"] <= max_eps * (1.0 + REL_SLACK) \
        if cert.per_interval else True
    return cert


def dominate_weighted(T: HaarMultiplier, f: Signal, g: Signal, weight,
                      p: float = 1.0, r: float | None = None,
                      C: float = 4.0) -> DominationCertificate:
    """Weighted-sparse stopping time and the Hardy/CMO pairing bound.

    The stopping functional is the L^r(w)-normalized square function of the
    surviving stock; the child budget is checked in the w measure.  The
    certificate's inequality is |Lambda(f, g)| <= C' * ||f||_{H^p_w} *
    ||g||_{CMO^p_w} with C' recorded.
    """
    from .hardy import cmo_norm, hardy_norm

    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if r is None:
        r = p / 2.0
    if not 0.0 < r < p:
        raise ValueError("need 0 < r < p")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    if weight.depth_J != f.depth_J:
        raise ValueError(f"weight depth {weight.depth_J} differs from signal depth {f.depth_J}")
    if np.any(weight.values <= 0):
        raise ValueError("weight must be strictly positive")
    cf, cg, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width
    wvals = weight.values
    wI = kernels.interval_sums(wvals) * 2.0 ** (-J)   # w(I) as Weight.measure gives it

    def norm_w(vals, d, index):
        return _lp_w_values(vals, J, d, index, r, wvals, wI, dx)

    order, subfam, child_map, final_C = _with_retries(
        "weighted",
        lambda c: _run_family(T.intervals, (full_f, full_g), (norm_w, norm_w), None, c),
        C, measure=weight.measure)

    hf = hardy_norm(f, p, weight)
    cg_norm = cmo_norm(g, p, weight)
    rhs_product = hf * cg_norm

    def rhs_fn(Q):
        # omega-sparse chain term: w(Q)^{1/p} * ||S_{I_Q} f||_{L^r(w)} / w(Q)^{1/r}
        sel = np.where(_mask(subfam[Q], 1 << J), full_f, 0.0)
        term = float(norm_w(sel, Q.depth, np.array([Q.index]))[0])
        return term * weight.measure(Q) ** (1.0 / p) * cg_norm

    cert = _finalize("weighted", T, cf, cg, order, subfam, child_map, final_C,
                     rhs_fn, None, measure=weight.measure,
                     params={"p": p, "r": r})
    # the certified inequality is the pairing bound, not the chain sum
    cert.checks["chain_sum"] = cert.rhs
    cert.rhs = rhs_product
    cert.realized_constant = 0.0 if cert.lhs == 0.0 else \
        (np.inf if rhs_product == 0.0 else cert.lhs / rhs_product)
    cert.checks["domination_ok"] = (cert.lhs == 0.0) or np.isfinite(cert.realized_constant)
    cert.checks["hardy_norm_f"] = hf
    cert.checks["cmo_norm_g"] = cg_norm
    return cert


def dominate_oscillation(T: HaarMultiplier, f: Signal, g: Signal,
                         C: float = 4.0) -> DominationCertificate:
    """Sparse domination by products of L^1 oscillations.

    Candidates are kept while the weak L^{1,infinity} quasinorm of their
    restricted square function stays below C times the node's L^1
    oscillation (for both functions); children are the maximal violating
    stock intervals.
    """
    if C <= 0:
        raise ValueError("stopping constant C must be > 0")
    cf, cg, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width

    def weak(vals, d, index):
        return _weak_values(vals, J, d, index, dx)

    def osc_f(Q):
        return oscillation(f, Q)

    def osc_g(Q):
        return oscillation(g, Q)

    order, subfam, child_map, final_C = _with_retries(
        "osc",
        lambda c: _run_family(T.intervals, (full_f, full_g), (weak, weak), (osc_f, osc_g), c),
        C)

    def rhs_fn(Q):
        return osc_f(Q) * osc_g(Q) * Q.length

    def per_q(Q, fam):
        return {"osc_f": osc_f(Q), "osc_g": osc_g(Q)}

    return _finalize("osc", T, cf, cg, order, subfam, child_map, final_C,
                     rhs_fn, per_q, params={})


# ---------------------------------------------------------------------------
# Lerner median-oscillation decomposition
# ---------------------------------------------------------------------------

def lerner_decompose(phi: Signal, Q0: DyadicInterval,
                     lam: float = DEFAULT_LAMBDA):
    """Median stopping on local mean oscillations, with a pointwise check.

    Builds the collection rooted at Q0: the raw stopping intervals are the
    maximal dyadic P where the median jumps from the node's by more than
    twice the node's omega_lam; each is then promoted to its dyadic parent
    (so the interval carrying the jump's oscillation is selected too) and
    nested promotions are merged.  The result is verified cell by cell:

        |phi(x) - median(Q0)| <= K * sum over selected Q containing x of
                                 omega_lam(phi; Q)

    with the realized K recorded in the report.  Raw children sit, up to a
    factor two in measure, inside a level set of measure lam |Q|, so the
    1/2 child budget is guaranteed for lam <= 1/8 (promotion doubles the
    bound to 4 lam |Q|); the budget is re-checked either way.
    """
    if not 0.0 < lam < 0.5:
        raise ValueError("lambda must lie in (0, 1/2)")
    J = phi.depth_J
    phi._check(Q0)

    # per-depth sorted blocks give medians and window oscillations in bulk
    medians, omegas = {}, {}
    for d in range(Q0.depth, J + 1):
        B = 1 << (J - d)
        lo, hi = Q0.cell_range(J)
        blocks = np.sort(phi.values[lo:hi].reshape(-1, B), axis=1)
        off = Q0.index << (d - Q0.depth)
        med = blocks[:, (B - 1) // 2]
        k = int(np.floor(lam * B))
        keep = B - k
        if keep <= 1:
            om = np.zeros(blocks.shape[0])
        else:
            om = np.min(blocks[:, keep - 1:] - blocks[:, : B - keep + 1], axis=1) / 2.0
        medians[d] = (off, med)
        omegas[d] = (off, om)

    def median(I):
        off, arr = medians[I.depth]
        return float(arr[I.index - off])

    def omega(I):
        off, arr = omegas[I.depth]
        return float(arr[I.index - off])

    selected = []
    children_map = {}
    stack = [Q0]
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

    collection = SparseCollection(selected)
    budget_ok = child_budget_ok(children_map)

    lo, hi = Q0.cell_range(J)
    osum = np.zeros(hi - lo)
    for Q in selected:
        qlo, qhi = Q.cell_range(J)
        osum[qlo - lo : qhi - lo] += omega(Q)
    dev = np.abs(phi.values[lo:hi] - median(Q0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev > 0, dev / osum, 0.0)
    realized_K = float(np.max(ratio)) if ratio.size else 0.0
    pointwise_ok = bool(np.all((dev == 0.0) | (osum > 0.0))) and np.isfinite(realized_K)

    report = {
        "lambda": lam,
        "K": realized_K,
        "n_intervals": len(collection),
        "child_budget_ok": budget_ok,
        "pointwise_ok": pointwise_ok,
        "median_Q0": median(Q0),
        "omega_Q0": omega(Q0),
    }
    return collection, report
