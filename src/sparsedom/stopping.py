"""Stopping-time constructions for sparse domination, with post-hoc checks.

Each construction returns a :class:`DominationCertificate`: the sparse
collection, the per-node sub-families partitioning the input family, both
sides of the target inequality, and the realized constant.  Certificates
never trust the proof: the partition, the 1/2 child budget (in the mode's
measure) and the domination inequality are all re-verified numerically.

One engine, :func:`_run_family`, runs every stopping time (avg, square,
weighted, osc, atoms) a generation at a time on heap arrays, with one child
rule; runs are int node arrays, and intervals are built only for the output.

The stopping threshold C only needs to be "large enough"; runs start from
the given C and double it, a bounded number of times, while an attempt
fails: an agenda node rejects itself, or a generation's children break the
1/2 budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .dyadic import (DEFAULT_CHI_M, REL_SLACK, DyadicInterval, Signal, check_finite,
                     oscillation)
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


# ---------------------------------------------------------------------------
# the stopping engine: heap arrays, one level-synchronous pass per generation
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """One run in heap nodes: the collection generation by generation;
    members[k] is in owners[k]'s sub-family, kids[k] a child of parents[k]."""
    order: np.ndarray
    members: np.ndarray
    owners: np.ndarray
    kids: np.ndarray
    parents: np.ndarray


def _value_heap(functional, vals, mask, out=None):
    """functional(vals, d, index) on the nodes set in mask, one call per
    depth, written into ``out`` (default: 0.0 everywhere)."""
    out = np.zeros(mask.shape[0]) if out is None else out
    for d in range(mask.shape[0].bit_length() - 1):
        index = np.flatnonzero(mask[1 << d : 2 << d])
        if index.size:
            out[(1 << d) + index] = functional(vals, d, index)
    return out


def _stock_values(functional, heap, stock, redo=None, prev=None):
    """functional's value heap over ``np.where(stock, heap, 0.0)``: 0.0 off
    the stock, and on it ``functional`` at the nodes of ``redo`` (default:
    the whole stock); every other stock node keeps its value in ``prev``."""
    out = np.zeros(stock.shape[0]) if prev is None else np.where(stock, prev, 0.0)
    return _value_heap(functional, np.where(stock, heap, 0.0),
                       stock if redo is None else redo, out)


def _first_values(nodes, heaps, functionals):
    """Generation 1's value heaps: ``heaps[k]`` itself for a fixed heap,
    else functionals[k] over the stock of ``nodes``.  The stock of
    generation 1 is always ``nodes``, so every attempt at every C shares
    them."""
    stock = kernels.node_mask(nodes, heaps[0].shape[0])
    return tuple(heap if functional is None else _stock_values(functional, heap, stock)
                 for heap, functional in zip(heaps, functionals))


def _run_family(nodes, heaps, functionals, refs, C, first=None, read=None, measure=None):
    """One attempt at threshold C, level-synchronous over heap arrays.

    The stock starts as the boolean heap of ``nodes``.  Each generation
    holds one value heap V_k per condition: ``heaps[k]`` itself when
    ``functionals[k]`` is None (avg's fixed chi^M averages), else
    ``functionals[k]`` on the stock nodes over ``np.where(stock, heaps[k],
    0)``, 0.0 off the stock.  The agenda nodes are disjoint and a
    functional reads only the stock inside each, so one V_k serves them all.

    A node's value depends only on the stock in its own subtree, so the
    functional heaps are never rebuilt whole.  Generation 1's stock is
    ``nodes`` at every C: its heaps are ``first`` (:func:`_first_values`,
    computed here when None), which the caller shares across attempts.
    Within an attempt the stock only shrinks, so a later generation
    evaluates only the stock nodes at or above a node the last generation
    selected (one ancestor closure per generation); every other stock node
    keeps its previous value.  Its subtree holds the same stock, so
    :func:`kernels.subtree_profile`'s rows, which do not depend on the rows
    computed with them, give the same value bit for bit.

    Tie policy: a stock node I inside agenda node Q0 is selected when
    V_k[I] <= C * R_k[Q0] for every k (``<=`` selects), and rejected
    otherwise.  The reference heap R_k is V_k itself, or ``refs[k]`` when
    given (osc's oscillation heaps of f and g).  Every value equals the
    one-interval evaluation bit for bit.  An agenda node in the stock that
    rejects itself means C is too small.

    Child rule, the 1/2-sparse stopping rule of Lerner and Nazarov: Q0's
    children are the maximal nodes strictly inside Q0 that fail the test
    and contain a rejected node.  A functional's value heap vanishes off the
    stock, so for square, weighted, osc and atoms these are exactly Q0's
    maximal rejected nodes; avg's fixed heaps can stop at an ancestor of a
    rejected node that is not in the family.  Sub-families and children are
    in node order, and the next agenda lists the children in agenda order.

    The 1/2 child budget (:func:`child_budget_ok`, in ``measure``: a heap,
    default lengths) is judged one generation at a time, as soon as its
    children are known; a generation that breaks it ends the attempt there.
    An agenda node gets all its children in its own generation, and
    ``np.bincount`` adds them in the same order as over the whole run, so
    the verdict is the whole run's bit for bit.

    Heaps filled on demand (:func:`_lazy_heaps`: avg's fixed chi^M heaps,
    osc's reference heaps) come with ``read(mask)``, which fills them at the
    nodes of ``mask`` not filled yet and returns those nodes.  The run reads
    them only where it fills them just before: reference heaps at the
    agenda before the selection test; fixed heaps at the stock and the
    agenda before that test, and at the nodes strictly inside an agenda node
    on the path down to a rejected node before the child rule.  Only the
    nodes the second fill reached are tested again.
    """
    size = heaps[0].shape[0]
    J = size.bit_length() - 1
    stock = kernels.node_mask(nodes, size)
    values = _first_values(nodes, heaps, functionals) if first is None else first
    fixed = any(functional is None for functional in functionals)
    agenda = kernels.maximal_nodes(stock)
    parts = [(np.zeros(0, dtype=np.intp),) * 5]
    while agenda.size:
        owner = np.zeros(size, dtype=np.intp)
        owner[agenda] = agenda
        owner = kernels.ancestor_max(owner)
        if read is not None:
            at = kernels.node_mask(agenda, size)
            read(at | stock if fixed else at)
        passes = np.ones(size, dtype=bool)
        bounds = [C * ref[owner] for ref in (values if refs is None else refs)]
        for V, bound in zip(values, bounds):
            passes &= V <= bound
        rejected = stock & ~passes
        if rejected[agenda].any():
            raise _RetryNeeded(f"an agenda node rejected itself at C={C}")
        inside = owner > 0
        inside[agenda] = False
        selected = stock & passes
        members = np.flatnonzero(selected)
        closure = kernels.heap_subtree_sums(rejected, J)
        if read is not None and fixed:
            filled = read(inside & closure)
            if filled.size:
                passes[filled] = np.all([V[filled] <= b[filled] for V, b in zip(values, bounds)],
                                        axis=0)
        kids = kernels.maximal_nodes(~passes & inside & closure)
        if not child_budget_ok(kids, owner[kids], measure):
            raise _RetryNeeded(f"the children break the 1/2 budget at C={C}")
        parts.append((agenda, members, owner[members], kids, owner[kids]))
        rank = np.zeros(size, dtype=np.intp)
        rank[agenda] = np.arange(agenda.size)
        agenda = kids[np.argsort(rank[owner[kids]], kind="stable")]
        stock = rejected
        if agenda.size and any(functional is not None for functional in functionals):
            redo = stock & kernels.heap_subtree_sums(selected, J)
            values = tuple(V if functional is None else
                           _stock_values(functional, heap, stock, redo, V)
                           for V, heap, functional in zip(values, heaps, functionals))
    return _Run(*(np.concatenate(column) for column in zip(*parts)))


def _with_retries(mode, run, C):
    """run(C) from the given C, doubling C while the run raises
    :class:`_RetryNeeded`; returns the run and its C."""
    for attempt in range(MAX_DOUBLINGS + 1):
        attempt_C = float(C) * 2.0**attempt
        try:
            return run(attempt_C), attempt_C
        except _RetryNeeded:
            pass
    raise StoppingFailure(f"no admissible C up to {attempt_C} in {MAX_DOUBLINGS + 1} "
                          f"attempts ({mode} mode)")


def _groups(order, owners, items):
    """(groups, rank): for each node of ``order``, the items it owns, in
    listed order, as one array each; and each item's owner's position."""
    sorter = np.argsort(order)
    rank = sorter[np.searchsorted(order, owners, sorter=sorter)]
    grouped = items[np.argsort(rank, kind="stable")]
    ends = np.cumsum(np.bincount(rank, minlength=order.size)).tolist()
    return [grouped[lo:hi] for lo, hi in zip([0] + ends, ends)], rank


def _split(run, values):
    """(families, sums): each run node's sub-family as an array of nodes in
    node order, in run order, and its sum of the heap ``values``, added in
    node order one term at a time as Python's sum adds them (``np.sum``
    adds pairwise)."""
    families, rank = _groups(run.order, run.owners, run.members)
    return families, np.bincount(rank, weights=values[run.members], minlength=run.order.size)


def _finalize(mode, T, cf, cg, nodes, run, C, rhs_fn, per_q_fn, measure=None, params=None):
    """Assemble the certificate and run the structural checks.

    ``nodes`` are T's heap nodes in T's order.  per_q_fn(Q, family,
    lambda_Q) gives the mode's per-node extras; ``family`` is Q's
    sub-family as an array of heap nodes in node order.
    """
    terms = np.array(T.coefficients, dtype=float) * cf.heap[nodes] * cg.heap[nodes]
    by_node = np.zeros(cf.heap.shape[0])
    by_node[nodes] = terms
    families, lam = _split(run, by_node)
    lam = lam.tolist()
    kids, _ = _groups(run.order, run.parents, run.kids)
    # intervals for the output only: T's own, and a fresh one for a node
    # outside T, which only a tampered run holds (partition_ok rejects it)
    order = [DyadicInterval.from_node(n) for n in run.order.tolist()]
    family = dict(zip(nodes.tolist(), T.intervals))
    subfam = {Q: tuple(family.get(n) or DyadicInterval.from_node(n) for n in fam.tolist())
              for Q, fam in zip(order, families)}
    child_map = {Q: tuple(map(DyadicInterval.from_node, k.tolist())) for Q, k in zip(order, kids)}
    collection = SparseCollection.from_nodes(run.order)
    rhs_terms = [rhs_fn(Q) for Q in order]
    rhs = float(sum(rhs_terms))
    # the form in T's order, added one term at a time as Python's sum adds
    whole = float(np.cumsum(np.append(0.0, terms))[-1])
    lhs = abs(whole)

    # exact partition of the input family
    partition_ok = (run.members.size == nodes.size
                    and np.array_equal(np.sort(run.members), np.sort(nodes)))

    # child budget at eta = 1/2 in the run's measure
    budget_ok = child_budget_ok(run.kids, run.parents, measure)

    # the recursion's children are exactly the collection's derived children
    forest_ok = collection.has_forest(run.kids, run.parents)

    # exact reconstruction of the form from the sub-families
    pieces = sum(lam)
    recon_ok = abs(pieces - whole) <= REL_SLACK * (1.0 + abs(whole))

    realized = 0.0 if lhs == 0.0 else (np.inf if rhs == 0.0 else lhs / rhs)
    domination_ok = lhs == 0.0 or (np.isfinite(realized)
                                   and lhs <= realized * rhs * (1.0 + REL_SLACK))

    carleson = carleson_constant(collection)

    checks = {
        "partition_ok": partition_ok,
        "child_budget_ok": budget_ok,
        "forest_ok": forest_ok,
        "reconstruction_ok": recon_ok,
        "domination_ok": domination_ok,
    }
    per_interval = []
    for Q, fam, rhs_term, lam_Q in zip(order, families, rhs_terms, lam):
        entry = {"Q": Q, "rhs_term": rhs_term, "lambda_Q": lam_Q}
        if per_q_fn is not None:
            entry.update(per_q_fn(Q, fam, lam_Q))
        per_interval.append(entry)
    return DominationCertificate(
        mode=mode, collection=collection, subfamilies=subfam, children=child_map,
        lhs=lhs, rhs=rhs, realized_constant=float(realized), stopping_constant=C,
        eta=0.5, carleson=carleson, checks=checks, per_interval=per_interval,
        params=params or {},
    )


def _squared(heap, role):
    """heap**2, or ValueError when a square overflows: an infinite stock
    value would fail every selection test."""
    with np.errstate(over="ignore"):
        squares = heap**2
    if not np.all(np.isfinite(squares)):
        raise ValueError(f"a squared Haar coefficient of {role} overflows")
    return squares


def _family_stock(T, f, g, read=None):
    """Haar coefficients of f and g, T's heap nodes in T's order and the
    squared coefficients on them: the shared entry of the multiplier modes,
    which rejects a non-finite signal and a square that overflows.  Heaps
    filled on demand that the first agenda reads (osc's oscillations) are
    filled there before the squares are formed, so an oscillation that
    overflows is reported as such."""
    if g.depth_J != f.depth_J:
        raise ValueError("f and g must share a depth")
    T.check_depth(f.depth_J)
    check_finite(f)
    check_finite(g)
    cf, cg = haar_transform(f), haar_transform(g)
    nodes = np.array([I.node for I in T.intervals], dtype=np.intp)
    fam_mask = kernels.node_mask(nodes, 1 << f.depth_J)
    if read is not None:
        read(kernels.node_mask(kernels.maximal_nodes(fam_mask), fam_mask.shape[0]))
    return (cf, cg, nodes, _squared(np.where(fam_mask, cf.heap, 0.0), "f"),
            _squared(np.where(fam_mask, cg.heap, 0.0), "g"))


# ---------------------------------------------------------------------------
# chi^M average stopping time (L^1 averages)
# ---------------------------------------------------------------------------

def _lazy_heaps(J: int, fills):
    """(heaps, read): one heap per fill function, NaN until read.
    ``read(mask)`` fills every heap at the nodes of ``mask`` not filled yet,
    one ``fill(d, index)`` call per depth and heap for the depth-d nodes
    2**d + index, and returns those nodes in node order.  The heaps and
    every attempt of a call share one ``filled`` mask, so each node is
    filled at most once per heap."""
    heaps = tuple(np.full(1 << J, np.nan) for _ in fills)
    filled = np.zeros(1 << J, dtype=bool)

    def read(mask):
        if filled[1:].all():        # a full family's first read fills every node
            return np.zeros(0, dtype=np.intp)
        new = np.flatnonzero(mask & ~filled)
        if not new.size:
            return new
        filled[new] = True
        cuts = np.searchsorted(new, 1 << np.arange(J + 1)).tolist()
        for d, lo, hi in zip(range(J), cuts, cuts[1:]):
            if hi > lo:
                for heap, fill in zip(heaps, fills):
                    heap[new[lo:hi]] = fill(d, new[lo:hi] - (1 << d))
        return new

    return heaps, read


def _chi_heaps(signals, M: int):
    """:func:`_lazy_heaps` of |I|**-1 int |s| chi_I^M, one heap per signal
    s, one :func:`kernels.chi_sums_depth` call per depth and signal."""
    J = signals[0].depth_J

    def chi(absv):
        return lambda d, index: kernels.chi_sums_depth(absv, J, d, M, index) / 2.0 ** (-d)

    return _lazy_heaps(J, [chi(np.abs(s.values)) for s in signals])


def dominate_avg(T: HaarMultiplier, f: Signal, g: Signal,
                 M: int = DEFAULT_CHI_M, C: float = 4.0) -> DominationCertificate:
    """Sparse domination of the bilinear form by chi^M-localized L^1 averages.

    The stopping engine on fixed heaps of chi-averages: each node keeps the
    stock intervals whose chi-averages of f and g are <= C times its own; its
    children are the maximal dyadic intervals strictly inside it that
    contain a surviving stock interval and break one of the two conditions.
    The heaps are integrated only at the nodes the runs read, each node once
    for all C-doubling attempts (:func:`_chi_heaps`, :func:`_lazy_heaps`).
    """
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1 for termination")
    cf, cg, nodes, _, _ = _family_stock(T, f, g)
    (chif, chig), read = _chi_heaps((f, g), M)
    run, final_C = _with_retries(
        "avg", lambda c: _run_family(nodes, (chif, chig), (None, None), None, c, read=read), C)

    def rhs_fn(Q):
        return float(chif[Q.node]) * float(chig[Q.node]) * Q.length

    def per_q(Q, fam, lam):
        fa, ga = float(chif[Q.node]), float(chig[Q.node])
        out = {"f_chi_avg": fa, "g_chi_avg": ga}
        if fam.size:
            # tilde_size over the sub-family is its largest chi heap entry:
            # integrate that member's chi^M afresh
            tf = tilde_size(f, [DyadicInterval.from_node(int(fam[chif[fam].argmax()]))], M)
            tg = tilde_size(g, [DyadicInterval.from_node(int(fam[chig[fam].argmax()]))], M)
            out["tilde_size_f"] = tf
            out["tilde_size_g"] = tg
            denom = tf * tg * Q.length
            out["localization_ratio"] = abs(lam) / denom if denom > 0 else 0.0
            out["size_control_f"] = tf / (final_C * fa) if fa > 0 else 0.0
            out["size_control_g"] = tg / (final_C * ga) if ga > 0 else 0.0
        return out

    cert = _finalize("avg", T, cf, cg, nodes, run, final_C,
                     rhs_fn, per_q, params={"M": M, "p": 1.0, "q": 1.0})
    # selected families obey the size control by construction
    cert.checks["size_control_ok"] = all(
        e.get("size_control_f", 0.0) <= 1.0 + REL_SLACK
        and e.get("size_control_g", 0.0) <= 1.0 + REL_SLACK
        for e in cert.per_interval)
    return cert


# ---------------------------------------------------------------------------
# square-function stopping times (square / weighted / oscillation / atoms)
# ---------------------------------------------------------------------------

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
    cf, cg, nodes, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width

    def nf(vals, d, index):
        return _lp_values(vals, J, d, index, p, dx)

    def ng(vals, d, index):
        return _lp_values(vals, J, d, index, q, dx)

    def l2(vals, d, index):
        return _lp_values(vals, J, d, index, 2.0, dx)

    heaps, functionals = (full_f, full_g), (nf, ng)
    first = _first_values(nodes, heaps, functionals)
    run, final_C = _with_retries(
        "square", lambda c: _run_family(nodes, heaps, functionals, None, c, first), C)
    # every collection node is a family node, so generation 1's heaps hold
    # its values over the whole family; at p = 2 they are the L^2 values too
    Nf, Ng = first
    at = kernels.node_mask(run.order, 1 << J)
    Lf = Nf if p == 2.0 else _value_heap(l2, full_f, at)
    Lg = Ng if q == 2.0 else _value_heap(l2, full_g, at)

    def rhs_fn(Q):
        return float(Nf[Q.node] * Ng[Q.node] * Q.length)

    max_eps = max((abs(e) for e in T.coefficients), default=0.0)

    def per_q(Q, fam, lam):
        lam = abs(lam)
        a2 = float(Lf[Q.node] * Lg[Q.node] * Q.length)
        return {"lambda_abs": lam, "l2_bound": a2,
                "cs_ratio": lam / a2 if a2 > 0 else 0.0}

    cert = _finalize("square", T, cf, cg, nodes, run, final_C,
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
    cf, cg, nodes, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width

    def norm_w(vals, d, index):
        return _lp_w_values(vals, J, d, index, r, weight.values, weight.heap, dx)

    heaps, functionals = (full_f, full_g), (norm_w, norm_w)
    first = _first_values(nodes, heaps, functionals)
    run, final_C = _with_retries(
        "weighted",
        lambda c: _run_family(nodes, heaps, functionals, None, c, first, measure=weight.heap), C)

    hf = hardy_norm(f, p, weight)
    cg_norm = cmo_norm(g, p, weight)
    rhs_product = hf * cg_norm

    # ||S_{I_Q} f||_{L^r(w)} / w(Q)^{1/r} on Q's own sub-family, one call per
    # depth: nodes of one depth are disjoint, so each reads only its members
    owned = np.zeros(1 << J, dtype=np.intp)
    owned[run.members] = run.owners
    norms = np.zeros(1 << J)
    for d in range(J):
        at = run.order[(run.order >> d) == 1]
        if at.size:
            norms[at] = norm_w(np.where((owned >> d) == 1, full_f, 0.0), d, at - (1 << d))

    def rhs_fn(Q):
        # omega-sparse chain term: w(Q)^{1/p} * ||S_{I_Q} f||_{L^r(w)} / w(Q)^{1/r}
        return float(norms[Q.node]) * float(weight.heap[Q.node]) ** (1.0 / p) * cg_norm

    cert = _finalize("weighted", T, cf, cg, nodes, run, final_C,
                     rhs_fn, None, measure=weight.heap,
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


def _osc_heaps(signals):
    """:func:`_lazy_heaps` of the L^1 oscillations, one heap per signal, one
    batched :func:`oscillation` call per depth and signal.  A value that
    overflows raises ValueError: it would fail every selection test."""
    def osc(s):
        def fill(d, index):
            with np.errstate(over="ignore", invalid="ignore"):
                values = oscillation(s, (1 << d) + index)
            if not np.all(np.isfinite(values)):
                raise ValueError("the L^1 oscillation of the signal overflows")
            return values
        return fill

    return _lazy_heaps(signals[0].depth_J, [osc(s) for s in signals])


def dominate_oscillation(T: HaarMultiplier, f: Signal, g: Signal,
                         C: float = 4.0) -> DominationCertificate:
    """Sparse domination by products of L^1 oscillations.

    Candidates are kept while the weak L^{1,infinity} quasinorm of their
    restricted square function stays below C times the node's L^1
    oscillation (for both functions); children are the maximal violating
    stock intervals.  The oscillations are heaps filled at the agenda nodes
    only, each node once for all C-doubling attempts (:func:`_osc_heaps`);
    the rhs terms and the per-node ``osc_f`` / ``osc_g`` read them.  Raises
    ValueError when an oscillation the run needs overflows.
    """
    if C <= 0:
        raise ValueError("stopping constant C must be > 0")
    (osc_f, osc_g), read = _osc_heaps((f, g))
    cf, cg, nodes, full_f, full_g = _family_stock(T, f, g, read)
    J, dx = f.depth_J, f.cell_width

    def weak(vals, d, index):
        return _weak_values(vals, J, d, index, dx)

    heaps, functionals = (full_f, full_g), (weak, weak)
    first = _first_values(nodes, heaps, functionals)
    run, final_C = _with_retries(
        "osc", lambda c: _run_family(nodes, heaps, functionals, (osc_f, osc_g), c, first, read),
        C)

    def rhs_fn(Q):
        return float(osc_f[Q.node]) * float(osc_g[Q.node]) * Q.length

    def per_q(Q, fam, lam):
        return {"osc_f": float(osc_f[Q.node]), "osc_g": float(osc_g[Q.node])}

    return _finalize("osc", T, cf, cg, nodes, run, final_C,
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

    # medians and window oscillations of every node below Q0, as heaps
    size = 2 << J
    med, om = np.zeros(size), np.zeros(size)
    lo, hi = Q0.cell_range(J)
    firsts = {}
    for d in range(Q0.depth, J + 1):
        B = 1 << (J - d)
        blocks = np.sort(phi.values[lo:hi].reshape(-1, B), axis=1)
        first = firsts[d] = (1 << d) + (Q0.index << (d - Q0.depth))
        row = slice(first, first + blocks.shape[0])
        med[row] = blocks[:, (B - 1) // 2]
        keep = B - int(np.floor(lam * B))
        if keep > 1:
            om[row] = np.min(blocks[:, keep - 1:] - blocks[:, : B - keep + 1], axis=1) / 2.0

    # one generation at a time: the raw stopping nodes are the maximal P
    # strictly inside an agenda node Q whose median jumps, each promoted to
    # its parent unless that is Q, and the children the maximal promotions
    generations = []
    agenda = np.array([Q0.node])
    while agenda.size:
        generations.append(agenda)
        owner = np.zeros(size, dtype=np.intp)
        owner[agenda] = agenda
        owner = kernels.ancestor_max(owner)
        inside = owner > 0
        inside[agenda] = False
        raw = kernels.maximal_nodes(inside & (np.abs(med - med[owner]) > 2.0 * om[owner]))
        promoted = np.where(raw >> 1 == owner[raw], raw, raw >> 1)
        agenda = kernels.maximal_nodes(kernels.node_mask(promoted, size))
    selected = np.concatenate(generations)
    collection = SparseCollection.from_nodes(selected)
    # each node's children are the maximal selected nodes strictly inside it
    budget_ok = child_budget_ok(collection.nodes, collection.parents)

    # sum of omega over the selected Q containing each cell, added depth by
    # depth, shallow first: the order a depth-first walk adds them in
    chosen = kernels.node_mask(selected, size)
    osum = np.zeros(hi - lo)
    for d, first in firsts.items():
        row = slice(first, first + (1 << (d - Q0.depth)))
        osum += np.repeat(np.where(chosen[row], om[row], 0.0), 1 << (J - d))
    dev = np.abs(phi.values[lo:hi] - med[Q0.node])
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
        "median_Q0": float(med[Q0.node]),
        "omega_Q0": float(om[Q0.node]),
    }
    return collection, report
