"""Stopping-time constructions for sparse domination, with post-hoc checks.

Each construction returns a :class:`DominationCertificate`: the sparse
collection, the per-node sub-families partitioning the input family, both
sides of the target inequality, and the realized constant.  Certificates
never trust the proof: the partition, the 1/2 child budget (in the mode's
measure) and the domination inequality are all re-verified numerically.

One engine, :func:`_run_family`, runs every stopping time (avg, square,
weighted, osc, atoms) a generation at a time on heap arrays, with one child
rule, and every mode enters it through :func:`_stop`, which doubles C.
Node arrays run from the multiplier (``T.nodes``, ``T.eps``) through the
engine to the certificate, which keeps the run's node arrays and one array
per per-node quantity, aligned with the run order.  The run's members and
children are grouped by their owner's position in the run order, once
(:func:`_grouped`); no :class:`DyadicInterval` is built per family member:
the certificate's ``subfamilies`` and ``children`` are read-only views that
build intervals when read, and ``to_dict`` writes (depth, index) pairs from
one pass over all nodes.  Avg's tilde sizes are the one per-node exception:
one interval per collection node and signal.

The stopping threshold C only needs to be "large enough"; runs start from
the given C and double it, a bounded number of times, while an attempt
fails: an agenda node rejects itself, or a generation's children break the
1/2 budget.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .dyadic import (DEFAULT_CHI_M, REL_SLACK, DyadicInterval, NodeMap, Signal,
                     check_finite, checks_ok, depth_index, oscillation, plain_checks)
from .haar import HaarMultiplier, haar_transform, tilde_size
from .maximal import DEFAULT_LAMBDA, shortest_window_oscillation
from .sparse import SparseCollection, _lengths, carleson_constant, child_budget_ok

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


def _positions(order, nodes):
    """Each of ``nodes``' position in ``order``, which holds every one of
    them and need not be sorted."""
    sorter = np.argsort(order)
    return sorter[np.searchsorted(order, nodes, sorter=sorter)]


def _grouped(order, owners, items):
    """(grouped, starts): ``items`` grouped by owner, the groups in the order
    of ``order`` and each in listed order; the group of ``order[k]`` is
    ``grouped[starts[k]:starts[k + 1]]``."""
    at = _positions(order, owners)
    counts = np.bincount(at, minlength=order.size)
    return items[np.argsort(at, kind="stable")], np.append(0, np.cumsum(counts))


@dataclass(eq=False)
class DominationCertificate:
    """A run and its checks.  ``run`` holds the run's node arrays; ``per_q``
    holds one array per per-node quantity (``rhs_term``, ``lambda_Q``, then
    the mode's extras), aligned with ``run.order``.  A quantity that only
    some nodes have (avg's tilde sizes, at the nodes with a nonempty
    sub-family) is 0.0 at the others.  ``subfamilies`` and ``children`` are
    read-only views over the run's groups, keyed by interval and in run
    order, so position k of a view is position k of every ``per_q`` array."""

    mode: str
    collection: SparseCollection
    lhs: float
    rhs: float
    realized_constant: float
    stopping_constant: float
    eta: float
    carleson: float
    checks: dict
    run: _Run
    per_q: dict
    params: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return checks_ok(self.checks)

    @functools.cached_property
    def _families(self):
        return _grouped(self.run.order, self.run.owners, self.run.members)

    @functools.cached_property
    def _children(self):
        return _grouped(self.run.order, self.run.parents, self.run.kids)

    def _groups(self, grouped) -> Mapping:
        items, starts = grouped
        return NodeMap(self.run.order, lambda k, Q: tuple(
            map(DyadicInterval.from_node, items[starts[k] : starts[k + 1]].tolist())))

    @property
    def subfamilies(self) -> Mapping:
        """Q -> Q's sub-family, a tuple of intervals in node order; iterates
        the collection in run order."""
        return self._groups(self._families)

    @property
    def children(self) -> Mapping:
        """Q -> Q's children in the run, a tuple of intervals in node order;
        iterates the collection in run order."""
        return self._groups(self._children)

    def to_dict(self) -> dict:
        # every node's (depth, index) pair from one pass; each Q's family and
        # children are slices of that one list, and per_Q lists Q in node order
        order = self.run.order
        family, family_starts = self._families
        kids, kid_starts = self._children
        pairs = np.stack(depth_index(np.concatenate((order, family, kids))), axis=1).tolist()
        fs = (family_starts + order.size).tolist()
        ks = (kid_starts + order.size + family.size).tolist()
        return {
            "mode": self.mode,
            "C": self.stopping_constant,
            "eta": self.eta,
            "carleson": self.carleson,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "realized_constant": self.realized_constant,
            "n_intervals": int(family.size),
            "params": self.params,
            "checks": plain_checks(self.checks),
            "per_Q": [{"Q": pairs[k], "family": pairs[fs[k] : fs[k + 1]],
                       "children": pairs[ks[k] : ks[k + 1]]}
                      for k in np.argsort(order).tolist()],
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


def _run_family(nodes, heaps, functionals, refs, C, first, lazy=None, measure=None):
    """One attempt at threshold C, level-synchronous over heap arrays.

    The stock starts as the boolean heap of ``nodes``.  Each generation
    holds one value heap V_k per condition.  With ``functionals`` None the
    heaps are fixed (avg's chi^M averages) and V_k is ``heaps[k]`` itself;
    otherwise V_k is ``functionals[k]`` on the stock nodes over
    ``np.where(stock, heaps[k], 0)``, 0.0 off the stock.  The agenda nodes
    are disjoint and a functional reads only the stock inside each, so one
    V_k serves them all.

    A node's value depends only on the stock in its own subtree, so the
    functional heaps are never rebuilt whole.  Generation 1's stock is
    ``nodes`` at every C: its heaps are ``first``, which :func:`_stop`
    computes once for all attempts.
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

    Heaps filled on demand (``lazy``, a :class:`_LazyHeaps`: avg's fixed
    chi^M heaps, osc's reference heaps) are filled at the agenda before the
    selection test; fixed heaps also at the stock nodes of the depths that
    bounds would not settle, in the same calls.  Fixed heaps are then read
    only through ``lazy.test``: at the stock for the selection test, and at
    the other nodes strictly inside an agenda node on the path down to a
    rejected node for the child rule.  It settles each test from certified
    bounds where the outcome is certain and fills the value only where it is
    not, so every decision is that of the filled heap.
    """
    size = heaps[0].shape[0]
    J = size.bit_length() - 1
    fixed = functionals is None
    stock = kernels.node_mask(nodes, size)
    values = first
    agenda = kernels.maximal_nodes(stock)
    parts = [(np.zeros(0, dtype=np.intp),) * 5]
    while agenda.size:
        owner = np.zeros(size, dtype=np.intp)
        owner[agenda] = agenda
        owner = kernels.ancestor_max(owner)
        if lazy is not None:
            lazy.read(kernels.node_mask(agenda, size), stock if fixed else None)
        bounds = [C * ref[owner] for ref in (values if refs is None else refs)]
        if fixed:
            passes = lazy.test(stock, bounds)
        else:
            passes = np.ones(size, dtype=bool)
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
        if fixed:
            passes |= lazy.test(inside & closure & ~stock, bounds)
        kids = kernels.maximal_nodes(~passes & inside & closure)
        if not child_budget_ok(kids, owner[kids], measure):
            raise _RetryNeeded(f"the children break the 1/2 budget at C={C}")
        parts.append((agenda, members, owner[members], kids, owner[kids]))
        rank = np.zeros(size, dtype=np.intp)
        rank[agenda] = np.arange(agenda.size)
        agenda = kids[np.argsort(rank[owner[kids]], kind="stable")]
        stock = rejected
        if agenda.size and not fixed:
            redo = stock & kernels.heap_subtree_sums(selected, J)
            values = tuple(_stock_values(functional, heap, stock, redo, V)
                           for V, heap, functional in zip(values, heaps, functionals))
    return _Run(*(np.concatenate(column) for column in zip(*parts)))


def _stop(mode, nodes, heaps, functionals, C, refs=None, lazy=None, measure=None):
    """(run, C, first): :func:`_run_family` from the given C, doubling C
    while an attempt raises :class:`_RetryNeeded`, and StoppingFailure once
    :data:`MAX_DOUBLINGS` doublings have failed too.  ``first`` is
    generation 1's value heaps, shared by every attempt: ``heaps`` itself
    when they are fixed, else each functional over the stock of ``nodes``."""
    if functionals is None:
        first = heaps
    else:
        stock = kernels.node_mask(nodes, heaps[0].shape[0])
        first = tuple(_stock_values(functional, heap, stock)
                      for heap, functional in zip(heaps, functionals))
    for attempt in range(MAX_DOUBLINGS + 1):
        attempt_C = float(C) * 2.0**attempt
        try:
            return (_run_family(nodes, heaps, functionals, refs, attempt_C, first, lazy, measure),
                    attempt_C, first)
        except _RetryNeeded:
            pass
    raise StoppingFailure(f"no admissible C up to {attempt_C} in {MAX_DOUBLINGS + 1} "
                          f"attempts ({mode} mode)")


def _owner_sums(run, heap):
    """Each run node's sum of ``heap`` over its sub-family, in run order,
    added in node order one term at a time as Python's sum adds them
    (``np.sum`` adds pairwise)."""
    return np.bincount(_positions(run.order, run.owners), weights=heap[run.members],
                       minlength=run.order.size)


def _python_sum(values) -> float:
    """sum(values), added one term at a time from 0.0 as Python's sum adds."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.cumsum(np.append(0.0, values))[-1])


def _finalize(mode, T, cf, cg, run, C, rhs_terms, measure=None, params=None):
    """Assemble the certificate and run the structural checks.

    ``rhs_terms`` holds each run node's rhs term, in run order.  The
    certificate's per-Q arrays are these and each node's lambda_Q; a mode
    adds its extras to ``cert.per_q`` afterwards.
    """
    terms = T.eps * cf.heap[T.nodes] * cg.heap[T.nodes]
    by_node = np.zeros(cf.heap.shape[0])
    by_node[T.nodes] = terms
    lam = _owner_sums(run, by_node)
    collection = SparseCollection.from_nodes(run.order)
    rhs = _python_sum(rhs_terms)
    # the form in T's order
    whole = _python_sum(terms)
    lhs = abs(whole)

    # exact partition of the input family
    partition_ok = (run.members.size == T.nodes.size
                    and np.array_equal(np.sort(run.members), np.sort(T.nodes)))

    # child budget at eta = 1/2 in the run's measure
    budget_ok = child_budget_ok(run.kids, run.parents, measure)

    # the recursion's children are exactly the collection's derived children
    forest_ok = collection.has_forest(run.kids, run.parents)

    # exact reconstruction of the form from the sub-families
    pieces = _python_sum(lam)
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
    return DominationCertificate(
        mode=mode, collection=collection, lhs=lhs, rhs=rhs,
        realized_constant=float(realized), stopping_constant=C, eta=0.5,
        carleson=carleson, checks=checks, run=run,
        per_q={"rhs_term": rhs_terms, "lambda_Q": lam}, params=params or {},
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
    """Haar coefficients of f and g and the squared coefficients on T's
    nodes: the shared entry of the multiplier modes, which rejects a
    non-finite signal and a square that overflows.  Heaps filled on demand
    that the first agenda reads (osc's oscillations) are filled there before
    the squares are formed, so an oscillation that overflows is reported as
    such."""
    if g.depth_J != f.depth_J:
        raise ValueError("f and g must share a depth")
    T.check_depth(f.depth_J)
    check_finite(f)
    check_finite(g)
    cf, cg = haar_transform(f), haar_transform(g)
    fam_mask = kernels.node_mask(T.nodes, 1 << f.depth_J)
    if read is not None:
        read(kernels.node_mask(kernels.maximal_nodes(fam_mask), fam_mask.shape[0]))
    return (cf, cg, _squared(np.where(fam_mask, cf.heap, 0.0), "f"),
            _squared(np.where(fam_mask, cg.heap, 0.0), "g"))


# ---------------------------------------------------------------------------
# chi^M average stopping time (L^1 averages)
# ---------------------------------------------------------------------------

class _LazyHeaps:
    """Heaps filled on demand, one per fill function, NaN until filled.

    ``read(mask)`` fills every heap k at the nodes of the boolean heap
    ``mask`` not filled in it yet, one ``fills[k](d, index)`` call per depth
    for the depth-d nodes 2**d + index.  Every attempt of a call shares the
    ``filled`` masks, so a node is filled at most once per heap.

    With ``bounds`` (``bounds[k](d)``: a certified (lo, hi) around heap k at
    every depth-d node, or None at a depth it cannot bound), ``lo[k]`` and
    ``hi[k]`` hold each node's known range: (-inf, inf) until its depth is
    bounded, the value itself once filled.  They are None until a first
    depth is bounded, and the heaps stand for both (NaN, which decides
    nothing, where not filled).  ``test(mask, limits)`` decides
    heap <= limit from these ranges wherever that is certain and fills only
    the rest.  A depth is bounded the first time a read or a test meets more
    than :data:`_BOUND_MIN` of its nodes open, about what the bounds cost in
    exact rows; below that, or at a depth the bounds cannot cover, the nodes
    are read exactly, and ``read(mask, stock)`` fills those of ``stock``
    together with ``mask``, in the same calls.
    """

    def __init__(self, J: int, fills, bounds=None):
        size = 1 << J
        self.heaps = tuple(np.full(size, np.nan) for _ in fills)
        self.filled = np.zeros((len(fills), size), dtype=bool)
        self.lo = self.hi = None
        self._tried = np.zeros((len(fills), J), dtype=bool)
        self._ranged = np.zeros((len(fills), J), dtype=bool)
        self._fills, self._bounds, self._J = fills, bounds, J

    def _depth_cuts(self, nodes):
        return np.searchsorted(nodes, 1 << np.arange(self._J + 1)).tolist()

    def _fill(self, k, mask):
        new = np.flatnonzero(mask & ~self.filled[k])
        if not new.size:
            return
        heap, cuts = self.heaps[k], self._depth_cuts(new)
        for d, lo, hi in zip(range(self._J), cuts, cuts[1:]):
            if hi > lo:
                heap[new[lo:hi]] = self._fills[k](d, new[lo:hi] - (1 << d))
        self.filled[k, new] = True
        if self.lo is not None:
            self.lo[k, new] = self.hi[k, new] = heap[new]

    def read(self, mask, stock=None):
        for k in range(len(self.heaps)):
            self._fill(k, mask if stock is None else mask | self._bound(k, stock & ~mask))

    def _bound(self, k, mask):
        """Bound each depth with more than _BOUND_MIN of the nodes of mask
        open in heap k, once, and return the open nodes at the depths left
        without bounds: only their values decide them."""
        exact = mask & ~self.filled[k]
        if self._bounds is None:
            return exact
        cuts = self._depth_cuts(np.flatnonzero(exact))
        for d, lo, hi in zip(range(self._J), cuts, cuts[1:]):
            if hi - lo > _BOUND_MIN and not self._tried[k, d]:
                self._tried[k, d] = True
                rows = self._bounds[k](d)
                if rows is not None:
                    self._ranged[k, d] = True
                    if self.lo is None:
                        heaps = np.stack(self.heaps)
                        self.lo = np.where(self.filled, heaps, -np.inf)
                        self.hi = np.where(self.filled, heaps, np.inf)
                    at, free = slice(1 << d, 2 << d), ~self.filled[k, 1 << d : 2 << d]
                    np.copyto(self.lo[k, at], rows[0], where=free)
                    np.copyto(self.hi[k, at], rows[1], where=free)
            if hi > lo and self._ranged[k, d]:
                exact[1 << d : 2 << d] = False
        return exact

    def test(self, mask, limits):
        """Boolean heap of the nodes of ``mask`` where heaps[k] <= limits[k]
        for every k, each value as filled.  Heap k is tested only where
        heaps 0..k-1 passed; a node passes when hi <= limit and fails when lo >
        limit, and is filled first when neither is certain."""
        passes = mask.copy()
        for k, limit in enumerate(limits):
            open_ = passes & ~self.filled[k]
            self._bound(k, open_)
            lo, hi = self._range(k)
            self._fill(k, open_ & ~((hi <= limit) | (lo > limit)))
            passes &= hi <= limit
        return passes

    def _range(self, k):
        """(lo, hi) heaps of heap k."""
        return (self.heaps[k],) * 2 if self.lo is None else (self.lo[k], self.hi[k])

    def argmax(self, k, family, starts):
        """For each group ``family[starts[j]:starts[j + 1]]``, its first
        member with the largest value of heap k (-1 for an empty group).  Only
        the members whose range reaches the group's largest lower bound can
        hold it; a lone one is the argmax unread, and where there are several
        those whose range is not one point are filled, and all compared."""
        sizes = np.diff(starts)
        nz = np.flatnonzero(sizes)
        best = np.full(sizes.size, -1, dtype=np.intp)
        if not nz.size:
            return best
        lo, hi = self._range(k)
        reach = np.repeat(np.maximum.reduceat(lo[family], starts[nz]), sizes[nz])
        cand = hi[family] >= reach
        rivals = cand & np.repeat(np.add.reduceat(cand, starts[nz]) > 1, sizes[nz])
        open_ = rivals & (lo[family] != hi[family])       # NaN: not filled, unbounded
        self._fill(k, kernels.node_mask(family[open_], self.filled.shape[1]))
        vals = np.where(cand, np.where(rivals, hi[family], 0.0), -np.inf)
        top = np.repeat(np.maximum.reduceat(vals, starts[nz]), sizes[nz])
        hits = np.flatnonzero(vals == top)
        best[nz] = family[hits[np.searchsorted(hits, starts[nz])]]
        return best


#: Open nodes of one depth above which a read or a test bounds the whole depth.
_BOUND_MIN = 2 * kernels.CHI_NEAR + 1


def _chi_heaps(signals, M: int):
    """:class:`_LazyHeaps` of |I|**-1 int |s| chi_I^M, one heap per signal s:
    exact values from :func:`kernels.chi_sums_depth`, one call per depth and
    signal, and certified ranges from :func:`kernels.chi_bounds_depth` at
    every depth whose row is wider than its near field."""
    J = signals[0].depth_J

    def chi(absv):
        return lambda d, index: kernels.chi_sums_depth(absv, J, d, M, index) / 2.0 ** (-d)

    def bound(absv):
        sums = functools.cache(lambda: kernels.interval_sums(absv))

        def rows(d):
            if 1 << d <= kernels.CHI_NEAR + 1:
                return None
            lo, hi = kernels.chi_bounds_depth(absv, J, d, M, sums()[1 << d : 2 << d])
            with np.errstate(over="ignore"):
                return lo / 2.0 ** (-d), hi / 2.0 ** (-d)
        return rows

    absvs = [np.abs(s.values) for s in signals]
    return _LazyHeaps(J, [chi(a) for a in absvs], [bound(a) for a in absvs])


def dominate_avg(T: HaarMultiplier, f: Signal, g: Signal,
                 M: int = DEFAULT_CHI_M, C: float = 4.0) -> DominationCertificate:
    """Sparse domination of the bilinear form by chi^M-localized L^1 averages.

    The stopping engine on fixed heaps of chi-averages: each node keeps the
    stock intervals whose chi-averages of f and g are <= C times its own; its
    children are the maximal dyadic intervals strictly inside it that
    contain a surviving stock interval and break one of the two conditions.
    Each test is settled from certified bounds where its outcome is certain;
    a chi-average is integrated only at agenda nodes, where a bound straddles
    the threshold, and at a sub-family's tilde-size argmax candidates, each
    node once for all C-doubling attempts (:func:`_chi_heaps`,
    :class:`_LazyHeaps`).  Decisions and recorded values are those of the
    fully integrated heaps bit for bit.
    """
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1 for termination")
    cf, cg, _, _ = _family_stock(T, f, g)
    chi = _chi_heaps((f, g), M)
    chif, chig = chi.heaps
    run, final_C, _ = _stop("avg", T.nodes, chi.heaps, None, C, lazy=chi)
    fa, ga, length = chif[run.order], chig[run.order], _lengths(run.order)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_terms = fa * ga * length
    cert = _finalize("avg", T, cf, cg, run, final_C, rhs_terms,
                     params={"M": M, "p": 1.0, "q": 1.0})

    # tilde_size over a sub-family is its largest chi heap entry: integrate
    # that member's chi^M afresh, at each node whose sub-family is nonempty
    family, starts = cert._families
    best_f, best_g = (chi.argmax(k, family, starts) for k in (0, 1))
    owns = best_f >= 0
    tf, tg = np.zeros(run.order.size), np.zeros(run.order.size)
    for k in np.flatnonzero(owns).tolist():
        tf[k] = tilde_size(f, [DyadicInterval.from_node(int(best_f[k]))], M)
        tg[k] = tilde_size(g, [DyadicInterval.from_node(int(best_g[k]))], M)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = tf * tg * length
        extras = {
            "tilde_size_f": tf, "tilde_size_g": tg,
            "localization_ratio": _ratio(np.abs(cert.per_q["lambda_Q"]), denom, denom > 0),
            "size_control_f": _ratio(tf, final_C * fa, fa > 0),
            "size_control_g": _ratio(tg, final_C * ga, ga > 0),
        }
    cert.per_q.update(f_chi_avg=fa, g_chi_avg=ga, **extras)
    # selected families obey the size control by construction
    cert.checks["size_control_ok"] = bool(
        np.all(extras["size_control_f"] <= 1.0 + REL_SLACK)
        and np.all(extras["size_control_g"] <= 1.0 + REL_SLACK))
    return cert


def _ratio(num, den, where):
    """num / den where ``where`` holds, else 0.0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=where)


# ---------------------------------------------------------------------------
# square-function stopping times (square / weighted / oscillation / atoms)
# ---------------------------------------------------------------------------

def _lp_values(vals, J, d, index, p, dx):
    """|I|**-1/p times the L^p norm of the square root of the subtree
    profile, for the depth-d intervals I of ``index``."""
    sums = np.sum(kernels.subtree_profile(vals, J, d, index) ** (p / 2.0), axis=1) * dx
    scale = (2.0 ** (-d)) ** (1.0 / p)
    if scale == 0.0:
        raise ValueError(f"|I|**(1/p) underflows at depth {d} for p = {p}")
    # the final powers are np.float_power, which takes libm's pow as Python's
    # ** does, so each value is the one-interval formula's bit for bit;
    # np.power's SIMD loops differ from it in the last bit on some machines
    return np.float_power(sums, 1.0 / p) / scale


def _lp_w_values(vals, J, d, index, r, wvals, wI, dx):
    """w(I)**-1/r times the L^r(w) norm of the profile square root; wI is
    the heap of w-measures.  A value out of the float range raises
    ValueError: it would fail every selection test."""
    prof = kernels.subtree_profile(vals, J, d, index) ** (r / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sums = np.sum(prof * wvals.reshape(1 << d, -1)[index], axis=1) * dx
        values = np.float_power(sums, 1.0 / r) / np.float_power(wI[(1 << d) + index], 1.0 / r)
    if not np.all(np.isfinite(values)):
        raise ValueError("the weighted L^r value of the square function overflows")
    return values


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

    run, final_C, (Nf, Ng) = _stop("square", T.nodes, (full_f, full_g), (nf, ng), C)
    # every collection node is a family node, so generation 1's heaps hold
    # its values over the whole family; at p = 2 they are the L^2 values too
    at = kernels.node_mask(run.order, 1 << J)
    Lf = Nf if p == 2.0 else _value_heap(l2, full_f, at)
    Lg = Ng if q == 2.0 else _value_heap(l2, full_g, at)
    length = _lengths(run.order)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_terms = Nf[run.order] * Ng[run.order] * length
        a2 = Lf[run.order] * Lg[run.order] * length
    cert = _finalize("square", T, cf, cg, run, final_C, rhs_terms, params={"p": p, "q": q})
    lam = np.abs(cert.per_q["lambda_Q"])
    cs_ratio = _ratio(lam, a2, a2 > 0)
    cert.per_q.update(lambda_abs=lam, l2_bound=a2, cs_ratio=cs_ratio)
    cert.checks["cs_ratio_max"] = float(np.max(cs_ratio, initial=0.0))
    max_eps = float(np.max(np.abs(T.eps), initial=0.0))
    cert.checks["cs_ok"] = cert.checks["cs_ratio_max"] <= max_eps * (1.0 + REL_SLACK) \
        if cs_ratio.size else True
    return cert


def _hardy_exponents(p, r, C):
    """r, p / 2 when None, once p lies in (0, 1], 0 < r < p and C >= 1;
    ValueError at the first that fails, in that order."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if r is None:
        r = p / 2.0
    if not 0.0 < r < p:
        raise ValueError("need 0 < r < p")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    return r


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

    r = _hardy_exponents(p, r, C)
    if weight.depth_J != f.depth_J:
        raise ValueError(f"weight depth {weight.depth_J} differs from signal depth {f.depth_J}")
    if np.any(weight.values <= 0):
        raise ValueError("weight must be strictly positive")
    cf, cg, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width

    def norm_w(vals, d, index):
        return _lp_w_values(vals, J, d, index, r, weight.values, weight.heap, dx)

    run, final_C, _ = _stop("weighted", T.nodes, (full_f, full_g), (norm_w, norm_w), C,
                            measure=weight.heap)

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

    # omega-sparse chain terms: w(Q)^{1/p} * ||S_{I_Q} f||_{L^r(w)} / w(Q)^{1/r}
    with np.errstate(over="ignore", invalid="ignore"):
        wq = np.float_power(weight.heap[run.order], 1.0 / p)
        rhs_terms = norms[run.order] * wq * cg_norm
    if not np.all(np.isfinite(wq)):
        raise ValueError("w(Q)**(1/p) of the weight overflows")
    cert = _finalize("weighted", T, cf, cg, run, final_C, rhs_terms,
                     measure=weight.heap, params={"p": p, "r": r})
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
    """:class:`_LazyHeaps` of the L^1 oscillations, one heap per signal, one
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

    return _LazyHeaps(signals[0].depth_J, [osc(s) for s in signals])


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
    osc = _osc_heaps((f, g))
    osc_f, osc_g = osc.heaps
    cf, cg, full_f, full_g = _family_stock(T, f, g, osc.read)
    J, dx = f.depth_J, f.cell_width

    def weak(vals, d, index):
        return _weak_values(vals, J, d, index, dx)

    run, final_C, _ = _stop("osc", T.nodes, (full_f, full_g), (weak, weak), C,
                            refs=osc.heaps, lazy=osc)
    of, og = osc_f[run.order], osc_g[run.order]
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_terms = of * og * _lengths(run.order)
    cert = _finalize("osc", T, cf, cg, run, final_C, rhs_terms, params={})
    cert.per_q.update(osc_f=of, osc_g=og)
    return cert


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

    Medians and oscillations are read off one sorted block array per depth
    (:func:`kernels.sort_rows`).  Each generation walks the subtrees of its
    agenda as node arrays, a level at a time, and stops below a node whose
    child's median jumps: that node is the promoted child, and nothing
    below it can be a maximal promotion.  The omega sum is added top down,
    shallow first.  Raises ValueError when phi has a non-finite cell; every
    flag of the report is a Python bool.
    """
    if not 0.0 < lam < 0.5:
        raise ValueError("lambda must lie in (0, 1/2)")
    J = phi.depth_J
    phi._check(Q0)
    check_finite(phi)

    # medians and window oscillations of every node below Q0, as heaps; a
    # sorting network may swap -0.0 and +0.0, which moves no comparison and
    # no sum below, and the root row, read by the report, is one row, which
    # numpy sorts itself
    size = 2 << J
    med, om = np.zeros(size), np.zeros(size)
    lo, hi = Q0.cell_range(J)
    for d in range(Q0.depth, J + 1):
        B = 1 << (J - d)
        blocks = kernels.sort_rows(phi.values[lo:hi].reshape(-1, B))
        first = (1 << d) + (Q0.index << (d - Q0.depth))
        row = slice(first, first + blocks.shape[0])
        med[row] = blocks[:, (B - 1) // 2]
        om[row] = shortest_window_oscillation(blocks, int(np.floor(lam * B)))

    def jumps(P, Q):
        return np.abs(med[P] - med[Q]) > 2.0 * om[Q]

    def children(nodes, owners):
        kids = np.repeat(nodes * 2, 2)
        kids[1::2] += 1
        return kids, np.repeat(owners, 2)

    # one generation at a time: the raw stopping nodes are the maximal P
    # strictly inside an agenda node Q whose median jumps, each promoted to
    # its parent unless that is Q, and the children the maximal promotions.
    # The walk tests both children of a node at once: a jumping child of Q
    # is its own promotion; below Q, a node with a jumping child is the
    # promotion and is not entered, so every promotion found is maximal.
    leaf = 1 << J                    # the cells, which have no children
    generations = []
    agenda = np.array([Q0.node])
    while agenda.size:
        generations.append(agenda)
        inner = agenda[agenda < leaf]
        P, Q = children(inner, inner)
        jump = jumps(P, Q)
        found = [P[jump]]
        go = ~jump & (P < leaf)
        X, Q = P[go], Q[go]
        while X.size:
            hit = jumps(2 * X, Q) | jumps(2 * X + 1, Q)
            found.append(X[hit])
            go = ~hit & (X < leaf >> 1)
            X, Q = children(X[go], Q[go])
        agenda = np.concatenate(found)
    selected = np.concatenate(generations)
    collection = SparseCollection.from_nodes(selected)
    # each node's children are the maximal selected nodes strictly inside it
    budget_ok = child_budget_ok(collection.nodes, collection.parents)

    # sum of omega over the selected Q containing each cell, top down from
    # +0.0, shallow first: the order a depth-first walk adds them in
    om_sel = np.zeros(size)
    om_sel[selected] = om[selected]
    osum = 0.0 + om_sel[Q0.node : Q0.node + 1]
    for d in range(Q0.depth + 1, J + 1):
        first = (1 << d) + (Q0.index << (d - Q0.depth))
        osum = (osum[:, None] + om_sel[first : first + 2 * osum.size].reshape(-1, 2)).ravel()
    dev = np.abs(phi.values[lo:hi] - med[Q0.node])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev > 0, dev / osum, 0.0)
    realized_K = float(np.max(ratio))
    pointwise_ok = bool(np.all((dev == 0.0) | (osum > 0.0)) and np.isfinite(realized_K))

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
