"""Stopping-time constructions for sparse domination, with post-hoc checks.

Each construction returns a :class:`DominationCertificate`: the sparse
collection, the per-node sub-families partitioning the input family, both
sides of the target inequality, and the realized constant.  Certificates
never trust the proof: the partition, the 1/2 child budget (in the mode's
measure) and the domination inequality are all re-verified numerically.

One engine, :func:`_run_family`, runs every stopping time (avg, square,
weighted, osc, atoms) a generation at a time, with one child rule, and
every mode enters it through :func:`_stop`, which doubles C; each mode
rejects a C whose doublings are not finite (:func:`_check_doublings`).
Values stay in heaps, and the engine's bookkeeping (stock, agenda, owners,
members, children) runs on node arrays through one lookup,
:func:`kernels.nearest_in`, which takes the heap only for dense sets, so a
generation of a sparse family costs O(stock) and not O(2**J).  Node arrays
run from the multiplier (``T.nodes``, ``T.eps``) through the engine to the
certificate, which keeps the run's node arrays and one array per per-node
quantity, aligned with the run order.  The run's members and
children are grouped by their owner's position in the run order, once
(:func:`_grouped`); no :class:`DyadicInterval` is built per family member:
the certificate's ``subfamilies`` and ``children`` are read-only views that
build intervals when read, and ``to_dict`` writes (depth, index) pairs from
one pass over all nodes.  Avg's tilde sizes are the one per-node exception:
one interval per collection node and signal.

Every selection test of all five modes is settled from a certified (lo,
hi) range around its value where the outcome is certain, in the
filter-then-exact style of Shewchuk's adaptive predicates (1997): avg's
chi^M averages from :func:`kernels.chi_bounds_depth`, and the square,
weighted, osc and atoms functionals, each a mean of the square root of a
subtree profile, from :func:`kernels.profile_bounds` (its top term below,
Jensen above).  A value is computed exactly only at agenda nodes, at the
nodes a certificate records, where a range straddles the threshold and
where no range is held (:class:`_LazyHeaps`, :class:`_StockHeaps`), so
decisions and recorded values are those of the exact heaps bit for bit.
One cost rule (:meth:`_LazyHeaps._take_ranges`) says where ranges are taken:
avg's at a depth with more than 2 CHI_NEAR + 1 open nodes, the
functionals' only on stocks at J >= 13 whose open rows are wide.

The stopping threshold C only needs to be "large enough"; runs start from
the given C and double it, a bounded number of times, while an attempt
fails: an agenda node rejects itself, or a generation's children break the
1/2 budget.
"""

from __future__ import annotations

import copy
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
# the stopping engine: values in heaps, bookkeeping on node arrays
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """One run in heap nodes: the collection generation by generation;
    members[k] is in owners[k]'s sub-family, kids[k] a child of parents[k]."""
    order: np.ndarray
    members: np.ndarray
    owners: np.ndarray
    kids: np.ndarray
    parents: np.ndarray


def _run_family(nodes, heaps, refs, C, measure=None):
    """One attempt at threshold C, a generation at a time: values in heaps,
    bookkeeping on node arrays.

    Each generation keeps its stock, agenda, owners, members, rejected
    nodes and children as sorted node arrays (the agenda in agenda order),
    so its bookkeeping costs O(stock) and not O(2**J).  One lookup,
    :func:`kernels.nearest_in` (an agenda node or the nearest ancestor in a
    set), finds the first agenda (the stock's maximal nodes), each stock
    node's owner and the children (the maximal failing nodes), and the
    limits C * R_k[owner] are scattered into heaps at the stock nodes only.
    The lookup takes the heap formulation on its own where a set is dense,
    such as a whole heap's stock.  The value heaps keep their boolean-heap
    API, fed by :func:`kernels.node_mask` scatters.

    The stock starts as the nodes of ``nodes``.  ``heaps`` is a
    :class:`_LazyHeaps` of one value heap V_k per condition, generation 1's,
    shared by every attempt: avg's fixed chi^M averages, or a
    :class:`_StockHeaps` of stopping functionals over the stock, read only
    at the stock.
    The agenda nodes are disjoint and a functional reads only the stock
    inside each, so one V_k serves them all.  Within an attempt the stock
    only shrinks, and each later generation's functional heaps are the last
    one's with the stock nodes at or above a selected node reopened
    (:meth:`_StockHeaps.restocked`); fixed heaps stay as they are.

    Each generation fills its heaps at the agenda first, and with them the
    stock nodes that no bound covers, in the same calls
    (:meth:`_LazyHeaps.read`); osc's reference heaps ``refs`` are filled at
    the agenda too.  Every selection test then goes through
    :meth:`_LazyHeaps.test`, which settles it from a certified (lo, hi)
    range where the outcome is certain and fills the value only where it is
    not, so every decision is that of the filled heap.

    Tie policy: a stock node I inside agenda node Q0 is selected when
    V_k[I] <= C * R_k[Q0] for every k (``<=`` selects), and rejected
    otherwise.  The reference heap R_k is V_k itself, or ``refs.heaps[k]``
    when given (osc's oscillation heaps of f and g).  Every value equals the
    one-interval evaluation bit for bit.  An agenda node in the stock that
    rejects itself means C is too small.

    Child rule, the 1/2-sparse stopping rule of Lerner and Nazarov: Q0's
    children are the maximal nodes strictly inside Q0 that fail the test
    and contain a rejected node; the test reads the heaps at the nodes off
    the stock on the path down to a rejected node, at most J of them a
    rejected node (:func:`kernels.ancestor_closure`), where the heaps hold
    a value there (:attr:`_LazyHeaps.off_stock`).  A functional's value is
    0.0 off the stock, which passes every limit, so for square, weighted,
    osc and atoms these are exactly Q0's maximal rejected nodes, found
    without a test; avg's fixed heaps can stop at an ancestor of a rejected
    node that is not in the family.  Sub-families and children are in node
    order, and the next agenda lists the children in agenda order.

    The 1/2 child budget (:func:`child_budget_ok`, in ``measure``: a heap,
    default lengths) is judged one generation at a time, as soon as its
    children are known; a generation that breaks it ends the attempt there.
    An agenda node gets all its children in its own generation, and
    ``np.bincount`` adds them in the same order as over the whole run, so
    the verdict is the whole run's bit for bit.
    """
    size = heaps.heaps[0].shape[0]
    stock = kernels.sorted_unique(nodes)
    in_stock = kernels.node_mask(stock, size)
    agenda = stock[_maximal(stock, in_stock)]
    parts = [(np.zeros(0, dtype=np.intp),) * 5]
    while agenda.size:
        owners = kernels.nearest_in(stock, agenda)
        at = kernels.node_mask(agenda, size)
        heaps.read(at, in_stock)
        if refs is not None:
            refs.read(at)
        references = (heaps if refs is None else refs).heaps
        limits = [np.zeros(size) for _ in references]
        for limit, ref in zip(limits, references):
            limit[stock] = C * ref[owners]
        kept = heaps.test(in_stock, limits)[stock]
        if not kept[np.searchsorted(stock, agenda[in_stock[agenda]])].all():
            raise _RetryNeeded(f"an agenda node rejected itself at C={C}")
        rejected, members = stock[~kept], stock[kept]
        in_rejected = kernels.node_mask(rejected, size)
        fails, failed, fail_owners = rejected, in_rejected, owners[~kept]
        if heaps.off_stock and rejected.size:
            # the nodes off the stock strictly inside an agenda node and
            # above a rejected node, each with its agenda node's limits
            path = np.flatnonzero(kernels.ancestor_closure(rejected, size) & ~in_stock)
            path_owners = kernels.nearest_in(path, agenda)
            inner = (path_owners > 0) & (path_owners != path)
            path, path_owners = path[inner], path_owners[inner]
            for limit, ref in zip(limits, references):
                limit[path] = C * ref[path_owners]
            off = ~heaps.test(kernels.node_mask(path, size), limits)[path]
            if off.any():
                fails = np.concatenate((fails, path[off]))
                by_node = np.argsort(fails, kind="stable")
                fails = fails[by_node]
                fail_owners = np.concatenate((fail_owners, path_owners[off]))[by_node]
                failed = failed | kernels.node_mask(path[off], size)
        top = _maximal(fails, failed)
        kids, kid_owners = fails[top], fail_owners[top]
        if not child_budget_ok(kids, kid_owners, measure):
            raise _RetryNeeded(f"the children break the 1/2 budget at C={C}")
        parts.append((agenda, members, owners[kept], kids, kid_owners))
        agenda = kids[np.argsort(_positions(agenda, kid_owners), kind="stable")]
        stock, in_stock = rejected, in_rejected
        if agenda.size:
            heaps = heaps.restocked(in_stock, kernels.node_mask(members, size))
    return _Run(*(np.concatenate(column) for column in zip(*parts)))


def _maximal(nodes, mask):
    """Whether each of the sorted ``nodes``, the set nodes of the boolean
    heap ``mask``, has no strict ancestor among them: not where its parent
    is one, and elsewhere as :func:`kernels.nearest_in` finds."""
    top = ~mask[nodes >> 1]
    top[top] = kernels.nearest_in(nodes[top], nodes, strict=True) == 0
    return top


def _check_doublings(C):
    """ValueError unless C and its :data:`MAX_DOUBLINGS` doublings are
    finite: no test can fail at C = inf, and none can pass at C = nan."""
    if not np.isfinite(float(C) * 2.0**MAX_DOUBLINGS):
        raise ValueError(f"stopping constant C must be finite, and so must C * "
                         f"2**{MAX_DOUBLINGS}; got {C}")


def _stop(mode, nodes, heaps, C, refs=None, measure=None):
    """(run, C): :func:`_run_family` from the given C, doubling C while an
    attempt raises :class:`_RetryNeeded`, and StoppingFailure once
    :data:`MAX_DOUBLINGS` doublings have failed too.  Every attempt starts
    from the same generation-1 ``heaps``, so a node is filled there at most
    once for all of them."""
    for attempt in range(MAX_DOUBLINGS + 1):
        attempt_C = float(C) * 2.0**attempt
        try:
            return _run_family(nodes, heaps, refs, attempt_C, measure), attempt_C
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
        family = np.flatnonzero(fam_mask)
        read(kernels.node_mask(family[_maximal(family, fam_mask)], fam_mask.shape[0]))
    return (cf, cg, _squared(np.where(fam_mask, cf.heap, 0.0), "f"),
            _squared(np.where(fam_mask, cg.heap, 0.0), "g"))


# ---------------------------------------------------------------------------
# chi^M average stopping time (L^1 averages)
# ---------------------------------------------------------------------------

class _Ranges(NamedTuple):
    """Certified ranges around a lazy heap, and what they cost, in cells read
    (about 10 ns each).  ``rows(d)`` is (lo, hi) around the heap at every
    depth-d node, or None at a depth it cannot bound.  An exact value at
    depth d reads ``node[d]`` cells, and bounding depth d costs ``cost[d]``:
    its row, and the second fill call it can bring, since the nodes that
    straddle a threshold are filled apart from the agenda.  The first
    bounded depth also pays ``shared``, a pass that serves every depth."""
    rows: object
    node: np.ndarray
    cost: np.ndarray
    shared: float = 0.0


class _LazyHeaps:
    """Heaps filled on demand, one per fill function, ``blank`` (NaN by
    default) until filled.

    ``read(mask)`` fills every heap k at the nodes of the boolean heap
    ``mask`` not filled in it yet, one ``fills[k](d, index)`` call per depth
    for the depth-d nodes 2**d + index.  Every attempt of a call shares the
    ``filled`` masks, so a node is filled at most once per heap.

    With ``bounds`` (one :class:`_Ranges` or None per heap), ``lo[k]`` and
    ``hi[k]`` hold each node's known range: (-inf, inf) until its depth is
    bounded, the value itself once filled.  They are None until a first
    depth is bounded, and the heaps stand for both where filled.
    ``test(mask, limits)`` decides heap <= limit from these ranges wherever
    that is certain and fills only the rest (every open node while no range
    is held).  One rule, in :meth:`_take_ranges`, says which depths are
    bounded: those whose open nodes would read more cells exactly than their
    row and its extra call cost, once these gains outweigh the shared pass.  The
    other open nodes, and those whose range is open below, are read
    exactly: ``read(mask, stock)`` fills those of ``stock`` together with
    ``mask``, in the same calls.
    """

    #: Whether the engine tests nodes off the stock: fixed heaps hold a
    #: value there that can fail a limit.
    off_stock = True

    def __init__(self, J: int, fills, bounds=None, blank=np.nan):
        size = 1 << J
        self.heaps = tuple(np.zeros(size) if blank == 0.0 else np.full(size, blank)
                           for _ in fills)
        self.filled = np.zeros((len(fills), size), dtype=bool)
        self.lo = self.hi = None
        self._tried = np.zeros((len(fills), J), dtype=bool)
        self._ranged = np.zeros((len(fills), J), dtype=bool)
        self._paid = np.zeros(len(fills), dtype=bool)
        self._fills, self._J = fills, J
        self._bounds = [None] * len(fills) if bounds is None else bounds

    def _depth_cuts(self, nodes):
        return np.searchsorted(nodes, _depth_starts(self._J)).tolist()

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
        rest = None if stock is None else stock & ~mask
        for k in range(len(self.heaps)):
            self._fill(k, mask if rest is None else mask | self._bound(k, rest))

    def restocked(self, stock, selected):
        """The heaps of the next generation, whose stock is ``stock`` once the
        boolean heap ``selected`` has left it: fixed heaps do not change."""
        return self

    def _open_ranges(self):
        """Allocate ``lo`` and ``hi``, the values where filled and (-inf, inf)
        elsewhere, unless they are there."""
        if self.lo is None:
            heaps = np.stack(self.heaps)
            self.lo = np.where(self.filled, heaps, -np.inf)
            self.hi = np.where(self.filled, heaps, np.inf)

    def _bound(self, k, mask):
        """Bound heap k at the depths where that pays for the open nodes of
        ``mask`` (:meth:`_take_ranges`), and return the open nodes no range
        covers: only their values decide them."""
        exact = mask & ~self.filled[k]
        if not self._take_ranges(k, exact):
            return exact
        # the depths' nodes, entry 0 first: 1, 1, 2, 4, ... of them
        sizes = np.diff(_depth_starts(self._J), prepend=0)
        covered = np.repeat(np.append(False, self._ranged[k]), sizes)
        return exact & ~(covered & (self.lo[k] > -np.inf))

    def _take_ranges(self, k, exact):
        """Bound heap k at the depths where that pays for the open nodes
        ``exact``, each depth once; whether heap k holds any range."""
        src = self._bounds[k]
        if src is None:
            return False
        counts = np.diff(np.searchsorted(np.flatnonzero(exact), _depth_starts(self._J)))
        gain = counts * src.node - src.cost
        pick = (gain > 0) & ~self._tried[k]
        if pick.any() and (self._paid[k] or gain[pick].sum() > src.shared):
            self._paid[k] = True
            for d in np.flatnonzero(pick).tolist():
                self._tried[k, d] = True
                rows = src.rows(d)
                if rows is not None:
                    self._ranged[k, d] = True
                    self._open_ranges()
                    at, free = slice(1 << d, 2 << d), ~self.filled[k, 1 << d : 2 << d]
                    np.copyto(self.lo[k, at], rows[0], where=free)
                    np.copyto(self.hi[k, at], rows[1], where=free)
        return bool(self._ranged[k].any())

    def test(self, mask, limits):
        """Boolean heap of the nodes of ``mask`` where heaps[k] <= limits[k]
        for every k, each value as filled.  Heap k is tested only where
        heaps 0..k-1 passed; a node passes when hi <= limit and fails when lo >
        limit, and is filled first when neither is certain."""
        passes = mask.copy()
        for k, limit in enumerate(limits):
            open_ = passes & ~self.filled[k]
            if open_.any():
                self._take_ranges(k, open_)
                if self.lo is not None:
                    open_ &= ~((self.hi[k] <= limit) | (self.lo[k] > limit))
                self._fill(k, open_)
            passes &= self._range(k)[1] <= limit
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


@functools.lru_cache(maxsize=32)
def _depth_starts(J):
    """Read-only array of the first node of each depth 0..J, 2**d."""
    starts = 1 << np.arange(J + 1)
    starts.flags.writeable = False
    return starts


class _StockHeaps(_LazyHeaps):
    """Value heaps of stopping functionals over a stock, filled on demand:
    heap k holds ``functionals[k].values`` over ``np.where(stock,
    heaps[k], 0.0)`` at the stock nodes.  A node's value depends only on
    the stock in its own subtree.  Off the stock a value is 0.0, which
    passes every limit, so the engine never reads the heaps there.

    Built on the stock of ``nodes``, generation 1, which every attempt
    shares; ``heaps`` are 0.0 off that stock (entry 0, which no node reads,
    aside), so generation 1 reads them as they are.  Each generation's
    ranges come from one ``functionals[k].bounds`` pass over its stock
    (:func:`kernels.profile_bounds`), made the first time
    :meth:`_LazyHeaps._take_ranges` bounds a depth.  An exact value reads
    2**(J - d) cells at depth d, the pass costs :data:`_BOUND_ROWS` rows of
    2**J cells, and a bounded depth an exact call, :data:`_CALL_CELLS`, so
    a depth pays only where its open rows hold more than 2**12 cells: no
    stock at J <= 12 is bounded, since a row holds at most 2**J cells, and
    at J >= 13 only the stocks with wide open rows are (deep-J14's atoms).
    Every open stock node that no range covers is filled with the agenda,
    heap by heap and a depth at a time, as an exact pass over the whole
    stock fills it, so a value that raises there raises here, with the same
    error; the rest is filled only where a range straddles a threshold.

    A later generation (:meth:`restocked`) reopens the stock nodes at or
    above a selected node; every other stock node keeps its value or its
    range, since its subtree holds the same stock, and
    :func:`kernels.subtree_profile`'s rows do not depend on the rows
    computed with them, so a value filled later is the fresh one bit for
    bit.  A generation that reopens nothing is the last one's heaps
    themselves; the first that does copies them, and its coefficient
    heaps, once per attempt, and changes its copies in place after that.
    A reopened node keeps its old value until it is filled with the next
    agenda, and nothing reads it before.  It keeps its range too, which
    stays certified: its own term, the lower bound, is still in the stock,
    and its values and the profile's mean only fall as the stock shrinks;
    a depth with reopened nodes may be bounded afresh.  For the same reason
    a value that overflows in a later generation would have done so in
    generation 1.
    """

    #: Off the stock every value is 0.0, which passes every limit, C times a
    #: value >= 0, so no node there is tested.
    off_stock = False

    def __init__(self, nodes, heaps, functionals):
        J = heaps[0].shape[0].bit_length() - 1
        super().__init__(J, functionals, blank=0.0)
        self.base, self.functionals, self._private = heaps, functionals, False
        self.filled[:] = ~kernels.node_mask(nodes, 1 << J)
        self._restock(list(heaps))

    def restocked(self, stock, selected):
        redo = stock & kernels.ancestor_closure(np.flatnonzero(selected), stock.shape[0])
        if not redo.any():
            return self
        new = self
        if not self._private:           # shared by every attempt
            new = copy.copy(self)
            new.heaps = tuple(heap.copy() for heap in self.heaps)
            new._vals = [v.copy() for v in self._vals]
            new.filled = self.filled.copy()
            new._tried, new._ranged = self._tried.copy(), self._ranged.copy()
            if self.lo is not None:
                new.lo, new.hi = self.lo.copy(), self.hi.copy()
            new._private = True
        # a node selected in a generation that reopened nothing is below no
        # stock node, so no value reads it
        for v in new._vals:
            np.copyto(v, 0.0, where=selected)
        new.filled &= ~redo
        if new._tried.any():
            new._tried[:, np.add.reduceat(redo, _depth_starts(self._J)[:-1]) > 0] = False
        new._restock(new._vals)
        return new

    def _restock(self, vals):
        """The fills and the bound pass over the stock heaps ``vals``."""
        self._vals = vals
        self._fills = [functools.partial(fn.values, v) for fn, v in zip(self.functionals, vals)]
        # a depth's open rows hold at most 2**J cells: where that is no more
        # than _CALL_CELLS, no depth can pay, and the heaps are read exactly
        wide = (1 << self._J) > _CALL_CELLS
        node, cost = _depth_starts(self._J)[:0:-1], np.full(self._J, _CALL_CELLS)
        self._bounds = [_Ranges(_pass_rows(fn.bounds, v), node, cost, _BOUND_ROWS << self._J)
                        if wide and fn.bounds is not None else None
                        for fn, v in zip(self.functionals, vals)]
        self._paid[:] = False


def _pass_rows(bounds, vals):
    """rows(d) of :class:`_Ranges`: depth d of ``bounds(vals)``, one pass
    made on the first call, or None where it gives none."""
    whole = functools.cache(lambda: bounds(vals))

    def rows(d):
        heaps = whole()
        return None if heaps is None else tuple(h[1 << d : 2 << d] for h in heaps)
    return rows


#: The cost of a functional's bounds, in cells (about 10 ns each): its
#: pass, _BOUND_ROWS rows of 2**J cells, and _CALL_CELLS for the exact call
#: a bounded depth adds, about 40 us of :func:`kernels.subtree_profile`
#: dispatch (measured at J = 12 and 14).  Bounding every depth of
#: dense-hard-J12's families made square, weighted and atoms 5-35% slower.
_BOUND_ROWS = 2
_CALL_CELLS = 4096


def _chi_heaps(signals, M: int):
    """:class:`_LazyHeaps` of |I|**-1 int |s| chi_I^M, one heap per signal s:
    exact values from :func:`kernels.chi_sums_depth`, one call per depth and
    signal, and certified ranges from :func:`kernels.chi_bounds_depth` at
    every depth whose row is wider than its near field.  An exact value
    reads the 2**J cells once, a bound row reads them once per near-field
    block, 2 CHI_NEAR + 1 times, and a fill costs per run of indices, not
    per call, so a depth is bounded once more than 2 CHI_NEAR + 1 of its
    nodes are open."""
    J = signals[0].depth_J
    node = np.full(J, 1 << J)

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
    return _LazyHeaps(J, [chi(a) for a in absvs],
                      [_Ranges(bound(a), node, (2 * kernels.CHI_NEAR + 1) * node) for a in absvs])


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
    _check_doublings(C)
    cf, cg, _, _ = _family_stock(T, f, g)
    chi = _chi_heaps((f, g), M)
    chif, chig = chi.heaps
    run, final_C = _stop("avg", T.nodes, chi, C)
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


class _Functional(NamedTuple):
    """A stopping functional: ``values(vals, d, index)``, its value at the
    depth-d nodes 2**d + index over the stock heap ``vals``, and
    ``bounds(vals)``, certified (lo, hi) heaps around the value at every
    node, or None (:func:`kernels.profile_bounds`); ``bounds`` is None where
    the functional has none."""
    values: object
    bounds: object = None


def _slack(J, p):
    """The relative rounding bound of a functional's value over at most 2**J
    cells whose final power is 1/p (1 for the weak quasinorm), and of its
    bounds, or None when it is not small.

    A sum of n nonnegative floats, in any order, is within n u of its real
    value (u = 2**-53; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 4.2), a product, quotient or square root within u and a
    pow within a few ulp, numpy's SIMD loops included, as long as nothing
    overflows or underflows (the callers' limits); the final power 1/p
    multiplies its argument's relative error by 1/p.  With t = (2**J + 8J
    + 64) u, which covers the profile sums (at most J terms), the row sum
    (at most 2**J), the subtree and measure sums of the bounds and every
    single rounding, the value and each bound lie within a factor
    (1 + t)**(1/p) (1 + t) of their real values, and 4 t (1/p + 1) covers
    two such factors while t / p <= 2**-10.
    """
    t = ((1 << J) + 8 * J + 64) * 2.0**-53
    return 4.0 * t * (1.0 / p + 1.0) if t / p <= 2.0**-10 else None


def _limits(lo_exp, hi_exp):
    """(floor, ceil) heaps for :func:`kernels.profile_bounds`: 2**lo_exp and
    2**hi_exp rounded inward to whole powers, and (inf, 0.0) where lo_exp >
    hi_exp."""
    ok = lo_exp <= hi_exp
    floor = np.ldexp(1.0, np.ceil(np.where(ok, lo_exp, 0.0)).astype(int))
    ceil = np.ldexp(1.0, np.floor(np.where(ok, hi_exp, 0.0)).astype(int))
    floor[~ok], ceil[~ok] = np.inf, 0.0
    return floor, ceil


def _by_depth(J, row):
    """The heap holding row[d] at every depth-d node (entry 0: row[0])."""
    return np.append(row[0], np.repeat(row, 1 << np.arange(J)))


def _lp(J, p, dx):
    """:func:`_lp_values` at exponent p, with bounds for p <= 2 (Jensen).
    They decide where the profile mean m, |I| m**(p/2) and |I|**(1/p)
    sqrt(m) lie within 2**+-BOUND_EXP and |I|**(1/p) reaches 2**-BOUND_EXP:
    the value's sum, final power and quotient then neither overflow nor
    underflow, and a depth where |I|**(1/p) underflows is filled exactly,
    which raises."""
    def values(vals, d, index):
        return _lp_values(vals, J, d, index, p, dx)

    slack = _slack(J, p)
    if p > 2.0 or slack is None:
        return _Functional(values)
    return _Functional(values,
                       lambda vals: kernels.profile_bounds(vals, J, slack, *_lp_limits(J, p)))


@functools.lru_cache(maxsize=32)
def _lp_limits(J, p):
    """:func:`_lp`'s (floor, ceil) heaps."""
    d, L = np.arange(J, dtype=float), float(kernels.BOUND_EXP)
    lo = np.maximum.reduce([np.full(J, -L), 2 * (d / p - L), 2 * (d - L) / p])
    hi = np.minimum.reduce([np.full(J, L), 2 * (L + d / p), 2 * (L + d) / p])
    lo[d / p > L] = np.inf
    return _limits(_by_depth(J, lo), _by_depth(J, hi))


def _lp_w(J, r, wvals, wI, dx):
    """:func:`_lp_w_values` at exponent r < 1, with bounds in the w measure
    where every w(I) lies within 2**+-BOUND_EXP.  They decide where w(I),
    w(I)**(1/r), the weighted profile mean m, w(I) m**(r/2) and w(I)**(1/r)
    sqrt(m) lie within 2**+-BOUND_EXP and m w(I) reaches 2**(J - BOUND_EXP -
    55), so that a term of the bounds that underflows moves them by less
    than 2**-60 of themselves; elsewhere the value is filled, and raises
    when it leaves the float range."""
    def values(vals, d, index):
        return _lp_w_values(vals, J, d, index, r, wvals, wI, dx)

    slack, mu, L = _slack(J, r), wI[: 1 << J], float(kernels.BOUND_EXP)
    if slack is None or not (mu[1:].min() >= 2.0**-L and mu[1] <= 2.0**L):
        return _Functional(values)

    @functools.cache
    def limits():
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            den = np.float_power(mu, 1.0 / r)
            lw, ld = np.log2(mu), np.log2(den)
        lo = np.maximum.reduce([np.full(mu.shape, -L), 2 * (-L - lw) / r, 2 * (-L - ld),
                                J - L - 55 - lw])
        hi = np.minimum.reduce([np.full(mu.shape, L), 2 * (L - lw) / r, 2 * (L - ld)])
        lo[~((den >= 2.0**-L) & (den <= 2.0**L))] = np.inf
        return _limits(lo, hi)

    return _Functional(values,
                       lambda vals: kernels.profile_bounds(vals, J, slack, *limits(), mu=mu))


def _weak(J, dx):
    """:func:`_weak_values`, with bounds (weak <= strong, and Jensen).  They
    decide where the profile mean m and |I| sqrt(m) lie within
    2**+-BOUND_EXP."""
    def values(vals, d, index):
        return _weak_values(vals, J, d, index, dx)

    slack = _slack(J, 1.0)
    if slack is None:
        return _Functional(values)
    return _Functional(values,
                       lambda vals: kernels.profile_bounds(vals, J, slack, *_weak_limits(J)))


@functools.lru_cache(maxsize=32)
def _weak_limits(J):
    """:func:`_weak`'s (floor, ceil) heaps."""
    d, L = np.arange(J, dtype=float), float(kernels.BOUND_EXP)
    return _limits(_by_depth(J, np.maximum(-L, 2 * (d - L))), np.full(1 << J, L))


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
    if not (np.isfinite(p) and np.isfinite(q)):
        raise ValueError(f"exponents must be finite, got p = {p}, q = {q}")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    _check_doublings(C)
    cf, cg, full_f, full_g = _family_stock(T, f, g)
    J, dx = f.depth_J, f.cell_width
    heaps = _StockHeaps(T.nodes, (full_f, full_g), (_lp(J, p, dx), _lp(J, q, dx)))
    run, final_C = _stop("square", T.nodes, heaps, C)
    # every collection node is a family node, so generation 1's heaps hold
    # its values over the whole family; at p = 2 they are the L^2 values too
    at = kernels.node_mask(run.order, 1 << J)
    heaps.read(at)
    Nf, Ng = heaps.heaps

    def l2(full):
        heap = _LazyHeaps(J, [functools.partial(_lp(J, 2.0, dx).values, full)])
        heap.read(at)
        return heap.heaps[0]

    Lf = Nf if p == 2.0 else l2(full_f)
    Lg = Ng if q == 2.0 else l2(full_g)
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
    """r, p / 2 when None, once p lies in (0, 1], 0 < r < p, C >= 1 and C
    doubles finitely (:func:`_check_doublings`); ValueError at the first
    that fails, in that order."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if r is None:
        r = p / 2.0
    if not 0.0 < r < p:
        raise ValueError("need 0 < r < p")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    _check_doublings(C)
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
    norm_w = _lp_w(J, r, weight.values, weight.heap, dx)
    run, final_C = _stop("weighted", T.nodes,
                         _StockHeaps(T.nodes, (full_f, full_g), (norm_w, norm_w)), C,
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
            norms[at] = norm_w.values(np.where((owned >> d) == 1, full_f, 0.0), d, at - (1 << d))

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
    _check_doublings(C)
    osc = _osc_heaps((f, g))
    osc_f, osc_g = osc.heaps
    cf, cg, full_f, full_g = _family_stock(T, f, g, osc.read)
    J, dx = f.depth_J, f.cell_width
    weak = _weak(J, dx)
    run, final_C = _stop("osc", T.nodes, _StockHeaps(T.nodes, (full_f, full_g), (weak, weak)),
                         C, refs=osc)
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
