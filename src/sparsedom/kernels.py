"""Hot numeric kernels: subtree square profiles and chi^M integrals.

The two inner loops that dominate every stopping-time run are

* accumulating a "square profile" sum(v_I * 1_I(x) / |I|) over the dyadic
  subtree of a node (:func:`subtree_profile` takes a whole array of
  same-depth nodes in one call, so a stopping generation costs at most one
  call per depth; it evaluates only the stock nodes whose subtree lost a
  member since the last generation, and since each row is independent of
  the rows batched with it, every other node's kept value is the fresh one
  bit for bit; a row is built top down, widened only at the depths it
  adds, in at most about 2 * 2**(J-d0) adds), and
* integrating |f| against the localization weight chi_I^M (avg decides its
  stopping tests from certified bounds, :func:`chi_bounds_depth`, and
  integrates exactly only its agenda nodes, the nodes whose bounds straddle
  a threshold and the possible tilde-size argmaxes, each once per call, a
  depth at a time over the missing indices).

The square, weighted, osc and atoms stopping times likewise settle their
tests from :func:`profile_bounds`: every mean of the square root of a
subtree profile lies between the square roots of the node's own term and
of the profile's mean, one :func:`heap_subtree_sums` pass for all nodes,
widened by a rounding bound; on stocks whose open rows are wide enough
to pay for the pass (J >= 13), rows are computed only at the agenda, the
recorded nodes and where a bound cannot decide.

Both have a single numpy path.  At depth d every weight chi_I^M(x) depends
only on the offset of the cell x from the start of I, so :func:`chi_kernel`
computes one cached offset kernel per (J, d, M); every chi^M weight is a
slice of it, and every chi^M integral a block-wise :func:`dot` with a slice.
:func:`chi_sums_depth` reads the kernel through a read-only window view
whose row i is the weight of (d, i), and makes one batched :func:`dot` per
run of consecutive indices: a stacked vector-by-vector ``np.matmul``, which
numpy runs as one BLAS dot per row, so no row is copied and every row
equals its one-interval integral bit for bit.  :func:`chi_bounds_depth`
brackets a whole row from the same kernel: the near field exactly, by one
matmul per depth, and the far field by its mass times the kernel's edge
value, widened by a rounding bound that also covers the BLAS dot, as in the
filter-then-exact predicates of Shewchuk (1997).  Avg's ``tilde_size`` is
read off those integrals at the sub-family's largest entry.  Time the layers
with ``python3 perfbench/run.py``.

Interval-indexed data lives in flat "heap" arrays: the node at (depth d,
index i) sits at position ``(1 << d) + i``, so an array of length 2**J
covers depths 0 .. J-1 (entry 0 unused).  The stopping engine, sparse
collections and the atomic decomposition share the heap helpers
:func:`node_mask`, :func:`ancestor_max` (one pass down: on a heap holding
each member's own node, every node's nearest member at or above it) and
:func:`heap_subtree_sums` (one pass up: on a boolean heap, the ancestor
closure).  Node sets, sorted and deduplicated by :func:`sorted_unique`,
are looked up by :func:`nearest_in` (each node's nearest member at or
above it: the stopping engine's owners, maximal nodes and children, and a
collection's forest) and closed upwards by :func:`ancestor_closure`; both
work on node arrays, O(n J) for n nodes, while n J <= 2**J, and take the
heap pass above that, so a sparse set never pays for the whole heap and a
dense one never pays more than it.

Block arrays, one row per same-depth interval and 2**(J-d) cells a row,
are reduced and sorted along their rows by :func:`row_sums`,
:func:`row_counts`, :func:`row_min` and :func:`sort_rows`; the block mean
(:func:`row_means`) and the block L^1 oscillation
(:func:`row_oscillations`) are row sums over the width.  numpy runs its
own ``sum``, ``min`` and ``sort`` along an axis once per row, at tens of
nanoseconds a call, which is most of the time when the rows hold 1 to 4
cells: at n = 2**14, ``np.min(axis=1)`` over 8192 rows of 2 takes 30 to 50
times as long as one ``np.minimum`` of the two columns.  So rows
narrower than NARROW cells, at least NARROW of them, go column by column,
and any other array takes numpy's own call.  A column-wise sum equals
numpy's bit for bit, because numpy's pairwise sum adds fewer than 8 terms
one at a time from +0.0; the min and the count are exact; rows of 2 and 4
cells are sorted by min/max networks.  A network may order -0.0 and +0.0
differently from ``np.sort`` (it can even give both places the same
zero), but no other value.  The dyadic maximal function
(:func:`maximal.maximal`), the weak (1,1) scan (:func:`cz.weak11_certify`),
Lerner's medians and oscillations (:func:`stopping.lerner_decompose`,
through :func:`maximal.shortest_window_oscillation`), the L^1 oscillation
(:func:`dyadic.oscillation`) and the A_p characteristic
(:func:`hardy.ap_characteristic`) use them.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "subtree_profile",
    "node_lengths",
    "profile_bounds",
    "BOUND_EXP",
    "dot",
    "chi_kernel",
    "chi_sums_depth",
    "chi_bounds_depth",
    "CHI_NEAR",
    "interval_sums",
    "dd_interval_sums",
    "two_sum_err",
    "heap_subtree_sums",
    "node_mask",
    "ancestor_max",
    "nearest_in",
    "ancestor_closure",
    "sorted_unique",
    "NARROW",
    "row_sums",
    "row_means",
    "row_oscillations",
    "row_counts",
    "row_min",
    "sort_rows",
]


def subtree_profile(vals, J, d0, index):
    """sum over I <= (d0, i) of vals[I] 1_I / |I| on the cells of (d0, i).

    ``vals`` is a heap array of length 2**J.  ``index`` is one depth-d0
    index or an array of them; the result has shape
    ``np.shape(index) + (2**(J-d0),)``, one row per index.  Depths d0, d0+1,
    ..., J-1 are added in that order, top down: the row starts one entry
    wide, is widened to a depth's width (each entry repeated) and gets that
    depth's values times 2**d added at that width, and is spread over its
    cells once at the end, so every cell gets the same terms in the same
    order as a full-width sum.  A depth is skipped only when it is zero for
    every index, and adding +0.0 leaves a row unchanged, so each row equals
    the single-index result bit for bit whatever indices come with it.
    """
    index = np.asarray(index, dtype=np.intp)
    rows = index.reshape(-1)
    n = 1 << (J - d0)
    out = np.zeros((rows.size, 1))
    for d in range(d0, J):
        block = vals[1 << d : 2 << d].reshape(1 << d0, -1)[rows]
        if block.any():
            out = np.repeat(out, block.shape[1] // out.shape[1], axis=1)
            out += block * float(1 << d)
    return np.repeat(out, n // out.shape[1], axis=1).reshape(index.shape + (n,))


@functools.lru_cache(maxsize=32)
def node_lengths(J):
    """Read-only heap of |I| = 2.0**-d at every depth-d node (length 2**J;
    entry 0 is 1.0)."""
    lengths = np.ldexp(1.0, 1 - np.frexp(np.arange(1 << J))[1])
    lengths[0] = 1.0
    lengths.flags.writeable = False
    return lengths


def profile_bounds(vals, J, slack, floor, ceil, mu=None):
    """Certified (lo, hi) heaps around any mean of the square root of each
    node's subtree profile S_I (:func:`subtree_profile` of ``vals``, a
    nonnegative heap of length 2**J), or None.

    Every cell of I carries I's own term, so every such mean is at least
    sqrt(vals[I] 2**d_I).  A power mean of exponent at most 2, in Lebesgue
    measure or in ``mu`` (a heap of measures, mu(I) > 0), and the weak L^1
    quasinorm over |I| are at most the L^2 mean, sqrt of the mean of S_I
    (Jensen; weak <= strong): sum over K <= I of vals[K] 2**d_K mu(K) / mu(I),
    in Lebesgue measure the subtree sum times 2**d_I.  One
    :func:`heap_subtree_sums` pass (two with ``mu``) serves every node.

    ``lo`` is widened by the factor 1 - ``slack`` and ``hi`` by 1 + ``slack``,
    the caller's rounding bound for its computation of the mean and of these
    bounds.  That holds only while every quantity of both stays a normal
    float with margin, which the caller states as heaps (or scalars) of
    limits on the squared bounds: a node's mean must lie in [floor, ceil],
    else it gets (-inf, inf) and only its value decides it, and its top term
    must reach ``floor``, else its ``lo`` is 0.0 (every mean is >= 0).  A
    node whose subtree holds only zeros has the mean +0.0 exactly and gets
    (0, 0) wherever floor <= ceil.  None when a profile could come near
    overflow: 2**(2J) sum(vals) above 2**BOUND_EXP.
    """
    lengths = node_lengths(J)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        sub = heap_subtree_sums(vals, J)
        if not sub[1] * 2.0 ** (2 * J) <= 2.0**BOUND_EXP:
            return None
        top = vals / lengths
        mean = sub / lengths if mu is None else heap_subtree_sums(top * mu, J) / mu
        lo = np.sqrt(top)
        lo *= 1.0 - slack
        hi = np.sqrt(mean)
        hi *= 1.0 + slack
    lo[top < floor] = 0.0
    open_ = ~((mean >= floor) & (mean <= ceil))
    lo[open_], hi[open_] = -np.inf, np.inf
    zero = (sub == 0.0) & np.broadcast_to(floor <= ceil, sub.shape)
    lo[zero] = hi[zero] = 0.0
    return lo, hi


#: Magnitudes, as powers of two, within which :func:`profile_bounds` decides.
BOUND_EXP = 960


#: Longest vector handed to BLAS in one dot: OpenBLAS runs longer dots on its
#: thread pool, whose wake-up can stall the caller on a loaded machine.
DOT_BLOCK = 8192


def dot(a, b):
    """In-order sum of BLAS dots over DOT_BLOCK-cell blocks: independent of the
    BLAS thread count, and at 2**14 cells OpenBLAS's two-thread np.dot exactly.

    ``a`` may be a 2-D stack of rows; the result then holds one dot per row,
    each equal to the 1-D ``dot(row, b)`` bit for bit: a stacked
    vector-by-vector matmul, which numpy runs as one BLAS dot per row.
    """
    if a.ndim == 1:
        if a.shape[0] <= DOT_BLOCK:
            return np.dot(a, b)
        return sum((np.dot(a[lo : lo + DOT_BLOCK], b[lo : lo + DOT_BLOCK])
                    for lo in range(DOT_BLOCK, a.shape[0], DOT_BLOCK)),
                   np.dot(a[:DOT_BLOCK], b[:DOT_BLOCK]))
    a, b = a[:, None, :], b[:, None]
    return sum((np.matmul(a[..., lo : lo + DOT_BLOCK], b[lo : lo + DOT_BLOCK])
                for lo in range(DOT_BLOCK, b.shape[0], DOT_BLOCK)),
               np.matmul(a[..., :DOT_BLOCK], b[:DOT_BLOCK]))[:, 0, 0]


@functools.lru_cache(maxsize=32)
def chi_kernel(J, d, M):
    """Read-only chi^M offset kernel of depth d at resolution 2**-J.

    Entry ``n + t`` (n = 2**J, -n <= t < n) is chi_I^M at the center of the
    cell t cells to the right of the start of any depth-d interval I, with
    distances measured in cells.  Offsets are exact dyadic rationals, so
    every slice equals the direct formula bit for bit.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    n = 1 << J
    B = 1 << (J - d)
    t = np.arange(-n, n) + 0.5
    u = np.maximum(0.0, np.maximum(-t, t - B)) / B
    K = (1.0 + u) ** (-float(M))
    K.flags.writeable = False
    return K


def _view(base, start, shape, steps):
    """Read-only strided view of the contiguous array ``base`` from flat
    element ``start``, with strides in elements.  ``np.ndarray`` on the
    buffer, not ``as_strided``, whose array-interface round trip costs a few
    microseconds a call."""
    view = np.ndarray(shape, base.dtype, base, start * base.itemsize,
                      tuple(k * base.itemsize for k in steps))
    view.flags.writeable = False
    return view


def chi_sums_depth(absf, J, d, M, index=None):
    """2**-J * sum over cells of absf * chi_I^M for depth-d intervals I.

    ``index`` lists the interval indices wanted (default: the whole row of
    2**d entries); entry k of the result belongs to ``index[k]``.  Row i of
    the kernel's window view is chi^M of (d, i), so each run of consecutive
    indices is one batched :func:`dot` over a slice of the view, no row
    copied; a lone index takes the 1-D dot.
    """
    n = 1 << J
    K = chi_kernel(J, d, M)
    rows = _view(K, n, (1 << d, n), (-(1 << (J - d)), 1))
    index = np.arange(1 << d) if index is None else np.asarray(index, dtype=np.intp)
    out = np.empty(index.size)
    if not index.size:
        return out
    cuts = (np.flatnonzero(index[1:] != index[:-1] + 1) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [index.size]):
        i = int(index[lo])
        out[lo:hi] = dot(absf, rows[i]) if hi - lo == 1 else dot(rows[i : i + hi - lo], absf)
    return out / n


#: Half-width R, in same-depth blocks, of the near field of :func:`chi_bounds_depth`.
CHI_NEAR = 7


def chi_bounds_depth(absf, J, d, M, sums):
    """Certified (lo, hi) around every value of ``chi_sums_depth(absf, J, d, M)``.

    ``absf`` is >= 0, ``sums`` its depth-d block sums (that row of
    :func:`interval_sums`), and 2**d > CHI_NEAR + 1 (at smaller d the near
    field covers the whole row).  The near field of (d, i) is the 2R + 1
    depth-d blocks around it (R = CHI_NEAR, clipped to the row): one matmul
    of a (2R + 1, B) strided view of :func:`chi_kernel`, no copy, whose row r
    is the kernel r - R blocks from I, against the cells as B-cell blocks,
    then a diagonal sum.  Beyond the window chi^M is at most its largest
    value there (right of I: the kernel is symmetric about I, and the left
    side only adds cells farther out), and the far field is the far mass (a
    prefix and a suffix cumsum of ``sums``) times [0, that value].

    Every term is >= 0, so every float sum here, and the BLAS dot of
    :func:`chi_sums_depth` in any order, lies within gamma_m = m u / (1 - m u)
    of its real value (m <= n + 15 terms, u = 2**-53), plus at most 2**-1075
    per product that underflows (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2.1 and 3.1).  Widening the near value down by 4 (n + 64) u
    and the near plus far value up by as much, and both by (n + 64) 2**-1072,
    covers the two sums and the few roundings of the bounds themselves; the
    final division by n rounds monotonically.  A node whose upper bound is
    not finite or not normal gets (-inf, inf): only its exact value decides
    it.  A row of zero ``sums`` is a zero signal, every value exactly +0.0,
    and gets (0, 0) throughout.
    """
    n, m, R = 1 << J, 1 << d, CHI_NEAR
    if m <= R + 1:
        raise ValueError(f"the near field covers the whole depth-{d} row")
    if not sums.any():
        return np.zeros(m), np.zeros(m)
    B = 1 << (J - d)
    K = chi_kernel(J, d, M)
    window = _view(K, n - R * B, (2 * R + 1, B), (B, 1))
    Q = np.zeros((2 * R + 1, m + 2 * R))
    np.matmul(window, absf.reshape(m, B).T, out=Q[:, R : R + m])
    # row i of the diagonal view is Q[r, i + r] over r: block i + r - R against
    # the kernel r - R blocks from (d, i), zero off the row
    near = _view(Q, 0, (m, 2 * R + 1), (1, m + 2 * R + 1)).sum(axis=1)
    far = np.zeros(m)
    far[R + 1 :] = np.cumsum(sums[: m - R - 1])
    far[: m - R - 1] += np.cumsum(sums[:R:-1])[::-1]
    g, eta = 4.0 * (n + 64) * 2.0**-53, (n + 64) * 2.0**-1072
    with np.errstate(over="ignore", invalid="ignore"):
        hi = far
        hi *= K[n + (R + 1) * B :].max()
        hi += near
        hi *= (1.0 + g) / n
        hi += eta / n
        lo = near
        lo *= (1.0 - g) / n
        lo -= eta / n
        bad = ~(hi >= 2.0**-1022) | (hi == np.inf)
    if bad.any():
        lo[bad], hi[bad] = -np.inf, np.inf
    return lo, hi


def interval_sums(values):
    """Heap of plain cell sums over every dyadic interval, depths 0..J.

    Entry ``(1 << d) + i`` holds sum(values on interval (d, i)); the heap has
    length 2**(J+1).  Integrals are these sums times 2**-J.
    """
    n = values.shape[0]
    J = n.bit_length() - 1
    heap = np.empty(2 * n)
    heap[0] = 0.0
    heap[n:] = values
    for d in range(J - 1, -1, -1):
        lo = 1 << d
        below = heap[2 * lo : 4 * lo]
        heap[lo : 2 * lo] = below[0::2] + below[1::2]
    return heap


def two_sum_err(a, b, s):
    """(a + b) - s exactly, for s = fl(a + b) finite (Knuth's TwoSum)."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def dd_interval_sums(values):
    """Double-double heaps ``hi``, ``lo`` and ``exact`` of the cell sums.

    ``hi`` is :func:`interval_sums` bit for bit.  A parent's rounding error
    e = (a + b) - fl(a + b) is exact (the error-free TwoSum of Ogita, Rump
    and Oishi, *Accurate sum and dot product*), and ``lo`` accumulates the
    errors of the node's subtree in float: lo = fl(fl(lo_a + lo_b) + e).
    ``exact`` is true where both of those additions were exact at the node
    and throughout its subtree, so the exact sum is hi + lo there.  Elsewhere
    lo is still within about (h + 1)**2 2**-106 sum|values| of the exact
    tail, for a node of height h.  A sum that overflows has hi = inf, lo NaN
    and ``exact`` false, at the node and above it.
    """
    n = values.shape[0]
    lo = np.zeros(2 * n)
    exact = np.ones(2 * n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = interval_sums(values)
        for d in range(n.bit_length() - 2, -1, -1):
            p = 1 << d
            e = two_sum_err(hi[2 * p : 4 * p : 2], hi[2 * p + 1 : 4 * p : 2], hi[p : 2 * p])
            if 2 * p == n:            # parents of the cells: lo is e itself
                lo[p : 2 * p] = e
                exact[p : 2 * p] = e == e
                continue
            la, lb = lo[2 * p : 4 * p : 2], lo[2 * p + 1 : 4 * p : 2]
            t = la + lb
            v = lo[p : 2 * p]
            np.add(t, e, out=v)
            ok = exact[p : 2 * p]
            np.logical_and(exact[2 * p : 4 * p : 2], exact[2 * p + 1 : 4 * p : 2], out=ok)
            ok &= two_sum_err(la, lb, t) == 0.0
            ok &= two_sum_err(t, e, v) == 0.0
    return hi, lo, exact


def heap_subtree_sums(vals, J):
    """Accumulate vals over dyadic subtrees: out[node] = sum over I <= node.

    ``vals`` is a heap array of length 2**J (depths 0..J-1, entry 0 unused);
    a boolean heap gives its ancestor closure (each node or-ed with its
    subtree).
    """
    out = vals.copy()
    for d in range(J - 2, -1, -1):
        lo = 1 << d
        below = out[2 * lo : 4 * lo]
        out[lo : 2 * lo] += below[0::2] + below[1::2]
    return out


def node_mask(nodes, size):
    """Boolean heap of the given length, set at ``nodes``."""
    mask = np.zeros(size, dtype=bool)
    mask[nodes] = True
    return mask


def ancestor_max(heap):
    """Each entry replaced by the max over the node and all its ancestors."""
    out = heap.copy()
    for d in range(1, out.shape[0].bit_length() - 1):
        lo = 1 << d
        np.maximum(out[lo : 2 * lo], np.repeat(out[lo >> 1 : lo], 2), out=out[lo : 2 * lo])
    return out


def nearest_in(nodes, members, strict=False):
    """Each of ``nodes``' nearest node of ``members`` at or above it
    (strictly above with ``strict``), or 0 where there is none.

    Two formulations give the same array.  On node arrays, each node's
    ancestors from its own depth (the next one up with ``strict``) to the
    shallowest member's are looked up in a boolean heap of ``members``, and
    the deepest hit, the largest node, is kept: L cells per node, L the
    depth span.  On the heap, :func:`ancestor_max` of the heap holding each
    member's own node is read at the nodes (at their parents with
    ``strict``): about 2 cells per heap entry, 2**J in all (the heap is the
    smallest that holds every node).  The density rule takes the node arrays
    while ``nodes.size * L <= 2**J``: sparse sets, such as a stopping run's
    stock of a 96-interval family at J = 14, cost O(n L) and not O(2**J),
    and a dense one, such as a whole heap's stock, keeps the heap's O(2**J).
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    members = np.asarray(members, dtype=np.intp)
    out = np.zeros(nodes.shape, dtype=np.intp)
    if not nodes.size or not members.size:
        return out
    size = 1 << int(max(nodes.max(), members.max())).bit_length()
    span = int(nodes.max()).bit_length() - int(members.min()).bit_length() + 1
    if span <= int(strict):
        return out
    if nodes.size * span > size:
        owner = np.zeros(size, dtype=np.intp)
        owner[members] = members
        return ancestor_max(owner)[nodes >> 1 if strict else nodes]
    anc = nodes.reshape(-1, 1) >> np.arange(int(strict), span)
    return np.max(anc * node_mask(members, size)[anc], axis=1).reshape(nodes.shape)


def ancestor_closure(nodes, size):
    """Boolean heap of length ``size`` set at ``nodes`` and at all their
    ancestors, by :func:`nearest_in`'s density rule: on node arrays, each
    node's J = log2(size) shifts scattered, while ``nodes.size * J <=
    size``; else one :func:`heap_subtree_sums` pass over their heap."""
    nodes = np.asarray(nodes, dtype=np.intp)
    J = size.bit_length() - 1
    if nodes.size * J > size:
        return heap_subtree_sums(node_mask(nodes, size), J)
    out = node_mask(nodes.reshape(-1, 1) >> np.arange(J), size)
    out[0] = False
    return out


def sorted_unique(a):
    """``np.unique`` of an integer array, by one sort and a mask of the
    entries that differ from their left neighbour: numpy 2's ``np.unique``
    hashes integer arrays, about 20x slower than sorting at a few thousand
    entries.  A strictly increasing array is copied unsorted, about 10x
    faster than sorting it at 2**14 entries."""
    a = np.ravel(a)
    if np.all(a[1:] > a[:-1]):
        return a.copy()
    s = np.sort(a)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


#: Rows narrower than this many cells, at least this many of them, are
#: reduced and sorted column by column; numpy's pairwise sum adds a row of
#: fewer than 8 terms one at a time, so the column-wise sum is its own.
NARROW = 8


def _by_columns(a):
    """Whether the last-axis rows of ``a`` go column by column: fewer than
    NARROW cells wide and at least NARROW of them.  A lone row, such as
    Lerner's root, always takes numpy's own call."""
    width = a.shape[-1]
    return 0 < width < NARROW and a.size >= NARROW * width


def row_sums(a):
    """``np.sum(a, axis=-1)`` bit for bit: on narrow rows, +0.0 plus the
    columns one at a time, numpy's own order for fewer than 8 terms."""
    if not _by_columns(a):
        return np.sum(a, axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def row_means(a):
    """``np.mean(a, axis=-1)`` bit for bit: numpy divides the same sum by
    the row width."""
    return row_sums(a) / a.shape[-1]


def row_oscillations(a):
    """The L^1 oscillation of each last-axis row: the mean of |a - the
    row's mean|."""
    return row_means(np.abs(a - row_means(a)[..., None]))


def row_counts(a):
    """Set entries of each last-axis row of the boolean ``a``, as intp."""
    if not _by_columns(a):
        return np.count_nonzero(a, axis=-1)
    out = a[..., 0].astype(np.intp)
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def row_min(a):
    """``np.min(a, axis=-1)`` bit for bit: on narrow rows, ``np.minimum``
    of the running min and the next column, as numpy's reduction takes them."""
    if not _by_columns(a):
        return np.min(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.minimum(out, a[..., j], out=out)
    return out


#: Optimal min/max sorting networks (Knuth, TAOCP vol. 3, 5.3.4) by row width.
_NETWORKS = {2: ((0, 1),), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def sort_rows(a):
    """``np.sort(a, axis=-1)`` for NaN-free ``a``, equal to it except that
    -0.0 and +0.0 may trade places or values: narrow rows of 2 and 4 cells
    go through a min/max network, a column at a time, and rows of one cell
    are copied."""
    width = a.shape[-1]
    if width == 1:
        return a.copy()
    if width not in _NETWORKS or not _by_columns(a):
        return np.sort(a, axis=-1)
    cols = [a[..., j] for j in range(width)]
    for i, j in _NETWORKS[width]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return np.stack(cols, axis=-1)
