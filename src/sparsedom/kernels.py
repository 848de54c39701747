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
* integrating |f| against the localization weight chi_I^M (avg integrates
  only the nodes its stopping runs read, each once per call: the family,
  the agenda nodes and the paths down to rejected nodes, a depth at a time
  over the missing indices).

Both have a single numpy path.  At depth d every weight chi_I^M(x) depends
only on the offset of the cell x from the start of I, so :func:`chi_kernel`
computes one cached offset kernel per (J, d, M); every chi^M weight is a
slice of it, and every chi^M integral a block-wise :func:`dot` with a slice.
:func:`chi_sums_depth` reads the kernel through a read-only window view
whose row i is the weight of (d, i), and makes one batched :func:`dot` per
run of consecutive indices: a stacked vector-by-vector ``np.matmul``, which
numpy runs as one BLAS dot per row, so no row is copied and every row
equals its one-interval integral bit for bit.  Avg's ``tilde_size`` is read
off those integrals at the sub-family's largest entry.  Time the layers
with ``python3 perfbench/run.py``.

Interval-indexed data lives in flat "heap" arrays: the node at (depth d,
index i) sits at position ``(1 << d) + i``, so an array of length 2**J
covers depths 0 .. J-1 (entry 0 unused).  The stopping engine, sparse
collections and the atomic decomposition share the heap helpers
:func:`node_mask`, :func:`ancestor_max` (one pass down: on a heap holding
each member's own node, every node's nearest member at or above it),
:func:`heap_subtree_sums` (one pass up: on a boolean heap, the ancestor
closure) and :func:`maximal_nodes`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "subtree_profile",
    "dot",
    "chi_kernel",
    "chi_sums_depth",
    "interval_sums",
    "heap_subtree_sums",
    "node_mask",
    "ancestor_max",
    "maximal_nodes",
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
    rows = as_strided(K[n:], (1 << d, n), (-(K.itemsize << (J - d)), K.itemsize),
                      writeable=False)
    index = np.arange(1 << d) if index is None else np.asarray(index, dtype=np.intp)
    out = np.empty(index.size)
    if not index.size:
        return out
    cuts = (np.flatnonzero(index[1:] != index[:-1] + 1) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [index.size]):
        i = int(index[lo])
        out[lo:hi] = dot(absf, rows[i]) if hi - lo == 1 else dot(rows[i : i + hi - lo], absf)
    return out / n


def interval_sums(values):
    """Heap of plain cell sums over every dyadic interval, depths 0..J.

    Entry ``(1 << d) + i`` holds sum(values on interval (d, i)); the heap has
    length 2**(J+1).  Integrals are these sums times 2**-J.
    """
    n = values.shape[0]
    J = n.bit_length() - 1
    heap = np.empty(2 * n)
    heap[n:] = values
    for d in range(J - 1, -1, -1):
        lo = 1 << d
        below = heap[2 * lo : 4 * lo]
        heap[lo : 2 * lo] = below[0::2] + below[1::2]
    return heap


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


def maximal_nodes(mask):
    """Nodes set in a boolean heap with no set strict ancestor, in node order."""
    above = np.zeros_like(mask)
    above[2:] = np.repeat(ancestor_max(mask)[1 : mask.shape[0] >> 1], 2)
    return np.flatnonzero(mask & ~above)
