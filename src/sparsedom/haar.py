"""Haar system on the shift-0 grid: transforms, multipliers, chi^M tilde size.

Coefficients use the L2-normalized system h_I = |I|**-1/2 (1_left - 1_right);
the L-infinity-normalized variant 1_left - 1_right is written htilde below.
The constant mode (the plain integral of f) is carried separately so the
round trip signal -> coefficients -> signal is exact.  A multiplier acts
on coefficient maps (:func:`multiplied_coefficients`); T f is the inverse
transform of that map.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .dyadic import DEFAULT_CHI_M, DyadicInterval, Signal, chi_weights

__all__ = [
    "HaarCoefficients", "HaarMultiplier", "haar_transform", "inverse_haar_transform",
    "haar_function", "htilde", "multiplied_coefficients", "tilde_size",
]


class HaarCoefficients:
    """Map I -> <f, h_I> for all shift-0 intervals with depth < J.

    Stored as a flat heap array (node (d, i) at position (1 << d) + i) plus
    the constant mode.  Satisfies Parseval: sum of squares + mean**2 equals
    the squared L2 norm of the depth-J signal.
    """

    __slots__ = ("heap", "mean", "depth_J")

    def __init__(self, heap: np.ndarray, mean: float, depth_J: int):
        self.heap = heap
        self.mean = mean
        self.depth_J = depth_J

    def __getitem__(self, I: DyadicInterval) -> float:
        if I.depth >= self.depth_J:
            raise ValueError(f"no Haar coefficient at depth {I.depth} (J={self.depth_J})")
        return float(self.heap[I.node])

    def support_nodes(self) -> np.ndarray:
        """Heap nodes carrying a nonzero coefficient, in node order."""
        return np.flatnonzero(np.abs(self.heap[1:]) > 0.0) + 1

    def support(self):
        """Intervals carrying a nonzero coefficient, in node order."""
        return [DyadicInterval.from_node(n) for n in self.support_nodes().tolist()]

    def l2_norm_squared(self) -> float:
        return float(np.sum(self.heap**2) + self.mean**2)


def haar_transform(f: Signal) -> HaarCoefficients:
    """All coefficients <f, h_I>, computed by the bottom-up pyramid."""
    J = f.depth_J
    sums = f.sums()
    heap = np.zeros(1 << J)
    dx = f.cell_width
    for d in range(J):
        lo = 1 << d
        below = sums[2 * lo : 4 * lo] * dx
        # h_I = |I|**-1/2 (1_left - 1_right), |I| = 2**-d
        heap[lo : 2 * lo] = (below[0::2] - below[1::2]) * 2.0 ** (d / 2.0)
    return HaarCoefficients(heap, f.mean(), J)


def inverse_haar_transform(coeffs: HaarCoefficients) -> Signal:
    """Exact reconstruction mean + sum a_I h_I."""
    J = coeffs.depth_J
    avg = np.array([coeffs.mean])
    for d in range(J):
        step = coeffs.heap[1 << d : 1 << (d + 1)] * 2.0 ** (d / 2.0)
        nxt = np.empty(1 << (d + 1))
        nxt[0::2] = avg + step
        nxt[1::2] = avg - step
        avg = nxt
    return Signal(avg)


def haar_function(I: DyadicInterval, depth_J: int) -> Signal:
    """The L2-normalized Haar function h_I as a depth-J signal."""
    if I.depth >= depth_J:
        raise ValueError("Haar function needs depth < J")
    vals = np.zeros(1 << depth_J)
    lo, hi = I.cell_range(depth_J)
    mid = (lo + hi) // 2
    amp = I.length ** -0.5
    vals[lo:mid] = amp
    vals[mid:hi] = -amp
    return Signal(vals)


def htilde(I: DyadicInterval, depth_J: int) -> Signal:
    """L-infinity-normalized Haar function 1_left - 1_right."""
    h = haar_function(I, depth_J)
    return Signal(h.values * I.length**0.5)


class HaarMultiplier:
    """Finite family of intervals with coefficients eps_I, |eps_I| <= 1.

    Held as two read-only arrays in T's own order, which need not be node
    order: ``nodes`` (heap nodes, int) and ``eps`` (float64).
    :attr:`intervals` and :attr:`coefficients` are tuples built on access.
    """

    def __init__(self, intervals, coefficients):
        intervals, coefficients = tuple(intervals), tuple(coefficients)
        if len(intervals) != len(coefficients):
            raise ValueError("intervals and coefficients must align")
        self._set(np.fromiter((I.node for I in intervals), np.intp, len(intervals)),
                  np.array(coefficients, dtype=float))

    @classmethod
    def from_nodes(cls, nodes, eps) -> "HaarMultiplier":
        """The multiplier with eps[k] at heap node nodes[k], in that order."""
        nodes, eps = np.array(nodes, dtype=np.intp), np.array(eps, dtype=float)
        if nodes.ndim != 1 or nodes.shape != eps.shape:
            raise ValueError("intervals and coefficients must align")
        T = cls.__new__(cls)
        T._set(nodes, eps)
        return T

    def _set(self, nodes, eps):
        if np.any(nodes < 1):
            raise ValueError("heap nodes must be >= 1")
        ordered = np.sort(nodes)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate intervals in multiplier family")
        big = np.flatnonzero(np.abs(eps) > 1.0)
        if big.size:
            raise ValueError(f"|eps_I| <= 1 required, got {float(eps[big[0]])}")
        nodes.flags.writeable = eps.flags.writeable = False
        self.nodes, self.eps = nodes, eps

    @classmethod
    def from_dict(cls, eps: dict[DyadicInterval, float]) -> "HaarMultiplier":
        nodes = np.fromiter((I.node for I in eps), np.intp, len(eps))
        order = np.argsort(nodes)
        return cls.from_nodes(nodes[order], np.array(list(eps.values()), dtype=float)[order])

    @classmethod
    def projection(cls, intervals) -> "HaarMultiplier":
        nodes = np.unique(np.fromiter((I.node for I in intervals), np.intp))
        return cls.from_nodes(nodes, np.ones(nodes.size))

    @property
    def intervals(self) -> tuple[DyadicInterval, ...]:
        return tuple(map(DyadicInterval.from_node, self.nodes.tolist()))

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(self.eps.tolist())

    def max_depth(self) -> int:
        return int(self.nodes.max(initial=1)).bit_length() - 1

    def check_depth(self, depth_J: int) -> None:
        """ValueError unless every interval has a Haar mode at depth_J."""
        if self.max_depth() >= depth_J:
            raise ValueError(f"multiplier interval at depth {self.max_depth()} needs depth < {depth_J}")

    def eps_heap(self, depth_J: int) -> np.ndarray:
        self.check_depth(depth_J)
        heap = np.zeros(1 << depth_J)
        heap[self.nodes] = self.eps
        return heap

    def __len__(self):
        return self.nodes.size

    def __repr__(self):
        return f"HaarMultiplier(n={len(self)}, max_depth={self.max_depth()})"


def multiplied_coefficients(T: HaarMultiplier, coeffs: HaarCoefficients) -> HaarCoefficients:
    """Coefficient map of T f from the map of f (mean mode dropped)."""
    return HaarCoefficients(T.eps_heap(coeffs.depth_J) * coeffs.heap, 0.0, coeffs.depth_J)


def tilde_size(f: Signal, family, M: int = DEFAULT_CHI_M) -> float:
    """sup over intervals J in the family of |J|**-1 int |f| chi_J^M.

    Each integral is the one :func:`kernels.chi_sums_depth` gives, bit for
    bit, so avg passes only the member with the largest chi heap entry.
    """
    family = list(family)
    if not family:
        raise ValueError("tilde_size needs a nonempty interval family")
    best = 0.0
    absf = np.abs(f.values)
    dx = f.cell_width
    for I in family:
        val = float(kernels.dot(absf, chi_weights(I, f.depth_J, M))) * dx / I.length
        best = max(best, val)
    return best
