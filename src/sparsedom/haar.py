"""Haar system on the shift-0 grid: transforms, multipliers, square functions.

Coefficients use the L2-normalized system h_I = |I|**-1/2 (1_left - 1_right);
the L-infinity-normalized variant 1_left - 1_right is written htilde below.
The constant mode (the plain integral of f) is carried separately so the
round trip signal -> coefficients -> signal is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dyadic import (DEFAULT_CHI_M, DyadicInterval, Signal, chi_weights)

__all__ = [
    "HaarCoefficients", "HaarMultiplier", "haar_transform", "inverse_haar_transform",
    "haar_function", "htilde", "apply_multiplier", "bilinear_form",
    "localized_square_function", "square_profile", "size", "tilde_size",
    "energy_check",
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


@dataclass(frozen=True)
class HaarMultiplier:
    """Finite family of intervals with coefficients eps_I, |eps_I| <= 1."""

    intervals: tuple[DyadicInterval, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.intervals) != len(self.coefficients):
            raise ValueError("intervals and coefficients must align")
        if len(set(self.intervals)) != len(self.intervals):
            raise ValueError("duplicate intervals in multiplier family")
        for eps in self.coefficients:
            if abs(eps) > 1.0:
                raise ValueError(f"|eps_I| <= 1 required, got {eps}")

    @classmethod
    def from_dict(cls, eps: dict[DyadicInterval, float]) -> "HaarMultiplier":
        items = sorted(eps.items())
        return cls(tuple(I for I, _ in items), tuple(float(e) for _, e in items))

    @classmethod
    def projection(cls, intervals) -> "HaarMultiplier":
        ivs = tuple(sorted(set(intervals)))
        return cls(ivs, (1.0,) * len(ivs))

    def max_depth(self) -> int:
        return max((I.depth for I in self.intervals), default=0)

    def check_depth(self, depth_J: int) -> None:
        """ValueError unless every interval has a Haar mode at depth_J."""
        if self.max_depth() >= depth_J:
            raise ValueError(f"multiplier interval at depth {self.max_depth()} needs depth < {depth_J}")

    def eps_heap(self, depth_J: int) -> np.ndarray:
        self.check_depth(depth_J)
        heap = np.zeros(1 << depth_J)
        for I, e in zip(self.intervals, self.coefficients):
            heap[I.node] = e
        return heap

    def __len__(self):
        return len(self.intervals)


def apply_multiplier(T: HaarMultiplier, f: Signal) -> Signal:
    """T f = sum over the family of eps_I <f, h_I> h_I."""
    coeffs = haar_transform(f)
    out = HaarCoefficients(T.eps_heap(f.depth_J) * coeffs.heap, 0.0, f.depth_J)
    return inverse_haar_transform(out)


def multiplied_coefficients(T: HaarMultiplier, coeffs: HaarCoefficients) -> HaarCoefficients:
    """Coefficient map of T f from the map of f (mean mode dropped)."""
    return HaarCoefficients(T.eps_heap(coeffs.depth_J) * coeffs.heap, 0.0, coeffs.depth_J)


def bilinear_form(T: HaarMultiplier, f: Signal, g: Signal) -> float:
    """sum eps_I <f, h_I> <g, h_I>; equals <T f, g> exactly."""
    cf = haar_transform(f)
    cg = haar_transform(g)
    return float(np.sum(T.eps_heap(f.depth_J) * cf.heap * cg.heap))


def _mask_heap(depth_J: int, restrict) -> np.ndarray | None:
    if restrict is None:
        return None
    mask = np.zeros(1 << depth_J)
    for I in restrict:
        if I.depth < depth_J:
            mask[I.node] = 1.0
    return mask


def square_profile(coeffs: HaarCoefficients, I0: DyadicInterval,
                   restrict=None) -> np.ndarray:
    """Pointwise sum over I <= I0 (in the family) of a_I**2 1_I / |I|.

    Returned on the cells of I0 only.  ``restrict`` limits the family
    (default: every dyadic interval of depth < J).
    """
    J = coeffs.depth_J
    vals = coeffs.heap**2
    mask = _mask_heap(J, restrict)
    if mask is not None:
        vals = vals * mask
    return kernels.subtree_profile(vals, J, I0.depth, I0.index)


def localized_square_function(f_or_coeffs, I0: DyadicInterval,
                              restrict=None) -> Signal:
    """S_I0(f) = (sum over I <= I0 of |a_I|**2 1_I / |I|)**1/2 as a signal."""
    coeffs = f_or_coeffs if isinstance(f_or_coeffs, HaarCoefficients) \
        else haar_transform(f_or_coeffs)
    out = np.zeros(1 << coeffs.depth_J)
    lo, hi = I0.cell_range(coeffs.depth_J)
    out[lo:hi] = np.sqrt(square_profile(coeffs, I0, restrict))
    return Signal(out)


def size(f_or_coeffs, I0: DyadicInterval) -> float:
    """sup over I <= I0 of (|I|**-1 sum over J <= I of a_J**2)**1/2, exact."""
    coeffs = f_or_coeffs if isinstance(f_or_coeffs, HaarCoefficients) \
        else haar_transform(f_or_coeffs)
    J = coeffs.depth_J
    sub = kernels.heap_subtree_sums(coeffs.heap**2, J)
    best = 0.0
    for d in range(I0.depth, J):
        lo = (1 << d) + (I0.index << (d - I0.depth))
        block = sub[lo : lo + (1 << (d - I0.depth))]
        if block.size:
            best = max(best, float(np.max(block)) * (1 << d))
    return best**0.5


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


def energy_check(f: Signal, I0: DyadicInterval,
                 M: int = DEFAULT_CHI_M) -> tuple[float, float]:
    """(lhs, rhs) of the coefficient-energy bound on I0.

    lhs = sum over I <= I0 of a_I(f)**2, rhs = squared L2 norm of
    f * chi_I0^M.  The harness records the realized ratio.
    """
    coeffs = haar_transform(f)
    lhs = float(np.sum(square_profile(coeffs, I0))) * f.cell_width
    w = chi_weights(I0, f.depth_J, M)
    rhs = float(np.sum((f.values * w) ** 2) * f.cell_width)
    return lhs, rhs
