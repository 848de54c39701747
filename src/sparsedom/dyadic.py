"""Finite dyadic geometry on [0, 1) and exact integration of step signals.

Signals are piecewise constant on the 2**J cells of the finest depth J, so
every integral below is a finite sum times the cell width 2**-J; no
quadrature error enters any certified inequality.  All stopping times in
this package run on the shift-0 grid; the 1/3-shifted grid exists only for
the classical covering demo (see :class:`DyadicGrid.covering_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import chi_kernel, interval_sums

#: relative slack used when certifying inequalities in floating point
REL_SLACK = 1e-9

#: default exponent of the localization weight chi_I^M
DEFAULT_CHI_M = 8


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Node (depth, index) of the shift-0 dyadic grid on [0, 1)."""

    depth: int
    index: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if not 0 <= self.index < (1 << self.depth):
            raise ValueError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def length(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def start(self) -> float:
        return self.index * self.length

    @property
    def end(self) -> float:
        return (self.index + 1) * self.length

    @property
    def node(self) -> int:
        """Position in flat heap arrays."""
        return (1 << self.depth) + self.index

    @classmethod
    def from_node(cls, node: int) -> "DyadicInterval":
        """The interval at a heap position (inverse of :attr:`node`)."""
        depth = node.bit_length() - 1
        return cls(depth, node - (1 << depth))

    def parent(self) -> "DyadicInterval":
        if self.depth == 0:
            raise ValueError("root interval has no parent")
        return DyadicInterval(self.depth - 1, self.index >> 1)

    def left(self) -> "DyadicInterval":
        return DyadicInterval(self.depth + 1, 2 * self.index)

    def right(self) -> "DyadicInterval":
        return DyadicInterval(self.depth + 1, 2 * self.index + 1)

    def ancestor(self, depth: int) -> "DyadicInterval":
        if depth > self.depth:
            raise ValueError("ancestor depth exceeds own depth")
        return DyadicInterval(depth, self.index >> (self.depth - depth))

    def contains(self, other: "DyadicInterval") -> bool:
        return (other.depth >= self.depth
                and (other.index >> (other.depth - self.depth)) == self.index)

    def strictly_contains(self, other: "DyadicInterval") -> bool:
        return other.depth > self.depth and self.contains(other)

    def cell_range(self, depth_J: int) -> tuple[int, int]:
        """Half-open cell index range [lo, hi) at resolution 2**-depth_J."""
        if self.depth > depth_J:
            raise ValueError(f"interval depth {self.depth} exceeds signal depth {depth_J}")
        lo = self.index << (depth_J - self.depth)
        return lo, lo + (1 << (depth_J - self.depth))


ROOT = DyadicInterval(0, 0)


@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic grid on [0, 1) at finest depth J, with shift 0 or 1/3.

    The shifted grid follows 2**-k ([0,1] + m + (-1)**k * shift); it is not
    aligned with the cells of a depth-J signal and is used only for the
    three-grids covering property.
    """

    depth_J: int
    shift: float = 0.0

    def __post_init__(self):
        if self.depth_J < 1:
            raise ValueError("depth_J must be >= 1")
        if self.shift not in (0.0, 1.0 / 3.0):
            raise ValueError("shift must be 0 or 1/3")

    def n_cells(self) -> int:
        return 1 << self.depth_J

    def intervals(self, depth: int):
        """All shift-0 intervals of one depth."""
        return [DyadicInterval(depth, i) for i in range(1 << depth)]

    def all_intervals(self, max_depth: int | None = None):
        top = self.depth_J if max_depth is None else max_depth
        return [DyadicInterval(d, i) for d in range(top + 1) for i in range(1 << d)]

    def interval_bounds(self, k: int, m: int) -> tuple[float, float]:
        """Endpoints of the grid member 2**-k ([0,1] + m + (-1)**k shift)."""
        lo = 2.0 ** (-k) * (m + (-1) ** k * self.shift)
        return lo, lo + 2.0 ** (-k)

    @staticmethod
    def covering_interval(a: float, b: float):
        """Some shifted-grid interval containing [a, b] with length <= 6 (b-a).

        Returns (shift, k, m, lo, hi).  This is the classical three-grids
        lemma specialised to one dimension; the covering member may poke
        outside [0, 1).
        """
        if not b > a:
            raise ValueError("need b > a")
        length = b - a
        kmax = int(np.floor(np.log2(1.0 / length))) + 1
        for k in range(max(kmax, 0), -1, -1):
            side = 2.0 ** (-k)
            if side > 6.0 * length:
                continue
            for shift in (0.0, 1.0 / 3.0):
                off = (-1) ** k * shift
                m = int(np.floor(a / side - off))
                lo = side * (m + off)
                if lo <= a and b <= lo + side:
                    return shift, k, m, lo, lo + side
        raise AssertionError("three-grids covering failed")  # unreachable per the lemma


class Signal:
    """Real signal, piecewise constant on the 2**J cells of [0, 1)."""

    __slots__ = ("values", "depth_J", "_sums", "_abs_sums")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("signal values must be one-dimensional")
        n = values.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"number of cells must be a power of two >= 2, got {n}")
        self.values = values
        self.depth_J = n.bit_length() - 1
        self._sums = None
        self._abs_sums = None

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_width(self) -> float:
        return 2.0 ** (-self.depth_J)

    def sums(self):
        """Heap of plain cell sums over all dyadic intervals (lazy)."""
        if self._sums is None:
            self._sums = interval_sums(self.values)
        return self._sums

    def abs_sums(self):
        if self._abs_sums is None:
            self._abs_sums = interval_sums(np.abs(self.values))
        return self._abs_sums

    def integral(self, I: DyadicInterval | None = None) -> float:
        if I is None:
            I = ROOT
        self._check(I)
        return self.sums()[(1 << I.depth) + I.index] * self.cell_width

    def mean(self) -> float:
        return self.integral(ROOT)

    def _check(self, I: DyadicInterval):
        if I.depth > self.depth_J:
            raise ValueError(
                f"interval depth {I.depth} exceeds signal depth {self.depth_J}")

    def __add__(self, other):
        return Signal(self.values + _vals(other, self.n_cells))

    def __sub__(self, other):
        return Signal(self.values - _vals(other, self.n_cells))

    def __mul__(self, scalar):
        return Signal(self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Signal(J={self.depth_J}, n={self.n_cells})"


def check_finite(f: Signal) -> None:
    """Raise ValueError unless every cell of f is finite."""
    if not np.all(np.isfinite(f.values)):
        raise ValueError("signal has a non-finite cell (nan or inf)")


def _vals(x, n):
    if isinstance(x, Signal):
        if x.n_cells != n:
            raise ValueError("signal depth mismatch")
        return x.values
    return np.broadcast_to(np.asarray(x, float), (n,))


def cells_of(f: Signal, E) -> np.ndarray:
    """Normalize a cell-set argument to a boolean mask over the cells of f.

    E may be a DyadicInterval, a boolean mask, an integer index array, or
    None (the whole domain).
    """
    n = f.n_cells
    if E is None:
        return np.ones(n, dtype=bool)
    if isinstance(E, DyadicInterval):
        lo, hi = E.cell_range(f.depth_J)
        mask = np.zeros(n, dtype=bool)
        mask[lo:hi] = True
        return mask
    E = np.asarray(E)
    if E.dtype == bool:
        if E.shape != (n,):
            raise ValueError("mask length mismatch")
        return E
    mask = np.zeros(n, dtype=bool)
    mask[E] = True
    return mask


def average(f: Signal, I: DyadicInterval) -> float:
    """Exact mean of f over I."""
    f._check(I)
    return f.integral(I) / I.length


def oscillation(f: Signal, I: DyadicInterval) -> float:
    """Mean absolute deviation of f from its mean on I."""
    f._check(I)
    lo, hi = I.cell_range(f.depth_J)
    block = f.values[lo:hi]
    return float(np.mean(np.abs(block - np.mean(block))))


def localization_weight(I: DyadicInterval, cell: int, depth_J: int,
                        M: int = DEFAULT_CHI_M) -> float:
    """chi_I(x)^M at the center of one depth-J cell.

    chi_I(x) = (1 + d(x, I)/len(I))**-1; distances are taken inside [0, 1)
    without periodization.
    """
    if not 0 <= cell < (1 << depth_J):
        raise ValueError(f"cell {cell} out of range at depth {depth_J}")
    return float(chi_weights(I, depth_J, M)[cell])


def chi_weights(I: DyadicInterval, depth_J: int, M: int = DEFAULT_CHI_M) -> np.ndarray:
    """chi_I^M sampled at every cell center of the depth-J grid (read-only)."""
    lo, _ = I.cell_range(depth_J)
    n = 1 << depth_J
    return chi_kernel(depth_J, I.depth, M)[n - lo : 2 * n - lo]


class StepFunction:
    """Nonincreasing right-continuous step function on [0, total_measure].

    Levels hold equal measure ``width``; evaluates to 0 past the total.
    """

    __slots__ = ("levels", "width")

    def __init__(self, levels: np.ndarray, width: float):
        self.levels = levels
        self.width = width

    @property
    def total_measure(self) -> float:
        return self.levels.shape[0] * self.width

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("rearrangement argument must be >= 0")
        k = int(np.floor(t / self.width))
        if k >= self.levels.shape[0]:
            return 0.0
        return float(self.levels[k])


def decreasing_rearrangement(f: Signal, I: DyadicInterval) -> StepFunction:
    """Exact decreasing rearrangement of |f| restricted to I."""
    f._check(I)
    lo, hi = I.cell_range(f.depth_J)
    vals = np.sort(np.abs(f.values[lo:hi]))[::-1]
    return StepFunction(vals, f.cell_width)


def weak_l1_quasinorm(f: Signal, E=None) -> float:
    """sup over lam of lam * |{x in E : |f(x)| > lam}|, exact.

    The sup is a max over the finitely many distinct values of |f| on E.
    """
    mask = cells_of(f, E)
    vals = np.abs(f.values[mask])
    if vals.size == 0:
        return 0.0
    vals = np.sort(vals)[::-1]
    return float(np.max(vals * np.arange(1, vals.size + 1))) * f.cell_width


def lp_norm(f: Signal, p: float, I: DyadicInterval | None = None,
            weight=None) -> float:
    """(integral over I of |f|^p w dx)**(1/p), exact; w defaults to 1."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    mask = cells_of(f, I)
    vals = np.abs(f.values[mask])
    if weight is not None:
        w = weight.values if hasattr(weight, "values") else np.asarray(weight, float)
        vals = vals ** p * w[mask]
    else:
        vals = vals ** p
    return float(np.sum(vals) * f.cell_width) ** (1.0 / p)
