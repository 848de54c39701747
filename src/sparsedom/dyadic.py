"""Finite dyadic geometry on [0, 1) and exact integration of step signals.

Signals are piecewise constant on the 2**J cells of the finest depth J, so
every integral below is a finite sum times the cell width 2**-J; no
quadrature error enters any certified inequality.  Every stopping time in
this package runs on the shift-0 grid.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .kernels import chi_kernel, interval_sums, row_oscillations

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


def depth_index(nodes) -> tuple[np.ndarray, np.ndarray]:
    """(depth, index) int arrays of an array of heap nodes, one pass each:
    the inverse of :attr:`DyadicInterval.node` without building intervals."""
    nodes = np.asarray(nodes, dtype=np.intp)
    depth = (np.frexp(nodes)[1] - 1).astype(np.intp)
    return depth, nodes - np.left_shift(1, depth)


def checks_ok(*checks) -> bool:
    """The one pass/fail rule of a run: every ``*_ok`` value of every
    checks dict holds."""
    return all(bool(v) for c in checks for k, v in c.items() if k.endswith("_ok"))


def plain_checks(checks: dict) -> dict:
    """A copy of checks with numpy bools as Python bools, for JSON."""
    return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
            for k, v in checks.items()}


class NodeMap(Mapping):
    """Read-only view keyed by dyadic intervals: Q -> ``build(k, Q)``, where
    k is Q's position in the heap nodes ``order``, built on access.
    Iterates ``order`` as given, which need not be sorted.  Anything but an
    interval of ``order`` is not ``in`` the view and raises KeyError."""

    def __init__(self, order, build):
        self._order = np.asarray(order, dtype=np.intp)
        self._sorter = np.argsort(self._order)
        self._build = build

    def _row(self, Q):
        if isinstance(Q, DyadicInterval):
            k = int(np.searchsorted(self._order, Q.node, sorter=self._sorter))
            if k < self._order.size and self._order[self._sorter[k]] == Q.node:
                return int(self._sorter[k])
        return None

    def __getitem__(self, Q):
        k = self._row(Q)
        if k is None:
            raise KeyError(Q)
        return self._build(k, Q)

    def __contains__(self, Q):
        return self._row(Q) is not None

    def __iter__(self):
        return map(DyadicInterval.from_node, self._order.tolist())

    def __len__(self):
        return self._order.size


class Signal:
    """Real signal, piecewise constant on the 2**J cells of [0, 1)."""

    __slots__ = ("values", "depth_J", "_sums")

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


def oscillation(f: Signal, I):
    """Mean absolute deviation of f from its mean on I.

    I is one DyadicInterval, or an int array of heap nodes of one depth, for
    which one value per node comes back as an array.  Either way the blocks
    are rows of ``f.values.reshape(2**depth, -1)`` and each value is
    :func:`kernels.row_oscillations` of its row, so an interval's value is
    its one-row call bit for bit.
    """
    one = isinstance(I, DyadicInterval)
    nodes = np.array([I.node]) if one else np.asarray(I, dtype=np.intp)
    if not nodes.size:
        return np.zeros(0)
    depth = int(nodes[0]).bit_length() - 1
    if depth > f.depth_J:
        raise ValueError(f"interval depth {depth} exceeds signal depth {f.depth_J}")
    index = nodes - (1 << depth)
    if np.any((index < 0) | (index >= 1 << depth)):
        raise ValueError("heap nodes must share one depth")
    out = row_oscillations(f.values.reshape(1 << depth, -1)[index])
    return float(out[0]) if one else out


def chi_weights(I: DyadicInterval, depth_J: int, M: int = DEFAULT_CHI_M) -> np.ndarray:
    """chi_I^M sampled at every cell center of the depth-J grid (read-only)."""
    lo, _ = I.cell_range(depth_J)
    n = 1 << depth_J
    return chi_kernel(depth_J, I.depth, M)[n - lo : 2 * n - lo]


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
    """(integral over I of |f|^p w dx)**(1/p), exact; w defaults to 1.

    With no I the cells are read whole, not through a mask: the same
    elements in the same order, so the same sum bit for bit."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    cells = slice(None) if I is None else cells_of(f, I)
    vals = np.abs(f.values[cells])
    if weight is not None:
        w = weight.values if hasattr(weight, "values") else np.asarray(weight, float)
        vals = vals ** p * w[cells]
    else:
        vals = vals ** p
    return float(np.sum(vals) * f.cell_width) ** (1.0 / p)
