"""Dyadic Hardy-Littlewood and sharp maximal operators, and the local mean
oscillation functional.

Both maximal functions take the sup over shift-0 dyadic intervals
containing the point (depths 0 .. J), never over general intervals; the
dyadic Hardy-Littlewood operator then has weak (1,1) constant 1, which is
what calibrates the level sets of the weak (1,1) certifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dyadic import DyadicInterval, Signal

__all__ = ["MaximalKind", "maximal", "local_mean_oscillation", "DEFAULT_LAMBDA"]

#: default rearrangement level for Lerner decompositions (1-D instance of 2**-(2+n))
DEFAULT_LAMBDA = 0.125


@dataclass(frozen=True)
class MaximalKind:
    """One of the maximal-operator variants; build via the classmethods."""

    name: str

    @classmethod
    def hl(cls):
        return cls("hl")

    @classmethod
    def sharp(cls):
        return cls("sharp")


def maximal(f: Signal, kind: MaximalKind) -> Signal:
    """Pointwise sup over dyadic intervals containing x of the local functional.

    The functional of every depth-d interval is one row of a block array
    (:func:`kernels.row_means` of |f| for hl, :func:`kernels.row_oscillations`
    of f for sharp, numpy's ``mean`` bit for bit), and the sup is
    one top-down pass: a depth-d interval's running max is the max of its
    parent's and its own value, taken in that order, so every cell gets the
    maxima of depths 0, 1, ..., J in that order.  hl reads |f| once.
    """
    if kind.name == "hl":
        functional, values = kernels.row_means, np.abs(f.values)
    elif kind.name == "sharp":
        functional, values = kernels.row_oscillations, f.values
    else:
        raise ValueError(f"unknown maximal kind {kind.name!r}")
    J = f.depth_J
    out = functional(values.reshape(-1, 1 << J))
    for d in range(1, J + 1):
        rows = functional(values.reshape(-1, 1 << (J - d)))
        out = np.maximum(out[:, None], rows.reshape(-1, 2)).ravel()
    return Signal(out)


def shortest_window_oscillation(sorted_vals: np.ndarray, k: int):
    """min over c of the (k+1)-th largest |v - c|, per last-axis row of ascending sorted_vals.

    Equals half the width of the shortest window containing m - k of the
    values; the optimum c is that window's midpoint.
    """
    m = sorted_vals.shape[-1]
    keep = m - k
    if keep <= 1:
        return np.zeros(sorted_vals.shape[:-1])
    return kernels.row_min(sorted_vals[..., keep - 1 :] - sorted_vals[..., : m - keep + 1]) / 2.0


def local_mean_oscillation(f: Signal, I: DyadicInterval, lam: float) -> float:
    """omega_lam(f; I): the rearrangement of (f - c) 1_I at lam |I|, minimized in c.

    Computed exactly: the rearrangement value is the (k+1)-th largest
    distance |f - c| with k = floor(lam * m), and its infimum over c is the
    shortest-window half-width over the sorted cell values.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    f._check(I)
    lo, hi = I.cell_range(f.depth_J)
    vals = np.sort(f.values[lo:hi])
    k = int(np.floor(lam * vals.shape[0]))
    return float(shortest_window_oscillation(vals, k))
