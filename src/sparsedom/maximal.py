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


def _depth_functional_hl(f, d):
    B = 1 << (f.depth_J - d)
    return np.abs(f.values).reshape(-1, B).sum(axis=1) / B


def _depth_functional_sharp(f, d):
    B = 1 << (f.depth_J - d)
    blocks = f.values.reshape(-1, B)
    means = blocks.mean(axis=1, keepdims=True)
    return np.abs(blocks - means).mean(axis=1)


def maximal(f: Signal, kind: MaximalKind) -> Signal:
    """Pointwise sup over dyadic intervals containing x of the local functional."""
    if kind.name == "hl":
        functional = _depth_functional_hl
    elif kind.name == "sharp":
        functional = _depth_functional_sharp
    else:
        raise ValueError(f"unknown maximal kind {kind.name!r}")
    J = f.depth_J
    out = np.full(f.n_cells, -np.inf)
    for d in range(J + 1):
        np.maximum(out, np.repeat(functional(f, d), 1 << (J - d)), out=out)
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
    return np.min(sorted_vals[..., keep - 1 :] - sorted_vals[..., : m - keep + 1], axis=-1) / 2.0


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
