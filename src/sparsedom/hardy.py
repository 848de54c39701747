"""Weights, the weighted A_p characteristic, H^p and CMO^p norms, and the
sparse atomic decomposition.

The atomic decomposition runs the same norm stopping time as the square
function domination, with a single function and exponent r < p; each node's
atom collects the Haar modes of its sub-family, so support and cancellation
are exact and the L2 normalization is met with equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dyadic import DyadicInterval, Signal, check_finite, lp_norm
from .haar import HaarCoefficients, haar_transform, inverse_haar_transform
from .sparse import SparseCollection, child_budget_ok
from .stopping import (_first_values, _lp_values, _run_family, _split, _squared,
                       _with_retries)

__all__ = [
    "Weight", "ap_characteristic", "square_function", "hardy_norm",
    "cmo_norm", "AtomicDecomposition", "atomic_decompose",
]


class Weight:
    """Strictly positive density on the depth-J cells, with cached masses."""

    __slots__ = ("values", "depth_J", "_heap")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("weight values must be one-dimensional")
        n = values.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError("number of cells must be a power of two >= 2")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("weight must be strictly positive and finite")
        self.values = values
        self.depth_J = n.bit_length() - 1
        self._heap = None

    @property
    def heap(self) -> np.ndarray:
        """w(I) for every dyadic I of depth <= J, at heap position I.node."""
        if self._heap is None:
            self._heap = kernels.interval_sums(self.values) * 2.0 ** (-self.depth_J)
        return self._heap

    def measure(self, I: DyadicInterval) -> float:
        """w(I) = integral of the density over I, exact."""
        if I.depth > self.depth_J:
            raise ValueError("interval finer than the weight resolution")
        return float(self.heap[I.node])

    def signal(self) -> Signal:
        return Signal(self.values)

    def __repr__(self):
        return f"Weight(J={self.depth_J})"


def _depth_means(values, depth_J, d):
    B = 1 << (depth_J - d)
    return values.reshape(-1, B).mean(axis=1)


def ap_characteristic(w: Weight, p: float) -> float:
    """Muckenhoupt characteristic sup over dyadic Q of (avg w)(avg w^{1-p'})^{p-1}."""
    if p <= 1:
        raise ValueError("A_p requires p > 1")
    dual_exp = -1.0 / (p - 1.0)          # 1 - p'
    dual = w.values**dual_exp
    best = 0.0
    for d in range(w.depth_J + 1):
        a = _depth_means(w.values, w.depth_J, d)
        b = _depth_means(dual, w.depth_J, d)
        best = max(best, float(np.max(a * b ** (p - 1.0))))
    return best


def square_function(f_or_coeffs) -> Signal:
    """The full square function over every dyadic mode of depth < J."""
    coeffs = f_or_coeffs if isinstance(f_or_coeffs, HaarCoefficients) \
        else haar_transform(f_or_coeffs)
    prof = kernels.subtree_profile(coeffs.heap**2, coeffs.depth_J, 0, 0)
    return Signal(np.sqrt(prof))


def hardy_norm(f_or_coeffs, p: float, weight: Weight | None = None) -> float:
    """Weighted Hardy quasi-norm: the L^p(w) norm of the full square function."""
    if not 0.0 < p <= 1.0:
        raise ValueError("Hardy exponent must lie in (0, 1]")
    return lp_norm(square_function(f_or_coeffs), p, weight=weight)


def cmo_norm(g_or_coeffs, p: float, weight: Weight) -> float:
    """sup over I0 of w(I0)^{-1/p} (w(I0) sum over I <= I0 of a_I^2 |I|/w(I))^{1/2}."""
    if not 0.0 < p <= 1.0:
        raise ValueError("CMO exponent must lie in (0, 1]")
    coeffs = g_or_coeffs if isinstance(g_or_coeffs, HaarCoefficients) \
        else haar_transform(g_or_coeffs)
    J = coeffs.depth_J
    if weight.depth_J < J - 1:
        raise ValueError("weight is coarser than the finest Haar mode")
    # heap entries 1 .. 2**J - 1: w(I), |I| and a_I of every mode
    wI = weight.heap[1 : 1 << J]
    length = np.ldexp(1.0, -np.repeat(np.arange(J), 1 << np.arange(J)))
    a = coeffs.heap[1:]
    vals = np.zeros(1 << J)
    vals[1:] = a * a * length / wI
    sub = kernels.heap_subtree_sums(vals, J)[1:]
    hit = sub > 0.0
    if not hit.any():
        return 0.0
    return float(np.max((wI[hit] * sub[hit]) ** 0.5 / wI[hit] ** (1.0 / p)))


@dataclass
class AtomicDecomposition:
    """``subfamilies[Q]`` is Q's sub-family as a sorted array of heap nodes;
    ``coefficients`` and ``atoms`` skip the nodes with c_Q = 0."""

    collection: SparseCollection
    coefficients: dict
    atoms: dict
    subfamilies: dict
    mean: float
    depth_J: int
    p: float
    r: float
    stopping_constant: float
    checks: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(bool(v) for k, v in self.checks.items() if k.endswith("_ok"))

    def reconstruct(self) -> Signal:
        out = np.full(1 << self.depth_J, self.mean)
        for Q, c in self.coefficients.items():
            out += c * self.atoms[Q].values
        return Signal(out)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "C": self.stopping_constant,
            "mean": self.mean,
            "checks": {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                       for k, v in self.checks.items()},
            "atoms": [
                {"Q": [Q.depth, Q.index], "c_Q": self.coefficients[Q],
                 "atom_values": self.atoms[Q].values.tolist()}
                for Q in sorted(self.coefficients)
            ],
        }


def atomic_decompose(f: Signal, p: float, r: float | None = None,
                     C: float = 4.0) -> AtomicDecomposition:
    """Sparse atomic decomposition of f - mean(f) in the Haar Hardy space.

    Stopping functional: the L^r-normalized square function of the
    surviving modes.  Each selected node Q yields

        c_Q = |Q|^{1/p - 1/2} (sum over its sub-family of a_I^2)^{1/2},
        a_Q = c_Q^{-1} sum over the sub-family of a_I h_I,

    so support, cancellation and the equality ||a_Q||_2 = |Q|^{1/2 - 1/p}
    hold by construction; nodes with c_Q = 0 are dropped.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if r is None:
        r = p / 2.0
    if not 0.0 < r < p:
        raise ValueError("need 0 < r < p")
    if C < 1.0:
        raise ValueError("stopping constant C must be >= 1")
    check_finite(f)
    J = f.depth_J
    coeffs = haar_transform(f)
    mean = coeffs.mean
    nodes = coeffs.support_nodes()
    if not nodes.size:
        return AtomicDecomposition(SparseCollection([]), {}, {}, {}, mean, J,
                                   p, r, C, checks={"empty": True})
    dx = f.cell_width

    def n_r(vals, d, index):
        return _lp_values(vals, J, d, index, r, dx)

    heaps, functionals = (_squared(coeffs.heap, "f"),), (n_r,)
    first = _first_values(nodes, heaps, functionals)
    run, final_C = _with_retries(
        "atoms", lambda c: _run_family(nodes, heaps, functionals, None, c, first), C)
    # energies add libm squares (np.float_power), as Python's a ** 2 does
    families, energy = _split(run, np.float_power(coeffs.heap, 2.0))
    subfam = dict(zip(map(DyadicInterval.from_node, run.order.tolist()), families))

    coefficients, atoms = {}, {}
    for (Q, own), e in zip(subfam.items(), energy.tolist()):
        c_Q = Q.length ** (1.0 / p - 0.5) * e ** 0.5
        if c_Q == 0.0:
            continue
        heap = np.zeros(1 << J)
        heap[own] = coeffs.heap[own]
        atom = inverse_haar_transform(HaarCoefficients(heap, 0.0, J))
        coefficients[Q] = c_Q
        atoms[Q] = Signal(atom.values / c_Q)

    collection = SparseCollection.from_nodes(run.order)
    deco = AtomicDecomposition(collection, coefficients, atoms, subfam, mean,
                               J, p, r, final_C)

    recon_err = float(np.max(np.abs(deco.reconstruct().values - f.values)))
    budget_ok = child_budget_ok(run.kids, run.parents)
    atom_ok = True
    for Q, atom in atoms.items():
        lo, hi = Q.cell_range(J)
        outside = np.concatenate([atom.values[:lo], atom.values[hi:]])
        norm2 = lp_norm(atom, 2.0)
        bound = Q.length ** (0.5 - 1.0 / p)
        if (np.any(outside != 0.0)
                or abs(atom.integral()) > 1e-12
                or norm2 > bound * (1.0 + 1e-12)):
            atom_ok = False
    sf_norm = hardy_norm(coeffs, p)
    budget_sum = float(sum(c**p for c in coefficients.values()))
    deco.checks = {
        "reconstruction_error": recon_err,
        "reconstruction_ok": recon_err < 1e-12 * max(1.0, float(np.max(np.abs(f.values)))),
        "child_budget_ok": budget_ok,
        "atoms_ok": atom_ok,
        "lp_budget": budget_sum,
        "hardy_norm_p": sf_norm,
        "lp_budget_ratio": budget_sum / sf_norm**p if sf_norm > 0 else 0.0,
    }
    return deco
