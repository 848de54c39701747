"""Weights, the weighted A_p characteristic, H^p and CMO^p norms, and the
sparse atomic decomposition.

The atomic decomposition runs the same norm stopping time as the square
function domination, entering the engine through ``stopping._stop`` with a
single function and exponent r < p; each node's atom collects the Haar
modes of its sub-family, so support and cancellation are exact and the L2
normalization is met with equality.  The decomposition
holds the run's node arrays (``stopping._Run``), f's coefficients and two
arrays aligned with the run order, ``c`` (c_Q in the sum) and ``scale`` (c_Q
as the atom was normalized), never an atom as a length-n vector: the Q of one
depth are disjoint, so one inverse transform per depth of Q gives every atom
of that depth on its own block, and reconstruction and the atom checks are
block reductions on those vectors, O(J n) in all.  ``to_dict`` records each
atom's (depth, index) pairs and coefficients a_I, from which
a_Q = c_Q^{-1} sum a_I h_I is rebuilt.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .dyadic import (DyadicInterval, NodeMap, Signal, check_finite, checks_ok, depth_index,
                     lp_norm, plain_checks)
from .haar import HaarCoefficients, haar_transform, inverse_haar_transform
from .sparse import SparseCollection, child_budget_ok
from .stopping import (_grouped, _hardy_exponents, _lp, _owner_sums, _Run, _squared, _stop,
                       _StockHeaps)

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


def ap_characteristic(w: Weight, p: float) -> float:
    """Muckenhoupt characteristic sup over dyadic Q of (avg w)(avg w^{1-p'})^{p-1}."""
    if p <= 1:
        raise ValueError("A_p requires p > 1")
    dual_exp = -1.0 / (p - 1.0)          # 1 - p'
    dual = w.values**dual_exp
    best = 0.0
    for d in range(w.depth_J + 1):
        a = kernels.row_means(w.values.reshape(1 << d, -1))
        b = kernels.row_means(dual.reshape(1 << d, -1))
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


@dataclass(eq=False)
class AtomicDecomposition:
    """f = mean + sum over Q of c_Q a_Q, held as the stopping run's arrays.

    ``run`` is the run in heap nodes (``stopping._Run``): ``run.members[k]``
    is in the sub-family of ``run.owners[k]``.  ``c`` and ``scale`` are
    aligned with ``run.order``: ``c`` is c_Q, the coefficient in the sum,
    and ``scale`` the c_Q the atom was normalized with, equal to ``c`` as
    built; both are 0.0 at a node that carries no atom.  The atom
    a_Q = scale_Q^{-1} sum over Q's sub-family of a_I h_I, with a_I read off
    ``haar`` (f's coefficients).  ``coefficients``, ``subfamilies`` and
    ``atoms`` are read-only views keyed by interval, in run order, that read
    each Q's group and c_Q at its position in ``run.order``; :attr:`atoms`
    builds one length-n Signal per read, while :meth:`reconstruct` and
    :meth:`verify` take one inverse transform per depth of Q
    (:meth:`_render`).
    """

    collection: SparseCollection
    run: _Run
    c: np.ndarray
    scale: np.ndarray
    signal: Signal
    haar: HaarCoefficients
    mean: float
    depth_J: int
    p: float
    r: float
    stopping_constant: float
    checks: dict = field(default_factory=dict)

    def _atom_view(self, build) -> Mapping:
        """A view over the atoms in run order: Q -> ``build(j, Q)``, with j
        Q's position in ``run.order``."""
        at = np.flatnonzero(self.scale)
        return NodeMap(self.run.order[at], lambda k, Q: build(at[k], Q))

    @property
    def coefficients(self) -> Mapping:
        """Q -> c_Q for every atom; iterates the atoms in run order."""
        return self._atom_view(lambda j, Q: float(self.c[j]))

    @property
    def subfamilies(self) -> Mapping:
        """Q -> Q's sub-family as an array of heap nodes in node order, for
        every node of the run; iterates the run in run order."""
        family, starts = _grouped(self.run.order, self.run.owners, self.run.members)
        return NodeMap(self.run.order, lambda k, Q: family[starts[k] : starts[k + 1]])

    @property
    def atoms(self) -> Mapping:
        """Q -> a_Q as a full-length Signal, built on access by one inverse
        transform of f's coefficients on Q's sub-family, divided by the c_Q
        the atom was normalized with; iterates the atoms in run order."""
        return self._atom_view(self._atom)

    def _atom(self, j, Q) -> Signal:
        own = self.run.members[self.run.owners == Q.node]
        heap = np.zeros_like(self.haar.heap)
        heap[own] = self.haar.heap[own]
        atom = inverse_haar_transform(HaarCoefficients(heap, 0.0, self.depth_J))
        return Signal(atom.values / self.scale[j])

    def ok(self) -> bool:
        return checks_ok(self.checks)

    def _render(self):
        """(out, ok): out = mean + sum of c_Q a_Q and ok the support and
        moment checks of every atom, in one sweep over the depths of Q.

        One inverse transform per depth d renders every atom of that depth:
        the Q of one depth are disjoint and each sub-family lies inside its
        Q, so the transform of their summed coefficients, read as a
        (2**d, 2**(J-d)) array, holds in row i of Q = (d, i) Q's own
        transform bit for bit (every other coefficient adds an exact zero)
        and 0.0 in the rows of no atom.  The depths are added in increasing
        order: the Q that contain a cell form a chain, and a deeper Q is a
        later generation of the run, so every cell adds its terms in run
        order.  ok needs every member of an atom on the grid and at or below
        its owner (``members >> (d_m - d_q) == owners``), each depth's
        transform 0.0 off its atoms' rows, and each atom's |integral| <=
        1e-12 (the row's pairwise tree sum, as ``kernels.interval_sums`` adds
        it, so ``atoms[Q].integral()`` bit for bit) and ||a_Q||_2 <=
        |Q|^{1/2-1/p} (1 + 1e-12).
        """
        J, dx = self.depth_J, self.signal.cell_width
        n = 1 << J
        out = np.full(n, self.mean)
        run, atom = self.run, self.scale != 0.0
        depth = depth_index(run.order)[0]
        m, q = run.members, run.owners
        if not atom.all():   # the sub-family of a node with c_Q = 0 renders nothing
            mine = np.isin(q, run.order[atom])
            m, q = m[mine], q[mine]
        # bit lengths (depth + 1): a member at or below its owner shifts onto it
        bm, bq = np.frexp(m)[1], np.frexp(q)[1]
        grid = (m > 0) & (m < n)
        ok = bool(np.all(grid & (m >> np.maximum(bm - bq, 0) == q)))
        for d in kernels.sorted_unique(depth[atom]).tolist():
            at = np.flatnonzero(atom & (depth == d))
            own = m[grid & (bq == d + 1)]
            heap = np.zeros(n)
            heap[own] = self.haar.heap[own]
            raw = inverse_haar_transform(HaarCoefficients(heap, 0.0, J)).values
            raw = raw.reshape(1 << d, -1)
            rows = run.order[at] - (1 << d)
            off = np.ones(1 << d, dtype=bool)
            off[rows] = False
            atoms = raw[rows]
            atoms /= self.scale[at][:, None]
            sums = atoms
            while sums.shape[1] > 1:
                sums = sums[:, 0::2] + sums[:, 1::2]
            norm2 = np.sqrt(np.sum(np.square(atoms), axis=1) * dx)
            if (raw[off].any() or np.any(np.abs(sums * dx) > 1e-12)
                    or np.any(norm2 > (2.0 ** -d) ** (0.5 - 1.0 / self.p) * (1.0 + 1e-12))):
                ok = False
            atoms *= self.c[at][:, None]
            raw[rows] = atoms
            out += raw.reshape(-1)
        return out, ok

    def reconstruct(self) -> Signal:
        """mean + sum of c_Q a_Q, one inverse transform per depth of Q."""
        return Signal(self._render()[0])

    def verify(self) -> dict:
        """The decomposition's checks, recomputed from its arrays in O(J n):
        ``atoms_ok`` and the reconstruction are :meth:`_render`'s sweep."""
        if not self.run.order.size:
            return {"empty": True}
        recon, atom_ok = self._render()
        f = self.signal.values
        recon_err = float(np.max(np.abs(recon - f)))
        S = self.collection
        inner = S.parents > 0
        sf_norm = hardy_norm(self.haar, self.p)
        budget_sum = float(sum(c**self.p for c in self.c.tolist()))
        return {
            "reconstruction_error": recon_err,
            "reconstruction_ok": recon_err < 1e-12 * max(1.0, float(np.max(np.abs(f)))),
            "child_budget_ok": child_budget_ok(S.nodes[inner], S.parents[inner]),
            "atoms_ok": atom_ok,
            "lp_budget": budget_sum,
            "hardy_norm_p": sf_norm,
            "lp_budget_ratio": budget_sum / sf_norm**self.p if sf_norm > 0 else 0.0,
        }

    def to_dict(self) -> dict:
        """The record: each atom as Q, c_Q, its sub-family's (depth, index)
        pairs and f's coefficients a_I on them, so that a_Q = c_Q^{-1} sum
        a_I h_I can be rebuilt."""
        fams = self.subfamilies
        atoms = [{"Q": [Q.depth, Q.index], "c_Q": c,
                  "family": np.stack(depth_index(fams[Q]), axis=1).tolist(),
                  "a_I": self.haar.heap[fams[Q]].tolist()}
                 for Q, c in sorted(self.coefficients.items())]
        return {
            "p": self.p,
            "r": self.r,
            "C": self.stopping_constant,
            "mean": self.mean,
            "checks": plain_checks(self.checks),
            "atoms": atoms,
        }


def atomic_decompose(f: Signal, p: float, r: float | None = None,
                     C: float = 4.0) -> AtomicDecomposition:
    """Sparse atomic decomposition of f - mean(f) in the Haar Hardy space.

    Stopping functional: the L^r-normalized square function of the
    surviving modes.  Each selected node Q yields

        c_Q = |Q|^{1/p - 1/2} (sum over its sub-family of a_I^2)^{1/2},
        a_Q = c_Q^{-1} sum over the sub-family of a_I h_I,

    so support, cancellation and the equality ||a_Q||_2 = |Q|^{1/2 - 1/p}
    hold by construction; a node with c_Q = 0 carries no atom, and a
    constant f gives an empty run.  The checks are
    :meth:`AtomicDecomposition.verify`'s.
    """
    r = _hardy_exponents(p, r, C)
    check_finite(f)
    J = f.depth_J
    coeffs = haar_transform(f)
    nodes = coeffs.support_nodes()
    heaps = _StockHeaps(nodes, (_squared(coeffs.heap, "f"),), (_lp(J, r, f.cell_width),))
    run, final_C = _stop("atoms", nodes, heaps, C)
    # libm powers (np.float_power), as Python's a ** 2, |Q| ** e and e ** 0.5
    energy = _owner_sums(run, np.float_power(coeffs.heap, 2.0))
    length = np.ldexp(1.0, -depth_index(run.order)[0])
    c = np.float_power(length, 1.0 / p - 0.5) * np.float_power(energy, 0.5)
    deco = AtomicDecomposition(SparseCollection.from_nodes(run.order), run, c, c.copy(),
                               f, coeffs, coeffs.mean, J, p, r, final_C)
    deco.checks = deco.verify()
    return deco
