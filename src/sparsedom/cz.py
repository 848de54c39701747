"""Calderon-Zygmund decomposition and the weak (1,1) certification scheme.

The decomposition splits |f| at a level alpha into a bounded good part and
cancellative bad parts supported on the maximal dyadic intervals where the
local average exceeds alpha.  Level-set decisions and invariant checks run
in exact rational arithmetic (cell values are dyadic rationals), so the
decomposition identities are certified exactly; the stored signals are the
float rendering of that exact object.

The weak (1,1) certifier follows the major-subset characterization of weak
L^1: for a family of test sets E it builds E' = E minus a controlled level
set of the maximal function, integrates |op f| there, and cross-checks the
exact level-set quasinorm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicInterval, ROOT, Signal, cells_of, lp_norm, weak_l1_quasinorm
from .maximal import MaximalKind, maximal

__all__ = ["CZDecomposition", "cz_decompose", "weak11_certify"]


def _fraction_sums(values) -> list:
    """Heap of exact cell sums over every dyadic interval (Fractions)."""
    n = values.shape[0]
    heap = [Fraction(0)] * (2 * n)
    for i, v in enumerate(values):
        heap[n + i] = Fraction(float(v))
    for k in range(n - 1, 0, -1):
        heap[k] = heap[2 * k] + heap[2 * k + 1]
    return heap


@dataclass
class CZDecomposition:
    level_alpha: float
    good: Signal
    bad_cubes: tuple
    bad_parts: dict
    source_abs: Signal

    def verify(self) -> dict:
        """Exact rational verification of the decomposition invariants.

        The exact object has cube averages avg_Q = (exact cell sum) / m and
        bad parts |f| - avg_Q on each cube; the stored signals must render
        it (good is float(avg_Q) on the cubes and |f| outside bitwise), and
        all identities are checked as exact rational statements.
        """
        f = self.source_abs
        J = f.depth_J
        n = f.n_cells
        alpha = Fraction(float(self.level_alpha))
        sums = _fraction_sums(f.values)
        cells = [Fraction(float(v)) for v in f.values]
        root_is_bad = self.bad_cubes == (ROOT,) and sums[1] / n > alpha

        split_ok = cancel_ok = support_ok = disjoint_ok = True
        measure_ok = linf_ok = maximal_ok = True
        covered = np.zeros(n, dtype=bool)
        for Q in self.bad_cubes:
            lo, hi = Q.cell_range(J)
            if np.any(covered[lo:hi]):
                disjoint_ok = False
            covered[lo:hi] = True
            avg = sums[Q.node] / (hi - lo)
            # rendering: stored good is the rounded exact average
            if np.any(self.good.values[lo:hi] != float(avg)):
                split_ok = False
            stored = self.bad_parts[Q].values
            if np.any(stored[:lo] != 0.0) or np.any(stored[hi:] != 0.0):
                support_ok = False
            # exact cancellation of the exact bad part
            if sum(cells[lo:hi], Fraction(0)) - avg * (hi - lo) != 0:
                cancel_ok = False
            if not root_is_bad:
                if not avg > alpha:
                    maximal_ok = False
                parent_avg = sums[Q.parent().node] / (2 * (hi - lo))
                if parent_avg > alpha:
                    maximal_ok = False
                if avg > 2 * alpha:   # dyadic parent bound
                    linf_ok = False
        if np.any(self.good.values[~covered] != f.values[~covered]):
            split_ok = False
        if not root_is_bad and np.any(np.abs(f.values[~covered]) > float(alpha)):
            linf_ok = False        # uncovered cells sit under the level

        l1_exact = sums[1] / n
        if not root_is_bad:
            total = sum((Fraction(1, 1 << Q.depth) for Q in self.bad_cubes),
                        Fraction(0))
            measure_ok = total * alpha <= l1_exact
        good_l1 = sum((Fraction(float(v)) for v in self.good.values),
                      Fraction(0)) / n
        good_l1_ok = good_l1 <= l1_exact * (1 + Fraction(1, 10**9))
        return {
            "split_ok": bool(split_ok),
            "cancellation_ok": bool(cancel_ok),
            "support_ok": bool(support_ok),
            "cube_measure_ok": bool(measure_ok),
            "good_linf_ok": bool(linf_ok),
            "good_l1_ok": bool(good_l1_ok),
            "cubes_disjoint_ok": bool(disjoint_ok),
            "cubes_maximal_ok": bool(maximal_ok),
        }

    def ok(self) -> bool:
        return all(self.verify().values())


def cz_decompose(f: Signal, alpha: float) -> CZDecomposition:
    """Split |f| = good + sum of bad parts at level alpha.

    Bad cubes are the maximal dyadic intervals with average of |f| above
    alpha (equivalently, of the level set {M|f| > alpha}); the good part is
    |f| off their union and the cube average on each of them, so every bad
    part integrates to zero.  Averages are compared with alpha in exact
    rational arithmetic.  If alpha is at most the root average the root
    itself is the single bad cube.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    absf = Signal(np.abs(f.values))
    J = f.depth_J
    n = absf.n_cells
    alpha_x = Fraction(float(alpha))
    sums = _fraction_sums(absf.values)

    def avg_of(node, depth):
        return sums[node] / (1 << (J - depth))

    bad = []
    if avg_of(1, 0) > alpha_x:
        bad = [ROOT]
    else:
        stack = [ROOT]
        while stack:
            Q = stack.pop()
            if Q.depth == J:
                continue
            for P in (Q.left(), Q.right()):
                if avg_of(P.node, P.depth) > alpha_x:
                    bad.append(P)
                else:
                    stack.append(P)
    good = absf.values.copy()
    parts = {}
    for Q in bad:
        lo, hi = Q.cell_range(J)
        avg = avg_of(Q.node, Q.depth)
        b = np.zeros(n)
        b[lo:hi] = absf.values[lo:hi] - float(avg)
        good[lo:hi] = float(avg)
        parts[Q] = Signal(b)
    return CZDecomposition(alpha, Signal(good), tuple(sorted(bad)), parts, absf)


def weak11_certify(op, f: Signal, K: float = 4.0, seed: int = 0,
                   n_random_sets: int = 16) -> dict:
    """Certify weak (1,1) behaviour of op at f via major subsets.

    op is a callable Signal -> Signal.  f is normalized in L^1.  For every
    test set E (all dyadic intervals plus seeded random cell unions) the
    major subset is E' = {x in E : M f(x) < K / |E|}; the report records
    whether 2|E'| >= |E| always held, the sup over E of the exact integral
    of |op f| on E' (an upper proxy for the weak quasinorm), the exact
    level-set quasinorm, and the per-level constants lambda |{|op f| >
    lambda}|.
    """
    if K <= 0:
        raise ValueError("K must be > 0")
    norm1 = lp_norm(f, 1.0)
    if norm1 == 0.0:
        return {"weak_quasinorm": 0.0, "proxy": 0.0, "majority_ok": True,
                "crosscheck_ok": True, "alpha_levels": [], "weak_constants": [],
                "worst_E": None, "K": K}
    fn = Signal(f.values / norm1)
    J = fn.depth_J
    n = fn.n_cells
    mf = maximal(fn, MaximalKind.hl()).values
    tf = np.abs(op(fn).values)
    dx = fn.cell_width

    test_sets = [(f"dyadic d={d} i={i}", cells_of(fn, DyadicInterval(d, i)))
                 for d in range(J + 1) for i in range(1 << d)]
    rng = np.random.default_rng(seed)
    for t in range(n_random_sets):
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        if mask.any():
            test_sets.append((f"random #{t}", mask))

    proxy = 0.0
    worst = None
    majority_ok = True
    for name, mask in test_sets:
        measure_e = mask.sum() * dx
        eprime = mask & (mf < K / measure_e)
        if 2.0 * eprime.sum() * dx < measure_e:
            majority_ok = False
        val = float(np.sum(tf[eprime]) * dx)
        if val > proxy:
            proxy, worst = val, name

    levels = np.unique(tf[tf > 0])
    srt = np.sort(tf)
    n_ge = tf.size - np.searchsorted(srt, levels, side="left")
    weak_constants = [float(lam * k * dx) for lam, k in zip(levels, n_ge)]
    quasinorm = weak_l1_quasinorm(Signal(tf))
    return {
        "weak_quasinorm": quasinorm,
        "proxy": proxy,
        "majority_ok": majority_ok,
        "crosscheck_ok": bool(quasinorm <= 2.0 * proxy * (1.0 + 1e-9)) if proxy > 0 else quasinorm == 0.0,
        "alpha_levels": [float(x) for x in levels],
        "weak_constants": weak_constants,
        "worst_E": worst,
        "K": K,
    }
