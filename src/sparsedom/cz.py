"""Calderon-Zygmund decomposition and the weak (1,1) certification scheme.

The decomposition splits |f| at a level alpha into a bounded good part and
cancellative bad parts supported on the maximal dyadic intervals where the
local average exceeds alpha.  Cell values are dyadic rationals: ``np.frexp``
gives each a 53-bit integer mantissa, and shifting the mantissas to one
common exponent turns the exact interval sums into a heap of Python ints,
one level per depth.  Every level-set decision is an integer comparison
against alpha's exact ratio, so the decomposition is exact; the stored good
part and the one length-n vector of bad values are its float rendering,
and :meth:`CZDecomposition.verify` re-checks them against the exact object
in one vectorized pass.  Both cost O(J n) for n = 2**J cells.

The weak (1,1) certifier follows the major-subset characterization of weak
L^1 (the 1/2-sparse test of Lerner and Nazarov, *Intuitive dyadic calculus:
the basics*): for a family of test sets E it builds E' = E minus a
controlled level set of the maximal function, integrates |op f| there, and
cross-checks the exact level-set quasinorm.  Every dyadic E of one depth
has the same measure, so one mask and one block sum per depth cover all of
them: O(J n) instead of one O(n) pass per interval.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dyadic import (DyadicInterval, ROOT, Signal, check_finite, lp_norm,
                     weak_l1_quasinorm)
from .maximal import MaximalKind, maximal

__all__ = ["CZDecomposition", "cz_decompose", "weak11_certify"]


def _exact_ints(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints c (an object array) and one exponent e with
    values[i] == c[i] * 2**e exactly."""
    mant, expo = np.frexp(values)
    mant = (mant * 2.0 ** 53).astype(np.int64)     # |mant| < 2**53: exact
    expo = expo.astype(np.int64) - 53
    nonzero = mant != 0
    e = int(expo[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, expo - e, 0)
    return mant.astype(object) << shift.astype(object), e


def _cuts(num: int, den: int, J: int, e: int) -> np.ndarray:
    """For d = 0 .. J, the largest integer sum, in units of 2**e, whose
    average over a depth-d interval is <= num/den: a node's average exceeds
    alpha = num/den iff its exact sum exceeds its depth's cut."""
    cuts = []
    for d in range(J + 1):
        x = num << (J - d)
        cuts.append((x << -e) // den if e <= 0 else x // (den << e))
    return np.array(cuts, dtype=object)


def _averages(sums: np.ndarray, depth: np.ndarray, J: int, e: int) -> np.ndarray:
    """float(sum * 2**e / 2**(J-d)) of integer node sums, correctly rounded
    (int true division rounds correctly)."""
    out = [float(s << k) if k >= 0 else s / (1 << -k)
           for s, k in zip(sums, (e - J + depth).tolist())]
    return np.array(out, dtype=np.float64)


def _align(x: int, ex: int, y: int, ey: int) -> tuple[int, int]:
    """x * 2**ex and y * 2**ey as integers in the units of the smaller one."""
    e = min(ex, ey)
    return x << (ex - e), y << (ey - e)


def _cube_cells(lo: np.ndarray, size: np.ndarray) -> tuple:
    """The cells of every cube, cube by cube, the cube owning each and the
    position where each cube's cells start."""
    owner = np.repeat(np.arange(lo.size), size)
    start = np.cumsum(size) - size
    return np.arange(int(size.sum())) + np.repeat(lo - start, size), owner, start


class _BadParts(Mapping):
    """Read-only view of the bad parts: cube -> full-length Signal, built on
    access from the one stored vector of bad values."""

    def __init__(self, bad: np.ndarray, cubes: tuple, depth_J: int):
        self._bad, self._cubes, self._J = bad, cubes, depth_J
        self._keys = frozenset(cubes)

    def __getitem__(self, Q):
        if Q not in self._keys:
            raise KeyError(Q)
        lo, hi = Q.cell_range(self._J)
        b = np.zeros_like(self._bad)
        b[lo:hi] = self._bad[lo:hi]
        return Signal(b)

    def __contains__(self, Q):
        return Q in self._keys

    def __iter__(self):
        return iter(self._cubes)

    def __len__(self):
        return len(self._cubes)


@dataclass
class CZDecomposition:
    level_alpha: float
    good: Signal
    bad_cubes: tuple
    bad: np.ndarray        # |f| - good on the cubes, 0 elsewhere: every bad part
    source_abs: Signal

    @property
    def bad_parts(self) -> Mapping:
        """Bad part of each cube as a Signal (a view over :attr:`bad`)."""
        return _BadParts(self.bad, self.bad_cubes, self.source_abs.depth_J)

    def verify(self) -> dict:
        """Exact verification of the decomposition invariants.

        The exact object has cube averages avg_Q = (exact cell sum) / m and
        bad parts |f| - avg_Q on each cube.  The stored signals must render
        it: good is float(avg_Q) on the cubes and |f| outside bitwise, the
        bad vector vanishes off the cubes, and on each cube the stored bad
        values b_i satisfy the rendering bound
        |sum b_i| <= m |avg_Q - float(avg_Q)| + sum ulp(b_i) / 2.  Level
        decisions, measures and L^1 sums are exact integer statements.
        """
        f = self.source_abs.values
        J, n = self.source_abs.depth_J, self.source_abs.n_cells
        alpha = float(self.level_alpha)
        num, den = alpha.as_integer_ratio()
        good, bad = self.good.values, self.bad
        depth = np.array([Q.depth for Q in self.bad_cubes], dtype=np.int64)
        lo = np.array([Q.cell_range(J)[0] for Q in self.bad_cubes], dtype=np.int64)
        size = np.left_shift(1, J - depth)
        hi = lo + size

        ints, ev = _exact_ints(f)
        prefix = np.cumsum(np.concatenate(([0], ints)))
        cut = _cuts(num, den, J, ev)
        root_is_bad = self.bad_cubes == (ROOT,) and prefix[n] > cut[0]

        cover = np.cumsum(np.bincount(lo, minlength=n + 1)
                          - np.bincount(hi, minlength=n + 1))[:n]
        covered = cover > 0
        disjoint_ok = not np.any(cover > 1)
        cells, owner, start = _cube_cells(lo, size)

        sums = prefix[hi] - prefix[lo]
        favg = _averages(sums, depth, J, ev)
        split_ok = bool(np.all(good[cells] == favg[owner])
                        and np.all(good[~covered] == f[~covered]))
        support_ok = not np.any(bad[~covered] != 0.0)

        # rendering bound, doubled: 2|sum b| <= 2|m avg - m float(avg)| + sum ulp
        b = bad[cells]
        ulp = np.where(b == 0.0, 0.0, np.abs(np.spacing(b)))
        rend, er = _exact_ints(np.concatenate([b, ulp, favg]))
        L = b.size
        end = start + size
        bpre = np.cumsum(np.concatenate(([0], rend[:L])))
        upre = np.cumsum(np.concatenate(([0], rend[L:2 * L])))
        e0 = min(ev, er)
        m = size.astype(object)
        err = np.abs((sums << (ev - e0)) - ((m * rend[2 * L:]) << (er - e0)))
        lhs = (2 * np.abs(bpre[end] - bpre[start])) << (er - e0)
        cancel_ok = not np.any(lhs > 2 * err + ((upre[end] - upre[start]) << (er - e0)))

        maximal_ok = linf_ok = measure_ok = True
        if not root_is_bad:
            if np.any(depth == 0):
                maximal_ok = False
            else:
                plo = lo & ~(2 * size - 1)
                maximal_ok = bool(np.all(sums > cut[depth]) and np.all(
                    prefix[plo + 2 * size] - prefix[plo] <= cut[depth - 1]))
            # dyadic parent bound: avg_Q <= 2 alpha
            if np.any(sums > _cuts(2 * num, den, J, ev)[depth]):
                linf_ok = False
            if np.any(np.abs(f[~covered]) > alpha):
                linf_ok = False        # uncovered cells sit under the level
            # sum |Q| alpha <= ||f||_1, times n
            lhs, rhs = _align(int(size.sum()) * num, 0, prefix[n] * den, ev)
            measure_ok = lhs <= rhs
        gints, eg = _exact_ints(good)
        lhs, rhs = _align(np.sum(gints) * 10**9, eg, prefix[n] * (10**9 + 1), ev)
        good_l1_ok = lhs <= rhs
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
    part integrates to zero.  Averages are compared with alpha exactly, on
    an integer heap of the cell sums.  If alpha is at most the root average
    the root itself is the single bad cube.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be finite and > 0")
    check_finite(f)
    absf = Signal(np.abs(f.values))
    J = f.depth_J
    num, den = float(alpha).as_integer_ratio()
    ints, e = _exact_ints(absf.values)
    levels = [ints]                     # levels[k]: the 2**(J-k) sums at depth J-k
    for _ in range(J):
        levels.append(levels[-1][0::2] + levels[-1][1::2])
    levels.reverse()
    cut = _cuts(num, den, J, e)

    # maximal nodes above the level, depth by depth under the nodes not yet bad
    hits = [np.zeros(0, dtype=np.int64)] * (J + 1)
    if levels[0][0] > cut[0]:
        hits[0] = np.zeros(1, dtype=np.int64)
    else:
        alive = np.zeros(1, dtype=np.int64)
        for d in range(1, J + 1):
            alive = np.repeat(2 * alive, 2)
            alive[1::2] += 1
            above = levels[d][alive] > cut[d]
            hits[d], alive = alive[above], alive[~above]
    depth = np.repeat(np.arange(J + 1), [h.size for h in hits])
    index = np.concatenate(hits)
    sums = np.concatenate([levels[d][h] for d, h in enumerate(hits)])
    favg = _averages(sums, depth, J, e)
    size = np.left_shift(1, J - depth)
    lo = index * size
    cells, owner, _ = _cube_cells(lo, size)
    good = absf.values.copy()
    bad = np.zeros(absf.n_cells)
    good[cells] = favg[owner]
    bad[cells] = absf.values[cells] - favg[owner]
    cubes = tuple(map(DyadicInterval, depth.tolist(), index.tolist()))
    return CZDecomposition(alpha, Signal(good), cubes, bad, absf)


def weak11_certify(op, f: Signal, K: float = 4.0, seed: int = 0,
                   n_random_sets: int = 16) -> dict:
    """Certify weak (1,1) behaviour of op at f via major subsets.

    op is a callable Signal -> Signal.  f is normalized in L^1.  For every
    test set E (all dyadic intervals plus seeded random cell unions) the
    major subset is E' = {x in E : M f(x) < K / |E|}; the report records
    whether 2|E'| >= |E| always held, the sup over E of the exact integral
    of |op f| on E' (an upper proxy for the weak quasinorm), the exact
    level-set quasinorm, and the per-level constants lambda |{|op f| >
    lambda}|.  The dyadic sets are scanned one depth at a time: every E of
    depth d has |E| = 2**-d, so one mask M f < K 2**d and one block sum per
    depth give every count and an approximate integral.  Only the intervals
    whose block sum is within 1e-9 relative of the largest are summed again
    over their own E' cells, as a set-by-set scan sums them, so ``proxy`` and
    ``worst_E`` (the first set reaching it) match that scan bit for bit.
    """
    if K <= 0:
        raise ValueError("K must be > 0")
    check_finite(f)
    norm1 = lp_norm(f, 1.0)
    if not np.isfinite(norm1):
        raise ValueError("the L^1 norm of the signal overflows")
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

    majority_ok = True
    approx = []
    for d in range(J + 1):
        size = 1 << (J - d)
        measure_e = size * dx
        eprime = mf < K / measure_e
        if np.any(2.0 * eprime.reshape(-1, size).sum(axis=1) * dx < measure_e):
            majority_ok = False
        approx.append(np.where(eprime, tf, 0.0).reshape(-1, size).sum(axis=1))
    approx = np.concatenate(approx)     # entry node - 1: the test order

    proxy = 0.0
    worst = None
    top = np.fmax.reduce(approx)        # NaN sums never win, as in the scan
    if top > 0.0:
        # float sums of one set's nonnegative terms differ by < 1e-12 relative;
        # the absolute term covers values that tie only once underflowed by dx
        cut = top * (1.0 - 1e-9) - 2.0 ** (J - 1074)
        for node in (np.flatnonzero(approx >= cut) + 1).tolist():
            d = node.bit_length() - 1
            i = node - (1 << d)
            size = 1 << (J - d)
            block = slice(i * size, (i + 1) * size)
            val = float(np.sum(tf[block][mf[block] < K / (size * dx)]) * dx)
            if val > proxy:
                proxy, worst = val, f"dyadic d={d} i={i}"

    rng = np.random.default_rng(seed)
    for t in range(n_random_sets):
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        if not mask.any():
            continue
        measure_e = mask.sum() * dx
        eprime = mask & (mf < K / measure_e)
        if 2.0 * eprime.sum() * dx < measure_e:
            majority_ok = False
        val = float(np.sum(tf[eprime]) * dx)
        if val > proxy:
            proxy, worst = val, f"random #{t}"

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
