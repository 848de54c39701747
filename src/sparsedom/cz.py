"""Calderon-Zygmund decomposition and the weak (1,1) certification scheme.

The decomposition splits |f| at a level alpha into a bounded good part and
cancellative bad parts supported on the maximal dyadic intervals where the
local average exceeds alpha.  Every level-set decision and every cube
average is exact, and each is made on one float64 double-double heap of the
cell sums (:func:`kernels.dd_interval_sums`).  The cells are |f| >= 0, so
the pairwise sum hi of a node of height h is within (h + 2) 2**-51 of its
exact sum S, relative; S is hi + lo itself where the heap's ``exact`` flag
is set, and within (h + 2)**2 2**-100 of it elsewhere.  A question those
bounds settle is answered in float64.  The nodes they leave open (near-ties
on an inexact node, overflowing sums, subnormal averages) are summed exactly
on their own cells by :func:`_exact_sums`: ``np.frexp`` gives each cell a
53-bit integer mantissa, and shifting the mantissas to one common exponent
makes the sum a Python int.  This is the filter-then-exact pattern of
Shewchuk, *Adaptive precision floating-point arithmetic and fast robust
geometric predicates*.  The cubes are one sorted array of heap nodes; the
good part and one length-n vector of bad values render the exact object,
and :meth:`CZDecomposition.verify` re-checks them with the same filters in
one vectorized pass, building no interval.  Both cost O(J n), n = 2**J.

The weak (1,1) certifier follows the major-subset characterization of weak
L^1 (the 1/2-sparse test of Lerner and Nazarov, *Intuitive dyadic calculus:
the basics*): for a family of test sets E it builds E' = E minus a
controlled level set of the maximal function, integrates |op f| there, and
cross-checks the exact level-set quasinorm.  Every dyadic E of one depth
has the same measure, so one mask and one block sum per depth cover all of
them: O(J n) instead of one O(n) pass per interval.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .dyadic import (DyadicInterval, NodeMap, Signal, check_finite, checks_ok, depth_index,
                     lp_norm)
from .maximal import MaximalKind, maximal

__all__ = ["CZDecomposition", "cz_decompose", "weak11_certify"]

#: Added to every float bound: covers the rounding of a product that underflows.
_TINY = 2.0 ** -1074


def _hi_bound(h):
    """Relative error bound of a pairwise sum over 2**h cells of one sign (or
    over |cells|), with a factor of 4 to spare for the rounding of the test."""
    return (h + 2.0) * 2.0 ** -51


def _lo_bound(h):
    """|S - hi - lo| / sum|cells| on an inexact double-double node of height
    h: the bound is about 1.1 (h + 1)**2 2**-106, kept here with a factor of
    at least 58 to spare."""
    return (h + 2.0) ** 2 * 2.0 ** -100


def _height(nodes: np.ndarray, J: int) -> np.ndarray:
    """Height J - depth of heap nodes (a node covers 2**height cells)."""
    return J + 1 - np.frexp(nodes.astype(np.float64))[1]


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


def _exact_sums(values: np.ndarray, nodes: np.ndarray, J: int) -> tuple[np.ndarray, int]:
    """The exact path: each heap node's cell sum as a Python int c[k] times
    one common 2**e, from the node's own cells only."""
    cells, _, start, size = _cube_cells(nodes, J)
    ints, e = _exact_ints(values[cells])
    prefix = np.cumsum(np.concatenate(([0], ints)))
    return prefix[start + size] - prefix[start], e


def _exact_total(values: np.ndarray) -> Fraction:
    """The exact sum of all values, on the exact path."""
    c, e = _exact_sums(values, np.ones(1, dtype=np.int64), values.shape[0].bit_length() - 1)
    return Fraction(int(c[0])) * Fraction(2) ** e


def _averages(sums: np.ndarray, height: np.ndarray, e: int) -> np.ndarray:
    """float(sum * 2**e / 2**height) of integer node sums, correctly rounded
    (int true division rounds correctly)."""
    out = [float(s << k) if k >= 0 else s / (1 << -k)
           for s, k in zip(sums, (e - height).tolist())]
    return np.array(out, dtype=np.float64)


def _align(x: int, ex: int, y: int, ey: int) -> tuple[int, int]:
    """x * 2**ex and y * 2**ey as integers in the units of the smaller one."""
    e = min(ex, ey)
    return x << (ex - e), y << (ey - e)


def _cube_cells(nodes: np.ndarray, J: int) -> tuple:
    """The cells of every cube (a heap node), cube by cube, the cube owning
    each, the position where each cube's cells start and each cube's size."""
    size = np.left_shift(1, _height(nodes, J))
    owner = np.repeat(np.arange(nodes.size), size)
    start = np.cumsum(size) - size
    lo = nodes * size - (1 << J)
    return np.arange(int(size.sum())) + np.repeat(lo - start, size), owner, start, size


def _times(iv: tuple, k: int) -> tuple:
    return iv[0] * k, iv[1] * k


def _le(a: tuple, b: tuple):
    """a <= b for two (low, high) intervals, or None while they overlap."""
    if a[1] <= b[0]:
        return True
    if a[0] > b[1]:
        return False
    return None


class _Sums:
    """Exact questions about the cell sums S of nonnegative values over dyadic
    nodes: float64 on the double-double heap where its bounds settle them,
    :func:`_exact_sums` on the node's own cells where they do not."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.J = values.shape[0].bit_length() - 1
        self.hi, self.lo, self.exact = kernels.dd_interval_sums(values)

    def exceeds(self, nodes: np.ndarray, shift, alpha: float) -> np.ndarray:
        """Whether S > alpha * 2**shift, node by node."""
        h = _height(nodes, self.J)
        shift = np.broadcast_to(shift, nodes.shape)
        hi = self.hi[nodes]
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.ldexp(alpha, shift)
            gap = hi - t
            # past DBL_MAX, t or S is >= 2**1023.99 while the other is < 2**1023
            far = ((np.abs(gap) > _hi_bound(h) * hi + _TINY) & ((t < np.inf) | (hi < 2.0 ** 1023))
                   | (hi == np.inf) & (t < 2.0 ** 1023))
            out = gap > 0.0
            near = np.flatnonzero(~far)
            if not near.size:
                return out
            # near t, hi - t is exact (Sterbenz's lemma): on an exact node
            # (hi - t) + lo has the sign of S - t, elsewhere it is within the
            # lo bound of S - t
            dd = gap[near] + self.lo[nodes[near]]
            out[near] = dd > 0.0
            sure = (t[near] < np.inf) & (
                self.exact[nodes[near]]
                | (np.abs(dd) > 2.0 * (_lo_bound(h[near]) * hi[near] + _TINY)))
        unsure = near[~sure]
        if unsure.size:
            c, e = _exact_sums(self.values, nodes[unsure], self.J)
            num, den = float(alpha).as_integer_ratio()
            out[unsure] = [x > y for x, y in (
                _align(int(ck) * den, e, num, s) for ck, s in zip(c, shift[unsure].tolist()))]
        return out

    def averages(self, nodes: np.ndarray) -> np.ndarray:
        """Each node's average S / 2**height, correctly rounded to float64."""
        h = _height(nodes, self.J)
        hi, lo = self.hi[nodes], self.lo[nodes]
        with np.errstate(over="ignore", invalid="ignore"):
            y = hi + lo                   # fl(S) on an exact node
            err = kernels.two_sum_err(hi, lo, y)
            # elsewhere fl(S) == y while S, within r of y + err, stays
            # strictly inside y's rounding interval
            r = _lo_bound(h) * hi + _TINY
            sure = self.exact[nodes] | ((err + r < np.spacing(y) / 2.0)
                                        & (r - err < (y - np.nextafter(y, 0.0)) / 2.0))
            # a normal average: y / 2**h is exact, so it is fl(S / 2**h)
            sure &= (y >= np.ldexp(2.0 ** -1022, h)) & (y < np.inf)
            avg = np.ldexp(y, -h)
        unsure = np.flatnonzero(~sure)
        if unsure.size:
            c, e = _exact_sums(self.values, nodes[unsure], self.J)
            avg[unsure] = _averages(c, h[unsure], e)
        return avg

    def total(self) -> tuple:
        """(low, high) Fractions around the sum of every cell, equal where the
        root is exact or overflows."""
        hi, lo = self.hi[1], self.lo[1]
        if not np.isfinite(hi):
            s = _exact_total(self.values)
            return s, s
        s = Fraction(hi) + Fraction(lo)
        r = 0 if self.exact[1] else Fraction(_lo_bound(self.J) * hi + _TINY)
        return s - r, s + r


def _sum_bounds(values: np.ndarray) -> tuple:
    """(low, high) Fractions around sum(values), from the pairwise float sum
    (the exact sum twice if that overflows)."""
    J = values.shape[0].bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        s = kernels.interval_sums(values)[1]
        a = np.sum(np.abs(values))
        r = 2.0 * _hi_bound(J) * a + _TINY if a else 0.0
    if not (np.isfinite(s) and np.isfinite(r)):
        s = _exact_total(values)
        return s, s
    return Fraction(s) - Fraction(r), Fraction(s) + Fraction(r)


def _cancellation_exact(f, bad, favg, nodes, J) -> bool:
    """The rendering bound of :meth:`CZDecomposition.verify` in Python ints,
    on the given cubes' own cells."""
    sums, ev = _exact_sums(f, nodes, J)
    cells, _, start, size = _cube_cells(nodes, J)
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
    return not np.any(lhs > 2 * err + ((upre[end] - upre[start]) << (er - e0)))


def _cancellation_ok(sums: _Sums, bad: np.ndarray, favg: np.ndarray,
                     nodes: np.ndarray) -> bool:
    """2|B| <= 2E + U on every cube, for B = sum b, E = |S - m favg| and
    U = sum ulp(b) over its m cells.  Decided in float64 from the
    double-double heaps of |f| and of b: |b| <= 2**53 ulp(b), so b's tail
    error is below (h + 2)**2 2**-52 U.  A cube the error bounds leave open
    goes to :func:`_cancellation_exact`."""
    J = sums.J
    h = _height(nodes, J)
    hi, exact = sums.hi[nodes], sums.exact[nodes]
    b_hi, b_lo, b_exact = kernels.dd_interval_sums(bad)
    with np.errstate(over="ignore", invalid="ignore"):
        ulp = np.where(bad == 0.0, 0.0, np.abs(np.spacing(bad)))
        U = kernels.interval_sums(ulp)[nodes]
        B = np.abs(b_hi[nodes] + b_lo[nodes])
        P = np.ldexp(favg, h)         # m favg, exact
        E = np.abs((hi - P) + sums.lo[nodes])   # hi - P exact by Sterbenz's lemma
        X = (2.0 * E + U) - 2.0 * B
        eps = (2.0 * _hi_bound(h) * (2.0 * E + U + 2.0 * B + np.abs(X))
               + np.where(exact, 0.0, 2.0 * _lo_bound(h) * hi)
               + np.where(b_exact[nodes], 0.0, (h + 2.0) ** 2 * 2.0 ** -50 * U)
               + 2.0 ** -1070)
        sure = (np.abs(X) > eps) & (P <= 2.0 * hi) & (hi <= 2.0 * P)
    if np.any(sure & (X < 0.0) & (U != 0.0)):
        return False
    unsure = np.flatnonzero(~sure & (U != 0.0))       # U == 0: every b is 0
    return not unsure.size or _cancellation_exact(sums.values, bad, favg[unsure],
                                                  nodes[unsure], J)


@dataclass
class CZDecomposition:
    """|f| = good + bad at one level.  The bad cubes are the read-only heap
    nodes :attr:`nodes`; every per-cube view is built from them when read."""

    level_alpha: float
    good: Signal
    nodes: np.ndarray
    bad: np.ndarray        # |f| - good on the cubes, 0 elsewhere: every bad part
    source_abs: Signal

    @functools.cached_property
    def bad_cubes(self) -> tuple:
        """The cubes as intervals, in :attr:`nodes` order, built on first read."""
        depth, index = depth_index(self.nodes)
        return tuple(map(DyadicInterval, depth.tolist(), index.tolist()))

    @property
    def bad_parts(self) -> Mapping:
        """Q -> the bad part of cube Q as a full-length Signal, built on
        access from the one stored vector :attr:`bad`; iterates
        :attr:`nodes` in their order."""
        return NodeMap(self.nodes, self._bad_part)

    def _bad_part(self, k, Q) -> Signal:
        lo, hi = Q.cell_range(self.source_abs.depth_J)
        b = np.zeros_like(self.bad)
        b[lo:hi] = self.bad[lo:hi]
        return Signal(b)

    def verify(self) -> dict:
        """Exact verification of the decomposition invariants.

        The exact object has cube averages avg_Q = (exact cell sum) / m and
        bad parts |f| - avg_Q on each cube.  The stored signals must render
        it: good is float(avg_Q) on the cubes and |f| outside bitwise, the
        bad vector vanishes off the cubes, and on each cube the stored bad
        values b_i satisfy the rendering bound
        |sum b_i| <= m |avg_Q - float(avg_Q)| + sum ulp(b_i) / 2.  Level
        decisions, averages, measures and L^1 sums are exact statements,
        decided on double-double heaps of |f| and of the bad vector where
        their error bounds settle them and in Python ints on the open cubes'
        own cells where they do not.
        """
        f = self.source_abs.values
        J, n = self.source_abs.depth_J, self.source_abs.n_cells
        alpha = float(self.level_alpha)
        good, bad, nodes = self.good.values, self.bad, self.nodes
        h = _height(nodes, J)
        sums = _Sums(f)
        root_is_bad = (nodes.size == 1 and nodes[0] == 1
                       and bool(sums.exceeds(nodes, J, alpha)[0]))

        cells, owner, _, size = _cube_cells(nodes, J)
        cover = np.bincount(cells, minlength=n)
        covered = cover > 0
        disjoint_ok = not np.any(cover > 1)

        favg = sums.averages(nodes)
        split_ok = bool(np.all(good[cells] == favg[owner])
                        and np.all(good[~covered] == f[~covered]))
        support_ok = not np.any(bad[~covered] != 0.0)
        cancel_ok = _cancellation_ok(sums, bad, favg, nodes)

        maximal_ok = linf_ok = measure_ok = True
        if not root_is_bad:
            if np.any(h == J):
                maximal_ok = False
            else:
                maximal_ok = bool(np.all(sums.exceeds(nodes, h, alpha))
                                  and not np.any(sums.exceeds(nodes >> 1, h + 1, alpha)))
            # dyadic parent bound: avg_Q <= 2 alpha
            if np.any(sums.exceeds(nodes, h + 1, alpha)):
                linf_ok = False
            if np.any(np.abs(f[~covered]) > alpha):
                linf_ok = False        # uncovered cells sit under the level
            # sum |Q| alpha <= ||f||_1, times n
            mass = Fraction(int(size.sum())) * Fraction(alpha)
            measure_ok = _le((mass, mass), sums.total())
            if measure_ok is None:
                measure_ok = mass <= _exact_total(f)
        # sum good <= (1 + 1e-9) ||f||_1, times 10**9
        good_l1_ok = _le(_times(_sum_bounds(good), 10**9), _times(sums.total(), 10**9 + 1))
        if good_l1_ok is None:
            good_l1_ok = _exact_total(good) * 10**9 <= _exact_total(f) * (10**9 + 1)
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
        return checks_ok(self.verify())


def cz_decompose(f: Signal, alpha: float) -> CZDecomposition:
    """Split |f| = good + sum of bad parts at level alpha.

    Bad cubes are the maximal dyadic intervals with average of |f| above
    alpha (equivalently, of the level set {M|f| > alpha}); the good part is
    |f| off their union and the cube average on each of them, so every bad
    part integrates to zero.  Averages are compared with alpha exactly, and
    each cube's average is correctly rounded: both are decided on the
    double-double heap of the cell sums, and in Python ints on the cells of
    the few nodes its error bounds leave open.  If alpha is at most the root
    average the root itself is the single bad cube.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be finite and > 0")
    check_finite(f)
    absf = Signal(np.abs(f.values))
    J = f.depth_J
    sums = _Sums(absf.values)

    # maximal nodes above the level, depth by depth under the nodes not yet bad
    hits = [np.zeros(0, dtype=np.int64)] * (J + 1)
    alive = np.ones(1, dtype=np.int64)
    if sums.exceeds(alive, J, alpha)[0]:
        hits[0] = alive
    else:
        for d in range(1, J + 1):
            alive = np.repeat(2 * alive, 2)
            alive[1::2] += 1
            above = sums.exceeds(alive, J - d, alpha)
            hits[d], alive = alive[above], alive[~above]
    nodes = np.concatenate(hits)          # node order: depth by depth, sorted
    nodes.flags.writeable = False
    favg = sums.averages(nodes)
    cells, owner, _, _ = _cube_cells(nodes, J)
    good = absf.values.copy()
    bad = np.zeros(absf.n_cells)
    good[cells] = favg[owner]
    bad[cells] = absf.values[cells] - favg[owner]
    return CZDecomposition(alpha, Signal(good), nodes, bad, absf)


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
    depth give every count and an approximate integral (:func:`kernels.row_counts`
    and :func:`kernels.row_sums`, column by column on narrow rows).  Only the
    intervals whose block sum is within 1e-9 relative of the largest are
    summed again over their own E' cells, as a set-by-set scan sums them, so
    ``proxy`` and ``worst_E`` (the first set reaching it) match that scan bit
    for bit.  One sort of |op f| gives the levels, the count of cells at or
    above each and the quasinorm.
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
        if np.any(2.0 * kernels.row_counts(eprime.reshape(-1, size)) * dx < measure_e):
            majority_ok = False
        approx.append(kernels.row_sums(np.where(eprime, tf, 0.0).reshape(-1, size)))
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
            val = float(np.sum(np.compress(mf[block] < K / (size * dx), tf[block])) * dx)
            if val > proxy:
                proxy, worst = val, f"dyadic d={d} i={i}"

    rng = np.random.default_rng(seed)
    for t in range(n_random_sets):
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        count = np.count_nonzero(mask)
        if not count:
            continue
        measure_e = count * dx
        eprime = mask & (mf < K / measure_e)
        if 2.0 * np.count_nonzero(eprime) * dx < measure_e:
            majority_ok = False
        val = float(np.sum(np.compress(eprime, tf)) * dx)
        if val > proxy:
            proxy, worst = val, f"random #{t}"

    # one ascending sort gives the distinct positive levels (the first of
    # each run of equal values above 0; NaNs sort last), the count of cells
    # >= each level, and the quasinorm max over cells of |op f| times the
    # count of cells at or above it, which is lambda |{|op f| >= lambda}|
    srt = np.sort(tf)
    first = np.searchsorted(srt, 0.0, side="right")
    pos = srt[first : np.searchsorted(srt, np.inf, side="right")]
    start = np.ones(pos.size, dtype=bool)
    np.not_equal(pos[1:], pos[:-1], out=start[1:])
    levels = pos[start]
    n_ge = n - first - np.flatnonzero(start)
    quasinorm = float(np.max(srt * np.arange(n, 0, -1))) * dx
    return {
        "weak_quasinorm": quasinorm,
        "proxy": proxy,
        "majority_ok": majority_ok,
        "crosscheck_ok": bool(quasinorm <= 2.0 * proxy * (1.0 + 1e-9)) if proxy > 0 else quasinorm == 0.0,
        "alpha_levels": levels.tolist(),
        "weak_constants": (levels * n_ge * dx).tolist(),
        "worst_E": worst,
        "K": K,
    }
