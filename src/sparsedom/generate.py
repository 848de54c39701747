"""Reproducible signal, weight, multiplier and collection generators."""

from __future__ import annotations

import numpy as np

from .dyadic import DyadicInterval, ROOT, Signal
from .haar import HaarCoefficients, HaarMultiplier, htilde, inverse_haar_transform
from .hardy import Weight
from .sparse import SparseCollection

__all__ = [
    "generate_signal", "generate_weight", "generate_multiplier",
    "generate_sparse_collection", "SIGNAL_KINDS", "WEIGHT_KINDS",
]

SIGNAL_KINDS = ("gaussian_noise", "sparse_haar", "step", "single_mode",
                "point_masses")
WEIGHT_KINDS = ("constant", "two_level", "dyadic_doubling", "power_like")


def generate_signal(kind: str, J: int, seed: int = 0, k: int = 1,
                    interval: DyadicInterval | None = None) -> Signal:
    """Deterministic or seeded pseudo-random depth-J signal.

    Kinds: gaussian_noise; sparse_haar (k random Haar modes, exercising
    stopping-time selectivity); step (the unit step at 1/2); single_mode
    (the L-infinity-normalized Haar function of one interval); point_masses
    (k unit-mass cells, the extremal inputs for weak (1,1) constants).
    """
    n = 1 << J
    rng = np.random.default_rng(seed)
    if kind == "gaussian_noise":
        return Signal(rng.standard_normal(n))
    if kind == "point_masses":
        vals = np.zeros(n)
        spots = rng.choice(n, size=min(k, n), replace=False)
        vals[spots] = rng.uniform(0.5, 2.0, size=spots.shape[0]) * n
        return Signal(vals)
    if kind == "step":
        vals = np.zeros(n)
        vals[: n // 2] = 1.0
        return Signal(vals)
    if kind == "single_mode":
        return htilde(interval or ROOT, J)
    if kind == "sparse_haar":
        heap = np.zeros(n)
        nodes = rng.choice(np.arange(1, n), size=min(k, n - 1), replace=False)
        heap[nodes] = rng.standard_normal(nodes.shape[0])
        return inverse_haar_transform(HaarCoefficients(heap, 0.0, J))
    raise ValueError(f"unknown signal kind {kind!r} (choose from {SIGNAL_KINDS})")


def generate_weight(kind: str, J: int, seed: int = 0, t: float = 4.0,
                    delta: float = 0.5, a: float = 0.5) -> Weight:
    """Seeded weight with roughly prescribed Muckenhoupt behaviour.

    two_level(t): 1 on the left half, t on the right.  dyadic_doubling(delta)
    splits each interval's mass in ratio (2 - delta) : delta on a random
    side; delta = 1 is Lebesgue and delta -> 0 grows the characteristic.
    power_like(a) samples x^a at cell centers.
    """
    n = 1 << J
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return Weight(np.ones(n))
    if kind == "two_level":
        if t <= 0:
            raise ValueError("two_level parameter must be > 0")
        vals = np.ones(n)
        vals[n // 2 :] = t
        return Weight(vals)
    if kind == "dyadic_doubling":
        if not 0.0 < delta <= 1.0:
            raise ValueError("dyadic_doubling parameter must lie in (0, 1]")
        vals = np.ones(1)
        for _ in range(J):
            flips = rng.random(vals.shape[0]) < 0.5
            left = np.where(flips, 2.0 - delta, delta)
            out = np.empty(2 * vals.shape[0])
            out[0::2] = vals * left
            out[1::2] = vals * (2.0 - left)
            vals = out
        return Weight(vals)
    if kind == "power_like":
        x = (np.arange(n) + 0.5) / n
        return Weight(x**a)
    raise ValueError(f"unknown weight kind {kind!r} (choose from {WEIGHT_KINDS})")


def generate_multiplier(J: int, seed: int = 0, n_intervals: int = 128,
                        signs_only: bool = False) -> HaarMultiplier:
    """Random finite interval family with coefficients in [-1, 1]."""
    rng = np.random.default_rng(seed)
    pool = np.arange(1, 1 << J)
    take = min(n_intervals, pool.shape[0])
    nodes = rng.choice(pool, size=take, replace=False)
    eps = {}
    for node in sorted(int(x) for x in nodes):
        d = node.bit_length() - 1
        I = DyadicInterval(d, node - (1 << d))
        eps[I] = float(rng.choice([-1.0, 1.0])) if signs_only \
            else float(rng.uniform(-1.0, 1.0))
    return HaarMultiplier.from_dict(eps)


def full_multiplier(J: int, eps: float = 1.0) -> HaarMultiplier:
    """Every interval of depth < J with the constant coefficient eps."""
    out = {}
    for d in range(J):
        for i in range(1 << d):
            out[DyadicInterval(d, i)] = eps
    return HaarMultiplier.from_dict(out)


def generate_sparse_collection(J: int, seed: int = 0,
                               root: DyadicInterval = ROOT) -> SparseCollection:
    """Random collection obeying the 1/2 child budget (hence 2-Carleson).

    Recursive: each node keeps itself and draws children among one half
    (budget exactly 1/2) or up to two grandchildren (budget 1/2).
    """
    rng = np.random.default_rng(seed)
    members = []
    stack = [root.node]
    while stack:
        Q = stack.pop()
        members.append(Q)
        depth = Q.bit_length() - 1
        if depth >= J:
            continue
        roll = rng.random()
        if roll < 0.35:
            continue
        if roll < 0.6 or depth + 2 > J:
            stack.append(2 * Q + int(rng.random() >= 0.5))     # left or right half
        else:   # one or two of the four grandchildren 4Q .. 4Q + 3
            picks = rng.choice(4, size=rng.integers(1, 3), replace=False)
            stack.extend(4 * Q + int(i) for i in picks)
    return SparseCollection.from_nodes(members)
