"""Spans around the public entry points of each sparsedom layer.

``Tracer.install()`` replaces every target function with a wrapper in every
``sparsedom`` namespace that holds it (``sparsedom.campaign.dominate_avg``
as well as ``sparsedom.stopping.dominate_avg``), so calls made through a
name imported directly are traced too.  Each call becomes a span (name,
start, end, parent) kept in flat arrays; a span's self time is its duration
minus the durations of its direct child spans.  Nothing inside ``src/`` is
changed, and ``uninstall()`` puts the originals back.

Counts are derived from call arguments and results only, never from timing,
so a traced pass gives the same counts every time it runs on the same
inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_chi(counts, fn, args, kwargs, result):
    J, d = _arg(args, kwargs, 1, "J"), _arg(args, kwargs, 2, "d")
    counts["kernels.chi_sums_depth.cells"] += (1 << d) << J


def _count_profile(counts, fn, args, kwargs, result):
    J, d0 = _arg(args, kwargs, 1, "J"), _arg(args, kwargs, 2, "d0")
    counts["kernels.subtree_profile.cells"] += (J - d0) << (J - d0)


def _count_dominate(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    doublings = math.log2(result.stopping_constant / bound.arguments["C"])
    counts["stopping.runs"] += 1
    counts["stopping.attempts"] += 1 + round(doublings)
    counts["stopping.collection_size"] += len(result.collection)


def _count_lerner(counts, fn, args, kwargs, result):
    counts["stopping.collection_size"] += len(result[0])


def _count_cz(counts, fn, args, kwargs, result):
    counts["cz.bad_cubes"] += len(result.bad_cubes)


def _count_weak11(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    f = bound.arguments["f"]
    if np.any(f.values != 0.0):      # an all-zero f returns before the scan
        counts["cz.weak11.test_sets"] += ((2 << f.depth_J) - 1
                                          + bound.arguments["n_random_sets"])


def _count_campaign(counts, fn, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    counts["campaign.jsonl_bytes"] += os.path.getsize(cfg.out_jsonl)


# (span name, module, attribute, counter).  All generators share one span.
TARGETS = (
    ("kernels.chi_sums_depth", "sparsedom.kernels", "chi_sums_depth", _count_chi),
    ("kernels.subtree_profile", "sparsedom.kernels", "subtree_profile", _count_profile),
    ("kernels.interval_sums", "sparsedom.kernels", "interval_sums", None),
    ("dyadic.oscillation", "sparsedom.dyadic", "oscillation", None),
    ("dyadic.chi_weights", "sparsedom.dyadic", "chi_weights", None),
    ("haar.haar_transform", "sparsedom.haar", "haar_transform", None),
    ("haar.inverse_haar_transform", "sparsedom.haar", "inverse_haar_transform", None),
    ("haar.tilde_size", "sparsedom.haar", "tilde_size", None),
    ("stopping.dominate_avg", "sparsedom.stopping", "dominate_avg", _count_dominate),
    ("stopping.dominate_square", "sparsedom.stopping", "dominate_square", _count_dominate),
    ("stopping.dominate_weighted", "sparsedom.stopping", "dominate_weighted",
     _count_dominate),
    ("stopping.dominate_oscillation", "sparsedom.stopping", "dominate_oscillation",
     _count_dominate),
    ("stopping.lerner_decompose", "sparsedom.stopping", "lerner_decompose", _count_lerner),
    ("hardy.cmo_norm", "sparsedom.hardy", "cmo_norm", None),
    ("hardy.hardy_norm", "sparsedom.hardy", "hardy_norm", None),
    ("hardy.ap_characteristic", "sparsedom.hardy", "ap_characteristic", None),
    ("hardy.atomic_decompose", "sparsedom.hardy", "atomic_decompose", None),
    ("cz.cz_decompose", "sparsedom.cz", "cz_decompose", _count_cz),
    ("cz.verify", "sparsedom.cz", "CZDecomposition.verify", None),
    ("cz.weak11_certify", "sparsedom.cz", "weak11_certify", _count_weak11),
    ("maximal.maximal", "sparsedom.maximal", "maximal", None),
    ("sparse.sparse_operator", "sparsedom.sparse", "sparse_operator", None),
    ("sparse.carleson_constant", "sparsedom.sparse", "carleson_constant", None),
    ("sparse.certify_sparse", "sparsedom.sparse", "certify_sparse", None),
    ("sparse.greedy_max_eta", "sparsedom.sparse", "greedy_max_eta", None),
    ("generate", "sparsedom.generate", "generate_signal", None),
    ("generate", "sparsedom.generate", "generate_weight", None),
    ("generate", "sparsedom.generate", "generate_multiplier", None),
    ("generate", "sparsedom.generate", "generate_sparse_collection", None),
    ("generate", "sparsedom.generate", "full_multiplier", None),
    ("campaign.run_campaign", "sparsedom.campaign", "run_campaign", _count_campaign),
)

# spans each mode must fire; one that never fires means a missed namespace
MODE_SPANS = {
    "avg": ("stopping.dominate_avg", "kernels.chi_sums_depth", "kernels.interval_sums",
            "haar.haar_transform", "haar.tilde_size", "dyadic.chi_weights",
            "sparse.carleson_constant"),
    "square": ("stopping.dominate_square", "kernels.subtree_profile",
               "haar.haar_transform", "sparse.carleson_constant"),
    "weighted": ("stopping.dominate_weighted", "kernels.subtree_profile",
                 "hardy.cmo_norm", "hardy.hardy_norm", "hardy.ap_characteristic"),
    "osc": ("stopping.dominate_oscillation", "stopping.lerner_decompose",
            "dyadic.oscillation", "kernels.subtree_profile"),
    "atoms": ("hardy.atomic_decompose", "hardy.hardy_norm", "haar.inverse_haar_transform",
              "kernels.subtree_profile"),
    "cz": ("cz.cz_decompose", "cz.verify"),
    "weak11": ("cz.weak11_certify", "maximal.maximal", "sparse.sparse_operator"),
    "spmodel": ("sparse.carleson_constant", "sparse.certify_sparse",
                "sparse.greedy_max_eta"),
}
ALWAYS_SPANS = ("generate",)
CAMPAIGN_SPANS = ("campaign.run_campaign",)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name) -> int:
        idx = len(self.ids)
        self.ids.append(self._id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer.counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sparsedom" or key.startswith("sparsedom.")]
        for span, module_name, attr, counter in TARGETS:
            owner, name, original = _resolve(module_name, attr)
            wrapper = self.wrap(span, original, counter)
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def mark(self):
        """A point in the trace: span count and a copy of the counters."""
        return len(self.ids), Counter(self.counts)

    def calls(self, lo, hi) -> dict:
        ids = np.frombuffer(self.ids, dtype=np.int32)[lo:hi]
        per = np.bincount(ids, minlength=len(self.names))
        return {self.names[i]: int(c) for i, c in enumerate(per) if c}

    def delta(self, before, after) -> dict:
        """Exact counts between two marks: calls per span plus the counters."""
        out = {f"{name}.calls": c for name, c in self.calls(before[0], after[0]).items()}
        out.update(after[1] - before[1])
        return out

    def self_times(self, lo, hi) -> dict:
        """Self seconds per span name over spans lo..hi (whole subtrees)."""
        ids = np.frombuffer(self.ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.ends, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.starts, dtype=np.float64)[lo:hi])
        inner = parents >= lo
        child = np.bincount(parents[inner] - lo, weights=dur[inner], minlength=dur.size)
        per = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        return {self.names[i]: float(per[i]) for i in np.unique(ids)}
