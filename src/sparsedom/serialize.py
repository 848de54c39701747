"""File formats: signals, weights, multiplier specs, collections, reports.

Signal files hold one real per line (2**J lines) or a single CSV row; the
depth is inferred from the count, which must be a power of two.  Weight
files share the signal format.  Multiplier specs are CSV rows
(depth, index, eps); collection files are CSV rows (depth, index).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dyadic import DyadicInterval, Signal
from .haar import HaarMultiplier
from .hardy import Weight
from .sparse import SparseCollection, child_budget_ok

__all__ = [
    "read_signal", "write_signal", "read_weight", "read_multiplier",
    "write_multiplier", "read_collection", "write_collection",
    "dump_json", "revalidate_certificate",
]


def _read_numbers(path) -> np.ndarray:
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"{path}: empty signal file")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) == 1 and "," in lines[0]:
        vals = [float(tok) for tok in lines[0].split(",") if tok.strip()]
    else:
        vals = []
        for ln in lines:
            vals.extend(float(tok) for tok in ln.replace(",", " ").split())
    return np.asarray(vals, dtype=float)


def read_signal(path) -> Signal:
    vals = _read_numbers(path)
    n = vals.shape[0]
    if n < 2 or n & (n - 1):
        raise ValueError(f"{path}: line count {n} is not a power of two >= 2")
    return Signal(vals)


def write_signal(f: Signal, path) -> None:
    Path(path).write_text("\n".join(repr(float(v)) for v in f.values) + "\n")


def read_weight(path) -> Weight:
    return Weight(_read_numbers(path))


def read_multiplier(path) -> HaarMultiplier:
    eps = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            d, i, e = int(row[0]), int(row[1]), float(row[2])
            eps[DyadicInterval(d, i)] = e
    return HaarMultiplier.from_dict(eps)


def write_multiplier(T: HaarMultiplier, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for I, e in zip(T.intervals, T.coefficients):
            w.writerow([I.depth, I.index, repr(e)])


def read_collection(path) -> SparseCollection:
    members = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            members.append(DyadicInterval(int(row[0]), int(row[1])))
    return SparseCollection(members)


def write_collection(S: SparseCollection, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for I in S:
            w.writerow([I.depth, I.index])


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def revalidate_certificate(data: dict) -> bool:
    """Structural re-validation of a certificate round-tripped through JSON.

    Rebuilds the collection, re-derives the child structure and budget,
    re-checks the partition cardinality and the arithmetic of the recorded
    inequality.  Signal-dependent quantities are trusted as recorded.
    """
    def node_array(pairs):
        return np.array([DyadicInterval(d, i).node for d, i in pairs], dtype=np.intp)

    per_q = data["per_Q"]
    members = node_array(e["Q"] for e in per_q)
    if np.unique(members).size != members.size:
        return False
    S = SparseCollection.from_nodes(members)
    flat = [tuple(I) for e in per_q for I in e["family"]]
    if len(flat) != len(set(flat)) or len(flat) != data["n_intervals"]:
        return False
    kids = node_array(P for e in per_q for P in e["children"])
    parents = np.repeat(members, [len(e["children"]) for e in per_q])
    if not S.has_forest(kids, parents):
        return False
    # the weighted budget is in w-measure, which the record does not hold
    if data["mode"] != "weighted" and not child_budget_ok(kids, parents):
        return False
    lhs, rhs, realized = data["lhs"], data["rhs"], data["realized_constant"]
    if lhs > 0 and rhs > 0 and not lhs <= realized * rhs * (1 + 1e-9):
        return False
    return True
