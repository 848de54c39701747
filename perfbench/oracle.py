"""Pinned reference outputs and the checks a trial record must pass.

A record is split into an exact skeleton and a list of floats.  The
skeleton keeps the collections, sub-families, children, counts, names and
the stopping constant ``C`` and is compared by its SHA-256; every other
float must agree to ``REL_TOL`` relative.  The ``checks`` dict and the
top-level ``*_ok`` flags are not part of the reference: they are checked on
their own (``record_failures``).

References live in ``oracle/<workload>.<size>.json`` and are written by
``pin.py`` from the seed code.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"
REL_TOL = 1e-12
EXACT_FLOAT_KEYS = frozenset({"C"})


def _skeleton(x, floats, key=None):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        if key in EXACT_FLOAT_KEYS:
            return {"exact": repr(x)}
        floats.append(x)
        return "#f"
    if isinstance(x, dict):
        return {k: _skeleton(v, floats, k) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_skeleton(v, floats) for v in x]
    raise TypeError(f"unexpected value {x!r} in a record")


def canonical(rec: dict) -> dict:
    """Reference entry of a record: skeleton hash plus its floats in order."""
    rec = json.loads(json.dumps(rec))
    body = {k: v for k, v in rec.items() if k != "checks" and not k.endswith("_ok")}
    floats = []
    skeleton = _skeleton(body, floats)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return {"sha": hashlib.sha256(text.encode()).hexdigest(), "floats": floats}


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def matches(ref: dict, rec: dict) -> bool:
    got = canonical(rec)
    return (got["sha"] == ref["sha"] and len(got["floats"]) == len(ref["floats"])
            and all(_close(a, b) for a, b in zip(got["floats"], ref["floats"])))


def record_failures(rec: dict, ref: dict | None) -> list:
    """Names of the checks this record fails (empty when it is certified).

    ``hard_ok`` is the campaign's own verdict; ``cert_ok`` is every ``*_ok``
    flag, as ``DominationCertificate.ok()`` reads them; ``oracle`` is a
    mismatch with the pinned reference (or no reference for the case).
    """
    failed = []
    if not rec.get("hard_ok", False):
        failed.append("hard_ok")
    flags = [v for k, v in rec.get("checks", {}).items() if k.endswith("_ok")]
    flags += [v for k, v in rec.items() if k.endswith("_ok") and k != "hard_ok"]
    if not all(flags):
        failed.append("cert_ok")
    if ref is None or not matches(ref, rec):
        failed.append("oracle")
    return failed


def path_for(name: str, size: str) -> Path:
    return ORACLE_DIR / f"{name}.{size}.json"


def load(w, size: str) -> dict:
    """Reference cases of a workload; refuses a file pinned for another spec."""
    path = path_for(w.name, size)
    data = json.loads(path.read_text())
    if data["spec"] != json.loads(json.dumps(w.spec())):
        raise SystemExit(f"perfbench: {path.name} was pinned for another workload spec")
    return data["cases"]


def save(w, size: str, cases: dict) -> Path:
    path = path_for(w.name, size)
    ORACLE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"spec": w.spec(), "cases": cases}, sort_keys=True,
                               separators=(",", ":")) + "\n")
    return path
