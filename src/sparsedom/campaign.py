"""Batch experiment runner: seeded trials, JSONL certificates, CSV summary.

Every trial owns its inputs and derives its seed from the master seed and
the trial index, so reports are byte-identical across runs with the same
config.  Hard invariant failures (any ``*_ok`` check of a certificate, atom
validity, the CZ and weak (1,1) checks) are recorded per trial and surface
as a nonzero campaign status; they are never downgraded to warnings.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cz import cz_decompose, weak11_certify
from .dyadic import REL_SLACK, ROOT, lp_norm
from .generate import (SIGNAL_KINDS, generate_multiplier, generate_signal,
                       generate_sparse_collection, generate_weight)
from .hardy import ap_characteristic, atomic_decompose
from .sparse import (carleson_constant, certify_sparse, greedy_max_eta,
                     sparse_operator, sparse_vs_carleson)
from .stopping import (dominate_avg, dominate_oscillation, dominate_square,
                       dominate_weighted, lerner_decompose)

ALL_MODES = ("avg", "square", "weighted", "osc", "atoms", "cz", "weak11", "spmodel")

WEIGHT_CYCLE = (
    ("dyadic_doubling", {"delta": 0.8}),
    ("dyadic_doubling", {"delta": 0.5}),
    ("dyadic_doubling", {"delta": 0.25}),
    ("two_level", {"t": 8.0}),
    ("power_like", {"a": 0.5}),
    ("constant", {}),
)


@dataclass
class CampaignConfig:
    depth_J: int = 10
    trials: int = 100
    seed: int = 0
    modes: tuple = ALL_MODES
    p: float = 2.0
    q: float = 2.0
    hardy_p: float = 1.0
    r: float | None = None
    chi_M: int = 8
    stop_C: float = 4.0
    lam: float = 0.125
    weak_K: float = 4.0
    n_intervals: int = 96
    signal_kind: str = "gaussian_noise"
    out_jsonl: str | None = None
    out_csv: str | None = None

    def validate(self) -> None:
        if not 3 <= self.depth_J <= 16:
            raise ValueError(f"depth_J must lie in [3, 16], got {self.depth_J}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        bad = [m for m in self.modes if m not in ALL_MODES]
        if bad:
            raise ValueError(f"unknown modes {bad}; choose from {ALL_MODES}")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("exponents p, q must be > 0")
        if not 0.0 < self.hardy_p <= 1.0:
            raise ValueError("hardy_p must lie in (0, 1]")
        if self.r is not None and not 0.0 < self.r < self.hardy_p:
            raise ValueError("need 0 < r < hardy_p")
        if self.signal_kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal_kind {self.signal_kind!r}")
        if self.chi_M < 1:
            raise ValueError("chi_M must be >= 1")
        if self.stop_C < 1.0:
            raise ValueError("stop_C must be >= 1")
        if not 0.0 < self.lam < 0.5:
            raise ValueError("lambda must lie in (0, 1/2)")
        if self.weak_K <= 0:
            raise ValueError("weak_K must be > 0")

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        data = json.loads(Path(path).read_text())
        if "modes" in data:
            data["modes"] = tuple(data["modes"])
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


def _trial_seed(seed: int, mode: str, trial: int) -> int:
    base = {m: k for k, m in enumerate(ALL_MODES)}[mode]
    return (seed * 1_000_003 + base * 9_973 + trial) % (2**31 - 1)


def _domination_record(cert, extra=None):
    rec = cert.to_dict()
    rec["hard_ok"] = cert.ok()
    if extra:
        rec.update(extra)
    return rec


def _run_one(cfg: CampaignConfig, mode: str, trial: int) -> dict:
    J = cfg.depth_J
    s = _trial_seed(cfg.seed, mode, trial)
    f = generate_signal(cfg.signal_kind, J, seed=s)
    g = generate_signal(cfg.signal_kind, J, seed=s + 1)
    T = generate_multiplier(J, seed=s + 2, n_intervals=cfg.n_intervals)
    if mode == "avg":
        cert = dominate_avg(T, f, g, M=cfg.chi_M, C=cfg.stop_C)
        rec = _domination_record(cert)
    elif mode == "square":
        cert = dominate_square(T, f, g, p=cfg.p, q=cfg.q, C=cfg.stop_C)
        rec = _domination_record(cert)
    elif mode == "weighted":
        kind, kw = WEIGHT_CYCLE[trial % len(WEIGHT_CYCLE)]
        w = generate_weight(kind, J, seed=s + 3, **kw)
        cert = dominate_weighted(T, f, g, w, p=cfg.hardy_p, r=cfg.r, C=cfg.stop_C)
        rec = _domination_record(cert, {"a2": ap_characteristic(w, 2.0),
                                        "weight_kind": kind})
    elif mode == "osc":
        cert = dominate_oscillation(T, f, g, C=cfg.stop_C)
        _, lrep = lerner_decompose(f, ROOT, lam=cfg.lam)
        rec = _domination_record(cert, {"lerner_K": lrep["K"]})
        rec["hard_ok"] = bool(rec["hard_ok"] and lrep["pointwise_ok"]
                              and lrep["child_budget_ok"])
    elif mode == "atoms":
        deco = atomic_decompose(f, p=cfg.hardy_p, r=cfg.r, C=cfg.stop_C)
        ratio = deco.checks.get("lp_budget_ratio", 0.0)
        rec = {
            "mode": "atoms", "p": deco.p, "r": deco.r, "C": deco.stopping_constant,
            "n_atoms": len(deco.coefficients),
            "lp_budget_ratio": ratio, "realized_constant": ratio,
            "hard_ok": deco.ok(),
        }
    elif mode == "cz":
        rng = np.random.default_rng(s + 4)
        alpha = float(rng.uniform(0.5, 2.0)) * max(lp_norm(f, 1.0), 1e-9)
        dec = cz_decompose(f, alpha)
        checks = dec.verify()
        rec = {"mode": "cz", "alpha": alpha, "n_bad_cubes": len(dec.bad_cubes),
               "realized_constant": sum(Q.length for Q in dec.bad_cubes) * alpha
               / max(lp_norm(f, 1.0), 1e-300),
               "hard_ok": all(checks.values()), **checks}
    elif mode == "weak11":
        S = generate_sparse_collection(J, seed=s + 5)
        report = weak11_certify(lambda x: sparse_operator(S, x), f, K=cfg.weak_K,
                                seed=s + 6)
        rec = {"mode": "weak11", "n_intervals": len(S),
               "realized_constant": report["weak_quasinorm"],
               "hard_ok": bool(report["majority_ok"] and report["crosscheck_ok"]),
               "weak_quasinorm": report["weak_quasinorm"],
               "proxy": report["proxy"]}
    elif mode == "spmodel":
        S = generate_sparse_collection(J, seed=s + 7)
        lam = carleson_constant(S)
        eta = greedy_max_eta(S)
        ok, _ = certify_sparse(S, 0.5, J)
        rec = {"mode": "spmodel", "n_intervals": len(S), "carleson": lam,
               "greedy_eta": eta, "realized_constant": lam,
               "hard_ok": bool(ok and lam <= 2.0 * (1.0 + REL_SLACK))}
        if J <= 6:
            rec.update(sparse_vs_carleson(S))
    else:  # pragma: no cover
        raise ValueError(mode)
    rec["trial"] = trial
    rec["seed"] = s
    return rec


def run_campaign(cfg: CampaignConfig):
    """Run all configured modes; returns (records, summary, ok)."""
    cfg.validate()
    records = [_run_one(cfg, mode, t) for mode in cfg.modes for t in range(cfg.trials)]

    summary = {}
    for mode in cfg.modes:
        rows = [r for r in records if r["mode"] == mode]
        consts = [r.get("realized_constant", 0.0) for r in rows
                  if np.isfinite(r.get("realized_constant", 0.0))]
        summary[mode] = {
            "trials": len(rows),
            "failures": sum(not r["hard_ok"] for r in rows),
            "max_constant": max(consts, default=0.0),
            "median_constant": float(np.median(consts)) if consts else 0.0,
        }
    ok = all(r["hard_ok"] for r in records)

    if cfg.out_jsonl:
        with open(cfg.out_jsonl, "w") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
    if cfg.out_csv:
        with open(cfg.out_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mode", "trial", "x_label", "x", "y_label", "y", "hard_ok"])
            for r in records:
                if r["mode"] == "weighted":
                    xl, x = "a2_characteristic", r.get("a2", "")
                else:
                    xl, x = "trial", r["trial"]
                w.writerow([r["mode"], r["trial"], xl, x,
                            "realized_constant", r.get("realized_constant", ""),
                            int(r["hard_ok"])])
    return records, summary, ok
