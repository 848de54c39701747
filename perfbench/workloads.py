"""Workloads: the cases of each pass, their inputs, and one trial per case.

A trial of mode m makes the calls ``sparsedom.campaign`` makes for one
trial of m, through the public functions, with the same parameters and the
same record fields.  Inputs depend only on the case seed and are built
before the trial is timed.  Every call goes through a module attribute
(``stopping.dominate_avg``, not a bare name), so the tracer's wrappers see
it.

A pass is one run of a pinned *slot*: a fixed list of cases (or, for the
campaign workload, one ``run_campaign`` call).  The ``--seed`` of a run only
chooses the order in which slots are visited, which keeps every input
covered by the pinned oracle.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from sparsedom import campaign, cz, generate, hardy, sparse, stopping
from sparsedom.dyadic import ROOT, lp_norm

MODES = ("avg", "square", "weighted", "osc", "atoms", "cz", "weak11")

# campaign defaults (CampaignConfig) used by every per-trial workload
CHI_M = 8
HARDY_P = 1.0
LERNER_LAM = 0.125
WEAK_K = 4.0
N_INTERVALS = 96
HARD_CHECKS = ("partition_ok", "child_budget_ok", "forest_ok", "reconstruction_ok")

# dense-hard inputs: spiky and structured signals, and weights with large A_2
HARD_SIGNALS = (("point_masses", {"k": 8}), ("sparse_haar", {"k": 32}),
                ("step", {}), ("gaussian_noise", {}))
HARD_WEIGHTS = (("two_level", {"t": 64.0}), ("dyadic_doubling", {"delta": 0.25}))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "campaign": one run_campaign call per pass
    J: int
    slots: int                # pinned passes a seed orders
    plan: tuple = ()          # (mode, trials per pass) for kind "trials"
    trials: int = 0           # trials per mode of each campaign call
    family: str = "random"    # "random": 96 intervals; "full": every interval
    signals: str = "gaussian"  # "gaussian" or "hard"
    C: float = 4.0            # initial stopping constant
    square_pq: float = 2.0

    def spec(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Case:
    key: str
    mode: str
    seed: int
    variant: int


_DEEP_PLAN = (("avg", 1), ("weak11", 1), ("cz", 5), ("atoms", 3),
              ("weighted", 6), ("square", 12), ("osc", 6))
# A cheap mode's trials beyond the four signal kinds all take point masses.
_DENSE_PLAN = (("avg", 4), ("square", 4), ("osc", 4), ("weighted", 4),
               ("atoms", 6), ("cz", 5), ("weak11", 5))

_FULL = {
    "campaign-J12": Workload("campaign-J12", "campaign", 12, slots=16, trials=4),
    "deep-J14": Workload("deep-J14", "trials", 14, slots=8, plan=_DEEP_PLAN),
    "dense-hard-J12": Workload("dense-hard-J12", "trials", 12, slots=6,
                               plan=_DENSE_PLAN, family="full", signals="hard",
                               C=1.0, square_pq=1.0),
}
# tiny depths for the benchmark's own tests
_SMOKE = {
    "campaign-J12": replace(_FULL["campaign-J12"], J=5, slots=2, trials=1),
    "deep-J14": replace(_FULL["deep-J14"], J=6, slots=2),
    "dense-hard-J12": replace(_FULL["dense-hard-J12"], J=6, slots=2),
}
SIZES = {"full": _FULL, "smoke": _SMOKE}
NAMES = tuple(_FULL)


def get(name: str, size: str = "full") -> Workload:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {tuple(SIZES)}")
    if name not in SIZES[size]:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return SIZES[size][name]


def slot_order(w: Workload, seed: int) -> list:
    return [int(s) for s in np.random.default_rng(seed % 2**32).permutation(w.slots)]


def modes_of(w: Workload) -> tuple:
    return campaign.ALL_MODES if w.kind == "campaign" else tuple(m for m, _ in w.plan)


def _seed(*parts) -> int:
    # stable across processes (unlike hash()); room left for the +1..+6 offsets
    return zlib.crc32("/".join(map(str, parts)).encode()) % (2**31 - 16)


def campaign_seed(w: Workload, slot: int) -> int:
    return _seed(w.name, slot)


def pass_cases(w: Workload, slot: int) -> list:
    """The slot's cases, each mode's trials spread evenly through the pass.

    Interleaving keeps a mode's samples from all landing in one slow or
    fast second of a shared machine.
    """
    cases = [((k + 0.5) / count, pos,
              Case(f"{slot}/{mode}/{k}", mode, _seed(w.name, slot, mode, k), k))
             for pos, (mode, count) in enumerate(w.plan) for k in range(count)]
    return [case for *_, case in sorted(cases, key=lambda t: t[:2])]


def make_inputs(w: Workload, case: Case) -> dict:
    """Everything the trial consumes, from the case seed alone."""
    J, s, mode = w.J, case.seed, case.mode
    kind, kw = (("gaussian_noise", {}) if w.signals == "gaussian"
                else HARD_SIGNALS[case.variant if case.variant < len(HARD_SIGNALS) else 0])
    inp = {"f": generate.generate_signal(kind, J, seed=s, **kw)}
    if mode in ("avg", "square", "weighted", "osc"):
        inp["g"] = generate.generate_signal(kind, J, seed=s + 1, **kw)
        inp["T"] = (generate.full_multiplier(J) if w.family == "full" else
                    generate.generate_multiplier(J, seed=s + 2, n_intervals=N_INTERVALS))
    if mode == "weighted":
        cycle = campaign.WEIGHT_CYCLE if w.signals == "gaussian" else HARD_WEIGHTS
        wkind, wkw = cycle[case.variant % len(cycle)]
        inp["w"] = generate.generate_weight(wkind, J, seed=s + 3, **wkw)
        inp["weight_kind"] = wkind
    elif mode == "cz":
        # the campaign's U(0.5, 2) level scale, stratified over the pass: cz cost
        # grows with the bad cubes' measure, so unstratified means swing by slot
        count = dict(w.plan)["cz"]
        u = float(np.random.default_rng(s + 4).uniform())
        inp["alpha_scale"] = 0.5 + 1.5 * (case.variant % count + u) / count
    elif mode == "weak11":
        inp["S"] = generate.generate_sparse_collection(J, seed=s + 5)
    return inp


def domination_record(cert, extra=None) -> dict:
    rec = cert.to_dict()
    rec["hard_ok"] = bool(all(cert.checks[k] for k in HARD_CHECKS))
    if extra:
        rec.update(extra)
    return rec


def run_trial(w: Workload, case: Case, inp: dict) -> dict:
    """One certified trial; returns the record the campaign would write."""
    mode, f, C = case.mode, inp["f"], w.C
    if mode == "avg":
        cert = stopping.dominate_avg(inp["T"], f, inp["g"], M=CHI_M, C=C)
        rec = domination_record(cert)
    elif mode == "square":
        cert = stopping.dominate_square(inp["T"], f, inp["g"], p=w.square_pq,
                                        q=w.square_pq, C=C)
        rec = domination_record(cert)
    elif mode == "weighted":
        weight = inp["w"]
        cert = stopping.dominate_weighted(inp["T"], f, inp["g"], weight, p=HARDY_P,
                                          r=None, C=C)
        rec = domination_record(cert, {"a2": hardy.ap_characteristic(weight, 2.0),
                                       "weight_kind": inp["weight_kind"]})
    elif mode == "osc":
        cert = stopping.dominate_oscillation(inp["T"], f, inp["g"], C=C)
        _, lrep = stopping.lerner_decompose(f, ROOT, lam=LERNER_LAM)
        rec = domination_record(cert, {"lerner_K": lrep["K"]})
        rec["hard_ok"] = bool(rec["hard_ok"] and lrep["pointwise_ok"]
                              and lrep["child_budget_ok"])
    elif mode == "atoms":
        deco = hardy.atomic_decompose(f, p=HARDY_P, r=None, C=C)
        checks = deco.checks
        rec = {
            "mode": "atoms", "p": deco.p, "r": deco.r, "C": deco.stopping_constant,
            "n_atoms": len(deco.coefficients),
            "lp_budget_ratio": checks.get("lp_budget_ratio", 0.0),
            "realized_constant": checks.get("lp_budget_ratio", 0.0),
            "hard_ok": bool(checks.get("reconstruction_ok", True)
                            and checks.get("child_budget_ok", True)
                            and checks.get("atoms_ok", True)),
        }
    elif mode == "cz":
        alpha = inp["alpha_scale"] * max(lp_norm(f, 1.0), 1e-9)
        dec = cz.cz_decompose(f, alpha)
        checks = dec.verify()
        rec = {"mode": "cz", "alpha": alpha, "n_bad_cubes": len(dec.bad_cubes),
               "realized_constant": sum(Q.length for Q in dec.bad_cubes) * alpha
               / max(lp_norm(f, 1.0), 1e-300),
               "hard_ok": all(checks.values()), **checks}
    elif mode == "weak11":
        S = inp["S"]
        report = cz.weak11_certify(lambda x: sparse.sparse_operator(S, x), f,
                                   K=WEAK_K, seed=case.seed + 6)
        rec = {"mode": "weak11", "n_intervals": len(S),
               "realized_constant": report["weak_quasinorm"],
               "hard_ok": bool(report["majority_ok"] and report["crosscheck_ok"]),
               "weak_quasinorm": report["weak_quasinorm"],
               "proxy": report["proxy"]}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return rec


def campaign_config(w: Workload, slot: int, out_jsonl, out_csv):
    """Default campaign config at the workload's depth, writing both outputs."""
    return campaign.CampaignConfig(depth_J=w.J, trials=w.trials,
                                   seed=campaign_seed(w, slot),
                                   out_jsonl=str(out_jsonl), out_csv=str(out_csv))


def campaign_key(slot: int, rec: dict) -> str:
    return f"{slot}/{rec['mode']}/{rec['trial']}"
