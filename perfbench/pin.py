"""Pin the reference outputs of every slot of every workload.

    python3 perfbench/pin.py [--workload NAME ...] [--size full|smoke ...]

Runs each case once, refuses to pin a record that fails its own checks,
and writes ``oracle/<workload>.<size>.json``.  Re-pin only when a change
is meant to alter the certificates; say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import bootstrap
import oracle


def pin_workload(w) -> dict:
    import workloads

    cases = {}

    def add(key, rec):
        failed = oracle.record_failures(rec, oracle.canonical(rec))
        if failed:
            raise SystemExit(f"pin: {w.name} {key} fails {failed}")
        cases[key] = oracle.canonical(rec)

    for slot in range(w.slots):
        if w.kind == "campaign":
            with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
                jsonl = Path(tmp) / "certs.jsonl"
                workloads.campaign.run_campaign(
                    workloads.campaign_config(w, slot, jsonl, Path(tmp) / "summary.csv"))
                for line in jsonl.read_text().splitlines():
                    rec = json.loads(line)
                    add(workloads.campaign_key(slot, rec), rec)
        else:
            for case in workloads.pass_cases(w, slot):
                add(case.key, workloads.run_trial(w, case, workloads.make_inputs(w, case)))
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="*")
    ap.add_argument("--size", nargs="*", default=["smoke", "full"])
    args = ap.parse_args(argv)
    bootstrap.prepare()
    import workloads

    for size in args.size:
        for name in args.workload or workloads.NAMES:
            w = workloads.get(name, size)
            t0 = perf_counter()
            cases = pin_workload(w)
            path = oracle.save(w, size, cases)
            print(f"{path.name}: {len(cases)} cases in {perf_counter() - t0:.1f} s",
                  flush=True)
    bootstrap.remove_scratch_dir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
