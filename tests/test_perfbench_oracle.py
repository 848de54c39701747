"""Full-size slots of every benchmark workload pass the pinned oracle.

perfbench checks each trial record against ``perfbench/oracle/`` (exact
collections, sub-families, children and C; floats to 1e-12), but only in a
40 s benchmark run.  These tests run two pinned slots of dense-hard-J12
(full families at C0 = 1, where most modes double C) and one slot each of
deep-J14 and campaign-J12 through the benchmark's own ``run_trial`` and
``run_campaign`` calls, so a change that moves a certificate fails here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sparsedom import campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module ``perfbench_<name>``, unchanged."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracle = _load("oracle")


@pytest.mark.parametrize("name, slot", [("dense-hard-J12", 0), ("dense-hard-J12", 1),
                                        ("deep-J14", 0)])
def test_trial_slot_matches_oracle(name, slot):
    w = workloads.get(name)
    ref = oracle.load(w, "full")
    for case in workloads.pass_cases(w, slot):
        rec = workloads.run_trial(w, case, workloads.make_inputs(w, case))
        assert oracle.record_failures(rec, ref.get(case.key)) == [], case.key


def test_campaign_slot_matches_oracle(tmp_path):
    w = workloads.get("campaign-J12")
    ref = oracle.load(w, "full")
    jsonl = tmp_path / "certs.jsonl"
    campaign.run_campaign(workloads.campaign_config(w, 0, jsonl, tmp_path / "summary.csv"))
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == len(campaign.ALL_MODES) * w.trials
    for rec in records:
        key = workloads.campaign_key(0, rec)
        assert oracle.record_failures(rec, ref.get(key)) == [], key
