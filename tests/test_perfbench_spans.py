"""Every span the benchmark expects of a mode fires on a smoke-size trial.

perfbench's tracer wraps public entry points of ``src/`` by name, and a
traced benchmark run stops with "spans never fired" when a mode no longer
reaches one of ``tracing.MODE_SPANS[mode]``.  These tests run one tiny trial
per mode under the tracer, so a change that drops a traced entry point fails
here, without the minutes-long ``perfbench/selftest.py``.
"""

import importlib.util
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


tracing = _load("tracing")
workloads = _load("workloads")


def _fired(go):
    """Names of the spans that fire while ``go()`` runs under the tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        go()
    finally:
        tracer.uninstall()
    return set(tracer.calls(0, len(tracer.ids)))


def _trial(mode):
    """One smoke-size trial of ``mode``, inputs built under the tracer too."""
    if mode == "spmodel":       # a campaign-only mode
        cfg = campaign.CampaignConfig(depth_J=5, trials=1)
        return lambda: campaign._run_one(cfg, mode, 0)
    w = workloads.get("deep-J14", "smoke")
    case = next(c for c in workloads.pass_cases(w, 0) if c.mode == mode)
    return lambda: workloads.run_trial(w, case, workloads.make_inputs(w, case))


@pytest.mark.parametrize("mode", sorted(tracing.MODE_SPANS))
def test_mode_spans_fire(mode):
    expected = set(tracing.MODE_SPANS[mode]) | set(tracing.ALWAYS_SPANS)
    assert expected <= _fired(_trial(mode))


def test_campaign_spans_fire(tmp_path):
    w = workloads.get("campaign-J12", "smoke")
    cfg = workloads.campaign_config(w, 0, tmp_path / "c.jsonl", tmp_path / "c.csv")
    expected = (set(tracing.CAMPAIGN_SPANS) | set(tracing.ALWAYS_SPANS)
                | {s for mode in workloads.modes_of(w) for s in tracing.MODE_SPANS[mode]})
    assert expected <= _fired(lambda: campaign.run_campaign(cfg))
