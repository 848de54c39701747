"""The benchmark's own tests, on the tiny-depth smoke size of every workload.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints with its unit in both
trace modes, that the seed code passes the pinned oracle, that a moved
child or a dropped sub-family counts as a failed trial, and that the
benchmark refuses to run without the sparsedom sources.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap

RUN = Path(__file__).resolve().parent / "run.py"


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def run_bench(args, cwd=bootstrap.ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_outputs(spec):
    import workloads

    for name in workloads.NAMES:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--size", "smoke"])
            expect(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace={trace} prints every metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={trace} values are numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace} seed code passes the oracle")


def _move_child(rec):
    for entry in rec["per_Q"]:
        if entry["children"]:
            d, i = entry["children"][0]
            entry["children"][0] = [d, i ^ 1]
            return rec
    raise SystemExit("selftest: no certificate with a child to move")


def _drop_subfamily(rec):
    for entry in rec["per_Q"]:
        if entry["family"]:
            entry["family"] = []
            return rec
    raise SystemExit("selftest: no certificate with a sub-family to drop")


def check_mutations():
    import oracle
    import run
    import workloads

    w = workloads.get("dense-hard-J12", "smoke")
    ref = oracle.load(w, "smoke")
    case = next(c for c in workloads.pass_cases(w, 0) if c.mode == "square")
    rec = workloads.run_trial(w, case, workloads.make_inputs(w, case))
    with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
        runner = run.Runner(w, ref, Path(tmp))
        runner.check(case.key, rec)
        expect(runner.failed == 0, "unmutated certificate passes")
        for label, mutate in (("moved child", _move_child),
                              ("dropped sub-family", _drop_subfamily)):
            before = runner.failed
            runner.check(case.key, mutate(copy.deepcopy(rec)))
            expect(runner.failed == before + 1 and runner.fails["oracle"] >= 1,
                   f"a {label} counts as a failed trial")
    expect(runner.attempted - runner.failed < runner.attempted,
           "certified_frac can fall below 1")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(RUN.parent, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "deep-J14", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "refuses to run without the sparsedom sources")


def main() -> int:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    import run

    expect([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
           "BENCHMARK.json end_to_end matches run.py")
    expect([m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER],
           "BENCHMARK.json per_layer matches run.py")
    bootstrap.prepare()
    check_outputs(spec)
    check_mutations()
    check_refuses_without_sources()
    bootstrap.remove_scratch_dir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
