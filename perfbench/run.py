"""sparsedom certificate benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload deep-J14 --seed 3 --seconds 30 --trace 0

Workloads (``workloads.py``):

* ``campaign-J12``: ``run_campaign`` with every mode at J=12 and the
  default config, writing JSONL and CSV; the only workload that runs the
  campaign driver and its output.
* ``deep-J14``: per-trial avg, square, weighted, osc, atoms, cz and weak11 at
  J=14 on Gaussian inputs, where the O(4^J) stages (chi^M rows, the weak
  (1,1) scan, exact-rational CZ, the atoms profile pass, ``cmo_norm``)
  dominate.
* ``dense-hard-J12``: the same modes at J=12 on the full interval family
  with point masses, sparse Haar, step and Gaussian signals, extreme
  weights and C0=1, so the stopping recursion, ``subtree_profile`` and the
  doubling trail do the work.

One client runs trials back to back: the next starts only after the
previous certificate has been built and checked.  Passes repeat until the
next would end past ``--seconds``.  A trial fails if it raises, if its
``hard_ok`` or any ``*_ok`` flag is false, or if its record differs from
the pinned reference (``oracle.py``).

``--trace 0`` prints the end-to-end metrics; a mode's trial time is the
mean over whole passes, and set-up time is the median of five fresh
interpreters that import sparsedom and build the first pass's
inputs.  ``--trace 1`` runs every trial of one pass twice, untraced and
with spans on every layer's entry points (``tracing.py``), then one trial
per mode traced again to check that every count repeats exactly; it prints
the per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import bootstrap
import oracle

SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
FAIL_CHECKS = ("raised", "hard_ok", "cert_ok", "oracle", "count_repeat")

TIMED_MODES = ("avg", "square", "weighted", "osc", "atoms", "cz", "weak11")
END_TO_END = (
    [("setup_s", "s"), ("trials_per_s", "1/s")]
    + [(f"{m}_ms_mean", "ms") for m in TIMED_MODES]
    + [("certified_frac", "frac"), ("peak_rss_mb", "MB")]
)

_SELF = [
    "kernels.chi_sums_depth", "kernels.subtree_profile", "kernels.interval_sums",
    "stopping.dominate_avg", "stopping.dominate_square", "stopping.dominate_weighted",
    "stopping.dominate_oscillation", "stopping.lerner_decompose",
    "haar.haar_transform", "haar.tilde_size", "haar.inverse_haar_transform",
    "hardy.cmo_norm", "hardy.hardy_norm", "hardy.ap_characteristic",
    "hardy.atomic_decompose", "cz.cz_decompose", "cz.verify", "cz.weak11_certify",
    "maximal.maximal", "sparse.sparse_operator", "sparse.carleson_constant",
    "sparse.certify_sparse", "sparse.greedy_max_eta", "dyadic.oscillation",
    "generate", "campaign.run_campaign",
]
_CALLS = ["kernels.chi_sums_depth", "kernels.subtree_profile", "haar.haar_transform",
          "dyadic.chi_weights", "haar.inverse_haar_transform", "dyadic.oscillation"]
# exact counts, all computed from call arguments and results
COUNTS = (
    [f"{name}.calls" for name in _CALLS]
    + ["kernels.chi_sums_depth.cells", "kernels.subtree_profile.cells",
       "stopping.attempts", "stopping.collection_size", "cz.bad_cubes",
       "cz.weak11.test_sets", "campaign.jsonl_bytes"]
)
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in _SELF]
    + [(name, "bytes" if name.endswith("_bytes") else "count") for name in COUNTS]
    + [("stopping.useful_attempt_ratio", "ratio"), ("trace.overhead_frac", "frac")]
    + [(f"fail.{name}", "count") for name in FAIL_CHECKS]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: tiny depths for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class ModeTimer:
    """Times each campaign trial around ``campaign._run_one``.

    ``run_campaign`` looks the function up by name for every job, so the
    campaign's own per-trial loop is timed without changing it.
    """

    def __init__(self, runner):
        from sparsedom import campaign

        self.module = campaign
        self.original = campaign._run_one

        def timed(cfg, mode, trial):
            tracer = runner.tracer
            idx = tracer.open("trial") if tracer else None
            t0 = perf_counter()
            try:
                return self.original(cfg, mode, trial)
            finally:
                runner.times[mode].append(perf_counter() - t0)
                if tracer:
                    tracer.close(idx)

        campaign._run_one = timed

    def restore(self):
        self.module._run_one = self.original


class Runner:
    """Runs passes of one workload, timing trials and checking every record."""

    def __init__(self, w, ref, tmp):
        self.w, self.ref, self.tmp = w, ref, tmp
        self.tracer = None
        self.times = defaultdict(list)      # mode -> trial seconds
        self.program_s = 0.0                # time inside sparsedom calls
        self.attempted = self.failed = 0
        self.fails = Counter()
        self.unit_counts = {}               # unit key -> exact counts (traced)
        self.unit_seconds = {}              # unit key -> seconds

    def check(self, key, rec):
        self.attempted += 1
        names = oracle.record_failures(rec, self.ref.get(key))
        if names:
            self.failed += 1
            self.fails.update(names)
            print(f"# FAIL {key}: {', '.join(names)}", flush=True)

    def _fail_raised(self, key, n=1):
        self.attempted += n
        self.failed += n
        self.fails["raised"] += n
        print(f"# FAIL {key}: raised", flush=True)

    def run_cases(self, cases):
        from workloads import make_inputs, run_trial

        inputs = [make_inputs(self.w, case) for case in cases]
        for case, inp in zip(cases, inputs):
            mark = self.tracer.mark() if self.tracer else None
            idx = self.tracer.open("trial") if self.tracer else None
            t0 = perf_counter()
            try:
                rec = run_trial(self.w, case, inp)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec = None
            finally:
                dt = perf_counter() - t0
                if self.tracer:
                    self.tracer.close(idx)
            if rec is None:
                self._fail_raised(case.key)
                continue
            self.times[case.mode].append(dt)
            self.program_s += dt
            self.unit_seconds[case.key] = dt
            if self.tracer:
                self.unit_counts[case.key] = self.tracer.delta(mark, self.tracer.mark())
            self.check(case.key, rec)

    def run_campaign(self, slot):
        import workloads
        from sparsedom import campaign

        jsonl, csv_path = self.tmp / f"certs-{slot}.jsonl", self.tmp / f"summary-{slot}.csv"
        cfg = workloads.campaign_config(self.w, slot, jsonl, csv_path)
        expected = len(campaign.ALL_MODES) * self.w.trials
        mark = self.tracer.mark() if self.tracer else None
        t0 = perf_counter()
        try:
            campaign.run_campaign(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._fail_raised(f"{slot}/campaign", expected)
            return
        dt = perf_counter() - t0
        key = f"{slot}/campaign"
        self.program_s += dt
        self.unit_seconds[key] = dt
        if self.tracer:
            self.unit_counts[key] = self.tracer.delta(mark, self.tracer.mark())
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        with open(csv_path, newline="") as fh:
            csv_rows = sum(1 for _ in fh)
        if len(records) != expected or csv_rows != expected + 1:
            print(f"# FAIL {key}: {len(records)} records, {csv_rows} csv rows", flush=True)
            self.attempted += expected
            self.failed += expected
            self.fails["oracle"] += expected
            return
        for rec in records:
            self.check(workloads.campaign_key(slot, rec), rec)
        jsonl.unlink()
        csv_path.unlink()

    def run_pass(self, slot):
        from workloads import pass_cases

        if self.w.kind == "campaign":
            self.run_campaign(slot)
        else:
            self.run_cases(pass_cases(self.w, slot))

    def run_for(self, seconds, order):
        """Whole passes, in seed order, until the next would overrun."""
        t_start = perf_counter()
        n = 0
        while True:
            self.run_pass(order[n % len(order)])
            n += 1
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / n > seconds:
                return n


def warm_up(w):
    """Untimed: let the allocator and first-call paths settle at this depth."""
    import numpy as np
    import workloads

    for k in range(4):
        np.ones(1 << (w.J + k))
    small = workloads.get(w.name, "smoke")
    with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
        if small.kind == "campaign":
            workloads.campaign.run_campaign(workloads.campaign_config(
                small, 0, Path(tmp) / "w.jsonl", Path(tmp) / "w.csv"))
        else:
            seen = set()
            for case in workloads.pass_cases(small, 0):
                if case.mode not in seen:
                    seen.add(case.mode)
                    workloads.run_trial(small, case, workloads.make_inputs(small, case))


def setup_probe(w, order):
    """Body of one set-up probe: build the first pass's inputs, then report."""
    import workloads

    if w.kind == "campaign":
        workloads.campaign_config(w, order[0], "probe.jsonl", "probe.csv").validate()
    else:
        inputs = [workloads.make_inputs(w, c) for c in workloads.pass_cases(w, order[0])]
    print("ready", flush=True)


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--seconds", str(args.seconds), "--trace", "0"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=bootstrap.ROOT) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed")
        out.append(dt)
    return out


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            ranked = sorted(samples)
            return p, ranked[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None


def end_to_end(runner, setup):
    certified = runner.attempted - runner.failed
    metrics = {"setup_s": (statistics.median(setup), setup)}
    metrics["trials_per_s"] = (certified / runner.program_s, None)
    for mode in TIMED_MODES:
        samples = runner.times.get(mode)
        if not samples:
            raise SystemExit(f"perfbench: no {mode} trial completed")
        # The mean over whole passes, not the median: on a shared host the CPU
        # speed can switch between a fast and a slow level every few seconds,
        # and a median of short trials then jumps between the levels by run.
        metrics[f"{mode}_ms_mean"] = (1e3 * statistics.fmean(samples),
                                      [1e3 * s for s in samples])
    metrics["certified_frac"] = (certified / runner.attempted, None)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, None)
    return metrics


def traced_run(runner, order, modes):
    """One pass, each unit run untraced and traced; then one unit per mode again.

    A unit is one trial, or one ``run_campaign`` call on the campaign workload.

    The side that runs first alternates from unit to unit, so drift and
    first-run effects cancel in the overhead.  Only traced runs add spans.
    """
    import workloads
    from tracing import ALWAYS_SPANS, CAMPAIGN_SPANS, MODE_SPANS, Tracer

    w = runner.w
    if w.kind == "campaign":
        # two calls, so that the untraced and traced sides each go first once
        units = [(f"{slot}/campaign", "campaign", functools.partial(runner.run_campaign, slot))
                 for slot in order[:2]]
    else:
        units = [(c.key, c.mode, functools.partial(runner.run_cases, [c]))
                 for c in workloads.pass_cases(w, order[0])]
    tracer = Tracer()
    untraced, traced = {}, {}

    def run(unit, on):
        key, _, go = unit
        if on:
            tracer.install()
            runner.tracer = tracer
        try:
            go()
        finally:
            if on:
                tracer.uninstall()
                runner.tracer = None
        if key in runner.unit_seconds:
            (traced if on else untraced)[key] = runner.unit_seconds.pop(key)

    start = tracer.mark()
    for i, unit in enumerate(units):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            run(unit, on)
    end = tracer.mark()
    first = dict(runner.unit_counts)
    traced_pass = dict(traced)
    # the cheapest unit of each mode again: its counts must not change
    cheapest = {}
    for unit in units:
        key, mode, _ = unit
        if key in untraced and (mode not in cheapest
                                or untraced[key] < untraced[cheapest[mode][0]]):
            cheapest[mode] = unit
    for unit in cheapest.values():
        run(unit, True)
    mismatched = [k for k, v in runner.unit_counts.items() if first.get(k) != v]
    for key in mismatched:
        print(f"# FAIL {key}: counts differ between two traced runs", flush=True)
    if mismatched:
        runner.fails["count_repeat"] += len(mismatched)

    counts = tracer.delta(start, end)
    self_s = tracer.self_times(start[0], end[0])
    expected = set(ALWAYS_SPANS) | {s for m in modes for s in MODE_SPANS[m]}
    if w.kind == "campaign":
        expected |= set(CAMPAIGN_SPANS)
    missing = sorted(s for s in expected if counts.get(f"{s}.calls", 0) == 0)
    if missing:
        raise SystemExit(f"perfbench: spans never fired on {w.name}: {missing}")

    per_mode = defaultdict(float)
    for key, seconds in traced_pass.items():
        per_mode[key.split("/")[1]] += seconds
    print("# traced seconds per " + ("call" if w.kind == "campaign" else "mode") + ": "
          + " ".join(f"{m}={s:.4g}" for m, s in per_mode.items()))
    common = [k for k in traced_pass if k in untraced]
    overhead = (sum(traced_pass[k] for k in common)
                / sum(untraced[k] for k in common) - 1.0)
    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name in COUNTS:
            values[name] = counts.get(name, 0)
        elif name.startswith("fail."):
            values[name] = runner.fails[name[len("fail."):]]
    attempts = counts.get("stopping.attempts", 0)
    values["stopping.useful_attempt_ratio"] = (counts.get("stopping.runs", 0) / attempts
                                               if attempts else 0.0)
    values["trace.overhead_frac"] = overhead
    return values


def machine():
    import numpy
    import scipy

    return {"nproc": bootstrap.NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None}


def report_end_to_end(metrics):
    print(f"# {'metric':<18} {'value':>12} {'unit':<6} {'samples':>7}  p50, tail")
    for name, unit in END_TO_END:
        value, samples = metrics[name]
        n = len(samples) if samples else 1
        t = tail(samples) if samples else None
        extra = f"p50={statistics.median(samples):.4g}" if samples else "-"
        if t:
            extra += f" p{t[0]:g}={t[1]:.4g}"
        print(f"# {name:<18} {value:>12.6g} {unit:<6} {n:>7}  {extra}")


def report_per_layer(values):
    print(f"# {'metric':<38} {'value':>14} unit")
    for name, unit in PER_LAYER:
        label = "  (computed)" if name in COUNTS or name.startswith("fail.") else ""
        print(f"# {name:<38} {values[name]:>14.6g} {unit}{label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    import workloads

    try:
        w = workloads.get(args.workload, args.size)
    except ValueError as exc:
        raise SystemExit(f"perfbench: {exc}")
    order = workloads.slot_order(w, args.seed)
    if args.setup_probe:
        setup_probe(w, order)
        return 0

    ref = oracle.load(w, args.size)
    modes = workloads.modes_of(w)
    print(f"# perfbench workload={w.name} size={args.size} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} J={w.J} slots={order}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine().items()), flush=True)

    setup = None if args.trace else measure_setup(args)
    tmp = Path(tempfile.mkdtemp(dir=bootstrap.scratch_dir()))
    runner = Runner(w, ref, tmp)
    timer = None
    try:
        warm_up(w)
        if w.kind == "campaign":
            timer = ModeTimer(runner)
        if args.trace:
            values = traced_run(runner, order, modes)
            report_per_layer(values)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            passes = runner.run_for(args.seconds, order)
            print(f"# passes={passes} program_s={runner.program_s:.3f}")
            e2e = end_to_end(runner, setup)
            report_end_to_end(e2e)
            metrics = {name: {"value": e2e[name][0], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        if timer:
            timer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
        bootstrap.remove_scratch_dir()
    print(f"# attempted={runner.attempted} failed={runner.failed} "
          f"fail_frac={runner.failed / max(runner.attempted, 1):.6g} "
          f"fails={dict(runner.fails)}")
    correct = runner.failed == 0 and not runner.fails["count_repeat"]
    print(json.dumps({"correct": correct,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
