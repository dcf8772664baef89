"""lifsim benchmark: three closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload sweep_grid --seed 0 --seconds 20 --trace 0

run from the repository root; lifsim is imported from `src/`, so nothing
needs installing. Workloads, metrics and bounds are listed in
BENCHMARK.json and explained in perfbench/README.md.

--trace 0 measures the end-to-end metrics. Identical timed passes repeat
until --seconds of passes have run (and at least the workload's minimum
number of passes). Each timed segment of a pass (an item or a stage of
one, or the head or tail of the pass) is taken at its minimum over the
passes and scaled to a reference host speed by a calibration loop: by its
fastest sample in the run, or, for workloads that calibrate locally, by
the samples just before and just after the segment, before the minimum is
taken. Every timed metric is computed from those minima. --trace 1 alternates an
untraced and a traced pass for --seconds and prints the per-layer metrics;
their counts repeat exactly for a given seed.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted and failed count correctness checks. The line before it
holds the run's details: machine and software, pass and item counts, the
tail percentile used, output digests and the first failed checks. Both are
also written to .perfbench_out/, with the spans of a traced run.
"""

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
# do not start another pass past this much wall time, whatever the minimum
WALL_CAP_S = 120.0
# candidate percentiles for item_tail_ms, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# the calibration loop's time on the reference machine (2 vCPUs, Python
# 3.11.7) when the host is quiet; timed metrics are scaled to that speed
CALIBRATION_REF_S = 0.009
# in a workload that calibrates locally, time the calibration loop at the
# first segment boundary at least this long after the previous sample
CALIBRATION_EVERY_S = 0.25


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest():
    """sha256 over the lifsim sources. It identifies the code where there
    is no git commit to name, as in a tree exported with `git archive`."""
    pkg = os.path.join(SRC, "lifsim")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def setup_probes(workload, seed, n):
    """Run n fresh interpreters that import lifsim and prepare the workload."""
    results = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def percentile(sorted_values, pct):
    """Nearest-rank percentile; returns (value, number of items beyond)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(n_items):
    """The highest of TAIL_PERCENTILES with at least ten of n_items beyond
    it; 100 (the slowest item) if there is none."""
    for pct in TAIL_PERCENTILES:
        if n_items - max(1, math.ceil(pct / 100.0 * n_items)) >= 10:
            return pct
    return 100.0


class Calibration:
    """A fixed pure-Python loop shaped like lifsim's inner loops: walk
    (step, channel) events, look up per-step channel lists and weights, and
    accumulate with saturation. Its data are built once and only read while
    timed, so the allocator's state cannot change its speed."""

    def __init__(self):
        self.times = []   # fastest loop time of each sample
        self.ends = []    # perf_counter() at the end of each sample
        x = 12345
        events = set()
        while len(events) < 20000:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            events.add((x % 10000, (x >> 16) % 40))
        self.events = sorted(events)
        self.by_step = {}
        for t, ch in self.events:
            self.by_step.setdefault(t, []).append(ch)
        self.weights = [(7 * ch) % 25 - 12 for ch in range(40)]
        for _ in range(5):  # let the interpreter specialise the loop
            self.loop()

    def loop(self):
        weights, by_step = self.weights, self.by_step
        acc = 0
        for t, ch in self.events:
            acc = max(-256, min(255, acc + weights[ch]))
            if len(by_step[t]) > 3:
                acc = max(-256, min(255, acc - weights[ch]))
        return acc

    def sample(self, repeats=3):
        """Time the loop a few times with the cyclic GC off; keep the
        fastest."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                self.loop()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(best)
        self.ends.append(time.perf_counter())

    def between(self):
        """Sample unless the previous sample is under CALIBRATION_EVERY_S
        old."""
        if time.perf_counter() - self.ends[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def scale(self, start, seconds):
        """The factor that brings a segment timed from `start` for
        `seconds` to the reference speed: CALIBRATION_REF_S over the mean
        of the samples just before and just after it."""
        before = self.times[bisect.bisect_right(self.ends, start) - 1]
        after = self.times[bisect.bisect_left(self.ends, start + seconds)]
        return 2.0 * CALIBRATION_REF_S / (before + after)


def untraced_run(wl, plan, seconds, work_dir, checks, calibration):
    """Repeat the timed pass; sample the calibration loop between passes
    and, in a workload that calibrates locally, within them."""
    passes = []
    timed = 0.0
    wall0 = time.perf_counter()
    calibration.sample()
    while len(passes) < wl.min_passes or timed < seconds:
        if passes and (time.perf_counter() - wall0
                       + sum(passes[-1].segments)) > WALL_CAP_S:
            break
        k = len(passes)
        result = wl.run_pass(plan, work_dir, between=calibration.between)
        checks.merge(wl.check(plan, k, result))
        if passes:
            checks.expect(
                result.digest == passes[0].digest
                and result.units == passes[0].units
                and len(result.segments) == len(passes[0].segments),
                f"pass {k} differs from pass 0 on the same inputs")
        result.output = None  # keep memory to one pass
        passes.append(result)
        timed += sum(result.segments)
        calibration.sample()
    return passes


def fastest_segments(passes, local_calibration=None):
    """Each segment's minimum over the passes; with a local calibration,
    each segment time is first scaled by the samples around it.

    Contention on a shared host only ever adds time, in phases of a few
    seconds, so the fastest of several identical passes is, segment by
    segment, the steadiest estimate of what the code itself costs.
    """
    def scaled(p):
        if local_calibration is None:
            return p.segments
        return [x * local_calibration.scale(t, x)
                for t, x in zip(p.starts, p.segments)]
    return [min(column) for column in zip(*map(scaled, passes))]


def traced_run(wl, plan, seconds, work_dir, checks):
    from tracer import Tracer
    untraced, traced, tracers = [], [], []
    timed = 0.0
    while not tracers or timed < seconds:
        base = wl.run_pass(plan, work_dir)
        checks.merge(wl.check(plan, len(untraced), base))
        tracer = Tracer()
        result = wl.run_pass(plan, work_dir, tracer=tracer)
        checks.merge(wl.check(plan, len(traced), result))
        checks.expect(result.digest == base.digest,
                      "traced pass output digest differs from untraced")
        checks.expect(result.units == base.units,
                      "traced pass work units differ from untraced")
        checks.expect(not tracers or tracer.counts == tracers[0].counts,
                      "per-layer counts differ between traced passes")
        base.output = result.output = None
        untraced.append(base)
        traced.append(result)
        tracers.append(tracer)
        timed += sum(base.segments) + sum(result.segments)
    return untraced, traced, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lifsim", "__init__.py")):
        print(f"error: lifsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS
    spec = load_spec()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    details, result = run(wl, spec, args.seed, args.seconds, args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


def run(wl, spec, seed, seconds, trace, probes=SETUP_PROBES,
        out_dir=OUT_DIR):
    """One benchmark run; returns (details, result)."""
    from workloads import Checks
    tag = f"{wl.name}-seed{seed}-trace{trace}"
    work_dir = os.path.join(out_dir, "work-" + tag)
    os.makedirs(work_dir, exist_ok=True)
    # lifsim's own temporary files (verify's round trips) stay in the tree
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = work_dir
    try:
        setup = setup_probes(wl.name, seed, probes)
        plan = wl.prepare(seed)
        checks = Checks()
        details = {
            "workload": wl.name, "seed": seed, "trace": trace,
            "run_seconds": seconds, "machine": machine(seed),
            "setup": setup,
        }
        if trace:
            metrics = _traced(wl, spec, plan, seconds, work_dir, checks,
                              setup, details, out_dir, tag)
        else:
            metrics = _untraced(wl, spec, plan, seconds, work_dir, checks,
                                setup, details)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work_dir, ignore_errors=True)
    details["checks_attempted"] = checks.attempted
    details["checks_failed"] = checks.failed
    details["failed_frac"] = checks.failed / max(checks.attempted, 1)
    details["first_failures"] = checks.first_failures
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    return details, result


def _setup_s(setup):
    return statistics.median(p["import_s"] + p["configs_s"] for p in setup)


def _untraced(wl, spec, plan, seconds, work_dir, checks, setup, details):
    calibration = Calibration()
    passes = untraced_run(wl, plan, seconds, work_dir, checks, calibration)
    pass_s = sum(fastest_segments(passes))
    # host speed drifts by tens of percent over minutes on a shared host;
    # scale timed segments to the calibration loop's reference speed
    if wl.calibrate_locally:
        fastest = fastest_segments(passes, calibration)
    else:
        scale = CALIBRATION_REF_S / min(calibration.times)
        fastest = [x * scale for x in fastest_segments(passes)]
    items = sorted(wl.items(fastest))
    tail_pct = tail_percentile(len(items))
    tail, beyond = percentile(items, tail_pct)
    values = {
        "setup_s": _setup_s(setup),
        "work_per_s": passes[0].units / sum(fastest),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pass_seconds = [sum(p.segments) for p in passes]
    details.update({
        "passes": len(passes),
        "pass_seconds": pass_seconds,
        "pass_seconds_median": statistics.median(pass_seconds),
        "pass_seconds_fastest_segments": pass_s,
        "calibrate_locally": wl.calibrate_locally,
        "calibration_samples": len(calibration.times),
        "calibration_s_fastest": min(calibration.times),
        "calibration_s_median": statistics.median(calibration.times),
        "segments_per_pass": len(fastest),
        "work_unit": wl.unit,
        "units_per_pass": passes[0].units,
        f"{wl.unit}_per_s": values["work_per_s"],
        f"{wl.unit}_per_s_unscaled": passes[0].units / pass_s,
        "items": len(items),
        "tail_percentile": tail_pct,
        "items_beyond_tail": beyond,
        "digest": {"outputs": passes[0].digest,
                   **wl.once(plan, checks, work_dir)},
    })
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _traced(wl, spec, plan, seconds, work_dir, checks, setup, details,
            out_dir, tag):
    untraced, traced, tracers = traced_run(wl, plan, seconds, work_dir,
                                           checks)
    values = dict(tracers[0].counts)
    for key in {k for t in tracers for k in t.seconds}:
        values[key] = statistics.median(t.seconds.get(key, 0.0)
                                        for t in tracers)
    values["setup.import_s"] = statistics.median(p["import_s"] for p in setup)
    values["setup.configs_s"] = statistics.median(p["configs_s"]
                                                  for p in setup)
    untraced_s = [sum(p.segments) for p in untraced]
    traced_s = [sum(p.segments) for p in traced]
    values["trace.overhead_frac"] = min(traced_s) / min(untraced_s) - 1.0
    spans_path = os.path.join(out_dir, "spans-" + tag + ".json")
    with open(spans_path, "w") as fh:
        json.dump({"workload": wl.name, "seed": details["seed"],
                   "passes": [t.span_table() for t in tracers]},
                  fh, separators=(",", ":"))
    details.update({
        "pairs": len(tracers),
        "untraced_pass_seconds": untraced_s,
        "traced_pass_seconds": traced_s,
        "digest": {"outputs": untraced[0].digest,
                   **wl.once(plan, checks, work_dir)},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_per_pass": len(tracers[0].spans),
    })
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
