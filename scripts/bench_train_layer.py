#!/usr/bin/env python3
"""Time each stage of the spike-train layer on the stimulus_long trains.

The trains are the nine 40 ch x 10k-step trains of the benchmark's
stimulus_long workload: one per point of the (0.05, 0.5, 0.95)^2 density
grid, built by that workload's own prepare() at seed 0. A pass runs one
stage on all nine trains; each stage runs PASSES passes, and the script
prints the minimum and the median pass time per stage, in ms. Every stage reads
inputs built before its timer starts, and `measure_density` gets fresh
train objects each pass, so no cached index carries over between passes.

Unlike a traced benchmark run, nothing is counted or wrapped inside the
timed calls, so the numbers can be compared across commits: run the script
from one checkout with PYTHONPATH pointing at the other's src.

Usage: PYTHONPATH=src python scripts/bench_train_layer.py [--json]
"""

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time

from lifsim import stimulus

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench"))
from workloads import StimulusLong  # noqa: E402

WORKLOAD = StimulusLong()
N_CHANNELS, N_STEPS = WORKLOAD.channels, WORKLOAD.steps
SEED = 0
PASSES = 15


def stages(profiles, seeds, trains, work_dir):
    """(name, before, [call per train]) for each stage, in pipeline order;
    `before`, if not None, runs untimed before each pass."""
    fresh = []
    paths = [os.path.join(work_dir, f"train{i}.spk")
             for i in range(len(trains))]
    vectors = [stimulus.encode_serial(x) for x in trains]
    packets = [stimulus.encode_aer(x) for x in trains]
    for x, path in zip(trains, paths):
        stimulus.save(x, path)

    def refresh():
        fresh[:] = [stimulus.SpikeTrain._from_sorted(
            x.n_channels, x.n_steps, x.t, x.ch) for x in trains]

    return [
        ("generate", None, [
            (lambda p=p, s=s: stimulus.generate(p, N_CHANNELS, N_STEPS, s))
            for p, s in zip(profiles, seeds)]),
        ("measure_density", refresh, [
            (lambda i=i: stimulus.measure_density(fresh[i]))
            for i in range(len(trains))]),
        ("encode_serial", None, [
            (lambda x=x: stimulus.encode_serial(x)) for x in trains]),
        ("decode_serial", None, [
            (lambda v=v: stimulus.decode_serial(v, N_CHANNELS))
            for v in vectors]),
        ("encode_aer", None, [
            (lambda x=x: stimulus.encode_aer(x)) for x in trains]),
        ("decode_aer", None, [
            (lambda p=p: stimulus.decode_aer(p, N_CHANNELS, N_STEPS))
            for p in packets]),
        ("save", None, [
            (lambda x=x, path=path: stimulus.save(x, path))
            for x, path in zip(trains, paths)]),
        ("load", None, [
            (lambda path=path: stimulus.load(path)) for path in paths]),
    ]


def time_stage(before, calls, passes):
    """Pass times in ms; `before()`, if given, runs untimed before each."""
    times = []
    for _ in range(passes):
        if before is not None:
            before()
        gc.collect()
        start = time.perf_counter()
        for call in calls:
            call()
        times.append((time.perf_counter() - start) * 1e3)
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of a table")
    args = parser.parse_args()
    plan = WORKLOAD.prepare(SEED)
    profiles, seeds = plan["profiles"], plan["seeds"]
    trains = [stimulus.generate(p, N_CHANNELS, N_STEPS, s)
              for p, s in zip(profiles, seeds)]
    result = {"seed": SEED, "passes": PASSES,
              "events": sum(x.n_events for x in trains), "stages_ms": {}}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, before, calls in stages(profiles, seeds, trains, work_dir):
            times = time_stage(before, calls, PASSES)
            result["stages_ms"][name] = {
                "min": round(min(times), 3),
                "median": round(statistics.median(times), 3)}
    if args.json:
        print(json.dumps(result, indent=2))
        return
    print(f"{result['events']} events in {len(trains)} trains, seed {SEED}, "
          f"{PASSES} passes per stage")
    print(f"{'stage':16} {'min ms':>9} {'median ms':>10}")
    for name, ms in result["stages_ms"].items():
        print(f"{name:16} {ms['min']:9.3f} {ms['median']:10.3f}")
    print(f"{'total':16} "
          f"{sum(ms['min'] for ms in result['stages_ms'].values()):9.3f}")


if __name__ == "__main__":
    main()
