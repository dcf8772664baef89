"""Self-test of the benchmark harness on tiny workloads (about a minute).

    python3 perfbench/selftest.py

run from the repository root. It shows that every workload passes its own
checks, that the traced and untraced runs of a seed give the same output
digests, that per-layer counts repeat exactly across two traced runs, and
that a run reports failure when an output digest or a check is wrong. It is
not part of the pytest suite (pytest collects tests/ only). Exits 1 on any
failure.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run as bench  # noqa: E402
from tracer import Patch  # noqa: E402
from workloads import SweepGrid, StimulusLong, VerifyOracle  # noqa: E402


def tiny_sweep(anchor=None):
    return SweepGrid(temporal=(0.25, 0.75), inputs=(0.5, 1.0), trials=2,
                     anchor=anchor)


def tiny_workloads():
    return [tiny_sweep(), VerifyOracle(trials=4),
            StimulusLong(grid=((0.05, 0.05), (0.05, 0.5)), min_passes=2)]


def main():
    spec = bench.load_spec()
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    os.makedirs(bench.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as out_dir:
        def run(wl, seed, trace):
            return bench.run(wl, spec, seed, 0.0, trace, probes=1,
                             out_dir=out_dir)

        for wl in tiny_workloads():
            plain, result = run(wl, 3, 0)
            expect(result["correct"] and result["attempted"] > 0,
                   f"{wl.name}: untraced run passes its checks")
            expect(set(result["metrics"])
                   == {m["name"] for m in spec["end_to_end"]},
                   f"{wl.name}: every end-to-end metric is reported")
            runs = [run(wl, 3, 1) for _ in range(2)]
            expect(all(r["correct"] for _, r in runs),
                   f"{wl.name}: traced runs pass their checks")
            expect(all(set(r["metrics"])
                       == {m["name"] for m in spec["per_layer"]}
                       for _, r in runs),
                   f"{wl.name}: every per-layer metric is reported")
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "bytes")} for _, r in runs]
            expect(counts[0] == counts[1] and any(counts[0].values()),
                   f"{wl.name}: per-layer counts repeat across traced runs")
            expect(all(d["digest"] == plain["digest"] for d, _ in runs),
                   f"{wl.name}: traced and untraced digests agree")

        # a wrong output digest: the seed-0 anchor does not match
        _, result = run(tiny_sweep(anchor="0" * 64), 0, 0)
        expect(not result["correct"] and result["failed"] == 1,
               "sweep_grid: a wrong anchor digest fails the run")

        # wrong checks: inject one fault per workload
        faults = [
            (tiny_sweep(), "lifsim.cost", "latency",
             lambda fn: lambda *a, **k: fn(*a, **k) + 1,
             "a closed-form latency mismatch"),
            (VerifyOracle(trials=4), "lifsim.cli", "check_io_stability",
             lambda fn: lambda *a, **k: (False, (0, None)),
             "a failing verify check"),
            (StimulusLong(grid=((0.05, 0.5),), min_passes=1), "lifsim.stimulus",
             "load", lambda fn: lambda *a, **k: _drop_one_event(fn(*a, **k)),
             "a lossy file round trip"),
        ]
        for wl, module, name, make, what in faults:
            patch = Patch()
            patch.replace(module, name, make)
            try:
                _, result = run(wl, 3, 0)
            finally:
                patch.undo()
            expect(not result["correct"] and result["failed"] > 0,
                   f"{wl.name}: {what} fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def _drop_one_event(train):
    from lifsim import stimulus
    events = train.sorted_events()[1:]
    return stimulus.SpikeTrain(train.n_channels, train.n_steps, events)


if __name__ == "__main__":
    sys.exit(main())
