"""The three benchmark workloads.

Each workload drives lifsim's public API in a closed loop: one caller, no
threads, each item starting when the previous one ends. A workload has

- prepare(seed): the set-up the timed passes rely on (configs and seeds);
- run_pass(plan, work_dir, tracer, between): one timed pass. Every pass
  of a run does the same work on the same inputs, so the pass splits into
  segments that line up from pass to pass;
- items(segments): the per-item times of a pass, from its segment times;
- check(plan, k, result): correctness checks, outside the timed region;
- once(plan, checks, work_dir): checks and digests made once per run;
- min_passes: the fewest timed passes of an untraced run;
- calibrate_locally: how timed segments are scaled for host speed (see
  run.py). If true, run_pass calls between() untimed after every segment.

A pass's result carries its work units for the throughput metric: the
simulated neuron-timesteps it ran, or the spike events it carried.

Timed regions call lifsim only through module attributes, so the wrappers
of tracer.py see every call.
"""

import contextlib
import gc
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from lifsim import cli, cost, neuron, stimulus

import tracer as tracing

# `lifsim sweep --seed 0` on the default grid; see ROADMAP.md
SWEEP_ANCHOR_SHA256 = (
    "81e0512f48e636100e623b213f92dd9321f1e8729773778c4c08051ba6266266")

VERIFY_LINES = (
    "real-arithmetic equivalence:",
    "quantized divergence bound:",
    "serial/AER trace stability:",
    "encoding round-trips:",
    "threshold boundary fires:",
)


@dataclass
class PassResult:
    segments: list         # host seconds of each timed segment, in order
    starts: list           # perf_counter() at the start of each segment
    units: int             # work units the pass stands for
    output: object         # what check() inspects
    digest: str            # sha256 of the simulated outputs


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    first_failures: list = field(default_factory=list)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        room = 10 - len(self.first_failures)
        self.first_failures.extend(other.first_failures[:max(room, 0)])


def _marked_call(fn, tracer):
    """Run fn() timed; returns (segments, their starts, simulated steps,
    fn's result).

    Every sweep item and every verify trial starts by generating its train,
    so entries to stimulus.generate split the call into segments: the head
    before the first item, one segment per item, and a tail that holds the
    last item together with the pass's closing work (sweep aggregation and
    CSV formatting; verify's fire-boundary check and report). A traced
    pass is one segment. The simulated steps are the sum of train.n_steps
    over every neuron.run and neuron.reference_run call.
    """
    marks = tracing.ItemMarks()
    patch = (tracing.install_tracer(tracer) if tracer is not None
             else marks.install())
    try:
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
    finally:
        patch.undo()
    if tracer is not None:
        sim_steps = (tracer.counts.get("neuron.run.sim_steps", 0)
                     + tracer.counts.get("neuron.reference_run.sim_steps", 0))
    else:
        sim_steps = marks.sim_steps
    edges = [start] + marks.times + [end]
    segments = [b - a for a, b in zip(edges, edges[1:])]
    return segments, edges[:-1], sim_steps, result


def _items_between_marks(segments):
    # the head is no item; the tail mixes the last item with closing work
    return segments[1:-1]


class SweepGrid:
    """`lifsim sweep` over a temporal x input density grid, CSV to a file."""

    name = "sweep_grid"
    unit = "sim_steps"
    channels = 8
    steps = 100
    min_passes = 5
    calibrate_locally = False
    # trials per grid point of the default sweep, which the anchor hashes
    anchor_trials = 20

    def __init__(self, temporal=cli.DEFAULT_SWEEP_TEMPORAL,
                 inputs=cli.DEFAULT_SWEEP_INPUT, trials=2,
                 anchor=SWEEP_ANCHOR_SHA256):
        self.temporal = tuple(temporal)
        self.inputs = tuple(inputs)
        self.trials = trials
        # `lifsim sweep --seed 0` with anchor_trials must hash to the anchor
        self.anchor = anchor
        self.n_trains = len(self.temporal) * len(self.inputs) * trials

    def prepare(self, seed):
        configs = {
            key: cli.make_config(*key, n_channels=self.channels)
            for key in cli.ALL_CONFIGS
        }
        seeds = [
            cli.derive_seed(seed, ti, ii, trial)
            for ti in range(len(self.temporal))
            for ii in range(len(self.inputs))
            for trial in range(self.trials)
        ]
        return {"seed": seed, "configs": configs, "seeds": seeds}

    def argv(self, seed, trials, out):
        return [
            "sweep", "--seed", str(seed),
            "--temporal", ",".join(repr(float(x)) for x in self.temporal),
            "--input", ",".join(repr(float(x)) for x in self.inputs),
            "--channels", str(self.channels), "--steps", str(self.steps),
            "--trials", str(trials), "--out", out,
        ]

    def run_pass(self, plan, work_dir, tracer=None, between=None):
        out = os.path.join(work_dir, "sweep.csv")
        argv = self.argv(plan["seed"], self.trials, out)
        segments, starts, sim_steps, code = _marked_call(
            lambda: cli.main(argv), tracer)
        with open(out, "rb") as fh:
            data = fh.read()
        return PassResult(segments, starts, sim_steps, (code, data),
                          hashlib.sha256(data).hexdigest())

    items = staticmethod(_items_between_marks)

    def check(self, plan, k, result):
        checks = Checks()
        code, data = result.output
        checks.expect(code == 0, f"pass {k}: sweep exit code {code}")
        lines = data.decode().splitlines()
        checks.expect(bool(lines) and lines[0] == cli.CSV_COLUMNS,
                      f"pass {k}: CSV header")
        rows = [line.split(",") for line in lines[1:]]
        trial_rows = [r for r in rows if r[6].isdigit()]
        n_configs = len(cli.ALL_CONFIGS)
        checks.expect(
            len(trial_rows) == self.n_trains * n_configs
            and len(rows) - len(trial_rows)
            == 2 * n_configs * len(self.temporal) * len(self.inputs),
            f"pass {k}: CSV row counts")
        checks.expect(
            sorted({int(r[7]) for r in trial_rows})
            == sorted(set(plan["seeds"])),
            f"pass {k}: CSV seeds differ from the documented derivation")
        configs = {cfg.name: cfg for cfg in plan["configs"].values()}
        trains = {}
        for r in trial_rows:
            seed = int(r[7])
            train = trains.get(seed)
            if train is None:
                train = trains[seed] = stimulus.generate(
                    stimulus.DensityProfile(float(r[4]), float(r[5])),
                    self.channels, self.steps, seed)
            lat, en, pw = int(r[8]), float(r[9]), float(r[10])
            checks.expect(lat == cost.latency(configs[r[0]], train),
                          f"pass {k}: {r[0]} seed {seed}: latency {lat} "
                          f"!= closed form")
            checks.expect(abs(en - pw * lat) <= 1e-12 * max(1.0, abs(en)),
                          f"pass {k}: {r[0]} seed {seed}: E != P x L")
        return checks

    def once(self, plan, checks, work_dir):
        """Membrane-trace digest; at seed 0 also the default-sweep anchor."""
        digests = {"membrane_traces": self.trace_digest(plan)}
        if plan["seed"] == 0 and self.anchor is not None:
            out = os.path.join(work_dir, "anchor.csv")
            code = cli.main(self.argv(0, self.anchor_trials, out))
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            checks.expect(code == 0 and digest == self.anchor,
                          f"seed 0 sweep sha256 {digest} != anchor")
            digests["seed0_sweep_csv"] = digest
        return digests

    def trace_digest(self, plan):
        """sha256 of the membrane traces of every config on trial 0 of each
        grid point (time, raw u, fired per record)."""
        h = hashlib.sha256()
        for ti, temporal in enumerate(self.temporal):
            for ii, inp in enumerate(self.inputs):
                train = stimulus.generate(
                    stimulus.DensityProfile(temporal, inp), self.channels,
                    self.steps, cli.derive_seed(plan["seed"], ti, ii, 0))
                for key in cli.ALL_CONFIGS:
                    trace = neuron.run(plan["configs"][key], train)
                    h.update(repr([tuple(r) for r in trace.records]).encode())
        return h.hexdigest()


class VerifyOracle:
    """`lifsim verify`: the five oracle-equivalence checks."""

    name = "verify_oracle"
    unit = "sim_steps"
    min_passes = 5
    calibrate_locally = False

    def __init__(self, trials=200):
        self.trials = trials

    def prepare(self, seed):
        # the battery derives its trial seeds and per-trial configs itself
        return {"seed": seed}

    def run_pass(self, plan, work_dir, tracer=None, between=None):
        argv = ["verify", "--trials", str(self.trials),
                "--seed", str(plan["seed"])]
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        segments, starts, sim_steps, code = _marked_call(call, tracer)
        report = buf.getvalue()
        return PassResult(segments, starts, sim_steps, (code, report),
                          hashlib.sha256(report.encode()).hexdigest())

    items = staticmethod(_items_between_marks)

    def check(self, plan, k, result):
        checks = Checks()
        code, report = result.output
        checks.expect(code == 0, f"pass {k}: verify exit code {code}")
        lines = report.splitlines()
        for label in VERIFY_LINES:
            line = next((x for x in lines if x.startswith(label)), "")
            checks.expect(" PASS" in line, f"pass {k}: {label} {line!r}")
        return checks

    def once(self, plan, checks, work_dir):
        return {}


STIMULUS_STAGES = ("generate", "measure_density", "encode_serial",
                   "decode_serial", "encode_aer", "decode_aer", "save", "load",
                   "free")


class StimulusLong:
    """Long trains through generate -> measure -> serial and AER encode and
    decode -> save -> load, on a temporal x input density grid."""

    name = "stimulus_long"
    unit = "events"
    channels = 40
    steps = 10_000
    # a run holds only a few passes, and many stages last longer than a
    # quiet phase of the host, so the minimum over passes alone rarely
    # reaches quiet speed; each stage is scaled by calibration samples
    # taken around it instead
    calibrate_locally = True
    # the largest distance of a realized density from its target
    tolerance = 0.02

    def __init__(self, grid=None, min_passes=3):
        levels = (0.05, 0.5, 0.95)
        self.grid = tuple(grid or [(t, i) for t in levels for i in levels])
        self.min_passes = min_passes

    def prepare(self, seed):
        profiles = [stimulus.DensityProfile(t, i) for t, i in self.grid]
        seeds = [
            int(np.random.SeedSequence([seed, i])
                .generate_state(1, dtype=np.uint64)[0])
            for i in range(len(self.grid))
        ]
        return {"seed": seed, "profiles": profiles, "seeds": seeds}

    def run_pass(self, plan, work_dir, tracer=None, between=None):
        """One segment per stage per train (STIMULUS_STAGES); the last
        stage frees what the round trip built, which is part of the item.
        `between()`, if given, runs untimed after each stage."""
        path = os.path.join(work_dir, "train.spk")
        patch = tracing.install_tracer(tracer) if tracer is not None else None
        segments, starts, outcomes, events = [], [], [], 0
        h = hashlib.sha256()
        clock = time.perf_counter

        def ended(start):
            starts.append(start)
            segments.append(clock() - start)
            if between is not None:
                between()

        def stage(fn, *args):
            start = clock()
            result = fn(*args)
            ended(start)
            return result

        # start from a collected heap, and end every train with a timed full
        # collection: each train then pays for the cyclic garbage it leaves,
        # and no collection owed to one train lands in another. Freezing the
        # heap the pass starts with (lifsim, numpy, scipy: ~50k objects)
        # keeps collections to the objects the trains make, so their cost
        # is that of the trains' own objects
        gc.collect()
        gc.freeze()
        try:
            for profile, seed in zip(plan["profiles"], plan["seeds"]):
                train = stage(stimulus.generate, profile, self.channels,
                              self.steps, seed)
                density = stage(stimulus.measure_density, train)
                vectors = stage(stimulus.encode_serial, train)
                from_serial = stage(stimulus.decode_serial, vectors,
                                    self.channels)
                packets = stage(stimulus.encode_aer, train)
                from_aer = stage(stimulus.decode_aer, packets, self.channels,
                                 self.steps)
                stage(stimulus.save, train, path)
                loaded = stage(stimulus.load, path)
                events += len(train.events)
                with open(path, "rb") as fh:
                    h.update(fh.read())
                outcomes.append((
                    profile, density, from_serial == train,
                    from_aer == train, loaded == train))
                start = clock()
                del vectors, packets, from_serial, from_aer, loaded, train
                gc.collect()
                ended(start)
        finally:
            gc.unfreeze()
            if patch is not None:
                patch.undo()
        return PassResult(segments, starts, events, outcomes, h.hexdigest())

    def items(self, segments):
        n = len(STIMULUS_STAGES)
        return [sum(segments[i:i + n]) for i in range(0, len(segments), n)]

    def check(self, plan, k, result):
        checks = Checks()
        tol = self.tolerance
        for profile, measured, serial_ok, aer_ok, file_ok in result.output:
            where = (f"pass {k}: ({profile.temporal_density}, "
                     f"{profile.input_density})")
            checks.expect(serial_ok, f"{where}: serial round trip")
            checks.expect(aer_ok, f"{where}: AER round trip")
            checks.expect(file_ok, f"{where}: file round trip")
            checks.expect(
                abs(measured.temporal_density - profile.temporal_density)
                <= tol, f"{where}: temporal density "
                        f"{measured.temporal_density}")
            checks.expect(
                abs(measured.input_density - profile.input_density) <= tol,
                f"{where}: input density {measured.input_density}")
        return checks

    def once(self, plan, checks, work_dir):
        return {}


WORKLOADS = {w.name: w for w in (SweepGrid(), VerifyOracle(), StimulusLong())}
