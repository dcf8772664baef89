"""Command-line front end: stimulus generation, characterization, single
runs, density sweeps over all six architectures, and oracle verification.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. All randomness
flows from explicit seeds; identical invocations produce byte-identical
output.
"""

import argparse
import itertools
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import cost, neuron, stimulus
from .fxp import LUT_EXACT, LUT_POW2, BetaSpec, QFormat, build_decay_lut

CSV_COLUMNS = (
    "config,mode,decay,io,temporal_density,input_density,trial,seed,"
    "latency_cycles,energy_units,power_units_per_cycle,"
    "ratio_vs_clock_mult,ratio_vs_clock_shift"
)

# (mode, decay, io) for the six buildable architectures, sweep order
ALL_CONFIGS = (
    ("clock", "mult", "serial"),
    ("clock", "shift", "serial"),
    ("event", "mult", "serial"),
    ("event", "shift", "serial"),
    ("event", "mult", "aer"),
    ("event", "shift", "aer"),
)

# default per-channel weight raws, cycled to the channel count; modest
# magnitudes keep per-step input sums below the default threshold so the
# clock- and event-driven dynamics stay equivalent
DEFAULT_WEIGHT_PATTERN = (12, -7, 9, 15, -3, 6, 11, -14)
DEFAULT_THRESHOLD = 100
DEFAULT_BETA = BetaSpec.one_minus_pow2(1)

DEFAULT_SWEEP_TEMPORAL = tuple(round(0.05 * k, 2) for k in range(1, 21))
DEFAULT_SWEEP_INPUT = (0.25, 0.5, 0.75, 1.0)


def default_weights(n_channels):
    pat = DEFAULT_WEIGHT_PATTERN
    return tuple(pat[i % len(pat)] for i in range(n_channels))


def derive_seed(base, *indices):
    """Stable 64-bit seed for one sweep point."""
    ss = np.random.SeedSequence([int(base)] + [int(i) for i in indices])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def fnum(x):
    """Deterministic, locale-free number formatting for CSV cells."""
    if isinstance(x, int):
        return str(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    # repr round-trips exactly, so identities like E = P * L survive the
    # text round trip at float precision
    return repr(x)


def _beta_spec(beta=None, beta_shift=None):
    """The decay factor of --beta or --beta-shift; DEFAULT_BETA if neither."""
    if beta is not None and beta_shift is not None:
        raise ValueError("give either a real decay factor or a shift amount")
    if beta_shift is not None:
        return BetaSpec.one_minus_pow2(beta_shift)
    if beta is not None:
        return BetaSpec.exact(beta)
    return DEFAULT_BETA


def make_config(mode, decay, io, reset="zero", beta=DEFAULT_BETA,
                threshold=DEFAULT_THRESHOLD, weights=None, n_channels=8,
                bias=None):
    """One neuron config; beta is a BetaSpec, and the weights default to
    default_weights(n_channels)."""
    if weights is None:
        weights = default_weights(n_channels)
    return neuron.NeuronConfig(
        n_inputs=n_channels,
        weights=weights,
        threshold=threshold,
        beta=beta,
        mode=mode,
        decay_impl=decay,
        io_mode=io,
        reset_mode=reset,
        bias=bias,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    if args.preset is not None:
        temporal, inp = stimulus.PRESETS[args.preset]
    else:
        if args.temporal is None or args.input is None:
            raise ValueError("need --preset or both --temporal and --input")
        temporal, inp = args.temporal, args.input
    profile = stimulus.DensityProfile(temporal, inp)
    train = stimulus.generate(profile, args.channels, args.steps, args.seed)
    meta = [
        f"generator={stimulus.RNG_ALGORITHM} seed={args.seed}",
        f"target temporal_density={fnum(temporal)} input_density={fnum(inp)}",
    ]
    stimulus.save(train, args.out, metadata=meta)
    measured = stimulus.measure_density(train)
    print(f"temporal_density={fnum(measured.temporal_density)} "
          f"input_density={fnum(measured.input_density)}")
    return 0


def cmd_characterize(args):
    measured = stimulus.measure_density(stimulus.load(args.train))
    print(f"temporal_density={fnum(measured.temporal_density)} "
          f"input_density={fnum(measured.input_density)}")
    return 0


def _load_model(args):
    if getattr(args, "model_config", None):
        return cost.load_model_config(args.model_config)
    return cost.DEFAULT_CYCLE_COSTS, cost.DEFAULT_ENERGY_WEIGHTS


def cmd_run(args, out=None):
    out = out or sys.stdout
    train = stimulus.load(args.train)
    weights = None
    if args.weights:
        weights = tuple(int(w) for w in args.weights.split(","))
    config = make_config(args.mode, args.decay, args.io, args.reset,
                         _beta_spec(args.beta, args.beta_shift),
                         args.threshold, weights, train.n_channels, args.bias)
    costs, eweights = _load_model(args)
    trace = neuron.run(config, train)
    metrics = cost.metrics_from_trace(trace, config, eweights, costs=costs)
    measured = stimulus.measure_density(train)
    out.write(CSV_COLUMNS + "\n")
    out.write(",".join([
        config.name, config.mode, config.decay_impl, config.io_mode,
        fnum(measured.temporal_density), fnum(measured.input_density),
        "-", "-",
        fnum(metrics.latency_cycles), fnum(metrics.energy_units),
        fnum(metrics.avg_power_units), "-", "-",
    ]) + "\n")
    if args.trace:
        out.write("trace_time,u_raw,fired\n")
        out.write(f"init,{config.u_init},0\n")
        for rec in trace.records:
            out.write(f"{rec.time},{rec.u},{int(rec.fired)}\n")
    return 0


def sweep_rows(temporal_list, input_list, n_channels, n_steps, trials,
               base_seed, costs=None, eweights=None,
               threshold=DEFAULT_THRESHOLD, weights=None, stats=None):
    """All per-trial and aggregate CSV rows for a sweep, config-major order.

    The aggregate rows hold the mean and the sample standard deviation
    (ddof=1; 0 for a single trial) over the trials of each grid point. If
    `stats` is a dict, it receives the wall time of each stage and the
    counts of trains, runs, events, neuron-steps and rows.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    costs = costs or cost.DEFAULT_CYCLE_COSTS
    eweights = eweights or cost.DEFAULT_ENERGY_WEIGHTS
    weights = weights or default_weights(n_channels)

    run_cfgs = [make_config(*key, threshold=threshold, weights=weights,
                            n_channels=n_channels) for key in ALL_CONFIGS]

    clock = time.perf_counter
    gen_s = sim_s = 0.0
    n_events = 0
    seeds = []
    # per run, grid point-, then trial-, then config-major: (latency (an
    # int), energy, power, ratio to each clock baseline)
    runs = []
    for ti, temporal in enumerate(temporal_list):
        for ii, inp in enumerate(input_list):
            profile = stimulus.DensityProfile(temporal, inp)
            for trial in range(trials):
                seed = derive_seed(base_seed, ti, ii, trial)
                seeds.append(seed)
                t0 = clock()
                train = stimulus.generate(profile, n_channels, n_steps, seed)
                t1 = clock()
                n_events += train.n_events
                priced = [cost.metrics_from_trace(neuron.run(cfg, train), cfg,
                                                  eweights, costs=costs)
                          for cfg in run_cfgs]
                # ALL_CONFIGS opens with the two clock baselines
                clk_mult, clk_shift = (m.latency_cycles for m in priced[:2])
                if not (clk_mult and clk_shift):
                    raise ValueError(
                        f"temporal density {fnum(temporal)}, input density "
                        f"{fnum(inp)}, trial {trial}: cannot normalize by a "
                        f"zero clock latency")
                for m in priced:
                    lat = m.latency_cycles
                    runs.append((lat, m.energy_units, m.avg_power_units,
                                 lat / clk_mult, lat / clk_shift))
                sim_s += clock() - t1
                gen_s += t1 - t0

    # vals[config, grid point, column, trial]. One reduction per statistic
    # over the contiguous trial axis sums each grid point's trials in the
    # same (pairwise) order as np.mean or np.std on that grid point alone,
    # so the bits do not change
    t0 = clock()
    n_c, n_grid = len(run_cfgs), len(temporal_list) * len(input_list)
    vals = np.ascontiguousarray(
        np.array(runs, dtype=np.float64)
        .reshape(n_grid, trials, n_c, 5).transpose(2, 0, 3, 1))
    means = np.mean(vals, axis=-1).tolist()
    stds = (np.std(vals, axis=-1, ddof=1) if trials > 1
            else np.zeros(vals.shape[:-1])).tolist()
    agg_s = clock() - t0

    t0 = clock()
    grid_cells = [[fnum(t), fnum(i)] for t in temporal_list for i in input_list]
    train_cells = [
        cells + [str(trial), str(seed)]
        for (cells, trial), seed in zip(
            itertools.product(grid_cells, range(trials)), seeds)
    ]
    rows = []
    prefixes = [[cfg.name, cfg.mode, cfg.decay_impl, cfg.io_mode]
                for cfg in run_cfgs]
    for ci, prefix in enumerate(prefixes):
        for k, cells in enumerate(train_cells):
            rows.append(prefix + cells + [fnum(v) for v in runs[k * n_c + ci]])
    for ci, prefix in enumerate(prefixes):
        for g, cells in enumerate(grid_cells):
            for label, agg in (("mean", means), ("std", stds)):
                rows.append(prefix + cells + [label, "-"]
                            + [fnum(v) for v in agg[ci][g]])
    fmt_s = clock() - t0

    if stats is not None:
        stats["stages_s"] = {"generate": gen_s, "simulate_price": sim_s,
                             "aggregate": agg_s, "format": fmt_s}
        stats["counts"] = {"trains": len(seeds), "runs": len(runs),
                           "events": n_events,
                           "neuron_steps": len(runs) * n_steps,
                           "rows": len(rows)}
    return rows


def cmd_sweep(args, out=None):
    out = out or sys.stdout
    temporal_list = (
        tuple(float(x) for x in args.temporal.split(","))
        if args.temporal else DEFAULT_SWEEP_TEMPORAL
    )
    input_list = (
        tuple(float(x) for x in args.input.split(","))
        if args.input else DEFAULT_SWEEP_INPUT
    )
    weights = None
    if args.weights:
        weights = tuple(int(w) for w in args.weights.split(","))
    costs, eweights = _load_model(args)
    stats = {} if args.stats else None
    rows = sweep_rows(temporal_list, input_list, args.channels, args.steps,
                      args.trials, args.seed, costs, eweights,
                      args.threshold, weights, stats)
    t0 = time.perf_counter()
    text = CSV_COLUMNS + "\n" + "".join(",".join(r) + "\n" for r in rows)
    if stats is not None:
        stats["stages_s"]["format"] += time.perf_counter() - t0
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        out.write(text)
    if stats is not None:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_lut(args, out=None):
    out = out or sys.stdout
    # a table depends only on the decay factor's value, not on its form
    spec = _beta_spec(args.beta, args.beta_shift)
    mode = LUT_EXACT if args.lut_mode == "exact" else LUT_POW2
    lut = build_decay_lut(spec, args.max_dt, mode,
                          QFormat(9, args.beta_frac), max_shift=8)
    out.write("dt,raw_or_shift\n")
    for dt, entry in enumerate(lut.entries):
        value = entry.raw if mode == LUT_EXACT else entry
        out.write(f"{dt},{value}\n")
    return 0


# ---------------------------------------------------------------------------
# verification (the oracle-equivalence suites)


def _verify_trains(rng, seed, stream, trials):
    """Yield (trial, train): the seeded 8 ch x 100-step trains of one check.

    A train's density profile takes two draws of `rng`, made when the train
    is asked for, so a check may draw each train's weights from `rng` too.
    """
    for trial in range(trials):
        profile = stimulus.DensityProfile(
            float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.13, 1.0)))
        yield trial, stimulus.generate(profile, 8, 100,
                                       derive_seed(seed, stream, trial))


def _verify_weights(rng):
    # one weight per channel of a _verify_trains train; magnitudes kept
    # small so per-step input sums stay below threshold; subtract-reset
    # would otherwise legitimately desynchronize the clock- and
    # event-driven models (see README)
    return tuple(int(w) for w in rng.integers(-12, 13, size=8))


def check_real_equivalence(trials, seed):
    """Real-arithmetic clock vs event membrane agreement at event instants.

    Returns (ok, counterexample, max relative error).
    """
    rng = np.random.default_rng(seed)
    betas = [BetaSpec.one_minus_pow2(1), BetaSpec.one_minus_pow2(4),
             BetaSpec.exact(0.9325)]
    max_err = 0.0
    for trial, train in _verify_trains(rng, seed, 1, trials):
        weights = _verify_weights(rng)
        beta = betas[trial % len(betas)]
        reset = "zero" if trial % 2 == 0 else "subtract"
        ct, et = (neuron.reference_run(
            make_config(mode, "mult", "serial", reset, beta, weights=weights,
                        n_channels=len(weights)),
            train) for mode in ("clock", "event"))
        for rec in et.records:
            cr = ct.records[rec.time]  # a clock trace records every step
            err = abs(rec.u - cr.u) / max(1.0, abs(rec.u), abs(cr.u))
            max_err = max(max_err, err)
            if err > 1e-9 or rec.fired != cr.fired:
                return False, (trial, rec.time), max_err
    return True, None, max_err


# the (decay factor, decay implementation) pairs that
# QUANT_DIVERGENCE_BOUND covers, in trial order
QUANT_DIVERGENCE_SPECS = (
    (BetaSpec.one_minus_pow2(1), "mult"),
    (BetaSpec.one_minus_pow2(1), "shift"),
    (BetaSpec.one_minus_pow2(4), "mult"),
    (BetaSpec.one_minus_pow2(4), "shift"),
)

# Empirically measured ceilings on |u_event - u_clock| (raw LSBs) at event
# instants, per (round(beta, 4), decay implementation), in the order of
# QUANT_DIVERGENCE_SPECS. Produced by scripts/measure_divergence_bound.py:
# exhaustive 2-channel short-pattern search plus large randomized
# 8-channel/100-step sweeps. Regenerate with that script whenever formats
# or engine semantics change.
QUANT_DIVERGENCE_BOUND = {
    (0.5, "mult"): 1,
    (0.5, "shift"): 99,
    (0.9375, "mult"): 99,
    (0.9375, "shift"): 237,
}


def divergence_configs(beta, impl, reset, weights):
    """The clock- and event-driven serial configs whose membranes the
    quantized-divergence check compares."""
    return tuple(make_config(mode, impl, "serial", reset, beta,
                             weights=weights, n_channels=len(weights))
                 for mode in ("clock", "event"))


def divergence(clock_cfg, event_cfg, train):
    """(t, |u_event - u_clock|) in raw LSBs at each record of the event
    engine: its update instants and the final flush."""
    clock = neuron.run(clock_cfg, train).records  # one record per timestep
    return [(rec.time, abs(rec.u - clock[rec.time].u))
            for rec in neuron.run(event_cfg, train).records]


def quantized_divergence_trials(trials, seed):
    """The seeded population of check_quantized_divergence.

    Yields (trial, (round(beta, 4), impl), clock_cfg, event_cfg, train);
    the key indexes QUANT_DIVERGENCE_BOUND.
    """
    rng = np.random.default_rng(seed)
    for trial, train in _verify_trains(rng, seed, 2, trials):
        weights = _verify_weights(rng)
        beta, impl = QUANT_DIVERGENCE_SPECS[trial % len(QUANT_DIVERGENCE_SPECS)]
        reset = "zero" if trial % 2 == 0 else "subtract"
        yield (trial, (round(beta.value, 4), impl),
               *divergence_configs(beta, impl, reset, weights), train)


def check_quantized_divergence(trials, seed, stats=None):
    """Quantized event vs clock divergence stays within the recorded bounds.

    Returns (ok, counterexample, max observed divergence in raw LSBs). If
    `stats` is a dict, it receives for each (round(beta, 4), impl) key a
    list [trials checked, max observed divergence]. The check stops at its
    first counterexample, so these then cover only the trials run, up to
    that step.
    """
    observed = {} if stats is None else stats
    cex = None
    for trial, key, clock_cfg, event_cfg, train in quantized_divergence_trials(
            trials, seed):
        bound = QUANT_DIVERGENCE_BOUND[key]
        seen = observed.setdefault(key, [0, 0])
        seen[0] += 1
        key_max = seen[1]
        for t, div in divergence(clock_cfg, event_cfg, train):
            key_max = max(key_max, div)
            if div > bound:
                cex = (trial, t)
                break
        seen[1] = key_max
        if cex is not None:
            break
    max_div = max((m for _, m in observed.values()), default=0)
    return cex is None, cex, max_div


def check_io_stability(trials, seed):
    """Event-serial and event-AER traces are bit-identical (fires and u)."""
    rng = np.random.default_rng(seed)
    beta = BetaSpec.one_minus_pow2(4)
    for trial, train in _verify_trains(rng, seed, 3, trials):
        weights = _verify_weights(rng)
        impl = "mult" if trial % 2 == 0 else "shift"
        st, at = (neuron.run(
            make_config("event", impl, io, "zero", beta, weights=weights,
                        n_channels=len(weights)), train)
            for io in ("serial", "aer"))
        if st.records != at.records:
            return False, (trial, None)
    return True, None


def check_round_trips(trials, seed):
    """Serial, AER and file encodings are exact identities."""
    rng = np.random.default_rng(seed)
    # a fresh file per trial, unlinked after its load: on ext4 that took
    # half the time of overwriting one file
    with tempfile.TemporaryDirectory() as tmp:
        for trial, train in _verify_trains(rng, seed, 4, trials):
            if stimulus.decode_serial(stimulus.encode_serial(train),
                                      train.n_channels) != train:
                return False, (trial, "serial")
            if stimulus.decode_aer(stimulus.encode_aer(train),
                                   train.n_channels, train.n_steps) != train:
                return False, (trial, "aer")
            path = os.path.join(tmp, f"{trial}.spk")
            stimulus.save(train, path)
            loaded = stimulus.load(path)
            os.unlink(path)
            if loaded != train:
                return False, (trial, "file")
    return True, None


def check_fire_boundary():
    """An exact-threshold hit must fire in every engine and the reference."""
    train = stimulus.SpikeTrain(1, 10, [(0, 0)])
    for mode, decay, io in ALL_CONFIGS:
        config = make_config(mode, decay, io, threshold=25, weights=(25,),
                             n_channels=1)
        if neuron.run(config, train).fire_times() != [0]:
            return False, (mode, decay, io)
        if neuron.reference_run(config, train).fire_times() != [0]:
            return False, (mode, decay, io, "reference")
    return True, None


def cmd_verify(args, out=None):
    out = out or sys.stdout
    trials, seed = args.trials, args.seed
    failures = []
    stages = {}
    divergence_stats = {}
    # (stage, check, report label, failure name, format of the check's
    # third result); built per call, so a wrapper installed on a check's
    # module name is the one that runs
    checks = (
        ("real_equivalence", lambda: check_real_equivalence(trials, seed),
         "real-arithmetic equivalence", "real-arithmetic equivalence",
         "max relative error {:.3e}"),
        ("quantized_divergence", lambda: check_quantized_divergence(
            trials, seed, stats=divergence_stats),
         "quantized divergence bound", "quantized divergence",
         "max observed divergence {} raw LSBs"),
        ("io_stability", lambda: check_io_stability(trials, seed),
         "serial/AER trace stability", "io stability", None),
        ("round_trips", lambda: check_round_trips(trials, seed),
         "encoding round-trips", "round-trips", None),
        ("fire_boundary", check_fire_boundary,
         "threshold boundary fires", "threshold boundary", None),
    )
    for stage, check, label, name, detail in checks:
        t0 = time.perf_counter()
        ok, cex, *value = check()
        stages[stage] = time.perf_counter() - t0
        line = f"{label + ':':28} {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail.format(*value)})"
        out.write(line + "\n")
        if not ok:
            failures.append((name, cex))
    for name, cex in failures:
        out.write(f"FAILED {name}: first counterexample (trial, step) = {cex}\n")
    if args.stats:
        stats = {
            "stages_s": stages,
            "quantized_divergence": [
                {"beta": beta, "impl": impl, "trials": n,
                 "max_divergence": m,
                 "bound": QUANT_DIVERGENCE_BOUND[(beta, impl)]}
                for (beta, impl), (n, m) in divergence_stats.items()],
        }
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lifsim",
        description="Bit-accurate simulator of six digital LIF neuron "
                    "hardware variants with latency/power/energy models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a spike-train file")
    p.add_argument("--preset", choices=sorted(stimulus.PRESETS))
    p.add_argument("--temporal", type=float)
    p.add_argument("--input", type=float)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("characterize", help="measure densities of a train file")
    p.add_argument("train")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("run", help="run one architecture over a train file")
    p.add_argument("train")
    p.add_argument("--mode", choices=("clock", "event"), default="clock")
    p.add_argument("--decay", choices=("mult", "shift"), default="mult")
    p.add_argument("--io", choices=("serial", "aer"), default="serial")
    p.add_argument("--reset", choices=("zero", "subtract"), default="zero")
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-shift", type=int)
    p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    p.add_argument("--weights", help="comma-separated raw weight values")
    p.add_argument("--bias", type=int)
    p.add_argument("--trace", action="store_true",
                   help="append per-step trace rows")
    p.add_argument("--model-config", help="cycle/energy parameter file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="density sweep over all six architectures")
    p.add_argument("--temporal", help="comma-separated temporal densities")
    p.add_argument("--input", help="comma-separated input densities")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--trials", type=positive_int, default=20,
                   help="trials per grid point, >= 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD)
    p.add_argument("--weights", help="comma-separated raw weight values")
    p.add_argument("--model-config", help="cycle/energy parameter file")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--stats", metavar="FILE",
                   help="write per-stage wall times and counts as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--trials", type=positive_int, default=200,
                   help="trials per randomized check, >= 1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", metavar="FILE",
                   help="write per-check wall times and the observed "
                        "divergence against each bound as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lut", help="dump a decay table as CSV")
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-shift", type=int)
    p.add_argument("--lut-mode", choices=("exact", "pow2"), default="exact")
    p.add_argument("--max-dt", type=int, default=127)
    p.add_argument("--beta-frac", type=int, default=8)
    p.set_defaults(func=cmd_lut)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "clock" and getattr(args, "io", None) == "aer":
        parser.error("clock-driven mode cannot use address-event input")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
