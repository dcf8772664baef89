import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lifsim import cli, cost, neuron, stimulus
from lifsim.cli import CSV_COLUMNS, derive_seed, fnum, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen / characterize ----------------------------------------------------


def test_gen_preset_nmnist(tmp_path, capsys):
    path = tmp_path / "n.spk"
    code, out, _ = run_cli(["gen", "--preset", "nmnist", "--steps", "100",
                            "--seed", "4", "--out", str(path)], capsys)
    assert code == 0
    train = stimulus.load(path)
    d = stimulus.measure_density(train)
    assert abs(d.temporal_density - 0.937) <= 0.06  # 100-step draw
    assert "temporal_density=" in out


def test_gen_empty_profile(tmp_path, capsys):
    path = tmp_path / "empty.spk"
    code, out, _ = run_cli(["gen", "--temporal", "0", "--input", "0",
                            "--out", str(path)], capsys)
    assert code == 0
    assert stimulus.load(path).events == set()


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.spk", tmp_path / "b.spk"
    argv = ["gen", "--temporal", "0.5", "--input", "0.5", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_input_just_above_inv_c(tmp_path, capsys):
    """0.125001 on 8 channels is above 1/8 by less than the solver can
    bracket; it takes single-channel mode instead of failing."""
    path = tmp_path / "t.spk"
    code, _, err = run_cli(["gen", "--temporal", "0.5", "--input",
                            "0.125001", "--out", str(path)], capsys)
    assert (code, err) == (0, "")
    train = stimulus.load(path)
    assert stimulus.measure_density(train).input_density == 1 / 8


def test_gen_requires_profile_or_preset(tmp_path, capsys):
    code, _, err = run_cli(["gen", "--out", str(tmp_path / "x.spk")], capsys)
    assert code == 1
    assert "error" in err


def test_characterize_matches_measure(tmp_path, capsys):
    path = tmp_path / "t.spk"
    train = stimulus.generate(stimulus.DensityProfile(0.5, 0.5), 8, 100, 1)
    stimulus.save(train, path)
    code, out, _ = run_cli(["characterize", str(path)], capsys)
    d = stimulus.measure_density(train)
    assert code == 0
    assert f"temporal_density={cli.fnum(d.temporal_density)}" in out
    assert f"input_density={cli.fnum(d.input_density)}" in out


def test_file_path_byte_anchor(tmp_path, capsys):
    """gen -> file -> characterize and run --trace. The file hashes and the
    reports were taken when `save` formatted one event at a time and
    `load` used np.loadtxt; the bulk codec must reproduce them exactly."""
    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    big, small = tmp_path / "big.spk", tmp_path / "small.spk"
    gen = ["gen", "--preset", "audiomnist", "--seed", "7"]
    big_density = "temporal_density=0.1643 input_density=0.7473828362751065\n"
    code, out, _ = run_cli(gen + ["--channels", "40", "--steps", "10000",
                                  "--out", str(big)], capsys)
    assert (code, out) == (0, big_density)
    assert sha256(big.read_bytes()) == \
        "4340d64a20797a2ddb506e4d5bd9b3f438126a093e7a6d9e39594262cb9a4db2"
    assert run_cli(["characterize", str(big)], capsys)[:2] == (0, big_density)

    code, out, _ = run_cli(gen + ["--channels", "8", "--steps", "100",
                                  "--out", str(small)], capsys)
    assert code == 0
    assert sha256(small.read_bytes()) == \
        "e3531805dde56bb1f32aef186169334fcc616a4d01ce32a867609f6ebe447031"
    assert run_cli(["characterize", str(small)], capsys)[:2] == \
        (0, "temporal_density=0.18 input_density=0.7083333333333334\n")
    code, out, _ = run_cli(["run", str(small), "--trace"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 104  # CSV header, row, trace header, 101
    assert sha256(out.encode()) == \
        "37049560ed02c3485d0bf735e8dddddddae46dc6ff943c517e62dcb9ef3f5bbd"


# --- run -------------------------------------------------------------------


def empty_train_file(tmp_path):
    path = tmp_path / "empty.spk"
    stimulus.save(stimulus.SpikeTrain(8, 100), path)
    return path


def test_run_empty_train_latency(tmp_path, capsys):
    path = empty_train_file(tmp_path)
    code, out, _ = run_cli(["run", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_COLUMNS
    row = lines[1].split(",")
    assert row[0] == "clock_mult_serial"
    assert row[8] == "200"  # latency_cycles


def test_run_clock_aer_is_usage_error(tmp_path, capsys):
    path = empty_train_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--mode", "clock", "--io", "aer"])
    assert exc.value.code == 2


def test_run_missing_file_is_runtime_error(capsys):
    code, _, err = run_cli(["run", "/nonexistent/train.spk"], capsys)
    assert code == 1
    assert "error" in err


def test_run_trace_row_count(tmp_path, capsys):
    path = tmp_path / "t.spk"
    stimulus.save(stimulus.generate(
        stimulus.DensityProfile(0.5, 0.5), 8, 40, 2), path)
    code, out, _ = run_cli(["run", str(path), "--trace"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    trace_start = lines.index("trace_time,u_raw,fired")
    assert len(lines) - trace_start - 1 == 41  # initial state + one per step


def test_run_with_model_config(tmp_path, capsys):
    path = empty_train_file(tmp_path)
    mc = tmp_path / "model.cfg"
    mc.write_text("clk_idle_step = 5\n")
    code, out, _ = run_cli(["run", str(path), "--model-config", str(mc)],
                           capsys)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[8] == "500"


# --- sweep -----------------------------------------------------------------


SMALL_SWEEP = ["sweep", "--temporal", "0.2,0.8", "--input", "0.5,1.0",
               "--trials", "2", "--seed", "3"]


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SMALL_SWEEP + ["--out", str(a)]) == 0
    assert main(SMALL_SWEEP + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.splitlines()[0] == CSV_COLUMNS


def test_sweep_row_structure(tmp_path):
    path = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()[1:]
    per_trial = [l for l in lines if l.split(",")[6] in ("0", "1")]
    aggregates = [l for l in lines if l.split(",")[6] in ("mean", "std")]
    # 6 configs x 2 temporal x 2 input x 2 trials
    assert len(per_trial) == 48
    assert len(aggregates) == 48  # mean + std per grid point
    configs = {l.split(",")[0] for l in per_trial}
    assert len(configs) == 6


def test_sweep_single_point_matches_run(tmp_path, capsys):
    # a one-point sweep must agree with cmd_run on the identically seeded train
    out_csv = tmp_path / "s.csv"
    assert main(["sweep", "--temporal", "0.5", "--input", "0.5",
                 "--trials", "1", "--seed", "11", "--out", str(out_csv)]) == 0
    seed = derive_seed(11, 0, 0, 0)
    train = stimulus.generate(stimulus.DensityProfile(0.5, 0.5), 8, 100, seed)
    train_file = tmp_path / "t.spk"
    stimulus.save(train, train_file)
    code, out, _ = run_cli(["run", str(train_file), "--mode", "event",
                            "--decay", "shift", "--io", "aer"], capsys)
    assert code == 0
    run_row = out.strip().splitlines()[1].split(",")
    sweep_row = next(
        l.split(",") for l in out_csv.read_text().splitlines()[1:]
        if l.startswith("event_shift_aer") and l.split(",")[6] == "0"
    )
    # latency, energy, power columns agree
    assert run_row[8:11] == sweep_row[8:11]


def test_sweep_with_model_config(tmp_path):
    mc = tmp_path / "model.cfg"
    mc.write_text("aer_per_packet = 5\nclock_full_scan = true\n")
    costs, _ = cost.load_model_config(mc)
    path = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--model-config", str(mc),
                               "--out", str(path)]) == 0
    configs = {cfg.name: cfg for cfg in
               (cli.make_config(*key) for key in cli.ALL_CONFIGS)}
    checked = set()
    for line in path.read_text().strip().splitlines()[1:]:
        f = line.split(",")
        if f[6] in ("mean", "std"):
            continue
        train = stimulus.generate(
            stimulus.DensityProfile(float(f[4]), float(f[5])), 8, 100,
            int(f[7]))
        assert int(f[8]) == cost.latency(configs[f[0]], train, costs)
        checked.add(f[0])
    assert checked == set(configs)


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_finite_energy_weight_is_named_error(value, command, tmp_path,
                                                 capsys):
    mc = tmp_path / "model.cfg"
    mc.write_text(f"e_add = 2\ne_mult = {value}\n")
    argv = ([command, str(empty_train_file(tmp_path))] if command == "run"
            else SMALL_SWEEP)
    code, out, err = run_cli(argv + ["--model-config", str(mc)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {mc}:2: bad value {value!r} for 'e_mult'\n"


def test_sweep_ratio_columns(tmp_path):
    path = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--out", str(path)]) == 0
    for line in path.read_text().strip().splitlines()[1:]:
        f = line.split(",")
        if f[0] == "clock_mult_serial" and f[6] == "0":
            assert float(f[11]) == 1.0  # its own baseline
        if f[0] == "clock_shift_serial" and f[6] == "0":
            assert float(f[12]) == 1.0


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_trial(trials, capsys):
    # verify too: with no trials its randomized checks would check nothing
    for command in ("sweep", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err
    with pytest.raises(ValueError, match="trials must be >= 1"):
        cli.sweep_rows((0.5,), (0.5,), 8, 100, int(trials), 0)


def test_sweep_zero_clock_latency_is_runtime_error(tmp_path, capsys):
    # an all-idle train costs the clock engines clk_idle_step per step
    mc = tmp_path / "model.cfg"
    mc.write_text("clk_idle_step = 0\n")
    code, out, err = run_cli(["sweep", "--temporal", "0", "--input", "0.5",
                              "--trials", "2", "--model-config", str(mc)],
                             capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "temporal density 0, input density 0.5, trial 0" in err
    assert "cannot normalize by a zero clock latency" in err


def test_sweep_stats_leave_csv_unchanged(tmp_path, capsys):
    plain, with_stats = tmp_path / "a.csv", tmp_path / "b.csv"
    stats_path = tmp_path / "stats.json"
    assert main(SMALL_SWEEP + ["--out", str(plain)]) == 0
    assert main(SMALL_SWEEP + ["--out", str(with_stats),
                               "--stats", str(stats_path)]) == 0
    assert plain.read_bytes() == with_stats.read_bytes()
    capsys.readouterr()
    code, out, _ = run_cli(SMALL_SWEEP + ["--stats", str(stats_path)], capsys)
    assert code == 0
    assert out == plain.read_text()

    stats = json.loads(stats_path.read_text())
    assert set(stats["stages_s"]) == {"generate", "simulate_price",
                                      "aggregate", "format"}
    assert all(s >= 0 for s in stats["stages_s"].values())
    events = sum(
        stimulus.generate(stimulus.DensityProfile(t, i), 8, 100,
                          derive_seed(3, ti, ii, trial)).n_events
        for ti, t in enumerate((0.2, 0.8)) for ii, i in enumerate((0.5, 1.0))
        for trial in range(2))
    assert stats["counts"] == {"trains": 8, "runs": 48, "events": events,
                               "neuron_steps": 4800, "rows": 96}


def reference_sweep_rows(temporal_list, input_list, n_channels, n_steps,
                         trials, base_seed, costs, eweights):
    """The sweep as a loop over grid points: one np.mean and one
    np.std(ddof=1) per column per grid point."""
    configs = {key: cli.make_config(*key, n_channels=n_channels)
               for key in cli.ALL_CONFIGS}
    results = {key: {} for key in cli.ALL_CONFIGS}
    for ti, temporal in enumerate(temporal_list):
        for ii, inp in enumerate(input_list):
            for trial in range(trials):
                seed = derive_seed(base_seed, ti, ii, trial)
                train = stimulus.generate(
                    stimulus.DensityProfile(temporal, inp),
                    n_channels, n_steps, seed)
                clk_mult = cost.latency(
                    configs[("clock", "mult", "serial")], train, costs)
                clk_shift = cost.latency(
                    configs[("clock", "shift", "serial")], train, costs)
                for key, c in configs.items():
                    m = cost.metrics_from_trace(neuron.run(c, train), c,
                                                eweights, costs=costs)
                    results[key][(ti, ii, trial)] = (
                        m.latency_cycles, m.energy_units, m.avg_power_units,
                        m.latency_cycles / clk_mult,
                        m.latency_cycles / clk_shift, seed)
    rows = []
    for key, c in configs.items():
        prefix = [c.name, c.mode, c.decay_impl, c.io_mode]
        for ti, temporal in enumerate(temporal_list):
            for ii, inp in enumerate(input_list):
                for trial in range(trials):
                    *vals, seed = results[key][(ti, ii, trial)]
                    rows.append(prefix + [fnum(temporal), fnum(inp),
                                          str(trial), str(seed)]
                                + [fnum(v) for v in vals])
    for key, c in configs.items():
        prefix = [c.name, c.mode, c.decay_impl, c.io_mode]
        for ti, temporal in enumerate(temporal_list):
            for ii, inp in enumerate(input_list):
                cols = list(zip(*[results[key][(ti, ii, trial)][:5]
                                  for trial in range(trials)]))
                means = [float(np.mean(col)) for col in cols]
                stds = [float(np.std(col, ddof=1)) if trials > 1 else 0.0
                        for col in cols]
                for label, vals in (("mean", means), ("std", stds)):
                    rows.append(prefix + [fnum(temporal), fnum(inp), label,
                                          "-"] + [fnum(v) for v in vals])
    return rows


# clock costs stay positive: a zero clock latency is an error, not a ratio
cycle_costs = st.builds(
    cost.CycleCosts,
    **{f.name: st.integers(1 if f.name.startswith("clk") else 0, 9)
       for f in fields(cost.CycleCosts) if f.type is int},
    clock_full_scan=st.booleans())
energy_weights = st.builds(
    cost.EnergyWeights,
    **{f.name: st.floats(0, 50) for f in fields(cost.EnergyWeights)})


@settings(max_examples=40, deadline=None)
@given(temporal=st.lists(st.floats(0, 1), min_size=1, max_size=3),
       inputs=st.lists(st.floats(0.05, 1), min_size=1, max_size=2),
       n_channels=st.integers(1, 8), n_steps=st.integers(1, 40),
       trials=st.sampled_from([1, 2, 7, 8, 9, 20, 33]) | st.integers(1, 33),
       seed=st.integers(0, 2**32 - 1),
       model=st.none() | st.tuples(cycle_costs, energy_weights))
def test_sweep_rows_match_per_point_reference(temporal, inputs, n_channels,
                                              n_steps, trials, seed, model):
    costs, eweights = model or (cost.DEFAULT_CYCLE_COSTS,
                                cost.DEFAULT_ENERGY_WEIGHTS)
    assert cli.sweep_rows(temporal, inputs, n_channels, n_steps, trials, seed,
                          costs=costs, eweights=eweights) == \
        reference_sweep_rows(temporal, inputs, n_channels, n_steps, trials,
                             seed, costs, eweights)


# --- verify / lut ----------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--trials", "40", "--seed", "1"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    assert "max observed divergence" in out


@pytest.mark.parametrize("seed,trials,code", [(0, 12, 0), (56, 200, 1)])
def test_verify_stats_leave_output_unchanged(seed, trials, code, tmp_path,
                                             capsys):
    # at seed 56 the divergence check stops at trial 91, so each key's
    # figures cover the 92 trials run: 23 per key
    argv = ["verify", "--trials", str(trials), "--seed", str(seed)]
    stats_path = tmp_path / "stats.json"
    plain = run_cli(argv, capsys)
    with_stats = run_cli(argv + ["--stats", str(stats_path)], capsys)
    assert plain == with_stats
    assert plain[0] == code

    stats = json.loads(stats_path.read_text())
    assert list(stats["stages_s"]) == ["real_equivalence",
                                       "quantized_divergence", "io_stability",
                                       "round_trips", "fire_boundary"]
    assert all(s >= 0 for s in stats["stages_s"].values())
    keys = [(round(beta.value, 4), impl)
            for beta, impl in cli.QUANT_DIVERGENCE_SPECS]
    per_key = stats["quantized_divergence"]
    assert [(k["beta"], k["impl"]) for k in per_key] == keys
    assert all(k["bound"] == cli.QUANT_DIVERGENCE_BOUND[key]
               for k, key in zip(per_key, keys))
    n_run = trials if code == 0 else 92
    assert [k["trials"] for k in per_key] == [n_run // 4] * 4
    observed = max(k["max_divergence"] for k in per_key)
    assert f"(max observed divergence {observed} raw LSBs)" in plain[1]
    over = [k for k in per_key if k["max_divergence"] > k["bound"]]
    if code == 0:
        assert over == []
    else:
        assert over == [{"beta": 0.9375, "impl": "shift", "trials": 23,
                         "max_divergence": 238, "bound": 237}]


# (seed, exit code, sha256 of stdout, per-key (beta, impl, trials, max
# divergence, bound) of --stats) of `verify --trials 200`, recorded before
# the checks shared one trial generator and one report loop
VERIFY_ANCHORS = [
    (0, 0, "ee97007cec4713cc6b3d49a9ac190eddb9faca5de46eb474c5a54fd8fb5025c4",
     [(0.5, "mult", 50, 1, 1), (0.5, "shift", 50, 1, 99),
      (0.9375, "mult", 50, 14, 99), (0.9375, "shift", 50, 215, 237)]),
    (7, 0, "508adb6c4a7bb7b346e8da6c3e1c34b3ca24d35ac70ba8acb33839905749f4f8",
     [(0.5, "mult", 50, 1, 1), (0.5, "shift", 50, 1, 99),
      (0.9375, "mult", 50, 99, 99), (0.9375, "shift", 50, 224, 237)]),
    (56, 1, "e2543bf071339100ede091f3d506801f536e74075983772b895b8151608cbf66",
     [(0.5, "mult", 23, 1, 1), (0.5, "shift", 23, 1, 99),
      (0.9375, "mult", 23, 99, 99), (0.9375, "shift", 23, 238, 237)]),
]


@pytest.mark.parametrize("seed,code,digest,per_key", VERIFY_ANCHORS)
def test_verify_byte_anchor(seed, code, digest, per_key, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    got, out, _ = run_cli(["verify", "--trials", "200", "--seed", str(seed),
                           "--stats", str(stats_path)], capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    stats = json.loads(stats_path.read_text())
    assert list(stats) == ["stages_s", "quantized_divergence"]
    assert list(stats["stages_s"]) == ["real_equivalence",
                                       "quantized_divergence", "io_stability",
                                       "round_trips", "fire_boundary"]
    fields = ("beta", "impl", "trials", "max_divergence", "bound")
    assert stats["quantized_divergence"] == [dict(zip(fields, k))
                                             for k in per_key]


def test_divergence_specs_match_bound_keys():
    assert [(round(beta.value, 4), impl)
            for beta, impl in cli.QUANT_DIVERGENCE_SPECS] == \
        list(cli.QUANT_DIVERGENCE_BOUND)


def test_verify_catches_strict_threshold_mutation(capsys, monkeypatch):
    # the raw fire/reset helper inside the kernel that run() executes
    original = neuron._fire_reset

    def strict(u, threshold, subtract):
        if u == threshold:  # mutate >= into >
            return False, u
        return original(u, threshold, subtract)

    monkeypatch.setattr(neuron, "_fire_reset", strict)
    code, out, _ = run_cli(["verify", "--trials", "4", "--seed", "1"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_lut_dump(capsys):
    code, out, _ = run_cli(["lut", "--beta-shift", "1", "--lut-mode", "exact",
                            "--max-dt", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dt,raw_or_shift"
    assert lines[1] == "0,255"
    assert lines[2] == "1,128"
    assert len(lines) == 10


def test_lut_rejects_both_decay_forms(capsys):
    # run rejects the same pair; lut used to drop --beta silently
    code, out, err = run_cli(["lut", "--beta", "0.9", "--beta-shift", "2"],
                             capsys)
    assert code == 1
    assert out == ""
    assert "give either a real decay factor or a shift amount" in err


def test_lut_dump_pow2(capsys):
    code, out, _ = run_cli(["lut", "--beta", "0.9375", "--lut-mode", "pow2",
                            "--max-dt", "6"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,1"
