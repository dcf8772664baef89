import hashlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lifsim import cli, cost, neuron, stimulus
from lifsim.cli import CSV_COLUMNS, derive_seed, fnum, main
from lifsim.fxp import BetaSpec


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen / characterize ----------------------------------------------------


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 9 ms to import; the seeded commands load it
    # on first use
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, lifsim.cli; print('numpy.random' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True)
    assert probe.stdout == "False\n"


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


def test_gen_unknown_preset_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--preset", "cifar", "--out", str(tmp_path / "x.spk")])
    assert exc.value.code == 2
    assert "--preset" in capsys.readouterr().err
    assert not (tmp_path / "x.spk").exists()


def test_gen_requires_profile_or_preset(tmp_path, capsys):
    code, _, err = run_cli(["gen", "--out", str(tmp_path / "x.spk")], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("densities", [["--temporal", "0.1", "--input", "0.2"],
                                       ["--temporal", "0.1"],
                                       ["--input", "0.2"]])
def test_gen_rejects_preset_with_densities(densities, tmp_path, capsys):
    # a preset sets both densities, so any density beside it conflicts
    path = tmp_path / "x.spk"
    code, out, err = run_cli(["gen", "--preset", "nmnist", *densities,
                              "--out", str(path)], capsys)
    assert (code, out) == (1, "")
    assert "give either a preset or the --temporal and --input densities" \
        in err
    assert not path.exists()


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


def saved_train(tmp_path, n_channels=8):
    path = tmp_path / "t.spk"
    train = stimulus.generate(stimulus.DensityProfile(0.7, 0.6), n_channels,
                              100, 5)
    stimulus.save(train, path)
    return path, train


def test_run_weights_set_the_engine_weights(tmp_path, capsys):
    path, train = saved_train(tmp_path)
    weights = (31, 30, -32, 29, 0, 28, -9, 27)
    for mode, decay, io in cli.ALL_CONFIGS:
        code, out, err = run_cli(
            ["run", str(path), "--trace", "--mode", mode, "--decay", decay,
             "--io", io, "--weights", ",".join(map(str, weights))], capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        records = neuron.run(cli.make_config(mode, decay, io, weights=weights),
                             train).records
        assert any(r.fired for r in records)
        assert lines[lines.index("trace_time,u_raw,fired") + 2:] == [
            f"{r.time},{r.u},{int(r.fired)}" for r in records]


def test_run_weights_starting_negative_take_the_equals_form(tmp_path,
                                                           capsys):
    # argparse reads a separate "-12,..." as an option, so a list that starts
    # with a negative value is given as --weights=-12,...
    path, train = saved_train(tmp_path)
    weights = "-12,11,-3,4,0,9,-7,12"
    code, out, err = run_cli(["run", str(path), "--trace",
                              f"--weights={weights}"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    config = cli.make_config("clock", "mult", "serial",
                             weights=[int(w) for w in weights.split(",")])
    assert lines[lines.index("trace_time,u_raw,fired") + 2:] == [
        f"{r.time},{r.u},{int(r.fired)}"
        for r in neuron.run(config, train).records]
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--weights", weights])
    assert exc.value.code == 2
    assert "--weights: expected one argument" in capsys.readouterr().err


def test_run_weights_must_cover_every_channel(tmp_path, capsys):
    path, _ = saved_train(tmp_path)
    code, out, err = run_cli(["run", str(path), "--weights", "1,2,3"], capsys)
    assert (code, out) == (1, "")
    assert "train has 8 channels, config expects 3" in err


# an empty list is an error, not a request for the option's default
@pytest.mark.parametrize("argv,option", [
    (["sweep", "--temporal", "", "--input", "0.5"], "--temporal"),
    (["sweep", "--temporal", "0.5", "--input", ""], "--input"),
    (["run", "TRAIN", "--weights", ""], "--weights"),
], ids=["sweep-temporal", "sweep-input", "run-weights"])
def test_empty_list_option_is_an_error(argv, option, tmp_path, capsys):
    path, _ = saved_train(tmp_path, n_channels=2)
    out_csv = tmp_path / "s.csv"
    if argv[0] == "sweep":
        argv = argv + ["--trials", "1", "--steps", "10", "--channels", "2",
                       "--out", str(out_csv)]
    argv = [str(path) if a == "TRAIN" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert f"{option} takes comma-separated" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv,option", [
    (["sweep", "--temporal", "0.2,,0.5"], "--temporal"),
    (["sweep", "--input", "0.5,x"], "--input"),
    (["run", "TRAIN", "--weights", "1,2.5"], "--weights"),
], ids=["sweep-temporal", "sweep-input", "run-weights"])
def test_malformed_list_option_is_named(argv, option, tmp_path, capsys):
    path, _ = saved_train(tmp_path, n_channels=2)
    argv = [str(path) if a == "TRAIN" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert f"{option} takes comma-separated" in err


# --- sweep -----------------------------------------------------------------


@st.composite
def seed_lanes(draw):
    """(base, index columns): 1-3 equal-length columns of 1-300 lanes."""
    base = draw(st.integers(0, 2**130 - 1))
    n_cols = draw(st.integers(1, 3))
    lanes = draw(st.integers(1, 300))
    index = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
    cols = draw(st.lists(st.lists(index, min_size=lanes, max_size=lanes),
                         min_size=n_cols, max_size=n_cols))
    return base, cols


@settings(max_examples=150, deadline=None)
@given(case=seed_lanes())
# a base of 1, 2, 3 and 5 words: entropy of 2 to 8 words, each side of
# SeedSequence's 4-word pool
@example(case=(0, [[0, 2**32 - 1]]))
@example(case=(2**32, [[2**32 - 1], [0]]))
@example(case=(2**64 - 1, [[7], [0], [2**32 - 1]]))
@example(case=(2**130 - 1, [[0, 1], [2**32 - 1, 5], [3, 0]]))
def test_derive_seeds_match_derive_seed(case):
    base, cols = case
    got = cli.derive_seeds(base, *cols)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(base, *lane) for lane in zip(*cols)]


@pytest.mark.parametrize("base,cols,message", [
    (-1, [[0]], "expected non-negative integer"),
    (0, [[-1]], r"indices must be in \[0, 2\*\*32\)"),
    (0, [[2**32]], r"indices must be in \[0, 2\*\*32\)"),
    (0, [[0, 1], [0]], "equal-length integer sequences"),
    (0, [[0.5]], "equal-length integer sequences"),
])
def test_derive_seeds_rejects_bad_input(base, cols, message):
    with pytest.raises(ValueError, match=message):
        cli.derive_seeds(base, *cols)


@pytest.mark.parametrize("argv", [
    ["sweep", "--temporal", "0.5", "--input", "0.5", "--trials", "1"],
    ["verify", "--trials", "2"],
])
def test_negative_seed_is_runtime_error(argv, tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_path)]
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: expected non-negative "
                                       "integer\n")
    assert not out_path.exists()


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 2**130 - 1])
def test_sweep_multi_word_seed_matches_derive_seed(seed, tmp_path):
    path = tmp_path / "s.csv"
    assert main(["sweep", "--temporal", "0.3,0.9", "--input", "0.5",
                 "--trials", "3", "--seed", str(seed),
                 "--out", str(path)]) == 0
    rows = reference_sweep_rows((0.3, 0.9), (0.5,), 8, 100, 3, seed,
                                cost.DEFAULT_CYCLE_COSTS,
                                cost.DEFAULT_ENERGY_WEIGHTS)
    assert path.read_text() == CSV_COLUMNS + "\n" + "".join(
        ",".join(r) + "\n" for r in rows)


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
        # run_cost gives both clock baselines the same cycles
        assert f[11] == f[12]
        if f[6] in ("mean", "std"):
            continue
        train = stimulus.generate(
            stimulus.DensityProfile(float(f[4]), float(f[5])), 8, 100,
            int(f[7]))
        assert int(f[8]) == cost.latency(configs[f[0]], train, costs)
        checked.add(f[0])
    assert checked == set(configs)


def test_sweep_prices_cost_constants_past_int64_exactly(tmp_path):
    # fixed-width arithmetic would wrap these latencies past int64 and
    # round ratios of ints past 2**53; each run's row must equal pricing
    # that run alone with Python ints
    mc = tmp_path / "model.cfg"
    mc.write_text("clk_idle_step = 9007199254740993\n"
                  "evt_per_input_scan = 100000000000000000000\n"
                  "aer_per_packet = 100000000000000000\n")
    costs, eweights = cost.load_model_config(mc)
    path = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--model-config", str(mc),
                               "--out", str(path)]) == 0
    per_run = [line.split(",") for line in path.read_text().splitlines()[1:]
               if line.split(",")[6] not in ("mean", "std")]
    expect = [row for row in reference_sweep_rows(
        (0.2, 0.8), (0.5, 1.0), 8, 100, 2, 3, costs, eweights)
        if row[6] not in ("mean", "std")]
    assert per_run == expect
    assert max(int(row[8]) for row in per_run) > 2**63


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


@pytest.mark.parametrize("key,value", [("clk_idle_step", "-1"),
                                       ("e_mult", "-2")])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_model_constant_is_named_error(key, value, command, tmp_path,
                                                capsys):
    mc = tmp_path / "model.cfg"
    mc.write_text(f"e_add = 2\n{key} = {value}\n")
    argv = ([command, str(empty_train_file(tmp_path))] if command == "run"
            else SMALL_SWEEP)
    code, out, err = run_cli(argv + ["--model-config", str(mc)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {mc}:2: bad value {value!r} for {key!r}\n"


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


@pytest.mark.parametrize("steps", [129, 200])
def test_sweep_steps_beyond_the_time_counter(steps, tmp_path, capsys):
    # the sweep runs each train through the engines, whose 7-bit time
    # counter takes at most 128 steps; it stops before writing anything
    out_csv = tmp_path / "s.csv"
    code, out, err = run_cli(["sweep", "--steps", str(steps), "--trials", "1",
                              "--temporal", "0.5", "--input", "0.5",
                              "--out", str(out_csv)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: train length {steps} exceeds the 7-bit time "
                   f"counter\n")
    assert not out_csv.exists()
    assert main(["sweep", "--steps", "128", "--trials", "1", "--temporal",
                 "0.5", "--input", "0.5", "--out", str(out_csv)]) == 0


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


def test_sweep_stats_charge_seeding_to_generate(tmp_path, monkeypatch):
    # a seeding step of at least 50 ms must show in the generate stage
    def slow(*args):
        time.sleep(0.05)
        return derive_seeds(*args)

    derive_seeds = cli.derive_seeds
    monkeypatch.setattr(cli, "derive_seeds", slow)
    stats_path = tmp_path / "stats.json"
    assert main(SMALL_SWEEP + ["--out", str(tmp_path / "s.csv"),
                               "--stats", str(stats_path)]) == 0
    stages = json.loads(stats_path.read_text())["stages_s"]
    assert stages["generate"] >= 0.05


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
    per_key = stats["quantized_divergence"]
    assert [(k["beta"], k["impl"], k["bound"]) for k in per_key] == \
        [(round(beta.value, 4), impl, bound)
         for beta, impl, bound in cli.QUANT_DIVERGENCE]
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
    # multi-word seeds, recorded while every train hashed its own seed
    # through SeedSequence: 3 words, and 5, so a train's seed takes 7
    (2**64 + 5, 0,
     "e049361117c1e60ce4e34f2c39aecaa007ef412473fdec6131f46ff9a0541e69",
     [(0.5, "mult", 50, 1, 1), (0.5, "shift", 50, 1, 99),
      (0.9375, "mult", 50, 99, 99), (0.9375, "shift", 50, 202, 237)]),
    (2**128 + 1, 0,
     "2083c5192b0e5072f83ef11576f339fba4383821ad257cf7d91003c275277567",
     [(0.5, "mult", 50, 1, 1), (0.5, "shift", 50, 1, 99),
      (0.9375, "mult", 50, 97, 99), (0.9375, "shift", 50, 223, 237)]),
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


def test_verify_engine_calls(capsys, monkeypatch):
    # every check reaches the engines through the neuron module's names, so
    # wrappers installed there see each call: per trial, two run calls for
    # the divergence and two for the io check, two reference_run calls for
    # the real-arithmetic check, and six of each for the boundary check
    calls = {"run": 0, "reference_run": 0}

    def counting(name, engine):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return engine(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(neuron, name, counting(name, getattr(neuron, name)))
    code, _, _ = run_cli(["verify", "--trials", "4", "--seed", "1"], capsys)
    assert code == 0
    assert calls == {"run": 22, "reference_run": 14}


def test_verify_catches_strict_threshold_mutation(capsys, monkeypatch):
    # recompile the kernel that run(), clock_step and event_step execute,
    # with its threshold check mutated from >= into >
    source = inspect.getsource(neuron._scan)
    check = "if u >= threshold:"
    assert source.count(check) == 1
    namespace = dict(vars(neuron))
    exec(compile(source.replace(check, "if u > threshold:"), neuron.__file__,
                 "exec"), namespace)
    monkeypatch.setattr(neuron, "_scan", namespace["_scan"])
    code, out, _ = run_cli(["verify", "--trials", "4", "--seed", "1"], capsys)
    assert code == 1
    assert "FAIL" in out


# the real-arithmetic and divergence checks as per-record loops, as they
# were before they compared numpy columns. They reach the engines through
# the neuron module's names, as the checks do, so a patched engine reaches
# both


def loop_aligned_records(engine, clock_cfg, event_cfg, train):
    clock = engine(clock_cfg, train)
    event = engine(event_cfg, train)
    times = event.times
    split = set(event.fire_times()).symmetric_difference(clock.fire_times())
    return (times, event.u, list(map(clock.u.__getitem__, times)),
            split.intersection(times))


def loop_real_equivalence(trials, seed):
    rng = np.random.default_rng(seed)
    betas = [BetaSpec.one_minus_pow2(1), BetaSpec.one_minus_pow2(4),
             BetaSpec.exact(0.9325)]
    max_err = 0.0
    for trial, train in cli._verify_trains(rng, seed, 1, trials):
        weights = cli._verify_weights(rng)
        beta = betas[trial % len(betas)]
        reset = "zero" if trial % 2 == 0 else "subtract"
        times, event_u, clock_u, split = loop_aligned_records(
            neuron.reference_run,
            *cli.clock_event_configs(beta, "mult", reset, weights), train)
        for t, eu, cu in zip(times, event_u, clock_u):
            err = abs(eu - cu) / max(1.0, abs(eu), abs(cu))
            max_err = max(max_err, err)
            if err > 1e-9 or t in split:
                return False, (trial, t), max_err
    return True, None, max_err


def loop_quantized_divergence(trials, seed, stats):
    entries = {row: {"beta": round(row[0].value, 4), "impl": row[1],
                     "trials": 0, "max_divergence": 0, "bound": row[2]}
               for row in cli.QUANT_DIVERGENCE}
    cex = None
    for trial, row, clock_cfg, event_cfg, train in \
            cli.quantized_divergence_trials(trials, seed):
        entry = entries[row]
        entry["trials"] += 1
        times, event_u, clock_u, _ = loop_aligned_records(
            neuron.run, clock_cfg, event_cfg, train)
        for t, eu, cu in zip(times, event_u, clock_u):
            div = abs(eu - cu)
            entry["max_divergence"] = max(entry["max_divergence"], div)
            if div > row[2]:
                cex = (trial, t)
                break
        if cex is not None:
            break
    reached = [e for e in entries.values() if e["trials"]]
    stats.extend(reached)
    return (cex is None, cex,
            max((e["max_divergence"] for e in reached), default=0))


def assert_same_results(check, loop, *args):
    """check and loop return the same (ok, counterexample, maximum), of
    the same types, and fill the same stats if they take them."""
    if loop is loop_quantized_divergence:
        got_stats, want_stats = [], []
        got = check(*args, stats=got_stats)
        want = loop(*args, want_stats)
        assert json.dumps(got_stats) == json.dumps(want_stats)
    else:
        got, want = check(*args), loop(*args)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    if got[1] is not None:
        assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
    return got


@pytest.mark.parametrize("seed,trials", [(0, 60), (7, 60), (56, 100)])
def test_checks_match_per_record_loops(seed, trials):
    # at seed 56 the divergence check fails at trial 91, step 95
    assert_same_results(cli.check_real_equivalence, loop_real_equivalence,
                        trials, seed)
    ok, cex, _ = assert_same_results(cli.check_quantized_divergence,
                                     loop_quantized_divergence, trials, seed)
    assert (ok, cex) == ((False, (91, 95)) if seed == 56 else (True, None))


def patched_event_trace(trace, first, later):
    """The trace with its membrane at the middle update changed by
    first(u) and at every update after it by later(u)."""
    mid = len(trace.u) // 2
    u = [*trace.u[:mid], first(trace.u[mid]), *map(later, trace.u[mid + 1:])]
    return neuron.Trace(trace.times, u, trace.fires, trace.n_steps,
                        trace.n_active_steps, trace.n_events), mid


@pytest.mark.parametrize("fault", ["split", "error"])
def test_real_equivalence_stops_at_the_first_failing_update(fault,
                                                            monkeypatch):
    # every event-driven reference trace fails at its middle update: its
    # fire there and at each later update is added or dropped (split), or
    # its membrane is off by 1e-6 (error); each later update is off by
    # 1e-10, below the check's 1e-9, so a maximum taken past the failing
    # update would be larger
    engine = neuron.reference_run
    failing = []

    def patched(config, train):
        trace = engine(config, train)
        if config.mode == "clock":
            return trace
        trace, mid = patched_event_trace(
            trace, (lambda u: u) if fault == "split" else (
                lambda u: u + 1e-6 * max(1.0, abs(u))),
            lambda u: u + 1e-10 * max(1.0, abs(u)))
        if fault == "split":
            trace.fires = sorted(set(trace.fires).symmetric_difference(
                range(mid, len(trace.u))))
        failing.append(trace.times[mid])
        return trace

    monkeypatch.setattr(neuron, "reference_run", patched)
    ok, cex, max_err = assert_same_results(
        cli.check_real_equivalence, loop_real_equivalence, 3, 0)
    assert (ok, cex) == (False, (0, failing[0]))
    assert max_err < 1e-11 if fault == "split" else 1e-7 < max_err < 1e-5


def test_divergence_stops_at_the_first_failing_update(monkeypatch):
    # every event-driven trace is 1000 LSBs off at its middle update and
    # 2000 at each later one. Two 9-bit membranes differ by at most 511,
    # so a maximum taken past the failing update would be at least 1489
    engine = neuron.run
    failing = []

    def patched(config, train):
        trace = engine(config, train)
        if config.mode == "clock":
            return trace
        trace, mid = patched_event_trace(trace, lambda u: u + 1000,
                                         lambda u: u + 2000)
        failing.append(trace.times[mid])
        return trace

    monkeypatch.setattr(neuron, "run", patched)
    ok, cex, maximum = assert_same_results(
        cli.check_quantized_divergence, loop_quantized_divergence, 3, 0)
    assert (ok, cex) == (False, (0, failing[0]))
    assert 1000 - 511 <= maximum < 2000 - 511


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


def test_lut_names_a_shift_below_one(capsys):
    # --beta-shift 0 is a factor of 1 - 2**0 = 0; the error names the shift
    code, out, err = run_cli(["lut", "--beta-shift", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: shift amount must be >= 1, got 0\n"


def test_run_names_a_negative_shift(tmp_path, capsys):
    path = empty_train_file(tmp_path)
    code, out, err = run_cli(["run", str(path), "--beta-shift", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: shift amount must be >= 1, got -1\n"


def test_lut_dump_pow2(capsys):
    code, out, _ = run_cli(["lut", "--beta", "0.9375", "--lut-mode", "pow2",
                            "--max-dt", "6"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,1"


@pytest.mark.parametrize("lut_mode,decay", [("exact", "mult"),
                                            ("pow2", "shift")])
@pytest.mark.parametrize("beta_args,beta", [
    ([], BetaSpec.one_minus_pow2(1)),
    (["--beta", "0.9"], BetaSpec.exact(0.9)),
    (["--beta-shift", "1"], BetaSpec.one_minus_pow2(1)),
    (["--beta-shift", "4"], BetaSpec.one_minus_pow2(4)),
])
def test_lut_prints_the_engine_table(beta_args, beta, lut_mode, decay, capsys):
    code, out, err = run_cli(["lut", *beta_args, "--lut-mode", lut_mode],
                             capsys)
    assert (code, err) == (0, "")
    lut = neuron.NeuronConfig(weights=(1,), threshold=1, beta=beta,
                              mode="event", decay_impl=decay).lut
    assert len(lut.entries) == neuron.MAX_DT + 1 == 128
    assert out.splitlines() == ["dt,raw_or_shift"] + [
        f"{dt},{entry}" for dt, entry in enumerate(lut.entries)]


@pytest.mark.parametrize("max_dt", ["0", "128"])
def test_lut_max_dt_beyond_the_counter_is_usage_error(max_dt, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lut", "--max-dt", max_dt])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--max-dt" in captured.err


# (argv, sha256 of stdout). TRAIN stands for the 8-channel file of
# test_file_path_byte_anchor. Recorded while DecayLUT still stored exact
# factors as QValues and NeuronConfig still carried a wrap flag. The
# `lut --beta 0.75` case replaced a Q1.6 `--beta-frac 6` case when lut lost
# that flag; its digest was recorded before, at the default Q1.8.
RUN_TRACE_VARIANTS = [[], ["--bias", "4", "--reset", "subtract",
                           "--beta-shift", "4"]]
LUT_TRACE_ANCHORS = [
    (["lut"],
     "a4d1c13a17a2ad8fd5458cd364f83083965611c2d0339d5b4ba3f1a7be25b71f"),
    (["lut", "--lut-mode", "pow2"],
     "a38c0722e4724bddf80d6ceb7b823bcb0c9f0a07c4832449de27bec9cb7721ef"),
    (["lut", "--beta", "0.9"],
     "e9b7b6d543495eede11837256b8a6ffcacab938b2a0c95ee35440bbc0ba1bf89"),
    (["lut", "--beta-shift", "4", "--lut-mode", "pow2"],
     "9d36d0b357cb744058c812f9dab77ddfe0fade1bd91d1294d6d2d91b14f4d233"),
    (["lut", "--beta", "0.75"],
     "c9ade0af4a275e97d079cc4f11b814149fed844507487c4086249a04d044628e"),
    (["lut", "--max-dt", "5"],
     "5d54c308813a6b4163d3af6addfdb1022075c920b0f39828a7c4681f8eb0a1fd"),
] + [
    (["run", "TRAIN", "--trace", "--mode", mode, "--decay", decay,
      "--io", io] + extra, digest)
    for (extra, (mode, decay, io)), digest in zip(
        itertools.product(RUN_TRACE_VARIANTS, cli.ALL_CONFIGS), [
            "37049560ed02c3485d0bf735e8dddddddae46dc6ff943c517e62dcb9ef3f5bbd",
            "6c6c12ccf24ede094c8d5d9904ad952d393b6f605405b8a9eae7c25874e35b71",
            "38c80110b26f244149c260fa307ea14bc21254ca381957031dbac2e661cb81be",
            "f0108a06980d37b782c038c89da7f634ca8c45d8d74eae378bed9ac25eaa9efa",
            "49bd4f95e80f783eaded26bf407b78979238881745edd61bacc9e6ea60e88e5f",
            "737d37be8062364970bac4d32de40bd9b8977614ab9e99591db23e102e174182",
            "9acfe45936a841d3a56e0b73bbbbec99abb6ce37d4ec9ca6525ddbcaf0be5412",
            "faacbd71e6f999b96db9623004542f3b721cdc8248f77d6808526a333d8032e8",
            "086080276839d81c4d81d77ab4692790ea81b25f710f14425bbdf14339d2f88e",
            "0e15c6c182d291270473ab0d1ad6e53d52ace168b1e57682aff370c6f3047d23",
            "d2320e4e6049b5c73f0f8c9f7d96917fa0cb7a5b69b6f242fa3e6eb81b0baaa3",
            "991185e8c1b717810f2f0f969fc80b0ffd83bbd64eab737c7136e62aace05059",
        ])
]


@pytest.mark.parametrize("argv,digest", LUT_TRACE_ANCHORS)
def test_lut_and_trace_byte_anchor(argv, digest, tmp_path, capsys):
    if "TRAIN" in argv:
        train = tmp_path / "small.spk"
        assert main(["gen", "--preset", "audiomnist", "--seed", "7",
                     "--channels", "8", "--steps", "100",
                     "--out", str(train)]) == 0
        capsys.readouterr()
        argv = [str(train) if a == "TRAIN" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
