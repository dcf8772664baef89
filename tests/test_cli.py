import pytest

from lifsim import cli, cost, neuron, stimulus
from lifsim.cli import CSV_COLUMNS, derive_seed, main


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


def test_sweep_ratio_columns(tmp_path):
    path = tmp_path / "s.csv"
    assert main(SMALL_SWEEP + ["--out", str(path)]) == 0
    for line in path.read_text().strip().splitlines()[1:]:
        f = line.split(",")
        if f[0] == "clock_mult_serial" and f[6] == "0":
            assert float(f[11]) == 1.0  # its own baseline
        if f[0] == "clock_shift_serial" and f[6] == "0":
            assert float(f[12]) == 1.0


# --- verify / lut ----------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--trials", "40", "--seed", "1"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    assert "max observed divergence" in out


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


def test_lut_dump_pow2(capsys):
    code, out, _ = run_cli(["lut", "--beta", "0.9375", "--lut-mode", "pow2",
                            "--max-dt", "6"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,1"
