from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lifsim import BetaSpec, cost, neuron, stimulus
from lifsim.cost import (
    ActivityCounters,
    CycleCosts,
    EnergyWeights,
    energy,
    latency,
    load_model_config,
    metrics_from_trace,
    run_cost,
)
from lifsim.stimulus import DensityProfile, SpikeTrain, encode_serial

ALL_SIX = [
    ("clock", "mult", "serial"),
    ("clock", "shift", "serial"),
    ("event", "mult", "serial"),
    ("event", "shift", "serial"),
    ("event", "mult", "aer"),
    ("event", "shift", "aer"),
]


def cfg(mode="clock", decay="mult", io="serial", n=8, **kw):
    kw.setdefault("weights", [10] * n)
    kw.setdefault("threshold", 100)
    kw.setdefault("beta", BetaSpec.one_minus_pow2(1))
    return neuron.NeuronConfig(n_inputs=n, mode=mode, decay_impl=decay,
                               io_mode=io, **kw)


def full_train(n=8, steps=100):
    return SpikeTrain(n, steps, [(t, c) for t in range(steps) for c in range(n)])


def step_counts(config, train, costs=cost.DEFAULT_CYCLE_COSTS):
    """Reference (cycles, activity): charge every timestep of the dense
    serial encoding the way a hardware step would, one step at a time."""
    act = ActivityCounters()
    cycles = 0
    n = config.n_inputs
    bias = int(config.bias is not None)
    for bits in encode_serial(train).tolist():  # Python ints: no uint8 wrap
        k = sum(bits)
        if config.mode == "clock":
            if k or costs.clock_full_scan:
                cycles += costs.clk_active_step_base + n * costs.clk_per_input_scan
            else:
                cycles += costs.clk_idle_step
            act.cu_transitions += 1
        elif k == 0:
            # event-driven idle step: no update; the serial engine still
            # increments its interval counter
            if config.io_mode == "serial":
                cycles += costs.evt_idle_step
                act.reg_writes += 1
            continue
        else:
            act.lut_reads += 1
            if config.io_mode == "serial":
                cycles += costs.evt_active_step_base + n * costs.evt_per_input_scan
                act.cu_transitions += 1
            else:
                cycles += costs.aer_per_active_step_base + k * costs.aer_per_packet
                act.cu_transitions += k
                act.step_bursts += 1
        if config.decay_impl == "mult":
            act.multiplies += 1
        else:
            act.shifts += 1
        act.adds += k + bias
        act.mem_reads += k + bias
        act.threshold_checks += 1
        act.reg_writes += 1
    return cycles, act


def closed_form(config, train, costs=cost.DEFAULT_CYCLE_COSTS):
    """(cycles, activity) from the step, active-step and event counts of the
    engine's trace."""
    trace = neuron.run(config, train)
    return run_cost(config, costs, trace.n_steps, trace.n_active_steps,
                    trace.n_events)


@st.composite
def small_trains(draw):
    n_channels = draw(st.integers(1, 11))
    n_steps = draw(st.integers(1, 128))
    events = draw(st.sets(st.tuples(st.integers(0, n_steps - 1),
                                    st.integers(0, n_channels - 1)),
                          max_size=300))
    return SpikeTrain(n_channels, n_steps, events)


cycle_costs = st.builds(
    CycleCosts,
    **{f.name: st.integers(0, 20) for f in fields(CycleCosts)
       if f.name != "clock_full_scan"},
    clock_full_scan=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(train=small_trains(), arch=st.sampled_from(ALL_SIX),
       bias=st.booleans(), costs=cycle_costs)
def test_closed_form_matches_step_counter(train, arch, bias, costs):
    c = cfg(*arch, n=train.n_channels, bias=-3 if bias else None)
    expected = step_counts(c, train, costs)
    assert closed_form(c, train, costs) == expected
    assert latency(c, train, costs) == expected[0]
    m = metrics_from_trace(neuron.run(c, train), c, costs=costs)
    assert m.latency_cycles == expected[0]


def test_latency_empty_train():
    empty = SpikeTrain(8, 100)
    assert latency(cfg("clock"), empty) == 200
    assert latency(cfg("event"), empty) == 100
    assert latency(cfg("event", io="aer"), empty) == 0


def test_latency_full_density():
    train = full_train()
    assert latency(cfg("clock"), train) == 1000
    assert latency(cfg("event"), train) == 1000
    assert latency(cfg("event", io="aer"), train) == 1800


def test_latency_sparse_aer_advantage():
    train = SpikeTrain(8, 100, [(10 * t, 0) for t in range(10)])
    assert latency(cfg("event", io="aer"), train) == 40
    assert latency(cfg("clock"), train) == 280


def test_latency_clock_full_scan():
    costs = CycleCosts(clock_full_scan=True)
    assert latency(cfg("clock"), SpikeTrain(8, 100), costs) == 1000


def test_latency_matches_engine_cycles():
    rng = np.random.default_rng(4)
    for trial in range(30):
        train = stimulus.generate(
            DensityProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.2, 1))),
            8, 100, int(rng.integers(1 << 32)))
        for mode, decay, io in [("clock", "mult", "serial"),
                                ("clock", "shift", "serial"),
                                ("event", "mult", "serial"),
                                ("event", "shift", "aer")]:
            c = cfg(mode, decay, io)
            assert latency(c, train) == step_counts(c, train)[0]


def test_serial_latency_ignores_channel_pattern():
    # same active-step set, different channel activity: exact same latency
    a = SpikeTrain(8, 50, [(3, 0), (7, 2), (20, 5)])
    b = SpikeTrain(8, 50, [(3, 0), (3, 1), (3, 7), (7, 6), (20, 0), (20, 1)])
    for c in (cfg("clock"), cfg("event")):
        assert latency(c, a) == latency(c, b)


def test_aer_latency_affine_in_packets():
    costs = cost.DEFAULT_CYCLE_COSTS
    c = cfg("event", io="aer")
    rng = np.random.default_rng(5)
    for _ in range(50):
        train = stimulus.generate(DensityProfile(0.5, 0.6), 8, 100,
                                  int(rng.integers(1 << 32)))
        active = len(train.steps_with_events())
        assert latency(c, train) == (
            active * costs.aer_per_active_step_base
            + len(train.events) * costs.aer_per_packet
        )


def test_activity_empty_train_clock_mult():
    c, train = cfg("clock"), SpikeTrain(8, 100)
    act = closed_form(c, train)[1]
    assert act == step_counts(c, train)[1]
    assert act.multiplies == 100
    assert act.threshold_checks == 100
    assert act.adds == 0


def test_activity_empty_train_event_serial():
    c, train = cfg("event"), SpikeTrain(8, 100)
    act = closed_form(c, train)[1]
    assert act == step_counts(c, train)[1]
    assert act.multiplies == 0
    assert act.lut_reads == 0


def test_activity_single_event_aer_mult():
    c, train = cfg("event", io="aer"), SpikeTrain(8, 100, [(5, 2)])
    act = closed_form(c, train)[1]
    assert act == step_counts(c, train)[1]
    assert act.lut_reads == 1
    assert act.multiplies == 1
    assert act.adds == 1
    assert act.threshold_checks == 1


def test_energy_basics():
    assert energy(cost.ActivityCounters()) == 0
    assert energy(cost.ActivityCounters(multiplies=1)) == 8
    w = EnergyWeights(e_step_fixed=12.0)
    assert energy(cost.ActivityCounters(step_bursts=3), w) == 36


def energy_with_burst_argument(a, w, n_active_steps):
    """energy() as it was when the burst count was a separate argument."""
    return (
        a.multiplies * w.e_mult
        + a.shifts * w.e_shift
        + a.adds * w.e_add
        + a.lut_reads * w.e_lut
        + a.threshold_checks * w.e_cmp
        + a.reg_writes * w.e_reg
        + a.cu_transitions * w.e_cu
        + a.mem_reads * w.e_mem
        + n_active_steps * w.e_step_fixed
    )


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 10**9),
                       min_size=len(fields(ActivityCounters)),
                       max_size=len(fields(ActivityCounters))),
       weights=st.builds(EnergyWeights, **{
           f.name: st.floats(0.0, 1e6) for f in fields(EnergyWeights)}))
def test_energy_keeps_the_bits_of_the_burst_argument(counts, weights):
    # the burst term stays last in the sum, so no energy value moves
    activity = ActivityCounters(*counts)
    assert energy(activity, weights).hex() == energy_with_burst_argument(
        activity, weights, activity.step_bursts).hex()


def test_metrics_identity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        train = stimulus.generate(
            DensityProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.2, 1))),
            8, 100, int(rng.integers(1 << 32)))
        for mode, decay, io in [("clock", "mult", "serial"),
                                ("event", "shift", "serial"),
                                ("event", "mult", "aer")]:
            c = cfg(mode, decay, io)
            m = metrics_from_trace(neuron.run(c, train), c)
            assert m.energy_units == pytest.approx(
                m.avg_power_units * m.latency_cycles, rel=1e-12)
            assert m.latency_seconds == m.latency_cycles / 1e8


def test_metrics_zero_cycle_run():
    c = cfg("event", io="aer")
    m = metrics_from_trace(neuron.run(c, SpikeTrain(8, 100)), c)
    assert m.latency_cycles == 0
    assert m.avg_power_units == 0.0


def test_activity_deterministic():
    train = stimulus.generate(DensityProfile(0.5, 0.5), 8, 100, 77)
    c = cfg("event", io="aer")
    a = closed_form(c, train)[1]
    b = closed_form(c, train)[1]
    assert a == b == step_counts(c, train)[1]


def test_load_model_config(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "# cycle model\n"
        "clk_idle_step = 3\n"
        "aer_per_packet = 1   # cheaper packets\n"
        "e_mult = 16\n"
        "clock_full_scan = true\n"
        "\n"
    )
    costs, weights = load_model_config(path)
    assert costs.clk_idle_step == 3
    assert costs.aer_per_packet == 1
    assert costs.clock_full_scan is True
    assert weights.e_mult == 16
    assert weights.e_shift == 1  # untouched default


def test_load_model_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("e_quantum = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_model_config(path)


def test_load_model_config_rejects_bad_value(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("e_mult = fast\n")
    with pytest.raises(ValueError, match="bad value"):
        load_model_config(path)
    path.write_text("e_mult\n")
    with pytest.raises(ValueError, match="key = value"):
        load_model_config(path)


def test_negative_constants_rejected():
    with pytest.raises(ValueError):
        CycleCosts(clk_idle_step=-1)
    with pytest.raises(ValueError):
        EnergyWeights(e_add=-0.5)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_energy_weights_rejected(value):
    with pytest.raises(ValueError, match="e_cu must be finite"):
        EnergyWeights(e_cu=value)
