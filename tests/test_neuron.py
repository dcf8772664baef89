from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lifsim import BetaSpec, neuron, stimulus
from lifsim.fxp import (
    QValue,
    apply_lut_decay,
    decay_mult,
    decay_shift,
    sat_sub,
)
from lifsim.neuron import (
    NeuronConfig,
    TraceRecord,
    clock_step,
    event_step,
    fire_and_reset,
    new_state,
    reference_run,
    run,
)
from lifsim.stimulus import DensityProfile, SpikeTrain

ALL_SIX = [
    ("clock", "mult", "serial"),
    ("clock", "shift", "serial"),
    ("event", "mult", "serial"),
    ("event", "shift", "serial"),
    ("event", "mult", "aer"),
    ("event", "shift", "aer"),
]


def cfg(mode="clock", decay="mult", io="serial", n=8, **kw):
    kw.setdefault("weights", [16] * n)
    kw.setdefault("threshold", 100)
    kw.setdefault("beta", BetaSpec.one_minus_pow2(1))
    return NeuronConfig(n_inputs=n, mode=mode, decay_impl=decay, io_mode=io, **kw)


def random_train(rng, n_channels=8, n_steps=100):
    return stimulus.generate(
        DensityProfile(float(rng.uniform(0, 1)), float(rng.uniform(0.13, 1))),
        n_channels, n_steps, int(rng.integers(1 << 32)))


# --- configuration ---------------------------------------------------------


def test_clock_aer_combination_rejected():
    with pytest.raises(ValueError, match="six"):
        cfg("clock", "mult", "aer")


def test_clock_shifter_needs_pow2_friendly_beta():
    with pytest.raises(ValueError):
        cfg("clock", "shift", beta=BetaSpec.exact(0.9))
    cfg("clock", "shift", beta=BetaSpec.one_minus_pow2(4))  # fine
    # u - (u >> n) needs n below the 9-bit membrane width, even on an empty
    # train that never decays
    with pytest.raises(ValueError, match="membrane_bits 9, got 9"):
        cfg("clock", "shift", beta=BetaSpec.one_minus_pow2(9))
    cfg("clock", "shift", beta=BetaSpec.one_minus_pow2(8))
    # the event-driven shift table clamps its entries to membrane_bits - 1
    cfg("event", "shift", beta=BetaSpec.one_minus_pow2(9))


def test_equal_configs_share_one_decay_table():
    a = cfg("event", beta=BetaSpec.exact(0.9))
    b = cfg("event", beta=BetaSpec.exact(0.9))
    assert a.lut is b.lut
    assert cfg("event", beta=BetaSpec.exact(0.8)).lut is not a.lut


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(n=8, weights=[40] * 8)  # outside 6-bit weight range
    with pytest.raises(ValueError):
        cfg(n=8, weights=[1] * 7)
    with pytest.raises(ValueError):
        cfg(threshold=0)
    with pytest.raises(ValueError):
        NeuronConfig(n_inputs=16, weights=[1] * 16, threshold=10,
                     beta=BetaSpec.one_minus_pow2(1), addr_bits=3)


def test_zero_inputs_rejected():
    with pytest.raises(ValueError, match="n_inputs"):
        NeuronConfig(n_inputs=0, weights=[], threshold=10,
                     beta=BetaSpec.one_minus_pow2(1))


def test_default_address_width():
    assert cfg(n=8).addr_bits == 3
    assert cfg(n=1, weights=[1]).addr_bits == 1


# --- fire / reset ----------------------------------------------------------


def test_fire_and_reset_examples():
    c = cfg()
    fired, u = fire_and_reset(c.u(99), c)
    assert (fired, u.raw) == (False, 99)
    fired, u = fire_and_reset(c.u(100), c)
    assert (fired, u.raw) == (True, 0)  # boundary fires, zero reset
    c_sub = cfg(reset_mode="subtract")
    fired, u = fire_and_reset(c_sub.u(130), c_sub)
    assert (fired, u.raw) == (True, 30)


# --- single steps ----------------------------------------------------------


def test_clock_step_accumulate_and_fire():
    c = cfg()
    out = clock_step(new_state(c), c, [1] * 8)
    assert out.fired is True
    assert out.u_after.raw == 0  # 8*16 = 128 >= 100, zero reset


def test_clock_step_pure_decay():
    c = cfg(u_init=64)
    out = clock_step(new_state(c), c, [0] * 8)
    assert out.fired is False
    assert out.u_after.raw == 32


def test_clock_step_shifter_subtract():
    c = cfg("clock", "shift", n=1, weights=[30], threshold=100,
            reset_mode="subtract", u_init=90, weight_bits=6)
    # decay 90 -> 45, +30 = 75: no fire
    out = clock_step(new_state(c), c, [1])
    assert (out.fired, out.u_after.raw) == (False, 75)
    # from 140 (wider init): decay 70, +30 = 100 >= 100, subtract -> 0
    c2 = cfg("clock", "shift", n=1, weights=[30], threshold=100,
             reset_mode="subtract", u_init=140)
    out = clock_step(new_state(c2), c2, [1])
    assert (out.fired, out.u_after.raw) == (True, 0)


def test_clock_step_vector_width_checked():
    c = cfg()
    with pytest.raises(ValueError):
        clock_step(new_state(c), c, [0] * 7)


def test_event_step_exact_power_decay():
    c = cfg("event", n=8, weights=[6] + [0] * 7, u_init=80)
    state = new_state(c)
    state.last_event_time = 2
    out = event_step(state, c, 5, [0])
    assert out.u_after.raw == 16  # 80 * 0.125 + 6


def test_event_step_zero_interval_identity():
    c = cfg("event", n=8, weights=[7] * 8, u_init=50)
    out = event_step(new_state(c), c, 0, [1])
    assert out.u_after.raw == 57


def test_event_step_pow2_shift_decay():
    c = cfg("event", "shift", n=8, weights=[0] * 8, u_init=100,
            beta=BetaSpec.one_minus_pow2(4))
    out = event_step(new_state(c), c, 6, [2])
    assert out.u_after.raw == 50  # shift amount 1 at dt=6


def test_event_step_contract_violations():
    c = cfg("event")
    with pytest.raises(ValueError):
        event_step(new_state(c), c, 1, [])
    with pytest.raises(ValueError):
        event_step(new_state(c), c, 200, [0])  # interval > 7-bit counter
    with pytest.raises(ValueError):
        event_step(new_state(c), c, 1, [8])  # malformed address
    state = new_state(c)
    state.last_event_time = 5
    with pytest.raises(ValueError):
        event_step(state, c, 3, [0])


# --- full runs -------------------------------------------------------------


@pytest.mark.parametrize("mode,decay,io", ALL_SIX)
def test_run_empty_train(mode, decay, io):
    c = cfg(mode, decay, io)
    trace = run(c, SpikeTrain(8, 100))
    assert trace.fire_times() == []
    assert all(r.u == 0 for r in trace.records)


@pytest.mark.parametrize("mode,decay,io", ALL_SIX)
def test_run_single_superthreshold_event(mode, decay, io):
    c = cfg(mode, decay, io, weights=[25] + [0] * 7, threshold=20)
    trace = run(c, SpikeTrain(8, 100, [(0, 0)]))
    assert trace.fire_times() == [0]


def test_run_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        run(cfg(), SpikeTrain(4, 10))
    with pytest.raises(ValueError):
        run(cfg(), SpikeTrain(8, 200))  # exceeds 7-bit time counter
    # columns that skipped the constructor's range checks
    for chans, bad in (([3, 9], 9), ([-2, 3], -2)):
        train = SpikeTrain._from_sorted(8, 10, [1, 2], chans)
        for mode, decay, io in ALL_SIX:
            with pytest.raises(ValueError,
                               match=rf"input address {bad} outside \[0, 8\)"):
                run(cfg(mode, decay, io), train)


def test_trace_shape_clock():
    train = SpikeTrain(8, 50, [(3, 1)])
    trace = run(cfg(), train)
    assert len(trace.records) == 50
    assert [r.time for r in trace.records] == list(range(50))


def test_trace_shape_event_with_flush():
    train = SpikeTrain(8, 50, [(3, 1), (7, 2)])
    trace = run(cfg("event"), train)
    assert [r.time for r in trace.records] == [3, 7, 49]
    assert trace.records[-1].fired is False
    # event on the last step: no separate flush record
    train2 = SpikeTrain(8, 50, [(3, 1), (49, 2)])
    trace2 = run(cfg("event"), train2)
    assert [r.time for r in trace2.records] == [3, 49]
    # times strictly increasing in every engine
    for mode, decay, io in ALL_SIX:
        rec = run(cfg(mode, decay, io), train).records
        assert all(a.time < b.time for a, b in zip(rec, rec[1:]))


def test_half_beta_clock_vs_event_fire_sets():
    # with beta = 0.5 and non-negative weights the clock-driven multiplier
    # and event-driven serial multiplier stay bit-identical at event instants
    rng = np.random.default_rng(7)
    for _ in range(50):
        train = random_train(rng)
        weights = tuple(int(w) for w in rng.integers(0, 13, size=8))
        ct = run(cfg("clock", weights=weights), train)
        et = run(cfg("event", weights=weights), train)
        clock_by_time = {r.time: r for r in ct.records}
        for rec in et.records:
            assert rec.u == clock_by_time[rec.time].u
            assert rec.fired == clock_by_time[rec.time].fired
        assert et.fire_times() == [t for t in ct.fire_times()]


def test_reset_soundness_random():
    rng = np.random.default_rng(8)
    for reset in ("zero", "subtract"):
        for _ in range(20):
            train = random_train(rng)
            weights = tuple(int(w) for w in rng.integers(-12, 13, size=8))
            c = cfg("clock", weights=weights, reset_mode=reset)
            state = new_state(c)
            for bits in stimulus.encode_serial(train):
                before = state.u_mem
                out = clock_step(state, c, bits)
                if out.fired:
                    if reset == "zero":
                        assert out.u_after.raw == 0
                    else:
                        assert out.u_after.raw < c.threshold


def test_decay_to_silence():
    empty = SpikeTrain(8, 100)
    for mode, decay, io in ALL_SIX:
        for beta in (BetaSpec.one_minus_pow2(1), BetaSpec.one_minus_pow2(4)):
            c = cfg(mode, decay, io, beta=beta, u_init=255)
            trace = run(c, empty)
            mags = [abs(r.u) for r in trace.records]
            assert all(a >= b for a, b in zip(mags, mags[1:]))
            if beta.value <= 0.5 and not (mode == "clock" and decay == "shift"):
                # the clock-driven shifter legitimately sticks at raw 1:
                # 1 - (1 >> 1) == 1 (sub-LSB decay lost)
                assert trace.records[-1].u == 0


def test_determinism():
    rng = np.random.default_rng(9)
    train = random_train(rng)
    for mode, decay, io in ALL_SIX:
        c = cfg(mode, decay, io)
        a = run(c, train)
        b = run(c, train)
        assert a.records == b.records


def test_serial_vs_aer_traces_identical():
    rng = np.random.default_rng(10)
    for _ in range(30):
        train = random_train(rng)
        for decay in ("mult", "shift"):
            c_ser = cfg("event", decay, "serial",
                        beta=BetaSpec.one_minus_pow2(4))
            c_aer = cfg("event", decay, "aer", beta=BetaSpec.one_minus_pow2(4))
            st = run(c_ser, train)
            at = run(c_aer, train)
            assert st.records == at.records


# --- raw-integer kernel vs composed QValue primitives -----------------------


def qvalue_engine(config, train):
    """The engine as a composition of the fxp QValue primitives, one step at
    a time: decay_mult / decay_shift / apply_lut_decay, a clamp per add and
    a sat_sub reset. Reads the train through the serial and AER codecs.

    Returns (records, (n_steps, n_active_steps, n_events)).
    """
    fmt = config.membrane_fmt

    def settle(u, chans):
        raw = u.raw
        for ch in chans:
            raw = fmt.clamp(raw + config.weights[ch])
        if config.bias is not None:
            raw = fmt.clamp(raw + config.bias)
        u = QValue(raw, fmt)
        if u.raw >= config.threshold:
            if config.reset_mode == "zero":
                return True, QValue(0, fmt)
            return True, sat_sub(u, QValue(config.threshold, fmt))
        return False, u

    u = QValue(config.u_init, fmt)
    records = []
    vectors = stimulus.encode_serial(train).tolist()
    counts = (len(vectors), sum(any(v) for v in vectors),
              sum(sum(v) for v in vectors))
    if config.mode == "clock":
        for t, bits in enumerate(vectors):
            if config.decay_impl == "mult":
                u = decay_mult(u, config.beta_q)
            else:
                u = decay_shift(u, config.beta.shift)
            fired, u = settle(u, [ch for ch, bit in enumerate(bits) if bit])
            records.append(TraceRecord(t, u.raw, fired))
        return records, counts

    if config.io_mode == "serial":
        active_steps = [(t, [ch for ch, bit in enumerate(bits) if bit])
                        for t, bits in enumerate(vectors) if any(bits)]
    else:
        active_steps = [
            (t, [p[1] for p in packets])
            for t, packets in groupby(stimulus.encode_aer(train).tolist(),
                                      lambda p: p[0])
        ]
    last = 0
    for t, chans in active_steps:
        fired, u = settle(apply_lut_decay(u, config.lut, t - last), chans)
        records.append(TraceRecord(t, u.raw, fired))
        last = t
    t_end = len(vectors) - 1
    if t_end >= 0 and (last < t_end or not records):
        u = apply_lut_decay(u, config.lut, t_end - last)
        records.append(TraceRecord(t_end, u.raw, False))
    return records, counts


def trains(n_channels, n_steps):
    """Small drawn event sets, or generated trains of any density."""
    if n_steps == 0:
        return st.just(SpikeTrain(n_channels, 0))
    drawn = st.sets(st.tuples(st.integers(0, n_steps - 1),
                              st.integers(0, n_channels - 1)), max_size=300)
    generated = st.builds(
        lambda temporal, inp, seed: stimulus.generate(
            DensityProfile(temporal, inp), n_channels, n_steps, seed),
        st.floats(0, 1), st.floats(0.01, 1), st.integers(0, 2**32 - 1))
    return drawn.map(lambda ev: SpikeTrain(n_channels, n_steps, ev)) | generated


def betas(mode, decay, membrane_bits):
    """Exact or 1 - 2**-n decay factors; the clock shifter takes only the
    latter, with n below the membrane width."""
    if mode == "clock" and decay == "shift":
        return st.integers(1, membrane_bits - 1).map(BetaSpec.one_minus_pow2)
    return (st.integers(1, 12).map(BetaSpec.one_minus_pow2)
            | st.floats(0.01, 0.999).map(BetaSpec.exact))


@st.composite
def engine_cases(draw):
    """A config of any of the six architectures and a train of 0-128 steps
    for it. Membranes of 4-9 bits against 6-bit weights make saturation
    (or wrap) within a step's accumulation common."""
    mode, decay, io = draw(st.sampled_from(ALL_SIX))
    n = draw(st.integers(1, 8))
    bits = draw(st.integers(4, 9))
    top = (1 << (bits - 1)) - 1
    c = NeuronConfig(
        n_inputs=n, mode=mode, decay_impl=decay, io_mode=io,
        beta=draw(betas(mode, decay, bits)),
        weights=draw(st.lists(st.integers(-32, 31), min_size=n, max_size=n)),
        threshold=draw(st.integers(1, top)),
        reset_mode=draw(st.sampled_from(["zero", "subtract"])),
        bias=draw(st.none() | st.integers(-32, 31)),
        u_init=draw(st.integers(-top - 1, top)),
        membrane_bits=bits, wrap=draw(st.booleans()))
    return c, draw(trains(n, draw(st.integers(0, 128))))


@settings(max_examples=500, deadline=None)
@given(case=engine_cases())
def test_run_matches_composed_qvalue_engine(case):
    c, train = case
    trace = run(c, train)
    records, counts = qvalue_engine(c, train)
    assert trace.records == records
    assert (trace.n_steps, trace.n_active_steps, trace.n_events) == counts


@st.composite
def shared_train_cases(draw):
    """A train, a config of each of the six architectures for it in a drawn
    order, and a subtract or zero reset with an optional bias."""
    n = draw(st.integers(1, 8))
    train = draw(trains(n, draw(st.integers(0, 128))))
    common = dict(
        weights=draw(st.lists(st.integers(-32, 31), min_size=n, max_size=n)),
        threshold=draw(st.integers(1, 255)),
        reset_mode=draw(st.sampled_from(["zero", "subtract"])),
        bias=draw(st.none() | st.integers(-32, 31)),
        beta=BetaSpec.one_minus_pow2(draw(st.integers(1, 8))))
    order = draw(st.permutations(ALL_SIX))
    return train, [cfg(*key, n=n, **common) for key in order]


def fresh_copy(train):
    return SpikeTrain(train.n_channels, train.n_steps, train.sorted_events())


@settings(max_examples=300, deadline=None)
@given(case=shared_train_cases())
def test_engines_share_one_train_in_any_order(case):
    # the active-step map and channel range are built once per train; runs
    # in any order, and callers changing what steps_with_events() returned,
    # must leave every later run as it is on a fresh copy of the train
    train, configs = case
    for c in configs:
        steps = train.steps_with_events()
        for chans in steps.values():
            chans.reverse()
            chans.append(0)
        steps[0] = [c.n_inputs - 1]
        steps.pop(train.n_steps - 1, None)
        trace, ref = run(c, train), reference_run(c, train)
        assert trace == run(c, fresh_copy(train))
        assert ref == reference_run(c, fresh_copy(train))
        # the reference trace carries the counts the cost model prices
        assert (ref.n_steps, ref.n_active_steps, ref.n_events) == \
            (trace.n_steps, trace.n_active_steps, trace.n_events)
    assert train.steps_with_events() == fresh_copy(train).steps_with_events()


def test_active_steps_is_read_only():
    train = SpikeTrain(4, 10, [(2, 1), (2, 3), (5, 0)])
    assert dict(train.active_steps) == {2: (1, 3), 5: (0,)}
    assert train.active_steps is train.active_steps
    with pytest.raises(TypeError):
        train.active_steps[7] = (0,)
    steps = train.steps_with_events()
    assert steps == {2: [1, 3], 5: [0]}
    assert steps is not train.steps_with_events()


# --- subtract-reset boundary -----------------------------------------------


@st.composite
def subthreshold_input_cases(draw):
    """Subtract-reset configs, all six architectures, whose every step's
    input sum plus bias stays below the threshold; u_init starts below it."""
    n = draw(st.integers(1, 8))
    train = draw(trains(n, draw(st.integers(1, 128))))
    weights = draw(st.lists(st.integers(-32, 31), min_size=n, max_size=n))
    bias = draw(st.none() | st.integers(-32, 31))
    b = bias or 0
    peak = max([b] + [sum(weights[ch] for ch in chans) + b
                      for chans in train.steps_with_events().values()])
    assume(peak < 255)
    threshold = draw(st.integers(max(1, peak + 1), 255))
    mode, decay, io = draw(st.sampled_from(ALL_SIX))
    c = NeuronConfig(
        n_inputs=n, weights=weights, threshold=threshold,
        beta=draw(betas(mode, decay, 9)), mode=mode,
        decay_impl=decay, io_mode=io, reset_mode="subtract", bias=bias,
        u_init=draw(st.integers(-256, threshold - 1)))
    return c, train


@settings(max_examples=400, deadline=None)
@given(case=subthreshold_input_cases())
def test_subtract_reset_lands_below_threshold(case):
    c, train = case
    trace = run(c, train)
    assert all(r.u < c.threshold for r in trace.records if r.fired)
    if c.mode == "clock" and (c.bias or 0) <= 0:
        # an idle step only decays (or adds a non-positive bias), so it
        # cannot reach the threshold from below
        active = set(train.steps_with_events())
        assert set(trace.fire_times()) <= active


@pytest.mark.parametrize("mode,io,fires", [("clock", "serial", [0, 1]),
                                           ("event", "serial", [0, 4]),
                                           ("event", "aer", [0, 4])])
def test_subtract_reset_double_crossing(mode, io, fires):
    # the input sum 4 * 31 = 124 crosses the threshold of 60 twice in one
    # step: the subtract reset leaves 64 >= 60, the clock engine fires again
    # on the idle step 1, and the event engines only at the next event
    c = NeuronConfig(n_inputs=4, weights=(31,) * 4, threshold=60,
                     beta=BetaSpec.one_minus_pow2(4), mode=mode,
                     decay_impl="shift", io_mode=io, reset_mode="subtract")
    train = SpikeTrain(4, 6, [(0, 0), (0, 1), (0, 2), (0, 3), (4, 0)])
    trace = run(c, train)
    assert trace.records[0] == (0, 64, True)
    assert trace.fire_times() == fires


# --- real-arithmetic reference ---------------------------------------------


def test_reference_single_event_fires():
    c = cfg("clock", weights=[25] + [0] * 7, threshold=20)
    rt = reference_run(c, SpikeTrain(8, 100, [(0, 0)]))
    assert rt.fire_times() == [0]


@pytest.mark.parametrize("beta", [BetaSpec.one_minus_pow2(1),
                                  BetaSpec.exact(0.9325),
                                  BetaSpec.one_minus_pow2(4)])
def test_reference_clock_vs_event_equivalence(beta):
    rng = np.random.default_rng(12)
    for _ in range(30):
        train = random_train(rng)
        weights = tuple(int(w) for w in rng.integers(-12, 13, size=8))
        base = dict(weights=weights, threshold=100, beta=beta)
        ct = reference_run(cfg("clock", **base), train)
        et = reference_run(cfg("event", **base), train)
        clock_by_time = {r.time: r for r in ct.records}
        for rec in et.records:
            other = clock_by_time[rec.time]
            assert rec.fired == other.fired
            assert abs(rec.u - other.u) <= 1e-9 * max(1.0, abs(rec.u),
                                                      abs(other.u))


def test_quantized_tracks_reference_loosely():
    # quantized membranes should stay within the analytic guide band of the
    # real-valued oracle: half an LSB amplified by the decay feedback
    rng = np.random.default_rng(13)
    beta = BetaSpec.one_minus_pow2(4)
    bound = 0.5 * (1 + 1 / (1 - beta.value)) + 1  # plus one LSB of slack
    for _ in range(20):
        train = random_train(rng)
        weights = tuple(int(w) for w in rng.integers(0, 10, size=8))
        c = cfg("clock", weights=weights, threshold=200, beta=beta)
        qt = run(c, train)
        rt = reference_run(c, train)
        for q, r in zip(qt.records, rt.records):
            if q.fired or r.fired:
                break  # reset decisions may legitimately diverge afterwards
            assert abs(q.u - r.u) <= bound


def test_bias_is_off_by_default_and_additive():
    c = cfg("clock", weights=[0] * 8, bias=5, threshold=100)
    trace = run(c, SpikeTrain(8, 10))
    assert trace.records[0].u == 5  # bias acts as an always-active input
    c_nobias = cfg("clock", weights=[0] * 8, threshold=100)
    assert run(c_nobias, SpikeTrain(8, 10)).records[-1].u == 0
