import re
from itertools import accumulate, groupby, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lifsim import BetaSpec, cost, neuron, stimulus
from lifsim.fxp import (
    QValue,
    apply_lut_decay,
    build_decay_lut,
    decay_mult,
    decay_shift,
    quantize,
)
from lifsim.neuron import (
    NeuronConfig,
    Trace,
    TraceRecord,
    clock_step,
    event_step,
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
    return NeuronConfig(mode=mode, decay_impl=decay, io_mode=io, **kw)


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
        cfg(threshold=0)


def test_zero_inputs_rejected():
    with pytest.raises(ValueError, match="n_inputs must be >= 1, got 0"):
        NeuronConfig(weights=[], threshold=10,
                     beta=BetaSpec.one_minus_pow2(1))


# --- fire / reset ----------------------------------------------------------


def kernel_fire_and_reset(c, raw):
    """(fired, membrane after) of one kernel update from `raw` without
    decay, input or bias, which leaves the kernel only its threshold check
    and reset."""
    fmt = c.membrane_fmt
    # the table of one timestep without events
    idle = neuron._entry_columns(c.weights, None, fmt.raw_min, fmt.raw_max,
                                 [], [], [], 1)
    us, fires = [], []
    neuron._scan(c, raw, (0,), *idle.tolist(), us, fires)
    return bool(fires), us[0]


def test_fire_and_reset_examples():
    c = cfg()
    assert kernel_fire_and_reset(c, 99) == (False, 99)
    assert kernel_fire_and_reset(c, 100) == (True, 0)  # boundary fires, zero reset
    c_sub = cfg(reset_mode="subtract")
    assert kernel_fire_and_reset(c_sub, 130) == (True, 30)


@pytest.mark.parametrize("reset", ["zero", "subtract"])
@pytest.mark.parametrize("threshold", [1, 100, 127])
@pytest.mark.parametrize("arch", ALL_SIX)
def test_fire_and_reset_agrees_with_kernel(arch, threshold, reset):
    # the kernel fires iff raw >= threshold, then resets to 0 (zero reset)
    # or to raw - threshold (subtract reset)
    c = cfg(*arch, threshold=threshold, reset_mode=reset)
    fmt = c.membrane_fmt
    for raw in (fmt.raw_min, 0, threshold - 1, threshold, threshold + 1,
                fmt.raw_max):
        if raw < threshold:
            expected = (False, raw)
        else:
            expected = (True, raw - threshold if reset == "subtract" else 0)
        assert kernel_fire_and_reset(c, raw) == expected


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
            reset_mode="subtract", u_init=90)
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


@pytest.mark.parametrize("address", [1.5, True, "1", np.float64(2.0), None])
def test_event_step_names_a_non_integer_address(address):
    c = cfg("event")
    with pytest.raises(ValueError,
                       match=rf"input address {re.escape(repr(address))} "
                             rf"is not an integer"):
        event_step(new_state(c), c, 1, [0, address])


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
    # columns that skipped the constructor's range checks, through both
    # engines
    for chans, bad in (([3, 9], 9), ([-2, 3], -2)):
        train = SpikeTrain._from_sorted(8, 10, [1, 2], chans)
        for engine in (run, reference_run):
            for mode, decay, io in ALL_SIX:
                with pytest.raises(
                        ValueError,
                        match=rf"input address {bad} outside \[0, 8\)"):
                    engine(cfg(mode, decay, io), train)


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


def qvalue_engine(config, train, saturated=None):
    """The engine as a composition of the fxp QValue primitives, one step at
    a time: decay_mult / decay_shift / apply_lut_decay, and a clamp per add
    and per subtract reset. The clock multiplier quantizes beta itself
    rather than reading the decay table. Reads the train through the serial
    and AER codecs.

    Returns (records, (n_steps, n_active_steps, n_events)). If `saturated`
    is a list, it receives for each update with input whether a clamp of
    its accumulation changed a value.
    """
    fmt = config.membrane_fmt

    def settle(u, chans):
        raw = u.raw
        addends = [config.weights[ch] for ch in chans]
        if config.bias is not None:
            addends.append(config.bias)
        clamped = False
        for w in addends:
            raw, exact = fmt.clamp(raw + w), raw + w
            clamped = clamped or raw != exact
        if saturated is not None:
            saturated.append(clamped)
        u = QValue(raw, fmt)
        if u.raw >= config.threshold:
            if config.reset_mode == "zero":
                return True, QValue(0, fmt)
            return True, QValue(fmt.clamp(u.raw - config.threshold), fmt)
        return False, u

    beta_q = quantize(config.beta.value, neuron.BETA_FMT)
    u = QValue(config.u_init, fmt)
    records = []
    vectors = stimulus.encode_serial(train).tolist()
    counts = (len(vectors), sum(any(v) for v in vectors),
              sum(sum(v) for v in vectors))
    if config.mode == "clock":
        for t, bits in enumerate(vectors):
            if config.decay_impl == "mult":
                u = decay_mult(u, beta_q)
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
    within a step's accumulation common."""
    mode, decay, io = draw(st.sampled_from(ALL_SIX))
    n = draw(st.integers(1, 8))
    bits = draw(st.integers(4, 9))
    top = (1 << (bits - 1)) - 1
    c = NeuronConfig(
        mode=mode, decay_impl=decay, io_mode=io,
        beta=draw(betas(mode, decay, bits)),
        weights=draw(st.lists(st.integers(-32, 31), min_size=n, max_size=n)),
        threshold=draw(st.integers(1, top)),
        reset_mode=draw(st.sampled_from(["zero", "subtract"])),
        bias=draw(st.none() | st.integers(-32, 31)),
        u_init=draw(st.integers(-top - 1, top)),
        membrane_bits=bits)
    return c, draw(trains(n, draw(st.integers(0, 128))))


@settings(max_examples=500, deadline=None)
@given(case=engine_cases())
def test_run_matches_composed_qvalue_engine(case):
    c, train = case
    trace = run(c, train)
    records, counts = qvalue_engine(c, train)
    assert trace.records == records
    assert (trace.n_steps, trace.n_active_steps, trace.n_events) == counts


@settings(max_examples=200, deadline=None)
@given(case=engine_cases())
def test_trace_columns_build_the_records(case):
    # records is built from the columns on first access, and kept
    c, train = case
    for trace in (run(c, train), reference_run(c, train)):
        fired = set(trace.fires)
        assert trace.fires == sorted(fired)
        eager = [TraceRecord(t, u, i in fired)
                 for i, (t, u) in enumerate(zip(trace.times, trace.u))]
        assert trace.records == eager
        assert all(type(r.fired) is bool for r in trace.records)
        assert trace.records is trace.records
        assert trace.fire_times() == [r.time for r in trace.records if r.fired]
        if c.mode == "clock":
            assert trace.times == range(train.n_steps)


def test_trace_of_counts_alone():
    # the cost model reads only a trace's counts
    c = cfg("event", "shift", "aer")
    train = SpikeTrain(8, 20, [(2, 1), (2, 5), (9, 0)])
    counts = Trace(n_steps=20, n_active_steps=2, n_events=3)
    assert (counts.records, counts.fire_times()) == ([], [])
    assert cost.metrics_from_trace(counts, c) == \
        cost.metrics_from_trace(run(c, train), c)
    # equality reads the columns' values, whatever holds them
    assert Trace(range(3), [1, 2, 3], [1]) == Trace([0, 1, 2], [1, 2, 3], [1])
    assert Trace(range(3), [1, 2, 3], [1]) != Trace(range(3), [1, 2, 3], [2])
    assert Trace(range(3), [1, 2, 3], [1], n_steps=3) != \
        Trace(range(3), [1, 2, 3], [1])


@st.composite
def rail_cases(draw):
    """A config of any of the six architectures with weights of +-31, bias
    off or +-31 and u_init within 3 LSBs of a rail, and a train for it, so
    that a step's accumulation often leaves the membrane range and as often
    stays inside it."""
    mode, decay, io = draw(st.sampled_from(ALL_SIX))
    n = draw(st.integers(1, 8))
    bits = draw(st.integers(6, 9))
    top = (1 << (bits - 1)) - 1
    c = NeuronConfig(
        mode=mode, decay_impl=decay, io_mode=io,
        beta=draw(betas(mode, decay, bits)),
        weights=draw(st.lists(st.sampled_from([-31, 31]), min_size=n,
                              max_size=n)),
        threshold=draw(st.integers(1, top)),
        reset_mode=draw(st.sampled_from(["zero", "subtract"])),
        bias=draw(st.sampled_from([None, -31, 31])),
        u_init=draw(st.integers(-top - 1, -top + 2) | st.integers(top - 3, top)),
        membrane_bits=bits)
    return c, draw(trains(n, draw(st.integers(1, 40))))


def test_both_accumulation_paths_match_composed_qvalue_engine():
    # the kernel applies each update's accumulation as one clamp-then-add
    # (see neuron._entry_columns); the oracle clamps per addend and records
    # whether a clamp changed a value, and the drawn cases must hold updates
    # that saturate as well as updates that do not
    paths = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=rail_cases())
    def check(case):
        c, train = case
        saturated = []
        records, _ = qvalue_engine(c, train, saturated)
        assert run(c, train).records == records
        paths.update(saturated)

    check()
    assert paths == {False, True}


def saturating_fold(u, addends, lo, hi):
    for w in addends:
        u = min(max(u + w, lo), hi)
    return u


def test_entry_is_clamp_then_add():
    # exhaustive over membrane widths 2-5, addend sequences of length <= 4
    # from a set that reaches both rails from any membrane, bias off and
    # on, and every membrane: clamp(u, low, high) + total is the ordered
    # saturating fold, and low == high exactly when the partial sums span
    # the membrane range or more (more collapses the entry to one end
    # value). Per width and bias, one table build holds every nonempty
    # sequence as the step at an even timestep, the last one at the last
    # timestep, and the empty one at every odd timestep between them
    for bits in range(2, 6):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        span = hi - lo
        weights = (-span, -(span // 2), -1, 1, span // 2 + 1, span)
        seqs = [chans for n in range(1, 5)
                for chans in product(range(len(weights)), repeat=n)]
        ch = np.array([c for chans in seqs for c in chans])
        starts = np.array([0, *accumulate(map(len, seqs[:-1]))])
        steps = 2 * np.arange(len(seqs))
        n = steps[-1] + 1
        timesteps = [seqs[j // 2] if j % 2 == 0 else () for j in range(n)]
        for bias in (None, *weights):
            columns = neuron._entry_columns(weights, bias, lo, hi, ch, starts,
                                            steps, n)
            rows = zip(timesteps, *columns.tolist(), strict=True)
            for chans, total, a, b in rows:
                addends = [weights[c] for c in chans]
                if bias is not None:
                    addends.append(bias)
                sums = [0, *accumulate(addends)]
                assert total == sums[-1]
                assert (a == b) == (max(sums) - min(sums) >= span)
                assert a <= b
                for u in range(lo, hi + 1):
                    assert min(max(u, a), b) + total == \
                        saturating_fold(u, addends, lo, hi)


@st.composite
def column_cases(draw):
    """A train of 1-16 channels and 1-128 steps, weights and bias off or
    within +-31 (often a rail), and a membrane of 2-9 bits, so that some
    timesteps' partial sums span more than the membrane range."""
    n = draw(st.integers(1, 16))
    train = draw(trains(n, draw(st.integers(1, 128))))
    six_bit = st.sampled_from([-31, 31]) | st.integers(-31, 31)
    weights = draw(st.lists(six_bit, min_size=n, max_size=n))
    bias = draw(st.none() | six_bit)
    return train, weights, bias, draw(st.integers(2, 9))


def test_entry_columns_match_saturating_fold():
    # differential: each timestep's row of a train's entry table is its
    # per-addend saturating fold from every membrane. The drawn cases must
    # hold idle and active rows that collapse and that do not, and a last
    # timestep with events
    kinds = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=column_cases())
    def check(case):
        train, weights, bias, bits = case
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        u = np.arange(lo, hi + 1)
        by_step = train.steps_with_events()
        starts = train._step_starts
        columns = neuron._entry_columns(weights, bias, lo, hi, train.ch,
                                        starts, train.t[starts], train.n_steps)
        rows = zip(range(train.n_steps), *columns.tolist(), strict=True)
        for t, total, a, b in rows:
            chans = by_step.get(t, [])
            addends = [weights[c] for c in chans]
            if bias is not None:
                addends.append(bias)
            fold = u
            for w in addends:
                fold = np.clip(fold + w, lo, hi)
            assert total == sum(addends)
            assert np.array_equal(np.clip(u, a, b) + total, fold)
            sums = [0, *accumulate(addends)]
            kinds.add((bool(chans), max(sums) - min(sums) > hi - lo))
        if train.n_steps - 1 in by_step:
            kinds.add("last")

    check()
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True), "last"}


DECAY_BETAS = [1e-9, 0.5, 0.9, 0.9325, 0.999, 0.99999, 1 - 2**-30,
               *(1 - 2.0**-n for n in range(1, 13))]


def test_decay_never_leaves_the_format():
    # every decay form the kernel applies moves the membrane toward 0, so it
    # needs no clamp: every raw membrane of widths 2-9 against every decay
    # table entry for dt 1..127 (exact and pow2), and the clock shifter for
    # every shift below the width
    frac = neuron.BETA_FMT.frac_bits
    factors, shifts = set(), {}
    for beta in map(BetaSpec.exact, DECAY_BETAS):
        factors.update(build_decay_lut(beta, neuron.MAX_DT, "exact",
                                       neuron.BETA_FMT).entries[1:])
        for bits in range(2, 10):
            shifts.setdefault(bits, set()).update(build_decay_lut(
                beta, neuron.MAX_DT, "pow2", neuron.BETA_FMT,
                max_shift=bits - 1).entries[1:])
    for bits in range(2, 10):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        for u in range(lo, hi + 1):
            decayed = [(u * f) >> frac for f in factors]
            decayed += [u >> s for s in shifts[bits]]
            decayed += [u - (u >> n) for n in range(1, bits)]
            # toward 0 from u, so inside [lo, hi] as u is
            assert all(min(u, 0) <= d <= max(u, 0) for d in decayed)


def all_trains(n_channels, n_steps):
    cells = list(product(range(n_steps), range(n_channels)))
    for mask in range(1 << len(cells)):
        yield SpikeTrain(n_channels, n_steps,
                         [cell for i, cell in enumerate(cells) if mask >> i & 1])


def test_run_matches_qvalue_engine_bounded_exhaustive():
    """run() equals qvalue_engine on every train of 1 channel x <= 4 steps
    and 2 channels x <= 3 steps, with every 4-bit u_init, both resets, bias
    off and on, and all six architectures at beta 0.75 and threshold 5.
    Weights of 13 and -11 with a bias of -6 reach both rails and make steps
    whose partial sums span more than the membrane range."""
    domain = [((13,), n_steps) for n_steps in range(5)]
    domain += [((13, -11), n_steps) for n_steps in range(4)]
    for weights, n_steps in domain:
        configs = [
            NeuronConfig(mode=mode, decay_impl=decay, io_mode=io,
                         weights=weights, threshold=5, membrane_bits=4,
                         beta=BetaSpec.one_minus_pow2(2), reset_mode=reset,
                         bias=bias, u_init=u_init)
            for mode, decay, io in ALL_SIX
            for reset in ("zero", "subtract") for bias in (None, -6)
            for u_init in range(-8, 8)]
        for train in all_trains(len(weights), n_steps):
            for c in configs:
                assert run(c, train).records == qvalue_engine(c, train)[0]


@st.composite
def shared_train_cases(draw):
    """A train and, in a drawn order, configs of each of the six
    architectures for it under one to three parameter sets: a subtract or
    zero reset, an optional bias, and a membrane width, weights and decay
    factor per set. A set may repeat the first set's weights, so configs
    differ in bias or membrane width alone as well as in weights."""
    n = draw(st.integers(1, 8))
    train = draw(trains(n, draw(st.integers(0, 128))))
    weights = st.lists(st.integers(-32, 31), min_size=n, max_size=n)

    def params(weights):
        bits = draw(st.integers(4, 9))
        return dict(
            weights=weights, membrane_bits=bits,
            threshold=draw(st.integers(1, (1 << (bits - 1)) - 1)),
            reset_mode=draw(st.sampled_from(["zero", "subtract"])),
            bias=draw(st.none() | st.integers(-32, 31)),
            beta=BetaSpec.one_minus_pow2(draw(st.integers(1, bits - 1))))

    first = draw(weights)
    sets = [params(first)] + [params(draw(st.just(first) | weights))
                              for _ in range(draw(st.integers(0, 2)))]
    configs = [cfg(*key, n=n, **p) for key in ALL_SIX for p in sets]
    return train, draw(st.permutations(configs))


def fresh_copy(train):
    return SpikeTrain(train.n_channels, train.n_steps, train.sorted_events())


@settings(max_examples=300, deadline=None)
@given(case=shared_train_cases())
def test_engines_share_one_train_in_any_order(case):
    # the channel range and the entry columns are built once per train, the
    # columns per (weights, bias, membrane range) and mode; runs in any
    # order, and callers changing what steps_with_events() returned, must
    # leave every later run as it is on a fresh copy of the train
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


def test_steps_with_events_is_a_fresh_dict():
    train = SpikeTrain(4, 10, [(2, 1), (2, 3), (5, 0)])
    steps = train.steps_with_events()
    assert steps == {2: [1, 3], 5: [0]}
    steps[2].append(0)
    steps[7] = [0]
    assert steps is not train.steps_with_events()
    assert train.steps_with_events() == {2: [1, 3], 5: [0]}


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
        weights=weights, threshold=threshold,
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
    c = NeuronConfig(weights=(31,) * 4, threshold=60,
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


def reference_loop(config, train):
    """reference_run written as one settle() call per update, each record
    built as it is made, with nothing hoisted; the oracle that
    reference_run's loop must match bit for bit. Returns the records."""
    beta = config.beta.value
    thr = float(config.threshold)
    by_step = train.steps_with_events()
    records = []
    u = float(config.u_init)

    def settle(u_val):
        total = sum(config.weights[ch] for ch in chans)
        if config.bias is not None:
            total += config.bias
        u_val += total
        if u_val >= thr:
            return True, (0.0 if config.reset_mode == "zero" else u_val - thr)
        return False, u_val

    if config.mode == "clock":
        for t in range(train.n_steps):
            u *= beta
            chans = by_step.get(t, ())
            if chans or config.bias is not None:
                fired, u = settle(u)
            else:
                fired = u >= thr
                if fired:
                    u = 0.0 if config.reset_mode == "zero" else u - thr
            records.append(TraceRecord(t, u, fired))
        return records

    last = 0
    for t, chans in by_step.items():
        u *= beta ** (t - last)
        fired, u = settle(u)
        records.append(TraceRecord(t, u, fired))
        last = t
    if train.n_steps > 0:
        t_end = train.n_steps - 1
        if last < t_end or not records:
            u *= beta ** (t_end - last)
            records.append(TraceRecord(t_end, u, False))
    return records


@st.composite
def reference_cases(draw):
    """A config of any architecture, with a bias of None, 0 or either sign,
    any u_init, and an exact (down to underflowing) or 1 - 2**-n decay
    factor, and a train of 0-128 steps, often without events."""
    mode, decay, io = draw(st.sampled_from(ALL_SIX))
    n = draw(st.integers(1, 8))
    beta = betas(mode, decay, 9)
    if not (mode == "clock" and decay == "shift"):
        beta |= st.floats(1e-200, 1e-100).map(BetaSpec.exact)
    c = NeuronConfig(
        mode=mode, decay_impl=decay, io_mode=io,
        beta=draw(beta),
        weights=draw(st.lists(st.integers(-32, 31), min_size=n, max_size=n)),
        threshold=draw(st.integers(1, 255)),
        reset_mode=draw(st.sampled_from(["zero", "subtract"])),
        bias=draw(st.sampled_from([None, 0]) | st.integers(-32, 31)),
        u_init=draw(st.integers(-256, 255)))
    n_steps = draw(st.integers(0, 128))
    train = draw(trains(n, n_steps) | st.just(SpikeTrain(n, n_steps)))
    return c, train


def bits(records):
    return [(r.time, float.hex(r.u), r.fired) for r in records]


@settings(max_examples=500, deadline=None)
@given(case=reference_cases())
def test_reference_run_matches_loop_form_bit_for_bit(case):
    c, train = case
    assert bits(reference_run(c, train).records) == \
        bits(reference_loop(c, train))


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
