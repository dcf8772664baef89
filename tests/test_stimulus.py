import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lifsim import stimulus
from lifsim.stimulus import (
    DensityProfile,
    SpikeTrain,
    SpikeTrainParseError,
    decode_aer,
    decode_serial,
    encode_aer,
    encode_serial,
    generate,
    generate_preset,
    measure_density,
)


def random_train(rng, n_channels=8, n_steps=100):
    profile = DensityProfile(float(rng.uniform(0, 1)),
                             float(rng.uniform(0.13, 1)))
    return generate(profile, n_channels, n_steps, int(rng.integers(1 << 32)))


def test_train_validation():
    with pytest.raises(ValueError):
        SpikeTrain(8, 10, [(10, 0)])
    with pytest.raises(ValueError):
        SpikeTrain(8, 10, [(0, 8)])
    with pytest.raises(ValueError):
        SpikeTrain(8, 10, [(0, 0), (0, 0)])
    with pytest.raises(ValueError, match=r"\(1\.5, 2\)"):
        SpikeTrain(4, 10, [(1.5, 2)])


def test_measure_density_examples():
    assert measure_density(SpikeTrain(8, 4)) == DensityProfile(0, 0)
    full = SpikeTrain(2, 3, [(t, c) for t in range(3) for c in range(2)])
    assert measure_density(full) == DensityProfile(1, 1)
    train = SpikeTrain(8, 4, [(0, 0), (0, 1), (2, 3)])
    d = measure_density(train)
    assert d.temporal_density == 0.5
    assert d.input_density == pytest.approx(0.1875)


def test_generate_degenerate_profiles():
    assert generate(DensityProfile(0, 0.5), 8, 100, 1).events == set()
    full = generate(DensityProfile(1.0, 1.0), 8, 100, 1)
    assert len(full.events) == 800


def test_generate_rejects_empty_active_steps():
    with pytest.raises(ValueError):
        generate(DensityProfile(0.5, 0.0), 8, 100, 1)


def test_generate_deterministic():
    p = DensityProfile(0.4, 0.6)
    a = generate(p, 8, 200, 42)
    b = generate(p, 8, 200, 42)
    c = generate(p, 8, 200, 43)
    assert a == b
    assert a != c


def test_generate_every_active_step_nonempty():
    train = generate(DensityProfile(0.9, 0.14), 8, 500, 3)
    for chans in train.steps_with_events().values():
        assert len(chans) >= 1


def test_generate_hits_mnist_band():
    # 100% temporal / 13.2% input density, the image-dataset preset point
    train = generate(DensityProfile(1.0, 0.132), 8, 10_000, 5)
    d = measure_density(train)
    assert d.temporal_density == 1.0
    assert abs(d.input_density - 0.132) <= 0.02


@pytest.mark.parametrize("temporal,inp", [(0.3, 0.5), (0.8, 0.25), (0.95, 0.9)])
def test_generate_density_targets(temporal, inp):
    train = generate(DensityProfile(temporal, inp), 40, 10_000, 17)
    d = measure_density(train)
    assert abs(d.temporal_density - temporal) <= 0.02
    assert abs(d.input_density - inp) <= 0.02


def test_presets_reproduce_table_means():
    # enough channels that even the sparsest input density is reachable
    for name, (temporal, inp) in stimulus.PRESETS.items():
        train = generate_preset(name, 128, 10_000, 9)
        d = measure_density(train)
        assert abs(d.temporal_density - temporal) <= 0.02, name
        assert abs(d.input_density - inp) <= 0.02, name


def test_unknown_preset():
    with pytest.raises(ValueError):
        generate_preset("cifar", 8, 100, 0)


def test_encode_serial_example():
    train = SpikeTrain(3, 2, [(0, 0)])
    vectors = encode_serial(train)
    assert vectors.dtype == np.uint8
    assert np.array_equal(vectors, [(1, 0, 0), (0, 0, 0)])
    assert np.array_equal(encode_serial(SpikeTrain(3, 2)),
                          [(0, 0, 0), (0, 0, 0)])


def test_decode_serial_rejects_wrong_width():
    with pytest.raises(ValueError):
        decode_serial([(1, 0, 0), (0, 0)], 3)


@pytest.mark.parametrize("entry", [2, 0.5, -1, None, "1"])
def test_decode_serial_rejects_non_bits(entry):
    with pytest.raises(ValueError, match="step 0 has entry 0 "):
        decode_serial([(entry, 0, 0)], 3)
    with pytest.raises(ValueError, match="step 1 has entry 2 "):
        decode_serial([(0, 1, 0), (1, 0, entry)], 3)
    if isinstance(entry, (int, float)):
        with pytest.raises(ValueError, match="step 1 has entry 2 "):
            decode_serial(np.array([(0, 1, 0), (1, 0, entry)]), 3)


def test_decode_serial_accepts_any_bit_form():
    want = SpikeTrain(3, 2, [(0, 0), (0, 1), (1, 2)])
    for bits in ([(True, 1.0, 0), (0.0, False, 1)],
                 np.array([(1, 1, 0), (0, 0, 1)], dtype=bool),
                 np.array([(1, 1, 0), (0, 0, 1)], dtype=np.float32)):
        assert decode_serial(bits, 3) == want


def test_encode_aer_sort_order():
    train = SpikeTrain(8, 4, [(2, 3), (0, 1)])
    packets = encode_aer(train)
    assert packets.dtype == np.int64
    assert np.array_equal(packets, [(0, 1), (2, 3)])
    assert encode_aer(SpikeTrain(8, 4)).shape == (0, 2)


def test_decode_aer_rejects_bad_streams():
    train = SpikeTrain(8, 4, [(0, 1), (2, 3)])
    packets = encode_aer(train)
    with pytest.raises(ValueError):
        decode_aer(list(reversed(packets)), 8, 4)
    with pytest.raises(ValueError):
        decode_aer(packets, 8, 2)  # timestamp out of range
    with pytest.raises(ValueError):
        decode_aer(packets, 2, 4)  # address out of range
    with pytest.raises(ValueError, match=r"^packet \(1\.5, 2\) has a non-integer"):
        decode_aer([(1.5, 2)], 8, 4)
    with pytest.raises(ValueError, match=r"^packet \(1\.5, 2\) has a non-integer"):
        decode_aer(np.array([(1.5, 2)], dtype=object), 8, 4)
    with pytest.raises(ValueError, match=r"^packet \(1\.5, 2\.0\) has a non-integer"):
        decode_aer(np.array([(1.5, 2)]), 8, 4)
    # every packet needs exactly two fields, whatever its neighbours hold
    for stream, index in (([(0, 1, 2, 3)], 0), ([(0,), (1,)], 0),
                          ([(0, 1, 2)], 0), ([(0, 1), (1, 2, 3)], 1),
                          ([(0, 1), 2], 1), (np.zeros((2, 3), int), 0)):
        with pytest.raises(ValueError, match=f"^packet {index} is not a "):
            decode_aer(stream, 8, 4)


def test_codecs_do_not_alias():
    train = SpikeTrain(4, 3, [(0, 1), (2, 3)])
    same = SpikeTrain(4, 3, [(0, 1), (2, 3)])
    # mutating an encoded stream leaves its train alone
    encode_serial(train)[:] = 1
    encode_aer(train)[:] = 0
    assert train == same
    # mutating a decoder's input after the call leaves the train alone,
    # and the input stays the caller's to change
    for bits in (encode_serial(train), encode_serial(train).astype(bool)):
        decoded = decode_serial(bits, 4)
        bits[:] = 0
        assert bits.flags.writeable
        assert decoded == train
    for packets in (encode_aer(train), encode_aer(train).astype(np.int32),
                    encode_aer(train).astype(np.uint64)):
        decoded = decode_aer(packets, 4, 3)
        packets[:] = 0
        assert packets.flags.writeable
        assert decoded == train


def test_roundtrips_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        train = random_train(rng)
        assert decode_serial(encode_serial(train), train.n_channels) == train
        assert decode_aer(encode_aer(train), train.n_channels,
                          train.n_steps) == train


def test_save_load_roundtrip(tmp_path):
    train = SpikeTrain(8, 4, [(0, 0), (0, 1), (2, 3)])
    path = tmp_path / "t.spk"
    stimulus.save(train, path, metadata=["made for the round-trip test"])
    assert stimulus.load(path) == train


def test_save_load_roundtrip_random(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.spk"
    for _ in range(50):
        train = random_train(rng)
        stimulus.save(train, path)
        loaded = stimulus.load(path)
        assert loaded == train
        assert measure_density(loaded) == measure_density(train)


def test_load_rejects_out_of_range_event(tmp_path):
    path = tmp_path / "bad.spk"
    path.write_text("SPIKETRAIN v1 channels=8 steps=100\n999 0\n")
    with pytest.raises(SpikeTrainParseError, match=":2"):
        stimulus.load(path)


def test_load_rejects_duplicates_and_disorder(tmp_path):
    path = tmp_path / "bad.spk"
    path.write_text("SPIKETRAIN v1 channels=8 steps=100\n3 1\n3 1\n")
    with pytest.raises(SpikeTrainParseError, match="duplicate"):
        stimulus.load(path)
    path.write_text("SPIKETRAIN v1 channels=8 steps=100\n3 1\n2 0\n")
    with pytest.raises(SpikeTrainParseError, match="order"):
        stimulus.load(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.spk"
    path.write_text("SPIKETRAIN v2 channels=8 steps=100\n")
    with pytest.raises(SpikeTrainParseError):
        stimulus.load(path)
    path.write_text("1 2\n")
    with pytest.raises(SpikeTrainParseError):
        stimulus.load(path)
    path.write_text("SPIKETRAIN v1 channels=8 steps=100\none two\n")
    with pytest.raises(SpikeTrainParseError, match=":2"):
        stimulus.load(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok.spk"
    path.write_text(
        "SPIKETRAIN v1 channels=4 steps=10\n"
        "# a comment\n"
        "\n"
        "1 2  # trailing comment\n"
    )
    assert stimulus.load(path) == SpikeTrain(4, 10, [(1, 2)])


def test_save_golden_bytes(tmp_path):
    path = tmp_path / "t.spk"
    train = SpikeTrain(4, 12, [(11, 0), (3, 2), (3, 0), (0, 3)])
    stimulus.save(train, path, metadata=["seed=7"])
    assert path.read_bytes() == (
        b"SPIKETRAIN v1 channels=4 steps=12\n"
        b"# seed=7\n"
        b"0 3\n"
        b"3 0\n"
        b"3 2\n"
        b"11 0\n"
    )


# ---------------------------------------------------------------------------
# differential tests: references that work one event or one line at a
# time, which the columnar code must match exactly


class RefTrain:
    """Set-of-tuples SpikeTrain, checked one event at a time, plus the
    integer check."""

    def __init__(self, n_channels, n_steps, events=()):
        if n_channels < 1 or n_steps < 0:
            raise ValueError("n_channels must be >= 1 and n_steps >= 0")
        self.n_channels = n_channels
        self.n_steps = n_steps
        self.events = set()
        for t, ch in events:
            if not (isinstance(t, (int, np.integer))
                    and isinstance(ch, (int, np.integer))):
                raise ValueError(
                    f"event ({t!r}, {ch!r}) has a non-integer coordinate")
            if not 0 <= t < n_steps:
                raise ValueError(f"event time {t} outside [0, {n_steps})")
            if not 0 <= ch < n_channels:
                raise ValueError(
                    f"event channel {ch} outside [0, {n_channels})")
            if (t, ch) in self.events:
                raise ValueError(f"duplicate event ({t}, {ch})")
            self.events.add((t, ch))

    def sorted_events(self):
        return sorted(self.events)

    def steps_with_events(self):
        by_step = {}
        for t, ch in sorted(self.events):
            by_step.setdefault(t, []).append(ch)
        return by_step

    def measure_density(self):
        by_step = self.steps_with_events()
        if self.n_steps == 0 or not by_step:
            return DensityProfile(0.0, 0.0)
        temporal = len(by_step) / self.n_steps
        inp = sum(len(chs) for chs in by_step.values()) / (
            len(by_step) * self.n_channels)
        return DensityProfile(temporal, inp)

    def encode_serial(self):
        vectors = [[0] * self.n_channels for _ in range(self.n_steps)]
        for t, ch in self.events:
            vectors[t][ch] = 1
        return [tuple(v) for v in vectors]

    def save_text(self, metadata):
        out = [f"SPIKETRAIN v1 channels={self.n_channels} "
               f"steps={self.n_steps}\n"]
        out += [f"# {line}\n" for line in metadata]
        out += [f"{t} {ch}\n" for t, ch in self.sorted_events()]
        return "".join(out)


def is_int(v):
    return isinstance(v, (int, np.integer))


def ref_decode_aer(packets, n_channels, n_steps):
    events = []
    prev = None
    for i, p in enumerate(packets):
        if len(p) != 2:
            raise ValueError(f"packet {i} is not a (timestamp, address) pair")
        t, a = p
        if not (is_int(t) and is_int(a)):
            raise ValueError(f"packet ({t!r}, {a!r}) has a non-integer field")
        t, a = int(t), int(a)  # a bool field reads as the integer it is
        if not 0 <= t < n_steps:
            raise ValueError(f"packet timestamp {t} outside [0, {n_steps})")
        if not 0 <= a < n_channels:
            raise ValueError(f"packet address {a} outside [0, {n_channels})")
        if prev is not None and (t, a) <= prev:
            raise ValueError(f"packet stream not sorted at ({t}, {a})")
        prev = (t, a)
        events.append((t, a))
    return events


def ref_decode_serial(vectors, n_channels):
    events = []
    for t, vec in enumerate(vectors):
        if len(vec) != n_channels:
            raise ValueError(f"vector at step {t} has width {len(vec)}, "
                             f"expected {n_channels}")
        for i, v in enumerate(vec):
            if not (v == 0 or v == 1):
                raise ValueError(
                    f"vector at step {t} has entry {i} that is not 0 or 1")
            if v == 1:
                events.append((t, i))
    return events


def ref_load(path):
    """The line-by-line parser; returns (n_channels, n_steps, events)."""
    with open(path) as fh:
        lines = fh.readlines()
    header_seen = False
    n_channels = n_steps = None
    events = []
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            parts = line.split()
            if (
                len(parts) != 4
                or parts[0] != "SPIKETRAIN"
                or parts[1] != "v1"
                or not parts[2].startswith("channels=")
                or not parts[3].startswith("steps=")
            ):
                raise SpikeTrainParseError(f"{path}:{lineno}: bad header {line!r}")
            try:
                n_channels = int(parts[2][len("channels="):])
                n_steps = int(parts[3][len("steps="):])
            except ValueError:
                raise SpikeTrainParseError(
                    f"{path}:{lineno}: non-integer header field") from None
            header_seen = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SpikeTrainParseError(f"{path}:{lineno}: expected '<t> <ch>'")
        try:
            t, ch = int(parts[0]), int(parts[1])
        except ValueError:
            raise SpikeTrainParseError(
                f"{path}:{lineno}: non-integer event field") from None
        if not 0 <= t < n_steps:
            raise SpikeTrainParseError(
                f"{path}:{lineno}: event time {t} outside [0, {n_steps})")
        if not 0 <= ch < n_channels:
            raise SpikeTrainParseError(
                f"{path}:{lineno}: channel {ch} outside [0, {n_channels})")
        if events and (t, ch) == events[-1]:
            raise SpikeTrainParseError(
                f"{path}:{lineno}: duplicate event ({t}, {ch})")
        if events and (t, ch) < events[-1]:
            raise SpikeTrainParseError(
                f"{path}:{lineno}: events out of ascending (t, ch) order")
        events.append((t, ch))
    if not header_seen:
        raise SpikeTrainParseError(f"{path}: missing SPIKETRAIN header")
    return n_channels, n_steps, events


def outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


odd_coord = st.sampled_from([-1, 99, 1.5, 2.0, "3", None, np.int64(1)])


@st.composite
def event_lists(draw):
    """(n_channels, n_steps, events): in-range events, unsorted and with
    repeats, plus up to two odd events (out of range or not integers)."""
    n_channels, n_steps = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    cell = st.tuples(st.integers(0, max(n_steps - 1, 0)),
                     st.integers(0, n_channels - 1))
    events = draw(st.lists(cell, max_size=25))
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.tuples(st.one_of(odd_coord, st.integers(0, 8)),
                             st.one_of(odd_coord, st.integers(0, 6))))
        events.insert(draw(st.integers(0, len(events))), odd)
    return n_channels, n_steps, events


@settings(max_examples=400, deadline=None)
@given(case=event_lists(),
       metadata=st.lists(st.sampled_from(["seed=1", "a # b", ""]),
                         max_size=2))
def test_train_matches_set_reference(case, metadata):
    n_channels, n_steps, events = case
    got = outcome(SpikeTrain, n_channels, n_steps, events)
    want = outcome(RefTrain, n_channels, n_steps, events)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    train, ref = got[1], want[1]
    assert train.events == ref.events
    assert len(train.events) == train.n_events == len(ref.events)
    assert train.sorted_events() == ref.sorted_events()
    assert train.steps_with_events() == ref.steps_with_events()
    assert train.n_active_steps == len(ref.steps_with_events())
    assert measure_density(train) == ref.measure_density()
    assert encode_serial(train).shape == (n_steps, n_channels)
    assert list(map(tuple, encode_serial(train).tolist())) == \
        ref.encode_serial()
    assert encode_aer(train).shape == (len(ref.events), 2)
    assert list(map(tuple, encode_aer(train).tolist())) == \
        ref.sorted_events()
    assert decode_serial(ref.encode_serial(), n_channels) == train
    assert decode_serial(encode_serial(train), n_channels) == train
    assert decode_aer(encode_aer(train), n_channels, n_steps) == train
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.spk")
        stimulus.save(train, path, metadata)
        with open(path) as fh:
            assert fh.read() == ref.save_text(metadata)
        assert stimulus.load(path) == train


odd_field = st.sampled_from([-1, 99, 1.5, 2.0, "3", None, np.int64(1), True])
odd_packet = st.one_of(
    st.tuples(odd_field, st.integers(0, 6)),
    st.tuples(st.integers(0, 8), odd_field),
    st.lists(st.integers(0, 8), max_size=4).map(tuple))


@settings(max_examples=400, deadline=None)
@given(n_channels=st.integers(1, 6), n_steps=st.integers(1, 8),
       packets=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6)),
                        max_size=12),
       sort=st.booleans(),
       odd=st.lists(st.tuples(st.integers(0, 12), odd_packet), max_size=2),
       unsigned=st.booleans())
# a bool address out of range, reported by the range check as 1, not True
@example(n_channels=1, n_steps=1, packets=[], sort=False,
         odd=[(0, (0, True)), (1, ())], unsigned=False)
def test_decode_aer_matches_reference(n_channels, n_steps, packets, sort, odd,
                                      unsigned):
    """Each stream is decoded as a list of tuples and, where every packet
    is a pair, as an (n, 2) array: an integer one if every field is an
    integer (uint64 now and then, which takes the per-packet path), else
    an object array that keeps each field's type."""
    if sort:
        packets = sorted(packets)
    for i, p in odd:
        packets.insert(min(i, len(packets)), p)
    want = outcome(ref_decode_aer, packets, n_channels, n_steps)
    streams = [packets]
    if all(len(p) == 2 for p in packets):
        fields = [v for p in packets for v in p]
        if not all(is_int(v) for v in fields):
            dtype = object
        elif unsigned and min(fields, default=0) >= 0:
            dtype = np.uint64
        else:
            dtype = np.int64
        streams.append(np.array(packets, dtype=dtype).reshape(-1, 2))
    for stream in streams:
        got = outcome(decode_aer, stream, n_channels, n_steps)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].sorted_events() == want[1]
            assert (got[1].n_channels, got[1].n_steps) == (n_channels,
                                                           n_steps)
        else:
            assert got[1] == want[1]


odd_bit = st.sampled_from([2, -1, 0.5, 1.0, 0.0, True, False, float("nan"),
                           np.uint8(1), np.int64(2), None, "1"])


@settings(max_examples=400, deadline=None)
@given(n_channels=st.integers(1, 6), data=st.data(),
       dtype=st.sampled_from([None, np.uint8, bool, np.float64]))
def test_decode_serial_matches_reference(n_channels, data, dtype):
    """Bit vectors with up to two edits (an entry swapped for an odd value,
    an entry dropped or added), decoded as a list of tuples and, where the
    vectors are of one width, as a 2-D array: numeric if every entry is a
    number (of a drawn dtype if every entry is 0 or 1), else an object
    array that keeps each entry's type."""
    vectors = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n_channels,
                 max_size=n_channels), max_size=8))
    for _ in range(data.draw(st.integers(0, 2))):
        if not vectors:
            break
        vec = vectors[data.draw(st.integers(0, len(vectors) - 1))]
        edit = data.draw(st.sampled_from(["odd", "drop", "add"]))
        if edit == "odd" and vec:
            vec[data.draw(st.integers(0, len(vec) - 1))] = data.draw(odd_bit)
        elif edit == "drop" and vec:
            vec.pop()
        else:
            vec.append(data.draw(st.integers(0, 1)))
    vectors = [tuple(v) for v in vectors]
    want = outcome(ref_decode_serial, vectors, n_channels)
    streams = [vectors]
    widths = {len(v) for v in vectors}
    if len(widths) == 1:
        entries = [e for v in vectors for e in v]
        if not all(isinstance(e, (int, float, np.number)) for e in entries):
            streams.append(np.array(vectors, dtype=object))
        elif dtype is not None and all(e in (0, 1) for e in entries):
            streams.append(np.array(vectors, dtype=dtype))
        else:
            streams.append(np.array(vectors))
    for stream in streams:
        got = outcome(decode_serial, stream, n_channels)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert got[1].sorted_events() == want[1]
            assert (got[1].n_channels, got[1].n_steps) == (n_channels,
                                                           len(vectors))
        else:
            assert got[1] == want[1]


odd_line = st.sampled_from([
    "", "   ", "# note", "0", "0 0 0", "x 1", "1 1.5", "+1 0", "0 01",
    "1_0 2", "-1 0", "0 99", "2 1  # trailing", "\t4\t0 ",
    "99999999999999999999 0",
])
header_line = st.sampled_from([
    "SPIKETRAIN v2 channels=4 steps=8", "SPIKETRAIN v1 channels=x steps=8",
    "SPIKETRAIN v1 channels=0 steps=8", "1 2",
])


@st.composite
def train_files(draw):
    """Text of a spike-train file: a header (now and then a bad one or
    none), then event lines in ascending order with up to three edits:
    an odd line inserted, a line repeated or two lines swapped."""
    n_channels, n_steps = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = st.tuples(st.integers(0, n_steps - 1),
                      st.integers(0, n_channels - 1))
    lines = [f"{t} {ch}" for t, ch in
             sorted(draw(st.sets(cells, max_size=15)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["odd", "repeat", "swap"]))
        if edit == "odd":
            lines.insert(i, draw(odd_line))
        elif i < len(lines) and edit == "repeat":
            lines.insert(i, lines[i])
        elif i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    header = draw(st.one_of(
        st.just(f"SPIKETRAIN v1 channels={n_channels} steps={n_steps}"),
        st.just(None), header_line))
    lead = draw(st.lists(st.sampled_from(["", "# meta", "  "]), max_size=2))
    tail = draw(st.sampled_from(["", "\n"]))
    return "\n".join(lead + ([header] if header else []) + lines) + tail


@settings(max_examples=500, deadline=None)
@given(text=train_files())
def test_load_matches_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.spk")
        with open(path, "w") as fh:
            fh.write(text)
        got = outcome(stimulus.load, path)
        want = outcome(lambda p: RefTrain(*ref_load(p)), path)
    assert got[0] == want[0]
    if got[0] == "ok":
        train, ref = got[1], want[1]
        assert (train.n_channels, train.n_steps) == (ref.n_channels,
                                                     ref.n_steps)
        assert train.sorted_events() == ref.sorted_events()
    else:
        assert got[1] == want[1]
