import hashlib
import os
import re
import tempfile
import threading

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


def test_train_rejects_counts_beyond_int64():
    # an event time below a step count of 10**19 does not fit int64
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
        SpikeTrain(4, 10**19, [(9999999999999999999, 0)])
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
        SpikeTrain(2**63, 4)
    top = 2**63 - 1
    assert SpikeTrain(top, top, [(top - 1, top - 1)]).t.tolist() == [top - 1]


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
        train = generate(DensityProfile(temporal, inp), 128, 10_000, 9)
        d = measure_density(train)
        assert abs(d.temporal_density - temporal) <= 0.02, name
        assert abs(d.input_density - inp) <= 0.02, name


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


def test_decode_aer_rejects_counts_beyond_int64():
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
        decode_aer([(9999999999999999999, 0)], 4, 10**19)
    top = 2**63 - 1
    assert decode_aer([(top - 1, 0)], 4, top) == \
        SpikeTrain(4, top, [(top - 1, 0)])


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


def test_load_rejects_counts_beyond_int64(tmp_path):
    path = tmp_path / "big.spk"
    path.write_text("# a comment\n"
                    "SPIKETRAIN v1 channels=4 steps=10000000000000000000\n"
                    "9999999999999999999 0\n")
    with pytest.raises(SpikeTrainParseError,
                       match=r"big\.spk:2: .*at most 2\*\*63 - 1"):
        stimulus.load(path)
    top = 2**63 - 1
    path.write_text(f"SPIKETRAIN v1 channels=4 steps={top}\n{top - 1} 3\n")
    assert stimulus.load(path) == SpikeTrain(4, top, [(top - 1, 3)])


@pytest.mark.parametrize("text,line", [
    ("SPIKETRAIN v1 channels=0 steps=10\n", 1),
    ("# a comment\nSPIKETRAIN v1 channels=4 steps=-1\n0 1\n", 2),
])
def test_load_rejects_counts_below_minimum(tmp_path, text, line):
    """The header names the fault, with or without event lines after it."""
    path = tmp_path / "low.spk"
    path.write_text(text)
    with pytest.raises(SpikeTrainParseError) as exc:
        stimulus.load(path)
    assert str(exc.value) == \
        f"{path}:{line}: channels must be >= 1 and steps >= 0"


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


# sha256 of save's bytes for generate(DensityProfile(temporal, input), 40,
# 10_000, seed=k), with metadata ["seed=<k>"], k counting the profiles from 0
NINE_PROFILE_SAVE_SHA256 = [
    (0.05, 0.05, "a73fcce2c9098e73ae5967afaa5ccd9ab75919fd026d62625c71ca29871258ff"),
    (0.05, 0.5, "ec6bace2af0990ccbe0c4062f4e82527d7e17491743f7f48373f7f4abde6923e"),
    (0.05, 0.95, "01ab7a1532b878ec034fe1eaadfe9126327821884f2e10fbbe01fdfb9fc0faa7"),
    (0.5, 0.05, "f5d54dafe784050bbeb6e4d0495c5fa25106f846530cca511d8cee306ddeb367"),
    (0.5, 0.5, "16758452366e14a4e0d2d51d8283f11399b5bdbe69731e16e10866bc72fdf63f"),
    (0.5, 0.95, "da977ce1818bde351e7bf76616eb872f6173b24f51ecea96795ce4311449c77e"),
    (0.95, 0.05, "77c37c915d36ea4f482b55ade08becc10931f41afadb0d8baf1c52ba16ad9420"),
    (0.95, 0.5, "1df92f72682b1dacf56192546eaad766a94b4ed5aae38923573dc53fbb6ef163"),
    (0.95, 0.95, "8e4b52dc98e620c0447af7b6934153e71296254a456b65d8d0951210a9717411"),
]


def test_save_bytes_anchor_nine_profiles(tmp_path):
    """generate and save keep their bytes on dataset-scale trains."""
    path = tmp_path / "t.spk"
    for k, (temporal, inp, want) in enumerate(NINE_PROFILE_SAVE_SHA256):
        train = generate(DensityProfile(temporal, inp), 40, 10_000, k)
        stimulus.save(train, path, metadata=[f"seed={k}"])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, \
            (temporal, inp)


@pytest.mark.parametrize("line", ["note\r0 1", "note\n0 1", "a\r\nb", "\n"])
def test_save_rejects_line_break_in_metadata(tmp_path, line):
    """A line break would end the comment early, and load would read what
    follows it as an event."""
    path = tmp_path / "t.spk"
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        stimulus.save(SpikeTrain(2, 5, [(3, 0)]), path,
                      metadata=["fine", line])
    assert not path.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_from_pipe(tmp_path):
    """load reads the file once, in order, so a pipe, which cannot seek,
    loads like a file."""
    train = generate(DensityProfile(0.5, 0.5), 8, 100, 3)
    path, fifo = tmp_path / "t.spk", tmp_path / "fifo"
    stimulus.save(train, path, metadata=["seed=3"])
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert stimulus.load(fifo) == train
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_active_step_index_built_on_first_use(tmp_path):
    train = generate(DensityProfile(0.5, 0.5), 8, 100, 3)
    path = tmp_path / "t.spk"
    stimulus.save(train, path)
    assert "_step_starts" not in vars(train)
    copies = [stimulus.load(path), decode_serial(encode_serial(train), 8),
              decode_aer(encode_aer(train), 8, 100)]
    for copy in copies:
        assert copy == train
        assert "_step_starts" not in vars(copy)
        assert copy.n_active_steps == train.n_active_steps == \
            len(set(train.t.tolist()))


# values on both sides of each width at which a field gains a digit
WIDTH_EDGES = (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1023, 9999, 10000,
               10001, 999_999, 1_000_000, 9_999_999)


def near_edges(n):
    """Values in [0, n), mostly next to a width edge."""
    edges = [v for v in WIDTH_EDGES if v < n] + [n - 1]
    return st.one_of(st.sampled_from(edges), st.integers(0, n - 1))


@st.composite
def sparse_trains(draw):
    """Up to 10^7 steps and 1024 channels, with up to 40 events."""
    n_steps = draw(st.one_of(
        st.sampled_from((0,) + WIDTH_EDGES[1:] + (10**7,)),
        st.integers(0, 10**7)))
    n_channels = draw(st.one_of(st.sampled_from((1, 2, 9, 10, 11, 100, 101,
                                                 1000, 1024)),
                                st.integers(1, 1024)))
    if n_steps == 0:
        return SpikeTrain(n_channels, 0)
    cells = st.tuples(near_edges(n_steps), near_edges(n_channels))
    return SpikeTrain(n_channels, n_steps, draw(st.sets(cells, max_size=40)))


@settings(max_examples=400, deadline=None)
@given(train=sparse_trains(),
       metadata=st.lists(st.sampled_from(["seed=7", "a # b", ""]),
                         max_size=2))
@example(train=SpikeTrain(3, 0), metadata=[])
@example(train=SpikeTrain(3, 0), metadata=["seed=7"])
@example(train=SpikeTrain(1024, 10**7), metadata=["seed=7"])
@example(train=SpikeTrain(1024, 10**7, [(9_999_999, 1023), (9, 9), (10, 10),
                                        (99, 99), (100, 100), (9999, 0),
                                        (10000, 1)]),
         metadata=[])
def test_save_matches_reference_formatter(train, metadata):
    """save's bytes are those of one f-string per event."""
    want = (f"SPIKETRAIN v1 channels={train.n_channels} "
            f"steps={train.n_steps}\n"
            + "".join(f"# {line}\n" for line in metadata)
            + "".join(f"{t} {ch}\n" for t, ch in train.sorted_events()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.spk")
        stimulus.save(train, path, metadata)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("ascii")
        assert stimulus.load(path) == train


def test_large_canonical_round_trip(tmp_path, monkeypatch):
    """A 40 ch x 10k-step train at density (0.95, 0.95) goes through the
    bulk parse, and its errors name the same lines as the line parser's."""
    train = generate(DensityProfile(0.95, 0.95), 40, 10_000, 5)
    assert train.n_events > 300_000
    path = tmp_path / "t.spk"
    stimulus.save(train, path, metadata=["seed=5", "dense"])
    with monkeypatch.context() as m:
        def line_parser_not_expected(*args):
            raise AssertionError("canonical text took the line parser")
        m.setattr(stimulus, "_parse_event_lines", line_parser_not_expected)
        assert stimulus.load(path) == train
    lines = path.read_text().split("\n")
    k = len(lines) - 1000
    lines[k], lines[k + 1] = lines[k + 1], lines[k]  # out of order
    path.write_text("\n".join(lines))
    with pytest.raises(SpikeTrainParseError) as exc:
        stimulus.load(path)
    assert str(exc.value) == \
        f"{path}:{k + 2}: events out of ascending (t, ch) order"
    # the same edit with a comment on each line takes the line parser
    path.write_text("\n".join(line + " # c" if line else line
                              for line in lines))
    with pytest.raises(SpikeTrainParseError) as exc_lines:
        stimulus.load(path)
    assert str(exc_lines.value) == str(exc.value)


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
            if n_channels < 1 or n_steps < 0:
                raise SpikeTrainParseError(f"{path}:{lineno}: channels must "
                                           f"be >= 1 and steps >= 0")
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
    # canonical, though not as save writes it: the bulk parse takes these
    "007 1", "000000000000000002 0", "999999999999999999 0",
    # not canonical: the line parser takes these
    "3 1\r", "\u0663 1", "3\x0b1", "0000000000000000001 1",
    "1000000000000000000 0", "9999999999999999999 0",
    "99999999999999999999 0",
])
header_line = st.sampled_from([
    "SPIKETRAIN v2 channels=4 steps=8", "SPIKETRAIN v1 channels=x steps=8",
    "SPIKETRAIN v1 channels=0 steps=8", "1 2",
])


@st.composite
def train_files(draw):
    """Text of a spike-train file: a header (now and then a bad one or
    none), comment and blank lines, then event lines in ascending order
    with up to three edits: an odd line inserted, a line repeated or two
    lines swapped. Lines end in LF, CRLF or CR. Without an odd line and
    with a final line end, the event lines are canonical once CR and CRLF
    are read as LF."""
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
    meta = draw(st.lists(st.sampled_from(["# seed=7", "", "#", " # x\r"]),
                         max_size=3))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", eol]))
    return eol.join(lead + ([header] if header else []) + meta
                    + lines) + tail


EDGE_BODIES = [
    "007 1\n", "000000000000000002 0\n", "999999999999999999 3\n",
    "0000000000000000001 1\n", "1000000000000000000 0\n",
    "9999999999999999999 0\n", "99999999999999999999 0\n",
    "1 2\n9999999999999999999 0\n", "0 9999999999999999999\n", "3 1\r\n",
    "\u0663 1\n", "3\x0b1\n", "3 1", "3 1\n4 0", "1 2\r3 0\r",
    "1 2\r\r3 0", "0\n0 0 0\n", "0 0 0\n0\n", "1 2\n\n3 0\n",
    "1 2\n# c\n3 0\n", "1 2 \n", " 1 2\n", "1  2\n", "1\t2\n",
    "1 2\n1 2\n", "1 3\n1 2\n", "1 9\n",
]


@pytest.mark.parametrize("steps", [8, 10**18])
@pytest.mark.parametrize("body", EDGE_BODIES)
def test_load_edges_match_line_parser(tmp_path, body, steps):
    """Edges of the canonical form, on each side of it: leading zeros,
    18 to 20 digits, CR and CRLF line ends, a non-ASCII digit, a vertical
    tab, no final newline, a line with too many or too few fields, a blank
    or comment line between events, other whitespace, and faults the range
    and order check finds."""
    path = tmp_path / "t.spk"
    with open(path, "w") as fh:
        fh.write(f"SPIKETRAIN v1 channels=4 steps={steps}\n# seed=1\n\n"
                 + body)
    got = outcome(stimulus.load, path)
    want = outcome(lambda p: RefTrain(*ref_load(p)), path)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].sorted_events() == want[1].sorted_events()
    else:
        assert got[1] == want[1]


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


# ---------------------------------------------------------------------------
# differential tests of the flat-index train layer against the code it
# replaced: generate with 2-D nonzero and a redraw loop that rescans every
# row, the 2-D serial codec, and the stream check without its fast accept


def ref_generate(profile, n_channels, n_steps, seed):
    """(t, ch, forced) of generate's train, forced being the number of
    steps still empty after the last redraw."""
    rng = np.random.default_rng(seed)
    p_ch = stimulus._effective_channel_prob(profile.input_density, n_channels)
    active_steps = np.nonzero(rng.random(n_steps) < profile.temporal_density)[0]
    if active_steps.size == 0:
        return [], [], 0
    if p_ch is None:
        chans = rng.integers(n_channels, size=active_steps.size)
        return active_steps.tolist(), chans.tolist(), 0
    masks = rng.random((active_steps.size, n_channels)) < p_ch
    empty = ~masks.any(axis=1)
    for _ in range(99):
        if not empty.any():
            break
        masks[empty] = rng.random((int(empty.sum()), n_channels)) < p_ch
        empty = ~masks.any(axis=1)
    masks[empty, 0] = True
    rows, cols = np.nonzero(masks)
    return active_steps[rows].tolist(), cols.tolist(), int(empty.sum())


@st.composite
def generate_cases(draw):
    """(profile, n_channels, n_steps): input densities anywhere in (0, 1],
    at or below 1/C (single-channel mode), or just above 1/C, where the
    per-channel probability is so small that steps reach the redraw
    limit."""
    n_channels, n_steps = draw(st.integers(1, 64)), draw(st.integers(1, 500))
    temporal = draw(st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.0]),
                              st.floats(0, 1)))
    inp = draw(st.one_of(
        st.floats(0.001, 1), st.sampled_from([1.0, 1 / n_channels]),
        st.floats(0.001, 1 / n_channels),
        st.sampled_from([1.0001, 1.001, 1.01]).map(lambda f: f / n_channels)
        .filter(lambda v: v <= 1)))
    return DensityProfile(temporal, inp), n_channels, n_steps


@settings(max_examples=300, deadline=None)
@given(case=generate_cases(), seed=st.integers(0, 2**64 - 1))
@example(case=(DensityProfile(1.0, 0.5001), 2, 200), seed=0)
@example(case=(DensityProfile(0.95, 0.05), 40, 500), seed=1)
@example(case=(DensityProfile(0.5, 0.01), 64, 500), seed=2)
def test_generate_matches_reference(case, seed):
    profile, n_channels, n_steps = case
    train = generate(profile, n_channels, n_steps, seed)
    t, ch, _ = ref_generate(profile, n_channels, n_steps, seed)
    assert train.t.tolist() == t
    assert train.ch.tolist() == ch
    assert train.t.dtype == train.ch.dtype == np.int64


def test_generate_reference_cases_reach_each_path():
    """The pinned examples above take the forced-channel and the
    single-channel path."""
    assert ref_generate(DensityProfile(1.0, 0.5001), 2, 200, 0)[2] > 0
    assert stimulus._effective_channel_prob(0.01, 64) is None


def frozen_generate(profile, n_channels, n_steps, seed):
    """generate as it was before it skipped its no-op passes: the retry
    set-up and the forced-channel write run even when no row is empty, and
    the masks go through np.flatnonzero."""
    if n_steps < 1 or n_channels < 1:
        raise ValueError("n_channels and n_steps must be >= 1")
    if profile.temporal_density > 0.0 and profile.input_density == 0.0:
        raise ValueError("input_density 0 with temporal_density > 0: "
                         "an active step cannot be empty")
    rng = np.random.default_rng(seed)
    p_ch = stimulus._effective_channel_prob(profile.input_density, n_channels)
    active_steps = np.flatnonzero(rng.random(n_steps) < profile.temporal_density)
    if active_steps.size == 0:
        return SpikeTrain(n_channels, n_steps)
    if p_ch is None:
        chans = rng.integers(n_channels, size=active_steps.size)
        return SpikeTrain._from_sorted(n_channels, n_steps, active_steps, chans)
    masks = rng.random((active_steps.size, n_channels)) < p_ch
    empty = np.flatnonzero(~masks.any(axis=1))
    for _ in range(99):
        if not empty.size:
            break
        redraw = rng.random((empty.size, n_channels)) < p_ch
        masks[empty] = redraw
        empty = empty[~redraw.any(axis=1)]
    masks[empty, 0] = True
    flat = np.flatnonzero(masks)
    rows = flat // n_channels
    return SpikeTrain._from_sorted(n_channels, n_steps, active_steps[rows],
                                   flat - rows * n_channels)


@st.composite
def frozen_generate_cases(draw):
    """(profile, n_channels, n_steps): 1-40 channels, 1-200 steps, input
    densities anywhere in (0, 1] and down to just above 1/C."""
    n_channels, n_steps = draw(st.integers(1, 40)), draw(st.integers(1, 200))
    temporal = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                              st.floats(0, 1)))
    inp = draw(st.one_of(
        st.floats(0.001, 1),
        st.floats(1e-9, 1e-2).map(lambda d: (1 + d) / n_channels)
        .filter(lambda v: v <= 1)))
    return DensityProfile(temporal, inp), n_channels, n_steps


@settings(max_examples=300, deadline=None)
@given(case=frozen_generate_cases(), seed=st.integers(0, 2**64 - 1))
# input density 1e-6 above 1/40: nearly every step is still empty after
# the 99 redraws and takes the forced single channel
@example(case=(DensityProfile(1.0, 1 / 40 + 1e-6), 40, 50), seed=5)
def test_generate_matches_frozen_copy(case, seed):
    # the same RNG calls and the same train as before the no-op passes went
    profile, n_channels, n_steps = case
    train = generate(profile, n_channels, n_steps, seed)
    frozen = frozen_generate(profile, n_channels, n_steps, seed)
    assert train == frozen
    assert train.t.dtype == train.ch.dtype == np.int64


def test_frozen_copy_example_reaches_forced_channel():
    """The pinned example above leaves steps empty after 99 redraws."""
    profile = DensityProfile(1.0, 1 / 40 + 1e-6)
    assert stimulus._effective_channel_prob(profile.input_density, 40) > 0
    assert ref_generate(profile, 40, 50, 5)[2] > 0
    train = generate(profile, 40, 50, 5)
    assert train == frozen_generate(profile, 40, 50, 5)
    assert 0 in train.ch


# seeds of one to two SeedSequence words, at both ends of each
seeds_u64 = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
             | st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(seeds_u64, min_size=1, max_size=40))
@example(seeds=[0, 12345, 2**64 - 1])
def test_generators_match_default_rng(seeds):
    rngs = list(stimulus.generators(np.array(seeds, dtype=np.uint64)))
    assert len(rngs) == len(seeds)
    for rng, seed in zip(rngs, seeds):
        assert rng.bit_generator.state == \
            np.random.default_rng(seed).bit_generator.state
        assert rng.random(3).tolist() == \
            np.random.default_rng(seed).random(3).tolist()


@settings(max_examples=200, deadline=None)
@given(case=generate_cases(), seeds=st.lists(seeds_u64, min_size=1,
                                             max_size=3))
def test_generate_on_a_seeded_generator_matches_the_int(case, seeds):
    profile, n_channels, n_steps = case
    rngs = stimulus.generators(np.array(seeds, dtype=np.uint64))
    for rng, seed in zip(rngs, seeds):
        assert generate(profile, n_channels, n_steps, rng) == \
            generate(profile, n_channels, n_steps, seed)


@pytest.mark.parametrize("seeds,message", [
    ([3, -1], "expected non-negative integer"),
    # ints on both sides of 2**63 make a float array, not a wrapped one
    ([1, 2**64 - 1], "1-D integer array"),
    ([1.5], "1-D integer array"),
    ([[1, 2]], "1-D integer array"),
])
def test_generators_reject_bad_seeds(seeds, message):
    with pytest.raises(ValueError, match=message):
        stimulus.generators(seeds)


def ref_encode_serial(train):
    bits = np.zeros((train.n_steps, train.n_channels), dtype=np.uint8)
    bits[train.t, train.ch] = 1
    return bits


def ref_serial_fault(vectors, n_channels):
    for t, vec in enumerate(vectors):
        if len(vec) != n_channels:
            return f"vector at step {t} has width {len(vec)}, expected {n_channels}"
        for i, v in enumerate(vec):
            if np.ndim(v) != 0 or not (v == 0 or v == 1):
                return f"vector at step {t} has entry {i} that is not 0 or 1"
    return None


def ref_decode_serial_2d(vectors, n_channels):
    """(t, ch, n_steps) of decode_serial's train."""
    try:
        bits = np.asarray(vectors)
    except ValueError:
        bits = None
    if (bits is None or bits.ndim != 2 or bits.shape[1] != n_channels
            or bits.dtype.kind not in "biuf"
            or not ((bits == 0) | (bits == 1)).all()):
        fault = ref_serial_fault(vectors, n_channels)
        if fault is not None:
            raise ValueError(fault)
        bits = np.array(vectors, dtype=bool).reshape(len(vectors), n_channels)
    t, ch = np.nonzero(bits)
    return t.tolist(), ch.tolist(), len(bits)


# entries that are not bits, by the dtype that holds them
NON_BITS = {bool: [], np.uint8: [2, 255], np.int8: [2, -1, -128],
            np.int64: [2, -1, 2**62], np.float64: [0.5, -1.0, 2.0, np.nan,
                                                  np.inf, 1 + 1e-12]}


@settings(max_examples=400, deadline=None)
@given(n_channels=st.integers(1, 64), n_steps=st.integers(0, 40),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(list(NON_BITS)),
       layout=st.sampled_from(["c", "fortran", "every other column",
                               "every other row", "reversed rows"]),
       n_odd=st.integers(0, 3), data=st.data())
def test_serial_codec_matches_reference(n_channels, n_steps, density, seed,
                                        dtype, layout, n_odd, data):
    """encode_serial equals the 2-D scatter, and decode_serial the 2-D
    nonzero with its full check, on every dtype, on views that are not
    C-contiguous, on T = 0 and with up to three entries that are not
    bits."""
    rng = np.random.default_rng(seed)
    bits = rng.random((n_steps, n_channels)) < density
    train = decode_serial(bits, n_channels)
    encoded = encode_serial(train)
    assert encoded.dtype == np.uint8
    assert np.array_equal(encoded, ref_encode_serial(train))
    rows = 2 * n_steps if layout == "every other row" else n_steps
    cols = 2 * n_channels if layout == "every other column" else n_channels
    base = np.zeros((rows, cols), dtype=dtype)
    if layout == "fortran":
        base = np.asfortranarray(base)
    view = {"every other column": base[:, ::2],
            "every other row": base[::2],
            "reversed rows": base[::-1]}.get(layout, base)
    view[...] = bits
    if n_steps and NON_BITS[dtype]:
        for _ in range(n_odd):
            view[data.draw(st.integers(0, n_steps - 1)),
                 data.draw(st.integers(0, n_channels - 1))] = \
                data.draw(st.sampled_from(NON_BITS[dtype]))
    got = outcome(decode_serial, view, n_channels)
    want = outcome(ref_decode_serial_2d, view, n_channels)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert (got[1].t.tolist(), got[1].ch.tolist(),
                got[1].n_steps) == want[1]
    else:
        assert got[1] == want[1]


def ref_stream_fault(t, ch, n_channels, n_steps, messages):
    bad_t = (t < 0) | (t >= n_steps)
    bad_ch = (ch < 0) | (ch >= n_channels)
    dt, dch = np.diff(t), np.diff(ch)
    bad_order = np.zeros(len(t), dtype=bool)
    bad_order[1:] = (dt < 0) | ((dt == 0) & (dch <= 0))
    bad = bad_t | bad_ch | bad_order
    if not bad.any():
        return None
    i = int(bad.argmax())
    if bad_t[i]:
        kind = "time"
    elif bad_ch[i]:
        kind = "channel"
    else:
        kind = "duplicate" if dt[i - 1] == 0 and dch[i - 1] == 0 else "order"
    return i, messages[kind].format(t=t[i], ch=ch[i], n_channels=n_channels,
                                    n_steps=n_steps)


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# a coordinate out of range: "edge" is the count itself, one past the top
odd_coord_value = st.sampled_from(["edge", -1, INT64_MIN, INT64_MAX, 10**20])


@settings(max_examples=500, deadline=None)
@given(n_channels=st.integers(1, 6), n_steps=st.integers(1, 10),
       cells=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 5)),
                     max_size=20),
       faults=st.lists(st.tuples(
           st.sampled_from(["time", "channel", "repeat", "swap", "both"]),
           st.integers(0, 20), odd_coord_value, odd_coord_value),
           max_size=3),
       as_object=st.booleans(), aer=st.booleans())
def test_stream_fault_matches_reference(n_channels, n_steps, cells, faults,
                                        as_object, aer):
    """The same (index, message), or None, on sorted streams of in-range
    events with up to three faults injected: a time or channel out of range
    (one past the top, int64 extremes, and beyond int64 in object streams),
    a repeated event, two events swapped."""
    events = sorted({(t % n_steps, ch % n_channels) for t, ch in cells})
    for kind, i, t_odd, ch_odd in faults:
        t_odd = n_steps if t_odd == "edge" else t_odd
        ch_odd = n_channels if ch_odd == "edge" else ch_odd
        if not as_object:
            t_odd, ch_odd = min(t_odd, INT64_MAX), min(ch_odd, INT64_MAX)
        i %= len(events) + 1
        if kind == "time":
            events.insert(i, (t_odd, 0))
        elif kind == "channel":
            events.insert(i, (events[i - 1][0] if i else 0, ch_odd))
        elif kind == "both":
            events.insert(i, (t_odd, ch_odd))
        elif kind == "repeat" and i < len(events):
            events.insert(i, events[i])
        elif kind == "swap" and i + 1 < len(events):
            events[i], events[i + 1] = events[i + 1], events[i]
    dtype = object if as_object else np.int64
    t = np.array([e[0] for e in events], dtype=dtype)
    ch = np.array([e[1] for e in events], dtype=dtype)
    messages = stimulus._AER_FAULTS if aer else stimulus._FILE_FAULTS
    want = ref_stream_fault(t, ch, n_channels, n_steps, messages)
    assert stimulus._stream_fault(t, ch, n_channels, n_steps,
                                  messages) == want
