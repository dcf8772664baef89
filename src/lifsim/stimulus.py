"""Sparsity-controlled spike-train generation, encoding and persistence.

Density is controlled along two axes: temporal density (fraction of
timesteps with at least one spike) and input density (mean fraction of
channels active *within* active timesteps — the conditional definition,
which is the only one under which a dataset can pair 16.6% temporal with
74.8% input density).

Random generation uses numpy's PCG64 generator seeded from a 64-bit
integer; the algorithm name is recorded in saved files so results are
reproducible.
"""

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from types import MappingProxyType

import numpy as np

RNG_ALGORITHM = "numpy-PCG64"

# Dataset-style density presets: (temporal_density, input_density) means.
PRESETS = {
    "mnist": (1.00, 0.132),
    "nmnist": (0.937, 0.016),
    "audiomnist": (0.166, 0.748),
}


class SpikeTrainParseError(ValueError):
    """Malformed spike-train file; message carries the offending line."""


@dataclass(frozen=True)
class DensityProfile:
    temporal_density: float
    input_density: float

    def __post_init__(self):
        for name in ("temporal_density", "input_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def _is_int(v):
    return isinstance(v, (int, np.integer))


class SpikeTrain:
    """Events on a fixed (timestep, channel) grid, stored as columns.

    `t` and `ch` are read-only int64 arrays sorted by (t, ch), without
    duplicates. `n_events`, `n_active_steps` (steps with at least one
    event) and the index in `t` at which each active step starts are
    derived once, at construction; `active_steps` and `channel_bounds` are
    derived once, on first use.
    """

    def __init__(self, n_channels, n_steps, events=()):
        if n_channels < 1 or n_steps < 0:
            raise ValueError("n_channels must be >= 1 and n_steps >= 0")
        # the scan stops at the first non-integer or out-of-range event; its
        # fault is raised only if no earlier event repeats another, so the
        # error names the first faulty event in input order
        fault = None
        ts, chs = [], []
        for t, ch in events:
            if not (_is_int(t) and _is_int(ch)):
                fault = f"event ({t!r}, {ch!r}) has a non-integer coordinate"
            elif not 0 <= t < n_steps:
                fault = f"event time {t} outside [0, {n_steps})"
            elif not 0 <= ch < n_channels:
                fault = f"event channel {ch} outside [0, {n_channels})"
            if fault is not None:
                break
            ts.append(t)
            chs.append(ch)
        t = np.array(ts, dtype=np.int64)
        ch = np.array(chs, dtype=np.int64)
        order = np.lexsort((ch, t))  # stable: a repeat sorts after its first
        t, ch = t[order], ch[order]
        dup = (t[1:] == t[:-1]) & (ch[1:] == ch[:-1])
        if dup.any():
            i = int(order[1:][dup].min())
            raise ValueError(f"duplicate event ({ts[i]}, {chs[i]})")
        if fault is not None:
            raise ValueError(fault)
        self._set(n_channels, n_steps, t, ch)

    @classmethod
    def _from_sorted(cls, n_channels, n_steps, t, ch):
        """Wrap columns already in range, sorted by (t, ch) and unique."""
        train = cls.__new__(cls)
        train._set(n_channels, n_steps, np.asarray(t, dtype=np.int64),
                   np.asarray(ch, dtype=np.int64))
        return train

    def _set(self, n_channels, n_steps, t, ch):
        self.n_channels = n_channels
        self.n_steps = n_steps
        t.flags.writeable = False
        ch.flags.writeable = False
        self.t = t
        self.ch = ch
        self.n_events = len(t)
        self._step_starts = np.flatnonzero(np.diff(t, prepend=-1))
        self.n_active_steps = len(self._step_starts)

    @property
    def events(self):
        """The events as a set of (t, ch) tuples, built on each access."""
        return set(zip(self.t.tolist(), self.ch.tolist()))

    def sorted_events(self):
        return list(zip(self.t.tolist(), self.ch.tolist()))

    @cached_property
    def active_steps(self):
        """Read-only map timestep -> tuple of sorted channels, active steps
        only, in time order. Built once per train; the engines read it."""
        chs = tuple(self.ch.tolist())
        bounds = self._step_starts.tolist() + [self.n_events]
        return MappingProxyType({
            t: chs[lo:hi]
            for t, lo, hi in zip(self.t[self._step_starts].tolist(),
                                 bounds, bounds[1:])
        })

    @cached_property
    def channel_bounds(self):
        """(lowest, highest) channel of any event, or None without events."""
        if not self.n_events:
            return None
        return int(self.ch.min()), int(self.ch.max())

    def steps_with_events(self):
        """Map timestep -> sorted channels, active steps only, time order.

        A new dict of new lists on each call, free for the caller to change.
        """
        return {t: list(chans) for t, chans in self.active_steps.items()}

    def __eq__(self, other):
        return (
            isinstance(other, SpikeTrain)
            and self.n_channels == other.n_channels
            and self.n_steps == other.n_steps
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.ch, other.ch)
        )

    def __repr__(self):
        return (
            f"SpikeTrain(channels={self.n_channels}, steps={self.n_steps}, "
            f"events={self.n_events})"
        )


# messages for the first fault of a stream that must be strictly ascending
# in (t, ch), by kind; formatted with t, ch, n_channels and n_steps
_FILE_FAULTS = {
    "time": "event time {t} outside [0, {n_steps})",
    "channel": "channel {ch} outside [0, {n_channels})",
    "duplicate": "duplicate event ({t}, {ch})",
    "order": "events out of ascending (t, ch) order",
}
_AER_FAULTS = {
    "time": "packet timestamp {t} outside [0, {n_steps})",
    "channel": "packet address {ch} outside [0, {n_channels})",
    "duplicate": "packet stream not sorted at ({t}, {ch})",
    "order": "packet stream not sorted at ({t}, {ch})",
}


def _stream_fault(t, ch, n_channels, n_steps, messages):
    """(index, message) for the first event of a stream that must be
    strictly ascending in (t, ch), or None. Within one event a time fault
    comes before a channel fault, and both before a repeat or disorder."""
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


# the default tolerances and iteration cap of SciPy's brentq
_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100
# low end of the bracket for the per-channel probability
_P_LOW = 1e-12


def _brentq(f, xa, xb):
    """Root of f in [xa, xb] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    A port of SciPy's brentq (its brentq.c) at its default xtol, rtol and
    maxiter: the same float operations in the same order, so it returns the
    same float. Its sign check on the bracket is left out, because the one
    caller sends only brackets with f(xa) <= 0 <= f(xb).
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"no convergence after {_MAXITER} iterations, "
                       f"value is {xcur}")


@lru_cache(maxsize=256)
def _effective_channel_prob(target, n_channels):
    """Per-channel Bernoulli probability whose redraw-conditioned mean hits
    the target input density.

    Redrawing empty steps biases the realized density upward; solve
    p / (1 - (1-p)^C) = target for p. Targets at or below 1/C are not
    reachable (a non-empty step has at least one of C channels), in which
    case a single uniformly-chosen channel per active step comes closest.
    So are targets so close above 1/C that the bracket's low end already
    overshoots them in floating point. Returns None to request
    single-channel mode. Memoized: a sweep asks for the same (target, C)
    once per trial.
    """
    c = n_channels
    if target >= 1.0:
        return 1.0

    def bias(p):
        return p / (1.0 - (1.0 - p) ** c) - target

    if target * c <= 1.0 or bias(_P_LOW) > 0.0:
        return None
    # bias(target) >= 0: target is divided by a number in (0, 1], and the
    # rounded quotient is never below target
    return _brentq(bias, _P_LOW, target)


def generate(profile, n_channels, n_steps, seed):
    """Draw a spike train matching the density profile, deterministically.

    Each timestep is active with probability temporal_density; active steps
    draw channels with the bias-corrected probability, redrawing while empty
    (bounded retries, then a forced single channel) so realized temporal
    density equals the Bernoulli draw.
    """
    if n_steps < 1 or n_channels < 1:
        raise ValueError("n_channels and n_steps must be >= 1")
    if profile.temporal_density > 0.0 and profile.input_density == 0.0:
        raise ValueError("input_density 0 with temporal_density > 0: "
                         "an active step cannot be empty")
    rng = np.random.default_rng(seed)
    p_ch = _effective_channel_prob(profile.input_density, n_channels)
    active_steps = np.nonzero(rng.random(n_steps) < profile.temporal_density)[0]
    if active_steps.size == 0:
        return SpikeTrain(n_channels, n_steps)
    if p_ch is None:
        chans = rng.integers(n_channels, size=active_steps.size)
        return SpikeTrain._from_sorted(n_channels, n_steps, active_steps, chans)
    masks = rng.random((active_steps.size, n_channels)) < p_ch
    empty = ~masks.any(axis=1)
    for _ in range(99):
        if not empty.any():
            break
        masks[empty] = rng.random((int(empty.sum()), n_channels)) < p_ch
        empty = ~masks.any(axis=1)
    masks[empty, 0] = True  # forced single channel after bounded retries
    rows, cols = np.nonzero(masks)  # row-major, so (t, ch)-sorted
    return SpikeTrain._from_sorted(n_channels, n_steps, active_steps[rows],
                                   cols)


def generate_preset(name, n_channels, n_steps, seed):
    """Generate from a named dataset-style density preset."""
    try:
        temporal, inp = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return generate(DensityProfile(temporal, inp), n_channels, n_steps, seed)


def measure_density(train):
    """Exact temporal/input densities of a train per their definitions."""
    if train.n_steps == 0 or train.n_active_steps == 0:
        return DensityProfile(0.0, 0.0)
    temporal = train.n_active_steps / train.n_steps
    inp = train.n_events / (train.n_active_steps * train.n_channels)
    return DensityProfile(temporal, inp)


def encode_serial(train):
    """Dense per-timestep bit-vectors as a new (T, C) uint8 matrix: row t,
    column i is 1 iff channel i spikes at step t."""
    bits = np.zeros((train.n_steps, train.n_channels), dtype=np.uint8)
    bits[train.t, train.ch] = 1
    return bits


def _serial_fault(vectors, n_channels):
    """Message for the first vector, in step order, of the wrong width or
    with an entry other than 0 or 1; None if there is none."""
    for t, vec in enumerate(vectors):
        if len(vec) != n_channels:
            return f"vector at step {t} has width {len(vec)}, expected {n_channels}"
        for i, v in enumerate(vec):
            if np.ndim(v) != 0 or not (v == 0 or v == 1):
                return f"vector at step {t} has entry {i} that is not 0 or 1"
    return None


def decode_serial(vectors, n_channels):
    """Inverse of encode_serial. Takes a (T, C) array or any sequence of T
    vectors of C entries; rejects a vector of the wrong width or an entry
    other than 0 or 1 (True and 1.0 count as 1)."""
    try:
        bits = np.asarray(vectors)
    except ValueError:  # ragged
        bits = None
    if (bits is None or bits.ndim != 2 or bits.shape[1] != n_channels
            or bits.dtype.kind not in "biuf"
            or not ((bits == 0) | (bits == 1)).all()):
        fault = _serial_fault(vectors, n_channels)
        if fault is not None:
            raise ValueError(fault)
        # no fault, but not a numeric matrix: empty, or odd entry types
        bits = np.array(vectors, dtype=bool).reshape(len(vectors), n_channels)
    t, ch = np.nonzero(bits)  # new arrays, row-major, so (t, ch)-sorted
    return SpikeTrain._from_sorted(n_channels, len(bits), t, ch)


def encode_aer(train):
    """One packet per event as a new (E, 2) int64 array of (timestamp,
    address) rows, sorted by timestamp then address."""
    return np.column_stack((train.t, train.ch))


def _parse_packets(packets):
    """Packet-by-packet parse, for streams that are not an integer (n, 2)
    array. Returns (t, ch, error): object arrays of the fields, as ints, of
    the packets before the first one without exactly two fields or with a
    non-integer field, and the error for that packet (None if there is
    none)."""
    if isinstance(packets, np.ndarray):
        packets = packets.tolist()
    ts, chs = [], []
    error = None
    for i, p in enumerate(packets):
        if not (hasattr(p, "__len__") and len(p) == 2):
            error = f"packet {i} is not a (timestamp, address) pair"
            break
        t, ch = p
        if not (_is_int(t) and _is_int(ch)):
            error = f"packet ({t!r}, {ch!r}) has a non-integer field"
            break
        ts.append(int(t))
        chs.append(int(ch))
    return np.array(ts, dtype=object), np.array(chs, dtype=object), error


def decode_aer(packets, n_channels, n_steps):
    """Inverse of encode_aer. Takes an (n, 2) array or any sequence of
    (timestamp, address) pairs; rejects a packet without exactly two
    fields, a non-integer field, and out-of-range or unsorted streams. The
    first faulty packet in stream order names the error."""
    try:
        fields = np.asarray(packets)
    except ValueError:  # ragged
        fields = None
    if (fields is not None and fields.ndim == 2 and fields.shape[1] == 2
            and np.can_cast(fields.dtype, np.int64)):
        # astype copies: the train must not share the caller's memory
        t = fields[:, 0].astype(np.int64)
        ch = fields[:, 1].astype(np.int64)
        error = None
    else:
        t, ch, error = _parse_packets(packets)
    fault = _stream_fault(t, ch, n_channels, n_steps, _AER_FAULTS)
    if fault is not None:
        raise ValueError(fault[1])
    if error is not None:
        raise ValueError(error)
    return SpikeTrain._from_sorted(n_channels, n_steps, t, ch)


def save(train, path, metadata=()):
    """Write the line-oriented spike-train file format.

    Header `SPIKETRAIN v1 channels=<C> steps=<T>`, then optional `#`
    comment lines, then one `<t> <ch>` line per event in ascending order.
    """
    head = [f"SPIKETRAIN v1 channels={train.n_channels} steps={train.n_steps}\n"]
    head.extend(f"# {line}\n" for line in metadata)
    fields = np.column_stack((train.t, train.ch)).ravel().tolist()
    with open(path, "w") as fh:
        fh.write("".join(head) + "%d %d\n" * train.n_events % tuple(fields))


def _content_lines(lines, start):
    """(index, text) of each line from `start` on that holds more than
    whitespace and a `#` comment; text has the comment and outer whitespace
    removed."""
    for i in range(start, len(lines)):
        line = lines[i].split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse_event_lines(lines, start, path):
    """Line-by-line parse of the event lines, for files the bulk parser
    rejects. Returns (t, ch, error): object arrays of the Python ints on
    the lines before the first line with the wrong field count or a
    non-integer field, and the error for that line (None if there is
    none)."""
    ts, chs = [], []
    error = None
    for i, line in _content_lines(lines, start):
        parts = line.split()
        if len(parts) != 2:
            error = f"{path}:{i + 1}: expected '<t> <ch>'"
            break
        try:
            t, ch = int(parts[0]), int(parts[1])
        except ValueError:
            error = f"{path}:{i + 1}: non-integer event field"
            break
        ts.append(t)
        chs.append(ch)
    return np.array(ts, dtype=object), np.array(chs, dtype=object), error


def load(path):
    """Parse a spike-train file; errors name the offending line.

    The header is found line by line and the event lines are parsed in
    bulk. If the bulk parser rejects them (a wrong field count, or a field
    that numpy does not read as an int64 but `int()` might, such as `1_0`),
    they are parsed one line at a time instead. Line numbers are worked out
    only for an error.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    content = _content_lines(lines, 0)
    header = next(content, None)
    if header is None:
        raise SpikeTrainParseError(f"{path}: missing SPIKETRAIN header")
    h, line = header
    parts = line.split()
    if (
        len(parts) != 4
        or parts[0] != "SPIKETRAIN"
        or parts[1] != "v1"
        or not parts[2].startswith("channels=")
        or not parts[3].startswith("steps=")
    ):
        raise SpikeTrainParseError(f"{path}:{h + 1}: bad header {line!r}")
    try:
        n_channels = int(parts[2][len("channels="):])
        n_steps = int(parts[3][len("steps="):])
    except ValueError:
        raise SpikeTrainParseError(
            f"{path}:{h + 1}: non-integer header field"
        ) from None

    first = next(content, None)
    if first is None:
        return SpikeTrain(n_channels, n_steps)
    start = first[0]
    try:
        rows = np.loadtxt(lines[start:], dtype=np.int64, comments="#",
                          ndmin=2)
    except ValueError:
        rows = None
    if rows is not None and rows.shape[1] == 2:
        t, ch, error = rows[:, 0], rows[:, 1], None
    else:
        t, ch, error = _parse_event_lines(lines, start, path)
    fault = _stream_fault(t, ch, n_channels, n_steps, _FILE_FAULTS)
    if fault is not None:
        k, message = fault
        i = next(islice(_content_lines(lines, start), k, None))[0]
        raise SpikeTrainParseError(f"{path}:{i + 1}: {message}")
    if error is not None:
        raise SpikeTrainParseError(error)
    return SpikeTrain._from_sorted(n_channels, n_steps, t, ch)
