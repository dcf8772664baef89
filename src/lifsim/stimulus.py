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

import io
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


# the largest channel or step count, so that every event coordinate
# fits int64
_MAX_COUNT = 2**63 - 1
_COUNT_FAULT = "channel and step counts must be at most 2**63 - 1"


class SpikeTrain:
    """Events on a fixed (timestep, channel) grid, stored as columns.

    `t` and `ch` are read-only int64 arrays sorted by (t, ch), without
    duplicates. `n_events` is set at construction. `n_active_steps` (steps
    with at least one event), the index in `t` at which each active step
    starts, `active_steps` and `channel_bounds` are derived once, on first
    use.
    """

    def __init__(self, n_channels, n_steps, events=()):
        if n_channels < 1 or n_steps < 0:
            raise ValueError("n_channels must be >= 1 and n_steps >= 0")
        if max(n_channels, n_steps) > _MAX_COUNT:
            raise ValueError(_COUNT_FAULT)
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

    @cached_property
    def _step_starts(self):
        """Index in `t` at which each active step starts."""
        new_step = np.empty(self.n_events, dtype=bool)
        new_step[:1] = True
        np.not_equal(self.t[1:], self.t[:-1], out=new_step[1:])
        return new_step.nonzero()[0]

    @cached_property
    def n_active_steps(self):
        return len(self._step_starts)

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
    if not len(t):
        return None
    t0, t1 = t[:-1], t[1:]
    # a valid stream passes these few whole-array checks (t in range at its
    # two ends, since it never falls); only a faulty one is searched below
    if ((t1 >= t0).all() and t[0] >= 0 and t[-1] < n_steps
            and ch.min() >= 0 and ch.max() < n_channels
            and ((t1 != t0) | (ch[1:] > ch[:-1])).all()):
        return None
    bad_t = (t < 0) | (t >= n_steps)
    bad_ch = (ch < 0) | (ch >= n_channels)
    dt, dch = np.diff(t), np.diff(ch)
    bad_order = np.zeros(len(t), dtype=bool)
    bad_order[1:] = (dt < 0) | ((dt == 0) & (dch <= 0))
    bad = bad_t | bad_ch | bad_order  # the stream failed above: one is set
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
    active_steps = np.flatnonzero(rng.random(n_steps) < profile.temporal_density)
    if active_steps.size == 0:
        return SpikeTrain(n_channels, n_steps)
    if p_ch is None:
        chans = rng.integers(n_channels, size=active_steps.size)
        return SpikeTrain._from_sorted(n_channels, n_steps, active_steps, chans)
    masks = rng.random((active_steps.size, n_channels)) < p_ch
    # rows still empty, ascending; each retry redraws only these, and its
    # draw's rows land in them in order
    empty = np.flatnonzero(~masks.any(axis=1))
    for _ in range(99):
        if not empty.size:
            break
        redraw = rng.random((empty.size, n_channels)) < p_ch
        masks[empty] = redraw
        empty = empty[~redraw.any(axis=1)]
    masks[empty, 0] = True  # forced single channel after bounded retries
    rows, cols = _flat_cells(np.flatnonzero(masks), n_channels)
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


def _flat_cells(flat, width):
    """(rows, cols) of the ascending row-major indices `flat` into a matrix
    `width` wide, so sorted by (row, col). `flat` becomes `cols`."""
    rows = flat // width
    flat -= rows * width  # in place: a third large array costs more
    return rows, flat


def encode_serial(train):
    """Dense per-timestep bit-vectors as a new (T, C) uint8 matrix: row t,
    column i is 1 iff channel i spikes at step t."""
    bits = np.zeros((train.n_steps, train.n_channels), dtype=np.uint8)
    bits.reshape(-1)[train.t * train.n_channels + train.ch] = 1
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


def _all_bits(bits):
    """Whether `bits` is a numeric array of 0s and 1s."""
    kind = bits.dtype.kind
    if kind in "bu":
        return bits.size == 0 or bits.max() <= 1
    return kind in "if" and ((bits == 0) | (bits == 1)).all()


def decode_serial(vectors, n_channels):
    """Inverse of encode_serial. Takes a (T, C) array or any sequence of T
    vectors of C entries; rejects a vector of the wrong width or an entry
    other than 0 or 1 (True and 1.0 count as 1)."""
    try:
        bits = np.asarray(vectors)
    except ValueError:  # ragged
        bits = None
    if (bits is None or bits.ndim != 2 or bits.shape[1] != n_channels
            or not _all_bits(bits)):
        fault = _serial_fault(vectors, n_channels)
        if fault is not None:
            raise ValueError(fault)
        # no fault, but not a numeric matrix: empty, or odd entry types
        bits = np.array(vectors, dtype=bool).reshape(len(vectors), n_channels)
    # a 0/1 byte is a valid bool, and a bool array has the fastest nonzero
    nonzero = bits.view(bool) if bits.itemsize == 1 else bits != 0
    t, ch = _flat_cells(np.flatnonzero(nonzero), n_channels)  # new arrays
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
    if max(n_channels, n_steps) > _MAX_COUNT:
        raise ValueError(_COUNT_FAULT)
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


# powers of ten, most significant first, enough for the digits of any int64
_POWERS = 10 ** np.arange(18, -1, -1, dtype=np.int64)


def _put_digits(values, out):
    """Write the decimal digits of the non-negative int64 `values` into
    the uint8 array `out` as ASCII, one row per digit position (most
    significant first) and one column per value, with NUL bytes in place
    of leading zeros. `out` needs a row for each digit of the largest
    value."""
    cut = values // _POWERS[-len(out):, None]  # values with the low digits cut
    out[...] = cut  # mod 256, which the exact digit arithmetic survives
    out[1:] -= out[:-1] * 10  # each row's digit is cut - 10 * the row above
    out += ord("0")
    out[:-1] *= cut[:-1] != 0


def _event_text(train):
    """The event lines of the file format, `<t> <ch>\n` each, in order.

    Each event is one column of a byte table: the digits of t, a space,
    the digits of ch and a newline, with NUL padding where a value has
    fewer digits than the widest. The columns are read out in event order
    and the NULs dropped.
    """
    if not train.n_events:
        return ""
    t_width = len(str(train.t[-1]))
    ch_width = len(str(train.n_channels - 1))
    table = np.empty((t_width + ch_width + 2, train.n_events), dtype=np.uint8)
    _put_digits(train.t, table[:t_width])
    table[t_width] = ord(" ")
    _put_digits(train.ch, table[t_width + 1:-1])
    table[-1] = ord("\n")
    return table.T.tobytes().replace(b"\0", b"").decode("ascii")


def save(train, path, metadata=()):
    """Write the line-oriented spike-train file format.

    Header `SPIKETRAIN v1 channels=<C> steps=<T>`, then one `# <line>`
    comment per metadata line, then one `<t> <ch>` line per event in
    ascending order, in decimal without leading zeros or extra spaces. A
    metadata line that holds a line break (`\n` or `\r`) would end its
    comment early; it raises ValueError before anything is written.
    """
    head = [f"SPIKETRAIN v1 channels={train.n_channels} steps={train.n_steps}\n"]
    for line in metadata:
        comment = f"# {line}"
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"metadata line {line!r} holds a line break")
        head.append(comment + "\n")
    head.append(_event_text(train))
    with open(path, "w") as fh:
        fh.write("".join(head))


def _uncommented(line):
    """The line without its `#` comment and outer whitespace."""
    return line.split("#", 1)[0].strip()


def _content_lines(lines, first):
    """(number, text) of each line that holds more than whitespace and a
    `#` comment, where lines[0] is line number `first`; text has the
    comment and outer whitespace removed."""
    for number, line in enumerate(lines, first):
        line = _uncommented(line)
        if line:
            yield number, line


def _parse_event_lines(lines, first, path):
    """Line-by-line parse of the event lines, for text that is not
    canonical; lines[0] is line number `first`. Returns (t, ch, error):
    object arrays of the Python ints on the lines before the first line
    with the wrong field count or a non-integer field, and the error for
    that line (None if there is none)."""
    ts, chs = [], []
    error = None
    for number, line in _content_lines(lines, first):
        parts = line.split()
        if len(parts) != 2:
            error = f"{path}:{number}: expected '<t> <ch>'"
            break
        try:
            t, ch = int(parts[0]), int(parts[1])
        except ValueError:
            error = f"{path}:{number}: non-integer event field"
            break
        ts.append(t)
        chs.append(ch)
    return np.array(ts, dtype=object), np.array(chs, dtype=object), error


# the separators of a canonical event line, b" " then b"\n", as one uint16
_SEPARATORS = np.frombuffer(b" \n", dtype="<u2")[0]


def _canonical_lines(data):
    """The number of lines in `data` if it is canonical event text, else
    None.

    Canonical text is ASCII lines of `<digits> <digits>\n`, 1 to 18 digits
    a field, and ends in a newline; `save` writes nothing else. It reads
    the same in any ASCII-compatible encoding.
    """
    if not data.endswith(b"\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(b - ord("0") > 9)  # wraps below "0": not a digit
    if len(sep) % 2 or (b[sep].view("<u2") != _SEPARATORS).any():
        return None
    # sep alternates spaces and newlines, and a field ends at each one
    gaps = sep[1:] - sep[:-1]  # the width + 1 of each field but the first
    if not (1 <= sep[0] <= 18 and gaps.min() >= 2 and gaps.max() <= 19):
        return None
    return len(sep) // 2


def _byte_lines(data, encoding):
    """(end, text) of each line of `data`, whose lines end at b"\n": the
    offset at which the next line starts, and the line decoded."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)
        yield end, data[start:end].decode(encoding)
        start = end


def _read_header(data, encoding, path):
    """Parse the header of the file text `data`, and skip the comment and
    blank lines after it.

    Returns (n_channels, n_steps, first, start): the line number of the
    first event line and the offset in `data` at which it starts, or None
    for `start` if there is no event line.
    """
    lines = _byte_lines(data, encoding)
    h = 0
    for end, line in lines:
        h += 1
        line = _uncommented(line)
        if line:
            break
    else:
        raise SpikeTrainParseError(f"{path}: missing SPIKETRAIN header")
    parts = line.split()
    if (
        len(parts) != 4
        or parts[0] != "SPIKETRAIN"
        or parts[1] != "v1"
        or not parts[2].startswith("channels=")
        or not parts[3].startswith("steps=")
    ):
        raise SpikeTrainParseError(f"{path}:{h}: bad header {line!r}")
    try:
        n_channels = int(parts[2][len("channels="):])
        n_steps = int(parts[3][len("steps="):])
    except ValueError:
        raise SpikeTrainParseError(
            f"{path}:{h}: non-integer header field"
        ) from None
    if n_channels < 1 or n_steps < 0:
        raise SpikeTrainParseError(
            f"{path}:{h}: channels must be >= 1 and steps >= 0")
    if max(n_channels, n_steps) > _MAX_COUNT:
        raise SpikeTrainParseError(f"{path}:{h}: {_COUNT_FAULT}")
    first, start = h + 1, end
    for end, line in lines:
        if _uncommented(line):
            return n_channels, n_steps, first, start
        first, start = first + 1, end
    return n_channels, n_steps, first, None


def load(path):
    """Parse a spike-train file; errors name the offending line.

    The file is read as text in the locale's encoding, as `open(path)`
    reads it, with `\r\n` and `\r` read as line ends. The header, and any
    comment or blank lines after it, are parsed one line at a time. The
    rest is parsed in bulk if it is canonical, as every file `save`
    writes is (see `_canonical_lines`); any other text, such as comments
    between events, tabs, `+1` or `1_0`, is parsed one line at a time.
    Line numbers are worked out only for an error.
    """
    with open(path, "rb") as fh:  # one read and no seek, so a pipe works
        data = fh.read()
    if b"\r" in data:
        # as bytes, since "\r" and "\n" are single bytes in any
        # ASCII-compatible encoding, which locale encodings are
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    encoding = io.TextIOWrapper(io.BytesIO()).encoding  # what open(path) uses
    n_channels, n_steps, first, start = _read_header(data, encoding, path)
    if start is None:
        return SpikeTrain(n_channels, n_steps)
    data = data[start:]  # the event lines, first one first
    n = _canonical_lines(data)
    if n is not None:
        # checked in full, so numpy can neither fail nor warn here
        fields = np.fromstring(data, dtype=np.int64, count=2 * n, sep=" ")
        t, ch, error = fields[0::2], fields[1::2], None
    else:
        lines = data.decode(encoding).split("\n")
        t, ch, error = _parse_event_lines(lines, first, path)
    fault = _stream_fault(t, ch, n_channels, n_steps, _FILE_FAULTS)
    if fault is not None:
        k, message = fault
        if n is not None:
            number = first + k
        else:
            number = next(islice(_content_lines(lines, first), k, None))[0]
        raise SpikeTrainParseError(f"{path}:{number}: {message}")
    if error is not None:
        raise SpikeTrainParseError(error)
    return SpikeTrain._from_sorted(n_channels, n_steps, t, ch)
