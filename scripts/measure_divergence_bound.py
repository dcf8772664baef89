#!/usr/bin/env python3
"""Measure the quantized clock-vs-event membrane divergence ceilings.

Runs an exhaustive search over all 2-channel short activity patterns plus
large randomized sweeps (including the exact seeded 8-channel/100-step
population the verification suite draws from) and reports, per
(effective decay factor, decay implementation), the largest observed
|u_event - u_clock| in raw LSBs at any shared update instant.

Every train goes through neuron.run on the clock- and event-driven serial
engines, with the configs, the trial rule and the record alignment of
lifsim verify (lifsim.cli.clock_event_configs, lifsim.cli.divergence_trial
and lifsim.cli.divergence).

Paste each reported value into the bound of its (round(beta, 4), impl) row
of lifsim.cli.QUANT_DIVERGENCE (src/lifsim/cli.py).

Usage: PYTHONPATH=src python scripts/measure_divergence_bound.py
"""

import itertools
import sys

import numpy as np

from lifsim import cli
from lifsim.neuron import RESET_SUBTRACT, RESET_ZERO
from lifsim.stimulus import SpikeTrain


def row_key(row):
    """The (round(beta, 4), impl) name of a QUANT_DIVERGENCE row."""
    return round(row[0].value, 4), row[1]


def record(maxima, key, clock_cfg, event_cfg, train):
    """Raise maxima[key] to the train's largest divergence."""
    d = max(cli.divergence(clock_cfg, event_cfg, train)[1].tolist(), default=0)
    if d > maxima[key]:
        maxima[key] = d


def two_channel_train(n_steps, codes):
    """2-channel train from {step: code}; bit 0 of a code fires channel 0,
    bit 1 fires channel 1."""
    return SpikeTrain(2, n_steps, [
        (t, ch) for t, code in codes.items() for ch in (0, 1)
        if code >> ch & 1
    ])


def exhaustive_2ch(n_steps, patterns, weights_choices, maxima):
    """Every pattern (a {step: code} dict) against every spec, reset and
    weight pair."""
    pairs = [
        (row_key(row), cli.clock_event_configs(*row[:2], reset, weights))
        for row in cli.QUANT_DIVERGENCE
        for reset in (RESET_ZERO, RESET_SUBTRACT)
        for weights in weights_choices
    ]
    for codes in patterns:
        train = two_channel_train(n_steps, codes)
        for key, (clock_cfg, event_cfg) in pairs:
            record(maxima, key, clock_cfg, event_cfg, train)


def all_patterns(n_steps):
    """All 4**n_steps per-step activity patterns on 2 channels."""
    for pattern in itertools.product(range(4), repeat=n_steps):
        yield dict(enumerate(pattern))


def sparse_patterns(n_steps, n_active):
    """Patterns with exactly n_active active steps."""
    for actives in itertools.combinations(range(n_steps), n_active):
        for codes in itertools.product((1, 2, 3), repeat=n_active):
            yield dict(zip(actives, codes))


def randomized_2ch(n_steps, trials, seed, maxima):
    """Random sparse 2-channel trains with random full-range weights."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n_ev = int(rng.integers(1, 12))
        cells = rng.choice(2 * n_steps, size=n_ev, replace=False)
        train = SpikeTrain(2, n_steps, [(int(c) // 2, int(c) % 2)
                                        for c in cells])
        weights = (int(rng.integers(-32, 32)), int(rng.integers(-32, 32)))
        row, reset = cli.divergence_trial(trial)
        record(maxima, row_key(row),
               *cli.clock_event_configs(*row[:2], reset, weights), train)


def randomized_suite(trials, seed, maxima):
    """The verification suite's randomized population."""
    for _, row, clock_cfg, event_cfg, train in \
            cli.quantized_divergence_trials(trials, seed):
        record(maxima, row_key(row), clock_cfg, event_cfg, train)


def main():
    maxima = {row_key(row): 0 for row in cli.QUANT_DIVERGENCE}

    print("exhaustive: 2 channels x 8 steps, all activity patterns ...")
    exhaustive_2ch(8, all_patterns(8), [(12, -7), (31, 31), (20, 15)], maxima)
    print({k: v for k, v in sorted(maxima.items())})

    print("exhaustive: 2 channels x 16 steps, sparse patterns (<= 3 active) ...")
    exhaustive_2ch(16, sparse_patterns(16, 3), [(12, -7), (31, 31)], maxima)
    print({k: v for k, v in sorted(maxima.items())})

    print("randomized: 2 channels x 16 steps, 50000 trains ...")
    randomized_2ch(16, 50000, 123, maxima)
    print({k: v for k, v in sorted(maxima.items())})

    print("randomized: 8 channels x 100 steps, 5000 trains (suite population) ...")
    randomized_suite(5000, 0, maxima)

    print("\nmeasured ceilings (raw LSBs):")
    for key in sorted(maxima):
        print(f"  {key}: {maxima[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
