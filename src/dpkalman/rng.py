"""Deterministic, splittable Gaussian noise streams.

Streams are keyed by (seed, index, stream tag) through ``SeedSequence`` spawn
keys on top of the counter-based Philox generator, so parallel workers can
draw independent noise without coordination and every draw is reproducible.
The index is a block of trials in ``simulate`` and the caller's
``stream_index`` in ``privatize``.
"""

from __future__ import annotations

import numpy as np

STREAM_PROCESS = 0
STREAM_PRIVACY = 1
STREAM_INIT = 2


def gaussian_generator(seed: int, *, trial: int = 0, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, trial, stream) substream.

    The same triple always reproduces the same draws; distinct triples give
    statistically independent streams.
    """
    entropy = int(seed) % (1 << 64)
    ss = np.random.SeedSequence(entropy, spawn_key=(int(trial), int(stream)))
    return np.random.Generator(np.random.Philox(ss))
