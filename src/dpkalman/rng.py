"""Deterministic, splittable Gaussian noise streams.

Streams are keyed by (seed, index, stream tag), and optionally a window,
through ``SeedSequence`` spawn keys, so parallel workers can draw independent
noise without coordination and every draw is reproducible. The index is a
block of trials in ``simulate``, whose process and privacy noise are also keyed
by a window of steps, and the caller's ``stream_index`` in ``privatize``. The
independence comes from the spawn keys, not from the bit generator, since no
stream is advanced or jumped; the bit generator is ``SFC64`` because it draws
normals fastest of those measured (13 ns each on one x86_64 vCPU, against
21 ns for ``Philox`` and 22 ns for ``PCG64``).
"""

from __future__ import annotations

import numpy as np

STREAM_PROCESS = 0
STREAM_PRIVACY = 1
STREAM_INIT = 2


def gaussian_generator(seed: int, *, trial: int = 0, stream: int = 0,
                       window: int | None = None) -> np.random.Generator:
    """Generator for the (seed, trial, stream) substream, or its ``window``.

    The same key always reproduces the same draws; distinct keys give
    statistically independent streams. ``window`` is appended to the spawn
    key only when given, so the keys without it draw as they always have.
    """
    entropy = int(seed) % (1 << 64)
    key = (int(trial), int(stream)) if window is None else (int(trial), int(stream), int(window))
    ss = np.random.SeedSequence(entropy, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))
