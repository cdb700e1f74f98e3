"""Reproducible random streams for parallel experiments.

Every sampling stage draws from a Philox counter-based generator keyed by
(master seed, path of integers).  Distinct paths give statistically
independent substreams, so per-sample and per-stage streams can be handed
to parallel workers without coordination and replays are exact.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path).

    The same (seed, path) always yields an identical stream; any change in
    the path gives an unrelated stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, path)))
    return np.random.Generator(np.random.Philox(ss))

