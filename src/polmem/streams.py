"""Deterministic, parallel-safe random streams.

Trials are partitioned into fixed-size chunks and every chunk gets its own
generator derived purely from (seed, chunk index).  The partition does not
depend on how many workers execute the chunks, and chunk results are always
combined in index order, so output is bit-identical for any worker count.
Every Monte Carlo checks its trial count and its Poisson means here.
"""

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

# Fixed chunk stride; must never depend on trial count or worker count.
CHUNK_TRIALS = 1 << 18
# largest mean numpy's Poisson sampler accepts: INT64_MAX - 10 * sqrt(INT64_MAX)
POISSON_MEAN_MAX = 2.0**63 - 10 * math.sqrt(2.0**63)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_rng(seed, index: int) -> np.random.Generator:
    """Generator for one chunk, a pure function of (seed, index).

    seed may be an int or a tuple of ints (a derived stream label).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def point_rng(seed, index: int) -> np.random.Generator:
    """Generator for one sweep point; never collides with a chunk stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index, 1)))


def check_poisson_mean(what: str, rate: float, pulses: int) -> None:
    """Refuse a draw of mean rate * pulses that numpy's Poisson sampler cannot take."""
    with contextlib.suppress(OverflowError):  # pulses beyond the float range
        if rate * pulses <= POISSON_MEAN_MAX:
            return
    raise ConfigError(f"{what} of {rate:.6g} per pulse over {pulses} pulses is a Poisson mean "
                      f"above numpy's limit of {POISSON_MEAN_MAX:.6g}")


def chunk_layout(trials: int) -> list[int]:
    """Sizes of the fixed chunks covering `trials`."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def map_chunks(fn, trials: int, seed, workers: int = 1) -> list:
    """Run `fn(rng, size)` over every chunk, returning results in chunk order.

    `fn` must depend only on its arguments.  With workers > 1 the chunks are
    executed on a thread pool; the returned list is identical either way.
    """
    sizes = chunk_layout(trials)
    jobs = [(chunk_rng(seed, i), sz) for i, sz in enumerate(sizes)]
    if workers <= 1 or len(jobs) == 1:
        return [fn(rng, sz) for rng, sz in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda j: fn(j[0], j[1]), jobs))
