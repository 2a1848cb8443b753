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


def chunk_rng(seed, index: int) -> "np.random.Generator":
    """Generator for one chunk, a pure function of (seed, index).

    seed may be an int or a tuple of ints (a derived stream label).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def point_rng(seed, index: int) -> "np.random.Generator":
    """Generator for one sweep point; never collides with a chunk stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index, 1)))


def check_poisson_mean(what: str, rate: float, pulses: int) -> None:
    """Refuse a draw of mean rate * pulses that numpy's Poisson sampler cannot take."""
    with contextlib.suppress(OverflowError):  # pulses beyond the float range
        if rate * pulses <= POISSON_MEAN_MAX:
            return
    raise ConfigError(f"{what} of {rate:.6g} per pulse over {pulses} pulses is a Poisson mean "
                      f"above numpy's limit of {POISSON_MEAN_MAX:.6g}")


def check_trials(trials: int) -> None:
    """Refuse a Monte Carlo of fewer than one trial."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def chunk_layout(trials: int) -> list[int]:
    """Sizes of the fixed chunks covering `trials`."""
    check_trials(trials)
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def map_chunks(fn, trials: int, seed, workers: int = 1) -> list:
    """Run `fn(rng, size)` over every chunk, returning results in chunk order.

    `fn` must depend only on its arguments.  With workers > 1 the chunks are
    executed on a thread pool; the returned list is identical either way.
    Serially, each chunk's generator is made when the chunk runs, so one is
    alive at a time.
    """
    sizes = chunk_layout(trials)
    if workers <= 1 or len(sizes) == 1:
        return [fn(chunk_rng(seed, i), size) for i, size in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor  # here, so an import loads no pool or logging

    # made here: made in the workers, they slowed the oracle's ops by ~10% on 2 CPUs
    rngs = [chunk_rng(seed, i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, rngs, sizes))
