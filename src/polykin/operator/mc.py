"""Chunked, reproducible Monte Carlo accumulation.

Estimators in this package draw samples in chunks of a fixed size
(``_CHUNK_SIZE``), each with its own child RNG stream spawned from the
configured seed.  Chunk statistics are merged in chunk-index order, so a
result depends only on the inputs and the seed, not on how many worker
threads executed the chunks.

The chunk size bounds each worker thread's live arrays at 220-260 bytes
per row (14-16 MB at 62 500 rows, traced by tracemalloc).  Under glibc's
default allocator policy its arenas do not keep that memory between chunks
in a fresh process: the mmap and trim thresholds slide up only as larger
blocks are freed, so until something has freed a block of that size (as
K1 assembly's row-block buffers do) each chunk's arrays are mapped, or
trimmed from the arena top, and faulted in again.  On 2 vCPUs of an AMD
EPYC (glibc 2.36), each of the first two passes of the operator-diag
benchmark's ten estimator calls, without K1, took 420k-500k minor faults
and about 1 s of system time on 2 threads, and 697k faults and 1.3-1.4 s
on 1 thread.  The library keeps glibc's defaults for its callers;
``polykin.cli.main`` pins its own process's thresholds.  On the same host,
the full operator-diag benchmark operation read at commit
3c52803 (cheaper variate draws since then have lowered the medians):

    rows per chunk   peak RSS (MB)   operation median (s)
    250 000          315.6           1.422
    125 000          270.3           1.415
     62 500          236.9           1.370
     31 250          212.4           1.459
     16 384          203.7           1.479

Below 62 500 rows the per-chunk overhead starts to cost time.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["MCEstimate", "QuadratureConfig", "accumulate"]

# Cancellation floor: differences smaller than this relative to the summed
# term magnitudes are indistinguishable from rounding noise and are treated
# as exact zeros by the estimators.
SNAP_RTOL = 64.0 * np.finfo(float).eps

# Samples per chunk: each chunk draws its own RNG stream and is one unit of
# work for the thread pool.  It caps a thread's live arrays at 14-16 MB
# (56-65 MB at 250 000 rows); smaller chunks cost wall time (module
# docstring).
_CHUNK_SIZE = 62_500


@dataclass(frozen=True)
class QuadratureConfig:
    """Sample budget, seed and worker threads for the MC estimators.

    Every estimator samples from the proposal of its species pair, the
    pair's equilibrium and Borgnakke-Larsen Beta laws, so nothing here
    selects a distribution.  ``threads`` worker threads run the chunks; their
    number does not change the result.
    """

    n_samples: int
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class MCEstimate:
    """Importance-sampling estimate with its standard error."""

    value: float
    stderr: float
    n_samples: int
    seed: int
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError("standard error must be nonnegative")


def _chunk_stats(values: np.ndarray) -> tuple[int, float, float, float]:
    """(n, mean, m2, scale) of one chunk: the squared deviations sum to
    scale**2 * m2, with scale 1 unless that plain sum overflows."""
    mean = float(values.mean())
    with np.errstate(over="ignore"):
        m2 = float(np.sum((values - mean) ** 2))
    if math.isfinite(m2):
        return values.size, mean, m2, 1.0
    scale = float(np.max(np.abs(values - mean)))
    return values.size, mean, float(np.sum(((values - mean) / scale) ** 2)), scale


def _merge(acc, new):
    """Pairwise update of Chan, Golub & LeVeque; a sum that overflows is
    carried scaled, as in ``_chunk_stats``."""
    n1, m1, s1, c1 = acc
    n2, m2, s2, c2 = new
    n = n1 + n2
    d = m2 - m1
    mean = m1 + d * n2 / n
    s = s1 + s2 + d * d * n1 * n2 / n
    if c1 == c2 == 1.0 and math.isfinite(s):
        return n, mean, s, 1.0
    c = max(c1 * math.sqrt(s1), c2 * math.sqrt(s2), abs(d))
    return n, mean, (c1 / c) ** 2 * s1 + (c2 / c) ** 2 * s2 + (d / c) ** 2 * n1 * n2 / n, c


def accumulate(
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, dict]],
    cfg: QuadratureConfig,
    seed_seq: np.random.SeedSequence | None = None,
) -> MCEstimate:
    """Run ``sampler(rng, count)`` over chunks and merge the statistics.

    ``sampler`` returns per-sample estimator values plus a dict of integer
    diagnostic counters (summed across chunks).  The reduction order is the
    chunk index order regardless of the worker count.
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    n_chunks = math.ceil(cfg.n_samples / _CHUNK_SIZE)
    sizes = [_CHUNK_SIZE] * (n_chunks - 1)
    sizes.append(cfg.n_samples - _CHUNK_SIZE * (n_chunks - 1))
    children = seed_seq.spawn(n_chunks)

    def run_chunk(k: int):
        rng = np.random.Generator(np.random.PCG64(children[k]))
        values, diag = sampler(rng, sizes[k])
        values = np.asarray(values, dtype=float)
        if values.shape != (sizes[k],):
            raise ValueError("sampler returned a wrong-shaped value array")
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(
                f"non-finite estimator values in chunk {k}: "
                f"{int(np.sum(~np.isfinite(values)))} samples"
            )
        return _chunk_stats(values), diag

    if cfg.threads == 1 or n_chunks == 1:
        results = [run_chunk(k) for k in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))

    n, mean, m2, scale = functools.reduce(_merge, [stats for stats, _ in results])
    diagnostics: dict = {"n_chunks": n_chunks}
    for _, diag in results:
        for key, val in diag.items():
            diagnostics[key] = diagnostics.get(key, 0) + val
    stderr = scale * math.sqrt(m2 / (n * (n - 1))) if n > 1 and m2 > 0.0 else 0.0
    return MCEstimate(mean, stderr, n, cfg.seed, diagnostics)
