"""Replicate scheduling: the one loop over replicate indices.

Every simulated quantity is built from independent replicates, and
replicate i always draws from ``replicate_rng(seed, i)``.  ``map_replicates``
is the only place that loops over those indices: it returns one result per
replicate, in replicate order, so output is a pure function of
(seed, reps) no matter how the index range is split over workers.  The
results are whatever ``fn`` returns (numbers for the Monte-Carlo means,
records for the sampled trees); ``mean_and_se`` reduces numeric ones.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate, keyed by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _run_chunk(fn, args, seed, lo, hi):
    return [fn(args, replicate_rng(seed, i)) for i in range(lo, hi)]


def map_replicates(fn, args, reps: int, seed: int, workers: int = 1) -> list:
    """``fn(args, replicate_rng(seed, i))`` for i = 0..reps-1, in that order.

    ``fn`` must be a module-level callable (it crosses process boundaries
    when workers > 1), and its results must pickle.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return _run_chunk(fn, args, seed, 0, reps)
    bounds = np.linspace(0, reps, workers + 1, dtype=int)
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futures = [pool.submit(_run_chunk, fn, args, seed, lo, hi) for lo, hi in spans]
        return [value for future in futures for value in future.result()]


def mean_and_se(values) -> tuple[np.ndarray, np.ndarray]:
    """Column means and their standard errors over per-replicate values.

    ``values`` holds one scalar or one fixed-length 1-D array per replicate
    (at least 2); they are laid out as a (reps, d) float array, a scalar
    being one column.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValueError(f"a standard error needs reps >= 2, got {values.shape[0]}")
    values = values.reshape(values.shape[0], -1)
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    return mean, se
