"""Replicate scheduling: deterministic substreams and optional workers.

Replicate i always draws from ``replicate_rng(seed, i)``, so estimates are
a pure function of (seed, reps) no matter how replicates are distributed
over workers; parallel runs just split the index range and reassemble in
order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate, keyed by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _run_chunk(fn, args, seed, lo, hi):
    return np.stack([np.atleast_1d(fn(args, replicate_rng(seed, i))) for i in range(lo, hi)])


def map_replicates(fn, args, reps: int, seed: int, workers: int = 1) -> np.ndarray:
    """Evaluate ``fn(args, rng)`` for replicates 0..reps-1, shape (reps, d).

    ``fn`` must be a module-level callable (it crosses process boundaries
    when workers > 1) returning a scalar or fixed-length 1-D array.
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
        chunks = [f.result() for f in futures]
    return np.concatenate(chunks, axis=0)


def mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and their standard errors (needs at least 2 rows)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValueError(f"a standard error needs reps >= 2, got {values.shape[0]}")
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    return mean, se
