"""Replicate scheduling: the one loop over blocks of replicates.

Every simulated quantity is built from independent replicates, drawn in
blocks of :data:`BLOCK`: block b holds replicates b*BLOCK onwards (the last
block holds what is left) and draws all of them from
``replicate_rng(seed, b)``.  ``replicate_blocks`` is the only place that
loops over the blocks: it yields each block's results as soon as they are
drawn, in replicate order, so a caller that writes them out holds one block
at a time.  The block size is a constant, so output is a pure function of
(seed, reps) no matter how the blocks are spread over worker processes.  A
block function ``fn(args, rng, count)`` returns ``count`` results as an
array with one row per replicate (numbers for the Monte-Carlo means) or a
list (records for the sampled trees, which are written block by block).
``map_replicates`` concatenates the arrays, and ``mean_and_se`` reduces
them.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor
from itertools import islice

import numpy as np

# Replicates per block.  Large enough that per-block costs (a generator, a
# few dozen array calls) stay below 0.1 us per replicate, small enough that
# a block of genealogies of a few hundred leaves holds a few MB.
BLOCK = 1024


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index): block ``index`` of a run."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _run_chunk(fn, args, seed, lo, hi):
    """The results of replicates lo..hi-1: one block, lo a multiple of BLOCK."""
    return fn(args, replicate_rng(seed, lo // BLOCK), hi - lo)


def replicate_blocks(fn, args, reps: int, seed: int, pool: Executor | None = None):
    """Yield the results of the block function ``fn`` for ``reps``
    replicates, one block at a time and in replicate order: each an array
    with one row per replicate, or a list.

    Without ``pool`` every block is drawn here.  With one (the command opens
    it and reuses it for all its runs), every block runs in a pool process;
    the blocks are yielded in submission order, and each one is released
    once yielded.  Blocks are submitted as the consumer asks for them, at
    most twice the pool's size ahead: the block being yielded and those
    submitted after it number at most that many, so a slow consumer holds a
    bounded number of finished blocks whatever ``reps`` is.  Closing the
    generator early cancels the blocks that have not started.  ``fn`` must
    be a module-level callable, and its results must pickle.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if pool is None:
        for lo in range(0, reps, BLOCK):
            yield _run_chunk(fn, args, seed, lo, min(lo + BLOCK, reps))
        return
    # a concurrent.futures pool keeps the size it was opened with here
    window = 2 * pool._max_workers
    starts = iter(range(0, reps, BLOCK))
    futures = deque()
    try:
        while True:
            for lo in islice(starts, window - len(futures)):
                hi = min(lo + BLOCK, reps)
                futures.append(pool.submit(_run_chunk, fn, args, seed, lo, hi))
            if not futures:
                return
            yield futures.popleft().result()
    finally:
        for future in futures:
            future.cancel()


def map_replicates(fn, args, reps: int, seed: int, pool: Executor | None = None) -> np.ndarray:
    """``reps`` results of the array block function ``fn``, in replicate
    order, as one array with one row per replicate.  ``pool`` is as for
    :func:`replicate_blocks`.
    """
    return np.concatenate(list(replicate_blocks(fn, args, reps, seed, pool)))


# values near the float limit overflow the squares; the writers refuse the inf
@np.errstate(over="ignore", invalid="ignore")
def mean_and_se(values) -> tuple[np.ndarray, np.ndarray]:
    """Column means and their standard errors over per-replicate values.

    ``values`` is the array of :func:`map_replicates`: shape (reps,) or
    (reps, d), with reps >= 2; a (reps,) array is one column.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValueError(f"a standard error needs reps >= 2, got {values.shape[0]}")
    values = values.reshape(values.shape[0], -1)
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    return mean, se
