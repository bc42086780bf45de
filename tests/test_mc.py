"""Replicate scheduling: the blocks a pool is given ahead of the consumer."""

from concurrent.futures import Executor, Future

import numpy as np

from cbsfs._mc import BLOCK, map_replicates, replicate_blocks


def _uniforms(args, rng, count):
    return rng.uniform(size=count)


class _Deferred(Future):
    """A future whose call runs when its result is first read."""

    def __init__(self, call):
        super().__init__()
        self.call = call

    def result(self, timeout=None):
        if not self.done():
            self.set_result(self.call())
        return super().result(timeout)


class RecordingPool(Executor):
    """An executor of ``size`` notional workers that starts no process and
    keeps every future it hands out, in submission order."""

    def __init__(self, size):
        self._max_workers = size
        self.futures = []

    def submit(self, fn, /, *args):
        self.futures.append(_Deferred(lambda: fn(*args)))
        return self.futures[-1]


BLOCKS = 11
REPS = (BLOCKS - 1) * BLOCK + 5


def test_pool_is_given_twice_its_size_ahead():
    pool = RecordingPool(2)
    parts = []
    for i, part in enumerate(replicate_blocks(_uniforms, None, REPS, 7, pool)):
        # the block being yielded and at most three after it
        assert len(pool.futures) == min(i + 4, BLOCKS)
        parts.append(part)
    assert np.array_equal(np.concatenate(parts), map_replicates(_uniforms, None, REPS, 7))


def test_early_close_submits_nothing_more_and_cancels_the_rest():
    pool = RecordingPool(3)
    blocks = replicate_blocks(_uniforms, None, REPS, 7, pool)
    next(blocks)
    assert len(pool.futures) == 6
    blocks.close()
    assert len(pool.futures) == 6
    assert [f.cancelled() for f in pool.futures] == [False] + [True] * 5
