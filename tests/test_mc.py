"""Replicate scheduling: the blocks a pool is given ahead of the consumer,
and the pool's processes."""

import os
import stat

import numpy as np
import pytest

from cbsfs._mc import BLOCK, Pool, map_replicates, replicate_blocks


def _uniforms(args, rng, count):
    return rng.uniform(size=count)


def _fail_on_whole_blocks(args, rng, count):
    if args == "fail" and count == BLOCK:
        raise ValueError("a whole block failed")
    return rng.uniform(size=count)


def _exit_with_status_three(args, rng, count):
    os._exit(3)


def _pipes(args, rng, count):
    """The inodes of the pipes this process holds open."""
    inodes = set()
    for fd in map(int, os.listdir("/proc/self/fd")):
        try:
            status = os.fstat(fd)
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if stat.S_ISFIFO(status.st_mode):
            inodes.add(status.st_ino)
    return frozenset(inodes)


def no_children_left():
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class CountingPool(Pool):
    """A pool that keeps the index of every task it is sent."""

    def __init__(self, size):
        super().__init__(size)
        self.sent = []

    def submit(self, index, task):
        self.sent.append(index)
        super().submit(index, task)


BLOCKS = 11
REPS = (BLOCKS - 1) * BLOCK + 5


def test_pool_is_given_twice_its_size_ahead():
    parts = []
    with CountingPool(2) as pool:
        for i, part in enumerate(replicate_blocks(_uniforms, None, REPS, 7, pool)):
            # the block being yielded and at most three after it
            assert len(pool.sent) == min(i + 4, BLOCKS)
            parts.append(part)
    assert np.array_equal(np.concatenate(parts), map_replicates(_uniforms, None, REPS, 7))
    assert no_children_left()


def test_early_close_submits_nothing_more_and_the_next_run_is_served_in_order():
    with CountingPool(3) as pool:
        blocks = replicate_blocks(_uniforms, None, REPS, 7, pool)
        next(blocks)
        assert pool.sent == list(range(6))
        blocks.close()
        assert pool.sent == list(range(6))
        # the five blocks in flight were read and dropped, not left for this run
        again = map_replicates(_uniforms, None, 3 * BLOCK + 5, 8, pool)
    assert np.array_equal(again, map_replicates(_uniforms, None, 3 * BLOCK + 5, 8))
    assert no_children_left()


def test_a_pool_forks_at_its_first_block():
    with Pool(2) as pool:
        assert no_children_left()
        map_replicates(_uniforms, None, 3, 1, pool)
        assert not no_children_left()
    assert no_children_left()


def test_a_block_error_is_raised_here_and_the_pool_serves_the_next_run():
    with Pool(2) as pool:
        # block 0 fails with blocks 1 and 2 in flight, one failing, one not
        with pytest.raises(ValueError, match="a whole block failed"):
            map_replicates(_fail_on_whole_blocks, "fail", 2 * BLOCK + 5, 3, pool)
        again = map_replicates(_uniforms, None, 2 * BLOCK + 5, 4, pool)
    assert np.array_equal(again, map_replicates(_uniforms, None, 2 * BLOCK + 5, 4))
    assert no_children_left()


def test_a_process_that_exits_is_an_os_error_that_names_it():
    with Pool(2) as pool:
        with pytest.raises(OSError, match=r"^worker process 1 of 2 \(pid \d+\) exited with status 3 during the run$"):
            map_replicates(_exit_with_status_three, None, 5, 3, pool)
        # the pool has closed and reaped both processes
        assert no_children_left()
        # and forks new ones for the next run
        again = map_replicates(_uniforms, None, 5, 3, pool)
    assert np.array_equal(again, map_replicates(_uniforms, None, 5, 3))
    assert no_children_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors through /proc")
def test_each_process_holds_only_its_own_two_pipes():
    # a process that kept another's task pipe open would keep that one from
    # seeing the pipe end when the pool closes
    with Pool(3) as pool:
        held = list(replicate_blocks(_pipes, None, 3 * BLOCK, 1, pool))
    inherited = frozenset.intersection(*held)
    assert [len(pipes - inherited) for pipes in held] == [2, 2, 2]
