"""Replicate scheduling: a pool's runs, each one task per process, and the
pool's processes."""

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


BLOCKS = 11
REPS = (BLOCKS - 1) * BLOCK + 5


def test_an_early_closed_run_closes_the_pool_and_the_next_run_forks_anew():
    with Pool(3) as pool:
        blocks = replicate_blocks(_uniforms, None, REPS, 7, pool)
        next(blocks)
        blocks.close()
        # every process was reaped, with the blocks it held
        assert no_children_left()
        again = map_replicates(_uniforms, None, 3 * BLOCK + 5, 8, pool)
    assert np.array_equal(again, map_replicates(_uniforms, None, 3 * BLOCK + 5, 8))
    assert no_children_left()


def test_processes_with_no_share_serve_the_next_run():
    with Pool(3) as pool:
        # one block: two of the three processes are sent an empty share
        one = map_replicates(_uniforms, None, 5, 2, pool)
        eleven = map_replicates(_uniforms, None, REPS, 7, pool)
    assert np.array_equal(one, map_replicates(_uniforms, None, 5, 2))
    assert np.array_equal(eleven, map_replicates(_uniforms, None, REPS, 7))
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
