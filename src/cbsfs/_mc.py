"""Replicate scheduling: the one loop over blocks of replicates.

Every simulated quantity is built from independent replicates, drawn in
blocks of :data:`BLOCK`: block b holds replicates b*BLOCK onwards (the last
block holds what is left) and draws all of them from
``replicate_rng(seed, b)``.  ``replicate_blocks`` is the only place that
splits a run into blocks: it yields each block's results as soon as they
are drawn, in replicate order, so a caller that writes them out holds one
block at a time.  With a :class:`Pool` of W processes, process w is given
blocks w, w + W, ... of a run in one task and draws them in order.  The
block size is a constant, so output is a pure function of (seed, reps) no
matter how the blocks are spread over worker processes.  A
block function ``fn(args, rng, count)`` returns ``count`` results as an
array with one row per replicate (numbers for the Monte-Carlo means), or
yields them one row at a time (the text of the sampled trees, which is
written as it is drawn; a pool process collects its block's rows into a
list to send them back).  ``map_replicates`` concatenates the arrays, and
``mean_and_se`` reduces them.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Iterator

import numpy as np

# Replicates per block.  Large enough that per-block costs (a generator, a
# few dozen array calls) stay below 0.1 us per replicate, small enough that
# a block of genealogies of a few hundred leaves holds a few MB.
BLOCK = 1024


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index): block ``index`` of a run."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _run_chunk(fn, args, seed, lo, hi, pooled=False):
    """The results of replicates lo..hi-1: one block, lo a multiple of BLOCK.
    In a pool process (``pooled``) the rows of a block function that yields
    them are collected into a list, which is sent back whole."""
    block = fn(args, replicate_rng(seed, lo // BLOCK), hi - lo)
    return list(block) if pooled and isinstance(block, Iterator) else block


def _serve(tasks, results) -> None:
    """The loop of a pool process: for each pickled run task
    ``(fn, args, seed, reps, starts)`` read from ``tasks``, draw the blocks
    that start at ``starts``, in order, and write each one's pickled
    ``(ok, value)`` to ``results``, its results or the exception it raised,
    until ``tasks`` ends.  A pickle is written as it is built, in frames of
    64 KB, so the process never holds it whole; one that cannot be written
    ends the process, which the parent reports."""
    while True:
        try:
            fn, args, seed, reps, starts = pickle.load(tasks)
        except EOFError:
            return
        for lo in starts:
            try:
                reply = (True, _run_chunk(fn, args, seed, lo, min(lo + BLOCK, reps), True))
            except Exception as exc:  # raised again in the parent
                reply = (False, exc)
            pickle.dump(reply, results, pickle.HIGHEST_PROTOCOL)
            results.flush()
            del reply  # not held while the next block is drawn


class Pool:
    """``size`` worker processes, each given one task per run over a pipe of
    its own and answering over another.  They are forked at the first run,
    so a command rejected before it draws starts none, and reaped by
    :meth:`close`.  Each draws its blocks of a run in order, so reading the
    processes in turn gives the blocks in order.  A task is a few hundred
    bytes, so sending one never waits.  Needs ``os.fork`` (POSIX).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._workers = []  # (pid, task pipe fd, result pipe file) of each process

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self) -> None:
        for _ in range(self.size):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_read, task_write, result_read, result_write):
                    os.close(fd)
                raise
            if pid == 0:
                status = 1
                try:
                    # only its own two ends: a task pipe's last writer is the
                    # parent, so closing it ends that process's loop
                    for _, tasks, results in self._workers:
                        os.close(tasks)
                        results.close()
                    os.close(task_write)
                    os.close(result_read)
                    _serve(open(task_read, "rb"), open(result_write, "wb"))
                    status = 0
                finally:
                    # no parent state is flushed or finalised here
                    os._exit(status)
            os.close(task_read)
            os.close(result_write)
            self._workers.append((pid, task_write, open(result_read, "rb")))

    def run(self, fn, args, seed: int, reps: int, starts: range):
        """Yield the results of the blocks of ``reps`` replicates that start
        at ``starts``, in order; the exception a block raised is raised
        here.  A run that stops before its last block closes the pool."""
        try:
            if not self._workers:
                self._start()
            for w, (_, tasks, _) in enumerate(self._workers):
                data = pickle.dumps((fn, args, seed, reps, starts[w :: self.size]), pickle.HIGHEST_PROTOCOL)
                try:
                    while data:
                        data = data[os.write(tasks, data):]
                except BrokenPipeError:
                    self._lost(w)
            for b in range(len(starts)):
                try:
                    ok, value = pickle.load(self._workers[b % self.size][2])
                except (EOFError, pickle.UnpicklingError):  # its process ended, mid-reply or before
                    self._lost(b % self.size)
                if not ok:
                    raise value
                yield value
                del value  # not held while the next block is read
        except BaseException:
            self.close()
            raise

    def _lost(self, worker: int):
        # close the pool, so that nothing of the run is left in flight, and
        # say how the process ended
        pid = self._workers[worker][0]
        code = self.close()[pid]
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise OSError(f"worker process {worker + 1} of {self.size} (pid {pid}) {ended} during the run")

    def close(self) -> dict[int, int]:
        """Close every pipe and reap every process; their exit codes by pid.
        A process still drawing stops at its next read or write."""
        workers, self._workers = self._workers, []
        for _, tasks, results in workers:
            os.close(tasks)
            results.close()
        return {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _, _ in workers}


def replicate_blocks(fn, args, reps: int, seed: int, pool=None):
    """Yield the results of the block function ``fn`` for ``reps``
    replicates, one block at a time and in replicate order: each an array
    with one row per replicate, or an iterator of rows (a list from a pool).

    Without ``pool`` every block is drawn here.  With a :class:`Pool`
    (which the command opens and reuses for all its runs), each process is
    sent its share of the run once and draws block w, w + W, ... in order.
    A finished block waits in its process until it is read, so one block
    per process, and what a pipe buffers, is in flight whatever ``reps``
    is.  A run that stops early (a block's error, a lost process, the
    generator closed) closes the pool; the next run forks new processes.
    ``fn`` must be a module-level callable, and its results must pickle.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    starts = range(0, reps, BLOCK)
    if pool is None:
        for lo in starts:
            yield _run_chunk(fn, args, seed, lo, min(lo + BLOCK, reps))
        return
    yield from pool.run(fn, args, seed, reps, starts)


def map_replicates(fn, args, reps: int, seed: int, pool=None) -> np.ndarray:
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
