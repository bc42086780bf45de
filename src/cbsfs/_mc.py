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
    """The loop of a pool process: run each pickled block task
    ``(fn, args, seed, lo, hi)`` read from ``tasks`` and write the pickled
    ``(ok, value)`` to ``results``, the block's results or the exception it
    raised, until ``tasks`` ends.  The pickle is written as it is built, in
    frames of 64 KB, so the process never holds it whole; one that cannot
    be written ends the process, which the parent reports."""
    while True:
        try:
            fn, args, seed, lo, hi = pickle.load(tasks)
        except EOFError:
            return
        try:
            reply = (True, _run_chunk(fn, args, seed, lo, hi, True))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        pickle.dump(reply, results, pickle.HIGHEST_PROTOCOL)
        results.flush()
        del reply  # not held while the next block is drawn


class Pool:
    """``size`` worker processes, each fed block tasks over a pipe of its own
    and answering over another.  They are forked at the first task, so a
    command rejected before it draws starts none, and reaped by
    :meth:`close`.  Task ``index`` goes to process ``index % size``, which
    runs its tasks in the order sent, so reading the processes in turn gives
    the results in the order the tasks were sent.  A task is a few hundred
    bytes, so sending one never waits on a busy process; a result waits in
    its process until it is read.  Needs ``os.fork`` (POSIX).
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

    def submit(self, index: int, task: tuple) -> None:
        """Send ``task`` = ``(fn, args, seed, lo, hi)`` to process ``index % size``."""
        if not self._workers:
            self._start()
        _, tasks, _ = self._workers[index % self.size]
        data = pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        try:
            while data:
                data = data[os.write(tasks, data):]
        except BrokenPipeError:
            self._lost(index % self.size)

    def _reply(self, index: int) -> tuple[bool, object]:
        _, _, results = self._workers[index % self.size]
        try:
            return pickle.load(results)
        except (EOFError, pickle.UnpicklingError):  # its process ended, mid-reply or before
            self._lost(index % self.size)

    def receive(self, index: int):
        """The results of task ``index``; the exception it raised is raised here."""
        ok, value = self._reply(index)
        if not ok:
            raise value
        return value

    def discard(self, indices) -> None:
        """Read and drop the replies to the tasks ``indices``, if the pool is open."""
        if self._workers:
            for index in indices:
                self._reply(index)

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
    (which the command opens and reuses for all its runs), block b is drawn
    by its process ``b % pool.size``, and the blocks are yielded in order.
    Blocks are sent as the consumer asks for them, at most twice the pool's
    size ahead: the block being yielded and those sent after it number at
    most that many, and a finished block waits in its process until it is
    read, so a slow consumer holds one block whatever ``reps`` is.  Closing
    the generator early sends nothing more and reads and drops the blocks in
    flight, so the pool serves the next run in order.  ``fn`` must be a
    module-level callable, and its results must pickle.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    starts = range(0, reps, BLOCK)
    if pool is None:
        for lo in starts:
            yield _run_chunk(fn, args, seed, lo, min(lo + BLOCK, reps))
        return
    sent = done = 0
    try:
        while done < len(starts):
            for lo in starts[sent : done + 2 * pool.size]:
                pool.submit(sent, (fn, args, seed, lo, min(lo + BLOCK, reps)))
                sent += 1
            done += 1
            # not bound here: the block is dropped while the next one is read
            yield pool.receive(done - 1)
    finally:
        pool.discard(range(done, sent))


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
