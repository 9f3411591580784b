"""Sharding of independent work over forked worker processes.

The simulator's lanes and the trajectory CSV's per-path text are split
into contiguous shards, one worker process per CPU this process may run
on, when every shard would still hold at least MIN_SHARD items: below
that a process costs more than it saves.  Without the ``fork`` start
method, or with one CPU in the affinity mask, everything runs in this
process as one shard, through the same code.  Workers are forked, so
they start in milliseconds with every module already loaded (a spawned
worker would import numpy and scipy again); this process starts no
thread of its own, and the workers run element-wise numpy work and
CPython text formatting, never BLAS, whose threads the fork does not
copy.

:func:`imap` joins every process it started before it returns or
raises, and an exception raised in a worker reaches the caller with
its type.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os

#: The fewest items (SDE lanes, CSV blocks) a shard may hold.  Narrow
#: SDE steps are bound by per-call overhead: on a 2-CPU x86-64 machine
#: two 32-lane shards took as long as one 64-lane process, at twice the
#: CPU, while 2 x 64 lanes beat 1 x 128 by about 14% and 2 x 128 beat
#: 1 x 256 by about 30%.
MIN_SHARD = 64


def cpu_count():
    """CPUs in this process's affinity mask (all CPUs where the
    platform has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def shard_count(n_items):
    """Shards for n_items: one per CPU while each holds at least
    MIN_SHARD items, and 1 (in this process) without ``fork``."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(cpu_count(), n_items // MIN_SHARD))


def shard_ranges(n_items, n_shards):
    """(lo, hi) bounds of n_shards contiguous, near-equal ranges."""
    bounds = [k * n_items // n_shards for k in range(n_shards + 1)]
    return list(zip(bounds, bounds[1:]))


def imap(fn, items, n):
    """fn over items, lazily and in order, on n forked workers.

    With n = 1 it is the builtin ``map``, in this process.  Otherwise
    worker w iterates its own copy of items, made by the fork, and
    computes every n-th result from the w-th on, so no item is sent to a
    worker; the results come back in item order.  A worker runs ahead of
    the reader by what the pipe holds, so memory stays bounded however
    many items there are.  An exception raised by fn, or by iterating
    items, in a worker is raised here.  The workers are joined when the
    results are exhausted, and terminated first if the reader stops
    early or raises.
    """
    if n == 1:
        return map(fn, items)
    return _forked_imap(fn, items, n)


def _forked_imap(fn, items, n):
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for w in range(n):
            conn, child_conn = ctx.Pipe(duplex=False)
            procs.append(ctx.Process(
                target=_serve, args=(fn, items, w, n, child_conn, list(conns)),
                daemon=True))
            conns.append(conn)
            procs[-1].start()
            child_conn.close()
        for k in itertools.count():
            # results are received and unpickled in this thread: a
            # receiving thread would keep them in a malloc arena of its own
            kind, value = conns[k % n].recv()
            if kind == "error":
                raise value
            if kind == "end":
                break
            yield value
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def _serve(fn, items, w, n, conn, readers):
    """Worker w's loop: ("item", fn(item)) for each of its items, then
    ("end", None); ("error", exception) in place of the first that
    raises.

    The fork copied the reading ends of the earlier workers' pipes;
    they are closed, so that a worker whose reader is gone gets an error
    on writing instead of waiting forever.
    """
    for end in readers:
        end.close()
    try:
        for item in itertools.islice(items, w, None, n):
            conn.send(("item", fn(item)))
    except Exception as exc:
        conn.send(("error", exc))
    else:
        conn.send(("end", None))
