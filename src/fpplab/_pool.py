"""Independent trials mapped over the CPUs this process may run on."""

import os


def map_trials(fn, args):
    """[fn(*a) for a in args], in order.

    The trials run in a fork pool of min(len(args), CPUs in this
    process's affinity) workers. args is cut into one contiguous chunk
    per worker, each pickled as one message, so that the trials of a
    chunk share the objects their arguments share: a window, and the
    topology its first graph makes. With one worker they run here, since
    a pool of one only adds a fork. fn must be a module-level function,
    and its results are pickled back: return a trial's row, never its
    graph. Workers are forked, not spawned, since a spawned worker would
    import numpy and scipy again, which costs more than the trials.

    Memory: each worker holds one trial's graph at a time, so a run
    holds workers × one trial's graph beside what this process holds.
    """
    args = list(args)
    # where the CPU affinity cannot be read (not Linux), trials run here
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    workers = min(len(args), cpus)
    if workers <= 1:
        return [fn(*a) for a in args]
    import multiprocessing  # here, so that a run that never pools skips it
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        rows = pool.starmap(fn, args, chunksize=-(-len(args) // workers))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return rows
