"""Dirty parallel-payload module: PAR5xx vectors (never run).

Chunk functions handed to ``WorkerPool.run_batch`` and callables handed
to an executor's ``submit`` cross a process boundary; everything here
would pickle-fail inside the pool, which is exactly why the rules move
the failure to lint time.
"""

from functools import partial


def module_level_chunk(chunk):
    return list(chunk)


def dispatch(pool, executor, specs):
    # PAR501 fire: inline lambda chunk function.
    direct = pool.run_batch(specs, lambda chunk: list(chunk))
    # PAR501 suppressed twin, on the executor boundary.
    waved = executor.submit(lambda: specs)  # repro: noqa[PAR501]

    def local_chunk(chunk):
        return list(chunk)

    # PAR502 fire: partial over a local def pickles by a <locals>
    # qualname no worker can resolve.
    nested = executor.submit(partial(local_chunk, specs))
    # PAR502 suppressed twin, on the pool boundary.
    again = pool.run_batch(specs, local_chunk)  # repro: noqa[PAR502]

    # Clean: module-level functions and partials over them pickle by
    # qualified name.
    good = pool.run_batch(specs, module_level_chunk)
    wrapped = executor.submit(partial(module_level_chunk, specs))
    return direct, waved, nested, again, good, wrapped
