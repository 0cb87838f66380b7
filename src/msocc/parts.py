"""Contiguous parts of a voxel range, one thread each: the one module of
msocc that starts threads. numpy releases the GIL inside `take`,
`multiply`, `add` and `readinto`, so parts that write disjoint slices run
on separate CPUs."""

import os

MIN_VOXELS = 2 ** 16  # below this, a thread costs more than it saves


def in_parts(n: int, work, unit: int = 1) -> None:
    """Call work(start, stop) over contiguous parts covering range(n), an
    index standing for `unit` voxels: at most one part per CPU this process
    may run on, each of at least MIN_VOXELS voxels. One part runs inline;
    more run on a thread pool joined before return, and the first part to
    fail, in part order, raises its error."""
    per = -(-MIN_VOXELS // max(unit, 1))  # indices in a part, at least
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # a platform with no affinity call
    parts = max(1, min(cpus, n // per))
    if parts == 1:
        return work(0, n)
    from concurrent.futures import ThreadPoolExecutor

    bounds = [n * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts) as pool:
        futures = [pool.submit(work, a, b) for a, b in zip(bounds, bounds[1:])]
    for future in futures:
        future.result()
