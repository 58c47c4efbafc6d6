"""Path ensembles run as wide, memory-bounded batches.

Path i of an ensemble draws only from its own rng stream (base + i) and
every kernel operation acts row by row, so results depend only on the
master seed and the path order, never on how paths are grouped.  An
ensemble therefore runs as one batch, cut into consecutive ranges only
where it exceeds MAX_WIDTH paths: the kernel's per-chunk draw buffer is
width x 4096 x driver_dim doubles, 32 MiB for a scalar driver at 1024.
The blocks run one after another in the calling thread.
"""

from __future__ import annotations

MAX_WIDTH = 1024


def map_blocks(worker, n_items):
    """Apply worker(start, stop) over consecutive ranges of at most
    MAX_WIDTH items, in order."""
    return [worker(a, min(a + MAX_WIDTH, n_items))
            for a in range(0, n_items, MAX_WIDTH)]
