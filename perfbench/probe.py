"""Host-speed probe: a fixed piece of NumPy, SciPy and Python work.

On a shared host the speed one process gets drifts by up to 2x over
minutes as other tenants come and go, and its CPU time drifts with its
wall time.  ``worker.py`` times this probe before the first adaptive run
and after every run.  ``run.py`` scales each run's wall time by
``REFERENCE_S`` over the mean of the two probes around it, which gives the
run's time on a host of reference speed.  The probe does the kinds of work
an adaptive run does (batched small dense solves, sparse products,
gathers and scatters over a cell array, sorting and a Python dict loop)
and calls nothing in afem2d, so a change to the library cannot move it.
"""

import time

import numpy as np
import scipy.sparse as sp

# Median probe time on the 2-core Xeon VM the benchmark was tuned on, with
# one BLAS thread, at a quiet moment.
REFERENCE_S = 0.2


def _work(rng):
    blocks = rng.random((6000, 15, 15))
    spd = blocks @ blocks.transpose(0, 2, 1) + 15.0 * np.eye(15)
    np.linalg.solve(spd, rng.random((6000, 15, 1)))

    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(250, 250))
    laplacian = (sp.kron(line, sp.eye(250)) + sp.kron(sp.eye(250), line)).tocsr()
    y = rng.random(laplacian.shape[0])
    for _ in range(40):
        y = laplacian @ y
        y /= np.abs(y).max()

    cells = rng.integers(0, 60_000, size=(120_000, 3))
    xy = rng.random((60_000, 2))[cells]
    d1, d2 = xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]
    area = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    np.bincount(cells.ravel(), np.repeat(area, 3), minlength=60_000)
    edges = np.sort(cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    np.unique(edges[:, 0] * 60_000 + edges[:, 1], return_inverse=True)

    index = {}
    for key in map(tuple, rng.integers(0, 2000, size=(80_000, 2)).tolist()):
        index[key] = index.get(key, 0) + 1


def seconds():
    """Wall seconds of the probe's fixed work."""
    start = time.perf_counter()
    _work(np.random.default_rng(0))
    return time.perf_counter() - start
